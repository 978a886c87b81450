//! The benchmark's own tests, run in smoke mode.
//!
//! They need the `p2p-anon-node` binary next to the benchmark binary;
//! `python3 perfbench/run.py --selftest` builds both and runs them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A parsed JSON value: just enough of JSON for the benchmark's files.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                        match self.s[self.i] {
                            b'n' => out.push('\n'),
                            b'u' => {
                                let hex =
                                    std::str::from_utf8(&self.s[self.i + 1..self.i + 5]).unwrap();
                                out.push(
                                    char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                                );
                                self.i += 4;
                            }
                            c => out.push(c as char),
                        }
                        self.i += 1;
                    } else {
                        let start = self.i;
                        while self.s[self.i] != b'"' && self.s[self.i] != b'\\' {
                            self.i += 1;
                        }
                        out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                    }
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

struct Run {
    code: Option<i32>,
    detail: Json,
    result: Json,
}

/// Run the benchmark binary in smoke mode and parse its last two lines.
fn smoke(workload: &str, trace: u8, extra: &[&str]) -> Run {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "3"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .arg("--work-dir")
        .arg(&work_dir)
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: too little output: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    Run {
        code: out.status.code(),
        detail: parse(lines[lines.len() - 2]),
        result: parse(lines[lines.len() - 1]),
    }
}

#[test]
fn smoke_run_emits_every_declared_metric() {
    let bench = benchmark_json();
    for workload in bench.get("workloads").arr() {
        let name = workload.get("name").str();
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let declared: BTreeMap<&str, &str> = bench
                .get(section)
                .arr()
                .iter()
                .map(|m| (m.get("name").str(), m.get("unit").str()))
                .collect();
            let run = smoke(name, trace, &[]);
            let r = &run.result;
            assert_eq!(
                r.keys(),
                ["correct", "attempted", "failed", "metrics"],
                "{name}"
            );
            assert_eq!(
                r.get("correct"),
                &Json::Bool(true),
                "{name} trace {trace}: {:?}",
                run.detail
            );
            assert_eq!(run.code, Some(0), "{name} trace {trace}");
            let Json::Num(attempted) = r.get("attempted") else {
                panic!("attempted is not a number")
            };
            assert!(*attempted >= 1.0 && attempted.fract() == 0.0);
            assert_eq!(r.get("failed"), &Json::Num(0.0));
            let metrics = r.get("metrics");
            let emitted: BTreeMap<&str, &str> = metrics
                .keys()
                .into_iter()
                .map(|k| (k, metrics.get(k).get("unit").str()))
                .collect();
            assert_eq!(emitted, declared, "{name} trace {trace}: metrics and units");
            for (metric, unit) in &emitted {
                assert!(valid_name(metric), "bad metric name {metric:?}");
                assert!(!unit.is_empty(), "{metric} has no unit");
                assert!(
                    matches!(metrics.get(metric).get("value"), Json::Num(v) if v.is_finite()),
                    "{name}: {metric} is not a finite number"
                );
            }
            for field in ["nproc", "cpu_model", "kernel", "rustc", "commit"] {
                assert_ne!(
                    run.detail.get(field),
                    &Json::Null,
                    "{name}: stamp lacks {field}"
                );
            }
        }
    }
}

#[test]
fn wrong_expected_value_fails_the_run() {
    let real = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
    let run = smoke("recovery", 0, &[]);
    assert_eq!(run.detail.get("expected_rows_checked"), &Json::Bool(true));
    assert_eq!(run.result.get("correct"), &Json::Bool(true));

    // The same run against a copy whose stored delivery count is off by one.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrong-expected");
    std::fs::create_dir_all(&dir).unwrap();
    for file in ["recovery.txt", "setup.txt"] {
        std::fs::copy(real.join(file), dir.join(file)).unwrap();
    }
    let text = std::fs::read_to_string(dir.join("recovery.txt")).unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("smoke 1 "))
        .expect("a stored smoke row for seed 1");
    let delivered = line
        .split_whitespace()
        .find_map(|f| f.strip_prefix("delivered="))
        .unwrap();
    let wrong = line.replace(
        &format!("delivered={delivered}"),
        &format!("delivered={}", delivered.parse::<u64>().unwrap() + 1),
    );
    std::fs::write(dir.join("recovery.txt"), text.replace(line, &wrong)).unwrap();

    let run = smoke("recovery", 0, &["--expected-dir", dir.to_str().unwrap()]);
    assert_eq!(run.result.get("correct"), &Json::Bool(false));
    assert_ne!(run.result.get("failed"), &Json::Num(0.0));
    assert_eq!(run.code, Some(1));
    assert!(
        run.detail.get("check_failures").arr()[0]
            .str()
            .contains("expected values"),
        "{:?}",
        run.detail
    );
}
