//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload recovery|setup|relay_small
//!           --seed N --seconds S --trace 0|1
//!           [--smoke] [--node-bin PATH] [--work-dir DIR]
//!           [--expected-dir DIR] [--print-rows]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload again with a timer around every layer call and prints the
//! per-layer metrics. `--smoke` shrinks every workload to seconds. The
//! last line of standard output is the result object; the line before
//! it carries the provenance stamp and the sample counts. The process
//! exits 1 when an output check failed and 2 on bad arguments.
//!
//! Normally started through `perfbench/run.py`, which builds this
//! program and the `p2p-anon-node` binary first.

mod micro;
mod procfs;
mod relay;
mod report;
mod sim;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// The open-loop rate of `relay_small`, fixed here and never derived
/// from a run's own capacity: about a third of the closed-loop ceiling
/// measured on a 2-CPU container when this benchmark was written.
const SMALL_RATE_HZ: f64 = 4000.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    node_bin: Option<PathBuf>,
    work_dir: Option<PathBuf>,
    expected_dir: PathBuf,
    print_rows: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        node_bin: None,
        work_dir: None,
        expected_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected"),
        print_rows: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--node-bin" => args.node_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => args.work_dir = Some(PathBuf::from(value()?)),
            "--expected-dir" => args.expected_dir = PathBuf::from(value()?),
            "--print-rows" => args.print_rows = true,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Hardware and provenance of the run, as JSON fields.
fn stamp(o: &mut Outcome) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    o.note("nproc", nproc);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    o.note_str("cpu_model", &cpu);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    o.note_str("kernel", &kernel);
    for (key, var) in [("rustc", "PERFBENCH_RUSTC"), ("commit", "PERFBENCH_COMMIT")] {
        let v = std::env::var(var).unwrap_or_else(|_| "unknown".to_string());
        o.note_str(key, &v);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_default();
    let node_bin = args
        .node_bin
        .clone()
        .unwrap_or_else(|| exe_dir.join("p2p-anon-node"));
    // The relay roster and node logs go under the build directory.
    let work_dir = args
        .work_dir
        .clone()
        .unwrap_or_else(|| exe_dir.join("perfbench-run"));

    let sim_params = sim::Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        expected_dir: &args.expected_dir,
        print_rows: args.print_rows,
    };
    let stolen_before = procfs::steal_ticks();
    let mut outcome = match args.workload.as_str() {
        "recovery" => sim::run(sim::Kind::Recovery, &sim_params),
        "setup" => sim::run(sim::Kind::Setup, &sim_params),
        "relay_small" => relay::run(&relay::Params {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
            node_bin: &node_bin,
            work_dir: &work_dir,
            payload_bytes: 64,
            rate_hz: SMALL_RATE_HZ,
        }),
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            return ExitCode::from(2);
        }
    };
    // CPU time the hypervisor gave to other guests during the run: a
    // large share explains an outlier.
    let steal = procfs::steal_share(stolen_before, procfs::steal_ticks());
    outcome.note("steal_share", steal);
    outcome.note_str("workload", &args.workload);
    outcome.note("seed", args.seed);
    outcome.note("trace", args.trace);
    outcome.note("smoke", args.smoke);
    stamp(&mut outcome);
    println!("{}", outcome.detail_line());
    println!("{}", outcome.result_line());
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
