//! The live-relay workload `relay_small`: a chain of `p2p-anon-node`
//! processes (one relay, one responder) over loopback, driven by one
//! client node inside this process, with 64 B payloads so that
//! per-packet cost dominates.
//!
//! Each run measures a closed loop (32 operations in flight) and then
//! an open loop at a fixed rate. The traced run adds a burst of
//! sequential path constructions, reads the relay and responder
//! counters from `/proc/<pid>` and from their `--stats-addr` endpoint,
//! and wraps the client's transport to time and count its calls.

use crate::micro::{self, Shape};
use crate::procfs;
use crate::report::{median, quantile, Outcome};
use anon_core::wire::{Frame, Wire};
use erasure::ErasureCodec;
use loadgen::{establish_chain, Arrival, Summary, Workload};
use sim_crypto::PublicKey;
use simnet::NodeId;
use std::cell::Cell;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use transport::{
    ProtocolNode, Roster, Runtime, TcpTransport, Transport, TransportError, TransportEvent,
};

/// The live backend on every end of the chain, pinned by name: the
/// `p2p-anon-node` default (`threaded`, the TCP thread-per-connection
/// transport). The client uses the matching [`TcpTransport`].
pub const BACKEND: &str = "threaded";

/// Operations kept in flight by the closed loop.
const IN_FLIGHT: usize = 32;

/// Chain set-ups per run, for the `setup_s` median.
const SETUP_REPEATS: usize = 5;

/// Sequential path constructions in the traced burst.
const BURST: usize = 200;

/// Seconds of unmeasured warm-up before each loop's window.
const WARMUP_S: f64 = 1.0;

/// Machine steal share above which a window is left out of the medians.
const QUIET_STEAL: f64 = 0.02;

/// Seconds of one closed-loop and of one open-loop measurement window.
const CLOSED_WINDOW_S: f64 = 1.0;
const OPEN_WINDOW_S: f64 = 0.5;

pub struct Params<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub node_bin: &'a Path,
    pub work_dir: &'a Path,
    pub payload_bytes: usize,
    /// The open loop's fixed arrival rate, operations per second.
    pub rate_hz: f64,
}

/// Kills and reaps every chain process when dropped.
struct Fleet {
    children: Vec<(u32, Child)>,
    stats: Vec<Option<String>>,
}

impl Fleet {
    fn pid(&self, i: usize) -> u32 {
        self.children[i].0
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A chain with its client node ready to send.
struct Chain {
    fleet: Fleet,
    rt: Runtime<Probe<TcpTransport>>,
    hops: Vec<(NodeId, PublicKey)>,
}

const CLIENT: NodeId = NodeId(0);
const RELAY: NodeId = NodeId(1);
const RESPONDER: NodeId = NodeId(2);

/// Spawn one relay and one responder on fresh loopback ports, bind the
/// client, and establish the first path.
fn spawn_chain(p: &Params, stats: bool, run_secs: u64) -> Result<Chain, String> {
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut roster = Roster::new(p.seed ^ 0x10ad_beef);
    for (id, l) in listeners.iter().enumerate() {
        let addr = l.local_addr().map_err(|e| e.to_string())?;
        roster.insert(NodeId(id as u32), addr.to_string());
    }
    drop(listeners);
    std::fs::create_dir_all(p.work_dir).map_err(|e| format!("{}: {e}", p.work_dir.display()))?;
    let config = p.work_dir.join("roster.toml");
    std::fs::write(&config, roster.to_config())
        .map_err(|e| format!("{}: {e}", config.display()))?;

    let mut fleet = Fleet {
        children: Vec::new(),
        stats: Vec::new(),
    };
    for id in [RELAY, RESPONDER] {
        let log = std::fs::File::create(p.work_dir.join(format!("node{}.log", id.0)))
            .map_err(|e| e.to_string())?;
        let mut cmd = Command::new(p.node_bin);
        cmd.arg("--config")
            .arg(&config)
            .args(["--id", &id.0.to_string()])
            .args(["--transport", BACKEND])
            .args(["--run-secs", &run_secs.to_string()])
            .args(["--seed", &p.seed.to_string()])
            .arg("--quiet")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log));
        if id == RESPONDER {
            cmd.args(["--role", "responder", "--codec", "1,1"]);
        } else {
            cmd.args(["--role", "relay"]);
        }
        if stats {
            cmd.args(["--stats-addr", "127.0.0.1:0"]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", p.node_bin.display()))?;
        let stdout = child.stdout.take().expect("stdout piped");
        fleet.children.push((child.id(), child));
        // Quiet nodes print STATS (when asked) and READY, then nothing.
        let mut stats_addr = None;
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => return Err(format!("node {} exited before READY", id.0)),
                Ok(_) if line.starts_with("READY") => break,
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("STATS addr=") {
                        stats_addr = Some(a.to_string());
                    }
                }
                Err(e) => return Err(format!("node {} stdout: {e}", id.0)),
            }
        }
        fleet.stats.push(stats_addr);
    }

    let mut policy = roster.policy;
    policy.ack_timeout_us = 2_000_000;
    let transport = TcpTransport::bind(CLIENT, roster.clone()).map_err(|e| e.to_string())?;
    let node = ProtocolNode::new(CLIENT, roster.keypair(CLIENT), p.seed ^ 0x6e6e)
        .with_policy(&policy)
        .with_codec(Box::new(ErasureCodec::new(1, 1).expect("(1,1) codec")));
    let mut rt = Runtime::new(Probe::new(transport));
    rt.add_node(node);
    let hops: Vec<_> = [RELAY, RESPONDER]
        .iter()
        .map(|&n| (n, roster.public_key(n)))
        .collect();
    establish_chain(&mut rt, CLIENT, &hops, 30_000_000)?;
    Ok(Chain { fleet, rt, hops })
}

/// The client's transport, wrapped to time and count its calls. Timing
/// is off until [`Probe::record`] turns it on.
struct Probe<T> {
    inner: T,
    on: bool,
    poll_s: f64,
    send_s: f64,
    /// Transport time of every payload frame sent while recording.
    payload_sends: Vec<u64>,
    /// The first clock reading after recording began: the open loop's
    /// `t0`, from which its intended starts are laid out.
    t0: Cell<Option<u64>>,
}

impl<T: Transport> Probe<T> {
    fn new(inner: T) -> Self {
        Probe {
            inner,
            on: false,
            poll_s: 0.0,
            send_s: 0.0,
            payload_sends: Vec::new(),
            t0: Cell::new(None),
        }
    }

    fn record(&mut self, on: bool) {
        self.on = on;
        self.poll_s = 0.0;
        self.send_s = 0.0;
        self.payload_sends.clear();
        self.t0.set(None);
    }

    fn sending(&mut self, frame: &Frame) -> Option<Instant> {
        if !self.on {
            return None;
        }
        if let Frame::Stream {
            wire: Wire::Payload { .. },
            ..
        } = frame
        {
            self.payload_sends.push(self.inner.now_us());
        }
        Some(Instant::now())
    }
}

impl<T: Transport> Transport for Probe<T> {
    fn now_us(&self) -> u64 {
        let now = self.inner.now_us();
        if self.on && self.t0.get().is_none() {
            self.t0.set(Some(now));
        }
        now
    }

    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame) -> Result<(), TransportError> {
        let t = self.sending(&frame);
        let r = self.inner.send(from, to, frame);
        if let Some(t) = t {
            self.send_s += t.elapsed().as_secs_f64();
        }
        r
    }

    fn send_prioritized(
        &mut self,
        from: NodeId,
        to: NodeId,
        frame: Frame,
        prio: transport::Priority,
    ) -> Result<(), TransportError> {
        let t = self.sending(&frame);
        let r = self.inner.send_prioritized(from, to, frame, prio);
        if let Some(t) = t {
            self.send_s += t.elapsed().as_secs_f64();
        }
        r
    }

    fn set_timer(&mut self, owner: NodeId, token: u64, after_us: u64) {
        self.inner.set_timer(owner, token, after_us)
    }

    fn cancel_timer(&mut self, owner: NodeId, token: u64) {
        self.inner.cancel_timer(owner, token)
    }

    fn poll(&mut self, wait_us: u64) -> Option<TransportEvent> {
        if !self.on {
            return self.inner.poll(wait_us);
        }
        let t = Instant::now();
        let ev = self.inner.poll(wait_us);
        self.poll_s += t.elapsed().as_secs_f64();
        ev
    }
}

fn workload(arrival: Arrival, payload: &[u8], measure_s: f64) -> Workload {
    Workload {
        arrival,
        payload: payload.to_vec(),
        warmup_us: (WARMUP_S * 1e6) as u64,
        measure_us: (measure_s * 1e6) as u64,
        drain_us: 2_000_000,
    }
}

/// Check a loop's summary, adding its operations to the run's counts.
fn account(o: &mut Outcome, what: &str, s: &Summary) {
    o.attempted += s.launched;
    let failed = s.incomplete + s.send_errors + if s.saturated { s.launched } else { 0 };
    o.failed += failed;
    if s.ops == 0 {
        o.fail(format!("{what}: no operation completed"));
    }
    if failed > 0 {
        o.fail(format!(
            "{what}: {} incomplete, {} send errors, saturated={} of {} launched",
            s.incomplete, s.send_errors, s.saturated, s.launched
        ));
    }
    if s.ops + s.incomplete != s.launched {
        o.fail(format!(
            "{what}: {} completed + {} incomplete != {} launched",
            s.ops, s.incomplete, s.launched
        ));
    }
}

/// Deterministic payload bytes for `seed`.
fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// Spawn the chain `SETUP_REPEATS` times, timing spawn plus first path;
/// returns the median and the last chain.
fn setup(p: &Params, stats: bool, o: &mut Outcome) -> Result<(f64, Chain), String> {
    let run_secs = (p.seconds * 2.0) as u64 + 60;
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        o.attempted += 1;
        let t = Instant::now();
        match spawn_chain(p, stats, run_secs) {
            Ok(c) => {
                times.push(t.elapsed().as_secs_f64());
                last = Some(c);
            }
            Err(e) => {
                o.failed += 1;
                return Err(e);
            }
        }
    }
    Ok((median(&times), last.expect("at least one set-up")))
}

pub fn run(p: &Params) -> Outcome {
    let mut o = Outcome::default();
    o.note_str("relay_backend", BACKEND);
    o.note("payload_bytes", p.payload_bytes);
    o.note("open_loop_rate_hz", p.rate_hz);
    let result = if p.trace {
        traced(p, &mut o)
    } else {
        timed(p, &mut o)
    };
    if let Err(e) = result {
        o.fail(e);
    }
    o
}

/// Seconds each of the closed and the open loop measures: they split
/// what the two warm-ups leave of the run.
fn loop_seconds(p: &Params) -> f64 {
    ((p.seconds - 2.0 * WARMUP_S) / 2.0).max(0.5)
}

fn timed(p: &Params, o: &mut Outcome) -> Result<(), String> {
    let bytes = payload(p.seed, p.payload_bytes);
    let (setup_s, mut chain) = setup(p, false, o)?;
    let loop_s = loop_seconds(p);
    // The closed loop also runs as consecutive windows, for a median.
    let count = ((loop_s / CLOSED_WINDOW_S).floor() as usize).max(1);
    let (mut rates, mut steals, mut closed_ops, mut timeouts) =
        (Vec::new(), Vec::new(), 0u64, 0u64);
    for i in 0..count {
        let mut w = workload(
            Arrival::Closed {
                in_flight: IN_FLIGHT,
            },
            &bytes,
            CLOSED_WINDOW_S,
        );
        if i > 0 {
            w.warmup_us = 100_000;
        }
        let before = procfs::steal_ticks();
        let s = loadgen::run(&mut chain.rt, CLIENT, &w, chain.hops.len());
        steals.push(procfs::steal_share(before, procfs::steal_ticks()));
        account(o, "closed loop", &s);
        rates.push(s.ops_per_sec());
        closed_ops += s.ops;
        timeouts += s.timeout_events;
    }
    let open = open_loop(&mut chain, p, &bytes, loop_s, o);
    let rss = procfs::peak_rss_mb(Some(chain.fleet.pid(0)))?;

    o.metric("setup_s", setup_s, "s");
    let rates_used = quiet(&rates, &steals);
    let p50s = quiet(&open.p50s, &open.steals);
    o.metric("throughput_per_s", median(&rates_used), "1/s");
    o.metric("latency_p50_us", median(&p50s), "us");
    o.metric(
        "latency_p90_us",
        median(&quiet(&open.p90s, &open.steals)),
        "us",
    );
    o.metric("peak_rss_mb", rss, "MiB");
    o.note("closed_loop_ops", closed_ops);
    o.note("closed_loop_rates", format!("{rates:?}"));
    o.note("closed_loop_windows_used", rates_used.len());
    o.note("open_loop_windows_used", p50s.len());
    o.note("client_peak_rss_mb", procfs::peak_rss_mb(None)?);
    o.note("open_loop_samples", open.samples);
    o.note("open_loop_windows", open.p50s.len());
    o.note("open_loop_p99s_us", format!("{:?}", open.p99s));
    o.note("timeouts", timeouts + open.timeouts);
    Ok(())
}

/// The values of the windows during which the hypervisor took at most
/// [`QUIET_STEAL`] of the machine's CPU time, or all values when fewer
/// than a quarter of the windows were that quiet. Time the hypervisor
/// gives to other guests is not this program's cost, and on a shared
/// host it comes in bursts that would otherwise decide the result.
fn quiet(values: &[f64], steals: &[f64]) -> Vec<f64> {
    let kept: Vec<f64> = values
        .iter()
        .zip(steals)
        .filter(|&(_, &s)| s <= QUIET_STEAL)
        .map(|(&v, _)| v)
        .collect();
    if kept.len() * 4 >= values.len() && !kept.is_empty() {
        kept
    } else {
        values.to_vec()
    }
}

/// Per-window results of an open loop.
struct Open {
    /// Machine steal share during each window.
    steals: Vec<f64>,
    p50s: Vec<f64>,
    p90s: Vec<f64>,
    p99s: Vec<f64>,
    samples: u64,
    timeouts: u64,
    /// Launch lateness of every operation, when the probe recorded.
    lags: Vec<f64>,
}

/// The open loop at `p.rate_hz` for `total_s`, as consecutive windows of
/// [`OPEN_WINDOW_S`]. Reported percentiles are medians over windows, so
/// that one stall of the shared host moves them less.
fn open_loop(chain: &mut Chain, p: &Params, bytes: &[u8], total_s: f64, o: &mut Outcome) -> Open {
    let windows = ((total_s / OPEN_WINDOW_S).floor() as usize).max(1);
    let period_us = ((1e6 / p.rate_hz) as u64).max(1);
    let mut r = Open {
        steals: Vec::new(),
        p50s: Vec::new(),
        p90s: Vec::new(),
        p99s: Vec::new(),
        samples: 0,
        timeouts: 0,
        lags: Vec::new(),
    };
    let probing = chain.rt.transport.on;
    for i in 0..windows {
        let mut w = workload(Arrival::Open { rate_hz: p.rate_hz }, bytes, OPEN_WINDOW_S);
        if i > 0 {
            w.warmup_us = 100_000;
        }
        chain.rt.transport.record(probing);
        let before = procfs::steal_ticks();
        let s = loadgen::run(&mut chain.rt, CLIENT, &w, chain.hops.len());
        r.steals
            .push(procfs::steal_share(before, procfs::steal_ticks()));
        account(o, "open loop", &s);
        let q = |q: f64| s.latency.quantile(q).unwrap_or(0) as f64;
        r.p50s.push(q(0.5));
        r.p90s.push(q(0.9));
        r.p99s.push(q(0.99));
        r.samples += s.ops;
        r.timeouts += s.timeout_events;
        if probing {
            // With no retransmission, payload sends and launches pair up
            // one to one: launch `i` was due at `t0 + i * period`.
            let probe = &chain.rt.transport;
            let t0 = probe.t0.get().unwrap_or(0);
            let due = w.warmup_us + w.measure_us;
            let launches = due.div_ceil(period_us) as usize;
            if s.timeout_events == 0 && probe.payload_sends.len() != launches {
                o.fail(format!(
                    "lag accounting: {} payload sends for {launches} open-loop launches",
                    probe.payload_sends.len()
                ));
            }
            r.lags.extend(
                probe
                    .payload_sends
                    .iter()
                    .enumerate()
                    .map(|(i, &at)| at.saturating_sub(t0 + i as u64 * period_us) as f64),
            );
        }
    }
    r
}

/// Counters scraped from one node's `/metrics` page.
#[derive(Default)]
struct Scrape {
    frames_enqueued: u64,
    max_queue_depth: u64,
}

fn scrape(addr: &str) -> Result<Scrape, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("stats {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| e.to_string())?;
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").map_err(|e| e.to_string())?;
    let mut page = String::new();
    stream
        .read_to_string(&mut page)
        .map_err(|e| format!("stats {addr}: {e}"))?;
    let mut s = Scrape::default();
    for line in page.lines().filter(|l| !l.starts_with('#')) {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(v) = value.parse::<f64>() else {
            continue;
        };
        let family = name.split('{').next().unwrap_or("");
        match family {
            "transport_frames_enqueued_total" => s.frames_enqueued += v as u64,
            "transport_writer_queue_depth" => s.max_queue_depth = s.max_queue_depth.max(v as u64),
            _ => {}
        }
    }
    Ok(s)
}

fn traced(p: &Params, o: &mut Outcome) -> Result<(), String> {
    let bytes = payload(p.seed, p.payload_bytes);
    // Each loop gets half its timed length: the closed loop runs twice,
    // first on a chain without instruments for the tracing overhead.
    let window = (loop_seconds(p) / 2.0).max(0.5);
    let plain = {
        let (_, mut chain) = setup(p, false, o)?;
        let s = loadgen::run(
            &mut chain.rt,
            CLIENT,
            &workload(
                Arrival::Closed {
                    in_flight: IN_FLIGHT,
                },
                &bytes,
                window,
            ),
            chain.hops.len(),
        );
        account(o, "untraced closed loop", &s);
        s.ops_per_sec()
    };

    let (_, mut chain) = setup(p, true, o)?;
    let relay_stats = chain.fleet.stats[0]
        .clone()
        .ok_or("relay printed no STATS line")?;
    let relay_pid = chain.fleet.pid(0);
    let responder_pid = chain.fleet.pid(1);

    // Closed loop, with process counters around it and a scraper
    // sampling the relay's writer queue.
    let before = (
        procfs::sample(Some(relay_pid))?,
        procfs::sample(Some(responder_pid))?,
        procfs::sample(None)?,
        scrape(&relay_stats)?,
    );
    chain.rt.transport.record(true);
    let stop = AtomicBool::new(false);
    let (closed, depth_max) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut max = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(sc) = scrape(&relay_stats) {
                    max = max.max(sc.max_queue_depth);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            max
        });
        let t = Instant::now();
        let summary = loadgen::run(
            &mut chain.rt,
            CLIENT,
            &workload(
                Arrival::Closed {
                    in_flight: IN_FLIGHT,
                },
                &bytes,
                window,
            ),
            chain.hops.len(),
        );
        let wall = t.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let max = sampler.join().expect("queue sampler thread");
        ((summary, wall), max)
    });
    let (closed, client_wall) = closed;
    let probe = &chain.rt.transport;
    let (poll_s, send_s) = (probe.poll_s, probe.send_s);
    // Every operation of the bracketed run, warm-up included, is one
    // payload frame from the client; the counters below cover them all.
    let ops_total = probe.payload_sends.len();
    chain.rt.transport.record(false);
    let after = (
        procfs::sample(Some(relay_pid))?,
        procfs::sample(Some(responder_pid))?,
        procfs::sample(None)?,
        scrape(&relay_stats)?,
    );
    account(o, "traced closed loop", &closed);
    let ops = ops_total.max(1) as f64;
    let relay = after.0.since(&before.0);
    let responder = after.1.since(&before.1);
    let client = after.2.since(&before.2);
    let relay_frames = after
        .3
        .frames_enqueued
        .saturating_sub(before.3.frames_enqueued);
    o.note("traced_closed_loop_ops", closed.ops);

    // Open loop, probed: how late the generator launched each operation.
    chain.rt.transport.record(true);
    let open = open_loop(&mut chain, p, &bytes, window, o);
    chain.rt.transport.record(false);
    o.note("timeouts", closed.timeout_events + open.timeouts);
    let lags = open.lags;

    // Burst of sequential path constructions, last so the loops above
    // ran over a single path.
    let mut builds = Vec::new();
    for _ in 0..if p.smoke { 20 } else { BURST } {
        let want = chain.rt.node(CLIENT).established_paths() + 1;
        let t = Instant::now();
        let hops = chain.hops.clone();
        chain
            .rt
            .drive(CLIENT, |n, out| n.construct_paths(&[hops], out));
        let deadline = chain.rt.transport.now_us() + 5_000_000;
        chain
            .rt
            .run_until(deadline, |rt| rt.node(CLIENT).established_paths() >= want);
        o.attempted += 1;
        if chain.rt.node(CLIENT).established_paths() < want {
            o.failed += 1;
            o.fail("a burst construction timed out".to_string());
            break;
        }
        builds.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // Unit costs at this workload's shape: relay plus responder hops,
    // one (1,1) segment of the payload.
    let codec = ErasureCodec::new(1, 1).expect("(1,1) codec");
    let u = micro::measure(
        &Shape {
            hops: chain.hops.len(),
            segment_bytes: erasure::Codec::segment_len(&codec, p.payload_bytes),
            code: (1, 1),
            message_bytes: p.payload_bytes,
        },
        p.seed,
    );
    let relay_cpu_us = relay.cpu_s * 1e6 / ops;

    zero_sim_layers(o);
    o.metric("core.construct_onion_us", u.construct_onion_us, "us");
    o.metric("sim-crypto.x25519_us", u.x25519_us, "us");
    o.metric("core.payload_peel_us", u.payload_peel_us, "us");
    o.metric("core.reverse_wrap_us", u.reverse_wrap_us, "us");
    o.metric("sim-crypto.chacha20_mib_s", u.chacha20_mib_s, "MiB/s");
    o.metric("sim-crypto.hmac_mib_s", u.hmac_mib_s, "MiB/s");
    o.metric("erasure.encode_us", u.encode_us, "us");
    o.metric("erasure.decode_us", u.decode_us, "us");
    o.metric(
        "core.crypto_share",
        (u.payload_peel_us + u.reverse_wrap_us) / relay_cpu_us,
        "ratio",
    );
    o.metric("core.segments", ops_total as f64, "count");
    o.metric("core.driver_other_s", client_wall - poll_s - send_s, "s");
    o.metric("bench.traced_wall_s", client_wall, "s");
    o.metric(
        "bench.trace_overhead_share",
        plain / closed.ops_per_sec() - 1.0,
        "ratio",
    );
    o.metric("transport.client_poll_s", poll_s, "s");
    o.metric("transport.client_send_s", send_s, "s");
    o.metric("transport.relay_cpu_us_per_op", relay_cpu_us, "us");
    o.metric(
        "transport.responder_cpu_us_per_op",
        responder.cpu_s * 1e6 / ops,
        "us",
    );
    o.metric(
        "loadgen.client_cpu_us_per_op",
        client.cpu_s * 1e6 / ops,
        "us",
    );
    o.metric(
        "transport.relay_ctx_switches_per_op",
        relay.ctx_switches as f64 / ops,
        "count",
    );
    o.metric(
        "transport.frames_per_op",
        relay_frames as f64 / ops,
        "count",
    );
    o.metric(
        "transport.writer_queue_depth_max",
        depth_max as f64,
        "count",
    );
    o.metric(
        "transport.circuit_build_p50_us",
        if builds.is_empty() {
            0.0
        } else {
            median(&builds)
        },
        "us",
    );
    o.metric("loadgen.latency_p99_us", median(&open.p99s), "us");
    o.metric(
        "loadgen.lag_p99_us",
        if lags.is_empty() {
            0.0
        } else {
            quantile(&lags, 0.99)
        },
        "us",
    );
    Ok(())
}

/// Simulation layers the relay workloads never run: reported as zero.
fn zero_sim_layers(o: &mut Outcome) {
    for (name, unit) in [
        ("simnet.churn_generate_s", "s"),
        ("simnet.latency_build_s", "s"),
        ("membership.init_s", "s"),
        ("core.world_new_s", "s"),
        ("membership.advance_s", "s"),
        ("membership.share", "ratio"),
        ("membership.gossip_msgs", "count"),
        ("membership.cache_entries", "count"),
        ("core.mix_choice_biased_us", "us"),
        ("core.mix_choice_random_us", "us"),
        ("core.mix_choice_calls", "count"),
        ("core.mix_choice_s", "s"),
        ("core.traverse_us", "us"),
        ("core.traverse_s", "s"),
        ("simnet.traversals", "count"),
        ("simnet.links", "count"),
        ("simnet.events", "count"),
        ("simnet.ns_per_event", "ns"),
        ("simnet.engine_s", "s"),
        ("sim-crypto.keygen_s", "s"),
        ("core.onion_build_s", "s"),
    ] {
        o.metric(name, 0.0, unit);
    }
}

/// Relay layers the simulation workloads never run: reported as zero.
pub fn zero_relay_layers(o: &mut Outcome) {
    for (name, unit) in [
        ("transport.client_poll_s", "s"),
        ("transport.client_send_s", "s"),
        ("transport.relay_cpu_us_per_op", "us"),
        ("transport.responder_cpu_us_per_op", "us"),
        ("loadgen.client_cpu_us_per_op", "us"),
        ("transport.relay_ctx_switches_per_op", "count"),
        ("transport.frames_per_op", "count"),
        ("transport.writer_queue_depth_max", "count"),
        ("transport.circuit_build_p50_us", "us"),
        ("loadgen.latency_p99_us", "us"),
        ("loadgen.lag_p99_us", "us"),
    ] {
        o.metric(name, 0.0, unit);
    }
}
