//! The two simulation workloads at paper scale.
//!
//! * `recovery` — the message-level recovery experiment: CurMix and
//!   SimEra(4,2), biased mix choice, `heavy` faults, retry budget 2,
//!   50 × 1 KB messages every 20 s, N = 1024.
//! * `setup` — the Table-1 path-setup experiment: SimEra(2,2) with
//!   random and with biased mix choice, 116 s mean inter-arrival.
//!
//! The timed run calls the program's entry points
//! (`run_recovery_experiment`, `run_setup_experiment`). The traced run
//! replays the same experiment from this file, one public layer call at
//! a time, with a timer around each call; its rows must equal the timed
//! run's, which proves the replay does the same work.

use crate::micro::{self, Shape};
use crate::procfs;
use crate::report::{median, quantile, Outcome};
use anon_core::driver::Driver;
use anon_core::endpoint::Initiator;
use anon_core::metrics::ProtocolMetrics;
use anon_core::protocols::runner::{
    run_recovery_experiment, run_setup_experiment, RecoveryConfig, RecoveryParams, RecoveryResult,
    SetupConfig,
};
use anon_core::protocols::ProtocolKind;
use anon_core::sim::{FailureDetection, World, WorldConfig};
use anon_core::{AnonError, MessageId, MixStrategy, StreamId};
use membership::MembershipLayer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{ChurnSchedule, FaultConfig, FaultPlan, NodeId, SimDuration, SimTime};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// How many times set-up is repeated for its median.
const SETUP_REPEATS: usize = 9;

/// The `heavy` level of the recovery sweep, pinned here so that the
/// workload cannot drift with the sweep's definition.
const HEAVY: FaultConfig = FaultConfig {
    link_drop: 0.12,
    spike_prob: 0.10,
    spike_factor: 6.0,
    crashes_per_hour: 2.0,
    view_staleness: SimDuration::from_secs(300),
    ..FaultConfig::NONE
};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Recovery,
    Setup,
}

/// One experiment run of a job.
#[derive(Clone)]
enum Job {
    Recovery(RecoveryConfig),
    Setup(SetupConfig),
}

/// The world every job of the workload builds, at paper or smoke size.
fn world(seed: u64, smoke: bool) -> WorldConfig {
    if smoke {
        WorldConfig {
            n: 96,
            horizon: SimTime::from_secs(1200),
            ..WorldConfig::paper_default(seed)
        }
    } else {
        WorldConfig::paper_default(seed)
    }
}

fn warmup(smoke: bool) -> SimTime {
    SimTime::from_secs(if smoke { 600 } else { 3600 })
}

/// The runs of one job, in order.
fn jobs(kind: Kind, seed: u64, smoke: bool) -> Vec<Job> {
    match kind {
        Kind::Recovery => [ProtocolKind::CurMix, ProtocolKind::SimEra { k: 4, r: 2 }]
            .into_iter()
            .map(|protocol| {
                Job::Recovery(RecoveryConfig {
                    world: world(seed, smoke),
                    protocol,
                    strategy: MixStrategy::Biased,
                    faults: HEAVY,
                    recovery: RecoveryParams {
                        retry_budget: 2,
                        ..RecoveryParams::default()
                    },
                    warmup: warmup(smoke),
                    msg_interval: SimDuration::from_secs(20),
                    msg_bytes: 1024,
                    messages: if smoke { 6 } else { 50 },
                })
            })
            .collect(),
        Kind::Setup => [MixStrategy::Random, MixStrategy::Biased]
            .into_iter()
            .map(|strategy| {
                Job::Setup(SetupConfig {
                    world: world(seed, smoke),
                    protocol: ProtocolKind::SimEra { k: 2, r: 2 },
                    strategy,
                    warmup: warmup(smoke),
                    mean_interarrival: SimDuration::from_secs(116),
                })
            })
            .collect(),
    }
}

/// A run's output as one comparable line.
fn recovery_row(cfg: &RecoveryConfig, r: &RecoveryResult) -> String {
    format!(
        "{} sent={} delivered={} partial={} segments={} retransmits={} rebuilt={} rounds={} latency_ms={:?} bandwidth_kb={:?}",
        cfg.protocol.label(),
        r.metrics.messages_sent,
        r.delivered,
        r.partial,
        r.segments_sent,
        r.retransmits,
        r.paths_rebuilt,
        r.construction_rounds,
        r.metrics.latency_ms.mean(),
        r.metrics.bandwidth_kb.mean(),
    )
}

fn setup_row(cfg: &SetupConfig, m: &ProtocolMetrics) -> String {
    format!(
        "{}/{} attempts={} successes={}",
        cfg.protocol.label(),
        cfg.strategy.label(),
        m.construction_attempts,
        m.construction_successes,
    )
}

/// Work units of a run: messages attempted or constructions evaluated.
struct RunOut {
    row: String,
    units: u64,
    /// Delivery rate (recovery) or setup success rate (setup), for the
    /// paper-shape checks.
    rate: f64,
}

/// Run a job through the program's own entry point.
fn run_untraced(job: &Job) -> RunOut {
    match job {
        Job::Recovery(cfg) => {
            let r = run_recovery_experiment(cfg);
            RunOut {
                row: recovery_row(cfg, &r),
                units: r.metrics.messages_sent,
                rate: r.delivery_rate(),
            }
        }
        Job::Setup(cfg) => {
            let m = run_setup_experiment(cfg);
            RunOut {
                row: setup_row(cfg, &m),
                units: m.construction_attempts,
                rate: m.setup_success_rate(),
            }
        }
    }
}

/// Self time of each layer call in a traced run, seconds, plus counts.
#[derive(Default)]
struct Spans {
    world_new: f64,
    membership: f64,
    mix_choice_biased: f64,
    mix_calls_biased: u64,
    mix_choice_random: f64,
    mix_calls_random: u64,
    traverse: f64,
    traverse_calls: u64,
    keygen: f64,
    onion_build: f64,
    engine: f64,
    wall: f64,
    // Counts read from the layers after each run.
    gossip_msgs: u64,
    cache_entries: u64,
    traversals: u64,
    links: u64,
    events: u64,
    segments: u64,
}

impl Spans {
    fn attributed(&self) -> f64 {
        self.world_new
            + self.membership
            + self.mix_choice_biased
            + self.mix_choice_random
            + self.traverse
            + self.keygen
            + self.onion_build
            + self.engine
    }

    /// Counts a finished world holds.
    fn read_world(&mut self, world: &World) {
        if let MembershipLayer::Gossip(g) = &world.membership {
            self.gossip_msgs += g.messages_sent();
        }
        self.cache_entries += (0..world.cfg.n)
            .map(|i| world.cache(NodeId::from(i)).len() as u64)
            .sum::<u64>();
        self.traversals += world.stats.traversals();
        self.links += world.stats.links();
    }

    fn mix(&mut self, strategy: MixStrategy, secs: f64) {
        match strategy {
            MixStrategy::Biased => {
                self.mix_choice_biased += secs;
                self.mix_calls_biased += 1;
            }
            _ => {
                self.mix_choice_random += secs;
                self.mix_calls_random += 1;
            }
        }
    }
}

/// Time one call into a layer, adding its duration to `acc`.
fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// Replay of `run_setup_experiment`, one timed layer call at a time.
fn setup_traced(cfg: &SetupConfig, sp: &mut Spans) -> RunOut {
    let mut world = timed(&mut sp.world_new, || World::new(cfg.world.clone()));
    let mut metrics = ProtocolMetrics::new();
    let horizon = cfg.world.horizon;
    let mean = cfg.mean_interarrival.as_secs_f64();
    let mut events: Vec<(SimTime, NodeId)> = Vec::new();
    for i in 0..cfg.world.n {
        let mut t = cfg.warmup;
        loop {
            let u: f64 = 1.0 - world.rng.gen::<f64>();
            t += SimDuration::from_secs_f64(-mean * u.ln());
            if t >= horizon {
                break;
            }
            events.push((t, NodeId::from(i)));
        }
    }
    events.sort_unstable_by_key(|&(t, n)| (t, n.0));
    let rule = cfg.protocol.success_rule();
    let k = cfg.protocol.paths();
    for (t, initiator) in events {
        timed(&mut sp.membership, || world.advance_gossip(t));
        if !world.schedule.is_up(initiator, t) {
            continue;
        }
        let Some(responder) = world.random_live_node(&[initiator], t) else {
            continue;
        };
        let start = Instant::now();
        let picked = world.pick_paths(initiator, responder, k, cfg.strategy, t);
        sp.mix(cfg.strategy, start.elapsed().as_secs_f64());
        let formed = match picked {
            Ok(paths) => {
                let mut formed = 0usize;
                for relays in &paths {
                    sp.traverse_calls += 1;
                    let out = timed(&mut sp.traverse, || {
                        world.construct_path(initiator, relays, responder, t)
                    });
                    if out.success {
                        formed += 1;
                    } else if let Some(h) = out.failed_hop {
                        timed(&mut sp.membership, || {
                            world.report_failure(initiator, relays, responder, h, t)
                        });
                    }
                }
                formed
            }
            Err(AnonError::NotEnoughRelays { .. }) => 0,
            Err(e) => panic!("unexpected pick_paths error: {e}"),
        };
        metrics.record_construction(rule.satisfied(formed));
    }
    sp.read_world(&world);
    RunOut {
        row: setup_row(cfg, &metrics),
        units: metrics.construction_attempts,
        rate: metrics.setup_success_rate(),
    }
}

// Constants of the recovery driver, mirrored from the program.
const MAX_CONSTRUCT_ROUNDS: usize = 4;
const BLAME_MEMORY: usize = 16;

/// The state one recovery replay threads through its helpers.
struct Recovery<'a> {
    cfg: &'a RecoveryConfig,
    world: World,
    driver: Driver,
    initiator: Initiator,
    rng: StdRng,
    sp: &'a mut Spans,
}

const INITIATOR: NodeId = NodeId(0);
const RESPONDER: NodeId = NodeId(1);

impl Recovery<'_> {
    fn advance_gossip(&mut self, faults: &FaultPlan, t: SimTime) {
        let world = &mut self.world;
        timed(&mut self.sp.membership, || {
            world.advance_gossip(faults.stale_view_time(t))
        });
    }

    /// One construction round: pick `want` replacement paths, launch
    /// their onions, wait one ack deadline, keep what formed.
    fn construct_round(&mut self, blamed: &[NodeId], want: usize, t: SimTime) -> (usize, SimTime) {
        let cfg = self.cfg;
        let mut picked: Vec<Vec<NodeId>> = Vec::new();
        for _ in 0..want {
            let mut exclude: Vec<NodeId> = blamed.to_vec();
            for p in self.initiator.paths() {
                exclude.extend_from_slice(&p.plan.hops[..p.plan.hops.len() - 1]);
            }
            for p in &picked {
                exclude.extend_from_slice(p);
            }
            let start = Instant::now();
            let pick =
                self.world
                    .pick_replacement_path(INITIATOR, RESPONDER, &exclude, cfg.strategy, t);
            self.sp.mix(cfg.strategy, start.elapsed().as_secs_f64());
            match pick {
                Ok(p) => picked.push(p),
                Err(_) => break,
            }
        }
        if picked.is_empty() {
            return (0, t + cfg.recovery.ack_timeout);
        }
        let hop_lists: Vec<_> = picked
            .iter()
            .map(|p| self.driver.world.hops(p, RESPONDER))
            .collect();
        let before = self.initiator.paths().len();
        let (initiator, rng) = (&mut self.initiator, &mut self.rng);
        let msgs = timed(&mut self.sp.onion_build, || {
            initiator.construct_paths(&hop_lists, rng)
        });
        for (j, m) in msgs.iter().enumerate() {
            self.driver
                .register_path(m.sid, self.initiator.paths()[before + j].plan.clone());
            self.driver.launch_construction(m, t);
        }
        let deadline = t + cfg.recovery.ack_timeout;
        let driver = &mut self.driver;
        timed(&mut self.sp.engine, || driver.run_until(deadline));
        let drained: Vec<(StreamId, SimTime)> = std::mem::take(&mut self.driver.world.established);
        let mut formed = 0usize;
        let mut latest = t;
        for (sid, at) in drained {
            if self.initiator.mark_established(sid) {
                formed += 1;
                if at > latest {
                    latest = at;
                }
            }
        }
        let dead: Vec<StreamId> = self
            .initiator
            .paths()
            .iter()
            .filter(|p| !p.established)
            .map(|p| p.sid)
            .collect();
        for sid in dead {
            self.initiator.drop_path(sid);
            self.driver.unregister_path(sid);
        }
        let now = if formed == picked.len() {
            latest
        } else {
            deadline
        };
        (formed, now)
    }
}

/// Replay of `run_recovery_experiment`, one timed layer call at a time.
fn recovery_traced(cfg: &RecoveryConfig, sp: &mut Spans) -> RunOut {
    let mut world = timed(&mut sp.world_new, || World::new(cfg.world.clone()));
    world.detection = FailureDetection::Timed {
        probe_timeout: cfg.recovery.probe_timeout,
    };
    world.pin_up(&[INITIATOR, RESPONDER]);
    let faults = FaultPlan::new(
        cfg.world.n,
        cfg.faults,
        cfg.world.horizon + cfg.world.schedule_margin,
        cfg.world.seed ^ 0xFA17,
    );
    let schedule = world.schedule.clone();
    let matrix = world
        .latency
        .as_matrix()
        .expect("message-level runs use matrix-backed topologies")
        .clone();
    let driver = timed(&mut sp.keygen, || {
        Driver::new(
            cfg.world.n,
            schedule,
            matrix,
            INITIATOR,
            cfg.world.seed ^ 0xD21F,
        )
    })
    .with_faults(faults.clone())
    .with_auto_ack();
    let mut rc = Recovery {
        cfg,
        world,
        driver,
        initiator: Initiator::new(INITIATOR),
        rng: StdRng::seed_from_u64(cfg.world.seed ^ 0x9E37),
        sp,
    };

    let codec = cfg.protocol.codec().expect("valid protocol parameters");
    let k = cfg.protocol.paths();
    let needed = cfg.protocol.success_rule().needed();
    let payload = vec![0xABu8; cfg.msg_bytes];
    let per_path_bytes = cfg.protocol.per_path_bytes(cfg.msg_bytes);
    let mut metrics = ProtocolMetrics::new();
    let (mut delivered_msgs, mut partial_msgs) = (0u64, 0u64);
    let (mut segments_sent, mut retransmits) = (0u64, 0u64);
    let (mut paths_rebuilt, mut construction_rounds) = (0u64, 0u64);
    let mut blamed: Vec<NodeId> = Vec::new();
    let mut timeout_streak: HashMap<StreamId, u32> = HashMap::new();

    let mut t = cfg.warmup;
    for msg_i in 0..cfg.messages {
        let mid = MessageId(1000 + msg_i as u64);
        rc.advance_gossip(&faults, t);

        let mut rounds = 0usize;
        while rc.initiator.paths().len() < k && rounds < MAX_CONSTRUCT_ROUNDS {
            rounds += 1;
            construction_rounds += 1;
            let want = k - rc.initiator.paths().len();
            let (_, now) = rc.construct_round(&blamed, want, t);
            t = now;
            rc.advance_gossip(&faults, t);
        }
        if rc.initiator.paths().is_empty() {
            metrics.record_message(false, None, 0.0);
            t += cfg.msg_interval;
            continue;
        }

        let send_t = t;
        let (initiator, rng) = (&mut rc.initiator, &mut rc.rng);
        let out = timed(&mut rc.sp.onion_build, || {
            initiator.send_message(mid, &payload, codec.as_ref(), None, rng)
        })
        .expect("paths exist");
        let n_seg = out.len();
        segments_sent += n_seg as u64;
        let mut msg_wire_segments = n_seg as u64;
        let mut seg_sid: HashMap<usize, StreamId> = HashMap::new();
        let mut deadline = t + cfg.recovery.ack_timeout;
        for (i, o) in out.iter().enumerate() {
            rc.driver.launch_payload(o, t);
            rc.driver.arm_ack_timer(mid, i, deadline);
            seg_sid.insert(i, o.sid);
        }

        let mut acked: HashSet<usize> = HashSet::new();
        let mut attempt = 0u32;
        loop {
            let driver = &mut rc.driver;
            timed(&mut rc.sp.engine, || driver.run_until(deadline));
            for a in rc.driver.world.acks.drain(..) {
                if a.mid == mid {
                    acked.insert(a.index);
                }
            }
            rc.driver.world.ack_timeouts.clear();
            if acked.len() >= needed || attempt >= cfg.recovery.retry_budget {
                break;
            }
            attempt += 1;

            let t_now = deadline;
            let missing: Vec<usize> = (0..n_seg).filter(|i| !acked.contains(i)).collect();
            let suspects: HashSet<StreamId> = missing
                .iter()
                .filter_map(|i| seg_sid.get(i))
                .copied()
                .collect();
            let mut recovery_done = t_now;
            let mut to_drop: Vec<StreamId> = Vec::new();
            for sid in suspects {
                let Some(path) = rc.initiator.paths().iter().find(|p| p.sid == sid) else {
                    continue;
                };
                let relays: Vec<NodeId> = path.plan.hops[..path.plan.hops.len() - 1].to_vec();
                rc.sp.traverse_calls += 1;
                let world = &mut rc.world;
                let (hop, done) = timed(&mut rc.sp.traverse, || {
                    world.localize_failure(
                        INITIATOR,
                        &relays,
                        RESPONDER,
                        t_now,
                        cfg.recovery.probe_timeout,
                    )
                });
                if done > recovery_done {
                    recovery_done = done;
                }
                let streak = timeout_streak.entry(sid).or_insert(0);
                *streak += 1;
                match hop {
                    Some(h) => {
                        if h < relays.len() {
                            blamed.push(relays[h]);
                        }
                        to_drop.push(sid);
                    }
                    None if *streak >= 2 => to_drop.push(sid),
                    None => {}
                }
            }
            if blamed.len() > BLAME_MEMORY {
                let excess = blamed.len() - BLAME_MEMORY;
                blamed.drain(..excess);
            }
            for sid in &to_drop {
                timeout_streak.remove(sid);
                if let Some(p) = rc.initiator.paths().iter().find(|p| p.sid == *sid) {
                    rc.driver
                        .launch_release(p.plan.first_hop(), *sid, recovery_done);
                }
                rc.initiator.drop_path(*sid);
                rc.driver.unregister_path(*sid);
            }
            let mut t_now = recovery_done;
            rc.advance_gossip(&faults, t_now);

            if !to_drop.is_empty() {
                construction_rounds += 1;
                let want = k - rc.initiator.paths().len();
                let (formed, now) = rc.construct_round(&blamed, want, t_now);
                paths_rebuilt += formed as u64;
                t_now = now;
                rc.advance_gossip(&faults, t_now);
            }
            if rc.initiator.paths().is_empty() {
                break;
            }

            for a in rc.driver.world.acks.drain(..) {
                if a.mid == mid {
                    acked.insert(a.index);
                }
            }
            let still_missing: Vec<usize> = (0..n_seg).filter(|i| !acked.contains(i)).collect();
            if still_missing.is_empty() {
                break;
            }
            let (initiator, rng) = (&mut rc.initiator, &mut rc.rng);
            let retx = timed(&mut rc.sp.onion_build, || {
                initiator.resend_segments(mid, &payload, codec.as_ref(), &still_missing, rng)
            })
            .expect("paths exist");
            retransmits += retx.len() as u64;
            msg_wire_segments += retx.len() as u64;
            let wait = SimDuration::from_secs_f64(
                cfg.recovery.ack_timeout.as_secs_f64() * cfg.recovery.backoff.powi(attempt as i32),
            );
            deadline = t_now + wait;
            for (j, o) in retx.iter().enumerate() {
                rc.driver.launch_payload(o, t_now);
                rc.driver.arm_ack_timer(mid, still_missing[j], deadline);
                seg_sid.insert(still_missing[j], o.sid);
            }
        }

        let mut distinct: HashSet<usize> = HashSet::new();
        let mut arrivals: Vec<SimTime> = Vec::new();
        for d in rc.driver.world.deliveries.iter().filter(|d| d.mid == mid) {
            if distinct.insert(d.index) {
                arrivals.push(d.at);
            }
        }
        arrivals.sort_unstable();
        let ok = distinct.len() >= needed;
        let latency = ok.then(|| arrivals[needed - 1] - send_t);
        let bytes = per_path_bytes * (cfg.world.l + 1) as f64 * msg_wire_segments as f64;
        metrics.record_message(ok, latency, bytes);
        if ok {
            delivered_msgs += 1;
        } else if !distinct.is_empty() {
            partial_msgs += 1;
        }
        t = (send_t + cfg.msg_interval).max(rc.driver.engine.now());
    }

    rc.sp.read_world(&rc.world);
    rc.sp.events += rc.driver.engine.counters().processed;
    rc.sp.segments += segments_sent + retransmits;
    let result = RecoveryResult {
        metrics,
        delivered: delivered_msgs,
        partial: partial_msgs,
        segments_sent,
        retransmits,
        paths_rebuilt,
        construction_rounds,
    };
    RunOut {
        row: recovery_row(cfg, &result),
        units: result.metrics.messages_sent,
        rate: result.delivery_rate(),
    }
}

fn run_traced(job: &Job, sp: &mut Spans) -> RunOut {
    let start = Instant::now();
    let out = match job {
        Job::Recovery(cfg) => recovery_traced(cfg, sp),
        Job::Setup(cfg) => setup_traced(cfg, sp),
    };
    sp.wall += start.elapsed().as_secs_f64();
    out
}

/// The three steps of `World::new`, replayed with the same RNG so each
/// can be timed: churn schedule, latency model, membership layer.
fn world_new_steps(cfg: &WorldConfig) -> [f64; 3] {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let t = Instant::now();
    let schedule = ChurnSchedule::generate(
        cfg.n,
        &cfg.lifetime,
        &cfg.downtime,
        cfg.horizon + cfg.schedule_margin,
        &mut rng,
    );
    let churn = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let latency = cfg.topology.latency_model(cfg.n, cfg.avg_rtt_ms, &mut rng);
    let lat = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let membership = MembershipLayer::new(cfg.n, cfg.membership, &mut rng);
    let init = t.elapsed().as_secs_f64();
    std::hint::black_box((&schedule, &latency, &membership));
    [churn, lat, init]
}

/// Expected rows stored with the benchmark for `(scale, seed)`, if any.
fn expected_rows(
    dir: &Path,
    kind: Kind,
    scale: &str,
    seed: u64,
) -> Result<Option<Vec<String>>, String> {
    let name = match kind {
        Kind::Recovery => "recovery.txt",
        Kind::Setup => "setup.txt",
    };
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let prefix = format!("{scale} {seed} ");
    let rows: Vec<String> = text
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .map(str::to_string)
        .collect();
    Ok((!rows.is_empty()).then_some(rows))
}

/// Run a job, catching a panic as a failed job.
fn attempt<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

pub struct Params<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub expected_dir: &'a Path,
    /// Print the rows for the expected-values file.
    pub print_rows: bool,
}

/// What a batch of jobs produced.
struct Batch {
    /// Wall seconds of each job.
    walls: Vec<f64>,
    /// CPU seconds of each job, steal left out: see
    /// [`procfs::thread_cpu_s`].
    cpus: Vec<f64>,
    /// Work units of one job.
    units: u64,
    rows: Vec<String>,
    rates: Vec<f64>,
}

/// Run jobs back to back, through `run_one`, while the next one is
/// expected to end within `budget` seconds; at least one is timed. With
/// `warm_up`, one job runs first untimed: the first job of a process ran
/// 15–30 % slower than the rest of the same seed, while the allocator
/// settled.
fn run_batch(
    o: &mut Outcome,
    jobs: &[Job],
    budget: f64,
    warm_up: bool,
    mut run_one: impl FnMut(&Job) -> RunOut,
) -> Batch {
    let mut b = Batch {
        walls: Vec::new(),
        cpus: Vec::new(),
        units: 0,
        rows: Vec::new(),
        rates: Vec::new(),
    };
    let start = Instant::now();
    let mut untimed = usize::from(warm_up);
    while b
        .walls
        .last()
        .is_none_or(|last| start.elapsed().as_secs_f64() + last <= budget)
    {
        o.attempted += 1;
        let t = Instant::now();
        let cpu = procfs::thread_cpu_s();
        let Some(outs) = attempt(|| jobs.iter().map(&mut run_one).collect::<Vec<_>>()) else {
            o.failed += 1;
            o.fail("a job panicked".to_string());
            break;
        };
        let rows: Vec<String> = outs.iter().map(|r| r.row.clone()).collect();
        if b.rows.is_empty() {
            b.rows = rows;
        } else if b.rows != rows {
            o.failed += 1;
            o.fail(format!(
                "rows differ between runs of one seed: {:?} vs {rows:?}",
                b.rows
            ));
        }
        b.units = outs.iter().map(|r| r.units).sum();
        b.rates = outs.iter().map(|r| r.rate).collect();
        if untimed > 0 {
            untimed -= 1;
            continue;
        }
        b.cpus.push(procfs::thread_cpu_s() - cpu);
        b.walls.push(t.elapsed().as_secs_f64());
    }
    b
}

pub fn run(kind: Kind, p: &Params) -> Outcome {
    let mut o = Outcome::default();
    let jobs = jobs(kind, p.seed, p.smoke);
    let cfg_world = world(p.seed, p.smoke);

    // Set-up: `World::new`, several times, median. Like the jobs, it is
    // timed in CPU time with steal left out: the simulation runs on this
    // one thread, so that is its wall time on a host of its own.
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let cpu = procfs::thread_cpu_s();
            std::hint::black_box(World::new(cfg_world.clone()));
            procfs::thread_cpu_s() - cpu
        })
        .collect();

    // Timed runs through the program's entry points. A traced run
    // spends half its time here, to measure the tracing overhead.
    let budget = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let plain = run_batch(&mut o, &jobs, budget, true, run_untraced);
    let rows = plain.rows.clone();

    if p.print_rows {
        let scale = if p.smoke { "smoke" } else { "paper" };
        for r in &rows {
            println!("{scale} {} {r}", p.seed);
        }
    }

    // Output checks.
    if let [first, second] = plain.rates[..] {
        match kind {
            Kind::Recovery if second < first => o.fail(format!(
                "paper shape: SimEra(4,2) delivery {second:.3} < CurMix {first:.3} under heavy faults"
            )),
            Kind::Setup if second < first => o.fail(format!(
                "paper shape: biased setup success {second:.3} < random {first:.3}"
            )),
            _ => {}
        }
    }
    let scale = if p.smoke { "smoke" } else { "paper" };
    match expected_rows(p.expected_dir, kind, scale, p.seed) {
        Ok(Some(want)) if want != rows => {
            o.failed += 1;
            o.fail(format!(
                "rows differ from the stored expected values: got {rows:?}, want {want:?}"
            ));
        }
        Ok(Some(_)) => o.note("expected_rows_checked", true),
        Ok(None) => o.note("expected_rows_checked", false),
        Err(e) => o.fail(e),
    }

    if !p.trace {
        // Medians over jobs, so one slow spell of the shared host moves
        // the result less than a sum would.
        o.metric("setup_s", median(&setups), "s");
        o.metric(
            "throughput_per_s",
            plain.units as f64 / median(&plain.cpus),
            "1/s",
        );
        let us: Vec<f64> = plain.cpus.iter().map(|w| w * 1e6).collect();
        o.metric("latency_p50_us", median(&us), "us");
        o.metric("latency_p90_us", quantile(&us, 0.9), "us");
        o.metric(
            "peak_rss_mb",
            procfs::peak_rss_mb(None).unwrap_or(f64::NAN),
            "MiB",
        );
        o.note("jobs", plain.walls.len());
        o.note("runs_per_job", jobs.len());
        o.note("units_per_job", plain.units);
        o.note("job_walls_s", format!("{:?}", plain.walls));
        o.note("job_cpus_s", format!("{:?}", plain.cpus));
        return o;
    }

    // The traced run: the same jobs replayed from this file.
    let mut sp = Spans::default();
    let traced = run_batch(&mut o, &jobs, budget, false, |j| run_traced(j, &mut sp));
    if traced.rows != rows {
        o.failed += 1;
        o.fail(format!(
            "traced rows {:?} differ from timed rows {rows:?}",
            traced.rows
        ));
    }
    let traced_walls = &traced.walls;
    let jobs_traced = traced_walls.len() as f64;
    let runs_traced = jobs_traced * jobs.len() as f64;

    // Trace accounting: self times plus the residual make the wall time.
    let other = sp.wall - sp.attributed();
    if other < 0.0 {
        o.fail(format!(
            "traced layers ({:.6} s) exceed the traced wall time ({:.6} s)",
            sp.attributed(),
            sp.wall
        ));
    }
    o.note("traced_jobs", traced_walls.len());

    let steps: Vec<[f64; 3]> = (0..SETUP_REPEATS)
        .map(|_| world_new_steps(&cfg_world))
        .collect();
    let step = |i: usize| median(&steps.iter().map(|s| s[i]).collect::<Vec<_>>());
    o.metric("simnet.churn_generate_s", step(0), "s");
    o.metric("simnet.latency_build_s", step(1), "s");
    o.metric("membership.init_s", step(2), "s");
    o.metric("core.world_new_s", sp.world_new / runs_traced, "s");
    o.metric("membership.advance_s", sp.membership / jobs_traced, "s");
    o.metric("membership.share", sp.membership / sp.wall, "ratio");
    o.metric(
        "membership.gossip_msgs",
        sp.gossip_msgs as f64 / jobs_traced,
        "count",
    );
    o.metric(
        "membership.cache_entries",
        sp.cache_entries as f64 / runs_traced,
        "count",
    );
    let per_call = |secs: f64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            secs * 1e6 / calls as f64
        }
    };
    o.metric(
        "core.mix_choice_biased_us",
        per_call(sp.mix_choice_biased, sp.mix_calls_biased),
        "us",
    );
    o.metric(
        "core.mix_choice_random_us",
        per_call(sp.mix_choice_random, sp.mix_calls_random),
        "us",
    );
    o.metric(
        "core.mix_choice_calls",
        (sp.mix_calls_biased + sp.mix_calls_random) as f64 / jobs_traced,
        "count",
    );
    o.metric(
        "core.mix_choice_s",
        (sp.mix_choice_biased + sp.mix_choice_random) / jobs_traced,
        "s",
    );
    o.metric(
        "core.traverse_us",
        per_call(sp.traverse, sp.traverse_calls),
        "us",
    );
    o.metric("core.traverse_s", sp.traverse / jobs_traced, "s");
    o.metric(
        "simnet.traversals",
        sp.traversals as f64 / jobs_traced,
        "count",
    );
    o.metric("simnet.links", sp.links as f64 / jobs_traced, "count");
    o.metric("simnet.events", sp.events as f64 / jobs_traced, "count");
    o.metric(
        "simnet.ns_per_event",
        if sp.events == 0 {
            0.0
        } else {
            sp.engine * 1e9 / sp.events as f64
        },
        "ns",
    );
    o.metric("simnet.engine_s", sp.engine / jobs_traced, "s");
    o.metric("sim-crypto.keygen_s", sp.keygen / jobs_traced, "s");
    o.metric("core.onion_build_s", sp.onion_build / jobs_traced, "s");
    o.metric("core.segments", sp.segments as f64 / jobs_traced, "count");
    o.metric("core.driver_other_s", other / jobs_traced, "s");
    o.metric("bench.traced_wall_s", sp.wall / jobs_traced, "s");
    o.metric(
        "bench.trace_overhead_share",
        median(&traced.walls) / median(&plain.walls) - 1.0,
        "ratio",
    );

    // Unit costs at the workload's shape; the setup workload runs no
    // crypto and no erasure coding, so those read zero there.
    match kind {
        Kind::Recovery => {
            // SimEra(4,2): a (2,4) code over 1 KB messages, L = 3 relays.
            let code = (2, 4);
            let codec = erasure::ErasureCodec::new(code.0, code.1).expect("valid code");
            let shape = Shape {
                hops: cfg_world.l + 1,
                segment_bytes: erasure::Codec::segment_len(&codec, 1024),
                code,
                message_bytes: 1024,
            };
            let u = micro::measure(&shape, p.seed);
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
                (sp.onion_build + sp.keygen) / sp.wall,
                "ratio",
            );
        }
        Kind::Setup => {
            for (name, unit) in [
                ("core.construct_onion_us", "us"),
                ("sim-crypto.x25519_us", "us"),
                ("core.payload_peel_us", "us"),
                ("core.reverse_wrap_us", "us"),
                ("sim-crypto.chacha20_mib_s", "MiB/s"),
                ("sim-crypto.hmac_mib_s", "MiB/s"),
                ("erasure.encode_us", "us"),
                ("erasure.decode_us", "us"),
                ("core.crypto_share", "ratio"),
            ] {
                o.metric(name, 0.0, unit);
            }
        }
    }
    crate::relay::zero_relay_layers(&mut o);
    o
}
