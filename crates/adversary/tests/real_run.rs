//! Integration tests of the adversary models against a *real* observed
//! recovery run (not synthetic logs): the acceptance criteria of the
//! trilemma suite in miniature.

use adversary::colluding::ColludingRelays;
use adversary::timing::{linkability_auc, TimingEavesdropper};
use adversary::Adversary;
use anon_core::anonymity;
use anon_core::mix::MixStrategy;
use anon_core::observe::ObservedRun;
use anon_core::protocols::runner::{
    run_recovery_experiment_traced, RecoveryConfig, RecoveryParams,
};
use anon_core::protocols::ProtocolKind;
use anon_core::sim::WorldConfig;
use membership::MembershipConfig;
use simnet::{FaultConfig, LifetimeDistribution, SimDuration, SimTime};

/// One shared simulated run for the whole suite (the recovery sim is by
/// far the slow part; every test reads the same immutable observation).
fn observed_run(seed: u64) -> &'static ObservedRun {
    assert_eq!(seed, 11, "the cached run is seeded with 11");
    static RUN: std::sync::OnceLock<ObservedRun> = std::sync::OnceLock::new();
    RUN.get_or_init(|| simulate(11))
}

fn simulate(seed: u64) -> ObservedRun {
    let cfg = RecoveryConfig {
        world: WorldConfig {
            n: 128,
            l: 3,
            avg_rtt_ms: 152.0,
            lifetime: LifetimeDistribution::pareto_with_median(1800.0),
            downtime: LifetimeDistribution::pareto_with_median(1800.0),
            horizon: SimTime::from_secs(3600),
            schedule_margin: SimDuration::from_secs(3600),
            membership: MembershipConfig::default(),
            topology: simnet::TopologyKind::King,
            churn_events: Vec::new(),
            seed,
        },
        protocol: ProtocolKind::SimEra { k: 4, r: 2 },
        strategy: MixStrategy::Biased,
        faults: FaultConfig::NONE,
        recovery: RecoveryParams::default(),
        warmup: SimTime::from_secs(600),
        msg_interval: SimDuration::from_secs(20),
        msg_bytes: 1024,
        messages: 30,
    };
    let (_, _, obs) = run_recovery_experiment_traced(&cfg, None, true);
    obs.expect("observation requested")
}

#[test]
fn colluding_entropy_degrades_with_fraction_on_a_real_run() {
    let run = observed_run(11);
    assert!(!run.log.constructions.is_empty());
    let mut last_h = f64::INFINITY;
    let mut last_p = 0.0;
    for f in [0.0, 0.1, 0.2, 0.4] {
        let a = ColludingRelays {
            fraction: f,
            adversary_stays: false,
            seed: 42,
        }
        .assess(run);
        assert!(
            a.shannon_entropy_bits <= last_h + 1e-9,
            "entropy must degrade monotonically with f (f={f})"
        );
        assert!(
            a.p_identified >= last_p - 1e-9,
            "identification must grow with f (f={f})"
        );
        last_h = a.shannon_entropy_bits;
        last_p = a.p_identified;
    }
    assert!(last_p > 1.0 / 128.0, "f=0.4 must beat the uniform prior");
}

#[test]
fn colluding_posterior_matches_eq4_at_the_uniform_choice_point() {
    // The mean posterior mass on the true initiator is, exactly, the
    // realized first-relay compromise rate plugged into Equation 4's
    // structure; in expectation that rate is f, giving Equation 4 with
    // exact Case-1 probability c1 = f. Check both: the structural
    // identity exactly, the analytic value loosely (one run is a small
    // sample of first-relay draws).
    let run = observed_run(11);
    let f = 0.2;
    let adv = ColludingRelays {
        fraction: f,
        adversary_stays: false,
        seed: 42,
    };
    let bad = adv.compromised(run);
    let a = adv.assess(run);

    let total = run
        .log
        .constructions
        .iter()
        .filter(|c| !c.relays.is_empty())
        .count() as f64;
    let bad_first = run
        .log
        .constructions
        .iter()
        .filter(|c| c.relays.first().is_some_and(|r| bad.contains(r)))
        .count() as f64;
    let realized_c1 = bad_first / total;
    let candidates = (run.n - bad.len()) as f64;
    let structural = realized_c1 + (1.0 - realized_c1) / candidates;
    assert!(
        (a.p_identified - structural).abs() < 1e-9,
        "posterior mass must equal the realized-rate Eq4 form ({} vs {structural})",
        a.p_identified
    );

    let l = run.log.constructions.first().map_or(3, |c| c.relays.len());
    let analytic = anonymity::p_initiator_identified(run.n, f, l);
    assert!(
        (a.p_identified - analytic).abs() < 0.15,
        "empirical {} should sit near analytic Eq4 {analytic}",
        a.p_identified
    );
}

#[test]
fn timing_auc_falls_as_cover_rate_rises_on_a_real_run() {
    let run = observed_run(11);
    assert!(run.flows.len() >= 2, "need flows to rank");
    let adv = |cover: f64| TimingEavesdropper {
        relay_fraction: 1.0,
        window_secs: 2.0,
        cover_per_min: cover,
        seed: 7,
    };
    let clean = adv(0.0).assess(run).linkability_auc;
    let medium = adv(30.0).assess(run).linkability_auc;
    let heavy = adv(300.0).assess(run).linkability_auc;
    assert!(clean > 0.5, "a full tap with no cover must beat chance");
    assert!(
        heavy < clean,
        "cover must dilute the correlator ({clean} -> {heavy})"
    );
    assert!(medium <= clean + 1e-9);
    assert!((0.0..=1.0).contains(&heavy));
}

#[test]
fn partial_tap_is_weaker_than_full_tap() {
    let run = observed_run(11);
    let full = TimingEavesdropper {
        relay_fraction: 1.0,
        window_secs: 2.0,
        cover_per_min: 0.0,
        seed: 7,
    }
    .assess(run)
    .linkability_auc;
    let none = TimingEavesdropper {
        relay_fraction: 0.0,
        window_secs: 2.0,
        cover_per_min: 0.0,
        seed: 7,
    }
    .assess(run)
    .linkability_auc;
    assert_eq!(none, 0.5, "no vantage points, only chance");
    assert!(full >= none);
}

#[test]
fn assessments_are_deterministic() {
    let run = observed_run(11);
    let observed: std::collections::HashSet<_> = (0..run.n)
        .map(simnet::NodeId::from)
        .filter(|id| *id != run.initiator && *id != run.responder)
        .collect();
    let a = linkability_auc(run, &observed, 2.0, 60.0, 7);
    let b = linkability_auc(run, &observed, 2.0, 60.0, 7);
    assert_eq!(a.to_bits(), b.to_bits());

    let c1 = ColludingRelays {
        fraction: 0.3,
        adversary_stays: true,
        seed: 5,
    };
    let x = c1.assess(run);
    let y = c1.assess(run);
    assert_eq!(
        x.shannon_entropy_bits.to_bits(),
        y.shannon_entropy_bits.to_bits()
    );
    assert_eq!(x.p_identified.to_bits(), y.p_identified.to_bits());
}
