//! Experiment harness: reproduces every table and figure of the paper.
//!
//! One binary per artifact (`fig1`–`fig5`, `tab1`–`tab4`, `eq4`), each
//! printing the same rows/series the paper reports, side by side with the
//! paper's published values where applicable. Binaries also write CSV
//! output under `results/`.
//!
//! The library half hosts the data-producing functions so the Criterion
//! benches in `crates/bench` can run the identical workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;
pub mod scenario_runner;

pub use report::Table;
pub use runner::{
    resolve_flag, resolve_threads, run_all, RunOutput, RunSpec, RunTrace, TraceSet, Traced,
};

/// Whether live telemetry collection is enabled for this process:
/// `P2P_ANON_TELEMETRY=1` (read once and cached). Off by default —
/// telemetry is write-only and cannot change results either way, but
/// off keeps the hot paths free of atomic traffic.
pub fn telemetry_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var("P2P_ANON_TELEMETRY").as_deref() == Ok("1"))
}

/// Quick mode (`EXPERIMENT_QUICK=1`): shrink trial counts / seeds so every
/// binary finishes in seconds. Used by CI-style smoke runs and the benches.
pub fn quick_mode() -> bool {
    std::env::var("EXPERIMENT_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}
