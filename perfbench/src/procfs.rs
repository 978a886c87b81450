//! Process counters read from `/proc`: CPU time, context switches and
//! peak resident memory, for this process or a child.
//!
//! Socket syscalls are not among them: `/proc/<pid>/io` counts only
//! `read`/`write` through the VFS, and the standard library's
//! `TcpStream` uses `recv`/`send`, so those counters stay at zero for
//! the relay.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`USER_HZ`, fixed at 100 in the Linux user ABI).
const TICKS_PER_S: f64 = 100.0;

/// A point-in-time reading of one process's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// User plus system CPU time of every thread, seconds.
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches, summed over the
    /// process's live threads.
    pub ctx_switches: u64,
}

impl Sample {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Sample) -> Sample {
        Sample {
            cpu_s: self.cpu_s - earlier.cpu_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// `pid` as a `/proc` path component; `None` means this process.
fn dir(pid: Option<u32>) -> String {
    match pid {
        Some(p) => format!("/proc/{p}"),
        None => "/proc/self".to_string(),
    }
}

/// Read every counter of `pid` (or of this process).
pub fn sample(pid: Option<u32>) -> Result<Sample, String> {
    let base = dir(pid);
    let stat =
        fs::read_to_string(format!("{base}/stat")).map_err(|e| format!("{base}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{base}/stat: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_S)
            .ok_or_else(|| format!("{base}/stat: field {}", i + 3))
    };
    let cpu_s = tick(11)? + tick(12)?;

    let mut ctx_switches = 0u64;
    let tasks = fs::read_dir(format!("{base}/task")).map_err(|e| format!("{base}/task: {e}"))?;
    for task in tasks.flatten() {
        // A thread may exit between listing and reading; skip it.
        let Ok(status) = fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        for line in status.lines() {
            if let Some(v) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                ctx_switches += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    Ok(Sample {
        cpu_s,
        ctx_switches,
    })
}

/// Peak resident set size (`VmHWM`) of `pid` (or this process), MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let base = dir(pid);
    let status =
        fs::read_to_string(format!("{base}/status")).map_err(|e| format!("{base}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{base}/status: no VmHWM"))
}

/// CPU time this thread has run, seconds, from
/// `/proc/thread-self/schedstat`. With paravirtual steal accounting the
/// kernel leaves out time the hypervisor gave to other guests, so on a
/// shared host this is the program's own cost.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(f64::NAN, |ns| ns as f64 * 1e-9)
}

/// Stolen and total CPU ticks of the whole machine, from `/proc/stat`.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of the machine's CPU time stolen between two readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some(a), Some(b)) => (b.0 - a.0) as f64 / (b.1 - a.1).max(1) as f64,
        _ => 0.0,
    }
}
