//! Wall-clock time for telemetry timestamps.
//!
//! Instruments never read time themselves; anything time-shaped (an
//! export timestamp, a latency observation) is computed by the caller
//! and handed to the instrument as a plain number. In the simulator
//! that number is simulated time; in the live stack it comes from a
//! [`WallClock`].

use std::time::Instant;

/// Wall-clock time: monotonic microseconds since construction.
///
/// Used by the live stack (the node binary's stats listener) where
/// telemetry timestamps must reflect real elapsed time.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// Microseconds since this clock's epoch; monotone non-decreasing.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }
}
