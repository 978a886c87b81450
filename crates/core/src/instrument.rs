//! Runtime telemetry wiring for the protocol driver.
//!
//! [`DriverTelemetry`] bundles the instruments the event-driven
//! [`Driver`](crate::driver::Driver) records into when one is attached
//! with [`Driver::attach_telemetry`](crate::driver::Driver::attach_telemetry):
//! per-hop latency distributions, frame traffic split by wire tag, and
//! erasure decode outcomes. Instruments resolve from a shared
//! [`telemetry::Registry`] once, so the per-message hot path touches
//! only pre-resolved `Arc`s; with no telemetry attached every record
//! site is a never-taken branch.
//!
//! Everything here is write-only: no protocol decision ever reads a
//! telemetry value, so attaching telemetry cannot change what a run does —
//! only what it reports. Evaluation numbers (delivery rates, §6.1
//! latency summaries) stay in [`crate::metrics`]; this module is the
//! operational view.

use std::sync::Arc;
use telemetry::{Counter, Histogram, Registry};

/// Exporter-facing labels for the four wire-message kinds, indexed by
/// [`wire_tag`].
pub const WIRE_LABELS: [&str; 4] = ["construct", "payload", "reverse", "release"];

/// Index of a [`Wire`](crate::wire::Wire) variant into per-tag
/// instrument arrays (and [`WIRE_LABELS`]).
pub fn wire_tag(wire: &crate::wire::Wire) -> usize {
    match wire {
        crate::wire::Wire::Construct { .. } => 0,
        crate::wire::Wire::Payload { .. } => 1,
        crate::wire::Wire::Reverse { .. } => 2,
        crate::wire::Wire::Release => 3,
    }
}

/// Grouping power used for the driver's latency histograms: relative
/// quantile error ≤ 2⁻⁷ ≈ 0.8%.
pub const LATENCY_GROUPING_POWER: u32 = 7;

/// Pre-resolved driver instruments (see the module docs).
///
/// Instrument names:
///
/// | name | kind | meaning |
/// |---|---|---|
/// | `core_hop_latency_us` | histogram | one-way delay of each link crossing, µs |
/// | `core_frames_total{wire=…}` | counter | frames encoded, by wire tag |
/// | `core_frame_bytes_total{wire=…}` | counter | encoded frame bytes, by wire tag |
/// | `core_erasure_decodes_total` | counter | messages that reached erasure decodability |
/// | `core_erasure_decode_failures_total` | counter | messages launched that never did |
///
/// The driver records the first three; the recovery runner records the
/// decode outcomes once per message.
#[derive(Clone)]
pub struct DriverTelemetry {
    /// One-way delay of each link crossing (µs).
    pub hop_latency_us: Arc<Histogram>,
    /// Frames encoded, by wire tag ([`WIRE_LABELS`] order).
    pub frames: [Arc<Counter>; 4],
    /// Encoded frame bytes, by wire tag.
    pub frame_bytes: [Arc<Counter>; 4],
    /// Messages whose segment quorum reached erasure decodability.
    pub erasure_decodes: Arc<Counter>,
    /// Messages that ran out of retries before decodability.
    pub erasure_decode_failures: Arc<Counter>,
}

impl DriverTelemetry {
    /// Resolve the driver's instruments from `registry` (creating them
    /// on first use; see the type docs for names).
    pub fn register(registry: &Registry) -> Self {
        let per_tag = |name: &str| -> [Arc<Counter>; 4] {
            WIRE_LABELS.map(|tag| registry.counter(name, &[("wire", tag)]))
        };
        DriverTelemetry {
            hop_latency_us: registry.histogram("core_hop_latency_us", &[], LATENCY_GROUPING_POWER),
            frames: per_tag("core_frames_total"),
            frame_bytes: per_tag("core_frame_bytes_total"),
            erasure_decodes: registry.counter("core_erasure_decodes_total", &[]),
            erasure_decode_failures: registry.counter("core_erasure_decode_failures_total", &[]),
        }
    }

    /// Record one encoded frame leaving on a link: its wire tag index,
    /// encoded size, and the link's one-way delay.
    #[inline]
    pub fn record_send(&self, tag: usize, bytes: u64, owd_us: u64) {
        self.frames[tag].inc();
        self.frame_bytes[tag].add(bytes);
        self.hop_latency_us.record(owd_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::SnapshotValue;

    #[test]
    fn register_creates_the_documented_instruments() {
        let reg = Registry::new();
        let tel = DriverTelemetry::register(&reg);
        tel.record_send(1, 1500, 20_000);
        tel.record_send(1, 1500, 22_000);
        tel.record_send(3, 10, 20_000);
        tel.erasure_decodes.inc();

        let s = reg.snapshot();
        assert_eq!(
            s.counter_value("core_frames_total", &[("wire", "payload")]),
            2
        );
        assert_eq!(
            s.counter_value("core_frame_bytes_total", &[("wire", "payload")]),
            3000
        );
        assert_eq!(
            s.counter_value("core_frames_total", &[("wire", "release")]),
            1
        );
        assert_eq!(s.counter_value("core_erasure_decodes_total", &[]), 1);
        match s.get("core_hop_latency_us", &[]) {
            Some(SnapshotValue::Histogram(h)) => assert_eq!(h.count(), 3),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn wire_tags_cover_every_variant() {
        use crate::ids::StreamId;
        let variants = [
            crate::wire::Wire::Construct {
                initiator_sid: StreamId(1),
                onion: Vec::new(),
            },
            crate::wire::Wire::Payload { blob: Vec::new() },
            crate::wire::Wire::Reverse { blob: Vec::new() },
            crate::wire::Wire::Release,
        ];
        let tags: Vec<usize> = variants.iter().map(wire_tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3]);
        assert_eq!(WIRE_LABELS.len(), variants.len());
    }
}
