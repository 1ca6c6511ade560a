//! Per-operation latency and throughput measurement.

use simkit::stats::{Histogram, Summary};
use simkit::sync::Mutex;
use std::time::Instant;

/// The YCSB operation taxonomy (TPCx-IoT uses `Insert` for ingestion and
/// `Scan` for its range queries).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    Read,
    Update,
    Insert,
    Scan,
    ReadModifyWrite,
}

impl OpKind {
    pub const ALL: [OpKind; 5] = [
        OpKind::Read,
        OpKind::Update,
        OpKind::Insert,
        OpKind::Scan,
        OpKind::ReadModifyWrite,
    ];

    fn index(self) -> usize {
        match self {
            OpKind::Read => 0,
            OpKind::Update => 1,
            OpKind::Insert => 2,
            OpKind::Scan => 3,
            OpKind::ReadModifyWrite => 4,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "READ",
            OpKind::Update => "UPDATE",
            OpKind::Insert => "INSERT",
            OpKind::Scan => "SCAN",
            OpKind::ReadModifyWrite => "RMW",
        }
    }
}

struct Slot {
    ok: Histogram,
    /// Failed ops carry their end-to-end latency too: a retry storm shows
    /// up as a fat failed-latency tail long before throughput collapses.
    failed: Histogram,
}

/// Thread-safe measurement sink shared by all client threads.
pub struct Measurements {
    slots: [Mutex<Slot>; OpKind::ALL.len()],
    started: Instant,
}

impl Default for Measurements {
    fn default() -> Self {
        Self::new()
    }
}

impl Measurements {
    pub fn new() -> Measurements {
        Measurements {
            slots: std::array::from_fn(|_| {
                Mutex::new(Slot {
                    ok: Histogram::new(),
                    failed: Histogram::new(),
                })
            }),
            started: Instant::now(),
        }
    }

    /// Records a successful operation's latency in nanoseconds.
    pub fn record_ok(&self, kind: OpKind, latency_nanos: u64) {
        self.slots[kind.index()].lock().ok.record(latency_nanos);
    }

    /// Records a failed operation and how long it took to fail (time spent
    /// across all retry attempts, in nanoseconds).
    pub fn record_failure(&self, kind: OpKind, latency_nanos: u64) {
        self.slots[kind.index()].lock().failed.record(latency_nanos);
    }

    /// Folds a histogram of successful latencies recorded elsewhere into
    /// `kind` under one lock: the same buckets, count and sum as passing
    /// each sample to [`Measurements::record_ok`].
    pub fn merge_ok(&self, kind: OpKind, latencies: &Histogram) {
        self.slots[kind.index()].lock().ok.merge(latencies);
    }

    /// Latency summary for one operation kind (nanoseconds).
    pub fn summary(&self, kind: OpKind) -> Summary {
        self.slots[kind.index()].lock().ok.summary()
    }

    /// Latency summary of *failed* operations (nanoseconds).
    pub fn failed_summary(&self, kind: OpKind) -> Summary {
        self.slots[kind.index()].lock().failed.summary()
    }

    /// Value at an arbitrary quantile for one operation kind (nanoseconds).
    pub fn quantile(&self, kind: OpKind, q: f64) -> u64 {
        self.slots[kind.index()].lock().ok.value_at_quantile(q)
    }

    pub fn ok_count(&self, kind: OpKind) -> u64 {
        self.slots[kind.index()].lock().ok.count()
    }

    pub fn failure_count(&self, kind: OpKind) -> u64 {
        self.slots[kind.index()].lock().failed.count()
    }

    pub fn total_ops(&self) -> u64 {
        OpKind::ALL.iter().map(|&k| self.ok_count(k)).sum()
    }

    /// Wall-clock seconds since this sink was created.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Overall successful throughput in operations per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed_secs();
        if secs == 0.0 {
            0.0
        } else {
            self.total_ops() as f64 / secs
        }
    }

    /// Renders a YCSB-style report block.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "[OVERALL] RunTime(s)={:.1} Throughput(ops/s)={:.1}",
            self.elapsed_secs(),
            self.throughput()
        );
        for kind in OpKind::ALL {
            let s = self.summary(kind);
            if s.count == 0 && self.failure_count(kind) == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "[{}] ops={} failed={} avg(us)={:.1} min(us)={:.1} max(us)={:.1} p95(us)={:.1} p99(us)={:.1}",
                kind.name(),
                s.count,
                self.failure_count(kind),
                s.mean / 1e3,
                s.min as f64 / 1e3,
                s.max as f64 / 1e3,
                s.p95 as f64 / 1e3,
                s.p99 as f64 / 1e3,
            );
            let f = self.failed_summary(kind);
            if f.count > 0 {
                let _ = writeln!(
                    out,
                    "[{}-FAILED] ops={} avg(us)={:.1} max(us)={:.1} p95(us)={:.1}",
                    kind.name(),
                    f.count,
                    f.mean / 1e3,
                    f.max as f64 / 1e3,
                    f.p95 as f64 / 1e3,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_kind() {
        let m = Measurements::new();
        m.record_ok(OpKind::Insert, 1000);
        m.record_ok(OpKind::Insert, 3000);
        m.record_ok(OpKind::Scan, 9000);
        m.record_failure(OpKind::Read, 7000);

        assert_eq!(m.ok_count(OpKind::Insert), 2);
        assert_eq!(m.ok_count(OpKind::Scan), 1);
        assert_eq!(m.failure_count(OpKind::Read), 1);
        assert_eq!(m.failed_summary(OpKind::Read).count, 1);
        assert!(m.failed_summary(OpKind::Read).max >= 7000);
        assert_eq!(m.failed_summary(OpKind::Insert).count, 0);
        assert_eq!(m.total_ops(), 3);
        assert_eq!(m.summary(OpKind::Insert).mean, 2000.0);
        assert_eq!(m.summary(OpKind::Update).count, 0);
    }

    #[test]
    fn report_mentions_active_kinds_only() {
        let m = Measurements::new();
        m.record_ok(OpKind::Insert, 500);
        let report = m.report();
        assert!(report.contains("[INSERT]"));
        assert!(!report.contains("[SCAN]"));
        assert!(report.contains("[OVERALL]"));
    }

    #[test]
    fn merge_ok_equals_recording_each_sample() {
        let (merged, recorded) = (Measurements::new(), Measurements::new());
        let mut h = Histogram::new();
        for latency in [900u64, 4_000, 120_000] {
            h.record(latency);
            recorded.record_ok(OpKind::Scan, latency);
        }
        merged.merge_ok(OpKind::Scan, &h);
        merged.merge_ok(OpKind::Scan, &Histogram::new());
        assert_eq!(merged.summary(OpKind::Scan), recorded.summary(OpKind::Scan));
        assert_eq!(merged.ok_count(OpKind::Insert), 0);
    }

    #[test]
    fn quantiles_are_monotone() {
        let m = Measurements::new();
        for i in 1..=1000u64 {
            m.record_ok(OpKind::Read, i * 1000);
        }
        let p50 = m.quantile(OpKind::Read, 0.5);
        let p95 = m.quantile(OpKind::Read, 0.95);
        let p99 = m.quantile(OpKind::Read, 0.99);
        assert!(p50 <= p95 && p95 <= p99);
    }
}
