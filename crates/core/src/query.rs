//! The four dashboard query templates (spec §III-D).
//!
//! Every query compares one sensor's readings ingested in the **last
//! 5 seconds** against a **randomly selected 5-second interval from the
//! previous 1800 seconds**, aggregating with MAX, MIN, AVG, or COUNT.
//! All templates project `(sensor value, timestamp)`, select on
//! substation + sensor + time range, and aggregate — exactly the shape of
//! the paper's Listing 1.

use crate::backend::{BackendResult, GatewayBackend};
use crate::keys::sensor_time_range;
use crate::retry::{with_retry, RetryPolicy};
use simkit::rng::Stream;

/// The aggregate a query template computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    MaxReading,
    MinReading,
    AverageReading,
    ReadingCount,
}

impl QueryKind {
    pub const ALL: [QueryKind; 4] = [
        QueryKind::MaxReading,
        QueryKind::MinReading,
        QueryKind::AverageReading,
        QueryKind::ReadingCount,
    ];

    pub fn name(self) -> &'static str {
        match self {
            QueryKind::MaxReading => "max-reading",
            QueryKind::MinReading => "min-reading",
            QueryKind::AverageReading => "average-reading",
            QueryKind::ReadingCount => "reading-count",
        }
    }
}

/// A fully instantiated query.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    pub kind: QueryKind,
    pub substation: String,
    pub sensor: String,
    /// The "current" interval: `[now − 5 s, now)`.
    pub current_from_ms: u64,
    pub current_to_ms: u64,
    /// The comparison interval: a random 5 s window within the previous
    /// 1800 s.
    pub past_from_ms: u64,
    pub past_to_ms: u64,
}

/// The query window constants from the spec.
pub const WINDOW_MS: u64 = 5_000;
pub const HISTORY_MS: u64 = 1_800_000;

impl QuerySpec {
    /// Instantiates a random query for `substation` at time `now_ms`,
    /// choosing the template, the sensor, and the historical window.
    pub fn generate(
        rng: &mut Stream,
        substation: &str,
        sensor_keys: &[String],
        now_ms: u64,
    ) -> QuerySpec {
        let kind = QueryKind::ALL[rng.next_below(4) as usize];
        let sensor = sensor_keys[rng.next_below(sensor_keys.len() as u64) as usize].clone();
        let current_from = now_ms.saturating_sub(WINDOW_MS);
        // Random 5 s window within the previous 1800 s. During warm-up the
        // window may predate all data — the spec explicitly tolerates
        // empty historical results. The span excludes both the past
        // window's own width and the current window, so the historical
        // interval can never overlap `[now−5s, now)`.
        let span = HISTORY_MS - 2 * WINDOW_MS;
        let offset = rng.next_below(span.max(1));
        let past_from = now_ms
            .saturating_sub(HISTORY_MS)
            .saturating_add(offset)
            .min(current_from.saturating_sub(WINDOW_MS));
        QuerySpec {
            kind,
            substation: substation.to_string(),
            sensor,
            current_from_ms: current_from,
            current_to_ms: now_ms,
            past_from_ms: past_from,
            past_to_ms: past_from + WINDOW_MS,
        }
    }
}

/// The aggregate of one interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalAggregate {
    pub rows: u64,
    pub value: Option<f64>,
}

/// The outcome of executing a query: both intervals' aggregates, ready
/// for the dashboard comparison.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    pub spec: QuerySpec,
    pub current: IntervalAggregate,
    pub past: IntervalAggregate,
    /// Readings successfully decoded and aggregated to answer the query
    /// (Fig 12's metric). Rows scanned but not decodable as readings do
    /// **not** count — the <200-average validity check cannot be
    /// satisfied by junk rows.
    pub rows_read: u64,
    /// Transient scan failures retried at the interval level (each 5 s
    /// window re-streams independently under the driver's retry policy).
    pub retries: u64,
}

/// Incremental aggregation state for one interval — the streaming
/// replacement for collecting a window into a `Vec` first.
#[derive(Clone, Copy, Debug, Default)]
struct WindowAgg {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl WindowAgg {
    fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    fn finish(self, kind: QueryKind) -> IntervalAggregate {
        let value = if self.count == 0 {
            None
        } else {
            Some(match kind {
                QueryKind::MaxReading => self.max,
                QueryKind::MinReading => self.min,
                QueryKind::AverageReading => self.sum / self.count as f64,
                QueryKind::ReadingCount => self.count as f64,
            })
        };
        IntervalAggregate {
            rows: self.count,
            value,
        }
    }
}

/// Decodes just the numeric sensor value from one encoded kvp, applying
/// the same accept/reject rules as
/// [`decode_reading`](crate::keys::decode_reading) followed by an `f64`
/// parse — but without allocating a [`SensorReading`]
/// (`crate::keys::SensorReading`): only the value prefix before the
/// first `|` is parsed, the rest is merely validated.
fn decode_value(key: &[u8], value: &[u8]) -> Option<f64> {
    // Key: substation | sensor | 13-digit POSIX millis.
    let key_str = std::str::from_utf8(key).ok()?;
    let mut parts = key_str.splitn(3, '|');
    parts.next()?;
    parts.next()?;
    parts.next()?.parse::<u64>().ok()?;
    // Value: reading | unit | padding — only the reading is parsed.
    let value_str = std::str::from_utf8(value).ok()?;
    let mut parts = value_str.splitn(3, '|');
    let reading = parts.next()?;
    parts.next()?; // unit
    parts.next()?; // padding present
    reading.parse::<f64>().ok()
}

/// Streams one interval through the backend's fold API, aggregating
/// incrementally. No row `Vec` is ever built.
fn scan_interval(
    backend: &dyn GatewayBackend,
    spec: &QuerySpec,
    from_ms: u64,
    to_ms: u64,
) -> BackendResult<IntervalAggregate> {
    let (start, end) = sensor_time_range(&spec.substation, &spec.sensor, from_ms, to_ms);
    let mut agg = WindowAgg::default();
    backend.scan_fold(&start, &end, &mut |k, v| {
        if let Some(value) = decode_value(k, v) {
            agg.observe(value);
        }
        true
    })?;
    Ok(agg.finish(spec.kind))
}

/// Executes `spec` against `backend`: two streaming range scans folded
/// incrementally into the aggregates.
pub fn execute(backend: &dyn GatewayBackend, spec: &QuerySpec) -> BackendResult<QueryOutcome> {
    execute_with_retry(backend, spec, &RetryPolicy::NONE, &mut Stream::new(0))
}

/// Executes `spec` with per-interval retry: each window's scan is
/// retried independently under `policy` (parity with the ingest path's
/// use of [`with_retry`]), so a transient fault re-streams one 5 s
/// window instead of failing — or restarting — the whole dashboard
/// query. The aggregation state is rebuilt inside the retried closure,
/// so a partial stream never double-counts.
pub fn execute_with_retry(
    backend: &dyn GatewayBackend,
    spec: &QuerySpec,
    policy: &RetryPolicy,
    rng: &mut Stream,
) -> BackendResult<QueryOutcome> {
    let mut retries = 0u64;
    let mut interval = |from_ms, to_ms| {
        let out = with_retry(policy, rng, || scan_interval(backend, spec, from_ms, to_ms));
        retries += out.retries;
        out.result
    };
    let current = interval(spec.current_from_ms, spec.current_to_ms)?;
    let past = interval(spec.past_from_ms, spec.past_to_ms)?;
    Ok(QueryOutcome {
        rows_read: current.rows + past.rows,
        current,
        past,
        retries,
        spec: spec.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::keys::{encode_reading, SensorReading};

    fn load_readings(b: &MemBackend, sensor: &str, from_ms: u64, count: u64, base_value: f64) {
        for i in 0..count {
            let r = SensorReading {
                substation: "PSS-000000".into(),
                sensor: sensor.into(),
                timestamp_ms: from_ms + i * 100,
                value: format!("{:.2}", base_value + i as f64),
                unit: "volts".into(),
            };
            let (k, v) = encode_reading(&r);
            b.insert(&k, &v).unwrap();
        }
    }

    fn spec(kind: QueryKind, now: u64, past_from: u64) -> QuerySpec {
        QuerySpec {
            kind,
            substation: "PSS-000000".into(),
            sensor: "pmu-000".into(),
            current_from_ms: now - WINDOW_MS,
            current_to_ms: now,
            past_from_ms: past_from,
            past_to_ms: past_from + WINDOW_MS,
        }
    }

    #[test]
    fn aggregates_match_closed_form() {
        let b = MemBackend::new();
        let now = 2_000_000u64;
        // Current window: 10 readings valued 100..109.
        load_readings(&b, "pmu-000", now - 4000, 10, 100.0);
        // Past window: 5 readings valued 50..54.
        let past_from = now - 1_000_000;
        load_readings(&b, "pmu-000", past_from + 1000, 5, 50.0);

        let out = execute(&b, &spec(QueryKind::MaxReading, now, past_from)).unwrap();
        assert_eq!(out.current.rows, 10);
        assert_eq!(out.current.value, Some(109.0));
        assert_eq!(out.past.rows, 5);
        assert_eq!(out.past.value, Some(54.0));
        assert_eq!(out.rows_read, 15);

        let out = execute(&b, &spec(QueryKind::MinReading, now, past_from)).unwrap();
        assert_eq!(out.current.value, Some(100.0));
        assert_eq!(out.past.value, Some(50.0));

        let out = execute(&b, &spec(QueryKind::AverageReading, now, past_from)).unwrap();
        assert_eq!(out.current.value, Some(104.5));
        assert_eq!(out.past.value, Some(52.0));

        let out = execute(&b, &spec(QueryKind::ReadingCount, now, past_from)).unwrap();
        assert_eq!(out.current.value, Some(10.0));
        assert_eq!(out.past.value, Some(5.0));
    }

    #[test]
    fn rows_read_counts_only_decoded_readings() {
        // Regression: raw scanned rows that cannot be decoded as sensor
        // readings must not inflate rows_read (the Fig 12 validity
        // metric), which previously counted every scanned row.
        let b = MemBackend::new();
        let now = 2_000_000u64;
        load_readings(&b, "pmu-000", now - 4000, 4, 10.0);
        let junk_key = |ts: u64| {
            let mut key = b"PSS-000000|pmu-000|".to_vec();
            key.extend_from_slice(format!("{ts:013}").as_bytes());
            key
        };
        // In-range rows the scan returns but decoding rejects: a value
        // with no field structure, and a non-numeric reading field.
        b.insert(&junk_key(now - 3999), b"no-separators-at-all")
            .unwrap();
        b.insert(&junk_key(now - 3998), b"abc|volts|xxxx").unwrap();
        let out = execute(&b, &spec(QueryKind::ReadingCount, now, 100)).unwrap();
        assert_eq!(out.current.rows, 4, "only decodable readings aggregate");
        assert_eq!(out.rows_read, 4, "junk rows must not count as read");
        assert_eq!(out.current.value, Some(4.0));
    }

    #[test]
    fn per_interval_retry_recovers_transient_scans() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // A backend whose first scan attempt always fails transiently.
        struct Flaky {
            inner: MemBackend,
            failures: AtomicU64,
        }
        impl GatewayBackend for Flaky {
            fn insert(&self, k: &[u8], v: &[u8]) -> BackendResult<()> {
                self.inner.insert(k, v)
            }
            fn scan_fold(
                &self,
                start: &[u8],
                end: &[u8],
                visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
            ) -> BackendResult<u64> {
                let armed = self
                    .failures
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| f.checked_sub(1))
                    .is_ok();
                if armed {
                    return Err(crate::backend::BackendError::transient("injected"));
                }
                self.inner.scan_fold(start, end, visit)
            }
            fn replication_factor(&self) -> usize {
                3
            }
            fn ingested_count(&self) -> u64 {
                self.inner.ingested_count()
            }
        }
        let b = Flaky {
            inner: MemBackend::new(),
            failures: AtomicU64::new(1),
        };
        let now = 2_000_000u64;
        load_readings(&b.inner, "pmu-000", now - 4000, 6, 10.0);
        let policy = RetryPolicy {
            base_backoff: std::time::Duration::ZERO,
            ..RetryPolicy::DEFAULT
        };
        let mut rng = Stream::new(7);
        let out = execute_with_retry(
            &b,
            &spec(QueryKind::ReadingCount, now, 100),
            &policy,
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.retries, 1, "one interval re-streamed once");
        assert_eq!(out.current.rows, 6, "the retried window is complete");
        // Without retries the same fault fails the query outright.
        b.failures.store(1, Ordering::Relaxed);
        assert!(execute(&b, &spec(QueryKind::ReadingCount, now, 100)).is_err());
    }

    #[test]
    fn empty_past_interval_is_tolerated() {
        // Warm-up semantics: no data in the random historical window.
        let b = MemBackend::new();
        let now = 2_000_000u64;
        load_readings(&b, "pmu-000", now - 4000, 3, 10.0);
        let out = execute(&b, &spec(QueryKind::AverageReading, now, 100)).unwrap();
        assert_eq!(out.past.rows, 0);
        assert_eq!(out.past.value, None);
        assert_eq!(out.current.rows, 3);
    }

    #[test]
    fn scans_do_not_leak_other_sensors() {
        let b = MemBackend::new();
        let now = 2_000_000u64;
        load_readings(&b, "pmu-000", now - 4000, 3, 10.0);
        load_readings(&b, "pmu-0001", now - 4000, 7, 99.0); // prefix sibling
        let out = execute(&b, &spec(QueryKind::ReadingCount, now, 100)).unwrap();
        assert_eq!(out.current.rows, 3, "pmu-0001 must not match pmu-000");
    }

    #[test]
    fn generate_respects_the_windows() {
        let mut rng = Stream::new(5);
        let sensors: Vec<String> = (0..200).map(|i| format!("s-{i:03}")).collect();
        let now = 10_000_000u64;
        for _ in 0..500 {
            let q = QuerySpec::generate(&mut rng, "PSS-000001", &sensors, now);
            assert_eq!(q.current_to_ms - q.current_from_ms, WINDOW_MS);
            assert_eq!(q.past_to_ms - q.past_from_ms, WINDOW_MS);
            assert!(q.past_from_ms >= now - HISTORY_MS);
            assert!(
                q.past_to_ms <= q.current_from_ms,
                "past window must not overlap the current window \
                 (past_to {} > current_from {})",
                q.past_to_ms,
                q.current_from_ms
            );
            assert!(sensors.contains(&q.sensor));
        }
        // All four templates appear.
        let kinds: std::collections::HashSet<_> = (0..100)
            .map(|_| QuerySpec::generate(&mut rng, "P", &sensors, now).kind)
            .collect();
        assert_eq!(kinds.len(), 4);
    }
}
