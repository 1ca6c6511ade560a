//! One TPCx-IoT driver instance — one simulated power substation.
//!
//! The instance spawns `threads` client threads; each owns a disjoint
//! slice of the substation's 200 sensors and ingests its share of the
//! instance's kvp quota at full speed (the benchmark is a throughput
//! test — there is no pacing). Every 10,000/`queries_per_10k` readings a
//! thread executes one randomly instantiated dashboard query against the
//! backend, concurrently with everyone's ingestion, exactly as the kit
//! interleaves reads with writes.

use crate::backend::GatewayBackend;
use crate::datagen::ReadingGenerator;
use crate::query::{execute_with_retry, QuerySpec};
use crate::retry::{with_retry, RetryPolicy};
use crate::sensors::substation_key;
use crate::telemetry::{OpClass, Phase, RunTelemetry, ThreadRecorder, DEFAULT_WINDOW_NANOS};
use bytes::Bytes;
use simkit::rng::{derive_seed, Stream};
use simkit::stats::Moments;
use std::sync::Arc;
use std::time::Instant;
use ycsb::measurement::{Measurements, OpKind};

/// Configuration of one driver instance.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Which substation this instance simulates (0-based).
    pub substation_index: usize,
    /// kvps this instance must ingest (its `KVP(i)` share).
    pub kvps: u64,
    /// Client threads (the kit spawns 10 per instance).
    pub threads: usize,
    /// Root seed (per-thread streams derive from it).
    pub seed: u64,
    /// Virtual acquisition epoch (POSIX ms).
    pub epoch_ms: u64,
    /// Virtual ms between two readings of the same sensor.
    pub sweep_ms: u64,
    /// Queries per 10,000 ingested readings (spec: 5).
    pub queries_per_10k: u64,
    /// Retry policy for inserts and queries (transient backend failures
    /// are retried with backoff; permanent ones fail immediately).
    pub retry: RetryPolicy,
    /// Readings buffered per thread before flushing as one backend batch.
    /// 1 (the default) keeps the classic per-kvp ingest path; larger
    /// values flush on size and at every query boundary, so queries still
    /// see every reading generated before them.
    pub batch_size: usize,
}

impl DriverConfig {
    pub fn new(substation_index: usize, kvps: u64) -> DriverConfig {
        DriverConfig {
            substation_index,
            kvps,
            threads: 10,
            seed: 0x1077,
            epoch_ms: 1_700_000_000_000,
            sweep_ms: 10,
            queries_per_10k: 5,
            retry: RetryPolicy::DEFAULT,
            batch_size: 1,
        }
    }
}

/// What one driver instance reports after running.
#[derive(Clone, Debug)]
pub struct DriverReport {
    pub substation: String,
    pub ingested: u64,
    pub insert_failures: u64,
    /// Insert retries that eventually resolved (or exhausted the policy).
    pub insert_retries: u64,
    pub queries_executed: u64,
    pub query_failures: u64,
    pub query_retries: u64,
    /// Readings aggregated per query.
    pub rows_per_query: Moments,
    pub elapsed_secs: f64,
}

/// Runs one driver instance to completion (blocking).
///
/// Successful latencies land in `measurements` (`Insert` for ingestion,
/// `Scan` for queries) so many instances can share one sink. The driver
/// records into its own [`RunTelemetry`] and fills the sink once, when
/// it finishes — one lock per op kind per driver, not one per op.
pub fn run_driver(
    config: &DriverConfig,
    backend: Arc<dyn GatewayBackend>,
    measurements: Arc<Measurements>,
) -> DriverReport {
    // The phase only labels snapshots, and nobody snapshots this sink.
    let telemetry = RunTelemetry::new(Phase::Measured, DEFAULT_WINDOW_NANOS);
    let report = run_driver_with_telemetry(config, backend, &telemetry);
    let rec = telemetry.merged_recorder();
    measurements.merge_ok(OpKind::Insert, rec.histogram(OpClass::Ingest));
    measurements.merge_ok(OpKind::Insert, rec.histogram(OpClass::Batch));
    measurements.merge_ok(OpKind::Scan, rec.histogram(OpClass::Query));
    report
}

/// Runs one driver instance with `telemetry` as its only per-op sink.
/// Each thread records into a private
/// [`ThreadRecorder`](crate::telemetry::ThreadRecorder) (no cross-thread
/// contention on the hot path) and folds it into `telemetry` once, when
/// its quota is done.
pub fn run_driver_with_telemetry(
    config: &DriverConfig,
    backend: Arc<dyn GatewayBackend>,
    telemetry: &RunTelemetry,
) -> DriverReport {
    // lint:allow(panic-reachability) configuration invariant, not a
    // runtime hazard: the default is 10, every caller in the workspace
    // sets a positive constant, and `execute_phase` rejects a wire spec
    // with zero threads (or a zero telemetry window) before it reaches
    // `runner::drive_substations` and this call — so the assert only
    // fires on a programming error in a caller, where loud beats silent.
    assert!(config.threads > 0, "driver needs at least one thread");
    let substation = substation_key(config.substation_index);
    let started = Instant::now();

    let threads = config.threads.min(config.kvps.max(1) as usize);
    let per_thread = config.kvps / threads as u64;
    let remainder = config.kvps % threads as u64;
    let clients: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let quota = per_thread + u64::from((t as u64) < remainder);
                let (backend, substation) = (backend.as_ref(), &substation);
                scope.spawn(move || {
                    Client::run(config, backend, telemetry, substation, t, threads, quota)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut report = DriverReport {
        substation,
        ingested: 0,
        insert_failures: 0,
        insert_retries: 0,
        queries_executed: 0,
        query_failures: 0,
        query_retries: 0,
        rows_per_query: Moments::new(),
        elapsed_secs: started.elapsed().as_secs_f64(),
    };
    for c in clients {
        report.ingested += c.ingested;
        report.insert_failures += c.insert_failures;
        report.insert_retries += c.insert_retries;
        report.queries_executed += c.queries;
        report.query_failures += c.query_failures;
        report.query_retries += c.query_retries;
        report.rows_per_query = merge_moments(report.rows_per_query, c.rows);
    }
    report
}

/// One client thread: its tallies and its private recorder. Every op
/// outcome is recorded here exactly once, by [`Client::write`] or
/// [`Client::query`].
struct Client<'a> {
    config: &'a DriverConfig,
    backend: &'a dyn GatewayBackend,
    telemetry: &'a RunTelemetry,
    rec: ThreadRecorder,
    retry_rng: Stream,
    ingested: u64,
    insert_failures: u64,
    insert_retries: u64,
    queries: u64,
    query_failures: u64,
    query_retries: u64,
    rows: Moments,
}

impl<'a> Client<'a> {
    /// Client thread `t` of `threads`: ingests `quota` readings from its
    /// slice of the substation's sensors, writing `batch_size` at a time
    /// and querying at the spec cadence, then folds its recorder into
    /// `telemetry`.
    fn run(
        config: &'a DriverConfig,
        backend: &'a dyn GatewayBackend,
        telemetry: &'a RunTelemetry,
        substation: &str,
        t: usize,
        threads: usize,
        quota: u64,
    ) -> Client<'a> {
        let seed = |stream: u64| derive_seed(config.seed, stream + t as u64);
        let mut gen = ReadingGenerator::for_thread(
            substation,
            seed(0xD0_0000),
            config.epoch_ms,
            config.sweep_ms,
            t,
            threads,
        );
        let sensor_keys = gen.sensor_keys();
        let mut query_rng = Stream::new(seed(0x9E_0000));
        let query_interval = 10_000u64
            .checked_div(config.queries_per_10k)
            .unwrap_or(u64::MAX);
        let batch_size = config.batch_size.max(1);
        let mut client = Client {
            config,
            backend,
            telemetry,
            rec: telemetry.recorder(),
            retry_rng: Stream::new(seed(0xB0_0000)),
            ingested: 0,
            insert_failures: 0,
            insert_retries: 0,
            queries: 0,
            query_failures: 0,
            query_retries: 0,
            rows: Moments::new(),
        };
        let mut buf = Vec::with_capacity(batch_size);
        let mut since_query = 0u64;
        for _ in 0..quota {
            buf.push(gen.next_kvp());
            if buf.len() >= batch_size {
                client.write(&mut buf);
            }
            since_query += 1;
            if since_query >= query_interval {
                since_query = 0;
                // Queries must see every reading generated so far.
                client.write(&mut buf);
                client.query(&QuerySpec::generate(
                    &mut query_rng,
                    substation,
                    &sensor_keys,
                    gen.now_ms(),
                ));
            }
        }
        client.write(&mut buf);
        telemetry.absorb(&client.rec);
        client
    }

    /// Writes the buffer as one backend op — a put at batch size 1, a
    /// batch otherwise — and records its outcome. The batch is the retry
    /// and acknowledgement unit: an error means nothing in it was acked,
    /// so all of it counts as failed.
    fn write(&mut self, buf: &mut Vec<(Bytes, Bytes)>) {
        if buf.is_empty() {
            return;
        }
        let fill = buf.len() as u64;
        let batched = self.config.batch_size > 1;
        let op_start = Instant::now();
        let attempt = with_retry(&self.config.retry, &mut self.retry_rng, || match &buf[..] {
            [(k, v)] if !batched => self.backend.insert(k, v),
            items => self.backend.insert_batch(items),
        });
        let latency = op_start.elapsed().as_nanos() as u64;
        self.insert_retries += attempt.retries;
        match attempt.result {
            Ok(()) => {
                let now = self.telemetry.now_nanos();
                if batched {
                    self.rec.record_batch(now, latency, fill, attempt.retries);
                } else {
                    self.rec.record_ingest(now, latency, attempt.retries);
                }
                self.ingested += fill;
            }
            Err(_) => {
                self.rec.record_failed(latency);
                self.insert_failures += fill;
            }
        }
        buf.clear();
    }

    /// Runs one dashboard query and records its outcome. Per-interval
    /// retry: a transient scan fault re-streams one 5 s window inside
    /// the query instead of re-running both windows.
    fn query(&mut self, spec: &QuerySpec) {
        let q_start = Instant::now();
        let result =
            execute_with_retry(self.backend, spec, &self.config.retry, &mut self.retry_rng);
        let latency = q_start.elapsed().as_nanos() as u64;
        match result {
            Ok(outcome) => {
                let now = self.telemetry.now_nanos();
                self.rec.record_query(now, latency, outcome.retries);
                self.rec.record_scan(now, latency, outcome.rows_read);
                self.query_retries += outcome.retries;
                self.rows.record(outcome.rows_read as f64);
                self.queries += 1;
            }
            Err(_) => {
                self.rec.record_failed(latency);
                self.query_failures += 1;
            }
        }
    }
}

/// Merges two Welford accumulators (Chan et al. parallel combination).
fn merge_moments(a: Moments, b: Moments) -> Moments {
    if a.count() == 0 {
        return b;
    }
    if b.count() == 0 {
        return a;
    }
    // Rebuild via sufficient statistics.
    let n = a.count() + b.count();
    let mean = (a.mean() * a.count() as f64 + b.mean() * b.count() as f64) / n as f64;
    let delta = b.mean() - a.mean();
    let m2 = a.variance() * a.count() as f64
        + b.variance() * b.count() as f64
        + delta * delta * (a.count() as f64 * b.count() as f64) / n as f64;
    let mut merged = Moments::new();
    // Feed three synthetic points preserving count is impossible; instead
    // we construct the merged accumulator directly.
    merged.restore(n, mean, m2, a.min().min(b.min()), a.max().max(b.max()));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    /// Runs `config` through `run_driver_with_telemetry` on `backend` and
    /// through `run_driver` on a fresh in-memory backend, and checks the
    /// one-sink contract: every op lands in exactly one recorder class,
    /// and the `run_driver` sink holds the recorder's successful counts.
    fn run_recorded(
        config: &DriverConfig,
        backend: Arc<dyn GatewayBackend>,
    ) -> (DriverReport, ThreadRecorder) {
        let telemetry = RunTelemetry::new(Phase::Measured, DEFAULT_WINDOW_NANOS);
        let report = run_driver_with_telemetry(config, backend.clone(), &telemetry);
        assert_eq!(backend.ingested_count(), report.ingested, "every kvp acked");
        let rec = telemetry.merged_recorder();
        let count = |class| rec.histogram(class).count();
        assert_eq!(count(OpClass::Query), report.queries_executed);
        assert_eq!(count(OpClass::Scan), report.queries_executed);
        assert_eq!(count(OpClass::Failed), 0);

        let sink = Arc::new(Measurements::new());
        let again = run_driver(config, Arc::new(MemBackend::new()), Arc::clone(&sink));
        assert_eq!(again.ingested, report.ingested);
        assert_eq!(again.queries_executed, report.queries_executed);
        assert_eq!(
            sink.ok_count(OpKind::Insert),
            count(OpClass::Ingest) + count(OpClass::Batch)
        );
        assert_eq!(sink.ok_count(OpKind::Scan), count(OpClass::Query));
        (report, rec)
    }

    #[test]
    fn driver_ingests_exact_quota_and_queries_at_spec_rate() {
        let mut config = DriverConfig::new(0, 20_000);
        config.threads = 4;
        let (report, rec) = run_recorded(&config, Arc::new(MemBackend::new()));
        assert_eq!(report.ingested, 20_000);
        assert_eq!(report.insert_failures, 0);
        // 5 queries per 10k readings: every 2000 readings per thread;
        // 4 threads × 5000 readings → 2 queries each = 8 total.
        assert_eq!(report.queries_executed, 8);
        assert_eq!(report.query_failures, 0);
        // Batch size 1: one `Ingest` sample per acked kvp, no `Batch`.
        assert_eq!(rec.histogram(OpClass::Ingest).count(), report.ingested);
        assert_eq!(rec.histogram(OpClass::Batch).count(), 0);
        assert!(report.rows_per_query.count() == 8);
        // Queries over freshly ingested 5s windows see rows.
        assert!(report.rows_per_query.mean() > 0.0, "queries found data");
    }

    /// A fault-free 3-node cluster on the default engine options (8 MiB
    /// memtables; `Options::small()` would flush thousands of times at
    /// 1 KB values).
    fn three_node_cluster(name: &str) -> (Arc<gateway::Cluster>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("tpcx-driver-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = gateway::ClusterConfig::new(&dir, 3);
        let cluster = gateway::Cluster::start(config).expect("cluster starts");
        (Arc::new(cluster), dir)
    }

    #[test]
    fn batched_driver_ingests_quota_and_flushes_at_query_boundaries() {
        // Per thread: 5,000 readings with a query (and so a flush) after
        // readings 2,000 and 4,000. Each of the three stretches (2,000,
        // 2,000 and 1,000 readings) takes ceil(len / batch) flushes: the
        // full batches plus one short flush unless the batch divides it.
        for (batch, flushes_per_thread) in [
            (16, 125 + 125 + 63), // 16 divides 2,000; 1,000 = 62 × 16 + 8
            (64, 32 + 32 + 16),   // 2,000 = 31 × 64 + 16; 1,000 = 15 × 64 + 40
            (256, 8 + 8 + 4),     // 2,000 = 7 × 256 + 208; 1,000 = 3 × 256 + 232
        ] {
            let mut config = DriverConfig::new(0, 20_000);
            config.threads = 4;
            config.batch_size = batch;
            // The largest batch runs on a real cluster, whose batch
            // counters must agree with the driver's flush count.
            let cluster = (batch == 256).then(|| three_node_cluster("batch256"));
            let backend: Arc<dyn GatewayBackend> = match &cluster {
                Some((cluster, _)) => Arc::clone(cluster) as _,
                None => Arc::new(MemBackend::new()),
            };
            let (report, rec) = run_recorded(&config, backend);
            assert_eq!(report.ingested, 20_000, "batch {batch}");
            assert_eq!(report.insert_failures, 0, "batch {batch}");
            assert_eq!(report.queries_executed, 8, "batch {batch}: query cadence");
            // One `Batch` sample per flush, no `Ingest`.
            let flushes = 4 * flushes_per_thread;
            assert_eq!(
                rec.histogram(OpClass::Batch).count(),
                flushes,
                "batch {batch}"
            );
            assert_eq!(rec.histogram(OpClass::Ingest).count(), 0, "batch {batch}");
            // The pre-query flush makes fresh readings visible: the
            // current 5s window is never empty.
            assert!(
                report.rows_per_query.mean() > 0.0,
                "batch {batch}: queries found data"
            );

            if let Some((cluster, dir)) = cluster {
                let stats = cluster.stats();
                assert_eq!(stats.put_batches, flushes);
                assert_eq!(stats.batched_puts, 20_000);
                assert_eq!(stats.puts, 20_000);
                assert_eq!(stats.batch_fill(), 20_000.0 / flushes as f64);
                drop(cluster);
                std::fs::remove_dir_all(dir).ok();
            }
        }
    }

    #[test]
    fn tiny_quota_fewer_threads() {
        let backend = Arc::new(MemBackend::new());
        let measurements = Arc::new(Measurements::new());
        let mut config = DriverConfig::new(1, 3);
        config.threads = 10; // clamped to 3
        let report = run_driver(&config, backend, measurements);
        assert_eq!(report.ingested, 3);
        assert_eq!(report.queries_executed, 0);
    }

    #[test]
    fn zero_query_rate_disables_queries() {
        let backend = Arc::new(MemBackend::new());
        let measurements = Arc::new(Measurements::new());
        let mut config = DriverConfig::new(2, 5_000);
        config.queries_per_10k = 0;
        config.threads = 2;
        let report = run_driver(&config, backend, measurements);
        assert_eq!(report.queries_executed, 0);
        assert_eq!(report.ingested, 5_000);
    }

    #[test]
    fn merge_moments_is_exact() {
        let mut a = Moments::new();
        let mut b = Moments::new();
        let mut whole = Moments::new();
        for (i, x) in [1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*x);
            } else {
                b.record(*x);
            }
            whole.record(*x);
        }
        let merged = merge_moments(a, b);
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        assert!((merged.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
    }
}
