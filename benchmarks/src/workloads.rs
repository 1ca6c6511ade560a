//! The four workloads: set-up, measured section, correctness gates.
//!
//! Every workload does a fixed amount of work — `--seconds` times a
//! per-workload rate calibrated on the 2-core reference sandbox so the
//! measured section lasts about `--seconds` there — so op counts repeat
//! exactly for a given seed and length. The cluster is always
//! `ClusterConfig::new(dir, 3)`: the shipped defaults, no private
//! `Options` block, so a change of defaults is a product change this
//! benchmark sees.

use crate::stats::{median, p50_and_tail_us};
use crate::trace::{self, Instrument};
use gateway::{Cluster, ClusterConfig, ClusterStats, GatewayServer};
use simkit::rng::{derive_seed, Stream};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcx_iot::backend::GatewayBackend;
use tpcx_iot::datagen::ReadingGenerator;
use tpcx_iot::driver::{run_driver, DriverConfig};
use tpcx_iot::keys::{encode_reading, KVP_SIZE};
use tpcx_iot::pricing::PriceSheet;
use tpcx_iot::query::{self, QueryKind, QuerySpec, WINDOW_MS};
use tpcx_iot::rules::Rules;
use tpcx_iot::runner::{BenchmarkConfig, BenchmarkRunner, GatewaySut, SystemUnderTest};
use tpcx_iot::sensors::substation_key;
use tpcx_iot::telemetry::{ClusterCounters, EngineCounters};
use tpcx_iot::NetBackend;
use ycsb::measurement::Measurements;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TpcxInproc,
    TpcxNet,
    IngestBatch256,
    QueryScan,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TpcxInproc,
        Workload::TpcxNet,
        Workload::IngestBatch256,
        Workload::QueryScan,
    ];

    /// The name `metrics::WORKLOADS` declares, in the same order.
    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// Work per nominal second, sized on the 2-core reference sandbox.
/// kvps per workload execution (of four): the same for both TPCx
/// workloads, which must replay one op stream: 90k at the reference
/// 20 s, about 15 s of executions in-process and 20 s through the socket.
const TPCX_KVPS_PER_EXEC: f64 = 4_500.0;
/// Client threads (and, networked, connections) per TPCx substation.
/// Two closed-loop clients leave the sandbox's two vCPUs idle most of
/// the time, and then throughput measures how long a halted vCPU takes
/// to wake (7 or 48 µs per engine put, flipping run to run), not the
/// product. Eight keep the cores busy; the kit itself runs ten per
/// driver instance.
const TPCX_THREADS_PER_DRIVER: usize = 4;
/// Closed-loop clients of one TPCx execution.
pub const TPCX_CLIENTS: usize = CLIENT_THREADS * TPCX_THREADS_PER_DRIVER;
/// 300k at the reference length: past the point where batch-256 ingest
/// falls off (24k kvps/s for 250k, 19k for 300k, 13k for 400k).
const INGEST_KVPS: f64 = 15_000.0;
/// Over all rounds: 68k at the reference length.
const QUERY_SCAN_QUERIES: f64 = 3_400.0;
/// Query threads of `query_scan`: one. Two CPU-bound threads run in two
/// regimes, 1.2M or 0.98M rows/s, for minutes at a time — whether the
/// host has the sandbox's two vCPUs on one physical core — while one
/// thread has a core to itself either way (0.73–0.84M).
const QUERY_THREADS: usize = 1;
/// Preloaded kvps per nominal second: 56k at the reference 20 s, i.e.
/// 56 MB on the node that serves reads against its 32 MB block cache —
/// and under the 64 MB L1 target, so set-up never depends on whether an
/// L1→L2 compaction happened to start.
const QUERY_SCAN_PRELOAD_KVPS: f64 = 2_800.0;
/// Virtual time the preload spans; the last 5 s are the hot window.
const QUERY_SCAN_HISTORY_MS: u64 = 14_000;

/// One per reference core: the TPCx substations, `ingest_batch256`'s
/// writer threads, and the preload's loader threads.
pub const CLIENT_THREADS: usize = 2;
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

fn scaled(per_second: f64, seconds: f64, multiple_of: u64) -> u64 {
    let n = (per_second * seconds).round() as u64;
    (n / multiple_of).max(1) * multiple_of
}

/// What one measured section reports, before it is turned into named
/// metrics. Times are seconds unless the name says otherwise.
#[derive(Default)]
pub struct Measured {
    pub kvps_per_s: f64,
    /// TPCx workloads only: IoTps by the paper's rule.
    pub iotps: f64,
    pub run_s: f64,
    pub disk_bytes: u64,
    pub stored_kvps: u64,
    /// Resident set of the process, sampled through the measured section.
    pub rss_samples_mib: Vec<f64>,
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the outputs are wrong; empty means every gate passed.
    pub problems: Vec<String>,
    // Per-layer inputs.
    pub acked_kvps: u64,
    pub queries: u64,
    pub rows_read: u64,
    pub query_mean_us: f64,
    /// `query_scan` only: per-query latency as its one client thread
    /// times it.
    pub query_p50_us: f64,
    pub query_tail_us: f64,
    pub insert_retries: u64,
    pub query_retries: u64,
    pub drain_ms: f64,
    pub counts: Counts,
}

/// Counter deltas of the cluster and its engines over a measured
/// section, from `Cluster::stats()` at its boundaries.
#[derive(Default, Clone)]
pub struct Counts {
    pub puts: u64,
    pub batched_puts: u64,
    pub put_batches: u64,
    pub replica_writes: u64,
    pub scans: u64,
    pub rows_streamed: u64,
    pub node_writes: Vec<u64>,
    pub unavailable_errors: u64,
    pub failover_reads: u64,
    pub hinted_writes: u64,
    pub flushes: u64,
    pub compactions: u64,
    pub bytes_flushed: u64,
    pub bytes_compacted: u64,
    pub wal_syncs: u64,
    pub commit_groups: u64,
    pub commit_batches: u64,
    pub stalls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Gauges: the value at the last boundary, not a delta.
    pub tables: u64,
    pub l0_tables: u64,
}

impl Counts {
    /// Adds `after − before` (`before` = `None` for a fresh cluster).
    pub fn add_delta(&mut self, before: Option<&ClusterStats>, after: &ClusterStats) {
        let fresh = ClusterStats::default();
        let b = before.unwrap_or(&fresh);
        self.puts += after.puts - b.puts;
        self.batched_puts += after.batched_puts - b.batched_puts;
        self.put_batches += after.put_batches - b.put_batches;
        self.replica_writes += after.replica_writes - b.replica_writes;
        self.scans += after.scans - b.scans;
        self.rows_streamed += after.rows_streamed - b.rows_streamed;
        self.node_writes.resize(after.node_writes.len(), 0);
        for (i, w) in after.node_writes.iter().enumerate() {
            self.node_writes[i] += w - b.node_writes.get(i).copied().unwrap_or(0);
        }
        let (ar, br) = (&after.resilience, &b.resilience);
        self.unavailable_errors += ar.unavailable_errors - br.unavailable_errors;
        self.failover_reads += ar.failover_reads - br.failover_reads;
        self.hinted_writes += ar.hinted_writes - br.hinted_writes;
        let (ae, be) = (&after.engine, &b.engine);
        self.flushes += ae.flushes - be.flushes;
        self.compactions += ae.compactions - be.compactions;
        self.bytes_flushed += ae.bytes_flushed - be.bytes_flushed;
        self.bytes_compacted += ae.bytes_compacted - be.bytes_compacted;
        self.wal_syncs += ae.wal_syncs - be.wal_syncs;
        self.commit_groups += ae.commit_groups - be.commit_groups;
        self.commit_batches += ae.commit_batches - be.commit_batches;
        self.stalls += ae.stalls - be.stalls;
        self.cache_hits += ae.cache_hits - be.cache_hits;
        self.cache_misses += ae.cache_misses - be.cache_misses;
        self.tables = ae.table_count as u64;
        self.l0_tables = ae.level_shape[0] as u64;
    }
}

impl Counts {
    /// Adds another section's deltas; gauges take the later section's.
    fn absorb(&mut self, other: &Counts) {
        let Counts {
            puts,
            batched_puts,
            put_batches,
            replica_writes,
            scans,
            rows_streamed,
            node_writes,
            unavailable_errors,
            failover_reads,
            hinted_writes,
            flushes,
            compactions,
            bytes_flushed,
            bytes_compacted,
            wal_syncs,
            commit_groups,
            commit_batches,
            stalls,
            cache_hits,
            cache_misses,
            tables,
            l0_tables,
        } = other;
        self.puts += puts;
        self.batched_puts += batched_puts;
        self.put_batches += put_batches;
        self.replica_writes += replica_writes;
        self.scans += scans;
        self.rows_streamed += rows_streamed;
        self.node_writes
            .resize(node_writes.len().max(self.node_writes.len()), 0);
        for (mine, theirs) in self.node_writes.iter_mut().zip(node_writes) {
            *mine += theirs;
        }
        self.unavailable_errors += unavailable_errors;
        self.failover_reads += failover_reads;
        self.hinted_writes += hinted_writes;
        self.flushes += flushes;
        self.compactions += compactions;
        self.bytes_flushed += bytes_flushed;
        self.bytes_compacted += bytes_compacted;
        self.wal_syncs += wal_syncs;
        self.commit_groups += commit_groups;
        self.commit_batches += commit_batches;
        self.stalls += stalls;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.tables = *tables;
        self.l0_tables = *l0_tables;
    }
}

impl Measured {
    /// One result from a run's rounds: rates and latencies are the
    /// median round's, counts and times add up.
    pub fn combine(rounds: Vec<Measured>) -> Measured {
        let median_of = |f: fn(&Measured) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let mut all = Measured {
            kvps_per_s: median_of(|m| m.kvps_per_s),
            iotps: median_of(|m| m.iotps),
            query_p50_us: median_of(|m| m.query_p50_us),
            query_tail_us: median_of(|m| m.query_tail_us),
            ..Measured::default()
        };
        let mut query_us = 0.0;
        for m in rounds {
            all.run_s += m.run_s;
            all.disk_bytes = m.disk_bytes;
            all.stored_kvps = m.stored_kvps;
            all.rss_samples_mib.extend(m.rss_samples_mib);
            all.peak_rss_mib = all.peak_rss_mib.max(m.peak_rss_mib);
            all.attempted += m.attempted;
            all.failed += m.failed;
            all.problems.extend(m.problems);
            all.acked_kvps += m.acked_kvps;
            all.queries += m.queries;
            all.rows_read += m.rows_read;
            query_us += m.query_mean_us * m.queries as f64;
            all.insert_retries += m.insert_retries;
            all.query_retries += m.query_retries;
            all.drain_ms += m.drain_ms;
            all.counts.absorb(&m.counts);
        }
        all.query_mean_us = query_us / all.queries.max(1) as f64;
        all
    }
}

/// A directory removed when the value drops — on success and on failure.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(path: PathBuf) -> std::io::Result<WorkDir> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A `kB` field of `/proc/self/status` in MiB (0 where it is missing).
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Runs `section` while a sampler thread reads this process's `VmRSS`
/// every 20 ms; returns the section's result and the samples in MiB.
/// The peak is one moment — how many frozen memtables and compaction
/// buffers happened to coexist — and the driver's check saw it spread
/// 0.25 from run to run; the mean of the samples is what the process
/// held while it worked. (Their median sits on the ramp a TPCx
/// iteration climbs after each purge and spreads 0.16; the mean 0.06.)
pub fn sample_rss<T>(section: impl FnOnce() -> T) -> (T, Vec<f64>) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = vec![status_mib("VmRSS:")];
            // ordering: Relaxed — a stop flag, publishes nothing.
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                samples.push(status_mib("VmRSS:"));
            }
            samples
        });
        let out = section();
        done.store(true, Ordering::Relaxed);
        let samples = sampler
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
        (out, samples)
    })
}

pub fn start_cluster(dir: &Path) -> Result<Cluster, String> {
    Cluster::start(ClusterConfig::new(dir, 3)).map_err(|e| format!("cluster start: {e}"))
}

// ---------------------------------------------------------------------------
// tpcx_inproc / tpcx_net
// ---------------------------------------------------------------------------

/// The harness-side system under test for both TPCx workloads: the
/// in-process cluster, optionally reached through a loopback
/// `GatewayServer` + `NetBackend`. It samples disk use and counters
/// where only a SUT can — just before each system cleanup purges them.
pub struct HarnessSut {
    gateway: GatewaySut,
    net: Option<(Arc<NetBackend>, GatewayServer)>,
    instrument: Option<Instrument>,
    data_dir: PathBuf,
    counts: Counts,
    disk_bytes: u64,
    stored_kvps: u64,
}

impl HarnessSut {
    /// Set-up: start the cluster; for the networked variant also start
    /// the server and dial it.
    pub fn start(dir: &Path, networked: bool) -> Result<HarnessSut, String> {
        let gateway = GatewaySut::new(start_cluster(dir)?);
        let net = if networked {
            let server = GatewayServer::start(gateway.shared(), "127.0.0.1:0", SOCKET_TIMEOUT)
                .map_err(|e| format!("server start: {e}"))?;
            let backend = NetBackend::connect(&server.local_addr().to_string(), SOCKET_TIMEOUT)?;
            Some((Arc::new(backend), server))
        } else {
            None
        };
        Ok(HarnessSut {
            gateway,
            net,
            instrument: None,
            data_dir: dir.to_path_buf(),
            counts: Counts::default(),
            disk_bytes: 0,
            stored_kvps: 0,
        })
    }
}

impl SystemUnderTest for HarnessSut {
    fn backend(&self) -> Arc<dyn GatewayBackend> {
        let inner = match &self.net {
            Some((net, _)) => Arc::clone(net) as Arc<dyn GatewayBackend>,
            None => self.gateway.backend(),
        };
        match &self.instrument {
            Some(instrument) => instrument.wrap(inner),
            None => inner,
        }
    }

    fn cleanup(&mut self) -> Result<(), String> {
        let stats = self.gateway.shared().read().stats();
        self.counts.add_delta(None, &stats);
        self.disk_bytes = dir_bytes(&self.data_dir);
        self.stored_kvps = stats.puts;
        let tracer = self.instrument.as_ref().and_then(Instrument::tracer);
        let span_start = tracer.map(|t| t.now_ns());
        let result = self.gateway.cleanup();
        if let (Some(tracer), Some(start)) = (tracer, span_start) {
            tracer.record(trace::CLEANUP, start);
        }
        result
    }

    fn describe(&self) -> String {
        self.gateway.describe()
    }

    fn engine_counters(&self) -> Option<EngineCounters> {
        self.gateway.engine_counters()
    }

    fn cluster_counters(&self) -> Option<ClusterCounters> {
        self.gateway.cluster_counters()
    }
}

pub fn tpcx_kvps_per_exec(seconds: f64) -> u64 {
    // Even, so the two substations get equal shares.
    scaled(TPCX_KVPS_PER_EXEC, seconds, CLIENT_THREADS as u64)
}

/// The full TPCx-IoT protocol (`BenchmarkRunner::run`): prerequisite
/// checks, 2 × (warm-up + measured), data checks, both cleanups.
pub fn measure_tpcx(
    sut: &mut HarnessSut,
    seed: u64,
    kvps_per_exec: u64,
    instrument: &Instrument,
) -> Measured {
    sut.instrument = Some(instrument.clone());
    let mut config = BenchmarkConfig::new(CLIENT_THREADS, kvps_per_exec);
    config.threads_per_driver = TPCX_THREADS_PER_DRIVER;
    config.seed = derive_seed(seed, 0x7C);
    // Laptop-scale floors, as every bench bin of the repo sets them:
    // validity is judged by the protocol (data checks, acked-data loss,
    // routing), not by datacentre rates a 2-core sandbox cannot hold.
    config.rules = Rules {
        min_elapsed_secs: 0.0,
        min_per_sensor_rate: 0.0,
        min_rows_per_query: 0.0,
    };
    let runner = BenchmarkRunner::new(config, PriceSheet::sample_cluster(3));
    let started = Instant::now();
    let (outcome, rss_samples_mib) = sample_rss(|| instrument.measure(|| runner.run(sut)));
    let mut m = Measured {
        run_s: started.elapsed().as_secs_f64(),
        rss_samples_mib,
        peak_rss_mib: peak_rss_mib(),
        disk_bytes: sut.disk_bytes,
        stored_kvps: sut.stored_kvps,
        counts: sut.counts.clone(),
        ..Measured::default()
    };

    if outcome.registry.verdict != "VALID" {
        m.problems.push(format!(
            "verdict {:?}: {}",
            outcome.registry.verdict,
            outcome.registry.verdict_reasons.join("; ")
        ));
    }
    for check in &outcome.prerequisite_checks {
        if !check.passed {
            m.problems.push(format!("{}: {}", check.name, check.detail));
        }
    }
    if outcome.iterations.len() != 2 {
        m.problems.push(format!(
            "{} of 2 iterations completed",
            outcome.iterations.len()
        ));
    }
    let mut query_ns = 0.0;
    let mut insert_secs = 0.0;
    for (i, it) in outcome.iterations.iter().enumerate() {
        if !it.data_check.passed {
            m.problems
                .push(format!("iteration {}: {}", i + 1, it.data_check.detail));
        }
        for exec in [&it.warmup, &it.measured] {
            let failed = exec.telemetry.failed.count;
            m.attempted += exec.ingested + exec.queries + failed;
            m.failed += failed;
            m.acked_kvps += exec.ingested;
            insert_secs += exec.elapsed_secs;
            m.queries += exec.queries;
            m.rows_read += (exec.avg_rows_per_query * exec.queries as f64).round() as u64;
            m.insert_retries += exec.insert_retries;
            m.query_retries += exec.query_retries;
            query_ns += exec.query_latency.mean * exec.query_latency.count as f64;
        }
    }
    m.query_mean_us = query_ns / m.queries.max(1) as f64 / 1e3;
    // All four executions count, warm-ups too: they do the same work on
    // the same system, and one 3 s execution (the paper's rule picks the
    // slower measured one) moves more from run to run than the four
    // together.
    m.kvps_per_s = m.acked_kvps as f64 / insert_secs.max(1e-9);
    match &outcome.metrics {
        Some(metrics) => m.iotps = metrics.iotps,
        None => m.problems.push("no IoTps derived".into()),
    }
    m
}

// ---------------------------------------------------------------------------
// ingest_batch256
// ---------------------------------------------------------------------------

pub fn ingest_kvps(seconds: f64) -> u64 {
    scaled(INGEST_KVPS, seconds, (CLIENT_THREADS * 256) as u64)
}

/// One `run_driver` execution straight onto the cluster: 1 substation ×
/// 2 threads, batch 256, queries off; then the drain, then the
/// reopen-and-count durability gate.
pub fn measure_ingest(
    dir: &Path,
    cluster: Arc<Cluster>,
    seed: u64,
    kvps: u64,
    instrument: &Instrument,
) -> Result<Measured, String> {
    let backend = instrument.wrap(Arc::clone(&cluster) as Arc<dyn GatewayBackend>);
    let mut config = DriverConfig::new(0, kvps);
    config.threads = CLIENT_THREADS;
    config.batch_size = 256;
    config.queries_per_10k = 0;
    config.seed = derive_seed(seed, 0x1B);
    let sink = Arc::new(Measurements::new());
    let (report, rss_samples_mib) =
        sample_rss(|| instrument.measure(|| run_driver(&config, backend.clone(), sink)));
    let drain_started = Instant::now();
    cluster
        .flush_all()
        .map_err(|e| format!("drain (flush_all): {e}"))?;
    let drain_ms = drain_started.elapsed().as_secs_f64() * 1e3;

    let mut m = Measured {
        kvps_per_s: report.ingested as f64 / report.elapsed_secs.max(1e-9),
        run_s: report.elapsed_secs,
        disk_bytes: dir_bytes(dir),
        stored_kvps: report.ingested,
        rss_samples_mib,
        peak_rss_mib: peak_rss_mib(),
        attempted: report.ingested + report.insert_failures,
        failed: report.insert_failures,
        acked_kvps: report.ingested,
        insert_retries: report.insert_retries,
        drain_ms,
        ..Measured::default()
    };
    m.counts.add_delta(None, &cluster.stats());

    // Durability gate: drop the cluster, reopen it from the same
    // directory, and count every row back.
    drop(backend);
    drop(cluster);
    let reopened = start_cluster(dir)?;
    let mut rows = 0u64;
    for item in reopened.scan_stream(b"", b"\xff") {
        item.map_err(|e| format!("recount scan: {e}"))?;
        rows += 1;
    }
    if rows != report.ingested || report.ingested != kvps {
        m.problems.push(format!(
            "{kvps} kvps offered, {} acked, {rows} found after reopening the cluster",
            report.ingested
        ));
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// query_scan
// ---------------------------------------------------------------------------

/// Per sensor, `(timestamp, value)` in key order.
type Series = HashMap<String, Vec<(u64, f64)>>;

/// What the preload wrote, kept outside the product so every query's
/// aggregate can be predicted.
pub struct Preloaded {
    pub cluster: Arc<Cluster>,
    substation: String,
    readings: Series,
    sensors: Vec<String>,
    epoch_ms: u64,
    kvps: u64,
}

pub fn preload_kvps(seconds: f64) -> u64 {
    // Whole sweeps of the 200-sensor catalogue, at least two per sensor.
    scaled(QUERY_SCAN_PRELOAD_KVPS, seconds, 200).max(400)
}

/// Set-up of `query_scan`: start the cluster, load `kvps` readings of
/// one substation in batches of 64 from two loader threads, flush.
pub fn preload(dir: &Path, seed: u64, kvps: u64) -> Result<Preloaded, String> {
    let cluster = Arc::new(start_cluster(dir)?);
    let substation = substation_key(0);
    let epoch_ms = 1_700_000_000_000u64;
    let per_sensor = kvps / 200;
    let sweep_ms = (QUERY_SCAN_HISTORY_MS / per_sensor).max(1);
    let per_thread = kvps / CLIENT_THREADS as u64;

    let loaded: Vec<Result<Series, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                let cluster = Arc::clone(&cluster);
                let substation = substation.clone();
                scope.spawn(move || {
                    let mut gen = ReadingGenerator::for_thread(
                        substation,
                        derive_seed(seed, 0x90 + t as u64),
                        epoch_ms,
                        sweep_ms,
                        t,
                        CLIENT_THREADS,
                    );
                    let mut table = Series::new();
                    let mut batch = Vec::with_capacity(64);
                    for i in 0..per_thread {
                        let r = gen.next_reading();
                        let value = r.value.parse::<f64>().map_err(|e| e.to_string())?;
                        table
                            .entry(r.sensor.clone())
                            .or_default()
                            .push((r.timestamp_ms, value));
                        batch.push(encode_reading(&r));
                        if batch.len() == 64 || i + 1 == per_thread {
                            cluster
                                .insert_batch(&batch)
                                .map_err(|e| format!("preload: {e}"))?;
                            batch.clear();
                        }
                    }
                    Ok(table)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut readings = HashMap::new();
    for table in loaded {
        readings.extend(table?);
    }
    wait_for_background(&cluster)?;
    let mut sensors: Vec<String> = readings.keys().cloned().collect();
    sensors.sort();
    Ok(Preloaded {
        cluster,
        substation,
        readings,
        sensors,
        epoch_ms,
        kvps,
    })
}

/// Waits until every node's background flushes and compactions have
/// gone quiet: nothing left in L0 to trigger a compaction and no counter
/// moving for 200 ms.
///
/// Deliberately not `Cluster::flush_all()`: `Db::flush` compacts inline
/// while the background thread may pick the very same L0→L1 job, and
/// then both outputs are installed — every key twice in L1, scans twice
/// as slow, twice the bytes on disk. That happened in four of five
/// preloads, made this workload bimodal (p50 of 340 or 700 µs from one
/// binary) and set-up take 1.4–4.4 s. The last partial memtable
/// therefore stays in memory, as the newest seconds of a live gateway's
/// data do.
fn wait_for_background(cluster: &Cluster) -> Result<(), String> {
    let trigger = cluster.config().storage.l0_compaction_trigger;
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = cluster.stats().engine;
    let mut quiet_polls = 0;
    while quiet_polls < 10 {
        if Instant::now() > deadline {
            return Err("preload: background compaction did not go quiet in 60 s".into());
        }
        std::thread::sleep(Duration::from_millis(20));
        let now = cluster.stats().engine;
        let l0_pending =
            (0..cluster.node_count()).any(|n| cluster.node_db_stats(n).level_shape[0] >= trigger);
        let moved = (now.flushes, now.compactions, now.table_count)
            != (last.flushes, last.compactions, last.table_count);
        quiet_polls = if l0_pending || moved {
            0
        } else {
            quiet_polls + 1
        };
        last = now;
    }
    Ok(())
}

impl Preloaded {
    /// The aggregate `query::execute` must return for one interval.
    fn expect(
        &self,
        sensor: &str,
        kind: QueryKind,
        from_ms: u64,
        to_ms: u64,
    ) -> (u64, Option<f64>) {
        let series = &self.readings[sensor];
        let lo = series.partition_point(|(ts, _)| *ts < from_ms);
        let hi = series.partition_point(|(ts, _)| *ts < to_ms);
        let window = &series[lo..hi];
        let rows = window.len() as u64;
        if rows == 0 {
            return (0, None);
        }
        let values = window.iter().map(|(_, v)| *v);
        let value = match kind {
            QueryKind::MaxReading => values.fold(f64::MIN, f64::max),
            QueryKind::MinReading => values.fold(f64::MAX, f64::min),
            // Summed in key order, exactly as the streaming fold does.
            QueryKind::AverageReading => values.fold(0.0, |a, v| a + v) / rows as f64,
            QueryKind::ReadingCount => rows as f64,
        };
        (rows, Some(value))
    }
}

pub fn query_count(seconds: f64) -> u64 {
    scaled(QUERY_SCAN_QUERIES, seconds, QUERY_THREADS as u64)
}

/// Dashboard queries from two threads via `query::execute`: the current
/// window is the last 5 s of loaded virtual time (hot), the past window
/// a seeded uniform draw over the history before it (cold).
pub fn measure_query_scan(
    dir: &Path,
    data: &Preloaded,
    seed: u64,
    queries: u64,
    instrument: &Instrument,
) -> Measured {
    let backend = instrument.wrap(Arc::clone(&data.cluster) as Arc<dyn GatewayBackend>);
    let before = data.cluster.stats();
    let now_ms = data.epoch_ms + QUERY_SCAN_HISTORY_MS;
    let past_span = QUERY_SCAN_HISTORY_MS - 2 * WINDOW_MS + 1;
    let per_thread = queries / QUERY_THREADS as u64;

    struct ThreadOut {
        latencies: Vec<u64>,
        rows: u64,
        failed: u64,
        wrong: u64,
        first_wrong: Option<String>,
    }
    let started = Instant::now();
    let run = || -> Vec<ThreadOut> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..QUERY_THREADS)
                .map(|t| {
                    let backend = Arc::clone(&backend);
                    scope.spawn(move || {
                        let mut rng = Stream::new(derive_seed(seed, 0x5C + t as u64));
                        let mut out = ThreadOut {
                            latencies: Vec::with_capacity(per_thread as usize),
                            rows: 0,
                            failed: 0,
                            wrong: 0,
                            first_wrong: None,
                        };
                        for _ in 0..per_thread {
                            let kind = QueryKind::ALL[rng.next_below(4) as usize];
                            let sensor =
                                &data.sensors[rng.next_below(data.sensors.len() as u64) as usize];
                            let past_from = data.epoch_ms + rng.next_below(past_span);
                            let spec = QuerySpec {
                                kind,
                                substation: data.substation.clone(),
                                sensor: sensor.clone(),
                                current_from_ms: now_ms - WINDOW_MS,
                                current_to_ms: now_ms,
                                past_from_ms: past_from,
                                past_to_ms: past_from + WINDOW_MS,
                            };
                            let op = Instant::now();
                            let result = query::execute(backend.as_ref(), &spec);
                            out.latencies.push(op.elapsed().as_nanos() as u64);
                            let Ok(got) = result else {
                                out.failed += 1;
                                continue;
                            };
                            out.rows += got.rows_read;
                            let current =
                                data.expect(sensor, kind, spec.current_from_ms, spec.current_to_ms);
                            let past = data.expect(sensor, kind, past_from, spec.past_to_ms);
                            if (got.current.rows, got.current.value) != current
                                || (got.past.rows, got.past.value) != past
                            {
                                out.wrong += 1;
                                out.first_wrong.get_or_insert_with(|| {
                                    format!(
                                        "{} on {sensor} past_from {past_from}: got {:?}/{:?}, expected {current:?}/{past:?}",
                                        kind.name(),
                                        got.current,
                                        got.past
                                    )
                                });
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    };
    let (outs, rss_samples_mib) = sample_rss(|| instrument.measure(run));
    let run_s = started.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = outs
        .iter()
        .flat_map(|o| o.latencies.iter().copied())
        .collect();
    let mean_ns = latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64;
    let (p50, tail) = p50_and_tail_us(&mut latencies);
    let rows: u64 = outs.iter().map(|o| o.rows).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    let mut m = Measured {
        kvps_per_s: rows as f64 / run_s.max(1e-9),
        run_s,
        query_p50_us: p50,
        query_tail_us: tail,
        disk_bytes: dir_bytes(dir),
        stored_kvps: data.kvps,
        rss_samples_mib,
        peak_rss_mib: peak_rss_mib(),
        attempted: per_thread * QUERY_THREADS as u64,
        failed,
        queries: per_thread * QUERY_THREADS as u64 - failed,
        rows_read: rows,
        query_mean_us: mean_ns / 1e3,
        ..Measured::default()
    };
    m.counts.add_delta(Some(&before), &data.cluster.stats());
    let wrong: u64 = outs.iter().map(|o| o.wrong).sum();
    if wrong > 0 {
        let example = outs
            .iter()
            .find_map(|o| o.first_wrong.clone())
            .unwrap_or_default();
        m.problems.push(format!(
            "{wrong} queries disagree with the aggregates the preload predicts, e.g. {example}"
        ));
    }
    m
}

/// User bytes behind `disk_bytes_per_user_byte`.
pub fn user_bytes(stored_kvps: u64) -> f64 {
    (stored_kvps * KVP_SIZE as u64) as f64
}
