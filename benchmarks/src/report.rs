//! Runs one workload end to end — set-up, measured section, gates,
//! repeated set-ups, and (traced pass) spans, counts and probes — and
//! names the numbers.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{mean, median, p50_and_tail_us};
use crate::trace::{self, Instrument, Span, Tracer};
use crate::workloads::{self as w, Measured, WorkDir, Workload};
use simkit::rng::derive_seed;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where to write the traced pass's spans as CSV, if anywhere.
    pub spans_out: Option<PathBuf>,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the outputs are wrong; empty means correct.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// How long the cheap set-ups (1.8 ms, of which the cluster start is
/// 0.3 ms; 4.5 ms with server and connections) repeat, once before the
/// measured section and once after it; `setup_s` is the median of them
/// all. On the sandbox a cluster start takes 0.25 or 0.5 ms for tens of
/// seconds at a time, every quantile of it moving together, so the two
/// half-seconds 20 s apart see two of those spells where one second
/// would see one.
/// `query_scan` preloads for 0.9 s on every set-up and has one per round
/// instead.
const SETUP_REPEAT_TIME: Duration = Duration::from_millis(500);

/// Measured rounds per run: each is a set-up of its own followed by an
/// equal share of the work, and the run reports the median round. The
/// tree a preload leaves behind differs from one preload to the next
/// (3 to 9 tables in L0 over the three nodes, by when the background
/// thread compacted), and `query_scan` reads 20 % faster or slower with
/// it; five trees in a run put the median on a typical one. The write
/// workloads build their tree inside the measured section, once.
const QUERY_SCAN_ROUNDS: usize = 5;

fn rounds(workload: Workload) -> usize {
    match workload {
        Workload::QueryScan => QUERY_SCAN_ROUNDS,
        _ => 1,
    }
}

/// Refuses to start on a nearly full disk: 128 MiB per second of
/// `--seconds`, 2.5 GiB at the reference length, where the largest data
/// directory (`ingest_batch256`'s) peaks at 1.4 GB.
fn check_free_disk(dir: &Path, seconds: f64) -> Result<(), String> {
    let need_kib = (seconds * 128.0 * 1024.0) as u64;
    let output = std::process::Command::new("df")
        .arg("-Pk")
        .arg(dir)
        .output();
    let Ok(output) = output else {
        eprintln!("iotbench: `df` unavailable, free-disk check skipped");
        return Ok(());
    };
    let free_kib = String::from_utf8_lossy(&output.stdout)
        .lines()
        .nth(1)
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|v| v.parse::<u64>().ok());
    match free_kib {
        Some(free) if free < need_kib => Err(format!(
            "only {} MiB free under {}, {} MiB needed",
            free / 1024,
            dir.display(),
            need_kib / 1024
        )),
        _ => Ok(()),
    }
}

enum Env {
    Tpcx(Box<w::HarnessSut>),
    Ingest(Arc<gateway::Cluster>),
    Query(w::Preloaded),
}

/// One set-up, start to ready: the data directory, the free-disk check,
/// the cluster (server, connections, preload).
fn setup(args: &Args, dir: &Path) -> Result<Env, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    check_free_disk(dir, args.seconds)?;
    Ok(match args.workload {
        Workload::TpcxInproc => Env::Tpcx(Box::new(w::HarnessSut::start(dir, false)?)),
        Workload::TpcxNet => Env::Tpcx(Box::new(w::HarnessSut::start(dir, true)?)),
        Workload::IngestBatch256 => Env::Ingest(Arc::new(w::start_cluster(dir)?)),
        Workload::QueryScan => {
            Env::Query(w::preload(dir, args.seed, w::preload_kvps(args.seconds))?)
        }
    })
}

/// Repeats the cheap set-ups for [`SETUP_REPEAT_TIME`], timing each.
fn repeat_setups(args: &Args, work: &Path, setup_secs: &mut Vec<f64>) -> Result<(), String> {
    let until = Instant::now() + SETUP_REPEAT_TIME;
    while rounds(args.workload) == 1 && Instant::now() < until {
        let dir = work.join("setup");
        let started = Instant::now();
        let env = setup(args, &dir)?;
        setup_secs.push(started.elapsed().as_secs_f64());
        drop(env);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let name = args.workload.name();
    // Every scratch file lives under one root inside the benchmark's own
    // directory, removed on success and on failure.
    let work_root = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let work = WorkDir::create(work_root.join(format!("{name}-{}", std::process::id())))
        .map_err(|e| format!("work dir: {e}"))?;

    // Spans per recording thread, with headroom; a buffer that still
    // overflows grows, it does not drop.
    let instrument = if args.trace {
        let ops = match args.workload {
            // Every execution spawns fresh client threads.
            Workload::TpcxInproc | Workload::TpcxNet => {
                w::tpcx_kvps_per_exec(args.seconds) / w::TPCX_CLIENTS as u64
            }
            Workload::IngestBatch256 => {
                w::ingest_kvps(args.seconds) / (256 * w::CLIENT_THREADS) as u64
            }
            Workload::QueryScan => 2 * w::query_count(args.seconds) / QUERY_SCAN_ROUNDS as u64,
        };
        Instrument::traced(Tracer::new(ops as usize * 5 / 4 + 64))
    } else {
        Instrument::untraced()
    };

    let rounds = rounds(args.workload);
    let mut setup_secs = Vec::new();
    repeat_setups(args, &work.0, &mut setup_secs)?;
    let mut measured = Vec::new();
    for round in 0..rounds {
        let data_dir = work.0.join(format!("data-{round}"));
        let seed = derive_seed(args.seed, round as u64);
        let started = Instant::now();
        let env = setup(args, &data_dir)?;
        setup_secs.push(started.elapsed().as_secs_f64());
        measured.push(match env {
            Env::Tpcx(mut sut) => {
                let kvps = w::tpcx_kvps_per_exec(args.seconds);
                w::measure_tpcx(&mut sut, seed, kvps, &instrument)
            }
            Env::Ingest(cluster) => w::measure_ingest(
                &data_dir,
                cluster,
                seed,
                w::ingest_kvps(args.seconds),
                &instrument,
            )?,
            Env::Query(data) => w::measure_query_scan(
                &data_dir,
                &data,
                seed,
                w::query_count(args.seconds) / rounds as u64,
                &instrument,
            ),
        });
        let _ = std::fs::remove_dir_all(&data_dir);
    }
    let measured = Measured::combine(measured);
    repeat_setups(args, &work.0, &mut setup_secs)?;

    let mut metrics = BTreeMap::new();
    if let Some(tracer) = instrument.tracer() {
        let spans = tracer.spans();
        if let Some(path) = &args.spans_out {
            trace::write_csv(path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let probes = probes::run(&work.0, args.seed)?;
        per_layer(args.workload, &measured, &spans, probes, &mut metrics);
        debug_assert!(PER_LAYER.iter().all(|m| metrics.contains_key(m.name)));
    } else {
        for (name, value) in [
            ("kvps_per_s", measured.kvps_per_s),
            ("rss_mib", mean(&measured.rss_samples_mib)),
            ("setup_s", median(&setup_secs)),
        ] {
            metrics.insert(name, value);
        }
        debug_assert!(END_TO_END.iter().all(|m| metrics.contains_key(m.name)));
    }
    Ok(Outcome {
        attempted: measured.attempted.max(1),
        failed: measured.failed,
        problems: measured.problems,
        metrics,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Names the traced pass's numbers: spans reduced to medians and self
/// times, counter deltas, the probes, and the ladder checks.
fn per_layer(
    workload: Workload,
    m: &Measured,
    threads: &[Vec<Span>],
    probes: BTreeMap<&'static str, f64>,
    out: &mut BTreeMap<&'static str, f64>,
) {
    out.extend(probes);

    // Spans.
    let backend_call = |s: &&Span| {
        matches!(
            s.name,
            trace::INSERT | trace::INSERT_BATCH | trace::SCAN_FOLD
        )
    };
    let mut inserts = Vec::new();
    let mut scans = Vec::new();
    let mut cleanup_ns = 0u64;
    let mut gap_ns = 0u64;
    let mut calls = 0u64;
    for spans in threads {
        let backend: Vec<Span> = spans.iter().filter(backend_call).cloned().collect();
        gap_ns += trace::thread_gap_ns(&backend);
        calls += backend.len() as u64;
        for s in spans {
            match s.name {
                trace::INSERT | trace::INSERT_BATCH => inserts.push(s.duration_ns()),
                trace::SCAN_FOLD => scans.push(s.duration_ns()),
                trace::CLEANUP => cleanup_ns += s.duration_ns(),
                _ => {}
            }
        }
    }
    let (insert_p50, insert_tail) = p50_and_tail_us(&mut inserts);
    let (scan_p50, _) = p50_and_tail_us(&mut scans);
    let driver_self_us = ratio(gap_ns as f64 / 1e3, calls as f64);
    out.insert("core.backend.insert_us_p50", insert_p50);
    out.insert("core.backend.insert_us_tail", insert_tail);
    out.insert("core.backend.scan_fold_us_p50", scan_p50);
    out.insert("core.driver.self_us_per_op", driver_self_us);
    out.insert("core.runner.cleanup_ms", cleanup_ns as f64 / 1e6);
    out.insert(
        "trace.spans",
        threads.iter().map(Vec::len).sum::<usize>() as f64,
    );
    out.insert("trace.kvps_per_s", m.kvps_per_s);
    out.insert("workload.run_s", m.run_s);
    out.insert("process.peak_rss_mib", m.peak_rss_mib);
    out.insert("core.runner.iotps", m.iotps);

    // Counts.
    let c = &m.counts;
    out.insert("core.driver.acked_kvps", m.acked_kvps as f64);
    out.insert("core.driver.queries", m.queries as f64);
    out.insert("core.driver.rows_read", m.rows_read as f64);
    out.insert(
        "core.driver.rows_per_query",
        ratio(m.rows_read as f64, m.queries as f64),
    );
    out.insert("core.query.mean_us", m.query_mean_us);
    out.insert("core.query.p50_us", m.query_p50_us);
    out.insert("core.query.tail_us", m.query_tail_us);
    out.insert("core.retry.insert_retries", m.insert_retries as f64);
    out.insert("core.retry.query_retries", m.query_retries as f64);
    out.insert("gateway.cluster.puts", c.puts as f64);
    out.insert("gateway.cluster.put_batches", c.put_batches as f64);
    out.insert(
        "gateway.cluster.batch_fill",
        ratio(c.batched_puts as f64, c.put_batches as f64),
    );
    out.insert(
        "gateway.cluster.replica_writes_per_put",
        ratio(c.replica_writes as f64, c.puts as f64),
    );
    out.insert("gateway.cluster.scans", c.scans as f64);
    out.insert("gateway.cluster.rows_streamed", c.rows_streamed as f64);
    let max_writes = c.node_writes.iter().copied().max().unwrap_or(0) as f64;
    let mean_writes = ratio(
        c.node_writes.iter().sum::<u64>() as f64,
        c.node_writes.len() as f64,
    );
    out.insert(
        "gateway.cluster.node_write_skew",
        ratio(max_writes, mean_writes),
    );
    out.insert(
        "gateway.cluster.unavailable_errors",
        c.unavailable_errors as f64,
    );
    out.insert("gateway.cluster.failover_reads", c.failover_reads as f64);
    out.insert("gateway.cluster.hinted_writes", c.hinted_writes as f64);
    out.insert("iotkv.commit.groups", c.commit_groups as f64);
    out.insert(
        "iotkv.commit.group_size",
        ratio(c.commit_batches as f64, c.commit_groups as f64),
    );
    out.insert("iotkv.wal.syncs", c.wal_syncs as f64);
    out.insert("iotkv.flush.count", c.flushes as f64);
    out.insert("iotkv.flush.bytes", c.bytes_flushed as f64);
    out.insert("iotkv.compaction.count", c.compactions as f64);
    out.insert("iotkv.compaction.bytes", c.bytes_compacted as f64);
    out.insert(
        "iotkv.write_amp",
        ratio(
            (c.bytes_flushed + c.bytes_compacted) as f64,
            w::user_bytes(c.replica_writes),
        ),
    );
    // One stall is one 1 ms sleep of a writer.
    out.insert("iotkv.stall.ms", c.stalls as f64);
    out.insert("iotkv.tables", c.tables as f64);
    out.insert("iotkv.l0_tables", c.l0_tables as f64);
    out.insert("iotkv.drain_ms", m.drain_ms);
    out.insert(
        "iotkv.disk_bytes_per_user_byte",
        ratio(m.disk_bytes as f64, w::user_bytes(m.stored_kvps)),
    );
    let lookups = (c.cache_hits + c.cache_misses) as f64;
    out.insert("iotkv.cache.hit_rate", ratio(c.cache_hits as f64, lookups));
    out.insert(
        "iotkv.cache.misses_per_row",
        ratio(c.cache_misses as f64, c.rows_streamed as f64),
    );

    // Ladder: the single-thread probe of what one backend call of this
    // workload does, beside the call as the workload saw it.
    let (probe_us, workload_us) = match workload {
        Workload::TpcxInproc => (out["gateway.cluster.put_us_p50"], insert_p50),
        Workload::TpcxNet => (out["core.netplane.insert_us_p50"], insert_p50),
        Workload::IngestBatch256 => (
            256.0 * out["gateway.cluster.put_batch256_us_per_kvp"],
            insert_p50,
        ),
        Workload::QueryScan => (
            out["gateway.cluster.scan_ns_per_row"] / 1e3 * ratio(m.rows_read as f64, calls as f64),
            scan_p50,
        ),
    };
    // A dashboard query is two backend calls; every other op is one.
    let calls_per_op = if workload == Workload::QueryScan {
        2.0
    } else {
        1.0
    };
    out.insert("trace.ladder_closure", ratio(probe_us, workload_us));
    out.insert(
        "trace.ladder_sum_us",
        calls_per_op * (driver_self_us + probe_us),
    );
}
