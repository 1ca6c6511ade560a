//! Streamed-vs-materialized query scans: dashboard queries against a
//! 3-node cluster while ingest runs concurrently, once through the
//! streaming fold path (`query::execute` over `scan_fold`) and once
//! through a materialize-then-aggregate baseline replicating the
//! pre-streaming read path. Emits the `BENCH_query.json` evidence
//! artifact.
//!
//! ```sh
//! cargo run --release -p bench --bin bench_query [scale]
//! ```
//!
//! Output path: `$BENCH_QUERY_OUT` (default `BENCH_query.json` in the
//! working directory).

use bench::scale_arg;
use gateway::cluster::{Cluster, ClusterConfig};
use iotkv::Options;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tpcx_iot::keys::{decode_reading, encode_reading, sensor_time_range, SensorReading};
use tpcx_iot::query::{execute, IntervalAggregate, QueryKind, QuerySpec, WINDOW_MS};
use tpcx_iot::GatewayBackend;

const SENSORS: u64 = 32;
const INGEST_THREADS: usize = 2;
const NOW_MS: u64 = 10_000_000;
const PAST_FROM_MS: u64 = NOW_MS - 1_000_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Streamed,
    Materialized,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Streamed => "streamed",
            Mode::Materialized => "materialized",
        }
    }
}

struct Case {
    mode: Mode,
    queries: u64,
    rows_read: u64,
    elapsed_secs: f64,
    queries_per_sec: f64,
    rows_per_sec: f64,
    concurrent_ingested: u64,
    /// Sum of every aggregate value produced — must match between the
    /// two modes bit-for-bit, proving the streamed fold computes the
    /// same answers it is being benchmarked against.
    checksum: f64,
}

fn reading(
    substation: &str,
    sensor: u64,
    timestamp_ms: u64,
    value: f64,
) -> (bytes::Bytes, bytes::Bytes) {
    encode_reading(&SensorReading {
        substation: substation.into(),
        sensor: format!("pmu-{sensor:03}"),
        timestamp_ms,
        value: format!("{value:.3}"),
        unit: "volts".into(),
    })
}

/// The pre-streaming read path, preserved here as the baseline: collect
/// the whole window into a `Vec`, decode every row into a full
/// `SensorReading`, then aggregate.
fn materialized_interval(
    backend: &dyn GatewayBackend,
    spec: &QuerySpec,
    from_ms: u64,
    to_ms: u64,
) -> IntervalAggregate {
    let (start, end) = sensor_time_range(&spec.substation, &spec.sensor, from_ms, to_ms);
    let rows = backend.scan(&start, &end, usize::MAX).expect("scan");
    let values: Vec<f64> = rows
        .iter()
        .filter_map(|(k, v)| decode_reading(k, v))
        .filter_map(|r| r.value.parse::<f64>().ok())
        .collect();
    let value = if values.is_empty() {
        None
    } else {
        Some(match spec.kind {
            QueryKind::MaxReading => values.iter().cloned().fold(f64::MIN, f64::max),
            QueryKind::MinReading => values.iter().cloned().fold(f64::MAX, f64::min),
            QueryKind::AverageReading => values.iter().sum::<f64>() / values.len() as f64,
            QueryKind::ReadingCount => values.len() as f64,
        })
    };
    IntervalAggregate {
        rows: values.len() as u64,
        value,
    }
}

fn spec_for(query: u64) -> QuerySpec {
    QuerySpec {
        kind: QueryKind::ALL[(query % 4) as usize],
        substation: "PSS-000000".into(),
        sensor: format!("pmu-{:03}", query % SENSORS),
        current_from_ms: NOW_MS - WINDOW_MS,
        current_to_ms: NOW_MS,
        past_from_ms: PAST_FROM_MS,
        past_to_ms: PAST_FROM_MS + WINDOW_MS,
    }
}

fn run_case(mode: Mode, rows_per_window: u64, queries: u64) -> Case {
    let dir = std::env::temp_dir().join(format!(
        "bench-query-{}-{}",
        std::process::id(),
        mode.name()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = ClusterConfig::new(&dir, 3);
    config.storage = Options {
        memtable_bytes: 8 << 20,
        block_bytes: 4 << 10,
        l1_bytes: 32 << 20,
        table_bytes: 8 << 20,
        ..Options::default()
    };
    let cluster = Arc::new(Cluster::start(config).expect("cluster starts"));

    eprintln!("running: mode={} ...", mode.name());
    // Preload both query windows for every sensor.
    let step = (WINDOW_MS / rows_per_window).max(1);
    for sensor in 0..SENSORS {
        for window_start in [NOW_MS - WINDOW_MS, PAST_FROM_MS] {
            for i in 0..rows_per_window {
                let ts = window_start + i * step;
                let (k, v) = reading("PSS-000000", sensor, ts, 100.0 + i as f64);
                cluster.put(&k, &v).expect("preload put");
            }
        }
    }

    // Concurrent ingest: writers hammer a disjoint substation for the
    // whole query phase, so the scans run against a live ingest path.
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..INGEST_THREADS)
        .map(|w| {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut count = 0u64;
                // ordering: Relaxed — best-effort stop flag; workers may run
                // one extra iteration, which the measurement tolerates.
                while !stop.load(Ordering::Relaxed) {
                    // Batched like the real driver, so the writers put
                    // genuine pressure on the engine during the scans.
                    let batch: Vec<_> = (0..64)
                        .map(|i| reading("PSS-000001", w as u64, NOW_MS + count + i, count as f64))
                        .collect();
                    cluster.put_batch(&batch).expect("ingest put");
                    count += batch.len() as u64;
                }
                count
            })
        })
        .collect();

    let backend: Arc<dyn GatewayBackend> = Arc::clone(&cluster) as _;
    let mut rows_read = 0u64;
    let mut checksum = 0.0f64;
    let started = std::time::Instant::now();
    for q in 0..queries {
        let spec = spec_for(q);
        match mode {
            Mode::Streamed => {
                let out = execute(backend.as_ref(), &spec).expect("streamed query");
                rows_read += out.rows_read;
                checksum += out.current.value.unwrap_or(0.0) + out.past.value.unwrap_or(0.0);
            }
            Mode::Materialized => {
                let current = materialized_interval(
                    backend.as_ref(),
                    &spec,
                    spec.current_from_ms,
                    spec.current_to_ms,
                );
                let past = materialized_interval(
                    backend.as_ref(),
                    &spec,
                    spec.past_from_ms,
                    spec.past_to_ms,
                );
                rows_read += current.rows + past.rows;
                checksum += current.value.unwrap_or(0.0) + past.value.unwrap_or(0.0);
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    // ordering: Relaxed — see the worker loop; the join below is the
    // synchronization point.
    stop.store(true, Ordering::Relaxed);
    let concurrent_ingested = writers.into_iter().map(|w| w.join().expect("writer")).sum();

    let case = Case {
        mode,
        queries,
        rows_read,
        elapsed_secs: elapsed,
        queries_per_sec: queries as f64 / elapsed.max(1e-9),
        rows_per_sec: rows_read as f64 / elapsed.max(1e-9),
        concurrent_ingested,
        checksum,
    };
    drop(backend);
    drop(cluster);
    std::fs::remove_dir_all(&dir).ok();
    case
}

fn to_json(rows_per_window: u64, cases: &[Case], speedup: f64) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"streamed_query_scan\",");
    let _ = writeln!(out, "  \"sensors\": {SENSORS},");
    let _ = writeln!(out, "  \"rows_per_window\": {rows_per_window},");
    let _ = writeln!(out, "  \"ingest_threads\": {INGEST_THREADS},");
    let _ = writeln!(out, "  \"cases\": [");
    for (i, c) in cases.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"queries\": {}, \"rows_read\": {}, \
             \"elapsed_secs\": {:.4}, \"queries_per_sec\": {:.1}, \
             \"rows_per_sec\": {:.0}, \"concurrent_ingested\": {}}}{}",
            c.mode.name(),
            c.queries,
            c.rows_read,
            c.elapsed_secs,
            c.queries_per_sec,
            c.rows_per_sec,
            c.concurrent_ingested,
            if i + 1 == cases.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"speedup_streamed_vs_materialized\": {speedup:.2}");
    out.push_str("}\n");
    out
}

fn main() {
    let scale = scale_arg(20);
    let rows_per_window = (10_000 / scale.max(1)).max(250);
    let queries = (4_000 / scale.max(1)).max(200);
    println!(
        "== Query scans: 3-node cluster, {SENSORS} sensors x {rows_per_window} rows/window, \
         {queries} queries per mode, concurrent ingest =="
    );

    let materialized = run_case(Mode::Materialized, rows_per_window, queries);
    let streamed = run_case(Mode::Streamed, rows_per_window, queries);
    assert_eq!(
        streamed.checksum, materialized.checksum,
        "the two read paths must compute identical aggregates"
    );
    assert_eq!(streamed.rows_read, materialized.rows_read);

    println!(
        "{:>14} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "mode", "queries", "queries/s", "rows/s", "elapsed", "ingested"
    );
    for c in [&materialized, &streamed] {
        println!(
            "{:>14} {:>10} {:>12.1} {:>12.0} {:>9.2}s {:>12}",
            c.mode.name(),
            c.queries,
            c.queries_per_sec,
            c.rows_per_sec,
            c.elapsed_secs,
            c.concurrent_ingested,
        );
    }

    let speedup = streamed.queries_per_sec / materialized.queries_per_sec.max(1e-9);
    println!(
        "\nshape check: streamed at least matches materialized under \
         concurrent ingest: {:.1} vs {:.1} queries/s ({speedup:.2}x, {})",
        streamed.queries_per_sec,
        materialized.queries_per_sec,
        speedup >= 1.0
    );

    let json = to_json(rows_per_window, &[materialized, streamed], speedup);
    let out = std::env::var_os("BENCH_QUERY_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_query.json"));
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("exported {}", out.display());
}
