//! Batched-vs-single ingest: kvps/s through the resilient driver path at
//! batch sizes 1/16/64/256, each against a fresh fault-free 3-node
//! cluster. Emits the `BENCH_ingest.json` evidence artifact.
//!
//! ```sh
//! cargo run --release -p bench --bin bench_ingest [scale]
//! ```
//!
//! Output path: `$BENCH_INGEST_OUT` (default `BENCH_ingest.json` in the
//! working directory).

use bench::scale_arg;
use gateway::cluster::{Cluster, ClusterConfig};
use iotkv::Options;
use std::fmt::Write as _;
use std::sync::Arc;
use tpcx_iot::driver::{run_driver, DriverConfig};
use tpcx_iot::GatewayBackend;
use ycsb::measurement::Measurements;

const BATCH_SIZES: [usize; 4] = [1, 16, 64, 256];
const THREADS: usize = 4;

struct Case {
    batch_size: usize,
    kvps_per_sec: f64,
    elapsed_secs: f64,
    put_batches: u64,
    mean_fill: f64,
}

fn run_case(batch_size: usize, kvps: u64) -> Case {
    let dir =
        std::env::temp_dir().join(format!("bench-ingest-{}-{batch_size}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = ClusterConfig::new(&dir, 3);
    // Same engine headroom as the fault sweep: measure the ingest path,
    // not memtable churn.
    config.storage = Options {
        memtable_bytes: 8 << 20,
        block_bytes: 4 << 10,
        l1_bytes: 32 << 20,
        table_bytes: 8 << 20,
        ..Options::default()
    };
    let cluster = Arc::new(Cluster::start(config).expect("cluster starts"));

    eprintln!("running: batch_size={batch_size} ...");
    let mut dc = DriverConfig::new(0, kvps);
    dc.threads = THREADS;
    dc.batch_size = batch_size;
    let report = run_driver(
        &dc,
        Arc::clone(&cluster) as Arc<dyn GatewayBackend>,
        Arc::new(Measurements::new()),
    );
    assert_eq!(
        report.ingested, kvps,
        "fault-free run must ingest the quota"
    );

    let stats = cluster.stats();
    let mean_fill = if stats.put_batches == 0 {
        0.0
    } else {
        stats.batched_puts as f64 / stats.put_batches as f64
    };
    let case = Case {
        batch_size,
        kvps_per_sec: report.ingested as f64 / report.elapsed_secs.max(1e-9),
        elapsed_secs: report.elapsed_secs,
        put_batches: stats.put_batches,
        mean_fill,
    };
    drop(cluster);
    std::fs::remove_dir_all(&dir).ok();
    case
}

fn to_json(kvps: u64, cases: &[Case], speedup16: f64) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"batched_ingest\",");
    let _ = writeln!(out, "  \"kvps_per_case\": {kvps},");
    let _ = writeln!(out, "  \"threads\": {THREADS},");
    let _ = writeln!(out, "  \"cases\": [");
    for (i, c) in cases.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"batch_size\": {}, \"kvps_per_sec\": {:.1}, \
             \"elapsed_secs\": {:.4}, \"put_batches\": {}, \"mean_fill\": {:.1}}}{}",
            c.batch_size,
            c.kvps_per_sec,
            c.elapsed_secs,
            c.put_batches,
            c.mean_fill,
            if i + 1 == cases.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"speedup_batch16_vs_single\": {speedup16:.2}");
    out.push_str("}\n");
    out
}

fn main() {
    let scale = scale_arg(20);
    let kvps = (1_000_000 / scale.max(1)).max(20_000);
    println!("== Batched ingest: 3-node cluster, {kvps} kvps per case ==");

    let cases: Vec<Case> = BATCH_SIZES.iter().map(|&b| run_case(b, kvps)).collect();

    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>10}",
        "batch", "kvps/s", "elapsed", "batches", "fill"
    );
    for c in &cases {
        println!(
            "{:>10} {:>12.0} {:>9.2}s {:>10} {:>10.1}",
            c.batch_size, c.kvps_per_sec, c.elapsed_secs, c.put_batches, c.mean_fill
        );
    }

    let single = cases[0].kvps_per_sec;
    let batch16 = cases[1].kvps_per_sec;
    let speedup16 = batch16 / single.max(1e-9);
    println!(
        "\nshape check: batch 16 beats single-put: {:.0} vs {:.0} kvps/s \
         ({speedup16:.2}x, {})",
        batch16,
        single,
        speedup16 > 1.0
    );

    let json = to_json(kvps, &cases, speedup16);
    let out = std::env::var_os("BENCH_INGEST_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_ingest.json"));
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
