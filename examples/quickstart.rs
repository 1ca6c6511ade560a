//! Quickstart: stand up a small in-process gateway cluster, ingest one
//! substation's sensor readings, and run the four dashboard queries.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use tpcx_iot::backend::GatewayBackend;
use tpcx_iot::datagen::ReadingGenerator;
use tpcx_iot::query::{execute, QueryKind, QuerySpec, WINDOW_MS};

fn main() {
    // 1. Start a 3-node gateway cluster with 3-way replication.
    let data_dir = std::env::temp_dir().join(format!("tpcx-quickstart-{}", std::process::id()));
    std::fs::remove_dir_all(&data_dir).ok();
    let mut config = gateway::ClusterConfig::new(&data_dir, 3);
    // A few MiB of memtable so 20k 1 KB readings trigger a handful of
    // flushes rather than thousands.
    config.storage = iotkv::Options {
        memtable_bytes: 4 << 20,
        l1_bytes: 16 << 20,
        table_bytes: 4 << 20,
        ..iotkv::Options::default()
    };
    let cluster = Arc::new(gateway::Cluster::start(config).expect("cluster starts"));
    println!(
        "started {}-node gateway cluster, replication factor {}",
        cluster.node_count(),
        cluster.effective_replication()
    );

    // 2. Ingest 20,000 readings from power substation PSS-000000.
    let mut generator = ReadingGenerator::new("PSS-000000", 42, 1_700_000_000_000, 10);
    for _ in 0..20_000 {
        let (key, value) = generator.next_kvp();
        cluster.insert(&key, &value).expect("ingest succeeds");
    }
    let now_ms = generator.now_ms();
    println!(
        "ingested {} readings (virtual clock now {now_ms} ms)",
        generator.emitted()
    );

    // 3. Run one of each dashboard query template against a PMU sensor.
    let sensors = generator.sensor_keys();
    for kind in QueryKind::ALL {
        let spec = QuerySpec {
            kind,
            substation: "PSS-000000".into(),
            sensor: sensors[0].clone(),
            current_from_ms: now_ms - WINDOW_MS,
            current_to_ms: now_ms,
            past_from_ms: 1_700_000_000_000,
            past_to_ms: 1_700_000_000_000 + WINDOW_MS,
        };
        let outcome = execute(cluster.as_ref() as &dyn GatewayBackend, &spec).expect("query runs");
        println!(
            "{:<16} current[{} rows] = {:?}   past[{} rows] = {:?}",
            kind.name(),
            outcome.current.rows,
            outcome.current.value,
            outcome.past.rows,
            outcome.past.value,
        );
    }

    let stats = cluster.stats();
    println!(
        "cluster stats: {} puts ({} replica writes), {} scans across {} regions",
        stats.puts, stats.replica_writes, stats.scans, stats.regions
    );
    drop(cluster);
    std::fs::remove_dir_all(&data_dir).ok();
}
