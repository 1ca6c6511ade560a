//! Classic YCSB core workloads A–F against the in-process gateway
//! cluster, through YCSB's database interface layer (`ycsb::KvStore`).
//! Exits nonzero if any load or run operation fails.
//!
//! ```sh
//! cargo run --release --example ycsb_core [records] [operations]
//! ```

use gateway::{Cluster, ClusterConfig};
use std::sync::Arc;
use ycsb::runner::{RunConfig, Runner};
use ycsb::workload::{CoreWorkload, WorkloadConfig};

fn main() {
    let records: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let operations: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);

    let presets: [(&str, WorkloadConfig); 6] = [
        ("A (update heavy)", WorkloadConfig::preset_a()),
        ("B (read mostly)", WorkloadConfig::preset_b()),
        ("C (read only)", WorkloadConfig::preset_c()),
        ("D (read latest)", WorkloadConfig::preset_d()),
        ("E (short ranges)", WorkloadConfig::preset_e()),
        ("F (read-modify-write)", WorkloadConfig::preset_f()),
    ];

    let mut failures = 0;
    for (name, mut preset) in presets {
        let data_dir =
            std::env::temp_dir().join(format!("ycsb-core-{}-{name:.1}", std::process::id()));
        std::fs::remove_dir_all(&data_dir).ok();
        let mut cluster_config = ClusterConfig::new(&data_dir, 2);
        cluster_config.storage = iotkv::Options {
            memtable_bytes: 4 << 20,
            ..iotkv::Options::default()
        };
        let store = Arc::new(Cluster::start(cluster_config).expect("cluster starts"));

        preset.record_count = records;
        preset.field_count = 4;
        preset.field_length = 64;
        let workload = Arc::new(CoreWorkload::new(preset).expect("valid preset"));
        let runner = Runner::new(store, workload);
        let rc = RunConfig {
            threads: 4,
            operation_count: operations,
            ..Default::default()
        };

        let load = runner.load(&rc);
        let run = runner.run(&rc);
        println!("== workload {name} ==");
        println!(
            "load : {:>8.0} ops/s ({} records, {} failures)",
            load.throughput_ops_sec, load.operations, load.failures
        );
        println!(
            "run  : {:>8.0} ops/s ({} operations, {} failures)",
            run.throughput_ops_sec, run.operations, run.failures
        );
        print!("{}", runner.measurements.report());
        println!();
        failures += load.failures + run.failures;
        std::fs::remove_dir_all(&data_dir).ok();
    }
    if failures > 0 {
        eprintln!("{failures} YCSB operations failed");
        std::process::exit(1);
    }
}
