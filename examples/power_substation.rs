//! A complete (scaled-down) TPCx-IoT benchmark run against the real
//! in-process gateway cluster: prerequisite checks, two iterations of
//! warm-up + measured executions with concurrent dashboard queries, data
//! checks, system cleanup, and the executive summary + FDR.
//!
//! ```sh
//! cargo run --release --example power_substation [substations] [total_kvps]
//! ```

use tpcx_iot::pricing::PriceSheet;
use tpcx_iot::report::{executive_summary, full_disclosure_report};
use tpcx_iot::rules::Rules;
use tpcx_iot::runner::{BenchmarkConfig, BenchmarkRunner, GatewaySut};

fn main() {
    let substations: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let total_kvps: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000);

    let data_dir = std::env::temp_dir().join(format!("tpcx-substation-{}", std::process::id()));
    std::fs::remove_dir_all(&data_dir).ok();
    let mut cluster_config = gateway::ClusterConfig::new(&data_dir, 3);
    cluster_config.storage = iotkv::Options {
        memtable_bytes: 4 << 20,
        ..iotkv::Options::default()
    };
    // Pre-split regions on substation boundaries, as the kit's setup does.
    cluster_config.split_points = (1..substations)
        .map(|i| bytes::Bytes::from(format!("PSS-{i:06}|")))
        .collect();
    let cluster = gateway::Cluster::start(cluster_config).expect("cluster starts");
    let mut sut = GatewaySut::new(cluster);

    let mut config = BenchmarkConfig::new(substations, total_kvps);
    config.threads_per_driver = 4;
    // Laptop floors: keep the rate rules, drop the 1800 s duration floor.
    config.rules = Rules {
        min_elapsed_secs: 0.0,
        min_per_sensor_rate: 0.0,
        min_rows_per_query: 0.0,
    };
    let sheet = PriceSheet::sample_cluster(3);
    let runner = BenchmarkRunner::new(config.clone(), sheet.clone());

    println!("running TPCx-IoT: {substations} substations, {total_kvps} kvps per execution ...");
    let outcome = runner.run(&mut sut);

    println!("\n{}", executive_summary(&outcome, &config, &sheet));
    let fdr = full_disclosure_report(
        &outcome,
        &config,
        &sheet,
        &[
            ("storage.memtable_bytes".into(), "4 MiB".into()),
            ("cluster.pre_split".into(), "substation boundaries".into()),
        ],
    );
    println!("{fdr}");
    std::fs::remove_dir_all(&data_dir).ok();
}
