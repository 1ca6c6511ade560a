//! The networked benchmark controller: runs the complete TPCx-IoT
//! protocol with workload executions fanned out to a driver-agent fleet
//! over TCP, and compares the result against the in-process runner on
//! the same seed — the tentpole invariant is that the verdict and the
//! work counters must not depend on the execution plane.
//!
//! With `--agents a:p,b:p` it drives already-running `agent` processes
//! (see the `agent` bin; `scripts/bench_netplane.sh` spawns them);
//! without it, it hosts two loopback agents itself.
//!
//! The process exits nonzero if either run goes INVALID or the networked
//! run's counters diverge from the in-process baseline, so CI can gate
//! on it directly. It writes no file: throughput is measured by
//! `iotbench` (`benchmarks/`).
//!
//! ```sh
//! cargo run --release -p bench --bin controller [scale] [--agents a,b]
//! ```

use tpcx_iot::netplane::{run_networked, spawn_local_agent, FleetConfig};
use tpcx_iot::pricing::PriceSheet;
use tpcx_iot::rules::Rules;
use tpcx_iot::runner::{BenchmarkConfig, BenchmarkOutcome, BenchmarkRunner, GatewaySut};

/// Loopback agents hosted when no `--agents` list is given.
const LOCAL_AGENTS: usize = 2;

struct Row {
    iotps: f64,
    ingested: u64,
    queries: u64,
    verdict: String,
    valid: bool,
}

fn cluster(slug: &str) -> (gateway::Cluster, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("bench-netplane-{slug}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = gateway::ClusterConfig::new(&dir, 3);
    config.storage = iotkv::Options {
        memtable_bytes: 8 << 20,
        block_bytes: 4 << 10,
        l1_bytes: 32 << 20,
        table_bytes: 8 << 20,
        ..iotkv::Options::default()
    };
    (
        gateway::Cluster::start(config).expect("cluster starts"),
        dir,
    )
}

fn bench_config(kvps: u64) -> BenchmarkConfig {
    let mut config = BenchmarkConfig::new(4, kvps);
    config.threads_per_driver = 2;
    // Laptop-scale thresholds: validity is judged by the protocol
    // (data checks, acked-loss, routing), not by datacenter rates.
    config.rules = Rules {
        min_elapsed_secs: 0.0,
        min_per_sensor_rate: 0.0,
        min_rows_per_query: 0.0,
    };
    config
}

fn row_from(outcome: &BenchmarkOutcome) -> Row {
    let first = outcome.iterations.first();
    Row {
        iotps: outcome.metrics.as_ref().map_or(0.0, |m| m.iotps),
        ingested: first.map_or(0, |it| it.measured.ingested),
        queries: first.map_or(0, |it| it.measured.queries),
        verdict: if outcome.registry.verdict.is_empty() {
            "NONE".into()
        } else {
            outcome.registry.verdict.clone()
        },
        valid: outcome.registry.verdict == "VALID" && outcome.publishable(),
    }
}

fn usage() -> ! {
    eprintln!("usage: controller [scale] [--agents addr,addr]");
    std::process::exit(2);
}

fn main() {
    let mut scale = 20u64;
    let mut external: Option<Vec<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--agents" {
            let list = args.next().unwrap_or_else(|| usage());
            external = Some(list.split(',').map(|s| s.trim().to_string()).collect());
        } else if let Ok(s) = arg.parse::<u64>() {
            scale = s.max(1);
        } else {
            usage();
        }
    }
    let kvps = (1_000_000 / scale).max(16_000);
    println!("== Networked benchmark plane: {kvps} kvps per execution, 4 substations ==");
    let runner = BenchmarkRunner::new(bench_config(kvps), PriceSheet::sample_cluster(3));

    // In-process baseline: the reference verdict and counters.
    eprintln!("running: in-process baseline ...");
    let (base_cluster, base_dir) = cluster("inproc");
    let mut sut = GatewaySut::new(base_cluster);
    let base = row_from(&runner.run(&mut sut));
    drop(sut);
    std::fs::remove_dir_all(base_dir).ok();

    let agents = external.unwrap_or_else(|| {
        (0..LOCAL_AGENTS)
            .map(|_| spawn_local_agent().expect("spawn agent").0)
            .collect()
    });
    let agent_count = agents.len();
    eprintln!("running: {agent_count} agents ...");
    let (fleet_cluster, fleet_dir) = cluster("fleet");
    let net = match run_networked(&runner, fleet_cluster, &FleetConfig::new(agents)) {
        Ok(outcome) => row_from(&outcome),
        Err(e) => {
            eprintln!("FAIL: networked run could not start: {e}");
            std::process::exit(1);
        }
    };
    std::fs::remove_dir_all(fleet_dir).ok();

    println!(
        "{:<12} {:>6} {:>12} {:>10} {:>8}  verdict",
        "mode", "agents", "IoTps", "ingested", "queries"
    );
    for (mode, agents, r) in [("in-process", 0, &base), ("networked", agent_count, &net)] {
        println!(
            "{mode:<12} {agents:>6} {:>12.0} {:>10} {:>8}  {}",
            r.iotps, r.ingested, r.queries, r.verdict
        );
    }

    let counters_match = net.ingested == base.ingested && net.queries == base.queries;
    let all_valid = base.valid && net.valid;
    println!("\nshape checks:");
    println!("  every plane reaches the same VALID verdict: {all_valid}");
    println!(
        "  networked counters match the in-process baseline ({} kvps, {} queries): {counters_match}",
        base.ingested, base.queries
    );
    if !all_valid || !counters_match {
        eprintln!("FAIL: networked plane diverged from the in-process benchmark");
        std::process::exit(1);
    }
}
