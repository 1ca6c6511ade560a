//! The networked benchmark controller: runs the complete TPCx-IoT
//! protocol with workload executions fanned out to a driver-agent fleet
//! over TCP, and compares the result against the in-process runner on
//! the same seed — the tentpole invariant is that the verdict and the
//! work counters must not depend on the execution plane.
//!
//! Two modes:
//!
//! * **Agent scale-out sweep** (default): self-hosts loopback agents and
//!   runs the benchmark with 1, 2, and 4 agents after an in-process
//!   baseline.
//! * **External fleet** (`--agents a:p,b:p`): drives already-running
//!   `agent` processes (see the `agent` bin) — the loopback smoke test
//!   in `scripts/bench_netplane.sh` uses this.
//!
//! The process exits nonzero if any run goes INVALID or a networked
//! run's counters diverge from the in-process baseline, so CI can gate
//! on it directly. The sweep summary lands in `$BENCH_NETPLANE_OUT`
//! (default `BENCH_netplane.json`).
//!
//! ```sh
//! cargo run --release -p bench --bin controller [scale] [--agents a,b]
//! ```

use std::fmt::Write as _;
use tpcx_iot::netplane::{run_networked, spawn_local_agent, FleetConfig};
use tpcx_iot::pricing::PriceSheet;
use tpcx_iot::rules::Rules;
use tpcx_iot::runner::{BenchmarkConfig, BenchmarkOutcome, BenchmarkRunner, GatewaySut};

struct Row {
    mode: String,
    agents: usize,
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

fn row_from(mode: &str, agents: usize, outcome: &BenchmarkOutcome) -> Row {
    let measured: f64 = outcome
        .iterations
        .iter()
        .map(|it| it.measured.ingested as f64 / it.measured.elapsed_secs.max(1e-9))
        .sum::<f64>()
        / outcome.iterations.len().max(1) as f64;
    Row {
        mode: mode.to_string(),
        agents,
        iotps: outcome.metrics.as_ref().map_or(measured, |m| m.iotps),
        ingested: outcome
            .iterations
            .first()
            .map_or(0, |it| it.measured.ingested),
        queries: outcome
            .iterations
            .first()
            .map_or(0, |it| it.measured.queries),
        verdict: if outcome.registry.verdict.is_empty() {
            "NONE".into()
        } else {
            outcome.registry.verdict.clone()
        },
        valid: outcome.registry.verdict == "VALID" && outcome.publishable(),
    }
}

fn run_fleet(label: &str, kvps: u64, fleet: &FleetConfig) -> Row {
    eprintln!("running: {} agents ({label}) ...", fleet.agent_addrs.len());
    let runner = BenchmarkRunner::new(bench_config(kvps), PriceSheet::sample_cluster(3));
    let (cluster, dir) = cluster(label);
    let row = match run_networked(&runner, cluster, fleet) {
        Ok(outcome) => row_from("networked", fleet.agent_addrs.len(), &outcome),
        Err(e) => {
            eprintln!("FAIL: networked run could not start: {e}");
            std::process::exit(1);
        }
    };
    std::fs::remove_dir_all(dir).ok();
    row
}

fn main() {
    let mut scale = 20u64;
    let mut external: Option<Vec<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--agents" {
            let list = args.next().unwrap_or_else(|| {
                eprintln!("usage: controller [scale] [--agents addr,addr]");
                std::process::exit(2);
            });
            external = Some(list.split(',').map(|s| s.trim().to_string()).collect());
        } else if let Ok(s) = arg.parse::<u64>() {
            scale = s.max(1);
        } else {
            eprintln!("usage: controller [scale] [--agents addr,addr]");
            std::process::exit(2);
        }
    }
    let kvps = (1_000_000 / scale).max(16_000);
    println!("== Networked benchmark plane: {kvps} kvps per execution, 4 substations ==");

    // In-process baseline: the reference verdict and counters.
    eprintln!("running: in-process baseline ...");
    let runner = BenchmarkRunner::new(bench_config(kvps), PriceSheet::sample_cluster(3));
    let (base_cluster, base_dir) = cluster("inproc");
    let mut sut = GatewaySut::new(base_cluster);
    let baseline = runner.run(&mut sut);
    drop(sut);
    std::fs::remove_dir_all(base_dir).ok();
    let mut rows = vec![row_from("in-process", 0, &baseline)];

    match &external {
        Some(addrs) => {
            rows.push(run_fleet(
                "external",
                kvps,
                &FleetConfig::new(addrs.clone()),
            ));
        }
        None => {
            for n in [1usize, 2, 4] {
                let fleet = FleetConfig::new(
                    (0..n)
                        .map(|_| spawn_local_agent().expect("spawn agent").0)
                        .collect(),
                );
                rows.push(run_fleet(&format!("fleet{n}"), kvps, &fleet));
            }
        }
    }

    println!(
        "{:<12} {:>6} {:>12} {:>10} {:>8}  verdict",
        "mode", "agents", "IoTps", "ingested", "queries"
    );
    for r in &rows {
        println!(
            "{:<12} {:>6} {:>12.0} {:>10} {:>8}  {}",
            r.mode, r.agents, r.iotps, r.ingested, r.queries, r.verdict
        );
    }

    let base = &rows[0];
    let counters_match = rows[1..]
        .iter()
        .all(|r| r.ingested == base.ingested && r.queries == base.queries);
    let all_valid = rows.iter().all(|r| r.valid);
    println!("\nshape checks:");
    println!("  every plane reaches the same VALID verdict: {all_valid}");
    println!(
        "  networked counters match the in-process baseline ({} kvps, {} queries): {counters_match}",
        base.ingested, base.queries
    );

    write_artifact(kvps, &rows, counters_match);

    if !all_valid || !counters_match {
        eprintln!("FAIL: networked plane diverged from the in-process benchmark");
        std::process::exit(1);
    }
}

/// Writes the sweep summary to `$BENCH_NETPLANE_OUT` (default
/// `BENCH_netplane.json`) — the committed evidence artifact.
fn write_artifact(kvps: u64, rows: &[Row], counters_match: bool) {
    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"netplane_scaleout\",\n");
    let _ = writeln!(json, "  \"kvps_per_execution\": {kvps},");
    json.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"mode\": \"{}\", \"agents\": {}, \"iotps\": {:.1}, \
             \"ingested\": {}, \"queries\": {}, \"verdict\": \"{}\"}}",
            r.mode, r.agents, r.iotps, r.ingested, r.queries, r.verdict,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"counters_match_baseline\": {counters_match},");
    let _ = writeln!(
        json,
        "  \"all_valid\": {}\n}}",
        rows.iter().all(|r| r.valid)
    );
    let out = std::env::var_os("BENCH_NETPLANE_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_netplane.json"));
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
    println!("wrote {}", out.display());
}
