//! Topology sweep: IoTps and zero-acked-loss accounting under online
//! reconfiguration — seeded region splits, replica migration to a node
//! added mid-run, and graceful node drain, alone and compounded with a
//! crash ("elastic sharding under fire").
//!
//! Each case starts a fresh 3-node in-process cluster with a seeded
//! [`gateway::FaultPlan`] carrying topology events, drives one
//! substation through the resilient ingest path, and reports throughput
//! relative to the reconfiguration-free baseline alongside the topology
//! counters and the run-validity verdict (which folds in the routing
//! consistency check). The process exits nonzero if any case goes
//! INVALID, so CI can gate on it directly.
//!
//! ```sh
//! cargo run --release -p bench --bin bench_topology [scale]
//! ```

use bench::scale_arg;
use gateway::cluster::{Cluster, ClusterConfig};
use gateway::FaultPlan;
use iotkv::Options;
use std::sync::Arc;
use tpcx_iot::driver::{run_driver_with_telemetry, DriverConfig};
use tpcx_iot::metrics::{apply_topology_check, degraded_run_verdict};
use tpcx_iot::telemetry::{
    validate_sustained_rate, ClusterCounters, EngineCounters, MetricsRegistry, Phase,
    PhaseSnapshot, RateViolation, RunTelemetry, SustainedRateConfig,
};
use tpcx_iot::GatewayBackend;
use ycsb::measurement::Measurements;

struct SweepRow {
    label: String,
    iotps: f64,
    /// Throughput relative to the reconfiguration-free case.
    vs_baseline: f64,
    splits: u64,
    migrations_completed: u64,
    migrations_aborted: u64,
    drains: u64,
    stale_route_retries: u64,
    epoch: u64,
    verdict: String,
    valid: bool,
    snapshot: PhaseSnapshot,
    violations: Vec<RateViolation>,
    engine: EngineCounters,
    cluster: ClusterCounters,
}

fn run_case(label: &str, kvps: u64, plan: Option<FaultPlan>) -> SweepRow {
    let slug: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let dir = std::env::temp_dir().join(format!("bench-topology-{}-{slug}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = ClusterConfig::new(&dir, 3);
    config.storage = Options {
        memtable_bytes: 8 << 20,
        block_bytes: 4 << 10,
        l1_bytes: 32 << 20,
        table_bytes: 8 << 20,
        ..Options::default()
    };
    config.fault_plan = plan;
    let cluster = Arc::new(Cluster::start(config).expect("cluster starts"));

    eprintln!("running: {label} ...");
    let mut dc = DriverConfig::new(0, kvps);
    dc.threads = 4;
    let measurements = Arc::new(Measurements::new());
    let sustained = SustainedRateConfig {
        window_nanos: 1_000_000_000,
        min_window_rate: 1.0,
    };
    let telemetry = RunTelemetry::new(Phase::Measured, sustained.window_nanos);
    let report = run_driver_with_telemetry(
        &dc,
        Arc::clone(&cluster) as Arc<dyn GatewayBackend>,
        measurements,
        Some(&telemetry),
    );
    let snapshot = telemetry.snapshot();
    let violations = validate_sustained_rate(&snapshot.ingest_windows, &sustained);

    let iotps = report.ingested as f64 / report.elapsed_secs.max(1e-9);
    let stats = cluster.stats();
    // Per-sensor floor scaled down with the row count so short sweep runs
    // are judged by shape; the topology check then guards routing health.
    let mut validity = degraded_run_verdict(report.ingested, stats.puts, iotps / 200.0, 1.0);
    apply_topology_check(&mut validity, Some(&stats));

    let row = SweepRow {
        label: label.to_string(),
        iotps,
        vs_baseline: 1.0,
        splits: stats.resilience.splits,
        migrations_completed: stats.resilience.migrations_completed,
        migrations_aborted: stats.resilience.migrations_aborted,
        drains: stats.resilience.drains,
        stale_route_retries: stats.resilience.stale_route_retries,
        epoch: stats.epoch,
        verdict: if validity.valid {
            validity.verdict().to_string()
        } else {
            format!("{} ({})", validity.verdict(), validity.reasons.join("; "))
        },
        valid: validity.valid,
        snapshot,
        violations,
        engine: stats.engine,
        cluster: stats,
    };
    drop(cluster);
    std::fs::remove_dir_all(&dir).ok();
    row
}

fn print_rows(rows: &[SweepRow]) {
    println!(
        "{:<34} {:>10} {:>6} {:>7} {:>7} {:>7} {:>7} {:>7} {:>6}  verdict",
        "case", "IoTps", "rel", "splits", "migr+", "migr-", "drains", "stale", "epoch"
    );
    for r in rows {
        println!(
            "{:<34} {:>10.0} {:>6.2} {:>7} {:>7} {:>7} {:>7} {:>7} {:>6}  {}",
            r.label,
            r.iotps,
            r.vs_baseline,
            r.splits,
            r.migrations_completed,
            r.migrations_aborted,
            r.drains,
            r.stale_route_retries,
            r.epoch,
            r.verdict,
        );
    }
}

fn main() {
    let scale = scale_arg(20);
    let kvps = (2_000_000 / scale.max(1)).max(20_000);
    println!("== Topology sweep: 3-node cluster, {kvps} kvps per case ==");

    let mut rows = vec![run_case("baseline (static topology)", kvps, None)];
    let baseline = rows[0].iotps;

    // Write-rate threshold splits: the hotter the threshold, the more
    // online splits the run absorbs.
    for threshold in [kvps / 4, kvps / 16] {
        rows.push(run_case(
            &format!("threshold split every {threshold} writes"),
            kvps,
            Some(FaultPlan::quiet(11).with_split_threshold(threshold)),
        ));
    }

    // A planned split at an explicit key, mid-run.
    rows.push(run_case(
        "planned split at midpoint",
        kvps,
        Some(FaultPlan::quiet(11).with_split(kvps / 2, b"PSS-000000|pmu-050")),
    ));

    // Node add: node 3 arrives mid-run and a replica migrates onto it
    // while ingest continues.
    rows.push(run_case(
        "node add + live migration",
        kvps,
        Some(FaultPlan::quiet(11).with_node_add(kvps / 3)),
    ));

    // Graceful drain of a replica-holding node.
    rows.push(run_case(
        "drain node 1 mid-run",
        kvps,
        Some(
            FaultPlan::quiet(11)
                .with_node_add(kvps / 4)
                .with_drain(1, kvps / 2),
        ),
    ));

    // The full acceptance scenario: splits, a node add with migration,
    // and a drain — compounded with a primary crash window.
    rows.push(run_case(
        "elastic under fire (split+add+drain+crash)",
        kvps,
        Some(
            FaultPlan::quiet(11)
                .with_split_threshold(kvps / 8)
                .with_node_add(kvps / 4)
                .with_drain(1, kvps / 2)
                .with_crash(2, kvps / 3, Some(kvps / 10)),
        ),
    ));

    for r in &mut rows {
        r.vs_baseline = r.iotps / baseline.max(1e-9);
    }
    print_rows(&rows);

    println!("\nshape checks:");
    let by_label = |needle: &str| {
        rows.iter()
            .find(|r| r.label.contains(needle))
            .expect("case ran")
    };
    let hot = by_label(&format!("every {} writes", kvps / 16));
    let cool = by_label(&format!("every {} writes", kvps / 4));
    println!(
        "  hotter thresholds split more: 1/16={} > 1/4={} ({})",
        hot.splits,
        cool.splits,
        hot.splits > cool.splits
    );
    let add = by_label("node add");
    println!(
        "  node add lands a live migration: {} completed, epoch {} ({})",
        add.migrations_completed,
        add.epoch,
        add.migrations_completed >= 1
    );
    let fire = by_label("elastic under fire");
    println!(
        "  compound case reconfigures under fire: {} splits, {} migrations, {} drains ({})",
        fire.splits,
        fire.migrations_completed,
        fire.drains,
        fire.splits >= 1 && fire.migrations_completed >= 1 && fire.drains >= 1
    );
    let ok = rows.iter().all(|r| r.valid);
    println!("  every reconfigured run stays VALID with consistent routing: {ok}");

    write_artifact(kvps, &rows);
    export_metrics(&rows);

    if !ok {
        eprintln!("FAIL: at least one topology case went INVALID");
        std::process::exit(1);
    }
}

/// Writes the sweep summary to `$BENCH_TOPOLOGY_OUT` (default
/// `BENCH_topology.json` in the working directory) — the committed
/// evidence artifact, like `BENCH_ingest.json` for the batched path.
fn write_artifact(kvps: u64, rows: &[SweepRow]) {
    use std::fmt::Write as _;
    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"topology_sweep\",\n");
    let _ = writeln!(json, "  \"kvps_per_case\": {kvps},");
    json.push_str("  \"cases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"case\": \"{}\", \"iotps\": {:.1}, \"vs_baseline\": {:.2}, \
             \"splits\": {}, \"migrations_completed\": {}, \"migrations_aborted\": {}, \
             \"drains\": {}, \"stale_route_retries\": {}, \"epoch\": {}, \
             \"topology_ok\": {}, \"verdict\": \"{}\"}}",
            r.label,
            r.iotps,
            r.vs_baseline,
            r.splits,
            r.migrations_completed,
            r.migrations_aborted,
            r.drains,
            r.stale_route_retries,
            r.epoch,
            r.cluster.topology_ok,
            if r.valid { "VALID" } else { "INVALID" },
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"all_valid\": {}\n}}",
        rows.iter().all(|r| r.valid)
    );
    let out = std::env::var_os("BENCH_TOPOLOGY_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_topology.json"));
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

/// Writes the unified registry to `$METRICS_EXPORT_DIR/bench_topology.json`
/// and `.prom`. No-op when the variable is unset.
fn export_metrics(rows: &[SweepRow]) {
    let Some(dir) = std::env::var_os("METRICS_EXPORT_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut registry = MetricsRegistry::new();
    let mut valid = true;
    for r in rows {
        registry.add_phase(r.label.clone(), r.snapshot.clone(), r.violations.clone());
        registry.engine.accumulate(&r.engine);
        match registry.cluster.as_mut() {
            Some(total) => total.merge(&r.cluster),
            None => registry.cluster = Some(r.cluster.clone()),
        }
        valid &= r.valid;
    }
    registry.verdict = if valid { "VALID" } else { "INVALID" }.into();
    for r in rows.iter().filter(|r| !r.valid) {
        registry
            .verdict_reasons
            .push(format!("{}: {}", r.label, r.verdict));
    }
    for (name, content) in [
        ("bench_topology.json", registry.to_json()),
        ("bench_topology.prom", registry.to_prometheus()),
    ] {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("exported {}", path.display());
    }
}
