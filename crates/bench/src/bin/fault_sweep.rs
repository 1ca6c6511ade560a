//! Fault and topology sweep: IoTps degradation and degraded-run
//! accounting under injected cluster faults (crashes, transient errors,
//! added latency) and under online reconfiguration (seeded region
//! splits, replica migration to a node added mid-run, graceful node
//! drain, alone and compounded with a crash — "elastic sharding under
//! fire").
//!
//! Each case starts a fresh 3-node in-process cluster with a seeded
//! [`gateway::FaultPlan`], drives one substation through the resilient
//! ingest path (bounded retries with backoff, replica failover, hinted
//! handoff, epoch fencing), and reports throughput relative to the
//! fault-free, static-topology baseline alongside the resilience and
//! topology counters and the run-validity verdict (which folds in the
//! routing consistency check). The process exits nonzero if any case
//! goes INVALID, so CI can gate on it directly.
//!
//! ```sh
//! cargo run --release -p bench --bin fault_sweep [scale]
//! ```

use bench::scale_arg;
use gateway::cluster::{Cluster, ClusterConfig};
use gateway::FaultPlan;
use iotkv::Options;
use std::sync::Arc;
use std::time::Duration;
use tpcx_iot::driver::{run_driver_with_telemetry, DriverConfig};
use tpcx_iot::metrics::{apply_topology_check, degraded_run_verdict};
use tpcx_iot::telemetry::{
    validate_sustained_rate, ClusterCounters, MetricsRegistry, Phase, PhaseSnapshot, RateViolation,
    RunTelemetry, SustainedRateConfig,
};
use tpcx_iot::GatewayBackend;

struct SweepRow {
    label: String,
    iotps: f64,
    /// Throughput relative to the baseline case (1.0 = no degradation).
    vs_baseline: f64,
    insert_retries: u64,
    insert_failures: u64,
    valid: bool,
    verdict: String,
    /// Per-case telemetry, exported to METRICS_EXPORT_DIR at the end.
    snapshot: PhaseSnapshot,
    violations: Vec<RateViolation>,
    /// Resilience, topology and engine counters at the end of the case.
    cluster: ClusterCounters,
}

fn run_case(label: &str, kvps: u64, plan: Option<FaultPlan>) -> SweepRow {
    let slug: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let dir = std::env::temp_dir().join(format!("fault-sweep-{}-{slug}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = ClusterConfig::new(&dir, 3);
    // 1 KB values: a tiny memtable would flush thousands of times per
    // case; give the engine room so the sweep measures the fault path.
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
    // 1 s throughput windows; a window below 1 op/s (i.e. a dead stop)
    // flags the case. Faults here degrade but never halt ingestion.
    let sustained = SustainedRateConfig {
        window_nanos: 1_000_000_000,
        min_window_rate: 1.0,
    };
    let telemetry = RunTelemetry::new(Phase::Measured, sustained.window_nanos);
    let report = run_driver_with_telemetry(
        &dc,
        Arc::clone(&cluster) as Arc<dyn GatewayBackend>,
        &telemetry,
    );
    let snapshot = telemetry.snapshot();
    let violations = validate_sustained_rate(&snapshot.ingest_windows, &sustained);

    let iotps = report.ingested as f64 / report.elapsed_secs.max(1e-9);
    let stats = cluster.stats();
    // Per-sensor floor scaled down with the row count so short sweep runs
    // are judged by shape, not by wall-clock throughput; the topology
    // check then guards routing health.
    let mut validity = degraded_run_verdict(report.ingested, stats.puts, iotps / 200.0, 1.0);
    apply_topology_check(&mut validity, Some(&stats));

    let row = SweepRow {
        label: label.to_string(),
        iotps,
        vs_baseline: 1.0,
        insert_retries: report.insert_retries,
        insert_failures: report.insert_failures,
        valid: validity.valid,
        verdict: if validity.valid {
            validity.verdict().to_string()
        } else {
            format!("{} ({})", validity.verdict(), validity.reasons.join("; "))
        },
        snapshot,
        violations,
        cluster: stats,
    };
    drop(cluster);
    std::fs::remove_dir_all(&dir).ok();
    row
}

fn print_rows(rows: &[SweepRow]) {
    println!(
        "{:<42} {:>10} {:>6} {:>8} {:>6} {:>9} {:>8} {:>7} {:>7} {:>7} {:>6} {:>6} {:>7} {:>6} {:>6}  verdict",
        "case", "IoTps", "rel", "retries", "fail", "failover", "under-r", "replay", "unavail",
        "splits", "migr+", "migr-", "drains", "stale", "epoch"
    );
    for r in rows {
        let res = &r.cluster.resilience;
        println!(
            "{:<42} {:>10.0} {:>6.2} {:>8} {:>6} {:>9} {:>8} {:>7} {:>7} {:>7} {:>6} {:>6} {:>7} {:>6} {:>6}  {}",
            r.label,
            r.iotps,
            r.vs_baseline,
            r.insert_retries,
            r.insert_failures,
            res.failover_reads,
            res.under_replicated_writes,
            res.replayed_hints,
            res.unavailable_errors,
            res.splits,
            res.migrations_completed,
            res.migrations_aborted,
            res.drains,
            res.stale_route_retries,
            r.cluster.epoch,
            r.verdict,
        );
    }
}

fn main() {
    let scale = scale_arg(20);
    let kvps = (2_000_000 / scale.max(1)).max(20_000);
    println!("== Fault and topology sweep: 3-node cluster, {kvps} kvps per case ==");

    let mut rows = vec![run_case(
        "baseline (no faults, static topology)",
        kvps,
        None,
    )];
    let baseline = rows[0].iotps;

    // Transient-error intensity: error bursts on a growing fraction of ops.
    for fraction in [0.05, 0.2, 0.5] {
        rows.push(run_case(
            &format!("transient {:.0}% (burst<=2)", fraction * 100.0),
            kvps,
            Some(FaultPlan::quiet(7).with_transient(fraction, 2)),
        ));
    }

    // Crash intensity: the region primary goes down for a growing share
    // of the run (hinted handoff keeps writes acked; reads fail over).
    for (label, down_for) in [
        ("crash 10% of run", Some(kvps / 10)),
        ("crash 50% of run", Some(kvps / 2)),
        ("crash until end of run", None),
    ] {
        rows.push(run_case(
            label,
            kvps,
            Some(FaultPlan::quiet(7).with_crash(0, kvps / 20, down_for)),
        ));
    }

    // Added latency on one node: every op touching it pays the tax.
    for micros in [50u64, 200] {
        rows.push(run_case(
            &format!("slow node +{micros}us"),
            kvps,
            Some(FaultPlan::quiet(7).with_latency(Duration::from_micros(micros), vec![0])),
        ));
    }

    // Compound: crash + transient errors together.
    rows.push(run_case(
        "crash 50% + transient 20%",
        kvps,
        Some(
            FaultPlan::quiet(7)
                .with_crash(0, kvps / 20, Some(kvps / 2))
                .with_transient(0.2, 2),
        ),
    ));

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

    // The full elastic scenario: splits, a node add with migration, and
    // a drain — compounded with a primary crash window.
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
    let t50 = by_label("transient 50%");
    let t5 = by_label("transient 5%");
    println!(
        "  heavier transient plans retry more: 50%={} > 5%={} ({})",
        t50.insert_retries,
        t5.insert_retries,
        t50.insert_retries > t5.insert_retries
    );
    let crash = &by_label("crash 50% of run").cluster.resilience;
    println!(
        "  primary crash forces failover reads + hinted writes: {} failovers, {} under-replicated ({})",
        crash.failover_reads,
        crash.under_replicated_writes,
        crash.failover_reads > 0 && crash.under_replicated_writes > 0
    );
    let hot = &by_label(&format!("every {} writes", kvps / 16)).cluster;
    let cool = &by_label(&format!("every {} writes", kvps / 4)).cluster;
    println!(
        "  hotter thresholds split more: 1/16={} > 1/4={} ({})",
        hot.resilience.splits,
        cool.resilience.splits,
        hot.resilience.splits > cool.resilience.splits
    );
    let add = &by_label("node add").cluster;
    println!(
        "  node add lands a live migration: {} completed, epoch {} ({})",
        add.resilience.migrations_completed,
        add.epoch,
        add.resilience.migrations_completed >= 1
    );
    let fire = &by_label("elastic under fire").cluster.resilience;
    println!(
        "  compound case reconfigures under fire: {} splits, {} migrations, {} drains ({})",
        fire.splits,
        fire.migrations_completed,
        fire.drains,
        fire.splits >= 1 && fire.migrations_completed >= 1 && fire.drains >= 1
    );
    let ok = rows.iter().all(|r| r.valid);
    println!("  every faulted or reconfigured run stays VALID with consistent routing: {ok}");
    let stalls = rows.iter().all(|r| r.violations.is_empty());
    println!("  no case ever stalled a full 1s window: {stalls}");

    println!("\nper-second ingest trace (crash 50% of run):");
    let crash_trace = &by_label("crash 50% of run").snapshot.ingest_windows;
    for (w, ops) in crash_trace.iter().enumerate() {
        println!("  window {w:>2}: {ops:>8} ops");
    }

    export_metrics(&rows);

    if !ok {
        eprintln!("FAIL: at least one fault or topology case went INVALID");
        std::process::exit(1);
    }
}

/// Writes the unified registry to `$METRICS_EXPORT_DIR/fault_sweep.json`
/// and `.prom` (CI uploads both as build artifacts). No-op when the
/// variable is unset.
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
    for r in rows {
        registry.add_phase(r.label.clone(), r.snapshot.clone(), r.violations.clone());
        registry.engine.accumulate(&r.cluster.engine);
        match registry.cluster.as_mut() {
            Some(total) => total.merge(&r.cluster),
            None => registry.cluster = Some(r.cluster.clone()),
        }
    }
    let valid = rows.iter().all(|r| r.valid);
    registry.verdict = if valid { "VALID" } else { "INVALID" }.into();
    for r in rows.iter().filter(|r| !r.valid) {
        registry
            .verdict_reasons
            .push(format!("{}: {}", r.label, r.verdict));
    }
    for (name, content) in [
        ("fault_sweep.json", registry.to_json()),
        ("fault_sweep.prom", registry.to_prometheus()),
    ] {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("exported {}", path.display());
    }
}
