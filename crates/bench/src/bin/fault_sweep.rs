//! Fault sweep: IoTps degradation and degraded-run accounting under
//! injected cluster faults (crashes, transient errors, added latency).
//!
//! Each case starts a fresh 3-node in-process cluster with a seeded
//! [`gateway::FaultPlan`], drives one substation through the resilient
//! ingest path (bounded retries with backoff, replica failover, hinted
//! handoff), and reports throughput relative to the fault-free baseline
//! alongside the resilience counters and the run-validity verdict. The
//! process exits nonzero if any case goes INVALID, so CI can gate on it
//! directly.
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
use tpcx_iot::metrics::degraded_run_verdict;
use tpcx_iot::telemetry::{
    validate_sustained_rate, ClusterCounters, EngineCounters, MetricsRegistry, Phase,
    PhaseSnapshot, RateViolation, RunTelemetry, SustainedRateConfig,
};
use tpcx_iot::GatewayBackend;
use ycsb::measurement::Measurements;

struct SweepRow {
    label: String,
    iotps: f64,
    /// Throughput relative to the fault-free case (1.0 = no degradation).
    vs_baseline: f64,
    insert_retries: u64,
    insert_failures: u64,
    failover_reads: u64,
    under_replicated: u64,
    replayed_hints: u64,
    unavailable: u64,
    verdict: String,
    /// Per-case telemetry, exported to METRICS_EXPORT_DIR at the end.
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
    let measurements = Arc::new(Measurements::new());
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
        measurements,
        Some(&telemetry),
    );
    let snapshot = telemetry.snapshot();
    let violations = validate_sustained_rate(&snapshot.ingest_windows, &sustained);

    let iotps = report.ingested as f64 / report.elapsed_secs.max(1e-9);
    let resilience = cluster.resilience();
    let stats = cluster.stats();
    let persisted = stats.puts;
    // Per-sensor floor scaled down with the row count so short sweep runs
    // are judged by shape, not by wall-clock throughput.
    let validity = degraded_run_verdict(report.ingested, persisted, iotps / 200.0, 1.0);

    let row = SweepRow {
        label: label.to_string(),
        iotps,
        vs_baseline: 1.0,
        insert_retries: report.insert_retries,
        insert_failures: report.insert_failures,
        failover_reads: resilience.failover_reads,
        under_replicated: resilience.under_replicated_writes,
        replayed_hints: resilience.replayed_hints,
        unavailable: resilience.unavailable_errors,
        verdict: if validity.valid {
            validity.verdict().to_string()
        } else {
            format!("{} ({})", validity.verdict(), validity.reasons.join("; "))
        },
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
        "{:<34} {:>10} {:>6} {:>8} {:>6} {:>9} {:>8} {:>7} {:>7}  verdict",
        "case", "IoTps", "rel", "retries", "fail", "failover", "under-r", "replay", "unavail"
    );
    for r in rows {
        println!(
            "{:<34} {:>10.0} {:>6.2} {:>8} {:>6} {:>9} {:>8} {:>7} {:>7}  {}",
            r.label,
            r.iotps,
            r.vs_baseline,
            r.insert_retries,
            r.insert_failures,
            r.failover_reads,
            r.under_replicated,
            r.replayed_hints,
            r.unavailable,
            r.verdict,
        );
    }
}

fn main() {
    let scale = scale_arg(20);
    let kvps = (2_000_000 / scale.max(1)).max(20_000);
    println!("== Fault sweep: 3-node cluster, {kvps} kvps per case ==");

    let mut rows = vec![run_case("baseline (no faults)", kvps, None)];
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
    let crash = by_label("crash 50% of run");
    println!(
        "  primary crash forces failover reads + hinted writes: {} failovers, {} under-replicated ({})",
        crash.failover_reads,
        crash.under_replicated,
        crash.failover_reads > 0 && crash.under_replicated > 0
    );
    let ok = rows.iter().all(|r| r.verdict.starts_with("VALID"));
    println!("  resilient path keeps every degraded run valid: {ok}");
    let stalls = rows.iter().all(|r| r.violations.is_empty());
    println!("  no case ever stalled a full 1s window: {stalls}");

    println!("\nper-second ingest trace (crash 50% of run):");
    let crash_trace = &by_label("crash 50% of run").snapshot.ingest_windows;
    for (w, ops) in crash_trace.iter().enumerate() {
        println!("  window {w:>2}: {ops:>8} ops");
    }

    export_metrics(&rows);

    if !ok {
        eprintln!("FAIL: at least one fault case went INVALID");
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
    let mut valid = true;
    for r in rows {
        registry.add_phase(r.label.clone(), r.snapshot.clone(), r.violations.clone());
        registry.engine.accumulate(&r.engine);
        match registry.cluster.as_mut() {
            Some(total) => total.merge(&r.cluster),
            None => registry.cluster = Some(r.cluster.clone()),
        }
        valid &= r.verdict.starts_with("VALID");
    }
    registry.verdict = if valid { "VALID" } else { "INVALID" }.into();
    for r in rows.iter().filter(|r| !r.verdict.starts_with("VALID")) {
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
