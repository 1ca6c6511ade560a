//! Golden-snapshot tests for the telemetry exports and the FDR's
//! resilience section.
//!
//! Two determinism regimes:
//!
//! * The JSON / Prometheus goldens are built from *synthetic* seeded
//!   recorder input — no wall clock anywhere — so the export must be
//!   byte-identical on every machine, forever. Any byte drift means the
//!   export format changed and the golden must be consciously updated.
//! * The FDR golden runs a real single-threaded benchmark under a fixed
//!   seed and fault plan, then compares only the deterministic lines
//!   (resilience counters, validity verdicts, snapshot summary) —
//!   latencies and elapsed times are wall-clock and excluded.
//!
//! Regenerate both with `UPDATE_GOLDEN=1 cargo test --test golden_snapshot`.

use simkit::rng::Stream;
use std::path::PathBuf;
use std::time::Duration;
use tpcx_iot::backend::ResilienceCounters;
use tpcx_iot::pricing::PriceSheet;
use tpcx_iot::report::full_disclosure_report;
use tpcx_iot::rules::Rules;
use tpcx_iot::runner::{BenchmarkConfig, BenchmarkRunner, GatewaySut};
use tpcx_iot::telemetry::{
    validate_json, validate_prometheus, validate_sustained_rate, ClusterCounters, EngineCounters,
    MetricsRegistry, Phase, SustainedRateConfig, ThreadRecorder, DEFAULT_WINDOW_NANOS,
};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compares `actual` against the committed golden, or rewrites the
/// golden when `UPDATE_GOLDEN=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden {name} drifted; if the change is intentional regenerate \
         with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// A registry built purely from seeded synthetic samples: two phases
/// with multi-window throughput (one window deliberately starved so the
/// violation path is exercised), engine and cluster counters, and an
/// INVALID verdict.
fn synthetic_registry() -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    let sustained = SustainedRateConfig {
        window_nanos: DEFAULT_WINDOW_NANOS,
        min_window_rate: 400.0,
    };
    for (label, phase, seed) in [
        ("iter1/warmup", Phase::Warmup, 0xA11CE),
        ("iter1/measured", Phase::Measured, 0xB0B),
    ] {
        let mut rec = ThreadRecorder::new(DEFAULT_WINDOW_NANOS);
        let mut rng = Stream::new(seed);
        // ~4.5 s of virtual ingestion; window 2 is starved (a simulated
        // stall) to below the 400 ops floor.
        for i in 0..3_000u64 {
            let t = i * 1_500_000; // 1.5 ms apart
            let in_stall = (2_000_000_000..3_000_000_000).contains(&t);
            if in_stall && i % 50 != 0 {
                continue;
            }
            let latency = 20_000 + rng.next_u64() % 180_000;
            let retries = u64::from(rng.next_u64().is_multiple_of(10));
            rec.record_ingest(t, latency, retries);
            // Interleave batched flushes so the batch class and its
            // windowed kvps credit appear in both exports. The cadence
            // never lands inside the stall (i % 3200 ≠ 0 there), so the
            // starved window stays below the floor.
            if i % 640 == 0 {
                let fill = 16 + rng.next_u64() % 17;
                rec.record_batch(
                    t,
                    150_000 + rng.next_u64() % 450_000,
                    fill,
                    u64::from(i == 0),
                );
            }
            if i % 400 == 0 {
                rec.record_query(t, 300_000 + rng.next_u64() % 900_000, 0);
                // Every query streams its windows; the scan class records
                // the fold latency and the rows-streamed credit.
                rec.record_scan(
                    t,
                    250_000 + rng.next_u64() % 750_000,
                    30 + rng.next_u64() % 170,
                );
            }
            if i % 999 == 0 {
                rec.record_failed(2_500_000 + rng.next_u64() % 500_000);
            }
        }
        let snap = rec.snapshot(phase);
        let violations = if phase == Phase::Measured {
            validate_sustained_rate(&snap.ingest_windows, &sustained)
        } else {
            Vec::new()
        };
        registry.add_phase(label, snap, violations);
    }
    registry.engine = EngineCounters {
        wal_syncs: 128,
        flushes: 12,
        compactions: 3,
        bytes_flushed: 24 << 20,
        bytes_compacted: 9 << 20,
        cache_hits: 51_337,
        cache_misses: 1_021,
        commit_groups: 2_048,
        commit_batches: 2_900,
        stalls: 1,
        table_count: 17,
        ..Default::default()
    };
    registry.cluster = Some(ClusterCounters {
        puts: 5_590,
        gets: 0,
        scans: 16,
        batched_puts: 4_096,
        put_batches: 256,
        replica_writes: 16_770,
        rows_streamed: 2_512,
        regions: 6,
        node_writes: vec![1_900, 1_845, 1_845],
        node_reads: vec![16, 0, 0],
        resilience: ResilienceCounters {
            failover_reads: 4,
            under_replicated_writes: 37,
            hinted_writes: 37,
            replayed_hints: 37,
            unavailable_errors: 0,
            scan_retries: 2,
            scan_resumes: 1,
            splits: 2,
            drains: 1,
            migrations_started: 3,
            migrations_completed: 2,
            migrations_aborted: 1,
            migration_throttled: 7,
            stale_route_retries: 5,
        },
        epoch: 6,
        topology_ok: true,
        ..Default::default()
    });
    registry.verdict = "INVALID".into();
    registry
        .verdict_reasons
        .push("iteration 1: sustained-rate violation: 1 window(s) below the 400 ops floor".into());
    registry
}

#[test]
fn json_export_matches_golden() {
    let registry = synthetic_registry();
    let json = registry.to_json();
    validate_json(&json).expect("snapshot must be well-formed JSON");
    // Two independent constructions must agree byte-for-byte before we
    // even consult the golden — catches any latent nondeterminism.
    assert_eq!(json, synthetic_registry().to_json());
    assert_golden("metrics_snapshot.json", &json);
}

#[test]
fn prometheus_export_matches_golden() {
    let registry = synthetic_registry();
    let prom = registry.to_prometheus();
    validate_prometheus(&prom).expect("exposition must parse");
    assert_eq!(prom, synthetic_registry().to_prometheus());
    assert_golden("metrics_snapshot.prom", &prom);
}

/// The deterministic subset of the FDR for a seeded single-threaded
/// fault run: resilience counters, validity verdicts, and the metrics
/// snapshot summary. Wall-clock lines (latency, elapsed) are excluded.
fn fdr_resilience_lines(fdr: &str) -> String {
    fdr.lines()
        .filter(|line| {
            line.starts_with("resilience:")
                || line.starts_with("run validity:")
                || line.starts_with("  - ")
                || line.starts_with("phases exported:")
                || line.starts_with("sustained-rate check:")
                || line.starts_with("overall verdict:")
        })
        .flat_map(|line| [line, "\n"])
        .collect()
}

#[test]
fn fdr_resilience_section_matches_golden() {
    let dir = std::env::temp_dir().join(format!("tpcx-golden-fdr-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut cluster_config = gateway::ClusterConfig::new(&dir, 3);
    cluster_config.storage = iotkv::Options {
        memtable_bytes: 2 << 20,
        block_bytes: 4 << 10,
        l1_bytes: 8 << 20,
        table_bytes: 2 << 20,
        ..iotkv::Options::default()
    };
    // Crash + transient bursts: the same schedule re-arms every purge,
    // so both iterations degrade identically and deterministically.
    cluster_config.fault_plan = Some(
        gateway::FaultPlan::quiet(77)
            .with_transient(0.2, 2)
            .with_crash(0, 300, Some(600)),
    );
    let mut sut = GatewaySut::new(gateway::Cluster::start(cluster_config).unwrap());

    let mut config = BenchmarkConfig::new(1, 2_000);
    // Single driver thread: the cluster's op counter sees one
    // deterministic interleaving, so every counter is reproducible.
    config.threads_per_driver = 1;
    config.seed = 0xFD_5EED;
    config.rules = Rules {
        min_elapsed_secs: 0.0,
        min_per_sensor_rate: 0.0,
        min_rows_per_query: 0.0,
    };
    // A wall-clock retry deadline could truncate the retry schedule on a
    // slow machine and skew the counters; make it effectively infinite.
    config.retry.deadline = Duration::from_secs(3_600);
    let sheet = PriceSheet::sample_cluster(3);
    let runner = BenchmarkRunner::new(config.clone(), sheet.clone());
    let outcome = runner.run(&mut sut);
    assert_eq!(outcome.iterations.len(), 2);

    let fdr = full_disclosure_report(&outcome, &config, &sheet, &[]);
    assert_golden("fdr_resilience.txt", &fdr_resilience_lines(&fdr));

    // The registry agrees with the per-iteration verdicts it summarizes.
    assert_eq!(outcome.registry.verdict, "VALID");
    assert_eq!(outcome.registry.phases.len(), 4);
    validate_json(&outcome.registry.to_json()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
