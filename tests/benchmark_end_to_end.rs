//! The full benchmark lifecycle against the real gateway cluster — the
//! complete Fig 6 flow at laptop scale.

use tpcx_iot::checks::KitManifest;
use tpcx_iot::pricing::PriceSheet;
use tpcx_iot::report::{executive_summary, full_disclosure_report};
use tpcx_iot::rules::Rules;
use tpcx_iot::runner::{BenchmarkConfig, BenchmarkRunner, GatewaySut};
use tpcx_iot::telemetry::SustainedRateConfig;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tpcx-e2e-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn sut(dir: &std::path::Path, nodes: usize) -> GatewaySut {
    let mut config = gateway::ClusterConfig::new(dir, nodes);
    // 1 KB values at tens of thousands of rows: a tiny memtable would
    // flush thousands of times; a 2 MiB budget still exercises several
    // flush/compaction cycles per run while keeping the test quick.
    config.storage = iotkv::Options {
        memtable_bytes: 2 << 20,
        block_bytes: 4 << 10,
        l1_bytes: 8 << 20,
        table_bytes: 2 << 20,
        ..iotkv::Options::default()
    };
    GatewaySut::new(gateway::Cluster::start(config).unwrap())
}

fn lab_rules() -> Rules {
    Rules {
        min_elapsed_secs: 0.0,
        min_per_sensor_rate: 0.0,
        min_rows_per_query: 0.0,
    }
}

#[test]
fn two_iterations_with_cleanup_produce_metrics() {
    let dir = tmpdir("flow");
    let mut sut = sut(&dir, 3);
    let mut config = BenchmarkConfig::new(2, 16_000);
    config.threads_per_driver = 2;
    config.rules = lab_rules();
    let sheet = PriceSheet::sample_cluster(3);
    let runner = BenchmarkRunner::new(config.clone(), sheet.clone());

    let outcome = runner.run(&mut sut);
    assert!(
        outcome.prerequisite_checks.iter().all(|c| c.passed),
        "{:?}",
        outcome.prerequisite_checks
    );
    assert_eq!(outcome.iterations.len(), 2);
    for it in &outcome.iterations {
        assert_eq!(it.warmup.ingested, 16_000);
        assert_eq!(it.measured.ingested, 16_000);
        assert!(it.data_check.passed, "{}", it.data_check.detail);
        assert!(it.measured.queries > 0, "queries ran concurrently");
        assert!(it.measured.query_latency.count > 0);
    }
    let metrics = outcome.metrics.as_ref().expect("metrics");
    assert!(metrics.iotps > 0.0);
    assert!(metrics.price_per_iotps > 0.0);
    assert_eq!(metrics.availability_date, "2017-05-20");
    assert!(outcome.publishable());

    // Reports render.
    let es = executive_summary(&outcome, &config, &sheet);
    assert!(es.contains("IoTps"));
    let fdr = full_disclosure_report(&outcome, &config, &sheet, &[]);
    assert!(fdr.contains("Iteration 2"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn file_check_gates_the_run() {
    let kit_dir = tmpdir("kit");
    std::fs::create_dir_all(&kit_dir).unwrap();
    std::fs::write(kit_dir.join("tpcx-iot.sh"), "#!/bin/sh\n").unwrap();
    let manifest = KitManifest::fingerprint(&kit_dir).unwrap();

    // Pristine kit: run proceeds.
    let data_dir = tmpdir("gate-ok");
    let mut s = sut(&data_dir, 2);
    let mut config = BenchmarkConfig::new(1, 2_000);
    config.threads_per_driver = 1;
    config.rules = lab_rules();
    // A 2-node cluster replicates to all nodes; the spec's 3-way floor
    // caps at the node count (minimum publishable configuration is 2).
    config.required_replication = 2;
    config.kit = Some((kit_dir.clone(), manifest.clone()));
    let outcome = BenchmarkRunner::new(config.clone(), PriceSheet::sample_cluster(2)).run(&mut s);
    assert_eq!(outcome.iterations.len(), 2);
    std::fs::remove_dir_all(&data_dir).ok();

    // Tampered kit: run aborts before any iteration.
    std::fs::write(kit_dir.join("tpcx-iot.sh"), "#!/bin/sh\nrm -rf /\n").unwrap();
    let data_dir = tmpdir("gate-bad");
    let mut s = sut(&data_dir, 2);
    let outcome = BenchmarkRunner::new(config, PriceSheet::sample_cluster(2)).run(&mut s);
    assert!(outcome.iterations.is_empty());
    assert!(outcome.metrics.is_none());
    assert!(outcome
        .prerequisite_checks
        .iter()
        .any(|c| c.name == "file check" && !c.passed));
    std::fs::remove_dir_all(&data_dir).ok();
    std::fs::remove_dir_all(&kit_dir).ok();
}

#[test]
fn iterations_are_independent_after_cleanup() {
    // If cleanup failed to purge, the second iteration's data check
    // (expected == 2 × total) would fail because counts accumulate.
    let dir = tmpdir("independent");
    let mut s = sut(&dir, 2);
    let mut config = BenchmarkConfig::new(1, 5_000);
    config.threads_per_driver = 2;
    config.rules = lab_rules();
    config.required_replication = 2;
    let outcome = BenchmarkRunner::new(config, PriceSheet::sample_cluster(2)).run(&mut s);
    assert_eq!(outcome.iterations.len(), 2);
    assert!(
        outcome.iterations[1].data_check.passed,
        "second iteration data check: {}",
        outcome.iterations[1].data_check.detail
    );
    std::fs::remove_dir_all(dir).ok();
}

mod sustained_rate {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;
    use tpcx_iot::backend::{BackendResult, GatewayBackend, MemBackend};
    use tpcx_iot::runner::SystemUnderTest;

    /// Delegates to an in-memory backend but sleeps once, when the
    /// cumulative insert count crosses `stall_at` — an injected ingest
    /// stall invisible to end-of-run averages.
    struct StallingBackend {
        inner: Arc<MemBackend>,
        inserts: Arc<AtomicU64>,
        stall_at: u64,
        stall: Duration,
    }

    impl GatewayBackend for StallingBackend {
        fn insert(&self, key: &[u8], value: &[u8]) -> BackendResult<()> {
            if self.inserts.fetch_add(1, Ordering::Relaxed) + 1 == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.inner.insert(key, value)
        }

        fn scan_fold(
            &self,
            start: &[u8],
            end: &[u8],
            visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
        ) -> BackendResult<u64> {
            self.inner.scan_fold(start, end, visit)
        }

        fn replication_factor(&self) -> usize {
            self.inner.replication_factor()
        }

        fn ingested_count(&self) -> u64 {
            self.inner.ingested_count()
        }
    }

    struct StallSut {
        inner: Arc<MemBackend>,
        /// Shared across cleanups so the stall fires exactly once, at a
        /// chosen point of the whole benchmark (not per iteration).
        inserts: Arc<AtomicU64>,
        stall_at: u64,
        stall: Duration,
    }

    impl StallSut {
        fn new(stall_at: u64, stall: Duration) -> StallSut {
            StallSut {
                inner: Arc::new(MemBackend::new()),
                inserts: Arc::new(AtomicU64::new(0)),
                stall_at,
                stall,
            }
        }
    }

    impl SystemUnderTest for StallSut {
        fn backend(&self) -> Arc<dyn GatewayBackend> {
            Arc::new(StallingBackend {
                inner: Arc::clone(&self.inner),
                inserts: Arc::clone(&self.inserts),
                stall_at: self.stall_at,
                stall: self.stall,
            })
        }
        fn cleanup(&mut self) -> Result<(), String> {
            self.inner = Arc::new(MemBackend::new());
            Ok(())
        }
        fn describe(&self) -> String {
            "in-memory SUT with injected ingest stall".into()
        }
    }

    const TOTAL_KVPS: u64 = 20_000;

    fn config() -> BenchmarkConfig {
        let mut config = BenchmarkConfig::new(1, TOTAL_KVPS);
        config.threads_per_driver = 2;
        config.rules = lab_rules();
        // Any full 1 s window under 20 successful inserts/s trips the
        // validator — orders of magnitude below the steady in-memory
        // rate, so only a genuine stall can violate it.
        config.sustained = SustainedRateConfig {
            window_nanos: 1_000_000_000,
            min_window_rate: 20.0,
        };
        config
    }

    /// A 10 s mid-run stall must trip the sustained-rate validator and
    /// flip the iteration's verdict to INVALID even though every insert
    /// eventually succeeded and the end-of-run aggregates look healthy.
    #[test]
    fn injected_stall_trips_sustained_rate_validator() {
        // Warm-up ingests TOTAL_KVPS inserts, so 1.5 × lands the stall
        // in the middle of iteration 1's *measured* execution.
        let mut sut = StallSut::new(TOTAL_KVPS * 3 / 2, Duration::from_secs(10));
        let config = config();
        let sheet = PriceSheet::sample_cluster(2);
        let runner = BenchmarkRunner::new(config.clone(), sheet.clone());
        let outcome = runner.run(&mut sut);
        assert_eq!(outcome.iterations.len(), 2);

        let stalled = &outcome.iterations[0];
        assert_eq!(
            stalled.measured.ingested, TOTAL_KVPS,
            "every insert still succeeded — only the timing degraded"
        );
        assert!(
            !stalled.measured.rate_violations.is_empty(),
            "10s stall must starve at least one full window: {:?}",
            stalled.measured.telemetry.ingest_windows
        );
        assert!(!stalled.validity.valid);
        assert!(
            stalled
                .validity
                .reasons
                .iter()
                .any(|r| r.contains("sustained-rate violation")),
            "reasons: {:?}",
            stalled.validity.reasons
        );

        let clean = &outcome.iterations[1];
        assert!(
            clean.validity.valid,
            "stall-free iteration stays VALID: {:?}",
            clean.validity.reasons
        );
        assert!(
            !outcome.publishable(),
            "one INVALID iteration sinks the run"
        );

        assert!(!outcome.registry.sustained_ok());
        assert_eq!(outcome.registry.verdict, "INVALID");
        let fdr = full_disclosure_report(&outcome, &config, &sheet, &[]);
        assert!(fdr.contains("sustained-rate violation"));
        assert!(fdr.contains("run validity: INVALID"));
        assert!(fdr.contains("sustained-rate check: VIOLATED"));
    }

    /// The same configuration without the stall sails through: the
    /// validator only reacts to windows that actually starve.
    #[test]
    fn steady_run_passes_sustained_rate_validator() {
        let mut sut = StallSut::new(u64::MAX, Duration::ZERO);
        let config = config();
        let sheet = PriceSheet::sample_cluster(2);
        let runner = BenchmarkRunner::new(config.clone(), sheet.clone());
        let outcome = runner.run(&mut sut);
        assert_eq!(outcome.iterations.len(), 2);
        for it in &outcome.iterations {
            assert!(it.validity.valid, "reasons: {:?}", it.validity.reasons);
            assert!(it.measured.rate_violations.is_empty());
            // The telemetry layer accounted for every successful insert.
            assert_eq!(it.measured.telemetry.ingest.count, TOTAL_KVPS);
            assert_eq!(
                it.measured.telemetry.ingest_windows.iter().sum::<u64>(),
                TOTAL_KVPS
            );
        }
        assert!(outcome.registry.sustained_ok());
        assert_eq!(outcome.registry.verdict, "VALID");
        assert!(outcome.publishable());
    }
}

#[test]
fn spec_scale_invalidity_is_reported_not_hidden() {
    // Running with official spec rules at laptop scale must be flagged
    // invalid (1800s floor unmet) while still producing measurements.
    let dir = tmpdir("invalid");
    let mut s = sut(&dir, 2);
    let mut config = BenchmarkConfig::new(1, 2_000);
    config.threads_per_driver = 1;
    config.rules = Rules::SPEC;
    config.required_replication = 2;
    let outcome = BenchmarkRunner::new(config, PriceSheet::sample_cluster(2)).run(&mut s);
    assert_eq!(outcome.iterations.len(), 2);
    assert!(outcome.metrics.is_some(), "metrics still derived");
    assert!(!outcome.publishable(), "rules flag the run invalid");
    std::fs::remove_dir_all(dir).ok();
}
