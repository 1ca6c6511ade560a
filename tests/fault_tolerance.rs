//! Fault-injection integration tests: a mid-run node crash must not lose
//! acknowledged writes, degraded runs must carry a validity verdict, and
//! the whole fault/retry pipeline must be deterministic under a fixed
//! seed.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use tpcx_iot::driver::{run_driver, DriverConfig};
use tpcx_iot::pricing::PriceSheet;
use tpcx_iot::report::full_disclosure_report;
use tpcx_iot::retry::{with_retry, RetryPolicy};
use tpcx_iot::rules::Rules;
use tpcx_iot::runner::{BenchmarkConfig, BenchmarkRunner, GatewaySut};
use ycsb::measurement::Measurements;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tpcx-fault-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn small_options() -> iotkv::Options {
    iotkv::Options {
        memtable_bytes: 2 << 20,
        block_bytes: 4 << 10,
        l1_bytes: 8 << 20,
        table_bytes: 2 << 20,
        ..iotkv::Options::default()
    }
}

fn faulted_sut(dir: &std::path::Path, plan: gateway::FaultPlan) -> GatewaySut {
    let mut config = gateway::ClusterConfig::new(dir, 3);
    config.storage = small_options();
    config.fault_plan = Some(plan);
    GatewaySut::new(gateway::Cluster::start(config).unwrap())
}

fn lab_rules() -> Rules {
    Rules {
        min_elapsed_secs: 0.0,
        min_per_sensor_rate: 0.0,
        min_rows_per_query: 0.0,
    }
}

/// The acceptance scenario: the region primary crashes mid-run and stays
/// down for a stretch; hinted handoff and read failover must carry the
/// benchmark through with zero acknowledged-write loss, and the FDR must
/// disclose both the degradation counters and the validity verdict.
#[test]
fn mid_run_crash_loses_no_acked_writes() {
    let dir = tmpdir("crash");
    // Node 0 (primary of the single region) is down for ops [500, 2500).
    let plan = gateway::FaultPlan::quiet(42).with_crash(0, 500, Some(2_000));
    let mut sut = faulted_sut(&dir, plan);
    let mut config = BenchmarkConfig::new(1, 8_000);
    config.threads_per_driver = 2;
    config.rules = lab_rules();
    let sheet = PriceSheet::sample_cluster(3);
    let runner = BenchmarkRunner::new(config.clone(), sheet.clone());

    let outcome = runner.run(&mut sut);
    assert_eq!(outcome.iterations.len(), 2);
    for it in &outcome.iterations {
        // Every acknowledged write persisted: the data check counts the
        // full workload, and the verdict reports no acked-data loss.
        assert!(it.data_check.passed, "{}", it.data_check.detail);
        assert!(it.validity.valid, "unexpected: {:?}", it.validity.reasons);
        assert_eq!(it.warmup.ingested + it.measured.ingested, 16_000);
    }
    // The crash re-arms each purge cycle, so iteration 1 shows the
    // degradation: writes went under-replicated and reads failed over.
    let first = &outcome.iterations[0].resilience;
    assert!(
        first.backend.under_replicated_writes > 0,
        "crash window must force hinted writes: {first:?}"
    );
    assert!(
        first.backend.hinted_writes == first.backend.under_replicated_writes,
        "every under-replicated write leaves a hint: {first:?}"
    );
    assert_eq!(
        first.backend.unavailable_errors, 0,
        "two replicas stayed up; nothing may be rejected"
    );
    assert!(
        outcome.publishable(),
        "degraded-but-valid run is publishable"
    );

    let fdr = full_disclosure_report(&outcome, &config, &sheet, &[]);
    assert!(fdr.contains("run validity: VALID"));
    assert!(fdr.contains("under-replicated writes"));
    std::fs::remove_dir_all(dir).ok();
}

/// The 20 kvps/s-per-sensor floor: a run whose measured rate sits below
/// the configured floor is INVALID (sensor starvation) and unpublishable,
/// even when every write succeeded.
#[test]
fn starved_run_is_invalid_and_unpublishable() {
    let dir = tmpdir("starve");
    let mut sut = faulted_sut(&dir, gateway::FaultPlan::quiet(1));
    let mut config = BenchmarkConfig::new(1, 4_000);
    config.threads_per_driver = 2;
    config.rules = lab_rules();
    // An unreachable floor models the spec's 20 kvps/s rule at test
    // scale: any in-process run sits far below it.
    config.rules.min_per_sensor_rate = 1e15;
    let sheet = PriceSheet::sample_cluster(3);
    let runner = BenchmarkRunner::new(config.clone(), sheet.clone());

    let outcome = runner.run(&mut sut);
    for it in &outcome.iterations {
        assert!(!it.validity.valid);
        assert!(it.validity.reasons[0].contains("sensor starvation"));
    }
    assert!(!outcome.publishable());
    let fdr = full_disclosure_report(&outcome, &config, &sheet, &[]);
    assert!(fdr.contains("run validity: INVALID"));
    assert!(fdr.contains("sensor starvation"));
    std::fs::remove_dir_all(dir).ok();
}

/// Acceptance criterion: a seeded fault plan reproduces byte-identical
/// retry/failover counters across two runs. Single-threaded so the
/// global op counter sees one deterministic interleaving; transient
/// bursts are per-key deterministic regardless.
#[test]
fn seeded_fault_plan_reproduces_identical_counters() {
    let run_once = |name: &str| {
        let dir = tmpdir(name);
        let mut config = gateway::ClusterConfig::new(&dir, 3);
        config.storage = small_options();
        config.fault_plan = Some(
            gateway::FaultPlan::quiet(77)
                .with_transient(0.3, 2)
                .with_crash(0, 200, Some(400)),
        );
        let cluster = Arc::new(gateway::Cluster::start(config).unwrap());
        let mut dc = DriverConfig::new(0, 2_000);
        dc.threads = 1;
        dc.seed = 0xFA_0175;
        let report = run_driver(
            &dc,
            Arc::clone(&cluster) as Arc<dyn tpcx_iot::GatewayBackend>,
            Arc::new(Measurements::new()),
        );
        let out = (
            report.ingested,
            report.insert_retries,
            report.query_retries,
            report.insert_failures,
            cluster.resilience(),
            cluster.stats().faults.expect("plan installed"),
        );
        drop(cluster);
        std::fs::remove_dir_all(dir).ok();
        out
    };
    let a = run_once("det-a");
    let b = run_once("det-b");
    assert_eq!(a, b, "same plan + seed must reproduce every counter");
    assert!(a.1 > 0, "a 30% transient plan must force retries");
}

/// The streaming read path's acceptance scenario: the region primary
/// crashes while a query scan is mid-stream. The scan must fail over to
/// a live replica, resume from the last yielded key, and the query must
/// still return the exact aggregates — with the failover disclosed in
/// the resilience counters.
#[test]
fn primary_crash_mid_scan_preserves_query_aggregates() {
    use tpcx_iot::keys::{encode_reading, SensorReading};
    use tpcx_iot::query::{execute, QueryKind, QuerySpec, WINDOW_MS};

    let dir = tmpdir("mid-scan");
    let mut config = gateway::ClusterConfig::new(&dir, 3);
    config.storage = small_options();
    // 200 puts are fault ops 0..200; the scan's cursor open ticks op 200
    // and its liveness refresh (every 128 streamed rows) ticks op 201 —
    // exactly when node 0, the region primary, goes down for good.
    config.fault_plan = Some(gateway::FaultPlan::quiet(5).with_crash(0, 201, None));
    let cluster = Arc::new(gateway::Cluster::start(config).unwrap());
    let backend: Arc<dyn tpcx_iot::GatewayBackend> = Arc::clone(&cluster) as _;

    let now = 2_000_000u64;
    for i in 0..200u64 {
        let r = SensorReading {
            substation: "PSS-000000".into(),
            sensor: "pmu-000".into(),
            timestamp_ms: now - WINDOW_MS + i * 25,
            value: format!("{}", 100 + i),
            unit: "volts".into(),
        };
        let (k, v) = encode_reading(&r);
        backend.insert(&k, &v).unwrap();
    }

    let spec = QuerySpec {
        kind: QueryKind::AverageReading,
        substation: "PSS-000000".into(),
        sensor: "pmu-000".into(),
        current_from_ms: now - WINDOW_MS,
        current_to_ms: now,
        past_from_ms: 100,
        past_to_ms: 100 + WINDOW_MS,
    };
    let out = execute(backend.as_ref(), &spec).expect("query survives the crash");

    // Exact aggregates despite the mid-stream failover: values are
    // 100..=299, so AVG = 199.5 over all 200 rows.
    assert_eq!(out.current.rows, 200);
    assert_eq!(out.current.value, Some(199.5));
    assert_eq!(out.past.rows, 0, "historical window predates all data");
    assert_eq!(out.rows_read, 200);

    let r = cluster.resilience();
    assert_eq!(r.scan_resumes, 1, "exactly one mid-stream failover");
    assert_eq!(r.unavailable_errors, 0, "two replicas stayed up");
    let stats = cluster.stats();
    assert!(
        stats.resilience.failover_reads >= 1,
        "the resumed cursor reads from a non-primary: {stats:?}"
    );
    assert_eq!(stats.rows_streamed, 200, "every row streamed exactly once");
    drop(cluster);
    std::fs::remove_dir_all(dir).ok();
}

/// A batch is one WAL record, so a crash that tears the log mid-record
/// must drop the whole batch and keep every earlier batch intact — no
/// partially-applied multi-op batch may survive recovery.
#[test]
fn wal_replay_keeps_batches_atomic_after_torn_tail() {
    let dir = tmpdir("torn-batch");
    std::fs::create_dir_all(&dir).unwrap();
    {
        let db = iotkv::Db::open(&dir, small_options()).unwrap();
        let mut first = iotkv::WriteBatch::new();
        for i in 0..8 {
            first.put(format!("a{i}").as_bytes(), b"first");
        }
        db.write(first).unwrap();
        let mut second = iotkv::WriteBatch::new();
        for i in 0..8 {
            second.put(format!("b{i}").as_bytes(), b"second");
        }
        db.write(second).unwrap();
    }
    // Simulate the crash: tear a few bytes off the live WAL's tail,
    // landing inside the second batch's record.
    let wal = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .max()
        .expect("live WAL present");
    let len = std::fs::metadata(&wal).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);

    let db = iotkv::Db::open(&dir, small_options()).unwrap();
    for i in 0..8 {
        assert_eq!(
            db.get(format!("a{i}").as_bytes()).unwrap().as_deref(),
            Some(&b"first"[..]),
            "intact batch must replay in full"
        );
        assert!(
            db.get(format!("b{i}").as_bytes()).unwrap().is_none(),
            "torn batch must vanish atomically"
        );
    }
    drop(db);
    std::fs::remove_dir_all(dir).ok();
}

/// A batched put spanning two regions where one region's replica is down:
/// the batch is still acknowledged, the down node gets hints for exactly
/// that region-group's kvps, and the healthy region replicates in full.
#[test]
fn put_batch_partial_region_fault_hints_only_that_group() {
    let dir = tmpdir("batch-region");
    let mut config = gateway::ClusterConfig::new(&dir, 4);
    config.storage = small_options();
    config.split_points = vec![bytes::Bytes::from_static(b"m")];
    // Node 0 replicates only region 0 ([0,1,2]; region 1 is [1,2,3]),
    // and is down from the first op on.
    config.fault_plan = Some(gateway::FaultPlan::quiet(9).with_crash(0, 0, None));
    let cluster = gateway::Cluster::start(config).unwrap();

    let items: Vec<(bytes::Bytes, bytes::Bytes)> = ["a0", "a1", "a2", "z0", "z1", "z2"]
        .iter()
        .map(|k| {
            (
                bytes::Bytes::copy_from_slice(k.as_bytes()),
                bytes::Bytes::from_static(b"v"),
            )
        })
        .collect();
    cluster
        .put_batch(&items)
        .expect("two live replicas must ack");

    let stats = cluster.stats();
    assert_eq!(stats.puts, 6);
    assert_eq!(stats.batched_puts, 6);
    assert_eq!(stats.put_batches, 1);
    // Region 0's three kvps wrote 2 live replicas; region 1's wrote 3.
    assert_eq!(stats.replica_writes, 2 * 3 + 3 * 3);
    assert_eq!(stats.resilience.under_replicated_writes, 3);
    assert_eq!(stats.resilience.hinted_writes, 3);
    assert_eq!(stats.resilience.unavailable_errors, 0);
    assert_eq!(stats.node_writes[0], 0, "down node saw no direct writes");

    // Every batch member is readable (region 0 via read failover).
    for (k, _) in &items {
        assert!(cluster.get(k).unwrap().is_some(), "lost {k:?}");
    }
    drop(cluster);
    std::fs::remove_dir_all(dir).ok();
}

/// The elastic-sharding acceptance scenario: one seeded run performs at
/// least one threshold-triggered region split, one replica migration to
/// a node added mid-run, and one graceful node drain — all under
/// concurrent batched ingest and streamed queries — and finishes VALID
/// with zero acknowledged-write loss.
#[test]
fn elastic_reconfiguration_under_load_stays_valid() {
    let dir = tmpdir("elastic");
    // Threshold splits fire on write *rate* (kvps, not op ticks); the
    // event clock ticks once per batch/scan, so with batch_size 16 one
    // phase is ~500 ticks: node 3 arrives at op 300 and immediately
    // receives a migrated replica; node 1 drains at op 700.
    let plan = gateway::FaultPlan::quiet(4242)
        .with_split_threshold(1_500)
        .with_node_add(300)
        .with_drain(1, 700);
    let mut sut = faulted_sut(&dir, plan);
    let mut config = BenchmarkConfig::new(1, 8_000);
    config.threads_per_driver = 2;
    config.batch_size = 16;
    config.rules = lab_rules();
    let sheet = PriceSheet::sample_cluster(3);
    let runner = BenchmarkRunner::new(config.clone(), sheet.clone());

    let outcome = runner.run(&mut sut);
    assert_eq!(outcome.iterations.len(), 2);
    for it in &outcome.iterations {
        assert!(it.data_check.passed, "{}", it.data_check.detail);
        assert!(it.validity.valid, "unexpected: {:?}", it.validity.reasons);
        assert_eq!(it.warmup.ingested + it.measured.ingested, 16_000);
        let c = it.cluster.as_ref().expect("gateway SUT samples cluster");
        assert!(c.topology_ok, "routing table must stay consistent: {c:?}");
        assert!(
            c.resilience.splits >= 1,
            "threshold must trigger a split: {c:?}"
        );
        assert!(
            c.resilience.migrations_completed >= 1,
            "node add must land a replica on the new node: {c:?}"
        );
        assert_eq!(c.resilience.drains, 1, "{c:?}");
        assert!(
            c.epoch >= c.resilience.splits + c.resilience.migrations_completed,
            "every reconfiguration bumps the routing epoch: {c:?}"
        );
        assert!(
            c.node_writes.len() == 4 && c.node_writes[3] > 0,
            "the mid-run node must serve writes after migration: {c:?}"
        );
    }
    assert!(
        outcome.publishable(),
        "reconfiguration degrades, not invalidates"
    );

    let fdr = full_disclosure_report(&outcome, &config, &sheet, &[]);
    assert!(fdr.contains("run validity: VALID"));
    assert!(fdr.contains("online reconfiguration"));
    assert!(fdr.contains("topology:"));
    std::fs::remove_dir_all(dir).ok();
}

/// Crash the migration *destination*: the copy must abort, the source
/// replica set must keep serving every read, and the run verdict stays
/// VALID — an aborted migration is degradation, not data loss.
#[test]
fn dest_crash_mid_migration_keeps_source_serving_and_run_valid() {
    let dir = tmpdir("dest-crash");
    // Node 3 is added at op 1000 but the crash schedule has already
    // taken it down (permanently) at op 900: the migration registers,
    // sees a dead destination, and aborts with the old set serving.
    let plan = gateway::FaultPlan::quiet(31)
        .with_node_add(1_000)
        .with_crash(3, 900, None);
    let mut sut = faulted_sut(&dir, plan);
    let mut config = BenchmarkConfig::new(1, 6_000);
    config.threads_per_driver = 2;
    config.rules = lab_rules();
    let sheet = PriceSheet::sample_cluster(3);
    let runner = BenchmarkRunner::new(config.clone(), sheet.clone());

    let outcome = runner.run(&mut sut);
    for it in &outcome.iterations {
        assert!(it.data_check.passed, "{}", it.data_check.detail);
        assert!(it.validity.valid, "unexpected: {:?}", it.validity.reasons);
        let c = it.cluster.as_ref().expect("gateway SUT samples cluster");
        assert!(c.topology_ok, "{c:?}");
        assert_eq!(c.resilience.migrations_started, 1, "{c:?}");
        assert_eq!(c.resilience.migrations_aborted, 1, "{c:?}");
        assert_eq!(c.resilience.migrations_completed, 0, "{c:?}");
        assert_eq!(
            c.resilience.unavailable_errors, 0,
            "the dead node was never routed, so nothing is rejected: {c:?}"
        );
        assert_eq!(
            c.node_writes[3], 0,
            "no write may land on the unrouted destination: {c:?}"
        );
    }
    assert!(outcome.publishable());
    std::fs::remove_dir_all(dir).ok();
}

/// Zero acked-data loss, physically: a direct cluster scenario running
/// splits, a node add, and a drain interleaved with batched ingest, then
/// a full scan — every acknowledged key present exactly once on the
/// post-reconfiguration topology.
#[test]
fn reconfiguration_pipeline_loses_no_rows_physically() {
    let dir = tmpdir("physical");
    let mut config = gateway::ClusterConfig::new(&dir, 3);
    config.storage = small_options();
    // 2000 kvps in 8-kvp batches = 250 op ticks total; events sit well
    // inside that window.
    config.fault_plan = Some(
        gateway::FaultPlan::quiet(77)
            .with_split_threshold(400)
            .with_node_add(60)
            .with_drain(0, 120),
    );
    let cluster = gateway::Cluster::start(config).unwrap();

    let total = 2_000u64;
    let mut batch: Vec<(bytes::Bytes, bytes::Bytes)> = Vec::new();
    for i in 0..total {
        batch.push((
            bytes::Bytes::from(format!("k{i:05}")),
            bytes::Bytes::from(format!("v{i}")),
        ));
        if batch.len() == 8 {
            cluster.put_batch(&batch).expect("acked");
            batch.clear();
        }
    }
    assert!(batch.is_empty());

    let stats = cluster.stats();
    assert!(stats.resilience.splits >= 1, "{stats:?}");
    assert!(stats.resilience.migrations_completed >= 1, "{stats:?}");
    assert_eq!(stats.resilience.drains, 1, "{stats:?}");
    assert!(stats.topology_ok, "{stats:?}");

    // Physical check: one streamed pass over the whole keyspace yields
    // every acknowledged key exactly once, in order.
    let mut seen = 0u64;
    let mut prev: Option<bytes::Bytes> = None;
    for row in cluster.scan_stream(b"k", b"l") {
        let (k, v) = row.expect("stream survives the topology");
        if let Some(p) = &prev {
            assert!(p < &k, "duplicate or out-of-order row {k:?}");
        }
        assert_eq!(
            v,
            bytes::Bytes::from(format!("v{seen}")),
            "row payload intact"
        );
        prev = Some(k);
        seen += 1;
    }
    assert_eq!(seen, total, "every acked row yielded exactly once");
    drop(cluster);
    std::fs::remove_dir_all(dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Retry/backoff is a pure function of (policy, seed): the jittered
    /// backoff schedule and the attempt count never vary across runs.
    #[test]
    fn retry_backoff_deterministic_for_fixed_seed(
        seed in any::<u64>(),
        failures in 0u32..5,
    ) {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(80),
            deadline: Duration::from_secs(5),
            jitter: 0.5,
        };
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = simkit::rng::Stream::new(seed);
            (1..=5u32).map(|r| policy.backoff_for(r, &mut rng)).collect()
        };
        prop_assert_eq!(schedule(seed), schedule(seed));

        let attempts = |seed: u64| {
            let mut rng = simkit::rng::Stream::new(seed);
            let mut left = failures;
            let out = with_retry(&policy, &mut rng, || {
                if left > 0 {
                    left -= 1;
                    Err(tpcx_iot::backend::BackendError::transient("flake"))
                } else {
                    Ok(())
                }
            });
            (out.attempts, out.retries, out.result.is_ok(), rng.next_u64())
        };
        // Identical attempt counts AND identical post-run rng position:
        // the retry loop consumed exactly the same jitter draws.
        prop_assert_eq!(attempts(seed), attempts(seed));
    }

    /// A streamed scan that is mid-flight when the region splits (and
    /// optionally rebalances) still yields each row exactly once, in
    /// order: region cursors pin engine snapshots at open, and splits
    /// move routing metadata, not data.
    #[test]
    fn streamed_scan_across_concurrent_split_yields_rows_exactly_once(
        rows in 32u64..200,
        consumed_before in 0u64..32,
        split_at in 1u64..31,
        rebalance in any::<bool>(),
    ) {
        let dir = tmpdir(&format!("split-scan-{rows}-{consumed_before}-{split_at}"));
        let mut config = gateway::ClusterConfig::new(&dir, 3);
        config.storage = small_options();
        let cluster = gateway::Cluster::start(config).unwrap();
        for i in 0..rows {
            cluster.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }

        let mut stream = cluster.scan_stream(b"k", b"l");
        let mut yielded = Vec::new();
        for _ in 0..consumed_before {
            let (k, _) = stream.next().expect("rows remain").unwrap();
            yielded.push(k);
        }
        // Split somewhere inside the keyspace while the scan is open.
        let split_key = format!("k{:04}", split_at * rows / 32);
        cluster.split_region(split_key.as_bytes());
        if rebalance {
            cluster.rebalance();
        }
        for row in stream {
            let (k, _) = row.unwrap();
            yielded.push(k);
        }

        prop_assert_eq!(yielded.len() as u64, rows, "exactly-once row count");
        let expected: Vec<bytes::Bytes> = (0..rows)
            .map(|i| bytes::Bytes::from(format!("k{i:04}")))
            .collect();
        prop_assert_eq!(yielded, expected, "no duplicate, loss, or reorder");
        drop(cluster);
        std::fs::remove_dir_all(dir).ok();
    }
}
