//! Cross-crate integration tests: the TPCx-IoT driver components against
//! the real gateway cluster (iotkv-backed), end to end.

use std::sync::Arc;
use tpcx_iot::backend::GatewayBackend;
use tpcx_iot::datagen::ReadingGenerator;
use tpcx_iot::driver::{run_driver, DriverConfig};
use tpcx_iot::keys::{decode_reading, sensor_time_range};
use tpcx_iot::query::{execute, QueryKind, QuerySpec, WINDOW_MS};
use ycsb::measurement::Measurements;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tpcx-integration-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn small_cluster(dir: &std::path::Path, nodes: usize, splits: usize) -> gateway::Cluster {
    let mut config = gateway::ClusterConfig::new(dir, nodes);
    config.storage = iotkv::Options::small();
    config.split_points = (1..splits)
        .map(|i| bytes::Bytes::from(format!("PSS-{i:06}|")))
        .collect();
    gateway::Cluster::start(config).unwrap()
}

#[test]
fn readings_survive_the_full_storage_stack() {
    let dir = tmpdir("stack");
    let cluster = small_cluster(&dir, 3, 1);
    let mut generator = ReadingGenerator::new("PSS-000000", 9, 1_700_000_000_000, 10);
    let mut originals = Vec::new();
    for _ in 0..3_000 {
        let reading = generator.next_reading();
        let (k, v) = tpcx_iot::keys::encode_reading(&reading);
        cluster.put(&k, &v).unwrap();
        originals.push((k, reading));
    }
    // Force everything through flush + compaction on every node.
    cluster.flush_all().unwrap();

    // Point reads give back the exact reading.
    for (k, reading) in originals.iter().step_by(311) {
        let v = cluster.get(k).unwrap().expect("reading present");
        let decoded = decode_reading(k, &v).unwrap();
        assert_eq!(&decoded, reading);
    }

    // A 5s range scan returns exactly the readings in the window.
    let sensor = &originals[0].1.sensor;
    let (start, end) = sensor_time_range(
        "PSS-000000",
        sensor,
        1_700_000_000_000,
        1_700_000_000_000 + WINDOW_MS,
    );
    let rows = cluster.scan(&start, &end, usize::MAX).unwrap();
    let expected = originals
        .iter()
        .filter(|(_, r)| {
            &r.sensor == sensor
                && r.timestamp_ms >= 1_700_000_000_000
                && r.timestamp_ms < 1_700_000_000_000 + WINDOW_MS
        })
        .count();
    assert_eq!(rows.len(), expected);
    assert!(expected > 0);

    drop(cluster);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn driver_instance_against_real_cluster() {
    let dir = tmpdir("driver");
    let cluster = Arc::new(small_cluster(&dir, 2, 1));
    let measurements = Arc::new(Measurements::new());
    let mut config = DriverConfig::new(0, 2_000);
    config.threads = 4;
    config.queries_per_10k = 25;
    let report = run_driver(
        &config,
        Arc::clone(&cluster) as Arc<dyn GatewayBackend>,
        measurements,
    );
    assert_eq!(report.ingested, 2_000);
    assert_eq!(report.insert_failures, 0);
    // 4 threads x 500 readings each, one query per 400 readings.
    assert_eq!(report.queries_executed, 4);
    assert_eq!(report.query_failures, 0);
    assert!(
        report.rows_per_query.mean() > 0.0,
        "queries hit ingested data"
    );
    assert_eq!(cluster.stats().puts, 2_000);
    // Every put was replicated twice (2-node cap).
    assert_eq!(cluster.stats().replica_writes, 4_000);

    let dir2 = cluster.config().data_dir.clone();
    drop(cluster);
    std::fs::remove_dir_all(dir2).ok();
}

#[test]
fn queries_on_real_cluster_match_in_memory_oracle() {
    let dir = tmpdir("oracle");
    let cluster = small_cluster(&dir, 2, 1);
    let oracle = tpcx_iot::backend::MemBackend::new();
    let mut generator = ReadingGenerator::new("PSS-000000", 5, 1_700_000_000_000, 10);
    for _ in 0..4_000 {
        let (k, v) = generator.next_kvp();
        cluster.put(&k, &v).unwrap();
        oracle.insert(&k, &v).unwrap();
    }
    let now = generator.now_ms();
    let sensors = generator.sensor_keys();
    let mut rng = simkit::rng::Stream::new(77);
    for _ in 0..50 {
        let spec = QuerySpec::generate(&mut rng, "PSS-000000", &sensors, now);
        let real = execute(&cluster as &dyn GatewayBackend, &spec).unwrap();
        let expect = execute(&oracle, &spec).unwrap();
        assert_eq!(real.current.rows, expect.current.rows, "{spec:?}");
        assert_eq!(real.past.rows, expect.past.rows);
        assert_eq!(real.current.value, expect.current.value);
        assert_eq!(real.past.value, expect.past.value);
    }
    drop(cluster);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn multi_substation_ingest_isolates_substations() {
    let dir = tmpdir("multi");
    let cluster = Arc::new(small_cluster(&dir, 3, 3));
    let measurements = Arc::new(Measurements::new());
    std::thread::scope(|scope| {
        for i in 0..3 {
            let cluster = Arc::clone(&cluster);
            let measurements = Arc::clone(&measurements);
            scope.spawn(move || {
                let mut config = DriverConfig::new(i, 1_000);
                config.threads = 2;
                config.seed = 100 + i as u64;
                let report = run_driver(&config, cluster as Arc<dyn GatewayBackend>, measurements);
                assert_eq!(report.ingested, 1_000);
            });
        }
    });
    assert_eq!(cluster.stats().puts, 3_000);
    // Substation prefixes keep data disjoint.
    for i in 0..3 {
        let prefix = tpcx_iot::keys::substation_prefix(&tpcx_iot::sensors::substation_key(i));
        let mut end = prefix.clone();
        *end.last_mut().unwrap() += 1;
        let rows = cluster.scan(&prefix, &end, usize::MAX).unwrap();
        assert_eq!(rows.len(), 1_000, "substation {i}");
    }
    let dir2 = cluster.config().data_dir.clone();
    drop(cluster);
    std::fs::remove_dir_all(dir2).ok();
}

#[test]
fn all_four_query_templates_agree_on_counts() {
    let dir = tmpdir("templates");
    let cluster = small_cluster(&dir, 2, 1);
    let mut generator = ReadingGenerator::new("PSS-000000", 13, 1_700_000_000_000, 10);
    for _ in 0..2_000 {
        let (k, v) = generator.next_kvp();
        cluster.put(&k, &v).unwrap();
    }
    let now = generator.now_ms();
    let sensor = generator.sensor_keys()[0].clone();
    let mut outcomes = Vec::new();
    for kind in QueryKind::ALL {
        let spec = QuerySpec {
            kind,
            substation: "PSS-000000".into(),
            sensor: sensor.clone(),
            current_from_ms: now - WINDOW_MS,
            current_to_ms: now,
            past_from_ms: 1_700_000_000_000,
            past_to_ms: 1_700_000_000_000 + WINDOW_MS,
        };
        outcomes.push(execute(&cluster as &dyn GatewayBackend, &spec).unwrap());
    }
    // Row counts are template-independent; aggregates are consistent.
    for pair in outcomes.windows(2) {
        assert_eq!(pair[0].rows_read, pair[1].rows_read);
    }
    let max = outcomes[0].current.value.unwrap();
    let min = outcomes[1].current.value.unwrap();
    let avg = outcomes[2].current.value.unwrap();
    let count = outcomes[3].current.value.unwrap();
    assert!(min <= avg && avg <= max);
    assert_eq!(count as u64, outcomes[3].current.rows);
    drop(cluster);
    std::fs::remove_dir_all(dir).ok();
}
