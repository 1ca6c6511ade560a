//! Criterion benchmarks of the gateway cluster data plane and the DES
//! event engine's raw speed (events/second determines how cheaply the
//! paper's 1800 s runs regenerate).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simkit::{Sim, SimDuration};
use std::sync::Arc;
use tpcx_iot::backend::GatewayBackend;
use tpcx_iot::query::{execute, QueryKind, QuerySpec, WINDOW_MS};

fn cluster_put_and_query(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("bench-cluster-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = gateway::ClusterConfig::new(&dir, 3);
    config.storage = iotkv::Options {
        memtable_bytes: 16 << 20,
        ..iotkv::Options::default()
    };
    let cluster = Arc::new(gateway::Cluster::start(config).unwrap());

    let mut generator =
        tpcx_iot::datagen::ReadingGenerator::new("PSS-000000", 7, 1_700_000_000_000, 10);
    let mut group = c.benchmark_group("gateway");
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("replicated_put_1kb", |b| {
        b.iter(|| {
            let (k, v) = generator.next_kvp();
            cluster.insert(&k, &v).unwrap();
        })
    });
    // Same kvps through the batched path: one fault judgment and one WAL
    // record per region-group instead of per kvp.
    group.throughput(Throughput::Bytes(16 * 1024));
    group.bench_function("replicated_put_batch16_1kb", |b| {
        b.iter(|| {
            let items: Vec<_> = (0..16).map(|_| generator.next_kvp()).collect();
            cluster.insert_batch(&items).unwrap();
        })
    });
    group.finish();

    // Dashboard query over the freshest 5 s window.
    let now = generator.now_ms();
    let sensors = generator.sensor_keys();
    let spec = QuerySpec {
        kind: QueryKind::AverageReading,
        substation: "PSS-000000".into(),
        sensor: sensors[0].clone(),
        current_from_ms: now - WINDOW_MS,
        current_to_ms: now,
        past_from_ms: 1_700_000_000_000,
        past_to_ms: 1_700_000_000_000 + WINDOW_MS,
    };
    c.bench_function("gateway/dashboard_query", |b| {
        b.iter(|| {
            let out = execute(cluster.as_ref() as &dyn GatewayBackend, &spec).unwrap();
            criterion::black_box(out.rows_read)
        })
    });

    let data_dir = cluster.config().data_dir.clone();
    drop(cluster);
    std::fs::remove_dir_all(data_dir).ok();
}

fn des_event_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("simkit");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("event_chain_10k", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0u64);
            fn tick(sim: &mut Sim<u64>) {
                sim.state += 1;
                if sim.state < 10_000 {
                    sim.schedule_in(SimDuration::from_micros(1), tick);
                }
            }
            sim.schedule(simkit::SimTime::ZERO, tick);
            sim.run();
            assert_eq!(sim.state, 10_000);
        })
    });
    group.finish();
}

fn des_cluster_run(c: &mut Criterion) {
    // A complete small simulated execution: the unit of every table row.
    c.bench_function("simcluster/execution_2sub_200k", |b| {
        b.iter(|| {
            let params = simcluster::ModelParams::hbase_testbed(8);
            let m = simcluster::run_execution(&params, 2, 200_000);
            criterion::black_box(m.ingested)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = cluster_put_and_query, des_event_rate, des_cluster_run
}
criterion_main!(benches);
