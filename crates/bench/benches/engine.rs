//! Criterion micro-benchmarks of the iotkv storage engine — the per-node
//! write/scan path underneath every gateway number in the paper.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use iotkv::{Db, Options};

fn bench_options() -> Options {
    Options {
        memtable_bytes: 32 << 20,
        block_cache_bytes: 32 << 20,
        ..Options::default()
    }
}

fn fresh_db(name: &str) -> (Db, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("iotkv-bench-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    (Db::open(&dir, bench_options()).unwrap(), dir)
}

fn put_1kb(c: &mut Criterion) {
    let (db, dir) = fresh_db("put");
    let value = vec![0xA5u8; 1000];
    let mut i = 0u64;
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("put_1kb_kvp", |b| {
        b.iter(|| {
            let key = format!("PSS-000000|sensor-{:03}|{:013}", i % 200, i);
            db.put(key.as_bytes(), &value).unwrap();
            i += 1;
        })
    });
    group.finish();
    drop(db);
    std::fs::remove_dir_all(dir).ok();
}

fn get_hot(c: &mut Criterion) {
    let (db, dir) = fresh_db("get");
    let value = vec![0xA5u8; 1000];
    for i in 0..50_000u64 {
        let key = format!("PSS-000000|sensor-{:03}|{:013}", i % 200, i);
        db.put(key.as_bytes(), &value).unwrap();
    }
    db.flush().unwrap();
    let mut i = 0u64;
    c.bench_function("engine/get_present", |b| {
        b.iter(|| {
            let key = format!("PSS-000000|sensor-{:03}|{:013}", i % 200, i % 50_000);
            let got = db.get(key.as_bytes()).unwrap();
            assert!(got.is_some());
            i = i.wrapping_add(7919);
        })
    });
    c.bench_function("engine/get_absent_bloom", |b| {
        b.iter(|| {
            let key = format!("PSS-999999|sensor-000|{:013}", i);
            let got = db.get(key.as_bytes()).unwrap();
            assert!(got.is_none());
            i = i.wrapping_add(1);
        })
    });
    drop(db);
    std::fs::remove_dir_all(dir).ok();
}

fn scan_window(c: &mut Criterion) {
    let (db, dir) = fresh_db("scan");
    let value = vec![0xA5u8; 1000];
    // One sensor, 100k sequential timestamps.
    for ts in 0..100_000u64 {
        let key = format!("PSS-000000|sensor-000|{ts:013}");
        db.put(key.as_bytes(), &value).unwrap();
    }
    db.flush().unwrap();
    let mut start_ts = 0u64;
    // A 5s-window dashboard scan reads ~100-500 rows in the paper.
    c.bench_function("engine/scan_200_rows", |b| {
        b.iter(|| {
            let start = format!("PSS-000000|sensor-000|{start_ts:013}");
            let end = format!("PSS-000000|sensor-000|{:013}", start_ts + 200);
            let rows = db
                .scan(start.as_bytes(), end.as_bytes(), usize::MAX)
                .unwrap();
            assert_eq!(rows.len(), 200);
            start_ts = (start_ts + 1009) % 99_000;
        })
    });
    drop(db);
    std::fs::remove_dir_all(dir).ok();
}

fn write_batch(c: &mut Criterion) {
    let (db, dir) = fresh_db("batch");
    let value = vec![0xA5u8; 1000];
    let mut i = 0u64;
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(100));
    group.bench_function("write_batch_100", |b| {
        b.iter_batched(
            || {
                let mut batch = iotkv::WriteBatch::new();
                for _ in 0..100 {
                    let key = format!("PSS-000001|sensor-{:03}|{:013}", i % 200, i);
                    batch.put(key.as_bytes(), &value);
                    i += 1;
                }
                batch
            },
            |batch| db.write(batch).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
    drop(db);
    std::fs::remove_dir_all(dir).ok();
}

/// One L0→L1 compaction of ~10 overlapping L0 tables of 1 KB kvps, timed
/// from `Db::open` with the default options to `Db::compact()` returning.
/// Each iteration compacts a fresh copy of the same loaded directory.
fn compact_l0(c: &mut Criterion) {
    let template = std::env::temp_dir().join(format!("iotkv-bench-l0-{}", std::process::id()));
    std::fs::remove_dir_all(&template).ok();
    let loading = Options {
        l0_compaction_trigger: 64,
        l0_stall_trigger: 64,
        ..Options::default()
    };
    let db = Db::open(&template, loading).unwrap();
    let value = vec![0xA5u8; 1000];
    for i in 0..80_000u64 {
        let key = format!("PSS-000000|sensor-{:03}|{:013}", i % 200, i);
        db.put(key.as_bytes(), &value).unwrap();
    }
    db.flush().unwrap();
    let tables = db.stats().level_shape[0];
    drop(db);
    let input_bytes: u64 = std::fs::read_dir(&template)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "sst"))
        .map(|e| e.metadata().unwrap().len())
        .sum();
    println!("engine/compact_l0 input: {tables} L0 tables, {input_bytes} bytes");

    let work = template.with_extension("work");
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Bytes(input_bytes));
    group.bench_function("compact_l0", |b| {
        b.iter_batched(
            || {
                std::fs::remove_dir_all(&work).ok();
                std::fs::create_dir_all(&work).unwrap();
                for entry in std::fs::read_dir(&template).unwrap().flatten() {
                    std::fs::copy(entry.path(), work.join(entry.file_name())).unwrap();
                }
            },
            |()| {
                Db::open(&work, Options::default())
                    .unwrap()
                    .compact()
                    .unwrap()
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
    std::fs::remove_dir_all(work).ok();
    std::fs::remove_dir_all(template).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = put_1kb, get_hot, scan_window, write_batch
}
criterion_group! {
    name = maintenance;
    config = Criterion::default().sample_size(5);
    targets = compact_l0
}
criterion_main!(benches, maintenance);
