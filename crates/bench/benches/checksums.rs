//! Criterion benchmarks of the in-repo checksum/digest implementations
//! (CRC-32C frames every WAL record and table block; md5 fingerprints the
//! kit files).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn crc32c(c: &mut Criterion) {
    // The CPU picks the kernel; say which one these numbers are for.
    println!("crc32c kernel: {:?}", iotkv::checksum::kernel());
    let mut group = c.benchmark_group("crc32c");
    // 4096 B is one table data block: the CRC every block-cache miss pays.
    for size in [64usize, 1024, 4096, 64 * 1024] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |b| {
            b.iter(|| criterion::black_box(iotkv::checksum::crc32c(&data)))
        });
    }
    group.finish();
}

fn md5(c: &mut Criterion) {
    let mut group = c.benchmark_group("md5");
    for size in [1024usize, 64 * 1024] {
        let data = vec![0xCDu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |b| {
            b.iter(|| criterion::black_box(tpcx_iot::md5::md5(&data)))
        });
    }
    group.finish();
}

fn bloom(c: &mut Criterion) {
    use iotkv::sstable::bloom::{may_contain, BloomBuilder};
    let mut builder = BloomBuilder::new(10);
    for i in 0..100_000 {
        builder.add(format!("key-{i:08}").as_bytes());
    }
    let filter = builder.finish();
    let mut group = c.benchmark_group("bloom");
    group.throughput(Throughput::Elements(1));
    let mut i = 0u64;
    group.bench_function("probe", |b| {
        b.iter(|| {
            let key = format!("key-{:08}", i % 200_000);
            i += 1;
            criterion::black_box(may_contain(&filter, key.as_bytes()))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = crc32c, md5, bloom
}
criterion_main!(benches);
