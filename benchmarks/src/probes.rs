//! Ladder probes: short single-thread loops that replay a fixed slice
//! of the benchmark's kvp stream directly on each layer's public API,
//! on fresh instances, so consecutive rungs subtract into a self time:
//!
//! ```text
//! NetBackend::insert            core.netplane.insert_us_p50
//!   FrameConn::request(Put)     gateway.server.put_rtt_us_p50
//!     Cluster::put              gateway.cluster.put_us_p50
//!       rf × Db::put            iotkv.db.put_us_p50
//! ```
//!
//! Single-thread probes see no contention; the workload spans do.

use crate::stats::percentile_sorted;
use bytes::Bytes;
use gateway::{Cluster, ClusterConfig, GatewayServer};
use iotkv::{Db, Options, WriteBatch};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcx_iot::backend::GatewayBackend;
use tpcx_iot::datagen::ReadingGenerator;
use tpcx_iot::sensors::substation_key;
use tpcx_iot::NetBackend;
use wire::msg::ROLE_DRIVER;
use wire::{FrameConn, Message};
use ycsb::measurement::{Measurements, OpKind};

/// Single puts per rung; also the slice one batch probe replays.
const SLICE: usize = 2048;
const BATCH: usize = 256;
const TIMEOUT: Duration = Duration::from_secs(30);

/// What an outer rung costs beyond the inner calls it makes.
pub fn rung_self(outer: f64, inner: f64, inner_calls: f64) -> f64 {
    outer - inner_calls * inner
}

fn p50_us(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    percentile_sorted(samples, 50) as f64 / 1e3
}

/// Times `op` once per item; returns the per-call nanoseconds.
fn time_each<T>(
    items: &[T],
    mut op: impl FnMut(&T) -> Result<(), String>,
) -> Result<Vec<u64>, String> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let t = Instant::now();
        op(item)?;
        out.push(t.elapsed().as_nanos() as u64);
    }
    Ok(out)
}

fn err(e: impl std::fmt::Display) -> String {
    format!("probe: {e}")
}

/// Runs every probe under `dir` and returns the per-layer metrics they
/// define, ladder subtractions included.
pub fn run(dir: &Path, seed: u64) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m = BTreeMap::new();

    // core.datagen — and the slices every other probe replays.
    let mut gen = ReadingGenerator::new(substation_key(0), seed, 1_700_000_000_000, 10);
    let t = Instant::now();
    let kvps: Vec<(Bytes, Bytes)> = (0..8 * SLICE).map(|_| gen.next_kvp()).collect();
    m.insert(
        "core.datagen.ns_per_kvp",
        t.elapsed().as_nanos() as f64 / kvps.len() as f64,
    );
    let slice = |i: usize| &kvps[i * SLICE..(i + 1) * SLICE];

    // ycsb.measurement: two threads on the shared sink, as the driver
    // threads are.
    let sink = Measurements::new();
    const RECORDS: u64 = 200_000;
    let per_thread_ns: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let t = Instant::now();
                    for i in 0..RECORDS {
                        sink.record_ok(OpKind::Insert, black_box(50_000 + i));
                    }
                    t.elapsed().as_nanos() as f64 / RECORDS as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    m.insert(
        "ycsb.measurement.record_ns",
        per_thread_ns.iter().sum::<f64>() / per_thread_ns.len() as f64,
    );

    // wire.codec: encode_payload + decode, no socket.
    let codec = |msgs: &[Message]| -> Result<f64, String> {
        let t = Instant::now();
        for msg in msgs {
            let payload = msg.encode_payload();
            black_box(Message::decode(msg.tag(), black_box(&payload)).map_err(err)?);
        }
        Ok(t.elapsed().as_nanos() as f64)
    };
    let owned = |(k, v): &(Bytes, Bytes)| (k.to_vec(), v.to_vec());
    let puts: Vec<Message> = slice(0)
        .iter()
        .map(|kv| {
            let (key, value) = owned(kv);
            Message::Put { key, value }
        })
        .collect();
    m.insert("wire.codec.put_ns", codec(&puts)? / SLICE as f64);
    let batches: Vec<Message> = slice(0)
        .chunks(BATCH)
        .map(|c| Message::PutBatch {
            items: c.iter().map(owned).collect(),
        })
        .collect();
    m.insert(
        "wire.codec.putbatch256_ns_per_kvp",
        codec(&batches)? / SLICE as f64,
    );
    let rows: Vec<Message> = slice(0)
        .iter()
        .map(|kv| {
            let (key, value) = owned(kv);
            Message::ScanRow { key, value }
        })
        .collect();
    m.insert("wire.codec.scanrow_ns", codec(&rows)? / SLICE as f64);
    // Length prefix + tag + payload.
    m.insert(
        "wire.frame.bytes_per_put",
        5.0 + puts[0].encode_payload().len() as f64,
    );

    // iotkv.db on a bare engine with the shipped options.
    let db_dir = dir.join("probe-db");
    let db = Db::open(&db_dir, Options::default()).map_err(err)?;
    let mut ns = time_each(slice(0), |(k, v)| db.put(k, v).map_err(err))?;
    ns.sort_unstable();
    let db_put_p50 = percentile_sorted(&ns, 50) as f64 / 1e3;
    m.insert("iotkv.db.put_us_p50", db_put_p50);
    m.insert(
        "iotkv.db.put_us_p99",
        percentile_sorted(&ns, 99) as f64 / 1e3,
    );
    let t = Instant::now();
    for chunk in slice(1).chunks(BATCH).chain(slice(2).chunks(BATCH)) {
        let mut batch = WriteBatch::new();
        for (k, v) in chunk {
            batch.put(k, v);
        }
        db.write(batch).map_err(err)?;
    }
    m.insert(
        "iotkv.db.write256_us_per_kvp",
        t.elapsed().as_nanos() as f64 / 1e3 / (2 * SLICE) as f64,
    );
    let t = Instant::now();
    db.flush().map_err(err)?;
    m.insert("iotkv.db.flush_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let mut scanned = 0u64;
    for item in db.scan_iter(b"", b"\xff") {
        black_box(item.map_err(err)?);
        scanned += 1;
    }
    if scanned != 3 * SLICE as u64 {
        return Err(format!(
            "probe: engine scan saw {scanned} of {} rows",
            3 * SLICE
        ));
    }
    m.insert(
        "iotkv.db.scan_ns_per_row",
        t.elapsed().as_nanos() as f64 / scanned as f64,
    );
    // Recovery: reopen over a WAL that was never flushed.
    for (k, v) in slice(3) {
        db.put(k, v).map_err(err)?;
    }
    drop(db);
    let t = Instant::now();
    let db = Db::open(&db_dir, Options::default()).map_err(err)?;
    m.insert("iotkv.db.recover_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(db);

    // gateway.cluster on a fresh 3-node cluster, then the same cluster
    // behind a server for the two socket rungs.
    let cluster = Cluster::start(ClusterConfig::new(dir.join("probe-cluster"), 3)).map_err(err)?;
    let rf = cluster.effective_replication() as f64;
    let cluster_put_p50 = p50_us(&mut time_each(slice(0), |(k, v)| {
        cluster.put(k, v).map_err(err)
    })?);
    m.insert("gateway.cluster.put_us_p50", cluster_put_p50);
    let t = Instant::now();
    for chunk in slice(1).chunks(BATCH) {
        cluster.put_batch(chunk).map_err(err)?;
    }
    m.insert(
        "gateway.cluster.put_batch256_us_per_kvp",
        t.elapsed().as_nanos() as f64 / 1e3 / SLICE as f64,
    );

    let shared = Arc::new(parking_lot::RwLock::new(cluster));
    let server = GatewayServer::start(Arc::clone(&shared), "127.0.0.1:0", TIMEOUT).map_err(err)?;
    let addr = server.local_addr().to_string();
    let mut conn = FrameConn::connect(&addr, TIMEOUT).map_err(err)?;
    conn.client_handshake(ROLE_DRIVER).map_err(err)?;
    let ping_p50 = p50_us(&mut time_each(slice(0), |_| {
        match conn.request(&Message::Ping).map_err(err)? {
            Message::Pong => Ok(()),
            other => Err(format!("probe: expected Pong, got {}", other.name())),
        }
    })?);
    m.insert("wire.frame.ping_rtt_us_p50", ping_p50);
    let put_msgs: Vec<Message> = slice(2)
        .iter()
        .map(|kv| {
            let (key, value) = owned(kv);
            Message::Put { key, value }
        })
        .collect();
    let server_put_p50 = p50_us(&mut time_each(&put_msgs, |msg| {
        match conn.request(msg).map_err(err)? {
            Message::Ok => Ok(()),
            other => Err(format!("probe: expected Ok, got {}", other.name())),
        }
    })?);
    m.insert("gateway.server.put_rtt_us_p50", server_put_p50);
    drop(conn);

    let net = NetBackend::connect(&addr, TIMEOUT)?;
    let net_put_p50 = p50_us(&mut time_each(slice(3), |(k, v)| {
        net.insert(k, v).map_err(err)
    })?);
    m.insert("core.netplane.insert_us_p50", net_put_p50);
    let t = Instant::now();
    for chunk in slice(4).chunks(BATCH) {
        net.insert_batch(chunk).map_err(err)?;
    }
    m.insert(
        "core.netplane.insert_batch256_us_per_kvp",
        t.elapsed().as_nanos() as f64 / 1e3 / SLICE as f64,
    );

    // Scans over what the rungs above wrote (5 slices), flushed first so
    // rows come from tables as they do in `query_scan`.
    shared.read().flush_all().map_err(err)?;
    let expected_rows = 5 * SLICE as u64;
    let t = Instant::now();
    let mut rows = 0u64;
    for item in shared.read().scan_stream(b"", b"\xff") {
        black_box(item.map_err(err)?);
        rows += 1;
    }
    let cluster_scan_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let net_rows = net
        .scan_fold(b"", b"\xff", &mut |k, v| {
            black_box((k, v));
            true
        })
        .map_err(err)?;
    let net_scan_ns = t.elapsed().as_nanos() as f64;
    if rows != expected_rows || net_rows != expected_rows {
        return Err(format!(
            "probe: scans saw {rows} (cluster) and {net_rows} (socket) of {expected_rows} rows"
        ));
    }
    m.insert(
        "gateway.cluster.scan_ns_per_row",
        cluster_scan_ns / rows as f64,
    );
    m.insert("core.netplane.scan_ns_per_row", net_scan_ns / rows as f64);
    drop(net);
    drop(server);

    // The ladder: each rung minus the rung below it.
    m.insert(
        "core.netplane.self_us_per_put",
        rung_self(net_put_p50, server_put_p50, 1.0),
    );
    m.insert(
        "gateway.server.self_us_per_put",
        rung_self(server_put_p50, cluster_put_p50, 1.0),
    );
    m.insert(
        "gateway.cluster.self_us_per_put",
        rung_self(cluster_put_p50, db_put_p50, rf),
    );
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_subtraction_telescopes() {
        // 175 µs at the top, 150 behind the socket, 75 in the cluster,
        // three serial replica writes of 20 µs below that.
        let net = rung_self(175.0, 150.0, 1.0);
        let server = rung_self(150.0, 75.0, 1.0);
        let cluster = rung_self(75.0, 20.0, 3.0);
        assert_eq!((net, server, cluster), (25.0, 75.0, 15.0));
        assert_eq!(net + server + cluster + 3.0 * 20.0, 175.0);
    }
}
