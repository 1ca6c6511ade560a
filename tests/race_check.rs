//! Deterministic race-check models for the workspace's lock-free hot paths.
//!
//! Compiled only with `--features race-check` (see `[[test]]` in
//! `crates/core/Cargo.toml`): the feature swaps `simkit::sync` to the
//! instrumented loom-lite wrappers across the whole dependency graph, so
//! the *real* telemetry / memtable types run under the schedule explorer.
//!
//! Each model explores >= 1000 seeded interleavings (CI gate). Models must
//! stay closed: every thread that touches instrumented state is registered
//! with the [`simkit::sync::model::Explorer`]; background OS threads (e.g.
//! iotkv's commit thread) bypass instrumentation, so none are used here.
//!
//! Run with:
//!
//! ```text
//! cargo test -p tpcx-iot --features race-check --test race_check
//! ```

use std::sync::Arc;

use iotkv::memtable::MemTable;
use iotkv::ValueKind;
use simkit::sync::model::Explorer;
use simkit::sync::{AtomicU64, Ordering};
use tpcx_iot::telemetry::{Phase, RunTelemetry};

/// Interleavings per model. The CI acceptance floor is 1000; the explorer
/// is cheap enough that we run exactly that.
const SCHEDULES: u64 = 1000;

/// Two worker threads fold private recorders into the shared
/// `RunTelemetry` mutex concurrently while a third thread snapshots
/// mid-run. The after-check asserts no samples are lost or duplicated:
/// merged histogram counts must equal the sum of per-thread records.
#[test]
fn telemetry_absorb_merge_is_race_free() {
    let report = Explorer::new(0x7e1e_5eed, SCHEDULES).explore(|m| {
        let telemetry = Arc::new(RunTelemetry::new(Phase::Measured, 1_000_000_000));

        let t1 = Arc::clone(&telemetry);
        m.thread(move || {
            let mut rec = t1.recorder();
            rec.record_ingest(10, 1_000, 0);
            rec.record_ingest(20, 2_000, 1);
            rec.record_batch(30, 5_000, 8, 0);
            t1.absorb(&rec);
        });

        let t2 = Arc::clone(&telemetry);
        m.thread(move || {
            let mut rec = t2.recorder();
            rec.record_query(15, 3_000, 0);
            rec.record_scan(25, 4_000, 12);
            rec.record_failed(9_000);
            t2.absorb(&rec);
        });

        let t3 = Arc::clone(&telemetry);
        m.thread(move || {
            // A mid-run snapshot must see a consistent prefix of the
            // absorbed recorders, never torn state; the lock discipline
            // is what the explorer is exercising here.
            let snap = t3.snapshot();
            assert!(snap.ingest.count <= 2);
            assert!(snap.query.count <= 1);
        });

        m.after(move || {
            let snap = telemetry.snapshot();
            assert_eq!(snap.ingest.count, 2, "ingest samples lost in merge");
            assert_eq!(snap.batch.count, 1, "batch samples lost in merge");
            assert_eq!(snap.query.count, 1, "query samples lost in merge");
            assert_eq!(snap.scan.count, 1, "scan samples lost in merge");
            assert_eq!(snap.retry.count, 1, "retry samples lost in merge");
            assert_eq!(snap.failed.count, 1, "failed samples lost in merge");
            // record_batch credits `fill` kvps to the ingest series:
            // 2 singleton ingests + one 8-kvp flush, all in window 0.
            assert_eq!(snap.ingest_windows.first().copied(), Some(10));
        });
    });

    assert!(report.schedules >= SCHEDULES);
    assert!(report.choice_points > 0, "model never hit a choice point");
    assert!(
        report.is_race_free(),
        "telemetry merge raced: {:?}",
        report.races
    );
}

/// Two writers insert disjoint key ranges into the real `MemTable`
/// (RwLock-over-BTreeMap behind `simkit::sync`) while a reader does
/// point lookups and size estimates mid-insert. The after-check asserts
/// every insert is visible at the max snapshot.
#[test]
fn memtable_concurrent_insert_scan_is_race_free() {
    let report = Explorer::new(0x3e3_7ab1e, SCHEDULES).explore(|m| {
        let table = Arc::new(MemTable::new());

        let w1 = Arc::clone(&table);
        m.thread(move || {
            for i in 0u64..4 {
                let key = format!("a{i}");
                // Odd sequence numbers keep the two writers' internal
                // keys disjoint even if user keys ever collided.
                w1.add(key.as_bytes(), 1 + 2 * i, ValueKind::Put, b"va");
            }
        });

        let w2 = Arc::clone(&table);
        m.thread(move || {
            for i in 0u64..4 {
                let key = format!("b{i}");
                w2.add(key.as_bytes(), 2 + 2 * i, ValueKind::Put, b"vb");
            }
        });

        let r = Arc::clone(&table);
        m.thread(move || {
            // Mid-insert reads: each key is either absent or fully
            // written, never torn.
            for i in 0u64..4 {
                let key = format!("a{i}");
                if let Some(found) = r.get(key.as_bytes(), u64::MAX) {
                    assert_eq!(found.as_deref(), Some(&b"va"[..]));
                }
            }
            let _ = r.approximate_bytes();
            let _ = r.len();
        });

        m.after(move || {
            assert_eq!(table.len(), 8, "memtable lost inserts");
            for i in 0u64..4 {
                for (prefix, value) in [("a", &b"va"[..]), ("b", &b"vb"[..])] {
                    let key = format!("{prefix}{i}");
                    let found = table
                        .get(key.as_bytes(), u64::MAX)
                        .unwrap_or_else(|| panic!("key {key} missing after join"));
                    assert_eq!(found.as_deref(), Some(value));
                }
            }
            assert!(table.approximate_bytes() > 0);
        });
    });

    assert!(report.schedules >= SCHEDULES);
    assert!(report.choice_points > 0, "model never hit a choice point");
    assert!(report.is_race_free(), "memtable raced: {:?}", report.races);
}

/// Closed model of the cluster put-path counter discipline
/// (`gateway::cluster`): each put bumps its node's write counter and
/// *then* the cluster-wide replica counter, both with Release; the
/// stats reader loads the replica total first with Acquire. Under that
/// discipline the invariant `sum(node_writes) >= replica_writes` holds
/// in every interleaving, which is what licenses the Relaxed/monotone
/// counters elsewhere in the cluster stats path.
#[test]
fn cluster_replica_counter_discipline_holds() {
    let report = Explorer::new(0xc105_7e12, SCHEDULES).explore(|m| {
        let node0 = Arc::new(AtomicU64::new(0));
        let node1 = Arc::new(AtomicU64::new(0));
        let replica = Arc::new(AtomicU64::new(0));

        let (n0, rep0) = (Arc::clone(&node0), Arc::clone(&replica));
        m.thread(move || {
            for _ in 0..3 {
                // ordering: Release publishes the node bump before the
                // replica total the reader anchors on.
                n0.fetch_add(1, Ordering::Release);
                replica_bump(&rep0);
            }
        });

        let (n1, rep1) = (Arc::clone(&node1), Arc::clone(&replica));
        m.thread(move || {
            for _ in 0..3 {
                // ordering: Release, same discipline as the other node.
                n1.fetch_add(1, Ordering::Release);
                replica_bump(&rep1);
            }
        });

        let (r0, r1, rep) = (Arc::clone(&node0), Arc::clone(&node1), Arc::clone(&replica));
        m.thread(move || {
            for _ in 0..4 {
                // ordering: Acquire on the replica total first; the
                // node loads that follow are then guaranteed to see at
                // least the bumps that preceded each counted replica
                // write, so the sum can never undercount the total.
                let total = rep.load(Ordering::Acquire);
                // ordering: Acquire pairs with the nodes' Release bumps.
                let sum = r0.load(Ordering::Acquire) + r1.load(Ordering::Acquire);
                assert!(
                    sum >= total,
                    "node sum {sum} undercounts replica total {total}"
                );
            }
        });

        m.after(move || {
            // ordering: post-join, Relaxed is sufficient — the explorer
            // has already joined every model thread.
            let total = replica.load(Ordering::Relaxed);
            let sum = node0.load(Ordering::Relaxed) + node1.load(Ordering::Relaxed);
            assert_eq!(total, 6);
            assert_eq!(sum, 6);
        });
    });

    assert!(report.schedules >= SCHEDULES);
    assert!(report.choice_points > 0, "model never hit a choice point");
    assert!(
        report.is_race_free(),
        "cluster counter model raced: {:?}",
        report.races
    );
}

/// ordering: Release publishes the preceding node-counter bump to the
/// reader's Acquire load of the replica total.
fn replica_bump(replica: &AtomicU64) {
    replica.fetch_add(1, Ordering::Release);
}

/// Model of the ycsb insert path: key allocation after the AcqRel ->
/// Relaxed downgrade of `key_sequence` (see EXPERIMENTS.md), and the real
/// `ycsb::workload::InsertWatermark` behind `Latest` reads. Allocation is
/// pure `fetch_add` uniqueness — no payload is published through the
/// counter itself. Each inserter writes the payload slot its allocated id
/// names; if Relaxed `fetch_add` could ever hand out a duplicate id, two
/// threads would hit the same unsynchronized slot and the detector would
/// flag a write-write race. The watermark moves only across a contiguous
/// run of completed ids, so a concurrent reader may dereference every
/// slot below it — exactly the key `next_keynum` may hand a `Latest`
/// read. (A `fetch_max` watermark admitted holes: it could pass an id
/// whose insert was still in flight, and this reader would race on it.)
#[test]
fn ycsb_insert_ack_downgrade_is_race_free() {
    use simkit::sync::RaceCell;
    use ycsb::workload::InsertWatermark;

    let report = Explorer::new(0x5e9_4110c, SCHEDULES).explore(|m| {
        let key_sequence = Arc::new(AtomicU64::new(0));
        let watermark = Arc::new(InsertWatermark::new(0));
        let slots: Arc<Vec<RaceCell<u64>>> =
            Arc::new((0..4).map(|_| RaceCell::named("insert-slot", 0)).collect());

        for _ in 0..2 {
            let seq = Arc::clone(&key_sequence);
            let ack = Arc::clone(&watermark);
            let sl = Arc::clone(&slots);
            m.thread(move || {
                for _ in 0..2 {
                    // ordering: Relaxed — pure id allocation, no payload
                    // is published through this counter (the downgrade
                    // under test).
                    let id = seq.fetch_add(1, Ordering::Relaxed);
                    sl[id as usize].set(id + 100);
                    ack.complete(id);
                }
            });
        }

        let ack = Arc::clone(&watermark);
        let seq = Arc::clone(&key_sequence);
        let sl = Arc::clone(&slots);
        m.thread(move || {
            let below = ack.completed_below();
            assert!(below <= 4, "watermark overran the id space: {below}");
            for id in 0..below {
                assert_eq!(
                    sl[id as usize].get(),
                    id + 100,
                    "slot {id} under the watermark"
                );
            }
            // ordering: Relaxed — monotone allocation counter, bounds
            // check only.
            assert!(seq.load(Ordering::Relaxed) <= 4);
        });

        m.after(move || {
            // ordering: post-join reads; every id was allocated exactly
            // once (unique slots, checked below) and completed.
            assert_eq!(key_sequence.load(Ordering::Relaxed), 4);
            assert_eq!(watermark.completed_below(), 4);
            for id in 0..4u64 {
                assert_eq!(
                    slots[id as usize].get(),
                    id + 100,
                    "slot {id} written zero or multiple times"
                );
            }
        });
    });

    assert!(report.schedules >= SCHEDULES);
    assert!(report.choice_points > 0, "model never hit a choice point");
    assert!(
        report.is_race_free(),
        "insert ack model raced: {:?}",
        report.races
    );
}

/// Closed model of the topology migration protocol
/// (`gateway::topology`): two writers run the epoch-fenced put path
/// (route → replicate → delta-capture → epoch re-check → re-replicate)
/// while a migrator runs register-delta → snapshot-copy → finalize
/// (drain delta + deactivate + swap route, all under the route lock).
/// The after-check asserts the zero-acked-loss invariant: every write
/// acknowledged under *any* epoch is present on the post-migration
/// replica, whichever interleaving the explorer picked. Duplicated
/// arrivals are legal (puts are idempotent); absence is the bug.
#[test]
fn topology_migration_epoch_fence_loses_no_acked_writes() {
    use simkit::sync::Mutex;

    // (epoch, replica set) — the model's RegionMap. Node 0 is the
    // migration source, node 1 the destination.
    type Route = Mutex<(u64, Vec<usize>)>;
    type Delta = Mutex<(bool, Vec<u64>)>;

    let report = Explorer::new(0x0007_0050_10e9, SCHEDULES).explore(|m| {
        let route: Arc<Route> = Arc::new(Mutex::new((0, vec![0])));
        let stores: Arc<Vec<Mutex<Vec<u64>>>> =
            Arc::new((0..2).map(|_| Mutex::new(Vec::new())).collect());
        let registry: Arc<Mutex<Option<Arc<Delta>>>> = Arc::new(Mutex::new(None));

        for id in [100u64, 200] {
            let (route, stores, registry) = (
                Arc::clone(&route),
                Arc::clone(&stores),
                Arc::clone(&registry),
            );
            m.thread(move || {
                // Route + replicate at the captured epoch.
                let (e0, mut handled) = route.lock().clone();
                for &n in &handled {
                    stores[n].lock().push(id);
                }
                // Fence: feed any registered in-flight migration delta,
                // then re-check the epoch; a bump means the replica set
                // moved underneath us — re-replicate to the new members.
                let ctx = registry.lock().clone();
                if let Some(ctx) = ctx {
                    let mut delta = ctx.lock();
                    if delta.0 {
                        delta.1.push(id);
                    }
                }
                let (e1, current) = route.lock().clone();
                if e1 != e0 {
                    let missing: Vec<usize> = current
                        .iter()
                        .copied()
                        .filter(|n| !handled.contains(n))
                        .collect();
                    for n in missing {
                        stores[n].lock().push(id);
                        handled.push(n);
                    }
                }
            });
        }

        let (mroute, mstores, mregistry) = (
            Arc::clone(&route),
            Arc::clone(&stores),
            Arc::clone(&registry),
        );
        m.thread(move || {
            // Register the delta *before* pinning the snapshot: a writer
            // that missed the registry has already replicated, so the
            // snapshot covers it.
            let ctx: Arc<Delta> = Arc::new(Mutex::new((true, Vec::new())));
            *mregistry.lock() = Some(Arc::clone(&ctx));
            let snapshot: Vec<u64> = mstores[0].lock().clone();
            for v in snapshot {
                mstores[1].lock().push(v);
            }
            // Finalize under the route lock: deactivate + drain the
            // delta, then swap the replica set and bump the epoch. A
            // writer that found the delta inactive must observe this
            // bump at its re-check — its route.lock() blocks until here.
            let mut r = mroute.lock();
            let mut delta = ctx.lock();
            delta.0 = false;
            let rows = std::mem::take(&mut delta.1);
            drop(delta);
            for v in rows {
                mstores[1].lock().push(v);
            }
            *r = (r.0 + 1, vec![1]);
        });

        m.after(move || {
            let (epoch, replicas) = route.lock().clone();
            assert_eq!(epoch, 1, "migration must publish exactly one bump");
            assert_eq!(replicas, vec![1], "route must point at the dest");
            let dest = stores[1].lock().clone();
            for id in [100u64, 200] {
                assert!(
                    dest.contains(&id),
                    "acked write {id} lost across the migration: dest={dest:?}"
                );
            }
        });
    });

    assert!(report.schedules >= SCHEDULES);
    assert!(report.choice_points > 0, "model never hit a choice point");
    assert!(
        report.is_race_free(),
        "migration fence model raced: {:?}",
        report.races
    );
}
