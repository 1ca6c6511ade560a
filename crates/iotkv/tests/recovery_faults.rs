//! Crash-consistency and fault-injection tests for the storage engine:
//! torn WAL tails, corrupted tables and manifests, repeated
//! kill-and-reopen cycles checked against an in-memory oracle.

use iotkv::{Db, Error, Options, SyncMode};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "iotkv-faults-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    fs::remove_dir_all(&d).ok();
    d
}

fn opts() -> Options {
    Options::small()
}

#[test]
fn torn_wal_tail_loses_only_the_torn_record() {
    let dir = tmpdir("torn");
    {
        let db = Db::open(&dir, opts()).unwrap();
        for i in 0..100 {
            db.put(format!("key-{i:04}").as_bytes(), b"v").unwrap();
        }
    }
    // Truncate the live WAL by a few bytes: the final record tears.
    let wal = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().map(|e| e == "wal").unwrap_or(false))
        .max()
        .expect("a wal exists");
    let len = fs::metadata(&wal).unwrap().len();
    assert!(len > 10);
    let f = fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let db = Db::open(&dir, opts()).unwrap();
    // Everything but (at most) the torn tail batch survives.
    let rows = db.scan(b"key-", b"key-~", usize::MAX).unwrap();
    assert!(
        rows.len() >= 99,
        "only the torn record may be lost, got {}",
        rows.len()
    );
    assert!(rows.len() <= 100);
    // The engine is fully writable afterwards.
    db.put(b"post-recovery", b"ok").unwrap();
    assert!(db.get(b"post-recovery").unwrap().is_some());
    drop(db);
    fs::remove_dir_all(dir).ok();
}

#[test]
fn corrupted_manifest_fails_open_loudly() {
    let dir = tmpdir("manifest");
    {
        let db = Db::open(&dir, opts()).unwrap();
        for i in 0..2000 {
            db.put(format!("key-{i:05}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap(); // writes a manifest
    }
    let manifest = dir.join("MANIFEST");
    let mut data = fs::read(&manifest).unwrap();
    let n = data.len();
    data[n / 2] ^= 0xFF;
    fs::write(&manifest, &data).unwrap();
    match Db::open(&dir, opts()) {
        Err(Error::Corruption(_)) => {}
        Err(other) => panic!("expected corruption error, got {other}"),
        Ok(_) => panic!("open must fail on a corrupt manifest"),
    }
    fs::remove_dir_all(dir).ok();
}

#[test]
fn corrupted_table_detected_on_read() {
    let dir = tmpdir("table");
    {
        let db = Db::open(&dir, opts()).unwrap();
        for i in 0..3000 {
            db.put(format!("key-{i:05}").as_bytes(), &[7u8; 64])
                .unwrap();
        }
        db.flush().unwrap();
    }
    // Flip bytes in the middle of the largest table file (data blocks).
    let table = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().map(|e| e == "sst").unwrap_or(false))
        .max_by_key(|p| fs::metadata(p).unwrap().len())
        .expect("a table exists");
    let mut data = fs::read(&table).unwrap();
    for b in &mut data[100..120] {
        *b ^= 0x5A;
    }
    fs::write(&table, &data).unwrap();

    let db = Db::open(&dir, opts()).unwrap();
    // A full scan must either surface corruption or (if the flipped block
    // belongs to another file) succeed; it must never return garbage rows.
    match db.scan(b"key-", b"key-~", usize::MAX) {
        Err(Error::Corruption(_)) => {}
        Ok(rows) => {
            for (k, _) in rows {
                assert!(k.starts_with(b"key-"), "garbage key {k:?}");
            }
        }
        Err(e) => panic!("unexpected error kind: {e}"),
    }
    drop(db);
    fs::remove_dir_all(dir).ok();
}

#[test]
fn kill_reopen_cycles_match_oracle() {
    let dir = tmpdir("cycles");
    let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut rng = simkit::rng::Stream::new(0xFA117);
    for cycle in 0..6 {
        let db = Db::open(&dir, opts()).unwrap();
        for _ in 0..400 {
            let key = format!("key-{:04}", rng.next_below(600));
            if rng.chance(0.2) {
                db.delete(key.as_bytes()).unwrap();
                oracle.remove(key.as_bytes());
            } else {
                let value = format!("v-{cycle}-{}", rng.next_u64());
                db.put(key.as_bytes(), value.as_bytes()).unwrap();
                oracle.insert(key.into_bytes(), value.into_bytes());
            }
        }
        if cycle % 2 == 0 {
            db.flush().unwrap();
        }
        // Drop without explicit flush: WAL replay must cover the rest.
        drop(db);
    }
    let db = Db::open(&dir, opts()).unwrap();
    let rows = db.scan(b"key-", b"key-~", usize::MAX).unwrap();
    assert_eq!(rows.len(), oracle.len(), "row count matches oracle");
    for (k, v) in rows {
        assert_eq!(
            oracle.get(k.as_ref()).map(|v| v.as_slice()),
            Some(v.as_ref()),
            "key {:?}",
            String::from_utf8_lossy(&k)
        );
    }
    // Spot-check gets too.
    for (k, v) in oracle.iter().take(50) {
        assert_eq!(db.get(k).unwrap().unwrap().as_ref(), v.as_slice());
    }
    drop(db);
    fs::remove_dir_all(dir).ok();
}

#[test]
fn sync_modes_all_work() {
    for (name, sync) in [("none", SyncMode::None), ("group", SyncMode::GroupCommit)] {
        let dir = tmpdir(&format!("sync-{name}"));
        let mut o = opts();
        o.sync = sync;
        {
            let db = Db::open(&dir, o.clone()).unwrap();
            for i in 0..200 {
                db.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
            }
            let stats = db.stats();
            let syncs = match sync {
                SyncMode::None => 0,
                SyncMode::GroupCommit => stats.commit_groups,
            };
            assert_eq!(stats.wal_syncs, syncs, "{name}: one sync per group");
        }
        let db = Db::open(&dir, o).unwrap();
        assert_eq!(db.get(b"k000").unwrap().unwrap().as_ref(), b"v");
        assert_eq!(db.get(b"k199").unwrap().unwrap().as_ref(), b"v");
        drop(db);
        fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn stale_wals_are_garbage_collected() {
    let dir = tmpdir("walgc");
    {
        let db = Db::open(&dir, opts()).unwrap();
        for i in 0..5000 {
            db.put(format!("key-{i:05}").as_bytes(), &[3u8; 64])
                .unwrap();
        }
        db.flush().unwrap();
    }
    let wal_count = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().map(|x| x == "wal").unwrap_or(false))
        .count();
    // Only the live WAL (and possibly one in-rotation) remains.
    assert!(wal_count <= 2, "stale WALs deleted, found {wal_count}");
    fs::remove_dir_all(dir).ok();
}

#[test]
fn large_values_round_trip() {
    let dir = tmpdir("large");
    let db = Db::open(&dir, opts()).unwrap();
    let big = vec![0xEEu8; 300_000]; // dwarfs the small memtable budget
    db.put(b"big", &big).unwrap();
    db.put(b"small", b"s").unwrap();
    assert_eq!(db.get(b"big").unwrap().unwrap().len(), 300_000);
    db.flush().unwrap();
    assert_eq!(db.get(b"big").unwrap().unwrap().as_ref(), big.as_slice());
    assert_eq!(db.get(b"small").unwrap().unwrap().as_ref(), b"s");
    drop(db);
    fs::remove_dir_all(dir).ok();
}
