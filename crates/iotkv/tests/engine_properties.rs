//! Property-based tests of the storage engine: random operation
//! sequences against a BTreeMap oracle, through flush, compaction, and
//! reopen — `flush()` and reopen race the background maintenance thread.

use iotkv::{Db, Options, WriteBatch};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Batch(Vec<(u16, u8, bool)>),
    Flush,
    Reopen,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 512, v)),
        2 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
        1 => proptest::collection::vec((any::<u16>(), any::<u8>(), any::<bool>()), 1..20)
            .prop_map(|ops| Op::Batch(
                ops.into_iter().map(|(k, v, del)| (k % 512, v, del)).collect()
            )),
        1 => Just(Op::Flush),
        1 => Just(Op::Reopen),
    ]
}

fn key(k: u16) -> Vec<u8> {
    format!("key-{k:05}").into_bytes()
}

fn value(k: u16, v: u8) -> Vec<u8> {
    // Values long enough to exercise multi-block tables.
    format!("value-{k}-{v}-{}", "x".repeat(v as usize % 50)).into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_ops_match_oracle(
        ops in proptest::collection::vec(op(), 1..120),
        seed in any::<u32>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "iotkv-prop-{seed}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut db = Some(Db::open(&dir, Options::small()).unwrap());
        let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for op in &ops {
            let handle = db.as_ref().expect("open");
            match op {
                Op::Put(k, v) => {
                    handle.put(&key(*k), &value(*k, *v)).unwrap();
                    oracle.insert(key(*k), value(*k, *v));
                }
                Op::Delete(k) => {
                    handle.delete(&key(*k)).unwrap();
                    oracle.remove(&key(*k));
                }
                Op::Batch(entries) => {
                    let mut batch = WriteBatch::new();
                    for (k, v, del) in entries {
                        if *del {
                            batch.delete(&key(*k));
                        } else {
                            batch.put(&key(*k), &value(*k, *v));
                        }
                    }
                    handle.write(batch).unwrap();
                    for (k, v, del) in entries {
                        if *del {
                            oracle.remove(&key(*k));
                        } else {
                            oracle.insert(key(*k), value(*k, *v));
                        }
                    }
                }
                Op::Flush => handle.flush().unwrap(),
                Op::Reopen => {
                    drop(db.take());
                    db = Some(Db::open(&dir, Options::small()).unwrap());
                }
            }
        }

        let handle = db.as_ref().expect("open");
        // Full scan equals the oracle.
        let rows = handle.scan(b"key-", b"key-~", usize::MAX).unwrap();
        prop_assert_eq!(rows.len(), oracle.len());
        for ((k, v), (ok, ov)) in rows.iter().zip(oracle.iter()) {
            prop_assert_eq!(k.as_ref(), ok.as_slice());
            prop_assert_eq!(v.as_ref(), ov.as_slice());
        }
        // Random gets agree (both hits and misses).
        for probe in 0..64u16 {
            let k = key(probe * 8 % 512);
            let got = handle.get(&k).unwrap();
            prop_assert_eq!(got.as_deref(), oracle.get(&k).map(|v| v.as_slice()));
        }
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}
