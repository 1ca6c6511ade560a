//! The YCSB core workload: `user###` records with `fieldN` columns and a
//! configurable mix of reads, updates, inserts, scans, and
//! read-modify-writes. Presets A–F match the upstream workload files.

use crate::generator::{
    DiscreteGenerator, Generator, LatestGenerator, ScrambledZipfianGenerator, UniformGenerator,
};
use crate::measurement::OpKind;
use crate::store::{FieldMap, KvStore, StoreResult};
use bytes::Bytes;
use simkit::rng::Stream;
use simkit::sync::{AtomicU64, Mutex, Ordering};
use std::collections::BTreeSet;

/// How transaction keys are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestDistribution {
    Uniform,
    Zipfian,
    Latest,
}

/// How insert keys are ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOrder {
    /// Keys are hashed (default): inserts scatter across the keyspace.
    Hashed,
    /// Keys are zero-padded sequence numbers: inserts are an append.
    Ordered,
}

/// Core workload configuration (the subset of YCSB's `workload` properties
/// this port supports).
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    pub table: String,
    pub record_count: u64,
    pub field_count: usize,
    pub field_length: usize,
    pub read_proportion: f64,
    pub update_proportion: f64,
    pub insert_proportion: f64,
    pub scan_proportion: f64,
    pub read_modify_write_proportion: f64,
    pub request_distribution: RequestDistribution,
    pub insert_order: InsertOrder,
    pub max_scan_length: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            table: "usertable".to_string(),
            record_count: 1000,
            field_count: 10,
            field_length: 100,
            read_proportion: 0.95,
            update_proportion: 0.05,
            insert_proportion: 0.0,
            scan_proportion: 0.0,
            read_modify_write_proportion: 0.0,
            request_distribution: RequestDistribution::Zipfian,
            insert_order: InsertOrder::Hashed,
            max_scan_length: 100,
        }
    }
}

impl WorkloadConfig {
    /// Workload A: update heavy (50/50 read/update).
    pub fn preset_a() -> Self {
        WorkloadConfig {
            read_proportion: 0.5,
            update_proportion: 0.5,
            ..Default::default()
        }
    }
    /// Workload B: read mostly (95/5 read/update).
    pub fn preset_b() -> Self {
        WorkloadConfig::default()
    }
    /// Workload C: read only.
    pub fn preset_c() -> Self {
        WorkloadConfig {
            read_proportion: 1.0,
            update_proportion: 0.0,
            ..Default::default()
        }
    }
    /// Workload D: read latest (95/5 read/insert, latest distribution).
    pub fn preset_d() -> Self {
        WorkloadConfig {
            read_proportion: 0.95,
            update_proportion: 0.0,
            insert_proportion: 0.05,
            request_distribution: RequestDistribution::Latest,
            ..Default::default()
        }
    }
    /// Workload E: short ranges (95/5 scan/insert).
    pub fn preset_e() -> Self {
        WorkloadConfig {
            read_proportion: 0.0,
            update_proportion: 0.0,
            scan_proportion: 0.95,
            insert_proportion: 0.05,
            insert_order: InsertOrder::Ordered,
            ..Default::default()
        }
    }
    /// Workload F: read-modify-write (50/50 read/RMW).
    pub fn preset_f() -> Self {
        WorkloadConfig {
            read_proportion: 0.5,
            update_proportion: 0.0,
            read_modify_write_proportion: 0.5,
            ..Default::default()
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        let total = self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.scan_proportion
            + self.read_modify_write_proportion;
        if (total - 1.0).abs() > 1e-6 {
            return Err(format!(
                "operation proportions sum to {total}, expected 1.0"
            ));
        }
        if self.record_count == 0 {
            return Err("record_count must be positive".into());
        }
        if self.field_count == 0 || self.max_scan_length == 0 {
            return Err("field_count and max_scan_length must be positive".into());
        }
        Ok(())
    }
}

fn fnv64(v: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..8 {
        h ^= (v >> (i * 8)) & 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

enum KeyChooser {
    Uniform(UniformGenerator),
    Zipfian(ScrambledZipfianGenerator),
    Latest(LatestGenerator),
}

/// The insert watermark behind `Latest` reads — YCSB's
/// `AcknowledgedCounterGenerator`. Inserts complete out of order; the
/// watermark only moves across a contiguous run of completed key numbers,
/// so no key below it has an insert still in flight.
pub struct InsertWatermark {
    /// Every key number below this one has completed.
    below: AtomicU64,
    /// The lowest key number still in flight, and the completed ones
    /// above it.
    window: Mutex<(u64, BTreeSet<u64>)>,
}

impl InsertWatermark {
    /// A watermark with key numbers `0..loaded` already complete.
    pub fn new(loaded: u64) -> Self {
        InsertWatermark {
            below: AtomicU64::new(loaded),
            window: Mutex::new((loaded, BTreeSet::new())),
        }
    }

    /// Every key number below the returned one has completed.
    pub fn completed_below(&self) -> u64 {
        // ordering: Acquire — pairs with the Release store in `complete`:
        // every insert below the watermark happens-before this load.
        self.below.load(Ordering::Acquire)
    }

    /// Records that the insert of `keynum` is over and advances the
    /// watermark across every contiguous completed key number.
    pub fn complete(&self, keynum: u64) {
        let mut window = self.window.lock();
        let (next, done) = &mut *window;
        done.insert(keynum);
        while done.remove(next) {
            *next += 1;
        }
        // ordering: Release — publishes the inserts below `next` to
        // `completed_below`; stored under the lock, so it never regresses.
        self.below.store(*next, Ordering::Release);
    }
}

/// The shared, thread-safe core workload.
pub struct CoreWorkload {
    config: WorkloadConfig,
    /// Next key number handed to an insert.
    key_sequence: AtomicU64,
    /// Key numbers whose insert has completed (drives Latest).
    acknowledged: InsertWatermark,
    key_chooser: Mutex<KeyChooser>,
    op_chooser: Mutex<DiscreteGenerator<OpKind>>,
    scan_length: Mutex<UniformGenerator>,
}

impl CoreWorkload {
    pub fn new(config: WorkloadConfig) -> Result<CoreWorkload, String> {
        config.validate()?;
        let key_chooser = match config.request_distribution {
            RequestDistribution::Uniform => {
                KeyChooser::Uniform(UniformGenerator::new(0, config.record_count - 1))
            }
            RequestDistribution::Zipfian => {
                // Size the universe for records inserted during the run too,
                // as YCSB does (expected new keys ≈ op insert share); we use
                // the initial record count — inserts also extend ack below.
                KeyChooser::Zipfian(ScrambledZipfianGenerator::new(config.record_count))
            }
            RequestDistribution::Latest => {
                KeyChooser::Latest(LatestGenerator::new(config.record_count))
            }
        };
        let op_chooser = DiscreteGenerator::new(vec![
            (config.read_proportion, OpKind::Read),
            (config.update_proportion, OpKind::Update),
            (config.insert_proportion, OpKind::Insert),
            (config.scan_proportion, OpKind::Scan),
            (config.read_modify_write_proportion, OpKind::ReadModifyWrite),
        ]);
        Ok(CoreWorkload {
            key_sequence: AtomicU64::new(config.record_count),
            acknowledged: InsertWatermark::new(config.record_count),
            key_chooser: Mutex::new(key_chooser),
            op_chooser: Mutex::new(op_chooser),
            scan_length: Mutex::new(UniformGenerator::new(1, config.max_scan_length as u64)),
            config,
        })
    }

    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The record key for a key number.
    pub fn build_key(&self, keynum: u64) -> String {
        match self.config.insert_order {
            InsertOrder::Hashed => format!("user{}", fnv64(keynum)),
            InsertOrder::Ordered => format!("user{keynum:019}"),
        }
    }

    /// A full row of random field values.
    pub fn build_values(&self, rng: &mut Stream) -> FieldMap {
        (0..self.config.field_count)
            .map(|i| {
                let mut buf = vec![0u8; self.config.field_length];
                for b in buf.iter_mut() {
                    *b = b' ' + (rng.next_below(95) as u8);
                }
                (format!("field{i}"), Bytes::from(buf))
            })
            .collect()
    }

    fn build_one_field(&self, rng: &mut Stream) -> FieldMap {
        let field = rng.next_below(self.config.field_count as u64) as usize;
        let mut buf = vec![0u8; self.config.field_length];
        for b in buf.iter_mut() {
            *b = b' ' + (rng.next_below(95) as u8);
        }
        vec![(format!("field{field}"), Bytes::from(buf))]
    }

    /// Chooses a key number for a transaction, never exceeding the highest
    /// acknowledged insert.
    fn next_keynum(&self, rng: &mut Stream) -> u64 {
        // `validate` keeps record_count, and with it the watermark, above 0.
        let max = self.acknowledged.completed_below() - 1;
        let mut chooser = self.key_chooser.lock();
        let num = match &mut *chooser {
            KeyChooser::Uniform(g) => g.next_value(rng),
            KeyChooser::Zipfian(g) => g.next_value(rng),
            KeyChooser::Latest(g) => {
                g.set_max(max);
                g.next_value(rng)
            }
        };
        num.min(max)
    }

    /// Inserts the record for key number `keynum` (load phase).
    pub fn insert_record(
        &self,
        store: &dyn KvStore,
        rng: &mut Stream,
        keynum: u64,
    ) -> StoreResult<()> {
        let key = self.build_key(keynum);
        let values = self.build_values(rng);
        store.insert(&self.config.table, &key, &values)
    }

    /// Executes one transaction; returns the kind and whether it succeeded.
    pub fn do_transaction(&self, store: &dyn KvStore, rng: &mut Stream) -> (OpKind, bool) {
        let op = self.op_chooser.lock().next_choice(rng);
        let ok = match op {
            OpKind::Read => {
                let key = self.build_key(self.next_keynum(rng));
                store.read(&self.config.table, &key, None).is_ok()
            }
            OpKind::Update => {
                let key = self.build_key(self.next_keynum(rng));
                let values = self.build_one_field(rng);
                store.update(&self.config.table, &key, &values).is_ok()
            }
            OpKind::Insert => {
                // ordering: Relaxed — pure id allocation: uniqueness comes
                // from the RMW itself, and nothing is published until the
                // insert completes and the watermark moves past it below.
                // (Downgraded from AcqRel; race-check insert model passes —
                // see EXPERIMENTS.md.)
                let keynum = self.key_sequence.fetch_add(1, Ordering::Relaxed);
                let ok = self.insert_record(store, rng, keynum).is_ok();
                // A failed insert is over too (YCSB acknowledges in
                // `finally`): holding the watermark below it would freeze
                // `Latest` for the rest of the run.
                self.acknowledged.complete(keynum);
                ok
            }
            OpKind::Scan => {
                let key = self.build_key(self.next_keynum(rng));
                let len = self.scan_length.lock().next_value(rng) as usize;
                // Stream the scan: YCSB only iterates the result set, so
                // there is no reason to materialize it first.
                store
                    .scan_visit(&self.config.table, &key, len, None, &mut |_, _| true)
                    .is_ok()
            }
            OpKind::ReadModifyWrite => {
                let key = self.build_key(self.next_keynum(rng));
                let read_ok = store.read(&self.config.table, &key, None).is_ok();
                let values = self.build_one_field(rng);
                read_ok && store.update(&self.config.table, &key, &values).is_ok()
            }
            OpKind::Delete => unreachable!("core workload never issues deletes"),
        };
        (op, ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;

    fn load(workload: &CoreWorkload, store: &MemoryStore, rng: &mut Stream) {
        for i in 0..workload.config().record_count {
            workload.insert_record(store, rng, i).unwrap();
        }
    }

    #[test]
    fn watermark_waits_for_an_insert_still_in_flight() {
        let w = InsertWatermark::new(10);
        assert_eq!(w.completed_below(), 10);
        // Key 11 completes while key 10 is still in flight.
        w.complete(11);
        assert_eq!(w.completed_below(), 10, "key 10 is not readable yet");
        w.complete(10);
        assert_eq!(w.completed_below(), 12);
    }

    #[test]
    fn presets_validate() {
        for preset in [
            WorkloadConfig::preset_a(),
            WorkloadConfig::preset_b(),
            WorkloadConfig::preset_c(),
            WorkloadConfig::preset_d(),
            WorkloadConfig::preset_e(),
            WorkloadConfig::preset_f(),
        ] {
            preset.validate().unwrap();
            CoreWorkload::new(preset).unwrap();
        }
    }

    #[test]
    fn bad_proportions_rejected() {
        let cfg = WorkloadConfig {
            read_proportion: 0.9,
            update_proportion: 0.0,
            ..Default::default()
        };
        assert!(CoreWorkload::new(cfg).is_err());
    }

    #[test]
    fn hashed_vs_ordered_keys() {
        let hashed = CoreWorkload::new(WorkloadConfig::default()).unwrap();
        let ordered = CoreWorkload::new(WorkloadConfig {
            insert_order: InsertOrder::Ordered,
            ..Default::default()
        })
        .unwrap();
        assert_ne!(hashed.build_key(1), hashed.build_key(2));
        assert_eq!(ordered.build_key(7), "user0000000000000000007");
        assert!(ordered.build_key(1) < ordered.build_key(2));
    }

    #[test]
    fn load_then_read_only_run_succeeds() {
        let mut cfg = WorkloadConfig::preset_c();
        cfg.record_count = 200;
        cfg.field_count = 3;
        cfg.field_length = 8;
        let w = CoreWorkload::new(cfg).unwrap();
        let store = MemoryStore::new();
        let mut rng = Stream::new(1);
        load(&w, &store, &mut rng);
        assert_eq!(store.row_count("usertable"), 200);
        for _ in 0..500 {
            let (op, ok) = w.do_transaction(&store, &mut rng);
            assert_eq!(op, OpKind::Read);
            assert!(ok, "every read of a loaded record must hit");
        }
    }

    #[test]
    fn mixed_workload_runs_all_ops() {
        let mut cfg = WorkloadConfig::preset_a();
        cfg.record_count = 100;
        cfg.field_count = 2;
        cfg.field_length = 4;
        let w = CoreWorkload::new(cfg).unwrap();
        let store = MemoryStore::new();
        let mut rng = Stream::new(2);
        load(&w, &store, &mut rng);
        let mut reads = 0;
        let mut updates = 0;
        for _ in 0..1000 {
            let (op, ok) = w.do_transaction(&store, &mut rng);
            assert!(ok);
            match op {
                OpKind::Read => reads += 1,
                OpKind::Update => updates += 1,
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert!((400..600).contains(&reads), "reads={reads}");
        assert!((400..600).contains(&updates), "updates={updates}");
    }

    #[test]
    fn insert_heavy_workload_extends_keyspace() {
        let cfg = WorkloadConfig {
            read_proportion: 0.5,
            update_proportion: 0.0,
            insert_proportion: 0.5,
            record_count: 50,
            field_count: 1,
            field_length: 4,
            request_distribution: RequestDistribution::Latest,
            ..Default::default()
        };
        let w = CoreWorkload::new(cfg).unwrap();
        let store = MemoryStore::new();
        let mut rng = Stream::new(3);
        load(&w, &store, &mut rng);
        for _ in 0..400 {
            let (_, ok) = w.do_transaction(&store, &mut rng);
            assert!(ok);
        }
        assert!(store.row_count("usertable") > 150, "inserts landed");
    }

    #[test]
    fn scan_workload_returns_ranges() {
        let mut cfg = WorkloadConfig::preset_e();
        cfg.record_count = 300;
        cfg.field_count = 1;
        cfg.field_length = 4;
        cfg.max_scan_length = 10;
        let w = CoreWorkload::new(cfg).unwrap();
        let store = MemoryStore::new();
        let mut rng = Stream::new(4);
        load(&w, &store, &mut rng);
        let mut scans = 0;
        for _ in 0..200 {
            let (op, ok) = w.do_transaction(&store, &mut rng);
            assert!(ok);
            if op == OpKind::Scan {
                scans += 1;
            }
        }
        assert!(scans > 150, "scans dominated: {scans}");
    }
}
