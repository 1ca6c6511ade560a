//! The database façade: ties the WAL, memtables, tables, versions, and
//! compaction together behind `put`/`get`/`delete`/`write`/`scan`.
//!
//! # Concurrency model
//!
//! * All writes funnel through a dedicated **commit thread** over a
//!   crossbeam channel. The thread drains the channel in groups, appends
//!   every batch in the group to the WAL, performs **one** flush/fsync per
//!   group (group commit), applies the batches to the memtable, publishes
//!   the new visible sequence number, and only then releases the waiting
//!   writers. Group commit is what amortises `fsync` under concurrency —
//!   the effect the paper's super-linear scaling region rides on.
//! * A write is two halves: [`Db::submit`] checks the database is open
//!   and healthy and enqueues the batch; [`PendingWrite::wait`] receives
//!   the commit thread's reply. [`Db::write`] (and so `put`) is the two
//!   back to back. A caller writing one batch to several databases — the
//!   cluster's replicas — submits to all of them first and then waits,
//!   so their commit threads run at the same time.
//! * Reads are lock-light: they load the visible sequence number, snapshot
//!   `Arc`s of the memtables and the current version, and proceed without
//!   blocking writers.
//! * Flush and compaction are scheduled by one function,
//!   `DbInner::maintenance_step`: flush *every* frozen memtable, then
//!   pick and run *at most one* compaction. Everyone who wants maintenance
//!   done calls it until it reports nothing left — the **background
//!   thread** every `Db` runs, [`Db::flush`] and [`Db::compact`] (the
//!   two ways to force a quiescent tree). The commit thread never runs a
//!   step: after a rotation it wakes the background thread and stalls if
//!   maintenance is too far behind (below). Flushing first means a chain
//!   of compactions never sits between a full memtable and the disk; when
//!   compaction is the bottleneck L0 therefore grows towards
//!   `l0_stall_trigger`, and the next L0→L1 job spreads its rewrite of L1
//!   over that many more tables.
//! * A step runs under the **maintenance claim** (`DbInner::maint`), held
//!   from before the pick until the new version is installed. One job at a
//!   time per `Db`: a frozen memtable or a table file is never handed to
//!   two workers, so no flush or compaction can be installed twice.
//! * The commit thread **stalls** after a rotation while L0 is at
//!   `l0_stall_trigger` or `MAX_FROZEN` memtables wait; it sleeps on
//!   `bg_cv` and every version install wakes it. `DbStats::stalls` is the
//!   time spent there, in whole milliseconds.
//! * Scans register a snapshot sequence number; compaction never discards
//!   a version some registered snapshot still needs.
//!
//! Lock order, outermost first: `maint` → `bg_mutex` → `imm` / `vset` /
//! `snapshots` / `bg_error` (the last four are leaves: none is held while
//! taking another lock).

use crate::batch::WriteBatch;
use crate::cache::BlockCache;
use crate::compaction::{merge_to_tables, pick_leveled, CompactionJob};
use crate::iter::{MergeIterator, Source, VisibleIter};
use crate::memtable::{InternalKey, MemTable};
use crate::sstable::Table;
use crate::version::{
    load_manifest, numbered_files, save_manifest, table_path, wal_path, FileKind, FileMeta,
    ManifestState, Version,
};
use crate::wal::{LogReader, LogWriter};
use crate::{Error, Options, Result, SeqNo, SyncMode};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use simkit::sync::{AtomicBool, AtomicU64, Ordering};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum batches merged into one commit group.
const MAX_GROUP: usize = 128;

/// Frozen memtables allowed to wait for a flush before writes stall.
const MAX_FROZEN: usize = 4;

/// Longest a thread sleeps on `bg_cv` before it looks again. Every state
/// change it waits for is announced through `DbInner::wake`; the bound
/// only keeps a missed announcement from becoming a hang.
const BG_RECHECK: Duration = Duration::from_millis(20);

/// Proof that the caller holds the maintenance claim.
type Claim<'a> = MutexGuard<'a, ()>;

enum CommitMsg {
    Write {
        batch: WriteBatch,
        reply: Sender<Result<()>>,
    },
    Flush {
        reply: Sender<Result<()>>,
    },
    Shutdown,
}

struct ImmMem {
    wal_id: u64,
    mem: Arc<MemTable>,
}

struct VersionState {
    version: Arc<Version>,
    /// Open table handles, shared with readers via a cheap `Arc` clone
    /// (gets/scans must not deep-copy the map on every operation);
    /// mutators copy-on-write through `Arc::make_mut`.
    tables: Arc<HashMap<u64, Arc<Table>>>,
    next_file_id: u64,
    log_number: u64,
}

#[derive(Default)]
struct Counters {
    puts: AtomicU64,
    deletes: AtomicU64,
    gets: AtomicU64,
    scans: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    bytes_flushed: AtomicU64,
    bytes_compacted: AtomicU64,
    wal_syncs: AtomicU64,
    commit_groups: AtomicU64,
    commit_batches: AtomicU64,
    stall_nanos: AtomicU64,
}

simkit::counters! {
    /// A point-in-time snapshot of engine statistics. The counters are
    /// what the benchmark exports as its engine section, in export order.
    /// No cells are generated: a snapshot is assembled from the atomics in
    /// `Counters`, the block cache's own tallies and the current version.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct DbStats {
        wal_syncs,
        flushes,
        compactions,
        bytes_flushed,
        bytes_compacted,
        cache_hits,
        cache_misses,
        commit_groups,
        commit_batches,
        /// Time the commit thread spent stalled on maintenance, in whole
        /// milliseconds.
        stalls,
        table_count;
        pub puts: u64,
        pub deletes: u64,
        pub gets: u64,
        pub scans: u64,
        pub level_shape: [usize; 8],
    }
}

impl DbStats {
    /// Sums another snapshot into this one (aggregating engines across
    /// cluster nodes, and iterations, for telemetry export).
    pub fn accumulate(&mut self, other: &DbStats) {
        self.add_counters(other);
        self.puts += other.puts;
        self.deletes += other.deletes;
        self.gets += other.gets;
        self.scans += other.scans;
        for (a, b) in self.level_shape.iter_mut().zip(other.level_shape) {
            *a += b;
        }
    }
}

struct DbInner {
    dir: PathBuf,
    opts: Options,
    cache: Arc<BlockCache>,
    mem: RwLock<Arc<MemTable>>,
    imm: Mutex<VecDeque<ImmMem>>,
    vset: Mutex<VersionState>,
    visible_seq: AtomicU64,
    /// Active scan snapshots: seq -> refcount.
    snapshots: Mutex<BTreeMap<SeqNo, usize>>,
    counters: Counters,
    closed: AtomicBool,
    /// The maintenance claim: whoever holds it is the only one flushing
    /// or compacting this database.
    maint: Mutex<()>,
    /// `bg_cv` announces both "a memtable was frozen" and "a version was
    /// installed"; waiters re-check their own condition under `bg_mutex`.
    bg_mutex: Mutex<()>,
    bg_cv: Condvar,
    bg_error: Mutex<Option<Error>>,
}

impl DbInner {
    fn check_bg_error(&self) -> Result<()> {
        match &*self.bg_error.lock() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Oldest sequence number any reader may still need.
    fn min_snapshot(&self) -> SeqNo {
        let snaps = self.snapshots.lock();
        snaps
            .keys()
            .next()
            .copied()
            // ordering: Acquire — pairs with the commit thread's Release
            // store; a snapshot taken at this seq must see the data it covers.
            .unwrap_or_else(|| self.visible_seq.load(Ordering::Acquire))
    }

    fn register_snapshot(&self, seq: SeqNo) {
        *self.snapshots.lock().entry(seq).or_insert(0) += 1;
    }

    fn release_snapshot(&self, seq: SeqNo) {
        let mut snaps = self.snapshots.lock();
        if let Some(count) = snaps.get_mut(&seq) {
            *count -= 1;
            if *count == 0 {
                snaps.remove(&seq);
            }
        }
    }

    fn alloc_file_id(&self) -> u64 {
        let mut vset = self.vset.lock();
        let id = vset.next_file_id;
        vset.next_file_id += 1;
        id
    }

    fn persist(&self, vset: &VersionState) -> Result<()> {
        save_manifest(
            &self.dir,
            &ManifestState {
                next_file_id: vset.next_file_id,
                // ordering: Acquire — pairs with the commit thread's Release
                // store so the manifest never records an unpublished seq.
                last_seq: self.visible_seq.load(Ordering::Acquire),
                log_number: vset.log_number,
                version: (*vset.version).clone(),
            },
        )
    }

    fn is_closed(&self) -> bool {
        // ordering: Acquire — pairs with close()'s Release store.
        self.closed.load(Ordering::Acquire)
    }

    /// Wakes everyone sleeping on `bg_cv`. Called after the state they
    /// wait on has changed; taking `bg_mutex` first means a waiter that has
    /// just checked its condition is already asleep, not about to be.
    fn wake(&self) {
        let _guard = self.bg_mutex.lock();
        self.bg_cv.notify_all();
    }

    /// The one maintenance schedule: flush every frozen memtable, then run
    /// at most one compaction. Returns whether it did anything; callers
    /// loop until it did not.
    fn maintenance_step(&self) -> Result<bool> {
        let claim = self.maint.lock();
        self.step_claimed(&claim)
    }

    fn step_claimed(&self, claim: &Claim<'_>) -> Result<bool> {
        let mut worked = false;
        while self.flush_one_imm(claim)? {
            worked = true;
        }
        if let Some(job) = self.pick_compaction(claim) {
            self.run_compaction(claim, &job)?;
            worked = true;
        }
        Ok(worked)
    }

    fn maintain_until_quiet(&self) -> Result<()> {
        while self.maintenance_step()? {}
        Ok(())
    }

    /// Flushes the oldest immutable memtable to an L0 table.
    fn flush_one_imm(&self, _claim: &Claim<'_>) -> Result<bool> {
        let front = {
            let imm = self.imm.lock();
            match imm.front() {
                Some(f) => ImmMem {
                    wal_id: f.wal_id,
                    mem: Arc::clone(&f.mem),
                },
                None => return Ok(false),
            }
        };
        let entries = front.mem.all_entries();
        let min_snapshot = self.min_snapshot();
        let outputs = merge_to_tables(
            vec![Source::Vec(entries.into_iter())],
            &self.dir,
            &self.opts,
            false,
            min_snapshot,
            || self.alloc_file_id(),
        )?;

        let mut vset = self.vset.lock();
        let mut added = Vec::new();
        for (id, meta) in &outputs {
            // ordering: Relaxed — statistics counter; published via DbStats
            // reads that tolerate staleness.
            self.counters
                .bytes_flushed
                .fetch_add(meta.file_size, Ordering::Relaxed);
            added.push((0usize, FileMeta::from_table(*id, meta)));
            let table = Table::open(&table_path(&self.dir, *id), *id, Arc::clone(&self.cache))?;
            Arc::make_mut(&mut vset.tables).insert(*id, Arc::new(table));
        }
        vset.version = Arc::new(vset.version.apply(&[], &added));
        vset.log_number = vset.log_number.max(front.wal_id + 1);
        self.persist(&vset)?;
        let log_number = vset.log_number;
        drop(vset);

        // The data is durable in the table; retire the memtable and its
        // WAL. Only a claim holder pops, so the front is still ours.
        self.imm.lock().pop_front();
        self.wake();
        self.delete_stale_wals(log_number);
        // ordering: Relaxed — statistics counter.
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    fn delete_stale_wals(&self, log_number: u64) {
        for (kind, id) in numbered_files(&self.dir) {
            if kind == FileKind::Wal && id < log_number {
                std::fs::remove_file(wal_path(&self.dir, id)).ok();
            }
        }
    }

    /// The compaction the current version calls for, picked outside the
    /// `vset` lock that every read takes.
    fn pick(&self) -> Option<CompactionJob> {
        let version = Arc::clone(&self.vset.lock().version);
        pick_leveled(&version, &self.opts)
    }

    /// The next compaction to run. The claim is what makes the answer safe
    /// to act on: nobody else can be working on these files.
    fn pick_compaction(&self, _claim: &Claim<'_>) -> Option<CompactionJob> {
        self.pick()
    }

    fn run_compaction(&self, _claim: &Claim<'_>, job: &CompactionJob) -> Result<()> {
        if job.is_trivial_move() {
            self.install_move(job)?;
        } else {
            self.merge_and_install(job)?;
        }
        self.wake();
        // ordering: Relaxed — statistics counter.
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// A trivial move: the one input changes level in the manifest, its
    /// table file and open handle stay as they are.
    fn install_move(&self, job: &CompactionJob) -> Result<()> {
        let moved = job.inputs[0].clone();
        let mut vset = self.vset.lock();
        vset.version = Arc::new(
            vset.version
                .apply(&[moved.id], &[(job.target_level, moved)]),
        );
        self.persist(&vset)
    }

    fn merge_and_install(&self, job: &CompactionJob) -> Result<()> {
        let sources: Vec<Source> = {
            let vset = self.vset.lock();
            job.inputs
                .iter()
                .chain(&job.overlaps)
                .map(|f| {
                    // The claim pins every file a job names until the job
                    // installs; a missing table is state corruption worth
                    // crashing on.
                    let table = vset
                        .tables
                        .get(&f.id)
                        // lint:allow(unwrap) invariant panic, see above
                        .unwrap_or_else(|| panic!("table {} missing from version state", f.id));
                    // Inputs are read once and deleted: past the block
                    // cache, which keeps what queries read.
                    Source::Table(table.maintenance_iter())
                })
                .collect()
        };
        let min_snapshot = self.min_snapshot();
        let outputs = merge_to_tables(
            sources,
            &self.dir,
            &self.opts,
            job.drop_tombstones,
            min_snapshot,
            || self.alloc_file_id(),
        )?;

        let deleted = job.input_ids();
        // ordering: Relaxed — statistics counter.
        self.counters
            .bytes_compacted
            .fetch_add(job.input_bytes(), Ordering::Relaxed);

        let mut vset = self.vset.lock();
        let mut added = Vec::new();
        for (id, meta) in &outputs {
            added.push((job.target_level, FileMeta::from_table(*id, meta)));
            let table = Table::open(&table_path(&self.dir, *id), *id, Arc::clone(&self.cache))?;
            Arc::make_mut(&mut vset.tables).insert(*id, Arc::new(table));
        }
        vset.version = Arc::new(vset.version.apply(&deleted, &added));
        self.persist(&vset)?;
        for id in &deleted {
            Arc::make_mut(&mut vset.tables).remove(id);
        }
        drop(vset);

        for id in &deleted {
            // Queries may have cached blocks of an input.
            self.cache.erase_table(*id);
            std::fs::remove_file(table_path(&self.dir, *id)).ok();
        }
        Ok(())
    }

    /// Whether a step would find work. Advisory: no claim is held, so the
    /// answer can be stale by the time the caller acts on it.
    fn maintenance_pending(&self) -> bool {
        !self.imm.lock().is_empty() || self.pick().is_some()
    }

    fn write_stalled(&self) -> bool {
        self.vset.lock().version.levels[0].len() >= self.opts.l0_stall_trigger
            || self.imm.lock().len() >= MAX_FROZEN
    }

    /// Holds the commit thread while maintenance is too far behind, and
    /// charges the wait to `stall_nanos`. Gives up when the database is
    /// closing or maintenance has failed — nobody would end the stall.
    fn stall_while_backed_up(&self) {
        let mut guard = self.bg_mutex.lock();
        let mut since: Option<Instant> = None;
        while self.write_stalled() && !self.is_closed() && self.check_bg_error().is_ok() {
            since.get_or_insert_with(Instant::now);
            self.bg_cv.wait_for(&mut guard, BG_RECHECK);
        }
        if let Some(since) = since {
            // ordering: Relaxed — statistics counter.
            self.counters
                .stall_nanos
                .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// An embedded LSM key-value store. See the [crate docs](crate) for the
/// architecture overview and an example.
///
/// `Db` is cheap to share: clone the handle (internally `Arc`).
pub struct Db {
    inner: Arc<DbInner>,
    commit_tx: Sender<CommitMsg>,
    commit_handle: Mutex<Option<JoinHandle<()>>>,
    bg_handle: Mutex<Option<JoinHandle<()>>>,
}

impl Db {
    /// Opens (creating if needed) a database in `dir`, recovering any
    /// manifest state and replaying WAL tails from a previous process.
    pub fn open(dir: impl AsRef<Path>, opts: Options) -> Result<Db> {
        opts.validate()?;
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        let cache = Arc::new(BlockCache::new(opts.block_cache_bytes));
        let manifest = load_manifest(&dir)?;
        let (version, mut next_file_id, mut last_seq, log_number) = match manifest {
            Some(m) => (m.version, m.next_file_id, m.last_seq, m.log_number),
            None => (Version::new(opts.max_levels), 1, 0, 0),
        };

        // Never reuse a file id present on disk (e.g. manifest lost).
        let files: Vec<(FileKind, u64)> = numbered_files(&dir).collect();
        for &(_, id) in &files {
            next_file_id = next_file_id.max(id + 1);
        }

        let mut tables = HashMap::new();
        for level in &version.levels {
            for f in level {
                let table = Table::open(&table_path(&dir, f.id), f.id, Arc::clone(&cache))?;
                tables.insert(f.id, Arc::new(table));
            }
        }

        // Replay WAL tails (ids >= log_number) in id order.
        let mem = Arc::new(MemTable::new());
        let mut wal_ids: Vec<u64> = files
            .into_iter()
            .filter(|&(kind, id)| kind == FileKind::Wal && id >= log_number)
            .map(|(_, id)| id)
            .collect();
        wal_ids.sort_unstable();
        for id in &wal_ids {
            let mut reader = LogReader::open(&wal_path(&dir, *id))?;
            while let Some(payload) = reader.next_record()? {
                let (_, ops) = WriteBatch::decode(&payload)?;
                for op in ops {
                    let op = op?;
                    mem.add(op.key, op.seq, op.kind, op.value);
                    last_seq = last_seq.max(op.seq);
                }
            }
        }

        let wal_id = next_file_id;
        next_file_id += 1;
        let wal = LogWriter::create(&wal_path(&dir, wal_id))?;

        let inner = Arc::new(DbInner {
            dir,
            opts: opts.clone(),
            cache,
            mem: RwLock::new(mem),
            imm: Mutex::new(VecDeque::new()),
            vset: Mutex::new(VersionState {
                version: Arc::new(version),
                tables: Arc::new(tables),
                next_file_id,
                log_number,
            }),
            visible_seq: AtomicU64::new(last_seq),
            snapshots: Mutex::new(BTreeMap::new()),
            counters: Counters::default(),
            closed: AtomicBool::new(false),
            maint: Mutex::new(()),
            bg_mutex: Mutex::new(()),
            bg_cv: Condvar::new(),
            bg_error: Mutex::new(None),
        });

        let (tx, rx) = bounded::<CommitMsg>(4096);
        let commit_inner = Arc::clone(&inner);
        let commit_handle = std::thread::Builder::new()
            .name("iotkv-commit".into())
            .spawn(move || commit_loop(commit_inner, rx, wal, wal_id, last_seq))?;

        let bg_inner = Arc::clone(&inner);
        let bg_handle = std::thread::Builder::new()
            .name("iotkv-bg".into())
            .spawn(move || background_loop(bg_inner))?;

        Ok(Db {
            inner,
            commit_tx: tx,
            commit_handle: Mutex::new(Some(commit_handle)),
            bg_handle: Mutex::new(Some(bg_handle)),
        })
    }

    /// Inserts or overwrites `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        if key.is_empty() {
            return Err(Error::invalid("key must not be empty"));
        }
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write(batch)
    }

    /// Deletes `key` (writes a tombstone).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        if key.is_empty() {
            return Err(Error::invalid("key must not be empty"));
        }
        let mut batch = WriteBatch::new();
        batch.delete(key);
        // ordering: Relaxed — statistics counter.
        self.inner.counters.deletes.fetch_add(1, Ordering::Relaxed);
        self.enqueue(batch)?.wait()
    }

    /// Applies a batch atomically: [`Db::submit`], then
    /// [`PendingWrite::wait`].
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        self.submit(batch)?.wait()
    }

    /// Hands a batch to the commit thread and returns without waiting for
    /// it to commit. The batch is committed in submission order relative
    /// to every other write on this `Db`; [`PendingWrite::wait`] returns
    /// its outcome. A caller with writes for several databases submits
    /// them all before it waits for any, so their commits overlap.
    ///
    /// Fails without enqueuing anything when the database is closed or
    /// its maintenance has failed.
    pub fn submit(&self, batch: WriteBatch) -> Result<PendingWrite> {
        if batch.is_empty() {
            return Ok(PendingWrite { reply: None });
        }
        // ordering: Relaxed — statistics counter.
        self.inner
            .counters
            .puts
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.enqueue(batch)
    }

    fn enqueue(&self, batch: WriteBatch) -> Result<PendingWrite> {
        // ordering: Acquire — pairs with close()'s Release store; a writer
        // that sees `closed` must also see the drained commit pipeline.
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(Error::Closed);
        }
        self.inner.check_bg_error()?;
        let (reply_tx, reply_rx) = bounded(1);
        self.commit_tx
            .send(CommitMsg::Write {
                batch,
                reply: reply_tx,
            })
            .map_err(|_| Error::Closed)?;
        Ok(PendingWrite {
            reply: Some(reply_rx),
        })
    }

    /// Reads the newest visible value of `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        // ordering: Relaxed — statistics counter.
        self.inner.counters.gets.fetch_add(1, Ordering::Relaxed);
        // ordering: Acquire — pairs with the commit thread's Release store;
        // reading seq N implies the memtable already holds N's entries.
        let seq = self.inner.visible_seq.load(Ordering::Acquire);

        // 1. Active memtable.
        let mem = Arc::clone(&self.inner.mem.read());
        if let Some(hit) = mem.get(key, seq) {
            return Ok(hit);
        }
        // 2. Immutable memtables, newest first.
        {
            let imm = self.inner.imm.lock();
            for frozen in imm.iter().rev() {
                if let Some(hit) = frozen.mem.get(key, seq) {
                    return Ok(hit);
                }
            }
        }
        // 3. Tables.
        let (version, tables) = {
            let vset = self.inner.vset.lock();
            (Arc::clone(&vset.version), Arc::clone(&vset.tables))
        };
        // L0 newest flush first (highest file id).
        for f in version.levels[0].iter().rev() {
            if f.overlaps(key, key) {
                if let Some(hit) = tables[&f.id].get(key, seq)? {
                    return Ok(hit);
                }
            }
        }
        for level in version.levels.iter().skip(1) {
            // Non-overlapping: binary search by largest user key.
            let idx = level.partition_point(|f| f.largest.user_key.as_ref() < key);
            if idx < level.len() && level[idx].overlaps(key, key) {
                if let Some(hit) = tables[&level[idx].id].get(key, seq)? {
                    return Ok(hit);
                }
            }
        }
        Ok(None)
    }

    /// Ordered scan of user keys in `[start, end)`, newest visible version
    /// of each, up to `limit` rows.
    pub fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> Result<Vec<(Bytes, Bytes)>> {
        if start >= end || limit == 0 {
            return Ok(Vec::new());
        }
        let mut rows = Vec::new();
        let mut it = self.scan_iter(start, end);
        while rows.len() < limit {
            match it.next() {
                Some(Ok(kv)) => rows.push(kv),
                Some(Err(e)) => return Err(e),
                None => break,
            }
        }
        Ok(rows)
    }

    /// Pull-based streaming scan of `[start, end)`: the newest visible
    /// version of each user key, in order, without materializing the
    /// range. The iterator pins a snapshot for its whole lifetime —
    /// compaction keeps every table the snapshot needs alive — and
    /// releases it on drop. A deferred table I/O error surfaces as one
    /// final `Err` item after which the iterator is fused.
    pub fn scan_iter(&self, start: &[u8], end: &[u8]) -> ScanIter {
        // ordering: Relaxed — statistics counter.
        self.inner.counters.scans.fetch_add(1, Ordering::Relaxed);
        // ordering: Acquire — pairs with the commit thread's Release store;
        // the pinned snapshot must see every entry at or below seq.
        let seq = self.inner.visible_seq.load(Ordering::Acquire);
        self.inner.register_snapshot(seq);

        let mut sources: Vec<Source> = Vec::new();
        if start < end {
            let mem = Arc::clone(&self.inner.mem.read());
            sources.push(Source::Vec(mem.range_entries(start, end).into_iter()));
            {
                let imm = self.inner.imm.lock();
                for frozen in imm.iter() {
                    sources.push(Source::Vec(
                        frozen.mem.range_entries(start, end).into_iter(),
                    ));
                }
            }
            let (version, tables) = {
                let vset = self.inner.vset.lock();
                (Arc::clone(&vset.version), Arc::clone(&vset.tables))
            };
            let seek_key = InternalKey::seek_bound(Bytes::copy_from_slice(start), SeqNo::MAX);
            // `end` is exclusive, but FileMeta::overlaps uses inclusive
            // bounds; the visibility adapter trims any overshoot.
            for level in version.levels.iter() {
                for f in level {
                    if f.overlaps(start, end) {
                        let mut it = tables[&f.id].iter();
                        it.seek(&seek_key);
                        sources.push(Source::Table(it));
                    }
                }
            }
        }

        let visible = VisibleIter::new(
            MergeIterator::new(sources),
            seq,
            Some(Bytes::copy_from_slice(end)),
        );
        ScanIter {
            inner: Arc::clone(&self.inner),
            seq,
            visible,
            done: false,
        }
    }

    /// Forces the active memtable (and all frozen ones) to disk.
    pub fn flush(&self) -> Result<()> {
        // ordering: Acquire — pairs with close()'s Release store.
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(Error::Closed);
        }
        let (reply_tx, reply_rx) = bounded(1);
        self.commit_tx
            .send(CommitMsg::Flush { reply: reply_tx })
            .map_err(|_| Error::Closed)?;
        reply_rx.recv().map_err(|_| Error::Closed)??;
        self.inner.maintain_until_quiet()
    }

    /// Runs maintenance until the tree is quiescent.
    pub fn compact(&self) -> Result<()> {
        self.inner.maintain_until_quiet()
    }

    /// Point-in-time statistics snapshot.
    pub fn stats(&self) -> DbStats {
        let c = &self.inner.counters;
        let vset = self.inner.vset.lock();
        let mut level_shape = [0usize; 8];
        for (i, level) in vset.version.levels.iter().take(8).enumerate() {
            level_shape[i] = level.len();
        }
        // ordering: Relaxed — statistics snapshot; counters are independent
        // and the snapshot is advisory, not a consistency point.
        DbStats {
            puts: c.puts.load(Ordering::Relaxed),
            deletes: c.deletes.load(Ordering::Relaxed),
            gets: c.gets.load(Ordering::Relaxed),
            scans: c.scans.load(Ordering::Relaxed),
            flushes: c.flushes.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            bytes_flushed: c.bytes_flushed.load(Ordering::Relaxed),
            bytes_compacted: c.bytes_compacted.load(Ordering::Relaxed),
            wal_syncs: c.wal_syncs.load(Ordering::Relaxed),
            commit_groups: c.commit_groups.load(Ordering::Relaxed),
            commit_batches: c.commit_batches.load(Ordering::Relaxed),
            stalls: c.stall_nanos.load(Ordering::Relaxed) / 1_000_000,
            cache_hits: self.inner.cache.hit_count(),
            cache_misses: self.inner.cache.miss_count(),
            table_count: vset.version.table_count() as u64,
            level_shape,
        }
    }

    /// The directory this database lives in.
    pub fn path(&self) -> &Path {
        &self.inner.dir
    }
}

/// A write handed to the commit thread by [`Db::submit`] and not yet
/// awaited.
///
/// Dropping a `PendingWrite` does not cancel the write: the commit thread
/// commits it all the same, and only its outcome goes unseen. A write
/// submitted to the same `Db` after it is committed after it.
#[must_use = "only `wait` reports whether the write committed"]
pub struct PendingWrite {
    /// `None` for an empty batch, which nothing was enqueued for.
    reply: Option<Receiver<Result<()>>>,
}

impl PendingWrite {
    /// Blocks until the write's commit group is in the WAL (synced as
    /// [`SyncMode`] asks) and applied to the memtable, and returns the
    /// outcome.
    pub fn wait(self) -> Result<()> {
        match self.reply {
            Some(reply) => reply.recv().map_err(|_| Error::Closed)?,
            None => Ok(()),
        }
    }
}

/// A streaming range scan over one [`Db`], created by [`Db::scan_iter`].
///
/// Yields `(user_key, value)` pairs in key order. The underlying merge
/// heap pulls from memtable snapshots and seeked table iterators lazily,
/// so a consumer that folds row-by-row never materializes the range.
pub struct ScanIter {
    inner: Arc<DbInner>,
    seq: SeqNo,
    visible: VisibleIter<MergeIterator>,
    done: bool,
}

impl ScanIter {
    /// The snapshot sequence number this scan reads at.
    pub fn snapshot_seq(&self) -> SeqNo {
        self.seq
    }
}

impl Iterator for ScanIter {
    type Item = Result<(Bytes, Bytes)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.visible.next() {
            Some(kv) => Some(Ok(kv)),
            None => {
                self.done = true;
                self.visible.inner_mut().take_error().map(Err)
            }
        }
    }
}

impl Drop for ScanIter {
    fn drop(&mut self) {
        self.inner.release_snapshot(self.seq);
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        // ordering: Release — publishes the close decision; Acquire loads in
        // the write/flush paths and worker loops observe it and stand down.
        self.inner.closed.store(true, Ordering::Release);
        let _ = self.commit_tx.send(CommitMsg::Shutdown);
        // A stalled commit thread sleeps on `bg_cv`; it must see `closed`
        // before the join below can return.
        self.inner.wake();
        if let Some(h) = self.commit_handle.lock().take() {
            let _ = h.join();
        }
        self.inner.wake();
        if let Some(h) = self.bg_handle.lock().take() {
            let _ = h.join();
        }
    }
}

/// The commit thread: group commit, memtable application, rotation.
fn commit_loop(
    inner: Arc<DbInner>,
    rx: Receiver<CommitMsg>,
    mut wal: LogWriter,
    mut wal_id: u64,
    mut last_seq: SeqNo,
) {
    let mut group: Vec<(WriteBatch, Sender<Result<()>>)> = Vec::with_capacity(MAX_GROUP);
    'outer: loop {
        group.clear();
        let mut flush_replies: Vec<Sender<Result<()>>> = Vec::new();
        let mut shutdown = false;

        // Block for the first message, then opportunistically drain.
        match rx.recv() {
            Ok(CommitMsg::Write { batch, reply }) => group.push((batch, reply)),
            Ok(CommitMsg::Flush { reply }) => flush_replies.push(reply),
            Ok(CommitMsg::Shutdown) | Err(_) => break 'outer,
        }
        while group.len() < MAX_GROUP {
            match rx.try_recv() {
                Ok(CommitMsg::Write { batch, reply }) => group.push((batch, reply)),
                Ok(CommitMsg::Flush { reply }) => flush_replies.push(reply),
                Ok(CommitMsg::Shutdown) => {
                    shutdown = true;
                    break;
                }
                Err(_) => break,
            }
        }

        // ordering: Relaxed — statistics counters.
        inner.counters.commit_groups.fetch_add(1, Ordering::Relaxed);
        inner
            .counters
            .commit_batches
            .fetch_add(group.len() as u64, Ordering::Relaxed);

        // Stage 1: sequence + WAL append for the whole group.
        let mut commit_err: Option<Error> = None;
        for (batch, _) in group.iter_mut() {
            let seq = last_seq + 1;
            last_seq += batch.len() as u64;
            batch.set_seq(seq);
            if let Err(e) = wal.append(batch.encoded()) {
                commit_err = Some(e);
                break;
            }
        }
        // Stage 2: one flush/sync per group.
        if commit_err.is_none() {
            let sync_result = match inner.opts.sync {
                SyncMode::None => wal.flush(),
                SyncMode::GroupCommit => {
                    // ordering: Relaxed — statistics counter.
                    inner.counters.wal_syncs.fetch_add(1, Ordering::Relaxed);
                    wal.sync()
                }
            };
            if let Err(e) = sync_result {
                commit_err = Some(e);
            }
        }

        if let Some(e) = commit_err {
            for (_, reply) in &group {
                let _ = reply.send(Err(e.clone()));
            }
            for reply in &flush_replies {
                let _ = reply.send(Err(e.clone()));
            }
            continue;
        }

        // Stage 3: apply to the memtable, each op read in place from the
        // encoded batch (the memtable takes its own copy), and publish
        // visibility.
        let mem = Arc::clone(&inner.mem.read());
        let mut apply_err: Option<Error> = None;
        'apply: for (batch, _) in &group {
            match WriteBatch::decode(batch.encoded()) {
                Ok((_, ops)) => {
                    for op in ops {
                        match op {
                            Ok(op) => mem.add(op.key, op.seq, op.kind, op.value),
                            Err(e) => {
                                apply_err = Some(e);
                                break 'apply;
                            }
                        }
                    }
                }
                Err(e) => {
                    apply_err = Some(e);
                    break 'apply;
                }
            }
        }
        // ordering: Release — publishes the freshly applied memtable entries;
        // pairs with the Acquire loads readers use to pick their snapshot seq.
        inner.visible_seq.store(last_seq, Ordering::Release);
        for (_, reply) in &group {
            let _ = reply.send(match &apply_err {
                None => Ok(()),
                Some(e) => Err(e.clone()),
            });
        }

        // Stage 4: rotation. A Flush request forces rotation of a
        // non-empty memtable regardless of size.
        let force_rotate = !flush_replies.is_empty() && !mem.is_empty();
        if mem.approximate_bytes() >= inner.opts.memtable_bytes || force_rotate {
            let rotate_result = rotate_memtable(&inner, &mut wal, &mut wal_id);
            if let Err(e) = &rotate_result {
                *inner.bg_error.lock() = Some(e.clone());
            }
            inner.wake();
            inner.stall_while_backed_up();
        }
        for reply in &flush_replies {
            let _ = reply.send(Ok(()));
        }

        if shutdown {
            break;
        }
    }
    let _ = wal.flush();
}

fn rotate_memtable(inner: &Arc<DbInner>, wal: &mut LogWriter, wal_id: &mut u64) -> Result<()> {
    wal.flush()?;
    let new_id = inner.alloc_file_id();
    let new_wal = LogWriter::create(&wal_path(&inner.dir, new_id))?;
    let old_id = *wal_id;
    *wal_id = new_id;
    let old_wal = std::mem::replace(wal, new_wal);
    drop(old_wal);

    let old_mem = {
        let mut mem = inner.mem.write();
        std::mem::replace(&mut *mem, Arc::new(MemTable::new()))
    };
    inner.imm.lock().push_back(ImmMem {
        wal_id: old_id,
        mem: old_mem,
    });
    Ok(())
}

/// The background maintenance thread: runs steps while there is work,
/// sleeps on `bg_cv` when there is none, and leaves once the database is
/// closed and quiet.
fn background_loop(inner: Arc<DbInner>) {
    loop {
        match inner.maintenance_step() {
            Ok(true) => {}
            Ok(false) => {
                let mut guard = inner.bg_mutex.lock();
                // Checked under `bg_mutex`, so a rotation that happened
                // since the step looked cannot slip past the wait.
                if inner.maintenance_pending() {
                    continue;
                }
                if inner.is_closed() {
                    return;
                }
                inner.bg_cv.wait_for(&mut guard, BG_RECHECK);
            }
            Err(e) => {
                *inner.bg_error.lock() = Some(e);
                inner.wake();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "iotkv-db-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn put_get_delete() {
        let dir = tmpdir("pgd");
        let db = Db::open(&dir, Options::small()).unwrap();
        db.put(b"k1", b"v1").unwrap();
        db.put(b"k2", b"v2").unwrap();
        assert_eq!(db.get(b"k1").unwrap().unwrap().as_ref(), b"v1");
        db.put(b"k1", b"v1b").unwrap();
        assert_eq!(db.get(b"k1").unwrap().unwrap().as_ref(), b"v1b");
        db.delete(b"k1").unwrap();
        assert_eq!(db.get(b"k1").unwrap(), None);
        assert_eq!(db.get(b"k2").unwrap().unwrap().as_ref(), b"v2");
        assert_eq!(db.get(b"missing").unwrap(), None);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_key_rejected() {
        let dir = tmpdir("ek");
        let db = Db::open(&dir, Options::small()).unwrap();
        assert!(db.put(b"", b"v").is_err());
        assert!(db.delete(b"").is_err());
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn batches_are_atomic_and_ordered() {
        let dir = tmpdir("batch");
        let db = Db::open(&dir, Options::small()).unwrap();
        let mut b = WriteBatch::new();
        b.put(b"a", b"1");
        b.put(b"b", b"2");
        b.delete(b"a");
        db.write(b).unwrap();
        assert_eq!(
            db.get(b"a").unwrap(),
            None,
            "delete after put in batch wins"
        );
        assert_eq!(db.get(b"b").unwrap().unwrap().as_ref(), b"2");
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    fn one_put(key: &[u8], value: &[u8]) -> WriteBatch {
        let mut b = WriteBatch::new();
        b.put(key, value);
        b
    }

    #[test]
    fn submits_awaited_in_reverse_order_both_commit() {
        let dir = tmpdir("submitrev");
        let db = Db::open(&dir, Options::small()).unwrap();
        let first = db.submit(one_put(b"a", b"1")).unwrap();
        let second = db.submit(one_put(b"b", b"2")).unwrap();
        second.wait().unwrap();
        first.wait().unwrap();
        assert_eq!(db.get(b"a").unwrap().unwrap().as_ref(), b"1");
        assert_eq!(db.get(b"b").unwrap().unwrap().as_ref(), b"2");
        assert_eq!(db.stats().puts, 2);
        db.submit(WriteBatch::new()).unwrap().wait().unwrap();
        assert_eq!(db.stats().puts, 2, "an empty batch enqueues nothing");
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn dropped_pending_write_still_commits() {
        let dir = tmpdir("submitdrop");
        let db = Db::open(&dir, Options::small()).unwrap();
        drop(db.submit(one_put(b"dropped", b"v")).unwrap());
        // A later write's ack means every earlier submit has committed.
        db.put(b"later", b"v").unwrap();
        assert_eq!(db.get(b"dropped").unwrap().unwrap().as_ref(), b"v");
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn survives_flush_and_compaction() {
        let dir = tmpdir("fc");
        let db = Db::open(&dir, Options::small()).unwrap();
        let n = 3000;
        for i in 0..n {
            db.put(
                format!("key-{i:06}").as_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .unwrap();
        }
        // Drains the memtables frozen so far, not the active one.
        db.compact().unwrap();
        let stats = db.stats();
        assert!(stats.flushes > 0, "small memtable must have flushed");
        for i in (0..n).step_by(97) {
            assert_eq!(
                db.get(format!("key-{i:06}").as_bytes()).unwrap().unwrap(),
                Bytes::from(format!("value-{i}")),
                "key {i}"
            );
        }
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scan_spans_memtable_and_tables() {
        let dir = tmpdir("scan");
        let db = Db::open(&dir, Options::small()).unwrap();
        for i in 0..2000 {
            db.put(format!("key-{i:06}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        // Overwrite a few in the (new) memtable.
        db.put(b"key-000100", b"fresh").unwrap();
        db.delete(b"key-000101").unwrap();

        let rows = db.scan(b"key-000099", b"key-000104", usize::MAX).unwrap();
        let keys: Vec<_> = rows
            .iter()
            .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
            .collect();
        assert_eq!(
            keys,
            vec!["key-000099", "key-000100", "key-000102", "key-000103"]
        );
        assert_eq!(rows[1].1.as_ref(), b"fresh");

        // Limit honoured.
        let rows = db.scan(b"key-", b"key-999999", 5).unwrap();
        assert_eq!(rows.len(), 5);

        // Degenerate ranges.
        assert!(db.scan(b"z", b"a", 10).unwrap().is_empty());
        assert!(db.scan(b"a", b"z", 0).unwrap().is_empty());
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scan_iter_streams_snapshot_and_releases_it() {
        let dir = tmpdir("scaniter");
        let db = Db::open(&dir, Options::small()).unwrap();
        for i in 0..2000 {
            db.put(format!("key-{i:06}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        db.put(b"key-000100", b"fresh").unwrap();

        let mut it = db.scan_iter(b"key-000099", b"key-000103");
        let first = it.next().unwrap().unwrap();
        assert_eq!(first.0.as_ref(), b"key-000099");
        // A write after the iterator was opened is invisible to it.
        db.put(b"key-000102", b"late").unwrap();
        let rest: Vec<_> = it.map(|r| r.unwrap()).collect();
        assert_eq!(rest.len(), 3);
        assert_eq!(rest[0].1.as_ref(), b"fresh");
        assert_eq!(rest[2].1.as_ref(), b"v", "snapshot shields the scan");
        // The snapshot registration is gone once the iterator drops.
        assert!(db.inner.snapshots.lock().is_empty());

        // Degenerate range: empty stream, still snapshot-clean.
        assert!(db.scan_iter(b"z", b"a").next().is_none());
        assert!(db.inner.snapshots.lock().is_empty());
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recovery_replays_wal() {
        let dir = tmpdir("recover");
        {
            let db = Db::open(&dir, Options::small()).unwrap();
            db.put(b"durable", b"yes").unwrap();
            db.put(b"mutated", b"v1").unwrap();
            db.put(b"mutated", b"v2").unwrap();
            db.delete(b"durable2").unwrap();
            // No flush: data only in WAL + memtable.
        }
        let db = Db::open(&dir, Options::small()).unwrap();
        assert_eq!(db.get(b"durable").unwrap().unwrap().as_ref(), b"yes");
        assert_eq!(db.get(b"mutated").unwrap().unwrap().as_ref(), b"v2");
        assert_eq!(db.get(b"durable2").unwrap(), None);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recovery_after_flush_uses_manifest() {
        let dir = tmpdir("recover2");
        {
            let db = Db::open(&dir, Options::small()).unwrap();
            for i in 0..2000 {
                db.put(format!("key-{i:06}").as_bytes(), b"v").unwrap();
            }
            db.flush().unwrap();
            db.put(b"post-flush", b"tail").unwrap();
        }
        let db = Db::open(&dir, Options::small()).unwrap();
        assert_eq!(db.get(b"key-000000").unwrap().unwrap().as_ref(), b"v");
        assert_eq!(db.get(b"key-001999").unwrap().unwrap().as_ref(), b"v");
        assert_eq!(db.get(b"post-flush").unwrap().unwrap().as_ref(), b"tail");
        let rows = db.scan(b"key-", b"key-zzz", usize::MAX).unwrap();
        assert_eq!(rows.len(), 2000);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn deletes_survive_compaction() {
        let dir = tmpdir("delcompact");
        let db = Db::open(&dir, Options::small()).unwrap();
        for i in 0..1000 {
            db.put(format!("key-{i:06}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        for i in (0..1000).step_by(2) {
            db.delete(format!("key-{i:06}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        db.compact().unwrap();
        for i in 0..1000 {
            let got = db.get(format!("key-{i:06}").as_bytes()).unwrap();
            if i % 2 == 0 {
                assert!(got.is_none(), "key {i} should be deleted");
            } else {
                assert!(got.is_some(), "key {i} should exist");
            }
        }
        let rows = db.scan(b"key-", b"key-zzz", usize::MAX).unwrap();
        assert_eq!(rows.len(), 500);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn concurrent_writers_group_commit() {
        let dir = tmpdir("conc");
        let mut opts = Options::small();
        opts.memtable_bytes = 1 << 20; // avoid rotation noise
        let db = Arc::new(Db::open(&dir, opts).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        db.put(format!("t{t}-k{i:04}").as_bytes(), b"v").unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = db.stats();
        assert_eq!(stats.puts, 4000);
        assert!(
            stats.commit_groups < stats.commit_batches,
            "some batches were grouped: {} groups for {} batches",
            stats.commit_groups,
            stats.commit_batches
        );
        for t in 0..8 {
            for i in (0..500).step_by(50) {
                assert!(db
                    .get(format!("t{t}-k{i:04}").as_bytes())
                    .unwrap()
                    .is_some());
            }
        }
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn background_mode_converges() {
        let dir = tmpdir("bg");
        let db = Db::open(&dir, Options::small()).unwrap();
        for i in 0..5000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 32])
                .unwrap();
        }
        // Wait for maintenance to settle.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.inner.maintenance_pending() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        for i in (0..5000).step_by(331) {
            assert!(db.get(format!("key-{i:06}").as_bytes()).unwrap().is_some());
        }
        let stats = db.stats();
        assert!(stats.flushes > 0);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    fn numbered_key(i: usize) -> Vec<u8> {
        format!("key-{i:06}").into_bytes()
    }

    /// Writes fresh keys from `*next` on until `frozen` memtables wait, for
    /// tests that hold the claim (nothing is flushed meanwhile). A put is
    /// acknowledged before the rotation it causes, and the commit thread
    /// may stall right after rotating, so the helper waits each rotation
    /// out instead of sending a put that might never be answered.
    fn fill_until_frozen(db: &Db, next: &mut usize, frozen: usize) {
        let inner = &db.inner;
        while inner.imm.lock().len() < frozen {
            let mem = Arc::clone(&inner.mem.read());
            let waiting = inner.imm.lock().len();
            db.put(&numbered_key(*next), &[7u8; 64]).unwrap();
            *next += 1;
            if mem.approximate_bytes() >= inner.opts.memtable_bytes {
                while inner.imm.lock().len() == waiting {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Every key in `0..keys` is stored exactly once: by the tables'
    /// entry counts, by the shape of the deep levels and by a full scan.
    fn assert_each_key_once(db: &Db, keys: usize) {
        let version = Arc::clone(&db.inner.vset.lock().version);
        let stored: u64 = version.levels.iter().flatten().map(|f| f.entry_count).sum();
        assert_eq!(
            stored,
            keys as u64,
            "entries in tables: {}",
            version.shape()
        );
        for level in version.levels.iter().skip(1) {
            for pair in level.windows(2) {
                assert!(
                    pair[0].largest < pair[1].smallest,
                    "files {} and {} of one level overlap",
                    pair[0].id,
                    pair[1].id
                );
            }
        }
        let mut scanned = 0;
        let mut prev: Option<Bytes> = None;
        for row in db.scan_iter(b"key-", b"key-~") {
            let (k, _) = row.unwrap();
            assert!(prev.as_ref().is_none_or(|p| *p < k), "key {k:?} repeated");
            prev = Some(k);
            scanned += 1;
        }
        assert_eq!(scanned, keys);
    }

    #[test]
    fn step_flushes_every_memtable_before_it_compacts() {
        let dir = tmpdir("stepfirst");
        let mut opts = Options::small();
        opts.l0_compaction_trigger = 2;
        let db = Db::open(&dir, opts).unwrap();
        let inner = Arc::clone(&db.inner);
        // Holding the claim keeps the background thread's hands off.
        let claim = inner.maint.lock();
        let mut next = 0;

        fill_until_frozen(&db, &mut next, 2);
        while inner.flush_one_imm(&claim).unwrap() {}
        let l0_before = db.stats().level_shape[0];
        assert!(l0_before >= 2 && inner.pick_compaction(&claim).is_some());
        fill_until_frozen(&db, &mut next, 1);
        let frozen = inner.imm.lock().len() as u64;
        let flushed_before = db.stats().flushes;

        // Both are pending. Had the compaction gone first, the tables
        // flushed after it would still sit in L0.
        assert!(inner.step_claimed(&claim).unwrap());
        let stats = db.stats();
        assert_eq!(stats.flushes, flushed_before + frozen);
        assert_eq!(stats.compactions, 1, "at most one compaction per step");
        assert_eq!(stats.level_shape[0], 0, "the fresh tables went down too");
        assert!(inner.imm.lock().is_empty());

        drop(claim);
        db.flush().unwrap();
        assert_each_key_once(&db, next);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn claimed_job_is_not_picked_a_second_time() {
        let dir = tmpdir("claimed");
        let mut opts = Options::small();
        opts.l0_compaction_trigger = 2;
        let db = Db::open(&dir, opts).unwrap();
        let inner = Arc::clone(&db.inner);
        let claim = inner.maint.lock();
        let mut next = 0;
        fill_until_frozen(&db, &mut next, 2);
        while inner.flush_one_imm(&claim).unwrap() {}

        // One worker has picked the L0→L1 job; a second one (and the
        // background thread, woken by the rotations) asks for work before
        // the first has installed its result.
        let job = inner.pick_compaction(&claim).unwrap();
        assert_eq!(job.level, 0);
        let second = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || inner.maintenance_step())
        };
        inner.run_compaction(&claim, &job).unwrap();
        drop(claim);
        second.join().unwrap().unwrap();

        db.flush().unwrap();
        assert_eq!(db.stats().compactions, 1, "the job ran once");
        assert_each_key_once(&db, next);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn flush_racing_background_maintenance_stores_each_key_once() {
        let dir = tmpdir("dupmaint");
        let db = Arc::new(Db::open(&dir, Options::small()).unwrap());
        // ~100 bytes an entry against a 16 KiB memtable: some 50 rotations.
        const PER_WRITER: usize = 4000;
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        db.put(&numbered_key(w * PER_WRITER + i), &[7u8; 64])
                            .unwrap();
                    }
                })
            })
            .collect();
        let flusher = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                while db.stats().puts < 2 * PER_WRITER as u64 {
                    db.flush().unwrap();
                }
            })
        };
        for t in writers {
            t.join().unwrap();
        }
        flusher.join().unwrap();
        db.flush().unwrap();
        assert!(db.stats().flushes >= 6);
        assert_each_key_once(&db, 2 * PER_WRITER);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compaction_leaves_the_block_cache_alone() {
        let dir = tmpdir("cachealone");
        let db = Db::open(&dir, Options::small()).unwrap();
        let inner = Arc::clone(&db.inner);
        let cache = &inner.cache;
        let claim = inner.maint.lock();
        let mut next = 0;
        while db.stats().level_shape[0] <= inner.opts.l0_compaction_trigger {
            fill_until_frozen(&db, &mut next, 1);
            while inner.flush_one_imm(&claim).unwrap() {}
        }
        let untouched = (cache.used_bytes(), cache.hit_count(), cache.miss_count());
        drop(claim);

        db.compact().unwrap();
        let stats = db.stats();
        assert!(stats.compactions > 0 && stats.level_shape[0] == 0);
        assert_eq!(
            (cache.used_bytes(), cache.hit_count(), cache.miss_count()),
            untouched,
            "compaction read its inputs past the cache"
        );

        // A query's blocks do go into the cache.
        assert_eq!(db.scan_iter(b"key-", b"key-~").count(), next);
        assert!(cache.miss_count() > 0 && cache.used_bytes() > 0);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn stall_time_is_reported_in_milliseconds() {
        let dir = tmpdir("stallms");
        let db = Db::open(&dir, Options::small()).unwrap();
        let inner = Arc::clone(&db.inner);
        let claim = inner.maint.lock();
        let mut next = 0;
        // With maintenance held up the queue of frozen memtables fills, and
        // the rotation that fills it stalls the commit thread.
        fill_until_frozen(&db, &mut next, MAX_FROZEN);
        let held = Instant::now();
        std::thread::sleep(Duration::from_millis(30));
        assert!(inner.write_stalled());
        drop(claim);
        // Served only once a flush has ended the stall.
        db.put(b"key-after", b"v").unwrap();
        let longest = held.elapsed().as_millis() as u64 + 5;
        let stalled = db.stats().stalls;
        assert!(
            (25..=longest).contains(&stalled),
            "{stalled} ms reported for a stall of 30 to {longest} ms"
        );
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn drop_releases_a_stalled_commit_thread() {
        let dir = tmpdir("dropstall");
        let opts = Options::small();
        let stall_at = opts.l0_stall_trigger;
        let db = Db::open(&dir, opts).unwrap();
        let inner = Arc::clone(&db.inner);
        let claim = inner.maint.lock();
        let mut next = 0;
        // Flush by hand, never compact: L0 climbs to the stall trigger.
        while db.stats().level_shape[0] < stall_at {
            fill_until_frozen(&db, &mut next, 1);
            while inner.flush_one_imm(&claim).unwrap() {}
        }
        // One more rotation and the commit thread stalls; with the claim
        // in our hand no maintenance can end that stall.
        fill_until_frozen(&db, &mut next, 1);

        // Handles on the engine: `db`, ours, the commit thread's and the
        // background thread's. The commit thread's goes when it exits.
        assert_eq!(Arc::strong_count(&inner), 4);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(db);
            done_tx.send(()).unwrap();
        });
        let deadline = Instant::now() + Duration::from_secs(20);
        while Arc::strong_count(&inner) > 3 {
            assert!(
                Instant::now() < deadline,
                "Drop did not get the stalled commit thread to exit"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(inner.vset.lock().version.levels[0].len(), stall_at);
        // The background thread drains before it leaves; let it.
        drop(claim);
        done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("Drop finished");
        dropper.join().unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn stats_reflect_activity() {
        let dir = tmpdir("stats");
        let db = Db::open(&dir, Options::small()).unwrap();
        db.put(b"a", b"1").unwrap();
        db.get(b"a").unwrap();
        db.get(b"b").unwrap();
        db.scan(b"a", b"z", 10).unwrap();
        db.delete(b"a").unwrap();
        let s = db.stats();
        assert_eq!(s.puts, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.gets, 2);
        assert_eq!(s.scans, 1);
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopen_is_idempotent() {
        let dir = tmpdir("reopen");
        for round in 0..3 {
            let db = Db::open(&dir, Options::small()).unwrap();
            db.put(format!("round-{round}").as_bytes(), b"x").unwrap();
            for prev in 0..=round {
                assert!(
                    db.get(format!("round-{prev}").as_bytes())
                        .unwrap()
                        .is_some(),
                    "round {prev} data visible at round {round}"
                );
            }
            drop(db);
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
