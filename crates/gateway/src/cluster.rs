//! The cluster: region servers, replication, routing, replica failover,
//! and the benchmark lifecycle operations (purge/restart).
//!
//! Failure semantics (exercised through [`crate::fault`]): a write is
//! acknowledged iff it reached at least one live replica; replicas that
//! are down receive a *hint* replayed when they return, so acknowledged
//! data survives any crash that leaves one replica alive. Reads and
//! scans fail over from a down primary to the first live replica.

use crate::fault::{FaultPlan, FaultState, FaultVerdict};
use crate::region::RegionMap;
use crate::topology::{MigrationCtx, TopologyState};
use crate::{GatewayError, Result};
use bytes::Bytes;
use iotkv::{Db, Options, PendingWrite, WriteBatch};
use parking_lot::RwLock;
use simkit::sync::{AtomicU64, Mutex, Ordering};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of region-server nodes (the paper scales 2 → 4 → 8).
    pub nodes: usize,
    /// Desired copies of every row. TPCx-IoT requires 3; effective
    /// replication is `min(factor, nodes)`.
    pub replication_factor: usize,
    /// Key prefixes to pre-split regions at (e.g. substation keys).
    pub split_points: Vec<Bytes>,
    /// Storage engine options applied to every node.
    pub storage: Options,
    /// Directory that holds one subdirectory per node.
    pub data_dir: PathBuf,
    /// Optional fault-injection plan (crashes, latency, transient
    /// errors). `None` runs the cluster fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Migration/drain pacing: number of copy chunks a migration may
    /// move back-to-back before it must pause for `migration_pacing`.
    /// `0` disables throttling (copy as fast as possible).
    pub migration_copy_budget: u32,
    /// How long a migration sleeps each time it exhausts the copy
    /// budget. Together with the budget this caps the share of storage
    /// bandwidth a drain can steal from foreground ingest.
    pub migration_pacing: Duration,
}

impl ClusterConfig {
    pub fn new(data_dir: impl Into<PathBuf>, nodes: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            replication_factor: 3,
            split_points: Vec::new(),
            storage: Options::default(),
            data_dir: data_dir.into(),
            fault_plan: None,
            // Modest default budget: a migration may copy 8 chunks
            // (~1k rows) before yielding for 50µs, enough to keep a
            // drain from monopolizing the storage engines.
            migration_copy_budget: 8,
            migration_pacing: Duration::from_micros(50),
        }
    }

    pub fn effective_replication(&self) -> usize {
        self.replication_factor.min(self.nodes)
    }

    fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(GatewayError::Config(
                "cluster needs at least one node".into(),
            ));
        }
        if self.replication_factor == 0 {
            return Err(GatewayError::Config(
                "replication factor must be positive".into(),
            ));
        }
        Ok(())
    }
}

pub(crate) struct Node {
    pub(crate) db: Db,
    pub(crate) writes: AtomicU64,
    pub(crate) reads: AtomicU64,
    /// Writes the node missed while down, replayed on restart.
    pub(crate) hints: Mutex<Vec<(Vec<u8>, Vec<u8>)>>,
    /// Serializes hint *replay* (drain + storage writes) so concurrent
    /// replayers cannot apply same-key hints out of order. Writers
    /// enqueueing fresh hints take only `hints`, never this lock, so the
    /// enqueue path cannot stall behind a replay's WAL fsyncs.
    pub(crate) replay: Mutex<()>,
}

impl Node {
    pub(crate) fn new(db: Db) -> Node {
        Node {
            db,
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            hints: Mutex::new(Vec::new()),
            replay: Mutex::new(()),
        }
    }
}

simkit::counters! {
    /// Counters describing how the cluster degraded under faults (all
    /// zero on a fault-free run). This is the one declaration of the
    /// resilience counters: the cells in [`Cluster`], their reset in
    /// [`Cluster::purge`], the snapshot, its merge and the exported
    /// JSON/Prometheus lines all derive from this list, in this order.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ResilienceStats, pub(crate) cells ResilienceCells {
        /// Reads and scans served by a replica because the primary was down.
        failover_reads,
        /// Replica writes skipped because the replica was down (each one is
        /// a hole the hint replay later fills).
        under_replicated_writes,
        /// Writes queued as hints for down replicas.
        hinted_writes,
        /// Hinted writes replayed into restarted nodes.
        replayed_hints,
        /// Operations that failed with [`GatewayError::Unavailable`].
        unavailable_errors,
        /// Transient faults absorbed inside a streaming scan (the cursor
        /// re-judged the node instead of failing the whole scan).
        scan_retries,
        /// Streaming scans that lost their node mid-stream and resumed on
        /// another replica from the last yielded key.
        scan_resumes,
        /// Region splits performed (planned events, explicit calls, and
        /// write-rate-threshold triggers).
        splits,
        /// Node drain events executed.
        drains,
        /// Replica migrations begun (snapshot copy started).
        migrations_started,
        /// Replica migrations finalized into the routing table.
        migrations_completed,
        /// Replica migrations abandoned (destination died mid-copy, no live
        /// source, or the region changed under the migration).
        migrations_aborted,
        /// Writes that detected a topology-epoch change after landing and
        /// re-wrote themselves against the new replica set.
        stale_route_retries,
        /// Migration copy chunks that paused at the in-flight copy budget
        /// (the drain throttle yielding bandwidth back to foreground ingest).
        migration_throttled,
    }
}

simkit::counters! {
    /// Point-in-time cluster statistics. The leading counters are the
    /// one declaration of the cluster's operation counters (cells, reset,
    /// snapshot, merge and export lines derive from it, in this order);
    /// the fields after them are gauges and nested snapshots.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct ClusterStats, pub(crate) cells OpCells {
        puts,
        gets,
        scans,
        /// Kvps acknowledged through [`Cluster::put_batch`] (a subset of
        /// `puts`).
        batched_puts,
        /// `put_batch` calls acknowledged — `batched_puts / put_batches` is
        /// the mean batch fill.
        put_batches,
        /// Physical replica writes performed (puts × effective replication
        /// when every replica is up).
        replica_writes,
        /// Rows yielded by streaming scans (all scans go through
        /// [`Cluster::scan_stream`]).
        rows_streamed;
        pub regions: usize,
        /// The routing-table version: bumped on every topology mutation
        /// (split, migration finalize, rebalance, drain).
        pub epoch: u64,
        /// Topology consistency at snapshot time: the region map holds its
        /// structural invariants, references only existing nodes, and no
        /// drained node is still routed. Folded into the run verdict.
        pub topology_ok: bool,
        /// Primary-write load per node.
        pub node_writes: Vec<u64>,
        pub node_reads: Vec<u64>,
        /// The replication factor the operator asked for.
        pub configured_replication: usize,
        /// The factor actually applied (`min(configured, nodes)`).
        pub effective_replication: usize,
        /// Warning flag: the configured factor exceeded the node count, so
        /// ingested data is stored with fewer copies than requested. The
        /// TPCx-IoT replication prerequisite check must fail such a setup.
        pub replication_clamped: bool,
        /// Degraded-mode accounting (all zero on a fault-free run).
        pub resilience: ResilienceStats,
        /// Faults injected by the configured plan, if any.
        pub faults: Option<crate::fault::FaultCounters>,
        /// Storage-engine statistics summed across every node (WAL syncs,
        /// flushes, compactions, block-cache hits/misses, ...).
        pub engine: iotkv::DbStats,
    }
}

impl ClusterStats {
    /// Mean kvps per acknowledged batch (0 when nothing was batched).
    pub fn batch_fill(&self) -> f64 {
        if self.put_batches == 0 {
            0.0
        } else {
            self.batched_puts as f64 / self.put_batches as f64
        }
    }

    /// Folds another sample of the same cluster in (e.g. across
    /// iterations): counters add, per-node vectors add element-wise,
    /// gauges keep the furthest value any sample saw. The replication
    /// settings and `faults` stay this sample's.
    pub fn merge(&mut self, other: &ClusterStats) {
        fn add_per_node(mine: &mut Vec<u64>, theirs: &[u64]) {
            if theirs.len() > mine.len() {
                mine.resize(theirs.len(), 0);
            }
            for (a, &b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.add_counters(other);
        self.resilience.add_counters(&other.resilience);
        self.engine.accumulate(&other.engine);
        add_per_node(&mut self.node_writes, &other.node_writes);
        add_per_node(&mut self.node_reads, &other.node_reads);
        self.regions = self.regions.max(other.regions);
        // The merged epoch is the furthest routing version any sample
        // saw; consistency must have held in *every* sample.
        self.epoch = self.epoch.max(other.epoch);
        self.topology_ok = self.topology_ok && other.topology_ok;
    }
}

/// An in-process distributed gateway cluster.
pub struct Cluster {
    pub(crate) config: ClusterConfig,
    /// Node set behind a lock so scheduled `NodeAdd` events can grow the
    /// cluster mid-run; each node is an `Arc` so in-flight cursors keep
    /// their engine alive across the brief write-lock windows.
    pub(crate) nodes: RwLock<Vec<Arc<Node>>>,
    pub(crate) regions: RwLock<RegionMap>,
    pub(crate) fault: Option<FaultState>,
    /// Scheduled topology events and split-threshold trackers; `None`
    /// when the plan schedules no reconfiguration.
    pub(crate) topology: Option<TopologyState>,
    /// Active migration contexts. Writers take the read side on every
    /// fenced put: a writer that misses a context here is guaranteed —
    /// by the lock's release/acquire edge — to have its replica writes
    /// visible to the migration's later snapshot pin.
    pub(crate) migrations: RwLock<Vec<Arc<MigrationCtx>>>,
    pub(crate) ops: OpCells,
    pub(crate) resilience: ResilienceCells,
}

impl Cluster {
    /// The initial routing table for `config`: pre-split at the
    /// configured points and placed round-robin, epoch 0.
    pub(crate) fn initial_regions(config: &ClusterConfig) -> RegionMap {
        let replication = config.effective_replication();
        let node_count = config.nodes;
        let regions = if config.split_points.is_empty() {
            RegionMap::single((0..replication).collect())
        } else {
            let mut points = config.split_points.clone();
            points.sort();
            points.dedup();
            RegionMap::pre_split(&points, |i| {
                (0..replication).map(|r| (i + r) % node_count).collect()
            })
        };
        debug_assert!(regions.check_invariants().is_ok());
        regions
    }

    /// Starts a cluster: one storage engine per node, regions pre-split at
    /// the configured split points and placed round-robin.
    pub fn start(config: ClusterConfig) -> Result<Cluster> {
        config.validate()?;
        let mut nodes = Vec::with_capacity(config.nodes);
        for i in 0..config.nodes {
            let dir = config.data_dir.join(format!("node-{i}"));
            nodes.push(Arc::new(Node::new(Db::open(&dir, config.storage.clone())?)));
        }
        let regions = Self::initial_regions(&config);
        let fault = config
            .fault_plan
            .clone()
            .map(|plan| FaultState::new(plan, config.nodes));
        let topology = config.fault_plan.as_ref().and_then(TopologyState::new);
        Ok(Cluster {
            config,
            nodes: RwLock::new(nodes),
            regions: RwLock::new(regions),
            fault,
            topology,
            migrations: RwLock::new(Vec::new()),
            ops: OpCells::default(),
            resilience: ResilienceCells::default(),
        })
    }

    /// Advances the fault clock (no-op without a plan) and fires any
    /// topology event whose scheduled op has arrived.
    pub(crate) fn fault_tick(&self) -> u64 {
        let now = self.fault.as_ref().map_or(0, |f| f.tick());
        self.run_due_topology(now);
        now
    }

    /// Whether `node` refuses operations at fault-clock `now`.
    pub(crate) fn node_down(&self, node: usize, now: u64) -> bool {
        self.fault.as_ref().is_some_and(|f| f.node_down(node, now))
    }

    /// Cheap clone of one node's handle; callers never hold the node-set
    /// lock across storage operations.
    pub(crate) fn node(&self, idx: usize) -> Arc<Node> {
        Arc::clone(&self.nodes.read()[idx])
    }

    /// Drains `node`'s hint queue into its storage engine if the node is
    /// up — called before any operation touches the node, so a restarted
    /// replica serves every write it was acknowledged for.
    pub(crate) fn maybe_replay_hints(&self, node: usize, now: u64) {
        if self.fault.is_none() || self.node_down(node, now) {
            return;
        }
        let n = self.node(node);
        // Serialize whole replays (drain + apply) on the dedicated replay
        // lock — concurrent replayers must not interleave same-key hints
        // — but drain the queue and drop the `hints` guard before any
        // storage write: each put fsyncs the WAL, and writers queueing
        // fresh hints for this node must never stall behind that. A hint
        // enqueued after the drain is replayed on the next call, which is
        // the same guarantee a hint enqueued after this call ever had.
        let _replaying = n.replay.lock();
        let drained: Vec<(Vec<u8>, Vec<u8>)> = {
            let mut hints = n.hints.lock();
            if hints.is_empty() {
                return;
            }
            hints.drain(..).collect()
        };
        for (k, v) in drained {
            // lint:allow(blocking-under-lock) the only guard live here is
            // `replay`, which writers never take — it exists precisely so
            // these WAL fsyncs wedge no one but a competing replay of the
            // same node.
            if n.db.put(&k, &v).is_ok() {
                // ordering: Relaxed — statistics counters; reconciliation
                // reads them through stats() snapshots only.
                n.writes.fetch_add(1, Ordering::Relaxed);
                self.resilience
                    .replayed_hints
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn unavailable(&self, msg: impl Into<String>) -> GatewayError {
        // ordering: Relaxed — statistics counter.
        self.resilience
            .unavailable_errors
            .fetch_add(1, Ordering::Relaxed);
        GatewayError::Unavailable(msg.into())
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn node_count(&self) -> usize {
        self.nodes.read().len()
    }

    /// The replication factor actually applied to writes — what the
    /// TPCx-IoT *data replication check* verifies.
    pub fn effective_replication(&self) -> usize {
        self.config.effective_replication()
    }

    /// Writes `key` to every live replica of its region, synchronously:
    /// a group of one through the write path described at
    /// [`Cluster::put_batch`].
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.replicate(&[(key, value)])
    }

    /// Writes a batch of kvps in one cluster operation: items are grouped
    /// per region, fault judgment runs once per `(node, group)`, and each
    /// live replica applies its group through a single storage-engine
    /// [`WriteBatch`] — one WAL record and one group-commit slot per
    /// group instead of one per kvp. Every replica batch of the call is
    /// submitted before any is awaited, so the replicas commit
    /// concurrently, and the call returns only once all of them have.
    ///
    /// Degraded mode: down replicas are skipped and receive one hint per
    /// kvp (replayed on restart); the call is acknowledged as long as
    /// every group reached at least one live replica. A transient verdict
    /// or a group with no live replica fails the whole call with
    /// [`GatewayError::Unavailable`] *before* any replica write, so the
    /// caller retries it as a unit from a clean slate.
    ///
    /// Topology fencing: the route is captured with the region map's
    /// epoch; after the replica writes land, each kvp records itself in
    /// any active migration delta covering its key and re-checks the
    /// epoch. A bumped epoch means the replica set may have changed under
    /// the write (split finalize, migration, drain) — the kvp is
    /// re-written to any replica it has not reached yet instead of acking
    /// a row that only lives on a node the new topology no longer routes.
    pub fn put_batch(&self, items: &[(Bytes, Bytes)]) -> Result<()> {
        if items.is_empty() {
            return Ok(());
        }
        self.replicate(items)?;
        // ordering: Relaxed — statistics counters.
        self.ops
            .batched_puts
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        self.ops.put_batches.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The one write path behind [`Cluster::put`] and
    /// [`Cluster::put_batch`]: route and judge every group, then land
    /// them, fence each kvp and account.
    fn replicate<K: AsRef<[u8]>, V: AsRef<[u8]>>(&self, items: &[(K, V)]) -> Result<()> {
        let now = self.fault_tick();
        let (epoch, groups) = self.plan_write(items, now)?;
        self.commit_write(items, epoch, &groups, now)
    }

    /// Lands a planned write and accounts for it. Replica writes are
    /// counted as they land and added on this function's single exit, so
    /// the stats reconcile with per-node `writes` (and `node_db_stats`)
    /// even when a storage engine fails partway — in the replica fan-out
    /// or in the fence. `puts` is only bumped on full acknowledgement.
    fn commit_write<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        &self,
        items: &[(K, V)],
        epoch: u64,
        groups: &[WriteGroup],
        now: u64,
    ) -> Result<()> {
        // ordering: Relaxed — every counter below is a statistic; the
        // reconciliation invariant is over stats() snapshots, not a
        // synchronization point, and the payload travels through the
        // storage engine's own write path.
        let mut written = 0u64;
        let landed = self.land_groups(items, groups, epoch, now, &mut written);
        self.ops
            .replica_writes
            .fetch_add(written, Ordering::Relaxed);
        landed?;
        self.ops
            .puts
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        for group in groups {
            if let Some(&last) = group.idxs.last() {
                let count = group.idxs.len() as u64;
                self.note_region_writes(group.region_id, count, items[last].0.as_ref());
            }
        }
        Ok(())
    }

    /// Groups `items` per region (in region-id order, deterministic for
    /// the fault machinery) under one epoch, then judges every
    /// `(node, group)` pair. Nothing is written here: the call is the
    /// retry unit, so a verdict that fails it must come before any write.
    fn plan_write<K: AsRef<[u8]>, V>(
        &self,
        items: &[(K, V)],
        now: u64,
    ) -> Result<(u64, Vec<WriteGroup>)> {
        let mut groups: Vec<WriteGroup> = Vec::new();
        let epoch = {
            let map = self.regions.read();
            for (idx, (key, _)) in items.iter().enumerate() {
                if key.as_ref().is_empty() {
                    return Err(iotkv::Error::invalid("key must not be empty").into());
                }
                let region = map.lookup(key.as_ref());
                match groups.iter_mut().find(|g| g.region_id == region.id) {
                    Some(group) => group.idxs.push(idx),
                    None => groups.push(WriteGroup {
                        region_id: region.id,
                        idxs: vec![idx],
                        live: region.replicas.clone(),
                        down: Vec::new(),
                    }),
                }
            }
            map.epoch()
        };
        groups.sort_unstable_by_key(|g| g.region_id);
        if let Some(fault) = &self.fault {
            for group in &mut groups {
                let keys: Vec<&[u8]> = group.idxs.iter().map(|&i| items[i].0.as_ref()).collect();
                for node in std::mem::take(&mut group.live) {
                    self.maybe_replay_hints(node, now);
                    match fault.judge_batch(node, &keys, now) {
                        FaultVerdict::Ok => group.live.push(node),
                        FaultVerdict::NodeDown => group.down.push(node),
                        FaultVerdict::Transient => {
                            return Err(self.unavailable(format!("transient fault on node {node}")))
                        }
                    }
                }
                if group.live.is_empty() {
                    return Err(self.unavailable("no live replica for write"));
                }
            }
        }
        Ok((epoch, groups))
    }

    /// Lands every group on its live replicas, hints its down ones, then
    /// runs the per-kvp epoch fence. Every replica write that lands is
    /// added to `written`, whichever way this returns.
    fn land_groups<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        &self,
        items: &[(K, V)],
        groups: &[WriteGroup],
        epoch: u64,
        now: u64,
        written: &mut u64,
    ) -> Result<()> {
        let targets = groups.iter().flat_map(|group| {
            let idxs = group.idxs.as_slice();
            let live = group.live.iter().map(move |&node| (node, false, idxs));
            live.chain(group.down.iter().map(move |&node| (node, true, idxs)))
        });
        self.deliver(items, targets, written)?;
        if self.fault.is_some() {
            // The groups landed as units, but a concurrent topology change
            // re-routes each key independently.
            for group in groups {
                for &i in &group.idxs {
                    // Both handled sets fence the rewrite: a node that took
                    // the write directly or via hint needs no second copy.
                    let mut handled = group.live.clone();
                    handled.extend_from_slice(&group.down);
                    self.fence_stale_route(items, i, epoch, &mut handled, now, written)?;
                }
            }
        }
        Ok(())
    }

    /// The one place a replica is written or hinted. Each target
    /// `(node, down, idxs)` gets the kvps `items[idxs]`: one storage batch
    /// when it is up, one hint per kvp (replayed on restart) when it is
    /// down.
    ///
    /// Every storage batch is in flight before any is awaited. Pass 1
    /// submits to the targets in order and stops at the first submit that
    /// fails: nothing after that target is written or hinted. Pass 2 awaits
    /// every write that was submitted and counts each one that landed in
    /// `written` and its node's `writes`. The first error in target order
    /// is returned only after that, so nothing is acked while a replica
    /// write is still in flight and the counts stay reconciled.
    fn deliver<'i, K: AsRef<[u8]>, V: AsRef<[u8]>>(
        &self,
        items: &[(K, V)],
        targets: impl IntoIterator<Item = (usize, bool, &'i [usize])>,
        written: &mut u64,
    ) -> Result<()> {
        let mut in_flight: Vec<(Arc<Node>, u64, PendingWrite)> = Vec::new();
        let mut submitted = Ok(());
        for (node, down, idxs) in targets {
            let kvps = idxs
                .iter()
                .map(|&i| (items[i].0.as_ref(), items[i].1.as_ref()));
            let count = idxs.len() as u64;
            let n = self.node(node);
            if down {
                n.hints
                    .lock()
                    .extend(kvps.map(|(k, v)| (k.to_vec(), v.to_vec())));
                // ordering: Relaxed — statistics counters (see commit_write()).
                self.resilience
                    .hinted_writes
                    .fetch_add(count, Ordering::Relaxed);
                self.resilience
                    .under_replicated_writes
                    .fetch_add(count, Ordering::Relaxed);
                continue;
            }
            let mut batch = WriteBatch::new();
            for (key, value) in kvps {
                batch.put(key, value);
            }
            match n.db.submit(batch) {
                Ok(pending) => in_flight.push((n, count, pending)),
                Err(e) => {
                    submitted = Err(e.into());
                    break;
                }
            }
        }
        let mut landed = Ok(());
        for (n, count, pending) in in_flight {
            match pending.wait() {
                Ok(()) => {
                    // ordering: Relaxed — statistics counter.
                    n.writes.fetch_add(count, Ordering::Relaxed);
                    *written += count;
                }
                Err(e) => {
                    if landed.is_ok() {
                        landed = Err(e.into());
                    }
                }
            }
        }
        landed.and(submitted)
    }

    /// The epoch fence of one kvp: records the write in active migration
    /// deltas, then re-checks the map epoch and re-delivers to any replica
    /// of the *current* route not in `handled`. Loops until the epoch is
    /// stable — each pass either exits or observes a strictly larger
    /// epoch, and a run performs finitely many topology mutations, so the
    /// loop terminates.
    fn fence_stale_route<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        &self,
        items: &[(K, V)],
        idx: usize,
        mut epoch: u64,
        handled: &mut Vec<usize>,
        now: u64,
        written: &mut u64,
    ) -> Result<()> {
        let (key, value) = (items[idx].0.as_ref(), items[idx].1.as_ref());
        loop {
            self.capture_migration_delta(key, value);
            let (new_epoch, new_replicas) = {
                let map = self.regions.read();
                (map.epoch(), map.lookup(key).replicas.clone())
            };
            if new_epoch == epoch {
                return Ok(());
            }
            epoch = new_epoch;
            let missing: Vec<usize> = new_replicas
                .iter()
                .copied()
                .filter(|n| !handled.contains(n))
                .collect();
            if missing.is_empty() {
                continue; // re-check: the epoch moved again mid-read
            }
            // ordering: Relaxed — statistics counter.
            self.resilience
                .stale_route_retries
                .fetch_add(1, Ordering::Relaxed);
            handled.extend_from_slice(&missing);
            let targets = missing
                .iter()
                .map(|&node| (node, self.node_down(node, now), std::slice::from_ref(&idx)));
            self.deliver(items, targets, written)?;
        }
    }

    /// Appends the write to every active migration delta covering `key`.
    /// Writers always pass through this registry on the fenced path: the
    /// RwLock's release/acquire edge guarantees that a writer who saw no
    /// context here committed its replica writes before the migration's
    /// snapshot pin, so the copy includes them.
    fn capture_migration_delta(&self, key: &[u8], value: &[u8]) {
        let migrations = self.migrations.read();
        for ctx in migrations.iter() {
            if ctx.covers(key) {
                ctx.push_delta(key, value);
            }
        }
    }

    /// Reads `key` from its region's primary, failing over to the first
    /// live replica when the primary is down.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let now = self.fault_tick();
        let (primary, replicas) = {
            let map = self.regions.read();
            let region = map.lookup(key);
            (region.primary, region.replicas.clone())
        };
        let node = self.pick_read_node(primary, &replicas, key, now)?;
        let n = self.node(node);
        // ordering: Relaxed — statistics counters.
        n.reads.fetch_add(1, Ordering::Relaxed);
        self.ops.gets.fetch_add(1, Ordering::Relaxed);
        Ok(n.db.get(key)?)
    }

    /// Routing for gets: the primary when live, otherwise the first live
    /// replica. The first verdict on that node decides the read.
    fn pick_read_node(
        &self,
        primary: usize,
        replicas: &[usize],
        key: &[u8],
        now: u64,
    ) -> Result<usize> {
        let Some(fault) = &self.fault else {
            return Ok(primary);
        };
        let accept = |node| match fault.judge(node, key, now) {
            FaultVerdict::Ok => Ok(true),
            FaultVerdict::NodeDown => Err(self.unavailable(format!("node {node} went down"))),
            FaultVerdict::Transient => {
                Err(self.unavailable(format!("transient fault on node {node}")))
            }
        };
        self.walk_read_candidates(fault, primary, replicas, now, accept)?
            .ok_or_else(|| self.unavailable("no live replica for read"))
    }

    /// The read-candidate walk gets and scans share: the primary, then the
    /// other replicas, each with its hints replayed first and skipped
    /// while down. `accept` judges a live candidate — `Ok(true)` serves
    /// the read there, `Ok(false)` moves on, `Err` fails the read. Serving
    /// anywhere but the primary counts a failover. `None`: nobody served.
    fn walk_read_candidates(
        &self,
        fault: &FaultState,
        primary: usize,
        replicas: &[usize],
        now: u64,
        mut accept: impl FnMut(usize) -> Result<bool>,
    ) -> Result<Option<usize>> {
        for node in
            std::iter::once(primary).chain(replicas.iter().copied().filter(|&n| n != primary))
        {
            self.maybe_replay_hints(node, now);
            if fault.node_down(node, now) || !accept(node)? {
                continue;
            }
            if node != primary {
                // ordering: Relaxed — statistics counter.
                self.resilience
                    .failover_reads
                    .fetch_add(1, Ordering::Relaxed);
            }
            return Ok(Some(node));
        }
        Ok(None)
    }

    /// Ordered scan of `[start, end)` across all covering regions, up to
    /// `limit` rows. A thin materializing wrapper over
    /// [`Cluster::scan_stream`] kept for point-lookup-style callers.
    pub fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> Result<Vec<(Bytes, Bytes)>> {
        if start >= end || limit == 0 {
            return Ok(Vec::new());
        }
        let mut rows = Vec::new();
        for item in self.scan_stream(start, end) {
            if rows.len() >= limit {
                break;
            }
            rows.push(item?);
        }
        Ok(rows)
    }

    /// Pull-based streaming scan of `[start, end)` chaining every
    /// covering region in key order.
    ///
    /// Per-region read routing matches [`Cluster::get`]: primary first,
    /// then the first live replica (a failover). Two things the
    /// materializing path never did:
    ///
    /// * a *transient* verdict while opening a region cursor is re-judged
    ///   up to [`ClusterScan::OPEN_RETRY_ATTEMPTS`] times (counted in
    ///   `scan_retries`) instead of failing the whole scan, and
    /// * every [`ClusterScan::LIVENESS_REFRESH_ROWS`] rows the fault
    ///   clock is consulted again; if the serving node died mid-stream
    ///   the scan *resumes* on another live replica from the successor
    ///   of the last yielded key (counted in `scan_resumes`, and in
    ///   `failover_reads` when the new node is not the primary).
    ///
    /// The scan fails only when a region has no live replica at all.
    pub fn scan_stream(&self, start: &[u8], end: &[u8]) -> ClusterScan<'_> {
        // ordering: Relaxed — statistics counter.
        self.ops.scans.fetch_add(1, Ordering::Relaxed);
        let targets: Vec<ScanTarget> = if start >= end {
            Vec::new()
        } else {
            let map = self.regions.read();
            map.covering(start, end)
                .into_iter()
                .map(|r| {
                    let lo = if r.start.as_ref() > start {
                        r.start.clone()
                    } else {
                        Bytes::copy_from_slice(start)
                    };
                    let hi = if !r.end.is_empty() && r.end.as_ref() < end {
                        r.end.clone()
                    } else {
                        Bytes::copy_from_slice(end)
                    };
                    ScanTarget {
                        primary: r.primary,
                        replicas: r.replicas.clone(),
                        lo,
                        hi,
                    }
                })
                .collect()
        };
        ClusterScan {
            cluster: self,
            targets: targets.into_iter(),
            cursor: None,
            rows_streamed: 0,
            done: false,
        }
    }

    /// Flushes every node's storage engine to disk.
    pub fn flush_all(&self) -> Result<()> {
        let nodes: Vec<Arc<Node>> = self.nodes.read().iter().map(Arc::clone).collect();
        for node in &nodes {
            node.db.flush()?;
        }
        Ok(())
    }

    /// TPCx-IoT *system cleanup*: purges all ingested data, deletes the
    /// storage directories, and restarts every storage engine. Counters
    /// reset too — the next iteration starts from identical conditions.
    pub fn purge(&mut self) -> Result<()> {
        let storage = self.config.storage.clone();
        {
            let mut nodes = self.nodes.write();
            // Drop every engine first (closing its threads), then wipe.
            // Mid-run-added nodes are dropped for good: the next
            // iteration replays the same NodeAdd events from scratch.
            let old: Vec<Arc<Node>> = std::mem::take(&mut *nodes);
            let old_count = old.len();
            drop(old);
            for i in 0..old_count {
                let dir = self.config.data_dir.join(format!("node-{i}"));
                std::fs::remove_dir_all(&dir).map_err(iotkv::Error::from)?;
            }
            for i in 0..self.config.nodes {
                let dir = self.config.data_dir.join(format!("node-{i}"));
                // lint:allow(blocking-under-lock) purge is the
                // between-iterations reset and holds `&mut self`; the
                // guard is held across the re-opens deliberately so no
                // concurrent reader can ever observe a half-rebuilt node
                // set. There is no live traffic to wedge.
                nodes.push(Arc::new(Node::new(Db::open(&dir, storage.clone())?)));
            }
        }
        self.reset_topology();
        self.ops.reset();
        self.resilience.reset();
        // Restart the fault plan too: each iteration faces the same
        // schedule, so warm-up and measured runs degrade identically.
        self.fault = self
            .config
            .fault_plan
            .clone()
            .map(|plan| FaultState::new(plan, self.config.nodes));
        Ok(())
    }

    /// Storage-engine statistics of one node.
    pub fn node_db_stats(&self, node: usize) -> iotkv::DbStats {
        self.node(node).db.stats()
    }

    /// Degraded-mode counters only (a cheap subset of [`Cluster::stats`]).
    pub fn resilience(&self) -> ResilienceStats {
        self.resilience.load()
    }

    pub fn stats(&self) -> ClusterStats {
        // ordering: Relaxed — statistics snapshot; the replica-writes
        // reconciliation tolerates in-flight operations.
        let nodes: Vec<Arc<Node>> = self.nodes.read().iter().map(Arc::clone).collect();
        let (regions, epoch) = {
            let map = self.regions.read();
            (map.len(), map.epoch())
        };
        ClusterStats {
            regions,
            epoch,
            topology_ok: self.topology_consistent(),
            node_writes: nodes
                .iter()
                .map(|n| n.writes.load(Ordering::Relaxed))
                .collect(),
            node_reads: nodes
                .iter()
                .map(|n| n.reads.load(Ordering::Relaxed))
                .collect(),
            configured_replication: self.config.replication_factor,
            effective_replication: self.config.effective_replication(),
            replication_clamped: self.config.replication_factor > self.config.nodes,
            resilience: self.resilience(),
            faults: self.fault.as_ref().map(|f| f.counters()),
            engine: {
                let mut engine = iotkv::DbStats::default();
                for node in &nodes {
                    engine.accumulate(&node.db.stats());
                }
                engine
            },
            ..self.ops.load()
        }
    }
}

/// One region's share of a write: the kvps routed to it and its replica
/// set, split by the fault judge into the nodes that take the write and
/// the nodes that take hints.
struct WriteGroup {
    region_id: u64,
    /// Indices into the caller's items, in caller order.
    idxs: Vec<usize>,
    live: Vec<usize>,
    down: Vec<usize>,
}

/// One region's slice of a streaming scan.
struct ScanTarget {
    primary: usize,
    replicas: Vec<usize>,
    lo: Bytes,
    hi: Bytes,
}

/// An open cursor into one region's serving node.
struct ScanCursor {
    target: ScanTarget,
    node: usize,
    iter: iotkv::ScanIter,
    /// Last key yielded from this region — the resume point after a
    /// mid-stream failover (the scan restarts at its strict successor).
    last_key: Option<Bytes>,
    rows_since_check: u64,
}

/// A streaming cluster scan, created by [`Cluster::scan_stream`]. See
/// there for the routing, retry, and mid-stream failover semantics.
pub struct ClusterScan<'c> {
    cluster: &'c Cluster,
    targets: std::vec::IntoIter<ScanTarget>,
    cursor: Option<ScanCursor>,
    rows_streamed: u64,
    done: bool,
}

impl ClusterScan<'_> {
    /// How many times a *transient* verdict is re-judged while opening a
    /// region cursor before the scan gives up. Transient bursts are
    /// finite per (node, key), so re-judging makes progress.
    pub const OPEN_RETRY_ATTEMPTS: u32 = 4;
    /// Rows streamed from one node between fault-clock liveness checks.
    /// Models scan duration: a node that crashes while a long scan is in
    /// flight is noticed mid-stream, not only at the next scan.
    pub const LIVENESS_REFRESH_ROWS: u64 = 128;

    /// Routes one region cursor open (or resume): primary first, then
    /// live replicas, absorbing transient verdicts with bounded retries.
    fn open_cursor(&self, target: ScanTarget, from: &[u8], resume: bool) -> Result<ScanCursor> {
        let cluster = self.cluster;
        let node = match &cluster.fault {
            None => target.primary,
            Some(fault) => {
                let now = cluster.fault_tick();
                let accept = |node| {
                    let mut attempt = 0;
                    loop {
                        match fault.judge(node, from, now) {
                            FaultVerdict::Ok => return Ok(true),
                            FaultVerdict::NodeDown => return Ok(false), // next candidate
                            FaultVerdict::Transient => {
                                attempt += 1;
                                if attempt >= Self::OPEN_RETRY_ATTEMPTS {
                                    return Err(cluster
                                        .unavailable(format!("transient fault on node {node}")));
                                }
                                // ordering: Relaxed — statistics counter.
                                cluster
                                    .resilience
                                    .scan_retries
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                };
                cluster
                    .walk_read_candidates(fault, target.primary, &target.replicas, now, accept)?
                    .ok_or_else(|| cluster.unavailable("no live replica for scan"))?
            }
        };
        // ordering: Relaxed — statistics counters.
        if resume {
            cluster
                .resilience
                .scan_resumes
                .fetch_add(1, Ordering::Relaxed);
        }
        let n = cluster.node(node);
        n.reads.fetch_add(1, Ordering::Relaxed);
        let iter = n.db.scan_iter(from, &target.hi);
        Ok(ScanCursor {
            target,
            node,
            iter,
            last_key: None,
            rows_since_check: 0,
        })
    }

    /// Reopens the active cursor on another live node, continuing from
    /// the strict successor of the last yielded key.
    fn resume_cursor(&mut self) -> Result<()> {
        // No active cursor means there is nothing to resume; the iterator
        // loop will simply open the next region target.
        let Some(cursor) = self.cursor.take() else {
            return Ok(());
        };
        let from = match &cursor.last_key {
            // `key ++ 0x00` is the smallest key strictly after `key`.
            Some(key) => {
                let mut succ = Vec::with_capacity(key.len() + 1);
                succ.extend_from_slice(key);
                succ.push(0);
                Bytes::from(succ)
            }
            None => cursor.target.lo.clone(),
        };
        let last_key = cursor.last_key.clone();
        let mut reopened = self.open_cursor(cursor.target, &from, true)?;
        reopened.last_key = last_key;
        self.cursor = Some(reopened);
        Ok(())
    }
}

impl Iterator for ClusterScan<'_> {
    type Item = Result<(Bytes, Bytes)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            if self.cursor.is_none() {
                let target = self.targets.next()?;
                let lo = target.lo.clone();
                match self.open_cursor(target, &lo, false) {
                    Ok(cursor) => self.cursor = Some(cursor),
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
            }
            let Some(cursor) = self.cursor.as_mut() else {
                // Just ensured above; looping again re-ensures rather than
                // panicking if that invariant ever changes.
                continue;
            };
            if self.cluster.fault.is_some()
                && cursor.rows_since_check >= Self::LIVENESS_REFRESH_ROWS
            {
                cursor.rows_since_check = 0;
                let now = self.cluster.fault_tick();
                if self.cluster.node_down(cursor.node, now) {
                    // The serving node died mid-stream: fail over.
                    if let Err(e) = self.resume_cursor() {
                        self.done = true;
                        return Some(Err(e));
                    }
                    continue;
                }
            }
            match cursor.iter.next() {
                Some(Ok((key, value))) => {
                    cursor.last_key = Some(key.clone());
                    cursor.rows_since_check += 1;
                    self.rows_streamed += 1;
                    return Some(Ok((key, value)));
                }
                Some(Err(e)) => {
                    // Storage error mid-region: treat the node as lost
                    // and resume elsewhere; surface only if that fails.
                    let _ = e;
                    if let Err(e) = self.resume_cursor() {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
                None => self.cursor = None, // region exhausted
            }
        }
    }
}

impl Drop for ClusterScan<'_> {
    fn drop(&mut self) {
        // ordering: Relaxed — statistics counter; credited once per scan at
        // drop so partially consumed scans still account their rows.
        self.cluster
            .ops
            .rows_streamed
            .fetch_add(self.rows_streamed, Ordering::Relaxed);
    }
}

/// Shared handle (the driver spawns many threads against one cluster).
pub type SharedCluster = Arc<Cluster>;

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "gateway-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn small_cluster(name: &str, nodes: usize, splits: &[&str]) -> Cluster {
        let mut config = ClusterConfig::new(tmpdir(name), nodes);
        config.storage = Options::small();
        config.split_points = splits
            .iter()
            .map(|s| Bytes::copy_from_slice(s.as_bytes()))
            .collect();
        Cluster::start(config).unwrap()
    }

    fn destroy(c: Cluster) {
        let dir = c.config().data_dir.clone();
        drop(c);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn put_get_scan_single_region() {
        let c = small_cluster("basic", 3, &[]);
        c.put(b"sensor/001", b"v1").unwrap();
        c.put(b"sensor/002", b"v2").unwrap();
        assert_eq!(c.get(b"sensor/001").unwrap().unwrap().as_ref(), b"v1");
        assert_eq!(c.get(b"missing").unwrap(), None);
        let rows = c.scan(b"sensor/", b"sensor/zzz", 10).unwrap();
        assert_eq!(rows.len(), 2);
        destroy(c);
    }

    #[test]
    fn writes_hit_every_replica() {
        let c = small_cluster("replica", 4, &[]);
        assert_eq!(c.effective_replication(), 3);
        for i in 0..50 {
            c.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.puts, 50);
        assert_eq!(stats.replica_writes, 150, "3 replica writes per put");
        // Exactly 3 of 4 nodes received the single region's writes.
        let active = stats.node_writes.iter().filter(|&&w| w > 0).count();
        assert_eq!(active, 3);
        destroy(c);
    }

    #[test]
    fn replication_capped_by_cluster_size() {
        let c = small_cluster("cap", 2, &[]);
        assert_eq!(c.effective_replication(), 2);
        c.put(b"k", b"v").unwrap();
        assert_eq!(c.stats().replica_writes, 2);
        destroy(c);
    }

    #[test]
    fn scans_span_regions() {
        let c = small_cluster("span", 3, &["g", "p"]);
        assert_eq!(c.stats().regions, 3);
        for key in ["alpha", "gamma", "golf", "quebec", "zulu"] {
            c.put(key.as_bytes(), b"v").unwrap();
        }
        let rows = c.scan(b"a", b"zz", 100).unwrap();
        let keys: Vec<_> = rows
            .iter()
            .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
            .collect();
        assert_eq!(keys, vec!["alpha", "gamma", "golf", "quebec", "zulu"]);
        // Limit across regions.
        let rows = c.scan(b"a", b"zz", 3).unwrap();
        assert_eq!(rows.len(), 3);
        destroy(c);
    }

    #[test]
    fn pre_split_spreads_load() {
        let c = small_cluster("spread", 4, &["b", "c", "d"]);
        for key in ["a1", "b1", "c1", "d1"] {
            c.put(key.as_bytes(), b"v").unwrap();
        }
        let stats = c.stats();
        // 4 regions round-robin over 4 nodes with rf=3: every node is
        // primary for one region; each put lands on 3 nodes.
        assert_eq!(stats.node_writes.iter().sum::<u64>(), 12);
        assert!(stats.node_writes.iter().all(|&w| w == 3));
        destroy(c);
    }

    #[test]
    fn runtime_split_then_route() {
        let c = small_cluster("split", 2, &[]);
        for i in 0..20 {
            c.put(format!("key{i:02}").as_bytes(), b"v").unwrap();
        }
        assert!(c.split_region(b"key10").is_some());
        assert_eq!(c.stats().regions, 2);
        // Data written before the split is still on the old replica set;
        // new writes route by the new map. Reads of new writes work.
        c.put(b"key99", b"fresh").unwrap();
        assert_eq!(c.get(b"key99").unwrap().unwrap().as_ref(), b"fresh");
        let moved = c.rebalance();
        let _ = moved; // rebalance is allowed to be a no-op here
        destroy(c);
    }

    #[test]
    fn purge_resets_everything() {
        let mut c = small_cluster("purge", 2, &[]);
        for i in 0..100 {
            c.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
        }
        assert_eq!(c.stats().puts, 100);
        c.purge().unwrap();
        let stats = c.stats();
        assert_eq!(stats.puts, 0);
        assert_eq!(c.get(b"k000").unwrap(), None);
        assert!(c.scan(b"a", b"z", 100).unwrap().is_empty());
        // Cluster is usable again after purge.
        c.put(b"post", b"purge").unwrap();
        assert_eq!(c.get(b"post").unwrap().unwrap().as_ref(), b"purge");
        destroy(c);
    }

    #[test]
    fn replication_clamp_is_flagged() {
        let c = small_cluster("clamp-flag", 2, &[]);
        let stats = c.stats();
        assert_eq!(stats.configured_replication, 3);
        assert_eq!(stats.effective_replication, 2);
        assert!(stats.replication_clamped, "2 nodes cannot hold 3 copies");
        let full = small_cluster("clamp-ok", 3, &[]);
        assert!(!full.stats().replication_clamped);
        destroy(full);
        destroy(c);
    }

    #[test]
    fn failover_and_hinted_handoff_preserve_acked_writes() {
        use crate::fault::FaultPlan;
        // Ops 0..: put a (1 tick), crash node 0 for ops [1, 4), then:
        // put b (down: hinted), get b (failover), get b (restarted).
        let mut config = ClusterConfig::new(tmpdir("failover"), 3);
        config.storage = Options::small();
        config.fault_plan = Some(FaultPlan::quiet(9).with_crash(0, 1, Some(3)));
        let c = Cluster::start(config).unwrap();
        assert_eq!(c.stats().regions, 1, "single region, primary = node 0");

        c.put(b"a", b"v1").unwrap(); // op 0: all replicas up
        c.put(b"b", b"v2").unwrap(); // op 1: node 0 down, acked by 2 replicas
        let r = c.resilience();
        assert_eq!(r.under_replicated_writes, 1);
        assert_eq!(r.hinted_writes, 1);

        // op 2: primary down → replica serves the read.
        assert_eq!(c.get(b"b").unwrap().unwrap().as_ref(), b"v2");
        assert_eq!(c.resilience().failover_reads, 1);

        // op 3: still down; op 4: restarted — hint replay fills node 0
        // before the primary read, so the acked write is visible.
        assert_eq!(c.get(b"b").unwrap().unwrap().as_ref(), b"v2");
        assert_eq!(c.get(b"b").unwrap().unwrap().as_ref(), b"v2");
        let r = c.resilience();
        assert_eq!(r.replayed_hints, 1);
        assert_eq!(r.unavailable_errors, 0);
        destroy(c);
    }

    #[test]
    fn all_replicas_down_is_unavailable() {
        use crate::fault::FaultPlan;
        let mut config = ClusterConfig::new(tmpdir("alldown"), 1);
        config.storage = Options::small();
        config.replication_factor = 1;
        config.fault_plan = Some(FaultPlan::quiet(4).with_crash(0, 0, None));
        let c = Cluster::start(config).unwrap();
        assert!(matches!(
            c.put(b"k", b"v"),
            Err(GatewayError::Unavailable(_))
        ));
        assert!(matches!(c.get(b"k"), Err(GatewayError::Unavailable(_))));
        assert!(matches!(
            c.scan(b"a", b"z", 10),
            Err(GatewayError::Unavailable(_))
        ));
        let r = c.resilience();
        assert_eq!(r.unavailable_errors, 3);
        assert_eq!(c.stats().puts, 0, "nothing was acknowledged");
        destroy(c);
    }

    #[test]
    fn scan_stream_resumes_after_mid_scan_crash() {
        use crate::fault::FaultPlan;
        // 300 puts consume fault ops 0..300; the scan then ticks op 300
        // at cursor open and op 301 at the first liveness refresh (after
        // LIVENESS_REFRESH_ROWS rows). Crashing node 0 (the primary) at
        // op 301 forces a mid-stream failover to a replica.
        let mut config = ClusterConfig::new(tmpdir("midscan"), 3);
        config.storage = Options::small();
        config.fault_plan = Some(FaultPlan::quiet(21).with_crash(0, 301, None));
        let c = Cluster::start(config).unwrap();
        assert_eq!(c.stats().regions, 1, "single region, primary = node 0");
        for i in 0..300 {
            c.put(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let rows = c
            .scan_stream(b"k", b"l")
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(rows.len(), 300, "no row lost or duplicated by the resume");
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "order preserved");
        let r = c.resilience();
        assert_eq!(r.scan_resumes, 1);
        assert!(r.failover_reads >= 1, "resumed on a non-primary replica");
        assert_eq!(r.unavailable_errors, 0);
        assert_eq!(c.stats().rows_streamed, 300);
        destroy(c);
    }

    #[test]
    fn scan_stream_absorbs_transient_faults_at_open() {
        use crate::fault::FaultPlan;
        let mut config = ClusterConfig::new(tmpdir("scantransient"), 3);
        config.storage = Options::small();
        config.fault_plan = Some(FaultPlan::quiet(13).with_transient(0.9, 2));
        let c = Cluster::start(config).unwrap();
        for i in 0..20 {
            let key = format!("k{i:02}");
            while c.put(key.as_bytes(), b"v").is_err() {}
        }
        // The retry-until-acked put loop above surfaced its own transient
        // errors; only the scans below must not add any.
        let unavailable_before = c.resilience().unavailable_errors;
        // Cursor opens are judged on the start key; a 90% plan injects a
        // burst on nearly every one. Bursts (≤ 2) are shorter than
        // OPEN_RETRY_ATTEMPTS, so every scan succeeds without surfacing
        // a transient error — unlike the old all-or-nothing path.
        for i in 0..20 {
            let start = format!("k{i:02}");
            let rows = c.scan(start.as_bytes(), b"l", usize::MAX).unwrap();
            assert_eq!(rows.len(), 20 - i);
        }
        assert!(c.resilience().scan_retries > 0, "bursts were absorbed");
        assert_eq!(c.resilience().unavailable_errors, unavailable_before);
        destroy(c);
    }

    #[test]
    fn scan_stream_is_fused_after_exhaustion() {
        // Regression for the cursor-handling rewrite: once the region
        // targets are exhausted the iterator must keep returning `None`
        // (and never panic on a missing cursor), even when polled again.
        let mut config = ClusterConfig::new(tmpdir("scanfused"), 3);
        config.storage = Options::small();
        let c = Cluster::start(config).unwrap();
        for i in 0..10 {
            c.put(format!("k{i:02}").as_bytes(), b"v").unwrap();
        }
        let mut scan = c.scan_stream(b"k", b"l");
        let mut rows = 0;
        for row in &mut scan {
            row.unwrap();
            rows += 1;
        }
        assert_eq!(rows, 10);
        assert!(scan.next().is_none(), "exhausted scan stays exhausted");
        assert!(scan.next().is_none(), "repeated polls stay None");
        drop(scan);
        destroy(c);
    }

    #[test]
    fn transient_faults_resolve_under_retry() {
        use crate::fault::FaultPlan;
        let mut config = ClusterConfig::new(tmpdir("transient"), 3);
        config.storage = Options::small();
        config.fault_plan = Some(FaultPlan::quiet(11).with_transient(0.4, 2));
        let c = Cluster::start(config).unwrap();
        let mut retries = 0u64;
        for i in 0..100 {
            let key = format!("k{i:03}");
            loop {
                match c.put(key.as_bytes(), b"v") {
                    Ok(()) => break,
                    Err(e) => {
                        assert!(e.is_transient(), "only transient errors expected: {e}");
                        retries += 1;
                    }
                }
            }
        }
        assert!(retries > 0, "a 40% plan must inject something");
        assert_eq!(c.stats().puts, 100, "every put eventually acked");
        for i in 0..100 {
            let key = format!("k{i:03}");
            loop {
                match c.get(key.as_bytes()) {
                    Ok(v) => {
                        assert_eq!(v.unwrap().as_ref(), b"v");
                        break;
                    }
                    Err(e) => assert!(e.is_transient()),
                }
            }
        }
        destroy(c);
    }

    #[test]
    fn partial_replica_failure_keeps_counters_reconciled() {
        // Regression: a put that fails on a later replica after earlier
        // replicas already wrote must still count the writes that landed,
        // so `replica_writes` reconciles with per-node `writes`.
        let c = small_cluster("partial", 3, &[]);
        c.put(b"k1", b"v").unwrap();
        // Break node 1's engine deterministically: wipe its directory,
        // then flush — the failed memtable rotation records a background
        // error that fails node 1's *next* write.
        let node1_dir = c.config().data_dir.join("node-1");
        std::fs::remove_dir_all(&node1_dir).unwrap();
        c.node(1).db.flush().unwrap();
        let err = c.put(b"k2", b"v").unwrap_err();
        assert!(matches!(err, GatewayError::Storage(_)), "got {err}");
        let stats = c.stats();
        assert_eq!(stats.puts, 1, "the failed put was not acknowledged");
        assert_eq!(stats.node_writes, vec![2, 1, 1]);
        assert_eq!(
            stats.replica_writes,
            stats.node_writes.iter().sum::<u64>(),
            "replica_writes must reconcile with per-node writes"
        );
        destroy(c);
    }

    #[test]
    fn broken_replica_fails_a_multi_region_put_batch_with_reconciled_counters() {
        // Two regions: [0, 1, 2] below "m" and [1, 2, 3] from "m" on. With
        // node 3's engine broken (see partial_replica_failure_…) the first
        // group lands on all three replicas and the second on nodes 1 and
        // 2 before node 3's submit fails.
        let c = small_cluster("batch-broken", 4, &["m"]);
        let batch = |suffix: &str| -> Vec<(Bytes, Bytes)> {
            ["alpha", "november"]
                .iter()
                .map(|k| {
                    (
                        Bytes::from(format!("{k}{suffix}")),
                        Bytes::from_static(b"v"),
                    )
                })
                .collect()
        };
        c.put_batch(&batch("1")).unwrap();
        assert_eq!(c.stats().node_writes, vec![1, 2, 2, 1]);
        std::fs::remove_dir_all(c.config().data_dir.join("node-3")).unwrap();
        c.node(3).db.flush().unwrap();
        let err = c.put_batch(&batch("2")).unwrap_err();
        assert!(matches!(err, GatewayError::Storage(_)), "got {err}");
        let stats = c.stats();
        assert_eq!(stats.puts, 2, "the failed batch was not acknowledged");
        assert_eq!(stats.put_batches, 1);
        assert_eq!(stats.node_writes, vec![2, 4, 4, 1]);
        assert_eq!(
            stats.replica_writes,
            stats.node_writes.iter().sum::<u64>(),
            "replica_writes must reconcile with per-node writes"
        );
        destroy(c);
    }

    #[test]
    fn put_batch_replicates_and_counts() {
        let c = small_cluster("batch", 3, &[]);
        let items: Vec<(Bytes, Bytes)> = (0..10)
            .map(|i| (Bytes::from(format!("k{i:03}")), Bytes::from_static(b"v")))
            .collect();
        c.put_batch(&items).unwrap();
        c.put_batch(&[]).unwrap();
        let stats = c.stats();
        assert_eq!(stats.puts, 10);
        assert_eq!(stats.batched_puts, 10);
        assert_eq!(stats.put_batches, 1, "the empty batch is a no-op");
        assert_eq!(stats.replica_writes, 30, "3 replicas per kvp");
        assert_eq!(c.get(b"k007").unwrap().unwrap().as_ref(), b"v");
        assert_eq!(c.scan(b"k", b"kzzz", 100).unwrap().len(), 10);
        destroy(c);
    }

    #[test]
    fn put_batch_spans_regions() {
        let c = small_cluster("batch-span", 4, &["m"]);
        assert_eq!(c.stats().regions, 2);
        let items: Vec<(Bytes, Bytes)> = ["alpha", "bravo", "november", "zulu"]
            .iter()
            .map(|k| {
                (
                    Bytes::copy_from_slice(k.as_bytes()),
                    Bytes::from_static(b"v"),
                )
            })
            .collect();
        c.put_batch(&items).unwrap();
        let stats = c.stats();
        assert_eq!(stats.puts, 4);
        assert_eq!(stats.batched_puts, 4);
        assert_eq!(stats.put_batches, 1);
        assert_eq!(stats.replica_writes, 12, "each region-group hits rf=3");
        let rows = c.scan(b"a", b"zz", 100).unwrap();
        assert_eq!(rows.len(), 4);
        destroy(c);
    }

    /// Walks the counter declarations: every declared cell is read by
    /// the snapshot under its own name and zeroed by `purge`.
    #[test]
    fn every_declared_counter_is_snapshotted_and_zeroed_by_purge() {
        let mut c = small_cluster("counter-walk", 2, &[]);
        for (i, (_, cell)) in c.ops.cells().chain(c.resilience.cells()).enumerate() {
            cell.store(i as u64 + 1, Ordering::Relaxed);
        }
        let stats = c.stats();
        let cells: Vec<&str> = c
            .ops
            .cells()
            .chain(c.resilience.cells())
            .map(|(name, _)| name)
            .collect();
        let seen: Vec<(&str, u64)> = stats
            .counters()
            .chain(stats.resilience.counters())
            .collect();
        assert_eq!(seen.len(), cells.len());
        for (i, (&cell, &(name, v))) in cells.iter().zip(&seen).enumerate() {
            assert_eq!(cell, name);
            assert_eq!(v, i as u64 + 1, "{name} reads its own cell");
        }
        assert_eq!(c.resilience(), stats.resilience);
        c.purge().unwrap();
        let stats = c.stats();
        for (name, v) in stats.counters().chain(stats.resilience.counters()) {
            assert_eq!(v, 0, "{name} survives purge");
        }
        destroy(c);
    }

    #[test]
    fn batch_fill_is_mean_kvps_per_batch() {
        let mut s = ClusterStats {
            batched_puts: 48,
            put_batches: 3,
            ..Default::default()
        };
        assert_eq!(s.batch_fill(), 16.0);
        s.merge(&ClusterStats {
            batched_puts: 16,
            put_batches: 1,
            ..Default::default()
        });
        assert_eq!(s.batch_fill(), 16.0);
        assert_eq!(ClusterStats::default().batch_fill(), 0.0);
    }

    #[test]
    fn merge_tracks_epoch_and_topology_health() {
        let sample = |epoch, topology_ok, splits, node_writes: &[u64]| ClusterStats {
            epoch,
            topology_ok,
            node_writes: node_writes.to_vec(),
            resilience: ResilienceStats {
                splits,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut a = sample(3, true, 1, &[5, 5]);
        a.merge(&sample(7, true, 2, &[1, 1, 4]));
        assert_eq!(a.epoch, 7, "epoch merges as max, not sum");
        assert_eq!(a.resilience.splits, 3);
        assert_eq!(a.node_writes, vec![6, 6, 4], "per-node vectors widen");
        assert!(a.topology_ok);
        a.merge(&sample(5, false, 0, &[]));
        assert_eq!(a.epoch, 7);
        assert!(!a.topology_ok, "one bad sample poisons the merge");
    }

    /// A put is a group of one: `put(k, v)` and `put_batch(&[(k, v)])`
    /// under the same seeded plan take the same verdicts, leave the same
    /// rows on every node and count the same, except for the two batch
    /// counters.
    #[test]
    fn put_and_one_item_put_batch_are_the_same_write() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::quiet(77)
            .with_crash(1, 40, Some(60))
            .with_transient(0.3, 2)
            .with_split(150, "k0120");
        let run = |name: &str, batched: bool| {
            let mut config = ClusterConfig::new(tmpdir(name), 3);
            config.storage = Options::small();
            config.fault_plan = Some(plan.clone());
            let c = Cluster::start(config).unwrap();
            let mut errors = Vec::new();
            for i in 0..200 {
                let key = format!("k{i:04}");
                loop {
                    let outcome = if batched {
                        c.put_batch(&[(Bytes::from(key.clone()), Bytes::from_static(b"v"))])
                    } else {
                        c.put(key.as_bytes(), b"v")
                    };
                    match outcome {
                        Ok(()) => break,
                        Err(e) => errors.push(format!("{key}: {e}")),
                    }
                }
            }
            let rows: Vec<_> = (0..c.node_count())
                .map(|n| c.node(n).db.scan(b"k", b"l", usize::MAX).unwrap())
                .collect();
            let mut stats = c.stats();
            stats.engine.stalls = 0; // wall-clock time, not a count
            destroy(c);
            (errors, rows, stats)
        };
        let (put_errors, put_rows, put_stats) = run("twin-put", false);
        let (batch_errors, batch_rows, mut batch_stats) = run("twin-batch", true);
        assert!(!put_errors.is_empty(), "the plan must inject something");
        assert_eq!(put_errors, batch_errors);
        assert_eq!(put_rows, batch_rows);
        assert!(put_stats.resilience.hinted_writes > 0, "crash window hit");
        assert_eq!(put_stats.resilience.splits, 1, "scheduled split fired");
        assert_eq!((put_stats.batched_puts, put_stats.put_batches), (0, 0));
        assert_eq!(
            (batch_stats.batched_puts, batch_stats.put_batches),
            (200, 200)
        );
        batch_stats.batched_puts = 0;
        batch_stats.put_batches = 0;
        assert_eq!(put_stats, batch_stats);
    }

    #[test]
    fn failed_fence_rewrite_keeps_counters_reconciled() {
        use crate::fault::FaultPlan;
        // Regression: a write whose epoch-fence rewrite failed returned
        // without counting the replica writes that had already landed.
        let mut config = ClusterConfig::new(tmpdir("fence-fail"), 4);
        config.storage = Options::small();
        config.fault_plan = Some(FaultPlan::quiet(5)); // arms the fence
        let c = Cluster::start(config).unwrap();
        c.put(b"k1", b"v").unwrap();
        // Route k2 at the current epoch, then move the region's replica
        // on node 0 to node 3 and break node 3's engine (see
        // partial_replica_failure_keeps_counters_reconciled): the fence
        // finds node 3 missing from the write and its rewrite fails.
        let items = [(b"k2".as_slice(), b"v".as_slice())];
        let now = c.fault_tick();
        let (epoch, groups) = c.plan_write(&items, now).unwrap();
        assert!(c.migrate_replica(groups[0].region_id, 0, 3));
        std::fs::remove_dir_all(c.config().data_dir.join("node-3")).unwrap();
        c.node(3).db.flush().unwrap();
        let err = c.commit_write(&items, epoch, &groups, now).unwrap_err();
        assert!(matches!(err, GatewayError::Storage(_)), "got {err}");
        let stats = c.stats();
        assert_eq!(stats.puts, 1, "the failed put was not acknowledged");
        assert_eq!(stats.resilience.stale_route_retries, 1);
        assert_eq!(stats.node_writes, vec![2, 2, 2, 0]);
        assert_eq!(
            stats.replica_writes,
            stats.node_writes.iter().sum::<u64>(),
            "replica_writes must reconcile with per-node writes"
        );
        destroy(c);
    }

    #[test]
    fn concurrent_writers_are_consistent() {
        let c = Arc::new(small_cluster("conc", 3, &["m"]));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        c.put(format!("t{t}/k{i:04}").as_bytes(), &[0u8; 64])
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.stats().puts, 800);
        let rows = c.scan(b"t0/", b"t0/z", usize::MAX).unwrap();
        assert_eq!(rows.len(), 200);
        let dir = c.config().data_dir.clone();
        drop(c);
        std::fs::remove_dir_all(dir).ok();
    }
}
