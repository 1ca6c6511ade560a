//! Online reconfiguration: the topology state machine.
//!
//! This module is the *only* place that mutates the [`RegionMap`] (the
//! analyzer lints any `regions.write()` / map-mutator call elsewhere in
//! the gateway crate). It executes three reconfigurations while ingest
//! and query traffic keeps flowing:
//!
//! * **Region split** — at a planned key ([`FaultPlan::with_split`]), an
//!   explicit [`Cluster::split_region`] call, or a seeded write-rate
//!   threshold ([`FaultPlan::with_split_threshold`]). Daughters keep the
//!   parent's replica set, HBase-style.
//! * **Replica migration** — moves one region replica to another node
//!   (the payload of `NodeAdd` and `Drain` events). The protocol is a
//!   snapshot-pinned copy plus a catch-up delta:
//!
//!   1. a [`MigrationCtx`] is *registered* in `Cluster::migrations`;
//!      from here on every fenced write covering the range appends to
//!      the context's delta,
//!   2. the source replica's rows are copied to the destination from a
//!      pinned engine snapshot (`scan_iter`), chunked, re-checking
//!      liveness between chunks: a dead destination aborts the
//!      migration, a dead source resumes the copy on another live
//!      replica from the successor of the last copied key (the PR-4
//!      resume machinery applied to migration). The copy is *paced*:
//!      after [`ClusterConfig::migration_copy_budget`] back-to-back
//!      chunks it pauses for [`ClusterConfig::migration_pacing`]
//!      (counted in `migration_throttled`), so a drain cannot starve
//!      foreground ingest of storage bandwidth,
//!   3. *finalize*: under the region-map write lock the delta is
//!      drained into the destination, the context deactivated, and the
//!      replica set swapped ([`RegionMap::swap_replica`]) — bumping the
//!      map epoch.
//!
//!   A writer that misses the delta (registry read before registration)
//!   has its rows in the snapshot by the registry lock's release/acquire
//!   edge; a writer that misses the drain (context already inactive)
//!   necessarily observes the bumped epoch at its fence re-check and
//!   re-writes against the new replica set. Either way no acknowledged
//!   write is lost across the handover.
//! * **Node add / drain** — `NodeAdd` grows the node vector with a fresh
//!   engine and migrates the first region's primary replica onto it;
//!   `Drain` migrates every replica off the node (shrinking the replica
//!   set when no destination candidate exists) and removes it from
//!   routing. The drained engine keeps its data so in-flight scans
//!   finish exactly-once.
//!
//! Events fire against the same global op tick-clock as the crash
//! schedule: the operation whose tick reaches `at_op` claims the event
//! (an atomic swap, exactly once) and executes it inline, so a seeded
//! plan replays the same reconfigurations at the same logical instants.

use crate::cluster::Cluster;
use crate::fault::{FaultPlan, TopologyAction};
use crate::{GatewayError, Result};
use bytes::Bytes;
use iotkv::Db;
use simkit::sync::{AtomicBool, Mutex, Ordering};
use std::collections::HashMap;
use std::sync::Arc;

/// Rows copied between liveness re-checks of the migration copy loop.
const COPY_CHUNK_ROWS: u64 = 128;

/// Upper-bound sentinel for copying a region with an unbounded end: the
/// storage engine scans half-open bounded ranges only. Keys at or above
/// 64 bytes of `0xff` are unrepresentable in this workload's keyspace.
static KEY_SPACE_END: [u8; 64] = [0xff; 64];

/// One scheduled reconfiguration, claimed exactly once.
struct PlannedEvent {
    at_op: u64,
    action: TopologyAction,
    fired: AtomicBool,
}

/// Runtime state of the topology manager: the event schedule, the
/// write-rate split trackers, and the set of drained nodes.
pub(crate) struct TopologyState {
    events: Vec<PlannedEvent>,
    /// `region id → (writes since creation/last split, last written key)`
    /// — only maintained when the plan arms a split threshold.
    split_tracker: Mutex<HashMap<u64, (u64, Vec<u8>)>>,
    split_threshold: Option<u64>,
    /// Nodes drained out of the routing table this iteration.
    drained: Mutex<Vec<usize>>,
}

impl TopologyState {
    /// Builds the manager from a plan; `None` when the plan schedules no
    /// reconfiguration at all (the fenced write path then skips it).
    pub(crate) fn new(plan: &FaultPlan) -> Option<TopologyState> {
        if plan.topology.is_empty() && plan.split_threshold.is_none() {
            return None;
        }
        Some(TopologyState {
            events: plan
                .topology
                .iter()
                .map(|e| PlannedEvent {
                    at_op: e.at_op,
                    action: e.action.clone(),
                    fired: AtomicBool::new(false),
                })
                .collect(),
            split_tracker: Mutex::new(HashMap::new()),
            split_threshold: plan.split_threshold,
            drained: Mutex::new(Vec::new()),
        })
    }

    /// Nodes drained so far (snapshot).
    pub(crate) fn drained_nodes(&self) -> Vec<usize> {
        self.drained.lock().clone()
    }
}

/// One in-flight replica migration, registered in `Cluster::migrations`
/// while the snapshot copy runs. Fenced writes covering `[start, end)`
/// append to the delta; finalize drains it into the destination.
pub(crate) struct MigrationCtx {
    region_id: u64,
    start: Bytes,
    /// Exclusive; empty = +infinity.
    end: Bytes,
    dest: usize,
    delta: Mutex<MigrationDelta>,
}

struct MigrationDelta {
    /// Cleared (under the delta lock) by finalize/abort; writers that
    /// observe `false` rely on the epoch fence instead.
    active: bool,
    rows: Vec<(Vec<u8>, Vec<u8>)>,
}

impl MigrationCtx {
    fn new(region_id: u64, start: Bytes, end: Bytes, dest: usize) -> MigrationCtx {
        MigrationCtx {
            region_id,
            start,
            end,
            dest,
            delta: Mutex::new(MigrationDelta {
                active: true,
                rows: Vec::new(),
            }),
        }
    }

    /// Whether `key` falls in the migrating range.
    pub(crate) fn covers(&self, key: &[u8]) -> bool {
        key >= self.start.as_ref() && (self.end.is_empty() || key < self.end.as_ref())
    }

    /// Appends a write to the catch-up delta if the migration is still
    /// collecting; a deactivated context ignores it (the writer's epoch
    /// fence takes over).
    pub(crate) fn push_delta(&self, key: &[u8], value: &[u8]) {
        let mut delta = self.delta.lock();
        if delta.active {
            delta.rows.push((key.to_vec(), value.to_vec()));
        }
    }
}

/// The smallest key strictly greater than `key`.
fn successor(key: &[u8]) -> Bytes {
    let mut succ = Vec::with_capacity(key.len() + 1);
    succ.extend_from_slice(key);
    succ.push(0);
    Bytes::from(succ)
}

impl Cluster {
    /// Fires every scheduled topology event whose `at_op` has been
    /// reached. Called from the op path right after the fault-clock
    /// tick; each event is claimed by exactly one operation and executed
    /// inline on that operation's thread, while concurrent traffic keeps
    /// flowing.
    pub(crate) fn run_due_topology(&self, now: u64) {
        let Some(topo) = &self.topology else {
            return;
        };
        for event in &topo.events {
            // ordering: AcqRel — the swap lets exactly one op claim the
            // event; the Acquire half orders the claim before the
            // reconfiguration it guards.
            if now >= event.at_op && !event.fired.swap(true, Ordering::AcqRel) {
                if let Some(fault) = &self.fault {
                    fault.note_topology_event();
                }
                match &event.action {
                    TopologyAction::Split(key) => {
                        self.do_split(key);
                    }
                    TopologyAction::NodeAdd => self.grow_and_migrate(),
                    TopologyAction::Drain(node) => {
                        let _ = self.drain_node(*node);
                    }
                }
            }
        }
    }

    /// Splits the region containing `split_key`. Returns the new region
    /// id (or `None` if the key is already a boundary).
    pub fn split_region(&self, split_key: &[u8]) -> Option<u64> {
        self.do_split(split_key)
    }

    fn do_split(&self, split_key: &[u8]) -> Option<u64> {
        let id = self.regions.write().split_at(split_key);
        if id.is_some() {
            // ordering: Relaxed — statistics counter.
            self.resilience.splits.fetch_add(1, Ordering::Relaxed);
            if let Some(topo) = &self.topology {
                // Region bounds changed; restart rate tracking from a
                // clean slate rather than splitting on stale counts.
                topo.split_tracker.lock().clear();
            }
        }
        id
    }

    /// Round-robin rebalance of region primaries across nodes.
    pub fn rebalance(&self) -> usize {
        let replication = self.effective_replication();
        let node_count = self.nodes.read().len();
        self.regions.write().rebalance(node_count, replication)
    }

    /// Write-rate split trigger: bumps the per-region write counter and
    /// splits at the last written key once the threshold is crossed.
    /// No-op unless the plan armed [`FaultPlan::with_split_threshold`].
    pub(crate) fn note_region_writes(&self, region_id: u64, count: u64, last_key: &[u8]) {
        let Some(topo) = &self.topology else {
            return;
        };
        let Some(threshold) = topo.split_threshold else {
            return;
        };
        let due = {
            let mut tracker = topo.split_tracker.lock();
            let entry = tracker.entry(region_id).or_insert_with(|| (0, Vec::new()));
            entry.0 += count;
            entry.1 = last_key.to_vec();
            if entry.0 >= threshold {
                let key = entry.1.clone();
                tracker.remove(&region_id);
                Some(key)
            } else {
                None
            }
        };
        if let Some(split_key) = due {
            self.do_split(&split_key);
        }
    }

    /// Adds a fresh, empty node to the cluster and returns its index.
    /// The node serves nothing until a migration or rebalance routes a
    /// region to it.
    pub fn add_node(&self) -> Result<usize> {
        let mut nodes = self.nodes.write();
        let idx = nodes.len();
        let dir = self.config.data_dir.join(format!("node-{idx}"));
        // lint:allow(blocking-under-lock) control-plane op: the open must
        // happen under the write guard so the index/dir claimed above
        // cannot race a concurrent add, and readers see either the old
        // list or a fully-opened node — never a placeholder. NodeAdd
        // events are rare; data-plane readers block for one empty-DB
        // open (no WAL to replay), not a storage stall.
        nodes.push(Arc::new(crate::cluster::Node::new(Db::open(
            &dir,
            self.config.storage.clone(),
        )?)));
        Ok(idx)
    }

    /// The `NodeAdd` event payload: grow the cluster, then shift load by
    /// migrating the first region's primary replica onto the new node.
    fn grow_and_migrate(&self) {
        let Ok(dest) = self.add_node() else {
            return;
        };
        let (region_id, victim) = {
            let map = self.regions.read();
            let region = &map.regions()[0];
            (region.id, region.primary)
        };
        self.migrate_replica(region_id, victim, dest);
    }

    /// Gracefully removes `node` from the routing table: every region
    /// replica it holds migrates to a candidate node (live, not already
    /// a replica, not drained), falling back to shrinking the replica
    /// set when no candidate exists. The drained engine keeps its data,
    /// so scans opened before the drain finish exactly-once.
    pub fn drain_node(&self, node: usize) -> Result<()> {
        // ordering: Relaxed — statistics counter.
        self.resilience.drains.fetch_add(1, Ordering::Relaxed);
        let now = self.fault.as_ref().map_or(0, |f| f.now());
        let region_ids = self.regions.read().regions_on(node);
        for region_id in region_ids {
            let replicas = {
                let map = self.regions.read();
                match map.region_by_id(region_id) {
                    Some(r) if r.replicas.contains(&node) => r.replicas.clone(),
                    _ => continue,
                }
            };
            let node_count = self.nodes.read().len();
            let drained = self
                .topology
                .as_ref()
                .map(|t| t.drained_nodes())
                .unwrap_or_default();
            let dest = (0..node_count).find(|d| {
                *d != node
                    && !replicas.contains(d)
                    && !drained.contains(d)
                    && !self.node_down(*d, now)
            });
            let migrated = match dest {
                Some(dest) => self.migrate_replica(region_id, node, dest),
                None => false,
            };
            if !migrated {
                // No destination (or the migration aborted): shrink the
                // set — every acked row already lives on the surviving
                // replicas.
                self.regions.write().shed_replica(region_id, node);
            }
        }
        if self.regions.read().regions_on(node).is_empty() {
            if let Some(topo) = &self.topology {
                topo.drained.lock().push(node);
            }
            Ok(())
        } else {
            Err(GatewayError::Unavailable(format!(
                "drain left node {node} still routed"
            )))
        }
    }

    /// Migrates region `region_id`'s replica on `victim` to `dest`:
    /// registers the catch-up delta, copies a pinned snapshot from a
    /// live replica, then finalizes by draining the delta and swapping
    /// the replica set under the map write lock. Returns whether the
    /// swap was published.
    pub(crate) fn migrate_replica(&self, region_id: u64, victim: usize, dest: usize) -> bool {
        // ordering: Relaxed — statistics counters here and below.
        self.resilience
            .migrations_started
            .fetch_add(1, Ordering::Relaxed);
        let now = self.fault.as_ref().map_or(0, |f| f.now());
        let bounds = {
            let map = self.regions.read();
            match map.region_by_id(region_id) {
                Some(r) if r.replicas.contains(&victim) && !r.replicas.contains(&dest) => {
                    (r.start.clone(), r.end.clone(), r.replicas.clone())
                }
                _ => {
                    self.resilience
                        .migrations_aborted
                        .fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        };
        let (start, end, replicas) = bounds;
        if self.node_down(dest, now) {
            self.resilience
                .migrations_aborted
                .fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // Register the delta *before* pinning the snapshot: a fenced
        // writer that misses this context has, by the registry lock's
        // release/acquire edge, already committed its replica writes —
        // so the snapshot sees them.
        let ctx = Arc::new(MigrationCtx::new(
            region_id,
            start.clone(),
            end.clone(),
            dest,
        ));
        self.migrations.write().push(Arc::clone(&ctx));
        let copied = self.copy_region_rows(&start, &end, &replicas, dest);
        let finalized = copied && self.finalize_migration(&ctx, victim);
        if finalized {
            self.resilience
                .migrations_completed
                .fetch_add(1, Ordering::Relaxed);
        } else {
            let mut delta = ctx.delta.lock();
            delta.active = false;
            delta.rows.clear();
            drop(delta);
            self.resilience
                .migrations_aborted
                .fetch_add(1, Ordering::Relaxed);
        }
        self.migrations.write().retain(|c| !Arc::ptr_eq(c, &ctx));
        finalized
    }

    /// The snapshot-copy phase: streams `[start, end)` from a live
    /// replica into `dest`, re-checking liveness every
    /// [`COPY_CHUNK_ROWS`] rows. A dead destination aborts; a dead
    /// source resumes on another live replica from the successor of the
    /// last copied key. Every `migration_copy_budget` chunks the copy
    /// pauses for `migration_pacing` (tallied in `migration_throttled`)
    /// so foreground ingest keeps its share of the storage engines.
    /// Returns whether the copy completed.
    fn copy_region_rows(
        &self,
        start: &Bytes,
        end: &Bytes,
        replicas: &[usize],
        dest: usize,
    ) -> bool {
        let hi = if end.is_empty() {
            Bytes::from_static(&KEY_SPACE_END)
        } else {
            end.clone()
        };
        let pick_source = |now: u64| {
            replicas
                .iter()
                .copied()
                .find(|&n| n != dest && !self.node_down(n, now))
        };
        let now = self.fault.as_ref().map_or(0, |f| f.now());
        let Some(mut source) = pick_source(now) else {
            return false;
        };
        // Fold any hinted writes the source missed while down into its
        // engine before pinning, so the snapshot is complete.
        self.maybe_replay_hints(source, now);
        let dest_node = self.node(dest);
        let mut iter = self.node(source).db.scan_iter(start, &hi);
        let mut last_copied: Option<Bytes> = None;
        let mut rows_since_check = 0u64;
        let mut chunks_since_pause = 0u64;
        let budget = self.config.migration_copy_budget as u64;
        loop {
            if rows_since_check >= COPY_CHUNK_ROWS {
                rows_since_check = 0;
                chunks_since_pause += 1;
                if budget > 0 && chunks_since_pause >= budget {
                    chunks_since_pause = 0;
                    // ordering: Relaxed — statistics counter.
                    self.resilience
                        .migration_throttled
                        .fetch_add(1, Ordering::Relaxed);
                    if !self.config.migration_pacing.is_zero() {
                        std::thread::sleep(self.config.migration_pacing);
                    }
                }
                // `now()` reads the clock without ticking it: the copy
                // must not perturb the deterministic event schedule.
                let now = self.fault.as_ref().map_or(0, |f| f.now());
                if self.node_down(dest, now) {
                    return false;
                }
                if self.node_down(source, now) {
                    // Resume from the successor on another live replica —
                    // the same machinery mid-stream scans use.
                    let Some(next) = pick_source(now) else {
                        return false;
                    };
                    source = next;
                    self.maybe_replay_hints(source, now);
                    let from = match &last_copied {
                        Some(key) => successor(key),
                        None => start.clone(),
                    };
                    iter = self.node(source).db.scan_iter(&from, &hi);
                    continue;
                }
            }
            match iter.next() {
                Some(Ok((key, value))) => {
                    if dest_node.db.put(&key, &value).is_err() {
                        return false;
                    }
                    last_copied = Some(key);
                    rows_since_check += 1;
                }
                // A storage error on the source mid-copy: abort rather
                // than risk a hole; the planner may retry the event.
                Some(Err(_)) => return false,
                None => return true,
            }
        }
    }

    /// The finalize phase, all under the region-map write lock: drain
    /// the catch-up delta into the destination, deactivate the context,
    /// swap the replica set (bumping the epoch). A writer that found the
    /// context inactive is guaranteed to observe the bumped epoch at its
    /// fence re-check, because routing reads block on this lock.
    fn finalize_migration(&self, ctx: &MigrationCtx, victim: usize) -> bool {
        let dest_node = self.node(ctx.dest);
        let mut map = self.regions.write();
        let mut delta = ctx.delta.lock();
        delta.active = false;
        let rows = std::mem::take(&mut delta.rows);
        drop(delta);
        for (key, value) in rows {
            // lint:allow(blocking-under-lock) the protocol requires it:
            // the delta drain and the replica swap must be atomic under
            // the map write lock, or a writer could miss both the
            // (deactivated) delta and the (not yet bumped) epoch and
            // lose its write. The delta is bounded by the catch-up
            // window, so this holds the map for a short, final burst.
            if dest_node.db.put(&key, &value).is_err() {
                // Partial delta rows on an unrouted node are harmless;
                // the abort path keeps the old replica set.
                return false;
            }
        }
        map.swap_replica(ctx.region_id, victim, ctx.dest)
    }

    /// Rebuilds the routing table, event schedule, and migration
    /// registry from the static configuration — the topology half of
    /// [`Cluster::purge`]. The next iteration replays the same planned
    /// events against the same initial map at epoch 0.
    pub(crate) fn reset_topology(&mut self) {
        *self.regions.write() = Cluster::initial_regions(&self.config);
        self.migrations.write().clear();
        self.topology = self.config.fault_plan.as_ref().and_then(TopologyState::new);
    }

    /// Whether the routing table is internally consistent *and*
    /// references only nodes that exist and are not drained. Folded into
    /// [`crate::ClusterStats::topology_ok`] and, from there, the run
    /// verdict: a reconfiguration that corrupted routing invalidates the
    /// run even if every individual operation succeeded.
    pub(crate) fn topology_consistent(&self) -> bool {
        let node_count = self.nodes.read().len();
        let drained = self
            .topology
            .as_ref()
            .map(|t| t.drained_nodes())
            .unwrap_or_default();
        let map = self.regions.read();
        map.check_invariants().is_ok()
            && map.regions().iter().all(|r| {
                r.replicas
                    .iter()
                    .all(|n| *n < node_count && !drained.contains(n))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::fault::FaultPlan;
    use iotkv::Options;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "topology-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn destroy(c: Cluster) {
        let dir = c.config().data_dir.clone();
        drop(c);
        std::fs::remove_dir_all(dir).ok();
    }

    fn cluster_with_plan(name: &str, nodes: usize, plan: FaultPlan) -> Cluster {
        let mut config = ClusterConfig::new(tmpdir(name), nodes);
        config.storage = Options::small();
        config.fault_plan = Some(plan);
        Cluster::start(config).unwrap()
    }

    #[test]
    fn successor_is_strictly_greater() {
        assert_eq!(successor(b"abc").as_ref(), b"abc\0");
        assert!(successor(b"").as_ref() > b"".as_slice());
    }

    #[test]
    fn planned_split_fires_at_its_op() {
        let plan = FaultPlan::quiet(3).with_split(10, b"k05");
        let c = cluster_with_plan("planned-split", 3, plan);
        // tick() returns the pre-increment count: the op observing
        // now == at_op is the (at_op + 1)-th, matching crash semantics.
        for i in 0..10 {
            c.put(format!("k{i:02}").as_bytes(), b"v").unwrap();
        }
        assert_eq!(c.stats().regions, 1, "event not due yet");
        c.put(b"k10", b"v").unwrap(); // 11th op observes now == 10
        let stats = c.stats();
        assert_eq!(stats.regions, 2);
        assert_eq!(stats.resilience.splits, 1);
        assert_eq!(stats.faults.unwrap().topology_events, 1);
        assert!(stats.epoch > 0, "split bumped the epoch");
        // All rows remain readable across the split.
        for i in 0..10 {
            assert!(c.get(format!("k{i:02}").as_bytes()).unwrap().is_some());
        }
        destroy(c);
    }

    #[test]
    fn threshold_split_triggers_on_write_rate() {
        let plan = FaultPlan::quiet(4).with_split_threshold(50);
        let c = cluster_with_plan("threshold-split", 3, plan);
        for i in 0..120 {
            c.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        let stats = c.stats();
        assert!(
            stats.resilience.splits >= 2,
            "120 writes over a 50-write threshold must split twice: {stats:?}"
        );
        assert_eq!(stats.regions as u64, stats.resilience.splits + 1);
        let rows = c.scan(b"k", b"l", usize::MAX).unwrap();
        assert_eq!(rows.len(), 120, "splits lose nothing");
        destroy(c);
    }

    #[test]
    fn node_add_migrates_first_region_replica() {
        // 3 nodes, rf=3, single region on {0,1,2}. The NodeAdd at op 200
        // creates node 3 and migrates the primary (node 0) onto it.
        let plan = FaultPlan::quiet(5).with_node_add(200);
        let c = cluster_with_plan("node-add", 3, plan);
        for i in 0..250 {
            c.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        assert_eq!(c.node_count(), 4);
        let stats = c.stats();
        assert_eq!(stats.resilience.migrations_started, 1);
        assert_eq!(stats.resilience.migrations_completed, 1);
        assert_eq!(stats.resilience.migrations_aborted, 0);
        assert!(stats.topology_ok);
        {
            let map = c.regions.read();
            let region = &map.regions()[0];
            assert_eq!(region.primary, 3, "primary followed the migration");
            assert!(!region.replicas.contains(&0), "victim replaced");
            assert!(region.replicas.contains(&3));
        }
        // Every pre-migration row is served by the new replica set, and
        // post-migration writes land on the new node.
        let rows = c.scan(b"k", b"l", usize::MAX).unwrap();
        assert_eq!(rows.len(), 250);
        c.put(b"k9999", b"late").unwrap();
        assert_eq!(c.get(b"k9999").unwrap().unwrap().as_ref(), b"late");
        assert!(c.stats().node_writes[3] > 0);
        destroy(c);
    }

    #[test]
    fn migration_copy_budget_throttles_and_counts() {
        // Budget of 1 chunk: every COPY_CHUNK_ROWS (128) rows copied the
        // migration must pause once. 250 rows present at the NodeAdd
        // event → one full chunk boundary → exactly one throttle pause.
        let plan = FaultPlan::quiet(10).with_node_add(250);
        let mut config = ClusterConfig::new(tmpdir("throttle"), 3);
        config.storage = iotkv::Options::small();
        config.fault_plan = Some(plan);
        config.migration_copy_budget = 1;
        config.migration_pacing = std::time::Duration::from_micros(1);
        let c = Cluster::start(config).unwrap();
        for i in 0..300 {
            c.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.resilience.migrations_completed, 1);
        assert!(
            stats.resilience.migration_throttled >= 1,
            "budget 1 over >128 rows must pause at least once: {stats:?}"
        );
        assert!(stats.topology_ok);
        assert_eq!(
            c.scan(b"k", b"l", usize::MAX).unwrap().len(),
            300,
            "pacing loses nothing"
        );
        destroy(c);
    }

    #[test]
    fn zero_copy_budget_disables_throttling() {
        let plan = FaultPlan::quiet(11).with_node_add(250);
        let mut config = ClusterConfig::new(tmpdir("no-throttle"), 3);
        config.storage = iotkv::Options::small();
        config.fault_plan = Some(plan);
        config.migration_copy_budget = 0;
        let c = Cluster::start(config).unwrap();
        for i in 0..300 {
            c.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.resilience.migrations_completed, 1);
        assert_eq!(
            stats.resilience.migration_throttled, 0,
            "budget 0 = unthrottled"
        );
        destroy(c);
    }

    #[test]
    fn drain_removes_node_from_routing() {
        // 4 nodes, rf=3, single region on {0,1,2}; draining node 1
        // migrates its replica to the spare node 3.
        let plan = FaultPlan::quiet(6).with_drain(1, 100);
        let c = cluster_with_plan("drain", 4, plan);
        for i in 0..150 {
            c.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.resilience.drains, 1);
        assert_eq!(stats.resilience.migrations_completed, 1);
        assert!(stats.topology_ok);
        {
            let map = c.regions.read();
            assert!(map.regions_on(1).is_empty(), "node 1 fully drained");
            assert!(map.regions()[0].replicas.contains(&3));
        }
        let rows = c.scan(b"k", b"l", usize::MAX).unwrap();
        assert_eq!(rows.len(), 150, "drain lost nothing");
        destroy(c);
    }

    #[test]
    fn drain_without_candidate_sheds_replica() {
        // 3 nodes, rf=3: no spare node exists, so draining node 2 can
        // only shrink the replica set to {0,1}.
        let plan = FaultPlan::quiet(7).with_drain(2, 50);
        let c = cluster_with_plan("drain-shed", 3, plan);
        for i in 0..80 {
            c.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.resilience.drains, 1);
        assert!(stats.topology_ok);
        {
            let map = c.regions.read();
            assert!(map.regions_on(2).is_empty());
            assert_eq!(map.regions()[0].replicas, vec![0, 1]);
        }
        assert_eq!(c.scan(b"k", b"l", usize::MAX).unwrap().len(), 80);
        destroy(c);
    }

    #[test]
    fn migration_to_down_dest_aborts_cleanly() {
        // Node 3 is added at op 100 but the crash schedule takes it down
        // permanently from op 90 — the migration must abort and leave
        // the original replica set serving.
        let plan = FaultPlan::quiet(8)
            .with_node_add(100)
            .with_crash(3, 90, None);
        let c = cluster_with_plan("abort-dest", 3, plan);
        for i in 0..150 {
            c.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.resilience.migrations_started, 1);
        assert_eq!(stats.resilience.migrations_aborted, 1);
        assert_eq!(stats.resilience.migrations_completed, 0);
        assert!(stats.topology_ok);
        {
            let map = c.regions.read();
            assert_eq!(map.regions()[0].replicas, vec![0, 1, 2], "set unchanged");
        }
        assert_eq!(c.scan(b"k", b"l", usize::MAX).unwrap().len(), 150);
        destroy(c);
    }

    #[test]
    fn purge_resets_topology_for_the_next_iteration() {
        let plan = FaultPlan::quiet(9).with_split(10, b"k05").with_node_add(30);
        let mut config = ClusterConfig::new(tmpdir("purge-topology"), 3);
        config.storage = Options::small();
        config.fault_plan = Some(plan);
        let mut c = Cluster::start(config).unwrap();
        let run = |c: &Cluster| {
            for i in 0..60 {
                c.put(format!("k{i:02}").as_bytes(), b"v").unwrap();
            }
            let s = c.stats();
            (
                s.regions,
                s.epoch,
                c.node_count(),
                s.resilience.splits,
                s.resilience.migrations_completed,
            )
        };
        let first = run(&c);
        assert_eq!(first.0, 2, "split happened");
        assert_eq!(first.2, 4, "node added");
        c.purge().unwrap();
        assert_eq!(c.node_count(), 3, "added node dropped by purge");
        assert_eq!(c.stats().epoch, 0, "routing table rebuilt at epoch 0");
        let second = run(&c);
        assert_eq!(first, second, "both iterations replay the same events");
        destroy(c);
    }
}
