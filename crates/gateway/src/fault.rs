//! Deterministic fault injection for the gateway cluster.
//!
//! A [`FaultPlan`] is a *seeded description* of everything that goes
//! wrong during a run: node crashes (with optional restart), per-node
//! added latency, and transient `Unavailable` errors on a configurable
//! fraction of operations. [`FaultState`] interprets the plan at
//! runtime; [`Cluster`](crate::Cluster) consults it on every
//! `put`/`get`/`scan`.
//!
//! Determinism is the design constraint — the same plan must produce the
//! same faults so degraded runs are debuggable and comparable:
//!
//! * **Transient errors** are keyed on `(seed, node, hash(key))`, not on
//!   a shared RNG: the first `burst_len(seed, node, key)` operations
//!   touching a key on a node fail with `Unavailable`, later attempts
//!   succeed. Because the burst length is a pure function of the key,
//!   the total number of injected errors (and therefore the driver's
//!   retry counters) is byte-identical across runs regardless of thread
//!   interleaving.
//! * **Crashes** are scheduled against the cluster's global operation
//!   counter (`at_op`), which makes them exactly reproducible for
//!   single-threaded drivers and reproducible up to interleaving for
//!   concurrent ones. Node availability is a pure function of
//!   `(plan, current op)` — no hidden state.
//!
//! A crash here models a region server dropping out of the cluster: the
//! node refuses all operations while down. Writes it misses are queued
//! as *hints* by the cluster and replayed when the node restarts, so an
//! acknowledged write (one that reached at least one live replica) is
//! never lost. Storage-level crash *durability* is exercised separately
//! by `iotkv`'s own recovery tests.

use bytes::Bytes;
use simkit::rng::{derive_seed, Stream};
use simkit::sync::{AtomicBool, AtomicU64, Ordering};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// One scheduled node crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// Node that goes down.
    pub node: usize,
    /// Global cluster operation count at which the node goes down.
    pub at_op: u64,
    /// Operations after `at_op` until the node restarts; `None` means it
    /// stays down for the rest of the run.
    pub down_for_ops: Option<u64>,
}

/// What a scheduled topology event does when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyAction {
    /// Split the region containing the key at that key.
    Split(Bytes),
    /// Add a fresh empty node and migrate one region replica onto it.
    NodeAdd,
    /// Drain the node: migrate its replicas away, then drop it from
    /// routing.
    Drain(usize),
}

/// One scheduled topology reconfiguration, fired against the same global
/// op tick-clock the crash schedule uses — reconfigurations are replayable
/// events, exactly like faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyEvent {
    /// Global cluster operation count at which the event fires.
    pub at_op: u64,
    pub action: TopologyAction,
}

/// A seeded, declarative description of the faults injected into a run.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Root seed; transient-error bursts derive from it.
    pub seed: u64,
    /// Probability that a `(node, key)` pair starts with a burst of
    /// transient `Unavailable` errors.
    pub transient_fraction: f64,
    /// Maximum consecutive transient errors per `(node, key)`.
    pub max_transient_burst: u32,
    /// Extra latency added to every operation served by a slow node.
    pub added_latency: Duration,
    /// Nodes the latency applies to (empty: no latency injection).
    pub slow_nodes: Vec<usize>,
    /// Scheduled crashes.
    pub crashes: Vec<CrashEvent>,
    /// Scheduled topology reconfigurations (splits, node adds, drains).
    pub topology: Vec<TopologyEvent>,
    /// When set, a region auto-splits at its last-written key once it has
    /// absorbed this many writes since its creation (or last split).
    pub split_threshold: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base to build on).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            transient_fraction: 0.0,
            max_transient_burst: 3,
            added_latency: Duration::ZERO,
            slow_nodes: Vec::new(),
            crashes: Vec::new(),
            topology: Vec::new(),
            split_threshold: None,
        }
    }

    /// Adds a crash of `node` at global op `at_op`, restarting after
    /// `down_for_ops` further operations (`None`: never).
    pub fn with_crash(mut self, node: usize, at_op: u64, down_for_ops: Option<u64>) -> FaultPlan {
        self.crashes.push(CrashEvent {
            node,
            at_op,
            down_for_ops,
        });
        self
    }

    /// Sets the transient-error intensity.
    pub fn with_transient(mut self, fraction: f64, max_burst: u32) -> FaultPlan {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        self.transient_fraction = fraction;
        self.max_transient_burst = max_burst.max(1);
        self
    }

    /// Adds `latency` to every operation on the listed nodes.
    pub fn with_latency(mut self, latency: Duration, slow_nodes: Vec<usize>) -> FaultPlan {
        self.added_latency = latency;
        self.slow_nodes = slow_nodes;
        self
    }

    /// Schedules a region split at `key` when the global op counter
    /// reaches `at_op`.
    pub fn with_split(mut self, at_op: u64, key: impl AsRef<[u8]>) -> FaultPlan {
        self.topology.push(TopologyEvent {
            at_op,
            action: TopologyAction::Split(Bytes::copy_from_slice(key.as_ref())),
        });
        self
    }

    /// Schedules a fresh node to join the cluster at global op `at_op`;
    /// the topology manager migrates one region replica onto it.
    pub fn with_node_add(mut self, at_op: u64) -> FaultPlan {
        self.topology.push(TopologyEvent {
            at_op,
            action: TopologyAction::NodeAdd,
        });
        self
    }

    /// Schedules a graceful drain of `node` at global op `at_op`: its
    /// replicas migrate away and the node leaves the routing table.
    pub fn with_drain(mut self, node: usize, at_op: u64) -> FaultPlan {
        self.topology.push(TopologyEvent {
            at_op,
            action: TopologyAction::Drain(node),
        });
        self
    }

    /// Arms rate-triggered splitting: any region that absorbs `writes`
    /// puts splits at its last-written key.
    pub fn with_split_threshold(mut self, writes: u64) -> FaultPlan {
        assert!(writes > 0, "split threshold must be positive");
        self.split_threshold = Some(writes);
        self
    }

    /// How many nodes the scheduled `NodeAdd` events will create beyond
    /// the configured cluster size.
    pub fn node_adds(&self) -> usize {
        self.topology
            .iter()
            .filter(|e| e.action == TopologyAction::NodeAdd)
            .count()
    }
}

simkit::counters! {
    /// Counters describing the faults actually injected.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FaultCounters, cells FaultCells {
        /// Transient `Unavailable` errors injected.
        transient_errors,
        /// Operations rejected because the addressed node was down.
        down_rejections,
        /// Operations delayed by latency injection.
        delayed_ops,
        /// Planned topology events (splits, node adds, drains) that fired.
        topology_events,
    }
}

/// What the fault layer decides about one operation on one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Proceed normally.
    Ok,
    /// The node is down; the caller should fail over or queue a hint.
    NodeDown,
    /// Fail this attempt with a transient `Unavailable` error.
    Transient,
}

struct NodeFaults {
    /// `hash(key) → transient attempts already failed` for keys whose
    /// burst has not yet been exhausted.
    bursts: Mutex<HashMap<u64, u32>>,
    /// Whether the node was observed down on its last operation — set so
    /// the cluster can replay hints exactly once per restart.
    was_down: AtomicBool,
}

/// Runtime interpreter of a [`FaultPlan`].
pub struct FaultState {
    plan: FaultPlan,
    ops: AtomicU64,
    nodes: Vec<NodeFaults>,
    injected: FaultCells,
}

impl FaultState {
    pub fn new(plan: FaultPlan, node_count: usize) -> FaultState {
        // Nodes created by scheduled NodeAdd events are addressable by the
        // crash/drain schedule too, so validate and size against the
        // eventual cluster width.
        let eventual = node_count + plan.node_adds();
        assert!(
            plan.crashes.iter().all(|c| c.node < eventual),
            "crash plan references a node outside the cluster"
        );
        assert!(
            plan.topology.iter().all(|e| match e.action {
                TopologyAction::Drain(node) => node < eventual,
                _ => true,
            }),
            "drain plan references a node outside the cluster"
        );
        let nodes = (0..eventual)
            .map(|_| NodeFaults {
                bursts: Mutex::new(HashMap::new()),
                was_down: AtomicBool::new(false),
            })
            .collect();
        FaultState {
            plan,
            ops: AtomicU64::new(0),
            nodes,
            injected: FaultCells::default(),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Advances the global operation counter; call once per cluster-level
    /// operation. Returns the operation's sequence number.
    pub fn tick(&self) -> u64 {
        // ordering: Relaxed — a monotone logical clock; uniqueness comes from
        // the RMW and verdicts are pure functions of the returned value.
        self.ops.fetch_add(1, Ordering::Relaxed)
    }

    /// Reads the current op count without advancing it — used by the
    /// migration copy loop for liveness checks that must not perturb the
    /// deterministic event clock.
    pub fn now(&self) -> u64 {
        // ordering: Relaxed — monotone clock read, no payload published.
        self.ops.load(Ordering::Relaxed)
    }

    /// Records one fired topology event.
    pub fn note_topology_event(&self) {
        // ordering: Relaxed — statistics counter.
        self.injected
            .topology_events
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Whether `node` is down at global operation `now` — a pure function
    /// of the plan, so two runs agree given the same op numbering.
    pub fn node_down(&self, node: usize, now: u64) -> bool {
        self.plan.crashes.iter().any(|c| {
            c.node == node
                && now >= c.at_op
                && match c.down_for_ops {
                    Some(d) => now < c.at_op + d,
                    None => true,
                }
        })
    }

    /// The deterministic transient-burst length for `(node, key)`.
    fn burst_len(&self, node: usize, key_hash: u64) -> u32 {
        if self.plan.transient_fraction <= 0.0 {
            return 0;
        }
        let seed = derive_seed(derive_seed(self.plan.seed, node as u64), key_hash);
        let mut s = Stream::new(seed);
        if s.chance(self.plan.transient_fraction) {
            1 + s.next_below(self.plan.max_transient_burst as u64) as u32
        } else {
            0
        }
    }

    /// Judges one operation on `node` at global op `now`, applying
    /// latency injection as a side effect: a group of one.
    pub fn judge(&self, node: usize, key: &[u8], now: u64) -> FaultVerdict {
        self.judge_batch(node, &[key], now)
    }

    /// Judges one *batched* operation: the whole group of keys headed for
    /// `node` gets a single verdict, keyed on the combined FNV-1a hash of
    /// every key in order (stable across runs and platforms). One judgment (and at most one transient burst
    /// entry) per `(node, group)` — batching amortises fault exposure the
    /// same way it amortises WAL records.
    pub fn judge_batch(&self, node: usize, keys: &[&[u8]], now: u64) -> FaultVerdict {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for key in keys {
            for &b in *key {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        if self.node_down(node, now) {
            // ordering: Release — pairs with take_restart()'s AcqRel swap so
            // the restart edge is observed after the down verdict that set it.
            self.nodes[node].was_down.store(true, Ordering::Release);
            // ordering: Relaxed — statistics counter.
            self.injected
                .down_rejections
                .fetch_add(1, Ordering::Relaxed);
            return FaultVerdict::NodeDown;
        }
        if self.plan.added_latency > Duration::ZERO && self.plan.slow_nodes.contains(&node) {
            // ordering: Relaxed — statistics counter.
            self.injected.delayed_ops.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.plan.added_latency);
        }
        if self.plan.transient_fraction > 0.0 {
            let burst = self.burst_len(node, h);
            if burst > 0 {
                let mut bursts = self.nodes[node]
                    .bursts
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                let seen = bursts.entry(h).or_insert(0);
                if *seen < burst {
                    *seen += 1;
                    // ordering: Relaxed — statistics counter.
                    self.injected
                        .transient_errors
                        .fetch_add(1, Ordering::Relaxed);
                    return FaultVerdict::Transient;
                }
                // Burst exhausted; drop the entry to bound memory.
                bursts.remove(&h);
            }
        }
        FaultVerdict::Ok
    }

    /// Returns `true` exactly once after `node` comes back up — the
    /// cluster replays that node's hinted writes on this edge.
    pub fn take_restart(&self, node: usize, now: u64) -> bool {
        // ordering: AcqRel — the Acquire half pairs with the Release store in
        // judge_batch so this edge happens-after the down verdict; the
        // Release half lets exactly one caller win the swap and replay hints.
        !self.node_down(node, now) && self.nodes[node].was_down.swap(false, Ordering::AcqRel)
    }

    pub fn counters(&self) -> FaultCounters {
        self.injected.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing() {
        let f = FaultState::new(FaultPlan::quiet(1), 3);
        for i in 0..1000u64 {
            let now = f.tick();
            assert_eq!(now, i);
            assert_eq!(f.judge((i % 3) as usize, b"k", now), FaultVerdict::Ok);
        }
        assert_eq!(f.counters(), FaultCounters::default());
    }

    #[test]
    fn crash_window_follows_op_counter() {
        let plan = FaultPlan::quiet(2).with_crash(1, 10, Some(5));
        let f = FaultState::new(plan, 2);
        assert!(!f.node_down(1, 9));
        assert!(f.node_down(1, 10));
        assert!(f.node_down(1, 14));
        assert!(!f.node_down(1, 15));
        assert!(!f.node_down(0, 12), "other nodes unaffected");
    }

    #[test]
    fn permanent_crash_never_restarts() {
        let plan = FaultPlan::quiet(3).with_crash(0, 5, None);
        let f = FaultState::new(plan, 1);
        assert!(!f.node_down(0, 4));
        assert!(f.node_down(0, u64::MAX));
    }

    #[test]
    fn transient_bursts_are_per_key_deterministic() {
        let plan = FaultPlan::quiet(42).with_transient(0.5, 3);
        let run = || {
            let f = FaultState::new(plan.clone(), 2);
            let mut errors = 0u64;
            for k in 0..200u64 {
                let key = format!("key-{k:04}");
                // Retry each op until it goes through, as the driver would.
                while f.judge(0, key.as_bytes(), f.tick()) == FaultVerdict::Transient {
                    errors += 1;
                }
            }
            (errors, f.counters())
        };
        let (e1, c1) = run();
        let (e2, c2) = run();
        assert_eq!(e1, e2, "same plan, same injected errors");
        assert_eq!(c1, c2);
        assert!(e1 > 0, "a 50% fraction must inject something");
        // Bursts are finite: every key eventually succeeded (loop ended).
    }

    #[test]
    fn batch_judgment_is_one_verdict_per_group() {
        // fraction 1.0: every (node, group) starts with a burst of 1..=2.
        let plan = FaultPlan::quiet(42).with_transient(1.0, 2);
        let f = FaultState::new(plan, 1);
        let keys: Vec<&[u8]> = vec![b"a", b"b", b"c"];
        let mut errors = 0u32;
        // Retry the whole group until it goes through, as the driver
        // would; the loop ending proves the burst is finite.
        while f.judge_batch(0, &keys, f.tick()) == FaultVerdict::Transient {
            errors += 1;
        }
        assert!((1..=2).contains(&errors), "one burst for the whole group");
        assert_eq!(f.counters().transient_errors, u64::from(errors));
        // A different group gets its own independent burst.
        let other: Vec<&[u8]> = vec![b"x", b"y"];
        assert_eq!(f.judge_batch(0, &other, f.tick()), FaultVerdict::Transient);
        // The group verdict matches a single-key judgment of the
        // equivalent concatenated byte stream (same combined hash).
        let f2 = FaultState::new(FaultPlan::quiet(42).with_transient(1.0, 2), 1);
        let mut single = 0u32;
        while f2.judge(0, b"abc", f2.tick()) == FaultVerdict::Transient {
            single += 1;
        }
        assert_eq!(single, errors, "group hash == concatenated-key hash");
    }

    #[test]
    fn restart_edge_reported_once() {
        let plan = FaultPlan::quiet(7).with_crash(0, 0, Some(3));
        let f = FaultState::new(plan, 1);
        assert_eq!(f.judge(0, b"k", 0), FaultVerdict::NodeDown);
        assert_eq!(f.judge(0, b"k", 1), FaultVerdict::NodeDown);
        assert!(!f.take_restart(0, 2), "still down");
        assert!(f.take_restart(0, 3), "first op after restart sees the edge");
        assert!(!f.take_restart(0, 4), "edge consumed");
    }

    #[test]
    #[should_panic(expected = "outside the cluster")]
    fn crash_plan_validated_against_node_count() {
        FaultState::new(FaultPlan::quiet(0).with_crash(5, 0, None), 2);
    }

    #[test]
    fn topology_builders_schedule_events() {
        let plan = FaultPlan::quiet(0)
            .with_split(100, b"m")
            .with_node_add(200)
            .with_drain(1, 300)
            .with_split_threshold(500);
        assert_eq!(plan.topology.len(), 3);
        assert_eq!(plan.node_adds(), 1);
        assert_eq!(plan.split_threshold, Some(500));
        assert_eq!(
            plan.topology[0].action,
            TopologyAction::Split(Bytes::from_static(b"m"))
        );
        assert_eq!(plan.topology[2].action, TopologyAction::Drain(1));
    }

    #[test]
    fn node_add_widens_crash_validation() {
        // Node 3 only exists after the NodeAdd, yet the crash schedule
        // may target it: validation runs against the eventual width.
        let plan = FaultPlan::quiet(0)
            .with_node_add(100)
            .with_crash(3, 200, None);
        let f = FaultState::new(plan, 3);
        assert!(f.node_down(3, 200));
    }

    #[test]
    #[should_panic(expected = "drain plan references")]
    fn drain_plan_validated_against_node_count() {
        FaultState::new(FaultPlan::quiet(0).with_drain(7, 10), 3);
    }

    #[test]
    fn now_reads_without_ticking() {
        let f = FaultState::new(FaultPlan::quiet(0), 1);
        assert_eq!(f.now(), 0);
        f.tick();
        f.tick();
        assert_eq!(f.now(), 2);
        assert_eq!(f.now(), 2, "now() must not advance the clock");
    }
}
