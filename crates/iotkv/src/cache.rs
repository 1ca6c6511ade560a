//! A sharded LRU block cache.
//!
//! Cached unit: one decoded data block, keyed by `(table id, block offset)`.
//! The cache is sharded 16 ways by key hash to keep lock hold times short;
//! each shard is an exact LRU implemented as a hash map into a slab-backed
//! doubly-linked list (O(1) hit, insert, and eviction).

use crate::sstable::block::Block;
use simkit::sync::{AtomicU64, Mutex, Ordering};
use std::collections::HashMap;
use std::sync::Arc;

const SHARDS: usize = 16;

/// Cache key: table id + block offset within that table.
pub type CacheKey = (u64, u64);

const NIL: usize = usize::MAX;

struct Node {
    key: CacheKey,
    /// `None` while the slot is on the free list.
    value: Option<Arc<Block>>,
    charge: usize,
    prev: usize,
    next: usize,
}

struct Shard {
    map: HashMap<CacheKey, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    used: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            used: 0,
            capacity,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<Arc<Block>> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        self.nodes[idx].value.clone()
    }

    fn insert(&mut self, key: CacheKey, value: Arc<Block>, charge: usize) {
        if let Some(&idx) = self.map.get(&key) {
            // Replace in place, preserving list position then refreshing.
            self.used = self.used - self.nodes[idx].charge + charge;
            self.nodes[idx].value = Some(value);
            self.nodes[idx].charge = charge;
            self.unlink(idx);
            self.push_front(idx);
        } else {
            let node = Node {
                key,
                value: Some(value),
                charge,
                prev: NIL,
                next: NIL,
            };
            let idx = match self.free.pop() {
                Some(i) => {
                    self.nodes[i] = node;
                    i
                }
                None => {
                    self.nodes.push(node);
                    self.nodes.len() - 1
                }
            };
            self.map.insert(key, idx);
            self.push_front(idx);
            self.used += charge;
        }
        self.evict_to_fit();
    }

    fn evict_to_fit(&mut self) {
        while self.used > self.capacity && self.tail != NIL && self.tail != self.head {
            let idx = self.tail;
            self.unlink(idx);
            let node_key = self.nodes[idx].key;
            self.used -= self.nodes[idx].charge;
            self.map.remove(&node_key);
            self.nodes[idx].value = None;
            self.free.push(idx);
        }
    }

    fn erase_table(&mut self, table_id: u64) {
        let victims: Vec<CacheKey> = self
            .map
            .keys()
            .filter(|(t, _)| *t == table_id)
            .copied()
            .collect();
        for key in victims {
            if let Some(idx) = self.map.remove(&key) {
                self.unlink(idx);
                self.used -= self.nodes[idx].charge;
                self.nodes[idx].value = None;
                self.free.push(idx);
            }
        }
    }
}

/// The shared, sharded block cache.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    enabled: bool,
}

impl BlockCache {
    /// Creates a cache with a total byte capacity. A capacity of zero
    /// disables caching (every lookup misses, inserts are dropped).
    pub fn new(capacity_bytes: usize) -> BlockCache {
        let per_shard = capacity_bytes / SHARDS;
        BlockCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            enabled: capacity_bytes > 0,
        }
    }

    #[inline]
    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        // Cheap mix of table id and offset.
        let h = key
            .0
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.1.rotate_left(17));
        &self.shards[(h as usize) % SHARDS]
    }

    pub fn get(&self, key: &CacheKey) -> Option<Arc<Block>> {
        if !self.enabled {
            return None;
        }
        let got = self.shard_of(key).lock().get(key);
        // ordering: Relaxed — hit/miss tallies feed stats reads only; they
        // publish no data and tolerate being observed mid-update.
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    pub fn insert(&self, key: CacheKey, value: Arc<Block>) {
        if !self.enabled {
            return;
        }
        let charge = value.byte_size().max(1);
        self.shard_of(&key).lock().insert(key, value, charge);
    }

    /// Drops every cached block of a table (called when a compaction
    /// deletes the file).
    pub fn erase_table(&self, table_id: u64) {
        if !self.enabled {
            return;
        }
        for shard in &self.shards {
            shard.lock().erase_table(table_id);
        }
    }

    pub fn hit_count(&self) -> u64 {
        // ordering: Relaxed — statistics read; staleness is acceptable.
        self.hits.load(Ordering::Relaxed)
    }

    pub fn miss_count(&self) -> u64 {
        // ordering: Relaxed — statistics read; staleness is acceptable.
        self.misses.load(Ordering::Relaxed)
    }

    /// Total bytes currently charged across shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().used).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize) -> Arc<Block> {
        Arc::new(Block::new(vec![0u8; n]))
    }

    #[test]
    fn hit_and_miss() {
        let c = BlockCache::new(1 << 20);
        assert!(c.get(&(1, 0)).is_none());
        c.insert((1, 0), block(100));
        let got = c.get(&(1, 0)).unwrap();
        assert_eq!(got.byte_size(), 100);
        assert_eq!(c.hit_count(), 1);
        assert_eq!(c.miss_count(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        // One shard worth of capacity split across 16 shards — use keys that
        // land in the same shard by fixing table id and varying offsets,
        // then check global accounting instead of per-key eviction order.
        let c = BlockCache::new(16 * 1000); // 1000 bytes per shard
        for off in 0..100u64 {
            c.insert((3, off), block(400));
        }
        // Each shard holds at most 2 such blocks (3rd insert evicts).
        assert!(c.used_bytes() <= 16 * 1000 + 400);
    }

    #[test]
    fn lru_order_within_shard() {
        let c = BlockCache::new(16 * 1000);
        // These three keys hash wherever; use a single-shard cache instead:
        let mut shard = Shard::new(1000);
        shard.insert((0, 1), block(400), 400);
        shard.insert((0, 2), block(400), 400);
        // Touch (0,1) so (0,2) becomes LRU.
        assert!(shard.get(&(0, 1)).is_some());
        shard.insert((0, 3), block(400), 400);
        assert!(shard.get(&(0, 2)).is_none(), "LRU entry evicted");
        assert!(shard.get(&(0, 1)).is_some());
        assert!(shard.get(&(0, 3)).is_some());
        drop(c);
    }

    #[test]
    fn replacing_a_key_updates_charge() {
        let mut shard = Shard::new(10_000);
        shard.insert((0, 1), block(400), 400);
        shard.insert((0, 1), block(700), 700);
        assert_eq!(shard.used, 700);
        assert_eq!(shard.get(&(0, 1)).unwrap().byte_size(), 700);
    }

    #[test]
    fn erase_table_drops_only_that_table() {
        let c = BlockCache::new(1 << 20);
        c.insert((1, 0), block(10));
        c.insert((1, 8), block(10));
        c.insert((2, 0), block(10));
        c.erase_table(1);
        assert!(c.get(&(1, 0)).is_none());
        assert!(c.get(&(1, 8)).is_none());
        assert!(c.get(&(2, 0)).is_some());
    }

    #[test]
    fn evicted_and_erased_blocks_are_released() {
        let mut shard = Shard::new(1000);
        let evicted = block(600);
        shard.insert((0, 1), Arc::clone(&evicted), 600);
        assert_eq!(Arc::strong_count(&evicted), 2, "the cache holds one");
        shard.insert((0, 2), block(600), 600); // over capacity: (0, 1) goes
        assert!(shard.get(&(0, 1)).is_none());
        assert_eq!(Arc::strong_count(&evicted), 1, "eviction released it");

        let c = BlockCache::new(1 << 20);
        let erased = block(10);
        c.insert((7, 0), Arc::clone(&erased));
        assert_eq!(Arc::strong_count(&erased), 2);
        c.erase_table(7);
        assert_eq!(Arc::strong_count(&erased), 1, "erase_table released it");
    }

    #[test]
    fn zero_capacity_disables() {
        let c = BlockCache::new(0);
        c.insert((1, 0), block(10));
        assert!(c.get(&(1, 0)).is_none());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn single_oversized_entry_is_kept() {
        // The resident entry is never evicted even if above capacity,
        // so a block larger than a shard can still be cached transiently.
        let mut shard = Shard::new(100);
        shard.insert((0, 1), block(500), 500);
        assert!(shard.get(&(0, 1)).is_some());
        shard.insert((0, 2), block(500), 500);
        // Now over capacity with two entries: LRU one goes.
        assert!(shard.get(&(0, 1)).is_none());
        assert!(shard.get(&(0, 2)).is_some());
    }
}
