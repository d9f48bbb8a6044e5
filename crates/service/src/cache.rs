//! Sharded LRU plan cache with statistics-epoch invalidation.
//!
//! The cache is a fixed number of independent shards (rounded up to a
//! power of two), each a mutex-guarded slab-backed LRU list plus a
//! hash index. A key is routed to its shard by a splitmix of the key
//! itself, so contention scales with the shard count rather than the
//! request rate, and no lock is ever held across an optimization.
//! Shards start empty and grow with what they hold, up to their share
//! of the capacity; the shares sum to the capacity exactly.
//!
//! Every entry records the statistics epoch it was optimized under.
//! Lookups carry the *current* epoch: an entry from an older epoch is
//! removed on sight and reported as [`Lookup::Stale`], and
//! [`ShardedLru::purge_stale`] sweeps whole shards eagerly after a
//! statistics refresh so memory is not held by unreachable plans. A
//! removed entry's slot lets go of its value at once — eviction, a
//! stale probe and the sweep alike — so a free slot holds no plan.

use std::collections::HashMap;
use std::sync::Mutex;

/// Result of a cache probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup<V> {
    /// Present and optimized under the current statistics epoch.
    Hit(V),
    /// Present but optimized under an older epoch; the entry has been
    /// evicted. Carries the evicted value so callers can inspect its
    /// provenance — the service uses this to see which degradation
    /// rung produced the outgoing plan (a stale GOO entry is a
    /// candidate for idle-time re-optimization at a higher rung).
    Stale(V),
    /// Absent.
    Miss,
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry<V> {
    key: u128,
    /// `None` while the slot is on the free list.
    value: Option<V>,
    epoch: u64,
    prev: usize,
    next: usize,
}

#[derive(Debug)]
struct Shard<V> {
    index: HashMap<u128, usize>,
    slab: Vec<Entry<V>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
    capacity: usize,
}

impl<V> Shard<V> {
    fn new(capacity: usize) -> Self {
        Shard {
            index: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slab[h].prev = i,
        }
        self.head = i;
    }

    /// Free slot `i`, moving its value out.
    fn remove_slot(&mut self, i: usize) -> V {
        self.unlink(i);
        let key = self.slab[i].key;
        self.index.remove(&key);
        self.free.push(i);
        self.slab[i]
            .value
            .take()
            .expect("a linked slot holds a value")
    }
}

/// A sharded, epoch-aware LRU cache keyed by 128-bit fingerprint-
/// derived keys.
#[derive(Debug)]
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    mask: u64,
}

fn shard_of(key: u128) -> u64 {
    // splitmix64 over the folded key: shard choice must not correlate
    // with the WL hash's internal structure.
    let mut z = (key as u64) ^ ((key >> 64) as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<V: Clone> ShardedLru<V> {
    /// Cache holding at most `capacity` entries spread over `shards`
    /// shards (rounded up to a power of two; both floored at 1). The
    /// first `capacity % shards` shards take one entry more than the
    /// rest, so the shares sum to `capacity` exactly. No slot is
    /// allocated until an entry arrives.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.max(1).next_power_of_two();
        let (share, extra) = (capacity / shards, capacity % shards);
        ShardedLru {
            shards: (0..shards)
                .map(|s| Mutex::new(Shard::new(share + usize::from(s < extra))))
                .collect(),
            mask: shards as u64 - 1,
        }
    }

    fn shard(&self, key: u128) -> &Mutex<Shard<V>> {
        &self.shards[(shard_of(key) & self.mask) as usize]
    }

    /// Probe for `key` under the current statistics `epoch`, marking
    /// it most recently used on a hit.
    pub fn get(&self, key: u128, epoch: u64) -> Lookup<V> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let Some(&i) = shard.index.get(&key) else {
            return Lookup::Miss;
        };
        if shard.slab[i].epoch != epoch {
            return Lookup::Stale(shard.remove_slot(i));
        }
        shard.unlink(i);
        shard.push_front(i);
        Lookup::Hit(
            shard.slab[i]
                .value
                .clone()
                .expect("a linked slot holds a value"),
        )
    }

    /// Insert (or refresh) `key`, returning how many entries LRU
    /// capacity pressure evicted.
    pub fn insert(&self, key: u128, value: V, epoch: u64) -> u64 {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if let Some(&i) = shard.index.get(&key) {
            shard.slab[i].value = Some(value);
            shard.slab[i].epoch = epoch;
            shard.unlink(i);
            shard.push_front(i);
            return 0;
        }
        if shard.capacity == 0 {
            // A cache smaller than its shard count leaves some shards
            // no share: what is routed there is evicted on arrival.
            return 1;
        }
        // Evict before taking a slot, so the new entry reuses its
        // victim's and the slab never outgrows the shard's share.
        let evicted = if shard.index.len() == shard.capacity {
            let lru = shard.tail;
            drop(shard.remove_slot(lru));
            1
        } else {
            0
        };
        let entry = Entry {
            key,
            value: Some(value),
            epoch,
            prev: NIL,
            next: NIL,
        };
        let i = match shard.free.pop() {
            Some(i) => {
                shard.slab[i] = entry;
                i
            }
            None => {
                shard.slab.push(entry);
                shard.slab.len() - 1
            }
        };
        shard.index.insert(key, i);
        shard.push_front(i);
        evicted
    }

    /// Evict every entry not optimized under `epoch`, returning the
    /// evicted `(key, value)` pairs so the caller can keep them around
    /// — the service shelves them for stale-serve degraded mode
    /// instead of letting the plans vanish at the epoch bump. The
    /// order is deterministic (sorted by key) so downstream policies
    /// that trim the harvest behave identically across runs.
    pub fn purge_stale(&self, epoch: u64) -> Vec<(u128, V)> {
        let mut purged = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            let stale: Vec<usize> = shard
                .index
                .values()
                .copied()
                .filter(|&i| shard.slab[i].epoch != epoch)
                .collect();
            for i in stale {
                let key = shard.slab[i].key;
                purged.push((key, shard.remove_slot(i)));
            }
        }
        purged.sort_by_key(|(key, _)| *key);
        purged
    }

    /// Current number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").index.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards actually allocated.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_lru_order() {
        // One shard, capacity 2, to make eviction order observable.
        let cache: ShardedLru<&'static str> = ShardedLru::new(2, 1);
        assert_eq!(cache.get(1, 0), Lookup::Miss);
        assert_eq!(cache.insert(1, "one", 0), 0);
        assert_eq!(cache.insert(2, "two", 0), 0);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(cache.get(1, 0), Lookup::Hit("one"));
        assert_eq!(cache.insert(3, "three", 0), 1);
        assert_eq!(cache.get(2, 0), Lookup::Miss, "LRU entry evicted");
        assert_eq!(cache.get(1, 0), Lookup::Hit("one"));
        assert_eq!(cache.get(3, 0), Lookup::Hit("three"));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn epoch_mismatch_is_stale_and_evicts() {
        let cache: ShardedLru<u32> = ShardedLru::new(8, 2);
        cache.insert(7, 70, 0);
        assert_eq!(cache.get(7, 0), Lookup::Hit(70));
        assert_eq!(
            cache.get(7, 1),
            Lookup::Stale(70),
            "stale probe surfaces the outgoing value"
        );
        assert_eq!(cache.get(7, 1), Lookup::Miss, "stale entry removed");
        cache.insert(7, 71, 1);
        assert_eq!(cache.get(7, 1), Lookup::Hit(71));
    }

    #[test]
    fn purge_sweeps_only_stale_entries() {
        let cache: ShardedLru<u32> = ShardedLru::new(64, 4);
        for k in 0..10u128 {
            cache.insert(k, k as u32, 0);
        }
        for k in 10..14u128 {
            cache.insert(k, k as u32, 1);
        }
        let purged = cache.purge_stale(1);
        assert_eq!(purged.len(), 10);
        // The harvest carries the evicted values, sorted by key.
        assert_eq!(purged[0], (0, 0));
        assert_eq!(purged[9], (9, 9));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.get(12, 1), Lookup::Hit(12));
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let cache: ShardedLru<u32> = ShardedLru::new(4, 1);
        cache.insert(5, 50, 0);
        assert_eq!(cache.insert(5, 51, 0), 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(5, 0), Lookup::Hit(51));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let cache: ShardedLru<u32> = ShardedLru::new(100, 3);
        assert_eq!(cache.shard_count(), 4);
        let cache: ShardedLru<u32> = ShardedLru::new(100, 0);
        assert_eq!(cache.shard_count(), 1);
    }

    #[test]
    fn capacity_is_enforced_across_shards() {
        let cache: ShardedLru<u32> = ShardedLru::new(16, 4);
        for k in 0..200u128 {
            cache.insert(k, k as u32, 0);
        }
        // Each of the 4 shards holds at most ceil(16/4) = 4 entries.
        assert!(cache.len() <= 16, "len {} exceeds capacity", cache.len());
        assert!(!cache.is_empty());
    }

    #[test]
    fn capacity_that_does_not_divide_is_split_exactly() {
        // 10 over 4 shards is 3 + 3 + 2 + 2; rounding every share up
        // to 3 would hold 12.
        let cache: ShardedLru<u32> = ShardedLru::new(10, 4);
        for k in 0..200u128 {
            cache.insert(k, k as u32, 0);
        }
        assert!(cache.len() <= 10, "len {} exceeds capacity", cache.len());
        let shares: Vec<usize> = cache
            .shards
            .iter()
            .map(|s| s.lock().unwrap().capacity)
            .collect();
        assert_eq!(shares, [3, 3, 2, 2]);
        let one: ShardedLru<u32> = ShardedLru::new(1, 8);
        for k in 0..50u128 {
            one.insert(k, k as u32, 0);
        }
        assert_eq!(one.len(), 1, "a capacity below the shard count still holds");
    }

    #[test]
    fn a_fresh_cache_allocates_no_slots() {
        let cache: ShardedLru<u32> = ShardedLru::new(1024, 8);
        for shard in &cache.shards {
            let shard = shard.lock().unwrap();
            assert_eq!((shard.slab.capacity(), shard.index.capacity()), (0, 0));
        }
        // A full shard's slab is its share: eviction frees the victim's
        // slot before the new entry takes one.
        let cache: ShardedLru<u32> = ShardedLru::new(4, 1);
        for k in 0..100u128 {
            cache.insert(k, k as u32, 0);
        }
        assert_eq!(cache.shards[0].lock().unwrap().slab.len(), 4);
    }

    #[test]
    fn a_removed_entry_lets_go_of_its_value() {
        use std::sync::Arc;
        let cache: ShardedLru<Arc<u32>> = ShardedLru::new(1, 1);
        let only = |v: &Arc<u32>| Arc::strong_count(v) == 1;

        // LRU eviction.
        let evicted = Arc::new(1);
        cache.insert(1, Arc::clone(&evicted), 0);
        assert_eq!(cache.insert(2, Arc::new(2), 0), 1);
        assert!(only(&evicted), "evicted value still held");

        // In-place refresh.
        let replaced = Arc::new(2);
        cache.insert(3, Arc::clone(&replaced), 0);
        cache.insert(3, Arc::new(3), 0);
        assert!(only(&replaced), "refreshed value still held");

        // A stale probe moves the value out: the caller's is the only
        // copy left once it lets go of the returned one.
        let probed = Arc::new(4);
        cache.insert(4, Arc::clone(&probed), 0);
        let Lookup::Stale(out) = cache.get(4, 1) else {
            panic!("expected a stale probe");
        };
        assert!(Arc::ptr_eq(&out, &probed));
        drop(out);
        assert!(only(&probed), "stale-probed value still held");

        // The sweep moves values out the same way.
        let swept = Arc::new(5);
        cache.insert(5, Arc::clone(&swept), 0);
        let purged = cache.purge_stale(1);
        assert_eq!(purged.len(), 1);
        drop(purged);
        assert!(only(&swept), "swept value still held");
        assert!(cache.is_empty());
    }
}
