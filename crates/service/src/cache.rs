//! LRU caches for repeated estimates: sharded per-path, plus the
//! normalized-expression cache.
//!
//! Path-selectivity workloads are heavily skewed (optimizers re-ask the
//! same hot join paths), so a small cache in front of the histogram's
//! three-stage sum-based lookup pays for itself quickly. Sharding by path
//! hash keeps lock hold times short under concurrent batches; hit/miss
//! counters are shared with [`crate::metrics::ServiceMetrics`] so the
//! cumulative hit rate survives snapshot hot-swaps (each swap installs a
//! fresh, cold cache — the *counters* must not reset with it).
//!
//! The [`ExprCache`] serves the `estimate_expr` op. It is keyed by the
//! **normalized** expression (see `phe_query::PathExpr::cache_key`), so
//! syntactic variants like `(a|b)/c` and `(b|a)/c` share one entry —
//! the hit counters therefore measure normalized-key hits against raw
//! misses. Its counters are *per registry slot* and survive generation
//! swaps within the slot.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::Mutex;
use phe_core::LabelPath;
use phe_obs::{Counter, MetricsRegistry};

use crate::registry::ExprOutcome;

/// Cumulative hit/miss counters, shared between cache generations.
///
/// Backed by a pair of [`phe_obs::Counter`] handles. Detached by
/// default; [`CacheCounters::registered`] binds the same counters into a
/// metrics registry as `phe_cache_requests_total{…,outcome=…}`, so the
/// hit rate the `list` op and the scrape endpoint report is read from
/// the **same atomics** the cache increments — the surfaces cannot
/// disagree.
#[derive(Debug)]
pub struct CacheCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl Default for CacheCounters {
    fn default() -> Self {
        CacheCounters {
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
        }
    }
}

impl CacheCounters {
    /// Counters registered in `registry` under
    /// `phe_cache_requests_total` with the given identifying labels plus
    /// `outcome="hit"` / `outcome="miss"`.
    pub fn registered(registry: &MetricsRegistry, labels: &[(&str, &str)]) -> CacheCounters {
        const NAME: &str = phe_obs::names::CACHE_REQUESTS_TOTAL;
        const HELP: &str = "Cache lookups by cache, slot, and outcome.";
        let mut hit_labels = labels.to_vec();
        hit_labels.push(("outcome", "hit"));
        let mut miss_labels = labels.to_vec();
        miss_labels.push(("outcome", "miss"));
        CacheCounters {
            hits: registry.counter_with(NAME, HELP, &hit_labels),
            misses: registry.counter_with(NAME, HELP, &miss_labels),
        }
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Hits / (hits + misses), or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let total = h + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            h / total
        }
    }
}

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// One shard: a classic HashMap + intrusive-list LRU, generic over the
/// key (label paths here, normalized expression strings in
/// [`ExprCache`]).
struct Shard<K, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Shard<K, V> {
        Shard {
            map: HashMap::with_capacity(capacity.min(1024)),
            nodes: Vec::with_capacity(capacity.min(1024)),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
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

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
    {
        let &i = self.map.get(key)?;
        let value = self.nodes[i].value.clone();
        if self.head != i {
            self.detach(i);
            self.push_front(i);
        }
        Some(value)
    }

    fn insert(&mut self, key: K, value: V) {
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].value = value;
            if self.head != i {
                self.detach(i);
                self.push_front(i);
            }
            return;
        }
        let i = if self.nodes.len() < self.capacity {
            self.nodes.push(Node {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        } else {
            // Evict the least recently used entry and reuse its node.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            self.map.remove(&self.nodes[victim].key);
            self.nodes[victim] = Node {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            };
            victim
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

/// The sharded LRU estimate cache.
pub struct ShardedLruCache {
    shards: Vec<Mutex<Shard<LabelPath, f64>>>,
    counters: Arc<CacheCounters>,
}

impl ShardedLruCache {
    /// Number of shards (power of two so the hash → shard map is a mask).
    pub const SHARDS: usize = 16;

    /// A cache holding up to ~`capacity` entries, reporting into
    /// `counters`.
    pub fn new(capacity: usize, counters: Arc<CacheCounters>) -> ShardedLruCache {
        let per_shard = capacity.div_ceil(Self::SHARDS).max(1);
        ShardedLruCache {
            shards: (0..Self::SHARDS)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            counters,
        }
    }

    fn shard_for(&self, path: &LabelPath) -> &Mutex<Shard<LabelPath, f64>> {
        // FNV-1a over the packed labels: cheap and well-mixed for the
        // short u16 sequences paths are.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &l in &path.as_slice()[..path.len()] {
            h ^= l as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= path.len() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        &self.shards[(h as usize) & (Self::SHARDS - 1)]
    }

    /// Looks up a cached estimate, counting the hit or miss.
    pub fn get(&self, path: &LabelPath) -> Option<f64> {
        let result = self.shard_for(path).lock().get(path);
        match result {
            Some(_) => self.counters.hits.inc(),
            None => self.counters.misses.inc(),
        };
        result
    }

    /// Inserts an estimate, evicting the shard's LRU entry if full.
    pub fn insert(&self, path: LabelPath, value: f64) {
        self.shard_for(&path).lock().insert(path, value);
    }

    /// Current number of cached entries (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The expression cache: one LRU keyed by the **normalized** expression
/// rendering, so commuted alternations share entries. An entry is an
/// answered outcome without its per-branch breakdown (explain requests
/// recompute). Expression traffic is far lighter than per-path traffic
/// (each expression fans out into many per-path lookups below it), so a
/// single mutex suffices.
pub struct ExprCache {
    shard: Mutex<Shard<String, ExprOutcome>>,
    counters: Arc<CacheCounters>,
}

impl ExprCache {
    /// A cache holding up to `capacity` expressions, reporting into the
    /// per-slot `counters`.
    pub fn new(capacity: usize, counters: Arc<CacheCounters>) -> ExprCache {
        ExprCache {
            shard: Mutex::new(Shard::new(capacity.max(1))),
            counters,
        }
    }

    /// Looks up a normalized key, counting the hit or miss.
    pub fn get(&self, key: &str) -> Option<ExprOutcome> {
        let result = self.shard.lock().get(key);
        match result {
            Some(_) => self.counters.hits.inc(),
            None => self.counters.misses.inc(),
        };
        result
    }

    /// Inserts an outcome under its normalized key.
    pub fn insert(&self, key: String, value: ExprOutcome) {
        self.shard.lock().insert(key, value);
    }

    /// Current number of cached expressions.
    pub fn len(&self) -> usize {
        self.shard.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phe_graph::LabelId;

    fn path(labels: &[u16]) -> LabelPath {
        let ids: Vec<LabelId> = labels.iter().map(|&l| LabelId(l)).collect();
        LabelPath::new(&ids)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let counters = Arc::new(CacheCounters::default());
        let cache = ShardedLruCache::new(64, counters.clone());
        let p = path(&[1, 2]);
        assert_eq!(cache.get(&p), None);
        cache.insert(p, 0.5);
        assert_eq!(cache.get(&p), Some(0.5));
        assert_eq!(counters.hits(), 1);
        assert_eq!(counters.misses(), 1);
        assert!((counters.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used_per_shard() {
        // Capacity 16 over 16 shards = 1 entry per shard: any two distinct
        // paths landing in the same shard evict each other.
        let cache = ShardedLruCache::new(16, Arc::new(CacheCounters::default()));
        let mut same_shard = Vec::new();
        for a in 0..200u16 {
            let p = path(&[a]);
            if std::ptr::eq(cache.shard_for(&p), cache.shard_for(&path(&[0]))) {
                same_shard.push(p);
            }
            if same_shard.len() == 2 {
                break;
            }
        }
        assert_eq!(same_shard.len(), 2, "no shard collision in 200 paths?");
        cache.insert(same_shard[0], 1.0);
        cache.insert(same_shard[1], 2.0);
        assert_eq!(cache.get(&same_shard[0]), None, "LRU entry should evict");
        assert_eq!(cache.get(&same_shard[1]), Some(2.0));
    }

    #[test]
    fn recently_used_survives_eviction() {
        let cache = ShardedLruCache::new(
            ShardedLruCache::SHARDS * 2,
            Arc::new(CacheCounters::default()),
        );
        // Find three paths in one shard; touch the first, insert the
        // third: the second (LRU) must go.
        let reference = path(&[0]);
        let mut trio = Vec::new();
        for a in 0..2000u16 {
            let p = path(&[a, 1]);
            if std::ptr::eq(cache.shard_for(&p), cache.shard_for(&reference)) {
                trio.push(p);
            }
            if trio.len() == 3 {
                break;
            }
        }
        assert_eq!(trio.len(), 3);
        cache.insert(trio[0], 1.0);
        cache.insert(trio[1], 2.0);
        assert_eq!(cache.get(&trio[0]), Some(1.0)); // refresh
        cache.insert(trio[2], 3.0); // evicts trio[1]
        assert_eq!(cache.get(&trio[0]), Some(1.0));
        assert_eq!(cache.get(&trio[1]), None);
        assert_eq!(cache.get(&trio[2]), Some(3.0));
    }

    #[test]
    fn expr_cache_hits_normalized_keys_and_evicts() {
        let counters = Arc::new(CacheCounters::default());
        let cache = ExprCache::new(2, counters.clone());
        let entry = ExprOutcome {
            total: 7.5,
            width: 2,
            pruned: 1,
            truncated: 0,
            matches_empty: false,
            cached: false,
            branches: None,
        };
        assert_eq!(cache.get("(0|1)/2"), None);
        cache.insert("(0|1)/2".to_owned(), entry.clone());
        // A commuted alternation normalizes to the same key string by the
        // time it reaches the cache.
        assert_eq!(cache.get("(0|1)/2"), Some(entry.clone()));
        assert_eq!((counters.hits(), counters.misses()), (1, 1));

        cache.insert("0".to_owned(), entry.clone());
        cache.insert("1".to_owned(), entry);
        assert_eq!(cache.get("(0|1)/2"), None, "LRU evicted at capacity 2");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn updates_replace_in_place() {
        let cache = ShardedLruCache::new(8, Arc::new(CacheCounters::default()));
        let p = path(&[3, 4, 5]);
        cache.insert(p, 1.0);
        cache.insert(p, 9.0);
        assert_eq!(cache.get(&p), Some(9.0));
        assert_eq!(cache.len(), 1);
    }
}
