//! Sharded concurrent trace cache for the replay engine.
//!
//! Worker threads fanning out over e-block replays (§5's independent
//! need-to-generate units) must share warm traces without serializing
//! on one lock. The cache therefore splits its key space across
//! [`SHARD_COUNT`] shards, each a `Mutex<HashMap>` with its own LRU
//! clock, while the **byte budget stays global**: a single atomic gauge
//! guards admission with a compare-and-swap reservation, so the cache
//! never holds more than `budget` bytes at any instant, from any
//! thread's point of view.
//!
//! Admission protocol for an entry of `b` bytes (`b > budget` entries
//! are never admitted, exactly like the sequential LRU it replaces, and
//! a zero budget admits nothing, so it is the uncached engine):
//!
//! 1. try to reserve: CAS the gauge from `cur` to `cur + b` while
//!    `cur + b <= budget`;
//! 2. on failure, evict one least-recently-used entry — from the
//!    inserting key's own shard first, then round-robin across the
//!    others — and retry;
//! 3. once reserved, insert under the shard lock (a racing duplicate
//!    insert of the same key releases the loser's bytes — replay is
//!    deterministic, so both candidates are identical).
//!
//! Step 2 always makes progress (every retry either frees bytes or
//! finds the cache empty, in which case the reservation succeeds), so
//! an insert of a within-budget trace never fails: no lost insertions.
//! Eviction order is per-shard-LRU-first rather than the exact global
//! LRU of the sequential cache — an approximation that only ever costs
//! a re-replay, never correctness.
//!
//! The cache owns no counters of its own: hits, misses and evictions
//! are bumped in the [`Registry`] it was created with (`cache.hits`,
//! `cache.misses`, `cache.evictions`), the one store every stats view
//! reads. Only the byte gauge that enforces the budget lives here.

use ppd_analysis::EBlockId;
use ppd_lang::ProcId;
use ppd_obs::{Counter, Registry};
use ppd_runtime::TraceEvent;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of one dynamic e-block execution.
pub type CacheKey = (ProcId, EBlockId, u64);

/// Number of independently locked shards (power of two).
pub const SHARD_COUNT: usize = 8;

struct Entry {
    events: Arc<Vec<TraceEvent>>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
}

/// The sharded, byte-budgeted concurrent trace cache.
pub struct ShardedTraceCache {
    shards: Vec<Mutex<Shard>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    /// Global byte gauge; only ever raised by a successful CAS
    /// reservation against `budget`, so it never exceeds it.
    bytes: AtomicUsize,
    budget: AtomicUsize,
    tick: AtomicU64,
}

impl ShardedTraceCache {
    /// An empty cache with the given global byte budget, counting its
    /// hits, misses and evictions into `registry`.
    pub fn new(budget: usize, registry: &Registry) -> ShardedTraceCache {
        ShardedTraceCache {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(Shard::default())).collect(),
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            evictions: registry.counter("cache.evictions"),
            bytes: AtomicUsize::new(0),
            budget: AtomicUsize::new(budget),
            tick: AtomicU64::new(0),
        }
    }

    fn shard_of(key: &CacheKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) & (SHARD_COUNT - 1)
    }

    /// Looks up a memoized trace, bumping its LRU stamp. Counts a hit
    /// or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<TraceEvent>>> {
        // Probes are the hottest instrumented site (one per warm
        // replay), so a *hit* records no span — hits are counted as
        // `cache.hits` — and a warm query pays one clock read. Misses
        // record retroactively.
        let probe_start = ppd_obs::spans_enabled().then(ppd_obs::now_ns);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.shards[Self::shard_of(key)].lock().unwrap();
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.inc();
                Some(Arc::clone(&entry.events))
            }
            None => {
                self.misses.inc();
                drop(shard);
                if let Some(t0) = probe_start {
                    ppd_obs::record_span_since("cache", "probe_miss", t0);
                }
                None
            }
        }
    }

    /// Admits a trace of `bytes` bytes, evicting LRU entries as needed.
    /// Returns whether the entry was stored (false only when the single
    /// trace exceeds the whole budget, or the budget is zero).
    pub fn insert(&self, key: CacheKey, events: Arc<Vec<TraceEvent>>, bytes: usize) -> bool {
        let mut span = ppd_obs::span("cache", "insert");
        span.arg("bytes", bytes);
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == 0 || bytes > budget {
            return false;
        }
        let s = Self::shard_of(&key);
        // Reserve the bytes against the global gauge before touching
        // any shard, evicting until the reservation lands.
        loop {
            let cur = self.bytes.load(Ordering::Relaxed);
            if cur + bytes <= budget {
                if self
                    .bytes
                    .compare_exchange(cur, cur + bytes, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    break;
                }
                continue;
            }
            if !self.evict_one(s) {
                // Every shard empty yet the gauge is non-zero can only
                // mean concurrent inserters hold reservations; yield
                // and retry until one of them lands and evicts.
                std::thread::yield_now();
            }
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.shards[s].lock().unwrap();
        if let Some(old) = shard.map.insert(key, Entry { events, bytes, last_used: tick }) {
            // Racing duplicate: release the replaced entry's bytes.
            self.bytes.fetch_sub(old.bytes, Ordering::Relaxed);
        }
        true
    }

    /// Evicts the LRU entry of `prefer` or, failing that, of the first
    /// non-empty shard after it. Returns false if every shard is empty.
    fn evict_one(&self, prefer: usize) -> bool {
        for off in 0..SHARD_COUNT {
            let s = (prefer + off) & (SHARD_COUNT - 1);
            let mut shard = self.shards[s].lock().unwrap();
            let victim = shard.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k);
            if let Some(victim) = victim {
                let entry = shard.map.remove(&victim).expect("victim present under lock");
                self.bytes.fetch_sub(entry.bytes, Ordering::Relaxed);
                self.evictions.inc();
                ppd_obs::instant("cache", "evict");
                return true;
            }
        }
        false
    }

    /// Sets the global byte budget, evicting down to it.
    pub fn set_budget(&self, budget: usize) {
        self.budget.store(budget, Ordering::Relaxed);
        while self.bytes.load(Ordering::Relaxed) > budget {
            if !self.evict_one(0) {
                break;
            }
        }
    }

    /// Bytes currently held (never exceeds the budget).
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The current byte budget.
    pub fn budget(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Traces currently held across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().map.len()).sum()
    }

    /// Whether the cache holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
