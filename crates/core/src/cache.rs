//! Byte-budgeted LRU trace cache for the replay engine.
//!
//! The CLI probes and fills the cache from one thread; only a batch of
//! independent e-block replays (§5, `Controller::prefetch`) inserts
//! from several workers, each insert following a replay of
//! microseconds to milliseconds. One `Mutex` around the whole LRU is
//! uncontended at that traffic, and it keeps every rule exact:
//!
//! - a zero budget admits nothing, so it is the uncached engine;
//! - an entry larger than the whole budget is refused;
//! - an insert evicts least-recently-used entries, in exact global
//!   order, until it fits, so the cache never holds more than `budget`
//!   bytes;
//! - a duplicate insert replaces the old entry and releases its bytes
//!   (replay is deterministic, so both traces are identical).
//!
//! Hits, misses and evictions are counted in the [`Registry`] the cache
//! was created with (`cache.hits`, `cache.misses`, `cache.evictions`),
//! the one store every stats view reads.

use ppd_analysis::EBlockId;
use ppd_lang::ProcId;
use ppd_obs::{Counter, Registry};
use ppd_runtime::TraceEvent;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Identity of one dynamic e-block execution.
pub type CacheKey = (ProcId, EBlockId, u64);

struct Entry {
    events: Arc<Vec<TraceEvent>>,
    bytes: usize,
    last_used: u64,
}

/// Everything behind the cache's one lock.
#[derive(Default)]
struct Lru {
    map: HashMap<CacheKey, Entry>,
    /// Bytes held: the sum of the entries' sizes, never above `budget`.
    bytes: usize,
    budget: usize,
    tick: u64,
}

impl Lru {
    /// Evicts least-recently-used entries until at most `limit` bytes
    /// are held.
    fn evict_down_to(&mut self, limit: usize, evictions: &Counter) {
        while self.bytes > limit {
            let Some((&victim, _)) = self.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            if let Some(entry) = self.map.remove(&victim) {
                self.bytes -= entry.bytes;
            }
            evictions.inc();
            ppd_obs::instant("cache", "evict");
        }
    }
}

/// The byte-budgeted LRU trace cache, shareable across replay workers.
pub struct TraceCache {
    lru: Mutex<Lru>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl TraceCache {
    /// An empty cache with the given byte budget, counting its hits,
    /// misses and evictions into `registry`.
    pub fn new(budget: usize, registry: &Registry) -> TraceCache {
        TraceCache {
            lru: Mutex::new(Lru { budget, ..Lru::default() }),
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            evictions: registry.counter("cache.evictions"),
        }
    }

    /// The LRU state. Nothing can panic between two updates that must
    /// agree, so a poisoned lock still guards a consistent LRU.
    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a memoized trace, bumping its LRU stamp. Counts a hit
    /// or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<TraceEvent>>> {
        // Probes are the hottest instrumented site (one per warm
        // replay), so a *hit* records no span — hits are counted as
        // `cache.hits` — and a warm query pays one clock read. Misses
        // record retroactively.
        let probe_start = ppd_obs::spans_enabled().then(ppd_obs::now_ns);
        let mut lru = self.lock();
        lru.tick += 1;
        let tick = lru.tick;
        match lru.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.inc();
                Some(Arc::clone(&entry.events))
            }
            None => {
                drop(lru);
                self.misses.inc();
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
        let mut lru = self.lock();
        if lru.budget == 0 || bytes > lru.budget {
            return false;
        }
        if let Some(old) = lru.map.remove(&key) {
            lru.bytes -= old.bytes;
        }
        let limit = lru.budget - bytes;
        lru.evict_down_to(limit, &self.evictions);
        lru.tick += 1;
        let last_used = lru.tick;
        lru.bytes += bytes;
        lru.map.insert(key, Entry { events, bytes, last_used });
        true
    }

    /// Sets the byte budget, evicting down to it.
    pub fn set_budget(&self, budget: usize) {
        let mut lru = self.lock();
        lru.budget = budget;
        lru.evict_down_to(budget, &self.evictions);
    }

    /// Bytes currently held (never exceeds the budget).
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// The current byte budget.
    pub fn budget(&self) -> usize {
        self.lock().budget
    }

    /// Traces currently held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
