//! The result cache: short-circuit repeated identical reads within an
//! epoch.
//!
//! A serving workload is dominated by *repeats* — the same query against
//! the same database state, over and over. The plan cache already removes
//! classification and compilation from that path; the result cache
//! removes execution too, returning the memoized [`ExecOutcome`] of the
//! earlier run (probability, method, and every counter family,
//! bit-for-bit — a cache hit is indistinguishable from the run that
//! populated it, except for being instant).
//!
//! # Keying
//!
//! An entry is valid only for the exact content state and execution
//! configuration that produced it:
//!
//! * `db.uid()` + `db.version()` — the content state. The uid is fresh
//!   per database value *and per clone* (see [`pdb::ProbDb::uid`]), so
//!   entries never leak across databases that happen to share version
//!   numbers, nor across clones that diverged from a common ancestor.
//!   Within the epoch-snapshot discipline, each published epoch is one
//!   immutable `(uid, version)` state — precisely the "within an epoch"
//!   validity the serving layer needs, with no invalidation protocol:
//!   a new epoch simply has a new key.
//! * seed, threads — execution tuning that changes sampling streams
//!   (estimates are deterministic per `(seed, threads)`).
//! * the strategy discriminant and effective sample count — a forced
//!   exact-lineage run and an `Auto` run of the same query must not
//!   share an entry, and a changed `mc_samples` must re-execute.
//! * `Query::cache_key()` — the canonical query, so alpha-renamed and
//!   atom-permuted variants share an entry (same normalization the plan
//!   cache uses).
//!
//! Since every input of the execution is in the key and the executors are
//! deterministic, a hit is *bit-for-bit* the answer a cold execution
//! would produce — the forced-on CI run (`ENGINE_RESULT_CACHE=1`) pins
//! exactly that across the whole suite.

use crate::plan::ExecOutcome;
use crate::shared_cache::ShardedCache;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::Counter;

/// Default capacity (entries, across shards).
pub const DEFAULT_RESULT_CACHE_CAPACITY: usize = 4096;

/// A shared, concurrent memo of execution outcomes. Cheap to share
/// (engines hold it behind an `Arc`); probes are sharded-lock reads.
pub struct ResultCache {
    cache: ShardedCache<ExecOutcome>,
    // Instance-local stats (this cache only) alongside the process-wide
    // registry counters — the registry aggregates every cache in the
    // process, which is the wrong denominator for one engine's hit rate.
    local_hits: AtomicU64,
    local_misses: AtomicU64,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl ResultCache {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RESULT_CACHE_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        let reg = telemetry::registry();
        ResultCache {
            cache: ShardedCache::new(capacity, "engine.result_cache.contended"),
            local_hits: AtomicU64::new(0),
            local_misses: AtomicU64::new(0),
            hits: reg.counter("engine.result_cache.hits"),
            misses: reg.counter("engine.result_cache.misses"),
        }
    }

    /// Probe for a memoized outcome under `key` (built by the engine via
    /// [`ResultCache::key`]).
    pub fn get(&self, key: &str) -> Option<ExecOutcome> {
        let out = self.cache.get(key);
        match out {
            Some(_) => {
                self.local_hits.fetch_add(1, Ordering::Relaxed);
                self.hits.incr();
            }
            None => {
                self.local_misses.fetch_add(1, Ordering::Relaxed);
                self.misses.incr();
            }
        }
        out
    }

    /// Memoize `outcome` under `key`.
    pub fn insert(&self, key: String, outcome: ExecOutcome) {
        self.cache.insert(key, outcome);
    }

    /// Build the cache key for one evaluation. `strategy_tag` encodes the
    /// strategy discriminant plus its effective sample count (0 for exact
    /// strategies); `query_key` is `Query::cache_key()`.
    ///
    /// `shards` is kept only for the `perfbench` replay harness and must
    /// be 1: the extensional data plane is unsharded.
    pub fn key(
        db: &pdb::ProbDb,
        seed: u64,
        threads: usize,
        shards: usize,
        strategy_tag: &str,
        query_key: &str,
    ) -> String {
        debug_assert_eq!(shards, 1, "the extensional data plane is unsharded");
        format!(
            "{}:{}:{seed}:{threads}:{strategy_tag}:{query_key}",
            db.uid(),
            db.version(),
        )
    }

    /// Lifetime hits of *this* cache instance.
    pub fn hits(&self) -> u64 {
        self.local_hits.load(Ordering::Relaxed)
    }

    /// Lifetime misses of *this* cache instance.
    pub fn misses(&self) -> u64 {
        self.local_misses.load(Ordering::Relaxed)
    }

    /// Contended lock acquisitions observed by the underlying sharded
    /// store (serving surfaces this next to hits/misses).
    pub fn contended(&self) -> u64 {
        self.cache.contended()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}
