//! Memoized stage-oracle cache.
//!
//! "Off-the-shelf solvers cannot determine if a set of NF chains respects
//! hardware constraints, since that requires actually invoking the
//! hardware-specific compiler" (§1) — so the compiler invocation is the
//! search's hot path. Candidates that differ only in *server* choices
//! synthesize the **same** switch program (the PISA side sees only which
//! NFs live on the switch), and δ-sweeps, repeated repair passes, and the
//! heuristic's demotion loop re-probe programs they have compiled before.
//! The cache memoizes verdicts keyed by a canonical fingerprint of the
//! synthesized program (see `lemur_p4sim::ir::P4Program::fingerprint`), so
//! a repeated probe skips stage packing entirely.
//!
//! Correctness contract: the verdict stored for a fingerprint must equal
//! what a fresh compile of the same program returns — guaranteed because
//! the fingerprint covers every compile-relevant feature (table keys,
//! match kinds, sizes, action writes, control structure, hardware model)
//! and compilation is a pure function of those. A property test in
//! `lemur-metacompiler` (`proptest_cache.rs`) checks the equivalence on
//! random chains and placements.
//!
//! Determinism contract: the search is sequential, so each key is computed
//! exactly once and a search's hits/misses are `accesses − distinct keys`
//! and `distinct keys`.

use crate::oracle::StageVerdict;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Cache occupancy and effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that ran the compiler and populated the cache.
    pub misses: u64,
    /// Distinct programs currently cached.
    pub entries: u64,
}

impl CacheStats {
    /// Hit fraction in [0, 1]; 0 when the cache was never probed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter difference since an earlier snapshot (entries reported
    /// from the later snapshot).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
        }
    }
}

/// A fingerprint → [`StageVerdict`] map with hit/miss counters.
#[derive(Debug, Default)]
pub struct StageCache {
    map: RefCell<HashMap<u128, StageVerdict>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl StageCache {
    /// An empty cache.
    pub fn new() -> StageCache {
        StageCache::default()
    }

    /// Look up `key`, computing and inserting with `compute` on a miss.
    pub fn get_or_insert_with(
        &self,
        key: u128,
        compute: impl FnOnce() -> StageVerdict,
    ) -> StageVerdict {
        if let Some(v) = self.map.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return v.clone();
        }
        let v = compute();
        self.map.borrow_mut().insert(key, v.clone());
        self.misses.set(self.misses.get() + 1);
        v
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: self.map.borrow().len() as u64,
        }
    }

    /// Drop every entry and zero the counters (fresh-run isolation for
    /// benchmarks and determinism tests).
    pub fn clear(&self) {
        self.map.borrow_mut().clear();
        self.hits.set(0);
        self.misses.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fits(stages: usize) -> StageVerdict {
        StageVerdict::Fits { stages }
    }

    #[test]
    fn second_probe_hits() {
        let cache = StageCache::new();
        assert_eq!(cache.get_or_insert_with(42, || fits(5)), fits(5));
        assert_eq!(
            cache.get_or_insert_with(42, || unreachable!("must not recompute")),
            fits(5)
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = StageCache::new();
        for k in 0..100u128 {
            cache.get_or_insert_with(k, || fits(k as usize));
        }
        for k in 0..100u128 {
            assert_eq!(cache.get_or_insert_with(k, || fits(9999)), fits(k as usize));
        }
        assert_eq!(cache.stats().entries, 100);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = StageCache::new();
        cache.get_or_insert_with(7, || fits(1));
        cache.get_or_insert_with(7, || fits(1));
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn stats_delta_since_snapshot() {
        let cache = StageCache::new();
        cache.get_or_insert_with(1, || fits(1));
        let snap = cache.stats();
        cache.get_or_insert_with(1, || fits(1));
        cache.get_or_insert_with(2, || fits(2));
        let d = cache.stats().since(&snap);
        assert_eq!((d.hits, d.misses), (1, 1));
    }
}
