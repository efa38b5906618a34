//! The statement-cache baseline (paper §1.2).
//!
//! "One straightforward approach to estimating the compilation time is to
//! cache the compilation time for each compiled query in a statement cache
//! and use it as an estimate for subsequent similar queries. However, this
//! approach may not work well for a variety of complex ad-hoc queries" —
//! the motivating contrast for COTE. Implemented here so the harness can
//! demonstrate exactly that failure mode.

use crate::fingerprint::fingerprint;
use cote_common::FxHashMap;
use cote_query::Query;

/// A compile-time cache keyed by query *structure*.
///
/// The [`fingerprint`] covers everything that determines compilation cost —
/// table identities, join-predicate columns, local-predicate columns and
/// operator kinds, GROUP BY / ORDER BY shapes, subquery structure — but not
/// literal constants, so `price < 10` and `price < 99` share an entry (as a
/// parameterized statement cache would). Unbounded: the paper's baseline
/// caches every statement.
#[derive(Debug, Default)]
pub struct StatementCache {
    entries: FxHashMap<u64, f64>,
    hits: u64,
    misses: u64,
}

impl StatementCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Estimate from the cache, if a structurally identical statement was
    /// compiled before.
    pub fn lookup(&mut self, query: &Query) -> Option<f64> {
        let cached = self.entries.get(&fingerprint(query)).copied();
        match cached {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        cached
    }

    /// Record an actual compilation.
    pub fn record(&mut self, query: &Query, seconds: f64) {
        self.entries.insert(fingerprint(query), seconds);
    }

    /// Lookups served / total lookups, 0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        match self.hits + self.misses {
            0 => 0.0,
            total => self.hits as f64 / total as f64,
        }
    }

    /// Cached statements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::tests::{catalog, query};

    #[test]
    fn cache_lifecycle_and_hit_rate() {
        let cat = catalog();
        let mut cache = StatementCache::new();
        let q = query(&cat, 5.0, false);
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(&q), None);
        cache.record(&q, 0.25);
        assert_eq!(cache.lookup(&q), Some(0.25));
        assert_eq!(
            cache.lookup(&query(&cat, 7.0, false)),
            Some(0.25),
            "parameterized hit"
        );
        assert_eq!(
            cache.lookup(&query(&cat, 7.0, true)),
            None,
            "structural miss"
        );
        assert_eq!(cache.len(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12, "2 hits / 4 lookups");
    }
}
