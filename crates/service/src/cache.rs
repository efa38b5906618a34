//! The sharded concurrent statement cache.
//!
//! Keyed by [`cote::fingerprint`] (structural identity — literals are
//! parameters), valued by the advisor's full [`Advice`] so a hit skips both
//! the estimator *and* the level decision. Statements arriving as SQL text
//! key the same cache through `cote-sql`'s AST-level fingerprint, which
//! feeds the identical `cote::StructuralHasher` event stream — so
//! `WHERE a = 1` and `WHERE a = 2` share one entry whether they arrive as
//! text or as built queries. Shards are independent
//! `RwLock<LruCache>`s selected by the fingerprint's high bits; under N
//! threads the lock held per operation covers 1/shards of the keyspace.
//! Every lookup ([`ShardedCache::get`]) takes its shard's write lock: a hit
//! promotes the entry to most-recently-used.

use crate::advisor::Advice;
use cote_common::LruCache;
use std::sync::RwLock;

/// Sharded fingerprint → advice cache.
pub struct ShardedCache {
    shards: Vec<RwLock<LruCache<u64, Advice>>>,
    shift: u32,
}

impl ShardedCache {
    /// Cache with `shards` shards (rounded up to a power of two) totalling
    /// `capacity` entries.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.clamp(1, 1 << 16).next_power_of_two();
        let per_shard = capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards)
                .map(|_| RwLock::new(LruCache::new(per_shard)))
                .collect(),
            // High bits select the shard: fingerprints are FxHash outputs
            // whose low bits correlate across similar statements.
            shift: 64 - shards.trailing_zeros(),
        }
    }

    fn shard(&self, fingerprint: u64) -> &RwLock<LruCache<u64, Advice>> {
        &self.shards[(fingerprint >> self.shift) as usize]
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total cached statements (sums shard lengths; approximate under
    /// concurrent writes).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// True when nothing is cached anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write-locked lookup that promotes the entry to most-recently-used.
    pub fn get(&self, fingerprint: u64) -> Option<Advice> {
        self.shard(fingerprint)
            .write()
            .unwrap()
            .get(&fingerprint)
            .cloned()
    }

    /// Insert (or refresh) an advice; returns true when an older statement
    /// was evicted to make room.
    pub fn insert(&self, fingerprint: u64, advice: Advice) -> bool {
        self.shard(fingerprint)
            .write()
            .unwrap()
            .insert(fingerprint, advice)
            .is_some()
    }

    /// Drop everything (all shards).
    pub fn clear(&self) {
        for s in &self.shards {
            s.write().unwrap().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{Advice, LevelChoice};
    use std::sync::Arc;

    fn advice(level: usize) -> Advice {
        Advice {
            choice: LevelChoice::Dp {
                composite_inner_limit: level,
                est_compile_seconds: level as f64,
            },
            levels: vec![(level, level as f64)],
            counts: Default::default(),
            joins: 0,
            error_margin: 0.0,
            degraded: false,
        }
    }

    #[test]
    fn insert_get_roundtrip_across_shards() {
        // 64 per shard: hash skew across 4 shards never forces an eviction.
        let c = ShardedCache::new(4, 256);
        assert_eq!(c.shard_count(), 4);
        for f in 0..64u64 {
            let fp = f.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            c.insert(fp, advice(f as usize + 1));
        }
        assert_eq!(c.len(), 64);
        let fp = 5u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let a = c.get(fp).expect("cached");
        assert_eq!(a.levels[0].0, 6);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_splits_across_shards_and_evicts() {
        let c = ShardedCache::new(2, 4); // 2 per shard
        let mut evictions = 0;
        for f in 0..100u64 {
            let fp = f.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if c.insert(fp, advice(1)) {
                evictions += 1;
            }
        }
        assert!(c.len() <= 4);
        assert!(evictions >= 96);
    }

    #[test]
    fn concurrent_mixed_load_stays_consistent() {
        let c = Arc::new(ShardedCache::new(8, 256));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        let fp = (i % 128).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        if (i + t) % 3 == 0 {
                            c.insert(fp, advice((i % 128) as usize + 1));
                        } else if let Some(a) = c.get(fp) {
                            // Value integrity: advice matches its key.
                            assert_eq!(a.levels[0].0, (i % 128) as usize + 1);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(c.len() <= 256);
    }
}
