//! A small intrusive LRU cache.
//!
//! Backs the per-shard estimate caches of `cote-service`. Entries live in a `Vec`
//! arena threaded into a doubly-linked recency list, with an [`FxHashMap`]
//! index from key to arena slot — `get`/`insert` are O(1) and eviction
//! reuses slots, so a warm cache allocates nothing.

use crate::fxhash::FxHashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// Bounded map with least-recently-used eviction.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: FxHashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// Cache holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            map: FxHashMap::default(),
            nodes: Vec::with_capacity(capacity.min(1024)),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every entry (keeps the allocation).
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, i: usize) {
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

    /// Look `key` up and mark it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.map.get(key)?;
        if i != self.head {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.nodes[i].value)
    }

    /// Look `key` up without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| &self.nodes[i].value)
    }

    /// Insert or overwrite; returns the evicted `(key, value)` if the cache
    /// was full and a victim had to make room.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].value = value;
            if i != self.head {
                self.unlink(i);
                self.push_front(i);
            }
            return None;
        }
        let mut evicted = None;
        let slot = if self.map.len() == self.capacity {
            // Reuse the LRU slot.
            let victim = self.tail;
            self.unlink(victim);
            let node = &mut self.nodes[victim];
            self.map.remove(&node.key);
            let old_key = std::mem::replace(&mut node.key, key.clone());
            let old_val = std::mem::replace(&mut node.value, value);
            evicted = Some((old_key, old_val));
            victim
        } else {
            self.nodes.push(Node {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        assert!(c.is_empty());
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(&1), Some(&"a")); // 1 is now MRU
        let evicted = c.insert(3, "c");
        assert_eq!(evicted, Some((2, "b")), "2 was LRU");
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&3), Some(&"c"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn overwrite_refreshes_without_evicting() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None);
        assert_eq!(c.insert(3, 30), Some((2, 20)));
        assert_eq!(c.peek(&1), Some(&11));
    }

    #[test]
    fn clear_and_singleton_capacity() {
        let mut c = LruCache::new(0); // clamped to 1
        assert_eq!(c.capacity(), 1);
        assert_eq!(c.insert('x', 1), None);
        assert_eq!(c.insert('y', 2), Some(('x', 1)));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&'y'), None);
        c.insert('z', 3);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn long_churn_keeps_exactly_capacity() {
        let mut c = LruCache::new(8);
        for i in 0..1000u32 {
            c.insert(i, i * 2);
        }
        assert_eq!(c.len(), 8);
        for i in 992..1000 {
            assert_eq!(c.peek(&i), Some(&(i * 2)), "newest 8 survive");
        }
    }
}
