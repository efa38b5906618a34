//! Hash-consing interner for interesting-property lists.
//!
//! The MEMO stores one boundary-class list per entry, and the estimator's
//! per-entry payloads store interesting-order / partition values — small
//! lists that repeat heavily across entries (a join graph only produces a
//! handful of distinct property values). Interning deduplicates them
//! through one table: every distinct value is stored once and addressed by
//! a dense `u32` [`PropSetId`], so per-probe equality drops from a full
//! list compare to a `u32` compare and per-entry storage from an owned
//! `Vec` to 4 bytes.
//!
//! Invariants (pinned by the bijection property suite in
//! `tests/memo_primitives.rs`):
//! * `resolve(intern(v)) == v` — round-trip identity;
//! * `intern(a) == intern(b)` ⇔ `a == b` — equal values always intern to
//!   equal ids, distinct values never collide;
//! * ids are dense and assigned in first-intern order, so a table built by
//!   a deterministic walk is itself deterministic.

use crate::fxhash::FxHashMap;
use std::hash::Hash;

/// Dense identifier of an interned property value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropSetId(pub u32);

impl PropSetId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A hash-consing table: values in, dense ids out.
#[derive(Debug, Clone, Default)]
pub struct Interner<T> {
    values: Vec<T>,
    index: FxHashMap<T, u32>,
}

impl<T: Clone + Eq + Hash> Interner<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    /// Intern a value: returns the existing id when the value was seen
    /// before, otherwise assigns the next dense id (cloning the value once).
    pub fn intern(&mut self, value: &T) -> PropSetId {
        if let Some(&id) = self.index.get(value) {
            return PropSetId(id);
        }
        self.insert_new(value.clone())
    }

    /// Intern an owned value without the clone-on-miss.
    pub fn intern_owned(&mut self, value: T) -> PropSetId {
        if let Some(&id) = self.index.get(&value) {
            return PropSetId(id);
        }
        self.insert_new(value)
    }

    fn insert_new(&mut self, value: T) -> PropSetId {
        let id = u32::try_from(self.values.len()).expect("interner overflow");
        self.values.push(value.clone());
        self.index.insert(value, id);
        PropSetId(id)
    }

    /// The value an id stands for.
    pub fn resolve(&self, id: PropSetId) -> &T {
        &self.values[id.index()]
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_dedup() {
        let mut t: Interner<Vec<u16>> = Interner::new();
        let a = t.intern(&vec![1, 2, 3]);
        let b = t.intern(&vec![4]);
        let a2 = t.intern(&vec![1, 2, 3]);
        assert_eq!(a, a2, "equal lists intern to equal ids");
        assert_ne!(a, b, "distinct lists never collide");
        assert_eq!(t.resolve(a), &vec![1, 2, 3]);
        assert_eq!(t.resolve(b), &vec![4]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ids_are_dense_in_first_intern_order() {
        let mut t: Interner<u64> = Interner::new();
        assert!(t.is_empty());
        for (i, v) in [10u64, 20, 30, 20, 10].into_iter().enumerate() {
            let id = t.intern_owned(v);
            assert_eq!(id.index(), [0, 1, 2, 1, 0][i]);
        }
        let values: Vec<u64> = (0..t.len() as u32)
            .map(|i| *t.resolve(PropSetId(i)))
            .collect();
        assert_eq!(values, vec![10, 20, 30]);
    }
}
