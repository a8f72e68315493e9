//! Side tables keyed by program ids.
//!
//! Statement and expression ids are dense (see [`crate::ast`]), so a
//! table keyed by them is a vector with one slot per id: a lookup is an
//! index, with no hashing. [`IdTable`] is that table, with the
//! `get`/`Index` surface of a map so callers read it like one. Keys that
//! are not dense over one table, such as [`crate::BodyId`], go in an
//! [`FxMap`], a hash map with a cheap hasher.

use crate::ast::{ExprId, StmtId};
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;

/// An id that indexes a side table.
pub trait DenseId: Copy {
    /// The slot of this id.
    fn index(self) -> usize;
    /// The id of slot `index`.
    fn from_index(index: usize) -> Self;
}

impl DenseId for StmtId {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(index: usize) -> Self {
        StmtId(index as u32)
    }
}

impl DenseId for ExprId {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(index: usize) -> Self {
        ExprId(index as u32)
    }
}

/// A map from a dense id to a value: one slot per id up to the largest
/// key inserted, so `get` is a bounds-checked index.
///
/// # Examples
///
/// ```
/// use ppd_lang::table::IdTable;
/// use ppd_lang::StmtId;
///
/// let mut t = IdTable::new();
/// t.insert(StmtId(2), "two");
/// assert_eq!(t.get(&StmtId(2)), Some(&"two"));
/// assert_eq!(t.get(&StmtId(3)), None);
/// assert_eq!(t.get(&StmtId(99)), None);
/// assert_eq!(t[&StmtId(2)], "two");
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Clone)]
pub struct IdTable<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    key: PhantomData<fn(K) -> K>,
}

impl<K: DenseId, V> IdTable<K, V> {
    /// An empty table; inserting an id grows it to that id's slot.
    pub fn new() -> Self {
        IdTable { slots: Vec::new(), len: 0, key: PhantomData }
    }

    /// Sets the value of `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = key.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        self.len += usize::from(old.is_none());
        old
    }

    /// The value of `key`, if it has one.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.slots.get(key.index())?.as_ref()
    }

    /// Whether `key` has a value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Number of keys with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key has a value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The keys with a value and their values, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, v)| Some((K::from_index(i), v.as_ref()?)))
    }

    /// The values, in id order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots.iter().flatten()
    }
}

impl<K: DenseId, V> Default for IdTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: DenseId, V> std::ops::Index<&K> for IdTable<K, V> {
    type Output = V;

    /// # Panics
    ///
    /// Panics if `key` has no value, as a map's index does.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("IdTable has no entry for this id")
    }
}

impl<K: DenseId + fmt::Debug, V: fmt::Debug> fmt::Debug for IdTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Multiply-rotate hasher (rustc's FxHash scheme) for keys that come
/// from the program or its logs, never from an adversary: it costs a
/// multiply per word where the default SipHash costs a keyed round
/// function, and HashDoS resistance buys nothing here.
#[derive(Default)]
pub struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

impl FxHasher {
    fn mix(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A [`HashMap`] hashed by [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_grows_and_counts_each_key_once() {
        let mut t: IdTable<ExprId, u32> = IdTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(ExprId(5), 1), None);
        assert_eq!(t.insert(ExprId(5), 2), Some(1));
        assert_eq!(t.insert(ExprId(0), 3), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(ExprId(0), &3), (ExprId(5), &2)]);
        assert_eq!(t.values().copied().collect::<Vec<_>>(), vec![3, 2]);
        assert!(t.contains_key(&ExprId(5)) && !t.contains_key(&ExprId(4)));
    }
}
