//! Sets of variables, in two representations.
//!
//! The paper's §7 observes that "using bit-mask representations for sets
//! of variables (as opposed to a list structure) can have a large
//! payoff" for the debugging-phase algorithms. Both representations are
//! provided behind the [`VarSetRepr`] trait; the dataflow framework and
//! the race detector are generic over it, and experiment **E5** measures
//! the payoff. [`VarSet`] is the default (bit-mask) choice.

use ppd_lang::VarId;
use std::fmt;

/// Common interface of the two variable-set representations.
///
/// A set is created against a *universe size* (the program's variable
/// count); inserting an id at or above the universe size is a bug in the
/// caller and may panic.
///
/// # Examples
///
/// ```
/// use ppd_analysis::{BitVarSet, ListVarSet, VarSetRepr};
/// use ppd_lang::VarId;
///
/// fn conflict<S: VarSetRepr>(mut writes: S, reads: S) -> bool {
///     writes.insert(VarId(3));
///     writes.intersects(&reads)
/// }
///
/// let reads = BitVarSet::from_iter(8, [VarId(3), VarId(5)]);
/// assert!(conflict(BitVarSet::empty(8), reads));
/// let reads = ListVarSet::from_iter(8, [VarId(4)]);
/// assert!(!conflict(ListVarSet::empty(8), reads));
/// ```
pub trait VarSetRepr: Clone + PartialEq + fmt::Debug {
    /// An empty set over a universe of `universe` variables.
    fn empty(universe: usize) -> Self;

    /// Inserts `v`; returns `true` if it was not already present.
    fn insert(&mut self, v: VarId) -> bool;

    /// Removes `v`; returns `true` if it was present.
    fn remove(&mut self, v: VarId) -> bool;

    /// Membership test.
    fn contains(&self, v: VarId) -> bool;

    /// Unions `other` into `self`; returns `true` if `self` changed.
    fn union_with(&mut self, other: &Self) -> bool;

    /// Removes every element of `other` from `self`.
    fn subtract(&mut self, other: &Self);

    /// Whether the two sets share any element — the heart of the
    /// race-freedom check (Definition 6.3).
    fn intersects(&self, other: &Self) -> bool;

    /// Number of elements.
    fn len(&self) -> usize;

    /// Whether the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements in ascending order.
    fn to_vec(&self) -> Vec<VarId>;

    /// Builds a set from an iterator of ids.
    fn from_iter<I: IntoIterator<Item = VarId>>(universe: usize, iter: I) -> Self {
        let mut s = Self::empty(universe);
        for v in iter {
            s.insert(v);
        }
        s
    }
}

/// Bit-mask representation: one bit per variable in the universe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVarSet {
    words: Vec<u64>,
    len: usize,
}

impl BitVarSet {
    fn slot(v: VarId) -> (usize, u64) {
        ((v.0 / 64) as usize, 1u64 << (v.0 % 64))
    }
}

impl VarSetRepr for BitVarSet {
    fn empty(universe: usize) -> Self {
        BitVarSet { words: vec![0; universe.div_ceil(64)], len: 0 }
    }

    fn insert(&mut self, v: VarId) -> bool {
        let (w, m) = Self::slot(v);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & m == 0;
        self.words[w] |= m;
        if fresh {
            self.len += 1;
        }
        fresh
    }

    fn remove(&mut self, v: VarId) -> bool {
        let (w, m) = Self::slot(v);
        if w >= self.words.len() || self.words[w] & m == 0 {
            return false;
        }
        self.words[w] &= !m;
        self.len -= 1;
        true
    }

    fn contains(&self, v: VarId) -> bool {
        let (w, m) = Self::slot(v);
        self.words.get(w).is_some_and(|word| word & m != 0)
    }

    fn union_with(&mut self, other: &Self) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (dst, src) in self.words.iter_mut().zip(&other.words) {
            let next = *dst | *src;
            if next != *dst {
                changed = true;
                *dst = next;
            }
        }
        if changed {
            self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
        }
        changed
    }

    fn subtract(&mut self, other: &Self) {
        for (dst, src) in self.words.iter_mut().zip(&other.words) {
            *dst &= !*src;
        }
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    fn intersects(&self, other: &Self) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn to_vec(&self) -> Vec<VarId> {
        let mut out = Vec::with_capacity(self.len);
        for (wi, word) in self.words.iter().enumerate() {
            let mut w = *word;
            while w != 0 {
                let bit = w.trailing_zeros();
                out.push(VarId(wi as u32 * 64 + bit));
                w &= w - 1;
            }
        }
        out
    }
}

/// Sorted-list representation: the "list structure" baseline of §7.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ListVarSet {
    items: Vec<VarId>,
}

impl VarSetRepr for ListVarSet {
    fn empty(_universe: usize) -> Self {
        ListVarSet { items: Vec::new() }
    }

    fn insert(&mut self, v: VarId) -> bool {
        match self.items.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, v);
                true
            }
        }
    }

    fn remove(&mut self, v: VarId) -> bool {
        match self.items.binary_search(&v) {
            Ok(pos) => {
                self.items.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    fn contains(&self, v: VarId) -> bool {
        self.items.binary_search(&v).is_ok()
    }

    fn union_with(&mut self, other: &Self) -> bool {
        if other.items.is_empty() {
            return false;
        }
        let mut merged = Vec::with_capacity(self.items.len() + other.items.len());
        let (mut i, mut j) = (0, 0);
        let mut changed = false;
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.items[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.items[j]);
                    j += 1;
                    changed = true;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(self.items[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.items[i..]);
        if j < other.items.len() {
            merged.extend_from_slice(&other.items[j..]);
            changed = true;
        }
        self.items = merged;
        changed
    }

    fn subtract(&mut self, other: &Self) {
        self.items.retain(|v| !other.contains(*v));
    }

    fn intersects(&self, other: &Self) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn to_vec(&self) -> Vec<VarId> {
        self.items.clone()
    }
}

/// The default variable-set representation (bit-mask, per the paper's §7
/// recommendation).
pub type VarSet = BitVarSet;

impl fmt::Display for BitVarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.to_vec().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<S: VarSetRepr>() {
        let mut a = S::empty(200);
        assert!(a.is_empty());
        assert!(a.insert(VarId(3)));
        assert!(a.insert(VarId(150)));
        assert!(!a.insert(VarId(3)));
        assert_eq!(a.len(), 2);
        assert!(a.contains(VarId(3)));
        assert!(!a.contains(VarId(4)));
        assert_eq!(a.to_vec(), vec![VarId(3), VarId(150)]);

        let mut b = S::empty(200);
        b.insert(VarId(4));
        b.insert(VarId(150));
        assert!(a.intersects(&b));
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.to_vec(), vec![VarId(3), VarId(4), VarId(150)]);

        a.subtract(&b);
        assert_eq!(a.to_vec(), vec![VarId(3)]);
        assert!(!a.intersects(&b));

        assert!(a.remove(VarId(3)));
        assert!(!a.remove(VarId(3)));
        assert!(a.is_empty());
    }

    #[test]
    fn bitset_ops() {
        exercise::<BitVarSet>();
    }

    #[test]
    fn listset_ops() {
        exercise::<ListVarSet>();
    }

    #[test]
    fn bitset_grows_past_universe() {
        let mut s = BitVarSet::empty(1);
        assert!(s.insert(VarId(500)));
        assert!(s.contains(VarId(500)));
    }

    #[test]
    fn representations_agree_on_random_ops() {
        // Deterministic pseudo-random op sequence (no external RNG needed).
        let mut bit = BitVarSet::empty(128);
        let mut list = ListVarSet::empty(128);
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = VarId((x >> 33) as u32 % 128);
            match (x >> 20) % 3 {
                0 => assert_eq!(bit.insert(v), list.insert(v)),
                1 => assert_eq!(bit.remove(v), list.remove(v)),
                _ => assert_eq!(bit.contains(v), list.contains(v)),
            }
            assert_eq!(bit.len(), list.len());
        }
        assert_eq!(bit.to_vec(), list.to_vec());
    }

    #[test]
    fn display_is_readable() {
        let mut s = BitVarSet::empty(8);
        s.insert(VarId(1));
        s.insert(VarId(5));
        assert_eq!(s.to_string(), "{var#1, var#5}");
    }
}
