//! A small fixed-capacity bitset used for descendant sets.
//!
//! Resolution asks, for many candidate nodes, "does this node's descendant
//! set include every raised exception?". Precomputing each node's descendant
//! set as a bitset turns that into a handful of word operations.

use caa_core::inline::InlineVec;

/// Fixed-capacity bitset over node indices: the words of a graph of up to
/// 128 nodes are inline, so the target set of a resolution is made on the
/// stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: InlineVec<u64, 2>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty bitset able to hold `capacity` bits.
    pub(crate) fn new(capacity: usize) -> Self {
        BitSet {
            words: std::iter::repeat_n(0, capacity.div_ceil(64)).collect(),
            capacity,
        }
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub(crate) fn insert(&mut self, i: usize) {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Whether bit `i` is set.
    pub(crate) fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Unions `other` into `self`.
    pub(crate) fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Whether every bit of `other` is also set in `self`.
    pub(crate) fn is_superset_of(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(w, o)| w & o == *o)
    }

    /// Number of set bits.
    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w & (1u64 << b) != 0)
                .map(move |b| wi * 64 + b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        for i in [0, 63, 64, 129] {
            assert!(s.contains(i));
        }
        assert!(!s.contains(1));
        assert!(!s.contains(128));
        assert!(!s.contains(500)); // out of range is simply absent
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn union_and_superset() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(3);
        b.insert(70);
        assert!(!a.is_superset_of(&b));
        a.union_with(&b);
        assert!(a.is_superset_of(&b));
        assert!(a.contains(3) && a.contains(70));
    }

    #[test]
    fn iter_ascending() {
        let mut s = BitSet::new(200);
        for i in [5, 64, 65, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 64, 65, 199]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        let mut s = BitSet::new(10);
        s.insert(10);
    }
}
