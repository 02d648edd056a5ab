//! Small-vector storage for the hot-path sets and tables of the
//! coordination protocols.
//!
//! Every coordination round keeps a handful of per-participant facts: the
//! *live member set* it ranges over (membership view, signalling group,
//! exit group), and what each member said (the signalling announcements,
//! the exit votes, the resolver's `LE` list). With `Vec` or a tree map
//! every round of every frame is a heap allocation — or several — on the
//! execute hot path. Group sizes are tiny — the scenario model tops out
//! well below a dozen participants — so [`InlineVec`] keeps up to `N`
//! elements inline in its owner and only spills to a heap `Vec` beyond
//! that. The spill path keeps full `Vec` semantics, so correctness never
//! depends on the inline capacity; `N` is purely a performance knob.
//!
//! The type is deliberately minimal: elements need `Default` (an unused
//! inline slot holds one, which is what keeps the whole type in safe
//! code), the handful of mutators the round arithmetic needs (`push`,
//! `insert`, `retain`, `dedup`, `extend_from_slice`, `clear`), and `Deref`
//! to a slice for everything else — sorting, searching, iteration. A
//! table keyed by member is a vector of `(key, value)` pairs searched
//! through the slice (linearly, or by `binary_search_by_key` when kept
//! sorted with [`InlineVec::insert`]): at these sizes that beats any tree
//! or hash. It is **not** a general-purpose `smallvec` replacement.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A vector that stores up to `N` elements inline.
///
/// Elements may own heap data (a shared member list, say): a slot
/// that stops being live is reset to `T::default()`, so nothing an element
/// owns outlives its removal.
///
/// # Examples
///
/// ```
/// use caa_core::inline::InlineVec;
///
/// let mut v: InlineVec<u32, 4> = InlineVec::new();
/// v.push(3);
/// v.extend_from_slice(&[1, 2]);
/// v.sort_unstable();
/// assert_eq!(&v[..], &[1, 2, 3]);
///
/// // Exceeding the inline capacity spills to the heap transparently.
/// v.extend_from_slice(&[4, 5, 6]);
/// assert_eq!(v.len(), 6);
///
/// // A small table keyed by its first component, kept sorted.
/// let mut table: InlineVec<(u32, String), 4> = InlineVec::new();
/// for (key, value) in [(7, "g"), (2, "b"), (5, "e")] {
///     let at = table.binary_search_by_key(&key, |(k, _)| *k).unwrap_err();
///     table.insert(at, (key, value.to_owned()));
/// }
/// assert_eq!(table.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [2, 5, 7]);
/// ```
#[derive(Clone)]
pub struct InlineVec<T: Default, const N: usize> {
    /// Number of live elements. When `heap` is empty they live in
    /// `inline[..len]`; once spilled, `heap.len() == len` and `inline` is
    /// dead storage. Slots of `inline` that are not live hold
    /// `T::default()`.
    len: usize,
    inline: [T; N],
    heap: Vec<T>,
}

impl<T: Default, const N: usize> InlineVec<T, N> {
    /// An empty vector (no heap allocation).
    #[must_use]
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            inline: std::array::from_fn(|_| T::default()),
            heap: Vec::new(),
        }
    }

    /// Clones `slice` into a fresh vector (inline when it fits).
    #[must_use]
    pub fn from_slice(slice: &[T]) -> Self
    where
        T: Clone,
    {
        let mut v = InlineVec::new();
        v.extend_from_slice(slice);
        v
    }

    /// Number of elements.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the elements have spilled to the heap.
    #[must_use]
    pub fn spilled(&self) -> bool {
        !self.heap.is_empty()
    }

    /// The elements as a slice.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        if self.heap.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }

    /// The elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.heap.is_empty() {
            &mut self.inline[..self.len]
        } else {
            &mut self.heap
        }
    }

    /// Removes every element (keeps any heap capacity for reuse).
    pub fn clear(&mut self) {
        self.truncate_inline(0);
        self.heap.clear();
    }

    /// Appends one element, spilling to the heap at `N + 1` elements.
    pub fn push(&mut self, value: T) {
        if self.heap.is_empty() && self.len < N {
            self.inline[self.len] = value;
        } else {
            self.spill();
            self.heap.push(value);
        }
        self.len += 1;
    }

    /// Inserts `value` at `index`, shifting the elements after it — with a
    /// binary search for `index`, how a table stays sorted by key.
    ///
    /// # Panics
    ///
    /// If `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        assert!(index <= self.len, "insertion index out of bounds");
        self.push(value);
        self.as_mut_slice()[index..].rotate_right(1);
    }

    /// Appends a clone of every element of `slice`.
    pub fn extend_from_slice(&mut self, slice: &[T])
    where
        T: Clone,
    {
        if self.heap.is_empty() && self.len + slice.len() <= N {
            self.inline[self.len..self.len + slice.len()].clone_from_slice(slice);
        } else {
            self.spill();
            self.heap.extend_from_slice(slice);
        }
        self.len += slice.len();
    }

    /// Keeps only the elements for which `keep` returns true, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        if self.heap.is_empty() {
            let mut write = 0;
            for read in 0..self.len {
                if keep(&self.inline[read]) {
                    self.inline.swap(write, read);
                    write += 1;
                }
            }
            self.truncate_inline(write);
        } else {
            self.heap.retain(|v| keep(v));
            self.len = self.heap.len();
        }
    }

    /// Removes consecutive duplicates (call after `sort_unstable` for a
    /// set-like dedup).
    pub fn dedup(&mut self)
    where
        T: PartialEq,
    {
        if self.heap.is_empty() {
            let mut write = 0;
            for read in 0..self.len {
                if write == 0 || self.inline[write - 1] != self.inline[read] {
                    self.inline.swap(write, read);
                    write += 1;
                }
            }
            self.truncate_inline(write);
        } else {
            self.heap.dedup();
            self.len = self.heap.len();
        }
    }

    /// Shortens the inline part to `len` elements, resetting the slots
    /// that stop being live so that nothing they own lingers.
    fn truncate_inline(&mut self, len: usize) {
        if self.heap.is_empty() {
            for slot in &mut self.inline[len..self.len] {
                *slot = T::default();
            }
        }
        self.len = len;
    }

    /// Moves the inline elements into the heap `Vec` (no-op once spilled).
    fn spill(&mut self) {
        if self.heap.is_empty() && self.len > 0 {
            self.heap.reserve(self.len + 1);
            self.heap
                .extend(self.inline[..self.len].iter_mut().map(std::mem::take));
        }
    }
}

impl<T: Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Default, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        v.extend(iter);
        v
    }
}

impl<'a, T: Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.spilled());
        assert_eq!(&v[..], &[0, 1, 2, 3]);
        v.push(4);
        assert!(v.spilled());
        assert_eq!(&v[..], &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn from_slice_and_extend() {
        let mut v: InlineVec<u32, 3> = InlineVec::from_slice(&[5, 6]);
        assert!(!v.spilled());
        v.extend_from_slice(&[7, 8]);
        assert!(v.spilled());
        assert_eq!(&v[..], &[5, 6, 7, 8]);
        // Extending an already-spilled vector appends on the heap.
        v.extend_from_slice(&[9]);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn retain_inline_and_spilled() {
        let mut v: InlineVec<u32, 8> = InlineVec::from_slice(&[1, 2, 3, 4, 5]);
        v.retain(|&x| x % 2 == 1);
        assert_eq!(&v[..], &[1, 3, 5]);
        let mut big: InlineVec<u32, 2> = InlineVec::from_slice(&[1, 2, 3, 4, 5]);
        assert!(big.spilled());
        big.retain(|&x| x > 2);
        assert_eq!(&big[..], &[3, 4, 5]);
    }

    #[test]
    fn sort_and_dedup_like_a_set() {
        let mut v: InlineVec<u32, 8> = InlineVec::from_slice(&[3, 1, 3, 2, 1]);
        v.sort_unstable();
        v.dedup();
        assert_eq!(&v[..], &[1, 2, 3]);
        let mut big: InlineVec<u32, 2> = InlineVec::from_slice(&[3, 1, 3, 2, 1]);
        big.sort_unstable();
        big.dedup();
        assert_eq!(&big[..], &[1, 2, 3]);
    }

    #[test]
    fn clear_empties_without_losing_heap_capacity() {
        let mut v: InlineVec<u32, 2> = InlineVec::from_slice(&[1, 2, 3]);
        v.clear();
        assert!(v.is_empty());
        v.push(9);
        assert_eq!(&v[..], &[9]);
    }

    #[test]
    fn insert_keeps_a_table_sorted_inline_and_spilled() {
        let mut table: InlineVec<(u32, &str), 3> = InlineVec::new();
        for (key, value) in [(5, "e"), (1, "a"), (9, "i"), (3, "c"), (7, "g")] {
            let at = table
                .binary_search_by_key(&key, |(k, _)| *k)
                .expect_err("distinct keys");
            table.insert(at, (key, value));
        }
        assert!(table.spilled());
        assert_eq!(
            &table[..],
            &[(1, "a"), (3, "c"), (5, "e"), (7, "g"), (9, "i")]
        );
        let mut ends: InlineVec<u32, 4> = InlineVec::from_slice(&[2]);
        ends.insert(0, 1);
        ends.insert(2, 3);
        assert_eq!(&ends[..], &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "insertion index out of bounds")]
    fn insert_past_the_end_panics() {
        let mut v: InlineVec<u32, 4> = InlineVec::from_slice(&[1]);
        v.insert(2, 9);
    }

    #[test]
    fn elements_that_own_heap_data_are_released_when_removed() {
        use std::rc::Rc;
        // `Option<Rc<_>>` is `Default` but not `Copy`: the strong count
        // shows whether a removed element still sits in a dead slot.
        let token = Rc::new(());
        let held =
            |n: usize| -> Vec<Option<Rc<()>>> { (0..n).map(|_| Some(Rc::clone(&token))).collect() };
        let mut v: InlineVec<Option<Rc<()>>, 4> = InlineVec::from_slice(&held(4));
        assert!(!v.spilled());
        assert_eq!(Rc::strong_count(&token), 5);
        let mut keep = [true, false, true, false].into_iter();
        v.retain(|_| keep.next().expect("four elements"));
        assert_eq!((v.len(), Rc::strong_count(&token)), (2, 3));
        v.dedup();
        assert_eq!((v.len(), Rc::strong_count(&token)), (1, 2));
        v.clear();
        assert_eq!(Rc::strong_count(&token), 1);
        // Spilling moves the elements out of the inline slots, and a
        // clone owns its own references.
        v.extend_from_slice(&held(5));
        assert!(v.spilled());
        assert_eq!(Rc::strong_count(&token), 6);
        let copy = v.clone();
        assert_eq!(Rc::strong_count(&token), 11);
        drop(copy);
        v.clear();
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn equality_and_iteration() {
        let a: InlineVec<u32, 4> = InlineVec::from_slice(&[1, 2]);
        let b: InlineVec<u32, 1> = InlineVec::from_slice(&[1, 2]);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(a.as_slice(), b.as_slice());
        let c: InlineVec<u32, 4> = [2u32, 1].into_iter().collect();
        assert_eq!(c.len(), 2);
    }
}
