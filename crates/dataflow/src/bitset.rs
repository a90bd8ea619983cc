//! A dense, fixed-capacity bit set packed into 64-bit words, plus the
//! word-slice "row kernels" shared with [`BitMatrix`](crate::BitMatrix).
//!
//! The kernels operate on bare `&[u64]` rows so a [`BitSet`] and a
//! [`BitMatrix`](crate::BitMatrix) row are interchangeable operands: both
//! maintain the *trailing-bit hygiene* invariant (all bits at positions
//! `>= nbits` in the last word are zero), which the kernels preserve —
//! union/intersection/difference/copy of trimmed rows are trimmed — so
//! `count()`/`is_empty()` can never drift.

use std::fmt;

pub(crate) const WORD_BITS: usize = 64;

/// The shared body of the fused row kernels: applies `op` word-wise over
/// equal-length rows, four words per iteration with a scalar tail, and
/// accumulates an XOR-based difference mask instead of a per-word boolean.
/// The fixed-width inner loop is branch-free and independent across lanes,
/// the shape LLVM autovectorizes on stable without any explicit SIMD.
///
/// # Panics
///
/// Panics if the rows have different lengths.
#[inline(always)]
fn zip_rows_changed(dst: &mut [u64], src: &[u64], op: impl Fn(u64, u64) -> u64) -> bool {
    assert_eq!(dst.len(), src.len(), "row length mismatch");
    let mut diff = 0u64;
    let mut dst_chunks = dst.chunks_exact_mut(4);
    let mut src_chunks = src.chunks_exact(4);
    for (d, s) in (&mut dst_chunks).zip(&mut src_chunks) {
        for i in 0..4 {
            let new = op(d[i], s[i]);
            diff |= new ^ d[i];
            d[i] = new;
        }
    }
    for (a, &b) in dst_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        let new = op(*a, b);
        diff |= new ^ *a;
        *a = new;
    }
    diff != 0
}

/// The row width, in words, from which a universe counts as wide
/// (≥ 2048 bits). No kernel branches on it: every row takes the 4-word
/// unroll above. Its only use is the benchmark's `dataflow.wide_row_fns`
/// counter, which reports how many functions reach this width.
pub const WIDE_ROW_WORDS: usize = 32;

/// `dst ∪= src` over equal-length word rows; returns `true` if `dst`
/// changed.
///
/// # Panics
///
/// Panics if the rows have different lengths.
#[inline]
pub fn union_rows(dst: &mut [u64], src: &[u64]) -> bool {
    zip_rows_changed(dst, src, |a, b| a | b)
}

/// `dst ∩= src` over equal-length word rows; returns `true` if `dst`
/// changed.
///
/// # Panics
///
/// Panics if the rows have different lengths.
#[inline]
pub fn intersect_rows(dst: &mut [u64], src: &[u64]) -> bool {
    zip_rows_changed(dst, src, |a, b| a & b)
}

/// `dst −= src` over equal-length word rows; returns `true` if `dst`
/// changed.
///
/// # Panics
///
/// Panics if the rows have different lengths.
#[inline]
pub fn difference_rows(dst: &mut [u64], src: &[u64]) -> bool {
    zip_rows_changed(dst, src, |a, b| a & !b)
}

/// Overwrites `dst` with `src`, reporting word-granular whether anything
/// actually changed — the dirty-detection primitive of the fused solver.
///
/// # Panics
///
/// Panics if the rows have different lengths.
#[inline]
pub fn copy_row_changed(dst: &mut [u64], src: &[u64]) -> bool {
    zip_rows_changed(dst, src, |_, b| b)
}

/// Tests membership of `bit` in a word row (callers guarantee
/// `bit < nbits`; hygiene keeps padding bits zero so an in-row but
/// out-of-universe probe cannot report a phantom member).
///
/// # Panics
///
/// Panics if `bit` lies beyond the row's word storage.
#[inline]
pub fn row_contains(row: &[u64], bit: usize) -> bool {
    row[bit / WORD_BITS] & (1 << (bit % WORD_BITS)) != 0
}

/// Returns `true` if no bit is set in the row.
#[inline]
pub fn row_is_empty(row: &[u64]) -> bool {
    row.iter().all(|&w| w == 0)
}

/// Counts the set bits in the row.
#[inline]
pub fn count_row(row: &[u64]) -> usize {
    row.iter().map(|w| w.count_ones() as usize).sum()
}

/// Asserts (debug builds only) the trailing-bit hygiene invariant: every
/// bit at position `>= nbits` in the row is zero.
#[inline]
pub(crate) fn debug_assert_row_hygiene(row: &[u64], nbits: usize) {
    #[cfg(debug_assertions)]
    {
        let used = nbits % WORD_BITS;
        if used != 0 {
            if let Some(&last) = row.last() {
                debug_assert_eq!(
                    last & !((1u64 << used) - 1),
                    0,
                    "trailing-bit hygiene violated: bits above nbits={nbits} are set"
                );
            }
        }
        let _ = (row, nbits);
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (row, nbits);
    }
}

/// A word-skipping iterator over the set bits of a word row, in increasing
/// order. Zero words are skipped in one comparison each; within a nonzero
/// word, bits are extracted with `trailing_zeros` + clear-lowest-set-bit.
///
/// Shared by [`BitSet::iter`] and
/// [`BitMatrix::row_iter`](crate::BitMatrix::row_iter).
#[derive(Clone)]
pub struct BitIter<'a> {
    words: &'a [u64],
    next_word: usize,
    cur: u64,
    base: usize,
}

impl<'a> BitIter<'a> {
    /// Iterates the set bits of a raw word row.
    pub fn new(words: &'a [u64]) -> Self {
        BitIter {
            words,
            next_word: 0,
            cur: 0,
            base: 0,
        }
    }
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            let &w = self.words.get(self.next_word)?;
            self.cur = w;
            self.base = self.next_word * WORD_BITS;
            self.next_word += 1;
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.base + bit)
    }
}

/// A fixed-capacity set of small integers, stored one bit each.
///
/// All binary operations require both operands to have the same capacity
/// (the analyses always operate within one universe of expressions), and
/// mutating operations report whether they changed the set so fixpoint
/// solvers can detect convergence.
///
/// ```
/// use lcm_dataflow::BitSet;
///
/// let mut a = BitSet::new(130);
/// a.insert(0);
/// a.insert(129);
/// let mut b = BitSet::new(130);
/// b.insert(129);
/// assert!(a.is_superset(&b));
/// a.intersect_with(&b);
/// assert_eq!(a.iter().collect::<Vec<_>>(), vec![129]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    nbits: usize,
}

impl BitSet {
    /// Creates an empty set with capacity for bits `0..nbits`.
    pub fn new(nbits: usize) -> Self {
        BitSet {
            words: vec![0; nbits.div_ceil(WORD_BITS)],
            nbits,
        }
    }

    /// Creates a full set (all of `0..nbits` present).
    pub fn full(nbits: usize) -> Self {
        let mut s = Self::new(nbits);
        s.insert_all();
        s
    }

    /// The capacity in bits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// The number of backing words (the unit of the complexity counters).
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// The backing words as a row view, interchangeable with a
    /// [`BitMatrix`](crate::BitMatrix) row in the row kernels.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Builds a set of capacity `nbits` from a raw word row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match `nbits.div_ceil(64)`.
    pub fn from_row(row: &[u64], nbits: usize) -> Self {
        assert_eq!(row.len(), nbits.div_ceil(WORD_BITS), "row length mismatch");
        debug_assert_row_hygiene(row, nbits);
        BitSet {
            words: row.to_vec(),
            nbits,
        }
    }

    /// Resizes in place to capacity `nbits` and clears all bits, reusing
    /// the existing backing allocation whenever it is large enough.
    /// Returns `true` if the backing store had to grow (reallocate).
    pub fn reset(&mut self, nbits: usize) -> bool {
        let words = nbits.div_ceil(WORD_BITS);
        let grew = words > self.words.capacity();
        self.words.clear();
        self.words.resize(words, 0);
        self.nbits = nbits;
        grew
    }

    /// Tests membership.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= capacity`.
    #[inline]
    pub fn contains(&self, bit: usize) -> bool {
        assert!(bit < self.nbits, "bit {bit} out of range {}", self.nbits);
        self.words[bit / WORD_BITS] & (1 << (bit % WORD_BITS)) != 0
    }

    /// Inserts a bit; returns `true` if it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= capacity`.
    #[inline]
    pub fn insert(&mut self, bit: usize) -> bool {
        assert!(bit < self.nbits, "bit {bit} out of range {}", self.nbits);
        let word = &mut self.words[bit / WORD_BITS];
        let mask = 1 << (bit % WORD_BITS);
        let was_absent = *word & mask == 0;
        *word |= mask;
        was_absent
    }

    /// Removes a bit; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= capacity`.
    #[inline]
    pub fn remove(&mut self, bit: usize) -> bool {
        assert!(bit < self.nbits, "bit {bit} out of range {}", self.nbits);
        let word = &mut self.words[bit / WORD_BITS];
        let mask = 1 << (bit % WORD_BITS);
        let was_present = *word & mask != 0;
        *word &= !mask;
        was_present
    }

    /// Inserts every bit in `0..capacity`.
    pub fn insert_all(&mut self) {
        for w in &mut self.words {
            *w = !0;
        }
        self.trim();
        debug_assert_row_hygiene(&self.words, self.nbits);
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Returns `true` if no bits are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Counts the set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self ∪= other`; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        self.check(other);
        union_rows(&mut self.words, &other.words)
    }

    /// `self ∪= row` where `row` is a raw word row of the same width
    /// (typically a [`BitMatrix`](crate::BitMatrix) row); returns `true`
    /// if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from [`num_words`](Self::num_words).
    pub fn union_with_row(&mut self, row: &[u64]) -> bool {
        union_rows(&mut self.words, row)
    }

    /// `self ∩= other`; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        self.check(other);
        intersect_rows(&mut self.words, &other.words)
    }

    /// `self ∩= row` for a raw word row of the same width; returns `true`
    /// if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from [`num_words`](Self::num_words).
    pub fn intersect_with_row(&mut self, row: &[u64]) -> bool {
        intersect_rows(&mut self.words, row)
    }

    /// `self −= other` (clears every bit present in `other`); returns
    /// `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn difference_with(&mut self, other: &BitSet) -> bool {
        self.check(other);
        difference_rows(&mut self.words, &other.words)
    }

    /// `self −= row` for a raw word row of the same width; returns `true`
    /// if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from [`num_words`](Self::num_words).
    pub fn difference_with_row(&mut self, row: &[u64]) -> bool {
        difference_rows(&mut self.words, row)
    }

    /// Overwrites `self` with `other`'s contents.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn copy_from(&mut self, other: &BitSet) {
        self.check(other);
        self.words.copy_from_slice(&other.words);
    }

    /// Overwrites `self` with a raw word row of the same width.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from [`num_words`](Self::num_words).
    pub fn copy_from_row(&mut self, row: &[u64]) {
        self.words.copy_from_slice(row);
        debug_assert_row_hygiene(&self.words, self.nbits);
    }

    /// Overwrites `self` with `other`'s contents, reporting word-granular
    /// whether anything actually changed — the dirty-detection primitive
    /// the fused solver uses to skip transfers whose input is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn copy_from_changed(&mut self, other: &BitSet) -> bool {
        self.check(other);
        copy_row_changed(&mut self.words, &other.words)
    }

    /// Flips every bit in `0..capacity`.
    pub fn complement(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.trim();
        debug_assert_row_hygiene(&self.words, self.nbits);
    }

    /// Returns `true` if every bit of `other` is in `self`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn is_superset(&self, other: &BitSet) -> bool {
        self.check(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| b & !a == 0)
    }

    /// Returns `true` if the sets share no bit.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.check(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & b == 0)
    }

    /// Iterates over the set bits in increasing order, skipping zero words
    /// wholesale (shared with
    /// [`BitMatrix::row_iter`](crate::BitMatrix::row_iter)).
    pub fn iter(&self) -> BitIter<'_> {
        BitIter::new(&self.words)
    }

    #[inline]
    fn check(&self, other: &BitSet) {
        assert_eq!(
            self.nbits, other.nbits,
            "bit-set capacity mismatch: {} vs {}",
            self.nbits, other.nbits
        );
    }

    /// Clears padding bits beyond `nbits` in the last word.
    fn trim(&mut self) {
        let used = self.nbits % WORD_BITS;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSet{{")?;
        for (i, bit) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{bit}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects bits into a set sized to the largest element + 1.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let bits: Vec<usize> = iter.into_iter().collect();
        let nbits = bits.iter().max().map_or(0, |&m| m + 1);
        let mut s = BitSet::new(nbits);
        for b in bits {
            s.insert(b);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(100);
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(!s.insert(64));
        assert!(s.contains(63) && s.contains(64));
        assert!(!s.contains(65));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn contains_out_of_range_panics() {
        BitSet::new(10).contains(10);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn mismatched_capacity_panics() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(11);
        a.union_with(&b);
    }

    #[test]
    fn lattice_ops_report_changes() {
        let mut a = BitSet::new(70);
        a.insert(1);
        let mut b = BitSet::new(70);
        b.insert(1);
        b.insert(69);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.count(), 2);
        let only_one = [1usize].into_iter().collect::<BitSet>().resized(70);
        assert!(a.intersect_with(&only_one));
        assert!(!a.intersect_with(&only_one));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
    }

    impl BitSet {
        /// Test helper: returns a copy resized to `nbits`.
        fn resized(&self, nbits: usize) -> BitSet {
            let mut s = BitSet::new(nbits);
            for b in self.iter() {
                s.insert(b);
            }
            s
        }
    }

    #[test]
    fn full_and_complement_respect_capacity() {
        let mut s = BitSet::full(67);
        assert_eq!(s.count(), 67);
        s.complement();
        assert!(s.is_empty());
        s.complement();
        assert_eq!(s.count(), 67);
        assert_eq!(s.iter().last(), Some(66));
    }

    #[test]
    fn difference_superset_disjoint() {
        let a: BitSet = [1usize, 2, 3].into_iter().collect::<BitSet>().resized(10);
        let b: BitSet = [2usize].into_iter().collect::<BitSet>().resized(10);
        assert!(a.is_superset(&b));
        assert!(!b.is_superset(&a));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert!(d.is_disjoint(&b));
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let mut s = BitSet::new(200);
        for b in [0, 63, 64, 127, 128, 199] {
            s.insert(b);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 199]);
    }

    #[test]
    fn debug_format() {
        let mut s = BitSet::new(10);
        s.insert(3);
        s.insert(7);
        assert_eq!(format!("{s:?}"), "BitSet{3, 7}");
        assert_eq!(format!("{:?}", BitSet::new(4)), "BitSet{}");
    }

    #[test]
    fn copy_from_overwrites() {
        let mut a = BitSet::full(20);
        let b = BitSet::new(20);
        a.copy_from(&b);
        assert!(a.is_empty());
    }

    /// Test helper: the raw padding bits above `nbits` in the last word.
    fn padding_bits(s: &BitSet) -> u64 {
        let used = s.capacity() % WORD_BITS;
        if used == 0 {
            0
        } else {
            s.words().last().copied().unwrap_or(0) & !((1u64 << used) - 1)
        }
    }

    #[test]
    fn trailing_bits_stay_zero_after_complement_and_kernels() {
        // Odd capacity so the last word has 61 padding bits.
        let mut a = BitSet::full(67);
        let mut b = BitSet::new(67);
        b.insert(66);
        a.complement();
        assert_eq!(padding_bits(&a), 0);
        a.complement(); // full again
        assert_eq!(padding_bits(&a), 0);

        // Every row kernel on trimmed operands stays trimmed.
        let mut row = a.words().to_vec();
        assert!(!union_rows(&mut row, b.words()));
        assert_eq!(row.last().unwrap() & !((1u64 << 3) - 1), 0);
        assert!(intersect_rows(&mut row, b.words()));
        assert_eq!(row.last().unwrap() & !((1u64 << 3) - 1), 0);
        assert!(difference_rows(&mut row, b.words()));
        assert!(row_is_empty(&row));
        assert!(copy_row_changed(&mut row, a.words()));
        assert_eq!(count_row(&row), 67);
        assert_eq!(row.last().unwrap() & !((1u64 << 3) - 1), 0);

        // And the BitSet wrappers preserve count()/is_empty() honesty.
        a.intersect_with(&b);
        assert_eq!(a.count(), 1);
        a.difference_with(&b);
        assert!(a.is_empty());
        assert_eq!(padding_bits(&a), 0);
    }

    #[test]
    fn row_kernels_match_set_ops() {
        let a: BitSet = [1usize, 64, 66].into_iter().collect::<BitSet>().resized(70);
        let b: BitSet = [1usize, 2, 64].into_iter().collect::<BitSet>().resized(70);

        let mut via_set = a.clone();
        via_set.union_with(&b);
        let mut via_row = a.clone();
        assert!(via_row.union_with_row(b.words()));
        assert_eq!(via_set, via_row);

        let mut via_set = a.clone();
        via_set.intersect_with(&b);
        let mut via_row = a.clone();
        assert!(via_row.intersect_with_row(b.words()));
        assert_eq!(via_set, via_row);

        let mut via_set = a.clone();
        via_set.difference_with(&b);
        let mut via_row = a.clone();
        assert!(via_row.difference_with_row(b.words()));
        assert_eq!(via_set, via_row);

        let mut copied = BitSet::new(70);
        copied.copy_from_row(a.words());
        assert_eq!(copied, a);
        assert!(row_contains(a.words(), 66));
        assert!(!row_contains(a.words(), 2));
    }

    #[test]
    fn from_row_and_reset() {
        let a: BitSet = [0usize, 65].into_iter().collect::<BitSet>().resized(70);
        let round_trip = BitSet::from_row(a.words(), 70);
        assert_eq!(round_trip, a);

        let mut s = BitSet::full(128);
        assert!(!s.reset(64)); // shrink: reuses the allocation
        assert_eq!(s.capacity(), 64);
        assert!(s.is_empty());
        assert!(s.reset(1024)); // growth: must reallocate
        assert_eq!(s.num_words(), 16);
        assert!(s.is_empty());
    }

    #[test]
    fn word_skipping_iter_matches_naive_scan() {
        let mut s = BitSet::new(512);
        for b in [0, 1, 63, 64, 191, 448, 511] {
            s.insert(b);
        }
        let naive: Vec<usize> = (0..s.capacity()).filter(|&b| s.contains(b)).collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), naive);
        // All-zero middle words are skipped, not scanned bit-by-bit, but
        // the result is identical either way.
        assert_eq!(BitIter::new(s.words()).collect::<Vec<_>>(), naive);
        assert_eq!(BitIter::new(&[]).next(), None);
    }

    #[test]
    fn word_skipping_iter_matches_naive_on_random_universes() {
        // Property test over seeded random sets and matrix rows: the
        // word-skipping iterator agrees with the naive per-bit scan for
        // every capacity and density, including all-empty and all-full.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // splitmix64 — in-tree PRNG, no dependencies.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for trial in 0..200 {
            let nbits = (next() % 300 + 1) as usize;
            let mut s = BitSet::new(nbits);
            match trial % 5 {
                0 => {}              // empty
                1 => s.insert_all(), // full
                _ => {
                    // Random density in (0, 1).
                    let denom = next() % 7 + 2;
                    for b in 0..nbits {
                        if next() % denom == 0 {
                            s.insert(b);
                        }
                    }
                }
            }
            let naive: Vec<usize> = (0..nbits).filter(|&b| s.contains(b)).collect();
            assert_eq!(
                s.iter().collect::<Vec<_>>(),
                naive,
                "trial {trial}, nbits {nbits}"
            );
            assert_eq!(s.iter().count(), s.count(), "trial {trial}");
        }
    }

    #[test]
    fn unrolled_row_kernels_match_scalar_reference_across_odd_widths() {
        // Property test: the 4-words-per-iteration kernels agree with a
        // naive one-word-at-a-time reference — result *and* changed flag —
        // across row lengths around the unroll boundary (0..=11 words,
        // covering empty, tail-only, exact-multiple and mixed shapes).
        fn reference(dst: &mut [u64], src: &[u64], op: impl Fn(u64, u64) -> u64) -> bool {
            let mut changed = false;
            for (a, &b) in dst.iter_mut().zip(src) {
                let new = op(*a, b);
                changed |= new != *a;
                *a = new;
            }
            changed
        }
        type WordOp = fn(u64, u64) -> u64;
        type RowKernel = fn(&mut [u64], &[u64]) -> bool;
        let ops: [(&str, WordOp); 4] = [
            ("union", |a, b| a | b),
            ("intersect", |a, b| a & b),
            ("difference", |a, b| a & !b),
            ("copy", |_, b| b),
        ];
        let kernels: [RowKernel; 4] = [
            union_rows,
            intersect_rows,
            difference_rows,
            copy_row_changed,
        ];
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            // splitmix64 — in-tree PRNG, no dependencies.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let widths: Vec<usize> = (0..=11usize)
            // Wide universes (the benchmark's wide-row threshold ± 1) take
            // the same unroll.
            .chain([WIDE_ROW_WORDS - 1, WIDE_ROW_WORDS, WIDE_ROW_WORDS + 1])
            .collect();
        for words in widths {
            for trial in 0..50 {
                let src: Vec<u64> = (0..words).map(|_| next()).collect();
                let base: Vec<u64> = (0..words)
                    .map(|_| match trial % 4 {
                        0 => 0,
                        1 => !0,
                        _ => next(),
                    })
                    .collect();
                // Every trial also exercises the unchanged case.
                for same in [false, true] {
                    for ((name, op), kernel) in ops.iter().zip(kernels) {
                        let mut expect = base.clone();
                        let want = reference(&mut expect, &src, op);
                        let mut got = base.clone();
                        let flag = kernel(&mut got, &src);
                        assert_eq!(got, expect, "{name}, {words} words, trial {trial}");
                        assert_eq!(flag, want, "{name} changed flag, {words} words");
                        if same {
                            // Re-applying is idempotent and reports no change.
                            let flag2 = kernel(&mut got, &src);
                            let want2 = reference(&mut expect, &src, op);
                            assert_eq!(got, expect, "{name} idempotent, {words} words");
                            assert_eq!(flag2, want2, "{name} idempotent flag");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn unrolled_kernels_reject_mismatched_lengths() {
        let mut d = [0u64; 5];
        let _ = union_rows(&mut d, &[0u64; 4]);
    }

    #[test]
    fn copy_from_changed_detects_dirty_words() {
        let mut a = BitSet::new(130);
        let mut b = BitSet::new(130);
        b.insert(129);
        assert!(a.copy_from_changed(&b));
        assert!(!a.copy_from_changed(&b)); // now identical
        b.insert(0); // dirt in a different word
        assert!(a.copy_from_changed(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 129]);
    }
}
