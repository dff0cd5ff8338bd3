//! Dense fixed-capacity bit sets and bit matrices.

/// A bit set over indices `0..capacity`: membership, removal and
/// ascending iteration.
///
/// Used for loop bodies, coloring's split regions, liveness's worklist
/// and range construction's running live set, which is reloaded from a
/// [`BitMatrix`] row with [`BitSet::copy_from_row`].
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics when `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        old & (1 << b) == 0
    }

    /// Removes `i`; returns whether it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] &= !(1 << b);
        old & (1 << b) != 0
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Makes `self` the set over `0..capacity` whose words are `words`
    /// (one row of a [`BitMatrix`]), reusing the existing word buffer: a
    /// set recycled across many rows only allocates when it grows past
    /// its largest capacity so far.
    pub fn copy_from_row(&mut self, capacity: usize, words: &[u64]) {
        debug_assert_eq!(words.len(), capacity.div_ceil(64));
        self.words.resize(words.len(), 0);
        self.words.copy_from_slice(words);
        self.capacity = capacity;
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter::new(&self.words)
    }
}

/// Iterator over the set bits of a word slice (a [`BitSet`] or one
/// [`BitMatrix`] row), in increasing order.
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> Iter<'a> {
    fn new(words: &'a [u64]) -> Self {
        Iter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A `rows × cols` bit matrix in one allocation: row `r` is the set of
/// column indices `0..cols` in the `⌈cols/64⌉` words starting at
/// `r * ⌈cols/64⌉`. Liveness keeps one per-block table of virtual
/// registers in each.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMatrix {
    words: Vec<u64>,
    cols: usize,
    stride: usize,
}

impl BitMatrix {
    /// An all-zero matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64);
        BitMatrix {
            words: vec![0; rows * stride],
            cols,
            stride,
        }
    }

    /// Number of columns (the capacity of each row).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The words of row `r`.
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// The words of row `r`, mutably. Bits at or above [`BitMatrix::cols`]
    /// must stay clear.
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Sets bit `(r, c)`; returns whether it was newly set.
    ///
    /// # Panics
    ///
    /// Panics when `c >= cols`.
    pub fn insert(&mut self, r: usize, c: usize) -> bool {
        assert!(c < self.cols, "bit {c} out of capacity {}", self.cols);
        let w = &mut self.words[r * self.stride + c / 64];
        let old = *w;
        *w |= 1 << (c % 64);
        old != *w
    }

    /// Whether bit `(r, c)` is set.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        c < self.cols && self.words[r * self.stride + c / 64] & (1 << (c % 64)) != 0
    }

    /// Iterates over the set columns of row `r` in increasing order.
    pub fn iter_row(&self, r: usize) -> Iter<'_> {
        Iter::new(self.row(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports no change");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn iterator_crosses_word_boundaries() {
        let mut s = BitSet::new(200);
        for i in [0, 63, 64, 127, 128, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 199]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_capacity_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn copy_from_matches_clone_across_capacities() {
        let mut scratch = BitSet::new(0);
        for cap in [3usize, 130, 64, 0, 65] {
            let mut src = BitSet::new(cap);
            for i in (0..cap).step_by(3) {
                src.insert(i);
            }
            scratch.copy_from_row(src.capacity, &src.words);
            assert_eq!(scratch, src, "cap {cap}");
            assert_eq!(scratch.capacity(), cap);
        }
        // The recycled set is fully functional after shrinking.
        let mut small = BitSet::new(2);
        small.insert(1);
        scratch.copy_from_row(small.capacity, &small.words);
        assert!(scratch.insert(0));
        assert_eq!(scratch.iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn matrix_rows_are_independent_sets() {
        let mut m = BitMatrix::new(3, 70);
        assert!(m.insert(0, 69));
        assert!(!m.insert(0, 69), "second insert reports no change");
        m.insert(2, 0);
        m.insert(2, 64);
        assert!(m.contains(0, 69) && !m.contains(1, 69));
        assert!(!m.contains(2, 70), "out of capacity reads as absent");
        assert_eq!(m.iter_row(2).collect::<Vec<_>>(), vec![0, 64]);
        assert_eq!(m.iter_row(1).count(), 0);
        let mut s = BitSet::new(0);
        s.copy_from_row(m.cols(), m.row(2));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64]);
        assert_eq!(s.capacity(), 70);
        assert_eq!(BitMatrix::new(2, 0).iter_row(1).count(), 0);
    }

    #[test]
    fn empty_set_behaviour() {
        let mut s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0) && !s.remove(0));
    }
}
