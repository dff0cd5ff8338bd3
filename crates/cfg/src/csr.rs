//! Compressed sparse rows: a table of variable-length rows in two
//! allocations.

/// Rows of `T` stored back to back: row `r` is `items[at[r]..at[r + 1]]`.
///
/// The CFG keeps its successor and predecessor lists in one each, and
/// range construction its per-range blocks, spanned calls and
/// interference neighbours. A table costs two allocations however many
/// rows it has, and its size follows its contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr<T> {
    at: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Builds `rows` rows from the `(row, item)` pairs that `emit_all`
    /// passes to its emitter. `emit_all` runs twice and must emit the same
    /// pairs both times: once to size the rows, once to fill them. Each
    /// row keeps its items in emission order. `fill` only initializes the
    /// storage; every slot is overwritten.
    pub fn build(rows: usize, fill: T, mut emit_all: impl FnMut(&mut dyn FnMut(usize, T))) -> Self {
        let mut at = vec![0u32; rows + 1];
        emit_all(&mut |r, _| at[r + 1] += 1);
        for r in 0..rows {
            at[r + 1] += at[r];
        }
        // `at[r]` serves as row `r`'s fill cursor and ends at the row's
        // end, which is row `r + 1`'s start: one rotation restores the
        // starts.
        let mut items = vec![fill; at[rows] as usize];
        emit_all(&mut |r, x| {
            items[at[r] as usize] = x;
            at[r] += 1;
        });
        at.rotate_right(1);
        at[0] = 0;
        Csr { at, items }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.at.len() - 1
    }

    /// Total items over all rows.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether every row is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Row `r`.
    pub fn row(&self, r: usize) -> &[T] {
        &self.items[self.at[r] as usize..self.at[r + 1] as usize]
    }

    /// Offset of row `r`'s first item among all items, row after row;
    /// `offset(rows())` is [`Csr::len`]. Parallel per-item tables index
    /// by it.
    pub fn offset(&self, r: usize) -> usize {
        self.at[r] as usize
    }
}

impl<T: Copy + Ord> Csr<T> {
    /// Sorts every row ascending and removes repeated items, compacting
    /// the table in place.
    pub fn sort_dedup_rows(&mut self) {
        let mut write = 0;
        let mut start = 0;
        for r in 0..self.rows() {
            let end = self.at[r + 1] as usize;
            self.items[start..end].sort_unstable();
            let row_start = write;
            for i in start..end {
                let x = self.items[i];
                if write == row_start || self.items[write - 1] != x {
                    self.items[write] = x;
                    write += 1;
                }
            }
            self.at[r + 1] = write as u32;
            start = end;
        }
        self.items.truncate(write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_emission_order() {
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (3, 'd'), (0, 'e')];
        let t = Csr::build(4, ' ', |emit| {
            for &(r, x) in &pairs {
                emit(r, x);
            }
        });
        assert_eq!(t.rows(), 4);
        assert_eq!(t.row(0), &['b', 'e']);
        assert!(t.row(1).is_empty());
        assert_eq!(t.row(2), &['a', 'c']);
        assert_eq!(t.row(3), &['d']);
        assert_eq!(t.len(), 5);
        assert_eq!((t.offset(2), t.offset(4)), (2, 5));
    }

    #[test]
    fn sort_dedup_compacts_each_row() {
        let pairs = [(1, 5), (0, 3), (1, 2), (0, 3), (1, 5), (1, 2), (2, 9)];
        let mut t = Csr::build(4, 0u32, |emit| {
            for &(r, x) in &pairs {
                emit(r, x);
            }
        });
        t.sort_dedup_rows();
        assert_eq!(t.row(0), &[3]);
        assert_eq!(t.row(1), &[2, 5]);
        assert_eq!(t.row(2), &[9]);
        assert!(t.row(3).is_empty());
        assert_eq!((t.len(), t.offset(2)), (4, 3), "duplicates are dropped");
    }

    #[test]
    fn empty_table() {
        let t = Csr::build(0, 0u8, |_| {});
        assert_eq!(t.rows(), 0);
        assert!(t.is_empty());
    }
}
