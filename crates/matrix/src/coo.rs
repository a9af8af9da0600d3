use crate::{Dense, MatrixError, Result, Scalar};

/// Coordinate-format ("triplet") sparse matrix.
///
/// COO is the assembly format: generators and Matrix Market parsing produce
/// COO, which is then converted to CSR/CSC/BCSR/SMASH. Entries may be pushed
/// in any order; [`Coo::compress`] sorts them row-major and sums duplicates.
///
/// # Example
///
/// ```
/// use smash_matrix::Coo;
///
/// let mut m = Coo::<f64>::new(2, 2);
/// m.push(1, 1, 2.0);
/// m.push(0, 0, 1.0);
/// m.push(1, 1, 3.0); // duplicate, summed by compress()
/// m.compress();
/// assert_eq!(m.entries(), &[(0, 0, 1.0), (1, 1, 5.0)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Coo<T> {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, T)>,
    compressed: bool,
}

/// Whether a dimension of `n` rows or columns has every index in `u32`
/// range, the index width of every format.
pub(crate) fn dim_fits_u32(n: usize) -> bool {
    n.saturating_sub(1) <= u32::MAX as usize
}

impl<T: Scalar> Coo<T> {
    /// Creates an empty `rows x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` exceeds `u32::MAX + 1`: indices are
    /// stored as `u32`.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_capacity(rows, cols, 0)
    }

    /// Creates an empty matrix with capacity for `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` exceeds `u32::MAX + 1`, as
    /// [`Coo::new`] does.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        assert!(
            dim_fits_u32(rows) && dim_fits_u32(cols),
            "{rows}x{cols} matrix exceeds the u32 index range"
        );
        Coo {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
            compressed: true,
        }
    }

    /// Appends an entry. Zero values are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is outside the matrix.
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        assert!(
            row < self.rows && col < self.cols,
            "entry ({row}, {col}) outside {}x{} matrix",
            self.rows,
            self.cols
        );
        if value.is_zero() {
            return;
        }
        self.entries.push((row as u32, col as u32, value));
        self.compressed = false;
    }

    /// Fallible variant of [`Coo::push`].
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] instead of panicking.
    pub fn try_push(&mut self, row: usize, col: usize, value: T) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.push(row, col, value);
        Ok(())
    }

    /// Sorts entries row-major and sums duplicates, dropping entries that
    /// cancel to exactly zero.
    pub fn compress(&mut self) {
        if self.compressed {
            return;
        }
        self.entries
            .sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
        let mut out: Vec<(u32, u32, T)> = Vec::with_capacity(self.entries.len());
        for &(r, c, v) in &self.entries {
            match out.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => out.push((r, c, v)),
            }
        }
        out.retain(|e| !e.2.is_zero());
        self.entries = out;
        self.compressed = true;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (after [`Coo::compress`], the number of
    /// non-zero elements).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether entries are sorted and duplicate-free.
    pub fn is_compressed(&self) -> bool {
        self.compressed
    }

    /// The stored `(row, col, value)` triplets.
    pub fn entries(&self) -> &[(u32, u32, T)] {
        &self.entries
    }

    /// Builds a COO matrix from the non-zero entries of a dense matrix.
    pub fn from_dense(dense: &Dense<T>) -> Self {
        let mut coo = Coo::with_capacity(dense.rows(), dense.cols(), dense.nnz());
        for (r, c, v) in dense.iter_nonzero() {
            coo.push(r, c, v);
        }
        coo.compressed = true;
        coo
    }

    /// Expands to a dense matrix (duplicates are summed).
    pub fn to_dense(&self) -> Dense<T> {
        let mut d = Dense::zeros(self.rows, self.cols);
        for &(r, c, v) in &self.entries {
            let cur = d.get(r as usize, c as usize);
            d.set(r as usize, c as usize, cur + v);
        }
        d
    }

    /// COO footprint in bytes: two 4-byte indices plus one value per entry.
    pub fn storage_bytes(&self) -> usize {
        self.entries.len() * (8 + std::mem::size_of::<T>())
    }
}

impl<T: Scalar> FromIterator<(usize, usize, T)> for Coo<T> {
    /// Collects triplets into a COO matrix sized to fit the largest indices.
    fn from_iter<I: IntoIterator<Item = (usize, usize, T)>>(iter: I) -> Self {
        let triplets: Vec<_> = iter.into_iter().collect();
        let rows = triplets.iter().map(|&(r, _, _)| r + 1).max().unwrap_or(0);
        let cols = triplets.iter().map(|&(_, c, _)| c + 1).max().unwrap_or(0);
        let mut coo = Coo::with_capacity(rows, cols, triplets.len());
        for (r, c, v) in triplets {
            coo.push(r, c, v);
        }
        coo.compress();
        coo
    }
}

impl<T: Scalar> Extend<(usize, usize, T)> for Coo<T> {
    fn extend<I: IntoIterator<Item = (usize, usize, T)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "exceeds the u32 index range")]
    fn new_rejects_dimensions_beyond_u32_indices() {
        let _ = Coo::<f64>::new(1 << 33, 1);
    }

    #[test]
    fn push_ignores_zeros() {
        let mut m = Coo::<f64>::new(2, 2);
        m.push(0, 0, 0.0);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn compress_sorts_and_dedups() {
        let mut m = Coo::<f64>::new(3, 3);
        m.push(2, 2, 1.0);
        m.push(0, 1, 2.0);
        m.push(2, 2, 4.0);
        m.compress();
        assert_eq!(m.entries(), &[(0, 1, 2.0), (2, 2, 5.0)]);
        assert!(m.is_compressed());
    }

    #[test]
    fn compress_drops_cancelled_entries() {
        let mut m = Coo::<f64>::new(2, 2);
        m.push(1, 1, 2.0);
        m.push(1, 1, -2.0);
        m.compress();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn dense_roundtrip() {
        let mut d = Dense::<f64>::zeros(3, 4);
        d.set(0, 3, 1.5);
        d.set(2, 0, -2.5);
        let coo = Coo::from_dense(&d);
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.to_dense(), d);
    }

    #[test]
    fn try_push_reports_bounds() {
        let mut m = Coo::<f64>::new(2, 2);
        assert!(m.try_push(2, 0, 1.0).is_err());
        assert!(m.try_push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn from_iterator_sizes_to_fit() {
        let coo: Coo<f64> = vec![(0, 0, 1.0), (4, 2, 2.0)].into_iter().collect();
        assert_eq!((coo.rows(), coo.cols()), (5, 3));
        assert_eq!(coo.nnz(), 2);
    }

    #[test]
    fn extend_appends() {
        let mut coo = Coo::<f64>::new(4, 4);
        coo.extend(vec![(1, 1, 1.0), (2, 2, 2.0)]);
        assert_eq!(coo.nnz(), 2);
    }

    #[test]
    fn storage_bytes_counts_indices_and_values() {
        let mut m = Coo::<f64>::new(2, 2);
        m.push(0, 0, 1.0);
        assert_eq!(m.storage_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn push_out_of_bounds_panics() {
        Coo::<f64>::new(1, 1).push(1, 0, 1.0);
    }
}
