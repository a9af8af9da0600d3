use crate::{Coo, Csr, Dense, Result, Scalar};

#[cfg(doc)]
use crate::MatrixError;

/// Compressed Sparse Column matrix (paper §2.1).
///
/// The column-major mirror of [`Csr`]. The paper's inner-product SpMM keeps
/// the `B` operand in CSC so each column's non-zeros are contiguous and can
/// be index-matched against a CSR row of `A`.
///
/// # Example
///
/// ```
/// use smash_matrix::{Coo, Csr};
///
/// let mut coo = Coo::<f64>::new(2, 3);
/// coo.push(0, 0, 1.0);
/// coo.push(1, 2, 2.0);
/// let csc = Csr::from_coo(&coo).to_csc();
/// let (rows, vals) = csc.col(2);
/// assert_eq!(rows, &[1]);
/// assert_eq!(vals, &[2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csc<T> {
    rows: usize,
    cols: usize,
    col_ptr: Vec<u32>,
    row_ind: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> Csc<T> {
    /// Builds a CSC matrix from raw parts, validating the structure.
    ///
    /// # Errors
    ///
    /// Mirrors [`Csr::from_parts`]: [`MatrixError::InvalidStructure`] for
    /// inconsistent arrays, [`MatrixError::IndexOutOfBounds`] for a row index
    /// that exceeds `rows`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        col_ptr: Vec<u32>,
        row_ind: Vec<u32>,
        values: Vec<T>,
    ) -> Result<Self> {
        // Validate by building the transposed CSR view, which shares the
        // exact same structural invariants.
        Csr::from_parts(cols, rows, col_ptr.clone(), row_ind.clone(), values.clone())?;
        Ok(Csc {
            rows,
            cols,
            col_ptr,
            row_ind,
            values,
        })
    }

    /// Internal constructor for conversions that already uphold the
    /// invariants (sorted, in-bounds, consistent lengths).
    pub(crate) fn from_raw_unchecked(
        rows: usize,
        cols: usize,
        col_ptr: Vec<u32>,
        row_ind: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        // Trust contract (crate-internal): only conversion routines that
        // construct the arrays themselves may call this — currently
        // `Csr::to_csc`, whose counting sort establishes monotone col_ptr
        // and ascending in-bounds rows per column. Violations cannot cause
        // UB (all access is bounds-checked) but would panic in kernels;
        // debug builds cross-check the cheap shape invariants here.
        debug_assert_eq!(col_ptr.len(), cols + 1);
        debug_assert_eq!(row_ind.len(), values.len());
        debug_assert_eq!(col_ptr.first(), Some(&0));
        debug_assert_eq!(col_ptr.last().copied().unwrap_or(0) as usize, row_ind.len());
        debug_assert!(col_ptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(row_ind.iter().all(|&r| (r as usize) < rows));
        Csc {
            rows,
            cols,
            col_ptr,
            row_ind,
            values,
        }
    }

    /// Builds a CSC matrix from a COO matrix.
    pub fn from_coo(coo: &Coo<T>) -> Self {
        Csr::from_coo(coo).to_csc()
    }

    /// Converts to CSR.
    pub fn to_csr(&self) -> Csr<T> {
        // The CSC arrays are the compressed rows of the transpose, so one
        // counting sort over them yields the CSR form of `self` directly.
        let sorted = crate::csr::column_sort(self.rows, &self.col_ptr, &self.row_ind, &self.values);
        Csr::from_column_sort(self.rows, self.cols, sorted)
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> Dense<T> {
        let mut d = Dense::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                d.set(r as usize, j, v);
            }
        }
        d
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zero elements.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The column-pointer array (`cols + 1` entries).
    pub fn col_ptr(&self) -> &[u32] {
        &self.col_ptr
    }

    /// Row index of each stored non-zero, column-major.
    pub fn row_ind(&self) -> &[u32] {
        &self.row_ind
    }

    /// Stored non-zero values, column-major.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Row indices and values of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> (&[u32], &[T]) {
        assert!(j < self.cols, "column out of bounds");
        let (lo, hi) = (self.col_ptr[j] as usize, self.col_ptr[j + 1] as usize);
        (&self.row_ind[lo..hi], &self.values[lo..hi])
    }

    /// Number of non-zeros in column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col_nnz(&self, j: usize) -> usize {
        assert!(j < self.cols, "column out of bounds");
        (self.col_ptr[j + 1] - self.col_ptr[j]) as usize
    }

    /// CSC footprint in bytes (same accounting as [`Csr::storage_bytes`]).
    pub fn storage_bytes(&self) -> usize {
        4 * (self.cols + 1) + 4 * self.nnz() + self.nnz() * std::mem::size_of::<T>()
    }

    /// Reference product `y = A * x` computed column-wise.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn spmv(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        let mut y = vec![T::ZERO; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            if xj.is_zero() {
                continue;
            }
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                y[r as usize] = v.mul_add(xj, y[r as usize]);
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn sample() -> Csr<f64> {
        let mut coo = Coo::new(3, 4);
        for &(r, c, v) in &[
            (0, 1, 1.0),
            (0, 3, 2.0),
            (1, 0, 3.0),
            (2, 1, 4.0),
            (2, 2, 5.0),
        ] {
            coo.push(r, c, v);
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn csr_csc_roundtrip() {
        let a = sample();
        assert_eq!(a.to_csc().to_csr(), a);
    }

    #[test]
    fn to_csr_equals_the_transposed_csr_view() {
        // Random, empty, all-empty-columns and ragged (one dense row or
        // column among empties, skinny and short) shapes.
        let mut one_row = Coo::new(9, 40);
        let mut one_col = Coo::new(40, 9);
        for k in 0..40 {
            one_row.push(4, k, k as f64 + 0.5);
            one_col.push(k, 7, -(k as f64) - 0.25);
        }
        let cases = [
            generators::uniform(48, 48, 300, 3),
            generators::power_law(57, 23, 200, 1.8, 4),
            Csr::from_coo(&Coo::new(0, 0)),
            Csr::from_coo(&Coo::new(0, 5)),
            Csr::from_coo(&Coo::new(6, 0)),
            Csr::from_coo(&Coo::new(33, 17)),
            Csr::from_coo(&one_row),
            Csr::from_coo(&one_col),
            generators::uniform(200, 3, 150, 5),
            generators::uniform(3, 200, 150, 9),
        ];
        for a in cases {
            let csc = a.to_csc();
            let old = Csr::from_parts(
                csc.cols(),
                csc.rows(),
                csc.col_ptr().to_vec(),
                csc.row_ind().to_vec(),
                csc.values().to_vec(),
            )
            .unwrap()
            .transpose();
            let got = csc.to_csr();
            assert_eq!(got, old, "{}x{}", a.rows(), a.cols());
            assert_eq!(got, a, "{}x{} round trip", a.rows(), a.cols());
            assert!(got.is_verified());
        }
    }

    #[test]
    fn col_accessor() {
        let csc = sample().to_csc();
        let (rows, vals) = csc.col(1);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 4.0]);
        assert_eq!(csc.col_nnz(1), 2);
        assert_eq!(csc.col_nnz(0), 1);
    }

    #[test]
    fn spmv_matches_csr() {
        let a = sample();
        let x = [0.5, 1.5, -2.0, 3.0];
        let want = a.spmv(&x);
        let got = a.to_csc().spmv(&x);
        assert_eq!(want, got);
    }

    #[test]
    fn dense_matches() {
        let a = sample();
        assert_eq!(a.to_csc().to_dense(), a.to_dense());
    }

    #[test]
    fn from_parts_validates() {
        assert!(Csc::<f64>::from_parts(2, 2, vec![0, 1, 1], vec![5], vec![1.0]).is_err());
        assert!(Csc::<f64>::from_parts(2, 2, vec![0, 1, 1], vec![1], vec![1.0]).is_ok());
    }

    #[test]
    fn from_coo_matches_via_csr() {
        let mut coo = Coo::new(3, 3);
        coo.push(2, 0, 1.0);
        coo.push(0, 2, 2.0);
        let c1 = Csc::from_coo(&coo);
        let c2 = Csr::from_coo(&coo).to_csc();
        assert_eq!(c1, c2);
    }
}
