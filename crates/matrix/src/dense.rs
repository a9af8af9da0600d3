use crate::{MatrixError, Result, Scalar};

/// The register-blocked right-hand-side column-tile schedule shared by
/// **every** batched sparse × dense kernel in the workspace: invokes
/// `f(start, width)` for contiguous tiles of width **8** while one fits,
/// then one tail tile over the remaining `n % 8` columns, covering `0..n`
/// exactly once.
///
/// This is the single definition of the tiling — `Csr::row_spmm_dense`,
/// `Bcsr::block_row_spmm_dense` and `smash_core::block_axpy_dense` all
/// drive their tile loops through it.
#[inline]
pub fn for_each_rhs_tile(n: usize, mut f: impl FnMut(usize, usize)) {
    let mut j0 = 0usize;
    while n - j0 >= 8 {
        f(j0, 8);
        j0 += 8;
    }
    if j0 < n {
        f(j0, n - j0);
    }
}

/// The shared accumulating tile body of the blocked batched kernels:
/// multiplies the contiguous values `vals` (logical columns
/// `cbase..cbase + vals.len()`) against every column of `b`, adding into
/// the output row `out` (`out[j] += Σ_k vals[k] * b[cbase + k][j]`),
/// tiled through [`for_each_rhs_tile`].
///
/// Within each tile every column's partial sums run from zero over `vals`
/// in the lane-striped order of [`crate::simd`] and are then added into
/// `out` — the exact per-column order of the corresponding blocked SpMV
/// bodies, which is what keeps `Bcsr::block_row_spmm_dense` and
/// `smash_core::block_axpy_dense` (both one call to this) bit-identical
/// per column to their SpMV twins, under every [`crate::simd`] ISA tier.
///
/// # Panics
///
/// Panics if `out.len() != b.cols()` or `cbase + vals.len() > b.rows()`.
pub fn axpy_dense_tiles<T: Scalar>(vals: &[T], b: &Dense<T>, cbase: usize, out: &mut [T]) {
    assert_eq!(out.len(), b.cols(), "output row length must equal b.cols()");
    let n = b.cols();
    for_each_rhs_tile(n, |j0, w| {
        T::simd_axpy_tile(vals, b.as_slice(), n, cbase, j0, w, out)
    });
}

/// Row-major dense matrix.
///
/// `Dense` is the uncompressed reference representation: every conversion
/// and kernel in the workspace is ultimately validated against it, and the
/// total-compression-ratio experiment (paper Fig. 19) measures compressed
/// formats against its footprint.
///
/// # Example
///
/// ```
/// use smash_matrix::Dense;
///
/// let mut m = Dense::<f64>::zeros(2, 3);
/// m.set(0, 2, 4.5);
/// assert_eq!(m.get(0, 2), 4.5);
/// assert_eq!(m.nnz(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dense<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Dense<T> {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dense {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::InvalidStructure(format!(
                "dense data length {} does not match {}x{}",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Dense { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows` or `col >= cols`.
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows` or `col >= cols`.
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.rows, "row out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        assert!(i < self.rows, "row out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The full row-major backing storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The full row-major backing storage, mutably. Parallel kernels split
    /// this into disjoint per-worker row ranges.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Copies column `j` into a contiguous vector (e.g. to run one
    /// right-hand side of a batched operand through a vector kernel).
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<T> {
        assert!(j < self.cols, "column out of bounds");
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Builds a `rows x columns.len()` matrix whose `j`-th column is
    /// `columns[j]` — the natural constructor for a batch of right-hand-side
    /// vectors.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if any column's length
    /// differs from `rows`.
    pub fn from_columns(rows: usize, columns: &[Vec<T>]) -> Result<Self> {
        let n = columns.len();
        let mut m = Dense::zeros(rows, n);
        for (j, col) in columns.iter().enumerate() {
            if col.len() != rows {
                return Err(MatrixError::InvalidStructure(format!(
                    "column {j} has length {}, expected {rows}",
                    col.len()
                )));
            }
            for (i, &v) in col.iter().enumerate() {
                m.data[i * n + j] = v;
            }
        }
        Ok(m)
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| !v.is_zero()).count()
    }

    /// Fraction of non-zero elements (the paper's "sparsity" column of
    /// Table 3, expressed as a fraction rather than percent).
    pub fn density(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.nnz() as f64 / self.data.len() as f64
        }
    }

    /// Iterates over non-zero entries as `(row, col, value)`.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        self.data.iter().enumerate().filter_map(move |(k, &v)| {
            if v.is_zero() {
                None
            } else {
                Some((k / self.cols, k % self.cols, v))
            }
        })
    }

    /// Uncompressed footprint in bytes: `rows * cols * size_of::<T>()`.
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Reference dense matrix-vector product `y = A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn spmv(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        let mut y = vec![T::ZERO; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = T::ZERO;
            for (a, &b) in self.row(i).iter().zip(x) {
                acc += *a * b;
            }
            *yi = acc;
        }
        y
    }

    /// Reference dense matrix-matrix product `C = A * B`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Dense<T>) -> Result<Dense<T>> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "matmul",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let mut c = Dense::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let cur = c.get(i, j);
                    c.set(i, j, a.mul_add(rhs.get(k, j), cur));
                }
            }
        }
        Ok(c)
    }

    /// Reference dense matrix addition `C = A + B`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if shapes differ.
    pub fn add(&self, rhs: &Dense<T>) -> Result<Dense<T>> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "add",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a + b)
            .collect();
        Ok(Dense {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Dense<T> {
        let mut t = Dense::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dense<f64> {
        // 3x3: [[1,0,2],[0,0,0],[3,4,0]]
        Dense::from_vec(3, 3, vec![1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0, 4.0, 0.0]).unwrap()
    }

    #[test]
    fn zeros_has_no_nonzeros() {
        let m = Dense::<f64>::zeros(4, 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.density(), 0.0);
        assert_eq!(m.storage_bytes(), 4 * 5 * 8);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Dense::<f64>::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Dense::<f64>::zeros(2, 2);
        m.set(1, 0, -3.5);
        assert_eq!(m.get(1, 0), -3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn iter_nonzero_yields_coordinates() {
        let m = sample();
        let entries: Vec<_> = m.iter_nonzero().collect();
        assert_eq!(
            entries,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }

    #[test]
    fn spmv_matches_manual() {
        let m = sample();
        let y = m.spmv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 0.0, 11.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let mut id = Dense::<f64>::zeros(3, 3);
        for i in 0..3 {
            id.set(i, i, 1.0);
        }
        let c = m.matmul(&id).unwrap();
        assert_eq!(c, m);
    }

    #[test]
    fn matmul_rejects_mismatched_shapes() {
        let a = Dense::<f64>::zeros(2, 3);
        let b = Dense::<f64>::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn add_sums_elementwise() {
        let m = sample();
        let s = m.add(&m).unwrap();
        assert_eq!(s.get(2, 1), 8.0);
        assert_eq!(s.nnz(), m.nnz());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_moves_entries() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(2, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        sample().get(3, 0);
    }

    #[test]
    fn from_columns_and_col_roundtrip() {
        let cols = vec![vec![1.0, 2.0, 3.0], vec![-4.0, 0.0, 6.0]];
        let m = Dense::from_columns(3, &cols).unwrap();
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert_eq!(m.col(0), cols[0]);
        assert_eq!(m.col(1), cols[1]);
        assert_eq!(m.row(1), &[2.0, 0.0]);
        // Length mismatch is rejected.
        assert!(Dense::from_columns(2, &cols).is_err());
    }

    #[test]
    fn row_mut_and_as_mut_slice_write_through() {
        let mut m = Dense::<f64>::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[7.0, 8.0, 9.0]);
        assert_eq!(m.get(1, 2), 9.0);
        m.as_mut_slice().fill(1.5);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.as_slice(), &[1.5; 6]);
    }

    #[test]
    fn rhs_tile_schedule_covers_every_width_once() {
        for n in 0usize..=17 {
            let mut tiles = Vec::new();
            crate::for_each_rhs_tile(n, |j0, w| tiles.push((j0, w)));
            let mut covered = 0usize;
            for (t, &(j0, w)) in tiles.iter().enumerate() {
                assert_eq!(j0, covered, "n={n}: tiles must be contiguous");
                let last = t + 1 == tiles.len();
                if last {
                    assert!((1..=8).contains(&w), "n={n}: tail width {w}");
                } else {
                    assert_eq!(w, 8, "n={n}: only the final tile may be narrower than 8");
                }
                covered += w;
            }
            assert_eq!(covered, n, "schedule must cover 0..{n}");
        }
    }
}
