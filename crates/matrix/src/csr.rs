use crate::{Coo, Csc, Dense, MatrixError, Result, Scalar};
use std::sync::atomic::{AtomicBool, Ordering};

/// Compressed Sparse Row matrix (paper §2.1, Fig. 1).
///
/// Three arrays: `row_ptr` (per-row extent into the other two), `col_ind`
/// (column index of each non-zero) and `values`. This is the baseline format
/// whose indexing cost SMASH attacks; the index arrays use 4-byte integers,
/// matching the storage model of the paper's Fig. 19.
///
/// # Example
///
/// ```
/// use smash_matrix::{Coo, Csr};
///
/// // The 4x4 example of the paper's Figure 1.
/// let mut coo = Coo::<f64>::new(4, 4);
/// for &(r, c, v) in &[(0, 0, 3.2), (1, 0, 1.2), (1, 2, 4.2),
///                     (2, 3, 5.1), (3, 0, 5.3), (3, 1, 3.3)] {
///     coo.push(r, c, v);
/// }
/// let a = Csr::from_coo(&coo);
/// assert_eq!(a.row_ptr(), &[0, 1, 3, 4, 6]);
/// assert_eq!(a.col_ind(), &[0, 0, 2, 3, 0, 1]);
/// ```
#[derive(Debug)]
pub struct Csr<T> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_ind: Vec<u32>,
    values: Vec<T>,
    /// Cached result of a successful structural check: set by every
    /// validating constructor and by [`Csr::validate`] on success, so hot
    /// loops (the executor's `try_*` tier validates per call) never re-pay
    /// the O(nnz) walk. Purely an acceleration — never consulted for
    /// correctness decisions, excluded from `Clone` origin / `PartialEq`.
    verified: AtomicBool,
}

impl<T: Clone> Clone for Csr<T> {
    fn clone(&self) -> Self {
        Csr {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_ind: self.col_ind.clone(),
            values: self.values.clone(),
            verified: AtomicBool::new(self.verified.load(Ordering::Acquire)),
        }
    }
}

impl<T: PartialEq> PartialEq for Csr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_ind == other.col_ind
            && self.values == other.values
    }
}

impl<T: Scalar> Csr<T> {
    /// Builds a CSR matrix from raw parts, validating the structure.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if the arrays are
    /// inconsistent (wrong lengths, non-monotone `row_ptr`, unsorted or
    /// duplicate column indices) and [`MatrixError::IndexOutOfBounds`] if a
    /// column index exceeds `cols`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_ind: Vec<u32>,
        values: Vec<T>,
    ) -> Result<Self> {
        let m = Csr::from_parts_unchecked(rows, cols, row_ptr, col_ind, values);
        m.validate()?;
        Ok(m)
    }

    /// Builds a CSR matrix from raw parts **without checking the
    /// invariants** — the trusted fast path for callers that hold arrays
    /// already known to be valid (e.g. sliced out of another CSR).
    ///
    /// # Trust contract
    ///
    /// The arrays are expected to satisfy everything
    /// [`Csr::from_parts`] checks: `row_ptr` of length `rows + 1`,
    /// starting at 0, non-decreasing, ending at `col_ind.len()`;
    /// `col_ind.len() == values.len()`; per row, strictly increasing
    /// in-bounds column indices. **No undefined behaviour** can result
    /// from violating the contract — every access is bounds-checked — but
    /// kernels may panic or silently compute garbage. The matrix is
    /// marked unverified: [`Csr::validate`] (and therefore the executor's
    /// `try_*` tier) runs the full O(nnz) check and returns
    /// `Err(InvalidStructure)` instead of panicking, which is the
    /// documented front door for operands of untrusted provenance.
    pub fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_ind: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        Csr {
            rows,
            cols,
            row_ptr,
            col_ind,
            values,
            verified: AtomicBool::new(false),
        }
    }

    /// Whether this matrix has already passed a structural check (at
    /// construction or through [`Csr::validate`]).
    pub fn is_verified(&self) -> bool {
        self.verified.load(Ordering::Acquire)
    }

    /// Checks every CSR invariant — `row_ptr` shape/monotonicity, array
    /// length agreement, strictly increasing in-bounds columns per row —
    /// in O(nnz + rows), caching success so repeated calls are O(1).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] /
    /// [`MatrixError::IndexOutOfBounds`] exactly as [`Csr::from_parts`]
    /// would for the same arrays.
    pub fn validate(&self) -> Result<()> {
        if self.verified.load(Ordering::Acquire) {
            return Ok(());
        }
        self.check_structure()?;
        self.verified.store(true, Ordering::Release);
        Ok(())
    }

    /// The uncached O(nnz) structural walk behind [`Csr::validate`].
    fn check_structure(&self) -> Result<()> {
        let (rows, cols) = (self.rows, self.cols);
        let (row_ptr, col_ind, values) = (&self.row_ptr, &self.col_ind, &self.values);
        if row_ptr.len() != rows + 1 {
            return Err(MatrixError::InvalidStructure(format!(
                "row_ptr length {} != rows + 1 = {}",
                row_ptr.len(),
                rows + 1
            )));
        }
        if row_ptr.first() != Some(&0) {
            return Err(MatrixError::InvalidStructure(
                "row_ptr must start at 0".into(),
            ));
        }
        if col_ind.len() != values.len() {
            return Err(MatrixError::InvalidStructure(format!(
                "col_ind length {} != values length {}",
                col_ind.len(),
                values.len()
            )));
        }
        if *row_ptr.last().unwrap() as usize != col_ind.len() {
            return Err(MatrixError::InvalidStructure(format!(
                "row_ptr end {} != nnz {}",
                row_ptr.last().unwrap(),
                col_ind.len()
            )));
        }
        for w in row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(MatrixError::InvalidStructure(
                    "row_ptr must be non-decreasing".into(),
                ));
            }
        }
        for i in 0..rows {
            let (lo, hi) = (row_ptr[i] as usize, row_ptr[i + 1] as usize);
            let row_cols = &col_ind[lo..hi];
            for w in row_cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(MatrixError::InvalidStructure(format!(
                        "row {i} columns not strictly increasing"
                    )));
                }
            }
            if let Some(&c) = row_cols.last() {
                if c as usize >= cols {
                    return Err(MatrixError::IndexOutOfBounds {
                        row: i,
                        col: c as usize,
                        rows,
                        cols,
                    });
                }
            }
        }
        Ok(())
    }

    /// Builds a CSR matrix from a COO matrix (compressing a clone first if
    /// the COO entries are unsorted).
    pub fn from_coo(coo: &Coo<T>) -> Self {
        let owned;
        let coo = if coo.is_compressed() {
            coo
        } else {
            let mut c = coo.clone();
            c.compress();
            owned = c;
            &owned
        };
        let rows = coo.rows();
        let row_ptr = counted_ptr(rows, coo.nnz(), coo.entries().iter().map(|e| e.0 as usize));
        let mut col_ind = Vec::with_capacity(coo.nnz());
        let mut values = Vec::with_capacity(coo.nnz());
        for &(_, c, v) in coo.entries() {
            col_ind.push(c);
            values.push(v);
        }
        Csr {
            rows,
            cols: coo.cols(),
            row_ptr,
            col_ind,
            values,
            // A compressed COO is sorted, deduplicated and in bounds — the
            // prefix sum above preserves exactly the CSR invariants.
            verified: AtomicBool::new(true),
        }
    }

    /// Builds a CSR matrix from the non-zeros of a dense matrix.
    pub fn from_dense(dense: &Dense<T>) -> Self {
        Csr::from_coo(&Coo::from_dense(dense))
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> Dense<T> {
        let mut d = Dense::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                d.set(i, c as usize, v);
            }
        }
        d
    }

    /// Converts to COO triplets.
    pub fn to_coo(&self) -> Coo<T> {
        let mut coo = Coo::with_capacity(self.rows, self.cols, self.nnz());
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(i, c as usize, v);
            }
        }
        coo
    }

    /// Converts to compressed sparse column.
    pub fn to_csc(&self) -> Csc<T> {
        let (col_ptr, row_ind, values) =
            column_sort(self.cols, &self.row_ptr, &self.col_ind, &self.values);
        Csc::from_raw_unchecked(self.rows, self.cols, col_ptr, row_ind, values)
    }

    /// Transposed copy (also a CSR matrix).
    pub fn transpose(&self) -> Csr<T> {
        let sorted = column_sort(self.cols, &self.row_ptr, &self.col_ind, &self.values);
        Csr::from_column_sort(self.cols, self.rows, sorted)
    }

    /// The `rows × cols` CSR whose arrays are the output of
    /// [`column_sort`] over its transpose. The counting sort emits each
    /// column's rows in ascending order, which is exactly this CSR's row
    /// invariant, so the matrix is marked verified; builds with debug
    /// assertions re-check the structure.
    pub(crate) fn from_column_sort(
        rows: usize,
        cols: usize,
        (row_ptr, col_ind, values): (Vec<u32>, Vec<u32>, Vec<T>),
    ) -> Csr<T> {
        let t = Csr {
            rows,
            cols,
            row_ptr,
            col_ind,
            values,
            verified: AtomicBool::new(true),
        };
        debug_assert!(
            t.check_structure().is_ok(),
            "column sort emitted an invalid CSR: {:?}",
            t.check_structure().err()
        );
        t
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

    /// Fraction of non-zero elements over all elements.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// The row-pointer array (`rows + 1` entries, first 0, last `nnz`).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Column index of each stored non-zero, row-major.
    pub fn col_ind(&self) -> &[u32] {
        &self.col_ind
    }

    /// Stored non-zero values, row-major.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The stored values, row-major, for in-place rewriting. The sparsity
    /// structure cannot change through it, so the `verified` marker (which
    /// covers structure only) stays valid; finiteness is not part of that
    /// marker and is checked per call by the executor's `try_*` tier.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[T]) {
        assert!(i < self.rows, "row out of bounds");
        let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
        (&self.col_ind[lo..hi], &self.values[lo..hi])
    }

    /// Number of non-zeros in row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_nnz(&self, i: usize) -> usize {
        assert!(i < self.rows, "row out of bounds");
        (self.row_ptr[i + 1] - self.row_ptr[i]) as usize
    }

    /// Iterates over all entries as `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (i, c as usize, v))
        })
    }

    /// CSR footprint in bytes: `4 * (rows + 1)` for `row_ptr`, `4 * nnz` for
    /// `col_ind`, plus the values. This is the CSR side of paper Fig. 19.
    pub fn storage_bytes(&self) -> usize {
        4 * (self.rows + 1) + 4 * self.nnz() + self.nnz() * std::mem::size_of::<T>()
    }

    /// Returns a copy with every value converted to scalar type `U`
    /// (through `f64`, so `f64 -> f32` truncates). The sparsity structure
    /// is shared verbatim, which is what makes a `Csr<f32>` built this way
    /// a faithful reduced-precision twin of its `f64` original in the
    /// mixed-precision equivalence tests.
    pub fn cast<U: Scalar>(&self) -> Csr<U> {
        Csr {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_ind: self.col_ind.clone(),
            values: self
                .values
                .iter()
                .map(|v| U::from_f64(v.to_f64()))
                .collect(),
            // Structure is shared verbatim, so verification carries over.
            verified: AtomicBool::new(self.verified.load(Ordering::Acquire)),
        }
    }

    /// Dot product of row `i` against the dense vector `x`, accumulated in
    /// the lane-striped order of [`crate::simd`] (stripe `k % LANES`, then
    /// a pairwise fold) by whichever ISA body [`crate::simd::active`]
    /// dispatches — AVX2 or the scalar emulation of the same order. This
    /// is *the* per-row result of the plain CSR SpMV: both the serial
    /// driver [`crate::spmv_rows`] and the parallel
    /// `smash_parallel::par_spmv_rows` compute every row as this same
    /// `simd_dot_indexed` call (walking `row_ptr` directly rather than
    /// through [`Csr::row`]), and because every ISA body realizes the same
    /// accumulation order the results stay bit-identical across ISAs *and*
    /// thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or a column index of the row is `>= x.len()`.
    #[inline]
    pub fn row_dot(&self, i: usize, x: &[T]) -> T {
        let (cols, vals) = self.row(i);
        T::simd_dot_indexed(cols, vals, x)
    }

    /// Multiplies row `i` against every column of the dense right-hand-side
    /// batch `b`, writing the full output row into `out`
    /// (`out[j] = Σ_k A[i][k] * b[k][j]`).
    ///
    /// This is *the* per-row body of the batched CSR SpMM: the serial
    /// driver [`crate::spmm_dense_rows`] and the parallel
    /// `smash_parallel::par_spmm_dense_rows` both call it, which keeps the
    /// two bit-identical at every thread count. The columns of `b` are
    /// processed in register-blocked 8-wide tiles plus one tail tile —
    /// the row's indices and values are streamed once per *tile* instead
    /// of once per right-hand side, and within each tile every output
    /// column follows exactly the lane-striped order of
    /// [`row_dot`](Csr::row_dot), so column `j` of the result is
    /// bit-identical to an independent SpMV against column `j`, under
    /// every [`crate::simd`] ISA tier.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`, `out.len() != b.cols()`, or a column index of
    /// the row is `>= b.rows()`.
    #[inline]
    pub fn row_spmm_dense(&self, i: usize, b: &Dense<T>, out: &mut [T]) {
        let (cols, vals) = self.row(i);
        let n = b.cols();
        assert_eq!(out.len(), n, "output row length must equal b.cols()");
        crate::for_each_rhs_tile(n, |j0, w| {
            T::simd_row_tile(cols, vals, b.as_slice(), n, j0, w, out)
        });
    }

    /// Reference sparse matrix-vector product `y = A * x`
    /// (paper Code Listing 1).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn spmv(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        let mut y = vec![T::ZERO; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = T::ZERO;
            for (&c, &v) in cols.iter().zip(vals) {
                acc = v.mul_add(x[c as usize], acc);
            }
            *yi = acc;
        }
        y
    }

    /// Reference inner-product sparse matrix-matrix multiply `C = A * B`
    /// with `B` in CSC form (paper Code Listing 2, index matching via merge).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.cols != b.rows`.
    pub fn spmm_inner(&self, b: &Csc<T>) -> Result<Coo<T>> {
        if self.cols != b.rows() {
            return Err(MatrixError::DimensionMismatch {
                op: "spmm",
                lhs: (self.rows, self.cols),
                rhs: (b.rows(), b.cols()),
            });
        }
        let mut c = Coo::new(self.rows, b.cols());
        for i in 0..self.rows {
            let (a_cols, a_vals) = self.row(i);
            if a_cols.is_empty() {
                continue;
            }
            for j in 0..b.cols() {
                let (b_rows, b_vals) = b.col(j);
                // Index matching: advance two sorted cursors.
                let (mut p, mut q) = (0usize, 0usize);
                let mut acc = T::ZERO;
                let mut hit = false;
                while p < a_cols.len() && q < b_rows.len() {
                    match a_cols[p].cmp(&b_rows[q]) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            acc = a_vals[p].mul_add(b_vals[q], acc);
                            hit = true;
                            p += 1;
                            q += 1;
                        }
                    }
                }
                if hit && !acc.is_zero() {
                    c.push(i, j, acc);
                }
            }
        }
        c.compress();
        Ok(c)
    }

    /// Sparse matrix addition `C = A + B`: a two-cursor merge of each
    /// pair of sorted rows, appended straight to a [`CsrBuilder`] with no
    /// sort.
    ///
    /// **Exact zeros are dropped**, the output policy of every sparse
    /// kernel in the workspace: a position whose value is exactly `±0.0`
    /// is not stored, whether it cancelled on an overlap or arrived as a
    /// stored zero from one side. The result therefore holds no explicit
    /// zeros.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if shapes differ.
    pub fn add(&self, b: &Csr<T>) -> Result<Csr<T>> {
        if self.rows != b.rows || self.cols != b.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "spadd",
                lhs: (self.rows, self.cols),
                rhs: (b.rows, b.cols),
            });
        }
        let mut out = CsrBuilder::with_capacity(self.cols, self.rows, self.nnz() + b.nnz());
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for i in 0..self.rows {
            cols.clear();
            vals.clear();
            let mut push = |c: u32, v: T| {
                if !v.is_zero() {
                    cols.push(c);
                    vals.push(v);
                }
            };
            let (ac, av) = self.row(i);
            let (bc, bv) = b.row(i);
            let (mut p, mut q) = (0usize, 0usize);
            while p < ac.len() && q < bc.len() {
                match ac[p].cmp(&bc[q]) {
                    std::cmp::Ordering::Less => {
                        push(ac[p], av[p]);
                        p += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        push(bc[q], bv[q]);
                        q += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        push(ac[p], av[p] + bv[q]);
                        p += 1;
                        q += 1;
                    }
                }
            }
            for (&c, &v) in ac[p..]
                .iter()
                .zip(&av[p..])
                .chain(bc[q..].iter().zip(&bv[q..]))
            {
                push(c, v);
            }
            out.push_row(&cols, &vals);
        }
        Ok(out.finish())
    }
}

/// Converts a running non-zero count for the `u32` row pointers,
/// panicking instead of wrapping past `u32::MAX` entries. `#[inline]`
/// because it runs once per row inside the generic `push_row`, which
/// other crates instantiate.
#[inline]
fn row_ptr_u32(nnz: usize) -> u32 {
    u32::try_from(nnz).unwrap_or_else(|_| panic!("{nnz} non-zeros overflow the u32 row pointers"))
}

/// The counting-sort pointer array of `nnz` entries over `lines` lines:
/// `ptr[l + 1] - ptr[l]` is how many of `line_of` are `l`. `nnz` is
/// checked against the `u32` pointer width once, before the counting
/// pass, so no count can wrap.
fn counted_ptr(lines: usize, nnz: usize, line_of: impl Iterator<Item = usize>) -> Vec<u32> {
    row_ptr_u32(nnz);
    let mut ptr = vec![0u32; lines + 1];
    for l in line_of {
        ptr[l + 1] += 1;
    }
    for l in 0..lines {
        ptr[l + 1] += ptr[l];
    }
    ptr
}

/// Re-sorts the compressed-row arrays `(row_ptr, col_ind, values)` of a
/// matrix with `cols` columns into its column-major arrays
/// `(col_ptr, row_ind, values)` by one counting sort over the rows; each
/// column's rows come out ascending. Shared by [`Csr::to_csc`],
/// [`Csr::transpose`] and `Csc::to_csr` (which passes its own arrays as
/// the compressed rows of its transpose).
pub(crate) fn column_sort<T: Scalar>(
    cols: usize,
    row_ptr: &[u32],
    col_ind: &[u32],
    values: &[T],
) -> (Vec<u32>, Vec<u32>, Vec<T>) {
    let nnz = values.len();
    let col_ptr = counted_ptr(cols, nnz, col_ind.iter().map(|&c| c as usize));
    let mut row_ind = vec![0u32; nnz];
    let mut out = vec![T::ZERO; nnz];
    let mut next = col_ptr.clone();
    for (i, w) in row_ptr.windows(2).enumerate() {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        for (&c, &v) in col_ind[lo..hi].iter().zip(&values[lo..hi]) {
            let slot = next[c as usize] as usize;
            row_ind[slot] = i as u32;
            out[slot] = v;
            next[c as usize] += 1;
        }
    }
    (col_ptr, row_ind, out)
}

/// Incremental row-by-row CSR constructor for kernels that emit their
/// output directly in compressed form (no COO detour, no sort, no
/// duplicate merge).
///
/// The SpGEMM engine in `smash-kernels` is the primary caller: its
/// Gustavson rows come out sorted and duplicate-free, so the builder only
/// has to append them and maintain `row_ptr`. Rows are validated as they
/// are pushed (strictly increasing columns, in bounds), which makes
/// [`CsrBuilder::finish`] O(1) — the finished matrix holds exactly the
/// invariants [`Csr::from_parts`] would re-check.
///
/// # Example
///
/// ```
/// use smash_matrix::CsrBuilder;
///
/// let mut b = CsrBuilder::<f64>::with_capacity(4, 2, 3);
/// b.push_row(&[0, 2], &[1.0, 2.0]);
/// b.push_row(&[3], &[4.0]);
/// let m = b.finish();
/// assert_eq!((m.rows(), m.cols(), m.nnz()), (2, 4, 3));
/// assert_eq!(m.row_ptr(), &[0, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct CsrBuilder<T> {
    cols: usize,
    row_ptr: Vec<u32>,
    col_ind: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> CsrBuilder<T> {
    /// An empty builder for a matrix with `cols` columns; rows are added
    /// one [`push_row`](CsrBuilder::push_row) at a time.
    pub fn new(cols: usize) -> Self {
        CsrBuilder::with_capacity(cols, 0, 0)
    }

    /// An empty builder with storage pre-allocated for `rows` rows and
    /// `nnz` non-zeros — pass exact counts (e.g. from a symbolic pass) and
    /// assembly never reallocates.
    pub fn with_capacity(cols: usize, rows: usize, nnz: usize) -> Self {
        CsrBuilder {
            cols,
            row_ptr: {
                let mut p = Vec::with_capacity(rows + 1);
                p.push(0);
                p
            },
            col_ind: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Rows pushed so far.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Non-zeros pushed so far.
    pub fn nnz(&self) -> usize {
        self.col_ind.len()
    }

    /// Appends the next row from its sorted column indices and values
    /// (empty slices append an empty row).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths, the columns are not
    /// strictly increasing, or a column is `>= cols`.
    pub fn push_row(&mut self, cols: &[u32], vals: &[T]) {
        assert_eq!(cols.len(), vals.len(), "row slices must have equal length");
        let mut prev: Option<u32> = None;
        for &c in cols {
            assert!(
                prev.is_none_or(|p| p < c),
                "row {} columns not strictly increasing",
                self.rows()
            );
            assert!(
                (c as usize) < self.cols,
                "column {c} out of bounds for {} columns",
                self.cols
            );
            prev = Some(c);
        }
        self.col_ind.extend_from_slice(cols);
        self.values.extend_from_slice(vals);
        self.row_ptr.push(row_ptr_u32(self.col_ind.len()));
    }

    /// Splices a pre-computed chunk of consecutive rows: `counts[r]` gives
    /// the non-zero count of the chunk's `r`-th row inside the flat
    /// `cols`/`vals` arrays. This is how the parallel SpGEMM engine
    /// concatenates its workers' disjoint row-range outputs in range
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the counts do not sum to the slice lengths, or any row
    /// violates the [`push_row`](CsrBuilder::push_row) invariants.
    pub fn push_row_chunk(&mut self, counts: &[u32], cols: &[u32], vals: &[T]) {
        let total: usize = counts.iter().map(|&c| c as usize).sum();
        assert_eq!(total, cols.len(), "counts must sum to the chunk length");
        let mut at = 0usize;
        for &c in counts {
            let hi = at + c as usize;
            self.push_row(&cols[at..hi], &vals[at..hi]);
            at = hi;
        }
    }

    /// Finishes the matrix. O(1) in release builds: every invariant was
    /// enforced by [`push_row`](CsrBuilder::push_row) as the rows landed.
    /// Debug builds route the result through the full structural check
    /// once more, so a builder bug (or a future push path that forgets a
    /// check) is caught at the construction site rather than inside a
    /// kernel.
    pub fn finish(self) -> Csr<T> {
        let m = Csr {
            rows: self.row_ptr.len() - 1,
            cols: self.cols,
            row_ptr: self.row_ptr,
            col_ind: self.col_ind,
            values: self.values,
            verified: AtomicBool::new(true),
        };
        debug_assert!(
            m.check_structure().is_ok(),
            "CsrBuilder emitted an invalid matrix: {:?}",
            m.check_structure().err()
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 4x4 matrix of the paper's Figure 1.
    fn fig1() -> Csr<f64> {
        let mut coo = Coo::new(4, 4);
        for &(r, c, v) in &[
            (0, 0, 3.2),
            (1, 0, 1.2),
            (1, 2, 4.2),
            (2, 3, 5.1),
            (3, 0, 5.3),
            (3, 1, 3.3),
        ] {
            coo.push(r, c, v);
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn fig1_arrays_match_paper() {
        let a = fig1();
        assert_eq!(a.row_ptr(), &[0, 1, 3, 4, 6]);
        assert_eq!(a.col_ind(), &[0, 0, 2, 3, 0, 1]);
        assert_eq!(a.values(), &[3.2, 1.2, 4.2, 5.1, 5.3, 3.3]);
    }

    #[test]
    fn row_accessor_counts_nonzeros() {
        let a = fig1();
        assert_eq!(a.row_nnz(1), 2);
        let (cols, vals) = a.row(1);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[1.2, 4.2]);
    }

    #[test]
    fn dense_roundtrip() {
        let a = fig1();
        let d = a.to_dense();
        assert_eq!(Csr::from_dense(&d), a);
    }

    #[test]
    fn coo_roundtrip() {
        let a = fig1();
        assert_eq!(Csr::from_coo(&a.to_coo()), a);
    }

    #[test]
    fn csc_roundtrip_preserves_dense() {
        let a = fig1();
        assert_eq!(a.to_csc().to_dense(), a.to_dense());
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let a = fig1();
        assert_eq!(a.transpose().to_dense(), a.to_dense().transpose());
    }

    #[test]
    fn spmv_matches_dense() {
        let a = fig1();
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(a.spmv(&x), a.to_dense().spmv(&x));
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let a = fig1();
        let b = fig1().transpose();
        let c = a.spmm_inner(&b.to_csc()).unwrap().to_dense();
        let expect = a.to_dense().matmul(&b.to_dense()).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!((c.get(i, j) - expect.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn add_matches_dense_add() {
        let a = fig1();
        let b = fig1().transpose();
        let c = a.add(&b).unwrap();
        let expect = a.to_dense().add(&b.to_dense()).unwrap();
        assert_eq!(c.to_dense(), expect);
    }

    #[test]
    fn from_parts_validates() {
        // Non-monotone row_ptr.
        assert!(Csr::<f64>::from_parts(2, 2, vec![0, 2, 1], vec![0], vec![1.0]).is_err());
        // col_ind / values length mismatch.
        assert!(Csr::<f64>::from_parts(1, 2, vec![0, 1], vec![0, 1], vec![1.0]).is_err());
        // Column out of bounds.
        assert!(Csr::<f64>::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // Unsorted columns within a row.
        assert!(Csr::<f64>::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // A valid one.
        assert!(Csr::<f64>::from_parts(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn unchecked_parts_validate_lazily_with_typed_errors() {
        // The same adversarial inputs from_parts rejects, but routed
        // through the unchecked constructor: construction succeeds (the
        // trust contract), validate() reports the typed error, and the
        // verified marker stays clear.
        let cases: Vec<Csr<f64>> = vec![
            // Non-monotone row_ptr.
            Csr::from_parts_unchecked(2, 2, vec![0, 2, 1], vec![0], vec![1.0]),
            // Unsorted columns within a row.
            Csr::from_parts_unchecked(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]),
            // Duplicate column within a row.
            Csr::from_parts_unchecked(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]),
            // Column out of bounds.
            Csr::from_parts_unchecked(1, 2, vec![0, 1], vec![5], vec![1.0]),
            // row_ptr shorter than rows + 1.
            Csr::from_parts_unchecked(3, 3, vec![0, 1], vec![0], vec![1.0]),
            // row_ptr end disagrees with nnz.
            Csr::from_parts_unchecked(1, 3, vec![0, 7], vec![0], vec![1.0]),
        ];
        for (i, m) in cases.iter().enumerate() {
            assert!(!m.is_verified(), "case {i} must start unverified");
            let err = m.validate().expect_err("case must fail validation");
            assert!(
                matches!(
                    err,
                    MatrixError::InvalidStructure(_) | MatrixError::IndexOutOfBounds { .. }
                ),
                "case {i}: unexpected error {err:?}"
            );
            assert!(!m.is_verified(), "case {i} must stay unverified");
        }
    }

    #[test]
    fn validate_caches_the_verified_marker() {
        let a = fig1();
        assert!(a.is_verified(), "from_coo constructs verified");
        let parts = Csr::<f64>::from_parts_unchecked(
            a.rows(),
            a.cols(),
            a.row_ptr().to_vec(),
            a.col_ind().to_vec(),
            a.values().to_vec(),
        );
        assert!(!parts.is_verified());
        parts.validate().unwrap();
        assert!(parts.is_verified(), "success sets the cached marker");
        // Clone carries the marker; equality ignores it.
        assert!(parts.clone().is_verified());
        assert_eq!(parts, a);
        let fresh = Csr::<f64>::from_parts_unchecked(
            a.rows(),
            a.cols(),
            a.row_ptr().to_vec(),
            a.col_ind().to_vec(),
            a.values().to_vec(),
        );
        assert_eq!(fresh, parts, "equality must not consult the marker");
    }

    #[test]
    fn values_mut_rewrites_values_and_keeps_structure_and_marker() {
        let mut a = fig1();
        a.values_mut().fill(1.0);
        assert!(a.is_verified());
        assert_eq!(a.row_ptr(), fig1().row_ptr());
        assert_eq!(a.col_ind(), fig1().col_ind());
        assert_eq!(a.values(), &[1.0; 6]);
    }

    #[test]
    fn storage_matches_paper_model() {
        let a = fig1();
        // 4*(rows+1) + 4*nnz + 8*nnz = 4*5 + 4*6 + 8*6 = 92
        assert_eq!(a.storage_bytes(), 92);
    }

    #[test]
    fn empty_matrix_ok() {
        let a = Csr::<f64>::from_coo(&Coo::new(3, 3));
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.spmv(&[1.0, 1.0, 1.0]), vec![0.0; 3]);
    }

    #[test]
    fn row_dot_variants_match_spmv() {
        let a = fig1();
        let x = [1.0, 2.0, 3.0, 4.0];
        for (i, want) in a.spmv(&x).into_iter().enumerate() {
            assert!((a.row_dot(i, &x) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn cast_preserves_structure_and_truncates_values() {
        let a = fig1();
        let f = a.cast::<f32>();
        assert_eq!(f.row_ptr(), a.row_ptr());
        assert_eq!(f.col_ind(), a.col_ind());
        for (w, n) in a.values().iter().zip(f.values()) {
            assert_eq!(*n, *w as f32);
        }
        // Round-tripping back to f64 keeps structure, loses only precision.
        let back = f.cast::<f64>();
        assert_eq!(back.row_ptr(), a.row_ptr());
        for (w, b) in a.values().iter().zip(back.values()) {
            assert!((w - b).abs() < 1e-6);
        }
    }

    #[test]
    fn builder_matches_from_coo() {
        let a = fig1();
        let mut b = CsrBuilder::with_capacity(a.cols(), a.rows(), a.nnz());
        for i in 0..a.rows() {
            let (cols, vals) = a.row(i);
            b.push_row(cols, vals);
        }
        assert_eq!(b.rows(), a.rows());
        assert_eq!(b.nnz(), a.nnz());
        assert_eq!(b.finish(), a);
    }

    #[test]
    fn builder_chunk_splice_matches_row_pushes() {
        let a = fig1();
        // Two chunks: rows [0, 2) and [2, 4), as the parallel engine
        // splices them.
        let mut b = CsrBuilder::new(a.cols());
        for range in [0..2usize, 2..4] {
            let lo = a.row_ptr()[range.start] as usize;
            let hi = a.row_ptr()[range.end] as usize;
            let counts: Vec<u32> = range
                .clone()
                .map(|i| a.row_ptr()[i + 1] - a.row_ptr()[i])
                .collect();
            b.push_row_chunk(&counts, &a.col_ind()[lo..hi], &a.values()[lo..hi]);
        }
        assert_eq!(b.finish(), a);
    }

    #[test]
    fn builder_accepts_empty_rows_and_empty_matrix() {
        let mut b = CsrBuilder::<f64>::new(5);
        b.push_row(&[], &[]);
        b.push_row(&[4], &[2.0]);
        b.push_row(&[], &[]);
        let m = b.finish();
        assert_eq!((m.rows(), m.nnz()), (3, 1));
        assert_eq!(m.row_ptr(), &[0, 0, 1, 1]);
        let empty = CsrBuilder::<f64>::new(0).finish();
        assert_eq!((empty.rows(), empty.cols(), empty.nnz()), (0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn builder_rejects_unsorted_row() {
        CsrBuilder::<f64>::new(4).push_row(&[2, 1], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn builder_rejects_out_of_bounds_column() {
        CsrBuilder::<f64>::new(2).push_row(&[2], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "4294967296 non-zeros overflow")]
    fn row_pointers_past_u32_panic_instead_of_wrapping() {
        row_ptr_u32(u32::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "4294967296 non-zeros overflow")]
    fn counted_pointers_check_nnz_before_counting() {
        // The width check runs on the declared count before any line is
        // counted, so an empty walk stands in for 2^32 entries.
        counted_ptr(3, u32::MAX as usize + 1, std::iter::empty());
    }

    #[test]
    fn counted_pointers_are_the_prefix_sum_of_line_counts() {
        assert_eq!(
            counted_ptr(4, 5, [2, 0, 2, 3, 2].into_iter()),
            vec![0, 1, 1, 4, 5]
        );
        assert_eq!(counted_ptr(2, 0, std::iter::empty()), vec![0, 0, 0]);
    }

    #[test]
    fn row_pointers_up_to_u32_max_convert_exactly() {
        assert_eq!(row_ptr_u32(u32::MAX as usize), u32::MAX);
    }

    #[test]
    fn iter_visits_row_major() {
        let a = fig1();
        let order: Vec<_> = a.iter().map(|(r, c, _)| (r, c)).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
        assert_eq!(order.len(), 6);
    }
}
