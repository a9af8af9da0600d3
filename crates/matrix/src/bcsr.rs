use crate::{Csr, Dense, MatrixError, Result, Scalar};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Block Compressed Sparse Row matrix (paper’s TACO-BCSR baseline, reference 38).
///
/// The matrix is tiled into `block_rows x block_cols` dense blocks; only
/// blocks containing at least one non-zero are stored, each as a dense
/// row-major tile. This trades explicit zeros inside stored blocks for one
/// index per *block* instead of one per *element* — the same storage/compute
/// trade-off SMASH generalizes with its bitmap hierarchy.
///
/// # Example
///
/// ```
/// use smash_matrix::{Bcsr, Coo, Csr};
///
/// let mut coo = Coo::<f64>::new(4, 4);
/// coo.push(0, 0, 1.0);
/// coo.push(1, 1, 2.0); // same 2x2 block as (0,0)
/// coo.push(3, 3, 3.0);
/// let bcsr = Bcsr::from_csr(&Csr::from_coo(&coo), 2, 2).unwrap();
/// assert_eq!(bcsr.num_blocks(), 2);
/// assert_eq!(bcsr.nnz_stored(), 8); // two 2x2 tiles
/// ```
#[derive(Debug)]
pub struct Bcsr<T> {
    rows: usize,
    cols: usize,
    block_rows: usize,
    block_cols: usize,
    /// Per block-row extent into `block_col_ind`, length `ceil(rows/br) + 1`.
    block_row_ptr: Vec<u32>,
    /// Block-column index of each stored block.
    block_col_ind: Vec<u32>,
    /// Dense tiles, `block_rows * block_cols` values each, row-major.
    values: Vec<T>,
    /// Number of logical (non-padding) non-zeros.
    nnz_logical: usize,
    /// Cached result of a successful structural check (see
    /// [`Csr`](crate::Csr): same acceleration, same exclusion from
    /// `Clone` origin / `PartialEq`).
    verified: AtomicBool,
}

impl<T: Clone> Clone for Bcsr<T> {
    fn clone(&self) -> Self {
        Bcsr {
            rows: self.rows,
            cols: self.cols,
            block_rows: self.block_rows,
            block_cols: self.block_cols,
            block_row_ptr: self.block_row_ptr.clone(),
            block_col_ind: self.block_col_ind.clone(),
            values: self.values.clone(),
            nnz_logical: self.nnz_logical,
            verified: AtomicBool::new(self.verified.load(Ordering::Acquire)),
        }
    }
}

impl<T: PartialEq> PartialEq for Bcsr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.block_rows == other.block_rows
            && self.block_cols == other.block_cols
            && self.block_row_ptr == other.block_row_ptr
            && self.block_col_ind == other.block_col_ind
            && self.values == other.values
            && self.nnz_logical == other.nnz_logical
    }
}

impl<T: Scalar> Bcsr<T> {
    /// Converts a CSR matrix to BCSR with the given block shape.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if either block dimension
    /// is zero, if a block's element count overflows `usize`, or if the
    /// stored block count overflows the `u32` block pointers.
    pub fn from_csr(csr: &Csr<T>, block_rows: usize, block_cols: usize) -> Result<Self> {
        if block_rows == 0 || block_cols == 0 {
            return Err(MatrixError::InvalidStructure(
                "block dimensions must be non-zero".into(),
            ));
        }
        let rows = csr.rows();
        let cols = csr.cols();
        let n_block_rows = rows.div_ceil(block_rows);
        let block_size = block_rows.checked_mul(block_cols).ok_or_else(|| {
            MatrixError::InvalidStructure(format!(
                "{block_rows}x{block_cols} blocks overflow the element count"
            ))
        })?;

        let mut block_row_ptr = Vec::with_capacity(n_block_rows + 1);
        block_row_ptr.push(0u32);
        let mut block_col_ind = Vec::new();
        let mut values = Vec::new();

        // For each block-row, merge the member rows' columns into block
        // columns, then fill the tiles.
        let mut tile_of_block_col: Vec<(u32, usize)> = Vec::new();
        for bi in 0..n_block_rows {
            tile_of_block_col.clear();
            let r_lo = bi * block_rows;
            let r_hi = (r_lo + block_rows).min(rows);
            // Discover which block columns are occupied.
            let mut occupied: Vec<u32> = Vec::new();
            for r in r_lo..r_hi {
                let (row_cols, _) = csr.row(r);
                for &c in row_cols {
                    occupied.push(block_col_of(c, block_cols));
                }
            }
            occupied.sort_unstable();
            occupied.dedup();
            // Allocate tiles in block-column order.
            for &bc in &occupied {
                tile_of_block_col.push((bc, values.len()));
                block_col_ind.push(bc);
                values.extend(std::iter::repeat_n(T::ZERO, block_size));
            }
            // Scatter values into tiles.
            for r in r_lo..r_hi {
                let (row_cols, row_vals) = csr.row(r);
                for (&c, &v) in row_cols.iter().zip(row_vals) {
                    let bc = block_col_of(c, block_cols);
                    let tile_base = tile_of_block_col
                        .iter()
                        .find(|&&(b, _)| b == bc)
                        .expect("occupied block column must have a tile")
                        .1;
                    let local = (r - r_lo) * block_cols + (c as usize % block_cols);
                    values[tile_base + local] = v;
                }
            }
            block_row_ptr.push(block_ptr_u32(block_col_ind.len())?);
        }

        Ok(Bcsr {
            rows,
            cols,
            block_rows,
            block_cols,
            block_row_ptr,
            block_col_ind,
            values,
            nnz_logical: csr.nnz(),
            // The merge walks block columns in sorted, deduplicated order
            // per block row — the conversion establishes every invariant.
            verified: AtomicBool::new(true),
        })
    }

    /// Builds a BCSR matrix from raw parts, validating the structure.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if the arrays are
    /// inconsistent (zero block dimensions, wrong pointer/tile lengths,
    /// non-monotone `block_row_ptr`, unsorted or duplicate block columns,
    /// an impossible `nnz_logical`) and [`MatrixError::IndexOutOfBounds`]
    /// if a block column lies outside the matrix.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        rows: usize,
        cols: usize,
        block_rows: usize,
        block_cols: usize,
        block_row_ptr: Vec<u32>,
        block_col_ind: Vec<u32>,
        values: Vec<T>,
        nnz_logical: usize,
    ) -> Result<Self> {
        let m = Bcsr::from_parts_unchecked(
            rows,
            cols,
            block_rows,
            block_cols,
            block_row_ptr,
            block_col_ind,
            values,
            nnz_logical,
        );
        m.validate()?;
        Ok(m)
    }

    /// Builds a BCSR matrix from raw parts **without checking the
    /// invariants**.
    ///
    /// # Trust contract
    ///
    /// Same shape as [`Csr::from_parts_unchecked`](crate::Csr::from_parts_unchecked):
    /// the arrays are expected to satisfy everything
    /// [`Bcsr::from_parts`] checks. Violations can never cause undefined
    /// behaviour (all access is bounds-checked) but kernels may panic or
    /// compute garbage. The matrix is marked unverified, so
    /// [`Bcsr::validate`] — and the executor's `try_*` tier — reports
    /// `Err(InvalidStructure)` instead.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        block_rows: usize,
        block_cols: usize,
        block_row_ptr: Vec<u32>,
        block_col_ind: Vec<u32>,
        values: Vec<T>,
        nnz_logical: usize,
    ) -> Self {
        Bcsr {
            rows,
            cols,
            block_rows,
            block_cols,
            block_row_ptr,
            block_col_ind,
            values,
            nnz_logical,
            verified: AtomicBool::new(false),
        }
    }

    /// Whether this matrix has already passed a structural check.
    pub fn is_verified(&self) -> bool {
        self.verified.load(Ordering::Acquire)
    }

    /// Checks every BCSR invariant in O(blocks), caching success so
    /// repeated calls are O(1).
    ///
    /// # Errors
    ///
    /// Returns the same typed errors as [`Bcsr::from_parts`].
    pub fn validate(&self) -> Result<()> {
        if self.verified.load(Ordering::Acquire) {
            return Ok(());
        }
        self.check_structure()?;
        self.verified.store(true, Ordering::Release);
        Ok(())
    }

    /// The uncached structural walk behind [`Bcsr::validate`].
    fn check_structure(&self) -> Result<()> {
        if self.block_rows == 0 || self.block_cols == 0 {
            return Err(MatrixError::InvalidStructure(
                "block dimensions must be non-zero".into(),
            ));
        }
        let n_block_rows = self.rows.div_ceil(self.block_rows);
        let n_block_cols = self.cols.div_ceil(self.block_cols);
        if self.block_row_ptr.len() != n_block_rows + 1 {
            return Err(MatrixError::InvalidStructure(format!(
                "block_row_ptr length {} != block rows + 1 = {}",
                self.block_row_ptr.len(),
                n_block_rows + 1
            )));
        }
        if self.block_row_ptr.first() != Some(&0) {
            return Err(MatrixError::InvalidStructure(
                "block_row_ptr must start at 0".into(),
            ));
        }
        if *self.block_row_ptr.last().unwrap() as usize != self.block_col_ind.len() {
            return Err(MatrixError::InvalidStructure(format!(
                "block_row_ptr end {} != stored blocks {}",
                self.block_row_ptr.last().unwrap(),
                self.block_col_ind.len()
            )));
        }
        for w in self.block_row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(MatrixError::InvalidStructure(
                    "block_row_ptr must be non-decreasing".into(),
                ));
            }
        }
        let block_size = self.block_rows * self.block_cols;
        if self.values.len() != self.block_col_ind.len() * block_size {
            return Err(MatrixError::InvalidStructure(format!(
                "tile storage {} != blocks {} x block size {}",
                self.values.len(),
                self.block_col_ind.len(),
                block_size
            )));
        }
        for bi in 0..n_block_rows {
            let lo = self.block_row_ptr[bi] as usize;
            let hi = self.block_row_ptr[bi + 1] as usize;
            let row_blocks = &self.block_col_ind[lo..hi];
            for w in row_blocks.windows(2) {
                if w[0] >= w[1] {
                    return Err(MatrixError::InvalidStructure(format!(
                        "block row {bi} columns not strictly increasing"
                    )));
                }
            }
            if let Some(&bc) = row_blocks.last() {
                if bc as usize >= n_block_cols {
                    return Err(MatrixError::IndexOutOfBounds {
                        row: bi * self.block_rows,
                        col: bc as usize * self.block_cols,
                        rows: self.rows,
                        cols: self.cols,
                    });
                }
            }
        }
        if self.nnz_logical > self.values.len() {
            return Err(MatrixError::InvalidStructure(format!(
                "nnz_logical {} exceeds stored values {}",
                self.nnz_logical,
                self.values.len()
            )));
        }
        Ok(())
    }

    /// Converts back to CSR (padding zeros inside tiles are dropped).
    pub fn to_csr(&self) -> Csr<T> {
        let mut coo = crate::Coo::with_capacity(self.rows, self.cols, self.nnz_logical);
        let bs = self.block_rows * self.block_cols;
        for bi in 0..self.num_block_rows() {
            let lo = self.block_row_ptr[bi] as usize;
            let hi = self.block_row_ptr[bi + 1] as usize;
            for k in lo..hi {
                let bc = self.block_col_ind[k] as usize;
                let tile = &self.values[k * bs..(k + 1) * bs];
                for lr in 0..self.block_rows {
                    let r = bi * self.block_rows + lr;
                    if r >= self.rows {
                        break;
                    }
                    for lc in 0..self.block_cols {
                        let c = bc * self.block_cols + lc;
                        if c >= self.cols {
                            break;
                        }
                        let v = tile[lr * self.block_cols + lc];
                        if !v.is_zero() {
                            coo.push(r, c, v);
                        }
                    }
                }
            }
        }
        Csr::from_coo(&coo)
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> Dense<T> {
        self.to_csr().to_dense()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block shape as `(block_rows, block_cols)`.
    pub fn block_shape(&self) -> (usize, usize) {
        (self.block_rows, self.block_cols)
    }

    /// Number of stored blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_col_ind.len()
    }

    /// Number of block rows.
    pub fn num_block_rows(&self) -> usize {
        self.block_row_ptr.len() - 1
    }

    /// Per-block-row extent array.
    pub fn block_row_ptr(&self) -> &[u32] {
        &self.block_row_ptr
    }

    /// Block-column index of each stored block.
    pub fn block_col_ind(&self) -> &[u32] {
        &self.block_col_ind
    }

    /// Raw tile storage (stored values including explicit zeros).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Number of values physically stored (logical non-zeros plus padding
    /// zeros inside tiles).
    pub fn nnz_stored(&self) -> usize {
        self.values.len()
    }

    /// Number of logical non-zeros (as in the source matrix).
    pub fn nnz_logical(&self) -> usize {
        self.nnz_logical
    }

    /// Fraction of stored values that are logical non-zeros — the block-level
    /// analogue of the paper's "locality of sparsity".
    pub fn fill_ratio(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.nnz_logical as f64 / self.values.len() as f64
        }
    }

    /// BCSR footprint in bytes: block pointers and indices (4 bytes each)
    /// plus all stored tile values.
    pub fn storage_bytes(&self) -> usize {
        4 * self.block_row_ptr.len()
            + 4 * self.block_col_ind.len()
            + self.values.len() * std::mem::size_of::<T>()
    }

    /// Reference blocked product `y = A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn spmv(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        let mut y = vec![T::ZERO; self.rows];
        let bs = self.block_rows * self.block_cols;
        for bi in 0..self.num_block_rows() {
            let lo = self.block_row_ptr[bi] as usize;
            let hi = self.block_row_ptr[bi + 1] as usize;
            for k in lo..hi {
                let bc = self.block_col_ind[k] as usize;
                let tile = &self.values[k * bs..(k + 1) * bs];
                for lr in 0..self.block_rows {
                    let r = bi * self.block_rows + lr;
                    if r >= self.rows {
                        break;
                    }
                    let mut acc = T::ZERO;
                    for lc in 0..self.block_cols {
                        let c = bc * self.block_cols + lc;
                        if c >= self.cols {
                            break;
                        }
                        acc = tile[lr * self.block_cols + lc].mul_add(x[c], acc);
                    }
                    y[r] += acc;
                }
            }
        }
        y
    }

    /// Multiplies block row `bi` against the dense vector `x`, accumulating
    /// into `out` — the clipped output rows of this block row
    /// (`min(block_rows, rows - bi * block_rows)` entries). `out` must be
    /// zero-initialized (or hold a partial sum) by the caller.
    ///
    /// This is the per-block-row body of the blocked SpMV for every block
    /// shape but 2×2, driven by the serial [`crate::spmv_rows`] and the
    /// parallel `smash_parallel::par_spmv_rows`: per stored block, each
    /// clipped row takes one lane-striped [`crate::simd`] contiguous dot
    /// against the matching slice of `x` and adds it into `out`. A 2×2
    /// matrix runs the fixed-shape body instead, which adds the same dots
    /// in the same order into accumulators held in registers, so this
    /// body stays its bit-exact oracle. That is exactly the per-column
    /// order of [`block_row_spmm_dense`](Bcsr::block_row_spmm_dense),
    /// which is what keeps batched column `j` bit-identical to this SpMV on
    /// column `j` — under every ISA tier and thread count.
    ///
    /// # Panics
    ///
    /// Panics if `bi >= num_block_rows()`, `x.len() != cols`, or
    /// `out.len() != min(block_rows, rows - bi * block_rows)`.
    #[inline]
    pub fn block_row_spmv(&self, bi: usize, x: &[T], out: &mut [T]) {
        assert!(bi < self.num_block_rows(), "block row out of bounds");
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        let (br, bc) = (self.block_rows, self.block_cols);
        let rows_here = br.min(self.rows - bi * br);
        assert_eq!(
            out.len(),
            rows_here,
            "output must cover the clipped block row"
        );
        let bs = br * bc;
        let lo = self.block_row_ptr[bi] as usize;
        let hi = self.block_row_ptr[bi + 1] as usize;
        for k in lo..hi {
            let cbase = self.block_col_ind[k] as usize * bc;
            let lc_max = bc.min(self.cols - cbase);
            let tile = &self.values[k * bs..(k + 1) * bs];
            let xs = &x[cbase..cbase + lc_max];
            for (lr, o) in out.iter_mut().enumerate() {
                let trow = &tile[lr * bc..lr * bc + lc_max];
                *o += T::simd_dot_contiguous(trow, xs);
            }
        }
    }

    /// The blocked SpMV over block rows `g` with the block shape fixed at
    /// compile time to `BR × BC`, writing every element of `y` (the
    /// clipped rows `g.start * BR..min(g.end * BR, rows)`).
    ///
    /// Each block row keeps its `BR` output rows in local accumulators
    /// that start at zero and take, per stored block, the same
    /// [`crate::simd`] contiguous dot as [`block_row_spmv`](Bcsr::block_row_spmv)
    /// adds through memory: so the bits are the same. Full blocks dot
    /// `BC` columns, a length the compiler sees; only the last block
    /// column, clipped at `cols`, takes a shorter one. The last block row
    /// computes all `BR` rows of its zero-padded tiles and stores only
    /// those inside the matrix.
    pub(crate) fn spmv_fixed<const BR: usize, const BC: usize>(
        &self,
        g: Range<usize>,
        x: &[T],
        y: &mut [T],
    ) {
        assert_eq!(self.block_shape(), (BR, BC), "block shape mismatch");
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        let bs = BR * BC;
        let row_lo = (g.start * BR).min(self.rows);
        for bi in g {
            let (lo, hi) = (
                self.block_row_ptr[bi] as usize,
                self.block_row_ptr[bi + 1] as usize,
            );
            let tiles = self.values[lo * bs..hi * bs].chunks_exact(bs);
            let mut acc = [T::ZERO; BR];
            for (&bc, tile) in self.block_col_ind[lo..hi].iter().zip(tiles) {
                let cbase = bc as usize * BC;
                let mut add = |n: usize| {
                    let xs = &x[cbase..cbase + n];
                    for (r, a) in acc.iter_mut().enumerate() {
                        *a += T::simd_dot_contiguous(&tile[r * BC..r * BC + n], xs);
                    }
                };
                if cbase + BC <= self.cols {
                    add(BC);
                } else {
                    add(self.cols - cbase);
                }
            }
            let r0 = bi * BR - row_lo;
            let rows_here = BR.min(self.rows - bi * BR);
            for (o, a) in y[r0..r0 + rows_here].iter_mut().zip(acc) {
                *o = a;
            }
        }
    }

    /// Multiplies block row `bi` against every column of the dense
    /// right-hand-side batch `b`, accumulating into `out` — the flattened
    /// (row-major, `b.cols()`-wide) output rows of this block row, clipped
    /// to the matrix height. `out` must be zero-initialized by the caller.
    ///
    /// This is *the* per-block-row body of the batched BCSR SpMM, shared by
    /// the serial driver [`crate::spmm_dense_rows`] and the parallel
    /// `smash_parallel::par_spmm_dense_rows`. The columns of `b` are
    /// processed in register-blocked 8-wide tiles plus one tail tile;
    /// within a tile, every column follows the lane-striped per-column
    /// order of [`block_row_spmv`](Bcsr::block_row_spmv) (per stored block,
    /// a striped dot over the block's columns, then add into the output),
    /// so column `j` of the result is bit-identical to a blocked SpMV
    /// against column `j`, under every [`crate::simd`] ISA tier.
    ///
    /// # Panics
    ///
    /// Panics if `bi >= num_block_rows()` or
    /// `out.len() != min(block_rows, rows - bi * block_rows) * b.cols()`.
    #[inline]
    pub fn block_row_spmm_dense(&self, bi: usize, b: &Dense<T>, out: &mut [T]) {
        assert!(bi < self.num_block_rows(), "block row out of bounds");
        let n = b.cols();
        let (br, bc) = (self.block_rows, self.block_cols);
        let rows_here = br.min(self.rows - bi * br);
        assert_eq!(
            out.len(),
            rows_here * n,
            "output must cover the clipped block row"
        );
        let bs = br * bc;
        let lo = self.block_row_ptr[bi] as usize;
        let hi = self.block_row_ptr[bi + 1] as usize;
        for k in lo..hi {
            let cbase = self.block_col_ind[k] as usize * bc;
            let lc_max = bc.min(self.cols - cbase);
            let tile = &self.values[k * bs..(k + 1) * bs];
            for lr in 0..rows_here {
                let trow = &tile[lr * bc..lr * bc + lc_max];
                crate::axpy_dense_tiles(trow, b, cbase, &mut out[lr * n..(lr + 1) * n]);
            }
        }
    }
}

/// Converts a running stored-block count for the `u32` block row
/// pointers, returning [`MatrixError::InvalidStructure`] instead of
/// wrapping past `u32::MAX` blocks.
fn block_ptr_u32(blocks: usize) -> Result<u32> {
    u32::try_from(blocks).map_err(|_| {
        MatrixError::InvalidStructure(format!("{blocks} blocks overflow the u32 block pointers"))
    })
}

/// Block column of element column `c`. The division runs in `usize`, so a
/// `block_cols` of 2³² or more cannot truncate to a wrong (or zero)
/// divisor; the quotient is at most `c`, so narrowing it back is exact.
fn block_col_of(c: u32, block_cols: usize) -> u32 {
    (c as usize / block_cols) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample() -> Csr<f64> {
        let mut coo = Coo::new(5, 6);
        for &(r, c, v) in &[
            (0, 0, 1.0),
            (0, 5, 2.0),
            (1, 1, 3.0),
            (2, 2, 4.0),
            (3, 3, 5.0),
            (4, 0, 6.0),
            (4, 4, 7.0),
        ] {
            coo.push(r, c, v);
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn roundtrip_preserves_matrix() {
        let a = sample();
        for &(br, bc) in &[(1, 1), (2, 2), (2, 3), (4, 4), (3, 2)] {
            let b = Bcsr::from_csr(&a, br, bc).unwrap();
            assert_eq!(b.to_csr(), a, "block {br}x{bc}");
        }
    }

    #[test]
    fn one_by_one_blocks_store_no_padding() {
        let a = sample();
        let b = Bcsr::from_csr(&a, 1, 1).unwrap();
        assert_eq!(b.nnz_stored(), a.nnz());
        assert_eq!(b.fill_ratio(), 1.0);
    }

    #[test]
    fn spmv_matches_csr() {
        let a = sample();
        let x: Vec<f64> = (0..6).map(|i| i as f64 * 0.5 - 1.0).collect();
        let want = a.spmv(&x);
        for &(br, bc) in &[(2, 2), (3, 3), (2, 4)] {
            let b = Bcsr::from_csr(&a, br, bc).unwrap();
            let got = b.spmv(&x);
            for (w, g) in want.iter().zip(&got) {
                assert!((w - g).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn padding_grows_with_block_size() {
        let a = sample();
        let b2 = Bcsr::from_csr(&a, 2, 2).unwrap();
        let b4 = Bcsr::from_csr(&a, 4, 4).unwrap();
        assert!(b4.fill_ratio() <= b2.fill_ratio());
        assert_eq!(b2.nnz_logical(), a.nnz());
    }

    #[test]
    fn rejects_zero_block() {
        assert!(Bcsr::from_csr(&sample(), 0, 2).is_err());
        assert!(Bcsr::from_csr(&sample(), 2, 0).is_err());
    }

    #[test]
    fn block_shapes_past_the_index_width_error_instead_of_wrapping() {
        // The element count of one block is checked before any tile is
        // allocated.
        assert!(matches!(
            Bcsr::from_csr(&sample(), usize::MAX, 2),
            Err(MatrixError::InvalidStructure(_))
        ));
        assert_eq!(block_ptr_u32(u32::MAX as usize).unwrap(), u32::MAX);
        assert!(matches!(
            block_ptr_u32(u32::MAX as usize + 1),
            Err(MatrixError::InvalidStructure(_))
        ));
        assert_eq!(block_col_of(7, 2), 3);
        assert_eq!(block_col_of(u32::MAX, 1), u32::MAX);
        // `block_cols as u32` would have truncated 2^32 to a zero divisor
        // and 2^32 + 2 to 2.
        if let Some(wide) = 1usize.checked_shl(32) {
            assert_eq!(block_col_of(u32::MAX, wide), 0);
            assert_eq!(block_col_of(u32::MAX, wide + 2), 0);
        }
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let a = sample();
        let b = Bcsr::from_csr(&a, 2, 2).unwrap();
        assert!(b.is_verified());
        let rebuilt = Bcsr::from_parts(
            b.rows(),
            b.cols(),
            2,
            2,
            b.block_row_ptr().to_vec(),
            b.block_col_ind().to_vec(),
            b.values().to_vec(),
            b.nnz_logical(),
        )
        .unwrap();
        assert_eq!(rebuilt, b);
        assert!(rebuilt.is_verified());
    }

    #[test]
    fn unchecked_parts_validate_lazily_with_typed_errors() {
        let cases: Vec<Bcsr<f64>> = vec![
            // Zero block dimension.
            Bcsr::from_parts_unchecked(4, 4, 0, 2, vec![0, 0, 0], vec![], vec![], 0),
            // Non-monotone block_row_ptr.
            Bcsr::from_parts_unchecked(4, 4, 2, 2, vec![0, 2, 1], vec![0, 1], vec![0.0; 8], 2),
            // Unsorted block columns within a block row.
            Bcsr::from_parts_unchecked(2, 4, 2, 2, vec![0, 2], vec![1, 0], vec![0.0; 8], 2),
            // Block column out of bounds.
            Bcsr::from_parts_unchecked(2, 4, 2, 2, vec![0, 1], vec![9], vec![0.0; 4], 1),
            // Tile storage disagrees with block count.
            Bcsr::from_parts_unchecked(2, 4, 2, 2, vec![0, 1], vec![0], vec![0.0; 3], 1),
            // nnz_logical larger than anything stored.
            Bcsr::from_parts_unchecked(2, 4, 2, 2, vec![0, 1], vec![0], vec![0.0; 4], 99),
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
        }
    }

    #[test]
    fn ragged_edges_handled() {
        // 5x6 with 4x4 blocks: bottom/right blocks are clipped.
        let a = sample();
        let b = Bcsr::from_csr(&a, 4, 4).unwrap();
        assert_eq!(b.to_dense(), a.to_dense());
    }

    #[test]
    fn storage_counts_padding() {
        let a = sample();
        let b = Bcsr::from_csr(&a, 2, 2).unwrap();
        assert_eq!(
            b.storage_bytes(),
            4 * b.block_row_ptr().len() + 4 * b.num_blocks() + 8 * b.nnz_stored()
        );
    }
}
