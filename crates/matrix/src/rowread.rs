//! The row-operand abstraction: one trait every matrix format implements
//! so the kernel stack can dispatch format-agnostically.
//!
//! Historically each kernel family (native serial, parallel, executor
//! `try_*`) re-stated per-format row access: a `match` over CSR / BCSR /
//! SMASH in every SpMV and SpMM body. [`RowRead`] collapses those into a
//! single definition. A format describes itself as a sequence of
//! **granules** — contiguous bands of output rows that must be computed
//! together (individual rows for CSR and row-major SMASH, block rows for
//! BCSR) — and provides the exact serial loop body for any contiguous
//! granule range. Everything else is generic:
//!
//! * [`spmv_rows`] / [`spmm_dense_rows`] run the whole granule range in
//!   order — these *are* the serial kernels;
//! * `smash_parallel::par_spmv_rows` / `par_spmm_dense_rows` partition the
//!   granules by weight and run each range on a worker, writing disjoint
//!   output slices — bit-identical to the serial drivers at every thread
//!   count because each granule is computed by the same single body.
//!
//! The granule decomposition is what makes the bit-identity contract
//! composable: a parallel driver may cut the granule sequence anywhere,
//! and every cut yields the same per-row arithmetic as the uncut serial
//! sweep.
//!
//! ```
//! use smash_matrix::{generators, spmv_rows, RowRead};
//!
//! let a = generators::uniform(64, 48, 400, 7);
//! let x = vec![1.0f64; 48];
//! let mut y = vec![0.0f64; 64];
//! spmv_rows(&a, &x, &mut y);
//!
//! // The generic driver is the serial CSR kernel: row i is row_dot(i, x).
//! for i in 0..64 {
//!     assert_eq!(y[i], a.row_dot(i, &x));
//! }
//! // Per-row (cols, vals) access works through the same trait.
//! let (mut cols, mut vals) = (Vec::new(), Vec::new());
//! a.row_into(3, &mut cols, &mut vals);
//! assert_eq!((cols.as_slice(), vals.as_slice()), a.row(3));
//! ```

use std::ops::Range;

use crate::bcsr::Bcsr;
use crate::csr::Csr;
use crate::dense::Dense;
use crate::scalar::Scalar;

/// Row-granular read access to a sparse matrix, the operand interface of
/// the kernel stack.
///
/// A format partitions its output rows into `granules()` contiguous
/// granules; granule `g` covers rows `granule_row(g)..granule_row(g + 1)`.
/// The two `*_granules` methods compute the format's exact serial kernel
/// body over any contiguous granule range, writing **every** element of
/// the output slice (either by assignment or by zero-fill + accumulate).
/// That contract is what lets serial and parallel drivers share one
/// definition per format and stay bit-identical to each other.
pub trait RowRead<T: Scalar>: Sync {
    /// Number of (logical) rows.
    fn rows(&self) -> usize;

    /// Number of (logical) columns.
    fn cols(&self) -> usize;

    /// Stored work items — true non-zeros for CSR, stored (padded) values
    /// for the blocked formats — the quantity dispatch thresholds weigh.
    fn stored_work(&self) -> usize;

    /// Number of scheduling granules. Rows for CSR and row-major SMASH,
    /// block rows for BCSR.
    fn granules(&self) -> usize;

    /// Load-balancing weight of granule `g` (its stored entry count).
    /// The parallel drivers partition granules by this weight; it must be
    /// a pure function of the matrix so partitions are deterministic.
    fn granule_weight(&self, g: usize) -> u64;

    /// First output row covered by granule `g`; `granule_row(granules())`
    /// is the total number of rows the granules cover (equal to `rows()`
    /// except for degenerate empty decompositions, whose uncovered tail
    /// the drivers zero-fill).
    fn granule_row(&self, g: usize) -> usize;

    /// Copies row `i`'s sparse entries into `cols`/`vals` (cleared first),
    /// columns strictly increasing. Blocked formats emit their *logical*
    /// row — explicit padding zeros are skipped, exactly as `decode()` /
    /// `to_csr()` would reproduce the row.
    fn row_into(&self, i: usize, cols: &mut Vec<u32>, vals: &mut Vec<T>);

    /// Computes `y = A·x` restricted to the granule range `g`. `y` covers
    /// exactly rows `granule_row(g.start)..granule_row(g.end)` and every
    /// element is written. The arithmetic must be identical to this
    /// format's serial kernel over the same rows.
    fn spmv_granules(&self, g: Range<usize>, x: &[T], y: &mut [T]);

    /// Computes `C = A·B` (B dense, row-major) restricted to the granule
    /// range `g`. `c` is the row-major slab of `C` covering rows
    /// `granule_row(g.start)..granule_row(g.end)` (length
    /// `rows_covered * b.cols()`); every element is written.
    fn spmm_dense_granules(&self, g: Range<usize>, b: &Dense<T>, c: &mut [T]);
}

impl<T: Scalar> RowRead<T> for Csr<T> {
    fn rows(&self) -> usize {
        Csr::rows(self)
    }

    fn cols(&self) -> usize {
        Csr::cols(self)
    }

    fn stored_work(&self) -> usize {
        self.nnz()
    }

    fn granules(&self) -> usize {
        Csr::rows(self)
    }

    fn granule_weight(&self, g: usize) -> u64 {
        let ptr = self.row_ptr();
        u64::from(ptr[g + 1] - ptr[g])
    }

    fn granule_row(&self, g: usize) -> usize {
        g
    }

    fn row_into(&self, i: usize, cols: &mut Vec<u32>, vals: &mut Vec<T>) {
        cols.clear();
        vals.clear();
        let (rc, rv) = self.row(i);
        cols.extend_from_slice(rc);
        vals.extend_from_slice(rv);
    }

    fn spmv_granules(&self, g: Range<usize>, x: &[T], y: &mut [T]) {
        // `row_dot` for each row, walking the `row_ptr` windows directly
        // so the loop pays no per-row `row(i)` assert and inlines down to
        // the short dot.
        let (cols, vals) = (self.col_ind(), self.values());
        let ptr = &self.row_ptr()[g.start..=g.end];
        for (out, w) in y[..g.len()].iter_mut().zip(ptr.windows(2)) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            *out = T::simd_dot_indexed(&cols[lo..hi], &vals[lo..hi], x);
        }
    }

    fn spmm_dense_granules(&self, g: Range<usize>, b: &Dense<T>, c: &mut [T]) {
        let n = b.cols();
        let lo = g.start;
        for i in g {
            self.row_spmm_dense(i, b, &mut c[(i - lo) * n..(i - lo + 1) * n]);
        }
    }
}

impl<T: Scalar> RowRead<T> for Bcsr<T> {
    fn rows(&self) -> usize {
        Bcsr::rows(self)
    }

    fn cols(&self) -> usize {
        Bcsr::cols(self)
    }

    fn stored_work(&self) -> usize {
        self.nnz_stored()
    }

    fn granules(&self) -> usize {
        self.num_block_rows()
    }

    fn granule_weight(&self, g: usize) -> u64 {
        let ptr = self.block_row_ptr();
        u64::from(ptr[g + 1] - ptr[g])
    }

    fn granule_row(&self, g: usize) -> usize {
        let (br, _) = self.block_shape();
        (g * br).min(Bcsr::rows(self))
    }

    fn row_into(&self, i: usize, cols: &mut Vec<u32>, vals: &mut Vec<T>) {
        cols.clear();
        vals.clear();
        let (br, bc) = self.block_shape();
        let bi = i / br;
        let lr = i % br;
        let ptr = self.block_row_ptr();
        for p in ptr[bi] as usize..ptr[bi + 1] as usize {
            let cbase = self.block_col_ind()[p] as usize * bc;
            let block = &self.values()[p * br * bc..(p + 1) * br * bc];
            for lc in 0..bc {
                let col = cbase + lc;
                if col >= Bcsr::cols(self) {
                    break;
                }
                let v = block[lr * bc + lc];
                if !v.is_zero() {
                    cols.push(col as u32);
                    vals.push(v);
                }
            }
        }
    }

    fn spmv_granules(&self, g: Range<usize>, x: &[T], y: &mut [T]) {
        // 2×2, the shape every benchmark, figure and planner candidate
        // blocks with, runs the fixed-shape body; its bits equal the
        // per-block-row loop below.
        if self.block_shape() == (2, 2) {
            return self.spmv_fixed::<2, 2>(g, x, y);
        }
        let (br, _) = self.block_shape();
        let rows = Bcsr::rows(self);
        let row_lo = (g.start * br).min(rows);
        y.fill(T::ZERO);
        for bi in g {
            let ylo = bi * br - row_lo;
            let yhi = ((bi + 1) * br).min(rows) - row_lo;
            self.block_row_spmv(bi, x, &mut y[ylo..yhi]);
        }
    }

    fn spmm_dense_granules(&self, g: Range<usize>, b: &Dense<T>, c: &mut [T]) {
        let (br, _) = self.block_shape();
        let rows = Bcsr::rows(self);
        let n = b.cols();
        let row_lo = (g.start * br).min(rows);
        c.fill(T::ZERO);
        for bi in g {
            let lo = bi * br - row_lo;
            let hi = ((bi + 1) * br).min(rows) - row_lo;
            self.block_row_spmm_dense(bi, b, &mut c[lo * n..hi * n]);
        }
    }
}

/// Serial `y = A·x` over any [`RowRead`] operand — *the* serial SpMV body
/// of the kernel stack. Runs every granule in order, then zero-fills any
/// rows an empty granule decomposition leaves uncovered.
///
/// # Panics
///
/// Panics if `x.len() != a.cols()` or `y.len() != a.rows()`.
pub fn spmv_rows<T: Scalar, R: RowRead<T> + ?Sized>(a: &R, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.cols(), "x length must equal matrix cols");
    assert_eq!(y.len(), a.rows(), "y length must equal matrix rows");
    let g = a.granules();
    let covered = a.granule_row(g);
    a.spmv_granules(0..g, x, &mut y[..covered]);
    y[covered..].fill(T::ZERO);
}

/// Serial `C = A·B` (B dense) over any [`RowRead`] operand — *the* serial
/// dense-SpMM body of the kernel stack. A single right-hand side takes the
/// SpMV body ([`spmv_rows`]): column `j` of the batched result is
/// bit-identical to an SpMV against column `j`, so the shortcut changes no
/// bits.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or `c` is not `a.rows() × b.cols()`.
pub fn spmm_dense_rows<T: Scalar, R: RowRead<T> + ?Sized>(a: &R, b: &Dense<T>, c: &mut Dense<T>) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(c.rows(), a.rows(), "C rows must equal A rows");
    assert_eq!(c.cols(), b.cols(), "C cols must equal B cols");
    if b.cols() == 1 {
        return spmv_rows(a, b.as_slice(), c.as_mut_slice());
    }
    let g = a.granules();
    let covered = a.granule_row(g);
    let n = b.cols();
    let slab = c.as_mut_slice();
    a.spmm_dense_granules(0..g, b, &mut slab[..covered * n]);
    slab[covered * n..].fill(T::ZERO);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn csr_driver_matches_reference_spmv() {
        let a = generators::uniform(40, 30, 250, 11);
        let x: Vec<f64> = (0..30).map(|i| i as f64 * 0.25 - 3.0).collect();
        let mut y = vec![0.0; 40];
        spmv_rows(&a, &x, &mut y);
        let want: Vec<f64> = (0..40).map(|i| a.row_dot(i, &x)).collect();
        assert_eq!(y, want);
        for (got, approx) in y.iter().zip(a.spmv(&x)) {
            assert!((got - approx).abs() < 1e-9);
        }
    }

    #[test]
    fn bcsr_driver_matches_reference_spmv() {
        let a = generators::banded(37, 41, 5, 160, 3);
        let b = Bcsr::from_csr(&a, 4, 4).unwrap();
        let x: Vec<f64> = (0..41).map(|i| (i as f64).sin()).collect();
        let mut y = vec![0.0; 37];
        spmv_rows(&b, &x, &mut y);
        let mut want = vec![0.0; 37];
        for bi in 0..b.num_block_rows() {
            let (lo, hi) = (bi * 4, ((bi + 1) * 4).min(37));
            b.block_row_spmv(bi, &x, &mut want[lo..hi]);
        }
        assert_eq!(y, want);
        for (got, approx) in y.iter().zip(b.spmv(&x)) {
            assert!((got - approx).abs() < 1e-9);
        }
    }

    #[test]
    fn bcsr_row_into_matches_to_csr() {
        let a = generators::uniform(33, 29, 300, 5);
        let b = Bcsr::from_csr(&a, 4, 2).unwrap();
        let back = b.to_csr();
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for i in 0..33 {
            b.row_into(i, &mut cols, &mut vals);
            assert_eq!((cols.as_slice(), vals.as_slice()), back.row(i), "row {i}");
        }
    }

    #[test]
    fn spmm_dense_driver_matches_dense_matmul() {
        let a = generators::uniform(24, 18, 120, 9);
        let b_cols: Vec<Vec<f64>> = (0..5)
            .map(|j| (0..18).map(|i| (i * 5 + j) as f64 * 0.5 - 2.0).collect())
            .collect();
        let b = Dense::from_columns(18, &b_cols).unwrap();
        let mut c = Dense::zeros(24, 5);
        spmm_dense_rows(&a, &b, &mut c);
        let want = a.to_dense().matmul(&b).unwrap();
        for i in 0..24 {
            for j in 0..5 {
                assert!((c.get(i, j) - want.get(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn granule_geometry_covers_all_rows() {
        let a = generators::uniform(37, 37, 200, 3);
        let b = Bcsr::from_csr(&a, 4, 4).unwrap();
        assert_eq!(RowRead::<f64>::granule_row(&a, a.granules()), 37);
        assert_eq!(
            RowRead::<f64>::granule_row(&b, RowRead::<f64>::granules(&b)),
            37
        );
    }
}
