//! Parallel drivers and kernels of the native hot paths.
//!
//! Every function here is **bit-identical** to its serial counterpart
//! (`smash_matrix::spmv_rows` / `spmm_dense_rows`) at every thread count.
//! Two properties make that hold:
//!
//! 1. the matrix is split into *contiguous* line ranges (see
//!    [`partition_by_weight`](crate::partition_by_weight)), balanced by
//!    non-zero count, and each worker writes a disjoint slice of the
//!    output, so no reduction across threads ever reorders floating-point
//!    additions; and
//! 2. within a range, each line is computed by exactly the serial loop
//!    body, in the serial order.
//!
//! The partition depends only on the matrix and the pool's thread count,
//! never on scheduling, so repeated runs are deterministic too.

use crate::partition::partition_by_weight;
use crate::pool::ThreadPool;
use smash_matrix::{Dense, RowRead, Scalar};

/// Parallel `y = A·x` over any [`RowRead`] operand — *the* parallel SpMV
/// driver of the kernel stack, for every format.
///
/// The operand's granules (rows, or block rows for BCSR) are split into
/// contiguous ranges balanced by [`RowRead::granule_weight`]; each worker
/// runs [`RowRead::spmv_granules`] — the format's exact serial loop body —
/// over its range into a disjoint slice of `y`. No reduction ever
/// reorders floating-point additions, so the result is bit-identical to
/// the serial driver `smash_matrix::spmv_rows` at every thread count.
///
/// # Panics
///
/// Panics if `x.len() != a.cols()` or `y.len() != a.rows()` (plus any
/// format-specific granule panics, e.g. column-major SMASH).
pub fn par_spmv_rows<T: Scalar, R: RowRead<T> + ?Sized>(
    pool: &ThreadPool,
    a: &R,
    x: &[T],
    y: &mut [T],
) {
    assert_eq!(x.len(), a.cols(), "x length must equal matrix cols");
    assert_eq!(y.len(), a.rows(), "y length must equal matrix rows");
    let ranges = partition_by_weight(a.granules(), pool.threads(), |g| a.granule_weight(g));
    pool.scoped(|s| {
        let mut rest = y;
        let mut consumed = 0usize;
        for range in ranges {
            // Granule range [range.start, range.end) covers matrix rows
            // [granule_row(range.start), granule_row(range.end)) — the
            // last granule of a blocked format may be clipped.
            let row_hi = a.granule_row(range.end);
            let (chunk, tail) = rest.split_at_mut(row_hi - consumed);
            consumed = row_hi;
            rest = tail;
            s.execute(move || a.spmv_granules(range, x, chunk));
        }
        // Rows beyond the last granule cannot exist for non-degenerate
        // decompositions, but guard against an all-empty operand.
        rest.fill(T::ZERO);
    });
}

/// Parallel `C = A·B` (B dense) over any [`RowRead`] operand — *the*
/// parallel dense-SpMM driver, bit-identical to
/// `smash_matrix::spmm_dense_rows` at every thread count. Workers write
/// disjoint row slabs of `C`. A single right-hand side takes the SpMV
/// driver ([`par_spmv_rows`]), as the serial driver does.
///
/// # Panics
///
/// Panics if `b.rows() != a.cols()`, `c.rows() != a.rows()`, or
/// `c.cols() != b.cols()`.
pub fn par_spmm_dense_rows<T: Scalar, R: RowRead<T> + ?Sized>(
    pool: &ThreadPool,
    a: &R,
    b: &Dense<T>,
    c: &mut Dense<T>,
) {
    assert_eq!(b.rows(), a.cols(), "inner dimensions must agree");
    assert_eq!(c.rows(), a.rows(), "output rows must equal a.rows()");
    assert_eq!(c.cols(), b.cols(), "output cols must equal b.cols()");
    if b.cols() == 1 {
        return par_spmv_rows(pool, a, b.as_slice(), c.as_mut_slice());
    }
    let n = b.cols();
    let ranges = partition_by_weight(a.granules(), pool.threads(), |g| a.granule_weight(g));
    pool.scoped(|s| {
        let mut rest = c.as_mut_slice();
        let mut consumed = 0usize;
        for range in ranges {
            let row_hi = a.granule_row(range.end);
            let (chunk, tail) = rest.split_at_mut((row_hi - consumed) * n);
            consumed = row_hi;
            rest = tail;
            s.execute(move || a.spmm_dense_granules(range, b, chunk));
        }
        rest.fill(T::ZERO);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_core::{SmashConfig, SmashMatrix};
    use smash_matrix::{generators, spmm_dense_rows, spmv_rows, Bcsr, Coo, Csr};

    fn test_vector(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect()
    }

    fn pools() -> Vec<ThreadPool> {
        [1, 2, 3, 8].map(ThreadPool::new).into_iter().collect()
    }

    #[test]
    fn par_spmv_csr_is_bit_identical_to_serial() {
        let a = generators::power_law(96, 80, 700, 1.3, 11);
        let x = test_vector(80);
        let mut want = vec![0.0; 96];
        spmv_rows(&a, &x, &mut want);
        for pool in pools() {
            let mut y = vec![1.0; 96];
            par_spmv_rows(&pool, &a, &x, &mut y);
            assert_eq!(y, want, "threads = {}", pool.threads());
        }
    }

    #[test]
    fn par_spmv_bcsr_matches_one_thread_exactly() {
        let a = generators::clustered(70, 66, 500, 5, 3);
        let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
        let x = test_vector(66);
        let mut want = vec![0.0; 70];
        spmv_rows(&bcsr, &x, &mut want);
        for pool in pools() {
            let mut y = vec![9.0; 70];
            par_spmv_rows(&pool, &bcsr, &x, &mut y);
            assert_eq!(y, want, "threads = {}", pool.threads());
        }
    }

    #[test]
    fn par_spmv_smash_matches_one_thread_exactly() {
        let a = generators::banded(90, 90, 5, 600, 7);
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4, 16]).unwrap());
        let x = test_vector(90);
        let mut want = vec![0.0; 90];
        spmv_rows(&sm, &x, &mut want);
        for pool in pools() {
            let mut y = vec![-3.0; 90];
            par_spmv_rows(&pool, &sm, &x, &mut y);
            assert_eq!(y, want, "threads = {}", pool.threads());
        }
    }

    fn test_batch(rows: usize, cols: usize) -> Dense<f64> {
        generators::dense_batch(rows, cols, 5)
    }

    #[test]
    fn par_spmm_dense_kernels_match_one_thread_exactly() {
        let a = generators::power_law(96, 80, 700, 1.3, 11);
        let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4, 16]).unwrap());
        for n in [1usize, 4, 8, 13] {
            let b = test_batch(80, n);
            let mut want = Dense::zeros(96, n);
            let mut got = Dense::zeros(96, n);

            spmm_dense_rows(&a, &b, &mut want);
            for pool in pools() {
                got.as_mut_slice().fill(f64::NAN);
                par_spmm_dense_rows(&pool, &a, &b, &mut got);
                assert_eq!(got, want, "csr, n = {n}, threads = {}", pool.threads());
            }

            spmm_dense_rows(&bcsr, &b, &mut want);
            for pool in pools() {
                got.as_mut_slice().fill(f64::NAN);
                par_spmm_dense_rows(&pool, &bcsr, &b, &mut got);
                assert_eq!(got, want, "bcsr, n = {n}, threads = {}", pool.threads());
            }

            spmm_dense_rows(&sm, &b, &mut want);
            for pool in pools() {
                got.as_mut_slice().fill(f64::NAN);
                par_spmm_dense_rows(&pool, &sm, &b, &mut got);
                assert_eq!(got, want, "smash, n = {n}, threads = {}", pool.threads());
            }
        }
    }

    #[test]
    fn par_spmm_dense_columns_match_par_spmv() {
        let a = generators::clustered(70, 66, 500, 5, 3);
        let b = test_batch(66, 8);
        let pool = ThreadPool::new(4);
        let mut c = Dense::zeros(70, 8);
        par_spmm_dense_rows(&pool, &a, &b, &mut c);
        for j in 0..8 {
            let mut y = vec![0.0; 70];
            par_spmv_rows(&pool, &a, &b.col(j), &mut y);
            assert_eq!(c.col(j), y, "column {j}");
        }
    }

    #[test]
    fn empty_matrix_is_handled_by_all_kernels() {
        let a = Csr::<f64>::from_coo(&Coo::new(16, 16));
        let pool = ThreadPool::new(4);
        let mut y = vec![5.0; 16];
        par_spmv_rows(&pool, &a, &test_vector(16), &mut y);
        assert!(y.iter().all(|&v| v == 0.0));
        let mut c = Dense::zeros(16, 3);
        c.as_mut_slice().fill(5.0);
        par_spmm_dense_rows(&pool, &a, &test_batch(16, 3), &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }
}
