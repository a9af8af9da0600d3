//! Native (wall-clock) kernels for the real-system experiment (paper §7.1,
//! Fig. 9).
//!
//! SpMV and batched sparse × dense SpMM have no per-format functions:
//! every format implements `smash_matrix::RowRead`, and one driver pair
//! runs its loop body — `smash_matrix::spmv_rows` / `spmm_dense_rows`
//! serially, `smash_parallel::par_spmv_rows` / `par_spmm_dense_rows` on a
//! pool, with [`Executor`](crate::Executor) choosing per call. The
//! paper's software mechanisms map onto operands:
//!
//! * TACO-CSR and MKL-CSR — a [`Csr`] operand. Both run the lane-striped
//!   [`Csr::row_dot`] row body, so their SpMV is one body;
//! * TACO-BCSR — a [`Bcsr`] operand (block-row bodies);
//! * Software-only SMASH — a [`SmashMatrix`] operand: word-level bitmap
//!   scanning with `trailing_zeros`, block-wise multiply.
//!
//! What remains here are the sparse × sparse products, whose bodies do
//! differ per mechanism: [`spmm_csr`], the branch-light [`spmm_csr_opt`]
//! (MKL-CSR stand-in), [`spmm_bcsr`] and [`spmm_smash`]. Native sparse +
//! sparse addition is [`Csr::add`], under the same cancellation policy.
//!
//! Every kernel is generic over [`Scalar`], so the same loop bodies serve
//! `f64` and `f32` (and any future precision). The hot reductions all run
//! through the lane-striped `smash_matrix::simd` dispatch layer (AVX2 or
//! scalar, chosen at runtime), whose fixed accumulation order is
//! identical at every precision *and* ISA tier — which is what lets the
//! parallel drivers in `smash-parallel` stay bit-identical for all of
//! them. See `docs/SIMD.md`.
//!
//! # Cancellation policy (sparse × sparse)
//!
//! Every sparse×sparse kernel in this workspace — [`spmm_csr`],
//! [`spmm_csr_opt`], [`spmm_bcsr`], [`spmm_smash`] and the Gustavson
//! engine in [`spgemm`](crate::spgemm) — follows one output policy:
//! **exact zeros are dropped**. An output position whose accumulated
//! value cancels to exactly `±0.0` is not stored, even when it had
//! structural hits, and a position with no structural hit is never
//! probed. Stored results therefore contain no explicit zeros, and two
//! kernels that share an accumulation order produce identical triplet
//! lists (`tests/spgemm.rs` pins this with adversarial cancelling
//! inputs).

use crate::operand::{check_smash_spmm_operands, spmm_smash_row, SmashMergeOperand};
use smash_core::SmashMatrix;
use smash_matrix::{Bcsr, Coo, Csc, Csr, Scalar};

/// Plain CSR×CSC inner-product SpMM (paper Code Listing 2).
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn spmm_csr<T: Scalar>(a: &Csr<T>, b: &Csc<T>) -> Coo<T> {
    a.spmm_inner(b).expect("dimensions checked by caller")
}

/// Optimized inner-product SpMM: skips empty rows/columns upfront and uses
/// a branch-light merge.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn spmm_csr_opt<T: Scalar>(a: &Csr<T>, b: &Csc<T>) -> Coo<T> {
    assert_eq!(a.cols(), b.rows());
    let mut c = Coo::new(a.rows(), b.cols());
    let cols: Vec<usize> = (0..b.cols()).filter(|&j| b.col_nnz(j) > 0).collect();
    for i in 0..a.rows() {
        let (ac, av) = a.row(i);
        if ac.is_empty() {
            continue;
        }
        for &j in &cols {
            let (bc, bv) = b.col(j);
            let (mut p, mut q) = (0usize, 0usize);
            let mut acc = T::ZERO;
            let mut hit = false;
            while p < ac.len() && q < bc.len() {
                let x = ac[p];
                let z = bc[q];
                if x == z {
                    acc += av[p] * bv[q];
                    hit = true;
                    p += 1;
                    q += 1;
                } else {
                    p += usize::from(x < z);
                    q += usize::from(z < x);
                }
            }
            if hit && !acc.is_zero() {
                c.push(i, j, acc);
            }
        }
    }
    c.compress();
    c
}

/// BCSR SpMM: block-index merge of `A` (BCSR) against `Bᵀ` (BCSR of the
/// transpose), dense tile product per match.
///
/// # Panics
///
/// Panics if the block shapes differ, are non-square, or the inner
/// dimensions disagree.
pub fn spmm_bcsr<T: Scalar>(a: &Bcsr<T>, bt: &Bcsr<T>) -> Coo<T> {
    let (s, s2) = a.block_shape();
    assert_eq!((s, s2), bt.block_shape(), "block shapes must agree");
    assert_eq!(s, s2, "blocks must be square");
    assert_eq!(a.cols(), bt.cols(), "inner dimensions must agree");
    let bs = s * s;
    let mut c = Coo::new(a.rows(), bt.rows());
    let mut tile = vec![T::ZERO; bs];
    // Prefilter the non-empty block rows of `bt` once (the blocked twin of
    // the `cols` prefilter in `spmm_csr_opt`): the inner loop then scans
    // O(occupied block rows) per `bi` instead of O(all block rows), which
    // is the difference between quadratic and output-sensitive work on
    // matrices whose transpose has many empty block rows.
    let occupied: Vec<usize> = (0..bt.num_block_rows())
        .filter(|&bj| bt.block_row_ptr()[bj] < bt.block_row_ptr()[bj + 1])
        .collect();
    for bi in 0..a.num_block_rows() {
        let (alo, ahi) = (
            a.block_row_ptr()[bi] as usize,
            a.block_row_ptr()[bi + 1] as usize,
        );
        if alo == ahi {
            continue;
        }
        for &bj in &occupied {
            let (blo, bhi) = (
                bt.block_row_ptr()[bj] as usize,
                bt.block_row_ptr()[bj + 1] as usize,
            );
            tile.iter_mut().for_each(|v| *v = T::ZERO);
            let mut hit = false;
            let (mut p, mut q) = (alo, blo);
            while p < ahi && q < bhi {
                match a.block_col_ind()[p].cmp(&bt.block_col_ind()[q]) {
                    std::cmp::Ordering::Equal => {
                        hit = true;
                        let ta = &a.values()[p * bs..(p + 1) * bs];
                        let tb = &bt.values()[q * bs..(q + 1) * bs];
                        for lr in 0..s {
                            for lc in 0..s {
                                let mut dot = T::ZERO;
                                for k in 0..s {
                                    dot += ta[lr * s + k] * tb[lc * s + k];
                                }
                                tile[lr * s + lc] += dot;
                            }
                        }
                        p += 1;
                        q += 1;
                    }
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                }
            }
            if hit {
                for lr in 0..s {
                    let row = bi * s + lr;
                    if row >= a.rows() {
                        break;
                    }
                    for lc in 0..s {
                        let col = bj * s + lc;
                        if col < bt.rows() && !tile[lr * s + lc].is_zero() {
                            c.push(row, col, tile[lr * s + lc]);
                        }
                    }
                }
            }
        }
    }
    c.compress();
    c
}

/// Software-only SMASH SpMM: block-granular index matching over the two
/// bitmaps (`A` row-major, `B` column-major), dense multiply per match.
///
/// # Panics
///
/// Panics if the operands are not 1-level row-major/col-major with matching
/// block sizes, or dimensions disagree.
pub fn spmm_smash<T: Scalar>(a: &SmashMatrix<T>, b: &SmashMatrix<T>) -> Coo<T> {
    check_smash_spmm_operands(a, b);
    let a_op = SmashMergeOperand::new(a);
    let b_op = SmashMergeOperand::new(b);
    let mut c = Coo::new(a.rows(), b.cols());
    for i in 0..a.rows() {
        spmm_smash_row(i, &a_op, &b_op, |j, v| c.push(i, j, v));
    }
    c.compress();
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_vector;
    use smash_core::SmashConfig;
    use smash_matrix::{generators, spmm_dense_rows, spmv_rows, Dense};

    #[test]
    fn all_native_spmv_agree() {
        let a = generators::clustered(80, 90, 700, 5, 3);
        let x = test_vector(90);
        let want = a.spmv(&x);
        let mut y = vec![0.0; 80];

        spmv_rows(&a, &x, &mut y);
        assert_close(&y, &want);

        let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
        spmv_rows(&bcsr, &x, &mut y);
        assert_close(&y, &want);

        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4, 16]).unwrap());
        spmv_rows(&sm, &x, &mut y);
        assert_close(&y, &want);
    }

    #[test]
    fn all_native_spmv_agree_in_f32() {
        // The same kernels, monomorphized to f32, against the f64 oracle.
        let a64 = generators::clustered(80, 90, 700, 5, 3);
        let a = a64.cast::<f32>();
        let x = test_vector::<f32>(90);
        let want = a64.spmv(&test_vector::<f64>(90));
        let mut y = vec![0.0f32; 80];

        let check = |y: &[f32]| {
            for (g, w) in y.iter().zip(&want) {
                assert!(g.approx_eq(f32::from_f64(*w), f32::TOLERANCE), "{g} vs {w}");
            }
        };
        spmv_rows(&a, &x, &mut y);
        check(&y);
        let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
        spmv_rows(&bcsr, &x, &mut y);
        check(&y);
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4, 16]).unwrap());
        spmv_rows(&sm, &x, &mut y);
        check(&y);
    }

    #[test]
    fn all_native_spmm_agree() {
        let a = generators::uniform(40, 50, 400, 7);
        let b = generators::uniform(50, 30, 350, 8);
        let bc = b.to_csc();
        let want = spmm_csr(&a, &bc).to_dense();

        // Compare with a tolerance: the reference uses fused multiply-adds,
        // the tuned kernels separate multiplies and adds.
        let check = |got: &smash_matrix::Dense<f64>| {
            for i in 0..want.rows() {
                for j in 0..want.cols() {
                    assert!(
                        (got.get(i, j) - want.get(i, j)).abs() < 1e-9,
                        "({i},{j}): {} vs {}",
                        got.get(i, j),
                        want.get(i, j)
                    );
                }
            }
        };
        check(&spmm_csr_opt(&a, &bc).to_dense());

        let ab = Bcsr::from_csr(&a, 2, 2).unwrap();
        let btb = Bcsr::from_csr(&b.transpose(), 2, 2).unwrap();
        check(&spmm_bcsr(&ab, &btb).to_dense());

        let sa = SmashMatrix::encode(&a, SmashConfig::row_major(&[2]).unwrap());
        let sb = SmashMatrix::encode(&b, SmashConfig::col_major(&[2]).unwrap());
        check(&spmm_smash(&sa, &sb).to_dense());
    }

    #[test]
    fn spmm_bcsr_block_diagonal_and_mostly_empty_transpose() {
        // Regression for the occupied-block-row prefilter: a block-diagonal
        // operand (every block row of the transpose holds exactly one
        // block) and a B whose transpose has almost all block rows empty
        // (entries confined to a few columns). Both shapes must match the
        // CSR reference exactly on the structural level and closely on
        // values.
        let n = 64;
        let mut diag = Coo::<f64>::new(n, n);
        for i in 0..n {
            diag.push(i, i, 1.0 + i as f64);
            diag.push(i, i ^ 1, 0.5); // fills each 2x2 diagonal block
        }
        let a = Csr::from_coo(&diag);

        let mut narrow = Coo::<f64>::new(n, n);
        for i in 0..n {
            narrow.push(i, i % 3, 2.0 + (i % 5) as f64); // cols 0..3 only
        }
        let b = Csr::from_coo(&narrow);

        for (lhs, rhs) in [(&a, &b), (&a, &a), (&b, &a)] {
            let want = spmm_csr(lhs, &rhs.to_csc()).to_dense();
            let lb = Bcsr::from_csr(lhs, 2, 2).unwrap();
            let rtb = Bcsr::from_csr(&rhs.transpose(), 2, 2).unwrap();
            let got = spmm_bcsr(&lb, &rtb).to_dense();
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        (got.get(i, j) - want.get(i, j)).abs() < 1e-9,
                        "({i},{j}): {} vs {}",
                        got.get(i, j),
                        want.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn spadd_matches_instrumented_kernel_exactly() {
        let a = generators::uniform(50, 60, 300, 3);
        let b = generators::banded(50, 60, 4, 250, 4);
        let mut e = smash_sim::CountEngine::new();
        let want = crate::spadd::spadd_csr(&mut e, &a, &b);
        assert_eq!(a.add(&b).unwrap(), want);
        // Empty + empty, and identity-like sanity.
        let z = Csr::<f64>::from_coo(&Coo::new(50, 60));
        assert_eq!(a.add(&z).unwrap(), a);
        assert_eq!(z.add(&z).unwrap().nnz(), 0);
    }

    #[test]
    fn spadd_drops_exact_cancellations() {
        // a holds +v where b holds -v at overlapping positions: the merged
        // sum is exactly ±0.0 and must not be stored.
        let mut ca = Coo::<f64>::new(4, 4);
        let mut cb = Coo::<f64>::new(4, 4);
        ca.push(1, 2, 3.5);
        cb.push(1, 2, -3.5);
        ca.push(2, 0, 1.0);
        cb.push(2, 0, 2.0);
        cb.push(3, 3, -7.0);
        let c = Csr::from_coo(&ca).add(&Csr::from_coo(&cb)).unwrap();
        assert_eq!(c.nnz(), 2, "cancelled entry must vanish");
        assert_eq!(c.row(2), (&[0u32][..], &[3.0][..]));
        assert_eq!(c.row(3), (&[3u32][..], &[-7.0][..]));
    }

    fn assert_close(y: &[f64], want: &[f64]) {
        for (a, b) in y.iter().zip(want) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    fn test_batch(rows: usize, cols: usize) -> Dense<f64> {
        generators::dense_batch(rows, cols, 5)
    }

    #[test]
    fn spmm_dense_columns_are_bit_identical_to_spmv() {
        let a = generators::clustered(80, 90, 700, 5, 3);
        // Widths that exercise the 8-wide tiles and tail tiles of 1 to 7.
        for n in [1usize, 3, 4, 7, 8, 11, 16] {
            let b = test_batch(90, n);
            let mut c = Dense::zeros(80, n);
            let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
            let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4, 16]).unwrap());
            let sm_flat = SmashMatrix::encode(&a, SmashConfig::row_major(&[4]).unwrap());

            spmm_dense_rows(&a, &b, &mut c);
            for j in 0..n {
                let x = b.col(j);
                let mut y = vec![0.0; 80];
                spmv_rows(&a, &x, &mut y);
                assert_eq!(c.col(j), y, "csr column {j} of {n}");
            }

            spmm_dense_rows(&bcsr, &b, &mut c);
            for j in 0..n {
                let x = b.col(j);
                let mut y = vec![0.0; 80];
                spmv_rows(&bcsr, &x, &mut y);
                assert_eq!(c.col(j), y, "bcsr column {j} of {n}");
            }

            for m in [&sm, &sm_flat] {
                spmm_dense_rows(m, &b, &mut c);
                for j in 0..n {
                    let x = b.col(j);
                    let mut y = vec![0.0; 80];
                    spmv_rows(m, &x, &mut y);
                    assert_eq!(c.col(j), y, "smash column {j} of {n}");
                }
            }
        }
    }

    #[test]
    fn spmm_dense_matches_dense_reference() {
        let a = generators::uniform(40, 50, 400, 7);
        let b = test_batch(50, 9);
        let want = a.to_dense().matmul(&b).unwrap();
        let mut c = Dense::zeros(40, 9);
        spmm_dense_rows(&a, &b, &mut c);
        for i in 0..40 {
            for j in 0..9 {
                assert!(
                    (c.get(i, j) - want.get(i, j)).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    c.get(i, j),
                    want.get(i, j)
                );
            }
        }
    }

    #[test]
    fn spmm_dense_overwrites_stale_output() {
        let a = generators::banded(32, 32, 3, 120, 5);
        let b = test_batch(32, 8);
        let mut c1 = Dense::zeros(32, 8);
        spmm_dense_rows(&a, &b, &mut c1);
        let mut c2 = Dense::from_vec(32, 8, vec![f64::NAN; 32 * 8]).unwrap();
        spmm_dense_rows(&a, &b, &mut c2);
        assert_eq!(c1, c2);
    }
}
