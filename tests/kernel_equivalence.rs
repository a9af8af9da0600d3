//! Every mechanism must compute bit-for-bit comparable results on every
//! workload family: the instrumented kernels, the native kernels and the
//! dense reference all agree — at both precisions. The `f32` pipeline is
//! checked against the `f64` oracle within the `Scalar`-defined tolerance,
//! and the executor's `Auto` dispatch is pinned bit-for-bit to the
//! explicit serial kernels. The fixed-shape block bodies (BCSR 2×2, SMASH
//! block sizes 2, 4 and 8) are pinned bit-for-bit to the generic
//! per-block order they stand in for.

use proptest::prelude::*;
use smash::encoding::{block_dot, SmashConfig, SmashMatrix};
use smash::kernels::{harness, native, test_vector, Executor, Mechanism};
use smash::matrix::{generators, spmm_dense_rows, spmv_rows, Bcsr, Coo, Csr, Dense, Scalar};
use smash::parallel::{par_spmm_dense_rows, par_spmv_rows, ThreadPool};
use smash::sim::CountEngine;

fn families() -> Vec<(&'static str, Csr<f64>)> {
    vec![
        ("uniform", generators::uniform(72, 64, 500, 1)),
        ("banded", generators::banded(64, 64, 4, 380, 2)),
        ("clustered", generators::clustered(60, 72, 450, 6, 3)),
        ("block_dense", generators::block_dense(64, 64, 512, 8, 4)),
        ("power_law", generators::power_law(64, 64, 480, 1.2, 5)),
        ("diagonal", generators::diagonal(64, 2.5)),
        ("empty", Csr::from_coo(&smash::matrix::Coo::new(32, 32))),
    ]
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 * (1.0 + b.abs())
}

#[test]
fn spmv_all_mechanisms_match_dense_reference() {
    let cfg = SmashConfig::row_major(&[2, 4]).expect("valid");
    for (name, a) in families() {
        let x = test_vector(a.cols());
        let want = a.to_dense().spmv(&x);
        for mech in Mechanism::ALL {
            let mut e = CountEngine::new();
            let y = harness::run_spmv(&mut e, mech, &a, &cfg);
            for (g, w) in y.iter().zip(&want) {
                assert!(close(*g, *w), "{name}/{mech}: {g} vs {w}");
            }
        }
    }
}

#[test]
fn spmm_all_mechanisms_match_dense_reference() {
    let cfg = SmashConfig::row_major(&[2]).expect("valid");
    for (name, a) in families() {
        if a.nnz() == 0 {
            continue;
        }
        let b = generators::uniform(a.cols(), 40, 300, 9);
        let want = a.to_dense().matmul(&b.to_dense()).expect("conforming dims");
        for mech in Mechanism::ALL {
            let mut e = CountEngine::new();
            let c = harness::run_spmm(&mut e, mech, &a, &b, &cfg).to_dense();
            for i in 0..want.rows() {
                for j in 0..want.cols() {
                    assert!(
                        close(c.get(i, j), want.get(i, j)),
                        "{name}/{mech} at ({i},{j})"
                    );
                }
            }
        }
    }
}

#[test]
fn native_kernels_match_instrumented_kernels() {
    for (name, a) in families() {
        let x = test_vector(a.cols());
        let want = a.spmv(&x);
        let mut y = vec![0.0; a.rows()];
        spmv_rows(&a, &x, &mut y);
        for (g, w) in y.iter().zip(&want) {
            assert!(close(*g, *w), "{name} native csr");
        }
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4, 16]).expect("valid"));
        spmv_rows(&sm, &x, &mut y);
        for (g, w) in y.iter().zip(&want) {
            assert!(close(*g, *w), "{name} native smash");
        }
    }
}

/// Arbitrary sparse matrix in f64 (the oracle precision); tests cast it
/// down to f32 to drive the reduced-precision pipeline.
fn arb_matrix() -> impl Strategy<Value = Csr<f64>> {
    (1usize..40, 1usize..40)
        .prop_flat_map(|(r, c)| {
            let entries =
                proptest::collection::vec((0..r, 0..c, 1u32..1000u32), 0..(r * c).min(120));
            (Just(r), Just(c), entries)
        })
        .prop_map(|(r, c, entries)| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in entries {
                coo.push(i, j, v as f64 / 16.0);
            }
            coo.compress();
            Csr::from_coo(&coo)
        })
}

/// The f32 pipeline (every native kernel family + the instrumented
/// harness) must match the f64 oracle within `f32::TOLERANCE`.
fn assert_f32_matches_f64_oracle(a64: &Csr<f64>) {
    let a = a64.cast::<f32>();
    let x64 = test_vector::<f64>(a64.cols());
    let x = test_vector::<f32>(a.cols());
    let want = a64.spmv(&x64);
    let check = |y: &[f32], what: &str| {
        for (g, w) in y.iter().zip(&want) {
            assert!(
                g.approx_eq(f32::from_f64(*w), f32::TOLERANCE),
                "{what}: {g} vs {w}"
            );
        }
    };

    let mut y = vec![0.0f32; a.rows()];
    spmv_rows(&a, &x, &mut y);
    check(&y, "native csr");
    let bcsr = Bcsr::from_csr(&a, 2, 2).expect("valid blocking");
    spmv_rows(&bcsr, &x, &mut y);
    check(&y, "native bcsr");
    let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4]).expect("valid"));
    spmv_rows(&sm, &x, &mut y);
    check(&y, "native smash");

    // The instrumented mechanisms, monomorphized to f32.
    let cfg = SmashConfig::row_major(&[2, 4]).expect("valid");
    for mech in Mechanism::ALL {
        let mut e = CountEngine::new();
        let y = harness::run_spmv(&mut e, mech, &a, &cfg);
        check(&y, mech.label());
    }

    // SpMM: f32 product vs the f64 oracle, densified.
    if a64.nnz() > 0 && a64.cols() > 0 {
        let b64 = generators::uniform(a64.cols(), 16, 2 * a64.cols().max(8), 3);
        let b = b64.cast::<f32>();
        let want = a64.spmm_inner(&b64.to_csc()).expect("dims").to_dense();
        let got = native::spmm_csr(&a, &b.to_csc()).to_dense();
        for i in 0..want.rows() {
            for j in 0..want.cols() {
                assert!(
                    got.get(i, j)
                        .approx_eq(f32::from_f64(want.get(i, j)), f32::TOLERANCE),
                    "spmm ({i},{j}): {} vs {}",
                    got.get(i, j),
                    want.get(i, j)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn f32_pipeline_matches_f64_oracle_on_arbitrary_matrices(a in arb_matrix()) {
        assert_f32_matches_f64_oracle(&a);
    }
}

#[test]
fn f32_pipeline_matches_f64_oracle_on_families() {
    for (_, a) in families() {
        assert_f32_matches_f64_oracle(&a);
    }
}

/// The SMASH block-merge SpMM, monomorphized to f32 over the flat `[2]`
/// operands it takes, matches the f64 oracle within `f32::TOLERANCE`.
#[test]
fn f32_spmm_smash_matches_f64_oracle_on_families() {
    for (name, a64) in families() {
        let b64 = generators::uniform(a64.cols(), 16, 2 * a64.cols().max(8), 3);
        let want = a64.spmm_inner(&b64.to_csc()).expect("dims").to_dense();
        let flat = SmashConfig::row_major(&[2]).expect("valid");
        let sa = SmashMatrix::encode(&a64.cast::<f32>(), flat);
        let sb = SmashMatrix::encode(
            &b64.cast::<f32>(),
            SmashConfig::col_major(&[2]).expect("valid"),
        );
        let got = native::spmm_smash(&sa, &sb).to_dense();
        for i in 0..want.rows() {
            for j in 0..want.cols() {
                assert!(
                    got.get(i, j)
                        .approx_eq(f32::from_f64(want.get(i, j)), f32::TOLERANCE),
                    "{name} ({i},{j}): {} vs {}",
                    got.get(i, j),
                    want.get(i, j)
                );
            }
        }
    }
}

/// `Executor::auto` must produce bit-identical output to the explicit
/// serial kernel of each format, at both precisions — the executor is a
/// dispatcher, never a rounding change.
#[test]
fn executor_auto_is_bit_identical_to_explicit_kernels() {
    fn check<T: Scalar>(a: &Csr<T>) {
        let exec = Executor::auto();
        let x = test_vector::<T>(a.cols());
        let mut got = vec![T::ZERO; a.rows()];
        let mut want = vec![T::ZERO; a.rows()];

        exec.spmv(a, &x, &mut got);
        spmv_rows(a, &x, &mut want);
        assert!(got == want, "csr auto != serial");

        let bcsr = Bcsr::from_csr(a, 2, 2).expect("valid blocking");
        exec.spmv(&bcsr, &x, &mut got);
        spmv_rows(&bcsr, &x, &mut want);
        assert!(got == want, "bcsr auto != serial");

        let sm = SmashMatrix::encode(a, SmashConfig::row_major(&[2, 4]).expect("valid"));
        exec.spmv(&sm, &x, &mut got);
        spmv_rows(&sm, &x, &mut want);
        assert!(got == want, "smash auto != serial");

        let bt = a.transpose();
        assert!(
            exec.spgemm(a, &bt).to_coo().entries() == native::spmm_csr(a, &bt.to_csc()).entries(),
            "spgemm auto != serial"
        );
        let cfg = SmashConfig::row_major(&[2, 4]).expect("valid");
        let (sm_try, _) = exec.try_encode(a, cfg.clone()).expect("clean input");
        assert!(
            sm_try == SmashMatrix::encode(a, cfg),
            "try_encode auto != serial"
        );
    }
    // Both a small (serial-dispatch) and a large (parallel-dispatch)
    // operand, in both precisions.
    for a in [
        generators::uniform(48, 48, 400, 3),
        generators::clustered(256, 256, 24_000, 5, 7),
    ] {
        check(&a);
        check(&a.cast::<f32>());
    }
}

#[test]
fn spmv_instruction_ordering_matches_paper_ranking() {
    // On a mid-density clustered matrix the paper's Fig. 11 ordering holds:
    // SMASH < BCSR/SW-SMASH < CSR in executed instructions.
    let a = generators::clustered(256, 256, 4000, 6, 21);
    let cfg = SmashConfig::row_major(&[2, 4, 16]).expect("valid");
    let csr = harness::count_spmv(Mechanism::TacoCsr, &a, &cfg).instructions();
    let smash = harness::count_spmv(Mechanism::Smash, &a, &cfg).instructions();
    let sw = harness::count_spmv(Mechanism::SwSmash, &a, &cfg).instructions();
    let ideal = harness::count_spmv(Mechanism::IdealCsr, &a, &cfg).instructions();
    assert!(smash < csr, "smash {smash} !< csr {csr}");
    assert!(sw < csr, "sw {sw} !< csr {csr}");
    assert!(smash < sw, "smash {smash} !< sw {sw}");
    assert!(ideal < csr, "ideal {ideal} !< csr {csr}");
}

// ---------------------------------------------------------------------
// Fixed-shape block bodies. BCSR 2×2 and SMASH block sizes 2, 4 and 8
// run bodies whose block shape is a compile-time constant; each must
// reproduce, bit for bit, the per-block order of the generic body it
// stands in for.
// ---------------------------------------------------------------------

/// Bit patterns of `v`, so that `-0.0` and `+0.0` compare unequal.
fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
    v.iter().map(|e| e.to_f64().to_bits()).collect()
}

/// The generic per-block-row BCSR order: zero-filled rows, then
/// `block_row_spmv` on every block row.
fn bcsr_block_row_oracle<T: Scalar>(b: &Bcsr<T>, x: &[T]) -> Vec<T> {
    let (br, _) = b.block_shape();
    let mut y = vec![T::ZERO; b.rows()];
    for bi in 0..b.num_block_rows() {
        let lo = bi * br;
        b.block_row_spmv(bi, x, &mut y[lo..(lo + br).min(b.rows())]);
    }
    y
}

/// `a` blocked 2×2, with every stored tile value of each row in
/// `neg_zero_rows` replaced by `-0.0`, padding included.
fn bcsr_2x2_with_neg_zero_rows<T: Scalar>(a: &Csr<T>, neg_zero_rows: &[usize]) -> Bcsr<T> {
    let b = Bcsr::from_csr(a, 2, 2).expect("2x2 blocking");
    let mut values = b.values().to_vec();
    let ptr = b.block_row_ptr();
    for &r in neg_zero_rows.iter().filter(|&&r| r < a.rows()) {
        let (bi, lr) = (r / 2, r % 2);
        for k in ptr[bi] as usize..ptr[bi + 1] as usize {
            values[k * 4 + lr * 2..k * 4 + lr * 2 + 2].fill(T::from_f64(-0.0));
        }
    }
    Bcsr::from_parts(
        a.rows(),
        a.cols(),
        2,
        2,
        ptr.to_vec(),
        b.block_col_ind().to_vec(),
        values,
        b.nnz_logical(),
    )
    .expect("same structure")
}

/// A dense vector that mixes signed zeros with non-zero values.
fn signed_zero_vector<T: Scalar>(n: usize) -> Vec<T> {
    (0..n)
        .map(|c| match c % 5 {
            0 => T::from_f64(-0.0),
            1 => T::ZERO,
            k => T::from_f64(k as f64 * 0.75 - 2.0),
        })
        .collect()
}

/// The 2×2 body equals the per-block-row order serially and through the
/// parallel driver at 1, 2 and 8 threads.
fn assert_bcsr_2x2_matches_block_rows<T: Scalar>(a: &Csr<T>, neg_zero_rows: &[usize]) {
    let b = bcsr_2x2_with_neg_zero_rows(a, neg_zero_rows);
    let pools: Vec<ThreadPool> = [1, 2, 8].into_iter().map(ThreadPool::new).collect();
    for x in [
        test_vector::<T>(a.cols()),
        signed_zero_vector::<T>(a.cols()),
    ] {
        let want = bits(&bcsr_block_row_oracle(&b, &x));
        let mut y = vec![T::ONE; a.rows()];
        spmv_rows(&b, &x, &mut y);
        assert_eq!(bits(&y), want, "serial 2x2 body");
        for pool in &pools {
            y.fill(T::ONE);
            par_spmv_rows(pool, &b, &x, &mut y);
            assert_eq!(bits(&y), want, "2x2 body at {} threads", pool.threads());
        }
    }
}

/// Arbitrary matrix whose row and column counts cover both parities, so
/// the clipped last block row and block column both occur.
fn arb_blockable() -> impl Strategy<Value = (Csr<f64>, Vec<usize>)> {
    (1usize..34, 1usize..34)
        .prop_flat_map(|(r, c)| {
            let entries =
                proptest::collection::vec((0..r, 0..c, 1u32..1000u32), 0..(r * c).min(150));
            let neg = proptest::collection::vec(0..r, 0..4);
            (Just(r), Just(c), entries, neg)
        })
        .prop_map(|(r, c, entries, neg)| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in entries {
                coo.push(i, j, v as f64 / 16.0 - 30.0);
            }
            coo.compress();
            (Csr::from_coo(&coo), neg)
        })
}

/// The generic SMASH row order, read independently of the line walk it
/// checks: the hierarchy's depth-first scan of its occupied blocks, block
/// `n` owning NZA ordinal `n`, with one `block_dot` per block into its
/// row, the last block clipped at `cols`.
fn smash_cursor_oracle<T: Scalar>(sm: &SmashMatrix<T>, x: &[T]) -> Vec<T> {
    let b0 = sm.config().block_size();
    let bpl = sm.blocks_per_line();
    let nza = sm.nza().values();
    let mut y = vec![T::ZERO; sm.rows()];
    for (ordinal, logical) in sm.hierarchy().blocks().enumerate() {
        let (row, col) = (logical / bpl, (logical % bpl) * b0);
        let n = b0.min(sm.cols() - col);
        y[row] += block_dot(&nza[ordinal * b0..], x, col, n);
    }
    y
}

/// SpMV and `spmm_dense` at 1, 3 and 8 right-hand sides, serial and
/// parallel, each equal to the cursor oracle (column by column for SpMM).
fn assert_smash_matches_cursor_oracle<T: Scalar>(a: &Csr<T>, ratios: &[u32]) {
    let sm = SmashMatrix::encode(a, SmashConfig::row_major(ratios).expect("valid ratios"));
    let pool = ThreadPool::new(3);
    let x = signed_zero_vector::<T>(a.cols());
    let want = bits(&smash_cursor_oracle(&sm, &x));
    let mut y = vec![T::ONE; a.rows()];
    spmv_rows(&sm, &x, &mut y);
    assert_eq!(bits(&y), want, "SpMV, ratios {ratios:?}");
    y.fill(T::ONE);
    par_spmv_rows(&pool, &sm, &x, &mut y);
    assert_eq!(bits(&y), want, "parallel SpMV, ratios {ratios:?}");
    for n in [1, 3, 8] {
        let b = generators::dense_batch::<T>(a.cols(), n, 7);
        let mut c = Dense::zeros(a.rows(), n);
        spmm_dense_rows(&sm, &b, &mut c);
        let mut cp = Dense::zeros(a.rows(), n);
        par_spmm_dense_rows(&pool, &sm, &b, &mut cp);
        for j in 0..n {
            let want = bits(&smash_cursor_oracle(&sm, &b.col(j)));
            assert_eq!(
                bits(&c.col(j)),
                want,
                "spmm_dense {n} RHS col {j}, {ratios:?}"
            );
            assert_eq!(
                bits(&cp.col(j)),
                want,
                "parallel spmm_dense {n} RHS col {j}"
            );
        }
    }
}

#[test]
fn bcsr_2x2_body_matches_block_rows_on_families() {
    for (_, a) in families() {
        for neg in [&[][..], &[0, 3, 5]] {
            assert_bcsr_2x2_matches_block_rows(&a, neg);
            assert_bcsr_2x2_matches_block_rows(&a.cast::<f32>(), neg);
        }
    }
}

#[test]
fn smash_block_size_arms_match_cursor_oracle() {
    // 37 columns: not a multiple of 2, 3, 4 or 8, so every row's last
    // block is clipped. Block size 3 runs the runtime-length arm.
    let a = generators::clustered(41, 37, 500, 6, 9);
    for ratios in [&[2u32][..], &[2, 4], &[4, 2], &[8], &[8, 8], &[3], &[3, 4]] {
        assert_smash_matches_cursor_oracle(&a, ratios);
        assert_smash_matches_cursor_oracle(&a.cast::<f32>(), ratios);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_bcsr_2x2_body_matches_block_rows(case in arb_blockable()) {
        let (a, neg) = case;
        assert_bcsr_2x2_matches_block_rows(&a, &neg);
        assert_bcsr_2x2_matches_block_rows(&a.cast::<f32>(), &neg);
    }

    #[test]
    fn prop_smash_block_size_arms_match_cursor_oracle(case in arb_blockable(), arm in 0usize..4) {
        let b0 = [2u32, 4, 8, 3][arm];
        assert_smash_matches_cursor_oracle(&case.0, &[b0]);
        assert_smash_matches_cursor_oracle(&case.0.cast::<f32>(), &[b0, 4]);
    }
}
