//! Every mechanism must compute bit-for-bit comparable results on every
//! workload family: the instrumented kernels, the native kernels and the
//! dense reference all agree — at both precisions. The `f32` pipeline is
//! checked against the `f64` oracle within the `Scalar`-defined tolerance,
//! and the executor's `Auto` dispatch is pinned bit-for-bit to the
//! explicit serial kernels.

use proptest::prelude::*;
use smash::encoding::{SmashConfig, SmashMatrix};
use smash::kernels::{harness, native, test_vector, Executor, Mechanism};
use smash::matrix::{generators, spmv_rows, Bcsr, Coo, Csr, Scalar};
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
