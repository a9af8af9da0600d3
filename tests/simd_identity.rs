//! SIMD ↔ scalar exact bit-identity across the kernel stack.
//!
//! The `smash_matrix::simd` dispatch layer promises that every ISA tier —
//! AVX2, SSE4.2, and the portable scalar emulation — realizes one
//! lane-striped accumulation order, so the *same bits* come out of every
//! kernel whichever tier executes it, at every thread count. This suite
//! pins that promise with exact `==` for `f32` and `f64` across CSR, BCSR
//! and SMASH SpMV and the batched SpMDM, driven through the process-global
//! override (`smash::matrix::simd::set_override`, the in-process twin of
//! `SMASH_SIMD`), including ragged row lengths and every RHS tile
//! remainder `n % 8 ∈ {1..7}`.
//!
//! The override is process-global, so every test serializes through one
//! poison-tolerant mutex and restores `None` before releasing it.

use proptest::prelude::*;
use smash::encoding::{SmashConfig, SmashMatrix};
use smash::matrix::simd::{self, Isa};
use smash::matrix::{generators, spmm_dense_rows, spmv_rows, Bcsr, Coo, Csr, Dense, Scalar};
use smash::parallel::{par_spmm_dense_rows, par_spmv_rows, ThreadPool};
use std::sync::{Mutex, OnceLock};

/// Serializes every use of the process-global ISA override.
fn isa_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `f` with the dispatch layer forced onto `isa`, restoring the
/// default (env/detection) resolution afterwards even if `f` panics.
fn with_isa<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
    let _guard = isa_lock().lock().unwrap_or_else(|e| e.into_inner());
    simd::set_override(Some(isa));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    simd::set_override(None);
    match out {
        Ok(r) => r,
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// The vector tiers this CPU can run (empty on a scalar-only host, in
/// which case the suite still exercises the scalar emulation against
/// itself — trivially green, structurally identical).
fn vector_isas() -> Vec<Isa> {
    Isa::ALL
        .into_iter()
        .filter(|i| *i != Isa::Scalar && i.is_supported())
        .collect()
}

const THREADS: [usize; 3] = [1, 2, 8];

/// Every covered kernel's output on `a` (plus a width-`n` RHS batch),
/// under whatever ISA is currently forced: serial and parallel SpMV for
/// CSR/BCSR/SMASH, serial and parallel batched SpMDM for the same three
/// formats, at threads {1, 2, 8}. Returned flat so callers can `==` two
/// snapshots taken under different tiers.
fn snapshot<T: Scalar>(a: &Csr<T>, n: usize) -> Vec<Vec<T>> {
    let x: Vec<T> = (0..a.cols())
        .map(|c| T::from_f64(0.25 + (c % 7) as f64 * 0.125))
        .collect();
    let b = generators::dense_batch::<T>(a.cols(), n, 5);
    let bcsr = Bcsr::from_csr(a, 2, 2).expect("2x2 blocking");
    let sm = SmashMatrix::encode(a, SmashConfig::row_major(&[2, 4]).expect("ratios"));
    let mut out = Vec::new();

    let mut y = vec![T::ZERO; a.rows()];
    spmv_rows(a, &x, &mut y);
    out.push(y.clone());
    spmv_rows(&bcsr, &x, &mut y);
    out.push(y.clone());
    spmv_rows(&sm, &x, &mut y);
    out.push(y.clone());

    let mut c = Dense::zeros(a.rows(), n);
    spmm_dense_rows(a, &b, &mut c);
    out.push(c.as_slice().to_vec());
    spmm_dense_rows(&bcsr, &b, &mut c);
    out.push(c.as_slice().to_vec());
    spmm_dense_rows(&sm, &b, &mut c);
    out.push(c.as_slice().to_vec());

    for t in THREADS {
        let pool = ThreadPool::new(t);
        par_spmv_rows(&pool, a, &x, &mut y);
        out.push(y.clone());
        par_spmv_rows(&pool, &bcsr, &x, &mut y);
        out.push(y.clone());
        par_spmv_rows(&pool, &sm, &x, &mut y);
        out.push(y.clone());
        par_spmm_dense_rows(&pool, a, &b, &mut c);
        out.push(c.as_slice().to_vec());
        par_spmm_dense_rows(&pool, &bcsr, &b, &mut c);
        out.push(c.as_slice().to_vec());
        par_spmm_dense_rows(&pool, &sm, &b, &mut c);
        out.push(c.as_slice().to_vec());
    }
    out
}

/// Asserts the full kernel snapshot is bit-identical between the forced
/// scalar emulation and every supported vector tier, for both precisions.
fn assert_isa_identity(a64: &Csr<f64>, n: usize) {
    let a32 = a64.cast::<f32>();
    let want64 = with_isa(Isa::Scalar, || snapshot(a64, n));
    let want32 = with_isa(Isa::Scalar, || snapshot(&a32, n));
    for isa in vector_isas() {
        let got64 = with_isa(isa, || snapshot(a64, n));
        assert!(
            got64 == want64,
            "f64 snapshot diverged between scalar and {} (rhs width {n})",
            isa.name()
        );
        let got32 = with_isa(isa, || snapshot(&a32, n));
        assert!(
            got32 == want32,
            "f32 snapshot diverged between scalar and {} (rhs width {n})",
            isa.name()
        );
    }
}

/// A matrix with adversarially ragged rows: row `i` holds `i % 13` + a
/// few long outliers, so every dot-product chunk remainder (len % 8 and
/// % 4) occurs, including empty rows.
fn ragged(rows: usize, cols: usize) -> Csr<f64> {
    let mut coo = Coo::new(rows, cols);
    for i in 0..rows {
        let len = if i % 17 == 3 { cols.min(67) } else { i % 13 };
        for k in 0..len {
            let c = (i * 31 + k * 7) % cols;
            coo.push(i, c, (i as f64 - 3.0) * 0.25 + k as f64 * 0.0625);
        }
    }
    coo.compress();
    Csr::from_coo(&coo)
}

#[test]
fn ragged_rows_identical_across_isas_at_every_tile_remainder() {
    let a = ragged(37, 41);
    // n % 8 ∈ {1..7} plus the pure-8 and 8+4 widths and a single column.
    for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16] {
        assert_isa_identity(&a, n);
    }
}

#[test]
fn structured_matrices_identical_across_isas() {
    for a in [
        generators::banded(48, 48, 2, 500, 3),
        generators::uniform(53, 29, 600, 9),
        generators::power_law(64, 64, 900, 1.2, 11),
    ] {
        assert_isa_identity(&a, 10);
    }
}

#[test]
fn empty_and_tiny_matrices_identical_across_isas() {
    assert_isa_identity(&Csr::from_coo(&Coo::new(3, 5)), 9);
    let mut coo = Coo::new(1, 1);
    coo.push(0, 0, -2.5);
    assert_isa_identity(&Csr::from_coo(&coo), 3);
}

#[test]
fn forced_scalar_equals_default_resolution_when_host_is_scalar_only() {
    // On a vector-capable host the default resolution is a vector tier and
    // this compares vector vs vector (trivially equal); on a scalar-only
    // host it pins that the `SMASH_SIMD=scalar` CI pass sees the same bits
    // as unforced runs. Either way the snapshot must be stable.
    let a = ragged(20, 23);
    let _guard = isa_lock().lock().unwrap_or_else(|e| e.into_inner());
    simd::set_override(None);
    let default_run = snapshot(&a, 7);
    drop(_guard);
    let forced = with_isa(simd::active(), || snapshot(&a, 7));
    assert!(
        forced == default_run,
        "forcing the active tier changed bits"
    );
}

/// Arbitrary sparse matrix (same strategy family as tests/properties.rs).
fn arb_matrix() -> impl Strategy<Value = Csr<f64>> {
    (1usize..40, 1usize..40)
        .prop_flat_map(|(r, c)| {
            let entries =
                proptest::collection::vec((0..r, 0..c, 1u32..1000u32), 0..(r * c).min(160));
            (Just(r), Just(c), entries)
        })
        .prop_map(|(r, c, entries)| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in entries {
                coo.push(i, j, v as f64 / 16.0 - 20.0);
            }
            coo.compress();
            Csr::from_coo(&coo)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_simd_scalar_identity(a in arb_matrix(), n in 1usize..18) {
        assert_isa_identity(&a, n);
    }
}
