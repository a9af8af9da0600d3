//! SIMD ↔ scalar exact bit-identity across the kernel stack.
//!
//! The `smash_matrix::simd` dispatch layer promises that both ISA tiers —
//! AVX2 and the portable scalar emulation — realize one
//! lane-striped accumulation order, so the *same bits* come out of every
//! kernel whichever tier executes it, at every thread count. This suite
//! pins that promise with exact `==` for `f32` and `f64` across CSR, BCSR
//! and SMASH SpMV and the batched SpMDM, driven through the process-global
//! override (`smash::matrix::simd::set_override`, the in-process twin of
//! `SMASH_SIMD`), including ragged row lengths and every RHS tile
//! remainder `n % 8 ∈ {1..7}`. Every contiguous and indexed dot shorter
//! than two vectors, which takes the unrolled short body, is pinned to the
//! looped striped order on its own.
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

/// The looped lane-striped contiguous dot, restated from the contract:
/// term `k` goes to stripe `k % LANES` (each stripe starts at `+0.0`),
/// then the stripes fold by pairwise halving. The test-side twin of the
/// library's `dot_seq_striped` emulation.
fn looped_striped_dot<T: Scalar>(a: &[T], b: &[T]) -> T {
    let lanes = T::LANES;
    let mut s = vec![T::ZERO; lanes];
    for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
        s[k % lanes] += x * y;
    }
    let mut width = lanes;
    while width > 1 {
        let half = width / 2;
        for l in 0..half {
            let v = s[l + half];
            s[l] += v;
        }
        width = half;
    }
    s[0]
}

/// The looped lane-striped indexed dot: the contiguous order over the
/// gathered terms `vals[k] * x[cols[k]]`. The test-side twin of the
/// library's `dot_indexed_striped` emulation.
fn looped_striped_indexed_dot<T: Scalar>(cols: &[u32], vals: &[T], x: &[T]) -> T {
    let gathered: Vec<T> = cols.iter().map(|&c| x[c as usize]).collect();
    looped_striped_dot(vals, &gathered)
}

/// Pins every dot shorter than `2 * LANES` — the lengths the unrolled
/// short body serves — to the looped emulation, bit for bit, under every
/// supported ISA override, for both the contiguous and the indexed dot.
/// The inputs mix inexact values whose sums round with `-0.0` products (where a plain
/// left fold and the striped `+0.0` start disagree), `±inf` (whose sums
/// give NaN) and NaN. The indexed dot reads each case's second operand
/// (plus one extra entry) as `x` through permuted, repeated and
/// last-column index patterns. A NaN result must be NaN on both sides;
/// its sign and payload are not compared, because Rust leaves them
/// unspecified for arithmetic results and the optimizer may commute an
/// addition of two NaNs.
fn assert_short_dots_match_looped<T: Scalar>(pool: &[T], bits: fn(T) -> u64) {
    let mut cases: Vec<(Vec<T>, Vec<T>)> = Vec::new();
    for len in 0..2 * T::LANES {
        // Every product `-0.0`: `-0.0 * 1` and `0 * -1`.
        let neg_zero = T::ZERO * (T::ZERO - T::ONE);
        cases.push((vec![neg_zero; len], vec![T::ONE; len + 1]));
        cases.push((vec![T::ZERO; len], vec![T::ZERO - T::ONE; len + 1]));
        // Pseudo-random picks from the pool, so each length meets zeros,
        // infinities and NaN in many stripe positions.
        let mut state = len as u64 * 0x9E37_79B9 + 1;
        for _ in 0..64 {
            let mut pick = || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                pool[(state >> 33) as usize % pool.len()]
            };
            let a: Vec<T> = (0..len).map(|_| pick()).collect();
            let b: Vec<T> = (0..len + 1).map(|_| pick()).collect();
            cases.push((a, b));
        }
        // Inexact values of mixed sign and magnitude, whose sums round, so
        // a term added into the wrong stripe or fold step changes the bits.
        for case in 0..8 {
            let term = |k: usize| {
                let v = 1.0 / (3.0 + (k * 7 + case) as f64) * [1.0, 1e4, -1e-3][(k + case) % 3];
                T::from_f64(if k.is_multiple_of(2) { v } else { -v })
            };
            let a: Vec<T> = (0..len).map(term).collect();
            let b: Vec<T> = (0..len + 1).map(|k| term(k + len)).collect();
            cases.push((a, b));
        }
    }
    let same = |got: T, want: T| {
        let nan = |v: T| v.to_f64().is_nan();
        if nan(want) {
            nan(got)
        } else {
            bits(got) == bits(want)
        }
    };
    for isa in Isa::ALL.into_iter().filter(|i| i.is_supported()) {
        with_isa(isa, || {
            for (a, b) in &cases {
                let (got, want) = (T::simd_dot_contiguous(a, b), looped_striped_dot(a, b));
                assert!(
                    same(got, want),
                    "{}: len {}, {a:?} . {b:?}: {got} vs {want}",
                    isa.name(),
                    a.len()
                );
                // `x` is `b`; its last entry only the last-column pattern
                // reaches.
                let (n, last) = (a.len() as u32, b.len() as u32 - 1);
                let patterns: [Vec<u32>; 3] = [
                    (0..n).map(|k| (k * 5 + 3) % (n + 1)).rev().collect(),
                    (0..n).map(|k| k / 2).collect(),
                    (0..n)
                        .map(|k| if k.is_multiple_of(3) { last } else { k })
                        .collect(),
                ];
                for cols in &patterns {
                    let got = T::simd_dot_indexed(cols, a, b);
                    let want = looped_striped_indexed_dot(cols, a, b);
                    assert!(
                        same(got, want),
                        "{}: len {}, cols {cols:?}, {a:?} . {b:?}: {got} vs {want}",
                        isa.name(),
                        a.len()
                    );
                }
            }
        });
    }
}

/// An out-of-range column on the short indexed path is an ordinary slice
/// panic under every tier, at every short length and stripe position.
fn assert_short_indexed_dot_panics_out_of_range<T: Scalar>() {
    for isa in Isa::ALL.into_iter().filter(|i| i.is_supported()) {
        with_isa(isa, || {
            for len in 1..2 * T::LANES {
                let x = vec![T::ONE; len];
                let vals = vec![T::ONE; len];
                for bad in 0..len {
                    let cols: Vec<u32> = (0..len as u32)
                        .map(|k| if k as usize == bad { len as u32 } else { k })
                        .collect();
                    let dot = || T::simd_dot_indexed(&cols, &vals, &x);
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(dot));
                    assert!(r.is_err(), "{}: len {len}, bad {bad}", isa.name());
                }
            }
        });
    }
}

#[test]
fn short_indexed_dot_panics_on_an_out_of_range_column() {
    assert_short_indexed_dot_panics_out_of_range::<f64>();
    assert_short_indexed_dot_panics_out_of_range::<f32>();
}

#[test]
fn short_dots_match_the_looped_striped_body() {
    let pool64 = [
        1.5,
        -2.25,
        0.0,
        -0.0,
        3.0e-300,
        -7.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1.0e300,
    ];
    assert_short_dots_match_looped::<f64>(&pool64, f64::to_bits);
    let pool32 = pool64.map(|v| v as f32);
    assert_short_dots_match_looped::<f32>(&pool32, |v| u64::from(v.to_bits()));
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
