//! The Gustavson SpGEMM engine pinned against the inner-product oracle:
//! triplet-exact equality (not tolerance) at every thread count and both
//! precisions, the shared drop-exact-zeros cancellation policy across
//! every sparse × sparse kernel, the structural edge cases, and the
//! masked product pinned to the unmasked one restricted to the mask.

use proptest::prelude::*;
use smash::encoding::{SmashConfig, SmashMatrix};
use smash::kernels::{native, spgemm};
use smash::matrix::{generators, Coo, Csr, Scalar};
use smash::parallel::ThreadPool;
use smash::{Degradation, Executor, MemoryBudget, SmashError};

/// The oracle: `Csr::spmm_inner`'s triplet list — per (i, j), the
/// ascending-k `mul_add` fold over the structural intersection, exact
/// zeros dropped.
fn oracle<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Vec<(u32, u32, T)> {
    a.spmm_inner(&b.to_csc()).unwrap().entries().to_vec()
}

fn engine_entries<T: Scalar>(c: &Csr<T>) -> Vec<(u32, u32, T)> {
    c.to_coo().entries().to_vec()
}

/// Sparse matrix with integer-valued (hence exactly representable,
/// order-independent) entries, including negatives so products cancel.
fn arb_matrix(
    rows: core::ops::Range<usize>,
    cols: core::ops::Range<usize>,
) -> impl Strategy<Value = Csr<f64>> {
    (rows, cols)
        .prop_flat_map(|(r, c)| {
            let entries = proptest::collection::vec((0..r, 0..c, -8i32..9), 0..(r * c).min(220));
            (Just(r), Just(c), entries)
        })
        .prop_map(|(r, c, entries)| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in entries {
                coo.push(i, j, v as f64);
            }
            coo.compress();
            Csr::from_coo(&coo)
        })
}

/// A linked pair `(A: r×k, B: k×c)` with conforming inner dimension.
fn arb_pair() -> impl Strategy<Value = (Csr<f64>, Csr<f64>)> {
    (1usize..40).prop_flat_map(|k| (arb_matrix(1..40, k..k + 1), arb_matrix(k..k + 1, 1..40)))
}

/// A linked pair plus a mask of the product's shape.
fn arb_masked() -> impl Strategy<Value = (Csr<f64>, Csr<f64>, Csr<f64>)> {
    arb_pair().prop_flat_map(|(a, b)| {
        let (r, c) = (a.rows(), b.cols());
        (Just(a), Just(b), arb_matrix(r..r + 1, c..c + 1))
    })
}

/// `(row, column, value bits)` of every entry of `c`, or of those stored
/// at a position of `mask` when one is given.
fn entry_bits<T: Scalar>(c: &Csr<T>, mask: Option<&Csr<T>>) -> Vec<(u32, u32, u64)> {
    c.iter()
        .filter(|&(i, j, _)| mask.is_none_or(|m| m.row(i).0.binary_search(&(j as u32)).is_ok()))
        .map(|(i, j, v)| (i as u32, j as u32, v.to_f64().to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance pin: `Executor::spgemm` output is `==` (exact
    /// triplets, not approximately) to the inner-product oracle at
    /// threads {1, 2, 8}, in both precisions.
    #[test]
    fn engine_is_triplet_exact_to_the_oracle_at_all_thread_counts(pair in arb_pair()) {
        let (a, b) = pair;
        let want = oracle(&a, &b);
        prop_assert_eq!(&engine_entries(&spgemm::spgemm(&a, &b, None)), &want);
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let c = spgemm::par_spgemm(&pool, &a, &b, None);
            prop_assert_eq!(&engine_entries(&c), &want, "threads={}", threads);
        }

        // Same pin at f32: integer-valued entries stay exact.
        let (a32, b32) = (a.cast::<f32>(), b.cast::<f32>());
        let want32 = oracle(&a32, &b32);
        prop_assert_eq!(&engine_entries(&spgemm::spgemm(&a32, &b32, None)), &want32);
        for threads in [2usize, 8] {
            let pool = ThreadPool::new(threads);
            let c = spgemm::par_spgemm(&pool, &a32, &b32, None);
            prop_assert_eq!(&engine_entries(&c), &want32, "threads={}", threads);
        }
    }

    /// Adversarial cancellation: integer entries with both signs make
    /// exact cancellation common. Every sparse × sparse kernel must
    /// apply the same policy — drop positions whose accumulation
    /// cancels to ±0.0, never store an explicit zero — so their triplet
    /// lists agree exactly (integer arithmetic is order-independent).
    #[test]
    fn cancellation_policy_is_shared_by_every_sparse_kernel(pair in arb_pair()) {
        let (a, b) = pair;
        let want = oracle(&a, &b);
        prop_assert!(want.iter().all(|&(_, _, v)| v != 0.0), "oracle stored a zero");

        let c = spgemm::spgemm(&a, &b, None);
        prop_assert!(c.values().iter().all(|&v| v != 0.0), "engine stored a zero");
        prop_assert_eq!(&engine_entries(&c), &want);

        let bc = b.to_csc();
        let plain = native::spmm_csr(&a, &bc);
        prop_assert_eq!(plain.entries(), want.as_slice());
        let opt = native::spmm_csr_opt(&a, &bc);
        prop_assert_eq!(opt.entries(), want.as_slice());

        // The SMASH block-merge kernel, same policy at block granularity.
        let sa = SmashMatrix::encode(&a, SmashConfig::row_major(&[2]).unwrap());
        let sb = SmashMatrix::encode(&b, SmashConfig::col_major(&[2]).unwrap());
        let sm = native::spmm_smash(&sa, &sb);
        prop_assert!(sm.entries().iter().all(|&(_, _, v)| v != 0.0));
        prop_assert_eq!(sm.entries(), want.as_slice());
    }

    /// The masked engine keeps exactly the oracle's entries under the
    /// mask, serial and at threads {1, 2, 8}, in both precisions.
    #[test]
    fn masked_engine_is_the_oracle_restricted_to_the_mask(case in arb_masked()) {
        let (a, b, mask) = case;
        let want = entry_bits(&Csr::from_coo(&a.spmm_inner(&b.to_csc()).unwrap()), Some(&mask));
        prop_assert_eq!(&entry_bits(&spgemm::spgemm(&a, &b, Some(&mask)), None), &want);
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let c = spgemm::par_spgemm(&pool, &a, &b, Some(&mask));
            prop_assert_eq!(&entry_bits(&c, None), &want, "threads={}", threads);
        }
        let (a32, b32, m32) = (a.cast::<f32>(), b.cast::<f32>(), mask.cast::<f32>());
        let c32 = spgemm::spgemm(&a32, &b32, Some(&m32));
        prop_assert_eq!(&entry_bits(&c32, None), &want);
    }

    /// Output structure invariants: per row, columns strictly increasing
    /// (sorted, duplicate-free) and row_ptr consistent.
    #[test]
    fn output_columns_are_sorted_and_duplicate_free(pair in arb_pair()) {
        let (a, b) = pair;
        let c = spgemm::spgemm(&a, &b, None);
        prop_assert_eq!(c.rows(), a.rows());
        prop_assert_eq!(c.cols(), b.cols());
        for i in 0..c.rows() {
            let (cols, _) = c.row(i);
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {} not strictly sorted", i);
        }
    }
}

#[test]
fn executor_modes_are_exact_to_the_oracle() {
    let a = smash::matrix::generators::power_law(160, 140, 4_000, 1.3, 3);
    let b = smash::matrix::generators::clustered(140, 120, 3_000, 5, 4);
    let want = oracle(&a, &b);
    for (name, exec) in [
        ("serial", Executor::serial()),
        ("parallel", Executor::parallel()),
        ("threads2", Executor::with_threads(2)),
        ("threads8", Executor::with_threads(8)),
        ("auto", Executor::auto()),
    ] {
        assert_eq!(engine_entries(&exec.spgemm(&a, &b)), want, "{name}");
    }
}

#[test]
fn engineered_cancellation_is_dropped_everywhere() {
    // A = [1, -1] against B whose two rows carry identical values in
    // column 0 (cancels exactly) and different values in column 1
    // (survives): C = [0 (dropped), -2.0].
    let mut a = Coo::new(1, 2);
    a.push(0, 0, 1.0);
    a.push(0, 1, -1.0);
    let a = Csr::from_coo(&a);
    let mut b = Coo::new(2, 2);
    b.push(0, 0, 7.0);
    b.push(0, 1, 3.0);
    b.push(1, 0, 7.0);
    b.push(1, 1, 5.0);
    let b = Csr::from_coo(&b);

    let want = vec![(0u32, 1u32, -2.0f64)];
    assert_eq!(oracle(&a, &b), want);
    assert_eq!(engine_entries(&spgemm::spgemm(&a, &b, None)), want);
    assert_eq!(native::spmm_csr(&a, &b.to_csc()).entries(), want.as_slice());
    assert_eq!(
        native::spmm_csr_opt(&a, &b.to_csc()).entries(),
        want.as_slice()
    );
    let pool = ThreadPool::new(2);
    assert_eq!(
        engine_entries(&spgemm::par_spgemm(&pool, &a, &b, None)),
        want
    );
}

#[test]
fn empty_operands_produce_empty_products() {
    let empty_a = Csr::<f64>::from_coo(&Coo::new(0, 8));
    let b = smash::matrix::generators::uniform(8, 8, 20, 1);
    let c = spgemm::spgemm(&empty_a, &b, None);
    assert_eq!((c.rows(), c.cols(), c.nnz()), (0, 8, 0));

    let no_entries = Csr::<f64>::from_coo(&Coo::new(8, 8));
    let c = spgemm::spgemm(&b, &no_entries, None);
    assert_eq!((c.rows(), c.cols(), c.nnz()), (8, 8, 0));
    assert_eq!(engine_entries(&c), oracle(&b, &no_entries));

    let zero_cols = Csr::<f64>::from_coo(&Coo::new(8, 0));
    let c = spgemm::spgemm(&b, &zero_cols, None);
    assert_eq!((c.rows(), c.cols(), c.nnz()), (8, 0, 0));
}

#[test]
fn fully_dense_row_uses_the_dense_accumulator_and_matches() {
    // One row of A touching every row of a dense-ish B: the row's upper
    // bound saturates and the dense accumulator path runs.
    let n = 300; // > DENSE_ACCUM_MIN_COLS, so the choice is bound-driven
    let mut a = Coo::new(2, n);
    for k in 0..n {
        a.push(0, k, 1.0 + (k % 7) as f64);
    }
    a.push(1, 3, 2.0); // and one sparse row through the hash path
    let a = Csr::from_coo(&a);
    let b = smash::matrix::generators::uniform(n, n, 6 * n, 5);

    let (bounds, _) = spgemm::symbolic_bounds(&a, &b);
    assert!(spgemm::use_dense_accumulator(bounds[0], b.cols()));
    assert!(!spgemm::use_dense_accumulator(bounds[1], b.cols()));

    assert_eq!(
        engine_entries(&spgemm::spgemm(&a, &b, None)),
        oracle(&a, &b)
    );
}

#[test]
fn outer_product_of_vectors_is_exact() {
    // (n×1) · (1×n): every pairing contributes exactly one product — the
    // symbolic bound is exact and no accumulation happens.
    let n = 40;
    let mut col = Coo::new(n, 1);
    let mut row = Coo::new(1, n);
    for i in 0..n {
        if i % 3 != 0 {
            col.push(i, 0, 1.0 + i as f64);
        }
        if i % 4 != 0 {
            row.push(0, i, 2.0 - i as f64);
        }
    }
    let (col, row) = (Csr::from_coo(&col), Csr::from_coo(&row));
    let c = spgemm::spgemm(&col, &row, None);
    assert_eq!(engine_entries(&c), oracle(&col, &row));
    // Structure: rows where col is occupied × cols where row is occupied,
    // minus exact zeros (none here: 2 - i hits zero only at i = 2... which
    // IS a stored position when 2 % 4 != 0 — value 0.0 is never pushed by
    // Coo, so the oracle drops it too).
    for i in 0..n {
        let expect = if col.row_nnz(i) == 0 {
            0
        } else {
            row.row(0).1.iter().filter(|&&v| v != 0.0).count()
        };
        assert_eq!(c.row_nnz(i), expect, "row {i}");
    }
}

/// The masks every masked case runs under, for an `r × c` product `full`:
/// a random pattern, empty, full, the product's own pattern, and its
/// complement (disjoint from the product).
fn masks_for(full: &Csr<f64>, seed: u64) -> Vec<(&'static str, Csr<f64>)> {
    let (r, c) = (full.rows(), full.cols());
    let mut all = Coo::new(r, c);
    let mut off = Coo::new(r, c);
    for i in 0..r {
        let (cols, _) = full.row(i);
        for j in 0..c {
            all.push(i, j, 1.0);
            if cols.binary_search(&(j as u32)).is_err() {
                off.push(i, j, 1.0);
            }
        }
    }
    vec![
        ("random", generators::uniform(r, c, r * c / 10, seed)),
        ("empty", Csr::from_coo(&Coo::new(r, c))),
        ("full", Csr::from_coo(&all)),
        ("own pattern", full.clone()),
        ("disjoint", Csr::from_coo(&off)),
    ]
}

fn masked_cases() -> Vec<(&'static str, Csr<f64>, Csr<f64>)> {
    vec![
        (
            "square",
            generators::power_law(160, 160, 4_000, 1.3, 3),
            generators::power_law(160, 160, 4_000, 1.3, 3),
        ),
        (
            "rectangular",
            generators::power_law(160, 140, 4_000, 1.3, 3),
            generators::clustered(140, 120, 3_000, 5, 4),
        ),
        // 1500 output columns, above DENSE_ACCUM_MIN_COLS: the unmasked
        // reference runs hash rows (and dense power-law head rows).
        (
            "wide",
            generators::power_law(100, 90, 1_800, 1.3, 5),
            generators::uniform(90, 1_500, 1_200, 6),
        ),
    ]
}

fn all_modes() -> [(&'static str, Executor); 4] {
    [
        ("serial", Executor::serial()),
        ("threads2", Executor::with_threads(2)),
        ("threads8", Executor::with_threads(8)),
        ("auto", Executor::auto()),
    ]
}

#[test]
fn masked_product_is_the_full_product_restricted_to_the_mask() {
    let modes = all_modes();
    for (case, a, b) in masked_cases() {
        if case == "wide" {
            let (bounds, _) = spgemm::symbolic_bounds(&a, &b);
            assert!(bounds
                .iter()
                .any(|&ub| ub > 0 && !spgemm::use_dense_accumulator(ub, b.cols())));
        }
        let full = Executor::serial().spgemm(&a, &b);
        for (mask_name, mask) in masks_for(&full, 7) {
            let want = entry_bits(&full, Some(&mask));
            match mask_name {
                "empty" | "disjoint" => assert!(want.is_empty()),
                "full" | "own pattern" => assert_eq!(want, entry_bits(&full, None)),
                _ => assert!(!want.is_empty() && want.len() < full.nnz(), "{case}"),
            }
            let (a32, b32, m32) = (a.cast::<f32>(), b.cast::<f32>(), mask.cast::<f32>());
            let want32 = entry_bits(&Executor::serial().spgemm(&a32, &b32), Some(&m32));
            for (mode, exec) in &modes {
                let what = format!("{case}/{mask_name}/{mode}");
                let c = exec.spgemm_masked(&a, &b, &mask);
                assert_eq!(entry_bits(&c, None), want, "{what} f64");
                let c32 = exec.spgemm_masked(&a32, &b32, &m32);
                assert_eq!(entry_bits(&c32, None), want32, "{what} f32");
                let (c_try, report) = exec.try_spgemm_masked(&a, &b, &mask).unwrap();
                assert_eq!(c_try, c, "{what} try");
                assert!(!report.degraded(), "{what}");
            }
        }
    }
}

#[test]
fn try_spgemm_masked_degrades_bit_identically_under_a_budget() {
    let a = generators::power_law(128, 128, 3_000, 1.3, 5);
    let mask = generators::uniform(128, 128, 2_000, 8);
    let cap = 16 * 1024;
    let (bounds, _) = spgemm::symbolic_bounds(&a, &a);
    assert!(spgemm::estimate_engine_bytes(&bounds, a.cols(), Some(&mask)) > cap);
    let (a32, m32) = (a.cast::<f32>(), mask.cast::<f32>());
    for (mode, exec) in all_modes() {
        let want = exec.spgemm_masked(&a, &a, &mask);
        let want32 = exec.spgemm_masked(&a32, &a32, &m32);
        let exec = exec.with_budget(MemoryBudget::degrade_over(cap));
        let (c, report) = exec.try_spgemm_masked(&a, &a, &mask).unwrap();
        assert_eq!(c, want, "{mode}: chunked degradation must be bit-identical");
        match &report.degradations[..] {
            [Degradation::ChunkedSpgemm {
                chunks,
                peak_scratch_bytes,
                budget_bytes,
            }] => {
                assert!(*chunks > 1, "{mode}");
                assert!(peak_scratch_bytes <= budget_bytes, "{mode}");
            }
            other => panic!("{mode}: expected one ChunkedSpgemm, got {other:?}"),
        }
        let (c32, report) = exec.try_spgemm_masked(&a32, &a32, &m32).unwrap();
        assert_eq!(c32, want32, "{mode} f32");
        assert!(report.degraded(), "{mode} f32");
    }
    let err = Executor::serial()
        .with_budget(MemoryBudget::reject_over(cap))
        .try_spgemm_masked(&a, &a, &mask)
        .unwrap_err();
    assert!(matches!(err, SmashError::ResourceExhausted { .. }), "{err}");
}

#[test]
fn mis_shaped_mask_is_a_dimension_mismatch() {
    let a = generators::power_law(40, 30, 300, 1.3, 2);
    let b = generators::uniform(30, 20, 200, 3);
    for (rows, cols) in [(41, 20), (40, 21), (30, 40)] {
        let mask = generators::uniform(rows, cols, 50, 4);
        for (mode, exec) in all_modes() {
            let err = exec.try_spgemm_masked(&a, &b, &mask).unwrap_err();
            match err {
                SmashError::DimensionMismatch { expected, got, .. } => {
                    assert_eq!((expected, got), ((40, 20), (rows, cols)), "{mode}");
                }
                other => panic!("{mode}: expected DimensionMismatch, got {other:?}"),
            }
            let run = std::panic::AssertUnwindSafe(|| exec.spgemm_masked(&a, &b, &mask));
            let panicked = std::panic::catch_unwind(run).is_err();
            assert!(panicked, "{mode}: the panicking tier must reject the mask");
        }
    }
}
