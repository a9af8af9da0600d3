//! The fault-tolerant executor tier, end to end through the facade:
//! `try_*` results are pinned bit-for-bit to the panicking tier on clean
//! input across serial/parallel/auto at threads {1, 2, 8}, adversarial
//! operands come back as typed [`SmashError`]s (never a panic), and the
//! budgeted SpGEMM path is property-tested — the row-chunked degradation
//! is bit-identical to the unchunked engine with its peak scratch
//! accounting never exceeding the cap.

use proptest::prelude::*;
use smash::encoding::{SmashConfig, SmashMatrix};
use smash::kernels::spgemm::{estimate_engine_bytes, symbolic_bounds};
use smash::matrix::{generators, Coo, Csr, Dense};
use smash::{Degradation, Executor, MemoryBudget, NonFinitePolicy, SmashError};

/// Every executor flavour a `try_*` call must agree across.
fn executors() -> Vec<(&'static str, Executor)> {
    vec![
        ("serial", Executor::serial()),
        ("threads=1", Executor::with_threads(1)),
        ("threads=2", Executor::with_threads(2)),
        ("threads=8", Executor::with_threads(8)),
        ("auto", Executor::auto()),
        ("auto_resilient", Executor::auto_resilient()),
    ]
}

/// Square matrices only — the property squares them (`a × a`).
fn arb_matrix() -> impl Strategy<Value = Csr<f64>> {
    (1usize..40)
        .prop_flat_map(|n| {
            let entries =
                proptest::collection::vec((0..n, 0..n, 1u32..1000u32), 0..(n * n).min(160));
            (Just(n), entries)
        })
        .prop_map(|(n, entries)| {
            let mut coo = Coo::new(n, n);
            for (i, j, v) in entries {
                coo.push(i, j, v as f64 / 16.0);
            }
            coo.compress();
            Csr::from_coo(&coo)
        })
}

#[test]
fn try_tier_is_bit_identical_to_the_panicking_tier_across_modes() {
    let a = generators::clustered(96, 96, 1_800, 4, 11);
    let x: Vec<f64> = (0..96).map(|i| 1.0 + (i % 7) as f64 / 8.0).collect();
    let b = generators::dense_batch(96, 5, 3);
    let cfg = SmashConfig::row_major(&[2, 4]).expect("valid config");

    let mut want_y = vec![0.0f64; 96];
    Executor::serial().spmv(&a, &x, &mut want_y);
    let mut want_c = Dense::zeros(96, 5);
    Executor::serial().spmm_dense(&a, &b, &mut want_c);
    let want_p = Executor::serial().spgemm(&a, &a);
    let want_sm = SmashMatrix::encode(&a, cfg.clone());

    for (label, exec) in executors() {
        let mut y = vec![f64::NAN; 96];
        let report = exec.try_spmv(&a, &x, &mut y).expect(label);
        assert_eq!(y, want_y, "{label}: try_spmv");
        // A healthy host takes no ladder rungs (auto_resilient included).
        assert!(
            !report.degraded(),
            "{label}: unexpected {:?}",
            report.degradations
        );

        let mut c = Dense::zeros(96, 5);
        exec.try_spmm_dense(&a, &b, &mut c).expect(label);
        assert_eq!(c, want_c, "{label}: try_spmm_dense");

        let (p, _) = exec.try_spgemm(&a, &a).expect(label);
        assert_eq!(p, want_p, "{label}: try_spgemm");

        let (sm, _) = exec.try_encode(&a, cfg.clone()).expect(label);
        assert_eq!(sm, want_sm, "{label}: try_encode");
    }
}

#[test]
fn adversarial_operands_are_typed_errors_on_every_op() {
    let exec = Executor::auto();
    let good = generators::uniform(8, 8, 20, 1);
    let corrupt = Csr::<f64>::from_parts_unchecked(8, 8, vec![0, 99], vec![0], vec![1.0]);

    // Corrupt structure, all four ops.
    let mut y = vec![0.0; 8];
    assert!(matches!(
        exec.try_spmv(&corrupt, &[1.0; 8], &mut y),
        Err(SmashError::InvalidStructure { format: "csr", .. })
    ));
    let b = generators::dense_batch(8, 3, 2);
    let mut c = Dense::zeros(8, 3);
    assert!(matches!(
        exec.try_spmm_dense(&corrupt, &b, &mut c),
        Err(SmashError::InvalidStructure { .. })
    ));
    assert!(matches!(
        exec.try_spgemm(&corrupt, &good),
        Err(SmashError::InvalidStructure { .. })
    ));
    assert!(matches!(
        exec.try_spgemm(&good, &corrupt),
        Err(SmashError::InvalidStructure { .. })
    ));
    let cfg = SmashConfig::row_major(&[2, 4]).expect("valid config");
    assert!(matches!(
        exec.try_encode(&corrupt, cfg),
        Err(SmashError::DimensionMismatch { .. } | SmashError::InvalidStructure { .. })
    ));

    // Shape disagreement, all entry points.
    let mut y = vec![0.0; 8];
    assert!(matches!(
        exec.try_spmv(&good, &[1.0; 5], &mut y),
        Err(SmashError::DimensionMismatch { op: "spmv", .. })
    ));
    let mut y_short = vec![0.0; 5];
    assert!(matches!(
        exec.try_spmv(&good, &[1.0; 8], &mut y_short),
        Err(SmashError::DimensionMismatch { .. })
    ));
    let b_tall = generators::dense_batch(9, 3, 2);
    assert!(matches!(
        exec.try_spmm_dense(&good, &b_tall, &mut c),
        Err(SmashError::DimensionMismatch { .. })
    ));
    let wide = generators::uniform(5, 8, 10, 2);
    assert!(matches!(
        exec.try_spgemm(&good, &wide),
        Err(SmashError::DimensionMismatch { op: "spgemm", .. })
    ));
}

#[test]
fn non_finite_rejection_is_per_executor_and_off_by_default() {
    let mut coo = Coo::<f64>::new(3, 3);
    coo.push(0, 0, f64::INFINITY);
    coo.push(2, 1, 1.0);
    let a = Csr::from_coo(&coo);
    let mut y = vec![0.0; 3];

    // Default policy: IEEE semantics flow through, same as the trusted tier.
    Executor::serial()
        .try_spmv(&a, &[1.0; 3], &mut y)
        .expect("propagate");
    assert!(y[0].is_infinite());

    let strict = Executor::serial().with_non_finite_policy(NonFinitePolicy::Reject);
    assert!(matches!(
        strict.try_spmv(&a, &[1.0; 3], &mut y),
        Err(SmashError::NonFinite { operand: "A", .. })
    ));
    assert!(matches!(
        strict.try_spmv(
            &generators::uniform(3, 3, 4, 9),
            &[1.0, f64::NAN, 1.0],
            &mut y
        ),
        Err(SmashError::NonFinite { operand: "x", .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The budgeted-SpGEMM contract, property-tested: for any matrix and
    /// any budget at least one row's footprint wide, the degraded chunked
    /// run is bit-identical to the unchunked engine and its reported peak
    /// scratch never exceeds the cap it was given.
    #[test]
    fn degraded_spgemm_is_bit_identical_and_caps_peak_scratch(a in arb_matrix()) {
        let want = Executor::serial().spgemm(&a, &a);
        let (bounds, _) = symbolic_bounds(&a, &a);
        let full = estimate_engine_bytes::<f64>(&bounds, a.cols(), None);

        // Squeeze the budget to a quarter of the full-engine estimate (but
        // never below 1 byte) so non-trivial matrices actually chunk.
        let cap = (full / 4).max(1);
        let exec = Executor::serial().with_budget(MemoryBudget::degrade_over(cap));
        match exec.try_spgemm(&a, &a) {
            Ok((c, report)) => {
                prop_assert_eq!(c, want);
                for d in &report.degradations {
                    if let Degradation::ChunkedSpgemm { peak_scratch_bytes, budget_bytes, .. } = d {
                        prop_assert!(peak_scratch_bytes <= budget_bytes);
                        prop_assert_eq!(*budget_bytes, cap);
                    }
                }
            }
            // Legitimate only when a single row cannot fit the cap.
            Err(SmashError::ResourceExhausted { needed, budget }) => {
                prop_assert_eq!(budget, cap);
                prop_assert!(needed > cap);
            }
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }

        // The reject policy over the same cap must refuse anything the
        // full engine estimate says is over budget — and never compute.
        if full > cap {
            let reject = Executor::serial().with_budget(MemoryBudget::reject_over(cap));
            let err = reject.try_spgemm(&a, &a);
            prop_assert!(
                matches!(err, Err(SmashError::ResourceExhausted { .. })),
                "reject policy let an over-budget product through: {:?}", err
            );
        }
    }

    /// A roomy budget must never degrade: the try-tier result is the plain
    /// engine result and the report stays clean.
    #[test]
    fn roomy_budget_never_degrades(a in arb_matrix()) {
        let exec = Executor::serial().with_budget(MemoryBudget::degrade_over(u64::MAX));
        let (c, report) = exec.try_spgemm(&a, &a).expect("roomy budget");
        prop_assert_eq!(c, Executor::serial().spgemm(&a, &a));
        prop_assert!(!report.degraded());
    }
}

#[test]
fn pool_construction_failures_are_typed_not_panics() {
    assert!(matches!(
        Executor::try_with_threads(0),
        Err(SmashError::PoolUnavailable { .. })
    ));
    let exec = Executor::try_with_threads(2).expect("two workers");
    let a = generators::uniform(16, 16, 60, 3);
    let mut y = vec![0.0; 16];
    exec.try_spmv(&a, &[1.0; 16], &mut y).expect("healthy pool");
}
