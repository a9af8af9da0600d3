//! Seeded fault-injection suite (compiled only with the
//! `fault-injection` feature): arm deterministic fault plans at the
//! harness's three sites — worker-job panics, pool-spawn failures,
//! budget-check exhaustion — and drive every `Executor` op at threads
//! {1, 2, 8}. The contract under any injected fault: the call returns a
//! typed [`SmashError`] or degrades to the bit-identical serial result.
//! Never a hang, never a wrong answer.
#![cfg(feature = "fault-injection")]

use proptest::prelude::*;
use smash::encoding::{SmashConfig, SmashMatrix};
use smash::matrix::{generators, Csr, Dense};
use smash::parallel::faultinject::{arm, FaultPlan, Site, INJECTED_PANIC};
use smash::{Degradation, Executor, MemoryBudget, SmashError};

/// The shared workload: big enough that the planner's wide path is real
/// work at 8 threads, small enough to keep hundreds of seeded cases fast.
fn workload() -> (Csr<f64>, Vec<f64>, Dense<f64>, SmashConfig) {
    let a = generators::clustered(96, 96, 1_800, 4, 11);
    let x: Vec<f64> = (0..96).map(|i| 1.0 + (i % 7) as f64 / 8.0).collect();
    let b = generators::dense_batch(96, 5, 3);
    let cfg = SmashConfig::row_major(&[2, 4]).expect("valid config");
    (a, x, b, cfg)
}

#[test]
fn worker_panic_degrades_to_the_bit_identical_serial_result() {
    let (a, x, _, _) = workload();
    let mut want = vec![0.0f64; 96];
    Executor::serial().spmv(&a, &x, &mut want);

    // Plans are process-global: build the pool under the session's lock
    // so a neighbour's armed PoolSpawn trigger cannot fire here.
    let session = arm(FaultPlan::new().fail_at(Site::WorkerJob, 1));
    let exec = Executor::with_threads(4);
    let mut y = vec![f64::NAN; 96];
    let report = exec.try_spmv(&a, &x, &mut y).expect("ladder must recover");
    assert_eq!(y, want, "degraded run must be bit-identical to serial");
    assert_eq!(session.fired(), vec![(Site::WorkerJob, 1)]);
    drop(session);

    // The rung taken is reported, payload tag included, and the report's
    // rationale carries the whole story.
    match &report.degradations[..] {
        [Degradation::WorkerPanic { detail }] => {
            assert!(
                detail.contains(INJECTED_PANIC),
                "untagged payload: {detail}"
            )
        }
        other => panic!("expected one WorkerPanic degradation, got {other:?}"),
    }
    assert!(report.to_string().contains("degraded"));
    assert_eq!(
        report.to_string(),
        format!(
            "fixed Parallel mode: not profiled; degraded: parallel kernel panicked \
             ({INJECTED_PANIC} WorkerJob panic), retried serially"
        )
    );
}

#[test]
fn pool_spawn_failure_is_a_typed_error_from_try_constructors() {
    let session = arm(FaultPlan::new().fail_at(Site::PoolSpawn, 1));
    match Executor::try_with_threads(4) {
        Err(SmashError::PoolUnavailable { detail }) => {
            assert!(detail.contains(INJECTED_PANIC) || !detail.is_empty())
        }
        other => panic!("expected PoolUnavailable, got {other:?}"),
    }
    assert_eq!(session.fired(), vec![(Site::PoolSpawn, 1)]);
    // The trigger is one-shot: the retry succeeds while still armed.
    Executor::try_with_threads(4).expect("occurrence already consumed");
}

#[test]
fn auto_resilient_survives_pool_spawn_failure_and_reports_it() {
    let (a, x, _, _) = workload();
    let mut want = vec![0.0f64; 96];
    Executor::serial().spmv(&a, &x, &mut want);

    let session = arm(FaultPlan::new().fail_at(Site::PoolSpawn, 1));
    let exec = Executor::auto_resilient(); // consumes the injected failure
    assert_eq!(session.fired(), vec![(Site::PoolSpawn, 1)]);
    drop(session);

    let mut y = vec![f64::NAN; 96];
    let report = exec.try_spmv(&a, &x, &mut y).expect("serial fallback");
    assert_eq!(y, want);
    assert!(
        matches!(
            &report.degradations[..],
            [Degradation::PoolUnavailable { .. }]
        ),
        "every call on a degraded executor must say so: {:?}",
        report.degradations
    );
}

#[test]
fn budget_check_injection_exercises_both_budget_policies() {
    let (a, _, _, _) = workload();
    let want = Executor::serial().spgemm(&a, &a);

    // Reject policy: the injected exhaustion surfaces as the typed error
    // even though the product comfortably fits the (huge) budget.
    let reject = Executor::serial().with_budget(MemoryBudget::reject_over(u64::MAX));
    let session = arm(FaultPlan::new().fail_at(Site::BudgetCheck, 1));
    assert!(matches!(
        reject.try_spgemm(&a, &a),
        Err(SmashError::ResourceExhausted { .. })
    ));
    assert_eq!(session.fired(), vec![(Site::BudgetCheck, 1)]);
    drop(session);

    // Degrade policy: the injected exhaustion re-plans as the chunked
    // streaming engine, which must still be bit-identical.
    let degrade = Executor::serial().with_budget(MemoryBudget::degrade_over(u64::MAX));
    let session = arm(FaultPlan::new().fail_at(Site::BudgetCheck, 1));
    let (c, report) = degrade.try_spgemm(&a, &a).expect("degrade policy");
    drop(session);
    assert_eq!(c, want);
    assert!(
        matches!(
            &report.degradations[..],
            [Degradation::ChunkedSpgemm { .. }]
        ),
        "expected a ChunkedSpgemm degradation: {:?}",
        report.degradations
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline property: under a *seeded* fault plan arming all
    /// three sites at once, every Executor op at every thread count
    /// either returns a typed error or the bit-identical serial result.
    #[test]
    fn any_injected_fault_is_typed_or_bit_identical(
        seed in any::<u64>(),
        threads_idx in 0usize..3,
    ) {
        let threads = [1usize, 2, 8][threads_idx];
        let (a, x, b, cfg) = workload();
        let mut want_y = vec![0.0f64; 96];
        Executor::serial().spmv(&a, &x, &mut want_y);
        let mut want_c = Dense::zeros(96, 5);
        Executor::serial().spmm_dense(&a, &b, &mut want_c);
        let want_p = Executor::serial().spgemm(&a, &a);
        let want_sm = SmashMatrix::encode(&a, cfg.clone());

        let session = arm(FaultPlan::seeded(
            seed,
            &[(Site::WorkerJob, 6), (Site::PoolSpawn, 2), (Site::BudgetCheck, 2)],
        ));

        let exec = match Executor::try_with_threads(threads) {
            Ok(e) => e.with_budget(MemoryBudget::degrade_over(u64::MAX)),
            // A PoolSpawn trigger firing here IS the typed-error outcome.
            Err(SmashError::PoolUnavailable { .. }) => {
                prop_assert!(session.fired().contains(&(Site::PoolSpawn, 1)));
                return Ok(());
            }
            Err(other) => return Err(TestCaseError::Fail(format!("{other:?}"))),
        };

        let mut y = vec![f64::NAN; 96];
        exec.try_spmv(&a, &x, &mut y).expect("spmv ladder");
        prop_assert_eq!(&y, &want_y);

        let mut c = Dense::zeros(96, 5);
        exec.try_spmm_dense(&a, &b, &mut c).expect("spmm ladder");
        prop_assert_eq!(&c, &want_c);

        // SpGEMM may hit the BudgetCheck site (degrade policy → chunked,
        // still bit-identical) and/or WorkerJob panics (serial retry).
        let (p, _) = exec.try_spgemm(&a, &a).expect("spgemm ladder");
        prop_assert_eq!(&p, &want_p);

        let (sm, _) = exec.try_encode(&a, cfg).expect("encode ladder");
        prop_assert_eq!(&sm, &want_sm);

        drop(session);
    }

    /// Dial an injected worker panic through every job position: whichever
    /// job the panic lands on, the ladder recovers to the serial bits and
    /// the pool is reusable for the next call.
    #[test]
    fn worker_panic_at_every_occurrence_recovers(occurrence in 1u64..12) {
        let (a, x, _, _) = workload();
        let mut want = vec![0.0f64; 96];
        Executor::serial().spmv(&a, &x, &mut want);

        let session = arm(FaultPlan::new().fail_at(Site::WorkerJob, occurrence));
        let exec = Executor::with_threads(8);
        let mut y = vec![f64::NAN; 96];
        exec.try_spmv(&a, &x, &mut y).expect("ladder");
        prop_assert_eq!(&y, &want);

        // Whether or not the plan fired (high occurrences may exceed the
        // job count), a second clean call on the same pool must agree too.
        drop(session);
        // An empty plan holds the lock, so no neighbour's trigger fires
        // inside this clean call.
        let _quiet = arm(FaultPlan::new());
        let mut y2 = vec![f64::NAN; 96];
        let report = exec.try_spmv(&a, &x, &mut y2).expect("clean follow-up");
        prop_assert_eq!(&y2, &want);
        prop_assert!(!report.degraded());
    }
}
