//! The fault-tolerant executor tier end to end: feed the `try_*` front
//! door adversarial operands (corrupt structure, mismatched shapes,
//! NaN payloads), run an over-budget SpGEMM under both budget policies,
//! and show the degradation ladder reporting what it did.
//!
//! Run with: `cargo run --release --example untrusted_input`

use smash::matrix::{generators, Coo, Csr};
use smash::{Degradation, Executor, MemoryBudget, NonFinitePolicy, SmashError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `auto_resilient` never panics at construction: if the thread pool
    // cannot be spawned it comes up serial and reports the degradation
    // on every try_* call instead.
    let exec = Executor::auto_resilient();

    // --- 1. Corrupt structure is an error, not a panic -----------------
    // An adversarial CSR whose row_ptr points past its value arrays —
    // the kind of operand that arrives over a wire format. The unchecked
    // constructor defers validation; the try_* tier catches it up front.
    println!("1. corrupt CSR (row_ptr past the value arrays):");
    let bad = Csr::<f64>::from_parts_unchecked(2, 2, vec![0, 5, 5], vec![0], vec![1.0]);
    let mut y = vec![0.0; 2];
    match exec.try_spmv(&bad, &[1.0, 1.0], &mut y) {
        Err(e @ SmashError::InvalidStructure { .. }) => println!("   rejected: {e}"),
        other => panic!("expected InvalidStructure, got {other:?}"),
    }

    // --- 2. Shape disagreement ------------------------------------------
    println!("\n2. x too short for A:");
    let a = generators::uniform(64, 64, 800, 7);
    let mut y = vec![0.0; 64];
    match exec.try_spmv(&a, &[1.0; 32], &mut y) {
        Err(e @ SmashError::DimensionMismatch { .. }) => println!("   rejected: {e}"),
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }

    // --- 3. Non-finite payloads, opt-in rejection -----------------------
    println!("\n3. NaN in the operand under NonFinitePolicy::Reject:");
    let mut coo = Coo::<f64>::new(2, 2);
    coo.push(0, 0, f64::NAN);
    let nan = Csr::from_coo(&coo);
    let strict = Executor::serial().with_non_finite_policy(NonFinitePolicy::Reject);
    let mut y = vec![0.0; 2];
    match strict.try_spmv(&nan, &[1.0, 1.0], &mut y) {
        Err(e @ SmashError::NonFinite { .. }) => println!("   rejected: {e}"),
        other => panic!("expected NonFinite, got {other:?}"),
    }

    // --- 4. SpGEMM under a memory budget ---------------------------------
    // The Gustavson engine's scratch scales with the *product's* fill, not
    // the operand sizes. A budget either rejects the product up front...
    println!("\n4. over-budget SpGEMM, reject policy:");
    let g = generators::power_law(256, 256, 6_000, 1.3, 5);
    let cap = 128 * 1024; // 128 KiB of engine scratch (the product wants ~3.4 MB)
    let reject = Executor::serial().with_budget(MemoryBudget::reject_over(cap));
    match reject.try_spgemm(&g, &g) {
        Err(e @ SmashError::ResourceExhausted { .. }) => println!("   rejected: {e}"),
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }

    // ...or degrades to a row-chunked streaming execution whose peak
    // scratch fits the cap — bit-identical to the unchunked engine.
    println!("\n5. same product, degrade policy:");
    let degrade = Executor::serial().with_budget(MemoryBudget::degrade_over(cap));
    let (c, report) = degrade.try_spgemm(&g, &g)?;
    assert_eq!(c, Executor::serial().spgemm(&g, &g), "bit-identical");
    for d in &report.degradations {
        println!("   degradation: {d}");
        if let Degradation::ChunkedSpgemm {
            peak_scratch_bytes,
            budget_bytes,
            ..
        } = d
        {
            assert!(peak_scratch_bytes <= budget_bytes, "the cap held");
        }
    }
    println!(
        "   product: {}x{} with {} non-zeros",
        c.rows(),
        c.cols(),
        c.nnz()
    );

    // --- 6. Clean input: the try_* tier is the panicking tier ------------
    println!("\n6. clean input matches the panicking tier bit for bit:");
    let x = vec![1.0f64; 64];
    let (mut y_try, mut y_trusted) = (vec![0.0; 64], vec![0.0; 64]);
    let report = exec.try_spmv(&a, &x, &mut y_try)?;
    exec.spmv(&a, &x, &mut y_trusted);
    assert_eq!(y_try, y_trusted);
    println!(
        "   plan: {}",
        report.to_string().replace('\n', "\n         ")
    );
    println!(
        "   degradations this call: {}",
        if report.degraded() {
            format!("{:?}", report.degradations)
        } else {
            "none".to_string()
        }
    );
    Ok(())
}
