//! Design-space exploration: how the Bitmap-0 compression ratio trades
//! storage against compute, how the locality of sparsity moves the
//! sweet spot (paper §4.1.1, §7.2.2, §7.2.3) — and what the dispatch
//! planner (`docs/DISPATCH.md`) recommends for each structure class,
//! with its rationale.
//!
//! Run with: `cargo run --release --example design_space`

use smash::encoding::{storage, SmashConfig, SmashMatrix};
use smash::kernels::planner::{Op, PlanRequest, Planner};
use smash::kernels::{harness, MatrixProfile, Mechanism};
use smash::matrix::locality::with_locality;
use smash::parallel::default_threads;
use smash::sim::SystemConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sys = SystemConfig::paper_table2_scaled(16);
    println!("Bitmap-0 ratio sweep at two localities (1024x1024, 20k non-zeros):\n");
    for (name, locality) in [
        ("scattered (25% locality@8)", 0.25),
        ("clustered (100%)", 1.0),
    ] {
        let a = with_locality(1024, 1024, 20_000, 8, locality, 42);
        println!("{name}:");
        // Ask the planner what it would run for a free-format SpMV on
        // this structure — the block-fill feature is what separates the
        // two localities in its cost model.
        let profile = MatrixProfile::of_csr(&a).with_block_fill(&a);
        let plan =
            Planner::built_in().plan(&profile, &PlanRequest::free(Op::Spmv, default_threads()));
        println!("  planner: {}", plan.rationale().replace('\n', "\n  "));
        println!(
            "  {:<6} {:>12} {:>12} {:>14} {:>10}",
            "B0", "NZA zeros", "bytes", "sim cycles", "vs B0=2"
        );
        let mut base = None;
        for b0 in [2u32, 4, 8] {
            let cfg = SmashConfig::row_major(&[b0, 4, 16])?;
            let sm = SmashMatrix::encode(&a, cfg.clone());
            let rep = storage::compare(&a, &cfg);
            let cycles = harness::sim_spmv(Mechanism::Smash, &a, &cfg, &sys).cycles;
            let b = *base.get_or_insert(cycles);
            println!(
                "  {:<6} {:>12} {:>12} {:>14} {:>9.2}x",
                format!("{b0}:1"),
                rep.nza_zeros,
                sm.storage_bytes(),
                cycles,
                b as f64 / cycles as f64
            );
        }
        println!();
    }
    println!(
        "Reading: with scattered non-zeros, larger blocks drag in zeros \
         (wasted storage + wasted multiplies); with clustered non-zeros the \
         bigger blocks are free and the smaller bitmaps win — exactly the \
         trade-off of the paper's Figures 14/15."
    );
    Ok(())
}
