//! Graph analytics on SMASH: PageRank and Betweenness Centrality over a
//! power-law graph, comparing the CSR-based and SMASH-based pipelines
//! (the paper's Fig. 18 use case), a native Betweenness Centrality run
//! through the executor, plus an approximate-analytics pass in `f32`
//! through the generic graph stack.
//!
//! Run with: `cargo run --release --example graph_analytics`

use smash::graph::{
    betweenness, betweenness_native, betweenness_reference, generators, pagerank,
    pagerank_reference, BcConfig, GraphMechanism, PageRankConfig,
};
use smash::matrix::Scalar;
use smash::sim::{SimEngine, SystemConfig};
use smash::Executor;

fn main() {
    let g = generators::rmat(2048, 12_000, 7);
    println!(
        "R-MAT graph: {} vertices, {} edges (avg degree {:.1})",
        g.vertices(),
        g.edges(),
        g.edges() as f64 / g.vertices() as f64
    );

    let sys = SystemConfig::paper_table2_scaled(16);
    let pr_cfg = PageRankConfig {
        iterations: 5,
        ..Default::default()
    };
    let bc_cfg = BcConfig {
        sources: vec![0, 1, 2, 3],
        max_levels: 16,
        ..Default::default()
    };

    println!(
        "\n{:<12} {:>14} {:>14} {:>9}",
        "workload", "CSR cycles", "SMASH cycles", "speedup"
    );
    for (name, run) in [
        (
            "PageRank",
            Box::new(|mech| {
                let mut e = SimEngine::new(sys.clone());
                pagerank(&mut e, mech, &g, &pr_cfg);
                e.finish().cycles
            }) as Box<dyn Fn(GraphMechanism) -> u64>,
        ),
        (
            "BC",
            Box::new(|mech| {
                let mut e = SimEngine::new(sys.clone());
                betweenness(&mut e, mech, &g, &bc_cfg);
                e.finish().cycles
            }),
        ),
    ] {
        let csr = run(GraphMechanism::Csr);
        let smash = run(GraphMechanism::Smash);
        println!(
            "{name:<12} {csr:>14} {smash:>14} {:>8.2}x",
            csr as f64 / smash as f64
        );
    }

    // The functional results are identical regardless of mechanism.
    let mut e = SimEngine::new(sys.clone());
    let r1 = pagerank(&mut e, GraphMechanism::Csr, &g, &pr_cfg);
    let mut e = SimEngine::new(sys);
    let r2 = pagerank(&mut e, GraphMechanism::Smash, &g, &pr_cfg);
    let max_diff = r1
        .iter()
        .zip(&r2)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\nmax PageRank difference between mechanisms: {max_diff:.2e}");
    let top = r1
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
        .expect("non-empty");
    println!("highest-ranked vertex: {} (rank {:.5})", top.0, top.1);

    // Native BC: every level's SpMV runs through the executor, which picks
    // serial or parallel per call without changing the bits.
    let bc_native = betweenness_native(&Executor::auto(), &g, &bc_cfg);
    let bc_ref = betweenness_reference(&g, &bc_cfg);
    let bc_err = bc_native
        .iter()
        .zip(&bc_ref)
        .map(|(n, w)| (n - w).abs() / (1.0 + w.abs()))
        .fold(0.0f64, f64::max);
    assert!(
        bc_err < 1e-9,
        "native BC strays from the reference: {bc_err:.2e}"
    );
    println!("native BC: max relative error vs reference = {bc_err:.2e}");

    // Approximate analytics: the same PageRank at f32 — half the memory
    // traffic per rank vector, ranks within the f32 tolerance of the f64
    // ones, and the same top vertex.
    let g32 = g.cast::<f32>();
    let r32 = pagerank_reference(&g32, &pr_cfg);
    let r64 = pagerank_reference(&g, &pr_cfg);
    let max_rel = r32
        .iter()
        .zip(&r64)
        .map(|(n, w)| (n.to_f64() - w).abs() / (1.0 + w.abs()))
        .fold(0.0f64, f64::max);
    let top32 = r32
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
        .expect("non-empty");
    assert_eq!(top32.0, top.0, "f32 must agree on the top vertex");
    println!(
        "f32 PageRank: max relative error vs f64 = {max_rel:.2e} \
         (tolerance {:.0e}), same top vertex",
        f32::TOLERANCE
    );
}
