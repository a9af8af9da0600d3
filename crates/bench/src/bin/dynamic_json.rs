//! Machine-readable perf snapshot for the dynamic-matrix layer.
//!
//! Writes `BENCH_dynamic.json` (path overridable as the first CLI
//! argument): for several delta ratios it times absorbing an update
//! batch through the `DynamicMatrix` overlay (apply + one merged SpMV)
//! against absorbing it by a full from-scratch rebuild (merge + plain
//! SpMV), and reports the incremental-PageRank workload's warm and cold
//! iteration counts. The process exits non-zero if the timing claim
//! fails on this host:
//!
//! * **overlay wins small updates** — at every delta ratio ≤ 1% of
//!   nnz, overlay apply + merged read is faster than the full rebuild.
//!
//! It also re-verifies, on the benchmarked data, that the merged view
//! is triplet-exact against the rebuild — the bit-identity contract
//! the speedup must never trade away. The host-independent warm-start
//! claim (no more iterations than a cold solve, same fixed point) is
//! gated by `tests/dynamic.rs::warm_restart_needs_no_more_iterations_than_cold`
//! on the same graph.

use smash_bench::zoo;
use smash_core::DynamicMatrix;
use smash_graph::{pagerank_power, uniform_ranks, Graph, IncrementalPageRank};
use smash_matrix::{generators, spmv_rows, Csr};

/// Deterministic update batch: `k` overwrites spread over the matrix.
fn batch(a: &Csr<f64>, k: usize) -> Vec<(usize, usize, f64)> {
    (0..k)
        .map(|i| {
            let r = (i * 2654435761) % a.rows();
            let c = (i * 40503 + 7) % a.cols();
            (r, c, (i % 17) as f64 - 8.0)
        })
        .collect()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_dynamic.json".into());
    let a = generators::clustered(2048, 2048, 120_000, 6, 42);
    let x = vec![1.0f64; a.cols()];
    let mut y = vec![0.0f64; a.rows()];

    let mut ratio_json = Vec::new();
    for &permille in &[1usize, 5, 10, 100] {
        let k = (a.nnz() * permille / 1000).max(1);
        let muts = batch(&a, k);

        // Bit-identity on this exact workload before timing it.
        let mut m = DynamicMatrix::from_csr(a.clone());
        for &(r, c, v) in &muts {
            m.set(r, c, v);
        }
        let rebuilt = m.merged_csr();
        let (mut via_overlay, mut via_rebuild) = (vec![0.0; a.rows()], vec![0.0; a.rows()]);
        spmv_rows(&m, &x, &mut via_overlay);
        spmv_rows(&rebuilt, &x, &mut via_rebuild);
        assert_eq!(
            via_overlay, via_rebuild,
            "merged view diverged from the rebuild at {permille} permille"
        );

        // Overlay path: absorb the batch into the overlay, one merged
        // read. The rebuild path pays the same applies plus the full
        // O(nnz) merge before its (cheaper) plain read.
        let overlay_ns = zoo::time_ns(5, 3, || {
            let mut m = DynamicMatrix::from_csr(a.clone());
            for &(r, c, v) in &muts {
                m.set(r, c, v);
            }
            spmv_rows(&m, &x, &mut y);
            y.len()
        });
        let rebuild_ns = zoo::time_ns(5, 3, || {
            let mut m = DynamicMatrix::from_csr(a.clone());
            for &(r, c, v) in &muts {
                m.set(r, c, v);
            }
            let rebuilt = m.merged_csr();
            spmv_rows(&rebuilt, &x, &mut y);
            y.len()
        });
        let speedup = rebuild_ns / overlay_ns;
        if permille <= 10 {
            assert!(
                speedup > 1.0,
                "overlay apply ({overlay_ns:.0} ns) must beat the full rebuild \
                 ({rebuild_ns:.0} ns) at {permille} permille deltas, got {speedup:.2}x"
            );
        }
        ratio_json.push(format!(
            "    {{\"delta_permille\": {permille}, \"deltas\": {k}, \
             \"overlay_apply_spmv_ns\": {overlay_ns:.0}, \
             \"rebuild_spmv_ns\": {rebuild_ns:.0}, \
             \"overlay_speedup\": {speedup:.2}}}"
        ));
    }

    // Incremental PageRank: warm restart vs. cold solve after a batch
    // of edge insertions, on the road network the warm-start test in
    // `tests/dynamic.rs` gates.
    let g: Graph<f64> = smash_graph::generators::road_network(4096, 8192, 7);
    let tol = 1e-8;
    let mut pr = IncrementalPageRank::new(&g, 0.85, tol, 1000);
    let cold = pr.solve();
    let mut inserted = 0usize;
    for i in 0..64usize {
        let u = (i * 2654435761) % 4096;
        let v = (i * 40503 + 13) % 4096;
        inserted += pr.add_edge(u, v) as usize;
    }
    let warm = pr.solve();
    let cold_after = pagerank_power(
        &pr.snapshot().transition_matrix(),
        &uniform_ranks::<f64>(pr.vertices()),
        0.85,
        tol,
        1000,
    );

    let json = format!(
        "{{\n  \"workload\": \"dynamic-matrix updates and incremental PageRank\",\n  \
         \"matrix\": \"clustered 2048x2048 nnz {}\",\n  \"delta_ratios\": [\n{}\n  ],\n  \
         \"pagerank\": {{\"vertices\": {}, \"edges_inserted\": {inserted}, \
         \"cold_iterations\": {}, \"warm_iterations\": {}, \
         \"cold_after_iterations\": {}}}\n}}\n",
        a.nnz(),
        ratio_json.join(",\n"),
        pr.vertices(),
        cold.iterations,
        warm.iterations,
        cold_after.iterations
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("wrote {out_path}");
}
