//! Machine-readable perf snapshot for the batched right-hand-side SpMM.
//!
//! Writes `BENCH_batched_rhs.json` (path overridable as the first CLI
//! argument) with blocked-vs-per-column-SpMV wall-clock numbers across a
//! sweep of batch widths, so CI archives the speedup curve. The process
//! exits non-zero if the headline claim of the batched subsystem does not
//! hold on this host:
//!
//! * the column-tiled CSR `spmm_dense_rows` beats the loop of independent
//!   per-column SpMVs at ≥ 8 right-hand sides.
//!
//! It also re-verifies, on real data, that the batched output is
//! bit-identical to the per-column loop — the determinism guarantee the
//! speedup must never trade away. Each width is additionally timed with
//! the SIMD dispatch layer forced to its scalar emulation
//! (`smash_matrix::simd`), so the snapshot separates what column tiling
//! buys from what vectorizing the tile bodies buys on top. Both ratios
//! (`blocked_speedup`, `simd_speedup`) are medians of per-pair ratios
//! over interleaved samples of their two sides.

use smash_bench::zoo;
use smash_core::{SmashConfig, SmashMatrix};
use smash_matrix::simd::{self, Isa};
use smash_matrix::{generators, spmm_dense_rows, spmv_rows, Dense};
use smash_parallel::{par_spmm_dense_rows, ThreadPool};

fn test_batch(rows: usize, cols: usize) -> Dense<f64> {
    generators::dense_batch(rows, cols, 5)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_batched_rhs.json".into());

    // A serving-sized operand: the matrix no longer fits in L1/L2, so
    // re-streaming it per query is the dominant cost the batching removes.
    let a = generators::clustered(4096, 4096, 400_000, 6, 42);
    let sm = SmashMatrix::encode(
        &a,
        SmashConfig::row_major(&[2, 4, 16]).expect("paper config"),
    );
    let pool = ThreadPool::new(4);

    let widths = [1usize, 2, 3, 4, 5, 7, 8, 12, 16, 32];
    let mut rows_json = Vec::new();
    let mut speedup_at_8 = 0.0f64;
    for &n in &widths {
        let b = test_batch(a.cols(), n);
        let cols: Vec<Vec<f64>> = (0..n).map(|j| b.col(j)).collect();
        let mut y = vec![0.0f64; a.rows()];
        let mut c = Dense::zeros(a.rows(), n);

        // Each ratio is the median of per-pair ratios over interleaved
        // samples, so host drift between samples cannot move one side.
        let (blocked_ns, per_column_ns, speedup) = zoo::time_pair_ns(9, 3, |per_column| {
            if per_column {
                for x in &cols {
                    spmv_rows(&a, x, &mut y);
                }
            } else {
                spmm_dense_rows(&a, &b, &mut c);
            }
            n
        });
        // The same tiled kernel with the dispatch layer pinned to the
        // scalar lane-order emulation: isolates the vector-body win.
        let (_, blocked_scalar_isa_ns, simd_speedup) = zoo::time_pair_ns(9, 3, |scalar| {
            simd::set_override(scalar.then_some(Isa::Scalar));
            spmm_dense_rows(&a, &b, &mut c);
            simd::set_override(None);
            c.cols()
        });
        let smash_ns = zoo::time_ns(5, 3, || {
            spmm_dense_rows(&sm, &b, &mut c);
            c.cols()
        });
        let parallel_ns = zoo::time_ns(5, 3, || {
            par_spmm_dense_rows(&pool, &a, &b, &mut c);
            c.cols()
        });

        // Determinism spot check on real data: every batched column must
        // equal its independent SpMV bit for bit.
        spmm_dense_rows(&a, &b, &mut c);
        for (j, x) in cols.iter().enumerate() {
            spmv_rows(&a, x, &mut y);
            assert_eq!(c.col(j), y, "batched column {j} diverged at width {n}");
        }

        if n == 8 {
            speedup_at_8 = speedup;
        }
        rows_json.push(format!(
            "    {{\"rhs\": {n}, \"per_column_spmv_ns\": {per_column_ns:.0}, \
             \"spmm_dense_csr_ns\": {blocked_ns:.0}, \
             \"spmm_dense_csr_scalar_isa_ns\": {blocked_scalar_isa_ns:.0}, \
             \"spmm_dense_smash_ns\": {smash_ns:.0}, \
             \"par_spmm_dense_csr_ns\": {parallel_ns:.0}, \
             \"blocked_speedup\": {speedup:.2}, \
             \"simd_speedup\": {simd_speedup:.2}}}"
        ));
        // Sanity only: the vector tiles must not regress badly against
        // their own scalar emulation (exact threshold is simd_json's job).
        assert!(
            simd_speedup > 0.5,
            "vectorized tiles {simd_speedup:.2}x vs forced-scalar at width {n}"
        );
    }

    let json = format!(
        "{{\n  \"matrix\": \"clustered 4096x4096, nnz {}\",\n  \
         \"simd_isa\": \"{}\",\n  \
         \"blocked_speedup_at_8_rhs\": {speedup_at_8:.2},\n  \"sweep\": [\n{}\n  ]\n}}\n",
        a.nnz(),
        simd::active().name(),
        rows_json.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("wrote {out_path}");

    assert!(
        speedup_at_8 > 1.0,
        "column-tiled SpMM ({speedup_at_8:.2}x) must beat the per-column \
         SpMV loop at 8 right-hand sides"
    );
}
