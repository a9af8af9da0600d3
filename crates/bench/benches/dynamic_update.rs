//! Dynamic-matrix updates: the delta overlay against the full rebuild
//! it replaces.
//!
//! An update batch of `k` point mutations either goes into a
//! `DynamicMatrix` overlay (k map inserts; the next read merges the
//! touched rows once into a frozen view) or forces a from-scratch CSR
//! rebuild (O(nnz) triplet reconstruction). The overlay should win
//! decisively while `k` is a small fraction of nnz — the regime the
//! `dynamic_json` bin asserts; this bench records the curve, including
//! the freeze and touched-row cost the overlay pays on the following
//! SpMV and the cost of compacting the overlay away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smash_core::DynamicMatrix;
use smash_matrix::{generators, spmv_rows, Csr};
use std::time::Duration;

/// One deterministic mutation batch: `k` value overwrites spread over
/// the matrix (the overlay's worst case is new coordinates; overwrites
/// keep nnz stable so the rebuild cost is comparable).
fn batch(a: &Csr<f64>, k: usize) -> Vec<(usize, usize, f64)> {
    (0..k)
        .map(|i| {
            let r = (i * 2654435761) % a.rows();
            let c = (i * 40503 + 7) % a.cols();
            (r, c, (i % 17) as f64 - 8.0)
        })
        .collect()
}

fn bench_dynamic_update(c: &mut Criterion) {
    let a = generators::clustered(2048, 2048, 120_000, 6, 42);
    let x = vec![1.0f64; a.cols()];
    let mut y = vec![0.0f64; a.rows()];

    let mut group = c.benchmark_group("dynamic_update");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(500));
    for &permille in &[1usize, 10, 100] {
        let k = (a.nnz() * permille / 1000).max(1);
        let muts = batch(&a, k);
        group.throughput(Throughput::Elements(k as u64));

        // Overlay path: apply the batch, then read through the merge.
        group.bench_with_input(
            BenchmarkId::new("overlay_apply_spmv", permille),
            &permille,
            |bch, _| {
                bch.iter(|| {
                    let mut m = DynamicMatrix::from_csr(a.clone());
                    for &(r, cc, v) in &muts {
                        m.set(r, cc, v);
                    }
                    spmv_rows(&m, &x, &mut y);
                    y.len()
                })
            },
        );
        // The alternative: rebuild the whole CSR, then a plain read.
        group.bench_with_input(
            BenchmarkId::new("rebuild_spmv", permille),
            &permille,
            |bch, _| {
                bch.iter(|| {
                    let mut m = DynamicMatrix::from_csr(a.clone());
                    for &(r, cc, v) in &muts {
                        m.set(r, cc, v);
                    }
                    let rebuilt = m.merged_csr();
                    spmv_rows(&rebuilt, &x, &mut y);
                    y.len()
                })
            },
        );
        // Folding the overlay away (re-encode into a fresh base).
        group.bench_with_input(
            BenchmarkId::new("compact", permille),
            &permille,
            |bch, _| {
                bch.iter(|| {
                    let mut m = DynamicMatrix::from_csr(a.clone());
                    for &(r, cc, v) in &muts {
                        m.set(r, cc, v);
                    }
                    m.compact();
                    m.nnz()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dynamic_update);
criterion_main!(benches);
