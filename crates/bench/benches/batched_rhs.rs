//! Batched right-hand sides: the column-tiled sparse × dense SpMM against
//! the loop of independent SpMVs it replaces.
//!
//! The per-column loop streams the sparse operand once per right-hand
//! side; the batched kernel streams it once per 8-wide column tile and
//! amortizes every index load over the tile. The win should grow with the
//! batch width and already be decisive at 8 right-hand sides (the
//! `batched_rhs_json` bin asserts that; this bench records the curve).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smash_core::{SmashConfig, SmashMatrix};
use smash_kernels::Executor;
use smash_matrix::{generators, spmm_dense_rows, spmv_rows, Bcsr, Dense};
use smash_parallel::{par_spmm_dense_rows, ThreadPool};
use std::time::Duration;

fn test_batch(rows: usize, cols: usize) -> Dense<f64> {
    generators::dense_batch(rows, cols, 5)
}

fn bench_batched_rhs(c: &mut Criterion) {
    let a = generators::clustered(2048, 2048, 120_000, 6, 42);
    let bcsr = Bcsr::from_csr(&a, 2, 2).expect("valid 2x2 blocking");
    let sm = SmashMatrix::encode(
        &a,
        SmashConfig::row_major(&[2, 4, 16]).expect("paper config"),
    );
    let exec = Executor::auto();
    let pool = ThreadPool::new(4);

    let mut group = c.benchmark_group("batched_rhs");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(500));
    for &n in &[1usize, 4, 8, 16] {
        let b = test_batch(2048, n);
        let cols: Vec<Vec<f64>> = (0..n).map(|j| b.col(j)).collect();
        let mut out = Dense::zeros(2048, n);
        let mut y = vec![0.0f64; 2048];
        group.throughput(Throughput::Elements((a.nnz() * n) as u64));

        // The baseline being replaced: one independent SpMV per column.
        group.bench_with_input(BenchmarkId::new("spmv_per_column", n), &n, |bch, _| {
            bch.iter(|| {
                for x in &cols {
                    spmv_rows(&a, x, &mut y);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("csr", n), &n, |bch, _| {
            bch.iter(|| spmm_dense_rows(&a, &b, &mut out))
        });
        group.bench_with_input(BenchmarkId::new("bcsr", n), &n, |bch, _| {
            bch.iter(|| spmm_dense_rows(&bcsr, &b, &mut out))
        });
        group.bench_with_input(BenchmarkId::new("smash", n), &n, |bch, _| {
            bch.iter(|| spmm_dense_rows(&sm, &b, &mut out))
        });
        group.bench_with_input(BenchmarkId::new("par_csr", n), &n, |bch, _| {
            bch.iter(|| par_spmm_dense_rows(&pool, &a, &b, &mut out))
        });
        group.bench_with_input(BenchmarkId::new("executor_auto", n), &n, |bch, _| {
            bch.iter(|| exec.spmm_dense(&a, &b, &mut out))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batched_rhs);
criterion_main!(benches);
