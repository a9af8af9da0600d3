//! Thread-scaling of the parallel drivers: 1/2/4/8 workers across the
//! CSR, BCSR and SMASH formats, plus the parallel compressor.
//!
//! Because the parallel kernels are bit-identical to the serial ones,
//! this bench measures pure scheduling + memory-bandwidth behaviour — the
//! multi-core baseline every hardware-indexing speedup must be compared
//! against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smash_core::{SmashConfig, SmashMatrix};
use smash_kernels::test_vector;
use smash_matrix::{generators, Bcsr};
use smash_parallel::{par_csr_to_smash, par_spmv_rows, ThreadPool};
use std::time::Duration;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_spmv");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400));
    // A clustered matrix large enough for per-thread ranges to matter.
    let a = generators::clustered(2048, 2048, 120_000, 6, 42);
    let x = test_vector(a.cols());
    let mut y = vec![0.0f64; a.rows()];
    let bcsr = Bcsr::from_csr(&a, 2, 2).expect("valid block");
    // Deep (paper "16.4.2") and flat single-level hierarchies: both are
    // driven through the directory-backed line cursors.
    let sm = SmashMatrix::encode(
        &a,
        SmashConfig::row_major(&[2, 4, 16]).expect("paper config"),
    );
    let sm_flat = SmashMatrix::encode(&a, SmashConfig::row_major(&[2]).expect("flat config"));
    group.throughput(Throughput::Elements(a.nnz() as u64));
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(BenchmarkId::new("csr", threads), &a, |b, a| {
            b.iter(|| par_spmv_rows(&pool, a, &x, &mut y))
        });
        group.bench_with_input(BenchmarkId::new("bcsr", threads), &bcsr, |b, m| {
            b.iter(|| par_spmv_rows(&pool, m, &x, &mut y))
        });
        group.bench_with_input(BenchmarkId::new("smash", threads), &sm, |b, m| {
            b.iter(|| par_spmv_rows(&pool, m, &x, &mut y))
        });
        group.bench_with_input(BenchmarkId::new("smash_flat", threads), &sm_flat, |b, m| {
            b.iter(|| par_spmv_rows(&pool, m, &x, &mut y))
        });
    }
    group.finish();
}

fn bench_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_compression");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    let a = generators::power_law(2048, 2048, 100_000, 1.3, 9);
    let cfg = SmashConfig::row_major(&[2, 4, 16]).expect("paper config");
    group.throughput(Throughput::Elements(a.nnz() as u64));
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(BenchmarkId::new("csr_to_smash", threads), &a, |b, a| {
            b.iter(|| par_csr_to_smash(&pool, a, cfg.clone()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spmv, bench_compression);
criterion_main!(benches);
