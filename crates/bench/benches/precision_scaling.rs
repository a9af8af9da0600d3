//! Precision scaling of the generic kernel stack: the same SpMV/SpMM
//! workloads in `f64` and `f32`, through the same monomorphized loop
//! bodies.
//!
//! `f32` halves the value-array footprint (NZA, CSR values, dense
//! vectors), so memory-bound kernels should gain; the bench pins that
//! expectation and catches regressions where the generic code stops
//! monomorphizing cleanly (e.g. an accidental `to_f64` round trip in a
//! hot loop would show up as f32 falling *behind* f64).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smash_core::{SmashConfig, SmashMatrix};
use smash_kernels::{native, test_vector, Executor};
use smash_matrix::{generators, spmv_rows, Csr, Scalar};
use std::time::Duration;

fn spmv_group<T: Scalar>(c: &mut Criterion, label: &str, a: &Csr<T>) {
    let mut group = c.benchmark_group("precision_spmv");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400))
        .throughput(Throughput::Elements(a.nnz() as u64));
    let x = test_vector::<T>(a.cols());
    let mut y = vec![T::ZERO; a.rows()];
    let sm = SmashMatrix::encode(
        a,
        SmashConfig::row_major(&[2, 4, 16]).expect("paper config"),
    );
    let exec = Executor::auto();

    group.bench_with_input(BenchmarkId::new("csr", label), a, |b, a| {
        b.iter(|| spmv_rows(a, &x, &mut y))
    });
    group.bench_with_input(BenchmarkId::new("smash", label), &sm, |b, m| {
        b.iter(|| spmv_rows(m, &x, &mut y))
    });
    group.bench_with_input(BenchmarkId::new("executor_auto", label), a, |b, a| {
        b.iter(|| exec.spmv(a, &x, &mut y))
    });
    group.finish();
}

fn spmm_group<T: Scalar>(c: &mut Criterion, label: &str, a: &Csr<T>, bm: &Csr<T>) {
    let mut group = c.benchmark_group("precision_spmm");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    let bc = bm.to_csc();
    let sa = SmashMatrix::encode(a, SmashConfig::row_major(&[2]).expect("flat config"));
    let sb = SmashMatrix::encode(bm, SmashConfig::col_major(&[2]).expect("flat config"));

    group.bench_with_input(BenchmarkId::new("csr", label), a, |b, a| {
        b.iter(|| native::spmm_csr(a, &bc))
    });
    group.bench_with_input(BenchmarkId::new("smash", label), &sa, |b, sa| {
        b.iter(|| native::spmm_smash(sa, &sb))
    });
    group.finish();
}

fn bench_precision(c: &mut Criterion) {
    // A mid-density clustered SpMV workload and a sparser SpMM pair.
    let a64 = generators::clustered(2048, 2048, 120_000, 6, 42);
    let a32 = a64.cast::<f32>();
    spmv_group(c, "f64", &a64);
    spmv_group(c, "f32", &a32);

    let m64 = generators::uniform(256, 256, 4_000, 7);
    let n64 = generators::uniform(256, 256, 4_000, 8);
    spmm_group(c, "f64", &m64, &n64);
    spmm_group(c, "f32", &m64.cast::<f32>(), &n64.cast::<f32>());
}

criterion_group!(benches, bench_precision);
criterion_main!(benches);
