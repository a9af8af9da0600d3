//! Wall-clock sparse × sparse multiply: the Gustavson engine (serial and
//! parallel, CSR output, and CSR output encoded to SMASH) against the
//! inner-product baselines, on the power-law A·A and A·Aᵀ workloads where
//! output rows vary wildly in density.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smash_core::{SmashConfig, SmashMatrix};
use smash_kernels::{native, spgemm};
use smash_matrix::generators;
use smash_parallel::ThreadPool;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let pool = ThreadPool::new(4);
    for (label, a) in [
        (
            "power_law_512",
            generators::power_law(512, 512, 6_000, 1.3, 21),
        ),
        (
            "power_law_1024",
            generators::power_law(1024, 1024, 14_000, 1.5, 22),
        ),
    ] {
        let at = a.transpose();
        let a_csc = a.to_csc();
        let at_csc = at.to_csc();
        let cfg = SmashConfig::row_major(&[2, 4]).expect("valid");

        group.bench_with_input(BenchmarkId::new("aa/gustavson", label), &a, |bch, a| {
            bch.iter(|| black_box(spgemm::spgemm(a, a, None)))
        });
        group.bench_with_input(
            BenchmarkId::new("aa/gustavson_par4", label),
            &a,
            |bch, a| bch.iter(|| black_box(spgemm::par_spgemm(&pool, a, a, None))),
        );
        group.bench_with_input(BenchmarkId::new("aa/csr_opt(mkl)", label), &a, |bch, a| {
            bch.iter(|| black_box(native::spmm_csr_opt(a, &a_csc)))
        });
        group.bench_with_input(BenchmarkId::new("aa/to_smash", label), &a, |bch, a| {
            bch.iter(|| {
                black_box(SmashMatrix::encode(
                    &spgemm::spgemm(a, a, None),
                    cfg.clone(),
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("aat/gustavson", label), &a, |bch, a| {
            bch.iter(|| black_box(spgemm::spgemm(a, &at, None)))
        });
        group.bench_with_input(BenchmarkId::new("aat/csr_opt(mkl)", label), &a, |bch, a| {
            bch.iter(|| black_box(native::spmm_csr_opt(a, &at_csc)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
