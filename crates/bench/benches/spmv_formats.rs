//! Wall-clock SpMV across the software-only mechanisms' operand formats
//! through the serial row driver (the Criterion counterpart of the
//! paper's Fig. 9 SpMV column; MKL-CSR shares the CSR body).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smash_core::{SmashConfig, SmashMatrix};
use smash_kernels::test_vector;
use smash_matrix::{spmv_rows, suite::paper_suite, Bcsr};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv_formats");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    // A sparse (M4) and a dense-clustered (M8) representative.
    for id in [4usize, 8] {
        let spec = &paper_suite()[id - 1];
        let a = spec.generate(8, 42);
        let x = test_vector(a.cols());
        let mut y = vec![0.0f64; a.rows()];
        let bcsr = Bcsr::from_csr(&a, 2, 2).expect("valid block");
        let ratios = spec.bitmap_cfg.ratios_low_to_high();
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&ratios).expect("paper config"));
        let label = spec.label();

        group.bench_with_input(BenchmarkId::new("csr", &label), &a, |b, a| {
            b.iter(|| spmv_rows(a, &x, &mut y))
        });
        group.bench_with_input(BenchmarkId::new("bcsr", &label), &bcsr, |b, m| {
            b.iter(|| spmv_rows(m, &x, &mut y))
        });
        group.bench_with_input(BenchmarkId::new("sw_smash", &label), &sm, |b, m| {
            b.iter(|| spmv_rows(m, &x, &mut y))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
