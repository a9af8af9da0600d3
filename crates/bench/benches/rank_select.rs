//! Row-seek microbenchmark: an O(1) line-directory seek plus cursor walk
//! against expanding the full Bitmap-0 first.
//!
//! This quantifies the indexed-access design: the kernels' per-row
//! addressing does not pay O(logical bits) per call.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smash_core::{SmashConfig, SmashMatrix};
use smash_matrix::generators;
use std::hint::black_box;
use std::time::Duration;

/// Seeking one row of a compressed matrix: directory cursor vs expanding
/// the whole logical Bitmap-0 first.
fn bench_row_seek(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_seek");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let a = generators::clustered(2048, 2048, 60_000, 6, 17);
    let sm = SmashMatrix::encode(
        &a,
        SmashConfig::row_major(&[2, 4, 16]).expect("paper config"),
    );
    let rows: Vec<usize> = (0..16).map(|i| i * 127 % 2048).collect();
    group.bench_with_input(BenchmarkId::new("directory", 2048), &rows, |b, rows| {
        b.iter(|| {
            let mut acc = 0usize;
            for &r in rows {
                // O(1) seek + walk of just that row's blocks.
                for (ordinal, logical) in sm.line_cursor(black_box(r)) {
                    acc += ordinal + logical;
                }
            }
            acc
        })
    });
    group.bench_with_input(BenchmarkId::new("expand_full", 2048), &rows, |b, rows| {
        b.iter(|| {
            let mut acc = 0usize;
            for &r in rows {
                // What the seed kernels did: materialize the dense bitmap,
                // then scan to the row.
                let full = sm.full_bitmap0();
                let bpl = sm.blocks_per_line();
                let base = full.rank(r * bpl);
                for (i, logical) in full
                    .iter_ones()
                    .skip_while(|&l| l < r * bpl)
                    .take_while(|&l| l < (r + 1) * bpl)
                    .enumerate()
                {
                    acc += base + i + logical;
                }
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_row_seek);
criterion_main!(benches);
