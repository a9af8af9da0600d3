//! Machine-readable perf snapshot for the line-directory indexing layer.
//!
//! Writes `BENCH_rank_select.json` (path overridable as the first CLI
//! argument) with row-seek, cursor-walk and kernel throughput numbers,
//! so CI archives a perf trajectory future PRs can compare against. The
//! process exits non-zero if either headline claim of the indexed-access
//! design does not hold on this host:
//!
//! * an O(1) directory row seek beats expanding the full Bitmap-0;
//! * a full `line_cursor` walk of a `[2,4]` blocky matrix costs less than
//!   [`MAX_CURSOR_WALK_OVER_SCAN`] popcount passes over the same stored
//!   bitmap words — a host-independent ratio for the streaming cursor.
//!
//! The host-independent auxiliary-memory bounds of the directory are
//! deterministic and live in `tests/rank_select.rs`.

use smash_bench::zoo;
use smash_core::{SmashConfig, SmashMatrix};
use smash_kernels::native::spmm_smash;
use smash_kernels::test_vector;
use smash_matrix::{generators, locality};
use smash_parallel::{par_spmv_rows, ThreadPool};
use std::time::Instant;

/// Gate on `cursor_walk_over_scan`. The word-list cursor measures about
/// 1.4–1.5 on a 2-core AVX2 Xeon; the group-walking cursor it replaced
/// measured about 6–7 there, and the per-group `select` cursor before
/// that about 26.
const MAX_CURSOR_WALK_OVER_SCAN: f64 = 16.0;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_rank_select.json".into());

    // --- Row seek: directory cursor vs full expansion. -------------------
    let a = generators::clustered(4096, 4096, 120_000, 6, 17);
    let sm = SmashMatrix::encode(
        &a,
        SmashConfig::row_major(&[2, 4, 16]).expect("paper config"),
    );
    let bpl = sm.blocks_per_line();
    let rows: Vec<usize> = (0..16).map(|i| (i * 509) % 4096).collect();
    let seek_directory_ns = zoo::time_ns(5, 50, || {
        rows.iter()
            .map(|&r| sm.line_cursor(r).map(|(o, l)| o + l).sum::<usize>())
            .sum()
    });
    let seek_expand_ns = zoo::time_ns(5, 2, || {
        rows.iter()
            .map(|&r| {
                let full = sm.full_bitmap0();
                full.iter_ones()
                    .skip_while(|&l| l < r * bpl)
                    .take_while(|&l| l < (r + 1) * bpl)
                    .sum::<usize>()
            })
            .sum()
    });

    // --- Cursor walk vs one popcount pass over the stored bitmaps. -------
    // The blocky benchmark matrix: 16384², 2^20 non-zeros in fully filled
    // 8-wide runs, encoded [2,4]. Both sides touch the same stored words,
    // so their ratio cancels the host's speed.
    let blocky = SmashMatrix::encode(
        &locality::with_locality(16_384, 16_384, 1 << 20, 8, 1.0, 1),
        SmashConfig::row_major(&[2, 4]).expect("valid config"),
    );
    let cursor_walk_ns = zoo::time_ns(5, 3, || {
        let mut acc = 0usize;
        for line in 0..blocky.line_count() {
            for (ordinal, logical) in blocky.line_cursor(line) {
                acc = acc.wrapping_add(ordinal ^ logical);
            }
        }
        acc
    });
    let h = blocky.hierarchy();
    let bitmap_scan_ns = zoo::time_ns(5, 20, || {
        (0..h.num_levels())
            .flat_map(|l| h.stored_level(l).words())
            .map(|w| w.count_ones() as usize)
            .sum()
    });
    let cursor_walk_over_scan = cursor_walk_ns / bitmap_scan_ns;

    // --- SpMM throughput. -----------------------------------------------
    let sa = SmashMatrix::encode(
        &generators::uniform(4096, 4096, 10_000, 7),
        SmashConfig::row_major(&[2]).expect("flat"),
    );
    let sb = SmashMatrix::encode(
        &generators::uniform(4096, 4096, 10_000, 8),
        SmashConfig::col_major(&[2]).expect("flat"),
    );
    let t = Instant::now();
    let c = spmm_smash(&sa, &sb);
    let spmm_ns = t.elapsed().as_nanos() as f64;
    let spmm_nnz_per_s = c.nnz() as f64 / (spmm_ns / 1e9);

    // --- Directory-backed parallel SpMV throughput. ----------------------
    let x = test_vector(sm.cols());
    let mut y = vec![0.0f64; sm.rows()];
    let pool = ThreadPool::new(4);
    let spmv_ns = zoo::time_ns(5, 10, || {
        par_spmv_rows(&pool, &sm, &x, &mut y);
        y.len()
    });
    let spmv_nnz_per_s = a.nnz() as f64 / (spmv_ns / 1e9);

    let json = format!(
        "{{\n  \"row_seek_directory_ns\": {seek_directory_ns:.1},\n  \
         \"row_seek_expand_ns\": {seek_expand_ns:.1},\n  \
         \"cursor_walk_ns\": {cursor_walk_ns:.0},\n  \
         \"bitmap_scan_ns\": {bitmap_scan_ns:.0},\n  \
         \"cursor_walk_over_scan\": {cursor_walk_over_scan:.2},\n  \
         \"spmm_nnz_per_s\": {spmm_nnz_per_s:.0},\n  \
         \"par_spmv_smash_nnz_per_s\": {spmv_nnz_per_s:.0}\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("wrote {out_path}");

    assert!(
        seek_directory_ns < seek_expand_ns,
        "directory row seek must beat full expansion"
    );
    assert!(
        cursor_walk_over_scan < MAX_CURSOR_WALK_OVER_SCAN,
        "cursor walk costs {cursor_walk_over_scan:.1} stored-bitmap popcount passes \
         (gate {MAX_CURSOR_WALK_OVER_SCAN})"
    );
}
