//! Instrumented batched Sparse Matrix × Dense Matrix multiplication
//! (`C = A * B`, `B` a dense batch of right-hand-side columns) for every
//! mechanism of the paper's evaluation.
//!
//! These are the instrumented twins of the native `spmm_dense_rows`
//! driver: each one *computes* the result through exactly the shared
//! per-row / per-block bodies the driver runs ([`Csr::row_spmm_dense`],
//! [`Bcsr::block_row_spmm_dense`], [`block_axpy_dense`]) — so the numeric
//! output is bit-identical to the native driver — and *describes* the
//! column-tiled instruction stream to an [`Engine`]. Value traffic is
//! charged [`lanes_of::<T>()`](lanes_of)-wide: each width-`w` column tile
//! of the right-hand side costs `ceil(w / lanes)` vector loads and
//! multiply-adds per streamed non-zero, which is what makes batching pay —
//! the index loads (`col_ind`, block indices, bitmap words) are amortized
//! over the whole tile instead of repeated per right-hand side.

use crate::common::{lanes_of, sites, streams, vector_ops_of};
use smash_bmu::{Bmu, BmuBinding, MAX_HW_LEVELS};
use smash_core::{block_axpy_dense, SmashMatrix};
use smash_matrix::{Bcsr, Csr, Dense, Scalar};
use smash_sim::{Engine, UopId};

/// The register-blocked column tiles `(start, width)` the shared SpMDM
/// bodies split `n` right-hand sides into — materialized from
/// [`smash_matrix::for_each_rhs_tile`], the single definition of the
/// schedule, so the instrumented streams always model the tiling the
/// native kernels actually run.
pub fn rhs_tiles(n: usize) -> Vec<(usize, usize)> {
    let mut tiles = Vec::new();
    smash_matrix::for_each_rhs_tile(n, |j0, w| tiles.push((j0, w)));
    tiles
}

fn check_dims<T: Scalar>(rows: usize, cols: usize, b: &Dense<T>) {
    assert_eq!(b.rows(), cols, "inner dimensions must agree");
    let _ = rows;
}

/// CSR batched SpMM as TACO would emit it, column-tiled: for each row and
/// each RHS tile, the row's non-zeros are streamed once — one `col_ind`
/// load and dependent address generation per non-zero *per tile* (not per
/// right-hand side), then `ceil(w / lanes)` vector loads of the dense row
/// and multiply-accumulates.
pub fn spmm_dense_csr<E: Engine, T: Scalar>(e: &mut E, a: &Csr<T>, b: &Dense<T>) -> Dense<T> {
    check_dims(a.rows(), a.cols(), b);
    let vs = std::mem::size_of::<T>() as u64;
    let n = b.cols();
    let rows = a.rows();
    let row_ptr_a = e.alloc(4 * (rows + 1), 64);
    let col_a = e.alloc(4 * a.nnz(), 64);
    let val_a = e.alloc(vs as usize * a.nnz(), 64);
    let b_a = e.alloc(vs as usize * b.rows() * n, 64);
    let c_a = e.alloc(vs as usize * rows * n, 64);
    let tiles = rhs_tiles(n);

    let mut c = Dense::zeros(rows, n);
    // Hoisted load of row_ptr[0].
    let mut hi_load = e.load(streams::PTR, row_ptr_a, &[]);
    let _ = hi_load;
    for i in 0..rows {
        let lo = a.row_ptr()[i] as u64;
        let (cols_i, _) = a.row(i);
        hi_load = e.load(streams::PTR, row_ptr_a + 4 * (i as u64 + 1), &[]);
        // The real arithmetic: the shared per-row tiled body.
        a.row_spmm_dense(i, b, c.row_mut(i));
        for &(j0, w) in &tiles {
            let vecs = vector_ops_of::<T>(w);
            let mut accs = vec![UopId::NONE; vecs];
            let nnz_i = cols_i.len();
            for (k, &cidx) in cols_i.iter().enumerate() {
                let j = lo + k as u64;
                // The indexing load and dependent address generation,
                // amortized over the whole tile.
                let cld = e.load(streams::IND, col_a + 4 * j, &[]);
                let addr = e.alu(&[cld]);
                let vld = e.load(streams::VAL, val_a + vs * j, &[]);
                for (v, acc) in accs.iter_mut().enumerate() {
                    let off = (cidx as usize * n + j0 + v * lanes_of::<T>()) as u64;
                    let xld = e.load(streams::X, b_a + vs * off, &[addr]);
                    let m = e.fmul(&[xld, vld]);
                    *acc = e.fadd(&[m, *acc]);
                }
                e.alu(&[]); // jA++
                e.branch(sites::SPMV_INNER, k + 1 < nnz_i, &[hi_load]);
            }
            for (v, acc) in accs.iter().enumerate() {
                let off = (i * n + j0 + v * lanes_of::<T>()) as u64;
                e.store(streams::OUT, c_a + vs * off, &[*acc]);
            }
            e.branch(sites::SPMM_COL, j0 + w < n, &[]);
        }
        e.alu(&[]); // i++
        e.branch(sites::SPMM_ROW, i + 1 < rows, &[]);
    }
    c
}

/// Idealized batched CSR SpMM (the Fig. 3 idealization applied to SpMDM):
/// identical compute, but non-zero positions are known for free — no
/// `col_ind` loads, no dependent address generation, no `row_ptr` loads.
pub fn spmm_dense_ideal<E: Engine, T: Scalar>(e: &mut E, a: &Csr<T>, b: &Dense<T>) -> Dense<T> {
    check_dims(a.rows(), a.cols(), b);
    let vs = std::mem::size_of::<T>() as u64;
    let n = b.cols();
    let rows = a.rows();
    let val_a = e.alloc(vs as usize * a.nnz(), 64);
    let b_a = e.alloc(vs as usize * b.rows() * n, 64);
    let c_a = e.alloc(vs as usize * rows * n, 64);
    let tiles = rhs_tiles(n);

    let mut c = Dense::zeros(rows, n);
    for i in 0..rows {
        let lo = a.row_ptr()[i] as u64;
        let (cols_i, _) = a.row(i);
        a.row_spmm_dense(i, b, c.row_mut(i));
        for &(j0, w) in &tiles {
            let vecs = vector_ops_of::<T>(w);
            let mut accs = vec![UopId::NONE; vecs];
            let nnz_i = cols_i.len();
            for (k, &cidx) in cols_i.iter().enumerate() {
                let vld = e.load(streams::VAL, val_a + vs * (lo + k as u64), &[]);
                for (v, acc) in accs.iter_mut().enumerate() {
                    let off = (cidx as usize * n + j0 + v * lanes_of::<T>()) as u64;
                    let xld = e.load(streams::X, b_a + vs * off, &[]);
                    let m = e.fmul(&[xld, vld]);
                    *acc = e.fadd(&[m, *acc]);
                }
                e.alu(&[]);
                e.branch(sites::SPMV_INNER, k + 1 < nnz_i, &[]);
            }
            for (v, acc) in accs.iter().enumerate() {
                let off = (i * n + j0 + v * lanes_of::<T>()) as u64;
                e.store(streams::OUT, c_a + vs * off, &[*acc]);
            }
            e.branch(sites::SPMM_COL, j0 + w < n, &[]);
        }
        e.branch(sites::SPMM_ROW, i + 1 < rows, &[]);
    }
    c
}

/// BCSR batched SpMM: one block index load per stored block *per tile*,
/// dense SIMD compute inside each block — explicit zeros included, lanes
/// charged per RHS tile column group.
pub fn spmm_dense_bcsr<E: Engine, T: Scalar>(e: &mut E, a: &Bcsr<T>, b: &Dense<T>) -> Dense<T> {
    check_dims(a.rows(), a.cols(), b);
    let vs = std::mem::size_of::<T>() as u64;
    let n = b.cols();
    let (br, bc) = a.block_shape();
    let bs = br * bc;
    let n_block_rows = a.num_block_rows();
    let ptr_a = e.alloc(4 * (n_block_rows + 1), 64);
    let ind_a = e.alloc(4 * a.num_blocks(), 64);
    let val_a = e.alloc(vs as usize * a.nnz_stored(), 64);
    let b_a = e.alloc(vs as usize * b.rows() * n, 64);
    let c_a = e.alloc(vs as usize * a.rows() * n, 64);
    let tiles = rhs_tiles(n);

    let mut c = Dense::zeros(a.rows(), n);
    let mut hi_load = e.load(streams::PTR, ptr_a, &[]);
    let _ = hi_load;
    for bi in 0..n_block_rows {
        hi_load = e.load(streams::PTR, ptr_a + 4 * (bi as u64 + 1), &[]);
        let lo = a.block_row_ptr()[bi] as usize;
        let hi = a.block_row_ptr()[bi + 1] as usize;
        let row_lo = bi * br;
        let rows_here = br.min(a.rows() - row_lo);
        a.block_row_spmm_dense(
            bi,
            b,
            &mut c.as_mut_slice()[row_lo * n..(row_lo + rows_here) * n],
        );
        for &(j0, w) in &tiles {
            let vecs = vector_ops_of::<T>(w);
            let mut accs = vec![UopId::NONE; rows_here * vecs];
            for k in lo..hi {
                let bcol = a.block_col_ind()[k] as usize;
                // Block index load + B base address generation, once per
                // block per tile.
                let ild = e.load(streams::IND, ind_a + 4 * k as u64, &[]);
                let addr = e.alu(&[ild]);
                for lr in 0..rows_here {
                    for lc in 0..bc.min(a.cols() - bcol * bc) {
                        let voff = (k * bs + lr * bc + lc) as u64;
                        let vld = e.load(streams::VAL, val_a + vs * voff, &[]);
                        for v in 0..vecs {
                            let boff = ((bcol * bc + lc) * n + j0 + v * lanes_of::<T>()) as u64;
                            let xld = e.load(streams::X, b_a + vs * boff, &[addr]);
                            let m = e.fmul(&[vld, xld]);
                            accs[lr * vecs + v] = e.fadd(&[m, accs[lr * vecs + v]]);
                        }
                    }
                }
                e.alu(&[]); // k++
                e.branch(sites::BLOCK_LOOP, k + 1 < hi, &[hi_load]);
            }
            for lr in 0..rows_here {
                for v in 0..vecs {
                    let off = ((row_lo + lr) * n + j0 + v * lanes_of::<T>()) as u64;
                    e.store(streams::OUT, c_a + vs * off, &[accs[lr * vecs + v]]);
                }
            }
            e.branch(sites::SPMM_COL, j0 + w < n, &[]);
        }
        e.alu(&[]);
        e.branch(sites::SPMM_ROW, bi + 1 < n_block_rows, &[]);
    }
    c
}

/// Software-only SMASH batched SpMM (paper §4.4 scanning, SpMDM compute):
/// the bitmap hierarchy is scanned in software — word loads,
/// count-trailing-zeros and AND-masking per set bit — then each non-zero
/// block is multiplied against every RHS tile with SIMD, its scan cost
/// amortized over the whole batch.
pub fn spmm_dense_sw_smash<E: Engine, T: Scalar>(
    e: &mut E,
    a: &SmashMatrix<T>,
    b: &Dense<T>,
) -> Dense<T> {
    check_dims(a.rows(), a.cols(), b);
    let vs = std::mem::size_of::<T>() as u64;
    let n = b.cols();
    let levels = a.hierarchy().num_levels();
    let b0 = a.config().block_size();
    let nza_a = e.alloc(vs as usize * a.nza().len(), 64);
    let b_a = e.alloc(vs as usize * b.rows() * n, 64);
    let c_a = e.alloc(vs as usize * a.rows() * n, 64);
    let bitmap_addrs: Vec<u64> = (0..levels)
        .map(|l| e.alloc(a.hierarchy().stored_level(l).len().div_ceil(8), 64))
        .collect();
    let tiles = rhs_tiles(n);
    let nza = a.nza().values();

    let mut c = Dense::zeros(a.rows(), n);
    let mut next_word = vec![0usize; levels];
    let mut word_uop = vec![UopId::NONE; levels];
    let mut scan_chain = vec![UopId::NONE; levels];
    let load_words =
        |e: &mut E, level: usize, upto: usize, next_word: &mut [usize], word_uop: &mut [UopId]| {
            while next_word[level] <= upto {
                word_uop[level] = e.load(
                    streams::bitmap(level),
                    bitmap_addrs[level] + 8 * next_word[level] as u64,
                    &[],
                );
                next_word[level] += 1;
            }
        };

    let vecs_total: usize = tiles.iter().map(|&(_, w)| vector_ops_of::<T>(w)).sum();
    let mut accs = vec![UopId::NONE; vecs_total];
    let mut cur_row = usize::MAX;
    let mut ordinal = 0usize;
    for visit in a.hierarchy().visits() {
        let word = visit.storage / 64;
        load_words(e, visit.level, word, &mut next_word, &mut word_uop);
        let ctz = e.alu(&[word_uop[visit.level], scan_chain[visit.level]]);
        let mask = e.alu(&[ctz]);
        scan_chain[visit.level] = mask;
        e.branch(sites::SCAN_FOUND, true, &[ctz]);
        if visit.level > 0 {
            e.alu(&[ctz]);
            continue;
        }
        let idx1 = e.alu(&[ctz]);
        let idx2 = e.alu(&[idx1]);
        let (row, col) = a.block_row_col(visit.logical);
        if row != cur_row {
            if cur_row != usize::MAX {
                flush_row_stores::<E, T>(e, c_a, cur_row, n, &tiles, &accs, vs);
            }
            e.branch(sites::LINE_CHANGE, true, &[idx2]);
            cur_row = row;
            accs.iter_mut().for_each(|u| *u = UopId::NONE);
        }
        let block = &nza[ordinal * b0..(ordinal + 1) * b0];
        let nb = b0.min(a.cols() - col);
        // The real arithmetic: the shared per-block body.
        block_axpy_dense(block, b, col, nb, c.row_mut(row));
        charge_block_tiles::<E, T>(
            e, nza_a, b_a, ordinal, b0, col, n, &tiles, &mut accs, idx2, vs,
        );
        ordinal += 1;
    }
    if cur_row != usize::MAX {
        flush_row_stores::<E, T>(e, c_a, cur_row, n, &tiles, &accs, vs);
    }
    for level in 0..levels {
        let total = a.hierarchy().stored_level(level).len().div_ceil(64);
        while next_word[level] < total {
            e.load(
                streams::bitmap(level),
                bitmap_addrs[level] + 8 * next_word[level] as u64,
                &[],
            );
            next_word[level] += 1;
        }
    }
    c
}

/// Full SMASH batched SpMM: the BMU scans the hierarchy (one
/// `pbmap`/`rdind` pair per non-zero block, regardless of how many
/// right-hand sides are batched), the core runs tiled SIMD compute over
/// the block × RHS-tile products.
pub fn spmm_dense_hw_smash<E: Engine, T: Scalar>(
    e: &mut E,
    bmu: &mut Bmu,
    grp: usize,
    a: &SmashMatrix<T>,
    b: &Dense<T>,
) -> Dense<T> {
    check_dims(a.rows(), a.cols(), b);
    let vs = std::mem::size_of::<T>() as u64;
    let n = b.cols();
    let levels = a.hierarchy().num_levels();
    assert!(
        levels <= MAX_HW_LEVELS,
        "hardware buffers at most {MAX_HW_LEVELS} levels"
    );
    let b0 = a.config().block_size();
    let nza_a = e.alloc(vs as usize * a.nza().len(), 64);
    let b_a = e.alloc(vs as usize * b.rows() * n, 64);
    let c_a = e.alloc(vs as usize * a.rows() * n, 64);
    let mut level_addrs = [0u64; MAX_HW_LEVELS];
    for (l, addr) in level_addrs.iter_mut().enumerate().take(levels) {
        *addr = e.alloc(a.hierarchy().stored_level(l).len().div_ceil(8), 64);
    }
    let binding = BmuBinding {
        hierarchy: a.hierarchy(),
        level_addrs,
    };
    bmu.matinfo(e, grp, a.rows() as u32, a.cols() as u32);
    for (lvl, &r) in a.config().ratios().iter().enumerate() {
        bmu.bmapinfo(e, grp, lvl, r);
    }
    for lvl in (0..levels).rev() {
        bmu.rdbmap(e, grp, lvl, level_addrs[lvl], &binding);
    }
    let tiles = rhs_tiles(n);
    let nza = a.nza().values();

    let mut c = Dense::zeros(a.rows(), n);
    let vecs_total: usize = tiles.iter().map(|&(_, w)| vector_ops_of::<T>(w)).sum();
    let mut accs = vec![UopId::NONE; vecs_total];
    let mut cur_row = usize::MAX;
    let mut ordinal = 0usize;
    let num_blocks = a.num_blocks();
    loop {
        let p = bmu.pbmap(e, grp, &binding);
        let Some(block_logical) = p.block else { break };
        let ind = bmu.rdind(e, grp);
        let (row, col) = a.block_row_col(block_logical);
        debug_assert_eq!((ind.row as usize, ind.col as usize), (row, col));
        if row != cur_row {
            if cur_row != usize::MAX {
                flush_row_stores::<E, T>(e, c_a, cur_row, n, &tiles, &accs, vs);
            }
            e.branch(sites::LINE_CHANGE, true, &[ind.uop]);
            cur_row = row;
            accs.iter_mut().for_each(|u| *u = UopId::NONE);
        }
        let addr = e.alu(&[ind.uop]);
        let block = &nza[ordinal * b0..(ordinal + 1) * b0];
        let nb = b0.min(a.cols() - col);
        block_axpy_dense(block, b, col, nb, c.row_mut(row));
        charge_block_tiles::<E, T>(
            e, nza_a, b_a, ordinal, b0, col, n, &tiles, &mut accs, addr, vs,
        );
        ordinal += 1;
        e.alu(&[]); // ctrNZ++
        e.branch(sites::SPMM_ROW, ordinal < num_blocks, &[]);
    }
    if cur_row != usize::MAX {
        flush_row_stores::<E, T>(e, c_a, cur_row, n, &tiles, &accs, vs);
    }
    c
}

/// Charges the tiled SIMD compute of one NZA block against every RHS tile:
/// per block element, one value load (broadcast) and `ceil(w / lanes)`
/// vector loads + multiply-adds per tile, chained into the row's
/// accumulators.
#[allow(clippy::too_many_arguments)]
fn charge_block_tiles<E: Engine, T: Scalar>(
    e: &mut E,
    nza_a: u64,
    b_a: u64,
    ordinal: usize,
    b0: usize,
    col: usize,
    n: usize,
    tiles: &[(usize, usize)],
    accs: &mut [UopId],
    addr_dep: UopId,
    vs: u64,
) {
    let mut acc_base = 0usize;
    for &(j0, w) in tiles {
        let vecs = vector_ops_of::<T>(w);
        for k in 0..b0 {
            let vld = e.load(streams::NZA_A, nza_a + vs * (ordinal * b0 + k) as u64, &[]);
            for v in 0..vecs {
                let boff = ((col + k) * n + j0 + v * lanes_of::<T>()) as u64;
                let xld = e.load(streams::X, b_a + vs * boff, &[addr_dep]);
                let m = e.fmul(&[vld, xld]);
                accs[acc_base + v] = e.fadd(&[m, accs[acc_base + v]]);
            }
        }
        acc_base += vecs;
    }
}

/// Stores one finished output row, one store per accumulator vector.
fn flush_row_stores<E: Engine, T: Scalar>(
    e: &mut E,
    c_a: u64,
    row: usize,
    n: usize,
    tiles: &[(usize, usize)],
    accs: &[UopId],
    vs: u64,
) {
    let mut acc_base = 0usize;
    for &(j0, w) in tiles {
        let vecs = vector_ops_of::<T>(w);
        for v in 0..vecs {
            let off = (row * n + j0 + v * lanes_of::<T>()) as u64;
            e.store(streams::OUT, c_a + vs * off, &[accs[acc_base + v]]);
        }
        acc_base += vecs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_vector;
    use smash_core::SmashConfig;
    use smash_matrix::{generators, spmm_dense_rows};
    use smash_sim::{CountEngine, UopClass};

    fn test_batch(rows: usize, cols: usize) -> Dense<f64> {
        let mut b = Dense::zeros(rows, cols);
        for (i, v) in test_vector::<f64>(rows * cols).into_iter().enumerate() {
            b.set(i / cols, i % cols, v);
        }
        b
    }

    #[test]
    fn rhs_tiles_cover_the_width_once() {
        for n in [0usize, 1, 3, 4, 7, 8, 12, 17, 64] {
            let tiles = rhs_tiles(n);
            let mut covered = 0usize;
            for &(j0, w) in &tiles {
                assert_eq!(j0, covered, "tiles must be contiguous");
                assert!(w == 8 || w == 4 || w == 1);
                covered += w;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn instrumented_twins_match_native_bitwise() {
        let a = generators::clustered(48, 56, 400, 4, 7);
        let b = test_batch(56, 11);
        let mut want = Dense::zeros(48, 11);

        spmm_dense_rows(&a, &b, &mut want);
        let mut e = CountEngine::new();
        assert_eq!(spmm_dense_csr(&mut e, &a, &b), want);
        let mut e = CountEngine::new();
        assert_eq!(spmm_dense_ideal(&mut e, &a, &b), want);

        let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
        spmm_dense_rows(&bcsr, &b, &mut want);
        let mut e = CountEngine::new();
        assert_eq!(spmm_dense_bcsr(&mut e, &bcsr, &b), want);

        for ratios in [&[2u32][..], &[2, 4, 16]] {
            let sm = SmashMatrix::encode(&a, SmashConfig::row_major(ratios).unwrap());
            spmm_dense_rows(&sm, &b, &mut want);
            let mut e = CountEngine::new();
            assert_eq!(spmm_dense_sw_smash(&mut e, &sm, &b), want, "{ratios:?}");
            let mut e = CountEngine::new();
            let mut bmu = Bmu::new();
            assert_eq!(
                spmm_dense_hw_smash(&mut e, &mut bmu, 0, &sm, &b),
                want,
                "{ratios:?}"
            );
        }
    }

    #[test]
    fn batching_amortizes_index_traffic() {
        // 8 RHS in one batched pass must execute far fewer instructions
        // than 8 independent SpMVs: the index stream is charged once per
        // tile, not once per vector.
        let a = generators::uniform(96, 96, 900, 3);
        let b = test_batch(96, 8);
        let mut e1 = CountEngine::new();
        spmm_dense_csr(&mut e1, &a, &b);
        let batched = e1.finish().instructions();

        let mut e2 = CountEngine::new();
        for j in 0..8 {
            crate::spmv::spmv_csr(&mut e2, &a, &b.col(j));
        }
        let looped = e2.finish().instructions();
        let ratio = batched as f64 / looped as f64;
        assert!(ratio < 0.75, "batched/looped instruction ratio {ratio}");
    }

    #[test]
    fn f32_charges_fewer_vector_ops_than_f64() {
        let a64 = generators::uniform(64, 64, 500, 9);
        let b64 = test_batch(64, 8);
        let mut e = CountEngine::new();
        spmm_dense_csr(&mut e, &a64, &b64);
        let f64_loads = e.finish().count(UopClass::Load);

        let a32 = a64.cast::<f32>();
        let mut b32 = Dense::<f32>::zeros(64, 8);
        for i in 0..64 {
            for j in 0..8 {
                b32.set(i, j, b64.get(i, j) as f32);
            }
        }
        let mut e = CountEngine::new();
        spmm_dense_csr(&mut e, &a32, &b32);
        let f32_loads = e.finish().count(UopClass::Load);
        assert!(
            f32_loads < f64_loads,
            "f32 {f32_loads} loads vs f64 {f64_loads}"
        );
    }

    #[test]
    fn hw_smash_emits_coproc_instructions() {
        let a = generators::clustered(64, 64, 600, 4, 5);
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4]).unwrap());
        let b = test_batch(64, 8);
        let mut e = CountEngine::new();
        let mut bmu = Bmu::new();
        spmm_dense_hw_smash(&mut e, &mut bmu, 0, &sm, &b);
        let s = e.finish();
        assert!(s.count(UopClass::Coproc) > 0);
    }
}
