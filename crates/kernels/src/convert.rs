//! Instrumented format conversions (paper §4.1.3 and the Fig. 20
//! conversion-overhead experiment): CSR → SMASH and SMASH → CSR.

use crate::common::{lanes_of, sites, streams, vector_ops_of};
use smash_core::{SmashConfig, SmashMatrix};
use smash_matrix::{Csr, Scalar};
use smash_sim::{Engine, UopId};

/// Converts CSR to the hierarchical bitmap encoding, charging the engine
/// for the three steps of §4.1.3: discovering non-zero blocks, appending
/// them to the NZA, and building the bitmap hierarchy bottom-up.
pub fn csr_to_smash<E: Engine, T: Scalar>(
    e: &mut E,
    a: &Csr<T>,
    config: SmashConfig,
) -> SmashMatrix<T> {
    let vs = std::mem::size_of::<T>() as u64;
    let lanes = lanes_of::<T>();
    let sm = SmashMatrix::encode(a, config);

    let col_a = e.alloc(4 * a.nnz(), 64);
    let val_a = e.alloc(vs as usize * a.nnz(), 64);
    let nza_a = e.alloc(vs as usize * sm.nza().len(), 64);
    let levels = sm.hierarchy().num_levels();
    let bitmap_addrs: Vec<u64> = (0..levels)
        .map(|l| e.alloc(sm.hierarchy().stored_level(l).len().div_ceil(8), 64))
        .collect();

    // Step 1 + Bitmap-0 marking: stream the CSR entries; per non-zero,
    // compute its block index and set the bit (read-modify-write on the
    // bitmap word).
    let mut j = 0u64;
    for i in 0..a.rows() {
        let (cols_i, _) = a.row(i);
        for _ in cols_i {
            let cld = e.load(streams::IND, col_a + 4 * j, &[]);
            let blk = e.alu(&[cld]); // block index = f(i, col)
            let word = e.load(streams::bitmap(0), bitmap_addrs[0] + (j / 16) * 8, &[blk]);
            let or = e.alu(&[word]);
            e.store(streams::bitmap(0), bitmap_addrs[0] + (j / 16) * 8, &[or]);
            j += 1;
            e.branch(sites::SPMV_INNER, true, &[]);
        }
    }
    // Step 2: materialize the NZA: zero-fill each block (SIMD stores), then
    // scatter the values.
    let b0 = sm.config().block_size();
    for blk in 0..sm.num_blocks() {
        for lane in 0..vector_ops_of::<T>(b0) {
            let off = (blk * b0 + lane * lanes) as u64;
            e.store(streams::NZA_A, nza_a + vs * off, &[]);
        }
    }
    let mut j = 0u64;
    for i in 0..a.rows() {
        let (cols_i, _) = a.row(i);
        for _ in cols_i {
            let vld = e.load(streams::VAL, val_a + vs * j, &[]);
            let addr = e.alu(&[]); // destination slot within the block
            e.store(streams::NZA_A, nza_a + (j % 64) * vs, &[vld, addr]);
            j += 1;
        }
    }
    // Step 3: build the upper levels bottom-up — stream each child level
    // word-wise, OR-reduce groups, store parent words.
    for l in 1..levels {
        let child_words = sm.hierarchy().stored_level(l - 1).len().div_ceil(64);
        let mut dep = UopId::NONE;
        for w in 0..child_words {
            let ld = e.load(
                streams::bitmap(l - 1),
                bitmap_addrs[l - 1] + 8 * w as u64,
                &[],
            );
            dep = e.alu(&[ld, dep]); // OR-reduce into the parent word
        }
        let parent_words = sm.hierarchy().stored_level(l).len().div_ceil(64);
        for w in 0..parent_words {
            e.store(streams::bitmap(l), bitmap_addrs[l] + 8 * w as u64, &[dep]);
        }
    }
    sm
}

/// Converts a SMASH matrix back to CSR, charging the engine for the scan of
/// the hierarchy (software cursor) and the per-element zero tests and
/// output stores.
pub fn smash_to_csr<E: Engine, T: Scalar>(e: &mut E, sm: &SmashMatrix<T>) -> Csr<T> {
    let vs = std::mem::size_of::<T>() as u64;
    let lanes = lanes_of::<T>();
    let csr = sm.decode();

    let levels = sm.hierarchy().num_levels();
    let nza_a = e.alloc(vs as usize * sm.nza().len(), 64);
    let out_ind = e.alloc(4 * csr.nnz(), 64);
    let out_val = e.alloc(vs as usize * csr.nnz(), 64);
    let bitmap_addrs: Vec<u64> = (0..levels)
        .map(|l| e.alloc(sm.hierarchy().stored_level(l).len().div_ceil(8), 64))
        .collect();

    // Scan the hierarchy exactly like the software-only kernel.
    let mut next_word = vec![0usize; levels];
    let mut out = 0u64;
    let b0 = sm.config().block_size();
    for visit in sm.hierarchy().visits() {
        let word = visit.storage / 64;
        while next_word[visit.level] <= word {
            e.load(
                streams::bitmap(visit.level),
                bitmap_addrs[visit.level] + 8 * next_word[visit.level] as u64,
                &[],
            );
            next_word[visit.level] += 1;
        }
        let ctz = e.alu(&[]);
        e.alu(&[ctz]);
        if visit.level > 0 {
            continue;
        }
        // A block: load its values, test each for zero, store survivors.
        for lane in 0..vector_ops_of::<T>(b0) {
            e.load(streams::NZA_A, nza_a + vs * (lane * lanes) as u64, &[]);
        }
        for _ in 0..b0 {
            e.branch(sites::ZERO_TEST, false, &[]);
        }
    }
    for _ in 0..csr.nnz() {
        e.store(streams::OUT, out_ind + 4 * out, &[]);
        e.store(streams::OUT, out_val + vs * out, &[]);
        e.alu(&[]);
        out += 1;
    }
    csr
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_matrix::generators;
    use smash_sim::CountEngine;

    #[test]
    fn roundtrip_preserves_matrix() {
        let a = generators::uniform(64, 64, 400, 3);
        let cfg = SmashConfig::row_major(&[2, 4, 16]).unwrap();
        let mut e = CountEngine::new();
        let sm = csr_to_smash(&mut e, &a, cfg);
        let mut e2 = CountEngine::new();
        let back = smash_to_csr(&mut e2, &sm);
        assert_eq!(back, a);
    }

    #[test]
    fn conversion_cost_scales_with_nnz() {
        let cfg = SmashConfig::row_major(&[2, 4]).unwrap();
        let small = generators::uniform(64, 64, 200, 5);
        let large = generators::uniform(64, 64, 800, 5);
        let mut e1 = CountEngine::new();
        csr_to_smash(&mut e1, &small, cfg.clone());
        let mut e2 = CountEngine::new();
        csr_to_smash(&mut e2, &large, cfg);
        assert!(e2.finish().instructions() > e1.finish().instructions() * 2);
    }

    #[test]
    fn conversion_is_comparable_to_one_spmv() {
        // Fig. 20: for SpMV the conversions dominate a single kernel run
        // (roughly 30 % + 25 % vs 45 % of total time).
        let a = generators::uniform(96, 96, 900, 7);
        let cfg = SmashConfig::row_major(&[2, 4]).unwrap();
        let mut e = CountEngine::new();
        let sm = csr_to_smash(&mut e, &a, cfg);
        let conv = e.finish().instructions();
        let mut e = CountEngine::new();
        crate::spmv::spmv_hw_smash(
            &mut e,
            &mut smash_bmu::Bmu::new(),
            0,
            &sm,
            &crate::common::test_vector(96),
        );
        let kernel = e.finish().instructions();
        let ratio = conv as f64 / kernel as f64;
        assert!((0.3..3.0).contains(&ratio), "conversion/kernel = {ratio}");
    }
}
