//! Instrumented inner-product Sparse Matrix–Matrix multiplication
//! (`C = A * B`) for every mechanism (paper §2.1.2, Code Listing 2,
//! Algorithm 2).
//!
//! `A` is row-compressed, `B` column-compressed. Every dot product requires
//! *index matching* — advancing two sorted position streams and comparing —
//! which is the dominant indexing cost of SpMM and the reason the paper's
//! SpMM speedups exceed its SpMV speedups.

use crate::common::{lanes_of, sites, streams, vector_ops_of};
use crate::operand::SmashMergeOperand;
use smash_bmu::{Bmu, BmuBinding, MAX_HW_LEVELS};
use smash_core::{Layout, SmashMatrix};
use smash_matrix::{Bcsr, Coo, Csc, Csr, Scalar};
use smash_sim::{Engine, UopId};

/// CSR×CSC inner-product SpMM with element-granularity index matching
/// (paper Code Listing 2). For every `(row, column)` pair the two sorted
/// index lists are merged; each step loads an index from memory, compares,
/// and branches on the data-dependent outcome.
pub fn spmm_csr<E: Engine, T: Scalar>(e: &mut E, a: &Csr<T>, b: &Csc<T>) -> Coo<T> {
    let vs = std::mem::size_of::<T>() as u64;
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let a_ptr = e.alloc(4 * (a.rows() + 1), 64);
    let a_ind = e.alloc(4 * a.nnz(), 64);
    let a_val = e.alloc(vs as usize * a.nnz(), 64);
    let b_ptr = e.alloc(4 * (b.cols() + 1), 64);
    let b_ind = e.alloc(4 * b.nnz(), 64);
    let b_val = e.alloc(vs as usize * b.nnz(), 64);
    let c_out = e.alloc(vs as usize * a.rows() * b.cols(), 64);

    let mut c = Coo::new(a.rows(), b.cols());
    for i in 0..a.rows() {
        let a_lo = a.row_ptr()[i] as u64;
        let (ac, av) = a.row(i);
        e.load(streams::PTR, a_ptr + 4 * (i as u64 + 1), &[]);
        e.alu(&[]);
        if ac.is_empty() {
            e.branch(sites::SPMM_ROW, true, &[]);
            continue;
        }
        for j in 0..b.cols() {
            let b_lo = b.col_ptr()[j] as u64;
            let (bc, bv) = b.col(j);
            e.load(streams::PTR_B, b_ptr + 4 * (j as u64 + 1), &[]);
            let (mut p, mut q) = (0usize, 0usize);
            let mut acc_u = UopId::NONE;
            let mut acc = T::ZERO;
            let mut hit = false;
            // TACO's co-iteration merge re-loads both coordinates every
            // iteration (the increments are data-dependent, so nothing
            // stays in registers across iterations):
            //   while (jA < endA && jB < endB) {
            //     kA = A2_crd[jA]; kB = B2_crd[jB]; k = min(kA, kB);
            //     if (kA == k && kB == k) c += A_vals[jA] * B_vals[jB];
            //     jA += (kA == k); jB += (kB == k);
            //   }
            while p < ac.len() && q < bc.len() {
                let a_cur = e.load(streams::IND, a_ind + 4 * (a_lo + p as u64), &[]);
                let b_cur = e.load(streams::IND_B, b_ind + 4 * (b_lo + q as u64), &[]);
                let cmp = e.alu(&[a_cur, b_cur]); // k = min(kA, kB)
                let matched = ac[p] == bc[q];
                e.branch(sites::MATCH_CMP, matched, &[cmp]);
                if matched {
                    let va = e.load(streams::VAL, a_val + vs * (a_lo + p as u64), &[]);
                    let vb = e.load(streams::VAL_B, b_val + vs * (b_lo + q as u64), &[]);
                    let m = e.fmul(&[va, vb]);
                    acc_u = e.fadd(&[m, acc_u]);
                    acc += av[p] * bv[q];
                    hit = true;
                    p += 1;
                    q += 1;
                } else if ac[p] < bc[q] {
                    p += 1;
                } else {
                    q += 1;
                }
                e.alu(&[cmp]); // jA += (kA == k)
                e.alu(&[cmp]); // jB += (kB == k)
                let more = p < ac.len() && q < bc.len();
                e.branch(sites::MERGE_BOUND, more, &[]); // loop bound
            }
            if hit && !acc.is_zero() {
                let addr = (i * b.cols() + j) as u64;
                e.store(streams::OUT, c_out + vs * addr, &[acc_u]);
                c.push(i, j, acc);
            }
            e.branch(sites::SPMM_COL, j + 1 < b.cols(), &[]);
        }
        e.branch(sites::SPMM_ROW, i + 1 < a.rows(), &[]);
    }
    c
}

/// Idealized SpMM (paper Fig. 3): *accessing* positions is free — the
/// merge still iterates and compares (positions arrive in registers), but
/// every coordinate load and its dependent address work vanish.
pub fn spmm_ideal<E: Engine, T: Scalar>(e: &mut E, a: &Csr<T>, b: &Csc<T>) -> Coo<T> {
    let vs = std::mem::size_of::<T>() as u64;
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let a_val = e.alloc(vs as usize * a.nnz(), 64);
    let b_val = e.alloc(vs as usize * b.nnz(), 64);
    let c_out = e.alloc(vs as usize * a.rows() * b.cols(), 64);

    let mut c = Coo::new(a.rows(), b.cols());
    for i in 0..a.rows() {
        let (ac, av) = a.row(i);
        if ac.is_empty() {
            e.branch(sites::SPMM_ROW, true, &[]);
            continue;
        }
        let a_lo = a.row_ptr()[i] as u64;
        for j in 0..b.cols() {
            let (bc, bv) = b.col(j);
            let b_lo = b.col_ptr()[j] as u64;
            let mut acc_u = UopId::NONE;
            let mut acc = T::ZERO;
            let mut hit = false;
            let (mut p, mut q) = (0usize, 0usize);
            while p < ac.len() && q < bc.len() {
                // Positions are in registers: one compare + one branch per
                // merge step remains.
                let cmp = e.alu(&[]);
                let matched = ac[p] == bc[q];
                e.branch(sites::MATCH_CMP, matched, &[cmp]);
                match ac[p].cmp(&bc[q]) {
                    std::cmp::Ordering::Equal => {
                        let va = e.load(streams::VAL, a_val + vs * (a_lo + p as u64), &[]);
                        let vb = e.load(streams::VAL_B, b_val + vs * (b_lo + q as u64), &[]);
                        let m = e.fmul(&[va, vb]);
                        acc_u = e.fadd(&[m, acc_u]);
                        acc += av[p] * bv[q];
                        hit = true;
                        p += 1;
                        q += 1;
                    }
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                }
            }
            if hit && !acc.is_zero() {
                let addr = (i * b.cols() + j) as u64;
                e.store(streams::OUT, c_out + vs * addr, &[acc_u]);
                c.push(i, j, acc);
            }
            e.branch(sites::SPMM_COL, j + 1 < b.cols(), &[]);
        }
        e.branch(sites::SPMM_ROW, i + 1 < a.rows(), &[]);
    }
    c
}

/// BCSR SpMM: index matching at block granularity over `A` (BCSR) and
/// `Bᵀ` (BCSR of the transpose, giving column-major access to `B`), with a
/// dense SIMD tile product per match.
///
/// # Panics
///
/// Panics if the two operands' block shapes differ or are non-square, or if
/// the inner dimensions disagree.
pub fn spmm_bcsr<E: Engine, T: Scalar>(e: &mut E, a: &Bcsr<T>, bt: &Bcsr<T>) -> Coo<T> {
    let vs = std::mem::size_of::<T>() as u64;
    let lanes = lanes_of::<T>();
    let (s, s2) = a.block_shape();
    assert_eq!((s, s2), bt.block_shape(), "block shapes must agree");
    assert_eq!(s, s2, "blocks must be square");
    assert_eq!(a.cols(), bt.cols(), "inner dimensions must agree");
    let a_ind = e.alloc(4 * a.num_blocks(), 64);
    let b_ind = e.alloc(4 * bt.num_blocks(), 64);
    let a_val = e.alloc(vs as usize * a.nnz_stored(), 64);
    let b_val = e.alloc(vs as usize * bt.nnz_stored(), 64);
    let c_out = e.alloc(vs as usize * a.rows() * bt.rows(), 64);

    let bs = s * s;
    let mut c = Coo::new(a.rows(), bt.rows());
    for bi in 0..a.num_block_rows() {
        let (alo, ahi) = (
            a.block_row_ptr()[bi] as usize,
            a.block_row_ptr()[bi + 1] as usize,
        );
        e.load(streams::PTR, a_ind, &[]);
        if alo == ahi {
            e.branch(sites::SPMM_ROW, true, &[]);
            continue;
        }
        for bj in 0..bt.num_block_rows() {
            let (blo, bhi) = (
                bt.block_row_ptr()[bj] as usize,
                bt.block_row_ptr()[bj + 1] as usize,
            );
            e.load(streams::PTR_B, b_ind, &[]);
            let mut tile_acc = vec![T::ZERO; bs];
            let mut acc_u = vec![UopId::NONE; bs];
            let mut hit = false;
            let (mut p, mut q) = (alo, blo);
            while p < ahi && q < bhi {
                let pa = e.load(streams::IND, a_ind + 4 * p as u64, &[]);
                let pb = e.load(streams::IND_B, b_ind + 4 * q as u64, &[]);
                let cmp = e.alu(&[pa, pb]);
                e.alu(&[cmp]); // increments
                e.alu(&[cmp]);
                e.branch(sites::MERGE_BOUND, true, &[]);
                match a.block_col_ind()[p].cmp(&bt.block_col_ind()[q]) {
                    std::cmp::Ordering::Equal => {
                        e.branch(sites::MATCH_CMP, true, &[cmp]);
                        hit = true;
                        let ta = &a.values()[p * bs..(p + 1) * bs];
                        let tb = &bt.values()[q * bs..(q + 1) * bs];
                        // C_tile[lr][lc] += sum_k A[lr][k] * Bt[lc][k],
                        // vectorized along k.
                        for lr in 0..s {
                            for lc in 0..s {
                                for lane in 0..vector_ops_of::<T>(s) {
                                    let ka = (p * bs + lr * s + lane * lanes) as u64;
                                    let kb = (q * bs + lc * s + lane * lanes) as u64;
                                    let va = e.load(streams::VAL, a_val + vs * ka, &[]);
                                    let vb = e.load(streams::VAL_B, b_val + vs * kb, &[]);
                                    let m = e.fmul(&[va, vb]);
                                    acc_u[lr * s + lc] = e.fadd(&[m, acc_u[lr * s + lc]]);
                                }
                                let dot: T = (0..s).map(|k| ta[lr * s + k] * tb[lc * s + k]).sum();
                                tile_acc[lr * s + lc] += dot;
                            }
                        }
                        p += 1;
                        q += 1;
                    }
                    std::cmp::Ordering::Less => {
                        e.branch(sites::MATCH_CMP, false, &[cmp]);
                        p += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        e.branch(sites::MATCH_CMP, false, &[cmp]);
                        q += 1;
                    }
                }
            }
            if hit {
                for lr in 0..s {
                    let row = bi * s + lr;
                    if row >= a.rows() {
                        break;
                    }
                    for lc in 0..s {
                        let col = bj * s + lc;
                        let v = tile_acc[lr * s + lc];
                        if col < bt.rows() && !v.is_zero() {
                            let addr = (row * bt.rows() + col) as u64;
                            e.store(streams::OUT, c_out + vs * addr, &[acc_u[lr * s + lc]]);
                            c.push(row, col, v);
                        }
                    }
                }
            }
            e.branch(sites::SPMM_COL, bj + 1 < bt.num_block_rows(), &[]);
        }
        e.branch(sites::SPMM_ROW, bi + 1 < a.num_block_rows(), &[]);
    }
    c.compress();
    c
}

/// Full SMASH SpMM (paper Algorithm 2): `A` row-major and `B` column-major,
/// each with a single-level bitmap; two BMU groups perform the index
/// matching at *block* granularity, and matches run a SIMD block dot
/// product.
///
/// The merge advances the group whose current index is smaller (the paper's
/// pseudocode advances both unconditionally, which would skip matches; we
/// implement the correct two-cursor merge).
///
/// # Panics
///
/// Panics if either operand has more than one bitmap level, if block sizes
/// differ, or if inner dimensions disagree.
pub fn spmm_hw_smash<E: Engine, T: Scalar>(
    e: &mut E,
    bmu: &mut Bmu,
    a: &SmashMatrix<T>,
    b: &SmashMatrix<T>,
) -> Coo<T> {
    let vs = std::mem::size_of::<T>() as u64;
    let lanes = lanes_of::<T>();
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(a.config().layout(), Layout::RowMajor, "A must be row-major");
    assert_eq!(b.config().layout(), Layout::ColMajor, "B must be col-major");
    assert_eq!(
        a.hierarchy().num_levels(),
        1,
        "per-line rescans need a 1-level hierarchy (paper §5.2)"
    );
    assert_eq!(b.hierarchy().num_levels(), 1, "B must be 1-level too");
    let b0 = a.config().block_size();
    assert_eq!(b0, b.config().block_size(), "block sizes must agree");

    let nza_a = e.alloc(vs as usize * a.nza().len(), 64);
    let nza_b = e.alloc(vs as usize * b.nza().len(), 64);
    let bm_a = e.alloc(a.hierarchy().stored_level(0).len().div_ceil(8), 64);
    let bm_b = e.alloc(b.hierarchy().stored_level(0).len().div_ceil(8), 64);
    let starts_a_addr = e.alloc(4 * (a.line_count() + 1), 64);
    let starts_b_addr = e.alloc(4 * (b.line_count() + 1), 64);
    let c_out = e.alloc(vs as usize * a.rows() * b.cols(), 64);

    let mut level_addrs_a = [0u64; MAX_HW_LEVELS];
    level_addrs_a[0] = bm_a;
    let mut level_addrs_b = [0u64; MAX_HW_LEVELS];
    level_addrs_b[0] = bm_b;
    let bind_a = BmuBinding {
        hierarchy: a.hierarchy(),
        level_addrs: level_addrs_a,
    };
    let bind_b = BmuBinding {
        hierarchy: b.hierarchy(),
        level_addrs: level_addrs_b,
    };

    // Algorithm 2 lines 2-5: matinfo/bmapinfo for both operands.
    bmu.matinfo(e, 0, a.rows() as u32, a.cols() as u32);
    bmu.matinfo(e, 1, b.cols() as u32, b.rows() as u32);
    bmu.bmapinfo(e, 0, 0, b0 as u32);
    bmu.bmapinfo(e, 1, 0, b0 as u32);

    let lines_a = SmashMergeOperand::new(a);
    let lines_b = SmashMergeOperand::new(b);
    let bpl_a = a.blocks_per_line();
    let bpl_b = b.blocks_per_line();
    let mut c = Coo::new(a.rows(), b.cols());

    // Scratch array for the current A row's block positions — the inner
    // (per-column) loop replays the row many times, so the kernel scans it
    // through the BMU once per row and caches the indices (a register/stack
    // buffer in a real implementation).
    let row_cache = e.alloc(4 * (bpl_a + 1), 64);

    for i in 0..a.rows() {
        let (base_a, ablocks) = lines_a.line(i);
        if ablocks.is_empty() {
            e.branch(sites::SPMM_ROW, true, &[]);
            continue;
        }
        let row_bit = i * bpl_a;
        // rdbmap A at the row offset (Algorithm 2 line 7), then pump the
        // whole row through pbmap/rdind once, caching block positions.
        bmu.rdbmap(e, 0, 0, bm_a + (row_bit / 8) as u64, &bind_a);
        let sa = e.load(streams::LINE_STARTS, starts_a_addr + 4 * i as u64, &[]);
        let mut cached = 0usize;
        while cached < ablocks.len() {
            let p = bmu.pbmap(e, 0, &bind_a);
            match p.block {
                Some(blk) if blk < row_bit => continue, // byte-aligned early start
                Some(_) => {
                    let ind = bmu.rdind(e, 0);
                    e.store(
                        streams::LINE_STARTS,
                        row_cache + 4 * cached as u64,
                        &[ind.uop],
                    );
                    cached += 1;
                }
                None => unreachable!("line block count bounds the scan"),
            }
        }

        for j in 0..b.cols() {
            let (base_b, bblocks) = lines_b.line(j);
            e.branch(sites::SPMM_COL, j + 1 < b.cols(), &[]);
            if bblocks.is_empty() {
                continue;
            }
            let sb = e.load(streams::LINE_STARTS, starts_b_addr + 4 * j as u64, &[]);
            // rdbmap B at the column offset (line 9); the window is usually
            // still buffered, making this a one-cycle re-arm.
            let col_bit = j * bpl_b;
            bmu.rdbmap(e, 1, 0, bm_b + (col_bit / 8) as u64, &bind_b);

            // Advance the B cursor: pbmap past any pre-line blocks (byte-
            // granular rdbmap may start up to 7 bits early) then read the
            // indices. The per-line block count bounds the probes.
            let adv_b = |bmu: &mut Bmu, e: &mut E| -> (usize, UopId) {
                loop {
                    let p = bmu.pbmap(e, 1, &bind_b);
                    match p.block {
                        Some(blk) if blk < col_bit => continue,
                        Some(blk) => {
                            let ind = bmu.rdind(e, 1);
                            return (blk, ind.uop);
                        }
                        None => unreachable!("line block count bounds the scan"),
                    }
                }
            };
            let n_a = ablocks.len();
            let n_b = bblocks.len();
            // A side comes from the cached row scan (a hot load per step);
            // B side streams from the BMU.
            let mut ind_a = e.load(streams::LINE_STARTS, row_cache, &[]);
            let (mut cur_b, mut ind_b) = adv_b(bmu, e);
            let (mut k_a, mut k_b) = (0usize, 0usize);
            let mut ord_a = base_a;
            let mut ord_b = base_b;

            let mut acc_u = UopId::NONE;
            let mut acc = T::ZERO;
            let mut hit = false;
            loop {
                // Compare the inner-dimension positions of the two current
                // blocks (Algorithm 2 line 14: colIndA == rowIndB). The
                // indices live in core registers after rdind, so only the
                // compare, the counter update and the bound check execute
                // per step.
                let cmp = e.alu(&[ind_a, ind_b]);
                e.alu(&[cmp]); // counter update
                e.branch(sites::MERGE_BOUND, true, &[]);
                let pos_a = ablocks[k_a] as usize * b0; // column of A's block
                let pos_b = (cur_b - col_bit) * b0; // row of B's block
                match pos_a.cmp(&pos_b) {
                    std::cmp::Ordering::Equal => {
                        e.branch(sites::MATCH_CMP, true, &[cmp]);
                        hit = true;
                        // SIMD dot product of the two NZA blocks.
                        let a_addr = e.alu(&[sa]);
                        let b_addr = e.alu(&[sb]);
                        let blk_a = a.nza().block(ord_a);
                        let blk_b = b.nza().block(ord_b);
                        for lane in 0..vector_ops_of::<T>(b0) {
                            let oa = (ord_a * b0 + lane * lanes) as u64;
                            let ob = (ord_b * b0 + lane * lanes) as u64;
                            let va = e.load(streams::NZA_A, nza_a + vs * oa, &[a_addr]);
                            let vb = e.load(streams::NZA_B, nza_b + vs * ob, &[b_addr]);
                            let m = e.fmul(&[va, vb]);
                            acc_u = e.fadd(&[m, acc_u]);
                        }
                        acc += blk_a.iter().zip(blk_b).map(|(&x, &y)| x * y).sum::<T>();
                        k_a += 1;
                        k_b += 1;
                        ord_a += 1;
                        ord_b += 1;
                        if k_a >= n_a || k_b >= n_b {
                            break;
                        }
                        ind_a = e.load(streams::LINE_STARTS, row_cache + 4 * k_a as u64, &[]);
                        let (nb, ub) = adv_b(bmu, e);
                        cur_b = nb;
                        ind_b = ub;
                    }
                    std::cmp::Ordering::Less => {
                        e.branch(sites::MATCH_CMP, false, &[cmp]);
                        k_a += 1;
                        ord_a += 1;
                        if k_a >= n_a {
                            break;
                        }
                        ind_a = e.load(streams::LINE_STARTS, row_cache + 4 * k_a as u64, &[]);
                    }
                    std::cmp::Ordering::Greater => {
                        e.branch(sites::MATCH_CMP, false, &[cmp]);
                        k_b += 1;
                        ord_b += 1;
                        if k_b >= n_b {
                            break;
                        }
                        let (nb, ub) = adv_b(bmu, e);
                        cur_b = nb;
                        ind_b = ub;
                    }
                }
            }
            if hit && !acc.is_zero() {
                let addr = (i * b.cols() + j) as u64;
                e.store(streams::OUT, c_out + vs * addr, &[acc_u]);
                c.push(i, j, acc);
            }
        }
        e.branch(sites::SPMM_ROW, i + 1 < a.rows(), &[]);
    }
    c
}

/// Software-only SMASH SpMM: the same block-granular index matching as the
/// hardware version, but each line's bitmap slice is scanned in software
/// (word loads + CTZ + masking, §4.4) for every dot product.
pub fn spmm_sw_smash<E: Engine, T: Scalar>(
    e: &mut E,
    a: &SmashMatrix<T>,
    b: &SmashMatrix<T>,
) -> Coo<T> {
    let vs = std::mem::size_of::<T>() as u64;
    let lanes = lanes_of::<T>();
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(a.config().layout(), Layout::RowMajor, "A must be row-major");
    assert_eq!(b.config().layout(), Layout::ColMajor, "B must be col-major");
    assert_eq!(a.hierarchy().num_levels(), 1, "1-level per-line scans");
    assert_eq!(b.hierarchy().num_levels(), 1, "1-level per-line scans");
    let b0 = a.config().block_size();
    assert_eq!(b0, b.config().block_size(), "block sizes must agree");

    let nza_a = e.alloc(vs as usize * a.nza().len(), 64);
    let nza_b = e.alloc(vs as usize * b.nza().len(), 64);
    let bm_a = e.alloc(a.hierarchy().stored_level(0).len().div_ceil(8), 64);
    let bm_b = e.alloc(b.hierarchy().stored_level(0).len().div_ceil(8), 64);
    let c_out = e.alloc(vs as usize * a.rows() * b.cols(), 64);
    // Scratch arrays holding the positions extracted from each line's
    // bitmap slice (hot, reused across the merge).
    let scratch_a = e.alloc(4 * (a.blocks_per_line() + 1), 64);
    let scratch_b = e.alloc(4 * (b.blocks_per_line() + 1), 64);

    let lines_a = SmashMergeOperand::new(a);
    let lines_b = SmashMergeOperand::new(b);
    let bpl_a = a.blocks_per_line();
    let bpl_b = b.blocks_per_line();
    let mut c = Coo::new(a.rows(), b.cols());

    // Scanning a line costs one load per touched 64-bit word plus a serial
    // CTZ+mask chain per set bit (§4.4).
    let scan_line = |e: &mut E, base: u64, bpl: usize, line: usize, nblocks: usize| {
        let w_lo = (line * bpl) / 64;
        let w_hi = (line * bpl + bpl - 1) / 64;
        let mut dep = UopId::NONE;
        for w in w_lo..=w_hi {
            dep = e.load(streams::bitmap(0), base + 8 * w as u64, &[]);
        }
        let mut chain = dep;
        for _ in 0..nblocks {
            let ctz = e.alu(&[dep, chain]);
            chain = e.alu(&[ctz]);
            e.branch(sites::SCAN_FOUND, true, &[]);
        }
        chain
    };

    for i in 0..a.rows() {
        let (base_a, ablocks) = lines_a.line(i);
        if ablocks.is_empty() {
            e.branch(sites::SPMM_ROW, true, &[]);
            continue;
        }
        // Scan row i's bitmap once and keep its block positions in a hot
        // scratch array for the whole column loop.
        let da = scan_line(e, bm_a, bpl_a, i, ablocks.len());
        for j in 0..b.cols() {
            e.branch(sites::SPMM_COL, j + 1 < b.cols(), &[]);
            let (base_b, bblocks) = lines_b.line(j);
            if bblocks.is_empty() {
                continue;
            }
            let db = scan_line(e, bm_b, bpl_b, j, bblocks.len());
            let mut acc_u = UopId::NONE;
            let mut acc = T::ZERO;
            let mut hit = false;
            let (mut p, mut q) = (0usize, 0usize);
            while p < ablocks.len() && q < bblocks.len() {
                // Software-extracted positions are re-read from the scratch
                // arrays every iteration, like the CSR merge.
                let la = e.load(streams::LINE_STARTS, scratch_a + 4 * p as u64, &[da]);
                let lb = e.load(streams::LINE_STARTS, scratch_b + 4 * q as u64, &[db]);
                let cmp = e.alu(&[la, lb]);
                e.alu(&[cmp]); // increments
                e.alu(&[cmp]);
                e.branch(sites::MERGE_BOUND, true, &[]);
                match ablocks[p].cmp(&bblocks[q]) {
                    std::cmp::Ordering::Equal => {
                        e.branch(sites::MATCH_CMP, true, &[cmp]);
                        hit = true;
                        let ord_a = base_a + p;
                        let ord_b = base_b + q;
                        for lane in 0..vector_ops_of::<T>(b0) {
                            let oa = (ord_a * b0 + lane * lanes) as u64;
                            let ob = (ord_b * b0 + lane * lanes) as u64;
                            let va = e.load(streams::NZA_A, nza_a + vs * oa, &[]);
                            let vb = e.load(streams::NZA_B, nza_b + vs * ob, &[]);
                            let m = e.fmul(&[va, vb]);
                            acc_u = e.fadd(&[m, acc_u]);
                        }
                        acc += a
                            .nza()
                            .block(ord_a)
                            .iter()
                            .zip(b.nza().block(ord_b))
                            .map(|(&x, &y)| x * y)
                            .sum::<T>();
                        p += 1;
                        q += 1;
                    }
                    std::cmp::Ordering::Less => {
                        e.branch(sites::MATCH_CMP, false, &[cmp]);
                        p += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        e.branch(sites::MATCH_CMP, false, &[cmp]);
                        q += 1;
                    }
                }
            }
            if hit && !acc.is_zero() {
                let addr = (i * b.cols() + j) as u64;
                e.store(streams::OUT, c_out + vs * addr, &[acc_u]);
                c.push(i, j, acc);
            }
        }
        e.branch(sites::SPMM_ROW, i + 1 < a.rows(), &[]);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_core::SmashConfig;
    use smash_matrix::generators;
    use smash_sim::{CountEngine, SimEngine, SystemConfig};

    fn operands() -> (Csr<f64>, Csr<f64>) {
        (
            generators::uniform(40, 48, 300, 3),
            generators::clustered(48, 36, 250, 4, 4),
        )
    }

    fn reference(a: &Csr<f64>, b: &Csr<f64>) -> Coo<f64> {
        a.spmm_inner(&b.to_csc()).unwrap()
    }

    fn assert_same(c: &Coo<f64>, want: &Coo<f64>) {
        let (cd, wd) = (c.to_dense(), want.to_dense());
        assert_eq!(cd.rows(), wd.rows());
        for i in 0..cd.rows() {
            for j in 0..cd.cols() {
                let (x, y) = (cd.get(i, j), wd.get(i, j));
                assert!(
                    (x - y).abs() < 1e-9 * (1.0 + y.abs()),
                    "({i},{j}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn csr_and_ideal_match_reference() {
        let (a, b) = operands();
        let want = reference(&a, &b);
        let bc = b.to_csc();
        let mut e = CountEngine::new();
        assert_same(&spmm_csr(&mut e, &a, &bc), &want);
        let csr_instr = e.finish().instructions();

        let mut e = CountEngine::new();
        assert_same(&spmm_ideal(&mut e, &a, &bc), &want);
        let ideal_instr = e.finish().instructions();
        let ratio = ideal_instr as f64 / csr_instr as f64;
        assert!(
            ratio < 0.6,
            "ideal/csr = {ratio} (index matching should dominate)"
        );
    }

    #[test]
    fn bcsr_matches_reference() {
        let (a, b) = operands();
        let want = reference(&a, &b);
        let ab = Bcsr::from_csr(&a, 2, 2).unwrap();
        let btb = Bcsr::from_csr(&b.transpose(), 2, 2).unwrap();
        let mut e = CountEngine::new();
        assert_same(&spmm_bcsr(&mut e, &ab, &btb), &want);
    }

    #[test]
    fn hw_smash_matches_reference() {
        let (a, b) = operands();
        let want = reference(&a, &b);
        for b0 in [2u32, 4] {
            let sa = SmashMatrix::encode(&a, SmashConfig::row_major(&[b0]).unwrap());
            let sb = SmashMatrix::encode(&b, SmashConfig::col_major(&[b0]).unwrap());
            let mut e = CountEngine::new();
            let mut bmu = Bmu::new();
            assert_same(&spmm_hw_smash(&mut e, &mut bmu, &sa, &sb), &want);
        }
    }

    #[test]
    fn sw_smash_matches_reference() {
        let (a, b) = operands();
        let want = reference(&a, &b);
        let sa = SmashMatrix::encode(&a, SmashConfig::row_major(&[2]).unwrap());
        let sb = SmashMatrix::encode(&b, SmashConfig::col_major(&[2]).unwrap());
        let mut e = CountEngine::new();
        assert_same(&spmm_sw_smash(&mut e, &sa, &sb), &want);
    }

    #[test]
    fn smash_beats_csr_in_cycles() {
        // ~1.6% density, in the range of the paper's Table 3 suite.
        let a = generators::uniform(128, 128, 260, 7);
        let b = generators::uniform(128, 128, 260, 8);
        let bc = b.to_csc();
        let mut e1 = SimEngine::new(SystemConfig::paper_table2());
        spmm_csr(&mut e1, &a, &bc);
        let csr = e1.finish();

        let sa = SmashMatrix::encode(&a, SmashConfig::row_major(&[2]).unwrap());
        let sb = SmashMatrix::encode(&b, SmashConfig::col_major(&[2]).unwrap());
        let mut e2 = SimEngine::new(SystemConfig::paper_table2());
        let mut bmu = Bmu::new();
        spmm_hw_smash(&mut e2, &mut bmu, &sa, &sb);
        let smash = e2.finish();
        let speedup = csr.cycles as f64 / smash.cycles as f64;
        assert!(speedup > 1.0, "speedup {speedup}");
    }

    #[test]
    fn empty_operands_give_empty_product() {
        let a = Csr::<f64>::from_coo(&Coo::new(8, 8));
        let b = generators::uniform(8, 8, 16, 1);
        let mut e = CountEngine::new();
        let c = spmm_csr(&mut e, &a, &b.to_csc());
        assert_eq!(c.nnz(), 0);
    }
}
