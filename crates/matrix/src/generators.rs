//! Seeded synthetic sparse-matrix generators.
//!
//! The SMASH evaluation depends on two workload properties: *sparsity* (the
//! fraction of non-zeros, Table 3) and the *distribution of the non-zeros*
//! (§4.1.2, §7.2.3). These generators control both explicitly, standing in
//! for the SuiteSparse inputs the paper used, which this reproduction does
//! not ship. All generators are deterministic in their `seed`.

use crate::{Coo, Csr, Dense, Scalar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Draws a non-zero value; positive and bounded away from zero so kernels
/// never cancel an entry to exact zero.
fn draw_value(rng: &mut StdRng) -> f64 {
    rng.gen_range(0.1..1.0)
}

/// Deterministic dense right-hand-side batch for the batched (sparse ×
/// dense) kernels: every entry is bounded away from zero, varied across
/// both rows and columns (so column mix-ups cannot cancel), and derived
/// from the same `f64` pattern at every precision — `dense_batch::<f32>`
/// is the entry-wise truncation of `dense_batch::<f64>`, letting
/// mixed-precision tests compare like against like.
///
/// # Example
///
/// ```
/// let b = smash_matrix::generators::dense_batch::<f64>(16, 4, 5);
/// assert_eq!((b.rows(), b.cols()), (16, 4));
/// assert!(b.as_slice().iter().all(|&v| v >= 0.25));
/// ```
pub fn dense_batch<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Dense<T> {
    let mut b = Dense::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let v = 0.25 + ((i * 31 + j * 17 + seed as usize) % 89) as f64 / 89.0;
            b.set(i, j, T::from_f64(v));
        }
    }
    b
}

/// Inserts up to `nnz` distinct random positions produced by `sample`.
///
/// Gives up adding a particular draw after repeated collisions, so the
/// resulting matrix may have slightly fewer than `nnz` entries when the
/// requested count approaches the matrix capacity.
fn fill_distinct(
    coo: &mut Coo<f64>,
    nnz: usize,
    rng: &mut StdRng,
    mut sample: impl FnMut(&mut StdRng) -> (usize, usize),
) {
    let capacity = coo.rows() * coo.cols();
    let target = nnz.min(capacity);
    let mut seen: HashSet<u64> = HashSet::with_capacity(target * 2);
    let mut attempts = 0usize;
    let max_attempts = target.saturating_mul(20).max(1024);
    while seen.len() < target && attempts < max_attempts {
        attempts += 1;
        let (r, c) = sample(rng);
        let key = (r as u64) * coo.cols() as u64 + c as u64;
        if seen.insert(key) {
            let v = draw_value(rng);
            coo.push(r, c, v);
        }
    }
}

/// Uniformly random non-zero positions (the "low locality of sparsity"
/// extreme; models matrices like `human_gene1/2` where non-zeros do not
/// cluster).
///
/// # Example
///
/// ```
/// let m = smash_matrix::generators::uniform(100, 100, 500, 7);
/// assert!(m.nnz() >= 490 && m.nnz() <= 500);
/// ```
pub fn uniform(rows: usize, cols: usize, nnz: usize, seed: u64) -> Csr<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(rows, cols, nnz);
    fill_distinct(&mut coo, nnz, &mut rng, |rng| {
        (rng.gen_range(0..rows), rng.gen_range(0..cols))
    });
    coo.compress();
    Csr::from_coo(&coo)
}

/// Band matrix: non-zeros within `half_bandwidth` of the diagonal, filled
/// until roughly `nnz` entries exist (models `Trefethen_20000`-style
/// operators).
pub fn banded(rows: usize, cols: usize, half_bandwidth: usize, nnz: usize, seed: u64) -> Csr<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(rows, cols, nnz);
    // Always populate the main diagonal first: band operators are full-rank.
    let diag = rows.min(cols);
    for i in 0..diag {
        let v = draw_value(&mut rng);
        coo.push(i, i, v);
    }
    let remaining = nnz.saturating_sub(diag);
    fill_distinct(&mut coo, remaining, &mut rng, |rng| {
        let r = rng.gen_range(0..rows);
        let lo = r.saturating_sub(half_bandwidth);
        let hi = (r + half_bandwidth + 1).min(cols);
        (r, rng.gen_range(lo..hi))
    });
    coo.compress();
    Csr::from_coo(&coo)
}

/// Clustered non-zeros: runs of `run_len` consecutive elements within a row
/// (the "high locality of sparsity" regime that favours blocked formats and
/// large SMASH Bitmap-0 ratios; models FEM matrices like `ns3Da`,
/// `ramage02`).
pub fn clustered(rows: usize, cols: usize, nnz: usize, run_len: usize, seed: u64) -> Csr<f64> {
    assert!(run_len > 0, "run length must be non-zero");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(rows, cols, nnz);
    let mut seen: HashSet<u64> = HashSet::with_capacity(nnz * 2);
    let mut attempts = 0usize;
    let capacity = rows * cols;
    let target = nnz.min(capacity);
    while seen.len() < target && attempts < target.saturating_mul(20).max(1024) {
        attempts += 1;
        let r = rng.gen_range(0..rows);
        let run = run_len.min(cols);
        let start = rng.gen_range(0..cols.saturating_sub(run - 1).max(1));
        for c in start..(start + run).min(cols) {
            if seen.len() >= target {
                break;
            }
            let key = (r as u64) * cols as u64 + c as u64;
            if seen.insert(key) {
                let v = draw_value(&mut rng);
                coo.push(r, c, v);
            }
        }
    }
    coo.compress();
    Csr::from_coo(&coo)
}

/// Dense sub-blocks scattered over the matrix: `block x block` tiles filled
/// completely (models structural-engineering matrices like `pkustk07`,
/// `tsyl201`, `exdata_1` whose non-zeros come in dense element blocks).
pub fn block_dense(rows: usize, cols: usize, nnz: usize, block: usize, seed: u64) -> Csr<f64> {
    assert!(block > 0, "block must be non-zero");
    let mut rng = StdRng::seed_from_u64(seed);
    let block_r = block.min(rows).max(1);
    let block_c = block.min(cols).max(1);
    let per_block = block_r * block_c;
    let n_blocks = nnz.div_ceil(per_block);
    let brows = rows.div_ceil(block_r);
    let bcols = cols.div_ceil(block_c);
    let mut chosen: HashSet<(usize, usize)> = HashSet::with_capacity(n_blocks * 2);
    let mut attempts = 0usize;
    let max_blocks = brows * bcols;
    while chosen.len() < n_blocks.min(max_blocks)
        && attempts < n_blocks.saturating_mul(20).max(1024)
    {
        attempts += 1;
        chosen.insert((rng.gen_range(0..brows), rng.gen_range(0..bcols)));
    }
    let mut coo = Coo::with_capacity(rows, cols, nnz);
    let mut placed = 0usize;
    let mut blocks: Vec<_> = chosen.into_iter().collect();
    blocks.sort_unstable();
    'outer: for (br, bc) in blocks {
        for lr in 0..block_r {
            for lc in 0..block_c {
                if placed >= nnz {
                    break 'outer;
                }
                let (r, c) = (br * block_r + lr, bc * block_c + lc);
                if r < rows && c < cols {
                    let v = draw_value(&mut rng);
                    coo.push(r, c, v);
                    placed += 1;
                }
            }
        }
    }
    coo.compress();
    Csr::from_coo(&coo)
}

/// Power-law row degrees: row `i` receives weight `(i + 1)^-alpha` after a
/// random permutation, columns drawn uniformly (models graph adjacency and
/// optimization matrices like `gupta3` with a few very dense rows).
pub fn power_law(rows: usize, cols: usize, nnz: usize, alpha: f64, seed: u64) -> Csr<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Cumulative weights over rows in a fixed shuffled order.
    let mut order: Vec<usize> = (0..rows).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut cum: Vec<f64> = Vec::with_capacity(rows);
    let mut total = 0.0;
    for k in 0..rows {
        total += (k as f64 + 1.0).powf(-alpha);
        cum.push(total);
    }
    let mut coo = Coo::with_capacity(rows, cols, nnz);
    fill_distinct(&mut coo, nnz, &mut rng, |rng| {
        let t = rng.gen_range(0.0..total);
        let k = cum.partition_point(|&x| x < t).min(rows - 1);
        (order[k], rng.gen_range(0..cols))
    });
    coo.compress();
    Csr::from_coo(&coo)
}

/// Diagonal matrix with the given value on every diagonal element.
pub fn diagonal(n: usize, value: f64) -> Csr<f64> {
    let mut coo = Coo::with_capacity(n, n, n);
    for i in 0..n {
        coo.push(i, i, value);
    }
    Csr::from_coo(&coo)
}

/// Identity matrix.
pub fn identity(n: usize) -> Csr<f64> {
    diagonal(n, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic() {
        let a = uniform(50, 50, 200, 42);
        let b = uniform(50, 50, 200, 42);
        assert_eq!(a, b);
        let c = uniform(50, 50, 200, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_hits_target_nnz() {
        let a = uniform(200, 200, 1000, 1);
        assert_eq!(a.nnz(), 1000);
    }

    #[test]
    fn uniform_clamps_to_capacity() {
        let a = uniform(4, 4, 100, 1);
        assert!(a.nnz() <= 16);
        assert!(a.nnz() >= 12, "should nearly fill the matrix");
    }

    #[test]
    fn banded_respects_bandwidth() {
        let a = banded(100, 100, 3, 500, 9);
        for (r, c, _) in a.iter() {
            assert!((r as i64 - c as i64).unsigned_abs() <= 3);
        }
        assert!(a.nnz() >= 100, "diagonal must be present");
    }

    #[test]
    fn clustered_has_runs() {
        let a = clustered(100, 100, 600, 8, 5);
        // Average run length should be well above 1 (uniform would be ~1 at
        // 6% density).
        let mut runs = 0usize;
        let mut total = 0usize;
        for r in 0..a.rows() {
            let (cols, _) = a.row(r);
            let mut prev: Option<u32> = None;
            for &c in cols {
                match prev {
                    Some(p) if c == p + 1 => {}
                    _ => runs += 1,
                }
                total += 1;
                prev = Some(c);
            }
        }
        let avg_run = total as f64 / runs.max(1) as f64;
        assert!(avg_run > 3.0, "average run {avg_run} too short");
    }

    #[test]
    fn block_dense_fills_blocks() {
        let a = block_dense(64, 64, 256, 4, 3);
        assert!(a.nnz() >= 240 && a.nnz() <= 256, "nnz = {}", a.nnz());
        // All non-zeros live in fully dense 4x4 tiles (except a possibly
        // partial final tile), so stored BCSR padding should be tiny.
        let b = crate::Bcsr::from_csr(&a, 4, 4).unwrap();
        assert!(b.fill_ratio() > 0.9, "fill ratio {}", b.fill_ratio());
    }

    #[test]
    fn power_law_skews_degrees() {
        let a = power_law(200, 200, 2000, 1.2, 11);
        let mut degrees: Vec<usize> = (0..a.rows()).map(|r| a.row_nnz(r)).collect();
        degrees.sort_unstable_by(|x, y| y.cmp(x));
        let top10: usize = degrees.iter().take(10).sum();
        assert!(
            top10 * 3 > a.nnz(),
            "top-10 rows hold {top10} of {} non-zeros — not skewed enough",
            a.nnz()
        );
    }

    #[test]
    fn identity_spmv_is_identity() {
        let i = identity(10);
        let x: Vec<f64> = (0..10).map(|k| k as f64).collect();
        assert_eq!(i.spmv(&x), x);
    }

    #[test]
    fn generators_produce_valid_csr() {
        // from_parts revalidates the invariants.
        for m in [
            uniform(30, 40, 100, 2),
            banded(30, 40, 2, 80, 2),
            clustered(30, 40, 100, 4, 2),
            block_dense(30, 40, 100, 4, 2),
            power_law(30, 40, 100, 1.0, 2),
        ] {
            Csr::<f64>::from_parts(
                m.rows(),
                m.cols(),
                m.row_ptr().to_vec(),
                m.col_ind().to_vec(),
                m.values().to_vec(),
            )
            .expect("generator output must be structurally valid");
        }
    }
}
