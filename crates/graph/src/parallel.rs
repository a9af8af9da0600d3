//! Multi-core PageRank and Betweenness Centrality: the reference
//! algorithms with every matrix-vector product routed through the
//! parallel SpMV driver of `smash-parallel` over either CSR
//! ([`pagerank_parallel`], [`betweenness_parallel`]) or the SMASH
//! compressed form ([`pagerank_parallel_smash`],
//! [`betweenness_parallel_smash`]), whose workers partition rows
//! directly on the compressed matrix through its
//! [`LineDirectory`](smash_core::LineDirectory) (no bitmap expansion).
//!
//! Because the SpMV driver is deterministic (contiguous nnz-balanced
//! row ranges, serial per-row arithmetic), every application here
//! produces bit-identical results at every thread count — a 1-thread
//! pool and an 8-thread pool return exactly the same vectors. Relative
//! to the uninstrumented references ([`pagerank_reference`],
//! [`betweenness_reference`]) the results agree to floating-point
//! tolerance: the references use fused multiply-adds in `Csr::spmv`,
//! while the native/parallel kernels separate multiplies and adds.
//!
//! [`pagerank_reference`]: crate::pagerank::pagerank_reference
//! [`betweenness_reference`]: crate::bc::betweenness_reference

use crate::{BcConfig, Graph, PageRankConfig};
use smash_core::{SmashConfig, SmashMatrix};
use smash_matrix::Scalar;
use smash_parallel::{par_csr_to_smash, par_spmv_rows, ThreadPool};

/// PageRank power iteration over an abstract SpMV (`y = M * r`): one
/// algorithm body shared by the CSR and SMASH variants, so the two can
/// never diverge.
fn pagerank_with<T: Scalar>(
    n: usize,
    cfg: &PageRankConfig,
    mut spmv: impl FnMut(&[T], &mut [T]),
) -> Vec<T> {
    let mut r = vec![T::from_f64(1.0 / n as f64); n];
    let mut y = vec![T::ZERO; n];
    let teleport = T::from_f64((1.0 - cfg.damping) / n as f64);
    let damping = T::from_f64(cfg.damping);
    for _ in 0..cfg.iterations {
        spmv(&r, &mut y);
        for (ri, yi) in r.iter_mut().zip(&y) {
            *ri = damping * *yi + teleport;
        }
    }
    r
}

/// Level-synchronous Betweenness Centrality over two abstract SpMVs
/// (`spmv_at` multiplies by the adjacency transpose, `spmv_a` by the
/// adjacency): the forward sweep accumulates shortest-path counts, the
/// backward sweep accumulates dependencies — one SpMV per level each.
/// One algorithm body shared by the CSR and SMASH variants.
fn betweenness_with<T: Scalar>(
    n: usize,
    cfg: &BcConfig,
    mut spmv_at: impl FnMut(&[T], &mut [T]),
    mut spmv_a: impl FnMut(&[T], &mut [T]),
) -> Vec<T> {
    let mut t = vec![T::ZERO; n];
    let mut bc = vec![T::ZERO; n];
    for &s in &cfg.sources {
        // Forward sweep: discover levels and accumulate sigma.
        let mut dist = vec![-1i32; n];
        let mut sigma = vec![T::ZERO; n];
        dist[s as usize] = 0;
        sigma[s as usize] = T::ONE;
        let mut levels: Vec<Vec<u32>> = vec![vec![s]];
        loop {
            if levels.len() >= cfg.max_levels {
                break;
            }
            let frontier = levels.last().expect("non-empty");
            // f = sigma masked to the frontier.
            let mut f = vec![T::ZERO; n];
            for &u in frontier {
                f[u as usize] = sigma[u as usize];
            }
            spmv_at(&f, &mut t);
            let mut next = Vec::new();
            for (v, &tv) in t.iter().enumerate() {
                if tv > T::ZERO && dist[v] == -1 {
                    dist[v] = levels.len() as i32;
                    sigma[v] += tv;
                    next.push(v as u32);
                }
            }
            if next.is_empty() {
                break;
            }
            levels.push(next);
        }
        // Backward sweep: dependency accumulation, one SpMV per level.
        let mut delta = vec![T::ZERO; n];
        for k in (1..levels.len()).rev() {
            let mut w = vec![T::ZERO; n];
            for &v in &levels[k] {
                w[v as usize] = (T::ONE + delta[v as usize]) / sigma[v as usize];
            }
            spmv_a(&w, &mut t);
            for &u in &levels[k - 1] {
                delta[u as usize] += sigma[u as usize] * t[u as usize];
            }
            for &v in &levels[k] {
                bc[v as usize] += delta[v as usize];
            }
        }
    }
    bc
}

/// Parallel PageRank: each power iteration is one [`par_spmv_rows`] over
/// the CSR transition matrix followed by the element-wise rank update.
pub fn pagerank_parallel<T: Scalar>(
    pool: &ThreadPool,
    g: &Graph<T>,
    cfg: &PageRankConfig,
) -> Vec<T> {
    let m = g.transition_matrix();
    pagerank_with(g.vertices(), cfg, |r, y| par_spmv_rows(pool, &m, r, y))
}

/// Parallel PageRank over the SMASH-compressed transition matrix: the
/// matrix is compressed once (in parallel) and every power iteration is
/// one [`par_spmv_rows`] whose workers seek their row ranges through
/// the compressed matrix's directory — rows are partitioned on the
/// compressed form itself, never on an expanded bitmap.
///
/// Bit-identical across thread counts (like [`pagerank_parallel`]); the
/// result matches the references to floating-point tolerance.
///
/// # Panics
///
/// Panics if `smash_cfg` is not row-major.
pub fn pagerank_parallel_smash<T: Scalar>(
    pool: &ThreadPool,
    g: &Graph<T>,
    cfg: &PageRankConfig,
    smash_cfg: &SmashConfig,
) -> Vec<T> {
    let m: SmashMatrix<T> = par_csr_to_smash(pool, &g.transition_matrix(), smash_cfg.clone());
    pagerank_with(g.vertices(), cfg, |r, y| par_spmv_rows(pool, &m, r, y))
}

/// Parallel Betweenness Centrality in the level-synchronous
/// linear-algebra form: the forward sweep accumulates shortest-path
/// counts with one parallel SpMV over the adjacency transpose per level,
/// the backward sweep accumulates dependencies with one parallel SpMV
/// over the adjacency per level.
pub fn betweenness_parallel<T: Scalar>(pool: &ThreadPool, g: &Graph<T>, cfg: &BcConfig) -> Vec<T> {
    let at = g.adjacency_transpose();
    let a = g.adjacency();
    betweenness_with(
        g.vertices(),
        cfg,
        |f, t| par_spmv_rows(pool, &at, f, t),
        |w, t| par_spmv_rows(pool, a, w, t),
    )
}

/// Parallel Betweenness Centrality with both sweeps' matrix-vector
/// products running on SMASH-compressed operands (adjacency and its
/// transpose, compressed once in parallel) through [`par_spmv_rows`] —
/// the level loops partition rows directly on the compressed form.
///
/// Bit-identical across thread counts (like [`betweenness_parallel`]).
///
/// # Panics
///
/// Panics if `smash_cfg` is not row-major.
pub fn betweenness_parallel_smash<T: Scalar>(
    pool: &ThreadPool,
    g: &Graph<T>,
    cfg: &BcConfig,
    smash_cfg: &SmashConfig,
) -> Vec<T> {
    let at: SmashMatrix<T> = par_csr_to_smash(pool, &g.adjacency_transpose(), smash_cfg.clone());
    let a: SmashMatrix<T> = par_csr_to_smash(pool, g.adjacency(), smash_cfg.clone());
    betweenness_with(
        g.vertices(),
        cfg,
        |f, t| par_spmv_rows(pool, &at, f, t),
        |w, t| par_spmv_rows(pool, &a, w, t),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{betweenness_reference, generators, pagerank_reference};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + b.abs())
    }

    #[test]
    fn pagerank_parallel_matches_reference() {
        let g = generators::rmat(128, 512, 3);
        let cfg = PageRankConfig {
            iterations: 5,
            ..Default::default()
        };
        let want = pagerank_reference(&g, &cfg);
        let pool = ThreadPool::new(4);
        let got = pagerank_parallel(&pool, &g, &cfg);
        for (a, b) in got.iter().zip(&want) {
            assert!(close(*a, *b), "{a} vs {b}");
        }
    }

    #[test]
    fn pagerank_parallel_is_bit_identical_across_thread_counts() {
        let g = generators::rmat(128, 1024, 7);
        let cfg = PageRankConfig::default();
        let want = pagerank_parallel(&ThreadPool::new(1), &g, &cfg);
        for threads in [2usize, 3, 8] {
            let got = pagerank_parallel(&ThreadPool::new(threads), &g, &cfg);
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn betweenness_parallel_matches_reference() {
        let g = generators::rmat(64, 256, 7);
        let cfg = BcConfig {
            sources: vec![1, 2],
            max_levels: 32,
            ..Default::default()
        };
        let want = betweenness_reference(&g, &cfg);
        let pool = ThreadPool::new(4);
        let got = betweenness_parallel(&pool, &g, &cfg);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn betweenness_parallel_is_bit_identical_across_thread_counts() {
        let g = generators::road_network(100, 220, 5);
        let cfg = BcConfig::default();
        let want = betweenness_parallel(&ThreadPool::new(1), &g, &cfg);
        for threads in [2usize, 3, 8] {
            let got = betweenness_parallel(&ThreadPool::new(threads), &g, &cfg);
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    fn smash_cfg() -> SmashConfig {
        SmashConfig::row_major(&[2, 4, 16]).unwrap()
    }

    #[test]
    fn pagerank_parallel_smash_matches_reference() {
        let g = generators::rmat(128, 512, 3);
        let cfg = PageRankConfig {
            iterations: 5,
            ..Default::default()
        };
        let want = pagerank_reference(&g, &cfg);
        let pool = ThreadPool::new(4);
        let got = pagerank_parallel_smash(&pool, &g, &cfg, &smash_cfg());
        for (a, b) in got.iter().zip(&want) {
            assert!(close(*a, *b), "{a} vs {b}");
        }
    }

    #[test]
    fn pagerank_parallel_smash_is_bit_identical_across_thread_counts() {
        let g = generators::rmat(128, 1024, 7);
        let cfg = PageRankConfig::default();
        let want = pagerank_parallel_smash(&ThreadPool::new(1), &g, &cfg, &smash_cfg());
        for threads in [2usize, 3, 8] {
            let got = pagerank_parallel_smash(&ThreadPool::new(threads), &g, &cfg, &smash_cfg());
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn betweenness_parallel_smash_matches_reference() {
        let g = generators::rmat(64, 256, 7);
        let cfg = BcConfig {
            sources: vec![1, 2],
            max_levels: 32,
            ..Default::default()
        };
        let want = betweenness_reference(&g, &cfg);
        let pool = ThreadPool::new(4);
        let got = betweenness_parallel_smash(&pool, &g, &cfg, &smash_cfg());
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn betweenness_parallel_smash_is_bit_identical_across_thread_counts() {
        let g = generators::road_network(100, 220, 5);
        let cfg = BcConfig::default();
        let want = betweenness_parallel_smash(&ThreadPool::new(1), &g, &cfg, &smash_cfg());
        for threads in [2usize, 3, 8] {
            let got = betweenness_parallel_smash(&ThreadPool::new(threads), &g, &cfg, &smash_cfg());
            assert_eq!(got, want, "threads = {threads}");
        }
    }
}
