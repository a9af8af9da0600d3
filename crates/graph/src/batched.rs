//! Batched **personalized** PageRank: many personalization vectors served
//! in one pass over the transition matrix per iteration.
//!
//! Serving personalized rankings (one random-walk restart distribution per
//! user or query) with the classic power iteration means one SpMV per
//! query per iteration — the matrix is re-streamed from memory once per
//! query. Batching the personalization vectors into the columns of one
//! [`Dense`] operand turns every iteration into a single sparse × dense
//! SpMM ([`Executor::spmm_dense`]), whose column-tiled kernels stream the
//! matrix once per 8-wide column tile instead.
//!
//! **Determinism guarantee:** column `j` of
//! [`personalized_pagerank_batched`] is bit-identical to
//! [`personalized_pagerank`] run alone on column `j` — the batched SpMM's
//! per-column arithmetic order equals the SpMV's, and the rank update is
//! element-wise. Batching changes throughput, never results.

use crate::{Graph, PageRankConfig};
use smash_kernels::Executor;
use smash_matrix::{Dense, Scalar};

/// Personalized PageRank for a single restart distribution `p`:
/// `r' = d·M·r + (1−d)·p`, starting from `r = p`, for `cfg.iterations`
/// iterations with every SpMV routed through the executor.
///
/// With the uniform `p` of [`uniform_ranks`](crate::uniform_ranks) it *is*
/// fixed-iteration PageRank, bit-identical across executor modes and
/// thread counts. It is also the one-query reference the batched variant
/// is pinned against.
///
/// # Panics
///
/// Panics if `p.len() != g.vertices()`.
pub fn personalized_pagerank<T: Scalar>(
    exec: &Executor,
    g: &Graph<T>,
    cfg: &PageRankConfig,
    p: &[T],
) -> Vec<T> {
    let n = g.vertices();
    assert_eq!(p.len(), n, "personalization length must equal vertices");
    let m = g.transition();
    let p = Dense::from_vec(n, 1, p.to_vec()).expect("n x 1 matches its data");
    let r = pagerank_sweep(cfg, &p, |r, y| exec.spmv(m, r.as_slice(), y.as_mut_slice()));
    r.as_slice().to_vec()
}

/// Batched personalized PageRank: one `Dense` of personalization vectors
/// (one column per query) per pass. Every power iteration is a single
/// [`Executor::spmm_dense`] over the transition matrix followed by one
/// element-wise rank update, so the matrix is streamed once per RHS column
/// tile instead of once per query.
///
/// Column `j` of the result is bit-identical to
/// [`personalized_pagerank`] with `p` = column `j` of `personalization`,
/// at every executor mode and thread count.
///
/// # Panics
///
/// Panics if `personalization.rows() != g.vertices()`.
pub fn personalized_pagerank_batched<T: Scalar>(
    exec: &Executor,
    g: &Graph<T>,
    cfg: &PageRankConfig,
    personalization: &Dense<T>,
) -> Dense<T> {
    assert_eq!(
        personalization.rows(),
        g.vertices(),
        "personalization rows must equal vertices"
    );
    let m = g.transition();
    pagerank_sweep(cfg, personalization, |r, y| exec.spmm_dense(m, r, y))
}

/// The one power-iteration loop of both variants: starting from `r = p`,
/// one product `y = M·r` then the element-wise `r = d·y + (1−d)·p` update
/// per iteration.
fn pagerank_sweep<T: Scalar>(
    cfg: &PageRankConfig,
    p: &Dense<T>,
    mut product: impl FnMut(&Dense<T>, &mut Dense<T>),
) -> Dense<T> {
    let mut r = p.clone();
    let mut y = Dense::zeros(p.rows(), p.cols());
    let damping = T::from_f64(cfg.damping);
    let restart = T::from_f64(1.0 - cfg.damping);
    for _ in 0..cfg.iterations {
        product(&r, &mut y);
        for ((ri, yi), pi) in r
            .as_mut_slice()
            .iter_mut()
            .zip(y.as_slice())
            .zip(p.as_slice())
        {
            *ri = damping * *yi + restart * *pi;
        }
    }
    r
}

/// Builds the `vertices x seeds.len()` personalization batch whose column
/// `j` is the unit restart distribution of `seeds[j]` — the "one query per
/// user" input of a personalized-ranking service.
///
/// # Panics
///
/// Panics if a seed is `>= vertices`.
pub fn seed_batch<T: Scalar>(vertices: usize, seeds: &[usize]) -> Dense<T> {
    let mut p = Dense::zeros(vertices, seeds.len());
    for (j, &s) in seeds.iter().enumerate() {
        assert!(s < vertices, "seed {s} outside {vertices} vertices");
        p.set(s, j, T::ONE);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn sample() -> Graph {
        generators::rmat(128, 768, 3)
    }

    fn cfg() -> PageRankConfig {
        PageRankConfig {
            iterations: 8,
            ..Default::default()
        }
    }

    #[test]
    fn batched_columns_are_bit_identical_to_single_queries() {
        let g = sample();
        let exec = Executor::auto();
        let seeds = [0usize, 7, 19, 42, 63, 64, 100, 127, 5];
        let p = seed_batch::<f64>(g.vertices(), &seeds);
        let batched = personalized_pagerank_batched(&exec, &g, &cfg(), &p);
        for (j, &s) in seeds.iter().enumerate() {
            let single = personalized_pagerank(&exec, &g, &cfg(), &p.col(j));
            assert_eq!(batched.col(j), single, "seed {s} (column {j})");
        }
    }

    #[test]
    fn batched_is_bit_identical_across_executor_modes() {
        let g = generators::rmat(192, 2048, 11);
        let seeds: Vec<usize> = (0..16).map(|i| (i * 11) % 192).collect();
        let p = seed_batch::<f64>(g.vertices(), &seeds);
        let want = personalized_pagerank_batched(&Executor::serial(), &g, &cfg(), &p);
        for exec in [
            Executor::parallel(),
            Executor::with_threads(2),
            Executor::with_threads(8),
            Executor::auto(),
        ] {
            let got = personalized_pagerank_batched(&exec, &g, &cfg(), &p);
            assert_eq!(
                got,
                want,
                "mode {:?}/{} threads",
                exec.mode(),
                exec.threads()
            );
        }
    }

    #[test]
    fn uniform_restart_matches_reference() {
        let g = generators::rmat(128, 512, 3);
        let cfg = PageRankConfig {
            iterations: 5,
            ..Default::default()
        };
        let want = crate::pagerank_reference(&g, &cfg);
        let p = crate::uniform_ranks(g.vertices());
        let got = personalized_pagerank(&Executor::with_threads(4), &g, &cfg, &p);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn uniform_restart_is_bit_identical_across_thread_counts() {
        let g = generators::rmat(128, 1024, 7);
        let cfg = PageRankConfig::default();
        let p = crate::uniform_ranks(g.vertices());
        let want = personalized_pagerank(&Executor::serial(), &g, &cfg, &p);
        for threads in [1usize, 2, 3, 8] {
            let got = personalized_pagerank(&Executor::with_threads(threads), &g, &cfg, &p);
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn ranks_stay_distributions_without_dangling_vertices() {
        // On a graph where every vertex has out-edges, each personalized
        // rank column remains a probability distribution.
        let g = generators::road_network(256, 512, 1);
        let exec = Executor::serial();
        let seeds = [0usize, 17, 200];
        let p = seed_batch::<f64>(g.vertices(), &seeds);
        let r = personalized_pagerank_batched(&exec, &g, &cfg(), &p);
        for j in 0..seeds.len() {
            let sum: f64 = r.col(j).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "column {j} sums to {sum}");
        }
    }

    #[test]
    fn personalization_localizes_rank_mass() {
        let g = generators::road_network(256, 512, 5);
        let exec = Executor::serial();
        let seeds = [10usize, 200];
        let p = seed_batch::<f64>(g.vertices(), &seeds);
        let r = personalized_pagerank_batched(&exec, &g, &cfg(), &p);
        // Each seed holds more rank in its own column than in the other's.
        assert!(r.get(10, 0) > r.get(10, 1));
        assert!(r.get(200, 1) > r.get(200, 0));
    }

    #[test]
    #[should_panic(expected = "seed")]
    fn seed_batch_rejects_out_of_range_seed() {
        seed_batch::<f64>(4, &[4]);
    }
}
