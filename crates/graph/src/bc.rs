//! Betweenness Centrality as SpMV-based breadth-first search (paper §6:
//! "Betweenness Centrality iteratively uses SpMV to perform breadth-first
//! searches in the graph").
//!
//! The implementation is the level-synchronous linear-algebra form of
//! Brandes' algorithm: a forward sweep of SpMVs accumulates shortest-path
//! counts (`sigma`) level by level, then a backward sweep of SpMVs
//! accumulates dependencies (`delta`). Both sweeps route their SpMVs
//! through the selected mechanism: the simulated engines of
//! [`betweenness`], or the [`Executor`] of [`betweenness_native`].

use crate::{Graph, GraphMechanism};
use smash_bmu::Bmu;
use smash_core::{SmashConfig, SmashMatrix};
use smash_kernels::{spmv, Executor};
use smash_matrix::Scalar;
use smash_sim::{Engine, StreamId};

/// Betweenness-centrality parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BcConfig {
    /// Source vertices to run Brandes from (the paper's Ligra setup also
    /// samples sources rather than solving all pairs).
    pub sources: Vec<u32>,
    /// BFS level cap: road networks have huge diameters, so both the
    /// reference and the instrumented runs truncate consistently.
    pub max_levels: usize,
    /// SMASH hierarchy used by [`GraphMechanism::Smash`].
    pub smash: SmashConfig,
}

impl Default for BcConfig {
    fn default() -> Self {
        BcConfig {
            sources: vec![0, 1, 2, 3],
            max_levels: 24,
            smash: SmashConfig::row_major(&[2, 4, 16]).expect("static config is valid"),
        }
    }
}

/// Prefetcher stream for the BC work vectors.
const S_VEC: StreamId = StreamId(41);

/// Level structure of one BFS: per level, the frontier vertices.
fn bfs_levels<T: Scalar>(
    g: &Graph<T>,
    source: u32,
    max_levels: usize,
) -> (Vec<Vec<u32>>, Vec<T>, Vec<i32>) {
    let n = g.vertices();
    let mut dist = vec![-1i32; n];
    let mut sigma = vec![T::ZERO; n];
    dist[source as usize] = 0;
    sigma[source as usize] = T::ONE;
    let mut levels = vec![vec![source]];
    while levels.len() < max_levels {
        let frontier = levels.last().expect("at least the source level");
        let mut next = Vec::new();
        for &u in frontier {
            for v in g.neighbours(u as usize) {
                if dist[v] == -1 {
                    dist[v] = levels.len() as i32;
                    next.push(v as u32);
                }
            }
        }
        // Path counts flow along edges between consecutive levels.
        for &u in frontier {
            let su = sigma[u as usize];
            for v in g.neighbours(u as usize) {
                if dist[v] == levels.len() as i32 {
                    sigma[v] += su;
                }
            }
        }
        if next.is_empty() {
            break;
        }
        next.sort_unstable();
        levels.push(next);
    }
    (levels, sigma, dist)
}

/// Reference (uninstrumented, level-capped) betweenness centrality,
/// generic over the accumulation precision.
pub fn betweenness_reference<T: Scalar>(g: &Graph<T>, cfg: &BcConfig) -> Vec<T> {
    let n = g.vertices();
    let mut bc = vec![T::ZERO; n];
    for &s in &cfg.sources {
        let (levels, sigma, dist) = bfs_levels(g, s, cfg.max_levels);
        let mut delta = vec![T::ZERO; n];
        for k in (1..levels.len()).rev() {
            for &u in &levels[k - 1] {
                let mut acc = T::ZERO;
                for v in g.neighbours(u as usize) {
                    if dist[v] == k as i32 {
                        acc += (T::ONE + delta[v]) / sigma[v];
                    }
                }
                delta[u as usize] += sigma[u as usize] * acc;
            }
            for &v in &levels[k] {
                bc[v as usize] += delta[v as usize];
            }
        }
    }
    bc
}

/// Native betweenness centrality in the level-synchronous linear-algebra
/// form: the forward sweep accumulates shortest-path counts with one
/// [`Executor::spmv`] over the adjacency transpose per level, the backward
/// sweep accumulates dependencies with one over the adjacency per level.
///
/// The executor only picks which driver runs, never the arithmetic, so the
/// result is bit-identical across executor modes and thread counts. It
/// matches [`betweenness_reference`] to floating-point tolerance.
pub fn betweenness_native<T: Scalar>(exec: &Executor, g: &Graph<T>, cfg: &BcConfig) -> Vec<T> {
    let n = g.vertices();
    let at = g.adjacency_transpose();
    let a = g.adjacency();
    let mut t = vec![T::ZERO; n];
    let mut bc = vec![T::ZERO; n];
    for &s in &cfg.sources {
        // Forward sweep: discover levels and accumulate sigma.
        let mut dist = vec![-1i32; n];
        let mut sigma = vec![T::ZERO; n];
        dist[s as usize] = 0;
        sigma[s as usize] = T::ONE;
        let mut levels: Vec<Vec<u32>> = vec![vec![s]];
        while levels.len() < cfg.max_levels {
            let frontier = levels.last().expect("non-empty");
            // f = sigma masked to the frontier.
            let mut f = vec![T::ZERO; n];
            for &u in frontier {
                f[u as usize] = sigma[u as usize];
            }
            exec.spmv(&at, &f, &mut t);
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
            exec.spmv(a, &w, &mut t);
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

/// Instrumented betweenness centrality: every level transition of both
/// sweeps is one mechanism-routed SpMV over the adjacency (transpose),
/// followed by element-wise mask/update passes.
pub fn betweenness<E: Engine, T: Scalar>(
    e: &mut E,
    mech: GraphMechanism,
    g: &Graph<T>,
    cfg: &BcConfig,
) -> Vec<T> {
    let n = g.vertices();
    let at = g.adjacency_transpose();
    let a = g.adjacency().clone();
    let (sm_at, sm_a) = match mech {
        GraphMechanism::Smash => (
            Some(SmashMatrix::encode(&at, cfg.smash.clone())),
            Some(SmashMatrix::encode(&a, cfg.smash.clone())),
        ),
        GraphMechanism::Csr => (None, None),
    };
    let mut bmu = Bmu::new();
    let vec_addr = e.alloc(std::mem::size_of::<T>() * n, 64);
    let vs = std::mem::size_of::<T>() as u64;

    let run_spmv = |e: &mut E, bmu: &mut Bmu, transpose: bool, x: &[T]| -> Vec<T> {
        match mech {
            GraphMechanism::Csr => {
                if transpose {
                    spmv::spmv_csr(e, &at, x)
                } else {
                    spmv::spmv_csr(e, &a, x)
                }
            }
            GraphMechanism::Smash => {
                let m = if transpose { &sm_at } else { &sm_a };
                spmv::spmv_hw_smash(e, bmu, 0, m.as_ref().expect("encoded above"), x)
            }
        }
    };
    // Element-wise pass over the work vectors: load, update, store, branch.
    let vector_pass = |e: &mut E, writes: bool| {
        for i in 0..n {
            let ld = e.load(S_VEC, vec_addr + vs * i as u64, &[]);
            e.branch(30, i % 3 == 0, &[ld]);
            if writes {
                let up = e.fadd(&[ld]);
                e.store(S_VEC, vec_addr + vs * i as u64, &[up]);
            }
        }
    };

    let mut bc = vec![T::ZERO; n];
    for &s in &cfg.sources {
        // Forward sweep: discover levels and accumulate sigma with SpMVs.
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
            let t = run_spmv(e, &mut bmu, true, &f);
            vector_pass(e, true); // mask t to unvisited, update sigma/dist
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
            let t = run_spmv(e, &mut bmu, false, &w);
            vector_pass(e, true); // delta[u] += sigma[u] * t[u] on level k-1
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use smash_sim::CountEngine;

    /// Classic queue-based Brandes, for validating the linear-algebra form
    /// on graphs whose diameter fits under the level cap.
    fn brandes_classic(g: &Graph, sources: &[u32]) -> Vec<f64> {
        let n = g.vertices();
        let mut bc = vec![0.0f64; n];
        for &s in sources {
            let mut stack = Vec::new();
            let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut sigma = vec![0.0f64; n];
            let mut dist = vec![-1i64; n];
            sigma[s as usize] = 1.0;
            dist[s as usize] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                stack.push(u);
                for v in g.neighbours(u as usize) {
                    if dist[v] < 0 {
                        dist[v] = dist[u as usize] + 1;
                        queue.push_back(v as u32);
                    }
                    if dist[v] == dist[u as usize] + 1 {
                        sigma[v] += sigma[u as usize];
                        preds[v].push(u);
                    }
                }
            }
            let mut delta = vec![0.0f64; n];
            while let Some(w) = stack.pop() {
                for &v in &preds[w as usize] {
                    delta[v as usize] +=
                        sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
                }
                if w != s {
                    bc[w as usize] += delta[w as usize];
                }
            }
        }
        bc
    }

    #[test]
    fn reference_matches_classic_brandes() {
        let g = generators::rmat(64, 256, 5);
        let cfg = BcConfig {
            sources: vec![0, 3, 7],
            max_levels: 64, // far above the diameter
            ..Default::default()
        };
        let want = brandes_classic(&g, &cfg.sources);
        let got = betweenness_reference(&g, &cfg);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn instrumented_matches_reference_for_both_mechanisms() {
        let g = generators::rmat(64, 256, 7);
        let cfg = BcConfig {
            sources: vec![1, 2],
            max_levels: 32,
            ..Default::default()
        };
        let want = betweenness_reference(&g, &cfg);
        for mech in [GraphMechanism::Csr, GraphMechanism::Smash] {
            let mut e = CountEngine::new();
            let got = betweenness(&mut e, mech, &g, &cfg);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9, "{mech:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn native_matches_reference() {
        let g = generators::rmat(64, 256, 7);
        let cfg = BcConfig {
            sources: vec![1, 2],
            max_levels: 32,
            ..Default::default()
        };
        let want = betweenness_reference(&g, &cfg);
        let got = betweenness_native(&Executor::with_threads(4), &g, &cfg);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn native_is_bit_identical_across_thread_counts() {
        let g = generators::road_network(100, 220, 5);
        let cfg = BcConfig::default();
        let want = betweenness_native(&Executor::serial(), &g, &cfg);
        for threads in [1usize, 2, 3, 8] {
            let got = betweenness_native(&Executor::with_threads(threads), &g, &cfg);
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn path_graph_center_is_most_between() {
        // 0 - 1 - 2 - 3 - 4 (symmetric path): vertex 2 lies on the most
        // shortest paths.
        let edges: Vec<(u32, u32)> = (0..4).flat_map(|i| [(i, i + 1), (i + 1, i)]).collect();
        let g = Graph::<f64>::from_edges(5, &edges);
        let cfg = BcConfig {
            sources: (0..5).collect(),
            max_levels: 16,
            ..Default::default()
        };
        let bc = betweenness_reference(&g, &cfg);
        for v in [0usize, 1, 3, 4] {
            assert!(bc[2] >= bc[v], "bc[2] = {} < bc[{v}] = {}", bc[2], bc[v]);
        }
    }
}
