//! Incremental PageRank over a dynamic transition matrix.
//!
//! Graph workloads in the paper's §6 run over *snapshots*; real
//! deployments mutate the graph between queries. This module keeps the
//! column-stochastic transition matrix in a [`DynamicMatrix`] — base
//! tier plus delta overlay — so an edge insertion is a handful of
//! overlay writes instead of a full rebuild, and warm-starts each solve
//! from the previous rank vector so the power iteration converges in a
//! fraction of the cold-start iterations.
//!
//! Two exactness contracts hold by construction:
//!
//! * Solving over the overlaid matrix is **bit-identical** to solving
//!   over a from-scratch rebuild of the same graph: the merged row view
//!   of [`DynamicMatrix`] yields exactly the rows the rebuilt CSR
//!   would, so every SpMV — and therefore the whole trajectory,
//!   including the iteration count — matches `==`.
//! * Warm-starting changes only the *starting point*, never the fixed
//!   point: the converged ranks agree with a cold solve to within the
//!   convergence tolerance.

use crate::Graph;
use smash_core::DynamicMatrix;
use smash_matrix::{spmv_rows, RowRead, Scalar};

/// Result of a convergence-based power iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSolve<T> {
    /// Converged rank vector.
    pub ranks: Vec<T>,
    /// Iterations consumed before the L1 residual dropped below the
    /// tolerance (or the iteration cap was hit).
    pub iterations: usize,
    /// Whether the L1 residual dropped below the tolerance. `false` means
    /// the iteration cap stopped the solve — for instance a tolerance
    /// finer than `T` can resolve.
    pub converged: bool,
}

/// Power iteration `r' = d·M·r + (1−d)/n` from an arbitrary starting
/// vector, run to convergence.
///
/// Generic over any row-readable operand, so the same loop body serves
/// plain [`Csr`](smash_matrix::Csr) transition matrices and
/// [`DynamicMatrix`] overlays — identical operands produce bit-identical
/// trajectories.
///
/// Stops when the L1 distance between successive rank vectors drops
/// below `tol`, or after `max_iters` iterations.
///
/// # Panics
///
/// Panics if `r0.len()` differs from the operand's row count or if the
/// operand is not square.
pub fn pagerank_power<T: Scalar, R: RowRead<T> + ?Sized>(
    m: &R,
    r0: &[T],
    damping: f64,
    tol: f64,
    max_iters: usize,
) -> PowerSolve<T> {
    let n = m.rows();
    assert_eq!(m.cols(), n, "transition matrix must be square");
    assert_eq!(r0.len(), n, "rank vector length must match vertex count");
    let teleport = T::from_f64((1.0 - damping) / n as f64);
    let damping = T::from_f64(damping);
    let mut r = r0.to_vec();
    let mut y = vec![T::ZERO; n];
    let mut iterations = 0;
    let mut converged = false;
    while iterations < max_iters {
        spmv_rows(m, &r, &mut y);
        iterations += 1;
        let mut residual = 0.0f64;
        for (ri, yi) in r.iter_mut().zip(&y) {
            let next = damping * *yi + teleport;
            residual += (next - *ri).abs().to_f64();
            *ri = next;
        }
        if residual < tol {
            converged = true;
            break;
        }
    }
    PowerSolve {
        ranks: r,
        iterations,
        converged,
    }
}

/// Uniform starting vector `1/n`, the cold-start initial guess.
pub fn uniform_ranks<T: Scalar>(n: usize) -> Vec<T> {
    vec![T::from_f64(1.0 / n as f64); n]
}

/// PageRank engine for a mutating graph: the transition matrix lives in
/// a [`DynamicMatrix`] and successive solves warm-start from the
/// previous rank vector.
///
/// ```
/// use smash_graph::{Graph, IncrementalPageRank};
///
/// let g = Graph::<f64>::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let mut pr = IncrementalPageRank::new(&g, 0.85, 1e-10, 200);
/// let cold = pr.solve();
/// assert_eq!(cold.ranks.len(), 4);
/// assert!(pr.add_edge(1, 3)); // a handful of overlay writes, no rebuild
/// let warm = pr.solve(); // warm-starts from the previous ranks
/// assert!(warm.iterations <= 200);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalPageRank<T: Scalar = f64> {
    /// Out-adjacency lists, mirroring the graph structure so edge
    /// insertions can re-weight a source column without a CSR lookup.
    out: Vec<Vec<u32>>,
    /// Column-stochastic transition matrix, base tier plus overlay.
    matrix: DynamicMatrix<T>,
    /// Previous solution, the warm-start vector for the next solve.
    ranks: Option<Vec<T>>,
    damping: f64,
    tol: f64,
    max_iters: usize,
}

impl<T: Scalar> IncrementalPageRank<T> {
    /// Builds the engine from a graph snapshot.
    pub fn new(g: &Graph<T>, damping: f64, tol: f64, max_iters: usize) -> Self {
        let out = (0..g.vertices())
            .map(|u| g.neighbours(u).map(|v| v as u32).collect())
            .collect();
        IncrementalPageRank {
            out,
            matrix: DynamicMatrix::from_csr(g.transition_matrix()),
            ranks: None,
            damping,
            tol,
            max_iters,
        }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges currently in the graph.
    pub fn edges(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// The dynamic transition matrix (base tier plus pending overlay).
    pub fn matrix(&self) -> &DynamicMatrix<T> {
        &self.matrix
    }

    /// The most recent solution, if [`solve`](Self::solve) has run.
    pub fn ranks(&self) -> Option<&[T]> {
        self.ranks.as_deref()
    }

    /// Inserts the directed edge `u -> v` into the overlay, re-weighting
    /// every out-edge of `u` to the new `1/outdeg(u)`. Returns `false`
    /// (and changes nothing) for self-loops and duplicate edges, the
    /// same edges [`Graph::from_edges`] drops.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= vertices()`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        let n = self.vertices();
        assert!(u < n && v < n, "edge ({u}, {v}) outside {n} vertices");
        if u == v || self.out[u].contains(&(v as u32)) {
            return false;
        }
        self.out[u].push(v as u32);
        // Column u of the transition matrix is 1/outdeg(u) at every
        // out-neighbour; the new degree re-weights all of them. The
        // weight expression matches `Graph::transition_matrix` exactly
        // so overlaid and rebuilt matrices agree bitwise.
        let inv = T::from_f64(1.0 / self.out[u].len() as f64);
        for &w in &self.out[u] {
            self.matrix.set(w as usize, u, inv);
        }
        true
    }

    /// Solves to convergence, warm-starting from the previous solution
    /// when one exists, and stores the result for the next warm start.
    pub fn solve(&mut self) -> PowerSolve<T> {
        let r0 = match &self.ranks {
            Some(r) => r.clone(),
            None => uniform_ranks(self.vertices()),
        };
        let solve = pagerank_power(&self.matrix, &r0, self.damping, self.tol, self.max_iters);
        self.ranks = Some(solve.ranks.clone());
        solve
    }

    /// Merges the accumulated overlay into a fresh base tier. Purely a
    /// performance operation: merged row views are identical before and
    /// after, so solves are unaffected.
    pub fn compact(&mut self) {
        self.matrix.compact();
    }

    /// Rebuilds the current graph from the adjacency lists — the
    /// from-scratch oracle for exactness tests.
    pub fn snapshot(&self) -> Graph<T> {
        let edges: Vec<(u32, u32)> = self
            .out
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u as u32, v)))
            .collect();
        Graph::from_edges(self.vertices(), &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn cold_solve_matches_static_power_iteration() {
        let g = generators::road_network(64, 128, 1);
        let mut pr = IncrementalPageRank::new(&g, 0.85, 1e-12, 500);
        let dynamic = pr.solve();
        let m = g.transition_matrix();
        let fixed = pagerank_power(&m, &uniform_ranks::<f64>(g.vertices()), 0.85, 1e-12, 500);
        assert_eq!(dynamic.ranks, fixed.ranks);
        assert_eq!(dynamic.iterations, fixed.iterations);
    }

    #[test]
    fn new_solves_the_same_with_the_transition_cache_filled_or_empty() {
        let g = generators::rmat(128, 768, 9);
        let mut empty = IncrementalPageRank::new(&g, 0.85, 1e-12, 500);
        assert!(
            g.cached_transition().is_none(),
            "new must not fill the cache"
        );
        g.transition();
        let mut filled = IncrementalPageRank::new(&g, 0.85, 1e-12, 500);
        assert_eq!(empty.matrix().merged_csr(), filled.matrix().merged_csr());
        assert_eq!(empty.solve(), filled.solve());
        assert!(empty.add_edge(3, 77) && filled.add_edge(3, 77));
        assert_eq!(empty.solve(), filled.solve());
    }

    #[test]
    fn a_tolerance_below_f32_resolution_reports_no_convergence() {
        let g64 = generators::rmat(512, 4096, 17);
        let g32 = g64.cast::<f32>();
        let mut pr32 = IncrementalPageRank::<f32>::new(&g32, 0.85, 1e-10, 300);
        let solve = pr32.solve();
        assert_eq!(solve.iterations, 300);
        assert!(!solve.converged);
        let mut pr64 = IncrementalPageRank::<f64>::new(&g64, 0.85, 1e-10, 300);
        let solve = pr64.solve();
        assert!(solve.converged);
        assert!(solve.iterations < 300);
    }

    #[test]
    fn smash_operand_solves_to_the_csr_fixed_point() {
        let g = generators::rmat(128, 512, 3);
        let m = g.transition_matrix();
        let sm = smash_core::SmashMatrix::encode(
            &m,
            smash_core::SmashConfig::row_major(&[2, 4, 16]).unwrap(),
        );
        let r0 = uniform_ranks::<f64>(g.vertices());
        let csr = pagerank_power(&m, &r0, 0.85, 1e-12, 500);
        let smash = pagerank_power(&sm, &r0, 0.85, 1e-12, 500);
        for (a, b) in smash.ranks.iter().zip(&csr.ranks) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn overlaid_solve_is_bit_identical_to_rebuild() {
        let g = generators::rmat(64, 256, 7);
        let mut pr = IncrementalPageRank::new(&g, 0.85, 1e-12, 500);
        let mut added = 0;
        for (u, v) in [(0usize, 63usize), (5, 41), (17, 3), (33, 60), (2, 9)] {
            added += pr.add_edge(u, v) as usize;
        }
        assert!(added > 0, "seed graph already contained every probe edge");
        // Same starting vector, overlaid matrix vs. rebuilt-from-scratch
        // transition matrix: the full trajectory must agree bitwise.
        let rebuilt = pr.snapshot().transition_matrix();
        let r0 = uniform_ranks::<f64>(pr.vertices());
        let dynamic = pagerank_power(pr.matrix(), &r0, 0.85, 1e-12, 500);
        let oracle = pagerank_power(&rebuilt, &r0, 0.85, 1e-12, 500);
        assert_eq!(dynamic.ranks, oracle.ranks);
        assert_eq!(dynamic.iterations, oracle.iterations);
    }

    #[test]
    fn warm_start_converges_faster_and_to_the_same_fixed_point() {
        let g = generators::road_network(128, 256, 3);
        let tol = 1e-10;
        let mut pr = IncrementalPageRank::new(&g, 0.85, tol, 1000);
        let cold_iters = pr.solve().iterations;
        assert!(pr.add_edge(0, 100));
        let warm = pr.solve();
        assert!(
            warm.iterations <= cold_iters,
            "warm {} vs cold {cold_iters}",
            warm.iterations
        );
        // A cold solve of the mutated graph lands on the same fixed
        // point (up to tolerance).
        let rebuilt = pr.snapshot().transition_matrix();
        let cold = pagerank_power(
            &rebuilt,
            &uniform_ranks::<f64>(pr.vertices()),
            0.85,
            tol,
            1000,
        );
        for (a, b) in warm.ranks.iter().zip(&cold.ranks) {
            assert!((a - b).abs() < 20.0 * tol, "{a} vs {b}");
        }
    }

    #[test]
    fn rejects_self_loops_and_duplicates() {
        let g = Graph::<f64>::from_edges(3, &[(0, 1), (1, 2)]);
        let mut pr = IncrementalPageRank::new(&g, 0.85, 1e-10, 100);
        assert!(!pr.add_edge(1, 1), "self-loop must be rejected");
        assert!(!pr.add_edge(0, 1), "duplicate must be rejected");
        assert_eq!(pr.edges(), 2);
        assert!(pr.add_edge(2, 0));
        assert_eq!(pr.edges(), 3);
    }

    #[test]
    fn compaction_does_not_change_the_solution() {
        let g = generators::rmat(32, 128, 5);
        let mut pr = IncrementalPageRank::new(&g, 0.85, 1e-12, 500);
        pr.add_edge(0, 31);
        pr.add_edge(7, 19);
        let r0 = uniform_ranks::<f64>(pr.vertices());
        let before = pagerank_power(pr.matrix(), &r0, 0.85, 1e-12, 500);
        pr.compact();
        let after = pagerank_power(pr.matrix(), &r0, 0.85, 1e-12, 500);
        assert_eq!(before, after);
    }
}
