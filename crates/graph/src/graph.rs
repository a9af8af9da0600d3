use smash_matrix::{Coo, Csr, Scalar};
use std::sync::OnceLock;

/// Directed graph stored as a CSR adjacency matrix (`A[u][v] = 1` for an
/// edge `u -> v`), the representation the paper's Ligra-based workloads
/// compile down to when expressed as SpMV (§6).
///
/// Generic over the edge-weight [`Scalar`] (default `f64`, so plain
/// `Graph` keeps its historical meaning): `Graph<f32>` runs the same
/// PageRank/BC pipelines at half the memory traffic — the
/// approximate-analytics regime — and [`Graph::cast`] converts between
/// precisions without touching the edge structure.
///
/// A graph is immutable once built, so the PageRank transition matrix is
/// built at most once per graph, on first use, and kept
/// ([`Graph::transition`]).
#[derive(Debug, Clone)]
pub struct Graph<T: Scalar = f64> {
    adj: Csr<T>,
    /// The transition matrix, built on the first [`Graph::transition`]
    /// call. `adj` never changes after construction, so it cannot go
    /// stale.
    transition: OnceLock<Csr<T>>,
}

/// Two graphs are equal when their edges are: the transition cache is
/// derived from `adj`, so whether it is filled does not matter.
impl<T: Scalar> PartialEq for Graph<T> {
    fn eq(&self, other: &Self) -> bool {
        self.adj == other.adj
    }
}

impl<T: Scalar> Graph<T> {
    /// Builds a graph from an edge list; duplicate edges and self-loops are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= vertices`.
    pub fn from_edges(vertices: usize, edges: &[(u32, u32)]) -> Self {
        let mut coo = Coo::with_capacity(vertices, vertices, edges.len());
        for &(u, v) in edges {
            assert!(
                (u as usize) < vertices && (v as usize) < vertices,
                "edge ({u}, {v}) outside {vertices} vertices"
            );
            if u != v {
                coo.push(u as usize, v as usize, T::ONE);
            }
        }
        coo.compress();
        // Compression summed each duplicate edge into one entry (a sum of
        // ones, which never cancels), so every edge survives; clamp the
        // sums back to 1.
        let mut adj = Csr::from_coo(&coo);
        adj.values_mut().fill(T::ONE);
        Graph {
            adj,
            transition: OnceLock::new(),
        }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.adj.rows()
    }

    /// Number of directed edges.
    pub fn edges(&self) -> usize {
        self.adj.nnz()
    }

    /// Out-degree of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= vertices()`.
    pub fn out_degree(&self, u: usize) -> usize {
        self.adj.row_nnz(u)
    }

    /// Out-neighbours of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= vertices()`.
    pub fn neighbours(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj.row(u).0.iter().map(|&v| v as usize)
    }

    /// The 0/1 adjacency matrix.
    pub fn adjacency(&self) -> &Csr<T> {
        &self.adj
    }

    /// The adjacency transpose (in-edges), used by pull-style traversals.
    pub fn adjacency_transpose(&self) -> Csr<T> {
        self.adj.transpose()
    }

    /// The same graph with edge weights converted to scalar type `U` —
    /// the edge structure (and therefore every traversal) is unchanged,
    /// only the arithmetic precision of the SpMV-based algorithms moves.
    /// The result starts with no transition matrix: its weights are
    /// rounded from `f64` in `U` on first use, not cast from `T`'s.
    pub fn cast<U: Scalar>(&self) -> Graph<U> {
        Graph {
            adj: self.adj.cast(),
            transition: OnceLock::new(),
        }
    }

    /// The column-stochastic PageRank transition matrix `M` with
    /// `M[v][u] = 1 / outdeg(u)` for each edge `u -> v`, so one PageRank
    /// iteration is the SpMV `r' = d·M·r + (1-d)/n`.
    ///
    /// Built on the first call and kept for the graph's lifetime, so every
    /// later call is a lookup. The cost is memory: one more CSR of `edges()`
    /// entries (`4·(vertices + 1) + (4 + size_of::<T>())·edges()` bytes)
    /// per graph that has been asked for it. [`Graph::transition_matrix`]
    /// builds a fresh, owned copy instead.
    pub fn transition(&self) -> &Csr<T> {
        self.transition.get_or_init(|| self.transition_matrix())
    }

    /// The transition matrix if [`Graph::transition`] has built it, without
    /// building it.
    #[cfg(test)]
    pub(crate) fn cached_transition(&self) -> Option<&Csr<T>> {
        self.transition.get()
    }

    /// Builds the transition matrix of [`Graph::transition`] anew, as an
    /// owned matrix: `Aᵀ` by one counting sort, with each entry `(v, u)`
    /// re-weighted to `T::from_f64(1.0 / outdeg(u))`, the expression
    /// `IncrementalPageRank::add_edge` re-weights a column with.
    pub fn transition_matrix(&self) -> Csr<T> {
        // A sink's weight (1/0) is never read: it has no out-edges.
        let inv: Vec<T> = (0..self.vertices())
            .map(|u| T::from_f64(1.0 / self.out_degree(u) as f64))
            .collect();
        let mut m = self.adj.transpose();
        // Row v of `Aᵀ` lists the sources u of v's in-edges.
        let weights: Vec<T> = m.col_ind().iter().map(|&u| inv[u as usize]).collect();
        m.values_mut().copy_from_slice(&weights);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn builds_and_counts() {
        let g = diamond();
        assert_eq!(g.vertices(), 4);
        assert_eq!(g.edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.neighbours(0).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn drops_duplicates_and_loops() {
        let g = Graph::<f64>::from_edges(3, &[(0, 1), (0, 1), (1, 1), (1, 2)]);
        assert_eq!(g.edges(), 2);
        assert_eq!(g.adjacency().values(), &[1.0, 1.0]);
    }

    #[test]
    fn transition_matrix_is_column_stochastic() {
        let g = diamond();
        let m = g.transition_matrix();
        // Column u sums to 1 for every vertex with out-edges.
        let mt = m.transpose();
        for u in 0..4 {
            let (_, vals) = mt.row(u);
            let sum: f64 = vals.iter().sum();
            if g.out_degree(u) > 0 {
                assert!((sum - 1.0).abs() < 1e-12, "column {u} sums to {sum}");
            }
        }
    }

    /// The exact oracle: `M`'s pattern is `Aᵀ`'s and entry `(v, u)` is
    /// the bits of `T::from_f64(1.0 / outdeg(u))`, the expression
    /// `IncrementalPageRank::add_edge` re-weights a column with.
    fn assert_transition_exact<T: Scalar>(g: &Graph<T>) {
        let m = g.transition_matrix();
        let at = g.adjacency().transpose();
        assert_eq!(m.row_ptr(), at.row_ptr());
        assert_eq!(m.col_ind(), at.col_ind());
        for (v, u, w) in m.iter() {
            assert!(
                w == T::from_f64(1.0 / g.out_degree(u) as f64),
                "M[{v}][{u}]"
            );
        }
    }

    #[test]
    fn transition_matrix_entries_are_exact_inverse_out_degrees() {
        // Out-degrees 3, 1, 0 (a sink), 2 and 1: 1/3 is inexact in both
        // precisions, so a reordered or re-rounded weight would show.
        let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (3, 0), (3, 4), (4, 2)];
        let g = Graph::<f64>::from_edges(5, &edges);
        assert_transition_exact(&g);
        assert_transition_exact(&g.cast::<f32>());
        let r = crate::generators::rmat(256, 2_000, 7);
        assert_transition_exact(&r);
        assert_transition_exact(&r.cast::<f32>());
    }

    #[test]
    fn transition_is_built_once_and_equals_a_fresh_build() {
        let g = crate::generators::rmat(256, 2_000, 7);
        assert!(g.cached_transition().is_none(), "built lazily");
        assert_eq!(*g.transition(), g.transition_matrix());
        assert!(
            std::ptr::eq(g.transition(), g.transition()),
            "a second call must return the cached matrix"
        );
        let g32 = g.cast::<f32>();
        assert!(g32.cached_transition().is_none(), "cast starts empty");
        assert_eq!(*g32.transition(), g32.transition_matrix());
    }

    #[test]
    fn cast_transition_is_rounded_in_the_target_precision() {
        // Built from f32 out-degrees, not cast from the f64 cache.
        let g = Graph::<f64>::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (3, 0), (3, 4)]);
        g.transition();
        let g32 = g.cast::<f32>();
        let m = g32.transition();
        for (v, u, w) in m.iter() {
            assert!(
                w == f32::from_f64(1.0 / g32.out_degree(u) as f64),
                "M[{v}][{u}]"
            );
        }
    }

    #[test]
    fn clone_and_eq_ignore_the_transition_cache() {
        let empty = diamond();
        let filled = diamond();
        filled.transition();
        assert_eq!(empty, filled);
        assert_eq!(filled, empty);
        assert_eq!(empty.clone(), filled.clone());
        assert!(empty.clone().cached_transition().is_none());
        let copy = filled.clone();
        assert_eq!(copy, filled);
        assert_eq!(copy.cached_transition(), filled.cached_transition());
        assert_eq!(*copy.transition(), filled.transition_matrix());
        let other = Graph::<f64>::from_edges(4, &[(0, 1)]);
        assert_ne!(other, filled);
    }

    #[test]
    fn from_edges_keeps_every_distinct_edge_once() {
        // Triplicated and duplicated edges sum to 3 and 2 in the COO; the
        // adjacency keeps each one edge at weight 1.
        let edges = [(2, 0), (0, 1), (2, 0), (0, 1), (2, 0), (1, 0), (0, 0)];
        let g = Graph::<f32>::from_edges(3, &edges);
        assert_eq!(g.adjacency().row_ptr(), &[0, 1, 2, 3]);
        assert_eq!(g.adjacency().col_ind(), &[1, 0, 0]);
        assert_eq!(g.adjacency().values(), &[1.0, 1.0, 1.0]);
        assert!(g.adjacency().is_verified());
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.adjacency_transpose();
        assert_eq!(t.row(3).0, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_range_edges() {
        Graph::<f64>::from_edges(2, &[(0, 5)]);
    }
}
