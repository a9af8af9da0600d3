use smash_matrix::{Coo, Csr, Scalar};

/// Directed graph stored as a CSR adjacency matrix (`A[u][v] = 1` for an
/// edge `u -> v`), the representation the paper's Ligra-based workloads
/// compile down to when expressed as SpMV (§6).
///
/// Generic over the edge-weight [`Scalar`] (default `f64`, so plain
/// `Graph` keeps its historical meaning): `Graph<f32>` runs the same
/// PageRank/BC pipelines at half the memory traffic — the
/// approximate-analytics regime — and [`Graph::cast`] converts between
/// precisions without touching the edge structure.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph<T: Scalar = f64> {
    adj: Csr<T>,
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
        // Duplicate edges were summed by compress; clamp back to 1.
        let mut dedup = Coo::with_capacity(vertices, vertices, coo.nnz());
        for &(u, v, _) in coo.entries() {
            dedup.push(u as usize, v as usize, T::ONE);
        }
        Graph {
            adj: Csr::from_coo(&dedup),
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
    pub fn cast<U: Scalar>(&self) -> Graph<U> {
        Graph {
            adj: self.adj.cast(),
        }
    }

    /// The column-stochastic PageRank transition matrix `M` with
    /// `M[v][u] = 1 / outdeg(u)` for each edge `u -> v`, so one PageRank
    /// iteration is the SpMV `r' = d·M·r + (1-d)/n`.
    pub fn transition_matrix(&self) -> Csr<T> {
        let n = self.vertices();
        let mut coo = Coo::with_capacity(n, n, self.edges());
        for u in 0..n {
            let deg = self.out_degree(u);
            if deg == 0 {
                continue;
            }
            let w = T::from_f64(1.0 / deg as f64);
            for v in self.neighbours(u) {
                coo.push(v, u, w);
            }
        }
        Csr::from_coo(&coo)
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
