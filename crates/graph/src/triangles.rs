//! Triangle counting and two-hop neighbourhood statistics over the
//! Gustavson SpGEMM engine — the classic "A²" graph analytics that the
//! sparse × sparse multiply of `smash-kernels` unlocks.
//!
//! Triangles are counted with the **masked** product `L · L ∘ L`, where
//! `L` is the degree-ordered lower triangle of the adjacency: order the
//! vertices by `(degree, id)` and keep each edge once, pointing from the
//! higher vertex to the lower one. Each entry `(L·L)[u][v]` counts the
//! paths `u → w → v` that descend through `w`, and the mask `L` keeps
//! only the pairs that close into an edge `u → v` — so every triangle is
//! counted exactly once, at its highest vertex, and the products that
//! land off the mask are dropped inside the accumulator instead of being
//! built into an `A²` that is read only under `A`. Orienting from high
//! to low degree also caps each row's fan-out, which keeps the product's
//! work well below that of `A²` on skewed graphs. Two-hop counts need
//! the whole pattern of `A²` and keep the unmasked product.
//!
//! # Example
//!
//! ```
//! use smash_graph::{triangles, Graph};
//! use smash_kernels::Executor;
//!
//! // K4 has C(4,3) = 4 triangles.
//! let mut edges = Vec::new();
//! for u in 0..4u32 {
//!     for v in 0..4u32 {
//!         if u != v {
//!             edges.push((u, v));
//!         }
//!     }
//! }
//! let g = Graph::<f64>::from_edges(4, &edges);
//! let adj = triangles::undirected_adjacency(&g);
//! assert_eq!(triangles::triangle_count(&Executor::auto(), &adj), 4);
//! ```

use crate::Graph;
use smash_kernels::Executor;
use smash_matrix::{Csr, CsrBuilder, Scalar};

/// The symmetrised 0/1 adjacency `A ∨ Aᵀ` of a graph: every directed
/// edge contributes both orientations, weights clamped back to one, no
/// self-loops (`Graph` never stores them). This is the operand
/// [`triangle_count`] expects.
pub fn undirected_adjacency<T: Scalar>(g: &Graph<T>) -> Csr<T> {
    let (adj, adj_t) = (g.adjacency(), g.adjacency_transpose());
    let ones: Vec<T> = vec![T::ONE; adj.cols()];
    let mut union = Vec::new();
    let mut builder = CsrBuilder::with_capacity(adj.cols(), adj.rows(), 2 * adj.nnz());
    for u in 0..adj.rows() {
        // Row u of A ∨ Aᵀ: the sorted union of the two sorted rows.
        let (out, inc) = (adj.row(u).0, adj_t.row(u).0);
        let (mut p, mut q) = (0, 0);
        union.clear();
        while p < out.len() && q < inc.len() {
            let v = out[p].min(inc[q]);
            union.push(v);
            p += usize::from(out[p] == v);
            q += usize::from(inc[q] == v);
        }
        union.extend_from_slice(&out[p..]);
        union.extend_from_slice(&inc[q..]);
        builder.push_row(&union, &ones[..union.len()]);
    }
    builder.finish()
}

/// The degree-ordered lower triangle of `adj`: row `u` keeps each stored
/// `v` with `(deg v, v) < (deg u, u)`, where `deg` is the row length, and
/// every kept value is `T::ONE`. A row filter, so columns stay sorted.
fn degree_ordered_lower<T: Scalar>(adj: &Csr<T>) -> Csr<T> {
    let rank = |u: usize| (adj.row_nnz(u), u);
    let ones = vec![T::ONE; adj.cols()];
    let mut kept = Vec::new();
    let mut builder = CsrBuilder::with_capacity(adj.cols(), adj.rows(), adj.nnz() / 2);
    for u in 0..adj.rows() {
        kept.clear();
        kept.extend(adj.row(u).0.iter().filter(|&&v| rank(v as usize) < rank(u)));
        builder.push_row(&kept, &ones[..kept.len()]);
    }
    builder.finish()
}

/// Counts the triangles of an undirected graph given its symmetric
/// adjacency (see [`undirected_adjacency`]). The count is of the
/// **stored pattern**: values are never read, so any weights (not only
/// 0/1) give the same count, and self-loops are ignored.
///
/// Builds the degree-ordered lower triangle `L` (see the
/// [module docs](self)) and sums the masked product `L · L ∘ L` through
/// [`Executor::spgemm_masked`]: each triangle is counted once, so there
/// is no division. The SpGEMM runs serial or parallel per the executor's
/// mode; the count is identical either way (the engine is bit-identical
/// across modes).
///
/// # Panics
///
/// Panics if `adj` is not square.
pub fn triangle_count<T: Scalar>(exec: &Executor, adj: &Csr<T>) -> u64 {
    assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
    let lower = degree_ordered_lower(adj);
    let closed = exec.spgemm_masked(&lower, &lower, &lower);
    // Each entry is a small exact integer (a count of common lower
    // neighbours), so the per-entry conversion is exact in f32 too.
    closed.values().iter().map(|v| v.to_f64() as u64).sum()
}

/// Per-vertex count of *distinct* two-hop neighbours: the row nnz of
/// `A²`, i.e. the number of vertices reachable in exactly two steps
/// (including the vertex itself when it sits on any cycle of length 2).
/// The multiplication runs through the executor's SpGEMM engine.
///
/// # Panics
///
/// Panics if `adj` is not square.
pub fn two_hop_counts<T: Scalar>(exec: &Executor, adj: &Csr<T>) -> Vec<usize> {
    assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
    let paths = exec.spgemm(adj, adj);
    (0..adj.rows()).map(|u| paths.row_nnz(u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: u32) -> Csr<f64> {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        undirected_adjacency(&Graph::<f64>::from_edges(n as usize, &edges))
    }

    /// The reference count: build all of `A²`, sum it over the stored
    /// edges of `A` with a sorted two-pointer merge per row, divide by 6.
    fn a2_circ_a_count<T: Scalar>(adj: &Csr<T>) -> u64 {
        let paths = Executor::serial().spgemm(adj, adj);
        let mut total = 0.0f64;
        for u in 0..adj.rows() {
            let (edge_cols, _) = adj.row(u);
            let (path_cols, path_vals) = paths.row(u);
            let (mut p, mut q) = (0usize, 0usize);
            while p < edge_cols.len() && q < path_cols.len() {
                match edge_cols[p].cmp(&path_cols[q]) {
                    std::cmp::Ordering::Equal => {
                        total += path_vals[q].to_f64();
                        p += 1;
                        q += 1;
                    }
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                }
            }
        }
        (total / 6.0).round() as u64
    }

    /// The oracle graphs: complete graphs, a path, a star, R-MAT at
    /// seeds 1–5 (128–2048 vertices) and a small road network.
    fn oracle_graphs() -> Vec<(String, Csr<f64>)> {
        let mut out = Vec::new();
        for n in [3, 4, 6] {
            out.push((format!("K{n}"), complete(n)));
        }
        let path = Graph::<f64>::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        out.push(("path".into(), undirected_adjacency(&path)));
        let star = Graph::<f64>::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        out.push(("star".into(), undirected_adjacency(&star)));
        for (seed, n) in [(1, 128), (2, 256), (3, 512), (4, 1024), (5, 2048)] {
            let g: Graph = crate::generators::rmat(n, 8 * n, seed);
            out.push((format!("rmat{n}/seed{seed}"), undirected_adjacency(&g)));
        }
        let road: Graph = crate::generators::road_network(300, 700, 5);
        out.push(("road".into(), undirected_adjacency(&road)));
        out
    }

    #[test]
    fn complete_graphs_have_binomial_triangles() {
        let exec = Executor::auto();
        // K_n has C(n, 3) triangles.
        assert_eq!(triangle_count(&exec, &complete(3)), 1);
        assert_eq!(triangle_count(&exec, &complete(4)), 4);
        assert_eq!(triangle_count(&exec, &complete(6)), 20);
    }

    #[test]
    fn masked_count_matches_the_a2_circ_a_oracle() {
        let execs = [
            ("serial", Executor::serial()),
            ("threads2", Executor::with_threads(2)),
            ("auto", Executor::auto()),
        ];
        let mut closed_some = false;
        for (name, adj) in oracle_graphs() {
            let want = a2_circ_a_count(&adj);
            assert_eq!(
                a2_circ_a_count(&adj.cast::<f32>()),
                want,
                "{name} f32 oracle"
            );
            closed_some |= want > 0;
            for (mode, exec) in &execs {
                assert_eq!(triangle_count(exec, &adj), want, "{name} f64 {mode}");
                let adj32 = adj.cast::<f32>();
                assert_eq!(triangle_count(exec, &adj32), want, "{name} f32 {mode}");
            }
        }
        assert!(closed_some, "the oracle graphs must contain triangles");
    }

    #[test]
    fn count_is_of_the_stored_pattern_not_the_values() {
        for (name, adj) in oracle_graphs() {
            let want = triangle_count(&Executor::serial(), &adj);
            let mut builder = CsrBuilder::with_capacity(adj.cols(), adj.rows(), adj.nnz());
            for u in 0..adj.rows() {
                let (cols, vals) = adj.row(u);
                let doubled: Vec<f64> = vals.iter().map(|v| 2.0 * v).collect();
                builder.push_row(cols, &doubled);
            }
            let scaled = builder.finish();
            assert!(scaled.values().iter().all(|&v| v == 2.0));
            assert_eq!(triangle_count(&Executor::serial(), &scaled), want, "{name}");
        }
    }

    #[test]
    fn paths_and_stars_are_triangle_free() {
        let exec = Executor::serial();
        let path = undirected_adjacency(&Graph::<f64>::from_edges(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
        ));
        assert_eq!(triangle_count(&exec, &path), 0);
        let star = undirected_adjacency(&Graph::<f64>::from_edges(
            5,
            &[(0, 1), (0, 2), (0, 3), (0, 4)],
        ));
        assert_eq!(triangle_count(&exec, &star), 0);
    }

    #[test]
    fn undirected_adjacency_is_symmetric_and_binary() {
        let adj = undirected_adjacency(&Graph::<f64>::from_edges(4, &[(0, 1), (2, 1), (3, 0)]));
        assert_eq!(adj.to_dense(), adj.transpose().to_dense());
        assert!(adj.values().iter().all(|&v| v == 1.0));
        assert_eq!(adj.nnz(), 6); // three edges, both orientations

        // A directed graph with one-way and two-way edges: the pattern is
        // that of A + Aᵀ.
        let g = Graph::<f64>::from_edges(
            64,
            &(0..300u32)
                .map(|e| ((e * e + e) % 64, (7 * e + e / 5) % 64))
                .collect::<Vec<_>>(),
        );
        let sum = g.adjacency().add(&g.adjacency_transpose()).unwrap();
        let adj = undirected_adjacency(&g);
        assert_eq!(
            (adj.row_ptr(), adj.col_ind()),
            (sum.row_ptr(), sum.col_ind())
        );
        assert!(adj.values().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn two_hop_counts_on_a_path() {
        // 0 - 1 - 2: from the endpoints, two hops reach the far endpoint
        // or backtrack home ({0, 2} — 2 distinct); from the middle, both
        // neighbours lead straight back ({1} — 1 distinct).
        let exec = Executor::serial();
        let path = undirected_adjacency(&Graph::<f64>::from_edges(3, &[(0, 1), (1, 2)]));
        assert_eq!(two_hop_counts(&exec, &path), vec![2, 1, 2]);
    }

    #[test]
    fn triangle_count_agrees_across_modes_on_rmat() {
        let g: Graph = crate::generators::rmat(128, 600, 9);
        let adj = undirected_adjacency(&g);
        let serial = triangle_count(&Executor::serial(), &adj);
        for exec in [Executor::parallel(), Executor::with_threads(2)] {
            assert_eq!(triangle_count(&exec, &adj), serial);
        }
    }
}
