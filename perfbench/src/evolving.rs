//! `evolving-road`: writes beside reads. A road network takes batches of
//! edge insertions into the `IncrementalPageRank` overlay, each followed
//! by a warm solve, with a compaction every few epochs; the overlay's
//! merged-row reads and the compaction policy trade against each other
//! here. Solves call `spmv_rows` directly, so the planner never runs.
//!
//! Compaction is timed on copies of the engine taken between epochs, so
//! it is sampled at every overlay size the policy lets the engine reach.
//! At the start of each replay and every `RESET_EVERY` epochs the engine
//! returns to its solved starting state and the edge batches repeat, so
//! the graph does not grow with the run's length: a faster program runs
//! more epochs over the same states.

use crate::harness::{bitwise, Checks, Sampler, Samples};
use crate::layers::{leading_corner, ProbeInputs};
use crate::metrics::OPS;
use crate::trace::{Layer, Tracer};
use crate::workload::{OpDef, Rng, Scale, Workload};
use smash_graph::{
    generators, pagerank_power, triangle_count, undirected_adjacency, Graph, IncrementalPageRank,
    PowerSolve,
};
use smash_kernels::spgemm::stored_work;
use smash_kernels::Executor;
use smash_matrix::{locality, spmv_rows, Csr};

/// PageRank damping factor.
pub const DAMPING: f64 = 0.85;
/// Convergence tolerance (L1 residual).
pub const TOL: f64 = 1e-9;
/// Iteration cap; no solve on these graphs comes near it.
pub const MAX_ITERS: usize = 1_000;
/// `add_edge` calls per epoch.
pub const EDGES_PER_EPOCH: usize = 200;
/// Epochs between compactions.
const COMPACT_EVERY: usize = 4;
/// Epochs between resets to the solved starting state.
const RESET_EVERY: usize = 2 * COMPACT_EVERY;
/// Overlay SpMV calls per sample.
const OVERLAY_SPMV_CALLS: usize = 2;
/// Rng stream of the inserted edges.
const EDGE_STREAM: u64 = 3;
/// Side of the leading corner the SMASH-backed probes encode.
const SMASH_CORNER: usize = 8_192;

/// The evolving-road workload.
pub struct Evolving {
    graph: Graph<f64>,
    fresh: IncrementalPageRank<f64>,
    /// `fresh` after one solve: where each cycle of epochs starts.
    solved: Option<IncrementalPageRank<f64>>,
    engine: IncrementalPageRank<f64>,
    adj: Csr<f64>,
    exec: Executor,
    seed: u64,
    rng: Rng,
    y: Vec<f64>,
    want_cold: Option<PowerSolve<f64>>,
    want_triangles: u64,
    corner: Option<Csr<f64>>,
}

impl Evolving {
    /// Generates the road network for `seed` and builds the engine.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let (n, edges) = match scale {
            Scale::Full => (65_536, 140_000),
            Scale::Smoke => (4_096, 8_800),
        };
        let graph = generators::road_network(n, edges, seed);
        let fresh = IncrementalPageRank::new(&graph, DAMPING, TOL, MAX_ITERS);
        let adj = undirected_adjacency(&graph);
        Evolving {
            engine: fresh.clone(),
            exec: Executor::auto(),
            solved: None,
            seed,
            rng: Rng::new(seed, EDGE_STREAM),
            y: vec![0.0; graph.vertices()],
            want_cold: None,
            want_triangles: 0,
            corner: None,
            graph,
            fresh,
            adj,
        }
    }

    fn epoch_edges(&mut self) -> Vec<(usize, usize)> {
        let n = self.engine.vertices();
        (0..EDGES_PER_EPOCH)
            .map(|_| (self.rng.below(n), self.rng.below(n)))
            .collect()
    }
}

impl Workload for Evolving {
    fn ops(&self) -> [OpDef; OPS] {
        let op = |what, per_round| OpDef { what, per_round };
        [
            op("IncrementalPageRank cold solve", 1),
            op("epoch: 200 add_edge calls plus a warm solve", 1),
            op("compact() of the accumulated overlay", 2),
            op("Auto triangle_count on the undirected road network", 1),
            op("spmv_rows over the overlaid transition matrix", 2),
        ]
    }

    fn prepare_oracles(&mut self) {
        self.want_cold = Some(self.fresh.clone().solve());
        self.want_triangles = triangle_count(&Executor::serial(), &self.adj);
        // Epochs warm-start from a solved state.
        self.engine.solve();
        self.solved = Some(self.engine.clone());
    }

    fn run(
        &mut self,
        op: usize,
        sampler: &mut Sampler,
        into: &mut Samples,
        t: &mut Tracer,
        checks: &mut Checks,
    ) {
        match op {
            0 => {
                let mut engine = self.fresh.clone();
                let solve = sampler.sample(into, 1, || {
                    t.begin("cold_solve");
                    let s = t.call(Layer::Graph, "IncrementalPageRank::solve", || {
                        engine.solve()
                    });
                    t.end();
                    s
                });
                let want = self.want_cold.as_ref().expect("oracles are prepared");
                checks.check(
                    solve.iterations == want.iterations && bitwise(&solve.ranks, &want.ranks),
                    || "cold solve changed between calls".into(),
                );
            }
            1 => {
                // Each replay starts from the solved state too, so the
                // traced replay sees the same graphs as the untraced one.
                if into.len().is_multiple_of(RESET_EVERY) {
                    self.engine = self.solved.clone().expect("oracles are prepared");
                    self.rng = Rng::new(self.seed, EDGE_STREAM);
                } else if into.len().is_multiple_of(COMPACT_EVERY) {
                    let merged = self.engine.matrix().merged_csr();
                    self.engine.compact();
                    checks.check(self.engine.matrix().merged_csr() == merged, || {
                        "compaction changed the merged rows".into()
                    });
                }
                let edges = self.epoch_edges();
                // The epoch before each compaction is checked against a
                // from-scratch rebuild: the overlay is largest there.
                let verify = (into.len() + 1).is_multiple_of(COMPACT_EVERY);
                let before = verify.then(|| {
                    self.engine
                        .ranks()
                        .expect("the engine is solved before epochs")
                        .to_vec()
                });
                let engine = &mut self.engine;
                let solve = sampler.sample(into, 1, || {
                    t.begin("epoch");
                    for &(u, v) in &edges {
                        t.call(Layer::Graph, "IncrementalPageRank::add_edge", || {
                            engine.add_edge(u, v)
                        });
                    }
                    let s = t.call(Layer::Graph, "IncrementalPageRank::solve", || {
                        engine.solve()
                    });
                    t.end();
                    s
                });
                if let Some(r0) = before {
                    let rebuilt = self.engine.snapshot().transition_matrix();
                    let want = pagerank_power(&rebuilt, &r0, DAMPING, TOL, MAX_ITERS);
                    checks.check(
                        solve.iterations == want.iterations && bitwise(&solve.ranks, &want.ranks),
                        || "warm solve over the overlay differs from a rebuild".into(),
                    );
                }
            }
            2 => {
                // Compacts a copy, so the overlay keeps growing until the
                // epoch loop compacts the engine itself.
                let mut copy = self.engine.clone();
                sampler.sample(into, 1, || {
                    t.begin("compact");
                    t.call(Layer::Graph, "IncrementalPageRank::compact", || {
                        copy.compact()
                    });
                    t.end();
                });
                if into.len().is_multiple_of(4) {
                    checks.check(
                        copy.matrix().merged_csr() == self.engine.matrix().merged_csr(),
                        || "compaction changed the merged rows".into(),
                    );
                }
            }
            3 => {
                let (exec, adj) = (&self.exec, &self.adj);
                let count = sampler.sample(into, 1, || {
                    t.begin("triangles");
                    let c = t.call(Layer::Graph, "triangle_count", || triangle_count(exec, adj));
                    t.end();
                    c
                });
                checks.check(count == self.want_triangles, || {
                    format!(
                        "Auto triangle count {count} != serial {}",
                        self.want_triangles
                    )
                });
            }
            _ => {
                let (m, y) = (self.engine.matrix(), &mut self.y);
                let r = self.engine.ranks().expect("the engine is solved");
                sampler.sample(into, OVERLAY_SPMV_CALLS, || {
                    t.begin("overlay_spmv");
                    for _ in 0..OVERLAY_SPMV_CALLS {
                        t.call(Layer::Matrix, "spmv_rows", || spmv_rows(m, r, y));
                    }
                    t.end();
                });
                if into.len().is_multiple_of(8) {
                    let mut want = vec![0.0; self.y.len()];
                    spmv_rows(&m.merged_csr(), r, &mut want);
                    checks.check(bitwise(&self.y, &want), || {
                        "overlay SpMV differs from the merged CSR".into()
                    });
                }
            }
        }
    }

    fn bytes_per_nnz(&self) -> f64 {
        let t = self.fresh.matrix().merged_csr();
        t.storage_bytes() as f64 / t.nnz() as f64
    }

    fn shape(&self) -> Vec<(&'static str, f64)> {
        let max_degree = (0..self.adj.rows())
            .map(|i| self.adj.row_nnz(i))
            .max()
            .unwrap_or(0);
        vec![
            ("vertices", self.adj.rows() as f64),
            ("nnz", self.adj.nnz() as f64),
            ("block_fill", locality::locality_of_sparsity(&self.adj, 8)),
            ("max_degree", max_degree as f64),
            ("flops", stored_work(&self.adj, &self.adj) as f64),
        ]
    }

    fn probe_inputs(&mut self) -> ProbeInputs<'_> {
        let transition = match self.fresh.matrix().base() {
            smash_core::DynamicBase::Csr(c) => c,
            smash_core::DynamicBase::Smash(_) => unreachable!("the engine keeps a CSR base"),
        };
        // SMASH [2,4] over all 65536 columns would need a 268 MB level-0
        // bitmap; the SMASH-backed probes encode the leading corner.
        let k = transition.rows().min(SMASH_CORNER);
        let corner = self
            .corner
            .get_or_insert_with(|| leading_corner(transition, k));
        ProbeInputs {
            csr: transition,
            smash: corner,
            spgemm: &self.adj,
            dispatch: vec![transition],
            batched: transition,
            graph: &self.graph,
        }
    }
}
