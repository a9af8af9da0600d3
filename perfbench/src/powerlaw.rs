//! `powerlaw-serve`: per-call dispatch and per-query set-up. A serving
//! loop over a skewed R-MAT graph issues many cheap calls through
//! `Executor::auto()`, so profiling, planning and rebuilding the
//! transition matrix weigh as much as the arithmetic. No SMASH operand
//! and no overlay is involved.

use crate::harness::{bitwise, Checks, Sampler, Samples};
use crate::layers::ProbeInputs;
use crate::metrics::OPS;
use crate::trace::{Layer, Tracer};
use crate::workload::{OpDef, Rng, Scale, Workload};
use smash_graph::{
    generators, personalized_pagerank, personalized_pagerank_batched, seed_batch, triangle_count,
    undirected_adjacency, Graph, PageRankConfig,
};
use smash_kernels::spgemm::stored_work;
use smash_kernels::Executor;
use smash_matrix::{generators as mgen, locality, spmv_rows, Csr, Dense};

/// Queries per batched PPR pass.
const QUERIES: usize = 8;
/// Passes over the small-operand stream per sample.
const STREAM_PASSES: usize = 16;

/// The powerlaw-serve workload.
pub struct Powerlaw {
    graph: Graph<f64>,
    adj: Csr<f64>,
    small: Vec<Csr<f64>>,
    small_x: Vec<Vec<f64>>,
    auto_y: Vec<Vec<f64>>,
    direct_y: Vec<Vec<f64>>,
    exec: Executor,
    cfg: PageRankConfig,
    restart: Vec<Vec<f64>>,
    batch: Dense<f64>,
    next_query: usize,
    want_ppr: Vec<Vec<f64>>,
    want_triangles: u64,
    transition: Option<Csr<f64>>,
}

impl Powerlaw {
    /// Generates the graph and the small-operand stream for `seed`.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let (n, draws, small_each) = match scale {
            Scale::Full => (8_192, 80_000, 16),
            Scale::Smoke => (1_024, 8_000, 2),
        };
        let graph = generators::rmat(n, draws, seed);
        let adj = undirected_adjacency(&graph);
        // Shaped like the planner zoo's tiny-uniform and small-uniform.
        let mut rng = Rng::new(seed, 2);
        let mut small = Vec::with_capacity(2 * small_each);
        for _ in 0..small_each {
            small.push(mgen::uniform(64, 64, 500, rng.next_u64()));
            small.push(mgen::uniform(256, 256, 3_000, rng.next_u64()));
        }
        let small_x: Vec<Vec<f64>> = small
            .iter()
            .map(|m| (0..m.cols()).map(|_| rng.range(-1.0, 1.0)).collect())
            .collect();
        let zeros: Vec<Vec<f64>> = small.iter().map(|m| vec![0.0; m.rows()]).collect();
        let n = graph.vertices();
        let seeds: Vec<usize> = (0..QUERIES).map(|_| rng.below(n)).collect();
        let restart = seeds
            .iter()
            .map(|&s| {
                let mut p = vec![0.0; n];
                p[s] = 1.0;
                p
            })
            .collect();
        Powerlaw {
            batch: seed_batch(n, &seeds),
            exec: Executor::auto(),
            cfg: PageRankConfig {
                iterations: 20,
                ..PageRankConfig::default()
            },
            auto_y: zeros.clone(),
            direct_y: zeros,
            next_query: 0,
            want_ppr: Vec::new(),
            want_triangles: 0,
            transition: None,
            graph,
            adj,
            small,
            small_x,
            restart,
        }
    }
}

impl Workload for Powerlaw {
    fn ops(&self) -> [OpDef; OPS] {
        let op = |what, per_round| OpDef { what, per_round };
        [
            op("Auto SpMV over the small-operand stream (per call)", 4),
            op("1-query personalized PageRank, 20 iterations", 4),
            op("8-query batched personalized PageRank, 20 iterations", 2),
            op("Auto triangle_count on the undirected R-MAT", 1),
            op(
                "direct spmv_rows over the small-operand stream (per call)",
                4,
            ),
        ]
    }

    fn prepare_oracles(&mut self) {
        self.want_ppr = self
            .restart
            .iter()
            .map(|p| personalized_pagerank(&self.exec, &self.graph, &self.cfg, p))
            .collect();
        self.want_triangles = triangle_count(&Executor::serial(), &self.adj);
    }

    fn run(
        &mut self,
        op: usize,
        sampler: &mut Sampler,
        into: &mut Samples,
        t: &mut Tracer,
        checks: &mut Checks,
    ) {
        let (exec, graph, cfg) = (&self.exec, &self.graph, &self.cfg);
        match op {
            0 | 4 => {
                let (small, xs) = (&self.small, &self.small_x);
                let (ys, name) = if op == 0 {
                    (&mut self.auto_y, "small_spmv_auto")
                } else {
                    (&mut self.direct_y, "small_spmv_direct")
                };
                sampler.sample(into, STREAM_PASSES * small.len(), || {
                    t.begin(name);
                    for _ in 0..STREAM_PASSES {
                        for ((m, x), y) in small.iter().zip(xs).zip(ys.iter_mut()) {
                            if op == 0 {
                                t.call(Layer::Kernels, "Executor::spmv", || exec.spmv(m, x, y));
                            } else {
                                t.call(Layer::Matrix, "spmv_rows", || spmv_rows(m, x, y));
                            }
                        }
                    }
                    t.end();
                });
                if op == 4 {
                    let same = self
                        .auto_y
                        .iter()
                        .zip(&self.direct_y)
                        .all(|(a, d)| bitwise(a, d));
                    checks.check(same, || "Auto SpMV differs from direct spmv_rows".into());
                }
            }
            1 => {
                let j = self.next_query % QUERIES;
                self.next_query += 1;
                let p = &self.restart[j];
                let r = sampler.sample(into, 1, || {
                    t.begin("ppr1");
                    let r = t.call(Layer::Graph, "personalized_pagerank", || {
                        personalized_pagerank(exec, graph, cfg, p)
                    });
                    t.end();
                    r
                });
                checks.check(bitwise(&r, &self.want_ppr[j]), || {
                    format!("1-query PPR for query {j} changed between calls")
                });
            }
            2 => {
                let batch = &self.batch;
                let r = sampler.sample(into, 1, || {
                    t.begin("ppr8");
                    let r = t.call(Layer::Graph, "personalized_pagerank_batched", || {
                        personalized_pagerank_batched(exec, graph, cfg, batch)
                    });
                    t.end();
                    r
                });
                for (j, want) in self.want_ppr.iter().enumerate() {
                    checks.check(bitwise(&r.col(j), want), || {
                        format!("batched PPR column {j} differs from the 1-query result")
                    });
                }
            }
            _ => {
                let adj = &self.adj;
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
        }
    }

    fn bytes_per_nnz(&self) -> f64 {
        let a = self.graph.adjacency();
        a.storage_bytes() as f64 / a.nnz() as f64
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
            ("small_operands", self.small.len() as f64),
        ]
    }

    fn probe_inputs(&mut self) -> ProbeInputs<'_> {
        let graph = &self.graph;
        let transition = self
            .transition
            .get_or_insert_with(|| graph.transition_matrix());
        ProbeInputs {
            csr: &self.adj,
            smash: &self.adj,
            spgemm: &self.adj,
            dispatch: self.small.iter().collect(),
            batched: transition,
            graph,
        }
    }
}
