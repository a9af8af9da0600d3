//! `blocky-kernels`: the format kernels' index recovery and per-block
//! overhead. The zoo's `blocky-full-fill` scaled up 8×: every non-zero
//! sits in a fully filled 8-wide run, so CSR streams it at full speed and
//! whatever BCSR and SMASH lose is indexing, not arithmetic. All calls go
//! through `Executor::serial()`; the planner, the pool and the overlay
//! stay idle.

use crate::harness::{bitwise, close, Checks, Sampler, Samples};
use crate::layers::{leading_corner, ProbeInputs};
use crate::metrics::OPS;
use crate::trace::{Layer, Tracer};
use crate::workload::{OpDef, Rng, Scale, Workload};
use smash_core::{SmashConfig, SmashMatrix};
use smash_graph::Graph;
use smash_kernels::spgemm::stored_work;
use smash_kernels::Executor;
use smash_matrix::{generators, locality, Bcsr, Csr, Dense};

/// Check Auto against serial on every this-many SMASH samples.
const AUTO_CHECK_EVERY: usize = 8;
/// CSR SpMV calls per sample: one call is short next to the reference.
const CSR_CALLS: usize = 4;

/// The blocky-kernels workload.
pub struct Blocky {
    csr: Csr<f64>,
    bcsr: Bcsr<f64>,
    smash: SmashMatrix<f64>,
    x: Vec<f64>,
    b1: Dense<f64>,
    b8: Dense<f64>,
    y: Vec<f64>,
    c1: Dense<f64>,
    c8: Dense<f64>,
    serial: Executor,
    auto: Executor,
    want_y: Vec<f64>,
    want_c1: Dense<f64>,
    want_c8: Dense<f64>,
    graph: Option<Graph<f64>>,
    corner: Option<Csr<f64>>,
}

/// The SMASH hierarchy every blocky operand is encoded with.
pub fn smash_config() -> SmashConfig {
    SmashConfig::row_major(&[2, 4]).expect("[2,4] is a valid hierarchy")
}

impl Blocky {
    /// Generates the inputs for `seed` and builds every format.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let (n, nnz) = match scale {
            Scale::Full => (16_384, 1 << 20),
            Scale::Smoke => (1_024, 1 << 14),
        };
        let csr = locality::with_locality(n, n, nnz, 8, 1.0, seed);
        let bcsr = Bcsr::from_csr(&csr, 2, 2).expect("2x2 blocks tile any matrix");
        let smash = SmashMatrix::encode(&csr, smash_config());
        let mut rng = Rng::new(seed, 1);
        let x = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
        Blocky {
            b1: generators::dense_batch(n, 1, seed),
            b8: generators::dense_batch(n, 8, seed),
            y: vec![0.0; n],
            c1: Dense::zeros(n, 1),
            c8: Dense::zeros(n, 8),
            serial: Executor::serial(),
            auto: Executor::auto(),
            want_y: Vec::new(),
            want_c1: Dense::zeros(0, 0),
            want_c8: Dense::zeros(0, 0),
            graph: None,
            corner: None,
            csr,
            bcsr,
            smash,
            x,
        }
    }
}

impl Workload for Blocky {
    fn ops(&self) -> [OpDef; OPS] {
        let op = |what, per_round| OpDef { what, per_round };
        [
            op("serial CSR SpMV", 1),
            op("serial BCSR 2x2 SpMV", 1),
            op("serial SMASH [2,4] SpMV", 1),
            op("serial SMASH spmm_dense, 1 RHS", 1),
            op("serial SMASH spmm_dense, 8 RHS", 1),
        ]
    }

    fn prepare_oracles(&mut self) {
        let n = self.csr.rows();
        self.want_y = vec![0.0; n];
        self.serial.spmv(&self.csr, &self.x, &mut self.want_y);
        self.want_c1 = Dense::zeros(n, 1);
        self.serial
            .spmm_dense(&self.csr, &self.b1, &mut self.want_c1);
        self.want_c8 = Dense::zeros(n, 8);
        self.serial
            .spmm_dense(&self.csr, &self.b8, &mut self.want_c8);
    }

    fn run(
        &mut self,
        op: usize,
        sampler: &mut Sampler,
        into: &mut Samples,
        t: &mut Tracer,
        checks: &mut Checks,
    ) {
        let (serial, x) = (&self.serial, &self.x);
        match op {
            0..=2 => {
                let y = &mut self.y;
                let (name, a): (&'static str, smash_kernels::SpmvOperand<'_, f64>) = match op {
                    0 => ("spmv_csr", (&self.csr).into()),
                    1 => ("spmv_bcsr", (&self.bcsr).into()),
                    _ => ("spmv_smash", (&self.smash).into()),
                };
                let calls = if op == 0 { CSR_CALLS } else { 1 };
                sampler.sample(into, calls, || {
                    t.begin(name);
                    for _ in 0..calls {
                        t.call(Layer::Kernels, "Executor::spmv", || serial.spmv(a, x, y));
                    }
                    t.end();
                });
                if op == 0 {
                    checks.check(bitwise(&self.y, &self.want_y), || {
                        "CSR SpMV changed between calls".into()
                    });
                } else {
                    checks.check(close(&self.y, &self.want_y), || {
                        format!("{name} differs from CSR beyond tolerance")
                    });
                }
                if op == 2 && into.len().is_multiple_of(AUTO_CHECK_EVERY) {
                    let mut auto_y = vec![0.0; self.y.len()];
                    self.auto.spmv(&self.smash, &self.x, &mut auto_y);
                    checks.check(bitwise(&auto_y, &self.y), || {
                        "Auto SMASH SpMV differs from serial".into()
                    });
                }
            }
            3 => {
                let (b, c, a) = (&self.b1, &mut self.c1, &self.smash);
                sampler.sample(into, 1, || {
                    t.begin("spmm1_smash");
                    t.call(Layer::Kernels, "Executor::spmm_dense", || {
                        serial.spmm_dense(a, b, c)
                    });
                    t.end();
                });
                checks.check(close(self.c1.as_slice(), self.want_c1.as_slice()), || {
                    "SMASH spmm_dense (1 RHS) differs from CSR".into()
                });
            }
            _ => {
                let (b, c, a) = (&self.b8, &mut self.c8, &self.smash);
                sampler.sample(into, 1, || {
                    t.begin("spmm8_smash");
                    t.call(Layer::Kernels, "Executor::spmm_dense", || {
                        serial.spmm_dense(a, b, c)
                    });
                    t.end();
                });
                checks.check(close(self.c8.as_slice(), self.want_c8.as_slice()), || {
                    "SMASH spmm_dense (8 RHS) differs from CSR".into()
                });
                if into.len().is_multiple_of(AUTO_CHECK_EVERY) {
                    let mut auto_c = Dense::zeros(self.c8.rows(), 8);
                    self.auto.spmm_dense(&self.smash, &self.b8, &mut auto_c);
                    checks.check(auto_c == self.c8, || {
                        "Auto SMASH spmm_dense differs from serial".into()
                    });
                }
            }
        }
    }

    fn bytes_per_nnz(&self) -> f64 {
        self.smash.storage_bytes() as f64 / self.smash.nnz() as f64
    }

    fn shape(&self) -> Vec<(&'static str, f64)> {
        let max_row = (0..self.csr.rows())
            .map(|i| self.csr.row_nnz(i))
            .max()
            .unwrap_or(0);
        vec![
            ("rows", self.csr.rows() as f64),
            ("nnz", self.csr.nnz() as f64),
            ("block_fill", locality::locality_of_sparsity(&self.csr, 8)),
            ("max_degree", max_row as f64),
            ("flops", stored_work(&self.csr, &self.csr) as f64),
        ]
    }

    fn probe_inputs(&mut self) -> ProbeInputs<'_> {
        let csr = &self.csr;
        // A·A of the whole matrix would hold ~59M non-zeros; the SpGEMM
        // probes square its leading quarter-by-quarter corner instead.
        let corner = self
            .corner
            .get_or_insert_with(|| leading_corner(csr, csr.rows() / 4));
        let graph = self.graph.get_or_insert_with(|| {
            let edges: Vec<(u32, u32)> = csr.iter().map(|(r, c, _)| (r as u32, c as u32)).collect();
            Graph::from_edges(csr.rows(), &edges)
        });
        ProbeInputs {
            csr,
            smash: csr,
            spgemm: corner,
            dispatch: vec![csr],
            batched: csr,
            graph,
        }
    }
}
