//! Per-layer probes: isolated calls to each layer's public entry points
//! on the workload's own operands, timed from outside the library, plus
//! exact structural counts.

use crate::blocky::smash_config;
use crate::evolving::{DAMPING, EDGES_PER_EPOCH, MAX_ITERS, TOL};
use crate::harness::{median, Sampler, Samples};
use crate::metrics::Report;
use crate::workload::Rng;
use smash_core::SmashMatrix;
use smash_graph::{Graph, IncrementalPageRank};
use smash_kernels::spgemm::{symbolic_bounds, use_dense_accumulator};
use smash_kernels::{Executor, MatrixProfile};
use smash_matrix::{generators, spmm_dense_rows, spmv_rows, Bcsr, Csr, CsrBuilder, Dense};
use smash_parallel::{par_spmv_rows, partition_by_weight, ThreadPool};
use std::hint::black_box;

/// The operands a workload hands to the probes.
pub struct ProbeInputs<'a> {
    /// Main operand of the matrix, dispatch and parallel probes.
    pub csr: &'a Csr<f64>,
    /// Operand encoded as SMASH `[2,4]` for the SMASH-backed probes.
    pub smash: &'a Csr<f64>,
    /// Operand squared by the SpGEMM probes.
    pub spgemm: &'a Csr<f64>,
    /// Operands the dispatch probes plan and run through `Auto`.
    pub dispatch: Vec<&'a Csr<f64>>,
    /// Operand planned at 8 right-hand sides.
    pub batched: &'a Csr<f64>,
    /// Graph of the graph-layer and overlay probes.
    pub graph: &'a Graph<f64>,
}

/// Warm epochs run by the overlay probes.
const PROBE_EPOCHS: usize = 4;

/// Runs every probe, giving each timed one about `budget_s` seconds and
/// at least `min` samples, and records the per-layer metrics.
pub fn probe_all(
    inp: &ProbeInputs<'_>,
    s: &mut Sampler,
    budget_s: f64,
    min: usize,
    seed: u64,
    out: &mut Report,
) {
    let a = inp.csr;
    let n = a.rows();
    let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 / (i + 1) as f64).collect();
    let mut y = vec![0.0; n];
    let norm = |v: &Samples| v.norm_median();

    // smash-matrix: the serial row drivers.
    let bcsr = Bcsr::from_csr(a, 2, 2).expect("2x2 blocks tile any matrix");
    let encode = s.repeat(budget_s, min, 1, || {
        SmashMatrix::encode(inp.smash, smash_config())
    });
    let smash = SmashMatrix::encode(inp.smash, smash_config());
    let xs_smash: Vec<f64> = (0..smash.cols()).map(|i| 1.0 / (i + 1) as f64).collect();
    let mut ys_smash = vec![0.0; smash.rows()];
    let rows_csr = s.repeat(budget_s, min, 1, || spmv_rows(a, &x, &mut y));
    out.set("matrix.rows_csr_ref", norm(&rows_csr));
    out.set(
        "matrix.rows_bcsr_ref",
        norm(&s.repeat(budget_s, min, 1, || spmv_rows(&bcsr, &x, &mut y))),
    );
    for (cols, name) in [(1, "matrix.tile_rhs1_ref"), (8, "matrix.tile_rhs8_ref")] {
        let b = generators::dense_batch::<f64>(smash.cols(), cols, seed);
        let mut c = Dense::zeros(smash.rows(), cols);
        let v = s.repeat(budget_s, min, 1, || spmm_dense_rows(&smash, &b, &mut c));
        out.set(name, norm(&v));
    }

    // smash-core: the SMASH index walk alone, against the whole driver.
    let rows_smash = s.repeat(budget_s, min, 1, || {
        spmv_rows(&smash, &xs_smash, &mut ys_smash)
    });
    let walk = s.repeat(budget_s, min, 1, || {
        let mut acc = 0usize;
        for line in 0..smash.line_count() {
            for (ordinal, logical) in smash.line_cursor(line) {
                acc = acc.wrapping_add(ordinal ^ logical);
            }
        }
        black_box(acc)
    });
    out.set("core.cursor_walk_ref", norm(&walk));
    out.set(
        "core.cursor_share",
        median(&walk.raw_ns) / median(&rows_smash.raw_ns),
    );
    out.set("core.stored_blocks", smash.num_blocks() as f64);
    out.set(
        "core.bitmap_words",
        smash.hierarchy().storage_bits().div_ceil(64) as f64,
    );
    out.set(
        "core.useful_lane_frac",
        smash.nnz() as f64 / smash.nza().len().max(1) as f64,
    );
    out.set("core.encode_ref", norm(&encode));

    // smash-core overlay and smash-graph solves, through the
    // incremental engine on the workload's graph.
    let g = inp.graph;
    out.set(
        "graph.transition_build_ref",
        norm(&s.repeat(budget_s, min, 1, || g.transition_matrix())),
    );
    let mut engine = IncrementalPageRank::new(g, DAMPING, TOL, MAX_ITERS);
    let cold_iters = engine.solve().iterations;
    out.set("graph.cold_iters", cold_iters as f64);
    let mut rng = Rng::new(seed, 4);
    let (mut writes, mut warm) = (Samples::default(), Samples::default());
    let (mut warm_iters, mut lens) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_EPOCHS {
        let edges: Vec<(usize, usize)> = (0..EDGES_PER_EPOCH)
            .map(|_| (rng.below(g.vertices()), rng.below(g.vertices())))
            .collect();
        s.sample(&mut writes, 1, || {
            for &(u, v) in &edges {
                engine.add_edge(u, v);
            }
        });
        lens.push(engine.matrix().overlay().len() as f64);
        let it = s.sample(&mut warm, 1, || engine.solve()).iterations;
        warm_iters.push(it as f64);
    }
    let per_iter: Vec<f64> = warm
        .norm
        .iter()
        .zip(&warm_iters)
        .map(|(t, i)| t / i)
        .collect();
    out.set("core.overlay_write_ref", norm(&writes));
    out.set("core.overlay_len", median(&lens));
    out.set("graph.warm_iters", median(&warm_iters));
    out.set("graph.per_iter_ref", median(&per_iter));
    let dynamic = engine.matrix();
    let merged = dynamic.merged_csr();
    let r = engine.ranks().expect("the engine is solved").to_vec();
    let mut yg = vec![0.0; r.len()];
    let over = s.repeat(budget_s, min, 1, || spmv_rows(dynamic, &r, &mut yg));
    let flat = s.repeat(budget_s, min, 1, || spmv_rows(&merged, &r, &mut yg));
    out.set(
        "core.merged_read_ratio",
        median(&over.raw_ns) / median(&flat.raw_ns),
    );

    // smash-kernels: planning, profiling and dispatch overhead of Auto.
    let auto = Executor::auto();
    let ops = &inp.dispatch;
    let calls = ops.len();
    let xs: Vec<Vec<f64>> = ops.iter().map(|m| vec![0.5; m.cols()]).collect();
    let mut ys: Vec<Vec<f64>> = ops.iter().map(|m| vec![0.0; m.rows()]).collect();
    let plan = s.repeat(budget_s, min, calls, || {
        for m in ops {
            black_box(auto.plan_spmv(*m));
        }
    });
    out.set("kernels.plan_ref", norm(&plan));
    let profile = s.repeat(budget_s, min, calls, || {
        for m in ops {
            black_box(MatrixProfile::of_csr(*m));
        }
    });
    out.set("kernels.profile_ref", norm(&profile));
    let via_auto = s.repeat(budget_s, min, calls, || {
        for ((m, x), y) in ops.iter().zip(&xs).zip(ys.iter_mut()) {
            auto.spmv(*m, x, y);
        }
    });
    let direct = s.repeat(budget_s, min, calls, || {
        for ((m, x), y) in ops.iter().zip(&xs).zip(ys.iter_mut()) {
            spmv_rows(*m, x, y);
        }
    });
    let (ta, td) = (median(&via_auto.raw_ns), median(&direct.raw_ns));
    out.set("kernels.dispatch_share", (ta - td) / ta);
    out.set(
        "kernels.planned_threads",
        auto.plan_spmm_dense(inp.batched, 8).choice.threads as f64,
    );
    let sq = inp.spgemm;
    let symbolic = s.repeat(budget_s, min, 1, || symbolic_bounds(sq, sq));
    out.set("kernels.spgemm_symbolic_ref", norm(&symbolic));
    let mut out_nnz = 0;
    let spgemm = s.repeat(budget_s, min.min(3), 1, || {
        out_nnz = auto.spgemm(sq, sq).nnz()
    });
    out.set("kernels.spgemm_ref", norm(&spgemm));
    let (bounds, flops) = symbolic_bounds(sq, sq);
    out.set("kernels.spgemm_flops", flops as f64);
    out.set("kernels.spgemm_out_nnz", out_nnz as f64);
    let dense_rows = bounds
        .iter()
        .filter(|&&ub| ub > 0 && use_dense_accumulator(ub, sq.cols()))
        .count();
    out.set("kernels.dense_acc_rows", dense_rows as f64);

    // smash-parallel: two-thread drivers, pool dispatch, partitioning.
    let pool = ThreadPool::new(2);
    let par_csr = s.repeat(budget_s, min, 1, || par_spmv_rows(&pool, a, &x, &mut y));
    out.set(
        "parallel.par2_csr_speedup",
        median(&rows_csr.raw_ns) / median(&par_csr.raw_ns),
    );
    let par_smash = s.repeat(budget_s, min, 1, || {
        par_spmv_rows(&pool, &smash, &xs_smash, &mut ys_smash)
    });
    out.set(
        "parallel.par2_smash_speedup",
        median(&rows_smash.raw_ns) / median(&par_smash.raw_ns),
    );
    const EMPTY_SCOPES: usize = 100;
    let dispatch = s.repeat(budget_s, min, EMPTY_SCOPES, || {
        for _ in 0..EMPTY_SCOPES {
            pool.scoped(|sc| {
                sc.execute(|| {});
                sc.execute(|| {});
            });
        }
    });
    out.set("parallel.pool_dispatch_us", median(&dispatch.raw_ns) / 1e3);
    let parts = partition_by_weight(n, 2, |i| a.row_nnz(i) as u64);
    let loads: Vec<f64> = parts
        .iter()
        .map(|r| r.clone().map(|i| a.row_nnz(i) as f64).sum())
        .collect();
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    out.set(
        "parallel.partition_imbalance",
        loads.iter().cloned().fold(0.0, f64::max) / mean,
    );
}

/// The leading `k x k` block of `a`.
pub fn leading_corner(a: &Csr<f64>, k: usize) -> Csr<f64> {
    let mut b = CsrBuilder::new(k);
    for i in 0..k {
        let (cols, vals) = a.row(i);
        let keep = cols.partition_point(|&c| (c as usize) < k);
        b.push_row(&cols[..keep], &vals[..keep]);
    }
    b.finish()
}
