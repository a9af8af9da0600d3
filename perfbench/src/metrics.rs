//! The metric registry: every metric the benchmark reports, with its
//! unit. `BENCHMARK.json` declares the same names; `smoke.py` checks
//! that the two agree and that every run emits all of them.

/// End-to-end metrics, reported with tracing off. Every workload
/// reports every one of them; `opN_ref` is the N-th consumer operation
/// of the workload (see `METRICS.md` for the table).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op1_ref", "ref"),
    ("op2_ref", "ref"),
    ("op3_ref", "ref"),
    ("op4_ref", "ref"),
    ("op5_ref", "ref"),
    ("bytes_per_nnz", "B"),
];

/// Number of timed consumer operations per workload.
pub const OPS: usize = 5;

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // smash-matrix
    ("matrix.rows_csr_ref", "ref"),
    ("matrix.rows_bcsr_ref", "ref"),
    ("matrix.tile_rhs1_ref", "ref"),
    ("matrix.tile_rhs8_ref", "ref"),
    // smash-core
    ("core.cursor_walk_ref", "ref"),
    ("core.cursor_share", "ratio"),
    ("core.stored_blocks", "count"),
    ("core.bitmap_words", "count"),
    ("core.useful_lane_frac", "fraction"),
    ("core.encode_ref", "ref"),
    ("core.overlay_write_ref", "ref"),
    ("core.overlay_len", "count"),
    ("core.merged_read_ratio", "ratio"),
    // smash-kernels
    ("kernels.plan_ref", "ref"),
    ("kernels.profile_ref", "ref"),
    ("kernels.dispatch_share", "ratio"),
    ("kernels.planned_threads", "count"),
    ("kernels.spgemm_symbolic_ref", "ref"),
    ("kernels.spgemm_ref", "ref"),
    ("kernels.spgemm_flops", "count"),
    ("kernels.spgemm_out_nnz", "count"),
    ("kernels.dense_acc_rows", "count"),
    // smash-parallel
    ("parallel.par2_csr_speedup", "ratio"),
    ("parallel.par2_smash_speedup", "ratio"),
    ("parallel.pool_dispatch_us", "us"),
    ("parallel.partition_imbalance", "ratio"),
    // smash-graph
    ("graph.transition_build_ref", "ref"),
    ("graph.cold_iters", "count"),
    ("graph.warm_iters", "count"),
    ("graph.per_iter_ref", "ref"),
    // host and harness
    ("host.ref_ms", "ms"),
    ("host.ref_drift", "ratio"),
    ("trace.overhead", "ratio"),
    // raw times behind the end-to-end `_ref` metrics (untraced replay)
    ("op1.raw_ms", "ms"),
    ("op1.tail_ms", "ms"),
    ("op1.tail_pct", "pct"),
    ("op1.samples", "count"),
    ("op2.raw_ms", "ms"),
    ("op2.tail_ms", "ms"),
    ("op2.tail_pct", "pct"),
    ("op2.samples", "count"),
    ("op3.raw_ms", "ms"),
    ("op3.tail_ms", "ms"),
    ("op3.tail_pct", "pct"),
    ("op3.samples", "count"),
    ("op4.raw_ms", "ms"),
    ("op4.tail_ms", "ms"),
    ("op4.tail_pct", "pct"),
    ("op4.samples", "count"),
    ("op5.raw_ms", "ms"),
    ("op5.tail_ms", "ms"),
    ("op5.tail_pct", "pct"),
    ("op5.samples", "count"),
];

/// Collected metric values, emitted in registry order.
#[derive(Default)]
pub struct Report {
    values: Vec<(String, f64)>,
}

impl Report {
    /// Records `name = value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// The `metrics` JSON object for `registry`, or the names that have
    /// no finite value.
    pub fn to_json(&self, registry: &[(&str, &str)]) -> Result<String, Vec<String>> {
        let mut missing = Vec::new();
        let mut parts = Vec::new();
        for &(name, unit) in registry {
            match self.values.iter().find(|(n, _)| n == name) {
                Some(&(_, v)) if v.is_finite() => parts.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )),
                _ => missing.push(name.to_string()),
            }
        }
        if missing.is_empty() {
            Ok(format!("{{{}}}", parts.join(", ")))
        } else {
            Err(missing)
        }
    }
}
