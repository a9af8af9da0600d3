//! Golden rationale text. A [`Plan`](smash::kernels::planner::Plan)
//! keeps the inputs of its explanation and renders the text only on
//! request; this suite pins the rendered text, byte for byte, for every
//! shape of plan: calibrated with and without a runner-up, each
//! threshold-tier reason and rule, the fixed executor modes, the
//! encoder, a degraded `try_*` report, and a calibration table measured
//! under another SIMD tier.
//!
//! The expected strings spell the active SIMD tier as `{simd}`, so they
//! hold on every host. Profiles are struct literals, not generated, so
//! no generator change can move them.

use smash::encoding::SmashConfig;
use smash::kernels::planner::{Format, MatrixProfile, Op, PlanRequest, Planner};
use smash::matrix::generators;
use smash::matrix::simd::{self, Isa};
use smash::{Executor, MemoryBudget};
use std::sync::Mutex;

/// Serializes this file's tests: one of them overrides the process-wide
/// SIMD tier, which every other expected string names.
static SIMD_LOCK: Mutex<()> = Mutex::new(());

const TABLE: &str = "\
matrix small rows=64 cols=64 nnz=512 row_mean=8.0 row_cv=0.2 row_max=12 fill8=0.4
matrix big rows=4096 cols=4096 nnz=400000 row_mean=97.6 row_cv=0.5 row_max=300 fill8=0.6
row small op=spmv format=csr threads=1 tile=1 work=512 ns=600
row small op=spmv format=csr threads=4 tile=1 work=512 ns=9000
row big op=spmv format=csr threads=1 tile=1 work=400000 ns=800000
row big op=spmv format=csr threads=4 tile=1 work=400000 ns=260000
row big op=spmv format=smash threads=1 tile=1 work=400000 ns=500000
";

fn profile(
    (rows, cols, nnz): (usize, usize, usize),
    (row_mean, row_cv, row_max): (f64, f64, usize),
    block_fill: Option<f64>,
) -> MatrixProfile {
    MatrixProfile {
        rows,
        cols,
        nnz,
        stored_work: nnz,
        row_mean,
        row_cv,
        row_max,
        block_fill,
    }
}

fn big() -> MatrixProfile {
    profile((4096, 4096, 380_000), (92.77, 0.1, 130), Some(0.58))
}

fn small() -> MatrixProfile {
    profile((64, 64, 500), (7.8125, 0.35, 14), Some(0.38))
}

/// Two rows, no block fill: nothing in the zoo resembles it.
fn far() -> MatrixProfile {
    profile((2, 40_000, 40_000), (20_000.0, 0.0, 20_000), None)
}

/// `want` with `{simd}` spelled as the active tier.
fn expect(want: &str) -> String {
    want.replace("{simd}", simd::active().name())
}

#[test]
fn planner_rationales_render_the_golden_text() {
    let _guard = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let table = Planner::from_table(TABLE).expect("test table parses");
    let foreign = Planner::from_table(&format!("meta isa=avx512\n{TABLE}")).expect("parses");
    let empty = Planner::empty();
    let spmv = |format, threads| PlanRequest::pinned(Op::Spmv, format, threads);
    let cases = [
        (
            "calibrated, runner-up of another format",
            table.plan(&big(), &PlanRequest::free(Op::Spmv, 4)),
            "spmv over 4096x4096 nnz 380000 (moderate, rows \u{3bc} 92.8 cv 0.10 max 130, fill@8 0.58):\n  calibrated against 'big' (feature distance 0.20)\n  -> csr parallel x4: predicted 247.0 us\n  runner-up smash serial: predicted 475.0 us (1.92x slower)\n  simd: {simd}",
        ),
        (
            "calibrated, runner-up of the pinned format",
            table.plan(&big(), &spmv(Format::Csr, 4)),
            "spmv over 4096x4096 nnz 380000 (moderate, rows \u{3bc} 92.8 cv 0.10 max 130, fill@8 0.58):\n  calibrated against 'big' (feature distance 0.20)\n  -> csr parallel x4: predicted 247.0 us\n  runner-up csr serial: predicted 760.0 us (3.08x slower)\n  simd: {simd}",
        ),
        (
            "calibrated, no runner-up",
            table.plan(&small(), &spmv(Format::Csr, 1)),
            "spmv over 64x64 nnz 500 (dense, rows \u{3bc} 7.8 cv 0.35 max 14, fill@8 0.38):\n  calibrated against 'small' (feature distance 0.06)\n  -> csr serial: predicted 586 ns\n  simd: {simd}",
        ),
        (
            "threshold: empty table, wide",
            empty.plan(&big(), &spmv(Format::Csr, 4)),
            "spmv over 4096x4096 nnz 380000 (moderate, rows \u{3bc} 92.8 cv 0.10 max 130, fill@8 0.58):\n  threshold tier (calibration table is empty)\n  -> work 380000 >= 16384 and rows 4096 >= 16 -> parallel x4\n  simd: {simd}",
        ),
        (
            "threshold: empty table, single worker",
            empty.plan(&far(), &spmv(Format::Csr, 1)),
            "spmv over 2x40000 nnz 40000 (dense, rows \u{3bc} 20000.0 cv 0.00 max 20000):\n  threshold tier (calibration table is empty)\n  -> single worker -> serial\n  simd: {simd}",
        ),
        (
            "threshold: no zoo match, too few rows per worker",
            table.plan(&far(), &spmv(Format::Csr, 4)),
            "spmv over 2x40000 nnz 40000 (dense, rows \u{3bc} 20000.0 cv 0.00 max 20000):\n  threshold tier (no zoo match (nearest 'small' at distance 1.50 > 1.25))\n  -> rows 2 < 16 (4 per worker x 4) -> serial\n  simd: {simd}",
        ),
        (
            "threshold: no rows for the op on a pinned format",
            table.plan(&big(), &spmv(Format::Dynamic, 4)),
            "spmv over 4096x4096 nnz 380000 (moderate, rows \u{3bc} 92.8 cv 0.10 max 130, fill@8 0.58):\n  threshold tier (no calibration rows for spmv on dynamic)\n  -> work 380000 >= 16384 and rows 4096 >= 16 -> parallel x4\n  simd: {simd}",
        ),
        (
            "threshold: no rows on a pinned format, small work",
            table.plan(
                &small(),
                &PlanRequest::pinned(Op::SpmmDense, Format::Csr, 4).with_rhs(8),
            ),
            "spmm_dense over 64x64 nnz 500 (dense, rows \u{3bc} 7.8 cv 0.35 max 14, fill@8 0.38):\n  threshold tier (no calibration rows for spmm_dense on csr)\n  -> work 4000 < 16384 -> serial\n  simd: {simd}",
        ),
        (
            "threshold: no rows for the op",
            table.plan(
                &big(),
                &PlanRequest::free(Op::Spgemm, 4).with_work(1_000_000),
            ),
            "spgemm over 4096x4096 nnz 380000 (moderate, rows \u{3bc} 92.8 cv 0.10 max 130, fill@8 0.58):\n  threshold tier (no calibration rows for op spgemm)\n  -> work 1000000 >= 16384 and rows 4096 >= 16 -> parallel x4\n  simd: {simd}",
        ),
        (
            "table measured under another tier, calibrated",
            foreign.plan(&big(), &PlanRequest::free(Op::Spmv, 4)),
            "spmv over 4096x4096 nnz 380000 (moderate, rows \u{3bc} 92.8 cv 0.10 max 130, fill@8 0.58):\n  calibrated against 'big' (feature distance 0.20)\n  -> csr parallel x4: predicted 247.0 us\n  runner-up smash serial: predicted 475.0 us (1.92x slower)\n  simd: {simd} (calibration table measured under avx512)",
        ),
        (
            "table measured under another tier, threshold",
            foreign.plan(&far(), &spmv(Format::Csr, 4)),
            "spmv over 2x40000 nnz 40000 (dense, rows \u{3bc} 20000.0 cv 0.00 max 20000):\n  threshold tier (no zoo match (nearest 'small' at distance 1.50 > 1.25))\n  -> rows 2 < 16 (4 per worker x 4) -> serial\n  simd: {simd} (calibration table measured under avx512)",
        ),
    ];
    for (what, plan, want) in cases {
        assert_eq!(plan.rationale(), expect(want), "{what}");
        assert_eq!(plan.to_string(), plan.rationale(), "{what}");
    }
}

#[test]
fn fixed_modes_encode_and_degraded_reports_render_the_golden_text() {
    let _guard = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let a = generators::uniform(8, 8, 10, 1);
    assert_eq!(
        Executor::serial().plan_spmv(&a).rationale(),
        "fixed Serial mode: not profiled"
    );
    assert_eq!(
        Executor::with_threads(2).plan_spmv(&a).rationale(),
        "fixed Parallel mode: not profiled"
    );
    let cfg = SmashConfig::row_major(&[2, 4]).expect("valid ratios");
    let (_, report) = Executor::serial().try_encode(&a, cfg).expect("clean input");
    assert_eq!(
        report.to_string(),
        "encode: the serial encoder; not profiled"
    );
    assert_eq!(report.plan.rationale(), report.to_string());

    // A degraded report renders its plan, then each rung descended.
    let p = generators::power_law(128, 128, 3_000, 1.3, 5);
    let (_, report) = Executor::serial()
        .with_budget(MemoryBudget::degrade_over(64 * 1024))
        .try_spgemm(&p, &p)
        .expect("degrades instead of failing");
    assert_eq!(
        report.to_string(),
        "fixed Serial mode: not profiled; degraded: over budget, ran as 16 serial chunks \
         (peak scratch 64944 of 65536 bytes)"
    );
    assert_eq!(report.plan.rationale(), "fixed Serial mode: not profiled");
}

#[test]
fn a_plan_names_the_simd_tier_it_was_made_under() {
    let _guard = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let table = Planner::from_table(TABLE).expect("test table parses");
    simd::set_override(Some(Isa::Scalar));
    let plan = table.plan(&small(), &PlanRequest::pinned(Op::Spmv, Format::Csr, 1));
    simd::set_override(None);
    let text = plan.rationale();
    assert!(text.ends_with("\n  simd: scalar"), "{text}");
    // The tier active at render time does not leak into the text.
    if simd::detected() != Isa::Scalar {
        assert!(!text.contains(simd::detected().name()), "{text}");
    }
}
