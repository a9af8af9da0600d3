//! The dispatch planner's three contracts, pinned at the workspace
//! level (see `docs/DISPATCH.md`):
//!
//! 1. **Bit-identity** — executing a [`Plan`] produces exactly the bits
//!    of the explicit kernel the plan names, whichever candidate wins:
//!    the planner decides *which* kernel runs, never *what* it computes.
//! 2. **Legacy pin** — with an empty (or non-matching) calibration
//!    table, dispatch reproduces the pre-planner threshold rule
//!    (`AUTO_PARALLEL_NNZ` / `AUTO_MIN_ROWS_PER_THREAD`) exactly, for
//!    every op.
//! 3. **Zoo agreement** — on its own calibration matrices the built-in
//!    planner picks the candidate its table measured fastest.

use proptest::prelude::*;
use smash::encoding::{SmashConfig, SmashMatrix};
use smash::kernels::executor::{AUTO_MIN_ROWS_PER_THREAD, AUTO_PARALLEL_NNZ};
use smash::kernels::planner::{Choice, Format, Op, PlanRequest, Planner};
use smash::kernels::{Executor, MatrixProfile};
use smash::matrix::{generators, spmm_dense_rows, spmv_rows, Bcsr, Csr, Dense};
use smash::parallel::{par_spmm_dense_rows, par_spmv_rows, ThreadPool};
use smash_bench::zoo;

fn smash_cfg() -> SmashConfig {
    SmashConfig::row_major(&[2, 4]).expect("valid ratios")
}

/// Runs the explicit SpMV kernel a [`Choice`] names, serial or pooled.
fn run_choice_spmv(choice: &Choice, a: &Csr<f64>, x: &[f64], y: &mut [f64]) {
    match (choice.format, choice.threads) {
        (Format::Csr, 1) => spmv_rows(a, x, y),
        (Format::Csr, t) => par_spmv_rows(&ThreadPool::new(t), a, x, y),
        (Format::Bcsr, t) => {
            let b = Bcsr::from_csr(a, 2, 2).expect("2x2 blocking");
            if t == 1 {
                spmv_rows(&b, x, y)
            } else {
                par_spmv_rows(&ThreadPool::new(t), &b, x, y)
            }
        }
        (Format::Smash, t) => {
            let sm = SmashMatrix::encode(a, smash_cfg());
            if t == 1 {
                spmv_rows(&sm, x, y)
            } else {
                par_spmv_rows(&ThreadPool::new(t), &sm, x, y)
            }
        }
        (Format::Dynamic, _) => unreachable!("CSR-pinned plans never choose dynamic"),
    }
}

fn arb_matrix() -> impl Strategy<Value = Csr<f64>> {
    (2usize..96, 2usize..96, 0usize..600, 0u64..1000)
        .prop_map(|(r, c, nnz, seed)| generators::uniform(r, c, nnz.min(r * c / 2), seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Contract 1 via the executor: whatever `Auto` plans for this host,
    /// its output equals the explicit kernel the plan names — exact
    /// `==`, not tolerance.
    #[test]
    fn auto_spmv_is_bit_identical_to_the_planned_kernel(a in arb_matrix()) {
        let exec = Executor::auto();
        let x: Vec<f64> = (0..a.cols()).map(|j| 0.25 + (j % 7) as f64).collect();

        let plan = exec.plan_spmv(&a);
        let mut auto_y = vec![f64::NAN; a.rows()];
        exec.spmv(&a, &x, &mut auto_y);
        // The executor pins the operand's format, so the plan stays CSR.
        prop_assert_eq!(plan.choice.format, Format::Csr);
        let mut explicit = vec![0.0f64; a.rows()];
        run_choice_spmv(&plan.choice, &a, &x, &mut explicit);
        prop_assert_eq!(&auto_y, &explicit, "{}", plan.rationale());
    }

    /// Contract 1 under a *forced parallel* plan: a synthetic table that
    /// measures parallel CSR as fastest must change the dispatch, and
    /// still not change one bit of the result.
    #[test]
    fn forced_parallel_plans_do_not_change_results(a in arb_matrix()) {
        let profile = MatrixProfile::of_csr(&a);
        // Calibrate a one-matrix table on the operand's own profile, with
        // parallel x2 measured 100x faster than serial.
        let mut table = zoo::matrix_line("self", &profile.clone().with_block_fill(&a));
        table.push('\n');
        table.push_str(&zoo::row_line(
            "self",
            &zoo::Candidate { op: Op::Spmv, format: Format::Csr, threads: 1, tile: 1 },
            1.0,
            100.0,
        ));
        table.push('\n');
        table.push_str(&zoo::row_line(
            "self",
            &zoo::Candidate { op: Op::Spmv, format: Format::Csr, threads: 2, tile: 1 },
            1.0,
            1.0,
        ));
        let planner = Planner::from_table(&table).expect("synthetic table parses");

        let plan = planner.plan(&profile, &PlanRequest::pinned(Op::Spmv, Format::Csr, 2));
        prop_assert!(plan.calibrated, "{}", plan.rationale());
        prop_assert_eq!(plan.choice.threads, 2, "{}", plan.rationale());

        let x: Vec<f64> = (0..a.cols()).map(|j| 1.0 / (1.0 + j as f64)).collect();
        let mut serial = vec![0.0f64; a.rows()];
        spmv_rows(&a, &x, &mut serial);
        let mut planned = vec![f64::NAN; a.rows()];
        run_choice_spmv(&plan.choice, &a, &x, &mut planned);
        prop_assert_eq!(&planned, &serial);
    }

    /// Contract 1 for the batched entry point: `Auto` SpMM output equals
    /// the explicit serial kernel of the planned format.
    #[test]
    fn auto_spmm_dense_is_bit_identical_to_the_planned_kernel(
        a in arb_matrix(),
        rhs in 1usize..12,
    ) {
        let exec = Executor::auto();
        let b = generators::dense_batch(a.cols(), rhs, 9);
        let plan = exec.plan_spmm_dense(&a, rhs);
        let mut auto_c = Dense::zeros(a.rows(), rhs);
        exec.spmm_dense(&a, &b, &mut auto_c);

        let mut explicit = Dense::zeros(a.rows(), rhs);
        match plan.choice.threads {
            1 => spmm_dense_rows(&a, &b, &mut explicit),
            t => par_spmm_dense_rows(&ThreadPool::new(t), &a, &b, &mut explicit),
        }
        prop_assert_eq!(&auto_c, &explicit, "{}", plan.rationale());
    }
}

/// Contract 2: the empty planner *is* the legacy threshold rule, for
/// every op, across the boundary cases of both constants.
#[test]
fn empty_table_reproduces_the_threshold_dispatch_exactly() {
    let planner = Planner::empty();
    let grid: &[(usize, usize, usize)] = &[
        // (rows, stored_work, threads)
        (1, 1, 1),
        (4096, 1 << 20, 1),
        (16, AUTO_PARALLEL_NNZ - 1, 4),
        (16, AUTO_PARALLEL_NNZ, 4),
        (AUTO_MIN_ROWS_PER_THREAD * 4 - 1, 1 << 20, 4),
        (AUTO_MIN_ROWS_PER_THREAD * 4, 1 << 20, 4),
        (AUTO_MIN_ROWS_PER_THREAD * 2, 1 << 20, 2),
        (8192, 1, 8),
    ];
    for &(rows, work, threads) in grid {
        let mut profile = MatrixProfile::from_row_lengths(
            rows,
            64,
            work.min(rows * 64),
            work,
            (0..rows).map(|_| 1),
        );
        profile.rows = rows;
        profile.stored_work = work;

        let legacy = |total_work: usize| {
            threads > 1
                && total_work >= AUTO_PARALLEL_NNZ
                && rows >= AUTO_MIN_ROWS_PER_THREAD * threads
        };

        // SpMV weighs the operand's own work.
        let plan = planner.plan(
            &profile,
            &PlanRequest::pinned(Op::Spmv, Format::Csr, threads),
        );
        assert!(!plan.calibrated);
        assert!(plan.score.is_nan(), "fallback predicts nothing");
        assert_eq!(
            plan.choice.parallel(),
            legacy(work),
            "spmv rows={rows} work={work} threads={threads}: {}",
            plan.rationale()
        );
        // Batched SpMM scales stored work by the RHS width: a matrix too
        // small to parallelize one SpMV goes wide with enough columns.
        for rhs in [1usize, 4, 64] {
            let plan = planner.plan(
                &profile,
                &PlanRequest::pinned(Op::SpmmDense, Format::Csr, threads).with_rhs(rhs),
            );
            assert_eq!(
                plan.choice.parallel(),
                legacy(work.saturating_mul(rhs)),
                "spmm_dense rhs={rhs}: {}",
                plan.rationale()
            );
        }
        // SpGEMM weighs the symbolic flop count, not the operand nnz.
        for flops in [1u64, (AUTO_PARALLEL_NNZ as u64) * 4] {
            let plan = planner.plan(
                &profile,
                &PlanRequest::pinned(Op::Spgemm, Format::Csr, threads).with_work(flops),
            );
            assert_eq!(
                plan.choice.parallel(),
                legacy(flops as usize),
                "spgemm flops={flops}: {}",
                plan.rationale()
            );
        }
    }
}

/// Contract 3: for every zoo matrix, the built-in planner matches the
/// matrix to itself (distance ~0) and picks exactly the candidate its
/// calibration table measured fastest.
#[test]
fn built_in_planner_picks_the_tables_own_fastest_row() {
    let planner = Planner::built_in();
    assert!(planner.is_calibrated());
    let table = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/kernels/src/planner_calibration.tsv"
    ))
    .expect("checked-in calibration table");

    let threads = 4usize;
    let mut checked = 0usize;
    for z in zoo::planner_zoo() {
        // The live generator's profile must still match the checked-in
        // one closely enough to be its nearest neighbor.
        let live = z.profile();
        let pinned = planner.zoo_profile(z.name).expect("zoo name in table");
        assert!(
            live.distance(pinned) < 0.05,
            "{}: live profile drifted from the table",
            z.name
        );

        for op in [Op::Spmv, Op::SpmmDense, Op::Spgemm] {
            // Measured winner straight from the table text: the row with
            // the lowest ns/work among candidates eligible at 4 workers.
            let winner = table
                .lines()
                .filter(|l| l.starts_with(&format!("row {} op={op} ", z.name)))
                .map(|l| {
                    let field = |k: &str| {
                        l.split_whitespace()
                            .find_map(|p| p.strip_prefix(&format!("{k}=")))
                            .unwrap_or_else(|| panic!("{l}: missing {k}"))
                            .to_string()
                    };
                    let ns: f64 = field("ns").parse().unwrap();
                    let work: f64 = field("work").parse().unwrap();
                    (
                        field("format"),
                        field("threads").parse::<usize>().unwrap(),
                        ns / work,
                    )
                })
                .filter(|(_, t, _)| *t <= threads)
                .min_by(|a, b| a.2.total_cmp(&b.2))
                .expect("table covers every (zoo, op)");

            let req = match op {
                Op::SpmmDense => PlanRequest::free(op, threads).with_rhs(zoo::CALIBRATION_RHS),
                _ => PlanRequest::free(op, threads),
            };
            let plan = planner.plan(&live, &req);
            assert!(plan.calibrated, "{}/{op}: {}", z.name, plan.rationale());
            assert!(
                plan.rationale().contains(z.name),
                "{}/{op} matched a different zoo matrix: {}",
                z.name,
                plan.rationale()
            );
            assert_eq!(
                (plan.choice.format.name().to_string(), plan.choice.threads),
                (winner.0, winner.1),
                "{}/{op}: planner disagrees with its own table: {}",
                z.name,
                plan.rationale()
            );
            // Determinism: planning twice gives the same answer.
            let again = planner.plan(&live, &req);
            assert_eq!(plan.choice, again.choice);
            checked += 1;
        }
    }
    assert_eq!(checked, zoo::planner_zoo().len() * 3);
}
