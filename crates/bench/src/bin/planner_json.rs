//! Machine-readable validation snapshot for the dispatch planner.
//!
//! Writes `BENCH_planner.json` (path overridable as the first CLI
//! argument): for every zoo matrix it measures **all** SpMV candidates
//! (format × threads), asks the checked-in planner for its plan, and
//! records prediction vs. measurement. The process exits non-zero if
//! any of the planner's contracts fail on this host:
//!
//! * **Tolerance band** — the planner-chosen `(format, kernel, threads)`
//!   must measure within [`TOLERANCE`]× of the measured winner on every
//!   zoo matrix (the checked-in table was measured on another host, so
//!   exact agreement is asserted only for the self-calibrated check
//!   below).
//! * **Self-consistency** — a planner calibrated on *this run's*
//!   measurements must pick exactly the measured winner for every zoo
//!   matrix: the scoring logic itself is host-independent.
//! * **Bit-identity** — `Auto` dispatch through the planner returns
//!   bits identical to the explicit serial kernel of the format it
//!   selected; a plan never trades accuracy for speed.

use smash_bench::zoo::{self, Candidate};
use smash_core::{SmashConfig, SmashMatrix};
use smash_kernels::planner::{Format, Op, PlanRequest, Planner};
use smash_kernels::{Executor, SpmvOperand};
use smash_matrix::{spmv_rows, Bcsr};
use smash_parallel::{par_spmv_rows, ThreadPool};

/// Accepted slowdown of the planner's choice vs. the measured winner.
/// Covers cross-host drift: the checked-in table ships serial/parallel
/// ratios from the calibration host, and CI runners have different core
/// counts.
const TOLERANCE: f64 = 2.5;

/// Worker budget the plans are requested at (the calibration grid max).
const THREADS: usize = 4;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_planner.json".into());
    let planner = Planner::built_in();
    assert!(
        planner.is_calibrated(),
        "built-in calibration table is empty — regenerate it"
    );
    let exec = Executor::auto();
    let cfg = SmashConfig::row_major(&[2, 4]).expect("valid ratios");

    let spmv_grid: Vec<Candidate> = zoo::candidates()
        .into_iter()
        .filter(|c| c.op == Op::Spmv)
        .collect();

    let mut rows_json = Vec::new();
    let mut exact_agreements = 0usize;
    let zoo_set = zoo::planner_zoo();
    for z in &zoo_set {
        let a = &z.matrix;
        let profile = z.profile();
        let bcsr = Bcsr::from_csr(a, 2, 2).expect("2x2 blocking");
        let sm = SmashMatrix::encode(a, cfg.clone());
        let operand = |format| -> SpmvOperand<'_, f64> {
            match format {
                Format::Csr => a.into(),
                Format::Bcsr => (&bcsr).into(),
                Format::Smash => (&sm).into(),
                Format::Dynamic => unreachable!("the candidate grid has no dynamic rows"),
            }
        };
        let x = vec![0.5f64; a.cols()];
        let mut y = vec![0.0f64; a.rows()];
        let nnz = a.nnz().max(1);
        let reps = (2_000_000 / nnz).clamp(1, 50);

        // Measure every candidate.
        let mut measured: Vec<(Candidate, f64)> = Vec::new();
        for c in &spmv_grid {
            let r = operand(c.format).row_read();
            let ns = match c.threads {
                1 => zoo::time_ns(5, reps, || {
                    spmv_rows(r, &x, &mut y);
                    y.len()
                }),
                t => {
                    let p = ThreadPool::new(t);
                    zoo::time_ns(5, reps, || {
                        par_spmv_rows(&p, r, &x, &mut y);
                        y.len()
                    })
                }
            };
            measured.push((*c, ns));
        }
        let (best, best_ns) = measured
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, ns)| (*c, *ns))
            .expect("non-empty grid");

        // The checked-in planner's free-format choice.
        let plan = planner.plan(&profile, &PlanRequest::free(Op::Spmv, THREADS));
        let chosen_ns = measured
            .iter()
            .find(|(c, _)| c.format == plan.choice.format && c.threads == plan.choice.threads)
            .map(|(_, ns)| *ns)
            .expect("plan must name a calibrated candidate");
        let ratio = chosen_ns / best_ns;
        let exact = plan.choice.format == best.format && plan.choice.threads == best.threads;
        exact_agreements += exact as usize;
        assert!(
            ratio <= TOLERANCE,
            "{}: planner chose {} ({chosen_ns:.0} ns) but measured winner is \
             {} x{} ({best_ns:.0} ns) — {ratio:.2}x exceeds the {TOLERANCE}x band\n{}",
            z.name,
            plan.choice,
            best.format,
            best.threads,
            plan
        );

        // Self-consistency: a planner calibrated on THIS run's numbers
        // must pick the measured winner exactly.
        let mut table = String::from("# self-calibrated\n");
        table.push_str(&zoo::matrix_line(z.name, &profile));
        table.push('\n');
        for (c, ns) in &measured {
            table.push_str(&zoo::row_line(z.name, c, nnz as f64, *ns));
            table.push('\n');
        }
        let fresh = Planner::from_table(&table).expect("self table parses");
        let self_plan = fresh.plan(&profile, &PlanRequest::free(Op::Spmv, THREADS));
        assert!(
            self_plan.choice.format == best.format && self_plan.choice.threads == best.threads,
            "{}: self-calibrated planner chose {} but the measured winner is {} x{}",
            z.name,
            self_plan.choice,
            best.format,
            best.threads
        );

        // Bit-identity: Auto dispatch equals the explicit serial kernel
        // of the format the plan selected.
        let mut auto_y = vec![f64::NAN; a.rows()];
        let mut explicit = vec![0.0f64; a.rows()];
        let chosen = operand(plan.choice.format);
        exec.spmv(chosen, &x, &mut auto_y);
        spmv_rows(chosen.row_read(), &x, &mut explicit);
        assert_eq!(
            auto_y, explicit,
            "{}: Auto dispatch diverged from the explicit kernel",
            z.name
        );

        let measured_json: Vec<String> = measured
            .iter()
            .map(|(c, ns)| {
                format!(
                    "{{\"format\": \"{}\", \"threads\": {}, \"ns\": {ns:.0}}}",
                    c.format, c.threads
                )
            })
            .collect();
        rows_json.push(format!(
            "    {{\"matrix\": \"{}\", \"nnz\": {}, \"fill8\": {:.3}, \
             \"planned\": \"{}\", \"predicted_ns\": {:.0}, \"calibrated\": {}, \
             \"winner\": \"{} x{}\", \"winner_ns\": {best_ns:.0}, \
             \"chosen_ns\": {chosen_ns:.0}, \"ratio_to_winner\": {ratio:.2}, \
             \"exact_agreement\": {exact},\n      \"measured\": [{}]}}",
            z.name,
            a.nnz(),
            profile.block_fill.unwrap_or(0.0),
            plan.choice,
            plan.score,
            plan.calibrated,
            best.format,
            best.threads,
            measured_json.join(", ")
        ));
    }

    let json = format!(
        "{{\n  \"workload\": \"free-format SpMV planning over the zoo\",\n  \
         \"tolerance_band\": {TOLERANCE},\n  \
         \"exact_agreement\": \"{exact_agreements}/{}\",\n  \"zoo\": [\n{}\n  ]\n}}\n",
        zoo_set.len(),
        rows_json.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("wrote {out_path}");
}
