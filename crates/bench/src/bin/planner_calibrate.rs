//! Offline calibrator for the dispatch [`Planner`]: measures every
//! candidate of the grid (`smash_bench::zoo::candidates`) on every zoo
//! matrix and regenerates the checked-in calibration table the planner
//! compiles in (`crates/kernels/src/planner_calibration.tsv`).
//!
//! Usage:
//!
//! * `cargo run --release -p smash-bench --bin planner_calibrate`
//!   — re-measure and rewrite the checked-in table (pass a path as the
//!   first argument to write elsewhere).
//! * `… --bin planner_calibrate -- --check`
//!   — **no timing**: verify the checked-in table is structurally
//!   current — it parses, its zoo profiles match the generators in this
//!   build, and it has exactly one measured row per candidate of the
//!   current grid. A stale table (zoo changed, candidate added, op
//!   renamed) fails with a diff, which is how CI catches a forgotten
//!   regeneration without depending on runner timing noise.

use smash_bench::zoo::{self, Candidate, ZooMatrix, CALIBRATION_RHS};
use smash_core::{SmashConfig, SmashMatrix};
use smash_kernels::planner::{Format, Op, Planner};
use smash_kernels::spgemm;
use smash_matrix::{generators, spmm_dense_rows, spmv_rows, Bcsr, Csr, Dense, RowRead};
use smash_parallel::{par_spmm_dense_rows, par_spmv_rows, ThreadPool};
use std::collections::BTreeSet;

fn default_table_path() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../kernels/src/planner_calibration.tsv"
    )
    .to_string()
}

fn smash_config() -> SmashConfig {
    SmashConfig::row_major(&[2, 4]).expect("valid ratios")
}

/// Runs `f` over `a` held in the candidate's operand format.
fn with_operand<R>(a: &Csr<f64>, format: Format, f: impl FnOnce(&dyn RowRead<f64>) -> R) -> R {
    match format {
        Format::Csr => f(a),
        Format::Bcsr => f(&Bcsr::from_csr(a, 2, 2).expect("2x2 blocking")),
        Format::Smash => f(&SmashMatrix::encode(a, smash_config())),
        Format::Dynamic => unreachable!("the candidate grid has no dynamic rows"),
    }
}

/// Measures one candidate on one zoo matrix; returns `(work, ns)` in
/// the planner's work measure (logical nnz, nnz × RHS, symbolic flops).
fn measure(z: &ZooMatrix, c: &Candidate, pool: impl Fn(usize) -> ThreadPool) -> (f64, f64) {
    let a = &z.matrix;
    let nnz = a.nnz().max(1);
    let reps = (2_000_000 / nnz).clamp(1, 50);
    let samples = 5;
    match c.op {
        Op::Spmv => {
            let x = vec![0.5f64; a.cols()];
            let mut y = vec![0.0f64; a.rows()];
            let ns = with_operand(a, c.format, |r| match c.threads {
                1 => zoo::time_ns(samples, reps, || {
                    spmv_rows(r, &x, &mut y);
                    y.len()
                }),
                t => {
                    let p = pool(t);
                    zoo::time_ns(samples, reps, || {
                        par_spmv_rows(&p, r, &x, &mut y);
                        y.len()
                    })
                }
            });
            (nnz as f64, ns)
        }
        Op::SpmmDense => {
            let b = generators::dense_batch(a.cols(), CALIBRATION_RHS, 5);
            let mut cmat = Dense::zeros(a.rows(), CALIBRATION_RHS);
            let reps = reps.div_ceil(CALIBRATION_RHS).max(1);
            let ns = with_operand(a, c.format, |r| match c.threads {
                1 => zoo::time_ns(samples, reps, || {
                    spmm_dense_rows(r, &b, &mut cmat);
                    cmat.cols()
                }),
                t => {
                    let p = pool(t);
                    zoo::time_ns(samples, reps, || {
                        par_spmm_dense_rows(&p, r, &b, &mut cmat);
                        cmat.cols()
                    })
                }
            });
            ((nnz * CALIBRATION_RHS) as f64, ns)
        }
        Op::Spgemm => {
            // A·A for square members, A·Aᵀ otherwise (the zoo's
            // tall-skinny shape has no conforming self-product).
            let bt;
            let b = if a.rows() == a.cols() {
                a
            } else {
                bt = a.transpose();
                &bt
            };
            let work = spgemm::stored_work(a, b) as f64;
            let ns = if c.threads == 1 {
                zoo::time_ns(3, 1, || spgemm::spgemm(a, b, None).nnz())
            } else {
                let p = pool(c.threads);
                zoo::time_ns(3, 1, || spgemm::par_spgemm(&p, a, b, None).nnz())
            };
            (work.max(1.0), ns)
        }
    }
}

/// The structural (timing-free) skeleton: zoo profile lines plus the
/// `(matrix, op, format, threads, tile)` key of every expected row.
fn structure() -> (Vec<String>, BTreeSet<String>) {
    let mut matrix_lines = Vec::new();
    let mut row_keys = BTreeSet::new();
    for z in planner_zoo_cached() {
        matrix_lines.push(zoo::matrix_line(z.name, &z.profile()));
        for c in zoo::candidates() {
            row_keys.insert(format!(
                "{} {} {} {} {}",
                z.name, c.op, c.format, c.threads, c.tile
            ));
        }
    }
    (matrix_lines, row_keys)
}

fn planner_zoo_cached() -> Vec<ZooMatrix> {
    zoo::planner_zoo()
}

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checked-in table {path}: {e}"))?;
    let parsed = Planner::from_table(&text).map_err(|e| format!("table does not parse: {e}"))?;
    let zoo_set = planner_zoo_cached();

    // Zoo coverage + profile drift.
    let want_names: BTreeSet<&str> = zoo_set.iter().map(|z| z.name).collect();
    let have_names: BTreeSet<&str> = parsed.zoo_names().collect();
    if want_names != have_names {
        return Err(format!(
            "zoo mismatch: table has {have_names:?}, build generates {want_names:?}"
        ));
    }
    for z in &zoo_set {
        let want = z.profile();
        let have = parsed.zoo_profile(z.name).expect("name checked above");
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-4 * (1.0 + a.abs());
        if want.rows != have.rows
            || want.cols != have.cols
            || want.nnz != have.nnz
            || want.row_max != have.row_max
            || !close(want.row_mean, have.row_mean)
            || !close(want.row_cv, have.row_cv)
            || !close(
                want.block_fill.unwrap_or(0.0),
                have.block_fill.unwrap_or(0.0),
            )
        {
            return Err(format!(
                "profile drift for '{}': table says {have:?}, build generates {want:?}",
                z.name
            ));
        }
    }

    // ISA provenance: informational, never fatal. Predicted *ratios*
    // between candidates transfer across SIMD tiers far better than
    // absolute nanoseconds, and CI runners legitimately differ from the
    // machine that measured the table — so a mismatch is reported (and
    // surfaced in every plan rationale) rather than failed.
    let active = smash_matrix::simd::active().name();
    match parsed.table_isa() {
        None => println!(
            "note: table records no `meta isa=` provenance (measured before the SIMD \
             dispatch layer); active tier here is {active}"
        ),
        Some(t) if t != active => println!(
            "note: table was measured under simd tier '{t}' but this host runs '{active}'; \
             plan rationales will flag the mismatch"
        ),
        Some(_) => {}
    }

    // Candidate coverage: exactly one measured row per grid entry.
    let (_, want_rows) = structure();
    let mut have_rows = BTreeSet::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("row ") {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let val = |k: &str| {
            f.iter()
                .find_map(|p| p.strip_prefix(&format!("{k}=")))
                .unwrap_or("?")
        };
        let key = format!(
            "{} {} {} {} {}",
            f[1],
            val("op"),
            val("format"),
            val("threads"),
            val("tile")
        );
        if !have_rows.insert(key.clone()) {
            return Err(format!("duplicate calibration row: {key}"));
        }
    }
    if want_rows != have_rows {
        let missing: Vec<_> = want_rows.difference(&have_rows).collect();
        let extra: Vec<_> = have_rows.difference(&want_rows).collect();
        return Err(format!(
            "candidate grid drift: {} missing {missing:?}, {} extra {extra:?} — \
             regenerate with `cargo run --release -p smash-bench --bin planner_calibrate`",
            missing.len(),
            extra.len()
        ));
    }
    Ok(())
}

fn calibrate(path: &str) {
    let mut out = String::new();
    out.push_str("# smash-planner-calibration v1\n");
    out.push_str("# Measured cost model for smash_kernels::planner::Planner.\n");
    out.push_str(
        "# Regenerate: cargo run --release -p smash-bench --bin planner_calibrate\n\
         # Verify structure: … --bin planner_calibrate -- --check\n\
         # Format: docs/DISPATCH.md. work = logical work units (nnz / nnz*rhs /\n\
         # symbolic flops); ns = median wall-clock per call; the planner uses ns/work.\n",
    );
    // Record which SIMD tier the measurements ran under so `--check` and
    // plan rationales can flag tables calibrated on a different host class.
    out.push_str(&format!(
        "meta isa={}\n",
        smash_matrix::simd::active().name()
    ));
    for z in planner_zoo_cached() {
        let profile = z.profile();
        out.push('\n');
        out.push_str(&format!("# {} — {}\n", z.name, z.why));
        out.push_str(&zoo::matrix_line(z.name, &profile));
        out.push('\n');
        for c in zoo::candidates() {
            let (work, ns) = measure(&z, &c, ThreadPool::new);
            out.push_str(&zoo::row_line(z.name, &c, work, ns));
            out.push('\n');
            eprintln!(
                "  {:<20} {:<10} {:<6} x{} -> {:>12.1} ns ({:.3} ns/work)",
                z.name,
                c.op.name(),
                c.format.name(),
                c.threads,
                ns,
                ns / work
            );
        }
    }
    // The output must round-trip through the parser before we commit it.
    Planner::from_table(&out).expect("generated table must parse");
    std::fs::write(path, &out).expect("write calibration table");
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_mode = args.iter().any(|a| a == "--check");
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(default_table_path);
    if check_mode {
        match check(&path) {
            Ok(()) => println!("calibration table {path} is structurally current"),
            Err(e) => {
                eprintln!("stale calibration table: {e}");
                std::process::exit(1);
            }
        }
    } else {
        calibrate(&path);
    }
}
