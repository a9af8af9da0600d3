//! Machine-readable perf snapshot for the runtime-dispatched SIMD tiers.
//!
//! Writes `BENCH_simd.json` (path overridable as the first CLI argument)
//! with per-ISA wall-clock numbers for the three vectorized kernel
//! families — the CSR `row_dot` and the SMASH `block_dot` (via the
//! `spmv_rows` driver over each operand), and the dense RHS axpy tiles
//! (via `spmm_dense_rows` over SMASH at the 8-wide calibration batch) —
//! on a structurally
//! diverse slice of the planner zoo, in both precisions. Each kernel runs
//! once under every ISA the host supports by forcing the dispatch layer
//! through `smash_matrix::simd::set_override` (the in-process twin of the
//! `SMASH_SIMD` env override).
//!
//! On an AVX2 host the process exits non-zero if the AVX2 tier does not
//! pay for itself:
//!
//! * it must reach parity with scalar (speedup ≥ 0.95, a small noise
//!   allowance) on at least one row, and no row may fall below 0.75×, and
//! * `f32` row-dot and axpy-tile SpMM must each clear 1.5× over the scalar
//!   emulation on at least one zoo matrix — the headline claim of the
//!   dispatch layer.
//!
//! A host without AVX2 runs only the scalar tier and checks nothing.
//!
//! All tiers produce bit-identical outputs (pinned by
//! `tests/simd_identity.rs`); this snapshot is about time only.

use smash_bench::zoo::{self, planner_zoo};
use smash_core::{SmashConfig, SmashMatrix};
use smash_matrix::simd::{self, Isa};
use smash_matrix::{generators, spmm_dense_rows, spmv_rows, Csr, Dense, Scalar};

/// RHS width the axpy-tile measurement leads with: one full register tile.
const AXPY_RHS: usize = 8;

/// Times `f` with the dispatch layer forced onto `isa`.
fn time_under<F: FnMut() -> usize>(isa: Isa, samples: usize, reps: usize, f: F) -> f64 {
    simd::set_override(Some(isa));
    let ns = zoo::time_ns(samples, reps, f);
    simd::set_override(None);
    ns
}

/// One kernel family timed under every supported ISA: the JSON fragment
/// plus the AVX2 speedup the gates read.
struct KernelRow {
    json: String,
    /// AVX2 speedup over scalar, if the host supports AVX2.
    avx2_speedup: Option<f64>,
}

fn measure_kernel<F: FnMut() -> usize>(
    matrix: &str,
    kernel: &str,
    ty: &str,
    samples: usize,
    reps: usize,
    mut f: F,
) -> KernelRow {
    let supported: Vec<Isa> = Isa::ALL.into_iter().filter(|i| i.is_supported()).collect();
    let scalar_ns = time_under(Isa::Scalar, samples, reps, &mut f);
    let mut avx2_speedup = None;
    let mut tiers = Vec::new();
    for isa in supported {
        let ns = if isa == Isa::Scalar {
            scalar_ns
        } else {
            time_under(isa, samples, reps, &mut f)
        };
        let speedup = scalar_ns / ns;
        if isa == Isa::Avx2 {
            avx2_speedup = Some(speedup);
        }
        tiers.push(format!(
            "{{\"isa\": \"{}\", \"ns\": {ns:.0}, \"speedup_vs_scalar\": {speedup:.2}}}",
            isa.name()
        ));
    }
    let json = format!(
        "    {{\"matrix\": \"{matrix}\", \"kernel\": \"{kernel}\", \"type\": \"{ty}\", \
         \"tiers\": [{}]}}",
        tiers.join(", ")
    );
    KernelRow { json, avx2_speedup }
}

/// All three kernel families on one matrix in one precision.
fn measure_matrix<T: Scalar>(name: &str, a: &Csr<T>, ty: &str, rows_json: &mut Vec<KernelRow>) {
    let sm = SmashMatrix::encode(
        a,
        SmashConfig::row_major(&[2, 4, 16]).expect("paper config"),
    );
    let x: Vec<T> = (0..a.cols())
        .map(|c| T::from_f64(0.25 + (c % 7) as f64 * 0.125))
        .collect();
    let b = generators::dense_batch::<T>(a.cols(), AXPY_RHS, 5);
    let mut y = vec![T::ZERO; a.rows()];
    let mut c = Dense::zeros(a.rows(), AXPY_RHS);

    rows_json.push(measure_kernel(name, "row_dot_spmv", ty, 5, 4, || {
        spmv_rows(a, &x, &mut y);
        y.len()
    }));
    rows_json.push(measure_kernel(name, "block_dot_spmv", ty, 5, 4, || {
        spmv_rows(&sm, &x, &mut y);
        y.len()
    }));
    rows_json.push(measure_kernel(name, "axpy_tile_spmm", ty, 5, 2, || {
        spmm_dense_rows(&sm, &b, &mut c);
        c.cols()
    }));
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_simd.json".into());

    // A structurally diverse slice of the planner zoo: banded (short
    // rows), clustered (dense runs → long contiguous block dots), and
    // full-fill blocky (SMASH's best case, axpy-dominated).
    let picks = ["mid-banded", "large-clustered", "blocky-full-fill"];
    let zoo: Vec<_> = planner_zoo()
        .into_iter()
        .filter(|z| picks.contains(&z.name))
        .collect();
    assert_eq!(zoo.len(), picks.len(), "zoo picks must all exist");

    let supported: Vec<&str> = Isa::ALL
        .into_iter()
        .filter(|i| i.is_supported())
        .map(|i| i.name())
        .collect();
    let has_avx2 = Isa::Avx2.is_supported();

    let mut rows = Vec::new();
    for z in &zoo {
        measure_matrix(z.name, &z.matrix, "f64", &mut rows);
        measure_matrix(z.name, &z.matrix.cast::<f32>(), "f32", &mut rows);
    }

    let json = format!(
        "{{\n  \"detected\": \"{}\",\n  \"supported\": [{}],\n  \"results\": [\n{}\n  ]\n}}\n",
        simd::detected().name(),
        supported
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", "),
        rows.iter()
            .map(|r| r.json.clone())
            .collect::<Vec<_>>()
            .join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("wrote {out_path}");

    if has_avx2 {
        // AVX2 must break even somewhere (0.95 absorbs timer noise on the
        // small matrices) and regress hard nowhere.
        let speedups: Vec<f64> = rows
            .iter()
            .map(|r| {
                r.avx2_speedup
                    .expect("AVX2 host times every row under AVX2")
            })
            .collect();
        let worst = speedups.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            speedups.iter().any(|&s| s >= 0.95),
            "no kernel reached parity with scalar under AVX2 (worst {worst:.2}x)"
        );
        for (i, (r, s)) in rows.iter().zip(&speedups).enumerate() {
            assert!(
                *s >= 0.75,
                "row {i} regressed hard under AVX2 ({s:.2}x): {}",
                r.json
            );
        }
        // Headline: f32 row-dot and axpy tiles each clear 1.5x over the
        // scalar emulation on at least one zoo matrix.
        for kernel in ["row_dot_spmv", "axpy_tile_spmm"] {
            let best = rows
                .iter()
                .filter(|r| {
                    r.json.contains(&format!("\"kernel\": \"{kernel}\""))
                        && r.json.contains("\"type\": \"f32\"")
                })
                .filter_map(|r| r.avx2_speedup)
                .fold(0.0f64, f64::max);
            assert!(
                best >= 1.5,
                "f32 {kernel} under AVX2 peaked at {best:.2}x over scalar; \
                 the dispatch layer must clear 1.5x on at least one zoo matrix"
            );
        }
    }
    println!(
        "simd snapshot OK (detected tier: {})",
        simd::detected().name()
    );
}
