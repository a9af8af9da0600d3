//! Figure 9: software-only mechanisms on a *real* system (the host CPU),
//! wall-clock, normalized to plain CSR — our stand-in for the paper's Xeon
//! Gold 5118 (Table 5).

use crate::config::ExpConfig;
use crate::figs::suite_subset;
use crate::paper_ref;
use crate::report::{geomean, r2, Table};
use smash_core::{SmashConfig, SmashMatrix};
use smash_kernels::{native, test_vector};
use smash_matrix::{spmv_rows, Bcsr};
use std::time::Instant;

/// Median-of-N wall-clock of a closure, in nanoseconds.
fn time_ns<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[samples.len() / 2]
}

/// Runs the experiment. Matrices use a denser scale than the simulator
/// experiments since native kernels are fast.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let scale = if cfg.fast { 16 } else { 8 };
    let reps = if cfg.fast { 3 } else { 5 };
    let suite = suite_subset(cfg, scale);

    let mut spmv_ratios: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut spmm_ratios: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for (_, a) in &suite {
        let x = test_vector(a.cols());
        let mut y = vec![0.0f64; a.rows()];
        let bcsr = Bcsr::from_csr(a, 2, 2).expect("non-zero block");
        // Every config runs the same `LineCursor` walk over the line
        // directory's words, which never reads the upper levels. On this
        // suite (seed 42, default scale, 2-vCPU AVX2 Xeon) `[2]` and
        // `[2,64]` both measured 0.35x CSR SpMV and 1.19x SpMM; deeper
        // levels buy storage and the hardware BMU's skips, not software
        // speed, so the native kernel uses 1 level.
        let sm = SmashMatrix::encode(a, SmashConfig::row_major(&[2]).expect("valid"));

        let base = time_ns(|| spmv_rows(a, &x, &mut y), reps);
        let t_bcsr = time_ns(|| spmv_rows(&bcsr, &x, &mut y), reps);
        let t_sm = time_ns(|| spmv_rows(&sm, &x, &mut y), reps);
        spmv_ratios[0].push(1.0);
        spmv_ratios[1].push(base / t_bcsr);
        // MKL-CSR runs the CSR row body (see the table note).
        spmv_ratios[2].push(1.0);
        spmv_ratios[3].push(base / t_sm);
    }
    // SpMM on a smaller scale (quadratic cost).
    let spmm_scale = if cfg.fast { 128 } else { 48 };
    for (spec, a) in &suite_subset(cfg, spmm_scale) {
        let b = spec.generate(spmm_scale, cfg.seed + 1);
        let bc = b.to_csc();
        let sa = SmashMatrix::encode(a, SmashConfig::row_major(&[2]).expect("valid"));
        let sb = SmashMatrix::encode(&b, SmashConfig::col_major(&[2]).expect("valid"));
        let ab = Bcsr::from_csr(a, 2, 2).expect("valid");
        let btb = Bcsr::from_csr(&b.transpose(), 2, 2).expect("valid");

        let base = time_ns(
            || {
                std::hint::black_box(native::spmm_csr(a, &bc));
            },
            reps,
        );
        let t_b = time_ns(
            || {
                std::hint::black_box(native::spmm_bcsr(&ab, &btb));
            },
            reps,
        );
        let t_opt = time_ns(
            || {
                std::hint::black_box(native::spmm_csr_opt(a, &bc));
            },
            reps,
        );
        let t_sm = time_ns(
            || {
                std::hint::black_box(native::spmm_smash(&sa, &sb));
            },
            reps,
        );
        spmm_ratios[0].push(1.0);
        spmm_ratios[1].push(base / t_b);
        spmm_ratios[2].push(base / t_opt);
        spmm_ratios[3].push(base / t_sm);
    }

    let mut t = Table::new(
        "Figure 9: software-only mechanisms on the host CPU (normalized to CSR)",
        &["mechanism", "SpMV", "paper", "SpMM", "paper"],
    );
    for (k, (name, _)) in paper_ref::FIG9_SPMV.iter().enumerate() {
        t.push_row(vec![
            name.to_string(),
            r2(geomean(&spmv_ratios[k])),
            r2(paper_ref::FIG9_SPMV[k].1),
            r2(geomean(&spmm_ratios[k])),
            r2(paper_ref::FIG9_SPMM[k].1),
        ]);
    }
    t.note("host CPU stands in for the paper's Xeon Gold 5118 (Table 5)");
    t.note("MKL-CSR modelled as branch-light CSR (MKL is not linked)");
    t.note(
        "MKL-CSR SpMV shares the CSR row body (the lane-striped SIMD \
         Csr::row_dot), so it reports the CSR time; only its SpMM body differs",
    );
    t.note(
        "known divergence: SpMV here is bound by per-block bookkeeping, \
         not arithmetic: on a 2-vCPU AVX2 Xeon the suite's median costs \
         were 1.1-1.5 ns per CSR non-zero, 2.9-4.6 ns per BCSR 2x2 block \
         (its 2x2 body keeps both rows in registers) and 7-7.5 ns per \
         SW-SMASH block, about half of it the software line walk the \
         paper's BMU does in hardware, with 1-4 non-zeros per block; so \
         the BCSR and SW-SMASH columns fall below CSR, and the SpMM \
         column and the simulator experiments (Figs. 10-13) carry the \
         co-design comparison",
    );
    vec![t]
}
