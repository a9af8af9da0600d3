//! Figure 3: speedup and normalized instruction count of an *ideal
//! indexing* scheme over baseline CSR, for Sparse Matrix Addition, SpMV and
//! SpMM, averaged over the Table 3 suite.

use crate::config::ExpConfig;
use crate::figs::suite_subset;
use crate::paper_ref;
use crate::report::{geomean, r2, Table};
use smash_core::SmashConfig;
use smash_kernels::{harness, spadd, Mechanism};
use smash_sim::{CountEngine, SimEngine};

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let sys_v = cfg.system_spmv();
    let sys_m = cfg.system_spmm();
    let smash_cfg = SmashConfig::row_major(&[2, 4, 16]).expect("static config");

    let mut speedups: Vec<(&str, Vec<f64>)> = vec![
        ("SpAdd", Vec::new()),
        ("SpMV", Vec::new()),
        ("SpMM", Vec::new()),
    ];
    let mut instr: Vec<(&str, Vec<f64>)> = vec![
        ("SpAdd", Vec::new()),
        ("SpMV", Vec::new()),
        ("SpMM", Vec::new()),
    ];

    // SpAdd and SpMV at SpMV scale.
    for (spec, a) in suite_subset(cfg, cfg.scale_spmv) {
        // SpAdd: A + A^T keeps the shape interesting.
        let b = a.transpose();
        let mut e1 = SimEngine::new(sys_v.clone());
        spadd::spadd_csr(&mut e1, &a, &b);
        let base = e1.finish();
        let mut e2 = SimEngine::new(sys_v.clone());
        spadd::spadd_ideal(&mut e2, &a, &b);
        let ideal = e2.finish();
        speedups[0].1.push(base.cycles as f64 / ideal.cycles as f64);
        instr[0]
            .1
            .push(ideal.instructions() as f64 / base.instructions() as f64);

        let base = harness::sim_spmv(Mechanism::TacoCsr, &a, &smash_cfg, &sys_v);
        let ideal = harness::sim_spmv(Mechanism::IdealCsr, &a, &smash_cfg, &sys_v);
        speedups[1].1.push(base.cycles as f64 / ideal.cycles as f64);
        instr[1]
            .1
            .push(ideal.instructions() as f64 / base.instructions() as f64);
        let _ = spec;
    }
    // SpMM at SpMM scale.
    for (spec, a) in suite_subset(cfg, cfg.scale_spmm) {
        let b = spec.generate(cfg.scale_spmm, cfg.seed + 1);
        let base = harness::sim_spmm(Mechanism::TacoCsr, &a, &b, &smash_cfg, &sys_m);
        let ideal = harness::sim_spmm(Mechanism::IdealCsr, &a, &b, &smash_cfg, &sys_m);
        speedups[2].1.push(base.cycles as f64 / ideal.cycles as f64);
        instr[2]
            .1
            .push(ideal.instructions() as f64 / base.instructions() as f64);
    }

    let mut t = Table::new(
        "Figure 3: ideal indexing vs CSR (average over the matrix suite)",
        &["kernel", "speedup", "paper", "norm. instructions", "paper"],
    );
    for k in 0..3 {
        t.push_row(vec![
            speedups[k].0.to_string(),
            r2(geomean(&speedups[k].1)),
            r2(paper_ref::FIG3_SPEEDUP[k].1),
            r2(geomean(&instr[k].1)),
            r2(paper_ref::FIG3_INSTR[k].1),
        ]);
    }
    t.note(format!(
        "scale: SpAdd/SpMV 1/{}, SpMM 1/{}; caches scaled to match (scaled working set)",
        cfg.scale_spmv, cfg.scale_spmm
    ));
    vec![t]
}

/// Additionally reports the §2.2 claim: the share of indexing instructions
/// in CSR kernels (42–65 %).
pub fn indexing_breakdown(cfg: &ExpConfig) -> Table {
    let smash_cfg = SmashConfig::row_major(&[2, 4, 16]).expect("static config");
    let mut t = Table::new(
        "Section 2.2: indexing share of executed CSR instructions",
        &["kernel", "indexing share"],
    );
    let suite = suite_subset(cfg, cfg.scale_spmv);
    let mut spmv_shares = Vec::new();
    for (_, a) in &suite {
        let s = harness::count_spmv(Mechanism::TacoCsr, a, &smash_cfg);
        spmv_shares.push(s.indexing_instructions() as f64 / s.instructions() as f64);
    }
    t.push_row(vec!["SpMV".into(), r2(geomean(&spmv_shares))]);
    // A mid-density matrix keeps the SpMM breakdown representative.
    let subset = suite_subset(cfg, cfg.scale_spmm);
    let (spec, a) = &subset[subset.len() / 2];
    let b = spec.generate(cfg.scale_spmm, cfg.seed + 1);
    let mut e = CountEngine::new();
    smash_kernels::harness::run_spmm(&mut e, Mechanism::TacoCsr, a, &b, &smash_cfg);
    let s = e.finish();
    t.push_row(vec![
        "SpMM".into(),
        r2(s.indexing_instructions() as f64 / s.instructions() as f64),
    ]);
    t.note("paper: indexing is 42-65% of executed instructions (Fig. 3 discussion)");
    t
}
