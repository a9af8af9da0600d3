//! Mechanism-dispatch harness used by the experiment binaries and the
//! integration tests: builds the right operand format for a [`Mechanism`]
//! and runs the corresponding instrumented kernel on a caller-supplied
//! engine.

use crate::common::{test_vector, Mechanism};
use crate::{spmm, spmv};
use smash_bmu::Bmu;
use smash_core::{SmashConfig, SmashMatrix};
use smash_matrix::{Bcsr, Coo, Csr, Scalar};
use smash_sim::{CountEngine, Engine, SimEngine, SimStats, SystemConfig};

/// Block shape of the TACO-BCSR baseline (see DESIGN.md).
pub const BCSR_BLOCK: usize = 2;

/// Runs the instrumented SpMV of `mech` on the given engine and returns the
/// product. `cfg` selects the bitmap hierarchy for the SMASH mechanisms.
pub fn run_spmv<E: Engine, T: Scalar>(
    e: &mut E,
    mech: Mechanism,
    a: &Csr<T>,
    cfg: &SmashConfig,
) -> Vec<T> {
    let x = test_vector(a.cols());
    match mech {
        Mechanism::TacoCsr => spmv::spmv_csr(e, a, &x),
        Mechanism::IdealCsr => spmv::spmv_ideal(e, a, &x),
        Mechanism::TacoBcsr => {
            let b = Bcsr::from_csr(a, BCSR_BLOCK, BCSR_BLOCK).expect("non-zero block");
            spmv::spmv_bcsr(e, &b, &x)
        }
        Mechanism::SwSmash => {
            let sm = SmashMatrix::encode(a, cfg.clone());
            spmv::spmv_sw_smash(e, &sm, &x)
        }
        Mechanism::Smash => {
            let sm = SmashMatrix::encode(a, cfg.clone());
            let mut bmu = Bmu::new();
            spmv::spmv_hw_smash(e, &mut bmu, 0, &sm, &x)
        }
    }
}

/// Runs the instrumented SpMM of `mech` (`C = A * B`) on the given engine.
/// SMASH mechanisms use single-level bitmaps with the Bitmap-0 ratio of
/// `cfg`, per the paper's §5.2 SpMM formulation.
pub fn run_spmm<E: Engine, T: Scalar>(
    e: &mut E,
    mech: Mechanism,
    a: &Csr<T>,
    b: &Csr<T>,
    cfg: &SmashConfig,
) -> Coo<T> {
    let b0 = cfg.block_size() as u32;
    match mech {
        Mechanism::TacoCsr => spmm::spmm_csr(e, a, &b.to_csc()),
        Mechanism::IdealCsr => spmm::spmm_ideal(e, a, &b.to_csc()),
        Mechanism::TacoBcsr => {
            let ab = Bcsr::from_csr(a, BCSR_BLOCK, BCSR_BLOCK).expect("non-zero block");
            let btb =
                Bcsr::from_csr(&b.transpose(), BCSR_BLOCK, BCSR_BLOCK).expect("non-zero block");
            spmm::spmm_bcsr(e, &ab, &btb)
        }
        Mechanism::SwSmash => {
            let sa = SmashMatrix::encode(a, SmashConfig::row_major(&[b0]).expect("valid b0"));
            let sb = SmashMatrix::encode(b, SmashConfig::col_major(&[b0]).expect("valid b0"));
            spmm::spmm_sw_smash(e, &sa, &sb)
        }
        Mechanism::Smash => {
            let sa = SmashMatrix::encode(a, SmashConfig::row_major(&[b0]).expect("valid b0"));
            let sb = SmashMatrix::encode(b, SmashConfig::col_major(&[b0]).expect("valid b0"));
            let mut bmu = Bmu::new();
            spmm::spmm_hw_smash(e, &mut bmu, &sa, &sb)
        }
    }
}

/// Full timing simulation of one SpMV (returns the statistics).
pub fn sim_spmv<T: Scalar>(
    mech: Mechanism,
    a: &Csr<T>,
    cfg: &SmashConfig,
    sys: &SystemConfig,
) -> SimStats {
    let mut e = SimEngine::new(sys.clone());
    run_spmv(&mut e, mech, a, cfg);
    e.finish()
}

/// Instruction-count-only run of one SpMV.
pub fn count_spmv<T: Scalar>(mech: Mechanism, a: &Csr<T>, cfg: &SmashConfig) -> SimStats {
    let mut e = CountEngine::new();
    run_spmv(&mut e, mech, a, cfg);
    e.finish()
}

/// Full timing simulation of one SpMM.
pub fn sim_spmm<T: Scalar>(
    mech: Mechanism,
    a: &Csr<T>,
    b: &Csr<T>,
    cfg: &SmashConfig,
    sys: &SystemConfig,
) -> SimStats {
    let mut e = SimEngine::new(sys.clone());
    run_spmm(&mut e, mech, a, b, cfg);
    e.finish()
}

/// Instruction-count-only run of one SpMM.
pub fn count_spmm<T: Scalar>(
    mech: Mechanism,
    a: &Csr<T>,
    b: &Csr<T>,
    cfg: &SmashConfig,
) -> SimStats {
    let mut e = CountEngine::new();
    run_spmm(&mut e, mech, a, b, cfg);
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_matrix::generators;

    #[test]
    fn all_spmv_mechanisms_agree_through_harness() {
        let a = generators::uniform(48, 48, 300, 3);
        let cfg = SmashConfig::row_major(&[2, 4]).unwrap();
        let want = a.spmv(&test_vector(48));
        for mech in Mechanism::ALL {
            let mut e = CountEngine::new();
            let y = run_spmv(&mut e, mech, &a, &cfg);
            for (got, exp) in y.iter().zip(&want) {
                assert!((got - exp).abs() < 1e-9, "{mech}: {got} vs {exp}");
            }
        }
    }

    #[test]
    fn all_spmm_mechanisms_agree_through_harness() {
        let a = generators::uniform(24, 30, 140, 5);
        let b = generators::uniform(30, 20, 120, 6);
        let cfg = SmashConfig::row_major(&[2]).unwrap();
        let want = a.spmm_inner(&b.to_csc()).unwrap().to_dense();
        for mech in Mechanism::ALL {
            let mut e = CountEngine::new();
            let c = run_spmm(&mut e, mech, &a, &b, &cfg).to_dense();
            for i in 0..want.rows() {
                for j in 0..want.cols() {
                    assert!(
                        (c.get(i, j) - want.get(i, j)).abs() < 1e-9,
                        "{mech} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn sim_and_count_report_same_instruction_totals() {
        let a = generators::uniform(40, 40, 240, 9);
        let cfg = SmashConfig::row_major(&[2, 4]).unwrap();
        for mech in Mechanism::ALL {
            let sim = sim_spmv(mech, &a, &cfg, &SystemConfig::paper_table2());
            let cnt = count_spmv(mech, &a, &cfg);
            assert_eq!(
                sim.instructions(),
                cnt.instructions(),
                "{mech} instruction totals diverge"
            );
            assert!(sim.cycles > 0);
            assert_eq!(cnt.cycles, 0);
        }
    }
}
