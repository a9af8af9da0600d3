//! SpMV through the full co-design: run one Table 3 matrix through every
//! evaluated mechanism on the simulated Table 2 machine, show the SMASH
//! ISA sequence the hardware path executes, and cross-check the *native*
//! result over each mechanism's operand format through the unified
//! executor.
//!
//! Run with: `cargo run --release --example spmv_pipeline`

use smash::bmu::Instruction;
use smash::encoding::{SmashConfig, SmashMatrix};
use smash::kernels::harness::{self, BCSR_BLOCK};
use smash::kernels::{test_vector, Mechanism, SpmvOperand};
use smash::matrix::{suite::paper_suite, Bcsr};
use smash::sim::SystemConfig;
use smash::Executor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // M8 (pkustk07): a structural-engineering matrix with dense blocks.
    let spec = &paper_suite()[7];
    let scale = 16;
    let a = spec.generate(scale, 42);
    println!(
        "{} ({}), scaled 1/{scale}: {}x{} with {} non-zeros",
        spec.label(),
        spec.name,
        a.rows(),
        a.cols(),
        a.nnz()
    );

    // The ISA program Algorithm 1 executes before the scan loop.
    println!("\nSMASH ISA setup sequence (paper Table 1 / Algorithm 1):");
    let ratios = spec.bitmap_cfg.ratios_low_to_high();
    let program = [
        Instruction::Matinfo {
            rows: a.rows() as u32,
            cols: a.cols() as u32,
            grp: 0,
        },
        Instruction::Bmapinfo {
            comp: ratios[2],
            lvl: 2,
            grp: 0,
        },
        Instruction::Bmapinfo {
            comp: ratios[1],
            lvl: 1,
            grp: 0,
        },
        Instruction::Bmapinfo {
            comp: ratios[0],
            lvl: 0,
            grp: 0,
        },
        Instruction::Rdbmap {
            mem: 0x1000,
            buf: 2,
            grp: 0,
        },
        Instruction::Rdbmap {
            mem: 0x2000,
            buf: 1,
            grp: 0,
        },
        Instruction::Rdbmap {
            mem: 0x3000,
            buf: 0,
            grp: 0,
        },
        Instruction::Pbmap { grp: 0 },
        Instruction::Rdind {
            rd1: 1,
            rd2: 2,
            grp: 0,
        },
    ];
    for ins in &program {
        println!("    {ins}");
    }

    // Simulate all mechanisms on the scaled Table 2 machine.
    let sys = SystemConfig::paper_table2_scaled(scale);
    let cfg = SmashConfig::row_major(&ratios)?;
    println!("\nsimulated SpMV on the Table 2 machine (caches scaled 1/{scale}):");
    println!(
        "{:<22} {:>12} {:>14} {:>8} {:>9}",
        "mechanism", "cycles", "instructions", "IPC", "speedup"
    );
    let base = harness::sim_spmv(Mechanism::TacoCsr, &a, &cfg, &sys);
    for mech in Mechanism::ALL {
        let s = harness::sim_spmv(mech, &a, &cfg, &sys);
        println!(
            "{:<22} {:>12} {:>14} {:>8.2} {:>8.2}x",
            mech.label(),
            s.cycles,
            s.instructions(),
            s.ipc(),
            base.cycles as f64 / s.cycles as f64
        );
    }

    // Cross-check: the native (wall-clock) side runs every mechanism's
    // operand format — CSR (TACO-CSR, MKL-CSR), 2x2 BCSR, SMASH — through
    // the executor — one entry point, dispatch decided per call by the
    // measured cost-model planner (docs/DISPATCH.md) — and agrees with
    // the dense reference.
    let exec = Executor::auto();
    println!("\nexecutor dispatch plan for this matrix:");
    let plan = exec.plan_spmv(&a);
    println!("  {}", plan.rationale().replace('\n', "\n  "));
    let x = test_vector::<f64>(a.cols());
    let want = a.spmv(&x);
    let mut y = vec![0.0f64; a.rows()];
    let bcsr = Bcsr::from_csr(&a, BCSR_BLOCK, BCSR_BLOCK)?;
    let sm = SmashMatrix::encode(&a, cfg.clone());
    let operands: [(&str, SpmvOperand<'_, f64>); 3] = [
        ("csr", (&a).into()),
        ("bcsr", (&bcsr).into()),
        ("smash", (&sm).into()),
    ];
    for (format, op) in operands {
        exec.spmv(op, &x, &mut y);
        let max_err = y
            .iter()
            .zip(&want)
            .map(|(g, w)| (g - w).abs() / (1.0 + w.abs()))
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-9, "{format}: {max_err}");
    }
    println!(
        "\nnative executor cross-check: all {} operand formats agree with the \
         dense reference ({} threads available)",
        operands.len(),
        exec.threads()
    );
    Ok(())
}
