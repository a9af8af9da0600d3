//! Cross-crate behavioural tests of the timing substrate: the simulator
//! must exhibit the architectural effects the paper's analysis relies on.

use smash::encoding::SmashConfig;
use smash::kernels::{harness, Mechanism};
use smash::matrix::generators;
use smash::sim::{Engine, SimEngine, StreamId, SystemConfig, UopId};

#[test]
fn pointer_chasing_dominates_streaming_at_equal_instruction_counts() {
    let n = 2048u64;
    // Streaming: n independent loads over a large array.
    let mut e = SimEngine::new(SystemConfig::paper_table2());
    let base = e.alloc(1 << 22, 64);
    for k in 0..n {
        e.load(StreamId(1), base + k * 64, &[]);
    }
    let streaming = e.finish();
    // Chasing: n dependent loads over the same footprint.
    let mut e = SimEngine::new(SystemConfig::paper_table2());
    let base = e.alloc(1 << 22, 64);
    let mut dep = UopId::NONE;
    for k in 0..n {
        let addr = base + ((k * 40_503) % (1 << 16)) * 64;
        dep = e.load(StreamId(2), addr, &[dep]);
    }
    let chasing = e.finish();
    assert_eq!(streaming.instructions(), chasing.instructions());
    assert!(
        chasing.cycles > streaming.cycles * 8,
        "chasing {} vs streaming {}",
        chasing.cycles,
        streaming.cycles
    );
}

#[test]
fn smaller_caches_slow_down_cache_hungry_kernels() {
    let a = generators::uniform(512, 512, 10_000, 3);
    let cfg = SmashConfig::row_major(&[2, 4, 16]).expect("valid");
    let big = harness::sim_spmv(Mechanism::TacoCsr, &a, &cfg, &SystemConfig::paper_table2());
    let small = harness::sim_spmv(
        Mechanism::TacoCsr,
        &a,
        &cfg,
        &SystemConfig::paper_table2_scaled(32),
    );
    assert!(
        small.cycles > big.cycles,
        "scaled-down caches must cost cycles: {} vs {}",
        small.cycles,
        big.cycles
    );
    assert_eq!(small.instructions(), big.instructions());
}

#[test]
fn prefetcher_helps_csr_spmv() {
    let a = generators::banded(1024, 1024, 8, 12_000, 5);
    let cfg = SmashConfig::row_major(&[2, 4, 16]).expect("valid");
    let sys = SystemConfig::paper_table2_scaled(16);
    let with = harness::sim_spmv(Mechanism::TacoCsr, &a, &cfg, &sys);
    let without = harness::sim_spmv(
        Mechanism::TacoCsr,
        &a,
        &cfg,
        &sys.clone().without_prefetch(),
    );
    assert!(
        with.cycles < without.cycles,
        "prefetch on {} vs off {}",
        with.cycles,
        without.cycles
    );
}

#[test]
fn deterministic_simulation() {
    let a = generators::clustered(256, 256, 3000, 5, 9);
    let cfg = SmashConfig::row_major(&[2, 4]).expect("valid");
    let sys = SystemConfig::paper_table2_scaled(16);
    let s1 = harness::sim_spmv(Mechanism::Smash, &a, &cfg, &sys);
    let s2 = harness::sim_spmv(Mechanism::Smash, &a, &cfg, &sys);
    assert_eq!(s1, s2, "simulation must be reproducible");
}

/// The SMASH mechanism simulates at hierarchy depths 1, 2 and 3: each
/// run is reproducible and retires exactly the counting engine's
/// instructions.
#[test]
fn smash_spmv_simulates_at_every_hierarchy_depth() {
    let a = generators::clustered(256, 256, 3000, 6, 42);
    let sys = SystemConfig::paper_table2_scaled(16);
    for ratios in [&[2u32][..], &[2, 4], &[2, 4, 16]] {
        let cfg = SmashConfig::row_major(ratios).expect("valid");
        let sim = harness::sim_spmv(Mechanism::Smash, &a, &cfg, &sys);
        assert_eq!(sim, harness::sim_spmv(Mechanism::Smash, &a, &cfg, &sys));
        let cnt = harness::count_spmv(Mechanism::Smash, &a, &cfg);
        assert_eq!(sim.instructions(), cnt.instructions(), "ratios {ratios:?}");
        assert!(sim.cycles > 0, "ratios {ratios:?}");
    }
}

#[test]
fn instruction_counts_are_engine_independent() {
    // SimEngine and CountEngine must agree on every mechanism and kernel.
    let a = generators::uniform(128, 128, 1200, 7);
    let b = generators::uniform(128, 128, 1200, 8);
    let cfg = SmashConfig::row_major(&[2, 4]).expect("valid");
    let sys = SystemConfig::paper_table2_scaled(16);
    for mech in Mechanism::ALL {
        let sim = harness::sim_spmv(mech, &a, &cfg, &sys);
        let cnt = harness::count_spmv(mech, &a, &cfg);
        assert_eq!(sim.instructions(), cnt.instructions(), "spmv {mech}");
        let cfg1 = SmashConfig::row_major(&[2]).expect("valid");
        let sim = harness::sim_spmm(mech, &a, &b, &cfg1, &sys);
        let cnt = harness::count_spmm(mech, &a, &b, &cfg1);
        assert_eq!(sim.instructions(), cnt.instructions(), "spmm {mech}");
    }
}
