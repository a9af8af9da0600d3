//! The workload interface and the replay loop that samples it.

use crate::harness::{Checks, Sampler, Samples};
use crate::layers::ProbeInputs;
use crate::metrics::OPS;
use crate::trace::Tracer;
use std::time::Instant;

/// Input size: `Full` is the benchmark, `Smoke` a reduced size that
/// exercises every code path in a few seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Benchmark size.
    Full,
    /// Reduced size for the smoke run.
    Smoke,
}

/// One timed consumer operation of a workload.
#[derive(Debug, Clone, Copy)]
pub struct OpDef {
    /// What the operation is, for logs and `METRICS.md`.
    pub what: &'static str,
    /// Samples taken in each round.
    pub per_round: usize,
}

/// A workload: inputs generated from a seed and the five consumer
/// operations timed on them.
pub trait Workload {
    /// The five timed operations, in `op1`..`op5` order.
    fn ops(&self) -> [OpDef; OPS];

    /// Computes the reference results the output checks compare against.
    /// Runs after set-up is timed and before anything is sampled.
    fn prepare_oracles(&mut self);

    /// Takes one sample of operation `op` through `sampler`, then checks
    /// its output. Only the library calls sit inside the timed body.
    fn run(
        &mut self,
        op: usize,
        sampler: &mut Sampler,
        into: &mut Samples,
        tracer: &mut Tracer,
        checks: &mut Checks,
    );

    /// Stored bytes per non-zero of the operand the workload serves from.
    fn bytes_per_nnz(&self) -> f64;

    /// Structural figures of the generated input, recorded with every
    /// run and compared across seeds by the shape check.
    fn shape(&self) -> Vec<(&'static str, f64)>;

    /// The operands the per-layer probes run on.
    fn probe_inputs(&mut self) -> ProbeInputs<'_>;
}

/// Samples every operation in rounds until `seconds` have passed and
/// each operation has at least `min` samples, calling `between` after
/// each round. Rounds interleave the operations so a slow phase of the
/// host touches all of them alike.
pub fn replay(
    w: &mut dyn Workload,
    sampler: &mut Sampler,
    tracer: &mut Tracer,
    checks: &mut Checks,
    seconds: f64,
    min: usize,
    between: &mut dyn FnMut(&mut Sampler),
) -> Vec<Samples> {
    let ops = w.ops();
    let mut samples = vec![Samples::default(); OPS];
    let start = Instant::now();
    loop {
        for (k, op) in ops.iter().enumerate() {
            for _ in 0..op.per_round {
                w.run(k, sampler, &mut samples[k], tracer, checks);
            }
        }
        between(sampler);
        let enough = samples.iter().all(|s| s.len() >= min);
        if enough && start.elapsed().as_secs_f64() >= seconds {
            return samples;
        }
    }
}

/// SplitMix64: a small seeded generator for the benchmark's own random
/// choices (query vertices, inserted edges, operand seeds).
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so different uses of
    /// one seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
