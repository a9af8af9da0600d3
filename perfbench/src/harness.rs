//! Timing machinery: the private reference loop, bracketed samples and
//! the order statistics every metric is reported with.

use std::hint::black_box;
use std::time::Instant;

/// The reference loop's time on the 2-vCPU host the benchmark was tuned
/// on, in ns: the unit of every `_ref` metric.
pub const NOMINAL_REF_NS: f64 = 250_000.0;

/// A fixed CSR SpMV written here, not in the library, so no change to
/// the library can change it. Timed right before and after each sample,
/// it tracks the host's speed, which drifts in phases.
///
/// The loop runs over two operands and reports the geometric mean of
/// their times: one fits in L2 and tracks compute speed, one is four
/// times larger and tracks the shared cache. On a shared 2-vCPU host,
/// phases that speed up compute-bound loops by up to 1.8x barely move
/// the memory-bound workloads, which the L2 operand alone over-corrects
/// (see `METRICS.md`, "Steadiness").
pub struct RefLoop {
    l2: RefCsr,
    shared: RefCsr,
}

impl RefLoop {
    /// Builds the reference operands from constant seeds: identical on
    /// every run, seed and commit.
    pub fn new() -> Self {
        RefLoop {
            l2: RefCsr::new(8_192, 0x9E37_79B9_7F4A_7C15),
            shared: RefCsr::new(32_768, 0x1234_5678_9ABC_DEF1),
        }
    }

    /// Times the reference loop, in ns. One untimed pass re-warms L2
    /// after whatever ran before; the median of several timed passes per
    /// operand drops interrupts.
    pub fn time(&mut self) -> f64 {
        self.l2.pass();
        (self.l2.median_pass(4) * self.shared.median_pass(2)).sqrt()
    }
}

/// One reference operand: 12 random non-zeros per row, square.
struct RefCsr {
    row_ptr: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

const REF_ROW_NNZ: usize = 12;

impl RefCsr {
    fn new(rows: usize, seed: u64) -> Self {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut cols = Vec::with_capacity(rows * REF_ROW_NNZ);
        row_ptr.push(0u32);
        for _ in 0..rows {
            let mut row: Vec<u32> = (0..REF_ROW_NNZ)
                .map(|_| (next() % rows as u64) as u32)
                .collect();
            row.sort_unstable();
            cols.extend(row);
            row_ptr.push(cols.len() as u32);
        }
        let vals = (0..cols.len())
            .map(|_| (next() % 1000) as f64 / 1000.0 + 0.5)
            .collect();
        RefCsr {
            row_ptr,
            cols,
            vals,
            x: (0..rows).map(|i| 1.0 / (i + 1) as f64).collect(),
            y: vec![0.0; rows],
        }
    }

    fn median_pass(&mut self, passes: usize) -> f64 {
        let times: Vec<f64> = (0..passes)
            .map(|_| {
                let start = Instant::now();
                self.pass();
                start.elapsed().as_nanos() as f64
            })
            .collect();
        median(&times)
    }

    fn pass(&mut self) {
        for (i, yi) in self.y.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.vals[k] * self.x[self.cols[k] as usize];
            }
            *yi = acc;
        }
        black_box(&mut self.y);
    }
}

/// The samples of one timed quantity.
#[derive(Default, Clone)]
pub struct Samples {
    /// Raw wall time of each sample, ns (already divided by the number
    /// of calls the sample amortizes over).
    pub raw_ns: Vec<f64>,
    /// Each raw time in units of the nominal reference time, corrected
    /// for half the host's speed change: divided by `sqrt(r * R0)`, where
    /// `r` is the mean of the reference times taken just before and just
    /// after it and `R0` is [`NOMINAL_REF_NS`]. Between the speed phases
    /// of a shared 2-vCPU host the reference loop's time moves about
    /// 1.85x while the workloads' move 1.15-1.4x, so dividing by `r`
    /// alone turns each phase change into a jump the other way (see
    /// `METRICS.md`, "Steadiness").
    pub norm: Vec<f64>,
    /// The reference time `r` each sample was normalized by, ns.
    pub ref_ns: Vec<f64>,
}

/// Within one set of samples, a 90th-percentile reference time more than
/// this factor above the 10th percentile marks two speed states of the
/// host.
const STATE_GAP: f64 = 1.3;
/// Samples each state needs before the medians are taken per state.
const STATE_MIN: usize = 3;

impl Samples {
    /// Number of samples taken.
    pub fn len(&self) -> usize {
        self.raw_ns.len()
    }

    /// Median of the normalized samples, balanced over the host's speed
    /// states: when the reference times fall into a fast and a slow
    /// group (split at the geometric mean of their 10th and 90th
    /// percentiles), the geometric mean of the two groups' medians. The
    /// value then does not depend on how a run's time was shared
    /// between the states.
    pub fn norm_median(&self) -> f64 {
        let mut refs = self.ref_ns.clone();
        refs.sort_by(f64::total_cmp);
        let n = refs.len();
        if n >= 2 * STATE_MIN && refs[n * 9 / 10] > STATE_GAP * refs[n / 10] {
            let split = (refs[n / 10] * refs[n * 9 / 10]).sqrt();
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            for (&v, &r) in self.norm.iter().zip(&self.ref_ns) {
                if r <= split {
                    fast.push(v);
                } else {
                    slow.push(v);
                }
            }
            if fast.len() >= STATE_MIN && slow.len() >= STATE_MIN {
                return (median(&fast) * median(&slow)).sqrt();
            }
        }
        median(&self.norm)
    }

    /// Median of the raw samples, in ms.
    pub fn raw_median_ms(&self) -> f64 {
        median(&self.raw_ns) / 1e6
    }

    /// The highest whole percentile that still has at least ten samples
    /// above it, and the raw time at that percentile in ms. With ten or
    /// fewer samples no such percentile exists; the maximum is reported
    /// as the 100th.
    pub fn tail_ms(&self) -> (f64, f64) {
        let n = self.raw_ns.len();
        let mut sorted = self.raw_ns.clone();
        sorted.sort_by(f64::total_cmp);
        if n <= 10 {
            return (100.0, sorted.last().copied().unwrap_or(0.0) / 1e6);
        }
        let pct = ((n - 10) * 100 / n) as f64;
        let idx = ((pct / 100.0) * n as f64).ceil() as usize;
        (pct, sorted[idx.saturating_sub(1)] / 1e6)
    }
}

/// Takes bracketed samples: reference, timed body, reference.
pub struct Sampler {
    reference: RefLoop,
    /// Every reference time taken around a sample, in ns.
    pub refs: Vec<f64>,
}

impl Sampler {
    /// A sampler over a fresh reference loop.
    pub fn new() -> Self {
        Sampler {
            reference: RefLoop::new(),
            refs: Vec::new(),
        }
    }

    /// Median of `reps` reference runs taken now, in ns, without
    /// recording them.
    pub fn baseline(&mut self, reps: usize) -> f64 {
        let times: Vec<f64> = (0..reps).map(|_| self.reference.time()).collect();
        median(&times)
    }

    /// Times `body` once, bracketed by two reference runs. `calls` is
    /// the number of library calls the body makes; the recorded times
    /// are per call.
    pub fn sample<R>(&mut self, into: &mut Samples, calls: usize, body: impl FnOnce() -> R) -> R {
        let before = self.reference.time();
        let start = Instant::now();
        let out = black_box(body());
        let ns = start.elapsed().as_nanos() as f64 / calls as f64;
        let after = self.reference.time();
        self.refs.extend([before, after]);
        let r = (before + after) / 2.0;
        into.raw_ns.push(ns);
        into.norm.push(ns / (r * NOMINAL_REF_NS).sqrt());
        into.ref_ns.push(r);
        out
    }

    /// Samples `body` repeatedly until `budget_s` seconds have passed and
    /// at least `min` samples exist.
    pub fn repeat<R>(
        &mut self,
        budget_s: f64,
        min: usize,
        calls: usize,
        mut body: impl FnMut() -> R,
    ) -> Samples {
        let mut s = Samples::default();
        let start = Instant::now();
        while s.len() < min || start.elapsed().as_secs_f64() < budget_s {
            self.sample(&mut s, calls, &mut body);
        }
        s
    }

    /// Median of every reference time taken around a sample, in ms.
    pub fn ref_ms(&self) -> f64 {
        median(&self.refs) / 1e6
    }
}

/// Median of `v` (mean of the middle two for even lengths); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Failed-against-attempted counts of output checks.
#[derive(Default, Debug)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that found a wrong output.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Whether two vectors agree element-wise within the scalar tolerance.
pub fn close(a: &[f64], b: &[f64]) -> bool {
    use smash_matrix::Scalar;
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.approx_eq_default(*y))
}

/// Bitwise equality of two float vectors (`-0.0 != 0.0`, NaN == NaN of
/// the same payload).
pub fn bitwise(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
