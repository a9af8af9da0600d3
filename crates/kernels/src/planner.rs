//! The measured cost-model **planner**: format × kernel × threads
//! dispatch driven by calibration data instead of hand-tuned thresholds.
//!
//! [`Executor`](crate::Executor)'s `Auto` mode used to choose serial vs.
//! parallel from two ad-hoc constants. This module replaces that guess
//! with a measurement: a [`Planner`] scores every candidate
//! *(format, kernel, thread count)* for an operation against a
//! **checked-in calibration table** — wall-clock numbers taken
//! by the offline calibrator (`cargo run -p smash-bench --bin
//! planner_calibrate`) on a zoo of structurally diverse matrices — and
//! returns an explainable [`Plan`].
//!
//! The pieces:
//!
//! * [`MatrixProfile`] — the structural features a decision keys on:
//!   shape, non-zero count, row-length mean/variance/max, block fill
//!   (the paper's §7.2.3 *locality of sparsity*, via
//!   `smash_matrix::locality`), and a [`DensityClass`].
//! * The calibration table (`planner_calibration.tsv`, compiled in via
//!   `include_str!`) — per zoo matrix, the measured nanoseconds of every
//!   candidate, normalized to ns-per-unit-of-work.
//! * [`Planner::plan`] — nearest-neighbor match of the profile against
//!   the zoo (L2 distance over log-scaled features), then pick the
//!   candidate with the lowest predicted cost
//!   (`ns_per_work × work`). When the table is empty or nothing in the
//!   zoo resembles the profile, the planner falls back to the legacy
//!   threshold tier ([`AUTO_PARALLEL_NNZ`] /
//!   [`AUTO_MIN_ROWS_PER_THREAD`]),
//!   reproducing the pre-planner behavior exactly.
//! * [`Plan`] — the chosen [`Choice`] plus its predicted cost and the
//!   inputs of its explanation: the profile, the matched zoo matrix, the
//!   runner-up, and the `smash_matrix::simd` ISA tier active when it was
//!   planned. [`Plan::rationale`] (or `Display`) renders them as text
//!   only on request, flagging a calibration table measured under a
//!   different tier; planning itself allocates nothing.
//!
//! **Determinism guarantee:** the planner only ever picks *which*
//! bit-identical kernel runs — every candidate it can name produces the
//! same bits as the serial kernel of the same format, so a plan never
//! trades accuracy for speed. This is pinned by `tests/planner.rs`.
//!
//! Adding a kernel candidate is additive: give it a row in the
//! calibrator's candidate list and regenerate the table — no new `if`
//! in the executor. See `docs/DISPATCH.md` in the repository for the
//! walkthrough.
//!
//! # Example
//!
//! ```
//! use smash_kernels::planner::{MatrixProfile, Op, PlanRequest, Planner};
//! use smash_matrix::generators;
//!
//! let a = generators::power_law(2048, 2048, 120_000, 1.3, 7);
//! let profile = MatrixProfile::of_csr(&a).with_block_fill(&a);
//! let plan = Planner::built_in().plan(&profile, &PlanRequest::free(Op::Spmv, 4));
//! // The plan names a concrete (format, threads) choice and can
//! // explain itself:
//! assert!(plan.choice.threads >= 1);
//! println!("{plan}");
//! ```

use crate::executor::{AUTO_MIN_ROWS_PER_THREAD, AUTO_PARALLEL_NNZ};
use smash_matrix::simd::Isa;
use smash_matrix::{locality, Bcsr, Csr, Scalar};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Block width used for the profile's block-fill feature (locality of
/// sparsity at 8-wide blocks — the widest RHS tile and a typical SMASH
/// Bitmap-0 ratio).
pub const PROFILE_BLOCK: usize = 8;

/// Feature-space distance above which a calibration match is rejected
/// and the planner falls back to the threshold tier: beyond this the
/// nearest zoo matrix says nothing about the workload.
pub const MAX_MATCH_DISTANCE: f64 = 1.25;

/// The operations the planner can dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Sparse matrix × dense vector (`Executor::spmv`).
    Spmv,
    /// Sparse matrix × dense multi-column batch (`Executor::spmm_dense`).
    SpmmDense,
    /// Sparse × sparse Gustavson multiply (`Executor::spgemm`).
    Spgemm,
}

impl Op {
    /// Stable lowercase name used in the calibration table.
    pub fn name(self) -> &'static str {
        match self {
            Op::Spmv => "spmv",
            Op::SpmmDense => "spmm_dense",
            Op::Spgemm => "spgemm",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "spmv" => Op::Spmv,
            "spmm_dense" => Op::SpmmDense,
            "spgemm" => Op::Spgemm,
            _ => return None,
        })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The storage formats a plan can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Plain compressed sparse row.
    Csr,
    /// Blocked CSR (2×2 blocks in the calibrated candidates).
    Bcsr,
    /// SMASH hierarchical-bitmap compression.
    Smash,
    /// Dynamic matrix: a static base tier plus a delta overlay, merged
    /// on access.
    Dynamic,
}

impl Format {
    /// Stable lowercase name used in the calibration table.
    pub fn name(self) -> &'static str {
        match self {
            Format::Csr => "csr",
            Format::Bcsr => "bcsr",
            Format::Smash => "smash",
            Format::Dynamic => "dynamic",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "csr" => Format::Csr,
            "bcsr" => Format::Bcsr,
            "smash" => Format::Smash,
            "dynamic" => Format::Dynamic,
            _ => return None,
        })
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Coarse density band of a matrix, for human-readable rationales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DensityClass {
    /// Fewer than 1 non-zero per 10 000 cells.
    Hypersparse,
    /// Up to 1% of cells occupied — the usual sparse-kernel regime.
    Sparse,
    /// 1–10% occupied: blocked formats start paying off.
    Moderate,
    /// More than 10% occupied: dense-adjacent.
    Dense,
}

impl fmt::Display for DensityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DensityClass::Hypersparse => "hypersparse",
            DensityClass::Sparse => "sparse",
            DensityClass::Moderate => "moderate",
            DensityClass::Dense => "dense",
        })
    }
}

/// The structural features of one operand that dispatch decisions key
/// on. Cheap to compute — `O(rows)` from the row pointers, except
/// [`MatrixProfile::with_block_fill`], which adds an `O(nnz)` pass and
/// is only needed for cross-format planning.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixProfile {
    /// Logical rows.
    pub rows: usize,
    /// Logical columns.
    pub cols: usize,
    /// True (logical) non-zero count.
    pub nnz: usize,
    /// Stored values of the operand's own format (CSR: `nnz`; BCSR /
    /// SMASH: block-padded). This is what the legacy threshold tier
    /// weighed, so the fallback stays bit-compatible with it.
    pub stored_work: usize,
    /// Mean stored values per row.
    pub row_mean: f64,
    /// Coefficient of variation (σ/μ) of stored values per row — the
    /// skew signal that separates power-law from banded structure.
    pub row_cv: f64,
    /// Maximum stored values in any row.
    pub row_max: usize,
    /// Locality of sparsity at [`PROFILE_BLOCK`]-wide blocks, in
    /// `(0, 1]`; `None` when the `O(nnz)` pass was skipped.
    pub block_fill: Option<f64>,
}

impl MatrixProfile {
    /// Profiles a CSR operand in one `O(rows)` pass over its row
    /// pointers (no block-fill; chain [`Self::with_block_fill`] when
    /// cross-format advice is wanted).
    pub fn of_csr<T: Scalar>(a: &Csr<T>) -> Self {
        let per_row = (0..a.rows()).map(|i| a.row_nnz(i));
        Self::from_row_lengths(a.rows(), a.cols(), a.nnz(), a.nnz(), per_row)
    }

    /// Profiles a BCSR operand: row statistics are taken over block
    /// rows (stored values per block row), which is the granularity its
    /// kernels and partitioner actually schedule.
    pub fn of_bcsr<T: Scalar>(a: &Bcsr<T>) -> Self {
        let (br, bc) = a.block_shape();
        let ptr = a.block_row_ptr();
        let per_block_row = ptr
            .windows(2)
            .map(move |w| (w[1] - w[0]) as usize * br * bc);
        Self::from_row_lengths(
            a.num_block_rows().max(1),
            a.cols(),
            a.nnz_logical(),
            a.nnz_stored(),
            per_block_row,
        )
        .with_shape(a.rows(), a.cols())
    }

    /// Profiles a SMASH operand: row statistics come from the line
    /// directory (stored NZA values per line) in `O(lines)`; the true
    /// non-zero count takes one `O(stored)` pass over the NZA, and block
    /// fill is derived from that count. No bitmap is expanded.
    pub fn of_smash<T: Scalar>(a: &smash_core::SmashMatrix<T>) -> Self {
        let block = a.config().block_size();
        let starts = a.line_block_starts();
        let per_line = starts
            .windows(2)
            .map(move |w| (w[1] - w[0]) as usize * block);
        let (nnz, stored) = (a.nnz(), a.nza().len());
        let mut p = Self::from_row_lengths(a.line_count().max(1), a.cols(), nnz, stored, per_line)
            .with_shape(a.rows(), a.cols());
        // `SmashMatrix::locality_of_sparsity`, without a second NZA scan.
        p.block_fill = Some(if stored == 0 {
            0.0
        } else {
            1.0 - (1.0 - nnz as f64 / stored as f64)
        });
        p
    }

    /// Adds the `O(nnz)` block-fill feature (locality of sparsity at
    /// [`PROFILE_BLOCK`]) measured on the CSR form.
    pub fn with_block_fill<T: Scalar>(mut self, a: &Csr<T>) -> Self {
        self.block_fill = Some(locality::locality_of_sparsity(a, PROFILE_BLOCK));
        self
    }

    /// Builds a profile directly from per-row stored-value counts.
    /// `rows` is the number of scheduling rows the iterator walks;
    /// logical shape can be overridden afterwards via the struct fields
    /// (the blocked constructors do).
    pub fn from_row_lengths(
        rows: usize,
        cols: usize,
        nnz: usize,
        stored_work: usize,
        per_row: impl Iterator<Item = usize>,
    ) -> Self {
        let mut n = 0usize;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut max = 0usize;
        for len in per_row {
            n += 1;
            sum += len as f64;
            sum_sq += (len as f64) * (len as f64);
            max = max.max(len);
        }
        let mean = if n == 0 { 0.0 } else { sum / n as f64 };
        let var = if n == 0 {
            0.0
        } else {
            (sum_sq / n as f64 - mean * mean).max(0.0)
        };
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        MatrixProfile {
            rows: rows.max(n),
            cols,
            nnz,
            stored_work,
            row_mean: mean,
            row_cv: cv,
            row_max: max,
            block_fill: None,
        }
    }

    fn with_shape(mut self, rows: usize, cols: usize) -> Self {
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Fraction of cells occupied (`nnz / (rows·cols)`), 0 for a
    /// degenerate shape.
    pub fn density(&self) -> f64 {
        let cells = self.rows as f64 * self.cols as f64;
        if cells > 0.0 {
            self.nnz as f64 / cells
        } else {
            0.0
        }
    }

    /// The coarse [`DensityClass`] of this profile.
    pub fn density_class(&self) -> DensityClass {
        let d = self.density();
        if d < 1e-4 {
            DensityClass::Hypersparse
        } else if d < 1e-2 {
            DensityClass::Sparse
        } else if d < 1e-1 {
            DensityClass::Moderate
        } else {
            DensityClass::Dense
        }
    }

    /// The log-scaled feature vector nearest-neighbor matching runs on.
    /// Missing features (block fill) are `None` and skipped pairwise.
    fn features(&self) -> Features {
        [
            Some(((self.nnz + 1) as f64).log10()),
            Some(((self.rows + 1) as f64).log10()),
            Some(((self.cols + 1) as f64).log10()),
            Some((self.density() + 1e-9).log10()),
            Some(self.row_cv),
            Some((self.row_max as f64 + 1.0).log10() - (self.row_mean + 1.0).log10()),
            self.block_fill,
        ]
    }

    /// L2 feature distance to `other`, averaged over the features both
    /// profiles carry.
    pub fn distance(&self, other: &MatrixProfile) -> f64 {
        feature_distance(&self.features(), &other.features())
    }
}

/// The one-line summary rationales open with:
/// `4096x4096 nnz 400000 (sparse, rows μ 97.7 cv 0.42 max 412, fill@8 0.31)`.
impl fmt::Display for MatrixProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} nnz {} ({}, rows \u{3bc} {:.1} cv {:.2} max {}",
            self.rows,
            self.cols,
            self.nnz,
            self.density_class(),
            self.row_mean,
            self.row_cv,
            self.row_max,
        )?;
        if let Some(fill) = self.block_fill {
            write!(f, ", fill@{PROFILE_BLOCK} {fill:.2}")?;
        }
        f.write_str(")")
    }
}

/// A profile's log-scaled features ([`MatrixProfile::distance`]'s space).
type Features = [Option<f64>; 7];

/// L2 distance between two feature vectors, averaged over the features
/// both carry; infinite when they share none.
fn feature_distance(a: &Features, b: &Features) -> f64 {
    let mut acc = 0.0;
    let mut n = 0usize;
    for (x, y) in a.iter().zip(b) {
        if let (Some(x), Some(y)) = (x, y) {
            acc += (x - y) * (x - y);
            n += 1;
        }
    }
    if n == 0 {
        f64::INFINITY
    } else {
        (acc / n as f64).sqrt()
    }
}

/// What the caller wants planned: the operation, any pinned format, how
/// many right-hand sides, the worker budget, and (for SpGEMM) the
/// symbolic work estimate.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// Operation being dispatched.
    pub op: Op,
    /// `Some(f)` pins the format (dispatch for an operand the caller
    /// already holds); `None` lets the planner choose the format too.
    pub format: Option<Format>,
    /// Right-hand-side columns (1 for SpMV; the batch width for
    /// [`Op::SpmmDense`]).
    pub rhs_cols: usize,
    /// Worker threads available to a parallel choice (the executor's
    /// pool size). `1` forces a serial plan.
    pub threads: usize,
    /// Op-specific work override: for [`Op::Spgemm`] the symbolic flop
    /// count `Σ_{(i,k)∈A} nnz(B[k,:])`, which can dwarf either
    /// operand's nnz.
    pub work: Option<u64>,
}

impl PlanRequest {
    /// A free-format request: the planner may recommend CSR, BCSR or
    /// SMASH.
    pub fn free(op: Op, threads: usize) -> Self {
        PlanRequest {
            op,
            format: None,
            rhs_cols: 1,
            threads,
            work: None,
        }
    }

    /// A request pinned to the format of an operand the caller already
    /// holds — the planner only chooses kernel and threads.
    pub fn pinned(op: Op, format: Format, threads: usize) -> Self {
        PlanRequest {
            op,
            format: Some(format),
            rhs_cols: 1,
            threads,
            work: None,
        }
    }

    /// Sets the right-hand-side batch width.
    pub fn with_rhs(mut self, rhs_cols: usize) -> Self {
        self.rhs_cols = rhs_cols.max(1);
        self
    }

    /// Sets the op-specific work override (SpGEMM symbolic flops).
    pub fn with_work(mut self, work: u64) -> Self {
        self.work = Some(work);
        self
    }

    /// The work measure predictions scale with: logical nnz for
    /// SpMV, nnz × RHS width for batched SpMM, the symbolic flop
    /// count for SpGEMM.
    fn predict_work(&self, profile: &MatrixProfile) -> f64 {
        match self.op {
            Op::Spmv => profile.nnz as f64,
            Op::SpmmDense => profile.nnz as f64 * self.rhs_cols.max(1) as f64,
            Op::Spgemm => self.work.unwrap_or(profile.nnz as u64) as f64,
        }
    }

    /// The work measure the **legacy threshold tier** weighed (stored
    /// values, scaled by RHS width / symbolic flops) — kept exactly so
    /// an empty calibration table reproduces the pre-planner dispatch.
    fn fallback_work(&self, profile: &MatrixProfile) -> usize {
        match self.op {
            Op::Spmv => profile.stored_work,
            Op::SpmmDense => profile.stored_work.saturating_mul(self.rhs_cols.max(1)),
            Op::Spgemm => {
                usize::try_from(self.work.unwrap_or(profile.nnz as u64)).unwrap_or(usize::MAX)
            }
        }
    }
}

/// One concrete dispatch choice: which format and how many threads
/// (1 = the serial kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// Storage format of the kernel to run.
    pub format: Format,
    /// Worker threads; `1` names the serial kernel.
    pub threads: usize,
}

impl Choice {
    /// Whether this choice names a thread-pool kernel.
    pub fn parallel(&self) -> bool {
        self.threads > 1
    }
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.threads > 1 {
            write!(f, "{} parallel x{}", self.format, self.threads)
        } else {
            write!(f, "{} serial", self.format)
        }
    }
}

/// The planner's answer: the winning [`Choice`], its predicted cost, and
/// the inputs of its explanation. [`Plan::rationale`] and `Display`
/// render that explanation — the profile, the matched zoo matrix (or why
/// the fallback fired), the winner vs. runner-up scores and the SIMD tier
/// — only when asked; making a plan allocates nothing.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The winning candidate.
    pub choice: Choice,
    /// Predicted nanoseconds of the winner (`f64::NAN` when the
    /// threshold tier decided — it predicts nothing, it compares
    /// against a constant).
    pub score: f64,
    /// `true` when a calibration row decided; `false` when the legacy
    /// threshold tier or a fixed executor mode did.
    pub calibrated: bool,
    /// What decided the plan: the inputs its rationale is rendered from.
    basis: Basis,
}

/// The inputs a [`Plan`]'s rationale is rendered from. None of them
/// costs planning an allocation: names are shared `Arc<str>`s of the
/// [`Planner`], fixed reasons are static.
#[derive(Debug, Clone)]
enum Basis {
    /// A fixed executor mode or the encoder: one static line.
    Fixed(&'static str),
    /// A [`Planner::plan`] decision.
    Planned {
        op: Op,
        profile: MatrixProfile,
        tier: Tier,
        /// The SIMD tier active when the plan was made
        /// (`simd::set_override` can change it later).
        isa: Isa,
        /// The tier the calibration table was measured under, if recorded.
        table_isa: Option<Arc<str>>,
    },
}

/// Which tier of [`Planner::plan`] decided, with what it decided on.
#[derive(Debug, Clone)]
enum Tier {
    /// A calibration row of the nearest zoo matrix won.
    Calibrated {
        matched: Arc<str>,
        distance: f64,
        runner_up: Option<(Choice, f64)>,
    },
    /// The legacy threshold rule decided.
    Threshold {
        reason: Fallback,
        /// The work measure the rule weighed.
        work: usize,
        /// The worker budget the rule weighed.
        threads: usize,
    },
}

/// Why the threshold tier decided instead of a calibration row.
#[derive(Debug, Clone)]
enum Fallback {
    /// The planner has no calibration rows at all.
    EmptyTable,
    /// The nearest zoo matrix lies beyond [`MAX_MATCH_DISTANCE`].
    NoMatch { nearest: Arc<str>, distance: f64 },
    /// The matched zoo matrix has no eligible row for the request,
    /// whose format was pinned to `format` (`None`: free).
    NoRows { format: Option<Format> },
}

impl Plan {
    /// A plan for `choice` that no cost model weighed, explained by
    /// `reason` alone: what the fixed `Serial`/`Parallel` executor modes
    /// and the encoder act on. It predicts nothing.
    pub(crate) fn fixed(choice: Choice, reason: &'static str) -> Plan {
        Plan {
            choice,
            score: f64::NAN,
            calibrated: false,
            basis: Basis::Fixed(reason),
        }
    }

    /// The explanation, rendered now: the profile, the matched zoo
    /// matrix (or why the fallback fired), the winner vs. runner-up
    /// scores, and the SIMD tier active when the plan was made (flagging
    /// a calibration table measured under another one). The same text
    /// as `Display`.
    pub fn rationale(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (op, profile, tier, isa, table_isa) = match &self.basis {
            Basis::Fixed(reason) => return f.write_str(reason),
            Basis::Planned {
                op,
                profile,
                tier,
                isa,
                table_isa,
            } => (op, profile, tier, isa, table_isa),
        };
        write!(f, "{op} over {profile}:\n  ")?;
        match tier {
            Tier::Calibrated {
                matched,
                distance,
                runner_up,
            } => {
                let (choice, score) = (self.choice, self.score);
                write!(
                    f,
                    "calibrated against '{matched}' (feature distance {distance:.2})\n  \
                     -> {choice}: predicted {}",
                    Ns(score)
                )?;
                if let Some((c, s)) = runner_up {
                    write!(
                        f,
                        "\n  runner-up {c}: predicted {} ({:.2}x slower)",
                        Ns(*s),
                        s / score.max(1e-9)
                    )?;
                }
            }
            Tier::Threshold {
                reason,
                work,
                threads,
            } => {
                f.write_str("threshold tier (")?;
                match reason {
                    Fallback::EmptyTable => f.write_str("calibration table is empty")?,
                    Fallback::NoMatch { nearest, distance } => write!(
                        f,
                        "no zoo match (nearest '{nearest}' at distance {distance:.2} > \
                         {MAX_MATCH_DISTANCE})"
                    )?,
                    Fallback::NoRows { format: Some(fmt) } => {
                        write!(f, "no calibration rows for {op} on {fmt}")?
                    }
                    Fallback::NoRows { format: None } => {
                        write!(f, "no calibration rows for op {op}")?
                    }
                }
                f.write_str(")\n  -> ")?;
                let per_worker = AUTO_MIN_ROWS_PER_THREAD * threads;
                if self.choice.parallel() {
                    write!(
                        f,
                        "work {work} >= {AUTO_PARALLEL_NNZ} and rows {} >= {per_worker} \
                         -> parallel x{threads}",
                        profile.rows
                    )?;
                } else if *threads <= 1 {
                    f.write_str("single worker -> serial")?;
                } else if *work < AUTO_PARALLEL_NNZ {
                    write!(f, "work {work} < {AUTO_PARALLEL_NNZ} -> serial")?;
                } else {
                    write!(
                        f,
                        "rows {} < {per_worker} ({AUTO_MIN_ROWS_PER_THREAD} per worker x \
                         {threads}) -> serial",
                        profile.rows
                    )?;
                }
            }
        }
        write!(f, "\n  simd: {}", isa.name())?;
        match table_isa {
            Some(t) if **t != *isa.name() => {
                write!(f, " (calibration table measured under {t})")
            }
            _ => Ok(()),
        }
    }
}

/// The value of the next field of a calibration line, which must read
/// `key=value`; the error says what is wrong with the field.
fn next_value<'a>(parts: &mut dyn Iterator<Item = &'a str>, key: &str) -> Result<&'a str, String> {
    let field = parts.next().ok_or("truncated")?;
    let (k, v) = field.split_once('=').ok_or("want key=value")?;
    if k != key {
        return Err(format!("want {key}=, got {k}="));
    }
    Ok(v)
}

/// One parsed calibration measurement: candidate × zoo matrix →
/// ns-per-unit-of-work.
#[derive(Debug, Clone)]
struct CalRow {
    matrix: usize,
    op: Op,
    format: Format,
    threads: usize,
    ns_per_work: f64,
}

/// The measured cost model: zoo profiles + per-candidate measurements,
/// parsed from the checked-in `planner_calibration.tsv`.
///
/// See the [module docs](self) for the scoring rules and
/// `docs/DISPATCH.md` in the repository for the table format.
#[derive(Debug, Clone, Default)]
pub struct Planner {
    matrices: Vec<ZooMatrix>,
    rows: Vec<CalRow>,
    /// SIMD tier the table's measurements were taken under (`meta isa=…`
    /// record), when the calibrator recorded one. Older tables have none.
    isa: Option<Arc<str>>,
}

/// One calibrated zoo matrix, with its features computed once at parse.
#[derive(Debug, Clone)]
struct ZooMatrix {
    name: Arc<str>,
    profile: MatrixProfile,
    features: Features,
}

impl Planner {
    /// A planner with no calibration data: every [`Planner::plan`] call
    /// lands in the legacy threshold tier, reproducing the pre-planner
    /// `Auto` dispatch exactly (pinned by `tests/planner.rs`).
    pub fn empty() -> Self {
        Planner::default()
    }

    /// The planner over the checked-in calibration table
    /// (`planner_calibration.tsv`, regenerated by
    /// `cargo run --release -p smash-bench --bin planner_calibrate`).
    pub fn built_in() -> Self {
        static TABLE: OnceLock<Planner> = OnceLock::new();
        TABLE
            .get_or_init(|| {
                Planner::from_table(include_str!("planner_calibration.tsv"))
                    .expect("checked-in calibration table must parse")
            })
            .clone()
    }

    /// Parses a calibration table. The format is line-oriented
    /// (`#` comments, `matrix …` profile lines, `row …` measurement
    /// lines with `key=value` fields); see `docs/DISPATCH.md`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn from_table(text: &str) -> Result<Self, String> {
        let mut planner = Planner::default();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("calibration line {}: {what}: {line}", ln + 1);
            let mut parts = line.split_whitespace();
            let kind = parts.next().unwrap_or_default();
            let name = parts.next().ok_or_else(|| err("missing name"))?;
            // Measurements are finite reals; counts are plain integers, so
            // `-3`, `2.7` and `1e3` fail rather than truncate.
            let kv = |key: &str, parts: &mut dyn Iterator<Item = &str>| -> Result<f64, String> {
                next_value(parts, key)
                    .map_err(|what| err(&what))?
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite())
                    .ok_or_else(|| err("bad number"))
            };
            let count =
                |key: &str, parts: &mut dyn Iterator<Item = &str>| -> Result<usize, String> {
                    next_value(parts, key)
                        .map_err(|what| err(&what))?
                        .parse::<usize>()
                        .map_err(|_| err("bad number"))
                };
            match kind {
                "matrix" => {
                    let rows = count("rows", &mut parts)?;
                    let cols = count("cols", &mut parts)?;
                    let nnz = count("nnz", &mut parts)?;
                    let row_mean = kv("row_mean", &mut parts)?;
                    let row_cv = kv("row_cv", &mut parts)?;
                    let row_max = count("row_max", &mut parts)?;
                    let fill = kv("fill8", &mut parts)?;
                    let profile = MatrixProfile {
                        rows,
                        cols,
                        nnz,
                        stored_work: nnz,
                        row_mean,
                        row_cv,
                        row_max,
                        block_fill: Some(fill),
                    };
                    planner.matrices.push(ZooMatrix {
                        name: name.into(),
                        features: profile.features(),
                        profile,
                    });
                }
                "row" => {
                    let matrix = planner
                        .matrices
                        .iter()
                        .position(|m| *m.name == *name)
                        .ok_or_else(|| err("row references unknown matrix"))?;
                    let op_field = parts.next().ok_or_else(|| err("truncated"))?;
                    let op = op_field
                        .strip_prefix("op=")
                        .and_then(Op::parse)
                        .ok_or_else(|| err("bad op"))?;
                    let fmt_field = parts.next().ok_or_else(|| err("truncated"))?;
                    let format = fmt_field
                        .strip_prefix("format=")
                        .and_then(Format::parse)
                        .ok_or_else(|| err("bad format"))?;
                    let threads = count("threads", &mut parts)?;
                    // A candidate key only: the cost model never reads it.
                    count("tile", &mut parts)?;
                    let work = kv("work", &mut parts)?;
                    let ns = kv("ns", &mut parts)?;
                    if work <= 0.0 || ns <= 0.0 || threads == 0 {
                        return Err(err("non-positive measurement"));
                    }
                    planner.rows.push(CalRow {
                        matrix,
                        op,
                        format,
                        threads,
                        ns_per_work: ns / work,
                    });
                }
                "meta" => {
                    // Free-form provenance: every token (including the one
                    // parsed as `name`) is a `key=value` pair; unknown keys
                    // are ignored for forward compatibility.
                    for field in std::iter::once(name).chain(parts) {
                        let (k, v) = field.split_once('=').ok_or_else(|| err("want key=value"))?;
                        if k == "isa" {
                            planner.isa = Some(v.into());
                        }
                    }
                }
                _ => return Err(err("unknown record kind")),
            }
        }
        Ok(planner)
    }

    /// Whether any calibration rows are loaded.
    pub fn is_calibrated(&self) -> bool {
        !self.rows.is_empty()
    }

    /// SIMD tier the calibration table was measured under (its
    /// `meta isa=…` record), if the calibrator recorded one. Plans note
    /// when this differs from the currently active tier, and
    /// `planner_calibrate --check` reports (but tolerates) the mismatch —
    /// predicted *ratios* between candidates transfer across tiers far
    /// better than absolute nanoseconds do.
    pub fn table_isa(&self) -> Option<&str> {
        self.isa.as_deref()
    }

    /// Names of the zoo matrices this planner was calibrated on.
    pub fn zoo_names(&self) -> impl Iterator<Item = &str> {
        self.matrices.iter().map(|m| &*m.name)
    }

    /// The calibrated profile checked in for `zoo` matrix, if present.
    pub fn zoo_profile(&self, name: &str) -> Option<&MatrixProfile> {
        self.matrices
            .iter()
            .find(|m| *m.name == *name)
            .map(|m| &m.profile)
    }

    /// Scores every candidate for `req` against `profile` and returns
    /// the winning [`Plan`].
    ///
    /// Calibrated tier: nearest zoo matrix by [`MatrixProfile::distance`],
    /// then `predicted_ns = ns_per_work × work` per candidate, lowest
    /// wins. Candidates needing more threads than `req.threads` are
    /// ineligible. Fallback tier (empty table / no match within
    /// [`MAX_MATCH_DISTANCE`] / no candidate rows for the op): the
    /// legacy `AUTO_PARALLEL_NNZ` + rows-per-worker thresholds.
    pub fn plan(&self, profile: &MatrixProfile, req: &PlanRequest) -> Plan {
        // Nearest calibrated neighbor, over features computed once; ties
        // go to the earlier zoo matrix.
        let features = profile.features();
        let neighbor = self
            .matrices
            .iter()
            .enumerate()
            .map(|(i, m)| (i, m, feature_distance(&features, &m.features)))
            .min_by(|a, b| a.2.total_cmp(&b.2));
        let matched = neighbor.filter(|&(_, _, d)| d <= MAX_MATCH_DISTANCE);

        if let Some((mi, m, distance)) = matched {
            let work = req.predict_work(profile);
            let scored = self
                .rows
                .iter()
                .filter(|r| {
                    r.matrix == mi
                        && r.op == req.op
                        && (r.threads == 1 || (req.threads > 1 && r.threads <= req.threads))
                        && req.format.is_none_or(|f| f == r.format)
                })
                .map(|r| {
                    (
                        Choice {
                            format: r.format,
                            threads: r.threads,
                        },
                        r.ns_per_work * work,
                    )
                });
            // Winner and runner-up in one pass, in the order a stable sort
            // by score would give them: ties go to the earlier row.
            let mut best: Option<(Choice, f64)> = None;
            let mut second: Option<(Choice, f64)> = None;
            for cand in scored {
                match best {
                    Some(b) if cand.1.total_cmp(&b.1).is_ge() => {
                        if second.is_none_or(|s| cand.1.total_cmp(&s.1).is_lt()) {
                            second = Some(cand);
                        }
                    }
                    _ => {
                        second = best;
                        best = Some(cand);
                    }
                }
            }
            if let Some((choice, score)) = best {
                let tier = Tier::Calibrated {
                    matched: m.name.clone(),
                    distance,
                    runner_up: second,
                };
                return self.planned(choice, score, req.op, profile, tier);
            }
        }

        // The legacy threshold tier: exactly the pre-planner `Auto` rule.
        let work = req.fallback_work(profile);
        let threads = req.threads;
        let wide = threads > 1
            && work >= AUTO_PARALLEL_NNZ
            && profile.rows >= AUTO_MIN_ROWS_PER_THREAD * threads;
        let choice = Choice {
            format: req.format.unwrap_or(Format::Csr),
            threads: if wide { threads } else { 1 },
        };
        // A calibrated table names at least one zoo matrix, so an
        // unmatched request always has a nearest one.
        let reason = match neighbor {
            _ if !self.is_calibrated() => Fallback::EmptyTable,
            Some((_, m, distance)) if matched.is_none() => Fallback::NoMatch {
                nearest: m.name.clone(),
                distance,
            },
            _ => Fallback::NoRows { format: req.format },
        };
        let tier = Tier::Threshold {
            reason,
            work,
            threads,
        };
        self.planned(choice, f64::NAN, req.op, profile, tier)
    }

    /// A [`Planner::plan`] answer, recording the SIMD tier active now.
    fn planned(
        &self,
        choice: Choice,
        score: f64,
        op: Op,
        profile: &MatrixProfile,
        tier: Tier,
    ) -> Plan {
        Plan {
            choice,
            score,
            calibrated: matches!(tier, Tier::Calibrated { .. }),
            basis: Basis::Planned {
                op,
                profile: profile.clone(),
                tier,
                isa: smash_matrix::simd::active(),
                table_isa: self.isa.clone(),
            },
        }
    }
}

/// Nanoseconds at a readable scale: `1.23 ms`, `45.6 us` or `789 ns`.
struct Ns(f64);

impl fmt::Display for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1e6 {
            write!(f, "{:.2} ms", ns / 1e6)
        } else if ns >= 1e3 {
            write!(f, "{:.1} us", ns / 1e3)
        } else {
            write!(f, "{ns:.0} ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_core::{SmashConfig, SmashMatrix};
    use smash_matrix::generators;

    #[test]
    fn smash_profile_counts_the_nza_once_with_the_same_bits() {
        for (a, ratios) in [
            (generators::clustered(96, 80, 900, 4, 3), &[2u32, 4][..]),
            (generators::power_law(64, 64, 700, 1.3, 5), &[4][..]),
            (generators::uniform(8, 8, 0, 1), &[2][..]),
        ] {
            let sm = SmashMatrix::encode(&a, SmashConfig::row_major(ratios).unwrap());
            let block = sm.config().block_size();
            let per_line = sm
                .line_block_starts()
                .windows(2)
                .map(|w| (w[1] - w[0]) as usize * block);
            let mut want = MatrixProfile::from_row_lengths(
                sm.line_count().max(1),
                sm.cols(),
                sm.nnz(),
                sm.nza().len(),
                per_line,
            )
            .with_shape(sm.rows(), sm.cols());
            want.block_fill = Some(sm.locality_of_sparsity());
            let got = MatrixProfile::of_smash(&sm);
            assert_eq!(got, want, "{ratios:?}");
            assert_eq!(
                got.block_fill.map(f64::to_bits),
                want.block_fill.map(f64::to_bits),
                "{ratios:?}"
            );
        }
    }

    const TABLE: &str = "\
# test table
matrix small rows=64 cols=64 nnz=512 row_mean=8.0 row_cv=0.2 row_max=12 fill8=0.4
matrix big rows=4096 cols=4096 nnz=400000 row_mean=97.6 row_cv=0.5 row_max=300 fill8=0.6
row small op=spmv format=csr threads=1 tile=1 work=512 ns=600
row small op=spmv format=csr threads=4 tile=1 work=512 ns=9000
row big op=spmv format=csr threads=1 tile=1 work=400000 ns=800000
row big op=spmv format=csr threads=4 tile=1 work=400000 ns=260000
row big op=spmv format=smash threads=1 tile=1 work=400000 ns=500000
";

    fn profile(rows: usize, cols: usize, nnz: usize) -> MatrixProfile {
        let a = generators::uniform(rows, cols, nnz, 3);
        MatrixProfile::of_csr(&a).with_block_fill(&a)
    }

    #[test]
    fn parses_and_scores_the_table() {
        let p = Planner::from_table(TABLE).unwrap();
        assert!(p.is_calibrated());
        assert_eq!(p.zoo_names().collect::<Vec<_>>(), vec!["small", "big"]);

        // A big matrix matches 'big'; parallel csr is its cheapest row.
        let plan = p.plan(
            &profile(4096, 4096, 380_000),
            &PlanRequest::pinned(Op::Spmv, Format::Csr, 4),
        );
        assert!(plan.calibrated);
        assert_eq!(plan.choice.threads, 4);
        assert!(plan.rationale().contains("'big'"), "{}", plan.rationale());

        // Free-format: the smash serial row (500k ns) loses to parallel
        // csr (260k ns), wins over serial csr.
        let plan = p.plan(
            &profile(4096, 4096, 380_000),
            &PlanRequest::free(Op::Spmv, 4),
        );
        assert_eq!(plan.choice.format, Format::Csr);
        assert!(
            plan.rationale().contains("runner-up smash serial"),
            "{}",
            plan.rationale()
        );

        // With one worker the parallel rows are ineligible.
        let plan = p.plan(
            &profile(4096, 4096, 380_000),
            &PlanRequest::free(Op::Spmv, 1),
        );
        assert_eq!(plan.choice.threads, 1);
        assert_eq!(plan.choice.format, Format::Smash);
    }

    #[test]
    fn small_matrices_match_the_small_neighbor_and_stay_serial() {
        let p = Planner::from_table(TABLE).unwrap();
        let plan = p.plan(
            &profile(64, 64, 500),
            &PlanRequest::pinned(Op::Spmv, Format::Csr, 4),
        );
        assert!(plan.calibrated);
        assert_eq!(plan.choice.threads, 1, "{}", plan.rationale());
        assert!(plan.rationale().contains("'small'"));
    }

    #[test]
    fn meta_isa_record_parses_and_flows_into_rationale() {
        let with_meta = format!("meta isa=scalar build=test\n{TABLE}");
        let p = Planner::from_table(&with_meta).unwrap();
        assert_eq!(p.table_isa(), Some("scalar"));

        // No meta record (older tables): no provenance, still valid.
        let bare = Planner::from_table(TABLE).unwrap();
        assert_eq!(bare.table_isa(), None);

        // Malformed meta fields are rejected, unknown keys are ignored.
        assert!(Planner::from_table("meta isa\n").is_err());
        assert_eq!(
            Planner::from_table("meta vendor=acme\n")
                .unwrap()
                .table_isa(),
            None
        );

        // Every rationale (calibrated or threshold) names the active tier,
        // and a mismatched table is called out.
        let active = smash_matrix::simd::active().name();
        let plan = p.plan(
            &profile(4096, 4096, 380_000),
            &PlanRequest::pinned(Op::Spmv, Format::Csr, 4),
        );
        assert!(
            plan.rationale().contains(&format!("simd: {active}")),
            "{}",
            plan.rationale()
        );
        if active != "scalar" {
            assert!(
                plan.rationale()
                    .contains("calibration table measured under scalar"),
                "{}",
                plan.rationale()
            );
        }
        let plan = Planner::empty().plan(
            &profile(64, 64, 500),
            &PlanRequest::pinned(Op::Spmv, Format::Csr, 1),
        );
        assert!(
            plan.rationale().contains(&format!("simd: {active}")),
            "{}",
            plan.rationale()
        );
    }

    #[test]
    fn unknown_ops_fall_back_to_thresholds() {
        let p = Planner::from_table(TABLE).unwrap();
        let plan = p.plan(
            &profile(4096, 4096, 380_000),
            &PlanRequest::pinned(Op::Spgemm, Format::Csr, 4).with_work(1_000_000),
        );
        assert!(!plan.calibrated);
        // 1M flops >= threshold, 4096 rows >= 16 -> parallel.
        assert_eq!(plan.choice.threads, 4);
        assert!(
            plan.rationale().contains("threshold tier"),
            "{}",
            plan.rationale()
        );
    }

    #[test]
    fn dynamic_ops_fall_back_to_thresholds_without_panicking() {
        // The checked-in calibration table has no rows for the dynamic
        // format — every plan must land in the threshold tier with the
        // standard rationale, never a MAX_MATCH_DISTANCE mis-match or a
        // panic, and without requiring new measurements.
        let p = Planner::from_table(TABLE).unwrap();
        for (op, rhs) in [(Op::Spmv, 1usize), (Op::SpmmDense, 8)] {
            let plan = p.plan(
                &profile(4096, 4096, 380_000),
                &PlanRequest::pinned(op, Format::Dynamic, 4).with_rhs(rhs),
            );
            assert!(!plan.calibrated, "{op}: {}", plan.rationale());
            assert_eq!(plan.choice.format, Format::Dynamic);
            // 380k stored work >= threshold, 4096 rows >= 16 -> parallel.
            assert_eq!(plan.choice.threads, 4, "{op}: {}", plan.rationale());
            assert!(
                plan.rationale().contains("threshold tier"),
                "{op}: {}",
                plan.rationale()
            );
            assert!(
                plan.rationale()
                    .contains(&format!("no calibration rows for {op} on dynamic")),
                "{op}: {}",
                plan.rationale()
            );
        }
        // Round-trip the format name through the table grammar.
        assert_eq!(Format::parse("dynamic"), Some(Format::Dynamic));
        assert_eq!(Format::Dynamic.name(), "dynamic");
    }

    #[test]
    fn empty_planner_reproduces_the_threshold_rule() {
        let p = Planner::empty();
        for (rows, nnz, threads, want_par) in [
            (8usize, 64usize, 4usize, false),
            (2, 1_000_000, 4, false),
            (4 * 4, AUTO_PARALLEL_NNZ, 4, true),
            (4096, AUTO_PARALLEL_NNZ - 1, 4, false),
            (4096, 1 << 20, 1, false),
        ] {
            let mut prof = profile(rows.max(2), 64, nnz.min(rows.max(2) * 64));
            // Override with the exact quantities the threshold weighs.
            prof.rows = rows;
            prof.stored_work = nnz;
            let plan = p.plan(&prof, &PlanRequest::pinned(Op::Spmv, Format::Csr, threads));
            assert!(!plan.calibrated);
            assert_eq!(
                plan.choice.parallel(),
                want_par,
                "rows {rows} nnz {nnz} threads {threads}: {}",
                plan.rationale()
            );
        }
    }

    #[test]
    fn built_in_table_parses_and_covers_every_op() {
        let p = Planner::built_in();
        assert!(p.is_calibrated());
        for op in [Op::Spmv, Op::SpmmDense, Op::Spgemm] {
            assert!(
                p.rows.iter().any(|r| r.op == op),
                "checked-in table has no rows for {op}"
            );
        }
        // Every zoo matrix has both a serial and a parallel spmv row, so
        // the planner can always compare the two tiers.
        for (i, ZooMatrix { name, .. }) in p.matrices.iter().enumerate() {
            let serial = p
                .rows
                .iter()
                .any(|r| r.matrix == i && r.op == Op::Spmv && r.threads == 1);
            let par = p
                .rows
                .iter()
                .any(|r| r.matrix == i && r.op == Op::Spmv && r.threads > 1);
            assert!(serial && par, "zoo matrix {name} missing spmv tiers");
        }
    }

    #[test]
    fn profiles_of_all_formats_describe_the_same_matrix() {
        let a = generators::clustered(256, 256, 8_000, 4, 9);
        let csr = MatrixProfile::of_csr(&a).with_block_fill(&a);
        let bcsr = MatrixProfile::of_bcsr(&Bcsr::from_csr(&a, 2, 2).unwrap());
        let sm = MatrixProfile::of_smash(&SmashMatrix::encode(
            &a,
            SmashConfig::row_major(&[2, 4]).unwrap(),
        ));
        for p in [&csr, &bcsr, &sm] {
            assert_eq!((p.rows, p.cols, p.nnz), (256, 256, a.nnz()));
            assert!(p.stored_work >= p.nnz);
        }
        assert_eq!(csr.stored_work, a.nnz());
        // The formats stay close in feature space: same matrix, padded
        // row statistics notwithstanding.
        assert!(csr.distance(&bcsr) < 0.5, "{}", csr.distance(&bcsr));
        assert!(csr.distance(&sm) < 0.5, "{}", csr.distance(&sm));
    }

    #[test]
    fn density_classes_band_correctly() {
        let mut p = profile(1000, 1000, 50);
        assert_eq!(p.density_class(), DensityClass::Hypersparse);
        p.nnz = 5_000;
        assert_eq!(p.density_class(), DensityClass::Sparse);
        p.nnz = 50_000;
        assert_eq!(p.density_class(), DensityClass::Moderate);
        p.nnz = 500_000;
        assert_eq!(p.density_class(), DensityClass::Dense);
    }

    #[test]
    fn count_fields_parse_as_plain_integers() {
        let matrix = "matrix a rows=1 cols=1 nnz=1 row_mean=1 row_cv=0 row_max=1 fill8=0.5";
        let row = "row a op=spmv format=csr threads=1 tile=1 work=1 ns=1";
        assert!(Planner::from_table(&format!("{matrix}\n{row}")).is_ok());
        for (line, key) in [
            (matrix, "rows"),
            (matrix, "cols"),
            (matrix, "nnz"),
            (matrix, "row_max"),
            (row, "threads"),
            (row, "tile"),
        ] {
            for bad in ["-3", "2.7", "1e3"] {
                let line = line.replace(&format!(" {key}=1 "), &format!(" {key}={bad} "));
                let table = if line.starts_with("row") {
                    format!("{matrix}\n{line}")
                } else {
                    line
                };
                let e = Planner::from_table(&table).unwrap_err();
                assert!(
                    e.contains("bad number") && e.contains(bad),
                    "{key}={bad}: {e}"
                );
            }
        }
    }

    /// The pre-cached decision, as a reference: the zoo scanned with
    /// [`MatrixProfile::distance`] per matrix, the eligible rows
    /// stable-sorted by score, the threshold rule otherwise.
    fn reference_decision(
        p: &Planner,
        profile: &MatrixProfile,
        req: &PlanRequest,
    ) -> (Choice, f64, bool) {
        let neighbor = p
            .matrices
            .iter()
            .enumerate()
            .map(|(i, m)| (i, profile.distance(&m.profile)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((mi, _)) = neighbor.filter(|&(_, d)| d <= MAX_MATCH_DISTANCE) {
            let work = req.predict_work(profile);
            let mut scored: Vec<(Choice, f64)> = p
                .rows
                .iter()
                .filter(|r| {
                    r.matrix == mi
                        && r.op == req.op
                        && (r.threads == 1 || (req.threads > 1 && r.threads <= req.threads))
                        && req.format.is_none_or(|f| f == r.format)
                })
                .map(|r| {
                    let choice = Choice {
                        format: r.format,
                        threads: r.threads,
                    };
                    (choice, r.ns_per_work * work)
                })
                .collect();
            scored.sort_by(|a, b| a.1.total_cmp(&b.1));
            if let Some(&(choice, score)) = scored.first() {
                return (choice, score, true);
            }
        }
        let work = req.fallback_work(profile);
        let wide = req.threads > 1
            && work >= AUTO_PARALLEL_NNZ
            && profile.rows >= AUTO_MIN_ROWS_PER_THREAD * req.threads;
        let choice = Choice {
            format: req.format.unwrap_or(Format::Csr),
            threads: if wide { req.threads } else { 1 },
        };
        (choice, f64::NAN, false)
    }

    /// SplitMix64: a dependency-free stream for the equivalence sweep.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Log-uniform in `[1, hi]`.
        fn log_size(&mut self, hi: usize) -> usize {
            ((hi as f64).powf(self.unit()) as usize).max(1)
        }
    }

    /// A zoo profile as is, a zoo profile perturbed, or a random one;
    /// block fill present or not.
    fn random_profile(rng: &mut Rng, zoo: &[&MatrixProfile]) -> MatrixProfile {
        let base = zoo[rng.next() as usize % zoo.len()];
        let mut p = match rng.next() % 3 {
            0 => base.clone(),
            1 => {
                let mut scale = |n: usize| ((n as f64) * (0.5 + 1.5 * rng.unit())) as usize;
                let mut p = base.clone();
                p.nnz = scale(p.nnz);
                p.rows = scale(p.rows).max(1);
                p.row_max = scale(p.row_max);
                p.stored_work = p.nnz;
                p
            }
            _ => {
                let (rows, cols) = (rng.log_size(20_000), rng.log_size(20_000));
                let nnz = rng.log_size(rows * cols);
                let row_mean = nnz as f64 / rows as f64;
                MatrixProfile {
                    rows,
                    cols,
                    nnz,
                    stored_work: nnz + rng.log_size(nnz) - 1,
                    row_mean,
                    row_cv: 4.0 * rng.unit(),
                    row_max: (row_mean * (1.0 + 8.0 * rng.unit())) as usize,
                    block_fill: Some(rng.unit()),
                }
            }
        };
        if rng.next().is_multiple_of(3) {
            p.block_fill = None;
        }
        p
    }

    #[test]
    fn plans_decide_exactly_as_the_per_matrix_distance_scan() {
        // Two zoo matrices with one profile and rows with equal scores:
        // exact distance ties go to the earlier matrix, score ties to the
        // earlier row.
        let ties = "\
matrix first rows=64 cols=64 nnz=512 row_mean=8.0 row_cv=0.2 row_max=12 fill8=0.4
matrix twin rows=64 cols=64 nnz=512 row_mean=8.0 row_cv=0.2 row_max=12 fill8=0.4
row first op=spmv format=csr threads=1 tile=1 work=512 ns=600
row first op=spmv format=smash threads=1 tile=1 work=512 ns=600
row first op=spmv format=csr threads=2 tile=1 work=256 ns=300
row twin op=spmv format=bcsr threads=1 tile=1 work=512 ns=100
row first op=spmm_dense format=bcsr threads=4 tile=8 work=4096 ns=900
row first op=spmm_dense format=csr threads=4 tile=8 work=4096 ns=900
";
        let planners = [
            Planner::built_in(),
            Planner::from_table(TABLE).unwrap(),
            Planner::from_table(ties).unwrap(),
            Planner::empty(),
        ];
        let built_in = Planner::built_in();
        let zoo: Vec<&MatrixProfile> = built_in
            .matrices
            .iter()
            .chain(&planners[1].matrices)
            .map(|m| &m.profile)
            .collect();
        let formats = [
            None,
            Some(Format::Csr),
            Some(Format::Bcsr),
            Some(Format::Smash),
            Some(Format::Dynamic),
        ];
        let mut rng = Rng(29);
        let (mut calibrated, mut threshold) = (0usize, 0usize);
        for _ in 0..120 {
            let profile = random_profile(&mut rng, &zoo);
            for planner in &planners {
                for op in [Op::Spmv, Op::SpmmDense, Op::Spgemm] {
                    for format in formats {
                        for threads in [1, 2, 4, 8] {
                            for rhs in [1, 8] {
                                let mut req = PlanRequest {
                                    op,
                                    format,
                                    rhs_cols: 1,
                                    threads,
                                    work: None,
                                }
                                .with_rhs(rhs);
                                if op == Op::Spgemm && rhs > 1 {
                                    req = req.with_work(profile.nnz as u64 * 7);
                                }
                                let plan = planner.plan(&profile, &req);
                                let (choice, score, cal) =
                                    reference_decision(planner, &profile, &req);
                                assert_eq!(plan.choice, choice, "{req:?} over {profile:?}");
                                assert_eq!(
                                    plan.score.to_bits(),
                                    score.to_bits(),
                                    "{req:?} over {profile:?}"
                                );
                                assert_eq!(plan.calibrated, cal, "{req:?} over {profile:?}");
                                if cal {
                                    calibrated += 1;
                                } else {
                                    threshold += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        // The sweep reaches both tiers.
        assert!(
            calibrated > 1_000 && threshold > 1_000,
            "{calibrated} {threshold}"
        );
        // The twin profile ties at distance 0: the earlier matrix wins, and
        // its score tie goes to its earlier row.
        let twin = planners[2].zoo_profile("twin").unwrap();
        let plan = planners[2].plan(twin, &PlanRequest::free(Op::Spmv, 1));
        assert!(plan.rationale().contains("'first'"), "{plan}");
        assert_eq!(plan.choice.format, Format::Csr, "{plan}");
        assert!(
            plan.rationale().contains("runner-up smash serial"),
            "{plan}"
        );
        let plan = planners[2].plan(twin, &PlanRequest::free(Op::SpmmDense, 4).with_rhs(8));
        assert_eq!(plan.choice.format, Format::Bcsr, "{plan}");
    }

    #[test]
    fn built_in_table_loads_every_row() {
        let text = include_str!("planner_calibration.tsv");
        let p = Planner::built_in();
        let count = |kind: &str| text.lines().filter(|l| l.starts_with(kind)).count();
        assert_eq!(p.rows.len(), count("row "));
        assert_eq!(p.matrices.len(), count("matrix "));
    }

    #[test]
    fn malformed_tables_are_rejected_with_line_numbers() {
        for bad in [
            "matrix a rows=1",
            "row ghost op=spmv format=csr threads=1 tile=1 work=1 ns=1",
            "matrix a rows=1 cols=1 nnz=1 row_mean=1 row_cv=0 row_max=1 fill8=0.5\nrow a op=nope format=csr threads=1 tile=1 work=1 ns=1",
            "frobnicate a b c",
            "matrix a rows=inf cols=1 nnz=1 row_mean=1 row_cv=0 row_max=1 fill8=0.5",
            "matrix a rows=1 cols=1 nnz=1 row_mean=1 row_cv=0 row_max=1 fill8=0.5\nrow a op=spmv format=csr threads=1 tile=1 work=1 ns=-nan",
            "matrix a rows=1 cols=1 nnz=1 row_mean=1 row_cv=0 row_max=1 fill8=0.5\nrow a op=spmv format=csr threads=1 tile=1 work=1 ns=nan",
            "matrix a rows=1 cols=1 nnz=1 row_mean=1 row_cv=0 row_max=1 fill8=0.5\nrow a op=spmv format=csr threads=1 tile=1 work=inf ns=1",
        ] {
            assert!(Planner::from_table(bad).is_err(), "{bad}");
        }
    }
}
