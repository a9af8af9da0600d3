//! The unified **executor** layer: one entry point per operation over
//! *format × precision × serial/parallel*.
//!
//! Callers hand an [`Executor`] any supported operand format — [`Csr`],
//! [`Bcsr`](smash_matrix::Bcsr), a compressed [`SmashMatrix`] or a
//! [`DynamicMatrix`](smash_core::DynamicMatrix) overlay — at any
//! [`Scalar`] precision. The operand's
//! [`RowRead`](smash_matrix::RowRead) view feeds one serial/parallel
//! driver pair (`spmv_rows` / `par_spmv_rows` and their dense-SpMM
//! twins); there is no per-format kernel function in between.
//!
//! Each op (`spmv`, `spmm_dense`, `spgemm`) has **one dispatch body**
//! shared by two tiers:
//!
//! * the panicking tier (`spmv`, …) for trusted operands checks
//!   dimensions only and panics with the typed [`SmashError`]'s message;
//! * the fallible `try_*` tier for untrusted input adds the structural
//!   `validate`, the [`NonFinitePolicy`] scan and the [`MemoryBudget`],
//!   and returns the error and an [`ExecReport`] as values.
//!
//! Both tiers act on the same [`Plan`] and run the same degradation
//! ladder: a panic on the pool is reported and retried serially.
//! Encoding has only the fallible tier, [`Executor::try_encode`], which
//! validates untrusted input before the one encoder
//! [`SmashMatrix::encode`]; trusted input calls that encoder directly.
//!
//! Three [`ExecMode`]s exist:
//!
//! * [`ExecMode::Serial`] — a plan pinned to one thread; nothing is
//!   profiled.
//! * [`ExecMode::Parallel`] — a plan pinned to the whole pool (worker
//!   count from [`SMASH_THREADS`](smash_parallel::THREADS_ENV) or the
//!   available cores); nothing is profiled.
//! * [`ExecMode::Auto`] — per-call choice delegated to the measured
//!   cost-model [`Planner`]: the operand is
//!   profiled ([`MatrixProfile`]) and
//!   scored against the checked-in calibration table; when no
//!   calibration row matches, the legacy shape/nnz threshold tier
//!   ([`AUTO_PARALLEL_NNZ`], [`AUTO_MIN_ROWS_PER_THREAD`]) decides,
//!   exactly as before the planner existed. `Executor::plan_*` expose
//!   the decision — with the inputs of its rationale, rendered on
//!   request — without running anything.
//!
//! **Determinism guarantee:** because every parallel driver in
//! `smash-parallel` is bit-identical to its serial counterpart, the
//! executor's output is bit-identical across all three modes, every
//! thread count, and both precisions — `Auto` never trades accuracy for
//! speed.
//!
//! # Example
//!
//! ```
//! use smash_kernels::Executor;
//! use smash_matrix::generators;
//!
//! let a = generators::uniform(64, 64, 400, 1);
//! let x = vec![1.0f64; 64];
//! let mut y = vec![0.0f64; 64];
//! let exec = Executor::auto();
//! exec.spmv(&a, &x, &mut y);            // same entry point for every format
//!
//! let mut serial = vec![0.0f64; 64];
//! Executor::serial().spmv(&a, &x, &mut serial);
//! assert_eq!(y, serial);                // bit-identical across modes
//! ```

use crate::error::{panic_detail, SmashError};
pub use crate::operand::SpmvOperand;
use crate::planner::{Choice, Format, MatrixProfile, Op, Plan, PlanRequest, Planner};
use smash_core::{SmashConfig, SmashMatrix};
use smash_matrix::{spmm_dense_rows, spmv_rows, Csr, Dense, Scalar};
use smash_parallel::{
    default_threads, par_spmm_dense_rows, par_spmv_rows, threads_from_env, ThreadPool,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Minimum work items before the **threshold fallback tier** reaches for
/// the thread pool: below this, partitioning + wakeup overhead dominates
/// the kernel. Since the planner refactor this constant only decides when
/// no calibration row matches the operand (see
/// [`Planner`]).
pub const AUTO_PARALLEL_NNZ: usize = 16_384;

/// Minimum rows-per-worker before the threshold fallback tier
/// parallelizes: with fewer, the contiguous row ranges are too small to
/// amortize dispatch.
pub const AUTO_MIN_ROWS_PER_THREAD: usize = 4;

/// Serial/parallel dispatch policy of an [`Executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Always run the single-threaded driver.
    Serial,
    /// Always plan the whole pool (a one-worker pool runs the serial
    /// driver).
    Parallel,
    /// Decide per call from the operand's shape and density.
    Auto,
}

/// A cap on the **transient engine memory** (accumulators plus per-chunk
/// staging) an [`Executor::try_spgemm`] run may allocate. The exact-sized
/// output itself is exempt — the budget bounds what the engine uses *on
/// top of* the result the caller asked for.
///
/// Two flavours: [`reject_over`](Self::reject_over) fails an over-budget
/// product with [`SmashError::ResourceExhausted`];
/// [`degrade_over`](Self::degrade_over) instead re-plans it as a serial
/// row-chunked streaming run ([`crate::spgemm::spgemm_chunked`]) whose
/// peak scratch stays within the cap — bit-identical output, reported in
/// the [`ExecReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    bytes: u64,
    degrade: bool,
}

impl MemoryBudget {
    /// A budget that fails over-budget operations with
    /// [`SmashError::ResourceExhausted`].
    pub fn reject_over(bytes: u64) -> Self {
        MemoryBudget {
            bytes,
            degrade: false,
        }
    }

    /// A budget that degrades over-budget operations to a row-chunked
    /// streaming execution capped at `bytes` of scratch.
    pub fn degrade_over(bytes: u64) -> Self {
        MemoryBudget {
            bytes,
            degrade: true,
        }
    }

    /// The cap in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether over-budget operations degrade to chunked execution
    /// instead of failing.
    pub fn degrades(&self) -> bool {
        self.degrade
    }
}

/// How the fallible `try_*` tier treats NaN/±infinity in operand
/// values. The panicking tier never scans values and always propagates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NonFinitePolicy {
    /// IEEE semantics: non-finite inputs flow through the arithmetic.
    #[default]
    Propagate,
    /// `try_*` calls scan operand values up front and fail with
    /// [`SmashError::NonFinite`] before running any kernel.
    Reject,
}

/// One rung of the graceful-degradation ladder a `try_*` call descended,
/// reported in its [`ExecReport`] (and rendered after the plan's
/// rationale by its `Display`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degradation {
    /// The parallel kernel panicked; the call was retried serially.
    WorkerPanic {
        /// The stringified panic payload.
        detail: String,
    },
    /// The executor wanted a pool but has none (spawn failed at
    /// construction); the call ran serially.
    PoolUnavailable {
        /// Why the pool is missing.
        detail: String,
    },
    /// The product exceeded the [`MemoryBudget`] and ran as a serial
    /// row-chunked streaming execution instead.
    ChunkedSpgemm {
        /// Number of row chunks the run was split into.
        chunks: usize,
        /// Peak transient scratch of the chunked run (≤ the budget).
        peak_scratch_bytes: u64,
        /// The budget the run was held to.
        budget_bytes: u64,
    },
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Degradation::WorkerPanic { detail } => {
                write!(
                    f,
                    "degraded: parallel kernel panicked ({detail}), retried serially"
                )
            }
            Degradation::PoolUnavailable { detail } => {
                write!(f, "degraded: pool unavailable ({detail}), ran serially")
            }
            Degradation::ChunkedSpgemm {
                chunks,
                peak_scratch_bytes,
                budget_bytes,
            } => write!(
                f,
                "degraded: over budget, ran as {chunks} serial chunks \
                 (peak scratch {peak_scratch_bytes} of {budget_bytes} bytes)"
            ),
        }
    }
}

/// What a `try_*` call actually did: the [`Plan`] it acted on, plus any
/// degradations taken on the way to the (always correct) result.
/// Its `Display` renders the plan's rationale followed by each
/// degradation (`…; degraded: …`), so the explanation stays
/// self-contained; nothing is rendered unless asked for.
#[derive(Debug)]
pub struct ExecReport {
    /// The dispatch plan the call acted on.
    pub plan: Plan,
    /// The degradation ladder rungs descended, in order. Empty on a clean
    /// run.
    pub degradations: Vec<Degradation>,
}

impl ExecReport {
    /// Whether the call had to degrade from its planned execution.
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty()
    }
}

impl std::fmt::Display for ExecReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.plan)?;
        for d in &self.degradations {
            write!(f, "; {d}")?;
        }
        Ok(())
    }
}

/// Format × precision × serial/parallel dispatcher for the native kernels
/// and their drivers.
///
/// One executor serves every [`Scalar`] precision — it owns a thread pool
/// (for the parallel modes), not per-type state — so a single instance can
/// run an `f64` solve and an `f32` inference pass back to back.
///
/// See the [module docs](self) for the dispatch rules and the determinism
/// guarantee, and [`Executor::spmv`] / [`Executor::spgemm`] for the entry
/// points.
#[derive(Debug)]
pub struct Executor {
    mode: ExecMode,
    /// Present iff `mode` may parallelize (`Parallel` or `Auto`).
    pool: Option<ThreadPool>,
    /// Present iff `mode` is `Auto`: the cost model its per-call
    /// decisions delegate to.
    planner: Option<Planner>,
    /// Why `pool` is `None` although the mode wanted one (resilient
    /// construction after a spawn failure) — reported as a
    /// [`Degradation::PoolUnavailable`] in every call's report.
    pool_error: Option<String>,
    /// Transient-memory cap for `try_spgemm` (`None`: unbounded).
    budget: Option<MemoryBudget>,
    /// NaN/infinity policy of the `try_*` tier.
    nonfinite: NonFinitePolicy,
}

impl Executor {
    fn assemble(mode: ExecMode, pool: Option<ThreadPool>, planner: Option<Planner>) -> Self {
        Executor {
            mode,
            pool,
            planner,
            pool_error: None,
            budget: None,
            nonfinite: NonFinitePolicy::default(),
        }
    }

    /// An executor that always runs the serial drivers, without planning.
    pub fn serial() -> Self {
        Executor::assemble(ExecMode::Serial, None, None)
    }

    /// An executor that always uses the thread pool, sized from
    /// [`SMASH_THREADS`](smash_parallel::THREADS_ENV) (or the available cores when unset).
    pub fn parallel() -> Self {
        Executor::with_threads(default_threads())
    }

    /// An executor that always uses a pool of exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or the OS refuses to spawn a worker.
    /// [`Executor::try_with_threads`] is the fallible front door.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "an executor needs at least one thread");
        Executor::assemble(ExecMode::Parallel, Some(ThreadPool::new(threads)), None)
    }

    /// Fallible [`Executor::with_threads`]: a rejected thread count or an
    /// OS spawn refusal comes back as [`SmashError::PoolUnavailable`]
    /// instead of a panic.
    ///
    /// # Errors
    ///
    /// [`SmashError::PoolUnavailable`] when `threads == 0` or the pool
    /// cannot be spawned.
    pub fn try_with_threads(threads: usize) -> Result<Self, SmashError> {
        if threads == 0 {
            return Err(SmashError::PoolUnavailable {
                detail: "0 worker threads requested".into(),
            });
        }
        let pool = ThreadPool::try_new(threads).map_err(|e| SmashError::PoolUnavailable {
            detail: e.to_string(),
        })?;
        Ok(Executor::assemble(ExecMode::Parallel, Some(pool), None))
    }

    /// Fallible [`Executor::parallel`]: unlike the panicking constructor,
    /// a malformed `SMASH_THREADS` override is rejected with a typed
    /// error instead of being silently replaced by the hardware count.
    ///
    /// # Errors
    ///
    /// [`SmashError::PoolUnavailable`] for a malformed override or a
    /// failed spawn.
    pub fn try_parallel() -> Result<Self, SmashError> {
        let threads = threads_from_env()
            .map_err(|e| SmashError::PoolUnavailable {
                detail: e.to_string(),
            })?
            .unwrap_or_else(default_threads);
        Executor::try_with_threads(threads)
    }

    /// An executor that chooses serial or parallel per call through the
    /// built-in calibrated [`Planner`] (threshold fallback when no
    /// calibration row matches). The pool is sized from
    /// [`SMASH_THREADS`](smash_parallel::THREADS_ENV) (or the available cores), so
    /// `SMASH_THREADS=1` pins `Auto` to serial execution globally.
    pub fn auto() -> Self {
        Executor::auto_with(Planner::built_in())
    }

    /// An `Auto` executor driven by a caller-supplied [`Planner`] —
    /// e.g. [`Planner::empty`] to get the pure threshold dispatch, or a
    /// planner parsed from a site-specific calibration table.
    pub fn auto_with(planner: Planner) -> Self {
        Executor::assemble(
            ExecMode::Auto,
            Some(ThreadPool::new(default_threads())),
            Some(planner),
        )
    }

    /// An `Auto` executor that **degrades instead of panicking** when the
    /// pool cannot be built: on a spawn failure the executor comes up
    /// serial, and every `try_*` call reports the missing pool as a
    /// [`Degradation::PoolUnavailable`] in its [`ExecReport`] — the
    /// construction rung of the degradation ladder.
    pub fn auto_resilient() -> Self {
        let planner = Some(Planner::built_in());
        match ThreadPool::try_new(default_threads()) {
            Ok(pool) => Executor::assemble(ExecMode::Auto, Some(pool), planner),
            Err(e) => {
                let mut exec = Executor::assemble(ExecMode::Auto, None, planner);
                exec.pool_error = Some(e.to_string());
                exec
            }
        }
    }

    /// Sets the transient-memory budget. Only [`Executor::try_spgemm`]
    /// consults it; the panicking [`Executor::spgemm`] runs unbudgeted.
    #[must_use]
    pub fn with_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the NaN/infinity policy of the `try_*` tier (the panicking
    /// tier always propagates).
    #[must_use]
    pub fn with_non_finite_policy(mut self, policy: NonFinitePolicy) -> Self {
        self.nonfinite = policy;
        self
    }

    /// The transient-memory budget, if one is set.
    pub fn budget(&self) -> Option<MemoryBudget> {
        self.budget
    }

    /// The NaN/infinity policy of the `try_*` tier.
    pub fn non_finite_policy(&self) -> NonFinitePolicy {
        self.nonfinite
    }

    /// The planner driving `Auto` decisions (`None` for the fixed
    /// `Serial`/`Parallel` modes).
    pub fn planner(&self) -> Option<&Planner> {
        self.planner.as_ref()
    }

    /// The dispatch mode of this executor.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Worker threads the parallel path would use (1 for a serial
    /// executor).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, ThreadPool::threads)
    }

    /// The plan a call acts on. `Auto` profiles the operand and asks its
    /// planner; the fixed modes pin the request's thread count (1 or the
    /// pool width) without profiling anything.
    fn plan(&self, req: PlanRequest, profile: impl FnOnce() -> MatrixProfile) -> Plan {
        let reason = match (&self.planner, self.mode) {
            (Some(p), _) => return p.plan(&profile(), &req),
            (None, ExecMode::Serial) => "fixed Serial mode: not profiled",
            (None, _) => "fixed Parallel mode: not profiled",
        };
        let choice = Choice {
            format: req.format.unwrap_or(Format::Csr),
            threads: req.threads.max(1),
        };
        Plan::fixed(choice, reason)
    }

    /// A request pinned to `format` over this executor's worker budget.
    fn request(&self, op: Op, format: Format) -> PlanRequest {
        PlanRequest::pinned(op, format, self.threads())
    }

    /// The [`Plan`] — choice, predicted cost, rationale — that
    /// [`Executor::spmv`] would act on for this operand, without running
    /// anything.
    pub fn plan_spmv<'a, T: Scalar>(&self, a: impl Into<SpmvOperand<'a, T>>) -> Plan {
        let a = a.into();
        self.plan(self.request(Op::Spmv, a.format()), || a.profile())
    }

    /// The [`Plan`] that [`Executor::spmm_dense`] would act on for this
    /// operand and a `rhs_cols`-wide batch.
    pub fn plan_spmm_dense<'a, T: Scalar>(
        &self,
        a: impl Into<SpmvOperand<'a, T>>,
        rhs_cols: usize,
    ) -> Plan {
        let a = a.into();
        let req = self.request(Op::SpmmDense, a.format()).with_rhs(rhs_cols);
        self.plan(req, || a.profile())
    }

    /// The [`Plan`] that [`Executor::spgemm`] would act on, including
    /// the symbolic flop count it weighs.
    pub fn plan_spgemm<T: Scalar>(&self, a: &Csr<T>, b: &Csr<T>) -> Plan {
        let req = self
            .request(Op::Spgemm, Format::Csr)
            .with_work(crate::spgemm::stored_work(a, b));
        self.plan(req, || MatrixProfile::of_csr(a))
    }

    /// Sparse matrix-vector product `y = A * x` over any supported format
    /// and precision.
    ///
    /// Runs the serial or parallel driver over the operand's row view per
    /// the executor's [`ExecMode`]; the result is bit-identical whichever
    /// path runs. The trusted-input twin of [`Executor::try_spmv`]: the
    /// same dispatch, without the O(nnz) operand scans.
    ///
    /// # Panics
    ///
    /// Panics with the [`SmashError`] message if `x.len() != a.cols()`,
    /// `y.len() != a.rows()`, or the kernel panics even on the serial
    /// retry (e.g. a column-major SMASH operand).
    ///
    /// # Example
    ///
    /// ```
    /// use smash_core::{SmashConfig, SmashMatrix};
    /// use smash_kernels::Executor;
    /// use smash_matrix::generators;
    ///
    /// let exec = Executor::auto();
    /// let a = generators::banded(96, 96, 3, 500, 7);
    /// let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4])?);
    /// let x = vec![0.5f64; 96];
    /// let (mut y_csr, mut y_sm) = (vec![0.0; 96], vec![0.0; 96]);
    /// exec.spmv(&a, &x, &mut y_csr);   // CSR operand
    /// exec.spmv(&sm, &x, &mut y_sm);   // compressed operand, same call
    /// # Ok::<(), smash_core::SmashError>(())
    /// ```
    pub fn spmv<'a, T: Scalar>(&self, a: impl Into<SpmvOperand<'a, T>>, x: &[T], y: &mut [T]) {
        trusted(self.spmv_body(a.into(), x, y, Validation::Trusted));
    }

    /// Batched sparse × dense multiply `C = A * B` over any supported
    /// sparse format: `B` is a dense batch of right-hand-side columns
    /// (e.g. many concurrent queries against one served matrix), processed
    /// in register-blocked column tiles so the sparse operand is streamed
    /// once per tile instead of once per vector.
    ///
    /// Serial or parallel per the executor's [`ExecMode`]. Under
    /// [`ExecMode::Auto`] the decision weighs the *total* work — stored
    /// values × right-hand sides — so a matrix too small to parallelize
    /// one SpMV can still go wide once enough right-hand sides are
    /// batched. Whichever path runs, the result is bit-identical — and
    /// column `j` of `C` is bit-identical to [`Executor::spmv`] against
    /// column `j` of `B`.
    ///
    /// # Panics
    ///
    /// Panics with the [`SmashError`] message if `b.rows() != a.cols()`,
    /// `c.rows() != a.rows()`, `c.cols() != b.cols()`, or the kernel
    /// panics even on the serial retry.
    ///
    /// # Example
    ///
    /// ```
    /// use smash_kernels::Executor;
    /// use smash_matrix::{generators, Dense};
    ///
    /// let a = generators::banded(64, 64, 3, 400, 7);
    /// let b = Dense::from_vec(64, 8, vec![0.5f64; 64 * 8])?;
    /// let mut c = Dense::zeros(64, 8);
    /// Executor::auto().spmm_dense(&a, &b, &mut c);
    ///
    /// let mut serial = Dense::zeros(64, 8);
    /// Executor::serial().spmm_dense(&a, &b, &mut serial);
    /// assert_eq!(c, serial); // bit-identical across modes
    /// # Ok::<(), smash_matrix::MatrixError>(())
    /// ```
    pub fn spmm_dense<'a, T: Scalar>(
        &self,
        a: impl Into<SpmvOperand<'a, T>>,
        b: &Dense<T>,
        c: &mut Dense<T>,
    ) {
        trusted(self.spmm_dense_body(a.into(), b, c, Validation::Trusted));
    }

    /// Sparse × sparse multiply `C = A · B`, both operands CSR, through
    /// the row-wise Gustavson engine ([`crate::spgemm`]): symbolic sizing,
    /// per-row dense/hash accumulators, direct CSR emission with exact
    /// allocation.
    ///
    /// Under [`ExecMode::Auto`] the serial/parallel decision weighs the
    /// **stored work** `Σ_{(i,k) ∈ A} nnz(B[k,:])` — the flop count
    /// Gustavson actually performs, which for sparse × sparse can dwarf
    /// (or undercut) either operand's nnz. Whichever path runs, the
    /// output is bit-identical — and triplet-exact to the
    /// `Csr::spmm_inner` inner-product oracle. The [`MemoryBudget`] is
    /// not consulted here; [`Executor::try_spgemm`] enforces it.
    ///
    /// # Panics
    ///
    /// Panics with the [`SmashError`] message if `a.cols() != b.rows()`.
    ///
    /// # Example
    ///
    /// ```
    /// use smash_kernels::Executor;
    /// use smash_matrix::generators;
    ///
    /// let a = generators::power_law(96, 96, 1_200, 1.3, 5);
    /// let c = Executor::auto().spgemm(&a, &a);
    /// assert_eq!(c, Executor::serial().spgemm(&a, &a)); // bit-identical
    /// ```
    pub fn spgemm<T: Scalar>(&self, a: &Csr<T>, b: &Csr<T>) -> Csr<T> {
        trusted(self.spgemm_body(a, b, None, Validation::Trusted)).0
    }

    /// Masked sparse × sparse multiply: `A · B` restricted to the stored
    /// pattern of `mask` (its values are ignored). Row `i` accumulates
    /// only the columns of `mask` row `i`, so products outside the mask
    /// never reach an accumulator slot or the output. Every stored entry
    /// is `==` to the same entry of [`Executor::spgemm`] (see the
    /// [`crate::spgemm`] module docs), and the plan is the unmasked one:
    /// `spgemm` on CSR, weighed by the same stored work.
    ///
    /// # Panics
    ///
    /// Panics with the [`SmashError`] message if `a.cols() != b.rows()`
    /// or `mask` is not `a.rows() × b.cols()`.
    ///
    /// # Example
    ///
    /// ```
    /// use smash_kernels::Executor;
    /// use smash_matrix::generators;
    ///
    /// let a = generators::power_law(96, 96, 1_200, 1.3, 5);
    /// let exec = Executor::auto();
    /// let closed = exec.spgemm_masked(&a, &a, &a); // A² on A's pattern
    /// let full = exec.spgemm(&a, &a).to_dense();
    /// for (i, j, v) in closed.iter() {
    ///     assert_eq!(full.get(i, j), v); // exact, not approx
    /// }
    /// ```
    pub fn spgemm_masked<T: Scalar>(&self, a: &Csr<T>, b: &Csr<T>, mask: &Csr<T>) -> Csr<T> {
        trusted(self.spgemm_body(a, b, Some(mask), Validation::Trusted)).0
    }

    /// Fallible [`Executor::spmv`]: validates the operands up front
    /// (dimensions, cached structural [`validate`](Csr::validate), the
    /// [`NonFinitePolicy`]) and reports errors as values. A parallel
    /// kernel panic is caught, reported, and retried serially,
    /// bit-identical to a clean serial run.
    ///
    /// # Errors
    ///
    /// [`SmashError::DimensionMismatch`], [`SmashError::InvalidStructure`]
    /// / [`SmashError::Encoding`] / [`SmashError::Unsupported`] from
    /// operand validation, [`SmashError::NonFinite`] under the `Reject`
    /// policy, [`SmashError::Panicked`] if the serial retry panics too.
    pub fn try_spmv<'a, T: Scalar>(
        &self,
        a: impl Into<SpmvOperand<'a, T>>,
        x: &[T],
        y: &mut [T],
    ) -> Result<ExecReport, SmashError> {
        self.spmv_body(a.into(), x, y, Validation::Checked)
    }

    /// Fallible [`Executor::spmm_dense`]: the batched sparse × dense
    /// product with validated operands and the same degradation ladder as
    /// [`Executor::try_spmv`].
    ///
    /// # Errors
    ///
    /// As [`Executor::try_spmv`], with `B` covered by the non-finite scan
    /// as well.
    pub fn try_spmm_dense<'a, T: Scalar>(
        &self,
        a: impl Into<SpmvOperand<'a, T>>,
        b: &Dense<T>,
        c: &mut Dense<T>,
    ) -> Result<ExecReport, SmashError> {
        self.spmm_dense_body(a.into(), b, c, Validation::Checked)
    }

    /// Fallible [`Executor::spgemm`], the resource-governed one: operands
    /// are validated up front, and when a [`MemoryBudget`] is set the
    /// product's transient engine memory is estimated from the symbolic
    /// bounds **before any allocation** — an over-budget product either
    /// fails with [`SmashError::ResourceExhausted`] or (for a
    /// [`MemoryBudget::degrade_over`] budget) runs as a serial
    /// row-chunked streaming execution with bounded peak scratch,
    /// bit-identical to the unchunked engine. Parallel kernel panics
    /// degrade to a serial retry as in [`Executor::try_spmv`].
    ///
    /// # Errors
    ///
    /// The validation errors of [`Executor::try_spmv`], plus
    /// [`SmashError::ResourceExhausted`] for an over-budget product
    /// without degradation (or one whose single widest row cannot fit
    /// even chunked).
    pub fn try_spgemm<T: Scalar>(
        &self,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<(Csr<T>, ExecReport), SmashError> {
        self.spgemm_body(a, b, None, Validation::Checked)
    }

    /// Fallible [`Executor::spgemm_masked`], governed as
    /// [`Executor::try_spgemm`] is. The mask gets the structural check;
    /// its values are never read, so the non-finite scan skips them.
    /// Under a [`MemoryBudget`] the estimate bounds row `i` by
    /// `min(ub[i], nnz(mask[i]))` entries plus the masked row's dense
    /// scratch, and an over-budget product degrades to the same
    /// bit-identical row-chunked run.
    ///
    /// # Errors
    ///
    /// As [`Executor::try_spgemm`], plus
    /// [`SmashError::DimensionMismatch`] when `mask` is not
    /// `a.rows() × b.cols()`.
    pub fn try_spgemm_masked<T: Scalar>(
        &self,
        a: &Csr<T>,
        b: &Csr<T>,
        mask: &Csr<T>,
    ) -> Result<(Csr<T>, ExecReport), SmashError> {
        self.spgemm_body(a, b, Some(mask), Validation::Checked)
    }

    /// Fallible CSR → SMASH compression for untrusted input: validates
    /// the CSR operand (cached structural check plus the
    /// [`NonFinitePolicy`] scan), then runs [`SmashMatrix::encode`], so
    /// the result is `==` to it in every mode. The report carries a fixed
    /// one-thread SMASH plan: there is one encoder and it is serial.
    ///
    /// # Errors
    ///
    /// [`SmashError::InvalidStructure`] / [`SmashError::NonFinite`] from
    /// validation, [`SmashError::Panicked`] if the encoder panics.
    pub fn try_encode<T: Scalar>(
        &self,
        a: &Csr<T>,
        config: SmashConfig,
    ) -> Result<(SmashMatrix<T>, ExecReport), SmashError> {
        const OP: &str = "encode";
        SpmvOperand::Csr(a).check(OP)?;
        self.check_finite(OP, "A", a.values())?;
        let mut report = self.start_report(Plan::fixed(
            Choice {
                format: Format::Smash,
                threads: 1,
            },
            "encode: the serial encoder; not profiled",
        ));
        let sm = self.run(OP, &mut report, |_| SmashMatrix::encode(a, config.clone()))?;
        Ok((sm, report))
    }

    // ------------------------------------------------------------------
    // One dispatch body per op, shared by both tiers.
    // ------------------------------------------------------------------

    fn spmv_body<T: Scalar>(
        &self,
        a: SpmvOperand<'_, T>,
        x: &[T],
        y: &mut [T],
        v: Validation,
    ) -> Result<ExecReport, SmashError> {
        const OP: &str = "spmv";
        check_dims(OP, (a.cols(), 1), (x.len(), 1))?;
        check_dims(OP, (a.rows(), 1), (y.len(), 1))?;
        if v == Validation::Checked {
            a.check(OP)?;
            self.check_operand_finite(OP, &a)?;
            self.check_finite(OP, "x", x)?;
        }
        let req = self.request(Op::Spmv, a.format());
        let mut report = self.start_report(self.plan(req, || a.profile()));
        let r = a.row_read();
        self.run(OP, &mut report, |pool| match pool {
            Some(p) => par_spmv_rows(p, r, x, y),
            None => spmv_rows(r, x, y),
        })?;
        Ok(report)
    }

    fn spmm_dense_body<T: Scalar>(
        &self,
        a: SpmvOperand<'_, T>,
        b: &Dense<T>,
        c: &mut Dense<T>,
        v: Validation,
    ) -> Result<ExecReport, SmashError> {
        const OP: &str = "spmm_dense";
        check_dims(OP, (a.cols(), b.cols()), (b.rows(), b.cols()))?;
        check_dims(OP, (a.rows(), b.cols()), (c.rows(), c.cols()))?;
        if v == Validation::Checked {
            a.check(OP)?;
            self.check_operand_finite(OP, &a)?;
            self.check_finite(OP, "B", b.as_slice())?;
        }
        let req = self.request(Op::SpmmDense, a.format()).with_rhs(b.cols());
        let mut report = self.start_report(self.plan(req, || a.profile()));
        let r = a.row_read();
        self.run(OP, &mut report, |pool| match pool {
            Some(p) => par_spmm_dense_rows(p, r, b, c),
            None => spmm_dense_rows(r, b, c),
        })?;
        Ok(report)
    }

    fn spgemm_body<T: Scalar>(
        &self,
        a: &Csr<T>,
        b: &Csr<T>,
        mask: Option<&Csr<T>>,
        v: Validation,
    ) -> Result<(Csr<T>, ExecReport), SmashError> {
        const OP: &str = "spgemm";
        check_dims(OP, (a.cols(), b.cols()), (b.rows(), b.cols()))?;
        if let Some(m) = mask {
            check_dims(OP, (a.rows(), b.cols()), (m.rows(), m.cols()))?;
        }
        let mut budget = None;
        if v == Validation::Checked {
            SpmvOperand::Csr(a).check(OP)?;
            SpmvOperand::Csr(b).check(OP)?;
            if let Some(m) = mask {
                SpmvOperand::Csr(m).check(OP)?;
            }
            self.check_finite(OP, "A", a.values())?;
            self.check_finite(OP, "B", b.values())?;
            budget = self.budget;
        }
        // Only a budget needs the per-row bounds; the plan needs the total.
        let (bounds, work) = match budget {
            Some(_) => {
                let (bounds, work) = crate::spgemm::symbolic_bounds(a, b);
                (Some(bounds), work)
            }
            None => (None, crate::spgemm::stored_work(a, b)),
        };
        let req = self.request(Op::Spgemm, Format::Csr).with_work(work);
        let mut report = self.start_report(self.plan(req, || MatrixProfile::of_csr(a)));
        if let (Some(budget), Some(bounds)) = (budget, bounds) {
            let needed = crate::spgemm::estimate_engine_bytes(&bounds, b.cols(), mask);
            if needed > budget.bytes() || Self::budget_fault_injected() {
                if !budget.degrades() {
                    return Err(SmashError::ResourceExhausted {
                        needed,
                        budget: budget.bytes(),
                    });
                }
                let (c, run) = crate::spgemm::spgemm_chunked(a, b, mask, &bounds, budget.bytes())?;
                report.degradations.push(Degradation::ChunkedSpgemm {
                    chunks: run.chunks,
                    peak_scratch_bytes: run.peak_scratch_bytes,
                    budget_bytes: run.budget_bytes,
                });
                return Ok((c, report));
            }
        }
        let c = self.run(OP, &mut report, |pool| match pool {
            Some(p) => crate::spgemm::par_spgemm(p, a, b, mask),
            None => crate::spgemm::spgemm(a, b, mask),
        })?;
        Ok((c, report))
    }

    /// The degradation ladder every op runs: `kernel` gets the pool when
    /// the plan goes wide, and a panic there is reported and retried
    /// serially. The serial drivers overwrite their whole output, so the
    /// retry is bit-identical to a clean serial run.
    fn run<R>(
        &self,
        op: &'static str,
        report: &mut ExecReport,
        mut kernel: impl FnMut(Option<&ThreadPool>) -> R,
    ) -> Result<R, SmashError> {
        if report.plan.choice.parallel() {
            let pool = self.pool.as_ref().expect("a parallel plan implies a pool");
            match catch_unwind(AssertUnwindSafe(|| kernel(Some(pool)))) {
                Ok(out) => return Ok(out),
                Err(payload) => report.degradations.push(Degradation::WorkerPanic {
                    detail: panic_detail(payload.as_ref()),
                }),
            }
        }
        catch_unwind(AssertUnwindSafe(|| kernel(None))).map_err(|payload| SmashError::Panicked {
            op,
            detail: panic_detail(payload.as_ref()),
        })
    }

    /// Starts a report on `plan`, recording up front the construction
    /// rung of the ladder (a pool that failed to spawn) if it applies.
    fn start_report(&self, plan: Plan) -> ExecReport {
        let mut report = ExecReport {
            plan,
            degradations: Vec::new(),
        };
        if let Some(detail) = &self.pool_error {
            report.degradations.push(Degradation::PoolUnavailable {
                detail: detail.clone(),
            });
        }
        report
    }

    /// The [`NonFinitePolicy::Reject`] scan over a matrix operand —
    /// operand-level (not a slice scan) because a dynamic operand's
    /// values live in both its base tier and its overlay.
    fn check_operand_finite<T: Scalar>(
        &self,
        op: &'static str,
        a: &SpmvOperand<'_, T>,
    ) -> Result<(), SmashError> {
        if self.nonfinite == NonFinitePolicy::Reject && !a.values_finite() {
            return Err(SmashError::NonFinite { op, operand: "A" });
        }
        Ok(())
    }

    /// The [`NonFinitePolicy::Reject`] scan over one operand's values.
    fn check_finite<T: Scalar>(
        &self,
        op: &'static str,
        operand: &'static str,
        values: &[T],
    ) -> Result<(), SmashError> {
        if self.nonfinite == NonFinitePolicy::Reject && values.iter().any(|v| !v.is_finite()) {
            return Err(SmashError::NonFinite { op, operand });
        }
        Ok(())
    }

    /// Whether the fault-injection harness forces this budget check to
    /// report exhaustion (always `false` outside the `fault-injection`
    /// feature).
    fn budget_fault_injected() -> bool {
        #[cfg(feature = "fault-injection")]
        {
            smash_parallel::faultinject::should_fail(smash_parallel::faultinject::Site::BudgetCheck)
        }
        #[cfg(not(feature = "fault-injection"))]
        {
            false
        }
    }
}

/// How much operand checking a dispatch body runs before its kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Validation {
    /// The `try_*` tier: dimensions, structural `validate`, the
    /// [`NonFinitePolicy`] scan and the [`MemoryBudget`].
    Checked,
    /// The panicking tier: dimensions only.
    Trusted,
}

/// The panicking tier's unwrap: a [`Validation::Trusted`] body's error
/// becomes a panic carrying its message.
fn trusted<R>(result: Result<R, SmashError>) -> R {
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// A [`SmashError::DimensionMismatch`] unless the shapes agree.
fn check_dims(
    op: &'static str,
    expected: (usize, usize),
    got: (usize, usize),
) -> Result<(), SmashError> {
    if expected == got {
        Ok(())
    } else {
        Err(SmashError::DimensionMismatch { op, expected, got })
    }
}

impl Default for Executor {
    /// The default executor is [`Executor::auto`].
    fn default() -> Self {
        Executor::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_vector;
    use crate::native;
    use smash_matrix::{generators, Bcsr, Coo};

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        panic_detail(payload.as_ref())
    }

    fn modes() -> Vec<(&'static str, Executor)> {
        vec![
            ("serial", Executor::serial()),
            ("parallel", Executor::parallel()),
            ("threads2", Executor::with_threads(2)),
            ("auto", Executor::auto()),
            ("default", Executor::default()),
        ]
    }

    #[test]
    fn all_modes_agree_bitwise_on_all_formats() {
        // Big enough that Auto takes the parallel path for CSR.
        let a = generators::clustered(256, 256, 20_000, 5, 3);
        let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4]).unwrap());
        let x = test_vector::<f64>(a.cols());
        let operands: [(&str, SpmvOperand<'_, f64>); 3] = [
            ("csr", (&a).into()),
            ("bcsr", (&bcsr).into()),
            ("smash", (&sm).into()),
        ];
        for (fmt, op) in operands {
            let mut want = vec![0.0; a.rows()];
            spmv_rows(op.row_read(), &x, &mut want);
            for (mode, exec) in modes() {
                let mut y = vec![f64::NAN; a.rows()];
                exec.spmv(op, &x, &mut y);
                assert_eq!(y, want, "{fmt} via {mode}");
            }
        }
    }

    #[test]
    fn auto_stays_serial_below_the_thresholds() {
        // The empty planner is the threshold tier alone.
        let exec = Executor::auto_with(Planner::empty());
        let wide = |a: &Csr<f64>| exec.plan_spmv(a).choice.parallel();
        // Tiny matrix: never worth dispatching.
        assert!(!wide(&generators::uniform(8, 8, 64, 1)));
        // Heavy but short: row ranges would be degenerate.
        assert!(!wide(&generators::uniform(
            2,
            40_000,
            2 * AUTO_PARALLEL_NNZ,
            2
        )));
        if exec.threads() > 1 {
            let rows = AUTO_MIN_ROWS_PER_THREAD * exec.threads();
            assert!(wide(&generators::uniform(
                rows,
                40_000,
                2 * AUTO_PARALLEL_NNZ,
                3
            )));
        }
    }

    #[test]
    fn serial_mode_reports_one_thread() {
        assert_eq!(Executor::serial().threads(), 1);
        assert_eq!(Executor::serial().mode(), ExecMode::Serial);
        assert_eq!(Executor::with_threads(3).threads(), 3);
    }

    #[test]
    fn spmm_modes_agree() {
        let a = generators::uniform(96, 80, 6_000, 7);
        let b = generators::uniform(80, 64, 4_000, 8).to_csc();
        let want = native::spmm_csr(&a, &b);
        for (mode, exec) in modes() {
            let got = exec.spgemm(&a, &b.to_csr()).to_coo();
            assert_eq!(got.entries(), want.entries(), "{mode}");
        }
    }

    #[test]
    fn encode_modes_agree() {
        // Every mode, at 1, 2 and 8 threads, runs the one serial encoder
        // and says so in its plan.
        let a = generators::power_law(128, 128, 20_000, 1.3, 5);
        let cfg = SmashConfig::row_major(&[2, 4]).unwrap();
        let want = SmashMatrix::encode(&a, cfg.clone());
        let execs = [
            ("serial", Executor::serial()),
            ("threads1", Executor::with_threads(1)),
            ("threads2", Executor::with_threads(2)),
            ("threads8", Executor::with_threads(8)),
            ("auto", Executor::auto()),
            ("auto_empty", Executor::auto_with(Planner::empty())),
        ];
        for (mode, exec) in execs {
            let (sm, report) = exec.try_encode(&a, cfg.clone()).unwrap();
            assert_eq!(sm, want, "{mode}");
            assert_eq!(report.plan.choice.format, Format::Smash, "{mode}");
            assert_eq!(report.plan.choice.threads, 1, "{mode}");
            assert!(!report.plan.calibrated, "{mode}");
        }
    }

    #[test]
    fn executor_is_precision_agnostic() {
        let a64 = generators::uniform(64, 64, 2_000, 9);
        let a32 = a64.cast::<f32>();
        let exec = Executor::auto();
        let mut y64 = vec![0.0f64; 64];
        let mut y32 = vec![0.0f32; 64];
        exec.spmv(&a64, &test_vector::<f64>(64), &mut y64);
        exec.spmv(&a32, &test_vector::<f32>(64), &mut y32);
        for (w, n) in y64.iter().zip(&y32) {
            assert!(n.approx_eq(f32::from_f64(*w), f32::TOLERANCE));
        }
    }

    fn test_batch(rows: usize, cols: usize) -> Dense<f64> {
        generators::dense_batch(rows, cols, 5)
    }

    #[test]
    fn spmm_dense_modes_agree_bitwise_on_all_formats() {
        // Small nnz but many right-hand sides: nnz * cols crosses the Auto
        // threshold, exercising the batched parallel path.
        let a = generators::clustered(256, 256, 8_000, 5, 3);
        let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4]).unwrap());
        let b = test_batch(256, 8);
        let operands: [(&str, SpmvOperand<'_, f64>); 3] = [
            ("csr", (&a).into()),
            ("bcsr", (&bcsr).into()),
            ("smash", (&sm).into()),
        ];
        for (fmt, op) in operands {
            let mut want = Dense::zeros(256, 8);
            spmm_dense_rows(op.row_read(), &b, &mut want);
            for (mode, exec) in modes() {
                let mut got = Dense::zeros(256, 8);
                got.as_mut_slice().fill(f64::NAN);
                exec.spmm_dense(op, &b, &mut got);
                assert_eq!(got, want, "{fmt} via {mode}");
            }
        }
    }

    #[test]
    fn spmm_dense_columns_match_spmv_through_executor() {
        let a = generators::uniform(96, 80, 2_000, 9);
        let b = test_batch(80, 6);
        let exec = Executor::auto();
        let mut c = Dense::zeros(96, 6);
        exec.spmm_dense(&a, &b, &mut c);
        for j in 0..6 {
            let mut y = vec![0.0; 96];
            exec.spmv(&a, &b.col(j), &mut y);
            assert_eq!(c.col(j), y, "column {j}");
        }
    }

    #[test]
    fn auto_weighs_batched_work_by_rhs_count() {
        let exec = Executor::auto_with(Planner::empty());
        if exec.threads() <= 1 {
            return; // single-core host: Auto never parallelizes
        }
        let rows = AUTO_MIN_ROWS_PER_THREAD * exec.threads();
        let a = generators::uniform(rows, 4_096, AUTO_PARALLEL_NNZ / 8, 4);
        // One vector of work below the threshold...
        assert!(!exec.plan_spmm_dense(&a, 1).choice.parallel());
        // ...crosses it once 8 right-hand sides are batched (the plan
        // multiplies stored work by the batch width).
        assert!(exec.plan_spmm_dense(&a, 8).choice.parallel());
    }

    #[test]
    fn try_spmv_matches_panicking_tier_on_clean_input() {
        // Every mode x format x op. The panicking tier is the checked
        // body run trusted, so the tiers agree bit for bit and a
        // dimension mismatch panics with the typed error's message; the
        // fixed modes report a pinned, unprofiled plan.
        use smash_core::DynamicMatrix;
        let a = generators::clustered(256, 256, 20_000, 5, 3);
        let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
        let cfg = SmashConfig::row_major(&[2, 4]).unwrap();
        let sm = SmashMatrix::encode(&a, cfg.clone());
        let mut dm = DynamicMatrix::from_csr(a.clone());
        dm.set(3, 7, 2.5);
        dm.delete(17, 3);
        let operands: [(&str, SpmvOperand<'_, f64>); 4] = [
            ("csr", (&a).into()),
            ("bcsr", (&bcsr).into()),
            ("smash", (&sm).into()),
            ("dynamic", (&dm).into()),
        ];
        let x = test_vector::<f64>(256);
        let b = test_batch(256, 8);
        let other = generators::uniform(7, 7, 10, 2);
        let execs = [
            ("serial", Executor::serial(), Some(1)),
            ("threads1", Executor::with_threads(1), Some(1)),
            ("threads2", Executor::with_threads(2), Some(2)),
            ("threads8", Executor::with_threads(8), Some(8)),
            ("auto", Executor::auto(), None),
            ("auto_resilient", Executor::auto_resilient(), None),
        ];
        for (mode, exec, pinned) in &execs {
            let check_report = |what: &str, report: ExecReport| {
                assert!(!report.degraded(), "{what} via {mode}");
                if let Some(threads) = pinned {
                    let plan = report.plan;
                    assert_eq!(plan.choice.threads, *threads, "{what} via {mode}");
                    assert!(!plan.calibrated, "{what} via {mode}");
                }
            };
            for (fmt, op) in operands {
                let what = format!("{fmt} spmv");
                let mut want = vec![0.0; 256];
                spmv_rows(op.row_read(), &x, &mut want);
                let (mut y, mut y_try) = (vec![f64::NAN; 256], vec![f64::NAN; 256]);
                exec.spmv(op, &x, &mut y);
                check_report(&what, exec.try_spmv(op, &x, &mut y_try).unwrap());
                assert_eq!(y, y_try, "{what} via {mode}");
                assert_eq!(y, want, "{what} via {mode}");
                let err = exec.try_spmv(op, &x[1..], &mut y).unwrap_err();
                let msg = panic_message(|| exec.spmv(op, &x[1..], &mut y));
                assert_eq!(msg, err.to_string(), "{what} via {mode}");

                let what = format!("{fmt} spmm_dense");
                let mut want = Dense::zeros(256, 8);
                spmm_dense_rows(op.row_read(), &b, &mut want);
                let (mut c, mut c_try) = (Dense::zeros(256, 8), Dense::zeros(256, 8));
                exec.spmm_dense(op, &b, &mut c);
                check_report(&what, exec.try_spmm_dense(op, &b, &mut c_try).unwrap());
                assert_eq!(c, c_try, "{what} via {mode}");
                assert_eq!(c, want, "{what} via {mode}");
                let mut narrow = Dense::zeros(256, 7);
                let err = exec.try_spmm_dense(op, &b, &mut narrow).unwrap_err();
                let msg = panic_message(|| exec.spmm_dense(op, &b, &mut narrow));
                assert_eq!(msg, err.to_string(), "{what} via {mode}");
            }
            // SpGEMM and encode take CSR operands; encode plans one
            // thread in every mode.
            let (c_try, report) = exec.try_spgemm(&a, &a).unwrap();
            check_report("spgemm", report);
            assert_eq!(exec.spgemm(&a, &a), c_try, "spgemm via {mode}");
            let err = exec.try_spgemm(&a, &other).unwrap_err();
            let msg = panic_message(|| {
                exec.spgemm(&a, &other);
            });
            assert_eq!(msg, err.to_string(), "spgemm via {mode}");
            let (sm_try, report) = exec.try_encode(&a, cfg.clone()).unwrap();
            assert!(!report.degraded(), "encode via {mode}");
            assert_eq!(report.plan.choice.threads, 1, "encode via {mode}");
            assert_eq!(sm_try, sm, "encode via {mode}");
        }
    }

    #[test]
    fn try_spmv_rejects_bad_dimensions_with_typed_errors() {
        let a = generators::uniform(8, 6, 20, 1);
        let exec = Executor::serial();
        let mut y = vec![0.0; 8];
        let err = exec.try_spmv(&a, &[0.0; 5], &mut y).unwrap_err();
        assert!(
            matches!(err, SmashError::DimensionMismatch { op: "spmv", .. }),
            "short x: {err}"
        );
        let err = exec.try_spmv(&a, &[0.0; 6], &mut [0.0; 7]).unwrap_err();
        assert!(
            matches!(err, SmashError::DimensionMismatch { .. }),
            "short y: {err}"
        );
    }

    #[test]
    fn try_spmv_surfaces_corrupt_structure_as_error_not_panic() {
        // Adversarial CSR: row_ptr points past the value arrays.
        let bad = Csr::<f64>::from_parts_unchecked(2, 2, vec![0, 5, 5], vec![0], vec![1.0]);
        let exec = Executor::serial();
        let mut y = vec![0.0; 2];
        let err = exec.try_spmv(&bad, &[1.0, 1.0], &mut y).unwrap_err();
        assert!(
            matches!(err, SmashError::InvalidStructure { format: "csr", .. }),
            "{err}"
        );
    }

    #[test]
    fn non_finite_policy_rejects_nan_and_infinity() {
        let mut coo = Coo::<f64>::new(2, 2);
        coo.push(0, 0, f64::NAN);
        let a = Csr::from_coo(&coo);
        let exec = Executor::serial().with_non_finite_policy(NonFinitePolicy::Reject);
        let mut y = vec![0.0; 2];
        let err = exec.try_spmv(&a, &[1.0, 1.0], &mut y).unwrap_err();
        assert!(
            matches!(err, SmashError::NonFinite { operand: "A", .. }),
            "{err}"
        );
        // A finite matrix with an infinite x is also rejected…
        let good = generators::uniform(2, 2, 2, 3);
        let err = exec
            .try_spmv(&good, &[1.0, f64::INFINITY], &mut y)
            .unwrap_err();
        assert!(matches!(err, SmashError::NonFinite { operand: "x", .. }));
        // …while the default policy lets IEEE semantics flow through.
        let report = Executor::serial().try_spmv(&a, &[1.0, 1.0], &mut y);
        assert!(report.is_ok());
        assert!(y[0].is_nan());
    }

    #[test]
    fn try_spmm_dense_validates_and_matches() {
        let a = generators::uniform(48, 40, 900, 5);
        let b = test_batch(40, 6);
        let mut want = Dense::zeros(48, 6);
        spmm_dense_rows(&a, &b, &mut want);
        for (mode, exec) in modes() {
            let mut c = Dense::zeros(48, 6);
            exec.try_spmm_dense(&a, &b, &mut c).unwrap();
            assert_eq!(c, want, "{mode}");
        }
        let err = Executor::serial()
            .try_spmm_dense(&a, &b, &mut Dense::zeros(48, 5))
            .unwrap_err();
        assert!(matches!(err, SmashError::DimensionMismatch { .. }), "{err}");
    }

    #[test]
    fn try_spgemm_budget_rejects_or_degrades() {
        let a = generators::power_law(128, 128, 3_000, 1.3, 5);
        let want = Executor::serial().spgemm(&a, &a);
        // Unbudgeted: plain engine.
        let (c, report) = Executor::serial().try_spgemm(&a, &a).unwrap();
        assert_eq!(c, want);
        assert!(!report.degraded());
        // A 64 KiB cap is far below this product's engine estimate.
        let cap = 64 * 1024;
        let err = Executor::serial()
            .with_budget(MemoryBudget::reject_over(cap))
            .try_spgemm(&a, &a)
            .unwrap_err();
        match err {
            SmashError::ResourceExhausted { needed, budget } => {
                assert_eq!(budget, cap);
                assert!(needed > cap);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // Same cap with degradation: chunked run, bit-identical output,
        // peak scratch within the budget.
        let (c, report) = Executor::serial()
            .with_budget(MemoryBudget::degrade_over(cap))
            .try_spgemm(&a, &a)
            .unwrap();
        assert_eq!(c, want, "chunked degradation must be bit-identical");
        assert!(report.degraded());
        match &report.degradations[0] {
            Degradation::ChunkedSpgemm {
                chunks,
                peak_scratch_bytes,
                budget_bytes,
            } => {
                assert!(*chunks > 1);
                assert!(peak_scratch_bytes <= budget_bytes);
                assert_eq!(*budget_bytes, cap);
            }
            other => panic!("expected ChunkedSpgemm, got {other:?}"),
        }
        assert!(
            report.to_string().contains("degraded"),
            "rationale records the ladder: {report}"
        );
        // A roomy budget stays on the plain engine.
        let (c, report) = Executor::serial()
            .with_budget(MemoryBudget::reject_over(u64::MAX))
            .try_spgemm(&a, &a)
            .unwrap();
        assert_eq!(c, want);
        assert!(!report.degraded());
    }

    #[test]
    fn try_spgemm_matches_across_modes() {
        let a = generators::power_law(150, 150, 5_000, 1.4, 9);
        let want = Executor::serial().spgemm(&a, &a);
        for (mode, exec) in modes() {
            let (c, _) = exec.try_spgemm(&a, &a).unwrap();
            assert_eq!(c, want, "{mode}");
        }
        let b = generators::uniform(7, 7, 10, 2);
        let err = Executor::serial().try_spgemm(&a, &b).unwrap_err();
        assert!(matches!(err, SmashError::DimensionMismatch { .. }));
        // `plan_spgemm` explains exactly the plan an unbudgeted product
        // acts on.
        for (mode, exec) in [
            ("serial", Executor::serial()),
            ("threads2", Executor::with_threads(2)),
            ("auto", Executor::auto()),
        ] {
            let plan = exec.plan_spgemm(&a, &a);
            let (_, report) = exec.try_spgemm(&a, &a).unwrap();
            assert_eq!(plan.choice, report.plan.choice, "{mode}");
            assert_eq!(plan.calibrated, report.plan.calibrated, "{mode}");
            assert_eq!(plan.rationale(), report.to_string(), "{mode}");
        }
    }

    #[test]
    fn try_encode_matches_across_modes() {
        let a = generators::power_law(128, 128, 20_000, 1.3, 5);
        let cfg = SmashConfig::row_major(&[2, 4]).unwrap();
        let want = SmashMatrix::encode(&a, cfg.clone());
        for (mode, exec) in modes() {
            let (sm, report) = exec.try_encode(&a, cfg.clone()).unwrap();
            assert_eq!(sm, want, "{mode}");
            assert!(!report.degraded(), "{mode}");
        }
    }

    #[test]
    fn try_with_threads_reports_typed_pool_errors() {
        let err = Executor::try_with_threads(0).unwrap_err();
        assert!(matches!(err, SmashError::PoolUnavailable { .. }), "{err}");
        let exec = Executor::try_with_threads(2).unwrap();
        assert_eq!(exec.threads(), 2);
    }

    #[test]
    fn auto_resilient_matches_auto_on_a_healthy_host() {
        let exec = Executor::auto_resilient();
        let a = generators::uniform(64, 64, 1_500, 4);
        let x = test_vector::<f64>(64);
        let (mut y, mut want) = (vec![0.0; 64], vec![0.0; 64]);
        Executor::serial().spmv(&a, &x, &mut want);
        let report = exec.try_spmv(&a, &x, &mut y).unwrap();
        assert_eq!(y, want);
        // Spawn succeeded here, so no degradation is recorded.
        assert!(!report.degraded());
    }

    #[test]
    fn budget_accessors_roundtrip() {
        let exec = Executor::serial()
            .with_budget(MemoryBudget::degrade_over(1 << 20))
            .with_non_finite_policy(NonFinitePolicy::Reject);
        assert_eq!(exec.budget(), Some(MemoryBudget::degrade_over(1 << 20)));
        assert_eq!(exec.non_finite_policy(), NonFinitePolicy::Reject);
        assert!(exec.budget().unwrap().degrades());
        assert!(!MemoryBudget::reject_over(8).degrades());
        assert_eq!(MemoryBudget::reject_over(8).bytes(), 8);
        assert_eq!(Executor::serial().budget(), None);
    }

    #[test]
    fn dynamic_operand_matches_rebuilt_matrix_across_modes() {
        use smash_core::DynamicMatrix;
        let a = generators::clustered(256, 256, 20_000, 5, 3);
        let mut dm = DynamicMatrix::from_csr(a.clone());
        dm.set(3, 7, 2.5);
        dm.add(100, 100, -1.25);
        dm.delete(0, a.row(0).0.first().map_or(0, |&c| c as usize));
        let rebuilt = dm.merged_csr();
        let x = test_vector::<f64>(256);
        let b = test_batch(256, 8);
        let mut want = vec![0.0; 256];
        Executor::serial().spmv(&rebuilt, &x, &mut want);
        let mut want_c = Dense::zeros(256, 8);
        Executor::serial().spmm_dense(&rebuilt, &b, &mut want_c);
        for (mode, exec) in modes() {
            let mut y = vec![f64::NAN; 256];
            exec.spmv(&dm, &x, &mut y);
            assert_eq!(y, want, "spmv dynamic via {mode}");
            let mut c = Dense::zeros(256, 8);
            c.as_mut_slice().fill(f64::NAN);
            exec.spmm_dense(&dm, &b, &mut c);
            assert_eq!(c, want_c, "spmm_dense dynamic via {mode}");
            let mut y = vec![f64::NAN; 256];
            let report = exec.try_spmv(&dm, &x, &mut y).unwrap();
            assert_eq!(y, want, "try_spmv dynamic via {mode}");
            assert!(!report.degraded());
        }
        // The plan names the dynamic op and format, and (with no
        // calibration rows for it) lands in the threshold tier.
        let plan = Executor::auto().plan_spmv(&dm);
        assert!(!plan.calibrated, "{plan}");
        assert_eq!(plan.choice.format, Format::Dynamic);
        assert!(plan.rationale().contains("spmv on dynamic"), "{plan}");
    }

    #[test]
    fn dynamic_operand_non_finite_overlay_is_rejected() {
        use smash_core::DynamicMatrix;
        let a = generators::uniform(16, 16, 60, 3);
        let mut dm = DynamicMatrix::from_csr(a);
        dm.set(2, 2, f64::NAN);
        let exec = Executor::serial().with_non_finite_policy(NonFinitePolicy::Reject);
        let mut y = vec![0.0; 16];
        let err = exec
            .try_spmv(&dm, &test_vector::<f64>(16), &mut y)
            .unwrap_err();
        assert!(
            matches!(err, SmashError::NonFinite { operand: "A", .. }),
            "{err}"
        );
        // Deletes carry no value, so deleting the bad entry clears the scan.
        let mut dm2 = DynamicMatrix::from_csr(generators::uniform(16, 16, 60, 3));
        dm2.delete(2, 2);
        assert!(exec.try_spmv(&dm2, &test_vector::<f64>(16), &mut y).is_ok());
    }
}
