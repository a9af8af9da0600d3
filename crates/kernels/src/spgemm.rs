//! Native row-wise **Gustavson SpGEMM** engine: `C = A · B` with both
//! operands in CSR, emitted straight into CSR with exact
//! per-row allocation — no COO detour, no post-hoc sort of the whole
//! output.
//!
//! # Algorithm
//!
//! Gustavson's method walks each row `i` of `A` and scatters
//! `A[i,k] · B[k,:]` into a row accumulator — the classic sparse × sparse
//! formulation whose irregular, input-dependent accesses are exactly the
//! indexing bottleneck the SMASH paper attacks. Two passes:
//!
//! 1. **Symbolic** ([`symbolic_bounds`]): per output row, the upper bound
//!    `ub[i] = Σ_{k ∈ A[i,:]} nnz(B[k,:])` — both the accumulator sizing
//!    hint and (summed) the stored-work estimate the executor's `Auto`
//!    mode dispatches on.
//! 2. **Numeric**: per row, scatter into one of two accumulators chosen
//!    from `ub[i]` alone (see [`use_dense_accumulator`]):
//!    * a **dense accumulator** — value array over all `b.cols()` columns
//!      with epoch stamps (O(1) reset) and a touched-column list — when
//!      the row bound is wide relative to the output width;
//!    * a **sorted hash scratchpad** — open-addressed map sized to the
//!      row bound, drained through a sort — when the row is sparse enough
//!      that touching `b.cols()` slots would dominate.
//!
//! # Determinism and the inner-product oracle
//!
//! Both accumulators fold contributions in ascending-`k` order with
//! [`Scalar::mul_add`], which is *exactly* the fold
//! `Csr::spmm_inner` performs per `(i, j)` — so the engine's output
//! is `==` (triplet-exact, not approximately) to the inner-product
//! oracle, and dense and hash rows are bit-identical to each other.
//! The accumulator choice depends only on `(ub[i], b.cols())`, and the
//! parallel driver hands **disjoint, contiguous** row ranges (balanced by
//! the symbolic bounds through `partition_by_weight`) to workers that
//! write pre-sized private chunks spliced back in row order — so output
//! is bit-identical at every thread count.
//!
//! # Masked products
//!
//! Every driver takes an optional `mask` of shape `a.rows() × b.cols()`.
//! Row `i` of a masked product accumulates only the columns stored in
//! `mask` row `i` (its values are ignored): the dense accumulator
//! pre-stamps those columns, seeded with `T::ZERO`, drops every product
//! that lands elsewhere, and drains by walking the already-sorted mask
//! row, so there is no touched list, no hash probe and no sort. A kept
//! column's first product computes `av.mul_add(bv, T::ZERO)`, exactly as
//! the unmasked first touch does, and later products fold in the same
//! ascending-`k` order — so each stored entry of a masked product is `==`
//! to the same entry of the unmasked one, and the masked product is the
//! unmasked product restricted to the mask's pattern. Work that lands
//! outside the mask costs one stamp check instead of an accumulator slot,
//! an output entry and a place in the drain.
//!
//! # Cancellation policy
//!
//! Exact zeros are dropped, like every sparse × sparse kernel in this
//! crate (see the policy note in [`crate::native`]): a structurally-hit
//! position whose accumulated value cancels to ±0.0 is not stored.
//!
//! # Example
//!
//! ```
//! use smash_kernels::Executor;
//! use smash_matrix::generators;
//!
//! let a = generators::power_law(128, 128, 2_000, 1.2, 7);
//! let c = Executor::auto().spgemm(&a, &a); // A², dispatched by stored work
//! let oracle = a.spmm_inner(&a.to_csc()).unwrap();
//! assert_eq!(c.to_coo().entries(), oracle.entries()); // exact, not approx
//! ```

use crate::error::SmashError;
use smash_matrix::{Csr, CsrBuilder, Scalar};
use smash_parallel::{partition_by_weight, ThreadPool};
use std::ops::Range;

/// Output widths up to this many columns always use the dense
/// accumulator: the value/stamp arrays fit comfortably in cache, so the
/// hash scratchpad's probing and drain-sort can't win.
pub const DENSE_ACCUM_MIN_COLS: usize = 256;

/// Above [`DENSE_ACCUM_MIN_COLS`], the dense accumulator is used when the
/// row's nnz upper bound is at least `1/DENSE_ACCUM_FRACTION` of the
/// output width — dense rows amortize the touched-list sort better than
/// the hash map amortizes probing.
pub const DENSE_ACCUM_FRACTION: u64 = 4;

/// Whether the numeric pass uses the dense accumulator (vs. the hash
/// scratchpad) for a row whose symbolic upper bound is `ub`, writing into
/// `n` output columns.
///
/// The choice is a pure function of `(ub, n)` — never of thread count or
/// scheduling — which is one leg of the engine's determinism guarantee.
pub fn use_dense_accumulator(ub: u64, n: usize) -> bool {
    n <= DENSE_ACCUM_MIN_COLS || ub.saturating_mul(DENSE_ACCUM_FRACTION) >= n as u64
}

/// The symbolic pass: per-row upper bounds on `nnz(C[i,:])` plus their
/// sum (the total stored work, `Σ_{(i,k) ∈ A} nnz(B[k,:])` — the flop
/// count Gustavson performs and the quantity `Auto` dispatch weighs).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn symbolic_bounds<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> (Vec<u64>, u64) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut bounds = vec![0u64; a.rows()];
    let mut total = 0u64;
    for (i, ub) in bounds.iter_mut().enumerate() {
        let (cols, _) = a.row(i);
        *ub = cols
            .iter()
            .map(|&k| b.row_nnz(k as usize) as u64)
            .sum::<u64>();
        total += *ub;
    }
    (bounds, total)
}

/// The total stored work of `A · B` without materializing the per-row
/// bounds — what [`crate::Executor`] feeds its serial/parallel heuristic.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn stored_work<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> u64 {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    a.col_ind()
        .iter()
        .map(|&k| b.row_nnz(k as usize) as u64)
        .sum()
}

/// Dense row accumulator: one value slot per output column, an epoch
/// stamp per slot (so reset is O(1), not O(n)), and the list of touched
/// columns for output-sensitive draining.
struct DenseAcc<T> {
    vals: Vec<T>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
}

impl<T: Scalar> DenseAcc<T> {
    fn new(n: usize) -> Self {
        DenseAcc {
            vals: vec![T::ZERO; n],
            stamp: vec![0; n],
            epoch: 0,
            touched: Vec::new(),
        }
    }

    fn begin_row(&mut self) {
        self.touched.clear();
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wraparound (once per 2^32 rows): hard-reset the
                // stamps so stale marks can't alias the new epoch.
                self.stamp.fill(0);
                1
            }
        };
    }

    #[inline]
    fn scatter(&mut self, j: u32, av: T, bv: T) {
        let slot = j as usize;
        if self.stamp[slot] == self.epoch {
            self.vals[slot] = av.mul_add(bv, self.vals[slot]);
        } else {
            self.stamp[slot] = self.epoch;
            self.vals[slot] = av.mul_add(bv, T::ZERO);
            self.touched.push(j);
        }
    }

    /// Drains the touched columns in ascending order into `(cols, vals)`,
    /// dropping exact zeros.
    fn drain_sorted(&mut self, cols: &mut Vec<u32>, vals: &mut Vec<T>) {
        self.touched.sort_unstable();
        self.drain_cols(&self.touched, cols, vals);
    }

    /// Pushes the slots of `order` (ascending columns) into `(cols, vals)`,
    /// dropping exact zeros.
    fn drain_cols(&self, order: &[u32], cols: &mut Vec<u32>, vals: &mut Vec<T>) {
        for &j in order {
            let v = self.vals[j as usize];
            if !v.is_zero() {
                cols.push(j);
                vals.push(v);
            }
        }
    }

    /// Opens a masked row: only `mask_cols` accept products, each
    /// stamped with the new epoch and seeded with `T::ZERO`.
    fn begin_masked_row(&mut self, mask_cols: &[u32]) {
        self.begin_row();
        for &j in mask_cols {
            self.stamp[j as usize] = self.epoch;
            self.vals[j as usize] = T::ZERO;
        }
    }

    /// Folds a product into a pre-stamped column; any other column is
    /// outside the mask and the product is dropped.
    #[inline]
    fn scatter_masked(&mut self, j: u32, av: T, bv: T) {
        let slot = j as usize;
        if self.stamp[slot] == self.epoch {
            self.vals[slot] = av.mul_add(bv, self.vals[slot]);
        }
    }
}

/// Sentinel key marking an empty hash slot (no valid column index is
/// `u32::MAX`: CSR column indices are bounded by `cols() <= u32::MAX`).
const EMPTY: u32 = u32::MAX;

/// Open-addressed (linear probing) row accumulator keyed by output
/// column, sized per row from the symbolic bound and drained through a
/// sort. Grow-only across rows so a range of small rows after one wide
/// row never reallocates.
struct HashAcc<T> {
    keys: Vec<u32>,
    vals: Vec<T>,
    /// Occupied slot indices, for O(occupied) reset and draining.
    slots: Vec<u32>,
    mask: usize,
}

impl<T: Scalar> HashAcc<T> {
    fn new() -> Self {
        HashAcc {
            keys: Vec::new(),
            vals: Vec::new(),
            slots: Vec::new(),
            mask: 0,
        }
    }

    /// Prepares for a row with at most `ub` distinct columns: capacity at
    /// least `2·ub` (load factor ≤ ½ so probing stays short and always
    /// terminates), power of two for mask addressing.
    fn begin_row(&mut self, ub: u64) {
        let want = (ub.max(4) as usize).saturating_mul(2).next_power_of_two();
        if want > self.keys.len() {
            self.keys = vec![EMPTY; want];
            self.vals = vec![T::ZERO; want];
            self.mask = want - 1;
        } else {
            for &s in &self.slots {
                self.keys[s as usize] = EMPTY;
            }
        }
        self.slots.clear();
    }

    #[inline]
    fn scatter(&mut self, j: u32, av: T, bv: T) {
        let mut idx = (j as usize).wrapping_mul(0x9E37_79B9) & self.mask;
        loop {
            let k = self.keys[idx];
            if k == j {
                self.vals[idx] = av.mul_add(bv, self.vals[idx]);
                return;
            }
            if k == EMPTY {
                self.keys[idx] = j;
                self.vals[idx] = av.mul_add(bv, T::ZERO);
                self.slots.push(idx as u32);
                return;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Drains the occupied slots in ascending column order into
    /// `(cols, vals)`, dropping exact zeros. The slot list is sorted in
    /// place by key (a row's columns are unique, so the order is total).
    fn drain_sorted(&mut self, cols: &mut Vec<u32>, vals: &mut Vec<T>) {
        let keys = &self.keys;
        self.slots.sort_unstable_by_key(|&s| keys[s as usize]);
        for &s in &self.slots {
            let v = self.vals[s as usize];
            if !v.is_zero() {
                cols.push(keys[s as usize]);
                vals.push(v);
            }
        }
    }
}

/// One worker's share of the numeric pass: per-row entry counts plus the
/// concatenated (column, value) stream, in row order. Chunks from
/// disjoint row ranges splice into the final CSR through
/// [`CsrBuilder::push_row_chunk`] with no per-entry re-sorting.
struct RowChunk<T> {
    counts: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<T>,
}

impl<T> Default for RowChunk<T> {
    fn default() -> Self {
        RowChunk {
            counts: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }
}

/// Calls `f(j, A[i,k], B[k,j])` for every product of output row `i`, in
/// ascending `k`, then ascending `j` within `B[k,:]`.
#[inline(always)]
fn for_each_product<T: Scalar>(a: &Csr<T>, b: &Csr<T>, i: usize, mut f: impl FnMut(u32, T, T)) {
    let (a_cols, a_vals) = a.row(i);
    for (&k, &av) in a_cols.iter().zip(a_vals) {
        let (b_cols, b_vals) = b.row(k as usize);
        for (&j, &bv) in b_cols.iter().zip(b_vals) {
            f(j, av, bv);
        }
    }
}

/// Runs the numeric pass over `rows`, invoking `emit(i, cols, vals)` per
/// row in ascending row order — `cols` strictly increasing, exact zeros
/// already dropped. With a `mask`, row `i` keeps only the columns of
/// `mask` row `i` (see the [module docs](self)). The scratch accumulators
/// live across the whole range.
fn gustavson_rows<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    mask: Option<&Csr<T>>,
    rows: Range<usize>,
    bounds: &[u64],
    mut emit: impl FnMut(usize, &[u32], &[T]),
) {
    let n = b.cols();
    let mut dense: Option<DenseAcc<T>> = None;
    let mut hash = HashAcc::new();
    let mut cols: Vec<u32> = Vec::new();
    let mut vals: Vec<T> = Vec::new();
    for i in rows {
        cols.clear();
        vals.clear();
        let ub = bounds[i];
        if let Some(mask) = mask {
            let (mask_cols, _) = mask.row(i);
            if ub > 0 && !mask_cols.is_empty() {
                let acc = dense.get_or_insert_with(|| DenseAcc::new(n));
                acc.begin_masked_row(mask_cols);
                for_each_product(a, b, i, |j, av, bv| acc.scatter_masked(j, av, bv));
                acc.drain_cols(mask_cols, &mut cols, &mut vals);
            }
        } else if ub > 0 {
            if use_dense_accumulator(ub, n) {
                let acc = dense.get_or_insert_with(|| DenseAcc::new(n));
                acc.begin_row();
                for_each_product(a, b, i, |j, av, bv| acc.scatter(j, av, bv));
                acc.drain_sorted(&mut cols, &mut vals);
            } else {
                hash.begin_row(ub);
                for_each_product(a, b, i, |j, av, bv| hash.scatter(j, av, bv));
                hash.drain_sorted(&mut cols, &mut vals);
            }
        }
        emit(i, &cols, &vals);
    }
}

/// Numeric pass over one row range, packaged as a spliceable chunk.
fn spgemm_chunk<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    mask: Option<&Csr<T>>,
    rows: Range<usize>,
    bounds: &[u64],
) -> RowChunk<T> {
    let mut chunk = RowChunk::default();
    gustavson_rows(a, b, mask, rows, bounds, |_, cols, vals| {
        chunk.counts.push(cols.len() as u32);
        chunk.cols.extend_from_slice(cols);
        chunk.vals.extend_from_slice(vals);
    });
    chunk
}

/// Splices per-range chunks (in row order) into a CSR with exact
/// allocation: the builder's arrays are sized to the true output nnz
/// before the first entry lands.
fn assemble<T: Scalar>(rows: usize, cols: usize, chunks: Vec<RowChunk<T>>) -> Csr<T> {
    let nnz: usize = chunks.iter().map(|c| c.cols.len()).sum();
    let mut builder = CsrBuilder::with_capacity(cols, rows, nnz);
    for chunk in &chunks {
        builder.push_row_chunk(&chunk.counts, &chunk.cols, &chunk.vals);
    }
    builder.finish()
}

/// Panics unless `mask` (when given) is `a.rows() × b.cols()`.
fn assert_mask_shape<T: Scalar>(a: &Csr<T>, b: &Csr<T>, mask: Option<&Csr<T>>) {
    if let Some(m) = mask {
        assert_eq!(
            (m.rows(), m.cols()),
            (a.rows(), b.cols()),
            "mask must be a.rows() x b.cols()"
        );
    }
}

/// Serial Gustavson SpGEMM: `C = A · B`, both CSR, emitted directly into
/// CSR — or, with a `mask`, `C` restricted to the mask's pattern.
/// Triplet-exact to the `Csr::spmm_inner` oracle (see the
/// [module docs](self)).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or `mask` is not `a.rows() × b.cols()`.
pub fn spgemm<T: Scalar>(a: &Csr<T>, b: &Csr<T>, mask: Option<&Csr<T>>) -> Csr<T> {
    assert_mask_shape(a, b, mask);
    let (bounds, _) = symbolic_bounds(a, b);
    assemble(
        a.rows(),
        b.cols(),
        vec![spgemm_chunk(a, b, mask, 0..a.rows(), &bounds)],
    )
}

/// Parallel Gustavson SpGEMM over nnz-balanced contiguous row ranges —
/// bit-identical to [`spgemm`] at every thread count (workers run the
/// identical per-row body over disjoint ranges; the main thread splices
/// in row order).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or `mask` is not `a.rows() × b.cols()`.
pub fn par_spgemm<T: Scalar>(
    pool: &ThreadPool,
    a: &Csr<T>,
    b: &Csr<T>,
    mask: Option<&Csr<T>>,
) -> Csr<T> {
    assert_mask_shape(a, b, mask);
    let (bounds, _) = symbolic_bounds(a, b);
    let ranges = partition_by_weight(a.rows(), pool.threads(), |i| bounds[i]);
    let mut chunks: Vec<RowChunk<T>> = Vec::new();
    chunks.resize_with(ranges.len(), RowChunk::default);
    pool.scoped(|s| {
        for (range, slot) in ranges.iter().cloned().zip(chunks.iter_mut()) {
            let bounds = &bounds;
            s.execute(move || *slot = spgemm_chunk(a, b, mask, range, bounds));
        }
    });
    assemble(a.rows(), b.cols(), chunks)
}

/// Bytes of one emitted `(column, value)` entry in the engine's staging
/// and splice arrays: a `u32` column index plus one scalar.
fn entry_bytes<T>() -> u64 {
    (4 + std::mem::size_of::<T>()) as u64
}

/// Upper bound on the accumulator scratch one row needs, mirroring the
/// engine's own [`use_dense_accumulator`] choice for a row with symbolic
/// bound `ub` writing into `n` output columns — a pure function of
/// `(ub, n)`, exactly like the choice itself.
pub fn row_scratch_bytes<T: Scalar>(ub: u64, n: usize) -> u64 {
    let scalar = std::mem::size_of::<T>() as u64;
    if use_dense_accumulator(ub, n) {
        // DenseAcc: value + stamp per output column, plus the touched list
        // (at most min(ub, n) columns).
        (n as u64).saturating_mul(scalar + 4) + ub.min(n as u64).saturating_mul(4)
    } else {
        // HashAcc: keys + values over the power-of-two capacity (load
        // factor ≤ ½), plus the occupied-slot list.
        let cap = (ub.max(4)).saturating_mul(2).next_power_of_two();
        cap.saturating_mul(4 + scalar) + ub.saturating_mul(4)
    }
}

/// Row `i`'s bound on stored entries and its accumulator scratch, for a
/// row with symbolic bound `ub` writing into `n` output columns. A masked
/// row stores at most `nnz(mask[i])` entries and runs the dense
/// accumulator's value and stamp arrays, with no touched list.
fn row_cost<T: Scalar>(ub: u64, n: usize, mask: Option<&Csr<T>>, i: usize) -> (u64, u64) {
    match mask {
        None => (ub, row_scratch_bytes::<T>(ub, n)),
        Some(m) => {
            let dense = (n as u64).saturating_mul(std::mem::size_of::<T>() as u64 + 4);
            (ub.min(m.row_nnz(i) as u64), dense)
        }
    }
}

/// Upper bound on the **transient engine memory** of an unchunked
/// [`spgemm`] run over these symbolic `bounds` into `n` output columns,
/// under an optional `mask`: the staged `(column, value)` stream plus the
/// splice into the builder (each at most `Σ ub` entries, or
/// `Σ min(ub, nnz(mask[i]))` when masked), plus the widest row's
/// accumulator scratch. This is the estimate the executor's
/// [`MemoryBudget`](crate::MemoryBudget) is checked against.
///
/// # Panics
///
/// Panics if `mask` has fewer rows than `bounds` has entries.
pub fn estimate_engine_bytes<T: Scalar>(bounds: &[u64], n: usize, mask: Option<&Csr<T>>) -> u64 {
    let (mut total, mut max_row) = (0u64, 0u64);
    for (i, &ub) in bounds.iter().enumerate() {
        let (entries, scratch) = row_cost(ub, n, mask, i);
        total = total.saturating_add(entries);
        max_row = max_row.max(scratch);
    }
    total
        .saturating_mul(entry_bytes::<T>())
        .saturating_mul(2)
        .saturating_add(max_row)
}

/// Accounting report of a [`spgemm_chunked`] run: how the row-streamed
/// execution stayed inside its scratch budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkedRun {
    /// Number of row chunks the numeric pass was split into.
    pub chunks: usize,
    /// Peak transient scratch across all chunks (upper-bound accounting:
    /// staged entries at their symbolic bound plus the chunk's widest
    /// accumulator). Guaranteed `<= budget_bytes` on success.
    pub peak_scratch_bytes: u64,
    /// The scratch budget the run was held to.
    pub budget_bytes: u64,
}

/// Row-chunked Gustavson SpGEMM: identical output to [`spgemm`] (masked
/// or not), with the transient engine memory (per-chunk staging plus
/// accumulator scratch) capped at `scratch_budget` bytes. Rows are
/// processed in ascending order through the same per-row body as the
/// unchunked engine (`gustavson_rows` via the chunk packager), and each
/// chunk is spliced into the output builder before the next chunk's
/// staging is allocated — so the result is **bit-identical** to
/// [`spgemm`], only the peak scratch differs.
///
/// The exact-sized output CSR itself is exempt from the budget (it is the
/// caller's requested result, not engine scratch); the budget caps what
/// the engine allocates *on top of* the output.
///
/// # Errors
///
/// Returns [`SmashError::ResourceExhausted`] if even a single row's
/// staging plus accumulator cannot fit the budget — there is no smaller
/// execution unit to degrade to. `needed` reports that minimum.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`, `mask` is not `a.rows() × b.cols()`,
/// or `bounds.len() != a.rows()` (callers obtain `bounds` from
/// [`symbolic_bounds`]).
pub fn spgemm_chunked<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    mask: Option<&Csr<T>>,
    bounds: &[u64],
    scratch_budget: u64,
) -> Result<(Csr<T>, ChunkedRun), SmashError> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_mask_shape(a, b, mask);
    assert_eq!(bounds.len(), a.rows(), "one symbolic bound per output row");
    let n = b.cols();
    let mut builder = CsrBuilder::new(n);
    let mut run = ChunkedRun {
        chunks: 0,
        peak_scratch_bytes: 0,
        budget_bytes: scratch_budget,
    };
    // Greedy chunking: extend the current chunk while its staging (counts
    // plus staged entries at their symbolic bound) plus the widest
    // accumulator seen still fits the budget.
    let mut start = 0usize;
    let mut stage = 0u64;
    let mut acc = 0u64;
    let mut flush = |start: usize, end: usize, footprint: u64, run: &mut ChunkedRun| {
        let chunk = spgemm_chunk(a, b, mask, start..end, bounds);
        builder.push_row_chunk(&chunk.counts, &chunk.cols, &chunk.vals);
        run.chunks += 1;
        run.peak_scratch_bytes = run.peak_scratch_bytes.max(footprint);
    };
    for (i, &ub) in bounds.iter().enumerate() {
        let (entries, row_acc) = row_cost(ub, n, mask, i);
        let row_stage = entries.saturating_mul(entry_bytes::<T>()) + 4;
        let row_min = row_stage.saturating_add(row_acc);
        if row_min > scratch_budget {
            return Err(SmashError::ResourceExhausted {
                needed: row_min,
                budget: scratch_budget,
            });
        }
        let grown = stage
            .saturating_add(row_stage)
            .saturating_add(acc.max(row_acc));
        if i > start && grown > scratch_budget {
            flush(start, i, stage.saturating_add(acc), &mut run);
            start = i;
            stage = 0;
            acc = 0;
        }
        stage = stage.saturating_add(row_stage);
        acc = acc.max(row_acc);
    }
    if start < bounds.len() || bounds.is_empty() {
        flush(start, bounds.len(), stage.saturating_add(acc), &mut run);
    }
    Ok((builder.finish(), run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_matrix::{generators, Coo};

    fn oracle(a: &Csr<f64>, b: &Csr<f64>) -> Vec<(u32, u32, f64)> {
        a.spmm_inner(&b.to_csc()).unwrap().entries().to_vec()
    }

    #[test]
    fn serial_matches_inner_product_oracle_exactly() {
        let a = generators::power_law(96, 80, 1_500, 1.3, 3);
        let b = generators::clustered(80, 72, 1_200, 5, 4);
        assert_eq!(spgemm(&a, &b, None).to_coo().entries(), oracle(&a, &b));
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let a = generators::power_law(200, 200, 6_000, 1.4, 11);
        let want = spgemm(&a, &a, None);
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            assert_eq!(par_spgemm(&pool, &a, &a, None), want, "threads={threads}");
        }
    }

    #[test]
    fn accumulator_choice_is_size_driven() {
        // Small outputs always dense; wide sparse rows go to the hash.
        assert!(use_dense_accumulator(1, DENSE_ACCUM_MIN_COLS));
        assert!(!use_dense_accumulator(10, 100_000));
        assert!(use_dense_accumulator(25_000, 100_000));
    }

    #[test]
    fn symbolic_bounds_count_stored_work() {
        let a = generators::uniform(40, 40, 300, 5);
        let (bounds, total) = symbolic_bounds(&a, &a);
        assert_eq!(total, bounds.iter().sum::<u64>());
        assert_eq!(total, stored_work(&a, &a));
        let (cols, _) = a.row(7);
        let want: u64 = cols.iter().map(|&k| a.row_nnz(k as usize) as u64).sum();
        assert_eq!(bounds[7], want);
    }

    #[test]
    fn chunked_run_is_bit_identical_and_respects_budget() {
        let a = generators::power_law(150, 150, 4_000, 1.3, 7);
        let want = spgemm(&a, &a, None);
        let (bounds, _) = symbolic_bounds(&a, &a);

        // A budget covering the whole unchunked estimate: one chunk.
        let full = estimate_engine_bytes::<f64>(&bounds, a.cols(), None);
        let (c, run) = spgemm_chunked(&a, &a, None, &bounds, full).unwrap();
        assert_eq!(c, want, "roomy budget");
        assert_eq!(run.chunks, 1);
        assert!(run.peak_scratch_bytes <= run.budget_bytes);

        // The tightest budget every row fits alone in: many chunks, the
        // same bits, and the peak-accumulator accounting stays inside.
        let tight = bounds
            .iter()
            .map(|&ub| ub * entry_bytes::<f64>() + 4 + row_scratch_bytes::<f64>(ub, a.cols()))
            .max()
            .unwrap();
        let (c, run) = spgemm_chunked(&a, &a, None, &bounds, tight).unwrap();
        assert_eq!(c, want, "tight budget");
        assert!(run.chunks > 1, "tight budget must force chunking");
        assert!(
            run.peak_scratch_bytes <= run.budget_bytes,
            "peak {} must stay within budget {}",
            run.peak_scratch_bytes,
            run.budget_bytes
        );
    }

    #[test]
    fn chunked_run_reports_exhaustion_when_one_row_cannot_fit() {
        let a = generators::uniform(32, 32, 300, 5);
        let (bounds, _) = symbolic_bounds(&a, &a);
        let err = spgemm_chunked(&a, &a, None, &bounds, 1).expect_err("1 byte fits nothing");
        match err {
            SmashError::ResourceExhausted { needed, budget } => {
                assert_eq!(budget, 1);
                assert!(needed > 1);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn engine_estimate_scales_with_work() {
        let small = estimate_engine_bytes::<f64>(&[1, 2, 3], 64, None);
        let big = estimate_engine_bytes::<f64>(&[100, 200, 300], 64, None);
        assert!(big > small);
        // f32 entries are smaller than f64 entries.
        assert!(
            estimate_engine_bytes::<f32>(&[100], 64, None)
                < estimate_engine_bytes::<f64>(&[100], 64, None)
        );
        assert_eq!(estimate_engine_bytes::<f64>(&[], 64, None), 0);
    }

    /// `(row, column, value bits)` of every entry of `c` whose position is
    /// stored in `mask` (all of `c` without a mask).
    fn entries_under(c: &Csr<f64>, mask: Option<&Csr<f64>>) -> Vec<(u32, u32, u64)> {
        let mut out = Vec::new();
        for i in 0..c.rows() {
            let (cols, vals) = c.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if mask.is_none_or(|m| m.row(i).0.binary_search(&j).is_ok()) {
                    out.push((i as u32, j, v.to_bits()));
                }
            }
        }
        out
    }

    #[test]
    fn masked_product_is_the_unmasked_product_restricted_to_the_mask() {
        // 2000 output columns, above DENSE_ACCUM_MIN_COLS: the unmasked
        // reference mixes hash rows and dense (power-law head) rows.
        let a = generators::power_law(120, 90, 2_000, 1.3, 5);
        let b = generators::uniform(90, 2_000, 1_500, 6);
        let mask = generators::uniform(120, 2_000, 20_000, 7);
        let (bounds, _) = symbolic_bounds(&a, &b);
        assert!(bounds
            .iter()
            .any(|&ub| ub > 0 && !use_dense_accumulator(ub, b.cols())));
        assert!(bounds.iter().any(|&ub| use_dense_accumulator(ub, b.cols())));

        let full = spgemm(&a, &b, None);
        let want = entries_under(&full, Some(&mask));
        assert!(!want.is_empty() && want.len() < full.nnz());
        let masked = spgemm(&a, &b, Some(&mask));
        assert_eq!(entries_under(&masked, None), want, "serial");
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let c = par_spgemm(&pool, &a, &b, Some(&mask));
            assert_eq!(c, masked, "threads={threads}");
        }

        // Chunked at the tightest budget every masked row fits alone in.
        let tight = (0..a.rows())
            .map(|i| {
                let (entries, scratch) = row_cost(bounds[i], b.cols(), Some(&mask), i);
                entries * entry_bytes::<f64>() + 4 + scratch
            })
            .max()
            .unwrap();
        let (c, run) = spgemm_chunked(&a, &b, Some(&mask), &bounds, tight).unwrap();
        assert_eq!(c, masked, "chunked");
        assert!(run.chunks > 1 && run.peak_scratch_bytes <= tight);
        assert!(estimate_engine_bytes::<f64>(&bounds, b.cols(), Some(&mask)) > tight);
    }

    #[test]
    fn masked_estimate_is_bounded_by_the_mask() {
        let a = generators::power_law(64, 64, 1_500, 1.3, 2);
        let (bounds, total) = symbolic_bounds(&a, &a);
        let empty = Csr::<f64>::from_coo(&Coo::new(64, 64));
        // An empty mask stores nothing: only the dense scratch remains.
        let dense = 64 * (8 + 4);
        assert_eq!(estimate_engine_bytes(&bounds, 64, Some(&empty)), dense);
        assert_eq!(spgemm(&a, &a, Some(&empty)).nnz(), 0);
        // The mask `a` itself caps each row at nnz(a[i]).
        let capped: u64 = (0..64).map(|i| bounds[i].min(a.row_nnz(i) as u64)).sum();
        assert!(capped < total);
        assert_eq!(
            estimate_engine_bytes(&bounds, 64, Some(&a)),
            capped * entry_bytes::<f64>() * 2 + dense
        );
    }
}
