//! Dynamic matrices: an immutable CSR base plus a mutable delta overlay,
//! frozen into merged rows once per write batch and compacted explicitly.
//!
//! Every format in this workspace is immutable — good for kernels, bad
//! for live graphs where edges arrive continuously. Following the tiered
//! shape of the SMASH hierarchy itself (and SpArch's partial-matrix
//! merging), [`DynamicMatrix`] presents one logical matrix as two tiers:
//!
//! * the **base**: a [`Csr`], untouched;
//! * the **overlay**: a [`DeltaOverlay`] write log absorbing point
//!   mutations — `set` (insert/update), `add` (accumulate, SpAdd
//!   semantics) and `delete`.
//!
//! Reads never consult the write log row by row. The first read after a
//! write **freezes** the overlay: every touched row is merged once with
//! [`merge_row`] — the same sorted two-cursor merge (and the same
//! cancellation rule: a merged value that is exact `±0.0` is dropped,
//! never stored) as `Csr::add` — into a sorted list of touched rows
//! plus their merged rows in CSR layout. Kernels run through the
//! [`RowRead`] operand layer and walk that list in step with their row
//! range: each run of untouched rows goes to the CSR serial
//! body in one call, and each touched row runs the CSR row body over its
//! frozen merged row. The result is **bit-identical** to rebuilding the
//! merged matrix from scratch and running the CSR kernel over it, at
//! every thread count.
//!
//! Cost model: a write is one write-log insert and drops the frozen view;
//! the next read pays one merge pass over the touched rows; every read
//! until the next write costs what the base's body costs plus one row
//! body per touched row. The frozen view holds the merged touched rows
//! and nothing else.
//!
//! [`DynamicMatrix::compact`] absorbs the overlay into a fresh base, `==`
//! to the CSR built from the merged triplets.
//!
//! See `docs/DYNAMIC.md` for the tier model and the full contracts.

use smash_matrix::{for_each_rhs_tile, Csr, CsrBuilder, Dense, RowRead, Scalar};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::OnceLock;

/// One overlay mutation for a single matrix cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delta<T> {
    /// Replace the cell with this value (insert or update).
    Set(T),
    /// Accumulate onto the cell (SpAdd semantics: merged value is
    /// `base + delta`).
    Add(T),
    /// Remove the cell.
    Delete,
}

/// A sorted overlay of point mutations, independent of any base matrix.
///
/// Entries are keyed `(row, col)` and kept sorted (BTree), so merging a
/// row against a sorted base row is a linear two-cursor sweep. Repeated
/// mutations of the same cell **fold**:
///
/// | existing ↓ \ incoming → | `set(v)` | `add(d)`       | `delete` |
/// |-------------------------|----------|----------------|----------|
/// | none                    | Set(v)   | Add(d)         | Delete   |
/// | Set(u)                  | Set(v)   | Set(u + d)     | Delete   |
/// | Add(u)                  | Set(v)   | Add(u + d)     | Delete   |
/// | Delete                  | Set(v)   | Set(d)         | Delete   |
///
/// (`add` after `delete` becomes `Set(d)`: the base cell was deleted, so
/// there is nothing to accumulate onto.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaOverlay<T> {
    rows: BTreeMap<u32, BTreeMap<u32, Delta<T>>>,
    len: usize,
}

impl<T: Scalar> DeltaOverlay<T> {
    /// An empty overlay.
    pub fn new() -> Self {
        DeltaOverlay {
            rows: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of overlay entries (cells with a pending mutation).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the overlay holds no mutations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct rows with at least one pending mutation.
    pub fn touched_rows(&self) -> usize {
        self.rows.len()
    }

    /// Pending mutations of row `r`, sorted by column, if any.
    ///
    /// # Panics
    ///
    /// If `r` exceeds the `u32` key range.
    pub fn row(&self, r: usize) -> Option<&BTreeMap<u32, Delta<T>>> {
        self.rows.get(&overlay_key(r))
    }

    /// Number of pending mutations in row `r`.
    ///
    /// # Panics
    ///
    /// If `r` exceeds the `u32` key range.
    pub fn row_len(&self, r: usize) -> usize {
        self.row(r).map_or(0, BTreeMap::len)
    }

    /// Iterates all pending mutations in `(row, col)` order.
    pub fn deltas(&self) -> impl Iterator<Item = (usize, usize, &Delta<T>)> + '_ {
        self.rows
            .iter()
            .flat_map(|(&r, row)| row.iter().map(move |(&c, d)| (r as usize, c as usize, d)))
    }

    /// The pending mutations of row `r` (created empty if absent) and the
    /// key of column `c`. Both keys are converted before the row is
    /// created, so an out-of-range index leaves the overlay unchanged.
    fn entry(&mut self, r: usize, c: usize) -> (&mut BTreeMap<u32, Delta<T>>, u32) {
        let (r, c) = (overlay_key(r), overlay_key(c));
        (self.rows.entry(r).or_default(), c)
    }

    /// Records `set(r, c, v)`: the merged cell becomes exactly `v`.
    ///
    /// # Panics
    ///
    /// If `r` or `c` exceeds the `u32` key range.
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        let (row, c) = self.entry(r, c);
        if row.insert(c, Delta::Set(v)).is_none() {
            self.len += 1;
        }
    }

    /// Records `delete(r, c)`: the merged cell disappears.
    ///
    /// # Panics
    ///
    /// If `r` or `c` exceeds the `u32` key range.
    pub fn delete(&mut self, r: usize, c: usize) {
        let (row, c) = self.entry(r, c);
        if row.insert(c, Delta::Delete).is_none() {
            self.len += 1;
        }
    }

    /// Records `add(r, c, d)`: the merged cell becomes `base + d` (or the
    /// folded equivalent per the table in the type docs).
    ///
    /// # Panics
    ///
    /// If `r` or `c` exceeds the `u32` key range.
    pub fn add(&mut self, r: usize, c: usize, d: T) {
        let (row, c) = self.entry(r, c);
        let folded = match row.get(&c) {
            None => Delta::Add(d),
            Some(Delta::Set(u)) => Delta::Set(*u + d),
            Some(Delta::Add(u)) => Delta::Add(*u + d),
            Some(Delta::Delete) => Delta::Set(d),
        };
        if row.insert(c, folded).is_none() {
            self.len += 1;
        }
    }

    /// Drops every pending mutation.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.len = 0;
    }
}

/// Converts a row or column index to the overlay's `u32` key, panicking
/// instead of truncating past `u32::MAX`.
fn overlay_key(i: usize) -> u32 {
    u32::try_from(i).unwrap_or_else(|_| panic!("overlay index {i} exceeds the u32 key range"))
}

/// Merges one sorted base row with one overlay row into `(out_cols,
/// out_vals)` — the same sorted two-cursor merge as `Csr::add`, with the
/// same cancellation rule: any overlay-affected merged value that is
/// exact `±0.0` is dropped (so `set(r, c, 0.0)` behaves like `delete`).
/// Base-only entries pass through verbatim.
pub fn merge_row<T: Scalar>(
    base_cols: &[u32],
    base_vals: &[T],
    delta: &BTreeMap<u32, Delta<T>>,
    out_cols: &mut Vec<u32>,
    out_vals: &mut Vec<T>,
) {
    out_cols.clear();
    out_vals.clear();
    let mut push = |c: u32, v: T| {
        out_cols.push(c);
        out_vals.push(v);
    };
    let mut p = 0usize;
    let mut dit = delta.iter().peekable();
    loop {
        match (base_cols.get(p), dit.peek()) {
            (Some(&bc), Some(&(&dc, d))) if dc == bc => {
                match d {
                    Delta::Set(v) => {
                        if !v.is_zero() {
                            push(bc, *v);
                        }
                    }
                    Delta::Add(dv) => {
                        let v = base_vals[p] + *dv;
                        if !v.is_zero() {
                            push(bc, v);
                        }
                    }
                    Delta::Delete => {}
                }
                p += 1;
                dit.next();
            }
            (Some(&bc), Some(&(&dc, _))) if bc < dc => {
                push(bc, base_vals[p]);
                p += 1;
            }
            (_, Some(&(&dc, d))) => {
                match d {
                    Delta::Set(v) | Delta::Add(v) => {
                        if !v.is_zero() {
                            push(dc, *v);
                        }
                    }
                    Delta::Delete => {}
                }
                dit.next();
            }
            (Some(&bc), None) => {
                push(bc, base_vals[p]);
                p += 1;
            }
            (None, None) => break,
        }
    }
}

/// The immutable tier under a [`DynamicMatrix`]: always a [`Csr`].
///
/// The `Smash` variant is uninhabited, so no value of it exists. It is
/// kept only so that two-arm matches on the enum (the repository
/// benchmark's among them) still compile; such an arm is unreachable.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicBase<T> {
    /// Compressed sparse row.
    Csr(Csr<T>),
    /// Uninhabited: kept only for existing matches on the enum.
    Smash(Infallible),
}

/// The overlay frozen into read form: the touched rows in increasing
/// order and their merged rows in CSR layout, built once per write batch.
#[derive(Debug, Clone)]
struct FrozenRows<T> {
    /// Touched row indices, strictly increasing.
    rows: Vec<u32>,
    /// `ptr[k]..ptr[k + 1]` spans the merged entries of row `rows[k]`.
    ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<T>,
    /// Logical base entries in the touched rows: the entries the merged
    /// rows replace.
    base_entries: usize,
}

/// One step of a row range walked in step with the touched rows.
enum Segment<'a, T> {
    /// A run of untouched rows, served by the base's own body.
    Base(Range<usize>),
    /// One touched row and its merged entries.
    Touched(usize, &'a [u32], &'a [T]),
}

impl<T: Scalar> FrozenRows<T> {
    /// Merges every touched row of `overlay` against `base` — the only
    /// place [`merge_row`] runs.
    fn build(base: &Csr<T>, overlay: &DeltaOverlay<T>) -> Self {
        let touched = overlay.touched_rows();
        let mut f = FrozenRows {
            rows: Vec::with_capacity(touched),
            ptr: Vec::with_capacity(touched + 1),
            cols: Vec::new(),
            vals: Vec::new(),
            base_entries: 0,
        };
        f.ptr.push(0);
        let (mut mc, mut mv) = (Vec::new(), Vec::new());
        for (&r, delta) in &overlay.rows {
            let (bc, bv) = base.row(r as usize);
            merge_row(bc, bv, delta, &mut mc, &mut mv);
            f.rows.push(r);
            f.cols.extend_from_slice(&mc);
            f.vals.extend_from_slice(&mv);
            f.ptr.push(f.cols.len());
            f.base_entries += bc.len();
        }
        f
    }

    /// The merged entries of the `k`-th touched row.
    fn row(&self, k: usize) -> (&[u32], &[T]) {
        let span = self.ptr[k]..self.ptr[k + 1];
        (&self.cols[span.clone()], &self.vals[span])
    }

    /// Walks rows `g` as alternating untouched runs and touched rows,
    /// after one binary search for the first touched row of the range.
    fn segments(&self, g: Range<usize>) -> impl Iterator<Item = Segment<'_, T>> + '_ {
        let mut k = self.rows.partition_point(|&r| (r as usize) < g.start);
        let (mut at, end) = (g.start, g.end);
        std::iter::from_fn(move || {
            if at >= end {
                return None;
            }
            let next = self.rows.get(k).map_or(end, |&r| (r as usize).min(end));
            if next > at {
                let run = at..next;
                at = next;
                return Some(Segment::Base(run));
            }
            let (cols, vals) = self.row(k);
            k += 1;
            at += 1;
            Some(Segment::Touched(next, cols, vals))
        })
    }
}

/// A logically mutable sparse matrix: immutable CSR base + delta overlay
/// write log, read through merged rows frozen once per write batch.
///
/// Writes (`set`, `add`, `delete`) go to the overlay and drop the frozen
/// view. The first read after a write merges each touched row once; reads
/// until the next write walk the sorted touched rows in step with their
/// row range, so untouched rows cost exactly what the CSR body costs.
/// Kernels consume it through [`RowRead`], so the executor's
/// `spmv`/`spmm_dense` (serial or parallel) run over it unchanged and
/// produce results bit-identical to rebuilding the merged CSR from
/// scratch. See the module docs and `docs/DYNAMIC.md`.
///
/// ```
/// use smash_core::DynamicMatrix;
/// use smash_matrix::{generators, spmv_rows};
///
/// let a = generators::uniform(32, 32, 120, 3);
/// let mut dm = DynamicMatrix::from_csr(a);
/// dm.set(0, 5, 2.5); // insert
/// dm.add(1, 7, 1.0); // accumulate
/// dm.delete(2, 2); // remove (no-op if absent)
///
/// let x = vec![1.0f64; 32];
/// let mut y = vec![0.0f64; 32];
/// spmv_rows(&dm, &x, &mut y);
///
/// // Bit-identical to a from-scratch rebuild of the merged matrix:
/// let rebuilt = dm.merged_csr();
/// let mut want = vec![0.0f64; 32];
/// spmv_rows(&rebuilt, &x, &mut want);
/// assert_eq!(y, want);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicMatrix<T> {
    base: DynamicBase<T>,
    overlay: DeltaOverlay<T>,
    /// The overlay's merged rows; built by the first read after a write
    /// and dropped by every write, which takes `&mut self`.
    frozen: OnceLock<FrozenRows<T>>,
}

/// Two matrices are equal when their base tiers and overlays are; the
/// frozen view is derived from both.
impl<T: Scalar> PartialEq for DynamicMatrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.base == other.base && self.overlay == other.overlay
    }
}

impl<T: Scalar> DynamicMatrix<T> {
    /// Wraps a CSR base with an empty overlay.
    pub fn from_csr(base: Csr<T>) -> Self {
        DynamicMatrix {
            base: DynamicBase::Csr(base),
            overlay: DeltaOverlay::new(),
            frozen: OnceLock::new(),
        }
    }

    /// The immutable base tier.
    pub fn base(&self) -> &DynamicBase<T> {
        &self.base
    }

    /// The base tier's CSR.
    fn csr(&self) -> &Csr<T> {
        match &self.base {
            DynamicBase::Csr(a) => a,
            DynamicBase::Smash(never) => match *never {},
        }
    }

    /// The pending-mutation overlay tier.
    pub fn overlay(&self) -> &DeltaOverlay<T> {
        &self.overlay
    }

    /// Logical rows.
    pub fn rows(&self) -> usize {
        self.csr().rows()
    }

    /// Logical columns.
    pub fn cols(&self) -> usize {
        self.csr().cols()
    }

    fn check_bounds(&self, r: usize, c: usize) {
        assert!(
            r < self.rows() && c < self.cols(),
            "({r}, {c}) out of bounds for {}x{}",
            self.rows(),
            self.cols()
        );
    }

    /// The frozen read view, merged on the first read after a write.
    /// Workers racing on that first read share one build.
    fn frozen(&self) -> &FrozenRows<T> {
        self.frozen
            .get_or_init(|| FrozenRows::build(self.csr(), &self.overlay))
    }

    /// Sets cell `(r, c)` to `v` (insert or update).
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        self.check_bounds(r, c);
        self.frozen.take();
        self.overlay.set(r, c, v);
    }

    /// Accumulates `d` onto cell `(r, c)` (SpAdd semantics).
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of bounds.
    pub fn add(&mut self, r: usize, c: usize, d: T) {
        self.check_bounds(r, c);
        self.frozen.take();
        self.overlay.add(r, c, d);
    }

    /// Deletes cell `(r, c)` (a no-op on the merged view if absent).
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of bounds.
    pub fn delete(&mut self, r: usize, c: usize) {
        self.check_bounds(r, c);
        self.frozen.take();
        self.overlay.delete(r, c);
    }

    /// Exact logical non-zero count of the merged view: the base's count
    /// with the touched rows' base entries swapped for their merged
    /// entries. O(1) once the view is frozen; the first read after a write
    /// pays the one merge pass over the touched rows.
    pub fn nnz(&self) -> usize {
        let f = self.frozen();
        self.csr().nnz() - f.base_entries + f.cols.len()
    }

    /// Materializes the merged view as a plain CSR — exactly the matrix a
    /// from-scratch rebuild would produce from the merged triplets.
    pub fn merged_csr(&self) -> Csr<T> {
        let a = self.csr();
        let mut b = CsrBuilder::with_capacity(a.cols(), a.rows(), self.nnz());
        for seg in self.frozen().segments(0..a.rows()) {
            match seg {
                Segment::Base(run) => run.for_each(|i| {
                    let (cols, vals) = a.row(i);
                    b.push_row(cols, vals);
                }),
                Segment::Touched(_, cols, vals) => b.push_row(cols, vals),
            }
        }
        b.finish()
    }

    /// Absorbs the overlay into a fresh base tier and clears it. The new
    /// base is [`merged_csr`](Self::merged_csr), `==` to a from-scratch
    /// build of the merged matrix.
    pub fn compact(&mut self) {
        if self.overlay.is_empty() {
            return;
        }
        self.base = DynamicBase::Csr(self.merged_csr());
        self.overlay.clear();
        self.frozen.take();
    }
}

impl<T: Scalar> RowRead<T> for DynamicMatrix<T> {
    fn rows(&self) -> usize {
        DynamicMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        DynamicMatrix::cols(self)
    }

    fn stored_work(&self) -> usize {
        self.csr().nnz() + self.overlay.len()
    }

    fn granules(&self) -> usize {
        self.rows()
    }

    fn granule_weight(&self, g: usize) -> u64 {
        RowRead::granule_weight(self.csr(), g) + self.overlay.row_len(g) as u64
    }

    fn granule_row(&self, g: usize) -> usize {
        g
    }

    fn row_into(&self, i: usize, cols: &mut Vec<u32>, vals: &mut Vec<T>) {
        let a = self.csr();
        // Checked before the `u32` search, which would wrap a larger
        // index onto a touched row.
        assert!(i < a.rows(), "row out of bounds");
        let f = self.frozen();
        let (rc, rv) = match f.rows.binary_search(&(i as u32)) {
            Ok(k) => f.row(k),
            Err(_) => a.row(i),
        };
        cols.clear();
        vals.clear();
        cols.extend_from_slice(rc);
        vals.extend_from_slice(rv);
    }

    fn spmv_granules(&self, g: Range<usize>, x: &[T], y: &mut [T]) {
        let (a, lo) = (self.csr(), g.start);
        for seg in self.frozen().segments(g) {
            match seg {
                // Untouched runs run the exact CSR serial body.
                Segment::Base(run) => {
                    let out = &mut y[run.start - lo..run.end - lo];
                    a.spmv_granules(run, x, out);
                }
                // The rebuilt matrix's row_dot over the merged entries —
                // the same SIMD body, bit for bit.
                Segment::Touched(i, mc, mv) => y[i - lo] = T::simd_dot_indexed(mc, mv, x),
            }
        }
    }

    fn spmm_dense_granules(&self, g: Range<usize>, b: &Dense<T>, c: &mut [T]) {
        let (a, n, lo) = (self.csr(), b.cols(), g.start);
        for seg in self.frozen().segments(g) {
            match seg {
                Segment::Base(run) => {
                    let out = &mut c[(run.start - lo) * n..(run.end - lo) * n];
                    a.spmm_dense_granules(run, b, out);
                }
                // The rebuilt matrix's tiled row body over the merged
                // entries.
                Segment::Touched(i, mc, mv) => {
                    let out = &mut c[(i - lo) * n..(i - lo + 1) * n];
                    for_each_rhs_tile(n, |j0, w| {
                        T::simd_row_tile(mc, mv, b.as_slice(), n, j0, w, out);
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_matrix::{generators, spmv_rows};

    fn base() -> Csr<f64> {
        generators::uniform(48, 40, 300, 17)
    }

    fn x(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.5 + (i % 5) as f64 * 0.75).collect()
    }

    #[test]
    fn untouched_dynamic_matches_base_exactly() {
        let a = base();
        let dm = DynamicMatrix::from_csr(a.clone());
        let x = x(40);
        let (mut y, mut want) = (vec![0.0; 48], vec![0.0; 48]);
        spmv_rows(&dm, &x, &mut y);
        spmv_rows(&a, &x, &mut want);
        assert_eq!(y, want);
        assert_eq!(dm.merged_csr(), a);
        assert_eq!(dm.nnz(), a.nnz());
    }

    #[test]
    fn overlay_fold_table() {
        let mut ov = DeltaOverlay::<f64>::new();
        ov.set(0, 0, 2.0);
        ov.add(0, 0, 1.0); // Set(2) + add(1) -> Set(3)
        assert_eq!(ov.row(0).unwrap()[&0], Delta::Set(3.0));
        ov.delete(0, 0);
        assert_eq!(ov.row(0).unwrap()[&0], Delta::Delete);
        ov.add(0, 0, 5.0); // add after delete -> Set(5)
        assert_eq!(ov.row(0).unwrap()[&0], Delta::Set(5.0));
        ov.add(0, 1, 1.0);
        ov.add(0, 1, 2.0); // Add(1) + add(2) -> Add(3)
        assert_eq!(ov.row(0).unwrap()[&1], Delta::Add(3.0));
        assert_eq!(ov.len(), 2);
    }

    #[test]
    fn merge_drops_exact_zeros_but_keeps_base_entries() {
        let mut dm = DynamicMatrix::from_csr(base());
        let a = base();
        let (rc, rv) = a.row(3);
        assert!(!rc.is_empty(), "seed row must have entries");
        let (c0, v0) = (rc[0] as usize, rv[0]);
        dm.add(3, c0, -v0); // exact cancellation
        dm.set(3, (c0 + 1) % 40, 0.0); // set-to-zero == delete
        let merged = dm.merged_csr();
        let (mc, _) = merged.row(3);
        assert!(!mc.contains(&(c0 as u32)), "cancelled entry must vanish");
        assert!(merged.values().iter().all(|v| *v != 0.0), "no stored zeros");
    }

    #[test]
    fn overlay_keys_past_u32_panic_instead_of_wrapping() {
        const BIG: usize = 1 << 32;
        type Call = fn(&mut DeltaOverlay<f64>);
        let max = u32::MAX as usize;
        assert_eq!(overlay_key(max), u32::MAX);
        let calls: [(&str, Call); 8] = [
            ("set row", |o| o.set(BIG, 0, 1.0)),
            ("set col", |o| o.set(0, BIG, 1.0)),
            ("add row", |o| o.add(BIG, 0, 1.0)),
            ("add col", |o| o.add(0, BIG, 1.0)),
            ("delete row", |o| o.delete(BIG, 0)),
            ("delete col", |o| o.delete(0, BIG)),
            ("row", |o| {
                let _ = o.row(BIG);
            }),
            ("row_len", |o| {
                let _ = o.row_len(BIG);
            }),
        ];
        for (what, call) in calls {
            let mut o = DeltaOverlay::new();
            let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(&mut o)));
            let msg = hit
                .expect_err(what)
                .downcast::<String>()
                .expect("formatted panic");
            assert_eq!(
                *msg, "overlay index 4294967296 exceeds the u32 key range",
                "{what}"
            );
            assert_eq!(
                o,
                DeltaOverlay::new(),
                "{what} must leave the overlay untouched"
            );
        }
        let mut o = DeltaOverlay::new();
        o.set(max, max, 2.0);
        o.add(max, max, 0.5);
        assert_eq!(o.row_len(max), 1);
        assert_eq!(
            o.deltas().collect::<Vec<_>>(),
            [(max, max, &Delta::Set(2.5))]
        );
    }

    #[test]
    fn compact_rebuilds_the_base_and_clears_the_overlay() {
        let mut dm = DynamicMatrix::from_csr(base());
        dm.set(1, 1, 9.0);
        dm.delete(2, 0);
        let merged = dm.merged_csr();
        dm.compact();
        assert!(dm.overlay().is_empty());
        assert_eq!(*dm.base(), DynamicBase::Csr(merged.clone()));
        assert_eq!(dm.merged_csr(), merged);
    }

    #[test]
    #[should_panic(expected = "row out of bounds")]
    fn row_into_past_u32_panics_instead_of_wrapping_onto_a_touched_row() {
        let mut dm = DynamicMatrix::from_csr(generators::uniform(10, 10, 30, 5));
        dm.set(3, 4, 1.0);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        RowRead::row_into(&dm, (1 << 32) + 3, &mut cols, &mut vals);
    }
}
