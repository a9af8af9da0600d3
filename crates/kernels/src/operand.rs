//! The executor's unified operand layer.
//!
//! Exactly one type describes "a matrix the kernel stack can read":
//! [`SpmvOperand`], a borrowed enum over every format — CSR, BCSR,
//! row-major SMASH and the dynamic base + overlay tier. The enum exists
//! only at the *boundary* (dispatch keys, validation, profiles); compute
//! never matches on it per format. Instead [`SpmvOperand::row_read`]
//! hands kernels the format's [`RowRead`] view, and the generic drivers
//! (`smash_matrix::spmv_rows`, `smash_parallel::par_spmv_rows`, …) do the
//! rest — that single match arm is the only per-format dispatch in the
//! executor's SpMV/SpMM paths.
//!
//! The block-merge view for SMASH × SMASH products
//! (`SmashMergeOperand`, historically a second, parallel operand enum
//! in the native kernels) lives here too, so the operand abstractions
//! have one home.

use crate::planner::{Format, MatrixProfile};
use crate::SmashError;
use smash_core::{Delta, DynamicBase, DynamicMatrix, Layout, SmashMatrix};
use smash_matrix::{Bcsr, Csr, RowRead, Scalar};

/// Any matrix format the executor can run an SpMV over, borrowed from the
/// caller. Construct it implicitly through `Into` (`exec.spmv(&csr, …)`)
/// or explicitly for dynamic format choice.
#[derive(Debug, Clone, Copy)]
pub enum SpmvOperand<'a, T> {
    /// Plain compressed sparse row.
    Csr(&'a Csr<T>),
    /// Blocked CSR.
    Bcsr(&'a Bcsr<T>),
    /// SMASH-compressed (hierarchical bitmap + NZA), row-major.
    Smash(&'a SmashMatrix<T>),
    /// Dynamic matrix: immutable base tier + delta overlay, merged on
    /// access.
    Dynamic(&'a DynamicMatrix<T>),
}

impl<'a, T> From<&'a Csr<T>> for SpmvOperand<'a, T> {
    fn from(a: &'a Csr<T>) -> Self {
        SpmvOperand::Csr(a)
    }
}

impl<'a, T> From<&'a Bcsr<T>> for SpmvOperand<'a, T> {
    fn from(a: &'a Bcsr<T>) -> Self {
        SpmvOperand::Bcsr(a)
    }
}

impl<'a, T> From<&'a SmashMatrix<T>> for SpmvOperand<'a, T> {
    fn from(a: &'a SmashMatrix<T>) -> Self {
        SpmvOperand::Smash(a)
    }
}

impl<'a, T> From<&'a DynamicMatrix<T>> for SpmvOperand<'a, T> {
    fn from(a: &'a DynamicMatrix<T>) -> Self {
        SpmvOperand::Dynamic(a)
    }
}

impl<'a, T: Scalar> SpmvOperand<'a, T> {
    /// The operand's [`RowRead`] view — the **only** per-format dispatch
    /// the executor's SpMV/SpMM paths perform. Everything downstream
    /// (serial drivers, parallel drivers, validation sweeps) is generic
    /// over the returned trait object.
    pub fn row_read(&self) -> &'a dyn RowRead<T> {
        match self {
            SpmvOperand::Csr(a) => *a,
            SpmvOperand::Bcsr(a) => *a,
            SpmvOperand::Smash(a) => *a,
            SpmvOperand::Dynamic(a) => *a,
        }
    }

    /// Rows of the operand.
    pub fn rows(&self) -> usize {
        self.row_read().rows()
    }

    /// Columns of the operand.
    pub fn cols(&self) -> usize {
        self.row_read().cols()
    }

    /// The planner [`Format`] of this operand.
    pub fn format(&self) -> Format {
        match self {
            SpmvOperand::Csr(_) => Format::Csr,
            SpmvOperand::Bcsr(_) => Format::Bcsr,
            SpmvOperand::Smash(_) => Format::Smash,
            SpmvOperand::Dynamic(_) => Format::Dynamic,
        }
    }

    /// The structural [`MatrixProfile`] dispatch decisions key on —
    /// `O(rows)` for CSR/BCSR/dynamic, `O(lines)` for SMASH (the line
    /// directory and block fill are already materialized at encode time).
    pub fn profile(&self) -> MatrixProfile {
        match self {
            SpmvOperand::Csr(a) => MatrixProfile::of_csr(a),
            SpmvOperand::Bcsr(a) => MatrixProfile::of_bcsr(a),
            SpmvOperand::Smash(a) => MatrixProfile::of_smash(a),
            SpmvOperand::Dynamic(a) => {
                let r = self.row_read();
                let per_row = (0..r.granules()).map(|g| r.granule_weight(g) as usize);
                MatrixProfile::from_row_lengths(
                    a.rows().max(1),
                    a.cols(),
                    a.nnz(),
                    r.stored_work(),
                    per_row,
                )
            }
        }
    }

    /// Whether every stored value of the operand is finite — what the
    /// `NonFinitePolicy::Reject` scan inspects. For a dynamic operand
    /// this sweeps the base tier's values *and* the overlay's pending
    /// `Set`/`Add` deltas (a `Delete` carries no value).
    pub fn values_finite(&self) -> bool {
        fn all_finite<T: Scalar>(values: &[T]) -> bool {
            values.iter().all(|v| v.is_finite())
        }
        match self {
            SpmvOperand::Csr(a) => all_finite(a.values()),
            SpmvOperand::Bcsr(a) => all_finite(a.values()),
            SpmvOperand::Smash(a) => all_finite(a.nza().values()),
            SpmvOperand::Dynamic(a) => {
                let base_ok = match a.base() {
                    DynamicBase::Csr(b) => all_finite(b.values()),
                    DynamicBase::Smash(never) => match *never {},
                };
                base_ok
                    && a.overlay().deltas().all(|(_, _, d)| match d {
                        Delta::Set(v) | Delta::Add(v) => v.is_finite(),
                        Delta::Delete => true,
                    })
            }
        }
    }

    /// Structural validation of the operand, routed to its format's
    /// `validate()` (cached after the first success) and mapped into the
    /// unified taxonomy. Row-major is required of SMASH operands: the
    /// executor's kernels walk row lines. Dynamic operands validate
    /// their CSR base (the overlay is sorted and bounds-checked by
    /// construction).
    pub(crate) fn check(&self, op: &'static str) -> Result<(), SmashError> {
        match self {
            SpmvOperand::Csr(a) => check_csr(a),
            SpmvOperand::Bcsr(a) => a.validate().map_err(|source| SmashError::InvalidStructure {
                format: "bcsr",
                source,
            }),
            SpmvOperand::Smash(a) => check_smash(a, op),
            SpmvOperand::Dynamic(a) => match a.base() {
                DynamicBase::Csr(b) => check_csr(b),
                DynamicBase::Smash(never) => match *never {},
            },
        }
    }
}

fn check_csr<T: Scalar>(a: &Csr<T>) -> Result<(), SmashError> {
    a.validate().map_err(|source| SmashError::InvalidStructure {
        format: "csr",
        source,
    })
}

fn check_smash<T: Scalar>(a: &SmashMatrix<T>, op: &'static str) -> Result<(), SmashError> {
    if a.config().layout() != Layout::RowMajor {
        return Err(SmashError::Unsupported {
            op,
            detail: "SMASH operand must be row-major".into(),
        });
    }
    a.validate().map_err(SmashError::Encoding)
}

/// Validates the operand pair for a SMASH × SMASH product: `a` row-major,
/// `b` column-major, one-level hierarchies with equal block sizes and
/// conforming dimensions.
pub(crate) fn check_smash_spmm_operands<T: Scalar>(a: &SmashMatrix<T>, b: &SmashMatrix<T>) {
    assert_eq!(a.cols(), b.rows());
    assert_eq!(a.config().layout(), Layout::RowMajor);
    assert_eq!(b.config().layout(), Layout::ColMajor);
    assert_eq!(a.config().block_size(), b.config().block_size());
}

/// A SMASH operand prepared for block-granular line merges: per-line in-line
/// block offsets, flattened and addressed through the directory's per-line
/// starts — O(nnz blocks + lines) auxiliary memory, never the O(dense) full
/// Bitmap-0 expansion.
///
/// The operand of the native `spmm_smash` baseline kernel and the per-line
/// block table of the instrumented `spmm_hw_smash` / `spmm_sw_smash`.
pub(crate) struct SmashMergeOperand<'a, T> {
    offs: Vec<u32>,
    starts: &'a [u32],
    nza: &'a [T],
    b0: usize,
    lines: usize,
}

impl<'a, T: Scalar> SmashMergeOperand<'a, T> {
    pub(crate) fn new(sm: &'a SmashMatrix<T>) -> Self {
        let bpl = sm.blocks_per_line();
        let mut offs = vec![0u32; sm.num_blocks()];
        for line in 0..sm.line_count() {
            for (ordinal, logical) in sm.line_cursor(line) {
                offs[ordinal] = (logical - line * bpl) as u32;
            }
        }
        let lines = sm.line_block_starts().len() - 1;
        Self {
            offs,
            starts: sm.line_block_starts(),
            nza: sm.nza().values(),
            b0: sm.config().block_size(),
            lines,
        }
    }

    /// `(base ordinal, in-line offsets)` for line `l`: the NZA ordinal
    /// of the line's first block and the ascending in-line block offsets
    /// of its blocks.
    pub(crate) fn line(&self, l: usize) -> (usize, &[u32]) {
        let base = self.starts[l] as usize;
        (base, &self.offs[base..self.starts[l + 1] as usize])
    }
}

/// One output row of the SMASH × SMASH product: merges row-line `i` of `a`
/// against every column-line of `b`, emitting `(col, value)` for each
/// structural hit whose accumulated dot is non-zero (the cancellation policy
/// documented in the native-kernel module docs).
///
/// This is the per-row body of the native `spmm_smash` baseline kernel.
pub(crate) fn spmm_smash_row<T: Scalar>(
    i: usize,
    a: &SmashMergeOperand<'_, T>,
    b: &SmashMergeOperand<'_, T>,
    mut emit: impl FnMut(usize, T),
) {
    let b0 = a.b0;
    let (a_base, al) = a.line(i);
    if al.is_empty() {
        return;
    }
    for j in 0..b.lines {
        let (b_base, bl) = b.line(j);
        if bl.is_empty() {
            continue;
        }
        let (mut p, mut q) = (0usize, 0usize);
        let mut acc = T::ZERO;
        let mut hit = false;
        while p < al.len() && q < bl.len() {
            match al[p].cmp(&bl[q]) {
                std::cmp::Ordering::Equal => {
                    let oa = (a_base + p) * b0;
                    let ob = (b_base + q) * b0;
                    for k in 0..b0 {
                        acc += a.nza[oa + k] * b.nza[ob + k];
                    }
                    hit = true;
                    p += 1;
                    q += 1;
                }
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
            }
        }
        if hit && !acc.is_zero() {
            emit(j, acc);
        }
    }
}
