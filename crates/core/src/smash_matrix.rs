use crate::{
    Bitmap, BitmapHierarchy, Layout, LineCursor, LineDirectory, Nza, SmashConfig, SmashError,
};
use smash_matrix::{Csr, CsrBuilder, Dense, RowRead, Scalar};
use std::sync::atomic::{AtomicBool, Ordering};

/// Dot product of one NZA block against `n` contiguous elements of `x`
/// starting at `col`, accumulated in the lane-striped order of
/// `smash_matrix::simd` by whichever ISA body is active (AVX2 or the
/// scalar emulation of the same order).
///
/// This is the per-block body of every SMASH SpMV path: the matrix's
/// `RowRead` body runs it on each block its `LineCursor` walk yields, at
/// every block size, driven serially by `smash_matrix::spmv_rows` and over
/// row ranges by `smash_parallel::par_spmv_rows`. So their arithmetic
/// order can never diverge and parallel output stays bit-identical to
/// serial at every precision and under every ISA tier. Called with a
/// compile-time `n`, as the fixed block-size arms do for every block but
/// a row's clipped last one, its length dispatch folds away.
///
/// # Example
///
/// ```
/// use smash_core::block_dot;
///
/// let block = [2.0f64, 3.0];
/// let x = [1.0, 10.0, 100.0, 1000.0];
/// assert_eq!(block_dot(&block, &x, 2, 2), 2.0 * 100.0 + 3.0 * 1000.0);
/// ```
#[inline]
pub fn block_dot<T: Scalar>(block: &[T], x: &[T], col: usize, n: usize) -> T {
    T::simd_dot_contiguous(&block[..n], &x[col..col + n])
}

/// Multiplies one NZA block (logical columns `col..col + n`) against every
/// column of the dense right-hand-side batch `b`, accumulating into the
/// output row `out` (`out[j] += Σ_k block[k] * b[col + k][j]`).
///
/// This is the per-block body of every *batched* SMASH SpMM path: the
/// serial `smash_matrix::spmm_dense_rows` and the parallel
/// `smash_parallel::par_spmm_dense_rows` drivers both reach it, so their
/// arithmetic order can never diverge. The columns of `b` are processed in
/// register-blocked 8-wide tiles plus one tail tile; within a tile each
/// column follows exactly the lane-striped order of [`block_dot`], so
/// column `j` of the batched result is bit-identical to a SMASH SpMV
/// against column `j` alone, under every `smash_matrix::simd` ISA tier.
///
/// # Panics
///
/// Panics if `out.len() != b.cols()`, `n > block.len()`, or
/// `col + n > b.rows()`.
#[inline]
pub fn block_axpy_dense<T: Scalar>(block: &[T], b: &Dense<T>, col: usize, n: usize, out: &mut [T]) {
    assert!(n <= block.len(), "n must not exceed the block length");
    smash_matrix::axpy_dense_tiles(&block[..n], b, col, out);
}

/// A sparse matrix compressed with the SMASH encoding: a hierarchy of
/// bitmaps plus the Non-Zero Values Array (paper §3.2, §4.1).
///
/// The matrix is linearized in the configured [`Layout`] with every line
/// (row, or column for [`Layout::ColMajor`]) padded to a multiple of the
/// Bitmap-0 ratio, so blocks never straddle lines and a line's bitmap slice
/// is addressable — which is what `rdbmap [bitmap + rowOffset]` relies on in
/// the paper's SpMM (Algorithm 2).
///
/// # Example
///
/// ```
/// use smash_core::{SmashConfig, SmashMatrix};
/// use smash_matrix::generators;
///
/// let a = generators::banded(64, 64, 3, 300, 1);
/// let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4, 16])?);
/// assert_eq!(sm.decode(), a);              // lossless
/// assert_eq!(sm.nnz(), a.nnz());           // no non-zeros lost
/// assert_eq!(sm.nza().len() % 2, 0);       // whole 2-element blocks
/// # Ok::<(), smash_core::SmashError>(())
/// ```
#[derive(Debug)]
pub struct SmashMatrix<T> {
    rows: usize,
    cols: usize,
    config: SmashConfig,
    hierarchy: BitmapHierarchy,
    nza: Nza<T>,
    /// O(1) per-line index into the compressed form, built once at
    /// construction (deterministic from the hierarchy, so it never
    /// affects equality semantics in practice).
    directory: LineDirectory,
    /// Cached outcome of [`validate`](Self::validate): once the structural
    /// invariants have been checked, repeated validation is O(1). Purely an
    /// acceleration — never consulted for correctness decisions, excluded
    /// from `PartialEq`, and copied by `Clone`.
    verified: AtomicBool,
}

// Manual impls because `verified` is an `AtomicBool` (not `Clone`/
// `PartialEq`) and must not participate in equality: two matrices with the
// same structure are equal whether or not either has been validated yet.
impl<T: Clone> Clone for SmashMatrix<T> {
    fn clone(&self) -> Self {
        SmashMatrix {
            rows: self.rows,
            cols: self.cols,
            config: self.config.clone(),
            hierarchy: self.hierarchy.clone(),
            nza: self.nza.clone(),
            directory: self.directory.clone(),
            verified: AtomicBool::new(self.verified.load(Ordering::Acquire)),
        }
    }
}

impl<T: PartialEq> PartialEq for SmashMatrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.config == other.config
            && self.hierarchy == other.hierarchy
            && self.nza == other.nza
            && self.directory == other.directory
    }
}

impl<T: Scalar> SmashMatrix<T> {
    /// Compresses a CSR matrix with the given configuration.
    ///
    /// This is the conversion procedure of paper §4.1.3: discover the
    /// non-zero blocks, append them to the NZA, then build Bitmap-0 and the
    /// higher levels. One pass over the lines fills the NZA and collects
    /// the occupied blocks' Bitmap-0 indices, and the hierarchy is built
    /// from those indices alone, so time and transient memory are
    /// O(non-zeros + stored blocks + top level), never rows × cols at
    /// every level; the top level is stored in full, as the format
    /// defines it.
    pub fn encode(csr: &Csr<T>, config: SmashConfig) -> Self {
        match config.layout() {
            Layout::RowMajor => Self::encode_lines(csr.rows(), csr.cols(), config, |l| csr.row(l)),
            Layout::ColMajor => {
                // Column-major encoding walks the CSC transpose-view.
                let csc = csr.to_csc();
                Self::encode_lines(csr.rows(), csr.cols(), config, |l| csc.col(l))
            }
        }
    }

    /// Shared encoder over an abstract "line" accessor (CSR rows or CSC
    /// columns), each line yielding sorted `(offset, value)` entries.
    fn encode_lines<'m, F>(rows: usize, cols: usize, config: SmashConfig, line_entries: F) -> Self
    where
        T: 'm,
        F: Fn(usize) -> (&'m [u32], &'m [T]),
    {
        let b0 = config.block_size();
        let (lines, line_len) = match config.layout() {
            Layout::RowMajor => (rows, cols),
            Layout::ColMajor => (cols, rows),
        };
        let blocks_per_line = line_len.div_ceil(b0);

        // One pass in line order, then block order within the line: each
        // occupied block goes to the NZA and its logical Bitmap-0 index to
        // the hierarchy builder, so no full Bitmap-0 is ever built.
        let mut nza = Nza::new(b0);
        let mut occupied = Vec::new();
        let mut block = vec![T::ZERO; b0];
        for line in 0..lines {
            let (offsets, values) = line_entries(line);
            let mut k = 0usize;
            while k < offsets.len() {
                // Entries are sorted, so each occupied block's elements
                // are consecutive.
                let blk = offsets[k] as usize / b0;
                let block_start = blk * b0;
                block.fill(T::ZERO);
                while k < offsets.len() && (offsets[k] as usize) < block_start + b0 {
                    block[offsets[k] as usize - block_start] = values[k];
                    k += 1;
                }
                nza.push_block(&block);
                occupied.push(line * blocks_per_line + blk);
            }
        }
        let hierarchy = BitmapHierarchy::from_blocks(
            lines * blocks_per_line,
            occupied.iter().copied(),
            config.ratios(),
        )
        .expect("config was validated at construction");
        let directory = LineDirectory::from_blocks(lines, blocks_per_line, occupied);

        Self::assemble(rows, cols, config, hierarchy, nza, directory)
    }

    /// Packs the struct. Callers must have established the structural
    /// invariants first ([`validate_parts`]) and built the directory of
    /// the same blocks.
    ///
    /// [`validate_parts`]: Self::validate_parts
    fn assemble(
        rows: usize,
        cols: usize,
        config: SmashConfig,
        hierarchy: BitmapHierarchy,
        nza: Nza<T>,
        directory: LineDirectory,
    ) -> Self {
        SmashMatrix {
            rows,
            cols,
            config,
            hierarchy,
            nza,
            directory,
            // Every construction path either builds the invariants itself
            // (the encoders) or checks them first (`from_parts`), so an
            // assembled matrix starts out verified.
            verified: AtomicBool::new(true),
        }
    }

    /// Checks the structural invariants on loose parts, before assembly.
    ///
    /// # Errors
    ///
    /// Returns [`SmashError::Inconsistent`] on the first violation.
    fn validate_parts(
        rows: usize,
        cols: usize,
        config: &SmashConfig,
        hierarchy: &BitmapHierarchy,
        nza: &Nza<T>,
    ) -> Result<(), SmashError> {
        let (lines, line_len) = match config.layout() {
            Layout::RowMajor => (rows, cols),
            Layout::ColMajor => (cols, rows),
        };
        // Decoding emits a line's element offsets as `u32` column indices;
        // a line whose last offset does not fit would wrap them.
        if line_len.saturating_sub(1) > u32::MAX as usize {
            return Err(SmashError::Inconsistent(format!(
                "line length {line_len} overflows the u32 offsets within a line"
            )));
        }
        let expect_bits = lines
            .checked_mul(line_len.div_ceil(config.block_size()))
            .ok_or_else(|| {
                SmashError::Inconsistent(format!(
                    "{lines} lines of {line_len} elements overflow the Bitmap-0 length"
                ))
            })?;
        hierarchy.validate()?;
        if nza.num_blocks() != hierarchy.num_blocks() {
            return Err(SmashError::Inconsistent(format!(
                "NZA holds {} blocks but Bitmap-0 has {} set bits",
                nza.num_blocks(),
                hierarchy.num_blocks()
            )));
        }
        if nza.block_size() != config.block_size() {
            return Err(SmashError::Inconsistent(
                "NZA block size differs from configured Bitmap-0 ratio".into(),
            ));
        }
        if hierarchy.logical_bits(0) != expect_bits {
            return Err(SmashError::Inconsistent(format!(
                "Bitmap-0 logical length {} != lines * blocks_per_line = {}",
                hierarchy.logical_bits(0),
                expect_bits
            )));
        }
        Ok(())
    }

    /// Assembles a matrix from an already-built hierarchy and NZA,
    /// validating every structural invariant — the constructor for parts
    /// produced outside [`SmashMatrix::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`SmashError::Inconsistent`] if the parts disagree (NZA
    /// block count vs Bitmap-0 population, block size vs configuration,
    /// or bitmap extent vs the padded matrix shape), or if a line is
    /// longer than `u32` offsets can address.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        config: SmashConfig,
        hierarchy: BitmapHierarchy,
        nza: Nza<T>,
    ) -> Result<Self, SmashError> {
        Self::validate_parts(rows, cols, &config, &hierarchy, &nza)?;
        let (lines, line_len) = match config.layout() {
            Layout::RowMajor => (rows, cols),
            Layout::ColMajor => (cols, rows),
        };
        let bpl = line_len.div_ceil(config.block_size());
        let directory = LineDirectory::build(&hierarchy, lines, bpl);
        Ok(Self::assemble(
            rows, cols, config, hierarchy, nza, directory,
        ))
    }

    /// Decompresses back to CSR. Explicit zeros inside NZA blocks are
    /// dropped, so `decode(encode(m)) == m` for any matrix without stored
    /// zeros.
    ///
    /// Each line's entries come out of the cursor in offset order, so the
    /// lines are appended straight to a [`CsrBuilder`] with no sort; a
    /// column-major matrix builds its lines as the rows of the transpose.
    pub fn decode(&self) -> Csr<T> {
        let mut lines = CsrBuilder::with_capacity(self.line_len(), self.line_count(), self.nnz());
        let (mut offs, mut vals) = (Vec::new(), Vec::new());
        for line in 0..self.line_count() {
            self.line_into(line, &mut offs, &mut vals);
            lines.push_row(&offs, &vals);
        }
        let lines = lines.finish();
        match self.config.layout() {
            Layout::RowMajor => lines,
            Layout::ColMajor => lines.transpose(),
        }
    }

    /// Replaces `offs`/`vals` with line `line`'s logical entries (element
    /// offset within the line, value) in offset order. Explicit padding
    /// zeros inside a stored block are not logical entries and are
    /// skipped. The one line walk behind [`decode`](Self::decode) and
    /// [`RowRead::row_into`].
    fn line_into(&self, line: usize, offs: &mut Vec<u32>, vals: &mut Vec<T>) {
        offs.clear();
        vals.clear();
        let b0 = self.config.block_size();
        let line_len = self.line_len();
        let nza = self.nza.values();
        let line_base = line * self.blocks_per_line();
        for (ordinal, logical) in self.line_cursor(line) {
            let off0 = (logical - line_base) * b0;
            let n = b0.min(line_len - off0);
            let block = &nza[ordinal * b0..ordinal * b0 + n];
            for (k, v) in block.iter().enumerate() {
                if !v.is_zero() {
                    // Exact: every construction path bounds a line's last
                    // offset by `u32::MAX` (`validate_parts` checks it;
                    // the encoder reads the offsets from `u32` indices).
                    offs.push((off0 + k) as u32);
                    vals.push(*v);
                }
            }
        }
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> Dense<T> {
        self.decode().to_dense()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The encoding configuration.
    pub fn config(&self) -> &SmashConfig {
        &self.config
    }

    /// The bitmap hierarchy.
    pub fn hierarchy(&self) -> &BitmapHierarchy {
        &self.hierarchy
    }

    /// The non-zero values array.
    pub fn nza(&self) -> &Nza<T> {
        &self.nza
    }

    /// Number of logical non-zeros (explicit zeros in NZA blocks excluded).
    pub fn nnz(&self) -> usize {
        self.nza.nnz()
    }

    /// Number of NZA blocks (= set bits of Bitmap-0).
    pub fn num_blocks(&self) -> usize {
        self.nza.num_blocks()
    }

    /// Lines in the configured layout (rows, or columns for col-major).
    pub fn line_count(&self) -> usize {
        match self.config.layout() {
            Layout::RowMajor => self.rows,
            Layout::ColMajor => self.cols,
        }
    }

    /// Elements per line before padding (cols, or rows for col-major).
    pub fn line_len(&self) -> usize {
        match self.config.layout() {
            Layout::RowMajor => self.cols,
            Layout::ColMajor => self.rows,
        }
    }

    /// Level-0 bits per line.
    pub fn blocks_per_line(&self) -> usize {
        self.line_len().div_ceil(self.config.block_size())
    }

    /// Maps a logical level-0 bit index to `(line, element offset)` of the
    /// block start.
    pub fn block_position(&self, logical: usize) -> (usize, usize) {
        let bpl = self.blocks_per_line();
        (logical / bpl, (logical % bpl) * self.config.block_size())
    }

    /// Maps a logical level-0 bit index to the `(row, col)` of the block
    /// start in the original matrix, layout-aware. This is the
    /// `row_index`/`column_index` pair the BMU publishes via `RDIND`.
    pub fn block_row_col(&self, logical: usize) -> (usize, usize) {
        let (line, off) = self.block_position(logical);
        match self.config.layout() {
            Layout::RowMajor => (line, off),
            Layout::ColMajor => (off, line),
        }
    }

    /// Iterates over `(row, col_of_block_start, block_values)` in storage
    /// order — what a software SpMV walks.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (usize, usize, &[T])> + '_ {
        self.cursor_blocks().map(move |(ordinal, logical)| {
            let (r, c) = self.block_row_col(logical);
            (r, c, self.nza.block(ordinal))
        })
    }

    /// Every line's [`line_cursor`](Self::line_cursor) in line order: all
    /// `(nza_ordinal, logical_bitmap0_index)` pairs, ordinal ascending.
    fn cursor_blocks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.line_count()).flat_map(move |line| self.line_cursor(line))
    }

    /// Reconstructs the full (uncompacted) Bitmap-0, whose bit `line *
    /// blocks_per_line + b` covers block `b` of that line. Single-level
    /// hierarchies store Bitmap-0 in this form already.
    ///
    /// O(logical bits) memory and time — this is the expansion the
    /// kernels used to pay on every call and no longer do; it remains as
    /// the property-test oracle for [`line_cursor`](Self::line_cursor)
    /// and for format conversions that need the dense bitmap.
    pub fn full_bitmap0(&self) -> Bitmap {
        self.hierarchy.expand_full(0)
    }

    /// The per-line directory: O(1) row seeks into the compressed form
    /// (starting NZA ordinals and each line's non-empty Bitmap-0 words,
    /// which seed and feed each line's cursor) — the software analogue of
    /// the BMU's `bmapinfo` state. Built once at construction in one pass
    /// over the occupied blocks; 8 bytes per line plus 12 per non-empty
    /// word.
    pub fn directory(&self) -> &LineDirectory {
        &self.directory
    }

    /// Word-level cursor over one line's non-zero blocks, yielding
    /// `(nza_ordinal, logical_bitmap0_index)` in block order — O(1) seek
    /// to the line, then count-trailing-zeros over the line's non-empty
    /// directory words. It reads neither the stored hierarchy nor an
    /// expanded bitmap, so every config walks the same way.
    ///
    /// # Panics
    ///
    /// Panics if `line >= line_count()`.
    #[inline]
    pub fn line_cursor(&self, line: usize) -> LineCursor<'_> {
        self.directory.cursor(line)
    }

    /// Per-line starting NZA block ordinal (length `line_count() + 1`): the
    /// rank of each line's first bit in the full Bitmap-0. SpMM uses this to
    /// address a line's blocks directly. Served from the
    /// [`directory`](Self::directory) in O(1) — no expansion.
    pub fn line_block_starts(&self) -> &[u32] {
        self.directory.line_starts()
    }

    /// Total compressed footprint in bytes: all bitmap levels (compacted, as
    /// stored per Fig. 4(b)) plus the NZA. This is the SMASH side of the
    /// Fig. 19 storage comparison.
    pub fn storage_bytes(&self) -> usize {
        self.hierarchy.storage_bits().div_ceil(8) + self.nza.storage_bytes()
    }

    /// Ratio of the uncompressed dense footprint to [`storage_bytes`]
    /// (paper Fig. 19's "total compression ratio").
    ///
    /// [`storage_bytes`]: SmashMatrix::storage_bytes
    pub fn total_compression_ratio(&self) -> f64 {
        let dense = self.rows * self.cols * std::mem::size_of::<T>();
        dense as f64 / self.storage_bytes().max(1) as f64
    }

    /// Measured locality of sparsity (§7.2.3): average non-zeros per NZA
    /// block divided by the block size.
    pub fn locality_of_sparsity(&self) -> f64 {
        if self.nza.is_empty() {
            0.0
        } else {
            1.0 - self.nza.zero_fraction()
        }
    }

    /// Sparse matrix addition directly on the encoding (paper §5.2.1 lists
    /// SpAdd among the operations SMASH accelerates): one two-cursor merge
    /// over the operands' occupied blocks sums matching blocks into the
    /// output NZA, and the merged block indices build the output
    /// hierarchy directly — no per-element index discovery and no full
    /// Bitmap-0. A block whose sum is all zeros is dropped.
    ///
    /// Both operands must share dimensions, layout and block size; the
    /// result uses `self`'s configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SmashError::Inconsistent`] if the operands' shapes,
    /// layouts or block sizes differ.
    pub fn add(&self, other: &SmashMatrix<T>) -> Result<SmashMatrix<T>, SmashError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(SmashError::Inconsistent(format!(
                "operand shapes differ: {}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        if self.config.layout() != other.config.layout() {
            return Err(SmashError::Inconsistent("operand layouts differ".into()));
        }
        let b0 = self.config.block_size();
        if b0 != other.config.block_size() {
            return Err(SmashError::Inconsistent(format!(
                "block sizes differ: {b0} vs {}",
                other.config.block_size()
            )));
        }
        // Two-cursor block-level merge over the set Bitmap-0 bits; the
        // surviving indices come out ascending and build the hierarchy.
        let mut occupied = Vec::new();
        let mut nza = Nza::new(b0);
        let mut ia = self.cursor_blocks().peekable();
        let mut ib = other.cursor_blocks().peekable();
        let mut sum = vec![T::ZERO; b0];
        loop {
            let (take_a, take_b) = match (ia.peek(), ib.peek()) {
                (None, None) => break,
                (Some(_), None) => (true, false),
                (None, Some(_)) => (false, true),
                (Some(&(_, la)), Some(&(_, lb))) => (la <= lb, lb <= la),
            };
            let logical = match (take_a, take_b) {
                (true, true) => {
                    let (oa, la) = ia.next().expect("peeked");
                    let (ob, _) = ib.next().expect("peeked");
                    for (s, (x, y)) in sum
                        .iter_mut()
                        .zip(self.nza.block(oa).iter().zip(other.nza.block(ob)))
                    {
                        *s = *x + *y;
                    }
                    la
                }
                (true, false) => {
                    let (oa, la) = ia.next().expect("peeked");
                    sum.copy_from_slice(self.nza.block(oa));
                    la
                }
                (false, true) => {
                    let (ob, lb) = ib.next().expect("peeked");
                    sum.copy_from_slice(other.nza.block(ob));
                    lb
                }
                (false, false) => unreachable!("merge invariant"),
            };
            // Entries may cancel to exactly zero; an all-zero block is
            // dropped entirely (its Bitmap-0 bit stays clear).
            if sum.iter().any(|v| !v.is_zero()) {
                occupied.push(logical);
                nza.push_block(&sum);
            }
        }
        let (lines, bpl) = (self.line_count(), self.blocks_per_line());
        let hierarchy = BitmapHierarchy::from_blocks(
            lines * bpl,
            occupied.iter().copied(),
            self.config.ratios(),
        )?;
        let directory = LineDirectory::from_blocks(lines, bpl, occupied);
        let out = Self::assemble(
            self.rows,
            self.cols,
            self.config.clone(),
            hierarchy,
            nza,
            directory,
        );
        debug_assert!(out.validate().is_ok());
        Ok(out)
    }

    /// Checks all structural invariants.
    ///
    /// The outcome is cached: the first successful call stores a verified
    /// marker and later calls return in O(1), so hot paths (the executor's
    /// `try_*` tier validates operands on every call) never re-pay the
    /// full scan.
    ///
    /// # Errors
    ///
    /// Returns [`SmashError::Inconsistent`] on the first violation.
    pub fn validate(&self) -> Result<(), SmashError> {
        if self.verified.load(Ordering::Acquire) {
            return Ok(());
        }
        Self::validate_parts(
            self.rows,
            self.cols,
            &self.config,
            &self.hierarchy,
            &self.nza,
        )?;
        self.verified.store(true, Ordering::Release);
        Ok(())
    }

    /// Whether this matrix has already passed [`validate`](Self::validate)
    /// (all construction paths validate, so this is normally `true`).
    pub fn is_verified(&self) -> bool {
        self.verified.load(Ordering::Acquire)
    }
}

/// Stamps `$body` out once per block-size arm with `$n` bound to a
/// `const`: 2, 4 and 8 get their own compile-time length, any other
/// block size takes the same body with `$n = 0`, which
/// [`SmashMatrix::fold_row`] reads as "block size from the
/// configuration". The dispatch runs once per granule call, not per block.
macro_rules! with_block_len {
    ($b0:expr, $n:ident => $body:expr) => {
        match $b0 {
            2 => {
                const $n: usize = 2;
                $body
            }
            4 => {
                const $n: usize = 4;
                $body
            }
            8 => {
                const $n: usize = 8;
                $body
            }
            _ => {
                const $n: usize = 0;
                $body
            }
        }
    };
}

impl<T: Scalar> SmashMatrix<T> {
    /// Folds `f` over the stored blocks of row `row` of a row-major
    /// matrix in column order, handing it each block's logical values and
    /// the column of its first one: `f(acc, block, col)` covers columns
    /// `col..col + block.len()`. The one per-row body of both granule
    /// methods of the [`RowRead`] impl.
    ///
    /// `N` is the block size fixed at compile time, or 0 to read it from
    /// the configuration. With `N` fixed, every block but a row's last
    /// one, clipped at `cols`, is `N` long as far as the compiler can
    /// see, so the per-block dot's length dispatch folds away.
    #[inline(always)]
    fn fold_row<const N: usize, A>(
        &self,
        row: usize,
        init: A,
        mut f: impl FnMut(A, &[T], usize) -> A,
    ) -> A {
        let b0 = if N == 0 { self.config.block_size() } else { N };
        let cols = self.cols;
        // The cursor yields logical indices; the block's index within
        // the line is the offset from the line's first bit.
        let line_base = row * cols.div_ceil(b0);
        let nza = self.nza.values();
        let mut acc = init;
        for (ordinal, logical) in self.line_cursor(row) {
            let col = (logical - line_base) * b0;
            let block = &nza[ordinal * b0..][..b0];
            acc = if col + b0 <= cols {
                f(acc, block, col)
            } else {
                f(acc, &block[..cols - col], col)
            };
        }
        acc
    }
}

/// The row-operand view of a row-major SMASH matrix: one granule per row
/// line, weighted by the line's occupied-block count (straight out of the
/// [`LineDirectory`], no rank scans). Both granule bodies dispatch once
/// on the block size to `SmashMatrix::fold_row` at a compile-time
/// length (2, 4 or 8; any other size reads it at run time), which walks
/// each row's directory words with a [`LineCursor`], whatever the
/// hierarchy config, and runs the shared [`block_dot`] /
/// [`block_axpy_dense`] per-block routines, so the serial and parallel
/// drivers stay bit-identical to each other at every block size.
///
/// # Panics
///
/// The granule methods panic if the matrix is column-major: the kernel
/// stack walks row lines.
impl<T: Scalar> RowRead<T> for SmashMatrix<T> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn stored_work(&self) -> usize {
        self.nza().len()
    }

    fn granules(&self) -> usize {
        assert_eq!(self.config.layout(), Layout::RowMajor, "row-major SpMV");
        self.rows
    }

    fn granule_weight(&self, g: usize) -> u64 {
        let starts = self.line_block_starts();
        u64::from(starts[g + 1] - starts[g])
    }

    fn granule_row(&self, g: usize) -> usize {
        g
    }

    fn row_into(&self, i: usize, cols: &mut Vec<u32>, vals: &mut Vec<T>) {
        assert_eq!(self.config.layout(), Layout::RowMajor, "row-major rows");
        self.line_into(i, cols, vals);
    }

    fn spmv_granules(&self, g: std::ops::Range<usize>, x: &[T], y: &mut [T]) {
        assert_eq!(self.config.layout(), Layout::RowMajor, "row-major SpMV");
        with_block_len!(self.config.block_size(), N => {
            for (row, out) in g.zip(y.iter_mut()) {
                // The shared per-block body of every SMASH SpMV.
                *out = self.fold_row::<N, _>(row, T::ZERO, |acc, block, col| {
                    acc + block_dot(block, x, col, block.len())
                });
            }
        })
    }

    fn spmm_dense_granules(&self, g: std::ops::Range<usize>, b: &Dense<T>, c: &mut [T]) {
        assert_eq!(self.config.layout(), Layout::RowMajor, "row-major SpMM");
        let n = b.cols();
        c.fill(T::ZERO);
        with_block_len!(self.config.block_size(), N => {
            for row in g.clone() {
                let out = &mut c[(row - g.start) * n..][..n];
                // The shared per-block body of every batched SMASH SpMM.
                self.fold_row::<N, _>(row, (), |(), block, col| {
                    block_axpy_dense(block, b, col, block.len(), out)
                });
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_matrix::{generators, Coo};

    fn cfg(ratios: &[u32]) -> SmashConfig {
        SmashConfig::row_major(ratios).unwrap()
    }

    #[test]
    fn paper_fig1_matrix_roundtrips() {
        let mut coo = Coo::new(4, 4);
        for &(r, c, v) in &[
            (0usize, 0usize, 3.2),
            (1, 0, 1.2),
            (1, 2, 4.2),
            (2, 3, 5.1),
            (3, 0, 5.3),
            (3, 1, 3.3),
        ] {
            coo.push(r, c, v);
        }
        let a = Csr::from_coo(&coo);
        for ratios in [&[2u32][..], &[2, 2], &[4, 2, 2], &[1, 4]] {
            let sm = SmashMatrix::encode(&a, cfg(ratios));
            sm.validate().unwrap();
            assert_eq!(sm.decode(), a, "ratios {ratios:?}");
        }
    }

    #[test]
    fn from_parts_rejects_shapes_past_the_index_width_before_allocating() {
        // A tiny valid hierarchy under a huge claimed shape: the shape
        // checks fire first, so nothing is sized by the claimed shape.
        let mut coo = Coo::new(1, 4);
        coo.push(0, 1, 1.0);
        let sm = SmashMatrix::encode(&Csr::from_coo(&coo), cfg(&[2]));
        let parts = |rows, cols| {
            SmashMatrix::from_parts(
                rows,
                cols,
                cfg(&[2]),
                sm.hierarchy().clone(),
                sm.nza().clone(),
            )
        };
        // A 2^33-long line would decode to wrapped u32 columns.
        if let Some(wide) = 1usize.checked_shl(33) {
            match parts(1, wide) {
                Err(SmashError::Inconsistent(msg)) => assert!(msg.contains("u32"), "{msg}"),
                other => panic!("2^33-column line accepted: {other:?}"),
            }
        }
        // `lines * blocks_per_line` past usize::MAX.
        match parts(usize::MAX, 4) {
            Err(SmashError::Inconsistent(msg)) => assert!(msg.contains("overflow"), "{msg}"),
            other => panic!("overflowing Bitmap-0 length accepted: {other:?}"),
        }
        // The longest addressable line is u32::MAX + 1 elements: it passes
        // the width check and fails only on the bitmap extent.
        if let Some(widest) = (u32::MAX as usize).checked_add(1) {
            match parts(1, widest) {
                Err(SmashError::Inconsistent(msg)) => assert!(msg.contains("Bitmap-0"), "{msg}"),
                other => panic!("mismatched extent accepted: {other:?}"),
            }
        }
        assert_eq!(parts(1, 4).unwrap(), sm);
    }

    #[test]
    fn from_parts_reassembles_an_encoding_and_rejects_mismatched_parts() {
        let a = generators::clustered(50, 41, 300, 6, 5);
        for config in [cfg(&[2, 4, 16]), SmashConfig::col_major(&[4, 2]).unwrap()] {
            let sm = SmashMatrix::encode(&a, config.clone());
            let (rows, cols) = (sm.rows(), sm.cols());
            let parts = |nza: Nza<f64>| {
                SmashMatrix::from_parts(rows, cols, config.clone(), sm.hierarchy().clone(), nza)
            };
            let back = parts(sm.nza().clone()).expect("an encoding's own parts are consistent");
            assert_eq!(back, sm);
            assert!(back.is_verified());

            let b0 = sm.nza().block_size();
            let mut extra = sm.nza().values().to_vec();
            extra.extend(std::iter::repeat_n(1.0, b0));
            match parts(Nza::from_values(b0, extra)) {
                Err(SmashError::Inconsistent(msg)) => assert!(msg.contains("set bits"), "{msg}"),
                other => panic!("extra NZA block accepted: {other:?}"),
            }

            // Same block count, wider blocks.
            let wide = vec![1.0; sm.num_blocks() * (b0 + 1)];
            match parts(Nza::from_values(b0 + 1, wide)) {
                Err(SmashError::Inconsistent(msg)) => assert!(msg.contains("block size"), "{msg}"),
                other => panic!("wrong block size accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn roundtrip_many_shapes_and_configs() {
        let mats = [
            generators::uniform(33, 57, 200, 3),
            generators::banded(64, 64, 4, 400, 4),
            generators::clustered(50, 41, 300, 6, 5),
            generators::block_dense(48, 48, 512, 8, 6),
            generators::power_law(40, 80, 350, 1.1, 7),
        ];
        for a in &mats {
            for ratios in [&[2u32][..], &[4, 4], &[2, 4, 16], &[8, 4, 2]] {
                let sm = SmashMatrix::encode(a, cfg(ratios));
                sm.validate().unwrap();
                assert_eq!(&sm.decode(), a, "ratios {ratios:?}");
            }
        }
    }

    #[test]
    fn col_major_roundtrips() {
        // Column lines of 37 elements leave ragged last groups under 2- to
        // 4-level hierarchies.
        let a = generators::uniform(37, 53, 400, 9);
        for ratios in [&[2u32, 4][..], &[2, 4, 16], &[8, 4, 2], &[2, 2, 3, 2]] {
            let sm = SmashMatrix::encode(&a, SmashConfig::col_major(ratios).unwrap());
            sm.validate().unwrap();
            assert_eq!(sm.decode(), a, "ratios {ratios:?}");
            assert_eq!(sm.line_count(), 53);
            assert_eq!(sm.line_len(), 37);
        }
    }

    #[test]
    fn decode_drops_explicit_zeros_in_both_layouts() {
        // Stored zeros at (0,1), next to 2.0 in column 1's first block, and
        // at (2,2), alone in its block in either layout.
        let a = Csr::from_parts(
            4,
            4,
            vec![0, 2, 3, 4, 5],
            vec![0, 1, 1, 2, 3],
            vec![1.0, 0.0, 2.0, 0.0, 3.0],
        )
        .unwrap();
        let mut coo = Coo::new(4, 4);
        for &(r, c, v) in &[(0, 0, 1.0), (1, 1, 2.0), (3, 3, 3.0)] {
            coo.push(r, c, v);
        }
        let expect = Csr::from_coo(&coo);
        for ratios in [&[2u32][..], &[2, 2]] {
            for config in [
                SmashConfig::row_major(ratios).unwrap(),
                SmashConfig::col_major(ratios).unwrap(),
            ] {
                let sm = SmashMatrix::encode(&a, config);
                assert_eq!(sm.nnz(), 3);
                assert_eq!(sm.decode(), expect, "{}", sm.config());
            }
        }
    }

    #[test]
    fn blocks_never_straddle_lines() {
        // 5 columns with block size 4: each row pads to 8 elements.
        let a = generators::uniform(16, 5, 30, 11);
        let sm = SmashMatrix::encode(&a, cfg(&[4]));
        assert_eq!(sm.blocks_per_line(), 2);
        for (_, col_start, _) in sm.iter_blocks() {
            assert!(col_start % 4 == 0 && col_start < 8);
        }
        assert_eq!(sm.decode(), a);
    }

    #[test]
    fn nza_holds_whole_blocks_with_padding() {
        let a = generators::uniform(32, 32, 64, 13);
        let sm = SmashMatrix::encode(&a, cfg(&[8]));
        assert_eq!(sm.nza().len() % 8, 0);
        assert!(sm.nza().len() >= a.nnz());
        assert_eq!(sm.nnz(), a.nnz());
    }

    #[test]
    fn zero_matrix_is_tiny() {
        let a = Csr::<f64>::from_coo(&Coo::new(256, 256));
        let sm = SmashMatrix::encode(&a, cfg(&[2, 16, 16]));
        assert_eq!(sm.num_blocks(), 0);
        assert_eq!(sm.nza().len(), 0);
        // Only the top-level bitmap remains: ceil(256*128 / 16 / 16) = 128 bits.
        assert_eq!(sm.storage_bytes(), 16);
        assert_eq!(sm.decode(), a);
    }

    #[test]
    fn block_row_col_matches_decode_positions() {
        let a = generators::clustered(20, 30, 100, 4, 17);
        let sm = SmashMatrix::encode(&a, cfg(&[4, 4]));
        for (logical, (r, c, block)) in sm.hierarchy().blocks().zip(sm.iter_blocks()) {
            assert_eq!(sm.block_row_col(logical), (r, c));
            assert_eq!(block.len(), 4);
        }
    }

    #[test]
    fn line_block_starts_are_consistent() {
        let a = generators::uniform(24, 24, 100, 19);
        let sm = SmashMatrix::encode(&a, cfg(&[2, 4]));
        let starts = sm.line_block_starts();
        assert_eq!(starts.len(), 25);
        assert_eq!(*starts.last().unwrap() as usize, sm.num_blocks());
        assert_eq!(starts[0], 0);
        // Each line's count must equal the expansion oracle's.
        let full = sm.full_bitmap0();
        let bpl = sm.blocks_per_line();
        for line in 0..24 {
            let count = full.rank((line + 1) * bpl) - full.rank(line * bpl);
            assert_eq!((starts[line + 1] - starts[line]) as usize, count);
        }
    }

    #[test]
    fn line_cursor_matches_expansion_oracle() {
        let mats = [
            generators::uniform(33, 57, 200, 3),
            generators::clustered(50, 41, 300, 6, 5),
        ];
        for a in &mats {
            for ratios in [&[2u32][..], &[4, 4], &[2, 4, 16], &[8, 4, 2]] {
                let sm = SmashMatrix::encode(a, cfg(ratios));
                let all: Vec<usize> = sm.full_bitmap0().iter_ones().collect();
                let bpl = sm.blocks_per_line();
                let mut got = Vec::new();
                for line in 0..sm.line_count() {
                    for (ordinal, logical) in sm.line_cursor(line) {
                        assert_eq!(logical / bpl, line, "ratios {ratios:?}");
                        got.push((ordinal, logical));
                    }
                }
                let want: Vec<(usize, usize)> = all.into_iter().enumerate().collect();
                assert_eq!(got, want, "ratios {ratios:?}");
            }
        }
    }

    #[test]
    fn add_matches_csr_add() {
        let a = generators::uniform(48, 56, 300, 41);
        let b = generators::clustered(48, 56, 280, 4, 42);
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            for ratios in [&[2u32][..], &[4, 4], &[2, 4, 16]] {
                let config = SmashConfig::new(ratios, layout).unwrap();
                let sa = SmashMatrix::encode(&a, config.clone());
                let sb = SmashMatrix::encode(&b, config);
                let sum = sa.add(&sb).unwrap();
                sum.validate().unwrap();
                assert_eq!(sum.decode(), a.add(&b).unwrap(), "{layout:?} {ratios:?}");
            }
        }
    }

    #[test]
    fn add_drops_cancelled_blocks() {
        let mut pos = Coo::new(4, 4);
        pos.push(1, 1, 2.5);
        pos.push(2, 3, 1.0);
        let mut neg = Coo::new(4, 4);
        neg.push(1, 1, -2.5);
        let a = SmashMatrix::encode(&Csr::from_coo(&pos), cfg(&[2]));
        let b = SmashMatrix::encode(&Csr::from_coo(&neg), cfg(&[2]));
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.nnz(), 1, "cancelled entry must vanish");
        assert_eq!(sum.num_blocks(), 1, "cancelled block must be dropped");
    }

    #[test]
    fn add_rejects_mismatched_operands() {
        let a = generators::uniform(8, 8, 10, 1);
        let b = generators::uniform(8, 9, 10, 1);
        let sa = SmashMatrix::encode(&a, cfg(&[2]));
        let sb = SmashMatrix::encode(&b, cfg(&[2]));
        assert!(sa.add(&sb).is_err());
        let sb2 = SmashMatrix::encode(&a, cfg(&[4]));
        assert!(sa.add(&sb2).is_err());
        let sb3 = SmashMatrix::encode(&a, SmashConfig::col_major(&[2]).unwrap());
        assert!(sa.add(&sb3).is_err());
    }

    #[test]
    fn higher_b0_lowers_locality_for_scattered_matrices() {
        let a = generators::uniform(128, 128, 400, 23);
        let l2 = SmashMatrix::encode(&a, cfg(&[2])).locality_of_sparsity();
        let l8 = SmashMatrix::encode(&a, cfg(&[8])).locality_of_sparsity();
        assert!(l8 < l2, "l8 {l8} >= l2 {l2}");
    }

    #[test]
    fn compression_ratio_beats_csr_for_clustered_dense() {
        // Dense blocks at ~12% density: SMASH should compress better than
        // CSR's 12 bytes/non-zero (paper Fig. 19, right side).
        let a = generators::block_dense(128, 128, 2048, 8, 29);
        let sm = SmashMatrix::encode(&a, cfg(&[2, 4, 16]));
        let csr_ratio = (a.rows() * a.cols() * 8) as f64 / a.storage_bytes() as f64;
        assert!(
            sm.total_compression_ratio() > csr_ratio,
            "smash {} vs csr {csr_ratio}",
            sm.total_compression_ratio()
        );
    }

    #[test]
    fn csr_beats_smash_for_extremely_sparse() {
        // ~0.0006% density, scattered: CSR stores 12 B/nnz; SMASH pays for
        // the full top-level bitmap plus half-empty 2-element blocks
        // (paper Fig. 19, left side, M1-M4).
        let a = generators::uniform(4096, 4096, 100, 31);
        let sm = SmashMatrix::encode(&a, cfg(&[2, 4, 16]));
        let csr_ratio = (a.rows() * a.cols() * 8) as f64 / a.storage_bytes() as f64;
        assert!(
            sm.total_compression_ratio() < csr_ratio,
            "smash {} vs csr {csr_ratio}",
            sm.total_compression_ratio()
        );
    }
}
