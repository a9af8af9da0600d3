//! O(1) row seeks into the compressed matrix: the software analogue of
//! the BMU's per-matrix `bmapinfo` state.
//!
//! Historically every kernel that needed per-line addressing expanded the
//! *entire* logical Bitmap-0 (`BitmapHierarchy::expand_full`) — O(dense
//! size) auxiliary memory and scan time per call. [`LineDirectory`]
//! replaces that. Built once per matrix in one pass over the occupied
//! blocks' ascending Bitmap-0 indices, it maps each block-line to its
//! starting NZA ordinal and to its non-empty Bitmap-0 words, each line
//! padded to whole 64-bit words. Any line of the compressed matrix is then
//! reachable in O(1) without touching preceding rows.
//!
//! [`LineCursor`] walks one line's non-zero blocks the way the BMU scans
//! a bitmap word (paper §4.3–4.4): it takes the line's non-empty words in
//! order and pops their set bits with count-trailing-zeros. It reads
//! nothing of the stored [`BitmapHierarchy`](crate::BitmapHierarchy), so
//! one walk serves every hierarchy config: the upper levels keep the
//! format's storage and the hardware's skips, not the software walk's
//! work.
//!
//! Auxiliary memory is 8 bytes per line plus 12 bytes per non-empty word,
//! and no line has more non-empty words than stored blocks: sublinear in
//! the dense matrix size.

use crate::BitmapHierarchy;

/// Per-matrix directory for O(1) row seeks into the compressed form.
///
/// The directory holds each line's starting NZA ordinal and a
/// line-padded list of the non-empty Bitmap-0 words: bit `b` of a line's
/// word `w` stands for the line's block `64 * w + b`. It is derived from
/// the occupied blocks alone and does not depend on the hierarchy's
/// upper levels. [`SmashMatrix`](crate::SmashMatrix) builds one at
/// construction and keeps it beside the hierarchy.
///
/// # Example
///
/// ```
/// use smash_core::{SmashConfig, SmashMatrix};
/// use smash_matrix::generators;
///
/// let a = generators::banded(64, 64, 3, 300, 1);
/// let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4, 16])?);
/// // Row 40's blocks, without expanding Bitmap-0:
/// for (ordinal, logical) in sm.line_cursor(40) {
///     assert_eq!(logical / sm.blocks_per_line(), 40);
///     assert!(ordinal < sm.num_blocks());
/// }
/// # Ok::<(), smash_core::SmashError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineDirectory {
    /// Starting NZA block ordinal of each line (length `lines + 1`).
    starts: Vec<u32>,
    /// Index into `word_at`/`words` of each line's first non-empty word
    /// (length `lines + 1`).
    word_starts: Vec<u32>,
    /// Per non-empty word: its index within its line.
    word_at: Vec<u32>,
    /// Per non-empty word: its Bitmap-0 bits.
    words: Vec<u64>,
    /// Level-0 bits per line.
    bpl: usize,
}

/// Converts an NZA block ordinal for the `u32` line starts, panicking
/// instead of truncating past `u32::MAX` blocks.
fn start_u32(ordinal: usize) -> u32 {
    u32::try_from(ordinal)
        .unwrap_or_else(|_| panic!("{ordinal} NZA blocks overflow the u32 per-line block starts"))
}

impl LineDirectory {
    /// Builds the directory of the hierarchy's occupied blocks, read in
    /// its depth-first order ([`BitmapHierarchy::blocks`]): the route for
    /// a hierarchy built elsewhere. The encoders, which hold the block
    /// indices already, skip the scan.
    ///
    /// # Panics
    ///
    /// Panics if `lines * bpl` disagrees with the hierarchy's logical
    /// level-0 length, a line holds more than 2³⁸ blocks, or the
    /// hierarchy holds more than `u32::MAX` blocks.
    pub fn build(h: &BitmapHierarchy, lines: usize, bpl: usize) -> LineDirectory {
        assert_eq!(
            lines * bpl,
            h.logical_bits(0),
            "directory shape disagrees with the hierarchy"
        );
        Self::from_blocks(lines, bpl, h.blocks())
    }

    /// Builds the directory in one pass over the occupied blocks' logical
    /// Bitmap-0 indices, given in strictly ascending order. Cost
    /// O(blocks + lines).
    ///
    /// # Panics
    ///
    /// As [`build`](Self::build).
    pub(crate) fn from_blocks(
        lines: usize,
        bpl: usize,
        blocks: impl IntoIterator<Item = usize>,
    ) -> LineDirectory {
        assert!(
            bpl / 64 <= u32::MAX as usize,
            "{bpl} blocks per line overflow the u32 word indices"
        );
        let mut starts = Vec::with_capacity(lines + 1);
        let mut word_starts = Vec::with_capacity(lines + 1);
        let (mut word_at, mut words) = (Vec::new(), Vec::new());
        let mut ordinal = 0usize;
        let mut last = None;
        // Logical end of the last line opened, and logical index of the
        // last word's bit 0 (word starts ascend across lines too).
        let (mut line_end, mut open_word) = (0usize, usize::MAX);
        // There are never more non-empty words than blocks, so once the
        // block count fits `u32` the word count does too.
        for block in blocks {
            debug_assert!(
                last.is_none_or(|p| p < block) && block < lines * bpl,
                "level-0 indices must ascend within {lines} lines of {bpl} bits"
            );
            last = Some(block);
            // Opens the block's line and every empty line before it.
            while line_end <= block {
                starts.push(start_u32(ordinal));
                word_starts.push(words.len() as u32);
                line_end += bpl;
            }
            let off = block + bpl - line_end;
            let word = block - off % 64;
            if word != open_word {
                open_word = word;
                word_at.push((off / 64) as u32);
                words.push(0u64);
            }
            *words.last_mut().expect("a word is open") |= 1 << (off % 64);
            ordinal += 1;
        }
        // The trailing empty lines, then the end.
        while starts.len() <= lines {
            starts.push(start_u32(ordinal));
            word_starts.push(words.len() as u32);
        }
        LineDirectory {
            starts,
            word_starts,
            word_at,
            words,
            bpl,
        }
    }

    /// Number of lines covered.
    pub fn line_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Level-0 bits per line.
    pub fn blocks_per_line(&self) -> usize {
        self.bpl
    }

    /// Per-line starting NZA block ordinal (length `line_count() + 1`):
    /// entry `l` is the number of non-zero blocks strictly before line
    /// `l`. This is the array SpMM's per-line addressing reads.
    pub fn line_starts(&self) -> &[u32] {
        &self.starts
    }

    /// Streaming cursor over line `l`'s non-zero blocks, seeded from the
    /// line's first NZA ordinal and its span of non-empty words.
    ///
    /// # Panics
    ///
    /// Panics if `line >= line_count()`.
    #[inline]
    pub fn cursor(&self, line: usize) -> LineCursor<'_> {
        assert!(line < self.line_count(), "line {line} out of range");
        let span = self.word_starts[line] as usize..self.word_starts[line + 1] as usize;
        LineCursor {
            words: self.words[span.clone()].iter().zip(&self.word_at[span]),
            word: 0,
            base: 0,
            line_base: line * self.bpl,
            ordinal: self.starts[line] as usize,
        }
    }

    /// Directory footprint in bytes — the peak auxiliary memory an
    /// indexed kernel needs: 8 bytes per line plus 12 per non-empty word.
    pub fn aux_bytes(&self) -> usize {
        (self.starts.len() + self.word_starts.len() + self.word_at.len())
            * std::mem::size_of::<u32>()
            + self.words.len() * std::mem::size_of::<u64>()
    }
}

/// Iterator over one line's non-zero blocks, yielding
/// `(nza_ordinal, logical_level0_index)` in block order.
///
/// The cursor is the software counterpart of the BMU's word scan (paper
/// §4.3–4.4): an outer loop over the line's non-empty Bitmap-0 words from
/// the [`LineDirectory`], and an inner one that pops each word's set bits
/// with count-trailing-zeros. A block's logical index is its word's first
/// bit plus the bit's position; its ordinal counts up from the line's
/// start. A line walk costs O(1) per block, whatever the hierarchy's
/// config. Produced by [`LineDirectory::cursor`] /
/// [`SmashMatrix::line_cursor`](crate::SmashMatrix::line_cursor).
#[derive(Debug, Clone)]
pub struct LineCursor<'a> {
    /// The line's unvisited non-empty words, with their in-line indices.
    words: std::iter::Zip<std::slice::Iter<'a, u64>, std::slice::Iter<'a, u32>>,
    /// Unvisited set bits of the current word.
    word: u64,
    /// Logical index of the current word's bit 0.
    base: usize,
    /// Logical index of the line's first bit.
    line_base: usize,
    ordinal: usize,
}

impl Iterator for LineCursor<'_> {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        while self.word == 0 {
            let (&word, &at) = self.words.next()?;
            self.word = word;
            self.base = self.line_base + 64 * at as usize;
        }
        let logical = self.base + self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        let ordinal = self.ordinal;
        self.ordinal += 1;
        Some((ordinal, logical))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bitmap;

    fn bm(bits: &[usize], len: usize) -> Bitmap {
        let mut b = Bitmap::zeros(len);
        for &i in bits {
            b.set(i, true);
        }
        b
    }

    /// Oracle: the cursor must agree with filtering the expanded bitmap,
    /// and the depth-first build with the ascending-index one.
    fn check_against_expansion(h: &BitmapHierarchy, lines: usize, bpl: usize) {
        let dir = LineDirectory::build(h, lines, bpl);
        let all: Vec<usize> = h.expand_full(0).iter_ones().collect();
        assert_eq!(dir, LineDirectory::from_blocks(lines, bpl, all.clone()));
        let starts = dir.line_starts();
        for line in 0..lines {
            let want: Vec<(usize, usize)> = all
                .iter()
                .enumerate()
                .filter(|(_, &l)| l / bpl == line)
                .map(|(o, &l)| (o, l))
                .collect();
            let got: Vec<(usize, usize)> = dir.cursor(line).collect();
            assert_eq!(got, want, "line {line}");
            assert_eq!((starts[line + 1] - starts[line]) as usize, want.len());
        }
        assert_eq!(starts[0], 0);
        assert_eq!(starts[lines] as usize, all.len());
        assert!(dir.aux_bytes() <= 8 * (lines + 1) + 12 * all.len());
    }

    #[test]
    fn cursor_matches_expansion_across_shapes() {
        // (bits, len, lines, ratios)
        let cases: Vec<(Vec<usize>, usize, usize, Vec<u32>)> = vec![
            (vec![0, 2, 13], 16, 4, vec![2, 4]),
            (vec![3, 17, 40, 41, 63], 64, 8, vec![2, 4, 4]),
            (vec![], 64, 8, vec![2, 8]),
            ((0..64).collect(), 64, 4, vec![2, 2, 2, 2]),
            (vec![9], 10, 2, vec![2, 4]),
            (vec![0, 299], 300, 10, vec![2, 8, 8]),
            (vec![5, 6, 7], 40, 5, vec![2]), // single level
            // Lines of 150 blocks: three words each, the last one partial.
            (vec![0, 63, 64, 149, 150, 277, 449], 450, 3, vec![2, 64]),
            (vec![1, 130, 260, 299], 300, 2, vec![2, 64, 64]),
        ];
        for (bits, len, lines, ratios) in cases {
            let bpl = len / lines;
            let h = BitmapHierarchy::from_level0(&bm(&bits, len), &ratios).unwrap();
            check_against_expansion(&h, lines, bpl);
        }
    }

    #[test]
    fn cursor_handles_groups_straddling_lines() {
        // bpl = 3 with ratio-4 groups: every group crosses a line border.
        let bits: Vec<usize> = (0..60).filter(|i| i % 5 != 2).collect();
        let h = BitmapHierarchy::from_level0(&bm(&bits, 60), &[2, 4, 4]).unwrap();
        check_against_expansion(&h, 20, 3);
    }

    #[test]
    fn cursor_handles_sparse_deep_hierarchies() {
        // Lines narrower and wider than an upper-level group, and wider
        // than a word, under 3- and 4-level hierarchies, with sparse fills
        // that leave lines and words empty.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for ratios in [&[2u32, 2, 2][..], &[2, 3, 2], &[2, 2, 2, 2], &[3, 4, 2, 2]] {
            for bpl in (1..20).chain([63, 64, 65, 130]) {
                for density in [2u64, 9, 31] {
                    let lines = 97 / bpl + 3;
                    let len = lines * bpl;
                    let bits: Vec<usize> = (0..len)
                        .filter(|_| {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            state.is_multiple_of(density)
                        })
                        .collect();
                    let h = BitmapHierarchy::from_level0(&bm(&bits, len), ratios).unwrap();
                    check_against_expansion(&h, lines, bpl);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "4294967296 NZA blocks overflow")]
    fn block_starts_past_u32_panic_instead_of_wrapping() {
        start_u32(u32::MAX as usize + 1);
    }

    #[test]
    fn directory_rejects_wrong_shape() {
        let h = BitmapHierarchy::from_level0(&bm(&[1], 16), &[2, 4]).unwrap();
        let result = std::panic::catch_unwind(|| LineDirectory::build(&h, 3, 4));
        assert!(result.is_err(), "12 != 16 logical bits must panic");
    }
}
