//! O(1) row seeks into the compressed hierarchy: the software analogue
//! of the BMU's per-matrix `bmapinfo` state.
//!
//! Historically every kernel that needed per-line addressing expanded the
//! *entire* logical Bitmap-0 (`BitmapHierarchy::expand_full`) — O(dense
//! size) auxiliary memory and scan time per call. [`LineDirectory`]
//! replaces that: built once per matrix in one streaming pass over the
//! stored bitmaps, it maps each block-line to its starting NZA ordinal
//! and to one position per level in the *stored* (compacted) bitmaps.
//! Any line of the compressed matrix is then reachable in O(1) without
//! touching preceding rows.
//!
//! [`LineCursor`] walks one line's non-zero blocks the way the BMU scans
//! the hierarchy (paper §4.3–4.4): it pops set bits out of the stored
//! level-0 words with count-trailing-zeros, and each time the scan enters
//! a new stored group it advances the level above by one set bit, in step
//! with level 0. A row walk costs amortized O(1) per stored group and
//! issues no rank and no select. The build keeps no rank index either:
//! one running popcount per level serves every line in order.
//!
//! Auxiliary memory is O(lines · levels) instead of O(logical bits):
//! sublinear in the dense matrix size.

use crate::{Bitmap, BitmapHierarchy, MAX_LEVELS};

/// Per-matrix directory for O(1) row seeks into the compressed form.
///
/// The directory snapshots positional metadata of a [`BitmapHierarchy`];
/// queries take the hierarchy again (the directory does not own it) and
/// are only valid for the hierarchy the directory was built from —
/// [`SmashMatrix`](crate::SmashMatrix) builds one at construction and
/// keeps the pair together.
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
    /// Number of bitmap levels of the hierarchy.
    levels: usize,
    /// Starting NZA block ordinal of each line (length `lines + 1`).
    starts: Vec<u32>,
    /// Per-line, per-level stored starts, `levels` entries per line
    /// (length `(lines + 1) * levels`): entry `line * levels + l` is the
    /// position in the *stored* level-`l` bitmap of the ancestor of the
    /// line's first level-0 bit, or its insertion point when that
    /// ancestor's group was compacted away. The last line's entries hold
    /// the stored lengths.
    stored_starts: Vec<u64>,
    /// Same layout as `stored_starts`: the stored start of the group that
    /// position falls in (for the top level, which has no groups, the
    /// position itself). Kept so a cursor seeds without dividing.
    group_starts: Vec<u64>,
    /// Level-0 bits per line.
    bpl: usize,
}

/// Set bits of one stored level below a position, counted in one forward
/// pass: positions must be queried in non-decreasing order, and each word
/// is popcounted once over the whole pass.
struct RunningRank<'a> {
    words: &'a [u64],
    /// Words fully counted so far.
    wi: usize,
    /// Set bits in `words[..wi]`.
    before: usize,
}

impl RunningRank<'_> {
    /// Set bits in `[0, p)`.
    fn rank(&mut self, p: usize) -> usize {
        debug_assert!(p >= self.wi * 64, "positions must not decrease");
        let full = p / 64;
        for &w in &self.words[self.wi..full] {
            self.before += w.count_ones() as usize;
        }
        self.wi = full;
        match p % 64 {
            0 => self.before,
            rem => self.before + (self.words[full] & ((1u64 << rem) - 1)).count_ones() as usize,
        }
    }
}

/// Converts an NZA block ordinal for the `u32` line starts, panicking
/// instead of truncating past `u32::MAX` blocks.
fn start_u32(ordinal: usize) -> u32 {
    u32::try_from(ordinal)
        .unwrap_or_else(|_| panic!("{ordinal} NZA blocks overflow the u32 per-line block starts"))
}

impl LineDirectory {
    /// Builds the directory in one streaming pass: a line's ancestor
    /// position at every level never decreases as the line index grows
    /// (an insertion point included), so each stored level is popcounted
    /// once with a running count. Total cost O(stored bits / 64 + lines ·
    /// levels).
    ///
    /// # Panics
    ///
    /// Panics if `lines * bpl` disagrees with the hierarchy's logical
    /// level-0 length, the hierarchy has more than [`MAX_LEVELS`] levels,
    /// or it holds more than `u32::MAX` blocks.
    pub fn build(h: &BitmapHierarchy, lines: usize, bpl: usize) -> LineDirectory {
        assert_eq!(
            lines * bpl,
            h.logical_bits(0),
            "directory shape disagrees with the hierarchy"
        );
        let levels = h.num_levels();
        assert!(levels <= MAX_LEVELS, "at most {MAX_LEVELS} levels");
        let top = levels - 1;
        let mut ranks: Vec<RunningRank> = (0..levels)
            .map(|l| RunningRank {
                words: h.stored_level(l).words(),
                wi: 0,
                before: 0,
            })
            .collect();
        let mut starts = Vec::with_capacity(lines + 1);
        let mut stored_starts = vec![0u64; (lines + 1) * levels];
        let mut group_starts = vec![0u64; (lines + 1) * levels];
        for line in 0..lines {
            // Logical index of the line's first bit, then of its ancestor
            // at each level up.
            let mut logical = [0usize; MAX_LEVELS];
            logical[0] = line * bpl;
            for l in 1..levels {
                logical[l] = logical[l - 1] / h.ratios()[l] as usize;
            }
            let at = line * levels;
            // Top-down: the top is stored in full (logical == stored); a
            // level's stored group is the rank of its parent's position
            // among the set parent bits, present only if that parent bit
            // is stored and set.
            let (mut pos, mut present) = (logical[top], true);
            stored_starts[at + top] = pos as u64;
            group_starts[at + top] = pos as u64;
            for l in (0..top).rev() {
                let g = h.ratios()[l + 1] as usize;
                present = present && h.stored_level(l + 1).get(pos);
                let group = ranks[l + 1].rank(pos) * g;
                pos = if present {
                    group + logical[l] % g
                } else {
                    group
                };
                stored_starts[at + l] = pos as u64;
                group_starts[at + l] = group as u64;
            }
            starts.push(start_u32(ranks[0].rank(pos)));
        }
        for l in 0..levels {
            let end = h.stored_level(l).len();
            stored_starts[lines * levels + l] = end as u64;
            group_starts[lines * levels + l] = end as u64;
        }
        starts.push(start_u32(ranks[0].rank(h.stored_level(0).len())));
        LineDirectory {
            levels,
            starts,
            stored_starts,
            group_starts,
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

    /// NZA ordinal of line `l`'s first block — an O(1) row seek.
    ///
    /// # Panics
    ///
    /// Panics if `line >= line_count()`.
    pub fn start_ordinal(&self, line: usize) -> usize {
        assert!(line < self.line_count(), "line {line} out of range");
        self.starts[line] as usize
    }

    /// Number of non-zero blocks in line `l`.
    ///
    /// # Panics
    ///
    /// Panics if `line >= line_count()`.
    pub fn blocks_in_line(&self, line: usize) -> usize {
        assert!(line < self.line_count(), "line {line} out of range");
        (self.starts[line + 1] - self.starts[line]) as usize
    }

    /// Streaming cursor over line `l`'s non-zero blocks, seeded from the
    /// line's per-level stored starts.
    ///
    /// `h` must be the hierarchy the directory was built from.
    ///
    /// # Panics
    ///
    /// Panics if `line >= line_count()` or the hierarchy's level count
    /// disagrees with the directory.
    #[inline]
    pub fn cursor<'a>(&self, h: &'a BitmapHierarchy, line: usize) -> LineCursor<'a> {
        assert!(line < self.line_count(), "line {line} out of range");
        let levels = self.levels;
        assert_eq!(
            h.num_levels(),
            levels,
            "directory built from a different hierarchy"
        );
        let at = line * levels;
        let start = self.stored_starts[at] as usize;
        let end = self.stored_starts[at + levels] as usize;
        let words0 = h.stored_level(0).words();
        let (wi, word) = if start < end {
            (start / 64, words0[start / 64] & (u64::MAX << (start % 64)))
        } else {
            // Nothing to scan: the first word advance already passes `end`.
            (end / 64, 0)
        };
        let mut up = Ancestors {
            h,
            top: levels - 1,
            next: [0; MAX_LEVELS],
            group_end: [0; MAX_LEVELS],
            delta: [0; MAX_LEVELS],
        };
        for l in 2..levels {
            up.next[l] = self.stored_starts[at + l] as usize;
        }
        for l in 1..up.top {
            up.group_end[l] = self.group_starts[at + l] as usize;
        }
        LineCursor {
            words0,
            word,
            wi,
            end,
            ordinal: self.starts[line] as usize,
            // Each level's walk starts at the start of its seed group, so
            // the first bit found steps the level above onto that group's
            // parent. A single-level hierarchy has no groups.
            group_end: if levels == 1 {
                usize::MAX
            } else {
                self.group_starts[at] as usize
            },
            delta: 0,
            group: h.ratios().get(1).map_or(0, |&g| g as usize),
            parents: h.stored_level(up.top.min(1)),
            next_parent: self.stored_starts[at + up.top.min(1)] as usize,
            up,
        }
    }

    /// Directory footprint in bytes — the peak auxiliary memory an
    /// indexed kernel needs, O(lines · levels).
    pub fn aux_bytes(&self) -> usize {
        self.starts.len() * std::mem::size_of::<u32>()
            + (self.stored_starts.len() + self.group_starts.len()) * std::mem::size_of::<u64>()
    }
}

/// Iterator over one line's non-zero blocks, yielding
/// `(nza_ordinal, logical_level0_index)` in block order.
///
/// The cursor is the software counterpart of the BMU's buffered top-down
/// scan (paper §4.3–4.4). It keeps one position per level, seeded from
/// the line's per-level stored starts in the [`LineDirectory`]. Level 0
/// holds the current stored word and pops its set bits with
/// count-trailing-zeros; a block's logical index is its stored position
/// plus the current group's offset. When the scan crosses into the next
/// stored group, level 1 advances to its next set bit — stored groups
/// appear in the same order as their parents' set bits — and the same
/// rule recurses upward. A line walk therefore costs amortized O(1) per
/// stored group, with no rank and no select. Produced by
/// [`LineDirectory::cursor`] /
/// [`SmashMatrix::line_cursor`](crate::SmashMatrix::line_cursor).
#[derive(Debug, Clone)]
pub struct LineCursor<'a> {
    /// Stored level-0 words.
    words0: &'a [u64],
    /// Unvisited set bits of level-0 word `wi`.
    word: u64,
    wi: usize,
    /// Stored level-0 end of the line (exclusive).
    end: usize,
    ordinal: usize,
    /// Stored end of the current level-0 group (`usize::MAX` for a
    /// single-level hierarchy).
    group_end: usize,
    /// Logical minus stored index inside the current level-0 group.
    delta: usize,
    /// Level-0 group size (`ratios[1]`).
    group: usize,
    /// Stored level 1, whose set bits are the level-0 groups' parents.
    parents: &'a Bitmap,
    /// Where the search for the next level-1 set bit starts.
    next_parent: usize,
    /// Levels 2 and up.
    up: Ancestors<'a>,
}

/// Walk state of the levels above 1, touched once per level-1 group.
///
/// The cursor updates a copy and stores it back, so no reference into
/// the cursor escapes its per-block path and that path's state can stay
/// in registers.
#[derive(Debug, Clone, Copy)]
struct Ancestors<'a> {
    h: &'a BitmapHierarchy,
    /// Index of the top level, stored in full (logical == stored).
    top: usize,
    /// Per level from 2: where the search for its next set bit starts.
    next: [usize; MAX_LEVELS],
    /// Per level from 1 to below the top: stored end of the current group.
    group_end: [usize; MAX_LEVELS],
    /// Per level from 1 to below the top: logical minus stored index
    /// inside the current group.
    delta: [usize; MAX_LEVELS],
}

impl Ancestors<'_> {
    /// Logical index of stored bit `p` of level `l >= 1`, first stepping
    /// level `l + 1` to its next set bit until `p`'s group is the current
    /// one.
    fn logical(&mut self, l: usize, p: usize) -> usize {
        if l == self.top {
            return p;
        }
        let g = self.h.ratios()[l + 1] as usize;
        while p >= self.group_end[l] {
            let q = self
                .h
                .stored_level(l + 1)
                .next_one(self.next[l + 1])
                .expect("stored group always has a set parent bit");
            self.next[l + 1] = q + 1;
            let parent = self.logical(l + 1, q);
            // The next group starts where the current one ends.
            self.delta[l] = parent * g - self.group_end[l];
            self.group_end[l] += g;
        }
        p + self.delta[l]
    }
}

impl LineCursor<'_> {
    /// Makes the level-0 group holding stored bit `s` the current one:
    /// steps level 1 to its next set bit per group passed (at most two:
    /// only the seed group can lack set bits inside the line).
    #[inline]
    fn enter_group(&mut self, s: usize) {
        while s >= self.group_end {
            let p = self
                .parents
                .next_one(self.next_parent)
                .expect("stored group always has a set parent bit");
            self.next_parent = p + 1;
            let parent = if self.up.top == 1 {
                p
            } else {
                let mut up = self.up;
                let parent = up.logical(1, p);
                self.up = up;
                parent
            };
            self.delta = parent * self.group - self.group_end;
            self.group_end += self.group;
        }
    }
}

impl Iterator for LineCursor<'_> {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        while self.word == 0 {
            self.wi += 1;
            if self.wi * 64 >= self.end {
                return None;
            }
            self.word = self.words0[self.wi];
        }
        let s = self.wi * 64 + self.word.trailing_zeros() as usize;
        if s >= self.end {
            self.word = 0;
            return None;
        }
        self.word &= self.word - 1;
        if s >= self.group_end {
            self.enter_group(s);
        }
        let ordinal = self.ordinal;
        self.ordinal += 1;
        Some((ordinal, s + self.delta))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Between 0 (tail bits may be clear) and the unscanned span.
        (0, Some(self.end.saturating_sub(self.wi * 64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(bits: &[usize], len: usize) -> Bitmap {
        let mut b = Bitmap::zeros(len);
        for &i in bits {
            b.set(i, true);
        }
        b
    }

    /// Oracle: the cursor must agree with filtering the expanded bitmap.
    fn check_against_expansion(h: &BitmapHierarchy, lines: usize, bpl: usize) {
        let dir = LineDirectory::build(h, lines, bpl);
        let full = h.expand_full(0);
        let all: Vec<usize> = full.iter_ones().collect();
        let mut expect_ord = 0usize;
        for line in 0..lines {
            let want: Vec<(usize, usize)> = all
                .iter()
                .enumerate()
                .filter(|(_, &l)| l / bpl == line)
                .map(|(o, &l)| (o, l))
                .collect();
            let got: Vec<(usize, usize)> = dir.cursor(h, line).collect();
            assert_eq!(got, want, "line {line}");
            assert_eq!(dir.start_ordinal(line), expect_ord);
            assert_eq!(dir.blocks_in_line(line), want.len());
            expect_ord += want.len();
        }
        assert_eq!(dir.line_starts()[lines] as usize, all.len());
    }

    #[test]
    fn cursor_matches_expansion_across_shapes() {
        // (bits, len, lines, bpl, ratios)
        let cases: Vec<(Vec<usize>, usize, usize, Vec<u32>)> = vec![
            (vec![0, 2, 13], 16, 4, vec![2, 4]),
            (vec![3, 17, 40, 41, 63], 64, 8, vec![2, 4, 4]),
            (vec![], 64, 8, vec![2, 8]),
            ((0..64).collect(), 64, 4, vec![2, 2, 2, 2]),
            (vec![9], 10, 2, vec![2, 4]),
            (vec![0, 299], 300, 10, vec![2, 8, 8]),
            (vec![5, 6, 7], 40, 5, vec![2]), // single level
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
        // Lines narrower and wider than an upper-level group under 3- and
        // 4-level hierarchies. Sparse fills leave a line's seed group at
        // some level with no set bit inside the line, so the walk must
        // step past it, and leave gaps above it, so stepping once too few
        // times would give a wrong logical index.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for ratios in [&[2u32, 2, 2][..], &[2, 3, 2], &[2, 2, 2, 2], &[3, 4, 2, 2]] {
            for bpl in 1..20 {
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
