use crate::{Bitmap, SmashError};

/// The SMASH hierarchy of bitmaps (paper §3.2, §4.1, Fig. 4).
///
/// Level 0 is the lowest bitmap: each of its bits covers one NZA block of
/// `ratios[0]` matrix elements. Each bit of level `i > 0` covers `ratios[i]`
/// bits of level `i − 1`. The top level is stored in full; every lower level
/// is stored *compacted* — only the child groups of set parent bits are kept
/// (Fig. 4(b): "we store in memory only the non-zero blocks of the bitmaps
/// and the NZA"), so an all-zero matrix region costs a single clear bit at
/// the top.
///
/// In-order traversal never needs rank/select: child groups appear in
/// storage in exactly the order a depth-first scan visits their parents,
/// which is also how the BMU walks the hierarchy in hardware (§4.2.3).
///
/// # Example
///
/// ```
/// use smash_core::{Bitmap, BitmapHierarchy};
///
/// // 16 blocks, two of them non-zero, reduced 4:1 twice.
/// let mut bm0 = Bitmap::zeros(16);
/// bm0.set(3, true);
/// bm0.set(12, true);
/// let h = BitmapHierarchy::from_level0(&bm0, &[2, 4, 4])?;
/// assert_eq!(h.num_levels(), 3);
/// assert_eq!(h.blocks().collect::<Vec<_>>(), vec![3, 12]);
/// // Compacted level 0 keeps only the two non-empty 4-bit groups.
/// assert_eq!(h.stored_level(0).len(), 8);
/// # Ok::<(), smash_core::SmashError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapHierarchy {
    /// Per-level compression ratios, level 0 first (`ratios[0]` is the
    /// element ratio of Bitmap-0; `ratios[i>0]` reduce bitmap lengths).
    ratios: Vec<u32>,
    /// Stored bitmaps, level 0 first. The last is full, the rest compacted.
    levels: Vec<Bitmap>,
    /// Logical (uncompacted) bit count of each level.
    logical_bits: Vec<usize>,
}

impl BitmapHierarchy {
    /// Builds a hierarchy from the full Bitmap-0 and the configured ratios:
    /// its set bits, in order, fed to the same one-pass builder the
    /// encoder uses. Kept for callers that hold a full Bitmap-0 (the
    /// tests' oracle among them); the encoder never builds one.
    ///
    /// `ratios[0]` is recorded (it defines the meaning of a level-0 bit) but
    /// only `ratios[1..]` drive the reductions.
    ///
    /// # Errors
    ///
    /// Returns [`SmashError::NoLevels`] if `ratios` is empty, or
    /// [`SmashError::InvalidRatio`] if an upper-level ratio is `< 2`.
    pub fn from_level0(bm0: &Bitmap, ratios: &[u32]) -> Result<Self, SmashError> {
        Self::from_blocks(bm0.len(), bm0.iter_ones(), ratios)
    }

    /// Builds a hierarchy of `bits0` logical level-0 bits in one pass
    /// over the set ones, `blocks`, given in strictly ascending order.
    ///
    /// Each level below the top opens a zeroed group of `ratios[l + 1]`
    /// bits whenever its parent index changes and sets the child's bit in
    /// it; a child that lands in an already open group stops the climb,
    /// since every ancestor is set already. The top level is allocated in
    /// full. Cost O(set bits · levels + stored bits / 64), independent of
    /// the logical size of every level but the top.
    ///
    /// # Errors
    ///
    /// As [`from_level0`](Self::from_level0).
    pub(crate) fn from_blocks(
        bits0: usize,
        blocks: impl IntoIterator<Item = usize>,
        ratios: &[u32],
    ) -> Result<Self, SmashError> {
        if ratios.is_empty() {
            return Err(SmashError::NoLevels);
        }
        for (level, &r) in ratios.iter().enumerate().skip(1) {
            if r < 2 {
                return Err(SmashError::InvalidRatio { level, ratio: r });
            }
        }
        let mut logical_bits = vec![bits0];
        for &r in &ratios[1..] {
            let below = logical_bits[logical_bits.len() - 1];
            logical_bits.push(below.div_ceil(r as usize).max(1));
        }
        let top = ratios.len() - 1;
        let mut levels = vec![Bitmap::new(); top];
        levels.push(Bitmap::zeros(logical_bits[top]));
        // The parent index of each lower level's last opened group.
        let mut open = vec![usize::MAX; top];
        let mut last = None;
        for block in blocks {
            debug_assert!(
                last.is_none_or(|p| p < block) && block < bits0,
                "level-0 indices must ascend within {bits0} bits"
            );
            last = Some(block);
            let mut idx = block;
            'climb: {
                for (l, level) in levels[..top].iter_mut().enumerate() {
                    let g = ratios[l + 1] as usize;
                    let parent = idx / g;
                    let fresh = open[l] != parent;
                    if fresh {
                        open[l] = parent;
                        level.extend_with(g, false);
                    }
                    level.set(level.len() - g + idx % g, true);
                    if !fresh {
                        break 'climb;
                    }
                    idx = parent;
                }
                levels[top].set(idx, true);
            }
        }
        Ok(BitmapHierarchy {
            ratios: ratios.to_vec(),
            levels,
            logical_bits,
        })
    }

    /// Number of bitmap levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Per-level compression ratios, level 0 first.
    pub fn ratios(&self) -> &[u32] {
        &self.ratios
    }

    /// The *stored* (compacted, except the top) bitmap of a level.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_levels()`.
    pub fn stored_level(&self, level: usize) -> &Bitmap {
        &self.levels[level]
    }

    /// Logical (uncompacted) bit count of a level.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_levels()`.
    pub fn logical_bits(&self, level: usize) -> usize {
        self.logical_bits[level]
    }

    /// Number of set level-0 bits, i.e. the number of NZA blocks.
    pub fn num_blocks(&self) -> usize {
        self.levels[0].count_ones()
    }

    /// Total stored bits across all levels — the bitmap side of the Fig. 19
    /// storage accounting.
    pub fn storage_bits(&self) -> usize {
        self.levels.iter().map(Bitmap::storage_bits).sum()
    }

    /// Reconstructs the full (uncompacted) bitmap of a level.
    ///
    /// Linear in the logical size of the level. No kernel calls it: they
    /// address lines through [`LineDirectory`](crate::LineDirectory) in
    /// O(1). The expansion remains as the tests' oracle for the directory
    /// and the line cursor, and for format conversions that genuinely
    /// need the dense bitmap.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_levels()`.
    pub fn expand_full(&self, level: usize) -> Bitmap {
        assert!(level < self.num_levels(), "level out of range");
        let top = self.num_levels() - 1;
        if level == top {
            return self.levels[top].clone();
        }
        // Expand parent first, then scatter this level's stored groups by
        // whole words (OR into place, no per-bit get/set).
        let parent_full = self.expand_full(level + 1);
        let g = self.ratios[level + 1] as usize;
        let mut full = Bitmap::zeros(self.logical_bits[level]);
        for (k, j) in parent_full.iter_ones().enumerate() {
            let storage_base = k * g;
            let logical_base = j * g;
            let n = g.min(self.logical_bits[level] - logical_base);
            let mut done = 0;
            while done < n {
                let take = (n - done).min(64);
                let word = self.levels[level].word_at(storage_base + done);
                full.or_bits_at(logical_base + done, word, take);
                done += take;
            }
        }
        full
    }

    /// Iterates over the logical level-0 indices of set bits, in increasing
    /// order: the level-0 records of [`visits`](Self::visits). The `n`-th
    /// yielded index owns NZA block `n`.
    /// [`LineDirectory::build`](crate::LineDirectory::build) reads a
    /// hierarchy built elsewhere through it, and the tests use it as the
    /// depth-first oracle for the line walk; kernels walk blocks line by
    /// line through [`LineCursor`](crate::LineCursor).
    pub fn blocks(&self) -> impl Iterator<Item = usize> + '_ {
        self.visits().filter(|v| v.level == 0).map(|v| v.logical)
    }

    /// Iterates over *every* set bit the depth-first scan encounters, at
    /// every level, as [`Visit`] records carrying both the logical and the
    /// storage position, in depth-first order.
    ///
    /// This is the exact work a software scanner (paper §4.4) performs, so
    /// the instrumented software-only SMASH kernels replay it to charge
    /// word loads, count-trailing-zeros and masking operations.
    pub fn visits(&self) -> Visits<'_> {
        Visits {
            hierarchy: self,
            scan: Scan::new(self, 0),
        }
    }

    /// Checks the structural invariants of the stored representation.
    ///
    /// # Errors
    ///
    /// Returns [`SmashError::Inconsistent`] describing the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), SmashError> {
        let top = self.num_levels() - 1;
        if self.levels.len() != self.ratios.len() || self.levels.len() != self.logical_bits.len() {
            return Err(SmashError::Inconsistent(
                "levels, ratios and logical_bits lengths differ".into(),
            ));
        }
        if self.levels[top].len() != self.logical_bits[top] {
            return Err(SmashError::Inconsistent(
                "top level must be stored in full".into(),
            ));
        }
        for i in 0..top {
            let g = self.ratios[i + 1] as usize;
            let parents = self.levels[i + 1].count_ones();
            if self.levels[i].len() != parents * g {
                return Err(SmashError::Inconsistent(format!(
                    "level {i} stores {} bits, expected {} groups of {g}",
                    self.levels[i].len(),
                    parents
                )));
            }
            for k in 0..parents {
                if !self.levels[i].any_in_range(k * g, (k + 1) * g) {
                    return Err(SmashError::Inconsistent(format!(
                        "level {i} group {k} is all-zero but its parent bit is set"
                    )));
                }
            }
            // Logical chain must match the ratio reduction.
            let expect = self.logical_bits[i].div_ceil(g).max(1);
            if self.logical_bits[i + 1] != expect {
                return Err(SmashError::Inconsistent(format!(
                    "level {} logical length {} != ceil({} / {g})",
                    i + 1,
                    self.logical_bits[i + 1],
                    self.logical_bits[i]
                )));
            }
        }
        Ok(())
    }
}

/// One in-flight group scan of the depth-first traversal (the saved
/// "bit's index within the bitmap" of paper §4.2.3).
#[derive(Debug, Clone)]
struct Frame {
    level: usize,
    /// Logical index of the group's first bit at this level.
    logical_base: usize,
    /// Storage index of the group's first bit in the compacted bitmap.
    storage_base: usize,
    /// Next in-group bit offset to examine.
    pos: usize,
    /// Group length in bits.
    group_len: usize,
}

/// One set bit encountered during a depth-first scan, produced by
/// [`BitmapHierarchy::visits`] and [`Scan::next_visit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    /// Bitmap level of the set bit (0 = Bitmap-0).
    pub level: usize,
    /// Logical (uncompacted) bit index within the level.
    pub logical: usize,
    /// Storage bit index within the level's stored (compacted) bitmap —
    /// what a software scanner actually reads.
    pub storage: usize,
}

/// The state of one depth-first scan over a hierarchy, held apart from
/// the hierarchy so that a long-lived owner (a BMU group's scan
/// registers) can keep it between steps.
///
/// This mirrors the BMU scan of paper §4.2.3: "every time a set bit is
/// encountered at any bitmap level, we save that bit's index within the
/// bitmap and then traverse the lower-level bitmap associated with that set
/// bit". [`Visits`] wraps it as an iterator. A default scan is exhausted.
#[derive(Debug, Clone, Default)]
pub struct Scan {
    /// Child groups entered so far per level: the next one entered at
    /// level `l` starts at stored bit `consumed[l] * ratios[l + 1]`.
    consumed: Vec<usize>,
    stack: Vec<Frame>,
}

impl Scan {
    /// A scan of `h` from stored top-level bit `start_bit` (0 scans the
    /// whole hierarchy).
    pub fn new(h: &BitmapHierarchy, start_bit: usize) -> Scan {
        let top = h.num_levels() - 1;
        Scan {
            consumed: vec![0; h.num_levels()],
            stack: vec![Frame {
                level: top,
                logical_base: 0,
                storage_base: 0,
                pos: start_bit,
                group_len: h.levels[top].len(),
            }],
        }
    }

    /// The next set bit of the depth-first scan at any level, or `None`
    /// once the scan is exhausted. `h` must be the hierarchy the scan was
    /// started on.
    pub fn next_visit(&mut self, h: &BitmapHierarchy) -> Option<Visit> {
        loop {
            let frame = self.stack.last_mut()?;
            let bitmap = &h.levels[frame.level];
            let from = frame.storage_base + frame.pos;
            let limit = frame.storage_base + frame.group_len;
            let Some(idx) = bitmap.next_one(from).filter(|&i| i < limit) else {
                self.stack.pop();
                continue;
            };
            let level = frame.level;
            let offset = idx - frame.storage_base;
            frame.pos = offset + 1;
            let logical = frame.logical_base + offset;
            if level > 0 {
                let child = level - 1;
                let g = h.ratios[level] as usize;
                let storage_base = self.consumed[child] * g;
                self.consumed[child] += 1;
                self.stack.push(Frame {
                    level: child,
                    logical_base: logical * g,
                    storage_base,
                    pos: 0,
                    group_len: g,
                });
            }
            return Some(Visit {
                level,
                logical,
                storage: idx,
            });
        }
    }
}

/// Iterator over every set bit the depth-first scan encounters (all
/// levels), produced by [`BitmapHierarchy::visits`]: a [`Scan`] from the
/// first top-level bit, bound to its hierarchy.
#[derive(Debug, Clone)]
pub struct Visits<'a> {
    hierarchy: &'a BitmapHierarchy,
    scan: Scan,
}

impl Iterator for Visits<'_> {
    type Item = Visit;

    fn next(&mut self) -> Option<Visit> {
        self.scan.next_visit(self.hierarchy)
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

    #[test]
    fn single_level_is_stored_full() {
        let bm0 = bm(&[1, 5, 9], 12);
        let h = BitmapHierarchy::from_level0(&bm0, &[2]).unwrap();
        assert_eq!(h.num_levels(), 1);
        assert_eq!(h.stored_level(0), &bm0);
        assert_eq!(h.blocks().collect::<Vec<_>>(), vec![1, 5, 9]);
        h.validate().unwrap();
    }

    #[test]
    fn two_levels_compact_lower() {
        // 16 level-0 bits, groups of 4. Set bits in groups 0 and 3 only.
        let bm0 = bm(&[0, 2, 13], 16);
        let h = BitmapHierarchy::from_level0(&bm0, &[2, 4]).unwrap();
        assert_eq!(h.num_levels(), 2);
        // Top: groups 0 and 3 occupied.
        assert_eq!(
            h.stored_level(1).iter_ones().collect::<Vec<_>>(),
            vec![0, 3]
        );
        // Compacted level 0: two groups of 4 bits: [1,0,1,0] and [0,1,0,0].
        assert_eq!(h.stored_level(0).len(), 8);
        assert_eq!(
            h.stored_level(0).iter_ones().collect::<Vec<_>>(),
            vec![0, 2, 5]
        );
        assert_eq!(h.blocks().collect::<Vec<_>>(), vec![0, 2, 13]);
        h.validate().unwrap();
    }

    #[test]
    fn three_levels_match_paper_shape() {
        // Mirrors Fig. 4: Bitmap-1 reduces 4 level-0 bits per bit,
        // Bitmap-2 reduces 2 level-1 bits per bit.
        let bm0 = bm(&[0, 1, 2, 3, 12], 16);
        let h = BitmapHierarchy::from_level0(&bm0, &[4, 4, 2]).unwrap();
        assert_eq!(h.logical_bits(0), 16);
        assert_eq!(h.logical_bits(1), 4);
        assert_eq!(h.logical_bits(2), 2);
        assert_eq!(h.blocks().collect::<Vec<_>>(), vec![0, 1, 2, 3, 12]);
        h.validate().unwrap();
    }

    #[test]
    fn expand_full_roundtrips() {
        let bm0 = bm(&[3, 17, 40, 41, 63], 64);
        for ratios in [&[2u32, 4][..], &[2, 4, 4], &[2, 8, 2], &[2, 2, 2, 2]] {
            let h = BitmapHierarchy::from_level0(&bm0, ratios).unwrap();
            assert_eq!(h.expand_full(0), bm0, "{ratios:?}");
            h.validate().unwrap();
        }
    }

    #[test]
    fn all_zero_matrix_costs_top_bits_only() {
        let bm0 = Bitmap::zeros(4096);
        let h = BitmapHierarchy::from_level0(&bm0, &[2, 8, 8]).unwrap();
        // Lower levels store nothing; top stores ceil(4096/8/8) = 64 bits.
        assert_eq!(h.stored_level(0).len(), 0);
        assert_eq!(h.stored_level(1).len(), 0);
        assert_eq!(h.stored_level(2).len(), 64);
        assert_eq!(h.blocks().count(), 0);
        h.validate().unwrap();
    }

    #[test]
    fn dense_bitmap_stores_everything() {
        let bm0 = bm(&(0..32).collect::<Vec<_>>(), 32);
        let h = BitmapHierarchy::from_level0(&bm0, &[2, 4, 4]).unwrap();
        assert_eq!(h.stored_level(0).len(), 32);
        assert_eq!(h.stored_level(0).count_ones(), 32);
        assert_eq!(h.blocks().count(), 32);
    }

    #[test]
    fn blocks_are_increasing_and_complete() {
        // Pseudo-random pattern.
        let bits: Vec<usize> = (0..500)
            .filter(|i| (i * 2654435761usize).is_multiple_of(7))
            .collect();
        let bm0 = bm(&bits, 500);
        let h = BitmapHierarchy::from_level0(&bm0, &[2, 4, 16]).unwrap();
        let got: Vec<usize> = h.blocks().collect();
        assert_eq!(got, bits);
        assert_eq!(h.num_blocks(), bits.len());
    }

    #[test]
    fn ragged_tail_groups_are_padded() {
        // 10 bits with ratio 4: last group is logically 2 bits.
        let bm0 = bm(&[9], 10);
        let h = BitmapHierarchy::from_level0(&bm0, &[2, 4]).unwrap();
        assert_eq!(h.logical_bits(1), 3);
        // The single stored group is padded to 4 bits.
        assert_eq!(h.stored_level(0).len(), 4);
        assert_eq!(h.blocks().collect::<Vec<_>>(), vec![9]);
        h.validate().unwrap();
    }

    #[test]
    fn storage_shrinks_for_sparse_inputs() {
        let sparse = {
            let mut b = Bitmap::zeros(1 << 16);
            b.set(0, true);
            b.set(60_000, true);
            b
        };
        let flat = BitmapHierarchy::from_level0(&sparse, &[2]).unwrap();
        let deep = BitmapHierarchy::from_level0(&sparse, &[2, 16, 16]).unwrap();
        assert!(deep.storage_bits() < flat.storage_bits() / 10);
    }

    #[test]
    fn rejects_invalid_ratios() {
        let bm0 = Bitmap::zeros(8);
        assert!(BitmapHierarchy::from_level0(&bm0, &[]).is_err());
        assert!(BitmapHierarchy::from_level0(&bm0, &[2, 1]).is_err());
    }

    #[test]
    fn visits_cover_all_levels_in_dfs_order() {
        let bm0 = bm(&[0, 2, 13], 16);
        let h = BitmapHierarchy::from_level0(&bm0, &[2, 4]).unwrap();
        let visits: Vec<(usize, usize)> = h.visits().map(|v| (v.level, v.logical)).collect();
        // Top bit 0 -> children 0, 2; top bit 3 -> child 13.
        assert_eq!(visits, vec![(1, 0), (0, 0), (0, 2), (1, 3), (0, 13)]);
    }

    #[test]
    fn visit_storage_positions_are_monotone_per_level() {
        let bits: Vec<usize> = (0..500).filter(|i| i % 7 == 3).collect();
        let h = BitmapHierarchy::from_level0(&bm(&bits, 500), &[2, 8, 4]).unwrap();
        let mut last = [0usize; 3];
        for v in h.visits() {
            assert!(
                v.storage >= last[v.level],
                "level {} went backwards",
                v.level
            );
            last[v.level] = v.storage;
        }
    }
}
