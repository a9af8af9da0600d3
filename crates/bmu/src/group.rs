//! One BMU group: parameter registers, SRAM bitmap-buffer windows, scan
//! state and output registers (paper Fig. 6).

use crate::{BUFFER_BYTES, MAX_HW_LEVELS};
use smash_core::{BitmapHierarchy, Scan};

/// Bits held by one SRAM bitmap buffer (256 bytes, §4.2.1).
pub const BUFFER_BITS: usize = BUFFER_BYTES * 8;

/// A buffered window of one level's *stored* bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First stored-bit index covered by the buffer.
    pub start_bit: usize,
    /// Whether the buffer holds valid data.
    pub valid: bool,
}

impl Window {
    const INVALID: Window = Window {
        start_bit: 0,
        valid: false,
    };

    /// Whether stored bit `bit` is inside this window.
    pub fn covers(&self, bit: usize) -> bool {
        self.valid && bit >= self.start_bit && bit < self.start_bit + BUFFER_BITS
    }
}

/// Result of advancing the scan by one non-zero block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanStep {
    /// Logical Bitmap-0 index of the found block (`None` when exhausted).
    pub block: Option<usize>,
    /// SRAM buffer refills triggered, as `(level, new_window_start_bit)`.
    pub refills: Vec<(usize, usize)>,
}

/// Per-group architectural and micro-architectural state.
#[derive(Debug, Clone)]
pub struct BmuGroup {
    /// Matrix rows (set by `matinfo`).
    pub rows: u32,
    /// Matrix columns (set by `matinfo`).
    pub cols: u32,
    /// Per-level compression ratios (set by `bmapinfo`), level 0 first.
    pub ratios: [u32; MAX_HW_LEVELS],
    /// Which levels have been configured.
    pub ratio_set: [bool; MAX_HW_LEVELS],
    /// Buffered window per level.
    pub windows: [Window; MAX_HW_LEVELS],
    /// Output register: row index of the current non-zero block.
    pub row_index: u64,
    /// Output register: column index of the current non-zero block.
    pub col_index: u64,
    /// Whether the scan has consumed every non-zero block.
    pub done: bool,
    /// NZA block ordinal of the current block since the last scan reset.
    pub blocks_found: u64,

    scan: Scan,
    armed: bool,
}

impl Default for BmuGroup {
    fn default() -> Self {
        BmuGroup {
            rows: 0,
            cols: 0,
            ratios: [0; MAX_HW_LEVELS],
            ratio_set: [false; MAX_HW_LEVELS],
            windows: [Window::INVALID; MAX_HW_LEVELS],
            row_index: 0,
            col_index: 0,
            done: false,
            blocks_found: 0,
            scan: Scan::default(),
            armed: false,
        }
    }
}

impl BmuGroup {
    /// Resets the scan to start from stored top-level bit `start_bit`
    /// (non-zero starts require a single-level hierarchy, as in the paper's
    /// SpMM example where `rdbmap [bitmapA + rowOffset]` repositions the
    /// scan).
    ///
    /// # Panics
    ///
    /// Panics if `start_bit != 0` on a multi-level hierarchy.
    pub fn reset_scan(&mut self, hierarchy: &BitmapHierarchy, start_bit: usize) {
        let levels = hierarchy.num_levels();
        assert!(
            start_bit == 0 || levels == 1,
            "mid-bitmap scan starts require a 1-level hierarchy"
        );
        self.scan = Scan::new(hierarchy, start_bit);
        self.done = false;
        self.blocks_found = 0;
        self.armed = true;
    }

    /// Ensures stored bit `bit` of `level` is buffered; records a refill
    /// into `refills` if the window must move.
    fn touch(&mut self, level: usize, bit: usize, refills: &mut Vec<(usize, usize)>) {
        if !self.windows[level].covers(bit) {
            let start = (bit / BUFFER_BITS) * BUFFER_BITS;
            self.windows[level] = Window {
                start_bit: start,
                valid: true,
            };
            refills.push((level, start));
        }
    }

    /// Advances the depth-first scan to the next set Bitmap-0 bit — the
    /// hardware logic behind `pbmap` (§4.2.2 step 1). Returns the logical
    /// block index plus any buffer refills performed on the way.
    pub fn scan_step(&mut self, hierarchy: &BitmapHierarchy) -> ScanStep {
        assert!(self.armed, "pbmap before rdbmap armed the scan");
        let mut refills = Vec::new();
        while let Some(visit) = self.scan.next_visit(hierarchy) {
            self.touch(visit.level, visit.storage, &mut refills);
            if visit.level == 0 {
                self.blocks_found += 1;
                return ScanStep {
                    block: Some(visit.logical),
                    refills,
                };
            }
        }
        self.done = true;
        ScanStep {
            block: None,
            refills,
        }
    }

    /// Computes the paper's index equation for a found block and latches the
    /// output registers:
    /// `Index = Σᵢ (Πⱼ₌₀..ᵢ comp(j)) · index_bit(i)` reduces, for a block at
    /// logical Bitmap-0 index `b`, to `Index = comp(0) · b`; the row/column
    /// split uses the padded row stride the software encoder lays out.
    pub fn latch_indices(&mut self, block_logical: usize) {
        let b0 = self.ratios[0].max(1) as u64;
        let padded_cols = (self.cols as u64).div_ceil(b0) * b0;
        let index = block_logical as u64 * b0;
        self.row_index = index / padded_cols.max(1);
        self.col_index = index % padded_cols.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_core::Bitmap;

    fn hierarchy(bits: &[usize], len: usize, ratios: &[u32]) -> BitmapHierarchy {
        let mut b = Bitmap::zeros(len);
        for &i in bits {
            b.set(i, true);
        }
        BitmapHierarchy::from_level0(&b, ratios).unwrap()
    }

    #[test]
    fn scan_matches_hierarchy_iterator() {
        let h = hierarchy(&[0, 5, 130, 131, 2040, 4095], 4096, &[2, 4, 16]);
        let mut g = BmuGroup {
            ratios: [2, 4, 16],
            ..Default::default()
        };
        g.reset_scan(&h, 0);
        let mut got = Vec::new();
        loop {
            let step = g.scan_step(&h);
            match step.block {
                Some(b) => got.push(b),
                None => break,
            }
        }
        assert_eq!(got, h.blocks().collect::<Vec<_>>());
        assert!(g.done);
    }

    #[test]
    fn refills_occur_on_window_crossings() {
        // A top-level bitmap wider than one 2048-bit buffer forces refills.
        let bits: Vec<usize> = (0..8192).step_by(512).collect();
        let h = hierarchy(&bits, 8192, &[2]);
        let mut g = BmuGroup::default();
        g.ratios[0] = 2;
        g.reset_scan(&h, 0);
        let mut refills = 0;
        while g.scan_step(&h).block.is_some() {
            // count below
        }
        // Re-run counting refills.
        g.reset_scan(&h, 0);
        loop {
            let step = g.scan_step(&h);
            refills += step.refills.len();
            if step.block.is_none() {
                break;
            }
        }
        assert_eq!(refills, 8192 / BUFFER_BITS); // 4 windows
    }

    #[test]
    fn buffered_scan_has_no_repeat_refills() {
        let h = hierarchy(&[1, 2, 3, 4, 5], 1024, &[2]);
        let mut g = BmuGroup::default();
        g.ratios[0] = 2;
        g.reset_scan(&h, 0);
        let first = g.scan_step(&h);
        assert_eq!(first.refills.len(), 1);
        let second = g.scan_step(&h);
        assert!(second.refills.is_empty(), "window already buffered");
    }

    #[test]
    fn latch_indices_uses_padded_stride() {
        let mut g = BmuGroup {
            rows: 4,
            cols: 5, // pads to 6 with b0 = 2
            ..Default::default()
        };
        g.ratios[0] = 2;
        g.latch_indices(0);
        assert_eq!((g.row_index, g.col_index), (0, 0));
        g.latch_indices(3); // bit 3 = element 6 = row 1, col 0
        assert_eq!((g.row_index, g.col_index), (1, 0));
        g.latch_indices(4); // element 8 = row 1, col 2
        assert_eq!((g.row_index, g.col_index), (1, 2));
    }

    #[test]
    fn mid_bitmap_start_scans_one_row() {
        // 1-level bitmap, 4 bits per row; start at row 1's bits.
        let h = hierarchy(&[0, 5, 6, 9], 16, &[2]);
        let mut g = BmuGroup::default();
        g.ratios[0] = 2;
        g.reset_scan(&h, 4);
        assert_eq!(g.scan_step(&h).block, Some(5));
        assert_eq!(g.scan_step(&h).block, Some(6));
        assert_eq!(g.scan_step(&h).block, Some(9));
        assert_eq!(g.scan_step(&h).block, None);
    }

    #[test]
    #[should_panic(expected = "1-level")]
    fn mid_start_rejected_for_multilevel() {
        let h = hierarchy(&[0], 64, &[2, 4]);
        BmuGroup::default().reset_scan(&h, 8);
    }

    #[test]
    #[should_panic(expected = "before rdbmap")]
    fn scan_without_arm_panics() {
        let h = hierarchy(&[0], 16, &[2]);
        BmuGroup::default().scan_step(&h);
    }
}
