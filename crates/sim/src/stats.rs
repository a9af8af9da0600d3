//! Simulation statistics.

use crate::uop::UopClass;

/// Hit/miss counters of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Lines installed by the prefetcher.
    pub prefetch_fills: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Demand accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio over demand accesses (0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// Complete statistics of one simulated kernel run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Executed instructions by class.
    pub class_counts: [u64; UopClass::COUNT],
    /// L1 data cache counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// L3 counters.
    pub l3: CacheStats,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// DRAM row-buffer misses (row activations).
    pub dram_row_misses: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Prefetch requests issued.
    pub prefetches_issued: u64,
}

impl SimStats {
    /// Total executed instructions.
    pub fn instructions(&self) -> u64 {
        self.class_counts.iter().sum()
    }

    /// Executed instructions of one class.
    pub fn count(&self, class: UopClass) -> u64 {
        self.class_counts[class as usize]
    }

    /// Instructions spent discovering positions of non-zeros (loads, ALU,
    /// branches, coprocessor ops) as opposed to computing on values — the
    /// paper's "indexing" share (§2.2).
    pub fn indexing_instructions(&self) -> u64 {
        UopClass::ALL
            .iter()
            .filter(|c| c.is_indexing())
            .map(|&c| self.count(c))
            .sum()
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions() as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_ratios() {
        let c = CacheStats {
            hits: 75,
            misses: 25,
            prefetch_fills: 0,
            writebacks: 3,
        };
        assert_eq!(c.accesses(), 100);
        assert!((c.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn instruction_accounting() {
        let mut s = SimStats::default();
        s.class_counts[UopClass::Load as usize] = 10;
        s.class_counts[UopClass::Fmul as usize] = 5;
        s.class_counts[UopClass::Branch as usize] = 2;
        assert_eq!(s.instructions(), 17);
        assert_eq!(s.indexing_instructions(), 12);
        s.cycles = 17;
        assert!((s.ipc() - 1.0).abs() < 1e-12);
    }
}
