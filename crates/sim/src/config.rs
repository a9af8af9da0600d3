//! Simulated system configuration (paper Table 2).

/// Out-of-order core parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Nominal frequency in GHz (reporting only; the model counts cycles).
    pub freq_ghz: f64,
    /// Uops dispatched per cycle.
    pub issue_width: u32,
    /// Reorder-buffer entries (bounds in-flight uops).
    pub rob_entries: usize,
    /// Load-queue entries (bounds in-flight loads).
    pub load_queue: usize,
    /// Store-queue entries (bounds in-flight stores).
    pub store_queue: usize,
    /// Loads that can start per cycle (load ports).
    pub load_ports: u32,
    /// Pipeline refill penalty on a branch mispredict, in cycles.
    pub mispredict_penalty: u32,
    /// Latency of an integer ALU uop.
    pub alu_latency: u32,
    /// Latency of a floating-point add.
    pub fadd_latency: u32,
    /// Latency of a floating-point multiply.
    pub fmul_latency: u32,
    /// Latency of a fused multiply-add.
    pub fma_latency: u32,
}

/// One cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Access latency in cycles.
    pub latency: u32,
    /// Miss-status holding registers (bounds overlapping misses).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// DRAM timing (single channel, open-row policy, per Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of banks for the open-row model.
    pub banks: usize,
    /// Latency when the access hits the open row of its bank.
    pub row_hit_latency: u32,
    /// Latency when the bank must open a new row.
    pub row_miss_latency: u32,
}

/// Stride-prefetcher parameters (Table 2 attaches one to each cache level;
/// we train per logical stream and fill into the whole hierarchy).
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchConfig {
    /// Whether prefetching is enabled.
    pub enabled: bool,
    /// Consecutive equal strides required before issuing prefetches.
    pub min_confidence: u32,
    /// How many line-strides ahead to fetch.
    pub distance: u32,
    /// Maximum distinct lines prefetched per trigger.
    pub degree: u32,
}

/// Full simulated system: core + three cache levels + DRAM.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Core parameters.
    pub core: CoreConfig,
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub l3: CacheConfig,
    /// Memory timing.
    pub dram: DramConfig,
    /// Prefetcher settings.
    pub prefetch: PrefetchConfig,
}

impl SystemConfig {
    /// The configuration of the paper's Table 2: a 3.6 GHz Westmere-like
    /// 4-wide OOO core with 128-entry ROB, 32 KB / 256 KB / 1 MB caches
    /// (8/8/16-way, 2/8/20-cycle, 64 B lines, 10/20/64 MSHRs, stride
    /// prefetchers) and single-channel 16-bank open-row DDR4.
    pub fn paper_table2() -> Self {
        SystemConfig {
            core: CoreConfig {
                freq_ghz: 3.6,
                issue_width: 4,
                rob_entries: 128,
                load_queue: 32,
                store_queue: 32,
                load_ports: 2,
                mispredict_penalty: 14,
                alu_latency: 1,
                fadd_latency: 3,
                fmul_latency: 5,
                fma_latency: 5,
            },
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 2,
                mshrs: 10,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 8,
                mshrs: 20,
            },
            l3: CacheConfig {
                size_bytes: 1024 * 1024,
                ways: 16,
                line_bytes: 64,
                latency: 20,
                mshrs: 64,
            },
            dram: DramConfig {
                banks: 16,
                row_hit_latency: 160,
                row_miss_latency: 230,
            },
            prefetch: PrefetchConfig {
                enabled: true,
                min_confidence: 2,
                distance: 4,
                degree: 2,
            },
        }
    }

    /// Same system with prefetching disabled (the prefetcher ablation).
    pub fn without_prefetch(mut self) -> Self {
        self.prefetch.enabled = false;
        self
    }

    /// Table 2 with every cache level shrunk by `divisor` (latencies and
    /// associativities unchanged).
    ///
    /// The paper's matrices are 10–100x the 1 MB LLC, which is what makes
    /// CSR's index traffic expensive. When experiments scale the matrices
    /// down (DESIGN.md), shrinking the caches by the same linear factor
    /// preserves the working-set : cache ratio — the standard scaled-
    /// working-set methodology. Each level keeps at least one set per way.
    pub fn paper_table2_scaled(divisor: usize) -> Self {
        let mut cfg = SystemConfig::paper_table2();
        let d = divisor.max(1);
        for level in [&mut cfg.l1, &mut cfg.l2, &mut cfg.l3] {
            let min = level.ways * level.line_bytes;
            level.size_bytes = (level.size_bytes / d).max(min);
        }
        cfg
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_geometry() {
        let c = SystemConfig::paper_table2();
        assert_eq!(c.l1.sets(), 64); // 32KB / (8 * 64B)
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.l3.sets(), 1024);
        assert_eq!(c.core.issue_width, 4);
        assert_eq!(c.core.rob_entries, 128);
    }

    #[test]
    fn default_is_table2() {
        assert_eq!(SystemConfig::default(), SystemConfig::paper_table2());
    }

    #[test]
    fn without_prefetch_flips_flag() {
        let c = SystemConfig::paper_table2().without_prefetch();
        assert!(!c.prefetch.enabled);
    }
}
