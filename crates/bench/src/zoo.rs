//! The **matrix zoo**: the structurally diverse, deterministic matrix
//! set the planner is calibrated on (`planner_calibrate`) and validated
//! against (`planner_json` → `BENCH_planner.json`).
//!
//! One spec per structure class the dispatch decision is sensitive to:
//! scattered vs. clustered non-zeros (block fill), balanced vs.
//! power-law row lengths (row-length CV), large vs. tiny work, square
//! vs. tall-skinny shapes. Everything is seeded, so every host
//! regenerates bit-identical matrices — the calibration table's profile
//! lines are reproducible and `planner_calibrate --check` can diff them
//! exactly.
//!
//! The candidate grid ([`candidates`]) is the other half of the
//! contract: every `(op × format × threads)` combination listed here
//! gets one measured row per zoo matrix in the calibration table.
//! Adding a kernel to the planner's vocabulary means adding its
//! [`Candidate`] here and regenerating the table — see
//! `docs/DISPATCH.md`.

use smash_kernels::planner::{Format, MatrixProfile, Op};
use smash_matrix::{generators, locality, Csr};

/// A named, deterministically generated zoo member.
#[derive(Debug)]
pub struct ZooMatrix {
    /// Stable name, used as the key in the calibration table.
    pub name: &'static str,
    /// What the spec stresses, for docs and reports.
    pub why: &'static str,
    /// The generated matrix.
    pub matrix: Csr<f64>,
}

impl ZooMatrix {
    /// The full planner profile (including the `O(nnz)` block-fill
    /// feature) of this zoo member.
    pub fn profile(&self) -> MatrixProfile {
        MatrixProfile::of_csr(&self.matrix).with_block_fill(&self.matrix)
    }
}

/// Generates the planner zoo. Deterministic: same matrices on every
/// host and every call.
pub fn planner_zoo() -> Vec<ZooMatrix> {
    vec![
        ZooMatrix {
            name: "tiny-uniform",
            why: "dispatch overhead floor: any pool dispatch loses",
            matrix: generators::uniform(64, 64, 500, 11),
        },
        ZooMatrix {
            name: "small-uniform",
            why: "just below the legacy parallel threshold",
            matrix: generators::uniform(256, 256, 3_000, 12),
        },
        ZooMatrix {
            name: "mid-banded",
            why: "balanced rows, moderate work, cache-friendly bands",
            matrix: generators::banded(2048, 2048, 4, 60_000, 13),
        },
        ZooMatrix {
            name: "mid-power-law",
            why: "skewed row lengths: nnz-balanced partitioning matters",
            matrix: generators::power_law(2048, 2048, 100_000, 1.3, 14),
        },
        ZooMatrix {
            name: "large-uniform",
            why: "large scattered work, low block fill",
            matrix: generators::uniform(4096, 4096, 200_000, 15),
        },
        ZooMatrix {
            name: "large-clustered",
            why: "large work in short dense runs: blocked formats win",
            matrix: generators::clustered(4096, 4096, 300_000, 6, 16),
        },
        ZooMatrix {
            name: "blocky-full-fill",
            why: "100% locality at 8-wide blocks: SMASH's best case",
            matrix: locality::with_locality(2048, 2048, 120_000, 8, 1.0, 17),
        },
        ZooMatrix {
            name: "scattered-low-fill",
            why: "one non-zero per 8-wide block: padding worst case",
            matrix: locality::with_locality(2048, 2048, 120_000, 8, 0.125, 18),
        },
        ZooMatrix {
            name: "tall-skinny",
            why: "many rows, few columns: row-range dispatch is cheap",
            matrix: generators::uniform(8192, 128, 80_000, 19),
        },
    ]
}

/// One dispatch candidate of the calibration grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Operation the measurement times.
    pub op: Op,
    /// Storage format of the kernel.
    pub format: Format,
    /// Worker threads (1 = the serial kernel).
    pub threads: usize,
    /// RHS tile width the measurement leads with (1 for non-batched
    /// ops; the batched rows are measured at [`CALIBRATION_RHS`]).
    pub tile: usize,
}

/// RHS batch width the `spmm_dense` candidates are calibrated at (the
/// widest register tile of the single-definition tile schedule).
pub const CALIBRATION_RHS: usize = 8;

/// The full candidate grid measured per zoo matrix: every row of the
/// checked-in calibration table corresponds to one entry here.
pub fn candidates() -> Vec<Candidate> {
    let mut grid = Vec::new();
    for format in [Format::Csr, Format::Bcsr, Format::Smash] {
        for threads in [1usize, 2, 4] {
            grid.push(Candidate {
                op: Op::Spmv,
                format,
                threads,
                tile: 1,
            });
        }
        for threads in [1usize, 4] {
            grid.push(Candidate {
                op: Op::SpmmDense,
                format,
                threads,
                tile: CALIBRATION_RHS,
            });
        }
    }
    for threads in [1usize, 4] {
        grid.push(Candidate {
            op: Op::Spgemm,
            format: Format::Csr,
            threads,
            tile: 1,
        });
    }
    grid
}

/// Formats one `matrix` line of the calibration table for `profile`.
pub fn matrix_line(name: &str, p: &MatrixProfile) -> String {
    format!(
        "matrix {name} rows={} cols={} nnz={} row_mean={:.6} row_cv={:.6} row_max={} fill8={:.6}",
        p.rows,
        p.cols,
        p.nnz,
        p.row_mean,
        p.row_cv,
        p.row_max,
        p.block_fill.unwrap_or(0.0)
    )
}

/// Formats one measured `row` line of the calibration table.
pub fn row_line(name: &str, c: &Candidate, work: f64, ns: f64) -> String {
    format!(
        "row {name} op={} format={} threads={} tile={} work={work:.0} ns={ns:.1}",
        c.op, c.format, c.threads, c.tile
    )
}

/// Median-of-`samples` wall-clock nanoseconds for `f`, amortized over
/// `reps` inner repetitions. The shared timing loop of the snapshot
/// binaries.
pub fn time_ns<F: FnMut() -> usize>(samples: usize, reps: usize, mut f: F) -> f64 {
    let mut out = Vec::with_capacity(samples);
    let mut sink = 0usize;
    for _ in 0..samples {
        let t = std::time::Instant::now();
        for _ in 0..reps {
            sink = sink.wrapping_add(f());
        }
        out.push(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    std::hint::black_box(sink);
    out.sort_by(|a, b| a.total_cmp(b));
    out[out.len() / 2]
}

/// Times the two sides of `f` (`f(false)` and `f(true)`) as `samples`
/// interleaved pairs, each side amortized over `reps` inner repetitions,
/// and returns the median nanoseconds of each side and the median of the
/// per-pair ratios `true / false`. A pair's two samples run back to back,
/// so a drift in the host's speed moves both sides of a ratio together
/// instead of one side alone.
pub fn time_pair_ns<F: FnMut(bool) -> usize>(
    samples: usize,
    reps: usize,
    mut f: F,
) -> (f64, f64, f64) {
    let (mut first, mut second, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..samples {
        let a = time_ns(1, reps, || f(false));
        let b = time_ns(1, reps, || f(true));
        first.push(a);
        second.push(b);
        ratios.push(b / a);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|p, q| p.total_cmp(q));
        v[v.len() / 2]
    };
    (median(first), median(second), median(ratios))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_is_deterministic_and_diverse() {
        let a = planner_zoo();
        let b = planner_zoo();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.matrix, y.matrix, "{} must regenerate identically", x.name);
        }
        // Names are unique.
        let mut names: Vec<_> = a.iter().map(|z| z.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), a.len());
        // The fill feature actually spans its range across the zoo.
        let fills: Vec<f64> = a.iter().map(|z| z.profile().block_fill.unwrap()).collect();
        assert!(fills.iter().cloned().fold(0.0, f64::max) > 0.9);
        assert!(fills.iter().cloned().fold(1.0, f64::min) < 0.3);
    }

    #[test]
    fn candidate_grid_covers_every_op_and_both_tiers() {
        let grid = candidates();
        for op in [Op::Spmv, Op::SpmmDense, Op::Spgemm] {
            assert!(grid.iter().any(|c| c.op == op && c.threads == 1));
            assert!(grid.iter().any(|c| c.op == op && c.threads > 1));
        }
    }
}
