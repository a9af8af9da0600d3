//! Shared modelling vocabulary of the instrumented kernels: stream ids,
//! branch sites, the SIMD width of the simulated core, and the mechanism
//! enumeration the experiments sweep over.

use smash_matrix::Scalar;
use smash_sim::StreamId;

/// Width in bytes of one SIMD vector register of the simulated core (SSE
/// on the Westmere-like machine of Table 2: 128-bit).
pub const VEC_BYTES: usize = 16;

/// SIMD lanes of double precision per vector op (128-bit = 2 doubles).
/// Block-based mechanisms (BCSR and both SMASH variants) vectorize their
/// contiguous blocks; CSR's irregular `x[col_ind[j]]` gather cannot.
pub const VEC_WIDTH: usize = VEC_BYTES / 8;

/// SIMD lanes of scalar type `T` per vector op: 2 for `f64`, 4 for `f32` —
/// halving the element size doubles the per-op width, which is why the
/// instrumented f32 kernels issue fewer vector uops than their f64 twins.
///
/// This is a *model* constant of the simulated Westmere core, not the
/// stripe count of the real vectorized kernels: the dispatch layer in
/// `smash_matrix::simd` fixes its accumulation stripes per element type
/// (`SimdElem::LANES`: 8 for `f32`, 4 for `f64`) independently of both
/// this constant and the executing ISA — see `docs/SIMD.md`.
pub const fn lanes_of<T: Scalar>() -> usize {
    let lanes = VEC_BYTES / std::mem::size_of::<T>();
    if lanes == 0 {
        1
    } else {
        lanes
    }
}

/// Number of vector operations needed to cover `n` contiguous elements of
/// scalar type `T`.
pub fn vector_ops_of<T: Scalar>(n: usize) -> usize {
    n.div_ceil(lanes_of::<T>())
}

/// Prefetcher stream ids, one per logical array traversal.
pub mod streams {
    use super::StreamId;

    /// CSR/CSC row or column pointer array.
    pub const PTR: StreamId = StreamId(0);
    /// CSR column indices (or CSC row indices).
    pub const IND: StreamId = StreamId(1);
    /// Non-zero values of the first operand.
    pub const VAL: StreamId = StreamId(2);
    /// Dense input vector `x` (irregularly indexed in CSR SpMV).
    pub const X: StreamId = StreamId(3);
    /// Output vector/matrix.
    pub const OUT: StreamId = StreamId(4);
    /// SMASH NZA of the first operand.
    pub const NZA_A: StreamId = StreamId(5);
    /// Bitmap words of hierarchy level `l` (software scanning).
    pub const fn bitmap(level: usize) -> StreamId {
        StreamId(6 + level as u32)
    }
    /// Second operand pointer array.
    pub const PTR_B: StreamId = StreamId(10);
    /// Second operand indices.
    pub const IND_B: StreamId = StreamId(11);
    /// Second operand values.
    pub const VAL_B: StreamId = StreamId(12);
    /// SMASH NZA of the second operand.
    pub const NZA_B: StreamId = StreamId(13);
    /// Auxiliary per-line block-start array.
    pub const LINE_STARTS: StreamId = StreamId(14);
    /// Bitmap words of the second operand (software scanning).
    pub const fn bitmap_b(level: usize) -> StreamId {
        StreamId(15 + level as u32)
    }
}

/// Branch-site ids (stand-ins for branch PCs in the predictor).
pub mod sites {
    /// SpMV inner (per-non-zero) loop back-edge.
    pub const SPMV_INNER: u32 = 1;
    /// SpMV outer (per-row) loop back-edge.
    pub const SPMV_OUTER: u32 = 2;
    /// Software bitmap scan "found a set bit" loop.
    pub const SCAN_FOUND: u32 = 3;
    /// SpMM index-matching three-way compare (data-dependent!).
    pub const MATCH_CMP: u32 = 4;
    /// SpMM inner column loop.
    pub const SPMM_COL: u32 = 5;
    /// SpMM outer row loop.
    pub const SPMM_ROW: u32 = 6;
    /// SpAdd merge compare (data-dependent).
    pub const ADD_CMP: u32 = 7;
    /// Block-loop back-edge in blocked kernels.
    pub const BLOCK_LOOP: u32 = 8;
    /// Zero-test when decoding NZA blocks.
    pub const ZERO_TEST: u32 = 9;
    /// Row/line-change test in SMASH kernels.
    pub const LINE_CHANGE: u32 = 10;
    /// Merge-loop bound check (`p < end_a && q < end_b`).
    pub const MERGE_BOUND: u32 = 11;
}

/// The mechanisms evaluated throughout the paper's §7 (Figs. 9–18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// CSR kernels as generated by TACO (the normalization baseline).
    TacoCsr,
    /// 2x2 block-CSR kernels (TACO-BCSR).
    TacoBcsr,
    /// SMASH's hierarchical bitmap scanned entirely in software (§4.4).
    SwSmash,
    /// Full SMASH: hierarchical bitmap + BMU + ISA.
    Smash,
    /// CSR with free position discovery (the Fig. 3 idealization).
    IdealCsr,
}

impl Mechanism {
    /// All mechanisms in the paper's plotting order.
    pub const ALL: [Mechanism; 5] = [
        Mechanism::TacoCsr,
        Mechanism::TacoBcsr,
        Mechanism::SwSmash,
        Mechanism::Smash,
        Mechanism::IdealCsr,
    ];

    /// The four mechanisms of Figs. 10–13.
    pub const FIG10: [Mechanism; 4] = [
        Mechanism::TacoCsr,
        Mechanism::TacoBcsr,
        Mechanism::SwSmash,
        Mechanism::Smash,
    ];

    /// Display label used by the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Mechanism::TacoCsr => "TACO-CSR",
            Mechanism::TacoBcsr => "TACO-BCSR",
            Mechanism::SwSmash => "Software-only SMASH",
            Mechanism::Smash => "SMASH",
            Mechanism::IdealCsr => "Ideal CSR",
        }
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Deterministic dense vector for kernel inputs: bounded away from zero so
/// products never cancel, varied enough to catch index mix-ups. Generic
/// over the scalar type; every entry is derived from the same `f64`
/// pattern, so `test_vector::<f32>(n)[i] == test_vector::<f64>(n)[i] as
/// f32` and mixed-precision tests compare like against like.
pub fn test_vector<T: Scalar>(n: usize) -> Vec<T> {
    (0..n)
        .map(|i| T::from_f64(0.5 + ((i * 37 + 11) % 97) as f64 / 97.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_op_counts() {
        assert_eq!(vector_ops_of::<f64>(1), 1);
        assert_eq!(vector_ops_of::<f64>(2), 1);
        assert_eq!(vector_ops_of::<f64>(3), 2);
        assert_eq!(vector_ops_of::<f64>(8), 4);
    }

    #[test]
    fn lanes_scale_with_element_size() {
        assert_eq!(lanes_of::<f64>(), VEC_WIDTH);
        assert_eq!(lanes_of::<f32>(), 2 * VEC_WIDTH);
        // f32 needs at most as many ops as f64.
        for n in [1usize, 2, 3, 8, 17] {
            assert!(vector_ops_of::<f32>(n) <= vector_ops_of::<f64>(n));
        }
        assert_eq!(vector_ops_of::<f32>(8), 2);
    }

    #[test]
    fn labels_are_paper_names() {
        assert_eq!(Mechanism::TacoCsr.label(), "TACO-CSR");
        assert_eq!(Mechanism::Smash.to_string(), "SMASH");
        assert_eq!(Mechanism::ALL.len(), 5);
    }

    #[test]
    fn test_vector_is_deterministic_and_nonzero() {
        let v: Vec<f64> = test_vector(100);
        assert_eq!(v, test_vector::<f64>(100));
        assert!(v.iter().all(|&x| (0.5..1.5).contains(&x)));
        // The f32 vector is the truncation of the f64 one, entry by entry.
        let w: Vec<f32> = test_vector(100);
        for (a, b) in v.iter().zip(&w) {
            assert_eq!(*b, *a as f32);
        }
    }

    #[test]
    fn stream_ids_do_not_collide() {
        let ids = [
            streams::PTR.0,
            streams::IND.0,
            streams::VAL.0,
            streams::X.0,
            streams::OUT.0,
            streams::NZA_A.0,
            streams::bitmap(0).0,
            streams::bitmap(1).0,
            streams::bitmap(2).0,
            streams::PTR_B.0,
            streams::IND_B.0,
            streams::VAL_B.0,
            streams::NZA_B.0,
            streams::LINE_STARTS.0,
            streams::bitmap_b(0).0,
            streams::bitmap_b(2).0,
        ];
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }
}
