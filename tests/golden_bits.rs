//! Output bits pinned across commits. Within one build the equivalence
//! suites compare a fast body against an oracle that shares its
//! primitives (`block_dot`, the striped fold), so a change to a shared
//! primitive moves both sides at once. This file pins the SMASH outputs
//! themselves: FNV-1a-64 over the `to_bits` of every output value,
//! against hashes recorded in `GOLDEN` below.
//!
//! It covers SMASH `spmv` and `spmm_dense` at 1, 3 and 8 right-hand
//! sides (serial, and at 2 and 8 threads), `decode` and `add`, under six
//! hierarchy configs, in f64 and f32, on seeded clustered, banded and
//! uniform operands. The SIMD contract makes the AVX2 and scalar bodies
//! bit-equal, so the hashes do not depend on the host, and the
//! `SMASH_SIMD=scalar` pass checks them too.
//!
//! A change that moves these bits on purpose replaces the affected
//! entries with the table the failing test prints, and says why.

use smash::encoding::{SmashConfig, SmashMatrix};
use smash::matrix::{generators, spmm_dense_rows, spmv_rows, Csr, Dense, Scalar};
use smash::parallel::{par_spmm_dense_rows, par_spmv_rows, ThreadPool};

/// Hierarchy configs: one level, small ratios, a non-power-of-two block
/// size, three levels, and word-sized upper groups.
const CONFIGS: [&[u32]; 6] = [&[2], &[2, 4], &[3, 5], &[2, 4, 16], &[2, 64], &[2, 64, 64]];

/// Thread counts of the parallel drivers; serial runs beside them.
const THREADS: [usize; 2] = [2, 8];

/// Right-hand-side widths of the dense SpMM.
const RHS: [usize; 3] = [1, 3, 8];

/// FNV-1a-64, fed the little-endian bytes of 64-bit words.
#[derive(Clone)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn values<T: Scalar>(&mut self, v: &[T]) {
        for e in v {
            self.word(e.to_f64().to_bits());
        }
    }

    fn csr<T: Scalar>(&mut self, a: &Csr<T>) {
        self.word(a.rows() as u64);
        self.word(a.cols() as u64);
        for &p in a.row_ptr() {
            self.word(u64::from(p));
        }
        for &c in a.col_ind() {
            self.word(u64::from(c));
        }
        self.values(a.values());
    }
}

/// The seeded operands, 203 × 389: lines span several Bitmap-0 words at
/// every block size, no block size divides the column count (so each
/// row's last block is clipped), and the sparse fills leave empty rows.
fn operands() -> Vec<Csr<f64>> {
    vec![
        generators::clustered(203, 389, 2_400, 7, 11),
        generators::banded(203, 389, 9, 2_000, 12),
        generators::uniform(203, 389, 1_500, 13),
    ]
}

/// A dense vector mixing signed zeros with non-zero values.
fn vector<T: Scalar>(n: usize) -> Vec<T> {
    (0..n)
        .map(|c| match c % 7 {
            0 => T::from_f64(-0.0),
            1 => T::ZERO,
            k => T::from_f64(k as f64 * 0.625 - 2.5),
        })
        .collect()
}

/// Every output of one precision, as `(key, hash per mode)`: the modes of
/// a kernel op are serial then each of [`THREADS`]; `decode` and `add`
/// have one mode. Each hash folds the three operands in order.
fn hashes<T: Scalar>(precision: &str, pools: &[ThreadPool]) -> Vec<(String, Vec<u64>)> {
    let ops: Vec<Csr<T>> = operands().iter().map(Csr::cast::<T>).collect();
    let mut out = Vec::new();
    for ratios in CONFIGS {
        let config = SmashConfig::row_major(ratios).expect("valid ratios");
        let sms: Vec<SmashMatrix<T>> = ops
            .iter()
            .map(|a| SmashMatrix::encode(a, config.clone()))
            .collect();
        let key = |op: &str| format!("{precision} {ratios:?} {op}");

        let mut modes = vec![Fnv::new(); 1 + THREADS.len()];
        for sm in &sms {
            let x = vector::<T>(sm.cols());
            let mut y = vec![T::ONE; sm.rows()];
            spmv_rows(sm, &x, &mut y);
            modes[0].values(&y);
            for (pool, h) in pools.iter().zip(&mut modes[1..]) {
                y.fill(T::ONE);
                par_spmv_rows(pool, sm, &x, &mut y);
                h.values(&y);
            }
        }
        out.push((key("spmv"), modes.iter().map(|h| h.0).collect()));

        for n in RHS {
            let mut modes = vec![Fnv::new(); 1 + THREADS.len()];
            for sm in &sms {
                let b = generators::dense_batch::<T>(sm.cols(), n, 5);
                let mut c = Dense::zeros(sm.rows(), n);
                spmm_dense_rows(sm, &b, &mut c);
                modes[0].values(c.as_slice());
                for (pool, h) in pools.iter().zip(&mut modes[1..]) {
                    let mut c = Dense::zeros(sm.rows(), n);
                    par_spmm_dense_rows(pool, sm, &b, &mut c);
                    h.values(c.as_slice());
                }
            }
            out.push((
                key(&format!("spmm_dense {n}")),
                modes.iter().map(|h| h.0).collect(),
            ));
        }

        let mut h = Fnv::new();
        for sm in &sms {
            h.csr(&sm.decode());
        }
        out.push((key("decode"), vec![h.0]));

        // Each operand plus the next one: clustered + banded, banded +
        // uniform, uniform + clustered.
        let mut h = Fnv::new();
        for (i, sm) in sms.iter().enumerate() {
            let sum = sm.add(&sms[(i + 1) % sms.len()]).expect("same shape");
            h.values(sum.nza().values());
            h.csr(&sum.decode());
        }
        out.push((key("add"), vec![h.0]));
    }
    out
}

#[test]
fn smash_outputs_match_golden_bits() {
    let pools: Vec<ThreadPool> = THREADS.iter().map(|&t| ThreadPool::new(t)).collect();
    let mut got = hashes::<f64>("f64", &pools);
    got.extend(hashes::<f32>("f32", &pools));

    let mut faults = Vec::new();
    for (key, modes) in &got {
        match GOLDEN.iter().find(|(k, _)| k == key) {
            None => faults.push(format!("{key}: no golden hash")),
            Some(&(_, want)) => {
                for (m, &h) in modes.iter().enumerate() {
                    if h != want {
                        let mode = match m {
                            0 => "serial".to_string(),
                            m => format!("{} threads", THREADS[m - 1]),
                        };
                        faults.push(format!("{key} ({mode}): {h:#018x}, golden {want:#018x}"));
                    }
                }
            }
        }
    }
    if !faults.is_empty() {
        let table: String = got
            .iter()
            .map(|(k, m)| format!("    (\"{k}\", {:#018x}),\n", m[0]))
            .collect();
        panic!(
            "{} output hashes moved:\n{}\nserial hashes now:\n{table}",
            faults.len(),
            faults.join("\n")
        );
    }
    assert_eq!(GOLDEN.len(), got.len(), "golden table has stale entries");
}

/// Serial hashes recorded before the line walk was last rewritten; every
/// parallel mode must reproduce them too.
const GOLDEN: &[(&str, u64)] = &[
    ("f64 [2] spmv", 0xbe59d8d199df6564),
    ("f64 [2] spmm_dense 1", 0xc8e6ab7ff561c75c),
    ("f64 [2] spmm_dense 3", 0xcd0e7c3364f9f302),
    ("f64 [2] spmm_dense 8", 0xa4a8e570ab24c7c2),
    ("f64 [2] decode", 0x3826b929013bb701),
    ("f64 [2] add", 0xc9f4d561eb4dc921),
    ("f64 [2, 4] spmv", 0xbe59d8d199df6564),
    ("f64 [2, 4] spmm_dense 1", 0xc8e6ab7ff561c75c),
    ("f64 [2, 4] spmm_dense 3", 0xcd0e7c3364f9f302),
    ("f64 [2, 4] spmm_dense 8", 0xa4a8e570ab24c7c2),
    ("f64 [2, 4] decode", 0x3826b929013bb701),
    ("f64 [2, 4] add", 0xc9f4d561eb4dc921),
    ("f64 [3, 5] spmv", 0xf0bb633474b017fc),
    ("f64 [3, 5] spmm_dense 1", 0x7cc7641cfd56c470),
    ("f64 [3, 5] spmm_dense 3", 0x8bfa656df664be0f),
    ("f64 [3, 5] spmm_dense 8", 0x9ade7af3119676aa),
    ("f64 [3, 5] decode", 0x3826b929013bb701),
    ("f64 [3, 5] add", 0x086f267733f8ec41),
    ("f64 [2, 4, 16] spmv", 0xbe59d8d199df6564),
    ("f64 [2, 4, 16] spmm_dense 1", 0xc8e6ab7ff561c75c),
    ("f64 [2, 4, 16] spmm_dense 3", 0xcd0e7c3364f9f302),
    ("f64 [2, 4, 16] spmm_dense 8", 0xa4a8e570ab24c7c2),
    ("f64 [2, 4, 16] decode", 0x3826b929013bb701),
    ("f64 [2, 4, 16] add", 0xc9f4d561eb4dc921),
    ("f64 [2, 64] spmv", 0xbe59d8d199df6564),
    ("f64 [2, 64] spmm_dense 1", 0xc8e6ab7ff561c75c),
    ("f64 [2, 64] spmm_dense 3", 0xcd0e7c3364f9f302),
    ("f64 [2, 64] spmm_dense 8", 0xa4a8e570ab24c7c2),
    ("f64 [2, 64] decode", 0x3826b929013bb701),
    ("f64 [2, 64] add", 0xc9f4d561eb4dc921),
    ("f64 [2, 64, 64] spmv", 0xbe59d8d199df6564),
    ("f64 [2, 64, 64] spmm_dense 1", 0xc8e6ab7ff561c75c),
    ("f64 [2, 64, 64] spmm_dense 3", 0xcd0e7c3364f9f302),
    ("f64 [2, 64, 64] spmm_dense 8", 0xa4a8e570ab24c7c2),
    ("f64 [2, 64, 64] decode", 0x3826b929013bb701),
    ("f64 [2, 64, 64] add", 0xc9f4d561eb4dc921),
    ("f32 [2] spmv", 0x38d512ed71820b2e),
    ("f32 [2] spmm_dense 1", 0xad177907ca8f7b7e),
    ("f32 [2] spmm_dense 3", 0x4e2b064a74a4bd5e),
    ("f32 [2] spmm_dense 8", 0xf75c27b4daf0691f),
    ("f32 [2] decode", 0x8d9a76ff7077e129),
    ("f32 [2] add", 0x0cc5a1f59bbf6349),
    ("f32 [2, 4] spmv", 0x38d512ed71820b2e),
    ("f32 [2, 4] spmm_dense 1", 0xad177907ca8f7b7e),
    ("f32 [2, 4] spmm_dense 3", 0x4e2b064a74a4bd5e),
    ("f32 [2, 4] spmm_dense 8", 0xf75c27b4daf0691f),
    ("f32 [2, 4] decode", 0x8d9a76ff7077e129),
    ("f32 [2, 4] add", 0x0cc5a1f59bbf6349),
    ("f32 [3, 5] spmv", 0x87132cb6b5f58c96),
    ("f32 [3, 5] spmm_dense 1", 0xe7ce1f889941b514),
    ("f32 [3, 5] spmm_dense 3", 0xccd13b1f7ff9cc7f),
    ("f32 [3, 5] spmm_dense 8", 0x73d37fdb6688dfbd),
    ("f32 [3, 5] decode", 0x8d9a76ff7077e129),
    ("f32 [3, 5] add", 0x88d852f44f0b4369),
    ("f32 [2, 4, 16] spmv", 0x38d512ed71820b2e),
    ("f32 [2, 4, 16] spmm_dense 1", 0xad177907ca8f7b7e),
    ("f32 [2, 4, 16] spmm_dense 3", 0x4e2b064a74a4bd5e),
    ("f32 [2, 4, 16] spmm_dense 8", 0xf75c27b4daf0691f),
    ("f32 [2, 4, 16] decode", 0x8d9a76ff7077e129),
    ("f32 [2, 4, 16] add", 0x0cc5a1f59bbf6349),
    ("f32 [2, 64] spmv", 0x38d512ed71820b2e),
    ("f32 [2, 64] spmm_dense 1", 0xad177907ca8f7b7e),
    ("f32 [2, 64] spmm_dense 3", 0x4e2b064a74a4bd5e),
    ("f32 [2, 64] spmm_dense 8", 0xf75c27b4daf0691f),
    ("f32 [2, 64] decode", 0x8d9a76ff7077e129),
    ("f32 [2, 64] add", 0x0cc5a1f59bbf6349),
    ("f32 [2, 64, 64] spmv", 0x38d512ed71820b2e),
    ("f32 [2, 64, 64] spmm_dense 1", 0xad177907ca8f7b7e),
    ("f32 [2, 64, 64] spmm_dense 3", 0x4e2b064a74a4bd5e),
    ("f32 [2, 64, 64] spmm_dense 8", 0xf75c27b4daf0691f),
    ("f32 [2, 64, 64] decode", 0x8d9a76ff7077e129),
    ("f32 [2, 64, 64] add", 0x0cc5a1f59bbf6349),
];
