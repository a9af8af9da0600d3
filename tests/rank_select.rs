//! Property tests for the line-directory indexing layer:
//! `LineDirectory`/`LineCursor` against the full-expansion oracle in both
//! layouts, on narrow lines and on lines several words wide, under
//! hierarchies with word-sized (ratio-64) levels, the directory's
//! auxiliary-memory bounds, and the
//! directory-backed kernels against the seed kernels — **bit-identical**
//! (`==`), at thread counts {1, 2, 8}, across adversarial shapes.

use proptest::prelude::*;
use smash::encoding::{Bitmap, Layout, SmashConfig, SmashMatrix};
use smash::kernels::native;
use smash::matrix::{generators, spmv_rows, Coo, Csr};
use smash::parallel::{par_spmv_rows, ThreadPool};

/// The thread counts the kernel equivalence assertions run under.
const THREADS: [usize; 3] = [1, 2, 8];

fn vector(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.5 + ((i * 37) % 11) as f64 * 0.375)
        .collect()
}

/// Arbitrary sparse matrix with adversarial shapes: skinny, empty rows,
/// dense clusters.
fn arb_matrix() -> impl Strategy<Value = Csr<f64>> {
    (1usize..48, 1usize..48)
        .prop_flat_map(|(r, c)| {
            let entries =
                proptest::collection::vec((0..r, 0..c, 1u32..1000u32), 0..(r * c).min(220));
            (Just(r), Just(c), entries)
        })
        .prop_map(|(r, c, entries)| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in entries {
                coo.push(i, j, v as f64 / 16.0);
            }
            coo.compress();
            Csr::from_coo(&coo)
        })
}

/// Arbitrary hierarchy configuration: 1-4 levels, a small block size,
/// and upper ratios that are small or word-sized (64).
fn arb_ratios() -> impl Strategy<Value = Vec<u32>> {
    (
        2u32..9,
        proptest::collection::vec(
            (2u32..9, any::<bool>()).prop_map(|(r, word)| if word { 64 } else { r }),
            0..4,
        ),
    )
        .prop_map(|(b0, upper)| std::iter::once(b0).chain(upper).collect())
}

/// Arbitrary sparse matrix whose lines span two to six Bitmap-0 words at
/// block size 2 or more, filled so sparsely that most lines and most of
/// each line's words are empty.
fn arb_wide_matrix() -> impl Strategy<Value = Csr<f64>> {
    (1usize..12, 130usize..800)
        .prop_flat_map(|(r, c)| {
            let entries = proptest::collection::vec((0..r, 0..c, 1u32..1000u32), 0..40);
            (Just(r), Just(c), entries)
        })
        .prop_map(|(r, c, entries)| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in entries {
                coo.push(i, j, v as f64 / 16.0);
            }
            coo.compress();
            Csr::from_coo(&coo)
        })
}

/// Either block layout.
fn arb_layout() -> impl Strategy<Value = Layout> {
    any::<bool>().prop_map(|col| {
        if col {
            Layout::ColMajor
        } else {
            Layout::RowMajor
        }
    })
}

/// Encodes `a` with its rows as the lines in either layout: column-major
/// encodes the transpose, so `a`'s shape properties hold per line.
fn encode_lines(a: &Csr<f64>, ratios: &[u32], layout: Layout) -> SmashMatrix<f64> {
    let config = SmashConfig::new(ratios, layout).unwrap();
    match layout {
        Layout::RowMajor => SmashMatrix::encode(a, config),
        Layout::ColMajor => SmashMatrix::encode(&a.transpose(), config),
    }
}

/// A configuration plus a matrix whose lines hold a number of level-0
/// blocks that is not a multiple of the level-0 group size (`ratios[1]`),
/// so stored groups straddle line borders. Sparse fills leave many lines
/// empty.
fn arb_straddling() -> impl Strategy<Value = (Vec<u32>, Csr<f64>)> {
    arb_ratios().prop_flat_map(|ratios| {
        let b0 = ratios[0] as usize;
        let g = ratios.get(1).map_or(2, |&g| g as usize);
        (1usize..24, 0usize..4, 1usize..g, 0..b0).prop_flat_map(move |(r, k, rem, slack)| {
            // ceil(c / b0) == k * g + rem: never a whole number of groups.
            let c = (k * g + rem) * b0 - slack;
            let entries =
                proptest::collection::vec((0..r, 0..c, 1u32..1000u32), 0..(r * c).min(160));
            (Just(ratios.clone()), entries).prop_map(move |(ratios, entries)| {
                let mut coo = Coo::new(r, c);
                for (i, j, v) in entries {
                    coo.push(i, j, v as f64 / 16.0);
                }
                coo.compress();
                (ratios, Csr::from_coo(&coo))
            })
        })
    })
}

/// Recomputes the per-line block starts by scanning an expanded
/// Bitmap-0: the oracle for the directory-backed `line_block_starts`.
fn line_block_starts_in(sm: &SmashMatrix<f64>, full: &Bitmap) -> Vec<u32> {
    let bpl = sm.blocks_per_line();
    let mut starts = vec![0u32; sm.line_count() + 1];
    for logical in full.iter_ones() {
        starts[logical / bpl + 1] += 1;
    }
    for line in 0..sm.line_count() {
        starts[line + 1] += starts[line];
    }
    starts
}

/// Every line's cursor output against the full-expansion oracle.
fn assert_cursor_matches_expansion(
    a: &Csr<f64>,
    ratios: &[u32],
    layout: Layout,
) -> Result<(), TestCaseError> {
    let sm = encode_lines(a, ratios, layout);
    let full = sm.full_bitmap0();
    let bpl = sm.blocks_per_line();
    let want: Vec<(usize, usize)> = full.iter_ones().enumerate().collect();
    let mut got = Vec::new();
    for line in 0..sm.line_count() {
        let before = got.len();
        for pair in sm.line_cursor(line) {
            prop_assert_eq!(pair.1 / bpl, line);
            got.push(pair);
        }
        let starts = sm.line_block_starts();
        prop_assert_eq!(
            got.len() - before,
            (starts[line + 1] - starts[line]) as usize
        );
    }
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The line cursor must yield exactly the (ordinal, logical) pairs
    /// the full-expansion oracle produces, line by line — on arbitrary
    /// shapes and on lines whose groups straddle line borders, in either
    /// layout.
    #[test]
    fn line_cursor_matches_full_expansion(
        a in arb_matrix(),
        ratios in arb_ratios(),
        straddling in arb_straddling(),
        layout in arb_layout(),
    ) {
        assert_cursor_matches_expansion(&a, &ratios, layout)?;
        assert_cursor_matches_expansion(&straddling.1, &straddling.0, layout)?;
    }

    /// The same on lines several words wide with mostly empty lines and
    /// words.
    #[test]
    fn line_cursor_matches_full_expansion_on_wide_lines(
        a in arb_wide_matrix(),
        ratios in arb_ratios(),
        layout in arb_layout(),
    ) {
        assert_cursor_matches_expansion(&a, &ratios, layout)?;
    }

    /// Directory-backed per-line starts must equal the expansion oracle
    /// in either layout.
    #[test]
    fn directory_starts_match_oracle(
        a in arb_matrix(),
        ratios in arb_ratios(),
        layout in arb_layout(),
    ) {
        let sm = encode_lines(&a, &ratios, layout);
        let full = sm.full_bitmap0();
        prop_assert_eq!(sm.line_block_starts(), &line_block_starts_in(&sm, &full)[..]);
    }

    /// The directory-backed parallel SpMV must be bit-identical to the
    /// serial seed kernel at every thread count, and match serial CSR to
    /// floating-point tolerance.
    #[test]
    fn par_spmv_smash_is_bit_identical(a in arb_matrix(), ratios in arb_ratios()) {
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&ratios).unwrap());
        let x = vector(a.cols());
        let mut want = vec![0.0f64; a.rows()];
        spmv_rows(&sm, &x, &mut want);
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let mut got = vec![f64::NAN; a.rows()];
            par_spmv_rows(&pool, &sm, &x, &mut got);
            prop_assert_eq!(&got, &want, "threads = {}", threads);
        }
        let mut csr = vec![0.0f64; a.rows()];
        spmv_rows(&a, &x, &mut csr);
        for (g, w) in want.iter().zip(&csr) {
            prop_assert!((g - w).abs() < 1e-9 * (1.0 + w.abs()), "{} vs {}", g, w);
        }
    }

    /// The directory-backed SpMM must remain bit-identical to the
    /// full-expansion construction of its per-line block lists, and match
    /// serial CSR SpMM to floating-point tolerance.
    #[test]
    fn spmm_smash_matches_expansion_and_csr(a in arb_matrix(), b_seed in 0u64..1000) {
        let b = generators::uniform(a.cols(), 24, (a.cols() * 3).min(150), b_seed);
        let sa = SmashMatrix::encode(&a, SmashConfig::row_major(&[2]).unwrap());
        let sb = SmashMatrix::encode(&b, SmashConfig::col_major(&[2]).unwrap());
        // The per-line lists the kernel derives from the directory must
        // equal the lists the seed derived from the expanded Bitmap-0.
        for sm in [&sa, &sb] {
            let bpl = sm.blocks_per_line();
            let starts = sm.line_block_starts();
            for line in 0..sm.line_count() {
                let got: Vec<u32> =
                    sm.line_cursor(line).map(|(_, l)| (l % bpl) as u32).collect();
                let want: Vec<u32> = sm
                    .full_bitmap0()
                    .iter_ones()
                    .filter(|&l| l / bpl == line)
                    .map(|l| (l % bpl) as u32)
                    .collect();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(got.len(), (starts[line + 1] - starts[line]) as usize);
            }
        }
        let got = native::spmm_smash(&sa, &sb).to_dense();
        let want = native::spmm_csr(&a, &b.to_csc()).to_dense();
        for i in 0..want.rows() {
            for j in 0..want.cols() {
                let (x, y) = (got.get(i, j), want.get(i, j));
                prop_assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()), "({},{}): {} vs {}", i, j, x, y);
            }
        }
    }
}

/// Directory plus flattened per-line offsets of a row-major and a
/// column-major flat SMASH SpMM operand pair (`n`², 10k non-zeros each):
/// `(logical Bitmap-0 bits, auxiliary bytes)`.
fn spmm_aux(n: usize) -> (usize, usize) {
    let sa = SmashMatrix::encode(
        &generators::uniform(n, n, 10_000, 7),
        SmashConfig::row_major(&[2]).unwrap(),
    );
    let sb = SmashMatrix::encode(
        &generators::uniform(n, n, 10_000, 8),
        SmashConfig::col_major(&[2]).unwrap(),
    );
    let logical_bits = sa.hierarchy().logical_bits(0) + sb.hierarchy().logical_bits(0);
    let aux = sa.directory().aux_bytes()
        + sb.directory().aux_bytes()
        + (sa.num_blocks() + sb.num_blocks()) * std::mem::size_of::<u32>();
    (logical_bits, aux)
}

/// The SpMM operands' auxiliary memory stays below the expanded logical
/// Bitmap-0 alone, and grows less than half as fast as the logical bits
/// when the dense area grows 16× at a fixed non-zero count.
#[test]
fn spmm_aux_memory_is_sublinear() {
    let (bits_small, aux_small) = spmm_aux(1024);
    let (bits, aux) = spmm_aux(4096);
    assert!(
        aux < bits / 8,
        "SpMM aux memory ({aux} B) must stay below the expanded logical bitmap alone ({} B)",
        bits / 8
    );
    let bits_growth = bits as f64 / bits_small as f64;
    let aux_growth = aux as f64 / aux_small as f64;
    assert!(
        aux_growth < bits_growth / 2.0,
        "aux grew {aux_growth:.1}x for a {bits_growth:.1}x larger logical bitmap"
    );
}

/// The directory costs at most 8 bytes per line plus 12 per stored block
/// (a line never has more non-empty words than blocks), whatever the
/// shape, fill or hierarchy config. The 65,536-row operand is nearly
/// empty, so the line term dominates; its `[2, 64, 64]` top level is
/// 64 KiB.
#[test]
fn directory_aux_bytes_are_bounded_by_lines_and_blocks() {
    let cases = [
        (generators::uniform(300, 5_000, 900, 1), &[2u32][..]),
        (generators::clustered(257, 389, 4_000, 9, 2), &[3, 5]),
        (generators::banded(512, 512, 8, 6_000, 3), &[2, 4, 16]),
        (generators::uniform(64, 64, 4_096, 4), &[2, 64]),
        (generators::power_law(400, 700, 3_000, 1.2, 5), &[8, 64, 64]),
        (generators::uniform(65_536, 65_536, 40, 6), &[2, 64, 64]),
        (Csr::from_coo(&Coo::new(1_000, 1_000)), &[2, 4]),
    ];
    for (a, ratios) in cases {
        for config in [
            SmashConfig::row_major(ratios).unwrap(),
            SmashConfig::col_major(ratios).unwrap(),
        ] {
            let sm = SmashMatrix::encode(&a, config);
            let aux = sm.directory().aux_bytes();
            let bound = 8 * (sm.line_count() + 1) + 12 * sm.num_blocks();
            assert!(
                aux <= bound,
                "{}x{} {ratios:?}: aux {aux} B over the bound {bound} B",
                a.rows(),
                a.cols()
            );
        }
    }
}
