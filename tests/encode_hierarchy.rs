//! The encoder builds the bitmap hierarchy straight from the occupied
//! blocks, without a full Bitmap-0. Its hierarchy must be `==` to the one
//! built from the full Bitmap-0 it describes, and every level must expand
//! to the naive OR-fold of the level below, computed here from the input
//! matrix alone. Covered: both layouts, 1–4 levels, ragged last groups
//! (line lengths and level lengths that no ratio divides) and matrices
//! without entries; `SmashMatrix::add`, the other caller, too.

use proptest::prelude::*;
use smash::encoding::{Bitmap, BitmapHierarchy, Layout, SmashConfig, SmashMatrix};
use smash::matrix::{Coo, Csr};

/// Arbitrary matrix of 1..40 × 1..40 with up to 120 entries (possibly
/// none), integer-valued so sums are exact.
fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Csr<f64>> {
    proptest::collection::vec((0..rows, 0..cols, -4i32..5), 0..120).prop_map(move |entries| {
        let mut coo = Coo::new(rows, cols);
        for (i, j, v) in entries {
            coo.push(i, j, f64::from(v));
        }
        coo.compress();
        Csr::from_coo(&coo)
    })
}

/// Two matrices of one shape, for the encoder and for SpAdd.
fn arb_pair() -> impl Strategy<Value = (Csr<f64>, Csr<f64>)> {
    (1usize..40, 1usize..40).prop_flat_map(|(r, c)| (arb_matrix(r, c), arb_matrix(r, c)))
}

/// 1–4 levels: a Bitmap-0 ratio of 1–8, upper ratios of 2–7.
fn arb_ratios() -> impl Strategy<Value = Vec<u32>> {
    (1u32..9, proptest::collection::vec(2u32..8, 0..4)).prop_map(|(b0, upper)| {
        let mut ratios = vec![b0];
        ratios.extend(upper);
        ratios
    })
}

fn arb_layout() -> impl Strategy<Value = Layout> {
    any::<bool>().prop_map(|row| {
        if row {
            Layout::RowMajor
        } else {
            Layout::ColMajor
        }
    })
}

/// The logical Bitmap-0 of `a` under `config`, straight from its entries:
/// bit `line * blocks_per_line + offset / b0` for every stored entry.
fn naive_bitmap0(a: &Csr<f64>, config: &SmashConfig) -> Bitmap {
    let b0 = config.block_size();
    let (lines, line_len) = match config.layout() {
        Layout::RowMajor => (a.rows(), a.cols()),
        Layout::ColMajor => (a.cols(), a.rows()),
    };
    let bpl = line_len.div_ceil(b0);
    let mut bm0 = Bitmap::zeros(lines * bpl);
    for i in 0..a.rows() {
        for &j in a.row(i).0 {
            let (line, off) = match config.layout() {
                Layout::RowMajor => (i, j as usize),
                Layout::ColMajor => (j as usize, i),
            };
            bm0.set(line * bpl + off / b0, true);
        }
    }
    bm0
}

/// Checks `h` level by level against a bit-by-bit OR-fold of `bm0`.
fn assert_folds(h: &BitmapHierarchy, bm0: &Bitmap) -> Result<(), TestCaseError> {
    h.validate()
        .map_err(|e| TestCaseError::Fail(e.to_string()))?;
    let mut want = bm0.clone();
    for l in 0..h.num_levels() {
        if l > 0 {
            let g = h.ratios()[l] as usize;
            let parents = want.len().div_ceil(g).max(1);
            let folded: Bitmap = (0..parents)
                .map(|p| want.any_in_range((p * g).min(want.len()), ((p + 1) * g).min(want.len())))
                .collect();
            want = folded;
        }
        prop_assert_eq!(&h.expand_full(l), &want, "level {}", l);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encoded_hierarchy_equals_the_full_bitmap_build(
        pair in arb_pair(),
        ratios in arb_ratios(),
        layout in arb_layout(),
    ) {
        let (a, b) = pair;
        let config = SmashConfig::new(&ratios, layout).expect("valid ratios");
        let sa = SmashMatrix::encode(&a, config.clone());
        let oracle = BitmapHierarchy::from_level0(&sa.full_bitmap0(), &ratios).expect("valid");
        prop_assert_eq!(sa.hierarchy(), &oracle);
        assert_folds(sa.hierarchy(), &naive_bitmap0(&a, &config))?;
        prop_assert_eq!(&sa.decode(), &a);

        let sum = sa.add(&SmashMatrix::encode(&b, config)).expect("same shape");
        let oracle = BitmapHierarchy::from_level0(&sum.full_bitmap0(), &ratios).expect("valid");
        prop_assert_eq!(sum.hierarchy(), &oracle);
        prop_assert_eq!(sum.decode(), a.add(&b).expect("same shape"));
    }
}

#[test]
fn matrices_without_entries_store_only_the_top_level() {
    for (rows, cols) in [(1, 1), (7, 13), (64, 3)] {
        let a = Csr::<f64>::from_coo(&Coo::new(rows, cols));
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            for ratios in [&[2u32][..], &[2, 4], &[3, 2, 5], &[2, 2, 2, 2]] {
                let config = SmashConfig::new(ratios, layout).expect("valid ratios");
                let sm = SmashMatrix::encode(&a, config.clone());
                let h = sm.hierarchy();
                let oracle = BitmapHierarchy::from_level0(&sm.full_bitmap0(), ratios).unwrap();
                assert_eq!(h, &oracle, "{rows}x{cols} {config}");
                let top = h.num_levels() - 1;
                for l in 0..top {
                    assert!(h.stored_level(l).is_empty(), "{rows}x{cols} {config}");
                }
                assert_eq!(h.stored_level(top).len(), h.logical_bits(top));
                assert_eq!(h.stored_level(top).count_ones(), 0);
                assert_eq!(sm.decode(), a);
            }
        }
    }
}
