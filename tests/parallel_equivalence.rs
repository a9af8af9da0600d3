//! The parallel kernels must be **bit-identical** to their serial
//! counterparts — not merely close — at every thread count, including
//! degenerate and adversarial shapes (empty rows, a single dense row,
//! heavy nnz skew). Exact `==` on the float output is intentional: the
//! parallel implementations never reorder a floating-point addition. The
//! guarantee is precision-independent — the `f32` suite runs the same
//! exact-equality checks as the `f64` one. SMASH runs under hierarchies
//! whose groups straddle line borders, so parallel ranges start inside
//! a group.

use proptest::prelude::*;
use smash::encoding::{SmashConfig, SmashMatrix};
use smash::kernels::native;
use smash::matrix::{generators, spmv_rows, Bcsr, Coo, Csr};
use smash::parallel::{par_spmv_rows, ThreadPool};
use smash::Executor;

/// The thread counts every equivalence assertion runs under.
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// SMASH hierarchies every equivalence assertion encodes with: the
/// default two levels, plus shapes whose level-0 groups (`ratios[1]`
/// blocks) straddle line borders for most widths, one of them four
/// levels deep — so a worker's first row often starts inside a group.
const SMASH_RATIOS: [&[u32]; 3] = [&[2, 4], &[3, 5], &[2, 3, 2, 2]];

fn vector(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.5 + ((i * 37) % 11) as f64 * 0.375)
        .collect()
}

/// Asserts all parallel kernels agree exactly with the serial natives on
/// one matrix, under every [`THREADS`] count and under a pool sized from
/// the environment (CI re-runs this suite with `SMASH_THREADS=1` to
/// exercise the override's serial degeneration).
fn assert_all_kernels_equivalent(a: &Csr<f64>) {
    let x = vector(a.cols());
    let mut got = vec![f64::NAN; a.rows()];

    let bcsr = Bcsr::from_csr(a, 2, 2).expect("valid 2x2 blocking");
    let smash: Vec<(SmashConfig, SmashMatrix<f64>)> = SMASH_RATIOS
        .iter()
        .map(|r| {
            let cfg = SmashConfig::row_major(r).expect("valid config");
            (cfg.clone(), SmashMatrix::encode(a, cfg))
        })
        .collect();
    let bt = a.transpose(); // inner dims: a.cols() == bᵀ.rows()
    let bc = bt.to_csc();

    // Serial references, computed once.
    let mut want_csr = vec![0.0f64; a.rows()];
    spmv_rows(a, &x, &mut want_csr);
    let mut want_bcsr = vec![0.0f64; a.rows()];
    spmv_rows(&bcsr, &x, &mut want_bcsr);
    let want_smash: Vec<Vec<f64>> = smash
        .iter()
        .map(|(_, sm)| {
            let mut y = vec![0.0f64; a.rows()];
            spmv_rows(sm, &x, &mut y);
            y
        })
        .collect();
    let want_spmm = native::spmm_csr(a, &bc);

    let pools = THREADS
        .iter()
        .map(|&t| {
            (
                ThreadPool::new(t),
                Executor::with_threads(t),
                format!("{t}"),
            )
        })
        .chain(std::iter::once((
            ThreadPool::with_default_threads(),
            Executor::parallel(),
            "SMASH_THREADS/default".to_string(),
        )));
    for (pool, exec, label) in pools {
        par_spmv_rows(&pool, a, &x, &mut got);
        assert_eq!(got, want_csr, "csr spmv, threads = {label}");

        par_spmv_rows(&pool, &bcsr, &x, &mut got);
        assert_eq!(got, want_bcsr, "bcsr spmv, threads = {label}");

        for ((cfg, sm), want) in smash.iter().zip(&want_smash) {
            par_spmv_rows(&pool, sm, &x, &mut got);
            assert_eq!(&got, want, "smash {cfg:?} spmv, threads = {label}");
        }

        let got_spmm = exec.spgemm(a, &bt).to_coo();
        assert_eq!(
            got_spmm.entries(),
            want_spmm.entries(),
            "spgemm, threads = {label}"
        );
    }
}

/// Arbitrary sparse matrix: arbitrary dimensions and entry patterns,
/// including matrices with many empty rows.
fn arb_matrix() -> impl Strategy<Value = Csr<f64>> {
    (1usize..48, 1usize..48)
        .prop_flat_map(|(r, c)| {
            let entries =
                proptest::collection::vec((0..r, 0..c, 1u32..1000u32), 0..(r * c).min(160));
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

/// The f32 twin of [`assert_all_kernels_equivalent`]: parallel f32 output
/// must be *bit-identical* (`==`) to serial f32 at threads {1, 2, 8} —
/// reduced precision narrows the error margin of any reordering to the
/// point where reassociation would show up immediately, so this is the
/// sharpest determinism check in the suite.
fn assert_f32_parallel_bit_identical(a64: &Csr<f64>) {
    let a = a64.cast::<f32>();
    let x: Vec<f32> = vector(a.cols()).iter().map(|&v| v as f32).collect();
    let bcsr = Bcsr::from_csr(&a, 2, 2).expect("valid 2x2 blocking");
    let cfg = SmashConfig::row_major(&[2, 4]).expect("valid config");
    let sm = SmashMatrix::encode(&a, cfg);
    let bt = a.transpose();
    let bc = bt.to_csc();

    // Serial references in f32, computed once.
    let mut want_csr = vec![0.0f32; a.rows()];
    spmv_rows(&a, &x, &mut want_csr);
    let mut want_bcsr = vec![0.0f32; a.rows()];
    spmv_rows(&bcsr, &x, &mut want_bcsr);
    let mut want_smash = vec![0.0f32; a.rows()];
    spmv_rows(&sm, &x, &mut want_smash);
    let want_spmm = native::spmm_csr(&a, &bc);

    let mut got = vec![f32::NAN; a.rows()];
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::new(threads);
        let exec = Executor::with_threads(threads);
        par_spmv_rows(&pool, &a, &x, &mut got);
        assert_eq!(got, want_csr, "f32 csr spmv, threads = {threads}");
        par_spmv_rows(&pool, &bcsr, &x, &mut got);
        assert_eq!(got, want_bcsr, "f32 bcsr spmv, threads = {threads}");
        par_spmv_rows(&pool, &sm, &x, &mut got);
        assert_eq!(got, want_smash, "f32 smash spmv, threads = {threads}");
        assert_eq!(
            exec.spgemm(&a, &bt).to_coo().entries(),
            want_spmm.entries(),
            "f32 spgemm, threads = {threads}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_kernels_bit_identical_on_arbitrary_matrices(a in arb_matrix()) {
        assert_all_kernels_equivalent(&a);
    }

    #[test]
    fn f32_parallel_bit_identical_on_arbitrary_matrices(a in arb_matrix()) {
        assert_f32_parallel_bit_identical(&a);
    }
}

#[test]
fn f32_parallel_bit_identical_on_adversarial_shapes() {
    assert_f32_parallel_bit_identical(&Csr::from_coo(&Coo::new(33, 17)));
    assert_f32_parallel_bit_identical(&generators::power_law(96, 64, 900, 1.4, 13));
    assert_f32_parallel_bit_identical(&generators::uniform(200, 3, 150, 5));
    assert_f32_parallel_bit_identical(&generators::uniform(1, 1, 1, 7));
}

#[test]
fn f32_graph_applications_bit_identical_across_thread_counts() {
    use smash::graph::{
        betweenness_native, generators as graph_gen, personalized_pagerank, uniform_ranks,
        BcConfig, PageRankConfig,
    };
    let g = graph_gen::rmat(128, 768, 17).cast::<f32>();
    let pr_cfg = PageRankConfig::default();
    let bc_cfg = BcConfig::default();
    let p = uniform_ranks::<f32>(g.vertices());
    let serial = Executor::serial();
    let pr_want = personalized_pagerank(&serial, &g, &pr_cfg, &p);
    let bc_want = betweenness_native(&serial, &g, &bc_cfg);
    for threads in THREADS {
        let exec = Executor::with_threads(threads);
        assert_eq!(
            personalized_pagerank(&exec, &g, &pr_cfg, &p),
            pr_want,
            "f32 pagerank, threads = {threads}"
        );
        assert_eq!(
            betweenness_native(&exec, &g, &bc_cfg),
            bc_want,
            "f32 betweenness, threads = {threads}"
        );
    }
}

#[test]
fn adversarial_empty_matrix_and_empty_rows() {
    // Fully empty.
    assert_all_kernels_equivalent(&Csr::from_coo(&Coo::new(33, 17)));
    // Mostly empty rows: entries only on every 11th row.
    let mut coo = Coo::new(64, 40);
    for i in (0..64).step_by(11) {
        for j in 0..5 {
            coo.push(i, j * 7, 1.0 + i as f64 + j as f64);
        }
    }
    assert_all_kernels_equivalent(&Csr::from_coo(&coo));
}

#[test]
fn adversarial_single_dense_row() {
    // One fully dense row among empties: the partitioner must isolate it
    // without starving the other ranges, and results must stay exact.
    let mut coo = Coo::new(48, 48);
    for j in 0..48 {
        coo.push(20, j, (j + 1) as f64 * 0.25);
    }
    coo.push(0, 0, 3.0);
    coo.push(47, 47, -2.0);
    assert_all_kernels_equivalent(&Csr::from_coo(&coo));
}

#[test]
fn adversarial_nnz_skew() {
    // Power-law distributed non-zeros: a few rows carry most of the work.
    let a = generators::power_law(96, 64, 900, 1.4, 13);
    assert_all_kernels_equivalent(&a);
    // Extreme skew built by hand: row i holds ~i^2-proportional entries.
    let mut coo = Coo::new(40, 256);
    for i in 0..40usize {
        for j in 0..(i * i * 256 / 1600).min(256) {
            coo.push(i, j, 1.0 / (1.0 + (i * j) as f64));
        }
    }
    assert_all_kernels_equivalent(&Csr::from_coo(&coo));
}

#[test]
fn adversarial_groups_straddling_lines() {
    // Widths whose block count is not a multiple of any SMASH_RATIOS
    // group size, filled densely enough that most groups cross a line
    // border, with every third row empty.
    for cols in [9usize, 27, 37] {
        let mut coo = Coo::new(61, cols);
        for i in (0..61).filter(|i| i % 3 != 1) {
            for j in (0..cols).filter(|j| (i + j) % 4 != 0) {
                coo.push(i, j, 1.0 + (i * cols + j) as f64 / 64.0);
            }
        }
        assert_all_kernels_equivalent(&Csr::from_coo(&coo));
    }
}

#[test]
fn adversarial_tall_thin_and_short_wide() {
    assert_all_kernels_equivalent(&generators::uniform(200, 3, 150, 5));
    assert_all_kernels_equivalent(&generators::uniform(3, 200, 150, 6));
    assert_all_kernels_equivalent(&generators::uniform(1, 1, 1, 7));
}

#[test]
fn graph_applications_bit_identical_across_thread_counts() {
    use smash::graph::{
        betweenness_native, generators as graph_gen, personalized_pagerank, uniform_ranks,
        BcConfig, PageRankConfig,
    };
    let g = graph_gen::rmat(128, 768, 17);
    let pr_cfg = PageRankConfig::default();
    let bc_cfg = BcConfig::default();
    let p = uniform_ranks::<f64>(g.vertices());
    let serial = Executor::serial();
    let pr_want = personalized_pagerank(&serial, &g, &pr_cfg, &p);
    let bc_want = betweenness_native(&serial, &g, &bc_cfg);
    for threads in THREADS {
        let exec = Executor::with_threads(threads);
        assert_eq!(
            personalized_pagerank(&exec, &g, &pr_cfg, &p),
            pr_want,
            "pagerank, threads = {threads}"
        );
        assert_eq!(
            betweenness_native(&exec, &g, &bc_cfg),
            bc_want,
            "betweenness, threads = {threads}"
        );
    }
}

/// A single-level SMASH `[2]` operand (no upper level to seed the line
/// cursor from) runs the parallel SpMV bit-identically to the serial one
/// at 4 and 8 workers, and to serial CSR within tolerance.
#[test]
fn flat_smash_par_spmv_is_bit_identical_at_4_and_8_threads() {
    let a = generators::clustered(512, 512, 8_000, 6, 42);
    let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2]).expect("flat config"));
    let x = vector(a.cols());
    let mut want = vec![0.0f64; a.rows()];
    spmv_rows(&sm, &x, &mut want);
    let mut csr = vec![0.0f64; a.rows()];
    spmv_rows(&a, &x, &mut csr);
    for (w, c) in want.iter().zip(&csr) {
        assert!((w - c).abs() < 1e-9 * (1.0 + c.abs()), "{w} vs {c}");
    }
    for threads in [4, 8] {
        let pool = ThreadPool::new(threads);
        let mut got = vec![f64::NAN; a.rows()];
        par_spmv_rows(&pool, &sm, &x, &mut got);
        assert_eq!(got, want, "threads = {threads}");
    }
}
