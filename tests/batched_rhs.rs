//! The batched sparse × dense SpMM ("SpMDM") subsystem must be exactly a
//! batch of SpMVs: column `j` of every `spmm_dense_*` kernel is pinned to
//! the per-column SpMV oracle with exact `==` (and the whole product to
//! the dense `matmul` oracle within tolerance), a one-column batch equals
//! the SpMV drivers on CSR, BCSR, SMASH and overlaid operands, parallel
//! output is bit-identical to serial at threads {1, 2, 8}, the `f32`
//! pipeline tracks the `f64` oracle within `f32::TOLERANCE`, and the
//! executor's `Auto` dispatch is pinned bit-for-bit to the explicit modes.

use proptest::prelude::*;
use smash::encoding::{SmashConfig, SmashMatrix};
use smash::matrix::{
    generators, spmm_dense_rows, spmv_rows, Bcsr, Coo, Csr, Dense, RowRead, Scalar,
};
use smash::parallel::{par_spmm_dense_rows, par_spmv_rows, ThreadPool};
use smash::{DynamicMatrix, Executor};

/// The thread counts every bit-identity assertion runs under.
const THREADS: [usize; 3] = [1, 2, 8];

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

/// A deterministic dense batch whose `f32` instantiation is the entry-wise
/// truncation of the `f64` one, so mixed-precision checks compare like
/// against like.
fn batch<T: Scalar>(rows: usize, cols: usize) -> Dense<T> {
    generators::dense_batch(rows, cols, 5)
}

/// `c` (the product of format `what`) must equal the dense product `want`
/// entry by entry within `f64::TOLERANCE`.
fn assert_near_dense(c: &Dense<f64>, want: &Dense<f64>, what: &str) {
    let n = c.cols();
    assert_eq!((c.rows(), n), (want.rows(), want.cols()), "{what}");
    for (k, (g, w)) in c.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.approx_eq_default(*w),
            "{what} vs matmul, {n} rhs, entry {k}: {g} vs {w}"
        );
    }
}

/// Pins all three `spmm_dense_*` kernels to the per-column SpMV oracle
/// (exact `==`) and to the dense `matmul` oracle (within tolerance), and
/// their parallel twins to the serial output (exact `==`) at every
/// [`THREADS`] count, across batch widths that exercise the 8-tile,
/// 4-tile and scalar remainders.
fn assert_spmdm_equals_spmv_batch(a: &Csr<f64>) {
    let bcsr = Bcsr::from_csr(a, 2, 2).expect("valid 2x2 blocking");
    let sm = SmashMatrix::encode(a, SmashConfig::row_major(&[2, 4]).expect("valid config"));
    let dense_a = a.to_dense();
    for n in [1usize, 5, 8, 11] {
        let b = batch::<f64>(a.cols(), n);
        let oracle = dense_a.matmul(&b).expect("inner dimensions agree");
        let mut c = Dense::zeros(a.rows(), n);
        let mut y = vec![0.0; a.rows()];

        spmm_dense_rows(a, &b, &mut c);
        assert_near_dense(&c, &oracle, "csr");
        for j in 0..n {
            spmv_rows(a, &b.col(j), &mut y);
            assert_eq!(c.col(j), y, "csr column {j} of {n}");
        }
        let want = c.clone();
        for t in THREADS {
            c.as_mut_slice().fill(f64::NAN);
            par_spmm_dense_rows(&ThreadPool::new(t), a, &b, &mut c);
            assert_eq!(c, want, "par csr, {t} threads, {n} rhs");
        }

        spmm_dense_rows(&bcsr, &b, &mut c);
        assert_near_dense(&c, &oracle, "bcsr");
        for j in 0..n {
            spmv_rows(&bcsr, &b.col(j), &mut y);
            assert_eq!(c.col(j), y, "bcsr column {j} of {n}");
        }
        let want = c.clone();
        for t in THREADS {
            c.as_mut_slice().fill(f64::NAN);
            par_spmm_dense_rows(&ThreadPool::new(t), &bcsr, &b, &mut c);
            assert_eq!(c, want, "par bcsr, {t} threads, {n} rhs");
        }

        spmm_dense_rows(&sm, &b, &mut c);
        assert_near_dense(&c, &oracle, "smash");
        for j in 0..n {
            spmv_rows(&sm, &b.col(j), &mut y);
            assert_eq!(c.col(j), y, "smash column {j} of {n}");
        }
        let want = c.clone();
        for t in THREADS {
            c.as_mut_slice().fill(f64::NAN);
            par_spmm_dense_rows(&ThreadPool::new(t), &sm, &b, &mut c);
            assert_eq!(c, want, "par smash, {t} threads, {n} rhs");
        }
    }
}

/// A one-column batch takes the SpMV body: serial and parallel
/// `spmm_dense` with one right-hand side must equal `spmv_rows` /
/// `par_spmv_rows` on that column (exact `==`) at every [`THREADS`] count.
fn assert_one_rhs_is_spmv<R: RowRead<f64>>(a: &R, what: &str) {
    let b = batch::<f64>(a.cols(), 1);
    let mut want = vec![0.0; a.rows()];
    spmv_rows(a, b.as_slice(), &mut want);
    let mut c = Dense::zeros(a.rows(), 1);
    spmm_dense_rows(a, &b, &mut c);
    assert_eq!(c.as_slice(), &want[..], "{what}, serial");
    for t in THREADS {
        let pool = ThreadPool::new(t);
        let mut y = vec![f64::NAN; a.rows()];
        par_spmv_rows(&pool, a, b.as_slice(), &mut y);
        assert_eq!(y, want, "{what}, par spmv, {t} threads");
        c.as_mut_slice().fill(f64::NAN);
        par_spmm_dense_rows(&pool, a, &b, &mut c);
        assert_eq!(c.as_slice(), &want[..], "{what}, par spmm, {t} threads");
    }
}

/// [`assert_one_rhs_is_spmv`] over every operand kind the drivers take:
/// CSR, BCSR, SMASH, and an overlay with rows set, added to and deleted
/// from.
fn assert_one_rhs_is_spmv_for_every_operand(a: &Csr<f64>) {
    let cfg = SmashConfig::row_major(&[2, 4]).expect("valid config");
    assert_one_rhs_is_spmv(a, "csr");
    assert_one_rhs_is_spmv(
        &Bcsr::from_csr(a, 2, 2).expect("valid 2x2 blocking"),
        "bcsr",
    );
    assert_one_rhs_is_spmv(&SmashMatrix::encode(a, cfg), "smash");
    let mut dm = DynamicMatrix::from_csr(a.clone());
    let (r, c) = (a.rows(), a.cols());
    dm.set(0, c - 1, 2.5);
    dm.add(r / 2, c / 2, -0.75);
    dm.delete(r - 1, 0);
    assert_one_rhs_is_spmv(&dm, "dynamic");
}

/// The `f32` SpMDM must track the `f64` oracle within `f32::TOLERANCE` —
/// same kernels, monomorphized at half precision.
fn assert_f32_tracks_f64_oracle(a64: &Csr<f64>) -> Result<(), TestCaseError> {
    let a32 = a64.cast::<f32>();
    let b64 = batch::<f64>(a64.cols(), 8);
    let b32 = batch::<f32>(a64.cols(), 8);
    let mut want = Dense::zeros(a64.rows(), 8);
    spmm_dense_rows(a64, &b64, &mut want);
    let mut got = Dense::zeros(a64.rows(), 8);
    spmm_dense_rows(&a32, &b32, &mut got);
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        prop_assert!(g.approx_eq(f32::from_f64(*w), f32::TOLERANCE), "{g} vs {w}");
    }
    // And the f32 parallel paths stay bit-identical to f32 serial.
    for t in THREADS {
        let mut par = Dense::zeros(a64.rows(), 8);
        par_spmm_dense_rows(&ThreadPool::new(t), &a32, &b32, &mut par);
        prop_assert_eq!(&par, &got, "f32 par csr, {} threads", t);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spmm_dense_is_a_batch_of_spmvs(a in arb_matrix()) {
        assert_spmdm_equals_spmv_batch(&a);
    }

    #[test]
    fn one_rhs_batch_is_the_spmv_body(a in arb_matrix()) {
        assert_one_rhs_is_spmv_for_every_operand(&a);
    }

    #[test]
    fn f32_spmm_dense_tracks_f64_oracle(a in arb_matrix()) {
        assert_f32_tracks_f64_oracle(&a)?;
    }
}

#[test]
fn adversarial_shapes_are_batches_of_spmvs() {
    // Empty matrix, single element, skinny and short extremes.
    assert_spmdm_equals_spmv_batch(&Csr::from_coo(&Coo::new(33, 17)));
    assert_spmdm_equals_spmv_batch(&generators::uniform(1, 1, 1, 7));
    assert_spmdm_equals_spmv_batch(&generators::uniform(200, 3, 150, 5));
    assert_spmdm_equals_spmv_batch(&generators::uniform(3, 200, 150, 9));
    // One dense row among empties.
    let mut coo = Coo::new(48, 48);
    for j in 0..48 {
        coo.push(20, j, (j + 1) as f64 * 0.25);
    }
    assert_spmdm_equals_spmv_batch(&Csr::from_coo(&coo));
    assert_one_rhs_is_spmv_for_every_operand(&Csr::from_coo(&coo));
    assert_one_rhs_is_spmv_for_every_operand(&generators::uniform(200, 3, 150, 5));
}

#[test]
fn executor_auto_is_pinned_to_explicit_modes() {
    // Large enough that Auto's batched-work heuristic crosses the parallel
    // threshold (nnz * rhs >= AUTO_PARALLEL_NNZ) while one SpMV would not.
    let a = generators::clustered(512, 512, 10_000, 5, 3);
    let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
    let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4]).unwrap());
    let b = batch::<f64>(512, 8);
    let mut want = Dense::zeros(512, 8);
    let mut got = Dense::zeros(512, 8);
    for fmt in ["csr", "bcsr", "smash"] {
        match fmt {
            "csr" => Executor::serial().spmm_dense(&a, &b, &mut want),
            "bcsr" => Executor::serial().spmm_dense(&bcsr, &b, &mut want),
            _ => Executor::serial().spmm_dense(&sm, &b, &mut want),
        }
        for exec in [
            Executor::auto(),
            Executor::parallel(),
            Executor::with_threads(2),
            Executor::with_threads(8),
            Executor::default(),
        ] {
            got.as_mut_slice().fill(f64::NAN);
            match fmt {
                "csr" => exec.spmm_dense(&a, &b, &mut got),
                "bcsr" => exec.spmm_dense(&bcsr, &b, &mut got),
                _ => exec.spmm_dense(&sm, &b, &mut got),
            }
            assert_eq!(
                got,
                want,
                "{fmt} via {:?}/{} threads",
                exec.mode(),
                exec.threads()
            );
        }
    }
}

#[test]
fn executor_spmm_dense_columns_equal_executor_spmv() {
    let a = generators::power_law(128, 96, 1_500, 1.3, 11);
    let b = batch::<f64>(96, 7);
    let exec = Executor::auto();
    let mut c = Dense::zeros(128, 7);
    exec.spmm_dense(&a, &b, &mut c);
    for j in 0..7 {
        let mut y = vec![0.0; 128];
        exec.spmv(&a, &b.col(j), &mut y);
        assert_eq!(c.col(j), y, "column {j}");
    }
}

#[test]
fn batched_pagerank_equals_query_loop_bitwise() {
    use smash::graph::{
        generators as graph_gen, personalized_pagerank, personalized_pagerank_batched, seed_batch,
        PageRankConfig,
    };
    let g = graph_gen::rmat(256, 2_000, 13);
    let cfg = PageRankConfig {
        iterations: 6,
        ..Default::default()
    };
    let seeds: Vec<usize> = (0..12).map(|i| (i * 21) % 256).collect();
    let p = seed_batch::<f64>(g.vertices(), &seeds);
    for exec in [
        Executor::serial(),
        Executor::auto(),
        Executor::with_threads(8),
    ] {
        let batched = personalized_pagerank_batched(&exec, &g, &cfg, &p);
        for j in 0..seeds.len() {
            let single = personalized_pagerank(&exec, &g, &cfg, &p.col(j));
            assert_eq!(batched.col(j), single, "query {j}");
        }
    }
}
