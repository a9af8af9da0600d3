//! Dynamic-matrix exactness: the delta overlay, compaction, and the
//! incremental PageRank built on top of them.
//!
//! The contract under test is *bit-identity*: a [`DynamicMatrix`] with a
//! pending overlay must behave exactly like the matrix rebuilt from
//! scratch — same merged triplets, same SpMV/SpMM bits at every thread
//! count, same PageRank trajectory — and compaction must be invisible
//! to every observer except `overlay().is_empty()`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use smash::graph::{generators, pagerank_power, uniform_ranks, Graph, IncrementalPageRank};
use smash::matrix::{spmm_dense_rows, spmv_rows, Coo, Csr, CsrBuilder, Dense, RowRead};
use smash::parallel::{par_spmm_dense_rows, par_spmv_rows, ThreadPool};
use smash::{Delta, DynamicBase, DynamicMatrix};

/// One overlay mutation, drawn by proptest.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Set(usize, usize, f64),
    Add(usize, usize, f64),
    Delete(usize, usize),
}

/// Arbitrary base matrix (integer-valued so sums are exact) plus a
/// mutation script against it.
fn arb_case() -> impl Strategy<Value = (Csr<f64>, Vec<Mutation>)> {
    (2usize..32, 2usize..32)
        .prop_flat_map(|(r, c)| {
            let entries = proptest::collection::vec((0..r, 0..c, -50i32..50), 0..(r * c).min(128));
            let muts = proptest::collection::vec((0..3u8, 0..r, 0..c, -50i32..50), 0..64);
            (Just(r), Just(c), entries, muts)
        })
        .prop_map(|(r, c, entries, muts)| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in entries {
                if v != 0 {
                    coo.push(i, j, v as f64);
                }
            }
            coo.compress();
            let muts = muts
                .into_iter()
                .map(|(kind, i, j, v)| match kind {
                    0 => Mutation::Set(i, j, v as f64),
                    1 => Mutation::Add(i, j, v as f64),
                    _ => Mutation::Delete(i, j),
                })
                .collect();
            (Csr::from_coo(&coo), muts)
        })
}

/// Applies the script to both the dynamic matrix and a map-based model,
/// returning the model rebuilt as a CSR — the from-scratch oracle.
fn apply(dm: &mut DynamicMatrix<f64>, base: &Csr<f64>, muts: &[Mutation]) -> Csr<f64> {
    write(dm, muts);
    model(base, muts)
}

/// Applies the script to the dynamic matrix only.
fn write(dm: &mut DynamicMatrix<f64>, muts: &[Mutation]) {
    for &m in muts {
        match m {
            Mutation::Set(i, j, v) => dm.set(i, j, v),
            Mutation::Add(i, j, d) => dm.add(i, j, d),
            Mutation::Delete(i, j) => dm.delete(i, j),
        }
    }
}

/// The base with the script applied to a map-based model, rebuilt as a
/// CSR — the from-scratch oracle.
fn model(base: &Csr<f64>, muts: &[Mutation]) -> Csr<f64> {
    let mut model: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for i in 0..base.rows() {
        let (cols, vals) = base.row(i);
        for (c, v) in cols.iter().zip(vals) {
            model.insert((i, *c as usize), *v);
        }
    }
    // The model applies the same cancellation rule as `merge_row`: an
    // overlay-affected value that lands on exact 0.0 is not stored.
    for &m in muts {
        match m {
            Mutation::Set(i, j, v) => {
                if v == 0.0 {
                    model.remove(&(i, j));
                } else {
                    model.insert((i, j), v);
                }
            }
            Mutation::Add(i, j, d) => {
                let v = model.get(&(i, j)).copied().unwrap_or(0.0) + d;
                if v == 0.0 {
                    model.remove(&(i, j));
                } else {
                    model.insert((i, j), v);
                }
            }
            Mutation::Delete(i, j) => {
                model.remove(&(i, j));
            }
        }
    }
    let mut out = CsrBuilder::with_capacity(base.cols(), base.rows(), model.len());
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for i in 0..base.rows() {
        cols.clear();
        vals.clear();
        for ((_, j), v) in model.range((i, 0)..(i + 1, 0)) {
            cols.push(*j as u32);
            vals.push(*v);
        }
        out.push_row(&cols, &vals);
    }
    out.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Overlaid SpMV and SpMM results are bit-identical to the rebuilt
    /// matrix, serial and at thread counts 1, 2, and 8.
    #[test]
    fn overlay_kernels_match_rebuild_at_every_thread_count(
        case in arb_case(),
        seed in 0u64..1000,
    ) {
        let (base, muts) = case;
        let mut dm = DynamicMatrix::from_csr(base.clone());
        let rebuilt = apply(&mut dm, &base, &muts);
        prop_assert_eq!(&dm.merged_csr(), &rebuilt);
        prop_assert_eq!(dm.nnz(), rebuilt.nnz());

        let x: Vec<f64> = (0..base.cols())
            .map(|i| ((i as u64 * 2654435761 + seed) % 17) as f64 - 8.0)
            .collect();
        let mut want = vec![0.0; base.rows()];
        spmv_rows(&rebuilt, &x, &mut want);
        let mut got = vec![f64::NAN; base.rows()];
        spmv_rows(&dm, &x, &mut got);
        prop_assert_eq!(&got, &want);

        let mut b = Dense::zeros(base.cols(), 3);
        for i in 0..base.cols() {
            for j in 0..3 {
                b.set(i, j, ((i + 7 * j) % 5) as f64 - 2.0);
            }
        }
        let mut cw = Dense::zeros(base.rows(), 3);
        spmm_dense_rows(&rebuilt, &b, &mut cw);
        let mut cg = Dense::zeros(base.rows(), 3);
        spmm_dense_rows(&dm, &b, &mut cg);
        prop_assert_eq!(&cg, &cw);

        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            got.fill(f64::NAN);
            par_spmv_rows(&pool, &dm, &x, &mut got);
            prop_assert_eq!(&got, &want, "spmv diverged at {} threads", threads);
            let mut cp = Dense::zeros(base.rows(), 3);
            par_spmm_dense_rows(&pool, &dm, &b, &mut cp);
            prop_assert_eq!(&cp, &cw, "spmm diverged at {} threads", threads);
        }
    }

    /// Compaction folds the overlay into the base without changing any
    /// merged triplet, and the compacted base is `==` to the merged CSR.
    #[test]
    fn compaction_round_trips_exactly(case in arb_case()) {
        let (base, muts) = case;
        let mut dm = DynamicMatrix::from_csr(base.clone());
        apply(&mut dm, &base, &muts);
        let before = dm.merged_csr();
        dm.compact();
        prop_assert!(dm.overlay().is_empty());
        prop_assert_eq!(&dm.merged_csr(), &before);
        prop_assert_eq!(dm.base(), &DynamicBase::Csr(before));
    }

    /// Reads interleaved with chunks of writes: after every chunk each
    /// read is `==` the model rebuilt at that point. The first read after
    /// the writes runs through the parallel driver, at 2 threads on the
    /// matrix and at 8 on an unread clone. A clone taken after a read and
    /// then written to leaves the original's reads unchanged, and
    /// compacting after a read keeps the merged rows.
    #[test]
    fn reads_between_write_chunks_match_the_rebuild(
        case in arb_case(),
        cuts in proptest::collection::vec(0usize..64, 0..4),
    ) {
        let (base, muts) = case;
        let mut ends: Vec<usize> = cuts.into_iter().map(|c| c.min(muts.len())).collect();
        ends.push(muts.len());
        ends.sort_unstable();
        let (rows, cols) = (base.rows(), base.cols());
        let x: Vec<f64> = (0..cols).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut b = Dense::zeros(cols, 3);
        for i in 0..cols {
            for j in 0..3 {
                b.set(i, j, ((i + 5 * j) % 4) as f64 - 1.5);
            }
        }
        let (pool2, pool8) = (ThreadPool::new(2), ThreadPool::new(8));
        let mut dm = DynamicMatrix::from_csr(base.clone());
        let mut done = 0;
        for &end in &ends {
            write(&mut dm, &muts[done..end]);
            done = end;
            let want = model(&base, &muts[..end]);
            let mut y_want = vec![0.0; rows];
            spmv_rows(&want, &x, &mut y_want);

            let twin = dm.clone();
            let mut got = vec![f64::NAN; rows];
            par_spmv_rows(&pool2, &dm, &x, &mut got);
            prop_assert_eq!(&got, &y_want);
            got.fill(f64::NAN);
            par_spmv_rows(&pool8, &twin, &x, &mut got);
            prop_assert_eq!(&got, &y_want);

            got.fill(f64::NAN);
            spmv_rows(&dm, &x, &mut got);
            prop_assert_eq!(&got, &y_want);
            let (mut c_want, mut c_got) = (Dense::zeros(rows, 3), Dense::zeros(rows, 3));
            spmm_dense_rows(&want, &b, &mut c_want);
            spmm_dense_rows(&dm, &b, &mut c_got);
            prop_assert_eq!(&c_got, &c_want);
            let (mut rc, mut rv) = (Vec::new(), Vec::new());
            for i in 0..rows {
                dm.row_into(i, &mut rc, &mut rv);
                prop_assert_eq!((&rc[..], &rv[..]), want.row(i), "row {}", i);
            }
            prop_assert_eq!(dm.nnz(), want.nnz());
            prop_assert_eq!(&dm.merged_csr(), &want);

            let mut fork = dm.clone();
            let fork_muts = [
                Mutation::Set(0, 0, 1234.0),
                Mutation::Delete(rows - 1, cols - 1),
            ];
            write(&mut fork, &fork_muts);
            let fork_want = model(&base, &[&muts[..end], &fork_muts[..]].concat());
            let mut fork_y = (vec![0.0; rows], vec![f64::NAN; rows]);
            spmv_rows(&fork_want, &x, &mut fork_y.0);
            spmv_rows(&fork, &x, &mut fork_y.1);
            prop_assert_eq!(&fork_y.1, &fork_y.0);
            prop_assert_eq!(&fork.merged_csr(), &fork_want);
            got.fill(f64::NAN);
            spmv_rows(&dm, &x, &mut got);
            prop_assert_eq!(&got, &y_want, "a written clone changed the original");
            prop_assert_eq!(&dm.merged_csr(), &want);

            let mut compacted = dm.clone();
            compacted.compact();
            prop_assert!(compacted.overlay().is_empty());
            prop_assert_eq!(compacted.nnz(), want.nnz());
            prop_assert_eq!(&compacted.merged_csr(), &want);
        }
    }

    /// `Csr::add` against a dense oracle on adversarial integer
    /// values: exact sums, exact cancellations dropped, no explicit
    /// zeros stored.
    #[test]
    fn spadd_matches_dense_oracle_and_stores_no_zeros(case in arb_case()) {
        let (a, muts) = case;
        // Derive B from A's shape so dimensions agree; reuse the
        // mutation script as B's entry list for adversarial overlap
        // (equal-and-opposite values are common).
        let mut coo = Coo::new(a.rows(), a.cols());
        for &m in &muts {
            match m {
                Mutation::Set(i, j, v) | Mutation::Add(i, j, v) => {
                    if v != 0.0 {
                        coo.push(i, j, v);
                    }
                }
                Mutation::Delete(i, j) => {
                    // Cancel A's entry exactly, if present.
                    let (cols, vals) = a.row(i);
                    if let Ok(p) = cols.binary_search(&(j as u32)) {
                        coo.push(i, j, -vals[p]);
                    }
                }
            }
        }
        coo.compress();
        let b = Csr::from_coo(&coo);
        let sum = a.add(&b).unwrap();
        prop_assert_eq!(sum.rows(), a.rows());
        prop_assert_eq!(sum.cols(), a.cols());
        for i in 0..a.rows() {
            let mut dense = vec![0.0f64; a.cols()];
            let (ac, av) = a.row(i);
            for (c, v) in ac.iter().zip(av) {
                dense[*c as usize] += v;
            }
            let (bc, bv) = b.row(i);
            for (c, v) in bc.iter().zip(bv) {
                dense[*c as usize] += v;
            }
            let (sc, sv) = sum.row(i);
            let want: Vec<(u32, f64)> = dense
                .iter()
                .enumerate()
                .filter(|(_, v)| **v != 0.0)
                .map(|(c, v)| (c as u32, *v))
                .collect();
            let got: Vec<(u32, f64)> = sc.iter().copied().zip(sv.iter().copied()).collect();
            prop_assert_eq!(got, want, "row {} mismatch", i);
            prop_assert!(sv.iter().all(|v| *v != 0.0), "explicit zero stored");
        }
    }
}

#[test]
fn overlay_semantics_are_last_write_wins() {
    let mut coo = Coo::new(3, 3);
    coo.push(0, 0, 2.0);
    coo.push(1, 1, 3.0);
    let base = Csr::from_coo(&coo);
    let mut dm = DynamicMatrix::from_csr(base);

    // set then delete: the key vanishes.
    dm.set(0, 0, 9.0);
    dm.delete(0, 0);
    // delete then add: Delete folds with Add(d) to Set(d).
    dm.delete(1, 1);
    dm.add(1, 1, 4.0);
    // add accumulates over the base value.
    dm.add(2, 2, 1.5);
    dm.add(2, 2, 2.5);
    // duplicate sets: last one wins.
    dm.set(0, 2, 7.0);
    dm.set(0, 2, 8.0);

    let m = dm.merged_csr();
    assert_eq!(m.row(0), (&[2u32][..], &[8.0][..]));
    assert_eq!(m.row(1), (&[1u32][..], &[4.0][..]));
    assert_eq!(m.row(2), (&[2u32][..], &[4.0][..]));
    assert!(matches!(
        dm.overlay().deltas().find(|(r, c, _)| *r == 1 && *c == 1),
        Some((_, _, Delta::Set(v))) if *v == 4.0
    ));
}

#[test]
fn incremental_pagerank_matches_from_scratch_bitwise() {
    let g = Graph::<f64>::from_edges(
        40,
        &(0..40u32)
            .flat_map(|u| [(u, (u + 1) % 40), (u, (u * 7 + 3) % 40)])
            .filter(|(u, v)| u != v)
            .collect::<Vec<_>>(),
    );
    let mut pr = IncrementalPageRank::new(&g, 0.85, 1e-12, 500);
    let cold_iters = pr.solve().iterations;
    let mut added = 0;
    for (u, v) in [(0usize, 20usize), (13, 37), (5, 28), (31, 2)] {
        added += pr.add_edge(u, v) as usize;
    }
    assert!(added >= 3, "probe edges mostly collided with the graph");

    // Bitwise: the dynamic transition matrix and the rebuilt one give
    // the same trajectory (ranks AND iteration count) from the same
    // starting vector.
    let rebuilt = pr.snapshot().transition_matrix();
    let r0 = uniform_ranks::<f64>(pr.vertices());
    let dynamic = pagerank_power(pr.matrix(), &r0, 0.85, 1e-12, 500);
    let oracle = pagerank_power(&rebuilt, &r0, 0.85, 1e-12, 500);
    assert_eq!(dynamic.ranks, oracle.ranks);
    assert_eq!(dynamic.iterations, oracle.iterations);

    // Warm start: no slower than cold, same fixed point up to tolerance.
    let warm = pr.solve();
    assert!(warm.iterations <= cold_iters.max(oracle.iterations));
    for (a, b) in warm.ranks.iter().zip(&oracle.ranks) {
        assert!((a - b).abs() < 2e-11, "{a} vs {b}");
    }
}

#[test]
fn incremental_pagerank_stays_bitwise_across_epochs_and_compactions() {
    let n = 512;
    let g = generators::road_network(n, 1024, 11);
    let (damping, tol, max_iters) = (0.85, 1e-12, 1000);
    let mut pr = IncrementalPageRank::new(&g, damping, tol, max_iters);
    pr.solve();
    for epoch in 0..6usize {
        let mut added = 0;
        for i in 0..24usize {
            let u = (epoch * 7919 + i * 2654435761) % n;
            let v = (epoch * 104729 + i * 40503 + 13) % n;
            added += pr.add_edge(u, v) as usize;
        }
        assert!(added > 0, "epoch {epoch} inserted no edge");
        assert!(!pr.matrix().overlay().is_empty());

        // Each warm solve retraces, bit for bit, a solve over the rebuilt
        // transition matrix from the same starting ranks.
        let r0 = pr.ranks().expect("solved before the epoch").to_vec();
        let warm = pr.solve();
        let rebuilt = pr.snapshot().transition_matrix();
        let oracle = pagerank_power(&rebuilt, &r0, damping, tol, max_iters);
        assert_eq!(warm.ranks, oracle.ranks, "epoch {epoch}");
        assert_eq!(warm.iterations, oracle.iterations, "epoch {epoch}");

        if epoch % 3 == 2 {
            pr.compact();
            assert!(pr.matrix().overlay().is_empty());
            assert_eq!(pr.matrix().merged_csr(), rebuilt, "epoch {epoch}");
        }
    }
}

/// Warm restarts after a batch of edge insertions need no more
/// iterations than a cold solve of the mutated graph and land on the
/// same fixed point. A road network, because every vertex has
/// out-edges: with no dangling mass leak, both trajectories decay at the
/// damping factor and the warm start's closer initial residual turns
/// directly into fewer iterations. (On dangling-heavy graphs the
/// cold-start error drains through the dangling columns faster than the
/// perturbation a warm start carries, and the comparison means nothing.)
#[test]
fn warm_restart_needs_no_more_iterations_than_cold() {
    let g = generators::road_network(4096, 8192, 7);
    let tol = 1e-8;
    let mut pr = IncrementalPageRank::new(&g, 0.85, tol, 1000);
    pr.solve();
    let mut inserted = 0usize;
    for i in 0..64usize {
        let u = (i * 2654435761) % 4096;
        let v = (i * 40503 + 13) % 4096;
        inserted += pr.add_edge(u, v) as usize;
    }
    assert!(inserted > 0, "every probe edge collided with the graph");
    let warm = pr.solve();
    let cold = pagerank_power(
        &pr.snapshot().transition_matrix(),
        &uniform_ranks::<f64>(pr.vertices()),
        0.85,
        tol,
        1000,
    );
    assert!(
        warm.iterations <= cold.iterations,
        "warm restart took {} iterations, cold solve {}",
        warm.iterations,
        cold.iterations
    );
    for (w, c) in warm.ranks.iter().zip(&cold.ranks) {
        assert!(
            (w - c).abs() < 20.0 * tol,
            "warm and cold solves disagree: {w} vs {c}"
        );
    }
}
