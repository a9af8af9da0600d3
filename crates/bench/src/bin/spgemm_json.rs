//! Machine-readable perf snapshot for the Gustavson SpGEMM engine.
//!
//! Writes `BENCH_spgemm.json` (path overridable as the first CLI
//! argument) with Gustavson-vs-inner-product wall-clock numbers for
//! `A · A` and `A · Aᵀ` over a zoo of power-law matrices — the
//! workload where per-row output density varies by orders of magnitude,
//! so the engine's per-row dense/hash accumulator choice actually
//! exercises both paths. The process exits non-zero if the headline
//! claim does not hold on this host:
//!
//! * row-wise Gustavson beats the `spmm_csr_opt` inner-product baseline
//!   on `A · A` for **every** matrix in the zoo.
//!
//! It also re-verifies, on real data, that the parallel engine is
//! bit-identical to the serial one and that both match the
//! `Csr::spmm_inner` oracle exactly — the determinism guarantee the
//! speedup must never trade away.

use smash_bench::zoo;
use smash_kernels::{native, spgemm};
use smash_matrix::{generators, Csr};
use smash_parallel::ThreadPool;

fn zoo() -> Vec<(String, Csr<f64>)> {
    [
        (768usize, 9_000usize, 1.2f64, 31u64),
        (1024, 12_000, 1.4, 32),
        (1024, 20_000, 1.6, 33),
        (1536, 18_000, 1.3, 34),
    ]
    .into_iter()
    .map(|(n, nnz, alpha, seed)| {
        (
            format!("power_law {n}x{n} nnz {nnz} alpha {alpha}"),
            generators::power_law(n, n, nnz, alpha, seed),
        )
    })
    .collect()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_spgemm.json".into());
    let pool = ThreadPool::new(4);

    let mut rows_json = Vec::new();
    let mut min_speedup = f64::INFINITY;
    for (label, a) in zoo() {
        let a_csc = a.to_csc();
        let at = a.transpose();
        let at_csc = at.to_csc();

        // Determinism re-check on real data: parallel == serial == oracle,
        // triplet-exact.
        let serial = spgemm::spgemm(&a, &a, None);
        assert_eq!(
            spgemm::par_spgemm(&pool, &a, &a, None),
            serial,
            "parallel Gustavson diverged from serial on {label}"
        );
        assert_eq!(
            serial.to_coo().entries(),
            a.spmm_inner(&a_csc).expect("conforming").entries(),
            "Gustavson diverged from the inner-product oracle on {label}"
        );

        let gustavson_ns = zoo::time_ns(5, 3, || spgemm::spgemm(&a, &a, None).nnz());
        let gustavson_par_ns = zoo::time_ns(5, 3, || spgemm::par_spgemm(&pool, &a, &a, None).nnz());
        let csr_opt_ns = zoo::time_ns(5, 3, || native::spmm_csr_opt(&a, &a_csc).nnz());
        let aat_gustavson_ns = zoo::time_ns(5, 3, || spgemm::spgemm(&a, &at, None).nnz());
        let aat_csr_opt_ns = zoo::time_ns(5, 3, || native::spmm_csr_opt(&a, &at_csc).nnz());

        let speedup = csr_opt_ns / gustavson_ns;
        min_speedup = min_speedup.min(speedup);
        rows_json.push(format!(
            "    {{\"matrix\": \"{label}\", \"out_nnz\": {}, \
             \"aa_gustavson_ns\": {gustavson_ns:.0}, \
             \"aa_gustavson_par4_ns\": {gustavson_par_ns:.0}, \
             \"aa_csr_opt_ns\": {csr_opt_ns:.0}, \
             \"aa_gustavson_speedup\": {speedup:.2}, \
             \"aat_gustavson_ns\": {aat_gustavson_ns:.0}, \
             \"aat_csr_opt_ns\": {aat_csr_opt_ns:.0}}}",
            serial.nnz()
        ));
    }

    let json = format!(
        "{{\n  \"workload\": \"A*A and A*At over the power-law zoo\",\n  \
         \"min_aa_gustavson_speedup\": {min_speedup:.2},\n  \"zoo\": [\n{}\n  ]\n}}\n",
        rows_json.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("wrote {out_path}");

    assert!(
        min_speedup > 1.0,
        "row-wise Gustavson ({min_speedup:.2}x at worst) must beat the \
         spmm_csr_opt inner-product baseline on A*A across the zoo"
    );
}
