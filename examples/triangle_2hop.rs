//! Triangle counting and two-hop statistics through the Gustavson
//! SpGEMM engine: triangles from the masked, degree-ordered `L·L∘L`
//! product, checked against the full `A²∘A` count and across modes, and
//! two-hop neighbourhoods from the unmasked `A²`.
//!
//! Run with: `cargo run --release --example triangle_2hop`

use smash::encoding::{SmashConfig, SmashMatrix};
use smash::graph::{generators, triangles};
use smash::Executor;
use std::time::Instant;

fn main() {
    let g = generators::rmat(4096, 60_000, 13);
    let adj = triangles::undirected_adjacency(&g);
    println!(
        "R-MAT graph: {} vertices, {} undirected edges",
        adj.rows(),
        adj.nnz() / 2
    );

    let serial = Executor::serial();
    let parallel = Executor::parallel();

    let t0 = Instant::now();
    let tri_serial = triangles::triangle_count(&serial, &adj);
    let t_serial = t0.elapsed();

    let t0 = Instant::now();
    let tri_parallel = triangles::triangle_count(&parallel, &adj);
    let t_parallel = t0.elapsed();

    assert_eq!(
        tri_serial, tri_parallel,
        "the SpGEMM engine is bit-identical across modes"
    );
    println!(
        "triangles: {tri_serial}  (masked L·L∘L: serial {:.1} ms, parallel {:.1} ms on {} threads)",
        t_serial.as_secs_f64() * 1e3,
        t_parallel.as_secs_f64() * 1e3,
        parallel.threads(),
    );

    // The textbook count: build all of A², sum it over the stored edges
    // of A, and divide by 6 (3 vertices × 2 orientations per triangle).
    let t0 = Instant::now();
    let paths = parallel.spgemm(&adj, &adj);
    let mut closed = 0.0f64;
    for u in 0..adj.rows() {
        let (edges, _) = adj.row(u);
        let (cols, vals) = paths.row(u);
        for (&v, &p) in cols.iter().zip(vals) {
            if edges.binary_search(&v).is_ok() {
                closed += p;
            }
        }
    }
    let tri_full = (closed / 6.0).round() as u64;
    let t_full = t0.elapsed();
    assert_eq!(
        tri_parallel, tri_full,
        "the masked count must equal the A²∘A count"
    );
    println!(
        "A²∘A count: {tri_full}  (parallel {:.1} ms: built {} entries of A² for a {}-entry mask)",
        t_full.as_secs_f64() * 1e3,
        paths.nnz(),
        adj.nnz(),
    );

    let hops = triangles::two_hop_counts(&parallel, &adj);
    let max = hops.iter().copied().max().unwrap_or(0);
    let avg = hops.iter().sum::<usize>() as f64 / hops.len().max(1) as f64;
    println!("two-hop neighbourhoods: avg {avg:.1}, max {max}");

    // The same A², compressed into the SMASH encoding.
    let cfg = SmashConfig::row_major(&[2, 4]).expect("valid ratios");
    let sm = SmashMatrix::encode(&paths, cfg);
    println!(
        "A² compressed: {} stored blocks, {:.2}x storage vs CSR",
        sm.num_blocks(),
        paths.storage_bytes() as f64 / sm.storage_bytes() as f64,
    );
}
