//! PageRank as iterated SpMV (paper §6: "PageRank iteratively uses SpMV to
//! calculate the ranks of nodes").
//!
//! One iteration is `r' = d·M·r + (1−d)/n` with `M` the column-stochastic
//! transition matrix. The SpMV runs through the selected mechanism (CSR or
//! SMASH); the rank update is an element-wise vector pass.

use crate::Graph;
use smash_bmu::Bmu;
use smash_core::{SmashConfig, SmashMatrix};
use smash_kernels::spmv;
use smash_matrix::Scalar;
use smash_sim::{Engine, StreamId, UopId};

/// Mechanisms compared in the paper's Fig. 18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphMechanism {
    /// Ligra-style CSR traversal expressed as CSR SpMV.
    Csr,
    /// SMASH-based SpMV (hierarchical bitmap + BMU).
    Smash,
}

impl GraphMechanism {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            GraphMechanism::Csr => "CSR",
            GraphMechanism::Smash => "SMASH",
        }
    }
}

/// PageRank parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor (the classic 0.85).
    pub damping: f64,
    /// Fixed number of power iterations.
    pub iterations: usize,
    /// SMASH hierarchy used when the mechanism is [`GraphMechanism::Smash`].
    pub smash: SmashConfig,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            iterations: 10,
            smash: SmashConfig::row_major(&[2, 4, 16]).expect("static config is valid"),
        }
    }
}

/// Prefetcher stream for the rank vectors.
const S_RANK: StreamId = StreamId(40);

/// Reference (uninstrumented) PageRank, generic over the rank precision.
pub fn pagerank_reference<T: Scalar>(g: &Graph<T>, cfg: &PageRankConfig) -> Vec<T> {
    let n = g.vertices();
    let m = g.transition();
    let mut r = vec![T::from_f64(1.0 / n as f64); n];
    let teleport = T::from_f64((1.0 - cfg.damping) / n as f64);
    let damping = T::from_f64(cfg.damping);
    for _ in 0..cfg.iterations {
        let y = m.spmv(&r);
        for (ri, yi) in r.iter_mut().zip(&y) {
            *ri = damping * *yi + teleport;
        }
    }
    r
}

/// Instrumented PageRank: each iteration emits one mechanism-specific SpMV
/// plus the element-wise rank update.
pub fn pagerank<E: Engine, T: Scalar>(
    e: &mut E,
    mech: GraphMechanism,
    g: &Graph<T>,
    cfg: &PageRankConfig,
) -> Vec<T> {
    let n = g.vertices();
    let m = g.transition();
    let sm = match mech {
        GraphMechanism::Smash => Some(SmashMatrix::encode(m, cfg.smash.clone())),
        GraphMechanism::Csr => None,
    };
    let mut bmu = Bmu::new();
    let r_addr = e.alloc(std::mem::size_of::<T>() * n, 64);
    let vs = std::mem::size_of::<T>() as u64;

    let mut r = vec![T::from_f64(1.0 / n as f64); n];
    let teleport = T::from_f64((1.0 - cfg.damping) / n as f64);
    let damping = T::from_f64(cfg.damping);
    for _ in 0..cfg.iterations {
        let y = match mech {
            GraphMechanism::Csr => spmv::spmv_csr(e, m, &r),
            GraphMechanism::Smash => {
                spmv::spmv_hw_smash(e, &mut bmu, 0, sm.as_ref().expect("encoded above"), &r)
            }
        };
        // r = d * y + teleport, element-wise.
        for (i, (ri, yi)) in r.iter_mut().zip(&y).enumerate() {
            let ld = e.load(S_RANK, r_addr + vs * i as u64, &[]);
            let mul = e.fmul(&[ld]);
            let add = e.fadd(&[mul]);
            e.store(S_RANK, r_addr + vs * i as u64, &[add]);
            *ri = damping * *yi + teleport;
        }
        let _: UopId = e.alu(&[]); // iteration counter
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use smash_sim::CountEngine;

    fn sample() -> Graph {
        generators::rmat(128, 512, 3)
    }

    #[test]
    fn ranks_sum_to_one_without_dangling() {
        // A symmetric RMAT graph may still have isolated vertices; restrict
        // the check to a lattice where every vertex has out-edges.
        let g = generators::road_network(256, 512, 1);
        let r = pagerank_reference(&g, &PageRankConfig::default());
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "ranks sum to {sum}");
    }

    #[test]
    fn instrumented_matches_reference_for_both_mechanisms() {
        let g = sample();
        let cfg = PageRankConfig {
            iterations: 5,
            ..Default::default()
        };
        let want = pagerank_reference(&g, &cfg);
        for mech in [GraphMechanism::Csr, GraphMechanism::Smash] {
            let mut e = CountEngine::new();
            let got = pagerank(&mut e, mech, &g, &cfg);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-12, "{mech:?}: {a} vs {b}");
            }
            assert!(e.finish().instructions() > 0);
        }
    }

    #[test]
    fn smash_needs_fewer_instructions_than_csr() {
        let g = generators::rmat(256, 2048, 9);
        let cfg = PageRankConfig {
            iterations: 3,
            ..Default::default()
        };
        let mut e1 = CountEngine::new();
        pagerank(&mut e1, GraphMechanism::Csr, &g, &cfg);
        let csr = e1.finish().instructions();
        let mut e2 = CountEngine::new();
        pagerank(&mut e2, GraphMechanism::Smash, &g, &cfg);
        let smash = e2.finish().instructions();
        assert!((smash as f64) < (csr as f64), "smash {smash} vs csr {csr}");
    }

    #[test]
    fn high_degree_vertices_rank_higher() {
        let g = generators::rmat(128, 1024, 11);
        let r = pagerank_reference(&g, &PageRankConfig::default());
        let (hub, _) = (0..g.vertices())
            .map(|u| (u, g.out_degree(u)))
            .max_by_key(|&(_, d)| d)
            .unwrap();
        let (leaf, _) = (0..g.vertices())
            .map(|u| (u, g.out_degree(u)))
            .min_by_key(|&(_, d)| d)
            .unwrap();
        assert!(r[hub] > r[leaf]);
    }
}
