//! Synthetic stand-ins for the five SuiteSparse graphs of Table 3.
//!
//! | graph                | class reproduced                              |
//! |----------------------|-----------------------------------------------|
//! | `wikipedia-20070206` | directed power-law web/wiki link graph (RMAT) |
//! | `mycielskian17`      | **exact** Mycielski construction (deterministic; published counts matched exactly) |
//! | `wb-edu`             | host-clustered web crawl (RMAT, heavier skew) |
//! | `kron_g500-logn21`   | Graph500 Kronecker generator, standard params |
//! | `com-Orkut`          | undirected social network (RMAT, symmetric)   |
//!
//! Paper-scale graphs reach 234 M arcs; functional BFS runs use a `scale`
//! divisor (halving vertex counts `log2(scale)` times) that preserves the
//! degree distribution class, while the published full-size vertex/arc
//! counts remain available from [`table3_specs`] for reporting.

use cubie_core::SplitMix64;

use crate::csr_graph::CsrGraph;

/// Published metadata of one Table 3 graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphInfo {
    /// SuiteSparse graph name.
    pub name: &'static str,
    /// SuiteSparse group.
    pub group: &'static str,
    /// Published vertex count.
    pub vertices: usize,
    /// Published edge (arc) count.
    pub edges: usize,
}

/// The five Table 3 entries, in the paper's order.
pub fn table3_specs() -> [GraphInfo; 5] {
    [
        GraphInfo {
            name: "wikipedia-20070206",
            group: "Gleich",
            vertices: 3_566_907,
            edges: 90_043_704,
        },
        GraphInfo {
            name: "mycielskian17",
            group: "Mycielski",
            vertices: 98_303,
            edges: 100_245_742,
        },
        GraphInfo {
            name: "wb-edu",
            group: "SNAP",
            vertices: 9_845_725,
            edges: 112_468_163,
        },
        GraphInfo {
            name: "kron_g500-logn21",
            group: "DIMACS10",
            vertices: 2_097_152,
            edges: 182_082_942,
        },
        GraphInfo {
            name: "com-Orkut",
            group: "SNAP",
            vertices: 3_072_441,
            edges: 234_370_166,
        },
    ]
}

/// Edges sampled per parallel chunk by [`rmat`] and [`community_graph`].
/// A constant, never derived from the worker count, so the chunking —
/// and with it every edge — is the same under any `--jobs`.
pub const EDGE_CHUNK: usize = 1 << 16;

/// Sample edges `0..m` in fixed-size chunks on the worker pool, in
/// place in one index-ordered vector. Edge `i` must take exactly
/// `draws_per_edge` draws, so each chunk starts the stream of
/// `SplitMix64::new(seed)` skipped by `lo · draws_per_edge` (`lo` its
/// first edge) and every edge sees the draws a serial loop would give it.
fn sample_edges<F>(m: usize, seed: u64, draws_per_edge: u64, edge: F) -> Vec<(u32, u32)>
where
    F: Fn(&mut SplitMix64) -> (u32, u32) + Sync,
{
    let mut edges = vec![(0u32, 0u32); m];
    cubie_core::par::par_chunks_mut(&mut edges, EDGE_CHUNK, |c, chunk| {
        let mut g = SplitMix64::new(seed);
        g.skip(((c * EDGE_CHUNK) as u64).wrapping_mul(draws_per_edge));
        for e in chunk {
            *e = edge(&mut g);
        }
    });
    edges
}

/// RMAT recursive-matrix graph generator (Chakrabarti et al.): `n` must
/// be a power of two; emits `m` edges by recursive quadrant descent with
/// probabilities `(a, b, c, d)` plus smoothing noise, then builds CSR
/// (duplicates merge).
///
/// Every edge takes exactly `2·log2(n)` draws (a noise draw and a
/// quadrant draw per level), so edges are sampled in constant-size
/// chunks in parallel, each from the seed's stream skipped to its first
/// edge: the output is bit-identical to one serial pass, for any worker
/// count.
#[allow(clippy::too_many_arguments)]
pub fn rmat(
    n: usize,
    m: usize,
    a: f64,
    b: f64,
    c: f64,
    d: f64,
    seed: u64,
    symmetrize: bool,
) -> CsrGraph {
    assert!(
        n.is_power_of_two(),
        "RMAT needs a power-of-two vertex count"
    );
    assert!(
        (a + b + c + d - 1.0).abs() < 1e-9,
        "probabilities must sum to 1"
    );
    let levels = n.trailing_zeros();
    let edges = sample_edges(m, seed, 2 * levels as u64, |g| {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..levels {
            // ±10 % noise per level keeps the degree sequence from
            // becoming too regular.
            let noise = 0.9 + 0.2 * g.next_unit();
            let (pa, pb, pc) = (a * noise, b, c);
            let (ab, abc) = (pa + pb, pa + pb + pc);
            let total = pa + pb + pc + d;
            let r = g.next_unit() * total;
            // Quadrants in order a (top-left), b (v bit), c (u bit),
            // d (both bits), selected without branches: a random quadrant
            // mispredicts an `if` chain.
            u = u << 1 | usize::from(r >= ab);
            v = v << 1 | usize::from((r >= pa) & (r < ab) | (r >= abc));
        }
        (u as u32, v as u32)
    });
    CsrGraph::from_edges(n, &edges, symmetrize)
}

/// Graph500 Kronecker generator: RMAT with the reference parameters
/// `a = 0.57, b = 0.19, c = 0.19, d = 0.05`, `edgefactor` edges per
/// vertex, symmetrized (as the DIMACS10 `kron_g500` graphs are).
pub fn kron_g500(log_n: u32, edgefactor: usize, seed: u64) -> CsrGraph {
    let n = 1usize << log_n;
    rmat(n, n * edgefactor, 0.57, 0.19, 0.19, 0.05, seed, true)
}

/// The exact Mycielski construction: `mycielskian(k)` for `k ≥ 2`, where
/// `mycielskian(2)` is a single edge (K₂). Each step maps
/// `(V, E) → (V ∪ V' ∪ {w},  E ∪ {u_i v' : uv ∈ E} ∪ {v' w})`,
/// tripling edges and (2n+1)-ing vertices — `mycielskian(17)` reproduces
/// the published 98 303 vertices and 100 245 742 arcs exactly.
pub fn mycielskian(k: u32) -> CsrGraph {
    assert!(k >= 2, "Mycielskian is defined for k >= 2");
    // Undirected edge list, grown iteratively.
    let mut n: usize = 2;
    let mut edges: Vec<(u32, u32)> = vec![(0, 1)];
    for _ in 2..k {
        let mut next = Vec::with_capacity(edges.len() * 3 + n);
        // original edges
        next.extend_from_slice(&edges);
        // u_i ↔ copies of neighbours: for edge (u, v) add (u, v') and (v, u')
        for &(u, v) in &edges {
            next.push((u, v + n as u32));
            next.push((v, u + n as u32));
        }
        // w connects to every copy vertex
        let w = (2 * n) as u32;
        for i in 0..n as u32 {
            next.push((i + n as u32, w));
        }
        edges = next;
        n = 2 * n + 1;
    }
    CsrGraph::from_edges(n, &edges, true)
}

/// Generate the synthetic counterpart of a Table 3 graph by name at the
/// given scale divisor. `scale == 1` targets the published size
/// (memory permitting); each doubling of `scale` halves the vertex count
/// (Mycielskian: lowers the order by one step, dividing edges by ~3).
///
/// # Panics
/// Panics on an unknown name.
pub fn generate(name: &str, scale: usize) -> CsrGraph {
    let shift = scale.max(1).next_power_of_two().trailing_zeros();
    match name {
        // Web/wiki/social graphs: community-structured samplers. Real
        // SuiteSparse web graphs are URL-sorted (most links intra-host)
        // and social graphs community-clustered — the vertex locality
        // the bitmap slice-set format exploits. A pure RMAT sampler has
        // none, so these graphs use the community model.
        "wikipedia-20070206" => {
            let n = (1usize << 22) >> shift; // 4.19M ≈ 3.57M published
            let m = 90_043_704 >> shift;
            community_graph(n.max(1024), m.max(4096), 0.85, 96, 2.4, 0xA11CE, false)
        }
        "mycielskian17" => mycielskian(17u32.saturating_sub(shift).max(4)),
        "wb-edu" => {
            let n = (1usize << 23) >> shift; // 8.39M ≈ 9.85M published
            let m = 112_468_163 >> shift;
            community_graph(n.max(1024), m.max(4096), 0.88, 128, 2.6, 0xED0, false)
        }
        "kron_g500-logn21" => kron_g500(21u32.saturating_sub(shift).max(10), 87, 0x6500),
        "com-Orkut" => {
            let n = (1usize << 22) >> shift; // 4.19M ≈ 3.07M published
            let m = (234_370_166 / 2) >> shift; // undirected edges
            community_graph(n.max(1024), m.max(4096), 0.82, 96, 2.0, 0x0EC, true)
        }
        other => panic!("unknown Table 3 graph `{other}`"),
    }
}

/// Community-structured power-law graph sampler: endpoints are drawn from
/// a skewed distribution (`id = n·u^skew` — low ids become hubs), and a
/// `local_frac` fraction of edges stay within `window` of the source
/// (intra-community links). Models the URL/community vertex locality of
/// real web and social graphs. Self-loops are dropped.
///
/// Every edge takes exactly 3 draws (the source pick, the locality
/// trial, then a window offset or a second pick), so edges are sampled
/// in constant-size parallel chunks from the skipped stream, as in
/// [`rmat`], and self-loops are dropped afterwards in index order:
/// bit-identical to one serial pass for any worker count.
pub fn community_graph(
    n: usize,
    m: usize,
    local_frac: f64,
    window: usize,
    skew: f64,
    seed: u64,
    symmetrize: bool,
) -> CsrGraph {
    let pick = |g: &mut SplitMix64| -> usize {
        ((n as f64 * g.next_unit().powf(skew)) as usize).min(n - 1)
    };
    let mut edges = sample_edges(m, seed, 3, |g| {
        let u = pick(g);
        let v = if g.bernoulli(local_frac) {
            let off = g.next_range(2 * window as u64 + 1) as i64 - window as i64;
            (u as i64 + off).rem_euclid(n as i64) as usize
        } else {
            pick(g)
        };
        (u as u32, v as u32)
    });
    edges.retain(|&(u, v)| u != v);
    CsrGraph::from_edges(n, &edges, symmetrize)
}

/// All five Table 3 graphs with metadata at the given scale divisor.
///
/// Generation fans out across the worker pool, dispatched heaviest
/// first (LPT by the published arc count, which ranks the scaled costs
/// too). Each graph is built by its own deterministic generator, and
/// the samplers inside split their edge streams into constant-size
/// chunks at a fixed draw stride (see [`rmat`]), so the nested fan-out
/// picks up idle workers while output order and every bit stay those
/// of a serial loop.
pub fn table3_graphs(scale: usize) -> Vec<(GraphInfo, CsrGraph)> {
    let specs = table3_specs();
    let graphs = cubie_core::par::par_map_lpt(
        specs.len(),
        |i| specs[i].edges as f64,
        |i| generate(specs[i].name, scale),
    );
    specs.into_iter().zip(graphs).collect()
}

/// A small diverse corpus of graphs for the Figure 10a coverage study:
/// RMAT variants, Kronecker, Mycielskians, grids and random graphs.
/// Graphs are built in parallel from per-graph seeds drawn up front
/// ([`SplitMix64::seeds`]): graph `i` is [`corpus_graph`] of family
/// `i % CORPUS_FAMILIES` from the seed's draw `i`.
pub fn diverse_graph_corpus(count: usize, seed: u64) -> Vec<(String, CsrGraph)> {
    let seeds = SplitMix64::seeds(seed, count);
    cubie_core::par::par_map(count, |i| {
        (
            corpus_graph_name(i),
            corpus_graph(i % CORPUS_FAMILIES, seeds[i]),
        )
    })
}

/// Graph families of the Figure 10a corpus; graph `i` is of family
/// `i % CORPUS_FAMILIES`.
pub const CORPUS_FAMILIES: usize = 5;

/// The name of graph `i` of the Figure 10a corpus.
pub fn corpus_graph_name(i: usize) -> String {
    format!("corpus-{i}")
}

/// A Figure 10a corpus graph of `family` (Kronecker, skewed RMAT,
/// Mycielskian, grid, uniform RMAT) from its own seed `s`.
pub fn corpus_graph(family: usize, s: u64) -> CsrGraph {
    match family {
        0 => {
            let logn = 9 + (s % 4) as u32;
            kron_g500(logn, 8 + (s % 24) as usize, s)
        }
        1 => {
            let n = 1usize << (9 + (s % 4));
            rmat(
                n,
                n * (4 + (s % 16) as usize),
                0.45,
                0.25,
                0.2,
                0.1,
                s,
                false,
            )
        }
        2 => mycielskian(6 + (s % 5) as u32),
        3 => grid_graph(12 + (s % 40) as usize, 12 + ((s >> 8) % 40) as usize),
        4 => {
            let n = 1usize << (9 + (s % 4));
            rmat(
                n,
                n * (2 + (s % 6) as usize),
                0.25,
                0.25,
                0.25,
                0.25,
                s,
                true,
            )
        }
        other => panic!("no corpus graph family {other}"),
    }
}

/// A 2-D grid graph (4-connected), the low-variance end of the corpus.
pub fn grid_graph(nx: usize, ny: usize) -> CsrGraph {
    let mut edges = Vec::with_capacity(2 * nx * ny);
    let id = |i: usize, j: usize| (i * ny + j) as u32;
    for i in 0..nx {
        for j in 0..ny {
            if i + 1 < nx {
                edges.push((id(i, j), id(i + 1, j)));
            }
            if j + 1 < ny {
                edges.push((id(i, j), id(i, j + 1)));
            }
        }
    }
    CsrGraph::from_edges(nx * ny, &edges, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mycielskian_counts_follow_recurrence() {
        // n_{k+1} = 2 n_k + 1, arcs_{k+1} = 3 arcs_k + 2 n_k.
        let mut n = 2usize;
        let mut arcs = 2usize;
        for k in 2..=10u32 {
            let g = mycielskian(k);
            assert_eq!(g.n, n, "k={k}");
            assert_eq!(g.num_arcs(), arcs, "k={k}");
            arcs = 3 * arcs + 2 * n;
            n = 2 * n + 1;
        }
    }

    #[test]
    fn mycielskian17_matches_table3_by_recurrence() {
        // Extrapolate the verified recurrence to k = 17 instead of
        // materializing 100M arcs in a unit test.
        let mut n = 2usize;
        let mut arcs = 2usize;
        for _ in 2..17 {
            arcs = 3 * arcs + 2 * n;
            n = 2 * n + 1;
        }
        let spec = table3_specs()[1];
        assert_eq!(n, spec.vertices);
        assert_eq!(arcs, spec.edges);
    }

    #[test]
    fn mycielskian_is_triangle_free_small() {
        // Mycielski graphs are triangle-free by construction.
        let g = mycielskian(5);
        for u in 0..g.n {
            for &v in g.neighbors(u) {
                for &w in g.neighbors(v as usize) {
                    if (w as usize) != u {
                        assert!(
                            !g.neighbors(w as usize).contains(&(u as u32)),
                            "triangle {u}-{v}-{w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(1 << 12, 16 << 12, 0.57, 0.19, 0.19, 0.05, 5, false);
        let max_deg = (0..g.n).map(|v| g.degree(v)).max().unwrap();
        let avg = g.num_arcs() as f64 / g.n as f64;
        assert!(
            max_deg as f64 > 10.0 * avg,
            "power-law graph should have hubs: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn uniform_rmat_is_not_skewed() {
        let g = rmat(1 << 12, 8 << 12, 0.25, 0.25, 0.25, 0.25, 5, false);
        let max_deg = (0..g.n).map(|v| g.degree(v)).max().unwrap();
        let avg = g.num_arcs() as f64 / g.n as f64;
        assert!((max_deg as f64) < 6.0 * avg, "max {max_deg}, avg {avg}");
    }

    #[test]
    fn generate_all_scaled() {
        for spec in table3_specs() {
            let g = generate(spec.name, 256);
            assert!(g.n > 0, "{} empty", spec.name);
            assert!(g.num_arcs() > 0, "{} no arcs", spec.name);
            assert!(g.n < spec.vertices, "{} did not scale down", spec.name);
        }
    }

    #[test]
    fn grid_graph_degrees() {
        let g = grid_graph(3, 3);
        assert_eq!(g.n, 9);
        assert_eq!(g.degree(4), 4); // centre
        assert_eq!(g.degree(0), 2); // corner
    }

    #[test]
    fn symmetric_generators_produce_symmetric_graphs() {
        let g = generate("com-Orkut", 512);
        for u in (0..g.n).step_by(97) {
            for &v in g.neighbors(u) {
                assert!(
                    g.neighbors(v as usize).contains(&(u as u32)),
                    "missing reverse arc {v}→{u}"
                );
            }
        }
    }
}
