//! Structural graph features for the Figure 10a PCA coverage study.

use crate::bitmap::{BLOCK_COLS, BLOCK_ROWS};
use crate::csr_graph::CsrGraph;

/// Names of the feature dimensions, in [`GraphFeatures::to_vec`] order.
pub const GRAPH_FEATURE_NAMES: [&str; 8] = [
    "log_vertices",
    "log_edges",
    "avg_degree",
    "degree_cv",
    "max_degree_ratio",
    "isolated_fraction",
    "bfs_depth_ratio",
    "slice_fill",
];

/// Structural features of a graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphFeatures {
    /// `ln(n)`.
    pub log_vertices: f64,
    /// `ln(arcs)`.
    pub log_edges: f64,
    /// Mean out-degree.
    pub avg_degree: f64,
    /// Coefficient of variation of out-degrees.
    pub degree_cv: f64,
    /// Max degree over mean degree (hubbiness).
    pub max_degree_ratio: f64,
    /// Fraction of vertices with no out-arcs.
    pub isolated_fraction: f64,
    /// BFS eccentricity from the max-degree vertex over `log2(n)` — 1 for
    /// small-world graphs, large for grids/chains.
    pub bfs_depth_ratio: f64,
    /// Bitmap slice fill of the 8×128 block representation: arcs over
    /// `1024 ·` the number of nonempty blocks, bit for bit the bitmap
    /// format's own fill (its test oracle, `BitmapGraph::slice_fill`).
    /// Computed by counting the distinct (destination band, source
    /// column block) pairs, without materialising the bitmap.
    pub slice_fill: f64,
}

impl GraphFeatures {
    /// Extract features from a graph.
    pub fn of(g: &CsrGraph) -> Self {
        assert!(
            g.n > 0 && g.num_arcs() > 0,
            "features need a nonempty graph"
        );
        let n = g.n as f64;
        let m = g.num_arcs() as f64;
        let mean = m / n;
        let mut sq = 0.0f64;
        let mut max_deg = 0usize;
        let mut isolated = 0usize;
        for v in 0..g.n {
            let d = g.degree(v);
            sq += (d * d) as f64;
            max_deg = max_deg.max(d);
            isolated += usize::from(d == 0);
        }
        let var = (sq / n - mean * mean).max(0.0);

        let levels = g.bfs_serial(g.max_degree_vertex());
        let depth = levels.iter().copied().max().unwrap_or(0).max(0) as f64;

        Self {
            log_vertices: n.ln(),
            log_edges: m.ln(),
            avg_degree: mean,
            degree_cv: var.sqrt() / mean.max(1e-12),
            max_degree_ratio: max_deg as f64 / mean.max(1e-12),
            isolated_fraction: isolated as f64 / n,
            bfs_depth_ratio: depth / n.log2().max(1.0),
            slice_fill: slice_fill(g),
        }
    }

    /// Flatten into the PCA input ordering of [`GRAPH_FEATURE_NAMES`].
    pub fn to_vec(self) -> Vec<f64> {
        vec![
            self.log_vertices,
            self.log_edges,
            self.avg_degree,
            self.degree_cv,
            self.max_degree_ratio,
            self.isolated_fraction,
            self.bfs_depth_ratio,
            self.slice_fill,
        ]
    }
}

/// The bitmap format's slice fill (`BitmapGraph::slice_fill` in the
/// graph tests) without building the bitmap. A slice is a distinct
/// (`v / 8`, `u / 128`) pair over the arcs `u → v`. Sources are visited
/// in ascending order, so each band sees its column blocks in
/// nondecreasing order and one stamp per band (last column block seen,
/// plus one) counts them. Arcs are distinct, so they equal the bitmap's
/// set bits.
fn slice_fill(g: &CsrGraph) -> f64 {
    let mut stamp = vec![0u32; g.n.div_ceil(BLOCK_ROWS)];
    let mut slices = 0usize;
    for u in 0..g.n {
        let tag = (u / BLOCK_COLS) as u32 + 1;
        for &v in g.neighbors(u) {
            let band = &mut stamp[v as usize / BLOCK_ROWS];
            if *band != tag {
                *band = tag;
                slices += 1;
            }
        }
    }
    if slices == 0 {
        return 0.0;
    }
    g.num_arcs() as f64 / (slices * BLOCK_ROWS * BLOCK_COLS) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_graph, kron_g500, mycielskian};

    #[test]
    fn grid_is_deep_and_regular() {
        let f = GraphFeatures::of(&grid_graph(30, 30));
        assert!(f.degree_cv < 0.3, "grid degrees nearly uniform");
        assert!(f.bfs_depth_ratio > 3.0, "grids have long BFS depth");
    }

    #[test]
    fn kronecker_is_shallow_and_skewed() {
        let f = GraphFeatures::of(&kron_g500(11, 16, 3));
        assert!(f.degree_cv > 1.0, "kron graphs are skewed");
        assert!(f.bfs_depth_ratio < 1.5, "kron graphs are small-world");
    }

    #[test]
    fn mycielskian_has_no_isolated_vertices() {
        let f = GraphFeatures::of(&mycielskian(8));
        assert_eq!(f.isolated_fraction, 0.0);
    }

    #[test]
    fn feature_vector_matches_names() {
        let f = GraphFeatures::of(&grid_graph(5, 5));
        assert_eq!(f.to_vec().len(), GRAPH_FEATURE_NAMES.len());
    }
}
