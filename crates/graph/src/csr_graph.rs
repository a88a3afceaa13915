//! Adjacency in CSR form plus the serial reference BFS.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::bitmap::{self, PullBfs};

/// An unweighted directed graph in CSR adjacency form. Undirected graphs
/// store both arc directions (as SuiteSparse edge counts do).
///
/// Generated graphs and graphs loaded from the prepared-input snapshot
/// store are built the same way, as plain `Vec`s.
///
/// The graph also carries a memo of one bitmap pull profile (see
/// [`CsrGraph::pull_bfs`]). It is derived data: a clone starts with an
/// empty memo, and equality and `Debug` ignore it.
pub struct CsrGraph {
    /// Number of vertices.
    pub n: usize,
    /// Offsets into `adj`, length `n + 1`.
    pub offsets: Vec<usize>,
    /// Concatenated neighbour lists.
    pub adj: Vec<u32>,
    /// The profile from the first source [`CsrGraph::pull_bfs`] was
    /// asked for. Invariant: `n`, `offsets` and `adj` are not written
    /// after construction, which nothing in the workspace does. The only
    /// constructors ([`CsrGraph::from_edges`], [`CsrGraph::from_parts`],
    /// [`CsrGraph::reverse`]) and `clone` start the memo empty.
    pull_memo: OnceLock<Arc<PullBfs>>,
}

impl Clone for CsrGraph {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            offsets: self.offsets.clone(),
            adj: self.adj.clone(),
            pull_memo: OnceLock::new(),
        }
    }
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.offsets == other.offsets && self.adj == other.adj
    }
}

impl Eq for CsrGraph {}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrGraph")
            .field("n", &self.n)
            .field("offsets", &self.offsets)
            .field("adj", &self.adj)
            .finish_non_exhaustive()
    }
}

impl CsrGraph {
    /// Build from an edge list; `symmetrize` adds the reverse arc of every
    /// edge. Self-loops are kept; duplicate arcs are merged, and every
    /// neighbour list comes out sorted.
    ///
    /// A counting pass: out-degrees (with the reverse arc of each
    /// non-loop edge when symmetrizing), a prefix sum and one scatter,
    /// then each row's short slice is sorted and compacted in place. The
    /// result equals one global sort and dedup of every `(u, v)` arc.
    ///
    /// # Panics
    /// Panics if an edge has an endpoint outside `0..n`, naming the edge.
    pub fn from_edges(n: usize, edges: &[(u32, u32)], symmetrize: bool) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for (i, &(u, v)) in edges.iter().enumerate() {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge {i} ({u}, {v}) has an endpoint outside 0..{n}"
            );
            offsets[u as usize + 1] += 1;
            if symmetrize && u != v {
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut adj = vec![0u32; offsets[n]];
        for &(u, v) in edges {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            if symmetrize && u != v {
                adj[cursor[v as usize]] = u;
                cursor[v as usize] += 1;
            }
        }
        // Sort each row, then slide its distinct values down to the
        // compacted end; `offsets[u]` is rewritten once row `u` is read.
        let mut write = 0usize;
        let mut lo = 0usize;
        for u in 0..n {
            let hi = offsets[u + 1];
            adj[lo..hi].sort_unstable();
            let start = write;
            offsets[u] = start;
            for i in lo..hi {
                if write == start || adj[write - 1] != adj[i] {
                    adj[write] = adj[i];
                    write += 1;
                }
            }
            lo = hi;
        }
        offsets[n] = write;
        adj.truncate(write);
        adj.shrink_to_fit();
        Self {
            n,
            offsets,
            adj,
            pull_memo: OnceLock::new(),
        }
    }

    /// Assemble from already-built CSR adjacency arrays (the
    /// snapshot-store load path).
    pub fn from_parts(n: usize, offsets: Vec<usize>, adj: Vec<u32>) -> Self {
        assert_eq!(offsets.len(), n + 1, "offsets length mismatch");
        Self {
            n,
            offsets,
            adj,
            pull_memo: OnceLock::new(),
        }
    }

    /// Number of stored arcs (directed edges).
    pub fn num_arcs(&self) -> usize {
        self.adj.len()
    }

    /// Out-neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Panics unless `source` is a vertex, naming the source and `n`
    /// (with `n = 0`, no source is valid).
    pub fn assert_source(&self, source: usize) {
        assert!(
            source < self.n,
            "BFS source {source} is outside 0..{}",
            self.n
        );
    }

    /// Serial reference BFS from `source`: returns per-vertex levels
    /// (`-1` for unreachable vertices).
    pub fn bfs_serial(&self, source: usize) -> Vec<i32> {
        self.assert_source(source);
        let mut level = vec![-1i32; self.n];
        let mut frontier = vec![source as u32];
        level[source] = 0;
        let mut depth = 0i32;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in self.neighbors(u as usize) {
                    if level[v as usize] < 0 {
                        level[v as usize] = depth;
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        level
    }

    /// The bitmap pull traversal's profile from `source`
    /// ([`bitmap::pull_bfs`]: what the slice traversal counts, derived
    /// from the CSR without building the bitmap). The first source asked
    /// for is memoised on the graph, so the bitmap BFS variants share one
    /// profile; concurrent callers for that source wait for it rather
    /// than computing it again. Any other source is computed and not
    /// cached.
    ///
    /// # Panics
    /// Panics if `source` is not a vertex, naming the source and `n`.
    pub fn pull_bfs(&self, source: usize) -> Arc<PullBfs> {
        let memo = self
            .pull_memo
            .get_or_init(|| Arc::new(bitmap::pull_bfs(self, source)));
        if memo.source == source {
            Arc::clone(memo)
        } else {
            Arc::new(bitmap::pull_bfs(self, source))
        }
    }

    /// The highest-degree vertex — the paper's BFS sources follow the
    /// common convention of starting from a well-connected vertex.
    pub fn max_degree_vertex(&self) -> usize {
        (0..self.n).max_by_key(|&v| self.degree(v)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        CsrGraph::from_edges(n, &edges, true)
    }

    #[test]
    fn path_graph_levels() {
        let g = path(5);
        let l = g.bfs_serial(0);
        assert_eq!(l, vec![0, 1, 2, 3, 4]);
        let l2 = g.bfs_serial(2);
        assert_eq!(l2, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        let g = CsrGraph::from_edges(4, &[(0, 1)], true);
        let l = g.bfs_serial(0);
        assert_eq!(l, vec![0, 1, -1, -1]);
    }

    #[test]
    fn symmetrize_doubles_arcs() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], true);
        assert_eq!(g.num_arcs(), 4);
        let d = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], false);
        assert_eq!(d.num_arcs(), 2);
    }

    #[test]
    fn duplicate_arcs_merge() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1), (0, 1)], false);
        assert_eq!(g.num_arcs(), 1);
    }

    #[test]
    fn max_degree_vertex_found() {
        let g = CsrGraph::from_edges(4, &[(2, 0), (2, 1), (2, 3), (0, 1)], false);
        assert_eq!(g.max_degree_vertex(), 2);
    }

    #[test]
    #[should_panic(expected = "edge 1 (0, 3) has an endpoint outside 0..3")]
    fn out_of_range_endpoint_panics_naming_the_edge() {
        // Unsymmetrized, so only the check stops `v = 3` from being
        // stored and failing later inside a traversal.
        CsrGraph::from_edges(3, &[(0, 1), (0, 3)], false);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = CsrGraph::from_edges(5, &[(0, 4), (0, 1), (0, 3)], false);
        assert_eq!(g.neighbors(0), &[1, 3, 4]);
    }

    #[test]
    fn pull_bfs_is_memoised_for_the_first_source() {
        let g = path(300);
        let first = g.pull_bfs(7);
        assert!(Arc::ptr_eq(&first, &g.pull_bfs(7)));
        // Another source is computed, not cached, and leaves the memo.
        let other = g.pull_bfs(0);
        assert_eq!(other.levels, g.bfs_serial(0));
        assert!(!Arc::ptr_eq(&other, &g.pull_bfs(0)));
        assert!(Arc::ptr_eq(&first, &g.pull_bfs(7)));
    }

    #[test]
    fn clone_is_equal_and_starts_with_an_empty_memo() {
        let g = path(40);
        let filled = g.pull_bfs(3);
        let c = g.clone();
        assert_eq!(c, g);
        assert!(c.pull_memo.get().is_none());
        assert!(!Arc::ptr_eq(&filled, &c.pull_bfs(3)));
        // Equality and `Debug` ignore the memo's state.
        assert_eq!(format!("{c:?}"), format!("{:?}", path(40)));
    }
}
