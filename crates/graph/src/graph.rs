//! The shared proximity-graph representation all builders produce and the
//! DOD algorithm consumes.

use std::collections::HashMap;

/// Which construction produced a graph. Greedy-Counting behaves identically
/// on all kinds except that the MRPG kinds enable the pivot-expansion rule
/// (Algorithm 2 lines 13–14), which compensates for the links removed by
/// `Remove-Links` (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// Navigable small world (incremental insertion).
    Nsw,
    /// Approximate K-NN graph from NNDescent.
    KGraph,
    /// MRPG with `K' = K` exact lists (paper's MRPG-basic).
    MrpgBasic,
    /// Full MRPG with `K' = 4K` exact lists.
    Mrpg,
}

impl GraphKind {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::Nsw => "NSW",
            GraphKind::KGraph => "KGraph",
            GraphKind::MrpgBasic => "MRPG-basic",
            GraphKind::Mrpg => "MRPG",
        }
    }
}

impl std::fmt::Display for GraphKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Exact nearest-neighbor annotation for a node: the node's adjacency list
/// starts with these neighbors, ascending by distance, and `dists[i]` is the
/// exact distance to adjacency entry `i`.
///
/// The §5.5 optimization reads this to decide suspected outliers in
/// `O(log K')` with zero distance evaluations.
#[derive(Debug, Clone)]
pub struct ExactNn {
    /// Ascending distances to the protected adjacency prefix.
    pub dists: Vec<f64>,
}

/// An undirected (after construction) proximity graph over object ids
/// `0..n`, with pivot flags and optional exact-NN prefixes.
pub struct ProximityGraph {
    /// Adjacency lists. For a node present in [`ProximityGraph::exact`],
    /// the first `exact[v].dists.len()` entries are its exact nearest
    /// neighbors in ascending distance order and are *protected*: no
    /// construction step may remove or reorder them.
    pub adj: Vec<Vec<u32>>,
    /// Pivot flags (ball-partition vantage points, §5.1).
    pub pivot: Vec<bool>,
    /// Exact-NN prefixes for suspected outliers (§5.1 "Exact K'-NN
    /// Retrieval" / §5.5).
    pub exact: HashMap<u32, ExactNn>,
    /// Whether Greedy-Counting should enqueue pivots that lie beyond `r`
    /// (Algorithm 2 lines 13–14) — true for the MRPG kinds.
    pub expand_pivots: bool,
    /// Whether the DOD algorithm may decide exact-`K'` nodes without
    /// verification (§5.5). True only for full MRPG: MRPG-basic keeps its
    /// exact `K`-NN links but runs the unoptimized verification, which is
    /// precisely the comparison the paper's Table 5 makes.
    pub use_exact_shortcut: bool,
    /// Provenance.
    pub kind: GraphKind,
}

impl ProximityGraph {
    /// An edgeless graph over `n` nodes.
    pub fn new(n: usize, kind: GraphKind) -> Self {
        ProximityGraph {
            adj: vec![Vec::new(); n],
            pivot: vec![false; n],
            exact: HashMap::new(),
            expand_pivots: matches!(kind, GraphKind::Mrpg | GraphKind::MrpgBasic),
            use_exact_shortcut: kind == GraphKind::Mrpg,
            kind,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of directed adjacency entries (an undirected edge counts
    /// twice).
    pub fn link_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Length of the protected exact-NN prefix of `v` (0 for normal nodes).
    pub fn protected_len(&self, v: u32) -> usize {
        self.exact.get(&v).map_or(0, |e| e.dists.len())
    }

    /// `true` if `u`'s adjacency list contains `v`.
    pub fn has_link(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].contains(&v)
    }

    /// Adds the undirected edge `{u, v}` unless present; returns whether
    /// anything was added. Self-loops are ignored.
    pub fn add_undirected(&mut self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let mut added = false;
        if !self.has_link(u, v) {
            self.adj[u as usize].push(v);
            added = true;
        }
        if !self.has_link(v, u) {
            self.adj[v as usize].push(u);
            added = true;
        }
        added
    }

    /// Releases the growth slack construction leaves in the adjacency
    /// lists (capacity beyond length).
    pub fn shrink_to_fit(&mut self) {
        for l in &mut self.adj {
            l.shrink_to_fit();
        }
    }

    /// Ids of all pivot nodes.
    pub fn pivot_ids(&self) -> Vec<u32> {
        (0..self.node_count() as u32)
            .filter(|&v| self.pivot[v as usize])
            .collect()
    }

    /// Number of connected components, treating every link as undirected
    /// (after `Connect-SubGraphs` this must be 1 — or 0 for an empty graph).
    pub fn connected_components(&self) -> usize {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut components = 0;
        let mut stack = Vec::new();
        for s in 0..n {
            if seen[s] {
                continue;
            }
            components += 1;
            seen[s] = true;
            stack.push(s as u32);
            while let Some(v) = stack.pop() {
                for &w in &self.adj[v as usize] {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
        }
        components
    }

    /// (min, mean, max) node degree.
    pub fn degree_stats(&self) -> (usize, f64, usize) {
        if self.adj.is_empty() {
            return (0, 0.0, 0);
        }
        let mut min = usize::MAX;
        let mut max = 0;
        let mut sum = 0usize;
        for l in &self.adj {
            min = min.min(l.len());
            max = max.max(l.len());
            sum += l.len();
        }
        (min, sum as f64 / self.adj.len() as f64, max)
    }

    /// Heap footprint of the index in bytes: adjacency ids, pivot flags and
    /// exact-NN distance arrays (paper Table 6).
    pub fn size_bytes(&self) -> usize {
        let adj: usize = self
            .adj
            .iter()
            .map(|l| l.len() * std::mem::size_of::<u32>() + std::mem::size_of::<Vec<u32>>())
            .sum();
        let exact: usize = self
            .exact
            .values()
            .map(|e| e.dists.len() * std::mem::size_of::<f64>() + 16)
            .sum();
        adj + self.pivot.len() + exact
    }

    /// Checks the structural invariants the builders must maintain:
    /// no self-loops, no duplicate adjacency entries, in-bounds ids, and
    /// exact prefixes ascending with matching lengths. Panics on violation;
    /// meant for tests and debug assertions.
    pub fn assert_invariants(&self) {
        let n = self.node_count() as u32;
        for (v, l) in self.adj.iter().enumerate() {
            let v = v as u32;
            let mut seen = std::collections::HashSet::with_capacity(l.len());
            for &w in l {
                assert!(w < n, "node {v} links out-of-bounds {w}");
                assert_ne!(w, v, "self-loop at {v}");
                assert!(seen.insert(w), "duplicate link {v} -> {w}");
            }
        }
        for (&v, e) in &self.exact {
            assert!(
                e.dists.len() <= self.adj[v as usize].len(),
                "exact prefix of {v} longer than its adjacency"
            );
            assert!(
                e.dists.windows(2).all(|w| w[0] <= w[1]),
                "exact prefix of {v} not ascending"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_undirected_is_idempotent() {
        let mut g = ProximityGraph::new(4, GraphKind::KGraph);
        assert!(g.add_undirected(0, 1));
        assert!(!g.add_undirected(0, 1));
        assert!(!g.add_undirected(1, 0));
        assert_eq!(g.link_count(), 2);
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut g = ProximityGraph::new(2, GraphKind::KGraph);
        assert!(!g.add_undirected(1, 1));
        assert_eq!(g.link_count(), 0);
    }

    #[test]
    fn components_counts_islands() {
        let mut g = ProximityGraph::new(5, GraphKind::KGraph);
        g.add_undirected(0, 1);
        g.add_undirected(2, 3);
        assert_eq!(g.connected_components(), 3); // {0,1} {2,3} {4}
        g.add_undirected(1, 2);
        g.add_undirected(3, 4);
        assert_eq!(g.connected_components(), 1);
    }

    #[test]
    fn empty_graph_has_zero_components() {
        let g = ProximityGraph::new(0, GraphKind::Mrpg);
        assert_eq!(g.connected_components(), 0);
    }

    #[test]
    fn mrpg_kinds_expand_pivots() {
        assert!(ProximityGraph::new(1, GraphKind::Mrpg).expand_pivots);
        assert!(ProximityGraph::new(1, GraphKind::MrpgBasic).expand_pivots);
        assert!(!ProximityGraph::new(1, GraphKind::KGraph).expand_pivots);
        assert!(!ProximityGraph::new(1, GraphKind::Nsw).expand_pivots);
    }

    #[test]
    fn degree_stats_reports_min_mean_max() {
        let mut g = ProximityGraph::new(3, GraphKind::KGraph);
        g.add_undirected(0, 1);
        g.add_undirected(0, 2);
        let (min, mean, max) = g.degree_stats();
        assert_eq!((min, max), (1, 2));
        assert!((mean - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn invariants_catch_duplicates() {
        let mut g = ProximityGraph::new(2, GraphKind::KGraph);
        g.adj[0] = vec![1, 1];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.assert_invariants()));
        assert!(r.is_err());
    }

    #[test]
    fn size_bytes_grows_with_links() {
        let mut g = ProximityGraph::new(10, GraphKind::KGraph);
        let before = g.size_bytes();
        g.add_undirected(0, 1);
        assert!(g.size_bytes() > before);
    }

    #[test]
    fn protected_len_defaults_to_zero() {
        let mut g = ProximityGraph::new(3, GraphKind::Mrpg);
        assert_eq!(g.protected_len(0), 0);
        g.adj[1] = vec![0, 2];
        g.exact.insert(
            1,
            ExactNn {
                dists: vec![0.5, 1.0],
            },
        );
        assert_eq!(g.protected_len(1), 2);
        g.assert_invariants();
    }
}
