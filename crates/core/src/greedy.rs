//! Greedy-Counting (paper Algorithm 2): graph-bounded range counting with
//! early termination.
//!
//! From object `p`, BFS the proximity graph expanding only vertices within
//! distance `r` of `p` — plus pivots beyond `r` when the graph asks for it
//! (lines 13–14; MRPG needs this because `Remove-Links` re-routes
//! non-pivot/non-pivot connectivity through pivots). Each vertex's distance
//! is evaluated at most once, and the walk stops the moment `k` neighbors
//! are confirmed, so inliers in dense regions cost `O(k)` distance
//! evaluations regardless of `n` or dimensionality.
//!
//! The returned count never exceeds the true neighbor count (Lemma 1):
//! outliers can never be filtered, which is what makes Algorithm 1 exact.

use dod_graph::ProximityGraph;
use dod_metrics::Dataset;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Reusable traversal state: epoch-stamped visited marks plus the BFS
/// queue. One buffer per worker thread avoids a fresh allocation per
/// object (the filtering phase runs `n` traversals).
pub struct TraversalBuffer {
    visited: Vec<u32>,
    epoch: u32,
    queue: VecDeque<u32>,
    /// Distance evaluations since the last [`take_cost`](Self::take_cost)
    /// — accumulated across traversals, *not* reset by [`begin`](Self::begin),
    /// so one drain per query phase captures every walk of that phase.
    dist_evals: u64,
    /// Vertices expanded (queue pops) since the last `take_cost`.
    hops: u64,
}

impl TraversalBuffer {
    /// A buffer for graphs of `n` vertices.
    pub fn new(n: usize) -> Self {
        TraversalBuffer {
            visited: vec![0; n],
            epoch: 0,
            queue: VecDeque::new(),
            dist_evals: 0,
            hops: 0,
        }
    }

    /// Drains the accumulated `(dist_evals, hops)` tally, resetting both
    /// to zero. Walk implementations sharing this buffer (the streaming
    /// crate's beam search) should book their own work with
    /// [`note_dist`](Self::note_dist)/[`note_hop`](Self::note_hop) so one
    /// drain covers the whole phase.
    pub fn take_cost(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.dist_evals),
            std::mem::take(&mut self.hops),
        )
    }

    /// Books `n` distance evaluations against this buffer's tally.
    #[inline]
    pub fn note_dist(&mut self, n: u64) {
        self.dist_evals += n;
    }

    /// Books `n` vertex expansions against this buffer's tally.
    #[inline]
    pub fn note_hop(&mut self, n: u64) {
        self.hops += n;
    }

    /// Starts a new traversal: all vertices become unvisited in O(1).
    ///
    /// Public so other walk implementations (e.g. the streaming crate's
    /// insertion-time beam search) can reuse the epoch-stamped visited set
    /// instead of duplicating the wrap-around logic.
    pub fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: reset marks once every 2^32 traversals.
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    /// Marks `v` visited; `true` iff it was unvisited this traversal.
    #[inline]
    pub fn mark(&mut self, v: u32) -> bool {
        let slot = &mut self.visited[v as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// A shared pool of [`TraversalBuffer`]s so repeated queries on one engine
/// stop re-allocating the `O(n)` visited array per call.
///
/// All pooled buffers are sized for the same graph (an engine's vertex
/// count never changes), so `take` can hand out any of them. `Sync` by
/// construction: workers take a buffer before spawning and return it after
/// joining, so the mutex is only touched outside the hot loop.
pub(crate) struct BufferPool {
    bufs: Mutex<Vec<TraversalBuffer>>,
}

impl BufferPool {
    /// An empty pool; buffers are created on first use.
    pub(crate) fn new() -> Self {
        BufferPool {
            bufs: Mutex::new(Vec::new()),
        }
    }

    /// A buffer for graphs of `n` vertices — pooled if available, fresh
    /// otherwise.
    pub(crate) fn take(&self, n: usize) -> TraversalBuffer {
        let pooled = self.lock().pop();
        match pooled {
            Some(buf) if buf.visited.len() == n => buf,
            _ => TraversalBuffer::new(n),
        }
    }

    /// Returns a buffer to the pool for the next query.
    pub(crate) fn put(&self, buf: TraversalBuffer) {
        self.lock().push(buf);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TraversalBuffer>> {
        // A poisoned pool only means a worker panicked mid-query; the
        // buffers themselves are always reusable.
        self.bufs.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// State the filter derives once per graph and reuses on every query:
/// the exact distance of every edge, laid out per source vertex, and the
/// order in which Algorithm 1 walks the objects.
///
/// Both parts are pure functions of the graph and the dataset, so they
/// are recomputed wherever an engine takes ownership of a graph (build,
/// prebuilt graph, load) and never persisted.
pub struct FilterPlan {
    /// `ring[v][i] == data.dist(v, adj[v][i])` — the exact call, with the
    /// same argument order, that a walk from `v` makes when it expands
    /// `v` itself, so reading it is bitwise identical to evaluating it.
    ring: Vec<Box<[f64]>>,
    /// Every vertex once, in BFS order over the graph, component by
    /// component from id 0: consecutive walks start next to each other,
    /// so they touch overlapping rows and adjacency lists.
    order: Vec<u32>,
}

impl FilterPlan {
    /// Derives the plan for `g` over `data` (one kernel call per
    /// directed edge).
    pub fn new<D: Dataset + ?Sized>(g: &ProximityGraph, data: &D) -> Self {
        let ring = g
            .adj
            .iter()
            .enumerate()
            .map(|(v, adj)| adj.iter().map(|&w| data.dist(v, w as usize)).collect())
            .collect();
        let n = g.node_count();
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for s in 0..n {
            if seen[s] {
                continue;
            }
            seen[s] = true;
            // `order` doubles as the BFS queue: entries past `head` are
            // discovered but not yet expanded.
            let mut head = order.len();
            order.push(s as u32);
            while head < order.len() {
                let v = order[head] as usize;
                head += 1;
                for &w in &g.adj[v] {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        order.push(w);
                    }
                }
            }
        }
        FilterPlan { ring, order }
    }

    /// The exact distances from `v` to each of its adjacency entries, in
    /// adjacency order.
    pub fn ring(&self, v: usize) -> &[f64] {
        &self.ring[v]
    }

    /// The walk order: a permutation of `0..n`.
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }
}

/// Counts neighbors of `p` (objects within `r`, excluding `p`) reachable by
/// the greedy graph walk, stopping at `k`. Returns `min(reached, k)`.
///
/// `ring` is `p`'s [`FilterPlan::ring`]: expanding `p` itself reads its
/// edge distances from there instead of calling the kernel, which is the
/// only difference from a plain Algorithm 2 walk — visit order, hops and
/// every decision are the same. The buffer's distance tally books kernel
/// calls only.
///
/// Lemma 1: the result is a lower bound of the true neighbor count, so
/// `greedy_count(..) >= k` proves `p` is an inlier while `< k` only makes
/// it a *candidate* outlier.
///
/// # Panics
///
/// If `ring` is not as long as `p`'s adjacency list.
pub fn greedy_count<D: Dataset + ?Sized>(
    g: &ProximityGraph,
    data: &D,
    p: usize,
    ring: &[f64],
    r: f64,
    k: usize,
    buf: &mut TraversalBuffer,
) -> usize {
    assert_eq!(
        ring.len(),
        g.adj[p].len(),
        "ring of {p} must match its adjacency"
    );
    if k == 0 {
        return 0;
    }
    buf.begin();
    buf.mark(p as u32);
    buf.hops += 1;
    let mut count = 0usize;
    for (&w, &d) in g.adj[p].iter().zip(ring) {
        if buf.mark(w) && admit(g, buf, w, d <= r, &mut count, k) {
            return count;
        }
    }
    while let Some(v) = buf.queue.pop_front() {
        buf.hops += 1;
        for i in 0..g.adj[v as usize].len() {
            let w = g.adj[v as usize][i];
            if !buf.mark(w) {
                continue;
            }
            buf.dist_evals += 1;
            if admit(g, buf, w, data.dist(p, w as usize) <= r, &mut count, k) {
                return count;
            }
        }
    }
    count
}

/// One newly visited vertex `w` of a [`greedy_count`] walk: counts and
/// enqueues it when it lies `within` the radius, enqueues it anyway when
/// it is a pivot the graph expands (Algorithm 2 lines 13–14; pivots
/// bridge regions even when they themselves lie outside the query ball).
/// Returns `true` once the count reaches `k`.
#[inline]
fn admit(
    g: &ProximityGraph,
    buf: &mut TraversalBuffer,
    w: u32,
    within: bool,
    count: &mut usize,
    k: usize,
) -> bool {
    if within {
        *count += 1;
        if *count == k {
            return true;
        }
        buf.queue.push_back(w);
    } else if g.expand_pivots && g.pivot[w as usize] {
        buf.queue.push_back(w);
    }
    false
}

/// Like [`greedy_count`], but collects the *ids* of the reached neighbors
/// into `out` (cleared first) instead of only counting them, and does not
/// stop at `k` — the walk floods everything reachable under the expansion
/// rule, up to `limit` collected ids. It takes no ring: `p`'s own edges
/// cost kernel calls here (its caller, the streaming graph, changes under
/// every slide and keeps no [`FilterPlan`]).
///
/// The result is a subset of the true `r`-neighborhood of `p` (Lemma 1
/// applies unchanged), which is what incremental consumers — the streaming
/// engine's graph backend discovers a new point's neighbors with this —
/// need: every returned id is a certified neighbor, while missed neighbors
/// only weaken filtering, never exactness.
pub fn greedy_collect<D: Dataset + ?Sized>(
    g: &ProximityGraph,
    data: &D,
    p: usize,
    r: f64,
    limit: usize,
    buf: &mut TraversalBuffer,
    out: &mut Vec<u32>,
) {
    out.clear();
    if limit == 0 {
        return;
    }
    buf.begin();
    buf.mark(p as u32);
    buf.queue.push_back(p as u32);
    while let Some(v) = buf.queue.pop_front() {
        buf.hops += 1;
        for i in 0..g.adj[v as usize].len() {
            let w = g.adj[v as usize][i];
            if !buf.mark(w) {
                continue;
            }
            buf.dist_evals += 1;
            let d = data.dist(p, w as usize);
            if d <= r {
                out.push(w);
                if out.len() == limit {
                    return;
                }
                buf.queue.push_back(w);
            } else if g.expand_pivots && g.pivot[w as usize] {
                buf.queue.push_back(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_graph::GraphKind;
    use dod_metrics::{VectorSet, L2};

    /// [`greedy_count`] with `p`'s ring from a freshly derived plan.
    fn count(
        g: &ProximityGraph,
        data: &VectorSet<L2>,
        p: usize,
        r: f64,
        k: usize,
        buf: &mut TraversalBuffer,
    ) -> usize {
        greedy_count(g, data, p, FilterPlan::new(g, data).ring(p), r, k, buf)
    }

    /// A path graph over integer points 0..n on a line.
    fn line_graph(n: usize) -> (VectorSet<L2>, ProximityGraph) {
        let data = VectorSet::from_rows(&(0..n).map(|i| vec![i as f32]).collect::<Vec<_>>(), L2);
        let mut g = ProximityGraph::new(n, GraphKind::KGraph);
        for i in 0..n as u32 - 1 {
            g.add_undirected(i, i + 1);
        }
        (data, g)
    }

    #[test]
    fn counts_reachable_neighbors() {
        let (data, g) = line_graph(20);
        let mut buf = TraversalBuffer::new(20);
        // From point 10 with r = 3: neighbors are 7..13 minus itself = 6.
        assert_eq!(count(&g, &data, 10, 3.0, 100, &mut buf), 6);
    }

    #[test]
    fn early_termination_at_k() {
        let (data, g) = line_graph(20);
        let mut buf = TraversalBuffer::new(20);
        assert_eq!(count(&g, &data, 10, 3.0, 4, &mut buf), 4);
    }

    #[test]
    fn k_zero_returns_zero() {
        let (data, g) = line_graph(5);
        let mut buf = TraversalBuffer::new(5);
        assert_eq!(count(&g, &data, 2, 10.0, 0, &mut buf), 0);
    }

    #[test]
    fn never_overcounts_lemma1() {
        let (data, g) = line_graph(30);
        let mut buf = TraversalBuffer::new(30);
        for p in 0..30 {
            for r in [0.5, 1.0, 2.5, 7.0] {
                let truth = (0..30).filter(|&j| j != p && data.dist(p, j) <= r).count();
                let got = count(&g, &data, p, r, usize::MAX, &mut buf);
                assert!(got <= truth, "p={p} r={r}: {got} > {truth}");
            }
        }
    }

    #[test]
    fn detour_blocks_reachability_without_pivot_rule() {
        // 0 at origin; 2 within r of 0 but only reachable through 1, which
        // is beyond r. Without pivot expansion the walk misses 2.
        let data = VectorSet::from_rows(&[vec![0.0], vec![10.0], vec![1.0]], L2);
        let mut g = ProximityGraph::new(3, GraphKind::KGraph);
        g.add_undirected(0, 1);
        g.add_undirected(1, 2);
        let mut buf = TraversalBuffer::new(3);
        assert_eq!(count(&g, &data, 0, 2.0, 10, &mut buf), 0);
    }

    #[test]
    fn pivot_rule_bridges_far_relays() {
        // Same topology, but vertex 1 is a pivot and the graph expands
        // pivots: vertex 2 becomes countable.
        let data = VectorSet::from_rows(&[vec![0.0], vec![10.0], vec![1.0]], L2);
        let mut g = ProximityGraph::new(3, GraphKind::Mrpg);
        g.add_undirected(0, 1);
        g.add_undirected(1, 2);
        g.pivot[1] = true;
        let mut buf = TraversalBuffer::new(3);
        assert_eq!(count(&g, &data, 0, 2.0, 10, &mut buf), 1);
    }

    #[test]
    fn isolated_vertex_counts_nothing() {
        let data = VectorSet::from_rows(&[vec![0.0], vec![0.1]], L2);
        let g = ProximityGraph::new(2, GraphKind::KGraph);
        let mut buf = TraversalBuffer::new(2);
        assert_eq!(count(&g, &data, 0, 1.0, 5, &mut buf), 0);
    }

    #[test]
    fn buffer_reuse_is_clean_across_queries() {
        let (data, g) = line_graph(15);
        let mut buf = TraversalBuffer::new(15);
        let a = count(&g, &data, 3, 2.0, 100, &mut buf);
        // Re-run the same query with the same buffer: same answer.
        let b = count(&g, &data, 3, 2.0, 100, &mut buf);
        assert_eq!(a, b);
        // And an unrelated query is unaffected by stale marks.
        assert_eq!(count(&g, &data, 12, 2.0, 100, &mut buf), 4);
    }

    #[test]
    fn collect_returns_exactly_the_reached_ids() {
        let (data, g) = line_graph(20);
        let mut buf = TraversalBuffer::new(20);
        let mut out = Vec::new();
        greedy_collect(&g, &data, 10, 3.0, usize::MAX, &mut buf, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![7, 8, 9, 11, 12, 13]);
    }

    #[test]
    fn collect_respects_the_limit() {
        let (data, g) = line_graph(20);
        let mut buf = TraversalBuffer::new(20);
        let mut out = Vec::new();
        greedy_collect(&g, &data, 10, 3.0, 2, &mut buf, &mut out);
        assert_eq!(out.len(), 2);
        let mut none = vec![99];
        greedy_collect(&g, &data, 10, 3.0, 0, &mut buf, &mut none);
        assert!(none.is_empty(), "limit 0 must clear and collect nothing");
    }

    #[test]
    fn collect_agrees_with_count() {
        let (data, g) = line_graph(30);
        let mut buf = TraversalBuffer::new(30);
        let mut out = Vec::new();
        for p in (0..30).step_by(5) {
            for r in [0.5, 2.0, 6.5] {
                greedy_collect(&g, &data, p, r, usize::MAX, &mut buf, &mut out);
                let counted = count(&g, &data, p, r, usize::MAX, &mut buf);
                assert_eq!(out.len(), counted, "p={p} r={r}");
                assert!(out.iter().all(|&w| data.dist(p, w as usize) <= r));
            }
        }
    }

    #[test]
    fn collect_honors_the_pivot_rule() {
        let data = VectorSet::from_rows(&[vec![0.0], vec![10.0], vec![1.0]], L2);
        let mut g = ProximityGraph::new(3, GraphKind::Mrpg);
        g.add_undirected(0, 1);
        g.add_undirected(1, 2);
        g.pivot[1] = true;
        let mut buf = TraversalBuffer::new(3);
        let mut out = Vec::new();
        greedy_collect(&g, &data, 0, 2.0, usize::MAX, &mut buf, &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn buffer_pool_reuses_matching_sizes_only() {
        let pool = BufferPool::new();
        let mut b = pool.take(10);
        b.begin();
        assert!(b.mark(3));
        pool.put(b);
        let b2 = pool.take(10);
        assert_eq!(b2.visited.len(), 10, "same-size buffer must be reused");
        pool.put(b2);
        let b3 = pool.take(5);
        assert_eq!(b3.visited.len(), 5, "mismatched size must not be reused");
    }

    #[test]
    fn plan_orders_walks_breadth_first_component_by_component() {
        // Components {0, 3, 5, 2} and {1, 4}, plus the isolated 6.
        let data = VectorSet::from_rows(&(0..7).map(|i| vec![i as f32]).collect::<Vec<_>>(), L2);
        let mut g = ProximityGraph::new(7, GraphKind::KGraph);
        for (u, v) in [(0, 5), (0, 3), (3, 2), (4, 1)] {
            g.add_undirected(u, v);
        }
        let plan = FilterPlan::new(&g, &data);
        assert_eq!(plan.order(), &[0, 5, 3, 2, 1, 4, 6]);
        assert_eq!(plan.ring(0), &[5.0, 3.0]);
        assert_eq!(plan.ring(3), &[3.0, 1.0]);
        assert!(plan.ring(6).is_empty());
    }

    #[test]
    #[should_panic(expected = "must match its adjacency")]
    fn a_ring_of_the_wrong_length_is_refused() {
        let (data, g) = line_graph(5);
        let mut buf = TraversalBuffer::new(5);
        greedy_count(&g, &data, 2, &[1.0], 3.0, 2, &mut buf);
    }

    #[test]
    fn cost_tally_counts_dists_and_hops_across_walks() {
        let (data, g) = line_graph(20);
        let mut buf = TraversalBuffer::new(20);
        assert_eq!(buf.take_cost(), (0, 0));
        count(&g, &data, 10, 3.0, 100, &mut buf);
        let (d1, h1) = buf.take_cost();
        // From 10 with r=3 the walk visits each ball vertex (7..13) plus
        // the two boundary rejections (6 and 14), and expands every
        // in-ball vertex. Of those 8 visits, 10's own neighbors (9 and 11)
        // are read from its ring, so 6 are kernel calls.
        assert_eq!(d1, 6);
        assert_eq!(h1, 7);
        // The tally accumulates across walks and drains to zero.
        count(&g, &data, 10, 3.0, 100, &mut buf);
        count(&g, &data, 10, 3.0, 100, &mut buf);
        assert_eq!(buf.take_cost(), (2 * d1, 2 * h1));
        assert_eq!(buf.take_cost(), (0, 0));
        // Early termination at k does less work than the full flood.
        count(&g, &data, 10, 3.0, 1, &mut buf);
        // Here the first ring read (9) already decides it.
        assert_eq!(buf.take_cost(), (0, 1));
        // collect walks the same flood but has no ring: it pays a kernel
        // call for each of 10's two neighbors too.
        let mut out = Vec::new();
        greedy_collect(&g, &data, 10, 3.0, usize::MAX, &mut buf, &mut out);
        assert_eq!(buf.take_cost(), (d1 + 2, h1));
        // Manual booking rides the same tally.
        buf.note_dist(5);
        buf.note_hop(2);
        assert_eq!(buf.take_cost(), (5, 2));
    }

    #[test]
    fn epoch_wraparound_resets_marks() {
        let (data, g) = line_graph(4);
        let mut buf = TraversalBuffer::new(4);
        buf.epoch = u32::MAX - 1;
        let a = count(&g, &data, 1, 1.0, 100, &mut buf);
        let b = count(&g, &data, 1, 1.0, 100, &mut buf); // wraps here
        let c = count(&g, &data, 1, 1.0, 100, &mut buf);
        assert_eq!(a, 2);
        assert_eq!(b, 2);
        assert_eq!(c, 2);
    }
}
