//! [`ShardedStreamDetector`] — the synchronous sharded front door.

use crate::health::HealthReport;
use crate::router::{Ingestion, Router, ShardOp};
use crate::shard::{Shard, ShardAnswer};
use crate::spec::ShardSpec;
use dod_core::parallel::par_for_each_mut;
use dod_core::{DodError, OutlierReport, Query};
use dod_stream::{Backend, Space, StreamParams, StreamStats, WindowSpec};

/// What one sharded insertion did to the global window.
#[derive(Debug, Clone)]
pub struct ShardSlideReport {
    /// Global seq assigned to the inserted point.
    pub seq: u64,
    /// Global seqs expired by this slide, oldest first.
    pub expired: Vec<u64>,
    /// Global window size after the slide.
    pub window_len: usize,
    /// Shard that owns the point, `None` while it sits in the warm-up
    /// buffer (it will be routed when pivots are fixed).
    pub owner: Option<usize>,
    /// Ghost replicas created for the point.
    pub ghosts: usize,
}

/// A sliding-window exact detector partitioned across `S` per-shard
/// windows, answering identically to a single
/// [`StreamDetector`](dod_stream::StreamDetector) over the same stream.
///
/// See the [crate docs](crate) for the partitioning scheme and the
/// exactness argument; see
/// [`into_pipeline`](ShardedStreamDetector::into_pipeline) for the
/// asynchronous ingestion path.
pub struct ShardedStreamDetector<S: Space + Clone> {
    router: Router<S>,
    shards: Vec<Shard<S>>,
    backend: Backend,
    /// Per-shard op buckets, reused across slides so the hot path
    /// allocates nothing.
    buckets: Vec<Vec<ShardOp<S::Point>>>,
}

impl<S: Space + Clone + 'static> ShardedStreamDetector<S> {
    /// Opens a sharded detector in the batch vocabulary — the same
    /// arguments as [`StreamDetector::open`](dod_stream::StreamDetector::open)
    /// plus the [`ShardSpec`].
    pub fn open(
        space: S,
        query: Query,
        window: WindowSpec,
        backend: Backend,
        spec: ShardSpec,
    ) -> Result<Self, DodError> {
        let params = StreamParams::from_query(query, window);
        params.validate()?;
        spec.validate()?;
        let router = Router::new(space.clone(), params, spec);
        let shard_params = StreamParams {
            r: params.r,
            k: params.k,
            window: router.shard_window(),
        };
        let shards = (0..spec.shards)
            .map(|_| Shard::new(space.clone(), shard_params, backend.clone()))
            .collect();
        let buckets = (0..spec.shards).map(|_| Vec::new()).collect();
        Ok(ShardedStreamDetector {
            router,
            shards,
            backend,
            buckets,
        })
    }

    /// Reconfigures every shard's sampled recall auditor: audit
    /// `audit_sample` residents every `sample_rate` local slides. A zero
    /// `sample_rate` is a typed [`DodError::InvalidSpec`] (disable with
    /// `audit_sample = 0` instead); no knob is silently clamped.
    pub fn set_audit_params(
        &mut self,
        sample_rate: u64,
        audit_sample: usize,
    ) -> Result<(), DodError> {
        for shard in &mut self.shards {
            shard.set_audit_params(sample_rate, audit_sample)?;
        }
        Ok(())
    }

    /// Ingests a point at the next unit-spaced tick (`0, 1, 2, …`).
    pub fn insert(&mut self, point: S::Point) -> ShardSlideReport {
        let t = self.next_tick();
        self.insert_at(point, t)
    }

    /// The timestamp [`insert`](Self::insert) would assign next — what a
    /// durable session logs for auto-ticked insertions so replay can use
    /// the explicit-timestamp path.
    pub(crate) fn next_tick(&self) -> f64 {
        self.router.next_tick()
    }

    /// Ingests a point at an explicit timestamp.
    ///
    /// # Panics
    /// Panics if `time` is NaN or behind the latest observed timestamp.
    pub fn insert_at(&mut self, point: S::Point, time: f64) -> ShardSlideReport {
        let Ingestion {
            seq,
            expired,
            window_len,
            ops,
            routed,
        } = self.router.ingest(point, time);
        self.apply_ops(ops);
        ShardSlideReport {
            seq,
            expired,
            window_len,
            owner: routed.map(|(o, _)| o),
            ghosts: routed.map_or(0, |(_, g)| g),
        }
    }

    /// Advances the clock without inserting, expiring due residents of a
    /// time-based window. Returns the expired global seqs.
    ///
    /// # Panics
    /// Panics if `time` regresses.
    pub fn advance_to(&mut self, time: f64) -> Vec<u64> {
        // Shards expire lazily: their clocks catch up at the next op or
        // report, which is when expiry becomes observable.
        self.router.advance(time)
    }

    /// Applies routed ops, fanning out over scoped threads when the spec
    /// asks for it and more than one shard has work this slide.
    fn apply_ops(&mut self, ops: Vec<(usize, ShardOp<S::Point>)>) {
        if ops.is_empty() {
            return;
        }
        let threads = self.router.spec().slide_threads.max(1);
        let mut per_shard = std::mem::take(&mut self.buckets);
        let mut busy = 0;
        for (s, op) in ops {
            if per_shard[s].is_empty() {
                busy += 1;
            }
            per_shard[s].push(op);
        }
        if threads == 1 || busy <= 1 {
            for (shard, bucket) in self.shards.iter_mut().zip(per_shard.iter_mut()) {
                for op in bucket.drain(..) {
                    shard.apply(op);
                }
            }
        } else {
            #[allow(clippy::type_complexity)]
            let mut work: Vec<(&mut Shard<S>, &mut Vec<ShardOp<S::Point>>)> =
                self.shards.iter_mut().zip(per_shard.iter_mut()).collect();
            par_for_each_mut(&mut work, threads, |_, pair| {
                for op in pair.1.drain(..) {
                    pair.0.apply(op);
                }
            });
        }
        self.buckets = per_shard;
    }

    /// Brings every shard to the current slide boundary and collects the
    /// per-shard answers. Callers check the warm-up path first — before
    /// the partition exists, the shards are empty.
    fn collect(&mut self) -> Vec<ShardAnswer> {
        let Some(now) = self.router.shard_now() else {
            return Vec::new();
        };
        let threads = self.router.spec().slide_threads.max(1);
        let mut answers: Vec<Option<ShardAnswer>> = Vec::new();
        if threads == 1 {
            for shard in &mut self.shards {
                shard.advance(now);
                answers.push(Some(shard.collect()));
            }
        } else {
            let mut work: Vec<(&mut Shard<S>, Option<ShardAnswer>)> =
                self.shards.iter_mut().map(|s| (s, None)).collect();
            par_for_each_mut(&mut work, threads, |_, pair| {
                pair.0.advance(now);
                pair.1 = Some(pair.0.collect());
            });
            answers = work.into_iter().map(|(_, a)| a).collect();
        }
        answers.into_iter().map(|a| a.expect("collected")).collect()
    }

    /// Global seqs of the current window's outliers, ascending — exactly
    /// the single-detector answer. While the warm-up prefix is still
    /// buffering, the answer comes from a brute-force count over the
    /// buffer (early queries never freeze the partition early).
    pub fn outliers(&mut self) -> Vec<u64> {
        if let Some(seqs) = self.router.warmup_outliers() {
            return seqs;
        }
        let mut out: Vec<u64> = self
            .collect()
            .into_iter()
            .flat_map(|a| a.outliers)
            .collect();
        out.sort_unstable();
        out
    }

    /// The current window's outliers as the unified batch-vocabulary
    /// [`OutlierReport`], merged across shards. Ids are global **window
    /// positions** (`0..len()`, oldest first), identical to
    /// [`StreamDetector::report`](dod_stream::StreamDetector::report)
    /// over the same stream; the filter/verify accounting is the sum of
    /// the per-shard accountings (zeros for a pre-partition warm-up
    /// answer, which is one brute-force count).
    pub fn report(&mut self) -> OutlierReport {
        let front = self.router.front_seq();
        if let Some(seqs) = self.router.warmup_outliers() {
            return OutlierReport::from_outliers(
                seqs.into_iter().map(|s| (s - front) as u32).collect(),
                0.0,
            );
        }
        let answers = self.collect();
        merge_answers(answers, front)
    }

    /// Recomputes the outlier set from scratch: every shard recounts its
    /// owned residents against its full local window through the batch
    /// verification engine. An independent code path from the
    /// incremental `outliers` (pre-partition, both reduce to the same
    /// brute-force count over the warm-up buffer).
    pub fn audit(&mut self) -> Vec<u64> {
        if let Some(seqs) = self.router.warmup_outliers() {
            return seqs;
        }
        if let Some(now) = self.router.shard_now() {
            for shard in &mut self.shards {
                shard.advance(now);
            }
        }
        let mut out: Vec<u64> = self.shards.iter().flat_map(|s| s.audit_owned()).collect();
        out.sort_unstable();
        out
    }

    /// Number of points currently in the global window.
    pub fn len(&self) -> usize {
        self.router.len()
    }

    /// `true` when the global window holds no points.
    pub fn is_empty(&self) -> bool {
        self.router.len() == 0
    }

    /// Live global seqs, ascending.
    pub fn window_seqs(&self) -> Vec<u64> {
        self.router.window_seqs()
    }

    /// Latest observed timestamp (−∞ before the first insertion).
    pub fn now(&self) -> f64 {
        self.router.now()
    }

    /// The query parameters (global window vocabulary).
    pub fn params(&self) -> &StreamParams {
        self.router.params()
    }

    /// The metric space points flow through (serving layers read its
    /// shape — e.g. the pinned vector dimension — to validate wire input
    /// before it reaches a shard thread).
    pub fn space(&self) -> &S {
        self.router.space()
    }

    /// The shard configuration.
    pub fn spec(&self) -> &ShardSpec {
        self.router.spec()
    }

    /// Whether pivots have been fixed (the warm-up prefix has been
    /// consumed and replayed through the partition).
    pub fn is_partitioned(&self) -> bool {
        self.router.is_partitioned()
    }

    /// Per-shard `(owned, ghost)` resident counts — the load-balance
    /// picture. All zeros while the warm-up prefix is buffering.
    pub fn occupancy(&self) -> Vec<(usize, usize)> {
        self.shards.iter().map(|s| s.occupancy()).collect()
    }

    /// Total ghost replicas routed so far (the replication overhead that
    /// buys exactness).
    pub fn ghost_routes(&self) -> u64 {
        self.router.ghost_routes()
    }

    /// Ghost replicas routed per `(owner, target)` shard pair
    /// (`matrix[o][t]`; the diagonal is always zero). A persistently hot
    /// pair is the signal that the partition split a neighborhood — the
    /// input a future re-pivoting policy (and the `/metrics` endpoint of
    /// `dod_server`) watches.
    pub fn ghost_pair_counts(&self) -> Vec<Vec<u64>> {
        self.router.ghost_pair_counts()
    }

    /// The ghost matrix together with each shard's lifetime owned-point
    /// count, one self-consistent snapshot — `pairs[o][t] / owned[o]` is
    /// the fraction of shard `o`'s points that replicated into `t` (the
    /// per-owner rate `dod_server` exports as `dod_shard_ghost_rate`).
    pub fn ghost_route_stats(&self) -> crate::GhostRouteStats {
        self.router.ghost_route_stats()
    }

    /// The topology's health document: every shard's occupancy, lifetime
    /// counters, and index-structure snapshot, plus the router's ghost
    /// accounting — the input to the balance gauges
    /// ([`HealthReport::owned_skew`] etc.) that `dod_server` exports.
    pub fn health(&self) -> HealthReport {
        HealthReport {
            shards: self.shards.iter().map(|s| s.health()).collect(),
            routes: self.router.ghost_route_stats(),
        }
    }

    /// Summed lifetime counters across shards. `inserts` counts owned +
    /// ghost insertions, so it exceeds the number of stream points by the
    /// replication overhead.
    pub fn stats(&self) -> StreamStats {
        let mut total = StreamStats::default();
        for s in &self.shards {
            total.absorb(&s.stats());
        }
        total
    }

    /// Approximate heap bytes across all shard state.
    pub fn size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.size_bytes()).sum()
    }

    /// Oldest live global seq (the next seq to assign when the window is
    /// empty) — the base durable snapshots are keyed on.
    pub(crate) fn front_seq(&self) -> u64 {
        self.router.front_seq()
    }

    /// Restarts the global seq clock for durable-session recovery (see
    /// [`Router::set_seq_origin`]).
    pub(crate) fn set_seq_origin(&mut self, seq: u64) {
        self.router.set_seq_origin(seq);
    }

    pub(crate) fn into_parts(self) -> (Router<S>, Vec<Shard<S>>, Backend) {
        (self.router, self.shards, self.backend)
    }

    pub(crate) fn from_parts(router: Router<S>, shards: Vec<Shard<S>>, backend: Backend) -> Self {
        let buckets = (0..shards.len()).map(|_| Vec::new()).collect();
        ShardedStreamDetector {
            router,
            shards,
            backend,
            buckets,
        }
    }
}

/// Merges per-shard answers into one global [`OutlierReport`]: outlier
/// seqs become positions relative to the global window front, accounting
/// fields are summed.
pub(crate) fn merge_answers(answers: Vec<ShardAnswer>, front: u64) -> OutlierReport {
    let mut merged = OutlierReport::from_outliers(Vec::new(), 0.0);
    merged.verify_secs = 0.0;
    let mut outliers: Vec<u64> = Vec::new();
    for a in answers {
        outliers.extend(a.outliers);
        merged.candidates += a.report.candidates;
        merged.false_positives += a.report.false_positives;
        merged.decided_in_filter += a.report.decided_in_filter;
        merged.filter_secs += a.report.filter_secs;
        merged.verify_secs += a.report.verify_secs;
        merged.cost.absorb(&a.report.cost);
    }
    outliers.sort_unstable();
    merged.outliers = outliers.into_iter().map(|s| (s - front) as u32).collect();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_core::CostReport;
    use dod_metrics::L2;
    use dod_stream::{GraphParams, VectorSpace};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn open() -> ShardedStreamDetector<VectorSpace<L2>> {
        ShardedStreamDetector::open(
            VectorSpace::new(L2, 2),
            Query::new(1.5, 4).expect("valid query"),
            WindowSpec::Count(120),
            Backend::Graph(GraphParams::default()),
            ShardSpec::new(3).with_warmup(40),
        )
        .expect("sharded detector")
    }

    #[test]
    fn merged_report_cost_is_the_sum_of_the_shard_reports() {
        // Two detectors fed the same stream: one answers the merged
        // report, the other hands over its per-shard answers. The graph
        // backend books query cost (the exhaustive one books none).
        let (mut merged, mut split) = (open(), open());
        let mut rng = StdRng::seed_from_u64(5);
        let (mut checked, mut booked) = (0, 0);
        for i in 0..400 {
            let c = (i % 4) as f32 * 6.0;
            let p = vec![c + rng.gen_range(-2.0f32..2.0), rng.gen_range(-2.0f32..2.0)];
            merged.insert(p.clone());
            split.insert(p);
            if i % 50 != 49 || !merged.is_partitioned() {
                continue;
            }
            let report = merged.report();
            let answers = split.collect();
            assert_eq!(answers.len(), 3);
            let mut sum = CostReport::default();
            for a in &answers {
                sum.absorb(&a.report.cost);
            }
            assert_eq!(report.cost, sum, "slide {i}");
            let candidates: usize = answers.iter().map(|a| a.report.candidates).sum();
            assert_eq!(report.candidates, candidates, "slide {i}");
            checked += 1;
            booked += sum.total_dist_evals();
        }
        assert!(checked > 0, "the stream never partitioned");
        assert!(booked > 0, "the shard reports booked no cost");
    }
}
