//! The paper's DOD algorithm (Algorithm 1): proximity-graph filtering plus
//! exact verification, with the §5.5 exact-`K'` shortcut.
//!
//! The algorithm itself lives in a crate-internal `detect_on_graph`
//! function served through the [`Engine`](crate::Engine) front door, which
//! adds buffer pooling, verification-engine caching and typed errors.

use crate::error::DodError;
use crate::greedy::{greedy_count, BufferPool, FilterPlan, TraversalBuffer};
use crate::parallel::par_map_strided;
use crate::params::{CostReport, DodParams, OutlierReport};
use crate::verify::{ExactCounter, VerifyStrategy};
use dod_graph::ProximityGraph;
use dod_metrics::{Dataset, DistanceCounter};
use std::sync::OnceLock;
use std::time::Instant;

/// Per-object outcome of the filtering phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum FilterOutcome {
    /// Greedy count reached `k` — provably an inlier (Lemma 1).
    #[default]
    Inlier,
    /// Count stayed below `k` — outlier candidate, must be verified.
    Candidate,
    /// Decided outlier via the exact-`K'` shortcut, no verification needed.
    ExactOutlier,
    /// Decided inlier via the exact-`K'` shortcut.
    ExactInlier,
}

/// Runs Algorithm 1 over a prebuilt graph.
///
/// `plan` is the graph's [`FilterPlan`]: walks start in its order and read
/// each object's own edge distances from its ring. `pool` supplies
/// reusable traversal buffers and `counter` caches the resolved
/// verification engine across queries — both are per-engine state so
/// repeated queries stop re-allocating; one-shot callers pass fresh ones.
#[allow(clippy::too_many_arguments)]
pub(crate) fn detect_on_graph<D: Dataset + ?Sized>(
    g: &ProximityGraph,
    plan: &FilterPlan,
    data: &D,
    r: f64,
    k: usize,
    threads: usize,
    verify: VerifyStrategy,
    seed: u64,
    pool: &BufferPool,
    counter: &OnceLock<ExactCounter>,
) -> Result<OutlierReport, DodError> {
    DodParams::new(r, k).validate()?;
    let n = data.len();
    if g.node_count() != n {
        return Err(DodError::SizeMismatch {
            index: g.node_count(),
            data: n,
        });
    }
    if n == 0 || k == 0 {
        // k = 0: no object can have "fewer than 0" neighbors.
        return Ok(OutlierReport::from_outliers(Vec::new(), 0.0));
    }

    // ---- Filtering phase (plan order; parallel strides over it) ------
    let t = Instant::now();
    let (outcomes, (filter_dist_evals, hops)): (Vec<FilterOutcome>, (u64, u64)) = if threads <= 1 {
        let mut buf = pool.take(n);
        let mut out = vec![FilterOutcome::Inlier; n];
        for &p in plan.order() {
            out[p as usize] = filter_one(g, plan, data, p as usize, r, k, &mut buf);
        }
        let cost = buf.take_cost();
        pool.put(buf);
        (out, cost)
    } else {
        par_filter_strided(g, plan, data, r, k, threads, pool)
    };
    let filter_secs = t.elapsed().as_secs_f64();

    // ---- Verification phase ------------------------------------------
    let t = Instant::now();
    let candidates: Vec<u32> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, &o)| o == FilterOutcome::Candidate)
        .map(|(p, _)| p as u32)
        .collect();
    let decided_in_filter = outcomes
        .iter()
        .filter(|&&o| o == FilterOutcome::ExactOutlier)
        .count();

    let mut outliers: Vec<u32> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, &o)| o == FilterOutcome::ExactOutlier)
        .map(|(p, _)| p as u32)
        .collect();
    let mut false_positives = 0;
    // Only stand up the exact-counting engine when filtering actually
    // left candidates: resolving `Auto` samples the dataset and the
    // VP-tree engine builds an index, both of which cost real distance
    // evaluations that would be pure waste on an empty workload. Once
    // built it is cached on the engine for every later query.
    let mut verify_dist_evals = 0;
    if !candidates.is_empty() {
        let counter = counter.get_or_init(|| ExactCounter::build(verify, data, seed));
        // Count only the verification itself: `ExactCounter::build` above
        // is cached engine state, excluded from per-query cost by design.
        let counted = DistanceCounter::new(data);
        let verdicts: Vec<bool> = par_map_strided(candidates.len(), threads, |ci| {
            counter.count(&counted, candidates[ci] as usize, r, k) < k
        });
        verify_dist_evals = counted.calls();
        for (ci, &is_outlier) in verdicts.iter().enumerate() {
            if is_outlier {
                outliers.push(candidates[ci]);
            } else {
                false_positives += 1;
            }
        }
    }
    outliers.sort_unstable();
    let verify_secs = t.elapsed().as_secs_f64();

    Ok(OutlierReport {
        outliers,
        candidates: candidates.len(),
        false_positives,
        decided_in_filter,
        filter_secs,
        verify_secs,
        cost: CostReport {
            filter_dist_evals,
            verify_dist_evals,
            hops,
        },
    })
}

/// Filter decision for one object (Algorithm 1 lines 3–5, with the §5.5
/// replacement for exact-`K'` nodes).
fn filter_one<D: Dataset + ?Sized>(
    g: &ProximityGraph,
    plan: &FilterPlan,
    data: &D,
    p: usize,
    r: f64,
    k: usize,
    buf: &mut TraversalBuffer,
) -> FilterOutcome {
    if g.use_exact_shortcut {
        if let Some(exact) = g.exact.get(&(p as u32)) {
            if k <= exact.dists.len() {
                // The prefix holds the exact K' nearest distances: the
                // number of them within r below k decides p outright.
                let within = exact.dists.partition_point(|&d| d <= r);
                return if within < k {
                    FilterOutcome::ExactOutlier
                } else {
                    FilterOutcome::ExactInlier
                };
            }
        }
    }
    if greedy_count(g, data, p, plan.ring(p), r, k, buf) < k {
        FilterOutcome::Candidate
    } else {
        FilterOutcome::Inlier
    }
}

/// Strided parallel filtering over the plan's walk order: worker `t` takes
/// order positions `t, t + threads, …`, owning one pooled traversal buffer
/// for the duration of the phase. Returns the outcomes by object id plus
/// the summed `(dist_evals, hops)` drained from every worker's buffer.
fn par_filter_strided<D: Dataset + ?Sized>(
    g: &ProximityGraph,
    plan: &FilterPlan,
    data: &D,
    r: f64,
    k: usize,
    threads: usize,
    pool: &BufferPool,
) -> (Vec<FilterOutcome>, (u64, u64)) {
    let order = plan.order();
    let n = order.len();
    let mut dist_evals = 0u64;
    let mut hops = 0u64;
    let buckets: Vec<Vec<FilterOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut buf = pool.take(n);
                scope.spawn(move || {
                    let bucket = order[t.min(n)..]
                        .iter()
                        .step_by(threads)
                        .map(|&p| filter_one(g, plan, data, p as usize, r, k, &mut buf))
                        .collect::<Vec<_>>();
                    (buf, bucket)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (mut buf, bucket) = h.join().expect("filter worker panicked");
                let (d, hp) = buf.take_cost();
                dist_evals += d;
                hops += hp;
                pool.put(buf);
                bucket
            })
            .collect()
    });
    let mut out = vec![FilterOutcome::Inlier; n];
    for (t, bucket) in buckets.into_iter().enumerate() {
        for (j, v) in bucket.into_iter().enumerate() {
            out[order[t + j * threads] as usize] = v;
        }
    }
    (out, (dist_evals, hops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::nested_loop;
    use dod_graph::MrpgParams;
    use dod_metrics::{VectorSet, L2};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Algorithm 1 over a prebuilt graph, through the `Engine` front door
    /// (the only entry point since the deprecated `GraphDod` shim was
    /// removed).
    fn detect(g: ProximityGraph, data: &VectorSet<L2>, params: &DodParams) -> OutlierReport {
        Engine::builder(data)
            .prebuilt_graph(g)
            .build()
            .expect("graph covers the dataset")
            .query(
                crate::Query::new(params.r, params.k)
                    .expect("valid query")
                    .with_threads(params.threads),
            )
            .expect("query")
    }

    fn clustered_with_outliers(n: usize, seed: u64) -> VectorSet<L2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                if i < n - n / 20 {
                    let c = (i % 4) as f32 * 10.0;
                    vec![c + rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)]
                } else {
                    // planted outliers, far from the clusters
                    vec![
                        rng.gen_range(100.0f32..200.0),
                        rng.gen_range(100.0f32..200.0),
                    ]
                }
            })
            .collect();
        VectorSet::from_rows(&rows, L2)
    }

    #[test]
    fn matches_nested_loop_ground_truth_on_mrpg() {
        let data = clustered_with_outliers(500, 1);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(8));
        let params = DodParams::new(2.0, 6);
        let report = detect(g, &data, &params);
        let truth = nested_loop::detect(&data, &params, 0);
        assert_eq!(report.outliers, truth.outliers);
    }

    #[test]
    fn matches_ground_truth_on_kgraph_and_nsw() {
        let data = clustered_with_outliers(400, 2);
        let params = DodParams::new(2.0, 5);
        let truth = nested_loop::detect(&data, &params, 0);
        let kg = dod_graph::mrpg::build_kgraph(&data, 8, 1, 0);
        assert_eq!(detect(kg, &data, &params).outliers, truth.outliers);
        let nsw = dod_graph::mrpg::build_nsw(&data, 8, 0);
        assert_eq!(detect(nsw, &data, &params).outliers, truth.outliers);
    }

    #[test]
    fn parallel_equals_sequential() {
        let data = clustered_with_outliers(400, 3);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(8));
        let engine = Engine::builder(&data)
            .prebuilt_graph(g)
            .build()
            .expect("build");
        let q = crate::Query::new(2.0, 6).expect("valid");
        let seq = engine.query(q).expect("query");
        let par = engine.query(q.with_threads(4)).expect("query");
        assert_eq!(seq.outliers, par.outliers);
        assert_eq!(seq.candidates, par.candidates);
        assert_eq!(seq.false_positives, par.false_positives);
        // Same walks, same verifications — the cost tally is
        // thread-count-invariant.
        assert_eq!(seq.cost, par.cost);
    }

    #[test]
    fn shortcut_decides_planted_outliers_in_filter() {
        let data = clustered_with_outliers(600, 4);
        let mut p = MrpgParams::new(8);
        p.exact_m = Some(64); // cover the 30 planted outliers
        let (g, _) = dod_graph::mrpg::build(&data, &p);
        let report = detect(g, &data, &DodParams::new(2.0, 6));
        assert!(
            report.decided_in_filter > 0,
            "no outlier decided by the K' shortcut"
        );
        // Shortcut decisions are final: they never appear as candidates.
        let truth = nested_loop::detect(&data, &DodParams::new(2.0, 6), 0);
        assert_eq!(report.outliers, truth.outliers);
    }

    #[test]
    fn k_zero_returns_no_outliers() {
        let data = clustered_with_outliers(100, 5);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(5));
        let report = detect(g, &data, &DodParams::new(1.0, 0));
        assert!(report.outliers.is_empty());
    }

    #[test]
    fn k_larger_than_n_makes_everything_an_outlier() {
        let data = clustered_with_outliers(50, 6);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(5));
        let report = detect(g, &data, &DodParams::new(1e9, 50));
        assert_eq!(report.outliers.len(), 50);
    }

    #[test]
    fn r_zero_with_duplicates() {
        // Exact duplicates are neighbors at distance 0.
        let mut rows = vec![vec![1.0f32, 1.0]; 30];
        rows.push(vec![50.0, 50.0]); // singleton
        let data = VectorSet::from_rows(&rows, L2);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(4));
        let report = detect(g, &data, &DodParams::new(0.0, 1));
        assert_eq!(report.outliers, vec![30]);
    }

    #[test]
    fn report_accounting_is_consistent() {
        let data = clustered_with_outliers(400, 8);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(8));
        let report = detect(g, &data, &DodParams::new(2.0, 6));
        // candidates = verified outliers + false positives.
        let verified_outliers = report.outliers.len() - report.decided_in_filter;
        assert_eq!(
            report.candidates,
            verified_outliers + report.false_positives
        );
    }

    #[test]
    fn cost_report_reflects_both_phases() {
        let data = clustered_with_outliers(400, 9);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(8));
        let report = detect(g, &data, &DodParams::new(2.0, 6));
        assert!(report.cost.filter_dist_evals > 0, "filter walked for free?");
        assert!(report.cost.hops > 0, "walks expand at least their seeds");
        if report.candidates > 0 {
            assert!(report.cost.verify_dist_evals > 0);
        }
        // The graph filter must beat brute force on a clustered set.
        let pp = report.cost.pruning_power(data.len());
        assert!(pp > 0.0 && pp <= 1.0, "pruning power {pp} out of range");
    }

    /// A plain Algorithm 2 walk, as the filter ran before it had a plan:
    /// every visit is a kernel call. Returns `(count, kernel calls, hops,
    /// calls made while expanding p itself)`.
    fn plain_walk(
        g: &ProximityGraph,
        data: &VectorSet<L2>,
        p: usize,
        r: f64,
        k: usize,
    ) -> (usize, u64, u64, u64) {
        let mut seen = vec![false; g.node_count()];
        seen[p] = true;
        let mut queue = std::collections::VecDeque::from([p as u32]);
        let (mut count, mut evals, mut hops, mut first_ring) = (0, 0, 0, 0);
        while let Some(v) = queue.pop_front() {
            hops += 1;
            for &w in &g.adj[v as usize] {
                if std::mem::replace(&mut seen[w as usize], true) {
                    continue;
                }
                evals += 1;
                first_ring += u64::from(v as usize == p);
                if data.dist(p, w as usize) <= r {
                    count += 1;
                    if count == k {
                        return (count, evals, hops, first_ring);
                    }
                    queue.push_back(w);
                } else if g.expand_pivots && g.pivot[w as usize] {
                    queue.push_back(w);
                }
            }
        }
        (count, evals, hops, first_ring)
    }

    /// Algorithm 1 with plain walks and linear verification, written out
    /// independently of the engine: the report it must reproduce, plus
    /// the number of first-ring reads the plan saves.
    fn plain_algorithm_1(
        g: &ProximityGraph,
        data: &VectorSet<L2>,
        r: f64,
        k: usize,
    ) -> (OutlierReport, u64) {
        let n = data.len();
        let mut report = OutlierReport::from_outliers(Vec::new(), 0.0);
        let mut ring_reads = 0;
        let mut candidates = Vec::new();
        for p in 0..n {
            if let Some(e) = g.exact.get(&(p as u32)).filter(|_| g.use_exact_shortcut) {
                if k <= e.dists.len() {
                    if e.dists.partition_point(|&d| d <= r) < k {
                        report.outliers.push(p as u32);
                        report.decided_in_filter += 1;
                    }
                    continue;
                }
            }
            let (count, evals, hops, first_ring) = plain_walk(g, data, p, r, k);
            report.cost.filter_dist_evals += evals;
            report.cost.hops += hops;
            ring_reads += first_ring;
            if count < k {
                candidates.push(p);
            }
        }
        report.candidates = candidates.len();
        for p in candidates {
            let mut count = 0;
            for j in (0..n).filter(|&j| j != p) {
                report.cost.verify_dist_evals += 1;
                if data.dist(p, j) <= r {
                    count += 1;
                    if count == k {
                        break;
                    }
                }
            }
            if count < k {
                report.outliers.push(p as u32);
            } else {
                report.false_positives += 1;
            }
        }
        report.outliers.sort_unstable();
        (report, ring_reads)
    }

    #[test]
    fn plan_walks_reproduce_plain_algorithm_2_minus_first_ring_reads() {
        use crate::engine::IndexSpec;
        let data = clustered_with_outliers(400, 12);
        let mut saved = 0;
        for spec in [
            IndexSpec::Mrpg(MrpgParams::new(6)),
            IndexSpec::Nsw { degree: 6 },
            IndexSpec::KGraph { degree: 6 },
        ] {
            let engine = Engine::builder(&data)
                .index(spec)
                .verify(VerifyStrategy::Linear)
                .seed(3)
                .build()
                .expect("build");
            let g = engine.graph().expect("graph engine");
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..6 {
                let (r, k) = (rng.gen_range(0.2..4.0), rng.gen_range(1..40));
                let (want, ring_reads) = plain_algorithm_1(g, &data, r, k);
                assert_eq!(
                    want.outliers,
                    nested_loop::detect(&data, &DodParams::new(r, k), 0).outliers
                );
                for threads in [1, 3] {
                    let q = crate::Query::new(r, k).unwrap().with_threads(threads);
                    let got = engine.query(q).expect("query");
                    let at = format!("{} r={r} k={k} threads={threads}", g.kind);
                    assert_eq!(got.outliers, want.outliers, "{at}");
                    assert_eq!(got.candidates, want.candidates, "{at}");
                    assert_eq!(got.false_positives, want.false_positives, "{at}");
                    assert_eq!(got.decided_in_filter, want.decided_in_filter, "{at}");
                    assert_eq!(got.cost.hops, want.cost.hops, "{at}");
                    assert_eq!(
                        got.cost.verify_dist_evals, want.cost.verify_dist_evals,
                        "{at}"
                    );
                    assert_eq!(
                        got.cost.filter_dist_evals,
                        want.cost.filter_dist_evals - ring_reads,
                        "{at}"
                    );
                }
                saved += ring_reads;
            }
        }
        assert!(saved > 0, "no walk read its ring");
    }

    #[test]
    fn k_zero_report_has_zero_cost() {
        let data = clustered_with_outliers(100, 10);
        let (g, _) = dod_graph::mrpg::build(&data, &MrpgParams::new(5));
        let report = detect(g, &data, &DodParams::new(1.0, 0));
        assert_eq!(report.cost, CostReport::default());
    }
}
