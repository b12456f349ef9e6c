//! Property-based exactness: on arbitrary random instances and queries,
//! every algorithm agrees with the brute-force definition, and the
//! filtering phase never produces false negatives (Lemma 1).

use dod::core::{dolphin, nested_loop, snif, DodParams, Engine, IndexSpec, Query};
use dod::core::{greedy_count, FilterPlan, TraversalBuffer};
use dod::graph::MrpgParams;
use dod::prelude::*;
use proptest::prelude::*;

/// Random 2-d points in a box, as flat pairs to keep shrinking cheap.
fn points_strategy(max_n: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(
        (-50.0f32..50.0, -50.0f32..50.0).prop_map(|(x, y)| vec![x, y]),
        2..max_n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_algorithm_matches_the_definition(
        rows in points_strategy(120),
        r in 0.0f64..60.0,
        k in 1usize..8,
        seed in 0u64..1000,
    ) {
        let data = VectorSet::from_rows(&rows, L2);
        let n = data.len();
        // Ground truth straight from Definition 2.
        let truth: Vec<u32> = (0..n)
            .filter(|&p| {
                (0..n).filter(|&j| j != p && data.dist(p, j) <= r).count() < k
            })
            .map(|p| p as u32)
            .collect();

        let params = DodParams::new(r, k);
        let q = Query::new(r, k).expect("valid query");
        prop_assert_eq!(&nested_loop::detect(&data, &params, seed).outliers, &truth);
        prop_assert_eq!(&snif::detect(&data, &params, seed).outliers, &truth);
        prop_assert_eq!(&dolphin::detect(&data, &params, seed).outliers, &truth);

        for spec in [
            IndexSpec::VpTree,
            IndexSpec::Mrpg(MrpgParams::new(5)),
            IndexSpec::KGraph { degree: 5 },
        ] {
            let engine = Engine::builder(&data).index(spec).seed(seed).build().expect("engine");
            prop_assert_eq!(&engine.query(q).expect("query").outliers, &truth);
        }
    }

    #[test]
    fn greedy_count_is_a_lower_bound_lemma1(
        rows in points_strategy(100),
        r in 0.0f64..40.0,
    ) {
        let data = VectorSet::from_rows(&rows, L2);
        let n = data.len();
        let (g, _) = dod::graph::mrpg::build(&data, &MrpgParams::new(4));
        let plan = FilterPlan::new(&g, &data);
        let mut buf = TraversalBuffer::new(n);
        for p in 0..n {
            let truth = (0..n).filter(|&j| j != p && data.dist(p, j) <= r).count();
            let counted = greedy_count(&g, &data, p, plan.ring(p), r, usize::MAX, &mut buf);
            prop_assert!(
                counted <= truth,
                "greedy overcounted at p={}: {} > {}", p, counted, truth
            );
        }
    }

    #[test]
    fn parallel_and_sequential_agree(
        rows in points_strategy(100),
        r in 0.0f64..40.0,
        k in 1usize..6,
    ) {
        let data = VectorSet::from_rows(&rows, L2);
        let engine = Engine::builder(&data)
            .index(IndexSpec::Mrpg(MrpgParams::new(4)))
            .build()
            .expect("engine");
        let q = Query::new(r, k).expect("valid query");
        let seq = engine.query(q).expect("query");
        let par = engine.query(q.with_threads(4)).expect("query");
        prop_assert_eq!(seq.outliers, par.outliers);
        prop_assert_eq!(seq.candidates, par.candidates);
    }

    #[test]
    fn outlier_sets_are_monotone_in_r_and_k(
        rows in points_strategy(80),
        r in 1.0f64..30.0,
        k in 2usize..6,
    ) {
        let data = VectorSet::from_rows(&rows, L2);
        let base = nested_loop::detect(&data, &DodParams::new(r, k), 0).outliers;
        // Growing r can only remove outliers.
        let wider = nested_loop::detect(&data, &DodParams::new(r * 1.5, k), 0).outliers;
        prop_assert!(wider.iter().all(|o| base.contains(o)));
        // Growing k can only add outliers.
        let stricter = nested_loop::detect(&data, &DodParams::new(r, k + 1), 0).outliers;
        prop_assert!(base.iter().all(|o| stricter.contains(o)));
    }

    #[test]
    fn mrpg_is_connected_on_random_data(rows in points_strategy(150)) {
        let data = VectorSet::from_rows(&rows, L2);
        let (g, _) = dod::graph::mrpg::build(&data, &MrpgParams::new(5));
        prop_assert_eq!(g.connected_components(), 1);
        g.assert_invariants();
    }

    #[test]
    fn strings_follow_the_same_contract(
        words in prop::collection::vec("[a-c]{1,8}", 3..40),
        r in 0.0f64..5.0,
        k in 1usize..4,
    ) {
        let data = StringSet::new(words.iter().map(String::as_str));
        let n = data.len();
        let truth: Vec<u32> = (0..n)
            .filter(|&p| {
                (0..n).filter(|&j| j != p && data.dist(p, j) <= r).count() < k
            })
            .map(|p| p as u32)
            .collect();
        let params = DodParams::new(r, k);
        prop_assert_eq!(&nested_loop::detect(&data, &params, 0).outliers, &truth);
        prop_assert_eq!(&snif::detect(&data, &params, 0).outliers, &truth);
        let engine = Engine::builder(&data)
            .index(IndexSpec::Mrpg(MrpgParams::new(4)))
            .build()
            .expect("engine");
        prop_assert_eq!(&engine.query(Query::new(r, k).expect("valid")).expect("query").outliers, &truth);
    }
}
