//! Property-based tests for the partitioning algorithms.
//!
//! The central property: **DHW matches the brute-force enumerated optimum**
//! (both cardinality and root weight) on random trees — i.e. it is minimal
//! *and* lean. Everything else is checked against the recomputing validator
//! and against DHW as a lower bound.

mod common;

use common::{flat_tree_and_limit, small_tree_and_limit};
use natix_core::{
    brute_force, check_input, evaluation_algorithms, Dhw, Fdw, Ghdw, Km, Partitioner,
};
use natix_tree::validate;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// DHW is optimal: same cardinality and root weight as exhaustive
    /// enumeration (minimal + lean).
    #[test]
    fn dhw_matches_brute_force((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let oracle = brute_force(&tree, k).unwrap();
        let p = Dhw.partition(&tree, k).unwrap();
        let s = validate(&tree, k, &p).expect("DHW result must be feasible");
        prop_assert_eq!(s.cardinality, oracle.cardinality, "tree={} K={}", tree, k);
        prop_assert_eq!(s.root_weight, oracle.root_weight, "tree={} K={}", tree, k);
    }

    /// FDW is optimal on flat trees.
    #[test]
    fn fdw_matches_brute_force_on_flat_trees((tree, k) in flat_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let oracle = brute_force(&tree, k).unwrap();
        let p = Fdw.partition(&tree, k).unwrap();
        let s = validate(&tree, k, &p).unwrap();
        prop_assert_eq!(s.cardinality, oracle.cardinality, "tree={} K={}", tree, k);
        prop_assert_eq!(s.root_weight, oracle.root_weight, "tree={} K={}", tree, k);
    }

    /// GHDW coincides with FDW (hence the optimum) on flat trees, where the
    /// greedy height strategy is vacuous.
    #[test]
    fn ghdw_is_optimal_on_flat_trees((tree, k) in flat_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let pf = Fdw.partition(&tree, k).unwrap();
        let pg = Ghdw.partition(&tree, k).unwrap();
        let sf = validate(&tree, k, &pf).unwrap();
        let sg = validate(&tree, k, &pg).unwrap();
        prop_assert_eq!(sf.cardinality, sg.cardinality, "tree={} K={}", tree, k);
        prop_assert_eq!(sf.root_weight, sg.root_weight, "tree={} K={}", tree, k);
    }

    /// Every algorithm always returns a feasible partitioning (validated by
    /// full recomputation) on feasible inputs.
    #[test]
    fn all_algorithms_feasible((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        for alg in evaluation_algorithms() {
            let p = alg.partition(&tree, k).unwrap();
            let res = validate(&tree, k, &p);
            prop_assert!(
                res.is_ok(),
                "{} infeasible on tree={} K={}: {:?}",
                alg.name(), tree, k, res.err()
            );
        }
    }

    /// No heuristic beats the optimum.
    #[test]
    fn heuristics_never_beat_dhw((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let pd = Dhw.partition(&tree, k).unwrap();
        let opt = validate(&tree, k, &pd).unwrap().cardinality;
        for alg in evaluation_algorithms() {
            let p = alg.partition(&tree, k).unwrap();
            let c = validate(&tree, k, &p).unwrap().cardinality;
            prop_assert!(
                c >= opt,
                "{} produced {} < optimal {} on tree={} K={}",
                alg.name(), c, opt, tree, k
            );
        }
    }

    /// KM only produces single-node intervals (parent-child partitioning).
    #[test]
    fn km_produces_singleton_intervals((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let p = Km.partition(&tree, k).unwrap();
        for iv in &p.intervals {
            prop_assert_eq!(iv.first, iv.last);
        }
    }

    /// Cardinality lower bound: ceil(total weight / K) partitions at least.
    #[test]
    fn dhw_respects_weight_lower_bound((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let p = Dhw.partition(&tree, k).unwrap();
        let s = validate(&tree, k, &p).unwrap();
        let lb = tree.total_weight().div_ceil(k) as usize;
        prop_assert!(s.cardinality >= lb);
    }

    /// Larger limits never increase the optimal cardinality.
    #[test]
    fn dhw_monotone_in_k((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let c1 = validate(&tree, k, &Dhw.partition(&tree, k).unwrap())
            .unwrap()
            .cardinality;
        let c2 = validate(&tree, k + 1, &Dhw.partition(&tree, k + 1).unwrap())
            .unwrap()
            .cardinality;
        prop_assert!(c2 <= c1, "K={} gave {}, K={} gave {}", k, c1, k + 1, c2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Streaming EKM with an unbounded buffer is *identical* to EKM: the
    /// close-time schedule is just another topological order of the same
    /// binary-representation decisions.
    #[test]
    fn streaming_ekm_unbounded_equals_ekm((tree, k) in small_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let mut a = natix_core::Ekm.partition(&tree, k).unwrap();
        let mut b = natix_core::StreamingEkm::unbounded().partition(&tree, k).unwrap();
        a.normalize();
        b.normalize();
        prop_assert_eq!(a.intervals, b.intervals, "tree={} K={}", tree, k);
    }

    /// Bounded budgets always stay feasible and never beat the optimum.
    #[test]
    fn streaming_ekm_bounded_feasible(
        (tree, k) in small_tree_and_limit(),
        budget in 1usize..6,
    ) {
        prop_assume!(check_input(&tree, k).is_ok());
        let alg = natix_core::StreamingEkm { sibling_budget: budget };
        let p = alg.partition(&tree, k).unwrap();
        let s = validate(&tree, k, &p).expect("feasible");
        let opt = validate(&tree, k, &Dhw.partition(&tree, k).unwrap())
            .unwrap()
            .cardinality;
        prop_assert!(s.cardinality >= opt);
    }
}
