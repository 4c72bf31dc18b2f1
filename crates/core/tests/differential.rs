//! Differential tests: the DHW/GHDW engine against the independent
//! `natix_core::baseline` reference.
//!
//! The engine computes one plan per distinct weighted subtree shape from
//! per-column forcing profiles; the reference runs the paper-literal scan for
//! every node and shares no code with it. Every comparison asserts **exact
//! interval equality**, not merely equal cardinality — over every
//! `natix-datagen` generator (flat relational tables and nested
//! hierarchies) and over random trees too large for `brute_force`.

mod common;

use common::{
    flat_tree_and_limit, medium_tree_and_limit, sparse_tree_and_limit, tie_tree_and_limit,
    wide_tree_and_limit,
};
use natix_core::{
    baseline, check_input, dhw_with_statistics, ghdw_with_statistics, Dhw, Fdw, Ghdw, Partitioner,
};
use natix_tree::validate;
use proptest::prelude::*;

const SCALE: f64 = 0.004;
const SEED: u64 = 1337;

#[test]
fn engine_matches_baseline_on_every_generator() {
    for (name, doc) in natix_datagen::evaluation_suite(SCALE, SEED) {
        let tree = doc.tree();
        for k in [64u64, 256] {
            let dhw = Dhw.partition(tree, k).unwrap();
            let base = baseline::dhw_hashmap(tree, k).unwrap();
            assert_eq!(
                dhw.intervals, base.intervals,
                "DHW diverged on {name} K={k}"
            );
            validate(tree, k, &dhw).unwrap();

            let ghdw = Ghdw.partition(tree, k).unwrap();
            let base = baseline::ghdw_hashmap(tree, k).unwrap();
            assert_eq!(
                ghdw.intervals, base.intervals,
                "GHDW diverged on {name} K={k}"
            );
            validate(tree, k, &ghdw).unwrap();
        }
    }
}

#[test]
fn relational_data_dedups_and_prunes() {
    let doc = natix_datagen::partsupp(natix_datagen::GenConfig {
        scale: SCALE,
        seed: SEED,
    });
    let tree = doc.tree();
    let (_, dhw) = dhw_with_statistics(tree, 256).unwrap();
    let (_, ghdw) = ghdw_with_statistics(tree, 256).unwrap();
    for (alg, stats) in [("DHW", &dhw), ("GHDW", &ghdw)] {
        assert_eq!(stats.dag_nodes as usize, tree.len());
        assert!(
            stats.dag_dedup_ratio() >= 2.0,
            "{alg}: dedup ratio {:.2} — rows must share shapes",
            stats.dag_dedup_ratio()
        );
        // The default engine shares: most nodes never run the DP.
        assert!(
            stats.dag_hit_rate() > 0.9,
            "{alg}: hit rate {:.3}",
            stats.dag_hit_rate()
        );
        // The per-node DP runs at most once per distinct shape.
        assert!(
            stats.inner_nodes <= stats.dag_distinct,
            "{alg}: {} DP runs for {} distinct shapes",
            stats.inner_nodes,
            stats.dag_distinct
        );
    }
    assert!(
        dhw.pruned_candidates > 0,
        "dominance pruning eliminated no DHW candidates"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// DHW and GHDW agree interval-for-interval with the reference, and
    /// every node not the first of its shape shares that shape's plan.
    #[test]
    fn engine_matches_baseline_on_random_trees((tree, k) in medium_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let (dhw, stats) = dhw_with_statistics(&tree, k).unwrap();
        let base_d = baseline::dhw_hashmap(&tree, k).unwrap();
        prop_assert_eq!(&dhw.intervals, &base_d.intervals, "DHW tree={} K={}", tree, k);
        prop_assert_eq!(stats.dag_nodes as usize, tree.len());
        prop_assert!(stats.dag_distinct <= stats.dag_nodes);
        prop_assert_eq!(stats.dag_hits, stats.dag_nodes - stats.dag_distinct);
        let ghdw = Ghdw.partition(&tree, k).unwrap();
        let base_g = baseline::ghdw_hashmap(&tree, k).unwrap();
        prop_assert_eq!(&ghdw.intervals, &base_g.intervals, "GHDW tree={} K={}", tree, k);
    }

    /// On flat trees DHW emits the identical interval chain as the
    /// paper-literal Fig. 4 transcription.
    #[test]
    fn dhw_identical_to_fdw_on_flat_trees((tree, k) in flat_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let pf = Fdw.partition(&tree, k).unwrap();
        let pd = Dhw.partition(&tree, k).unwrap();
        prop_assert_eq!(&pd.intervals, &pf.intervals, "tree={} K={}", tree, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wide nodes over repeated shapes: long windows, several forced
    /// members per interval and tied ΔW, whose order decides which members
    /// are forced. DHW and GHDW still agree interval-for-interval with the
    /// reference.
    #[test]
    fn engine_matches_baseline_on_wide_trees((tree, k) in wide_tree_and_limit()) {
        let dhw = Dhw.partition(&tree, k).unwrap();
        let base_d = baseline::dhw_hashmap(&tree, k).unwrap();
        prop_assert_eq!(&dhw.intervals, &base_d.intervals, "DHW tree={} K={}", tree, k);
        let ghdw = Ghdw.partition(&tree, k).unwrap();
        let base_g = baseline::ghdw_hashmap(&tree, k).unwrap();
        prop_assert_eq!(&ghdw.intervals, &base_g.intervals, "GHDW tree={} K={}", tree, k);
    }

    /// Long sibling lists over 1–3 repeated weights: long runs of equal
    /// `(card, rootweight)`, where the scan must pick the tie the
    /// paper-literal scan meets first, and forced counts that change inside
    /// a card run.
    #[test]
    fn engine_matches_baseline_on_tie_heavy_trees((tree, k) in tie_tree_and_limit()) {
        let dhw = Dhw.partition(&tree, k).unwrap();
        let base_d = baseline::dhw_hashmap(&tree, k).unwrap();
        prop_assert_eq!(&dhw.intervals, &base_d.intervals, "DHW tree={} K={}", tree, k);
        let ghdw = Ghdw.partition(&tree, k).unwrap();
        let base_g = baseline::ghdw_hashmap(&tree, k).unwrap();
        prop_assert_eq!(&ghdw.intervals, &base_g.intervals, "GHDW tree={} K={}", tree, k);
    }

    /// Weights and K so large that no node's `s` range fits a dense row
    /// index: the rows live in the ordered map, and the fill still visits
    /// them in ascending `s`.
    #[test]
    fn engine_matches_baseline_beyond_the_dense_row_index((tree, k) in sparse_tree_and_limit()) {
        prop_assume!(check_input(&tree, k).is_ok());
        let dhw = Dhw.partition(&tree, k).unwrap();
        let base_d = baseline::dhw_hashmap(&tree, k).unwrap();
        prop_assert_eq!(&dhw.intervals, &base_d.intervals, "DHW tree={} K={}", tree, k);
        let ghdw = Ghdw.partition(&tree, k).unwrap();
        let base_g = baseline::ghdw_hashmap(&tree, k).unwrap();
        prop_assert_eq!(&ghdw.intervals, &base_g.intervals, "GHDW tree={} K={}", tree, k);
    }
}
