//! Property tests for `StreamingEkm`'s sibling-buffer budget, over all
//! datagen generators: an unbounded budget (`usize::MAX`, or 0) is
//! *identical* to `Ekm`, and
//! any budget — down to a single pending child, and in particular
//! budgets smaller than the document's maximum fan-out — must still
//! produce a feasible partitioning, deterministically.

use natix_core::{Ekm, Partitioner, StreamingEkm};
use natix_datagen::GenConfig;
use natix_tree::{validate, Partitioning, Tree};
use proptest::prelude::*;

fn generated_tree(generator: usize, scale_milli: u64, seed: u64) -> natix_xml::Document {
    let cfg = GenConfig {
        scale: scale_milli as f64 / 1000.0,
        seed,
    };
    match generator {
        0 => natix_datagen::sigmod(cfg),
        1 => natix_datagen::mondial(cfg),
        2 => natix_datagen::partsupp(cfg),
        3 => natix_datagen::uwm(cfg),
        4 => natix_datagen::orders(cfg),
        _ => natix_datagen::xmark(cfg),
    }
}

fn normalized(p: &Partitioning) -> Vec<(natix_tree::NodeId, natix_tree::NodeId)> {
    let mut v: Vec<_> = p.intervals.iter().map(|iv| (iv.first, iv.last)).collect();
    v.sort_unstable();
    v
}

/// Budget 0 is the documented spelling of "unbounded" (`natix bulkload
/// --budget 0`): on every Table 1 generator it must be EKM, not the
/// tightest budget there is.
#[test]
fn budget_zero_is_unbounded_ekm_on_every_generator() {
    for (name, doc) in natix_datagen::evaluation_suite(0.05, 42) {
        let tree = doc.tree();
        for k in [64, 256] {
            let k = k.max(tree.max_node_weight());
            let ekm = Ekm.partition(tree, k).unwrap();
            let zero = StreamingEkm { sibling_budget: 0 }
                .partition(tree, k)
                .unwrap();
            assert_eq!(normalized(&ekm), normalized(&zero), "{name} K={k}");
        }
    }
}

fn max_fan_out(tree: &Tree) -> usize {
    tree.node_ids()
        .map(|v| tree.children(v).len())
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With an unbounded buffer the streaming schedule is just another
    /// topological order of EKM's decisions: the partitionings must be
    /// interval-for-interval identical on every generated document.
    #[test]
    fn unbounded_budget_is_identical_to_ekm(
        generator in 0usize..6,
        seed in 0u64..1_000_000,
        k in 8u64..400,
    ) {
        let doc = generated_tree(generator, 5, seed);
        let tree = doc.tree();
        let k = k.max(tree.max_node_weight());
        let ekm = Ekm.partition(tree, k).unwrap();
        let sekm = StreamingEkm::unbounded().partition(tree, k).unwrap();
        prop_assert_eq!(normalized(&ekm), normalized(&sekm));
    }

    /// A budget strictly below the maximum fan-out forces flushes on the
    /// widest sibling list; the result must still validate (every
    /// partition is a sibling interval within the weight limit).
    #[test]
    fn budget_below_max_fan_out_stays_feasible(
        generator in 0usize..6,
        seed in 0u64..1_000_000,
        k in 8u64..400,
        divisor in 2usize..8,
    ) {
        let doc = generated_tree(generator, 5, seed);
        let tree = doc.tree();
        let k = k.max(tree.max_node_weight());
        let fan_out = max_fan_out(tree);
        prop_assume!(fan_out >= 2);
        let budget = (fan_out / divisor).max(1);
        prop_assert!(budget < fan_out);
        let alg = StreamingEkm { sibling_budget: budget };
        let p = alg.partition(tree, k).unwrap();
        validate(tree, k, &p)
            .unwrap_or_else(|e| panic!("budget {budget} (fan-out {fan_out}): {e}"));
    }

    /// The degenerate budget of a single pending child — the smallest
    /// memory bound — must stay feasible and deterministic.
    #[test]
    fn budget_of_one_is_feasible_and_deterministic(
        generator in 0usize..6,
        seed in 0u64..1_000_000,
        k in 8u64..400,
    ) {
        let doc = generated_tree(generator, 5, seed);
        let tree = doc.tree();
        let k = k.max(tree.max_node_weight());
        let alg = StreamingEkm { sibling_budget: 1 };
        let a = alg.partition(tree, k).unwrap();
        validate(tree, k, &a).unwrap();
        let b = alg.partition(tree, k).unwrap();
        prop_assert_eq!(normalized(&a), normalized(&b));
    }
}
