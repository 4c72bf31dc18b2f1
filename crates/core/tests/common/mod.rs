//! Random-tree strategies shared by the property and differential suites.
#![allow(dead_code)] // each suite uses its own subset

use natix_tree::{NodeId, Tree, TreeBuilder, Weight};
use proptest::prelude::*;

/// Build a random tree from `(parent_selector, weight)` pairs; node `i`'s
/// parent is `parent_selector % i`, guaranteeing a valid topology.
pub fn build_tree(root_weight: Weight, nodes: &[(u32, Weight)]) -> Tree {
    let mut b = TreeBuilder::new("n0", root_weight).unwrap();
    let mut ids = vec![NodeId::ROOT];
    for (i, &(psel, w)) in nodes.iter().enumerate() {
        let parent = ids[(psel as usize) % (i + 1)];
        let id = b
            .add_child(parent, &format!("n{}", i + 1), w)
            .expect("positive weight");
        ids.push(id);
    }
    b.build()
}

/// Random trees of up to 10 nodes with weights 1..=6, and a limit K that
/// keeps the instance feasible.
pub fn small_tree_and_limit() -> impl Strategy<Value = (Tree, Weight)> {
    (
        1..=6u64,
        prop::collection::vec((any::<u32>(), 1..=6u64), 0..9),
        6..=14u64,
    )
        .prop_map(|(rw, nodes, k)| (build_tree(rw, &nodes), k))
}

/// Larger random trees (up to ~40 nodes): too big for `brute_force`, big
/// enough for repeated subtree shapes.
pub fn medium_tree_and_limit() -> impl Strategy<Value = (Tree, Weight)> {
    (
        1..=6u64,
        prop::collection::vec((any::<u32>(), 1..=6u64), 0..40),
        6..=20u64,
    )
        .prop_map(|(rw, nodes, k)| (build_tree(rw, &nodes), k))
}

/// Random *flat* trees (all children are leaves).
pub fn flat_tree_and_limit() -> impl Strategy<Value = (Tree, Weight)> {
    (1..=6u64, prop::collection::vec(1..=6u64, 0..9), 6..=14u64).prop_map(
        |(rw, leaf_weights, k)| {
            let mut b = TreeBuilder::new("t", rw).unwrap();
            for (i, &w) in leaf_weights.iter().enumerate() {
                b.add_child(NodeId::ROOT, &format!("c{i}"), w).unwrap();
            }
            (b.build(), k)
        },
    )
}
