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

/// Wide nodes: a root with 30–300 children, each a copy of one of 1–4
/// small shapes of total weight at most K. Every child therefore fits one
/// partition and has a nearly-optimal partitioning (ΔW > 0), equal-ΔW ties
/// are the rule, and K in 8..=64 makes windows long enough to force several
/// members at once.
pub fn wide_tree_and_limit() -> impl Strategy<Value = (Tree, Weight)> {
    let shape = (any::<u32>(), prop::collection::vec(any::<u32>(), 1..=3));
    (
        1..=4u64,
        prop::collection::vec(shape, 1..=4),
        prop::collection::vec(any::<u32>(), 30..=300),
        8..=64u64,
    )
        .prop_map(|(rw, shapes, picks, k)| {
            let shapes: Vec<(Weight, Vec<Weight>)> = shapes
                .iter()
                .map(|(r, leaves)| {
                    let root = 1 + u64::from(*r) % 3;
                    let cap = (k - root) / leaves.len() as u64;
                    (
                        root,
                        leaves.iter().map(|&l| 1 + u64::from(l) % cap).collect(),
                    )
                })
                .collect();
            let mut b = TreeBuilder::new("r", rw).unwrap();
            for (i, pick) in picks.iter().enumerate() {
                let (w, leaves) = &shapes[*pick as usize % shapes.len()];
                let c = b.add_child(NodeId::ROOT, &format!("c{i}"), *w).unwrap();
                for (l, &lw) in leaves.iter().enumerate() {
                    b.add_child(c, &format!("c{i}_{l}"), lw).unwrap();
                }
            }
            (b.build(), k)
        })
}

/// Tie-heavy sibling lists: a root with 20–200 children whose weights, and
/// the weights of their 0–2 leaves, come from 1–3 repeated values. Equal
/// `(card, rootweight)` runs get long in every row, and the children with
/// leaves have ΔW > 0, so the forced count changes inside card runs.
pub fn tie_tree_and_limit() -> impl Strategy<Value = (Tree, Weight)> {
    (
        1..=4u64,
        prop::collection::vec(1..=3u64, 1..=3),
        prop::collection::vec(any::<u32>(), 20..=200),
        8..=64u64,
    )
        .prop_map(|(rw, weights, picks, k)| {
            let weight = |pick: u32| weights[pick as usize % weights.len()];
            let mut b = TreeBuilder::new("r", rw).unwrap();
            for (i, &pick) in picks.iter().enumerate() {
                let c = b
                    .add_child(NodeId::ROOT, &format!("c{i}"), weight(pick))
                    .unwrap();
                for l in 0..(pick >> 8) % 3 {
                    b.add_child(c, &format!("c{i}_{l}"), weight(pick >> (10 + 2 * l)))
                        .unwrap();
                }
            }
            (b.build(), k)
        })
}

/// Random trees as [`medium_tree_and_limit`], every weight scaled by 2¹⁴
/// plus a small offset and K in 12·2¹⁴..=40·2¹⁴, so `K − w(v)` exceeds 2¹⁶
/// at every node and the `s` values spread far apart.
pub fn sparse_tree_and_limit() -> impl Strategy<Value = (Tree, Weight)> {
    const UNIT: Weight = 1 << 14;
    (
        (1..=6u64, 0..16u64),
        prop::collection::vec((any::<u32>(), 1..=6u64, 0..16u64), 0..30),
        12..=40u64,
    )
        .prop_map(|((rw, ro), nodes, k)| {
            let nodes: Vec<(u32, Weight)> = nodes
                .into_iter()
                .map(|(psel, w, off)| (psel, w * UNIT + off))
                .collect();
            (build_tree(rw * UNIT + ro, &nodes), k * UNIT)
        })
}
