//! Tree sibling partitioning algorithms.
//!
//! Implements every algorithm of Kanne & Moerkotte, *"A Linear Time
//! Algorithm for Optimal Tree Sibling Partitioning and Approximation
//! Algorithms in Natix"* (VLDB 2006):
//!
//! | Algorithm | Paper | Quality | Complexity |
//! |-----------|-------|---------|------------|
//! | [`Fdw`]   | Fig. 4, Sec. 3.2 | optimal (flat trees only) | `O(nK²)` |
//! | [`Ghdw`]  | Fig. 5, Sec. 3.3.1 | near-optimal heuristic | `O(nK)` |
//! | [`Dhw`]   | Fig. 7, Sec. 3.3.5 | **optimal** (minimal + lean) | `O(nK²)` |
//! | [`Km`]    | Sec. 4.3.3 | minimal among parent-child-only partitionings | `O(n log n)` |
//! | [`Ekm`]   | Sec. 4.3.4 | near-optimal heuristic (Natix default) | `O(n)` |
//! | [`Rs`]    | Sec. 4.3.2 | simple heuristic (old Natix bulkloader) | `O(n)` |
//! | [`Dfs`]   | Sec. 4.2.1 | top-down heuristic | `O(n)` |
//! | [`Bfs`]   | Sec. 4.2.2 | top-down heuristic | `O(n)` |
//! | [`brute_force`] | Sec. 3.2 (as a non-algorithm) | exact, exponential | test oracle only |
//!
//! Every algorithm returns a [`Partitioning`] that can be independently
//! checked with [`natix_tree::validate`]; the test suites do exactly that.
//!
//! # Quick start
//!
//! ```
//! use natix_core::{Dhw, Partitioner};
//! use natix_tree::{parse_spec, validate};
//!
//! // The paper's Fig. 6 tree; weight limit K = 5.
//! let tree = parse_spec("a:5(b:1 c:1(d:2 e:2) f:1)").unwrap();
//! let p = Dhw.partition(&tree, 5).unwrap();
//! let stats = validate(&tree, 5, &p).unwrap();
//! assert_eq!(stats.cardinality, 3); // optimal; GHDW needs 4
//! ```

pub mod baseline;
mod bfs;
mod brute;
pub mod dag;
mod dfs;
mod dp;
mod ekm;
mod fdw;
mod km;
mod lukes;
mod rs;
mod streaming;

pub use bfs::Bfs;
pub use brute::{brute_force, BruteForce, BruteForceResult};
pub use dag::{dhw_with_statistics, ghdw_with_statistics, Dhw, Ghdw, SubtreeDag};
// Imported by the frozen `benchmark/` package; a later benchmark PR renames and drops them.
pub use dag::dhw_with_statistics as dhw_cached_with_statistics;
pub use dag::Dhw as CachedDhw;
pub use dag::Ghdw as CachedGhdw;
pub use dfs::Dfs;
pub use dp::DpStats;
pub use ekm::{BinaryView, Ekm};
pub use fdw::Fdw;
pub use km::Km;
pub use lukes::{lukes, EdgeValues, Lukes, LukesResult, TableEdgeValues, UnitEdgeValues};
pub use rs::Rs;
pub use streaming::{PendingChild, SekmDriver, StreamingEkm};

use std::fmt;

use natix_tree::{NodeId, Partitioning, Tree, Weight};

/// Errors shared by all partitioning algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// `K` must be positive.
    ZeroLimit,
    /// A single node exceeds the weight limit: no feasible partitioning
    /// exists (every node must fit into some partition).
    NodeTooHeavy {
        /// The offending node.
        node: NodeId,
        /// Its weight.
        weight: Weight,
        /// The limit `K`.
        limit: Weight,
    },
    /// [`Fdw`] was given a tree that is not flat.
    NotFlat {
        /// A non-root inner node.
        node: NodeId,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::ZeroLimit => write!(f, "weight limit K must be positive"),
            PartitionError::NodeTooHeavy {
                node,
                weight,
                limit,
            } => write!(
                f,
                "node {node} has weight {weight} > K = {limit}; no feasible partitioning exists"
            ),
            PartitionError::NotFlat { node } => write!(
                f,
                "FDW requires a flat tree, but non-root node {node} has children"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A tree sibling partitioning algorithm.
///
/// Implementations must return partitionings that are *feasible* for the
/// given limit (checked by [`natix_tree::validate`]), or a
/// [`PartitionError`] if none exists.
pub trait Partitioner {
    /// Short identifier as used in the paper's tables (e.g. `"DHW"`).
    fn name(&self) -> &'static str;

    /// Compute a feasible tree sibling partitioning of `tree` with weight
    /// limit `k`.
    fn partition(&self, tree: &Tree, k: Weight) -> Result<Partitioning, PartitionError>;

    /// Whether the algorithm can emit partitions before having seen the
    /// whole document ("main-memory friendly", paper Sec. 4.1).
    fn is_main_memory_friendly(&self) -> bool {
        false
    }
}

/// Validate the preconditions shared by every algorithm: positive limit and
/// no node heavier than `K`.
pub fn check_input(tree: &Tree, k: Weight) -> Result<(), PartitionError> {
    if k == 0 {
        return Err(PartitionError::ZeroLimit);
    }
    for v in tree.node_ids() {
        let w = tree.weight(v);
        if w > k {
            return Err(PartitionError::NodeTooHeavy {
                node: v,
                weight: w,
                limit: k,
            });
        }
    }
    Ok(())
}

/// All seven algorithms evaluated in the paper's Sec. 6, in the column order
/// of Tables 1 and 2: DHW, GHDW, EKM, RS, DFS, KM, BFS.
pub fn evaluation_algorithms() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(Dhw),
        Box::new(Ghdw),
        Box::new(Ekm),
        Box::new(Rs),
        Box::new(Dfs),
        Box::new(Km),
        Box::new(Bfs),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use natix_tree::parse_spec;

    #[test]
    fn check_input_rejects_zero_limit() {
        let t = parse_spec("a:1").unwrap();
        assert_eq!(check_input(&t, 0), Err(PartitionError::ZeroLimit));
    }

    #[test]
    fn check_input_rejects_heavy_node() {
        let t = parse_spec("a:1(b:9)").unwrap();
        match check_input(&t, 5).unwrap_err() {
            PartitionError::NodeTooHeavy { weight, limit, .. } => {
                assert_eq!((weight, limit), (9, 5));
            }
            e => panic!("unexpected {e}"),
        }
        assert!(check_input(&t, 9).is_ok());
    }

    #[test]
    fn registry_order_matches_paper_tables() {
        let names: Vec<&str> = evaluation_algorithms().iter().map(|a| a.name()).collect();
        assert_eq!(names, ["DHW", "GHDW", "EKM", "RS", "DFS", "KM", "BFS"]);
    }

    #[test]
    fn every_algorithm_rejects_infeasible_input() {
        let t = parse_spec("a:1(b:9)").unwrap();
        for alg in evaluation_algorithms() {
            assert!(
                matches!(
                    alg.partition(&t, 5),
                    Err(PartitionError::NodeTooHeavy { .. })
                ),
                "{} accepted infeasible input",
                alg.name()
            );
        }
    }
}
