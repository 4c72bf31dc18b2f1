//! The whole-tree driver of **GHDW** (Fig. 5) and **DHW** (Fig. 7):
//! hash-consed subtree DAG around the profile-driven per-node DP of
//! [`crate::dp`].
//!
//! The per-node DP is a pure function of the node's *weighted subtree
//! shape*: its own weight, the ordered shapes of its children, and the run
//! parameters `(K, nearly_mode)`. Labels never enter the recurrence. Real
//! XML — especially relational dumps like the paper's
//! `partsupp.xml`/`orders.xml` — is extremely repetitive under exactly this
//! equivalence: "XML Compression via DAGs" (Bousquet-Mélou, Lohrey,
//! Maneth, Noeth) measures that typical documents collapse to minimal DAGs
//! a small fraction of their tree size. The driver therefore runs the DP
//! **once per distinct shape** and shares the resulting plan between every
//! occurrence.
//!
//! [`SubtreeDag`] does the hash-consing: weighted subtree shapes are
//! interned bottom-up into a minimal-DAG node index. Interning is *exact*
//! (structural equality on weight + ordered child shape ids; a 64-bit
//! hash over (weight, child hashes) only picks where an open-addressing
//! table of shape ids starts probing), so there are no collision risks.
//! The driver computes each distinct shape's `NodePlan` once per run, in
//! a fresh flat-arena `DpWorkspace`.
//!
//! Output is **byte-identical** to a per-node, unpruned run: plans are pure
//! per shape, a row scan stops only where no later candidate can improve,
//! and extraction walks the same chains. `tests/differential.rs` enforces this
//! against the independent `natix_core::baseline` implementation across the
//! `natix-datagen` corpus and random trees.

use natix_tree::{NodeId, Partitioning, Tree, Weight};

use crate::dp::{self, ChildStats, DpStats, DpWorkspace, NodePlan};
use crate::{check_input, PartitionError, Partitioner};

/// `splitmix64` finalizer: cheap, well-distributed 64-bit mixing.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Free slot of the shape-interning table.
const EMPTY: u32 = u32::MAX;

/// Where the probe for a shape whose hash is `hash` starts in `table` (a
/// power-of-two length).
#[inline]
fn probe_start(hash: u64, table: &[u32]) -> usize {
    hash as usize & (table.len() - 1)
}

/// Minimal-DAG index of a tree's weighted subtree shapes.
///
/// `id(v)` maps every tree node to a dense shape id; nodes with equal
/// label-free weighted subtrees share an id. Built in one reverse-id scan
/// (children before parents) in `O(n)` expected time.
pub struct SubtreeDag {
    /// Shape id per tree node.
    ids: Vec<u32>,
    /// Structural hash per shape id: picks the probe start.
    hashes: Vec<u64>,
    /// Node weight per shape id (for exact interning).
    weights: Vec<Weight>,
    /// Flattened ordered child shape ids of every shape.
    child_ids: Vec<u32>,
    /// Range of `child_ids` per shape id.
    child_range: Vec<(u32, u32)>,
}

impl SubtreeDag {
    /// Hash-cons every subtree of `tree` into the minimal DAG.
    pub fn build(tree: &Tree) -> SubtreeDag {
        let n = tree.len();
        let mut dag = SubtreeDag {
            ids: vec![0; n],
            hashes: Vec::new(),
            weights: Vec::new(),
            child_ids: Vec::new(),
            child_range: Vec::new(),
        };
        // Open-addressing table of shape ids, probed linearly from the
        // shape's hash and kept at most half full.
        let mut table: Vec<u32> = vec![EMPTY; 64];
        let mut kids: Vec<u32> = Vec::new();
        // Child ids exceed parent ids, so a reverse scan is bottom-up.
        for i in (0..n).rev() {
            let v = NodeId::from_index(i);
            let w = tree.weight(v);
            kids.clear();
            kids.extend(tree.children(v).iter().map(|c| dag.ids[c.index()]));

            let mut hash = mix64(0x6461_675f_6c6f_5f30 ^ w); // "dag_lo_0"
            for &cid in &kids {
                hash = mix64(hash ^ dag.hashes[cid as usize]);
            }
            hash = mix64(hash ^ kids.len() as u64);

            let mut slot = probe_start(hash, &table);
            let found = loop {
                let sid = table[slot];
                if sid == EMPTY {
                    break None;
                }
                let (cs, ce) = dag.child_range[sid as usize];
                if dag.hashes[sid as usize] == hash
                    && dag.weights[sid as usize] == w
                    && dag.child_ids[cs as usize..ce as usize] == kids[..]
                {
                    break Some(sid);
                }
                slot = (slot + 1) & (table.len() - 1);
            };
            dag.ids[i] = match found {
                Some(sid) => sid,
                None => {
                    let sid = dag.hashes.len() as u32;
                    dag.hashes.push(hash);
                    dag.weights.push(w);
                    let cs = dag.child_ids.len() as u32;
                    dag.child_ids.extend_from_slice(&kids);
                    dag.child_range.push((cs, dag.child_ids.len() as u32));
                    table[slot] = sid;
                    if 2 * dag.hashes.len() > table.len() {
                        table = vec![EMPTY; 2 * table.len()];
                        for (sid, &hash) in dag.hashes.iter().enumerate() {
                            let mut slot = probe_start(hash, &table);
                            while table[slot] != EMPTY {
                                slot = (slot + 1) & (table.len() - 1);
                            }
                            table[slot] = sid as u32;
                        }
                    }
                    sid
                }
            };
        }
        dag
    }

    /// Number of tree nodes indexed.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// A DAG over at least the root is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of distinct weighted subtree shapes (minimal-DAG nodes).
    pub fn distinct(&self) -> usize {
        self.hashes.len()
    }

    /// Shape id of a tree node.
    #[inline]
    pub fn id(&self, v: NodeId) -> u32 {
        self.ids[v.index()]
    }
}

/// Run the DP over the whole tree.
///
/// `nearly_mode = false` is GHDW; `true` is DHW. Each distinct weighted
/// subtree shape is processed once; every other occurrence shares its plan.
fn partition_dag(
    tree: &Tree,
    k: Weight,
    nearly_mode: bool,
    mut stats: Option<&mut DpStats>,
) -> Result<Partitioning, PartitionError> {
    check_input(tree, k)?;
    let dag = SubtreeDag::build(tree);
    let mut ws = DpWorkspace::default();
    let mut run_plans: Vec<Option<NodePlan>> = vec![None; dag.distinct()];
    let mut dag_hits: u64 = 0;

    for v in tree.postorder() {
        let sid = dag.id(v) as usize;
        if run_plans[sid].is_some() {
            dag_hits += 1;
            continue;
        }
        let children = tree.children(v);
        let mut plan = NodePlan::default();
        if children.is_empty() {
            plan.set_leaf(tree.weight(v));
        } else {
            ws.set_children(children.iter().map(|c| {
                let p = run_plans[dag.id(*c) as usize]
                    .as_ref()
                    .expect("children precede parents in postorder");
                ChildStats {
                    rw: p.rw_opt,
                    dw: p.dw,
                }
            }));
            dp::process_node(
                &mut ws,
                k,
                tree.weight(v),
                nearly_mode,
                &mut plan,
                stats.as_deref_mut(),
            );
        }
        run_plans[sid] = Some(plan);
    }

    let mut out = Partitioning::new();
    dp::extract_with(
        tree,
        |v| {
            run_plans[dag.id(v) as usize]
                .as_ref()
                .expect("every shape resolved")
        },
        &mut out,
    );

    if let Some(st) = stats {
        st.dag_nodes += dag.len() as u64;
        st.dag_distinct += dag.distinct() as u64;
        st.dag_hits += dag_hits;
        st.bytes_allocated = ws.bytes();
    }
    Ok(out)
}

/// Run DHW while collecting [`DpStats`]: table sizes (the Sec. 3.3.6
/// memoization experiment), cache hit rates, dedup ratio and scan
/// counters; see the `memoization` bench binary and
/// `natix partition --stats`.
pub fn dhw_with_statistics(
    tree: &Tree,
    k: Weight,
) -> Result<(Partitioning, DpStats), PartitionError> {
    with_statistics(tree, k, true)
}

/// Run GHDW while collecting [`DpStats`].
pub fn ghdw_with_statistics(
    tree: &Tree,
    k: Weight,
) -> Result<(Partitioning, DpStats), PartitionError> {
    with_statistics(tree, k, false)
}

fn with_statistics(
    tree: &Tree,
    k: Weight,
    nearly_mode: bool,
) -> Result<(Partitioning, DpStats), PartitionError> {
    let mut stats = DpStats::default();
    let p = partition_dag(tree, k, nearly_mode, Some(&mut stats))?;
    Ok((p, stats))
}

/// **GHDW** — *Greedy Height / Dynamic Width* (paper Fig. 5, Sec. 3.3.1).
///
/// Bottom-up flat-tree DP using the locally optimal partitioning of every
/// subtree. Near-optimal in practice (within 4% of DHW on the paper's
/// documents) but not always optimal (Fig. 6). `O(nK)`: at most
/// `(K − w(v) + 1) · (nc + 1)` table cells per node, and a cell compares at
/// most two candidates, since without forced members the cardinalities in
/// its window span two values (DESIGN.md §8.5).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ghdw;

impl Partitioner for Ghdw {
    fn name(&self) -> &'static str {
        "GHDW"
    }

    fn partition(&self, tree: &Tree, k: Weight) -> Result<Partitioning, PartitionError> {
        partition_dag(tree, k, false, None)
    }

    fn is_main_memory_friendly(&self) -> bool {
        // The paper classifies GHDW as memory-friendly: it fixes a definitive
        // partitioning for every subtree heavier than K as soon as it leaves
        // it (Sec. 4.3.1).
        true
    }
}

/// **DHW** — *Dynamic Height and Width* (paper Fig. 7, Sec. 3.3.5): the
/// linear-time algorithm for **optimal** (minimal and lean) tree sibling
/// partitioning. `O(nK²)`: `O(nK)` table cells, each comparing one candidate
/// per run of equal cardinality in its window — at most two plus the
/// members forced in the window's widest interval (DESIGN.md §8.5) — where
/// the paper's scan of every start position with a fresh forcing pass is
/// `O(nK³)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dhw;

impl Partitioner for Dhw {
    fn name(&self) -> &'static str {
        "DHW"
    }

    fn partition(&self, tree: &Tree, k: Weight) -> Result<Partitioning, PartitionError> {
        partition_dag(tree, k, true, None)
    }

    fn is_main_memory_friendly(&self) -> bool {
        // The optimal/nearly-optimal choice for every subtree is only fixed
        // at the next higher level, ultimately at the root (Sec. 4.1).
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use natix_tree::{parse_spec, validate};

    #[test]
    fn dag_collapses_repeated_shapes() {
        // Three identical row subtrees + one odd one out.
        let t = parse_spec("r:1(a:1(x:2 y:3) b:1(x:2 y:3) c:1(x:2 y:3) d:1(x:2 y:4))").unwrap();
        let dag = SubtreeDag::build(&t);
        assert_eq!(dag.len(), 13);
        // Shapes: root, row(2,3), row(2,4), leaf2, leaf3, leaf4.
        assert_eq!(dag.distinct(), 6);
        let rows = t.children(t.root());
        assert_eq!(dag.id(rows[0]), dag.id(rows[1]));
        assert_eq!(dag.id(rows[0]), dag.id(rows[2]));
        assert_ne!(dag.id(rows[0]), dag.id(rows[3]));
    }

    #[test]
    fn labels_do_not_affect_sharing() {
        let t = parse_spec("r:1(a:2 completely_different_label:2)").unwrap();
        let dag = SubtreeDag::build(&t);
        let cs = t.children(t.root());
        assert_eq!(dag.id(cs[0]), dag.id(cs[1]));
    }

    #[test]
    fn sibling_order_matters() {
        let t = parse_spec("r:1(a:1(x:2 y:3) b:1(x:3 y:2))").unwrap();
        let dag = SubtreeDag::build(&t);
        let cs = t.children(t.root());
        assert_ne!(dag.id(cs[0]), dag.id(cs[1]), "child order is significant");
    }

    #[test]
    fn statistics_report_sharing() {
        let t = parse_spec("r:1(a:1(x:2 y:3) b:1(x:2 y:3) c:1(x:2 y:3) d:1(x:2 y:3))").unwrap();
        let (p, stats) = dhw_with_statistics(&t, 8).unwrap();
        validate(&t, 8, &p).unwrap();
        // Shapes: root, row(2,3), leaf-2, leaf-3.
        assert_eq!(stats.dag_nodes, 13);
        assert_eq!(stats.dag_distinct, 4);
        assert_eq!(stats.dag_hits, 13 - 4);
        assert!(stats.dag_dedup_ratio() > 2.5);
        assert!(stats.dag_hit_rate() > 0.6);
        // Only distinct inner shapes run the DP: root + one row shape.
        assert_eq!(stats.inner_nodes, 2);
    }
}
