//! The per-node dynamic-programming kernel behind **GHDW** (Fig. 5) and
//! **DHW** (Fig. 7); the whole-tree driver lives in [`crate::dag`].
//!
//! Both algorithms work bottom-up and, for every inner node `v`, run a
//! flat-tree DP over `v`'s children (whose subtrees have already been
//! collapsed to their partitioning's *root weight*). The DP table `D`
//! is indexed by `(s, j)`: `s` is the weight of the root partition so far
//! (`v`'s own weight plus the children placed with it) and `j` is the number
//! of children processed. Each entry stores the best (minimum cardinality,
//! then minimum root weight — i.e. *lean*) partitioning of the first `j`
//! children, represented as the last added interval plus a chain pointer.
//!
//! GHDW greedily uses the locally optimal partitioning of every subtree;
//! DHW additionally considers the *nearly optimal* partitioning `Q(v)`
//! (one more interval, smaller root weight, Lemma 4) and chooses between
//! the two per subtree via the `ΔW` machinery of Lemma 5, which makes the
//! result globally optimal. How many members Lemma 5 forces for an interval
//! depends on the column `j` and the interval's width only, never on the
//! row `s`, so it is computed once per column into a *forcing profile*
//! ([`NodeDp::compute`]); a cell's scan then reads it.
//!
//! ## Memoization and memory layout
//!
//! The paper's Sec. 3.2.3/3.3.6 optimization: only `s` values that are
//! actually requested are materialized (on a 20 MB document the authors
//! measured fewer than 4 distinct `s` values per inner node, against a
//! possible 256). The cross-row dependency `(s + rw(c_j), j-1)` strictly
//! increases `s`, so the lazy-fill recursion depth is bounded by `K`.
//!
//! Materialized rows live in a single flat arena shared by all nodes of a
//! run (see [`DpWorkspace`]): each row is a fixed-capacity slab of `nc + 1`
//! [`Entry`] cells in one `Vec<Entry>`, located through a dense
//! `s − w(v) → row` index (with a linear-scan fallback when `K − w(v)` is
//! too large for a dense index). Entries are plain `Copy` structs whose
//! nearly-optimal member sets are ranges of a shared `u32` pool, so the
//! `(s, j)` recurrence and the backtracking [`NodeDp::chain`] move indices,
//! never heap clones. The workspace is reused across the nodes of one
//! run. The independent
//! `HashMap<Weight, Vec<Entry>>` implementation in [`crate::baseline`] is
//! the reference the differential tests compare against.

use natix_tree::{NodeId, Partitioning, SiblingInterval, Tree, Weight};

/// Sentinel for "no interval introduced by this entry".
const NO_IV: u32 = u32::MAX;
/// Cardinality of infeasible entries.
const INFEASIBLE: u64 = u64::MAX;
/// Largest `K − w(v)` span for which the dense row index is used; above
/// this the per-node row directory is scanned linearly (row counts stay
/// tiny — see `DpStats::avg_rows`).
const DENSE_LIMIT: u64 = 1 << 16;

/// One cell of the dynamic programming table `D(v, s, j)`.
///
/// Plain old data: the chain continues at table coordinates
/// `(next_s, begin)` and the nearly-optimal member set is a range of
/// [`DpWorkspace::nearly_pool`], so copying an entry is a register move.
#[derive(Clone, Copy)]
struct Entry {
    /// Child index (into `v`'s child list) of the interval begin, or
    /// [`NO_IV`] if this entry introduces no interval.
    begin: u32,
    /// Child index of the interval end.
    end: u32,
    /// Number of intervals in the chain, plus one per subtree forced to a
    /// nearly-optimal partitioning. [`INFEASIBLE`] marks the dummy entry.
    card: u64,
    /// Weight of the root partition of this (partial) solution.
    rootweight: Weight,
    /// Row key `s` of the remainder of the interval chain, found in
    /// column `begin`.
    next_s: Weight,
    /// Start of this entry's nearly-forced member range in the pool.
    nearly_start: u32,
    /// Length of the nearly-forced member range (`N` in Fig. 7; always
    /// empty under GHDW).
    nearly_len: u32,
}

/// The paper's "card = ∞" dummy, returned for out-of-bounds lookups and
/// used to pre-fill fresh row slabs.
const INFEASIBLE_ENTRY: Entry = Entry {
    begin: NO_IV,
    end: NO_IV,
    card: INFEASIBLE,
    rootweight: Weight::MAX,
    next_s: 0,
    nearly_start: 0,
    nearly_len: 0,
};

/// Collapsed summary of an already-processed child subtree.
#[derive(Clone, Copy)]
pub(crate) struct ChildStats {
    /// Root weight of the child's optimal partitioning, `D(c).rootweight`.
    pub(crate) rw: Weight,
    /// `ΔW(c)`: root-weight reduction available by switching the child to
    /// its nearly-optimal partitioning (0 under GHDW or if `Q(c)` does not
    /// exist).
    pub(crate) dw: Weight,
}

/// A local interval of the per-node plan: child-index range plus the set of
/// members forced to nearly-optimal subtree partitionings.
#[derive(Clone)]
struct PlanInterval {
    begin: u32,
    end: u32,
    nearly: Box<[u32]>,
}

/// Result of processing one node: enough to (a) collapse it for the parent
/// level and (b) extract the global partitioning top-down at the end.
///
/// A plan is a pure function of the node's *weighted subtree shape* (its
/// weight, the ordered shapes of its children) plus `(K, nearly_mode)`; the
/// structure-sharing engine in [`crate::dag`] exploits exactly this by
/// cloning one plan per distinct shape instead of recomputing it per node.
#[derive(Default, Clone)]
pub(crate) struct NodePlan {
    /// `D(v).rootweight`.
    pub(crate) rw_opt: Weight,
    /// `ΔW(v)`.
    pub(crate) dw: Weight,
    /// Interval chain of the optimal partitioning `D(v)`.
    opt: Vec<PlanInterval>,
    /// Interval chain of the nearly-optimal partitioning `Q(v)`, if it
    /// exists with `ΔW(v) > 0`.
    nearly: Option<Vec<PlanInterval>>,
}

impl NodePlan {
    /// Reset to a leaf plan (keeps the `opt` allocation for reuse).
    pub(crate) fn set_leaf(&mut self, w: Weight) {
        self.rw_opt = w;
        self.dw = 0;
        self.opt.clear();
        self.nearly = None;
    }
}

/// Directory entry for one materialized row (a fixed-capacity slab of
/// `nc + 1` entries in [`DpWorkspace::entries`]).
#[derive(Clone, Copy)]
struct RowMeta {
    /// Root-partition weight `s` this row is keyed by.
    s: Weight,
    /// Slab start offset in the entry arena.
    start: usize,
    /// Number of computed cells (`j` prefix).
    len: u32,
}

/// Reusable scratch space for the DP engine: the flat entry arena, the row
/// directory/index, the nearly-member pool and the per-node buffers.
///
/// One workspace serves arbitrarily many nodes and calls; buffers are
/// cleared (capacity kept) per node, so steady-state partitioning performs
/// no heap allocation in the hot path.
#[derive(Default)]
pub(crate) struct DpWorkspace {
    /// Flat arena of row slabs.
    entries: Vec<Entry>,
    /// Directory of materialized rows for the current node.
    rows: Vec<RowMeta>,
    /// Dense `s − w(v) → row id + 1` map (0 = absent); zeroed per node by
    /// walking the touched rows.
    index: Vec<u32>,
    /// Nearly-forced child indices referenced by entry ranges.
    nearly_pool: Vec<u32>,
    /// Forcing profiles of the current node, column after column: the
    /// `taken(j, m)` of [`DpWorkspace::build_profiles`].
    profiles: Vec<u32>,
    /// `profile_at[j]` ends column `j`'s profile in `profiles` (and starts
    /// column `j + 1`'s); `profile_at[0] = 0`.
    profile_at: Vec<usize>,
    /// The ΔW values of the list `C` of Fig. 7, sorted descending, while a
    /// profile is built.
    cand: Vec<Weight>,
    /// Collapsed child summaries of the current node.
    child_stats: Vec<ChildStats>,
}

impl DpWorkspace {
    /// Load the collapsed child summaries for the node about to be
    /// processed.
    pub(crate) fn set_children<I: IntoIterator<Item = ChildStats>>(&mut self, children: I) {
        self.child_stats.clear();
        self.child_stats.extend(children);
    }

    /// Bytes currently held by the workspace buffers (capacities, i.e. the
    /// peak footprint of the run since buffers never shrink).
    pub(crate) fn bytes(&self) -> u64 {
        (self.entries.capacity() * std::mem::size_of::<Entry>()
            + self.rows.capacity() * std::mem::size_of::<RowMeta>()
            + self.index.capacity() * std::mem::size_of::<u32>()
            + self.nearly_pool.capacity() * std::mem::size_of::<u32>()
            + self.profiles.capacity() * std::mem::size_of::<u32>()
            + self.profile_at.capacity() * std::mem::size_of::<usize>()
            + self.cand.capacity() * std::mem::size_of::<Weight>()
            + self.child_stats.capacity() * std::mem::size_of::<ChildStats>()) as u64
    }

    /// Fill `profiles`/`profile_at` with every column's forcing profile: for
    /// `m = 0, 1, …`, the number of members the greedy of Lemma 5 forces
    /// (largest ΔW first) to fit the interval `(c_{j-1-m}, c_{j-1})` into `k`.
    /// A profile ends where the scan of [`NodeDp::compute`] does: at `m = j`,
    /// at `m = k`, or once even forcing every member cannot fit the interval.
    fn build_profiles(&mut self, k: Weight) {
        let Self {
            profiles,
            profile_at,
            cand,
            child_stats,
            ..
        } = self;
        profiles.clear();
        profile_at.clear();
        profile_at.push(0);
        for j in 1..=child_stats.len() {
            cand.clear();
            let mut w: Weight = 0; // Σ optimal root weights of members
            let mut dw_sum: Weight = 0; // Σ ΔW of members
            for (m, cs) in child_stats[..j].iter().rev().enumerate() {
                if m as u64 >= k || w - dw_sum >= k {
                    break;
                }
                w += cs.rw;
                dw_sum += cs.dw;
                if w - dw_sum > k {
                    break;
                }
                if cs.dw > 0 {
                    let pos = cand.partition_point(|&d| d > cs.dw);
                    cand.insert(pos, cs.dw);
                }
                let (mut excess, mut taken) = (w, 0);
                while excess > k {
                    excess -= cand[taken];
                    taken += 1;
                }
                profiles.push(taken as u32);
            }
            profile_at.push(profiles.len());
        }
    }
}

/// Per-node view of the DP table: split borrows of the workspace buffers
/// plus the node parameters.
struct NodeDp<'a> {
    k: Weight,
    /// `w(v)`: the smallest reachable `s`, used as the index base.
    base: Weight,
    /// Row slab capacity, `nc + 1`.
    slab: usize,
    /// Whether the dense `s`-index is in use for this node.
    dense: bool,
    /// Feasible interval candidates that did not improve on the incumbent.
    pruned_candidates: u64,
    /// `m`-scans ended by the exact early exit of [`NodeDp::compute`].
    pruned_scans: u64,
    children: &'a [ChildStats],
    entries: &'a mut Vec<Entry>,
    rows: &'a mut Vec<RowMeta>,
    index: &'a mut Vec<u32>,
    nearly_pool: &'a mut Vec<u32>,
    profiles: &'a [u32],
    profile_at: &'a [usize],
}

impl NodeDp<'_> {
    /// Row id for `s`, if materialized.
    fn row_id(&self, s: Weight) -> Option<usize> {
        if self.dense {
            match self.index[(s - self.base) as usize] {
                0 => None,
                slot => Some(slot as usize - 1),
            }
        } else {
            self.rows.iter().position(|r| r.s == s)
        }
    }

    /// Materialize an empty row slab for `s`.
    fn new_row(&mut self, s: Weight) -> usize {
        let rid = self.rows.len();
        self.rows.push(RowMeta {
            s,
            start: self.entries.len(),
            len: 0,
        });
        self.entries
            .resize(self.entries.len() + self.slab, INFEASIBLE_ENTRY);
        if self.dense {
            self.index[(s - self.base) as usize] = (rid + 1) as u32;
        }
        rid
    }

    /// Table lookup; out-of-bounds `s` yields the infeasible dummy.
    fn get(&self, s: Weight, j: usize) -> Entry {
        if s > self.k {
            return INFEASIBLE_ENTRY;
        }
        let rid = self.row_id(s).expect("row materialized before lookup");
        self.entries[self.rows[rid].start + j]
    }

    /// Make sure entries `(s, 0..=upto_j)` exist. Recursion strictly
    /// increases `s`, bounding the depth by `K`.
    fn ensure(&mut self, s: Weight, upto_j: usize) {
        if s > self.k {
            return;
        }
        let rid = match self.row_id(s) {
            Some(rid) => rid,
            None => self.new_row(s),
        };
        let have = self.rows[rid].len as usize;
        if have > upto_j {
            return;
        }
        if have == 0 {
            // j = 0: only the (empty) root partition of weight s.
            let start = self.rows[rid].start;
            self.entries[start] = Entry {
                begin: NO_IV,
                end: NO_IV,
                card: 0,
                rootweight: s,
                ..INFEASIBLE_ENTRY
            };
            self.rows[rid].len = 1;
        }
        for j in have.max(1)..=upto_j {
            // Cross-row dependency: child j-1 joins the root partition.
            let s2 = s + self.children[j - 1].rw;
            self.ensure(s2, j - 1);
            let e = self.compute(s, j);
            let start = self.rows[rid].start;
            self.entries[start + j] = e;
            self.rows[rid].len = (j + 1) as u32;
        }
    }

    /// The Fig. 7 inner loops: choose between copying `D(s', j-1)` (child
    /// `j-1` joins the root partition) and adding one of the intervals
    /// `(c_{j-1-m}, c_{j-1})`, possibly forcing some members to
    /// nearly-optimal subtree partitionings.
    ///
    /// ## Forcing profiles
    ///
    /// How many members the greedy forcing of Lemma 5 takes for the interval
    /// of width `m + 1` ending at `c_{j-1}` does not depend on the row `s`,
    /// so [`DpWorkspace::build_profiles`] computes it once per column:
    /// `taken(j, m)` for every `m` the scan reaches. A start position then
    /// costs a profile read, a predecessor read and a compare.
    ///
    /// `taken` is non-decreasing in `m`: growing the interval by one member
    /// raises the excess weight by `rw` while the new ΔW candidate
    /// contributes at most `dw ≤ rw`, so a prefix that was too small stays
    /// too small. Once `taken + 1 > best.card`, not even a predecessor of
    /// cardinality 0 reaches `best.card`, and the scan stops exactly.
    ///
    /// The forced members are the `taken` largest ΔW, ties going to the
    /// later child; they are written to the pool once, for the final winner.
    /// The selected entry is the one the full scan of [`crate::baseline`]
    /// selects; the differential suite enforces this.
    fn compute(&mut self, s: Weight, j: usize) -> Entry {
        let s2 = s + self.children[j - 1].rw;
        let mut best = self.get(s2, j - 1);
        // Cells (s, 0..j) exist while computing (s, j); resolve the row once.
        let s_start = self.rows[self.row_id(s).expect("current row")].start;
        let pool_base = self.nearly_pool.len();
        let mut improved = false;
        let profile = &self.profiles[self.profile_at[j - 1]..self.profile_at[j]];
        for (m, &taken) in profile.iter().enumerate() {
            if u64::from(taken) + 1 > best.card {
                self.pruned_scans += 1;
                break;
            }
            let ci = j - 1 - m;
            let prev = self.entries[s_start + ci];
            if prev.card == INFEASIBLE {
                continue;
            }
            let crd = prev.card + 1 + u64::from(taken);
            if crd < best.card || (crd == best.card && prev.rootweight < best.rootweight) {
                improved = true;
                best = Entry {
                    begin: ci as u32,
                    end: (j - 1) as u32,
                    card: crd,
                    rootweight: prev.rootweight,
                    next_s: s,
                    nearly_start: pool_base as u32,
                    nearly_len: taken,
                };
            } else {
                self.pruned_candidates += 1;
            }
        }
        if improved && best.nearly_len > 0 {
            let children = self.children;
            let key = |&i: &u32| std::cmp::Reverse((children[i as usize].dw, i));
            self.nearly_pool
                .extend((best.begin..=best.end).filter(|&i| children[i as usize].dw > 0));
            self.nearly_pool[pool_base..].sort_unstable_by_key(key);
            self.nearly_pool
                .truncate(pool_base + best.nearly_len as usize);
        }
        best
    }

    /// Collect the interval chain starting at `(s, j)` into `out`.
    fn chain(&self, mut s: Weight, mut j: usize, out: &mut Vec<PlanInterval>) {
        out.clear();
        loop {
            let e = self.get(s, j);
            if e.begin == NO_IV {
                // Entries without an interval are pure copies whose whole
                // chain is interval-free: done.
                break;
            }
            let range = &self.nearly_pool
                [e.nearly_start as usize..(e.nearly_start + e.nearly_len) as usize];
            out.push(PlanInterval {
                begin: e.begin,
                end: e.end,
                nearly: range.into(),
            });
            s = e.next_s;
            j = e.begin as usize;
        }
    }
}

/// Run the per-node DP for an inner node of weight `w_v` whose collapsed
/// child summaries were loaded via [`DpWorkspace::set_children`], writing
/// the node's plan into `plan`.
pub(crate) fn process_node(
    ws: &mut DpWorkspace,
    k: Weight,
    w_v: Weight,
    nearly_mode: bool,
    plan: &mut NodePlan,
    stats: Option<&mut DpStats>,
) {
    ws.build_profiles(k);
    let DpWorkspace {
        entries,
        rows,
        index,
        nearly_pool,
        profiles,
        profile_at,
        child_stats,
        ..
    } = ws;
    let nc = child_stats.len();
    debug_assert!(nc > 0, "leaves are handled by NodePlan::set_leaf");
    entries.clear();
    rows.clear();
    nearly_pool.clear();
    // `w_v <= k` is guaranteed by check_input; all reachable `s` lie in
    // `w_v..=k`, so the dense index spans `k - w_v + 1` slots.
    let dense = k - w_v < DENSE_LIMIT;
    if dense {
        let span = (k - w_v + 1) as usize;
        if index.len() < span {
            index.resize(span, 0);
        }
    }
    let mut dp = NodeDp {
        k,
        base: w_v,
        slab: nc + 1,
        dense,
        pruned_candidates: 0,
        pruned_scans: 0,
        children: child_stats,
        entries,
        rows,
        index,
        nearly_pool,
        profiles,
        profile_at,
    };
    dp.ensure(w_v, nc);
    let final_entry = dp.get(w_v, nc);
    debug_assert_ne!(
        final_entry.card, INFEASIBLE,
        "all-singleton fallback exists"
    );
    plan.rw_opt = final_entry.rootweight;
    plan.dw = 0;
    plan.nearly = None;
    let mut opt = std::mem::take(&mut plan.opt);
    dp.chain(w_v, nc, &mut opt);
    plan.opt = opt;

    if nearly_mode {
        // Lemma 4: the nearly-optimal partitioning Q(v) is the optimal
        // partitioning of the tree with root weight inflated to
        // w(v) + K - D(v).rootweight + 1.
        let s_q = w_v + k - final_entry.rootweight + 1;
        if s_q <= k {
            dp.ensure(s_q, nc);
            let qe = dp.get(s_q, nc);
            if qe.card != INFEASIBLE {
                let rw_nearly = qe.rootweight - (s_q - w_v);
                let dw = final_entry.rootweight.saturating_sub(rw_nearly);
                if dw > 0 {
                    let mut nearly = Vec::new();
                    dp.chain(s_q, nc, &mut nearly);
                    plan.dw = dw;
                    plan.nearly = Some(nearly);
                }
            }
        }
    }

    if let Some(st) = stats {
        st.inner_nodes += 1;
        st.total_rows += dp.rows.len() as u64;
        st.max_rows = st.max_rows.max(dp.rows.len());
        st.total_entries += dp.rows.iter().map(|r| r.len as u64).sum::<u64>();
        st.arena_entries += (dp.rows.len() * dp.slab) as u64;
        st.pruned_candidates += dp.pruned_candidates;
        st.pruned_scans += dp.pruned_scans;
    }

    // Leave the dense index all-zero for the next node.
    if dense {
        for r in dp.rows.iter() {
            dp.index[(r.s - w_v) as usize] = 0;
        }
    }
}

/// Memoization-effectiveness counters for the DP tables (paper
/// Sec. 3.3.6: "on average, less than 4 of the potential 256 values for
/// `s` actually occur for inner nodes").
#[derive(Debug, Default, Clone, Copy)]
pub struct DpStats {
    /// Per-node DP runs: distinct inner shapes (nodes with children) not
    /// served by a cache.
    pub inner_nodes: u64,
    /// Total materialized rows (distinct `s` values) across those runs.
    pub total_rows: u64,
    /// Largest per-node row count observed.
    pub max_rows: usize,
    /// Total table cells `(s, j)` computed.
    pub total_entries: u64,
    /// Total arena slab cells reserved (rows × (nc + 1)); the gap to
    /// `total_entries` is the cost of fixed-capacity row slabs.
    pub arena_entries: u64,
    /// Peak bytes held by the DP workspace buffers over the run.
    pub bytes_allocated: u64,
    /// Tree nodes covered by the run.
    pub dag_nodes: u64,
    /// Distinct weighted subtree shapes (minimal-DAG nodes / distinct
    /// fingerprints) among `dag_nodes`.
    pub dag_distinct: u64,
    /// Nodes whose plan was shared from an earlier node of the same shape
    /// instead of being recomputed (`dag_nodes − dag_distinct`).
    pub dag_hits: u64,
    /// Feasible interval candidates that did not improve on the incumbent
    /// of their cell.
    pub pruned_candidates: u64,
    /// Candidate scans ended early: the column's forced-member count alone
    /// ruled out every remaining start position.
    pub pruned_scans: u64,
}

impl DpStats {
    /// Average number of distinct `s` values per DP run.
    pub fn avg_rows(&self) -> f64 {
        if self.inner_nodes == 0 {
            0.0
        } else {
            self.total_rows as f64 / self.inner_nodes as f64
        }
    }

    /// Structure-sharing ratio: nodes per distinct weighted subtree shape
    /// (1.0 = no sharing; `partsupp`-like relational data reaches 100×+).
    pub fn dag_dedup_ratio(&self) -> f64 {
        if self.dag_distinct == 0 {
            1.0
        } else {
            self.dag_nodes as f64 / self.dag_distinct as f64
        }
    }

    /// Fraction of nodes served from the shape cache instead of running
    /// the per-node DP.
    pub fn dag_hit_rate(&self) -> f64 {
        if self.dag_nodes == 0 {
            0.0
        } else {
            self.dag_hits as f64 / self.dag_nodes as f64
        }
    }
}

/// Assemble the global partitioning from the per-node plans, top-down,
/// switching a subtree to its nearly-optimal plan exactly where an interval
/// entry forced it (`N` sets). `plan_of` maps a node to the one plan shared
/// by every node of its shape.
pub(crate) fn extract_with<'a>(
    tree: &Tree,
    plan_of: impl Fn(NodeId) -> &'a NodePlan,
    out: &mut Partitioning,
) {
    out.intervals.clear();
    out.push(SiblingInterval::singleton(tree.root()));
    // (node, use_nearly_plan)
    let mut stack = vec![(tree.root(), false)];
    let mut covered: Vec<bool> = Vec::new();
    while let Some((v, use_nearly)) = stack.pop() {
        let plan = plan_of(v);
        let ivs: &[PlanInterval] = if use_nearly {
            plan.nearly
                .as_deref()
                .expect("nearly plan forced but absent")
        } else {
            &plan.opt
        };
        let children = tree.children(v);
        covered.clear();
        covered.resize(children.len(), false);
        for iv in ivs {
            out.push(SiblingInterval::new(
                children[iv.begin as usize],
                children[iv.end as usize],
            ));
            for ci in iv.begin..=iv.end {
                covered[ci as usize] = true;
                let child_nearly = iv.nearly.contains(&ci);
                stack.push((children[ci as usize], child_nearly));
            }
        }
        for (ci, &c) in children.iter().enumerate() {
            if !covered[ci] {
                stack.push((c, false));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dhw, Ghdw, Partitioner};
    use natix_tree::{parse_spec, validate};

    fn run(alg: &dyn Partitioner, spec: &str, k: Weight) -> (usize, Weight) {
        let t = parse_spec(spec).unwrap();
        let p = alg.partition(&t, k).unwrap();
        let s = validate(&t, k, &p).expect("feasible");
        (s.cardinality, s.root_weight)
    }

    #[test]
    fn fig6_ghdw_is_suboptimal() {
        // Paper Fig. 6, K = 5: GHDW produces the four intervals
        // {(a,a), (b,b), (c,c), (f,f)}.
        let (card, _) = run(&Ghdw, "a:5(b:1 c:1(d:2 e:2) f:1)", 5);
        assert_eq!(card, 4);
    }

    #[test]
    fn fig6_dhw_is_optimal() {
        // Paper Fig. 6, K = 5: the optimal result is {(a,a), (b,f), (d,e)}.
        let t = parse_spec("a:5(b:1 c:1(d:2 e:2) f:1)").unwrap();
        let p = Dhw.partition(&t, 5).unwrap();
        let s = validate(&t, 5, &p).unwrap();
        assert_eq!(s.cardinality, 3);
        // All of b..f are cut away, only the root remains.
        assert_eq!(s.root_weight, 5);
        let mut q = p.clone();
        q.normalize();
        assert_eq!(q.display(&t).to_string(), "{(a,a) (b,f) (d,e)}");
    }

    #[test]
    fn single_node() {
        for alg in [&Ghdw as &dyn Partitioner, &Dhw] {
            let (card, rw) = run(alg, "a:7", 7);
            assert_eq!((card, rw), (1, 7));
        }
    }

    #[test]
    fn flat_tree_everything_fits() {
        for alg in [&Ghdw as &dyn Partitioner, &Dhw] {
            let (card, rw) = run(alg, "a:1(b:1 c:1 d:1)", 10);
            assert_eq!((card, rw), (1, 4), "{}", alg.name());
        }
    }

    #[test]
    fn flat_tree_needs_intervals() {
        // Root 3 + five leaves of 2; K = 5. Cardinality 3 forces one leaf to
        // stay with the root (3 + 2 = 5) and packs the other four into two
        // intervals of weight 4; leaving the root alone would need the five
        // leaves (total 10) in two intervals, impossible with 2-weight
        // leaves. So the optimum is (card 3, root weight 5).
        for alg in [&Ghdw as &dyn Partitioner, &Dhw] {
            let (card, rw) = run(alg, "a:3(b:2 c:2 d:2 e:2 f:2)", 5);
            assert_eq!(card, 3, "{}", alg.name());
            assert_eq!(rw, 5, "{}", alg.name());
        }
    }

    #[test]
    fn lean_tie_breaking_prefers_small_root() {
        // a:1(b:4 c:4 d:1), K = 5. The only cardinality-2 solution is the
        // interval (c,d) (weight 5) with b kept by the root (1 + 4 = 5).
        let t = parse_spec("a:1(b:4 c:4 d:1)").unwrap();
        let p = Dhw.partition(&t, 5).unwrap();
        let s = validate(&t, 5, &p).unwrap();
        assert_eq!(s.cardinality, 2);
        assert_eq!(s.root_weight, 5);

        // With K = 9 the interval (b,d) holds all children (weight 9) and
        // the lean optimum leaves the root alone: root weight 1.
        let p = Dhw.partition(&t, 9).unwrap();
        let s = validate(&t, 9, &p).unwrap();
        assert_eq!(s.cardinality, 2);
        assert_eq!(s.root_weight, 1);
    }

    #[test]
    fn deep_chain() {
        // Chain of 10 nodes weight 2 each, K = 5: partitions of at most two
        // chain nodes each.
        let mut spec = String::new();
        for i in 0..10 {
            spec.push_str(&format!("x{i}:2("));
        }
        spec.push_str("leaf:2");
        spec.push_str(&")".repeat(10));
        for alg in [&Ghdw as &dyn Partitioner, &Dhw] {
            let t = parse_spec(&spec).unwrap();
            let p = alg.partition(&t, 5).unwrap();
            let s = validate(&t, 5, &p).unwrap();
            // 11 nodes of weight 2, pairs of 4 <= 5: ceil(11/2) = 6.
            assert_eq!(s.cardinality, 6, "{}", alg.name());
        }
    }

    #[test]
    fn exact_fit_boundary() {
        // Everything exactly fills one partition of weight K.
        for alg in [&Ghdw as &dyn Partitioner, &Dhw] {
            let (card, rw) = run(alg, "a:2(b:2 c:2 d:2)", 8);
            assert_eq!((card, rw), (1, 8), "{}", alg.name());
        }
    }

    #[test]
    fn rejects_heavy_node() {
        let t = parse_spec("a:1(b:9)").unwrap();
        assert!(Dhw.partition(&t, 5).is_err());
        assert!(Ghdw.partition(&t, 5).is_err());
    }

    #[test]
    fn wide_flat_tree_smoke() {
        // 1000 children of weight 1..5, K = 16; just validate feasibility
        // and that DHW <= GHDW.
        let mut spec = String::from("root:1(");
        for i in 0..1000 {
            spec.push_str(&format!("c{}:{} ", i, (i % 5) + 1));
        }
        spec.push(')');
        let t = parse_spec(&spec).unwrap();
        let pg = Ghdw.partition(&t, 16).unwrap();
        let pd = Dhw.partition(&t, 16).unwrap();
        let sg = validate(&t, 16, &pg).unwrap();
        let sd = validate(&t, 16, &pd).unwrap();
        assert!(sd.cardinality <= sg.cardinality);
    }

    #[test]
    fn sparse_row_index_used_for_huge_limits() {
        // K - w(v) beyond DENSE_LIMIT exercises the linear-scan row lookup.
        let t = parse_spec("a:1(b:4 c:4 d:1)").unwrap();
        let k = DENSE_LIMIT + 100;
        let p = Dhw.partition(&t, k).unwrap();
        let s = validate(&t, k, &p).unwrap();
        assert_eq!(s.cardinality, 1);
    }
}

#[cfg(test)]
mod memo_tests {
    use crate::{dhw_with_statistics, Dhw, Partitioner};
    use natix_tree::{parse_spec, validate};

    #[test]
    fn statistics_match_plain_dhw() {
        let t = parse_spec("a:5(b:1 c:1(d:2 e:2) f:1)").unwrap();
        let (p, stats) = dhw_with_statistics(&t, 5).unwrap();
        let plain = Dhw.partition(&t, 5).unwrap();
        let s1 = validate(&t, 5, &p).unwrap();
        let s2 = validate(&t, 5, &plain).unwrap();
        assert_eq!(s1.cardinality, s2.cardinality);
        assert_eq!(s1.root_weight, s2.root_weight);
        // Two inner nodes (a and c).
        assert_eq!(stats.inner_nodes, 2);
        assert!(stats.total_rows >= 2);
        assert!(stats.total_entries >= stats.total_rows);
        assert!(stats.max_rows >= 1);
        // Arena accounting: slabs at least hold every computed cell, and
        // the workspace footprint covers the reserved slab cells.
        assert!(stats.arena_entries >= stats.total_entries);
        assert!(stats.bytes_allocated > 0);
    }

    #[test]
    fn memoization_keeps_row_counts_small() {
        // The Sec. 3.3.6 claim, on a synthetic nested tree at K = 64: far
        // fewer than K distinct s values materialize per inner node.
        let mut spec = String::from("root:1(");
        for i in 0..50 {
            spec.push_str(&format!("g{i}:2("));
            for j in 0..8 {
                spec.push_str(&format!("x{i}_{j}:3 "));
            }
            spec.push_str(") ");
        }
        spec.push(')');
        let t = parse_spec(&spec).unwrap();
        let (_, stats) = dhw_with_statistics(&t, 64).unwrap();
        // This synthetic shape is adversarial (a wide root over uniform
        // groups); real documents land much lower (see the `memoization`
        // bench binary). Even here the table stays well under K rows.
        assert!(
            stats.avg_rows() < 24.0,
            "avg rows {} should be well below K = 64",
            stats.avg_rows()
        );
    }
}
