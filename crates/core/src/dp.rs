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
//! children, represented as the last added interval; the chain goes on in
//! the same row at the interval's first column, or, for an entry that
//! places child `j − 1` with the root, at `(s + rw(c_{j-1}), j − 1)`.
//!
//! GHDW greedily uses the locally optimal partitioning of every subtree;
//! DHW additionally considers the *nearly optimal* partitioning `Q(v)`
//! (one more interval, smaller root weight, Lemma 4) and chooses between
//! the two per subtree via the `ΔW` machinery of Lemma 5, which makes the
//! result globally optimal. How many members Lemma 5 forces for an interval
//! depends on the column `j` and the interval's width only, never on the
//! row `s`, so it is computed once per column into a *forcing profile*
//! ([`DpWorkspace::build_profiles`]); a cell's scan then reads it.
//!
//! ## Card runs
//!
//! Within one row, `(card, rootweight)` of `D(s, c)` never decreases as
//! `c` grows (DESIGN.md §8.5), and the forced count never falls as an
//! interval widens. So every maximal run of equal cardinality inside a
//! cell's window offers exactly one candidate worth comparing, and
//! [`NodeDp::compute`] compares one candidate per run, not one per start
//! position.
//!
//! ## Memoization and memory layout
//!
//! The paper's Sec. 3.2.3/3.3.6 optimization: only `s` values that are
//! actually requested are materialized (on a 20 MB document the authors
//! measured fewer than 4 distinct `s` values per inner node, against a
//! possible 256). The cross-row dependency `(s + rw(c_j), j-1)` strictly
//! increases `s`, so [`NodeDp::fill`] finds the requested rows in
//! ascending `s` and then computes them in descending `s`, without
//! recursion.
//!
//! Materialized rows live in a single flat arena reused by all nodes of a
//! run (see [`DpWorkspace`]): each row is a slab sized to the columns the
//! fill needs, located through a [`RowIndex`].
//! Entries are plain `Copy` structs, so the `(s, j)` recurrence and the
//! backtracking [`NodeDp::chain`] move indices, never heap clones; the
//! nearly-optimal member set of an interval is recomputed from the profile
//! for the intervals of the two final chains only. The independent
//! `HashMap<Weight, Vec<Entry>>` implementation in [`crate::baseline`] is
//! the reference the differential tests compare against.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use natix_tree::{NodeId, Partitioning, SiblingInterval, Tree, Weight};

/// Sentinel for "no interval introduced by this entry".
const NO_IV: u32 = u32::MAX;
/// Cardinality of infeasible entries.
const INFEASIBLE: u32 = u32::MAX;
/// Largest `K − w(v)` span for which [`RowIndex`] uses a dense array.
const DENSE_LIMIT: u64 = 1 << 16;

/// One cell of the dynamic programming table `D(v, s, j)`, 24 bytes.
///
/// Besides the cell's value, it records where the cell sits among the equal
/// values of its row, which [`NodeDp::compute`] reads to jump over runs.
#[derive(Clone, Copy)]
struct Entry {
    /// Child index of the first member of the interval `(begin, j − 1)`
    /// this entry adds, or [`NO_IV`] if it adds none: at `j = 0`, and where
    /// child `j − 1` joins the root partition.
    begin: u32,
    /// Number of intervals in the chain, plus one per subtree forced to a
    /// nearly-optimal partitioning. [`INFEASIBLE`] marks the dummy entry.
    card: u32,
    /// First column of this cell's run of equal `card` in its row.
    card_start: u32,
    /// The run of equal `(card, rootweight)` holding this cell: in the
    /// run's first column, the run's last column so far; in every other
    /// column, the run's first column.
    pair_link: u32,
    /// Weight of the root partition of this (partial) solution.
    rootweight: Weight,
}

/// The paper's "card = ∞" dummy, returned for out-of-bounds lookups and
/// used to pre-fill fresh row slabs.
const INFEASIBLE_ENTRY: Entry = Entry {
    begin: NO_IV,
    card: INFEASIBLE,
    card_start: 0,
    pair_link: 0,
    rootweight: Weight::MAX,
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

/// Directory entry for one materialized row: a slab of `want` entries in
/// [`DpWorkspace::entries`], of which the first `len` are computed.
#[derive(Clone, Copy)]
struct RowMeta {
    /// Root-partition weight `s` this row is keyed by.
    s: Weight,
    /// Slab start offset in the entry arena, once a fill has sized it.
    start: usize,
    /// Number of computed cells (`j` prefix).
    len: u32,
    /// Number of cells the fill under way needs; above `len` exactly while
    /// the row waits to be computed.
    want: u32,
}

/// The `s → row id` map of the current node, in ascending `s`.
///
/// While `K − w(v)` is below [`DENSE_LIMIT`] the offset `s − w(v)` indexes
/// a dense array; beyond that an ordered map holds the few rows that
/// materialize.
#[derive(Default)]
struct RowIndex {
    /// `w(v)`, the smallest `s` a node reaches.
    base: Weight,
    /// Whether `slots` is in use for this node.
    dense: bool,
    /// Dense `s − base → row id + 1` (0 = absent).
    slots: Vec<u32>,
    /// One past the highest offset of `slots` holding a row.
    end: usize,
    /// `s → row id` when the node's `s` range is too wide for `slots`.
    sparse: BTreeMap<Weight, u32>,
}

impl RowIndex {
    /// Empty the index for a node of weight `base` under limit `k`.
    fn reset(&mut self, base: Weight, k: Weight) {
        self.slots[..self.end].fill(0);
        self.end = 0;
        self.sparse.clear();
        self.base = base;
        self.dense = k - base < DENSE_LIMIT;
        if self.dense && self.slots.len() <= (k - base) as usize {
            self.slots.resize((k - base) as usize + 1, 0);
        }
    }

    fn get(&self, s: Weight) -> Option<usize> {
        if self.dense {
            match self.slots[(s - self.base) as usize] {
                0 => None,
                slot => Some(slot as usize - 1),
            }
        } else {
            self.sparse.get(&s).map(|&rid| rid as usize)
        }
    }

    fn insert(&mut self, s: Weight, rid: usize) {
        if self.dense {
            let off = (s - self.base) as usize;
            self.slots[off] = rid as u32 + 1;
            self.end = self.end.max(off + 1);
        } else {
            self.sparse.insert(s, rid as u32);
        }
    }

    /// The row with the smallest key at or above `s`.
    fn first_from(&self, s: Weight) -> Option<usize> {
        if self.dense {
            let off = (s - self.base) as usize;
            let found = self
                .slots
                .get(off..self.end)?
                .iter()
                .find(|&&slot| slot != 0);
            found.map(|&slot| slot as usize - 1)
        } else {
            self.sparse.range(s..).next().map(|(_, &rid)| rid as usize)
        }
    }
}

/// One segment of a forcing profile: `taken(j, m) = taken` for every `m`
/// below `m_end` and at or above the previous segment's `m_end`.
#[derive(Clone, Copy)]
struct Segment {
    m_end: u32,
    taken: u32,
}

/// Reusable scratch space for the DP engine: the flat entry arena, the row
/// directory and its index, the forcing profiles and the per-node buffers.
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
    /// `s → row id` of the current node.
    index: RowIndex,
    /// Rows the fill under way computes cells of, in ascending `s`.
    order: Vec<u32>,
    /// Forcing profiles of the current node, column after column, as
    /// segments of equal `taken(j, m)` (see [`DpWorkspace::build_profiles`]).
    profiles: Vec<Segment>,
    /// `profile_at[j]` ends column `j`'s profile in `profiles` (and starts
    /// column `j + 1`'s); `profile_at[0] = 0`.
    profile_at: Vec<usize>,
    /// The ΔW of the members a profile under construction leaves
    /// unforced, ascending: the list `C` of Fig. 7 less its forced head.
    unforced: Vec<Weight>,
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
            + self.index.slots.capacity() * std::mem::size_of::<u32>()
            + self.index.sparse.len() * std::mem::size_of::<(Weight, u32)>()
            + self.order.capacity() * std::mem::size_of::<u32>()
            + self.profiles.capacity() * std::mem::size_of::<Segment>()
            + self.profile_at.capacity() * std::mem::size_of::<usize>()
            + self.unforced.capacity() * std::mem::size_of::<Weight>()
            + self.child_stats.capacity() * std::mem::size_of::<ChildStats>()) as u64
    }

    /// Fill `profiles`/`profile_at` with every column's forcing profile: for
    /// `m = 0, 1, …`, the number of members `taken(j, m)` the greedy of
    /// Lemma 5 forces (largest ΔW first) to fit the interval
    /// `(c_{j-1-m}, c_{j-1})` into `k`, stored as segments of equal `taken`.
    /// A profile ends where the window of [`NodeDp::compute`] does: at
    /// `m = j`, at `m = k`, or once even forcing every member cannot fit the
    /// interval.
    ///
    /// The build is incremental in `m` (DESIGN.md §8.3): it keeps the
    /// members left unforced, the smallest ΔW, with their sum. A new member
    /// joins them, and the largest leave (are forced) while the interval
    /// does not fit; nothing is recounted from zero.
    fn build_profiles(&mut self, k: Weight) {
        let Self {
            profiles,
            profile_at,
            unforced,
            child_stats,
            ..
        } = self;
        profiles.clear();
        profile_at.clear();
        profile_at.push(0);
        for j in 1..=child_stats.len() {
            unforced.clear();
            let mut w: Weight = 0; // Σ optimal root weights of members
            let mut dw_sum: Weight = 0; // Σ ΔW of members
            let mut unforced_sum: Weight = 0; // Σ ΔW of `unforced`
            let mut forceable = 0; // members with ΔW > 0
            let mut seg = Segment { m_end: 0, taken: 0 };
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
                    forceable += 1;
                    let pos = unforced.partition_point(|&d| d < cs.dw);
                    unforced.insert(pos, cs.dw);
                    unforced_sum += cs.dw;
                }
                // The interval weighs its members' nearly-optimal root
                // weights plus the ΔW of those left optimal.
                while w - dw_sum + unforced_sum > k {
                    unforced_sum -= unforced.pop().expect("forcing all fits");
                }
                let taken = (forceable - unforced.len()) as u32;
                if taken != seg.taken {
                    profiles.push(seg);
                    seg.taken = taken;
                }
                seg.m_end = m as u32 + 1;
            }
            profiles.push(seg);
            profile_at.push(profiles.len());
        }
    }
}

/// Per-node view of the DP table: split borrows of the workspace buffers
/// plus the node parameters.
struct NodeDp<'a> {
    k: Weight,
    /// Window positions the scans never compared.
    pruned_candidates: u64,
    /// Window scans ended by the exact early exit of [`NodeDp::compute`].
    pruned_scans: u64,
    /// Candidates the scans compared, one per card run visited.
    compared_candidates: u64,
    children: &'a [ChildStats],
    entries: &'a mut Vec<Entry>,
    rows: &'a mut Vec<RowMeta>,
    index: &'a mut RowIndex,
    order: &'a mut Vec<u32>,
    profiles: &'a [Segment],
    profile_at: &'a [usize],
}

/// Last column so far of the equal-pair run holding column `t` of `row`
/// (see [`Entry::pair_link`]).
#[inline]
fn pair_end(row: &[Entry], t: usize) -> usize {
    let link = row[t].pair_link as usize;
    if link < t {
        row[link].pair_link as usize
    } else {
        link
    }
}

impl NodeDp<'_> {
    /// Row id for `s`, materializing an empty row if there is none.
    fn row_or_insert(&mut self, s: Weight) -> usize {
        if let Some(rid) = self.index.get(s) {
            return rid;
        }
        let rid = self.rows.len();
        self.rows.push(RowMeta {
            s,
            start: 0,
            len: 0,
            want: 0,
        });
        self.index.insert(s, rid);
        rid
    }

    /// Table lookup; out-of-bounds `s` yields the infeasible dummy.
    fn get(&self, s: Weight, j: usize) -> Entry {
        if s > self.k {
            return INFEASIBLE_ENTRY;
        }
        let rid = self.index.get(s).expect("row materialized before lookup");
        self.entries[self.rows[rid].start + j]
    }

    /// Compute the cells `(s0, 0..=upto)` and every cell they depend on.
    ///
    /// Cell `(s, j)` reads `(s, 0..j)` and `(s + rw(c_{j-1}), j − 1)`, so a
    /// row is only ever asked for cells by rows of smaller `s`. The first
    /// pass visits the rows in ascending `s`: when a row comes up, every row
    /// that asks it for cells has been visited, so its demand is final, and
    /// it passes on the demands of the cells it lacks. Each row's slab is
    /// then sized to its demand (a row an earlier fill computed in part
    /// moves to the arena's end with its computed cells), and the rows are
    /// computed in descending `s`, each from its first missing column on.
    fn fill(&mut self, s0: Weight, upto: usize) {
        if s0 > self.k {
            return;
        }
        let r0 = self.row_or_insert(s0);
        self.rows[r0].want = self.rows[r0].want.max(upto as u32 + 1);
        let mut next = Some(s0);
        while let Some(rid) = next.and_then(|s| self.index.first_from(s)) {
            let RowMeta { s, len, want, .. } = self.rows[rid];
            next = s.checked_add(1);
            if want == len {
                continue;
            }
            self.order.push(rid as u32);
            for j in (len as usize).max(1)..want as usize {
                let s2 = s + self.children[j - 1].rw;
                if s2 <= self.k {
                    let r2 = self.row_or_insert(s2);
                    self.rows[r2].want = self.rows[r2].want.max(j as u32);
                }
            }
        }
        let rows = &mut *self.rows;
        let cells: usize = self
            .order
            .iter()
            .map(|&rid| rows[rid as usize].want as usize)
            .sum();
        let mut slab = self.entries.len();
        self.entries.reserve_exact(cells);
        self.entries.resize(slab + cells, INFEASIBLE_ENTRY);
        for &rid in self.order.iter() {
            let row = &mut rows[rid as usize];
            self.entries
                .copy_within(row.start..row.start + row.len as usize, slab);
            row.start = slab;
            slab += row.want as usize;
        }
        while let Some(rid) = self.order.pop() {
            self.fill_row(rid as usize);
        }
    }

    /// Compute row `rid` from its first missing column up to its demand,
    /// recording each cell's card run and equal-pair run.
    fn fill_row(&mut self, rid: usize) {
        let RowMeta {
            s,
            start,
            len,
            want,
            ..
        } = self.rows[rid];
        for j in len as usize..want as usize {
            if j == 0 {
                // Only the (empty) root partition of weight s.
                self.entries[start] = Entry {
                    begin: NO_IV,
                    card: 0,
                    card_start: 0,
                    pair_link: 0,
                    rootweight: s,
                };
                continue;
            }
            let mut e = self.compute(s, start, j);
            let prev = self.entries[start + j - 1];
            debug_assert!(
                (e.card, e.rootweight) >= (prev.card, prev.rootweight),
                "rows are non-decreasing in (card, rootweight) (DESIGN.md §8.5)"
            );
            let same_card = e.card == prev.card;
            e.card_start = if same_card { prev.card_start } else { j as u32 };
            e.pair_link = j as u32;
            if same_card && e.rootweight == prev.rootweight {
                // `prev` ends its run: its link is the run's head, or the
                // run's end, `j − 1`, if it is the head itself.
                let head = prev.pair_link.min(j as u32 - 1);
                e.pair_link = head;
                self.entries[start + head as usize].pair_link = j as u32;
            }
            self.entries[start + j] = e;
        }
        self.rows[rid].len = want;
    }

    /// The Fig. 7 inner loops for cell `(s, j)` of the row whose slab starts
    /// at `start`: choose between copying `D(s', j-1)` (child `j-1` joins
    /// the root partition) and adding one of the intervals
    /// `(c_{j-1-m}, c_{j-1})`, possibly forcing some members to
    /// nearly-optimal subtree partitionings.
    ///
    /// ## One candidate per card run
    ///
    /// The interval starting at column `c` costs `card(s, c) + 1 +
    /// taken(j, j − 1 − c)` and leaves root weight `rootweight(s, c)`.
    /// Inside a run of equal `card`, `taken` is smallest at the run's top,
    /// and among the columns sharing the top's profile segment the root
    /// weight is smallest at the lowest one, `t`. Of the columns that tie
    /// with `t` in `(card, rootweight)`, the paper-literal scan (`m = 0, 1,
    /// …`, strict improvement, the copy first) meets the highest first: the
    /// last column of `t`'s equal-pair run, which never passes the card
    /// run's top. So the runs are visited from column `j − 1` down, one
    /// candidate each.
    ///
    /// The scan stops exactly once `card(s, lo) + taken + 1 > best.card`:
    /// the window's lowest column `lo` has the smallest card of the window
    /// and `taken` only grows further down. The selected entry is the one
    /// the full scan of [`crate::baseline`] selects; the differential suite
    /// enforces this.
    fn compute(&mut self, s: Weight, start: usize, j: usize) -> Entry {
        let s2 = s + self.children[j - 1].rw;
        let copy = self.get(s2, j - 1);
        let mut best = Entry {
            begin: NO_IV,
            ..copy
        };
        let row = &self.entries[start..start + j];
        let profile = &self.profiles[self.profile_at[j - 1]..self.profile_at[j]];
        let width = profile[profile.len() - 1].m_end as usize;
        let lo = j - width;
        let floor = u64::from(row[lo].card);
        let (mut top, mut seg) = (j - 1, 0);
        let mut compared = 0;
        loop {
            let m = (j - 1 - top) as u32;
            while profile[seg].m_end <= m {
                seg += 1;
            }
            let Segment { m_end, taken } = profile[seg];
            if floor + u64::from(taken) + 1 > u64::from(best.card) {
                self.pruned_scans += 1;
                break;
            }
            compared += 1;
            let run_start = (row[top].card_start as usize).max(lo);
            let t = run_start.max(j - m_end as usize);
            let card = row[top].card + 1 + taken;
            let rootweight = row[t].rootweight;
            if card < best.card || (card == best.card && rootweight < best.rootweight) {
                best = Entry {
                    begin: pair_end(row, t) as u32,
                    card,
                    rootweight,
                    ..best
                };
            }
            if run_start == lo {
                break;
            }
            top = run_start - 1;
        }
        self.compared_candidates += compared;
        self.pruned_candidates += width as u64 - compared;
        best
    }

    /// `taken(j, m)` of column `j`'s forcing profile.
    fn taken(&self, j: usize, m: usize) -> usize {
        let profile = &self.profiles[self.profile_at[j - 1]..self.profile_at[j]];
        let seg = profile.partition_point(|seg| seg.m_end as usize <= m);
        profile[seg].taken as usize
    }

    /// Collect the interval chain starting at `(s, j)` into `out`. The
    /// forced members of each interval are its `taken` largest ΔW, ties
    /// going to the later child, as in the paper-literal scan.
    fn chain(&self, mut s: Weight, mut j: usize, out: &mut Vec<PlanInterval>) {
        out.clear();
        let mut members: Vec<u32> = Vec::new();
        while j > 0 {
            let e = self.get(s, j);
            if e.begin == NO_IV {
                // Child j − 1 sits with the root; the chain goes on where
                // the entry was copied from.
                s += self.children[j - 1].rw;
                j -= 1;
                continue;
            }
            let end = j as u32 - 1;
            let taken = self.taken(j, (end - e.begin) as usize);
            let children = self.children;
            members.clear();
            members.extend((e.begin..=end).filter(|&i| children[i as usize].dw > 0));
            members.sort_unstable_by_key(|&i| Reverse((children[i as usize].dw, i)));
            out.push(PlanInterval {
                begin: e.begin,
                end,
                nearly: members[..taken].into(),
            });
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
        order,
        profiles,
        profile_at,
        child_stats,
        ..
    } = ws;
    let nc = child_stats.len();
    debug_assert!(nc > 0, "leaves are handled by NodePlan::set_leaf");
    entries.clear();
    rows.clear();
    // `w_v <= k` is guaranteed by check_input.
    index.reset(w_v, k);
    let mut dp = NodeDp {
        k,
        pruned_candidates: 0,
        pruned_scans: 0,
        compared_candidates: 0,
        children: child_stats,
        entries,
        rows,
        index,
        order,
        profiles,
        profile_at,
    };
    dp.fill(w_v, nc);
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
            dp.fill(s_q, nc);
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
        st.total_entries += dp.rows.iter().map(|r| u64::from(r.len)).sum::<u64>();
        st.arena_entries += dp.entries.len() as u64;
        st.pruned_candidates += dp.pruned_candidates;
        st.pruned_scans += dp.pruned_scans;
        st.compared_candidates += dp.compared_candidates;
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
    /// Total arena slab cells reserved. Slabs are sized to the cells a fill
    /// needs, so the gap to `total_entries` is the slabs the nearly-optimal
    /// fill outgrew and moved.
    pub arena_entries: u64,
    /// Peak bytes held by the DP workspace buffers over the run.
    pub bytes_allocated: u64,
    /// Tree nodes covered by the run.
    pub dag_nodes: u64,
    /// Distinct weighted subtree shapes (minimal-DAG nodes) among
    /// `dag_nodes`.
    pub dag_distinct: u64,
    /// Nodes whose plan was shared from an earlier node of the same shape
    /// instead of being recomputed (`dag_nodes − dag_distinct`).
    pub dag_hits: u64,
    /// Window positions (interval start columns) the cells' scans never
    /// compared: passed over inside a card run, or after the exit.
    pub pruned_candidates: u64,
    /// Candidate scans ended early: the window's smallest cardinality plus
    /// the forced-member count ruled out every remaining start position.
    pub pruned_scans: u64,
    /// Interval candidates the cells' scans compared, at most one per card
    /// run of the window.
    pub compared_candidates: u64,
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
        // K - w(v) beyond DENSE_LIMIT exercises the ordered-map row index.
        let t = parse_spec("a:1(b:4 c:4 d:1)").unwrap();
        let k = DENSE_LIMIT + 100;
        let p = Dhw.partition(&t, k).unwrap();
        let s = validate(&t, k, &p).unwrap();
        assert_eq!(s.cardinality, 1);
    }
}

#[cfg(test)]
mod memo_tests {
    use crate::{dhw_with_statistics, ghdw_with_statistics, Dhw, Partitioner};
    use natix_tree::{parse_spec, validate, NodeId, TreeBuilder};

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

    #[test]
    fn scans_compare_a_few_candidates_per_cell() {
        // A flat list of 2000 unit leaves at K = 256: about 490 000 cells,
        // each with a window of up to 255 start positions. Leaves force no
        // members, so a window holds at most two card runs (DESIGN.md §8.5)
        // and the scan compares at most two candidates per cell, whatever
        // the window's width; the per-position scan compared about 237.
        let mut b = TreeBuilder::new("list", 1).unwrap();
        for _ in 0..2000 {
            b.add_child(NodeId::ROOT, "item", 1).unwrap();
        }
        let t = b.build();
        let (_, dhw) = dhw_with_statistics(&t, 256).unwrap();
        let (_, ghdw) = ghdw_with_statistics(&t, 256).unwrap();
        for (alg, stats) in [("DHW", dhw), ("GHDW", ghdw)] {
            assert!(stats.total_entries > 400_000, "{alg}: {stats:?}");
            assert!(
                stats.compared_candidates <= 4 * stats.total_entries,
                "{alg}: {} candidates compared over {} cells",
                stats.compared_candidates,
                stats.total_entries
            );
        }
    }
}
