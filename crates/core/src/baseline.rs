//! Independent reference implementation of the GHDW/DHW engine.
//!
//! A per-node, unpruned transcription of Figs. 5 and 7 over
//! `HashMap<Weight, Vec<Entry>>` rows that shares no code with [`crate::dp`]
//! or [`crate::dag`]. The differential tests check the engine against it
//! interval-for-interval on trees too large for [`crate::brute_force`].
//!
//! Do not use it for real work: every table cell clones interval chains'
//! boxed nearly-sets, and every row is a separate heap allocation behind a
//! hash map.

use std::collections::HashMap;

use natix_tree::{Partitioning, SiblingInterval, Tree, Weight};

use crate::{check_input, PartitionError};

const NO_IV: u32 = u32::MAX;
const INFEASIBLE: u64 = u64::MAX;

#[derive(Clone)]
struct Entry {
    begin: u32,
    end: u32,
    card: u64,
    rootweight: Weight,
    next: (Weight, u32),
    nearly: Box<[u32]>,
}

#[derive(Clone, Copy)]
struct ChildStats {
    rw: Weight,
    dw: Weight,
}

struct PlanInterval {
    begin: u32,
    end: u32,
    nearly: Box<[u32]>,
}

struct NodePlan {
    rw_opt: Weight,
    dw: Weight,
    opt: Vec<PlanInterval>,
    nearly: Option<Vec<PlanInterval>>,
}

struct NodeDp<'a> {
    k: Weight,
    children: &'a [ChildStats],
    rows: HashMap<Weight, Vec<Entry>>,
    infeasible: Entry,
}

impl<'a> NodeDp<'a> {
    fn new(k: Weight, children: &'a [ChildStats]) -> NodeDp<'a> {
        NodeDp {
            k,
            children,
            rows: HashMap::new(),
            infeasible: Entry {
                begin: NO_IV,
                end: NO_IV,
                card: INFEASIBLE,
                rootweight: Weight::MAX,
                next: (0, 0),
                nearly: Box::new([]),
            },
        }
    }

    fn get(&self, s: Weight, j: usize) -> &Entry {
        if s > self.k {
            return &self.infeasible;
        }
        &self.rows[&s][j]
    }

    fn ensure(&mut self, s: Weight, upto_j: usize) {
        if s > self.k {
            return;
        }
        let have = self.rows.get(&s).map_or(0, Vec::len);
        if have > upto_j {
            return;
        }
        if have == 0 {
            self.rows.insert(
                s,
                vec![Entry {
                    begin: NO_IV,
                    end: NO_IV,
                    card: 0,
                    rootweight: s,
                    next: (0, 0),
                    nearly: Box::new([]),
                }],
            );
        }
        for j in have.max(1)..=upto_j {
            let s2 = s + self.children[j - 1].rw;
            self.ensure(s2, j - 1);
            let e = self.compute(s, j);
            self.rows.get_mut(&s).expect("row exists").push(e);
        }
    }

    fn compute(&self, s: Weight, j: usize) -> Entry {
        let s2 = s + self.children[j - 1].rw;
        let mut best = self.get(s2, j - 1).clone();

        let mut cand: Vec<(Weight, u32)> = Vec::new();
        let mut w: Weight = 0;
        let mut dw_sum: Weight = 0;
        let mut m = 0usize;
        while m < j && (m as u64) < self.k && w - dw_sum < self.k {
            let ci = j - 1 - m;
            let cs = self.children[ci];
            w += cs.rw;
            dw_sum += cs.dw;
            if cs.dw > 0 {
                let key = (cs.dw, ci as u32);
                let pos = cand.partition_point(|&e| e > key);
                cand.insert(pos, key);
            }
            if w - dw_sum <= self.k {
                let prev = self.get(s, ci);
                if prev.card != INFEASIBLE {
                    let mut crd = prev.card + 1;
                    let mut wp = w;
                    let mut taken = 0usize;
                    while wp > self.k {
                        let (d, _) = cand[taken];
                        wp -= d;
                        taken += 1;
                        crd += 1;
                    }
                    let rw = prev.rootweight;
                    if crd < best.card || (crd == best.card && rw < best.rootweight) {
                        best = Entry {
                            begin: ci as u32,
                            end: (j - 1) as u32,
                            card: crd,
                            rootweight: rw,
                            next: (s, ci as u32),
                            nearly: cand[..taken].iter().map(|&(_, i)| i).collect(),
                        };
                    }
                }
            }
            m += 1;
        }
        best
    }

    fn chain(&self, mut s: Weight, mut j: usize) -> Vec<PlanInterval> {
        let mut out = Vec::new();
        loop {
            let e = self.get(s, j);
            if e.begin == NO_IV {
                break;
            }
            out.push(PlanInterval {
                begin: e.begin,
                end: e.end,
                nearly: e.nearly.clone(),
            });
            s = e.next.0;
            j = e.next.1 as usize;
        }
        out
    }
}

fn partition_dp(tree: &Tree, k: Weight, nearly_mode: bool) -> Result<Partitioning, PartitionError> {
    check_input(tree, k)?;

    let n = tree.len();
    let mut plans: Vec<NodePlan> = Vec::with_capacity(n);
    for _ in 0..n {
        plans.push(NodePlan {
            rw_opt: 0,
            dw: 0,
            opt: Vec::new(),
            nearly: None,
        });
    }

    let mut child_stats: Vec<ChildStats> = Vec::new();
    for v in tree.postorder() {
        let w_v = tree.weight(v);
        let children = tree.children(v);
        if children.is_empty() {
            plans[v.index()].rw_opt = w_v;
            continue;
        }
        child_stats.clear();
        child_stats.extend(children.iter().map(|c| {
            let p = &plans[c.index()];
            ChildStats {
                rw: p.rw_opt,
                dw: p.dw,
            }
        }));

        let nc = children.len();
        let mut dp = NodeDp::new(k, &child_stats);
        dp.ensure(w_v, nc);
        let final_entry = dp.get(w_v, nc);
        debug_assert_ne!(
            final_entry.card, INFEASIBLE,
            "all-singleton fallback exists"
        );
        let rw_opt = final_entry.rootweight;
        let opt = dp.chain(w_v, nc);

        let plan = &mut plans[v.index()];
        plan.rw_opt = rw_opt;
        plan.opt = opt;

        if nearly_mode {
            let s_q = w_v + k - rw_opt + 1;
            if s_q <= k {
                dp.ensure(s_q, nc);
                let qe = dp.get(s_q, nc);
                if qe.card != INFEASIBLE {
                    let rw_nearly = qe.rootweight - (s_q - w_v);
                    let dw = rw_opt.saturating_sub(rw_nearly);
                    if dw > 0 {
                        let nearly = dp.chain(s_q, nc);
                        let plan = &mut plans[v.index()];
                        plan.dw = dw;
                        plan.nearly = Some(nearly);
                    }
                }
            }
        }
    }

    Ok(extract(tree, &plans))
}

fn extract(tree: &Tree, plans: &[NodePlan]) -> Partitioning {
    let mut p = Partitioning::new();
    p.push(SiblingInterval::singleton(tree.root()));
    let mut stack = vec![(tree.root(), false)];
    let mut covered: Vec<bool> = Vec::new();
    while let Some((v, use_nearly)) = stack.pop() {
        let plan = &plans[v.index()];
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
            p.push(SiblingInterval::new(
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
    p
}

/// DHW via the reference `HashMap`-row engine.
pub fn dhw_hashmap(tree: &Tree, k: Weight) -> Result<Partitioning, PartitionError> {
    partition_dp(tree, k, true)
}

/// GHDW via the reference `HashMap`-row engine.
pub fn ghdw_hashmap(tree: &Tree, k: Weight) -> Result<Partitioning, PartitionError> {
    partition_dp(tree, k, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dhw, Ghdw, Partitioner};
    use natix_tree::parse_spec;

    #[test]
    fn baseline_matches_arena_engine() {
        let specs = [
            "a:5(b:1 c:1(d:2 e:2) f:1)",
            "a:3(b:2 c:2 d:2 e:2 f:2)",
            "a:1(b:4 c:4 d:1)",
            "a:2(b:2 c:2(x:1 y:2(z:1)) d:2)",
        ];
        for spec in specs {
            let t = parse_spec(spec).unwrap();
            for k in [5u64, 8, 9, 16] {
                let arena_d = Dhw.partition(&t, k);
                let base_d = dhw_hashmap(&t, k);
                let arena_g = Ghdw.partition(&t, k);
                let base_g = ghdw_hashmap(&t, k);
                match (arena_d, base_d) {
                    (Ok(a), Ok(b)) => assert_eq!(a.intervals, b.intervals, "{spec} k={k}"),
                    (Err(_), Err(_)) => {}
                    _ => panic!("feasibility mismatch on {spec} k={k}"),
                }
                match (arena_g, base_g) {
                    (Ok(a), Ok(b)) => assert_eq!(a.intervals, b.intervals, "{spec} k={k}"),
                    (Err(_), Err(_)) => {}
                    _ => panic!("feasibility mismatch on {spec} k={k}"),
                }
            }
        }
    }
}
