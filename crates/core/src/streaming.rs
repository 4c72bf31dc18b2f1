//! **Streaming EKM** — EKM evaluated in parser-event order with bounded
//! memory (paper Sec. 4.3).
//!
//! The bottom-up algorithms are "main-memory friendly": they can emit
//! partitions as soon as they leave a subtree. But a node with a very
//! large fan-out still forces them to buffer all its children. The paper's
//! mitigation (quoting [10]): *"we can already run the algorithm if the
//! main memory consumption for the representation of the current node's
//! subtree exceeds a certain threshold … this technique deteriorates the
//! quality of the result, [but] achieves an upper bound for the memory
//! usage that is proportional to the document height"*.
//!
//! The algorithm lives in [`SekmDriver`], an event-driven core that
//! consumes open/close events (the order a SAX parser delivers them) and
//! emits finished sibling intervals through a callback as soon as they
//! are decided. It keeps only the open-element path plus, per open
//! element, one small summary per pending child subtree, and flushes the
//! oldest pending children into partitions whenever a sibling list
//! outgrows the configured budget. [`StreamingEkm`] drives it from a
//! materialized [`Tree`]; the store's streaming bulkloader drives the
//! same core directly from parser events.
//!
//! Cut intervals are emitted in a deterministic order with the root
//! interval **last** — every non-root interval is decided (and emitted)
//! before its parent's interval, so a loader that numbers records in
//! emission order can resolve child→parent links by patching exactly the
//! already-emitted records of the parent's children.
//!
//! With an unbounded budget the decision schedule is a different — but
//! equivalent — topological order of EKM's binary-tree dependencies, so
//! the result is **identical** to [`crate::Ekm`] (asserted by tests).

use natix_tree::{NodeId, Partitioning, SiblingInterval, Tree, Weight};

use crate::{check_input, PartitionError, Partitioner};

/// A closed child subtree, summarized: its residual weight and, if any of
/// its own children remain attached, the sibling run they form (the
/// "first-child chain" of the binary representation, cuttable later).
#[derive(Clone, Copy)]
pub struct PendingChild<H: Copy> {
    /// First sibling covered by this entry (normally the child itself;
    /// budget flushes coalesce consecutive siblings into one entry).
    pub first: H,
    /// Last sibling covered.
    pub last: H,
    /// Residual weight of everything still attached under `first..=last`.
    pub residual: Weight,
    /// Attached children run of a single-child entry: `(first, last,
    /// weight)`; `None` for coalesced entries.
    pub inner: Option<(H, H, Weight)>,
}

/// One open element: its handle, own weight, and the summaries of its
/// already-closed children.
struct OpenFrame<H: Copy> {
    handle: H,
    weight: Weight,
    pending: Vec<PendingChild<H>>,
}

/// The streaming-EKM core as an event consumer: feed it `open(handle,
/// weight)` / `close(k, cut)` in document order and it emits each decided
/// sibling interval `cut(first, last)` as early as possible, buffering at
/// most `sibling_budget` pending child summaries per open element (plus
/// the open path itself).
///
/// `H` is an opaque node handle — [`StreamingEkm`] uses [`NodeId`]s of a
/// materialized tree, the store's bulkloader uses ids into its bounded
/// node slab. Handles only need to be `Copy`; the driver never inspects
/// them.
///
/// Frames are kept once opened: a frame past the open path keeps its
/// pending list for the next element opened at that depth, so a driver
/// fed document after document stops allocating once it has seen the
/// deepest and widest of them.
pub struct SekmDriver<H: Copy> {
    sibling_budget: usize,
    /// The open path is `frames[..depth]`.
    frames: Vec<OpenFrame<H>>,
    depth: usize,
}

impl<H: Copy> SekmDriver<H> {
    /// Driver with the given per-element pending-children budget; 0
    /// means unbounded and, like `usize::MAX`, reproduces [`crate::Ekm`]
    /// exactly.
    pub fn new(budget: usize) -> SekmDriver<H> {
        SekmDriver {
            sibling_budget: if budget == 0 { usize::MAX } else { budget },
            frames: Vec::new(),
            depth: 0,
        }
    }

    /// Open-tag event. `weight` is the node's own weight (1 slot for an
    /// element; childless kinds — attributes, text, comments, PIs — are
    /// delivered as an open immediately followed by a close).
    pub fn open(&mut self, handle: H, weight: Weight) {
        match self.frames.get_mut(self.depth) {
            Some(frame) => {
                frame.handle = handle;
                frame.weight = weight;
                frame.pending.clear();
            }
            None => self.frames.push(OpenFrame {
                handle,
                weight,
                pending: Vec::new(),
            }),
        }
        self.depth += 1;
    }

    /// Close-tag event for the innermost open node. Every sibling
    /// interval decided by this event is emitted through `cut` in
    /// deterministic order. Returns `true` when this closed the root
    /// (the final `cut` of that call is the root's own interval).
    ///
    /// The caller must have verified `weight(v) <= k` for every node (see
    /// [`check_input`]); the driver debug-asserts it.
    pub fn close(&mut self, k: Weight, cut: &mut dyn FnMut(H, H)) -> bool {
        self.depth = self
            .depth
            .checked_sub(1)
            .expect("close without matching open");
        let summary = close_frame(k, &self.frames[self.depth], cut);
        match self.depth.checked_sub(1) {
            Some(parent) => {
                let pending = &mut self.frames[parent].pending;
                pending.push(summary);
                if pending.len() > self.sibling_budget {
                    flush_oldest(k, pending, self.sibling_budget, cut);
                }
                false
            }
            None => {
                // Root closed: force the root partition under K, then
                // emit the root interval itself — always last.
                let mut residual = summary.residual;
                let mut inner = summary.inner;
                while residual > k {
                    let (f, l, w) = inner.expect("w(root) <= K was checked");
                    cut(f, l);
                    residual -= w;
                    inner = None;
                }
                cut(summary.first, summary.last);
                true
            }
        }
    }

    /// Forget the open path (a load that failed mid-document), keeping
    /// the frames for the next document.
    pub fn reset(&mut self) {
        self.depth = 0;
    }

    /// Bytes the driver holds: every frame it has opened and the
    /// capacity of their pending lists, in use or not.
    pub fn held_bytes(&self) -> usize {
        self.frames.capacity() * std::mem::size_of::<OpenFrame<H>>()
            + self
                .frames
                .iter()
                .map(|f| f.pending.capacity() * std::mem::size_of::<PendingChild<H>>())
                .sum::<usize>()
    }
}

/// Close event: resolve the sibling chain of the frame's children right
/// to left, cutting the heavier side (attached-children run vs
/// right-sibling run) while a binary fragment exceeds `k` — the KM step
/// on the binary representation, scheduled at parent-close time.
fn close_frame<H: Copy>(
    k: Weight,
    frame: &OpenFrame<H>,
    cut: &mut dyn FnMut(H, H),
) -> PendingChild<H> {
    // The still-attached run to our right: (first, last, weight).
    let mut right: Option<(H, H, Weight)> = None;
    for entry in frame.pending.iter().rev() {
        let mut residual = entry.residual;
        let mut inner = entry.inner;
        loop {
            let total = residual + right.map_or(0, |r| r.2);
            if total <= k {
                break;
            }
            let iw = inner.map_or(0, |i| i.2);
            let rw = right.map_or(0, |r| r.2);
            debug_assert!(iw > 0 || rw > 0, "single nodes fit (checked input)");
            if iw >= rw {
                let (f, l, w) = inner.expect("iw > 0");
                cut(f, l);
                residual -= w;
                inner = None;
            } else {
                let (f, l, _) = right.expect("rw > 0");
                cut(f, l);
                right = None;
            }
        }
        let last = right.map_or(entry.last, |r| r.1);
        let weight = residual + right.map_or(0, |r| r.2);
        right = Some((entry.first, last, weight));
    }
    PendingChild {
        first: frame.handle,
        last: frame.handle,
        residual: frame.weight + right.map_or(0, |r| r.2),
        inner: right,
    }
}

/// Budget exceeded: compact the buffer from the left. Consecutive oldest
/// entries whose combined residual fits `K` are coalesced into one
/// aggregated entry (the run can still stay with the parent, or be cut as
/// one interval, but can no longer be cut *partially* — the quality cost
/// of bounded memory); when the two oldest cannot merge, the oldest run is
/// emitted as a partition immediately.
fn flush_oldest<H: Copy>(
    k: Weight,
    pending: &mut Vec<PendingChild<H>>,
    budget: usize,
    cut: &mut dyn FnMut(H, H),
) {
    let keep = (budget / 2).max(1);
    while pending.len() > keep {
        let a = pending[0];
        let b = pending[1];
        if a.residual + b.residual <= k {
            pending[0] = PendingChild {
                first: a.first,
                last: b.last,
                residual: a.residual + b.residual,
                inner: None,
            };
            pending.remove(1);
        } else {
            // An un-flushed entry may still carry a deferred cut decision
            // (its residual can exceed K until the parent level resolves
            // it); emitting it as a partition forces the cut now.
            let mut a = a;
            while a.residual > k {
                let (f, l, w) = a
                    .inner
                    .expect("residual > K implies an attached children run");
                cut(f, l);
                a.residual -= w;
                a.inner = None;
            }
            cut(a.first, a.last);
            pending.remove(0);
        }
    }
}

/// EKM over a document-ordered event stream with bounded buffering.
///
/// `sibling_budget` bounds how many pending child summaries are kept per
/// open element; 0 or `usize::MAX` (unbounded) reproduces [`crate::Ekm`]
/// exactly.
#[derive(Debug, Clone, Copy)]
pub struct StreamingEkm {
    /// Maximum pending (closed) children buffered per open element before
    /// the oldest are flushed into partitions (0 = unbounded).
    pub sibling_budget: usize,
}

impl Default for StreamingEkm {
    fn default() -> Self {
        StreamingEkm {
            sibling_budget: 4096,
        }
    }
}

impl StreamingEkm {
    /// Streaming EKM with an unbounded buffer (exactly EKM).
    pub fn unbounded() -> StreamingEkm {
        StreamingEkm {
            sibling_budget: usize::MAX,
        }
    }
}

impl Partitioner for StreamingEkm {
    fn name(&self) -> &'static str {
        "SEKM"
    }

    fn partition(&self, tree: &Tree, k: Weight) -> Result<Partitioning, PartitionError> {
        check_input(tree, k)?;
        let mut p = Partitioning::new();
        let mut cut = |f: NodeId, l: NodeId| p.push(SiblingInterval::new(f, l));
        let mut driver: SekmDriver<NodeId> = SekmDriver::new(self.sibling_budget);

        // Simulated SAX traversal: explicit open stack, child cursor.
        driver.open(tree.root(), tree.weight(tree.root()));
        let mut stack: Vec<(NodeId, usize)> = vec![(tree.root(), 0)];
        while let Some((node, cursor)) = stack.last_mut() {
            let children = tree.children(*node);
            if *cursor < children.len() {
                let c = children[*cursor];
                *cursor += 1;
                driver.open(c, tree.weight(c));
                stack.push((c, 0));
                continue;
            }
            stack.pop();
            driver.close(k, &mut cut);
        }
        Ok(p)
    }

    fn is_main_memory_friendly(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ekm;
    use natix_tree::{parse_spec, validate};

    fn normalized(p: &Partitioning) -> Vec<(NodeId, NodeId)> {
        let mut v: Vec<_> = p.intervals.iter().map(|iv| (iv.first, iv.last)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn unbounded_matches_ekm_on_paper_examples() {
        for (spec, k) in [
            ("a:3(b:2 c:1(d:2 e:2) f:1 g:1 h:2)", 5),
            ("a:5(b:1 c:1(d:2 e:2) f:1)", 5),
            ("a:2(b:4(c:1) d:1 e:1)", 5),
            ("a:2(b:3(c:4(d:5) e:1) f:2(g:3 h:4) i:1)", 9),
        ] {
            let t = parse_spec(spec).unwrap();
            let ekm = Ekm.partition(&t, k).unwrap();
            let sekm = StreamingEkm::unbounded().partition(&t, k).unwrap();
            assert_eq!(
                normalized(&ekm),
                normalized(&sekm),
                "{spec} K={k}: streaming EKM diverged from EKM"
            );
        }
    }

    /// The streaming loader numbers records in emission order and relies
    /// on the root interval arriving last (children before parents).
    #[test]
    fn root_interval_emitted_last() {
        for (spec, k, budget) in [
            ("a:3(b:2 c:1(d:2 e:2) f:1 g:1 h:2)", 5, usize::MAX),
            ("a:2(b:3(c:4(d:5) e:1) f:2(g:3 h:4) i:1)", 9, usize::MAX),
            ("a:1(b:3 c:3 d:3 e:3 f:3 g:3)", 4, 2),
        ] {
            let t = parse_spec(spec).unwrap();
            let p = StreamingEkm {
                sibling_budget: budget,
            }
            .partition(&t, k)
            .unwrap();
            let last = p.intervals.last().expect("non-empty");
            assert_eq!(
                (last.first, last.last),
                (t.root(), t.root()),
                "{spec} K={k}: root interval must be emitted last"
            );
        }
    }

    #[test]
    fn bounded_budget_stays_feasible() {
        // Wide fan-out: 60 children under a small budget.
        let mut spec = String::from("root:1(");
        for i in 0..60 {
            spec.push_str(&format!("c{i}:3 "));
        }
        spec.push(')');
        let t = parse_spec(&spec).unwrap();
        for budget in [2, 4, 8, 1024] {
            let alg = StreamingEkm {
                sibling_budget: budget,
            };
            let p = alg.partition(&t, 16).unwrap();
            validate(&t, 16, &p).unwrap_or_else(|e| panic!("budget {budget}: {e}"));
        }
    }

    #[test]
    fn tight_budget_costs_quality_but_bounded() {
        let mut spec = String::from("root:1(");
        for i in 0..100 {
            spec.push_str(&format!("c{i}:2 "));
        }
        spec.push(')');
        let t = parse_spec(&spec).unwrap();
        let full = StreamingEkm::unbounded().partition(&t, 32).unwrap();
        let tight = StreamingEkm { sibling_budget: 4 }
            .partition(&t, 32)
            .unwrap();
        let cf = validate(&t, 32, &full).unwrap().cardinality;
        let ct = validate(&t, 32, &tight).unwrap().cardinality;
        assert!(ct >= cf);
        // The loss is bounded: flushing still packs maximal runs.
        assert!(ct <= cf + 3, "full {cf} vs tight {ct}");
    }

    #[test]
    fn single_node() {
        let t = parse_spec("a:4").unwrap();
        let p = StreamingEkm::default().partition(&t, 4).unwrap();
        assert_eq!(validate(&t, 4, &p).unwrap().cardinality, 1);
    }
}
