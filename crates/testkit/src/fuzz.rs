//! Model-based crash/update fuzzing.
//!
//! Every run bulkloads a generated document onto an in-memory disk, then
//! drives the store and the [`ModelTree`] oracle through the same seeded
//! trace of update operations. After each step the store must serialize
//! to exactly the oracle's document, pass the full record-graph
//! consistency check, and — in crash mode — survive a power cut (clean
//! or torn) at every write event of the step: reopening the surviving
//! bytes must recover to the pre- or post-step document, never a third
//! state. The cut at every write event is the shared sweep of
//! [`crate::sweep`]; the one-shot write-error probe on the live handle
//! is this row's own.
//!
//! Failing traces are shrunk to a minimal reproduction and rendered as a
//! replayable script (see [`crate::replay`]) plus a ready-to-paste
//! regression test.

use std::collections::HashSet;

use natix_datagen::evaluation_suite;
use natix_store::{
    corrupt_checksum_of_class, corrupt_page_of_class, fsck, FaultInjectingPager, FaultSchedule,
    NodeRef, PageClass, SharedMemPager, StoreConfig, StoreResult, XmlStore,
};
use natix_xml::{node_weight, Document, DocumentBuilder, NodeId, NodeKind};

use crate::harness::{Cell, Counts, Grid, GridRow, Progress, Tier};
use crate::model::ModelTree;
use crate::ops::{format_op, name_for, text_for, Op};
use crate::sweep::{expect_xml, fresh, mainline, sweep, walk, Ran, Step};

/// How a trace run exercises the fault-injection layer.
#[derive(Clone, Copy, Debug)]
pub enum CrashMode {
    /// Fault-free: oracle equivalence and consistency checks only.
    None,
    /// After each step, replay the step from a pre-step disk snapshot
    /// with a power cut at write event 1, 2, 3, ... (alternating clean
    /// and torn cuts) until the step commits, plus one transient
    /// write-error probe. `max_points_per_op` caps the sweep per step
    /// (0 = sweep every write event).
    Sweep { max_points_per_op: u64 },
}

/// Statistics from a successful trace run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOutcome {
    /// Steps committed on the fault-free mainline: one per applied op,
    /// or one per batch in a group-commit run.
    pub steps: u64,
    pub ops_applied: u64,
    pub ops_skipped: u64,
    /// Fault points exercised (power cuts, write-error probes or
    /// disk-full windows, by row).
    pub crash_points: u64,
}

/// A failed step inside a trace run.
#[derive(Clone, Debug)]
pub struct TraceFailure {
    /// Index into the trace of the failing step's last op.
    pub step: usize,
    /// The fault armed when the step failed, if one was.
    pub fault: Option<FaultSchedule>,
    pub message: String,
}

impl std::fmt::Display for TraceFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {}", self.step)?;
        if let Some(fault) = self.fault {
            write!(f, " (under {fault})")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// One generated document plus the identity needed to regenerate it.
pub struct Workload {
    pub name: String,
    pub scale: f64,
    pub gen_seed: u64,
    pub doc: Document,
}

/// The six Table 1 evaluation documents at `scale`, then [`flat`],
/// deterministically regenerable from `(name, scale, gen_seed)`. `flat`
/// comes last so the Table 1 cells keep their trace seeds.
pub fn workloads(scale: f64, gen_seed: u64) -> Vec<Workload> {
    evaluation_suite(scale, gen_seed)
        .into_iter()
        .chain([("flat", flat(scale))])
        .map(|(name, doc)| Workload {
            name: name.to_string(),
            scale,
            gen_seed,
            doc,
        })
        .collect()
}

/// A `<list>` of `100 000 × scale` childless elements, the first few with
/// one short text child. Its interval records hold only fragment roots,
/// so an insert before one of them splits the sibling interval.
fn flat(scale: f64) -> Document {
    let mut b = DocumentBuilder::new("list");
    for i in 0..(scale * 100_000.0) as usize {
        let e = b.element(NodeId::ROOT, "e");
        if i < 8 {
            b.text(e, "leaf");
        }
    }
    b.build()
}

pub fn workload_by_name(name: &str, scale: f64, gen_seed: u64) -> Option<Workload> {
    workloads(scale, gen_seed)
        .into_iter()
        .find(|w| w.name == name)
}

/// Smallest record limit that can hold every node of `doc` and every
/// node the fuzzer may insert. Requested limits are clamped up to this
/// so that generated workloads never trip the per-node weight guard.
pub fn min_record_limit(doc: &Document) -> u64 {
    let fuzz_text = node_weight(NodeKind::Text, text_for(0).len());
    doc.tree().max_node_weight().max(fuzz_text)
}

/// Live elements of the store in document (preorder) order; position 0
/// is the root. Mirrors [`ModelTree::elements`].
pub(crate) fn store_elements(store: &mut XmlStore) -> StoreResult<Vec<NodeRef>> {
    let root = store.root()?;
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(r) = stack.pop() {
        out.push(r);
        let mut kids = Vec::new();
        store.for_each_child(r, |c, kind, _| {
            if kind == NodeKind::Element {
                kids.push(c);
            }
        })?;
        stack.extend(kids.into_iter().rev());
    }
    Ok(out)
}

/// Apply one (non-skipped) op to the store, resolving the target against
/// this store instance's current element preorder.
pub(crate) fn apply_store(store: &mut XmlStore, op: &Op) -> StoreResult<()> {
    let els = store_elements(store)?;
    match *op {
        Op::AppendElement { target, tag } => store
            .append_child(
                els[target % els.len()],
                NodeKind::Element,
                &name_for(tag),
                None,
            )
            .map(|_| ()),
        Op::AppendText { target, tag } => store
            .append_child(
                els[target % els.len()],
                NodeKind::Text,
                "#text",
                Some(&text_for(tag)),
            )
            .map(|_| ()),
        Op::InsertBefore { target, tag } => store
            .insert_before(
                els[target % els.len()],
                NodeKind::Element,
                &name_for(tag),
                None,
            )
            .map(|_| ()),
        Op::Delete { target } => store.delete_subtree(els[target % els.len()]),
    }
}

/// Apply one (non-skipped) op to the oracle.
pub(crate) fn apply_model(model: &mut ModelTree, op: &Op) {
    let els = model.elements();
    match *op {
        Op::AppendElement { target, tag } => {
            model.append_child(
                els[target % els.len()],
                NodeKind::Element,
                &name_for(tag),
                None,
            );
        }
        Op::AppendText { target, tag } => {
            model.append_child(
                els[target % els.len()],
                NodeKind::Text,
                "#text",
                Some(&text_for(tag)),
            );
        }
        Op::InsertBefore { target, tag } => {
            model.insert_before(
                els[target % els.len()],
                NodeKind::Element,
                &name_for(tag),
                None,
            );
        }
        Op::Delete { target } => model.delete_subtree(els[target % els.len()]),
    }
}

/// Run `trace` against a fresh store bulkloaded from `doc` with record
/// limit `k` (clamped up to [`min_record_limit`]). See the module docs
/// for the invariants checked per step.
pub fn run_trace(
    doc: &Document,
    k: u64,
    trace: &[Op],
    mode: CrashMode,
) -> Result<RunOutcome, TraceFailure> {
    let (disk, config, mut store) = fresh(doc, k, StoreConfig::default())?;
    walk(doc, &disk, trace, 1, |step| {
        mainline(&mut store, step)?;
        let CrashMode::Sweep { max_points_per_op } = mode else {
            return Ok(0);
        };
        // Clean and torn cuts alternate.
        let torn = |n: u64| (n + step.at as u64).is_multiple_of(2);
        let cuts = sweep(
            step,
            config,
            max_points_per_op,
            |n| FaultSchedule::power_cut(n, torn(n)),
            |mut store, _| {
                let r = apply_store(&mut store, &step.ops[0]);
                Ok(Ran::until_committed(r.is_ok()))
            },
        )?;
        write_error_probe(step, config)?;
        Ok(cuts + 1)
    })
}

/// Transient write-error probe: the *live* handle must survive a one-shot
/// write error and land in the pre- or post-state.
fn write_error_probe(step: &Step, config: StoreConfig) -> Result<(), TraceFailure> {
    let fault = FaultSchedule::write_error(1 + (step.at as u64 % 7));
    let fail = |message| step.fail(Some(fault), message);
    let disk = SharedMemPager::from_snapshot(&step.snap);
    let faulty = FaultInjectingPager::new(Box::new(disk), fault);
    let mut store = XmlStore::open(Box::new(faulty), config)
        .map_err(|e| fail(format!("open for the error probe: {e}")))?;
    let (want, what) = match apply_store(&mut store, &step.ops[0]) {
        Ok(()) => (&step.post, "live store after a survived write error"),
        Err(_) => (&step.pre, "live store after a rolled-back write error"),
    };
    expect_xml(&mut store, want, what).map_err(fail)
}

/// Statistics from a successful corruption-sweep run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CorruptionOutcome {
    pub ops_applied: u64,
    pub ops_skipped: u64,
    /// Corruption injections exercised (one per hit page class/variant).
    pub injections: u64,
    /// Injections where `fsck` repair salvaged the store.
    pub repairs: u64,
}

/// Every page class the sweep rots, referenced or not.
const SWEEP_CLASSES: [PageClass; 6] = [
    PageClass::Header,
    PageClass::Record,
    PageClass::Overflow,
    PageClass::Catalog,
    PageClass::Journal,
    PageClass::Free,
];

/// Corrupt every page class of a committed snapshot — payload bit-rot
/// and checksum-field damage — and assert detect-or-correct, never
/// silently wrong:
///
/// - A strict open + full read either returns exactly the committed
///   document (redundant header slot, unreferenced debris) or fails with
///   a corruption-classified error. Any other document is a failure.
/// - On detection, `fsck` repair must either salvage the store — leaving
///   a clean post-scrub, a degraded read equal to the oracle's partial
///   document, and a damage report that matches the quarantine exactly —
///   or refuse with a fatal finding naming what was lost.
fn corruption_sweep(
    snap: &[u8],
    config: StoreConfig,
    expect_xml: &str,
    step: usize,
    out: &mut CorruptionOutcome,
) -> Result<(), TraceFailure> {
    let fail = |message: String| TraceFailure {
        step,
        fault: None,
        message,
    };
    for (ci, &class) in SWEEP_CLASSES.iter().enumerate() {
        for variant in 0..2u64 {
            let mut branch = SharedMemPager::from_snapshot(snap);
            // Distinct seed per (step, class, variant) so repeated sweeps
            // rot different pages of multi-page classes.
            let seed = (step as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(ci as u64 * 2 + variant);
            let hit = if variant == 0 {
                corrupt_page_of_class(&mut branch, seed, class, 3)
            } else {
                corrupt_checksum_of_class(&mut branch, seed, class)
            }
            .map_err(|e| fail(format!("{class:?} injection failed: {e}")))?;
            let Some(page) = hit else {
                continue; // no page of this class in this snapshot
            };
            out.injections += 1;
            let kind = if variant == 0 { "payload" } else { "checksum" };
            let ctx = format!("{class:?} {kind} corruption on page {page}");

            match XmlStore::open(Box::new(branch.clone()), config).and_then(|mut s| s.to_document())
            {
                Ok(doc) => {
                    let got = doc.to_xml();
                    if got != expect_xml {
                        return Err(fail(format!(
                            "SILENTLY WRONG read after {ctx}\n  got:  {got}\n  want: {expect_xml}"
                        )));
                    }
                    // Tolerated: the damage was redundant (fallback header
                    // slot) or unreferenced debris, and the read stayed
                    // exactly right.
                }
                Err(e) if e.is_corruption() => {
                    let raw = branch.clone();
                    let rep = fsck(&raw, true);
                    if !rep.repaired {
                        if !rep.findings.iter().any(|f| {
                            f.code == "root-unrecoverable" || f.code == "no-catalog-recoverable"
                        }) {
                            return Err(fail(format!(
                                "repair gave up without a fatal finding after {ctx}:\n{rep}"
                            )));
                        }
                        continue;
                    }
                    out.repairs += 1;
                    let post = fsck(&raw, false);
                    if !post.clean() {
                        return Err(fail(format!(
                            "store still dirty after repair of {ctx}:\n{post}"
                        )));
                    }
                    let quarantine: HashSet<u32> = rep.quarantined.iter().copied().collect();
                    let mut degraded = XmlStore::open_read_only(&raw, config)
                        .map_err(|e| fail(format!("degraded reopen after repair of {ctx}: {e}")))?;
                    let (got_doc, damage) = degraded
                        .to_document_degraded()
                        .map_err(|e| fail(format!("degraded read after repair of {ctx}: {e}")))?;
                    let missing = damage.records();
                    if missing != quarantine {
                        return Err(fail(format!(
                            "damage report {missing:?} disagrees with quarantine \
                             {quarantine:?} after {ctx}"
                        )));
                    }
                    // Oracle: a partial read of the undamaged twin minus
                    // exactly the quarantined records.
                    let twin = SharedMemPager::from_snapshot(snap);
                    let mut clean = XmlStore::open(Box::new(twin), config)
                        .map_err(|e| fail(format!("oracle open: {e}")))?;
                    let want = clean
                        .to_document_partial(&missing)
                        .map_err(|e| fail(format!("oracle partial read: {e}")))?
                        .to_xml();
                    if got_doc.to_xml() != want {
                        return Err(fail(format!(
                            "degraded read wrong after repair of {ctx}\n  got:  {}\n  want: {want}",
                            got_doc.to_xml()
                        )));
                    }
                }
                Err(e) => {
                    return Err(fail(format!("non-corruption error after {ctx}: {e}")));
                }
            }
        }
    }
    Ok(())
}

/// Run `trace` like [`run_trace`], but instead of power cuts, rot every
/// page class of every committed state (including the bulkloaded one)
/// and assert detect-or-correct against the model oracle. See
/// [`corruption_sweep`] for the per-injection contract.
pub fn run_corruption_trace(
    doc: &Document,
    k: u64,
    trace: &[Op],
) -> Result<CorruptionOutcome, TraceFailure> {
    let (disk, config, mut store) = fresh(doc, k, StoreConfig::default())?;
    let mut out = CorruptionOutcome::default();
    let bulk_xml = ModelTree::from_document(doc).to_xml();
    corruption_sweep(&disk.snapshot(), config, &bulk_xml, 0, &mut out)?;
    let steps = walk(doc, &disk, trace, 1, |step| {
        mainline(&mut store, step)?;
        // Update ops auto-commit and commits checkpoint, so the snapshot
        // is the complete committed post-state.
        corruption_sweep(&disk.snapshot(), config, &step.post, step.at, &mut out)?;
        Ok(0)
    })?;
    out.ops_applied = steps.ops_applied;
    out.ops_skipped = steps.ops_skipped;
    Ok(out)
}

/// Shrink a failing trace: first truncate to the failing step, then
/// greedily drop ops while the run keeps failing. Returns the trace
/// unchanged if the failure does not reproduce (flaky environments).
pub fn shrink_trace(doc: &Document, k: u64, trace: &[Op], mode: CrashMode) -> Vec<Op> {
    let mut cur: Vec<Op> = trace.to_vec();
    let Err(f) = run_trace(doc, k, &cur, mode) else {
        return cur;
    };
    cur.truncate(f.step + 1);
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if run_trace(doc, k, &cand, mode).is_err() {
                cur = cand;
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            break;
        }
    }
    cur
}

/// A shrunk, replayable failure found by a grid campaign.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The campaign row that found it, and that its script replays.
    pub row: &'static str,
    pub workload: String,
    pub scale: f64,
    pub gen_seed: u64,
    pub k: u64,
    /// Ops per group commit (`group-commit` only; 0 elsewhere).
    pub batch: usize,
    pub fuzz_seed: u64,
    pub step: usize,
    pub fault: Option<FaultSchedule>,
    pub message: String,
    /// The shrunk trace (replaying it with a full sweep reproduces).
    pub trace: Vec<Op>,
}

impl Failure {
    /// Replayable script: a header line naming the row and the cell, plus
    /// one op per line. Feed it to [`crate::replay`].
    pub fn script(&self) -> String {
        let mut s = format!(
            "{} workload {} scale {} gen-seed {} k {}",
            self.row, self.workload, self.scale, self.gen_seed, self.k
        );
        if self.batch > 0 {
            s += &format!(" batch {}", self.batch);
        }
        s.push('\n');
        for op in &self.trace {
            s.push_str(&format_op(op));
            s.push('\n');
        }
        s
    }

    /// A ready-to-paste regression test exercising the shrunk trace.
    pub fn regression_test(&self) -> String {
        let name: String = self
            .workload
            .trim_end_matches(".xml")
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        format!(
            "#[test]\nfn regression_{name}_k{}_seed{}() {{\n    natix_testkit::replay(\n        r#\"\n{}\"#,\n    )\n    .unwrap();\n}}\n",
            self.k,
            self.fuzz_seed,
            self.script()
        )
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let failure = TraceFailure {
            step: self.step,
            fault: self.fault,
            message: self.message.replace('\n', "\n  "),
        };
        writeln!(
            f,
            "{} in {} (k={}, fuzz seed {}) at {failure}",
            self.row, self.workload, self.k, self.fuzz_seed
        )?;
        writeln!(f, "replay script:\n{}", self.script())?;
        writeln!(f, "regression test:\n{}", self.regression_test())
    }
}

/// The grid `soak` and `soak --corruption` sweep.
const QUICK: Grid = Grid {
    scale: 0.001,
    ops_per_run: 6,
    record_limits: &[32],
    batch_sizes: &[0],
};
const FULL: Grid = Grid {
    scale: 0.002,
    ops_per_run: 10,
    record_limits: &[24, 96],
    batch_sizes: &[0],
};

/// The summary line of every campaign that sweeps update traces.
pub(crate) const TRACE_SHAPE: &str =
    "{runs} runs, {ops applied} ops applied ({skipped} skipped), {crash points} crash points, \
     {failures} failure(s)";

/// What one clean cell adds to [`TRACE_SHAPE`]'s counts.
pub(crate) fn trace_counts(o: RunOutcome) -> Counts {
    vec![
        ("ops applied", o.ops_applied),
        ("skipped", o.ops_skipped),
        ("crash points", o.crash_points),
    ]
}

/// `natix soak`: the power-cut sweep of [`run_trace`] over the grid —
/// capped at 8 cuts a step at quick, every write event at full. Failing
/// traces are shrunk before being reported.
pub(crate) static FUZZ: GridRow = GridRow {
    name: "fuzz",
    grids: [QUICK, FULL],
    shape: TRACE_SHAPE,
    cell: fuzz_cell,
};

fn fuzz_cell(cell: &Cell, tier: Tier, progress: &mut Progress) -> Result<Counts, String> {
    let mode = CrashMode::Sweep {
        max_points_per_op: tier.pick(8, 0),
    };
    let doc = &cell.workload.doc;
    let first = match run_trace(doc, cell.k, &cell.trace, mode) {
        Ok(o) => return Ok(trace_counts(o)),
        Err(first) => first,
    };
    progress(&format!(
        "     {} failed at step {}: shrinking...",
        cell.at, first.step
    ));
    let shrunk = shrink_trace(doc, cell.k, &cell.trace, mode);
    let last = run_trace(doc, cell.k, &shrunk, mode).err().unwrap_or(first);
    Err(cell.failure(last, Some(shrunk)))
}

/// `natix soak --corruption`: [`run_corruption_trace`] over the same
/// grid. `crash points` counts corruption injections; failures are
/// reported unshrunk (the trace up to the failing step reproduces them).
pub(crate) static CORRUPTION: GridRow = GridRow {
    name: "corruption",
    grids: [QUICK, FULL],
    shape: TRACE_SHAPE,
    cell: corruption_cell,
};

fn corruption_cell(cell: &Cell, _: Tier, _: &mut Progress) -> Result<Counts, String> {
    match run_corruption_trace(&cell.workload.doc, cell.k, &cell.trace) {
        Ok(o) => Ok(vec![
            ("ops applied", o.ops_applied),
            ("skipped", o.ops_skipped),
            ("crash points", o.injections),
            ("repairs", o.repairs),
        ]),
        Err(f) => Err(cell.failure(f, None)),
    }
}
