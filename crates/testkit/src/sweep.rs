//! The one fault sweep the trace campaigns share.
//!
//! `fuzz`, `group-commit` and `diskfull` check one thing at every write
//! event of every step of a trace: branch the pre-step disk, arm a
//! [`FaultSchedule`] at write event n = 1, 2, …, drive the step on a
//! [`FaultInjectingPager`], then reopen the surviving disk as a restart
//! would and require the oracle's pre- or post-step document, consistent
//! and `fsck`-clean. [`walk`] cuts a trace into steps against the
//! [`ModelTree`] oracle, [`sweep`] runs that loop over one step, and
//! [`recover`] / [`expect_xml`] are the one recovery check. What a row
//! does inside a step — one op on a plain store, a group commit, a
//! degraded-mode episode — is the runner it hands to [`sweep`].

use natix_core::Ekm;
use natix_store::{
    bulkload_with, fsck, AdmissionConfig, FaultInjectingPager, FaultSchedule, SharedMemPager,
    SharedStore, StoreConfig, XmlStore,
};
use natix_xml::Document;

use crate::fuzz::{apply_model, apply_store, min_record_limit, RunOutcome, TraceFailure};
use crate::model::ModelTree;
use crate::ops::Op;

/// A sweep that has not reached the end of its step by this write event
/// is a bug in the store or in the runner.
const MAX_EVENTS: u64 = 100_000;

/// One step of a trace: up to a batch of applicable ops, with the disk
/// and the oracle documents on either side of it.
pub(crate) struct Step {
    /// Trace index of the step's last op: where a failure is reported,
    /// and where a replay script of the failure ends.
    pub at: usize,
    /// The step's ordinal among the trace's steps.
    pub number: u64,
    pub ops: Vec<Op>,
    /// The disk before the step. The previous commit checkpointed, so
    /// this is the complete pre-step state.
    pub snap: Vec<u8>,
    pub pre: String,
    pub post: String,
}

impl Step {
    /// A failure of this step, under `fault` if one was armed.
    pub(crate) fn fail(&self, fault: Option<FaultSchedule>, message: String) -> TraceFailure {
        TraceFailure {
            step: self.at,
            fault,
            message,
        }
    }
}

/// What a step did under an armed fault.
pub(crate) struct Ran {
    /// The step committed: recovery must land on the post-state. A step
    /// that did not may land on either side of it.
    pub committed: bool,
    /// The fault fired inside the step, so a later write event can too.
    pub more: bool,
}

impl Ran {
    /// A step that died under the fault, or ran past it and committed.
    pub(crate) fn until_committed(committed: bool) -> Ran {
        Ran {
            committed,
            more: !committed,
        }
    }
}

/// A store bulkloaded from `doc` onto a fresh in-memory disk, under
/// record limit `k` clamped up to [`min_record_limit`] and `base`'s pool,
/// and checked against the oracle.
pub(crate) fn fresh(
    doc: &Document,
    k: u64,
    base: StoreConfig,
) -> Result<(SharedMemPager, StoreConfig, XmlStore), TraceFailure> {
    let k = k.max(min_record_limit(doc));
    let config = StoreConfig {
        record_limit_slots: k,
        ..base
    };
    let fail = |message| TraceFailure {
        step: 0,
        fault: None,
        message,
    };
    let disk = SharedMemPager::new();
    let mut store = bulkload_with(doc, &Ekm, k, Box::new(disk.clone()), config)
        .map_err(|e| fail(format!("bulkload failed: {e}")))?;
    expect_xml(
        &mut store,
        &ModelTree::from_document(doc).to_xml(),
        "bulkload",
    )
    .map_err(fail)?;
    Ok((disk, config, store))
}

/// Walk `trace` in steps of up to `batch` ops, applicability judged
/// against the oracle state each op will see, and hand every step to
/// `run`, which answers with the fault points it swept. Ops that do not
/// apply are skipped and counted.
pub(crate) fn walk(
    doc: &Document,
    disk: &SharedMemPager,
    trace: &[Op],
    batch: usize,
    mut run: impl FnMut(&Step) -> Result<u64, TraceFailure>,
) -> Result<RunOutcome, TraceFailure> {
    let mut model = ModelTree::from_document(doc);
    let mut pre = model.to_xml();
    let mut out = RunOutcome::default();
    let mut idx = 0;
    while idx < trace.len() {
        let mut post = model.clone();
        let mut ops = Vec::new();
        while ops.len() < batch && idx < trace.len() {
            let op = trace[idx];
            idx += 1;
            if op.skipped(post.element_count()) {
                out.ops_skipped += 1;
                continue;
            }
            apply_model(&mut post, &op);
            ops.push(op);
        }
        if ops.is_empty() {
            continue;
        }
        let step = Step {
            at: idx - 1,
            number: out.steps,
            ops,
            snap: disk.snapshot(),
            pre,
            post: post.to_xml(),
        };
        out.crash_points += run(&step)?;
        out.steps += 1;
        out.ops_applied += step.ops.len() as u64;
        model = post;
        pre = step.post;
    }
    Ok(out)
}

/// Apply a one-op step to the live store, which must reach the
/// post-state.
pub(crate) fn mainline(store: &mut XmlStore, step: &Step) -> Result<(), TraceFailure> {
    apply_store(store, &step.ops[0]).map_err(|e| step.fail(None, format!("op failed: {e}")))?;
    expect_xml(store, &step.post, "mainline").map_err(|m| step.fail(None, m))
}

/// Sweep `fault(n)` over write events n = 1, 2, … of `step` (at most
/// `max_points` of them when nonzero): `run` drives the step on the
/// store opened over the faulty branch of its snapshot, then the branch
/// is recovered and checked. Stops when `run` says no later event can
/// fire; returns the points swept.
pub(crate) fn sweep(
    step: &Step,
    config: StoreConfig,
    max_points: u64,
    fault: impl Fn(u64) -> FaultSchedule,
    mut run: impl FnMut(XmlStore, &SharedMemPager) -> Result<Ran, String>,
) -> Result<u64, TraceFailure> {
    for n in 1..=MAX_EVENTS {
        if max_points > 0 && n > max_points {
            return Ok(max_points);
        }
        let schedule = fault(n);
        let fail = |message| step.fail(Some(schedule), message);
        let disk = SharedMemPager::from_snapshot(&step.snap);
        let faulty = FaultInjectingPager::new(Box::new(disk.clone()), schedule);
        // The snapshot is checkpointed: opening it writes nothing and
        // must succeed.
        let store = XmlStore::open(Box::new(faulty), config)
            .map_err(|e| fail(format!("open before the fault: {e}")))?;
        let ran = run(store, &disk).map_err(fail)?;
        let got = recover(&disk, config).map_err(fail)?;
        if ran.committed && got != step.post {
            return Err(fail(format!(
                "committed step lost to the fault\n  got:  {got}\n  want: {}",
                step.post
            )));
        }
        if got != step.pre && got != step.post {
            return Err(fail(format!(
                "recovered to a third state\n  got:  {got}\n  pre:  {}\n  post: {}",
                step.pre, step.post
            )));
        }
        if !ran.more {
            return Ok(n);
        }
    }
    Err(step.fail(
        None,
        format!("the sweep did not terminate within {MAX_EVENTS} write events"),
    ))
}

/// `store` shared for one concurrent writer, its snapshot readers on
/// `disk`.
pub(crate) fn share(store: XmlStore, disk: &SharedMemPager, config: StoreConfig) -> SharedStore {
    SharedStore::new(
        store,
        Box::new(disk.clone()),
        config,
        AdmissionConfig::default(),
    )
}

/// The document `store` holds, once the full record-graph check passes.
pub(crate) fn checked_xml(store: &mut XmlStore) -> Result<String, String> {
    store
        .check_consistency()
        .map_err(|e| format!("inconsistent store: {e}"))?;
    store
        .to_document()
        .map(|d| d.to_xml())
        .map_err(|e| format!("serialization failed: {e}"))
}

/// [`checked_xml`], which must be `want`.
pub(crate) fn expect_xml(store: &mut XmlStore, want: &str, what: &str) -> Result<(), String> {
    let got = checked_xml(store).map_err(|m| format!("{what}: {m}"))?;
    if got != want {
        return Err(format!(
            "{what}: document mismatch\n  got:  {got}\n  want: {want}"
        ));
    }
    Ok(())
}

/// Reopen `disk` as a restart would (running recovery), check it, scrub
/// it with `fsck`, and return its document. Crash debris is fine; damage
/// to the committed state is not.
pub(crate) fn recover(disk: &SharedMemPager, config: StoreConfig) -> Result<String, String> {
    let mut store = XmlStore::open(Box::new(disk.clone()), config)
        .map_err(|e| format!("recovery open failed: {e}"))?;
    let xml = checked_xml(&mut store).map_err(|m| format!("recovered {m}"))?;
    drop(store);
    let scrub = fsck(disk, false);
    if !scrub.clean() {
        return Err(format!("post-recovery scrub not clean:\n{scrub}"));
    }
    Ok(xml)
}
