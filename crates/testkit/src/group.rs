//! Group-commit crash-prefix sweep.
//!
//! Drives [`natix_store::WriteGuard::mutate_batch`] — the serialized
//! writer's group commit — through the same model-based power-cut
//! methodology as the per-op sweep in [`crate::run_trace`], with the
//! batch-level oracle:
//!
//! **Crash recovery restores an exact prefix of the acked commits.**
//! A batch publishes every staged op under one journal write and one
//! header flip, and acks are delivered only after the flip, so at every
//! power-cut write event inside the batch the recovered store must hold
//! either the pre-batch state (no acks delivered — the empty prefix) or
//! the full post-batch state (all acks delivered). Any intermediate
//! state — some ops of the batch visible, others lost — is a failure,
//! as is a committed (acked) batch that recovery loses. Recovery is
//! additionally followed by an `fsck` scrub that must come back clean.
//!
//! Entry points: [`run_group_commit_trace`] for one trace, and the
//! `group-commit` row of [`crate::CAMPAIGNS`] over the Table 1 workloads.

use natix_core::Ekm;
use natix_store::{
    fsck, AdmissionConfig, BatchOp, FaultInjectingPager, FaultSchedule, SharedMemPager,
    SharedStore, StoreConfig, StoreResult, XmlStore,
};
use natix_xml::Document;

use crate::fuzz::{apply_model, apply_store, min_record_limit};
use crate::harness::{sweep_grid, Grid, Plan, Progress, Report};
use crate::model::ModelTree;
use crate::ops::Op;

/// Statistics from a successful group-commit sweep run.
#[derive(Clone, Copy, Debug, Default)]
pub struct GroupOutcome {
    /// Batches committed on the fault-free mainline.
    pub batches_committed: u64,
    /// Ops staged and acked across those batches.
    pub ops_applied: u64,
    /// Trace ops skipped as inapplicable.
    pub ops_skipped: u64,
    /// Power-cut crash points swept inside batches.
    pub crash_points: u64,
}

/// A failed batch inside a group-commit sweep.
#[derive(Clone, Debug)]
pub struct GroupFailure {
    /// Index of the failing batch in the trace's batch sequence.
    pub batch: usize,
    /// `Some((n, torn))` when the failure came from the power cut at
    /// write event `n` of the batch.
    pub crash: Option<(u64, bool)>,
    pub message: String,
}

impl std::fmt::Display for GroupFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch {}{}: {}",
            self.batch,
            match self.crash {
                Some((n, torn)) => format!(" (power cut at write {n}, torn={torn})"),
                None => String::new(),
            },
            self.message
        )
    }
}

/// Small pool so eviction is active while batches run: the sweep also
/// guards the eviction/group-commit interaction (`fsck` must stay clean
/// with dirty write-back eviction in play).
const SWEEP_POOL_PAGES: usize = 8;

/// Run `trace` against a fresh store, committing ops in batches of
/// `batch_size` through the concurrent writer's group commit, and sweep
/// a power cut across every write event of every batch (capped at
/// `max_points_per_batch` when nonzero), asserting the crash-prefix
/// oracle described in the module docs.
pub fn run_group_commit_trace(
    doc: &Document,
    k: u64,
    trace: &[Op],
    batch_size: usize,
    max_points_per_batch: u64,
) -> Result<GroupOutcome, GroupFailure> {
    assert!(batch_size > 0, "batch size must be positive");
    let k = k.max(min_record_limit(doc));
    let config = StoreConfig {
        record_limit_slots: k,
        buffer_pages: SWEEP_POOL_PAGES,
    };
    let admission = AdmissionConfig::default();
    let fail = |batch: usize, crash: Option<(u64, bool)>, message: String| GroupFailure {
        batch,
        crash,
        message,
    };

    let disk = SharedMemPager::new();
    let store = natix_store::bulkload_with(doc, &Ekm, k, Box::new(disk.clone()), config)
        .map_err(|e| fail(0, None, format!("bulkload failed: {e}")))?;
    drop(store);
    let mut model = ModelTree::from_document(doc);
    let mut out = GroupOutcome::default();

    let mut idx = 0usize;
    let mut batch_no = 0usize;
    while idx < trace.len() {
        // Select the next batch, advancing a scratch oracle per op so
        // applicability (`skipped`) is judged against the state the op
        // will actually see inside the batch.
        let mut post_model = model.clone();
        let mut batch: Vec<Op> = Vec::new();
        while batch.len() < batch_size && idx < trace.len() {
            let op = trace[idx];
            idx += 1;
            if op.skipped(post_model.element_count()) {
                out.ops_skipped += 1;
                continue;
            }
            apply_model(&mut post_model, &op);
            batch.push(op);
        }
        if batch.is_empty() {
            continue;
        }
        let pre_xml = model.to_xml();
        let post_xml = post_model.to_xml();
        // The previous batch checkpointed (no pins): the snapshot is the
        // complete pre-batch state.
        let snap = disk.snapshot();

        // Fault-free mainline: every op must be acked and the committed
        // state must be the post-batch oracle.
        {
            let shared = SharedStore::open(
                Box::new(disk.clone()),
                Box::new(disk.clone()),
                config,
                admission,
            )
            .map_err(|e| fail(batch_no, None, format!("mainline open failed: {e}")))?;
            let mut guard = shared
                .begin_write()
                .map_err(|e| fail(batch_no, None, format!("mainline begin_write: {e}")))?;
            let acks = guard
                .mutate_batch(batch_ops(&batch))
                .map_err(|e| fail(batch_no, None, format!("mainline group commit failed: {e}")))?;
            for (i, ack) in acks.iter().enumerate() {
                if let Err(e) = ack {
                    return Err(fail(
                        batch_no,
                        None,
                        format!("mainline op {i} rejected: {e}"),
                    ));
                }
            }
            drop(guard);
            let scrub = shared.scrub();
            if !scrub.clean() {
                return Err(fail(
                    batch_no,
                    None,
                    format!("mainline scrub not clean:\n{scrub}"),
                ));
            }
        }
        check_recovered(&disk, config, &post_xml, "mainline")
            .map_err(|m| fail(batch_no, None, m))?;

        // Power-cut sweep: crash at write event n = 1, 2, ... of the
        // whole batch (ops + group commit), alternating clean and torn
        // cuts, until the batch commits under the cut.
        let mut n = 1u64;
        loop {
            if max_points_per_batch > 0 && n > max_points_per_batch {
                break;
            }
            let torn = (n + batch_no as u64).is_multiple_of(2);
            let disk2 = SharedMemPager::from_snapshot(&snap);
            let faulty = FaultInjectingPager::new(
                Box::new(disk2.clone()),
                FaultSchedule::power_cut(n, torn),
            );
            let acked = {
                let shared =
                    SharedStore::open(Box::new(faulty), Box::new(disk2.clone()), config, admission)
                        .map_err(|e| {
                            fail(batch_no, Some((n, torn)), format!("open before cut: {e}"))
                        })?;
                let mut guard = shared
                    .begin_write()
                    .map_err(|e| fail(batch_no, Some((n, torn)), format!("begin_write: {e}")))?;
                match guard.mutate_batch(batch_ops(&batch)) {
                    // `Ok` means the batch ran to completion; per-op acks
                    // say which ops are durable. Under a permanent power
                    // cut only two ack patterns are legal: every op acked
                    // (the flip beat the cut) or no op acked (every op
                    // died before staging, so there was nothing to
                    // commit and no flip). A *mixed* pattern would mean
                    // the flip published a non-prefix subset.
                    Ok(acks) => {
                        let acked = acks.iter().filter(|a| a.is_ok()).count();
                        if acked != 0 && acked != acks.len() {
                            return Err(fail(
                                batch_no,
                                Some((n, torn)),
                                format!(
                                    "non-prefix ack pattern: {acked}/{} ops acked under cut",
                                    acks.len()
                                ),
                            ));
                        }
                        acked == acks.len()
                    }
                    Err(_) => false,
                }
            };
            let got =
                recovered_xml(&disk2, config).map_err(|m| fail(batch_no, Some((n, torn)), m))?;
            let scrub = fsck(&disk2, false);
            if !scrub.clean() {
                return Err(fail(
                    batch_no,
                    Some((n, torn)),
                    format!("post-recovery scrub not clean:\n{scrub}"),
                ));
            }
            out.crash_points += 1;
            if acked {
                // The flip happened before the cut: the whole batch is
                // the only acceptable recovered state.
                if got != post_xml {
                    return Err(fail(
                        batch_no,
                        Some((n, torn)),
                        format!("acked batch lost after crash\n  got: {got}"),
                    ));
                }
                break;
            }
            // No acks delivered: the empty prefix (pre-batch state) is
            // expected; the full post-batch state is also acceptable in
            // the standard "durable but unreported" window (the cut hit
            // between the header flip and the checkpoint, so the commit
            // landed but the error surfaced first). Anything else is a
            // partial batch.
            if got != pre_xml && got != post_xml {
                return Err(fail(
                    batch_no,
                    Some((n, torn)),
                    format!(
                        "crash recovered to a partial batch\n  got:  {got}\n  pre:  {pre_xml}\n  post: {post_xml}"
                    ),
                ));
            }
            n += 1;
            if n > 100_000 {
                return Err(fail(
                    batch_no,
                    Some((n, torn)),
                    "crash sweep did not terminate".to_string(),
                ));
            }
        }

        out.batches_committed += 1;
        out.ops_applied += batch.len() as u64;
        model = post_model;
        batch_no += 1;
    }
    Ok(out)
}

/// The batch as consumable closures for `mutate_batch`.
fn batch_ops(batch: &[Op]) -> Vec<BatchOp<'_>> {
    batch
        .iter()
        .map(|op| {
            Box::new(move |s: &mut XmlStore| apply_store(s, op))
                as Box<dyn FnOnce(&mut XmlStore) -> StoreResult<()> + '_>
        })
        .collect()
}

fn recovered_xml(disk: &SharedMemPager, config: StoreConfig) -> Result<String, String> {
    let mut re = XmlStore::open(Box::new(disk.clone()), config)
        .map_err(|e| format!("recovery open failed: {e}"))?;
    re.check_consistency()
        .map_err(|e| format!("recovered store inconsistent: {e}"))?;
    re.to_document()
        .map(|d| d.to_xml())
        .map_err(|e| format!("recovered serialization: {e}"))
}

fn check_recovered(
    disk: &SharedMemPager,
    config: StoreConfig,
    want: &str,
    what: &str,
) -> Result<(), String> {
    let got = recovered_xml(disk, config)?;
    if got != want {
        return Err(format!(
            "{what}: document mismatch\n  got:  {got}\n  want: {want}"
        ));
    }
    Ok(())
}

/// `natix soak --group-commit`: [`run_group_commit_trace`] over the
/// grid — batches of 4 and at most 12 cuts a batch at quick; batches of
/// 4 and 8 and every write event at full.
pub(crate) fn group_commit(plan: &Plan, progress: &mut Progress) -> Report {
    let grid = plan.tier.pick(
        Grid {
            scale: 0.001,
            ops_per_run: 8,
            record_limits: &[32],
            batch_sizes: &[4],
        },
        Grid {
            scale: 0.002,
            ops_per_run: 16,
            record_limits: &[32],
            batch_sizes: &[4, 8],
        },
    );
    sweep(&grid, plan.tier.pick(12, 0), &plan.seeds, progress)
}

fn sweep(grid: &Grid, max_points_per_batch: u64, seeds: &[u64], progress: &mut Progress) -> Report {
    const SHAPE: &str = "{runs} runs, {batches} batches ({ops} ops, {skipped} skipped), \
                         {crash points} crash points, {failures} failure(s)";
    sweep_grid(grid, SHAPE, seeds, progress, |cell, _| {
        let doc = &cell.workload.doc;
        match run_group_commit_trace(doc, cell.k, &cell.trace, cell.batch, max_points_per_batch) {
            Ok(o) => Ok(vec![
                ("batches", o.batches_committed),
                ("ops", o.ops_applied),
                ("skipped", o.ops_skipped),
                ("crash points", o.crash_points),
            ]),
            Err(f) => Err(format!("{}: {f}", cell.at)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::generate_trace;
    use natix_xml::parse;

    #[test]
    fn group_commit_sweep_holds_on_a_small_trace() {
        let doc = parse(
            "<list><e>one entry of text</e><e>two entry of text</e><e>three entries of text</e></list>",
        )
        .unwrap();
        let trace = generate_trace(7, 6);
        let out = run_group_commit_trace(&doc, 48, &trace, 3, 0).expect("sweep holds");
        assert!(out.batches_committed >= 1);
        assert!(out.crash_points > 0);
    }

    #[test]
    fn quick_campaign_is_clean() {
        // A trimmed quick grid keeps the unit test fast; the CLI's
        // table-walking test and ci.sh run the tiers themselves.
        let grid = Grid {
            scale: 0.001,
            ops_per_run: 4,
            record_limits: &[32],
            batch_sizes: &[4],
        };
        let report = sweep(&grid, 6, &[1], &mut |_| {});
        assert!(report.ok(), "{}", report.summary());
        assert_eq!(report.count("runs"), 6, "one run per Table 1 workload");
        assert!(report.count("crash points") > 0);
    }
}
