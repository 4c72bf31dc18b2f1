//! Group-commit crash-prefix sweep.
//!
//! Drives [`natix_store::WriteGuard::mutate_batch`] — the serialized
//! writer's group commit — through the shared power-cut sweep of
//! [`crate::sweep`], a batch being one step, with the batch-level
//! oracle:
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
//! `group-commit` row of [`crate::CAMPAIGNS`] over the grid workloads.

use natix_store::{BatchOp, FaultSchedule, SharedStore, StoreConfig, StoreResult, XmlStore};
use natix_xml::Document;

use crate::fuzz::{apply_store, RunOutcome, TraceFailure};
use crate::harness::{Cell, Counts, Grid, GridRow, Progress, Tier};
use crate::ops::Op;
use crate::sweep::{fresh, recover, share, sweep, walk, Ran};

/// Small pool so eviction is active while batches run: the sweep also
/// guards the eviction/group-commit interaction (`fsck` must stay clean
/// with dirty write-back eviction in play).
const SWEEP_POOL_PAGES: usize = 8;

/// Run `trace` against a fresh store, committing ops in batches of
/// `batch_size` through the concurrent writer's group commit, and sweep
/// a power cut across every write event of every batch (capped at
/// `max_points_per_batch` when nonzero), asserting the crash-prefix
/// oracle described in the module docs. `steps` in the outcome counts
/// batches.
pub fn run_group_commit_trace(
    doc: &Document,
    k: u64,
    trace: &[Op],
    batch_size: usize,
    max_points_per_batch: u64,
) -> Result<RunOutcome, TraceFailure> {
    assert!(batch_size > 0, "batch size must be positive");
    let base = StoreConfig {
        buffer_pages: SWEEP_POOL_PAGES,
        ..StoreConfig::default()
    };
    let (disk, config, store) = fresh(doc, k, base)?;
    drop(store);
    walk(doc, &disk, trace, batch_size, |step| {
        // Fault-free mainline: every op must be acked and the committed
        // state must be the post-batch oracle.
        let fail = |message| step.fail(None, message);
        let store = XmlStore::open(Box::new(disk.clone()), config)
            .map_err(|e| fail(format!("mainline open failed: {e}")))?;
        let acks = group_commit(&share(store, &disk, config), &step.ops)
            .map_err(|e| fail(format!("mainline group commit failed: {e}")))?;
        if let Some(e) = acks.iter().find_map(|a| a.as_ref().err()) {
            return Err(fail(format!("mainline op rejected: {e}")));
        }
        let got = recover(&disk, config).map_err(|m| fail(format!("mainline: {m}")))?;
        if got != step.post {
            return Err(fail(format!(
                "mainline: document mismatch\n  got:  {got}\n  want: {}",
                step.post
            )));
        }

        // Power cuts across the whole batch (ops + group commit), clean
        // and torn alternating.
        let torn = |n: u64| (n + step.number).is_multiple_of(2);
        sweep(
            step,
            config,
            max_points_per_batch,
            |n| FaultSchedule::power_cut(n, torn(n)),
            |store, disk| match group_commit(&share(store, disk, config), &step.ops) {
                // The batch ran to completion; per-op acks say which ops
                // are durable. Under a permanent power cut only two ack
                // patterns are legal: every op acked (the flip beat the
                // cut) or none (every op died before staging, so there
                // was nothing to commit and no flip). A *mixed* pattern
                // would mean the flip published a non-prefix subset.
                Ok(acks) => {
                    let acked = acks.iter().filter(|a| a.is_ok()).count();
                    if acked != 0 && acked != acks.len() {
                        return Err(format!(
                            "non-prefix ack pattern: {acked}/{} ops acked under the cut",
                            acks.len()
                        ));
                    }
                    Ok(Ran::until_committed(acked == acks.len()))
                }
                // No acks delivered: the empty prefix is expected, and
                // the full batch is acceptable in the "durable but
                // unreported" window (the cut hit between the header flip
                // and the checkpoint).
                Err(_) => Ok(Ran::until_committed(false)),
            },
        )
    })
}

/// Run `ops` as one group commit through the writer of `shared`.
fn group_commit(shared: &SharedStore, ops: &[Op]) -> StoreResult<Vec<StoreResult<()>>> {
    let batch = ops
        .iter()
        .map(|op| Box::new(move |s: &mut XmlStore| apply_store(s, op)) as BatchOp<'_>)
        .collect();
    shared.begin_write()?.mutate_batch(batch)
}

/// `natix soak --group-commit`: [`run_group_commit_trace`] over the
/// grid — batches of 4 and at most 12 cuts a batch at quick; batches of
/// 4 and 8 and every write event at full.
pub(crate) static GROUP_COMMIT: GridRow = GridRow {
    name: "group-commit",
    grids: [
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
    ],
    shape: "{runs} runs, {batches} batches ({ops} ops, {skipped} skipped), \
            {crash points} crash points, {failures} failure(s)",
    cell: group_cell,
};

fn group_cell(cell: &Cell, tier: Tier, _: &mut Progress) -> Result<Counts, String> {
    let doc = &cell.workload.doc;
    match run_group_commit_trace(doc, cell.k, &cell.trace, cell.batch, tier.pick(12, 0)) {
        Ok(o) => Ok(vec![
            ("batches", o.steps),
            ("ops", o.ops_applied),
            ("skipped", o.ops_skipped),
            ("crash points", o.crash_points),
        ]),
        Err(f) => Err(cell.failure(f, None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::sweep_grid;
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
        assert!(out.steps >= 1);
        assert!(out.crash_points > 0);
    }

    #[test]
    fn quick_campaign_is_clean() {
        // A trimmed quick grid keeps the unit test fast; the CLI's
        // table-walking test and ci.sh run the tiers themselves.
        let trimmed = Grid {
            scale: 0.001,
            ops_per_run: 4,
            record_limits: &[32],
            batch_sizes: &[4],
        };
        let row = GridRow {
            grids: [trimmed, trimmed],
            ..GROUP_COMMIT
        };
        let report = sweep_grid(&row, Tier::Quick, &[1], &mut |_| {});
        assert!(report.ok(), "{}", report.summary());
        assert_eq!(
            report.count("runs"),
            7,
            "one run per workload: Table 1 and flat"
        );
        assert!(report.count("crash points") > 0);
    }
}
