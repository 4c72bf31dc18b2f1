//! Disk-full exhaustion sweeps: the `natix soak --diskfull` campaign.
//!
//! The shared sweep of [`crate::sweep`], but instead of killing the
//! store mid-step it *fills the disk*: every step of a seeded trace is
//! replayed from a pre-step snapshot under a
//! [`FaultSchedule::storage_full`] window starting at write event
//! n = 1, 2, ... and lasting `recover_after` write events. At every
//! injection point the store must:
//!
//! 1. roll the in-flight commit back atomically (reads keep serving the
//!    exact pre-step document while degraded),
//! 2. refuse writes with the typed [`StoreError::ReadOnly`] (never a
//!    torn state, never a crash),
//! 3. resume writes once the space probe sees the window pass, and then
//!    commit the step so the acked state survives exactly once, and
//! 4. leave a disk that reopens consistent and scrubs fsck-clean.
//!
//! Swept across the grid workloads ([`crate::workloads`]) by the
//! `diskfull` row of [`crate::CAMPAIGNS`].

use natix_store::{FaultSchedule, SharedStore, StoreConfig, StoreError};
use natix_xml::Document;

use crate::fuzz::{apply_store, trace_counts, RunOutcome, TraceFailure, TRACE_SHAPE};
use crate::harness::{Cell, Counts, Grid, GridRow, Progress, Tier};
use crate::ops::Op;
use crate::sweep::{fresh, mainline, share, sweep, walk, Ran};

/// One degraded-mode episode: apply `op` through `shared`, which sits on
/// a storage-full window. Returns `Ok(true)` if the window fired (the
/// store degraded and recovered), `Ok(false)` if the injection point was
/// past the step's write activity (sweep is done).
fn diskfull_episode(
    shared: &SharedStore,
    op: &Op,
    cur_xml: &str,
    post_xml: &str,
    recover_after: u64,
) -> Result<bool, String> {
    // Pin a reader before the exhaustion hits: it must serve the
    // pre-step document throughout the degraded window.
    let mut pinned = shared
        .begin_read()
        .map_err(|e| format!("pre-episode pin: {e}"))?;

    let first = {
        let mut w = shared
            .begin_write()
            .map_err(|e| format!("first begin_write: {e}"))?;
        w.mutate(|s| apply_store(s, op))
    };
    match first {
        Ok(()) => {
            // The window never intersected the step's writes.
            let s = shared.stats();
            if s.read_only_entered != 0 {
                return Err("op succeeded but the store reports a degraded episode".to_string());
            }
            Ok(false)
        }
        Err(StoreError::ReadOnly { .. }) => {
            // Degraded. The failed commit must have rolled back: both the
            // pre-pinned reader and a fresh read serve the pre-step state.
            if shared.read_only_reason().is_none() {
                return Err("ReadOnly error without a degraded store".to_string());
            }
            let pinned_xml = pinned
                .document()
                .map_err(|e| format!("pinned read while degraded: {e}"))?
                .to_xml();
            if pinned_xml != cur_xml {
                return Err(format!(
                    "pinned read changed under a rolled-back commit\n  got: {pinned_xml}"
                ));
            }
            let fresh_xml = shared
                .begin_read()
                .and_then(|mut s| s.document())
                .map_err(|e| format!("fresh read while degraded: {e}"))?
                .to_xml();
            if fresh_xml != cur_xml {
                return Err(format!(
                    "degraded store serves a torn state\n  got:  {fresh_xml}\n  want: {cur_xml}"
                ));
            }

            // Write resume: every refused begin_write runs a space probe,
            // and each probe is a write event marching the window closed.
            let mut resumed = false;
            for _ in 0..recover_after.saturating_mul(2) + 8 {
                match shared.begin_write() {
                    Ok(mut w) => {
                        w.mutate(|s| apply_store(s, op))
                            .map_err(|e| format!("post-recovery apply: {e}"))?;
                        resumed = true;
                        break;
                    }
                    Err(StoreError::ReadOnly { .. }) => {}
                    Err(e) => return Err(format!("begin_write while degraded: {e}")),
                }
            }
            if !resumed {
                return Err(format!(
                    "writes did not resume within the {recover_after}-event recovery window"
                ));
            }
            let s = shared.stats();
            if s.read_only_entered != 1 || s.read_only_recovered != 1 {
                return Err(format!(
                    "degraded lifecycle miscounted: entered {} recovered {}",
                    s.read_only_entered, s.read_only_recovered
                ));
            }
            // The resumed commit is the ack: it must be visible exactly
            // once, while the pre-episode pin still serves its epoch.
            let got = shared
                .begin_read()
                .and_then(|mut s| s.document())
                .map_err(|e| format!("post-recovery read: {e}"))?
                .to_xml();
            if got != post_xml {
                return Err(format!(
                    "post-recovery state wrong\n  got:  {got}\n  want: {post_xml}"
                ));
            }
            let pinned_still = pinned
                .document()
                .map_err(|e| format!("pinned read after recovery: {e}"))?
                .to_xml();
            if pinned_still != cur_xml {
                return Err("recovery moved a pinned snapshot".to_string());
            }
            Ok(true)
        }
        Err(e) => Err(format!("step under storage-full failed untyped: {e}")),
    }
}

/// Run `trace` with a storage-full sweep: every step is replayed from a
/// pre-step snapshot with the disk filling at write event 1, 2, ... (see
/// the module docs for the per-point contract). `crash_points` in the
/// outcome counts injection points exercised.
pub fn run_diskfull_trace(
    doc: &Document,
    k: u64,
    trace: &[Op],
    recover_after: u64,
    max_points_per_op: u64,
) -> Result<RunOutcome, TraceFailure> {
    let (disk, config, mut store) = fresh(doc, k, StoreConfig::default())?;
    walk(doc, &disk, trace, 1, |step| {
        mainline(&mut store, step)?;
        sweep(
            step,
            config,
            max_points_per_op,
            |n| FaultSchedule::storage_full(n, recover_after),
            |store, disk| {
                let shared = share(store, disk, config);
                let (op, pre, post) = (&step.ops[0], &step.pre, &step.post);
                // Every episode ends with the step committed; one whose
                // window opened past the step's writes ends the sweep.
                let fired = diskfull_episode(&shared, op, pre, post, recover_after)?;
                Ok(Ran {
                    committed: true,
                    more: fired,
                })
            },
        )
    })
}

/// `natix soak --diskfull`: [`run_diskfull_trace`] over the grid. The
/// storage-full window lasts 3 write events and the sweep is capped at
/// 4 points a step at quick; 4 events and every write event at full.
/// `crash points` counts injection points; failures are reported
/// unshrunk (the trace up to the failing step reproduces them).
pub(crate) static DISKFULL: GridRow = GridRow {
    name: "diskfull",
    grids: [
        Grid {
            scale: 0.001,
            ops_per_run: 4,
            record_limits: &[32],
            batch_sizes: &[0],
        },
        Grid {
            scale: 0.002,
            ops_per_run: 8,
            record_limits: &[24, 96],
            batch_sizes: &[0],
        },
    ],
    shape: TRACE_SHAPE,
    cell: diskfull_cell,
};

fn diskfull_cell(cell: &Cell, tier: Tier, _: &mut Progress) -> Result<Counts, String> {
    let (recover_after, max_points_per_op) = tier.pick((3, 4), (4, 0));
    let doc = &cell.workload.doc;
    match run_diskfull_trace(doc, cell.k, &cell.trace, recover_after, max_points_per_op) {
        Ok(o) => Ok(trace_counts(o)),
        Err(f) => Err(cell.failure(f, None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::generate_trace;

    #[test]
    fn diskfull_sweep_survives_one_workload() {
        let w = crate::workload_by_name("SigmodRecord.xml", 0.001, 1).expect("workload");
        let trace = generate_trace(7, 3);
        let out = run_diskfull_trace(&w.doc, 32, &trace, 3, 3).expect("diskfull trace");
        assert!(out.crash_points > 0, "sweep exercised no injection points");
    }
}
