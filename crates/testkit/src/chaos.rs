//! Deterministic chaos scheduler for the concurrent store layer.
//!
//! One *interleaving* is a seeded, single-threaded cooperative schedule
//! over a [`SharedStore`]: a writer task applying a fuzz trace through
//! the serialized [`natix_store::WriteGuard`], several reader tasks
//! pinning/holding/verifying snapshots, and an fsck task scrubbing the
//! shared backing pages — all stepped in a seed-derived order, so every
//! interleaving a thread scheduler could produce at commit granularity
//! is reachable from some seed, and every failure replays exactly from
//! its seed.
//!
//! The writer's backend is the bare `FaultInjectingPager` under a
//! seed-chosen fault plan (none, a one-shot write error, a one-shot read
//! error, or a power cut): nothing retries I/O, as on every user path.
//! Readers and the scrubber run over clean pager clones, as independent
//! OS handles would. A read shed by admission control is retried at the
//! reader's next step, as a server's client retries a retry-after.
//!
//! Checked invariants, per step and per run:
//!
//! 1. **Snapshot consistency** — every snapshot read equals the model
//!    oracle at the exact epoch the snapshot pinned, no matter how many
//!    commits, checkpoints, or reclamation rounds interleave before the
//!    read.
//! 2. **Acked ops, exactly** — the writer applies seeded batches of 1–3
//!    ops through [`natix_store::WriteGuard::mutate_batch`]. A batch that
//!    returns `Ok(acks)` committed exactly its acked ops, in order, under
//!    one epoch advance. An op is rejected only by an injected I/O error,
//!    or, once an earlier op of its batch fell out, for targeting the
//!    root. A batch that returns `Err` rolled back: unless its header flip
//!    had landed, the oracle keeps the pre-state and the writer goes on.
//!    Every error is a typed [`ErrorCategory::Io`].
//! 3. **Pinned pages are never freed** —
//!    [`ConcurrencyStats::pinned_free_violations`] must stay zero.
//! 4. **No phantom corruption** — a scrub racing the writer must come
//!    back clean at every step.
//! 5. **Power cuts end the writer** — after a power cut no batch
//!    commits; under every plan a final fault-free reopen recovers exactly
//!    the last committed oracle state.
//!
//! A read error inside the writer's own `XmlStore::open` ends the
//! interleaving early, counted: it must be a typed `Io` error, and a
//! fault-free open of the same disk must read the base document.
//!
//! The store runs under a deliberately tiny buffer pool
//! ([`CHAOS_POOL_PAGES`] frames), so clock eviction with dirty
//! write-back is active throughout every interleaving; the per-run
//! eviction count is part of the deterministic stats.

use natix_core::Ekm;
use natix_store::{
    bulkload_with, fsck, AdmissionConfig, BatchOp, ConcurrencyStats, ErrorCategory,
    FaultInjectingPager, FaultSchedule, SharedMemPager, SharedStore, Snapshot, StoreConfig,
    StoreError, StoreResult, XmlStore,
};
use natix_xml::parse;
use std::collections::HashMap;

use crate::fuzz::{apply_model, apply_store, min_record_limit};
use crate::harness::{Plan, Progress, Report};
use crate::model::ModelTree;
use crate::ops::generate_trace;

/// One invariant violation, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The interleaving's own seed (not the campaign base seed).
    pub seed: u64,
    /// Scheduler step at which the violation was detected.
    pub step: usize,
    /// The fault plan in play.
    pub plan: String,
    /// What went wrong.
    pub what: String,
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chaos: seed {} step {} (plan: {}): {}",
            self.seed, self.step, self.plan, self.what
        )
    }
}

/// Deterministic per-interleaving counters; two executions of the same
/// seed must produce identical values.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct InterleavingStats {
    pub steps: u64,
    pub reads_verified: u64,
    pub commits: u64,
    /// Ops carried by those commits (each commit is a batch of 1–3).
    pub batched_ops: u64,
    /// Batches a one-shot fault failed and rolled back.
    pub rolled_back: u64,
    /// Batches that returned acks with an op a one-shot fault rejected.
    pub rejected: u64,
    /// 1 if a read error failed the writer's own open.
    pub open_failed: u64,
    /// Clock evictions in the writer's buffer pool.
    pub evictions: u64,
    pub reads_shed: u64,
    pub scrubs: u64,
    pub pages_reclaimed: u64,
    pub checkpoints_deferred: u64,
    pub writer_failures: u64,
    pub final_epoch: u64,
    pub final_xml_len: usize,
    pub plan: String,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Buffer-pool budget for every chaos store: small enough that the base
/// document's page set does not fit, so clock eviction (including dirty
/// write-back) runs throughout every interleaving.
pub const CHAOS_POOL_PAGES: usize = 2;

/// The base document every interleaving starts from. Large enough that
/// its page set exceeds [`CHAOS_POOL_PAGES`], so every interleaving runs
/// with eviction active.
const BASE_XML: &str = concat!(
    "<list><e>one entry of text</e><e>two entry of text</e>",
    "<e>three entries of text</e><e>four entries of text</e>",
    "<e>five entries of text</e><e>six entries of text</e>",
    "<e>seven entries of text</e><e>eight entries of text</e>",
    "<e>nine entries of text</e><e>ten entries of text</e>",
    "<e>eleven entries of text</e><e>twelve entries of text</e></list>"
);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultPlan {
    None,
    WriteError(u64),
    ReadError(u64),
    PowerCut(u64),
}

impl FaultPlan {
    fn pick(seed: u64) -> FaultPlan {
        let r = splitmix(seed ^ 0xFA01);
        let at = 1 + splitmix(seed ^ 0xFA02) % 120;
        match r % 4 {
            0 => FaultPlan::None,
            1 => FaultPlan::WriteError(at),
            2 => FaultPlan::ReadError(at),
            _ => FaultPlan::PowerCut(at),
        }
    }

    fn is_permanent(self) -> bool {
        matches!(self, FaultPlan::PowerCut(_))
    }

    fn describe(self) -> String {
        match self {
            FaultPlan::None => "none".into(),
            FaultPlan::WriteError(at) => format!("write-error@{at}"),
            FaultPlan::ReadError(at) => format!("read-error@{at}"),
            FaultPlan::PowerCut(at) => format!("power-cut@{at}"),
        }
    }

    fn schedule(self) -> Option<FaultSchedule> {
        match self {
            FaultPlan::None => None,
            FaultPlan::WriteError(at) => Some(FaultSchedule::write_error(at)),
            FaultPlan::ReadError(at) => Some(FaultSchedule::read_error(at)),
            FaultPlan::PowerCut(at) => Some(FaultSchedule::power_cut(at, false)),
        }
    }
}

/// The committed-state oracle: epoch → serialized document at that
/// epoch. Checkpoints advance the epoch without changing the document,
/// so the map is refreshed from the live epoch at every step boundary.
struct Oracle {
    map: HashMap<u64, String>,
    last_epoch: u64,
    last_xml: String,
}

impl Oracle {
    fn new(shared: &SharedStore, xml: String) -> Oracle {
        let e = shared.committed_epoch();
        let mut map = HashMap::new();
        map.insert(e, xml.clone());
        Oracle {
            map,
            last_epoch: e,
            last_xml: xml,
        }
    }

    /// Record the current committed epoch as carrying `last_xml` (call
    /// after any step that may have advanced the epoch).
    fn sync(&mut self, shared: &SharedStore) {
        let e = shared.committed_epoch();
        if e != self.last_epoch {
            self.last_epoch = e;
            self.map.insert(e, self.last_xml.clone());
        }
    }

    /// A writer op committed: the current epoch carries the new xml.
    fn committed(&mut self, shared: &SharedStore, xml: String) {
        self.last_xml = xml;
        self.last_epoch = shared.committed_epoch();
        self.map.insert(self.last_epoch, self.last_xml.clone());
    }
}

struct HeldSnapshot {
    snap: Snapshot,
    expected: String,
    release_at: usize,
}

/// Run one seeded interleaving; `Err` carries the violation.
pub fn run_interleaving(
    seed: u64,
    steps: usize,
    readers: usize,
) -> Result<InterleavingStats, ChaosFailure> {
    let plan = FaultPlan::pick(seed);
    let fail = |step: usize, what: String| ChaosFailure {
        seed,
        step,
        plan: plan.describe(),
        what,
    };
    // The one error a fault plan may cause: a typed I/O error.
    let injected = |e: &StoreError| plan != FaultPlan::None && e.category() == ErrorCategory::Io;

    // Base state on a clean shared disk.
    let doc = parse(BASE_XML).expect("base xml parses");
    let k = min_record_limit(&doc).max(48);
    let config = StoreConfig {
        record_limit_slots: k,
        buffer_pages: CHAOS_POOL_PAGES,
    };
    let disk = SharedMemPager::new();
    drop(
        bulkload_with(&doc, &Ekm, k, Box::new(disk.clone()), config)
            .map_err(|e| fail(0, format!("bulkload failed: {e}")))?,
    );

    let mut model = ModelTree::from_document(&doc);
    let mut stats = InterleavingStats {
        plan: plan.describe(),
        ..Default::default()
    };

    // The writer reopens through the fault plan; readers and the
    // scrubber get clean clones via the factory.
    let writer_backend: Box<dyn natix_store::Pager> = match plan.schedule() {
        Some(s) => Box::new(FaultInjectingPager::new(Box::new(disk.clone()), s)),
        None => Box::new(disk.clone()),
    };
    let wstore = match XmlStore::open(writer_backend, config) {
        Ok(store) => store,
        Err(e) if injected(&e) => {
            // The read error fired inside open: nothing was written, so
            // a fault-free open reads the base document.
            let xml = XmlStore::open(Box::new(disk.clone()), config)
                .and_then(|mut s| s.to_document())
                .map_err(|e| fail(0, format!("fault-free open after a failed one: {e}")))?
                .to_xml();
            if xml != model.to_xml() {
                return Err(fail(0, "a failed open changed the disk".into()));
            }
            stats.open_failed = 1;
            return Ok(stats);
        }
        Err(e) => return Err(fail(0, format!("writer open failed: {e}"))),
    };
    let admission = AdmissionConfig {
        max_inflight_reads: 1 + (splitmix(seed ^ 0xAD01) % 3) as u32,
    };
    let shared = SharedStore::new(wstore, Box::new(disk.clone()), config, admission);

    // While the guard lives, the writer slot is exclusive.
    let mut guard = shared
        .begin_write()
        .map_err(|e| fail(0, format!("begin_write failed: {e}")))?;
    if shared.begin_write().is_ok() {
        return Err(fail(0, "second writer was admitted".into()));
    }

    let mut oracle = Oracle::new(&shared, model.to_xml());
    let trace = generate_trace(seed, steps);
    let mut next_op = 0usize;
    let mut held: Vec<Option<HeldSnapshot>> = (0..readers).map(|_| None).collect();
    let mut writer_dead = false;

    for step in 0..steps {
        // Releases and opportunistic maintenance may have advanced the
        // epoch (checkpoint) since last step: keep the oracle current.
        oracle.sync(&shared);
        stats.steps += 1;
        // Tasks: 0,1 = writer (double ticket), 2 = fsck, 3.. = readers.
        match (splitmix(seed ^ (step as u64).wrapping_mul(0x51ED)) % (2 + 1 + readers as u64))
            as usize
        {
            0 | 1 => {
                // Writer: a seeded batch of 1–3 trace ops through the
                // guard's group commit — one journal write, one header
                // flip, per-op acks.
                if next_op >= trace.len() {
                    continue;
                }
                let want = 1 + (splitmix(seed ^ (step as u64).wrapping_mul(0xB47C)) % 3) as usize;
                let mut post_model = model.clone();
                let mut batch = Vec::new();
                while batch.len() < want && next_op < trace.len() {
                    let op = trace[next_op];
                    next_op += 1;
                    if op.skipped(post_model.element_count()) {
                        continue;
                    }
                    apply_model(&mut post_model, &op);
                    batch.push(op);
                }
                if batch.is_empty() {
                    continue;
                }
                let ops: Vec<BatchOp<'_>> = batch
                    .iter()
                    .map(|op| {
                        Box::new(move |s: &mut XmlStore| apply_store(s, op))
                            as Box<dyn FnOnce(&mut XmlStore) -> StoreResult<()> + '_>
                    })
                    .collect();
                let commits_before = shared.stats().group_commits;
                match guard.mutate_batch(ops) {
                    Ok(acks) => {
                        // The batch committed its acked ops, in order.
                        let mut acked_model = model.clone();
                        let mut acked = 0;
                        for (op, ack) in batch.iter().zip(&acks) {
                            match ack {
                                Ok(()) => {
                                    apply_model(&mut acked_model, op);
                                    acked += 1;
                                }
                                Err(e) if injected(e) => {}
                                // Once an earlier op fell out, this one
                                // can land on the root.
                                Err(_) if op.skipped(acked_model.element_count()) => {}
                                Err(e) => {
                                    return Err(fail(step, format!("op {op:?} rejected: {e}")));
                                }
                            }
                        }
                        if acked < acks.len() {
                            if plan.is_permanent() {
                                writer_dead = true;
                                stats.writer_failures += 1;
                            } else {
                                stats.rejected += 1;
                            }
                        }
                        if acked > 0 {
                            if writer_dead {
                                return Err(fail(
                                    step,
                                    format!("batch {batch:?} committed after a power cut"),
                                ));
                            }
                            model = acked_model;
                            oracle.committed(&shared, model.to_xml());
                            stats.commits += 1;
                            stats.batched_ops += acked as u64;
                        }
                    }
                    Err(e) if injected(&e) => {
                        if shared.stats().group_commits > commits_before {
                            // The failure came after the flip: the batch
                            // is committed.
                            model = post_model;
                            oracle.committed(&shared, model.to_xml());
                            stats.commits += 1;
                            stats.batched_ops += batch.len() as u64;
                        } else if !plan.is_permanent() {
                            stats.rolled_back += 1;
                        }
                        if plan.is_permanent() {
                            writer_dead = true;
                            stats.writer_failures += 1;
                        }
                    }
                    Err(e) => {
                        return Err(fail(step, format!("batch {batch:?} failed: {e}")));
                    }
                }
            }
            2 => {
                // Scrubber: fsck over a clean pager clone must never see
                // phantom corruption, whatever commit state is in flight.
                let report = shared.scrub();
                if !report.clean() {
                    return Err(fail(step, format!("phantom corruption:\n{report}")));
                }
                stats.scrubs += 1;
            }
            t => {
                let slot = t - 3;
                match held[slot].take() {
                    Some(mut h) => {
                        if step >= h.release_at {
                            // Verify against the oracle at the pinned
                            // epoch, then release.
                            let got = h
                                .snap
                                .document()
                                .map_err(|e| fail(step, format!("snapshot read failed: {e}")))?
                                .to_xml();
                            if got != h.expected {
                                return Err(fail(
                                    step,
                                    format!(
                                        "snapshot at epoch {} diverged from oracle:\n  got: \
                                         {got}\n want: {}",
                                        h.snap.epoch(),
                                        h.expected
                                    ),
                                ));
                            }
                            stats.reads_verified += 1;
                        } else {
                            held[slot] = Some(h);
                        }
                    }
                    None => match shared.begin_read() {
                        Ok(snap) => {
                            let Some(expected) = oracle.map.get(&snap.epoch()).cloned() else {
                                return Err(fail(
                                    step,
                                    format!("pinned uncommitted epoch {}", snap.epoch()),
                                ));
                            };
                            let release_at =
                                step + 1 + (splitmix(seed ^ snap.epoch()) % 6) as usize;
                            held[slot] = Some(HeldSnapshot {
                                snap,
                                expected,
                                release_at,
                            });
                        }
                        // Shed: the slot stays empty, so the reader
                        // retries at its next step.
                        Err(e) if e.is_overload() => stats.reads_shed += 1,
                        Err(e) => {
                            return Err(fail(step, format!("begin_read failed: {e}")));
                        }
                    },
                }
            }
        }
    }

    // Drain: verify and release every held snapshot, drop the writer,
    // run maintenance, and check the end-state invariants.
    for h in held.iter_mut() {
        if let Some(mut h) = h.take() {
            let got = h
                .snap
                .document()
                .map_err(|e| fail(steps, format!("final snapshot read failed: {e}")))?
                .to_xml();
            if got != h.expected {
                return Err(fail(steps, "final snapshot read diverged".into()));
            }
            stats.reads_verified += 1;
        }
    }
    drop(guard);
    // A failed checkpoint stays pending: the reopen below checks it.
    match shared.maintain() {
        Err(e) if !injected(&e) => {
            return Err(fail(steps, format!("final maintenance failed: {e}")));
        }
        _ => {}
    }
    let cstats: ConcurrencyStats = shared.stats();
    if cstats.pinned_free_violations != 0 {
        return Err(fail(
            steps,
            format!(
                "reclaimer freed {} pinned page(s)",
                cstats.pinned_free_violations
            ),
        ));
    }
    stats.pages_reclaimed = cstats.pages_reclaimed;
    stats.checkpoints_deferred = cstats.checkpoints_deferred;
    stats.evictions = shared.buffer_stats().evictions;
    drop(shared);

    // Fault-free reopen: recovery must land exactly on the last
    // committed oracle state, consistent and scrubbing clean.
    let mut re = XmlStore::open(Box::new(disk.clone()), config)
        .map_err(|e| fail(steps, format!("final reopen failed: {e}")))?;
    re.check_consistency()
        .map_err(|e| fail(steps, format!("final state inconsistent: {e}")))?;
    let got = re
        .to_document()
        .map_err(|e| fail(steps, format!("final read failed: {e}")))?
        .to_xml();
    if got != oracle.last_xml {
        return Err(fail(
            steps,
            format!(
                "recovered state is not the last committed state:\n  got: {got}\n want: {}",
                oracle.last_xml
            ),
        ));
    }
    drop(re);
    let scrub = fsck(&disk, false);
    if !scrub.clean() {
        return Err(fail(steps, format!("final scrub not clean:\n{scrub}")));
    }

    stats.final_epoch = oracle.last_epoch;
    stats.final_xml_len = oracle.last_xml.len();
    Ok(stats)
}

/// Concurrent reader tasks of every campaign interleaving.
const READERS: usize = 3;

/// `natix stress`: 150 interleavings of 40 scheduler steps at quick,
/// 1200 of 60 at full (`--runs` replaces the number). Interleaving `i`
/// runs under seed `splitmix(base + i)`, so alone it is the campaign of
/// one run based at `base + i`.
pub(crate) fn chaos(plan: &Plan, progress: &mut Progress) -> Report {
    let base = plan.seeds[0];
    let runs = plan.runs.unwrap_or(plan.tier.pick(150, 1200));
    let steps = plan.tier.pick(40, 60);
    let mut report = Report::new(
        "{interleavings} interleavings ({one-shot-fault} one-shot-fault, \
         {permanent-fault} permanent-fault), {steps} steps, \
         {snapshot reads verified} snapshot reads verified, {group commits} group commits \
         ({ops} ops), {rolled back} rolled back, {with a rejected op} with a rejected op, \
         {open failures} open failures, {evictions} evictions, {shed} shed, \
         {scrubs} scrubs, {pages reclaimed} pages reclaimed, \
         {failures} failures",
        &plan.seeds,
    );
    for i in 0..runs {
        let own_base = base.wrapping_add(i as u64);
        let seed = splitmix(own_base);
        let fault = FaultPlan::pick(seed);
        match run_interleaving(seed, steps, READERS) {
            Ok(s) => {
                report.add("steps", s.steps);
                report.add("snapshot reads verified", s.reads_verified);
                report.add("group commits", s.commits);
                report.add("ops", s.batched_ops);
                report.add("rolled back", s.rolled_back);
                report.add("with a rejected op", s.rejected);
                report.add("open failures", s.open_failed);
                report.add("evictions", s.evictions);
                report.add("shed", s.reads_shed);
                report.add("scrubs", s.scrubs);
                report.add("pages reclaimed", s.pages_reclaimed);
            }
            Err(f) => report.failures.push(format!(
                "{f}\nchaos: reproduce with: {}",
                plan.rerun_with(&[own_base], Some(1))
            )),
        }
        report.add("interleavings", 1);
        // One-shot plans fail one operation, which rolls back; power cuts
        // end the writer, and recovery takes over.
        report.add(
            "one-shot-fault",
            u64::from(!fault.is_permanent() && fault != FaultPlan::None),
        );
        report.add("permanent-fault", u64::from(fault.is_permanent()));
        if (i + 1) % 50 == 0 || i + 1 == runs {
            progress(&format!(
                "chaos: {}/{runs} interleavings, {} reads verified, {} commits, {} failures",
                i + 1,
                report.count("snapshot reads verified"),
                report.count("group commits"),
                report.failures.len()
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{campaign, Tier};

    /// The quick tier based at `seed`, cut to `runs` interleavings.
    fn quick(seed: u64, runs: usize) -> Plan {
        campaign("chaos")
            .unwrap()
            .plan(Tier::Quick, Some(seed), Some(runs), None)
            .unwrap()
    }

    #[test]
    fn interleavings_are_deterministic() {
        for s in [1u64, 7, 0xBEEF] {
            let seed = splitmix(s);
            let a = run_interleaving(seed, 30, 2).unwrap();
            let b = run_interleaving(seed, 30, 2).unwrap();
            assert_eq!(a, b, "seed {seed} diverged between executions");
        }
    }

    #[test]
    fn small_campaign_is_clean_and_covers_all_plans() {
        let report = chaos(&quick(42, 24), &mut |_| {});
        for f in &report.failures {
            eprintln!("{f}");
        }
        let count = |name| report.count(name);
        assert!(report.ok(), "{}", report.summary());
        assert_eq!(count("interleavings"), 24);
        assert!(count("group commits") > 0, "{}", report.summary());
        assert!(count("snapshot reads verified") > 0, "{}", report.summary());
        assert!(count("scrubs") > 0, "{}", report.summary());
        assert!(count("one-shot-fault") > 0, "{}", report.summary());
        assert!(count("permanent-fault") > 0, "{}", report.summary());
        assert!(
            count("ops") >= count("group commits"),
            "{}",
            report.summary()
        );
        // The tiny pool must actually exercise eviction.
        assert!(count("evictions") > 0, "{}", report.summary());
    }

    /// A failing interleaving is reported with its own seed and with the
    /// command that reaches that seed again: a campaign of one run based
    /// at `base + i`, not one based at the interleaving's seed.
    #[test]
    fn failure_report_names_the_seed_and_rerun() {
        let f = ChaosFailure {
            seed: splitmix(90 + 9),
            step: 7,
            plan: "power-cut@3".into(),
            what: "example".into(),
        };
        assert!(f.to_string().contains(&format!("seed {}", f.seed)));
        // Interleaving 9 of the quick campaign based at 90 is rerun by...
        let rerun = quick(90, 150).rerun_with(&[90 + 9], Some(1));
        assert_eq!(rerun, "natix stress --quick --seed 99 --runs 1");
        // ...and what that command runs is this interleaving and no other.
        let alone = chaos(&quick(99, 1), &mut |_| {});
        let direct = run_interleaving(f.seed, 40, READERS).unwrap();
        assert_eq!(alone.count("group commits"), direct.commits);
        assert_eq!(
            alone.count("snapshot reads verified"),
            direct.reads_verified
        );
        assert_eq!(alone.count("pages reclaimed"), direct.pages_reclaimed);
    }
}
