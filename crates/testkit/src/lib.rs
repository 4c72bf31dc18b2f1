//! Model-based crash/update fuzz harness for the natix store.
//!
//! The harness drives [`natix_store::XmlStore`] and an in-memory oracle
//! ([`ModelTree`]) through identical seeded traces of update operations
//! over the Table 1 evaluation documents and a flat list (the workloads
//! whose records split by subtree eviction and by sibling interval),
//! checking after every step:
//!
//! 1. **Oracle equivalence** — the store serializes to exactly the
//!    oracle's document;
//! 2. **Structural consistency** — the full record-graph validator
//!    (`check_consistency`) passes, including record weight limits;
//! 3. **Crash safety** — replaying the step from a pre-step disk
//!    snapshot with a power cut (clean or torn) at every write event,
//!    then reopening, recovers to the pre- or post-step document; and a
//!    transient write-error probe leaves the *live* handle consistent.
//!
//! Crash recovery is additionally followed by an `fsck` scrub: every
//! power cut must leave a store that both recovers correctly *and*
//! passes the integrity scrubber.
//!
//! A second sweep — [`run_corruption_trace`] — rots every page class of
//! every committed state (payload bit-rot and checksum damage) and
//! asserts detect-or-correct against the oracle: strict reads either
//! return exactly the committed document or fail with a corruption
//! error, and `fsck` repair salvages the survivors with an exact
//! quarantine/damage report.
//!
//! Failing traces are rendered as a line-format script whose header
//! names the row that found them, replayable with [`replay`] through
//! that row's own sweep, plus a ready-to-paste regression test
//! ([`Failure::regression_test`]); the power-cut row shrinks them first.
//!
//! Campaigns are the rows of [`CAMPAIGNS`] — `fuzz`, `corruption`,
//! `group-commit`, `bulkload`, `diskfull`, `serve`, `repl`, `chaos`,
//! `net`, `proxy`, `leak` — each run at a [`Tier`] (quick: the CI smoke
//! tier, seconds; full: the acceptance tier) through
//! [`Campaign::plan`] and [`Plan::run`], each answering with one
//! [`Report`]. Two engines carry five of them. One fault sweep (the
//! private `sweep` module) arms a fault at every write event of every
//! step and checks recovery against the oracle for `fuzz`,
//! `group-commit` and `diskfull`; one client fleet (`net.rs`) drives an
//! in-process server, straight for `net` and through a [`FaultProxy`]
//! for `proxy`. The per-trace drivers are public on their own:
//! [`run_trace`], [`run_corruption_trace`], [`run_group_commit_trace`],
//! [`run_diskfull_trace`] for one trace, [`run_interleaving`] for one
//! seeded schedule, [`FaultProxy`] for one mistreated TCP link.

mod bulk;
mod chaos;
mod exhaust;
mod fuzz;
mod group;
mod harness;
mod model;
mod net;
mod ops;
mod proxy;
mod repl;
mod sweep;

pub use chaos::{run_interleaving, ChaosFailure, InterleavingStats};
pub use exhaust::run_diskfull_trace;
pub use fuzz::{
    min_record_limit, run_corruption_trace, run_trace, shrink_trace, workload_by_name, workloads,
    CorruptionOutcome, CrashMode, Failure, RunOutcome, TraceFailure, Workload,
};
pub use group::run_group_commit_trace;
pub use harness::{
    campaign, is_selector, replay, select, Campaign, Plan, Progress, Report, Tier, CAMPAIGNS,
};
pub use model::ModelTree;
pub use ops::{format_op, generate_trace, name_for, parse_op, text_for, Op};
pub use proxy::{FaultProxy, ProxyPlan, ProxyStats};
