//! Replication failover campaign: primary + hot standby + promote.
//!
//! [`repl`] spawns a *primary* `natix serve` child, puts the
//! seeded [`FaultProxy`] in front of it, and spawns a *follower*
//! (`natix serve --replica-of <proxy>`) that must bootstrap and stay
//! caught up **through** the mistreated link (resets, stalls, partial
//! frames). An update storm runs against the primary until it is
//! SIGKILLed at a seeded point — a failover, not a graceful handover.
//! The follower is then promoted and audited:
//!
//! * **Acked-prefix equivalence** — the promoted document contains
//!   exactly a prefix of the update storm, and that prefix covers every
//!   update whose commit epoch is ≤ the follower's applied epoch at
//!   promotion time (an ack over the replication stream is a durability
//!   promise; at most the unacked tail may be missing).
//! * **Integrity** — the promoted store passes a wire `fsck` scrub.
//! * **Fencing** — a crafted divergent batch is refused *before*
//!   promotion with a typed invalid-update (chain mismatch), and
//!   *after* promotion with the typed `fenced` error carrying the
//!   fencing epoch, so a deposed primary can never push the new
//!   primary off its history.
//! * **Role contract** — while a replica, writes get the typed
//!   read-only retry-after and `stats` reports the applied epoch;
//!   after promotion the same daemon accepts writes.
//!
//! Rounds alternate [`ProxyPlan::gentle`] and [`ProxyPlan::harsh`] so
//! both CI-mild and hostile links are swept. This backs
//! `natix soak --repl`.

use std::path::Path;
use std::time::{Duration, Instant};

use natix_server::{Client, ErrKind, Request, ResponseBody, ShedKind, Stats, UpdateOp};
use natix_store::{BatchKind, ReplBatch, PAGE_SIZE};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::harness::{scratch_dir, Plan, Progress, Report};
use crate::net::{served_store, ServeChild};
use crate::proxy::{FaultProxy, ProxyPlan};

/// One part of a batch that can never extend any real history: its
/// `prev_epoch` is far past anything the follower has applied, so the
/// chain check must refuse it (and the fence must after promotion).
fn divergent_part(beyond_epoch: u64) -> Vec<u8> {
    let batch = ReplBatch {
        kind: BatchKind::Incremental,
        prev_epoch: beyond_epoch + 1_000_000,
        epoch: beyond_epoch + 1_000_001,
        pages: vec![(2, Box::new([0u8; PAGE_SIZE]))],
    };
    batch.encode_parts().remove(0)
}

/// A primary's follower count and replication lag in epochs.
fn followers_and_lag(stats: &Stats) -> Result<(u64, u64), String> {
    Ok((
        stats.u64("store.replicate.followers")?,
        stats.u64("store.replicate.lag_epochs")?,
    ))
}

/// Poll the replica until its applied epoch is nonzero (bootstrapped).
fn wait_bootstrap(addr: &str, budget: Duration) -> Result<u64, String> {
    let deadline = Instant::now() + budget;
    let mut last_err = String::from("never connected");
    while Instant::now() < deadline {
        match Client::connect(addr).and_then(|mut c| c.ping()) {
            Ok(epoch) if epoch > 0 => return Ok(epoch),
            Ok(_) => last_err = "applied epoch still 0".to_string(),
            Err(e) => last_err = e.to_string(),
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    Err(format!("replica never bootstrapped: {last_err}"))
}

/// Poll the replica until its applied epoch stops advancing (three
/// identical consecutive polls): with the primary dead, whatever batches
/// were in flight have landed or never will.
fn wait_settle(addr: &str, budget: Duration) -> Result<u64, String> {
    let deadline = Instant::now() + budget;
    let mut c = Client::connect(addr).map_err(|e| format!("settle connect: {e}"))?;
    let mut last = c.ping().map_err(|e| format!("settle ping: {e}"))?;
    let mut stable = 0u32;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(150));
        let now = c.ping().map_err(|e| format!("settle ping: {e}"))?;
        if now == last {
            stable += 1;
            if stable >= 3 {
                return Ok(now);
            }
        } else {
            stable = 0;
            last = now;
        }
    }
    Err("replica applied epoch never settled".to_string())
}

/// One failover round of `updates_per_round` offered updates against a
/// primary seeded with an XMark document of `scale`. Returns `(acked,
/// replicated, promoted)`.
fn repl_round(
    server_bin: &Path,
    seed: u64,
    round: usize,
    updates_per_round: usize,
    scale: f64,
    failures: &mut Vec<String>,
) -> (u64, u64, bool) {
    let fail = |failures: &mut Vec<String>, msg: String| {
        failures.push(format!("round {round}: {msg}"));
    };
    let mut rng = StdRng::seed_from_u64(seed ^ (round as u64).wrapping_mul(0x9E37_79B9));
    let dir = scratch_dir(&format!("repl-{round}"));
    let primary_store = served_store(&dir, scale, seed ^ round as u64);

    let mut primary = match ServeChild::spawn(server_bin, &primary_store, &[]) {
        Ok(c) => c,
        Err(e) => {
            fail(failures, format!("primary: {e}"));
            return (0, 0, false);
        }
    };
    // The replication link runs through the fault proxy; rounds
    // alternate between a mild and a hostile link. The plans are scaled
    // for bulk page streams: the stock gentle/harsh plans chop into
    // 3–7 byte chunks (right for small request frames, pathological for
    // a multi-hundred-KB snapshot part), so these keep MTU-ish
    // fragmentation while still injecting stalls and mid-frame resets.
    let plan_seed = seed ^ (round as u64).rotate_left(17);
    let plan = if round.is_multiple_of(2) {
        ProxyPlan {
            seed: plan_seed,
            max_stall_ms: 10,
            stall_per_mille: 30,
            max_chunk: 1500,
            reset_per_mille: 1,
            bytes_per_sec: 0,
        }
    } else {
        ProxyPlan {
            seed: plan_seed,
            max_stall_ms: 30,
            stall_per_mille: 60,
            max_chunk: 900,
            reset_per_mille: 2,
            bytes_per_sec: 2 * 1024 * 1024,
        }
    };
    let upstream = primary.addr.parse().expect("primary addr parses");
    let proxy = match FaultProxy::start(upstream, plan) {
        Ok(p) => p,
        Err(e) => {
            fail(failures, format!("proxy start: {e}"));
            return (0, 0, false);
        }
    };
    let replica_store = dir.join("replica.natix");
    let replica_of = vec!["--replica-of".to_string(), proxy.addr().to_string()];
    let replica = match ServeChild::spawn(server_bin, &replica_store, &replica_of) {
        Ok(c) => c,
        Err(e) => {
            fail(failures, format!("replica: {e}"));
            return (0, 0, false);
        }
    };

    // The follower must bootstrap through the mistreated link before the
    // storm starts (the snapshot retries across proxy resets).
    if let Err(e) = wait_bootstrap(&replica.addr, Duration::from_secs(30)) {
        fail(failures, e);
        return (0, 0, false);
    }

    // Replica contract while following: writes are refused with the
    // typed read-only retry-after, and stats names the role.
    match Client::connect(replica.addr.as_str()).and_then(|mut c| {
        c.request(&Request::Update {
            target: "/site".to_string(),
            op: UpdateOp::AppendText {
                text: "must not land".to_string(),
            },
        })
    }) {
        Ok(resp) => match resp.body {
            ResponseBody::RetryAfter {
                kind: ShedKind::ReadOnly,
                ..
            } => {}
            other => fail(failures, format!("replica accepted a write: {other:?}")),
        },
        Err(e) => fail(failures, format!("replica write probe: {e}")),
    }
    match Client::connect(replica.addr.as_str()).and_then(|mut c| c.stats()) {
        Ok(s) if s.get("role") == Some("replica") && s.u64("store.epoch").is_ok() => {}
        Ok(s) => fail(failures, format!("not a replica's stats:\n{s}")),
        Err(e) => fail(failures, format!("replica stats: {e}")),
    }

    // The update storm against the primary; the kill lands mid-storm.
    // Each ack records the commit epoch so the audit can split acked
    // updates into "replicated by promotion time" vs "unacked tail".
    let kill_at = rng.gen_range(updates_per_round / 4..updates_per_round);
    let mut acked: Vec<(usize, u64)> = Vec::new();
    let mut lag_line_seen = false;
    match Client::connect(primary.addr.as_str()) {
        Ok(mut w) => {
            for i in 0..updates_per_round {
                if i == kill_at {
                    break;
                }
                let req = Request::Update {
                    target: "/site".to_string(),
                    op: UpdateOp::AppendText {
                        text: format!("repl marker {round}.{i} end"),
                    },
                };
                match w.request_retry(&req, 100) {
                    Ok((resp, _)) if resp.body == ResponseBody::UpdateDone => {
                        acked.push((i, resp.epoch))
                    }
                    Ok((resp, _)) => {
                        fail(failures, format!("update {i}: {resp:?}"));
                        break;
                    }
                    Err(e) => {
                        fail(failures, format!("update {i}: {e}"));
                        break;
                    }
                }
                // Mid-storm: the primary's stats must expose the
                // follower count and replication lag. The follower may
                // be between proxy-induced reconnects on any single
                // poll, so it only has to show up once per round.
                if !lag_line_seen && i % 8 == 4 {
                    if let Ok(stats) = w.stats() {
                        match followers_and_lag(&stats) {
                            Ok((followers, _)) => lag_line_seen = followers == 1,
                            Err(e) => fail(failures, format!("primary stats: {e}")),
                        }
                    }
                }
            }
        }
        Err(e) => fail(failures, format!("writer connect: {e}")),
    }
    if !lag_line_seen {
        // Last chance before the kill: poll a few more times — harsh
        // rounds can keep the follower disconnected for a while.
        for _ in 0..40 {
            if let Ok(stats) = Client::connect(primary.addr.as_str()).and_then(|mut c| c.stats()) {
                if followers_and_lag(&stats).is_ok_and(|(followers, _)| followers == 1) {
                    lag_line_seen = true;
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    if !lag_line_seen {
        fail(
            failures,
            "primary stats never reported the subscribed follower".to_string(),
        );
    }

    // Swept kill points: even (gentle-link) rounds let the follower
    // fully catch up before the kill — then *every* acked update must
    // survive promotion; odd (harsh-link) rounds kill mid-lag, so an
    // unacked replication tail is legitimately lost but the survivors
    // must still form an exact prefix.
    if round.is_multiple_of(2) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut caught_up = false;
        while Instant::now() < deadline {
            if let Ok(stats) = Client::connect(primary.addr.as_str()).and_then(|mut c| c.stats()) {
                // Both figures matter: a momentarily-disconnected
                // follower leaves 0 followers at lag 0, which must not
                // count as caught up.
                if followers_and_lag(&stats) == Ok((1, 0)) {
                    caught_up = true;
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        if !caught_up {
            fail(
                failures,
                "follower never caught up (lag 0) on a gentle link".to_string(),
            );
        }
    }

    // Failover: SIGKILL the primary, let the follower settle.
    primary.kill();
    let applied = match wait_settle(&replica.addr, Duration::from_secs(15)) {
        Ok(a) => a,
        Err(e) => {
            fail(failures, e);
            return (acked.len() as u64, 0, false);
        }
    };

    // A divergent batch must be refused *before* promotion: the chain
    // check, not the fence, catches it (typed invalid-update).
    match Client::connect(replica.addr.as_str()).and_then(|mut c| {
        c.request(&Request::ReplApply {
            payload: divergent_part(applied),
        })
    }) {
        Ok(resp) => match resp.body {
            ResponseBody::Error {
                kind: ErrKind::InvalidUpdate,
                message,
            } if message.contains("chain mismatch") => {}
            other => fail(
                failures,
                format!("divergent batch pre-promote: expected a chain mismatch, got {other:?}"),
            ),
        },
        Err(e) => fail(failures, format!("divergent batch pre-promote: {e}")),
    }

    // Promote. The fencing epoch is the recovery-bumped epoch of the
    // promoted store, so it is at least the applied epoch.
    let fence_epoch = match Client::connect(replica.addr.as_str()).and_then(|mut c| c.promote()) {
        Ok(epoch) => epoch,
        Err(e) => {
            fail(failures, format!("promote: {e}"));
            return (acked.len() as u64, 0, false);
        }
    };
    if fence_epoch < applied {
        fail(
            failures,
            format!("fencing epoch {fence_epoch} below applied epoch {applied}"),
        );
    }

    // Acked-prefix audit: the promoted document holds exactly a prefix
    // of the storm, covering at least every ack with epoch ≤ applied.
    let mut replicated = 0u64;
    match Client::connect(replica.addr.as_str()).and_then(|mut c| c.dump()) {
        Ok((_, xml)) => {
            let mut present = Vec::new();
            for i in 0..updates_per_round {
                let marker = format!("repl marker {round}.{i} end");
                match xml.matches(&marker).count() {
                    0 => {}
                    1 => present.push(i),
                    n => fail(failures, format!("marker {i} appears {n} times")),
                }
            }
            if !present.iter().enumerate().all(|(pos, &i)| pos == i) {
                fail(
                    failures,
                    format!("promoted store holds a non-prefix marker set: {present:?}"),
                );
            }
            for &(i, epoch) in &acked {
                if epoch <= applied {
                    if present.contains(&i) {
                        replicated += 1;
                    } else {
                        fail(
                            failures,
                            format!(
                                "acked update {i} (epoch {epoch} ≤ applied {applied}) \
                                 missing after promotion"
                            ),
                        );
                    }
                } else if present.contains(&i) {
                    // Ahead of the acked cut but still on the promoted
                    // store: fine, it was replicated before the kill.
                    replicated += 1;
                }
            }
        }
        Err(e) => fail(failures, format!("post-promote dump: {e}")),
    }

    // The promoted store must scrub clean over the wire.
    match Client::connect(replica.addr.as_str()).and_then(|mut c| c.fsck()) {
        Ok((clean, report)) => {
            if !clean {
                fail(failures, format!("post-promote fsck:\n{report}"));
            }
        }
        Err(e) => fail(failures, format!("post-promote fsck: {e}")),
    }

    // Fencing: the same divergent batch now gets the typed fenced error
    // carrying the fencing epoch — a deposed primary's pushes bounce.
    match Client::connect(replica.addr.as_str()).and_then(|mut c| {
        c.request(&Request::ReplApply {
            payload: divergent_part(applied),
        })
    }) {
        Ok(resp) => match resp.body {
            ResponseBody::Error {
                kind: ErrKind::Fenced,
                ..
            } => {
                if resp.epoch != fence_epoch {
                    fail(
                        failures,
                        format!(
                            "fenced response carried epoch {} instead of {fence_epoch}",
                            resp.epoch
                        ),
                    );
                }
            }
            other => fail(
                failures,
                format!("divergent batch post-promote: expected fenced, got {other:?}"),
            ),
        },
        Err(e) => fail(failures, format!("divergent batch post-promote: {e}")),
    }

    // The promoted daemon serves writes now.
    match Client::connect(replica.addr.as_str()).and_then(|mut c| {
        c.request_retry(
            &Request::Update {
                target: "/site".to_string(),
                op: UpdateOp::AppendText {
                    text: format!("post-promote marker {round}"),
                },
            },
            50,
        )
    }) {
        Ok((resp, _)) if resp.body == ResponseBody::UpdateDone => {}
        Ok((resp, _)) => fail(failures, format!("post-promote update: {resp:?}")),
        Err(e) => fail(failures, format!("post-promote update: {e}")),
    }

    // Graceful teardown: the promoted daemon drains on a wire shutdown
    // (the replication client thread must not wedge the drain even
    // though its old primary is gone). A failed shutdown falls through
    // to the drop-kill.
    let mut replica = replica;
    match Client::connect(replica.addr.as_str()).and_then(|mut c| c.shutdown_server()) {
        Ok(()) => {
            // Bounded drain wait: a daemon that cannot drain within the
            // budget is a bug (a wedged replication client would show up
            // here) — report it and fall through to the drop-kill.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match replica.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(50))
                    }
                    Ok(None) => {
                        fail(
                            failures,
                            "promoted daemon did not drain within 10s of shutdown".to_string(),
                        );
                        break;
                    }
                    Err(e) => {
                        fail(failures, format!("waiting for drained daemon: {e}"));
                        break;
                    }
                }
            }
        }
        Err(e) => fail(failures, format!("post-promote shutdown: {e}")),
    }
    drop(replica);
    let _ = proxy.stop();
    let _ = std::fs::remove_dir_all(&dir);
    (acked.len() as u64, replicated, true)
}

/// `natix soak --repl`: 2 failover rounds (one gentle link, one harsh)
/// of 30 offered updates over an XMark document of scale 0.002 at
/// quick; 6 rounds of 90 over scale 0.005 at full.
pub(crate) fn repl(plan: &Plan, progress: &mut Progress) -> Report {
    let (rounds, updates, scale) = plan.tier.pick((2, 30, 0.002), (6, 90, 0.005));
    progress(&format!(
        "repl soak: {rounds} failover rounds, {updates} updates offered per round"
    ));
    let mut report = Report::new(
        "{rounds} rounds, {failovers} failovers, {acked updates} acked updates, \
         {on the promoted store} on the promoted store, {failures} failures",
        &plan.seeds,
    );
    for round in 0..rounds {
        let (acked, replicated, promoted) = repl_round(
            plan.server_bin(),
            plan.seeds[0],
            round,
            updates,
            scale,
            &mut report.failures,
        );
        report.add("rounds", 1);
        report.add("failovers", u64::from(promoted));
        report.add("acked updates", acked);
        // The rest were an unacked replication tail: legitimate loss.
        report.add("on the promoted store", replicated);
    }
    report
}
