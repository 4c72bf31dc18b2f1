//! Crash-recovery tests: power cuts (clean and torn) at *every* write
//! event of an update operation must leave a page file that reopens to
//! either the pre- or the post-operation state, with a fully consistent
//! record graph. One-shot I/O errors, failed barriers included, must roll
//! the live store back and never cost an acked commit.

use natix_core::Ekm;
use natix_store::{
    bulkload_with, fsck, AdmissionConfig, BatchOp, FaultInjectingPager, FaultSchedule, NodeRef,
    Pager, SharedMemPager, SharedStore, StoreConfig, StoreError, StoreResult, XmlStore,
};
use natix_xml::{parse, NodeKind};

/// Bulkload `xml` onto a shared in-memory disk; returns the disk snapshot
/// and the document serialization.
fn base(xml: &str, k: u64) -> (Vec<u8>, String) {
    let doc = parse(xml).unwrap();
    let disk = SharedMemPager::new();
    let store = bulkload_with(
        &doc,
        &Ekm,
        k,
        Box::new(disk.clone()),
        StoreConfig {
            record_limit_slots: k,
            ..Default::default()
        },
    )
    .unwrap();
    drop(store);
    (disk.snapshot(), doc.to_xml())
}

fn find_element(store: &mut XmlStore, name: &str) -> Option<NodeRef> {
    let want = store.label_id(name)?;
    let root = store.root().unwrap();
    let mut stack = vec![root];
    while let Some(r) = stack.pop() {
        if store.node_label(r).unwrap() == want {
            return Some(r);
        }
        let mut kids = Vec::new();
        store
            .for_each_child(r, |c, kind, _| {
                if kind == NodeKind::Element {
                    kids.push(c);
                }
            })
            .unwrap();
        stack.extend(kids);
    }
    None
}

/// Run `op` against a store reopened from `snap` with a power cut at every
/// write event (clean and torn). After each crash, reopening from the
/// surviving bytes must yield a consistent store equal to the pre- or
/// post-state. Returns the number of crash points exercised.
fn crash_sweep(snap: &[u8], xml_pre: &str, op: impl Fn(&mut XmlStore) -> StoreResult<()>) -> u64 {
    // Post-state, from a fault-free run.
    let xml_post = {
        let disk = SharedMemPager::from_snapshot(snap);
        let mut store = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
        op(&mut store).unwrap();
        drop(store);
        let mut re = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
        re.check_consistency().unwrap();
        re.to_document().unwrap().to_xml()
    };
    assert_ne!(xml_post, xml_pre, "op must change the document");

    let mut points = 0;
    for torn in [false, true] {
        let mut n = 1u64;
        loop {
            let disk = SharedMemPager::from_snapshot(snap);
            let faulty =
                FaultInjectingPager::new(Box::new(disk.clone()), FaultSchedule::power_cut(n, torn));
            let mut store = XmlStore::open(Box::new(faulty), StoreConfig::default()).unwrap();
            let r = op(&mut store);
            drop(store);
            // Restart: recovery must produce a consistent store.
            let mut re = XmlStore::open(Box::new(disk.clone()), StoreConfig::default())
                .unwrap_or_else(|e| panic!("reopen failed at n={n} torn={torn}: {e}"));
            re.check_consistency()
                .unwrap_or_else(|e| panic!("inconsistent at n={n} torn={torn}: {e}"));
            let got = re.to_document().unwrap().to_xml();
            // Recovery checkpoints, so a scrub of the recovered bytes
            // must come back clean at every crash point.
            drop(re);
            let scrub = fsck(&disk, false);
            assert!(
                scrub.clean(),
                "post-recovery scrub not clean at n={n} torn={torn}:\n{scrub}"
            );
            points += 1;
            if r.is_ok() {
                // The cut never fired: the op committed in fewer writes.
                assert_eq!(got, xml_post, "n={n} torn={torn}");
                break;
            }
            assert!(
                got == xml_pre || got == xml_post,
                "crash at n={n} torn={torn} left a third state:\n  got: {got}\n  pre: {xml_pre}\n post: {xml_post}"
            );
            n += 1;
            assert!(n < 10_000, "crash sweep did not terminate");
        }
    }
    points
}

/// A fresh load has no pre-state to fall back to: a power cut at any
/// write event of `bulkload_with` must leave either no valid header (the
/// file is not a store yet) or the whole store. A header that reaches
/// the disk ahead of the pages it names is the failure this pins.
#[test]
fn fresh_bulkload_survives_power_cut_at_every_write() {
    let entries: String = (0..400)
        .map(|i| format!("<e id=\"{i}\">entry number {i} of the fresh load</e>"))
        .collect();
    let doc = parse(&format!("<list>{entries}</list>")).unwrap();
    let want = doc.to_xml();
    let config = StoreConfig {
        record_limit_slots: 32,
        ..Default::default()
    };
    let (mut refused, mut whole) = (0u64, 0u64);
    for torn in [false, true] {
        let mut n = 1u64;
        loop {
            let disk = SharedMemPager::new();
            let faulty =
                FaultInjectingPager::new(Box::new(disk.clone()), FaultSchedule::power_cut(n, torn));
            let loaded = bulkload_with(&doc, &Ekm, 32, Box::new(faulty), config).is_ok();
            match XmlStore::open(Box::new(disk.clone()), config) {
                Ok(mut store) => {
                    store
                        .check_consistency()
                        .unwrap_or_else(|e| panic!("cut at n={n} torn={torn}: {e}"));
                    let got = store.to_document().unwrap().to_xml();
                    assert!(got == want, "cut at n={n} torn={torn}: dump differs");
                    drop(store);
                    let scrub = fsck(&disk, false);
                    assert!(scrub.clean(), "cut at n={n} torn={torn}:\n{scrub}");
                    whole += 1;
                }
                Err(e) => {
                    assert!(!loaded, "a finished load did not reopen: {e}");
                    assert!(
                        e.to_string().contains("no valid header slot")
                            || disk.clone().page_count() < 2,
                        "cut at n={n} torn={torn} refused for another reason: {e}"
                    );
                    refused += 1;
                }
            }
            if loaded {
                break; // the cut lay past the load's last write
            }
            n += 1;
            assert!(n < 10_000, "crash sweep did not terminate");
        }
    }
    assert!(refused > 20, "the load wrote too few pages to be swept");
    assert!(whole >= 2, "no cut landed on or after the header write");
}

#[test]
fn append_survives_power_cut_at_every_write() {
    let (snap, xml_pre) = base("<a><b/><c/></a>", 64);
    crash_sweep(&snap, &xml_pre, |store| {
        let root = store.root()?;
        store
            .append_child(root, NodeKind::Text, "#text", Some("crash me please"))
            .map(|_| ())
    });
}

#[test]
fn splitting_append_survives_power_cut_at_every_write() {
    // Small K: the append overflows the root record and forces a split —
    // the multi-record rewrite is the interesting crash window.
    let (snap, xml_pre) = base(
        "<list><e>one entry of text</e><e>two entry of text</e><e>three entries</e></list>",
        16,
    );
    let points = crash_sweep(&snap, &xml_pre, |store| {
        let root = store.root()?;
        store
            .append_child(root, NodeKind::Text, "#text", Some("heavy payload text"))
            .map(|_| ())
    });
    assert!(points > 10, "expected a real write window, got {points}");
}

#[test]
fn delete_spanning_records_survives_power_cut_at_every_write() {
    let (snap, xml_pre) = base(
        concat!(
            "<a><b><p>a rather long run of text that will not fit</p>",
            "<q>another rather long run of text that will not fit</q></b>",
            "<c><r>yet another rather long run of text here</r></c></a>",
        ),
        8,
    );
    crash_sweep(&snap, &xml_pre, |store| {
        let b = find_element(store, "b").expect("b exists");
        store.delete_subtree(b)
    });
}

#[test]
fn insert_before_fragment_root_survives_power_cut() {
    let (snap, xml_pre) = base(
        "<a><b>some text content here</b><c>more text content here</c></a>",
        12,
    );
    crash_sweep(&snap, &xml_pre, |store| {
        let c = find_element(store, "c").expect("c exists");
        store
            .insert_before(c, NodeKind::Element, "mid", None)
            .map(|_| ())
    });
}

#[test]
fn transient_write_error_rolls_back_the_live_store() {
    let (snap, xml_pre) = base("<a><b/><c/></a>", 64);
    let xml_post = {
        let disk = SharedMemPager::from_snapshot(&snap);
        let mut store = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
        let root = store.root().unwrap();
        store
            .append_child(root, NodeKind::Element, "d", None)
            .unwrap();
        store.to_document().unwrap().to_xml()
    };
    let mut n = 1u64;
    loop {
        let disk = SharedMemPager::from_snapshot(&snap);
        let faulty =
            FaultInjectingPager::new(Box::new(disk.clone()), FaultSchedule::write_error(n));
        let mut store = XmlStore::open(Box::new(faulty), StoreConfig::default()).unwrap();
        let root = store.root().unwrap();
        let r = store.append_child(root, NodeKind::Element, "d", None);
        // Whatever happened, the *same live handle* must be usable and in
        // the pre- or post-state (transient faults don't kill the store).
        store.check_consistency().unwrap();
        let got = store.to_document().unwrap().to_xml();
        assert!(
            got == xml_pre || got == xml_post,
            "write error at {n} left a third live state: {got}"
        );
        // And so must a store reopened from disk.
        drop(store);
        let mut re = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
        re.check_consistency().unwrap();
        let disk_xml = re.to_document().unwrap().to_xml();
        assert!(disk_xml == xml_pre || disk_xml == xml_post, "n={n}");
        if r.is_ok() {
            break;
        }
        n += 1;
        assert!(n < 10_000, "error sweep did not terminate");
    }
}

#[test]
fn transient_read_error_is_survivable() {
    let (snap, xml_pre) = base("<a><b>text payload</b><c/></a>", 32);
    for n in 1..40u64 {
        let disk = SharedMemPager::from_snapshot(&snap);
        let faulty = FaultInjectingPager::new(Box::new(disk.clone()), FaultSchedule::read_error(n));
        // The read error may hit open() itself: that must be a clean error.
        let Ok(mut store) = XmlStore::open(Box::new(faulty), StoreConfig::default()) else {
            continue;
        };
        let r = (|| -> StoreResult<()> {
            let root = store.root()?;
            store
                .append_child(root, NodeKind::Element, "d", None)
                .map(|_| ())
        })();
        drop(store);
        let mut re = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
        re.check_consistency().unwrap();
        let got = re.to_document().unwrap().to_xml();
        if r.is_err() {
            assert_eq!(got, xml_pre, "failed op must leave the pre-state, n={n}");
        }
    }
}

/// Append a `name` element as the last child of the first `parent`.
fn append_under(store: &mut XmlStore, parent: &str, name: &str) -> StoreResult<()> {
    let p = find_element(store, parent).expect("parent exists");
    store
        .append_child(p, NodeKind::Element, name, None)
        .map(|_| ())
}

/// A fault-free reopen of `disk` is consistent, reads `want` and scrubs
/// clean.
fn assert_reopens_to(disk: &SharedMemPager, want: &str, ctx: &str) {
    let mut re = XmlStore::open(Box::new(disk.clone()), StoreConfig::default())
        .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
    re.check_consistency()
        .unwrap_or_else(|e| panic!("{ctx}: reopened store inconsistent: {e}"));
    assert_eq!(re.to_document().unwrap().to_xml(), want, "{ctx}");
    drop(re);
    let scrub = fsck(disk, false);
    assert!(scrub.clean(), "{ctx}:\n{scrub}");
}

/// A failed barrier never costs an acked commit. `Fault::SyncError`
/// fails one `sync` and drops every write since the last good one, as
/// Linux may do to unsynced pages. Commit A appends ten elements under
/// `b` in one batch, a rejected op rolls back, and commit B appends one
/// element under `c`; the sweep fails each barrier of A and B in turn.
/// Through a `SharedStore`, a snapshot pinned from A's end to B's end
/// keeps a failed checkpoint of A pending across B, and must read A's
/// committed state throughout; a bare store checkpoints in line. Either
/// way a fault-free reopen equals the live store's committed state.
#[test]
fn failed_barrier_never_costs_an_acked_commit() {
    let (snap, xml_pre) = base(
        "<a><b><p>some text content in b</p></b><c><q>some text content in c</q></c></a>",
        16,
    );
    let xml_a = {
        let mut store = XmlStore::open(
            Box::new(SharedMemPager::from_snapshot(&snap)),
            StoreConfig::default(),
        )
        .unwrap();
        for i in 0..10 {
            append_under(&mut store, "b", &format!("a{i}")).unwrap();
        }
        store.to_document().unwrap().to_xml()
    };
    let faulty = |at: u64| -> (SharedMemPager, XmlStore) {
        let disk = SharedMemPager::from_snapshot(&snap);
        let pager = FaultInjectingPager::new(Box::new(disk.clone()), FaultSchedule::sync_error(at));
        let store = XmlStore::open(Box::new(pager), StoreConfig::default()).unwrap();
        (disk, store)
    };
    let reject = |s: &mut XmlStore| -> StoreResult<()> {
        let root = s.root()?;
        s.delete_subtree(root)
    };

    let mut at = 1u64;
    loop {
        let (disk, store) = faulty(at);
        let shared = SharedStore::new(
            store,
            Box::new(disk.clone()),
            StoreConfig::default(),
            AdmissionConfig::default(),
        );
        let mut writer = shared.begin_write().unwrap();
        let a = writer.mutate_batch(
            (0..10)
                .map(|i| {
                    Box::new(move |s: &mut XmlStore| append_under(s, "b", &format!("a{i}")))
                        as BatchOp<'_>
                })
                .collect(),
        );
        // A commit under a deferring writer is acked once its flip lands.
        let a_acked = shared.stats().group_commits == 1;
        assert_eq!(a.is_ok(), a_acked, "at={at}: {a:?}");
        let want_a = if a_acked { &xml_a } else { &xml_pre };
        let mut pin = shared.begin_read().unwrap();
        assert_eq!(pin.document().unwrap().to_xml(), *want_a, "at={at}");
        let err = writer.mutate(reject).unwrap_err();
        assert!(matches!(err, StoreError::InvalidUpdate(_)), "{err}");
        let b = writer.mutate(|s| append_under(s, "c", "z"));
        assert_eq!(pin.document().unwrap().to_xml(), *want_a, "at={at}");
        drop(pin);
        drop(writer);
        let live = shared.begin_read().unwrap().document().unwrap().to_xml();
        assert_eq!(live.contains("<z/>"), b.is_ok(), "at={at}");
        let fired = a.is_err() || b.is_err() || shared.stats().maintenance_errors > 0;
        drop(shared);
        assert_reopens_to(&disk, &live, &format!("shared, sync error at {at}"));
        if !fired {
            break;
        }
        at += 1;
    }
    assert!(at > 6, "A and B pass only {} barriers", at - 1);

    let mut at = 1u64;
    loop {
        let (disk, mut store) = faulty(at);
        let before = store.current_epoch();
        store.begin_batch().unwrap();
        for i in 0..10 {
            append_under(&mut store, "b", &format!("a{i}")).unwrap();
        }
        // A failed checkpoint reports an error after the flip.
        let a = store.commit_batch();
        let want_a = if store.current_epoch() > before {
            &xml_a
        } else {
            &xml_pre
        };
        assert_eq!(store.to_document().unwrap().to_xml(), *want_a, "at={at}");
        let err = reject(&mut store).unwrap_err();
        assert!(matches!(err, StoreError::InvalidUpdate(_)), "{err}");
        let b = append_under(&mut store, "c", "z");
        let live = store.to_document().unwrap().to_xml();
        drop(store);
        assert_reopens_to(&disk, &live, &format!("bare, sync error at {at}"));
        if a.is_ok() && b.is_ok() {
            break;
        }
        at += 1;
    }
    assert!(at > 6, "A and B pass only {} barriers", at - 1);
}

#[test]
fn second_recovery_after_crash_before_header_flip_is_a_no_op() {
    // Crash an op after its commit point (journal header is the winner),
    // run a first recovery that replays the journal fully but crashes at
    // the very write that re-persists the journal-free header, then
    // recover again. The second replay writes the same images over the
    // same pages: outside the two header slots it must not change a byte.
    let (snap, _xml_pre) = base(
        "<list><e>one entry of text</e><e>two entry of text</e></list>",
        16,
    );
    let mut exercised = 0;
    for n in 1..200u64 {
        let disk = SharedMemPager::from_snapshot(&snap);
        let faulty =
            FaultInjectingPager::new(Box::new(disk.clone()), FaultSchedule::power_cut(n, false));
        let mut store = XmlStore::open(Box::new(faulty), StoreConfig::default()).unwrap();
        let root = store.root().unwrap();
        let r = store.append_child(root, NodeKind::Text, "#text", Some("heavy payload text"));
        drop(store);
        if r.is_ok() {
            break;
        }
        let crashed = disk.snapshot();
        // Keep only crash points where the commit point was passed: a
        // clean recovery must land in the post-state (journal replayed).
        {
            let probe = SharedMemPager::from_snapshot(&crashed);
            let mut re = XmlStore::open(Box::new(probe.clone()), StoreConfig::default()).unwrap();
            if !re
                .to_document()
                .unwrap()
                .to_xml()
                .contains("heavy payload text")
            {
                continue;
            }
        }
        // Find the write count of a full recovery: the last m whose cut
        // still fires is the header-flip write itself — recovery replayed
        // every journal page and died re-persisting the header.
        let mut m_last_fault = 0;
        for m in 1..200u64 {
            let d = SharedMemPager::from_snapshot(&crashed);
            let f =
                FaultInjectingPager::new(Box::new(d.clone()), FaultSchedule::power_cut(m, false));
            if XmlStore::open(Box::new(f), StoreConfig::default()).is_ok() {
                break;
            }
            m_last_fault = m;
        }
        assert!(m_last_fault > 0, "recovery performed no writes at n={n}");
        let d = SharedMemPager::from_snapshot(&crashed);
        let f = FaultInjectingPager::new(
            Box::new(d.clone()),
            FaultSchedule::power_cut(m_last_fault, false),
        );
        let _ = XmlStore::open(Box::new(f), StoreConfig::default());
        let mid = d.snapshot();

        // Second, fault-free recovery.
        let d2 = SharedMemPager::from_snapshot(&mid);
        let mut re = XmlStore::open(Box::new(d2.clone()), StoreConfig::default()).unwrap();
        re.check_consistency().unwrap();
        assert!(re
            .to_document()
            .unwrap()
            .to_xml()
            .contains("heavy payload text"));
        drop(re);
        let after = d2.snapshot();
        assert_eq!(mid.len(), after.len(), "second recovery allocated pages");
        const P: usize = natix_store::PAGE_SIZE;
        for (i, (a, b)) in mid.chunks(P).zip(after.chunks(P)).enumerate() {
            if i >= 2 {
                assert_eq!(a, b, "n={n}: second replay rewrote data page {i}");
            }
        }
        // And a third open changes nothing at all: the flip is persisted.
        let d3 = SharedMemPager::from_snapshot(&after);
        XmlStore::open(Box::new(d3.clone()), StoreConfig::default()).unwrap();
        assert_eq!(
            d3.snapshot(),
            after,
            "n={n}: recovery after success not a no-op"
        );
        let scrub = fsck(&SharedMemPager::from_snapshot(&after), false);
        assert!(scrub.clean(), "n={n}:\n{scrub}");
        exercised += 1;
    }
    assert!(exercised > 0, "no post-commit-point crash windows found");
}

#[test]
fn recovery_is_idempotent_across_repeated_crashes_during_replay() {
    // Crash mid-operation, then crash again during the recovery replay
    // itself: the journal header stays the winner until a replay finishes,
    // so any number of partial recoveries converges.
    let (snap, xml_pre) = base(
        "<list><e>one entry of text</e><e>two entry of text</e></list>",
        16,
    );
    // Pick a crash point deep enough to land after the commit header for
    // at least some n; sweep a window to be sure we hit both sides.
    for n in 1..60u64 {
        let disk = SharedMemPager::from_snapshot(&snap);
        let faulty =
            FaultInjectingPager::new(Box::new(disk.clone()), FaultSchedule::power_cut(n, true));
        let mut store = XmlStore::open(Box::new(faulty), StoreConfig::default()).unwrap();
        let root = store.root().unwrap();
        let r = store.append_child(root, NodeKind::Text, "#text", Some("heavy payload text"));
        drop(store);
        let done = r.is_ok();
        // First recovery attempt also crashes (cut during its writes).
        for m in 1..10u64 {
            let f2 = FaultInjectingPager::new(
                Box::new(disk.clone()),
                FaultSchedule::power_cut(m, m % 2 == 0),
            );
            let _ = XmlStore::open(Box::new(f2), StoreConfig::default());
        }
        // Final, fault-free recovery must still converge.
        let mut re = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
        re.check_consistency().unwrap();
        let got = re.to_document().unwrap().to_xml();
        assert!(
            got == xml_pre || got.contains("heavy payload text"),
            "n={n}: {got}"
        );
        drop(re);
        let scrub = fsck(&disk, false);
        assert!(
            scrub.clean(),
            "scrub after converged recovery, n={n}:\n{scrub}"
        );
        if done {
            break;
        }
    }
}
