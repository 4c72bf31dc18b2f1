//! Concurrent-access integration tests: snapshot isolation across
//! interleaved writes, fsck racing a writer, reader survival of writer
//! death, one header flip per group-commit batch, and snapshot stability
//! under writer-pool eviction.

use natix_core::Ekm;
use natix_store::{
    bulkload_with, fsck, AdmissionConfig, BatchOp, ErrorCategory, FaultInjectingPager,
    FaultSchedule, FilePager, SharedMemPager, SharedStore, StoreConfig, XmlStore,
};
use natix_xml::{parse, NodeKind};

fn config(k: u64) -> StoreConfig {
    StoreConfig {
        record_limit_slots: k,
        ..Default::default()
    }
}

/// Bulkload `xml` onto a shared in-memory disk and wrap it for shared
/// access; snapshot readers clone the same disk.
fn shared(xml: &str, k: u64, admission: AdmissionConfig) -> (SharedStore, SharedMemPager) {
    let doc = parse(xml).unwrap();
    let disk = SharedMemPager::new();
    let store = bulkload_with(&doc, &Ekm, k, Box::new(disk.clone()), config(k)).unwrap();
    (
        SharedStore::new(store, Box::new(disk.clone()), config(k), admission),
        disk,
    )
}

/// Satellite: a scrub racing a writer must never report phantom
/// corruption for pages of an in-flight commit. With a pin held every
/// commit stays in its in-flight window (journal published, checkpoint
/// deferred) — the widest window a concurrent fsck can observe.
#[test]
fn scrub_racing_writer_sees_no_phantom_corruption() {
    let (shared, disk) = shared(
        "<list><e>one entry of text</e><e>two entry of text</e></list>",
        16,
        AdmissionConfig::default(),
    );
    let mut pinned = shared.begin_read().unwrap();
    let pinned_xml = pinned.document().unwrap().to_xml();
    let mut writer = shared.begin_write().unwrap();
    for i in 0..6 {
        writer
            .mutate(|s| {
                let root = s.root()?;
                s.append_child(
                    root,
                    NodeKind::Text,
                    "#text",
                    Some(&format!("racing payload number {i}")),
                )
                .map(|_| ())
            })
            .unwrap();
        // Scrub between every commit: the backend holds a committed
        // journal whose checkpoint has not run — in-flight state.
        let report = shared.scrub();
        assert!(report.clean(), "scrub after commit {i}:\n{report}");
        // A fresh snapshot each round sees the newest committed state
        // while the first snapshot stays on its epoch.
        let mut fresh = shared.begin_read().unwrap();
        let xml = fresh.document().unwrap().to_xml();
        assert!(xml.contains(&format!("racing payload number {i}")));
        assert_eq!(pinned.document().unwrap().to_xml(), pinned_xml);
    }
    drop(pinned);
    drop(writer);
    shared.maintain().unwrap();
    let stats = shared.stats();
    assert!(stats.checkpoints_deferred >= 6, "{stats:?}");
    assert_eq!(stats.pinned_free_violations, 0, "{stats:?}");
    // After the pins drain and the checkpoint + reclamation run, the
    // backing pages still scrub clean and reopen to the final state.
    let report = shared.scrub();
    assert!(report.clean(), "{report}");
    drop(shared);
    let mut re = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
    re.check_consistency().unwrap();
    assert!(re
        .to_document()
        .unwrap()
        .to_xml()
        .contains("racing payload number 5"));
}

/// Writer death (permanent backend failure mid-commit) must not take
/// down readers: snapshots keep serving the last committed epoch through
/// their own clean pagers, and the failure surfaces as a structured
/// error, never as wrong data.
#[test]
fn writer_death_leaves_snapshots_serving_committed_state() {
    let doc = parse("<list><e>one entry of text</e><e>two entry of text</e></list>").unwrap();
    let disk = SharedMemPager::new();
    let store = bulkload_with(&doc, &Ekm, 16, Box::new(disk.clone()), config(16)).unwrap();
    drop(store);
    // Reopen the writer over a pager that will lose power mid-commit;
    // readers get clean clones of the disk.
    let faulty =
        FaultInjectingPager::new(Box::new(disk.clone()), FaultSchedule::power_cut(3, false));
    let wstore = XmlStore::open(Box::new(faulty), StoreConfig::default()).unwrap();
    let shared = SharedStore::new(
        wstore,
        Box::new(disk.clone()),
        config(16),
        AdmissionConfig::default(),
    );
    let committed = {
        let mut s = shared.begin_read().unwrap();
        s.document().unwrap().to_xml()
    };
    let mut writer = shared.begin_write().unwrap();
    let err = writer
        .mutate(|s| {
            let root = s.root()?;
            s.append_child(root, NodeKind::Text, "#text", Some("never lands"))
                .map(|_| ())
        })
        .unwrap_err();
    assert_eq!(err.category(), ErrorCategory::Io, "{err}");
    // Readers are unaffected: same committed bytes, served in full.
    let mut snap = shared.begin_read().unwrap();
    assert_eq!(snap.document().unwrap().to_xml(), committed);
    assert!(!committed.contains("never lands"));
    // The disk itself is still consistent for a fresh open.
    drop(snap);
    drop(writer);
    drop(shared);
    let mut re = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
    re.check_consistency().unwrap();
    assert_eq!(re.to_document().unwrap().to_xml(), committed);
}

/// An epoch ladder: pins taken between successive commits each hold
/// their exact version until released, and releasing them back-to-front
/// lets the deferred checkpoint and reclamation catch up.
#[test]
fn epoch_ladder_pins_hold_their_versions() {
    let (shared, _disk) = shared(
        "<list><e>one entry of text</e><e>two entry of text</e></list>",
        16,
        AdmissionConfig::default(),
    );
    let mut writer = shared.begin_write().unwrap();
    let mut rungs = Vec::new();
    for i in 0..4 {
        let mut snap = shared.begin_read().unwrap();
        let xml = snap.document().unwrap().to_xml();
        rungs.push((snap, xml));
        writer
            .mutate(|s| {
                let root = s.root()?;
                s.append_child(
                    root,
                    NodeKind::Text,
                    "#text",
                    Some(&format!("ladder rung number {i}")),
                )
                .map(|_| ())
            })
            .unwrap();
    }
    // Every rung still reads its own version, oldest to newest.
    for (snap, xml) in rungs.iter_mut() {
        assert_eq!(snap.document().unwrap().to_xml(), *xml);
    }
    let epochs: Vec<u64> = rungs.iter().map(|(s, _)| s.epoch()).collect();
    assert!(epochs.windows(2).all(|w| w[0] < w[1]), "{epochs:?}");
    drop(rungs);
    drop(writer);
    shared.maintain().unwrap();
    let stats = shared.stats();
    assert_eq!(stats.snapshots_active, 0, "{stats:?}");
    assert!(stats.checkpoints_applied >= 1, "{stats:?}");
    assert_eq!(stats.pinned_free_violations, 0, "{stats:?}");
    let report = shared.scrub();
    assert!(report.clean(), "{report}");
}

/// Group commit: the same 48 root appends through `mutate_batch` at batch
/// size N are ⌈48/N⌉ commits, ack every op, land all 48 and leave a page
/// file that scrubs clean.
#[test]
fn group_commit_flips_once_per_batch() {
    const OPS: usize = 48;
    let doc = parse("<list><e>one entry of text</e><e>two entry of text</e></list>").unwrap();
    for batch_size in [1usize, 2, 4, 8, 16] {
        let path = std::env::temp_dir().join(format!(
            "natix-group-commit-{}-{batch_size}.pages",
            std::process::id()
        ));
        let backend = FilePager::create(&path).unwrap();
        drop(bulkload_with(&doc, &Ekm, 16, Box::new(backend), config(16)).unwrap());
        let shared = SharedStore::open(
            Box::new(FilePager::open(&path).unwrap()),
            Box::new(path.clone()),
            config(16),
            AdmissionConfig::default(),
        )
        .unwrap();
        let epoch_before = shared.storage_stats().epoch;
        let mut writer = shared.begin_write().unwrap();
        let mut done = 0;
        while done < OPS {
            let n = batch_size.min(OPS - done);
            let batch: Vec<BatchOp<'_>> = (0..n)
                .map(|_| {
                    Box::new(|s: &mut XmlStore| {
                        let root = s.root()?;
                        s.append_child(root, NodeKind::Element, "item", None)
                            .map(|_| ())
                    }) as BatchOp<'_>
                })
                .collect();
            let acks = writer.mutate_batch(batch).unwrap();
            assert_eq!(acks.len(), n);
            assert!(
                acks.iter().all(Result::is_ok),
                "batch {batch_size} from op {done}: {acks:?}"
            );
            done += n;
        }
        drop(writer);
        let batches = OPS.div_ceil(batch_size) as u64;
        let stats = shared.stats();
        assert_eq!(
            stats.group_commits, batches,
            "batch {batch_size}: {stats:?}"
        );
        // With no pin held a batch flips the header twice: its commit and
        // the checkpoint behind it. A flip per op would show here.
        assert_eq!(
            shared.storage_stats().epoch - epoch_before,
            2 * batches,
            "batch {batch_size}"
        );
        let mut snap = shared.begin_read().unwrap();
        let xml = snap.document().unwrap().to_xml();
        assert_eq!(xml.matches("<item/>").count(), OPS, "batch {batch_size}");
        drop(snap);
        drop(shared);
        let report = fsck(&path, false);
        assert!(report.clean(), "batch {batch_size}:\n{report}");
        std::fs::remove_file(&path).unwrap();
    }
}

/// A snapshot's pages stay stable without anything of it held in the
/// writer's pool: over a 2-frame writer pool that commits enough to
/// evict, the pinned snapshot still dumps its epoch byte-identically, and
/// once it is released the deferred checkpoint runs and frees no page
/// the pin could reach.
#[test]
fn snapshot_survives_writer_evictions_without_page_pins() {
    let entries: String = (0..24)
        .map(|i| format!("<e>entry number {i} with some text</e>"))
        .collect();
    let doc = parse(&format!("<list>{entries}</list>")).unwrap();
    let tiny = StoreConfig {
        buffer_pages: 2,
        ..config(16)
    };
    let disk = SharedMemPager::new();
    let store = bulkload_with(&doc, &Ekm, 16, Box::new(disk.clone()), tiny).unwrap();
    let shared = SharedStore::new(
        store,
        Box::new(disk.clone()),
        tiny,
        AdmissionConfig::default(),
    );
    let mut pinned = shared.begin_read().unwrap();
    let pinned_xml = pinned.document().unwrap().to_xml();
    let evictions_before = shared.buffer_stats().evictions;
    let mut writer = shared.begin_write().unwrap();
    for i in 0..8 {
        writer
            .mutate(|s| {
                let root = s.root()?;
                s.append_child(
                    root,
                    NodeKind::Text,
                    "#text",
                    Some(&format!("evicting payload number {i}")),
                )
                .map(|_| ())
            })
            .unwrap();
    }
    let pool = shared.buffer_stats();
    assert!(pool.evictions > evictions_before, "{pool:?}");
    assert_eq!(pinned.document().unwrap().to_xml(), pinned_xml);
    drop(pinned);
    drop(writer);
    shared.maintain().unwrap();
    let stats = shared.stats();
    assert!(stats.checkpoints_deferred >= 8, "{stats:?}");
    assert!(stats.checkpoints_applied >= 1, "{stats:?}");
    assert_eq!(stats.pinned_free_violations, 0, "{stats:?}");
    let report = shared.scrub();
    assert!(report.clean(), "{report}");
}
