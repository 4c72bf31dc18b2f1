//! End-to-end `fsck` coverage: clean scrubs, per-class bit-rot
//! detection, salvage repair with quarantine, and exact degraded reads
//! over the repaired store.

use std::collections::HashSet;

use natix_core::{Ekm, Partitioner};
use natix_store::{
    corrupt_checksum_of_class, corrupt_page_of_class, fsck, page_class_of, PageClass, Pager,
    SharedMemPager, StoreConfig, XmlStore, PAGE_SIZE,
};
use natix_xml::Document;

fn sample_doc() -> Document {
    // Items fat enough that the records spread over several pages: a
    // single rotted page then hits some partitions and spares the rest
    // (in particular the root record on the first record page).
    let mut s = String::from("<site>");
    for i in 0..24 {
        s.push_str(&format!(
            "<item id=\"i{i}\"><name>object number {i}</name>\
             <note>{}</note></item>",
            format!("text content for padding {i} ").repeat(30)
        ));
    }
    s.push_str("</site>");
    natix_xml::parse(&s).unwrap()
}

/// A document whose single record spills into an overflow chain.
fn overflow_doc() -> Document {
    natix_xml::parse(&format!("<blob>{}</blob>", "x".repeat(3 * PAGE_SIZE))).unwrap()
}

/// Bulkload `doc` onto a shared backend and return a raw handle onto
/// the same bytes.
fn load(doc: &Document, k: u64) -> (XmlStore, SharedMemPager) {
    let p = Ekm.partition(doc.tree(), k).unwrap();
    let shared = SharedMemPager::new();
    let handle = shared.clone();
    let store = XmlStore::bulkload(doc, &p, Box::new(shared), StoreConfig::default()).unwrap();
    (store, handle)
}

fn loaded_store(k: u64) -> (XmlStore, SharedMemPager) {
    load(&sample_doc(), k)
}

/// Deterministically rot the highest-numbered record page — never the
/// first one, which holds the root record.
fn corrupt_last_record_page(handle: &mut SharedMemPager) -> u32 {
    let count = handle.page_count();
    let mut buf = [0u8; PAGE_SIZE];
    let mut target = None;
    for id in 2..count {
        handle.read(id, &mut buf).unwrap();
        if buf.iter().any(|&b| b != 0) && page_class_of(&buf) == PageClass::Record {
            target = Some(id);
        }
    }
    let id = target.expect("a record page");
    handle.read(id, &mut buf).unwrap();
    for b in &mut buf[100..200] {
        *b ^= 0x5A;
    }
    handle.write(id, &buf).unwrap();
    id
}

#[test]
fn fresh_store_scrubs_clean() {
    let (store, handle) = loaded_store(160);
    let records = store.record_count();
    drop(store);
    let report = fsck(&handle, false);
    assert!(report.clean(), "{report}");
    assert_eq!(report.format, 4);
    assert_eq!(report.records_checked as usize, records);
    assert!(!report.repaired);
}

#[test]
fn committed_updates_scrub_clean() {
    let (mut store, handle) = loaded_store(160);
    let root = store.root().unwrap();
    for i in 0..8 {
        store
            .append_child(
                root,
                natix_xml::NodeKind::Element,
                "extra",
                Some(&format!("added {i}")),
            )
            .unwrap();
        store.commit().unwrap();
    }
    drop(store);
    let report = fsck(&handle, false);
    // Committed updates leave debris (stale catalogs, retired journals)
    // but the committed state itself must be spotless.
    assert!(report.clean(), "{report}");
}

#[test]
fn detects_bit_rot_in_every_referenced_class() {
    for class in [PageClass::Record, PageClass::Overflow, PageClass::Catalog] {
        let (store, mut handle) = if class == PageClass::Overflow {
            // Overflow chains only appear when a record outgrows a page.
            load(&overflow_doc(), 1 << 20)
        } else {
            loaded_store(160)
        };
        drop(store);
        let hit = corrupt_page_of_class(&mut handle, 7, class, 3).unwrap();
        assert!(hit.is_some(), "no {class} page to corrupt");
        let report = fsck(&handle, false);
        assert!(!report.clean(), "{class} corruption not detected: {report}");
        // And the strict read path agrees: open + full read must fail.
        let outcome = XmlStore::open(Box::new(handle.clone()), StoreConfig::default())
            .and_then(|mut s| s.to_document());
        let err = outcome.expect_err("strict read must notice the damage");
        assert!(err.is_corruption(), "{err}");
    }
}

#[test]
fn detects_checksum_field_corruption() {
    let (store, mut handle) = loaded_store(160);
    drop(store);
    let hit = corrupt_checksum_of_class(&mut handle, 3, PageClass::Record).unwrap();
    assert!(hit.is_some());
    let report = fsck(&handle, false);
    assert!(!report.clean(), "{report}");
}

#[test]
fn repair_recovers_everything_but_the_hit_partitions() {
    // Small K: many records, so a single rotted page leaves plenty of
    // intact partitions to salvage.
    let (mut store, mut handle) = loaded_store(160);
    let clean_doc = store.to_document().unwrap();
    assert!(store.record_count() > 4);
    let snapshot = handle.snapshot();
    drop(store);

    let hit = corrupt_last_record_page(&mut handle);
    let report = fsck(&handle, true);
    assert!(report.repaired, "repair did not run: {report}");
    assert!(!report.quarantined.is_empty(), "{report}");
    let post = fsck(&handle, false);
    assert!(
        post.clean(),
        "store still damaged after repair: {post}\nhit page {hit}"
    );

    // Degraded read: the surviving partitions, plus an exact report of
    // the missing ones.
    let mut degraded = XmlStore::open_read_only(&handle, StoreConfig::default()).unwrap();
    let (doc, damage) = degraded.to_document_degraded().unwrap();
    let missing = damage.records();
    assert_eq!(
        missing,
        report.quarantined.iter().copied().collect::<HashSet<u32>>(),
        "damage report disagrees with the repair quarantine"
    );

    // Oracle: a partial read of the undamaged twin excluding exactly the
    // reported records must reproduce the degraded document.
    let twin = SharedMemPager::from_snapshot(&snapshot);
    let mut clean = XmlStore::open(Box::new(twin), StoreConfig::default()).unwrap();
    assert_eq!(clean.to_document().unwrap().to_xml(), clean_doc.to_xml());
    let expected = clean.to_document_partial(&missing).unwrap();
    assert_eq!(doc.to_xml(), expected.to_xml());
}

#[test]
fn repair_survives_losing_both_header_slots() {
    let (store, mut handle) = loaded_store(160);
    drop(store);
    let junk = [0xA5u8; PAGE_SIZE];
    handle.write(0, &junk).unwrap();
    handle.write(1, &junk).unwrap();
    let err = match XmlStore::open(Box::new(handle.clone()), StoreConfig::default()) {
        Ok(_) => panic!("open must fail with both header slots destroyed"),
        Err(e) => e,
    };
    assert!(err.is_corruption(), "{err}");

    let report = fsck(&handle, true);
    assert!(report.repaired, "{report}");
    assert!(report.quarantined.is_empty(), "{report}");
    assert!(fsck(&handle, false).clean());

    let mut back = XmlStore::open(Box::new(handle.clone()), StoreConfig::default()).unwrap();
    assert_eq!(back.to_document().unwrap().to_xml(), sample_doc().to_xml());
}

#[test]
fn repair_refuses_when_the_root_is_lost() {
    // Single-record store: the root record IS the store; rotting it must
    // make repair fail loudly rather than fabricate a document.
    let doc = natix_xml::parse("<tiny><a>x</a></tiny>").unwrap();
    let (store, mut handle) = load(&doc, 1 << 20);
    assert_eq!(store.record_count(), 1);
    drop(store);
    corrupt_page_of_class(&mut handle, 5, PageClass::Record, 4)
        .unwrap()
        .expect("the record page");
    let report = fsck(&handle, true);
    assert!(!report.repaired, "{report}");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "root-unrecoverable"),
        "{report}"
    );
}

#[test]
fn quarantined_records_fail_strict_reads() {
    let (store, mut handle) = loaded_store(160);
    drop(store);
    corrupt_last_record_page(&mut handle);
    let report = fsck(&handle, true);
    assert!(
        report.repaired && !report.quarantined.is_empty(),
        "{report}"
    );

    let mut strict = XmlStore::open(Box::new(handle.clone()), StoreConfig::default()).unwrap();
    assert_eq!(
        strict.quarantined_records(),
        report.quarantined,
        "reopen must surface the quarantine"
    );
    let err = strict.to_document().unwrap_err();
    assert!(err.is_corruption(), "{err}");
}

/// A hand-written header page of another format: the `NATIXST<digit>`
/// magic, the fixed fields, FNV-1a 64 over the first 52 bytes (the one
/// thing every format's header slot shares) — and no page frame, as
/// format 2 had none and format 3's FNV frame is none to this build.
fn foreign_header_page(digit: u8) -> [u8; PAGE_SIZE] {
    let mut page = [0u8; PAGE_SIZE];
    page[0..7].copy_from_slice(b"NATIXST");
    page[7] = digit;
    page[8..16].copy_from_slice(&1u64.to_le_bytes()); // epoch
    page[20..24].copy_from_slice(&3u32.to_le_bytes()); // catalog first page
    page[24..32].copy_from_slice(&40u64.to_le_bytes()); // catalog length
    page[32..40].copy_from_slice(&256u64.to_le_bytes()); // record limit
    let mut sum: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &page[..52] {
        sum = (sum ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3);
    }
    page[52..60].copy_from_slice(&sum.to_le_bytes());
    page
}

#[test]
fn format_2_file_is_refused_not_repaired() {
    foreign_format_file_is_refused_not_repaired(b'2');
}

#[test]
fn format_3_file_is_refused_not_repaired() {
    foreign_format_file_is_refused_not_repaired(b'3');
}

fn foreign_format_file_is_refused_not_repaired(digit: u8) {
    // Zeroed slot 0, the old header in slot 1, and behind it data pages
    // this build cannot verify.
    let mut handle = SharedMemPager::new();
    for _ in 0..4 {
        handle.allocate().unwrap();
    }
    handle.write(1, &foreign_header_page(digit)).unwrap();
    handle.write(2, &[0x11u8; PAGE_SIZE]).unwrap();
    handle.write(3, &[0x22u8; PAGE_SIZE]).unwrap();
    let image = |h: &mut SharedMemPager| -> Vec<[u8; PAGE_SIZE]> {
        (0..h.page_count())
            .map(|id| {
                let mut buf = [0u8; PAGE_SIZE];
                h.read(id, &mut buf).unwrap();
                buf
            })
            .collect()
    };
    let before = image(&mut handle);

    for repair in [false, true] {
        let report = fsck(&handle, repair);
        assert!(!report.clean() && !report.repaired, "{report}");
        assert_eq!(report.errors(), 1, "{report}");
        assert_eq!(report.findings[0].code, "unsupported-format", "{report}");
        let named = format!("unsupported store format {}", char::from(digit));
        assert!(report.findings[0].detail.contains(&named), "{report}");
        assert!(image(&mut handle) == before, "repair={repair} wrote");
    }
}

#[test]
fn header_slot_one_bit_from_another_formats_magic_is_only_a_torn_slot() {
    // `NATIXST4` -> `NATIXST5` is bit 0 of byte 7. The slot's checksum
    // covers the magic, so the rotted slot is invalid, not a format-5
    // header: the other slot still opens the store and the scrub is clean.
    for slot in [0u32, 1] {
        let (mut store, mut handle) = loaded_store(160);
        let root = store.root().unwrap();
        for i in 0..2 {
            store
                .append_child(
                    root,
                    natix_xml::NodeKind::Element,
                    "extra",
                    Some(&format!("{i}")),
                )
                .unwrap();
            store.commit().unwrap();
        }
        drop(store);
        let mut buf = [0u8; PAGE_SIZE];
        handle.read(slot, &mut buf).unwrap();
        assert_eq!(&buf[..8], b"NATIXST4", "slot {slot} holds a header");
        buf[7] ^= 0x01;
        handle.write(slot, &buf).unwrap();

        let report = fsck(&handle, false);
        assert!(report.clean(), "slot {slot}: {report}");
        assert!(
            report
                .findings
                .iter()
                .all(|f| f.code != "unsupported-format"),
            "slot {slot}: {report}"
        );
        let mut store = XmlStore::open(Box::new(handle.clone()), StoreConfig::default())
            .unwrap_or_else(|e| panic!("slot {slot}: {e}"));
        let doc = store.to_document().unwrap();
        assert_eq!(doc.tree().label_str(doc.tree().root()), "site");
    }
}
