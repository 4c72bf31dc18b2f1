//! A Natix-like storage engine for partitioned XML documents.
//!
//! The paper's query-performance experiment (Sec. 6.4, Table 3) loads a
//! document into the Natix store under different partitioning algorithms
//! and measures navigation-heavy XPath queries. This crate reproduces the
//! storage machinery that experiment depends on:
//!
//! * **slotted pages** ([`SlottedPage`]) — 8 KB disk pages holding several
//!   records, as in Natix's record manager;
//! * **pagers and a buffer pool** ([`Pager`], [`BufferPool`]) — in-memory
//!   and file-backed page storage behind a CLOCK buffer pool with hit/miss
//!   counters;
//! * **subtree-fragment records** ([`RecordData`]) — one record per
//!   partition, holding the interval's subtrees with *proxy* entries
//!   linking to cut child intervals and a back-link to the parent record;
//! * **the store** ([`XmlStore`]) — partitioner-driven bulkload, a record
//!   directory, the held chain of decoded records from the root record to
//!   the cursor, and navigation primitives (`first_child` /
//!   `next_sibling` / `prev_sibling` / `parent`) that transparently cross
//!   record boundaries while counting every crossing.
//!
//! The cost model matches the paper's premise: navigation inside a record
//! is an array access; entering a record that is not on the path from the
//! root record to the cursor costs page reads plus a record decode. Fewer
//! partitions therefore mean faster navigation — which is what Table 3
//! measures.

mod bulkload;
mod catalog;
mod collection;
mod concurrent;
mod fsck;
mod journal;
mod page;
mod pager;
mod record;
mod replicate;
mod store;
mod update;

pub use bulkload::{stream_bulkload, BulkloadError, LoadStats, StreamLoader};
pub use collection::{
    bulkload_collection, bulkload_collection_with, fsck_collection, read_catalog, shard_path,
    BulkloadOptions, BulkloadReport, Collection, ShardBackendFactory, ShardSegment, CATALOG_FILE,
};
pub use concurrent::{
    AdmissionConfig, BatchOp, ConcurrencyStats, PagerFactory, SharedStore, Snapshot, SnapshotSeed,
    StorageStats, WriteGuard,
};
pub use fsck::{fsck, FsckFinding, FsckReport, FsckSeverity};
pub use page::{
    page_class_of, seal_frame, verify_frame, FrameCheck, PageClass, SlottedPage, FORMAT_VERSION,
    MAX_IN_PAGE, PAGE_SIZE, PAYLOAD_SIZE,
};
pub use pager::{
    corrupt_checksum_of_class, corrupt_page_of_class, inject_bit_rot, io_error_is_resource,
    BufferPool, BufferStats, ChecksummingPager, ErrorCategory, Fault, FaultInjectingPager,
    FaultSchedule, FilePager, MemPager, PageId, Pager, SharedMemPager, StoreError, StoreResult,
    READ_ONLY_RETRY_HINT_MS,
};
pub use record::{decode as decode_record, ChildEntry, Entries, EntryCursor, RecNode, RecordData};
pub use replicate::{
    decode_part, ApplyOutcome, BatchKind, CaptureHandle, CapturePager, Follower, FollowerCounters,
    ReplBatch, ReplPart, ReplicaSource, REPL_LOG_BATCHES, REPL_PART_MAGIC, REPL_PART_MAX_PAGES,
};
pub use store::{
    bulkload_with, DamageReport, MissingInterval, NavStats, NodeRef, StoreConfig, XmlStore,
};

#[cfg(test)]
mod tests {
    use super::*;
    use natix_core::{Ekm, Km, Partitioner};
    use natix_xml::{parse, NodeKind};
    use std::collections::HashSet;

    fn sample_doc() -> natix_xml::Document {
        parse(concat!(
            r#"<site><regions><europe>"#,
            r#"<item id="i0"><name>first thing</name><payment>cash or wire transfer money</payment></item>"#,
            r#"<item id="i1"><name>second</name><mailbox><mail><from>Ann Marble</from><to>Bob Noble</to></mail></mailbox></item>"#,
            r#"<item id="i2"><name>third</name></item>"#,
            r#"</europe></regions><people><person id="p0"><name>Carol Stone</name></person></people></site>"#,
        ))
        .unwrap()
    }

    fn load(doc: &natix_xml::Document, alg: &dyn Partitioner, k: u64) -> XmlStore {
        bulkload_with(
            doc,
            alg,
            k,
            Box::new(MemPager::new()),
            StoreConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_with_ekm() {
        let doc = sample_doc();
        for k in [8, 12, 20, 64, 4096] {
            let mut store = load(&doc, &Ekm, k);
            let back = store.to_document().unwrap();
            assert_eq!(back.to_xml(), doc.to_xml(), "K={k}");
        }
    }

    #[test]
    fn roundtrip_with_km() {
        let doc = sample_doc();
        for k in [8, 16, 64] {
            let mut store = load(&doc, &Km, k);
            let back = store.to_document().unwrap();
            assert_eq!(back.to_xml(), doc.to_xml(), "K={k}");
        }
    }

    #[test]
    fn navigation_crosses_records() {
        let doc = sample_doc();
        // Small K forces many records.
        let mut store = load(&doc, &Ekm, 10);
        assert!(store.record_count() > 1);
        let root = store.root().unwrap();
        assert_eq!(store.node_kind(root).unwrap(), NodeKind::Element);
        let root_label = store.node_label(root).unwrap();
        assert_eq!(store.label_name(root_label), "site");
        // Walk to the items and count them via sibling navigation.
        let regions = store.first_child(root).unwrap().unwrap();
        let europe = store.first_child(regions).unwrap().unwrap();
        let mut c = store.first_child(europe).unwrap();
        let mut items = 0;
        while let Some(r) = c {
            if store.node_kind(r).unwrap() == NodeKind::Element {
                items += 1;
            }
            c = store.next_sibling(r).unwrap();
        }
        assert_eq!(items, 3);
        assert!(store.nav_stats().record_switches > 0);
    }

    #[test]
    fn prev_sibling_mirrors_next() {
        let doc = sample_doc();
        let mut store = load(&doc, &Ekm, 10);
        let root = store.root().unwrap();
        let regions = store.first_child(root).unwrap().unwrap();
        let europe = store.first_child(regions).unwrap().unwrap();
        // Collect children forward, then verify backward traversal matches.
        let mut forward = Vec::new();
        let mut c = store.first_child(europe).unwrap();
        while let Some(r) = c {
            forward.push(r);
            c = store.next_sibling(r).unwrap();
        }
        let mut backward = Vec::new();
        let mut c = Some(*forward.last().unwrap());
        while let Some(r) = c {
            backward.push(r);
            c = store.prev_sibling(r).unwrap();
        }
        backward.reverse();
        assert_eq!(forward, backward);
        // And parents point back at the element we came from.
        for &r in &forward {
            assert_eq!(store.parent(r).unwrap(), Some(europe));
        }
        assert_eq!(store.parent(root).unwrap(), None);
    }

    #[test]
    fn fewer_partitions_fewer_switches() {
        // The core claim: the same traversal over an EKM layout crosses
        // fewer records than over a KM layout.
        let doc = sample_doc();
        let mut ekm = load(&doc, &Ekm, 24);
        let mut km = load(&doc, &Km, 24);
        assert!(ekm.record_count() <= km.record_count());
        for store in [&mut ekm, &mut km] {
            store.reset_nav_stats();
            let d = store.to_document().unwrap();
            assert_eq!(d.len(), doc.len());
        }
        assert!(
            ekm.nav_stats().record_switches <= km.nav_stats().record_switches,
            "EKM switches {} > KM switches {}",
            ekm.nav_stats().record_switches,
            km.nav_stats().record_switches
        );
    }

    #[test]
    fn file_backed_store_roundtrips() {
        let dir = std::env::temp_dir().join(format!("natix-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.natix");
        let doc = sample_doc();
        let pager = FilePager::create(&path).unwrap();
        let mut store =
            bulkload_with(&doc, &Ekm, 16, Box::new(pager), StoreConfig::default()).unwrap();
        let back = store.to_document().unwrap();
        assert_eq!(back.to_xml(), doc.to_xml());
        assert!(path.metadata().unwrap().len() >= PAGE_SIZE as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_records_use_overflow_pages() {
        // K large enough that the whole document is one record bigger than
        // a page: content strings of ~300 bytes × 40 nodes ≈ 12 KB.
        let mut xml = String::from("<r>");
        for i in 0..40 {
            xml.push_str(&format!("<x>{}</x>", "y".repeat(300 + i)));
        }
        xml.push_str("</r>");
        let doc = parse(&xml).unwrap();
        let mut store = load(&doc, &Ekm, 1_000_000);
        assert_eq!(store.record_count(), 1);
        assert!(store.page_count() >= 2, "expected overflow chain");
        let back = store.to_document().unwrap();
        assert_eq!(back.to_xml(), doc.to_xml());
    }

    #[test]
    fn bulkload_streams_through_a_tiny_pool_budget() {
        // One record spanning a multi-page overflow chain, so that loading
        // it through a 2-page pool must stream pages out by eviction.
        let mut xml = String::from("<site>");
        for _ in 0..10 {
            xml.push_str(&format!("<t>{}</t>", "v".repeat(3000)));
        }
        xml.push_str("</site>");
        let doc = parse(&xml).unwrap();
        let tiny = StoreConfig {
            buffer_pages: 2,
            record_limit_slots: 1 << 20,
        };

        // Load onto a shared backend so the at-rest bytes can be scrubbed
        // and reopened independently of the returned store.
        let shared = SharedMemPager::new();
        let mut store = bulkload_with(&doc, &Ekm, 1 << 20, Box::new(shared.clone()), tiny).unwrap();
        assert_eq!(store.record_count(), 1);
        assert_eq!(store.to_document().unwrap().to_xml(), doc.to_xml());
        assert!(
            store.page_count() as usize > 2 * tiny.buffer_pages,
            "store must exceed the pool budget for the test to mean anything"
        );
        let stats = store.buffer_stats();
        assert!(
            stats.evicted_dirty > 0,
            "a load under a tiny pool must stream dirty pages out: {stats:?}"
        );

        // The file is complete and clean at rest.
        let report = fsck::fsck(&shared, false);
        assert!(report.clean(), "{report}");
        let mut reopened = XmlStore::open(Box::new(shared.clone()), tiny).unwrap();
        assert_eq!(reopened.to_document().unwrap().to_xml(), doc.to_xml());

        // And the loaded store is writable.
        let root = store.root().unwrap();
        store
            .append_child(root, NodeKind::Element, "x", None)
            .unwrap();
    }

    /// A document six elements deep whose leaves carry enough text to be
    /// cut into records of their own at K = 10.
    fn deep_doc() -> natix_xml::Document {
        let mut xml = String::from("<r>");
        for a in 0..3 {
            xml.push_str("<a><b><c>");
            for d in 0..3 {
                xml.push_str(&format!("<d><e>leaf text {a} {d}</e><e>more of it</e></d>"));
            }
            xml.push_str("</c><c><d>short</d></c></b></a>");
        }
        xml.push_str("</r>");
        parse(&xml).unwrap()
    }

    /// The chain invariant: each held record is the parent record of the
    /// next one, so there are never more than the tree is high in records.
    fn assert_chain_is_a_path(store: &XmlStore, height: usize) {
        for pair in store.chain.windows(2) {
            assert_eq!(pair[1].parent_record, pair[0].self_no);
        }
        assert!(store.chain.len() <= height, "{} held", store.chain.len());
    }

    #[test]
    fn held_records_form_a_root_path_bounded_by_the_height_in_records() {
        let doc = deep_doc();
        let mut store = load(&doc, &Ekm, 10);
        let parents: Vec<u32> = (0..store.record_count() as u32)
            .map(|no| store.with_record(no, |rec| rec.parent_record).unwrap())
            .collect();
        let depth = |mut no: u32| {
            let mut d = 1;
            while parents[no as usize] != record::NONE_U32 {
                no = parents[no as usize];
                d += 1;
            }
            d
        };
        let height = (0..parents.len() as u32).map(depth).max().unwrap();
        assert!(height >= 3 && store.record_count() > 2 * height);
        store.reset_nav_stats();

        // Every node in document order, a look back up and sideways from
        // each: the ways a walk leaves and re-enters records.
        let mut todo = vec![store.root().unwrap()];
        let mut deepest = 0;
        while let Some(r) = todo.pop() {
            let mut kids = Vec::new();
            store.for_each_child(r, |c, _, _| kids.push(c)).unwrap();
            assert_chain_is_a_path(&store, height);
            deepest = deepest.max(store.chain.len());
            store.prev_sibling(r).unwrap();
            assert_chain_is_a_path(&store, height);
            let mut up = Some(r);
            while let Some(n) = up {
                up = store.parent(n).unwrap();
                assert_chain_is_a_path(&store, height);
            }
            todo.extend(kids.into_iter().rev());
        }
        assert_eq!(deepest, height, "the walk reaches the deepest record");
    }

    #[test]
    fn a_dump_decodes_every_record_once() {
        let doc = deep_doc();
        for k in [10, 16, 64] {
            let mut store = load(&doc, &Ekm, k);
            store.reset_nav_stats();
            assert_eq!(store.to_document().unwrap().to_xml(), doc.to_xml());
            let decodes = store.nav_stats().record_decodes;
            assert_eq!(decodes, store.record_count() as u64, "K={k}");
        }
    }

    #[test]
    fn an_update_of_a_held_record_is_what_the_next_read_sees() {
        let doc = deep_doc();
        let mut store = load(&doc, &Ekm, 10);
        let before = store.to_document().unwrap().to_xml();
        // An element of the last record (a leaf of the record tree), and a
        // climb from it to the root: its record and every record above it
        // are now held, parents inserted on top one by one.
        let last = store.record_count() as u32 - 1;
        let node = store.with_record(last, |rec| rec.roots[0]).unwrap();
        let mut target = NodeRef { record: last, node };
        if store.node_kind(target).unwrap() != NodeKind::Element {
            target = store.parent(target).unwrap().unwrap();
        }
        let climb = |store: &mut XmlStore| {
            store.reset_nav_stats();
            let mut up = Some(target);
            while let Some(n) = up {
                up = store.parent(n).unwrap();
            }
            assert!(store.chain.len() >= 3, "{} held", store.chain.len());
            assert_eq!(store.chain[0].self_no, store.root_record);
            assert!(store.chain.iter().any(|r| r.self_no == target.record));
        };
        climb(&mut store);

        store
            .append_child(target, NodeKind::Element, "fresh", None)
            .unwrap();
        let after = store.to_document().unwrap().to_xml();
        assert_eq!(after.matches("<fresh/>").count(), 1, "{after}");
        store.commit().unwrap();

        // Inside a batch the staged bytes are read, after a rollback the
        // committed ones again.
        store.begin_batch().unwrap();
        climb(&mut store);
        store
            .append_child(target, NodeKind::Element, "staged", None)
            .unwrap();
        let staged = store.to_document().unwrap().to_xml();
        assert_eq!(staged.matches("<staged/>").count(), 1);
        store.rollback().unwrap();
        assert!(store.chain.is_empty(), "a rollback lets go of every record");
        assert_eq!(store.to_document().unwrap().to_xml(), after);
        assert_ne!(after, before);
    }

    #[test]
    fn a_quarantined_record_is_skipped_and_reported_wherever_the_cursor_is() {
        let doc = deep_doc();
        let mut clean = load(&doc, &Ekm, 10);
        let (records, root) = (clean.record_count() as u32, clean.root_record);
        for lost in (0..records).filter(|&no| no != root) {
            let parent = clean.with_record(lost, |rec| rec.parent_record).unwrap();
            let want = clean
                .to_document_partial(&HashSet::from([lost]))
                .unwrap()
                .to_xml();
            // The cursor on the lost record's parent (the chain leads to
            // the proxy), and on an unrelated leaf record (it does not).
            for cursor in [parent, records - 1] {
                let mut store = load(&doc, &Ekm, 10);
                store.quarantined.insert(lost);
                let held = store.with_record(cursor, |rec| rec.self_no);
                assert_eq!(held.is_err(), cursor == lost);
                let strict = store.to_document().unwrap_err();
                assert!(strict.is_corruption(), "{strict}");

                let _ = store.with_record(cursor, |_| ());
                let (doc, damage) = store.to_document_degraded().unwrap();
                assert_eq!(damage.records(), HashSet::from([lost]));
                assert_eq!(doc.to_xml(), want, "record {lost} lost, cursor {cursor}");
                assert!(store.chain.iter().all(|r| r.self_no != lost));
            }
        }
    }

    #[test]
    fn occupied_space_accounts_pages() {
        let doc = sample_doc();
        let store = load(&doc, &Ekm, 16);
        assert_eq!(
            store.occupied_bytes(),
            store.page_count() as u64 * PAGE_SIZE as u64
        );
    }
}
