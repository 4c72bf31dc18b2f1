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
//!   directory, a small decoded-record cache, and navigation primitives
//!   (`first_child` / `next_sibling` / `prev_sibling` / `parent`) that
//!   transparently cross record boundaries while counting every crossing.
//!
//! The cost model matches the paper's premise: navigation inside a record
//! is an array access; entering a record that is not in the small decoded
//! cache costs page reads plus a record decode. Fewer partitions therefore
//! mean faster navigation — which is what Table 3 measures.

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

pub use bulkload::{stream_append_document, stream_bulkload, BulkloadError, LoadStats};
pub use collection::{
    bulkload_collection, bulkload_collection_with, fsck_collection, read_catalog, shard_path,
    BulkloadOptions, BulkloadReport, Collection, ShardBackendFactory, ShardSegment, CATALOG_FILE,
};
pub use concurrent::{
    AdmissionConfig, BatchOp, ConcurrencyStats, PagerFactory, ServedRead, SharedStore, Snapshot,
    SnapshotSeed, StorageStats, WriteGuard,
};
pub use fsck::{fsck, FsckFinding, FsckReport, FsckSeverity};
pub use page::{
    page_class_of, seal_frame, verify_frame, FrameCheck, PageClass, SlottedPage, FORMAT_VERSION,
    MAX_IN_PAGE, PAGE_SIZE, PAYLOAD_SIZE,
};
pub use pager::{
    corrupt_checksum_of_class, corrupt_page_of_class, inject_bit_rot, io_error_is_resource,
    io_error_is_transient, BufferPool, BufferStats, ChecksummingPager, ErrorCategory, Fault,
    FaultInjectingPager, FaultSchedule, FilePager, MemPager, PageId, Pager, RetryPolicy,
    RetryStats, RetryingPager, SharedMemPager, StoreError, StoreResult, READ_ONLY_RETRY_HINT_MS,
    RESOURCE_BACKOFF_FACTOR,
};
pub use record::{ChildEntry, RecNode, RecordData};
pub use replicate::{
    decode_part, ApplyOutcome, BatchKind, CaptureHandle, CapturePager, Follower, ReplBatch,
    ReplPart, ReplicaSource, REPL_LOG_BATCHES, REPL_PART_MAGIC, REPL_PART_MAX_PAGES,
};
pub use store::{
    bulkload_with, DamageReport, MissingInterval, NavStats, NodeRef, OpenMode, StoreConfig,
    XmlStore,
};

#[cfg(test)]
mod tests {
    use super::*;
    use natix_core::{Ekm, Km, Partitioner};
    use natix_xml::{parse, NodeKind};

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
    fn legacy_v2_store_opens_read_only() {
        use crate::page::fnv64;
        use crate::record::{ImageNode, RecordImage, NONE_U16, NONE_U32};

        // Fabricate a format-2 page file by hand: zero slot 0, a
        // `NATIXST2` header at epoch 1 in slot 1, the record bytes in a
        // bare (headerless, PAGE_SIZE-chunked) overflow chain at page 2,
        // and the bare catalog blob at page 3.
        let img = RecordImage {
            parent_record: NONE_U32,
            parent_local: NONE_U16,
            proxy_pos: NONE_U16,
            roots: vec![0],
            nodes: vec![
                ImageNode {
                    kind: NodeKind::Element,
                    label: 0,
                    parent_local: NONE_U16,
                    entry_pos: NONE_U16,
                    content: None,
                    entries: vec![ChildEntry::Local(1)],
                },
                ImageNode {
                    kind: NodeKind::Text,
                    label: 1,
                    parent_local: 0,
                    entry_pos: 0,
                    content: Some("hello".into()),
                    entries: Vec::new(),
                },
            ],
        };
        // A format-2 record is the current encoding minus its 16-byte
        // `NRC3` prefix.
        let rec_bytes = crate::record::encode(&img, 0, 1)[16..].to_vec();
        assert!(rec_bytes.len() <= PAGE_SIZE);

        let mut cat = Vec::new();
        cat.extend_from_slice(&1u32.to_le_bytes());
        cat.push(1); // Overflow location
        cat.extend_from_slice(&2u32.to_le_bytes());
        cat.extend_from_slice(&(rec_bytes.len() as u32).to_le_bytes());
        cat.extend_from_slice(&2u32.to_le_bytes());
        for l in ["site", "#text"] {
            cat.extend_from_slice(&(l.len() as u16).to_le_bytes());
            cat.extend_from_slice(l.as_bytes());
        }

        let header = crate::catalog::Header {
            epoch: 1,
            root_record: 0,
            catalog_first_page: 3,
            catalog_len: cat.len() as u64,
            record_limit: 1024,
            journal_first_page: 0,
            journal_len: 0,
        };
        let mut hpage = crate::catalog::encode_header(&header);
        hpage[0..8].copy_from_slice(crate::catalog::MAGIC_V2);
        let sum = fnv64(&hpage[..52]);
        hpage[52..60].copy_from_slice(&sum.to_le_bytes());
        // Format 2 had no page frames: clear what encode_header sealed.
        hpage[PAGE_SIZE - 12..].fill(0);

        let mut pager = MemPager::new();
        for _ in 0..4 {
            pager.allocate().unwrap();
        }
        pager.write(1, &hpage).unwrap();
        let mut page = [0u8; PAGE_SIZE];
        page[..rec_bytes.len()].copy_from_slice(&rec_bytes);
        pager.write(2, &page).unwrap();
        let mut page = [0u8; PAGE_SIZE];
        page[..cat.len()].copy_from_slice(&cat);
        pager.write(3, &page).unwrap();

        let mut store = XmlStore::open(Box::new(pager), StoreConfig::default()).unwrap();
        assert_eq!(store.format_version(), 2);
        let doc = store.to_document().unwrap();
        assert_eq!(doc.to_xml(), parse("<site>hello</site>").unwrap().to_xml());

        // Old-format stores are read-only; compact() is the migration.
        let root = store.root().unwrap();
        let err = store
            .append_child(root, NodeKind::Element, "x", None)
            .unwrap_err();
        assert!(matches!(err, StoreError::InvalidUpdate(_)), "{err}");
        let mut migrated = store
            .compact(Box::new(MemPager::new()), StoreConfig::default())
            .unwrap();
        assert_eq!(migrated.format_version(), 3);
        assert_eq!(migrated.to_document().unwrap().to_xml(), doc.to_xml());
        let kid = migrated.root().unwrap();
        migrated
            .append_child(kid, NodeKind::Element, "x", None)
            .unwrap();
    }

    #[test]
    fn legacy_v2_migrates_under_tiny_pool_budget() {
        use crate::page::fnv64;
        use crate::record::{ImageNode, RecordImage, NONE_U16, NONE_U32};

        // Fabricate a format-2 store whose single record spans a
        // multi-page overflow chain, so that migrating it through a
        // 2-page destination pool must stream pages out by eviction.
        let payload = "v".repeat(3000);
        let mut nodes = vec![ImageNode {
            kind: NodeKind::Element,
            label: 0,
            parent_local: NONE_U16,
            entry_pos: NONE_U16,
            content: None,
            entries: (1..=10).map(ChildEntry::Local).collect(),
        }];
        for i in 0..10u16 {
            nodes.push(ImageNode {
                kind: NodeKind::Text,
                label: 1,
                parent_local: 0,
                entry_pos: i,
                content: Some(payload.clone().into()),
                entries: Vec::new(),
            });
        }
        let img = RecordImage {
            parent_record: NONE_U32,
            parent_local: NONE_U16,
            proxy_pos: NONE_U16,
            roots: vec![0],
            nodes,
        };
        let rec_bytes = crate::record::encode(&img, 0, 1)[16..].to_vec();
        assert!(rec_bytes.len() > 2 * PAGE_SIZE, "want a multi-page chain");
        let chunks = rec_bytes.len().div_ceil(PAGE_SIZE) as u32;

        let mut cat = Vec::new();
        cat.extend_from_slice(&1u32.to_le_bytes());
        cat.push(1); // Overflow location
        cat.extend_from_slice(&2u32.to_le_bytes());
        cat.extend_from_slice(&(rec_bytes.len() as u32).to_le_bytes());
        cat.extend_from_slice(&2u32.to_le_bytes());
        for l in ["site", "#text"] {
            cat.extend_from_slice(&(l.len() as u16).to_le_bytes());
            cat.extend_from_slice(l.as_bytes());
        }

        let header = crate::catalog::Header {
            epoch: 1,
            root_record: 0,
            catalog_first_page: 2 + chunks,
            catalog_len: cat.len() as u64,
            record_limit: 1 << 20,
            journal_first_page: 0,
            journal_len: 0,
        };
        let mut hpage = crate::catalog::encode_header(&header);
        hpage[0..8].copy_from_slice(crate::catalog::MAGIC_V2);
        let sum = fnv64(&hpage[..52]);
        hpage[52..60].copy_from_slice(&sum.to_le_bytes());
        hpage[PAGE_SIZE - 12..].fill(0);

        let mut pager = MemPager::new();
        for _ in 0..2 + chunks + 1 {
            pager.allocate().unwrap();
        }
        pager.write(1, &hpage).unwrap();
        for c in 0..chunks {
            let mut page = [0u8; PAGE_SIZE];
            let start = c as usize * PAGE_SIZE;
            let end = rec_bytes.len().min(start + PAGE_SIZE);
            page[..end - start].copy_from_slice(&rec_bytes[start..end]);
            pager.write(2 + c, &page).unwrap();
        }
        let mut page = [0u8; PAGE_SIZE];
        page[..cat.len()].copy_from_slice(&cat);
        pager.write(2 + chunks, &page).unwrap();

        let tiny = StoreConfig {
            buffer_pages: 2,
            ..StoreConfig::default()
        };
        let mut store = XmlStore::open(Box::new(pager), tiny).unwrap();
        assert_eq!(store.format_version(), 2);
        let source_xml = store.to_document().unwrap().to_xml();

        // Migrate onto a shared backend so the at-rest bytes can be
        // scrubbed and reopened independently of the returned store.
        let shared = SharedMemPager::new();
        let mut migrated = store.compact(Box::new(shared.clone()), tiny).unwrap();
        assert_eq!(migrated.format_version(), 3);
        assert_eq!(migrated.to_document().unwrap().to_xml(), source_xml);
        assert!(
            migrated.page_count() as usize > 2 * tiny.buffer_pages,
            "store must exceed the pool budget for the test to mean anything"
        );
        let stats = migrated.buffer_stats();
        assert!(
            stats.evicted_dirty > 0,
            "migration under a tiny pool must stream dirty pages out: {stats:?}"
        );

        // The migrated file is complete and clean at rest.
        let report = fsck::fsck(&mut shared.clone(), false);
        assert!(report.clean(), "{report}");
        let mut reopened = XmlStore::open(Box::new(shared.clone()), tiny).unwrap();
        assert_eq!(reopened.to_document().unwrap().to_xml(), source_xml);

        // And the migrated store is writable.
        let root = migrated.root().unwrap();
        migrated
            .append_child(root, NodeKind::Element, "x", None)
            .unwrap();
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
