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
    fn compact_streams_through_a_tiny_pool_budget() {
        // One record spanning a multi-page overflow chain, so that
        // compacting it through a 2-page destination pool must stream
        // pages out by eviction.
        let mut xml = String::from("<site>");
        for _ in 0..10 {
            xml.push_str(&format!("<t>{}</t>", "v".repeat(3000)));
        }
        xml.push_str("</site>");
        let doc = parse(&xml).unwrap();
        let tiny = StoreConfig {
            buffer_pages: 2,
            record_limit_slots: 1 << 20,
            ..StoreConfig::default()
        };
        let mut store =
            bulkload_with(&doc, &Ekm, 1 << 20, Box::new(MemPager::new()), tiny).unwrap();
        assert_eq!(store.record_count(), 1);
        let source_xml = store.to_document().unwrap().to_xml();

        // Compact onto a shared backend so the at-rest bytes can be
        // scrubbed and reopened independently of the returned store.
        let shared = SharedMemPager::new();
        let mut compacted = store.compact(Box::new(shared.clone()), tiny).unwrap();
        assert_eq!(compacted.to_document().unwrap().to_xml(), source_xml);
        assert!(
            compacted.page_count() as usize > 2 * tiny.buffer_pages,
            "store must exceed the pool budget for the test to mean anything"
        );
        let stats = compacted.buffer_stats();
        assert!(
            stats.evicted_dirty > 0,
            "compaction under a tiny pool must stream dirty pages out: {stats:?}"
        );

        // The compacted file is complete and clean at rest.
        let report = fsck::fsck(&mut shared.clone(), false);
        assert!(report.clean(), "{report}");
        let mut reopened = XmlStore::open(Box::new(shared.clone()), tiny).unwrap();
        assert_eq!(reopened.to_document().unwrap().to_xml(), source_xml);

        // And the compacted store is writable.
        let root = compacted.root().unwrap();
        compacted
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
