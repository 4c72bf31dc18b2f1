//! Failure injection: random byte corruption in pages must surface as
//! `StoreError`s (or be harmless), never as panics.

use natix_core::{Ekm, Partitioner};
use natix_store::{MemPager, Pager, StoreConfig, XmlStore, PAGE_SIZE};
use proptest::prelude::*;

/// A pager that flips one byte of one page on every read.
struct CorruptingPager {
    inner: MemPager,
    target_page: u32,
    offset: usize,
    xor: u8,
}

impl Pager for CorruptingPager {
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }
    fn allocate(&mut self) -> natix_store::StoreResult<u32> {
        self.inner.allocate()
    }
    fn read(&mut self, id: u32, buf: &mut [u8; PAGE_SIZE]) -> natix_store::StoreResult<()> {
        self.inner.read(id, buf)?;
        if id == self.target_page {
            buf[self.offset] ^= self.xor;
        }
        Ok(())
    }
    fn write(&mut self, id: u32, buf: &[u8; PAGE_SIZE]) -> natix_store::StoreResult<()> {
        self.inner.write(id, buf)
    }
}

fn sample_doc() -> natix_xml::Document {
    let mut s = String::from("<site>");
    for i in 0..120 {
        s.push_str(&format!(
            "<item id=\"i{i}\"><name>object number {i}</name>\
             <note>some text content for padding {i}</note></item>"
        ));
    }
    s.push_str("</site>");
    natix_xml::parse(&s).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A full traversal over a store whose backend corrupts one byte either
    /// succeeds (the flip landed in free space or content bytes) or returns
    /// an error — it must never panic.
    #[test]
    fn corrupted_pages_never_panic(
        target_page in 0u32..16,
        offset in 0..PAGE_SIZE,
        xor in 1..=255u8,
    ) {
        let doc = sample_doc();
        let p = Ekm.partition(doc.tree(), 32).unwrap();
        let pager = CorruptingPager {
            inner: MemPager::new(),
            target_page,
            offset,
            xor,
        };
        // A tiny buffer pool, and a second traversal after the store has
        // let go of every decoded record, so pages really are re-read (and
        // re-corrupted) and every record decoded from them again.
        let config = StoreConfig {
            buffer_pages: 2,
            ..Default::default()
        };
        // Bulkload itself may already trip over the corruption: that must
        // be an Err, not a panic.
        if let Ok(mut store) = XmlStore::bulkload(&doc, &p, Box::new(pager), config) {
            for _ in 0..2 {
                store.reset_nav_stats();
                let before = store.buffer_stats().misses;
                let read = store.to_document();
                let decodes = store.nav_stats().record_decodes as usize;
                let reread = store.buffer_stats().misses > before;
                prop_assert!(read.is_err() || (reread && decodes == store.record_count()));
            }
        }
    }

    /// Same for reopening from a corrupted page file (header/catalog
    /// corruption paths).
    #[test]
    fn corrupted_reopen_never_panics(
        target_page in 0u32..16,
        offset in 0..PAGE_SIZE,
        xor in 1..=255u8,
    ) {
        let doc = sample_doc();
        let p = Ekm.partition(doc.tree(), 32).unwrap();
        let clean = XmlStore::bulkload(
            &doc,
            &p,
            Box::new(MemPager::new()),
            StoreConfig::default(),
        )
        .unwrap();
        drop(clean);
        // Rebuild the same pages, then reopen through a corrupting pager.
        let pager = CorruptingPager {
            inner: MemPager::new(),
            target_page,
            offset,
            xor,
        };
        let store = XmlStore::bulkload(&doc, &p, Box::new(pager), StoreConfig::default());
        if let Ok(store) = store {
            drop(store);
        }
        // Reopen path: a fresh corrupting pager over a fresh bulkload is
        // not directly possible (MemPager state lives in the store), so
        // exercise open() against an arbitrary page image instead.
        let mut raw = MemPager::new();
        for _ in 0..4 {
            let id = raw.allocate().unwrap();
            let mut page = [0u8; PAGE_SIZE];
            if id == 0 {
                page[..8].copy_from_slice(b"NATIXST1");
            }
            page[(offset + id as usize) % PAGE_SIZE] = xor;
            raw.write(id, &page).unwrap();
        }
        let _ = XmlStore::open(Box::new(raw), StoreConfig::default());
    }
}
