//! Property test for the CLOCK buffer pool's eviction contract: a clean
//! page (or dirty page at/past the write-back floor) is always evictable,
//! so the pool never grows past its budget.
//!
//! Content is modeled alongside: every access checks the page byte the
//! model expects, so write-back eviction and reload must round-trip.
//!
//! One test runs the pool under a bulkloaded store instead of a model.

use std::collections::HashMap;

use natix_core::Ekm;
use natix_datagen::GenConfig;
use natix_store::{
    bulkload_with, fsck, BufferPool, BufferStats, MemPager, Pager, SharedMemPager, StoreConfig,
    XmlStore, PAGE_SIZE,
};
use proptest::prelude::*;

const PAGES: u32 = 12;
const CAPACITY: usize = 4;

/// A pool over a backend with `PAGES` pages, page `i` filled with byte
/// `i`, and every dirty page eligible for write-back eviction (floor 0,
/// the bulkload regime).
fn pool_under_test() -> BufferPool {
    let mut mem = MemPager::new();
    for i in 0..PAGES {
        let id = mem.allocate().unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = i as u8;
        mem.write(id, &buf).unwrap();
    }
    let mut pool = BufferPool::new(Box::new(mem), CAPACITY);
    pool.set_writeback_floor(0);
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every frame is evictable here (clean, or dirty past the floor), so
    /// a random clean/dirty access trace never grows the pool past its
    /// budget — and write-back eviction round-trips every page image.
    #[test]
    fn pool_never_exceeds_budget(
        ops in proptest::collection::vec((0..PAGES, any::<bool>()), 1..200),
    ) {
        let mut pool = pool_under_test();
        let mut content: HashMap<u32, u8> = (0..PAGES).map(|i| (i, i as u8)).collect();
        for (page, dirty) in ops {
            if dirty {
                let next = content[&page].wrapping_add(1);
                pool.with_page(page, true, |b| b[0] = next).unwrap();
                content.insert(page, next);
            } else {
                let want = content[&page];
                let got = pool.with_page(page, false, |b| b[0]).unwrap();
                prop_assert_eq!(got, want);
            }
            prop_assert!(
                pool.resident() <= CAPACITY,
                "resident {} exceeds budget {}",
                pool.resident(),
                CAPACITY
            );
        }
        for p in 0..PAGES {
            let want = content[&p];
            let got = pool.with_page(p, false, |b| b[0]).unwrap();
            prop_assert_eq!(got, want);
        }
    }
}

/// The pool under a store: an XMark document reopened with an eighth, a
/// quarter and half of its pages navigates and dumps to the bytes the
/// full pool gives, and does so by evicting; a larger pool never misses
/// more; the backend scrubs clean afterwards.
#[test]
fn out_of_budget_pool_dumps_identically() {
    let doc = natix_datagen::xmark(GenConfig {
        scale: 0.02,
        seed: 48,
    });
    let disk = SharedMemPager::new();
    let store = bulkload_with(
        &doc,
        &Ekm,
        256,
        Box::new(disk.clone()),
        StoreConfig::default(),
    )
    .unwrap();
    let total = store.page_count() as usize;
    drop(store);
    assert!(total >= 32, "store of {total} pages is too small to cut");

    // Every node once in document order, then the dump, under `pool_pages`.
    let run = |pool_pages: usize| -> (String, BufferStats) {
        let config = StoreConfig {
            buffer_pages: pool_pages,
            ..StoreConfig::default()
        };
        let mut store = XmlStore::open(Box::new(disk.clone()), config).unwrap();
        let mut visited = 0;
        let mut stack = vec![store.root().unwrap()];
        while let Some(r) = stack.pop() {
            visited += 1;
            stack.extend(store.next_sibling(r).unwrap());
            stack.extend(store.first_child(r).unwrap());
        }
        assert_eq!(visited, doc.tree().len(), "pool of {pool_pages} pages");
        let xml = store.to_document().unwrap().to_xml();
        (xml, store.buffer_stats())
    };

    let (full_xml, full) = run(total);
    assert_eq!(full.evictions, 0, "{full:?}");
    let mut larger_pool_misses = full.misses;
    for pool_pages in [total / 2, total / 4, total / 8] {
        let (xml, stats) = run(pool_pages);
        assert!(xml == full_xml, "dump differs at {pool_pages} pages");
        assert!(stats.evictions > 0, "{pool_pages} pages: {stats:?}");
        assert!(
            stats.misses >= larger_pool_misses,
            "{pool_pages} pages miss less than a larger pool: {stats:?}"
        );
        larger_pool_misses = stats.misses;
    }
    let scrub = fsck(&disk, false);
    assert!(scrub.clean(), "{scrub}");
}
