//! Property tests for the CLOCK buffer pool's eviction contract:
//!
//! * a pinned, resident page is never evicted for as long as the pin is
//!   held, across arbitrary access/pin/unpin traces;
//! * an unpinned clean page (or dirty page at/past the write-back floor)
//!   is always evictable, so the pool never grows past its budget plus
//!   the pinned set, and never past the budget at all when nothing is
//!   pinned.
//!
//! Content is modeled alongside: every access checks the page byte the
//! model expects, so write-back eviction and reload must round-trip.
//!
//! One test runs the pool under a bulkloaded store instead of a model.

use std::collections::{HashMap, HashSet};

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
/// the bulkload/compaction regime).
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

#[derive(Debug, Clone, Copy)]
enum Op {
    Read,
    Write,
    Pin,
    Unpin,
}

fn op_strategy() -> impl Strategy<Value = (u32, Op)> {
    (0..PAGES, 0..4u8).prop_map(|(p, o)| {
        let op = match o {
            0 => Op::Read,
            1 => Op::Write,
            2 => Op::Pin,
            _ => Op::Unpin,
        };
        (p, op)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Over a random pin/unpin/access trace, a page that is pinned and
    /// resident stays resident until unpinned, and the pool stays within
    /// budget + pinned set (an unpinned frame is always evictable here:
    /// clean, or dirty past the floor).
    #[test]
    fn pinned_pages_survive_and_budget_holds(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut pool = pool_under_test();
        let mut pins: HashMap<u32, u32> = HashMap::new();
        let mut content: HashMap<u32, u8> = (0..PAGES).map(|i| (i, i as u8)).collect();
        // Pages that were pinned and resident after the previous op.
        let mut protected: HashSet<u32> = HashSet::new();
        for (page, op) in ops {
            let was_resident = pool.is_resident(page);
            match op {
                Op::Read => {
                    let want = content[&page];
                    let got = pool.with_page(page, false, |b| b[0]).unwrap();
                    prop_assert_eq!(got, want);
                }
                Op::Write => {
                    let next = content[&page].wrapping_add(1);
                    pool.with_page(page, true, |b| b[0] = next).unwrap();
                    content.insert(page, next);
                }
                Op::Pin => {
                    pool.pin_pages([page]);
                    *pins.entry(page).or_insert(0) += 1;
                }
                Op::Unpin => {
                    if let Some(n) = pins.get_mut(&page) {
                        pool.unpin_pages([page]);
                        *n -= 1;
                        if *n == 0 {
                            pins.remove(&page);
                        }
                    }
                }
            }
            for p in &protected {
                if pins.contains_key(p) {
                    prop_assert!(pool.is_resident(*p), "pinned page {} was evicted", p);
                }
            }
            protected = (0..PAGES)
                .filter(|p| pins.contains_key(p) && pool.is_resident(*p))
                .collect();
            // The pool grows only when a miss admits a frame, and the
            // eviction pass right before that admission runs against the
            // current pin set — so the budget bound is checked at growth
            // points. (Unpinning shrinks the pool lazily, at the next
            // miss, and hit-path accesses never evict.)
            if matches!(op, Op::Read | Op::Write) && !was_resident {
                prop_assert!(
                    pool.resident() <= CAPACITY.max(pins.len() + 1),
                    "resident {} exceeds budget {} with {} page(s) pinned",
                    pool.resident(),
                    CAPACITY,
                    pins.len()
                );
            }
        }
        // Release every pin. The pool shrinks lazily — hit-path reads
        // never evict — so force one growth point (an allocation runs
        // the eviction pass) and the budget must hold again; then every
        // page must still read back its latest modeled content.
        let held: Vec<(u32, u32)> = pins.iter().map(|(&p, &n)| (p, n)).collect();
        for (p, n) in held {
            for _ in 0..n {
                pool.unpin_pages([p]);
            }
        }
        pool.allocate().unwrap();
        prop_assert!(
            pool.resident() <= CAPACITY,
            "resident {} exceeds budget {} after pins released",
            pool.resident(),
            CAPACITY
        );
        for p in 0..PAGES {
            let want = content[&p];
            let got = pool.with_page(p, false, |b| b[0]).unwrap();
            prop_assert_eq!(got, want);
            prop_assert!(pool.resident() <= CAPACITY);
        }
    }

    /// With nothing pinned, an unpinned frame is always evictable, so a
    /// random clean/dirty access trace never grows the pool past its
    /// budget — and write-back eviction round-trips every page image.
    #[test]
    fn unpinned_pool_never_exceeds_budget(
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
    let scrub = fsck(&mut disk.clone(), false);
    assert!(scrub.clean(), "{scrub}");
}
