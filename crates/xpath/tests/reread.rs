//! How often does a cold query read the same page again, and why? Each
//! XPathMark query runs on a fresh store handle (an empty pool, as a
//! served unpinned query has) over the benchmark's `serve-read` store:
//! XMark at scale 0.08, EKM layout, K = 256. The backend reads the pool
//! makes (demand misses + read-ahead) against the file's page count is
//! the query's re-read factor. Two more runs say where the re-reads come
//! from: one with caches that never evict (every decode and every read
//! is a first touch), and one that records the demand sequence of page
//! accesses and replays it through a clairvoyant 44-frame pool — what the
//! best replacement policy there is could do. Everything here is
//! deterministic, so the counts are pinned exactly; DESIGN.md §15 and
//! ROADMAP item 2 quote them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use natix_core::Ekm;
use natix_datagen::{xmark, GenConfig};
use natix_store::{
    bulkload_with, PageId, Pager, SharedMemPager, StoreConfig, StoreResult, XmlStore, PAGE_SIZE,
};
use natix_xpath::{eval_query, xpathmark, StoreNavigator};

#[derive(Debug, PartialEq)]
struct Cold {
    query: &'static str,
    /// Records decoded (Table 3's metric) and pool reads of the
    /// evaluation, as served: 16-record cache, quarter-of-the-file pool.
    decodes: u64,
    misses: u64,
    readaheads: u64,
    /// Pool reads added by rendering the hits the way `query` answers.
    render_reads: u64,
    /// The same evaluation when nothing is ever evicted: distinct records
    /// and distinct pages touched.
    distinct_records: u64,
    distinct_pages: u64,
    /// Misses of Belady's optimal replacement over the query's demand
    /// accesses, with the served pool's frame count and no read-ahead.
    optimal_misses: u64,
}

const fn cold(query: &'static str, served: [u64; 4], first_touch: [u64; 2], optimal: u64) -> Cold {
    Cold {
        query,
        decodes: served[0],
        misses: served[1],
        readaheads: served[2],
        render_reads: served[3],
        distinct_records: first_touch[0],
        distinct_pages: first_touch[1],
        optimal_misses: optimal,
    }
}

const PINNED: [Cold; 7] = [
    cold("Q1", [57, 2, 26, 0], [55, 28], 25),
    cold("Q2", [338, 2, 26, 0], [73, 28], 27),
    cold("Q3", [1940, 432, 44, 157], [646, 174], 341),
    cold("Q4", [1165, 293, 44, 146], [646, 174], 274),
    cold("Q5", [101, 2, 26, 0], [55, 28], 25),
    cold("Q6", [2677, 598, 44, 144], [646, 174], 464),
    cold("Q7", [2677, 598, 44, 85], [646, 174], 464),
];

/// Pool reads so far.
fn reads(store: &XmlStore) -> u64 {
    let pool = store.buffer_stats();
    pool.misses + pool.readaheads
}

/// Logs every page read on its way to the shared "disk".
struct Recording {
    disk: SharedMemPager,
    log: Rc<RefCell<Vec<PageId>>>,
}

impl Pager for Recording {
    fn page_count(&self) -> u32 {
        self.disk.page_count()
    }
    fn allocate(&mut self) -> StoreResult<PageId> {
        self.disk.allocate()
    }
    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        self.log.borrow_mut().push(id);
        self.disk.read(id, buf)
    }
    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        self.disk.write(id, buf)
    }
}

/// Misses of the clairvoyant policy (evict the page used furthest in the
/// future) over `accesses` with `frames` frames.
fn optimal_misses(accesses: &[PageId], frames: usize) -> u64 {
    let mut next_use = vec![usize::MAX; accesses.len()];
    let mut later = HashMap::new();
    for (i, &page) in accesses.iter().enumerate().rev() {
        next_use[i] = later.insert(page, i).unwrap_or(usize::MAX);
    }
    let mut resident: HashMap<PageId, usize> = HashMap::new();
    let mut misses = 0;
    for (i, &page) in accesses.iter().enumerate() {
        if !resident.contains_key(&page) {
            misses += 1;
            if resident.len() == frames {
                let victim = *resident
                    .iter()
                    .max_by_key(|&(_, &next)| next)
                    .expect("full")
                    .0;
                resident.remove(&victim);
            }
        }
        resident.insert(page, next_use[i]);
    }
    misses
}

#[test]
fn cold_queries_reread_pages_a_pinned_number_of_times() {
    let doc = xmark(GenConfig {
        scale: 0.08,
        seed: 0x004e_4154_4958,
    });
    let disk = SharedMemPager::new();
    let loaded = bulkload_with(
        &doc,
        &Ekm,
        256,
        Box::new(disk.clone()),
        StoreConfig::default(),
    )
    .unwrap();
    let records = loaded.record_count();
    drop(loaded);
    let pages = disk.page_count() as usize;
    assert_eq!((pages, records), (177, 646), "the serve-read store");
    let served_pool = pages / 4;
    let open = |backend: Box<dyn Pager>, config: StoreConfig| {
        let store = XmlStore::open(backend, config).unwrap();
        assert_eq!(reads(&store), 0, "open bypasses the pool");
        store
    };

    let mut measured = Vec::new();
    for (query, text) in xpathmark::all() {
        let mut served = open(
            Box::new(disk.clone()),
            StoreConfig {
                buffer_pages: served_pool,
                ..StoreConfig::default()
            },
        );
        let hits = eval_query(&mut StoreNavigator::new(&mut served), text).unwrap();
        let pool = served.buffer_stats();
        let decodes = served.nav_stats().record_decodes;
        for &hit in &hits {
            served.with_node(hit, |n| n.label).unwrap();
            served.node_content(hit).unwrap();
        }
        let render_reads = reads(&served) - pool.misses - pool.readaheads;

        let mut roomy = open(
            Box::new(disk.clone()),
            StoreConfig {
                buffer_pages: pages,
                record_cache: records,
                ..StoreConfig::default()
            },
        );
        eval_query(&mut StoreNavigator::new(&mut roomy), text).unwrap();
        assert_eq!(roomy.buffer_stats().evictions, 0);

        // A one-frame pool without read-ahead passes every demand access
        // on (but for repeats of the page it holds, hits under any policy).
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut traced = open(
            Box::new(Recording {
                disk: disk.clone(),
                log: log.clone(),
            }),
            StoreConfig {
                buffer_pages: 1,
                readahead_records: 0,
                ..StoreConfig::default()
            },
        );
        log.borrow_mut().clear();
        eval_query(&mut StoreNavigator::new(&mut traced), text).unwrap();

        measured.push(Cold {
            query,
            decodes,
            misses: pool.misses,
            readaheads: pool.readaheads,
            render_reads,
            distinct_records: roomy.nav_stats().record_decodes,
            distinct_pages: reads(&roomy),
            optimal_misses: optimal_misses(&log.borrow(), served_pool),
        });
    }
    assert_eq!(measured, PINNED);
    // The benchmark's `paper_cost` and `store.pager.reads_per_op` (387.6)
    // on `serve-read` are these: 8955 decodes and 2713 pool reads per
    // Q1-Q7 cycle, evaluation plus rendering.
    assert_eq!(measured.iter().map(|m| m.decodes).sum::<u64>(), 8955);
    let cycle_reads = |m: &Cold| m.misses + m.readaheads + m.render_reads;
    assert_eq!(measured.iter().map(cycle_reads).sum::<u64>(), 2713);
}
