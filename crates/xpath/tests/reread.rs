//! How often does a cold query read the same page again, and why? Each
//! XPathMark query runs on a fresh store handle (an empty pool, as a
//! served unpinned query has) over the benchmark's `serve-read` store:
//! XMark at scale 0.08, EKM layout, K = 256. The backend reads the pool
//! makes (its misses) against the file's page count is
//! the query's re-read factor. Three more runs say where the reads come
//! from: one that renders every hit where the walk finds it, as a served
//! `query` does; one with a pool as large as the file (every read is a
//! first touch); and one that records the demand sequence of page
//! accesses and replays it through a clairvoyant 44-frame pool — what the
//! best replacement policy there is could do. The store holds the decoded
//! records from the root record down to its cursor and nothing else, so a
//! record is decoded again only by a walk that comes back to it from
//! outside that chain: the test pins that no `//` query does. Everything
//! here is deterministic, so the counts are pinned exactly; DESIGN.md §15
//! and ROADMAP item 2 quote them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use natix_core::Ekm;
use natix_datagen::{xmark, GenConfig};
use natix_store::{
    bulkload_with, PageId, Pager, RecordData, SharedMemPager, StoreConfig, StoreResult, XmlStore,
    PAGE_SIZE,
};
use natix_xml::{Document, NodeKind};
use natix_xpath::{eval, eval_with, parse, xpathmark, StoreNavigator};

#[derive(Debug, PartialEq)]
struct Cold {
    query: &'static str,
    /// Records decoded (Table 3's metric) and pool reads of the
    /// evaluation, as served: quarter-of-the-file pool.
    decodes: u64,
    misses: u64,
    /// Pool reads added by rendering the hits the way `query` answers:
    /// each where the walk finds it.
    render_reads: u64,
    /// Distinct pages touched: the reads of the same evaluation under a
    /// pool that never evicts.
    distinct_pages: u64,
    /// Misses of Belady's optimal replacement over the query's demand
    /// accesses, with the served pool's frame count.
    optimal_misses: u64,
}

const fn cold(query: &'static str, served: [u64; 3], distinct_pages: u64, optimal: u64) -> Cold {
    Cold {
        query,
        decodes: served[0],
        misses: served[1],
        render_reads: served[2],
        distinct_pages,
        optimal_misses: optimal,
    }
}

/// Q1, Q2 and Q5 decode the 55/73/55 records their child paths lead
/// through, the `//` queries each of the store's 646 — every one of the
/// seven its distinct-record count (PR 16 measured those with a cache
/// that never evicted, against 57/338/1940/1165/101/2677/2677 decodes
/// under the 16-entry FIFO this chain replaced).
const PINNED: [Cold; 7] = [
    cold("Q1", [55, 25, 0], 25, 25),
    cold("Q2", [73, 27, 0], 27, 27),
    cold("Q3", [646, 185, 0], 174, 174),
    cold("Q4", [646, 185, 0], 174, 174),
    cold("Q5", [55, 25, 0], 25, 25),
    cold("Q6", [646, 185, 0], 174, 174),
    cold("Q7", [646, 185, 0], 174, 174),
];

/// Pool reads so far.
fn reads(store: &XmlStore) -> u64 {
    store.buffer_stats().misses
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

/// The `serve-read` document, the "disk" it is bulkloaded on, and the
/// store's record count. No on-disk byte may change unannounced: 177
/// pages, 646 records.
fn served_store() -> (Document, SharedMemPager, usize) {
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
    assert_eq!(
        (disk.page_count(), records),
        (177, 646),
        "the serve-read store"
    );
    (doc, disk, records)
}

/// What a path summary could save a `//T` query at most: the records
/// that hold a `T` element have to be decoded whatever the walk knows,
/// and so do the records of the proxy chain that leads to them; only the
/// rest could be skipped. For `keyword`, where four of the seven
/// XPathMark queries start, that is 66 of 646 records — ROADMAP item 4 is
/// scoped by these counts.
#[test]
fn a_path_summary_could_skip_a_pinned_number_of_records() {
    let (_, disk, records) = served_store();
    let mut store = XmlStore::open(Box::new(disk), StoreConfig::default()).unwrap();
    let mut ceiling = |name: &str| {
        let label = store.label_id(name).unwrap();
        let scan = |rec: &RecordData| {
            let holds = rec
                .nodes()
                .any(|n| n.kind == NodeKind::Element && n.label == label);
            (rec.parent_record, holds)
        };
        let scanned: Vec<(u32, bool)> = (0..records as u32)
            .map(|no| store.with_record(no, scan).unwrap())
            .collect();
        let mut entered: Vec<bool> = scanned.iter().map(|&(_, holds)| holds).collect();
        let holding = entered.iter().filter(|&&holds| holds).count();
        for &(parent, holds) in &scanned {
            let mut up = parent;
            while holds && up != u32::MAX && !entered[up as usize] {
                entered[up as usize] = true;
                up = scanned[up as usize].0;
            }
        }
        (holding, entered.iter().filter(|&&e| e).count())
    };
    assert_eq!(ceiling("keyword"), (566, 580));
    assert_eq!(ceiling("mail"), (219, 230));
    assert_eq!(ceiling("item"), (53, 53));
}

#[test]
fn cold_queries_reread_pages_a_pinned_number_of_times() {
    let (doc, disk, records) = served_store();
    let pages = disk.page_count() as usize;
    let served_pool = pages / 4;
    let open = |backend: Box<dyn Pager>, config: StoreConfig| {
        let store = XmlStore::open(backend, config).unwrap();
        assert_eq!(reads(&store), 0, "open bypasses the pool");
        store
    };

    let served_config = StoreConfig {
        buffer_pages: served_pool,
        ..StoreConfig::default()
    };

    // What bounds the decoded records a store holds: the height of the
    // tree in records. And a dump is the same lazy walk as a `//` query:
    // every record decoded once.
    let mut dumped = open(Box::new(disk.clone()), served_config);
    let parent = |no| dumped.with_record(no, |rec| rec.parent_record).unwrap();
    let parents: Vec<u32> = (0..records as u32).map(parent).collect();
    let depth = |mut no: u32| {
        let mut depth = 1;
        while parents[no as usize] != u32::MAX {
            no = parents[no as usize];
            depth += 1;
        }
        depth
    };
    assert_eq!((0..records as u32).map(depth).max(), Some(7));
    let mut dumped = open(Box::new(disk.clone()), served_config);
    assert_eq!(dumped.to_document().unwrap().len(), doc.len());
    assert_eq!(dumped.nav_stats().record_decodes, records as u64);
    assert_eq!(reads(&dumped), 185);
    let mut measured = Vec::new();
    for (query, text) in xpathmark::all() {
        let path = parse(text).unwrap();
        let mut served = open(Box::new(disk.clone()), served_config);
        let hits = eval(&mut StoreNavigator::new(&mut served), &path).unwrap();
        let pool = served.buffer_stats();
        let decodes = served.nav_stats().record_decodes;
        if text.contains("//") || text.contains("descendant") {
            assert_eq!(decodes, records as u64, "{query}: every record, once");
        }

        // The served answer: the same walk, every hit rendered at the
        // cursor. It decodes nothing the walk did not.
        let mut rendering = open(Box::new(disk.clone()), served_config);
        let lines = eval_with(
            &mut StoreNavigator::new(&mut rendering),
            &path,
            |nav, hit| {
                let label = nav.store().with_node(hit, |n| n.label)?;
                Ok((label, nav.store().node_content(hit)?))
            },
        )
        .unwrap();
        assert_eq!(lines.len(), hits.len());
        assert_eq!(rendering.nav_stats().record_decodes, decodes);
        let render_reads = reads(&rendering) - pool.misses;

        let mut roomy = open(
            Box::new(disk.clone()),
            StoreConfig {
                buffer_pages: pages,
                ..StoreConfig::default()
            },
        );
        eval(&mut StoreNavigator::new(&mut roomy), &path).unwrap();
        assert_eq!(roomy.buffer_stats().evictions, 0);

        // A one-frame pool passes every demand access on (but for repeats
        // of the page it holds, hits under any policy).
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut traced = open(
            Box::new(Recording {
                disk: disk.clone(),
                log: log.clone(),
            }),
            StoreConfig {
                buffer_pages: 1,
                ..StoreConfig::default()
            },
        );
        log.borrow_mut().clear();
        eval(&mut StoreNavigator::new(&mut traced), &path).unwrap();

        measured.push(Cold {
            query,
            decodes,
            misses: pool.misses,
            render_reads,
            distinct_pages: reads(&roomy),
            optimal_misses: optimal_misses(&log.borrow(), served_pool),
        });
    }
    assert_eq!(measured, PINNED);
    // The benchmark's `paper_cost` on `serve-read` is the decode sum, and a
    // served Q1-Q7 cycle reads this many pages, evaluation plus rendering:
    // 2767 decodes and 817 pool reads (8955 and 2713 before the store held
    // the chain and the walk entered proxies lazily).
    assert_eq!(measured.iter().map(|m| m.decodes).sum::<u64>(), 2767);
    let cycle_reads = |m: &Cold| m.misses + m.render_reads;
    assert_eq!(measured.iter().map(cycle_reads).sum::<u64>(), 817);
}
