//! Collection layer: sharded parallel bulkload, catalog round-trip,
//! cross-shard fsck, thread-count independence of the shard bytes, and
//! resident memory that the corpus size does not move.

use std::fs;
use std::path::PathBuf;

use natix_store::{
    bulkload_collection, fsck_collection, page_class_of, shard_path, BulkloadOptions, Collection,
    PageClass, StoreConfig, PAGE_SIZE, PAYLOAD_SIZE,
};

fn corpus(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "<doc id=\"{i}\"><title>document {i}</title>\
                 <body>payload text for document number {i}</body>\
                 <tags><t>a{}</t><t>b{}</t></tags></doc>",
                i % 7,
                i % 3
            )
        })
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("natix-coll-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config() -> StoreConfig {
    StoreConfig {
        record_limit_slots: 64,
        ..StoreConfig::default()
    }
}

#[test]
fn collection_round_trips_every_document() {
    let dir = temp_dir("roundtrip");
    let docs = corpus(97);
    let opts = BulkloadOptions {
        shards: 4,
        threads: 2,
        seg_docs: 10,
        ..BulkloadOptions::default()
    };
    let report = bulkload_collection(&dir, docs.iter().cloned(), config(), opts).expect("load");
    assert_eq!(report.docs, 97);
    assert_eq!(report.shard_docs.iter().sum::<u64>(), 97);
    assert!(report.peak_loader_resident > 0);

    let mut coll = Collection::open(&dir, config()).expect("open");
    assert_eq!(coll.shard_count(), 4);
    assert_eq!(coll.doc_count(), 97);
    for (i, xml) in docs.iter().enumerate() {
        let doc = coll.get_document(i as u64).expect("get_document");
        assert_eq!(&doc.to_xml(), xml, "doc {i} round-trip");
    }
    assert!(coll.check().expect("check").is_empty(), "shards consistent");
    // The per-shard table `natix collection stats` prints: the loader's
    // doc split, and a non-empty store behind every shard.
    let stats = coll.stats().expect("stats");
    let docs: Vec<u64> = stats.iter().map(|s| s.0).collect();
    assert_eq!(docs, report.shard_docs);
    assert!(
        stats
            .iter()
            .all(|&(_, records, pages)| records > 0 && pages > 0),
        "{stats:?}"
    );

    for (shard, report) in fsck_collection(&dir, false).expect("fsck") {
        assert!(report.clean(), "shard {shard} not clean:\n{report}");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_bytes_independent_of_thread_count() {
    let docs = corpus(60);
    let opts = |threads| BulkloadOptions {
        shards: 3,
        threads,
        seg_docs: 8,
        ..BulkloadOptions::default()
    };
    let d1 = temp_dir("threads1");
    let d3 = temp_dir("threads3");
    bulkload_collection(&d1, docs.iter().cloned(), config(), opts(1)).expect("1 thread");
    bulkload_collection(&d3, docs.iter().cloned(), config(), opts(3)).expect("3 threads");
    for s in 0..3 {
        let a = fs::read(shard_path(&d1, s)).expect("shard file");
        let b = fs::read(shard_path(&d3, s)).expect("shard file");
        assert_eq!(a, b, "shard {s} bytes differ across thread counts");
    }
    fs::remove_dir_all(&d1).ok();
    fs::remove_dir_all(&d3).ok();
}

/// A shard commits once per segment, and a commit journals only the
/// published pages it overwrites (the shard root's page and the page the
/// last segment left open), never the segment's fresh record pages.
#[test]
fn streamed_shards_journal_only_what_their_commits_overwrite() {
    let docs = corpus(1200);
    let opts = BulkloadOptions {
        shards: 3,
        threads: 2,
        seg_docs: 128,
        ..BulkloadOptions::default()
    };
    // A journal of two page images: magic, count and checksum, then each
    // image with its page id. It is just over two pages long.
    let two_images = (16 + 2 * (4 + PAGE_SIZE)).div_ceil(PAYLOAD_SIZE) as u64;
    let dir = temp_dir("journal");
    let report = bulkload_collection(&dir, docs.iter().cloned(), config(), opts).expect("load");
    for (s, &shard_docs) in report.shard_docs.iter().enumerate() {
        let bytes = fs::read(shard_path(&dir, s as u32)).expect("shard file");
        let count = |class| {
            bytes
                .chunks(PAGE_SIZE)
                .filter(|&p| page_class_of(p.try_into().unwrap()) == class)
                .count() as u64
        };
        let commits = shard_docs.div_ceil(opts.seg_docs as u64);
        let (records, journal) = (count(PageClass::Record), count(PageClass::Journal));
        println!("shard {s}: {commits} commits, {records} record pages, {journal} journal pages");
        assert!(records > 3 * commits, "shard {s}: {records} record pages");
        assert!(
            journal <= two_images * commits,
            "shard {s}: {journal} journal pages, {commits} commits"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_catalog_tail_is_ignored() {
    let dir = temp_dir("torn");
    let docs = corpus(40);
    let opts = BulkloadOptions {
        shards: 2,
        threads: 1,
        seg_docs: 5,
        ..BulkloadOptions::default()
    };
    bulkload_collection(&dir, docs.iter().cloned(), config(), opts).expect("load");
    let full = Collection::open(&dir, config()).expect("open").doc_count();
    assert_eq!(full, 40);

    // Chop the catalog mid-frame: the intact prefix must still open.
    let cat = dir.join(natix_store::CATALOG_FILE);
    let bytes = fs::read(&cat).expect("catalog");
    fs::write(&cat, &bytes[..bytes.len() - 7]).expect("truncate");
    let mut coll = Collection::open(&dir, config()).expect("open torn");
    let n = coll.doc_count();
    assert!(n < 40, "tail frame should be dropped");
    // Every still-cataloged document remains readable.
    for shard in 0..2u64 {
        let mut local = 0;
        loop {
            let id = shard + local * 2;
            if coll.doc_root(id).is_none() {
                break;
            }
            coll.get_document(id).expect("cataloged doc readable");
            local += 1;
        }
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_document_fails_the_load() {
    let dir = temp_dir("fail");
    let heavy = "x".repeat(4096);
    let docs = vec!["<a><b>ok</b></a>".to_string(), format!("<a>{heavy}</a>")];
    let cfg = StoreConfig {
        record_limit_slots: 16,
        ..StoreConfig::default()
    };
    let opts = BulkloadOptions {
        shards: 2,
        threads: 1,
        ..BulkloadOptions::default()
    };
    assert!(bulkload_collection(&dir, docs.into_iter(), cfg, opts).is_err());
    fs::remove_dir_all(&dir).ok();
}

/// Streaming memory bound: at a fixed pool cap per shard, ten times the
/// documents leave peak resident bytes (loader slab + shard pools) within
/// 2×. The small corpus already fills the pools to their cap, so the
/// ratio measures growth with the corpus, not pools filling up.
#[test]
fn resident_memory_is_flat_in_corpus_size() {
    const SHARDS: u32 = 2;
    const POOL_PAGES: usize = 8;
    let cfg = StoreConfig {
        buffer_pages: POOL_PAGES,
        ..StoreConfig::default()
    };
    let opts = BulkloadOptions {
        shards: SHARDS,
        threads: 1,
        seg_docs: 16,
        ..BulkloadOptions::default()
    };
    let load = |docs: usize| {
        let dir = temp_dir(&format!("resident{docs}"));
        let report = bulkload_collection(&dir, natix_datagen::small_docs(docs, 42), cfg, opts)
            .expect("load");
        fs::remove_dir_all(&dir).ok();
        assert_eq!(report.docs, docs as u64);
        report
    };
    let small = load(60);
    let large = load(600);
    let cap = SHARDS as usize * POOL_PAGES * PAGE_SIZE;
    assert_eq!(
        small.peak_pool_resident, cap,
        "the small corpus must leave the pools exactly at their cap"
    );
    assert!(large.peak_pool_resident <= cap, "{large:?}");
    let total = |r: &natix_store::BulkloadReport| r.peak_loader_resident + r.peak_pool_resident;
    assert!(
        total(&large) <= 2 * total(&small),
        "peak resident grew from {} to {} bytes over 10x the documents",
        total(&small),
        total(&large)
    );
}
