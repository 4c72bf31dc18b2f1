//! The outside-in layer ledger: short, fixed-size probes that time calls
//! into each layer's public functions. They run in traced runs only and
//! are the same for every workload, so a layer a workload bypasses
//! still has its row (the "predicted: no change" cells of the README's
//! interaction table can be read off any trace).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use natix_core::{dhw_cached_with_statistics, Partitioner, StreamingEkm};
use natix_server::{serve, Client, Request, Response, ResponseBody, ServeConfig, UpdateOp};
use natix_store::{
    bulkload_collection_with, decode_part, verify_frame, AdmissionConfig, ApplyOutcome, BatchOp,
    BufferPool, CapturePager, ChecksummingPager, Collection, FilePager, Follower, MemPager,
    NodeRef, Pager, ReplicaSource, SharedStore, StoreConfig, StoreError, XmlStore, CATALOG_FILE,
    PAGE_SIZE,
};
use natix_xml::{parse_sax, NodeKind, ParseOptions, SaxHandler};
use natix_xpath::{eval, StoreNavigator};

use crate::env::GENERATOR_THREADS;
use crate::fixtures::{append, delete, small_corpus, Expected, XmarkStore, XMARK_SCALE};
use crate::report::Ledger;
use crate::stats::{median, percentile, sorted};
use crate::tpager::{PagerCounters, PagerTotals, TimingFactory, TimingPager};
use crate::trace::{self, Recorder};
use crate::workloads::bulkload_stream::{self, LOADER_THREADS};
use crate::workloads::partition_docs::{self, PARTITIONINGS_PER_PASS};
use crate::workloads::serve_read::{cycle_order, pool_pages, run_cycle, ConnLog, QUERIES};
use crate::workloads::serve_write::REGIONS;
use crate::workloads::{file_len, permutation, rng, Phase, K};

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

fn store_err(what: &str) -> impl Fn(StoreError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// `store.pager.*` rows from the device traffic of `ops` operations.
pub fn pager_rows(l: &mut Ledger, t: &PagerTotals, ops: u64, user_bytes: u64, commits: u64) {
    let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    l.set_all(&[
        ("store.pager.reads_per_op", per(t.reads, ops)),
        ("store.pager.writes_per_op", per(t.pages_written(), ops)),
        ("store.pager.syncs_per_op", per(t.syncs, ops)),
        ("store.pager.read_us", per(t.read_ns, t.reads) / 1e3),
        (
            "store.pager.write_us",
            per(t.write_ns + t.alloc_ns, t.pages_written()) / 1e3,
        ),
        ("store.pager.sync_us", per(t.sync_ns, t.syncs) / 1e3),
        (
            "store.pager.bytes_written_per_user_byte",
            per(t.bytes_written(), user_bytes),
        ),
        (
            "store.journal.pages_per_commit",
            per(t.pages_written(), commits),
        ),
    ]);
}

/// What the probes measured that the cross-layer rows are derived from.
pub struct Probed {
    mem_docs_per_s: f64,
    read: ReadProbe,
    write: WriteProbe,
    server: ServerProbe,
}

impl Probed {
    /// Checks the probes failed without stopping.
    pub fn failures(&self) -> &[String] {
        &self.server.failures
    }
}

// ------------------------------------------------------ xml, tree, core

fn partition_probe(l: &mut Ledger, quick: bool) -> Result<(), String> {
    let scale = partition_docs::SCALE / if quick { 4.0 } else { 1.0 };
    let texts = partition_docs::suite_texts(scale);
    let order: Vec<usize> = (0..texts.len()).collect();
    let passes = if quick { 1 } else { 5 };
    let mut rec = Recorder::new(true, Instant::now());
    let mut last = None;
    for _ in 0..passes {
        last = Some(partition_docs::pass(&texts, &order, &mut rec)?);
    }
    let result = last.expect("at least one pass");
    let rows = trace::rows(&rec.into_spans());
    let total = |name: &str| rows.get(name).map_or(0.0, |r| r.total_ns as f64);
    let bytes = (texts.iter().map(|(_, t)| t.len()).sum::<usize>() * passes) as f64;
    let nodes = (result.nodes.iter().sum::<usize>() * passes) as f64;
    let card = |slot: usize| result.cards.iter().map(|c| c[slot]).sum::<usize>() as f64;

    // DAG sharing and dominance pruning, from the engine's own counters.
    let (mut dag_nodes, mut dag_distinct, mut dag_hits, mut pruned) = (0u64, 0u64, 0u64, 0u64);
    for (name, text) in &texts {
        let doc = natix_xml::parse(text).map_err(|e| format!("{name}: {e}"))?;
        let (_, st) =
            dhw_cached_with_statistics(doc.tree(), K).map_err(|e| format!("{name}: {e}"))?;
        dag_nodes += st.dag_nodes;
        dag_distinct += st.dag_distinct;
        dag_hits += st.dag_hits;
        pruned += st.pruned_candidates;
    }
    debug_assert_eq!(PARTITIONINGS_PER_PASS, 3 * texts.len());
    l.set_all(&[
        ("xml.parse_ns_per_byte", total("xml.parse") / bytes),
        (
            "tree.validate_ns_per_node",
            total("tree.validate") / (3.0 * nodes),
        ),
        ("core.dhw_ns_per_node", total("core.dhw") / nodes),
        ("core.ghdw_ns_per_node", total("core.ghdw") / nodes),
        ("core.ekm_ns_per_node", total("core.ekm") / nodes),
        ("core.dhw_share", total("core.dhw") / total("pass")),
        (
            "core.dag_dedup_ratio",
            dag_nodes as f64 / dag_distinct.max(1) as f64,
        ),
        (
            "core.dag_hit_rate",
            dag_hits as f64 / dag_nodes.max(1) as f64,
        ),
        ("core.pruned_candidates", pruned as f64),
        ("core.partitions_dhw", card(0)),
        ("core.partitions_ghdw", card(1)),
        ("core.partitions_ekm", card(2)),
    ]);
    Ok(())
}

// ------------------------------------------------------- the write path

/// SAX handler that discards every event: the parser's own cost.
struct NullSax;

impl SaxHandler for NullSax {
    type Error = std::convert::Infallible;

    fn start_element(&mut self, _: &str) -> Result<(), Self::Error> {
        Ok(())
    }
    fn attribute(&mut self, _: &str, _: &str) -> Result<(), Self::Error> {
        Ok(())
    }
    fn text(&mut self, _: &str) -> Result<(), Self::Error> {
        Ok(())
    }
    fn comment(&mut self, _: &str) -> Result<(), Self::Error> {
        Ok(())
    }
    fn processing_instruction(&mut self, _: &str, _: &str) -> Result<(), Self::Error> {
        Ok(())
    }
    fn end_element(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}

fn bulkload_probe(l: &mut Ledger, dir: &Path, quick: bool) -> Result<f64, String> {
    let corpus = small_corpus(if quick { 256 } else { 4096 });
    let bytes: usize = corpus.iter().map(String::len).sum();

    let start = Instant::now();
    for xml in &corpus {
        parse_sax(xml, ParseOptions::default(), &mut NullSax).map_err(|e| format!("sax: {e}"))?;
    }
    l.set(
        "xml.sax_ns_per_byte",
        start.elapsed().as_nanos() as f64 / bytes as f64,
    );

    // The streaming partitioner alone, at the loader's sibling budget.
    let sekm = StreamingEkm {
        sibling_budget: bulkload_stream::options(1).sibling_budget,
    };
    let (mut sekm_ns, mut nodes) = (0u128, 0usize);
    for xml in &corpus {
        let doc = natix_xml::parse(xml).map_err(|e| format!("parse: {e}"))?;
        let start = Instant::now();
        let p = sekm.partition(doc.tree(), K);
        sekm_ns += start.elapsed().as_nanos();
        std::hint::black_box(p.map_err(|e| format!("sekm: {e}"))?);
        nodes += doc.len();
    }
    l.set("core.sekm_ns_per_node", sekm_ns as f64 / nodes as f64);

    // The same load with memory for a device: the pipeline's CPU cost.
    // In a shuffled order, as the workload feeds it: in generator order
    // each loader thread would get three of the six generators only, and
    // the threads would not be equally loaded. Median of three loads.
    let order = permutation(&mut rng(0, 0), corpus.len());
    let mem_dir = dir.join("bulk-mem");
    let mut mem_rates = Vec::new();
    for _ in 0..if quick { 1 } else { 3 } {
        let start = Instant::now();
        let report = bulkload_collection_with(
            &mem_dir,
            order.iter().map(|&i| corpus[i].clone()),
            bulkload_stream::store_config(),
            bulkload_stream::options(LOADER_THREADS),
            &|_, _| Ok(Box::new(MemPager::new()) as Box<dyn Pager>),
        )
        .map_err(|e| format!("bulkload onto memory: {e}"))?;
        mem_rates.push(report.docs as f64 / start.elapsed().as_secs_f64());
    }
    let mem_docs_per_s = median(&mem_rates);

    // And onto files, for the catalog and the read-back rows.
    let file_dir = dir.join("bulk-file");
    let report = bulkload_stream::load(&file_dir, corpus.iter().cloned(), LOADER_THREADS, None)?;
    let start = Instant::now();
    let mut collection = Collection::open(&file_dir, bulkload_stream::store_config())
        .map_err(store_err("open collection"))?;
    let open_s = start.elapsed().as_secs_f64();
    let step = (corpus.len() / 200).max(1);
    let mut get_us = Vec::new();
    for id in (0..corpus.len() as u64).step_by(step) {
        let start = Instant::now();
        let doc = collection
            .get_document(id)
            .map_err(store_err("get_document"))?;
        get_us.push(us(start));
        if doc.to_xml() != corpus[id as usize] {
            return Err(format!(
                "probe collection: document {id} does not round-trip"
            ));
        }
    }
    l.set_all(&[
        ("store.bulkload.mem_docs_per_s", mem_docs_per_s),
        (
            "store.bulkload.records_per_doc",
            report.records as f64 / report.docs as f64,
        ),
        (
            "store.bulkload.slab_peak_bytes",
            report.peak_loader_resident as f64,
        ),
        (
            "store.collection.catalog_bytes_per_doc",
            file_len(&file_dir.join(CATALOG_FILE)) as f64 / report.docs as f64,
        ),
        ("store.collection.open_s", open_s),
        ("store.collection.get_document_us", median(&get_us)),
    ]);
    Ok(mem_docs_per_s)
}

/// Median latency of `write one page, sync` on the run's filesystem: the
/// floor under every commit.
fn fsync_probe(l: &mut Ledger, dir: &Path, quick: bool) -> Result<(), String> {
    let mut pager =
        FilePager::create(&dir.join("fsync.probe")).map_err(store_err("fsync probe"))?;
    pager.allocate().map_err(store_err("fsync probe"))?;
    let page = [0x5au8; PAGE_SIZE];
    let mut samples = Vec::new();
    for _ in 0..if quick { 8 } else { 64 } {
        let start = Instant::now();
        pager.write(0, &page).map_err(store_err("fsync probe"))?;
        pager.sync().map_err(store_err("fsync probe"))?;
        samples.push(us(start));
    }
    l.set("device.fsync_probe_us", median(&samples));
    Ok(())
}

// -------------------------------------------------------- the read path

/// Render a stored hit the way the server does.
fn render_stored(store: &mut XmlStore, r: NodeRef) -> Result<String, StoreError> {
    let (kind, label) = store.with_node(r, |n| (n.kind, n.label))?;
    let name = store.label_name(label).to_string();
    Ok(match (kind, store.node_content(r)?) {
        (NodeKind::Element, _) => format!("<{name}>"),
        (NodeKind::Attribute, Some(v)) => format!("@{name}=\"{v}\""),
        (_, Some(v)) => v,
        (_, None) => format!("<{name}>"),
    })
}

/// Evaluate `q` on `store` and render its hits, as the served path does.
fn answer(store: &mut XmlStore, q: &Expected) -> Result<Vec<String>, StoreError> {
    let hits = eval(&mut StoreNavigator::new(store), &q.path)?;
    hits.iter().map(|&r| render_stored(store, r)).collect()
}

struct ReadProbe {
    /// One unpinned XPathMark cycle straight on the `SharedStore`.
    request_us: f64,
    snapshot_open_us: f64,
    /// Device traffic of the replay and the requests it spreads over.
    pager: (PagerTotals, u64),
}

fn read_probe(l: &mut Ledger, store: &XmarkStore, quick: bool) -> Result<ReadProbe, String> {
    let cycles = if quick { 2 } else { 24 };
    let config = StoreConfig {
        buffer_pages: pool_pages(store),
        ..StoreConfig::default()
    };
    let counters = PagerCounters::new();
    let backend = TimingPager::new(
        Box::new(FilePager::open(&store.path).map_err(store_err("open store"))?),
        Arc::clone(&counters),
    );
    let shared = SharedStore::open(
        Box::new(backend),
        Box::new(TimingFactory {
            path: store.path.clone(),
            counters: Arc::clone(&counters),
        }),
        config,
        AdmissionConfig::default(),
    )
    .map_err(store_err("share store"))?;

    // Replay of the served unpinned path without TCP: per query a
    // snapshot, the parse, the evaluation, the rendering, the release.
    let before = counters.totals();
    let (mut cycle_us, mut open_us) = (Vec::new(), Vec::new());
    let (mut hits, mut misses, mut evictions, mut switches) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..cycles {
        let cycle_start = Instant::now();
        for q in &store.expected {
            let start = Instant::now();
            let mut snap = shared.begin_read().map_err(store_err("begin_read"))?;
            open_us.push(us(start));
            natix_xpath::parse(q.text).map_err(|e| format!("{}: {e}", q.name))?;
            let lines = answer(snap.store(), q).map_err(store_err(q.name))?;
            if lines != q.lines {
                return Err(format!("{}: snapshot answer differs from memory", q.name));
            }
            let pool = snap.store().buffer_stats();
            hits += pool.hits;
            misses += pool.misses;
            evictions += pool.evictions;
            switches += snap.store().nav_stats().record_switches;
        }
        cycle_us.push(us(cycle_start));
    }
    let requests = (cycles * QUERIES) as u64;
    let pager = counters.totals().since(&before);
    drop(shared);

    let mut parse_us = Vec::new();
    for _ in 0..32 {
        let start = Instant::now();
        for q in &store.expected {
            std::hint::black_box(natix_xpath::parse(q.text).map_err(|e| e.to_string())?);
        }
        parse_us.push(us(start));
    }

    // Warm evaluation: a pool larger than the document, second pass on.
    let mut warm = XmlStore::open(
        Box::new(FilePager::open(&store.path).map_err(store_err("open store"))?),
        StoreConfig::default(),
    )
    .map_err(store_err("open store"))?;
    let mut warm_us = Vec::new();
    for round in 0..if quick { 2 } else { 6 } {
        let start = Instant::now();
        for q in &store.expected {
            let n =
                eval(&mut StoreNavigator::new(&mut warm), &q.path).map_err(store_err(q.name))?;
            std::hint::black_box(n.len());
        }
        if round > 0 {
            warm_us.push(us(start));
        }
    }
    drop(warm);

    // Every page once through a cold pool: read, verify, admit.
    let raw = FilePager::open(&store.path).map_err(store_err("open store"))?;
    let pages = raw.page_count();
    let mut pool = BufferPool::new(
        Box::new(ChecksummingPager::new(Box::new(raw))),
        pool_pages(store),
    );
    let start = Instant::now();
    for id in 0..pages {
        pool.with_page(id, false, |page| std::hint::black_box(page[0]))
            .map_err(store_err("pool miss"))?;
    }
    let miss_us = us(start) / pages as f64;
    drop(pool);

    // Checksum verification alone, over page images already in memory.
    let file = std::fs::read(&store.path).map_err(|e| format!("read store file: {e}"))?;
    let images: Vec<&[u8; PAGE_SIZE]> = file
        .chunks_exact(PAGE_SIZE)
        .map(|c| c.try_into().expect("exact chunk"))
        .collect();
    let start = Instant::now();
    for image in &images {
        std::hint::black_box(verify_frame(image));
    }
    let verify_ns = start.elapsed().as_nanos() as f64 / images.len() as f64;

    let mut write_ns = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let xml = store.doc.to_xml();
        write_ns.push(start.elapsed().as_nanos() as f64 / xml.len() as f64);
    }

    let request_us = median(&cycle_us);
    let snapshot_open_us = median(&open_us);
    l.set_all(&[
        (
            "store.pool.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        (
            "store.pool.evictions_per_op",
            evictions as f64 / requests as f64,
        ),
        ("store.pool.miss_us", miss_us),
        ("store.checksum.verify_ns_per_page", verify_ns),
        ("store.concurrent.snapshot_open_us", snapshot_open_us),
        ("store.concurrent.request_us", request_us),
        ("xpath.parse_us_per_cycle", median(&parse_us)),
        ("xpath.eval_us_per_cycle_warm", median(&warm_us)),
        (
            "xpath.pages_per_cycle",
            (hits + misses) as f64 / cycles as f64,
        ),
        (
            "xpath.records_visited_per_cycle",
            switches as f64 / cycles as f64,
        ),
        ("xml.write_ns_per_byte", median(&write_ns)),
    ]);
    Ok(ReadProbe {
        request_us,
        snapshot_open_us,
        pager: (pager, requests),
    })
}

// ------------------------------------------------------- the write path

/// Shipping costs accumulated over the batches of a probe.
#[derive(Default)]
struct Shipping {
    cut_us: Vec<f64>,
    encode_ns: u128,
    apply_ns: u128,
    pages: u64,
    batches: u64,
}

/// Cut, encode and apply everything the follower is missing.
fn ship(
    repl: &mut ReplicaSource,
    follower: &mut Follower,
    committed: u64,
    log: &mut Shipping,
) -> Result<(), String> {
    let start = Instant::now();
    repl.cut(committed).map_err(store_err("cut"))?;
    log.cut_us.push(us(start));
    let mut seq = 0;
    loop {
        let start = Instant::now();
        let part = repl
            .fetch(committed, follower.epoch(), seq)
            .map_err(store_err("fetch"))?;
        let Some(payload) = part else { return Ok(()) };
        log.encode_ns += start.elapsed().as_nanos();
        log.pages += decode_part(&payload)
            .map_err(store_err("decode"))?
            .pages
            .len() as u64;
        let start = Instant::now();
        let outcome = follower.apply_part(&payload).map_err(store_err("apply"))?;
        log.apply_ns += start.elapsed().as_nanos();
        match outcome {
            ApplyOutcome::Staged { .. } => seq += 1,
            ApplyOutcome::Applied { .. } => {
                log.batches += 1;
                seq = 0;
            }
            ApplyOutcome::Rejected { reason } => return Err(format!("follower refused: {reason}")),
        }
    }
}

struct WriteProbe {
    mutate_us: f64,
    /// Device traffic of the single commits, their count, and the bytes
    /// of the update requests they carried out.
    pager: (PagerTotals, u64, u64),
}

fn write_probe(
    l: &mut Ledger,
    store: &XmarkStore,
    dir: &Path,
    quick: bool,
) -> Result<WriteProbe, String> {
    let path = dir.join("write.natix");
    std::fs::copy(&store.path, &path).map_err(|e| format!("copy store: {e}"))?;
    let counters = PagerCounters::new();
    let capture = CapturePager::new(Box::new(TimingPager::new(
        Box::new(FilePager::open(&path).map_err(store_err("open copy"))?),
        Arc::clone(&counters),
    )));
    let handle = capture.handle();
    let shared = SharedStore::open(
        Box::new(capture),
        Box::new(TimingFactory {
            path: path.clone(),
            counters: Arc::clone(&counters),
        }),
        StoreConfig::default(),
        AdmissionConfig::default(),
    )
    .map_err(store_err("share copy"))?;
    let mut repl = ReplicaSource::new(Box::new(path.clone()), handle, shared.committed_epoch());
    let mut follower = Follower::open(dir.join("follower.natix"), StoreConfig::default());
    // Bootstrap the follower from a snapshot; not part of the rows.
    ship(
        &mut repl,
        &mut follower,
        shared.committed_epoch(),
        &mut Shipping::default(),
    )?;

    // Single commits, each shipped: the served update path without TCP.
    let pairs = if quick { 4 } else { 32 };
    let before = counters.totals();
    let mut shipping = Shipping::default();
    let (mut mutate_us, mut user_bytes) = (Vec::new(), 0u64);
    for n in 0..pairs {
        let region = REGIONS[n % REGIONS.len()];
        let name = format!("probe{n}");
        for op in [append, delete] {
            let start = Instant::now();
            let mut guard = shared.begin_write().map_err(store_err("begin_write"))?;
            guard
                .mutate(|s| op(s, region, &name))
                .map_err(store_err("mutate"))?;
            drop(guard);
            mutate_us.push(us(start));
            ship(
                &mut repl,
                &mut follower,
                shared.committed_epoch(),
                &mut shipping,
            )?;
        }
        user_bytes += (Request::Update {
            target: format!("/site/regions/{region}"),
            op: UpdateOp::AppendElement { name: name.clone() },
        })
        .encode()
        .len() as u64
            + (Request::Update {
                target: format!("/site/regions/{region}/{name}"),
                op: UpdateOp::DeleteSubtree,
            })
            .encode()
            .len() as u64;
    }
    let commits = 2 * pairs as u64;
    let pager = counters.totals().since(&before);

    // Group commit: eight appends under one journal write and flip, then
    // eight deletes.
    let mut batch_us = Vec::new();
    for round in 0..if quick { 1 } else { 4 } {
        for op in [append, delete] {
            let names: Vec<String> = (0..8).map(|i| format!("batch{round}x{i}")).collect();
            let ops: Vec<BatchOp<'_>> = names
                .iter()
                .map(|name| {
                    Box::new(move |s: &mut XmlStore| op(s, REGIONS[0], name)) as BatchOp<'_>
                })
                .collect();
            let start = Instant::now();
            let mut guard = shared.begin_write().map_err(store_err("begin_write"))?;
            let acks = guard.mutate_batch(ops).map_err(store_err("mutate_batch"))?;
            drop(guard);
            batch_us.push(us(start) / 8.0);
            if let Some(e) = acks.into_iter().find_map(Result::err) {
                return Err(format!("batched op refused: {e}"));
            }
        }
    }

    // 64 commits under a held pin: checkpoints are deferred, the overlay
    // grows, and every new snapshot clones it.
    let pin = shared.begin_read().map_err(store_err("begin_read"))?;
    for n in 0..32 {
        let name = format!("pinned{n}");
        for op in [append, delete] {
            let mut guard = shared.begin_write().map_err(store_err("begin_write"))?;
            guard
                .mutate(|s| op(s, REGIONS[n % REGIONS.len()], &name))
                .map_err(store_err("mutate under pin"))?;
        }
    }
    let mut overlay_open_us = Vec::new();
    for _ in 0..8 {
        let start = Instant::now();
        let snap = shared.begin_read().map_err(store_err("begin_read"))?;
        overlay_open_us.push(us(start));
        drop(snap);
    }
    // Releasing the last pin runs the deferred checkpoint: the pages it
    // writes are the overlay the pin kept alive.
    let before = counters.totals();
    drop(pin);
    shared.maintain().map_err(store_err("maintain"))?;
    let overlay_pages = counters.totals().since(&before).writes;
    ship(
        &mut repl,
        &mut follower,
        shared.committed_epoch(),
        &mut shipping,
    )?;

    // The follower must now hold the primary's document.
    let primary_xml = shared
        .begin_read()
        .and_then(|mut s| s.document())
        .map_err(store_err("read primary"))?
        .to_xml();
    let follower_xml = follower
        .reader()
        .and_then(|mut s| s.to_document())
        .map_err(store_err("read follower"))?
        .to_xml();
    if primary_xml != follower_xml || primary_xml != store.xml {
        return Err("write probe: follower, primary and source documents differ".to_string());
    }

    let mutate = median(&mutate_us);
    l.set_all(&[
        ("store.concurrent.mutate_us", mutate),
        (
            "store.concurrent.batch8_mutate_us_per_op",
            median(&batch_us),
        ),
        (
            "store.concurrent.snapshot_open_us_overlay",
            median(&overlay_open_us),
        ),
        ("store.concurrent.overlay_pages_peak", overlay_pages as f64),
        ("store.replicate.cut_us", median(&shipping.cut_us)),
        (
            "store.replicate.encode_us_per_page",
            shipping.encode_ns as f64 / 1e3 / shipping.pages.max(1) as f64,
        ),
        (
            "store.replicate.apply_us_per_page",
            shipping.apply_ns as f64 / 1e3 / shipping.pages.max(1) as f64,
        ),
        (
            "store.replicate.pages_per_batch",
            shipping.pages as f64 / shipping.batches.max(1) as f64,
        ),
    ]);
    Ok(WriteProbe {
        mutate_us: mutate,
        pager: (pager, commits, user_bytes),
    })
}

// ------------------------------------------------------ the front door

struct ServerProbe {
    ping_rtt_us: f64,
    /// Served request latency with a single connection (cycle ÷ 7).
    solo_request_us: f64,
    failures: Vec<String>,
}

fn server_probe(l: &mut Ledger, store: &XmarkStore, quick: bool) -> Result<ServerProbe, String> {
    // Encode and decode of a typical request and its answer.
    let q = &store.expected[0];
    let req = Request::Query {
        xpath: q.text.to_string(),
        count_only: false,
    };
    let resp = Response {
        epoch: 1,
        body: ResponseBody::QueryResult {
            count: q.count,
            lines: q.lines.clone(),
        },
    };
    let mut codec_us = Vec::new();
    for _ in 0..32 {
        let start = Instant::now();
        let wire = req.encode();
        std::hint::black_box(Request::decode(&wire).map_err(|e| format!("codec: {e}"))?);
        let wire = resp.encode();
        std::hint::black_box(Response::decode(&wire).map_err(|e| format!("codec: {e}"))?);
        codec_us.push(us(start));
    }
    l.set("server.wire.codec_us_per_req", median(&codec_us));

    let handle = serve(ServeConfig {
        store: store.path.clone(),
        workers: GENERATOR_THREADS,
        pool_pages: Some(pool_pages(store)),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start probe server: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    // TCP, worker, queue and store-thread hop with no store work.
    let mut rtt = Vec::new();
    for _ in 0..if quick { 50 } else { 500 } {
        let start = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        rtt.push(us(start));
    }
    // One connection alone: served latency without a queue to wait in.
    let mut rec = Recorder::new(false, Instant::now());
    let mut log = ConnLog::default();
    for cycle in 0..if quick { 2 } else { 16 } {
        let order = cycle_order(0, 0, cycle);
        run_cycle(&mut client, &store.expected, &order, &mut rec, &mut log);
    }
    drop(client);
    handle.shutdown();
    let summary = handle.join();
    let mut failures = log.failures;
    if summary.errors + summary.proto_errors + summary.worker_panics > 0 {
        failures.push(format!("probe server counted failures: {summary}"));
    }
    let ping_rtt_us = median(&rtt);
    l.set("server.ping_rtt_us", ping_rtt_us);
    Ok(ServerProbe {
        ping_rtt_us,
        solo_request_us: percentile(&sorted(log.cycle_us), 50.0) / QUERIES as f64,
        failures,
    })
}

/// Run every probe, filling the rows they own.
pub fn run_all(l: &mut Ledger, dir: &Path, quick: bool) -> Result<Probed, String> {
    partition_probe(l, quick)?;
    let mem_docs_per_s = bulkload_probe(l, dir, quick)?;
    fsync_probe(l, dir, quick)?;
    let scale = XMARK_SCALE / if quick { 4.0 } else { 1.0 };
    let store = XmarkStore::build(&dir.join("probe.natix"), scale)?;
    Ok(Probed {
        mem_docs_per_s,
        read: read_probe(l, &store, quick)?,
        write: write_probe(l, &store, dir, quick)?,
        server: server_probe(l, &store, quick)?,
    })
}

/// The rows that need both the traced phase and the probes: this
/// workload's device traffic, the server's share of a served op, and
/// the wall time no layer row explains.
pub fn derive(
    l: &mut Ledger,
    workload: &str,
    traced: &Phase,
    rate: f64,
    op_p50_us: f64,
    p: &Probed,
) {
    match workload {
        "bulkload-stream" => {
            pager_rows(
                l,
                &traced.pager,
                traced.pager_ops,
                traced.user_bytes,
                traced.commits,
            );
            // Per document: the same load onto memory (the whole pipeline
            // with page copies that cost what page-cache writes cost)
            // plus the time the loader threads wait in fsync. Negative
            // when the in-memory probe ran slower than the file load:
            // with two loaders and the coordinator on two cores the load
            // is CPU-bound and the device adds almost nothing.
            let sync_s = traced.pager.sync_ns as f64
                / 1e9
                / traced.pager_ops.max(1) as f64
                / LOADER_THREADS as f64;
            let explained = (1.0 / p.mem_docs_per_s + sync_s) * rate;
            l.set("unattributed_share", 1.0 - explained);
        }
        "serve-read" => {
            let (t, ops) = &p.read.pager;
            pager_rows(l, t, *ops, 0, 0);
            let store_us = p.read.request_us / QUERIES as f64;
            l.set_all(&[
                ("server.overhead_us", op_p50_us - store_us),
                ("server.solo_op_us", p.server.solo_request_us),
                ("server.queue_wait_us", op_p50_us - p.server.solo_request_us),
                (
                    "store.concurrent.snapshot_open_share",
                    p.read.snapshot_open_us / op_p50_us,
                ),
                (
                    "unattributed_share",
                    (p.server.solo_request_us - p.server.ping_rtt_us - store_us) / op_p50_us,
                ),
            ]);
        }
        "serve-write" => {
            let (t, ops, user_bytes) = &p.write.pager;
            pager_rows(l, t, *ops, *user_bytes, *ops);
            // The write half of an op is an update pair: two served
            // commits. The teardown measured it with no pin held.
            let store_us = 2.0 * p.write.mutate_us;
            let solo_us = l.get("server.solo_op_us");
            let pair_us = l.get("client.update_pair_p50_us");
            l.set_all(&[
                ("server.overhead_us", pair_us - store_us),
                ("server.queue_wait_us", pair_us - solo_us),
                (
                    "unattributed_share",
                    (solo_us - store_us - 2.0 * p.server.ping_rtt_us) / pair_us,
                ),
            ]);
        }
        // partition-docs touches no pager and no server: its
        // unattributed share comes from the spans, its pager rows stay 0.
        _ => pager_rows(l, &PagerTotals::default(), 0, 0, 0),
    }
}
