//! Sharded document collections: N independent store files behind one
//! directory catalog, loaded by parallel streaming bulkload.
//!
//! A collection directory holds `shard-NNNN.natix` page files — each an
//! ordinary [`XmlStore`] — plus an append-only catalog
//! (`collection.ncat`) mapping document ids to shards and doc-root
//! records. Documents are distributed round-robin (`doc_id % shards`),
//! so a document's shard is computable without the catalog; the catalog
//! supplies its root record.
//!
//! Inside a shard, documents hang off a synthetic `<natix-shard/>` root
//! through per-batch `<seg>` records: the loader reserves a segment
//! record number up front, streams each document's records in with the
//! shard's [`StreamLoader`] (their root back-links point at the
//! not-yet-written segment record), then writes the segment record (one
//! element whose entries are proxies to the document roots), links it
//! under the shard root, and commits through the normal journal +
//! header-flip path. One commit per segment amortizes fsync while
//! keeping every shard independently recoverable: a power cut rolls the
//! shard back to its last segment boundary.
//!
//! The catalog frame for a segment is appended only after its shard
//! commit returns, so the catalog never references uncommitted state. A
//! crash can leave a shard with committed-but-uncatalogued segments;
//! those documents are unreachable but harmless (fsck counts them as
//! reachable store content, and the catalog stays the source of truth
//! for document ids). A torn catalog tail is detected by per-frame
//! checksums and ignored.
//!
//! Parallel loading: shard `s` is owned by loader thread `s % threads`.
//! [`XmlStore`] is deliberately not `Send` (its held decoded records are
//! `Rc`s), so each worker thread creates and owns its shard stores
//! outright; the coordinator moves only `(doc_id, xml)` pairs through
//! bounded channels and appends catalog frames as acks arrive. Memory
//! is bounded by `QUEUE_DEPTH × document size + threads × pool budget`.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;

use natix_xml::Document;

use crate::bulkload::{stream_bulkload, BulkloadError, StreamLoader};
use crate::fsck::{fsck, FsckReport};
use crate::page::{fnv64, PAGE_SIZE};
use crate::pager::{FilePager, Pager, StoreError, StoreResult};
use crate::record::{ChildEntry, ImageNode, NONE_U16};
use crate::store::{NodeRef, StoreConfig, XmlStore};
use natix_xml::NodeKind;

/// Catalog file name inside a collection directory.
pub const CATALOG_FILE: &str = "collection.ncat";

const CATALOG_MAGIC: &[u8; 4] = b"NCOL";
const CATALOG_VERSION: u32 = 1;
const HEADER_LEN: usize = 16;

/// Page file of shard `s`.
pub fn shard_path(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard-{shard:04}.natix"))
}

/// One committed segment: `count` documents of one shard, in shard-local
/// document order.
#[derive(Debug, Clone)]
pub struct ShardSegment {
    /// Owning shard.
    pub shard: u32,
    /// The segment record inside the shard store.
    pub seg_record: u32,
    /// Shard-local index of the first document (global id = `shard +
    /// local × shard_count`).
    pub first_local: u64,
    /// Root record of each document, in order.
    pub doc_roots: Vec<u32>,
}

/// Knobs of a collection bulkload.
#[derive(Debug, Clone, Copy)]
pub struct BulkloadOptions {
    /// Number of shard files.
    pub shards: u32,
    /// Loader threads; shard `s` is owned by thread `s % threads`.
    pub threads: usize,
    /// Streaming partitioner sibling budget (0 = unbounded EKM).
    pub sibling_budget: usize,
    /// Documents per segment (= per shard commit).
    pub seg_docs: usize,
}

impl Default for BulkloadOptions {
    fn default() -> Self {
        BulkloadOptions {
            shards: 4,
            threads: 1,
            sibling_budget: 8,
            seg_docs: 256,
        }
    }
}

/// What a collection bulkload did.
#[derive(Debug, Clone, Default)]
pub struct BulkloadReport {
    /// Documents ingested.
    pub docs: u64,
    /// Records written across all shards.
    pub records: u64,
    /// Max over workers of the bytes their shards' streaming loaders
    /// hold (node slabs, partitioner frames, name tables and scratch,
    /// spare capacity included). Loaders keep what they grow, so this is
    /// also their peak.
    pub peak_loader_resident: usize,
    /// Max over workers of their shards' combined buffer-pool resident
    /// bytes at segment boundaries.
    pub peak_pool_resident: usize,
    /// Documents per shard.
    pub shard_docs: Vec<u64>,
}

fn catalog_header(shard_count: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(CATALOG_MAGIC);
    h[4..8].copy_from_slice(&CATALOG_VERSION.to_le_bytes());
    h[8..12].copy_from_slice(&shard_count.to_le_bytes());
    h
}

fn encode_frame(seg: &ShardSegment) -> Vec<u8> {
    let mut payload = Vec::with_capacity(20 + seg.doc_roots.len() * 4);
    payload.extend_from_slice(&seg.shard.to_le_bytes());
    payload.extend_from_slice(&seg.seg_record.to_le_bytes());
    payload.extend_from_slice(&seg.first_local.to_le_bytes());
    payload.extend_from_slice(&(seg.doc_roots.len() as u32).to_le_bytes());
    for &r in &seg.doc_roots {
        payload.extend_from_slice(&r.to_le_bytes());
    }
    let mut frame = Vec::with_capacity(payload.len() + 12);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&fnv64(&payload).to_le_bytes());
    frame
}

fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("bounds checked"))
}

fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("bounds checked"))
}

/// Read the catalog: shard count plus every intact segment frame. A torn
/// or checksum-failing tail (a crash mid-append) is silently dropped —
/// the frames before it are still valid.
pub fn read_catalog(dir: &Path) -> StoreResult<(u32, Vec<ShardSegment>)> {
    let mut bytes = Vec::new();
    File::open(dir.join(CATALOG_FILE))?.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_LEN || &bytes[..4] != CATALOG_MAGIC {
        return Err(StoreError::corrupt("collection catalog header"));
    }
    if u32_at(&bytes, 4) != CATALOG_VERSION {
        return Err(StoreError::corrupt("collection catalog version"));
    }
    let shard_count = u32_at(&bytes, 8);
    if shard_count == 0 {
        return Err(StoreError::corrupt("collection with zero shards"));
    }
    let mut segments = Vec::new();
    let mut off = HEADER_LEN;
    while off + 4 <= bytes.len() {
        let len = u32_at(&bytes, off) as usize;
        let (start, end) = (off + 4, off + 4 + len);
        if end + 8 > bytes.len() {
            break; // torn tail
        }
        let payload = &bytes[start..end];
        if u64_at(&bytes, end) != fnv64(payload) || len < 20 {
            break; // torn or corrupt tail
        }
        let count = u32_at(payload, 16) as usize;
        if len != 20 + count * 4 {
            break;
        }
        let doc_roots = (0..count).map(|i| u32_at(payload, 20 + i * 4)).collect();
        segments.push(ShardSegment {
            shard: u32_at(payload, 0),
            seg_record: u32_at(payload, 4),
            first_local: u64_at(payload, 8),
            doc_roots,
        });
        off = end + 8;
    }
    Ok((shard_count, segments))
}

/// Per-shard ingest state inside one worker thread.
struct ShardWriter {
    shard: u32,
    store: XmlStore,
    /// Loads every document of the shard, reusing its buffers.
    loader: StreamLoader,
    /// Open (uncommitted) segment, if any.
    seg: Option<OpenSeg>,
    /// Documents committed + staged in this shard.
    local_docs: u64,
    records: u64,
}

struct OpenSeg {
    seg_record: u32,
    first_local: u64,
    doc_roots: Vec<u32>,
}

/// Builds the backend pager for one shard file — the default creates a
/// plain [`FilePager`]; crash campaigns wrap it in a fault injector.
/// Called from inside the owning worker thread, so the returned pager
/// need not be `Send`.
pub type ShardBackendFactory<'f> = dyn Fn(u32, &Path) -> StoreResult<Box<dyn Pager>> + Sync + 'f;

impl ShardWriter {
    fn create(
        dir: &Path,
        shard: u32,
        config: &StoreConfig,
        sibling_budget: usize,
        backend: &ShardBackendFactory<'_>,
    ) -> Result<ShardWriter, BulkloadError> {
        // Every shard starts as a one-record store holding the synthetic
        // root; stream_bulkload keeps the creation path uniform.
        let pager = backend(shard, &shard_path(dir, shard)).map_err(BulkloadError::Store)?;
        let (store, _) = stream_bulkload("<natix-shard/>", 0, pager, *config)?;
        Ok(ShardWriter {
            shard,
            store,
            loader: StreamLoader::new(sibling_budget),
            seg: None,
            local_docs: 0,
            records: 1,
        })
    }

    fn add_doc(
        &mut self,
        xml: &str,
        seg_docs: usize,
    ) -> Result<Option<ShardSegment>, BulkloadError> {
        let seg = match &mut self.seg {
            Some(seg) => seg,
            None => self.seg.insert(OpenSeg {
                seg_record: self.store.reserve_record(),
                first_local: self.local_docs,
                doc_roots: Vec::new(),
            }),
        };
        let pos = seg.doc_roots.len() as u16;
        let root_parent = (seg.seg_record, 0u16, pos);
        let (doc_root, stats) = self
            .loader
            .append_document(&mut self.store, xml, root_parent)?;
        let seg = self.seg.as_mut().expect("segment is open");
        seg.doc_roots.push(doc_root);
        self.local_docs += 1;
        self.records += stats.records as u64;
        let closed = if seg.doc_roots.len() >= seg_docs {
            Some(self.close_segment()?)
        } else {
            None
        };
        Ok(closed)
    }

    /// Write the segment record, link it under the shard root, commit.
    fn close_segment(&mut self) -> Result<ShardSegment, BulkloadError> {
        let seg = self.seg.take().expect("open segment");
        let root_record = self.store.root_record;
        let mut root_img = self.store.fetch(root_record)?.to_image();
        let seg_pos = root_img.nodes[0].entries.len() as u16;

        let label = self.store.intern_label("seg")?;
        let seg_img = crate::record::RecordImage {
            parent_record: root_record,
            parent_local: 0,
            proxy_pos: seg_pos,
            roots: vec![0],
            nodes: vec![ImageNode {
                kind: NodeKind::Element,
                label,
                parent_local: NONE_U16,
                entry_pos: NONE_U16,
                content: None,
                entries: seg
                    .doc_roots
                    .iter()
                    .map(|&r| ChildEntry::Proxy(r))
                    .collect(),
            }],
        };
        self.store.write_record(seg.seg_record, &seg_img)?;
        root_img.nodes[0]
            .entries
            .push(ChildEntry::Proxy(seg.seg_record));
        self.store.write_record(root_record, &root_img)?;
        self.store.commit()?;
        self.records += 1;
        Ok(ShardSegment {
            shard: self.shard,
            seg_record: seg.seg_record,
            first_local: seg.first_local,
            doc_roots: seg.doc_roots,
        })
    }

    fn finish(&mut self) -> Result<Option<ShardSegment>, BulkloadError> {
        if self.seg.is_none() {
            return Ok(None);
        }
        Ok(Some(self.close_segment()?))
    }
}

/// Messages from workers to the coordinator.
enum Ack {
    /// A segment committed durably in its shard; safe to catalog.
    Segment(ShardSegment),
    /// Worker finished all its shards.
    Done {
        records: u64,
        peak_loader_resident: usize,
        peak_pool_resident: usize,
        shard_docs: Vec<(u32, u64)>,
    },
    /// Worker failed; the load aborts.
    Fail(String),
}

fn worker(
    dir: &Path,
    thread: usize,
    opts: &BulkloadOptions,
    config: &StoreConfig,
    backend: &ShardBackendFactory<'_>,
    rx: mpsc::Receiver<(u64, String)>,
    ack: mpsc::Sender<Ack>,
) {
    let mut writers: HashMap<u32, ShardWriter> = HashMap::new();
    let mut peak_pool = 0usize;
    let mut run = || -> Result<(u64, Vec<(u32, u64)>), BulkloadError> {
        for s in (0..opts.shards).filter(|s| *s as usize % opts.threads == thread) {
            let w = ShardWriter::create(dir, s, config, opts.sibling_budget, backend)?;
            writers.insert(s, w);
        }
        while let Ok((doc_id, xml)) = rx.recv() {
            let shard = (doc_id % opts.shards as u64) as u32;
            let w = writers.get_mut(&shard).expect("doc routed to wrong thread");
            if let Some(seg) = w.add_doc(&xml, opts.seg_docs)? {
                let pool: usize = writers
                    .values()
                    .map(|w| w.store.pool.resident() * PAGE_SIZE)
                    .sum();
                peak_pool = peak_pool.max(pool);
                if ack.send(Ack::Segment(seg)).is_err() {
                    break; // coordinator gone; abort quietly
                }
            }
        }
        let mut records = 0;
        let mut shard_docs = Vec::new();
        for (&s, w) in &mut writers {
            if let Some(seg) = w.finish()? {
                let _ = ack.send(Ack::Segment(seg));
            }
            records += w.records;
            shard_docs.push((s, w.local_docs));
        }
        Ok((records, shard_docs))
    };
    match run() {
        Ok((records, shard_docs)) => {
            // Loaders keep what they grow: what they hold now is their peak.
            let peak_loader = writers.values().map(|w| w.loader.held_bytes()).sum();
            let _ = ack.send(Ack::Done {
                records,
                peak_loader_resident: peak_loader,
                peak_pool_resident: peak_pool,
                shard_docs,
            });
        }
        Err(e) => {
            let _ = ack.send(Ack::Fail(format!("loader thread {thread}: {e}")));
        }
    }
}

/// Bulk-load `docs` (XML strings, in document-id order) into a new
/// collection at `dir` with `opts.shards` shard files and `opts.threads`
/// parallel loader threads.
///
/// The resulting shard files are deterministic for a fixed shard count:
/// thread count only changes wall-clock time, not bytes (each shard's
/// content depends only on its own document subsequence).
pub fn bulkload_collection<I>(
    dir: &Path,
    docs: I,
    config: StoreConfig,
    opts: BulkloadOptions,
) -> Result<BulkloadReport, BulkloadError>
where
    I: IntoIterator<Item = String>,
{
    bulkload_collection_with(dir, docs, config, opts, &|_, path| {
        Ok(Box::new(FilePager::create(path)?))
    })
}

/// [`bulkload_collection`] with a custom shard backend factory — crash
/// campaigns inject power-cut pagers into chosen shards this way.
pub fn bulkload_collection_with<I>(
    dir: &Path,
    docs: I,
    config: StoreConfig,
    opts: BulkloadOptions,
    backend: &ShardBackendFactory<'_>,
) -> Result<BulkloadReport, BulkloadError>
where
    I: IntoIterator<Item = String>,
{
    if opts.shards == 0 || opts.threads == 0 || opts.seg_docs == 0 {
        return Err(BulkloadError::Store(StoreError::InvalidUpdate(
            "shards, threads and seg_docs must be positive",
        )));
    }
    let threads = opts.threads.min(opts.shards as usize);
    let opts = BulkloadOptions { threads, ..opts };
    std::fs::create_dir_all(dir).map_err(|e| BulkloadError::Store(e.into()))?;
    let mut catalog = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(dir.join(CATALOG_FILE))
        .map_err(|e| BulkloadError::Store(e.into()))?;
    catalog
        .write_all(&catalog_header(opts.shards))
        .map_err(|e| BulkloadError::Store(e.into()))?;

    let mut report = BulkloadReport {
        shard_docs: vec![0; opts.shards as usize],
        ..BulkloadReport::default()
    };
    let mut failure: Option<String> = None;

    std::thread::scope(|scope| -> Result<(), BulkloadError> {
        let (ack_tx, ack_rx) = mpsc::channel::<Ack>();
        // Documents queued per loader thread. With the pool budget this
        // bounds a bulkload's memory, whatever the corpus size:
        // `QUEUE_DEPTH × document size + threads × pool budget`.
        const QUEUE_DEPTH: usize = 64;
        let mut doc_txs = Vec::with_capacity(threads);
        for t in 0..threads {
            let (tx, rx) = mpsc::sync_channel::<(u64, String)>(QUEUE_DEPTH);
            doc_txs.push(tx);
            let ack = ack_tx.clone();
            let (opts, config) = (&opts, &config);
            scope.spawn(move || worker(dir, t, opts, config, backend, rx, ack));
        }
        drop(ack_tx);

        let mut handle = |ack: Ack, report: &mut BulkloadReport| -> StoreResult<()> {
            match ack {
                Ack::Segment(seg) => {
                    catalog.write_all(&encode_frame(&seg))?;
                    Ok(())
                }
                Ack::Done {
                    records,
                    peak_loader_resident,
                    peak_pool_resident,
                    shard_docs,
                } => {
                    report.records += records;
                    report.peak_loader_resident =
                        report.peak_loader_resident.max(peak_loader_resident);
                    report.peak_pool_resident = report.peak_pool_resident.max(peak_pool_resident);
                    for (s, n) in shard_docs {
                        report.shard_docs[s as usize] = n;
                    }
                    Ok(())
                }
                Ack::Fail(msg) => {
                    if failure.is_none() {
                        failure = Some(msg);
                    }
                    Ok(())
                }
            }
        };

        for (doc_id, xml) in docs.into_iter().enumerate() {
            let shard = doc_id as u64 % opts.shards as u64;
            let t = (shard as usize) % threads;
            // A failed worker drops its receiver; stop feeding then.
            if doc_txs[t].send((doc_id as u64, xml)).is_err() {
                break;
            }
            report.docs += 1;
            while let Ok(a) = ack_rx.try_recv() {
                handle(a, &mut report).map_err(BulkloadError::Store)?;
            }
        }
        drop(doc_txs);
        for a in ack_rx {
            handle(a, &mut report).map_err(BulkloadError::Store)?;
        }
        catalog
            .sync_all()
            .map_err(|e| BulkloadError::Store(e.into()))?;
        Ok(())
    })?;

    if let Some(msg) = failure {
        return Err(BulkloadError::Thread(msg));
    }
    Ok(report)
}

/// A collection opened for reads: lazily opens shard stores on demand.
pub struct Collection {
    dir: PathBuf,
    shard_count: u32,
    /// Per shard: doc-root record by shard-local document index.
    docs: Vec<Vec<u32>>,
    shards: Vec<Option<XmlStore>>,
    config: StoreConfig,
}

impl Collection {
    /// Open the collection at `dir` by reading its catalog.
    pub fn open(dir: &Path, config: StoreConfig) -> StoreResult<Collection> {
        let (shard_count, segments) = read_catalog(dir)?;
        let mut docs: Vec<Vec<u32>> = vec![Vec::new(); shard_count as usize];
        for seg in &segments {
            let list = docs
                .get_mut(seg.shard as usize)
                .ok_or_else(|| StoreError::corrupt("catalog frame for unknown shard"))?;
            if seg.first_local != list.len() as u64 {
                return Err(StoreError::corrupt("catalog frames out of order"));
            }
            list.extend_from_slice(&seg.doc_roots);
        }
        Ok(Collection {
            dir: dir.to_path_buf(),
            shard_count,
            shards: (0..shard_count).map(|_| None).collect(),
            docs,
            config,
        })
    }

    /// Shards in the collection.
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// Cataloged documents across all shards.
    pub fn doc_count(&self) -> u64 {
        self.docs.iter().map(|d| d.len() as u64).sum()
    }

    /// Documents cataloged in one shard.
    pub fn shard_doc_count(&self, shard: u32) -> u64 {
        self.docs[shard as usize].len() as u64
    }

    fn shard_store(&mut self, shard: u32) -> StoreResult<&mut XmlStore> {
        let slot = &mut self.shards[shard as usize];
        if slot.is_none() {
            let pager = FilePager::open(&shard_path(&self.dir, shard))?;
            *slot = Some(XmlStore::open(Box::new(pager), self.config)?);
        }
        Ok(slot.as_mut().expect("just opened"))
    }

    /// Root record of `doc_id`, if cataloged.
    pub fn doc_root(&self, doc_id: u64) -> Option<(u32, u32)> {
        let shard = (doc_id % self.shard_count as u64) as u32;
        let local = (doc_id / self.shard_count as u64) as usize;
        let rec = *self.docs[shard as usize].get(local)?;
        Some((shard, rec))
    }

    /// Extract document `doc_id` from its shard.
    pub fn get_document(&mut self, doc_id: u64) -> StoreResult<Document> {
        let (shard, rec) = self
            .doc_root(doc_id)
            .ok_or(StoreError::InvalidUpdate("document id not in catalog"))?;
        let store = self.shard_store(shard)?;
        let node = store.fetch(rec)?.roots[0];
        store.subtree_to_document(NodeRef { record: rec, node })
    }

    /// Per-shard `(docs, live records, pages)`.
    pub fn stats(&mut self) -> StoreResult<Vec<(u64, usize, u32)>> {
        let mut out = Vec::with_capacity(self.shard_count as usize);
        for s in 0..self.shard_count {
            let docs = self.shard_doc_count(s);
            let store = self.shard_store(s)?;
            out.push((docs, store.live_record_count(), store.page_count()));
        }
        Ok(out)
    }

    /// Run the store-level consistency check on every shard and verify
    /// every cataloged doc-root record is live. Returns per-shard
    /// failures; empty = healthy.
    pub fn check(&mut self) -> StoreResult<Vec<(u32, String)>> {
        let mut problems = Vec::new();
        for s in 0..self.shard_count {
            let roots = self.docs[s as usize].clone();
            match self.shard_store(s) {
                Ok(store) => {
                    if let Err(e) = store.check_consistency() {
                        problems.push((s, e.to_string()));
                        continue;
                    }
                    for (local, &rec) in roots.iter().enumerate() {
                        if store.fetch(rec).is_err() {
                            problems.push((
                                s,
                                format!("cataloged doc {local} (record {rec}) unreadable"),
                            ));
                            break;
                        }
                    }
                }
                Err(e) => problems.push((s, e.to_string())),
            }
        }
        Ok(problems)
    }
}

/// Cross-shard fsck: page-level scrub of every shard file, independently.
/// Damage in one shard never blocks checking the others — the report
/// names exactly which shards are hurt.
pub fn fsck_collection(dir: &Path, repair: bool) -> StoreResult<Vec<(u32, FsckReport)>> {
    let (shard_count, _) = read_catalog(dir)?;
    let mut reports = Vec::with_capacity(shard_count as usize);
    for s in 0..shard_count {
        reports.push((s, fsck(&shard_path(dir, s), repair)));
    }
    Ok(reports)
}
