//! The XML store: partitioner-driven bulkload, record directory, and
//! navigation primitives that cross record boundaries through proxies.
//!
//! A page file becomes a store through exactly three pager stacks:
//!
//! * the **fresh-store writer** ([`begin_fresh`] / [`finish_fresh`]):
//!   checksum sealing under a pool with write-back floor 0, header slots
//!   0/1, then catalog → flush → barrier → epoch-1 header → floor. Used by
//!   [`XmlStore::bulkload`] and `stream_bulkload`;
//! * the **writer open** ([`XmlStore::open`]): checksum verification,
//!   crash recovery ([`recover`]) and catalog read on it, then a pool;
//! * the **read-only view** (`SnapshotSeed::open` in `concurrent.rs`):
//!   checksum verification, the pending journal's page images, a pool —
//!   for snapshots of a live writer, and over a file no writer holds
//!   ([`XmlStore::open_read_only`]) for a replica's reads,
//!   `dump --degraded` and fsck alike. It writes nothing.
//!
//! The committed header is read in one place (`catalog::read_header`),
//! which is also where a file of another format version is refused.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use natix_core::PartitionError;
use natix_tree::{NodeId, Partitioning};
use natix_xml::{Document, DocumentBuilder, NodeKind};

use crate::catalog::{self, Catalog, Header, RecordLoc};
use crate::concurrent::{PagerFactory, SnapshotSeed};
use crate::journal::{self, JournalEntry};
use crate::page::{set_page_class, PageClass, SlottedPage, MAX_IN_PAGE, PAGE_SIZE, PAYLOAD_SIZE};
use crate::pager::{
    read_chunked, BufferPool, BufferStats, ChecksummingPager, PageId, Pager, StoreError,
    StoreResult,
};
use crate::record::{
    self, ChildEntry, Entries, ImageNode, RecNode, RecordData, RecordImage, NONE_U16, NONE_U32,
};
use crate::update::Violation;

/// One sibling interval (= partition record) missing from a degraded
/// read: its proxy position under the surviving parent, and why.
#[derive(Debug, Clone)]
pub struct MissingInterval {
    /// The unreadable record.
    pub record: u32,
    /// Surviving node whose child list references the missing interval.
    pub parent: NodeRef,
    /// Position of the proxy in the parent's entry list.
    pub entry_pos: u16,
    /// Human-readable cause (quarantined, checksum mismatch, …).
    pub cause: String,
}

/// What a degraded read could not serve. Intervals are topmost-only: a
/// missing record's descendants are not listed separately.
#[derive(Debug, Clone, Default)]
pub struct DamageReport {
    /// Missing sibling intervals, in traversal order.
    pub missing: Vec<MissingInterval>,
}

impl DamageReport {
    /// The set of missing record numbers.
    pub fn records(&self) -> HashSet<u32> {
        self.missing.iter().map(|m| m.record).collect()
    }
}

impl std::fmt::Display for DamageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.missing.is_empty() {
            return write!(f, "damage: none");
        }
        for m in &self.missing {
            writeln!(
                f,
                "damage record={} parent={}:{} entry={} cause={}",
                m.record, m.parent.record, m.parent.node, m.entry_pos, m.cause
            )?;
        }
        Ok(())
    }
}

/// Magic prefix on the first page of an overflow chain:
/// `[magic][record byte length]` before the record bytes, so a raw-page
/// scan can find and bound overflow records without a catalog.
pub(crate) const OVERFLOW_MAGIC: &[u8; 4] = b"NOV3";

/// Record bytes the first page of an overflow chain can carry.
pub(crate) const OVERFLOW_HEAD: usize = PAYLOAD_SIZE - 8;

/// Write `bytes` as an overflow chain on freshly allocated pages
/// (dirty frames: fresh pages, which the next commit writes in place).
/// Returns the first page id.
pub(crate) fn write_overflow_chain(pool: &mut BufferPool, bytes: &[u8]) -> StoreResult<PageId> {
    let first = pool.allocate()?;
    let head = bytes.len().min(OVERFLOW_HEAD);
    pool.with_page(first, true, |buf| {
        buf[..4].copy_from_slice(OVERFLOW_MAGIC);
        buf[4..8].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
        buf[8..8 + head].copy_from_slice(&bytes[..head]);
        set_page_class(buf, PageClass::Overflow);
    })?;
    let mut off = head;
    while off < bytes.len() {
        let page = pool.allocate()?;
        let take = (bytes.len() - off).min(PAYLOAD_SIZE);
        pool.with_page(page, true, |buf| {
            buf[..take].copy_from_slice(&bytes[off..off + take]);
            set_page_class(buf, PageClass::Overflow);
        })?;
        off += take;
    }
    Ok(first)
}

/// Number of pages an overflow chain of `len` record bytes spans.
pub(crate) fn overflow_page_span(len: usize) -> usize {
    1 + len.saturating_sub(OVERFLOW_HEAD).div_ceil(PAYLOAD_SIZE)
}

/// Read back an overflow chain written by [`write_overflow_chain`].
pub(crate) fn read_overflow_chain(
    pool: &mut BufferPool,
    no: u32,
    first_page: PageId,
    len: usize,
) -> StoreResult<Vec<u8>> {
    let mut bytes = Vec::with_capacity(len);
    let head = len.min(OVERFLOW_HEAD);
    pool.with_page(first_page, false, |buf| {
        if &buf[..4] != OVERFLOW_MAGIC {
            return Err(StoreError::corrupt_page(
                "overflow chain magic missing",
                first_page,
                Some(PageClass::Overflow),
            )
            .in_record(no));
        }
        let stored = u32::from_le_bytes(buf[4..8].try_into().expect("4")) as usize;
        if stored != len {
            return Err(StoreError::corrupt_page(
                "overflow chain length disagrees with directory",
                first_page,
                Some(PageClass::Overflow),
            )
            .in_record(no));
        }
        bytes.extend_from_slice(&buf[8..8 + head]);
        Ok(())
    })??;
    let mut remaining = len - head;
    let mut page = first_page + 1;
    while remaining > 0 {
        let take = remaining.min(PAYLOAD_SIZE);
        pool.with_page(page, false, |buf| {
            bytes.extend_from_slice(&buf[..take]);
        })?;
        remaining -= take;
        page += 1;
    }
    Ok(bytes)
}

/// The bytes of record `no`, which the directory places at `loc`, read
/// through `pool`: the one record reader, behind `fetch` and repair.
pub(crate) fn load_record(pool: &mut BufferPool, no: u32, loc: RecordLoc) -> StoreResult<Vec<u8>> {
    let bytes = match loc {
        RecordLoc::InPage { page, slot } => pool
            .with_page(page, false, |buf| {
                SlottedPage::new(buf).get(slot).map(<[u8]>::to_vec)
            })
            .map_err(|e| e.in_record(no))?,
        RecordLoc::Overflow { first_page, len } => {
            Some(read_overflow_chain(pool, no, first_page, len as usize)?)
        }
        RecordLoc::Free => None,
    };
    bytes.ok_or(StoreError::BadRecord(no))
}

/// Crash recovery, below any pool: write the page images of the journal
/// `header` names in place through `checked` (each is its page's
/// post-commit state, so replay is idempotent), make them durable, and
/// only then publish the journal-free header at the next epoch. A header
/// that reached the disk ahead of its images could outlive them in a
/// power cut and retire the journal that restores them. Returns the
/// header now committed — `header` itself when it names no journal.
pub(crate) fn recover(checked: &mut dyn Pager, mut header: Header) -> StoreResult<Header> {
    if header.journal_len == 0 {
        return Ok(header);
    }
    for (page, image) in journal::read_pending(checked, &header)? {
        checked.write(page, &image)?;
    }
    checked.sync()?;
    header.epoch += 1;
    header.journal_first_page = 0;
    header.journal_len = 0;
    checked.write(header.slot(), &catalog::encode_header(&header))?;
    Ok(header)
}

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Buffer pool capacity in pages: the CLOCK cache every page read
    /// goes through (a snapshot gets a pool of its own of this size). The
    /// paper's query experiment uses "a buffer pool that is larger than
    /// the document", so the default is generous (8192 pages = 64 MB).
    pub buffer_pages: usize,
    /// Record weight limit `K` in slots, enforced when the update path
    /// grows a record (the bulkload partitioning carries its own limit).
    pub record_limit_slots: natix_tree::Weight,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            buffer_pages: 8192,
            record_limit_slots: 256,
        }
    }
}

/// Reference to a stored node: record number plus local node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef {
    /// Record number (index into the record directory).
    pub record: u32,
    /// Local node index within the record.
    pub node: u16,
}

/// Navigation counters: the observable cost model of the paper — crossing
/// storage units is expensive, staying inside one is cheap.
#[derive(Debug, Default, Clone, Copy)]
pub struct NavStats {
    /// Record fetches that switched away from the previously used record.
    pub record_switches: u64,
    /// Switches to a record the store still held decoded: one on the
    /// chain from the root record to the last record read.
    pub record_cache_hits: u64,
    /// Fetches that had to read pages and decode the record.
    pub record_decodes: u64,
}

/// Committed-but-uncheckpointed page images, keyed by their target page.
/// Ordered, so a rollback re-admits them into the pool in page order and
/// the pool's evictions do not depend on hash order.
pub(crate) type Overlay = BTreeMap<PageId, Arc<[u8; PAGE_SIZE]>>;

/// A bulkloaded XML store.
pub struct XmlStore {
    pub(crate) pool: BufferPool,
    pub(crate) directory: Vec<RecordLoc>,
    pub(crate) labels: Vec<Box<str>>,
    pub(crate) label_ids: HashMap<Box<str>, u16>,
    pub(crate) root_record: u32,
    /// The decoded records on the path from (at most) the root record
    /// down to the last one read from pages, each the `parent_record` of
    /// the next: what a document-order walk, or a climb out of one of its
    /// hits, comes back to. Nothing else stays decoded, so resident
    /// records are bounded by the tree's height in records.
    pub(crate) chain: Vec<Rc<RecordData>>,
    /// Position in `chain` of the last fetched record: repeated access to
    /// the current record is a compare and an `Rc` clone — the cheap
    /// intra-record navigation the paper's cost model assumes.
    pub(crate) cursor: usize,
    pub(crate) nav: NavStats,
    /// Record weight limit `K` in slots, enforced by the update path.
    pub(crate) record_limit: natix_tree::Weight,
    /// Page with known free space, used by the update path's placement.
    pub(crate) open_page: Option<PageId>,
    /// Epoch of the current committed header (see `catalog::Header`).
    pub(crate) epoch: u64,
    /// Location of the last committed catalog `(first_page, len)`, used by
    /// the checkpoint header.
    pub(crate) committed_catalog: (PageId, u64),
    /// In-memory copy of the last committed catalog, so rollback can
    /// restore the directory and label table without touching the backend
    /// (which may be the very thing that just failed).
    /// Behind an `Arc` so a snapshot seed shares it instead of copying.
    pub(crate) committed_catalog_bytes: Arc<Vec<u8>>,
    /// A read-only view of a committed state: updates are refused.
    pub(crate) read_only: bool,
    /// Records quarantined by `fsck --repair` (unrecoverable partitions);
    /// strict reads of them fail, degraded reads skip and report them.
    pub(crate) quarantined: BTreeSet<u32>,
    /// When set, `commit` stops at the commit point (phases 1–3) and does
    /// not checkpoint: the backend only ever sees chains written to fresh
    /// or reclaimed pages plus header-slot writes, so every data page a
    /// concurrent snapshot reader references stays byte-stable. The `concurrent::SharedStore`
    /// layer sets this while readers hold epoch pins and runs
    /// [`XmlStore::apply_pending_checkpoint`] once they drain.
    pub(crate) defer_checkpoint: bool,
    /// A durable commit is published whose checkpoint (phases 4–5) has
    /// not run yet; the winning header still references a redo journal.
    pub(crate) pending_checkpoint: bool,
    /// Page images of every committed-but-not-yet-checkpointed page, in
    /// their committed state. Rollback re-admits these as dirty frames
    /// (plain `discard_dirty` would lose the committed images, which live
    /// only in pool frames until the deferred checkpoint runs); snapshot
    /// readers overlay them over the backend, sharing map and images
    /// through the `Arc`s (a commit under a pin copies the map of
    /// pointers, never a page).
    pub(crate) committed_overlay: Arc<Overlay>,
    /// Location `(first_page, len)` of the journal referenced by the last
    /// durable commit, for reconstructing the committed header while its
    /// checkpoint is pending.
    pub(crate) last_commit_journal: (PageId, u64),
    /// Page count of the last published state (set at open and after
    /// every commit flip). A commit journals the dirty pages below it and
    /// writes the fresh ones at or past it in place. Not the pool's
    /// write-back floor, which a group-commit batch raises over its
    /// staged, still unpublished pages.
    published_pages: PageId,
    /// Open group-commit batch, if any (see [`XmlStore::begin_batch`]).
    pub(crate) batch: Option<BatchState>,
}

/// A consistent point inside a group-commit batch that a failing
/// operation can roll back to without losing earlier staged operations:
/// the dirty page images plus the catalog projections an update writes.
pub(crate) struct Savepoint {
    dirty: Vec<JournalEntry>,
    directory: Vec<RecordLoc>,
    labels: Vec<Box<str>>,
    open_page: Option<PageId>,
}

/// In-flight group-commit batch state: the savepoint guarding the
/// operation in flight and how many operations are staged.
pub(crate) struct BatchState {
    save: Savepoint,
    ops: usize,
}

/// First-fit record placement over a small set of open pages, like a
/// record manager that keeps a free-space inventory. Fragmentation is
/// real and reported (paper Sec. 6.4).
///
/// Shared by the batch bulkloader and the streaming loader so that both
/// paths produce byte-identical page layouts for the same record
/// sequence.
pub(crate) struct RecordPlacer {
    /// (page, free bytes)
    open_pages: Vec<(PageId, usize)>,
}

impl RecordPlacer {
    const OPEN_LIMIT: usize = 8;

    pub(crate) fn new() -> RecordPlacer {
        RecordPlacer {
            open_pages: Vec::new(),
        }
    }

    /// Place one encoded record, returning its location. Records larger
    /// than a page payload go to a dedicated overflow chain.
    pub(crate) fn place(&mut self, pool: &mut BufferPool, bytes: &[u8]) -> StoreResult<RecordLoc> {
        if bytes.len() > MAX_IN_PAGE {
            let first_page = write_overflow_chain(pool, bytes)?;
            return Ok(RecordLoc::Overflow {
                first_page,
                len: bytes.len() as u32,
            });
        }
        let need = bytes.len() + 4; // payload + slot
        let slot_page = self.open_pages.iter().position(|&(_, free)| free >= need);
        let (page, pos) = match slot_page {
            Some(pos) => (self.open_pages[pos].0, pos),
            None => {
                if self.open_pages.len() >= Self::OPEN_LIMIT {
                    // Close the fullest page before opening a new one.
                    let min = self
                        .open_pages
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(_, free))| free)
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    self.open_pages.swap_remove(min);
                }
                let page = pool.allocate()?;
                pool.with_page(page, true, |buf| {
                    SlottedPage::format(buf);
                })?;
                self.open_pages.push((page, PAYLOAD_SIZE - 4));
                (page, self.open_pages.len() - 1)
            }
        };
        let (slot, free) = pool.with_page(page, true, |buf| {
            let mut sp = SlottedPage::new(buf);
            let slot = sp.insert(bytes).expect("fit was checked");
            (slot, sp.free_space())
        })?;
        self.open_pages[pos].1 = free;
        Ok(RecordLoc::InPage { page, slot })
    }
}

/// Name → id index over a label table.
fn label_index(labels: &[Box<str>]) -> HashMap<Box<str>, u16> {
    labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.clone(), i as u16))
        .collect()
}

/// The one label interner: `name`'s id in the table, appending it if new.
pub(crate) fn intern_label(
    labels: &mut Vec<Box<str>>,
    ids: &mut HashMap<Box<str>, u16>,
    name: &str,
) -> StoreResult<u16> {
    if let Some(&id) = ids.get(name) {
        return Ok(id);
    }
    let id =
        u16::try_from(labels.len()).map_err(|_| StoreError::InvalidUpdate("label table full"))?;
    labels.push(name.into());
    ids.insert(name.into(), id);
    Ok(id)
}

/// First half of the fresh-store writer: every page written through the
/// returned pool is sealed (class + XXH64) on its way to `backend`, and
/// pages 0 and 1 are reserved as the header slots.
///
/// A fresh backend has no committed state, so every page is past the
/// write-back floor: eviction may stream dirty pages out and the load
/// runs in bounded memory even for out-of-budget documents. (A crash
/// mid-load leaves a headerless file either way.)
pub(crate) fn begin_fresh(
    backend: Box<dyn Pager>,
    config: &StoreConfig,
) -> StoreResult<BufferPool> {
    let mut pool = BufferPool::new(
        Box::new(ChecksummingPager::new(backend)),
        config.buffer_pages,
    );
    pool.set_writeback_floor(0);
    let slots = (pool.allocate()?, pool.allocate()?);
    debug_assert_eq!(slots, (0, 1));
    Ok(pool)
}

/// Second half of the fresh-store writer: publish `cat` (epoch 1) over
/// the records placed through `pool` since [`begin_fresh`]. The catalog
/// goes after the data pages so the store can be reopened from its page
/// file alone. No pre-state exists, so no journal is needed; epoch 1
/// lands in slot 1 and slot 0 stays invalid (zeroed). The header slot is
/// the last page written, so a crash at any earlier write leaves a file
/// with no valid header.
pub(crate) fn finish_fresh(mut pool: BufferPool, cat: Catalog) -> StoreResult<XmlStore> {
    let catalog_bytes = catalog::encode_catalog(
        &cat.directory,
        &cat.labels,
        &cat.quarantined,
        cat.root_record,
        cat.record_limit,
        cat.epoch,
    );
    let catalog_first_page = pool.append_chunked(&catalog_bytes, PageClass::Catalog)?;
    let header = Header {
        epoch: cat.epoch,
        root_record: cat.root_record,
        catalog_first_page,
        catalog_len: catalog_bytes.len() as u64,
        record_limit: cat.record_limit,
        journal_first_page: 0,
        journal_len: 0,
    };
    // Behind the barrier `flush` ends with: it writes in page order, and
    // slot 1 ahead of the data pages it names would survive a crash
    // mid-flush as a valid header over missing data.
    pool.flush()?;
    pool.write_through(header.slot(), &catalog::encode_header(&header))?;
    // Everything written so far is now the committed state: raise the
    // floor so only future appends qualify for dirty write-back.
    pool.set_writeback_floor(pool.page_count());
    Ok(XmlStore::from_committed(
        pool,
        &header,
        Arc::new(catalog_bytes),
        cat,
    ))
}

impl XmlStore {
    /// The writable in-memory store over `pool` for the committed state
    /// `header` publishes; `cat` is `catalog_bytes` decoded. Performs no
    /// backend access.
    pub(crate) fn from_committed(
        pool: BufferPool,
        header: &Header,
        catalog_bytes: Arc<Vec<u8>>,
        cat: Catalog,
    ) -> XmlStore {
        XmlStore {
            published_pages: pool.page_count(),
            pool,
            label_ids: label_index(&cat.labels),
            directory: cat.directory,
            labels: cat.labels,
            root_record: cat.root_record,
            chain: Vec::new(),
            cursor: 0,
            nav: NavStats::default(),
            record_limit: header.record_limit,
            open_page: None,
            epoch: header.epoch,
            committed_catalog: (header.catalog_first_page, header.catalog_len),
            committed_catalog_bytes: catalog_bytes,
            read_only: false,
            quarantined: cat.quarantined.into_iter().collect(),
            defer_checkpoint: false,
            pending_checkpoint: false,
            committed_overlay: Arc::default(),
            last_commit_journal: (0, 0),
            batch: None,
        }
    }

    /// Load `doc`, decomposed by `partitioning`, into a store over
    /// `backend`.
    ///
    /// The partitioning must be feasible for the document's tree (use
    /// [`natix_tree::validate`]); each partition becomes one record.
    pub fn bulkload(
        doc: &Document,
        partitioning: &Partitioning,
        backend: Box<dyn Pager>,
        config: StoreConfig,
    ) -> StoreResult<XmlStore> {
        let tree = doc.tree();
        let n = tree.len();
        let intervals = &partitioning.intervals;
        let p_count = intervals.len();
        assert!(p_count < NONE_U32 as usize, "too many partitions");

        // Which interval (= record) owns each cut node; NONE for nodes that
        // stay with an ancestor.
        let mut owner = vec![NONE_U32; n];
        for (i, iv) in intervals.iter().enumerate() {
            for x in iv.nodes(tree) {
                owner[x.index()] = i as u32;
            }
        }
        assert_ne!(
            owner[tree.root().index()],
            NONE_U32,
            "partitioning must contain the root interval"
        );
        // Record (= partition) every node belongs to.
        let mut assign = vec![NONE_U32; n];
        for v in tree.node_ids() {
            assign[v.index()] = if owner[v.index()] != NONE_U32 {
                owner[v.index()]
            } else {
                assign[tree.parent(v).expect("non-root").index()]
            };
        }

        // Local (per-record) preorder numbering.
        let mut local_idx = vec![NONE_U16; n];
        let mut locals: Vec<Vec<NodeId>> = vec![Vec::new(); p_count];
        for (i, iv) in intervals.iter().enumerate() {
            let list = &mut locals[i];
            for root in iv.nodes(tree) {
                // DFS over the fragment, skipping cut children.
                let mut stack = vec![root];
                while let Some(v) = stack.pop() {
                    local_idx[v.index()] = u16::try_from(list.len()).map_err(|_| {
                        StoreError::InvalidUpdate("fragment larger than u16::MAX nodes")
                    })?;
                    list.push(v);
                    for &c in tree.children(v).iter().rev() {
                        if owner[c.index()] == NONE_U32 {
                            stack.push(c);
                        }
                    }
                }
            }
        }

        // Build record images and discover proxy positions.
        let mut labels: Vec<Box<str>> = Vec::new();
        let mut label_ids: HashMap<Box<str>, u16> = HashMap::new();

        let mut records: Vec<RecordImage> = Vec::with_capacity(p_count);
        // (parent_record, parent_local, proxy_pos) per record.
        let mut proxy_info = vec![(NONE_U32, NONE_U16, NONE_U16); p_count];

        for (i, list) in locals.iter().enumerate() {
            let mut nodes = list
                .iter()
                .map(|&v| {
                    Ok(ImageNode {
                        kind: doc.kind(v),
                        label: intern_label(&mut labels, &mut label_ids, doc.name(v))?,
                        parent_local: NONE_U16,
                        entry_pos: NONE_U16,
                        content: doc.content(v).map(Into::into),
                        entries: Vec::new(),
                    })
                })
                .collect::<StoreResult<Vec<ImageNode>>>()?;

            for (li, &v) in list.iter().enumerate() {
                let children = tree.children(v);
                if children.is_empty() {
                    continue;
                }
                let mut entries = Vec::with_capacity(children.len());
                let mut last_proxy = NONE_U32;
                for &c in children {
                    let o = owner[c.index()];
                    if o == NONE_U32 {
                        let cl = local_idx[c.index()];
                        nodes[cl as usize].parent_local = li as u16;
                        nodes[cl as usize].entry_pos = entries.len() as u16;
                        entries.push(ChildEntry::Local(cl));
                        last_proxy = NONE_U32;
                    } else if o != last_proxy {
                        // First member of a cut interval: one proxy per
                        // interval run.
                        proxy_info[o as usize] = (i as u32, li as u16, entries.len() as u16);
                        entries.push(ChildEntry::Proxy(o));
                        last_proxy = o;
                    }
                }
                nodes[li].entries = entries;
            }

            let roots = intervals[i]
                .nodes(tree)
                .map(|v| local_idx[v.index()])
                .collect();
            records.push(RecordImage {
                parent_record: NONE_U32,
                parent_local: NONE_U16,
                proxy_pos: NONE_U16,
                roots,
                nodes,
            });
        }
        for (i, rec) in records.iter_mut().enumerate() {
            let (pr, pl, pp) = proxy_info[i];
            rec.parent_record = pr;
            rec.parent_local = pl;
            rec.proxy_pos = pp;
        }

        // Place the encoded records onto pages: first fit over a small set
        // of open pages, like a record manager that keeps a free-space
        // inventory. Fragmentation is real and reported (paper Sec. 6.4).
        let mut pool = begin_fresh(backend, &config)?;
        let mut directory = Vec::with_capacity(p_count);
        let mut placer = RecordPlacer::new();
        for (no, rec) in records.iter().enumerate() {
            let bytes = record::encode(rec, no as u32, 1);
            directory.push(placer.place(&mut pool, &bytes)?);
        }
        finish_fresh(
            pool,
            Catalog {
                epoch: 1,
                root_record: owner[tree.root().index()],
                record_limit: config.record_limit_slots,
                directory,
                labels,
                quarantined: Vec::new(),
            },
        )
    }

    /// Number of live (non-deleted) records.
    pub fn live_record_count(&self) -> usize {
        self.directory
            .iter()
            .filter(|l| !matches!(l, RecordLoc::Free))
            .count()
    }

    /// Atomically commit every pending change (dirty pages, catalog and
    /// label-table growth) to the backend.
    ///
    /// Shadow-commit protocol: (1) write the new catalog, (2) write a
    /// redo journal holding the full image of every dirty page the commit
    /// overwrites in place, i.e. below the published page count (the
    /// catalog and the journal each go to a free extent, else are
    /// appended; see [`BufferPool::append_chunked`]), and write the dirty
    /// pages at or past that count, which no published state reaches, in
    /// place, all behind one barrier, (3) publish
    /// a header referencing both into the inactive header slot — **this
    /// single page write is the commit point** — then (4) checkpoint the
    /// journaled pages in place and (5) publish a journal-free header. A
    /// crash before (3) leaves the previous commit intact; a crash after
    /// it is repaired by replaying the journal in [`XmlStore::open`].
    pub fn commit(&mut self) -> StoreResult<()> {
        if self.batch.is_some() {
            return Err(StoreError::InvalidUpdate(
                "commit() inside an open group-commit batch; use commit_batch()",
            ));
        }
        self.publish()
    }

    /// The one publish behind [`XmlStore::commit`] and
    /// [`XmlStore::commit_batch`]: make the dirty state durable, then
    /// checkpoint it or, under snapshot pins, leave the checkpoint pending.
    fn publish(&mut self) -> StoreResult<()> {
        if let Err(e) = self.commit_durable() {
            // Nothing was published: put the in-memory state back to the
            // last committed one. If the backend is dead (power cut) the
            // reload fails too; every later call will error the same way.
            let _ = self.rollback();
            return Err(e);
        }
        if self.defer_checkpoint {
            // Snapshot readers hold epoch pins: leave the journal as the
            // winner and the committed images in their dirty frames, so
            // no pinned page on the backend is overwritten. The commit is
            // durable; `apply_pending_checkpoint` finishes it later.
            self.pending_checkpoint = true;
            return Ok(());
        }
        // Past the commit point: a failure below leaves a replayable
        // journal behind, so the commit itself is not lost.
        self.checkpoint()
    }

    /// Phases (1)–(3) of the commit protocol, up to and including the
    /// commit point. The journal holds every dirty page below the
    /// published page count in page order: under a deferred checkpoint
    /// that includes the overlay images of earlier epochs, journaled
    /// again. The dirty pages at or past that count are fresh: they go in
    /// place ahead of the first barrier, like the ones eviction already
    /// wrote back. Recovery never reads them before the flip, the backend
    /// holds their final image after it, and no pinned snapshot reaches
    /// them, so they need no journal entry and no overlay image.
    fn commit_durable(&mut self) -> StoreResult<()> {
        let quarantined: Vec<u32> = self.quarantined.iter().copied().collect();
        let catalog_bytes = catalog::encode_catalog(
            &self.directory,
            &self.labels,
            &quarantined,
            self.root_record,
            self.record_limit,
            self.epoch + 1,
        );
        let catalog_first_page = self
            .pool
            .append_chunked(&catalog_bytes, PageClass::Catalog)?;

        let entries = self.dirty_images(self.published_pages)?;
        let journal_bytes = journal::encode(&entries);
        let journal_first_page = self
            .pool
            .append_chunked(&journal_bytes, PageClass::Journal)?;

        let header = Header {
            epoch: self.epoch + 1,
            root_record: self.root_record,
            catalog_first_page,
            catalog_len: catalog_bytes.len() as u64,
            record_limit: self.record_limit,
            journal_first_page,
            journal_len: journal_bytes.len() as u64,
        };
        // Durability barriers around the commit point: the catalog,
        // journal and fresh pages must be stable before the flip can name
        // them (`flush_from` writes the fresh pages and ends with that
        // barrier; they turn clean only once it returns), and the flip
        // must be stable before the commit is acked. These two fsyncs are
        // what group commit amortizes across a batch.
        self.pool.flush_from(self.published_pages)?;
        self.pool
            .write_through(header.slot(), &catalog::encode_header(&header))?;
        self.pool.sync_backend()?;
        self.epoch = header.epoch;
        self.committed_catalog = (catalog_first_page, catalog_bytes.len() as u64);
        self.committed_catalog_bytes = Arc::new(catalog_bytes);
        self.last_commit_journal = (journal_first_page, header.journal_len);
        // Every page on the backend now belongs to the committed state
        // (the flip published the catalog and journal just appended).
        self.published_pages = self.pool.page_count();
        self.pool.set_writeback_floor(self.published_pages);
        if self.defer_checkpoint {
            // The journaled images *are* the committed page states; keep
            // them so rollback of a later failed op cannot lose them and
            // snapshot readers can overlay them without replaying the
            // journal from disk.
            let overlay = Arc::make_mut(&mut self.committed_overlay);
            for (id, image) in entries {
                overlay.insert(id, Arc::from(image));
            }
        }
        Ok(())
    }

    /// Phases (4)–(5): write the journaled images in place and retire the
    /// journal. Failures here are reported but do not lose the commit:
    /// the journal header stays the winner, and the store is left as a
    /// deferred checkpoint leaves it — pending, with every image not yet
    /// behind a barrier dirty and in `committed_overlay` — so snapshots
    /// never read half-checkpointed pages, a rollback keeps the images,
    /// and the next commit journals them again.
    fn checkpoint(&mut self) -> StoreResult<()> {
        let r = self.checkpoint_in_place();
        if r.is_err() {
            self.pending_checkpoint = true;
            let overlay = Arc::make_mut(&mut self.committed_overlay);
            for id in self.pool.dirty_pages() {
                overlay.insert(id, Arc::from(self.pool.page_image(id)?));
            }
        }
        r
    }

    fn checkpoint_in_place(&mut self) -> StoreResult<()> {
        // The in-place page images must be stable before the journal-free
        // header can declare the journal obsolete: `flush` ends with that
        // barrier.
        self.pool.flush()?;
        let header = Header {
            epoch: self.epoch + 1,
            root_record: self.root_record,
            catalog_first_page: self.committed_catalog.0,
            catalog_len: self.committed_catalog.1,
            record_limit: self.record_limit,
            journal_first_page: 0,
            journal_len: 0,
        };
        self.pool
            .write_through(header.slot(), &catalog::encode_header(&header))?;
        self.epoch = header.epoch;
        self.pending_checkpoint = false;
        self.committed_overlay = Arc::default();
        Ok(())
    }

    /// Run the checkpoint a deferred [`XmlStore::commit`] skipped (called
    /// by the concurrent layer once every reader pin is released). No-op
    /// when nothing is pending. On failure the journal header stays the
    /// winner and this can simply be called again.
    pub fn apply_pending_checkpoint(&mut self) -> StoreResult<()> {
        if self.pending_checkpoint {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Whether a durable commit is still waiting for its checkpoint.
    pub fn has_pending_checkpoint(&self) -> bool {
        self.pending_checkpoint
    }

    /// Open a group-commit batch: update operations after this stage
    /// their changes in memory instead of committing one by one, and
    /// [`XmlStore::commit_batch`] publishes all of them under a *single*
    /// journal write and header flip. Crash recovery therefore restores
    /// either none or all of the batch — an exact prefix of what
    /// `commit_batch` acknowledged, since acks only exist after the flip.
    ///
    /// An operation that fails inside the batch rolls back to the
    /// savepoint taken at the previous operation boundary: earlier staged
    /// operations survive, only the failing one is discarded.
    pub fn begin_batch(&mut self) -> StoreResult<()> {
        self.require_writable()?;
        if self.batch.is_some() {
            return Err(StoreError::InvalidUpdate(
                "a group-commit batch is already open",
            ));
        }
        let save = self.savepoint()?;
        self.batch = Some(BatchState { save, ops: 0 });
        Ok(())
    }

    /// Publish every operation staged since [`XmlStore::begin_batch`]
    /// under one journal write and one header flip; returns how many were
    /// staged. On error the whole batch is rolled back to the last
    /// committed state — the caller must treat every staged operation as
    /// unacknowledged (though, as with [`XmlStore::commit`], a failure
    /// *after* the flip can still leave the post-state durable).
    pub fn commit_batch(&mut self) -> StoreResult<usize> {
        let batch = self
            .batch
            .take()
            .ok_or(StoreError::InvalidUpdate("no group-commit batch is open"))?;
        if batch.ops == 0 {
            return Ok(0);
        }
        self.publish()?;
        Ok(batch.ops)
    }

    /// Capture everything a mid-batch rollback must restore.
    fn savepoint(&mut self) -> StoreResult<Savepoint> {
        Ok(Savepoint {
            dirty: self.dirty_images(PageId::MAX)?,
            directory: self.directory.clone(),
            labels: self.labels.clone(),
            open_page: self.open_page,
        })
    }

    /// Every dirty page below `end` with its image, in page order.
    fn dirty_images(&mut self, end: PageId) -> StoreResult<Vec<JournalEntry>> {
        let ids = self.pool.dirty_pages();
        ids.into_iter()
            .filter(|&id| id < end)
            .map(|id| Ok((id, self.pool.page_image(id)?)))
            .collect()
    }

    /// Operation boundary inside a batch: take a fresh savepoint and count
    /// the op. Raises the write-back floor to the current page count so
    /// pages now owned by *staged* (but uncommitted) operations are never
    /// evicted dirty — their only safe copy is the resident frame until
    /// the batch commits.
    pub(crate) fn batch_op_staged(&mut self) -> StoreResult<()> {
        let save = self.savepoint()?;
        self.pool.set_writeback_floor(self.pool.page_count());
        let batch = self.batch.as_mut().expect("staging requires an open batch");
        batch.ops += 1;
        batch.save = save;
        Ok(())
    }

    /// Roll back to the savepoint of the last staged operation, keeping
    /// the batch open.
    pub(crate) fn rollback_to_savepoint(&mut self) {
        let batch = self.batch.take().expect("savepoint requires an open batch");
        let save = &batch.save;
        self.restore(
            save.dirty.iter().map(|(id, image)| (*id, &**image)),
            save.directory.clone(),
            save.labels.clone(),
            save.open_page,
        );
        self.batch = Some(batch);
    }

    /// Epoch of the current committed header.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// The current committed header, reconstructed from in-memory state
    /// (identical to what the winning header slot holds on the backend).
    pub(crate) fn committed_header(&self) -> Header {
        let (journal_first_page, journal_len) = if self.pending_checkpoint {
            self.last_commit_journal
        } else {
            (0, 0)
        };
        Header {
            epoch: self.epoch,
            root_record: self.root_record,
            catalog_first_page: self.committed_catalog.0,
            catalog_len: self.committed_catalog.1,
            record_limit: self.record_limit,
            journal_first_page,
            journal_len,
        }
    }

    /// Discard all uncommitted changes, restoring the in-memory state from
    /// the last committed catalog. Does not touch the backend: the catalog
    /// is restored from its in-memory copy, so rollback works even when
    /// the backend is failing.
    pub(crate) fn rollback(&mut self) -> StoreResult<()> {
        // A full rollback abandons any open batch: the savepoint chain is
        // meaningless once the committed state is restored.
        self.batch = None;
        let cat = catalog::decode_catalog(&self.committed_catalog_bytes)?;
        // Under a deferred checkpoint the committed images of earlier
        // epochs live only in dirty frames: put them back, or the
        // eventual checkpoint would silently skip them and reads between
        // now and then would see pre-commit backend bytes.
        let overlay = Arc::clone(&self.committed_overlay);
        self.restore(
            overlay.iter().map(|(id, image)| (*id, &**image)),
            cat.directory,
            cat.labels,
            None,
        );
        Ok(())
    }

    /// The one restore behind [`XmlStore::rollback`] and
    /// [`XmlStore::rollback_to_savepoint`]: drop every dirty frame,
    /// re-admit `images` as dirty frames and reinstate the catalog
    /// projections an update writes. Touches no backend page.
    fn restore<'a>(
        &mut self,
        images: impl Iterator<Item = (PageId, &'a [u8; PAGE_SIZE])>,
        directory: Vec<RecordLoc>,
        labels: Vec<Box<str>>,
        open_page: Option<PageId>,
    ) {
        self.pool.discard_dirty();
        for (id, image) in images {
            self.pool.restore_dirty(id, image);
        }
        self.label_ids = label_index(&labels);
        self.directory = directory;
        self.labels = labels;
        self.open_page = open_page;
        self.chain.clear();
    }

    /// Reopen a previously committed store from its page file for
    /// writing, running crash recovery ([`recover`]) if the last commit
    /// did not finish checkpointing.
    pub fn open(backend: Box<dyn Pager>, config: StoreConfig) -> StoreResult<XmlStore> {
        let (header, mut checked) = catalog::open_verified(backend)?;
        // Recovery runs below the pool, which is built over the file it
        // leaves behind.
        let header = recover(&mut checked, header)?;
        let catalog_bytes = read_chunked(
            &mut checked,
            header.catalog_first_page,
            header.catalog_len as usize,
        )?;
        let cat = catalog::decode_catalog(&catalog_bytes)?;
        let mut pool = BufferPool::new(Box::new(checked), config.buffer_pages);
        // The file now holds exactly the committed state (recovery above
        // replayed any pending journal): appends past here may be
        // written back by eviction.
        pool.set_writeback_floor(pool.page_count());
        Ok(XmlStore::from_committed(
            pool,
            &header,
            Arc::new(catalog_bytes),
            cat,
        ))
    }

    /// Open the committed state of the page file behind `pages` without
    /// writing it: a pending journal's images are overlaid in memory
    /// instead of replayed in place. This is the read-only view a
    /// replica serves, `dump --degraded` reads and fsck scrubs; updates
    /// are refused.
    pub fn open_read_only(pages: &dyn PagerFactory, config: StoreConfig) -> StoreResult<XmlStore> {
        let seed = SnapshotSeed::from_disk(pages.open_pager()?, config)?;
        seed.open(pages.open_pager()?)
    }

    /// Records quarantined by `fsck --repair`, ascending.
    pub fn quarantined_records(&self) -> Vec<u32> {
        self.quarantined.iter().copied().collect()
    }

    /// `Err` unless this store accepts updates.
    pub(crate) fn require_writable(&self) -> StoreResult<()> {
        if self.read_only {
            return Err(StoreError::InvalidUpdate("store opened read-only"));
        }
        Ok(())
    }

    /// Record `no`, decoded and held: read from pages and decoded on a
    /// miss, a compare and an `Rc` clone when it is the record last
    /// fetched. A walk that keeps the `Rc` reads the record's nodes and
    /// entry lists without coming back here — what following a proxy
    /// entry costs is one call.
    pub fn fetch(&mut self, no: u32) -> StoreResult<Rc<RecordData>> {
        if let Some(rec) = self.chain.get(self.cursor).filter(|r| r.self_no == no) {
            return Ok(rec.clone());
        }
        self.nav.record_switches += 1;
        if let Some(pos) = self.chain.iter().rposition(|r| r.self_no == no) {
            self.nav.record_cache_hits += 1;
            self.cursor = pos;
            return Ok(self.chain[pos].clone());
        }
        self.nav.record_decodes += 1;
        if self.quarantined.contains(&no) {
            return Err(StoreError::corrupt_record(
                "record quarantined by fsck repair",
                no,
            ));
        }
        let rec = Rc::new(self.read_record(no).map_err(|v| v.error)?);
        // Keep the chain a path: a child of a held record replaces what
        // hung below its parent, the parent of the topmost held record
        // (an upward climb) goes on top, anything else starts over.
        if let Some(pos) = self
            .chain
            .iter()
            .rposition(|r| r.self_no == rec.parent_record)
        {
            self.chain.truncate(pos + 1);
        } else if self
            .chain
            .first()
            .is_some_and(|top| top.parent_record == no)
        {
            self.chain.insert(0, rec.clone());
            self.cursor = 0;
            return Ok(rec);
        } else {
            self.chain.clear();
        }
        self.cursor = self.chain.len();
        self.chain.push(rec.clone());
        Ok(rec)
    }

    /// Record `no` read from its pages and decoded, or the graph rule
    /// that stops it: unreadable pages, undecodable bytes (label ids must
    /// resolve in this store's label table), or a record that claims
    /// another directory slot — the directory points at the wrong page.
    pub(crate) fn read_record(&mut self, no: u32) -> Result<RecordData, Violation> {
        let loc = self
            .directory
            .get(no as usize)
            .copied()
            .unwrap_or(RecordLoc::Free);
        let bytes = load_record(&mut self.pool, no, loc)
            .map_err(|e| Violation::new("record-unreadable", no, e))?;
        let rec = record::decode(bytes, self.labels.len())
            .map_err(|e| Violation::new("record-undecodable", no, e.in_record(no)))?;
        if rec.self_no != no {
            let e =
                StoreError::corrupt_record("record self-number does not match directory slot", no);
            return Err(Violation::new("self-no-mismatch", no, e));
        }
        Ok(rec)
    }

    /// The document root.
    pub fn root(&mut self) -> StoreResult<NodeRef> {
        let rec = self.fetch(self.root_record)?;
        Ok(NodeRef {
            record: self.root_record,
            node: rec.roots[0],
        })
    }

    /// Run `f` on the decoded node.
    pub fn with_node<T>(&mut self, r: NodeRef, f: impl FnOnce(&RecNode) -> T) -> StoreResult<T> {
        self.with_node_in(r, |_, node| f(node))
    }

    /// Run `f` on the decoded record and node together (needed to access
    /// content and child entries, which are read off the record's bytes).
    pub fn with_node_in<T>(
        &mut self,
        r: NodeRef,
        f: impl FnOnce(&RecordData, &RecNode) -> T,
    ) -> StoreResult<T> {
        let (rec, node) = self.fetch_node(r)?;
        Ok(f(&rec, &node))
    }

    /// The record of `r`, and `r`'s node in it.
    fn fetch_node(&mut self, r: NodeRef) -> StoreResult<(Rc<RecordData>, RecNode)> {
        let rec = self.fetch(r.record)?;
        let node = rec.get(r.node).ok_or(StoreError::BadRecord(r.record))?;
        Ok((rec, node))
    }

    /// Run `f` on record `no`, decoded: what following a proxy entry
    /// costs.
    pub fn with_record<T>(&mut self, no: u32, f: impl FnOnce(&RecordData) -> T) -> StoreResult<T> {
        Ok(f(&*self.fetch(no)?))
    }

    /// Node kind.
    pub fn node_kind(&mut self, r: NodeRef) -> StoreResult<NodeKind> {
        self.with_node(r, |n| n.kind)
    }

    /// Node label id (see [`XmlStore::label_name`]).
    pub fn node_label(&mut self, r: NodeRef) -> StoreResult<u16> {
        self.with_node(r, |n| n.label)
    }

    /// Node content (owned copy).
    pub fn node_content(&mut self, r: NodeRef) -> StoreResult<Option<String>> {
        self.with_node_in(r, |rec, n| rec.content(n).map(str::to_string))
    }

    /// Resolve a label id to its name.
    pub fn label_name(&self, id: u16) -> &str {
        &self.labels[id as usize]
    }

    /// Resolve a name to its label id, if the store contains it.
    pub fn label_id(&self, name: &str) -> Option<u16> {
        self.label_ids.get(name).copied()
    }

    /// Visit all children of `r` in document order, delivering kind and
    /// label along with the handle.
    ///
    /// Local children cost nothing beyond the already-held record, and
    /// each cut child *interval* (proxy) costs one record fetch, paid at
    /// listing time. Tests and campaigns list children this way. The
    /// evaluator keeps the records it walks ([`XmlStore::fetch`]) and
    /// reads entry lists off them through an
    /// [`EntryCursor`](crate::EntryCursor), and `dump` reads a node's
    /// entries off its record; both enter a proxied record when their
    /// walk gets to its entry, which reads each record once, in the
    /// order bulkload laid them out.
    pub fn for_each_child(
        &mut self,
        r: NodeRef,
        mut f: impl FnMut(NodeRef, NodeKind, u16),
    ) -> StoreResult<()> {
        let (rec, node) = self.fetch_node(r)?;
        for entry in rec.entries(&node) {
            match entry {
                ChildEntry::Local(i) => {
                    let cn = rec.node(i);
                    f(
                        NodeRef {
                            record: r.record,
                            node: i,
                        },
                        cn.kind,
                        cn.label,
                    );
                }
                ChildEntry::Proxy(no) => {
                    let prec = self.fetch(no)?;
                    for &root in &prec.roots {
                        let cn = prec.node(root);
                        f(
                            NodeRef {
                                record: no,
                                node: root,
                            },
                            cn.kind,
                            cn.label,
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// First child in document order (elements only; attributes are
    /// children in the model and are *not* skipped here — axis semantics
    /// belong to the query layer).
    pub fn first_child(&mut self, r: NodeRef) -> StoreResult<Option<NodeRef>> {
        let (rec, node) = self.fetch_node(r)?;
        match rec.entries(&node).next() {
            None => Ok(None),
            Some(ChildEntry::Local(i)) => Ok(Some(NodeRef {
                record: r.record,
                node: i,
            })),
            Some(ChildEntry::Proxy(no)) => self.first_root(no).map(Some),
        }
    }

    /// Parent node; `None` at the document root.
    pub fn parent(&mut self, r: NodeRef) -> StoreResult<Option<NodeRef>> {
        let (rec, node) = self.fetch_node(r)?;
        if node.parent_local != NONE_U16 {
            return Ok(Some(NodeRef {
                record: r.record,
                node: node.parent_local,
            }));
        }
        if rec.parent_record == NONE_U32 {
            return Ok(None);
        }
        Ok(Some(NodeRef {
            record: rec.parent_record,
            node: rec.parent_local,
        }))
    }

    /// Next sibling in document order.
    pub fn next_sibling(&mut self, r: NodeRef) -> StoreResult<Option<NodeRef>> {
        self.sibling(r, 1)
    }

    /// Previous sibling in document order.
    pub fn prev_sibling(&mut self, r: NodeRef) -> StoreResult<Option<NodeRef>> {
        self.sibling(r, -1)
    }

    fn sibling(&mut self, r: NodeRef, dir: isize) -> StoreResult<Option<NodeRef>> {
        let (rec, node) = self.fetch_node(r)?;
        if node.parent_local != NONE_U16 {
            // Parent is local: step through its entry list.
            let parent = rec.node(node.parent_local);
            let pos = node.entry_pos as isize + dir;
            return self.entry_neighbor(r.record, rec.entries(&parent), pos, dir);
        }
        // Fragment root: try the neighboring root in this record.
        let pos = rec
            .root_pos(r.node)
            .ok_or_else(|| StoreError::corrupt_record("fragment root not in root list", r.record))?
            as isize;
        let next = pos + dir;
        if next >= 0 && (next as usize) < rec.roots.len() {
            return Ok(Some(NodeRef {
                record: r.record,
                node: rec.roots[next as usize],
            }));
        }
        // Cross into the parent record, stepping over our proxy entry.
        if rec.parent_record == NONE_U32 {
            return Ok(None);
        }
        let (parent_rec, parent) = self.fetch_node(NodeRef {
            record: rec.parent_record,
            node: rec.parent_local,
        })?;
        let pos = rec.proxy_pos as isize + dir;
        self.entry_neighbor(rec.parent_record, parent_rec.entries(&parent), pos, dir)
    }

    /// Resolve the child entry at `pos` of `parent` (which lives in record
    /// `record_no`) into a node reference. A proxy is entered at its first
    /// fragment root when stepping forward (`dir > 0`) and at its last
    /// when stepping backward.
    fn entry_neighbor(
        &mut self,
        record_no: u32,
        mut entries: Entries,
        pos: isize,
        dir: isize,
    ) -> StoreResult<Option<NodeRef>> {
        let Some(entry) = usize::try_from(pos).ok().and_then(|pos| entries.nth(pos)) else {
            return Ok(None);
        };
        match entry {
            ChildEntry::Local(i) => Ok(Some(NodeRef {
                record: record_no,
                node: i,
            })),
            ChildEntry::Proxy(no) => {
                if dir > 0 {
                    self.first_root(no).map(Some)
                } else {
                    self.last_root(no).map(Some)
                }
            }
        }
    }

    fn first_root(&mut self, no: u32) -> StoreResult<NodeRef> {
        let rec = self.fetch(no)?;
        Ok(NodeRef {
            record: no,
            node: rec.roots[0],
        })
    }

    fn last_root(&mut self, no: u32) -> StoreResult<NodeRef> {
        let rec = self.fetch(no)?;
        Ok(NodeRef {
            record: no,
            node: *rec.roots.last().expect("records have roots"),
        })
    }

    /// Navigation counters.
    pub fn nav_stats(&self) -> NavStats {
        self.nav
    }

    /// Reset navigation counters and let go of every decoded record, so
    /// the next navigation is counted from a cold start.
    pub fn reset_nav_stats(&mut self) {
        self.nav = NavStats::default();
        self.chain.clear();
    }

    /// Buffer pool counters.
    pub fn buffer_stats(&self) -> BufferStats {
        self.pool.stats()
    }

    /// Number of records (= partitions).
    pub fn record_count(&self) -> usize {
        self.directory.len()
    }

    /// Total allocated pages.
    pub fn page_count(&self) -> u32 {
        self.pool.page_count()
    }

    /// Occupied disk space in bytes (allocated pages × page size), the
    /// metric of Table 3's first row.
    pub fn occupied_bytes(&self) -> u64 {
        self.page_count() as u64 * PAGE_SIZE as u64
    }

    /// Rebuild the document by pure cursor navigation — used by round-trip
    /// tests to prove the store preserves content and order.
    pub fn to_document(&mut self) -> StoreResult<Document> {
        let root = self.root()?;
        self.subtree_to_document(root)
    }

    /// Rebuild the subtree rooted at `root` (which must be an element) as
    /// a standalone document — the collection layer uses this to extract
    /// one document from a shard whose store root fans out over many.
    pub fn subtree_to_document(&mut self, root: NodeRef) -> StoreResult<Document> {
        Ok(self.rebuild(root, None)?.0)
    }

    /// Degraded read: rebuild whatever survives, plus an exact report of
    /// every partition that did not. Subtrees whose records are corrupt
    /// or quarantined are skipped at their proxy entry and recorded as
    /// [`MissingInterval`]s; everything else is reproduced faithfully.
    /// Corruption of the root record itself is not salvageable and
    /// propagates as an error.
    pub fn to_document_degraded(&mut self) -> StoreResult<(Document, DamageReport)> {
        let root = self.root()?;
        self.rebuild(root, Some(&HashSet::new()))
    }

    /// Oracle helper for corruption tests: rebuild the document as if the
    /// records in `exclude` had been lost, on an otherwise clean store.
    /// A degraded read of a damaged store must equal the partial read of
    /// its clean twin excluding the reported records.
    pub fn to_document_partial(&mut self, exclude: &HashSet<u32>) -> StoreResult<Document> {
        let root = self.root()?;
        Ok(self.rebuild(root, Some(exclude))?.0)
    }

    /// The one document walk: the subtree of `root` in document order,
    /// first child first, a proxied record entered when the walk reaches
    /// its entry — so every record is decoded once, its ancestors still
    /// held. Given a set to `exclude`, a record that is corrupt,
    /// quarantined or in the set is skipped at its proxy entry and
    /// reported; given none, it fails the walk.
    fn rebuild(
        &mut self,
        root: NodeRef,
        exclude: Option<&HashSet<u32>>,
    ) -> StoreResult<(Document, DamageReport)> {
        let mut damage = DamageReport::default();
        /// Still to emit: a node, or the interval behind the proxy at
        /// `pos` of `parent`'s entries.
        enum Todo {
            Node(NodeRef),
            Proxy(u32, NodeRef, u16),
        }
        fn push_entries(
            stack: &mut Vec<(Todo, natix_xml::NodeId)>,
            rec: &RecordData,
            parent: NodeRef,
            target: natix_xml::NodeId,
        ) {
            let start = stack.len();
            let entries = rec.entries(&rec.node(parent.node));
            stack.extend(entries.enumerate().map(|(pos, e)| {
                let todo = match e {
                    ChildEntry::Local(node) => Todo::Node(NodeRef { node, ..parent }),
                    ChildEntry::Proxy(no) => Todo::Proxy(no, parent, pos as u16),
                };
                (todo, target)
            }));
            // Popped in document order.
            stack[start..].reverse();
        }
        let (rec, top) = self.fetch_node(root)?;
        assert_eq!(
            top.kind,
            NodeKind::Element,
            "document root must be an element"
        );
        let mut b = DocumentBuilder::new(&self.labels[top.label as usize]);
        let mut stack = Vec::new();
        push_entries(&mut stack, &rec, root, natix_xml::NodeId::ROOT);
        while let Some((todo, target)) = stack.pop() {
            let r = match todo {
                Todo::Node(r) => r,
                Todo::Proxy(no, parent, entry_pos) => {
                    let child = if exclude.is_some_and(|lost| lost.contains(&no)) {
                        Err(StoreError::corrupt_record(
                            "record excluded from partial read",
                            no,
                        ))
                    } else {
                        self.fetch(no)
                    };
                    match child {
                        Ok(crec) => stack.extend(crec.roots.iter().rev().map(|&node| {
                            let root = NodeRef { record: no, node };
                            (Todo::Node(root), target)
                        })),
                        Err(e) if exclude.is_some() && e.is_corruption() => {
                            damage.missing.push(MissingInterval {
                                record: no,
                                parent,
                                entry_pos,
                                cause: e.to_string(),
                            });
                        }
                        Err(e) => return Err(e),
                    }
                    continue;
                }
            };
            // A node's record is an ancestor of the walk's position or
            // that position itself, so it is still held.
            let (rec, n) = self.fetch_node(r)?;
            let name = &*self.labels[n.label as usize];
            let content = rec.content(&n).unwrap_or_default();
            match n.kind {
                NodeKind::Element => {
                    let id = b.element(target, name);
                    push_entries(&mut stack, &rec, r, id);
                }
                NodeKind::Attribute => {
                    b.attribute(target, name, content);
                }
                NodeKind::Text => {
                    b.text(target, content);
                }
                NodeKind::Comment => {
                    b.comment(target, content);
                }
                NodeKind::ProcessingInstruction => {
                    b.processing_instruction(target, name, content);
                }
            }
        }
        Ok((b.build(), damage))
    }
}

/// Convenience: bulkload using any partitioning algorithm.
pub fn bulkload_with(
    doc: &Document,
    partitioner: &dyn natix_core::Partitioner,
    k: natix_tree::Weight,
    backend: Box<dyn Pager>,
    config: StoreConfig,
) -> StoreResult<XmlStore> {
    let partitioning = partitioner.partition(doc.tree(), k).map_err(|e| {
        StoreError::InvalidUpdate(match e {
            PartitionError::ZeroLimit => "weight limit K must be positive",
            PartitionError::NodeTooHeavy { .. } => "node heavier than the record weight limit K",
            PartitionError::NotFlat { .. } => "the partitioner needs a flat tree",
        })
    })?;
    XmlStore::bulkload(doc, &partitioning, backend, config)
}
