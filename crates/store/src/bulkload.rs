//! Streaming bulkload: SAX events in, committed records out.
//!
//! The batch path ([`XmlStore::bulkload`]) needs the whole [`Document`]
//! in memory before partitioning. This module instead feeds the parser's
//! SAX event stream (see [`natix_xml::parse_sax`]) straight into the
//! streaming-EKM partitioner core ([`SekmDriver`]), buffering only the
//! *undecided* part of the document:
//!
//! * the open-element stack (`O(depth)`),
//! * the driver's pending sibling summaries (`O(sibling_budget)` per
//!   open element),
//! * the attached-but-unemitted subtrees hanging off those summaries
//!   (`O(K)` nodes per summary).
//!
//! As soon as the driver cuts a sibling run, the run is encoded as one
//! record, handed to a [`RecordSink`], and its nodes are freed. A child
//! record is emitted *before* its parent record exists, so its parent
//! back-link is written as a placeholder and later patched in place —
//! the record layout keeps the back-link at a fixed offset (bytes
//! 16..24) and slotted-page payloads never move, so the patch is an
//! 8-byte overwrite that leaves every other byte of the page untouched.
//!
//! Two sinks exist: a fresh-store sink whose output is byte-identical
//! to the batch bulkloader for the same `K` and sibling budget (the
//! equivalence tests diff whole page files), and a shard-append sink
//! that adds one document to an already-open store through the normal
//! update path (used by the collection loader).
//!
//! The loader maintains an honest resident-bytes counter (slab payload
//! plus driver state) whose peak is reported in [`LoadStats`]; the
//! bounded-memory tests and the repo benchmark's
//! `store.bulkload.slab_peak_bytes` row read it.

use std::collections::HashMap;
use std::fmt;
use std::mem::size_of;

use natix_core::{PendingChild, SekmDriver};
use natix_tree::Weight;
use natix_xml::{node_weight, parse_sax, NodeKind, ParseOptions, SaxError, SaxHandler, XmlError};

use crate::catalog::{Catalog, RecordLoc};
use crate::page::SlottedPage;
use crate::pager::{BufferPool, Pager, StoreError, StoreResult};
use crate::record::{ChildEntry, ImageNode, RecordImage, NONE_U16, NONE_U32};
use crate::store::{self, RecordPlacer, StoreConfig, XmlStore};

/// Failure of a streaming load: malformed XML or a store-side error.
#[derive(Debug)]
pub enum BulkloadError {
    /// The input is not well-formed XML.
    Xml(XmlError),
    /// The store rejected an update (I/O, corruption, limits).
    Store(StoreError),
    /// A parallel loader thread failed (collection bulkload).
    Thread(String),
}

impl fmt::Display for BulkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BulkloadError::Xml(e) => write!(f, "xml: {e}"),
            BulkloadError::Store(e) => write!(f, "store: {e}"),
            BulkloadError::Thread(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for BulkloadError {}

impl From<StoreError> for BulkloadError {
    fn from(e: StoreError) -> Self {
        BulkloadError::Store(e)
    }
}

impl From<SaxError<StoreError>> for BulkloadError {
    fn from(e: SaxError<StoreError>) -> Self {
        match e {
            SaxError::Xml(x) => BulkloadError::Xml(x),
            SaxError::Handler(s) => BulkloadError::Store(s),
        }
    }
}

/// What one streaming load did.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadStats {
    /// Records emitted (= partitions of the document).
    pub records: u32,
    /// Document nodes seen.
    pub nodes: u64,
    /// Peak loader-resident bytes: node slab + driver state. Excludes
    /// the buffer pool, which is bounded separately by its page budget.
    pub peak_resident_bytes: usize,
}

/// Where emitted records go.
///
/// `next_record_no` / `emit` are called strictly in emission order
/// (child runs before their parent's record, the document root last);
/// `patch_backlink` only ever targets an already-emitted record.
pub(crate) trait RecordSink {
    fn next_record_no(&mut self) -> u32;
    fn intern(&mut self, name: &str) -> StoreResult<u16>;
    fn emit(&mut self, no: u32, img: &RecordImage) -> StoreResult<()>;
    fn patch_backlink(&mut self, no: u32, parent: (u32, u16, u16)) -> StoreResult<()>;
}

/// A buffered, not-yet-emitted document node.
struct BufNode {
    kind: NodeKind,
    name: Box<str>,
    content: Option<Box<str>>,
    /// Slab id of the parent node, [`NONE_U32`] for the document root.
    parent: u32,
    /// Scratch local index during record emission.
    local: u16,
    entries: Vec<BufEntry>,
}

/// One child position of a buffered node: either a still-buffered child
/// node, or a run of children already cut into record `no`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BufEntry {
    Node(u32),
    Cut(u32),
}

const ENTRY_COST: usize = size_of::<BufEntry>();
const NODE_COST: usize = size_of::<BufNode>();

/// Free-list slab of buffered nodes with incremental byte accounting.
struct Slab {
    nodes: Vec<Option<BufNode>>,
    free: Vec<u32>,
    /// Current resident bytes: per-node struct + string payloads +
    /// child-entry lists.
    bytes: usize,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            nodes: Vec::new(),
            free: Vec::new(),
            bytes: 0,
        }
    }

    fn alloc(&mut self, node: BufNode) -> u32 {
        self.bytes += NODE_COST
            + node.name.len()
            + node.content.as_deref().map_or(0, str::len)
            + node.entries.len() * ENTRY_COST;
        match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = Some(node);
                id
            }
            None => {
                let id = self.nodes.len() as u32;
                self.nodes.push(Some(node));
                id
            }
        }
    }

    fn node(&self, id: u32) -> &BufNode {
        self.nodes[id as usize].as_ref().expect("live slab node")
    }

    fn node_mut(&mut self, id: u32) -> &mut BufNode {
        self.nodes[id as usize].as_mut().expect("live slab node")
    }

    fn push_entry(&mut self, id: u32, e: BufEntry) {
        self.node_mut(id).entries.push(e);
        self.bytes += ENTRY_COST;
    }

    /// Take a node's name and content (for building its [`ImageNode`]),
    /// dropping their bytes from the resident count.
    fn take_payload(&mut self, id: u32) -> (NodeKind, Box<str>, Option<Box<str>>) {
        let n = self.nodes[id as usize].as_mut().expect("live slab node");
        let name = std::mem::take(&mut n.name);
        let content = n.content.take();
        self.bytes -= name.len() + content.as_deref().map_or(0, str::len);
        (n.kind, name, content)
    }

    /// Take a node's child-entry list, dropping its bytes.
    fn take_entries(&mut self, id: u32) -> Vec<BufEntry> {
        let n = self.nodes[id as usize].as_mut().expect("live slab node");
        let entries = std::mem::take(&mut n.entries);
        self.bytes -= entries.len() * ENTRY_COST;
        entries
    }

    fn release(&mut self, id: u32) {
        let n = self.nodes[id as usize].take().expect("live slab node");
        self.bytes -= NODE_COST
            + n.name.len()
            + n.content.as_deref().map_or(0, str::len)
            + n.entries.len() * ENTRY_COST;
        self.free.push(id);
    }

    /// Replace the entry range `[start, start + len)` of `id` with the
    /// single entry `e` (a cut run collapsing into its record proxy).
    fn replace_run(&mut self, id: u32, start: usize, len: usize, e: BufEntry) {
        let n = self.nodes[id as usize].as_mut().expect("live slab node");
        n.entries.splice(start..start + len, std::iter::once(e));
        self.bytes -= (len - 1) * ENTRY_COST;
    }

    fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }
}

/// SAX handler that partitions and emits records on the fly.
pub(crate) struct StreamLoader<'a, S: RecordSink> {
    driver: SekmDriver<u32>,
    inner: LoaderInner<'a, S>,
}

struct LoaderInner<'a, S: RecordSink> {
    sink: &'a mut S,
    k: Weight,
    slab: Slab,
    /// Slab id of the innermost open element ([`NONE_U32`] at top level).
    cur: u32,
    /// Back-link for the document-root record: known up front in shard
    /// mode (the proxy in the segment record), all-NONE for a fresh
    /// standalone store.
    root_parent: (u32, u16, u16),
    /// Record number of the emitted root record, once emitted.
    root_record: u32,
    stats: LoadStats,
    /// First sink/limit error; later driver callbacks become no-ops.
    error: Option<StoreError>,
}

impl<'a, S: RecordSink> StreamLoader<'a, S> {
    pub(crate) fn new(
        sink: &'a mut S,
        k: Weight,
        sibling_budget: usize,
        root_parent: (u32, u16, u16),
    ) -> StreamLoader<'a, S> {
        StreamLoader {
            driver: SekmDriver::new(sibling_budget),
            inner: LoaderInner {
                sink,
                k,
                slab: Slab::new(),
                cur: NONE_U32,
                root_parent,
                root_record: NONE_U32,
                stats: LoadStats::default(),
                error: None,
            },
        }
    }

    /// Open-and-close a childless node (attribute/text/comment/PI).
    fn leaf(&mut self, kind: NodeKind, name: &str, content: &str) -> Result<(), StoreError> {
        let w = node_weight(kind, content.len());
        if w > self.inner.k {
            return Err(StoreError::InvalidUpdate(
                "node heavier than the record weight limit K",
            ));
        }
        let id = self.inner.open_node(kind, name, Some(content));
        self.driver.open(id, w);
        let inner = &mut self.inner;
        self.driver.close(inner.k, &mut |f, l| inner.emit_run(f, l));
        self.inner.note_peak(&self.driver);
        self.inner.take_error()
    }

    /// Finish after a successful parse: the root record must have been
    /// emitted and every buffered node freed.
    pub(crate) fn finish(self) -> StoreResult<(u32, LoadStats)> {
        if let Some(e) = self.inner.error {
            return Err(e);
        }
        if self.inner.root_record == NONE_U32 {
            return Err(StoreError::InvalidUpdate(
                "streaming load ended before the document root closed",
            ));
        }
        debug_assert_eq!(self.inner.slab.live_nodes(), 0);
        Ok((self.inner.root_record, self.inner.stats))
    }
}

impl<S: RecordSink> SaxHandler for StreamLoader<'_, S> {
    type Error = StoreError;

    fn start_element(&mut self, name: &str) -> Result<(), StoreError> {
        let id = self.inner.open_node(NodeKind::Element, name, None);
        self.inner.cur = id;
        self.driver.open(id, node_weight(NodeKind::Element, 0));
        self.inner.note_peak(&self.driver);
        Ok(())
    }

    fn attribute(&mut self, name: &str, value: &str) -> Result<(), StoreError> {
        self.leaf(NodeKind::Attribute, name, value)
    }

    fn text(&mut self, data: &str) -> Result<(), StoreError> {
        self.leaf(NodeKind::Text, "#text", data)
    }

    fn comment(&mut self, data: &str) -> Result<(), StoreError> {
        self.leaf(NodeKind::Comment, "#comment", data)
    }

    fn processing_instruction(&mut self, target: &str, data: &str) -> Result<(), StoreError> {
        self.leaf(NodeKind::ProcessingInstruction, target, data)
    }

    fn end_element(&mut self) -> Result<(), StoreError> {
        let inner = &mut self.inner;
        inner.cur = inner.slab.node(inner.cur).parent;
        self.driver.close(inner.k, &mut |f, l| inner.emit_run(f, l));
        self.inner.note_peak(&self.driver);
        self.inner.take_error()
    }
}

impl<S: RecordSink> LoaderInner<'_, S> {
    fn open_node(&mut self, kind: NodeKind, name: &str, content: Option<&str>) -> u32 {
        self.stats.nodes += 1;
        let parent = self.cur;
        let id = self.slab.alloc(BufNode {
            kind,
            name: name.into(),
            content: content.map(Into::into),
            parent,
            local: NONE_U16,
            entries: Vec::new(),
        });
        if parent != NONE_U32 {
            self.slab.push_entry(parent, BufEntry::Node(id));
        }
        id
    }

    fn resident(&self, driver: &SekmDriver<u32>) -> usize {
        self.slab.bytes
            + (driver.depth() + driver.buffered_entries()) * size_of::<PendingChild<u32>>()
    }

    fn note_peak(&mut self, driver: &SekmDriver<u32>) {
        let r = self.resident(driver);
        if r > self.stats.peak_resident_bytes {
            self.stats.peak_resident_bytes = r;
        }
    }

    fn take_error(&mut self) -> Result<(), StoreError> {
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Driver cut callback: the sibling run `f..=l` becomes one record.
    fn emit_run(&mut self, f: u32, l: u32) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.try_emit_run(f, l) {
            self.error = Some(e);
        }
    }

    fn try_emit_run(&mut self, f: u32, l: u32) -> StoreResult<()> {
        let parent = self.slab.node(f).parent;
        let no = self.sink.next_record_no();

        // The run's member nodes: the siblings f..=l in document order.
        // They are consecutive entries of the parent (flush cuts only
        // ever consume a prefix of the pending runs, so a later run
        // never straddles an earlier cut).
        let mut members: Vec<u32> = Vec::new();
        let mut run_start = 0;
        if parent == NONE_U32 {
            debug_assert_eq!(f, l, "root run is the root alone");
            members.push(f);
        } else {
            let entries = &self.slab.node(parent).entries;
            let pf = entries
                .iter()
                .position(|&e| e == BufEntry::Node(f))
                .ok_or(StoreError::InvalidUpdate("cut run start not in parent"))?;
            for &e in &entries[pf..] {
                match e {
                    BufEntry::Node(id) => {
                        members.push(id);
                        if id == l {
                            break;
                        }
                    }
                    BufEntry::Cut(_) => {
                        return Err(StoreError::InvalidUpdate("cut run straddles a prior cut"));
                    }
                }
            }
            run_start = pf;
        }

        // Local preorder numbering: DFS from each member, descending
        // only into still-attached children. Mirrors the batch loader.
        let mut list: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        for &root in &members {
            stack.push(root);
            while let Some(v) = stack.pop() {
                let local = u16::try_from(list.len()).map_err(|_| {
                    StoreError::InvalidUpdate("fragment larger than u16::MAX nodes")
                })?;
                self.slab.node_mut(v).local = local;
                list.push(v);
                for e in self.slab.node(v).entries.iter().rev() {
                    if let BufEntry::Node(c) = *e {
                        stack.push(c);
                    }
                }
            }
        }

        // Image nodes in local order, interning labels in visit order —
        // the same interning sequence as the batch loader, so label ids
        // (and hence record bytes) match.
        let mut nodes: Vec<ImageNode> = Vec::with_capacity(list.len());
        for &v in &list {
            let (kind, name, content) = self.slab.take_payload(v);
            let label = self.sink.intern(&name)?;
            nodes.push(ImageNode {
                kind,
                label,
                parent_local: NONE_U16,
                entry_pos: NONE_U16,
                content,
                entries: Vec::new(),
            });
        }

        // Entry lists: locals keep their child lists; cut runs become
        // proxies, and the referenced child records get their back-link
        // patched to point here.
        let mut patches: Vec<(u32, u16, u16)> = Vec::new();
        for (li, &v) in list.iter().enumerate() {
            let raw = self.slab.take_entries(v);
            if raw.is_empty() {
                continue;
            }
            let mut entries = Vec::with_capacity(raw.len());
            for &e in &raw {
                match e {
                    BufEntry::Node(c) => {
                        let cl = self.slab.node(c).local;
                        nodes[cl as usize].parent_local = li as u16;
                        nodes[cl as usize].entry_pos = entries.len() as u16;
                        entries.push(ChildEntry::Local(cl));
                    }
                    BufEntry::Cut(rec) => {
                        patches.push((rec, li as u16, entries.len() as u16));
                        entries.push(ChildEntry::Proxy(rec));
                    }
                }
            }
            nodes[li].entries = entries;
        }

        let roots: Vec<u16> = members.iter().map(|&m| self.slab.node(m).local).collect();
        let (pr, pl, pp) = if parent == NONE_U32 {
            self.root_parent
        } else {
            // Patched when the parent's own record is emitted.
            (NONE_U32, NONE_U16, NONE_U16)
        };
        let img = RecordImage {
            parent_record: pr,
            parent_local: pl,
            proxy_pos: pp,
            roots,
            nodes,
        };
        self.sink.emit(no, &img)?;
        for (child, cl, cp) in patches {
            self.sink.patch_backlink(child, (no, cl, cp))?;
        }

        for &v in &list {
            self.slab.release(v);
        }
        if parent == NONE_U32 {
            self.root_record = no;
        } else {
            self.slab
                .replace_run(parent, run_start, members.len(), BufEntry::Cut(no));
        }
        self.stats.records += 1;
        Ok(())
    }
}

/// Overwrite the 8-byte parent back-link of an already-placed record.
/// The slot id is stable and [`SlottedPage::get_mut`] resolves the
/// payload's current offset, so this is a pure byte patch (a load never
/// deletes, so its pages are never compacted either).
fn patch_backlink_in_pool(
    pool: &mut BufferPool,
    loc: RecordLoc,
    (pr, pl, pp): (u32, u16, u16),
) -> StoreResult<()> {
    let mut field = [0u8; 8];
    field[..4].copy_from_slice(&pr.to_le_bytes());
    field[4..6].copy_from_slice(&pl.to_le_bytes());
    field[6..8].copy_from_slice(&pp.to_le_bytes());
    match loc {
        RecordLoc::InPage { page, slot } => {
            let ok = pool.with_page(page, true, |buf| {
                match SlottedPage::new(buf).get_mut(slot) {
                    // Record header: magic(4) self_no(4) epoch(8) parent(8).
                    Some(payload) => {
                        payload[16..24].copy_from_slice(&field);
                        true
                    }
                    None => false,
                }
            })?;
            if !ok {
                return Err(StoreError::InvalidUpdate("back-link patch missed its slot"));
            }
            Ok(())
        }
        RecordLoc::Overflow { first_page, .. } => pool.with_page(first_page, true, |buf| {
            // Chain head: magic(4) len(4), record bytes from offset 8.
            buf[24..32].copy_from_slice(&field);
        }),
        RecordLoc::Free => Err(StoreError::InvalidUpdate(
            "back-link patch on a free record",
        )),
    }
}

/// Sink building a fresh standalone store, byte-identical to
/// [`XmlStore::bulkload`] over the same record sequence.
struct FreshSink {
    pool: BufferPool,
    directory: Vec<RecordLoc>,
    labels: Vec<Box<str>>,
    label_ids: HashMap<Box<str>, u16>,
    placer: RecordPlacer,
}

impl FreshSink {
    fn new(backend: Box<dyn Pager>, config: &StoreConfig) -> StoreResult<FreshSink> {
        Ok(FreshSink {
            pool: store::begin_fresh(backend, config)?,
            directory: Vec::new(),
            labels: Vec::new(),
            label_ids: HashMap::new(),
            placer: RecordPlacer::new(),
        })
    }

    fn finish(self, root_record: u32, config: &StoreConfig) -> StoreResult<XmlStore> {
        store::finish_fresh(
            self.pool,
            Catalog {
                epoch: 1,
                root_record,
                record_limit: config.record_limit_slots,
                directory: self.directory,
                labels: self.labels,
                quarantined: Vec::new(),
            },
        )
    }
}

impl RecordSink for FreshSink {
    fn next_record_no(&mut self) -> u32 {
        self.directory.len() as u32
    }

    fn intern(&mut self, name: &str) -> StoreResult<u16> {
        store::intern_label(&mut self.labels, &mut self.label_ids, name)
    }

    fn emit(&mut self, no: u32, img: &RecordImage) -> StoreResult<()> {
        debug_assert_eq!(no as usize, self.directory.len());
        let bytes = crate::record::encode(img, no, 1);
        let loc = self.placer.place(&mut self.pool, &bytes)?;
        self.directory.push(loc);
        Ok(())
    }

    fn patch_backlink(&mut self, no: u32, parent: (u32, u16, u16)) -> StoreResult<()> {
        patch_backlink_in_pool(&mut self.pool, self.directory[no as usize], parent)
    }
}

/// Sink appending one document's records to a live store through the
/// normal update path (placement near the store's open page, epoch of
/// the in-flight commit). Used by the collection shard loader.
struct ShardSink<'s> {
    store: &'s mut XmlStore,
}

impl RecordSink for ShardSink<'_> {
    fn next_record_no(&mut self) -> u32 {
        self.store.reserve_record()
    }

    fn intern(&mut self, name: &str) -> StoreResult<u16> {
        self.store.intern_label(name)
    }

    fn emit(&mut self, no: u32, img: &RecordImage) -> StoreResult<()> {
        self.store.write_record(no, img)
    }

    fn patch_backlink(&mut self, no: u32, parent: (u32, u16, u16)) -> StoreResult<()> {
        let loc = self.store.directory[no as usize];
        patch_backlink_in_pool(&mut self.store.pool, loc, parent)?;
        self.store.invalidate(no);
        Ok(())
    }
}

/// Stream-load one XML document into a fresh store over `backend`.
///
/// The weight limit is `config.record_limit_slots`; `sibling_budget`
/// bounds the driver's pending summaries per open element (0 =
/// unbounded, exactly EKM). The resulting store is byte-identical to
/// `XmlStore::bulkload(parse(xml), StreamingEkm{sibling_budget}, ...)`
/// — without ever materializing the document.
pub fn stream_bulkload(
    xml: &str,
    sibling_budget: usize,
    backend: Box<dyn Pager>,
    config: StoreConfig,
) -> Result<(XmlStore, LoadStats), BulkloadError> {
    let k = config.record_limit_slots;
    if k == 0 {
        return Err(StoreError::InvalidUpdate("weight limit K must be positive").into());
    }
    let mut sink = FreshSink::new(backend, &config)?;
    let mut loader =
        StreamLoader::new(&mut sink, k, sibling_budget, (NONE_U32, NONE_U16, NONE_U16));
    parse_sax(xml, ParseOptions::default(), &mut loader)?;
    let (root_record, stats) = loader.finish()?;
    let store = sink.finish(root_record, &config)?;
    Ok((store, stats))
}

/// Stream-append one document to an open store, hanging its root record
/// off `root_parent` (`(record, local, entry_pos)` of a proxy slot the
/// caller owns, typically in a collection segment record).
///
/// Returns the document's root record number. Nothing is committed; the
/// caller batches documents and calls [`XmlStore::commit`]. On error the
/// store holds half-written uncommitted records — roll back or drop it.
pub fn stream_append_document(
    store: &mut XmlStore,
    xml: &str,
    sibling_budget: usize,
    root_parent: (u32, u16, u16),
) -> Result<(u32, LoadStats), BulkloadError> {
    let k = store.record_limit;
    let mut sink = ShardSink { store };
    let mut loader = StreamLoader::new(&mut sink, k, sibling_budget, root_parent);
    parse_sax(xml, ParseOptions::default(), &mut loader)?;
    let (root_record, stats) = loader.finish()?;
    Ok((root_record, stats))
}

// The equivalence proptests live in `tests/bulkload.rs`; unit tests
// here cover the slab bookkeeping and error paths that are awkward to
// reach from outside.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn load(xml: &str, k: Weight, budget: usize) -> (XmlStore, LoadStats) {
        let config = StoreConfig {
            record_limit_slots: k,
            ..StoreConfig::default()
        };
        stream_bulkload(xml, budget, Box::new(MemPager::new()), config).expect("load")
    }

    #[test]
    fn tiny_document_round_trips() {
        let xml = "<a x='1'><b>hi</b><!--note--><?pi go?><c/></a>";
        let (mut store, stats) = load(xml, 4, 0);
        assert!(stats.records >= 1);
        assert!(stats.peak_resident_bytes > 0);
        store.check_consistency().expect("consistent");
        let doc = store.to_document().expect("to_document");
        assert_eq!(doc.to_xml(), natix_xml::parse(xml).unwrap().to_xml());
        assert!(
            doc.to_xml().contains("<!--note--><?pi go?>"),
            "{}",
            doc.to_xml()
        );
    }

    #[test]
    fn slab_frees_everything() {
        // A deep+wide document: after the load, the loader asserts the
        // slab is empty (debug_assert in finish); peak stays well under
        // the document size for a small K.
        let mut xml = String::from("<r>");
        for i in 0..200 {
            xml.push_str(&format!("<s><t>leaf {i}</t></s>"));
        }
        xml.push_str("</r>");
        let (mut store, stats) = load(&xml, 8, 4);
        store.check_consistency().expect("consistent");
        assert_eq!(stats.nodes, 1 + 200 * 3);
        // 601 nodes buffered at once would cost > 600 * NODE_COST.
        assert!(
            stats.peak_resident_bytes < 300 * NODE_COST,
            "peak {} not bounded",
            stats.peak_resident_bytes
        );
    }

    #[test]
    fn oversized_node_is_rejected() {
        let config = StoreConfig {
            record_limit_slots: 2,
            ..StoreConfig::default()
        };
        let err = match stream_bulkload(
            "<a>this text is far too heavy for K = 2</a>",
            0,
            Box::new(MemPager::new()),
            config,
        ) {
            Ok(_) => panic!("expected error"),
            Err(e) => e,
        };
        assert!(matches!(err, BulkloadError::Store(_)), "got {err}");
    }

    #[test]
    fn malformed_xml_is_rejected() {
        let err = load_err("<a><b></a>");
        assert!(matches!(err, BulkloadError::Xml(_)), "got {err}");
    }

    fn load_err(xml: &str) -> BulkloadError {
        match stream_bulkload(xml, 0, Box::new(MemPager::new()), StoreConfig::default()) {
            Ok(_) => panic!("expected error"),
            Err(e) => e,
        }
    }
}
