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
//! A [`StreamLoader`] outlives the document: a collection shard keeps
//! one for all its documents. Its node slab, partitioner frames, name
//! table and emission scratch are reused, so the tokenizer's borrowed
//! text goes into buffers that are already there, and a loaded document
//! costs a handful of allocations, not several per node. What the loader
//! holds, spare capacity included, is reported in [`LoadStats`]; the
//! bounded-memory tests and the repo benchmark's
//! `store.bulkload.slab_peak_bytes` row read it.

use std::collections::HashMap;
use std::fmt;
use std::mem::size_of;

use natix_core::SekmDriver;
use natix_tree::Weight;
use natix_xml::{node_weight, parse_sax, NodeKind, ParseOptions, SaxError, SaxHandler, XmlError};

use crate::catalog::{Catalog, RecordLoc};
use crate::page::SlottedPage;
use crate::pager::{BufferPool, Pager, StoreError, StoreResult};
use crate::record::{ChildEntry, RecordWriter, NONE_U16, NONE_U32};
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
    /// Bytes the loader holds once the document is in: node slab,
    /// partitioner frames, name table and emission scratch, spare
    /// capacity included. A loader keeps every buffer it grows, so this
    /// is also its peak while loading the document. Excludes the buffer
    /// pool, which is bounded separately by its page budget.
    pub peak_resident_bytes: usize,
}

/// Where emitted records go.
///
/// `next_record_no` / `emit` are called strictly in emission order
/// (child runs before their parent's record, the document root last);
/// `patch_backlink` only ever targets an already-emitted record.
pub(crate) trait RecordSink {
    fn next_record_no(&mut self) -> u32;
    /// The label table [`RecordSink::intern`] appends to.
    fn labels(&self) -> &[Box<str>];
    fn intern(&mut self, name: &str) -> StoreResult<u16>;
    /// Epoch the records are stamped with.
    fn epoch(&self) -> u64;
    /// Place record `no`, encoded.
    fn emit(&mut self, no: u32, bytes: &[u8]) -> StoreResult<()>;
    fn patch_backlink(&mut self, no: u32, parent: (u32, u16, u16)) -> StoreResult<()>;
}

/// A buffered, not-yet-emitted document node, or the proxy of a run of
/// its parent's children already cut into a record. A node's children
/// are linked through their slots, so a slot is the same few bytes
/// whatever node it holds.
#[derive(Clone, Copy)]
struct BufNode {
    kind: NodeKind,
    /// Index into the loader's [`Names`].
    name: u32,
    /// Record the cut run this proxy stands for; [`NONE_U32`] for a node.
    cut: u32,
    /// The node's content: `content_len` bytes at `content_at` in the
    /// slab's text, no content when `content_len` is [`NONE_U32`].
    content_at: u32,
    content_len: u32,
    /// Slab id of the parent node, [`NONE_U32`] for the document root.
    parent: u32,
    /// First and last child, next sibling ([`NONE_U32`] for none), and
    /// the number of children (entries of the node's record).
    first: u32,
    last: u32,
    next: u32,
    children: u32,
    /// Emission scratch: local index, the parent's local index and the
    /// position among its entries ([`NONE_U16`] for a run member).
    local: u16,
    parent_local: u16,
    entry_pos: u16,
}

impl BufNode {
    fn new(kind: NodeKind, name: u32, parent: u32) -> BufNode {
        BufNode {
            kind,
            name,
            cut: NONE_U32,
            content_at: 0,
            content_len: NONE_U32,
            parent,
            first: NONE_U32,
            last: NONE_U32,
            next: NONE_U32,
            children: 0,
            local: NONE_U16,
            parent_local: NONE_U16,
            entry_pos: NONE_U16,
        }
    }
}

/// Free-list slab of buffered nodes, and their content in one buffer.
#[derive(Default)]
struct Slab {
    nodes: Vec<BufNode>,
    free: Vec<u32>,
    /// Content of buffered nodes, in arrival order: cleared when the
    /// slab empties, compacted in place of growing while less than half
    /// of it is live.
    text: String,
    live_text: usize,
}

impl Slab {
    /// Buffer a node (or a cut run's proxy) as the last child of
    /// `parent`.
    fn alloc(&mut self, mut node: BufNode, content: Option<&str>) -> u32 {
        if let Some(c) = content {
            self.make_room(c.len());
            node.content_at = self.text.len() as u32;
            node.content_len = c.len() as u32;
            self.text.push_str(c);
            self.live_text += c.len();
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        if node.parent != NONE_U32 {
            let parent = &mut self.nodes[node.parent as usize];
            let last = std::mem::replace(&mut parent.last, id);
            parent.children += 1;
            match last {
                NONE_U32 => parent.first = id,
                last => self.nodes[last as usize].next = id,
            }
        }
        id
    }

    /// Compact `text` to the live content if it would otherwise have to
    /// grow for `more` bytes while less than half of it is live.
    fn make_room(&mut self, more: usize) {
        if self.text.len() + more <= self.text.capacity() || 2 * self.live_text >= self.text.len() {
            return;
        }
        // As large as before: what a loader holds never shrinks.
        let mut text = String::with_capacity(self.text.capacity());
        for n in self.nodes.iter_mut().filter(|n| n.content_len != NONE_U32) {
            let at = n.content_at as usize;
            let len = n.content_len as usize;
            n.content_at = text.len() as u32;
            text.push_str(&self.text[at..at + len]);
        }
        self.text = text;
    }

    fn node(&self, id: u32) -> &BufNode {
        &self.nodes[id as usize]
    }

    fn node_mut(&mut self, id: u32) -> &mut BufNode {
        &mut self.nodes[id as usize]
    }

    fn content(&self, n: &BufNode) -> Option<&str> {
        let at = n.content_at as usize;
        (n.content_len != NONE_U32).then(|| &self.text[at..at + n.content_len as usize])
    }

    fn release(&mut self, id: u32) {
        let n = &mut self.nodes[id as usize];
        if n.content_len != NONE_U32 {
            self.live_text -= n.content_len as usize;
            n.content_len = NONE_U32;
        }
        self.free.push(id);
        if self.free.len() == self.nodes.len() {
            self.text.clear();
        }
    }

    /// Free every node (a load that failed mid-document).
    fn release_all(&mut self) {
        self.nodes.iter_mut().for_each(|n| n.content_len = NONE_U32);
        self.free.clear();
        self.free.extend((0..self.nodes.len() as u32).rev());
        self.text.clear();
        self.live_text = 0;
    }

    fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn held_bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<BufNode>()
            + self.free.capacity() * size_of::<u32>()
            + self.text.capacity()
    }
}

/// Node names a loader has seen, by index. A buffered node holds its
/// name's index; the store label is looked up when the node's record is
/// written, in the order the batch loader interns, so label ids (and
/// record bytes) come out the same.
struct Names {
    index: HashMap<Box<str>, u32>,
    /// By index: the name, and the label it was last interned as
    /// ([`NONE_U16`] before its first record).
    names: Vec<(Box<str>, u16)>,
    name_bytes: usize,
}

/// Names of text and comment nodes, preset at these indices.
const TEXT: u32 = 0;
const COMMENT: u32 = 1;

impl Names {
    fn new() -> Names {
        let mut names = Names {
            index: HashMap::default(),
            names: Vec::new(),
            name_bytes: 0,
        };
        let preset = (names.index("#text"), names.index("#comment"));
        debug_assert_eq!(preset, (TEXT, COMMENT));
        names
    }

    fn index(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push((name.into(), NONE_U16));
        self.index.insert(name.into(), i);
        self.name_bytes += 2 * name.len();
        i
    }

    /// Label of name `i` in `sink`'s table: the one it was interned as
    /// while the table still holds the name there, else interned now.
    fn label<S: RecordSink>(&mut self, i: u32, sink: &mut S) -> StoreResult<u16> {
        let (name, label) = &mut self.names[i as usize];
        if sink.labels().get(*label as usize) != Some(name) {
            *label = sink.intern(name)?;
        }
        Ok(*label)
    }

    fn held_bytes(&self) -> usize {
        self.index.capacity() * (size_of::<(Box<str>, u32)>() + 1)
            + self.names.capacity() * size_of::<(Box<str>, u16)>()
            + self.name_bytes
    }
}

/// Buffers one record's emission reuses.
#[derive(Default)]
struct Scratch {
    /// The run's member nodes, then every node of the record in local
    /// order, and the walk between them.
    members: Vec<u32>,
    list: Vec<u32>,
    stack: Vec<u32>,
    /// Child records to point back at this one: `(record, local, pos)`.
    patches: Vec<(u32, u16, u16)>,
    /// The encoded record.
    bytes: Vec<u8>,
}

impl Scratch {
    fn held_bytes(&self) -> usize {
        (self.members.capacity() + self.list.capacity() + self.stack.capacity()) * size_of::<u32>()
            + self.patches.capacity() * size_of::<(u32, u16, u16)>()
            + self.bytes.capacity()
    }
}

/// Node slab, names and scratch: everything but the partitioner.
struct NodeBuffer {
    slab: Slab,
    names: Names,
    scratch: Scratch,
}

/// The streaming loader: SAX events in, records out, one document per
/// call. It keeps its node slab, partitioner frames, name table and
/// emission scratch from one document to the next, so once it has seen
/// the largest document of a stream it loads the rest without growing
/// them: the per-node work is a few array operations.
pub struct StreamLoader {
    driver: SekmDriver<u32>,
    buf: NodeBuffer,
}

impl StreamLoader {
    /// A loader whose partitioner keeps at most `sibling_budget` pending
    /// summaries per open element (0 = unbounded, exactly EKM).
    pub fn new(sibling_budget: usize) -> StreamLoader {
        StreamLoader {
            driver: SekmDriver::new(sibling_budget),
            buf: NodeBuffer {
                slab: Slab::default(),
                names: Names::new(),
                scratch: Scratch::default(),
            },
        }
    }

    /// Stream-append one document to an open store, hanging its root
    /// record off `root_parent` (`(record, local, entry_pos)` of a proxy
    /// slot the caller owns, typically in a collection segment record).
    ///
    /// Returns the document's root record number. Nothing is committed;
    /// the caller batches documents and calls [`XmlStore::commit`]. On
    /// error the store holds half-written uncommitted records — roll back
    /// or drop it. The loader stays usable either way.
    pub fn append_document(
        &mut self,
        store: &mut XmlStore,
        xml: &str,
        root_parent: (u32, u16, u16),
    ) -> Result<(u32, LoadStats), BulkloadError> {
        let k = store.record_limit;
        self.load(&mut ShardSink { store }, k, xml, root_parent)
    }

    /// Bytes the loader holds (see [`LoadStats::peak_resident_bytes`]).
    pub(crate) fn held_bytes(&self) -> usize {
        self.driver.held_bytes()
            + self.buf.slab.held_bytes()
            + self.buf.names.held_bytes()
            + self.buf.scratch.held_bytes()
    }

    fn load<S: RecordSink>(
        &mut self,
        sink: &mut S,
        k: Weight,
        xml: &str,
        root_parent: (u32, u16, u16),
    ) -> Result<(u32, LoadStats), BulkloadError> {
        let mut load = DocumentLoad {
            driver: &mut self.driver,
            doc: Doc {
                buf: &mut self.buf,
                sink,
                k,
                cur: NONE_U32,
                root_parent,
                root_record: NONE_U32,
                stats: LoadStats::default(),
                error: None,
            },
        };
        let parsed = parse_sax(xml, ParseOptions::default(), &mut load);
        let done = parsed
            .map_err(BulkloadError::from)
            .and_then(|()| load.doc.finish().map_err(BulkloadError::from));
        match done {
            Ok((root, mut stats)) => {
                debug_assert_eq!(self.buf.slab.live_nodes(), 0);
                stats.peak_resident_bytes = self.held_bytes();
                Ok((root, stats))
            }
            Err(e) => {
                self.driver.reset();
                self.buf.slab.release_all();
                Err(e)
            }
        }
    }
}

/// One document's load: the SAX handler partitioning and emitting
/// records on the fly.
struct DocumentLoad<'l, S: RecordSink> {
    driver: &'l mut SekmDriver<u32>,
    doc: Doc<'l, S>,
}

/// A document load's state beside the partitioner, which calls back into
/// it with every run it cuts.
struct Doc<'l, S: RecordSink> {
    buf: &'l mut NodeBuffer,
    sink: &'l mut S,
    k: Weight,
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

impl<S: RecordSink> DocumentLoad<'_, S> {
    /// Open-and-close a childless node (attribute/text/comment/PI).
    fn leaf(&mut self, kind: NodeKind, name: u32, content: &str) -> Result<(), StoreError> {
        let w = node_weight(kind, content.len());
        if w > self.doc.k {
            return Err(StoreError::InvalidUpdate(
                "node heavier than the record weight limit K",
            ));
        }
        let id = self.doc.open_node(kind, name, Some(content));
        self.driver.open(id, w);
        self.close()
    }

    fn close(&mut self) -> Result<(), StoreError> {
        let doc = &mut self.doc;
        self.driver.close(doc.k, &mut |f, l| doc.emit_run(f, l));
        match doc.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl<S: RecordSink> SaxHandler for DocumentLoad<'_, S> {
    type Error = StoreError;

    fn start_element(&mut self, name: &str) -> Result<(), StoreError> {
        let name = self.doc.buf.names.index(name);
        let id = self.doc.open_node(NodeKind::Element, name, None);
        self.doc.cur = id;
        self.driver.open(id, node_weight(NodeKind::Element, 0));
        Ok(())
    }

    fn attribute(&mut self, name: &str, value: &str) -> Result<(), StoreError> {
        let name = self.doc.buf.names.index(name);
        self.leaf(NodeKind::Attribute, name, value)
    }

    fn text(&mut self, data: &str) -> Result<(), StoreError> {
        self.leaf(NodeKind::Text, TEXT, data)
    }

    fn comment(&mut self, data: &str) -> Result<(), StoreError> {
        self.leaf(NodeKind::Comment, COMMENT, data)
    }

    fn processing_instruction(&mut self, target: &str, data: &str) -> Result<(), StoreError> {
        let name = self.doc.buf.names.index(target);
        self.leaf(NodeKind::ProcessingInstruction, name, data)
    }

    fn end_element(&mut self) -> Result<(), StoreError> {
        self.doc.cur = self.doc.buf.slab.node(self.doc.cur).parent;
        self.close()
    }
}

impl<S: RecordSink> Doc<'_, S> {
    fn open_node(&mut self, kind: NodeKind, name: u32, content: Option<&str>) -> u32 {
        self.stats.nodes += 1;
        let node = BufNode::new(kind, name, self.cur);
        self.buf.slab.alloc(node, content)
    }

    /// After a successful parse: the root record must have been emitted.
    fn finish(&mut self) -> StoreResult<(u32, LoadStats)> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if self.root_record == NONE_U32 {
            return Err(StoreError::InvalidUpdate(
                "streaming load ended before the document root closed",
            ));
        }
        Ok((self.root_record, self.stats))
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
        let NodeBuffer {
            slab,
            names,
            scratch,
        } = &mut *self.buf;
        let Scratch {
            members,
            list,
            stack,
            patches,
            bytes,
        } = scratch;
        let parent = slab.node(f).parent;
        let no = self.sink.next_record_no();

        // The run's member nodes: the siblings f..=l in document order.
        // They are consecutive children of the parent (flush cuts only
        // ever consume a prefix of the pending runs, so a later run
        // never straddles an earlier cut).
        members.clear();
        let mut before = NONE_U32;
        if parent == NONE_U32 {
            debug_assert_eq!(f, l, "root run is the root alone");
            members.push(f);
        } else {
            let mut c = slab.node(parent).first;
            while c != f {
                if c == NONE_U32 {
                    return Err(StoreError::InvalidUpdate("cut run start not in parent"));
                }
                before = c;
                c = slab.node(c).next;
            }
            loop {
                if c == NONE_U32 || slab.node(c).cut != NONE_U32 {
                    return Err(StoreError::InvalidUpdate("cut run straddles a prior cut"));
                }
                members.push(c);
                if c == l {
                    break;
                }
                c = slab.node(c).next;
            }
        }

        // Local preorder numbering: DFS from each member, descending
        // only into still-attached children, skipping proxies. Mirrors
        // the batch loader. A popped node's next sibling waits on the
        // stack below its first child.
        list.clear();
        stack.clear();
        for &root in members.iter() {
            let n = slab.node_mut(root);
            (n.parent_local, n.entry_pos) = (NONE_U16, NONE_U16);
            stack.push(root);
            while let Some(v) = stack.pop() {
                let n = *slab.node(v);
                if v != root && n.next != NONE_U32 {
                    stack.push(n.next);
                }
                if n.cut != NONE_U32 {
                    continue;
                }
                let local = u16::try_from(list.len()).map_err(|_| {
                    StoreError::InvalidUpdate("fragment larger than u16::MAX nodes")
                })?;
                slab.node_mut(v).local = local;
                list.push(v);
                if n.first != NONE_U32 {
                    stack.push(n.first);
                }
            }
        }

        // The record, node by node in local order, interning labels in
        // that order — the batch loader's interning sequence, so label
        // ids (and hence record bytes) match. A node's children learn
        // their parent's local index and entry position as it is
        // written, before their own turn. Cut runs become proxies, and
        // the referenced child records get their back-link patched to
        // point here.
        let back_link = if parent == NONE_U32 {
            self.root_parent
        } else {
            // Patched when the parent's own record is emitted.
            (NONE_U32, NONE_U16, NONE_U16)
        };
        let epoch = self.sink.epoch();
        let mut w = RecordWriter::begin(bytes, no, epoch, back_link, members.len(), list.len());
        for &m in members.iter() {
            w.root(slab.node(m).local);
        }
        patches.clear();
        for &v in list.iter() {
            let n = *slab.node(v);
            let label = names.label(n.name, self.sink)?;
            let content = slab.content(&n);
            let (pl, pos) = (n.parent_local, n.entry_pos);
            w.node(n.kind, label, pl, pos, content, n.children as usize);
            let (mut c, mut pos) = (n.first, 0u16);
            while c != NONE_U32 {
                let child = slab.node_mut(c);
                let next = child.next;
                if child.cut == NONE_U32 {
                    (child.parent_local, child.entry_pos) = (n.local, pos);
                    w.entry(ChildEntry::Local(child.local));
                } else {
                    patches.push((child.cut, n.local, pos));
                    w.entry(ChildEntry::Proxy(child.cut));
                    slab.release(c);
                }
                (c, pos) = (next, pos + 1);
            }
        }
        self.sink.emit(no, bytes)?;
        for &(child, cl, cp) in patches.iter() {
            self.sink.patch_backlink(child, (no, cl, cp))?;
        }

        // The run leaves the slab; in its parent a proxy takes its place.
        let after = slab.node(l).next;
        for &v in list.iter() {
            slab.release(v);
        }
        if parent == NONE_U32 {
            self.root_record = no;
        } else {
            // Linked here, in place of the run, not appended.
            let mut proxy = BufNode::new(NodeKind::Element, 0, NONE_U32);
            (proxy.cut, proxy.next) = (no, after);
            let p = slab.alloc(proxy, None);
            match before {
                NONE_U32 => slab.node_mut(parent).first = p,
                before => slab.node_mut(before).next = p,
            }
            let pn = slab.node_mut(parent);
            if pn.last == l {
                pn.last = p;
            }
            pn.children -= members.len() as u32 - 1;
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

    fn labels(&self) -> &[Box<str>] {
        &self.labels
    }

    fn intern(&mut self, name: &str) -> StoreResult<u16> {
        store::intern_label(&mut self.labels, &mut self.label_ids, name)
    }

    fn epoch(&self) -> u64 {
        1
    }

    fn emit(&mut self, no: u32, bytes: &[u8]) -> StoreResult<()> {
        debug_assert_eq!(no as usize, self.directory.len());
        let loc = self.placer.place(&mut self.pool, bytes)?;
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

    fn labels(&self) -> &[Box<str>] {
        &self.store.labels
    }

    fn intern(&mut self, name: &str) -> StoreResult<u16> {
        self.store.intern_label(name)
    }

    fn epoch(&self) -> u64 {
        self.store.write_epoch()
    }

    fn emit(&mut self, no: u32, bytes: &[u8]) -> StoreResult<()> {
        self.store.place_record(no, bytes)
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
    let (root_record, stats) = StreamLoader::new(sibling_budget).load(
        &mut sink,
        k,
        xml,
        (NONE_U32, NONE_U16, NONE_U16),
    )?;
    let store = sink.finish(root_record, &config)?;
    Ok((store, stats))
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
        // 601 nodes buffered at once would cost > 600 node slots.
        assert!(
            stats.peak_resident_bytes < 300 * size_of::<BufNode>(),
            "peak {} not bounded",
            stats.peak_resident_bytes
        );
    }

    /// The page file of `docs` appended to one shard store, through one
    /// loader kept for all of them or a fresh loader per document.
    fn appended(docs: &[String], keep: bool) -> Vec<u8> {
        let disk = crate::pager::SharedMemPager::new();
        let (mut store, _) = stream_bulkload(
            "<natix-shard/>",
            0,
            Box::new(disk.clone()),
            StoreConfig::default(),
        )
        .expect("shard");
        let mut kept = StreamLoader::new(4);
        for xml in docs {
            let mut fresh = StreamLoader::new(4);
            let loader = if keep { &mut kept } else { &mut fresh };
            let no_parent = (NONE_U32, NONE_U16, NONE_U16);
            loader
                .append_document(&mut store, xml, no_parent)
                .expect("append");
        }
        store.commit().expect("commit");
        drop(store);
        disk.snapshot()
    }

    #[test]
    fn a_kept_loader_writes_what_fresh_loaders_write() {
        let docs: Vec<String> = natix_datagen::small_docs(24, 7).collect();
        assert!(appended(&docs, true) == appended(&docs, false));
    }

    /// A document that fails half-way leaves nodes buffered and elements
    /// open; the loader drops them, and the next document loads as it
    /// would through a fresh loader.
    #[test]
    fn a_failed_document_leaves_the_loader_usable() {
        let config = StoreConfig {
            record_limit_slots: 8,
            ..StoreConfig::default()
        };
        let no_parent = (NONE_U32, NONE_U16, NONE_U16);
        let fresh_store = |loader: &mut StreamLoader, xml: &str| {
            let disk = crate::pager::SharedMemPager::new();
            let mut sink = FreshSink::new(Box::new(disk.clone()), &config).expect("sink");
            let (root, _) = loader.load(&mut sink, 8, xml, no_parent)?;
            drop(sink.finish(root, &config).expect("finish"));
            Ok::<_, BulkloadError>(disk.snapshot())
        };
        let mut loader = StreamLoader::new(2);
        let broken = "<a><b>one</b><b>two</b><c x='1'><d>three</d>";
        assert!(matches!(
            fresh_store(&mut loader, broken),
            Err(BulkloadError::Xml(_))
        ));
        let good = "<a><b>one</b><c x='1'><d>four</d></c></a>";
        let reused = fresh_store(&mut loader, good).expect("load after a failure");
        let fresh = fresh_store(&mut StreamLoader::new(2), good).expect("fresh load");
        assert!(reused == fresh);
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
