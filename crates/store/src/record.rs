//! Physical record format: one record per partition.
//!
//! A record stores a *fragment* of the document tree — the subtrees of one
//! sibling interval, minus deeper fragments that were cut into their own
//! records. Cut child intervals appear as **proxy** entries in their
//! parent's child list (Natix calls these proxy nodes), so navigation can
//! cross record boundaries in both directions:
//!
//! * downward: a proxy entry names the child record,
//! * upward: the record header names the parent record, the parent node's
//!   index inside it, and the position of our proxy in that node's child
//!   list (needed for `next_sibling` across a record boundary).
//!
//! A decoded record is a *view* over its own bytes: [`decode`] checks
//! every field once, where it lies, and keeps the header, the root list
//! and one byte offset per node. Nodes, child entries and content strings
//! are read from the bytes when a walk asks for them, so entering a record
//! builds nothing for the nodes the walk never looks at.

use natix_xml::NodeKind;

use crate::pager::{StoreError, StoreResult};

/// Sentinel: no u16 value (no parent node, …).
pub const NONE_U16: u16 = u16::MAX;
/// Sentinel: no record.
pub const NONE_U32: u32 = u32::MAX;

/// Magic prefix of a record: makes records self-describing
/// (`[magic][self record number][commit epoch]` before the body), so
/// `fsck --repair` can rebuild the catalog by scanning raw pages, and
/// resolve duplicate claims to a record number by the highest epoch.
pub(crate) const RECORD_MAGIC: &[u8; 4] = b"NRC3";

/// Offset of the root list: the prefix (magic, self number, epoch) and
/// the header (parent record, parent index, proxy position, root and node
/// counts) come first.
const ROOTS_AT: usize = RECORD_MAGIC.len() + 4 + 8 + 12;
/// Bytes of a node before its content length: kind, label, parent index,
/// entry position.
const NODE_HEAD: usize = 7;
/// Tags of an encoded child entry.
const ENTRY_LOCAL: u8 = 0;
const ENTRY_PROXY: u8 = 1;

/// One entry of an element's child list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildEntry {
    /// Child stored in the same record (local node index).
    Local(u16),
    /// A cut sibling interval, stored in another record (record number).
    Proxy(u32),
}

/// A node's fixed fields, read from the record's bytes by
/// [`RecordData::node`]. Child entries and content are reached through
/// [`RecordData::entries`] / [`RecordData::content`].
#[derive(Debug, Clone, Copy)]
pub struct RecNode {
    /// Node kind.
    pub kind: NodeKind,
    /// Label id (store-global label table).
    pub label: u16,
    /// Local index of the parent node, `u16::MAX` for fragment roots.
    pub parent_local: u16,
    /// Position of this node in its parent's entry list (`u16::MAX` for
    /// fragment roots).
    pub entry_pos: u16,
    /// Offset of the node's content-length field in the raw record; the
    /// content bytes and the entry list follow it.
    at: u32,
}

/// A decoded record: bytes that [`decode`] has accepted, the header
/// fields, and where each node starts.
#[derive(Debug, Clone)]
pub struct RecordData {
    /// The record number these bytes claim to be. `fetch` cross-checks
    /// it against the directory entry being resolved.
    pub self_no: u32,
    /// Commit epoch that wrote these bytes.
    pub epoch: u64,
    /// Record containing our parent node (`u32::MAX` for the root
    /// record).
    pub parent_record: u32,
    /// Local index of the parent node in `parent_record`.
    pub parent_local: u16,
    /// Position of this record's proxy in the parent node's entry list.
    pub proxy_pos: u16,
    /// Local indices of the fragment roots (the interval members), in
    /// sibling order.
    pub roots: Vec<u16>,
    /// Byte offset of each node in `raw`; index = local node id.
    offsets: Vec<u32>,
    /// The encoded bytes, every field of which `decode` has checked: the
    /// accessors below index them without a second look.
    raw: Box<[u8]>,
}

#[inline(always)]
fn u16_at(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([bytes[at], bytes[at + 1]])
}

// The accessors a walk calls for every node (`get`, `node`,
// `child_cursor`, `next_entry` and what they call) are
// `#[inline(always)]`: the workspace has no LTO, and the evaluator's
// loop, large and generic, is past where LLVM inlines a plain `#[inline]`
// function from another crate, and a call a node shows in the time of a
// `//` query (DESIGN.md §15).
impl RecordData {
    /// Number of nodes in the fragment.
    pub fn node_count(&self) -> usize {
        self.offsets.len()
    }

    /// Node `local`, if the fragment has that many.
    #[inline(always)]
    pub fn get(&self, local: u16) -> Option<RecNode> {
        let at = *self.offsets.get(local as usize)? as usize;
        let head = &self.raw[at..at + NODE_HEAD];
        Some(RecNode {
            kind: kind_from_u8(head[0]).expect("decode checked the kind"),
            label: u16_at(head, 1),
            parent_local: u16_at(head, 3),
            entry_pos: u16_at(head, 5),
            at: (at + NODE_HEAD) as u32,
        })
    }

    /// Node `local`. Panics when the fragment has no such node, as
    /// indexing does.
    #[inline(always)]
    pub fn node(&self, local: u16) -> RecNode {
        self.get(local).expect("local node index in range")
    }

    /// All nodes; position = local node id.
    pub fn nodes(&self) -> impl Iterator<Item = RecNode> + '_ {
        (0..self.offsets.len() as u16).map(|local| self.node(local))
    }

    /// Content bytes of `node` and the offset just past them, where its
    /// entry list starts.
    #[inline(always)]
    fn content_bytes(&self, node: &RecNode) -> (Option<&[u8]>, usize) {
        let start = node.at as usize + 2;
        match u16_at(&self.raw, node.at as usize) {
            NONE_U16 => (None, start),
            len => {
                let end = start + len as usize;
                (Some(&self.raw[start..end]), end)
            }
        }
    }

    /// Child entries of `node`, in document order.
    #[inline]
    pub fn entries(&self, node: &RecNode) -> Entries<'_> {
        Entries {
            rec: self,
            at: self.child_cursor(node),
        }
    }

    /// A cursor at the first of `node`'s child entries.
    #[inline(always)]
    pub fn child_cursor(&self, node: &RecNode) -> EntryCursor {
        let (_, at) = self.content_bytes(node);
        EntryCursor {
            at: at as u32 + 2,
            left: u16_at(&self.raw, at),
            roots: false,
        }
    }

    /// A cursor at the first fragment root, the run of children a proxy
    /// entry for this record stands for: it yields them as
    /// [`ChildEntry::Local`].
    #[inline(always)]
    pub fn root_cursor(&self) -> EntryCursor {
        EntryCursor {
            at: ROOTS_AT as u32,
            left: self.roots.len() as u16,
            roots: true,
        }
    }

    /// The entry at `cursor`, which moves past it; `None` at the end of
    /// its list. `cursor` must come from this record.
    #[inline(always)]
    pub fn next_entry(&self, cursor: &mut EntryCursor) -> Option<ChildEntry> {
        cursor.left = cursor.left.checked_sub(1)?;
        let b = &self.raw[cursor.at as usize..];
        let (entry, width) = match (cursor.roots, b[0]) {
            (true, _) => (ChildEntry::Local(u16_at(b, 0)), 2),
            (false, ENTRY_LOCAL) => (ChildEntry::Local(u16_at(b, 1)), 3),
            (false, _) => (
                ChildEntry::Proxy(u32::from_le_bytes([b[1], b[2], b[3], b[4]])),
                5,
            ),
        };
        cursor.at += width;
        Some(entry)
    }

    /// Content string of `node`, if any.
    #[inline]
    pub fn content(&self, node: &RecNode) -> Option<&str> {
        self.content_bytes(node)
            .0
            .map(|bytes| std::str::from_utf8(bytes).expect("decode checked the content is UTF-8"))
    }

    /// Position of `local` within `roots` (fragment roots only).
    pub fn root_pos(&self, local: u16) -> Option<usize> {
        self.roots.iter().position(|&r| r == local)
    }

    /// The encoded record this is a view of.
    pub fn bytes(&self) -> &[u8] {
        &self.raw
    }

    /// Convert back into a mutable builder-side image (used by the update
    /// path: decode → modify → re-encode).
    pub fn to_image(&self) -> RecordImage {
        RecordImage {
            parent_record: self.parent_record,
            parent_local: self.parent_local,
            proxy_pos: self.proxy_pos,
            roots: self.roots.clone(),
            nodes: self
                .nodes()
                .map(|n| ImageNode {
                    kind: n.kind,
                    label: n.label,
                    parent_local: n.parent_local,
                    entry_pos: n.entry_pos,
                    content: self.content(&n).map(Into::into),
                    entries: self.entries(&n).collect(),
                })
                .collect(),
        }
    }
}

/// A place in one of a record's sibling lists — a node's child entries,
/// or the fragment roots — that does not borrow the record: a byte offset
/// and a count, read through [`RecordData::next_entry`] of the record
/// that made it. A walk keeps one per level of the tree below it while it
/// holds the record itself behind an `Rc`. Entries are three or five
/// bytes wide, so reaching position `i` scans the `i` before it — one
/// node's list, which K bounds.
#[derive(Debug, Clone, Copy)]
pub struct EntryCursor {
    /// Offset of the next entry in the record's bytes.
    at: u32,
    /// Entries left in the list.
    left: u16,
    /// A root list: untagged two-byte local indices.
    roots: bool,
}

/// The child entries of one node, read off the record's bytes.
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    rec: &'a RecordData,
    at: EntryCursor,
}

impl Iterator for Entries<'_> {
    type Item = ChildEntry;

    #[inline]
    fn next(&mut self) -> Option<ChildEntry> {
        self.rec.next_entry(&mut self.at)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.at.left as usize, Some(self.at.left as usize))
    }
}

impl ExactSizeIterator for Entries<'_> {}

/// Builder-side representation handed to [`encode`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecordImage {
    /// See [`RecordData::parent_record`].
    pub parent_record: u32,
    /// See [`RecordData::parent_local`].
    pub parent_local: u16,
    /// See [`RecordData::proxy_pos`].
    pub proxy_pos: u16,
    /// Fragment roots.
    pub roots: Vec<u16>,
    /// Nodes with owned content and entry lists.
    pub nodes: Vec<ImageNode>,
}

/// Builder-side node.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageNode {
    /// Node kind.
    pub kind: NodeKind,
    /// Label id.
    pub label: u16,
    /// Parent local index or [`NONE_U16`].
    pub parent_local: u16,
    /// Entry position in the parent or [`NONE_U16`].
    pub entry_pos: u16,
    /// Content string.
    pub content: Option<Box<str>>,
    /// Child entries.
    pub entries: Vec<ChildEntry>,
}

fn kind_to_u8(k: NodeKind) -> u8 {
    match k {
        NodeKind::Element => 0,
        NodeKind::Attribute => 1,
        NodeKind::Text => 2,
        NodeKind::Comment => 3,
        NodeKind::ProcessingInstruction => 4,
    }
}

#[inline(always)]
fn kind_from_u8(b: u8) -> Option<NodeKind> {
    Some(match b {
        0 => NodeKind::Element,
        1 => NodeKind::Attribute,
        2 => NodeKind::Text,
        3 => NodeKind::Comment,
        4 => NodeKind::ProcessingInstruction,
        _ => return None,
    })
}

/// The one record writer: [`encode`] drives it from a [`RecordImage`],
/// the streaming loader straight from its node buffer into a reused
/// buffer. Calls come in format order: [`RecordWriter::begin`], one
/// [`RecordWriter::root`] per fragment root, then per node one
/// [`RecordWriter::node`] followed by its [`RecordWriter::entry`]s.
pub(crate) struct RecordWriter<'b> {
    buf: &'b mut Vec<u8>,
}

impl<'b> RecordWriter<'b> {
    /// Clear `buf` and write the prefix and header of record `self_no`
    /// written at commit `epoch`, hanging off `(parent record, parent
    /// local, proxy position)`.
    pub(crate) fn begin(
        buf: &'b mut Vec<u8>,
        self_no: u32,
        epoch: u64,
        (parent_record, parent_local, proxy_pos): (u32, u16, u16),
        root_count: usize,
        node_count: usize,
    ) -> RecordWriter<'b> {
        buf.clear();
        let mut w = RecordWriter { buf };
        w.buf.extend_from_slice(RECORD_MAGIC);
        w.u32(self_no);
        w.u64(epoch);
        w.u32(parent_record);
        w.u16(parent_local);
        w.u16(proxy_pos);
        w.u16(root_count as u16);
        w.u16(node_count as u16);
        w
    }

    /// Next fragment root's local index.
    pub(crate) fn root(&mut self, local: u16) {
        self.u16(local);
    }

    /// Next node's fixed fields and content; `entry_count` entries follow.
    pub(crate) fn node(
        &mut self,
        kind: NodeKind,
        label: u16,
        parent_local: u16,
        entry_pos: u16,
        content: Option<&str>,
        entry_count: usize,
    ) {
        self.buf.push(kind_to_u8(kind));
        self.u16(label);
        self.u16(parent_local);
        self.u16(entry_pos);
        match content {
            None => self.u16(NONE_U16),
            Some(s) => {
                debug_assert!(s.len() < NONE_U16 as usize);
                self.u16(s.len() as u16);
                self.buf.extend_from_slice(s.as_bytes());
            }
        }
        self.u16(entry_count as u16);
    }

    /// Next child entry of the current node.
    pub(crate) fn entry(&mut self, e: ChildEntry) {
        match e {
            ChildEntry::Local(i) => {
                self.buf.push(ENTRY_LOCAL);
                self.u16(i);
            }
            ChildEntry::Proxy(r) => {
                self.buf.push(ENTRY_PROXY);
                self.u32(r);
            }
        }
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// The next `N` bytes.
    fn take<const N: usize>(&mut self) -> StoreResult<[u8; N]> {
        let bytes = self.bytes(N)?;
        Ok(bytes.try_into().expect("N bytes"))
    }
    fn u16(&mut self) -> StoreResult<u16> {
        self.take().map(u16::from_le_bytes)
    }
    fn u32(&mut self) -> StoreResult<u32> {
        self.take().map(u32::from_le_bytes)
    }
    fn u64(&mut self) -> StoreResult<u64> {
        self.take().map(u64::from_le_bytes)
    }
    /// The next `n` bytes.
    fn bytes(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| StoreError::corrupt("record truncated"))?;
        self.pos += n;
        Ok(bytes)
    }
}

/// Serialize a record image as record number `self_no` written at commit
/// `epoch` (both stored in the self-describing prefix).
pub fn encode(rec: &RecordImage, self_no: u32, epoch: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(80 + rec.nodes.len() * 16);
    let parent = (rec.parent_record, rec.parent_local, rec.proxy_pos);
    let mut w = RecordWriter::begin(
        &mut buf,
        self_no,
        epoch,
        parent,
        rec.roots.len(),
        rec.nodes.len(),
    );
    for &r in &rec.roots {
        w.root(r);
    }
    for n in &rec.nodes {
        w.node(
            n.kind,
            n.label,
            n.parent_local,
            n.entry_pos,
            n.content.as_deref(),
            n.entries.len(),
        );
        for &e in &n.entries {
            w.entry(e);
        }
    }
    buf
}

/// Deserialize a record, taking ownership of the bytes: the result is a
/// view of them. Bytes that do not start with the self-describing prefix
/// are corrupt. One pass: the header carries the node count, so every
/// root, parent and local child index is bounded where it is read, as are
/// kinds, entry tags, the UTF-8 of every content string, and label ids
/// against `labels`, the size of the label table they must resolve in
/// (`usize::MAX` when the caller has none). Everything the accessors of
/// [`RecordData`] index later has been walked here.
pub fn decode(bytes: Vec<u8>, labels: usize) -> StoreResult<RecordData> {
    if !bytes.starts_with(RECORD_MAGIC) {
        return Err(StoreError::corrupt("record prefix missing"));
    }
    // Node offsets are kept as `u32`.
    if u32::try_from(bytes.len()).is_err() {
        return Err(StoreError::corrupt("record too large"));
    }
    let mut r = Reader {
        buf: &bytes,
        pos: RECORD_MAGIC.len(),
    };
    let self_no = r.u32()?;
    let epoch = r.u64()?;
    let parent_record = r.u32()?;
    let parent_local = r.u16()?;
    let proxy_pos = r.u16()?;
    let root_count = r.u16()? as usize;
    let node_count = r.u16()?;
    debug_assert_eq!(r.pos, ROOTS_AT);
    let mut roots = Vec::with_capacity(root_count);
    for _ in 0..root_count {
        let root = r.u16()?;
        if root >= node_count {
            return Err(StoreError::corrupt("root index out of range"));
        }
        roots.push(root);
    }
    let mut offsets = Vec::with_capacity(node_count as usize);
    for _ in 0..node_count {
        offsets.push(r.pos as u32);
        let head = r.take::<{ NODE_HEAD + 2 }>()?;
        if kind_from_u8(head[0]).is_none() {
            return Err(StoreError::corrupt("bad node kind"));
        }
        if u16_at(&head, 1) as usize >= labels {
            return Err(StoreError::corrupt("label id out of range"));
        }
        let parent_local = u16_at(&head, 3);
        if parent_local != NONE_U16 && parent_local >= node_count {
            return Err(StoreError::corrupt("parent index out of range"));
        }
        let content_len = u16_at(&head, NODE_HEAD);
        if content_len != NONE_U16 {
            let content = r.bytes(content_len as usize)?;
            // ASCII is UTF-8, and a far cheaper test on short strings.
            if !content.is_ascii() && std::str::from_utf8(content).is_err() {
                return Err(StoreError::corrupt("content not UTF-8"));
            }
        }
        for _ in 0..r.u16()? {
            match r.take::<1>()?[0] {
                ENTRY_LOCAL => {
                    if r.u16()? >= node_count {
                        return Err(StoreError::corrupt("child index out of range"));
                    }
                }
                ENTRY_PROXY => {
                    r.bytes(4)?;
                }
                _ => return Err(StoreError::corrupt("bad child entry tag")),
            }
        }
    }
    Ok(RecordData {
        self_no,
        epoch,
        parent_record,
        parent_local,
        proxy_pos,
        roots,
        offsets,
        raw: bytes.into_boxed_slice(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RecordImage {
        RecordImage {
            parent_record: 3,
            parent_local: 7,
            proxy_pos: 2,
            roots: vec![0, 2],
            nodes: vec![
                ImageNode {
                    kind: NodeKind::Element,
                    label: 5,
                    parent_local: NONE_U16,
                    entry_pos: NONE_U16,
                    content: None,
                    entries: vec![ChildEntry::Local(1), ChildEntry::Proxy(9)],
                },
                ImageNode {
                    kind: NodeKind::Text,
                    label: 0,
                    parent_local: 0,
                    entry_pos: 0,
                    content: Some("hello world".into()),
                    entries: vec![],
                },
                ImageNode {
                    kind: NodeKind::Attribute,
                    label: 2,
                    parent_local: NONE_U16,
                    entry_pos: NONE_U16,
                    content: Some("v".into()),
                    entries: vec![],
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let rec = sample();
        let bytes = encode(&rec, 12, 4);
        let back = decode(bytes, usize::MAX).unwrap();
        assert_eq!(back.self_no, 12);
        assert_eq!(back.epoch, 4);
        assert_eq!(back.parent_record, 3);
        assert_eq!(back.parent_local, 7);
        assert_eq!(back.proxy_pos, 2);
        assert_eq!(back.roots, vec![0, 2]);
        assert_eq!(back.node_count(), 3);
        assert_eq!(
            back.entries(&back.node(0)).collect::<Vec<_>>(),
            [ChildEntry::Local(1), ChildEntry::Proxy(9)]
        );
        assert_eq!(back.content(&back.node(1)), Some("hello world"));
        assert_eq!(back.content(&back.node(0)), None);
        assert_eq!(back.node(2).kind, NodeKind::Attribute);
    }

    #[test]
    fn truncated_fails() {
        let bytes = encode(&sample(), 0, 1);
        for cut in [0, 6, 18, 26, bytes.len() - 1] {
            assert!(
                decode(bytes[..cut].to_vec(), usize::MAX).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupt_kind_fails() {
        let mut bytes = encode(&sample(), 0, 1);
        // First node kind byte sits after the 16-byte prefix, the
        // 12-byte header, and 2 roots.
        let kind_off = 16 + 12 + 4;
        bytes[kind_off] = 99;
        assert!(decode(bytes, usize::MAX).is_err());
    }

    #[test]
    fn corrupt_child_index_fails() {
        let mut img = sample();
        img.nodes[0].entries[0] = ChildEntry::Local(99);
        assert!(decode(encode(&img, 0, 1), usize::MAX).is_err());
    }

    #[test]
    fn record_without_its_prefix_is_corrupt() {
        let v3 = encode(&sample(), 7, 3);
        // The body alone (what format 2 stored), and a damaged magic.
        let mut bent = v3.clone();
        bent[1] ^= 0x20;
        for bytes in [v3[16..].to_vec(), bent] {
            let err = decode(bytes, usize::MAX).unwrap_err();
            assert!(err.is_corruption(), "{err}");
        }
    }

    /// One input per check `decode` makes beyond the four tests above:
    /// each must fail, and for the reason named.
    #[test]
    fn each_range_check_rejects_its_input() {
        let good = encode(&sample(), 0, 1);
        let view = decode(good.clone(), usize::MAX).unwrap();
        let past_head = |node: usize| view.offsets[node] as usize + NODE_HEAD + 2;
        let bent = |at: usize, byte: u8| {
            let mut bytes = good.clone();
            bytes[at] = byte;
            bytes
        };
        let mut root = sample();
        root.roots[1] = 3;
        let mut parent = sample();
        parent.nodes[1].parent_local = 3;
        for (bytes, labels, why) in [
            (encode(&root, 0, 1), usize::MAX, "root index out of range"),
            (
                encode(&parent, 0, 1),
                usize::MAX,
                "parent index out of range",
            ),
            // The sample's labels are 5, 0 and 2.
            (good.clone(), 5, "label id out of range"),
            // Node 0 has no content: its first entry's tag follows the
            // entry count.
            (bent(past_head(0) + 2, 2), usize::MAX, "bad child entry tag"),
            (bent(past_head(1), 0xff), usize::MAX, "content not UTF-8"),
        ] {
            let err = decode(bytes, labels).unwrap_err();
            assert!(err.is_corruption(), "{why}: {err}");
            assert!(err.to_string().contains(why), "{why}: {err}");
        }
        assert!(decode(good, 6).is_ok());
    }

    /// Touch everything the accessors can reach: every node, each of its
    /// entries by iteration and by position, its content, what its
    /// indices name, and the image.
    fn walk(view: &RecordData) {
        for &root in &view.roots {
            assert!(view.get(root).is_some());
        }
        let mut roots = view.root_cursor();
        let listed = std::iter::from_fn(|| view.next_entry(&mut roots));
        assert!(listed.eq(view.roots.iter().map(|&r| ChildEntry::Local(r))));
        assert!(view.get(view.node_count() as u16).is_none());
        for (local, n) in view.nodes().enumerate() {
            if n.parent_local != NONE_U16 {
                view.node(n.parent_local);
            }
            view.content(&n);
            let entries = view.entries(&n);
            assert_eq!(entries.len(), entries.clone().count(), "node {local}");
            for (pos, e) in entries.clone().enumerate() {
                assert_eq!(entries.clone().nth(pos), Some(e));
                if let ChildEntry::Local(child) = e {
                    view.node(child);
                }
            }
            assert_eq!(entries.clone().nth(entries.len()), None);
        }
        view.to_image();
    }

    /// `bytes` cut short anywhere, or with any one byte XORed with any of
    /// `masks`: `decode` refuses them as corrupt, or hands out a view
    /// that can be walked end to end.
    fn hostile(bytes: &[u8], masks: impl Iterator<Item = u8> + Clone) {
        for cut in 0..bytes.len() {
            let err = decode(bytes[..cut].to_vec(), usize::MAX).unwrap_err();
            assert!(err.is_corruption(), "cut at {cut}: {err}");
        }
        for at in 0..bytes.len() {
            for mask in masks.clone() {
                let mut bent = bytes.to_vec();
                bent[at] ^= mask;
                match decode(bent, usize::MAX) {
                    Ok(view) => walk(&view),
                    Err(err) => assert!(err.is_corruption(), "{at} ^ {mask:#x}: {err}"),
                }
            }
        }
    }

    #[test]
    fn hostile_bytes_fail_decode_or_walk_in_bounds() {
        hostile(&encode(&sample(), 7, 3), 1..=255);
    }

    /// A bulkloaded `doc`'s records, as (number, view).
    fn records_of(doc: &natix_xml::Document, k: u64) -> Vec<(u32, std::rc::Rc<RecordData>)> {
        use natix_core::Partitioner;
        let p = natix_core::Ekm.partition(doc.tree(), k).unwrap();
        let mut store = crate::XmlStore::bulkload(
            doc,
            &p,
            Box::new(crate::MemPager::new()),
            crate::StoreConfig::default(),
        )
        .unwrap();
        (0..store.record_count() as u32)
            .map(|no| (no, store.fetch(no).unwrap()))
            .collect()
    }

    #[test]
    fn hostile_bytes_of_a_real_record() {
        let doc = natix_datagen::xmark(natix_datagen::GenConfig::at_scale(0.002));
        let records = records_of(&doc, 256);
        let (_, largest) = records
            .iter()
            .max_by_key(|(_, rec)| rec.bytes().len())
            .unwrap();
        hostile(largest.bytes(), [0x01, 0x80, 0xff].into_iter());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Over every generator: a stored record's bytes, its view and
        /// its image say the same thing, and image -> bytes -> view ->
        /// image is the identity.
        #[test]
        fn view_agrees_with_image(seed in proptest::prelude::any::<u64>(), which in 0usize..6, k in 16u64..300) {
            use natix_datagen::{mondial, orders, partsupp, sigmod, uwm, xmark, GenConfig};
            let generate = [sigmod, mondial, partsupp, uwm, orders, xmark][which];
            let doc = generate(GenConfig { scale: 0.001, seed });
            // A K below the heaviest node has no partitioning at all.
            let tree = doc.tree();
            let k = tree.preorder().map(|v| tree.weight(v)).fold(k, u64::max);
            for (no, view) in records_of(&doc, k) {
                walk(&view);
                let image = view.to_image();
                assert_eq!(encode(&image, no, view.epoch), view.bytes(), "record {no}");
                let back = decode(view.bytes().to_vec(), usize::MAX).unwrap();
                assert_eq!(back.to_image(), image, "record {no}");
                assert_eq!(
                    (back.self_no, back.epoch, back.parent_record, back.parent_local, back.proxy_pos),
                    (no, view.epoch, image.parent_record, image.parent_local, image.proxy_pos)
                );
                assert_eq!(view.roots, image.roots);
                assert_eq!(view.node_count(), image.nodes.len());
                for (n, expect) in view.nodes().zip(&image.nodes) {
                    assert_eq!(
                        (n.kind, n.label, n.parent_local, n.entry_pos),
                        (expect.kind, expect.label, expect.parent_local, expect.entry_pos)
                    );
                    assert_eq!(view.content(&n), expect.content.as_deref());
                    assert_eq!(view.entries(&n).len(), expect.entries.len());
                    assert!(view.entries(&n).eq(expect.entries.iter().copied()));
                }
                for (pos, &root) in view.roots.iter().enumerate() {
                    assert_eq!(view.root_pos(root), Some(pos));
                }
            }
        }
    }

    #[test]
    fn root_pos() {
        let rec = decode(encode(&sample(), 0, 1), usize::MAX).unwrap();
        assert_eq!(rec.root_pos(0), Some(0));
        assert_eq!(rec.root_pos(2), Some(1));
        assert_eq!(rec.root_pos(1), None);
    }
}
