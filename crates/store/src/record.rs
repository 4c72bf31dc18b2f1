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
//! Decoding is allocation-light: one node array, one flat child-entry
//! arena, and content strings served lazily as slices of the raw record
//! bytes — entering a record costs roughly a constant plus its node count,
//! not its byte size.

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

/// One entry of an element's child list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildEntry {
    /// Child stored in the same record (local node index).
    Local(u16),
    /// A cut sibling interval, stored in another record (record number).
    Proxy(u32),
}

/// A decoded node. Child entries and content are accessed through
/// [`RecordData::entries`] / [`RecordData::content`].
#[derive(Debug, Clone)]
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
    /// Content byte range in the raw record, `(offset, len)`.
    content: Option<(u32, u32)>,
    /// Range into the record's entry arena.
    entry_start: u32,
    entry_len: u16,
}

/// A decoded record.
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
    /// All nodes of the fragment; index = local node id.
    pub nodes: Vec<RecNode>,
    /// Flat child-entry arena shared by all nodes.
    entries: Vec<ChildEntry>,
    /// The raw encoded bytes (content strings are slices into this).
    raw: Box<[u8]>,
}

impl RecordData {
    /// Child entries of `node`.
    pub fn entries(&self, node: &RecNode) -> &[ChildEntry] {
        let start = node.entry_start as usize;
        &self.entries[start..start + node.entry_len as usize]
    }

    /// Content string of `node`, if any.
    pub fn content(&self, node: &RecNode) -> Option<&str> {
        node.content.map(|(off, len)| {
            std::str::from_utf8(&self.raw[off as usize..(off + len) as usize])
                .expect("content was UTF-8 when encoded")
        })
    }

    /// Position of `local` within `roots` (fragment roots only).
    pub fn root_pos(&self, local: u16) -> Option<usize> {
        self.roots.iter().position(|&r| r == local)
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
                .nodes
                .iter()
                .map(|n| ImageNode {
                    kind: n.kind,
                    label: n.label,
                    parent_local: n.parent_local,
                    entry_pos: n.entry_pos,
                    content: self.content(n).map(Into::into),
                    entries: self.entries(n).to_vec(),
                })
                .collect(),
        }
    }
}

/// Builder-side representation handed to [`encode`].
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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

fn kind_from_u8(b: u8) -> StoreResult<NodeKind> {
    Ok(match b {
        0 => NodeKind::Element,
        1 => NodeKind::Attribute,
        2 => NodeKind::Text,
        3 => NodeKind::Comment,
        4 => NodeKind::ProcessingInstruction,
        _ => return Err(StoreError::corrupt("bad node kind")),
    })
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
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
    fn need(&self, n: usize) -> StoreResult<()> {
        if self.pos + n > self.buf.len() {
            Err(StoreError::corrupt("record truncated"))
        } else {
            Ok(())
        }
    }
    fn u8(&mut self) -> StoreResult<u8> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }
    fn u16(&mut self) -> StoreResult<u16> {
        self.need(2)?;
        let v = u16::from_le_bytes([self.buf[self.pos], self.buf[self.pos + 1]]);
        self.pos += 2;
        Ok(v)
    }
    fn u32(&mut self) -> StoreResult<u32> {
        self.need(4)?;
        let v = u32::from_le_bytes(
            self.buf[self.pos..self.pos + 4]
                .try_into()
                .expect("4 bytes"),
        );
        self.pos += 4;
        Ok(v)
    }
    fn u64(&mut self) -> StoreResult<u64> {
        self.need(8)?;
        let v = u64::from_le_bytes(
            self.buf[self.pos..self.pos + 8]
                .try_into()
                .expect("8 bytes"),
        );
        self.pos += 8;
        Ok(v)
    }
    fn skip(&mut self, n: usize) -> StoreResult<u32> {
        self.need(n)?;
        let off = self.pos as u32;
        self.pos += n;
        Ok(off)
    }
}

/// Serialize a record image as record number `self_no` written at commit
/// `epoch` (both stored in the self-describing prefix).
pub fn encode(rec: &RecordImage, self_no: u32, epoch: u64) -> Vec<u8> {
    let mut w = Writer {
        buf: Vec::with_capacity(80 + rec.nodes.len() * 16),
    };
    w.buf.extend_from_slice(RECORD_MAGIC);
    w.u32(self_no);
    w.u64(epoch);
    w.u32(rec.parent_record);
    w.u16(rec.parent_local);
    w.u16(rec.proxy_pos);
    w.u16(rec.roots.len() as u16);
    w.u16(rec.nodes.len() as u16);
    for &r in &rec.roots {
        w.u16(r);
    }
    for n in &rec.nodes {
        w.u8(kind_to_u8(n.kind));
        w.u16(n.label);
        w.u16(n.parent_local);
        w.u16(n.entry_pos);
        match &n.content {
            None => w.u16(NONE_U16),
            Some(s) => {
                debug_assert!(s.len() < NONE_U16 as usize);
                w.u16(s.len() as u16);
                w.buf.extend_from_slice(s.as_bytes());
            }
        }
        w.u16(n.entries.len() as u16);
        for e in &n.entries {
            match *e {
                ChildEntry::Local(i) => {
                    w.u8(0);
                    w.u16(i);
                }
                ChildEntry::Proxy(r) => {
                    w.u8(1);
                    w.u32(r);
                }
            }
        }
    }
    w.buf
}

/// Deserialize a record, taking ownership of the bytes (content strings
/// are served from them without copying). Bytes that do not start with
/// the self-describing prefix are corrupt. One pass: the header carries
/// the node count, so every root, parent and local child index is
/// bounded where it is read, and label ids against `labels`, the size of
/// the label table they must resolve in (`usize::MAX` when the caller
/// has none).
pub fn decode(bytes: Vec<u8>, labels: usize) -> StoreResult<RecordData> {
    if !bytes.starts_with(RECORD_MAGIC) {
        return Err(StoreError::corrupt("record prefix missing"));
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
    let mut roots = Vec::with_capacity(root_count);
    for _ in 0..root_count {
        let root = r.u16()?;
        if root >= node_count {
            return Err(StoreError::corrupt("root index out of range"));
        }
        roots.push(root);
    }
    let mut nodes = Vec::with_capacity(node_count as usize);
    let mut entries: Vec<ChildEntry> = Vec::with_capacity(node_count as usize);
    for _ in 0..node_count {
        let kind = kind_from_u8(r.u8()?)?;
        let label = r.u16()?;
        if label as usize >= labels {
            return Err(StoreError::corrupt("label id out of range"));
        }
        let parent_local = r.u16()?;
        if parent_local != NONE_U16 && parent_local >= node_count {
            return Err(StoreError::corrupt("parent index out of range"));
        }
        let entry_pos = r.u16()?;
        let content_len = r.u16()?;
        let content = if content_len == NONE_U16 {
            None
        } else {
            let off = r.skip(content_len as usize)?;
            // Validate UTF-8 once at decode time so accessors can slice
            // without re-checking.
            std::str::from_utf8(&bytes[off as usize..off as usize + content_len as usize])
                .map_err(|_| StoreError::corrupt("content not UTF-8"))?;
            Some((off, u32::from(content_len)))
        };
        let entry_count = r.u16()? as usize;
        let entry_start = entries.len() as u32;
        for _ in 0..entry_count {
            entries.push(match r.u8()? {
                0 => match r.u16()? {
                    i if i < node_count => ChildEntry::Local(i),
                    _ => return Err(StoreError::corrupt("child index out of range")),
                },
                1 => ChildEntry::Proxy(r.u32()?),
                _ => return Err(StoreError::corrupt("bad child entry tag")),
            });
        }
        nodes.push(RecNode {
            kind,
            label,
            parent_local,
            entry_pos,
            content,
            entry_start,
            entry_len: entry_count as u16,
        });
    }
    Ok(RecordData {
        self_no,
        epoch,
        parent_record,
        parent_local,
        proxy_pos,
        roots,
        nodes,
        entries,
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
        assert_eq!(back.nodes.len(), 3);
        assert_eq!(
            back.entries(&back.nodes[0]),
            &[ChildEntry::Local(1), ChildEntry::Proxy(9)]
        );
        assert_eq!(back.content(&back.nodes[1]), Some("hello world"));
        assert_eq!(back.content(&back.nodes[0]), None);
        assert_eq!(back.nodes[2].kind, NodeKind::Attribute);
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

    #[test]
    fn root_pos() {
        let rec = decode(encode(&sample(), 0, 1), usize::MAX).unwrap();
        assert_eq!(rec.root_pos(0), Some(0));
        assert_eq!(rec.root_pos(2), Some(1));
        assert_eq!(rec.root_pos(1), None);
    }
}
