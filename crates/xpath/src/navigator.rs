//! Navigation abstraction: the evaluator runs unchanged over the
//! in-memory [`Document`] and over the record-partitioned [`XmlStore`],
//! which lets the test suite use the in-memory evaluation as an oracle for
//! the store's cross-record navigation.
//!
//! Child lists are delivered as *entries*, with kind and label, in one
//! call that stays inside the node's record: a child stored elsewhere
//! arrives as a proxy, and entering it is a second call the evaluator
//! makes when its walk gets there. A store-backed navigator so pays one
//! record access per child *interval* — the cost model the paper's
//! partitioning algorithms optimize — and pays it in document order.

use std::collections::HashMap;

use natix_store::{ChildEntry, NodeRef, RecordData, StoreResult, XmlStore};
use natix_tree::NodeId;
use natix_xml::{Document, NodeKind};

/// One entry of a child list, as [`Navigator::entries`] delivers it.
#[derive(Debug, Clone, Copy)]
pub enum Entry<N> {
    /// A child: handle plus the metadata needed for node tests without
    /// further lookups (`label` compares against
    /// [`Navigator::resolve_label`]).
    Node { node: N, kind: NodeKind, label: u32 },
    /// A run of consecutive children stored elsewhere;
    /// [`Navigator::enter`] lists them.
    Proxy(u32),
}

/// Cursor-style navigation over some XML node representation.
pub trait Navigator {
    /// Node handle.
    type Node: Copy + Eq + Ord + std::hash::Hash + std::fmt::Debug;

    /// The document's root element.
    fn root(&mut self) -> StoreResult<Self::Node>;
    /// Kind and label of a node.
    fn info(&mut self, n: Self::Node) -> StoreResult<(NodeKind, u32)>;
    /// The label id for `name`, if the document contains it at all.
    fn resolve_label(&mut self, name: &str) -> StoreResult<Option<u32>>;
    /// Content string of a node (attribute value, text data); `None` for
    /// elements.
    fn content(&mut self, n: Self::Node) -> StoreResult<Option<String>>;
    /// Append the child entries of `n` (attributes included) in document
    /// order.
    fn entries(&mut self, n: Self::Node, out: &mut Vec<Entry<Self::Node>>) -> StoreResult<()>;
    /// Append the children behind `proxy`, in document order.
    fn enter(&mut self, proxy: u32, out: &mut Vec<Entry<Self::Node>>) -> StoreResult<()>;
    /// Parent node (`None` at the root element).
    fn parent(&mut self, n: Self::Node) -> StoreResult<Option<Self::Node>>;
    /// Next sibling.
    fn next_sibling(&mut self, n: Self::Node) -> StoreResult<Option<Self::Node>>;
    /// Previous sibling.
    fn prev_sibling(&mut self, n: Self::Node) -> StoreResult<Option<Self::Node>>;
}

/// Navigator over an in-memory document.
pub struct MemNavigator<'a> {
    doc: &'a Document,
}

impl<'a> MemNavigator<'a> {
    /// Navigate `doc`.
    pub fn new(doc: &'a Document) -> MemNavigator<'a> {
        MemNavigator { doc }
    }
}

impl Navigator for MemNavigator<'_> {
    type Node = NodeId;

    fn root(&mut self) -> StoreResult<NodeId> {
        Ok(self.doc.root())
    }

    fn info(&mut self, n: NodeId) -> StoreResult<(NodeKind, u32)> {
        Ok((self.doc.kind(n), self.doc.tree().label(n).0))
    }

    fn resolve_label(&mut self, name: &str) -> StoreResult<Option<u32>> {
        Ok(self.doc.tree().labels().get(name).map(|id| id.0))
    }

    fn content(&mut self, n: NodeId) -> StoreResult<Option<String>> {
        Ok(self.doc.content(n).map(str::to_string))
    }

    fn entries(&mut self, n: NodeId, out: &mut Vec<Entry<NodeId>>) -> StoreResult<()> {
        let tree = self.doc.tree();
        out.extend(tree.children(n).iter().map(|&node| Entry::Node {
            node,
            kind: self.doc.kind(node),
            label: tree.label(node).0,
        }));
        Ok(())
    }

    fn enter(&mut self, _: u32, _: &mut Vec<Entry<NodeId>>) -> StoreResult<()> {
        unreachable!("an in-memory document has no proxies")
    }

    fn parent(&mut self, n: NodeId) -> StoreResult<Option<NodeId>> {
        Ok(self.doc.tree().parent(n))
    }

    fn next_sibling(&mut self, n: NodeId) -> StoreResult<Option<NodeId>> {
        Ok(self.doc.tree().next_sibling(n))
    }

    fn prev_sibling(&mut self, n: NodeId) -> StoreResult<Option<NodeId>> {
        Ok(self.doc.tree().prev_sibling(n))
    }
}

/// Navigator over a bulkloaded store; name resolutions are cached.
pub struct StoreNavigator<'a> {
    store: &'a mut XmlStore,
    label_cache: HashMap<String, Option<u16>>,
}

impl<'a> StoreNavigator<'a> {
    /// Navigate `store`.
    pub fn new(store: &'a mut XmlStore) -> StoreNavigator<'a> {
        StoreNavigator {
            store,
            label_cache: HashMap::new(),
        }
    }

    /// The underlying store (e.g. for stats).
    pub fn store(&mut self) -> &mut XmlStore {
        self.store
    }
}

impl Navigator for StoreNavigator<'_> {
    type Node = NodeRef;

    fn root(&mut self) -> StoreResult<NodeRef> {
        self.store.root()
    }

    fn info(&mut self, n: NodeRef) -> StoreResult<(NodeKind, u32)> {
        self.store
            .with_node(n, |node| (node.kind, node.label as u32))
    }

    fn resolve_label(&mut self, name: &str) -> StoreResult<Option<u32>> {
        let id = match self.label_cache.get(name) {
            Some(&id) => id,
            None => {
                let id = self.store.label_id(name);
                self.label_cache.insert(name.to_string(), id);
                id
            }
        };
        Ok(id.map(u32::from))
    }

    fn content(&mut self, n: NodeRef) -> StoreResult<Option<String>> {
        self.store.node_content(n)
    }

    fn entries(&mut self, n: NodeRef, out: &mut Vec<Entry<NodeRef>>) -> StoreResult<()> {
        self.store.with_node_in(n, |rec, node| {
            out.extend(rec.entries(node).map(|e| match e {
                ChildEntry::Local(i) => stored(rec, n.record, i),
                ChildEntry::Proxy(no) => Entry::Proxy(no),
            }))
        })
    }

    fn enter(&mut self, proxy: u32, out: &mut Vec<Entry<NodeRef>>) -> StoreResult<()> {
        self.store.with_record(proxy, |rec| {
            out.extend(rec.roots.iter().map(|&i| stored(rec, proxy, i)))
        })
    }

    fn parent(&mut self, n: NodeRef) -> StoreResult<Option<NodeRef>> {
        self.store.parent(n)
    }

    fn next_sibling(&mut self, n: NodeRef) -> StoreResult<Option<NodeRef>> {
        self.store.next_sibling(n)
    }

    fn prev_sibling(&mut self, n: NodeRef) -> StoreResult<Option<NodeRef>> {
        self.store.prev_sibling(n)
    }
}

/// Node `node` of `rec`, which is record number `record`.
fn stored(rec: &RecordData, record: u32, node: u16) -> Entry<NodeRef> {
    let n = rec.node(node);
    Entry::Node {
        node: NodeRef { record, node },
        kind: n.kind,
        label: u32::from(n.label),
    }
}
