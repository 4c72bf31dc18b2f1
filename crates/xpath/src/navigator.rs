//! Navigation abstraction: the evaluator runs unchanged over the
//! in-memory [`Document`] and over the record-partitioned [`XmlStore`],
//! which lets the test suite use the in-memory evaluation as an oracle for
//! the store's cross-record navigation.
//!
//! A downward step walks the tree below its context in document order
//! through a walk the navigator defines ([`Navigator::Walk`]): a stack of
//! child-list cursors, the deepest on top, that yields each node with its
//! kind and label. A store-backed walk holds the records it is in: a
//! child stored elsewhere sits in its parent's list as a proxy entry, the
//! walk enters that record when it gets to the entry, and it reads the
//! nodes and entry lists of a record it holds off the record's bytes,
//! without asking the store again. A store-backed navigator so pays one
//! record access per child *interval* — the cost model the paper's
//! partitioning algorithms optimize — pays it in document order, and
//! moving between the nodes of a held record is reading its bytes.

use std::collections::HashMap;
use std::rc::Rc;

use natix_store::{
    ChildEntry, EntryCursor, NodeRef, RecordData, StoreError, StoreResult, XmlStore,
};
use natix_tree::NodeId;
use natix_xml::{Document, NodeKind};

/// Cursor-style navigation over some XML node representation.
pub trait Navigator {
    /// Node handle.
    type Node: Copy + Eq + Ord + std::hash::Hash + std::fmt::Debug;
    /// A document-order walk over a subtree, attributes included.
    type Walk;

    /// A walk over the children of `n` — of the virtual root, which is
    /// the root element alone, when `n` is `None`. A `deep` walk goes on
    /// below each element before the siblings after it: a preorder over
    /// all of the subtree.
    fn walk_below(&mut self, n: Option<Self::Node>, deep: bool) -> StoreResult<Self::Walk>;
    /// The walk's next node, with its kind and label (`label` compares
    /// against [`Navigator::resolve_label`]); `None` when it is over.
    fn walk_next(
        &mut self,
        walk: &mut Self::Walk,
    ) -> StoreResult<Option<(Self::Node, NodeKind, u32)>>;
    /// Leave out what a deep walk would visit below the element
    /// [`Navigator::walk_next`] has just returned.
    fn walk_skip(&mut self, walk: &mut Self::Walk);
    /// Kind and label of a node.
    fn info(&mut self, n: Self::Node) -> StoreResult<(NodeKind, u32)>;
    /// The label id for `name`, if the document contains it at all.
    fn resolve_label(&mut self, name: &str) -> StoreResult<Option<u32>>;
    /// Content string of a node (attribute value, text data); `None` for
    /// elements.
    fn content(&mut self, n: Self::Node) -> StoreResult<Option<String>>;
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

impl<'a> Navigator for MemNavigator<'a> {
    type Node = NodeId;
    type Walk = MemWalk<'a>;

    fn walk_below(&mut self, n: Option<NodeId>, deep: bool) -> StoreResult<MemWalk<'a>> {
        let first = match n {
            None => std::slice::from_ref(&NodeId::ROOT),
            Some(n) => self.doc.tree().children(n),
        };
        Ok(MemWalk {
            deep,
            lists: vec![first.iter()],
        })
    }

    fn walk_next(
        &mut self,
        walk: &mut MemWalk<'a>,
    ) -> StoreResult<Option<(NodeId, NodeKind, u32)>> {
        while let Some(list) = walk.lists.last_mut() {
            if let Some(&n) = list.next() {
                let kind = self.doc.kind(n);
                if walk.deep && kind == NodeKind::Element {
                    walk.lists.push(self.doc.tree().children(n).iter());
                }
                return Ok(Some((n, kind, self.doc.tree().label(n).0)));
            }
            walk.lists.pop();
        }
        Ok(None)
    }

    fn walk_skip(&mut self, walk: &mut MemWalk<'a>) {
        walk.lists.pop();
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

/// A walk over an in-memory document: an iterator per child list it is
/// in, the deepest last.
pub struct MemWalk<'a> {
    deep: bool,
    lists: Vec<std::slice::Iter<'a, NodeId>>,
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

/// A walk over stored nodes: one cursor per child list it is in, the
/// deepest last, each with the place in `held` of the record it reads.
/// `held` keeps those records from where the walk entered them — its
/// start, or a proxy entry — until the last list in them ends, so the
/// walk reads each once and never looks one up again.
pub struct StoreWalk {
    deep: bool,
    lists: Vec<(EntryCursor, usize)>,
    held: Vec<Rc<RecordData>>,
}

impl Navigator for StoreNavigator<'_> {
    type Node = NodeRef;
    type Walk = StoreWalk;

    fn walk_below(&mut self, n: Option<NodeRef>, deep: bool) -> StoreResult<StoreWalk> {
        let (rec, at) = match n {
            None => {
                let root = self.store.root()?;
                let rec = self.store.fetch(root.record)?;
                (rec.clone(), rec.root_cursor())
            }
            Some(n) => {
                let rec = self.store.fetch(n.record)?;
                let node = rec.get(n.node).ok_or(StoreError::BadRecord(n.record))?;
                (rec.clone(), rec.child_cursor(&node))
            }
        };
        Ok(StoreWalk {
            deep,
            lists: vec![(at, 0)],
            held: vec![rec],
        })
    }

    // Inlined into the evaluator's loops, with the record accessors it
    // calls: without it the walk pays a call a node.
    #[inline(always)]
    fn walk_next(&mut self, walk: &mut StoreWalk) -> StoreResult<Option<(NodeRef, NodeKind, u32)>> {
        while let Some(&mut (ref mut at, r)) = walk.lists.last_mut() {
            let rec = &walk.held[r];
            match rec.next_entry(at) {
                Some(ChildEntry::Local(node)) => {
                    let n = rec.node(node);
                    if walk.deep && n.kind == NodeKind::Element {
                        walk.lists.push((rec.child_cursor(&n), r));
                    }
                    let record = rec.self_no;
                    return Ok(Some((NodeRef { record, node }, n.kind, u32::from(n.label))));
                }
                Some(ChildEntry::Proxy(no)) => {
                    let rec = self.store.fetch(no)?;
                    walk.lists.push((rec.root_cursor(), walk.held.len()));
                    walk.held.push(rec);
                }
                None => {
                    walk.lists.pop();
                    let in_use = walk.lists.last().map_or(0, |&(_, r)| r + 1);
                    walk.held.truncate(in_use);
                }
            }
        }
        Ok(None)
    }

    #[inline]
    fn walk_skip(&mut self, walk: &mut StoreWalk) {
        // The list below an element reads the element's record, which
        // the list above it still holds.
        walk.lists.pop();
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

#[cfg(test)]
mod tests {
    use natix_core::{Ekm, Partitioner};
    use natix_store::{MemPager, StoreConfig};

    use super::*;

    const XML: &str = "<a><b><c/><c/></b><d><b><e/></b><c/></d></a>";

    /// The labels a walk below `below` yields, leaving out what lies
    /// below each `b` when `deep`.
    fn walk<N: Navigator>(nav: &mut N, below: Option<N::Node>, deep: bool) -> Vec<u32> {
        let b = nav.resolve_label("b").unwrap();
        let mut walk = nav.walk_below(below, deep).unwrap();
        let mut labels = Vec::new();
        while let Some((_, kind, label)) = nav.walk_next(&mut walk).unwrap() {
            labels.push(label);
            if deep && kind == NodeKind::Element && Some(label) == b {
                nav.walk_skip(&mut walk);
            }
        }
        labels
    }

    fn labels<N: Navigator>(nav: &mut N, names: &str) -> Vec<u32> {
        let names = names.split(' ');
        names
            .map(|n| nav.resolve_label(n).unwrap().unwrap())
            .collect()
    }

    /// Both navigators walk in document order, skip what they are told
    /// to, and stay on one level when not deep — the store's across
    /// every record boundary a layout puts in the way.
    #[test]
    fn walks_skip_and_stay_shallow_alike() {
        let doc = natix_xml::parse(XML).unwrap();
        let mut mem = MemNavigator::new(&doc);
        let root = Some(NodeId::ROOT);
        assert_eq!(walk(&mut mem, None, true), labels(&mut mem, "a b d b c"));
        assert_eq!(walk(&mut mem, root, false), labels(&mut mem, "b d"));
        for k in 1..=doc.tree().total_weight() {
            let p = Ekm.partition(doc.tree(), k).unwrap();
            let pager = Box::new(MemPager::new());
            let mut store = XmlStore::bulkload(&doc, &p, pager, StoreConfig::default()).unwrap();
            let root = Some(store.root().unwrap());
            let mut nav = StoreNavigator::new(&mut store);
            assert_eq!(
                walk(&mut nav, None, true),
                labels(&mut nav, "a b d b c"),
                "K={k}"
            );
            assert_eq!(
                walk(&mut nav, root, false),
                labels(&mut nav, "b d"),
                "K={k}"
            );
        }
    }
}
