//! Node-at-a-time update tests: insertions with record splits, subtree
//! deletions with record frees, and randomized update sequences checked
//! against a shadow in-memory document.

use natix_core::{Ekm, Km};
use natix_datagen::{xmark, GenConfig};
use natix_store::{
    bulkload_with, ChildEntry, MemPager, NodeRef, SharedMemPager, StoreConfig, StoreError, XmlStore,
};
use natix_xml::{parse, Document, NodeKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn load(xml: &str, k: u64) -> (Document, XmlStore) {
    let doc = parse(xml).unwrap();
    let store = bulkload_with(
        &doc,
        &Ekm,
        k,
        Box::new(MemPager::new()),
        StoreConfig {
            record_limit_slots: k,
            ..Default::default()
        },
    )
    .unwrap();
    (doc, store)
}

/// Find a stored node by element name via a full scan.
fn find_element(store: &mut XmlStore, name: &str) -> Option<NodeRef> {
    let want = store.label_id(name)?;
    let root = store.root().unwrap();
    let mut stack = vec![root];
    while let Some(r) = stack.pop() {
        if store.node_label(r).unwrap() == want {
            return Some(r);
        }
        let mut kids = Vec::new();
        store
            .for_each_child(r, |c, kind, _| {
                if kind == NodeKind::Element {
                    kids.push(c);
                }
            })
            .unwrap();
        stack.extend(kids);
    }
    None
}

#[test]
fn append_without_split() {
    let (_, mut store) = load("<a><b/><c/></a>", 100);
    let root = store.root().unwrap();
    let new = store
        .append_child(root, NodeKind::Element, "d", None)
        .unwrap();
    assert_eq!(store.node_kind(new).unwrap(), NodeKind::Element);
    let back = store.to_document().unwrap();
    assert_eq!(back.to_xml(), "<a><b/><c/><d/></a>");
}

#[test]
fn insert_before_local_sibling() {
    let (_, mut store) = load("<a><b/><d/></a>", 100);
    let d = find_element(&mut store, "d").unwrap();
    store
        .insert_before(d, NodeKind::Element, "c", None)
        .unwrap();
    assert_eq!(store.to_document().unwrap().to_xml(), "<a><b/><c/><d/></a>");
}

#[test]
fn insert_text_and_attribute() {
    let (_, mut store) = load("<a><b/></a>", 100);
    let b = find_element(&mut store, "b").unwrap();
    store
        .append_child(b, NodeKind::Attribute, "id", Some("b1"))
        .unwrap();
    let b = find_element(&mut store, "b").unwrap();
    store
        .append_child(b, NodeKind::Text, "#text", Some("hello"))
        .unwrap();
    assert_eq!(
        store.to_document().unwrap().to_xml(),
        r#"<a><b id="b1">hello</b></a>"#
    );
}

#[test]
fn repeated_appends_force_splits() {
    // K = 16 slots: each text child is 1 (elem) + 2 (9-byte text) slots, so
    // the root record must split repeatedly.
    let (_, mut store) = load("<list></list>", 16);
    let initial_records = store.record_count();
    for i in 0..40 {
        let root = store.root().unwrap();
        let e = store
            .append_child(root, NodeKind::Element, "entry", None)
            .unwrap();
        store
            .append_child(e, NodeKind::Text, "#text", Some(&format!("v{i:06}")))
            .unwrap();
    }
    assert!(
        store.record_count() > initial_records + 5,
        "expected many splits, got {} records",
        store.record_count()
    );
    let back = store.to_document().unwrap();
    let tree = back.tree();
    assert_eq!(tree.child_count(back.root()), 40);
    // Order preserved.
    for (i, &c) in tree.children(back.root()).iter().enumerate() {
        let t = tree.children(c)[0];
        assert_eq!(back.content(t), Some(format!("v{i:06}").as_str()));
    }
}

#[test]
fn inserting_rejects_oversized_node() {
    let (_, mut store) = load("<a/>", 8);
    let root = store.root().unwrap();
    let big = "x".repeat(1000);
    assert!(store
        .append_child(root, NodeKind::Text, "#text", Some(&big))
        .is_err());
}

#[test]
fn delete_leaf_and_subtree() {
    let (_, mut store) = load("<a><b><x/><y/></b><c/></a>", 100);
    let b = find_element(&mut store, "b").unwrap();
    store.delete_subtree(b).unwrap();
    assert_eq!(store.to_document().unwrap().to_xml(), "<a><c/></a>");
    let c = find_element(&mut store, "c").unwrap();
    store.delete_subtree(c).unwrap();
    assert_eq!(store.to_document().unwrap().to_xml(), "<a/>");
}

#[test]
fn delete_spanning_records_frees_them() {
    // Tiny K: the document spreads over many records; deleting a subtree
    // must free all of them.
    let (doc, mut store) = load(
        concat!(
            "<a><b><p>a rather long run of text that will not fit</p>",
            "<q>another rather long run of text that will not fit</q></b>",
            "<c><r>yet another rather long run of text here</r></c></a>",
        ),
        8,
    );
    assert!(store.record_count() > 3);
    let before = store.live_record_count();
    let b = find_element(&mut store, "b").unwrap();
    store.delete_subtree(b).unwrap();
    assert!(store.live_record_count() < before);
    let back = store.to_document().unwrap();
    assert_eq!(
        back.to_xml(),
        "<a><c><r>yet another rather long run of text here</r></c></a>"
    );
    let _ = doc;
}

#[test]
fn cannot_delete_document_root() {
    let (_, mut store) = load("<a><b/></a>", 100);
    let root = store.root().unwrap();
    assert!(store.delete_subtree(root).is_err());
}

#[test]
fn root_has_no_siblings() {
    let (_, mut store) = load("<a><b/></a>", 100);
    let root = store.root().unwrap();
    assert!(store
        .insert_before(root, NodeKind::Element, "x", None)
        .is_err());
}

/// Randomized update sequences, mirrored against an in-memory shadow
/// document rebuilt after every operation.
#[test]
fn randomized_updates_match_shadow() {
    let mut rng = StdRng::seed_from_u64(1234);
    for round in 0..8 {
        let k = [12u64, 24, 64, 256][round % 4];
        let (_, mut store) = load("<root><a>seed text</a><b/><c><d/></c></root>", k);
        for step in 0..60 {
            // Re-derive a target from the current document state.
            let shadow = store.to_document().unwrap();
            let tree = shadow.tree();
            let elements: Vec<_> = tree.node_ids().filter(|&v| shadow.is_element(v)).collect();
            let pick = elements[rng.gen_range(0..elements.len())];
            let pick_name = shadow.name(pick).to_string();
            let op = rng.gen_range(0..10u32);
            if op < 6 {
                // Append a child (element or text) to `pick`.
                let target = find_element(&mut store, &pick_name).unwrap();
                if rng.gen_bool(0.5) {
                    store
                        .append_child(target, NodeKind::Element, &format!("n{step}"), None)
                        .unwrap();
                } else {
                    let text = format!("text number {step} with some padding");
                    store
                        .append_child(target, NodeKind::Text, "#text", Some(&text))
                        .unwrap();
                }
            } else if op < 8 {
                // Insert an element before `pick` (unless it is the root).
                if tree.parent(pick).is_some() {
                    let target = find_element(&mut store, &pick_name).unwrap();
                    store
                        .insert_before(target, NodeKind::Element, &format!("s{step}"), None)
                        .unwrap();
                }
            } else {
                // Delete `pick` (unless it is the root).
                if tree.parent(pick).is_some() {
                    let target = find_element(&mut store, &pick_name).unwrap();
                    store.delete_subtree(target).unwrap();
                }
            }
            // Invariant: every record respects the weight limit.
            store.check_record_weights().unwrap();
        }
        // The store still reconstructs a coherent document.
        let final_doc = store.to_document().unwrap();
        assert!(!final_doc.is_empty());
    }
}

#[test]
fn updates_persist_across_reopen() {
    use natix_store::FilePager;
    let dir = std::env::temp_dir().join(format!("natix-upd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("upd.natix");
    let doc = parse("<a><b/></a>").unwrap();
    let expected;
    {
        let pager = FilePager::create(&path).unwrap();
        let mut store = bulkload_with(
            &doc,
            &Km,
            64,
            Box::new(pager),
            StoreConfig {
                record_limit_slots: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let root = store.root().unwrap();
        store
            .append_child(root, NodeKind::Element, "c", None)
            .unwrap();
        expected = store.to_document().unwrap().to_xml();
        store.commit().unwrap();
    }
    {
        let pager = FilePager::open(&path).unwrap();
        let mut store = XmlStore::open(Box::new(pager), StoreConfig::default()).unwrap();
        assert_eq!(store.to_document().unwrap().to_xml(), expected);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bulk_updates_on_generated_document() {
    let doc = xmark(GenConfig {
        scale: 0.002,
        seed: 99,
    });
    let mut store = bulkload_with(
        &doc,
        &Ekm,
        256,
        Box::new(MemPager::new()),
        StoreConfig::default(),
    )
    .unwrap();
    // Grow every region with extra items.
    for i in 0..30 {
        let regions = find_element(&mut store, "regions").unwrap();
        let item = store
            .append_child(regions, NodeKind::Element, "late_item", None)
            .unwrap();
        store
            .append_child(
                item,
                NodeKind::Text,
                "#text",
                Some(&format!("late content number {i} of considerable length")),
            )
            .unwrap();
    }
    store.check_record_weights().unwrap();
    let back = store.to_document().unwrap();
    assert_eq!(back.len(), doc.len() + 60);
}

/// First element child (anywhere in the tree) stored in a different
/// record than its parent — i.e. an element fragment root reached
/// through a proxy entry.
fn proxied_element_child(store: &mut XmlStore) -> Option<NodeRef> {
    let root = store.root().unwrap();
    let mut stack = vec![root];
    while let Some(r) = stack.pop() {
        let mut found = None;
        let mut kids = Vec::new();
        store
            .for_each_child(r, |c, kind, _| {
                if kind == NodeKind::Element {
                    if c.record != r.record && found.is_none() {
                        found = Some(c);
                    }
                    kids.push(c);
                }
            })
            .unwrap();
        if found.is_some() {
            return found;
        }
        stack.extend(kids);
    }
    None
}

/// Four sibling subtrees of weight 5 at K = 8: no two fit together, so
/// at least one element child of the root sits behind a proxy.
const PROXY_HEAVY: &str = concat!(
    "<a><b>text weight of four slots aa</b><c>text weight of four slots bb</c>",
    "<d>text weight of four slots cc</d><e>text weight of four slots dd</e></a>",
);

#[test]
fn insert_before_a_fragment_root() {
    let (_, mut store) = load(PROXY_HEAVY, 8);
    let target = proxied_element_child(&mut store).expect("some element is behind a proxy");
    let name = {
        let label = store.node_label(target).unwrap();
        store.label_name(label).to_string()
    };
    let before = store.to_document().unwrap().to_xml();
    store
        .insert_before(target, NodeKind::Element, "mid", None)
        .unwrap();
    store.check_consistency().unwrap();
    let expected = before.replacen(&format!("<{name}>"), &format!("<mid/><{name}>"), 1);
    assert_eq!(store.to_document().unwrap().to_xml(), expected);
}

#[test]
fn delete_last_local_child_behind_a_proxy() {
    let (_, mut store) = load(PROXY_HEAVY, 8);
    let target = proxied_element_child(&mut store).expect("some element is behind a proxy");
    let name = {
        let label = store.node_label(target).unwrap();
        store.label_name(label).to_string()
    };
    // The proxied element's only child (its text) lives in the same
    // record: deleting it empties the fragment root's local subtree.
    let mut text_child = None;
    store
        .for_each_child(target, |c, kind, _| {
            if kind == NodeKind::Text {
                text_child = Some(c);
            }
        })
        .unwrap();
    let text_child = text_child.expect("proxied element has a text child");
    assert_eq!(
        text_child.record, target.record,
        "text is local to the proxied record"
    );
    let before = store.to_document().unwrap().to_xml();
    store.delete_subtree(text_child).unwrap();
    store.check_consistency().unwrap();
    let emptied = before.replacen(
        &format!("<{name}>text weight of four slots"),
        &format!("<{name}>"),
        1,
    );
    // Drop the remainder of the deleted text (" aa</x>" etc. varies).
    let emptied = {
        let open = format!("<{name}>");
        let close = format!("</{name}>");
        let i = emptied.find(&open).unwrap() + open.len();
        let j = emptied.find(&close).unwrap();
        format!("{}{}", &emptied[..i], &emptied[j..]).replacen(
            &format!("<{name}></{name}>"),
            &format!("<{name}/>"),
            1,
        )
    };
    assert_eq!(store.to_document().unwrap().to_xml(), emptied);
    // Deleting the emptied fragment root itself frees its record.
    let live = store.live_record_count();
    let target = find_element(&mut store, &name).unwrap();
    store.delete_subtree(target).unwrap();
    store.check_consistency().unwrap();
    assert!(store.live_record_count() < live, "proxied record not freed");
}

#[test]
fn single_node_exactly_at_weight_k_is_accepted() {
    const K: u64 = 8;
    let (_, mut store) = load("<a/>", K);
    // 56 content bytes = 7 slots, plus the metadata slot: exactly K.
    let text = "x".repeat(8 * (K as usize - 1));
    assert_eq!(natix_xml::node_weight(NodeKind::Text, text.len()), K);
    let root = store.root().unwrap();
    store
        .append_child(root, NodeKind::Text, "#text", Some(&text))
        .unwrap();
    store.check_consistency().unwrap();
    // One more byte tips the node over the limit and must be rejected...
    let too_big = "x".repeat(8 * (K as usize - 1) + 1);
    let root = store.root().unwrap();
    assert!(store
        .append_child(root, NodeKind::Text, "#text", Some(&too_big))
        .is_err());
    // ...and the failed insert rolled back cleanly.
    store.check_consistency().unwrap();
    assert_eq!(
        store.to_document().unwrap().to_xml(),
        format!("<a>{text}</a>")
    );
}

/// Ten childless siblings at K = 4 leave sibling-interval records that
/// hold nothing but fragment roots. An insert before one of them in a
/// full record splits the interval: the suffix half of the roots moves
/// to a fresh record whose proxy follows the old record's in the parent.
#[test]
fn insert_before_a_root_of_a_full_interval_splits_it() {
    const K: u64 = 4;
    let doc = parse(&format!("<a>{}</a>", "<b/>".repeat(10))).unwrap();
    let config = StoreConfig {
        record_limit_slots: K,
        ..Default::default()
    };
    let disk = SharedMemPager::new();
    let mut store = bulkload_with(&doc, &Ekm, K, Box::new(disk.clone()), config).unwrap();
    store.check_consistency().unwrap();

    // The first child of `<a>` stored in a record of K roots, and its
    // position among the children.
    let root = store.root().unwrap();
    let mut children = Vec::new();
    store
        .for_each_child(root, |c, _, _| children.push(c))
        .unwrap();
    let (at_child, target) = children
        .iter()
        .copied()
        .enumerate()
        .find(|(_, c)| {
            c.record != root.record
                && store.with_record(c.record, |r| r.roots.len()).unwrap() == K as usize
        })
        .expect("a full interval record");
    let old = target.record;
    let (parent, parent_local, proxy_pos, at_root) = store
        .with_record(old, |r| {
            let at = r.root_pos(target.node).unwrap();
            (r.parent_record, r.parent_local, r.proxy_pos, at)
        })
        .unwrap();
    assert_eq!(parent, root.record);

    let new = store
        .insert_before(target, NodeKind::Element, "new", None)
        .unwrap();
    assert_eq!(store.node_kind(new).unwrap(), NodeKind::Element);
    let label = store.node_label(new).unwrap();
    assert_eq!(store.label_name(label), "new");

    // The two halves are adjacent proxies in the parent...
    let entries: Vec<ChildEntry> = store
        .with_record(parent, |r| r.entries(&r.node(parent_local)).collect())
        .unwrap();
    assert_eq!(entries[proxy_pos as usize], ChildEntry::Proxy(old));
    let ChildEntry::Proxy(half) = entries[proxy_pos as usize + 1] else {
        panic!("no proxy after the split record's: {entries:?}");
    };
    // ...and their root lists together are the old list plus the new node.
    let mut roots = Vec::new();
    for no in [old, half] {
        let locals = store.with_record(no, |r| r.roots.clone()).unwrap();
        roots.extend(locals.into_iter().map(|node| NodeRef { record: no, node }));
    }
    assert_eq!(roots.len(), K as usize + 1);
    assert_eq!(roots[at_root], new);
    let b = store.label_id("b").unwrap();
    for (i, &r) in roots.iter().enumerate() {
        let want = if i == at_root { label } else { b };
        assert_eq!(store.node_label(r).unwrap(), want, "root {i}");
    }

    // Document order holds, before and after a reopen.
    let want = format!(
        "<a>{}<new/>{}</a>",
        "<b/>".repeat(at_child),
        "<b/>".repeat(10 - at_child)
    );
    store.check_consistency().unwrap();
    assert_eq!(store.to_document().unwrap().to_xml(), want);
    drop(store);
    let mut store = XmlStore::open(Box::new(disk), config).unwrap();
    store.check_consistency().unwrap();
    assert_eq!(store.to_document().unwrap().to_xml(), want);
}

/// A `NodeRef` a split left past its record's node count is refused with
/// `InvalidUpdate` by every update, and the store is left as it was.
#[test]
fn a_ref_a_split_invalidated_is_an_invalid_update() {
    let (_, mut store) = load("<a><b/></a>", 64);
    let root = store.root().unwrap();
    let held = store
        .append_child(root, NodeKind::Element, "x", None)
        .unwrap();
    // Grow `x` through a fresh ref each time, until a split moves it
    // out from under the held one.
    let mut appended = 0;
    while store.node_kind(held).is_ok() {
        assert!(appended < 400, "no split invalidated the held ref");
        let x = find_element(&mut store, "x").unwrap();
        store
            .append_child(x, NodeKind::Text, "#text", Some("some text"))
            .unwrap();
        appended += 1;
    }
    let before = store.to_document().unwrap().to_xml();
    let stale = |r: Result<(), StoreError>| {
        assert!(matches!(r, Err(StoreError::InvalidUpdate(_))), "{r:?}");
    };
    stale(
        store
            .append_child(held, NodeKind::Element, "y", None)
            .map(|_| ()),
    );
    stale(
        store
            .insert_before(held, NodeKind::Element, "y", None)
            .map(|_| ()),
    );
    stale(store.delete_subtree(held));
    store.check_consistency().unwrap();
    assert_eq!(store.to_document().unwrap().to_xml(), before);
}
