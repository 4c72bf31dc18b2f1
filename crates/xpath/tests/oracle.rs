//! An oracle the evaluator shares no code with. `equivalence.rs` compares
//! the evaluator with itself over two navigators, so a lost dedup or a
//! wrong segment break would agree with itself; here a naive reference —
//! one step at a time, set semantics straight from the axis definitions
//! over [`Document`] — judges random paths over every axis with nested
//! predicates, on small random documents and on an XMark slice, for every
//! layout of [`evaluation_algorithms`] at four record limits.

use std::collections::{BTreeSet, HashMap};

use natix_core::{evaluation_algorithms, Partitioner};
use natix_datagen::{xmark, GenConfig};
use natix_store::{ChildEntry, MemPager, NodeRef, StoreConfig, XmlStore};
use natix_tree::NodeId;
use natix_xml::{Document, NodeKind};
use natix_xpath::{eval, parse, Axis, Expr, MemNavigator, NodeTest, Path, Step, StoreNavigator};
use proptest::prelude::*;

/// A context node; `None` is the virtual root above the root element.
type Ctx = Option<NodeId>;

/// The nodes `axis` reaches from `c`, by definition.
fn axis_nodes(doc: &Document, c: Ctx, axis: Axis) -> Vec<Ctx> {
    let tree = doc.tree();
    let attr = |n: NodeId| doc.kind(n) == NodeKind::Attribute;
    let kids = |c: Ctx| -> Vec<NodeId> {
        match c {
            None => vec![doc.root()],
            Some(n) => tree.children(n).to_vec(),
        }
    };
    let below = |c: Ctx| -> Vec<Ctx> {
        let mut out = Vec::new();
        let mut todo = vec![c];
        while let Some(x) = todo.pop() {
            for k in kids(x).into_iter().filter(|&k| !attr(k)) {
                out.push(Some(k));
                todo.push(Some(k));
            }
        }
        out
    };
    let above = |c: Ctx| -> Vec<Ctx> {
        let mut out = Vec::new();
        let mut cur = c;
        while let Some(n) = cur {
            cur = tree.parent(n);
            out.push(cur);
        }
        out
    };
    let siblings = |after: bool| -> Vec<Ctx> {
        let Some(n) = c.filter(|&n| !attr(n)) else {
            return Vec::new();
        };
        let all = kids(tree.parent(n));
        let at = all.iter().position(|&s| s == n).unwrap();
        let side = if after { &all[at + 1..] } else { &all[..at] };
        side.iter()
            .filter(|&&s| !attr(s))
            .map(|&s| Some(s))
            .collect()
    };
    let own = |want_attr: bool| -> Vec<Ctx> {
        let own = kids(c).into_iter().filter(|&k| attr(k) == want_attr);
        own.map(Some).collect()
    };
    match axis {
        Axis::Child => own(false),
        Axis::Attribute => c.map_or(Vec::new(), |_| own(true)),
        Axis::Descendant => below(c),
        Axis::DescendantOrSelf => [vec![c], below(c)].concat(),
        Axis::SelfAxis => vec![c],
        Axis::Parent => above(c).into_iter().take(1).collect(),
        Axis::Ancestor => above(c),
        Axis::AncestorOrSelf => [vec![c], above(c)].concat(),
        Axis::FollowingSibling => siblings(true),
        Axis::PrecedingSibling => siblings(false),
    }
}

fn passes(doc: &Document, c: Ctx, step: &Step) -> bool {
    let principal = match step.axis {
        Axis::Attribute => NodeKind::Attribute,
        _ => NodeKind::Element,
    };
    let kind = c.map(|n| doc.kind(n));
    let test = match &step.test {
        NodeTest::AnyNode => true,
        NodeTest::Wildcard => kind == Some(principal),
        NodeTest::Text => kind == Some(NodeKind::Text),
        NodeTest::Name(name) => kind == Some(principal) && doc.name(c.unwrap()) == name,
    };
    test && step.predicates.iter().all(|p| holds(doc, c, p))
}

fn string_value(doc: &Document, n: NodeId) -> String {
    match doc.content(n) {
        Some(s) => s.to_string(),
        None => {
            let texts = axis_nodes(doc, Some(n), Axis::Descendant)
                .into_iter()
                .flatten();
            let mut texts: Vec<NodeId> = texts.filter(|&t| doc.kind(t) == NodeKind::Text).collect();
            texts.sort();
            texts.iter().map(|&t| doc.content(t).unwrap()).collect()
        }
    }
}

fn holds(doc: &Document, c: Ctx, expr: &Expr) -> bool {
    match expr {
        Expr::Or(a, b) => holds(doc, c, a) || holds(doc, c, b),
        Expr::And(a, b) => holds(doc, c, a) && holds(doc, c, b),
        Expr::Path(p) => !reference(doc, c, p).is_empty(),
        Expr::Equals(p, lit) => {
            let mut hits = reference(doc, c, p).into_iter().flatten();
            hits.any(|n| string_value(doc, n) == *lit)
        }
    }
}

/// The node-set `path` selects from `origin`, as an ordered set: node ids
/// are in document order, the virtual root before all.
fn reference(doc: &Document, origin: Ctx, path: &Path) -> BTreeSet<Ctx> {
    let mut set = BTreeSet::from([if path.absolute { None } else { origin }]);
    for step in &path.steps {
        let reached = set.iter().flat_map(|&c| axis_nodes(doc, c, step.axis));
        set = reached.filter(|&c| passes(doc, c, step)).collect();
    }
    set
}

/// A small deterministic generator (splitmix64) for documents and paths.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn pick<'a>(&mut self, of: &[&'a str]) -> &'a str {
        of[self.below(of.len())]
    }
}

/// The names and literals paths are drawn from.
struct Vocabulary {
    elements: &'static [&'static str],
    attributes: &'static [&'static str],
    literals: &'static [&'static str],
}

const SMALL: Vocabulary = Vocabulary {
    elements: &["a", "b", "c", "d"],
    attributes: &["x", "y"],
    literals: &["1", "2", "t", "1t", "12"],
};

const XMARK: Vocabulary = Vocabulary {
    elements: &[
        "item",
        "keyword",
        "listitem",
        "text",
        "parlist",
        "mail",
        "name",
        "description",
        "bold",
        "emph",
        "mailbox",
        "regions",
        "site",
    ],
    attributes: &["id", "person", "category"],
    literals: &["item3", "person0", "category1"],
};

const AXES: [Axis; 10] = [
    Axis::Child,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::SelfAxis,
    Axis::Parent,
    Axis::Ancestor,
    Axis::AncestorOrSelf,
    Axis::Attribute,
    Axis::FollowingSibling,
    Axis::PrecedingSibling,
];

fn random_xml(g: &mut Gen, depth: usize, out: &mut String) {
    let name = g.pick(SMALL.elements);
    out.push_str(&format!("<{name}"));
    for attr in SMALL.attributes {
        if g.below(4) == 0 {
            out.push_str(&format!(" {attr}=\"{}\"", g.pick(&["1", "2"])));
        }
    }
    out.push('>');
    let mut last_was_text = false;
    for _ in 0..g.below(if depth == 0 { 1 } else { 5 }) {
        if g.below(3) == 0 && !last_was_text {
            out.push_str(g.pick(&["1", "2", "t"]));
            last_was_text = true;
        } else {
            random_xml(g, depth - 1, out);
            last_was_text = false;
        }
    }
    out.push_str(&format!("</{name}>"));
}

fn random_step(g: &mut Gen, v: &Vocabulary, depth: usize) -> Step {
    // The first four — child, the two downward walks, self — twice as
    // often as the rest.
    let axis = match g.below(14) {
        i if i < 10 => AXES[i],
        i => AXES[i - 10],
    };
    let names = match axis {
        Axis::Attribute => v.attributes,
        _ => v.elements,
    };
    let test = match g.below(10) {
        0 => NodeTest::Wildcard,
        1 | 2 => NodeTest::AnyNode,
        3 => NodeTest::Text,
        _ => NodeTest::Name(g.pick(names).to_string()),
    };
    let mut predicates = Vec::new();
    while depth > 0 && g.below(4) == 0 {
        predicates.push(random_expr(g, v, depth - 1));
    }
    Step {
        axis,
        test,
        predicates,
    }
}

fn random_expr(g: &mut Gen, v: &Vocabulary, depth: usize) -> Expr {
    match g.below(if depth == 0 { 4 } else { 6 }) {
        0..=2 => Expr::Path(random_path(g, v, depth)),
        3 => Expr::Equals(random_path(g, v, depth), g.pick(v.literals).to_string()),
        4 => Expr::Or(
            random_expr(g, v, depth - 1).into(),
            random_expr(g, v, depth - 1).into(),
        ),
        _ => Expr::And(
            random_expr(g, v, depth - 1).into(),
            random_expr(g, v, depth - 1).into(),
        ),
    }
}

fn random_path(g: &mut Gen, v: &Vocabulary, depth: usize) -> Path {
    // Some paths are shapes the segment rules and the two rewrites exist
    // for (or must leave alone), parsed from text so the `//`
    // abbreviation is what the parser makes of it.
    let (a, b, c) = (g.pick(v.elements), g.pick(v.elements), g.pick(v.elements));
    let shaped = match g.below(16) {
        0 => format!("//{a}//{b}"),
        1 => format!("//{a}/ancestor::{b}/{c}"),
        2 => format!("{a}/..//{b}"),
        3 => format!("/descendant-or-self::{a}/descendant::{b}[.//{c}]"),
        4 => format!("/descendant::node()/descendant::{a}"),
        5 => format!("descendant-or-self::node()[{a}]/{b}"),
        _ => String::new(),
    };
    if !shaped.is_empty() {
        return parse(&shaped).unwrap();
    }
    Path {
        // A relative path in a predicate starts at the candidate; at the
        // top it starts at the root, like an absolute one.
        absolute: g.below(2) == 0,
        steps: (0..1 + g.below(4))
            .map(|_| random_step(g, v, depth))
            .collect(),
    }
}

/// What a hit looks like whichever backend found it.
fn render(doc: &Document, n: NodeId) -> (String, String) {
    let content = doc.content(n).unwrap_or_default();
    (doc.name(n).to_string(), content.to_string())
}

/// Check `paths` against the reference: the in-memory evaluation must
/// return the very sequence, every stored layout the same multiset in
/// strictly ascending `NodeRef` order.
fn check(doc: &Document, paths: &[Path]) -> Result<(), TestCaseError> {
    let mut expected = Vec::new();
    for path in paths {
        let want: Vec<NodeId> = reference(doc, None, path).into_iter().flatten().collect();
        let got = eval(&mut MemNavigator::new(doc), path).unwrap();
        prop_assert_eq!(&got, &want, "in memory: {}", path);
        let mut lines: Vec<_> = want.iter().map(|&n| render(doc, n)).collect();
        lines.sort();
        expected.push(lines);
    }
    let min_k = doc.tree().max_node_weight();
    for alg in evaluation_algorithms() {
        for k in [min_k, min_k + 7, min_k.max(64), min_k.max(256)] {
            let p = alg.partition(doc.tree(), k).unwrap();
            let mut store =
                XmlStore::bulkload(doc, &p, Box::new(MemPager::new()), StoreConfig::default())
                    .unwrap();
            for (path, want) in paths.iter().zip(&expected) {
                let hits = eval(&mut StoreNavigator::new(&mut store), path).unwrap();
                prop_assert!(
                    hits.windows(2).all(|w| w[0] < w[1]),
                    "{} K={}: not ascending and duplicate-free: {}",
                    alg.name(),
                    k,
                    path
                );
                let mut lines = Vec::new();
                for &hit in &hits {
                    let label = store.node_label(hit).unwrap();
                    let content = store.node_content(hit).unwrap().unwrap_or_default();
                    lines.push((store.label_name(label).to_string(), content));
                }
                lines.sort();
                prop_assert_eq!(&lines, want, "{} K={}: {}", alg.name(), k, path);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_paths_on_random_documents(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut xml = String::new();
        random_xml(&mut g, 4, &mut xml);
        let doc = natix_xml::parse(&xml).unwrap();
        let paths: Vec<Path> = (0..24).map(|_| random_path(&mut g, &SMALL, 2)).collect();
        check(&doc, &paths)?;
    }
}

#[test]
fn random_paths_on_an_xmark_slice() {
    let doc = xmark(GenConfig {
        scale: 0.001,
        seed: 77,
    });
    let mut g = Gen(0x6f72_6163_6c65);
    let paths: Vec<Path> = (0..120).map(|_| random_path(&mut g, &XMARK, 2)).collect();
    check(&doc, &paths).unwrap();
}

/// The store's nodes in document order, listed through
/// [`XmlStore::for_each_child`] rather than the evaluator's walk: position
/// `i` is the node that `to_document()` numbers `i`.
fn preorder(store: &mut XmlStore) -> Vec<(NodeRef, NodeKind)> {
    let mut out = Vec::new();
    let mut todo = vec![(store.root().unwrap(), NodeKind::Element)];
    while let Some((r, kind)) = todo.pop() {
        out.push((r, kind));
        let mut kids = Vec::new();
        store
            .for_each_child(r, |c, k, _| kids.push((c, k)))
            .unwrap();
        todo.extend(kids.into_iter().rev());
    }
    out
}

/// Records holding a node whose local children are listed out of local-id
/// order: what inserting before an older sibling leaves behind.
fn records_out_of_id_order(store: &mut XmlStore) -> usize {
    (0..store.record_count() as u32)
        .filter(|&no| {
            // A freed record has no bytes to read.
            let listed = store.with_record(no, |rec| {
                rec.nodes().any(|n| {
                    let locals = rec.entries(&n).filter_map(|e| match e {
                        ChildEntry::Local(i) => Some(i),
                        ChildEntry::Proxy(_) => None,
                    });
                    !locals.collect::<Vec<_>>().is_sorted()
                })
            });
            listed.unwrap_or(false)
        })
        .count()
}

/// One seeded update: append under an element, insert before a non-root
/// node, or delete a non-root subtree, so records split and move
/// intervals out.
fn random_update(g: &mut Gen, store: &mut XmlStore) {
    let nodes = preorder(store);
    let (kind, name, content) = match g.below(3) {
        0 => (NodeKind::Text, "", Some(g.pick(SMALL.literals))),
        _ => (NodeKind::Element, g.pick(SMALL.elements), None),
    };
    // Inserts and deletions need a node below the root; attributes take
    // no sibling before them.
    let below_root: Vec<NodeRef> = nodes[1..]
        .iter()
        .filter(|(_, k)| *k != NodeKind::Attribute)
        .map(|&(r, _)| r)
        .collect();
    let op = if below_root.is_empty() {
        0
    } else {
        g.below(10)
    };
    let r = match op {
        0..=4 => {
            let elements: Vec<NodeRef> = nodes
                .iter()
                .filter(|(_, k)| *k == NodeKind::Element)
                .map(|&(r, _)| r)
                .collect();
            let parent = elements[g.below(elements.len())];
            store.append_child(parent, kind, name, content).map(drop)
        }
        5..=7 => {
            let sibling = below_root[g.below(below_root.len())];
            store.insert_before(sibling, kind, name, content).map(drop)
        }
        _ if nodes.len() > 24 => store.delete_subtree(below_root[g.below(below_root.len())]),
        _ => Ok(()),
    };
    r.unwrap();
}

/// Paths whose descendant steps start at nested origins, or below a
/// wildcard, over the small vocabulary.
fn nested_origins(g: &mut Gen) -> Path {
    let (a, b) = (g.pick(SMALL.elements), g.pick(SMALL.elements));
    let x = g.pick(SMALL.elements);
    let text = match g.below(5) {
        0 => format!("//{a}//{b}"),
        1 => format!("//{a}/{b}"),
        2 => format!("/{x}/*//{b}"),
        3 => format!("//{a}//{b}[.//{x}]"),
        _ => format!("//{a}/descendant-or-self::node()/{b}"),
    };
    parse(&text).unwrap()
}

/// Stores that updates have reshaped: a random document bulkloaded at a
/// small record limit, then a seeded run of appends, inserts and
/// deletions that split records, move intervals out into new ones and
/// leave child lists whose entry order is not their local-id order. After
/// every few updates, random paths and paths from nested origins are
/// judged against the reference on the store's own `to_document()`, node
/// for node.
#[test]
fn random_paths_on_updated_stores() {
    let (mut splits, mut reordered) = (0, 0);
    for seed in 0..12u64 {
        let mut g = Gen(0x7570_6461_7465 ^ seed);
        let mut xml = String::new();
        random_xml(&mut g, 4, &mut xml);
        let doc = natix_xml::parse(&xml).unwrap();
        let k = doc.tree().max_node_weight().max(12);
        let p = natix_core::Ekm.partition(doc.tree(), k).unwrap();
        let config = StoreConfig {
            record_limit_slots: k,
            ..StoreConfig::default()
        };
        let mut store = XmlStore::bulkload(&doc, &p, Box::new(MemPager::new()), config).unwrap();
        let loaded = store.record_count();
        for round in 0..6 {
            for _ in 0..10 {
                random_update(&mut g, &mut store);
            }
            let doc = store.to_document().unwrap();
            let order = preorder(&mut store);
            assert_eq!(order.len(), doc.tree().len(), "seed {seed}");
            let id: HashMap<NodeRef, NodeId> = order
                .iter()
                .enumerate()
                .map(|(i, &(r, kind))| {
                    assert_eq!(doc.kind(NodeId::from_index(i)), kind, "seed {seed}");
                    (r, NodeId::from_index(i))
                })
                .collect();
            let mut paths: Vec<Path> = (0..16)
                .map(|i| match i % 2 {
                    0 => random_path(&mut g, &SMALL, 2),
                    _ => nested_origins(&mut g),
                })
                .collect();
            // A string-value is its text in document order: the root's
            // and three other elements' select them only if the walk
            // reads every child list in entry order.
            let elements: Vec<NodeId> = (0..order.len())
                .filter(|&i| order[i].1 == NodeKind::Element)
                .map(NodeId::from_index)
                .collect();
            for i in 0..4 {
                let n = match i {
                    0 => NodeId::ROOT,
                    _ => elements[g.below(elements.len())],
                };
                let text = format!("//{}[. = '{}']", doc.name(n), string_value(&doc, n));
                paths.push(parse(&text).unwrap());
            }
            for path in paths {
                let want: Vec<NodeId> =
                    reference(&doc, None, &path).into_iter().flatten().collect();
                let hits = eval(&mut StoreNavigator::new(&mut store), &path).unwrap();
                assert!(
                    hits.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed} round {round}: not ascending and duplicate-free: {path}"
                );
                let mut got: Vec<NodeId> = hits.iter().map(|r| id[r]).collect();
                got.sort();
                assert_eq!(got, want, "seed {seed} round {round}: {path}");
            }
        }
        store.check_consistency().unwrap();
        splits += store.record_count() - loaded;
        reordered += records_out_of_id_order(&mut store);
    }
    // The run reached what it is for.
    assert!(splits > 0, "no record split");
    assert!(reordered > 0, "no child list out of local-id order");
}
