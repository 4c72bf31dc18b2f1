//! An oracle the evaluator shares no code with. `equivalence.rs` compares
//! the evaluator with itself over two navigators, so a lost dedup or a
//! wrong segment break would agree with itself; here a naive reference —
//! one step at a time, set semantics straight from the axis definitions
//! over [`Document`] — judges random paths over every axis with nested
//! predicates, on small random documents and on an XMark slice, for every
//! layout of [`evaluation_algorithms`] at four record limits.

use std::collections::BTreeSet;

use natix_core::evaluation_algorithms;
use natix_datagen::{xmark, GenConfig};
use natix_store::{MemPager, StoreConfig, XmlStore};
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
