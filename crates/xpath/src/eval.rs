//! The XPath evaluator: set semantics over any [`Navigator`], evaluated
//! depth-first so that a store-backed walk never comes back to a record
//! it has left.
//!
//! A path runs as *segments*. Inside one, a candidate that passes step
//! *i* feeds step *i + 1* at once, while the records above it are still
//! held by the store; only between segments is a context set
//! materialised, sorted and deduplicated. A segment starts at every
//! descendant step (which needs all its contexts to walk nested ones
//! once) and ends after every upward or sibling step (what follows would
//! walk away from the cursor), so no node is visited more often than a
//! step-at-a-time evaluation would visit it. Downward axes run a walk
//! the navigator keeps ([`Navigator::Walk`]): a stack of child-list
//! cursors that enters a proxied record when it gets to its entry and
//! reads the nodes of the records it holds without asking the store
//! again.
//!
//! A query is *compiled* once ([`compile`]): every name test resolved to
//! the backend's label id, predicates included, so trying a predicate on
//! a candidate plans nothing.
//!
//! Result node-sets are deduplicated and returned in the navigator's node
//! ordering (document order for [`crate::MemNavigator`], whose node ids are
//! assigned in document order by the parser and generators).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use natix_store::StoreResult;
use natix_xml::NodeKind;

use crate::ast::{Axis, Expr, NodeTest, Path, Step};
use crate::navigator::Navigator;

/// The hasher of the evaluator's node sets (`Segment::seen`,
/// `Pred::Above`'s memo), which a climb probes at every node it passes.
/// Their keys are node handles — a few small integers the document's
/// layout chose, not a client — so they need no defence against chosen
/// keys, and SipHash's rounds were most of a climb's time: a multiply
/// and a rotate per integer do.
#[derive(Default)]
struct NodeHasher(u64);

impl Hasher for NodeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type NodeMap<K, V> = HashMap<K, V, BuildHasherDefault<NodeHasher>>;
type NodeSet<K> = HashSet<K, BuildHasherDefault<NodeHasher>>;

/// Evaluation context node: the (virtual) document root, or a real node.
/// `Root` sorts first, matching document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Ctx<T> {
    Root,
    Node(T),
}

/// A node test with its name resolved to the backend's label id.
#[derive(Debug, Clone, Copy)]
enum ResolvedTest {
    /// Name test: principal node kind plus this label. `None` label means
    /// the name does not occur in the document at all.
    Label(Option<u32>),
    /// `*`: principal node kind.
    Wildcard,
    /// `node()`.
    AnyNode,
    /// `text()`.
    Text,
}

impl ResolvedTest {
    fn resolve<N: Navigator>(nav: &mut N, test: &NodeTest) -> StoreResult<ResolvedTest> {
        Ok(match test {
            NodeTest::Name(name) => ResolvedTest::Label(nav.resolve_label(name)?),
            NodeTest::Wildcard => ResolvedTest::Wildcard,
            NodeTest::AnyNode => ResolvedTest::AnyNode,
            NodeTest::Text => ResolvedTest::Text,
        })
    }

    /// Check against known kind and label.
    fn matches(self, principal: NodeKind, kind: NodeKind, label: u32) -> bool {
        match self {
            ResolvedTest::AnyNode => true,
            ResolvedTest::Wildcard => kind == principal,
            ResolvedTest::Text => kind == NodeKind::Text,
            ResolvedTest::Label(want) => kind == principal && Some(label) == want,
        }
    }
}

/// A path ready to run: name tests resolved, predicates compiled.
struct Plan<T> {
    absolute: bool,
    steps: Vec<PlanStep<T>>,
}

struct PlanStep<T> {
    axis: Axis,
    test: ResolvedTest,
    predicates: Vec<Pred<T>>,
}

/// A compiled predicate.
enum Pred<T> {
    Or(Box<Pred<T>>, Box<Pred<T>>),
    And(Box<Pred<T>>, Box<Pred<T>>),
    /// True iff the path selects a node.
    Path(Plan<T>),
    /// True iff a selected node's string-value equals the literal.
    Equals(Plan<T>, String),
    /// `ancestor::A` (`ancestor-or-self::A` when `or_self`) on its own:
    /// true iff an A is above (or at) the context. `known` remembers, for
    /// every node a climb has passed, whether an A is at or above it, so
    /// the climbs of one query share their way up.
    Above {
        or_self: bool,
        test: ResolvedTest,
        known: RefCell<NodeMap<T, bool>>,
    },
}

/// Resolve `path` (normalized) against the backend, once per query.
fn compile<N: Navigator>(nav: &mut N, path: &Path) -> StoreResult<Plan<N::Node>> {
    let mut steps = Vec::with_capacity(path.steps.len());
    for step in &path.steps {
        let mut predicates = Vec::with_capacity(step.predicates.len());
        for pred in &step.predicates {
            predicates.push(compile_expr(nav, pred)?);
        }
        steps.push(PlanStep {
            axis: step.axis,
            test: ResolvedTest::resolve(nav, &step.test)?,
            predicates,
        });
    }
    Ok(Plan {
        absolute: path.absolute,
        steps,
    })
}

fn compile_expr<N: Navigator>(nav: &mut N, expr: &Expr) -> StoreResult<Pred<N::Node>> {
    Ok(match expr {
        Expr::Or(a, b) => Pred::Or(compile_expr(nav, a)?.into(), compile_expr(nav, b)?.into()),
        Expr::And(a, b) => Pred::And(compile_expr(nav, a)?.into(), compile_expr(nav, b)?.into()),
        Expr::Equals(p, lit) => Pred::Equals(compile(nav, p)?, lit.clone()),
        Expr::Path(p) => match &p.steps[..] {
            // (Not `node()`, which above the root element also matches
            // the virtual root.)
            [step @ Step {
                axis: Axis::Ancestor | Axis::AncestorOrSelf,
                ..
            }] if !p.absolute && step.predicates.is_empty() && step.test != NodeTest::AnyNode => {
                Pred::Above {
                    or_self: step.axis == Axis::AncestorOrSelf,
                    test: ResolvedTest::resolve(nav, &step.test)?,
                    known: RefCell::default(),
                }
            }
            _ => Pred::Path(compile(nav, p)?),
        },
    })
}

/// Evaluate an absolute or relative path from the document root, returning
/// the selected nodes (the virtual root itself is never returned).
pub fn eval<N: Navigator>(nav: &mut N, path: &Path) -> StoreResult<Vec<N::Node>> {
    let hits = eval_with(nav, path, |_, _| Ok(()))?;
    Ok(hits.into_iter().map(|(n, ())| n).collect())
}

/// [`eval`], with every hit passed through `at_hit` where the walk finds
/// it — while the hit's record is still the store's cursor, so reading
/// the node there costs no page access. Hits come back with what
/// `at_hit` made of them, in node order.
pub fn eval_with<N: Navigator, T>(
    nav: &mut N,
    path: &Path,
    mut at_hit: impl FnMut(&mut N, N::Node) -> StoreResult<T>,
) -> StoreResult<Vec<(N::Node, T)>> {
    let mut out = Vec::new();
    let plan = compile(nav, &normalize(path))?;
    eval_from(nav, Ctx::Root, &plan, &mut |nav, c| {
        if let Ctx::Node(n) = c {
            out.push((n, at_hit(nav, n)?));
        }
        Ok(())
    })?;
    out.sort_unstable_by_key(|&(n, _)| n);
    out.dedup_by_key(|&mut (n, _)| n);
    Ok(out)
}

/// Parse-and-evaluate convenience.
pub fn eval_query<N: Navigator>(
    nav: &mut N,
    query: &str,
) -> Result<Vec<N::Node>, crate::EvalError> {
    let path = crate::parse(query).map_err(crate::EvalError::Parse)?;
    eval(nav, &path).map_err(crate::EvalError::Store)
}

fn downward(axis: Axis) -> bool {
    matches!(axis, Axis::Descendant | Axis::DescendantOrSelf)
}

/// `path` with two patterns replaced by cheaper equivalents, predicates
/// included.
fn normalize(path: &Path) -> Path {
    let mut steps: Vec<Step> = Vec::with_capacity(path.steps.len());
    for step in &path.steps {
        let mut step = Step {
            axis: step.axis,
            test: step.test.clone(),
            predicates: step.predicates.iter().map(normalize_expr).collect(),
        };
        // `//T` parses to `descendant-or-self::node()/child::T`, which is
        // `descendant::T`: one walk, not a walk and a sweep of every
        // node's children.
        let sweep = |p: &Step| {
            p.axis == Axis::DescendantOrSelf
                && p.test == NodeTest::AnyNode
                && p.predicates.is_empty()
        };
        if step.axis == Axis::Child && steps.last().is_some_and(sweep) {
            steps.pop();
            step.axis = Axis::Descendant;
        }
        steps.push(step);
    }
    // From the root, `D::A/D'::B` with both axes downward selects the B
    // below (or at) an A: `descendant::B[ancestor(-or-self)::A]`, one
    // walk and a climb along records it holds instead of a second walk.
    // (Not when A is `node()`, which on an upward axis also matches the
    // virtual root; `descendant::node()` never selects that.)
    if let [a, b, ..] = &steps[..] {
        if path.absolute && downward(a.axis) && downward(b.axis) && a.test != NodeTest::AnyNode {
            let or_self = b.axis == Axis::DescendantOrSelf;
            let mut above = steps.remove(0);
            above.axis = [Axis::Ancestor, Axis::AncestorOrSelf][or_self as usize];
            let filter = Expr::Path(Path {
                absolute: false,
                steps: vec![above],
            });
            steps[0].axis = Axis::Descendant;
            steps[0].predicates.push(filter);
        }
    }
    Path {
        absolute: path.absolute,
        steps,
    }
}

fn normalize_expr(expr: &Expr) -> Expr {
    match expr {
        Expr::Or(a, b) => Expr::Or(normalize_expr(a).into(), normalize_expr(b).into()),
        Expr::And(a, b) => Expr::And(normalize_expr(a).into(), normalize_expr(b).into()),
        Expr::Path(p) => Expr::Path(normalize(p)),
        Expr::Equals(p, lit) => Expr::Equals(normalize(p), lit.clone()),
    }
}

/// Where a segment's hits go.
type Sink<'a, N> = &'a mut dyn FnMut(&mut N, Ctx<<N as Navigator>::Node>) -> StoreResult<()>;

/// What a segment remembers from one of its contexts to the next.
struct Segment<'a, T> {
    /// The contexts, sorted. Only a descendant step at the head of the
    /// segment looks at them.
    origins: &'a [Ctx<T>],
    /// The origins whose subtree that step has walked.
    walked: Vec<bool>,
    /// The nodes the segment's closing upward or sibling step has reached
    /// (`None` when one context takes one such step: nothing can repeat).
    seen: Option<NodeSet<Ctx<T>>>,
}

impl<T: Ord> Segment<'_, T> {
    /// Nested origins are walked once, by whichever walk gets there
    /// first: false if `c` is an origin whose subtree has been walked,
    /// else true, and an origin is marked walked.
    fn claim(&mut self, c: Ctx<T>) -> bool {
        if self.origins.len() < 2 {
            return true;
        }
        match self.origins.binary_search(&c) {
            Ok(i) => !std::mem::replace(&mut self.walked[i], true),
            Err(_) => true,
        }
    }
}

/// Evaluate a compiled path from `origin`, handing every node it
/// selects to `sink`, each once but in no particular order.
fn eval_from<N: Navigator>(
    nav: &mut N,
    origin: Ctx<N::Node>,
    path: &Plan<N::Node>,
    sink: Sink<N>,
) -> StoreResult<()> {
    let first = [if path.absolute { Ctx::Root } else { origin }];
    let mut later;
    let mut ctx = &first[..];
    let mut rest = &path.steps[..];
    loop {
        let stays = |a| downward(a) || matches!(a, Axis::Child | Axis::Attribute | Axis::SelfAxis);
        let mut len = rest.len().min(1);
        while len < rest.len() && stays(rest[len - 1].axis) && !downward(rest[len].axis) {
            len += 1;
        }
        let (steps, tail) = rest.split_at(len);
        rest = tail;
        let mut seg = Segment {
            origins: ctx,
            walked: vec![false; if ctx.len() > 1 { ctx.len() } else { 0 }],
            seen: (ctx.len() > 1 || len > 1).then(NodeSet::default),
        };
        if rest.is_empty() {
            return ctx
                .iter()
                .try_for_each(|&c| descend(nav, c, steps, &mut seg, sink));
        }
        let mut next = Vec::new();
        for &c in ctx {
            descend(nav, c, steps, &mut seg, &mut |_, c| {
                next.push(c);
                Ok(())
            })?;
        }
        // Set semantics once per segment, and the next one starts from
        // its contexts in node order for store locality.
        next.sort_unstable();
        next.dedup();
        later = next;
        ctx = &later;
    }
}

/// A walk over the children of `c`, and with `deep` everything below.
fn walk_below<N: Navigator>(nav: &mut N, c: Ctx<N::Node>, deep: bool) -> StoreResult<N::Walk> {
    let below = match c {
        Ctx::Root => None,
        Ctx::Node(n) => Some(n),
    };
    nav.walk_below(below, deep)
}

/// Run the rest of a segment from one context: expand its next step,
/// applying the node test and predicates, and send each node that passes
/// on through the steps after it before the next candidate is looked at.
fn descend<N: Navigator>(
    nav: &mut N,
    ctx: Ctx<N::Node>,
    steps: &[PlanStep<N::Node>],
    seg: &mut Segment<N::Node>,
    sink: Sink<N>,
) -> StoreResult<()> {
    let Some((step, rest)) = steps.split_first() else {
        return sink(nav, ctx);
    };
    let test = step.test;
    let principal = if step.axis == Axis::Attribute {
        NodeKind::Attribute
    } else {
        NodeKind::Element
    };

    // Emit a candidate whose kind/label are already known.
    macro_rules! consider {
        ($ctx:expr, $kind:expr, $label:expr) => {
            if test.matches(principal, $kind, $label) {
                let c = $ctx;
                if pass_predicates(nav, c, step)? {
                    descend(nav, c, rest, seg, sink)?;
                }
            }
        };
    }
    // Emit a candidate that needs an info lookup (upward/self axes),
    // unless it is of kind `$skip`. The virtual root only ever matches
    // `node()`.
    macro_rules! consider_lookup {
        ($ctx:expr, $skip:expr) => {
            match $ctx {
                Ctx::Root => {
                    if matches!(test, ResolvedTest::AnyNode)
                        && pass_predicates(nav, Ctx::Root, step)?
                    {
                        descend(nav, Ctx::Root, rest, seg, sink)?;
                    }
                }
                Ctx::Node(n) => {
                    let (kind, label) = nav.info(n)?;
                    if Some(kind) != $skip {
                        consider!(Ctx::Node(n), kind, label);
                    }
                }
            }
        };
    }

    match step.axis {
        Axis::Child | Axis::Attribute => {
            let mut walk = walk_below(nav, ctx, false)?;
            while let Some((node, kind, label)) = nav.walk_next(&mut walk)? {
                // The child axis excludes attribute nodes; the attribute
                // axis selects only them.
                if (kind == NodeKind::Attribute) == (step.axis == Axis::Attribute) {
                    consider!(Ctx::Node(node), kind, label);
                }
            }
        }
        Axis::Descendant | Axis::DescendantOrSelf => {
            let or_self = step.axis == Axis::DescendantOrSelf;
            if !seg.claim(ctx) {
                return Ok(());
            }
            if or_self {
                consider_lookup!(ctx, None);
            }
            let mut walk = walk_below(nav, ctx, true)?;
            // Pre-order over (node, kind, label), attributes excluded. A
            // walked origin met on the way has had its subtree emitted —
            // and, on `descendant-or-self`, itself.
            while let Some((node, kind, label)) = nav.walk_next(&mut walk)? {
                if kind == NodeKind::Attribute {
                    continue;
                }
                let fresh = seg.claim(Ctx::Node(node));
                if fresh || !or_self {
                    consider!(Ctx::Node(node), kind, label);
                }
                if !fresh && kind == NodeKind::Element {
                    nav.walk_skip(&mut walk);
                }
            }
        }
        Axis::SelfAxis => {
            consider_lookup!(ctx, None);
        }
        // The rest follow a line away from the context: up, or along its
        // siblings (attributes have none, and are none). A node that an
        // earlier context of the segment reached has had the rest of its
        // line considered.
        line => {
            let sibling = matches!(line, Axis::FollowingSibling | Axis::PrecedingSibling);
            let skip = sibling.then_some(NodeKind::Attribute);
            let mut cur = match ctx {
                Ctx::Node(n) if sibling && nav.info(n)?.0 == NodeKind::Attribute => None,
                _ if line == Axis::AncestorOrSelf => Some(ctx),
                _ => along(nav, ctx, line)?,
            };
            while let Some(c) = cur {
                if seg.seen.as_mut().is_some_and(|seen| !seen.insert(c)) {
                    break;
                }
                consider_lookup!(c, skip);
                cur = match line {
                    Axis::Parent => None,
                    _ => along(nav, c, line)?,
                };
            }
        }
    }
    Ok(())
}

/// The next node on the line `axis` follows from `c`, if any.
fn along<N: Navigator>(
    nav: &mut N,
    c: Ctx<N::Node>,
    axis: Axis,
) -> StoreResult<Option<Ctx<N::Node>>> {
    let Ctx::Node(n) = c else {
        return Ok(None);
    };
    Ok(match axis {
        Axis::FollowingSibling => nav.next_sibling(n)?.map(Ctx::Node),
        Axis::PrecedingSibling => nav.prev_sibling(n)?.map(Ctx::Node),
        _ => Some(nav.parent(n)?.map_or(Ctx::Root, Ctx::Node)),
    })
}

fn pass_predicates<N: Navigator>(
    nav: &mut N,
    ctx: Ctx<N::Node>,
    step: &PlanStep<N::Node>,
) -> StoreResult<bool> {
    for pred in &step.predicates {
        if !eval_expr(nav, ctx, pred)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn eval_expr<N: Navigator>(
    nav: &mut N,
    ctx: Ctx<N::Node>,
    expr: &Pred<N::Node>,
) -> StoreResult<bool> {
    let mut found = false;
    match expr {
        Pred::Or(a, b) => return Ok(eval_expr(nav, ctx, a)? || eval_expr(nav, ctx, b)?),
        Pred::And(a, b) => return Ok(eval_expr(nav, ctx, a)? && eval_expr(nav, ctx, b)?),
        Pred::Path(p) => eval_from(nav, ctx, p, &mut |_, _| {
            found = true;
            Ok(())
        })?,
        Pred::Equals(p, lit) => eval_from(nav, ctx, p, &mut |nav, c| {
            if let Ctx::Node(n) = c {
                found = found || string_value(nav, n)? == *lit;
            }
            Ok(())
        })?,
        Pred::Above {
            or_self,
            test,
            known,
        } => return above(nav, ctx, *or_self, *test, &mut known.borrow_mut()),
    }
    Ok(found)
}

/// Is a node matching `test` above `ctx` (or `ctx` itself, when
/// `or_self`)? Climbs until it meets one, the root, or a node an earlier
/// climb has passed, and leaves the answer with every node it passes.
fn above<N: Navigator>(
    nav: &mut N,
    ctx: Ctx<N::Node>,
    or_self: bool,
    test: ResolvedTest,
    known: &mut NodeMap<N::Node, bool>,
) -> StoreResult<bool> {
    let Ctx::Node(n) = ctx else {
        return Ok(false);
    };
    let matches = |nav: &mut N, n| -> StoreResult<bool> {
        let (kind, label) = nav.info(n)?;
        Ok(test.matches(NodeKind::Element, kind, label))
    };
    if or_self && matches(nav, n)? {
        return Ok(true);
    }
    let mut passed = Vec::new();
    let mut found = false;
    let mut cur = nav.parent(n)?;
    while let Some(n) = cur {
        if let Some(&at_or_above) = known.get(&n) {
            found = at_or_above;
            break;
        }
        passed.push(n);
        found = matches(nav, n)?;
        if found {
            break;
        }
        cur = nav.parent(n)?;
    }
    known.extend(passed.into_iter().map(|n| (n, found)));
    Ok(found)
}

/// XPath string-value: content for attribute/text-bearing nodes, the
/// concatenation of descendant text for elements.
fn string_value<N: Navigator>(nav: &mut N, n: N::Node) -> StoreResult<String> {
    if let Some(content) = nav.content(n)? {
        return Ok(content);
    }
    // Element: concatenate descendant text nodes in document order.
    let mut out = String::new();
    let mut walk = walk_below(nav, Ctx::Node(n), true)?;
    while let Some((node, kind, _)) = nav.walk_next(&mut walk)? {
        if kind == NodeKind::Text {
            out.push_str(&nav.content(node)?.unwrap_or_default());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    /// Every write the node sets' keys make, and a byte string, moves
    /// the hash; distinct handles get distinct hashes.
    #[test]
    fn node_hasher_tells_handles_apart() {
        let hash = |key: &dyn Fn(&mut NodeHasher)| {
            let mut h = BuildHasherDefault::<NodeHasher>::default().build_hasher();
            key(&mut h);
            h.finish()
        };
        let keys: [&dyn Fn(&mut NodeHasher); 6] = [
            &|h| Ctx::<u32>::Root.hash(h),
            &|h| Ctx::Node(7u32).hash(h),
            &|h| Ctx::Node(8u32).hash(h),
            &|h| (3u32, 4u16).hash(h),
            &|h| (3u32, 5u16).hash(h),
            &|h| h.write(b"node"),
        ];
        let mut seen: Vec<u64> = keys.iter().map(|k| hash(k)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), keys.len());
    }
}
