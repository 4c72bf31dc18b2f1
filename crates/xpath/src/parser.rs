//! Recursive-descent parser for the XPath subset.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! path      := ('/' | '//')? relpath | '/'
//! relpath   := step (('/' | '//') step)*
//! step      := (axis '::')? nodetest predicate*
//!            | '@' nodetest
//!            | '..'                        (parent::node())
//!            | '.'                         (self::node())
//! nodetest  := NAME | '*' | 'node()' | 'text()'
//! predicate := '[' or-expr ']'
//! or-expr   := and-expr ('or' and-expr)*
//! and-expr  := primary ('and' primary)*
//! primary   := '(' or-expr ')' | path
//! ```
//!
//! `//` expands to `/descendant-or-self::node()/` per the XPath spec.

use std::fmt;

use crate::ast::{Axis, Expr, NodeTest, Path, Step};

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    /// Byte offset into the query string.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XPathError {}

/// Parse a query.
pub fn parse(query: &str) -> Result<Path, XPathError> {
    let mut p = Parser {
        src: query.as_bytes(),
        pos: 0,
    };
    let path = p.path()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.fail("trailing characters"));
    }
    Ok(path)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

fn descendant_or_self_node() -> Step {
    Step {
        axis: Axis::DescendantOrSelf,
        test: NodeTest::AnyNode,
        predicates: Vec::new(),
    }
}

impl<'a> Parser<'a> {
    fn fail(&self, message: impl Into<String>) -> XPathError {
        XPathError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, s: &[u8]) -> bool {
        if self.src[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn path(&mut self) -> Result<Path, XPathError> {
        self.skip_ws();
        let mut steps = Vec::new();
        let absolute = if self.eat(b"//") {
            steps.push(descendant_or_self_node());
            true
        } else {
            self.eat(b"/")
        };
        self.skip_ws();
        // Bare "/" selects the root.
        if absolute && (self.peek().is_none() || self.peek() == Some(b']')) && steps.is_empty() {
            return Ok(Path { absolute, steps });
        }
        steps.push(self.step()?);
        loop {
            self.skip_ws();
            if self.eat(b"//") {
                steps.push(descendant_or_self_node());
                steps.push(self.step()?);
            } else if self.eat(b"/") {
                steps.push(self.step()?);
            } else {
                break;
            }
        }
        Ok(Path { absolute, steps })
    }

    fn step(&mut self) -> Result<Step, XPathError> {
        self.skip_ws();
        if self.eat(b"..") {
            return Ok(Step {
                axis: Axis::Parent,
                test: NodeTest::AnyNode,
                predicates: self.predicates()?,
            });
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            return Ok(Step {
                axis: Axis::SelfAxis,
                test: NodeTest::AnyNode,
                predicates: self.predicates()?,
            });
        }
        if self.eat(b"@") {
            let test = self.node_test()?;
            return Ok(Step {
                axis: Axis::Attribute,
                test,
                predicates: self.predicates()?,
            });
        }
        // Optional explicit axis.
        let axis = self.axis()?;
        let test = self.node_test()?;
        Ok(Step {
            axis,
            test,
            predicates: self.predicates()?,
        })
    }

    fn axis(&mut self) -> Result<Axis, XPathError> {
        const AXES: &[(&str, Axis)] = &[
            ("descendant-or-self", Axis::DescendantOrSelf),
            ("descendant", Axis::Descendant),
            ("ancestor-or-self", Axis::AncestorOrSelf),
            ("ancestor", Axis::Ancestor),
            ("following-sibling", Axis::FollowingSibling),
            ("preceding-sibling", Axis::PrecedingSibling),
            ("attribute", Axis::Attribute),
            ("child", Axis::Child),
            ("parent", Axis::Parent),
            ("self", Axis::SelfAxis),
        ];
        for &(name, axis) in AXES {
            let with_sep = format!("{name}::");
            if self.src[self.pos..].starts_with(with_sep.as_bytes()) {
                self.pos += with_sep.len();
                return Ok(axis);
            }
        }
        Ok(Axis::Child)
    }

    fn name(&mut self) -> Result<String, XPathError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == b'_' || c >= 0x80 => self.pos += 1,
            _ => return Err(self.fail("expected name")),
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') || c >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(String::from_utf8(self.src[start..self.pos].to_vec()).expect("valid UTF-8 input"))
    }

    fn node_test(&mut self) -> Result<NodeTest, XPathError> {
        self.skip_ws();
        if self.eat(b"*") {
            return Ok(NodeTest::Wildcard);
        }
        if self.eat(b"node()") {
            return Ok(NodeTest::AnyNode);
        }
        if self.eat(b"text()") {
            return Ok(NodeTest::Text);
        }
        self.name().map(NodeTest::Name)
    }

    fn predicates(&mut self) -> Result<Vec<Expr>, XPathError> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            if !self.eat(b"[") {
                return Ok(out);
            }
            let e = self.or_expr()?;
            self.skip_ws();
            if !self.eat(b"]") {
                return Err(self.fail("expected `]`"));
            }
            out.push(e);
        }
    }

    fn or_expr(&mut self) -> Result<Expr, XPathError> {
        let mut e = self.and_expr()?;
        loop {
            self.skip_ws();
            if self.keyword(b"or") {
                let rhs = self.and_expr()?;
                e = Expr::Or(Box::new(e), Box::new(rhs));
            } else {
                return Ok(e);
            }
        }
    }

    fn and_expr(&mut self) -> Result<Expr, XPathError> {
        let mut e = self.primary()?;
        loop {
            self.skip_ws();
            if self.keyword(b"and") {
                let rhs = self.primary()?;
                e = Expr::And(Box::new(e), Box::new(rhs));
            } else {
                return Ok(e);
            }
        }
    }

    /// Match a keyword followed by a non-name character.
    fn keyword(&mut self, kw: &[u8]) -> bool {
        if !self.src[self.pos..].starts_with(kw) {
            return false;
        }
        match self.src.get(self.pos + kw.len()) {
            Some(&c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' => false,
            _ => {
                self.pos += kw.len();
                true
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, XPathError> {
        self.skip_ws();
        if self.eat(b"(") {
            let e = self.or_expr()?;
            self.skip_ws();
            if !self.eat(b")") {
                return Err(self.fail("expected `)`"));
            }
            return Ok(e);
        }
        let path = self.path()?;
        self.skip_ws();
        if self.eat(b"=") {
            self.skip_ws();
            let lit = self.literal()?;
            return Ok(Expr::Equals(path, lit));
        }
        Ok(Expr::Path(path))
    }

    /// A quoted string literal.
    fn literal(&mut self) -> Result<String, XPathError> {
        let quote = match self.peek() {
            Some(q @ (b'\'' | b'"')) => q,
            _ => return Err(self.fail("expected string literal")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let s = String::from_utf8(self.src[start..self.pos].to_vec())
                    .expect("valid UTF-8 input");
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(self.fail("unterminated string literal"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_absolute_path() {
        let p = parse("/site/regions").unwrap();
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::Child);
        assert_eq!(p.steps[0].test, NodeTest::Name("site".into()));
    }

    #[test]
    fn double_slash_expansion() {
        let p = parse("//keyword").unwrap();
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
        assert_eq!(p.steps[0].test, NodeTest::AnyNode);
        assert_eq!(p.steps[1].test, NodeTest::Name("keyword".into()));

        let p = parse("//keyword/ancestor::listitem").unwrap();
        assert_eq!(p.steps.len(), 3);
        assert_eq!(p.steps[2].axis, Axis::Ancestor);
    }

    #[test]
    fn wildcard_and_explicit_axes() {
        let p = parse("/site/regions/*/item").unwrap();
        assert_eq!(p.steps[2].test, NodeTest::Wildcard);
        let p = parse("/descendant-or-self::listitem/descendant-or-self::keyword").unwrap();
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
        assert_eq!(p.steps[0].test, NodeTest::Name("listitem".into()));
    }

    #[test]
    fn predicate_with_or() {
        let p = parse("/site/regions/*/item[parent::namerica or parent::samerica]").unwrap();
        let preds = &p.steps[3].predicates;
        assert_eq!(preds.len(), 1);
        match &preds[0] {
            Expr::Or(a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Path(pa), Expr::Path(pb)) => {
                    assert!(!pa.absolute);
                    assert_eq!(pa.steps[0].axis, Axis::Parent);
                    assert_eq!(pb.steps[0].test, NodeTest::Name("samerica".into()));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("expected or, got {other:?}"),
        }
    }

    #[test]
    fn and_parentheses_dot_dotdot() {
        let p = parse("item[(a or b) and c]").unwrap();
        assert!(matches!(p.steps[0].predicates[0], Expr::And(_, _)));
        let p = parse("../x").unwrap();
        assert_eq!(p.steps[0].axis, Axis::Parent);
        let p = parse("./x").unwrap();
        assert_eq!(p.steps[0].axis, Axis::SelfAxis);
    }

    #[test]
    fn attribute_and_text() {
        let p = parse("item/@id").unwrap();
        assert_eq!(p.steps[1].axis, Axis::Attribute);
        let p = parse("item/text()").unwrap();
        assert_eq!(p.steps[1].test, NodeTest::Text);
        let p = parse("item/node()").unwrap();
        assert_eq!(p.steps[1].test, NodeTest::AnyNode);
    }

    #[test]
    fn keyword_prefix_names_are_names() {
        // `order` starts with `or` but must parse as a name.
        let p = parse("item[order or android]").unwrap();
        match &p.steps[0].predicates[0] {
            Expr::Or(a, _) => match a.as_ref() {
                Expr::Path(pa) => {
                    assert_eq!(pa.steps[0].test, NodeTest::Name("order".into()));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("expected or, got {other:?}"),
        }
    }

    #[test]
    fn display_roundtrip() {
        for q in [
            "/site/regions/*/item",
            "//keyword",
            "/descendant-or-self::listitem/descendant-or-self::keyword",
            "//keyword/ancestor-or-self::mail",
            "//item[@id = 'item0' or name and .//keyword]/name",
        ] {
            let p1 = parse(q).unwrap();
            let p2 = parse(&p1.to_string()).unwrap();
            assert_eq!(p1, p2, "{q}");
        }
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("/site[").is_err());
        assert!(parse("/site]").is_err());
        assert!(parse("/site/").is_err());
        assert!(parse("/site/##").is_err());
        assert!(parse("item[a or ]").is_err());
    }

    #[test]
    fn equality_predicates() {
        let p = parse("//item[@id='item3']").unwrap();
        match &p.steps[1].predicates[0] {
            Expr::Equals(path, lit) => {
                assert_eq!(path.steps[0].axis, Axis::Attribute);
                assert_eq!(lit, "item3");
            }
            other => panic!("unexpected {other:?}"),
        }
        let p = parse(r#"//person[name = "Ann Noble" or @id='p2']"#).unwrap();
        assert!(matches!(&p.steps[1].predicates[0], Expr::Or(_, _)));
        assert!(parse("//a[@x=]").is_err());
        assert!(parse("//a[@x='unterminated]").is_err());
    }

    #[test]
    fn root_only() {
        let p = parse("/").unwrap();
        assert!(p.absolute);
        assert!(p.steps.is_empty());
    }
}
