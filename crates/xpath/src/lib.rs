//! An XPath subset engine for the Natix reproduction.
//!
//! Covers the axes and constructs used by the XPathMark queries Q1-Q7 that
//! the paper measures in Table 3: `child`, `descendant`,
//! `descendant-or-self`, `self`, `parent`, `ancestor`, `ancestor-or-self`,
//! `attribute`, sibling axes, `*` and name tests, `text()`/`node()`, and
//! predicates combining relative paths with `or`/`and` (existence
//! semantics).
//!
//! The evaluator ([`eval`]) is generic over a [`Navigator`], so the same
//! code runs against the in-memory [`natix_xml::Document`]
//! ([`MemNavigator`]) and against the record-partitioned
//! [`natix_store::XmlStore`] ([`StoreNavigator`]). The former serves as the
//! oracle for the latter in the test suite; the latter is what Table 3
//! times — its cost is dominated by record crossings, which is precisely
//! what sibling partitioning minimizes.
//!
//! ```
//! use natix_xpath::{eval_query, MemNavigator};
//!
//! let doc = natix_xml::parse("<a><b/><c><b/></c></a>").unwrap();
//! let mut nav = MemNavigator::new(&doc);
//! let hits = eval_query(&mut nav, "//b").unwrap();
//! assert_eq!(hits.len(), 2);
//! ```

mod ast;
mod eval;
mod navigator;
mod parser;
pub mod xpathmark;

pub use ast::{Axis, Expr, NodeTest, Path, Step};
pub use eval::{eval, eval_query, eval_with};
pub use navigator::{MemNavigator, MemWalk, Navigator, StoreNavigator, StoreWalk};
pub use parser::{parse, XPathError};

/// Error from [`eval_query`]: parse or storage failure.
#[derive(Debug)]
pub enum EvalError {
    /// The query did not parse.
    Parse(XPathError),
    /// The store failed during evaluation.
    Store(natix_store::StoreError),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Parse(e) => write!(f, "{e}"),
            EvalError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> natix_xml::Document {
        natix_xml::parse(concat!(
            r#"<site><regions>"#,
            r#"<namerica><item id="i1"><name>a</name></item><item id="i2"/></namerica>"#,
            r#"<europe><item id="i3"><mailbox><mail><text>hi <keyword>k1</keyword></text></mail></mailbox></item></europe>"#,
            r#"</regions>"#,
            r#"<open_auctions><open_auction><annotation><description><parlist>"#,
            r#"<listitem><text>x <keyword>k2</keyword> y</text></listitem>"#,
            r#"<listitem><parlist><listitem><text><keyword>k3</keyword></text></listitem></parlist></listitem>"#,
            r#"</parlist></description></annotation></open_auction></open_auctions></site>"#,
        ))
        .unwrap()
    }

    fn count(q: &str) -> usize {
        let d = doc();
        let mut nav = MemNavigator::new(&d);
        eval_query(&mut nav, q).unwrap().len()
    }

    #[test]
    fn a_query_that_does_not_parse_reports_the_parse_error() {
        let d = doc();
        let err = eval_query(&mut MemNavigator::new(&d), "/site[").unwrap_err();
        assert!(matches!(err, EvalError::Parse(_)), "{err:?}");
        assert_eq!(err.to_string(), parse("/site[").unwrap_err().to_string());
    }

    #[test]
    fn child_paths() {
        assert_eq!(count("/site"), 1);
        assert_eq!(count("/site/regions/*/item"), 3);
        assert_eq!(count("/site/regions/namerica/item"), 2);
        assert_eq!(count("/nosuch"), 0);
    }

    #[test]
    fn descendants() {
        assert_eq!(count("//keyword"), 3);
        assert_eq!(count("//item"), 3);
        assert_eq!(
            count("/descendant-or-self::listitem/descendant-or-self::keyword"),
            2
        );
        assert_eq!(count("//listitem"), 3);
    }

    #[test]
    fn predicates() {
        assert_eq!(
            count("/site/regions/*/item[parent::namerica or parent::samerica]"),
            2
        );
        assert_eq!(count("//item[mailbox]"), 1);
        assert_eq!(count("//item[name and mailbox]"), 0);
        assert_eq!(count("//item[name or mailbox]"), 2);
        assert_eq!(count("//text[keyword]"), 3);
    }

    #[test]
    fn upward_axes() {
        // k2: outer listitem 1; k3: the inner listitem *and* outer
        // listitem 2 (nested parlist).
        assert_eq!(count("//keyword/ancestor::listitem"), 3);
        assert_eq!(count("//keyword/ancestor-or-self::mail"), 1);
        assert_eq!(count("//keyword/parent::text"), 3);
        assert_eq!(count("//keyword/ancestor::site"), 1);
    }

    #[test]
    fn attributes_and_text() {
        assert_eq!(count("//item/@id"), 3);
        assert_eq!(count("//@id"), 3);
        // Text nodes inside text elements: "hi ", "x ", " y" (k3's text
        // element holds only a keyword).
        assert_eq!(count("//text/text()"), 3);
        assert_eq!(count("//keyword/text()"), 3);
        // Attributes are not on the child axis.
        assert_eq!(count("//item/id"), 0);
        // Element-content children of items: i1's name, i3's mailbox.
        assert_eq!(count("//item/node()"), 2);
    }

    #[test]
    fn sibling_axes() {
        assert_eq!(count("//namerica/following-sibling::europe"), 1);
        assert_eq!(count("//europe/preceding-sibling::namerica"), 1);
        assert_eq!(count("//namerica/following-sibling::*"), 1);
        assert_eq!(count("//europe/following-sibling::*"), 0);
    }

    #[test]
    fn duplicates_are_removed() {
        // k2 and k3 share the outer parlist as an ancestor; k3 adds the
        // inner one. The node-set must contain each parlist once.
        assert_eq!(count("//keyword/ancestor::parlist"), 2);
        assert_eq!(count("//keyword/ancestor::description"), 1);
    }

    #[test]
    fn dot_and_dotdot() {
        assert_eq!(count("//mail/."), 1);
        assert_eq!(count("//mail/.."), 1);
        // Grandparents of keywords: mail, outer listitem, inner listitem.
        assert_eq!(count("//keyword/../.."), 3);
    }
}

#[cfg(test)]
mod equality_tests {
    use super::*;

    fn doc() -> natix_xml::Document {
        natix_xml::parse(concat!(
            r#"<people>"#,
            r#"<person id="p1"><name>Ann Noble</name><age>30</age></person>"#,
            r#"<person id="p2"><name>Bob Stone</name></person>"#,
            r#"<person id="p3"><name>Ann <b>Noble</b></name></person>"#,
            r#"</people>"#,
        ))
        .unwrap()
    }

    fn count(q: &str) -> usize {
        let d = doc();
        let mut nav = MemNavigator::new(&d);
        eval_query(&mut nav, q).unwrap().len()
    }

    #[test]
    fn attribute_equality() {
        assert_eq!(count("//person[@id='p2']"), 1);
        assert_eq!(count("//person[@id='p9']"), 0);
        assert_eq!(count("//person[@id='p1' or @id='p3']"), 2);
    }

    #[test]
    fn element_string_value_concatenates_descendant_text() {
        // p3's name is "Ann " + <b>Noble</b> = "Ann Noble".
        assert_eq!(count("//person[name='Ann Noble']"), 2);
        assert_eq!(count("//person[name='Bob Stone']"), 1);
    }

    #[test]
    fn text_equality() {
        assert_eq!(count("//age[text()='30']"), 1);
        assert_eq!(count("//age[text()='31']"), 0);
    }

    #[test]
    fn equality_combines_with_paths() {
        assert_eq!(count("//person[@id='p1' and age]"), 1);
        assert_eq!(count("//person[age and @id='p2']"), 0);
    }
}
