//! A from-scratch, non-validating XML parser.
//!
//! Supports the XML subset needed to ingest real-world documents into the
//! store: elements, attributes, character data with the five predefined
//! entities and numeric character references, CDATA sections, comments,
//! processing instructions, an XML declaration and a (skipped) DOCTYPE.
//! Namespaces are not interpreted (prefixed names are kept verbatim), and
//! DTD entity definitions are not expanded.
//!
//! Two entry points share one scanner:
//!
//! * [`parse`] / [`parse_with_options`] build a [`Document`] (DOM),
//! * [`parse_sax`] streams [`SaxHandler`] events without materializing
//!   anything — the store's bulkloader feeds these straight into the
//!   streaming partitioner, holding only the open-element path.
//!
//! The DOM build is itself a `SaxHandler` over the same event stream, so
//! both paths see byte-identical event sequences (including the
//! whitespace/comment/PI filtering of [`ParseOptions`]).

use std::fmt;

use natix_tree::NodeId;

use crate::{Document, DocumentBuilder};

/// Parse failure with byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Parser configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Keep text nodes that consist solely of whitespace (default: false;
    /// the evaluation documents treat inter-element whitespace as
    /// formatting, not data).
    pub keep_whitespace_text: bool,
    /// Materialize comments as document nodes (default: true).
    pub keep_comments: bool,
    /// Materialize processing instructions as document nodes (default:
    /// true).
    pub keep_processing_instructions: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            keep_whitespace_text: false,
            keep_comments: true,
            keep_processing_instructions: true,
        }
    }
}

/// Streaming event sink for [`parse_sax`].
///
/// Events arrive in document order: `start_element`, then that element's
/// `attribute`s, then its content (text/comment/PI/child elements), then
/// `end_element`. Childless node kinds have no close event of their own.
/// The filtering of [`ParseOptions`] (whitespace text, comments, PIs) is
/// applied *before* events are delivered, so every handler sees exactly
/// the node sequence the DOM build would materialize.
pub trait SaxHandler {
    /// Handler-side failure; aborts the parse with [`SaxError::Handler`].
    type Error;

    /// `<name ...` — an element opens (attributes follow, then content).
    fn start_element(&mut self, name: &str) -> Result<(), Self::Error>;
    /// One attribute of the most recently opened element.
    fn attribute(&mut self, name: &str, value: &str) -> Result<(), Self::Error>;
    /// A text node (adjacent text/CDATA runs arrive merged, entities
    /// resolved).
    fn text(&mut self, data: &str) -> Result<(), Self::Error>;
    /// A comment node.
    fn comment(&mut self, data: &str) -> Result<(), Self::Error>;
    /// A processing instruction.
    fn processing_instruction(&mut self, target: &str, data: &str) -> Result<(), Self::Error>;
    /// The most recently opened element closes (`</name>` or `/>`).
    fn end_element(&mut self) -> Result<(), Self::Error>;
}

/// Failure of a [`parse_sax`] run: either the input is malformed, or the
/// handler aborted.
#[derive(Debug)]
pub enum SaxError<E> {
    /// The input is not well-formed XML.
    Xml(XmlError),
    /// The handler returned an error.
    Handler(E),
}

impl<E> From<XmlError> for SaxError<E> {
    fn from(e: XmlError) -> Self {
        SaxError::Xml(e)
    }
}

impl<E: fmt::Display> fmt::Display for SaxError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaxError::Xml(e) => e.fmt(f),
            SaxError::Handler(e) => write!(f, "handler error: {e}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for SaxError<E> {}

/// Parse with default [`ParseOptions`].
pub fn parse(input: &str) -> Result<Document, XmlError> {
    parse_with_options(input, ParseOptions::default())
}

/// Parse with explicit options.
pub fn parse_with_options(input: &str, options: ParseOptions) -> Result<Document, XmlError> {
    let mut sink = DomSink {
        b: None,
        stack: Vec::new(),
    };
    match parse_sax(input, options, &mut sink) {
        Ok(()) => Ok(sink.b.expect("a parsed document has a root").build()),
        Err(SaxError::Xml(e)) => Err(e),
        Err(SaxError::Handler(never)) => match never {},
    }
}

/// Stream `input` through `handler` without materializing a document.
pub fn parse_sax<H: SaxHandler>(
    input: &str,
    options: ParseOptions,
    handler: &mut H,
) -> Result<(), SaxError<H::Error>> {
    Parser {
        input,
        src: input.as_bytes(),
        pos: 0,
        options,
        buf: String::new(),
    }
    .document(handler)
}

/// The DOM build as a SAX sink: both [`parse_with_options`] and any
/// streaming consumer observe the same event stream.
struct DomSink {
    b: Option<DocumentBuilder>,
    stack: Vec<NodeId>,
}

impl DomSink {
    fn parent(&self) -> NodeId {
        *self.stack.last().expect("events arrive inside the root")
    }
}

impl SaxHandler for DomSink {
    type Error = std::convert::Infallible;

    fn start_element(&mut self, name: &str) -> Result<(), Self::Error> {
        match &mut self.b {
            None => {
                self.b = Some(DocumentBuilder::new(name));
                self.stack.push(NodeId::ROOT);
            }
            Some(b) => {
                let id = b.element(self.stack.last().copied().expect("non-root"), name);
                self.stack.push(id);
            }
        }
        Ok(())
    }

    fn attribute(&mut self, name: &str, value: &str) -> Result<(), Self::Error> {
        let parent = self.parent();
        self.b
            .as_mut()
            .expect("root open")
            .attribute(parent, name, value);
        Ok(())
    }

    fn text(&mut self, data: &str) -> Result<(), Self::Error> {
        let parent = self.parent();
        self.b.as_mut().expect("root open").text(parent, data);
        Ok(())
    }

    fn comment(&mut self, data: &str) -> Result<(), Self::Error> {
        let parent = self.parent();
        self.b.as_mut().expect("root open").comment(parent, data);
        Ok(())
    }

    fn processing_instruction(&mut self, target: &str, data: &str) -> Result<(), Self::Error> {
        let parent = self.parent();
        self.b
            .as_mut()
            .expect("root open")
            .processing_instruction(parent, target, data);
        Ok(())
    }

    fn end_element(&mut self) -> Result<(), Self::Error> {
        self.stack.pop();
        Ok(())
    }
}

struct Parser<'a> {
    input: &'a str,
    src: &'a [u8],
    pos: usize,
    options: ParseOptions,
    /// Character data that is not one slice of the input: a run with an
    /// entity reference in it, or text and CDATA merged. Reused from run
    /// to run.
    buf: String,
}

/// Where the character data read so far lies. Most runs are one slice
/// of the input and are handed out as such; only decoding and merging
/// write into [`Parser::buf`].
#[derive(Clone, Copy)]
enum Run {
    Empty,
    Input(usize, usize),
    Buf,
}

/// XML's whitespace (`S`, XML 1.0 §2.3) — not Unicode's: `&#160;` is data.
fn is_xml_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.src[self.pos..].starts_with(s)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(is_xml_space) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &[u8]) -> Result<(), XmlError> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            self.err(format!("expected `{}`", String::from_utf8_lossy(s)))
        }
    }

    /// Consume until `end` (exclusive); error on EOF.
    fn until(&mut self, end: &[u8], what: &str) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while self.pos < self.src.len() {
            if self.starts_with(end) {
                let s = &self.input[start..self.pos];
                self.pos += end.len();
                return Ok(s);
            }
            self.pos += 1;
        }
        self.err(format!("unterminated {what}"))
    }

    fn is_name_start(c: u8) -> bool {
        c.is_ascii_alphabetic() || c == b'_' || c == b':' || c >= 0x80
    }

    fn is_name_char(c: u8) -> bool {
        Self::is_name_start(c) || c.is_ascii_digit() || c == b'-' || c == b'.'
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if Self::is_name_start(c) => self.pos += 1,
            _ => return self.err("expected name"),
        }
        while matches!(self.peek(), Some(c) if Self::is_name_char(c)) {
            self.pos += 1;
        }
        // A name ends at an ASCII byte (or the input's end), so it is
        // whole characters.
        Ok(&self.input[start..self.pos])
    }

    /// Read character data up to (not including) a stop byte into `run`,
    /// resolving entity references. Plain bytes stay a slice of the
    /// input while the run is one; they are copied into `buf` only when
    /// the run already lies there or a reference must be decoded.
    fn char_data(&mut self, run: &mut Run, stop: &[u8]) -> Result<(), XmlError> {
        loop {
            match self.peek() {
                None => return self.err("unexpected end of input in character data"),
                Some(b'&') => {
                    self.pos += 1;
                    let c = self.entity()?;
                    self.move_to_buf(run);
                    self.buf.push(c);
                }
                Some(c) if stop.contains(&c) => return Ok(()),
                Some(_) => {
                    let start = self.pos;
                    let len = self.src[start..]
                        .iter()
                        .position(|&c| c == b'&' || stop.contains(&c))
                        .unwrap_or(self.src.len() - start);
                    self.pos += len;
                    self.append(run, start, self.pos);
                }
            }
        }
    }

    /// Add the input's bytes `start..end` to `run`.
    fn append(&mut self, run: &mut Run, start: usize, end: usize) {
        if start == end {
            return;
        }
        if let Run::Empty = run {
            *run = Run::Input(start, end);
        } else {
            self.move_to_buf(run);
            self.buf.push_str(&self.input[start..end]);
        }
    }

    /// Move `run` into `buf`, so that more can be written after it.
    fn move_to_buf(&mut self, run: &mut Run) {
        match *run {
            Run::Empty => self.buf.clear(),
            Run::Input(s, e) => {
                self.buf.clear();
                self.buf.push_str(&self.input[s..e]);
            }
            Run::Buf => return,
        }
        *run = Run::Buf;
    }

    /// The text of `run`.
    fn text(&self, run: Run) -> &str {
        match run {
            Run::Empty => "",
            // Runs start and end next to ASCII markup: whole characters.
            Run::Input(s, e) => &self.input[s..e],
            Run::Buf => &self.buf,
        }
    }

    /// After `&`: decode one entity/char reference including trailing `;`.
    fn entity(&mut self) -> Result<char, XmlError> {
        if self.peek() == Some(b'#') {
            self.pos += 1;
            let (radix, digits): (u32, &[u8]) = if self.peek() == Some(b'x') {
                self.pos += 1;
                (16, b"0123456789abcdefABCDEF")
            } else {
                (10, b"0123456789")
            };
            let start = self.pos;
            while matches!(self.peek(), Some(c) if digits.contains(&c)) {
                self.pos += 1;
            }
            if start == self.pos {
                return self.err("empty character reference");
            }
            let text = &self.input[start..self.pos];
            self.expect(b";")?;
            let cp = u32::from_str_radix(text, radix)
                .ok()
                .and_then(char::from_u32);
            return match cp {
                Some(c) => Ok(c),
                None => self.err(format!("invalid character reference &#{text};")),
            };
        }
        let name = self.name()?;
        self.expect(b";")?;
        match name {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "apos" => Ok('\''),
            "quot" => Ok('"'),
            other => self.err(format!("unknown entity &{other};")),
        }
    }

    fn document<H: SaxHandler>(&mut self, h: &mut H) -> Result<(), SaxError<H::Error>> {
        // Optional BOM.
        if self.starts_with(b"\xEF\xBB\xBF") {
            self.pos += 3;
        }
        self.prolog()?;
        // Root element.
        if self.peek() != Some(b'<') {
            return Err(self.err::<()>("expected root element").unwrap_err().into());
        }
        self.expect(b"<")?;
        let name = self.name()?;
        h.start_element(name).map_err(SaxError::Handler)?;
        let self_closing = self.attributes_and_tag_end(h)?;
        if self_closing {
            h.end_element().map_err(SaxError::Handler)?;
        } else {
            self.content(h, name)?;
        }
        // Trailing misc.
        loop {
            self.skip_ws();
            match self.peek() {
                None => break,
                Some(b'<') if self.starts_with(b"<!--") => {
                    self.pos += 4;
                    self.until(b"-->", "comment")?;
                }
                Some(b'<') if self.starts_with(b"<?") => {
                    self.pos += 2;
                    self.until(b"?>", "processing instruction")?;
                }
                _ => {
                    return Err(self
                        .err::<()>("content after document element")
                        .unwrap_err()
                        .into())
                }
            }
        }
        Ok(())
    }

    fn prolog(&mut self) -> Result<(), XmlError> {
        self.skip_ws();
        if self.starts_with(b"<?xml") {
            self.pos += 5;
            self.until(b"?>", "XML declaration")?;
        }
        loop {
            self.skip_ws();
            if self.starts_with(b"<!--") {
                self.pos += 4;
                self.until(b"-->", "comment")?;
            } else if self.starts_with(b"<!DOCTYPE") {
                self.doctype()?;
            } else if self.starts_with(b"<?") {
                self.pos += 2;
                self.until(b"?>", "processing instruction")?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skip `<!DOCTYPE ...>` including an internal subset `[...]`.
    fn doctype(&mut self) -> Result<(), XmlError> {
        self.expect(b"<!DOCTYPE")?;
        let mut depth = 0usize;
        loop {
            match self.peek() {
                None => return self.err("unterminated DOCTYPE"),
                Some(b'[') => {
                    depth += 1;
                    self.pos += 1;
                }
                Some(b']') => {
                    depth = depth.saturating_sub(1);
                    self.pos += 1;
                }
                Some(b'>') if depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Parse attributes and the tag terminator; returns true for `/>`.
    fn attributes_and_tag_end<H: SaxHandler>(
        &mut self,
        h: &mut H,
    ) -> Result<bool, SaxError<H::Error>> {
        loop {
            let before = self.pos;
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(false);
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b">")?;
                    return Ok(true);
                }
                Some(c) if Self::is_name_start(c) => {
                    if before == self.pos {
                        return Err(self
                            .err::<()>("expected whitespace before attribute")
                            .unwrap_err()
                            .into());
                    }
                    let name = self.name()?;
                    self.skip_ws();
                    self.expect(b"=")?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => {
                            return Err(self
                                .err::<()>("expected quoted attribute value")
                                .unwrap_err()
                                .into())
                        }
                    };
                    self.pos += 1;
                    let mut value = Run::Empty;
                    self.char_data(&mut value, &[quote, b'<'])?;
                    if self.peek() == Some(b'<') {
                        return Err(self.err::<()>("`<` in attribute value").unwrap_err().into());
                    }
                    self.pos += 1; // closing quote
                    h.attribute(name, self.text(value))
                        .map_err(SaxError::Handler)?;
                }
                _ => return Err(self.err::<()>("malformed start tag").unwrap_err().into()),
            }
        }
    }

    /// Parse element content up to and including the matching end tag.
    /// Iterative (explicit stack) to survive deeply nested documents.
    fn content<H: SaxHandler>(
        &mut self,
        h: &mut H,
        name: &'a str,
    ) -> Result<(), SaxError<H::Error>> {
        // Tag names of the open elements, innermost last.
        let mut stack: Vec<&'a str> = vec![name];
        // Adjacent text/CDATA runs are merged into one text node.
        let mut pending = Run::Empty;

        macro_rules! flush_text {
            () => {
                let text = self.text(pending);
                let keep = !text.is_empty()
                    && (self.options.keep_whitespace_text || !text.bytes().all(is_xml_space));
                if keep {
                    h.text(text).map_err(SaxError::Handler)?;
                }
                pending = Run::Empty;
            };
        }

        while let Some(&parent_name) = stack.last() {
            match self.peek() {
                None => {
                    return Err(self
                        .err::<()>(format!("missing end tag </{parent_name}>"))
                        .unwrap_err()
                        .into())
                }
                Some(b'<') => {
                    if self.starts_with(b"</") {
                        flush_text!();
                        self.pos += 2;
                        let end_name = self.name()?;
                        if end_name != parent_name {
                            return Err(self
                                .err::<()>(format!(
                                    "mismatched end tag </{end_name}>, expected </{parent_name}>"
                                ))
                                .unwrap_err()
                                .into());
                        }
                        self.skip_ws();
                        self.expect(b">")?;
                        stack.pop();
                        h.end_element().map_err(SaxError::Handler)?;
                    } else if self.starts_with(b"<!--") {
                        flush_text!();
                        self.pos += 4;
                        let text = self.until(b"-->", "comment")?;
                        if self.options.keep_comments {
                            h.comment(text).map_err(SaxError::Handler)?;
                        }
                    } else if self.starts_with(b"<![CDATA[") {
                        self.pos += 9;
                        let start = self.pos;
                        self.until(b"]]>", "CDATA section")?;
                        self.append(&mut pending, start, self.pos - 3);
                    } else if self.starts_with(b"<?") {
                        flush_text!();
                        self.pos += 2;
                        let target = self.name()?;
                        self.skip_ws();
                        let data = self.until(b"?>", "processing instruction")?;
                        if self.options.keep_processing_instructions {
                            h.processing_instruction(target, data)
                                .map_err(SaxError::Handler)?;
                        }
                    } else if self.starts_with(b"<!") {
                        return Err(self
                            .err::<()>("unsupported markup declaration in content")
                            .unwrap_err()
                            .into());
                    } else {
                        flush_text!();
                        self.pos += 1;
                        let child_name = self.name()?;
                        h.start_element(child_name).map_err(SaxError::Handler)?;
                        let self_closing = self.attributes_and_tag_end(h)?;
                        if self_closing {
                            h.end_element().map_err(SaxError::Handler)?;
                        } else {
                            stack.push(child_name);
                        }
                    }
                }
                Some(_) => self.char_data(&mut pending, b"<")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeKind;

    #[test]
    fn minimal_document() {
        let d = parse("<root/>").unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.name(d.root()), "root");
    }

    #[test]
    fn elements_attributes_text() {
        let d = parse(r#"<a x="1" y='2'><b>hi</b><c/></a>"#).unwrap();
        let t = d.tree();
        let root = d.root();
        let kids = t.children(root);
        assert_eq!(kids.len(), 4); // x, y, b, c
        assert_eq!(d.kind(kids[0]), NodeKind::Attribute);
        assert_eq!(d.name(kids[0]), "x");
        assert_eq!(d.content(kids[0]), Some("1"));
        assert_eq!(d.name(kids[2]), "b");
        let b_text = t.children(kids[2])[0];
        assert_eq!(d.kind(b_text), NodeKind::Text);
        assert_eq!(d.content(b_text), Some("hi"));
        assert_eq!(d.name(kids[3]), "c");
    }

    #[test]
    fn prolog_doctype_and_misc() {
        let d = parse(
            "\u{FEFF}<?xml version=\"1.0\"?>\n<!-- hello -->\n<!DOCTYPE r [ <!ELEMENT r ANY> ]>\n<r>x</r>\n<!-- bye -->",
        )
        .unwrap();
        assert_eq!(d.name(d.root()), "r");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn entity_decoding() {
        let d = parse("<r>&lt;a&gt; &amp; &quot;b&quot; &apos;c&apos; &#65;&#x42;</r>").unwrap();
        let text = d.tree().children(d.root())[0];
        assert_eq!(d.content(text), Some("<a> & \"b\" 'c' AB"));
    }

    #[test]
    fn cdata_merges_with_text() {
        let d = parse("<r>one <![CDATA[<two> & ]]>three</r>").unwrap();
        let t = d.tree();
        assert_eq!(t.child_count(d.root()), 1);
        let text = t.children(d.root())[0];
        assert_eq!(d.content(text), Some("one <two> & three"));
    }

    #[test]
    fn whitespace_text_dropped_by_default() {
        let d = parse("<r>\n  <a/>\n  <b/>\n</r>").unwrap();
        assert_eq!(d.len(), 3);
        let opts = ParseOptions {
            keep_whitespace_text: true,
            ..Default::default()
        };
        let d = parse_with_options("<r>\n  <a/>\n  <b/>\n</r>", opts).unwrap();
        assert_eq!(d.len(), 6); // 3 whitespace runs kept
    }

    /// Only XML's whitespace (space, tab, CR, LF) makes a text run
    /// formatting; other Unicode spaces are data, written raw or as a
    /// character reference, through the DOM build and the SAX stream.
    #[test]
    fn only_xml_whitespace_is_formatting() {
        for (src, text) in [
            ("<a>&#160;</a>", "\u{a0}"),
            ("<a>\u{a0}</a>", "\u{a0}"),
            ("<a>\u{3000}</a>", "\u{3000}"),
            ("<a> &#x3000;\n</a>", " \u{3000}\n"),
        ] {
            let d = parse(src).unwrap();
            assert_eq!(d.len(), 2, "{src:?}");
            let t = d.tree().children(d.root())[0];
            assert_eq!(d.content(t), Some(text), "{src:?}");
            let mut r = Recorder::default();
            parse_sax(src, ParseOptions::default(), &mut r).unwrap();
            assert_eq!(
                r.events,
                ["<a".to_string(), format!("t:{text}"), ">".into()]
            );
        }
        for src in ["<a> \t\r\n</a>", "<a>&#32;&#x9;&#10;&#13;</a>"] {
            assert_eq!(parse(src).unwrap().len(), 1, "{src:?}");
        }
    }

    /// Text and attribute values without a reference reach the handler
    /// as slices of the input; decoded and merged ones come from the
    /// parser's buffer, with the same content the DOM gets.
    #[test]
    fn plain_text_is_lent_from_the_input() {
        struct Lent<'s> {
            input: &'s str,
            seen: Vec<(String, bool)>,
        }
        impl Lent<'_> {
            fn note(&mut self, data: &str) {
                let range = self.input.as_bytes().as_ptr_range();
                let lent = range.contains(&data.as_ptr()) && !data.is_empty();
                self.seen.push((data.to_string(), lent));
            }
        }
        impl SaxHandler for Lent<'_> {
            type Error = std::convert::Infallible;
            fn start_element(&mut self, _: &str) -> Result<(), Self::Error> {
                Ok(())
            }
            fn attribute(&mut self, _: &str, value: &str) -> Result<(), Self::Error> {
                self.note(value);
                Ok(())
            }
            fn text(&mut self, data: &str) -> Result<(), Self::Error> {
                self.note(data);
                Ok(())
            }
            fn comment(&mut self, _: &str) -> Result<(), Self::Error> {
                Ok(())
            }
            fn processing_instruction(&mut self, _: &str, _: &str) -> Result<(), Self::Error> {
                Ok(())
            }
            fn end_element(&mut self) -> Result<(), Self::Error> {
                Ok(())
            }
        }
        let input = "<r x='plain' y='a&amp;b'>one<b>t&lt;o</b>th<![CDATA[r]]>ee\
                     <!--c-->four<!--d--><![CDATA[five]]></r>";
        let mut h = Lent {
            input,
            seen: Vec::new(),
        };
        parse_sax(input, ParseOptions::default(), &mut h).unwrap();
        let expect = [
            ("plain", true),
            ("a&b", false),
            ("one", true),
            ("t<o", false),
            ("three", false),
            ("four", true),
            ("five", true),
        ];
        let seen: Vec<_> = h.seen.iter().map(|(s, l)| (s.as_str(), *l)).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn comments_and_pis_in_content() {
        let d = parse("<r><!--note--><?target some data?></r>").unwrap();
        let t = d.tree();
        assert_eq!(t.child_count(d.root()), 2);
        let kids = t.children(d.root());
        assert_eq!(d.kind(kids[0]), NodeKind::Comment);
        assert_eq!(d.content(kids[0]), Some("note"));
        assert_eq!(d.kind(kids[1]), NodeKind::ProcessingInstruction);
        assert_eq!(d.name(kids[1]), "target");
        assert_eq!(d.content(kids[1]), Some("some data"));

        let opts = ParseOptions {
            keep_comments: false,
            keep_processing_instructions: false,
            ..Default::default()
        };
        let d = parse_with_options("<r><!--note--><?t d?></r>", opts).unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn deeply_nested_does_not_overflow() {
        let depth = 50_000;
        let mut s = String::new();
        for _ in 0..depth {
            s.push_str("<a>");
        }
        s.push('x');
        for _ in 0..depth {
            s.push_str("</a>");
        }
        let d = parse(&s).unwrap();
        assert_eq!(d.len(), depth + 1);
    }

    #[test]
    fn error_cases() {
        for (input, needle) in [
            ("", "expected root element"),
            ("<a>", "missing end tag"),
            ("<a></b>", "mismatched end tag"),
            ("<a>&bogus;</a>", "unknown entity"),
            ("<a x=1/>", "quoted attribute"),
            ("<a><!--x</a>", "unterminated comment"),
            ("<a/><b/>", "content after document element"),
            ("<a>&#;</a>", "empty character reference"),
            ("<a>&#1114112;</a>", "invalid character reference"),
        ] {
            let err = parse(input).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{input:?}: got {:?}, wanted {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn unicode_names_and_text() {
        let d = parse("<bücher><straße>größe</straße></bücher>").unwrap();
        assert_eq!(d.name(d.root()), "bücher");
        let c = d.tree().children(d.root())[0];
        assert_eq!(d.name(c), "straße");
    }

    /// Event-recording sink: the SAX stream must match the DOM shape.
    #[derive(Default)]
    struct Recorder {
        events: Vec<String>,
    }

    impl SaxHandler for Recorder {
        type Error = String;

        fn start_element(&mut self, name: &str) -> Result<(), String> {
            if name == "boom" {
                return Err("boom".into());
            }
            self.events.push(format!("<{name}"));
            Ok(())
        }
        fn attribute(&mut self, name: &str, value: &str) -> Result<(), String> {
            self.events.push(format!("@{name}={value}"));
            Ok(())
        }
        fn text(&mut self, data: &str) -> Result<(), String> {
            self.events.push(format!("t:{data}"));
            Ok(())
        }
        fn comment(&mut self, data: &str) -> Result<(), String> {
            self.events.push(format!("c:{data}"));
            Ok(())
        }
        fn processing_instruction(&mut self, target: &str, data: &str) -> Result<(), String> {
            self.events.push(format!("?{target}:{data}"));
            Ok(())
        }
        fn end_element(&mut self) -> Result<(), String> {
            self.events.push(">".into());
            Ok(())
        }
    }

    #[test]
    fn sax_event_stream() {
        let mut r = Recorder::default();
        parse_sax(
            r#"<a x="1"><b>hi<!--n--></b><c/><?p d?></a>"#,
            ParseOptions::default(),
            &mut r,
        )
        .unwrap();
        assert_eq!(
            r.events,
            vec!["<a", "@x=1", "<b", "t:hi", "c:n", ">", "<c", ">", "?p:d", ">"]
        );
    }

    #[test]
    fn sax_handler_error_aborts() {
        let mut r = Recorder::default();
        let err = parse_sax("<a><boom/></a>", ParseOptions::default(), &mut r);
        assert!(matches!(err, Err(SaxError::Handler(ref m)) if m == "boom"));
    }

    #[test]
    fn sax_whitespace_filtering_matches_dom() {
        let src = "<r>\n  <a/>\n  hi\n</r>";
        let mut r = Recorder::default();
        parse_sax(src, ParseOptions::default(), &mut r).unwrap();
        // Pure-whitespace run before <a/> dropped; mixed run kept.
        assert_eq!(r.events, vec!["<r", "<a", ">", "t:\n  hi\n", ">"]);
    }
}
