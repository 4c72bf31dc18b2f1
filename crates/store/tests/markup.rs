//! Hand-written markup through both ingest paths. The generated corpora
//! are `to_xml()` output: no CDATA, no character references, no comment
//! between two text runs, so the tokenizer hands the loader only text it
//! lends from the input. These documents also make it decode references
//! and merge runs into its buffer, in text and in attribute values. The
//! SAX stream must equal the DOM parse, and the streaming loader's page
//! file the batch loader's, byte for byte.

use natix_core::{Partitioner, StreamingEkm};
use natix_store::{stream_bulkload, MemPager, SharedMemPager, StoreConfig, XmlStore};
use natix_xml::{parse, parse_sax, Document, NodeKind, ParseOptions, SaxHandler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Characters worth writing as references: markup, Latin-1, a CJK space,
/// one beyond the BMP.
const REFERENCED: [char; 7] = ['<', '&', 'A', '\u{a0}', 'é', '\u{3000}', '\u{1f600}'];

/// Character data of `rng`'s choosing; `in_content` allows CDATA,
/// comments and processing instructions, which split or join text runs.
fn char_data(rng: &mut StdRng, out: &mut String, in_content: bool) {
    for _ in 0..rng.gen_range(1..5) {
        match rng.gen_range(0..if in_content { 9 } else { 6 }) {
            0 => out.push_str(["plain", "b c", "x", "größe"][rng.gen_range(0..4)]),
            1 => out.push_str(["&amp;", "&lt;", "&gt;", "&quot;", "&apos;"][rng.gen_range(0..5)]),
            2 => {
                let c = REFERENCED[rng.gen_range(0..REFERENCED.len())];
                out.push_str(&format!("&#x{:x};", c as u32));
            }
            3 => {
                let c = REFERENCED[rng.gen_range(0..REFERENCED.len())];
                out.push_str(&format!("&#{};", c as u32));
            }
            4 => out.push_str([" ", "\n\t", "\u{a0}", " \u{3000} "][rng.gen_range(0..4)]),
            5 => out.push('\u{3000}'),
            6 => out.push_str(
                ["<![CDATA[a<b]]>", "<![CDATA[&amp;]]>", "<![CDATA[]]>"][rng.gen_range(0..3)],
            ),
            7 => out.push_str(["<!--c-->", "<!---->"][rng.gen_range(0..2)]),
            _ => out.push_str("<?pi some data?>"),
        }
    }
}

fn element(rng: &mut StdRng, out: &mut String, depth: usize) {
    let name = ["a", "b", "item", "ns:x"][rng.gen_range(0..4)];
    out.push('<');
    out.push_str(name);
    for i in 0..rng.gen_range(0..3) {
        out.push_str(&format!(" at{i}=\""));
        char_data(rng, out, false);
        out.push('"');
    }
    if rng.gen_range(0..4) == 0 {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..rng.gen_range(0..6) {
        if depth < 4 && rng.gen_range(0..3) == 0 {
            element(rng, out, depth + 1);
        } else {
            char_data(rng, out, true);
        }
    }
    out.push_str(&format!("</{name}>"));
}

/// A document of `seed`'s choosing, about a hundred nodes.
fn markup_doc(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::from("<?xml version=\"1.0\"?><doc>");
    for _ in 0..rng.gen_range(1..8) {
        element(&mut rng, &mut out, 0);
        char_data(&mut rng, &mut out, true);
    }
    out.push_str("</doc>");
    out
}

/// The events a SAX handler sees, one string each.
#[derive(Default)]
struct Recorder(Vec<String>);

impl SaxHandler for Recorder {
    type Error = std::convert::Infallible;

    fn start_element(&mut self, name: &str) -> Result<(), Self::Error> {
        self.0.push(format!("<{name}"));
        Ok(())
    }
    fn attribute(&mut self, name: &str, value: &str) -> Result<(), Self::Error> {
        self.0.push(format!("@{name}={value}"));
        Ok(())
    }
    fn text(&mut self, data: &str) -> Result<(), Self::Error> {
        self.0.push(format!("t:{data}"));
        Ok(())
    }
    fn comment(&mut self, data: &str) -> Result<(), Self::Error> {
        self.0.push(format!("c:{data}"));
        Ok(())
    }
    fn processing_instruction(&mut self, target: &str, data: &str) -> Result<(), Self::Error> {
        self.0.push(format!("?{target}:{data}"));
        Ok(())
    }
    fn end_element(&mut self) -> Result<(), Self::Error> {
        self.0.push(">".into());
        Ok(())
    }
}

/// The same event strings, read off a parsed document.
fn dom_events(doc: &Document) -> Vec<String> {
    fn walk(doc: &Document, v: natix_tree::NodeId, out: &mut Vec<String>) {
        let content = doc.content(v).unwrap_or_default();
        match doc.kind(v) {
            NodeKind::Element => {
                out.push(format!("<{}", doc.name(v)));
                for &c in doc.tree().children(v) {
                    walk(doc, c, out);
                }
                out.push(">".into());
            }
            NodeKind::Attribute => out.push(format!("@{}={content}", doc.name(v))),
            NodeKind::Text => out.push(format!("t:{content}")),
            NodeKind::Comment => out.push(format!("c:{content}")),
            NodeKind::ProcessingInstruction => out.push(format!("?{}:{content}", doc.name(v))),
        }
    }
    let mut out = Vec::new();
    walk(doc, doc.root(), &mut out);
    out
}

fn config(k: u64) -> StoreConfig {
    StoreConfig {
        record_limit_slots: k,
        ..StoreConfig::default()
    }
}

/// The page file the batch path writes for `doc`.
fn batch_bytes(doc: &Document, k: u64, budget: usize) -> Vec<u8> {
    let p = StreamingEkm {
        sibling_budget: budget,
    }
    .partition(doc.tree(), k)
    .expect("feasible");
    let disk = SharedMemPager::new();
    drop(XmlStore::bulkload(doc, &p, Box::new(disk.clone()), config(k)).expect("bulkload"));
    disk.snapshot()
}

/// The page file the streaming path writes for `xml`.
fn streamed_bytes(xml: &str, k: u64, budget: usize) -> Vec<u8> {
    let disk = SharedMemPager::new();
    drop(stream_bulkload(xml, budget, Box::new(disk.clone()), config(k)).expect("stream"));
    disk.snapshot()
}

#[test]
fn generated_markup_has_what_it_is_for() {
    let xml: String = (0..16).map(markup_doc).collect();
    for needle in ["&amp;", "&#x", "&#", "<![CDATA[", "<!--c-->", "\u{a0}"] {
        assert!(xml.contains(needle), "no {needle:?} in the sample");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// References, CDATA and comments: the SAX stream equals the DOM
    /// parse, and both loaders write the same bytes.
    #[test]
    fn markup_loads_the_same_through_both_paths(
        seed in any::<u64>(),
        k_idx in 0usize..3,
        budget in 0usize..6,
    ) {
        let xml = markup_doc(seed);
        let doc = parse(&xml).unwrap_or_else(|e| panic!("{e}\n{xml}"));
        let mut sax = Recorder::default();
        parse_sax(&xml, ParseOptions::default(), &mut sax).unwrap();
        prop_assert_eq!(&sax.0, &dom_events(&doc), "{}", xml);

        let k = [48u64, 128, 256][k_idx];
        prop_assert!(batch_bytes(&doc, k, budget) == streamed_bytes(&xml, k, budget), "{}", xml);
    }
}

/// Text made only of non-XML whitespace is data: it survives a streaming
/// load and reads back.
#[test]
fn unicode_space_text_round_trips_through_the_store() {
    for (src, text) in [
        ("<a>&#160;</a>", "\u{a0}"),
        ("<a>\u{a0}</a>", "\u{a0}"),
        ("<a>\u{3000}</a>", "\u{3000}"),
    ] {
        let (mut store, stats) =
            stream_bulkload(src, 0, Box::new(MemPager::new()), config(64)).expect("load");
        assert_eq!(stats.nodes, 2, "{src:?}");
        let doc = store.to_document().expect("read back");
        assert_eq!(doc.to_xml(), format!("<a>{text}</a>"), "{src:?}");
    }
}
