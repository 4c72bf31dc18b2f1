//! Corpora and stores shared by the workloads and the layer probes.

use std::path::{Path, PathBuf};

use natix_core::Ekm;
use natix_datagen::{xmark, GenConfig};
use natix_server::{Client, ClientError, Request, ResponseBody};
use natix_store::{
    bulkload_with, FilePager, NodeRef, StoreConfig, StoreError, XmlStore, PAGE_SIZE,
};
use natix_tree::NodeId;
use natix_xml::{Document, NodeKind};
use natix_xpath::{eval, xpathmark, MemNavigator, Path as XPath, StoreNavigator};

use crate::workloads::{CORPUS_SEED, K};

/// XMark scale of the served document: 177 pages under the EKM layout at
/// K = 256. Twice the scale doubles a cycle to a third of a second and
/// leaves a 24 s run too few rounds for a median.
pub const XMARK_SCALE: f64 = 0.08;

/// The first `n` documents of the small-document stream (the six paper
/// generators at their structural minimum, cycled).
pub fn small_corpus(n: usize) -> Vec<String> {
    natix_datagen::small_docs(n, CORPUS_SEED).collect()
}

/// What one XPathMark query must return: hit count and rendered hits,
/// from an in-memory evaluation of the same document.
pub struct Expected {
    pub name: &'static str,
    pub text: &'static str,
    pub path: XPath,
    pub count: u32,
    pub lines: Vec<String>,
}

/// Render an in-memory hit the way the server renders a stored one.
fn render(doc: &Document, n: NodeId) -> String {
    let name = doc.name(n);
    match (doc.kind(n), doc.content(n)) {
        (NodeKind::Element, _) => format!("<{name}>"),
        (NodeKind::Attribute, Some(v)) => format!("@{name}=\"{v}\""),
        (_, Some(v)) => v.to_string(),
        (_, None) => format!("<{name}>"),
    }
}

/// Q1–Q7 evaluated over `doc` in memory: the oracle for served results.
pub fn expected_results(doc: &Document) -> Result<Vec<Expected>, String> {
    xpathmark::all()
        .into_iter()
        .map(|(name, text)| {
            let path = natix_xpath::parse(text).map_err(|e| format!("{name}: {e}"))?;
            let hits = eval(&mut MemNavigator::new(doc), &path)
                .map_err(|e| format!("{name}: in-memory evaluation: {e}"))?;
            Ok(Expected {
                name,
                text,
                count: hits.len() as u32,
                lines: hits.iter().map(|&n| render(doc, n)).collect(),
                path,
            })
        })
        .collect()
}

/// One XMark document loaded into a store file with the EKM layout.
pub struct XmarkStore {
    pub path: PathBuf,
    pub doc: Document,
    pub xml: String,
    pub pages: u64,
    pub expected: Vec<Expected>,
}

impl XmarkStore {
    /// Generate, bulkload onto `path`, and compute the query oracle.
    pub fn build(path: &Path, scale: f64) -> Result<XmarkStore, String> {
        let doc = xmark(GenConfig {
            scale,
            seed: CORPUS_SEED,
        });
        let pager = FilePager::create(path).map_err(|e| format!("create store file: {e}"))?;
        let store = bulkload_with(&doc, &Ekm, K, Box::new(pager), StoreConfig::default())
            .map_err(|e| format!("bulkload served store: {e}"))?;
        drop(store);
        let expected = expected_results(&doc)?;
        Ok(XmarkStore {
            path: path.to_path_buf(),
            xml: doc.to_xml(),
            pages: crate::workloads::file_len(path) / PAGE_SIZE as u64,
            doc,
            expected,
        })
    }

    /// Store bytes per byte of XML text.
    pub fn space_amp(&self) -> f64 {
        (self.pages * PAGE_SIZE as u64) as f64 / self.xml.len() as f64
    }
}

/// First node `path` selects, as the served update path resolves its
/// target.
pub fn first_hit(store: &mut XmlStore, path: &str) -> Result<NodeRef, StoreError> {
    let parsed =
        natix_xpath::parse(path).map_err(|_| StoreError::InvalidUpdate("probe path parses"))?;
    eval(&mut StoreNavigator::new(store), &parsed)?
        .into_iter()
        .next()
        .ok_or(StoreError::InvalidUpdate("update target matched no node"))
}

/// Append `<name/>` under `/site/regions/<region>`.
pub fn append(store: &mut XmlStore, region: &str, name: &str) -> Result<(), StoreError> {
    let parent = first_hit(store, &format!("/site/regions/{region}"))?;
    store
        .append_child(parent, NodeKind::Element, name, None)
        .map(|_| ())
}

/// Delete the first `<name>` under `/site/regions/<region>`.
pub fn delete(store: &mut XmlStore, region: &str, name: &str) -> Result<(), StoreError> {
    let node = first_hit(store, &format!("/site/regions/{region}/{name}"))?;
    store.delete_subtree(node)
}

/// Send query `q` and compare the answer with the oracle. `Ok(retries)`
/// when it matched.
pub fn checked_query(client: &mut Client, q: &Expected) -> Result<u32, String> {
    let req = Request::Query {
        xpath: q.text.to_string(),
        count_only: false,
    };
    let (resp, retries) = client
        .request_retry(&req, 50)
        .map_err(|e: ClientError| format!("{}: {e}", q.name))?;
    match resp.body {
        ResponseBody::QueryResult { count, lines } if count == q.count && lines == q.lines => {
            Ok(retries)
        }
        ResponseBody::QueryResult { count, .. } => Err(format!(
            "{}: served {count} hits, in-memory evaluation {}",
            q.name, q.count
        )),
        other => Err(format!("{}: unexpected response {other:?}", q.name)),
    }
}
