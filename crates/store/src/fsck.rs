//! `natix fsck`: an offline scrubber and best-effort repair tool for
//! Natix page files. It reads a file the way its readers do, through the
//! read-only view ([`crate::XmlStore::open_read_only`]'s seed), except where it
//! must see what a reader would refuse to return: the header slots, the
//! frame of every page, and repair's salvage scan read raw pages.
//!
//! Scrub passes (read-only):
//!
//! 1. **Headers** — both ping-pong slots are decoded raw (they carry
//!    their own checksums); an invalid loser slot is crash debris, not
//!    damage. A header of another format version ends the run with one
//!    `unsupported-format` error: such a file is neither scrubbed nor,
//!    with `repair`, touched.
//! 2. **Pending journal** — a journal left by a crash between commit
//!    point and checkpoint becomes the view's overlay, so the scrub
//!    judges the state recovery would produce, not the torn
//!    mid-checkpoint bytes. With `repair`, recovery itself runs instead;
//!    a replay write or barrier that fails is an `io-error`, not damage.
//! 3. **Catalog** — the blob the winning header references must read and
//!    decode, as the view reads it.
//! 4. **Page frames** — every allocated page must be zero (never
//!    written) or carry a valid frame. Damage to a page *referenced* by
//!    the committed state is an error; damage to unreferenced pages
//!    (orphaned appends from crashes, stale catalogs) is a warning.
//! 5. **Record graph** — the walk `check_consistency` runs
//!    (`XmlStore::walk_graph`) over the view, one finding per broken
//!    rule: a record fsck can read is exactly a record a reader can read.
//!
//! Repair (`repair = true`) rebuilds the newest
//! consistent state from surviving pages. Every intact page is scanned
//! for self-describing blobs — `NRC3` records in slotted pages, `NOV3`
//! overflow chains, `NCT3` catalogs — duplicate claims to a record
//! number are resolved by highest commit epoch, and the directory is
//! rebuilt from the newest intact catalog plus any surviving records
//! from newer commits. Records that are referenced by a surviving proxy
//! but unrecoverable are **quarantined** (their proxies remain as
//! tombstones; strict reads of them fail, degraded reads skip and
//! report them); records no longer reachable from the root are dropped.
//! The repaired catalog, a barrier, and identical fresh headers in
//! *both* slots are then published. Losing the root record is not
//! repairable.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::catalog::{self, Catalog, Header, RecordLoc};
use crate::concurrent::{PagerFactory, SnapshotSeed};
use crate::journal;
use crate::page::{
    is_zero_page, page_class_of, seal_frame, verify_frame, FrameCheck, PageClass, SlottedPage,
    FORMAT_VERSION, PAGE_SIZE, PAYLOAD_SIZE,
};
use crate::pager::{read_chunked, BufferPool, ChecksummingPager, PageId, StoreResult};
use crate::record::{self, ChildEntry, RecordData, NONE_U32};
use crate::store::{
    load_record, overflow_page_span, read_overflow_chain, recover, StoreConfig, OVERFLOW_MAGIC,
};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FsckSeverity {
    /// Normal observation (format version, repair actions).
    Info,
    /// Suspicious but harmless to the committed state (crash debris,
    /// quarantine tombstones).
    Warning,
    /// The committed state is damaged.
    Error,
}

impl std::fmt::Display for FsckSeverity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsckSeverity::Info => "info",
            FsckSeverity::Warning => "warning",
            FsckSeverity::Error => "error",
        })
    }
}

/// One scrub observation.
#[derive(Debug, Clone)]
pub struct FsckFinding {
    /// Severity class.
    pub severity: FsckSeverity,
    /// Stable machine-readable code (e.g. `page-corrupt`).
    pub code: &'static str,
    /// Affected page, if page-scoped.
    pub page: Option<PageId>,
    /// Affected record, if record-scoped.
    pub record: Option<u32>,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for FsckFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "finding severity={} code={}", self.severity, self.code)?;
        if let Some(p) = self.page {
            write!(f, " page={p}")?;
        }
        if let Some(r) = self.record {
            write!(f, " record={r}")?;
        }
        write!(f, " detail={}", self.detail)
    }
}

/// The scrub/repair result. Rendered ([`std::fmt::Display`]) as
/// machine-readable `key=value` lines: one `fsck …` summary line, one
/// `finding …` line per observation, and a `repair …` line when a
/// repair ran.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Everything observed, in pass order.
    pub findings: Vec<FsckFinding>,
    /// Allocated pages in the file.
    pub pages_scanned: u32,
    /// Directory entries examined by the graph walk.
    pub records_checked: u32,
    /// Store format version (0 when undetermined).
    pub format: u8,
    /// Whether a repair ran and published a new catalog.
    pub repaired: bool,
    /// Records recovered by the repair.
    pub recovered_records: u32,
    /// Quarantined records after the repair (including pre-existing).
    pub quarantined: Vec<u32>,
}

impl FsckReport {
    /// True when no error-severity finding was recorded: the committed
    /// state is intact (warnings — debris, quarantine tombstones — do
    /// not count).
    pub fn clean(&self) -> bool {
        !self
            .findings
            .iter()
            .any(|f| f.severity == FsckSeverity::Error)
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == FsckSeverity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == FsckSeverity::Warning)
            .count()
    }

    fn push(
        &mut self,
        severity: FsckSeverity,
        code: &'static str,
        page: Option<PageId>,
        record: Option<u32>,
        detail: impl Into<String>,
    ) {
        self.findings.push(FsckFinding {
            severity,
            code,
            page,
            record,
            detail: detail.into(),
        });
    }

    fn info(&mut self, code: &'static str, detail: impl Into<String>) {
        self.push(FsckSeverity::Info, code, None, None, detail);
    }

    fn warn(
        &mut self,
        code: &'static str,
        page: Option<PageId>,
        record: Option<u32>,
        detail: impl Into<String>,
    ) {
        self.push(FsckSeverity::Warning, code, page, record, detail);
    }

    fn error(
        &mut self,
        code: &'static str,
        page: Option<PageId>,
        record: Option<u32>,
        detail: impl Into<String>,
    ) {
        self.push(FsckSeverity::Error, code, page, record, detail);
    }
}

impl std::fmt::Display for FsckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fsck status={} format={} pages={} records={} errors={} warnings={}",
            if self.clean() { "clean" } else { "damaged" },
            self.format,
            self.pages_scanned,
            self.records_checked,
            self.errors(),
            self.warnings(),
        )?;
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        if self.repaired {
            let q: Vec<String> = self.quarantined.iter().map(u32::to_string).collect();
            writeln!(
                f,
                "repair recovered={} quarantined={}",
                self.recovered_records,
                if q.is_empty() {
                    "-".into()
                } else {
                    q.join(",")
                },
            )?;
        }
        Ok(())
    }
}

/// Scrub the page file behind `pages`; with `repair`, additionally
/// rebuild the store from surviving pages when the scrub is not clean.
///
/// Never panics and never returns early on corruption: everything it
/// finds lands in the report, an I/O failure included (`io-error`).
pub fn fsck(pages: &dyn PagerFactory, repair: bool) -> FsckReport {
    let mut report = FsckReport::default();
    if let Err(e) = scrub(pages, repair, &mut report) {
        report.error("io-error", None, None, e.to_string());
    }
    report
}

/// The five passes, then the repair; `Err` is an I/O failure that ends
/// the run.
fn scrub(pages: &dyn PagerFactory, repair: bool, report: &mut FsckReport) -> StoreResult<()> {
    let mut raw = pages.open_pager()?;
    let count = raw.page_count();
    report.pages_scanned = count;
    if count < 2 {
        report.error(
            "file-too-small",
            None,
            None,
            format!("{count} pages; need at least the two header slots"),
        );
        return Ok(());
    }

    // Pass 1: header slots, raw.
    let mut slot0 = Box::new([0u8; PAGE_SIZE]);
    let mut slot1 = Box::new([0u8; PAGE_SIZE]);
    raw.read(0, &mut slot0)?;
    raw.read(1, &mut slot1)?;
    let decoded = [&slot0, &slot1].map(|slot| catalog::decode_header_slot(slot));
    let winner = match catalog::pick_header(&slot0, &slot1) {
        Ok(header) => Some(header),
        Err(e) if decoded.iter().any(Result::is_err) => {
            // Another format's file. Nothing below can judge it, and a repair
            // would find no framed page to salvage and overwrite it.
            report.error(
                "unsupported-format",
                None,
                None,
                format!("{e}; not scrubbed, and never modified by --repair"),
            );
            return Ok(());
        }
        Err(_) => None,
    };
    for (slot, (buf, dec)) in [&slot0, &slot1].into_iter().zip(&decoded).enumerate() {
        if matches!(dec, Ok(Some(_))) {
            continue;
        }
        if is_zero_page(buf) || verify_frame(buf) == FrameCheck::Ok {
            // Never published, or a sealed non-header page: the normal
            // state of the losing slot right after bulkload.
            continue;
        }
        report.warn(
            "header-slot-invalid",
            Some(slot as PageId),
            None,
            "slot does not decode as a header (torn publish or bit rot)",
        );
    }
    let Some(mut header) = winner else {
        report.error(
            "headers-lost",
            None,
            None,
            "neither header slot decodes: not a recognizable Natix store",
        );
        if repair {
            repair_store(pages, None, report)?;
        }
        return Ok(());
    };
    report.format = FORMAT_VERSION;

    // Pass 2: the pending journal becomes the view's overlay (the scrub
    // judges the post-recovery state); with `repair`, recovery runs.
    let mut checked = ChecksummingPager::new(pages.open_pager()?);
    let mut pending = Vec::new();
    if header.journal_len > 0 {
        match journal::read_pending(&mut checked, &header) {
            Err(e) => report.error(
                "journal-corrupt",
                Some(header.journal_first_page),
                None,
                e.to_string(),
            ),
            Ok(_) if repair => {
                // The journal reads, so what can fail now is a write or the
                // barrier: an I/O error that ends the run, not damage.
                header = recover(&mut checked, header)?;
                report.info("journal-replayed", "pending journal checkpointed to disk")
            }
            Ok(images) => {
                report.info(
                    "journal-pending",
                    format!(
                        "unfinished checkpoint: {} page images overlaid for scrubbing",
                        images.len()
                    ),
                );
                pending = images;
            }
        }
    }

    // Pass 3: the catalog, as the read-only view reads and decodes it.
    let view_pager = pages.open_pager()?;
    let view = SnapshotSeed::read(header, pending, &mut checked, StoreConfig::default())
        .and_then(|seed| Ok((seed.open(view_pager)?.0, seed.overlay)));
    let (mut view, overlay) = match view {
        Ok((store, overlay)) => (Some(store), overlay),
        Err(e) => {
            let first = header.catalog_first_page;
            report.error("catalog-corrupt", Some(first), None, e.to_string());
            (None, Arc::default())
        }
    };

    // Pass 4: frame verification, raw, split by whether the committed
    // state references the page.
    let directory = view.as_ref().map_or(&[][..], |v| &v.directory[..]);
    let referenced = catalog::referenced(&header, directory);
    let mut buf = Box::new([0u8; PAGE_SIZE]);
    for id in 2..count {
        if let Some(image) = overlay.get(&id) {
            // Recovery overwrites the page with its journaled image.
            *buf = **image;
            seal_frame(&mut buf);
        } else if let Err(e) = raw.read(id, &mut buf) {
            report.error("io-error", Some(id), None, e.to_string());
            continue;
        }
        if is_zero_page(&buf) {
            continue;
        }
        let hit = referenced.get(&id);
        match verify_frame(&buf) {
            FrameCheck::Ok => {
                if let Some(&(class, record)) = hit {
                    let found = page_class_of(&buf);
                    if found != class {
                        report.error(
                            "class-mismatch",
                            Some(id),
                            record,
                            format!("committed state expects a {class} page, found {found}"),
                        );
                    }
                }
            }
            FrameCheck::NotFramed => match hit {
                Some(&(class, record)) => report.error(
                    "page-corrupt",
                    Some(id),
                    record,
                    format!("referenced {class} page has no valid frame"),
                ),
                None => report.warn(
                    "debris-page",
                    Some(id),
                    None,
                    "unreferenced page without a valid frame (torn append debris)",
                ),
            },
            FrameCheck::Mismatch { expected, found } => match hit {
                Some(&(class, record)) => report.error(
                    "page-corrupt",
                    Some(id),
                    record,
                    format!(
                        "referenced {class} page checksum mismatch \
                         (stored {expected:#018x}, computed {found:#018x})"
                    ),
                ),
                None => report.warn(
                    "debris-page",
                    Some(id),
                    None,
                    "unreferenced page fails its checksum (decayed debris)",
                ),
            },
        }
    }

    // Pass 5: the record graph, through the view.
    if let Some(view) = &mut view {
        report.records_checked = view.live_record_count() as u32;
        view.walk_graph(&mut |v| {
            let severity = if v.warning {
                FsckSeverity::Warning
            } else {
                FsckSeverity::Error
            };
            report.push(severity, v.code, None, Some(v.record), v.error.to_string());
        });
    }

    if repair && !report.clean() {
        repair_store(pages, Some(&header), report)?;
    }
    Ok(())
}

/// One salvaged record found by the raw-page scan.
struct Salvaged {
    epoch: u64,
    loc: RecordLoc,
    data: RecordData,
}

/// Rebuild the store from surviving pages; see the module docs.
/// `header` is the winning header if any slot still decodes (its epoch
/// joins the new-epoch computation even when its catalog is gone).
/// Records and chains are read with the store's own readers over a
/// [`ChecksummingPager`], so only pages whose frames verify contribute.
fn repair_store(
    pages: &dyn PagerFactory,
    header: Option<&Header>,
    report: &mut FsckReport,
) -> StoreResult<()> {
    let mut raw = pages.open_pager()?;
    let mut checked = ChecksummingPager::new(pages.open_pager()?);
    let mut pool = BufferPool::new(
        Box::new(ChecksummingPager::new(pages.open_pager()?)),
        StoreConfig::default().buffer_pages,
    );
    let count = raw.page_count();
    let mut buf = Box::new([0u8; PAGE_SIZE]);
    let mut candidates: BTreeMap<u32, Salvaged> = BTreeMap::new();
    let mut best_catalog: Option<(u64, Catalog)> = None;
    let offer = |candidates: &mut BTreeMap<u32, Salvaged>, s: Salvaged| {
        let no = s.data.self_no;
        match candidates.get(&no) {
            Some(old) if old.epoch >= s.epoch => {}
            _ => {
                candidates.insert(no, s);
            }
        }
    };

    // Salvage: read every intact page for self-describing blobs.
    for id in 2..count {
        if raw.read(id, &mut buf).is_err() {
            continue;
        }
        if is_zero_page(&buf) || verify_frame(&buf) != FrameCheck::Ok {
            continue;
        }
        // Pages a chain starting here may span (a head's announced length
        // is checked against it before anything is allocated for it).
        let left = (count - id) as usize;
        match page_class_of(&buf) {
            PageClass::Record => {
                let mut page = buf.clone();
                let sp = SlottedPage::new(&mut page);
                for slot in 0..sp.slot_count() {
                    let Some(bytes) = sp.get(slot) else { continue };
                    if bytes.len() < 4 || &bytes[..4] != record::RECORD_MAGIC {
                        continue;
                    }
                    if let Ok(data) = record::decode(bytes.to_vec(), usize::MAX) {
                        offer(
                            &mut candidates,
                            Salvaged {
                                epoch: data.epoch,
                                loc: RecordLoc::InPage { page: id, slot },
                                data,
                            },
                        );
                    }
                }
            }
            PageClass::Overflow => {
                if &buf[..4] != OVERFLOW_MAGIC {
                    continue; // continuation page, not a chain head
                }
                let len = u32::from_le_bytes(buf[4..8].try_into().expect("4")) as usize;
                if overflow_page_span(len) > left {
                    continue;
                }
                let chain = read_overflow_chain(&mut pool, NONE_U32, id, len);
                if let Ok(data) = chain.and_then(|bytes| record::decode(bytes, usize::MAX)) {
                    offer(
                        &mut candidates,
                        Salvaged {
                            epoch: data.epoch,
                            loc: RecordLoc::Overflow {
                                first_page: id,
                                len: len as u32,
                            },
                            data,
                        },
                    );
                }
            }
            PageClass::Catalog => {
                let Some(len) = catalog::catalog_blob_len(&buf[..PAYLOAD_SIZE]) else {
                    continue; // continuation page, not a blob head
                };
                if len > (left * PAYLOAD_SIZE) as u64 {
                    continue;
                }
                let blob = read_chunked(&mut checked, id, len as usize);
                if let Ok(cat) = blob.and_then(|bytes| catalog::decode_catalog(&bytes)) {
                    if best_catalog.as_ref().is_none_or(|(e, _)| cat.epoch > *e) {
                        best_catalog = Some((cat.epoch, cat));
                    }
                }
            }
            _ => {}
        }
    }

    let Some((cat_epoch, cat)) = best_catalog else {
        report.error(
            "no-catalog-recoverable",
            None,
            None,
            "no intact catalog blob found anywhere: labels and directory are lost",
        );
        return Ok(());
    };
    report.info(
        "repair-catalog",
        format!("rebuilding from catalog epoch {cat_epoch}"),
    );

    // Records written after the chosen catalog (its own pages may be the
    // damage we are recovering from) are newer truth; records older than
    // it are stale leftovers and must never be resurrected.
    let stale = |epoch: u64| epoch < cat_epoch;
    let label_count = cat.labels.len();
    let labels_ok = |data: &RecordData| data.nodes().all(|n| (n.label as usize) < label_count);

    let dir_len = cat
        .directory
        .len()
        .max(candidates.keys().next_back().map_or(0, |&m| m as usize + 1));
    let mut recovered: BTreeMap<u32, Salvaged> = BTreeMap::new();
    for no in 0..dir_len as u32 {
        let committed = cat
            .directory
            .get(no as usize)
            .copied()
            .unwrap_or(RecordLoc::Free);
        let read = load_record(&mut pool, no, committed)
            .and_then(|bytes| record::decode(bytes, label_count));
        if let Some(data) = read.ok().filter(|data| data.self_no == no) {
            recovered.insert(
                no,
                Salvaged {
                    epoch: data.epoch,
                    loc: committed,
                    data,
                },
            );
            continue;
        }
        if let Some(s) = candidates.remove(&no) {
            if !stale(s.epoch) && labels_ok(&s.data) {
                recovered.insert(no, s);
            }
        }
    }

    if !recovered.contains_key(&cat.root_record) {
        report.error(
            "root-unrecoverable",
            None,
            Some(cat.root_record),
            "the root record did not survive; the store cannot be repaired",
        );
        return Ok(());
    }

    // Reachability walk: keep what the root still reaches, quarantine
    // what reachable proxies point at but we could not recover, drop the
    // rest (subtrees stranded inside quarantined partitions).
    let mut quarantine: BTreeSet<u32> = cat.quarantined.iter().copied().collect();
    let mut new_dir = vec![RecordLoc::Free; dir_len];
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    seen.insert(cat.root_record);
    let mut stack = vec![cat.root_record];
    let mut max_epoch = cat_epoch.max(header.map_or(0, |h| h.epoch));
    while let Some(no) = stack.pop() {
        let s = &recovered[&no];
        new_dir[no as usize] = s.loc;
        max_epoch = max_epoch.max(s.epoch);
        for node in s.data.nodes() {
            for e in s.data.entries(&node) {
                let ChildEntry::Proxy(t) = e else { continue };
                if seen.contains(&t) || quarantine.contains(&t) {
                    continue;
                }
                if recovered.contains_key(&t) {
                    seen.insert(t);
                    stack.push(t);
                } else {
                    quarantine.insert(t);
                    report.warn(
                        "record-quarantined",
                        None,
                        Some(t),
                        format!("referenced by record {no} but unrecoverable"),
                    );
                }
            }
        }
    }
    let dropped = recovered.len() - seen.len();
    if dropped > 0 {
        report.warn(
            "dropped-unreachable",
            None,
            None,
            format!("{dropped} surviving records are no longer reachable from the root"),
        );
    }

    // Publish: fresh catalog pages, a barrier, then identical headers in
    // both slots — headers that reached the disk ahead of the catalog
    // they name could outlive it in a power cut.
    let quarantined: Vec<u32> = quarantine.iter().copied().collect();
    let new_epoch = max_epoch + 1;
    let catalog_bytes = catalog::encode_catalog(
        &new_dir,
        &cat.labels,
        &quarantined,
        cat.root_record,
        cat.record_limit,
        new_epoch,
    );
    let catalog_first_page = pool.append_chunked(&catalog_bytes, PageClass::Catalog)?;
    pool.sync_backend()?;
    let new_header = catalog::encode_header(&Header {
        epoch: new_epoch,
        root_record: cat.root_record,
        catalog_first_page,
        catalog_len: catalog_bytes.len() as u64,
        record_limit: cat.record_limit,
        journal_first_page: 0,
        journal_len: 0,
    });
    for slot in [0, 1] {
        pool.write_through(slot, &new_header)?;
    }
    report.repaired = true;
    report.recovered_records = seen.len() as u32;
    report.quarantined = quarantined;
    report.info(
        "repair-complete",
        format!(
            "published catalog epoch {new_epoch}: {} records live, {} quarantined",
            seen.len(),
            report.quarantined.len()
        ),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::{Pager, SharedMemPager};
    use crate::record::RecordImage;
    use crate::store::{bulkload_with, XmlStore};
    use natix_core::Ekm;

    const K: u64 = 160;

    /// A clean store whose items are records of their own, spread over
    /// several pages, behind proxies from the root record.
    fn clean_disk() -> SharedMemPager {
        let mut xml = String::from("<site>");
        for i in 0..24 {
            let note = format!("text content for padding {i} ").repeat(30);
            xml.push_str(&format!(
                "<item><name>object {i}</name><note>{note}</note></item>"
            ));
        }
        xml.push_str("</site>");
        let doc = natix_xml::parse(&xml).unwrap();
        let disk = SharedMemPager::new();
        let config = StoreConfig {
            record_limit_slots: K,
            ..Default::default()
        };
        bulkload_with(&doc, &Ekm, K, Box::new(disk.clone()), config).unwrap();
        disk
    }

    fn image(store: &mut XmlStore, no: u32) -> RecordImage {
        store.fetch(no).unwrap().to_image()
    }

    /// The last record reached through a proxy that holds no proxy of
    /// its own.
    fn leaf_proxy(store: &mut XmlStore) -> u32 {
        let mut found = None;
        for no in 0..store.record_count() as u32 {
            for e in image(store, no).nodes.iter().flat_map(|n| &n.entries) {
                let ChildEntry::Proxy(t) = *e else { continue };
                let nodes = image(store, t).nodes;
                let mut entries = nodes.iter().flat_map(|n| &n.entries);
                if entries.all(|e| matches!(e, ChildEntry::Local(_))) {
                    found = Some(t);
                }
            }
        }
        found.expect("a leaf record behind a proxy")
    }

    /// One forgery per record-graph rule, written through the store's own
    /// record writer and commit, so every page frame stays valid.
    type Forge = fn(&mut XmlStore);
    const FORGERIES: [(&str, Forge); 8] = [
        ("local-backlink", |store| {
            let t = leaf_proxy(store);
            let mut img = image(store, t);
            let child = img
                .nodes
                .iter()
                .flat_map(|n| &n.entries)
                .find_map(|e| match *e {
                    ChildEntry::Local(c) => Some(c as usize),
                    ChildEntry::Proxy(_) => None,
                })
                .expect("a local child");
            img.nodes[child].entry_pos += 1;
            store.write_record(t, &img).unwrap();
        }),
        ("proxy-backlink", |store| {
            let t = leaf_proxy(store);
            let mut img = image(store, t);
            img.proxy_pos += 1;
            store.write_record(t, &img).unwrap();
        }),
        ("dangling-proxy", |store| {
            let t = leaf_proxy(store);
            store.directory[t as usize] = RecordLoc::Free;
        }),
        ("double-reachable", |store| {
            let t = leaf_proxy(store);
            let root = store.root_record;
            let mut img = image(store, root);
            let top = img.roots[0] as usize;
            img.nodes[top].entries.push(ChildEntry::Proxy(t));
            store.write_record(root, &img).unwrap();
        }),
        ("leaked-record", |store| {
            let t = leaf_proxy(store);
            let img = image(store, t);
            let copy = store.reserve_record();
            store.write_record(copy, &img).unwrap();
        }),
        ("overweight-record", |store| {
            let t = leaf_proxy(store);
            let mut img = image(store, t);
            let text = img.nodes.iter_mut().find(|n| n.content.is_some()).unwrap();
            text.content = Some("x".repeat(8 * K as usize).into());
            store.write_record(t, &img).unwrap();
        }),
        ("root-has-parent", |store| {
            let t = leaf_proxy(store);
            let mut img = image(store, t);
            let r = img.roots[0];
            img.nodes[r as usize].parent_local = (r + 1) % img.nodes.len() as u16;
            store.write_record(t, &img).unwrap();
        }),
        // The view decodes a record against the label table, so a label
        // out of range makes the record undecodable.
        ("record-undecodable", |store| {
            let t = leaf_proxy(store);
            let mut img = image(store, t);
            img.nodes[0].label = store.labels.len() as u16;
            store.write_record(t, &img).unwrap();
        }),
    ];

    #[test]
    fn every_forged_rule_violation_fails_both_checkers_with_its_code() {
        let clean = clean_disk().snapshot();
        let config = StoreConfig::default();
        for (code, forge) in FORGERIES {
            let disk = SharedMemPager::from_snapshot(&clean);
            let mut store = XmlStore::open(Box::new(disk.clone()), config).unwrap();
            store.check_consistency().unwrap();
            forge(&mut store);
            store.commit().unwrap();
            drop(store);

            let mut store = XmlStore::open(Box::new(disk.clone()), config).unwrap();
            let err = store.check_consistency().expect_err(code);
            assert!(err.is_corruption(), "{code}: {err}");
            let report = fsck(&disk, false);
            let named = |f: &FsckFinding| f.code == code && f.severity == FsckSeverity::Error;
            assert!(report.findings.iter().any(named), "{code}: {report}");
            let frames = |f: &FsckFinding| matches!(f.code, "page-corrupt" | "class-mismatch");
            assert!(!report.findings.iter().any(frames), "{code}: {report}");
        }
    }

    #[test]
    fn a_leaked_overweight_or_undecodable_record_fails_the_weight_check() {
        let clean = clean_disk().snapshot();
        let config = StoreConfig::default();
        for what in ["overweight", "undecodable"] {
            let disk = SharedMemPager::from_snapshot(&clean);
            let mut store = XmlStore::open(Box::new(disk.clone()), config).unwrap();
            store.check_record_weights().unwrap();
            let t = leaf_proxy(&mut store);
            let mut img = image(&mut store, t);
            if what == "overweight" {
                let text = img.nodes.iter_mut().find(|n| n.content.is_some()).unwrap();
                text.content = Some("x".repeat(8 * K as usize).into());
            } else {
                img.nodes[0].label = store.labels.len() as u16;
            }
            // An unreachable copy: no proxy leads to it.
            let copy = store.reserve_record();
            store.write_record(copy, &img).unwrap();
            store.commit().unwrap();
            drop(store);

            let mut store = XmlStore::open(Box::new(disk), config).unwrap();
            let err = store.check_record_weights().expect_err(what);
            assert!(err.is_corruption(), "{what}: {err}");
        }
    }

    #[test]
    fn a_repaired_store_with_a_quarantined_record_passes_both_checkers() {
        let mut disk = clean_disk();
        let config = StoreConfig::default();
        let mut store = XmlStore::open(Box::new(disk.clone()), config).unwrap();
        let t = leaf_proxy(&mut store);
        let RecordLoc::InPage { page, .. } = store.directory[t as usize] else {
            panic!("record {t} is not in a slotted page");
        };
        let root_page = match store.directory[store.root_record as usize] {
            RecordLoc::InPage { page, .. } => page,
            _ => panic!("root record not in a slotted page"),
        };
        assert_ne!(page, root_page, "the rot must spare the root record");
        drop(store);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read(page, &mut buf).unwrap();
        buf[100..200].iter_mut().for_each(|b| *b ^= 0x5A);
        disk.write(page, &buf).unwrap();

        let report = fsck(&disk, true);
        assert!(
            report.repaired && report.quarantined.contains(&t),
            "{report}"
        );
        let post = fsck(&disk, false);
        assert!(post.clean(), "{post}");
        let tombstone = |f: &FsckFinding| f.code == "proxy-quarantined";
        assert!(post.findings.iter().any(tombstone), "{post}");
        let mut store = XmlStore::open(Box::new(disk.clone()), config).unwrap();
        store.check_consistency().unwrap();
    }
}
