//! `natix fsck`: an offline scrubber and best-effort repair tool for
//! Natix page files, operating on the raw backend below the buffer pool
//! and checksumming layers.
//!
//! Scrub passes (read-only):
//!
//! 1. **Headers** — both ping-pong slots are decoded raw (they carry
//!    their own checksums); an invalid loser slot is crash debris, not
//!    damage. A header of another format version ends the run with one
//!    `unsupported-format` error: such a file is neither scrubbed nor,
//!    with `repair`, touched.
//! 2. **Pending journal** — a journal left by a crash between commit
//!    point and checkpoint is replayed into an in-memory overlay, so the
//!    scrub judges the state recovery would produce, not the torn
//!    mid-checkpoint bytes.
//! 3. **Catalog** — the blob the winning header references must decode.
//! 4. **Page frames** — every allocated page must be zero (never
//!    written) or carry a valid frame. Damage to a page *referenced* by
//!    the committed state is an error; damage to unreferenced pages
//!    (orphaned appends from crashes, stale catalogs) is a warning.
//! 5. **Record graph** — a tolerant walk cross-checking the
//!    partitioning invariants: every directory location resolves to a
//!    record that decodes and claims its own number; proxies and
//!    back-links are bidirectional (sibling-interval adjacency); no
//!    record is reachable twice or leaked; label ids resolve; every
//!    fragment respects the weight limit `K` (feasibility).
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
//! The repaired catalog and identical fresh headers are then published
//! to *both* slots. Losing the root record is not repairable.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use natix_tree::Weight;
use natix_xml::node_weight;

use crate::catalog::{self, Catalog, Header, RecordLoc};
use crate::journal;
use crate::page::{
    is_zero_page, page_class_of, seal_frame, set_page_class, verify_frame, FrameCheck, PageClass,
    SlottedPage, FORMAT_VERSION, PAGE_SIZE, PAYLOAD_SIZE,
};
use crate::pager::{PageId, Pager};
use crate::record::{self, RecordData, NONE_U32};
use crate::store::{overflow_page_span, OVERFLOW_MAGIC};

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

/// Raw page reads with an in-memory overlay (the replayed pending
/// journal), so the scrub judges the post-recovery state.
struct Scan<'a> {
    backend: &'a mut dyn Pager,
    overlay: HashMap<PageId, Box<[u8; PAGE_SIZE]>>,
}

impl Scan<'_> {
    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), String> {
        if let Some(p) = self.overlay.get(&id) {
            buf.copy_from_slice(&p[..]);
            return Ok(());
        }
        self.backend.read(id, buf).map_err(|e| e.to_string())
    }

    fn read_chunked(&mut self, first: PageId, len: usize) -> Result<Vec<u8>, String> {
        let mut out = Vec::with_capacity(len);
        let mut remaining = len;
        let mut page = first;
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        while remaining > 0 {
            let take = remaining.min(PAYLOAD_SIZE);
            self.read(page, &mut buf)?;
            out.extend_from_slice(&buf[..take]);
            remaining -= take;
            page += 1;
        }
        Ok(out)
    }
}

/// Scrub `backend`; with `repair`, additionally rebuild the store from
/// surviving pages when the scrub is not clean.
///
/// Never panics and never returns early on corruption: everything it
/// finds lands in the report. Transient I/O failures are reported as
/// findings too (`io-error`).
pub fn fsck(backend: &mut dyn Pager, repair: bool) -> FsckReport {
    let mut report = FsckReport::default();
    let count = backend.page_count();
    report.pages_scanned = count;
    if count < 2 {
        report.error(
            "file-too-small",
            None,
            None,
            format!("{count} pages; need at least the two header slots"),
        );
        return report;
    }

    // Pass 1: header slots, raw.
    let mut slot0 = Box::new([0u8; PAGE_SIZE]);
    let mut slot1 = Box::new([0u8; PAGE_SIZE]);
    if let Err(e) = backend.read(0, &mut slot0) {
        report.error("io-error", Some(0), None, e.to_string());
        return report;
    }
    if let Err(e) = backend.read(1, &mut slot1) {
        report.error("io-error", Some(1), None, e.to_string());
        return report;
    }
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
            return report;
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
    let Some(header) = winner else {
        report.error(
            "headers-lost",
            None,
            None,
            "neither header slot decodes: not a recognizable Natix store",
        );
        if repair {
            repair_store(backend, None, &mut report);
        }
        return report;
    };
    report.format = FORMAT_VERSION;

    // Pass 2: pending journal. Replay into an overlay (scrub judges the
    // post-recovery state); with `repair` the replay goes to disk.
    let mut scan = Scan {
        backend,
        overlay: HashMap::new(),
    };
    let mut header = header;
    if header.journal_len > 0 {
        match scan
            .read_chunked(header.journal_first_page, header.journal_len as usize)
            .map_err(Some)
            .and_then(|bytes| journal::decode_segments(&bytes).map_err(|_| None))
        {
            Ok(segments) => {
                // A journal generation may carry a whole group-commit
                // batch: one segment per acked logical commit, all
                // covered by the same header flip. Report the batch
                // shape, then replay every segment in batch order (full
                // replay is the recovery semantics — a partially-acked
                // batch was never published, so segments are diagnostic
                // boundaries, not replay units).
                if segments.len() > 1 {
                    let shape: Vec<String> = segments.iter().map(|s| s.len().to_string()).collect();
                    report.info(
                        "journal-batch",
                        format!(
                            "group-commit batch: {} commit segments with [{}] page images",
                            segments.len(),
                            shape.join(", ")
                        ),
                    );
                }
                let entries: Vec<journal::JournalEntry> = segments.into_iter().flatten().collect();
                report.info(
                    "journal-pending",
                    format!(
                        "unfinished checkpoint: {} page images replayed for scrubbing",
                        entries.len()
                    ),
                );
                for (page, image) in entries {
                    let mut sealed = image;
                    seal_frame(&mut sealed);
                    if repair {
                        if let Err(e) = scan.backend.write(page, &sealed) {
                            report.error("io-error", Some(page), None, e.to_string());
                        }
                    }
                    scan.overlay.insert(page, sealed);
                }
                if repair {
                    // Retire the journal, exactly as recovery would.
                    header.epoch += 1;
                    header.journal_first_page = 0;
                    header.journal_len = 0;
                    let mut page = Box::new(catalog::encode_header(&header));
                    seal_frame(&mut page);
                    if let Err(e) = scan.backend.write(header.slot(), &page) {
                        report.error("io-error", Some(header.slot()), None, e.to_string());
                    } else {
                        report.info("journal-replayed", "pending journal checkpointed to disk");
                        scan.overlay.clear();
                    }
                }
            }
            Err(cause) => {
                report.error(
                    "journal-corrupt",
                    Some(header.journal_first_page),
                    None,
                    cause.unwrap_or_else(|| {
                        "published journal does not decode; the commit it carried is lost".into()
                    }),
                );
            }
        }
    }

    // Pass 3: catalog decode.
    let catalog = match scan
        .read_chunked(header.catalog_first_page, header.catalog_len as usize)
        .and_then(|bytes| catalog::decode_catalog(&bytes).map_err(|e| e.to_string()))
    {
        Ok(cat) => Some(cat),
        Err(cause) => {
            report.error(
                "catalog-corrupt",
                Some(header.catalog_first_page),
                None,
                cause,
            );
            None
        }
    };

    // Pass 4: frame verification, split by whether the committed state
    // references the page.
    let referenced = referenced_pages(&header, catalog.as_ref());
    let mut buf = Box::new([0u8; PAGE_SIZE]);
    for id in 2..count {
        match scan.read(id, &mut buf) {
            Ok(()) => {}
            Err(e) => {
                report.error("io-error", Some(id), None, e);
                continue;
            }
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

    // Pass 5: tolerant record-graph walk.
    if let Some(cat) = &catalog {
        let mut records: BTreeMap<u32, RecordData> = BTreeMap::new();
        for (no, loc) in cat.directory.iter().enumerate() {
            let no = no as u32;
            if matches!(loc, RecordLoc::Free) {
                continue;
            }
            report.records_checked += 1;
            match read_record_bytes(&mut scan, *loc, count) {
                Ok(bytes) => match record::decode(bytes, usize::MAX) {
                    Ok(rec) => {
                        if rec.self_no != no {
                            report.error(
                                "self-no-mismatch",
                                None,
                                Some(no),
                                format!("record bytes claim number {}", rec.self_no),
                            );
                        } else {
                            records.insert(no, rec);
                        }
                    }
                    Err(e) => report.error("record-undecodable", None, Some(no), e.to_string()),
                },
                Err((page, cause)) => report.error("record-unreadable", page, Some(no), cause),
            }
        }
        check_graph(cat, &records, cat.record_limit, &mut report);
    }

    if repair && !report.clean() {
        repair_store(scan.backend, Some(&header), &mut report);
    }
    report
}

/// Pages the committed state references, with the class each must have.
fn referenced_pages(
    header: &Header,
    catalog: Option<&Catalog>,
) -> HashMap<PageId, (PageClass, Option<u32>)> {
    let mut map = HashMap::new();
    fn span(
        map: &mut HashMap<PageId, (PageClass, Option<u32>)>,
        first: PageId,
        len: usize,
        class: PageClass,
        record: Option<u32>,
    ) {
        let pages = if class == PageClass::Overflow {
            overflow_page_span(len)
        } else {
            len.div_ceil(PAYLOAD_SIZE)
        };
        for i in 0..pages as u32 {
            map.insert(first + i, (class, record));
        }
    }
    if header.catalog_len > 0 {
        span(
            &mut map,
            header.catalog_first_page,
            header.catalog_len as usize,
            PageClass::Catalog,
            None,
        );
    }
    if header.journal_len > 0 {
        span(
            &mut map,
            header.journal_first_page,
            header.journal_len as usize,
            PageClass::Journal,
            None,
        );
    }
    if let Some(cat) = catalog {
        for (no, loc) in cat.directory.iter().enumerate() {
            match *loc {
                RecordLoc::InPage { page, .. } => {
                    map.insert(page, (PageClass::Record, Some(no as u32)));
                }
                RecordLoc::Overflow { first_page, len } => {
                    span(
                        &mut map,
                        first_page,
                        len as usize,
                        PageClass::Overflow,
                        Some(no as u32),
                    );
                }
                RecordLoc::Free => {}
            }
        }
    }
    map
}

/// Extract a record's raw bytes from its directory location, verifying
/// page frames along the way.
fn read_record_bytes(
    scan: &mut Scan<'_>,
    loc: RecordLoc,
    count: u32,
) -> Result<Vec<u8>, (Option<PageId>, String)> {
    let mut buf = Box::new([0u8; PAGE_SIZE]);
    let read_checked = |scan: &mut Scan<'_>,
                        id: PageId,
                        buf: &mut Box<[u8; PAGE_SIZE]>|
     -> Result<(), (Option<PageId>, String)> {
        if id >= count {
            return Err((Some(id), "page out of range".into()));
        }
        scan.read(id, buf).map_err(|e| (Some(id), e))?;
        if verify_frame(buf) != FrameCheck::Ok {
            return Err((Some(id), "page fails frame verification".into()));
        }
        Ok(())
    };
    match loc {
        RecordLoc::InPage { page, slot } => {
            read_checked(scan, page, &mut buf)?;
            SlottedPage::new(&mut buf)
                .get(slot)
                .map(<[u8]>::to_vec)
                .ok_or((Some(page), format!("slot {slot} missing or dead")))
        }
        RecordLoc::Overflow { first_page, len } => {
            let len = len as usize;
            read_checked(scan, first_page, &mut buf)?;
            if &buf[..4] != OVERFLOW_MAGIC {
                return Err((Some(first_page), "overflow chain magic missing".into()));
            }
            let stored = u32::from_le_bytes(buf[4..8].try_into().expect("4")) as usize;
            if stored != len {
                return Err((
                    Some(first_page),
                    format!("overflow chain stores {stored} bytes, directory says {len}"),
                ));
            }
            let head = len.min(PAYLOAD_SIZE - 8);
            let mut bytes = Vec::with_capacity(len);
            bytes.extend_from_slice(&buf[8..8 + head]);
            let mut page = first_page + 1;
            while bytes.len() < len {
                read_checked(scan, page, &mut buf)?;
                let take = (len - bytes.len()).min(PAYLOAD_SIZE);
                bytes.extend_from_slice(&buf[..take]);
                page += 1;
            }
            Ok(bytes)
        }
        RecordLoc::Free => Err((None, "record is free".into())),
    }
}

/// The tolerant version of `XmlStore::check_consistency`: same
/// invariants, but every violation becomes a finding instead of
/// stopping the walk.
fn check_graph(
    cat: &Catalog,
    records: &BTreeMap<u32, RecordData>,
    record_limit: Weight,
    report: &mut FsckReport,
) {
    use crate::record::{ChildEntry, NONE_U16};

    let quarantined: BTreeSet<u32> = cat.quarantined.iter().copied().collect();
    let n = cat.directory.len() as u32;
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    let root = cat.root_record;
    if let Some(rec) = records.get(&root) {
        if rec.parent_record != NONE_U32 {
            report.error(
                "root-backlink",
                None,
                Some(root),
                "root record has a parent back-link",
            );
        }
    } else {
        // Unreadable root is already reported; nothing to walk from.
        return;
    }
    seen.insert(root);
    let mut stack = vec![root];
    while let Some(no) = stack.pop() {
        let Some(rec) = records.get(&no) else {
            continue; // unreadable: its own finding exists, skip subtree
        };
        if rec.roots.is_empty() {
            report.error(
                "empty-roots",
                None,
                Some(no),
                "record has no fragment roots",
            );
        }
        for &r in &rec.roots {
            if rec.get(r).is_some_and(|node| node.parent_local != NONE_U16) {
                report.error(
                    "root-has-parent",
                    None,
                    Some(no),
                    format!("fragment root {r} has a local parent"),
                );
            }
        }
        let mut weight: Weight = 0;
        for node in rec.nodes() {
            weight += node_weight(node.kind, rec.content(&node).map_or(0, str::len));
            if node.label as usize >= cat.labels.len() {
                report.error(
                    "label-range",
                    None,
                    Some(no),
                    format!(
                        "label id {} outside the {}-entry label table",
                        node.label,
                        cat.labels.len()
                    ),
                );
            }
        }
        if record_limit > 0 && weight > record_limit {
            report.error(
                "overweight-record",
                None,
                Some(no),
                format!("fragment weighs {weight} slots, limit is {record_limit} (infeasible)"),
            );
        }
        for (li, node) in rec.nodes().enumerate() {
            for (pos, e) in rec.entries(&node).enumerate() {
                match e {
                    ChildEntry::Local(c) => {
                        let ok = rec.get(c).is_some_and(|child| {
                            child.parent_local == li as u16 && child.entry_pos == pos as u16
                        });
                        if !ok {
                            report.error(
                                "local-backlink",
                                None,
                                Some(no),
                                format!("local child {c} disagrees with entry {li}/{pos}"),
                            );
                        }
                    }
                    ChildEntry::Proxy(t) => {
                        if quarantined.contains(&t) {
                            report.warn(
                                "proxy-quarantined",
                                None,
                                Some(t),
                                format!("proxy in record {no} points at a quarantined record"),
                            );
                            continue;
                        }
                        if t >= n || matches!(cat.directory[t as usize], RecordLoc::Free) {
                            report.error(
                                "dangling-proxy",
                                None,
                                Some(no),
                                format!("proxy points at free/out-of-range record {t}"),
                            );
                            continue;
                        }
                        if !seen.insert(t) {
                            report.error(
                                "double-reachable",
                                None,
                                Some(t),
                                "record reachable via two proxies (interval adjacency broken)",
                            );
                            continue;
                        }
                        if let Some(child) = records.get(&t) {
                            if child.parent_record != no
                                || child.parent_local != li as u16
                                || child.proxy_pos != pos as u16
                            {
                                report.error(
                                    "proxy-backlink",
                                    None,
                                    Some(t),
                                    format!(
                                        "back-link ({}, {}, {}) does not match proxy ({no}, {li}, {pos})",
                                        child.parent_record, child.parent_local, child.proxy_pos
                                    ),
                                );
                            }
                        }
                        stack.push(t);
                    }
                }
            }
        }
    }
    for (no, loc) in cat.directory.iter().enumerate() {
        let no = no as u32;
        if !matches!(loc, RecordLoc::Free) && !seen.contains(&no) && !quarantined.contains(&no) {
            report.error(
                "leaked-record",
                None,
                Some(no),
                "live record unreachable from the root",
            );
        }
    }
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
fn repair_store(backend: &mut dyn Pager, header: Option<&Header>, report: &mut FsckReport) {
    use crate::record::ChildEntry;

    let count = backend.page_count();
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

    // Scan every intact page for self-describing blobs.
    for id in 2..count {
        if backend.read(id, &mut buf).is_err() {
            continue;
        }
        if is_zero_page(&buf) || verify_frame(&buf) != FrameCheck::Ok {
            continue;
        }
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
                let span = overflow_page_span(len) as u32;
                if id + span > count {
                    continue;
                }
                let Some(bytes) = read_intact_overflow(backend, id, len) else {
                    continue;
                };
                if let Ok(data) = record::decode(bytes, usize::MAX) {
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
                let len = len as usize;
                let span = len.div_ceil(PAYLOAD_SIZE) as u32;
                if id + span > count {
                    continue;
                }
                let Some(bytes) = read_intact_chain(backend, id, len) else {
                    continue;
                };
                if let Ok(cat) = catalog::decode_catalog(&bytes) {
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
        return;
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
        if !matches!(committed, RecordLoc::Free) {
            if let Ok(bytes) = read_record_bytes(
                &mut Scan {
                    backend,
                    overlay: HashMap::new(),
                },
                committed,
                count,
            ) {
                if let Ok(data) = record::decode(bytes, usize::MAX) {
                    if data.self_no == no && labels_ok(&data) {
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
                }
            }
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
        return;
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

    // Publish: fresh catalog pages, then identical headers in both slots.
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
    let first = backend.page_count();
    for chunk in catalog_bytes.chunks(PAYLOAD_SIZE) {
        let id = match backend.allocate() {
            Ok(id) => id,
            Err(e) => {
                report.error("io-error", None, None, e.to_string());
                return;
            }
        };
        let mut page = Box::new([0u8; PAGE_SIZE]);
        page[..chunk.len()].copy_from_slice(chunk);
        set_page_class(&mut page, PageClass::Catalog);
        seal_frame(&mut page);
        if let Err(e) = backend.write(id, &page) {
            report.error("io-error", Some(id), None, e.to_string());
            return;
        }
    }
    let new_header = Header {
        epoch: new_epoch,
        root_record: cat.root_record,
        catalog_first_page: first,
        catalog_len: catalog_bytes.len() as u64,
        record_limit: cat.record_limit,
        journal_first_page: 0,
        journal_len: 0,
    };
    let mut page = Box::new(catalog::encode_header(&new_header));
    seal_frame(&mut page);
    for slot in [0, 1] {
        if let Err(e) = backend.write(slot, &page) {
            report.error("io-error", Some(slot), None, e.to_string());
            return;
        }
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
}

/// Read an overflow chain whose every page verifies, or `None`.
fn read_intact_overflow(backend: &mut dyn Pager, first: PageId, len: usize) -> Option<Vec<u8>> {
    let mut buf = Box::new([0u8; PAGE_SIZE]);
    backend.read(first, &mut buf).ok()?;
    if verify_frame(&buf) != FrameCheck::Ok {
        return None;
    }
    let head = len.min(PAYLOAD_SIZE - 8);
    let mut bytes = Vec::with_capacity(len);
    bytes.extend_from_slice(&buf[8..8 + head]);
    let mut page = first + 1;
    while bytes.len() < len {
        backend.read(page, &mut buf).ok()?;
        if verify_frame(&buf) != FrameCheck::Ok {
            return None;
        }
        let take = (len - bytes.len()).min(PAYLOAD_SIZE);
        bytes.extend_from_slice(&buf[..take]);
        page += 1;
    }
    Some(bytes)
}

/// Read a chunked blob whose every page verifies, or `None`.
fn read_intact_chain(backend: &mut dyn Pager, first: PageId, len: usize) -> Option<Vec<u8>> {
    let mut buf = Box::new([0u8; PAGE_SIZE]);
    let mut bytes = Vec::with_capacity(len);
    let mut page = first;
    while bytes.len() < len {
        backend.read(page, &mut buf).ok()?;
        if verify_frame(&buf) != FrameCheck::Ok {
            return None;
        }
        let take = (len - bytes.len()).min(PAYLOAD_SIZE);
        bytes.extend_from_slice(&buf[..take]);
        page += 1;
    }
    Some(bytes)
}
