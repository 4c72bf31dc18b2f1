//! Incremental maintenance: node-at-a-time insertion and subtree deletion
//! with record splitting.
//!
//! This is the counterpart of the bulkload path: Natix maintains its
//! clustered storage format under updates with a node-at-a-time algorithm
//! (Kanne & Moerkotte, ICDE 2000, cited as [9] by the VLDB'06 paper).
//! The essential move is the same here: an insertion grows a record's
//! fragment; when the fragment exceeds the weight limit `K`, the record is
//! **split** by evicting a subtree (KM-style, heaviest first, descending
//! until the candidate fits) into a fresh record behind a proxy — or, when
//! the fragment is only interval roots, by splitting the sibling interval
//! itself into two records. Both kinds are one extraction
//! ([`XmlStore::move_out`]) of a list of fragment roots; they differ only
//! in the new record's back-link and where its proxy goes ([`ProxyAt`]).
//! Every public op runs inside [`XmlStore::transactional`].
//!
//! Updates rewrite whole records (they are ≤ K slots, i.e. small) and fix
//! the back-links of every child record whose parent moved. **Structural
//! updates invalidate outstanding [`NodeRef`]s into the touched records**;
//! the return values carry the fresh locations. An update handed a stale
//! ref whose node index is past its record's node count fails with
//! [`StoreError::InvalidUpdate`]; a stale ref whose index still lands on
//! some node cannot be told from a live one and updates that node.

use natix_tree::Weight;
use natix_xml::{node_weight, NodeKind};

use crate::catalog::RecordLoc;
use crate::page::{SlottedPage, MAX_IN_PAGE};
use crate::pager::{StoreError, StoreResult};
use crate::record::{
    self, ChildEntry, ImageNode, RecNode, RecordData, RecordImage, NONE_U16, NONE_U32,
};
use crate::store::{intern_label, write_overflow_chain, NodeRef, XmlStore};

/// The node `r` names in its record `rec`, for an update. A ref that an
/// earlier split left past the record's node count is a caller error,
/// not damage, so it is [`StoreError::InvalidUpdate`] rather than the
/// corruption-class error a read's lookup returns.
fn live_node(rec: &RecordData, r: NodeRef) -> StoreResult<RecNode> {
    rec.get(r.node).ok_or(StoreError::InvalidUpdate(
        "node reference outlived its record's layout",
    ))
}

/// Where to place a newly inserted node.
enum InsertPos {
    /// As the last child entry of a local element.
    LastChildOf(u16),
    /// Immediately before a local, non-root node.
    BeforeLocal(u16),
    /// As a new fragment root at this position of the roots list.
    BeforeRoot(usize),
}

/// Where a split puts the proxy of the record it moves out.
#[derive(Clone, Copy)]
enum ProxyAt {
    /// In place of entry `pos` of local node `parent`: a subtree eviction.
    Entry { parent: u16, pos: u16 },
    /// Right after the record's own proxy in its parent record: an
    /// interval split.
    AfterOwn,
}

impl XmlStore {
    /// Run the structural update `op` as one atomic transaction: on
    /// success it is committed durably; on failure every in-memory and
    /// on-disk effect is rolled back to the pre-operation state. (An error
    /// from the commit itself can leave the *post*-state durable — the
    /// journal was already published — which is the standard "either pre
    /// or post" crash contract.)
    fn transactional<T>(
        &mut self,
        op: impl FnOnce(&mut XmlStore) -> StoreResult<T>,
    ) -> StoreResult<T> {
        self.require_writable()?;
        let r = op(self);
        // Inside a group-commit batch no commit happens here: a
        // successful op is staged (its pages wait in the pool for the
        // batch's one journal) and a failed op rolls back to the previous
        // op's savepoint, so the batch's earlier operations survive.
        if self.batch.is_some() {
            return match r {
                Ok(v) => {
                    self.batch_op_staged()?;
                    Ok(v)
                }
                Err(e) => {
                    self.rollback_to_savepoint();
                    Err(e)
                }
            };
        }
        match r {
            Ok(v) => {
                self.commit()?;
                Ok(v)
            }
            Err(e) => {
                let _ = self.rollback();
                Err(e)
            }
        }
    }

    /// Append a new childless node as the last child of `parent` (which
    /// must be an element).
    ///
    /// Returns the new node's location. May split the containing record;
    /// any previously obtained [`NodeRef`] into the touched records is
    /// invalidated (see the module docs for what a stale `parent` does).
    /// The operation commits atomically.
    pub fn append_child(
        &mut self,
        parent: NodeRef,
        kind: NodeKind,
        name: &str,
        content: Option<&str>,
    ) -> StoreResult<NodeRef> {
        self.transactional(|s| {
            if live_node(&*s.fetch(parent.record)?, parent)?.kind != NodeKind::Element {
                return Err(StoreError::InvalidUpdate("parent must be an element"));
            }
            let pos = InsertPos::LastChildOf(parent.node);
            s.insert_impl(parent.record, pos, kind, name, content)
        })
    }

    /// Insert a new childless node immediately before `sibling` (which
    /// must not be the document root). A stale `sibling` is treated as
    /// the module docs say. The operation commits atomically.
    pub fn insert_before(
        &mut self,
        sibling: NodeRef,
        kind: NodeKind,
        name: &str,
        content: Option<&str>,
    ) -> StoreResult<NodeRef> {
        self.transactional(|s| {
            let rec = s.fetch(sibling.record)?;
            let pos = if live_node(&rec, sibling)?.parent_local != NONE_U16 {
                InsertPos::BeforeLocal(sibling.node)
            } else if rec.parent_record == NONE_U32 {
                return Err(StoreError::InvalidUpdate(
                    "the document root has no siblings",
                ));
            } else {
                let rp = rec.root_pos(sibling.node).ok_or_else(|| {
                    StoreError::corrupt_record("fragment root not in root list", sibling.record)
                })?;
                InsertPos::BeforeRoot(rp)
            };
            drop(rec);
            s.insert_impl(sibling.record, pos, kind, name, content)
        })
    }

    /// Delete the subtree rooted at `node` (all its descendants and their
    /// records included). The document root cannot be deleted. A stale
    /// `node` is treated as the module docs say. The operation commits
    /// atomically.
    pub fn delete_subtree(&mut self, node: NodeRef) -> StoreResult<()> {
        self.transactional(|s| {
            let rec = s.fetch(node.record)?;
            live_node(&rec, node)?;
            if rec.parent_record == NONE_U32 && rec.root_pos(node.node).is_some() {
                return Err(StoreError::InvalidUpdate("cannot delete the document root"));
            }
            let mut img = rec.to_image();
            drop(rec);
            let is_root = img.roots.contains(&node.node);

            if is_root && img.roots.len() == 1 {
                // The whole record goes away: unhook our proxy from the parent
                // record, then free this record and every descendant record.
                s.edit_entries(img.parent_record, img.parent_local, |entries| {
                    entries.remove(img.proxy_pos as usize);
                })?;
                return s.free_record_tree(node.record);
            }

            // Drop the subtree inside this record.
            let removed = collect_local_subtree(&img, node.node);
            // Free descendant records referenced from the removed region.
            let mut child_records = Vec::new();
            for &l in &removed {
                for e in &img.nodes[l as usize].entries {
                    if let ChildEntry::Proxy(no) = *e {
                        child_records.push(no);
                    }
                }
            }
            if is_root {
                let rp = img
                    .roots
                    .iter()
                    .position(|&r| r == node.node)
                    .expect("root");
                img.roots.remove(rp);
            } else {
                let p = img.nodes[node.node as usize].parent_local as usize;
                let e = img.nodes[node.node as usize].entry_pos as usize;
                img.nodes[p].entries.remove(e);
                sync_entry_positions(&mut img, p);
            }
            remove_and_renumber(&mut img, &removed);
            s.write_record(node.record, &img)?;
            s.resync_child_backlinks(node.record)?;
            for no in child_records {
                s.free_record_tree(no)?;
            }
            Ok(())
        })
    }

    fn insert_impl(
        &mut self,
        record_no: u32,
        pos: InsertPos,
        kind: NodeKind,
        name: &str,
        content: Option<&str>,
    ) -> StoreResult<NodeRef> {
        let w = node_weight(kind, content.map_or(0, str::len));
        if w > self.record_limit {
            return Err(StoreError::InvalidUpdate(
                "node heavier than the record limit K",
            ));
        }
        let label = self.intern_label(name)?;
        let mut img = self.fetch(record_no)?.to_image();
        let new_local = u16::try_from(img.nodes.len())
            .map_err(|_| StoreError::InvalidUpdate("record has too many nodes"))?;
        img.nodes.push(ImageNode {
            kind,
            label,
            parent_local: NONE_U16,
            entry_pos: NONE_U16,
            content: content.map(Into::into),
            entries: Vec::new(),
        });

        match pos {
            InsertPos::LastChildOf(p) => {
                let e = img.nodes[p as usize].entries.len() as u16;
                img.nodes[p as usize]
                    .entries
                    .push(ChildEntry::Local(new_local));
                img.nodes[new_local as usize].parent_local = p;
                img.nodes[new_local as usize].entry_pos = e;
            }
            InsertPos::BeforeLocal(c) => {
                let p = img.nodes[c as usize].parent_local;
                let e = img.nodes[c as usize].entry_pos as usize;
                img.nodes[p as usize]
                    .entries
                    .insert(e, ChildEntry::Local(new_local));
                img.nodes[new_local as usize].parent_local = p;
                sync_entry_positions(&mut img, p as usize);
            }
            InsertPos::BeforeRoot(rp) => {
                img.roots.insert(rp, new_local);
            }
        }

        // Split until the fragment fits again, tracking where the new node
        // ends up.
        let mut location = NodeRef {
            record: record_no,
            node: new_local,
        };
        while image_weight(&img) > self.record_limit {
            location = self.split_once(record_no, &mut img, location)?;
        }
        self.write_record(record_no, &img)?;
        self.resync_child_backlinks(record_no)?;
        Ok(location)
    }

    /// One split step: move a subtree (or a suffix of the root interval)
    /// out of `img` into a fresh record. Returns the tracked node's new
    /// location.
    fn split_once(
        &mut self,
        record_no: u32,
        img: &mut RecordImage,
        tracked: NodeRef,
    ) -> StoreResult<NodeRef> {
        let weights = local_subtree_weights(img);

        // KM-style candidate: descend from the heaviest root through
        // heaviest local children until the subtree fits the limit.
        let mut cur: Option<u16> = None;
        let mut best = 0;
        for &r in &img.roots {
            // Roots themselves cannot be evicted; consider their local
            // children as starting points.
            for e in &img.nodes[r as usize].entries {
                if let ChildEntry::Local(c) = *e {
                    if weights[c as usize] > best {
                        best = weights[c as usize];
                        cur = Some(c);
                    }
                }
            }
        }
        if let Some(mut c) = cur {
            while weights[c as usize] > self.record_limit {
                // Too big to move whole: descend into the heaviest local
                // child (exists, because a single node weighs <= K).
                let mut next = None;
                let mut nb = 0;
                for e in &img.nodes[c as usize].entries {
                    if let ChildEntry::Local(cc) = *e {
                        if weights[cc as usize] >= nb {
                            nb = weights[cc as usize];
                            next = Some(cc);
                        }
                    }
                }
                c = next.expect("overweight subtree has local children");
            }
            // Evict the subtree behind a proxy in its parent's entry list.
            let n = &img.nodes[c as usize];
            let at = ProxyAt::Entry {
                parent: n.parent_local,
                pos: n.entry_pos,
            };
            return self.move_out(record_no, img, &[c], at, tracked);
        }

        // No local child anywhere: the fragment is the interval roots
        // themselves. Split the interval: move the suffix half of the roots.
        debug_assert!(
            img.roots.len() > 1,
            "a single node never exceeds K (checked on insert)"
        );
        let suffix = img.roots.split_off(img.roots.len() / 2);
        self.move_out(record_no, img, &suffix, ProxyAt::AfterOwn, tracked)
    }

    /// Move `roots` (a local child, or fragment roots already taken out
    /// of `img.roots`) with their local subtrees into a fresh record whose
    /// proxy goes `at`. A moved node whose parent stays behind becomes a
    /// root with no local parent. Returns the tracked node's new location.
    ///
    /// Writes the new record, then the old one (back-link fix-up reads
    /// it), then the back-links of the child records that moved and of
    /// the ones that stayed; an interval split then inserts its proxy in
    /// the parent record.
    fn move_out(
        &mut self,
        record_no: u32,
        img: &mut RecordImage,
        roots: &[u16],
        at: ProxyAt,
        tracked: NodeRef,
    ) -> StoreResult<NodeRef> {
        let moved: Vec<u16> = roots
            .iter()
            .flat_map(|&r| collect_local_subtree(img, r))
            .collect();
        let new_no = self.reserve_record();
        let mut remap = vec![NONE_U16; img.nodes.len()];
        for (i, &l) in moved.iter().enumerate() {
            remap[l as usize] = i as u16;
        }
        let mut nodes = Vec::with_capacity(moved.len());
        for &l in &moved {
            let mut n = img.nodes[l as usize].clone();
            if n.parent_local != NONE_U16 && remap[n.parent_local as usize] != NONE_U16 {
                n.parent_local = remap[n.parent_local as usize];
            } else {
                n.parent_local = NONE_U16;
                n.entry_pos = NONE_U16;
            }
            for entry in &mut n.entries {
                if let ChildEntry::Local(ref mut i) = entry {
                    *i = remap[*i as usize];
                }
            }
            nodes.push(n);
        }
        // Child records inside the moved region now hang off the new one.
        let mut moved_fixes = Vec::new();
        for (ni, n) in nodes.iter().enumerate() {
            for (pos, entry) in n.entries.iter().enumerate() {
                if let ChildEntry::Proxy(no) = *entry {
                    moved_fixes.push((no, ni as u16, pos as u16));
                }
            }
        }

        if let ProxyAt::Entry { parent, pos } = at {
            img.nodes[parent as usize].entries[pos as usize] = ChildEntry::Proxy(new_no);
        }
        let fixes = remove_and_renumber(img, &moved);
        let renumbered = |l: u16| {
            fixes
                .iter()
                .find(|&&(old, _)| old == l)
                .map_or(l, |&(_, new)| new)
        };
        let (parent_record, parent_local, proxy_pos) = match at {
            ProxyAt::Entry { parent, pos } => (record_no, renumbered(parent), pos),
            ProxyAt::AfterOwn => (img.parent_record, img.parent_local, img.proxy_pos + 1),
        };
        let new_img = RecordImage {
            parent_record,
            parent_local,
            proxy_pos,
            roots: roots.iter().map(|&r| remap[r as usize]).collect(),
            nodes,
        };

        self.write_record(new_no, &new_img)?;
        self.write_record(record_no, img)?;
        for (no, parent_local, proxy_pos) in moved_fixes {
            self.fix_child_header(no, new_no, parent_local, proxy_pos)?;
        }
        self.resync_child_backlinks(record_no)?;
        if let ProxyAt::AfterOwn = at {
            self.edit_entries(img.parent_record, img.parent_local, |entries| {
                entries.insert(img.proxy_pos as usize + 1, ChildEntry::Proxy(new_no));
            })?;
        }

        if tracked.record != record_no {
            return Ok(tracked);
        }
        Ok(match remap[tracked.node as usize] {
            NONE_U16 => NodeRef {
                record: record_no,
                node: renumbered(tracked.node),
            },
            node => NodeRef {
                record: new_no,
                node,
            },
        })
    }

    /// Edit the entry list of local node `local` of record `no`, rewrite
    /// the record and resync its child records' back-links.
    fn edit_entries(
        &mut self,
        no: u32,
        local: u16,
        edit: impl FnOnce(&mut Vec<ChildEntry>),
    ) -> StoreResult<()> {
        let mut img = self.fetch(no)?.to_image();
        edit(&mut img.nodes[local as usize].entries);
        sync_entry_positions(&mut img, local as usize);
        self.write_record(no, &img)?;
        self.resync_child_backlinks(no)
    }

    /// Intern a label, growing the persistent label table.
    pub(crate) fn intern_label(&mut self, name: &str) -> StoreResult<u16> {
        intern_label(&mut self.labels, &mut self.label_ids, name)
    }

    /// Reserve a fresh record number.
    pub(crate) fn reserve_record(&mut self) -> u32 {
        let no = self.directory.len() as u32;
        self.directory.push(RecordLoc::Free);
        no
    }

    /// Re-encode and re-place a record, invalidating caches.
    pub(crate) fn write_record(&mut self, no: u32, img: &RecordImage) -> StoreResult<()> {
        let bytes = record::encode(img, no, self.write_epoch());
        self.place_record(no, &bytes)
    }

    /// Epoch a record written now is stamped with: the in-flight
    /// commit's, so fsck repair can resolve duplicate claims by recency.
    pub(crate) fn write_epoch(&self) -> u64 {
        self.epoch + 1
    }

    /// Place the encoded record `bytes` (stamped with `no` and
    /// [`Self::write_epoch`]) as record `no`, invalidating caches.
    pub(crate) fn place_record(&mut self, no: u32, bytes: &[u8]) -> StoreResult<()> {
        // Release the old location.
        match self.directory[no as usize] {
            RecordLoc::InPage { page, slot } => {
                self.pool.with_page(page, true, |buf| {
                    SlottedPage::new(buf).delete(slot);
                })?;
            }
            RecordLoc::Overflow { .. } | RecordLoc::Free => {
                // Overflow pages are orphaned (no free-space reuse for
                // chains; acceptable for a bulkload-dominated store).
            }
        }
        let loc = if bytes.len() > MAX_IN_PAGE {
            let first_page = write_overflow_chain(&mut self.pool, bytes)?;
            RecordLoc::Overflow {
                first_page,
                len: bytes.len() as u32,
            }
        } else {
            // Try the record's previous page (the delete above made room
            // there: the insert reuses the slot, compacting the page if
            // the gap is short), then the store's open page hint, then a
            // fresh page.
            let prev_page = match self.directory[no as usize] {
                RecordLoc::InPage { page, .. } => Some(page),
                _ => None,
            };
            let mut placed = None;
            for candidate in [prev_page, self.open_page].into_iter().flatten() {
                placed = self.pool.with_page(candidate, true, |buf| {
                    SlottedPage::new(buf)
                        .insert(bytes)
                        .map(|slot| (candidate, slot))
                })?;
                if placed.is_some() {
                    break;
                }
            }
            let (page, slot) = match placed {
                Some(p) => p,
                None => {
                    let page = self.pool.allocate()?;
                    let slot = self.pool.with_page(page, true, |buf| {
                        SlottedPage::format(buf)
                            .insert(bytes)
                            .expect("fresh page fits any in-page record")
                    })?;
                    self.open_page = Some(page);
                    (page, slot)
                }
            };
            RecordLoc::InPage { page, slot }
        };
        self.directory[no as usize] = loc;
        self.invalidate(no);
        Ok(())
    }

    /// Record `no` was rewritten: let go of its decoded form and of the
    /// held records below it, whose place on the chain hung on it.
    pub(crate) fn invalidate(&mut self, no: u32) {
        if let Some(pos) = self.chain.iter().position(|r| r.self_no == no) {
            self.chain.truncate(pos);
        }
    }

    /// Update a child record's back-link header.
    fn fix_child_header(
        &mut self,
        no: u32,
        parent_record: u32,
        parent_local: u16,
        proxy_pos: u16,
    ) -> StoreResult<()> {
        let mut img = self.fetch(no)?.to_image();
        img.parent_record = parent_record;
        img.parent_local = parent_local;
        img.proxy_pos = proxy_pos;
        self.write_record(no, &img)
    }

    /// Bring the back-link headers (`parent_record`, `parent_local`,
    /// `proxy_pos`) of every child record of `record_no` in line with the
    /// record's current (already written) state. Robust against any
    /// combination of renumbering and entry-list surgery; children whose
    /// links are already correct are not rewritten.
    fn resync_child_backlinks(&mut self, record_no: u32) -> StoreResult<()> {
        let rec = self.fetch(record_no)?;
        let mut updates = Vec::new();
        for (li, n) in rec.nodes().enumerate() {
            for (pos, e) in rec.entries(&n).enumerate() {
                if let ChildEntry::Proxy(no) = e {
                    updates.push((no, li as u16, pos as u16));
                }
            }
        }
        drop(rec);
        for (no, parent_local, proxy_pos) in updates {
            let mut img = self.fetch(no)?.to_image();
            if img.parent_record == record_no
                && (img.parent_local != parent_local || img.proxy_pos != proxy_pos)
            {
                img.parent_local = parent_local;
                img.proxy_pos = proxy_pos;
                self.write_record(no, &img)?;
            }
        }
        Ok(())
    }

    /// Free a record and, recursively, every record its fragment links to.
    fn free_record_tree(&mut self, no: u32) -> StoreResult<()> {
        let mut stack = vec![no];
        while let Some(no) = stack.pop() {
            let rec = self.fetch(no)?;
            for n in rec.nodes() {
                for e in rec.entries(&n) {
                    if let ChildEntry::Proxy(child) = e {
                        stack.push(child);
                    }
                }
            }
            drop(rec);
            if let RecordLoc::InPage { page, slot } = self.directory[no as usize] {
                self.pool.with_page(page, true, |buf| {
                    SlottedPage::new(buf).delete(slot);
                })?;
            }
            self.directory[no as usize] = RecordLoc::Free;
            self.invalidate(no);
        }
        Ok(())
    }
}

/// A record-graph rule broken at one record, as [`XmlStore::walk_graph`]
/// reports it: fsck turns it into a finding, `check_consistency` into its
/// error.
pub(crate) struct Violation {
    /// The rule, named by its fsck finding code (`dangling-proxy`, …).
    pub(crate) code: &'static str,
    /// The record the report is about.
    pub(crate) record: u32,
    /// Tolerated, not inconsistent: the proxy tombstone of a record
    /// `fsck --repair` quarantined.
    pub(crate) warning: bool,
    /// The failure as a typed error.
    pub(crate) error: StoreError,
}

impl Violation {
    pub(crate) fn new(code: &'static str, record: u32, error: StoreError) -> Violation {
        Violation {
            code,
            record,
            warning: false,
            error,
        }
    }
}

/// A broken rule with no error of its own to carry.
fn broken(code: &'static str, record: u32, what: String) -> Violation {
    Violation::new(code, record, StoreError::corrupt(what).in_record(record))
}

impl XmlStore {
    /// The record-graph rules, checked by one walk from the root record
    /// over every record it reaches through proxies:
    ///
    /// * the root record has no parent back-link;
    /// * every record reads, decodes and claims its own directory slot
    ///   ([`XmlStore::read_record`]);
    /// * a record has fragment roots, none with a local parent;
    /// * local `parent_local` / `entry_pos` agree with the entry lists;
    /// * a proxy's target is live and carries a matching back-link
    ///   (`parent_record`, `parent_local`, `proxy_pos`), and no record is
    ///   reached twice (sibling-interval adjacency);
    /// * no live record is leaked (unreachable and not quarantined);
    /// * every fragment respects the weight limit `K` (feasibility).
    ///
    /// A proxy to a quarantined record is reported as a warning and not
    /// followed. Every violation goes to `report` and the walk goes on:
    /// an unreadable record costs only its own subtree.
    pub(crate) fn walk_graph(&mut self, report: &mut dyn FnMut(Violation)) {
        let mut seen = vec![false; self.directory.len()];
        let root = self.root_record;
        seen[root as usize] = true;
        let mut stack = Vec::new();
        match self.read_record(root) {
            Ok(rec) => {
                if rec.parent_record != NONE_U32 {
                    let what = "root record has a parent back-link".into();
                    report(broken("root-backlink", root, what));
                }
                stack.push(rec);
            }
            Err(v) => report(v),
        }
        while let Some(rec) = stack.pop() {
            let no = rec.self_no;
            if rec.roots.is_empty() {
                report(broken(
                    "empty-roots",
                    no,
                    "record has no fragment roots".into(),
                ));
            }
            for &r in &rec.roots {
                if rec.node(r).parent_local != NONE_U16 {
                    let what = format!("fragment root {r} has a local parent");
                    report(broken("root-has-parent", no, what));
                }
            }
            if let Some(v) = self.overweight(&rec) {
                report(v);
            }
            for (li, node) in rec.nodes().enumerate() {
                for (pos, e) in rec.entries(&node).enumerate() {
                    let (li, pos) = (li as u16, pos as u16);
                    let t = match e {
                        ChildEntry::Local(c) => {
                            let child = rec.node(c);
                            if (child.parent_local, child.entry_pos) != (li, pos) {
                                let what =
                                    format!("local child {c} disagrees with entry {li}/{pos}");
                                report(broken("local-backlink", no, what));
                            }
                            continue;
                        }
                        ChildEntry::Proxy(t) => t,
                    };
                    if self.quarantined.contains(&t) {
                        let what = format!("proxy in record {no} points at a quarantined record");
                        report(Violation {
                            warning: true,
                            ..broken("proxy-quarantined", t, what)
                        });
                    } else if self
                        .directory
                        .get(t as usize)
                        .is_none_or(|loc| *loc == RecordLoc::Free)
                    {
                        let what = format!("proxy points at free/out-of-range record {t}");
                        report(broken("dangling-proxy", no, what));
                    } else if std::mem::replace(&mut seen[t as usize], true) {
                        let what = "record reachable via two proxies (interval adjacency broken)";
                        report(broken("double-reachable", t, what.into()));
                    } else {
                        match self.read_record(t) {
                            Ok(child) => {
                                let link =
                                    (child.parent_record, child.parent_local, child.proxy_pos);
                                if link != (no, li, pos) {
                                    let what = format!(
                                        "back-link {link:?} does not match proxy ({no}, {li}, {pos})"
                                    );
                                    report(broken("proxy-backlink", t, what));
                                }
                                stack.push(child);
                            }
                            Err(v) => report(v),
                        }
                    }
                }
            }
        }
        for (no, loc) in self.directory.iter().enumerate() {
            let no = no as u32;
            if *loc != RecordLoc::Free && !seen[no as usize] && !self.quarantined.contains(&no) {
                let what = "live record unreachable from the root".into();
                report(broken("leaked-record", no, what));
            }
        }
    }

    /// Full structural validation of the record graph — the rules of
    /// [`XmlStore::walk_graph`] — used by the crash harness after every
    /// recovery: the first violation, as an error. A quarantine tombstone
    /// is no violation, so a repaired store passes.
    pub fn check_consistency(&mut self) -> StoreResult<()> {
        let mut first = None;
        self.walk_graph(&mut |v| {
            if first.is_none() && !v.warning {
                first = Some(v.error);
            }
        });
        first.map_or(Ok(()), Err)
    }

    /// Verify that every live record — reachable or not — reads, decodes
    /// and respects the weight limit `K` (test/diagnostic helper; the
    /// update path maintains this invariant by splitting).
    pub fn check_record_weights(&mut self) -> StoreResult<()> {
        for no in 0..self.directory.len() as u32 {
            if self.directory[no as usize] == RecordLoc::Free {
                continue;
            }
            let rec = self.read_record(no).map_err(|v| v.error)?;
            if let Some(v) = self.overweight(&rec) {
                return Err(v.error);
            }
        }
        Ok(())
    }

    /// The feasibility rule: `rec`'s fragment weighs at most `K` slots.
    fn overweight(&self, rec: &RecordData) -> Option<Violation> {
        let weight: Weight = rec
            .nodes()
            .map(|n| node_weight(n.kind, rec.content(&n).map_or(0, str::len)))
            .sum();
        let limit = self.record_limit;
        (limit > 0 && weight > limit).then(|| {
            let what = format!("fragment weighs {weight} slots, limit is {limit} (infeasible)");
            broken("overweight-record", rec.self_no, what)
        })
    }
}

/// Total slot weight of a record image.
fn image_weight(img: &RecordImage) -> Weight {
    img.nodes
        .iter()
        .map(|n| node_weight(n.kind, n.content.as_deref().map_or(0, str::len)))
        .sum()
}

/// Per-node weight of the node plus its *local* descendants.
fn local_subtree_weights(img: &RecordImage) -> Vec<Weight> {
    let n = img.nodes.len();
    let mut w: Vec<Weight> = img
        .nodes
        .iter()
        .map(|n| node_weight(n.kind, n.content.as_deref().map_or(0, str::len)))
        .collect();
    // Parents precede children (preorder numbering is maintained by every
    // mutation path), so a reverse scan accumulates bottom-up.
    for i in (0..n).rev() {
        for e in &img.nodes[i].entries {
            if let ChildEntry::Local(c) = *e {
                w[i] += w[c as usize];
            }
        }
    }
    w
}

/// Local indices of the subtree rooted at `root` (preorder, `root` first).
fn collect_local_subtree(img: &RecordImage, root: u16) -> Vec<u16> {
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(l) = stack.pop() {
        out.push(l);
        for e in img.nodes[l as usize].entries.iter().rev() {
            if let ChildEntry::Local(c) = *e {
                stack.push(c);
            }
        }
    }
    out
}

/// Recompute the `entry_pos` of every local child of `p`.
fn sync_entry_positions(img: &mut RecordImage, p: usize) {
    for pos in 0..img.nodes[p].entries.len() {
        if let ChildEntry::Local(c) = img.nodes[p].entries[pos] {
            img.nodes[c as usize].entry_pos = pos as u16;
        }
    }
}

/// Remove `removed` locals from the image and renumber the rest
/// (order-preserving, so the parent-before-child invariant survives).
/// Returns `(old_local, new_local)` pairs for nodes whose index changed.
fn remove_and_renumber(img: &mut RecordImage, removed: &[u16]) -> Vec<(u16, u16)> {
    let n = img.nodes.len();
    let mut drop_mark = vec![false; n];
    for &l in removed {
        drop_mark[l as usize] = true;
    }
    let mut remap = vec![NONE_U16; n];
    let mut kept: Vec<ImageNode> = Vec::with_capacity(n - removed.len());
    let mut fixes = Vec::new();
    for (i, mark) in drop_mark.iter().enumerate() {
        if !mark {
            let new = kept.len() as u16;
            remap[i] = new;
            if new != i as u16 {
                fixes.push((i as u16, new));
            }
            kept.push(img.nodes[i].clone());
        }
    }
    for node in &mut kept {
        if node.parent_local != NONE_U16 {
            node.parent_local = remap[node.parent_local as usize];
        }
        for e in &mut node.entries {
            if let ChildEntry::Local(ref mut c) = e {
                debug_assert_ne!(remap[*c as usize], NONE_U16, "dangling local child");
                *c = remap[*c as usize];
            }
        }
    }
    for r in &mut img.roots {
        *r = remap[*r as usize];
    }
    img.nodes = kept;
    fixes
}
