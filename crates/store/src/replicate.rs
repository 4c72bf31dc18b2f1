//! Journal-shipping physical replication: capture, batch and apply.
//!
//! The commit protocol (see `store.rs`) funnels *every* backend mutation
//! — appended catalog and journal chains, the header flip, checkpoint
//! write-backs, reclamation zero-fills — through the one backend pager
//! the store was opened over. Replication exploits that: the primary
//! wraps its backend in a [`CapturePager`] that records the id of every
//! page written, and at each *cut* (taken between requests, when the
//! file is quiescent and therefore crash-consistent) reads the raw bytes
//! of the captured pages and packages them as a [`ReplBatch`] spanning
//! `prev_epoch → epoch`. A follower that applies the batch — data pages
//! first, header slots last, with a durability barrier between — holds a
//! file byte-identical to the primary's at `epoch`.
//!
//! Batches chain by epoch: a follower at epoch `E` only accepts a batch
//! whose `prev_epoch == E`. A follower whose epoch the primary no longer
//! has in its bounded batch log (or a brand-new follower bootstrapping
//! onto an empty file) is served a [`BatchKind::Snapshot`] instead: the
//! whole file at the cut epoch. The cut is taken at a committed epoch
//! while the primary keeps committing — bootstrap never blocks writes.
//!
//! A follower serves reads without ever writing its file: its reader
//! *is* the concurrent layer's snapshot view ([`XmlStore::open_read_only`],
//! seeded from the file instead of a writer's memory), because running real
//! `open` recovery would replay the journal in place and publish a new
//! header — silently diverging from the primary. Recovery runs exactly
//! once, at [`Follower::promote`]: the pending journal of the last
//! applied batch is replayed, a journal-free header is published, and
//! the resulting epoch becomes the *fencing epoch* — from then on every
//! incoming batch is refused, so a deposed primary that comes back
//! cannot roll the promoted store behind its clients' acked reads. A
//! partially staged batch (the divergent unacked tail of a dead primary)
//! is discarded by promote and counted, never applied.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::catalog;
use crate::concurrent::PagerFactory;
use crate::page::{xxh64, PAGE_SIZE};
use crate::pager::{FilePager, PageId, Pager, StoreError, StoreResult};
use crate::store::{StoreConfig, XmlStore};

/// Magic prefix of one replication batch part.
pub const REPL_PART_MAGIC: &[u8; 4] = b"NRPB";

/// Pages per encoded part: 1024 × (4 + 8192) ≈ 8.4 MB, comfortably under
/// the 16 MiB wire frame cap with room for framing overhead.
pub const REPL_PART_MAX_PAGES: usize = 1024;

/// How many incremental batches the primary keeps for catch-up; a
/// follower further behind than this is re-bootstrapped from a snapshot.
pub const REPL_LOG_BATCHES: usize = 64;

/// What a [`ReplBatch`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// Every page of the file at the cut epoch (bootstrap / re-seed).
    Snapshot,
    /// Only the pages written since the previous cut.
    Incremental,
}

/// One cut: the pages that move a follower from `prev_epoch` to `epoch`.
#[derive(Debug, Clone)]
pub struct ReplBatch {
    /// Snapshot or incremental.
    pub kind: BatchKind,
    /// Epoch the receiving file must be at (0 for snapshots).
    pub prev_epoch: u64,
    /// Epoch the file is at after applying every page.
    pub epoch: u64,
    /// Raw page images, data pages first, header slots (< 2) last.
    pub pages: Vec<(PageId, Box<[u8; PAGE_SIZE]>)>,
}

/// One decoded wire part of a batch.
#[derive(Debug, Clone)]
pub struct ReplPart {
    /// Snapshot or incremental.
    pub kind: BatchKind,
    /// Chain predecessor epoch of the whole batch.
    pub prev_epoch: u64,
    /// Target epoch of the whole batch.
    pub epoch: u64,
    /// 0-based part index.
    pub seq: u32,
    /// True on the batch's final part (the one carrying the headers).
    pub last: bool,
    /// This part's slice of the batch's pages.
    pub pages: Vec<(PageId, Box<[u8; PAGE_SIZE]>)>,
}

impl ReplBatch {
    /// Number of wire parts this batch encodes to (at least 1).
    pub fn part_count(&self) -> u32 {
        (self.pages.len().div_ceil(REPL_PART_MAX_PAGES)).max(1) as u32
    }

    /// Encode part `seq` (fails past [`ReplBatch::part_count`]).
    pub fn encode_part(&self, seq: u32) -> StoreResult<Vec<u8>> {
        let parts = self.part_count();
        if seq >= parts {
            return Err(StoreError::InvalidUpdate(
                "replication part index out of range",
            ));
        }
        let start = seq as usize * REPL_PART_MAX_PAGES;
        let end = (start + REPL_PART_MAX_PAGES).min(self.pages.len());
        let slice = &self.pages[start..end];
        let mut out = Vec::with_capacity(30 + slice.len() * (4 + PAGE_SIZE) + 8);
        out.extend_from_slice(REPL_PART_MAGIC);
        out.push(match self.kind {
            BatchKind::Snapshot => 0,
            BatchKind::Incremental => 1,
        });
        out.extend_from_slice(&self.prev_epoch.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.push(u8::from(seq + 1 == parts));
        out.extend_from_slice(&(slice.len() as u32).to_le_bytes());
        for (id, image) in slice {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&image[..]);
        }
        let sum = xxh64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        Ok(out)
    }

    /// Encode every part in order (tests and one-shot shipping).
    pub fn encode_parts(&self) -> Vec<Vec<u8>> {
        (0..self.part_count())
            .map(|s| self.encode_part(s).expect("seq in range"))
            .collect()
    }
}

/// Fixed bytes before the page entries of an encoded part.
const PART_HEADER: usize = 4 + 1 + 8 + 8 + 4 + 1 + 4;

/// Decode and verify one wire part. Every length is checked before any
/// allocation sized from it, so hostile bytes error instead of panicking.
pub fn decode_part(bytes: &[u8]) -> StoreResult<ReplPart> {
    if bytes.len() < PART_HEADER + 8 {
        return Err(StoreError::corrupt("replication part truncated"));
    }
    if &bytes[..4] != REPL_PART_MAGIC {
        return Err(StoreError::corrupt("replication part magic mismatch"));
    }
    let body = &bytes[..bytes.len() - 8];
    let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8"));
    if xxh64(body) != sum {
        return Err(StoreError::corrupt("replication part checksum mismatch"));
    }
    let kind = match bytes[4] {
        0 => BatchKind::Snapshot,
        1 => BatchKind::Incremental,
        _ => return Err(StoreError::corrupt("replication part kind unknown")),
    };
    let prev_epoch = u64::from_le_bytes(bytes[5..13].try_into().expect("8"));
    let epoch = u64::from_le_bytes(bytes[13..21].try_into().expect("8"));
    let seq = u32::from_le_bytes(bytes[21..25].try_into().expect("4"));
    let last = match bytes[25] {
        0 => false,
        1 => true,
        _ => return Err(StoreError::corrupt("replication part flag unknown")),
    };
    let n = u32::from_le_bytes(bytes[26..30].try_into().expect("4")) as usize;
    if body.len() != PART_HEADER + n * (4 + PAGE_SIZE) {
        return Err(StoreError::corrupt("replication part length mismatch"));
    }
    if kind == BatchKind::Incremental && epoch <= prev_epoch {
        return Err(StoreError::corrupt("replication part epoch not advancing"));
    }
    let mut pages = Vec::with_capacity(n);
    let mut p = PART_HEADER;
    for _ in 0..n {
        let id = u32::from_le_bytes(body[p..p + 4].try_into().expect("4"));
        p += 4;
        let mut image = Box::new([0u8; PAGE_SIZE]);
        image.copy_from_slice(&body[p..p + PAGE_SIZE]);
        p += PAGE_SIZE;
        pages.push((id, image));
    }
    Ok(ReplPart {
        kind,
        prev_epoch,
        epoch,
        seq,
        last,
        pages,
    })
}

// ------------------------------------------------------------- capture

/// Shared view of the pages a [`CapturePager`] recorded.
#[derive(Clone)]
pub struct CaptureHandle(Rc<RefCell<BTreeSet<PageId>>>);

impl CaptureHandle {
    /// Take (and clear) everything captured so far, ascending.
    pub fn drain(&self) -> Vec<PageId> {
        let mut set = self.0.borrow_mut();
        let out: Vec<PageId> = set.iter().copied().collect();
        set.clear();
        out
    }
}

/// A pass-through [`Pager`] that records the id of every page written
/// (including fresh allocations, whose zero image is part of the file).
/// Wrapped around the raw backend *below* the checksum layer, so the
/// capture set names exactly the raw at-rest pages that changed.
pub struct CapturePager {
    inner: Box<dyn Pager>,
    dirty: Rc<RefCell<BTreeSet<PageId>>>,
}

impl CapturePager {
    /// Wrap a backend.
    pub fn new(inner: Box<dyn Pager>) -> CapturePager {
        CapturePager {
            inner,
            dirty: Rc::new(RefCell::new(BTreeSet::new())),
        }
    }

    /// A handle the replication source drains at each cut.
    pub fn handle(&self) -> CaptureHandle {
        CaptureHandle(Rc::clone(&self.dirty))
    }
}

impl Pager for CapturePager {
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn allocate(&mut self) -> StoreResult<PageId> {
        let id = self.inner.allocate()?;
        self.dirty.borrow_mut().insert(id);
        Ok(id)
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        self.inner.read(id, buf)
    }

    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        self.inner.write(id, buf)?;
        self.dirty.borrow_mut().insert(id);
        Ok(())
    }

    fn sync(&mut self) -> StoreResult<()> {
        self.inner.sync()
    }
}

// ------------------------------------------------------------- primary

/// The primary's half of replication: owns the capture handle, cuts
/// batches lazily when a follower fetches, keeps a bounded catch-up log,
/// and tracks per-follower acked epochs for lag reporting.
pub struct ReplicaSource {
    factory: Box<dyn PagerFactory>,
    dirty: CaptureHandle,
    log: VecDeque<ReplBatch>,
    /// Snapshot being streamed to a bootstrapping follower (rebuilt when
    /// a follower asks for part 0 of a chain the log cannot serve).
    snapshot: Option<ReplBatch>,
    last_cut_epoch: u64,
    /// Follower connection → last acked epoch.
    followers: HashMap<u64, u64>,
}

impl ReplicaSource {
    /// Set up over the store's backing file. `committed_epoch` is the
    /// epoch at open; anything the open itself wrote (crash recovery) is
    /// part of that baseline, so the capture set starts empty.
    pub fn new(
        factory: Box<dyn PagerFactory>,
        handle: CaptureHandle,
        committed_epoch: u64,
    ) -> ReplicaSource {
        handle.drain();
        ReplicaSource {
            factory,
            dirty: handle,
            log: VecDeque::new(),
            snapshot: None,
            last_cut_epoch: committed_epoch,
            followers: HashMap::new(),
        }
    }

    /// Register (or re-register) a follower at its current epoch.
    pub fn subscribe(&mut self, conn: u64, epoch: u64) {
        self.followers.insert(conn, epoch);
    }

    /// Record a follower's applied epoch.
    pub fn ack(&mut self, conn: u64, epoch: u64) {
        self.followers.insert(conn, epoch);
    }

    /// Forget a disconnected follower.
    pub fn disconnect(&mut self, conn: u64) {
        self.followers.remove(&conn);
    }

    /// `(followers, lag)` where lag is `committed - min(acked)` in
    /// epochs; `None` with no subscribed follower.
    pub fn lag(&self, committed: u64) -> Option<(usize, u64)> {
        let min = self.followers.values().copied().min()?;
        Some((self.followers.len(), committed.saturating_sub(min)))
    }

    /// Cut a batch if the committed epoch moved past the last cut. Must
    /// be called while the file is quiescent (between requests on the
    /// store-service thread): the captured pages' raw bytes then form a
    /// crash-consistent image of epoch `committed`.
    pub fn cut(&mut self, committed: u64) -> StoreResult<()> {
        if committed <= self.last_cut_epoch {
            // Captured maintenance writes (reclamation zero-fills) that
            // advanced no epoch stay pending and ride the next cut.
            return Ok(());
        }
        let ids = self.dirty.drain();
        let pages = self.read_pages(&ids)?;
        self.log.push_back(ReplBatch {
            kind: BatchKind::Incremental,
            prev_epoch: self.last_cut_epoch,
            epoch: committed,
            pages,
        });
        while self.log.len() > REPL_LOG_BATCHES {
            self.log.pop_front();
        }
        self.last_cut_epoch = committed;
        Ok(())
    }

    /// Serve one part to a follower whose file is at `after` epoch.
    /// `Ok(None)` means caught up. A chain the log cannot serve falls
    /// back to a full snapshot (the part's own `kind` tells the follower
    /// which it got).
    pub fn fetch(&mut self, committed: u64, after: u64, seq: u32) -> StoreResult<Option<Vec<u8>>> {
        self.cut(committed)?;
        if after == self.last_cut_epoch {
            return Ok(None);
        }
        if let Some(batch) = self.log.iter().find(|b| b.prev_epoch == after) {
            return batch.encode_part(seq).map(Some);
        }
        if seq == 0 {
            let ids: Vec<PageId> = {
                let pager = self.factory.open_pager()?;
                (0..pager.page_count()).collect()
            };
            let pages = self.read_pages(&ids)?;
            self.snapshot = Some(ReplBatch {
                kind: BatchKind::Snapshot,
                prev_epoch: 0,
                epoch: self.last_cut_epoch,
                pages,
            });
        }
        let snap = self.snapshot.as_ref().ok_or(StoreError::InvalidUpdate(
            "replication fetch continuation with no snapshot in progress",
        ))?;
        snap.encode_part(seq).map(Some)
    }

    /// Raw images of `ids`, ordered data pages first, header slots last
    /// (the apply order that makes the final part the commit point).
    fn read_pages(&self, ids: &[PageId]) -> StoreResult<Vec<(PageId, Box<[u8; PAGE_SIZE]>)>> {
        let mut pager = self.factory.open_pager()?;
        let count = pager.page_count();
        let mut data = Vec::with_capacity(ids.len());
        let mut headers = Vec::new();
        for &id in ids {
            if id >= count {
                continue;
            }
            let mut image = Box::new([0u8; PAGE_SIZE]);
            pager.read(id, &mut image)?;
            if id < 2 {
                headers.push((id, image));
            } else {
                data.push((id, image));
            }
        }
        data.extend(headers);
        Ok(data)
    }
}

// ------------------------------------------------------------ follower

/// What [`Follower::apply_part`] did with a part.
#[derive(Debug)]
pub enum ApplyOutcome {
    /// Part staged in memory; more parts of the batch are expected.
    Staged {
        /// Parts staged so far for the in-progress batch.
        staged: u32,
    },
    /// The batch's final part arrived and the file now holds `epoch`.
    Applied {
        /// The follower's new epoch.
        epoch: u64,
    },
    /// The part was refused (fencing, or a chain/sequence mismatch);
    /// any staged tail was discarded.
    Rejected {
        /// Human-readable refusal.
        reason: String,
    },
}

/// What a [`Follower`] has applied and discarded so far.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FollowerCounters {
    /// Incremental batches applied.
    pub batches_applied: u64,
    /// Snapshot batches applied (bootstraps).
    pub snapshots_applied: u64,
    /// Staged partial batches thrown away (a broken chain or a push
    /// after promotion).
    pub tails_discarded: u64,
}

/// The follower's half: stages incoming parts, applies complete batches
/// (data pages, barrier, header slots, barrier), serves read-only
/// snapshots of the applied state, and promotes by running the store's
/// real crash recovery exactly once.
pub struct Follower {
    path: PathBuf,
    config: StoreConfig,
    epoch: u64,
    staged: Vec<ReplPart>,
    fence: Option<u64>,
    counters: FollowerCounters,
}

impl Follower {
    /// Attach to `path`. A missing or unreadable file means "not yet
    /// bootstrapped" (epoch 0): the first fetch pulls a snapshot.
    pub fn open(path: PathBuf, config: StoreConfig) -> Follower {
        let epoch = read_disk_epoch(&path).unwrap_or(0);
        Follower {
            path,
            config,
            epoch,
            staged: Vec::new(),
            fence: None,
            counters: FollowerCounters::default(),
        }
    }

    /// Epoch of the last fully applied batch (0 before bootstrap).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The fencing epoch, once promoted.
    pub fn fence(&self) -> Option<u64> {
        self.fence
    }

    /// What this follower has applied and discarded so far.
    pub fn counters(&self) -> FollowerCounters {
        self.counters
    }

    /// Stage one wire part; apply the batch when its last part arrives.
    /// Decode failures (torn or corrupted payloads) error without
    /// touching the file; chain mismatches and post-promote pushes are
    /// refused with [`ApplyOutcome::Rejected`].
    pub fn apply_part(&mut self, payload: &[u8]) -> StoreResult<ApplyOutcome> {
        if let Some(fence) = self.fence {
            self.discard_tail();
            return Ok(ApplyOutcome::Rejected {
                reason: format!(
                    "fenced at epoch {fence}: promoted follower refuses batches from a deposed primary"
                ),
            });
        }
        let part = decode_part(payload)?;
        if part.seq == 0 {
            self.discard_tail();
            if part.kind == BatchKind::Incremental && part.prev_epoch != self.epoch {
                self.counters.tails_discarded += 1;
                return Ok(ApplyOutcome::Rejected {
                    reason: format!(
                        "chain mismatch: batch follows epoch {}, store is at {}",
                        part.prev_epoch, self.epoch
                    ),
                });
            }
        } else {
            let Some(first) = self.staged.first() else {
                return Ok(ApplyOutcome::Rejected {
                    reason: format!("part {} arrived with no batch in progress", part.seq),
                });
            };
            if part.seq as usize != self.staged.len()
                || part.epoch != first.epoch
                || part.prev_epoch != first.prev_epoch
                || part.kind != first.kind
            {
                self.discard_tail();
                self.counters.tails_discarded += 1;
                return Ok(ApplyOutcome::Rejected {
                    reason: "part does not continue the staged batch".to_string(),
                });
            }
        }
        let last = part.last;
        self.staged.push(part);
        if !last {
            return Ok(ApplyOutcome::Staged {
                staged: self.staged.len() as u32,
            });
        }
        let parts = std::mem::take(&mut self.staged);
        let kind = parts[0].kind;
        let epoch = parts[0].epoch;
        let pages: Vec<(PageId, Box<[u8; PAGE_SIZE]>)> =
            parts.into_iter().flat_map(|p| p.pages).collect();
        self.install(kind, &pages)?;
        self.epoch = epoch;
        match kind {
            BatchKind::Snapshot => self.counters.snapshots_applied += 1,
            BatchKind::Incremental => self.counters.batches_applied += 1,
        }
        Ok(ApplyOutcome::Applied { epoch })
    }

    /// Write a complete batch: extend the file, data pages, barrier,
    /// header slots, barrier. The header slots are the commit point — a
    /// crash before them leaves the previous applied epoch the winner.
    fn install(
        &mut self,
        kind: BatchKind,
        pages: &[(PageId, Box<[u8; PAGE_SIZE]>)],
    ) -> StoreResult<()> {
        let mut pager = match kind {
            BatchKind::Snapshot => FilePager::create(&self.path)?,
            BatchKind::Incremental => FilePager::open(&self.path)?,
        };
        let top = pages.iter().map(|(id, _)| *id).max().unwrap_or(0);
        while pager.page_count() <= top {
            pager.allocate()?;
        }
        for (id, image) in pages.iter().filter(|(id, _)| *id >= 2) {
            pager.write(*id, image)?;
        }
        pager.sync()?;
        for (id, image) in pages.iter().filter(|(id, _)| *id < 2) {
            pager.write(*id, image)?;
        }
        pager.sync()?;
        Ok(())
    }

    /// Drop a partially staged batch (counting it when it held parts).
    fn discard_tail(&mut self) {
        if !self.staged.is_empty() {
            self.staged.clear();
            self.counters.tails_discarded += 1;
        }
    }

    /// Open a read-only store over the applied state without writing the
    /// file ([`XmlStore::open_read_only`]): the same view a primary's
    /// snapshot reader gets, with the pending journal of the last applied
    /// batch overlaid from disk.
    pub fn reader(&self) -> StoreResult<XmlStore> {
        if self.epoch == 0 {
            return Err(StoreError::InvalidRequest(
                "replica has not bootstrapped yet",
            ));
        }
        XmlStore::open_read_only(&self.path, self.config)
    }

    /// Catch-up is over: discard any staged tail, run real crash
    /// recovery (replaying the pending journal of the last applied
    /// batch and publishing a journal-free header), and fence. Returns
    /// the fencing epoch.
    pub fn promote(&mut self) -> StoreResult<u64> {
        if self.epoch == 0 {
            return Err(StoreError::InvalidUpdate(
                "replica has no applied state to promote",
            ));
        }
        self.discard_tail();
        let backend = FilePager::open(&self.path)?;
        let store = XmlStore::open(Box::new(backend), self.config)?;
        let epoch = store.current_epoch();
        drop(store);
        self.epoch = epoch;
        self.fence = Some(epoch);
        Ok(epoch)
    }
}

/// Epoch of the winning header slot of the file at `path`, if it parses.
fn read_disk_epoch(path: &Path) -> Option<u64> {
    let mut pager = FilePager::open(path).ok()?;
    Some(catalog::read_header(&mut pager).ok()?.epoch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::{AdmissionConfig, SharedStore};
    use crate::store::bulkload_with;
    use natix_core::Ekm;
    use natix_xml::parse;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("natix-repl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn seed_store(path: &Path) {
        let doc = parse("<site><a>one</a><b>two</b></site>").unwrap();
        let pager = FilePager::create(path).expect("create");
        drop(bulkload_with(&doc, &Ekm, 64, Box::new(pager), StoreConfig::default()).unwrap());
    }

    fn open_primary(path: &Path) -> (SharedStore, ReplicaSource) {
        let raw = FilePager::open(path).unwrap();
        let capture = CapturePager::new(Box::new(raw));
        let handle = capture.handle();
        let shared = SharedStore::open(
            Box::new(capture),
            Box::new(path.to_path_buf()),
            StoreConfig::default(),
            AdmissionConfig::default(),
        )
        .unwrap();
        let source = ReplicaSource::new(
            Box::new(path.to_path_buf()),
            handle,
            shared.committed_epoch(),
        );
        (shared, source)
    }

    fn append_marker(shared: &SharedStore, text: &str) {
        let mut w = shared.begin_write().unwrap();
        w.mutate(|store| {
            let root = store.root()?;
            store
                .append_child(root, natix_xml::NodeKind::Text, "#text", Some(text))
                .map(|_| ())
        })
        .unwrap();
    }

    /// Pump parts from the source into the follower until caught up.
    fn sync_follower(source: &mut ReplicaSource, committed: u64, follower: &mut Follower) {
        loop {
            let mut seq = 0u32;
            let Some(payload) = source.fetch(committed, follower.epoch(), seq).unwrap() else {
                return;
            };
            let mut payload = payload;
            loop {
                match follower.apply_part(&payload).unwrap() {
                    ApplyOutcome::Staged { .. } => {
                        seq += 1;
                        payload = source
                            .fetch(committed, follower.epoch(), seq)
                            .unwrap()
                            .expect("continuation part");
                    }
                    ApplyOutcome::Applied { .. } => break,
                    ApplyOutcome::Rejected { reason } => panic!("rejected: {reason}"),
                }
            }
        }
    }

    #[test]
    fn part_codec_roundtrip_and_corruption() {
        let batch = ReplBatch {
            kind: BatchKind::Incremental,
            prev_epoch: 3,
            epoch: 5,
            pages: (0..REPL_PART_MAX_PAGES as u32 + 7)
                .map(|i| (i + 2, Box::new([i as u8; PAGE_SIZE])))
                .collect(),
        };
        assert_eq!(batch.part_count(), 2);
        let parts = batch.encode_parts();
        let p0 = decode_part(&parts[0]).unwrap();
        let p1 = decode_part(&parts[1]).unwrap();
        assert!(!p0.last && p1.last);
        assert_eq!(p0.pages.len(), REPL_PART_MAX_PAGES);
        assert_eq!(p1.pages.len(), 7);
        assert_eq!(p1.epoch, 5);
        // Any flipped byte fails the checksum; truncations fail the
        // length checks; neither panics.
        let mut bent = parts[1].clone();
        bent[40] ^= 0x10;
        assert!(decode_part(&bent).is_err());
        for cut in [0, 3, PART_HEADER, parts[1].len() - 1] {
            assert!(decode_part(&parts[1][..cut]).is_err(), "cut {cut}");
        }
        assert!(decode_part(&[]).is_err());
    }

    #[test]
    fn incremental_chain_keeps_files_byte_identical() {
        let dir = scratch("chain");
        let primary = dir.join("primary.natix");
        let replica = dir.join("replica.natix");
        seed_store(&primary);
        let (shared, mut source) = open_primary(&primary);
        std::fs::copy(&primary, &replica).unwrap();
        let mut follower = Follower::open(replica.clone(), StoreConfig::default());
        assert_eq!(follower.epoch(), shared.committed_epoch());

        for round in 0..4 {
            // A pin held across the commit defers its checkpoint, so the
            // shipped state carries a pending journal.
            let pin = shared.begin_read().unwrap();
            append_marker(&shared, &format!("marker-{round}"));
            let committed = shared.committed_epoch();
            sync_follower(&mut source, committed, &mut follower);
            assert_eq!(follower.epoch(), committed, "round {round}");
            assert_eq!(
                std::fs::read(&primary).unwrap(),
                std::fs::read(&replica).unwrap(),
                "files diverged after round {round}"
            );
            // The replica's reader (overlay decoded from its file) and a
            // primary snapshot of the same epoch (overlay shared from the
            // writer's memory) are the same view.
            let on_disk = catalog::read_header(&mut FilePager::open(&replica).unwrap()).unwrap();
            assert!(on_disk.journal_len > 0, "round {round}: no journal pending");
            let mut snapshot = shared.begin_read().unwrap();
            let mut reader = follower.reader().unwrap();
            assert_eq!(snapshot.epoch(), committed);
            assert_eq!(reader.current_epoch(), committed);
            assert_eq!(
                reader.to_document().unwrap().to_xml(),
                snapshot.document().unwrap().to_xml(),
                "round {round}"
            );
            drop((pin, snapshot));
        }
        // The replica serves the same document, read-only.
        let mut reader = follower.reader().unwrap();
        let doc = reader.to_document().unwrap();
        assert!(doc.to_xml().contains("marker-3"));
        let root = reader.root().unwrap();
        assert!(reader
            .append_child(root, natix_xml::NodeKind::Element, "x", None)
            .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A follower that has applied nothing refuses a read as a request
    /// it cannot serve yet, in the category of a bad request, and does
    /// not call it an update.
    #[test]
    fn unbootstrapped_reader_is_refused_as_a_request() {
        let dir = scratch("unbooted");
        let follower = Follower::open(dir.join("replica.natix"), StoreConfig::default());
        assert_eq!(follower.epoch(), 0);
        let err = follower.reader().err().expect("nothing to read yet");
        assert_eq!(err.category(), crate::ErrorCategory::InvalidRequest);
        let text = err.to_string();
        assert!(!text.contains("invalid update"), "{text}");
        assert!(text.contains("not bootstrapped"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A header of another format (the frameless 2, the FNV-framed 3) is
    /// refused by name — same typed error — by every way of opening a
    /// page file, and none of them writes to it.
    #[test]
    fn foreign_format_header_is_refused_by_every_open_path() {
        let dir = scratch("foreign");
        let path = dir.join("old.natix");
        seed_store(&path);
        // A follower attached while the file still parsed (reader()
        // re-reads the disk on every call).
        let follower = Follower::open(path.clone(), StoreConfig::default());
        assert!(follower.epoch() > 0);
        for digit in [b'2', b'3'] {
            // Bulkload left slot 0 zeroed and the epoch-1 header in slot
            // 1: put the other format's header there instead.
            let mut raw = FilePager::open(&path).unwrap();
            raw.write(1, &crate::catalog::tests::foreign_header_page(digit))
                .unwrap();
            raw.sync().unwrap();
            drop(raw);
            let before = std::fs::read(&path).unwrap();

            let backend = || Box::new(FilePager::open(&path).unwrap());
            type Open<'a> = Box<dyn Fn() -> StoreResult<()> + 'a>;
            let entry_points: [(&str, Open<'_>); 3] = [
                (
                    "XmlStore::open",
                    Box::new(|| XmlStore::open(backend(), StoreConfig::default()).map(drop)),
                ),
                (
                    "SharedStore::open",
                    Box::new(|| {
                        SharedStore::open(
                            backend(),
                            Box::new(path.clone()),
                            StoreConfig::default(),
                            AdmissionConfig::default(),
                        )
                        .map(drop)
                    }),
                ),
                ("Follower::reader", Box::new(|| follower.reader().map(drop))),
            ];
            let named = format!("unsupported store format {}", char::from(digit));
            for (name, open) in &entry_points {
                let err = open().expect_err(name);
                assert!(err.is_corruption(), "{name}: {err}");
                assert!(err.to_string().contains(&named), "{name}: {err}");
                assert_eq!(std::fs::read(&path).unwrap(), before, "{name} wrote");
            }
        }
        // A follower attaching now sees no applied state to serve.
        assert_eq!(
            Follower::open(path.clone(), StoreConfig::default()).epoch(),
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bootstrap_from_snapshot_then_promote() {
        let dir = scratch("boot");
        let primary = dir.join("primary.natix");
        let replica = dir.join("replica.natix");
        seed_store(&primary);
        let (shared, mut source) = open_primary(&primary);
        append_marker(&shared, "pre-boot");
        let mut follower = Follower::open(replica.clone(), StoreConfig::default());
        assert_eq!(follower.epoch(), 0);
        sync_follower(&mut source, shared.committed_epoch(), &mut follower);
        assert_eq!(
            std::fs::read(&primary).unwrap(),
            std::fs::read(&replica).unwrap()
        );
        assert_eq!(follower.counters().snapshots_applied, 1);

        // Promotion runs recovery and fences.
        let fence = follower.promote().unwrap();
        assert!(fence >= shared.committed_epoch());
        assert_eq!(follower.fence(), Some(fence));
        let mut promoted = XmlStore::open(
            Box::new(FilePager::open(&replica).unwrap()),
            StoreConfig::default(),
        )
        .unwrap();
        assert!(promoted
            .to_document()
            .unwrap()
            .to_xml()
            .contains("pre-boot"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn divergent_tails_rejected_and_fence_holds() {
        let dir = scratch("fence");
        let primary = dir.join("primary.natix");
        let replica = dir.join("replica.natix");
        seed_store(&primary);
        let (shared, mut source) = open_primary(&primary);
        std::fs::copy(&primary, &replica).unwrap();
        let mut follower = Follower::open(replica.clone(), StoreConfig::default());
        append_marker(&shared, "real");
        sync_follower(&mut source, shared.committed_epoch(), &mut follower);
        let at = follower.epoch();

        // A batch that does not chain from the applied epoch is refused.
        let stray = ReplBatch {
            kind: BatchKind::Incremental,
            prev_epoch: at + 5,
            epoch: at + 6,
            pages: vec![(2, Box::new([0xAB; PAGE_SIZE]))],
        };
        match follower.apply_part(&stray.encode_parts()[0]).unwrap() {
            ApplyOutcome::Rejected { reason } => assert!(reason.contains("chain mismatch")),
            other => panic!("expected rejection, got {other:?}"),
        }
        // A half-staged batch is a discarded tail, not an applied state.
        let two_part = ReplBatch {
            kind: BatchKind::Incremental,
            prev_epoch: at,
            epoch: at + 1,
            pages: (0..REPL_PART_MAX_PAGES as u32 + 1)
                .map(|i| (i + 2, Box::new([1u8; PAGE_SIZE])))
                .collect(),
        };
        assert!(matches!(
            follower.apply_part(&two_part.encode_parts()[0]).unwrap(),
            ApplyOutcome::Staged { .. }
        ));
        let before = std::fs::read(&replica).unwrap();
        let fence = follower.promote().unwrap();
        assert!(
            follower.counters().tails_discarded >= 1,
            "staged tail must be counted as discarded"
        );
        // Post-promote, even a correctly chaining batch is fenced.
        let late = ReplBatch {
            kind: BatchKind::Incremental,
            prev_epoch: fence,
            epoch: fence + 1,
            pages: vec![(2, Box::new([0xCD; PAGE_SIZE]))],
        };
        match follower.apply_part(&late.encode_parts()[0]).unwrap() {
            ApplyOutcome::Rejected { reason } => assert!(reason.contains("fenced")),
            other => panic!("expected fencing, got {other:?}"),
        }
        // The discarded tail never reached the data pages the old header
        // owns: page 2's committed bytes are intact after recovery.
        let after = std::fs::read(&replica).unwrap();
        assert_eq!(
            before[2 * PAGE_SIZE..3 * PAGE_SIZE],
            after[2 * PAGE_SIZE..3 * PAGE_SIZE]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
