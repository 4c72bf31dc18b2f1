//! Page storage backends, fault injection, and the buffer pool.
//!
//! Three kinds of backend implement the [`Pager`] seam:
//!
//! * [`MemPager`] / [`SharedMemPager`] — heap-backed page arrays; the
//!   shared variant hands out cheap clones over the same pages so a test
//!   can keep the "disk" alive across a simulated crash of the store.
//! * [`FilePager`] — a plain page file.
//! * [`FaultInjectingPager`] — wraps any backend and, driven by a seeded
//!   deterministic [`FaultSchedule`], injects I/O errors, failed barriers
//!   that drop unsynced writes, torn half-page writes, and "power cut
//!   after N page writes" stops. The crash-recovery fuzz harness
//!   (`natix-testkit`) is built on it.
//!
//! No layer retries I/O: a failed read, write or barrier fails its
//! operation with a typed [`StoreError::Io`], and the store rolls back.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::rc::Rc;

use crate::page::{
    is_zero_page, page_class_of, seal_frame, verify_frame, FrameCheck, PageClass, PAGE_SIZE,
    PAYLOAD_SIZE,
};

/// Page number within a store.
pub type PageId = u32;

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure, with the page and operation that hit it
    /// (when known) so fuzz-failure reports can say *where* a fault landed.
    Io {
        /// The failing I/O error.
        source: std::io::Error,
        /// Page being read or written, if the failure is page-scoped.
        page: Option<PageId>,
        /// Operation that failed (`"read"`, `"write"`, `"allocate"`, …).
        op: &'static str,
    },
    /// A page id outside the allocated range.
    BadPage(PageId),
    /// A record reference that does not resolve.
    BadRecord(u32),
    /// On-disk bytes failed validation: a page checksum mismatch, an
    /// undecodable record/catalog/journal blob, or a broken invariant.
    /// Context fields are filled in where known so reports can say
    /// *which* page or record is damaged.
    Corrupt {
        /// What failed to validate.
        what: Cow<'static, str>,
        /// Damaged page, if page-scoped.
        page: Option<PageId>,
        /// Class the damaged page claims to be, if known.
        class: Option<PageClass>,
        /// Record being decoded, if record-scoped.
        record: Option<u32>,
        /// Stored checksum, for checksum mismatches.
        expected: Option<u64>,
        /// Computed checksum, for checksum mismatches.
        found: Option<u64>,
    },
    /// An update was rejected (e.g. deleting the document root, or a
    /// single node heavier than the record limit).
    InvalidUpdate(&'static str),
    /// A request the store cannot serve in its present state (e.g. a read
    /// of a replica that has not bootstrapped). Not an update, and not
    /// damage: the same request can succeed later.
    InvalidRequest(&'static str),
    /// Admission control shed the request: the concurrency limit is
    /// already fully used. The store itself is healthy — retry later.
    Overloaded {
        /// What was rejected (`"read"`, `"write"`).
        what: &'static str,
        /// Requests of this kind currently in flight.
        inflight: u32,
        /// The configured admission limit.
        limit: u32,
    },
    /// The store is in read-only degraded mode: a resource-class failure
    /// (e.g. a full disk) rolled the in-flight commit back and writes are
    /// refused until the space probe sees the backend recover. Reads keep
    /// serving throughout; retry writes after a long back-off.
    ReadOnly {
        /// Why writes are suspended (e.g. `"disk full"`).
        reason: &'static str,
    },
}

/// Suggested client back-off for writes refused in read-only degraded
/// mode. Deliberately much longer than the overload hints: space does not
/// free up on millisecond timescales.
pub const READ_ONLY_RETRY_HINT_MS: u64 = 250;

impl StoreError {
    /// Wrap an I/O error with page context.
    pub fn io_at(source: std::io::Error, page: PageId, op: &'static str) -> StoreError {
        StoreError::Io {
            source,
            page: Some(page),
            op,
        }
    }

    /// Corruption with no location context (decode-level failures where
    /// the caller attaches context later, or none is known).
    pub fn corrupt(what: impl Into<Cow<'static, str>>) -> StoreError {
        StoreError::Corrupt {
            what: what.into(),
            page: None,
            class: None,
            record: None,
            expected: None,
            found: None,
        }
    }

    /// Corruption pinned to a page.
    pub fn corrupt_page(what: &'static str, page: PageId, class: Option<PageClass>) -> StoreError {
        StoreError::Corrupt {
            what: what.into(),
            page: Some(page),
            class,
            record: None,
            expected: None,
            found: None,
        }
    }

    /// Corruption pinned to a record.
    pub fn corrupt_record(what: &'static str, record: u32) -> StoreError {
        StoreError::Corrupt {
            what: what.into(),
            page: None,
            class: None,
            record: Some(record),
            expected: None,
            found: None,
        }
    }

    /// A page-frame checksum mismatch.
    pub fn checksum_mismatch(
        page: PageId,
        class: PageClass,
        expected: u64,
        found: u64,
    ) -> StoreError {
        StoreError::Corrupt {
            what: "page checksum mismatch".into(),
            page: Some(page),
            class: Some(class),
            record: None,
            expected: Some(expected),
            found: Some(found),
        }
    }

    /// Attach record context to a corruption error that lacks it (decode
    /// helpers do not know which record they are decoding; `fetch` does).
    pub fn in_record(self, no: u32) -> StoreError {
        match self {
            StoreError::Corrupt {
                what,
                page,
                class,
                record,
                expected,
                found,
            } => StoreError::Corrupt {
                what,
                page,
                class,
                record: record.or(Some(no)),
                expected,
                found,
            },
            other => other,
        }
    }

    /// True for damage to at-rest bytes: checksum mismatches, undecodable
    /// structures, dangling page/record references. These never fix
    /// themselves by retrying; `fsck` is the remedy.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StoreError::Corrupt { .. } | StoreError::BadPage(_) | StoreError::BadRecord(_)
        )
    }

    /// True for resource exhaustion ([`std::io::ErrorKind::StorageFull`]
    /// and the [`StoreError::ReadOnly`] degraded mode it induces). The
    /// condition clears without operator intervention once space frees
    /// up, so the store degrades to read-only instead of failing, and
    /// clients back off much longer than for an overload shed.
    pub fn is_resource(&self) -> bool {
        match self {
            StoreError::Io { source, .. } => io_error_is_resource(source),
            StoreError::ReadOnly { .. } => true,
            _ => false,
        }
    }

    /// True for a load-shedding outcome ([`StoreError::Overloaded`]): the
    /// store is healthy, the request was rejected by policy. Callers
    /// retry later.
    pub fn is_overload(&self) -> bool {
        matches!(self, StoreError::Overloaded { .. })
    }

    /// Coarse classification for front ends that must tell shed load from
    /// real damage — the network server maps these to response kinds and
    /// the CLI maps them to distinct exit codes.
    pub fn category(&self) -> ErrorCategory {
        match self {
            StoreError::Overloaded { .. } | StoreError::ReadOnly { .. } => ErrorCategory::Shed,
            StoreError::Corrupt { .. } | StoreError::BadPage(_) | StoreError::BadRecord(_) => {
                ErrorCategory::Corrupt
            }
            StoreError::Io { .. } => ErrorCategory::Io,
            StoreError::InvalidUpdate(_) | StoreError::InvalidRequest(_) => {
                ErrorCategory::InvalidRequest
            }
        }
    }

    /// Suggested client back-off in milliseconds for shed requests, scaled
    /// by how far past the limit the rejection happened. Read-only
    /// degraded mode hints [`READ_ONLY_RETRY_HINT_MS`] — much longer,
    /// since writes stay refused until backend space frees up. `None` for
    /// errors that are not load shedding (retrying those does not help).
    pub fn retry_after_hint_ms(&self) -> Option<u64> {
        match self {
            StoreError::Overloaded { inflight, .. } => Some((1 + *inflight as u64 / 4).min(50)),
            StoreError::ReadOnly { .. } => Some(READ_ONLY_RETRY_HINT_MS),
            _ => None,
        }
    }
}

/// Coarse failure classes of [`StoreError::category`]. The distinction
/// that matters operationally: [`ErrorCategory::Shed`] means the store is
/// healthy and the request should be retried later, everything else means
/// the request itself (or the store) has a real problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCategory {
    /// Admission control rejected the request ([`StoreError::Overloaded`])
    /// or the store is read-only degraded ([`StoreError::ReadOnly`]);
    /// retry after a back-off.
    Shed,
    /// At-rest bytes are damaged; `fsck` is the remedy, not a retry.
    Corrupt,
    /// An underlying I/O failure.
    Io,
    /// The request was semantically invalid (e.g. an illegal update).
    InvalidRequest,
}

/// Resource-exhaustion kinds: the disk (or quota) is full. Space frees
/// up without operator action, so callers back off with a long hint and
/// the store degrades to read-only instead of failing the whole stack.
pub fn io_error_is_resource(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::StorageFull)
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { source, page, op } => match page {
                Some(p) => {
                    let offset = *p as u64 * PAGE_SIZE as u64;
                    write!(f, "I/O error ({op} page {p}, offset {offset}): {source}")
                }
                None => write!(f, "I/O error ({op}): {source}"),
            },
            StoreError::BadPage(p) => {
                let offset = *p as u64 * PAGE_SIZE as u64;
                write!(f, "page {p} out of range (offset {offset})")
            }
            StoreError::BadRecord(r) => write!(f, "record {r} not found"),
            StoreError::Corrupt {
                what,
                page,
                class,
                record,
                expected,
                found,
            } => {
                write!(f, "corrupt store: {what}")?;
                if let Some(r) = record {
                    write!(f, " (record {r})")?;
                }
                if let Some(p) = page {
                    let offset = *p as u64 * PAGE_SIZE as u64;
                    write!(f, " (page {p}, offset {offset}")?;
                    if let Some(c) = class {
                        write!(f, ", class {c}")?;
                    }
                    write!(f, ")")?;
                }
                if let (Some(e), Some(g)) = (expected, found) {
                    write!(f, " (stored {e:#018x}, computed {g:#018x})")?;
                }
                Ok(())
            }
            StoreError::InvalidUpdate(what) => write!(f, "invalid update: {what}"),
            StoreError::InvalidRequest(what) => write!(f, "invalid request: {what}"),
            StoreError::Overloaded {
                what,
                inflight,
                limit,
            } => write!(
                f,
                "overloaded: {what} rejected ({inflight} in flight, limit {limit})"
            ),
            StoreError::ReadOnly { reason } => {
                write!(
                    f,
                    "store is read-only (degraded): {reason}; writes resume when the backend recovers"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io {
            source: e,
            page: None,
            op: "io",
        }
    }
}

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// Backend that persists fixed-size pages.
pub trait Pager {
    /// Number of allocated pages.
    fn page_count(&self) -> u32;
    /// Allocate a fresh zeroed page, returning its id.
    fn allocate(&mut self) -> StoreResult<PageId>;
    /// Read a page into `buf`.
    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()>;
    /// Write a page from `buf`.
    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StoreResult<()>;
    /// Durability barrier: all writes issued before this call must reach
    /// stable storage before any write issued after it. In-memory pagers
    /// are trivially ordered, so the default is a no-op; [`FilePager`]
    /// issues a real fsync. The commit protocol places one barrier
    /// before and one after each header flip — group commit exists to
    /// amortize exactly these calls.
    fn sync(&mut self) -> StoreResult<()> {
        Ok(())
    }
}

/// Heap-backed pager (the paper's experiments run with a buffer pool larger
/// than the document, so an in-memory backend measures the same thing).
#[derive(Default)]
pub struct MemPager {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl MemPager {
    /// Empty store.
    pub fn new() -> MemPager {
        MemPager::default()
    }
}

impl Pager for MemPager {
    fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    fn allocate(&mut self) -> StoreResult<PageId> {
        self.pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok((self.pages.len() - 1) as PageId)
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        let page = self.pages.get(id as usize).ok_or(StoreError::BadPage(id))?;
        buf.copy_from_slice(&page[..]);
        Ok(())
    }

    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        let page = self
            .pages
            .get_mut(id as usize)
            .ok_or(StoreError::BadPage(id))?;
        page.copy_from_slice(buf);
        Ok(())
    }
}

/// A heap-backed pager whose pages are shared between clones.
///
/// Crash tests hand one clone to the store (possibly wrapped in a
/// [`FaultInjectingPager`]) and keep another: when the store "crashes" and
/// is dropped, the surviving clone still sees exactly the bytes that made
/// it to the simulated disk, and a fresh store can be reopened over them.
#[derive(Clone, Default)]
pub struct SharedMemPager {
    pages: Rc<RefCell<Vec<Box<[u8; PAGE_SIZE]>>>>,
}

impl SharedMemPager {
    /// Empty shared store.
    pub fn new() -> SharedMemPager {
        SharedMemPager::default()
    }

    /// Flat snapshot of every page, for later [`SharedMemPager::restore`].
    pub fn snapshot(&self) -> Vec<u8> {
        let pages = self.pages.borrow();
        let mut out = Vec::with_capacity(pages.len() * PAGE_SIZE);
        for p in pages.iter() {
            out.extend_from_slice(&p[..]);
        }
        out
    }

    /// Replace the shared contents with a [`SharedMemPager::snapshot`]
    /// (length must be a multiple of the page size).
    pub fn restore(&self, snapshot: &[u8]) {
        assert_eq!(snapshot.len() % PAGE_SIZE, 0, "snapshot not page-aligned");
        let mut pages = self.pages.borrow_mut();
        pages.clear();
        for chunk in snapshot.chunks(PAGE_SIZE) {
            let mut page = Box::new([0u8; PAGE_SIZE]);
            page.copy_from_slice(chunk);
            pages.push(page);
        }
    }

    /// A new pager populated from a snapshot.
    pub fn from_snapshot(snapshot: &[u8]) -> SharedMemPager {
        let p = SharedMemPager::new();
        p.restore(snapshot);
        p
    }
}

impl Pager for SharedMemPager {
    fn page_count(&self) -> u32 {
        self.pages.borrow().len() as u32
    }

    fn allocate(&mut self) -> StoreResult<PageId> {
        let mut pages = self.pages.borrow_mut();
        pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok((pages.len() - 1) as PageId)
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        let pages = self.pages.borrow();
        let page = pages.get(id as usize).ok_or(StoreError::BadPage(id))?;
        buf.copy_from_slice(&page[..]);
        Ok(())
    }

    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        let mut pages = self.pages.borrow_mut();
        let page = pages.get_mut(id as usize).ok_or(StoreError::BadPage(id))?;
        page.copy_from_slice(buf);
        Ok(())
    }
}

/// File-backed pager.
pub struct FilePager {
    file: File,
    count: u32,
}

impl FilePager {
    /// Create (truncate) a page file.
    pub fn create(path: &Path) -> StoreResult<FilePager> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FilePager { file, count: 0 })
    }

    /// Open an existing page file.
    pub fn open(path: &Path) -> StoreResult<FilePager> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(FilePager {
            file,
            count: (len / PAGE_SIZE as u64) as u32,
        })
    }
}

impl Pager for FilePager {
    fn page_count(&self) -> u32 {
        self.count
    }

    fn allocate(&mut self) -> StoreResult<PageId> {
        let id = self.count;
        self.file
            .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))
            .map_err(|e| StoreError::io_at(e, id, "allocate"))?;
        self.file
            .write_all(&[0u8; PAGE_SIZE])
            .map_err(|e| StoreError::io_at(e, id, "allocate"))?;
        self.count += 1;
        Ok(id)
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        if id >= self.count {
            return Err(StoreError::BadPage(id));
        }
        self.file
            .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))
            .map_err(|e| StoreError::io_at(e, id, "read"))?;
        self.file
            .read_exact(&mut buf[..])
            .map_err(|e| StoreError::io_at(e, id, "read"))?;
        Ok(())
    }

    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        if id >= self.count {
            return Err(StoreError::BadPage(id));
        }
        self.file
            .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))
            .map_err(|e| StoreError::io_at(e, id, "write"))?;
        self.file
            .write_all(&buf[..])
            .map_err(|e| StoreError::io_at(e, id, "write"))?;
        Ok(())
    }

    fn sync(&mut self) -> StoreResult<()> {
        self.file
            .sync_data()
            .map_err(|e| StoreError::io_at(e, 0, "sync"))
    }
}

/// What a [`FaultSchedule`] injects, and when.
///
/// Write events are counted across `allocate` and `write` calls (both hit
/// the disk); the schedule triggers on the N-th such event, 1-based.
/// Reads and `sync` barriers are counted separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The N-th write event fails with an I/O error; nothing is written,
    /// and the backend keeps working afterwards (a one-shot fault).
    WriteError {
        /// 1-based write event number.
        at: u64,
    },
    /// The N-th read fails with an I/O error; the backend keeps working
    /// afterwards.
    ReadError {
        /// 1-based read number.
        at: u64,
    },
    /// The N-th `sync` fails, and every page written since the last
    /// `sync` that succeeded goes back to its image at that barrier — what
    /// Linux may do to a file's unsynced pages when `fsync` reports an
    /// error. Pages allocated in that window stay allocated, zero-filled.
    /// The backend keeps working afterwards.
    SyncError {
        /// 1-based `sync` number.
        at: u64,
    },
    /// Power is cut at the N-th write event. The cut write either does not
    /// happen at all, or — when `torn` — applies only the first
    /// `PAGE_SIZE / 2` bytes (a torn half-page write). Every call after
    /// the cut fails.
    PowerCut {
        /// 1-based write event number at which the power dies.
        at: u64,
        /// Whether the dying write tears (half the page makes it to disk).
        torn: bool,
    },
    /// The disk fills at the N-th write event: write events
    /// `at .. at + recover_after` fail with
    /// [`std::io::ErrorKind::StorageFull`] (nothing is written), then
    /// space frees up and writes succeed again. Reads are unaffected
    /// throughout — a full disk still serves what it holds.
    StorageFull {
        /// 1-based write event number at which the disk fills.
        at: u64,
        /// How many write events (including the first failing one) are
        /// refused before space frees up.
        recover_after: u64,
    },
}

/// A deterministic fault schedule: same seed ⇒ same fault, byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSchedule {
    /// The fault to inject.
    pub fault: Fault,
}

impl FaultSchedule {
    /// Power cut at the `at`-th write event.
    pub fn power_cut(at: u64, torn: bool) -> FaultSchedule {
        FaultSchedule {
            fault: Fault::PowerCut { at, torn },
        }
    }

    /// One-shot write error at the `at`-th write event.
    pub fn write_error(at: u64) -> FaultSchedule {
        FaultSchedule {
            fault: Fault::WriteError { at },
        }
    }

    /// One-shot read error at the `at`-th read.
    pub fn read_error(at: u64) -> FaultSchedule {
        FaultSchedule {
            fault: Fault::ReadError { at },
        }
    }

    /// The `at`-th `sync` fails and drops the writes it was to make
    /// durable.
    pub fn sync_error(at: u64) -> FaultSchedule {
        FaultSchedule {
            fault: Fault::SyncError { at },
        }
    }

    /// Disk full from the `at`-th write event, recovering after
    /// `recover_after` refused write events (clamped to at least one).
    pub fn storage_full(at: u64, recover_after: u64) -> FaultSchedule {
        FaultSchedule {
            fault: Fault::StorageFull {
                at,
                recover_after: recover_after.max(1),
            },
        }
    }

    /// Derive a schedule from a seed, with the trigger point in
    /// `1..=horizon`. SplitMix64 over the seed: reproducible everywhere,
    /// no RNG state to carry around.
    pub fn from_seed(seed: u64, horizon: u64) -> FaultSchedule {
        let horizon = horizon.max(1);
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let at = 1 + next() % horizon;
        let kind = next() % 8;
        let torn = next() % 2 == 0;
        let fault = match kind {
            0 => Fault::WriteError { at },
            1 => Fault::ReadError { at },
            _ => Fault::PowerCut { at, torn },
        };
        FaultSchedule { fault }
    }
}

impl std::fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.fault {
            Fault::WriteError { at } => write!(f, "write-error@{at}"),
            Fault::ReadError { at } => write!(f, "read-error@{at}"),
            Fault::SyncError { at } => write!(f, "sync-error@{at}"),
            Fault::PowerCut { at, torn } => {
                write!(f, "power-cut@{at}{}", if torn { "+torn" } else { "" })
            }
            Fault::StorageFull { at, recover_after } => {
                write!(f, "storage-full@{at}x{recover_after}")
            }
        }
    }
}

/// Build an injected I/O error of the [`std::io::ErrorKind`] a real
/// device would report for the fault: `Interrupted` for a one-shot read
/// or write, `Other` (an `EIO`) for a failed barrier, `StorageFull` for a
/// full disk, and `BrokenPipe` for a power cut and every operation on the
/// dead device after it. Only `StorageFull` changes what the store does
/// ([`StoreError::is_resource`]); the others fail their operation alike.
fn injected(kind: std::io::ErrorKind, what: &'static str) -> std::io::Error {
    std::io::Error::new(kind, format!("injected fault: {what}"))
}

/// A [`Pager`] that wraps any backend and injects faults according to a
/// deterministic [`FaultSchedule`].
///
/// After a [`Fault::PowerCut`] fires, every operation fails — the store is
/// "dead" — but the wrapped backend keeps exactly the bytes that were
/// written before the cut (plus the torn half, if the schedule says so).
/// Reopening from the backend is how tests simulate a restart.
pub struct FaultInjectingPager {
    inner: Box<dyn Pager>,
    schedule: FaultSchedule,
    writes: u64,
    reads: u64,
    syncs: u64,
    /// Under a [`Fault::SyncError`] still to fire: the image each page
    /// written since the last good `sync` had at that barrier.
    unsynced: HashMap<PageId, Box<[u8; PAGE_SIZE]>>,
    dead: bool,
}

impl FaultInjectingPager {
    /// Wrap `inner` with `schedule`.
    pub fn new(inner: Box<dyn Pager>, schedule: FaultSchedule) -> FaultInjectingPager {
        FaultInjectingPager {
            inner,
            schedule,
            writes: 0,
            reads: 0,
            syncs: 0,
            unsynced: HashMap::new(),
            dead: false,
        }
    }

    /// Whether the simulated power cut has fired.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// `Err` if the power is out; otherwise count a write event and apply
    /// the schedule. Returns `Ok(torn)` where `torn` says the caller must
    /// apply only the first half of the page before dying.
    fn write_event(&mut self, page: PageId, op: &'static str) -> StoreResult<bool> {
        if self.dead {
            return Err(StoreError::io_at(
                injected(std::io::ErrorKind::BrokenPipe, "power is out"),
                page,
                op,
            ));
        }
        self.writes += 1;
        match self.schedule.fault {
            Fault::WriteError { at } if at == self.writes => Err(StoreError::io_at(
                injected(std::io::ErrorKind::Interrupted, "write error"),
                page,
                op,
            )),
            Fault::PowerCut { at, torn } if at == self.writes => {
                self.dead = true;
                if torn && op == "write" {
                    Ok(true)
                } else {
                    Err(StoreError::io_at(
                        injected(std::io::ErrorKind::BrokenPipe, "power cut"),
                        page,
                        op,
                    ))
                }
            }
            Fault::StorageFull { at, recover_after }
                if self.writes >= at && self.writes < at.saturating_add(recover_after) =>
            {
                // Nothing is written; the device keeps working and later
                // write events (past the window) succeed again.
                Err(StoreError::io_at(
                    injected(std::io::ErrorKind::StorageFull, "disk full"),
                    page,
                    op,
                ))
            }
            _ => Ok(false),
        }
    }
}

impl Pager for FaultInjectingPager {
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn allocate(&mut self) -> StoreResult<PageId> {
        let next = self.inner.page_count();
        self.write_event(next, "allocate")?;
        self.inner.allocate()
    }

    fn sync(&mut self) -> StoreResult<()> {
        // A barrier is not a write event (crash-point numbering across
        // the existing sweeps stays stable), but a dead device cannot
        // promise durability.
        if self.dead {
            return Err(StoreError::io_at(
                injected(std::io::ErrorKind::BrokenPipe, "power is out"),
                0,
                "sync",
            ));
        }
        self.syncs += 1;
        if self.schedule.fault == (Fault::SyncError { at: self.syncs }) {
            for (id, image) in self.unsynced.drain() {
                self.inner.write(id, &image)?;
            }
            return Err(StoreError::io_at(
                injected(std::io::ErrorKind::Other, "sync error"),
                0,
                "sync",
            ));
        }
        self.inner.sync()?;
        self.unsynced.clear();
        Ok(())
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        if self.dead {
            return Err(StoreError::io_at(
                injected(std::io::ErrorKind::BrokenPipe, "power is out"),
                id,
                "read",
            ));
        }
        self.reads += 1;
        if let Fault::ReadError { at } = self.schedule.fault {
            if at == self.reads {
                return Err(StoreError::io_at(
                    injected(std::io::ErrorKind::Interrupted, "read error"),
                    id,
                    "read",
                ));
            }
        }
        self.inner.read(id, buf)
    }

    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        let torn = self.write_event(id, "write")?;
        if torn {
            // Half the sectors make it to disk: first half new, second
            // half whatever was there before.
            let mut merged = Box::new([0u8; PAGE_SIZE]);
            self.inner.read(id, &mut merged)?;
            merged[..PAGE_SIZE / 2].copy_from_slice(&buf[..PAGE_SIZE / 2]);
            self.inner.write(id, &merged)?;
            return Err(StoreError::io_at(
                injected(
                    std::io::ErrorKind::BrokenPipe,
                    "power cut mid-write (torn page)",
                ),
                id,
                "write",
            ));
        }
        if matches!(self.schedule.fault, Fault::SyncError { at } if at > self.syncs)
            && !self.unsynced.contains_key(&id)
        {
            let mut image = Box::new([0u8; PAGE_SIZE]);
            self.inner.read(id, &mut image)?;
            self.unsynced.insert(id, image);
        }
        self.inner.write(id, buf)
    }
}

/// A [`Pager`] that seals every written page with a typed frame
/// (class + XXH64 checksum, see `page::seal_frame`) and verifies the
/// frame on every read.
///
/// Reads of all-zero pages pass: they are allocated-but-never-written
/// pages (e.g. the unused header slot right after bulkload) whose
/// contents no decoder accepts anyway. Anything else must carry a valid
/// frame or the read fails with a structured [`StoreError::Corrupt`] —
/// including torn half-page writes, since the checksum lives in the last
/// bytes of the page.
///
/// The store wraps its backend in this pager *inside* `bulkload`/`open`,
/// so fault injectors layered by tests stay outermost and see sealed
/// pages.
pub struct ChecksummingPager {
    inner: Box<dyn Pager>,
    /// Scratch image each write is sealed in.
    sealed: Box<[u8; PAGE_SIZE]>,
}

impl ChecksummingPager {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Pager>) -> ChecksummingPager {
        let sealed = Box::new([0u8; PAGE_SIZE]);
        ChecksummingPager { inner, sealed }
    }
}

impl Pager for ChecksummingPager {
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn allocate(&mut self) -> StoreResult<PageId> {
        self.inner.allocate()
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        self.inner.read(id, buf)?;
        if is_zero_page(buf) {
            return Ok(());
        }
        match verify_frame(buf) {
            FrameCheck::Ok => Ok(()),
            FrameCheck::NotFramed => Err(StoreError::corrupt_page(
                "page frame missing or wrong version",
                id,
                Some(page_class_of(buf)),
            )),
            FrameCheck::Mismatch { expected, found } => Err(StoreError::checksum_mismatch(
                id,
                page_class_of(buf),
                expected,
                found,
            )),
        }
    }

    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        *self.sealed = *buf;
        seal_frame(&mut self.sealed);
        self.inner.write(id, &self.sealed)
    }

    fn sync(&mut self) -> StoreResult<()> {
        self.inner.sync()
    }
}

/// Read `len` bytes laid out from page `first` on in [`PAYLOAD_SIZE`]
/// pieces (a catalog or journal chain, as [`BufferPool::append_chunked`]
/// writes them) through `pager`, which decides
/// whether the page frames are verified on the way.
pub(crate) fn read_chunked(
    pager: &mut dyn Pager,
    first: PageId,
    len: usize,
) -> StoreResult<Vec<u8>> {
    let mut out = Vec::with_capacity(len);
    let mut page = first;
    let mut buf = Box::new([0u8; PAGE_SIZE]);
    while out.len() < len {
        let take = (len - out.len()).min(PAYLOAD_SIZE);
        pager.read(page, &mut buf)?;
        out.extend_from_slice(&buf[..take]);
        page += 1;
    }
    Ok(out)
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded bit rot: flip `bits_per_page` random bits in each of `pages`
/// random non-empty pages of the raw backend. Deterministic in `seed`.
/// Returns the damaged page ids. Corruption tests call this on the raw
/// "disk" (under any checksumming layer) to simulate at-rest decay.
pub fn inject_bit_rot(
    backend: &mut dyn Pager,
    seed: u64,
    pages: usize,
    bits_per_page: usize,
) -> StoreResult<Vec<PageId>> {
    let count = backend.page_count();
    let mut state = seed ^ 0xb170_5eed;
    let mut hit = Vec::new();
    let mut buf = Box::new([0u8; PAGE_SIZE]);
    let mut attempts = 0usize;
    while hit.len() < pages && attempts < pages * 16 + 32 {
        attempts += 1;
        if count == 0 {
            break;
        }
        let id = (splitmix64(&mut state) % count as u64) as PageId;
        if hit.contains(&id) {
            continue;
        }
        backend.read(id, &mut buf)?;
        if is_zero_page(&buf) {
            continue;
        }
        flip_bits(&mut buf, &mut state, bits_per_page, 0..PAGE_SIZE);
        backend.write(id, &buf)?;
        hit.push(id);
    }
    Ok(hit)
}

/// Flip `bits` random bits of one seeded page of class `class` (payload
/// region only, leaving the frame intact so the damage is a *content*
/// mismatch). Returns the damaged page id, or `None` when no page of
/// that class exists.
pub fn corrupt_page_of_class(
    backend: &mut dyn Pager,
    seed: u64,
    class: PageClass,
    bits: usize,
) -> StoreResult<Option<PageId>> {
    let Some((id, mut buf)) = pick_page_of_class(backend, seed, class)? else {
        return Ok(None);
    };
    let mut state = seed ^ 0xc0_de;
    flip_bits(&mut buf, &mut state, bits.max(1), 0..PAYLOAD_SIZE);
    backend.write(id, &buf)?;
    Ok(Some(id))
}

/// Flip one bit inside the checksum field itself of one seeded page of
/// class `class` (the payload stays intact — detection must still fire).
pub fn corrupt_checksum_of_class(
    backend: &mut dyn Pager,
    seed: u64,
    class: PageClass,
) -> StoreResult<Option<PageId>> {
    let Some((id, mut buf)) = pick_page_of_class(backend, seed, class)? else {
        return Ok(None);
    };
    let mut state = seed ^ 0x5ea1;
    flip_bits(&mut buf, &mut state, 1, PAGE_SIZE - 8..PAGE_SIZE);
    backend.write(id, &buf)?;
    Ok(Some(id))
}

fn pick_page_of_class(
    backend: &mut dyn Pager,
    seed: u64,
    class: PageClass,
) -> StoreResult<Option<(PageId, Box<[u8; PAGE_SIZE]>)>> {
    let mut buf = Box::new([0u8; PAGE_SIZE]);
    let mut members = Vec::new();
    for id in 0..backend.page_count() {
        backend.read(id, &mut buf)?;
        if !is_zero_page(&buf) && page_class_of(&buf) == class {
            members.push(id);
        }
    }
    if members.is_empty() {
        return Ok(None);
    }
    let mut state = seed ^ 0x9a9e;
    let id = members[(splitmix64(&mut state) % members.len() as u64) as usize];
    backend.read(id, &mut buf)?;
    Ok(Some((id, buf)))
}

fn flip_bits(
    buf: &mut [u8; PAGE_SIZE],
    state: &mut u64,
    bits: usize,
    range: std::ops::Range<usize>,
) {
    let span = (range.end - range.start).max(1);
    for _ in 0..bits {
        let bit = splitmix64(state) % (span as u64 * 8);
        let byte = range.start + (bit / 8) as usize;
        buf[byte] ^= 1 << (bit % 8);
    }
}

/// Buffer-pool counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct BufferStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that went to the backend.
    pub misses: u64,
    /// Dirty pages written back on flush or write-through.
    pub writebacks: u64,
    /// Frames evicted.
    pub evictions: u64,
    /// Dirty frames written back *by eviction* (pages past the
    /// write-back floor only; subset of `evictions`).
    pub evicted_dirty: u64,
}

struct Frame {
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    referenced: bool,
}

/// A fixed-capacity buffer pool with CLOCK (second-chance) eviction over
/// any [`Pager`]. It only caches: every frame is a page read on demand
/// (or allocated), and nothing outside the pool decides residency. A
/// snapshot reader reads through its own pool; what keeps its pages
/// stable is the epoch pin in `concurrent::SharedStore`, which defers
/// the writer's checkpoints and gates reclamation.
///
/// Eviction rules:
///
/// * **Clean frames** are evicted freely (the backend has the bytes).
/// * **Dirty frames at or past the write-back floor** may be written back
///   to the backend and evicted. The floor (set by the store to the page
///   count of the last committed state) marks where committed data ends:
///   pages beyond it are garbage to crash recovery until the next header
///   flip, so writing them early is crash-safe and needs no journal
///   entry — recovery never reads them, and if the commit lands they
///   already hold their final image. This is what bounds memory during
///   bulkload, where *every* page is past the floor. The same argument
///   lets a commit write the rest of its fresh pages (every dirty frame
///   at or past the page count of the last published state, which a
///   group-commit batch may have raised the floor above) in place ahead
///   of its first barrier, through [`BufferPool::flush_from`]: no fresh
///   page is journaled.
/// * **Dirty frames below the floor** (in-place updates of committed
///   pages, and pages a group-commit batch has staged) are never written
///   back by eviction: an overwrite of a published page reaches the
///   backend only through the commit protocol's journal-then-checkpoint
///   path (see `store::XmlStore::commit`). If every frame is such, the
///   pool temporarily grows past capacity — these working sets are
///   bounded by the dirty set of one commit window.
///
/// The pool also keeps the backend's **free extents**: pages the
/// reclaimer of `concurrent::SharedStore` zero-filled, which
/// [`BufferPool::append_chunked`] fills before it grows the backend.
pub struct BufferPool {
    backend: Box<dyn Pager>,
    frames: HashMap<PageId, Frame>,
    clock: Vec<PageId>,
    hand: usize,
    capacity: usize,
    /// First page id that eviction may write back while dirty. Defaults
    /// to `u32::MAX` (never); the store lowers it to the committed page
    /// count.
    writeback_floor: PageId,
    /// Reclaimed pages as extents `start → length`, adjacent extents
    /// coalesced. In memory only: empty at open.
    free: BTreeMap<PageId, u32>,
    stats: BufferStats,
}

impl BufferPool {
    /// Pool over `backend` holding at most `capacity` pages.
    pub fn new(backend: Box<dyn Pager>, capacity: usize) -> BufferPool {
        BufferPool {
            backend,
            frames: HashMap::with_capacity(capacity),
            clock: Vec::with_capacity(capacity),
            hand: 0,
            capacity: capacity.max(1),
            writeback_floor: u32::MAX,
            free: BTreeMap::new(),
            stats: BufferStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Pages allocated in the backend.
    pub fn page_count(&self) -> u32 {
        self.backend.page_count()
    }

    /// Resident frames right now (may exceed capacity under an all-dirty
    /// working set).
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Allow dirty write-back eviction for pages `>= floor`. The store
    /// sets this to the committed page count after every commit,
    /// checkpoint, and open; fresh backends (bulkload) use 0.
    pub fn set_writeback_floor(&mut self, floor: PageId) {
        self.writeback_floor = floor;
    }

    /// Allocate a fresh page (held in the pool as dirty).
    pub fn allocate(&mut self) -> StoreResult<PageId> {
        self.reduce_to_budget()?;
        let id = self.backend.allocate()?;
        self.admit(
            id,
            Frame {
                data: Box::new([0u8; PAGE_SIZE]),
                dirty: true,
                referenced: true,
            },
        );
        Ok(id)
    }

    /// Run `f` over the page image; `dirty` marks it for writeback.
    pub fn with_page<T>(
        &mut self,
        id: PageId,
        dirty: bool,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> T,
    ) -> StoreResult<T> {
        if !self.frames.contains_key(&id) {
            self.stats.misses += 1;
            self.reduce_to_budget()?;
            let mut data = Box::new([0u8; PAGE_SIZE]);
            self.backend.read(id, &mut data)?;
            self.admit(
                id,
                Frame {
                    data,
                    dirty: false,
                    referenced: true,
                },
            );
        } else {
            self.stats.hits += 1;
        }
        let frame = self.frames.get_mut(&id).expect("just admitted");
        frame.referenced = true;
        frame.dirty |= dirty;
        Ok(f(&mut frame.data))
    }

    /// Evict down to budget before growing the pool, writing back dirty
    /// frames past the floor when no clean victim remains. Callers that
    /// must not touch the backend (rollback) go through [`admit`]
    /// directly, which only ever evicts clean frames.
    fn reduce_to_budget(&mut self) -> StoreResult<()> {
        while self.frames.len() >= self.capacity {
            if self.evict_one() {
                continue;
            }
            if !self.evict_dirty_one()? {
                // Everything left is dirty below the floor: grow past
                // capacity until the next commit.
                break;
            }
        }
        Ok(())
    }

    fn admit(&mut self, id: PageId, frame: Frame) {
        while self.frames.len() >= self.capacity {
            if !self.evict_one() {
                break;
            }
        }
        self.frames.insert(id, frame);
        self.clock.push(id);
    }

    /// Evict one *clean* frame; returns false when none is evictable.
    fn evict_one(&mut self) -> bool {
        // Two CLOCK sweeps: the first clears reference bits, the second
        // finds any clean victim. Dirty frames are skipped.
        let mut scanned = 0;
        let limit = self.clock.len() * 2;
        loop {
            if self.clock.is_empty() || scanned > limit {
                return false;
            }
            self.hand %= self.clock.len();
            let id = self.clock[self.hand];
            match self.frames.get_mut(&id) {
                None => {
                    // Stale clock entry.
                    self.clock.swap_remove(self.hand);
                }
                Some(f) if f.dirty => {
                    scanned += 1;
                    self.hand += 1;
                }
                Some(f) if f.referenced => {
                    f.referenced = false;
                    scanned += 1;
                    self.hand += 1;
                }
                Some(_) => {
                    self.frames.remove(&id);
                    self.stats.evictions += 1;
                    self.clock.swap_remove(self.hand);
                    return true;
                }
            }
        }
    }

    /// Write back and evict one dirty frame at or past the
    /// write-back floor; returns false when none qualifies.
    fn evict_dirty_one(&mut self) -> StoreResult<bool> {
        let mut scanned = 0;
        let limit = self.clock.len();
        loop {
            if self.clock.is_empty() || scanned > limit {
                return Ok(false);
            }
            self.hand %= self.clock.len();
            let id = self.clock[self.hand];
            match self.frames.get(&id) {
                None => {
                    self.clock.swap_remove(self.hand);
                }
                Some(f) if f.dirty && id >= self.writeback_floor => {
                    let data = f.data.clone();
                    self.backend.write(id, &data)?;
                    self.frames.remove(&id);
                    self.clock.swap_remove(self.hand);
                    self.stats.writebacks += 1;
                    self.stats.evictions += 1;
                    self.stats.evicted_dirty += 1;
                    return Ok(true);
                }
                Some(_) => {
                    scanned += 1;
                    self.hand += 1;
                }
            }
        }
    }

    /// Ids of all dirty frames, ascending (a deterministic commit order).
    pub fn dirty_pages(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Copy of the current image of `id` (from the frame, or the backend).
    pub fn page_image(&mut self, id: PageId) -> StoreResult<Box<[u8; PAGE_SIZE]>> {
        if let Some(f) = self.frames.get(&id) {
            return Ok(f.data.clone());
        }
        let mut data = Box::new([0u8; PAGE_SIZE]);
        self.backend.read(id, &mut data)?;
        Ok(data)
    }

    /// Durability barrier on the backend (see [`Pager::sync`]).
    pub fn sync_backend(&mut self) -> StoreResult<()> {
        self.backend.sync()
    }

    /// Write `data` straight to the backend, keeping any resident frame
    /// coherent (and clean).
    pub fn write_through(&mut self, id: PageId, data: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        self.backend.write(id, data)?;
        self.stats.writebacks += 1;
        if let Some(f) = self.frames.get_mut(&id) {
            f.data.copy_from_slice(data);
            f.dirty = false;
        }
        Ok(())
    }

    /// Write `bytes` across consecutive pages tagged with `class`: the
    /// first free extent that holds the whole chain (its remainder stays
    /// free), else pages appended to the backend. The backend is written
    /// directly (no frames — chains are only read on reopen). Chunks at
    /// [`PAYLOAD_SIZE`] so the page frame stays free for the checksum
    /// seam. Returns the first page id; an empty chain takes no page.
    pub fn append_chunked(&mut self, bytes: &[u8], class: PageClass) -> StoreResult<PageId> {
        let n = bytes.len().div_ceil(PAYLOAD_SIZE) as u32;
        let reused = self
            .free
            .iter()
            .find(|&(_, &len)| n > 0 && len >= n)
            .map(|(&start, &len)| (start, len));
        if let Some((start, len)) = reused {
            self.free.remove(&start);
            if len > n {
                self.free.insert(start + n, len - n);
            }
        }
        let first = reused.map_or_else(|| self.backend.page_count(), |(start, _)| start);
        for (next, chunk) in (first..).zip(bytes.chunks(PAYLOAD_SIZE)) {
            let id = match reused {
                Some(_) => next,
                None => self.backend.allocate()?,
            };
            let mut page = Box::new([0u8; PAGE_SIZE]);
            page[..chunk.len()].copy_from_slice(chunk);
            crate::page::set_page_class(&mut page, class);
            self.backend.write(id, &page)?;
            // A reclaimed page keeps no frame, but drop a stale one
            // defensively.
            self.frames.remove(&id);
        }
        Ok(first)
    }

    /// Hand page `id` to the free extents (the reclaimer calls this for
    /// each page it zero-filled, so a later chain may overwrite it).
    pub(crate) fn release(&mut self, id: PageId) {
        let before = self.free.range(..=id).next_back().map(|(&s, &l)| (s, l));
        let (start, len) = match before {
            Some((s, l)) if s + l > id => return,
            Some((s, l)) if s + l == id => (s, l + 1),
            _ => (id, 1),
        };
        let after = self.free.remove(&(id + 1)).unwrap_or(0);
        self.free.insert(start, len + after);
    }

    /// Pages in the free extents.
    pub fn free_pages(&self) -> u64 {
        self.free.values().map(|&len| u64::from(len)).sum()
    }

    /// Drop every dirty frame without writing it back (transaction
    /// rollback: the backend still holds the last committed images).
    pub fn discard_dirty(&mut self) {
        self.frames.retain(|_, f| !f.dirty);
    }

    /// Re-admit `image` as a dirty resident frame. Used by rollback under
    /// a deferred checkpoint: committed page images that have not been
    /// checkpointed to the backend yet must survive `discard_dirty` and
    /// stay dirty so a later checkpoint still writes them.
    pub fn restore_dirty(&mut self, id: PageId, image: &[u8; PAGE_SIZE]) {
        if let Some(f) = self.frames.get_mut(&id) {
            f.data.copy_from_slice(image);
            f.dirty = true;
            f.referenced = true;
            return;
        }
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(image);
        self.admit(
            id,
            Frame {
                data,
                dirty: true,
                referenced: true,
            },
        );
    }

    /// Write raw bytes straight to the backend and drop any resident
    /// frame. Used by the page reclaimer to retire garbage pages; unlike
    /// [`BufferPool::write_through`] the frame is dropped, not updated —
    /// the page is dead to this store.
    pub fn backend_write(&mut self, id: PageId, data: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        self.backend.write(id, data)?;
        self.frames.remove(&id);
        Ok(())
    }

    /// Write back every dirty frame: [`BufferPool::flush_from`] page 0.
    pub fn flush(&mut self) -> StoreResult<()> {
        self.flush_from(0)
    }

    /// Write back every dirty frame at or past `first`, in ascending page
    /// order (the backend write sequence stays deterministic for fault
    /// schedules), then issue a durability barrier. A frame turns clean
    /// only once the barrier returns: if it fails, the device may have
    /// dropped the writes, and the still-dirty images are what the next
    /// commit writes again. The commit protocol passes the published page
    /// count: the fresh pages past it go in place, unjournaled.
    pub fn flush_from(&mut self, first: PageId) -> StoreResult<()> {
        let mut dirty = self.dirty_pages();
        dirty.retain(|&id| id >= first);
        for &id in &dirty {
            self.backend.write(id, &self.frames[&id].data)?;
            self.stats.writebacks += 1;
        }
        self.backend.sync()?;
        for id in dirty {
            if let Some(f) = self.frames.get_mut(&id) {
                f.dirty = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_pager_roundtrip() {
        let mut p = MemPager::new();
        let a = p.allocate().unwrap();
        let mut buf = [7u8; PAGE_SIZE];
        p.write(a, &buf).unwrap();
        buf = [0u8; PAGE_SIZE];
        p.read(a, &mut buf).unwrap();
        assert_eq!(buf[100], 7);
        assert!(p.read(99, &mut buf).is_err());
    }

    #[test]
    fn shared_mem_pager_survives_drop() {
        let keep = SharedMemPager::new();
        {
            let mut handle = keep.clone();
            let a = handle.allocate().unwrap();
            handle.write(a, &[3u8; PAGE_SIZE]).unwrap();
        }
        let mut buf = [0u8; PAGE_SIZE];
        keep.clone().read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 3);
        let snap = keep.snapshot();
        let restored = SharedMemPager::from_snapshot(&snap);
        let mut buf2 = [0u8; PAGE_SIZE];
        restored.clone().read(0, &mut buf2).unwrap();
        assert_eq!(buf2[..], buf[..]);
    }

    #[test]
    fn file_pager_roundtrip() {
        let dir = std::env::temp_dir().join(format!("natix-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        {
            let mut p = FilePager::create(&path).unwrap();
            let a = p.allocate().unwrap();
            let b = p.allocate().unwrap();
            p.write(a, &[1u8; PAGE_SIZE]).unwrap();
            p.write(b, &[2u8; PAGE_SIZE]).unwrap();
        }
        {
            let mut p = FilePager::open(&path).unwrap();
            assert_eq!(p.page_count(), 2);
            let mut buf = [0u8; PAGE_SIZE];
            p.read(1, &mut buf).unwrap();
            assert_eq!(buf[0], 2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn io_error_carries_page_context() {
        let mut pager = FaultInjectingPager::new(
            Box::new(MemPager::new()),
            FaultSchedule::power_cut(1, false),
        );
        let err = pager.allocate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("page 0"), "{msg}");
        assert!(msg.contains("offset 0"), "{msg}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn buffer_pool_hits_and_misses() {
        let mut pool = BufferPool::new(Box::new(MemPager::new()), 2);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        pool.with_page(a, true, |p| p[0] = 42).unwrap();
        assert_eq!(pool.stats().misses, 0);
        let v = pool.with_page(a, false, |p| p[0]).unwrap();
        assert_eq!(v, 42);
        assert!(pool.stats().hits >= 1);
        // Dirty frames are never evicted: flush first, then a third page
        // pushes a clean frame out.
        pool.flush().unwrap();
        let c = pool.allocate().unwrap();
        pool.with_page(c, true, |p| p[0] = 1).unwrap();
        assert!(pool.stats().evictions >= 1);
        // The page still reads back (from the backend after eviction).
        let v = pool.with_page(a, false, |p| p[0]).unwrap();
        assert_eq!(v, 42);
        let _ = b;
    }

    #[test]
    fn dirty_frames_survive_eviction_pressure() {
        let mut pool = BufferPool::new(Box::new(MemPager::new()), 2);
        // Three dirty pages in a capacity-2 pool: nothing may reach the
        // backend before flush.
        let ids: Vec<_> = (0..3).map(|_| pool.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page(id, true, |p| p[0] = i as u8 + 1).unwrap();
        }
        assert_eq!(pool.stats().writebacks, 0);
        assert_eq!(pool.dirty_pages(), ids);
        pool.flush().unwrap();
        assert_eq!(pool.stats().writebacks, 3);
        assert!(pool.dirty_pages().is_empty());
    }

    #[test]
    fn flush_writes_dirty_pages() {
        let mut pool = BufferPool::new(Box::new(MemPager::new()), 4);
        let a = pool.allocate().unwrap();
        pool.with_page(a, true, |p| p[7] = 9).unwrap();
        pool.flush().unwrap();
        assert!(pool.stats().writebacks >= 1);
    }

    #[test]
    fn fault_schedule_reproducible_from_seed() {
        for seed in 0..200u64 {
            let a = FaultSchedule::from_seed(seed, 40);
            let b = FaultSchedule::from_seed(seed, 40);
            assert_eq!(a, b, "seed {seed}");
        }
        // And distinct seeds actually vary the schedule.
        let distinct: std::collections::HashSet<String> = (0..200u64)
            .map(|s| FaultSchedule::from_seed(s, 40).to_string())
            .collect();
        assert!(distinct.len() > 20, "only {} schedules", distinct.len());
    }

    #[test]
    fn fault_injection_is_byte_reproducible() {
        // Same seed ⇒ identical surviving bytes after the crash.
        let run = |seed: u64| -> Vec<u8> {
            let disk = SharedMemPager::new();
            let mut pager = FaultInjectingPager::new(
                Box::new(disk.clone()),
                FaultSchedule::from_seed(seed, 12),
            );
            for i in 0..16u8 {
                if pager.allocate().is_err() {
                    break;
                }
                if pager.write(i as u32, &[i; PAGE_SIZE]).is_err() {
                    break;
                }
            }
            disk.snapshot()
        };
        for seed in [1u64, 7, 42, 0xDEAD] {
            assert_eq!(run(seed), run(seed), "seed {seed}");
        }
    }

    #[test]
    fn torn_write_applies_half_a_page() {
        let disk = SharedMemPager::new();
        let mut pager =
            FaultInjectingPager::new(Box::new(disk.clone()), FaultSchedule::power_cut(3, true));
        pager.allocate().unwrap(); // write event 1
        pager.write(0, &[1u8; PAGE_SIZE]).unwrap(); // event 2
        let err = pager.write(0, &[2u8; PAGE_SIZE]).unwrap_err(); // event 3: torn
        assert!(err.to_string().contains("torn"), "{err}");
        let mut buf = [0u8; PAGE_SIZE];
        disk.clone().read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 2, "first half has the new bytes");
        assert_eq!(buf[PAGE_SIZE / 2], 1, "second half kept the old bytes");
        // Everything after the cut fails.
        assert!(pager.write(0, &[3u8; PAGE_SIZE]).is_err());
        assert!(pager.read(0, &mut buf).is_err());
        assert!(pager.allocate().is_err());
    }

    #[test]
    fn checksumming_pager_detects_bit_rot() {
        let disk = SharedMemPager::new();
        let mut pager = ChecksummingPager::new(Box::new(disk.clone()));
        let id = pager.allocate().unwrap();
        let mut page = Box::new([0u8; PAGE_SIZE]);
        page[17] = 5;
        crate::page::set_page_class(&mut page, PageClass::Record);
        pager.write(id, &page).unwrap();
        // Clean read passes and returns the payload.
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        pager.read(id, &mut buf).unwrap();
        assert_eq!(buf[17], 5);
        assert_eq!(page_class_of(&buf), PageClass::Record);
        // Rot a payload bit on the raw disk: the read must fail loudly.
        let rotted = inject_bit_rot(&mut disk.clone(), 7, 1, 1).unwrap();
        assert_eq!(rotted, vec![id]);
        let err = pager.read(id, &mut buf).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        let msg = err.to_string();
        assert!(msg.contains(&format!("page {id}")), "{msg}");
    }

    #[test]
    fn checksumming_pager_detects_torn_writes() {
        let disk = SharedMemPager::new();
        {
            let fault =
                FaultInjectingPager::new(Box::new(disk.clone()), FaultSchedule::power_cut(3, true));
            let mut pager = ChecksummingPager::new(Box::new(fault));
            let id = pager.allocate().unwrap();
            let mut old = Box::new([1u8; PAGE_SIZE]);
            crate::page::set_page_class(&mut old, PageClass::Record);
            pager.write(id, &old).unwrap();
            let mut new = Box::new([2u8; PAGE_SIZE]);
            crate::page::set_page_class(&mut new, PageClass::Record);
            assert!(pager.write(id, &new).is_err()); // torn, then dead
        }
        // The torn page fails checksum verification on reopen.
        let mut pager = ChecksummingPager::new(Box::new(disk));
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        let err = pager.read(0, &mut buf).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn targeted_class_corruption_hits_the_right_pages() {
        let disk = SharedMemPager::new();
        let mut pager = ChecksummingPager::new(Box::new(disk.clone()));
        for class in [PageClass::Record, PageClass::Catalog] {
            let id = pager.allocate().unwrap();
            let mut page = Box::new([9u8; PAGE_SIZE]);
            crate::page::set_page_class(&mut page, class);
            pager.write(id, &page).unwrap();
        }
        // No journal pages exist.
        assert_eq!(
            corrupt_page_of_class(&mut disk.clone(), 3, PageClass::Journal, 2).unwrap(),
            None
        );
        let hit = corrupt_page_of_class(&mut disk.clone(), 3, PageClass::Catalog, 2)
            .unwrap()
            .unwrap();
        assert_eq!(hit, 1);
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        assert!(pager.read(1, &mut buf).is_err());
        pager.read(0, &mut buf).unwrap();
        // Checksum-field corruption leaves the payload intact but still
        // fails verification.
        let hit = corrupt_checksum_of_class(&mut disk.clone(), 5, PageClass::Record)
            .unwrap()
            .unwrap();
        assert_eq!(hit, 0);
        let err = pager.read(0, &mut buf).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn error_classifiers_partition_the_error_space() {
        assert!(StoreError::corrupt("x").is_corruption());
        assert!(StoreError::BadPage(3).is_corruption());
        assert!(StoreError::BadRecord(3).is_corruption());
        assert_eq!(StoreError::corrupt("x").category(), ErrorCategory::Corrupt);
        assert!(!StoreError::InvalidUpdate("no").is_corruption());
        // Every I/O kind but a full disk is one class: the operation
        // failed, typed, and nothing above retries it.
        for kind in [
            std::io::ErrorKind::Interrupted,
            std::io::ErrorKind::Other,
            std::io::ErrorKind::BrokenPipe,
            std::io::ErrorKind::NotFound,
        ] {
            let e = StoreError::io_at(injected(kind, "boom"), 4, "write");
            assert_eq!(e.category(), ErrorCategory::Io, "{kind:?}");
            assert!(!e.is_resource(), "{kind:?} must not be resource-class");
            assert!(!e.is_corruption() && !e.is_overload(), "{kind:?}");
        }
        // Resource exhaustion is its own class: space frees up without
        // operator action, so the store degrades instead of failing.
        let full = StoreError::io_at(
            injected(std::io::ErrorKind::StorageFull, "disk full"),
            4,
            "write",
        );
        assert!(full.is_resource(), "{full}");
        assert!(!full.is_corruption() && !full.is_overload());
        assert_eq!(full.category(), ErrorCategory::Io);
        // The degraded mode it induces is shed-class with a long hint.
        let ro = StoreError::ReadOnly {
            reason: "disk full",
        };
        assert!(ro.is_resource() && !ro.is_corruption());
        assert_eq!(ro.category(), ErrorCategory::Shed);
        assert_eq!(ro.retry_after_hint_ms(), Some(READ_ONLY_RETRY_HINT_MS));
        assert!(ro.retry_after_hint_ms().unwrap() > 50, "{ro}");
        assert!(ro.to_string().contains("read-only"), "{ro}");
        // Load shedding is neither corruption nor an I/O failure.
        let shed = StoreError::Overloaded {
            what: "read",
            inflight: 8,
            limit: 8,
        };
        assert!(shed.is_overload() && !shed.is_corruption());
        assert_eq!(shed.category(), ErrorCategory::Shed);
        assert!(shed.to_string().contains("8 in flight"), "{shed}");
        // Display carries full context.
        let e = StoreError::checksum_mismatch(7, PageClass::Record, 1, 2);
        let msg = e.in_record(12).to_string();
        assert!(msg.contains("page 7"), "{msg}");
        assert!(msg.contains("record 12"), "{msg}");
        assert!(msg.contains("class record"), "{msg}");
    }

    #[test]
    fn storage_full_fault_fails_the_window_then_recovers() {
        // storage_full(2, 3): write events 2, 3, 4 are refused with a
        // resource-class error, event 5 succeeds; reads work throughout.
        let mut pager =
            FaultInjectingPager::new(Box::new(MemPager::new()), FaultSchedule::storage_full(2, 3));
        pager.allocate().unwrap(); // event 1
        let mut buf = [0u8; PAGE_SIZE];
        for event in 2..=4u64 {
            let err = pager.write(0, &[7u8; PAGE_SIZE]).unwrap_err();
            assert!(err.is_resource(), "event {event}: {err}");
            // A full disk still serves what it holds.
            pager.read(0, &mut buf).unwrap();
        }
        pager.write(0, &[7u8; PAGE_SIZE]).unwrap(); // event 5: recovered
        pager.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
        assert!(!pager.is_dead());
        assert_eq!(
            FaultSchedule::storage_full(2, 3).to_string(),
            "storage-full@2x3"
        );
    }

    #[test]
    fn transient_write_error_then_recovers() {
        let mut pager =
            FaultInjectingPager::new(Box::new(MemPager::new()), FaultSchedule::write_error(2));
        pager.allocate().unwrap(); // event 1
        let err = pager.write(0, &[9u8; PAGE_SIZE]).unwrap_err(); // event 2 fails
        assert!(err.to_string().contains("write error"), "{err}");
        // Transient: the next write goes through.
        pager.write(0, &[9u8; PAGE_SIZE]).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        pager.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
    }

    #[test]
    fn sync_error_drops_the_writes_since_the_last_good_sync() {
        let disk = SharedMemPager::new();
        let mut pager =
            FaultInjectingPager::new(Box::new(disk.clone()), FaultSchedule::sync_error(2));
        pager.allocate().unwrap();
        pager.write(0, &[1u8; PAGE_SIZE]).unwrap();
        pager.sync().unwrap(); // sync 1: page 0 holds 1s
        pager.write(0, &[2u8; PAGE_SIZE]).unwrap();
        pager.write(0, &[3u8; PAGE_SIZE]).unwrap();
        let fresh = pager.allocate().unwrap();
        pager.write(fresh, &[4u8; PAGE_SIZE]).unwrap();
        let err = pager.sync().unwrap_err(); // sync 2 fails
        assert_eq!(err.category(), ErrorCategory::Io, "{err}");
        let mut buf = [0u8; PAGE_SIZE];
        disk.clone().read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "page 0 is back at its last synced image");
        disk.clone().read(fresh, &mut buf).unwrap();
        assert_eq!(buf[0], 0, "a page allocated since stays, zero-filled");
        // One-shot: the device keeps working and later barriers hold.
        pager.write(0, &[5u8; PAGE_SIZE]).unwrap();
        pager.sync().unwrap();
        disk.clone().read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 5);
        assert_eq!(FaultSchedule::sync_error(2).to_string(), "sync-error@2");
    }
}
