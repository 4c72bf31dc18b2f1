//! Concurrent store access: snapshot-isolated readers over a single
//! serialized writer.
//!
//! The epoch ping-pong headers that make commits atomic (see
//! `store::XmlStore::commit`) are an MVCC primitive in disguise, and this
//! module cashes that in:
//!
//! * **Snapshot reads** — [`SharedStore::begin_read`] pins the current
//!   committed epoch and hands out a [`Snapshot`]: a read-only
//!   [`XmlStore`] over its *own* pager (from the [`PagerFactory`]), the
//!   pinned catalog served from memory and the pending journal's page
//!   images overlaid above the checksum layer. While any pin is held the
//!   writer defers checkpoints, so the backend only ever sees chains
//!   written to fresh or reclaimed pages plus header-slot writes — no
//!   page a snapshot references is ever overwritten. It is exactly
//!   [`SharedStore::pin_read`] (take
//!   the pin and a [`SnapshotSeed`] on the writer's thread) followed by
//!   [`SnapshotSeed::open`]; the seed is `Send`, so a server opens and
//!   evaluates the view on another thread and hands the pin back with
//!   [`SharedStore::release_read`].
//! * **One serialized writer** — [`SharedStore::begin_write`] grants the
//!   single [`WriteGuard`]; a second request is shed with
//!   [`StoreError::Overloaded`]. Mutations run the ordinary journal
//!   commit path.
//! * **Pin-aware reclamation** — superseded catalog/journal chains are
//!   retired at the epoch that replaced them and zero-filled only when
//!   (a) no reader pins an epoch at or below the retirement epoch and
//!   (b) a later epoch has been published, so neither header slot still
//!   references the chain. Freed pages are checked against every pinned
//!   snapshot's reachable-page set; a hit is counted in
//!   [`ConcurrencyStats::pinned_free_violations`] (and the page kept) —
//!   the chaos harness asserts this counter stays zero. A zero-filled
//!   page joins the pool's free extents, where the next catalog or
//!   journal chain that fits overwrites it: reuse is exactly as safe as
//!   the zero-fill that came first.
//! * **Admission control** — bounded in-flight reads
//!   ([`AdmissionConfig::max_inflight_reads`]); the next read is shed
//!   with [`StoreError::Overloaded`] and retried by its caller. No read
//!   is ever evaluated without a pin: an unpinned view would race the
//!   checkpoint that rewrites its pages in place.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use natix_xml::Document;

use crate::catalog::{self, decode_catalog, Header};
use crate::fsck::{fsck, FsckReport};
use crate::journal::{self, JournalEntry};
use crate::page::{set_page_class, PageClass, PAGE_SIZE};
use crate::pager::{
    read_chunked, BufferPool, ChecksummingPager, PageId, Pager, StoreError, StoreResult,
};
use crate::store::{Overlay, StoreConfig, XmlStore};

/// Opens fresh [`Pager`] handles over the same underlying pages, one per
/// snapshot reader. [`crate::SharedMemPager`] implements it by cloning
/// itself; file-backed stores implement it by reopening the path.
pub trait PagerFactory {
    /// A new independent pager over the shared backing pages.
    fn open_pager(&self) -> StoreResult<Box<dyn Pager>>;
}

impl PagerFactory for crate::SharedMemPager {
    fn open_pager(&self) -> StoreResult<Box<dyn Pager>> {
        Ok(Box::new(self.clone()))
    }
}

impl PagerFactory for std::path::PathBuf {
    fn open_pager(&self) -> StoreResult<Box<dyn Pager>> {
        Ok(Box::new(crate::FilePager::open(self)?))
    }
}

/// Admission-control limits for a [`SharedStore`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Snapshot readers allowed in flight at once; the next
    /// [`SharedStore::begin_read`] is shed with
    /// [`StoreError::Overloaded`].
    pub max_inflight_reads: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight_reads: 64,
        }
    }
}

/// Counters kept by a [`SharedStore`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ConcurrencyStats {
    /// Snapshots handed out.
    pub snapshots_opened: u64,
    /// Snapshots currently holding an epoch pin.
    pub snapshots_active: u32,
    /// Reads shed by the in-flight limit.
    pub reads_shed: u64,
    /// `begin_write` calls rejected because the writer was taken.
    pub writer_conflicts: u64,
    /// Committed write operations.
    pub commits: u64,
    /// Commits whose checkpoint was deferred because readers held pins.
    pub checkpoints_deferred: u64,
    /// Deferred checkpoints applied after the pins drained.
    pub checkpoints_applied: u64,
    /// Garbage pages zero-filled by the reclaimer.
    pub pages_reclaimed: u64,
    /// Reclamation rounds that left garbage in place because of pins.
    pub reclaim_blocked_by_pins: u64,
    /// Garbage pages found inside a pinned snapshot's reachable set (the
    /// reclaimer skips them; must stay zero).
    pub pinned_free_violations: u64,
    /// Checkpoint/reclaim failures from deferred maintenance (the commit
    /// itself was durable; a failed checkpoint stays pending and runs
    /// again at the next opportunity).
    pub maintenance_errors: u64,
    /// Group commits published (each one journal write + one header flip
    /// covering every staged op of a [`WriteGuard::mutate_batch`]).
    pub group_commits: u64,
    /// Operations staged and acknowledged through group commits.
    pub batched_ops: u64,
    /// Times the store entered read-only degraded mode (a resource-class
    /// commit failure, e.g. a full disk, rolled the write back).
    pub read_only_entered: u64,
    /// Times the space probe saw the backend recover and re-enabled
    /// writes.
    pub read_only_recovered: u64,
}

/// Committed-state size counters from [`SharedStore::storage_stats`].
#[derive(Debug, Clone, Copy)]
pub struct StorageStats {
    /// Epoch of the committed state the counters describe.
    pub epoch: u64,
    /// Records reachable from the committed catalog.
    pub live_records: usize,
    /// Pages allocated in the backing file.
    pub pages: u32,
    /// Bytes occupied by allocated pages.
    pub occupied_bytes: u64,
    /// Reclaimed pages waiting in the free extents for a new chain.
    pub free_pages: u64,
    /// Pages of superseded catalog/journal chains awaiting reclamation —
    /// the backlog pins keep alive. Bounded in healthy operation; a
    /// number that only grows means a pin is stuck (e.g. a leaked
    /// session).
    pub reclaim_backlog_pages: u64,
}

/// A superseded catalog/journal chain awaiting reclamation.
struct GarbageSet {
    /// Epoch whose publication made the chain unreferenced.
    retired_epoch: u64,
    pages: Vec<PageId>,
}

/// A deferred release from a [`Snapshot`]/[`WriteGuard`] drop that could
/// not lock the shared state (dropped inside a writer callback).
enum Release {
    Pin(u64),
    Writer,
}

struct PinInfo {
    epoch: u64,
    /// Every backend page the snapshot may read (see
    /// [`Inner::reachable`]).
    pages: Arc<HashSet<PageId>>,
}

struct Inner {
    store: XmlStore,
    factory: Box<dyn PagerFactory>,
    config: StoreConfig,
    admission: AdmissionConfig,
    /// Pinned epochs → pin count.
    pins: BTreeMap<u64, u32>,
    pinned: HashMap<u64, PinInfo>,
    next_pin: u64,
    writer_active: bool,
    /// `Some(reason)` while the store is in read-only degraded mode: a
    /// resource-class failure (disk full) rolled the in-flight commit
    /// back, reads keep serving, and writes answer
    /// [`StoreError::ReadOnly`] until the space probe clears it.
    read_only: Option<&'static str>,
    garbage: Vec<GarbageSet>,
    /// Reachable-page set of the committed state, keyed by its epoch
    /// (every commit and every checkpoint publishes a new one).
    reachable: Option<(u64, Arc<HashSet<PageId>>)>,
    stats: ConcurrencyStats,
}

/// Shared, clonable handle over one store: many snapshot-isolated
/// readers, one serialized writer. See the module docs for the protocol.
///
/// Handles are `Rc`-based and single-threaded (like every pager in this
/// crate); "concurrent" means interleaved logical readers and writers
/// with snapshot isolation, which the deterministic chaos scheduler in
/// `natix-testkit` drives through every interleaving a thread scheduler
/// could produce at commit granularity. The one thing that crosses
/// threads is a [`SnapshotSeed`].
pub struct SharedStore {
    inner: Rc<RefCell<Inner>>,
    releases: Rc<RefCell<Vec<Release>>>,
}

impl Clone for SharedStore {
    fn clone(&self) -> Self {
        SharedStore {
            inner: Rc::clone(&self.inner),
            releases: Rc::clone(&self.releases),
        }
    }
}

impl SharedStore {
    /// Wrap an already-open writer store. `factory` must open pagers over
    /// the *same* backing pages as the store's own backend (e.g. clones
    /// of the same [`crate::SharedMemPager`]); snapshot readers use it
    /// for their independent read paths.
    pub fn new(
        mut store: XmlStore,
        factory: Box<dyn PagerFactory>,
        config: StoreConfig,
        admission: AdmissionConfig,
    ) -> SharedStore {
        store.defer_checkpoint = true;
        SharedStore {
            inner: Rc::new(RefCell::new(Inner {
                store,
                factory,
                config,
                admission,
                pins: BTreeMap::new(),
                pinned: HashMap::new(),
                next_pin: 0,
                writer_active: false,
                read_only: None,
                garbage: Vec::new(),
                reachable: None,
                stats: ConcurrencyStats::default(),
            })),
            releases: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Open the store on `backend` (running crash recovery if needed) and
    /// share it. `factory` must reach the same backing pages.
    pub fn open(
        backend: Box<dyn Pager>,
        factory: Box<dyn PagerFactory>,
        config: StoreConfig,
        admission: AdmissionConfig,
    ) -> StoreResult<SharedStore> {
        let store = XmlStore::open(backend, config)?;
        Ok(SharedStore::new(store, factory, config, admission))
    }

    /// Epoch of the current committed state.
    pub fn committed_epoch(&self) -> u64 {
        self.inner.borrow().store.current_epoch()
    }

    /// Counters so far.
    pub fn stats(&self) -> ConcurrencyStats {
        self.process_releases();
        self.inner.borrow().stats
    }

    /// Buffer-pool counters of the writer store's pool (snapshot pools
    /// are per-reader and die with their snapshot).
    pub fn buffer_stats(&self) -> crate::pager::BufferStats {
        self.inner.borrow().store.buffer_stats()
    }

    /// Size/shape counters of the committed store state, read off the
    /// writer's in-memory catalog without opening a snapshot (so a stats
    /// probe never competes with readers for admission slots).
    pub fn storage_stats(&self) -> StorageStats {
        let inner = self.inner.borrow();
        StorageStats {
            epoch: inner.store.current_epoch(),
            live_records: inner.store.live_record_count(),
            pages: inner.store.page_count(),
            occupied_bytes: inner.store.occupied_bytes(),
            free_pages: inner.store.pool.free_pages(),
            reclaim_backlog_pages: inner.garbage.iter().map(|g| g.pages.len() as u64).sum(),
        }
    }

    /// `Some(reason)` while the store is in read-only degraded mode
    /// (writes refused, reads still served). Cleared by the space probe
    /// once the backend accepts writes again.
    pub fn read_only_reason(&self) -> Option<&'static str> {
        self.inner.borrow().read_only
    }

    /// Pin the current committed epoch and return a read-only snapshot
    /// over it, or shed the request with [`StoreError::Overloaded`] when
    /// [`AdmissionConfig::max_inflight_reads`] snapshots are in flight.
    pub fn begin_read(&self) -> StoreResult<Snapshot> {
        let (pin_id, seed) = self.pin_read()?;
        let opened = self
            .inner
            .borrow()
            .factory
            .open_pager()
            .and_then(|raw| seed.open(raw));
        match opened {
            Ok(store) => Ok(Snapshot {
                store,
                shared: self.clone(),
                pin_id,
                released: false,
            }),
            Err(e) => {
                self.release_read(pin_id);
                Err(e)
            }
        }
    }

    /// The writer-thread half of [`SharedStore::begin_read`]: admission,
    /// the epoch pin, and the seed of the pinned state. The caller owes
    /// one [`SharedStore::release_read`] for the returned pin id, after
    /// every view opened from the seed is done reading.
    pub fn pin_read(&self) -> StoreResult<(u64, SnapshotSeed)> {
        self.process_releases();
        let mut inner = self.inner.borrow_mut();
        let limit = inner.admission.max_inflight_reads;
        let active = inner.stats.snapshots_active;
        if active >= limit {
            inner.stats.reads_shed += 1;
            return Err(StoreError::Overloaded {
                what: "read",
                inflight: active,
                limit,
            });
        }
        let seed = inner.seed();
        let epoch = seed.epoch();
        let pages = inner.reachable()?;
        let pin_id = inner.next_pin;
        inner.next_pin += 1;
        *inner.pins.entry(epoch).or_insert(0) += 1;
        inner.pinned.insert(pin_id, PinInfo { epoch, pages });
        inner.stats.snapshots_opened += 1;
        inner.stats.snapshots_active += 1;
        Ok((pin_id, seed))
    }

    /// Give back a pin taken by [`SharedStore::pin_read`]. May run the
    /// deferred checkpoint and reclamation the pin was holding up.
    pub fn release_read(&self, pin_id: u64) {
        self.release(Release::Pin(pin_id));
    }

    /// Claim the single writer slot. A second claim while a
    /// [`WriteGuard`] is alive is shed with [`StoreError::Overloaded`];
    /// while the store is read-only degraded the claim is refused with
    /// [`StoreError::ReadOnly`] (after one space-probe attempt, so
    /// recovery needs no separate maintenance call).
    pub fn begin_write(&self) -> StoreResult<WriteGuard> {
        self.process_releases();
        let mut inner = self.inner.borrow_mut();
        if inner.read_only.is_some() {
            inner.space_probe();
        }
        if let Some(reason) = inner.read_only {
            return Err(StoreError::ReadOnly { reason });
        }
        if inner.writer_active {
            inner.stats.writer_conflicts += 1;
            return Err(StoreError::Overloaded {
                what: "write",
                inflight: 1,
                limit: 1,
            });
        }
        inner.writer_active = true;
        Ok(WriteGuard {
            shared: self.clone(),
        })
    }

    /// Run deferred maintenance now: apply a pending checkpoint if every
    /// pin has drained, then reclaim retired pages the pin/epoch gates
    /// allow. Called automatically after writes and snapshot releases;
    /// exposed for deterministic tests and shutdown paths.
    pub fn maintain(&self) -> StoreResult<()> {
        self.process_releases();
        self.inner.borrow_mut().maintain()
    }

    /// Scrub the shared backing pages (read-only fsck over fresh pagers
    /// from the factory). Safe to run concurrently with readers and the
    /// writer: committed state plus pending journal is always consistent
    /// on the backend.
    pub fn scrub(&self) -> FsckReport {
        fsck(self.inner.borrow().factory.as_ref(), false)
    }

    /// Apply queued pin/writer releases (from guards dropped while the
    /// shared state was locked) if the state is lockable right now.
    fn process_releases(&self) {
        let pending: Vec<Release> = {
            let mut q = self.releases.borrow_mut();
            if q.is_empty() {
                return;
            }
            q.drain(..).collect()
        };
        match self.inner.try_borrow_mut() {
            Ok(mut inner) => {
                for r in pending {
                    inner.apply_release(r);
                }
            }
            Err(_) => self.releases.borrow_mut().extend(pending),
        }
    }

    /// Queue a release and apply it immediately when possible.
    fn release(&self, r: Release) {
        self.releases.borrow_mut().push(r);
        self.process_releases();
        // Opportunistic maintenance: the last reader leaving is what
        // unblocks deferred checkpoints and reclamation.
        if let Ok(mut inner) = self.inner.try_borrow_mut() {
            if let Err(_e) = inner.maintain() {
                inner.stats.maintenance_errors += 1;
            }
        }
    }
}

impl Inner {
    /// Seed of the current committed state: header, catalog bytes and
    /// pending-journal page images, all shared with the writer's memory.
    fn seed(&self) -> SnapshotSeed {
        SnapshotSeed {
            header: self.store.committed_header(),
            catalog_bytes: Arc::clone(&self.store.committed_catalog_bytes),
            overlay: Arc::clone(&self.store.committed_overlay),
            config: self.config,
        }
    }

    /// Every backend page a snapshot of the committed state may read
    /// ([`catalog::referenced`]; overlay images shadow some of them, they
    /// add none). Walked once per committed epoch, then shared by every
    /// pin of that epoch.
    fn reachable(&mut self) -> StoreResult<Arc<HashSet<PageId>>> {
        let header = self.store.committed_header();
        if let Some((epoch, pages)) = &self.reachable {
            if *epoch == header.epoch {
                return Ok(Arc::clone(pages));
            }
        }
        let cat = decode_catalog(&self.store.committed_catalog_bytes)?;
        let pages = Arc::new(
            catalog::referenced(&header, &cat.directory)
                .into_keys()
                .collect(),
        );
        self.reachable = Some((header.epoch, Arc::clone(&pages)));
        Ok(pages)
    }

    fn apply_release(&mut self, r: Release) {
        match r {
            Release::Pin(pin_id) => {
                let Some(info) = self.pinned.remove(&pin_id) else {
                    return;
                };
                if let Some(n) = self.pins.get_mut(&info.epoch) {
                    *n -= 1;
                    if *n == 0 {
                        self.pins.remove(&info.epoch);
                    }
                }
                self.stats.snapshots_active = self.stats.snapshots_active.saturating_sub(1);
            }
            Release::Writer => self.writer_active = false,
        }
    }

    /// The committed header superseded `before`: the chains `before`
    /// named and the new header does not wait for reclamation from the
    /// new epoch on. After a commit that is the previous catalog and any
    /// previous journal (every image it held that is still
    /// uncheckpointed was journaled again); after a checkpoint, the
    /// replayed journal.
    fn retire(&mut self, before: &Header) {
        let now = self.store.committed_header();
        let kept = catalog::referenced(&now, &[]);
        let pages = catalog::referenced(before, &[])
            .into_keys()
            .filter(|p| !kept.contains_key(p))
            .collect();
        self.garbage.push(GarbageSet {
            retired_epoch: now.epoch,
            pages,
        });
    }

    /// When degraded, try one small backend write; success clears
    /// read-only mode. The probe costs one appended page per recovery
    /// (immediately retired as reclaimable garbage), and each failed
    /// probe is one write event on the backend — deterministic under the
    /// fault injector's event counting.
    fn space_probe(&mut self) {
        if self.read_only.is_none() {
            return;
        }
        let probe = (|| -> StoreResult<()> {
            let id = self.store.pool.allocate()?;
            let mut zero = Box::new([0u8; PAGE_SIZE]);
            set_page_class(&mut zero, PageClass::Free);
            self.store.pool.backend_write(id, &zero)?;
            Ok(())
        })();
        if probe.is_ok() {
            self.read_only = None;
            self.stats.read_only_recovered += 1;
        }
    }

    /// Enter read-only degraded mode (idempotent).
    fn enter_read_only(&mut self, reason: &'static str) {
        if self.read_only.is_none() {
            self.read_only = Some(reason);
            self.stats.read_only_entered += 1;
        }
    }

    /// Apply a pending checkpoint once pins drain, then reclaim garbage.
    fn maintain(&mut self) -> StoreResult<()> {
        if self.read_only.is_some() {
            self.space_probe();
            if self.read_only.is_some() {
                // Still full: checkpointing and reclamation both write,
                // so there is nothing useful to do yet.
                return Ok(());
            }
        }
        if self.pins.is_empty() && self.store.has_pending_checkpoint() {
            let before = self.store.committed_header();
            self.store.apply_pending_checkpoint()?;
            self.stats.checkpoints_applied += 1;
            // The checkpoint epoch's header is journal-free: the replayed
            // journal chain is garbage once the slot that referenced it
            // is overwritten (gated by retired_epoch in `reclaim`).
            self.retire(&before);
        }
        self.reclaim()
    }

    /// Zero-fill retired chains that are provably unreachable — a later
    /// epoch has been published (so neither header slot references the
    /// chain any more) and no reader pins an epoch at or below the
    /// retirement epoch — and hand their pages to the pool's free
    /// extents. Every page is additionally checked against all pinned
    /// snapshots' reachable sets; a hit is a reclaimer bug — counted,
    /// skipped, never freed.
    fn reclaim(&mut self) -> StoreResult<()> {
        if self.garbage.is_empty() {
            return Ok(());
        }
        let min_pin = self.pins.keys().next().copied().unwrap_or(u64::MAX);
        let epoch = self.store.current_epoch();
        let mut blocked = Vec::new();
        let mut free: Vec<PageId> = Vec::new();
        for set in self.garbage.drain(..) {
            if epoch > set.retired_epoch && min_pin >= set.retired_epoch {
                free.extend(set.pages);
            } else {
                blocked.push(set);
            }
        }
        if !blocked.is_empty() {
            self.stats.reclaim_blocked_by_pins += 1;
        }
        self.garbage = blocked;
        let mut zero = Box::new([0u8; PAGE_SIZE]);
        set_page_class(&mut zero, PageClass::Free);
        for id in free {
            if self.pinned.values().any(|p| p.pages.contains(&id)) {
                // Never free a page a live snapshot can reach.
                self.stats.pinned_free_violations += 1;
                continue;
            }
            // Through the pool's checksum layer: the freed page carries a
            // sealed Free-class frame, so scrubs see retired space, not
            // torn debris.
            self.store.pool.backend_write(id, &zero)?;
            self.store.pool.release(id);
            self.stats.pages_reclaimed += 1;
        }
        Ok(())
    }
}

/// Everything needed to open a read-only view of one committed epoch:
/// the pinned header, the catalog bytes and the pending journal's page
/// images (both shared with the writer, never copied) and config. Taken
/// on the writer's thread by
/// [`SharedStore::pin_read`] — or, for a page file no writer holds in
/// memory, read from it by `SnapshotSeed::from_disk`; `Send`, so
/// [`SnapshotSeed::open`] can run on whichever thread will do the reading.
#[derive(Clone)]
pub struct SnapshotSeed {
    header: Header,
    catalog_bytes: Arc<Vec<u8>>,
    pub(crate) overlay: Arc<Overlay>,
    config: StoreConfig,
}

impl SnapshotSeed {
    /// Seed of the committed state of the page file behind
    /// `raw`, without writing it: where [`XmlStore::open`] would replay a
    /// pending journal in place and publish a new header, its page
    /// images become the seed's overlay. (A replica reads its applied
    /// state this way; running recovery there would silently diverge
    /// from the primary.)
    pub(crate) fn from_disk(raw: Box<dyn Pager>, config: StoreConfig) -> StoreResult<Self> {
        let (header, mut checked) = catalog::open_verified(raw)?;
        let pending = journal::read_pending(&mut checked, &header)?;
        Self::read(header, pending, &mut checked, config)
    }

    /// Seed of the committed state `header` publishes, with
    /// `pending` — the journal's page images — as its overlay and its
    /// catalog read through `checked`.
    pub(crate) fn read(
        header: Header,
        pending: Vec<JournalEntry>,
        checked: &mut dyn Pager,
        config: StoreConfig,
    ) -> StoreResult<Self> {
        let catalog_bytes = read_chunked(
            checked,
            header.catalog_first_page,
            header.catalog_len as usize,
        )?;
        let overlay = pending
            .into_iter()
            .map(|(page, image)| (page, Arc::from(image)));
        Ok(SnapshotSeed {
            header,
            catalog_bytes: Arc::new(catalog_bytes),
            overlay: Arc::new(overlay.collect()),
            config,
        })
    }

    /// Epoch of the committed state the seed describes.
    pub fn epoch(&self) -> u64 {
        self.header.epoch
    }

    /// Build the read-only store and its own buffer pool over `raw`, a
    /// fresh pager on the backing pages the seed was taken from. Data
    /// pages come from `raw`; the catalog and the overlaid page images
    /// come from the seed.
    pub fn open(&self, raw: Box<dyn Pager>) -> StoreResult<XmlStore> {
        // The overlay sits *above* the checksum layer: journal images are
        // unsealed page payloads (sealing happens on write).
        let stacked = Box::new(OverlayPager {
            inner: Box::new(ChecksummingPager::new(raw)),
            overlay: Arc::clone(&self.overlay),
        });
        let pool = BufferPool::new(stacked, self.config.buffer_pages);
        let cat = catalog::decode_catalog(&self.catalog_bytes)?;
        let mut store =
            XmlStore::from_committed(pool, &self.header, Arc::clone(&self.catalog_bytes), cat);
        store.read_only = true;
        Ok(store)
    }
}

/// A pinned, read-only view of one committed epoch. Dropping the
/// snapshot releases the pin (and may trigger the deferred checkpoint
/// and reclamation).
pub struct Snapshot {
    store: XmlStore,
    shared: SharedStore,
    pin_id: u64,
    released: bool,
}

impl Snapshot {
    /// Epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.store.current_epoch()
    }

    /// The underlying read-only store, for navigation
    /// (`root`/`first_child`/…). Updates are rejected.
    pub fn store(&mut self) -> &mut XmlStore {
        &mut self.store
    }

    /// Strict full-document read of the pinned state.
    pub fn document(&mut self) -> StoreResult<Document> {
        self.store.to_document()
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        if !self.released {
            self.released = true;
            self.shared.release_read(self.pin_id);
        }
    }
}

/// One queued operation for [`WriteGuard::mutate_batch`].
pub type BatchOp<'a> = Box<dyn FnOnce(&mut XmlStore) -> StoreResult<()> + 'a>;

/// The single writer over a [`SharedStore`]. Mutations run through
/// [`WriteGuard::mutate`]; dropping the guard frees the writer slot.
pub struct WriteGuard {
    shared: SharedStore,
}

impl WriteGuard {
    /// Run `f` over the writer store (typically one
    /// `append_child`/`insert_before`/`delete_subtree` call, which
    /// commits internally). On a committed epoch advance the superseded
    /// catalog/journal chains are retired for reclamation, then deferred
    /// maintenance runs (checkpoint + reclaim when pins allow;
    /// maintenance failures are counted, not surfaced — the commit
    /// itself is already durable).
    pub fn mutate<T>(&mut self, f: impl FnOnce(&mut XmlStore) -> StoreResult<T>) -> StoreResult<T> {
        self.write(None, f)
    }

    /// Group commit: run every queued operation inside one store batch,
    /// then publish all of them under a *single* journal write and header
    /// flip (see [`XmlStore::begin_batch`]) — the amortization that makes
    /// many small commits cheap.
    ///
    /// Returns one durability ack per operation. `Ok(acks)` means the
    /// header flip happened: every op whose ack is `Ok(())` is durable,
    /// and crash recovery can only ever surface the whole acked batch or
    /// none of it — an exact prefix of the acks, never a partial batch.
    /// Ops with an `Err` ack were rejected (rolled back to the previous
    /// op's savepoint) and are not part of the committed state.
    /// `Err(_)` means the batch commit itself failed: *nothing* was
    /// acknowledged and the store rolled back (though, as with any
    /// commit, a failure after the flip can leave the post-state durable
    /// — the standard "pre or post" crash contract).
    pub fn mutate_batch(&mut self, ops: Vec<BatchOp<'_>>) -> StoreResult<Vec<StoreResult<()>>> {
        self.write(Some(ops.len() as u64), |store| {
            store.begin_batch()?;
            let acks = ops.into_iter().map(|op| op(store)).collect();
            store.commit_batch()?;
            Ok(acks)
        })
    }

    /// The one write-guard body: `f` runs on the writer store unless it
    /// is read-only; a committed epoch advance is counted (as a group
    /// commit of `batched` ops when given) and its superseded chains
    /// retired; a resource-class failure degrades the store to read-only;
    /// deferred maintenance runs last.
    fn write<T>(
        &mut self,
        batched: Option<u64>,
        f: impl FnOnce(&mut XmlStore) -> StoreResult<T>,
    ) -> StoreResult<T> {
        self.shared.process_releases();
        let r = {
            let mut inner = self.shared.inner.borrow_mut();
            let inner = &mut *inner;
            if let Some(reason) = inner.read_only {
                // The guard was claimed before the store degraded (or is
                // held across the transition): refuse before touching
                // the store.
                return Err(StoreError::ReadOnly { reason });
            }
            let before = inner.store.committed_header();
            let r = f(&mut inner.store);
            if inner.store.current_epoch() > before.epoch {
                inner.stats.commits += 1;
                if let Some(ops) = batched {
                    inner.stats.group_commits += 1;
                    inner.stats.batched_ops += ops;
                }
                if inner.store.has_pending_checkpoint() {
                    inner.stats.checkpoints_deferred += 1;
                }
                inner.retire(&before);
            }
            match r {
                // A resource-class failure (disk full) already rolled the
                // commit back inside the store; degrade to read-only and
                // answer with the typed long-back-off error.
                Err(e) if e.is_resource() => {
                    inner.enter_read_only("disk full");
                    Err(StoreError::ReadOnly {
                        reason: "disk full",
                    })
                }
                other => other,
            }
        };
        if let Err(_e) = self.shared.maintain() {
            self.shared.inner.borrow_mut().stats.maintenance_errors += 1;
        }
        r
    }
}

impl Drop for WriteGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Unwinding out of `mutate` leaves the writer store
            // mid-operation: free the slot, but run no maintenance, which
            // would checkpoint its dirty frames.
            self.shared.releases.borrow_mut().push(Release::Writer);
            return;
        }
        self.shared.release(Release::Writer);
    }
}

/// Read-only pager serving some pages from an in-memory overlay (the
/// pending journal's committed page images) and the rest from `inner`.
/// Writes are rejected: a snapshot must never touch the backend.
struct OverlayPager {
    inner: Box<dyn Pager>,
    overlay: Arc<Overlay>,
}

impl Pager for OverlayPager {
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn allocate(&mut self) -> StoreResult<PageId> {
        Err(StoreError::InvalidUpdate("snapshot is read-only"))
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        if let Some(p) = self.overlay.get(&id) {
            buf.copy_from_slice(&p[..]);
            return Ok(());
        }
        self.inner.read(id, buf)
    }

    fn write(&mut self, _id: PageId, _buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        Err(StoreError::InvalidUpdate("snapshot is read-only"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::page_class_of;
    use crate::pager::{MemPager, SharedMemPager};
    use crate::store::{bulkload_with, NodeRef};
    use natix_core::Ekm;
    use natix_xml::{parse, NodeKind};

    fn shared(xml: &str, k: u64, admission: AdmissionConfig) -> (SharedStore, SharedMemPager) {
        let doc = parse(xml).unwrap();
        let disk = SharedMemPager::new();
        let config = StoreConfig {
            record_limit_slots: k,
            ..Default::default()
        };
        let store = bulkload_with(&doc, &Ekm, k, Box::new(disk.clone()), config).unwrap();
        (
            SharedStore::new(store, Box::new(disk.clone()), config, admission),
            disk,
        )
    }

    fn xml_of(snap: &mut Snapshot) -> String {
        snap.document().unwrap().to_xml()
    }

    #[test]
    fn snapshot_survives_concurrent_writes() {
        let (shared, disk) = shared(
            "<list><e>one entry of text</e><e>two entry of text</e></list>",
            16,
            AdmissionConfig::default(),
        );
        let before = {
            let mut s = shared.begin_read().unwrap();
            xml_of(&mut s)
        };
        let mut pinned = shared.begin_read().unwrap();
        let mut writer = shared.begin_write().unwrap();
        for i in 0..4 {
            writer
                .mutate(|s| {
                    let root = s.root()?;
                    s.append_child(
                        root,
                        NodeKind::Text,
                        "#text",
                        Some(&format!("heavy appended payload {i}")),
                    )
                    .map(|_| ())
                })
                .unwrap();
        }
        // The pinned snapshot still reads its epoch's state, strictly.
        assert_eq!(xml_of(&mut pinned), before);
        // A fresh snapshot sees the new state.
        let mut fresh = shared.begin_read().unwrap();
        let after = xml_of(&mut fresh);
        assert_ne!(after, before);
        assert!(after.contains("heavy appended payload 3"));
        assert!(fresh.epoch() > pinned.epoch());
        // The backend scrubs clean mid-pin (checkpoint deferred).
        assert!(shared.stats().checkpoints_deferred > 0);
        let scrub = shared.scrub();
        assert!(scrub.clean(), "{scrub}");
        drop(pinned);
        drop(fresh);
        drop(writer);
        shared.maintain().unwrap();
        let stats = shared.stats();
        assert!(stats.checkpoints_applied > 0, "{stats:?}");
        assert!(stats.pages_reclaimed > 0, "{stats:?}");
        assert_eq!(stats.pinned_free_violations, 0, "{stats:?}");
        // After everything drains the disk reopens to the final state.
        drop(shared);
        let mut re = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
        re.check_consistency().unwrap();
        assert_eq!(re.to_document().unwrap().to_xml(), after);
        let scrub = fsck(&disk, false);
        assert!(scrub.clean(), "{scrub}");
    }

    #[test]
    fn snapshots_are_read_only() {
        let (shared, _disk) = shared("<a><b/></a>", 64, AdmissionConfig::default());
        let mut snap = shared.begin_read().unwrap();
        let root = snap.store().root().unwrap();
        let err = snap
            .store()
            .append_child(root, NodeKind::Element, "x", None)
            .unwrap_err();
        assert!(matches!(err, StoreError::InvalidUpdate(_)), "{err}");
    }

    #[test]
    fn admission_sheds_and_recovers() {
        let (shared, disk) = shared(
            "<a><b/></a>",
            64,
            AdmissionConfig {
                max_inflight_reads: 2,
            },
        );
        let s1 = shared.begin_read().unwrap();
        let _s2 = shared.begin_read().unwrap();
        let Err(err) = shared.begin_read() else {
            panic!("a third read is shed")
        };
        assert!(
            matches!(err, StoreError::Overloaded { what: "read", .. }),
            "{err}"
        );
        assert!(err.retry_after_hint_ms().unwrap() > 0, "{err}");
        assert!(matches!(shared.pin_read(), Err(e) if e.is_overload()));
        assert_eq!(shared.stats().snapshots_active, 2);
        drop(s1);
        // A slot freed: the retried read is admitted.
        let (pin_id, seed) = shared.pin_read().unwrap();
        let mut store = seed.open(Box::new(disk.clone())).unwrap();
        assert_eq!(store.to_document().unwrap().to_xml(), "<a><b/></a>");
        shared.release_read(pin_id);
        let stats = shared.stats();
        assert_eq!(stats.reads_shed, 2, "{stats:?}");
        assert_eq!(stats.snapshots_active, 1, "{stats:?}");
    }

    #[test]
    fn single_writer_is_enforced() {
        let (shared, _disk) = shared("<a><b/></a>", 64, AdmissionConfig::default());
        let w1 = shared.begin_write().unwrap();
        let Err(err) = shared.begin_write() else {
            panic!("a second writer is refused")
        };
        assert!(
            matches!(err, StoreError::Overloaded { what: "write", .. }),
            "{err}"
        );
        drop(w1);
        let _w2 = shared.begin_write().unwrap();
        assert_eq!(shared.stats().writer_conflicts, 1);
    }

    #[test]
    fn reclaimed_space_is_bounded_not_leaking() {
        // Many commits with no pins: superseded catalog/journal chains
        // must be reclaimed as we go, so garbage never accumulates more
        // than the constant tail the epoch gate keeps alive.
        let (shared, disk) = shared("<a><b/></a>", 64, AdmissionConfig::default());
        let mut writer = shared.begin_write().unwrap();
        for i in 0..20 {
            writer
                .mutate(|s| {
                    let root = s.root()?;
                    s.append_child(root, NodeKind::Element, &format!("x{i}"), None)
                        .map(|_| ())
                })
                .unwrap();
        }
        drop(writer);
        shared.maintain().unwrap();
        let stats = shared.stats();
        assert!(stats.pages_reclaimed >= 20, "{stats:?}");
        assert_eq!(stats.pinned_free_violations, 0, "{stats:?}");
        let scrub = fsck(&disk, false);
        assert!(scrub.clean(), "{scrub}");
        // And the final state still reopens.
        drop(shared);
        let mut re = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
        assert!(re.to_document().unwrap().to_xml().contains("x19"));
    }

    /// A `<site>` of six `<region>`s of thirty `<item>`s each: a store
    /// of several record pages.
    fn regions_xml() -> String {
        let mut xml = String::from("<site>");
        for r in 0..6 {
            xml.push_str("<region>");
            for i in 0..30 {
                xml.push_str(&format!(
                    "<item><name>item {r} {i}</name><qty>{i}</qty></item>"
                ));
            }
            xml.push_str("</region>");
        }
        xml + "</site>"
    }

    fn children(s: &mut XmlStore, parent: NodeRef) -> StoreResult<Vec<NodeRef>> {
        let mut out = Vec::new();
        s.for_each_child(parent, |c, _, _| out.push(c))?;
        Ok(out)
    }

    /// Update pair `n`: append `<pair/>` as the last child of a region,
    /// commit, then delete it, commit. The document ends as it began.
    fn update_pair(writer: &mut WriteGuard, n: usize) {
        let region = |s: &mut XmlStore| {
            let root = s.root()?;
            Ok::<_, StoreError>(children(s, root)?[n % 6])
        };
        writer
            .mutate(|s| {
                let r = region(s)?;
                s.append_child(r, NodeKind::Element, "pair", None)
                    .map(|_| ())
            })
            .unwrap();
        writer
            .mutate(|s| {
                let r = region(s)?;
                let last = *children(s, r)?.last().expect("the appended child");
                s.delete_subtree(last)
            })
            .unwrap();
    }

    /// Pages of the catalog and journal chains the committed header names.
    fn chains(shared: &SharedStore) -> HashSet<PageId> {
        let header = shared.inner.borrow().store.committed_header();
        catalog::referenced(&header, &[]).into_keys().collect()
    }

    #[test]
    fn a_pinned_update_loop_keeps_the_file_flat() {
        // The serve-write pattern: a pin session of five update pairs,
        // release, repeat. Each release lets the deferred checkpoint run
        // and the session's chains be reclaimed; the next session's
        // chains fill those pages, and rewrites stay in their pages.
        let (shared, _disk) = shared(&regions_xml(), 64, AdmissionConfig::default());
        let mut writer = shared.begin_write().unwrap();
        let mut pages = Vec::new();
        for session in 0..120 {
            let pin = shared.begin_read().unwrap();
            for pair in 0..5 {
                update_pair(&mut writer, session * 5 + pair);
            }
            drop(pin);
            if session % 60 == 59 {
                pages.push(shared.storage_stats().pages);
            }
        }
        assert_eq!(pages[0], pages[1], "pages after 300 and 600 pairs");
        let stats = shared.stats();
        assert_eq!(stats.pinned_free_violations, 0, "{stats:?}");
        assert!(shared.storage_stats().free_pages > 0);
        let mut snap = shared.begin_read().unwrap();
        assert_eq!(xml_of(&mut snap), regions_xml());
    }

    #[test]
    fn a_pinned_chain_is_never_reused_and_freed_chains_are() {
        let (shared, disk) = shared(&regions_xml(), 64, AdmissionConfig::default());
        let mut writer = shared.begin_write().unwrap();
        // Free some chains first, so the free extents are not empty
        // while the pin is held.
        for n in 0..4 {
            update_pair(&mut writer, n);
        }
        shared.maintain().unwrap();
        assert!(shared.storage_stats().free_pages > 0);
        // Every chain named while the pin is held retires at an epoch at
        // or above the pinned one, so none of them may be reused.
        let mut held = chains(&shared);
        let pin = shared.begin_read().unwrap();
        for n in 4..14 {
            update_pair(&mut writer, n);
            let now = chains(&shared);
            assert!(now.is_disjoint(&held), "a chain the pin holds was reused");
            held.extend(now);
        }
        assert_eq!(shared.stats().pinned_free_violations, 0);
        // The backlog counts pages: at least every page the pin held back.
        let waiting = held.difference(&chains(&shared)).count();
        let backlog = shared.storage_stats().reclaim_backlog_pages as usize;
        assert!(backlog >= waiting, "{waiting} pages held");
        let len = shared.storage_stats().pages;
        drop(pin);
        assert!(shared.storage_stats().free_pages > 0);
        // Released: the next commit lands inside the old file length.
        update_pair(&mut writer, 14);
        assert!(chains(&shared).iter().all(|&p| p < len));
        assert_eq!(shared.storage_stats().pages, len);
        assert_eq!(shared.stats().pinned_free_violations, 0);
        drop(writer);
        drop(shared);
        let scrub = fsck(&disk, false);
        assert!(scrub.clean(), "{scrub}");
        let mut re = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
        assert_eq!(re.to_document().unwrap().to_xml(), regions_xml());
    }

    #[test]
    fn disk_full_degrades_to_read_only_and_recovers() {
        use crate::pager::{FaultInjectingPager, FaultSchedule};
        // Bulkload onto the shared disk, then reopen the writer through a
        // fault injector whose disk fills at write event 2 for 6 events.
        let doc = parse("<list><e>one entry of text</e><e>two entry of text</e></list>").unwrap();
        let disk = SharedMemPager::new();
        let config = StoreConfig {
            record_limit_slots: 16,
            ..Default::default()
        };
        drop(bulkload_with(&doc, &Ekm, 16, Box::new(disk.clone()), config).unwrap());
        let faulty =
            FaultInjectingPager::new(Box::new(disk.clone()), FaultSchedule::storage_full(2, 6));
        let store = XmlStore::open(Box::new(faulty), config).unwrap();
        let shared = SharedStore::new(
            store,
            Box::new(disk.clone()),
            config,
            AdmissionConfig::default(),
        );
        let before = {
            let mut s = shared.begin_read().unwrap();
            xml_of(&mut s)
        };
        // The commit hits the full disk, rolls back, and degrades.
        let mut writer = shared.begin_write().unwrap();
        let err = writer
            .mutate(|s| {
                let root = s.root()?;
                s.append_child(root, NodeKind::Text, "#text", Some("will not fit"))
                    .map(|_| ())
            })
            .unwrap_err();
        assert!(matches!(err, StoreError::ReadOnly { .. }), "{err}");
        assert!(err.retry_after_hint_ms().unwrap() > 50, "{err}");
        drop(writer);
        assert_eq!(shared.read_only_reason(), Some("disk full"));
        // Reads keep serving the committed pre-state, and the backing
        // bytes stay fsck-clean (the rollback was atomic).
        let mut pinned = shared.begin_read().unwrap();
        assert_eq!(xml_of(&mut pinned), before);
        drop(pinned);
        let scrub = fsck(&disk, false);
        assert!(scrub.clean(), "{scrub}");
        // Writes are refused with the typed error while degraded; each
        // refused begin_write runs one space probe, marching the fault
        // window to its end — then the store recovers by itself.
        let mut recovered = None;
        let mut refused = 0;
        for _ in 0..20 {
            match shared.begin_write() {
                Ok(w) => {
                    recovered = Some(w);
                    break;
                }
                Err(e) => assert!(matches!(e, StoreError::ReadOnly { .. }), "{e}"),
            }
            refused += 1;
        }
        assert!(refused >= 1, "the first probe ran inside the full window");
        let mut writer = recovered.expect("writes must resume after the full window passes");
        assert_eq!(shared.read_only_reason(), None);
        writer
            .mutate(|s| {
                let root = s.root()?;
                s.append_child(root, NodeKind::Text, "#text", Some("post recovery"))
                    .map(|_| ())
            })
            .unwrap();
        drop(writer);
        let mut fresh = shared.begin_read().unwrap();
        assert!(xml_of(&mut fresh).contains("post recovery"));
        drop(fresh);
        shared.maintain().unwrap();
        let stats = shared.stats();
        assert_eq!(stats.read_only_entered, 1, "{stats:?}");
        assert_eq!(stats.read_only_recovered, 1, "{stats:?}");
        let scrub = fsck(&disk, false);
        assert!(scrub.clean(), "{scrub}");
    }

    #[test]
    fn the_snapshot_pager_reads_through_its_overlay_and_refuses_writes() {
        let mut disk = MemPager::new();
        for byte in [1u8, 2] {
            let id = disk.allocate().unwrap();
            disk.write(id, &[byte; PAGE_SIZE]).unwrap();
        }
        let overlay = Overlay::from([(1, Arc::new([9u8; PAGE_SIZE]))]);
        let mut pager = OverlayPager {
            inner: Box::new(disk),
            overlay: Arc::new(overlay),
        };
        let mut buf = [0u8; PAGE_SIZE];
        pager.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        pager.read(1, &mut buf).unwrap();
        assert_eq!(buf[0], 9, "the overlay's image wins");
        assert!(matches!(
            pager.allocate(),
            Err(StoreError::InvalidUpdate(_))
        ));
        assert!(matches!(
            pager.write(0, &buf),
            Err(StoreError::InvalidUpdate(_))
        ));
        assert_eq!(pager.page_count(), 2);
    }

    #[test]
    fn rollback_under_pins_keeps_committed_overlay() {
        // Commit with a pin held (deferred checkpoint), then fail an op:
        // the rollback must preserve the committed-but-uncheckpointed
        // images, and both snapshots and recovery must see them.
        let (shared, disk) = shared(
            "<list><e>one entry of text</e><e>two entry of text</e></list>",
            16,
            AdmissionConfig::default(),
        );
        let pin = shared.begin_read().unwrap();
        let mut writer = shared.begin_write().unwrap();
        writer
            .mutate(|s| {
                let root = s.root()?;
                s.append_child(root, NodeKind::Text, "#text", Some("committed payload"))
                    .map(|_| ())
            })
            .unwrap();
        // A rejected update rolls back without losing the commit.
        let err = writer
            .mutate(|s| {
                let root = s.root()?;
                s.delete_subtree(root)
            })
            .unwrap_err();
        assert!(matches!(err, StoreError::InvalidUpdate(_)), "{err}");
        let mut fresh = shared.begin_read().unwrap();
        assert!(xml_of(&mut fresh).contains("committed payload"));
        drop(fresh);
        drop(pin);
        drop(writer);
        shared.maintain().unwrap();
        drop(shared);
        let mut re = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
        re.check_consistency().unwrap();
        assert!(re
            .to_document()
            .unwrap()
            .to_xml()
            .contains("committed payload"));
    }

    /// `begin_read` is `pin_read` + `seed.open` on one thread; the same
    /// seed opened on a spawned thread must read the same bytes — with
    /// an empty overlay and with commits piled up under a held pin.
    #[test]
    fn seed_opens_identically_on_another_thread() {
        fn assert_send<T: Send>() {}
        assert_send::<SnapshotSeed>();

        let dir = std::env::temp_dir().join(format!("natix-seed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seed.natix");
        let doc = parse("<list><e>one entry of text</e><e>two entry of text</e></list>").unwrap();
        let config = StoreConfig {
            record_limit_slots: 16,
            ..Default::default()
        };
        let pager = crate::FilePager::create(&path).unwrap();
        let store = bulkload_with(&doc, &Ekm, 16, Box::new(pager), config).unwrap();
        let shared = SharedStore::new(
            store,
            Box::new(path.clone()),
            config,
            AdmissionConfig::default(),
        );
        let check = |want_overlay: bool| {
            let here = xml_of(&mut shared.begin_read().unwrap());
            let (pin_id, seed) = shared.pin_read().unwrap();
            assert_eq!(seed.overlay.is_empty(), !want_overlay);
            let epoch = seed.epoch();
            let path = path.clone();
            let there = std::thread::spawn(move || {
                let raw = Box::new(crate::FilePager::open(&path).unwrap());
                let mut store = seed.open(raw).unwrap();
                assert_eq!(store.current_epoch(), epoch);
                store.to_document().unwrap().to_xml()
            })
            .join()
            .unwrap();
            shared.release_read(pin_id);
            assert_eq!(here, there);
            here
        };
        let before = check(false);
        let pin = shared.begin_read().unwrap();
        let mut writer = shared.begin_write().unwrap();
        for i in 0..3 {
            writer
                .mutate(|s| {
                    let root = s.root()?;
                    s.append_child(root, NodeKind::Text, "#text", Some(&format!("payload {i}")))
                        .map(|_| ())
                })
                .unwrap();
        }
        drop(writer);
        let after = check(true);
        assert_ne!(after, before);
        assert!(after.contains("payload 2"));
        drop(pin);
        shared.maintain().unwrap();
        assert_eq!(shared.stats().snapshots_active, 0);
        assert_eq!(check(false), after);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A panic unwinding out of a write runs no maintenance: with a
    /// checkpoint pending and the last pin released inside the write,
    /// maintenance would write the panicked batch's staged frames in
    /// place, and the unacknowledged op would reopen as committed.
    #[test]
    fn a_panic_inside_a_write_checkpoints_nothing() {
        let (shared, disk) = shared(
            "<list><e>one entry of text</e></list>",
            16,
            AdmissionConfig::default(),
        );
        let pin = shared.begin_read().unwrap();
        let mut writer = shared.begin_write().unwrap();
        writer
            .mutate(|s| {
                let root = s.root()?;
                s.append_child(root, NodeKind::Text, "#text", Some("acked"))
                    .map(|_| ())
            })
            .unwrap();
        let acked = xml_of(&mut shared.begin_read().unwrap());
        let ops: Vec<BatchOp<'_>> = vec![
            Box::new(|s: &mut XmlStore| {
                let root = s.root()?;
                s.append_child(root, NodeKind::Text, "#text", Some("never acked"))
                    .map(|_| ())
            }),
            Box::new(move |_: &mut XmlStore| {
                drop(pin);
                panic!("injected");
            }),
        ];
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _ = writer.mutate_batch(ops);
        }));
        assert!(unwound.is_err());
        let disk = SharedMemPager::from_snapshot(&disk.snapshot());
        let mut reopened = XmlStore::open(Box::new(disk), StoreConfig::default()).unwrap();
        assert_eq!(reopened.to_document().unwrap().to_xml(), acked);
    }

    /// A list whose entries span several record pages.
    fn spread_list() -> String {
        let entries: String = (0..80)
            .map(|i| format!("<e>entry {i} carries a line of text long enough to fill pages</e>"))
            .collect();
        format!("<list>{entries}</list>")
    }

    /// Append a text node under the first entry of [`spread_list`], or
    /// under its last one: a rewrite of a published page.
    fn append_under_entry(s: &mut XmlStore, last: bool, text: &str) -> StoreResult<()> {
        let root = s.root()?;
        let mut target = s.first_child(root)?.expect("a first entry");
        while let Some(next) = s.next_sibling(target)?.filter(|_| last) {
            target = next;
        }
        s.append_child(target, NodeKind::Text, "#text", Some(text))
            .map(|_| ())
    }

    /// A group commit of three appends under a held pin, so its journal
    /// stays pending: the disk bytes at that point and the batch's
    /// post-state. The appends alternate between the first and the last
    /// entry of a list that spans several pages, so the batch rewrites
    /// published pages in two places (a commit journals only those).
    fn pending_group_commit() -> (Vec<u8>, String) {
        let (shared, disk) = shared(&spread_list(), 16, AdmissionConfig::default());
        let _pin = shared.begin_read().unwrap();
        let mut writer = shared.begin_write().unwrap();
        let ops = (0..3)
            .map(|i| {
                Box::new(move |s: &mut XmlStore| {
                    let text = format!("batched payload {i}");
                    append_under_entry(s, i % 2 == 1, &text)
                }) as BatchOp<'_>
            })
            .collect();
        let acks = writer.mutate_batch(ops).unwrap();
        assert!(acks.iter().all(Result::is_ok), "{acks:?}");
        let stats = shared.stats();
        assert_eq!((stats.group_commits, stats.batched_ops), (1, 3));
        assert_eq!(stats.checkpoints_deferred, 1);
        let after = xml_of(&mut shared.begin_read().unwrap());
        assert!(after.contains("batched payload 2"), "{after}");
        (disk.snapshot(), after)
    }

    #[test]
    fn a_group_commit_journals_one_flat_list_in_page_order() {
        let (image, _) = pending_group_commit();
        let mut disk = SharedMemPager::from_snapshot(&image);
        let header = catalog::read_header(&mut disk).unwrap();
        assert_ne!(header.journal_len, 0, "the checkpoint is pending");
        let mut checked = ChecksummingPager::new(Box::new(disk));
        let len = header.journal_len as usize;
        let bytes = read_chunked(&mut checked, header.journal_first_page, len).unwrap();
        assert_eq!(&bytes[..4], b"NJRL");
        let entries = journal::read_pending(&mut checked, &header).unwrap();
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// Older builds journaled a group commit as `NJB1` segments; a store
    /// such a build left with a pending journal still opens.
    #[test]
    fn a_pending_segmented_journal_from_an_older_build_replays() {
        let (image, after) = pending_group_commit();
        let disk = SharedMemPager::from_snapshot(&image);
        let (header, mut checked) = catalog::open_verified(Box::new(disk.clone())).unwrap();
        let entries = journal::read_pending(&mut checked, &header).unwrap();
        assert!(entries.len() >= 2, "{} journaled pages", entries.len());
        // Republish the batch's images under the next epoch, one segment
        // per op the way an older build cut them (an op can add none).
        let (first, rest) = entries.split_at(1);
        let blob = journal::tests::njb1(&[first.to_vec(), Vec::new(), rest.to_vec()]);
        let mut pool = BufferPool::new(Box::new(checked), 16);
        let journal_first_page = pool.append_chunked(&blob, PageClass::Journal).unwrap();
        let header = Header {
            epoch: header.epoch + 1,
            journal_first_page,
            journal_len: blob.len() as u64,
            ..header
        };
        pool.sync_backend().unwrap();
        pool.write_through(header.slot(), &catalog::encode_header(&header))
            .unwrap();
        drop(pool);
        let scrub = fsck(&disk, false);
        assert!(scrub.clean(), "{scrub}");

        let mut re = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
        re.check_consistency().unwrap();
        assert_eq!(re.to_document().unwrap().to_xml(), after);
        assert!(!re.has_pending_checkpoint());
        drop(re);
        let scrub = fsck(&disk, false);
        assert!(scrub.clean(), "{scrub}");
    }

    /// A commit journals only the published pages it overwrites. A batch
    /// under a held pin rewrites two published entries and fills fresh
    /// pages with a new subtree: its pending journal names exactly the
    /// record pages the deferred checkpoint later rewrites, all below the
    /// prior page count, and before that checkpoint the backend already
    /// holds every fresh record page's committed image.
    #[test]
    fn a_commit_journals_only_the_published_pages_it_overwrites() {
        let (shared, disk) = shared(&spread_list(), 16, AdmissionConfig::default());
        let before = disk.snapshot();
        let prior = (before.len() / PAGE_SIZE) as PageId;
        let pin = shared.begin_read().unwrap();
        let mut writer = shared.begin_write().unwrap();
        let ops: Vec<BatchOp<'_>> = vec![
            Box::new(|s: &mut XmlStore| append_under_entry(s, false, "first rewrite")),
            Box::new(|s: &mut XmlStore| append_under_entry(s, true, "last rewrite")),
            Box::new(|s: &mut XmlStore| {
                let root = s.root()?;
                s.append_child(root, NodeKind::Element, "bulk", None)?;
                // An append may split records and move nodes: find the new
                // last entry again each time.
                for i in 0..400 {
                    append_under_entry(s, true, &format!("fresh line {i}"))?;
                }
                Ok(())
            }),
        ];
        let acks = writer.mutate_batch(ops).unwrap();
        assert!(acks.iter().all(Result::is_ok), "{acks:?}");
        drop(writer);
        assert!(shared.inner.borrow().store.has_pending_checkpoint());
        let pending = disk.snapshot();
        let mut on_disk = ChecksummingPager::new(Box::new(SharedMemPager::from_snapshot(&pending)));
        let header = catalog::read_header(&mut on_disk).unwrap();
        let journaled: Vec<PageId> = journal::read_pending(&mut on_disk, &header)
            .unwrap()
            .into_iter()
            .map(|(id, _)| id)
            .collect();

        drop(pin);
        shared.maintain().unwrap();
        assert_eq!(shared.stats().checkpoints_applied, 1);
        let after = disk.snapshot();
        let page = |image: &[u8], id: PageId| -> [u8; PAGE_SIZE] {
            image[id as usize * PAGE_SIZE..][..PAGE_SIZE]
                .try_into()
                .unwrap()
        };
        let holds_records = |image: &[u8], id: PageId| {
            matches!(
                page_class_of(&page(image, id)),
                PageClass::Record | PageClass::Overflow
            )
        };
        let rewritten: Vec<PageId> = (0..prior)
            .filter(|&id| holds_records(&before, id) && page(&before, id) != page(&after, id))
            .collect();
        assert!(rewritten.len() >= 2, "{rewritten:?}");
        assert_eq!(journaled, rewritten);
        let fresh: Vec<PageId> = (prior..(after.len() / PAGE_SIZE) as PageId)
            .filter(|&id| holds_records(&after, id))
            .collect();
        assert!(!fresh.is_empty(), "the batch filled no fresh page");
        for id in fresh {
            assert!(page(&pending, id) == page(&after, id), "fresh page {id}");
        }
        let scrub = fsck(&disk, false);
        assert!(scrub.clean(), "{scrub}");
    }
}
