//! `TimingPager`: the benchmark's window into the page-storage layer.
//!
//! The store takes its backend through two public seams — the shard
//! backend factory of `bulkload_collection_with` and the
//! [`PagerFactory`] of `SharedStore::new` — so a pass-through pager
//! that counts and times every call sees the device traffic of a
//! workload without touching `crates/`. Bytes pass through unchanged
//! (a unit test compares stores built with and without it).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use natix_store::{FilePager, PageId, Pager, PagerFactory, StoreResult, PAGE_SIZE};

/// Call counts and busy time of one or more [`TimingPager`]s. Shared by
/// the loader threads of a bulkload, hence atomics; `Relaxed` because
/// the values are statistics and publish no other data.
#[derive(Default)]
pub struct PagerCounters {
    reads: AtomicU64,
    read_ns: AtomicU64,
    writes: AtomicU64,
    write_ns: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    allocs: AtomicU64,
    alloc_ns: AtomicU64,
}

/// A point-in-time copy of [`PagerCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PagerTotals {
    pub reads: u64,
    pub read_ns: u64,
    pub writes: u64,
    pub write_ns: u64,
    pub syncs: u64,
    pub sync_ns: u64,
    pub allocs: u64,
    pub alloc_ns: u64,
}

impl PagerCounters {
    /// Zeroed counters, shareable between threads.
    pub fn new() -> Arc<PagerCounters> {
        Arc::new(PagerCounters::default())
    }

    /// Current totals.
    pub fn totals(&self) -> PagerTotals {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        PagerTotals {
            reads: get(&self.reads),
            read_ns: get(&self.read_ns),
            writes: get(&self.writes),
            write_ns: get(&self.write_ns),
            syncs: get(&self.syncs),
            sync_ns: get(&self.sync_ns),
            allocs: get(&self.allocs),
            alloc_ns: get(&self.alloc_ns),
        }
    }
}

impl PagerTotals {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &PagerTotals) -> PagerTotals {
        PagerTotals {
            reads: self.reads - earlier.reads,
            read_ns: self.read_ns - earlier.read_ns,
            writes: self.writes - earlier.writes,
            write_ns: self.write_ns - earlier.write_ns,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
            allocs: self.allocs - earlier.allocs,
            alloc_ns: self.alloc_ns - earlier.alloc_ns,
        }
    }

    /// Sum of two sets of counters.
    pub fn plus(&self, other: &PagerTotals) -> PagerTotals {
        PagerTotals {
            reads: self.reads + other.reads,
            read_ns: self.read_ns + other.read_ns,
            writes: self.writes + other.writes,
            write_ns: self.write_ns + other.write_ns,
            syncs: self.syncs + other.syncs,
            sync_ns: self.sync_ns + other.sync_ns,
            allocs: self.allocs + other.allocs,
            alloc_ns: self.alloc_ns + other.alloc_ns,
        }
    }

    /// Pages that reached the device (an allocation writes a zero page).
    pub fn pages_written(&self) -> u64 {
        self.writes + self.allocs
    }

    /// Bytes written to the device.
    pub fn bytes_written(&self) -> u64 {
        self.pages_written() * PAGE_SIZE as u64
    }
}

/// Pass-through pager that counts and times every backend call.
pub struct TimingPager {
    inner: Box<dyn Pager>,
    counters: Arc<PagerCounters>,
}

impl TimingPager {
    /// Wrap `inner`, reporting into `counters`.
    pub fn new(inner: Box<dyn Pager>, counters: Arc<PagerCounters>) -> TimingPager {
        TimingPager { inner, counters }
    }

    fn timed<T>(
        &mut self,
        count: fn(&PagerCounters) -> (&AtomicU64, &AtomicU64),
        f: impl FnOnce(&mut dyn Pager) -> T,
    ) -> T {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        let (n, ns) = count(&self.counters);
        n.fetch_add(1, Ordering::Relaxed);
        ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl Pager for TimingPager {
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn allocate(&mut self) -> StoreResult<PageId> {
        self.timed(|c| (&c.allocs, &c.alloc_ns), |p| p.allocate())
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        self.timed(|c| (&c.reads, &c.read_ns), |p| p.read(id, buf))
    }

    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        self.timed(|c| (&c.writes, &c.write_ns), |p| p.write(id, buf))
    }

    fn sync(&mut self) -> StoreResult<()> {
        self.timed(|c| (&c.syncs, &c.sync_ns), |p| p.sync())
    }
}

/// [`PagerFactory`] handing snapshot readers timed pagers over one file.
pub struct TimingFactory {
    pub path: PathBuf,
    pub counters: Arc<PagerCounters>,
}

impl PagerFactory for TimingFactory {
    fn open_pager(&self) -> StoreResult<Box<dyn Pager>> {
        Ok(Box::new(TimingPager::new(
            Box::new(FilePager::open(&self.path)?),
            Arc::clone(&self.counters),
        )))
    }
}

/// A timed pager over a fresh file (bulkload shard backends).
pub fn create_timed(path: &Path, counters: &Arc<PagerCounters>) -> StoreResult<Box<dyn Pager>> {
    Ok(Box::new(TimingPager::new(
        Box::new(FilePager::create(path)?),
        Arc::clone(counters),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use natix_core::Ekm;
    use natix_store::{bulkload_with, StoreConfig};

    #[test]
    fn store_built_through_timing_pager_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!("natix-bm-tpager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc = natix_datagen::xmark(natix_datagen::GenConfig {
            scale: 0.002,
            seed: 11,
        });
        let (plain, timed) = (dir.join("plain.natix"), dir.join("timed.natix"));
        let counters = PagerCounters::new();
        drop(
            bulkload_with(
                &doc,
                &Ekm,
                256,
                Box::new(FilePager::create(&plain).unwrap()),
                StoreConfig::default(),
            )
            .unwrap(),
        );
        drop(
            bulkload_with(
                &doc,
                &Ekm,
                256,
                create_timed(&timed, &counters).unwrap(),
                StoreConfig::default(),
            )
            .unwrap(),
        );
        let (a, b) = (
            std::fs::read(&plain).unwrap(),
            std::fs::read(&timed).unwrap(),
        );
        assert!(!a.is_empty());
        assert_eq!(a, b, "timing pager changed the stored bytes");
        let t = counters.totals();
        assert_eq!(t.bytes_written() % PAGE_SIZE as u64, 0);
        assert!(t.allocs as usize >= a.len() / PAGE_SIZE);
        assert!(t.writes > 0 && t.write_ns > 0 && t.alloc_ns > 0, "{t:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
