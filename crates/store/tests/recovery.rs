//! A file with a pending journal — a commit made durable but not yet
//! checkpointed — seen by every way of opening it: the readers
//! (`fsck`, `XmlStore::open_read_only`, `Follower::reader`) must serve
//! the post-recovery state and write nothing, and the writers
//! (`XmlStore::open`, `fsck --repair`) must make what they write durable
//! before the header that names it.

use std::cell::RefCell;
use std::rc::Rc;

use natix_core::Ekm;
use natix_store::{
    bulkload_with, fsck, AdmissionConfig, Follower, PageId, Pager, PagerFactory, SharedMemPager,
    SharedStore, StoreConfig, StoreResult, XmlStore, PAGE_SIZE,
};
use natix_xml::{parse, NodeKind};

/// A disk whose last commit is durable but not checkpointed, as a crash
/// leaves it: a pin is taken across the commit and never given back.
/// Returns the disk and the committed document.
fn pending_journal() -> (SharedMemPager, String) {
    let doc = parse("<list><e>one entry of text</e><e>two entry of text</e></list>").unwrap();
    let disk = SharedMemPager::new();
    let config = StoreConfig {
        record_limit_slots: 16,
        ..Default::default()
    };
    let store = bulkload_with(&doc, &Ekm, 16, Box::new(disk.clone()), config).unwrap();
    let shared = SharedStore::new(
        store,
        Box::new(disk.clone()),
        config,
        AdmissionConfig::default(),
    );
    let _leaked_pin = shared.pin_read().unwrap();
    shared
        .begin_write()
        .unwrap()
        .mutate(|s| {
            let root = s.root()?;
            s.append_child(root, NodeKind::Text, "#text", Some("committed payload"))
                .map(drop)
        })
        .unwrap();
    let want = shared.begin_read().unwrap().document().unwrap().to_xml();
    assert!(want.contains("committed payload"));
    (disk, want)
}

#[test]
fn a_read_never_writes() {
    let (disk, want) = pending_journal();
    let before = disk.snapshot();

    let report = fsck(&disk, false);
    assert!(report.clean(), "{report}");
    assert!(
        report.findings.iter().any(|f| f.code == "journal-pending"),
        "{report}"
    );
    assert!(disk.snapshot() == before, "fsck wrote");

    let mut view = XmlStore::open_read_only(&disk, StoreConfig::default()).unwrap();
    assert_eq!(view.to_document().unwrap().to_xml(), want);
    assert!(disk.snapshot() == before, "open_read_only wrote");

    let dir = std::env::temp_dir().join(format!("natix-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replica.natix");
    std::fs::write(&path, &before).unwrap();
    let follower = Follower::open(path.clone(), StoreConfig::default());
    let mut reader = follower.reader().unwrap();
    assert_eq!(reader.to_document().unwrap().to_xml(), want);
    assert!(
        std::fs::read(&path).unwrap() == before,
        "Follower::reader wrote"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // The journal really is pending: the writer open replays it.
    let mut writer = XmlStore::open(Box::new(disk.clone()), StoreConfig::default()).unwrap();
    assert_eq!(writer.current_epoch(), view.current_epoch() + 1);
    assert_eq!(writer.to_document().unwrap().to_xml(), want);
}

#[derive(Debug)]
enum Event {
    Write(PageId),
    Sync,
}

/// Opens pagers over one shared disk that log every write and barrier,
/// in issue order, to one log.
#[derive(Clone)]
struct Recorder {
    disk: SharedMemPager,
    log: Rc<RefCell<Vec<Event>>>,
    /// Every barrier fails, as on a disk that has gone away.
    fail_sync: bool,
}

impl Recorder {
    fn new(disk: SharedMemPager) -> Recorder {
        Recorder {
            disk,
            log: Rc::default(),
            fail_sync: false,
        }
    }

    /// Assert that no header slot was written while a page written
    /// before it was not yet behind a barrier, and that the log held a
    /// header write after a data write at all; then clear the log.
    fn assert_headers_follow_barriers(&self, ctx: &str) {
        let log = self.log.take();
        let (mut unsynced, mut wrote, mut published) = (None, false, false);
        for (i, event) in log.iter().enumerate() {
            match *event {
                Event::Write(page) if page >= 2 => {
                    unsynced = Some(page);
                    wrote = true;
                }
                Event::Sync => unsynced = None,
                Event::Write(slot) => {
                    assert!(
                        unsynced.is_none(),
                        "{ctx}: header slot {slot} written at event {i} before page \
                         {unsynced:?} was synced: {log:?}"
                    );
                    published |= wrote;
                }
            }
        }
        assert!(published, "{ctx}: nothing was published: {log:?}");
    }
}

impl PagerFactory for Recorder {
    fn open_pager(&self) -> StoreResult<Box<dyn Pager>> {
        Ok(Box::new(self.clone()))
    }
}

impl Pager for Recorder {
    fn page_count(&self) -> u32 {
        self.disk.page_count()
    }

    fn allocate(&mut self) -> StoreResult<PageId> {
        self.disk.allocate()
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        self.disk.read(id, buf)
    }

    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        self.log.borrow_mut().push(Event::Write(id));
        self.disk.write(id, buf)
    }

    fn sync(&mut self) -> StoreResult<()> {
        self.log.borrow_mut().push(Event::Sync);
        if self.fail_sync {
            return Err(std::io::Error::other("barrier failed").into());
        }
        self.disk.sync()
    }
}

#[test]
fn recovery_makes_the_replay_durable_before_the_header() {
    let (disk, want) = pending_journal();
    let recorder = Recorder::new(disk);
    let mut store = XmlStore::open(recorder.open_pager().unwrap(), StoreConfig::default()).unwrap();
    recorder.assert_headers_follow_barriers("XmlStore::open");
    assert_eq!(store.to_document().unwrap().to_xml(), want);
}

#[test]
fn repair_makes_replay_and_catalog_durable_before_the_headers() {
    let (mut disk, want) = pending_journal();
    let recorder = Recorder::new(disk.clone());
    // The pending journal: repair runs recovery.
    let report = fsck(&recorder, true);
    assert!(
        report.findings.iter().any(|f| f.code == "journal-replayed"),
        "{report}"
    );
    recorder.assert_headers_follow_barriers("fsck --repair replay");
    // Both header slots lost: the salvage publishes a catalog, then
    // headers.
    for slot in [0, 1] {
        disk.write(slot, &[0xA5; PAGE_SIZE]).unwrap();
    }
    let report = fsck(&recorder, true);
    assert!(report.repaired, "{report}");
    recorder.assert_headers_follow_barriers("fsck --repair publish");
    let mut store = XmlStore::open(Box::new(disk), StoreConfig::default()).unwrap();
    assert_eq!(store.to_document().unwrap().to_xml(), want);
}

#[test]
fn a_failed_replay_barrier_is_an_io_error_not_a_damaged_journal() {
    let (disk, _) = pending_journal();
    let recorder = Recorder {
        fail_sync: true,
        ..Recorder::new(disk)
    };
    let report = fsck(&recorder, true);
    let codes: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
    assert!(
        codes.contains(&"io-error") && !codes.contains(&"journal-corrupt"),
        "{report}"
    );
}
