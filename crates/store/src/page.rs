//! Slotted pages: the unit of disk I/O.
//!
//! Natix stores several physical records per disk page (paper Sec. 6.4:
//! "the record manager … stores several records on a single disk page").
//! A page is a classic slotted page: a header, a slot array growing
//! forward, and record payloads growing backward from the payload end.
//!
//! ```text
//! +--------+--------+-----------+------------------->        <----------+------+
//! | nslots | free   | slot 0..n |  free space        payload payload ...|frame |
//! +--------+--------+-----------+------------------->        <----------+------+
//! ```
//!
//! The last [`FRAME_SIZE`] bytes of *every* page (not just slotted ones)
//! hold a typed **page frame**: a magic byte, the format version (4), a
//! [`PageClass`] tag, and an XXH64 checksum over the rest of the page
//! (0.7 µs a page; format 3's byte-at-a-time FNV-1a cost 11). The sum is
//! stamped by the `ChecksummingPager` on every write and verified on
//! every read, so bit rot anywhere in a page — including a torn half-page
//! write — is detected before the payload is interpreted. Content
//! producers only use the first [`PAYLOAD_SIZE`] bytes and tag the class
//! byte; the checksum field is owned by the pager seam.

/// Page size in bytes (8 KB; four ~2 KB records fit comfortably).
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved at the end of every page for the typed frame:
/// `[magic u8][version u8][class u8][reserved u8][checksum u64]`.
pub const FRAME_SIZE: usize = 12;

/// Usable payload bytes per page.
pub const PAYLOAD_SIZE: usize = PAGE_SIZE - FRAME_SIZE;

const FRAME_AT: usize = PAGE_SIZE - FRAME_SIZE;
const FRAME_MAGIC: u8 = 0xF7;
/// On-disk format version stamped into every page frame.
pub const FORMAT_VERSION: u8 = 4;

const HEADER: usize = 4;
const SLOT: usize = 4;
/// Length marker for deleted slots.
const DEAD: u16 = u16::MAX;

/// Maximum payload a single page can hold (one slot + header overhead).
pub const MAX_IN_PAGE: usize = PAYLOAD_SIZE - HEADER - SLOT;

/// What a page holds; stored in the page frame so corruption reports and
/// the `fsck` scrubber can name the victim, and so repair can scan a raw
/// page file for salvageable content without a catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageClass {
    /// Allocated but never written (all-zero), or unknown.
    Free,
    /// One of the two ping-pong header slots (pages 0 and 1).
    Header,
    /// A slotted page holding partition records.
    Record,
    /// Part of an overflow chain for a record larger than a page.
    Overflow,
    /// Part of a serialized catalog blob.
    Catalog,
    /// Part of a redo-journal blob.
    Journal,
}

impl PageClass {
    fn to_u8(self) -> u8 {
        match self {
            PageClass::Free => 0,
            PageClass::Header => 1,
            PageClass::Record => 2,
            PageClass::Overflow => 3,
            PageClass::Catalog => 4,
            PageClass::Journal => 5,
        }
    }

    fn from_u8(b: u8) -> PageClass {
        match b {
            1 => PageClass::Header,
            2 => PageClass::Record,
            3 => PageClass::Overflow,
            4 => PageClass::Catalog,
            5 => PageClass::Journal,
            _ => PageClass::Free,
        }
    }
}

impl std::fmt::Display for PageClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PageClass::Free => "free",
            PageClass::Header => "header",
            PageClass::Record => "record",
            PageClass::Overflow => "overflow",
            PageClass::Catalog => "catalog",
            PageClass::Journal => "journal",
        })
    }
}

/// FNV-1a 64-bit hash: the checksum of the small blobs (header slots, in
/// every format; the catalog blob; `collection.ncat` frames).
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, word: u64) -> u64 {
    let acc = acc.wrapping_add(word.wrapping_mul(P2));
    acc.rotate_left(31).wrapping_mul(P1)
}

/// XXH64, seed 0: the checksum of everything that carries page images
/// (page frames, journal blobs, replication parts). Four lanes each take
/// every fourth little-endian word of the 32-byte stripes, so their
/// multiplies overlap; then fold, length, tail (24 of a page's 8184
/// bytes: three words), avalanche.
pub(crate) fn xxh64(bytes: &[u8]) -> u64 {
    let le = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
    let mut lanes = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = xxh_round(*lane, le(word));
        }
    }
    let mut h = P5;
    if bytes.len() >= 32 {
        let [a, b, c, d] = lanes;
        h = a.rotate_left(1).wrapping_add(b.rotate_left(7));
        h = h.wrapping_add(c.rotate_left(12));
        h = h.wrapping_add(d.rotate_left(18));
        for lane in lanes {
            h = (h ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
    }
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh_round(0, le(word))).rotate_left(27);
        h = h.wrapping_mul(P1).wrapping_add(P4);
    }
    let mut halves = words.remainder().chunks_exact(4);
    for half in &mut halves {
        let half = u32::from_le_bytes(half.try_into().expect("4 bytes"));
        h = (h ^ u64::from(half).wrapping_mul(P1)).rotate_left(23);
        h = h.wrapping_mul(P2).wrapping_add(P3);
    }
    for &b in halves.remainder() {
        h = (h ^ u64::from(b).wrapping_mul(P5)).rotate_left(11);
        h = h.wrapping_mul(P1);
    }
    h = (h ^ (h >> 33)).wrapping_mul(P2);
    h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Tag a page image with its class (content producers call this; the
/// checksum itself is stamped by the pager seam on write).
pub fn set_page_class(buf: &mut [u8; PAGE_SIZE], class: PageClass) {
    buf[FRAME_AT + 2] = class.to_u8();
}

/// The class a page image claims to be.
pub fn page_class_of(buf: &[u8; PAGE_SIZE]) -> PageClass {
    PageClass::from_u8(buf[FRAME_AT + 2])
}

/// Stamp the frame magic, version, and checksum over a page image
/// (leaving the class byte as the producer set it).
pub fn seal_frame(buf: &mut [u8; PAGE_SIZE]) {
    buf[FRAME_AT] = FRAME_MAGIC;
    buf[FRAME_AT + 1] = FORMAT_VERSION;
    let sum = xxh64(&buf[..PAGE_SIZE - 8]);
    buf[PAGE_SIZE - 8..].copy_from_slice(&sum.to_le_bytes());
}

/// Outcome of verifying a page frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameCheck {
    /// Frame present and checksum matches.
    Ok,
    /// No frame magic/version: not a sealed format-4 page.
    NotFramed,
    /// Frame present but the checksum disagrees with the contents.
    Mismatch {
        /// Checksum stored in the frame.
        expected: u64,
        /// Checksum computed over the page contents.
        found: u64,
    },
}

/// Verify the frame of a page image.
pub fn verify_frame(buf: &[u8; PAGE_SIZE]) -> FrameCheck {
    if buf[FRAME_AT] != FRAME_MAGIC || buf[FRAME_AT + 1] != FORMAT_VERSION {
        return FrameCheck::NotFramed;
    }
    let expected = u64::from_le_bytes(buf[PAGE_SIZE - 8..].try_into().expect("8 bytes"));
    let found = xxh64(&buf[..PAGE_SIZE - 8]);
    if expected == found {
        FrameCheck::Ok
    } else {
        FrameCheck::Mismatch { expected, found }
    }
}

/// True if the page is entirely zero (allocated but never written).
pub fn is_zero_page(buf: &[u8; PAGE_SIZE]) -> bool {
    buf.chunks_exact(8).all(|w| w == [0u8; 8])
}

/// A view over a page buffer with slotted-page operations.
pub struct SlottedPage<'a> {
    buf: &'a mut [u8; PAGE_SIZE],
}

impl<'a> SlottedPage<'a> {
    /// Wrap an existing (already formatted) page.
    pub fn new(buf: &'a mut [u8; PAGE_SIZE]) -> SlottedPage<'a> {
        SlottedPage { buf }
    }

    /// Format a fresh page: empty slot array, payloads growing backward
    /// from the payload end, class tagged as [`PageClass::Record`].
    pub fn format(buf: &'a mut [u8; PAGE_SIZE]) -> SlottedPage<'a> {
        buf[0..2].copy_from_slice(&0u16.to_le_bytes());
        buf[2..4].copy_from_slice(&(PAYLOAD_SIZE as u16).to_le_bytes());
        set_page_class(buf, PageClass::Record);
        SlottedPage { buf }
    }

    fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.buf[off], self.buf[off + 1]])
    }

    fn write_u16(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slots (including dead ones).
    pub fn slot_count(&self) -> u16 {
        self.read_u16(0)
    }

    fn free_end(&self) -> usize {
        self.read_u16(2) as usize
    }

    /// Contiguous free bytes available for a new insert (payload + slot).
    pub fn free_space(&self) -> usize {
        let used_head = HEADER + SLOT * self.slot_count() as usize;
        self.free_end().saturating_sub(used_head)
    }

    /// True if `payload_len` bytes can be inserted, compacting first if
    /// need be (see [`SlottedPage::insert`]).
    pub fn fits(&self, payload_len: usize) -> bool {
        self.plan(payload_len).is_some()
    }

    /// Where an insert of `payload_len` bytes goes: the slot id it takes
    /// (the lowest tombstoned one, else a new one) and whether the page
    /// must be compacted first. `None` if it does not fit even then.
    fn plan(&self, payload_len: usize) -> Option<(u16, bool)> {
        let count = self.slot_count();
        let reused = (0..count).find(|&s| self.is_dead(s));
        let need = payload_len + if reused.is_some() { 0 } else { SLOT };
        let compact = self.free_space() < need;
        if compact && self.free_space() + self.dead_bytes() < need {
            return None;
        }
        Some((reused.unwrap_or(count), compact))
    }

    /// Insert a record payload; returns the slot number or `None` if the
    /// page cannot hold it. The lowest tombstoned slot id is reused before
    /// the slot array grows, and when the contiguous gap is short but the
    /// tombstoned payloads cover the rest, the live payloads slide to the
    /// payload end first. Slot ids never change, so a `(page, slot)`
    /// directory entry stays valid. A page without tombstones only ever
    /// appends.
    pub fn insert(&mut self, payload: &[u8]) -> Option<u16> {
        let (slot, compact) = self.plan(payload.len())?;
        if compact {
            self.compact();
        }
        let start = self.free_end() - payload.len();
        self.buf[start..start + payload.len()].copy_from_slice(payload);
        let slot_off = HEADER + SLOT * slot as usize;
        self.write_u16(slot_off, start as u16);
        self.write_u16(slot_off + 2, payload.len() as u16);
        if slot == self.slot_count() {
            self.write_u16(0, slot + 1);
        }
        self.write_u16(2, start as u16);
        Some(slot)
    }

    fn is_dead(&self, slot: u16) -> bool {
        let slot_off = HEADER + SLOT * slot as usize;
        slot_off + SLOT <= PAGE_SIZE && self.read_u16(slot_off + 2) == DEAD
    }

    /// `(start, len)` of a live slot's payload, or `None` for missing and
    /// dead slots and for entries whose bounds do not fit the page (torn
    /// or corrupted pages must not panic).
    fn live(&self, slot: u16) -> Option<(usize, usize)> {
        if slot >= self.slot_count() {
            return None;
        }
        let slot_off = HEADER + SLOT * slot as usize;
        if slot_off + SLOT > PAGE_SIZE {
            return None;
        }
        let len = self.read_u16(slot_off + 2);
        if len == DEAD {
            return None;
        }
        let start = self.read_u16(slot_off) as usize;
        let end = start.checked_add(len as usize)?;
        (end <= PAGE_SIZE).then_some((start, len as usize))
    }

    /// Read a record payload. Returns `None` for missing/dead slots and
    /// for slot entries whose bounds do not fit the page.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        let (start, len) = self.live(slot)?;
        Some(&self.buf[start..start + len])
    }

    /// Mutable view of a record payload, for in-place byte patches (the
    /// streaming bulkloader fixes up parent back-links this way). The
    /// offset is resolved on every call: an insert into a page with
    /// tombstones may have compacted it since, moving the payload but
    /// never its slot id. Same bounds rules as [`SlottedPage::get`].
    pub fn get_mut(&mut self, slot: u16) -> Option<&mut [u8]> {
        let (start, len) = self.live(slot)?;
        Some(&mut self.buf[start..start + len])
    }

    /// Tombstone a record. Its slot id is the next one
    /// [`SlottedPage::insert`] reuses, and its payload bytes are reclaimed
    /// by the next insert that needs them.
    pub fn delete(&mut self, slot: u16) -> bool {
        if self.live(slot).is_none() {
            return false;
        }
        self.write_u16(HEADER + SLOT * slot as usize + 2, DEAD);
        true
    }

    /// Bytes in use (header + slots + live payloads); for occupancy stats.
    pub fn used_bytes(&self) -> usize {
        let live: usize = (0..self.slot_count())
            .filter_map(|s| self.live(s))
            .map(|(_, len)| len)
            .sum();
        HEADER + SLOT * self.slot_count() as usize + live
    }

    /// Payload-area bytes no live slot holds: tombstoned payloads.
    fn dead_bytes(&self) -> usize {
        let live = self.used_bytes() - HEADER - SLOT * self.slot_count() as usize;
        (PAYLOAD_SIZE.saturating_sub(self.free_end())).saturating_sub(live)
    }

    /// Slide every live payload to the payload end, highest offset first
    /// (each one moves up, so the copy never overwrites a payload not yet
    /// moved), so the tombstoned bytes join the contiguous gap. Slot ids
    /// and payload bytes do not change; only the offsets do.
    fn compact(&mut self) {
        let mut live: Vec<(u16, usize, usize)> = (0..self.slot_count())
            .filter_map(|s| self.live(s).map(|(start, len)| (s, start, len)))
            .collect();
        live.sort_unstable_by_key(|&(_, start, _)| std::cmp::Reverse(start));
        let mut end = PAYLOAD_SIZE;
        for (slot, start, len) in live {
            end -= len;
            self.buf.copy_within(start..start + len, end);
            self.write_u16(HEADER + SLOT * slot as usize, end as u16);
        }
        self.write_u16(2, end as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Box<[u8; PAGE_SIZE]> {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        SlottedPage::format(&mut buf);
        buf
    }

    #[test]
    fn insert_and_get() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a), Some(&b"hello"[..]));
        assert_eq!(p.get(b), Some(&b"world!"[..]));
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn fills_up() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let payload = vec![7u8; 2000];
        let mut inserted = 0;
        while p.insert(&payload).is_some() {
            inserted += 1;
        }
        // 8180 usable / ~2004 -> 4 records per page.
        assert_eq!(inserted, 4);
        assert!(!p.fits(2000));
        assert!(p.fits(100));
    }

    #[test]
    fn delete_tombstones() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let a = p.insert(b"abc").unwrap();
        let b = p.insert(b"xyz").unwrap();
        assert!(p.delete(a));
        assert_eq!(p.get(a), None);
        assert!(!p.delete(a));
        // The tombstoned id is reused and reads the new payload, never
        // the old one.
        let c = p.insert(b"de").unwrap();
        assert_eq!(c, a);
        assert_eq!(p.get(c), Some(&b"de"[..]));
        assert_eq!(p.get(b), Some(&b"xyz"[..]));
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn a_full_page_compacts_its_tombstones() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let slots: Vec<u16> = (1..=4).map(|i| p.insert(&[i; 2000]).unwrap()).collect();
        assert!(!p.fits(2000));
        assert!(p.delete(slots[1]));
        // The gap is 160 bytes; the tombstone's 2000 make up the rest.
        assert_eq!(p.insert(&[9; 2000]), Some(slots[1]));
        for (i, &s) in slots.iter().enumerate() {
            let want = if i == 1 { 9 } else { i as u8 + 1 };
            assert_eq!(p.get(s), Some(&[want; 2000][..]));
        }
        assert_eq!(p.insert(&[0; 200]), None);
    }

    #[test]
    fn max_payload_fits() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let payload = vec![1u8; MAX_IN_PAGE];
        let s = p.insert(&payload).unwrap();
        assert_eq!(p.get(s).unwrap().len(), MAX_IN_PAGE);
        assert_eq!(p.free_space(), 0);
    }

    #[test]
    fn payloads_stay_out_of_the_frame() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        while p.insert(&[0xAB; 64]).is_some() {}
        assert_eq!(page_class_of(&buf), PageClass::Record);
        assert!(buf[FRAME_AT..].iter().all(|&b| b != 0xAB));
    }

    #[test]
    fn used_bytes_accounting() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        assert_eq!(p.used_bytes(), HEADER);
        let a = p.insert(&[0u8; 100]).unwrap();
        assert_eq!(p.used_bytes(), HEADER + SLOT + 100);
        p.delete(a);
        assert_eq!(p.used_bytes(), HEADER + SLOT);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random inserts, deletes and reads against a map from slot id to
        /// payload: every live payload survives every compaction, an
        /// insert is refused only when the live bytes leave no room, and
        /// no payload byte enters the frame.
        #[test]
        fn inserts_and_deletes_agree_with_a_model(
            ops in proptest::collection::vec((0u8..3, 0usize..48, 0usize..2600), 1..300)
        ) {
            let mut buf = fresh();
            let frame = buf[FRAME_AT..].to_vec();
            let mut model: std::collections::BTreeMap<u16, Vec<u8>> = Default::default();
            let mut p = SlottedPage::new(&mut buf);
            for (i, (op, pick, len)) in ops.into_iter().enumerate() {
                let victim = model.keys().nth(pick % model.len().max(1)).copied();
                match (op, victim) {
                    (0, Some(slot)) => {
                        assert!(p.delete(slot));
                        model.remove(&slot);
                        assert_eq!(p.get(slot), None);
                    }
                    (1, Some(slot)) => assert_eq!(p.get(slot), model.get(&slot).map(Vec::as_slice)),
                    _ => {
                        let payload: Vec<u8> = (0..len).map(|b| (i * 31 + b) as u8).collect();
                        let count = p.slot_count();
                        let reused = (0..count).find(|s| !model.contains_key(s));
                        let need = len + if reused.is_some() { 0 } else { SLOT };
                        let live: usize = model.values().map(Vec::len).sum();
                        let room = PAYLOAD_SIZE - HEADER - SLOT * count as usize - live;
                        match p.insert(&payload) {
                            Some(slot) => {
                                assert!(need <= room);
                                assert_eq!(slot, reused.unwrap_or(count));
                                model.insert(slot, payload);
                            }
                            None => assert!(need > room),
                        }
                    }
                }
                for (&slot, want) in &model {
                    assert_eq!(p.get(slot), Some(want.as_slice()));
                }
            }
            assert_eq!(p.used_bytes(), HEADER + SLOT * p.slot_count() as usize
                + model.values().map(Vec::len).sum::<usize>());
            assert_eq!(buf[FRAME_AT..], frame[..]);
        }
    }

    #[test]
    fn frame_seal_and_verify() {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        assert!(is_zero_page(&buf));
        assert_eq!(verify_frame(&buf), FrameCheck::NotFramed);
        buf[100] = 9;
        set_page_class(&mut buf, PageClass::Catalog);
        seal_frame(&mut buf);
        assert!(!is_zero_page(&buf));
        assert_eq!(verify_frame(&buf), FrameCheck::Ok);
        assert_eq!(page_class_of(&buf), PageClass::Catalog);
        // Any flipped payload bit is caught.
        buf[100] ^= 0x20;
        assert!(matches!(verify_frame(&buf), FrameCheck::Mismatch { .. }));
        buf[100] ^= 0x20;
        assert_eq!(verify_frame(&buf), FrameCheck::Ok);
        // A flipped checksum bit is caught too.
        buf[PAGE_SIZE - 1] ^= 0x01;
        assert!(matches!(verify_frame(&buf), FrameCheck::Mismatch { .. }));
    }

    /// A sealed record page with a seeded pseudo-random payload.
    fn sealed(seed: u64) -> Box<[u8; PAGE_SIZE]> {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        let mut x = seed | 1;
        for b in buf[..PAYLOAD_SIZE].iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
        set_page_class(&mut buf, PageClass::Record);
        seal_frame(&mut buf);
        buf
    }

    fn detected(buf: &[u8; PAGE_SIZE]) -> bool {
        matches!(
            verify_frame(buf),
            FrameCheck::Mismatch { .. } | FrameCheck::NotFramed
        )
    }

    #[test]
    fn golden_vectors_pin_the_on_disk_function() {
        // The published XXH64 seed-0 vectors, then one input per tail
        // branch (3 stripes + word + half word + byte) and one of exactly
        // the length a page frame covers. Inputs are bytes and the kernel
        // loads them with `from_le_bytes`, so every host agrees.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        let ramp: Vec<u8> = (0..109).collect();
        assert_eq!(xxh64(&ramp), 0x68D3_618A_8A39_5DC8);
        let page: Vec<u8> = (0..PAGE_SIZE - 8).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(xxh64(&page), 0x322B_46D5_80C6_7BCB);
    }

    #[test]
    fn zero_payload_with_a_frame_does_not_sum_to_zero() {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        set_page_class(&mut buf, PageClass::Record);
        seal_frame(&mut buf);
        assert_eq!(buf[PAGE_SIZE - 8..], 0xC557_2ADF_F00F_DD31u64.to_le_bytes());
        assert!(!is_zero_page(&buf));
        assert_eq!(verify_frame(&buf), FrameCheck::Ok);
        // Losing the sum (a torn tail) is not mistaken for a match.
        buf[PAGE_SIZE - 8..].fill(0);
        assert!(detected(&buf));
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        // Payload, frame bytes and the sum itself: 65,536 flips.
        let mut buf = sealed(1);
        for bit in 0..PAGE_SIZE * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert!(detected(&buf), "bit {bit} slipped through");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(verify_frame(&buf), FrameCheck::Ok);
    }

    #[test]
    fn every_short_burst_is_caught() {
        // Bursts of 2..=64 consecutive flipped bits starting at every bit
        // of sampled bytes: stripe and lane boundaries, the tail words,
        // the frame, and a seeded scatter over the payload.
        let mut offsets = vec![0, 7, 8, 24, 31, 32, 4095, 4096, 8159, 8160, 8168, 8176];
        offsets.extend([FRAME_AT - 8, FRAME_AT, PAGE_SIZE - 16]);
        offsets.extend((0..48).map(|i| (i * 2_654_435_761usize) % (PAGE_SIZE - 16)));
        let mut buf = sealed(2);
        for &byte in &offsets {
            for start in byte * 8..byte * 8 + 8 {
                for len in 2..=64 {
                    let flip = |buf: &mut [u8; PAGE_SIZE]| {
                        for bit in start..start + len {
                            buf[bit / 8] ^= 1 << (bit % 8);
                        }
                    };
                    flip(&mut buf);
                    assert!(detected(&buf), "burst of {len} at bit {start}");
                    flip(&mut buf);
                }
            }
        }
        assert_eq!(verify_frame(&buf), FrameCheck::Ok);
    }

    #[test]
    fn swapped_words_are_caught() {
        // Word w belongs to lane w % 4 while inside the 255 stripes.
        let mut buf = sealed(3);
        let word = |w: usize| w * 8..w * 8 + 8;
        for (a, b) in [
            (0, 4),
            (5, 401),
            (2, 1018),
            (0, 1),
            (6, 7),
            (3, 1016),
            (1020, 1022),
        ] {
            let (wa, wb) = (buf[word(a)].to_vec(), buf[word(b)].to_vec());
            assert_ne!(wa, wb);
            buf[word(a)].copy_from_slice(&wb);
            buf[word(b)].copy_from_slice(&wa);
            assert!(detected(&buf), "swap of words {a} and {b}");
            buf[word(a)].copy_from_slice(&wa);
            buf[word(b)].copy_from_slice(&wb);
        }
        assert_eq!(verify_frame(&buf), FrameCheck::Ok);
    }

    #[test]
    fn torn_half_page_fails_verification() {
        let mut old = Box::new([0u8; PAGE_SIZE]);
        old[10] = 1;
        set_page_class(&mut old, PageClass::Record);
        seal_frame(&mut old);
        let mut new = Box::new([0u8; PAGE_SIZE]);
        new[10] = 2;
        new[PAGE_SIZE / 2 + 10] = 3;
        set_page_class(&mut new, PageClass::Record);
        seal_frame(&mut new);
        // First half new, second half (including the frame) old.
        let mut torn = old.clone();
        torn[..PAGE_SIZE / 2].copy_from_slice(&new[..PAGE_SIZE / 2]);
        assert!(matches!(verify_frame(&torn), FrameCheck::Mismatch { .. }));
    }
}
