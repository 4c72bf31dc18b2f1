//! On-disk catalog: dual header pages + serialized record directory and
//! label table, so a bulkloaded store can be reopened from its page file.
//!
//! Layout (format version 4): pages 0 and 1 are *ping-pong header slots*.
//! A header carries an epoch, the catalog location, and (while a commit is
//! being checkpointed) a redo-journal location, protected by an FNV-64
//! checksum. Header epoch `E` lives in slot `E % 2`, so publishing epoch
//! `E + 1` never overwrites the current header — a torn header write can
//! only corrupt the slot being replaced, and `open` falls back to the
//! surviving one. The catalog itself is written across dedicated pages
//! appended after the data pages, as a self-describing `NCT3` blob that
//! carries its own length, epoch, root record, record limit, quarantine
//! list, and checksum — so `fsck --repair` can rediscover the newest
//! intact catalog by scanning catalog-class pages even when both header
//! slots are gone.
//!
//! Every other format (`NATIXST2`, `NATIXST3`, a future `NATIXST5`) is
//! recognised only to be refused by name — header slots keep the FNV sum
//! over their 52 bytes in every format for exactly that — and nothing
//! decodes it.

use std::collections::BTreeMap;

use crate::page::{fnv64, set_page_class, PageClass, PAGE_SIZE, PAYLOAD_SIZE};
use crate::pager::{ChecksummingPager, PageId, Pager, StoreError, StoreResult};
use crate::store::overflow_page_span;

/// Magic bytes identifying a Natix store page file (format version 4:
/// dual checksummed headers + redo journal + XXH64 page frames). The last
/// byte is the format digit; see [`decode_header_slot`].
pub const MAGIC: &[u8; 8] = b"NATIXST4";

/// Magic prefix of a serialized catalog blob.
pub(crate) const CATALOG_MAGIC: &[u8; 4] = b"NCT3";

/// Where a record's bytes live (public within the crate; the store keeps
/// the authoritative copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordLoc {
    /// Inside a slotted page.
    InPage { page: u32, slot: u16 },
    /// Spanning dedicated overflow pages.
    Overflow { first_page: u32, len: u32 },
    /// Deleted record (directory tombstone).
    Free,
}

/// Everything needed to reopen a store.
#[derive(Debug)]
pub(crate) struct Catalog {
    pub epoch: u64,
    pub root_record: u32,
    pub record_limit: u64,
    pub directory: Vec<RecordLoc>,
    pub labels: Vec<Box<str>>,
    /// Records quarantined by `fsck --repair`: unrecoverable partitions
    /// whose proxies remain in their parents as tombstones.
    pub quarantined: Vec<u32>,
}

/// Fixed header written into slot page `epoch % 2`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    pub epoch: u64,
    pub root_record: u32,
    pub catalog_first_page: u32,
    pub catalog_len: u64,
    pub record_limit: u64,
    pub journal_first_page: u32,
    pub journal_len: u64,
}

impl Header {
    /// The header slot page this epoch publishes to.
    pub(crate) fn slot(&self) -> PageId {
        (self.epoch % 2) as PageId
    }
}

/// Every page the committed state `header` publishes references, in page
/// order, with the class it must carry and the record it holds: the
/// catalog and journal chains the header names and each record page or
/// overflow chain of its decoded `directory` (pass `&[]` for the chains
/// alone). fsck judges frames by it, a snapshot pin guards it, and the
/// reclaimer frees by it what a superseded header named.
pub(crate) fn referenced(
    header: &Header,
    directory: &[RecordLoc],
) -> BTreeMap<PageId, (PageClass, Option<u32>)> {
    let mut pages = BTreeMap::new();
    let mut span = |first: PageId, count: usize, class, record| {
        pages.extend((first..first + count as PageId).map(|p| (p, (class, record))));
    };
    let chain = |len: u64| (len as usize).div_ceil(PAYLOAD_SIZE);
    let (catalog, journal) = (chain(header.catalog_len), chain(header.journal_len));
    span(header.catalog_first_page, catalog, PageClass::Catalog, None);
    span(header.journal_first_page, journal, PageClass::Journal, None);
    for (no, loc) in directory.iter().enumerate() {
        let (class, first, count) = match *loc {
            RecordLoc::InPage { page, .. } => (PageClass::Record, page, 1),
            RecordLoc::Overflow { first_page, len } => (
                PageClass::Overflow,
                first_page,
                overflow_page_span(len as usize),
            ),
            RecordLoc::Free => continue,
        };
        span(first, count, class, Some(no as u32));
    }
    pages
}

const CHECKSUM_AT: usize = 52;

pub(crate) fn encode_header(h: &Header) -> [u8; PAGE_SIZE] {
    let mut buf = [0u8; PAGE_SIZE];
    buf[0..8].copy_from_slice(MAGIC);
    buf[8..16].copy_from_slice(&h.epoch.to_le_bytes());
    buf[16..20].copy_from_slice(&h.root_record.to_le_bytes());
    buf[20..24].copy_from_slice(&h.catalog_first_page.to_le_bytes());
    buf[24..32].copy_from_slice(&h.catalog_len.to_le_bytes());
    buf[32..40].copy_from_slice(&h.record_limit.to_le_bytes());
    buf[40..44].copy_from_slice(&h.journal_first_page.to_le_bytes());
    buf[44..52].copy_from_slice(&h.journal_len.to_le_bytes());
    let sum = fnv64(&buf[..CHECKSUM_AT]);
    buf[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
    set_page_class(&mut buf, PageClass::Header);
    buf
}

/// Decode one header slot; `None` if the slot does not hold a valid header
/// (wrong magic, bad checksum — e.g. a torn header write). A slot whose
/// checksum verifies under another format's magic (`NATIXST<d>`, d ≠ 4)
/// is an error, not `None`: such a file must be refused by name, never
/// mistaken for a store that lost its headers. The checksum is judged
/// first — the format digits are a bit or two apart, and a rotted slot
/// must stay merely invalid.
pub(crate) fn decode_header_slot(buf: &[u8; PAGE_SIZE]) -> StoreResult<Option<Header>> {
    let sum = u64::from_le_bytes(buf[CHECKSUM_AT..CHECKSUM_AT + 8].try_into().expect("8"));
    if fnv64(&buf[..CHECKSUM_AT]) != sum || buf[0..7] != MAGIC[..7] {
        return Ok(None);
    }
    if buf[7] != MAGIC[7] {
        let d = char::from(buf[7]).escape_default();
        return Err(StoreError::corrupt(format!(
            "unsupported store format {d} (NATIXST{d} header): this build reads format 4 only"
        )));
    }
    Ok(Some(Header {
        epoch: u64::from_le_bytes(buf[8..16].try_into().expect("8")),
        root_record: u32::from_le_bytes(buf[16..20].try_into().expect("4")),
        catalog_first_page: u32::from_le_bytes(buf[20..24].try_into().expect("4")),
        catalog_len: u64::from_le_bytes(buf[24..32].try_into().expect("8")),
        record_limit: u64::from_le_bytes(buf[32..40].try_into().expect("8")),
        journal_first_page: u32::from_le_bytes(buf[40..44].try_into().expect("4")),
        journal_len: u64::from_le_bytes(buf[44..52].try_into().expect("8")),
    }))
}

/// Pick the winning header from the two slots: highest valid epoch. A
/// foreign-format slot is refused only when no format-4 header stands
/// beside it.
pub(crate) fn pick_header(slot0: &[u8; PAGE_SIZE], slot1: &[u8; PAGE_SIZE]) -> StoreResult<Header> {
    match (decode_header_slot(slot0), decode_header_slot(slot1)) {
        (Ok(Some(a)), Ok(Some(b))) => Ok(if a.epoch >= b.epoch { a } else { b }),
        (Ok(Some(h)), _) | (_, Ok(Some(h))) => Ok(h),
        (Err(e), _) | (_, Err(e)) => Err(e),
        (Ok(None), Ok(None)) => Err(StoreError::corrupt(
            "no valid header slot: not a Natix store file",
        )),
    }
}

/// The committed header of the page file behind `backend`. Both slots are
/// read raw, below any checksum verification: the ping-pong protocol
/// relies on decoding *both* and falling back past a torn one.
pub(crate) fn read_header(backend: &mut dyn Pager) -> StoreResult<Header> {
    if backend.page_count() < 2 {
        return Err(StoreError::corrupt("file too small for header slots"));
    }
    let mut slot0 = Box::new([0u8; PAGE_SIZE]);
    let mut slot1 = Box::new([0u8; PAGE_SIZE]);
    backend.read(0, &mut slot0)?;
    backend.read(1, &mut slot1)?;
    pick_header(&slot0, &slot1)
}

/// [`read_header`], then the checksum-verifying layer every other page of
/// a committed file is read through.
pub(crate) fn open_verified(mut raw: Box<dyn Pager>) -> StoreResult<(Header, ChecksummingPager)> {
    let header = read_header(raw.as_mut())?;
    Ok((header, ChecksummingPager::new(raw)))
}

/// Serialize a catalog blob. The blob is self-describing
/// (`NCT3` magic, total length, epoch) and ends in an FNV-64 checksum of
/// everything before it.
pub(crate) fn encode_catalog(
    directory: &[RecordLoc],
    labels: &[Box<str>],
    quarantined: &[u32],
    root_record: u32,
    record_limit: u64,
    epoch: u64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(44 + directory.len() * 9 + labels.len() * 12);
    out.extend_from_slice(CATALOG_MAGIC);
    out.extend_from_slice(&0u64.to_le_bytes()); // total length, patched below
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&root_record.to_le_bytes());
    out.extend_from_slice(&record_limit.to_le_bytes());
    out.extend_from_slice(&(directory.len() as u32).to_le_bytes());
    for loc in directory {
        match *loc {
            RecordLoc::InPage { page, slot } => {
                out.push(0);
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&slot.to_le_bytes());
            }
            RecordLoc::Overflow { first_page, len } => {
                out.push(1);
                out.extend_from_slice(&first_page.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            RecordLoc::Free => out.push(2),
        }
    }
    out.extend_from_slice(&(labels.len() as u32).to_le_bytes());
    for l in labels {
        out.extend_from_slice(&(l.len() as u16).to_le_bytes());
        out.extend_from_slice(l.as_bytes());
    }
    out.extend_from_slice(&(quarantined.len() as u32).to_le_bytes());
    for &q in quarantined {
        out.extend_from_slice(&q.to_le_bytes());
    }
    let total = (out.len() + 8) as u64;
    out[4..12].copy_from_slice(&total.to_le_bytes());
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Total length a serialized catalog blob announces for itself, if
/// `bytes` starts like one (used by the repair scan to bound chain reads
/// before the checksum can be verified).
pub(crate) fn catalog_blob_len(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < 12 || &bytes[..4] != CATALOG_MAGIC {
        return None;
    }
    Some(u64::from_le_bytes(bytes[4..12].try_into().expect("8")))
}

struct R<'a> {
    b: &'a [u8],
    p: usize,
}

impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        if self.p + n > self.b.len() {
            return Err(StoreError::corrupt("catalog truncated"));
        }
        let s = &self.b[self.p..self.p + n];
        self.p += n;
        Ok(s)
    }
    fn u8(&mut self) -> StoreResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> StoreResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn u32(&mut self) -> StoreResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> StoreResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

fn decode_directory(r: &mut R<'_>) -> StoreResult<Vec<RecordLoc>> {
    let n = r.u32()? as usize;
    let mut directory = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let tag = r.u8()?;
        directory.push(match tag {
            0 => RecordLoc::InPage {
                page: r.u32()?,
                slot: r.u16()?,
            },
            1 => RecordLoc::Overflow {
                first_page: r.u32()?,
                len: r.u32()?,
            },
            2 => RecordLoc::Free,
            _ => return Err(StoreError::corrupt("bad directory entry tag")),
        });
    }
    Ok(directory)
}

fn decode_labels(r: &mut R<'_>) -> StoreResult<Vec<Box<str>>> {
    let nl = r.u32()? as usize;
    let mut labels = Vec::with_capacity(nl.min(1 << 20));
    for _ in 0..nl {
        let len = r.u16()? as usize;
        let s = std::str::from_utf8(r.take(len)?)
            .map_err(|_| StoreError::corrupt("label not UTF-8"))?;
        labels.push(s.into());
    }
    Ok(labels)
}

/// Decode and verify a catalog blob (`NCT3` framing, announced length,
/// trailing checksum).
pub(crate) fn decode_catalog(bytes: &[u8]) -> StoreResult<Catalog> {
    let Some(announced) = catalog_blob_len(bytes) else {
        return Err(StoreError::corrupt("catalog blob magic missing"));
    };
    if announced as usize != bytes.len() || bytes.len() < 12 + 8 {
        return Err(StoreError::corrupt("catalog blob length mismatch"));
    }
    let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8"));
    if fnv64(&bytes[..bytes.len() - 8]) != sum {
        return Err(StoreError::corrupt("catalog checksum mismatch"));
    }
    let mut r = R {
        b: &bytes[..bytes.len() - 8],
        p: 12,
    };
    let epoch = r.u64()?;
    let root_record = r.u32()?;
    let record_limit = r.u64()?;
    let directory = decode_directory(&mut r)?;
    let labels = decode_labels(&mut r)?;
    let nq = r.u32()? as usize;
    let mut quarantined = Vec::with_capacity(nq.min(1 << 20));
    for _ in 0..nq {
        quarantined.push(r.u32()?);
    }
    if r.p != r.b.len() {
        return Err(StoreError::corrupt("catalog has trailing bytes"));
    }
    if root_record as usize >= directory.len() {
        return Err(StoreError::corrupt("root record out of range"));
    }
    Ok(Catalog {
        epoch,
        root_record,
        record_limit,
        directory,
        labels,
        quarantined,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample_header() -> Header {
        Header {
            epoch: 5,
            root_record: 7,
            catalog_first_page: 123,
            catalog_len: 4567,
            record_limit: 256,
            journal_first_page: 130,
            journal_len: 8200,
        }
    }

    fn sample_catalog() -> Catalog {
        Catalog {
            epoch: 9,
            root_record: 0,
            record_limit: 64,
            directory: vec![
                RecordLoc::InPage { page: 1, slot: 0 },
                RecordLoc::Overflow {
                    first_page: 9,
                    len: 20_000,
                },
                RecordLoc::Free,
                RecordLoc::InPage { page: 2, slot: 3 },
            ],
            labels: vec!["site".into(), "item".into(), "#text".into()],
            quarantined: vec![2],
        }
    }

    fn encode_sample(cat: &Catalog) -> Vec<u8> {
        encode_catalog(
            &cat.directory,
            &cat.labels,
            &cat.quarantined,
            cat.root_record,
            cat.record_limit,
            cat.epoch,
        )
    }

    #[test]
    fn header_roundtrip() {
        let buf = encode_header(&sample_header());
        let back = decode_header_slot(&buf).unwrap().unwrap();
        assert_eq!(back.epoch, 5);
        assert_eq!(back.root_record, 7);
        assert_eq!(back.catalog_first_page, 123);
        assert_eq!(back.catalog_len, 4567);
        assert_eq!(back.record_limit, 256);
        assert_eq!(back.journal_first_page, 130);
        assert_eq!(back.journal_len, 8200);
        assert_eq!(back.slot(), 1);
        assert_eq!(crate::page::page_class_of(&buf), PageClass::Header);
    }

    /// A well-formed header page of format `digit` (valid slot checksum;
    /// the frame bytes zeroed, as format 2 had none and format 3's do not
    /// verify here), as the last writer of that format produced it.
    pub(crate) fn foreign_header_page(digit: u8) -> [u8; PAGE_SIZE] {
        let mut buf = encode_header(&sample_header());
        buf[7] = digit;
        let sum = fnv64(&buf[..CHECKSUM_AT]);
        buf[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
        buf[crate::page::PAYLOAD_SIZE..].fill(0);
        buf
    }

    #[test]
    fn foreign_format_header_is_refused_by_name() {
        let v4 = encode_header(&sample_header());
        let zero = [0u8; PAGE_SIZE];
        for digit in [b'2', b'3', b'5'] {
            let named = format!("unsupported store format {}", char::from(digit));
            let old = foreign_header_page(digit);
            let err = decode_header_slot(&old).unwrap_err();
            assert!(err.is_corruption(), "{err}");
            assert!(err.to_string().contains(&named), "{err}");
            // Whichever slot holds it, unless a format-4 header stands beside.
            for (s0, s1) in [(&old, &zero), (&zero, &old), (&old, &old)] {
                let err = pick_header(s0, s1).unwrap_err();
                assert!(err.to_string().contains(&named), "{err}");
            }
            assert_eq!(pick_header(&old, &v4).unwrap().epoch, 5);
            assert_eq!(pick_header(&v4, &old).unwrap().epoch, 5);
        }
    }

    #[test]
    fn one_bit_from_a_foreign_magic_is_a_torn_slot_not_a_refusal() {
        // '4' is one bit from '5', '6', '0' and '$'; the checksum covers
        // the magic, so the rotted slot is invalid and the other one wins.
        for bit in 0..8 {
            let mut rotted = encode_header(&sample_header());
            rotted[7] ^= 1 << bit;
            assert!(decode_header_slot(&rotted).unwrap().is_none());
            let mut old = sample_header();
            old.epoch = 4;
            let good = encode_header(&old);
            assert_eq!(pick_header(&rotted, &good).unwrap().epoch, 4);
            assert_eq!(pick_header(&good, &rotted).unwrap().epoch, 4);
            let err = pick_header(&rotted, &rotted).unwrap_err();
            assert!(!err.to_string().contains("unsupported"), "{err}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; PAGE_SIZE];
        assert!(decode_header_slot(&buf).unwrap().is_none());
        let mut v1 = [0u8; PAGE_SIZE];
        v1[..8].copy_from_slice(b"NATIXST1");
        assert!(decode_header_slot(&v1).unwrap().is_none());
    }

    #[test]
    fn torn_header_fails_checksum() {
        let mut buf = encode_header(&sample_header());
        // Any flipped byte in the covered region invalidates the slot.
        buf[17] ^= 0x01;
        assert!(decode_header_slot(&buf).unwrap().is_none());
    }

    #[test]
    fn pick_header_prefers_higher_epoch_and_survives_a_bad_slot() {
        let mut old = sample_header();
        old.epoch = 4;
        let new = sample_header();
        let s0 = encode_header(&old);
        let s1 = encode_header(&new);
        assert_eq!(pick_header(&s0, &s1).unwrap().epoch, 5);
        assert_eq!(pick_header(&s1, &s0).unwrap().epoch, 5);
        let torn = [0xABu8; PAGE_SIZE];
        assert_eq!(pick_header(&s0, &torn).unwrap().epoch, 4);
        assert_eq!(pick_header(&torn, &s1).unwrap().epoch, 5);
        assert!(pick_header(&torn, &torn).is_err());
    }

    #[test]
    fn catalog_roundtrip() {
        let bytes = encode_sample(&sample_catalog());
        assert_eq!(catalog_blob_len(&bytes), Some(bytes.len() as u64));
        let cat = decode_catalog(&bytes).unwrap();
        assert_eq!(cat.epoch, 9);
        assert_eq!(cat.root_record, 0);
        assert_eq!(cat.record_limit, 64);
        assert_eq!(cat.directory.len(), 4);
        assert!(matches!(cat.directory[2], RecordLoc::Free));
        assert_eq!(cat.labels.len(), 3);
        assert_eq!(&*cat.labels[1], "item");
        assert_eq!(cat.quarantined, vec![2]);
        match cat.directory[1] {
            RecordLoc::Overflow { first_page, len } => {
                assert_eq!((first_page, len), (9, 20_000));
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn catalog_checksum_catches_bit_rot() {
        let mut bytes = encode_sample(&sample_catalog());
        bytes[20] ^= 0x40;
        let err = decode_catalog(&bytes).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn catalog_without_its_magic_is_corrupt() {
        // The bare directory + labels layout format 2 used.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.push(2);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&4u16.to_le_bytes());
        bytes.extend_from_slice(b"site");
        let err = decode_catalog(&bytes).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn truncated_catalog_rejected() {
        let bytes = encode_sample(&sample_catalog());
        for cut in [0, 3, 8, 16, bytes.len() - 1] {
            assert!(decode_catalog(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bad_root_record_rejected() {
        let mut cat = sample_catalog();
        cat.root_record = 5;
        let bytes = encode_sample(&cat);
        assert!(decode_catalog(&bytes).is_err());
    }
}
