//! Redo journal for atomic multi-page commits.
//!
//! A commit appends full images of every dirty page it overwrites in
//! place (the pages below the published page count; fresh pages are
//! written in place before the flip instead) as a journal blob at the end
//! of the page file, *then* publishes a header that points at it (the
//! commit point), *then* checkpoints the images in place. Recovery
//! replays the journal idempotently: every image is the post-commit state
//! of its page, so applying it any number of times converges.
//!
//! Every commit, single or group, writes one format: `NJRL`, a flat entry
//! list in page order. The decoder also reads `NJB1`, the *segmented* list
//! older builds wrote for a group commit (one segment per batched op, in
//! batch order), so a journal such a build left pending still replays:
//! the header flip covers the whole batch, so every segment is replayed,
//! flattened in batch order. The `NJB1` reader goes at the next format
//! bump.

use crate::catalog::Header;
use crate::page::{xxh64, PAGE_SIZE};
use crate::pager::{read_chunked, PageId, Pager, StoreError, StoreResult};

const MAGIC: &[u8; 4] = b"NJRL";
const MAGIC_BATCH: &[u8; 4] = b"NJB1";

/// One journaled page: id + full post-commit image.
pub(crate) type JournalEntry = (PageId, Box<[u8; PAGE_SIZE]>);

/// Serialize journal entries (with trailing checksum).
pub(crate) fn encode(entries: &[JournalEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + entries.len() * (4 + PAGE_SIZE) + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (page, image) in entries {
        out.extend_from_slice(&page.to_le_bytes());
        out.extend_from_slice(&image[..]);
    }
    let sum = xxh64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// The page images of the journal `header` names, read through `pager`
/// (none when it names none): what recovery writes in place and a
/// read-only view overlays instead.
pub(crate) fn read_pending(
    pager: &mut dyn Pager,
    header: &Header,
) -> StoreResult<Vec<JournalEntry>> {
    if header.journal_len == 0 {
        return Ok(Vec::new());
    }
    let bytes = read_chunked(
        pager,
        header.journal_first_page,
        header.journal_len as usize,
    )?;
    decode(&bytes)
}

/// Decode and verify a journal blob, flattened across segments (replay
/// order == batch order, so the flat list converges under full replay).
fn decode(bytes: &[u8]) -> StoreResult<Vec<JournalEntry>> {
    Ok(decode_segments(bytes)?.into_iter().flatten().collect())
}

/// Decode and verify a journal blob, preserving the segment boundaries of
/// an older build's `NJB1` group-commit journal. Flat `NJRL` blobs come
/// back as one segment.
fn decode_segments(bytes: &[u8]) -> StoreResult<Vec<Vec<JournalEntry>>> {
    if bytes.len() < 16 {
        return Err(StoreError::corrupt("journal header invalid"));
    }
    let batched = match &bytes[0..4] {
        m if m == MAGIC => false,
        m if m == MAGIC_BATCH => true,
        _ => return Err(StoreError::corrupt("journal header invalid")),
    };
    let body = &bytes[..bytes.len() - 8];
    let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if xxh64(body) != sum {
        return Err(StoreError::corrupt("journal checksum mismatch"));
    }
    if !batched {
        let count = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
        if body.len() != 8 + count * (4 + PAGE_SIZE) {
            return Err(StoreError::corrupt("journal length mismatch"));
        }
        return Ok(vec![decode_entries(&body[8..], count)?]);
    }
    let seg_count = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    let mut segments = Vec::with_capacity(seg_count);
    let mut p = 8;
    for _ in 0..seg_count {
        if p + 4 > body.len() {
            return Err(StoreError::corrupt("journal length mismatch"));
        }
        let count = u32::from_le_bytes(body[p..p + 4].try_into().expect("4 bytes")) as usize;
        p += 4;
        let seg_len = count * (4 + PAGE_SIZE);
        if p + seg_len > body.len() {
            return Err(StoreError::corrupt("journal length mismatch"));
        }
        segments.push(decode_entries(&body[p..p + seg_len], count)?);
        p += seg_len;
    }
    if p != body.len() {
        return Err(StoreError::corrupt("journal length mismatch"));
    }
    Ok(segments)
}

fn decode_entries(body: &[u8], count: usize) -> StoreResult<Vec<JournalEntry>> {
    let mut entries = Vec::with_capacity(count);
    let mut p = 0;
    for _ in 0..count {
        let page = u32::from_le_bytes(body[p..p + 4].try_into().expect("4 bytes"));
        p += 4;
        let mut image = Box::new([0u8; PAGE_SIZE]);
        image.copy_from_slice(&body[p..p + PAGE_SIZE]);
        p += PAGE_SIZE;
        entries.push((page, image));
    }
    Ok(entries)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn journal_roundtrip() {
        let entries: Vec<JournalEntry> = vec![
            (3, Box::new([1u8; PAGE_SIZE])),
            (7, Box::new([2u8; PAGE_SIZE])),
        ];
        let bytes = encode(&entries);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, 3);
        assert_eq!(back[1].1[0], 2);
    }

    #[test]
    fn empty_journal_roundtrip() {
        let bytes = encode(&[]);
        assert!(decode(&bytes).unwrap().is_empty());
    }

    #[test]
    fn corrupted_journal_rejected() {
        let mut bytes = encode(&[(1, Box::new([9u8; PAGE_SIZE]))]);
        bytes[20] ^= 0xFF;
        assert!(decode(&bytes).is_err());
        let short = &bytes[..10];
        assert!(decode(short).is_err());
    }

    /// An `NJB1` journal as older builds wrote it for a group commit:
    /// magic, segment count, each segment's entry count and entries, then
    /// the XXH64 of everything before it.
    pub(crate) fn njb1(segments: &[Vec<JournalEntry>]) -> Vec<u8> {
        let mut out = b"NJB1".to_vec();
        out.extend_from_slice(&(segments.len() as u32).to_le_bytes());
        for seg in segments {
            out.extend_from_slice(&(seg.len() as u32).to_le_bytes());
            for (page, image) in seg {
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&image[..]);
            }
        }
        let sum = xxh64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn batched_journal_roundtrips_with_boundaries() {
        let segments: Vec<Vec<JournalEntry>> = vec![
            vec![(3, Box::new([1u8; PAGE_SIZE]))],
            vec![],
            vec![
                (3, Box::new([4u8; PAGE_SIZE])),
                (9, Box::new([5u8; PAGE_SIZE])),
            ],
        ];
        let bytes = njb1(&segments);
        let segs = decode_segments(&bytes).unwrap();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].len(), 1);
        assert!(segs[1].is_empty());
        assert_eq!(segs[2][1].0, 9);
        // Flat replay flattens in batch order: the later image of page 3
        // wins under in-order replay.
        let flat = decode(&bytes).unwrap();
        assert_eq!(flat.len(), 3);
        assert_eq!(flat[0].1[0], 1);
        assert_eq!(flat[1].1[0], 4);
    }

    #[test]
    fn corrupted_batched_journal_rejected() {
        let segments: Vec<Vec<JournalEntry>> = vec![
            vec![(1, Box::new([9u8; PAGE_SIZE]))],
            vec![(2, Box::new([8u8; PAGE_SIZE]))],
        ];
        let mut bytes = njb1(&segments);
        bytes[30] ^= 0xFF;
        assert!(decode_segments(&bytes).is_err());
        // A truncated segment table must be caught by the length checks
        // even when the checksum is recomputed to match.
        let mut truncated = njb1(&segments);
        truncated[4..8].copy_from_slice(&5u32.to_le_bytes());
        let body_len = truncated.len() - 8;
        let sum = xxh64(&truncated[..body_len]);
        truncated[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(decode_segments(&truncated).is_err());
    }
}
