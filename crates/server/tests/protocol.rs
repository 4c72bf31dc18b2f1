//! Satellite: protocol fuzz/property tests for the wire codec, no
//! sockets involved. Valid requests and responses round-trip exactly;
//! arbitrary bytes, random mutations of valid frames, and truncations
//! must never panic the decoder — every outcome is `Ok` or a typed
//! [`ProtoError`].

use natix_server::wire::{read_frame, write_frame, MAX_FRAME};
use natix_server::{ErrKind, ProtoError, Request, Response, ResponseBody, ShedKind, UpdateOp};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// Short strings, including empties and non-ASCII, for protocol fields.
fn field_string() -> BoxedStrategy<String> {
    proptest::collection::vec(any::<u8>(), 0..24)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
        .boxed()
}

fn update_op() -> BoxedStrategy<UpdateOp> {
    prop_oneof![
        field_string().prop_map(|name| UpdateOp::AppendElement { name }),
        field_string().prop_map(|text| UpdateOp::AppendText { text }),
        field_string().prop_map(|name| UpdateOp::InsertBefore { name }),
        (0u8..1u8).prop_map(|_| UpdateOp::DeleteSubtree),
    ]
    .boxed()
}

/// Opaque byte blobs for the replication payload fields (the wire layer
/// must carry them verbatim; their *content* is validated higher up).
fn payload_bytes() -> BoxedStrategy<Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..96).boxed()
}

fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        (0u8..1u8).prop_map(|_| Request::Ping),
        (field_string(), any::<bool>())
            .prop_map(|(xpath, count_only)| Request::Query { xpath, count_only }),
        (0u8..1u8).prop_map(|_| Request::Dump),
        (field_string(), update_op()).prop_map(|(target, op)| Request::Update { target, op }),
        (0u8..1u8).prop_map(|_| Request::Stats),
        (0u8..1u8).prop_map(|_| Request::Fsck),
        (0u8..1u8).prop_map(|_| Request::Begin),
        (0u8..1u8).prop_map(|_| Request::End),
        (0u8..1u8).prop_map(|_| Request::Shutdown),
        any::<u64>().prop_map(|last_epoch| Request::ReplSubscribe { last_epoch }),
        (any::<u64>(), any::<u32>())
            .prop_map(|(after_epoch, seq)| Request::ReplFetch { after_epoch, seq }),
        any::<u64>().prop_map(|epoch| Request::ReplAck { epoch }),
        payload_bytes().prop_map(|payload| Request::ReplApply { payload }),
        (0u8..1u8).prop_map(|_| Request::ReplPromote),
    ]
    .boxed()
}

fn err_kind() -> BoxedStrategy<ErrKind> {
    prop_oneof![
        (0u8..1u8).prop_map(|_| ErrKind::Proto),
        (0u8..1u8).prop_map(|_| ErrKind::BadRequest),
        (0u8..1u8).prop_map(|_| ErrKind::InvalidUpdate),
        (0u8..1u8).prop_map(|_| ErrKind::Corrupt),
        (0u8..1u8).prop_map(|_| ErrKind::Io),
        (0u8..1u8).prop_map(|_| ErrKind::Internal),
        (0u8..1u8).prop_map(|_| ErrKind::Fenced),
    ]
    .boxed()
}

fn shed_kind() -> BoxedStrategy<ShedKind> {
    prop_oneof![
        (0u8..1u8).prop_map(|_| ShedKind::Overloaded),
        (0u8..1u8).prop_map(|_| ShedKind::ReadOnly),
    ]
    .boxed()
}

/// One strategy arm per [`ResponseBody`] variant.
fn response_body() -> BoxedStrategy<ResponseBody> {
    prop_oneof![
        (0u8..1u8).prop_map(|_| ResponseBody::Pong),
        (
            any::<u16>(),
            proptest::collection::vec(field_string(), 0..8)
        )
            .prop_map(|(count, lines)| ResponseBody::QueryResult {
                count: count as u32,
                lines,
            }),
        field_string().prop_map(|xml| ResponseBody::DumpResult { xml }),
        (0u8..1u8).prop_map(|_| ResponseBody::UpdateDone),
        field_string().prop_map(ResponseBody::StatsText),
        (any::<bool>(), field_string())
            .prop_map(|(clean, report)| ResponseBody::FsckResult { clean, report }),
        (0u8..1u8).prop_map(|_| ResponseBody::SessionPinned),
        (0u8..1u8).prop_map(|_| ResponseBody::SessionReleased),
        (0u8..1u8).prop_map(|_| ResponseBody::SessionExpired),
        (0u8..1u8).prop_map(|_| ResponseBody::ShuttingDown),
        (err_kind(), field_string())
            .prop_map(|(kind, message)| ResponseBody::Error { kind, message }),
        (shed_kind(), any::<u16>(), field_string()).prop_map(|(kind, millis, what)| {
            ResponseBody::RetryAfter {
                kind,
                millis: millis as u32,
                what,
            }
        }),
        (0u8..1u8).prop_map(|_| ResponseBody::ReplSubscribed),
        payload_bytes().prop_map(|payload| ResponseBody::ReplBatchPart { payload }),
        (0u8..1u8).prop_map(|_| ResponseBody::ReplAckOk),
        any::<bool>().prop_map(|complete| ResponseBody::ReplApplied { complete }),
        (0u8..1u8).prop_map(|_| ResponseBody::ReplPromoted),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every request survives an encode/decode round trip unchanged.
    #[test]
    fn request_roundtrip(req in request()) {
        let body = req.encode();
        let back = Request::decode(&body);
        prop_assert_eq!(back.ok(), Some(req));
    }

    /// Every response survives an encode/decode round trip unchanged.
    #[test]
    fn response_roundtrip(epoch in any::<u64>(), body in response_body()) {
        let resp = Response { epoch, body };
        let bytes = resp.encode();
        let back = Response::decode(&bytes);
        prop_assert_eq!(back.ok(), Some(resp));
    }

    /// Arbitrary byte soup decodes to `Ok` or a typed error — never a
    /// panic (the `proptest!` harness turns a panic into a failure with
    /// the offending input printed).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Random single-byte mutations of a valid request body decode to
    /// `Ok` (the mutation may land on a don't-care byte or produce
    /// another valid request) or a typed error — never a panic.
    #[test]
    fn mutated_request_bodies_never_panic(
        req in request(),
        muts in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8),
    ) {
        let mut body = req.encode();
        for (pos, val) in muts {
            let idx = pos as usize % body.len();
            body[idx] = val;
        }
        let _ = Request::decode(&body);
    }

    /// Truncating a valid request at any point decodes to `Ok` (a prefix
    /// can be a complete shorter request) or a typed error — never a
    /// panic, and never an `Ok` claiming trailing garbage was consumed.
    #[test]
    fn truncated_request_bodies_never_panic(req in request(), cut in any::<u16>()) {
        let body = req.encode();
        let keep = cut as usize % (body.len() + 1);
        let _ = Request::decode(&body[..keep]);
        // ... and appending trailing garbage is always rejected.
        let mut extended = body.clone();
        extended.push(0xA5);
        prop_assert!(Request::decode(&extended).is_err());
    }

    /// The replication *part* codec (the payload carried inside
    /// `ReplApply`/`ReplBatchPart` frames): arbitrary byte soup never
    /// panics the decoder.
    #[test]
    fn repl_part_garbage_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = natix_store::decode_part(&bytes);
    }

    /// Mutations and truncations of a *valid* replication part never
    /// panic: the checksum trailer or a structural check catches them
    /// with a typed store error (a mutation that only touches page
    /// *content* covered by the checksum cannot slip through either).
    #[test]
    fn mutated_repl_parts_never_panic(
        prev in any::<u32>(),
        adv in 1u32..1000u32,
        muts in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8),
        cut in any::<u16>(),
    ) {
        let batch = natix_store::ReplBatch {
            kind: natix_store::BatchKind::Incremental,
            prev_epoch: prev as u64,
            epoch: prev as u64 + adv as u64,
            pages: vec![(2, Box::new([0xA5u8; natix_store::PAGE_SIZE]))],
        };
        let mut part = batch.encode_parts().remove(0);
        let keep = cut as usize % (part.len() + 1);
        let _ = natix_store::decode_part(&part[..keep]);
        for (pos, val) in muts {
            let idx = pos as usize % part.len();
            part[idx] = val;
        }
        let _ = natix_store::decode_part(&part);
    }
}

// ------------------------------------------------- frame-level parsing

fn frame_of(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, body).unwrap();
    out
}

#[test]
fn frame_roundtrip() {
    let body = Request::Ping.encode();
    let framed = frame_of(&body);
    let mut r = &framed[..];
    assert_eq!(read_frame(&mut r).unwrap(), body);
    // Immediately after, the source is empty: a clean close.
    assert!(matches!(read_frame(&mut r), Err(ProtoError::Closed)));
}

#[test]
fn empty_input_is_clean_close() {
    let mut r: &[u8] = &[];
    assert!(matches!(read_frame(&mut r), Err(ProtoError::Closed)));
}

#[test]
fn truncated_length_prefix_is_io_error() {
    for n in 1..4usize {
        let framed = frame_of(&Request::Ping.encode());
        let mut r = &framed[..n];
        assert!(
            matches!(read_frame(&mut r), Err(ProtoError::Io(_))),
            "prefix truncated to {n} bytes must be an I/O error"
        );
    }
}

#[test]
fn truncated_body_is_io_error() {
    let framed = frame_of(&Request::Fsck.encode());
    let mut r = &framed[..framed.len() - 1];
    assert!(matches!(read_frame(&mut r), Err(ProtoError::Io(_))));
}

#[test]
fn zero_and_oversized_lengths_are_bad_length() {
    let mut r: &[u8] = &0u32.to_le_bytes();
    assert!(matches!(read_frame(&mut r), Err(ProtoError::BadLength(0))));

    let huge = (MAX_FRAME + 1).to_le_bytes();
    let mut r: &[u8] = &huge;
    match read_frame(&mut r) {
        Err(ProtoError::BadLength(n)) => assert_eq!(n, MAX_FRAME + 1),
        other => panic!("expected BadLength, got {other:?}"),
    }
    // An oversized prefix is rejected *before* any body is read: nothing
    // was consumed past the prefix.
    assert!(r.is_empty());
}

#[test]
fn write_frame_refuses_oversized_bodies() {
    let body = vec![0u8; MAX_FRAME as usize + 1];
    let mut out = Vec::new();
    assert!(matches!(
        write_frame(&mut out, &body),
        Err(ProtoError::BadLength(_))
    ));
    assert!(out.is_empty(), "no partial frame may be emitted");
}
