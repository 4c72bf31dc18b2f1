//! The `natix serve` wire protocol: length-prefixed binary frames over a
//! byte stream.
//!
//! A frame is a 4-byte little-endian body length followed by the body;
//! bodies are capped at [`MAX_FRAME`] bytes and must not be empty. A
//! request body is an opcode byte plus opcode-specific fields; a response
//! body is a status byte, the epoch the response was served at (0 when no
//! store state was consulted, e.g. a protocol error), and status-specific
//! fields. Strings are a 4-byte length plus UTF-8 bytes.
//!
//! Error handling is layered so a connection survives everything the
//! framing layer can still delimit:
//!
//! * an unparsable *body* inside a well-formed frame yields
//!   [`ProtoError::Malformed`] — the peer can answer with a typed error
//!   response and keep the connection, because the next frame boundary is
//!   still known;
//! * a length prefix of 0 or above [`MAX_FRAME`] yields
//!   [`ProtoError::BadLength`] — the stream position is unusable and the
//!   connection must close after an error response;
//! * a clean close at a frame boundary yields [`ProtoError::Closed`]; a
//!   disconnect mid-frame surfaces as [`ProtoError::Io`].

use std::io::{Read, Write};

/// Largest accepted frame body (16 MiB) — enough for any document this
/// store serves, small enough that a hostile length prefix cannot balloon
/// allocations.
pub const MAX_FRAME: u32 = 1 << 24;

/// Decode/transport failure at the protocol layer.
#[derive(Debug)]
pub enum ProtoError {
    /// Socket-level failure (including disconnects mid-frame).
    Io(std::io::Error),
    /// Frame length prefix of 0 or above [`MAX_FRAME`]; the stream can no
    /// longer be delimited and the connection must close.
    BadLength(u32),
    /// A well-framed body that does not parse; the connection can
    /// continue after a typed error response.
    Malformed(&'static str),
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::BadLength(n) => write!(f, "bad frame length {n} (max {MAX_FRAME})"),
            ProtoError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtoError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`ResponseBody::Pong`].
    Ping,
    /// Evaluate an XPath query against the session's pinned snapshot (or
    /// a per-request snapshot when none is pinned).
    Query {
        /// The XPath expression.
        xpath: String,
        /// Return only the hit count, no rendered results.
        count_only: bool,
    },
    /// Serialize the full document of the session's pinned snapshot (or
    /// a per-request snapshot when none is pinned).
    Dump,
    /// Apply one update; the response's epoch is the new committed epoch.
    Update {
        /// XPath selecting the target node (first hit in document order).
        target: String,
        /// What to do at the target.
        op: UpdateOp,
    },
    /// Storage and concurrency counters.
    Stats,
    /// Scrub the backing file (read-only fsck) and report.
    Fsck,
    /// Pin the current committed epoch for this connection: every
    /// subsequent `Query`/`Dump` on the connection reads that epoch until
    /// `End` (or disconnect) releases the pin.
    Begin,
    /// Release the connection's pinned snapshot.
    End,
    /// Ask the server to shut down gracefully: stop accepting, drain
    /// in-flight requests, release pins, then exit.
    Shutdown,
    /// A follower announces itself to a primary at its current applied
    /// epoch; answered with [`ResponseBody::ReplSubscribed`].
    ReplSubscribe {
        /// Epoch of the follower's file (0 before bootstrap).
        last_epoch: u64,
    },
    /// A follower asks the primary for the next batch part after its
    /// applied epoch; answered with [`ResponseBody::ReplBatchPart`].
    ReplFetch {
        /// Epoch the follower's file is at.
        after_epoch: u64,
        /// 0-based part index within the batch being fetched.
        seq: u32,
    },
    /// A follower reports the epoch it has durably applied; answered
    /// with [`ResponseBody::ReplAckOk`].
    ReplAck {
        /// The durably applied epoch.
        epoch: u64,
    },
    /// Hand one replication batch part to a replica server (its own
    /// fetch loop sends this locally); answered with
    /// [`ResponseBody::ReplApplied`], or [`ErrKind::Fenced`] after
    /// promotion.
    ReplApply {
        /// One encoded part (`NRPB` framing, checksummed).
        payload: Vec<u8>,
    },
    /// Stop replicating and become a primary: discard any staged tail,
    /// run recovery, fence; answered with [`ResponseBody::ReplPromoted`].
    ReplPromote,
}

/// The mutation of a [`Request::Update`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Append a new element child under the target element.
    AppendElement {
        /// Tag name of the new element.
        name: String,
    },
    /// Append a new text child under the target element.
    AppendText {
        /// Text content of the new node.
        text: String,
    },
    /// Insert a new element immediately before the target node.
    InsertBefore {
        /// Tag name of the new element.
        name: String,
    },
    /// Delete the subtree rooted at the target node.
    DeleteSubtree,
}

/// Why a request was shed ([`ResponseBody::RetryAfter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedKind {
    /// The pin budget (or the single writer slot) was full.
    Overloaded,
    /// The store is in read-only degraded mode (resource exhaustion,
    /// e.g. a full disk): writes are refused with a long back-off until
    /// the backend recovers; reads keep being served.
    ReadOnly,
}

/// Failure class of a [`ResponseBody::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrKind {
    /// The request frame was malformed at the protocol layer.
    Proto,
    /// The request was well-formed but semantically bad (e.g. an XPath
    /// that does not parse).
    BadRequest,
    /// An update was rejected by the store's invariants.
    InvalidUpdate,
    /// The store's at-rest bytes are damaged.
    Corrupt,
    /// An underlying I/O failure.
    Io,
    /// Server-side failure (e.g. the store service died).
    Internal,
    /// A promoted follower refused a replication batch from a deposed
    /// primary (the fencing epoch is in the response header).
    Fenced,
}

/// One server response: the epoch consulted plus a status-specific body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Committed epoch the response was served at; 0 when no store state
    /// was consulted (protocol errors).
    pub epoch: u64,
    /// The payload.
    pub body: ResponseBody,
}

/// Status-specific payload of a [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Query`].
    QueryResult {
        /// Number of hits.
        count: u32,
        /// Rendered hits (empty when `count_only` was set).
        lines: Vec<String>,
    },
    /// Answer to [`Request::Dump`].
    DumpResult {
        /// The serialized document.
        xml: String,
    },
    /// Answer to [`Request::Update`]; the new epoch is in the header.
    UpdateDone,
    /// Answer to [`Request::Stats`]: a [`crate::Stats`] rendering, one
    /// `name value` line per counter; [`crate::Stats::parse`] reads it.
    StatsText(String),
    /// Answer to [`Request::Fsck`].
    FsckResult {
        /// True when the scrub found nothing.
        clean: bool,
        /// The rendered report.
        report: String,
    },
    /// Answer to [`Request::Begin`]; the pinned epoch is in the header.
    SessionPinned,
    /// Answer to [`Request::End`].
    SessionReleased,
    /// The session's pin lease expired and the server already released
    /// the pin (leaked or idle session). Answered once to the session's
    /// next request; a well-behaved client re-`begin`s.
    SessionExpired,
    /// Answer to [`Request::Shutdown`]; the server drains and exits.
    ShuttingDown,
    /// The request failed; retrying without change will fail again.
    Error {
        /// Failure class.
        kind: ErrKind,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to [`Request::ReplSubscribe`]; the primary's committed
    /// epoch is in the header.
    ReplSubscribed,
    /// Answer to [`Request::ReplFetch`]: one encoded batch part, or an
    /// empty payload when the follower is caught up. The header carries
    /// the primary's committed epoch.
    ReplBatchPart {
        /// One `NRPB`-framed part (empty = caught up).
        payload: Vec<u8>,
    },
    /// Answer to [`Request::ReplAck`].
    ReplAckOk,
    /// Answer to [`Request::ReplApply`]; the header carries the
    /// replica's applied epoch.
    ReplApplied {
        /// True when the part completed a batch (the file advanced);
        /// false when it was staged pending further parts.
        complete: bool,
    },
    /// Answer to [`Request::ReplPromote`]; the fencing epoch is in the
    /// header.
    ReplPromoted,
    /// The request was shed by backpressure; retry after the given
    /// back-off and it should eventually succeed.
    RetryAfter {
        /// Why it was shed.
        kind: ShedKind,
        /// Suggested client back-off in milliseconds.
        millis: u32,
        /// What was shed (`"read"`, `"write"`, `"replica"`, …).
        what: String,
    },
}

// ---------------------------------------------------------------- frames

/// Write one frame (length prefix + body). Bodies that cannot be
/// delimited (empty or over [`MAX_FRAME`]) are refused before any byte
/// is written, so a sender can never wedge the stream.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), ProtoError> {
    if body.is_empty() || body.len() > MAX_FRAME as usize {
        return Err(ProtoError::BadLength(
            body.len().min(u32::MAX as usize) as u32
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Read one frame body. [`ProtoError::Closed`] on a clean close before
/// the length prefix; [`ProtoError::Io`] on a mid-frame disconnect.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    let mut len = [0u8; 4];
    match r.read(&mut len) {
        Ok(0) => return Err(ProtoError::Closed),
        Ok(n) => r.read_exact(&mut len[n..])?,
        Err(e) => return Err(ProtoError::Io(e)),
    }
    let n = u32::from_le_bytes(len);
    if n == 0 || n > MAX_FRAME {
        return Err(ProtoError::BadLength(n));
    }
    let mut body = vec![0u8; n as usize];
    r.read_exact(&mut body)?;
    Ok(body)
}

// ---------------------------------------------------------------- codec

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(ProtoError::Malformed("truncated body"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let end = self
            .pos
            .checked_add(4)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError::Malformed("truncated u32"))?;
        let v = u32::from_le_bytes(self.buf[self.pos..end].try_into().unwrap());
        self.pos = end;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let end = self
            .pos
            .checked_add(8)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError::Malformed("truncated u64"))?;
        let v = u64::from_le_bytes(self.buf[self.pos..end].try_into().unwrap());
        self.pos = end;
        Ok(v)
    }

    fn str(&mut self) -> Result<String, ProtoError> {
        let n = self.u32()? as usize;
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError::Malformed("string length exceeds body"))?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| ProtoError::Malformed("string is not UTF-8"))?;
        self.pos = end;
        Ok(s.to_string())
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        let n = self.u32()? as usize;
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError::Malformed("byte-blob length exceeds body"))?;
        let v = self.buf[self.pos..end].to_vec();
        self.pos = end;
        Ok(v)
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes after body"))
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Wire opcode (documented in DESIGN.md §15).
pub const OP_PING: u8 = 1;
/// Wire opcode (documented in DESIGN.md §15).
pub const OP_QUERY: u8 = 2;
/// Wire opcode (documented in DESIGN.md §15).
pub const OP_DUMP: u8 = 3;
/// Wire opcode (documented in DESIGN.md §15).
pub const OP_UPDATE: u8 = 4;
/// Wire opcode (documented in DESIGN.md §15).
pub const OP_STATS: u8 = 5;
/// Wire opcode (documented in DESIGN.md §15).
pub const OP_FSCK: u8 = 6;
/// Wire opcode (documented in DESIGN.md §15).
pub const OP_BEGIN: u8 = 7;
/// Wire opcode (documented in DESIGN.md §15).
pub const OP_END: u8 = 8;
/// Wire opcode (documented in DESIGN.md §17).
pub const OP_REPL_SUBSCRIBE: u8 = 9;
/// Wire opcode (documented in DESIGN.md §17).
pub const OP_REPL_FETCH: u8 = 10;
/// Wire opcode (documented in DESIGN.md §17).
pub const OP_REPL_ACK: u8 = 11;
/// Wire opcode (documented in DESIGN.md §17).
pub const OP_REPL_APPLY: u8 = 12;
/// Wire opcode (documented in DESIGN.md §17).
pub const OP_REPL_PROMOTE: u8 = 13;
/// Wire opcode (documented in DESIGN.md §15).
pub const OP_SHUTDOWN: u8 = 127;

const UPD_APPEND_ELEMENT: u8 = 1;
const UPD_APPEND_TEXT: u8 = 2;
const UPD_INSERT_BEFORE: u8 = 3;
const UPD_DELETE: u8 = 4;

impl Request {
    /// Encode into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(OP_PING),
            Request::Query { xpath, count_only } => {
                out.push(OP_QUERY);
                out.push(u8::from(*count_only));
                put_str(&mut out, xpath);
            }
            Request::Dump => out.push(OP_DUMP),
            Request::Update { target, op } => {
                out.push(OP_UPDATE);
                match op {
                    UpdateOp::AppendElement { name } => {
                        out.push(UPD_APPEND_ELEMENT);
                        put_str(&mut out, target);
                        put_str(&mut out, name);
                    }
                    UpdateOp::AppendText { text } => {
                        out.push(UPD_APPEND_TEXT);
                        put_str(&mut out, target);
                        put_str(&mut out, text);
                    }
                    UpdateOp::InsertBefore { name } => {
                        out.push(UPD_INSERT_BEFORE);
                        put_str(&mut out, target);
                        put_str(&mut out, name);
                    }
                    UpdateOp::DeleteSubtree => {
                        out.push(UPD_DELETE);
                        put_str(&mut out, target);
                    }
                }
            }
            Request::Stats => out.push(OP_STATS),
            Request::Fsck => out.push(OP_FSCK),
            Request::Begin => out.push(OP_BEGIN),
            Request::End => out.push(OP_END),
            Request::Shutdown => out.push(OP_SHUTDOWN),
            Request::ReplSubscribe { last_epoch } => {
                out.push(OP_REPL_SUBSCRIBE);
                out.extend_from_slice(&last_epoch.to_le_bytes());
            }
            Request::ReplFetch { after_epoch, seq } => {
                out.push(OP_REPL_FETCH);
                out.extend_from_slice(&after_epoch.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Request::ReplAck { epoch } => {
                out.push(OP_REPL_ACK);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            Request::ReplApply { payload } => {
                out.push(OP_REPL_APPLY);
                put_bytes(&mut out, payload);
            }
            Request::ReplPromote => out.push(OP_REPL_PROMOTE),
        }
        out
    }

    /// Decode a frame body. [`ProtoError::Malformed`] leaves the
    /// connection usable (the frame was still delimited).
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            OP_PING => Request::Ping,
            OP_QUERY => {
                let flags = c.u8()?;
                if flags > 1 {
                    return Err(ProtoError::Malformed("unknown query flags"));
                }
                Request::Query {
                    count_only: flags == 1,
                    xpath: c.str()?,
                }
            }
            OP_DUMP => Request::Dump,
            OP_UPDATE => {
                let op = c.u8()?;
                let target = c.str()?;
                let op = match op {
                    UPD_APPEND_ELEMENT => UpdateOp::AppendElement { name: c.str()? },
                    UPD_APPEND_TEXT => UpdateOp::AppendText { text: c.str()? },
                    UPD_INSERT_BEFORE => UpdateOp::InsertBefore { name: c.str()? },
                    UPD_DELETE => UpdateOp::DeleteSubtree,
                    _ => return Err(ProtoError::Malformed("unknown update op")),
                };
                Request::Update { target, op }
            }
            OP_STATS => Request::Stats,
            OP_FSCK => Request::Fsck,
            OP_BEGIN => Request::Begin,
            OP_END => Request::End,
            OP_SHUTDOWN => Request::Shutdown,
            OP_REPL_SUBSCRIBE => Request::ReplSubscribe {
                last_epoch: c.u64()?,
            },
            OP_REPL_FETCH => Request::ReplFetch {
                after_epoch: c.u64()?,
                seq: c.u32()?,
            },
            OP_REPL_ACK => Request::ReplAck { epoch: c.u64()? },
            OP_REPL_APPLY => Request::ReplApply {
                payload: c.bytes()?,
            },
            OP_REPL_PROMOTE => Request::ReplPromote,
            _ => return Err(ProtoError::Malformed("unknown opcode")),
        };
        c.done()?;
        Ok(req)
    }
}

const ST_OK_PONG: u8 = 0;
const ST_OK_QUERY: u8 = 1;
const ST_OK_DUMP: u8 = 2;
const ST_OK_UPDATE: u8 = 3;
const ST_OK_STATS: u8 = 4;
const ST_OK_FSCK: u8 = 5;
const ST_OK_BEGIN: u8 = 6;
const ST_OK_END: u8 = 7;
const ST_OK_SHUTDOWN: u8 = 8;
const ST_SESSION_EXPIRED: u8 = 9;
const ST_OK_REPL_SUBSCRIBE: u8 = 10;
const ST_OK_REPL_BATCH: u8 = 11;
const ST_OK_REPL_ACK: u8 = 12;
const ST_OK_REPL_APPLY: u8 = 13;
const ST_OK_REPL_PROMOTE: u8 = 14;
const ST_ERROR: u8 = 64;
const ST_RETRY_AFTER: u8 = 65;

impl ErrKind {
    fn to_u8(self) -> u8 {
        match self {
            ErrKind::Proto => 0,
            ErrKind::BadRequest => 1,
            ErrKind::InvalidUpdate => 2,
            ErrKind::Corrupt => 3,
            ErrKind::Io => 4,
            ErrKind::Internal => 5,
            ErrKind::Fenced => 6,
        }
    }

    fn from_u8(b: u8) -> Result<ErrKind, ProtoError> {
        Ok(match b {
            0 => ErrKind::Proto,
            1 => ErrKind::BadRequest,
            2 => ErrKind::InvalidUpdate,
            3 => ErrKind::Corrupt,
            4 => ErrKind::Io,
            5 => ErrKind::Internal,
            6 => ErrKind::Fenced,
            _ => return Err(ProtoError::Malformed("unknown error kind")),
        })
    }
}

impl std::fmt::Display for ErrKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrKind::Proto => "protocol",
            ErrKind::BadRequest => "bad-request",
            ErrKind::InvalidUpdate => "invalid-update",
            ErrKind::Corrupt => "corrupt",
            ErrKind::Io => "io",
            ErrKind::Internal => "internal",
            ErrKind::Fenced => "fenced",
        };
        f.write_str(s)
    }
}

impl Response {
    /// Encode into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let status = match &self.body {
            ResponseBody::Pong => ST_OK_PONG,
            ResponseBody::QueryResult { .. } => ST_OK_QUERY,
            ResponseBody::DumpResult { .. } => ST_OK_DUMP,
            ResponseBody::UpdateDone => ST_OK_UPDATE,
            ResponseBody::StatsText(_) => ST_OK_STATS,
            ResponseBody::FsckResult { .. } => ST_OK_FSCK,
            ResponseBody::SessionPinned => ST_OK_BEGIN,
            ResponseBody::SessionReleased => ST_OK_END,
            ResponseBody::ShuttingDown => ST_OK_SHUTDOWN,
            ResponseBody::SessionExpired => ST_SESSION_EXPIRED,
            ResponseBody::ReplSubscribed => ST_OK_REPL_SUBSCRIBE,
            ResponseBody::ReplBatchPart { .. } => ST_OK_REPL_BATCH,
            ResponseBody::ReplAckOk => ST_OK_REPL_ACK,
            ResponseBody::ReplApplied { .. } => ST_OK_REPL_APPLY,
            ResponseBody::ReplPromoted => ST_OK_REPL_PROMOTE,
            ResponseBody::Error { .. } => ST_ERROR,
            ResponseBody::RetryAfter { .. } => ST_RETRY_AFTER,
        };
        out.push(status);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        match &self.body {
            ResponseBody::QueryResult { count, lines } => {
                out.extend_from_slice(&count.to_le_bytes());
                out.extend_from_slice(&(lines.len() as u32).to_le_bytes());
                for l in lines {
                    put_str(&mut out, l);
                }
            }
            ResponseBody::DumpResult { xml } => put_str(&mut out, xml),
            ResponseBody::StatsText(s) => put_str(&mut out, s),
            ResponseBody::FsckResult { clean, report } => {
                out.push(u8::from(*clean));
                put_str(&mut out, report);
            }
            ResponseBody::Error { kind, message } => {
                out.push(kind.to_u8());
                put_str(&mut out, message);
            }
            ResponseBody::RetryAfter { kind, millis, what } => {
                // Byte 1 is unassigned.
                out.push(match kind {
                    ShedKind::Overloaded => 0,
                    ShedKind::ReadOnly => 2,
                });
                out.extend_from_slice(&millis.to_le_bytes());
                put_str(&mut out, what);
            }
            ResponseBody::ReplBatchPart { payload } => put_bytes(&mut out, payload),
            ResponseBody::ReplApplied { complete } => out.push(u8::from(*complete)),
            ResponseBody::Pong
            | ResponseBody::UpdateDone
            | ResponseBody::SessionPinned
            | ResponseBody::SessionReleased
            | ResponseBody::SessionExpired
            | ResponseBody::ShuttingDown
            | ResponseBody::ReplSubscribed
            | ResponseBody::ReplAckOk
            | ResponseBody::ReplPromoted => {}
        }
        out
    }

    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        let mut c = Cursor::new(body);
        let status = c.u8()?;
        let epoch = c.u64()?;
        let body = match status {
            ST_OK_PONG => ResponseBody::Pong,
            ST_OK_QUERY => {
                let count = c.u32()?;
                let n = c.u32()? as usize;
                // Each line needs at least its 4-byte length: bound the
                // allocation by what the body can actually hold.
                if n > body.len() / 4 + 1 {
                    return Err(ProtoError::Malformed("line count exceeds body"));
                }
                let mut lines = Vec::with_capacity(n);
                for _ in 0..n {
                    lines.push(c.str()?);
                }
                ResponseBody::QueryResult { count, lines }
            }
            ST_OK_DUMP => ResponseBody::DumpResult { xml: c.str()? },
            ST_OK_UPDATE => ResponseBody::UpdateDone,
            ST_OK_STATS => ResponseBody::StatsText(c.str()?),
            ST_OK_FSCK => ResponseBody::FsckResult {
                clean: c.u8()? != 0,
                report: c.str()?,
            },
            ST_OK_BEGIN => ResponseBody::SessionPinned,
            ST_OK_END => ResponseBody::SessionReleased,
            ST_OK_SHUTDOWN => ResponseBody::ShuttingDown,
            ST_SESSION_EXPIRED => ResponseBody::SessionExpired,
            ST_OK_REPL_SUBSCRIBE => ResponseBody::ReplSubscribed,
            ST_OK_REPL_BATCH => ResponseBody::ReplBatchPart {
                payload: c.bytes()?,
            },
            ST_OK_REPL_ACK => ResponseBody::ReplAckOk,
            ST_OK_REPL_APPLY => {
                let flag = c.u8()?;
                if flag > 1 {
                    return Err(ProtoError::Malformed("unknown apply flag"));
                }
                ResponseBody::ReplApplied {
                    complete: flag == 1,
                }
            }
            ST_OK_REPL_PROMOTE => ResponseBody::ReplPromoted,
            ST_ERROR => ResponseBody::Error {
                kind: ErrKind::from_u8(c.u8()?)?,
                message: c.str()?,
            },
            ST_RETRY_AFTER => ResponseBody::RetryAfter {
                kind: match c.u8()? {
                    0 => ShedKind::Overloaded,
                    2 => ShedKind::ReadOnly,
                    _ => return Err(ProtoError::Malformed("unknown shed kind")),
                },
                millis: c.u32()?,
                what: c.str()?,
            },
            _ => return Err(ProtoError::Malformed("unknown status")),
        };
        c.done()?;
        Ok(Response { epoch, body })
    }
}
