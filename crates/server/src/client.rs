//! Blocking client for the `natix serve` wire protocol.
//!
//! [`Client`] is one connection: each call writes a request frame and
//! blocks for the response frame. Sockets carry generous read/write
//! timeouts so a wedged server surfaces as an error, never a hang.
//! [`Client::request_retry`] additionally honors typed
//! [`ResponseBody::RetryAfter`] responses by sleeping the advertised
//! hint and retrying, which is the cooperative half of the server's
//! backpressure contract.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::server::read_response;
use crate::stats::Stats;
use crate::wire::{write_frame, ProtoError, Request, Response, ResponseBody};

/// Socket-level timeout for client reads and writes.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One blocking connection to a `natix serve` daemon.
pub struct Client {
    stream: TcpStream,
}

/// Client-side failure: transport/protocol trouble, or giving up on a
/// server that keeps shedding.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, framing or decoding failed.
    Proto(ProtoError),
    /// The server kept answering retry-after past the retry budget.
    StillOverloaded {
        /// Attempts made (initial + retries).
        attempts: u32,
        /// What the server reported as saturated.
        what: String,
    },
    /// The session's pin lease expired server-side and the pin was
    /// released; the well-behaved recovery is [`Client::begin`] again.
    SessionExpired,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::StillOverloaded { attempts, what } => {
                write!(
                    f,
                    "server still overloaded ({what}) after {attempts} attempts"
                )
            }
            ClientError::SessionExpired => {
                write!(f, "session lease expired (pin released); begin again")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

impl Client {
    /// Connect to a serving daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_IO_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT))?;
        Ok(Client { stream })
    }

    /// Send one request and block for its response.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &req.encode())?;
        Ok(read_response(&mut self.stream)?)
    }

    /// Send a request, honoring retry-after responses: sleep the hinted
    /// backoff and retry, up to `max_retries` extra attempts.
    pub fn request_retry(
        &mut self,
        req: &Request,
        max_retries: u32,
    ) -> Result<(Response, u32), ClientError> {
        let mut retries = 0u32;
        loop {
            let resp = self.request(req)?;
            match &resp.body {
                ResponseBody::RetryAfter { millis, what, .. } => {
                    if retries >= max_retries {
                        return Err(ClientError::StillOverloaded {
                            attempts: retries + 1,
                            what: what.clone(),
                        });
                    }
                    retries += 1;
                    std::thread::sleep(Duration::from_millis((*millis).max(1) as u64));
                }
                _ => return Ok((resp, retries)),
            }
        }
    }

    /// Health check; returns the committed epoch.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        let resp = self.request(&Request::Ping)?;
        match resp.body {
            ResponseBody::Pong => Ok(resp.epoch),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Pin this connection's session to the committed epoch.
    pub fn begin(&mut self) -> Result<u64, ClientError> {
        let resp = self.request(&Request::Begin)?;
        match resp.body {
            ResponseBody::SessionPinned => Ok(resp.epoch),
            other => Err(unexpected("session pin", &other)),
        }
    }

    /// Release this connection's session pin.
    pub fn end(&mut self) -> Result<(), ClientError> {
        let resp = self.request(&Request::End)?;
        match resp.body {
            ResponseBody::SessionReleased => Ok(()),
            other => Err(unexpected("session release", &other)),
        }
    }

    /// Evaluate an XPath query; returns `(epoch, count, rendered hits)`.
    pub fn query(&mut self, xpath: &str) -> Result<(u64, u32, Vec<String>), ClientError> {
        let resp = self.request(&Request::Query {
            xpath: xpath.to_string(),
            count_only: false,
        })?;
        match resp.body {
            ResponseBody::QueryResult { count, lines } => Ok((resp.epoch, count, lines)),
            other => Err(unexpected("query result", &other)),
        }
    }

    /// Serialize the committed document; returns `(epoch, xml)`.
    pub fn dump(&mut self) -> Result<(u64, String), ClientError> {
        let resp = self.request(&Request::Dump)?;
        match resp.body {
            ResponseBody::DumpResult { xml } => Ok((resp.epoch, xml)),
            other => Err(unexpected("dump result", &other)),
        }
    }

    /// Ask the server to run fsck; returns `(clean, report)`.
    pub fn fsck(&mut self) -> Result<(bool, String), ClientError> {
        let resp = self.request(&Request::Fsck)?;
        match resp.body {
            ResponseBody::FsckResult { clean, report } => Ok((clean, report)),
            other => Err(unexpected("fsck result", &other)),
        }
    }

    /// Fetch the server's named counters (see [`Stats`]). Text that
    /// does not parse is a protocol error.
    pub fn stats(&mut self) -> Result<Stats, ClientError> {
        let resp = self.request(&Request::Stats)?;
        match resp.body {
            ResponseBody::StatsText(text) => {
                Stats::parse(&text).map_err(|e| std::io::Error::other(e).into())
            }
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Promote a replica to primary; returns the fencing epoch.
    pub fn promote(&mut self) -> Result<u64, ClientError> {
        let resp = self.request(&Request::ReplPromote)?;
        match resp.body {
            ResponseBody::ReplPromoted => Ok(resp.epoch),
            other => Err(unexpected("promotion ack", &other)),
        }
    }

    /// Request a graceful server shutdown.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let resp = self.request(&Request::Shutdown)?;
        match resp.body {
            ResponseBody::ShuttingDown => Ok(()),
            other => Err(unexpected("shutdown ack", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &ResponseBody) -> ClientError {
    // An expired lease can answer any verb; surface it typed so callers
    // can re-`begin` instead of treating it as protocol trouble.
    if matches!(got, ResponseBody::SessionExpired) {
        return ClientError::SessionExpired;
    }
    ClientError::Proto(ProtoError::Io(std::io::Error::other(format!(
        "expected {wanted}, got {got:?}"
    ))))
}
