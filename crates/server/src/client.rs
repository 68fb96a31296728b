//! A blocking [`Client`] speaking the same frame codec as the server —
//! one request/response round trip per call, suitable for tests, tools,
//! and thread-per-connection workloads.

use crate::frame::WireError;
use crate::proto::{HealthReply, MetricsReply, Request, Response, TraceReply};
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking connection to an `lll-server`.
///
/// Every method is one round trip; a server-reported failure surfaces as
/// [`WireError::Remote`], a response of the wrong kind as
/// [`WireError::Corrupt`]. The connection is not usable concurrently from
/// multiple threads — open one client per thread (connections are cheap;
/// the server pools them).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(Self { reader: BufReader::new(read_half), writer: BufWriter::new(stream) })
    }

    /// One request/response round trip.
    fn call(&mut self, request: &Request) -> Result<Response, WireError> {
        request.write_to(&mut self.writer)?;
        self.writer.flush()?;
        match Response::read_from(&mut self.reader)? {
            Response::Error(msg) => Err(WireError::Remote(msg)),
            other => Ok(other),
        }
    }

    fn unexpected(got: &Response, wanted: &str) -> WireError {
        WireError::Corrupt(format!("expected {wanted} response, got opcode {:#x}", got.opcode()))
    }

    /// The value stored under `key`.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, WireError> {
        match self.call(&Request::Get(key.to_vec()))? {
            Response::Value(v) => Ok(v),
            other => Err(Self::unexpected(&other, "Value")),
        }
    }

    /// Store `key → value`; returns the previous value, if any.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, WireError> {
        match self.call(&Request::Insert(key.to_vec(), value.to_vec()))? {
            Response::Value(v) => Ok(v),
            other => Err(Self::unexpected(&other, "Value")),
        }
    }

    /// Remove `key`; returns the removed value, if any.
    pub fn remove(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, WireError> {
        match self.call(&Request::Remove(key.to_vec()))? {
            Response::Value(v) => Ok(v),
            other => Err(Self::unexpected(&other, "Value")),
        }
    }

    /// True if `key` is present.
    pub fn contains(&mut self, key: &[u8]) -> Result<bool, WireError> {
        match self.call(&Request::Contains(key.to_vec()))? {
            Response::Bool(b) => Ok(b),
            other => Err(Self::unexpected(&other, "Bool")),
        }
    }

    /// Ordered scan of `[start, end)` (`None` = unbounded on that side),
    /// capped at `limit` entries. The boolean is true if the scan was
    /// truncated — more entries exist past the last one returned.
    #[allow(clippy::type_complexity)]
    pub fn range(
        &mut self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
        limit: u64,
    ) -> Result<(Vec<(Vec<u8>, Vec<u8>)>, bool), WireError> {
        let request = Request::Range {
            start: start.map(<[u8]>::to_vec),
            end: end.map(<[u8]>::to_vec),
            limit,
        };
        match self.call(&request)? {
            Response::Entries { entries, truncated } => Ok((entries, truncated)),
            other => Err(Self::unexpected(&other, "Entries")),
        }
    }

    /// Land a batch in one round trip (server-side sort + last-write-wins
    /// dedup + per-shard bulk sweeps). Returns the unique entries landed.
    pub fn batch_insert(&mut self, entries: Vec<(Vec<u8>, Vec<u8>)>) -> Result<u64, WireError> {
        match self.call(&Request::BatchInsert(entries))? {
            Response::Batched { landed, .. } => Ok(landed),
            other => Err(Self::unexpected(&other, "Batched")),
        }
    }

    /// Liveness + load probe.
    pub fn health(&mut self) -> Result<HealthReply, WireError> {
        match self.call(&Request::Health)? {
            Response::Health(h) => Ok(h),
            other => Err(Self::unexpected(&other, "Health")),
        }
    }

    /// Full observability dump: per-verb latency quantiles, the map's
    /// counters and per-shard gauges, and the Prometheus text exposition.
    pub fn metrics(&mut self) -> Result<MetricsReply, WireError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(m) => Ok(m),
            other => Err(Self::unexpected(&other, "Metrics")),
        }
    }

    /// Drain the server's structural-event trace ring (splits, merges,
    /// snapshots, drains), oldest first.
    pub fn trace(&mut self) -> Result<TraceReply, WireError> {
        match self.call(&Request::Trace)? {
            Response::Trace(t) => Ok(t),
            other => Err(Self::unexpected(&other, "Trace")),
        }
    }

    /// Ask the server to stream a snapshot to a **server-side** path.
    pub fn snapshot(&mut self, path: &str) -> Result<(), WireError> {
        match self.call(&Request::Snapshot { path: path.to_string() })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(&other, "Ok")),
        }
    }

    /// Ask the server to drain gracefully, optionally writing a final
    /// snapshot first. The server closes this connection after replying.
    pub fn drain(&mut self, final_snapshot: Option<&str>) -> Result<(), WireError> {
        let request = Request::Drain { final_snapshot: final_snapshot.map(str::to_string) };
        match self.call(&request)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(&other, "Ok")),
        }
    }
}
