//! The verb vocabulary: typed [`Request`] / [`Response`] messages and
//! their frame encodings.
//!
//! Requests carry opcodes `0x01..=0x0C`; responses carry `0x81..=0x8A`
//! (high bit set), so a stream position can never be misread as the other
//! direction. Request 0x02 and response 0x87 are unassigned: they carried
//! a `stats` verb that `metrics` replaced. Bodies are [`Codec`]-encoded; a
//! frame whose body leaves trailing bytes after its message decodes is
//! [`WireError::Corrupt`] — every byte is accounted for.
//!
//! Keys and values are **opaque byte strings** ordered lexicographically
//! (`Vec<u8>`'s `Ord`), the classic ordered-KV contract: any totally
//! ordered application key works once serialized order-preservingly.
//! See `docs/server.md` for the full wire tables.

// lll-check: enforce(panic-free-decode)
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::frame::{
    decode_bytes, decode_opt_bytes, encode_bytes, encode_opt_bytes, read_frame, write_frame, Frame,
    WireError,
};
use lll_api::persist::Codec;
use std::io::{Read, Write};

/// A client→server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness + load probe; never touches shard locks exclusively.
    Health,
    /// The value stored under a key.
    Get(Vec<u8>),
    /// Store `key → value`; replies with the previous value, if any.
    Insert(Vec<u8>, Vec<u8>),
    /// Remove a key; replies with the removed value, if any.
    Remove(Vec<u8>),
    /// Key-presence test.
    Contains(Vec<u8>),
    /// Ordered scan of `[start, end)` (either bound may be absent =
    /// unbounded), capped at `limit` entries.
    Range {
        /// Inclusive lower bound; `None` scans from the smallest key.
        start: Option<Vec<u8>>,
        /// Exclusive upper bound; `None` scans to the largest key.
        end: Option<Vec<u8>>,
        /// Entry cap; the reply says whether the scan was truncated.
        limit: u64,
    },
    /// Land many entries in one round trip. The server sorts the batch,
    /// dedups it (last write wins), cuts it at the shard directory's
    /// split keys, and lands each run via the per-shard bulk sweep.
    BatchInsert(Vec<(Vec<u8>, Vec<u8>)>),
    /// Stream a durable snapshot to a server-side path (written under the
    /// maintenance barrier — one atomic picture even under writers).
    Snapshot {
        /// Server-side filesystem path to write.
        path: String,
    },
    /// Graceful drain: stop accepting connections, finish in-flight
    /// requests, optionally write a final snapshot first.
    Drain {
        /// Server-side path for a final snapshot before draining.
        final_snapshot: Option<String>,
    },
    /// Full observability dump: per-verb latency quantiles, the map's
    /// counters and per-shard gauges, and the Prometheus text exposition.
    Metrics,
    /// Drain the map's structural-event trace ring (splits, merges,
    /// snapshots, drains).
    Trace,
}

/// Verb names in opcode order (`VERBS[request.verb_index()]`) — the label
/// vocabulary of the per-verb latency histograms and
/// [`MetricsReply::verbs`].
pub const VERBS: [&str; 11] = [
    "health",
    "get",
    "insert",
    "remove",
    "contains",
    "range",
    "batch_insert",
    "snapshot",
    "drain",
    "metrics",
    "trace",
];

/// A server→client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The verb succeeded and returns nothing.
    Ok,
    /// An optional value (`Get` / `Insert` / `Remove`).
    Value(Option<Vec<u8>>),
    /// A yes/no answer (`Contains`).
    Bool(bool),
    /// An ordered slice of entries (`Range`).
    Entries {
        /// The entries, ascending by key.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        /// True if more entries existed past the requested limit.
        truncated: bool,
    },
    /// `BatchInsert` accounting.
    Batched {
        /// Entries received on the wire.
        received: u64,
        /// Unique entries landed after last-write-wins dedup.
        landed: u64,
    },
    /// `Health` reply.
    Health(HealthReply),
    /// The verb failed server-side; the connection stays usable unless
    /// the failure was a protocol violation.
    Error(String),
    /// `Metrics` reply.
    Metrics(MetricsReply),
    /// `Trace` reply.
    Trace(TraceReply),
}

/// Liveness + load snapshot (the `Health` verb).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthReply {
    /// True once a drain has begun (new connections are refused).
    pub draining: bool,
    /// Connections currently being served.
    pub active_conns: u64,
    /// Requests served since the server started.
    pub served_requests: u64,
    /// Entries in the map.
    pub len: u64,
}

/// One verb's request-latency summary inside a [`MetricsReply`]:
/// quantiles read from the server's log2-bucketed histogram (each is the
/// bucket's inclusive upper bound, capped at the exact observed max).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerbLatency {
    /// The verb name (see [`VERBS`]).
    pub verb: String,
    /// Requests of this verb served.
    pub count: u64,
    /// Median request latency, nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile request latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_ns: u64,
    /// Largest request latency observed, nanoseconds (exact).
    pub max_ns: u64,
}

/// The `Metrics` verb's reply: a structured dump plus the same data as a
/// Prometheus text exposition, so both programmatic consumers and
/// scrapers are served by one verb. Its layout is versioned by the frame
/// header's [`WIRE_VERSION`](crate::WIRE_VERSION).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsReply {
    /// Per-verb latency summaries, in [`VERBS`] order.
    pub verbs: Vec<VerbLatency>,
    /// Per-shard entry counts, in key order: the shard count is its
    /// length, the map length its sum.
    pub shard_lens: Vec<u64>,
    /// Per-shard point reads served, in key order (monotone across
    /// resharding — merges fold the retired shard into the survivor).
    pub shard_reads: Vec<u64>,
    /// Per-shard point writes served, in key order (same monotonicity).
    pub shard_writes: Vec<u64>,
    /// Shard splits since construction.
    pub splits: u64,
    /// Shard merges since construction.
    pub merges: u64,
    /// Bulk batches landed since construction.
    pub batches: u64,
    /// Entries landed through those batches.
    pub batched_entries: u64,
    /// Total element moves across shard backends (the paper's cost
    /// measure), monotone over the map's lifetime.
    pub total_moves: u64,
    /// WAL records appended (zero when the server is not in durable
    /// mode).
    pub wal_appends: u64,
    /// WAL `fdatasync` calls (zero when not durable).
    pub wal_fsyncs: u64,
    /// WAL segment rotations (zero when not durable).
    pub wal_rotations: u64,
    /// WAL segments deleted by checkpoint truncation (zero when not
    /// durable).
    pub wal_truncated_segments: u64,
    /// Highest fsync-durable LSN (zero when not durable).
    pub wal_durable_lsn: u64,
    /// Prometheus text exposition of everything above.
    pub text: String,
}

/// One structural event on the wire (see `lll_obs::TraceKind` for the
/// kind vocabulary and per-kind payload layouts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceEventWire {
    /// Global record order, monotone over the ring's lifetime.
    pub seq: u64,
    /// The event kind as recorded (`lll_obs::TraceKind as u64`).
    pub kind: u64,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

/// The `Trace` verb's reply: the ring's current contents, oldest first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceReply {
    /// Recent structural events, ascending by `seq`. The ring is bounded:
    /// older events may have been overwritten.
    pub events: Vec<TraceEventWire>,
}

impl Codec for HealthReply {
    fn encode<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), lll_api::SnapshotError> {
        self.draining.encode(w)?;
        self.active_conns.encode(w)?;
        self.served_requests.encode(w)?;
        self.len.encode(w)
    }

    fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, lll_api::SnapshotError> {
        Ok(Self {
            draining: bool::decode(r)?,
            active_conns: u64::decode(r)?,
            served_requests: u64::decode(r)?,
            len: u64::decode(r)?,
        })
    }
}

impl Codec for VerbLatency {
    fn encode<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), lll_api::SnapshotError> {
        self.verb.encode(w)?;
        self.count.encode(w)?;
        self.p50_ns.encode(w)?;
        self.p95_ns.encode(w)?;
        self.p99_ns.encode(w)?;
        self.max_ns.encode(w)
    }

    fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, lll_api::SnapshotError> {
        Ok(Self {
            verb: String::decode(r)?,
            count: u64::decode(r)?,
            p50_ns: u64::decode(r)?,
            p95_ns: u64::decode(r)?,
            p99_ns: u64::decode(r)?,
            max_ns: u64::decode(r)?,
        })
    }
}

impl Codec for MetricsReply {
    fn encode<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), lll_api::SnapshotError> {
        self.verbs.encode(w)?;
        self.shard_lens.encode(w)?;
        self.shard_reads.encode(w)?;
        self.shard_writes.encode(w)?;
        self.splits.encode(w)?;
        self.merges.encode(w)?;
        self.batches.encode(w)?;
        self.batched_entries.encode(w)?;
        self.total_moves.encode(w)?;
        self.wal_appends.encode(w)?;
        self.wal_fsyncs.encode(w)?;
        self.wal_rotations.encode(w)?;
        self.wal_truncated_segments.encode(w)?;
        self.wal_durable_lsn.encode(w)?;
        self.text.encode(w)
    }

    fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, lll_api::SnapshotError> {
        Ok(Self {
            verbs: Vec::<VerbLatency>::decode(r)?,
            shard_lens: Vec::<u64>::decode(r)?,
            shard_reads: Vec::<u64>::decode(r)?,
            shard_writes: Vec::<u64>::decode(r)?,
            splits: u64::decode(r)?,
            merges: u64::decode(r)?,
            batches: u64::decode(r)?,
            batched_entries: u64::decode(r)?,
            total_moves: u64::decode(r)?,
            wal_appends: u64::decode(r)?,
            wal_fsyncs: u64::decode(r)?,
            wal_rotations: u64::decode(r)?,
            wal_truncated_segments: u64::decode(r)?,
            wal_durable_lsn: u64::decode(r)?,
            text: String::decode(r)?,
        })
    }
}

impl Codec for TraceEventWire {
    fn encode<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), lll_api::SnapshotError> {
        self.seq.encode(w)?;
        self.kind.encode(w)?;
        self.a.encode(w)?;
        self.b.encode(w)?;
        self.c.encode(w)
    }

    fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, lll_api::SnapshotError> {
        Ok(Self {
            seq: u64::decode(r)?,
            kind: u64::decode(r)?,
            a: u64::decode(r)?,
            b: u64::decode(r)?,
            c: u64::decode(r)?,
        })
    }
}

impl Codec for TraceReply {
    fn encode<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), lll_api::SnapshotError> {
        self.events.encode(w)
    }

    fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, lll_api::SnapshotError> {
        Ok(Self { events: Vec::<TraceEventWire>::decode(r)? })
    }
}

/// Require the body reader to be fully consumed — a decoded message must
/// account for every frame byte, or a bit flip could smuggle state.
fn expect_drained(rest: &[u8], what: &str) -> Result<(), WireError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(WireError::Corrupt(format!("{} trailing bytes after {what} body", rest.len())))
    }
}

impl Request {
    /// This request's frame opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Health => 0x01,
            Request::Get(_) => 0x03,
            Request::Insert(_, _) => 0x04,
            Request::Remove(_) => 0x05,
            Request::Contains(_) => 0x06,
            Request::Range { .. } => 0x07,
            Request::BatchInsert(_) => 0x08,
            Request::Snapshot { .. } => 0x09,
            Request::Drain { .. } => 0x0A,
            Request::Metrics => 0x0B,
            Request::Trace => 0x0C,
        }
    }

    /// This request's index into [`VERBS`] (and into the server's
    /// per-verb latency histograms).
    pub fn verb_index(&self) -> usize {
        match self {
            Request::Health => 0,
            Request::Get(_) => 1,
            Request::Insert(_, _) => 2,
            Request::Remove(_) => 3,
            Request::Contains(_) => 4,
            Request::Range { .. } => 5,
            Request::BatchInsert(_) => 6,
            Request::Snapshot { .. } => 7,
            Request::Drain { .. } => 8,
            Request::Metrics => 9,
            Request::Trace => 10,
        }
    }

    /// Encode and write this request as one frame (caller flushes).
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), WireError> {
        let mut body = Vec::new();
        match self {
            Request::Health | Request::Metrics | Request::Trace => {}
            Request::Get(k) | Request::Remove(k) | Request::Contains(k) => {
                encode_bytes(&mut body, k)?;
            }
            Request::Insert(k, v) => {
                encode_bytes(&mut body, k)?;
                encode_bytes(&mut body, v)?;
            }
            Request::Range { start, end, limit } => {
                encode_opt_bytes(&mut body, start.as_deref())?;
                encode_opt_bytes(&mut body, end.as_deref())?;
                limit.encode(&mut body)?;
            }
            Request::BatchInsert(entries) => {
                (entries.len() as u64).encode(&mut body)?;
                for (k, v) in entries {
                    encode_bytes(&mut body, k)?;
                    encode_bytes(&mut body, v)?;
                }
            }
            Request::Snapshot { path } => path.encode(&mut body)?,
            Request::Drain { final_snapshot } => final_snapshot.encode(&mut body)?,
        }
        write_frame(w, self.opcode(), &body)
    }

    /// Parse a received frame into a request.
    pub fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        let r = &mut frame.body.as_slice();
        let req = match frame.opcode {
            0x01 => Request::Health,
            0x03 => Request::Get(decode_bytes(r)?),
            0x04 => Request::Insert(decode_bytes(r)?, decode_bytes(r)?),
            0x05 => Request::Remove(decode_bytes(r)?),
            0x06 => Request::Contains(decode_bytes(r)?),
            0x07 => Request::Range {
                start: decode_opt_bytes(r)?,
                end: decode_opt_bytes(r)?,
                limit: u64::decode(r)?,
            },
            0x08 => {
                let count = lll_api::persist::decode_len(r)?;
                let mut entries =
                    Vec::with_capacity(count.min(lll_api::persist::PREALLOC_CAP / 16));
                for _ in 0..count {
                    entries.push((decode_bytes(r)?, decode_bytes(r)?));
                }
                Request::BatchInsert(entries)
            }
            0x09 => Request::Snapshot { path: String::decode(r)? },
            0x0A => Request::Drain { final_snapshot: Option::<String>::decode(r)? },
            0x0B => Request::Metrics,
            0x0C => Request::Trace,
            other => return Err(WireError::UnknownOpcode(other)),
        };
        expect_drained(r, "request")?;
        Ok(req)
    }

    /// Read one request frame and parse it.
    pub fn read_from<R: Read + ?Sized>(r: &mut R) -> Result<Self, WireError> {
        Self::from_frame(&read_frame(r)?)
    }
}

impl Response {
    /// This response's frame opcode (high bit set).
    pub fn opcode(&self) -> u8 {
        match self {
            Response::Ok => 0x81,
            Response::Value(_) => 0x82,
            Response::Bool(_) => 0x83,
            Response::Entries { .. } => 0x84,
            Response::Batched { .. } => 0x85,
            Response::Health(_) => 0x86,
            Response::Error(_) => 0x88,
            Response::Metrics(_) => 0x89,
            Response::Trace(_) => 0x8A,
        }
    }

    /// Encode and write this response as one frame (caller flushes).
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), WireError> {
        let mut body = Vec::new();
        match self {
            Response::Ok => {}
            Response::Value(v) => encode_opt_bytes(&mut body, v.as_deref())?,
            Response::Bool(b) => b.encode(&mut body)?,
            Response::Entries { entries, truncated } => {
                (entries.len() as u64).encode(&mut body)?;
                for (k, v) in entries {
                    encode_bytes(&mut body, k)?;
                    encode_bytes(&mut body, v)?;
                }
                truncated.encode(&mut body)?;
            }
            Response::Batched { received, landed } => {
                received.encode(&mut body)?;
                landed.encode(&mut body)?;
            }
            Response::Health(h) => h.encode(&mut body)?,
            Response::Error(msg) => msg.encode(&mut body)?,
            Response::Metrics(m) => m.encode(&mut body)?,
            Response::Trace(t) => t.encode(&mut body)?,
        }
        write_frame(w, self.opcode(), &body)
    }

    /// Parse a received frame into a response.
    pub fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        let r = &mut frame.body.as_slice();
        let resp = match frame.opcode {
            0x81 => Response::Ok,
            0x82 => Response::Value(decode_opt_bytes(r)?),
            0x83 => Response::Bool(bool::decode(r)?),
            0x84 => {
                let count = lll_api::persist::decode_len(r)?;
                let mut entries =
                    Vec::with_capacity(count.min(lll_api::persist::PREALLOC_CAP / 16));
                for _ in 0..count {
                    entries.push((decode_bytes(r)?, decode_bytes(r)?));
                }
                Response::Entries { entries, truncated: bool::decode(r)? }
            }
            0x85 => Response::Batched { received: u64::decode(r)?, landed: u64::decode(r)? },
            0x86 => Response::Health(HealthReply::decode(r)?),
            0x88 => Response::Error(String::decode(r)?),
            0x89 => Response::Metrics(MetricsReply::decode(r)?),
            0x8A => Response::Trace(TraceReply::decode(r)?),
            other => return Err(WireError::UnknownOpcode(other)),
        };
        expect_drained(r, "response")?;
        Ok(resp)
    }

    /// Read one response frame and parse it.
    pub fn read_from<R: Read + ?Sized>(r: &mut R) -> Result<Self, WireError> {
        Self::from_frame(&read_frame(r)?)
    }
}
