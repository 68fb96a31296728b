//! # lll-server — an ordered-KV network service over `lll-sharded`
//!
//! The layered-list-labeling stack ends here in an actual service: a TCP
//! ordered key-value store whose engine is a
//! [`ShardedMap`](lll_sharded::ShardedMap) of opaque byte keys in
//! lexicographic order. The workspace builds offline (no tokio), so the
//! runtime is hand-rolled `std::net`: an accept loop feeding a **bounded
//! worker pool** (thread-per-connection with a hard cap — see
//! [`ServerConfig`]), which is exactly the shape the per-shard locking
//! was built for: point verbs touch one shard lock each, so connections
//! scale until the shards themselves contend.
//!
//! * **Wire protocol** ([`frame`], [`proto`]) — versioned, little-endian,
//!   length-framed request/response frames whose bodies reuse the
//!   snapshot [`Codec`](lll_api::persist::Codec), with the same
//!   discipline: decoders never panic, never trust a declared length for
//!   allocation, and surface typed [`WireError`]s.
//! * **Verbs** — `get`, `insert`, `remove`, `contains`,
//!   `range(start, end, limit)`, and `batch_insert`, which lands a whole
//!   batch through the per-shard write-batching path
//!   ([`ShardedMap::extend_from_unsorted`](lll_sharded::ShardedMap::extend_from_unsorted):
//!   sort, last-write-wins dedup, cut at the split keys, one bulk sweep
//!   per shard) instead of per-op inserts.
//! * **Ops surface** — `health`, `metrics` (per-verb latency quantiles,
//!   per-shard counts, split/merge/batch counters, total element moves,
//!   read-path and WAL counters, plus the Prometheus text), `trace`,
//!   `snapshot` (streams a PR-5 `ShardedMap` snapshot to disk under the
//!   maintenance barrier), and graceful `drain` (stop accepting, finish
//!   in-flight requests, optional final snapshot).
//! * **[`Client`]** — a blocking client in the same crate, sharing the
//!   frame codec; one round trip per call.
//!
//! ```no_run
//! use lll_server::{Client, Server, ServerConfig};
//! use lll_sharded::ShardedBuilder;
//! use std::sync::Arc;
//!
//! let map = Arc::new(ShardedBuilder::new().build());
//! let mut server = Server::start(map, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.insert(b"key", b"value").unwrap();
//! assert_eq!(client.get(b"key").unwrap().as_deref(), Some(&b"value"[..]));
//! server.shutdown();
//! ```
//!
//! The operational runbook — wire format tables, verb reference, drain
//! semantics, bench reproduction — is `docs/server.md` at the repository
//! root.

#![forbid(unsafe_code)]

pub mod frame;
pub mod proto;

mod client;
mod conn;
mod server;

pub use client::Client;
pub use frame::{WireError, MAX_FRAME_LEN, WIRE_MAGIC, WIRE_VERSION};
pub use proto::{
    HealthReply, MetricsReply, Request, Response, TraceEventWire, TraceReply, VerbLatency, VERBS,
};
pub use server::{DurableKvMap, KvMap, Server, ServerConfig, ServerHandle};

// Compile-time thread-safety audit: the handle is held on one thread
// while workers serve on others, and tests drain from spawned threads.
#[allow(dead_code)]
fn assert_thread_safe() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServerHandle>();
    assert_send_sync::<ServerConfig>();
    fn assert_send<T: Send>() {}
    assert_send::<Client>();
}
