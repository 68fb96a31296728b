//! # lll-sharded — a concurrent sharded map over per-shard rebalance domains
//!
//! [`LabelMap`](lll_api::LabelMap) is single-writer: every insert may
//! rebalance the one slot array all keys share. The layered structures keep
//! that rebalance cost low *per structure*, so the natural way to scale
//! writers is to partition the key space into **independent rebalance
//! domains**: [`ShardedMap`] splits the keys across many `LabelMap` shards
//! (each its own `Growable` doubling domain), with a directory of split
//! keys deciding which shard owns which key.
//!
//! * **Reads** (`get` / `contains_key` / `range`) clone the current
//!   directory snapshot's `Arc` under a shared lock on one of eight
//!   stripes — no allocation, and readers on different stripes share no
//!   cache line — drop that lock, then take the owning shard's shared
//!   lock. A writer on one shard never stalls readers of any other shard;
//!   readers of *its* shard wait for it, and a reader waits for a
//!   directory publish only while it swaps the reader's stripe.
//! * **Point writes** (`insert` / `get_mut_with` / `remove`) take exactly
//!   **one** shard lock, exclusively — writers on different shards never
//!   contend.
//! * **Splits and merges** run under the maintenance mutex: they
//!   restructure into *fresh* shards, mark the replaced shards retired — a
//!   flag every reader and writer checks under the shard lock — and then
//!   publish a successor directory, bouncing in-flight users of the old
//!   snapshot to a reload. Both are bulk moves over the `splice` path,
//!   so re-sharding costs O(shard), not O(n · polylog n).
//! * **Snapshots** ([`ShardedMap::write_snapshot`] /
//!   [`ShardedMap::read_snapshot`]) persist the split-key directory and
//!   each shard's sorted run under the maintenance mutex with every shard
//!   read-locked at once — an atomic picture that blocks writers but not
//!   readers — and restore pre-sharded via O(shard) bulk sweeps. See
//!   `docs/persistence.md`.
//!
//! ```
//! use lll_sharded::ShardedBuilder;
//! use std::sync::Arc;
//! use std::thread;
//!
//! let map = Arc::new(ShardedBuilder::new().max_shard_len(256).build::<u64, u64>());
//! thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let map = Arc::clone(&map);
//!         s.spawn(move || {
//!             for i in 0..500u64 {
//!                 map.insert(i * 4 + t, i); // disjoint stripes, 4 writers
//!             }
//!         });
//!     }
//! });
//! assert_eq!(map.len(), 2000);
//! assert!(map.stats().shards > 1, "growth should have split the key space");
//! ```
//!
//! Lock order is strict — maintenance mutex before shard locks, at most
//! one shard lock outside maintenance — and directory publication happens
//! only under the maintenance mutex with no shard lock held. The
//! directory's stripe locks are leaves: each is held for one `Arc` clone
//! or swap, never around another lock. The `lock_order` module enforces
//! the order at runtime in debug builds; lll-check's `lock-order` rule
//! enforces it statically. See
//! `docs/sharding.md` in the repository root for the full runbook (policy
//! knobs, concurrency model, split/merge invariants).

#![forbid(unsafe_code)]

mod builder;
mod lock_order;
mod map;

pub use builder::ShardedBuilder;
pub use lock_order::maintenance_acquisitions;
pub use map::{ShardPolicy, ShardedMap, ShardedStats};

// Compile-time thread-safety audit, mirroring `lll-api`'s: the whole point
// of this crate is to be shared across threads.
#[allow(dead_code)]
fn assert_thread_safe() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedMap<u64, String>>();
    assert_send_sync::<ShardedMap<String, Vec<u8>>>();
    assert_send_sync::<ShardedStats>();
    assert_send_sync::<ShardedBuilder>();
}
