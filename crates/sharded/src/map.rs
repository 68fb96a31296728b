//! [`ShardedMap`]: the concurrent façade over per-shard list-labeling
//! domains.
//!
//! # Locking protocol
//!
//! A read takes its stripe's shared directory lock for one `Arc` clone,
//! then one shared shard lock; writers serialize structure under one
//! mutex. Three levels:
//!
//! * The **directory** is an immutable [`Directory`] snapshot published
//!   through a [`Striped`] cell: a reader [`load`](Striped::load)s it (its
//!   stripe's shared lock, held for one `Arc` clone, no allocation) and
//!   drops the lock before it touches a shard. Structural maintenance
//!   clones the directory and [`publish`](Striped::publish)es the
//!   successor, a copy into each stripe in turn; `Arc` frees the old
//!   snapshot once its last reader is done.
//! * The **maintenance mutex** (`ShardedMap::maint`) is the outermost
//!   lock level: splits, merges, batches, and snapshots serialize under
//!   it, so at most one thread restructures (and publishes) at a time.
//! * Each **shard** ([`Shard`]) pairs a `RwLock<LabelMap>` with a
//!   **retired** flag. Readers take the shared lock, writers the exclusive
//!   one, and both check the flag under it. A split or merge sets the flag
//!   under the exclusive lock once the shard's keys live elsewhere.
//!
//! Point operations hold at most one shard lock; only a maintenance
//! holder stacks several (merges lock a neighboring pair, snapshots
//! read-lock every shard for one atomic picture). Publication happens
//! with **no** shard lock held, after the retiring shard's flag is set —
//! a reader of the old snapshot therefore either sees the shard's
//! pre-retirement content (consistent) or the flag, which sends it back
//! to reload the directory. The `lock_order` module enforces the order
//! dynamically in debug builds; lll-check's `lock-order` rule enforces it
//! statically.

use crate::lock_order::{mlock, rlock, wlock, Level, Striped, Tracked};
use lll_api::persist::{Codec, ContainerKind, Header, SnapshotError};
use lll_api::{LabelMap, ListBuilder, RawList};
use lll_core::rng::derive_seed;
use lll_obs::{Counter, TraceKind, TraceRing};
use std::borrow::Borrow;
use std::fmt;
use std::io::{Read, Write};
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockWriteGuard};

/// Events the per-map [`TraceRing`] holds before the oldest is overwritten.
const TRACE_CAPACITY: usize = 256;

/// Per-shard operation counters. The counters are atomic, so concurrent
/// readers and writers bump them without coordination; merges fold the
/// retired shard's counts into the survivor so totals stay monotone.
#[derive(Default)]
struct ShardObs {
    /// Point reads served (`get_with` / `contains_key`).
    reads: Counter,
    /// Point writes served (`insert` / `remove` / `get_mut_with`).
    writes: Counter,
}

impl ShardObs {
    /// Fold `other`'s counts into `self` — run when a merge retires the
    /// right shard, so per-shard counts stay monotone across resharding.
    fn absorb(&self, other: &ShardObs) {
        self.reads.add(other.reads.get());
        self.writes.add(other.writes.get());
    }
}

/// An exclusive shard guard.
type ShardWrite<'a, K, V> = Tracked<RwLockWriteGuard<'a, LabelMap<K, V>>>;

/// One rebalance domain: a `LabelMap` behind its lock, the shard's op
/// counters, and the flag that marks it replaced. Shards are shared
/// (`Arc`) between successive directory snapshots — a split or merge
/// replaces only the entries it restructures.
struct Shard<K: Ord, V> {
    obs: ShardObs,
    /// Set once, under the exclusive lock, by the split or merge that
    /// replaced this shard. Read under the lock, so `Relaxed` suffices:
    /// the lock orders it against every access to the map.
    retired: AtomicBool,
    // lock-order: shard
    map: RwLock<LabelMap<K, V>>,
}

impl<K: Ord, V> Shard<K, V> {
    fn new(map: LabelMap<K, V>) -> Self {
        Self { obs: ShardObs::default(), retired: AtomicBool::new(false), map: RwLock::new(map) }
    }

    /// Run `f` under the shared lock. `None` if the shard is retired —
    /// the caller must reload the directory.
    fn read<R>(&self, f: impl FnOnce(&LabelMap<K, V>) -> R) -> Option<R> {
        let guard = rlock(&self.map, Level::Shard);
        if self.retired.load(Ordering::Relaxed) {
            return None;
        }
        Some(f(&guard))
    }

    /// Take the exclusive lock. `None` if the shard is retired — the
    /// caller must reload the directory.
    fn write(&self) -> Option<ShardWrite<'_, K, V>> {
        let guard = wlock(&self.map, Level::Shard);
        (!self.retired.load(Ordering::Relaxed)).then_some(guard)
    }

    /// Mark the shard replaced, then release `guard`, its exclusive lock:
    /// every later reader and writer of an old directory snapshot sees the
    /// flag and reloads. Call only once the successor directory that covers
    /// the shard's keys is built, and publish it after this returns.
    fn retire(&self, guard: ShardWrite<'_, K, V>) {
        self.retired.store(true, Ordering::Relaxed);
        drop(guard);
    }
}

/// The size band shards are kept inside, plus the shard-count ceiling.
///
/// Invariants enforced by [`ShardedBuilder`](crate::ShardedBuilder):
/// `min_shard_len <= max_shard_len / 4`, so a freshly split half
/// (`> max/2`) is never immediately merge-eligible and a freshly merged
/// shard (`<= max`) is never immediately split-eligible — maintenance
/// always terminates.
#[derive(Clone, Copy, Debug)]
pub struct ShardPolicy {
    /// Split a shard once it exceeds this many entries (and the shard
    /// count is still below [`max_shards`](Self::max_shards)).
    pub max_shard_len: usize,
    /// Merge a shard into a neighbor once it falls below this many entries
    /// (if the combined shard stays within
    /// [`max_shard_len`](Self::max_shard_len)).
    pub min_shard_len: usize,
    /// Hard ceiling on the number of shards.
    pub max_shards: usize,
}

/// The split-key table: `shards[i]` owns keys `k` with
/// `bounds[i-1] <= k < bounds[i]` (shard 0 unbounded below, the last shard
/// unbounded above). Always `shards.len() == bounds.len() + 1`.
///
/// A directory is **immutable once published**: maintenance clones the
/// vectors (cheap — `Arc`s and split keys, not entries), edits the clone,
/// and publishes it as the successor snapshot.
struct Directory<K: Ord, V> {
    bounds: Vec<K>,
    shards: Vec<Arc<Shard<K, V>>>,
}

impl<K: Ord + Clone, V> Clone for Directory<K, V> {
    fn clone(&self) -> Self {
        Self { bounds: self.bounds.clone(), shards: self.shards.clone() }
    }
}

impl<K: Ord, V> Directory<K, V> {
    /// The index of the shard owning `key` — a binary search of the split
    /// keys, no shard locks taken.
    fn locate<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.bounds.partition_point(|b| b.borrow() <= key)
    }
}

/// A thread-safe sorted map that partitions its key space across
/// independent [`LabelMap`] shards — each one its own rebalance domain —
/// behind a stripe-published directory and per-shard `RwLock`s.
///
/// Construct one with [`ShardedBuilder`](crate::ShardedBuilder). All
/// methods take `&self`; share the map across threads with `Arc` (or
/// scoped threads). See the [crate docs](crate) for the locking protocol
/// and `docs/sharding.md` for the operational runbook.
pub struct ShardedMap<K: Ord + Clone, V> {
    dir: Striped<Directory<K, V>>,
    /// Serializes splits, merges, batches, snapshots — and thereby every
    /// directory publication. Point operations never touch it.
    // lock-order: maintenance
    maint: Mutex<()>,
    builder: ListBuilder,
    seed: u64,
    policy: ShardPolicy,
    /// Monotone per-map shard counter: each shard's backend gets an
    /// independent random tape derived from (seed, sequence number).
    shard_seq: AtomicU64,
    splits: AtomicU64,
    merges: AtomicU64,
    batches: AtomicU64,
    batched_entries: AtomicU64,
    /// Element moves accumulated by shard backends that splits/merges have
    /// since retired — folded into [`stats`](Self::stats) so the cost
    /// accounting (the paper's move model) never loses history.
    retired_moves: AtomicU64,
    /// Recent structural events (splits, merges, snapshots) — shared so a
    /// server can drain the ring without holding a reference to the map.
    trace: Arc<TraceRing>,
}

/// A point-in-time aggregate snapshot of a [`ShardedMap`] (see
/// [`ShardedMap::stats`]).
#[derive(Clone, Debug)]
pub struct ShardedStats {
    /// Number of shards.
    pub shards: usize,
    /// Total entries across shards.
    pub len: usize,
    /// Total element moves across all shard backends, including the moves
    /// accumulated by backends that splits/merges have since retired (the
    /// paper's cost model, summed over rebalance domains — monotone over
    /// the map's lifetime).
    pub total_moves: u64,
    /// Shard splits performed since construction.
    pub splits: u64,
    /// Shard merges performed since construction.
    pub merges: u64,
    /// Bulk batches landed via [`ShardedMap::extend_sorted`] /
    /// [`ShardedMap::extend_from_unsorted`] since construction.
    pub batches: u64,
    /// Total entries landed through those batches (after dedup).
    pub batched_entries: u64,
    /// Per-shard entry counts, in key order.
    pub shard_lens: Vec<usize>,
    /// Per-shard backend capacities, in key order (`shard_lens[i] /
    /// shard_capacities[i]` is shard `i`'s occupancy).
    pub shard_capacities: Vec<usize>,
    /// Per-shard point reads served (`get_with` / `contains_key`), in key
    /// order. Merges fold the retired shard's count into the survivor, so
    /// the total is monotone across resharding.
    pub shard_reads: Vec<u64>,
    /// Per-shard point writes served (`insert` / `remove` /
    /// `get_mut_with`), in key order; monotone like
    /// [`shard_reads`](Self::shard_reads).
    pub shard_writes: Vec<u64>,
}

impl ShardedStats {
    /// The smallest shard's entry count.
    pub fn min_shard_len(&self) -> usize {
        self.shard_lens.iter().copied().min().unwrap_or(0)
    }

    /// The largest shard's entry count.
    pub fn max_shard_len(&self) -> usize {
        self.shard_lens.iter().copied().max().unwrap_or(0)
    }

    /// Mean entries per shard.
    pub fn mean_shard_len(&self) -> f64 {
        if self.shards == 0 {
            return 0.0;
        }
        self.len as f64 / self.shards as f64
    }
}

impl fmt::Display for ShardedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries in {} shards (splits {}, merges {}, {} total moves)",
            self.len, self.shards, self.splits, self.merges, self.total_moves
        )
    }
}

impl<K: Ord + Clone, V> ShardedMap<K, V> {
    /// A shell with no shards at all — only valid as an intermediate while
    /// a constructor installs the real directory.
    fn shell(builder: ListBuilder, seed: u64, policy: ShardPolicy) -> Self {
        Self {
            dir: Striped::new(Directory { bounds: Vec::new(), shards: Vec::new() }),
            maint: Mutex::new(()),
            builder,
            seed,
            policy,
            shard_seq: AtomicU64::new(0),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_entries: AtomicU64::new(0),
            retired_moves: AtomicU64::new(0),
            trace: Arc::new(TraceRing::new(TRACE_CAPACITY)),
        }
    }

    /// Publish `dir` as the map's directory, through the same
    /// maintenance-serialized path structural changes use.
    fn install(&self, dir: Directory<K, V>) {
        let _m = mlock(&self.maint);
        self.dir.publish(dir);
    }

    /// Build an empty map: one shard, no split keys. Splitting is
    /// data-driven from there. Called by
    /// [`ShardedBuilder`](crate::ShardedBuilder).
    pub(crate) fn new(builder: ListBuilder, seed: u64, policy: ShardPolicy) -> Self {
        let map = Self::shell(builder, seed, policy);
        let first = Arc::new(Shard::new(map.fresh_shard()));
        map.install(Directory { bounds: Vec::new(), shards: vec![first] });
        map
    }

    /// Build a map pre-sharded from entries sorted ascending by key: the
    /// run is cut into half-full chunks, each bulk-loaded into its own
    /// fresh shard in one O(chunk) sweep — a true O(n) import, no split
    /// cascade. Panics if the keys are not ascending (equal adjacent keys
    /// collapse, last write wins, as in [`LabelMap::from_sorted_iter`]).
    pub(crate) fn from_sorted(
        builder: ListBuilder,
        seed: u64,
        policy: ShardPolicy,
        mut entries: Vec<(K, V)>,
    ) -> Self {
        assert!(
            entries.windows(2).all(|w| w[0].0.cmp(&w[1].0).is_le()),
            "from_sorted requires keys in ascending order"
        );
        // Dedup before chunking so equal keys never straddle a split key.
        entries.dedup_by(|next, kept| {
            if next.0.cmp(&kept.0).is_eq() {
                std::mem::swap(next, kept);
                true
            } else {
                false
            }
        });
        let map = Self::shell(builder, seed, policy);
        // Half-full shards: room to grow before splitting, full enough not
        // to merge. Respect the shard-count ceiling by growing the chunk
        // size if the run is enormous.
        let per_shard =
            (policy.max_shard_len / 2).max(entries.len().div_ceil(policy.max_shards)).max(1);
        let chunks = exact_chunks(entries, per_shard);
        let mut bounds = Vec::with_capacity(chunks.len().saturating_sub(1));
        let mut shards = Vec::with_capacity(chunks.len());
        for (i, chunk) in chunks.into_iter().enumerate() {
            if i > 0 {
                bounds.push(chunk[0].0.clone());
            }
            let mut shard = map.fresh_shard();
            shard.extend_sorted(chunk);
            shards.push(Arc::new(Shard::new(shard)));
        }
        map.install(Directory { bounds, shards });
        map
    }

    fn fresh_shard(&self) -> LabelMap<K, V> {
        let seq = self.shard_seq.fetch_add(1, Ordering::Relaxed);
        self.builder.clone().seed(derive_seed(self.seed, seq)).label_map()
    }

    /// The policy this map maintains its shards against.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// Run `attempt` against the current directory until it returns
    /// `Some`. `None` means it met a shard that a split or merge retired:
    /// the reload routes the keys to the shard that owns them now.
    fn route<R>(&self, mut attempt: impl FnMut(&Directory<K, V>) -> Option<R>) -> R {
        loop {
            let dir = self.dir.load();
            if let Some(out) = attempt(&dir) {
                return out;
            }
            drop(dir);
            std::thread::yield_now();
        }
    }

    /// Total entries — one shared lock per shard, O(#shards). The count
    /// is a consistent snapshot only if no writer is concurrent.
    pub fn len(&self) -> usize {
        self.route(|dir| dir.shards.iter().map(|s| s.read(LabelMap::len)).sum())
    }

    /// True if no entries are stored (same snapshot caveat as
    /// [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current number of shards.
    pub fn shard_count(&self) -> usize {
        self.dir.load().shards.len()
    }

    /// Insert `key → value`, returning the previous value if the key was
    /// present. Locks the owning shard exclusively (the directory only for
    /// its load); if the shard overflowed the policy band, splits it
    /// afterwards under the maintenance mutex.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        // Only the attempt that lands the entry takes it, and that attempt
        // ends the loop.
        let mut kv = Some((key, value));
        let (prev, overflow) = self.route(|dir| {
            let (key, _) = kv.as_ref().expect("a landed entry ends the loop");
            let shard = &dir.shards[dir.locate(key)];
            let mut g = shard.write()?;
            shard.obs.writes.inc();
            let (key, value) = kv.take().expect("a landed entry ends the loop");
            let prev = g.insert(key, value);
            // Only trigger maintenance when a split is actually feasible:
            // at the shard-count ceiling an oversized shard simply keeps
            // growing (documented degradation), and a no-op maintenance
            // pass would serialize every writer on the mutex.
            let overflow =
                g.len() > self.policy.max_shard_len && dir.shards.len() < self.policy.max_shards;
            Some((prev, overflow))
        });
        if overflow {
            self.maintain();
        }
        prev
    }

    /// Remove `key`, returning its value. Locks the owning shard
    /// exclusively; if the shard underflowed the policy band, merges it
    /// into a neighbor afterwards.
    pub fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (prev, underflow) = self.route(|dir| {
            let shard = &dir.shards[dir.locate(key)];
            let mut g = shard.write()?;
            shard.obs.writes.inc();
            let prev = g.remove(key);
            // Trigger only on the exact threshold crossing: a shard stuck
            // underfull because no neighbor merge fits must not pay a
            // maintenance round trip on every subsequent remove. Once a
            // neighbor later shrinks, *its* own crossing re-runs
            // maintenance, which scans globally and finds the pair.
            let crossed = prev.is_some() && g.len() + 1 == self.policy.min_shard_len;
            Some((prev, crossed && dir.shards.len() > 1))
        });
        if underflow {
            self.maintain();
        }
        prev
    }

    /// Read `key`'s value through a borrow: `map.get_with(&k, |v|
    /// v.summarize())`. Returns `None` if the key is absent. Takes the
    /// directory's stripe lock only for its load, then the owning shard's
    /// shared lock.
    pub fn get_with<Q, R>(&self, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        // `route` runs the attempt again after meeting a retired shard,
        // but `f` runs only in the attempt that reads; the take() lets the
        // FnOnce ride along.
        let mut f = Some(f);
        self.route(|dir| {
            let shard = &dir.shards[dir.locate(key)];
            shard.read(|m| {
                // Counted under the read guard: a merge can absorb this
                // shard's ShardObs into the survivor the instant the guard
                // drops, and an increment after that loses the read from
                // the monotone-across-resharding totals.
                shard.obs.reads.inc();
                m.get(key).map(|v| (f.take().expect("read closure ran twice"))(v))
            })
        })
    }

    /// The value of `key`, cloned out of the shard (the lock cannot outlive
    /// the call; use [`get_with`](Self::get_with) to read in place).
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
        V: Clone,
    {
        self.get_with(key, V::clone)
    }

    /// Mutate `key`'s value in place under the owning shard's exclusive
    /// lock: `map.get_mut_with(&k, |v| *v += 1)`. Returns `None` (without
    /// running `f`) if the key is absent.
    pub fn get_mut_with<Q, R>(&self, key: &Q, f: impl FnOnce(&mut V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut f = Some(f);
        self.route(|dir| {
            let shard = &dir.shards[dir.locate(key)];
            let mut g = shard.write()?;
            shard.obs.writes.inc();
            Some(g.get_mut(key).map(|v| (f.take().expect("mut closure ran twice"))(v)))
        })
    }

    /// True if `key` is present. Locks like [`get_with`](Self::get_with).
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.route(|dir| {
            let shard = &dir.shards[dir.locate(key)];
            shard.read(|m| {
                // Under the guard, as in `get_with`: survives a racing
                // merge's ShardObs absorption.
                shard.obs.reads.inc();
                m.contains_key(key)
            })
        })
    }

    /// The smallest entry, cloned.
    pub fn first_key_value(&self) -> Option<(K, V)>
    where
        V: Clone,
    {
        self.route(|dir| {
            for shard in &dir.shards {
                let kv =
                    shard.read(|m| m.first_key_value().map(|(k, v)| (k.clone(), v.clone())))?;
                if kv.is_some() {
                    return Some(kv);
                }
            }
            Some(None)
        })
    }

    /// The largest entry, cloned.
    pub fn last_key_value(&self) -> Option<(K, V)>
    where
        V: Clone,
    {
        self.route(|dir| {
            for shard in dir.shards.iter().rev() {
                let kv = shard.read(|m| m.last_key_value().map(|(k, v)| (k.clone(), v.clone())))?;
                if kv.is_some() {
                    return Some(kv);
                }
            }
            Some(None)
        })
    }

    /// Collect the entries with keys in `range`, ascending:
    /// [`range_limited`](Self::range_limited) without a cap (same
    /// shard-at-a-time consistency).
    pub fn range<Q, R>(&self, range: R) -> Vec<(K, V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
        R: RangeBounds<Q>,
        V: Clone,
    {
        self.range_limited(range, usize::MAX).0
    }

    /// All entries ascending by key — [`range`](Self::range) over
    /// everything (same shard-at-a-time consistency).
    pub fn to_vec(&self) -> Vec<(K, V)>
    where
        V: Clone,
    {
        self.range::<K, _>(..)
    }

    /// Visit every entry ascending by key without cloning values. Runs
    /// under the maintenance mutex so the directory cannot reshard
    /// mid-walk (no entry visited twice or skipped); concurrent point ops
    /// proceed shard by shard.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let _m = mlock(&self.maint);
        let dir = self.dir.load();
        for shard in &dir.shards {
            let g = rlock(&shard.map, Level::Shard);
            for (k, v) in g.iter() {
                f(k, v);
            }
        }
    }

    /// Merge entries **sorted ascending by key** in bulk: the batch is cut
    /// at the split keys and each piece lands in its shard via the O(piece)
    /// [`LabelMap::extend_sorted`] sweep; overflowing shards are split
    /// afterwards. Panics if the batch is not ascending.
    pub fn extend_sorted(&self, mut batch: Vec<(K, V)>) {
        assert!(
            batch.windows(2).all(|w| w[0].0.cmp(&w[1].0).is_le()),
            "extend_sorted requires keys in ascending order"
        );
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_entries.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let m = mlock(&self.maint);
        let mut overflow = false;
        {
            let dir = self.dir.load();
            // Peel per-shard chunks off the tail: bounds walked in reverse
            // so each split_off detaches exactly the last shard's share.
            let mut chunks = Vec::with_capacity(dir.shards.len());
            for b in dir.bounds.iter().rev() {
                let cut = batch.partition_point(|(k, _)| k < b);
                chunks.push(batch.split_off(cut));
            }
            chunks.push(batch);
            chunks.reverse();
            for (i, chunk) in chunks.into_iter().enumerate() {
                if chunk.is_empty() {
                    continue;
                }
                let mut g =
                    dir.shards[i].write().expect("shards cannot retire under the maintenance lock");
                g.extend_sorted(chunk);
                overflow |= g.len() > self.policy.max_shard_len;
            }
        }
        if overflow {
            self.maintain_locked(&m);
        }
    }

    /// Merge an **arbitrary-order** batch in bulk: the batch is sorted
    /// (stable, so equal keys keep arrival order), deduplicated with
    /// last-write-wins, and routed through the split-key-cutting
    /// [`extend_sorted`](Self::extend_sorted) — callers can never silently
    /// hit the per-op slow path. Returns the number of unique entries
    /// landed.
    pub fn extend_from_unsorted(&self, mut batch: Vec<(K, V)>) -> usize {
        batch.sort_by(|a, b| a.0.cmp(&b.0));
        let mut deduped: Vec<(K, V)> = Vec::with_capacity(batch.len());
        for entry in batch {
            match deduped.last_mut() {
                // Stable sort kept arrival order within equal keys, so the
                // later arrival overwrites: last write wins.
                Some(last) if last.0 == entry.0 => *last = entry,
                _ => deduped.push(entry),
            }
        }
        let landed = deduped.len();
        self.extend_sorted(deduped);
        landed
    }

    /// [`range`](Self::range) capped at `limit` entries: stops reading and
    /// cloning as soon as the cap is reached. The second component is true
    /// if at least one more entry existed past the cap (the scan was
    /// truncated) — the pagination signal a server returns to clients.
    ///
    /// Shards are read **one at a time** under their shared locks (each
    /// shard's slice is internally consistent; the stitched whole is not a
    /// single atomic snapshot under concurrent writers). A mid-scan split
    /// or merge restarts the whole scan against the fresh directory.
    pub fn range_limited<Q, R>(&self, range: R, limit: usize) -> (Vec<(K, V)>, bool)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
        R: RangeBounds<Q>,
        V: Clone,
    {
        self.route(|dir| {
            if dir.shards.is_empty() {
                return Some((Vec::new(), false));
            }
            let lo = match range.start_bound() {
                Bound::Included(k) | Bound::Excluded(k) => dir.locate(k),
                Bound::Unbounded => 0,
            };
            let hi = match range.end_bound() {
                Bound::Included(k) | Bound::Excluded(k) => dir.locate(k),
                Bound::Unbounded => dir.shards.len() - 1,
            };
            let mut out = Vec::new();
            for shard in &dir.shards[lo..=hi] {
                let truncated = shard.read(|m| {
                    for (k, v) in m.range((range.start_bound(), range.end_bound())) {
                        if out.len() == limit {
                            return true;
                        }
                        out.push((k.clone(), v.clone()));
                    }
                    false
                })?;
                if truncated {
                    return Some((out, true));
                }
            }
            Some((out, false))
        })
    }

    /// Aggregate statistics — one pass over the shards under their shared
    /// locks. The pass itself is not counted: reading the read counters
    /// leaves them unchanged.
    pub fn stats(&self) -> ShardedStats {
        self.route(|dir| {
            let mut stats = ShardedStats {
                shards: dir.shards.len(),
                len: 0,
                total_moves: self.retired_moves.load(Ordering::Relaxed),
                splits: self.splits.load(Ordering::Relaxed),
                merges: self.merges.load(Ordering::Relaxed),
                batches: self.batches.load(Ordering::Relaxed),
                batched_entries: self.batched_entries.load(Ordering::Relaxed),
                shard_lens: Vec::with_capacity(dir.shards.len()),
                shard_capacities: Vec::with_capacity(dir.shards.len()),
                shard_reads: Vec::with_capacity(dir.shards.len()),
                shard_writes: Vec::with_capacity(dir.shards.len()),
            };
            for shard in &dir.shards {
                let (len, moves, capacity) =
                    shard.read(|m| (m.len(), m.total_moves(), m.backend().capacity()))?;
                stats.len += len;
                stats.total_moves += moves;
                stats.shard_lens.push(len);
                stats.shard_capacities.push(capacity);
                stats.shard_reads.push(shard.obs.reads.get());
                stats.shard_writes.push(shard.obs.writes.get());
            }
            Some(stats)
        })
    }

    /// The map's structural-event trace ring (splits, merges, snapshots):
    /// a shared handle, so a server can drain events without borrowing
    /// the map. See [`TraceRing::snapshot`].
    pub fn trace(&self) -> Arc<TraceRing> {
        Arc::clone(&self.trace)
    }

    /// Rebalance the shard map until every shard is inside the policy
    /// band, under the maintenance mutex.
    fn maintain(&self) {
        let m = mlock(&self.maint);
        self.maintain_locked(&m);
    }

    /// The maintenance loop: split any shard above `max_shard_len` (while
    /// below `max_shards`), then merge any shard below `min_shard_len`
    /// whose combined size with a neighbor fits. Each pass probes shard
    /// lengths with brief read locks, restructures one shard pair at most,
    /// publishes the successor directory, and re-probes — point operations
    /// keep flowing between passes.
    ///
    /// Terminates: splits strictly shrink an oversized shard into halves
    /// too big to merge (`> max/2 >= 2·min`), merges strictly reduce the
    /// shard count and never create a splittable shard (combined `<= max`);
    /// a pass that finds nothing actionable (or loses its candidate to a
    /// concurrent writer) re-probes fresh lengths and exits once the map
    /// is inside the band.
    fn maintain_locked(&self, _m: &Tracked<MutexGuard<'_, ()>>) {
        loop {
            let dir = self.dir.load();
            let n = dir.shards.len();
            let lens: Vec<usize> =
                dir.shards.iter().map(|s| rlock(&s.map, Level::Shard).len()).collect();
            if n < self.policy.max_shards {
                if let Some(i) = (0..n).find(|&i| lens[i] > self.policy.max_shard_len) {
                    if self.split_shard(&dir, i) {
                        self.splits.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
            }
            if n > 1 {
                // For an underfull shard, try either neighbor (right first)
                // and merge with whichever keeps the pair within the band;
                // yield the *left* index of the mergeable pair.
                let mergeable = (0..n).find_map(|i| {
                    let li = lens[i];
                    if li >= self.policy.min_shard_len {
                        return None;
                    }
                    if i + 1 < n && li + lens[i + 1] <= self.policy.max_shard_len {
                        return Some(i);
                    }
                    if i > 0 && li + lens[i - 1] <= self.policy.max_shard_len {
                        return Some(i - 1);
                    }
                    None
                });
                if let Some(left) = mergeable {
                    if self.merge_into_left(&dir, left) {
                        self.merges.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
            }
            break;
        }
    }

    /// Split shard `i` at its median rank: drain it under its write lock
    /// (one snapshot sweep — a pure read, no backend deletes), bulk-load
    /// both halves into fresh shards, publish a successor directory that
    /// carries them, and retire the drained shard. Returns false if a
    /// concurrent writer shrank the shard back inside the band first.
    ///
    /// Ordering is load-bearing: the old shard's retired flag is set (and
    /// its lock releases) *before* the publication, so a reader of the old
    /// directory can never observe the drained shard as live.
    fn split_shard(&self, dir: &Directory<K, V>, i: usize) -> bool {
        let old = &dir.shards[i];
        let Some(mut g) = old.write() else { return false };
        if g.len() <= self.policy.max_shard_len {
            return false;
        }
        let old_map = std::mem::replace(&mut *g, self.fresh_shard());
        self.retired_moves.fetch_add(old_map.total_moves(), Ordering::Relaxed);
        let mut lower = old_map.into_sorted_vec();
        let entries = lower.len() as u64;
        let upper = lower.split_off(lower.len() / 2);
        debug_assert!(!upper.is_empty(), "split of a shard with < 2 entries");
        let split_key = upper[0].0.clone();
        let mut lo_map = self.fresh_shard();
        lo_map.extend_sorted(lower);
        let mut hi_map = self.fresh_shard();
        hi_map.extend_sorted(upper);
        let lo_shard = Arc::new(Shard::new(lo_map));
        // The lower half inherits the old shard's counters (the survivor
        // of a key span keeps its history, as merges do).
        lo_shard.obs.absorb(&old.obs);
        let mut bounds = dir.bounds.clone();
        let mut shards = dir.shards.clone();
        bounds.insert(i, split_key);
        shards[i] = lo_shard;
        shards.insert(i + 1, Arc::new(Shard::new(hi_map)));
        let shard_count = shards.len() as u64;
        let next = Directory { bounds, shards };
        old.retire(g);
        self.dir.publish(next);
        self.trace.record(TraceKind::Split, i as u64, shard_count, entries);
        true
    }

    /// Merge shard `left + 1` into shard `left`: the right shard is
    /// drained sorted and appended to the left **in place** (the left
    /// shard object survives into the successor directory), the right is
    /// retired, and the successor without its split key is published.
    /// Returns false if the pair no longer fits inside the band.
    ///
    /// A reader of the old directory that targets the left shard sees
    /// either the pre-merge or post-merge content — both consistent for
    /// its span. One that targets the right shard finds it retired (the
    /// flag is set before either lock releases) and reloads; scans restart
    /// wholesale on a retired shard, so no entry is seen twice.
    fn merge_into_left(&self, dir: &Directory<K, V>, left: usize) -> bool {
        let l = &dir.shards[left];
        let r = &dir.shards[left + 1];
        let Some(mut lg) = l.write() else { return false };
        let Some(mut rg) = r.write() else { return false };
        if lg.len() + rg.len() > self.policy.max_shard_len {
            return false;
        }
        let right_map = std::mem::replace(&mut *rg, self.fresh_shard());
        self.retired_moves.fetch_add(right_map.total_moves(), Ordering::Relaxed);
        l.obs.absorb(&r.obs);
        let run = right_map.into_sorted_vec();
        let merged = run.len() as u64;
        lg.extend_sorted(run);
        let mut bounds = dir.bounds.clone();
        let mut shards = dir.shards.clone();
        bounds.remove(left);
        shards.remove(left + 1);
        let shard_count = shards.len() as u64;
        let next = Directory { bounds, shards };
        r.retire(rg);
        drop(lg);
        self.dir.publish(next);
        self.trace.record(TraceKind::Merge, left as u64, shard_count, merged);
        true
    }

    /// Write a durable snapshot of the map: the versioned header (backend,
    /// seed, total entry count), the shard policy, the split-key
    /// directory, and each shard's sorted run in key order. Runs under the
    /// maintenance mutex with **every shard read-locked at once** — one
    /// atomic, internally consistent picture; concurrent readers keep
    /// flowing, writers block for the duration of the write.
    ///
    /// Writing to a `File`? Wrap it in a [`std::io::BufWriter`] — the
    /// encoder issues one small write per field.
    pub fn write_snapshot<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError>
    where
        K: Codec,
        V: Codec,
    {
        let _m = mlock(&self.maint);
        let dir = self.dir.load();
        // Stacking every shard's read lock is legal under the maintenance
        // mutex (the tracker's rule 2) and deadlock-free: maintenance is
        // the only path that takes more than one shard lock, and we are it.
        let guards: Vec<_> = dir.shards.iter().map(|s| rlock(&s.map, Level::Shard)).collect();
        let total: usize = guards.iter().map(|g| g.len()).sum();
        self.trace.record(TraceKind::Snapshot, total as u64, dir.shards.len() as u64, 0);
        let mut cfg = self.builder.config();
        cfg.seed = self.seed;
        Header::new(ContainerKind::ShardedMap, cfg, total as u64).write_to(w)?;
        (self.policy.max_shard_len as u64).encode(w)?;
        (self.policy.min_shard_len as u64).encode(w)?;
        (self.policy.max_shards as u64).encode(w)?;
        (dir.shards.len() as u64).encode(w)?;
        for b in &dir.bounds {
            b.encode(w)?;
        }
        for g in &guards {
            (g.len() as u64).encode(w)?;
            for (k, v) in g.iter() {
                k.encode(w)?;
                v.encode(w)?;
            }
        }
        Ok(())
    }

    /// Restore a map from a snapshot written by
    /// [`write_snapshot`](Self::write_snapshot): rebuild the recorded
    /// backend configuration and policy, re-install the persisted
    /// split-key directory, and land each shard's run through its own
    /// O(shard) bulk-load sweep — the
    /// [`build_from_sorted`](crate::ShardedBuilder::build_from_sorted)-style
    /// pre-sharded restore, skipping both per-op replay and any split
    /// cascade.
    ///
    /// Never panics on bad input: truncated, corrupted, version- or
    /// container-mismatched streams return the matching [`SnapshotError`]
    /// variant (a directory whose shard runs violate their spans is
    /// [`SnapshotError::Corrupt`]). Reading from a `File`? Wrap it in a
    /// [`std::io::BufReader`].
    pub fn read_snapshot<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError>
    where
        K: Codec,
        V: Codec,
    {
        let header = Header::read_expecting(r, ContainerKind::ShardedMap)?;
        let max_shard_len = usize::decode(r)?.max(2);
        let min_shard_len = usize::decode(r)?;
        let max_shards = usize::decode(r)?.max(1);
        // Re-clamp exactly as ShardedBuilder does, so a hand-edited policy
        // can never re-introduce split/merge livelock.
        let policy = ShardPolicy {
            max_shard_len,
            min_shard_len: min_shard_len.min(max_shard_len / 4),
            max_shards,
        };
        let shard_count = usize::decode(r)?;
        if shard_count == 0 {
            return Err(SnapshotError::Corrupt("a sharded map has at least one shard".into()));
        }
        if shard_count > policy.max_shards {
            return Err(SnapshotError::Corrupt(format!(
                "{shard_count} shards exceed the policy ceiling {}",
                policy.max_shards
            )));
        }
        let mut bounds: Vec<K> = Vec::with_capacity((shard_count - 1).min(1 << 16));
        for _ in 1..shard_count {
            bounds.push(K::decode(r)?);
        }
        if !bounds.windows(2).all(|w| w[0].cmp(&w[1]).is_lt()) {
            return Err(SnapshotError::Corrupt("split keys must be strictly ascending".into()));
        }
        let map = Self::shell(ListBuilder::from_config(header.config()), header.seed, policy);
        let mut shards = Vec::with_capacity(shard_count);
        let mut total = 0u64;
        for i in 0..shard_count {
            let len = usize::decode(r)?;
            let run: Vec<(K, V)> =
                lll_api::persist::decode_sorted_run(r, len, &format!("shard {i}"))?;
            if let (Some((first, _)), Some(j)) = (run.first(), i.checked_sub(1)) {
                if first.cmp(&bounds[j]).is_lt() {
                    return Err(SnapshotError::Corrupt(format!(
                        "shard {i} holds a key below its span"
                    )));
                }
            }
            if let (Some((last, _)), Some(hi)) = (run.last(), bounds.get(i)) {
                if last.cmp(hi).is_ge() {
                    return Err(SnapshotError::Corrupt(format!(
                        "shard {i} holds a key above its span"
                    )));
                }
            }
            total += run.len() as u64;
            let mut shard = map.fresh_shard();
            shard.extend_sorted(run);
            shards.push(Arc::new(Shard::new(shard)));
        }
        if total != header.count {
            return Err(SnapshotError::Corrupt(format!(
                "shard runs hold {total} entries, header claims {}",
                header.count
            )));
        }
        map.install(Directory { bounds, shards });
        Ok(map)
    }

    /// Verify the directory invariants: split keys strictly ascending, one
    /// more shard than split keys, every shard's keys inside its span and
    /// ascending. Runs under the maintenance mutex so the picture is
    /// stable. O(n); test/diagnostic use only.
    pub fn check_invariants(&self) {
        let _m = mlock(&self.maint);
        let dir = self.dir.load();
        assert_eq!(dir.shards.len(), dir.bounds.len() + 1, "directory shape");
        assert!(
            dir.bounds.windows(2).all(|w| w[0] < w[1]),
            "split keys must be strictly ascending"
        );
        for (i, s) in dir.shards.iter().enumerate() {
            let keys: Vec<K> = s
                .read(|m| m.keys().cloned().collect())
                .unwrap_or_else(|| panic!("shard {i} of the live directory is retired"));
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "shard {i} keys unsorted");
            if let (Some(first), Some(lo)) =
                (keys.first(), i.checked_sub(1).map(|j| &dir.bounds[j]))
            {
                assert!(lo <= first, "shard {i} holds a key below its span");
            }
            if let (Some(last), Some(hi)) = (keys.last(), dir.bounds.get(i)) {
                assert!(last < hi, "shard {i} holds a key above its span");
            }
        }
    }
}

impl<K: Ord + Clone + fmt::Debug, V> fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Walks the shards like `len`.
        self.route(|dir| {
            let lens: Vec<usize> =
                dir.shards.iter().map(|s| s.read(LabelMap::len)).collect::<Option<_>>()?;
            Some(
                f.debug_struct("ShardedMap")
                    .field("shards", &lens)
                    .field("bounds", &dir.bounds)
                    .finish(),
            )
        })
    }
}

/// Cut `entries` into runs of `per_shard` (the last may be shorter; an
/// empty input gives one empty run), each allocated at its own length, so
/// no run keeps the capacity of the entries after it.
fn exact_chunks<T>(entries: Vec<T>, per_shard: usize) -> Vec<Vec<T>> {
    let mut rest = entries.into_iter();
    let mut chunks = Vec::with_capacity(rest.len().div_ceil(per_shard).max(1));
    loop {
        let chunk: Vec<T> = rest.by_ref().take(per_shard).collect();
        if chunk.is_empty() && !chunks.is_empty() {
            return chunks;
        }
        chunks.push(chunk);
    }
}

#[cfg(test)]
mod tests {
    use crate::ShardedBuilder;
    use std::collections::BTreeMap;

    fn tiny() -> ShardedBuilder {
        // Aggressive thresholds so small tests exercise splits and merges.
        ShardedBuilder::new().max_shard_len(32).min_shard_len(8).seed(7)
    }

    #[test]
    fn point_ops_match_btreemap_through_splits_and_merges() {
        let map = tiny().build::<u64, u64>();
        let mut model = BTreeMap::new();
        let mut x = 42u64;
        for i in 0..4000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = x % 500;
            if !x.is_multiple_of(4) {
                assert_eq!(map.insert(k, i), model.insert(k, i), "insert({k})");
            } else {
                assert_eq!(map.remove(&k), model.remove(&k), "remove({k})");
            }
            assert_eq!(map.get(&k), model.get(&k).copied());
        }
        map.check_invariants();
        assert_eq!(map.len(), model.len());
        let stats = map.stats();
        assert!(stats.splits > 0, "workload should split shards");
        assert_eq!(map.to_vec(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn drain_forces_merges_back_to_one_shard() {
        let map = tiny().build::<u32, ()>();
        for k in 0..600u32 {
            map.insert(k, ());
        }
        assert!(map.shard_count() > 4, "600 entries over max 32 must shard");
        map.check_invariants();
        for k in 0..595u32 {
            map.remove(&k);
        }
        map.check_invariants();
        let stats = map.stats();
        assert!(stats.merges > 0, "drain must merge shards");
        assert!(stats.shards < 4, "5 survivors should collapse shards, got {}", stats.shards);
        assert_eq!(map.to_vec(), (595..600).map(|k| (k, ())).collect::<Vec<_>>());
    }

    #[test]
    fn range_stitches_across_shards() {
        let map = tiny().build::<u32, u32>();
        let mut model = BTreeMap::new();
        for k in (0..900u32).step_by(3) {
            map.insert(k, k * 2);
            model.insert(k, k * 2);
        }
        assert!(map.shard_count() > 2);
        for (lo, hi) in [(0, 900), (1, 2), (100, 700), (899, 900), (450, 450)] {
            assert_eq!(
                map.range(lo..hi),
                model.range(lo..hi).map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
                "[{lo}, {hi})"
            );
            assert_eq!(
                map.range(lo..=hi),
                model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
                "[{lo}, {hi}]"
            );
        }
        assert_eq!(map.to_vec().len(), model.len());
        let mut visited = Vec::new();
        map.for_each(|k, v| visited.push((*k, *v)));
        assert_eq!(visited, map.to_vec());
    }

    #[test]
    fn bulk_extend_pre_shards_and_merges_runs() {
        let map = tiny().build_from_sorted::<u64, u64>((0..1000).map(|k| (k, k)).collect());
        assert_eq!(map.len(), 1000);
        assert!(map.shard_count() > 8, "bulk load must pre-shard");
        map.check_invariants();
        // A second sorted batch interleaves: overlaps replace, gaps splice.
        map.extend_sorted((500..1500).map(|k| (k, k + 1)).collect());
        map.check_invariants();
        assert_eq!(map.len(), 1500);
        assert_eq!(map.get(&499), Some(499));
        assert_eq!(map.get(&500), Some(501));
        assert_eq!(map.get(&1499), Some(1500));
    }

    #[test]
    fn underfull_shard_merges_left_when_right_does_not_fit() {
        // Three shards of 32 (policy band [16, 64]); fatten the right one,
        // then drain the middle below min: merging right would overflow
        // (15 + 60 > 64), so maintenance must merge left (15 + 32 <= 64).
        let map = ShardedBuilder::new()
            .max_shard_len(64)
            .min_shard_len(16)
            .seed(5)
            .build_from_sorted::<u32, u32>((0..96).map(|k| (k, k)).collect());
        assert_eq!(map.shard_count(), 3);
        for k in 96..124 {
            map.insert(k, k);
        }
        assert_eq!(map.shard_count(), 3, "fattening must not split yet");
        for k in 32..49 {
            map.remove(&k);
        }
        let stats = map.stats();
        assert_eq!(stats.merges, 1, "crossing min must merge exactly once");
        assert_eq!(stats.shards, 2, "left-neighbor merge must collapse the pair");
        map.check_invariants();
        let expected: Vec<(u32, u32)> =
            (0..124).filter(|k| !(32..49).contains(k)).map(|k| (k, k)).collect();
        assert_eq!(map.to_vec(), expected);
    }

    #[test]
    fn total_moves_is_monotone_across_resharding() {
        let map = tiny().build::<u32, u32>();
        for k in 0..400 {
            map.insert(k, k);
        }
        let grown = map.stats();
        assert!(grown.splits > 0);
        for k in 0..395 {
            map.remove(&k);
        }
        let drained = map.stats();
        assert!(drained.merges > 0);
        assert!(
            drained.total_moves >= grown.total_moves,
            "retired backends' moves must not vanish: {} < {}",
            drained.total_moves,
            grown.total_moves
        );
    }

    #[test]
    fn snapshot_roundtrip_preserves_directory_and_entries() {
        let map = tiny().build::<u64, u64>();
        for k in 0..700u64 {
            map.insert(k, k * 3);
        }
        for k in (0..700).step_by(5) {
            map.remove(&k);
        }
        assert!(map.shard_count() > 4, "workload must shard");
        let mut buf = Vec::new();
        map.write_snapshot(&mut buf).unwrap();
        let back = super::ShardedMap::<u64, u64>::read_snapshot(&mut buf.as_slice()).unwrap();
        back.check_invariants();
        // The split-key directory is persisted, not re-derived: the
        // restored map has the same shards with the same key spans.
        assert_eq!(back.shard_count(), map.shard_count());
        assert_eq!(format!("{back:?}"), format!("{map:?}"));
        assert_eq!(back.to_vec(), map.to_vec());
        let (pm, pb) = (map.policy(), back.policy());
        assert_eq!(
            (pm.max_shard_len, pm.min_shard_len, pm.max_shards),
            (pb.max_shard_len, pb.min_shard_len, pb.max_shards)
        );
        // The restored map keeps maintaining itself.
        for k in 1000..1200u64 {
            back.insert(k, k);
        }
        back.check_invariants();
        assert_eq!(back.len(), map.len() + 200);
    }

    #[test]
    fn snapshot_of_single_shard_and_string_keys() {
        let map = ShardedBuilder::new().build::<String, u32>();
        for (i, name) in ["ash", "beech", "cedar"].iter().enumerate() {
            map.insert(name.to_string(), i as u32);
        }
        let mut buf = Vec::new();
        map.write_snapshot(&mut buf).unwrap();
        let back = super::ShardedMap::<String, u32>::read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(back.to_vec(), map.to_vec());
        assert_eq!(back.shard_count(), 1);
        // Truncated input errors (every strict prefix), never panics.
        for cut in (0..buf.len()).step_by(7) {
            assert!(
                super::ShardedMap::<String, u32>::read_snapshot(&mut &buf[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn borrowed_key_queries() {
        let map = ShardedBuilder::new().max_shard_len(4).min_shard_len(1).build::<String, u32>();
        for (i, name) in
            ["ash", "beech", "cedar", "elm", "fir", "oak", "pine", "yew"].iter().enumerate()
        {
            map.insert(name.to_string(), i as u32);
        }
        assert!(map.shard_count() > 1);
        assert_eq!(map.get("cedar"), Some(2));
        assert!(map.contains_key("oak"));
        assert!(!map.contains_key("maple"));
        map.get_mut_with("elm", |v| *v += 10);
        assert_eq!(map.get("elm"), Some(13));
        assert_eq!(map.get_with("fir", |v| v + 1), Some(5));
        assert_eq!(map.remove("ash"), Some(0));
        assert_eq!(map.remove("ash"), None);
        assert_eq!(map.first_key_value(), Some(("beech".to_string(), 1)));
        assert_eq!(map.last_key_value(), Some(("yew".to_string(), 7)));
        map.check_invariants();
    }

    #[test]
    fn extend_from_unsorted_sorts_dedups_last_write_wins() {
        let map = tiny().build::<u32, u32>();
        // Shuffled batch with duplicate keys: the later arrival must win.
        let landed = map.extend_from_unsorted(vec![(9, 1), (3, 1), (9, 2), (1, 1), (3, 2), (9, 3)]);
        assert_eq!(landed, 3, "three unique keys");
        assert_eq!(map.to_vec(), vec![(1, 1), (3, 2), (9, 3)]);
        // Routes through the bulk path, never per-op inserts.
        let stats = map.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_entries, 3);
        // A big shuffled batch still pre-shards via extend_sorted.
        let mut big: Vec<(u32, u32)> = (0..500).map(|k| (k * 7 % 500, k)).collect();
        big.reverse();
        map.extend_from_unsorted(big);
        map.check_invariants();
        assert_eq!(map.len(), 500);
        assert!(map.shard_count() > 4, "bulk merge must still split shards");
    }

    #[test]
    fn range_limited_caps_and_reports_truncation() {
        let map = tiny().build_from_sorted::<u32, u32>((0..300).map(|k| (k, k)).collect());
        assert!(map.shard_count() > 2);
        let (hits, truncated) = map.range_limited(10..290, 5);
        assert_eq!(hits, (10..15).map(|k| (k, k)).collect::<Vec<_>>());
        assert!(truncated, "280 candidates cut to 5 must report truncation");
        let (hits, truncated) = map.range_limited(295.., usize::MAX);
        assert_eq!(hits.len(), 5);
        assert!(!truncated);
        let (hits, truncated) = map.range_limited(100..105, 5);
        assert_eq!(hits.len(), 5);
        assert!(!truncated, "exactly-limit scans are not truncated");
        let (hits, truncated) = map.range_limited(.., 0);
        assert!(hits.is_empty());
        assert!(truncated, "limit 0 over a non-empty range is truncated");
    }

    #[test]
    fn per_shard_observability_tracks_ops_and_resharding() {
        let map = tiny().build::<u32, u32>();
        for k in 0..200 {
            map.insert(k, k);
        }
        for k in (0..200).step_by(2) {
            map.get(&k);
            map.contains_key(&k);
        }
        map.get_mut_with(&7, |v| *v += 1);
        let grown = map.stats();
        assert_eq!(grown.shard_reads.len(), grown.shards);
        assert_eq!(grown.shard_writes.len(), grown.shards);
        assert_eq!(grown.shard_reads.iter().sum::<u64>(), 200, "100 gets + 100 contains");
        assert_eq!(grown.shard_writes.iter().sum::<u64>(), 201, "200 inserts + 1 get_mut");
        // Skew accessors bracket the mean.
        assert!(grown.min_shard_len() as f64 <= grown.mean_shard_len());
        assert!(grown.mean_shard_len() <= grown.max_shard_len() as f64);
        // The trace ring saw every split, in order.
        let events = map.trace().snapshot();
        let splits = events.iter().filter(|e| e.kind == lll_obs::TraceKind::Split).count() as u64;
        assert_eq!(splits, grown.splits, "one Split event per split");
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq), "events sorted by seq");
        // Merges fold the retired shard's counts into the survivor: totals
        // stay monotone across a full drain.
        for k in 0..195 {
            map.remove(&k);
        }
        let drained = map.stats();
        assert!(drained.merges > 0, "drain must merge");
        assert_eq!(
            drained.shard_writes.iter().sum::<u64>(),
            grown.shard_writes.iter().sum::<u64>() + 195,
            "write counts survive merges"
        );
        assert_eq!(drained.shard_reads.iter().sum::<u64>(), 200, "read counts survive merges");
        assert!(map.trace().snapshot().iter().any(|e| e.kind == lll_obs::TraceKind::Merge));
        map.check_invariants();
    }

    #[test]
    fn stats_track_occupancy() {
        let map = tiny().build::<u32, u32>();
        for k in 0..200 {
            map.insert(k, k);
        }
        let stats = map.stats();
        assert_eq!(stats.len, 200);
        assert_eq!(stats.shard_lens.iter().sum::<usize>(), 200);
        assert_eq!(stats.shard_lens.len(), stats.shards);
        assert_eq!(stats.shard_capacities.len(), stats.shards);
        assert!(stats.total_moves > 0);
        assert_eq!(stats.batches, 0, "point inserts are not batches");
        assert!(stats.shard_lens.iter().zip(&stats.shard_capacities).all(|(l, c)| l <= c));
        let line = format!("{stats}");
        assert!(line.contains("200 entries"), "display: {line}");
    }

    #[test]
    fn a_split_retires_the_old_shard_for_readers_and_writers() {
        let map = tiny().build::<u32, u32>();
        // Load the directory a reader would hold across the split.
        let old = map.dir.load();
        for k in 0..=32 {
            map.insert(k, k);
        }
        assert_eq!(map.stats().splits, 1, "33 entries over a max of 32 split once");
        let shard = &old.shards[0];
        assert!(shard.read(|m| m.len()).is_none(), "a reader of the old directory must reload");
        assert!(shard.write().is_none(), "a writer of the old directory must reload");
        for k in 0..=32 {
            assert_eq!(map.get(&k), Some(k), "key {k} after the split");
        }
    }

    #[test]
    fn bulk_load_chunks_hold_only_their_own_entries() {
        // Each shard's run is allocated at its own length: none keeps the
        // capacity of the entries behind it, which would hold the whole
        // preload several times over while the shards are built.
        let chunks = super::exact_chunks((0..10_000u32).collect(), 2048);
        assert_eq!(chunks.iter().map(Vec::len).collect::<Vec<_>>(), [2048, 2048, 2048, 2048, 1808]);
        assert!(chunks.iter().all(|c| c.capacity() == c.len()), "a run kept spare capacity");
        assert_eq!(chunks.concat(), (0..10_000).collect::<Vec<_>>());
        assert_eq!(super::exact_chunks(Vec::<u32>::new(), 8), [Vec::<u32>::new()]);
    }
}
