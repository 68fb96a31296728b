//! Runtime enforcement of the locking protocol, and the cell that
//! publishes the directory.
//!
//! The crate's invariant has three parts, enforced twice — statically by
//! `lll-check` (every acquisition site names its [`Level`], and the linter
//! simulates guard lifetimes lexically) and dynamically by the debug-build
//! tracker in this module, which counts the guards each thread holds and
//! panics the moment an acquisition would invert the order:
//!
//! 1. The **maintenance mutex** (`ShardedMap::maint`) is the outermost
//!    level: splits, merges, batches, and snapshots serialize under it.
//!    It is acquired only with no shard guard live.
//! 2. Each **shard lock** (`RwLock<LabelMap>`) guards one rebalance
//!    domain. Point operations hold at most one; only a maintenance
//!    holder may stack several (merges lock a neighboring pair, snapshots
//!    read-lock every shard for one atomic picture).
//! 3. The **directory** lives in a [`Striped`] cell: [`STRIPES`] copies,
//!    each behind its own `RwLock`. [`load`](Striped::load) holds its
//!    stripe's shared lock only to clone an `Arc`, and
//!    [`publish`](Striped::publish) holds each exclusive lock only to swap
//!    one, so a stripe lock is a leaf: no other lock is ever taken under
//!    it, and the tracker does not count it. Publication requires the
//!    maintenance mutex and *no* live shard guard: a split or merge
//!    retires the old shard and releases its lock first, so a reader of
//!    the old directory meets either the shard's old content or its
//!    retired flag.
//!
//! The check runs *before* blocking, so an ordering bug surfaces as an
//! immediate panic with a message instead of a silent deadlock. In release
//! builds the tracker compiles to nothing — [`Tracked`] is a newtype over
//! the guard and the token is a zero-sized no-op — except for one
//! always-on per-thread count of maintenance acquisitions
//! ([`maintenance_acquisitions`]), which the release-mode stress suite
//! uses to prove reader threads never take the maintenance mutex.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The lock levels of the protocol, outermost first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Level {
    /// The structural-maintenance mutex (`ShardedMap::maint`): splits,
    /// merges, batches, snapshots.
    Maintenance,
    /// One shard's `LabelMap` (an entry of `Directory::shards`).
    Shard,
}

thread_local! {
    /// Always-on (release builds included): how many times this thread has
    /// acquired the maintenance mutex. Cheap — maintenance is rare by
    /// design — and it lets release-mode stress tests assert that reader
    /// threads never took it.
    static MAINT_ACQUIRED: Cell<u64> = const { Cell::new(0) };
}

/// How many times **this thread** has acquired the maintenance mutex over
/// its lifetime. Diagnostic: the read path must never bump it, and the
/// concurrency stress suite asserts exactly that from its reader threads.
pub fn maintenance_acquisitions() -> u64 {
    MAINT_ACQUIRED.with(|c| c.get())
}

#[cfg(debug_assertions)]
mod tracker {
    use super::Level;
    use std::cell::Cell;

    thread_local! {
        /// (maintenance, shard) guard counts live on this thread.
        static HELD: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
    }

    /// RAII witness of one lock guard. Acquired *before* blocking on the
    /// lock — a would-be self-deadlock panics instead of hanging — and
    /// dropped *after* the guard it tracks (field order in `Tracked`
    /// guarantees the lock is released first).
    pub(crate) struct Token {
        level: Level,
    }

    impl Token {
        pub(crate) fn acquire(level: Level) -> Self {
            HELD.with(|h| {
                let (maint, shard) = h.get();
                match level {
                    Level::Maintenance => {
                        assert!(
                            shard == 0,
                            "lock-order inversion: maintenance lock requested while {shard} shard \
                             guard(s) are live (order is maintenance → shard)"
                        );
                        assert!(
                            maint == 0,
                            "lock-order inversion: maintenance lock re-entered on one thread \
                             (Mutex is not re-entrant)"
                        );
                        h.set((maint + 1, shard));
                    }
                    Level::Shard => {
                        assert!(
                            shard == 0 || maint > 0,
                            "lock-order inversion: a second shard lock requested without the \
                             maintenance lock (point ops hold at most one shard)"
                        );
                        h.set((maint, shard + 1));
                    }
                }
            });
            Token { level }
        }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            HELD.with(|h| {
                let (maint, shard) = h.get();
                match self.level {
                    Level::Maintenance => h.set((maint - 1, shard)),
                    Level::Shard => h.set((maint, shard - 1)),
                }
            });
        }
    }

    /// Publication preconditions (see the module docs, rule 3).
    pub(crate) fn assert_publish_safe() {
        HELD.with(|h| {
            let (maint, shard) = h.get();
            assert!(
                maint > 0,
                "publish without the maintenance lock: publication must be serialized"
            );
            assert!(
                shard == 0,
                "publish while {shard} shard guard(s) are live: retire the shard and release \
                 its lock before publishing"
            );
        });
    }
}

#[cfg(not(debug_assertions))]
mod tracker {
    /// Release builds: no state, no checks, no code.
    pub(crate) struct Token;

    impl Token {
        #[inline(always)]
        pub(crate) fn acquire(_level: super::Level) -> Self {
            Token
        }
    }

    #[inline(always)]
    pub(crate) fn assert_publish_safe() {}
}

/// A lock guard paired with its order-tracker token. Derefs to the
/// guarded value exactly like the bare guard would.
pub(crate) struct Tracked<G> {
    // Field order is load-bearing: `guard` drops first, so the lock is
    // released before the token decrements this thread's hold count.
    guard: G,
    _order: tracker::Token,
}

impl<G: Deref> Deref for Tracked<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Tracked<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// Shared-lock acquisition that survives a poisoned lock: the maps hold no
/// invariant that a panicking reader could have broken mid-flight, and a
/// panicking *writer* aborts the whole differential test run anyway — so
/// recovery beats cascading poison panics across unrelated threads.
pub(crate) fn rlock<T>(lock: &RwLock<T>, level: Level) -> Tracked<RwLockReadGuard<'_, T>> {
    let order = tracker::Token::acquire(level);
    Tracked { guard: lock.read().unwrap_or_else(|e| e.into_inner()), _order: order }
}

/// Exclusive-lock counterpart of [`rlock`].
pub(crate) fn wlock<T>(lock: &RwLock<T>, level: Level) -> Tracked<RwLockWriteGuard<'_, T>> {
    let order = tracker::Token::acquire(level);
    Tracked { guard: lock.write().unwrap_or_else(|e| e.into_inner()), _order: order }
}

/// Acquire the maintenance mutex — the outermost level. Poison recovery as
/// in [`rlock`]; also bumps the always-on per-thread acquisition count
/// behind [`maintenance_acquisitions`].
pub(crate) fn mlock<T>(lock: &Mutex<T>) -> Tracked<MutexGuard<'_, T>> {
    let order = tracker::Token::acquire(Level::Maintenance);
    MAINT_ACQUIRED.with(|c| c.set(c.get() + 1));
    Tracked { guard: lock.lock().unwrap_or_else(|e| e.into_inner()), _order: order }
}

/// Stripes of a [`Striped`] cell. Readers spread over them, so readers on
/// different stripes write no shared cache line.
const STRIPES: usize = 8;

/// One stripe: its own lock over its own copy of the value, aligned so
/// that no two stripes share a cache line.
#[repr(align(128))]
struct Stripe<T>(RwLock<Arc<Padded<T>>>);

/// A stripe's copy of the value. Readers clone the `Arc` around it, so its
/// reference counts are the only memory a reader writes; the alignment
/// keeps them off every other stripe's cache lines (copies allocated one
/// after another would otherwise land in neighboring heap chunks).
#[repr(align(128))]
pub(crate) struct Padded<T>(T);

impl<T> Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Which stripe this thread reads: threads are dealt round-robin across
/// the stripes at first use.
fn reader_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// A published value read through striped locks (the big-reader-lock
/// idea): each stripe holds its own `Arc` of its own copy, so readers on
/// different stripes share neither a lock word nor a reference count.
/// `Arc` frees a replaced copy when its last reader drops it.
pub(crate) struct Striped<T> {
    stripes: [Stripe<T>; STRIPES],
}

impl<T: Clone> Striped<T> {
    /// A cell publishing `value`.
    pub(crate) fn new(value: T) -> Self {
        Self {
            stripes: std::array::from_fn(|_| Stripe(RwLock::new(Arc::new(Padded(value.clone()))))),
        }
    }

    /// The published value: this thread's stripe's shared lock, held for
    /// one `Arc` clone. Waits only while a publish swaps this stripe.
    // lll-check: no-alloc
    pub(crate) fn load(&self) -> Arc<Padded<T>> {
        self.stripe(reader_stripe())
    }

    fn stripe(&self, i: usize) -> Arc<Padded<T>> {
        Arc::clone(&self.stripes[i].0.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Publish `value`: a fresh copy into each stripe in turn. Debug
    /// builds first check the preconditions (maintenance held, no shard
    /// guard live on this thread).
    pub(crate) fn publish(&self, value: T) {
        tracker::assert_publish_safe();
        for stripe in &self.stripes {
            let copy = Arc::new(Padded(value.clone()));
            // The old copy drops after the lock is released.
            let _old =
                std::mem::replace(&mut *stripe.0.write().unwrap_or_else(|e| e.into_inner()), copy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn legal_orders_are_silent() {
        let maint = Mutex::new(());
        let shard_a = RwLock::new(0u32);
        let shard_b = RwLock::new(0u32);
        let cell = Striped::new(1u32);
        {
            // The read path: directory load, then one shard.
            let d = cell.load();
            let a = rlock(&shard_a, Level::Shard);
            assert_eq!(**d, 1 + *a);
        }
        {
            // Scans: one shard at a time, sequentially, under one load.
            let _d = cell.load();
            for s in [&shard_a, &shard_b] {
                let g = rlock(s, Level::Shard);
                assert_eq!(*g, 0);
            }
        }
        {
            // Maintenance stacks shard guards (merge locks a pair) and
            // publishes with all of them released — with a loaded
            // directory still in hand, as every split and merge has.
            let _m = mlock(&maint);
            let _d = cell.load();
            {
                let _a = wlock(&shard_a, Level::Shard);
                let _b = wlock(&shard_b, Level::Shard);
            }
            cell.publish(2);
        }
        assert_eq!(**cell.load(), 2);
        assert!(maintenance_acquisitions() >= 1, "mlock bumps the always-on count");
    }

    #[test]
    fn a_publish_reaches_every_stripe() {
        let maint = Mutex::new(());
        let cell = Striped::new(1u64);
        let pinned = cell.load();
        {
            let _m = mlock(&maint);
            cell.publish(2);
        }
        for i in 0..STRIPES {
            assert_eq!(**cell.stripe(i), 2, "stripe {i} missed the publish");
        }
        assert_eq!(**pinned, 1, "a loaded value outlives its replacement");
    }

    #[test]
    fn loads_never_tear_across_publishes() {
        // Invariant: the published pair is always (a, a + 1), and no
        // stripe ever goes back to an older pair.
        let cell = Striped::new((0u64, 1u64));
        let stop = AtomicBool::new(false);
        let readers = [0, STRIPES / 2, STRIPES - 1];
        let start = Barrier::new(readers.len() + 1);
        std::thread::scope(|s| {
            for stripe in readers {
                let (cell, stop, start) = (&cell, &stop, &start);
                s.spawn(move || {
                    start.wait();
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let (a, b) = **cell.stripe(stripe);
                        assert_eq!(b, a + 1, "torn read on stripe {stripe}");
                        assert!(a >= last, "stripe {stripe} went back from {last} to {a}");
                        last = a;
                    }
                });
            }
            let maint = Mutex::new(());
            let _m = mlock(&maint);
            start.wait();
            for a in 1..=2000u64 {
                cell.publish((a, a + 1));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(**cell.load(), (2000, 2001));
    }

    #[test]
    fn tracker_state_survives_a_panic() {
        // An inversion panic must unwind cleanly: the poisoned attempt's
        // guards drop, and the thread can lock legally again.
        let maint = Mutex::new(());
        let shard = RwLock::new(0u32);
        if cfg!(debug_assertions) {
            let result = std::panic::catch_unwind(|| {
                let _s = rlock(&shard, Level::Shard);
                let _m = mlock(&maint);
            });
            assert!(result.is_err(), "inversion must panic in debug builds");
        }
        let _m = mlock(&maint);
        let _s = rlock(&shard, Level::Shard);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "lock-order inversion: maintenance lock requested while 1 shard")
    )]
    fn maintenance_under_shard_panics_in_debug() {
        let maint = Mutex::new(());
        let shard = RwLock::new(0u32);
        let _s = rlock(&shard, Level::Shard);
        // In release builds the tracker is compiled out and these are two
        // unrelated locks, so the body completes without panicking and the
        // should_panic expectation is compiled out with it. The same
        // gating pattern protects every inversion test below: the release
        // body simply skips the offending acquisition.
        if cfg!(debug_assertions) {
            let _m = mlock(&maint);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "lock-order inversion: a second shard lock")
    )]
    fn two_shards_without_maintenance_panic_in_debug() {
        let shard_a = RwLock::new(0u32);
        let shard_b = RwLock::new(0u32);
        let _a = rlock(&shard_a, Level::Shard);
        if cfg!(debug_assertions) {
            let _b = rlock(&shard_b, Level::Shard);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "publish without the maintenance"))]
    fn publish_without_maintenance_panics_in_debug() {
        let cell = Striped::new(0u32);
        if cfg!(debug_assertions) {
            cell.publish(1);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "publish while 1 shard guard"))]
    fn publish_with_a_live_shard_guard_panics_in_debug() {
        let maint = Mutex::new(());
        let shard = RwLock::new(0u32);
        let cell = Striped::new(0u32);
        let _m = mlock(&maint);
        let _s = wlock(&shard, Level::Shard);
        if cfg!(debug_assertions) {
            cell.publish(1);
        }
    }
}
