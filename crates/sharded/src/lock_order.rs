//! The locking protocol in types, its debug-build tracker, and the cell
//! that publishes the directory.
//!
//! The protocol has three levels, outermost first:
//!
//! 1. The **maintenance mutex** (`ShardedMap::maint`, a [`MaintLock`]):
//!    splits, merges, batches, and snapshots serialize under it. It is
//!    acquired only with no shard guard live.
//! 2. Each **shard lock** ([`ShardLock`]) guards one rebalance domain.
//!    Point operations hold at most one; only a maintenance holder may
//!    stack several (merges lock a neighboring pair, snapshots read-lock
//!    every shard for one atomic picture).
//! 3. The **directory** lives in a [`Striped`] cell: [`STRIPES`] copies,
//!    each behind its own `RwLock`. [`load`](Striped::load) holds its
//!    stripe's shared lock only to clone an `Arc`, and
//!    [`publish`](Striped::publish) holds each exclusive lock only to swap
//!    one, so a stripe lock is a leaf: no other lock is ever taken under
//!    it, and nothing here tracks it. Publication requires the
//!    maintenance mutex and *no* live shard guard: a split or merge
//!    takes the old shard's map and releases its lock first, so a reader
//!    of the old directory meets either the shard's old content or no map.
//!
//! The lock types hold the order. Their inner locks are private, and
//! every acquisition borrows a zero-sized [`Unlocked`] token that each
//! locking `ShardedMap` method claims once, at its top:
//!
//! * [`ShardLock::rlock`] and [`wlock`](ShardLock::wlock) run a closure
//!   under the lock and keep the token mutably borrowed while it runs, so
//!   the closure can take neither a second shard lock nor the maintenance
//!   mutex;
//! * [`MaintLock::mlock`] returns a [`MaintGuard`] that keeps the token
//!   borrowed, so its holder can neither re-enter the mutex nor take a
//!   point lock;
//! * a maintenance holder stacks shard guards through
//!   [`ShardLock::read`] and [`write`](ShardLock::write), which borrow the
//!   [`MaintGuard`];
//! * [`Striped::publish`] takes the [`MaintGuard`] mutably, so it cannot
//!   run while a stacked shard guard lives.
//!
//! So each inversion among one token's acquisitions is a borrow error,
//! however the code is laid out. A user callback that calls back into the
//! map (an `insert` inside a `get_with` closure) claims a token of its
//! own, and only the debug-build tracker in this module sees that
//! inversion: it counts the guards each thread holds and panics *before*
//! an acquisition that would invert the order blocks, so the bug surfaces
//! as a panic with a message instead of a silent deadlock. In release
//! builds the tracker compiles to nothing — [`Tracked`] is a newtype over
//! the guard and its witness is a zero-sized no-op — except for one
//! always-on per-thread count of maintenance acquisitions
//! ([`maintenance_acquisitions`]), which the release-mode stress suite
//! uses to prove reader threads never take the maintenance mutex.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The lock levels of the protocol, outermost first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Level {
    /// The structural-maintenance mutex, a [`MaintLock`]: splits, merges,
    /// batches, snapshots.
    Maintenance,
    /// One shard's [`ShardLock`] (an entry of `Directory::shards`).
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

/// The right to take this crate's locks: zero-sized, and neither `Send`
/// nor `Sync`, so it stays on the thread that claimed it. Every
/// acquisition borrows it (see the module docs), so the borrow checker
/// rejects any nesting of one token's acquisitions that would invert the
/// lock order.
pub(crate) struct Unlocked(PhantomData<*const ()>);

impl Unlocked {
    /// Claim a token. Only the first statement of a public `ShardedMap`
    /// method (or of its `Debug` impl) and tests claim one; every other
    /// function takes its caller's token, or its caller's [`MaintGuard`],
    /// as an argument. A token claimed anywhere else could sit beside a
    /// caller's token that a held lock still borrows, and then only the
    /// debug tracker checks the order between them.
    pub(crate) fn claim() -> Self {
        Self(PhantomData)
    }
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
    pub(crate) struct Witness {
        level: Level,
    }

    impl Witness {
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
            Witness { level }
        }
    }

    impl Drop for Witness {
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
}

#[cfg(not(debug_assertions))]
mod tracker {
    /// Release builds: no state, no checks, no code.
    pub(crate) struct Witness;

    impl Witness {
        #[inline(always)]
        pub(crate) fn acquire(_level: super::Level) -> Self {
            Witness
        }
    }
}

/// A lock guard paired with its order-tracker witness. Derefs to the
/// guarded value exactly like the bare guard would.
pub(crate) struct Tracked<G> {
    // Field order is load-bearing: `guard` drops first, so the lock is
    // released before the witness decrements this thread's hold count.
    guard: G,
    _order: tracker::Witness,
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

/// A shard's lock: an `RwLock` whose only acquisitions are the tracked
/// [`rlock`](Self::rlock)/[`wlock`](Self::wlock) of a point operation and
/// the [`read`](Self::read)/[`write`](Self::write) a maintenance holder
/// stacks.
pub(crate) struct ShardLock<T>(RwLock<T>);

impl<T> ShardLock<T> {
    pub(crate) fn new(value: T) -> Self {
        Self(RwLock::new(value))
    }

    /// Run `f` under the shared lock. The token stays borrowed while `f`
    /// runs, so `f` takes no other lock through it: a point operation
    /// holds one shard lock at a time.
    pub(crate) fn rlock<R>(&self, _: &mut Unlocked, f: impl FnOnce(&T) -> R) -> R {
        f(&self.shared())
    }

    /// Exclusive-lock counterpart of [`rlock`](Self::rlock).
    pub(crate) fn wlock<R>(&self, _: &mut Unlocked, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.exclusive())
    }

    /// A shared guard for a maintenance holder, which may stack several.
    /// It borrows the [`MaintGuard`], so it ends before the holder can
    /// [`publish`](Striped::publish).
    pub(crate) fn read<'a>(&'a self, _: &'a MaintGuard<'_>) -> Tracked<RwLockReadGuard<'a, T>> {
        self.shared()
    }

    /// Exclusive counterpart of [`read`](Self::read).
    pub(crate) fn write<'a>(&'a self, _: &'a MaintGuard<'_>) -> Tracked<RwLockWriteGuard<'a, T>> {
        self.exclusive()
    }

    /// Shared-lock acquisition that survives a poisoned lock: the maps hold
    /// no invariant that a panicking reader could have broken mid-flight,
    /// and a panicking *writer* aborts the whole differential test run
    /// anyway — so recovery beats cascading poison panics across unrelated
    /// threads.
    fn shared(&self) -> Tracked<RwLockReadGuard<'_, T>> {
        let order = tracker::Witness::acquire(Level::Shard);
        Tracked { guard: self.0.read().unwrap_or_else(|e| e.into_inner()), _order: order }
    }

    /// Exclusive-lock counterpart of [`shared`](Self::shared).
    fn exclusive(&self) -> Tracked<RwLockWriteGuard<'_, T>> {
        let order = tracker::Witness::acquire(Level::Shard);
        Tracked { guard: self.0.write().unwrap_or_else(|e| e.into_inner()), _order: order }
    }
}

/// A held maintenance mutex. It keeps the token it was taken with
/// borrowed, so its holder locks shards only through it
/// ([`ShardLock::read`]/[`write`](ShardLock::write)) and publishes through
/// it ([`Striped::publish`]).
pub(crate) struct MaintGuard<'a> {
    _guard: Tracked<MutexGuard<'a, ()>>,
    _token: PhantomData<&'a mut Unlocked>,
}

/// The maintenance mutex, the outermost level: its only acquisition is
/// the tracked [`mlock`](Self::mlock).
pub(crate) struct MaintLock(Mutex<()>);

impl MaintLock {
    pub(crate) fn new() -> Self {
        Self(Mutex::new(()))
    }

    /// Acquire the mutex. Poison recovery as for a shard lock; also
    /// bumps the always-on per-thread acquisition count behind
    /// [`maintenance_acquisitions`].
    pub(crate) fn mlock<'a>(&'a self, _: &'a mut Unlocked) -> MaintGuard<'a> {
        let order = tracker::Witness::acquire(Level::Maintenance);
        MAINT_ACQUIRED.with(|c| c.set(c.get() + 1));
        let guard =
            Tracked { guard: self.0.lock().unwrap_or_else(|e| e.into_inner()), _order: order };
        MaintGuard { _guard: guard, _token: PhantomData }
    }
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
    pub(crate) fn load(&self) -> Arc<Padded<T>> {
        self.stripe(reader_stripe())
    }

    fn stripe(&self, i: usize) -> Arc<Padded<T>> {
        Arc::clone(&self.stripes[i].0.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Publish `value`: a fresh copy into each stripe in turn. It borrows
    /// the maintenance guard mutably, so publication is serialized and no
    /// shard guard stacked on that guard is live.
    pub(crate) fn publish(&self, _: &mut MaintGuard<'_>, value: T) {
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
        let u = &mut Unlocked::claim();
        let maint = MaintLock::new();
        let shard_a = ShardLock::new(0u32);
        let shard_b = ShardLock::new(0u32);
        let cell = Striped::new(1u32);
        // The read path: directory load, then one shard.
        let d = cell.load();
        assert_eq!(**d, 1 + shard_a.rlock(u, |a| *a));
        // Scans: one shard at a time, sequentially, under one load.
        for s in [&shard_a, &shard_b] {
            assert_eq!(s.rlock(u, |g| *g), 0);
        }
        {
            // Maintenance stacks shard guards (merge locks a pair) and
            // publishes with all of them released — with a loaded
            // directory still in hand, as every split and merge has.
            let mut m = maint.mlock(u);
            {
                let _a = shard_a.write(&m);
                let _b = shard_b.write(&m);
            }
            cell.publish(&mut m, 2);
        }
        assert_eq!(**cell.load(), 2);
        assert!(maintenance_acquisitions() >= 1, "mlock bumps the always-on count");
    }

    #[test]
    fn a_publish_reaches_every_stripe() {
        let maint = MaintLock::new();
        let cell = Striped::new(1u64);
        let pinned = cell.load();
        cell.publish(&mut maint.mlock(&mut Unlocked::claim()), 2);
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
            let maint = MaintLock::new();
            let u = &mut Unlocked::claim();
            let mut m = maint.mlock(u);
            start.wait();
            for a in 1..=2000u64 {
                cell.publish(&mut m, (a, a + 1));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(**cell.load(), (2000, 2001));
    }

    // One token cannot express an inversion: the borrow checker rejects
    // it. The tests below claim a second token inside the lock, as a
    // callback that calls back into the map does, so only the tracker
    // stands between them and a deadlock.

    #[test]
    fn tracker_state_survives_a_panic() {
        // An inversion panic must unwind cleanly: the poisoned attempt's
        // guards drop, and the thread can lock legally again.
        let maint = MaintLock::new();
        let shard = ShardLock::new(0u32);
        if cfg!(debug_assertions) {
            let result = std::panic::catch_unwind(|| {
                shard.rlock(&mut Unlocked::claim(), |_| drop(maint.mlock(&mut Unlocked::claim())))
            });
            assert!(result.is_err(), "inversion must panic in debug builds");
        }
        let u = &mut Unlocked::claim();
        let m = maint.mlock(u);
        let _s = shard.read(&m);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "lock-order inversion: maintenance lock requested while 1 shard")
    )]
    fn maintenance_under_shard_panics_in_debug() {
        let maint = MaintLock::new();
        let shard = ShardLock::new(0u32);
        shard.rlock(&mut Unlocked::claim(), |_| {
            // In release builds the tracker is compiled out and these are
            // two unrelated locks, so the body completes without panicking
            // and the should_panic expectation is compiled out with it.
            // The same gating protects the inversion test below: the
            // release body skips the offending acquisition.
            if cfg!(debug_assertions) {
                drop(maint.mlock(&mut Unlocked::claim()));
            }
        });
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "lock-order inversion: a second shard lock")
    )]
    fn two_shards_without_maintenance_panic_in_debug() {
        let shard_a = ShardLock::new(0u32);
        let shard_b = ShardLock::new(0u32);
        shard_a.rlock(&mut Unlocked::claim(), |_| {
            if cfg!(debug_assertions) {
                shard_b.rlock(&mut Unlocked::claim(), |_| ());
            }
        });
    }
}
