//! Runtime enforcement of the locking protocol around the RCU'd
//! directory.
//!
//! The crate's invariant has three parts, enforced twice — statically by
//! `lll-check` (every acquisition site names its [`Level`], and the linter
//! simulates guard lifetimes lexically) and dynamically by the debug-build
//! tracker in this module, which counts the guards each thread holds and
//! panics the moment an acquisition would invert the order:
//!
//! 1. The **maintenance mutex** (`ShardedMap::maint`) is the outermost
//!    level: splits, merges, batches, and snapshots serialize under it.
//!    It is acquired only with no shard guard and no RCU guard live — a
//!    thread that pinned a directory borrow and then blocked on
//!    maintenance would deadlock the publisher's grace wait.
//! 2. Each **shard lock** (`RwLock<LabelMap>`) guards one rebalance
//!    domain. Point operations hold at most one; only a maintenance
//!    holder may stack several (merges lock a neighboring pair, snapshots
//!    read-lock every shard for one atomic picture).
//! 3. **RCU guards** ([`rcu_load`]) pin a directory snapshot without any
//!    lock. They nest freely under anything, but publication
//!    ([`rcu_publish`]) requires the maintenance mutex and *no* live shard
//!    or RCU guard on the publishing thread: a shard guard could deadlock
//!    a reader that pinned the old directory and waits on that shard, and
//!    an own RCU guard would deadlock the grace wait against itself.
//!
//! The check runs *before* blocking, so an ordering bug surfaces as an
//! immediate panic with a message instead of a silent deadlock. In release
//! builds the tracker compiles to nothing — [`Tracked`] is a newtype over
//! the guard and the token is a zero-sized no-op — except for one
//! always-on per-thread count of maintenance acquisitions
//! ([`maintenance_acquisitions`]), which the release-mode stress suite
//! uses to prove reader threads never touch the directory lock.

use crate::rcu::{RcuCell, RcuGuard};
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
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
    /// threads never took the directory's only lock.
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
        /// (maintenance, shard, rcu) guard counts live on this thread.
        static HELD: Cell<(u32, u32, u32)> = const { Cell::new((0, 0, 0)) };
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
                let (maint, shard, rcu) = h.get();
                match level {
                    Level::Maintenance => {
                        assert!(
                            shard == 0,
                            "lock-order inversion: maintenance lock requested while {shard} shard \
                             guard(s) are live (order is maintenance → shard)"
                        );
                        assert!(
                            rcu == 0,
                            "lock-order inversion: maintenance lock requested while {rcu} RCU \
                             guard(s) pin the directory (a publisher's grace wait would deadlock)"
                        );
                        assert!(
                            maint == 0,
                            "lock-order inversion: maintenance lock re-entered on one thread \
                             (Mutex is not re-entrant)"
                        );
                        h.set((maint + 1, shard, rcu));
                    }
                    Level::Shard => {
                        assert!(
                            shard == 0 || maint > 0,
                            "lock-order inversion: a second shard lock requested without the \
                             maintenance lock (point ops hold at most one shard)"
                        );
                        h.set((maint, shard + 1, rcu));
                    }
                }
            });
            Token { level }
        }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            HELD.with(|h| {
                let (maint, shard, rcu) = h.get();
                match self.level {
                    Level::Maintenance => h.set((maint - 1, shard, rcu)),
                    Level::Shard => h.set((maint, shard - 1, rcu)),
                }
            });
        }
    }

    /// RAII witness of one RCU directory borrow.
    pub(crate) struct RcuToken;

    impl RcuToken {
        pub(crate) fn acquire() -> Self {
            HELD.with(|h| {
                let (maint, shard, rcu) = h.get();
                h.set((maint, shard, rcu + 1));
            });
            RcuToken
        }
    }

    impl Drop for RcuToken {
        fn drop(&mut self) {
            HELD.with(|h| {
                let (maint, shard, rcu) = h.get();
                h.set((maint, shard, rcu - 1));
            });
        }
    }

    /// Publication preconditions (see the module docs, rule 3).
    pub(crate) fn assert_publish_safe() {
        HELD.with(|h| {
            let (maint, shard, rcu) = h.get();
            assert!(
                maint > 0,
                "rcu_publish without the maintenance lock: publication must be serialized"
            );
            assert!(
                shard == 0,
                "rcu_publish while {shard} shard guard(s) are live: a reader pinning the old \
                 directory could block on them and deadlock the grace wait"
            );
            assert!(
                rcu == 0,
                "rcu_publish while {rcu} RCU guard(s) are live on the publishing thread: the \
                 grace wait would deadlock against itself"
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

    pub(crate) struct RcuToken;

    impl RcuToken {
        #[inline(always)]
        pub(crate) fn acquire() -> Self {
            RcuToken
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

/// An RCU directory borrow paired with its tracker token. Derefs to the
/// published value.
pub(crate) struct TrackedRcu<'a, T> {
    // Field order is load-bearing, as in `Tracked`: the borrow ends before
    // the token decrements the count.
    guard: RcuGuard<'a, T>,
    _order: tracker::RcuToken,
}

impl<T> Deref for TrackedRcu<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Pin and borrow the currently published directory — the reader-side
/// entry point. Lock-free: never blocks, never allocates.
// lll-check: no-alloc
pub(crate) fn rcu_load<T>(cell: &RcuCell<T>) -> TrackedRcu<'_, T> {
    let order = tracker::RcuToken::acquire();
    TrackedRcu { guard: cell.load(), _order: order }
}

/// Clone out the currently published directory `Arc` (for maintenance
/// walks that must not pin a grace period across shard-lock waits).
pub(crate) fn rcu_snapshot<T>(cell: &RcuCell<T>) -> Arc<T> {
    cell.snapshot()
}

/// Publish a new directory and retire the old one after its grace period.
/// Debug builds enforce the publication preconditions (maintenance held,
/// no shard or RCU guard live on this thread) *before* the swap.
pub(crate) fn rcu_publish<T>(cell: &RcuCell<T>, new: Arc<T>) {
    tracker::assert_publish_safe();
    cell.replace(new);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_orders_are_silent() {
        let maint = Mutex::new(());
        let shard_a = RwLock::new(0u32);
        let shard_b = RwLock::new(0u32);
        let cell = RcuCell::new(Arc::new(1u32));
        {
            // The read path: RCU borrow, then one shard.
            let d = rcu_load(&cell);
            let a = rlock(&shard_a, Level::Shard);
            assert_eq!(*d, 1 + *a);
        }
        {
            // Scans: one shard at a time, sequentially, under one borrow.
            let _d = rcu_load(&cell);
            for s in [&shard_a, &shard_b] {
                let g = rlock(s, Level::Shard);
                assert_eq!(*g, 0);
            }
        }
        {
            // Maintenance stacks shard guards (merge locks a pair) and
            // publishes with all of them released.
            let _m = mlock(&maint);
            {
                let _a = wlock(&shard_a, Level::Shard);
                let _b = wlock(&shard_b, Level::Shard);
            }
            rcu_publish(&cell, Arc::new(2));
        }
        assert_eq!(*rcu_load(&cell), 2);
        assert!(maintenance_acquisitions() >= 1, "mlock bumps the always-on count");
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
        should_panic(expected = "maintenance lock requested while 1 RCU guard")
    )]
    fn maintenance_under_rcu_guard_panics_in_debug() {
        let maint = Mutex::new(());
        let cell = RcuCell::new(Arc::new(0u32));
        let _d = rcu_load(&cell);
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
    #[cfg_attr(debug_assertions, should_panic(expected = "rcu_publish without the maintenance"))]
    fn publish_without_maintenance_panics_in_debug() {
        let cell = RcuCell::new(Arc::new(0u32));
        if cfg!(debug_assertions) {
            rcu_publish(&cell, Arc::new(1));
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "rcu_publish while 1 RCU guard"))]
    fn publish_with_live_rcu_guard_panics_in_debug() {
        let maint = Mutex::new(());
        let cell = RcuCell::new(Arc::new(0u32));
        let _m = mlock(&maint);
        // Gated even at the call: in release the grace wait would truly
        // deadlock against this thread's own live guard.
        if cfg!(debug_assertions) {
            let _d = rcu_load(&cell);
            rcu_publish(&cell, Arc::new(1));
        }
    }
}
