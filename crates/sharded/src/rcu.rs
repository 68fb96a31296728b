//! The crate's **only** `unsafe` module: an RCU cell publishing the shard
//! directory.
//!
//! [`RcuCell<T>`] holds an `Arc<T>` behind an `AtomicPtr` and hands out
//! borrow-counted read guards without ever taking a lock:
//!
//! * **Readers** ([`load`](RcuCell::load)) bump one of [`SLOTS`] striped,
//!   cache-line-padded borrow counters (each thread hashes to a fixed
//!   slot), then load the pointer. The guard derefs to `&T` and decrements
//!   its slot on drop. Two atomic ops per load, no lock, no allocation —
//!   the directory half of every `ShardedMap` operation.
//! * **Writers** ([`replace`](RcuCell::replace)) swap the pointer to a new
//!   `Arc<T>`, then wait out the *grace period*: each slot must be
//!   observed at zero at least once after the swap. Both the reader's
//!   increment→pointer-load and the writer's swap→counter-read are
//!   `SeqCst`, so they form the classic Dekker store-buffering pair: a
//!   borrow that could still dereference the old value is always visible
//!   to the writer's wait loop, and a borrow that starts after the wait
//!   loop passes its slot can only see the new pointer. Once every slot
//!   has been seen at zero the old `Arc` strong count is released.
//!
//! The cell never blocks readers; writers pay the grace wait, which is
//! bounded because every guard in the crate is scoped to a single map
//! operation. The locking protocol serializes `replace` calls under the
//! maintenance mutex (see `lock_order`), though the cell itself is also
//! safe under concurrent `replace` (each swap hands its caller a distinct
//! old pointer to retire).
//!
//! Everything `unsafe` in the crate lives in this file, each block behind
//! a `// SAFETY:` argument; `lll-check`'s `unsafe-discipline` rule
//! whitelists exactly this path.
#![allow(unsafe_code)]

use std::ops::Deref;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

/// Striped borrow-counter slots. More slots mean less reader-reader
/// contention on the counters; the grace wait scans all of them either
/// way.
const SLOTS: usize = 8;

/// One cache-line-padded borrow counter, so readers hashed to different
/// slots never false-share.
#[repr(align(128))]
#[derive(Default)]
struct Slot(AtomicUsize);

/// Which slot this thread's borrows count against: threads are dealt
/// round-robin across the stripe at first use.
fn reader_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS;
    }
    SLOT.with(|s| *s)
}

/// An atomically published `Arc<T>` with lock-free borrowing: readers
/// [`load`](Self::load) a guard, writers [`replace`](Self::replace) the
/// value and reclaim the old one after a grace period. See the module
/// docs for the protocol.
pub(crate) struct RcuCell<T> {
    /// Always a pointer produced by `Arc::into_raw`, owning one strong
    /// count on behalf of the cell.
    ptr: AtomicPtr<T>,
    slots: [Slot; SLOTS],
}

impl<T> RcuCell<T> {
    /// A cell initially publishing `value`.
    pub(crate) fn new(value: Arc<T>) -> Self {
        Self {
            ptr: AtomicPtr::new(Arc::into_raw(value).cast_mut()),
            slots: std::array::from_fn(|_| Slot::default()),
        }
    }

    /// Borrow the currently published value. Lock-free and allocation-free:
    /// one counter increment, one pointer load.
    // lll-check: no-alloc
    pub(crate) fn load(&self) -> RcuGuard<'_, T> {
        let slot = &self.slots[reader_slot()].0;
        // The increment must be visible to a replacer's grace wait *before*
        // the pointer is read — SeqCst on both sides makes this the
        // store-buffering pair the module docs argue through.
        slot.fetch_add(1, Ordering::SeqCst);
        let ptr = self.ptr.load(Ordering::SeqCst);
        RcuGuard { slot, ptr }
    }

    /// Clone out the currently published `Arc` — for holders that need the
    /// value beyond a guard's scope (maintenance walks, snapshots).
    pub(crate) fn snapshot(&self) -> Arc<T> {
        let guard = self.load();
        // SAFETY: `guard` pins `guard.ptr`'s grace period, so the cell's
        // strong count on it is still live; the pointer came from
        // `Arc::into_raw` (cell invariant). The increment balances the
        // count `from_raw` takes ownership of, leaving the cell's own
        // count intact after the guard drops.
        unsafe {
            Arc::increment_strong_count(guard.ptr);
            Arc::from_raw(guard.ptr)
        }
    }

    /// Publish `new` and retire the previously published value after its
    /// grace period. Callers serialize publication (here: the maintenance
    /// mutex); the wait below is bounded because guards are op-scoped.
    pub(crate) fn replace(&self, new: Arc<T>) {
        let old = self.ptr.swap(Arc::into_raw(new).cast_mut(), Ordering::SeqCst);
        for slot in &self.slots {
            let mut spins = 0u32;
            // Observing zero once suffices: any borrow counted before the
            // swap has been dropped, and any later borrow re-incrementing
            // this slot already loaded the new pointer (SeqCst total
            // order), so it cannot reference `old`.
            while slot.0.load(Ordering::SeqCst) != 0 {
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        // SAFETY: `old` came from `Arc::into_raw` (cell invariant) and the
        // grace wait above proved no guard can still dereference it; this
        // releases the strong count the cell held for it.
        unsafe { drop(Arc::from_raw(old)) };
    }
}

impl<T> Drop for RcuCell<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` proves no guard borrows the cell (guards
        // carry the cell's lifetime), so the published pointer — always
        // from `Arc::into_raw` — is exclusively ours to release.
        unsafe { drop(Arc::from_raw(self.ptr.load(Ordering::SeqCst))) };
    }
}

// SAFETY: the cell owns its `Arc<T>` (moved in, released on drop) and
// shares only `&T` through guards, so sending or sharing the cell is
// exactly sending/sharing `Arc<T>`: sound when `T: Send + Sync`.
unsafe impl<T: Send + Sync> Send for RcuCell<T> {}
// SAFETY: see the `Send` argument; all interior mutation is atomic.
unsafe impl<T: Send + Sync> Sync for RcuCell<T> {}

/// A borrow of an [`RcuCell`]'s published value. Holding one pins the
/// value's grace period; drop it before any structural wait (the
/// protocol's tracker enforces this in debug builds).
pub(crate) struct RcuGuard<'a, T> {
    slot: &'a AtomicUsize,
    ptr: *const T,
}

impl<T> Deref for RcuGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the slot increment in `load` happened before the pointer
        // read (SeqCst), so any replacer's grace wait cannot have released
        // `ptr` while this guard is live (it observes the slot nonzero
        // until our drop decrements it).
        unsafe { &*self.ptr }
    }
}

impl<T> Drop for RcuGuard<'_, T> {
    fn drop(&mut self) {
        self.slot.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn load_sees_latest_published_value() {
        let cell = RcuCell::new(Arc::new(1u64));
        assert_eq!(*cell.load(), 1);
        cell.replace(Arc::new(2));
        assert_eq!(*cell.load(), 2);
        // A snapshot taken before a replace keeps its value (a *guard*
        // held across a same-thread replace would deadlock the grace
        // wait — which is why the lock_order wrappers forbid it).
        let pinned = cell.snapshot();
        cell.replace(Arc::new(3));
        assert_eq!(*pinned, 2);
        assert_eq!(*cell.load(), 3);
    }

    #[test]
    fn snapshot_outlives_replacement() {
        let cell = RcuCell::new(Arc::new(vec![1, 2, 3]));
        let snap = cell.snapshot();
        cell.replace(Arc::new(vec![9]));
        assert_eq!(*snap, vec![1, 2, 3], "snapshot pins the old value");
        assert_eq!(*cell.snapshot(), vec![9]);
        drop(cell);
        assert_eq!(*snap, vec![1, 2, 3], "snapshot outlives the cell itself");
    }

    #[test]
    fn concurrent_loads_never_tear_across_replaces() {
        // Invariant: the published pair is always (a, a + 1). A reader
        // observing a torn or freed value would fail the equation (or
        // crash under a sanitizer / strict allocator).
        let cell = Arc::new(RcuCell::new(Arc::new((0u64, 1u64))));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let g = cell.load();
                        assert_eq!(g.1, g.0 + 1, "torn RCU read");
                    }
                });
            }
            for a in 1..2000u64 {
                cell.replace(Arc::new((a, a + 1)));
            }
            stop.store(true, Ordering::Relaxed);
        });
        let last = cell.load();
        assert_eq!(*last, (1999, 2000));
    }
}
