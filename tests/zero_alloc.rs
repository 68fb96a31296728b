//! Runtime teeth for the zero-alloc steady-state insert path (PR 4): a
//! counting global allocator pins the property "once warm, churn does not
//! allocate" on [`LabelMap`] and [`OrderedList`], for both the classic and
//! the deamortized backend — plus the property "a `ShardedMap` read
//! allocates nothing, ever" (no convergence allowance: zero from round
//! one). The same allocator
//! keeps a live-bytes gauge, which pins each backend's heap footprint
//! after a bulk load (see `footprint_stays_pinned`), and its count pins
//! the allocations of one Corollary 11 build
//! (`corollary11_build_allocations_stay_pinned`).
//!
//! Methodology: structures allocate while *growing* (slot-array doubling,
//! hash-table growth, rebalance scratch buffers reaching their high-water
//! mark), so the harness runs fixed-size churn rounds and requires the
//! rounds to *converge to zero* allocations — pure overwrites must be
//! allocation-free immediately, and remove+insert churn must reach an
//! allocation-free round once every internal buffer has seen its worst
//! case. A regression that puts an allocation on the steady-state path
//! (a `format!` in a hot assert, a scratch `Vec` rebuilt per call) makes
//! every round allocate and fails the convergence assertions.
//!
//! Everything runs in ONE `#[test]` so no concurrent test thread can
//! pollute the process-global counter.

use lll_api::{Backend, ListBuilder};
use lll_core::ids::IdGen;
use lll_sharded::ShardedBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations observed process-wide (frees are not counted: the property
/// under test is "no *new* memory on the steady-state path").
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Bytes allocated and not yet freed, process-wide: requested sizes, so a
/// `Vec`'s unused capacity counts and the allocator's own overhead does
/// not.
static LIVE: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards the caller's layout verbatim to `System`
// and returns its result unchanged, so `System`'s contract is this type's
// contract; the count is a side effect on an atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; counting is side-effect-only.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout, forwarded verbatim.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        ptr
    }

    // SAFETY: same contract as `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout, forwarded verbatim.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        ptr
    }

    // SAFETY: same contract as `System::realloc` — a grow or shrink is new
    // memory traffic, so it counts.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: pointer, layout, and size forwarded verbatim.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        new_ptr
    }

    // SAFETY: same contract as `System::dealloc`; frees are not counted as
    // allocations, only taken off the live gauge.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: pointer and layout forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by `f`.
fn allocs_in<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    let after = ALLOCS.load(Ordering::Relaxed);
    drop(r);
    after - before
}

const N: u64 = 1024;
const ROUNDS: u64 = 8;

/// Run `round` repeatedly; require convergence to an allocation-free
/// round within [`ROUNDS`] attempts. Returns the per-round history for
/// the failure message.
fn assert_converges_to_zero(what: &str, mut round: impl FnMut(u64)) {
    let mut history = Vec::new();
    for r in 0..ROUNDS {
        let allocs = allocs_in(|| round(r));
        history.push(allocs);
        if allocs == 0 {
            return;
        }
    }
    panic!("{what}: no allocation-free round in {ROUNDS} (allocs per round: {history:?})");
}

fn label_map_churn(backend: Backend) {
    let name = backend.name();
    let mut map = ListBuilder::new().backend(backend).seed(11).label_map::<u64, u64>();
    for k in 0..N {
        map.insert(k, k);
    }

    // Overwrites never touch structure: zero allocations from round one.
    let overwrite = allocs_in(|| {
        for k in 0..N {
            map.insert(k, k + 1);
        }
    });
    assert_eq!(overwrite, 0, "{name} LabelMap: overwriting {N} present keys allocated");

    // Fixed-size remove+insert churn must converge once the hash table
    // and every rebalance scratch buffer reach their high-water marks.
    assert_converges_to_zero(&format!("{name} LabelMap churn"), |r| {
        for k in 0..N {
            map.remove(&k);
            map.insert(k, k ^ r);
        }
    });
    assert_eq!(map.len(), N as usize);
}

fn ordered_list_churn(backend: Backend) {
    let name = backend.name();
    let mut list = ListBuilder::new().backend(backend).seed(13).ordered_list::<u64>();
    let mut handles: Vec<_> = (0..N).map(|v| list.push_back(v)).collect();

    // Fixed-size churn: retire one element, append a replacement, reusing
    // the pre-sized handle slot — the list's length never changes.
    assert_converges_to_zero(&format!("{name} OrderedList churn"), |r| {
        for h in handles.iter_mut() {
            list.remove(*h).expect("live handle");
            *h = list.push_back(r);
        }
    });
    assert_eq!(list.len(), N as usize);
}

/// The read path's allocation budget is zero: once the map is built and
/// one warm-up read has paid any lazy thread-local setup, a
/// `get`/`get_with`/`contains_key` round over present and absent keys
/// must not allocate at all — the path is a directory load (a shared
/// lock on the thread's stripe and an `Arc` clone, linted as
/// allocation-free), one shared shard lock, a flag check and one
/// counter. Unlike the churn rounds above there is no convergence
/// allowance: reads allocate zero from round one.
fn sharded_read_churn() {
    let map = ShardedBuilder::new()
        .backend(Backend::Classic)
        .seed(17)
        .max_shard_len(64)
        .min_shard_len(16)
        .build::<u64, u64>();
    for k in 0..N {
        map.insert(k, k * 3);
    }
    // Warm-up: first contact initializes the lock-order tracker's
    // thread-locals and any lazy statics off the measured path.
    assert_eq!(map.get(&0), Some(0));
    assert!(map.contains_key(&(N - 1)));

    let reads = allocs_in(|| {
        for k in 0..N {
            assert_eq!(map.get(&k), Some(k * 3));
            assert!(map.contains_key(&k));
            assert_eq!(map.get_with(&k, |v| *v ^ 1), Some((k * 3) ^ 1));
            assert_eq!(map.get(&(k + N)), None, "absent probes are also allocation-free");
        }
    });
    assert_eq!(reads, 0, "ShardedMap reads allocated ({reads} allocations for {N} keys)");
    assert_eq!(map.len(), N as usize);
}

/// Live heap bytes per entry that `build_fixed(n)` plus one splice of `n`
/// fresh ids leaves held (the move log is dropped, the id list is not
/// counted).
fn bulk_loaded_bytes_per_entry(backend: Backend, n: usize) -> f64 {
    let ids = IdGen::new().fresh_n(n);
    let builder = ListBuilder::new().backend(backend).seed(11);
    let before = LIVE.load(Ordering::Relaxed);
    let mut list = builder.build_fixed(n);
    drop(list.splice(0, &ids));
    let held = LIVE.load(Ordering::Relaxed).wrapping_sub(before);
    assert_eq!(list.len(), n);
    drop(list);
    held as f64 / n as f64
}

/// Each backend's heap after a bulk load of n entries, at n = 2,048 and
/// n = 3,000, stays under a pinned ceiling in bytes per entry. The
/// figures are exact for a build, slack included; each ceiling sits just
/// above the larger of its two, so memory a change stores twice, or
/// reserves past a table's owner, fails here.
fn footprint_stays_pinned() {
    let ceilings = [
        (Backend::Classic, 13.5),
        (Backend::Deamortized, 22.0),
        (Backend::Randomized, 13.5),
        (Backend::Adaptive, 14.0),
        (Backend::Corollary11, 165.5),
    ];
    assert_eq!(ceilings.map(|(b, _)| b), Backend::ALL, "one ceiling per backend");
    for (backend, ceiling) in ceilings {
        for n in [2048, 3000] {
            let bytes = bulk_loaded_bytes_per_entry(backend, n);
            assert!(
                bytes <= ceiling,
                "{backend} at n = {n} holds {bytes:.1} B/entry after a bulk load (ceiling {ceiling})"
            );
        }
    }
}

/// Allocations of one Corollary 11 `build_fixed(4096)` after a first,
/// warming build, under a ceiling at the exact count. Every growth
/// rebuild, split half, merge and restore makes such a build, so a
/// handle, table or buffer the build makes and throws away shows here.
fn corollary11_build_allocations_stay_pinned() {
    const CEILING: u64 = 50;
    let builder = ListBuilder::new().backend(Backend::Corollary11).seed(11);
    drop(builder.build_fixed(4096));
    let allocs = allocs_in(|| builder.build_fixed(4096));
    assert!(
        allocs <= CEILING,
        "a Corollary 11 build_fixed(4096) allocated {allocs} times (ceiling {CEILING})"
    );
}

#[test]
fn steady_state_operations_reach_zero_allocations() {
    for backend in [Backend::Classic, Backend::Deamortized] {
        label_map_churn(backend);
        ordered_list_churn(backend);
    }
    sharded_read_churn();
    footprint_stays_pinned();
    corollary11_build_allocations_stay_pinned();
}
