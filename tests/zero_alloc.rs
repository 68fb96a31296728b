//! Runtime teeth for the zero-alloc steady-state insert path: a counting
//! global allocator pins the property "once warm, churn does not
//! allocate" on [`LabelMap`] and [`OrderedList`], for both the classic and
//! the deamortized backend — plus the property "a `ShardedMap` read
//! allocates nothing, ever" (no convergence allowance: zero from round
//! one), and runs each primitive those paths rely on not to allocate
//! (`hot_path_primitives_allocate_nothing`). The same allocator
//! keeps a live-bytes gauge, which pins each backend's heap footprint
//! after a bulk load (see `footprint_stays_pinned`), what a `LabelMap`
//! holds beyond its backend (`label_map_footprint_stays_pinned`) and what
//! a lone growing Corollary 11 map holds
//! (`lone_label_map_keeps_no_template`), and its count pins the
//! allocations of one Corollary 11 build, computed
//! (`corollary11_build_allocations_stay_pinned`) and served from a
//! template (`corollary11_template_build_allocations_stay_pinned`), and of
//! one template-served growth
//! (`corollary11_template_growth_allocations_stay_pinned`).
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

#![allow(unsafe_code, reason = "a #[global_allocator] implements the unsafe GlobalAlloc trait")]

use lll_api::codec::Crc32;
use lll_api::{Backend, ListBuilder, RawList};
use lll_core::bitmap::Bitmap;
use lll_core::ids::IdGen;
use lll_core::metrics::ListMetrics;
use lll_embedding::tag_array::FCursor;
use lll_embedding::{SlotTag, TagArray};
use lll_obs::{Counter, Histogram, TraceKind, TraceRing};
use lll_sharded::ShardedBuilder;
use lll_wal::record::encode_frame_into;
use lll_wal::MAX_RECORD_LEN;
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

/// Run `f`, which must allocate nothing.
fn assert_allocates_nothing(what: &str, f: impl FnOnce()) {
    let allocs = allocs_in(f);
    assert_eq!(allocs, 0, "{what} allocated {allocs} times");
}

const N: u64 = 1024;
const ROUNDS: u64 = 8;

/// The primitives the steady-state paths call on every operation, each run
/// in a span that must allocate nothing, on inputs that take each of its
/// branches: the occupancy bitmap's updates and queries, the `ListMetrics`
/// recorders (enabled and disabled), `lll-obs`'s counter, histogram and
/// trace ring, the CRC update, the WAL frame encoder (into a warm buffer,
/// and refusing an oversized payload), and the embedding's F-slot lookup
/// (from a stale and from a fresh finger). The directory `load` runs in
/// `sharded_read_churn`'s reads. Each structure is built outside its span.
fn hot_path_primitives_allocate_nothing() {
    // 2,048 positions: four 512-bit blocks.
    let mut bits = Bitmap::new(2048);
    assert_allocates_nothing("Bitmap::set", || bits.set(3));
    assert_allocates_nothing("Bitmap::clear", || bits.clear(3));
    assert_allocates_nothing("Bitmap::set_ascending", || {
        // The first run crosses blocks; the second skips block 0 untouched.
        bits.set_ascending([5, 64, 600, 1500]);
        bits.set_ascending([1000, 1001]);
    });
    assert_allocates_nothing("Bitmap::move_bit", || {
        bits.move_bit(5, 6); // within a block
        bits.move_bit(6, 1600); // across blocks
    });
    // Set: 64, 600, 1000, 1001, 1500, 1600.
    assert_allocates_nothing("Bitmap::rank", || {
        assert_eq!((bits.rank(64), bits.rank(601), bits.rank(4096)), (0, 2, 6));
    });
    assert_allocates_nothing("Bitmap::select", || {
        assert_eq!((bits.select(0), bits.select(5), bits.select(6)), (Some(64), Some(1600), None));
    });
    assert_allocates_nothing("Bitmap::select_near", || {
        let hint_rank = bits.rank(1000);
        assert_eq!(bits.select_near(4, 1000, hint_rank), Some(1500), "forward");
        assert_eq!(bits.select_near(0, 1000, hint_rank), Some(64), "backward");
        assert_eq!(bits.select_near(5, 64, 0), Some(1600), "too far: select");
        assert_eq!(bits.select_near(6, 64, 0), None, "past the last");
    });
    assert_allocates_nothing("Bitmap::select_zero", || {
        assert_eq!((bits.select_zero(64), bits.select_zero(2042)), (Some(65), None));
    });

    for enabled in [true, false] {
        let metrics = ListMetrics::new(enabled);
        assert_allocates_nothing("ListMetrics recorders", || {
            metrics.note_scan(3);
            metrics.note_log_drain(2);
            metrics.note_rank_resolution();
            metrics.note_op_moves(5);
            metrics.note_rebalance(8);
            metrics.note_epoch_bump();
        });
        assert_eq!(metrics.moves.get(), if enabled { 2 } else { 0 });
    }

    let counter = Counter::new();
    assert_allocates_nothing("Counter::inc and add", || {
        counter.inc();
        counter.add(2);
    });
    assert_eq!(counter.get(), 3);
    let histogram = Histogram::moves();
    assert_allocates_nothing("Histogram::record", || {
        histogram.record(0); // under range, no new maximum
        histogram.record(1 << 30); // overflow, a new maximum
        histogram.record(5);
    });
    assert_eq!(histogram.count(), 3);
    let ring = TraceRing::new(8);
    assert_allocates_nothing("TraceRing::record", || {
        for i in 0..9 {
            ring.record(TraceKind::Split, i, 0, 0); // the ninth wraps
        }
    });
    assert_eq!(ring.recorded(), 9);

    let mut crc = Crc32::new();
    assert_allocates_nothing("Crc32::update", || {
        crc.update(&[]);
        crc.update(b"123456789");
    });
    assert_eq!(crc.finish(), 0xCBF4_3926);
    let mut frames = Vec::with_capacity(64);
    let oversized = vec![0u8; MAX_RECORD_LEN as usize];
    assert_allocates_nothing("encode_frame_into", || {
        encode_frame_into(&mut frames, 7, b"payload").expect("a small frame encodes");
        assert!(encode_frame_into(&mut frames, 8, &oversized).is_err());
    });
    assert_eq!(frames.len(), 4 + 4 + 8 + 7);
    drop(oversized);

    let mut tags = TagArray::new(256);
    for pos in [3, 70, 140, 200] {
        tags.retag(pos, SlotTag::F);
    }
    let mut finger = FCursor::default();
    assert_allocates_nothing("TagArray::f_pos_via", || {
        assert_eq!(tags.f_pos_via(2, &mut finger), 140, "stale finger: select");
        assert_eq!(tags.f_pos_via(3, &mut finger), 200, "fresh finger: select_near");
    });
}

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
/// lock on the thread's stripe and an `Arc` clone), one shared shard
/// lock, a check that the shard still holds its map, and one counter.
/// Unlike the churn rounds above there is no convergence allowance: reads
/// allocate zero from round one.
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

/// Live heap bytes per entry that a `LabelMap<u64, u64>` bulk-loaded with
/// `n` entries holds beyond its backend: the slab and the search index.
/// The backend's share is what the same backend holds after one splice
/// of `n` at rank 0, the splice the map's bulk load makes. The input
/// batch is allocated and freed inside the measured span. Each span builds
/// from its own `ListBuilder`: builders share Corollary 11 templates with
/// their clones, and the second build of a size keeps one.
fn label_map_own_bytes_per_entry(backend: Backend, n: u64) -> f64 {
    let builder = || ListBuilder::new().backend(backend).seed(11);
    let map_builder = builder();
    let before = LIVE.load(Ordering::Relaxed);
    let mut map = map_builder.label_map::<u64, u64>();
    map.extend_sorted((0..n).map(|k| (k, k)).collect());
    let with_map = LIVE.load(Ordering::Relaxed).wrapping_sub(before);
    assert_eq!(map.len() as u64, n);
    drop(map);
    let raw_builder = builder();
    let before = LIVE.load(Ordering::Relaxed);
    let mut raw = raw_builder.build();
    drop(raw.splice_reported(0, n as usize));
    let backend_only = LIVE.load(Ordering::Relaxed).wrapping_sub(before);
    drop(raw);
    with_map.wrapping_sub(backend_only) as f64 / n as f64
}

/// What a bulk-loaded `LabelMap` holds beyond its backend, at n = 2,048
/// and n = 3,000, stays under a pinned ceiling per backend: a 24-byte
/// slab entry per entry (`Option<(u64, u64)>`) plus the fence-key index,
/// 8 bytes per 64 slots and 8 per 512 for its top level. Each ceiling is
/// the larger of its two exact figures rounded up in the third decimal,
/// so 32-slot groups (24.44 B on the single layers, 25.09 on Corollary
/// 11) or a per-slot key column, 8 more bytes per slot, fail here.
fn label_map_footprint_stays_pinned() {
    let ceilings = [
        (Backend::Classic, 24.251),
        (Backend::Deamortized, 24.259),
        (Backend::Randomized, 24.251),
        (Backend::Adaptive, 24.251),
        (Backend::Corollary11, 24.619),
    ];
    assert_eq!(ceilings.map(|(b, _)| b), Backend::ALL, "one ceiling per backend");
    for (backend, ceiling) in ceilings {
        for n in [2048, 3000] {
            let bytes = label_map_own_bytes_per_entry(backend, n);
            assert!(
                bytes <= ceiling,
                "{backend} LabelMap at n = {n} holds {bytes:.3} B/entry beyond its backend \
                 (ceiling {ceiling})"
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

/// Allocations of one Corollary 11 list of initial capacity 4,096 built
/// by a `ListBuilder` that built two before it, so the build is served by
/// cloning the template the second one kept: pinned at the exact count.
/// The clone makes 41 of the 45 and the list's metrics handle and box the
/// other 4; a computed build of the structure makes 46 (`build_fixed`'s 50
/// above, with its own handle and box).
fn corollary11_template_build_allocations_stay_pinned() {
    const EXACT: u64 = 45;
    let builder = ListBuilder::new().backend(Backend::Corollary11).initial_capacity(4096);
    for seed in [1, 2] {
        drop(builder.clone().seed(seed).build());
    }
    let served = builder.clone().seed(11);
    let allocs = allocs_in(|| served.build());
    let [size] = builder.template_sizes()[..] else { panic!("one size built") };
    assert_eq!((size.capacity, size.fresh_builds, size.cloned_builds), (4096, 2, 1));
    assert_eq!(allocs, EXACT, "a Corollary 11 list built from a template allocated {allocs} times");
}

/// Allocations of one template-served Corollary 11 growth, pinned at the
/// exact count: the insert that grows a list bulk-loaded full at 2,048 to
/// capacity 4,096, the growth `core_ops`' `grow_template_us_n2048` times.
/// Two lists grown first leave the builder a template of capacity 4,096,
/// so the insert clones it, splices the 2,048 survivors in (their move log
/// included, which the caller drops unread), drops the old structure and
/// inserts. Exact in debug and release builds; a rebuild that logs no
/// moves (ROADMAP item 3) shows here.
fn corollary11_template_growth_allocations_stay_pinned() {
    const EXACT: u64 = 49;
    let builder = ListBuilder::new().backend(Backend::Corollary11);
    let full = |seed| {
        let mut list = builder.clone().seed(seed).build();
        drop(list.splice_reported(0, 2048));
        assert_eq!(list.capacity(), 2048, "the bulk load lands full");
        list
    };
    for seed in [1, 2] {
        full(seed).insert(1024);
    }
    let mut list = full(11);
    let allocs = allocs_in(|| list.insert(1024));
    assert_eq!(list.capacity(), 4096, "the insert grows the list");
    let sizes = builder.template_sizes();
    let grown = sizes.iter().find(|s| s.capacity == 4096).expect("capacity 4,096 built");
    assert_eq!((grown.fresh_builds, grown.cloned_builds), (2, 1), "{sizes:?}");
    assert_eq!(allocs, EXACT, "a template-served Corollary 11 growth allocated {allocs} times");
}

/// A lone `LabelMap` that grows from empty to 2^14 entries builds each
/// capacity once, so its builder keeps no Corollary 11 template (one would
/// hold about 148 B/entry), and the live bytes per entry it holds stay
/// under a ceiling at the exact figure. That figure is the 252.868 B/entry
/// the map holds apart from the template store, plus the store's record of
/// the nine sizes it saw built: one 640-byte table, 0.039 B/entry.
fn lone_label_map_keeps_no_template() {
    const N: u64 = 1 << 14;
    const CEILING: f64 = 252.907;
    let builder = ListBuilder::new().backend(Backend::Corollary11).seed(11);
    let before = LIVE.load(Ordering::Relaxed);
    let mut map = builder.label_map::<u64, u64>();
    for k in 0..N {
        map.insert(k, k);
    }
    let held = LIVE.load(Ordering::Relaxed).wrapping_sub(before) as f64 / N as f64;
    assert_eq!(map.len() as u64, N);
    let sizes = builder.template_sizes();
    assert_eq!(sizes.len(), 9, "{sizes:?}");
    assert!(sizes.iter().all(|s| !s.held && s.fresh_builds == 1), "{sizes:?}");
    assert!(
        held <= CEILING,
        "a lone Corollary 11 LabelMap holds {held:.4} B/entry (ceiling {CEILING})"
    );
}

#[test]
fn steady_state_operations_reach_zero_allocations() {
    hot_path_primitives_allocate_nothing();
    // The process-wide disabled metrics handle is built on first use, by
    // whichever span first builds a Corollary 11 structure. Build it here,
    // outside every span, so no live-bytes figure depends on the order the
    // spans run in.
    drop(ListMetrics::disabled());
    for backend in [Backend::Classic, Backend::Deamortized] {
        label_map_churn(backend);
        ordered_list_churn(backend);
    }
    sharded_read_churn();
    footprint_stays_pinned();
    label_map_footprint_stays_pinned();
    corollary11_build_allocations_stay_pinned();
    corollary11_template_build_allocations_stay_pinned();
    corollary11_template_growth_allocations_stay_pinned();
    lone_label_map_keeps_no_template();
}
