//! Property tests for the production API (`lll-api`).
//!
//! * [`LabelMap`] is differentially checked against `std::collections::BTreeMap`
//!   under random insert/remove/get/range workloads — once per [`Backend`],
//!   so every algorithm in the workspace serves the same map semantics.
//! * [`OrderedList`] is checked against a reference `Vec` under rank-based
//!   churn (reusing the workspace's workload generators), across growth and
//!   shrink rebuilds, with its label table audited after every phase.
//! * Fixed-size delete/reinsert churn recycles element-id indices; the map
//!   stays exact on every backend, including while the embedding still
//!   tracks deleted elements as ghosts.

use layered_list_labeling::core::ops::Op;
use layered_list_labeling::embedding::corollary11_builder;
use layered_list_labeling::prelude::*;
use layered_list_labeling::workloads::{uniform_churn, uniform_random_inserts};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One differential step: same command stream against [`LabelMap`] and the
/// standard-library model, with equality asserted after every command.
fn check_map_against_btreemap(backend: Backend, cmds: &[(u8, u16, u32)]) {
    let mut map: LabelMap<u16, u32> = ListBuilder::new().backend(backend).seed(0xD1FF).label_map();
    let mut model: BTreeMap<u16, u32> = BTreeMap::new();
    for &(sel, key, val) in cmds {
        let key = key % 512; // densify the key space so removes and hits land
        match sel % 5 {
            0 | 1 => {
                assert_eq!(
                    map.insert(key, val),
                    model.insert(key, val),
                    "[{}] insert({key}) diverged",
                    backend.name()
                );
            }
            2 => {
                assert_eq!(
                    map.remove(&key),
                    model.remove(&key),
                    "[{}] remove({key}) diverged",
                    backend.name()
                );
            }
            3 => {
                assert_eq!(
                    map.get(&key),
                    model.get(&key),
                    "[{}] get({key}) diverged",
                    backend.name()
                );
            }
            _ => {
                let hi = key.saturating_add(64);
                let got: Vec<(u16, u32)> = map.range(key..hi).map(|(k, v)| (*k, *v)).collect();
                let want: Vec<(u16, u32)> = model.range(key..hi).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, want, "[{}] range({key}..{hi}) diverged", backend.name());
            }
        }
        assert_eq!(map.len(), model.len(), "[{}] len diverged", backend.name());
    }
    // Final full-structure agreement.
    let got: Vec<(u16, u32)> = map.iter().map(|(k, v)| (*k, *v)).collect();
    let want: Vec<(u16, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(got, want, "[{}] final iteration diverged", backend.name());
    assert_eq!(map.first_key_value(), model.first_key_value());
    assert_eq!(map.last_key_value(), model.last_key_value());
    for key in (0u16..512).step_by(41) {
        assert_eq!(map.contains_key(&key), model.contains_key(&key));
    }
}

/// Strategy: an arbitrary command stream (selector, key, value).
fn cmd_seq(len: usize) -> impl Strategy<Value = Vec<(u8, u16, u32)>> {
    proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u32>()), 1..len)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn label_map_matches_btreemap_classic(cmds in cmd_seq(500)) {
        check_map_against_btreemap(Backend::Classic, &cmds);
    }

    #[test]
    fn label_map_matches_btreemap_deamortized(cmds in cmd_seq(500)) {
        check_map_against_btreemap(Backend::Deamortized, &cmds);
    }

    #[test]
    fn label_map_matches_btreemap_randomized(cmds in cmd_seq(500)) {
        check_map_against_btreemap(Backend::Randomized, &cmds);
    }

    #[test]
    fn label_map_matches_btreemap_adaptive(cmds in cmd_seq(500)) {
        check_map_against_btreemap(Backend::Adaptive, &cmds);
    }

    #[test]
    fn label_map_matches_btreemap_corollary11(cmds in cmd_seq(400)) {
        check_map_against_btreemap(Backend::Corollary11, &cmds);
    }
}

/// Fixed-size churn against `BTreeMap`, checked op by op: delete a live key,
/// then insert an absent one, `steps` times at `n` entries. Every
/// insertion must reuse the index the deletion just freed, under a new
/// generation, so the id space stays below twice the peak population.
/// Returns how many insertions reused an index while `pending(map)` held.
fn churn_against_btreemap<L: RawList>(
    mut map: LabelMap<u32, u32, L>,
    name: &str,
    steps: u32,
    pending: impl Fn(&LabelMap<u32, u32, L>) -> bool,
) -> usize {
    use rand::{Rng, SeedableRng};
    let n = 600u32;
    let mut model = BTreeMap::new();
    for k in 0..n {
        assert_eq!(map.insert(2 * k, k), model.insert(2 * k, k));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x6057);
    let (mut reused_while_pending, mut max_index) = (0, 0);
    for step in 0..steps {
        let victim = *model.keys().nth(rng.gen_range(0..model.len())).expect("non-empty");
        assert_eq!(map.remove(&victim), model.remove(&victim), "[{name}] remove({victim})");
        assert_eq!(map.get(&victim), None, "[{name}] get({victim}) after remove");
        let fresh = loop {
            let k = rng.gen_range(0..4 * n);
            if !model.contains_key(&k) {
                break k;
            }
        };
        let ghosts_live = pending(&map);
        assert_eq!(map.insert(fresh, step), model.insert(fresh, step), "[{name}] insert({fresh})");
        assert_eq!(map.get(&fresh), model.get(&fresh), "[{name}] get({fresh})");
        let h = map.backend().handle_at_rank(map.lower_bound(&fresh));
        assert!(h.generation() > 0, "[{name}] insertion took a never-used index: {h:?}");
        max_index = max_index.max(h.index());
        reused_while_pending += usize::from(ghosts_live);
        if step % 97 == 0 {
            let lo = rng.gen_range(0..4 * n);
            let got: Vec<(u32, u32)> = map.range(lo..lo + 64).map(|(k, v)| (*k, *v)).collect();
            let want: Vec<(u32, u32)> = model.range(lo..lo + 64).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(got, want, "[{name}] range({lo}..) at step {step}");
        }
    }
    assert!(max_index < 2 * n as usize, "[{name}] index {max_index} outgrew the population {n}");
    assert!(map.iter().map(|(k, v)| (*k, *v)).eq(model.into_iter()), "[{name}] final contents");
    reused_while_pending
}

#[test]
fn fixed_size_churn_reuses_indices_on_every_backend() {
    for backend in Backend::ALL {
        let map = ListBuilder::new().backend(backend).seed(0xC4).label_map();
        churn_against_btreemap(map, backend.name(), 3000, |_| false);
    }
    // The layered backend once more, statically dispatched so the test can
    // see the embedding: indices must come back while a rebuild is pending,
    // that is while deleted elements may still be ghosts in its layout.
    let backend = Growable::new(corollary11_builder(0xC4), 64);
    let map = LabelMap::with_backend(backend);
    let reused = churn_against_btreemap(map, "corollary11 static", 3000, |m| {
        m.backend().inner().rebuild_pending()
    });
    assert!(reused > 0, "no index was reused while an embedding rebuild was pending");
}

/// Drive an [`OrderedList`] with rank-based ops against a reference `Vec`,
/// verifying handle/value agreement and O(1) order queries throughout.
fn check_ordered_list(backend: Backend, ops: &[Op]) {
    let mut ol: OrderedList<u64> =
        ListBuilder::new().backend(backend).seed(0x01D).initial_capacity(16).ordered_list();
    let mut reference: Vec<(Handle, u64)> = Vec::new();
    let mut next_val = 0u64;
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(r) => {
                let h = ol.insert_at(r, next_val);
                reference.insert(r, (h, next_val));
                next_val += 1;
            }
            Op::Delete(r) => {
                let (h, v) = reference.remove(r);
                assert_eq!(ol.remove(h), Some(v), "[{}] remove diverged", backend.name());
            }
        }
        assert_eq!(ol.len(), reference.len());
        // Periodic order-query audit on sampled pairs.
        if i % 97 == 0 && reference.len() >= 2 {
            let k = reference.len();
            for (a, b) in [(0, k / 2), (k / 2, k - 1), (0, k - 1), (k / 3, 2 * k / 3)] {
                if a != b {
                    assert_eq!(
                        ol.precedes(reference[a].0, reference[b].0),
                        a < b,
                        "[{}] order query diverged at ops[{i}]",
                        backend.name()
                    );
                }
            }
            assert_eq!(ol.rank(reference[k / 2].0), Some(k / 2));
        }
    }
    ol.check_labels();
    let got: Vec<(Handle, u64)> = ol.iter().map(|(h, v)| (h, *v)).collect();
    assert_eq!(got, reference, "[{}] final order diverged", backend.name());
}

/// A deterministic grow-then-shrink-then-churn sequence: forces several
/// growth rebuilds, several shrink rebuilds, and steady-state churn.
fn grow_shrink_ops(n: usize, seed: u64) -> Vec<Op> {
    let mut ops = uniform_random_inserts(n, seed).ops;
    ops.extend(vec![Op::Delete(0); n - n / 8]); // shrink to an eighth
    ops.extend(uniform_churn(n / 8, n / 4, seed ^ 1).ops.into_iter().skip(n / 8));
    ops
}

#[test]
fn ordered_list_survives_grow_shrink_churn_on_every_backend() {
    for backend in Backend::ALL {
        check_ordered_list(backend, &grow_shrink_ops(600, 0xB0B + backend as u64));
    }
}

#[test]
fn ordered_list_rebuilds_actually_happened() {
    // The previous test is only meaningful if the workload really crosses
    // capacity boundaries both ways; pin that here.
    let mut ol: OrderedList<u64> =
        ListBuilder::new().backend(Backend::Classic).initial_capacity(16).ordered_list();
    let mut handles = Vec::new();
    for i in 0..600 {
        handles.push(ol.insert_at(i, i as u64));
    }
    for _ in 0..560 {
        let h = handles.remove(0);
        ol.remove(h);
    }
    let stats = ol.grow_stats();
    assert!(stats.grows >= 3, "expected several growth rebuilds, got {}", stats.grows);
    assert!(stats.shrinks >= 2, "expected several shrink rebuilds, got {}", stats.shrinks);
    ol.check_labels();
}

/// `metrics().moves` counts every move of the physical array, the paper's
/// cost: pinned per backend after a fixed-seed grow/shrink/churn stream, on
/// a fixed-capacity structure and on an `OrderedList` that rebuilds as it
/// grows and shrinks. On every backend, the layered one included, the
/// physical array's log is empty after every operation, so every move has
/// been drained into the count; and the list's `total_moves()` reads the
/// same handle.
#[test]
fn metrics_moves_count_every_move_on_every_backend() {
    use layered_list_labeling::core::ids::IdGen;
    // (backend, fixed-capacity moves, OrderedList moves)
    const PINNED: [(Backend, u64, u64); 5] = [
        (Backend::Classic, 43_689, 22_229),
        (Backend::Deamortized, 49_160, 23_459),
        (Backend::Randomized, 53_961, 22_697),
        (Backend::Adaptive, 96_311, 21_519),
        (Backend::Corollary11, 127_285, 32_433),
    ];
    let ops = grow_shrink_ops(1500, 0x3E7);
    for (backend, fixed_moves, list_moves) in PINNED {
        let name = backend.name();
        let mut fixed = ListBuilder::new().seed(0x3E7).backend(backend).build_fixed(1500);
        let mut ids = IdGen::new();
        for (i, &op) in ops.iter().enumerate() {
            fixed.apply(op, &mut ids);
            assert_eq!(fixed.slots().pending_log_len(), 0, "[{name}] op {i}");
        }
        assert_eq!(fixed.slots().metrics().moves.get(), fixed_moves, "[{name}] fixed");

        let mut list: OrderedList<u32> =
            ListBuilder::new().seed(0x3E7).backend(backend).initial_capacity(16).ordered_list();
        let mut handles = Vec::new();
        for &op in &ops {
            match op {
                Op::Insert(r) => handles.insert(r, list.insert_at(r, 0)),
                Op::Delete(r) => {
                    list.remove(handles.remove(r));
                }
            }
        }
        assert_eq!(list.metrics().moves.get(), list_moves, "[{name}] ordered list");
        assert_eq!(list.total_moves(), list_moves, "[{name}] total_moves");
    }
}

/// `LabelMap`'s search index adds no accounting: one op sequence, run
/// through a map and through a bare backend at the ranks the map
/// resolves, leaves the two `ListMetrics` with equal `moves` and
/// `scan_words` after every op. Point inserts and removes, pops and a
/// sorted batch, through growth and shrink rebuilds.
#[test]
fn label_map_index_adds_no_accounting_on_every_backend() {
    use rand::{Rng, SeedableRng};
    for backend in Backend::ALL {
        let name = backend.name();
        let builder = ListBuilder::new().backend(backend).seed(0xACC7);
        let mut map: LabelMap<u32, u32> = builder.label_map();
        let mut raw = builder.build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xACC7);
        let same = |map: &LabelMap<u32, u32>, raw: &ErasedList, step: &str| {
            let (m, r) = (map.metrics(), raw.metrics_handle());
            assert_eq!(m.moves.get(), r.moves.get(), "[{name}] moves after {step}");
            assert_eq!(m.scan_words.get(), r.scan_words.get(), "[{name}] scan words after {step}");
        };
        // Grow to about 1,000 keys, then remove present keys, mostly,
        // down to about 150: growth rebuilds, then shrink rebuilds.
        for i in 0..3000u32 {
            let k = if i < 2000 || rng.gen_range(0..10) == 0 {
                rng.gen_range(0..3000)
            } else {
                *map.key_at_rank(rng.gen_range(0..map.len()))
            };
            let rank = map.lower_bound(&k);
            if i < 2000 && rng.gen_range(0..10) < 7 || i >= 2000 && !map.contains_key(&k) {
                if map.insert(k, i).is_none() {
                    raw.insert(rank);
                }
            } else if map.remove(&k).is_some() {
                raw.delete(rank);
            }
            same(&map, &raw, &format!("op {i}"));
        }
        assert!(map.grow_stats().shrinks > 0, "[{name}] no shrink rebuild");
        map.pop_first();
        raw.delete(0);
        map.pop_last();
        raw.delete(RawList::len(&raw) - 1);
        same(&map, &raw, "the pops");
        // Keys past every key: one gap, so the map makes one splice.
        raw.splice_reported(map.len(), 300);
        map.extend_sorted((0..300).map(|i| (5000 + i, i)).collect());
        same(&map, &raw, "a sorted batch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Arbitrary valid op sequences (decoded against the running length so
    /// every sequence is valid by construction) on the default backend.
    #[test]
    fn ordered_list_matches_reference_on_arbitrary_ops(
        raw in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..800)
    ) {
        let mut ops = Vec::with_capacity(raw.len());
        let mut len = 0usize;
        for (b, r) in raw {
            if len == 0 || b % 5 < 3 {
                ops.push(Op::Insert(r as usize % (len + 1)));
                len += 1;
            } else {
                ops.push(Op::Delete(r as usize % len));
                len -= 1;
            }
        }
        check_ordered_list(Backend::Corollary11, &ops);
    }
}

/// Bulk-load ≡ one-at-a-time insertion: identical keys, identical
/// iteration order, and the bulk path never performs more element moves.
fn check_bulk_load_equivalence(backend: Backend, raw: &[(u16, u32)]) {
    let mut sorted: Vec<(u16, u32)> = raw.to_vec();
    sorted.sort_by_key(|e| e.0);
    sorted.dedup_by_key(|e| e.0);
    let mut bulk: LabelMap<u16, u32> = ListBuilder::new().backend(backend).seed(0xB17).label_map();
    bulk.extend(sorted.iter().copied()); // sorted input takes the bulk path
    let mut inc: LabelMap<u16, u32> = ListBuilder::new().backend(backend).seed(0xB17).label_map();
    for &(k, v) in &sorted {
        inc.insert(k, v);
    }
    assert_eq!(bulk.len(), inc.len(), "[{}] bulk/incremental len diverged", backend.name());
    assert!(
        bulk.iter().eq(inc.iter()),
        "[{}] bulk/incremental iteration order diverged",
        backend.name()
    );
    assert!(
        bulk.total_moves() <= inc.total_moves(),
        "[{}] bulk load moved more: {} > {}",
        backend.name(),
        bulk.total_moves(),
        inc.total_moves()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// The bulk-load path is observationally identical to one-at-a-time
    /// insertion — and no more expensive — on every backend.
    #[test]
    fn bulk_load_equals_incremental_on_every_backend(
        raw in proptest::collection::vec((any::<u16>(), any::<u32>()), 1..400)
    ) {
        for backend in Backend::ALL {
            check_bulk_load_equivalence(backend, &raw);
        }
    }
}

/// A full cursor walk (both directions) agrees with `iter()` after random
/// churn, on every backend.
fn check_cursor_walk_equivalence(backend: Backend, ops: &[Op]) {
    let mut ol: OrderedList<u64> =
        ListBuilder::new().backend(backend).seed(0xC0).initial_capacity(16).ordered_list();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(r) => {
                ol.insert_at(r, i as u64);
            }
            Op::Delete(r) => {
                let h = ol.handle_at_rank(r);
                ol.remove(h);
            }
        }
    }
    let via_iter: Vec<(Handle, u64)> = ol.iter().map(|(h, v)| (h, *v)).collect();
    let mut forward = Vec::with_capacity(via_iter.len());
    let mut cur = ol.cursor_front();
    while let Some((h, v)) = cur.current() {
        forward.push((h, *v));
        cur.move_next();
    }
    assert_eq!(forward, via_iter, "[{}] forward cursor walk diverged", backend.name());
    let mut backward = Vec::with_capacity(via_iter.len());
    let mut cur = ol.cursor_back();
    while let Some((h, v)) = cur.current() {
        backward.push((h, *v));
        cur.move_prev();
    }
    backward.reverse();
    assert_eq!(backward, via_iter, "[{}] backward cursor walk diverged", backend.name());
    // A map cursor agrees with the map's iterator under the same churn.
    let mut map: LabelMap<u64, u64> = ListBuilder::new().backend(backend).seed(0xC1).label_map();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(r) => {
                map.insert((r as u64) << 16 | i as u64, i as u64);
            }
            Op::Delete(r) => {
                if !map.is_empty() {
                    let k = *map.key_at_rank(r % map.len());
                    map.remove(&k);
                }
            }
        }
    }
    let mut walked = Vec::with_capacity(map.len());
    let mut cur = map.cursor_front();
    while let Some((k, v)) = cur.entry() {
        walked.push((*k, *v));
        cur.move_next();
    }
    assert!(
        walked.iter().copied().eq(map.iter().map(|(k, v)| (*k, *v))),
        "[{}] map cursor walk diverged",
        backend.name()
    );
}

#[test]
fn cursor_walks_match_iteration_under_churn_on_every_backend() {
    for backend in Backend::ALL {
        check_cursor_walk_equivalence(backend, &grow_shrink_ops(400, 0xCC + backend as u64));
    }
}

/// A full cursor walk performs **zero** rank→label resolutions: the cursor
/// steps through the occupancy structure, never re-deriving position from
/// rank. Pinned via the backend's [`rank_resolutions`] counter on a
/// statically dispatched backend.
///
/// [`rank_resolutions`]: layered_list_labeling::core::growable::Growable::rank_resolutions
#[test]
fn cursor_walk_does_no_rank_resolution() {
    use layered_list_labeling::classic::ClassicBuilder;

    let n = 10_000u32;
    let mut ol = OrderedList::with_backend(Growable::new(ClassicBuilder, 64));
    for i in 0..n {
        ol.insert_at(ol.len(), i);
    }
    let before = ol.backend().rank_resolutions();
    let mut cur = ol.cursor_front();
    let mut walked = 0usize;
    while cur.current().is_some() {
        walked += 1;
        cur.move_next();
    }
    assert_eq!(walked, n as usize);
    assert_eq!(ol.backend().rank_resolutions(), before, "cursor walk resolved rank→label mid-walk");
    // The rank-addressed equivalent pays one resolution per step.
    let h = ol.handle_at_rank(0);
    let _ = ol.rank(h);
    assert!(ol.backend().rank_resolutions() > before, "counter is live");
}

/// ISSUE 2 acceptance: a 100k-key pre-sorted bulk load performs strictly
/// fewer total element moves than the same keys inserted one at a time.
///
/// The bulk side runs `from_sorted_iter` on the **default** layered
/// backend and lands in O(n): one move per element. The one-at-a-time side
/// runs on the adaptive backend — the workspace's cheapest structure for a
/// sorted (append-only) ingest; the default backend pays strictly more
/// moves per point insert than adaptive on this workload (see
/// `label_map::tests::from_sorted_iter_matches_btreemap_with_fewer_moves`
/// for the same-backend comparison at smaller n), so beating adaptive
/// beats every incremental configuration.
#[test]
fn acceptance_bulk_load_100k_strictly_fewer_moves() {
    let n = 100_000u64;
    let bulk: LabelMap<u64, u64> = LabelMap::from_sorted_iter((0..n).map(|k| (k, k * 3)));
    assert_eq!(bulk.len() as u64, n);
    assert!(
        bulk.total_moves() <= 2 * n,
        "bulk load is not O(n): {} moves for {n} keys",
        bulk.total_moves()
    );
    let mut inc: LabelMap<u64, u64> = ListBuilder::new().backend(Backend::Adaptive).label_map();
    for k in 0..n {
        inc.insert(k, k * 3);
    }
    assert!(
        bulk.total_moves() < inc.total_moves(),
        "bulk {} !< one-at-a-time {}",
        bulk.total_moves(),
        inc.total_moves()
    );
    assert_eq!(bulk.len(), inc.len());
    for k in (0..n).step_by(9973) {
        assert_eq!(bulk.get(&k), inc.get(&k), "content diverged at {k}");
    }
}
