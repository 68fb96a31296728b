//! Property and negative tests for the durable-snapshot subsystem
//! (`lll_api::persist`, the container `write_snapshot`/`read_snapshot`
//! pairs, and `ShardedMap`'s directory-preserving snapshots).
//!
//! * Round-trip properties run on **every backend**: restore must
//!   reproduce keys, values, iteration order, and — for [`OrderedList`] —
//!   the validity of every pre-snapshot handle.
//! * Negative tests feed truncated, bit-flipped, wrong-version, and
//!   wrong-container inputs to every reader: each must return a
//!   [`SnapshotError`], never panic.
//! * A committed golden fixture (`tests/fixtures/label_map_v1.snap`) pins
//!   the on-disk format byte-for-byte across future PRs.
//! * The restore-cost acceptance: `read_snapshot` lands a map through the
//!   O(n) bulk path at exactly one move per element (the 1M-key release
//!   measurement lives in `bench/benches/snapshot.rs`).

use layered_list_labeling::prelude::*;
use lll_api::persist::{ContainerKind, Header, SnapshotError};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Snapshot → restore reproduces a [`LabelMap`] exactly: same entries,
/// same iteration order, same backend, still mutable.
fn check_label_map_roundtrip(backend: Backend, cmds: &[(u8, u16, u32)]) {
    let mut map: LabelMap<u16, u32> = ListBuilder::new().backend(backend).seed(0x5EED).label_map();
    let mut model: BTreeMap<u16, u32> = BTreeMap::new();
    for &(sel, key, val) in cmds {
        let key = key % 512;
        if sel % 3 == 2 {
            assert_eq!(map.remove(&key), model.remove(&key));
        } else {
            assert_eq!(map.insert(key, val), model.insert(key, val));
        }
    }
    let mut buf = Vec::new();
    map.write_snapshot(&mut buf).unwrap();
    let back: LabelMap<u16, u32> = LabelMap::read_snapshot(&mut buf.as_slice()).unwrap();
    assert_eq!(back.len(), model.len(), "[{backend}] len diverged");
    assert_eq!(back.backend_name(), map.backend_name(), "[{backend}] backend diverged");
    assert!(
        back.iter().map(|(k, v)| (*k, *v)).eq(model.iter().map(|(k, v)| (*k, *v))),
        "[{backend}] iteration diverged"
    );
    // The restored map is a working map, not a read-only replica.
    let mut back = back;
    back.insert(9999, 1);
    assert_eq!(back.get(&9999), Some(&1));
    assert_eq!(back.len(), model.len() + 1);
}

/// Snapshot → restore keeps every pre-snapshot [`OrderedList`] handle
/// valid: same value, same rank, same O(1) order relations.
fn check_ordered_list_roundtrip(backend: Backend, ops: &[(u8, u32)]) {
    let mut ol: OrderedList<u64> =
        ListBuilder::new().backend(backend).seed(0xD0).initial_capacity(16).ordered_list();
    let mut live: Vec<(Handle, u64)> = Vec::new();
    for (i, &(sel, r)) in ops.iter().enumerate() {
        if live.is_empty() || sel % 4 != 3 {
            let rank = r as usize % (live.len() + 1);
            let h = ol.insert_at(rank, i as u64);
            live.insert(rank, (h, i as u64));
        } else {
            let rank = r as usize % live.len();
            let (h, v) = live.remove(rank);
            assert_eq!(ol.remove(h), Some(v));
        }
    }
    let mut buf = Vec::new();
    ol.write_snapshot(&mut buf).unwrap();
    let back: OrderedList<u64> = OrderedList::read_snapshot(&mut buf.as_slice()).unwrap();
    assert_eq!(back.len(), live.len(), "[{backend}] len diverged");
    back.check_labels();
    assert_eq!(
        back.iter().map(|(h, v)| (h, *v)).collect::<Vec<_>>(),
        live,
        "[{backend}] restored order diverged"
    );
    for (rank, &(h, v)) in live.iter().enumerate() {
        assert_eq!(back.get(h), Some(&v), "[{backend}] handle {h:?} lost its value");
        assert_eq!(back.rank(h), Some(rank), "[{backend}] handle {h:?} changed rank");
    }
    for pair in live.windows(2) {
        assert!(back.precedes(pair[0].0, pair[1].0), "[{backend}] order relation broke");
    }
}

fn cmd_seq(len: usize) -> impl Strategy<Value = Vec<(u8, u16, u32)>> {
    proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u32>()), 1..len)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// LabelMap snapshot → restore is the identity on every backend.
    #[test]
    fn label_map_snapshot_roundtrips_on_every_backend(cmds in cmd_seq(300)) {
        for backend in Backend::ALL {
            check_label_map_roundtrip(backend, &cmds);
        }
    }

    /// OrderedList snapshot → restore keeps handles valid on every backend.
    #[test]
    fn ordered_list_snapshot_keeps_handles_on_every_backend(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..300)
    ) {
        for backend in Backend::ALL {
            check_ordered_list_roundtrip(backend, &ops);
        }
    }

    /// ShardedMap snapshot → restore preserves the split-key directory and
    /// every entry.
    #[test]
    fn sharded_map_snapshot_roundtrips(cmds in cmd_seq(600)) {
        let map = ShardedBuilder::new().max_shard_len(32).min_shard_len(8).seed(3).build::<u16, u32>();
        let mut model = BTreeMap::new();
        for &(sel, key, val) in &cmds {
            let key = key % 512;
            if sel % 3 == 2 {
                assert_eq!(map.remove(&key), model.remove(&key));
            } else {
                assert_eq!(map.insert(key, val), model.insert(key, val));
            }
        }
        let mut buf = Vec::new();
        map.write_snapshot(&mut buf).unwrap();
        let back = ShardedMap::<u16, u32>::read_snapshot(&mut buf.as_slice()).unwrap();
        back.check_invariants();
        prop_assert_eq!(back.shard_count(), map.shard_count());
        prop_assert_eq!(back.to_vec(), model.into_iter().collect::<Vec<_>>());
    }
}

/// Build the deterministic fixture map: the exact construction behind
/// `tests/fixtures/label_map_v1.snap`.
fn fixture_map() -> LabelMap<u32, String> {
    let mut map: LabelMap<u32, String> =
        ListBuilder::new().backend(Backend::Classic).seed(0xF1C).label_map();
    for k in 0..24u32 {
        map.insert(k * 5 % 64, format!("value-{k:02}"));
    }
    map
}

const FIXTURE: &[u8] = include_bytes!("fixtures/label_map_v1.snap");

/// The committed golden fixture decodes to the expected map, and today's
/// writer reproduces it **byte-for-byte** — the on-disk format is pinned:
/// any accidental layout change fails here, and an intentional one must
/// bump [`lll_api::persist::FORMAT_VERSION`] and regenerate the fixture
/// (run the ignored `regenerate_golden_fixture` test).
#[test]
fn golden_fixture_is_byte_stable() {
    let map = fixture_map();
    let mut buf = Vec::new();
    map.write_snapshot(&mut buf).unwrap();
    assert_eq!(
        buf, FIXTURE,
        "snapshot encoding changed: if intentional, bump FORMAT_VERSION and regenerate \
         tests/fixtures/label_map_v1.snap via `cargo test -- --ignored regenerate`"
    );
    let back: LabelMap<u32, String> = LabelMap::read_snapshot(&mut &FIXTURE[..]).unwrap();
    assert!(back.iter().eq(map.iter()), "fixture decoded to different contents");
    assert_eq!(back.backend_name(), map.backend_name());
    assert_eq!(back.backend().config().backend, Backend::Classic);
}

/// Regenerates the golden fixture. Run explicitly after an intentional
/// format change: `cargo test --test persistence -- --ignored regenerate`.
#[test]
#[ignore = "writes tests/fixtures/label_map_v1.snap; run only on intentional format changes"]
fn regenerate_golden_fixture() {
    let mut buf = Vec::new();
    fixture_map().write_snapshot(&mut buf).unwrap();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/label_map_v1.snap");
    std::fs::write(path, &buf).unwrap();
    eprintln!("wrote {} bytes to {path}", buf.len());
}

/// Every strict prefix of a valid snapshot fails typed — never panics —
/// for all three container readers.
#[test]
fn truncated_snapshots_error_on_every_reader() {
    for cut in 0..FIXTURE.len() {
        assert!(
            LabelMap::<u32, String>::read_snapshot(&mut &FIXTURE[..cut]).is_err(),
            "LabelMap decoded a {cut}-byte prefix"
        );
    }
    let mut ol: OrderedList<u64> = OrderedList::new();
    ol.extend_back(0..40);
    let mut buf = Vec::new();
    ol.write_snapshot(&mut buf).unwrap();
    for cut in 0..buf.len() {
        assert!(
            OrderedList::<u64>::read_snapshot(&mut &buf[..cut]).is_err(),
            "OrderedList decoded a {cut}-byte prefix"
        );
    }
    let sm = ShardedBuilder::new().max_shard_len(8).min_shard_len(2).build::<u32, u32>();
    for k in 0..64 {
        sm.insert(k, k);
    }
    let mut buf = Vec::new();
    sm.write_snapshot(&mut buf).unwrap();
    for cut in 0..buf.len() {
        assert!(
            ShardedMap::<u32, u32>::read_snapshot(&mut &buf[..cut]).is_err(),
            "ShardedMap decoded a {cut}-byte prefix"
        );
    }
}

/// Single-bit corruption anywhere in the stream either still decodes (the
/// flip hit a value byte) or fails typed — it never panics and never
/// produces an unsorted map.
#[test]
fn bit_flips_never_panic_or_break_invariants() {
    for pos in 0..FIXTURE.len() {
        let mut bent = FIXTURE.to_vec();
        bent[pos] ^= 0x40;
        // A typed failure is the expected common case; a flip that only
        // hit a value byte may still decode, but never to an unsorted map.
        if let Ok(map) = LabelMap::<u32, String>::read_snapshot(&mut bent.as_slice()) {
            let keys: Vec<u32> = map.keys().copied().collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "flip at {pos} broke sortedness");
        }
    }
}

/// Each failure mode surfaces as its own [`SnapshotError`] variant.
#[test]
fn snapshot_error_variants_are_typed() {
    // Wrong container: an OrderedList stream into the LabelMap reader.
    let mut ol: OrderedList<u32> = OrderedList::new();
    ol.push_back(7);
    let mut buf = Vec::new();
    ol.write_snapshot(&mut buf).unwrap();
    match LabelMap::<u32, u32>::read_snapshot(&mut buf.as_slice()) {
        Err(SnapshotError::WrongContainer { expected, found }) => {
            assert_eq!(expected, ContainerKind::LabelMap);
            assert_eq!(found, ContainerKind::OrderedList);
        }
        other => panic!("expected WrongContainer, got {other:?}"),
    }
    // ...and the reverse direction.
    assert!(matches!(
        OrderedList::<String>::read_snapshot(&mut &FIXTURE[..]),
        Err(SnapshotError::WrongContainer { .. })
    ));
    assert!(matches!(
        ShardedMap::<u32, String>::read_snapshot(&mut &FIXTURE[..]),
        Err(SnapshotError::WrongContainer { .. })
    ));

    // Bad magic.
    let mut bad = FIXTURE.to_vec();
    bad[0] = b'X';
    assert!(matches!(
        LabelMap::<u32, String>::read_snapshot(&mut bad.as_slice()),
        Err(SnapshotError::BadMagic)
    ));

    // Future version.
    let mut future = FIXTURE.to_vec();
    future[8] = 0xFE;
    assert!(matches!(
        LabelMap::<u32, String>::read_snapshot(&mut future.as_slice()),
        Err(SnapshotError::UnsupportedVersion { found: 0xFE })
    ));

    // Out-of-order keys are structural corruption: hand-craft a stream
    // with a descending pair behind a valid header.
    let cfg = ListBuilder::new().config();
    let mut forged = Vec::new();
    Header::new(ContainerKind::LabelMap, cfg, 2).write_to(&mut forged).unwrap();
    (9u32, 0u8).encode(&mut forged).unwrap();
    (3u32, 0u8).encode(&mut forged).unwrap();
    assert!(matches!(
        LabelMap::<u32, u8>::read_snapshot(&mut forged.as_slice()),
        Err(SnapshotError::Corrupt(_))
    ));

    // Duplicate handles likewise, and so are distinct handles that share
    // an index part (no two live elements hold one slab index) or carry
    // the reserved index u32::MAX.
    for pair in [[7u64, 7], [7, 1 << 32 | 7], [3, u64::from(u32::MAX)]] {
        let mut forged = Vec::new();
        Header::new(ContainerKind::OrderedList, cfg, 2).write_to(&mut forged).unwrap();
        (pair[0], 1u8).encode(&mut forged).unwrap();
        (pair[1], 2u8).encode(&mut forged).unwrap();
        assert!(
            matches!(
                OrderedList::<u8>::read_snapshot(&mut forged.as_slice()),
                Err(SnapshotError::Corrupt(_))
            ),
            "handles {pair:?} must be refused"
        );
    }
}

/// Peak virtual size of this process in bytes (`VmPeak`; Linux only).
fn vm_peak_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmPeak:"))?;
    Some(kb.trim().trim_end_matches("kB").trim().parse::<u64>().ok()? * 1024)
}

/// A restored handle may carry any index below the reserved one, however
/// few elements the list holds, so no backend may size a table by it: on
/// every backend a snapshot whose one handle has index `u32::MAX - 1`
/// restores (or reports a typed error) without mapping memory in
/// proportion to the index.
#[test]
fn restoring_a_far_handle_index_is_bounded_on_every_backend() {
    let far = Handle::new(ElemId(u32::MAX - 1), 3);
    let before = vm_peak_bytes();
    for backend in Backend::ALL {
        let cfg = ListBuilder::new().backend(backend).config();
        let mut forged = Vec::new();
        Header::new(ContainerKind::OrderedList, cfg, 1).write_to(&mut forged).unwrap();
        (far.0, 42u64).encode(&mut forged).unwrap();
        // Any `SnapshotError` is an acceptable outcome; a panic or an
        // abort is not.
        if let Ok(back) = OrderedList::<u64>::read_snapshot(&mut forged.as_slice()) {
            back.check_labels();
            assert_eq!(back.get(far), Some(&42), "[{backend}] the far handle lost its value");
            assert_eq!(back.iter().map(|(h, _)| h).collect::<Vec<_>>(), [far]);
        }
    }
    if let (Some(before), Some(after)) = (before, vm_peak_bytes()) {
        // A table of even one byte per index would need 4 GiB.
        let grown = after.saturating_sub(before);
        assert!(grown < 2 << 30, "restoring one handle mapped {} MiB", grown >> 20);
    }
}

/// A snapshot written after a list shrank holds large handle indices over
/// few elements. It is valid: it restores, and every pre-snapshot handle
/// resolves to its value, in order. Run on the two backends whose restore
/// hands the handles to an id-indexed table (the deamortized PMA's, and
/// the layered embedding's outer level, which Corollary 12 shares).
#[test]
fn sparse_snapshot_after_a_shrink_restores_every_handle() {
    for backend in [Backend::Deamortized, Backend::Corollary11] {
        let mut ol: OrderedList<u64> =
            ListBuilder::new().backend(backend).seed(0x5A).ordered_list();
        let handles = ol.extend_back(0..50_000);
        for (i, &h) in handles.iter().enumerate() {
            if i % 500 != 0 {
                assert_eq!(ol.remove(h), Some(i as u64));
            }
        }
        assert_eq!(ol.len(), 100);
        let mut buf = Vec::new();
        ol.write_snapshot(&mut buf).unwrap();
        let back: OrderedList<u64> = OrderedList::read_snapshot(&mut buf.as_slice()).unwrap();
        back.check_labels();
        let kept: Vec<(Handle, u64)> =
            handles.iter().enumerate().step_by(500).map(|(i, &h)| (h, i as u64)).collect();
        assert_eq!(back.iter().map(|(h, v)| (h, *v)).collect::<Vec<_>>(), kept, "[{backend}]");
        for &(h, v) in &kept {
            assert_eq!(back.get(h), Some(&v), "[{backend}] handle {h:?} lost its value");
        }
        // The restored list keeps working on its far-indexed elements.
        let mut back = back;
        for &(h, v) in kept.iter().step_by(2) {
            assert_eq!(back.remove(h), Some(v), "[{backend}]");
        }
        let fresh: Vec<Handle> = (0..50).map(|i| back.push_front(100_000 + i)).collect();
        back.check_labels();
        assert_eq!(back.len(), 100);
        for &(h, v) in kept.iter().skip(1).step_by(2) {
            assert_eq!(back.get(h), Some(&v), "[{backend}] handle {h:?} lost its value");
        }
        assert!(fresh.iter().all(|&h| !kept.iter().any(|&(k, _)| k == h)));
    }
}

/// Restore is the O(n) bulk sweep: exactly **one element move per entry**,
/// no per-op replay — the debug-scale pin of the acceptance criterion
/// (`bench/benches/snapshot.rs` measures the same property at 1M keys in
/// release and the ≥10× wall-clock bound).
#[test]
fn restore_is_one_move_per_element() {
    let n = 50_000u64;
    let map: LabelMap<u64, u64> = LabelMap::from_sorted_iter((0..n).map(|k| (k, k * 2)));
    let mut buf = Vec::new();
    map.write_snapshot(&mut buf).unwrap();

    // Classic backend: restore cost is exactly n placements.
    let mut classic_buf = Vec::new();
    let mut classic: LabelMap<u64, u64> = ListBuilder::new().backend(Backend::Classic).label_map();
    classic.extend_sorted((0..n).map(|k| (k, k * 2)).collect());
    classic.write_snapshot(&mut classic_buf).unwrap();
    let restored: LabelMap<u64, u64> =
        LabelMap::read_snapshot(&mut classic_buf.as_slice()).unwrap();
    assert_eq!(restored.len() as u64, n);
    assert_eq!(restored.total_moves(), n, "classic restore must be exactly 1 move/element");

    // The default layered backend restores in O(n) too (≤ 2 moves/element
    // across its layers), far below any per-op replay.
    let restored: LabelMap<u64, u64> = LabelMap::read_snapshot(&mut buf.as_slice()).unwrap();
    assert_eq!(restored.len() as u64, n);
    assert!(
        restored.total_moves() <= 2 * n,
        "layered restore is not O(n): {} moves for {n} keys",
        restored.total_moves()
    );

    // OrderedList's handle-preserving restore has the same cost shape.
    let mut ol: OrderedList<u64> =
        OrderedList::with_backend(ListBuilder::new().backend(Backend::Classic).build());
    ol.extend_back(0..n);
    let mut buf = Vec::new();
    ol.write_snapshot(&mut buf).unwrap();
    let back: OrderedList<u64> = OrderedList::read_snapshot(&mut buf.as_slice()).unwrap();
    assert_eq!(back.len() as u64, n);
    assert_eq!(back.total_moves(), n, "handle-preserving restore must be 1 move/element");
}
