//! Unit tests for the embedding: oracle agreement on every workload shape,
//! the paper's lemma-level invariants, Figure-1 view consistency, and
//! composition (nesting) mechanics.

use crate::embed::{Embed, EmbedBuilder, EmbedConfig, EmbedStats};
use crate::layered::{corollary11, corollary12, inner_yz_builder};
use crate::tag_array::{SlotTag, TagArray};
use crate::views;
use lll_adaptive::AdaptiveBuilder;
use lll_classic::ClassicBuilder;
use lll_core::growable::Growable;
use lll_core::ids::{IdAllocator, IdGen};
use lll_core::ops::Op;
use lll_core::report::OpReport;
use lll_core::testkit::{run_against_oracle, Oracle};
use lll_core::traits::{LabelingBuilder, ListLabeling};
use lll_deamortized::{DeamortizedBuilder, DeamortizedStats};
use rand::{Rng, SeedableRng};

type SimpleEmbed = EmbedBuilder<AdaptiveBuilder, ClassicBuilder>;

fn simple_builder() -> SimpleEmbed {
    EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder)
}

fn mixed_ops(n: usize, total: usize, seed: u64, p_ins: f64) -> Vec<Op> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut len = 0usize;
    for _ in 0..total {
        if len == 0 || (len < n && rng.gen_bool(p_ins)) {
            ops.push(Op::Insert(rng.gen_range(0..=len)));
            len += 1;
        } else {
            ops.push(Op::Delete(rng.gen_range(0..len)));
            len -= 1;
        }
    }
    ops
}

#[test]
fn embed_oracle_random_inserts() {
    let n = 300;
    let mut e = simple_builder().build_default(n);
    let ops: Vec<Op> = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        (0..n).map(|len| Op::Insert(rng.gen_range(0..=len))).collect()
    };
    run_against_oracle(&mut e, &ops, 29);
    e.check_invariants();
}

#[test]
fn embed_oracle_hammer() {
    let n = 400;
    let mut e = simple_builder().build_default(n);
    let ops: Vec<Op> = (0..n).map(|_| Op::Insert(0)).collect();
    run_against_oracle(&mut e, &ops, 37);
    e.check_invariants();
}

#[test]
fn embed_oracle_churn() {
    let n = 250;
    let mut e = simple_builder().build_default(n);
    let ops = mixed_ops(n, 3000, 11, 0.55);
    run_against_oracle(&mut e, &ops, 101);
    e.check_invariants();
}

#[test]
fn embed_oracle_churn_step_checked() {
    // Small but brutally checked: full layout comparison after every op.
    let n = 60;
    let mut e = simple_builder().build_default(n);
    let mut ids = IdGen::new();
    let ops = mixed_ops(n, 800, 13, 0.6);
    let mut oracle = Oracle::new();
    for &op in &ops {
        let rep = e.apply(op, &mut ids);
        match op {
            Op::Insert(r) => oracle.insert(r, rep.placed.unwrap().0),
            Op::Delete(r) => oracle.delete(r, rep.removed.unwrap().0),
        }
        oracle.check(&e);
    }
    e.check_invariants();
}

#[test]
fn embed_uses_both_paths() {
    let n = 1 << 11;
    let mut e = simple_builder().build_default(n);
    let mut ids = IdGen::new();
    for _ in 0..n {
        e.insert(0, ids.fresh()); // hammering forces occasional expensive sim ops
    }
    let s = e.stats();
    assert!(s.fast_ops > 0, "no fast-path ops");
    assert!(s.slow_ops > 0, "hammering should trigger slow-path ops");
    assert!(s.rebuilds_completed > 0, "rebuilds should complete");
}

#[test]
fn lemma5_deadweight_at_most_4() {
    let n = 1 << 12;
    let mut e = simple_builder().build_default(n);
    let mut ids = IdGen::new();
    let ops = mixed_ops(n, 2 * n, 17, 0.7);
    for &op in &ops {
        e.apply(op, &mut ids);
    }
    let s = e.stats();
    assert!(
        s.max_deadweight <= 4,
        "Lemma 5 violated: an element took {} deadweight moves (hist {:?})",
        s.max_deadweight,
        s.deadweight_hist
    );
}

#[test]
fn lemma7_buffer_occupancy_small() {
    let n = 1 << 12;
    let mut e = simple_builder().build_default(n);
    let mut ids = IdGen::new();
    for _ in 0..n {
        e.insert(0, ids.fresh());
    }
    let s = e.stats();
    assert!(s.forced_catchups == 0, "halting condition fired");
    assert!(s.max_buffered < n / 3, "buffer occupancy {} too large for n={n}", s.max_buffered);
}

#[test]
fn slot_counts_conserved() {
    let n = 500;
    let mut e = simple_builder().build_default(n);
    let mut ids = IdGen::new();
    let (f0, b0) = {
        let tags = e.tag_array();
        (tags.f_count(), tags.buf_count())
    };
    let ops = mixed_ops(n, 2000, 23, 0.6);
    for &op in &ops {
        e.apply(op, &mut ids);
    }
    let tags = e.tag_array();
    assert_eq!(tags.f_count(), f0, "F-slot count changed");
    assert_eq!(tags.buf_count(), b0, "buffer slot count changed");
    e.check_invariants();
}

#[test]
fn figure1_views_are_consistent() {
    let n = 64;
    let mut e = simple_builder().build_default(n);
    let mut ids = IdGen::new();
    for i in 0..n / 2 {
        e.insert(i / 3, ids.fresh());
    }
    let full = views::embedding_view(&e);
    let emu = views::emulator_view(&e);
    let shell = views::shell_view(&e);
    assert_eq!(full.chars().count(), e.num_slots());
    assert_eq!(shell.chars().count(), e.num_slots());
    // F-emulator view has exactly the F-slots.
    assert_eq!(emu.chars().count(), e.tag_array().f_count());
    // R sees non-white exactly where the embedding has F/Buf slots.
    for (c_full, c_shell) in full.chars().zip(shell.chars()) {
        assert_eq!(c_full == '.', c_shell == '.');
    }
    // Occupied F-slots in both views agree in number.
    let x_count = emu.chars().filter(|&c| c == 'X').count();
    let f_count = full.chars().filter(|&c| c == 'F').count();
    assert_eq!(x_count, f_count);
}

#[test]
fn nested_embedding_works() {
    // Embed an embedding: (adaptive ⊳ classic) used as the R of an outer
    // embedding — the composition mechanics of Theorem 3.
    let inner = EmbedBuilder {
        f: AdaptiveBuilder,
        r: ClassicBuilder,
        cfg: EmbedConfig { epsilon: 1.0 / 6.0, ..Default::default() },
    };
    let outer = EmbedBuilder {
        f: AdaptiveBuilder,
        r: inner,
        cfg: EmbedConfig { epsilon: 1.0 / 3.0, ..Default::default() },
    };
    let n = 200;
    let mut e = outer.build_default(n);
    let ops = mixed_ops(n, 1500, 31, 0.6);
    run_against_oracle(&mut e, &ops, 47);
    e.check_invariants();
}

#[test]
fn corollary11_oracle() {
    let n = 200;
    let mut e = corollary11(n, 7);
    let ops = mixed_ops(n, 1200, 37, 0.6);
    run_against_oracle(&mut e, &ops, 67);
    e.check_invariants();
}

#[test]
fn corollary11_hammer() {
    let n = 256;
    let mut e = corollary11(n, 9);
    let ops: Vec<Op> = (0..n).map(|_| Op::Insert(0)).collect();
    run_against_oracle(&mut e, &ops, 33);
}

#[test]
fn corollary12_oracle() {
    let n = 200;
    // Descending arrival with perfect predictions.
    let preds: Vec<usize> = (0..n).rev().collect();
    let mut e = corollary12(n, 1, preds, 11);
    let ops: Vec<Op> = (0..n).map(|_| Op::Insert(0)).collect();
    run_against_oracle(&mut e, &ops, 41);
    e.check_invariants();
}

#[test]
fn labels_monotone_in_rank() {
    let n = 300;
    let mut e = simple_builder().build_default(n);
    let mut ids = IdGen::new();
    let ops = mixed_ops(n, 1000, 41, 0.7);
    for &op in &ops {
        e.apply(op, &mut ids);
    }
    let labels: Vec<usize> = (0..e.len()).map(|r| e.label_of_rank(r)).collect();
    assert!(labels.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn delete_to_empty_and_refill() {
    let n = 128;
    let mut e = simple_builder().build_default(n);
    let mut ids = IdGen::new();
    for i in 0..n {
        e.insert(i / 2, ids.fresh());
    }
    assert_eq!(e.len(), n);
    for _ in 0..n {
        e.delete(0);
    }
    assert_eq!(e.len(), 0);
    for i in 0..n / 2 {
        e.insert(i, ids.fresh());
    }
    assert_eq!(e.len(), n / 2);
    e.check_invariants();
}

#[test]
fn lemma4_shell_input_independent_of_shell_randomness() {
    // Lemma 4: the operation sequence y fed to the R-shell is fully
    // determined by the input x and rand(F) — independent of rand(R).
    // Build two embeddings with the SAME (deterministic) F but DIFFERENT
    // random tapes for a randomized R, drive them with the same input, and
    // compare the recorded shell-op sequences.
    use lll_randomized::RandomizedBuilder;
    let n = 400;
    let ops = mixed_ops(n, 2000, 71, 0.6);
    let run = |r_seed: u64| {
        let b = EmbedBuilder {
            f: AdaptiveBuilder,
            r: RandomizedBuilder::with_seed(r_seed),
            cfg: EmbedConfig::default(),
        };
        let mut e = b.build_default(n);
        let mut ids = IdGen::new();
        e.enable_shell_trace();
        for &op in &ops {
            e.apply(op, &mut ids);
        }
        e.shell_trace().to_vec()
    };
    let t1 = run(0xAAAA);
    let t2 = run(0x5555);
    assert!(!t1.is_empty(), "expected some slow-path shell ops");
    assert_eq!(t1, t2, "Lemma 4 violated: R's randomness leaked into its own input");
}

#[test]
fn lemma4_shell_input_depends_on_f_randomness() {
    // The complementary direction: changing rand(F) IS allowed to change
    // the shell's input (the dependence is one-directional).
    use lll_randomized::RandomizedBuilder;
    let n = 400;
    let ops = mixed_ops(n, 2000, 73, 0.6);
    let run = |f_seed: u64| {
        let b = EmbedBuilder {
            f: RandomizedBuilder::with_seed(f_seed),
            r: ClassicBuilder,
            cfg: EmbedConfig::default(),
        };
        let mut e = b.build_default(n);
        let mut ids = IdGen::new();
        e.enable_shell_trace();
        for &op in &ops {
            e.apply(op, &mut ids);
        }
        e.shell_trace().to_vec()
    };
    let t1 = run(1);
    let t2 = run(2);
    // Not asserting inequality as a hard guarantee (they could coincide),
    // but the sequences must at least be well-formed and deterministic.
    assert_eq!(t1, run(1), "same rand(F) must reproduce the same shell input");
    assert_eq!(t2, run(2));
}

/// Ascending runs of 1,000 inserts at consecutive ranks from a uniform
/// anchor, each followed by uniform deletes that leave room for the next
/// run under `cap`.
fn clustered_runs(cap: usize, runs: usize, seed: u64) -> Vec<Op> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (mut ops, mut len) = (Vec::new(), 0usize);
    for _ in 0..runs {
        let anchor = rng.gen_range(0..=len);
        ops.extend((anchor..anchor + 1000).map(Op::Insert));
        len += 1000;
        let deletes = rng.gen_range(200usize..600).max((len + 1000).saturating_sub(cap));
        for _ in 0..deletes {
            ops.push(Op::Delete(rng.gen_range(0..len)));
            len -= 1;
        }
    }
    ops
}

/// FNV-1a over the `(from, to)` positions of every move in `rep`.
fn fold_moves(hash: &mut u64, rep: &OpReport) {
    for mv in &rep.moves {
        *hash =
            (*hash ^ (u64::from(mv.from) << 32 | u64::from(mv.to))).wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn clustered_runs_pin_every_decision() {
    // Exact figures of the side tables' first implementation (hash maps,
    // a `BTreeSet` dirty set, a fresh shell id per buffered insert). The
    // algorithms must not depend on how per-element data is stored, so a
    // storage change that alters any decision fails here.
    let ops = clustered_runs(4096, 20, 0x91);
    let mut e = corollary11(4096, 0x5EED);
    let mut ids = IdAllocator::new();
    let (mut moves, mut fingerprint) = (0u64, FNV_OFFSET);
    for &op in &ops {
        let rep = match op {
            Op::Insert(r) => e.insert(r, ids.fresh()),
            Op::Delete(r) => {
                let rep = e.delete(r);
                ids.release(rep.removed_elem().expect("delete removes"));
                rep
            }
        };
        moves += rep.cost();
        fold_moves(&mut fingerprint, &rep);
    }
    assert_eq!((moves, fingerprint), (1_345_726, 0x24fe_caac_8147_80b3));
    let outer = EmbedStats {
        fast_ops: 25210,
        slow_ops: 11694,
        rebuilds_started: 3005,
        rebuilds_completed: 3005,
        max_buffered: 101,
        max_rebuild_span: 88,
        deadweight_hist: [1390, 4213, 3681, 2191, 0, 0, 0, 0, 0],
        max_deadweight: 3,
        r_shell_moves: 214_062,
        deadweight_moves: 18148,
        incorporations: 11472,
        forced_catchups: 0,
        init_cost: 6828,
    };
    let inner = EmbedStats {
        fast_ops: 29440,
        slow_ops: 338,
        rebuilds_started: 266,
        rebuilds_completed: 266,
        max_buffered: 3,
        max_rebuild_span: 4,
        deadweight_hist: [42, 191, 3, 6, 0, 0, 0, 0, 0],
        max_deadweight: 3,
        r_shell_moves: 267,
        deadweight_moves: 215,
        incorporations: 242,
        forced_catchups: 0,
        init_cost: 9674,
    };
    let z = DeamortizedStats {
        jobs_created: 2,
        jobs_completed: 2,
        inline_rebalances: 1,
        forced_syncs: 0,
        clamped_moves: 0,
    };
    assert_eq!(format!("{:?}", e.stats()), format!("{outer:?}"));
    assert_eq!(format!("{:?}", e.shell().stats()), format!("{inner:?}"));
    assert_eq!(format!("{:?}", e.shell().shell().stats()), format!("{z:?}"));

    let mut g = Growable::new(DeamortizedBuilder, 16);
    let (mut rep, mut fingerprint) = (OpReport::default(), FNV_OFFSET);
    for &op in &ops {
        match op {
            Op::Insert(r) => g.insert_reported_into(r, &mut rep),
            Op::Delete(r) => g.delete_reported_into(r, &mut rep),
        };
        fold_moves(&mut fingerprint, &rep);
    }
    assert_eq!((g.total_moves(), fingerprint), (1_208_756, 0x0215_3ac4_a40e_d904));
    let (grown, m) = (g.stats(), g.metrics());
    let rebuild_moves = m.moves.get() - m.moves_per_op.sum();
    assert_eq!((grown.grows, grown.shrinks, rebuild_moves), (8, 0, 4080));
    let z = DeamortizedStats {
        jobs_created: 8068,
        jobs_completed: 8068,
        inline_rebalances: 30,
        forced_syncs: 0,
        clamped_moves: 126_958,
    };
    assert_eq!(format!("{:?}", g.inner().stats()), format!("{z:?}"));
}

#[test]
fn shell_slot_ids_stay_below_shell_capacity() {
    // Every slow-path insert deletes a dummy buffer slot from the R-shell
    // and inserts a new one; the new slot takes the deleted one's index, so
    // the ids the inner levels see stay dense however long the list lives.
    let n = 128;
    let mut e = corollary11(n, 3);
    let mut ids = IdAllocator::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    while e.stats().slow_ops < 100_000 {
        // Fill by hammering one random rank, then delete uniformly back
        // down to half full.
        let at = rng.gen_range(0..=e.len());
        while e.len() < n {
            e.insert(at, ids.fresh());
        }
        while e.len() > n / 2 {
            let rep = e.delete(rng.gen_range(0..e.len()));
            ids.release(rep.removed_elem().expect("delete removes"));
        }
    }
    let shell_cap = e.shell().capacity();
    let live: Vec<_> = e.shell().slots().iter_occupied().map(|(_, id)| id).collect();
    assert_eq!(live.len(), shell_cap, "the shell holds every F-slot and buffer slot");
    let worst = live.iter().map(|id| id.index()).max().expect("shell slots");
    assert!(worst < shell_cap, "shell slot index {worst} ≥ shell capacity {shell_cap}");
    e.check_invariants();
}

/// The per-move tagging the one-pass build replaced, kept as its
/// reference: run `shell`'s initial bulk splice of every F-slot and buffer
/// slot, then replay its move log onto an all-white array with `retag`
/// and `move_slot`, the k-th placement being the slot of rank k.
fn replayed_init_tags(mut shell: impl ListLabeling, f_count: usize) -> TagArray {
    let r_cap = shell.capacity();
    let buf_count = r_cap - f_count;
    let bulk = shell.splice(0, &IdAllocator::new().fresh_n(r_cap));
    let mut tags = TagArray::new(shell.num_slots());
    let mut placed = 0;
    for mv in &bulk.moves {
        if mv.from == mv.to {
            let i = placed;
            placed += 1;
            let is_buffer = ((i + 1) * buf_count) / r_cap != (i * buf_count) / r_cap;
            tags.retag(mv.from as usize, if is_buffer { SlotTag::Buf } else { SlotTag::F });
        } else {
            tags.move_slot(mv.from as usize, mv.to as usize);
        }
    }
    assert_eq!(placed, r_cap);
    tags
}

/// Splice `count` ids into two empty twins, `walked` through the one-walk
/// placement and `mirrored` through the per-move mirror, then drive both
/// with the same 2,000 random operations. Every report, and the layout and
/// tables after the splice, must agree.
fn assert_twins_agree<F: ListLabeling, R: ListLabeling>(
    mut walked: Embed<F, R>,
    mut mirrored: Embed<F, R>,
    count: usize,
    seed: u64,
) {
    let n = walked.capacity();
    let mut ids = IdAllocator::new();
    let batch = ids.fresh_n(count);
    let (a, b) = (walked.splice(0, &batch), mirrored.splice_per_move(0, &batch));
    assert_eq!(a.moves, b.moves, "n {n}, seed {seed}: splice reports differ");
    assert_eq!(walked.slots().layout(), mirrored.slots().layout(), "n {n}, seed {seed}");
    assert_eq!(walked.placements(), mirrored.placements(), "n {n}, seed {seed}");
    walked.check_invariants();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1FF);
    for step in 0..2000 {
        let len = walked.len();
        let (a, b) = if len == 0 || (len < n && rng.gen_bool(0.5)) {
            let (rank, id) = (rng.gen_range(0..=len), ids.fresh());
            (walked.insert(rank, id), mirrored.insert(rank, id))
        } else {
            let rank = rng.gen_range(0..len);
            let reps = (walked.delete(rank), mirrored.delete(rank));
            ids.release(reps.0.removed_elem().expect("delete removes"));
            reps
        };
        assert_eq!(
            (a.moves, a.placed, a.removed),
            (b.moves, b.placed, b.removed),
            "n {n}, seed {seed}: op {step} reports differ"
        );
    }
    assert_eq!(format!("{:?}", walked.stats()), format!("{:?}", mirrored.stats()));
    walked.check_invariants();
}

#[test]
fn one_pass_build_equals_the_per_move_reference() {
    for n in [16, 17, 100, 1000, 2048, 4096] {
        for seed in 0..4 {
            // Corollary 11: each level's tags are those the replay of its
            // shell's init splice builds.
            let e = corollary11(n, seed);
            let (outer, inner) = (e.tag_array(), e.shell().tag_array());
            let (shell_cap, m) = (e.shell().capacity(), e.num_slots());
            let z = DeamortizedBuilder.build(e.shell().shell().capacity(), m);
            let yz = || inner_yz_builder(seed).build(shell_cap, m);
            let want_inner = replayed_init_tags(z, e.shell().sim().num_slots());
            let want_outer = replayed_init_tags(yz(), e.sim().num_slots());
            assert_eq!(inner.bitmaps(), want_inner.bitmaps(), "inner tags, n {n}, seed {seed}");
            assert_eq!(outer.bitmaps(), want_outer.bitmaps(), "outer tags, n {n}, seed {seed}");
            assert_twins_agree(e, corollary11(n, seed), n / 2, seed);
            // The outer shell's init splice fills the inner level.
            assert_twins_agree(yz(), yz(), shell_cap, seed);

            // A one-level embedding: Y ⊳ Z on its own.
            let e = inner_yz_builder(seed).build_default(n);
            let z = DeamortizedBuilder.build(e.shell().capacity(), e.num_slots());
            let want = replayed_init_tags(z, e.sim().num_slots());
            assert_eq!(e.tag_array().bitmaps(), want.bitmaps(), "one level, n {n}, seed {seed}");
            assert_twins_agree(e, inner_yz_builder(seed).build_default(n), n / 2, seed);
        }
    }
}
