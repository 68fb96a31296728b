//! Property-based tests for the embedding: arbitrary valid operation
//! sequences must preserve every structural invariant the paper's analysis
//! relies on — not just on curated workloads.

use crate::embed::{EmbedBuilder, EmbedConfig};
use lll_adaptive::AdaptiveBuilder;
use lll_classic::ClassicBuilder;
use lll_core::ids::IdGen;
use lll_core::ops::Op;
use lll_core::testkit::Oracle;
use lll_core::traits::{LabelingBuilder, ListLabeling};
use lll_deamortized::DeamortizedBuilder;
use lll_randomized::RandomizedBuilder;
use proptest::prelude::*;

/// Decode raw bytes into a valid op sequence (biased toward inserts).
fn decode_ops(raw: &[(u8, u32)], cap: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(raw.len());
    let mut len = 0usize;
    for &(b, r) in raw {
        let insert = len == 0 || (len < cap && b % 4 != 0);
        if insert {
            ops.push(Op::Insert(r as usize % (len + 1)));
            len += 1;
        } else {
            ops.push(Op::Delete(r as usize % len));
            len -= 1;
        }
    }
    ops
}

fn raw_seq(len: usize) -> impl Strategy<Value = Vec<(u8, u32)>> {
    proptest::collection::vec((any::<u8>(), any::<u32>()), len)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// Oracle agreement + full invariant audit for adaptive ⊳ classic.
    #[test]
    fn adaptive_in_classic_holds_invariants(raw in raw_seq(300)) {
        let cap = 80;
        let ops = decode_ops(&raw, cap);
        let b = EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder);
        let mut e = b.build_default(cap);
        let mut ids = IdGen::new();
        let mut oracle = Oracle::new();
        for (i, &op) in ops.iter().enumerate() {
            let rep = e.apply(op, &mut ids);
            match op {
                Op::Insert(r) => oracle.insert(r, rep.placed.unwrap().0),
                Op::Delete(r) => oracle.delete(r, rep.removed.unwrap().0),
            }
            if i % 37 == 0 {
                oracle.check(&e);
            }
        }
        oracle.check(&e);
        e.check_invariants();
        prop_assert!(e.stats().max_deadweight <= 4, "Lemma 5: {}", e.stats().max_deadweight);
    }

    /// The Corollary-11 shape (randomized ⊳ deamortized) under arbitrary ops.
    #[test]
    fn randomized_in_deamortized_holds_invariants(raw in raw_seq(250), seed in any::<u64>()) {
        let cap = 60;
        let ops = decode_ops(&raw, cap);
        let b = EmbedBuilder {
            f: RandomizedBuilder::with_seed(seed),
            r: DeamortizedBuilder,
            cfg: EmbedConfig { epsilon: 1.0 / 4.0, ..Default::default() },
        };
        let mut e = b.build_default(cap);
        let mut ids = IdGen::new();
        let mut oracle = Oracle::new();
        for &op in &ops {
            let rep = e.apply(op, &mut ids);
            match op {
                Op::Insert(r) => oracle.insert(r, rep.placed.unwrap().0),
                Op::Delete(r) => oracle.delete(r, rep.removed.unwrap().0),
            }
        }
        oracle.check(&e);
        e.check_invariants();
        prop_assert_eq!(e.stats().forced_catchups, 0);
    }

    /// Slot-count conservation is an absolute invariant of the taxonomy.
    #[test]
    fn slot_taxonomy_conserved(raw in raw_seq(200)) {
        let cap = 64;
        let ops = decode_ops(&raw, cap);
        let b = EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder);
        let mut e = b.build_default(cap);
        let mut ids = IdGen::new();
        let (f0, b0) = (e.tag_array().f_count(), e.tag_array().buf_count());
        for &op in &ops {
            e.apply(op, &mut ids);
            prop_assert_eq!(e.tag_array().f_count(), f0);
            prop_assert_eq!(e.tag_array().buf_count(), b0);
        }
    }

    /// Extreme budget configurations stay correct: er_mult → 0 forces
    /// (almost) every op onto the slow path; a huge er_mult forces the fast
    /// path whenever no rebuild is pending.
    #[test]
    fn budget_extremes_stay_correct(raw in raw_seq(150), tiny in any::<bool>()) {
        let cap = 50;
        let ops = decode_ops(&raw, cap);
        let cfg = if tiny {
            EmbedConfig { er_mult: 0.01, ..Default::default() }
        } else {
            EmbedConfig { er_mult: 1e6, ..Default::default() }
        };
        let b = EmbedBuilder { f: AdaptiveBuilder, r: ClassicBuilder, cfg };
        let mut e = b.build_default(cap);
        let mut ids = IdGen::new();
        let mut oracle = Oracle::new();
        for &op in &ops {
            let rep = e.apply(op, &mut ids);
            match op {
                Op::Insert(r) => oracle.insert(r, rep.placed.unwrap().0),
                Op::Delete(r) => oracle.delete(r, rep.removed.unwrap().0),
            }
        }
        oracle.check(&e);
        e.check_invariants();
        if !tiny {
            // with an enormous threshold nothing should ever be buffered
            prop_assert_eq!(e.stats().slow_ops, 0);
        }
        prop_assert!(e.stats().max_deadweight <= 4);
    }
}
