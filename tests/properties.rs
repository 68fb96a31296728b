//! Property-based tests (proptest): arbitrary valid operation sequences
//! must keep every structure oracle-consistent; structural invariants must
//! hold for arbitrary inputs, not just the curated workloads.

use layered_list_labeling::adaptive::AdaptiveBuilder;
use layered_list_labeling::api::{Backend, ListBuilder};
use layered_list_labeling::classic::ClassicBuilder;
use layered_list_labeling::core::ids::IdGen;
use layered_list_labeling::core::ops::Op;
use layered_list_labeling::core::testkit::run_against_oracle;
use layered_list_labeling::core::traits::{LabelingBuilder, ListLabeling};
use layered_list_labeling::deamortized::DeamortizedBuilder;
use layered_list_labeling::embedding::EmbedBuilder;
use layered_list_labeling::randomized::RandomizedBuilder;
use proptest::prelude::*;

/// Strategy: a valid op sequence of `len` ops with peak size ≤ cap.
/// Encoded as (is_insert_bias, rank_seed) pairs decoded against the running
/// length so every sequence is valid by construction.
fn op_seq(len: usize, cap: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((any::<u8>(), any::<u32>()), len).prop_map(move |raw| {
        let mut ops = Vec::with_capacity(raw.len());
        let mut cur = 0usize;
        for (b, r) in raw {
            let insert = cur == 0 || (cur < cap && b % 5 < 3);
            if insert {
                ops.push(Op::Insert(r as usize % (cur + 1)));
                cur += 1;
            } else {
                ops.push(Op::Delete(r as usize % cur));
                cur -= 1;
            }
        }
        ops
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn classic_matches_oracle(ops in op_seq(400, 120)) {
        let mut s = ClassicBuilder.build_default(120);
        run_against_oracle(&mut s, &ops, 61);
    }

    #[test]
    fn adaptive_matches_oracle(ops in op_seq(400, 120)) {
        let mut s = AdaptiveBuilder.build_default(120);
        run_against_oracle(&mut s, &ops, 61);
    }

    #[test]
    fn randomized_matches_oracle(ops in op_seq(400, 120), seed in any::<u64>()) {
        let mut s = RandomizedBuilder::with_seed(seed).build_default(120);
        run_against_oracle(&mut s, &ops, 61);
    }

    #[test]
    fn deamortized_matches_oracle(ops in op_seq(500, 120)) {
        let mut s = DeamortizedBuilder.build_default(120);
        run_against_oracle(&mut s, &ops, 61);
    }

    #[test]
    fn embedding_matches_oracle_and_keeps_invariants(ops in op_seq(350, 90)) {
        let b = EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder);
        let mut s = b.build_default(90);
        run_against_oracle(&mut s, &ops, 47);
        s.check_invariants();
        prop_assert!(s.stats().max_deadweight <= 4);
    }

    #[test]
    fn labels_always_strictly_increase(ops in op_seq(300, 100)) {
        let b = EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder);
        let mut s = b.build_default(100);
        let mut ids = IdGen::new();
        for op in ops {
            s.apply(op, &mut ids);
            // spot-check monotonicity after every op on a stride
            if s.len() >= 2 {
                let a = s.label_of_rank(0);
                let b2 = s.label_of_rank(s.len() / 2);
                let c = s.label_of_rank(s.len() - 1);
                prop_assert!(a < c);
                if s.len() > 2 {
                    prop_assert!(a <= b2 && b2 <= c);
                }
            }
        }
    }

    #[test]
    fn report_costs_equal_move_log(ops in op_seq(250, 80)) {
        // The cost contract: OpReport::cost() == number of logged moves,
        // and the slot array's lifetime total equals the sum of reports.
        let mut s = ClassicBuilder.build_default(80);
        let mut total = 0u64;
        let mut ids = IdGen::new();
        for op in ops {
            total += s.apply(op, &mut ids).cost();
        }
        prop_assert_eq!(total, s.slots().lifetime_moves());
    }

    #[test]
    fn windowed_iteration_and_bitmap_agree_with_linear_scan_on_all_backends(
        ops in op_seq(300, 100),
        windows in proptest::collection::vec((any::<u16>(), any::<u16>()), 8),
    ) {
        // The physical-layer contracts behind window-bounded rebalances,
        // checked under randomized churn on every selectable backend:
        //  * iter_occupied_in(a, b) ≡ the full iteration filtered to [a, b)
        //  * the occupancy bitmap ≡ the contents, point for point
        //  * occupied_in / free- and occupied-neighbor queries ≡ a linear
        //    scan of is_occupied
        let mut ids = IdGen::new();
        for backend in Backend::ALL {
            let mut s = ListBuilder::new().seed(11).backend(backend).build_fixed(100);
            for &op in &ops {
                s.apply(op, &mut ids);
            }
            let slots = s.slots();
            let m = slots.num_slots();
            let occupied: Vec<bool> = (0..m).map(|i| slots.is_occupied(i)).collect();
            // Bitmap ≡ contents, point for point, and its block counts ≡ its
            // words (one O(m) sweep each).
            for (i, &occ) in occupied.iter().enumerate() {
                prop_assert_eq!(slots.bitmap().get(i), occ, "backend {}", backend.name());
            }
            slots.check_consistent();
            let full: Vec<_> = slots.iter_occupied().collect();
            prop_assert_eq!(full.len(), s.len(), "backend {}", backend.name());
            for &(wa, wb) in &windows {
                let (a, b) = (wa as usize % (m + 1), wb as usize % (m + 1));
                let (a, b) = (a.min(b), a.max(b));
                let got: Vec<_> = slots.iter_occupied_in(a, b).collect();
                let want: Vec<_> =
                    full.iter().copied().filter(|&(p, _)| a <= p && p < b).collect();
                prop_assert_eq!(&got, &want, "backend {} window [{}, {})", backend.name(), a, b);
                prop_assert_eq!(
                    slots.occupied_in(a, b), occupied[a..b].iter().filter(|&&o| o).count(),
                    "backend {}", backend.name()
                );
                if a < m {
                    prop_assert_eq!(
                        slots.next_free(a), (a..m).find(|&i| !occupied[i]),
                        "backend {}", backend.name()
                    );
                    prop_assert_eq!(
                        slots.prev_free(a), (0..=a).rev().find(|&i| !occupied[i]),
                        "backend {}", backend.name()
                    );
                    prop_assert_eq!(
                        slots.next_occupied_at_or_after(a), (a..m).find(|&i| occupied[i]),
                        "backend {}", backend.name()
                    );
                    prop_assert_eq!(
                        slots.prev_occupied_at_or_before(a),
                        (0..=a).rev().find(|&i| occupied[i]),
                        "backend {}", backend.name()
                    );
                }
            }
            // Rank/select round trip through the index.
            for r in 0..s.len() {
                let pos = slots.select(r);
                prop_assert!(slots.bitmap().get(pos), "backend {}", backend.name());
                prop_assert_eq!(slots.rank_at(pos), r, "backend {}", backend.name());
            }
        }
    }
}
