//! Property-based tests for the core substrate: the rank/select bitmap
//! against a naive model, slot-array move discipline, density-tree
//! geometry, and the PMA skeleton under arbitrary valid operation
//! sequences.

use crate::bitmap::Bitmap;
use crate::density::{even_targets, SegTree};
use crate::ops::Op;
use crate::pma::ClassicBuilder;
use crate::testkit::run_against_oracle;
use crate::traits::LabelingBuilder;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Rank, select and neighbor queries agree with a bit-vector model
    /// over 1–1,400 bits (up to three 512-bit blocks, the last one
    /// partial), drawn as runs so that searches cross full words and blocks.
    #[test]
    fn bitmap_rank_select_match_model(
        runs in proptest::collection::vec((any::<bool>(), 1usize..200), 1..30),
    ) {
        let mut bits: Vec<bool> =
            runs.iter().flat_map(|&(bit, len)| std::iter::repeat_n(bit, len)).collect();
        bits.truncate(1400);
        let n = bits.len();
        let mut b = Bitmap::new(n);
        for i in (0..n).filter(|&i| bits[i]) {
            b.set(i);
        }
        b.check_consistent();
        let ones: Vec<usize> = (0..n).filter(|&i| bits[i]).collect();
        let zeros: Vec<usize> = (0..n).filter(|&i| !bits[i]).collect();
        prop_assert_eq!(b.count_ones(), ones.len());
        for pos in 0..=n {
            prop_assert_eq!(b.rank(pos), ones.partition_point(|&p| p < pos));
        }
        for (k, &p) in ones.iter().enumerate() {
            prop_assert_eq!(b.select(k), Some(p));
        }
        prop_assert_eq!(b.select(ones.len()), None);
        for (k, &p) in zeros.iter().enumerate() {
            prop_assert_eq!(b.select_zero(k), Some(p));
        }
        prop_assert_eq!(b.select_zero(zeros.len()), None);
        for probe in 0..n {
            prop_assert_eq!(b.next_one(probe), (probe..n).find(|&i| bits[i]));
            prop_assert_eq!(b.prev_one(probe), (0..=probe).rev().find(|&i| bits[i]));
            prop_assert_eq!(b.next_zero(probe), (probe..n).find(|&i| !bits[i]));
            prop_assert_eq!(b.prev_zero(probe), (0..=probe).rev().find(|&i| !bits[i]));
        }
    }

    /// Segment-tree geometry: every slot belongs to exactly one segment;
    /// windows nest and tile the array.
    #[test]
    fn segtree_geometry(m in 2usize..5000) {
        let t = SegTree::new(m);
        prop_assert!(t.num_segs().is_power_of_two());
        prop_assert_eq!(t.seg_start(0), 0);
        prop_assert_eq!(t.seg_start(t.num_segs()), m);
        for pos in (0..m).step_by((m / 64).max(1)) {
            let s = t.seg_of(pos);
            prop_assert!(t.seg_start(s) <= pos && pos < t.seg_start(s + 1));
            // windows nest up the tree
            let mut prev = t.window(0, s);
            for level in 1..=t.height() {
                let w = t.window(level, s);
                prop_assert!(w.0 <= prev.0 && prev.1 <= w.1);
                prev = w;
            }
            prop_assert_eq!(t.window(t.height(), s), (0, m));
        }
    }

    /// Even targets are strictly increasing, in range, and near-uniform.
    #[test]
    fn even_targets_valid(w in 1usize..500, kfrac in 0.0f64..1.0) {
        let k = ((w as f64) * kfrac) as usize;
        let ts = even_targets(100, 100 + w, k);
        prop_assert_eq!(ts.len(), k);
        prop_assert!(ts.iter().all(|&t| (100..100 + w).contains(&t)));
        prop_assert!(ts.windows(2).all(|p| p[0] < p[1]));
        if k >= 2 {
            let gaps: Vec<usize> = ts.windows(2).map(|p| p[1] - p[0]).collect();
            let mn = gaps.iter().min().unwrap();
            let mx = gaps.iter().max().unwrap();
            prop_assert!(mx - mn <= 1, "uneven spread: {gaps:?}");
        }
    }

    /// The classical PMA stays oracle-consistent under arbitrary valid
    /// sequences (the skeleton every variant builds on).
    #[test]
    fn classic_pma_arbitrary_ops(raw in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..400)) {
        let cap = 100;
        let mut ops = Vec::new();
        let mut len = 0usize;
        for (b, r) in raw {
            let insert = len == 0 || (len < cap && b % 3 != 0);
            if insert {
                ops.push(Op::Insert(r as usize % (len + 1)));
                len += 1;
            } else {
                ops.push(Op::Delete(r as usize % len));
                len -= 1;
            }
        }
        let mut pma = ClassicBuilder.build_default(cap);
        run_against_oracle(&mut pma, &ops, 43);
    }
}
