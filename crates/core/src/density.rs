//! Calibrator-tree geometry and density thresholds.
//!
//! Packed-memory arrays view the slot array as `S` contiguous **segments**
//! of ≈log₂ m slots each, organized into an implicit binary tree: a node at
//! level `ℓ` (0 = leaf) spans `2^ℓ` segments. Each level has density
//! thresholds; when an insertion pushes a leaf past its upper threshold,
//! the algorithm walks up to the smallest ancestor **window** whose density
//! is within threshold and rebalances that window (Itai–Konheim–Rodeh 1981,
//! and virtually all successors including the algorithms composed by the
//! layered-list-labeling paper).
//!
//! [`SegTree`] captures the geometry (segment boundaries, windows, walks);
//! [`Thresholds`] the classical interpolated thresholds. Variant algorithms
//! supply their own threshold policies on top of the same geometry.

/// Geometry of the implicit calibrator tree over an array of `m` slots.
#[derive(Clone, Debug)]
pub struct SegTree {
    m: usize,
    num_segs: usize,
    /// Number of levels above the leaves: windows exist for
    /// `level ∈ 0..=height`, where `level == height` is the whole array.
    height: usize,
}

impl SegTree {
    /// Build geometry for `m` slots, aiming for segments of
    /// ≈`log₂ m` slots. `num_segs` is a power of two so windows nest.
    pub fn new(m: usize) -> Self {
        assert!(m >= 2, "SegTree needs at least 2 slots");
        let target = (usize::BITS - (m - 1).leading_zeros()) as usize; // ceil(log2 m)
        let target = target.max(2);
        let mut num_segs = 1usize;
        while num_segs * 2 * target <= m {
            num_segs *= 2;
        }
        let height = num_segs.trailing_zeros() as usize;
        Self { m, num_segs, height }
    }

    /// Total slots.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.m
    }

    /// Number of leaf segments (a power of two).
    #[inline]
    pub fn num_segs(&self) -> usize {
        self.num_segs
    }

    /// Levels above the leaves; the root window (whole array) is at
    /// `level == height()`.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The segment index containing slot `pos`.
    ///
    /// Segment boundaries are `floor(i · m / S)`, so segment sizes differ by
    /// at most one slot and no padding is needed for arbitrary `m`.
    #[inline]
    pub fn seg_of(&self, pos: usize) -> usize {
        debug_assert!(pos < self.m);
        // Invert floor(i*m/S) ≤ pos: i = floor((pos*S + S - 1 ... ) — do it
        // arithmetically then fix up boundary effects.
        let mut i = (pos * self.num_segs) / self.m;
        while self.seg_start(i + 1) <= pos {
            i += 1;
        }
        while self.seg_start(i) > pos {
            i -= 1;
        }
        i
    }

    /// First slot of segment `i` (also valid for `i == num_segs`, giving `m`).
    #[inline]
    pub fn seg_start(&self, i: usize) -> usize {
        (i * self.m) / self.num_segs
    }

    /// Slot range `[start, end)` of the level-`ℓ` window containing segment
    /// `seg`.
    #[inline]
    pub fn window(&self, level: usize, seg: usize) -> (usize, usize) {
        debug_assert!(level <= self.height);
        let width = 1usize << level;
        let first_seg = seg & !(width - 1);
        (self.seg_start(first_seg), self.seg_start(first_seg + width))
    }

    /// Slot range of the whole array.
    #[inline]
    pub fn root_window(&self) -> (usize, usize) {
        (0, self.m)
    }

    /// Iterate `(level, window_start, window_end)` from the leaf containing
    /// `pos` up to the root.
    pub fn walk_up(&self, pos: usize) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let seg = self.seg_of(pos);
        (0..=self.height).map(move |level| {
            let (a, b) = self.window(level, seg);
            (level, a, b)
        })
    }
}

/// Classical interpolated density thresholds.
///
/// Level-`ℓ` (0 = leaf) windows must keep their density within
/// `[lower(ℓ), upper(ℓ)]` where the bounds interpolate linearly between the
/// leaf and root values. The gap between adjacent levels' thresholds is what
/// pays for rebalances in the classical O(log² n) analysis: a freshly
/// rebalanced window must absorb `Θ(gap · window)` inserts before it can
/// violate again.
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Max density of a leaf (usually 1.0).
    pub leaf_upper: f64,
    /// Max density of the root (must be ≥ n/m for capacity n on m slots).
    pub root_upper: f64,
    /// Min density of a leaf (small; deletions below it trigger merges).
    pub leaf_lower: f64,
    /// Min density of the root.
    pub root_lower: f64,
}

impl Thresholds {
    /// Thresholds sized so that a structure of capacity `n` on `m` slots can
    /// always accept its full capacity: `root_upper` is set just above
    /// `n/m` (clamped to ≤ 0.995) and the remaining headroom is spread
    /// across the levels.
    pub fn for_capacity(n: usize, m: usize) -> Self {
        assert!(n < m, "need slack: n={n} >= m={m}");
        let load = n as f64 / m as f64;
        let root_upper = (load * 1.005 + 0.005).clamp(0.5, 0.995);
        Self {
            leaf_upper: 1.0,
            root_upper,
            leaf_lower: 0.05,
            root_lower: (0.25 * root_upper).min(load * 0.5),
        }
    }

    /// Upper density threshold at `level` of a tree with `height` levels.
    #[inline]
    pub fn upper(&self, level: usize, height: usize) -> f64 {
        if height == 0 {
            return self.root_upper.max(self.leaf_upper.min(1.0));
        }
        let t = level as f64 / height as f64;
        self.leaf_upper + (self.root_upper - self.leaf_upper) * t
    }

    /// Lower density threshold at `level` of a tree with `height` levels.
    #[inline]
    pub fn lower(&self, level: usize, height: usize) -> f64 {
        if height == 0 {
            return self.root_lower;
        }
        let t = level as f64 / height as f64;
        self.leaf_lower + (self.root_lower - self.leaf_lower) * t
    }
}

/// Append evenly spread target positions for `k` elements in `[a, b)` to
/// `out` — the allocation-free form used on the steady-state rebalance
/// path, where callers hand in a reusable scratch buffer.
///
/// Targets are strictly increasing and the spacing of any two consecutive
/// targets differs by at most one slot — the canonical PMA layout (see
/// [`EvenTargets`]).
pub fn even_targets_into(a: usize, b: usize, k: usize, out: &mut Vec<usize>) {
    out.extend(EvenTargets::new(a, b, k, 0));
}

/// The evenly spread targets for `k` elements in `[a, b)`, from the
/// `first`-th on: the `i`-th is `a + (i·w)/k` for width `w`. Only the
/// first target takes a division; each next one steps the quotient `w/k`
/// and carries the remainder `w%k`.
#[derive(Clone, Debug)]
pub struct EvenTargets {
    pos: usize,
    rem: usize,
    step: usize,
    carry: usize,
    k: usize,
    left: usize,
}

impl EvenTargets {
    /// Targets `first..k` of `k` elements evenly spread over `[a, b)`.
    pub fn new(a: usize, b: usize, k: usize, first: usize) -> Self {
        let w = b - a;
        assert!(k <= w, "cannot place {k} elements in window of {w}");
        assert!(first <= k, "target {first} of {k}");
        let d = k.max(1);
        let i = first * w;
        Self { pos: a + i / d, rem: i % d, step: w / d, carry: w % d, k: d, left: k - first }
    }
}

impl Iterator for EvenTargets {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        self.left = self.left.checked_sub(1)?;
        let target = self.pos;
        self.pos += self.step;
        self.rem += self.carry;
        if self.rem >= self.k {
            self.rem -= self.k;
            self.pos += 1;
        }
        Some(target)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for EvenTargets {}

/// Compute evenly spread target positions for `k` elements in `[a, b)`.
/// Allocating convenience wrapper around [`even_targets_into`].
pub fn even_targets(a: usize, b: usize, k: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(k);
    even_targets_into(a, b, k, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segtree_covers_array() {
        for m in [16, 100, 1000, 4096, 10_000] {
            let t = SegTree::new(m);
            assert!(t.num_segs().is_power_of_two());
            assert_eq!(t.seg_start(0), 0);
            assert_eq!(t.seg_start(t.num_segs()), m);
            // every slot belongs to exactly the segment seg_of claims
            for pos in (0..m).step_by(7) {
                let s = t.seg_of(pos);
                assert!(t.seg_start(s) <= pos && pos < t.seg_start(s + 1));
            }
        }
    }

    #[test]
    fn windows_nest() {
        let t = SegTree::new(1024);
        let (a0, b0) = t.window(0, 5);
        let (a1, b1) = t.window(1, 5);
        let (ar, br) = t.window(t.height(), 5);
        assert!(a1 <= a0 && b0 <= b1);
        assert_eq!((ar, br), (0, 1024));
        assert!(b0 - a0 >= 2);
    }

    #[test]
    fn walk_up_reaches_root() {
        let t = SegTree::new(512);
        let walk: Vec<_> = t.walk_up(100).collect();
        assert_eq!(walk.len(), t.height() + 1);
        assert_eq!(walk.last().copied(), Some((t.height(), 0, 512)));
        // windows widen monotonically
        for w in walk.windows(2) {
            assert!(w[1].1 <= w[0].1 && w[0].2 <= w[1].2);
        }
    }

    #[test]
    fn thresholds_interpolate() {
        let th = Thresholds::for_capacity(800, 1000);
        let h = 8;
        assert!(th.upper(0, h) >= th.upper(h, h));
        assert!(th.upper(h, h) >= 0.8, "root upper must fit capacity");
        assert!(th.lower(0, h) <= th.lower(h, h));
        // monotone across levels
        for l in 0..h {
            assert!(th.upper(l, h) >= th.upper(l + 1, h));
            assert!(th.lower(l, h) <= th.lower(l + 1, h));
        }
    }

    #[test]
    fn even_targets_are_even() {
        let t = even_targets(10, 30, 5);
        assert_eq!(t.len(), 5);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert!(t.iter().all(|&p| (10..30).contains(&p)));
        // spacing differs by at most 1
        let gaps: Vec<usize> = t.windows(2).map(|w| w[1] - w[0]).collect();
        let (mn, mx) = (gaps.iter().min().unwrap(), gaps.iter().max().unwrap());
        assert!(mx - mn <= 1);
        // full window
        let t = even_targets(0, 4, 4);
        assert_eq!(t, vec![0, 1, 2, 3]);
        // empty
        assert!(even_targets(3, 9, 0).is_empty());
    }

    #[test]
    fn even_targets_match_the_closed_form() {
        // `(a, w)`: widths straddle a word (64) and a bitmap block (512);
        // the small ones try every k, the wide ones a spread of k.
        let cases = (1..=70)
            .chain(510..=514)
            .map(|w| (0, w))
            .chain([(7, 63), (1000, 64), (3, 513)])
            .chain([(0, 4095), (0, 4096), (0, 9674), (12_345, 9674), (0, 100_003)]);
        for (a, w) in cases {
            let ks: Vec<usize> = if w <= 514 {
                (0..=w).collect()
            } else {
                vec![0, 1, 2, 3, 7, w / 3, w / 2, w - 1, w]
            };
            for k in ks {
                let want: Vec<usize> = (0..k).map(|i| a + (i * w) / k).collect();
                assert_eq!(even_targets(a, a + w, k), want, "a {a}, w {w}, k {k}");
                // A walk that starts mid-way agrees with the tail.
                for first in [k / 3, k / 2, k.saturating_sub(1), k] {
                    let tail: Vec<usize> = EvenTargets::new(a, a + w, k, first).collect();
                    assert_eq!(tail, want[first..], "a {a}, w {w}, k {k}, from {first}");
                }
            }
        }
    }
}
