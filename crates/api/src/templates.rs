//! Corollary 11 builds served from a template of the empty structure.
//!
//! Building an empty Corollary 11 structure is the paper's Θ(n) R-shell
//! initialization on both levels of `X ⊳ (Y ⊳ Z)`: tens of thousands of
//! shell placements at a shard's capacity. The result depends on the seed
//! only through `Y`'s random tape, which the build never draws from. So a
//! [`ListBuilder`](crate::ListBuilder) and its clones share one
//! [`TemplateStore`]: the second build of a size (capacity and slot count)
//! keeps a copy of the empty structure, and every later build of that size
//! clones the copy and installs its own tape
//! ([`install_y_tape`]). A clone copies memory instead of recomputing the
//! shells, and behaves move for move like a fresh build from the same
//! seed.
//!
//! Many structures of one size are built where a `ShardedMap` bulk-loads,
//! grows, splits, merges and restores its shards; each of those builds
//! after the second is a clone. A lone map that only grows builds each size
//! once and keeps no template. Only the Corollary 11 backend uses the
//! store: the single layers build in about a microsecond.

use lll_core::traits::LabelingBuilder;
use lll_embedding::layered::{
    corollary11_builder, install_y_tape, Corollary11, Corollary11Builder,
};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What the store knows about one size it has seen built.
struct Size {
    capacity: usize,
    num_slots: usize,
    fresh_builds: u64,
    cloned_builds: u64,
    /// The empty structure later builds of this size clone, kept at the
    /// second build.
    template: Option<Arc<Corollary11>>,
}

/// One size a [`ListBuilder`](crate::ListBuilder)'s template store has seen
/// built (see [`ListBuilder::template_sizes`](crate::ListBuilder::template_sizes)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemplateSize {
    /// The structure's capacity.
    pub capacity: usize,
    /// The structure's slot count.
    pub num_slots: usize,
    /// Builds of this size that computed the structure.
    pub fresh_builds: u64,
    /// Builds of this size served by cloning the template.
    pub cloned_builds: u64,
    /// Whether the store holds a template of this size.
    pub held: bool,
}

/// The templates shared by a [`ListBuilder`](crate::ListBuilder) and its
/// clones, one per size built at least twice.
#[derive(Default)]
pub(crate) struct TemplateStore {
    /// A leaf lock: a build looks its size up under it, then builds or
    /// clones with the lock released.
    sizes: Mutex<Vec<Size>>,
}

/// How one build is served.
enum Plan {
    /// Clone this template.
    Clone(Arc<Corollary11>),
    /// Compute the structure; keep a copy as the size's template if `keep`.
    Build { keep: bool },
}

impl TemplateStore {
    fn lock(&self) -> MutexGuard<'_, Vec<Size>> {
        // The lock guards plain bookkeeping that no panic leaves half
        // done, so a poisoned lock is still consistent.
        self.sizes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count a build of `capacity` on `num_slots` and decide how to serve
    /// it: a clone if the size has a template, else a fresh build, kept as
    /// the template if the size was built before.
    fn plan(&self, capacity: usize, num_slots: usize) -> Plan {
        let mut sizes = self.lock();
        match sizes.iter_mut().find(|s| (s.capacity, s.num_slots) == (capacity, num_slots)) {
            Some(Size { template: Some(t), cloned_builds, .. }) => {
                *cloned_builds += 1;
                Plan::Clone(Arc::clone(t))
            }
            Some(size) => {
                size.fresh_builds += 1;
                Plan::Build { keep: true }
            }
            None => {
                sizes.push(Size {
                    capacity,
                    num_slots,
                    fresh_builds: 1,
                    cloned_builds: 0,
                    template: None,
                });
                Plan::Build { keep: false }
            }
        }
    }

    /// Keep `template` for its size, unless a concurrent build kept one
    /// first.
    fn keep(&self, capacity: usize, num_slots: usize, template: Corollary11) {
        let template = Arc::new(template);
        let mut sizes = self.lock();
        if let Some(size) =
            sizes.iter_mut().find(|s| (s.capacity, s.num_slots) == (capacity, num_slots))
        {
            size.template.get_or_insert(template);
        }
    }

    /// Every size seen, in the order first built.
    pub(crate) fn sizes(&self) -> Vec<TemplateSize> {
        self.lock()
            .iter()
            .map(|s| TemplateSize {
                capacity: s.capacity,
                num_slots: s.num_slots,
                fresh_builds: s.fresh_builds,
                cloned_builds: s.cloned_builds,
                held: s.template.is_some(),
            })
            .collect()
    }
}

impl fmt::Debug for TemplateStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.sizes()).finish()
    }
}

/// Corollary 11's builder for one seed, serving its builds through a
/// shared [`TemplateStore`]: what [`ListBuilder::build`](crate::ListBuilder::build)
/// hands `Growable` for [`Backend::Corollary11`](crate::Backend::Corollary11).
#[derive(Clone)]
pub(crate) struct TemplatedCorollary11 {
    seed: u64,
    fresh: Corollary11Builder,
    store: Arc<TemplateStore>,
}

impl TemplatedCorollary11 {
    pub(crate) fn new(seed: u64, store: Arc<TemplateStore>) -> Self {
        Self { seed, fresh: corollary11_builder(seed), store }
    }
}

impl LabelingBuilder for TemplatedCorollary11 {
    type Structure = Corollary11;

    fn build(&self, capacity: usize, num_slots: usize) -> Corollary11 {
        match self.store.plan(capacity, num_slots) {
            Plan::Clone(template) => {
                let mut built = Corollary11::clone(&template);
                install_y_tape(&mut built, self.seed);
                built
            }
            Plan::Build { keep } => {
                let built = self.fresh.build(capacity, num_slots);
                if keep {
                    self.store.keep(capacity, num_slots, built.clone());
                }
                built
            }
        }
    }

    fn min_slack(&self) -> f64 {
        self.fresh.min_slack()
    }

    fn expected_cost_hint(&self, capacity: usize) -> f64 {
        self.fresh.expected_cost_hint(capacity)
    }

    fn worst_case_hint(&self, capacity: usize) -> f64 {
        self.fresh.worst_case_hint(capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::ids::ElemId;
    use lll_core::report::{MoveRec, OpReport};
    use lll_core::traits::ListLabeling;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One operation's report: its move log, placement and removal.
    type Outcome = (Vec<MoveRec>, Option<(ElemId, u32)>, Option<(ElemId, u32)>);

    /// Drive `list` through a slow-path-heavy shape seeded by `shape`:
    /// ascending runs of inserts at consecutive ranks from a random start
    /// (200 long at capacity 1,600 and up), each followed by random
    /// deletes, and before it as many as make room, until 3,000 operations
    /// have run. Returns every operation's report and the final layout.
    fn run_shape(list: &mut Corollary11, shape: u64) -> (Vec<Outcome>, Vec<(usize, ElemId)>) {
        let capacity = list.capacity();
        let run = (capacity / 8).clamp(4, 200);
        let mut rng = StdRng::seed_from_u64(shape);
        let mut rep = OpReport::default();
        let mut outcomes = Vec::new();
        let mut next_id = 0;
        while outcomes.len() < 3000 {
            let room = (list.len() + run).saturating_sub(capacity);
            let start = rng.gen_range(0..=list.len() - room);
            let deletes = (0..room).map(|_| None);
            let inserts = (start..start + run).map(Some);
            for op in deletes.chain(inserts).chain((0..run / 4).map(|_| None)) {
                match op {
                    Some(rank) => {
                        list.insert_into(rank, ElemId(next_id), &mut rep);
                        next_id += 1;
                    }
                    None => list.delete_into(rng.gen_range(0..list.len()), &mut rep),
                }
                outcomes.push((rep.moves.clone(), rep.placed, rep.removed));
            }
        }
        (outcomes, list.slots().iter_occupied().collect())
    }

    /// A structure of `capacity` for `seed`, served from a template that
    /// two builds for another seed made.
    fn served_from_template(capacity: usize, seed: u64) -> Corollary11 {
        let store = Arc::new(TemplateStore::default());
        let other = TemplatedCorollary11::new(seed ^ 0x5EED, Arc::clone(&store));
        drop(other.build_default(capacity));
        drop(other.build_default(capacity));
        let built = TemplatedCorollary11::new(seed, Arc::clone(&store)).build_default(capacity);
        let size = TemplateSize {
            capacity,
            num_slots: built.num_slots(),
            fresh_builds: 2,
            cloned_builds: 1,
            held: true,
        };
        assert_eq!(store.sizes(), [size]);
        built
    }

    #[test]
    fn builds_served_from_a_template_match_fresh_builds_op_by_op() {
        for capacity in [64, 2048, 4096] {
            for seed in 0..6 {
                let mut fresh = corollary11_builder(seed).build_default(capacity);
                let (want, want_layout) = run_shape(&mut fresh, 100 + seed);
                let (got, got_layout) =
                    run_shape(&mut served_from_template(capacity, seed), 100 + seed);
                assert_eq!(got.len(), want.len());
                for (op, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g, w, "capacity {capacity}, seed {seed}: op {op} differs");
                }
                assert_eq!(got_layout, want_layout, "capacity {capacity}, seed {seed}");
            }
        }
    }

    #[test]
    fn the_op_shape_tells_seeds_apart() {
        // Random inserts alone cost the same under every seed, so a
        // differential on them could not see a missing tape install. This
        // shape must.
        for capacity in [64, 2048, 4096] {
            let run = |seed| run_shape(&mut corollary11_builder(seed).build_default(capacity), 7).0;
            let (a, b) = (run(0), run(1));
            let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            assert!(differing > 0, "seeds 0 and 1 agree on all {} ops at {capacity}", a.len());
        }
    }
}
