//! Opaque element identities.
//!
//! List-labeling algorithms treat stored elements as black boxes (paper §2:
//! "the only information that it knows about the elements is their relative
//! ranks"). An [`ElemId`] is that black box: a unique, copyable token that
//! the *caller* hands to each insertion and that comes back in move logs.
//! Structures store ids; they never allocate them.

use std::fmt;

/// A unique identity for one stored element.
///
/// The low 32 bits are a slab index and the high 32 bits a generation:
/// [`Growable`](crate::growable::Growable) reuses the index of a deleted
/// element under the next generation, so callers can keep per-element data
/// in a `Vec` indexed by [`index`](Self::index) while no live element, and
/// no deleted one a structure may still track, ever shares a whole id with
/// another. Equality/ordering on `ElemId` is identity only — it says
/// nothing about element rank.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElemId(pub u64);

impl ElemId {
    /// Sentinel for "no element" in packed slot storage (the
    /// [`SlotArray`](crate::slot_array::SlotArray) contents array stores
    /// bare `ElemId`s at 8 bytes per slot instead of 16-byte
    /// `Option<ElemId>`s). Its index, `u32::MAX`, is never issued.
    pub const NONE: ElemId = ElemId(u64::MAX);

    /// The id with the given slab index and generation.
    #[inline]
    pub fn new(index: u32, generation: u32) -> Self {
        ElemId(u64::from(generation) << 32 | u64::from(index))
    }

    /// The slab index (low 32 bits).
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }

    /// The generation (high 32 bits).
    #[inline]
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl fmt::Debug for ElemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for ElemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Monotone id allocator for callers that drive a fixed-capacity structure
/// directly: tests, experiments, and the embedding's R-shell, whose
/// elements are slots rather than stored elements.
#[derive(Clone, Debug, Default)]
pub struct IdGen {
    next: u64,
}

impl IdGen {
    /// Create a generator starting at id 0.
    pub fn new() -> Self {
        Self { next: 0 }
    }

    /// Allocate the next fresh id.
    #[inline]
    pub fn fresh(&mut self) -> ElemId {
        let id = ElemId(self.next);
        self.next += 1;
        id
    }

    /// `count` fresh ids, in allocation order.
    pub fn fresh_n(&mut self, count: usize) -> Vec<ElemId> {
        (0..count).map(|_| self.fresh()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_fresh_and_monotone() {
        let mut g = IdGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert_ne!(a, b);
        assert!(a < b);
        assert_eq!(g.fresh_n(2), [ElemId(2), ElemId(3)]);
    }

    #[test]
    fn index_and_generation_split_the_id() {
        let id = ElemId::new(7, 3);
        assert_eq!((id.index(), id.generation()), (7, 3));
        assert_eq!(ElemId(5).index(), 5);
        assert_eq!(ElemId(5).generation(), 0);
        assert_eq!(ElemId::NONE.index(), u32::MAX as usize);
    }

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", ElemId(7)), "e7");
        assert_eq!(format!("{}", ElemId(7)), "e7");
    }
}
