//! Per-operation reports: the move log and derived cost.
//!
//! The paper's cost model (Definition 1): *"The cost of an algorithm is the
//! number of elements moved during the insertions/deletions."* Every
//! structure in this workspace reports each `insert`, `delete` and `splice`
//! as one [`OpReport`]; the report's `moves` are recorded by the
//! [`SlotArray`](crate::slot_array) itself, so the cost cannot be
//! under-reported by an algorithm.
//!
//! Placing a newly inserted element into its slot counts as one move (the
//! element is moved into the array); removing an element counts as zero.

use crate::ids::ElemId;

/// One physical element move from slot `from` to slot `to`.
///
/// Positions are `u32` — arrays of more than 2³² slots are far beyond the
/// scales this library targets, and the smaller record keeps move logs cheap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoveRec {
    /// The element that moved.
    pub elem: ElemId,
    /// Source slot position.
    pub from: u32,
    /// Destination slot position.
    pub to: u32,
}

/// The outcome of one `insert`, `delete` or `splice` on a [`ListLabeling`]
/// structure.
///
/// A splice ([`ListLabeling::splice_into`]) reports only `moves`, its new
/// elements' placements among them: a later move in the same batch may
/// relocate a just-placed element, so time order is the only safe order
/// for label-table maintenance, and `placed` and `removed` stay `None`.
///
/// [`ListLabeling`]: crate::traits::ListLabeling
/// [`ListLabeling::splice_into`]: crate::traits::ListLabeling::splice_into
#[derive(Clone, Debug, Default)]
pub struct OpReport {
    /// Every physical element move performed by this operation, in time
    /// order. The placement of a newly inserted element is included as a
    /// move with `from == to` (the element "moves into" the array).
    pub moves: Vec<MoveRec>,
    /// For insertions: the new element and the slot it ended in.
    pub placed: Option<(ElemId, u32)>,
    /// For deletions: the removed element and the slot it was removed from.
    pub removed: Option<(ElemId, u32)>,
}

impl OpReport {
    /// Reset for reuse, keeping the move buffer's allocation — the
    /// receiving end of the zero-allocation reporting path
    /// ([`ListLabeling::insert_into`](crate::traits::ListLabeling::insert_into)).
    pub fn clear(&mut self) {
        self.moves.clear();
        self.placed = None;
        self.removed = None;
    }

    /// The operation's cost in the paper's model: number of element moves.
    #[inline]
    pub fn cost(&self) -> u64 {
        self.moves.len() as u64
    }

    /// For insertions: the identity of the newly placed element.
    #[inline]
    pub fn placed_elem(&self) -> Option<ElemId> {
        self.placed.map(|(e, _)| e)
    }

    /// For deletions: the identity of the removed element.
    #[inline]
    pub fn removed_elem(&self) -> Option<ElemId> {
        self.removed.map(|(e, _)| e)
    }

    /// `(elem, new_label)` for every element whose label this operation
    /// changed, in time order, then an insertion's placement — exactly the
    /// updates a label table keyed by element must apply, in order. An
    /// element moved several times appears several times; the last entry
    /// wins.
    pub fn label_updates(&self) -> impl Iterator<Item = (ElemId, usize)> + '_ {
        self.moves
            .iter()
            .map(|mv| (mv.elem, mv.to as usize))
            .chain(self.placed.map(|(e, p)| (e, p as usize)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_counts_moves() {
        let mut r = OpReport::default();
        assert_eq!(r.cost(), 0);
        r.moves.push(MoveRec { elem: ElemId(1), from: 0, to: 3 });
        r.moves.push(MoveRec { elem: ElemId(2), from: 3, to: 3 });
        assert_eq!(r.cost(), 2);
    }

    #[test]
    fn accessors_project_the_fields() {
        let mut r = OpReport::default();
        assert_eq!(r.placed_elem(), None);
        assert_eq!(r.removed_elem(), None);
        assert_eq!(r.label_updates().count(), 0);
        r.moves.push(MoveRec { elem: ElemId(1), from: 0, to: 3 });
        r.placed = Some((ElemId(2), 6));
        r.removed = Some((ElemId(3), 1));
        assert_eq!(r.placed_elem(), Some(ElemId(2)));
        assert_eq!(r.removed_elem(), Some(ElemId(3)));
        // label_updates: every move, then the placement, in order.
        let ups: Vec<(ElemId, usize)> = r.label_updates().collect();
        assert_eq!(ups, vec![(ElemId(1), 3), (ElemId(2), 6)]);
    }
}
