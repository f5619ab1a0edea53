//! HST store-instrumentation coalescing.
//!
//! HST-family lowering marks the store-test hash table inline
//! ([`Op::HtableSet`]) from two places: every architectural guest store,
//! and every LL (where the mark immediately precedes the
//! [`Op::MonitorArm`] that arms the monitor). Within one block a loop
//! body unrolled into straight-line code can re-mark the same address
//! several times; only the last writer's id matters to the table, so
//! duplicates are pure overhead.
//!
//! **Legality.** Only *LL-origin* marks — an `HtableSet` immediately
//! followed by a `MonitorArm` on the same address operand — are ever
//! removed, and only when an earlier mark to the same (un-redefined)
//! operand is still in force. The LL-origin mark exists to make this
//! vCPU's *own* later SC observe a conflict if someone else marks in
//! between; dropping a re-mark can therefore only make this vCPU's own
//! SC fail spuriously, which LL/SC architecturally permits. A
//! *store-origin* mark is different: it is what lets a *competitor's*
//! SC detect this vCPU's plain store, so removing one would be an
//! interleaving-visible atomicity violation for the strong schemes —
//! store-origin marks are never candidates, structurally, because the
//! pattern match requires the trailing `MonitorArm`.
//!
//! The pass is gated per scheme (see
//! `AtomicScheme::coalesce_htable_marks` in the engine): schemes whose
//! checker-verified interleaving atoms depend on every mark keep it off.
//!
//! Invalidation: a mark is tracked by its address operand ([`Src`]);
//! any op that writes the slot the operand reads drops the tracking
//! entry (the operand may now name a different address), and a
//! [`Op::Helper`] drops all of them.

use crate::{Op, Slot, Src};
use std::collections::HashSet;

fn written_slot(op: &Op) -> Option<Slot> {
    match op {
        Op::Mov { dst, .. }
        | Op::MovNot { dst, .. }
        | Op::InsertHigh { dst, .. }
        | Op::Load { dst, .. }
        | Op::CasWord { dst, .. }
        | Op::MonitorArm { dst, .. }
        | Op::MonitorScCas { dst, .. }
        | Op::AtomicRmw { dst, .. } => Some(*dst),
        Op::Alu { dst, .. } => *dst,
        Op::Helper { ret, .. } => *ret,
        Op::Store { .. }
        | Op::Fence
        | Op::HtableSet { .. }
        | Op::Yield
        | Op::Window
        | Op::MonitorClear => None,
    }
}

/// Removes duplicate LL-origin hash-table marks in place; returns the
/// number of `HtableSet` ops removed.
pub fn coalesce_htable_marks(ops: &mut Vec<Op>) -> u64 {
    let mut marked: HashSet<Src> = HashSet::new();
    let mut remove: Vec<usize> = Vec::new();

    for i in 0..ops.len() {
        if let Op::HtableSet { addr } = ops[i] {
            let ll_origin = matches!(
                ops.get(i + 1),
                Some(Op::MonitorArm { addr: next, .. }) if *next == addr
            );
            if ll_origin && marked.contains(&addr) {
                remove.push(i);
            } else {
                marked.insert(addr);
            }
            continue;
        }
        if matches!(ops[i], Op::Helper { .. }) {
            // A helper may rewrite any slot an operand reads.
            marked.clear();
        }
        if let Some(slot) = written_slot(&ops[i]) {
            marked.remove(&Src::Slot(slot));
        }
    }

    let removed = remove.len() as u64;
    for i in remove.into_iter().rev() {
        ops.remove(i);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(addr: Src) -> Op {
        Op::HtableSet { addr }
    }

    fn arm(addr: Src) -> Op {
        Op::MonitorArm {
            dst: Slot::Temp(0),
            addr,
        }
    }

    #[test]
    fn duplicate_ll_marks_coalesce() {
        // Two LLs of the same address in one block: the second
        // mark is dropped, its monitor arm kept.
        let a = Src::Slot(Slot::Reg(4));
        let mut ops = vec![set(a), arm(a), set(a), arm(a)];
        assert_eq!(coalesce_htable_marks(&mut ops), 1);
        assert_eq!(ops, vec![set(a), arm(a), arm(a)]);
    }

    #[test]
    fn store_origin_marks_are_never_removed() {
        // Bare marks (guest-store instrumentation) repeat — a
        // competitor's SC must still observe every one.
        let a = Src::Slot(Slot::Reg(4));
        let mut ops = vec![set(a), set(a), set(a)];
        assert_eq!(coalesce_htable_marks(&mut ops), 0);
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn ll_mark_after_store_mark_coalesces() {
        // A store-origin mark establishes coverage; a later LL-origin
        // re-mark of the same address is redundant.
        let a = Src::Slot(Slot::Reg(4));
        let mut ops = vec![set(a), arm(a), set(a)];
        // ops[0] is LL-origin (followed by arm); ops[2] is store-origin
        // and stays.
        assert_eq!(coalesce_htable_marks(&mut ops), 0);
        let mut ops = vec![set(a), set(a), arm(a)];
        // ops[0] store-origin establishes the mark; ops[1] is LL-origin
        // and redundant.
        assert_eq!(coalesce_htable_marks(&mut ops), 1);
        assert_eq!(ops, vec![set(a), arm(a)]);
    }

    #[test]
    fn redefining_the_address_slot_invalidates() {
        // r4 changes between the two LLs: the second mark may name a
        // different address and must stay.
        let a = Src::Slot(Slot::Reg(4));
        let mut ops = vec![
            set(a),
            arm(a),
            Op::Mov {
                dst: Slot::Reg(4),
                src: Src::Imm(0x80),
                set_flags: false,
            },
            set(a),
            arm(a),
        ];
        assert_eq!(coalesce_htable_marks(&mut ops), 0);
        assert_eq!(ops.len(), 5);
    }

    #[test]
    fn monitor_arm_dst_invalidates_its_own_slot() {
        // The arm's destination is the address operand of the next LL:
        // tracking must drop it.
        let a = Src::Slot(Slot::Temp(0));
        let mut ops = vec![set(a), arm(a), set(a), arm(a)];
        // arm() writes Temp(0), which `a` reads — second mark survives.
        assert_eq!(coalesce_htable_marks(&mut ops), 0);
    }

    #[test]
    fn helpers_invalidate_everything() {
        let a = Src::Slot(Slot::Reg(4));
        let mut ops = vec![
            set(a),
            arm(a),
            Op::Helper {
                id: crate::HelperId(2),
                args: vec![],
                ret: None,
            },
            set(a),
            arm(a),
        ];
        assert_eq!(coalesce_htable_marks(&mut ops), 0);
    }

    #[test]
    fn immediate_addresses_coalesce_across_unrelated_writes() {
        let a = Src::Imm(0x1000);
        let mut ops = vec![
            set(a),
            arm(a),
            Op::Mov {
                dst: Slot::Reg(1),
                src: Src::Imm(7),
                set_flags: false,
            },
            set(a),
            arm(a),
        ];
        assert_eq!(coalesce_htable_marks(&mut ops), 1);
    }
}
