//! A block-local IR optimization pipeline.
//!
//! No engine path runs it: the engine has one translation tier, which
//! executes blocks as translated. The benchmark in `e2ebench/` is its
//! only caller (it reports what the passes would eliminate per block);
//! the module goes when that benchmark next changes. Three passes, in a
//! fixed order:
//!
//! 1. **HST mark coalescing** ([`coalesce_htable_marks`]) — first,
//!    because it pattern-matches the raw `HtableSet` + `MonitorArm`
//!    pairs scheme lowering emits, before later rewrites could obscure
//!    adjacency. Gated per scheme via [`OptConfig`].
//! 2. **Dead-NZCV elimination** ([`kill_dead_nzcv`]) — before constant
//!    folding, so clearing a dead `set_flags` unlocks folding of the op
//!    it was attached to (the folder refuses to fold flag-setting ops).
//! 3. **Constant folding/propagation** ([`fold_constants`]) — last,
//!    over whatever straight-line value flow survives.
//!
//! All passes are purely local to one op vector: they never reorder
//! ops, never touch memory-op ordering, and treat [`crate::Op::Helper`]
//! as a full barrier. Legality arguments live with each pass.

mod coalesce;
mod fold;
mod nzcv;

pub use coalesce::coalesce_htable_marks;
pub use fold::fold_constants;
pub use nzcv::kill_dead_nzcv;

use crate::{BlockExit, Op};

/// Per-scheme knobs for the optimizer.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptConfig {
    /// Whether duplicate LL-origin hash-table marks may be coalesced
    /// (see [`coalesce_htable_marks`] for the exact pattern and the
    /// legality argument). Off by default; the HST family opts in.
    pub coalesce_htable_marks: bool,
}

/// What each pass eliminated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Flag writes cleared (or whole compare ops removed) by dead-NZCV
    /// elimination.
    pub nzcv_killed: u64,
    /// Ops rewritten or replaced by constant folding/propagation.
    pub const_folded: u64,
    /// Duplicate LL-origin hash-table marks removed.
    pub htable_coalesced: u64,
}

impl PassStats {
    /// Total eliminations across all passes.
    pub fn total(&self) -> u64 {
        self.nzcv_killed + self.const_folded + self.htable_coalesced
    }
}

/// Runs the full pipeline over one block's ops.
pub fn optimize(ops: &mut Vec<Op>, exit: &BlockExit, cfg: &OptConfig) -> PassStats {
    let mut stats = PassStats::default();
    if cfg.coalesce_htable_marks {
        stats.htable_coalesced = coalesce_htable_marks(ops);
    }
    stats.nzcv_killed = kill_dead_nzcv(ops, exit);
    stats.const_folded = fold_constants(ops);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, Cond, Slot, Src};

    #[test]
    fn pipeline_composes_and_counts() {
        // movs t0, #5 (flags dead: overwritten by the subs below before
        // any read) → flag kill unlocks nothing here, but the subs keeps
        // its flags (read by the exit) while the movs loses its own; the
        // mov then feeds constant folding.
        let mut ops = vec![
            Op::Mov {
                dst: Slot::Temp(0),
                src: Src::Imm(5),
                set_flags: true,
            },
            Op::Alu {
                op: AluOp::Add,
                dst: Some(Slot::Temp(1)),
                a: Src::Slot(Slot::Temp(0)),
                b: Src::Imm(2),
                set_flags: false,
            },
            Op::Alu {
                op: AluOp::Sub,
                dst: Some(Slot::Reg(6)),
                a: Src::Slot(Slot::Reg(6)),
                b: Src::Imm(1),
                set_flags: true,
            },
        ];
        let exit = BlockExit::CondJump {
            cond: Cond::Ne,
            taken: 0,
            fallthrough: 8,
        };
        let stats = optimize(&mut ops, &exit, &OptConfig::default());
        assert_eq!(stats.nzcv_killed, 1, "movs flags die before the subs");
        assert!(stats.const_folded >= 1, "t1 = 5 + 2 folds");
        assert_eq!(
            ops[1],
            Op::Mov {
                dst: Slot::Temp(1),
                src: Src::Imm(7),
                set_flags: false,
            }
        );
        // The subs survives untouched: its flags feed the exit.
        assert!(matches!(
            ops[2],
            Op::Alu {
                set_flags: true,
                ..
            }
        ));
    }
}
