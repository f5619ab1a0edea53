//! Dead-NZCV elimination: clear flag writes no reader can observe.
//!
//! A backward per-flag liveness scan. Flags are live at the block's
//! final exit (whatever successor runs next may read them — flags are
//! architectural state) and at every point control can leave the block
//! early ([`Op::SideExit`], [`Op::Helper`] traps, pause points): each
//! such op makes all four flags live again. Between those points, a
//! flag write whose every written flag is overwritten before any read
//! is dead: the `set_flags` is cleared, and a pure compare
//! (`Op::Alu { dst: None, set_flags }`) whose flags are dead is removed
//! outright.
//!
//! Flag semantics mirror the executor exactly: arithmetic ALU ops
//! (`add`/`adc`/`sub`/`sbc`/`rsb`) write NZCV; logical/shift/multiply
//! ops write only N and Z (C and V are preserved); `mov`/`mvn` write
//! N and Z. `adc`/`sbc` additionally *read* C for their value, whether
//! or not they set flags.

use crate::{AluOp, BlockExit, Op};

/// A set of NZCV flags, tracked independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FlagSet {
    n: bool,
    z: bool,
    c: bool,
    v: bool,
}

const NONE: FlagSet = FlagSet {
    n: false,
    z: false,
    c: false,
    v: false,
};
const ALL: FlagSet = FlagSet {
    n: true,
    z: true,
    c: true,
    v: true,
};
const NZ: FlagSet = FlagSet {
    n: true,
    z: true,
    c: false,
    v: false,
};
const C: FlagSet = FlagSet {
    n: false,
    z: false,
    c: true,
    v: false,
};

impl FlagSet {
    fn union(self, other: FlagSet) -> FlagSet {
        FlagSet {
            n: self.n || other.n,
            z: self.z || other.z,
            c: self.c || other.c,
            v: self.v || other.v,
        }
    }

    fn minus(self, other: FlagSet) -> FlagSet {
        FlagSet {
            n: self.n && !other.n,
            z: self.z && !other.z,
            c: self.c && !other.c,
            v: self.v && !other.v,
        }
    }

    fn intersects(self, other: FlagSet) -> bool {
        (self.n && other.n) || (self.z && other.z) || (self.c && other.c) || (self.v && other.v)
    }
}

/// The flags an ALU op writes when `set_flags` is on.
fn alu_writes(op: AluOp) -> FlagSet {
    match op {
        AluOp::Add | AluOp::Adc | AluOp::Sub | AluOp::Sbc | AluOp::Rsb => ALL,
        AluOp::And
        | AluOp::Orr
        | AluOp::Eor
        | AluOp::Bic
        | AluOp::Mul
        | AluOp::Lsl
        | AluOp::Lsr
        | AluOp::Asr
        | AluOp::Ror => NZ,
    }
}

/// Clears dead flag writes in place; returns the number of eliminations
/// (one per cleared `set_flags`, one per removed pure compare).
pub fn kill_dead_nzcv(ops: &mut Vec<Op>, exit: &BlockExit) -> u64 {
    // Successor blocks may read any flag, so every path out of the
    // block — the final exit included — makes all four live. (The exit's
    // own condition read is subsumed by ALL.)
    let _ = exit;
    let mut live = ALL;
    let mut killed = 0u64;
    // Indices of pure compares whose flags died — removed after the scan.
    let mut remove: Vec<usize> = Vec::new();

    for (i, op) in ops.iter_mut().enumerate().rev() {
        match op {
            Op::Mov { set_flags, .. } | Op::MovNot { set_flags, .. } => {
                if *set_flags {
                    if live.intersects(NZ) {
                        live = live.minus(NZ);
                    } else {
                        *set_flags = false;
                        killed += 1;
                    }
                }
            }
            Op::Alu {
                op: alu_op,
                dst,
                set_flags,
                ..
            } => {
                let reads = match alu_op {
                    AluOp::Adc | AluOp::Sbc => C, // carry-in feeds the value
                    _ => NONE,
                };
                if *set_flags {
                    let writes = alu_writes(*alu_op);
                    if live.intersects(writes) {
                        live = live.minus(writes);
                    } else if dst.is_none() {
                        // A compare/test whose flags nobody reads is a
                        // complete no-op (operand reads are pure).
                        remove.push(i);
                        killed += 1;
                        continue;
                    } else {
                        *set_flags = false;
                        killed += 1;
                    }
                }
                live = live.union(reads);
            }
            // Control can leave the block here (deopt, trap, pause) or
            // the callee can observe vCPU state: everything is live.
            Op::SideExit { .. } | Op::Helper { .. } | Op::Yield | Op::Window => {
                live = ALL;
            }
            // No flag effects.
            Op::InsertHigh { .. }
            | Op::Load { .. }
            | Op::Store { .. }
            | Op::CasWord { .. }
            | Op::Fence
            | Op::HtableSet { .. }
            | Op::MonitorArm { .. }
            | Op::MonitorScCas { .. }
            | Op::MonitorClear
            | Op::AtomicRmw { .. }
            | Op::Boundary { .. }
            | Op::Safepoint { .. } => {}
        }
    }
    // `remove` is in descending index order, so each removal leaves the
    // remaining indices valid.
    for i in remove {
        ops.remove(i);
    }
    killed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cond, Slot, Src};

    fn subs(dst: Option<Slot>) -> Op {
        Op::Alu {
            op: AluOp::Sub,
            dst,
            a: Src::Slot(Slot::Reg(0)),
            b: Src::Imm(1),
            set_flags: true,
        }
    }

    fn exit_ne() -> BlockExit {
        BlockExit::CondJump {
            cond: Cond::Ne,
            taken: 0,
            fallthrough: 4,
        }
    }

    #[test]
    fn overwritten_flags_die() {
        // adds then subs: the adds' NZCV are fully overwritten by the
        // subs before any read.
        let mut ops = vec![
            Op::Alu {
                op: AluOp::Add,
                dst: Some(Slot::Reg(1)),
                a: Src::Imm(1),
                b: Src::Imm(2),
                set_flags: true,
            },
            subs(Some(Slot::Reg(0))),
        ];
        assert_eq!(kill_dead_nzcv(&mut ops, &exit_ne()), 1);
        assert!(matches!(
            ops[0],
            Op::Alu {
                set_flags: false,
                ..
            }
        ));
        assert!(matches!(
            ops[1],
            Op::Alu {
                set_flags: true,
                ..
            }
        ));
    }

    #[test]
    fn logical_writes_do_not_kill_cv() {
        // ands writes only N,Z — the earlier subs' C and V survive to
        // the exit, so the subs keeps its flags.
        let mut ops = vec![
            subs(Some(Slot::Reg(0))),
            Op::Alu {
                op: AluOp::And,
                dst: Some(Slot::Reg(1)),
                a: Src::Slot(Slot::Reg(1)),
                b: Src::Imm(3),
                set_flags: true,
            },
        ];
        assert_eq!(kill_dead_nzcv(&mut ops, &exit_ne()), 0);
    }

    #[test]
    fn dead_compare_is_removed() {
        let mut ops = vec![subs(None), subs(Some(Slot::Reg(0)))];
        assert_eq!(kill_dead_nzcv(&mut ops, &exit_ne()), 1);
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0], Op::Alu { dst: Some(_), .. }));
    }

    #[test]
    fn side_exit_revives_flags() {
        // The first movs' N,Z are read by nothing locally, but a side
        // exit between it and the overwrite hands control (and flags)
        // back to the block tier — nothing may die across it.
        let mut ops = vec![
            Op::Mov {
                dst: Slot::Temp(0),
                src: Src::Imm(0),
                set_flags: true,
            },
            Op::SideExit {
                cond: Cond::Eq,
                target: 0x100,
            },
            subs(Some(Slot::Reg(0))),
        ];
        assert_eq!(kill_dead_nzcv(&mut ops, &exit_ne()), 0);
    }

    #[test]
    fn adc_keeps_carry_live() {
        // subs; adc: the adc's value reads C, so the subs' flags are
        // read even though the adc itself doesn't set flags.
        let mut ops = vec![
            subs(Some(Slot::Reg(0))),
            Op::Alu {
                op: AluOp::Adc,
                dst: Some(Slot::Reg(1)),
                a: Src::Slot(Slot::Reg(1)),
                b: Src::Imm(0),
                set_flags: false,
            },
            subs(Some(Slot::Reg(2))),
        ];
        assert_eq!(kill_dead_nzcv(&mut ops, &exit_ne()), 0);
    }
}
