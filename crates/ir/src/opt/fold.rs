//! Block-local constant folding and propagation.
//!
//! A single forward scan tracking slots with statically-known values.
//! Known values are propagated into operands (`Src::Slot` → `Src::Imm`),
//! and an ALU op whose operands are both immediates — and which does not
//! set flags — is replaced by a `mov` of the folded result. Flag-setting
//! ops are never folded away (the dead-NZCV pass runs first precisely so
//! that ops with unread flags become foldable here).
//!
//! [`Op::Helper`] is a full barrier: helpers receive mutable vCPU state
//! and may rewrite any register or temp, so every known value is
//! dropped.

use crate::{AluOp, Op, Slot, Src};
use std::collections::HashMap;

/// Evaluates a carry-free ALU op over constants, mirroring the
/// executor's semantics exactly (wrapping arithmetic, shift amounts
/// masked to 5 bits). `Adc`/`Sbc` return `None`: their value depends on
/// the dynamic carry flag.
fn eval_alu_value(op: AluOp, a: u32, b: u32) -> Option<u32> {
    Some(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Rsb => b.wrapping_sub(a),
        AluOp::And => a & b,
        AluOp::Orr => a | b,
        AluOp::Eor => a ^ b,
        AluOp::Bic => a & !b,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Lsl => a << (b & 31),
        AluOp::Lsr => a >> (b & 31),
        AluOp::Asr => ((a as i32) >> (b & 31)) as u32,
        AluOp::Ror => a.rotate_right(b & 31),
        AluOp::Adc | AluOp::Sbc => return None,
    })
}

/// Replaces `src` with an immediate if the slot it reads is known.
/// Returns whether a rewrite happened.
fn rewrite(src: &mut Src, known: &HashMap<Slot, u32>) -> bool {
    if let Src::Slot(slot) = src {
        if let Some(&value) = known.get(slot) {
            *src = Src::Imm(value);
            return true;
        }
    }
    false
}

fn imm(src: Src) -> Option<u32> {
    match src {
        Src::Imm(v) => Some(v),
        Src::Slot(_) => None,
    }
}

/// Folds and propagates constants in place; returns the number of ops
/// changed (operand rewrites and op replacements each count the op once).
pub fn fold_constants(ops: &mut [Op]) -> u64 {
    let mut known: HashMap<Slot, u32> = HashMap::new();
    let mut folded = 0u64;

    for op in ops.iter_mut() {
        let mut changed = false;
        match op {
            Op::Mov { dst, src, .. } => {
                changed = rewrite(src, &known);
                match imm(*src) {
                    Some(v) => {
                        known.insert(*dst, v);
                    }
                    None => {
                        known.remove(dst);
                    }
                }
            }
            Op::MovNot { dst, src, .. } => {
                changed = rewrite(src, &known);
                match imm(*src) {
                    Some(v) => {
                        known.insert(*dst, !v);
                    }
                    None => {
                        known.remove(dst);
                    }
                }
            }
            Op::Alu {
                op: alu_op,
                dst,
                a,
                b,
                set_flags,
            } => {
                changed |= rewrite(a, &known);
                changed |= rewrite(b, &known);
                let value = match (imm(*a), imm(*b)) {
                    (Some(a), Some(b)) => eval_alu_value(*alu_op, a, b),
                    _ => None,
                };
                match (value, *set_flags, *dst) {
                    (Some(v), false, Some(d)) => {
                        *op = Op::Mov {
                            dst: d,
                            src: Src::Imm(v),
                            set_flags: false,
                        };
                        known.insert(d, v);
                        changed = true;
                    }
                    _ => {
                        if let Some(d) = dst {
                            known.remove(d);
                        }
                    }
                }
            }
            Op::InsertHigh { dst, imm: hi } => {
                let (d, hi) = (*dst, *hi);
                match known.get(&d).copied() {
                    Some(lo) => {
                        let v = (lo & 0xffff) | ((hi as u32) << 16);
                        *op = Op::Mov {
                            dst: d,
                            src: Src::Imm(v),
                            set_flags: false,
                        };
                        known.insert(d, v);
                        changed = true;
                    }
                    None => {
                        known.remove(&d);
                    }
                }
            }
            Op::Load { dst, addr, .. } => {
                changed = rewrite(addr, &known);
                known.remove(dst);
            }
            Op::Store { src, addr, .. } => {
                changed |= rewrite(src, &known);
                changed |= rewrite(addr, &known);
            }
            Op::CasWord {
                dst,
                addr,
                expected,
                new,
            } => {
                changed |= rewrite(addr, &known);
                changed |= rewrite(expected, &known);
                changed |= rewrite(new, &known);
                known.remove(dst);
            }
            Op::HtableSet { addr } => {
                changed = rewrite(addr, &known);
            }
            Op::Helper { args, ret, .. } => {
                for arg in args.iter_mut() {
                    changed |= rewrite(arg, &known);
                }
                let _ = ret;
                // Helpers take the whole vCPU mutably: any slot may change.
                known.clear();
            }
            Op::MonitorArm { dst, addr } => {
                changed = rewrite(addr, &known);
                known.remove(dst);
            }
            Op::MonitorScCas { dst, addr, new } => {
                changed |= rewrite(addr, &known);
                changed |= rewrite(new, &known);
                known.remove(dst);
            }
            Op::AtomicRmw {
                dst, addr, operand, ..
            } => {
                changed |= rewrite(addr, &known);
                changed |= rewrite(operand, &known);
                known.remove(dst);
            }
            Op::Fence | Op::Yield | Op::Window | Op::MonitorClear => {}
        }
        if changed {
            folded += 1;
        }
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mov(dst: Slot, v: u32) -> Op {
        Op::Mov {
            dst,
            src: Src::Imm(v),
            set_flags: false,
        }
    }

    #[test]
    fn propagates_through_alu_chains() {
        // t0 = 5; t1 = t0 + 2; t2 = t1 << 4 — all fold to movs.
        let mut ops = vec![
            mov(Slot::Temp(0), 5),
            Op::Alu {
                op: AluOp::Add,
                dst: Some(Slot::Temp(1)),
                a: Src::Slot(Slot::Temp(0)),
                b: Src::Imm(2),
                set_flags: false,
            },
            Op::Alu {
                op: AluOp::Lsl,
                dst: Some(Slot::Temp(2)),
                a: Src::Slot(Slot::Temp(1)),
                b: Src::Imm(4),
                set_flags: false,
            },
        ];
        assert_eq!(fold_constants(&mut ops), 2);
        assert_eq!(ops[1], mov(Slot::Temp(1), 7));
        assert_eq!(ops[2], mov(Slot::Temp(2), 7 << 4));
    }

    #[test]
    fn movw_movt_pair_folds() {
        // mov t0, #0x5678; movt t0, #0x1234 → mov t0, #0x12345678.
        let mut ops = vec![
            mov(Slot::Temp(0), 0x5678),
            Op::InsertHigh {
                dst: Slot::Temp(0),
                imm: 0x1234,
            },
        ];
        assert_eq!(fold_constants(&mut ops), 1);
        assert_eq!(ops[1], mov(Slot::Temp(0), 0x1234_5678));
    }

    #[test]
    fn flag_setting_ops_are_not_folded() {
        let mut ops = vec![
            mov(Slot::Reg(0), 1),
            Op::Alu {
                op: AluOp::Sub,
                dst: Some(Slot::Reg(0)),
                a: Src::Slot(Slot::Reg(0)),
                b: Src::Imm(1),
                set_flags: true,
            },
        ];
        // Operand is rewritten (counts once) but the op survives as a
        // flag-setting sub and r0 becomes unknown.
        assert_eq!(fold_constants(&mut ops), 1);
        assert!(matches!(
            ops[1],
            Op::Alu {
                a: Src::Imm(1),
                set_flags: true,
                ..
            }
        ));
    }

    #[test]
    fn carry_dependent_ops_are_not_folded() {
        let mut ops = vec![Op::Alu {
            op: AluOp::Adc,
            dst: Some(Slot::Reg(1)),
            a: Src::Imm(1),
            b: Src::Imm(2),
            set_flags: false,
        }];
        assert_eq!(fold_constants(&mut ops), 0);
    }

    #[test]
    fn helpers_invalidate_everything() {
        let mut ops = vec![
            mov(Slot::Reg(0), 9),
            Op::Helper {
                id: crate::HelperId(0),
                args: vec![],
                ret: None,
            },
            Op::Alu {
                op: AluOp::Add,
                dst: Some(Slot::Reg(1)),
                a: Src::Slot(Slot::Reg(0)),
                b: Src::Imm(1),
                set_flags: false,
            },
        ];
        // Nothing to rewrite after the helper barrier.
        assert_eq!(fold_constants(&mut ops), 0);
        assert!(matches!(
            ops[2],
            Op::Alu {
                a: Src::Slot(Slot::Reg(0)),
                ..
            }
        ));
    }

    #[test]
    fn store_operands_are_rewritten() {
        let mut ops = vec![
            mov(Slot::Temp(0), 0x40),
            Op::Store {
                src: Src::Slot(Slot::Temp(0)),
                addr: Src::Slot(Slot::Temp(0)),
                width: crate::Width::Word,
                guest_store: true,
            },
        ];
        assert_eq!(fold_constants(&mut ops), 1);
        assert!(matches!(
            ops[1],
            Op::Store {
                src: Src::Imm(0x40),
                addr: Src::Imm(0x40),
                ..
            }
        ));
    }
}
