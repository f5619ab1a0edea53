//! The translator frontend: decodes guest instructions and lowers them
//! to IR, invoking the machine's scheme hooks for LL/SC and store
//! instrumentation.

use crate::runtime::{ExecCtx, Trap};
use adbt_ir::{Block, BlockBuilder, BlockExit, Op, Slot, Src};
use adbt_isa::{decode, Address, Cond, Insn, Operand2, Width as IsaWidth, INSN_SIZE};
use adbt_mmu::Width;

/// Converts the ISA's access width to the MMU's.
pub(crate) fn mmu_width(width: IsaWidth) -> Width {
    match width {
        IsaWidth::Byte => Width::Byte,
        IsaWidth::Half => Width::Half,
        IsaWidth::Word => Width::Word,
    }
}

/// Translates one guest basic block starting at `pc`.
///
/// The block ends at the first control-transfer instruction, at a decode
/// failure (which becomes its own single-instruction block reporting
/// [`BlockExit::Undefined`]), or after `max_block_insns` instructions.
///
/// # Errors
///
/// Traps only if instruction *fetch* faults unrecoverably (data-side
/// faults are runtime events, not translation events).
pub fn translate(
    ctx: &mut ExecCtx<'_>,
    pc: u32,
    scheme: &std::sync::Arc<dyn crate::scheme::AtomicScheme>,
) -> Result<Block, Trap> {
    ctx.stats.translations += 1;
    let max_insns = ctx.machine.config.max_block_insns.max(1);
    let mut b = BlockBuilder::new(pc);
    let mut cur = pc;
    let mut count = 0u32;

    loop {
        let word = ctx.fetch_word(cur)?;
        let insn = match decode(word) {
            Ok(insn) => insn,
            Err(_) if count == 0 => {
                return Ok(b.finish(
                    BlockExit::Undefined {
                        addr: cur,
                        info: word,
                    },
                    1,
                ));
            }
            Err(_) => {
                // End the block before the bad instruction; it will get
                // its own block (and a clean fault report) if reached.
                return Ok(b.finish(BlockExit::Jump(cur), count));
            }
        };
        b.set_current_pc(cur);
        count += 1;
        let next = cur.wrapping_add(INSN_SIZE);

        match insn {
            Insn::Alu {
                op,
                rd,
                rn,
                op2,
                set_flags,
            } => {
                let b2 = lower_op2(&mut b, op2);
                b.push(Op::Alu {
                    op,
                    dst: Some(Slot::Reg(rd.index())),
                    a: Src::Slot(Slot::Reg(rn.index())),
                    b: b2,
                    set_flags,
                });
            }
            Insn::Mov { rd, op2, set_flags } => {
                let src = lower_op2(&mut b, op2);
                b.push(Op::Mov {
                    dst: Slot::Reg(rd.index()),
                    src,
                    set_flags,
                });
            }
            Insn::Mvn { rd, op2, set_flags } => {
                let src = lower_op2(&mut b, op2);
                b.push(Op::MovNot {
                    dst: Slot::Reg(rd.index()),
                    src,
                    set_flags,
                });
            }
            Insn::Cmp { rn, op2 } => lower_compare(&mut b, adbt_isa::AluOp::Sub, rn, op2),
            Insn::Cmn { rn, op2 } => lower_compare(&mut b, adbt_isa::AluOp::Add, rn, op2),
            Insn::Tst { rn, op2 } => lower_compare(&mut b, adbt_isa::AluOp::And, rn, op2),
            Insn::Teq { rn, op2 } => lower_compare(&mut b, adbt_isa::AluOp::Eor, rn, op2),
            Insn::Movw { rd, imm } => b.push(Op::Mov {
                dst: Slot::Reg(rd.index()),
                src: Src::Imm(imm as u32),
                set_flags: false,
            }),
            Insn::Movt { rd, imm } => b.push(Op::InsertHigh {
                dst: Slot::Reg(rd.index()),
                imm,
            }),
            Insn::Ldr { rd, addr, width } => {
                let addr = lower_address(&mut b, addr);
                b.push(Op::Load {
                    dst: Slot::Reg(rd.index()),
                    addr,
                    width: mmu_width(width),
                });
            }
            Insn::Str { rs, addr, width } => {
                let addr = lower_address(&mut b, addr);
                scheme.lower_store(
                    &mut b,
                    Src::Slot(Slot::Reg(rs.index())),
                    addr,
                    mmu_width(width),
                );
            }
            Insn::Ldrex { rd, rn } => {
                // Rule-based translation (paper §VI): recognize the
                // canonical compiler-generated atomic-RMW retry loop and
                // fuse it into one host atomic built-in.
                if ctx.machine.config.fuse_atomics {
                    if let Some(consumed) = try_fuse_rmw(ctx, &mut b, cur, rd, rn)? {
                        count += consumed - 1; // the ldrex itself is counted
                        cur = cur.wrapping_add(consumed * INSN_SIZE);
                        if count >= max_insns {
                            return Ok(b.finish(BlockExit::Jump(cur), count));
                        }
                        continue;
                    }
                }
                b.mark_llsc();
                scheme.lower_ll(
                    &mut b,
                    Slot::Reg(rd.index()),
                    Src::Slot(Slot::Reg(rn.index())),
                );
            }
            Insn::Strex { rd, rs, rn } => {
                b.mark_llsc();
                scheme.lower_sc(
                    &mut b,
                    Slot::Reg(rd.index()),
                    Src::Slot(Slot::Reg(rs.index())),
                    Src::Slot(Slot::Reg(rn.index())),
                );
            }
            Insn::Clrex => scheme.lower_clrex(&mut b),
            Insn::Dmb => b.push(Op::Fence),
            Insn::Yield => b.push(Op::Yield),
            Insn::Nop => {}
            Insn::B { cond, offset: _ } => {
                let target = insn.branch_target(cur).expect("B has a target");
                let exit = if cond == Cond::Al {
                    BlockExit::Jump(target)
                } else {
                    BlockExit::CondJump {
                        cond,
                        taken: target,
                        fallthrough: next,
                    }
                };
                return Ok(b.finish(exit, count));
            }
            Insn::Bl { offset: _ } => {
                let target = insn.branch_target(cur).expect("BL has a target");
                b.push(Op::Mov {
                    dst: Slot::Reg(adbt_isa::Reg::LR.index()),
                    src: Src::Imm(next),
                    set_flags: false,
                });
                return Ok(b.finish(BlockExit::Jump(target), count));
            }
            Insn::Bx { rm } => {
                return Ok(b.finish(
                    BlockExit::Indirect {
                        target: Src::Slot(Slot::Reg(rm.index())),
                    },
                    count,
                ));
            }
            Insn::Svc { imm } => {
                return Ok(b.finish(
                    BlockExit::Svc {
                        num: imm,
                        ret_addr: next,
                    },
                    count,
                ));
            }
            Insn::Udf { imm } => {
                return Ok(b.finish(
                    BlockExit::Undefined {
                        addr: cur,
                        info: imm as u32,
                    },
                    count,
                ));
            }
        }

        cur = next;
        if count >= max_insns {
            return Ok(b.finish(BlockExit::Jump(cur), count));
        }
    }
}

/// Attempts to recognize the canonical atomic-RMW retry loop starting at
/// the `ldrex` at `addr`:
///
/// ```text
/// retry:  ldrex rd,  [rn]
///         <op>  rd2, rd, op2        ; add/sub/and/orr/eor, no flags
///         strex rs,  rd2, [rn]
///         cmp   rs,  #0
///         bne   retry
/// ```
///
/// and lower it to a single [`Op::AtomicRmw`] plus the architectural
/// after-state (`rd` = old value, `rd2` = new value, `rs` = 0, flags as
/// the final `cmp rs, #0` leaves them). Returns `Ok(Some(5))` (guest
/// instructions consumed) on a match.
///
/// The rules are conservative: any register aliasing that would change
/// semantics, a flag-setting ALU, a shifted operand, or a branch target
/// other than the `ldrex` makes the pass decline and fall back to the
/// active scheme's LL/SC lowering.
///
/// # Errors
///
/// Propagates instruction-fetch traps from peeking ahead.
fn try_fuse_rmw(
    ctx: &mut ExecCtx<'_>,
    b: &mut BlockBuilder,
    addr: u32,
    rd: adbt_isa::Reg,
    rn: adbt_isa::Reg,
) -> Result<Option<u32>, Trap> {
    use adbt_isa::AluOp;
    let peek = |ctx: &mut ExecCtx<'_>, offset: u32| -> Result<Option<Insn>, Trap> {
        let word = ctx.fetch_word(addr.wrapping_add(offset * INSN_SIZE))?;
        Ok(decode(word).ok())
    };

    // Insn 1: the ALU update.
    let Some(Insn::Alu {
        op,
        rd: rd2,
        rn: alu_a,
        op2,
        set_flags: false,
    }) = peek(ctx, 1)?
    else {
        return Ok(None);
    };
    let rmw = match op {
        AluOp::Add => adbt_ir::RmwOp::Add,
        AluOp::Sub => adbt_ir::RmwOp::Sub,
        AluOp::And => adbt_ir::RmwOp::And,
        AluOp::Orr => adbt_ir::RmwOp::Or,
        AluOp::Eor => adbt_ir::RmwOp::Xor,
        _ => return Ok(None),
    };
    if alu_a != rd || rd2 == rn || rd == rn {
        return Ok(None);
    }
    let operand = match op2 {
        Operand2::Imm(imm) => Src::Imm(imm as u32),
        // A register operand is fine as long as it is not overwritten by
        // the loop itself (rd / rd2) — its value is loop-invariant then.
        Operand2::Reg(rm) if rm != rd && rm != rd2 => Src::Slot(Slot::Reg(rm.index())),
        _ => return Ok(None),
    };

    // Insn 2: the conditional store back to the same address.
    let Some(Insn::Strex {
        rd: rs,
        rs: stored,
        rn: strex_rn,
    }) = peek(ctx, 2)?
    else {
        return Ok(None);
    };
    if strex_rn != rn || stored != rd2 || rs == rd2 || rs == rn {
        return Ok(None);
    }

    // Insn 3: `cmp rs, #0`.
    let Some(Insn::Cmp {
        rn: cmp_rn,
        op2: Operand2::Imm(0),
    }) = peek(ctx, 3)?
    else {
        return Ok(None);
    };
    if cmp_rn != rs {
        return Ok(None);
    }

    // Insn 4: `bne retry` targeting the ldrex.
    let Some(branch @ Insn::B { cond: Cond::Ne, .. }) = peek(ctx, 4)? else {
        return Ok(None);
    };
    if branch.branch_target(addr.wrapping_add(4 * INSN_SIZE)) != Some(addr) {
        return Ok(None);
    }

    // Matched: emit the fused sequence.
    b.mark_llsc();
    b.push(Op::AtomicRmw {
        dst: Slot::Reg(rd.index()),
        op: rmw,
        addr: Src::Slot(Slot::Reg(rn.index())),
        operand,
    });
    // rd2 = new value (recomputed from the returned old value).
    b.push(Op::Alu {
        op,
        dst: Some(Slot::Reg(rd2.index())),
        a: Src::Slot(Slot::Reg(rd.index())),
        b: operand,
        set_flags: false,
    });
    // rs = 0 (the strex succeeded), flags as `cmp #0, #0` leaves them.
    b.push(Op::Mov {
        dst: Slot::Reg(rs.index()),
        src: Src::Imm(0),
        set_flags: false,
    });
    b.push(Op::Alu {
        op: AluOp::Sub,
        dst: None,
        a: Src::Imm(0),
        b: Src::Imm(0),
        set_flags: true,
    });
    Ok(Some(5))
}

/// Lowers a flexible second operand, materializing shifted registers
/// into a temp.
fn lower_op2(b: &mut BlockBuilder, op2: Operand2) -> Src {
    match op2 {
        Operand2::Imm(imm) => Src::Imm(imm as u32),
        Operand2::Reg(rm) => Src::Slot(Slot::Reg(rm.index())),
        Operand2::RegShift { rm, op, amount } => {
            let t = b.temp();
            let alu = match op {
                adbt_isa::ShiftOp::Lsl => adbt_isa::AluOp::Lsl,
                adbt_isa::ShiftOp::Lsr => adbt_isa::AluOp::Lsr,
                adbt_isa::ShiftOp::Asr => adbt_isa::AluOp::Asr,
                adbt_isa::ShiftOp::Ror => adbt_isa::AluOp::Ror,
            };
            b.push(Op::Alu {
                op: alu,
                dst: Some(t),
                a: Src::Slot(Slot::Reg(rm.index())),
                b: Src::Imm(amount as u32),
                set_flags: false,
            });
            Src::Slot(t)
        }
    }
}

fn lower_compare(b: &mut BlockBuilder, op: adbt_isa::AluOp, rn: adbt_isa::Reg, op2: Operand2) {
    let b2 = lower_op2(b, op2);
    b.push(Op::Alu {
        op,
        dst: None,
        a: Src::Slot(Slot::Reg(rn.index())),
        b: b2,
        set_flags: true,
    });
}

/// Lowers an addressing mode to an address-valued [`Src`].
fn lower_address(b: &mut BlockBuilder, addr: Address) -> Src {
    match addr {
        Address::Imm { base, offset: 0 } => Src::Slot(Slot::Reg(base.index())),
        Address::Imm { base, offset } => {
            let t = b.temp();
            b.push(Op::Alu {
                op: adbt_isa::AluOp::Add,
                dst: Some(t),
                a: Src::Slot(Slot::Reg(base.index())),
                b: Src::Imm(offset as i32 as u32),
                set_flags: false,
            });
            Src::Slot(t)
        }
        Address::Reg { base, index } => {
            let t = b.temp();
            b.push(Op::Alu {
                op: adbt_isa::AluOp::Add,
                dst: Some(t),
                a: Src::Slot(Slot::Reg(base.index())),
                b: Src::Slot(Slot::Reg(index.index())),
                set_flags: false,
            });
            Src::Slot(t)
        }
    }
}
