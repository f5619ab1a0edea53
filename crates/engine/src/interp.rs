//! The block executor: runs a translated block's pre-decoded tape
//! ([`adbt_ir::Tape`]) against a vCPU's slot file and the shared
//! machine.
//!
//! Each entry kind's semantics live in one place: ALU values in
//! [`alu_value`] (flags in [`alu`]), memory in `ExecCtx::{load, store,
//! cas_word, atomic_rmw}`, instrumentation in the helper registry.

use crate::runtime::{ExecCtx, Trap};
use crate::state::Flags;
use adbt_ir::{slot_index, Block, BlockExit, Entry, Src, Val, REG_SLOTS};
use adbt_isa::AluOp;
use adbt_trace::TraceKind;

#[inline(always)]
fn val(slots: &[u32], v: Val) -> u32 {
    match v {
        Val::Slot(index) => slots[index as usize],
        Val::Imm(bytes) => u32::from_le_bytes(bytes),
    }
}

/// Computes an ALU operation's result alone — the one definition of
/// every op's value, which [`alu`] builds its flags around. `carry` is
/// the C flag `adc`/`sbc` consume; every other op ignores it.
///
/// Shift amounts are masked to 5 bits.
// Always inlined: each flagless ALU kind's executor arm passes a
// constant `op`, and inlining is what folds this match, and the unused
// carry load, away.
#[inline(always)]
pub fn alu_value(op: AluOp, a: u32, b: u32, carry: bool) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Adc => a.wrapping_add(b).wrapping_add(carry as u32),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sbc => a.wrapping_sub(b).wrapping_sub(!carry as u32),
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
    }
}

/// Computes an ALU operation with ARM flag semantics.
///
/// Arithmetic ops (`add`/`adc`/`sub`/`sbc`/`rsb`) produce full NZCV;
/// logical, multiply and shift ops update N and Z and preserve C and V
/// (a simplification of ARM's shifter-carry rules, consistent across all
/// schemes so it cannot bias comparisons).
///
/// Public for property tests; guest code reaches it through translated
/// [`adbt_ir::Op::Alu`] ops.
pub fn alu(op: AluOp, a: u32, b: u32, flags: Flags) -> (u32, Flags) {
    let result = alu_value(op, a, b, flags.c);
    let carry_in = flags.c as u64;
    let (c, v) = match op {
        AluOp::Add => (
            a as u64 + b as u64 > u32::MAX as u64,
            overflow_add(a, b, result),
        ),
        AluOp::Adc => (
            a as u64 + b as u64 + carry_in > u32::MAX as u64,
            overflow_add(a, b, result),
        ),
        AluOp::Sub => (a >= b, overflow_sub(a, b, result)),
        AluOp::Sbc => (
            (a as u64) >= (b as u64 + (1 - carry_in)),
            overflow_sub(a, b, result),
        ),
        AluOp::Rsb => (b >= a, overflow_sub(b, a, result)),
        AluOp::And
        | AluOp::Orr
        | AluOp::Eor
        | AluOp::Bic
        | AluOp::Mul
        | AluOp::Lsl
        | AluOp::Lsr
        | AluOp::Asr
        | AluOp::Ror => (flags.c, flags.v),
    };
    (
        result,
        Flags {
            n: result >> 31 != 0,
            z: result == 0,
            c,
            v,
        },
    )
}

#[inline]
fn overflow_add(a: u32, b: u32, r: u32) -> bool {
    ((a ^ r) & (b ^ r)) >> 31 != 0
}

#[inline]
fn overflow_sub(a: u32, b: u32, r: u32) -> bool {
    ((a ^ b) & (a ^ r)) >> 31 != 0
}

#[inline]
fn set_nz(flags: &mut Flags, value: u32) {
    flags.n = value >> 31 != 0;
    flags.z = value == 0;
}

/// How a (possibly resumable) block execution ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockRun {
    /// The block ran to its exit; the value is the next guest PC.
    Done(u32),
    /// Pause-point granularity only: execution paused at an
    /// [`adbt_ir::Op::Yield`] / [`adbt_ir::Op::Window`] point; the value
    /// is the op index to resume from.
    Paused(usize),
}

/// Executes a translated block and returns the next guest PC — the
/// whole-block entry for callers outside the engine's dispatch loop.
///
/// # Errors
///
/// Propagates traps from memory ops, helpers, syscalls and undefined
/// instructions; the run loop decides what each trap means for the vCPU.
pub fn run_block(ctx: &mut ExecCtx<'_>, block: &Block) -> Result<u32, Trap> {
    match run_block_from(ctx, block, 0)? {
        BlockRun::Done(next_pc) => Ok(next_pc),
        // Pause points only fire for a ctx the deterministic driver set
        // to pause-point granularity; every other ctx runs blocks whole.
        BlockRun::Paused(_) => unreachable!("block paused outside pause-point granularity"),
    }
}

/// Expands to the executor's one `match` on a tape entry: an arm for
/// each flagless ALU kind of [`adbt_ir::alu_kinds!`], which calls
/// [`alu_value`] with that kind's op as a constant, then `$arms`, the
/// arms of every other kind. `$cpu` is the vCPU whose slot file the ALU
/// kinds read and write.
macro_rules! match_entry {
    ([$($op:ident $ri:ident $rr:ident,)*] $entry:expr, $cpu:expr, { $($arms:tt)* }) => {
        match $entry {
            $(
                Entry::$ri { dst, a, imm } => {
                    let cpu = &mut $cpu;
                    let value = alu_value(AluOp::$op, cpu.slots[a as usize], imm, cpu.flags.c);
                    cpu.slots[dst as usize] = value;
                }
                Entry::$rr { dst, a, b } => {
                    let cpu = &mut $cpu;
                    let (a, b) = (cpu.slots[a as usize], cpu.slots[b as usize]);
                    cpu.slots[dst as usize] = alu_value(AluOp::$op, a, b, cpu.flags.c);
                }
            )*
            $($arms)*
        }
    };
}

/// Executes a translated block's tape starting at op index `start` (0
/// for a fresh entry; a [`BlockRun::Paused`] value to resume). Per-block
/// statistics are charged on fresh entry only, so a paused-and-resumed
/// block counts once.
///
/// # Errors
///
/// See [`run_block`].
pub fn run_block_from(
    ctx: &mut ExecCtx<'_>,
    block: &Block,
    start: usize,
) -> Result<BlockRun, Trap> {
    let tape = &block.tape;
    if start == 0 {
        ctx.stats.blocks += 1;
        ctx.stats.insns += block.guest_len as u64;
        if ctx.prof.is_some() {
            ctx.prof_pc = block.guest_pc;
        }
        let slots = REG_SLOTS + block.temps as usize;
        if ctx.cpu.slots.len() < slots {
            ctx.cpu.slots.resize(slots, 0);
        }
    }

    for (i, entry) in tape.entries().iter().enumerate().skip(start) {
        adbt_ir::alu_kinds!(match_entry, *entry, ctx.cpu, {
            Entry::Alu { op, dst, a, b } => {
                let slots = &mut ctx.cpu.slots;
                slots[dst as usize] = alu_value(op, val(slots, a), val(slots, b), ctx.cpu.flags.c);
            }
            Entry::AluFlags { op, dst, a, b } => {
                let cpu = &mut ctx.cpu;
                let (result, flags) = alu(op, val(&cpu.slots, a), val(&cpu.slots, b), cpu.flags);
                cpu.slots[dst as usize] = result;
                cpu.flags = flags;
            }
            Entry::Compare { op, a, b } => {
                let cpu = &mut ctx.cpu;
                cpu.flags = alu(op, val(&cpu.slots, a), val(&cpu.slots, b), cpu.flags).1;
            }
            Entry::Nop => {}
            Entry::Mov { dst, src, flags } => {
                let cpu = &mut ctx.cpu;
                let v = val(&cpu.slots, src);
                cpu.slots[dst as usize] = v;
                if flags {
                    set_nz(&mut cpu.flags, v);
                }
            }
            Entry::MovNot { dst, src, flags } => {
                let cpu = &mut ctx.cpu;
                let v = !val(&cpu.slots, src);
                cpu.slots[dst as usize] = v;
                if flags {
                    set_nz(&mut cpu.flags, v);
                }
            }
            Entry::InsertHigh { dst, imm } => {
                let slot = &mut ctx.cpu.slots[dst as usize];
                *slot = (*slot & 0xffff) | ((imm as u32) << 16);
            }
            Entry::Load { dst, addr, width } => {
                ctx.stats.loads += 1;
                let vaddr = val(&ctx.cpu.slots, addr);
                let v = ctx.load(vaddr, width)?;
                ctx.cpu.slots[dst as usize] = v;
            }
            Entry::StoreWord { src, addr } => {
                ctx.stats.stores += 1;
                let slots = &ctx.cpu.slots;
                let (vaddr, value) = (slots[addr as usize], slots[src as usize]);
                ctx.store(vaddr, adbt_mmu::Width::Word, value, true)?;
            }
            Entry::Store {
                src,
                addr,
                width,
                guest,
            } => {
                if guest {
                    ctx.stats.stores += 1;
                }
                let slots = &ctx.cpu.slots;
                let (vaddr, value) = (val(slots, addr), val(slots, src));
                ctx.store(vaddr, width, value, guest)?;
            }
            Entry::CasWord { dst, args } => {
                let slots = &ctx.cpu.slots;
                let vaddr = val(slots, tape.operand(args, 0));
                let expected = val(slots, tape.operand(args, 1));
                let new = val(slots, tape.operand(args, 2));
                let ok = ctx.cas_word(vaddr, expected, new)?;
                ctx.cpu.slots[dst as usize] = ok as u32;
            }
            Entry::Fence => std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst),
            Entry::HtableSet { addr } => {
                ctx.stats.htable_sets += 1;
                let vaddr = val(&ctx.cpu.slots, addr);
                let table = &ctx.machine.store_test;
                if ctx.parallel {
                    table.set(vaddr, ctx.cpu.tid);
                } else {
                    table.set_serial(vaddr, ctx.cpu.tid);
                }
                // Under an HTM scheme the hash entry behaves like any
                // other store target: bump its conflict token so open SC
                // transactions observing the entry abort.
                if ctx.machine.htm_enabled {
                    ctx.notify_plain_store(table.htm_token(vaddr));
                }
            }
            Entry::Helper {
                id,
                ret,
                args,
                argc,
            } => {
                ctx.stats.helper_calls += 1;
                // Lowering rejects longer argument lists, so the fixed
                // buffer cannot truncate.
                let mut buf = [0u32; adbt_ir::MAX_HELPER_ARGS];
                let argv = &mut buf[..argc as usize];
                for (k, arg) in argv.iter_mut().enumerate() {
                    *arg = val(&ctx.cpu.slots, tape.operand(args, k));
                }
                let machine = ctx.machine;
                let helper = &machine.helpers[id.0 as usize];
                let value = helper(ctx, argv)?;
                if let Some(ret) = ret {
                    ctx.cpu.slots[ret as usize] = value;
                }
            }
            Entry::Yield => {
                ctx.stats.yields += 1;
                if ctx.pause_points {
                    return Ok(BlockRun::Paused(i + 1));
                }
                if ctx.machine.is_threaded() {
                    std::thread::yield_now();
                }
            }
            Entry::Window => {
                // No-op outside pause-point granularity; see `Op::Window`.
                if ctx.pause_points {
                    return Ok(BlockRun::Paused(i + 1));
                }
            }
            Entry::MonitorArm { dst, addr } => {
                ctx.stats.ll += 1;
                let vaddr = val(&ctx.cpu.slots, addr);
                let value = ctx.load(vaddr, adbt_mmu::Width::Word)?;
                ctx.cpu.monitor.addr = Some(vaddr);
                ctx.cpu.monitor.value = value;
                ctx.trace(TraceKind::LlIssue, vaddr, 0);
                ctx.cpu.slots[dst as usize] = value;
            }
            Entry::MonitorScCas { dst, addr, new } => {
                ctx.stats.sc += 1;
                let (vaddr, new) = (val(&ctx.cpu.slots, addr), val(&ctx.cpu.slots, new));
                // Injected spurious SC failure (architecturally legal on
                // ARM). Sits here rather than in `cas_word`, which also
                // serves plain guest CAS — those must never fail spuriously.
                let ok = if ctx.chaos_sc_fail() {
                    false
                } else {
                    match ctx.cpu.monitor.addr {
                        Some(armed) if armed == vaddr => {
                            let expected = ctx.cpu.monitor.value;
                            ctx.cas_word(vaddr, expected, new)?
                        }
                        _ => false,
                    }
                };
                ctx.cpu.monitor.addr = None;
                ctx.note_sc(vaddr, ok, new);
                ctx.cpu.slots[dst as usize] = !ok as u32;
            }
            Entry::MonitorClear => {
                ctx.cpu.monitor.addr = None;
                ctx.note_clrex();
            }
            Entry::AtomicRmw {
                dst,
                op,
                addr,
                operand,
            } => {
                // One fused host atomic replaces a whole LL/SC retry
                // loop; count it as the LL + SC it stands for so the
                // instruction profile stays comparable.
                ctx.stats.ll += 1;
                ctx.stats.sc += 1;
                ctx.stats.fused_rmws += 1;
                let vaddr = val(&ctx.cpu.slots, addr);
                let operand = val(&ctx.cpu.slots, operand);
                let kind = match op {
                    adbt_ir::RmwOp::Add => adbt_mmu::RmwKind::Add,
                    adbt_ir::RmwOp::Sub => adbt_mmu::RmwKind::Sub,
                    adbt_ir::RmwOp::And => adbt_mmu::RmwKind::And,
                    adbt_ir::RmwOp::Or => adbt_mmu::RmwKind::Or,
                    adbt_ir::RmwOp::Xor => adbt_mmu::RmwKind::Xor,
                };
                let old = ctx.atomic_rmw(vaddr, kind, operand)?;
                // A fused RMW is an LL immediately followed by an SC
                // that cannot fail — report it as that pair.
                ctx.trace(TraceKind::LlIssue, vaddr, 0);
                ctx.note_sc(vaddr, true, old);
                ctx.cpu.slots[dst as usize] = old;
            }
            Entry::Operands(_) => unreachable!("the operand pool lies past the op entries"),
        });
    }

    let next_pc = match &block.exit {
        BlockExit::Jump(target) => *target,
        BlockExit::CondJump {
            cond,
            taken,
            fallthrough,
        } => {
            if ctx.cpu.flags.holds(*cond) {
                *taken
            } else {
                *fallthrough
            }
        }
        BlockExit::Indirect { target } => match *target {
            Src::Slot(slot) => ctx.cpu.slots[slot_index(slot) as usize],
            Src::Imm(imm) => imm,
        },
        BlockExit::Svc { num, ret_addr } => {
            ctx.syscall(*num)?;
            *ret_addr
        }
        BlockExit::Undefined { addr, info } => {
            return Err(Trap::Undefined {
                addr: *addr,
                info: *info,
            })
        }
    };
    Ok(BlockRun::Done(next_pc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AtomicScheme, Atomicity, HelperRegistry, MachineConfig, MachineCore, Vcpu};
    use adbt_ir::{BlockBuilder, Op, Slot};

    /// A scheme with no LL/SC lowering: the block below uses none.
    struct Plain;

    impl AtomicScheme for Plain {
        fn name(&self) -> &'static str {
            "plain"
        }
        fn atomicity(&self) -> Atomicity {
            Atomicity::Incorrect
        }
        fn install(&mut self, _: &mut HelperRegistry) {}
        fn lower_ll(&self, _: &mut BlockBuilder, _: Slot, _: Src) {}
        fn lower_sc(&self, _: &mut BlockBuilder, _: Slot, _: Src, _: Src) {}
        fn lower_clrex(&self, _: &mut BlockBuilder) {}
    }

    #[test]
    fn pause_points_stop_and_resume_to_the_whole_block_state() {
        let mut b = BlockBuilder::new(0x1000);
        let t = b.temp();
        let r3 = Slot::Reg(3);
        b.push(Op::Mov {
            dst: t,
            src: Src::Imm(5),
            set_flags: false,
        });
        b.push(Op::Window);
        // The temp written before the pause is read after it.
        b.push(Op::Alu {
            op: AluOp::Add,
            dst: Some(r3),
            a: Src::Slot(t),
            b: Src::Imm(1),
            set_flags: false,
        });
        b.push(Op::Store {
            src: Src::Slot(r3),
            addr: Src::Imm(0x4000),
            width: adbt_mmu::Width::Word,
            guest_store: true,
        });
        b.push(Op::Yield);
        b.push(Op::Alu {
            op: AluOp::Mul,
            dst: Some(r3),
            a: Src::Slot(r3),
            b: Src::Imm(3),
            set_flags: true,
        });
        let block = b.finish(BlockExit::Jump(0x2000), 4);

        let run = |pause_points: bool, stops: &[usize]| {
            let machine = MachineCore::new(MachineConfig::default(), Box::new(Plain)).unwrap();
            let mut ctx = ExecCtx::new(Vcpu::new(1, 0x1000), &machine, 1);
            ctx.pause_points = pause_points;
            let mut start = 0;
            for &stop in stops {
                assert_eq!(
                    run_block_from(&mut ctx, &block, start),
                    Ok(BlockRun::Paused(stop))
                );
                start = stop;
            }
            assert_eq!(
                run_block_from(&mut ctx, &block, start),
                Ok(BlockRun::Done(0x2000))
            );
            let stored = machine.space.mem().load(0x4000, adbt_mmu::Width::Word);
            (
                ctx.cpu.reg(3),
                ctx.cpu.flags,
                stored,
                ctx.stats.without_wall_clock(),
            )
        };
        // Paused after the window (op 1) and the yield (op 4), resuming
        // at the next op each time; per-block counters charge once.
        let paused = run(true, &[2, 5]);
        let whole = run(false, &[]);
        assert_eq!(paused, whole);
        assert_eq!((paused.0, paused.2), (18, 6));
        assert_eq!(
            (
                paused.3.blocks,
                paused.3.insns,
                paused.3.yields,
                paused.3.stores
            ),
            (1, 4, 1, 1)
        );
    }

    fn f(n: bool, z: bool, c: bool, v: bool) -> Flags {
        Flags { n, z, c, v }
    }

    #[test]
    fn add_carry_and_overflow() {
        let (r, fl) = alu(AluOp::Add, u32::MAX, 1, Flags::default());
        assert_eq!(r, 0);
        assert!(fl.z && fl.c && !fl.v);

        let (r, fl) = alu(AluOp::Add, i32::MAX as u32, 1, Flags::default());
        assert_eq!(r, 0x8000_0000);
        assert!(fl.n && !fl.c && fl.v);
    }

    #[test]
    fn sub_carry_is_not_borrow() {
        // ARM: C set when no borrow (a >= b unsigned).
        let (r, fl) = alu(AluOp::Sub, 5, 3, Flags::default());
        assert_eq!(r, 2);
        assert!(fl.c && !fl.n && !fl.z && !fl.v);

        let (r, fl) = alu(AluOp::Sub, 3, 5, Flags::default());
        assert_eq!(r, (-2i32) as u32);
        assert!(!fl.c && fl.n);

        // Signed overflow: INT_MIN - 1.
        let (_, fl) = alu(AluOp::Sub, 0x8000_0000, 1, Flags::default());
        assert!(fl.v);
    }

    #[test]
    fn adc_sbc_use_carry_in() {
        let (r, _) = alu(AluOp::Adc, 1, 2, f(false, false, true, false));
        assert_eq!(r, 4);
        let (r, _) = alu(AluOp::Adc, 1, 2, Flags::default());
        assert_eq!(r, 3);
        // SBC with carry set = plain subtraction.
        let (r, _) = alu(AluOp::Sbc, 10, 3, f(false, false, true, false));
        assert_eq!(r, 7);
        // SBC with carry clear subtracts one more.
        let (r, _) = alu(AluOp::Sbc, 10, 3, Flags::default());
        assert_eq!(r, 6);
    }

    #[test]
    fn rsb_reverses_operands() {
        let (r, fl) = alu(AluOp::Rsb, 3, 10, Flags::default());
        assert_eq!(r, 7);
        assert!(fl.c);
    }

    #[test]
    fn logical_ops_preserve_cv() {
        let before = f(false, false, true, true);
        let (r, fl) = alu(AluOp::And, 0b1100, 0b1010, before);
        assert_eq!(r, 0b1000);
        assert!(fl.c && fl.v && !fl.z && !fl.n);
        let (_, fl) = alu(AluOp::Eor, 7, 7, before);
        assert!(fl.z && fl.c && fl.v);
    }

    #[test]
    fn shifts_mask_amount() {
        let (r, _) = alu(AluOp::Lsl, 1, 4, Flags::default());
        assert_eq!(r, 16);
        let (r, _) = alu(AluOp::Lsl, 1, 32, Flags::default()); // 32 & 31 == 0
        assert_eq!(r, 1);
        let (r, _) = alu(AluOp::Asr, 0x8000_0000, 31, Flags::default());
        assert_eq!(r, u32::MAX);
        let (r, _) = alu(AluOp::Ror, 0x1, 1, Flags::default());
        assert_eq!(r, 0x8000_0000);
    }

    #[test]
    fn bic_clears_bits() {
        let (r, _) = alu(AluOp::Bic, 0b1111, 0b0101, Flags::default());
        assert_eq!(r, 0b1010);
    }
}
