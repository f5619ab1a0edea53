//! The IR interpreter: executes translated blocks against a vCPU's state
//! and the shared machine.

use crate::runtime::{ExecCtx, Trap};
use crate::state::Flags;
use adbt_ir::{Block, BlockExit, Op, Slot, Src};
use adbt_isa::AluOp;

#[inline]
fn eval(ctx: &ExecCtx<'_>, src: Src) -> u32 {
    match src {
        Src::Imm(imm) => imm,
        Src::Slot(Slot::Reg(r)) => ctx.cpu.regs[r as usize],
        Src::Slot(Slot::Temp(t)) => ctx.cpu.temps[t as usize],
    }
}

#[inline]
fn write(ctx: &mut ExecCtx<'_>, slot: Slot, value: u32) {
    match slot {
        Slot::Reg(r) => ctx.cpu.regs[r as usize] = value,
        Slot::Temp(t) => ctx.cpu.temps[t as usize] = value,
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
/// [`Op::Alu`] ops.
pub fn alu(op: AluOp, a: u32, b: u32, flags: Flags) -> (u32, Flags) {
    let carry_in = flags.c as u64;
    let (result, c, v) = match op {
        AluOp::Add => {
            let wide = a as u64 + b as u64;
            let r = wide as u32;
            (r, wide > u32::MAX as u64, overflow_add(a, b, r))
        }
        AluOp::Adc => {
            let wide = a as u64 + b as u64 + carry_in;
            let r = wide as u32;
            (r, wide > u32::MAX as u64, overflow_add(a, b, r))
        }
        AluOp::Sub => {
            let r = a.wrapping_sub(b);
            (r, a >= b, overflow_sub(a, b, r))
        }
        AluOp::Sbc => {
            let borrow = 1 - carry_in;
            let r = a.wrapping_sub(b).wrapping_sub(borrow as u32);
            (r, (a as u64) >= (b as u64 + borrow), overflow_sub(a, b, r))
        }
        AluOp::Rsb => {
            let r = b.wrapping_sub(a);
            (r, b >= a, overflow_sub(b, a, r))
        }
        AluOp::And => keep_cv(a & b, flags),
        AluOp::Orr => keep_cv(a | b, flags),
        AluOp::Eor => keep_cv(a ^ b, flags),
        AluOp::Bic => keep_cv(a & !b, flags),
        AluOp::Mul => keep_cv(a.wrapping_mul(b), flags),
        AluOp::Lsl => keep_cv(a << (b & 31), flags),
        AluOp::Lsr => keep_cv(a >> (b & 31), flags),
        AluOp::Asr => keep_cv(((a as i32) >> (b & 31)) as u32, flags),
        AluOp::Ror => keep_cv(a.rotate_right(b & 31), flags),
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
fn keep_cv(result: u32, flags: Flags) -> (u32, bool, bool) {
    (result, flags.c, flags.v)
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
    /// [`Op::Yield`] / [`Op::Window`] point; the value is the op index
    /// to resume from.
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

/// Executes a translated block starting at op index `start` (0 for a
/// fresh entry; a [`BlockRun::Paused`] value to resume). Per-block
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
    if start == 0 {
        // Superblocks charge per stitched segment via `Op::Boundary`
        // (so tiered and block-granular runs report identical per-block
        // counters); everything else charges once on entry.
        if !block.superblock {
            ctx.stats.blocks += 1;
            ctx.stats.insns += block.guest_len as u64;
        }
        if ctx.prof.is_some() {
            ctx.prof_enter(block.guest_pc, block.superblock);
        }
        if ctx.cpu.temps.len() < block.temps as usize {
            ctx.cpu.temps.resize(block.temps as usize, 0);
        }
    }

    for (i, op) in block.ops.iter().enumerate().skip(start) {
        match op {
            Op::Mov {
                dst,
                src,
                set_flags,
            } => {
                let v = eval(ctx, *src);
                write(ctx, *dst, v);
                if *set_flags {
                    set_nz(&mut ctx.cpu.flags, v);
                }
            }
            Op::MovNot {
                dst,
                src,
                set_flags,
            } => {
                let v = !eval(ctx, *src);
                write(ctx, *dst, v);
                if *set_flags {
                    set_nz(&mut ctx.cpu.flags, v);
                }
            }
            Op::Alu {
                op,
                dst,
                a,
                b,
                set_flags,
            } => {
                let (result, flags) = alu(*op, eval(ctx, *a), eval(ctx, *b), ctx.cpu.flags);
                if let Some(dst) = dst {
                    write(ctx, *dst, result);
                }
                if *set_flags {
                    ctx.cpu.flags = flags;
                }
            }
            Op::InsertHigh { dst, imm } => {
                let old = eval(ctx, Src::Slot(*dst));
                write(ctx, *dst, (old & 0xffff) | ((*imm as u32) << 16));
            }
            Op::Load { dst, addr, width } => {
                ctx.stats.loads += 1;
                let vaddr = eval(ctx, *addr);
                let v = ctx.load(vaddr, *width)?;
                write(ctx, *dst, v);
            }
            Op::Store {
                src,
                addr,
                width,
                guest_store,
            } => {
                if *guest_store {
                    ctx.stats.stores += 1;
                }
                let vaddr = eval(ctx, *addr);
                let value = eval(ctx, *src);
                ctx.store(vaddr, *width, value, *guest_store)?;
            }
            Op::CasWord {
                dst,
                addr,
                expected,
                new,
            } => {
                let vaddr = eval(ctx, *addr);
                let expected = eval(ctx, *expected);
                let new = eval(ctx, *new);
                let ok = ctx.cas_word(vaddr, expected, new)?;
                write(ctx, *dst, ok as u32);
            }
            Op::Fence => std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst),
            Op::HtableSet { addr } => {
                ctx.stats.htable_sets += 1;
                let vaddr = eval(ctx, *addr);
                ctx.machine.store_test.set(vaddr, ctx.cpu.tid);
                // Under an HTM scheme the hash entry behaves like any
                // other store target: bump its conflict token so open SC
                // transactions observing the entry abort.
                if ctx.machine.htm_enabled {
                    ctx.machine
                        .htm
                        .notify_plain_store(ctx.machine.store_test.htm_token(vaddr));
                }
            }
            Op::Helper { id, args, ret } => {
                ctx.stats.helper_calls += 1;
                // BlockBuilder::push rejects longer argument lists at
                // block-build time, so the fixed buffer cannot truncate.
                let mut buf = [0u32; adbt_ir::MAX_HELPER_ARGS];
                for (slot, arg) in buf.iter_mut().zip(args.iter()) {
                    *slot = eval(ctx, *arg);
                }
                let machine = ctx.machine;
                let helper = &machine.helpers[id.0 as usize];
                let value = helper(ctx, &buf[..args.len()])?;
                if let Some(ret) = ret {
                    write(ctx, *ret, value);
                }
            }
            Op::Yield => {
                ctx.stats.yields += 1;
                if ctx.pause_points {
                    return Ok(BlockRun::Paused(i + 1));
                }
                if ctx.machine.is_threaded() {
                    std::thread::yield_now();
                }
            }
            Op::Window => {
                // No-op outside pause-point granularity; see `Op::Window`.
                if ctx.pause_points {
                    return Ok(BlockRun::Paused(i + 1));
                }
            }
            Op::MonitorArm { dst, addr } => {
                ctx.stats.ll += 1;
                let vaddr = eval(ctx, *addr);
                let value = ctx.load(vaddr, adbt_mmu::Width::Word)?;
                ctx.cpu.monitor.addr = Some(vaddr);
                ctx.cpu.monitor.value = value;
                ctx.note_ll(vaddr);
                write(ctx, *dst, value);
            }
            Op::MonitorScCas { dst, addr, new } => {
                ctx.stats.sc += 1;
                let vaddr = eval(ctx, *addr);
                let new = eval(ctx, *new);
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
                if !ok {
                    ctx.stats.sc_failures += 1;
                }
                ctx.note_sc(vaddr, ok, new);
                write(ctx, *dst, !ok as u32);
            }
            Op::MonitorClear => {
                ctx.cpu.monitor.addr = None;
                ctx.note_clrex();
            }
            Op::AtomicRmw {
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
                let vaddr = eval(ctx, *addr);
                let operand = eval(ctx, *operand);
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
                ctx.note_ll(vaddr);
                ctx.note_sc(vaddr, true, old);
                write(ctx, *dst, old);
            }
            Op::Boundary { insns } => {
                // A stitched original-block boundary inside a superblock:
                // charge the per-block counters the block-granular tier
                // would have charged on dispatch, and split the tiers.
                ctx.stats.blocks += 1;
                ctx.stats.insns += *insns as u64;
                ctx.stats.tier_blocks += 1;
                ctx.stats.tier_insns += *insns as u64;
                // An open region transaction observes the dispatcher's
                // conflict tokens at every original-block boundary, just
                // as the block-tier dispatch loop does per hop — tiering
                // must not hide the QEMU-inside-the-transaction effect
                // that dooms PICO-HTM (a chained edge can legally enter
                // a superblock while a cross-block transaction is open).
                if let Some(txn) = &mut ctx.txn {
                    ctx.stats.txn_dispatches += 1;
                    (0..8)
                        .try_for_each(|slot| txn.observe(adbt_htm::HtmDomain::engine_token(slot)))
                        .map_err(Trap::HtmAbort)?;
                }
            }
            Op::Safepoint { resume_pc } => {
                // Superblock segment seam: re-map the attribution scope
                // to the stitched segment's original block PC, so
                // charges taken in tier-2 code land on the address a
                // deopt would resume at.
                if ctx.prof.is_some() {
                    ctx.prof_remap(*resume_pc);
                }
                // Interior safepoint poll: a superblock must not delay an
                // exclusive requester longer than one original block.
                let parked = ctx.machine.exclusive.safepoint_for(ctx.cpu.tid);
                ctx.stats.exclusive_ns += parked;
                if parked > 0 {
                    ctx.prof_charge(adbt_profile::Metric::ParkNs, parked);
                    ctx.trace(
                        adbt_trace::TraceKind::SafepointPark,
                        ctx.cpu.pc,
                        parked.min(u32::MAX as u64) as u32,
                    );
                    // The world stopped while we were parked — an
                    // invalidation batch may have retired this superblock
                    // (a store patched one of its stitched pages). State
                    // is architectural at the segment seam, so deopt to
                    // the block-granular tier at the segment about to
                    // run; no stale stitched code executes past a park.
                    if block.invalidated.is_set() {
                        ctx.stats.deopts += 1;
                        ctx.prof_charge(adbt_profile::Metric::Deopt, 1);
                        ctx.trace(adbt_trace::TraceKind::Deopt, *resume_pc, block.guest_pc);
                        return Ok(BlockRun::Done(*resume_pc));
                    }
                }
            }
            Op::SideExit { cond, target } => {
                if ctx.cpu.flags.holds(*cond) {
                    // Deopt: the stitched trace's branch prediction went
                    // the other way. State is architectural, so resuming
                    // in the block-granular tier needs nothing but a PC.
                    ctx.stats.deopts += 1;
                    ctx.prof_charge(adbt_profile::Metric::Deopt, 1);
                    ctx.trace(adbt_trace::TraceKind::Deopt, *target, block.guest_pc);
                    return Ok(BlockRun::Done(*target));
                }
            }
        }
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
        BlockExit::Indirect { target } => eval(ctx, *target),
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
