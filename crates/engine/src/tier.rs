//! Tier-2 promotion: stitching hot traces into superblocks.
//!
//! The dispatch loop counts executions per block ([`TranslationCache`]
//! heat); a block crossing the configured threshold is *claimed* by the
//! crossing vCPU, which walks the block's patched chain links to find
//! the dominant successor path and stitches it into one translated unit
//! — a **superblock** — run by the same executor:
//!
//! * every original block boundary becomes an [`Op::Boundary`] (so the
//!   per-block statistics charge exactly as block-granular dispatch
//!   would) and, for interior boundaries, an [`Op::Safepoint`] (so a
//!   stop-the-world requester never waits longer than one original
//!   block);
//! * every interior conditional branch becomes an [`Op::SideExit`]
//!   *deopt*: when the branch goes against the stitched direction,
//!   execution leaves the superblock and resumes in the block-granular
//!   tier at the architectural target — flags, registers and memory are
//!   always architectural, so deopt needs no state reconstruction;
//! * the whole unit then runs once through the `adbt_ir::opt` pipeline.
//!
//! Superblocks are anonymous arena entries reachable only through their
//! entry block's redirect: the PC index and chain links keep resolving
//! original ids, so the block-granular tier remains fully operational
//! (it *is* the deopt target).

use crate::cache::TranslationCache;
use crate::machine::MachineCore;
use crate::runtime::ExecCtx;
use adbt_ir::opt::{self, OptConfig, PassStats};
use adbt_ir::{Block, BlockExit, ExitLinks, Op, Slot, Src, Tape, MAX_TEMPS};
use adbt_trace::TraceKind;

/// What the superblock builder decided.
pub(crate) enum TierBuild {
    /// A superblock was stitched (and optimized). Carries the ids of the
    /// original blocks it covers, so publication can register the
    /// superblock on every constituent code page for SMC invalidation.
    Built(Box<Block>, Vec<u32>, PassStats),
    /// Not enough successor links have been traversed yet (or a
    /// constituent block was invalidated mid-walk): reset the heat and
    /// try again once the chain warms up.
    Retry,
    /// The entry block can never head a superblock (indirect or
    /// service-call exit, un-rebasable temps): stop counting it.
    Never,
}

/// Follows `block`'s patched chain links to its dominant successor id.
/// Conditional exits prefer the *backward* taken leg (the loop latch —
/// the dominant direction of every hot loop), then whichever leg has
/// actually been traversed.
fn dominant_successor(block: &Block) -> Option<u32> {
    match &block.exit {
        BlockExit::Jump(_) => block.links.taken.get(),
        BlockExit::CondJump { taken, .. } => {
            let taken_id = block.links.taken.get();
            let fall_id = block.links.fallthrough.get();
            if taken_id.is_some() && *taken <= block.guest_pc {
                taken_id
            } else if fall_id.is_some() {
                fall_id
            } else {
                taken_id
            }
        }
        // Indirect jumps, service calls and undefined exits end a trace.
        BlockExit::Indirect { .. } | BlockExit::Svc { .. } | BlockExit::Undefined { .. } => None,
    }
}

fn shift_slot(slot: Slot, base: u16) -> Option<Slot> {
    match slot {
        Slot::Temp(t) => t.checked_add(base).map(Slot::Temp),
        reg => Some(reg),
    }
}

fn shift_src(src: Src, base: u16) -> Option<Src> {
    match src {
        Src::Slot(slot) => shift_slot(slot, base).map(Src::Slot),
        imm => Some(imm),
    }
}

/// Rebases a segment's block-local temps by `base` so stitched segments
/// never collide. `None` on u16 overflow (the caller rules the block
/// out rather than risking aliasing; it also caps the total at
/// [`MAX_TEMPS`], the slot file's reach).
fn rebase_temps(op: &Op, base: u16) -> Option<Op> {
    if base == 0 {
        return Some(op.clone());
    }
    let s = |slot: Slot| shift_slot(slot, base);
    let v = |src: Src| shift_src(src, base);
    Some(match op {
        Op::Mov {
            dst,
            src,
            set_flags,
        } => Op::Mov {
            dst: s(*dst)?,
            src: v(*src)?,
            set_flags: *set_flags,
        },
        Op::MovNot {
            dst,
            src,
            set_flags,
        } => Op::MovNot {
            dst: s(*dst)?,
            src: v(*src)?,
            set_flags: *set_flags,
        },
        Op::Alu {
            op,
            dst,
            a,
            b,
            set_flags,
        } => Op::Alu {
            op: *op,
            dst: match dst {
                Some(d) => Some(s(*d)?),
                None => None,
            },
            a: v(*a)?,
            b: v(*b)?,
            set_flags: *set_flags,
        },
        Op::InsertHigh { dst, imm } => Op::InsertHigh {
            dst: s(*dst)?,
            imm: *imm,
        },
        Op::Load { dst, addr, width } => Op::Load {
            dst: s(*dst)?,
            addr: v(*addr)?,
            width: *width,
        },
        Op::Store {
            src,
            addr,
            width,
            guest_store,
        } => Op::Store {
            src: v(*src)?,
            addr: v(*addr)?,
            width: *width,
            guest_store: *guest_store,
        },
        Op::CasWord {
            dst,
            addr,
            expected,
            new,
        } => Op::CasWord {
            dst: s(*dst)?,
            addr: v(*addr)?,
            expected: v(*expected)?,
            new: v(*new)?,
        },
        Op::HtableSet { addr } => Op::HtableSet { addr: v(*addr)? },
        Op::Helper { id, args, ret } => Op::Helper {
            id: *id,
            args: args.iter().map(|a| v(*a)).collect::<Option<Vec<Src>>>()?,
            ret: match ret {
                Some(r) => Some(s(*r)?),
                None => None,
            },
        },
        Op::MonitorArm { dst, addr } => Op::MonitorArm {
            dst: s(*dst)?,
            addr: v(*addr)?,
        },
        Op::MonitorScCas { dst, addr, new } => Op::MonitorScCas {
            dst: s(*dst)?,
            addr: v(*addr)?,
            new: v(*new)?,
        },
        Op::AtomicRmw {
            dst,
            op,
            addr,
            operand,
        } => Op::AtomicRmw {
            dst: s(*dst)?,
            op: *op,
            addr: v(*addr)?,
            operand: v(*operand)?,
        },
        Op::Fence
        | Op::Yield
        | Op::Window
        | Op::MonitorClear
        | Op::Boundary { .. }
        | Op::Safepoint { .. }
        | Op::SideExit { .. } => op.clone(),
    })
}

/// Walks `entry`'s dominant successor path and stitches it into one
/// superblock of at most `limit` original blocks.
///
/// `stop_at_llsc` ends the trace *after* the first LL/SC-bearing block:
/// schemes that keep a cross-block region transaction open from LL to
/// SC (PICO-HTM) must dispatch the blocks inside that window
/// block-granularly, so the per-dispatch engine-token observation — the
/// effect the scheme exists to demonstrate — still happens.
pub(crate) fn build_superblock(
    cache: &TranslationCache,
    entry: u32,
    limit: u32,
    coalesce_htable_marks: bool,
    stop_at_llsc: bool,
    scheme_tag: u8,
) -> TierBuild {
    let mut ids: Vec<u32> = vec![entry];
    loop {
        if ids.len() as u32 >= limit {
            break;
        }
        // A constituent retired by SMC mid-walk drops the whole attempt:
        // the retranslated replacement will warm its own links.
        let Some(cur) = cache.block(*ids.last().expect("non-empty")) else {
            return TierBuild::Retry;
        };
        if stop_at_llsc && cur.has_llsc {
            break;
        }
        match dominant_successor(cur) {
            // Loop closure: the trace bit its own tail; the final exit
            // re-enters through the entry block's redirect.
            Some(next) if ids.contains(&next) => break,
            // A successor lowered under a different scheme (adaptive
            // migration in flight) must not be stitched into this
            // cohort: the walk ends at the scheme boundary and the
            // trace retries once retranslation reconverges.
            Some(next) if cache.scheme_tag(next) != scheme_tag => break,
            Some(next) => ids.push(next),
            None => break,
        }
    }
    if ids.len() < 2 {
        let Some(entry_block) = cache.block(entry) else {
            return TierBuild::Retry;
        };
        // A self-looping block (tight `subs`/`bne` loop) is the hottest
        // shape there is: stitch it as a single-segment superblock so
        // the optimization pipeline still applies. Anything else
        // single-segment either needs its links warmed up (Retry) or
        // can never head a trace (Never).
        if dominant_successor(entry_block) != Some(entry) {
            return match &entry_block.exit {
                BlockExit::Jump(_) | BlockExit::CondJump { .. }
                    if !(stop_at_llsc && entry_block.has_llsc) =>
                {
                    TierBuild::Retry
                }
                _ => TierBuild::Never,
            };
        }
    }

    let mut ops: Vec<Op> = Vec::new();
    let mut temp_base: u16 = 0;
    let mut guest_len: u32 = 0;
    let mut has_llsc = false;
    for (k, &id) in ids.iter().enumerate() {
        let Some(seg) = cache.block(id) else {
            return TierBuild::Retry;
        };
        if k > 0 {
            // Interior boundary: the safepoint bound block-granular
            // dispatch provides, preserved per original block. If an
            // invalidation retires this superblock while a vCPU is
            // parked here, execution deopts to the segment's entry PC.
            ops.push(Op::Safepoint {
                resume_pc: seg.guest_pc,
            });
        }
        ops.push(Op::Boundary {
            insns: seg.guest_len,
        });
        for op in &seg.ops {
            match rebase_temps(op, temp_base) {
                Some(op) => ops.push(op),
                None => return TierBuild::Never,
            }
        }
        let Some(next_base) = temp_base
            .checked_add(seg.temps)
            .filter(|&total| total <= MAX_TEMPS)
        else {
            return TierBuild::Never;
        };
        temp_base = next_base;
        guest_len += seg.guest_len;
        has_llsc |= seg.has_llsc;
        if k + 1 < ids.len() {
            let Some(next) = cache.block(ids[k + 1]) else {
                return TierBuild::Retry;
            };
            let next_pc = next.guest_pc;
            match &seg.exit {
                BlockExit::Jump(target) => debug_assert_eq!(*target, next_pc),
                BlockExit::CondJump {
                    cond,
                    taken,
                    fallthrough,
                } => {
                    // Deopt guard: leave the superblock when the branch
                    // goes against the stitched direction.
                    if next_pc == *taken {
                        ops.push(Op::SideExit {
                            cond: cond.invert(),
                            target: *fallthrough,
                        });
                    } else {
                        debug_assert_eq!(next_pc, *fallthrough);
                        ops.push(Op::SideExit {
                            cond: *cond,
                            target: *taken,
                        });
                    }
                }
                _ => unreachable!("interior segments have chainable exits"),
            }
        }
    }

    let Some(last_block) = cache.block(*ids.last().expect("non-empty")) else {
        return TierBuild::Retry;
    };
    let exit = last_block.exit.clone();
    let passes = opt::optimize(
        &mut ops,
        &exit,
        &OptConfig {
            coalesce_htable_marks,
        },
    );
    let Some(entry_block) = cache.block(entry) else {
        return TierBuild::Retry;
    };
    let (tape, guest_stores) = Tape::lower(&ops);
    TierBuild::Built(
        Box::new(Block {
            guest_pc: entry_block.guest_pc,
            guest_len,
            ops,
            tape,
            exit,
            temps: temp_base,
            guest_stores,
            has_llsc,
            superblock: true,
            links: ExitLinks::default(),
            invalidated: Default::default(),
        }),
        ids,
        passes,
    )
}

impl MachineCore {
    /// Builds, optimizes and publishes a superblock for the claimed hot
    /// block `entry`. Returns the superblock's cache id when one was
    /// published; `None` resolves the claim as retry-later or never.
    pub(crate) fn promote(&self, ctx: &mut ExecCtx<'_>, entry: u32) -> Option<u32> {
        // Build under the scheme that lowered the entry block (which an
        // adaptive migration may have since deactivated): the stitched
        // code inherits its segments' lowering, so the optimizer's
        // legality and the superblock's tag must follow the *blocks'*
        // scheme, not the active one.
        let scheme_tag = self.cache.scheme_tag(entry);
        let scheme = self.scheme_of(scheme_tag);
        match build_superblock(
            &self.cache,
            entry,
            self.config.superblock_limit,
            scheme.coalesce_htable_marks(),
            scheme.requires_htm(),
            scheme_tag,
        ) {
            TierBuild::Built(block, ids, passes) => {
                let footprint = crate::cache::block_footprint(&block);
                if !self.cache.try_reserve(footprint) {
                    // The budget is full: don't flush the cache to make
                    // room for an optimization — stay block-granular and
                    // retry once churn frees space.
                    self.cache.retry_promotion_later(entry);
                    return None;
                }
                let entry_pc = block.guest_pc;
                let sid = self.cache.push_anonymous(*block, scheme_tag);
                self.cache.publish_superblock(entry, sid, &ids);
                ctx.stats.promotions += 1;
                ctx.stats.opt_nzcv_killed += passes.nzcv_killed;
                ctx.stats.opt_const_folded += passes.const_folded;
                ctx.stats.opt_htable_coalesced += passes.htable_coalesced;
                // Attribute the promotion to the hot entry PC in the
                // tier it graduates *into*: the superblock row collects
                // the tier-2 costs that follow.
                ctx.prof_charge_at(
                    entry_pc,
                    adbt_profile::Tier::Super,
                    adbt_profile::Metric::Promote,
                    1,
                );
                ctx.trace(TraceKind::Promote, entry_pc, sid);
                Some(sid)
            }
            TierBuild::Retry => {
                self.cache.retry_promotion_later(entry);
                None
            }
            TierBuild::Never => {
                self.cache.never_promote(entry);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::block_footprint;
    use adbt_ir::{AluOp, BlockBuilder, Cond};

    fn simple_block(pc: u32, exit: BlockExit) -> Block {
        let mut b = BlockBuilder::new(pc);
        let t = b.temp();
        b.push(Op::Mov {
            dst: t,
            src: Src::Imm(pc),
            set_flags: false,
        });
        b.finish(exit, 1)
    }

    /// Reserve-then-insert, as the engine does it.
    fn insert(cache: &TranslationCache, pc: u32, block: Block) -> u32 {
        assert!(cache.try_reserve(block_footprint(&block)));
        cache.insert(pc, block, 0).id
    }

    fn link(cache: &TranslationCache, from: u32, to: u32) {
        cache.block(from).unwrap().links.taken.set(to);
    }

    #[test]
    fn stitches_a_two_block_loop() {
        let cache = TranslationCache::new();
        let a = insert(&cache, 0x0, simple_block(0x0, BlockExit::Jump(0x4)));
        let b = insert(&cache, 0x4, simple_block(0x4, BlockExit::Jump(0x0)));
        link(&cache, a, b);
        link(&cache, b, a);
        let TierBuild::Built(sb, parts, _) = build_superblock(&cache, a, 8, false, false, 0) else {
            panic!("expected Built");
        };
        assert!(sb.superblock);
        assert_eq!(parts, vec![a, b], "constituent ids come back in order");
        assert_eq!(sb.guest_pc, 0x0);
        assert_eq!(sb.guest_len, 2);
        assert_eq!(sb.exit, BlockExit::Jump(0x0), "closes back to the entry");
        // Boundary, mov, Safepoint, Boundary, mov — and the second mov's
        // temp was rebased past the first segment's.
        assert!(matches!(sb.ops[0], Op::Boundary { insns: 1 }));
        assert!(matches!(sb.ops[2], Op::Safepoint { resume_pc: 0x4 }));
        assert!(matches!(sb.ops[3], Op::Boundary { insns: 1 }));
        assert!(
            matches!(
                sb.ops[4],
                Op::Mov {
                    dst: Slot::Temp(1),
                    ..
                }
            ),
            "second segment's t0 rebased to t1: {:?}",
            sb.ops[4]
        );
        assert_eq!(sb.temps, 2);
    }

    #[test]
    fn superblock_tape_lines_up_with_its_ops() {
        use adbt_ir::{Entry, HelperId, Width};
        let cache = TranslationCache::new();
        let segment = |pc: u32, exit| {
            let mut b = BlockBuilder::new(pc);
            let t = b.temp();
            b.push(Op::Alu {
                op: AluOp::Add,
                dst: Some(t),
                a: Src::Slot(Slot::Reg(1)),
                b: Src::Imm(4),
                set_flags: false,
            });
            b.push(Op::Helper {
                id: HelperId(0),
                args: vec![Src::Slot(t), Src::Imm(2)],
                ret: None,
            });
            b.push(Op::Store {
                src: Src::Slot(Slot::Reg(2)),
                addr: Src::Slot(t),
                width: Width::Word,
                guest_store: true,
            });
            b.push(Op::Alu {
                op: AluOp::Sub,
                dst: Some(Slot::Reg(6)),
                a: Src::Slot(Slot::Reg(6)),
                b: Src::Imm(1),
                set_flags: true,
            });
            b.finish(exit, 3)
        };
        let a = insert(
            &cache,
            0x0,
            segment(
                0x0,
                BlockExit::CondJump {
                    cond: Cond::Ne,
                    taken: 0x10,
                    fallthrough: 0x40,
                },
            ),
        );
        let b = insert(&cache, 0x10, segment(0x10, BlockExit::Jump(0x0)));
        link(&cache, a, b);
        link(&cache, b, a);
        let TierBuild::Built(sb, _, _) = build_superblock(&cache, a, 8, false, false, 0) else {
            panic!("expected Built");
        };
        // One entry per stitched op — boundaries, safepoint and side exit
        // included — each of the kind the op lowers to on its own.
        assert_eq!(sb.tape.len(), sb.ops.len());
        for (op, entry) in sb.ops.iter().zip(sb.tape.entries()) {
            let (alone, _) = Tape::lower(std::slice::from_ref(op));
            assert_eq!(
                std::mem::discriminant(&alone.entries()[0]),
                std::mem::discriminant(entry),
                "{op:?} lowered to {entry:?}"
            );
        }
        // The second segment's t0 was rebased to t1: slot 16 + 1.
        assert!(sb
            .tape
            .entries()
            .contains(&Entry::StoreWord { src: 2, addr: 17 }));
        assert!(matches!(sb.tape.entries()[0], Entry::Boundary { insns: 3 }));
        assert_eq!(sb.guest_stores, 2);
    }

    #[test]
    fn cond_exit_prefers_backward_taken_and_guards_with_side_exit() {
        let cache = TranslationCache::new();
        // A loop latch at 0x8: subs + bne back to 0x0.
        let mut latch = BlockBuilder::new(0x8);
        latch.push(Op::Alu {
            op: AluOp::Sub,
            dst: Some(Slot::Reg(2)),
            a: Src::Slot(Slot::Reg(2)),
            b: Src::Imm(1),
            set_flags: true,
        });
        let body = insert(&cache, 0x0, simple_block(0x0, BlockExit::Jump(0x8)));
        let latch_id = insert(
            &cache,
            0x8,
            latch.finish(
                BlockExit::CondJump {
                    cond: Cond::Ne,
                    taken: 0x0,
                    fallthrough: 0xc,
                },
                1,
            ),
        );
        link(&cache, body, latch_id);
        link(&cache, latch_id, body);
        // Start from the latch: backward taken leg is preferred, so the
        // trace is latch → body, guarded by a side exit on the latch's
        // *inverted* condition (leave when the loop is done).
        let TierBuild::Built(sb, _, _) = build_superblock(&cache, latch_id, 8, false, false, 0)
        else {
            panic!("expected Built");
        };
        assert_eq!(sb.guest_pc, 0x8);
        let side = sb
            .ops
            .iter()
            .find_map(|op| match op {
                Op::SideExit { cond, target } => Some((*cond, *target)),
                _ => None,
            })
            .expect("interior cond exit lowers to a side exit");
        assert_eq!(side, (Cond::Eq, 0xc), "inverted bne → beq to fallthrough");
        assert_eq!(sb.exit, BlockExit::Jump(0x8), "body jumps back to latch");
    }

    #[test]
    fn unwarmed_links_defer_and_indirect_exits_never_promote() {
        let cache = TranslationCache::new();
        let cold = insert(&cache, 0x100, simple_block(0x100, BlockExit::Jump(0x104)));
        assert!(matches!(
            build_superblock(&cache, cold, 8, false, false, 0),
            TierBuild::Retry
        ));
        let dead_end = insert(
            &cache,
            0x200,
            simple_block(
                0x200,
                BlockExit::Indirect {
                    target: Src::Slot(Slot::Reg(14)),
                },
            ),
        );
        assert!(matches!(
            build_superblock(&cache, dead_end, 8, false, false, 0),
            TierBuild::Never
        ));
    }

    #[test]
    fn limit_caps_the_trace_and_llsc_stops_it_when_asked() {
        let cache = TranslationCache::new();
        let mut prev: Option<u32> = None;
        let mut first = 0;
        for i in 0..6u32 {
            let pc = i * 4;
            let id = insert(&cache, pc, simple_block(pc, BlockExit::Jump(pc + 4)));
            if let Some(p) = prev {
                link(&cache, p, id);
            } else {
                first = id;
            }
            prev = Some(id);
        }
        let TierBuild::Built(sb, _, _) = build_superblock(&cache, first, 3, false, false, 0) else {
            panic!("expected Built");
        };
        assert_eq!(sb.guest_len, 3, "limit caps the stitch");

        // Mark the second block as LL/SC-bearing via a fresh cache where
        // block 1 carries the flag: stop_at_llsc ends the trace after it.
        let cache = TranslationCache::new();
        let a = insert(&cache, 0x0, simple_block(0x0, BlockExit::Jump(0x4)));
        let mut llsc = BlockBuilder::new(0x4);
        llsc.mark_llsc();
        let b = insert(&cache, 0x4, llsc.finish(BlockExit::Jump(0x8), 1));
        let c = insert(&cache, 0x8, simple_block(0x8, BlockExit::Jump(0xc)));
        link(&cache, a, b);
        link(&cache, b, c);
        let TierBuild::Built(sb, _, _) = build_superblock(&cache, a, 8, false, true, 0) else {
            panic!("expected Built");
        };
        assert_eq!(
            sb.guest_len, 2,
            "LL/SC block is the last stitched segment under stop_at_llsc"
        );
        assert!(sb.has_llsc);
    }
}
