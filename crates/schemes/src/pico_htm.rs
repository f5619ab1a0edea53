//! PICO-HTM: the prior HTM scheme (paper §II-B and §III-B).
//!
//! The *entire* LL→SC window runs inside one hardware transaction:
//! `xbegin` at the LL, `xend` at the SC, with every guest access in
//! between transactional. Strong atomicity comes free from the HTM
//! conflict detector — but the emulator's own work (translation-cache
//! misses, helper dispatch) lands inside the transaction window and
//! aborts it, and under contention the scheme degenerates into an abort
//! storm. The paper reports frequent crashes/livelocks beyond 8 threads;
//! this reproduction surfaces the same behaviour as
//! [`adbt_engine::VcpuOutcome::Livelocked`] once the per-region retry
//! budget is exhausted. Threaded runs with the robustness plane armed
//! (chaos or a watchdog) instead give a region that aborted 32 times in
//! a row the engine's held stop-the-world window, under which its next
//! attempt opens no transaction and must complete.

use adbt_engine::{AtomicScheme, Atomicity, HelperRegistry, TraceKind};
use adbt_ir::{BlockBuilder, HelperId, Op, Slot, Src};
use adbt_mmu::Width;

/// The PICO-HTM scheme.
#[derive(Debug, Default)]
pub struct PicoHtm {
    ll: Option<HelperId>,
    sc: Option<HelperId>,
    clrex: Option<HelperId>,
}

impl PicoHtm {
    /// Creates the scheme.
    pub fn new() -> PicoHtm {
        PicoHtm::default()
    }
}

impl AtomicScheme for PicoHtm {
    fn name(&self) -> &'static str {
        "pico-htm"
    }

    fn atomicity(&self) -> Atomicity {
        Atomicity::Strong
    }

    fn requires_htm(&self) -> bool {
        true
    }

    fn install(&mut self, reg: &mut HelperRegistry) {
        self.ll = Some(reg.register(
            "pico_htm_ll",
            Box::new(|ctx, args| {
                let (addr, restart_pc) = (args[0], args[1]);
                ctx.stats.ll += 1;
                // A fresh LL while a transaction is open re-arms: abort
                // the old region first (nesting is architecturally
                // invalid). The held window stays: it spans the attempt.
                if ctx.txn.is_some() {
                    ctx.release_region();
                }
                // `xbegin` with full register rollback to the LL itself
                // (none under the held window, which nothing interrupts).
                ctx.begin_region_txn(restart_pc);
                let value = ctx.load(addr, Width::Word)?;
                ctx.cpu.monitor.addr = Some(addr);
                ctx.cpu.monitor.value = value;
                // Inside a live transaction this buffers until commit —
                // the whole region becomes one atom to observers, exactly
                // the HTM guarantee.
                ctx.trace(TraceKind::LlIssue, addr, 0);
                Ok(value)
            }),
        ));

        self.sc = Some(reg.register(
            "pico_htm_sc",
            Box::new(|ctx, args| {
                let (addr, new) = (args[0], args[1]);
                ctx.stats.sc += 1;
                let mut armed = ctx.cpu.monitor.addr == Some(addr);
                // Injected spurious SC failure; the open region (if any)
                // is released below exactly as for a genuine failure.
                if armed && ctx.chaos_sc_fail() {
                    armed = false;
                }
                ctx.cpu.monitor.addr = None;
                // `region_active` (not `txn.is_some()`): the held window
                // stands in for a transaction.
                if !armed || !ctx.region_active() {
                    ctx.release_region();
                    ctx.note_sc(addr, false, new);
                    return Ok(1);
                }
                // The store joins the transaction (or happens directly,
                // world-stopped, under the held window), then `xend`.
                ctx.store(addr, Width::Word, new, true)?;
                ctx.commit_region_txn()?;
                // The region just committed (txn gone), so this lands
                // unbuffered right after the region's flushed events.
                ctx.note_sc(addr, true, new);
                Ok(0)
            }),
        ));

        self.clrex = Some(reg.register(
            "pico_htm_clrex",
            Box::new(|ctx, _args| {
                ctx.release_region();
                ctx.cpu.monitor.addr = None;
                ctx.note_clrex();
                Ok(0)
            }),
        ));
    }

    fn lower_ll(&self, b: &mut BlockBuilder, rd: Slot, addr: Src) {
        // The restart PC is the LL instruction itself: RTM rolls the
        // whole region back there on abort.
        let restart = Src::Imm(b.current_pc());
        b.push(Op::Helper {
            id: self.ll.expect("installed"),
            args: vec![addr, restart],
            ret: Some(rd),
        });
    }

    fn lower_sc(&self, b: &mut BlockBuilder, rd: Slot, value: Src, addr: Src) {
        b.push(Op::Helper {
            id: self.sc.expect("installed"),
            args: vec![addr, value],
            ret: Some(rd),
        });
    }

    fn lower_clrex(&self, b: &mut BlockBuilder) {
        b.push(Op::Helper {
            id: self.clrex.expect("installed"),
            args: vec![],
            ret: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowering_embeds_restart_pc() {
        let mut scheme = PicoHtm::new();
        let mut reg = HelperRegistry::new();
        scheme.install(&mut reg);
        let mut b = BlockBuilder::new(0x1000);
        b.set_current_pc(0x1008);
        scheme.lower_ll(&mut b, Slot::Reg(1), Src::Slot(Slot::Reg(0)));
        let block = b.finish(adbt_ir::BlockExit::Jump(0), 1);
        match &block.ops[0] {
            Op::Helper { args, .. } => assert_eq!(args[1], Src::Imm(0x1008)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
