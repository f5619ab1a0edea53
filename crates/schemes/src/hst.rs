//! The HST family: Hash-table Store Test (paper §III-A through §III-C).
//!
//! All three variants share the LL lowering — one inline
//! [`Op::HtableSet`] claiming the hash entry plus one inline
//! [`Op::MonitorArm`] — and differ in how stores are instrumented and how
//! the SC critical section is made atomic:
//!
//! * [`Hst`]: every guest store gets an inline `HtableSet`; SC validates
//!   the entry inside a QEMU stop-the-world exclusive section. *Strong.*
//! * [`HstWeak`]: stores are not instrumented; SC serializes against
//!   competing LL/SC via a CAS'd lock bit on the hash entry itself.
//!   *Weak* — plain stores go unnoticed, but overlapping LL/SC pairs are
//!   caught (unlike PICO-CAS).
//! * [`HstHtm`]: like HST, but the SC critical section is an HTM
//!   transaction (validate entry, transactionally store), falling back to
//!   the stop-the-world path after repeated aborts. *Strong.*

use adbt_engine::{
    AtomicScheme, Atomicity, ChaosSite, ExecCtx, HelperRegistry, RetryPolicy, Stat, TraceKind, Trap,
};
use adbt_htm::AbortReason;
use adbt_ir::{BlockBuilder, HelperId, Op, Slot, Src};
use adbt_mmu::{Access, Width};
use std::time::Instant;

/// Emits the shared HST-family LL sequence: claim the hash entry, then
/// load and arm the monitor — all inline, no helper.
fn lower_ll_inline(b: &mut BlockBuilder, rd: Slot, addr: Src) {
    b.push(Op::HtableSet { addr });
    b.push(Op::MonitorArm { dst: rd, addr });
}

/// Checks the monitor and hash entry for an SC; common to all variants.
fn sc_precondition(ctx: &ExecCtx<'_>, addr: u32) -> bool {
    ctx.cpu.monitor.addr == Some(addr) && ctx.machine.store_test.get(addr) == ctx.cpu.tid
}

// ---------------------------------------------------------------------------
// HST
// ---------------------------------------------------------------------------

/// The paper's headline scheme (Fig. 5): strong atomicity from an inline
/// store test plus a stop-the-world SC.
#[derive(Debug, Default)]
pub struct Hst {
    sc: Option<HelperId>,
}

impl Hst {
    /// Creates the scheme.
    pub fn new() -> Hst {
        Hst::default()
    }
}

/// The body of HST's SC: runs with the world stopped.
///
/// Does **not** charge `stats.sc` itself — callers count exactly one SC
/// per guest `strex`. HST-HTM reaches here only as the degraded fallback
/// after its transactional attempts, which already counted the SC; the
/// plain HST helper counts it in [`hst_sc_exclusive`]. (Charging here
/// used to force HST-HTM to *decrement* the counter after the fallback,
/// which made `stats.sc` transiently non-monotone.)
fn hst_sc_world_stop(ctx: &mut ExecCtx<'_>, addr: u32, new: u32) -> Result<u32, Trap> {
    ctx.start_exclusive()?;
    let ok = sc_precondition(ctx, addr);
    let result = if ok {
        ctx.store(addr, Width::Word, new, false).map(|()| 0)
    } else {
        Ok(1)
    };
    if let Ok(status) = result {
        ctx.note_sc(addr, status == 0, new);
    }
    ctx.cpu.monitor.addr = None;
    ctx.end_exclusive();
    result
}

/// HST's SC helper: count the strex, roll chaos, stop the world.
fn hst_sc_exclusive(ctx: &mut ExecCtx<'_>, addr: u32, new: u32) -> Result<u32, Trap> {
    ctx.stats.sc += 1;
    // Injected spurious SC failure (always architecturally legal), taken
    // before paying for the stop-the-world section.
    if ctx.chaos_sc_fail() {
        ctx.cpu.monitor.addr = None;
        ctx.note_sc(addr, false, new);
        return Ok(1);
    }
    hst_sc_world_stop(ctx, addr, new)
}

impl AtomicScheme for Hst {
    fn name(&self) -> &'static str {
        "hst"
    }

    fn atomicity(&self) -> Atomicity {
        Atomicity::Strong
    }

    fn install(&mut self, reg: &mut HelperRegistry) {
        self.sc = Some(reg.register(
            "hst_sc",
            Box::new(|ctx, args| hst_sc_exclusive(ctx, args[0], args[1])),
        ));
    }

    fn lower_ll(&self, b: &mut BlockBuilder, rd: Slot, addr: Src) {
        lower_ll_inline(b, rd, addr);
    }

    fn lower_sc(&self, b: &mut BlockBuilder, rd: Slot, value: Src, addr: Src) {
        b.push(Op::Helper {
            id: self.sc.expect("installed"),
            args: vec![addr, value],
            ret: Some(rd),
        });
    }

    fn lower_clrex(&self, b: &mut BlockBuilder) {
        b.push(Op::MonitorClear);
    }

    fn instrument_store(&self, b: &mut BlockBuilder, addr: Src) {
        // The single inline op that makes HST cheap where PICO-ST is not.
        b.push(Op::HtableSet { addr });
    }

    fn coalesce_htable_marks(&self) -> bool {
        // LL lowering is inline `HtableSet` + `MonitorArm`; dropping a
        // redundant LL-origin re-mark only risks our own SC failing
        // spuriously (legal). Store-origin marks are never touched.
        true
    }
}

// ---------------------------------------------------------------------------
// HST-WEAK
// ---------------------------------------------------------------------------

/// HST without store instrumentation (paper Fig. 7): weak atomicity at
/// PICO-CAS-like speed, with overlapping LL/SC pairs still detected via
/// the hash-entry lock.
#[derive(Debug, Default)]
pub struct HstWeak {
    ll: Option<HelperId>,
    sc: Option<HelperId>,
}

impl HstWeak {
    /// Creates the scheme.
    pub fn new() -> HstWeak {
        HstWeak::default()
    }
}

impl AtomicScheme for HstWeak {
    fn name(&self) -> &'static str {
        "hst-weak"
    }

    fn atomicity(&self) -> Atomicity {
        Atomicity::Weak
    }

    fn install(&mut self, reg: &mut HelperRegistry) {
        self.ll = Some(reg.register(
            "hst_weak_ll",
            Box::new(|ctx, args| {
                let addr = args[0];
                ctx.stats.ll += 1;
                ctx.stats.htable_sets += 1;
                // Claim the entry without clobbering a locked one: a
                // plain-store claim racing into another SC's critical
                // window would let our own SC "lock" the entry while the
                // previous SC is still writing. Contended spins are timed
                // into the same lock-wait bucket PST's registry lock uses.
                let machine = ctx.machine;
                let tid = ctx.cpu.tid;
                let mut contended: Option<Instant> = None;
                machine.store_test.claim_unlocked(addr, tid, || {
                    contended.get_or_insert_with(Instant::now);
                    std::hint::spin_loop();
                });
                if let Some(since) = contended {
                    ctx.count(Stat::lock_wait_ns, since.elapsed().as_nanos() as u64);
                }
                let value = ctx.load(addr, Width::Word)?;
                ctx.cpu.monitor.addr = Some(addr);
                ctx.cpu.monitor.value = value;
                ctx.trace(TraceKind::LlIssue, addr, 0);
                Ok(value)
            }),
        ));
        self.sc = Some(reg.register(
            "hst_weak_sc",
            Box::new(|ctx, args| {
                let (addr, new) = (args[0], args[1]);
                ctx.stats.sc += 1;
                // An injected failure draws first, armed or not.
                let armed = !ctx.chaos_sc_fail() && ctx.cpu.monitor.addr == Some(addr);
                ctx.cpu.monitor.addr = None;
                if !armed {
                    ctx.note_sc(addr, false, new);
                    return Ok(1);
                }
                // Resolve the target before taking the entry lock: a
                // fault on the way may wait for a stop-the-world, and an
                // LL spinning on the locked entry never reaches a
                // safepoint. A trapping resolve reports no outcome, as in
                // HST.
                let paddr = ctx.resolve(addr, Access::Store, Width::Word)?;
                // One CAS locks the entry iff it still belongs to us; a
                // competing SC either completed (entry now theirs) or
                // holds the lock — both must fail us.
                let ok = ctx.machine.store_test.try_lock(addr, ctx.cpu.tid);
                if ok {
                    ctx.machine.space.mem().store(paddr, Width::Word, new);
                    ctx.machine.store_test.unlock(addr, ctx.cpu.tid);
                }
                ctx.note_sc(addr, ok, new);
                Ok(!ok as u32)
            }),
        ));
    }

    fn lower_ll(&self, b: &mut BlockBuilder, rd: Slot, addr: Src) {
        b.push(Op::Helper {
            id: self.ll.expect("installed"),
            args: vec![addr],
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
        b.push(Op::MonitorClear);
    }
}

// ---------------------------------------------------------------------------
// HST-HTM
// ---------------------------------------------------------------------------

/// HST with the SC critical section inside an HTM transaction (paper
/// §III-B, Fig. 6): the transaction covers only the entry check plus the
/// conditional store, so — unlike PICO-HTM — no emulation work can land
/// inside it.
#[derive(Debug)]
pub struct HstHtm {
    sc: Option<HelperId>,
    /// Transaction attempt budget and backoff staging before falling
    /// back to stop-the-world (the degradation ladder's bottom rung).
    retry: RetryPolicy,
}

impl HstHtm {
    /// Creates the scheme with the default retry budget (8 attempts,
    /// spinning through the first 4, yielding after, never sleeping —
    /// the SC window is far too short to justify a sleep).
    pub fn new() -> HstHtm {
        HstHtm {
            sc: None,
            retry: RetryPolicy {
                max_attempts: 8,
                yield_after: 4,
                sleep_after: u64::MAX,
                max_sleep_us: 0,
                // Degradation is driven by the attempt budget here, not
                // by the engine's storm detector.
                degrade_after: u64::MAX,
            },
        }
    }
}

impl Default for HstHtm {
    fn default() -> HstHtm {
        HstHtm::new()
    }
}

impl AtomicScheme for HstHtm {
    fn name(&self) -> &'static str {
        "hst-htm"
    }

    fn atomicity(&self) -> Atomicity {
        Atomicity::Strong
    }

    fn requires_htm(&self) -> bool {
        true
    }

    fn install(&mut self, reg: &mut HelperRegistry) {
        let retry = self.retry;
        self.sc = Some(reg.register(
            "hst_htm_sc",
            Box::new(move |ctx, args| {
                let (addr, new) = (args[0], args[1]);
                ctx.stats.sc += 1;
                // Fail fast outside any transaction on an injected failure
                // (drawn first) or when the precondition is already gone.
                if ctx.chaos_sc_fail() || !sc_precondition(ctx, addr) {
                    ctx.cpu.monitor.addr = None;
                    ctx.note_sc(addr, false, new);
                    return Ok(1);
                }
                // Resolve the target before any transaction opens: a
                // fault on the way (a store into a tracked code page)
                // settles under a stop-the-world, which no transaction
                // may span.
                let paddr = ctx.resolve(addr, Access::Store, Width::Word)?;
                let entry_token = ctx.machine.store_test.htm_token(addr);
                let threaded = ctx.machine.is_threaded();
                let mut attempt = 0u64;
                // One unified retry shape: spin, then yield, then — once
                // the budget is spent — degrade to stop-the-world.
                let backoff = |ctx: &mut ExecCtx<'_>, attempt: u64, reason: AbortReason| {
                    ctx.note_htm_abort(addr, reason);
                    if threaded {
                        ctx.count(Stat::lock_wait_ns, retry.backoff(attempt));
                    }
                };
                while {
                    attempt += 1;
                    !retry.exhausted(attempt)
                } {
                    ctx.note_htm_begin(addr, attempt - 1);
                    let mut txn = ctx.machine.htm.begin();
                    // Pull the hash entry's conflict token into the read
                    // set: a competing LL or instrumented store flipping
                    // the entry after our check below aborts this commit
                    // (the entry's cache line, on real HTM).
                    if let Err(reason) = txn.observe(entry_token) {
                        backoff(ctx, attempt, reason);
                        continue;
                    }
                    // Transactionally read the word so any concurrent
                    // plain store (which bumps the version) aborts us,
                    // then re-validate the hash entry inside the window.
                    if let Err(reason) = txn.load_word(ctx.machine.space.mem(), paddr) {
                        backoff(ctx, attempt, reason);
                        continue;
                    }
                    if !sc_precondition(ctx, addr) {
                        ctx.cpu.monitor.addr = None;
                        ctx.note_sc(addr, false, new);
                        return Ok(1);
                    }
                    if let Err(reason) = txn.store_word(paddr, new) {
                        backoff(ctx, attempt, reason);
                        continue;
                    }
                    // Injected spurious abort at commit, the point real
                    // HTM is most likely to fail for external reasons.
                    if ctx.chaos_roll(ChaosSite::HtmCommit) {
                        let reason = txn.abort();
                        backoff(ctx, attempt, reason);
                        continue;
                    }
                    match txn.commit(ctx.machine.space.mem()) {
                        Ok(()) => {
                            ctx.note_htm_commit(addr, attempt - 1);
                            ctx.cpu.monitor.addr = None;
                            ctx.note_sc(addr, true, new);
                            return Ok(0);
                        }
                        Err(reason) => {
                            backoff(ctx, attempt, reason);
                        }
                    }
                }
                // Abort budget exhausted: degrade to the HST stop-the-world
                // path (counted — the degradation ladder's bottom rung).
                // The SC was already charged above, and the world-stop body
                // does not charge another — `stats.sc` stays one per strex
                // without ever being decremented.
                ctx.note_degrade(addr, attempt);
                ctx.trace_htm_streak(attempt);
                hst_sc_world_stop(ctx, addr, new)
            }),
        ));
    }

    fn lower_ll(&self, b: &mut BlockBuilder, rd: Slot, addr: Src) {
        lower_ll_inline(b, rd, addr);
    }

    fn lower_sc(&self, b: &mut BlockBuilder, rd: Slot, value: Src, addr: Src) {
        b.push(Op::Helper {
            id: self.sc.expect("installed"),
            args: vec![addr, value],
            ret: Some(rd),
        });
    }

    fn lower_clrex(&self, b: &mut BlockBuilder) {
        b.push(Op::MonitorClear);
    }

    fn instrument_store(&self, b: &mut BlockBuilder, addr: Src) {
        b.push(Op::HtableSet { addr });
    }

    fn coalesce_htable_marks(&self) -> bool {
        // Same inline-mark shape as plain HST; same legality argument.
        // (HST-WEAK lowers LL through a helper, so it has no inline
        // marks to coalesce and keeps the default.)
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adbt_ir::BlockExit;

    #[test]
    fn hst_ll_and_stores_are_inline() {
        let mut scheme = Hst::new();
        let mut reg = HelperRegistry::new();
        scheme.install(&mut reg);

        let mut b = BlockBuilder::new(0);
        scheme.lower_ll(&mut b, Slot::Reg(1), Src::Slot(Slot::Reg(0)));
        scheme.instrument_store(&mut b, Src::Slot(Slot::Reg(2)));
        let block = b.finish(BlockExit::Jump(0), 2);
        // LL: HtableSet + MonitorArm; store hook: HtableSet. No helpers.
        assert_eq!(block.ops.len(), 3);
        assert!(block.ops.iter().all(|op| !matches!(op, Op::Helper { .. })));
    }

    #[test]
    fn hst_sc_is_a_single_helper() {
        let mut scheme = Hst::new();
        let mut reg = HelperRegistry::new();
        scheme.install(&mut reg);
        let mut b = BlockBuilder::new(0);
        scheme.lower_sc(
            &mut b,
            Slot::Reg(2),
            Src::Slot(Slot::Reg(1)),
            Src::Slot(Slot::Reg(0)),
        );
        let block = b.finish(BlockExit::Jump(0), 1);
        assert_eq!(block.ops.len(), 1);
        assert!(matches!(block.ops[0], Op::Helper { .. }));
    }

    #[test]
    fn hst_weak_does_not_instrument_stores() {
        let scheme = HstWeak::new();
        let mut b = BlockBuilder::new(0);
        scheme.instrument_store(&mut b, Src::Slot(Slot::Reg(0)));
        assert!(b.is_empty());
    }
}
