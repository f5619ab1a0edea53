//! PST and PST-REMAP: the page-protection store-test schemes (paper
//! §III-D and §III-E).
//!
//! **PST** write-protects the page of the synchronization variable when
//! an LL arms a monitor. Competing plain stores then fault; the handler
//! distinguishes a *true* conflict (the store overlaps a monitored word —
//! break those monitors, so their SCs fail) from *false sharing* (same
//! page, different address — let the store pass the protection and keep
//! the monitors). The SC itself briefly restores write permission under
//! a stop-the-world section — the `mprotect` + suspend-everyone cost
//! that dominates PST's profile (Fig. 12).
//!
//! **PST-REMAP** keeps PST's LL but replaces the SC's stop-the-world
//! permission dance with `mremap`: the page moves to an alias page
//! with write permission, the original becomes unmapped (accesses fault
//! `MAPERR` and wait), the SC writes through the alias, and the page
//! moves back. No thread suspension — at the price of two remaps per SC.
//!
//! Both schemes are strongly atomic. The soft-MMU's permission words are
//! immediately visible to all threads, standing in for the kernel's page
//! tables + TLB shootdown (see DESIGN.md for the substitution argument).

use crate::overlaps;
use adbt_engine::{
    AtomicScheme, Atomicity, ChaosSite, ExecCtx, FaultOutcome, HelperRegistry, Stat, TraceKind,
    Trap,
};
use adbt_ir::{BlockBuilder, HelperId, Op, Slot, Src};
use adbt_mmu::{Access, FaultKind, PageFault, Perms, Width, PAGE_SHIFT, PAGE_SIZE};
use adbt_sync::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One armed monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MonitorEntry {
    tid: u32,
    addr: u32,
}

/// Page → monitors armed on it. A page is write-protected exactly while
/// it has at least one entry here.
#[derive(Debug, Default)]
struct PstRegistry {
    pages: HashMap<u32, Vec<MonitorEntry>>,
}

/// State shared between a PST-family scheme's helpers and fault handler.
#[derive(Debug, Default)]
struct PstShared {
    registry: Mutex<PstRegistry>,
}

/// Acquires the registry without ever blocking across a safepoint:
/// a holder of this lock may initiate a stop-the-world section, so
/// waiters must keep servicing safepoints or the machine deadlocks.
fn lock_registry<'a>(shared: &'a PstShared, ctx: &mut ExecCtx<'_>) -> MutexGuard<'a, PstRegistry> {
    ctx.stats.lock_acquisitions += 1;
    if ctx.chaos_roll(ChaosSite::LockStall) {
        // Injected stall on the way to the registry lock (holder
        // descheduled mid-acquire); widens the contention windows the
        // fault handler and SC race through.
        let stall = ctx.chaos_stall();
        ctx.count(Stat::lock_wait_ns, stall);
    }
    if let Some(guard) = shared.registry.try_lock() {
        return guard;
    }
    let start = Instant::now();
    loop {
        let parked = ctx.machine.exclusive.safepoint();
        ctx.count(Stat::exclusive_ns, parked);
        if let Some(guard) = shared.registry.try_lock() {
            ctx.count(Stat::lock_wait_ns, start.elapsed().as_nanos() as u64);
            return guard;
        }
        std::thread::yield_now();
    }
}

/// Changes a page's permissions under a stop-the-world section, charging
/// the whole operation to the `mprotect` profile bucket — the paper's
/// cost model for an emulator-side `mprotect` (kernel entry + suspending
/// other threads).
///
/// Fails only when the machine halts while this thread awaits
/// exclusivity; the permission change is skipped and the caller unwinds.
fn timed_protect(ctx: &mut ExecCtx<'_>, page: u32, perms: Perms) -> Result<(), Trap> {
    let start = Instant::now();
    note_mprotect(ctx, page, perms.allows_write());
    // This really is a stop-the-world section (counted as such so both
    // the wall-clock and virtual-time accounting see it); its *duration*
    // is attributed to the mprotect bucket per the paper's Fig. 12.
    ctx.start_exclusive()?;
    if ctx.chaos_roll(ChaosSite::MprotectDelay) {
        // Injected mprotect latency spike, taken with the world stopped —
        // the worst possible moment. The stall lands in `mprotect_ns`
        // through the surrounding timer.
        let _ = ctx.chaos_stall();
    }
    ctx.machine.space.protect(page, perms);
    ctx.end_exclusive();
    ctx.stats.mprotect_ns += start.elapsed().as_nanos() as u64;
    Ok(())
}

/// Counts one page-protection call on `page` and records `mprotect`,
/// whose payload is 1 when the page opens for writes and 0 when it is
/// write-protected.
fn note_mprotect(ctx: &mut ExecCtx<'_>, page: u32, open: bool) {
    ctx.stats.mprotect_calls += 1;
    ctx.trace(TraceKind::Mprotect, page << PAGE_SHIFT, open as u32);
}

/// Drops every registry entry of the calling thread, unprotecting pages
/// it was the last monitor on. Registry must be held.
///
/// Scans by tid rather than by the local monitor address: the local
/// monitor can be cleared independently of the registry (a failed SC, a
/// spurious/injected monitor clear), and an address-keyed removal would
/// then leak the stale entry — keeping the page write-protected and the
/// one-monitor-per-thread invariant broken forever.
fn drop_own_monitor_locked(ctx: &mut ExecCtx<'_>, reg: &mut PstRegistry) -> Result<(), Trap> {
    let tid = ctx.cpu.tid;
    let mut emptied: Vec<u32> = Vec::new();
    reg.pages.retain(|&page, list| {
        let before = list.len();
        list.retain(|m| m.tid != tid);
        if list.is_empty() && before > 0 {
            emptied.push(page);
            false
        } else {
            true
        }
    });
    for page in emptied {
        timed_protect(ctx, page, Perms::RWX)?;
    }
    Ok(())
}

/// The common LL emulation (paper Fig. 8, upper half): register the
/// monitor, write-protect the page on first use, load the value.
fn pst_ll(shared: &PstShared, ctx: &mut ExecCtx<'_>, addr: u32) -> Result<u32, Trap> {
    ctx.stats.ll += 1;
    let mut guard = lock_registry(shared, ctx);
    let reg = &mut *guard;
    drop_own_monitor_locked(ctx, reg)?;

    let page = addr >> PAGE_SHIFT;
    let list = reg.pages.entry(page).or_default();
    let first_on_page = list.is_empty();
    list.push(MonitorEntry {
        tid: ctx.cpu.tid,
        addr,
    });
    if first_on_page {
        timed_protect(ctx, page, Perms::READ | Perms::EXEC)?;
    }
    // Read through the privileged path: the page is mapped (we hold the
    // registry, so no remap is in flight) but now read-only, and going
    // through `ctx.load` could recurse into our own fault handler.
    let paddr = ctx
        .machine
        .space
        .translate_bypass(addr, Width::Word)
        .map_err(Trap::Fault)?;
    let value = ctx.machine.space.mem().load(paddr, Width::Word);
    ctx.cpu.monitor.addr = Some(addr);
    ctx.cpu.monitor.value = value;
    ctx.trace(TraceKind::LlIssue, addr, 0);
    Ok(value)
}

/// Checks the SC precondition: local monitor armed on `addr` *and* the
/// registry still holds our entry (a conflicting store removes it).
fn sc_registered(ctx: &ExecCtx<'_>, reg: &PstRegistry, addr: u32) -> bool {
    ctx.cpu.monitor.addr == Some(addr)
        && reg
            .pages
            .get(&(addr >> PAGE_SHIFT))
            .is_some_and(|list| list.iter().any(|m| m.tid == ctx.cpu.tid && m.addr == addr))
}

/// The common store-fault handler (`SEGV_ACCERR` path): break overlapped
/// monitors of other threads, then either unprotect the page (no monitor
/// left on it) or let the store pass the protection (false sharing, or
/// our own monitor survived). It never performs the store: the fault
/// path does, in the accessor's own shape, so a fused RMW stays one
/// atomic. A store let through lands before the registry unlocks.
fn handle_protected_store<'s>(
    shared: &'s PstShared,
    ctx: &mut ExecCtx<'_>,
    fault: PageFault,
    width: Width,
) -> FaultOutcome<'s> {
    let page = fault.vaddr >> PAGE_SHIFT;
    let mut guard = lock_registry(shared, ctx);
    let reg = &mut *guard;
    let Some(list) = reg.pages.get_mut(&page) else {
        // The page was unprotected between the fault and the lock; the
        // plain store path will succeed now.
        return FaultOutcome::Retry;
    };
    let tid = ctx.cpu.tid;
    let before = list.len();
    // Break every *other* thread's monitor this store overlaps; the
    // architecture keeps a thread's own monitor across its own stores.
    list.retain(|m| m.tid == tid || !overlaps(m.addr, fault.vaddr, width));
    let broke_any = list.len() != before;
    if !broke_any {
        ctx.count(Stat::false_sharing_faults, 1);
        ctx.trace(TraceKind::FalseSharing, fault.vaddr, 0);
    }
    if list.is_empty() {
        reg.pages.remove(&page);
        // On halt the unprotect is skipped: the retried store faults
        // again and the fault entry path turns it into a clean livelock
        // outcome, so Retry is right either way.
        let _ = timed_protect(ctx, page, Perms::RWX);
        return FaultOutcome::Retry;
    }
    // Monitors remain (false sharing, or our own survived): the store
    // passes the protection, which stays. The registry stays locked
    // until the store has landed, as the store-test requires: an LL
    // registering on this page before then would read the word without
    // the store, and its SC would succeed over it.
    FaultOutcome::Bypass(Some(Box::new(move || drop(guard))))
}

fn lower_helper2(b: &mut BlockBuilder, id: HelperId, a0: Src, a1: Src, ret: Slot) {
    b.push(Op::Helper {
        id,
        args: vec![a0, a1],
        ret: Some(ret),
    });
}

// ---------------------------------------------------------------------------
// PST
// ---------------------------------------------------------------------------

/// The Page-protection Store Test scheme.
#[derive(Debug, Default)]
pub struct Pst {
    shared: Arc<PstShared>,
    ll: Option<HelperId>,
    sc: Option<HelperId>,
    clrex: Option<HelperId>,
}

impl Pst {
    /// Creates the scheme.
    pub fn new() -> Pst {
        Pst::default()
    }
}

impl AtomicScheme for Pst {
    fn name(&self) -> &'static str {
        "pst"
    }

    fn atomicity(&self) -> Atomicity {
        Atomicity::Strong
    }

    fn uses_page_protection(&self) -> bool {
        true
    }

    fn install(&mut self, reg: &mut HelperRegistry) {
        let shared = Arc::clone(&self.shared);
        self.ll = Some(reg.register(
            "pst_ll",
            Box::new(move |ctx, args| pst_ll(&shared, ctx, args[0])),
        ));

        let shared = Arc::clone(&self.shared);
        self.sc = Some(reg.register(
            "pst_sc",
            Box::new(move |ctx, args| {
                let (addr, new) = (args[0], args[1]);
                ctx.stats.sc += 1;
                let mut guard = lock_registry(&shared, ctx);
                let registry = &mut *guard;
                let mut ok = sc_registered(ctx, registry, addr);
                // Injected spurious SC failure; the registry entry stays,
                // exactly as after a genuine failure, and the next LL's
                // tid-scan cleanup reclaims it.
                if ok && ctx.chaos_sc_fail() {
                    ok = false;
                }
                if ok {
                    let page = addr >> PAGE_SHIFT;
                    // The paper's SC sequence: suspend everyone, reopen
                    // write permission, store, re-protect, resume.
                    let start = Instant::now();
                    ctx.start_exclusive()?;
                    ctx.machine.space.protect(page, Perms::RWX);
                    note_mprotect(ctx, page, true);
                    let paddr = ctx
                        .machine
                        .space
                        .translate_bypass(addr, Width::Word)
                        .expect("monitored page is mapped");
                    ctx.machine.space.mem().store(paddr, Width::Word, new);
                    // An SC's store is still a store: it breaks *every*
                    // monitor on the stored word (including competing
                    // threads' — the Seq2/Seq3/Seq4 cases), not just ours.
                    let list = registry.pages.get_mut(&page).expect("checked above");
                    list.retain(|m| !overlaps(m.addr, addr, Width::Word));
                    if list.is_empty() {
                        registry.pages.remove(&page);
                    } else {
                        ctx.machine.space.protect(page, Perms::READ | Perms::EXEC);
                        note_mprotect(ctx, page, false);
                    }
                    ctx.end_exclusive();
                    ctx.stats.mprotect_ns += start.elapsed().as_nanos() as u64;
                }
                drop(guard);
                ctx.cpu.monitor.addr = None;
                ctx.note_sc(addr, ok, new);
                Ok(!ok as u32)
            }),
        ));

        let shared = Arc::clone(&self.shared);
        self.clrex = Some(reg.register(
            "pst_clrex",
            Box::new(move |ctx, _args| {
                let mut guard = lock_registry(&shared, ctx);
                drop_own_monitor_locked(ctx, &mut guard)?;
                drop(guard);
                ctx.cpu.monitor.addr = None;
                ctx.note_clrex();
                Ok(0)
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
        lower_helper2(b, self.sc.expect("installed"), addr, value, rd);
    }

    fn lower_clrex(&self, b: &mut BlockBuilder) {
        b.push(Op::Helper {
            id: self.clrex.expect("installed"),
            args: vec![],
            ret: None,
        });
    }

    fn on_page_fault(
        &self,
        ctx: &mut ExecCtx<'_>,
        fault: PageFault,
        width: Width,
    ) -> FaultOutcome<'_> {
        match (fault.kind, fault.access) {
            (FaultKind::Protected, Access::Store) => {
                handle_protected_store(&self.shared, ctx, fault, width)
            }
            // PST never unmaps pages and keeps read+exec; anything else
            // is a guest bug.
            _ => FaultOutcome::Fatal,
        }
    }
}

// ---------------------------------------------------------------------------
// PST-REMAP
// ---------------------------------------------------------------------------

/// The remap-optimized PST variant.
#[derive(Debug, Default)]
pub struct PstRemap {
    shared: Arc<PstShared>,
    ll: Option<HelperId>,
    sc: Option<HelperId>,
    clrex: Option<HelperId>,
}

impl PstRemap {
    /// Creates the scheme.
    pub fn new() -> PstRemap {
        PstRemap::default()
    }
}

impl AtomicScheme for PstRemap {
    fn name(&self) -> &'static str {
        "pst-remap"
    }

    fn atomicity(&self) -> Atomicity {
        Atomicity::Strong
    }

    fn uses_page_protection(&self) -> bool {
        true
    }

    fn install(&mut self, reg: &mut HelperRegistry) {
        let shared = Arc::clone(&self.shared);
        self.ll = Some(reg.register(
            "pst_remap_ll",
            Box::new(move |ctx, args| pst_ll(&shared, ctx, args[0])),
        ));

        let shared = Arc::clone(&self.shared);
        self.sc = Some(reg.register(
            "pst_remap_sc",
            Box::new(move |ctx, args| {
                let (addr, new) = (args[0], args[1]);
                ctx.stats.sc += 1;
                let mut guard = lock_registry(&shared, ctx);
                let registry = &mut *guard;
                let mut ok = sc_registered(ctx, registry, addr);
                if ok && ctx.chaos_sc_fail() {
                    ok = false;
                }
                if ok {
                    let page = addr >> PAGE_SHIFT;
                    // The registry lock is held from the check above to
                    // the move back below, so one alias page serves
                    // every vCPU, however many there are.
                    let alias_page = ctx.machine.space.high_window_base();
                    let start = Instant::now();
                    ctx.stats.remap_calls += 2;
                    // One event per remap pair: away to the alias + back.
                    ctx.trace(TraceKind::Remap, page << PAGE_SHIFT, alias_page);
                    ctx.machine
                        .space
                        .move_page(page, alias_page, Perms::READ | Perms::WRITE)
                        .expect("monitored page is mapped");
                    // The original page is now unmapped: concurrent
                    // accesses fault MAPERR and wait in the handler.
                    if ctx.chaos_roll(ChaosSite::MprotectDelay) {
                        // Injected remap latency while the page is away —
                        // stretches the MAPERR window other threads wait in.
                        let _ = ctx.chaos_stall();
                    }
                    let alias_addr = (alias_page << PAGE_SHIFT) | (addr & (PAGE_SIZE - 1));
                    ctx.machine
                        .space
                        .store(alias_addr, Width::Word, new)
                        .expect("alias is writable");
                    // As in PST: the SC's store breaks every monitor on
                    // the stored word, competitors' included.
                    let list = registry.pages.get_mut(&page).expect("checked above");
                    list.retain(|m| !overlaps(m.addr, addr, Width::Word));
                    let perms = if list.is_empty() {
                        registry.pages.remove(&page);
                        Perms::RWX
                    } else {
                        Perms::READ | Perms::EXEC
                    };
                    ctx.machine
                        .space
                        .move_page(alias_page, page, perms)
                        .expect("alias was just mapped");
                    ctx.stats.mprotect_ns += start.elapsed().as_nanos() as u64;
                }
                drop(guard);
                ctx.cpu.monitor.addr = None;
                ctx.note_sc(addr, ok, new);
                Ok(!ok as u32)
            }),
        ));

        let shared = Arc::clone(&self.shared);
        self.clrex = Some(reg.register(
            "pst_remap_clrex",
            Box::new(move |ctx, _args| {
                let mut guard = lock_registry(&shared, ctx);
                drop_own_monitor_locked(ctx, &mut guard)?;
                drop(guard);
                ctx.cpu.monitor.addr = None;
                ctx.note_clrex();
                Ok(0)
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
        lower_helper2(b, self.sc.expect("installed"), addr, value, rd);
    }

    fn lower_clrex(&self, b: &mut BlockBuilder) {
        b.push(Op::Helper {
            id: self.clrex.expect("installed"),
            args: vec![],
            ret: None,
        });
    }

    fn on_page_fault(
        &self,
        ctx: &mut ExecCtx<'_>,
        fault: PageFault,
        width: Width,
    ) -> FaultOutcome<'_> {
        match (fault.kind, fault.access) {
            (FaultKind::Protected, Access::Store) => {
                handle_protected_store(&self.shared, ctx, fault, width)
            }
            // MAPERR: the page is (most likely) remapped away by an SC in
            // flight. Taking the registry lock waits for that SC; if the
            // page is mapped again afterwards, retry the access.
            (FaultKind::Unmapped, _) => {
                let guard = lock_registry(&self.shared, ctx);
                let mapped = ctx.machine.space.perms(fault.vaddr >> PAGE_SHIFT).is_some();
                drop(guard);
                if mapped {
                    FaultOutcome::Retry
                } else {
                    // No SC in flight and still unmapped: a wild access.
                    FaultOutcome::Fatal
                }
            }
            _ => FaultOutcome::Fatal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemes_report_page_protection() {
        assert!(Pst::new().uses_page_protection());
        assert!(PstRemap::new().uses_page_protection());
    }
}
