//! PICO-ST: the prior software store-test scheme (paper §II-B).
//!
//! A registry maps each thread to its active LL/SC monitor. *Every*
//! guest store is preceded by a helper that takes a global lock and
//! clears any other thread's monitor overlapping the store's footprint —
//! which is why PICO-ST cannot use a cheap inline sequence and why the
//! paper measures 20–45% overhead from store instrumentation alone. LL
//! and SC take the same lock.
//!
//! This implementation reproduces the scheme's subtle pitfall: the
//! monitor-clearing *check* and the store itself are separate steps —
//! the registry lock is released when the helper returns, and only then
//! does the store execute. A thread descheduled in that gap lets a
//! competitor LL the just-cleared word and SC it successfully even
//! though the pending store lands in between: an overlapping-LL/SC miss.
//! The gap is marked with [`Op::Window`], so deterministic scheduled
//! runs (`adbt-check`) can deschedule exactly there and enumerate the
//! window's interleavings; every other execution mode treats the marker
//! as a no-op and interleaves at block boundaries, where the
//! helper+store pair is never split.

use crate::overlaps;
use adbt_engine::{AtomicScheme, Atomicity, ChaosSite, ExecCtx, HelperRegistry, Stat, TraceKind};
use adbt_ir::{BlockBuilder, HelperId, Op, Slot, Src};
use adbt_mmu::{Access, Width};
use adbt_sync::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The shared monitor registry: tid → monitored address.
#[derive(Debug, Default)]
struct Registry {
    monitors: HashMap<u32, u32>,
}

/// Acquires the global lock, timing only contended acquisitions into
/// the lock-wait bucket.
/// Acquires the registry lock. `global` marks LL/SC-path acquisitions,
/// which the simulator queues on the shared-resource clock; the
/// store-path check-and-update is modelled as a fine-grained lock (its
/// cost is the helper dispatch itself), matching the paper's account
/// that PICO-ST's overhead is instrumentation, not lock saturation.
fn lock_registry<'a>(
    shared: &'a Mutex<Registry>,
    ctx: &mut ExecCtx<'_>,
    global: bool,
) -> MutexGuard<'a, Registry> {
    if global {
        ctx.stats.lock_acquisitions += 1;
    }
    // Injected lock-acquire stall: models a descheduled lock holder.
    if ctx.chaos_roll(ChaosSite::LockStall) {
        let stall = ctx.chaos_stall();
        ctx.count(Stat::lock_wait_ns, stall);
    }
    if let Some(guard) = shared.try_lock() {
        return guard;
    }
    let start = Instant::now();
    let guard = shared.lock();
    ctx.count(Stat::lock_wait_ns, start.elapsed().as_nanos() as u64);
    guard
}

fn decode_width(code: u32) -> Width {
    match code {
        0 => Width::Byte,
        1 => Width::Half,
        _ => Width::Word,
    }
}

fn width_code(width: Width) -> u32 {
    match width {
        Width::Byte => 0,
        Width::Half => 1,
        Width::Word => 2,
    }
}

/// The PICO-ST scheme.
#[derive(Debug, Default)]
pub struct PicoSt {
    shared: Arc<Mutex<Registry>>,
    ll: Option<HelperId>,
    sc: Option<HelperId>,
    store: Option<HelperId>,
    clrex: Option<HelperId>,
}

impl PicoSt {
    /// Creates the scheme.
    pub fn new() -> PicoSt {
        PicoSt::default()
    }
}

impl AtomicScheme for PicoSt {
    fn name(&self) -> &'static str {
        "pico-st"
    }

    fn atomicity(&self) -> Atomicity {
        Atomicity::Strong
    }

    fn install(&mut self, reg: &mut HelperRegistry) {
        let shared = Arc::clone(&self.shared);
        self.ll = Some(reg.register(
            "pico_st_ll",
            Box::new(move |ctx, args| {
                let addr = args[0];
                ctx.stats.ll += 1;
                let mut guard = lock_registry(&shared, ctx, true);
                guard.monitors.insert(ctx.cpu.tid, addr);
                // Load while holding the lock so registration and read
                // are one atomic step with respect to competing stores.
                let value = ctx.load(addr, Width::Word)?;
                drop(guard);
                ctx.cpu.monitor.addr = Some(addr);
                ctx.cpu.monitor.value = value;
                ctx.trace(TraceKind::LlIssue, addr, 0);
                Ok(value)
            }),
        ));

        let shared = Arc::clone(&self.shared);
        self.sc = Some(reg.register(
            "pico_st_sc",
            Box::new(move |ctx, args| {
                let (addr, new) = (args[0], args[1]);
                ctx.stats.sc += 1;
                // Resolve the target before taking the registry lock: a
                // fault on the way may wait for a stop-the-world, and a
                // vCPU blocked on the lock never reaches a safepoint.
                let paddr = ctx.resolve(addr, Access::Store, Width::Word)?;
                let mut guard = lock_registry(&shared, ctx, true);
                let mut ok = guard.monitors.get(&ctx.cpu.tid) == Some(&addr);
                // Injected spurious SC failure (architecturally legal on
                // ARM); the registry entry is dropped below either way,
                // exactly as for a genuine failure.
                if ok && ctx.chaos_sc_fail() {
                    ok = false;
                }
                if ok {
                    // The SC's store breaks every monitor on the stored
                    // word — competing threads' included (Seq2–Seq4) —
                    // not just the executing thread's.
                    guard
                        .monitors
                        .retain(|_, &mut monitored| !overlaps(monitored, addr, Width::Word));
                    ctx.machine.space.mem().store(paddr, Width::Word, new);
                } else {
                    // A failed SC still clears the monitor: drop the
                    // registry entry so a retry without a fresh LL
                    // cannot spuriously succeed.
                    guard.monitors.remove(&ctx.cpu.tid);
                }
                drop(guard);
                ctx.cpu.monitor.addr = None;
                ctx.note_sc(addr, ok, new);
                Ok(!ok as u32)
            }),
        ));

        let shared = Arc::clone(&self.shared);
        self.store = Some(reg.register(
            "pico_st_store_test",
            Box::new(move |ctx, args| {
                let (addr, width) = (args[0], decode_width(args[1]));
                let mut guard = lock_registry(&shared, ctx, false);
                let tid = ctx.cpu.tid;
                // Clear every *other* thread's monitor this store hits
                // (the architecture keeps a thread's own monitor intact
                // across its own stores). The store itself follows as a
                // separate op after this helper returns — see the module
                // doc for the window that opens here. The raw guest store
                // op counts `stats.stores`; this helper must not.
                guard.monitors.retain(|&owner, &mut monitored| {
                    owner == tid || !overlaps(monitored, addr, width)
                });
                drop(guard);
                Ok(0)
            }),
        ));

        let shared = Arc::clone(&self.shared);
        self.clrex = Some(reg.register(
            "pico_st_clrex",
            Box::new(move |ctx, _args| {
                let mut guard = lock_registry(&shared, ctx, true);
                guard.monitors.remove(&ctx.cpu.tid);
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
        b.push(Op::Helper {
            id: self.sc.expect("installed"),
            args: vec![addr, value],
            ret: Some(rd),
        });
    }

    fn lower_clrex(&self, b: &mut BlockBuilder) {
        // The SC helper consults the *registry*, so clrex must drop the
        // registry entry, not just the local monitor record.
        b.push(Op::MonitorClear);
        b.push(Op::Helper {
            id: self.clrex.expect("installed"),
            args: vec![],
            ret: None,
        });
    }

    /// PICO-ST precedes every store with its locked check helper; the
    /// store itself stays a plain op, leaving the non-atomic gap the
    /// module doc describes ([`Op::Window`] marks it for scheduled runs).
    fn lower_store(&self, b: &mut BlockBuilder, src: Src, addr: Src, width: Width) {
        b.push(Op::Helper {
            id: self.store.expect("installed"),
            args: vec![addr, Src::Imm(width_code(width))],
            ret: None,
        });
        b.push(Op::Window);
        b.push(Op::Store {
            src,
            addr,
            width,
            guest_store: true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_codes_round_trip() {
        for width in [Width::Byte, Width::Half, Width::Word] {
            assert_eq!(decode_width(width_code(width)), width);
        }
    }
}
