//! The runtime layer translated code interacts with: traps, the helper
//! registry, and the per-thread execution context.

use crate::machine::{MachineCore, FAULT_RETRY_LIMIT};
use crate::state::{Vcpu, VcpuSnapshot};
use crate::stats::{Stat, Unit, VcpuStats};
use crate::watchdog::VcpuBeat;
use adbt_chaos::{ChaosSite, ChaosStream};
use adbt_htm::{AbortReason, Txn};
use adbt_ir::HelperId;
use adbt_mmu::{page_of, Access, FaultKind, PageFault, Width};
use adbt_profile::PcProfile;
use adbt_trace::{TraceEvent, TraceHandle, TraceKind};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// An event that aborts normal translated-code execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trap {
    /// The vCPU executed the exit syscall.
    Exit(i32),
    /// An unhandled page fault (guest bug or fatal scheme decision).
    Fault(PageFault),
    /// An undefined instruction (`udf` or a decode failure).
    Undefined {
        /// The faulting guest PC.
        addr: u32,
        /// The payload / raw word.
        info: u32,
    },
    /// An HTM transaction aborted; the run loop rolls back to the
    /// transaction's restart point.
    HtmAbort(AbortReason),
    /// Forward progress was lost (abort storms, unbounded fault retries —
    /// how PICO-HTM's livelock manifests here).
    Livelock {
        /// The guest PC at detection.
        pc: u32,
        /// What kind of loop was detected.
        what: &'static str,
    },
    /// An unknown supervisor-call number.
    BadSyscall {
        /// The offending number.
        num: u16,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Exit(code) => write!(f, "guest exit with code {code}"),
            Trap::Fault(fault) => write!(f, "unhandled {fault}"),
            Trap::Undefined { addr, info } => {
                write!(f, "undefined instruction at {addr:#010x} (info {info:#x})")
            }
            Trap::HtmAbort(reason) => write!(f, "HTM abort: {reason}"),
            Trap::Livelock { pc, what } => write!(f, "livelock at {pc:#010x}: {what}"),
            Trap::BadSyscall { num } => write!(f, "unknown syscall #{num}"),
        }
    }
}

impl std::error::Error for Trap {}

/// A runtime helper: receives the execution context plus evaluated
/// arguments, returns a word (or a trap).
pub type HelperFn =
    Box<dyn for<'m> Fn(&mut ExecCtx<'m>, &[u32]) -> Result<u32, Trap> + Send + Sync>;

/// Collects helpers during scheme installation and assigns them ids for
/// embedding into translated IR.
#[derive(Default)]
pub struct HelperRegistry {
    names: Vec<&'static str>,
    helpers: Vec<HelperFn>,
}

impl HelperRegistry {
    /// Creates an empty registry.
    pub fn new() -> HelperRegistry {
        HelperRegistry::default()
    }

    /// Registers a helper under a diagnostic name, returning its id.
    ///
    /// # Panics
    ///
    /// Panics after 65 536 registrations (ids are 16-bit).
    pub fn register(&mut self, name: &'static str, helper: HelperFn) -> HelperId {
        let id = u16::try_from(self.helpers.len()).expect("helper registry full");
        self.names.push(name);
        self.helpers.push(helper);
        HelperId(id)
    }

    pub(crate) fn into_parts(self) -> (Vec<&'static str>, Vec<HelperFn>) {
        (self.names, self.helpers)
    }
}

impl fmt::Debug for HelperRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HelperRegistry")
            .field("helpers", &self.names)
            .finish()
    }
}

/// How a page fault resolves: the verdict of the translation cache's
/// SMC claim or of the scheme's handler. Neither performs the access;
/// the fault path performs the faulting accessor's own access (load,
/// fetch, plain store, CAS, fused RMW) at the address it resolves.
pub enum FaultOutcome<'s> {
    /// Conditions changed (permissions restored, page remapped back, …):
    /// translate the access again.
    Retry,
    /// Perform the access through the MMU's permission-blind bypass
    /// translation: the page keeps its protection or write tracking, and
    /// this access may pass it. A handler whose decision must still hold
    /// when the access lands passes its [`Release`], which the fault
    /// path calls only after the access.
    Bypass(Option<Release<'s>>),
    /// Not a fault this scheme handles — report a guest crash.
    Fatal,
}

/// Ends a fault handler's hold on its [`FaultOutcome::Bypass`] decision
/// once the access has landed. PST's drops its registry lock guard: an
/// LL registering on the page in between would read the word without
/// the store the handler let through, and its SC could then overwrite
/// that store.
pub type Release<'s> = Box<dyn FnOnce() + 's>;

/// Everything a running vCPU thread carries: architectural state, local
/// statistics, machine services, and (for PICO-HTM) the open transaction
/// spanning the LL→SC window.
pub struct ExecCtx<'m> {
    /// The vCPU's architectural state.
    pub cpu: Vcpu,
    /// This thread's statistics (merged into the run report at exit).
    pub stats: VcpuStats,
    /// The shared machine.
    pub machine: &'m MachineCore,
    /// Total vCPUs in this run (guest-visible via a syscall).
    pub num_threads: u32,
    /// The open cross-block HTM transaction, if the scheme keeps one.
    pub txn: Option<Txn<'m>>,
    /// Rollback point for the open transaction: restart PC + register
    /// snapshot (RTM semantics: aborts restore everything).
    pub txn_restart: Option<(u32, VcpuSnapshot)>,
    /// Consecutive aborts of the current transactional region, for
    /// livelock detection.
    pub txn_retries: u64,
    /// This vCPU's deterministic fault-injection stream, when the machine
    /// runs with a chaos plane.
    pub chaos: Option<ChaosStream>,
    /// This vCPU's flight-recorder ring (plus the shared recorder for
    /// the clock and histograms), when the machine runs with tracing.
    /// Every trace site is a single predicted branch when `None`.
    pub trace: Option<TraceHandle>,
    /// Liveness heartbeat sampled by the watchdog (threaded runs only).
    pub beat: Option<Arc<VcpuBeat>>,
    /// This vCPU's guest-PC attribution table, when the machine runs
    /// with profiling. [`ExecCtx::count`] charges it behind a single
    /// predicted branch when `None`.
    pub prof: Option<Arc<PcProfile>>,
    /// The guest PC of the current attribution scope: the entered
    /// block's PC.
    pub(crate) prof_pc: u32,
    /// Blocks retired inside the current held window (capped by the run
    /// loop to turn a wedged window into a clean livelock verdict).
    pub region_blocks: u32,
    /// True when the robustness plane is armed (chaos or a watchdog);
    /// the dispatch loop's single extra branch keys off this.
    pub(crate) robust: bool,
    /// Consecutive failed SCs with no intervening success, fed to the
    /// retry policy by the robust hop (SC-storm backoff + livelock
    /// verdict).
    pub(crate) sc_fail_streak: u64,
    /// `stats.sc` as of the last robust hop, for per-hop deltas.
    pub(crate) sc_seen: u64,
    /// `stats.sc_failures` as of the last robust hop.
    pub(crate) sc_fail_seen: u64,
    /// Timestamp of the first failed SC of the current retry streak;
    /// taken by the next successful SC to feed the SC-retry-latency
    /// histogram. Tracing-enabled runs only.
    pub(crate) sc_fail_since: Option<u64>,
    /// One-shot flag set by [`ExecCtx::chaos_sc_fail`] so the SC
    /// outcome note labels the failure injected rather than organic.
    pub(crate) sc_injected: bool,
    /// True while the *held window* keeps the machine stopped: a
    /// storming retry loop (SC failures, or PICO-HTM region aborts) runs
    /// its next LL→SC attempt alone, so nothing can clobber or abort it
    /// and it must make progress (the degradation ladder's one
    /// stop-the-world rung). The boundary hop closes the window once an
    /// SC has run under it.
    pub(crate) sc_window: bool,
    /// How many stop-the-world sections this vCPU has entered and not
    /// yet left. Sections nest: only the outermost one (the held
    /// window, when it is open) enters and leaves the machine's barrier.
    exclusive_depth: u32,
    /// Deterministic runs at pause-point granularity: block execution
    /// pauses at `Op::Yield`/`Op::Window` so the scheduler can
    /// interleave inside marked windows, and every event
    /// [`ExecCtx::trace`] raises is also logged for the scheduler. Off
    /// on every hot path (a single cold branch per trace site).
    pub(crate) pause_points: bool,
    /// Whether other host threads may run this machine's vCPUs at the
    /// same time (QEMU's `CF_PARALLEL`). [`ExecCtx::new`] sets it; only
    /// the engine's drivers clear it, when one host thread runs every
    /// vCPU: the deterministic driver always, the threaded one for a
    /// single vCPU. In serial context the per-store hot sites (the
    /// inline store, `Htable_set` and the HTM conflict-token bump) skip
    /// host ordering but compute the same values: one host thread
    /// performing every access in program order is sequentially
    /// consistent without a fence. A host thread that inspects a live
    /// serial run does so from an exclusive section, whose mutex
    /// handshake with the parked vCPU orders the stores before it. It
    /// is not a memory-model option.
    pub(crate) parallel: bool,
    /// The scheduler's log: events raised since the driver last drained
    /// it, which stamps each with its atom number.
    pub(crate) events: Vec<TraceEvent>,
    /// Log entries raised inside an open HTM region transaction: held
    /// until the region commits (the region is atomic at its commit
    /// point) and dropped if it aborts (its speculative stores never
    /// became visible).
    pub(crate) txn_events: Vec<TraceEvent>,
    /// This thread's QSBR slot for translation-cache reclamation, set by
    /// the drivers (the deterministic one shares a slot among all its
    /// ctxs). `usize::MAX` means "no slot": the ctx never announces
    /// quiescence and never blocks a grace period.
    pub(crate) qsbr_slot: usize,
}

impl<'m> ExecCtx<'m> {
    /// Creates a context for `cpu` on `machine`.
    pub fn new(cpu: Vcpu, machine: &'m MachineCore, num_threads: u32) -> ExecCtx<'m> {
        let chaos = machine.chaos.as_ref().map(|plane| plane.stream(cpu.tid));
        let trace = machine.trace.as_ref().map(|rec| rec.handle(cpu.tid));
        let prof = machine.profile.as_ref().map(|rec| rec.profile(cpu.tid));
        let prof_pc = cpu.pc;
        let robust = chaos.is_some() || machine.config.watchdog_ms > 0;
        ExecCtx {
            cpu,
            stats: VcpuStats::default(),
            machine,
            num_threads,
            txn: None,
            txn_restart: None,
            txn_retries: 0,
            chaos,
            trace,
            beat: None,
            prof,
            prof_pc,
            region_blocks: 0,
            robust,
            sc_fail_streak: 0,
            sc_seen: 0,
            sc_fail_seen: 0,
            sc_fail_since: None,
            sc_injected: false,
            sc_window: false,
            exclusive_depth: 0,
            pause_points: false,
            parallel: true,
            events: Vec::new(),
            txn_events: Vec::new(),
            qsbr_slot: usize::MAX,
        }
    }

    /// Adds `n` to `stat`'s row and, when the row is a profile column
    /// and the profiler is armed, charges `n` to the current attribution
    /// scope: one call per counted event keeps the profile's columns the
    /// per-PC split of their rows.
    #[inline]
    pub fn count(&mut self, stat: Stat, n: u64) {
        self.count_at(self.prof_pc, stat, n);
    }

    /// [`count`](Self::count), charged to `pc` instead of the current
    /// scope — for costs that belong to a resolved PC (a retired
    /// block's, or the block a park held this vCPU away from).
    #[inline]
    pub(crate) fn count_at(&mut self, pc: u32, stat: Stat, n: u64) {
        *self.stats.field(stat) += n;
        if self.prof.is_some() {
            self.charge(pc, stat, n);
        }
    }

    /// The profiled half of [`count_at`](Self::count_at), out of line.
    /// Wall-clock rows are charged only in threaded runs: the
    /// deterministic modes measure no meaningful wall time, and charging
    /// scheduler noise would break their replay purity.
    #[inline(never)]
    fn charge(&self, pc: u32, stat: Stat, n: u64) {
        let row = stat.counter();
        if let (Some(prof), Some(column)) = (&self.prof, row.column) {
            if row.unit != Unit::Ns || self.machine.is_threaded() {
                prof.charge(pc, column, n);
            }
        }
    }

    /// Counts one retired block per guest PC a retirement batch reports,
    /// each charged to its own block.
    pub(crate) fn count_retired(&mut self, pcs: &[u32]) {
        for &pc in pcs {
            self.count_at(pc, Stat::retired_blocks, 1);
        }
    }

    /// Notes an HTM transaction beginning at `addr` after `retries`
    /// aborts: counts it and records `htm_begin`. Public, like the two
    /// notes below, so schemes with internal HTM retry loops (HST-HTM)
    /// note their transactions the way the region path does.
    pub fn note_htm_begin(&mut self, addr: u32, retries: u64) {
        self.stats.htm_txns += 1;
        self.trace(TraceKind::HtmBegin, addr, saturate(retries));
    }

    /// Notes an HTM commit at `addr` that ended an abort streak of
    /// `streak`: delivers the log entries a region transaction held,
    /// then records `htm_commit` and the streak's histogram sample.
    pub fn note_htm_commit(&mut self, addr: u32, streak: u64) {
        self.events.append(&mut self.txn_events);
        self.trace(TraceKind::HtmCommit, addr, saturate(streak));
        self.trace_htm_streak(streak);
    }

    /// Notes an HTM abort of the transaction at `addr`: counts it and
    /// records the `htm_abort` trace event, whose payload is the
    /// reason's code.
    pub fn note_htm_abort(&mut self, addr: u32, reason: AbortReason) {
        self.count(Stat::htm_aborts, 1);
        self.trace(TraceKind::HtmAbort, addr, reason.code());
    }

    /// Notes a step down the degradation ladder at `addr`, after a
    /// streak of `streak` failed attempts: counts it and records
    /// `degrade`.
    pub fn note_degrade(&mut self, addr: u32, streak: u64) {
        self.stats.degradations += 1;
        self.trace(TraceKind::Degrade, addr, saturate(streak));
    }

    /// Notes an SC outcome on `addr`, counting a failure. Scheme helpers
    /// that resolve the SC themselves (rather than through
    /// `Op::MonitorScCas`) must call this *after* the store's visibility
    /// is decided, and not at all when the SC traps.
    #[inline]
    pub fn note_sc(&mut self, addr: u32, ok: bool, value: u32) {
        if !ok {
            self.count(Stat::sc_failures, 1);
        }
        if self.trace.is_some() || self.pause_points {
            self.trace_sc(addr, ok, value);
        }
    }

    /// Notes a `clrex` (monitor disarm).
    #[inline]
    pub fn note_clrex(&mut self) {
        self.trace(TraceKind::Clrex, 0, 0);
        self.count(Stat::monitor_clears, 1);
    }

    /// Current flight-recorder timestamp: nanoseconds since the
    /// recorder epoch on real threads, retired instructions in the
    /// deterministic modes (where wall time carries no meaning and
    /// would break replay).
    #[inline]
    fn trace_ts(&self, handle: &TraceHandle) -> u64 {
        if self.machine.is_threaded() {
            handle.recorder.now_ns()
        } else {
            self.stats.insns
        }
    }

    /// Raises one event, the engine's one event call: appends it to
    /// this vCPU's flight-recorder ring when tracing is on and, at
    /// pause-point granularity, to the scheduler's log. Each disabled
    /// sink is a single predicted branch; the ring costs a clock read
    /// plus four relaxed stores.
    #[inline]
    pub fn trace(&mut self, kind: TraceKind, addr: u32, value: u32) {
        self.record(kind, addr, value);
    }

    /// [`trace`](Self::trace), returning the ring's timestamp when
    /// tracing is on.
    #[inline]
    fn record(&mut self, kind: TraceKind, addr: u32, value: u32) -> Option<u64> {
        let ts = self.trace.as_ref().map(|handle| {
            let ts = self.trace_ts(handle);
            handle.ring.record(ts, kind, addr, value);
            ts
        });
        if self.pause_points {
            self.log(kind, addr, value);
        }
        ts
    }

    /// Appends one event to the scheduler's log, or holds it while a
    /// region transaction is open. The driver stamps it with its atom
    /// number when it drains the log.
    #[cold]
    fn log(&mut self, kind: TraceKind, addr: u32, value: u32) {
        let event = TraceEvent {
            ts: 0,
            tid: self.cpu.tid,
            kind,
            addr,
            value,
        };
        if self.txn.is_some() {
            self.txn_events.push(event);
        } else {
            self.events.push(event);
        }
    }

    /// The SC-outcome event: labels the failure organic vs injected,
    /// tracks the retry streak's start, and feeds the SC-retry-latency
    /// histogram when a success ends the streak.
    #[cold]
    fn trace_sc(&mut self, addr: u32, ok: bool, value: u32) {
        let kind = match (ok, std::mem::take(&mut self.sc_injected)) {
            (true, _) => TraceKind::ScOk,
            (false, true) => TraceKind::ScFailInjected,
            (false, false) => TraceKind::ScFail,
        };
        let (Some(ts), Some(handle)) = (self.record(kind, addr, value), &self.trace) else {
            return;
        };
        if !ok {
            self.sc_fail_since.get_or_insert(ts);
        } else if let Some(since) = self.sc_fail_since.take() {
            handle
                .recorder
                .hists
                .sc_retry
                .record(ts.saturating_sub(since));
        }
    }

    /// Records an entry into the stop-the-world section, the outermost
    /// one, after `waited` ns of waiting: the nesting depth, the entry
    /// and the wait, the entry-wait histogram, and the opening edge of
    /// the span. Like [`Self::trace_ts`], the
    /// event suppresses the measured wait in deterministic modes (always
    /// an uncontended acquire there — the measured nanoseconds are
    /// scheduler noise that would make traces of identical runs differ
    /// byte-for-byte).
    fn entered_exclusive(&mut self, waited: u64) {
        self.exclusive_depth = 1;
        self.count(Stat::exclusive_entries, 1);
        self.count(Stat::exclusive_ns, waited);
        let waited = if self.machine.is_threaded() {
            waited
        } else {
            0
        };
        if let Some(handle) = &self.trace {
            handle.recorder.hists.exclusive_wait.record(waited);
        }
        self.trace(TraceKind::ExclusiveEnter, 0, saturate(waited));
    }

    /// Records a completed HTM abort streak (ended by a commit or a
    /// degradation) in its histogram. Public so schemes with internal
    /// HTM retry loops (HST-HTM) can feed the same histogram.
    pub fn trace_htm_streak(&self, streak: u64) {
        if streak > 0 {
            if let Some(handle) = &self.trace {
                handle.recorder.hists.htm_abort_streak.record(streak);
            }
        }
    }

    /// Rolls the chaos dice for `site`: returns `true` (and records the
    /// injection) when a fault should fire here. Always `false` without a
    /// chaos plane.
    #[inline]
    pub fn chaos_roll(&mut self, site: ChaosSite) -> bool {
        self.roll(site, ChaosStream::roll)
    }

    /// Draws from this vCPU's chaos stream with `draw` and, on a hit,
    /// records the injection at `site`: the counter, the event and the
    /// plane's per-site tally.
    #[inline]
    fn roll(&mut self, site: ChaosSite, draw: fn(&mut ChaosStream) -> bool) -> bool {
        let Some(stream) = &mut self.chaos else {
            return false;
        };
        // The held window is injection-free: it is the ladder's
        // guaranteed-completion rung, so nothing may spuriously fail
        // inside it.
        if self.sc_window || !draw(stream) {
            return false;
        }
        self.stats.injected_faults += 1;
        self.trace(TraceKind::Chaos, 0, site as u32);
        if let Some(plane) = &self.machine.chaos {
            plane.record(site);
        }
        true
    }

    /// Rolls the chaos dice for an injected spurious SC failure. On a
    /// hit, tags the failure as injected (both in the dedicated stats
    /// counter and for the flight recorder's outcome labeling) so
    /// chaos-made noise never pollutes the organic contention numbers.
    /// Scheme SC helpers call this instead of rolling `ScFail` raw.
    #[inline]
    pub fn chaos_sc_fail(&mut self) -> bool {
        if self.chaos_roll(ChaosSite::ScFail) {
            self.stats.sc_failures_injected += 1;
            self.sc_injected = true;
            true
        } else {
            false
        }
    }

    /// A deterministic coin flip from the chaos stream (used to pick
    /// between abort flavours). `false` without a chaos plane.
    #[inline]
    pub fn chaos_flip(&mut self) -> bool {
        self.chaos.as_mut().is_some_and(|stream| stream.flip())
    }

    /// Injects a deterministic-length latency spike and returns the
    /// nanoseconds to charge to the caller's profile bucket.
    ///
    /// In threaded runs the stall is a short bounded spin followed by
    /// one `yield_now` — the thread loses the CPU at an inconvenient
    /// moment, which is exactly the event being modelled. It must NOT
    /// busy-spin the whole drawn duration: a multi-millisecond spin on
    /// an oversubscribed host starves the very threads a stop-the-world
    /// requester is waiting on, convoying every exclusive section behind
    /// OS timeslice expiry (observed as a near-hang on a 1-core host).
    /// The single-threaded schedulers have nothing to overlap a real
    /// delay with, so they charge a synthetic duration without burning
    /// wall time at all — which also makes their stall accounting
    /// replayable.
    #[cold]
    pub fn chaos_stall(&mut self) -> u64 {
        let units = self.chaos.as_mut().map_or(0, |stream| stream.stall_units());
        if !self.machine.is_threaded() {
            return u64::from(units) * 16;
        }
        let start = Instant::now();
        for _ in 0..units.min(256) {
            std::hint::spin_loop();
        }
        std::thread::yield_now();
        start.elapsed().as_nanos() as u64
    }

    /// Whether an LL→SC region is open: a region transaction, or the
    /// held window standing in for one.
    #[inline]
    pub fn region_active(&self) -> bool {
        self.txn.is_some() || self.sc_window
    }

    /// Drops any open region state: discards an uncommitted transaction
    /// and, crucially, leaves the held window's exclusive section so a
    /// trap or halt inside it cannot wedge every other vCPU.
    pub fn release_region(&mut self) {
        self.txn = None;
        self.txn_restart = None;
        self.txn_retries = 0;
        self.region_blocks = 0;
        self.txn_events.clear();
        if self.sc_window {
            self.sc_window = false;
            self.end_exclusive();
        }
    }

    /// Opens the held window after a streak of `streak` failed
    /// attempts: holds the machine stopped (as the named holder, so this
    /// vCPU's own safepoints pass through) across the next LL→SC
    /// attempt, as the outermost exclusive section: the sections the
    /// attempt enters nest inside it. With the world stopped from
    /// *before* the LL, no competitor can clobber the claim and no
    /// conflict can abort the region, so the attempt must complete. The
    /// boundary hop closes the window once an SC has run under it (or
    /// caps a runaway one). Returns `false` (without opening anything)
    /// if the machine halted while waiting for exclusivity — the caller
    /// must abandon the vCPU.
    pub(crate) fn open_sc_window(&mut self, streak: u64) -> bool {
        let Ok(waited) = self.machine.exclusive.start_exclusive_as(self.cpu.tid) else {
            return false;
        };
        self.note_degrade(self.cpu.pc, streak);
        self.entered_exclusive(waited);
        self.sc_window = true;
        // The hop's SC deltas restart here, so the first SC counted
        // after this point is the windowed attempt's.
        self.sc_seen = self.stats.sc;
        self.sc_fail_seen = self.stats.sc_failures;
        self.region_blocks = 0;
        true
    }

    /// Closes the held window, resuming every parked vCPU.
    pub(crate) fn close_sc_window(&mut self) {
        self.sc_window = false;
        self.region_blocks = 0;
        self.end_exclusive();
    }

    /// Performs a guest load, routing faults to the scheme handler and
    /// transactional reads through the open transaction.
    ///
    /// # Errors
    ///
    /// Traps on unhandled faults, fault-retry livelock, or HTM abort.
    #[inline]
    pub fn load(&mut self, vaddr: u32, width: Width) -> Result<u32, Trap> {
        // The common case stays inline: a translated page, no open
        // transaction. Everything else takes the out-of-line path.
        if self.txn.is_none() {
            if let Ok(paddr) = self.machine.space.translate(vaddr, Access::Load, width) {
                let mem = self.machine.space.mem();
                return Ok(if self.machine.htm_enabled {
                    self.machine.htm.consistent_load(mem, paddr, width)
                } else {
                    mem.load(paddr, width)
                });
            }
        }
        self.load_slow(vaddr, width)
    }

    /// [`ExecCtx::load`]'s transactional reads and fault path.
    #[cold]
    #[inline(never)]
    fn load_slow(&mut self, vaddr: u32, width: Width) -> Result<u32, Trap> {
        self.perform(vaddr, Access::Load, width, |ctx, paddr| {
            let mem = ctx.machine.space.mem();
            match &mut ctx.txn {
                Some(txn) => txn.load(mem, paddr, width).map_err(|reason| {
                    ctx.txn = None;
                    Trap::HtmAbort(reason)
                }),
                // Under an HTM scheme, plain loads must be atomic with
                // respect to commits (as on real HTM); the consistent read
                // prevents an LL from observing a half-committed SC and
                // re-committing stale data.
                None if ctx.machine.htm_enabled => {
                    Ok(ctx.machine.htm.consistent_load(mem, paddr, width))
                }
                None => Ok(mem.load(paddr, width)),
            }
        })
    }

    /// Fetches one instruction word for translation, routing faults to
    /// the scheme handler (a page can be transiently unmapped while
    /// PST-REMAP holds it moved).
    ///
    /// # Errors
    ///
    /// Traps on unhandled faults or fault-retry livelock.
    pub fn fetch_word(&mut self, vaddr: u32) -> Result<u32, Trap> {
        self.perform(vaddr, Access::Fetch, Width::Word, |ctx, paddr| {
            Ok(ctx.machine.space.mem().load(paddr, Width::Word))
        })
    }

    /// Performs a guest store; `guest_store` marks architectural stores
    /// (which HTM conflict detection must observe).
    ///
    /// # Errors
    ///
    /// Traps on unhandled faults, fault-retry livelock, or HTM abort.
    // Always inline: with a store for each context the fast path
    // outgrew LLVM's inline threshold, and the executor paid a call per
    // guest store (measured ~10% of `run_sim` time on the schemes whose
    // stores have no other instrumentation).
    #[inline(always)]
    pub fn store(
        &mut self,
        vaddr: u32,
        width: Width,
        value: u32,
        guest_store: bool,
    ) -> Result<(), Trap> {
        // The common case stays inline: a translated page, no open
        // transaction, no pause points to report the store to.
        if self.txn.is_none() && !self.pause_points {
            if let Ok(paddr) = self.machine.space.translate(vaddr, Access::Store, width) {
                let mem = self.machine.space.mem();
                if self.parallel {
                    mem.store(paddr, width, value);
                } else {
                    mem.store_serial(paddr, width, value);
                }
                if guest_store && self.machine.htm_enabled {
                    self.notify_plain_store(paddr);
                }
                return Ok(());
            }
        }
        self.store_slow(vaddr, width, value, guest_store)
    }

    /// Bumps the HTM conflict token of a plain store's target, so open
    /// transactions that read it fail validation: one SeqCst RMW in
    /// parallel context, a plain +2 in serial context.
    #[inline]
    pub(crate) fn notify_plain_store(&self, paddr: u32) {
        let htm = &self.machine.htm;
        if self.parallel {
            htm.notify_plain_store(paddr);
        } else {
            htm.notify_plain_store_serial(paddr);
        }
    }

    /// [`ExecCtx::store`]'s transactional and pause-point paths and its
    /// fault path.
    #[cold]
    #[inline(never)]
    fn store_slow(
        &mut self,
        vaddr: u32,
        width: Width,
        value: u32,
        guest_store: bool,
    ) -> Result<(), Trap> {
        self.perform(vaddr, Access::Store, width, |ctx, paddr| {
            let mem = ctx.machine.space.mem();
            match &mut ctx.txn {
                Some(txn) => {
                    if let Err(reason) = txn.store(mem, paddr, width, value) {
                        ctx.txn = None;
                        return Err(Trap::HtmAbort(reason));
                    }
                }
                None => {
                    mem.store(paddr, width, value);
                    if guest_store && ctx.machine.htm_enabled {
                        ctx.machine.htm.notify_plain_store(paddr);
                    }
                }
            }
            Ok(())
        })?;
        if guest_store && self.pause_points {
            self.trace(TraceKind::GuestStore, vaddr, width.bytes());
        }
        Ok(())
    }

    /// A fused host atomic read-modify-write on a guest word (the §VI
    /// rule-based translation primitive). Returns the *old* value.
    ///
    /// Inherently ABA-free: no monitor, no instrumentation, no exclusion
    /// needed. If a region transaction is open (PICO-HTM), the fused op
    /// is still performed directly and the transaction is poisoned —
    /// mixing the two on one address is a pattern the pass does not
    /// claim to optimize.
    ///
    /// # Errors
    ///
    /// Traps on unhandled faults or fault-retry livelock.
    pub fn atomic_rmw(
        &mut self,
        vaddr: u32,
        op: adbt_mmu::RmwKind,
        operand: u32,
    ) -> Result<u32, Trap> {
        if let Some(txn) = &mut self.txn {
            txn.poison();
        }
        self.perform(vaddr, Access::Store, Width::Word, |ctx, paddr| {
            let old = ctx.machine.space.mem().fetch_rmw_word(paddr, op, operand);
            if ctx.machine.htm_enabled {
                ctx.machine.htm.notify_plain_store(paddr);
            }
            Ok(old)
        })
    }

    /// Host CAS on a guest word (the PICO-CAS `strex` primitive).
    /// Returns `true` on success. Faults take the one fault path; the
    /// CAS is then performed once, at the address it resolved to.
    ///
    /// # Errors
    ///
    /// Traps on unhandled faults or fault-retry livelock.
    pub fn cas_word(&mut self, vaddr: u32, expected: u32, new: u32) -> Result<bool, Trap> {
        self.perform(vaddr, Access::Store, Width::Word, |ctx, paddr| {
            let mem = ctx.machine.space.mem();
            let ok = mem.cas_word(paddr, expected, new).is_ok();
            if ok && ctx.machine.htm_enabled {
                ctx.machine.htm.notify_plain_store(paddr);
            }
            Ok(ok)
        })
    }

    /// Translates `vaddr` for `access`, taking the fault path when the
    /// page faults: the physical address the access must use. A scheme
    /// helper resolves its target through here before it takes a lock
    /// or opens a transaction (the fault path may wait for a
    /// stop-the-world, which a vCPU waiting on that lock or transaction
    /// would never join). A handler's hold on a `Bypass` decision ends
    /// when this returns, so a scheme whose handler holds one (PST)
    /// performs its accesses through an accessor instead.
    ///
    /// # Errors
    ///
    /// Traps on unhandled faults, a halted machine or fault-retry
    /// livelock.
    #[inline(always)]
    pub fn resolve(&mut self, vaddr: u32, access: Access, width: Width) -> Result<u32, Trap> {
        self.perform(vaddr, access, width, |_, paddr| Ok(paddr))
    }

    /// Performs `body`, the accessor's own access, at the physical
    /// address `vaddr` translates to for `access`: one MMU `translate`,
    /// and the fault path when the page faults. Every accessor goes
    /// through here; a handler's hold on a `Bypass` decision ends only
    /// after `body`.
    #[inline(always)]
    fn perform<R>(
        &mut self,
        vaddr: u32,
        access: Access,
        width: Width,
        body: impl FnOnce(&mut Self, u32) -> Result<R, Trap>,
    ) -> Result<R, Trap> {
        match self.machine.space.translate(vaddr, access, width) {
            Ok(paddr) => body(self, paddr),
            Err(fault) => {
                let (paddr, release) = self.resolve_fault(fault, width)?;
                let performed = body(self, paddr);
                if let Some(release) = release {
                    release();
                }
                performed
            }
        }
    }

    /// The one fault path: resolves `fault` until the access has an
    /// address. Each round counts the fault, turns a halted machine into
    /// a clean livelock verdict, rolls the fault-delay chaos site, lets
    /// the translation cache settle its SMC claim and hands the rest to
    /// the scheme's handler; a `Retry` translates again, a `Bypass`
    /// translates past the page's protection and returns the handler's
    /// [`Release`], if any, for the caller to call after the access.
    /// Non-fatal rounds are bounded, so even a misbehaving handler
    /// cannot loop the engine forever.
    // Out of line: inlined into `fetch_word`, which translation calls
    // once per guest instruction, the fault path cost e2ebench's
    // `big-code` about 6% of its guest MIPS (interleaved 30 s runs on a
    // 2-CPU x86-64 host).
    #[cold]
    #[inline(never)]
    fn resolve_fault(
        &mut self,
        mut fault: PageFault,
        width: Width,
    ) -> Result<(u32, Option<Release<'m>>), Trap> {
        let mut retries = 0u64;
        loop {
            self.note_fault(fault.vaddr);
            // A halted machine means the watchdog declared the run dead:
            // fault handlers that wait on exclusivity (PST's protect
            // paths) can no longer succeed, so convert what would be an
            // unbounded retry loop into a clean livelock verdict.
            if self.machine.exclusive.halted() {
                return Err(Trap::Livelock {
                    pc: self.cpu.pc,
                    what: "machine halted during fault handling",
                });
            }
            if self.chaos_roll(ChaosSite::FaultDelay) {
                // A latency spike in the fault-handler path (PST's
                // SIGSEGV round trip being slow); charged to the mprotect
                // bucket the page-protection schemes already use.
                self.stats.mprotect_ns += self.chaos_stall();
            }
            // Self-modifying code first: a store faulting into a
            // write-tracked code page is an *engine* event (the
            // translation cache hearing about a guest write over
            // translated code), settled before any scheme sees the fault.
            // Schemes only ever handle what remains after the tracking
            // bit's claim is settled.
            let claim = if fault.kind == FaultKind::Protected && fault.access == Access::Store {
                self.smc_claim(fault.vaddr, width)?
            } else {
                None
            };
            let machine = self.machine;
            let outcome = match claim {
                Some(outcome) => outcome,
                None => machine.scheme.on_page_fault(self, fault, width),
            };
            let space = &machine.space;
            let (translated, release) = match outcome {
                FaultOutcome::Fatal => return Err(Trap::Fault(fault)),
                FaultOutcome::Retry => (space.translate(fault.vaddr, fault.access, width), None),
                FaultOutcome::Bypass(release) => {
                    (space.translate_bypass(fault.vaddr, width), release)
                }
            };
            retries += 1;
            if retries > FAULT_RETRY_LIMIT {
                return Err(Trap::Livelock {
                    pc: self.cpu.pc,
                    what: "page-fault retry storm",
                });
            }
            match translated {
                Ok(paddr) => return Ok((paddr, release)),
                // A hold not returned ends with this round, before the
                // next one consults the handler again.
                Err(next) => fault = next,
            }
        }
    }

    /// Counts a page fault at `vaddr` and records `page_fault`.
    fn note_fault(&mut self, vaddr: u32) {
        self.stats.page_faults += 1;
        self.trace(TraceKind::PageFault, vaddr, 0);
    }

    /// Settles the translation cache's claim on a store that faulted on
    /// `vaddr`'s page: retires every translation whose guest bytes
    /// overlap the store, under a stop-the-world section. Returns
    /// `Retry` once the page's last translation is gone (the page is no
    /// longer tracked) and `Bypass` while other translations keep it
    /// tracked. Returns `None` when the fault is not the cache's — the
    /// page is not tracked, or ordinary permissions forbid the store as
    /// well (PST's protected pages) — and belongs to the scheme handler.
    ///
    /// # Errors
    ///
    /// [`Trap::Livelock`] if the machine halted while awaiting
    /// exclusivity.
    fn smc_claim(
        &mut self,
        vaddr: u32,
        width: Width,
    ) -> Result<Option<FaultOutcome<'static>>, Trap> {
        let page = page_of(vaddr);
        if !self.machine.space.write_tracked(page) {
            return Ok(None);
        }
        self.start_exclusive()?;
        let victims = self.machine.cache.victims_for_store(vaddr, width.bytes());
        if victims.is_empty() {
            // Code/data false sharing: the tracked page holds both
            // translated code and unrelated data, and this store hit
            // only data. Nothing to retire — the page stays tracked, so
            // such stores keep paying the fault-and-bypass toll.
            self.count(Stat::smc_false_sharing, 1);
        } else {
            self.invalidate(vaddr, &victims);
        }
        self.end_exclusive();
        let allows = self
            .machine
            .space
            .perms(page)
            .is_some_and(|perms| perms.allows(Access::Store));
        Ok(match (allows, self.machine.space.write_tracked(page)) {
            (false, _) => None,
            (true, false) => Some(FaultOutcome::Retry),
            (true, true) => Some(FaultOutcome::Bypass(None)),
        })
    }

    /// Retires the translations `victims` for a write at `addr` (a guest
    /// store over translated code, or an injected storm at the current
    /// pc), inside the caller's stop-the-world window: counts the
    /// invalidation and each retired block, charged to its own guest PC
    /// (the patched code pays, not the patching store's block), and
    /// records `invalidate` with the first victim's id.
    pub(crate) fn invalidate(&mut self, addr: u32, victims: &[u32]) {
        let epoch = self.machine.qsbr.begin_grace();
        let summary = self.machine.cache.retire_batch(victims, epoch);
        self.machine.untrack(&summary);
        if !summary.pcs.is_empty() {
            self.stats.invalidations += 1;
            self.count_retired(&summary.pcs);
            self.trace(TraceKind::Invalidate, addr, victims[0]);
        }
    }

    /// Rolls the separately-rated chaos dice for an injected translation
    /// invalidation ([`ChaosSite::Invalidate`]) — the storm mode that
    /// exercises the cache lifecycle under load. Consumes no draw from
    /// the shared stream when the storm rate is zero, so pre-existing
    /// campaigns replay byte-identically.
    #[inline]
    pub(crate) fn roll_invalidate(&mut self) -> bool {
        self.roll(ChaosSite::Invalidate, ChaosStream::roll_invalidate)
    }

    /// Enters the machine's stop-the-world exclusive section, counting
    /// the entry and its wait (`exclusive_entries`, `exclusive_ns`) once
    /// it is granted. Sections nest: while this vCPU already holds one
    /// (an outer section, or the held window) the machine is stopped and
    /// this only deepens the nesting — a fault settled inside a
    /// stop-the-world SC does not wait for itself.
    ///
    /// # Errors
    ///
    /// [`Trap::Livelock`] if the machine halted (watchdog teardown)
    /// before exclusivity was granted: the caller must not run its
    /// critical section and the vCPU winds down cleanly.
    pub fn start_exclusive(&mut self) -> Result<(), Trap> {
        if self.exclusive_depth > 0 {
            self.exclusive_depth += 1;
            return Ok(());
        }
        if self.chaos_roll(ChaosSite::ExclusiveStall) {
            // An injected stall on the way into the exclusive section
            // (requester descheduled at the worst moment).
            let stall = self.chaos_stall();
            self.count(Stat::exclusive_ns, stall);
        }
        match self.machine.exclusive.start_exclusive() {
            Ok(waited) => {
                self.entered_exclusive(waited);
                Ok(())
            }
            Err(_halted) => Err(Trap::Livelock {
                pc: self.cpu.pc,
                what: "machine halted while awaiting exclusivity",
            }),
        }
    }

    /// Leaves the innermost exclusive section; leaving the outermost one
    /// resumes every parked vCPU and records the span's closing edge.
    /// The held window is the outermost section while it is open, so the
    /// sections a scheme helper enters inside it leave the machine
    /// stopped: the boundary hop owns the close decision.
    pub fn end_exclusive(&mut self) {
        debug_assert!(self.exclusive_depth > 0, "unbalanced end_exclusive");
        self.exclusive_depth -= 1;
        if self.exclusive_depth == 0 {
            self.machine.exclusive.end_exclusive();
            self.trace(TraceKind::ExclusiveExit, 0, 0);
        }
    }

    /// Opens a cross-block HTM transaction whose abort rolls execution
    /// back to `restart_pc` with the current register state (PICO-HTM's
    /// `xbegin` at LL).
    ///
    /// Under the held window it opens none: nothing can interrupt the
    /// region, so it needs no rollback point. The region's stores then
    /// land directly, and the abort streak that earned the window ends
    /// here.
    pub fn begin_region_txn(&mut self, restart_pc: u32) {
        if self.sc_window {
            self.trace_htm_streak(self.txn_retries);
            self.txn_retries = 0;
            return;
        }
        self.note_htm_begin(restart_pc, self.txn_retries);
        self.txn_restart = Some((restart_pc, self.cpu.snapshot()));
        self.txn = Some(self.machine.htm.begin());
    }

    /// Commits the open region transaction; without one (the held
    /// window, whose stores already landed) there is nothing to commit.
    ///
    /// # Errors
    ///
    /// [`Trap::HtmAbort`] if validation fails; the run loop rolls back.
    pub fn commit_region_txn(&mut self) -> Result<(), Trap> {
        match self.txn.take() {
            Some(txn) => {
                if self.chaos_roll(ChaosSite::HtmCommit) {
                    // Spurious abort at commit, as real HTM is free to do
                    // at any time for any reason (interrupt, cache
                    // eviction, ...). Buffered writes are discarded.
                    let _ = txn.abort();
                    let reason = if self.chaos_flip() {
                        AbortReason::Conflict
                    } else {
                        AbortReason::Capacity
                    };
                    return Err(Trap::HtmAbort(reason));
                }
                match txn.commit(self.machine.space.mem()) {
                    Ok(()) => {
                        // Committing runs engine code that touches the
                        // shared dispatcher structures — the write half of
                        // the QEMU-inside-the-transaction conflict (see
                        // `HtmDomain::engine_token`).
                        self.machine
                            .htm
                            .notify_plain_store(adbt_htm::HtmDomain::engine_token(
                                self.stats.htm_txns as usize,
                            ));
                        // The region became visible as one atomic unit at
                        // this commit: its held log entries go first.
                        self.note_htm_commit(self.cpu.pc, self.txn_retries);
                        self.txn_restart = None;
                        self.txn_retries = 0;
                        Ok(())
                    }
                    Err(reason) => Err(Trap::HtmAbort(reason)),
                }
            }
            None => Ok(()),
        }
    }

    /// Executes a supervisor call. Syscall ABI:
    ///
    /// | num | name | effect |
    /// |---|---|---|
    /// | 0 | `exit` | terminate this vCPU with code `r0` |
    /// | 1 | `putc` | append `r0 as u8` to the machine's output buffer |
    /// | 2 | `gettid` | `r0` = this vCPU's 1-based tid |
    /// | 3 | `nthreads` | `r0` = number of vCPUs in the run |
    ///
    /// # Errors
    ///
    /// [`Trap::Exit`] for `exit`, [`Trap::BadSyscall`] for unknown numbers.
    pub fn syscall(&mut self, num: u16) -> Result<(), Trap> {
        match num {
            0 => Err(Trap::Exit(self.cpu.reg(0) as i32)),
            1 => {
                self.machine.output.lock().push(self.cpu.reg(0) as u8);
                Ok(())
            }
            2 => {
                self.cpu.set_reg(0, self.cpu.tid);
                Ok(())
            }
            3 => {
                self.cpu.set_reg(0, self.num_threads);
                Ok(())
            }
            num => Err(Trap::BadSyscall { num }),
        }
    }
}

/// `n` clamped into an event's 32-bit payload.
fn saturate(n: u64) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

impl fmt::Debug for ExecCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecCtx")
            .field("tid", &self.cpu.tid)
            .field("pc", &self.cpu.pc)
            .field("txn_open", &self.txn.is_some())
            .finish()
    }
}
