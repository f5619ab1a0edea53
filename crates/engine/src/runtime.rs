//! The runtime layer translated code interacts with: traps, the helper
//! registry, and the per-thread execution context.

use crate::arbiter::EpochSignals;
use crate::machine::MachineCore;
use crate::sched::SchedEvent;
use crate::state::{Vcpu, VcpuSnapshot};
use crate::stats::VcpuStats;
use crate::watchdog::VcpuBeat;
use adbt_chaos::{ChaosSite, ChaosStream};
use adbt_htm::{AbortReason, Txn};
use adbt_ir::HelperId;
use adbt_mmu::{page_of, Access, FaultKind, PageFault, Width};
use adbt_profile::{Metric as ProfMetric, PcProfile};
use adbt_trace::{TraceHandle, TraceKind};
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

/// What a faulting access was trying to do, given to the scheme's
/// page-fault handler so it can complete the access itself if it wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAccess {
    /// A data load.
    Load,
    /// A data store of `value` at the given width.
    Store {
        /// The value being stored.
        value: u32,
        /// The access width.
        width: Width,
    },
    /// An instruction fetch (translation-time).
    Fetch,
}

/// The scheme handler's verdict on a page fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Conditions changed (permissions restored, page remapped back, …):
    /// re-execute the faulting access.
    Retry,
    /// The handler performed the access itself; skip it.
    Done,
    /// Not a fault this scheme handles — report a guest crash.
    Fatal,
}

/// How the translation cache's claim on a faulting store was settled
/// (see [`ExecCtx::smc_settle`]). Internal to the SMC path.
enum SmcClaim {
    /// The page is not write-tracked, or permissions forbid the store
    /// anyway: the fault belongs to the scheme handler.
    NotOurs,
    /// The store's page is no longer tracked (its last translation was
    /// just retired): retry the access through the normal path.
    Untracked,
    /// Other live translations keep the page tracked: the caller must
    /// complete the access via `translate_bypass`, in its real shape
    /// (plain store, CAS, fused RMW).
    Bypass,
}

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
    /// with profiling. Every charge site is a single predicted branch
    /// when `None`.
    pub prof: Option<Arc<PcProfile>>,
    /// The guest PC of the current attribution scope: the entered
    /// block's PC.
    pub(crate) prof_pc: u32,
    /// Consecutive failed SCs since the last success, charged to the
    /// streak metric (at the streak's PC) when a success ends it.
    pub(crate) prof_sc_streak: u64,
    /// Where the current SC retry streak started; a streak that spans
    /// blocks is charged to its first failure's address.
    pub(crate) prof_streak_at: u32,
    /// True while a *degraded* region is open: instead of an HTM
    /// transaction, the LL→SC window runs under the machine's exclusive
    /// section (the stop-the-world fallback on the degradation ladder).
    pub region_exclusive: bool,
    /// Set when the retry budget for HTM regions is spent: the next
    /// [`ExecCtx::begin_region_txn`] opens a degraded region instead.
    pub degrade_next_region: bool,
    /// Blocks retired inside the current degraded region (capped by the
    /// run loop to turn a wedged region into a clean livelock verdict).
    pub region_blocks: u32,
    /// True when any robustness feature (chaos, watchdog, degradation)
    /// is live; the dispatch loop's single extra branch keys off this.
    pub robust: bool,
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
    /// True while a *degraded SC window* holds the machine stopped: a
    /// persistently storming SC retry loop runs its next LL→SC attempt
    /// alone, so the attempt cannot be clobbered and must make progress
    /// (the stop-the-world rung of the ladder for non-HTM schemes).
    pub(crate) sc_window: bool,
    /// `stats.sc` when the window opened; the boundary hop closes the
    /// window once an SC has run under it.
    pub(crate) sc_window_mark: u64,
    /// Deterministic runs at pause-point granularity: block execution
    /// pauses at `Op::Yield`/`Op::Window` so the scheduler can
    /// interleave inside marked windows, and atomicity events stream to
    /// the scheduler. Off on every hot path (a single cold branch per
    /// note site).
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
    /// Events produced since the scheduler last drained them.
    pub(crate) events: Vec<SchedEvent>,
    /// Events produced inside an open HTM region transaction: delivered
    /// on commit (the region is atomic at its commit point), discarded
    /// on abort (speculative stores never became visible).
    pub(crate) txn_events: Vec<SchedEvent>,
    /// This thread's QSBR slot for translation-cache reclamation, set by
    /// the drivers (the deterministic one shares a slot among all its
    /// ctxs). `usize::MAX` means "no slot": the ctx never announces
    /// quiescence and never blocks a grace period.
    pub(crate) qsbr_slot: usize,
    /// Retired-instruction threshold for this vCPU's next adaptive
    /// arbitration epoch; `u64::MAX` on static machines, so the poll
    /// never fires.
    pub(crate) adapt_next_epoch: u64,
    /// Cumulative-counter sample the next epoch's signal deltas are
    /// computed against.
    pub(crate) adapt_sample: EpochSignals,
    /// Last migration generation this vCPU observed; a mismatch at a
    /// block edge clears the exclusive monitor (an LL armed under the
    /// old scheme must not satisfy an SC lowered under the new one).
    pub(crate) adapt_generation: u64,
}

impl<'m> ExecCtx<'m> {
    /// Creates a context for `cpu` on `machine`.
    pub fn new(cpu: Vcpu, machine: &'m MachineCore, num_threads: u32) -> ExecCtx<'m> {
        let chaos = machine.chaos.as_ref().map(|plane| plane.stream(cpu.tid));
        let trace = machine.trace.as_ref().map(|rec| rec.handle(cpu.tid));
        let prof = machine.profile.as_ref().map(|rec| rec.profile(cpu.tid));
        let entry_pc = cpu.pc;
        let robust = chaos.is_some()
            || machine.config.watchdog_ms > 0
            || machine.config.htm_degrade_after > 0;
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
            prof_pc: entry_pc,
            prof_sc_streak: 0,
            prof_streak_at: entry_pc,
            region_exclusive: false,
            degrade_next_region: false,
            region_blocks: 0,
            robust,
            sc_fail_streak: 0,
            sc_seen: 0,
            sc_fail_seen: 0,
            sc_fail_since: None,
            sc_injected: false,
            sc_window: false,
            sc_window_mark: 0,
            pause_points: false,
            parallel: true,
            events: Vec::new(),
            txn_events: Vec::new(),
            qsbr_slot: usize::MAX,
            adapt_next_epoch: machine
                .adapt
                .as_ref()
                .map_or(u64::MAX, |a| a.config.epoch_insns),
            adapt_sample: EpochSignals::default(),
            adapt_generation: 0,
        }
    }

    /// Records an atomicity event for the scheduler (pause-point
    /// granularity only; a no-op branch everywhere else). Events raised
    /// inside an open region transaction are buffered until it commits.
    #[inline]
    pub fn note_event(&mut self, event: SchedEvent) {
        if !self.pause_points {
            return;
        }
        if self.txn.is_some() {
            self.txn_events.push(event);
        } else {
            self.events.push(event);
        }
    }

    /// Charges `amount` of `metric` to the current attribution scope.
    /// Duration metrics are zeroed outside threaded runs — the
    /// deterministic modes measure no meaningful wall time, and charging
    /// scheduler noise would break their replay purity.
    #[inline]
    pub fn prof_charge(&self, metric: ProfMetric, amount: u64) {
        if let Some(prof) = &self.prof {
            let amount = if metric.is_duration() && !self.machine.is_threaded() {
                0
            } else {
                amount
            };
            prof.charge(self.prof_pc, metric, amount);
        }
    }

    /// Charges `amount` of `metric` to an explicit guest address —
    /// used where the cost belongs to a *resolved* PC rather than the
    /// executing scope (invalidation victims resolved through the
    /// translation cache, safepoint parks).
    #[inline]
    pub fn prof_charge_at(&self, pc: u32, metric: ProfMetric, amount: u64) {
        if let Some(prof) = &self.prof {
            let amount = if metric.is_duration() && !self.machine.is_threaded() {
                0
            } else {
                amount
            };
            prof.charge(pc, metric, amount);
        }
    }

    /// Profile disposition of an SC outcome: failures charge the
    /// failure metric here and extend the retry streak; the success
    /// ending a streak charges the streak's accumulated length to the
    /// address where it started.
    #[cold]
    fn prof_sc(&mut self, ok: bool) {
        if ok {
            if self.prof_sc_streak > 0 {
                self.prof_charge_at(
                    self.prof_streak_at,
                    ProfMetric::ScStreak,
                    self.prof_sc_streak,
                );
                self.prof_sc_streak = 0;
            }
        } else {
            if self.prof_sc_streak == 0 {
                self.prof_streak_at = self.prof_pc;
            }
            self.prof_sc_streak += 1;
            self.prof_charge(ProfMetric::ScFail, 1);
        }
    }

    /// Charges an HTM abort to the current scope, split by reason.
    /// Public so schemes with internal HTM retry loops (HST-HTM) can
    /// attribute their aborts the same way the run loop does.
    #[inline]
    pub fn prof_htm_abort(&self, reason: AbortReason) {
        if self.prof.is_some() {
            let metric = match reason {
                AbortReason::Conflict => ProfMetric::HtmConflict,
                AbortReason::Capacity => ProfMetric::HtmCapacity,
                _ => ProfMetric::HtmOther,
            };
            self.prof_charge(metric, 1);
        }
    }

    /// Notes that this vCPU's LL armed its monitor on `addr`. Scheme
    /// helpers that arm the monitor themselves (rather than through
    /// `Op::MonitorArm`) must call this.
    #[inline]
    pub fn note_ll(&mut self, addr: u32) {
        self.trace(TraceKind::LlIssue, addr, 0);
        if self.pause_points {
            self.note_event(SchedEvent::Ll {
                tid: self.cpu.tid,
                addr,
            });
        }
    }

    /// Notes an SC outcome on `addr`. Scheme helpers that resolve the SC
    /// themselves (rather than through `Op::MonitorScCas`) must call
    /// this *after* the store's visibility is decided.
    #[inline]
    pub fn note_sc(&mut self, addr: u32, ok: bool, value: u32) {
        if self.trace.is_some() {
            self.trace_sc(addr, ok, value);
        }
        if self.prof.is_some() {
            self.prof_sc(ok);
        }
        if self.pause_points {
            self.note_event(SchedEvent::Sc {
                tid: self.cpu.tid,
                addr,
                ok,
                value,
            });
        }
    }

    /// Notes a `clrex` (monitor disarm).
    #[inline]
    pub fn note_clrex(&mut self) {
        self.trace(TraceKind::Clrex, 0, 0);
        self.prof_charge(ProfMetric::MonitorClear, 1);
        if self.pause_points {
            self.note_event(SchedEvent::Clrex { tid: self.cpu.tid });
        }
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

    /// Appends one event to this vCPU's flight-recorder ring. The
    /// disabled path is a single predicted branch; the enabled path is
    /// a clock read plus four relaxed stores.
    #[inline]
    pub fn trace(&self, kind: TraceKind, addr: u32, value: u32) {
        if let Some(handle) = &self.trace {
            handle.ring.record(self.trace_ts(handle), kind, addr, value);
        }
    }

    /// The SC-outcome trace site: labels the failure organic vs
    /// injected, tracks the retry streak's start, and feeds the
    /// SC-retry-latency histogram when a success ends the streak.
    #[cold]
    fn trace_sc(&mut self, addr: u32, ok: bool, value: u32) {
        let handle = self.trace.clone().expect("caller checked self.trace");
        let ts = self.trace_ts(&handle);
        if ok {
            self.sc_injected = false;
            if let Some(since) = self.sc_fail_since.take() {
                handle
                    .recorder
                    .hists
                    .sc_retry
                    .record(ts.saturating_sub(since));
            }
            handle.ring.record(ts, TraceKind::ScOk, addr, value);
        } else {
            if self.sc_fail_since.is_none() {
                self.sc_fail_since = Some(ts);
            }
            let kind = if std::mem::take(&mut self.sc_injected) {
                TraceKind::ScFailInjected
            } else {
                TraceKind::ScFail
            };
            handle.ring.record(ts, kind, addr, value);
        }
    }

    /// Records an exclusive-section entry: the opening edge of the
    /// span in the flight recorder plus the entry-wait histogram. Like
    /// [`Self::trace_ts`], deterministic modes suppress the measured
    /// wall-clock wait (always an uncontended acquire there — the
    /// measured nanoseconds are scheduler noise that would make traces
    /// of identical runs differ byte-for-byte).
    fn trace_exclusive_enter(&self, waited: u64) {
        if let Some(handle) = &self.trace {
            let waited = if self.machine.is_threaded() {
                waited
            } else {
                0
            };
            handle.recorder.hists.exclusive_wait.record(waited);
            let saturated = waited.min(u32::MAX as u64) as u32;
            handle.ring.record(
                self.trace_ts(handle),
                TraceKind::ExclusiveEnter,
                0,
                saturated,
            );
        }
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

    /// Hands the accumulated events to the caller (the deterministic
    /// driver drains after every atom).
    pub(crate) fn drain_events(&mut self) -> Vec<SchedEvent> {
        std::mem::take(&mut self.events)
    }

    /// Makes an aborted region transaction's buffered events disappear
    /// along with its speculative stores.
    #[inline]
    pub(crate) fn discard_txn_events(&mut self) {
        if !self.txn_events.is_empty() {
            self.txn_events.clear();
        }
    }

    /// Rolls the chaos dice for `site`: returns `true` (and records the
    /// injection) when a fault should fire here. Always `false` without a
    /// chaos plane.
    #[inline]
    pub fn chaos_roll(&mut self, site: ChaosSite) -> bool {
        // Degraded rungs (exclusive HTM regions, held SC windows) are
        // injection-free: they are the ladder's guaranteed-completion
        // fallback, so nothing may spuriously fail inside them.
        if self.region_exclusive || self.sc_window {
            return false;
        }
        let Some(stream) = &mut self.chaos else {
            return false;
        };
        if !stream.roll() {
            return false;
        }
        self.stats.injected_faults += 1;
        self.trace(TraceKind::Chaos, 0, site as u32);
        if let Some(plane) = &self.machine.chaos {
            plane.record(site);
        }
        if self.pause_points {
            self.note_event(SchedEvent::Chaos {
                tid: self.cpu.tid,
                site,
            });
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
        if self.robust && self.chaos_roll(ChaosSite::ScFail) {
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

    /// Whether an LL→SC region (transactional or degraded) is open.
    #[inline]
    pub fn region_active(&self) -> bool {
        self.txn.is_some() || self.region_exclusive
    }

    /// Drops any open region state: discards an uncommitted transaction
    /// and, crucially, leaves a degraded region's (or SC window's)
    /// exclusive section so a trap or halt inside it cannot wedge every
    /// other vCPU.
    pub fn release_region(&mut self) {
        self.txn = None;
        self.txn_restart = None;
        self.txn_retries = 0;
        self.region_blocks = 0;
        self.discard_txn_events();
        if self.region_exclusive {
            self.region_exclusive = false;
            self.machine.exclusive.end_exclusive();
            self.trace(TraceKind::ExclusiveExit, 0, 0);
            self.note_event(SchedEvent::ExclusiveExit { tid: self.cpu.tid });
        }
        if self.sc_window {
            self.sc_window = false;
            self.machine.exclusive.end_exclusive();
            self.trace(TraceKind::ExclusiveExit, 0, 0);
            self.note_event(SchedEvent::ExclusiveExit { tid: self.cpu.tid });
        }
    }

    /// Opens a degraded SC window: holds the machine stopped (as the
    /// named holder, so this vCPU's own safepoints pass through) across
    /// the next LL→SC attempt of a persistently storming SC retry loop.
    /// With the world stopped from *before* the LL, no competitor can
    /// clobber the claim, so the attempt is guaranteed to succeed —
    /// the stop-the-world rung of the degradation ladder, generalized
    /// from HTM regions to every LL/SC scheme. The boundary hop closes
    /// the window once an SC has run under it (or caps a runaway one).
    /// Returns `false` (without opening anything) if the machine halted
    /// while waiting for exclusivity — the caller must abandon the vCPU.
    pub(crate) fn open_sc_window(&mut self) -> bool {
        let Ok(waited) = self.machine.exclusive.start_exclusive_as(self.cpu.tid) else {
            return false;
        };
        self.stats.degradations += 1;
        self.stats.exclusive_entries += 1;
        self.stats.exclusive_ns += waited;
        self.prof_charge(ProfMetric::ExclEntry, 1);
        self.prof_charge(ProfMetric::ExclWaitNs, waited);
        self.trace(
            TraceKind::Degrade,
            self.cpu.pc,
            self.sc_fail_streak.min(u32::MAX as u64) as u32,
        );
        self.trace_exclusive_enter(waited);
        self.note_event(SchedEvent::ExclusiveEnter { tid: self.cpu.tid });
        self.sc_window = true;
        self.sc_window_mark = self.stats.sc;
        self.region_blocks = 0;
        true
    }

    /// Closes a degraded SC window, resuming every parked vCPU.
    pub(crate) fn close_sc_window(&mut self) {
        self.sc_window = false;
        self.region_blocks = 0;
        self.machine.exclusive.end_exclusive();
        self.trace(TraceKind::ExclusiveExit, 0, 0);
        self.note_event(SchedEvent::ExclusiveExit { tid: self.cpu.tid });
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

    /// [`ExecCtx::load`]'s transactional reads and fault/retry loop.
    #[cold]
    #[inline(never)]
    fn load_slow(&mut self, vaddr: u32, width: Width) -> Result<u32, Trap> {
        let mut retries = 0u64;
        loop {
            match self.machine.space.translate(vaddr, Access::Load, width) {
                Ok(paddr) => {
                    return match &mut self.txn {
                        Some(txn) => match txn.load(self.machine.space.mem(), paddr, width) {
                            Ok(v) => Ok(v),
                            Err(reason) => {
                                self.txn = None;
                                self.discard_txn_events();
                                Err(Trap::HtmAbort(reason))
                            }
                        },
                        // Under an HTM scheme, plain loads must be atomic
                        // with respect to commits (as on real HTM); the
                        // consistent read prevents an LL from observing a
                        // half-committed SC and re-committing stale data.
                        None if self.machine.htm_enabled => Ok(self.machine.htm.consistent_load(
                            self.machine.space.mem(),
                            paddr,
                            width,
                        )),
                        None => Ok(self.machine.space.mem().load(paddr, width)),
                    };
                }
                Err(fault) => {
                    // A handler cannot "perform" a load (`Done` carries no
                    // value), so both resolutions mean "try again".
                    let _ = self.handle_fault(fault, FaultAccess::Load, &mut retries)?;
                }
            }
        }
    }

    /// Fetches one instruction word for translation, routing faults to
    /// the scheme handler (a page can be transiently unmapped while
    /// PST-REMAP holds it moved).
    ///
    /// # Errors
    ///
    /// Traps on unhandled faults or fault-retry livelock.
    pub fn fetch_word(&mut self, vaddr: u32) -> Result<u32, Trap> {
        let mut retries = 0u64;
        loop {
            match self
                .machine
                .space
                .translate(vaddr, Access::Fetch, Width::Word)
            {
                Ok(paddr) => return Ok(self.machine.space.mem().load(paddr, Width::Word)),
                Err(fault) => {
                    let _ = self.handle_fault(fault, FaultAccess::Fetch, &mut retries)?;
                }
            }
        }
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
    /// fault/retry loop.
    #[cold]
    #[inline(never)]
    fn store_slow(
        &mut self,
        vaddr: u32,
        width: Width,
        value: u32,
        guest_store: bool,
    ) -> Result<(), Trap> {
        let mut retries = 0u64;
        loop {
            match self.machine.space.translate(vaddr, Access::Store, width) {
                Ok(paddr) => {
                    match &mut self.txn {
                        Some(txn) => {
                            if let Err(reason) =
                                txn.store(self.machine.space.mem(), paddr, width, value)
                            {
                                self.txn = None;
                                self.discard_txn_events();
                                return Err(Trap::HtmAbort(reason));
                            }
                        }
                        None => {
                            self.machine.space.mem().store(paddr, width, value);
                            if guest_store && self.machine.htm_enabled {
                                self.machine.htm.notify_plain_store(paddr);
                            }
                        }
                    }
                    if guest_store && self.pause_points {
                        self.note_event(SchedEvent::GuestStore {
                            tid: self.cpu.tid,
                            addr: vaddr,
                            width,
                        });
                    }
                    return Ok(());
                }
                Err(fault) => {
                    match self.handle_fault(
                        fault,
                        FaultAccess::Store { value, width },
                        &mut retries,
                    )? {
                        FaultOutcome::Done => {
                            // The handler stored it; the store is visible
                            // all the same.
                            if guest_store && self.pause_points {
                                self.note_event(SchedEvent::GuestStore {
                                    tid: self.cpu.tid,
                                    addr: vaddr,
                                    width,
                                });
                            }
                            return Ok(());
                        }
                        _ => continue,
                    }
                }
            }
        }
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
        let mut retries = 0u64;
        loop {
            match self
                .machine
                .space
                .translate(vaddr, Access::Store, Width::Word)
            {
                Ok(paddr) => {
                    let old = self.machine.space.mem().fetch_rmw_word(paddr, op, operand);
                    if self.machine.htm_enabled {
                        self.machine.htm.notify_plain_store(paddr);
                    }
                    return Ok(old);
                }
                Err(fault) => {
                    // The SMC claim settles here, not in `handle_fault`:
                    // the generic path would complete the access as a
                    // plain store, corrupting the fused RMW's atomicity.
                    if fault.kind == FaultKind::Protected {
                        match self.smc_claim_checked(fault, &mut retries)? {
                            Some(SmcClaim::Untracked) => continue,
                            Some(SmcClaim::Bypass) => {
                                let paddr = self
                                    .machine
                                    .space
                                    .translate_bypass(vaddr, Width::Word)
                                    .map_err(Trap::Fault)?;
                                let old =
                                    self.machine.space.mem().fetch_rmw_word(paddr, op, operand);
                                if self.machine.htm_enabled {
                                    self.machine.htm.notify_plain_store(paddr);
                                }
                                return Ok(old);
                            }
                            Some(SmcClaim::NotOurs) | None => {}
                        }
                    }
                    // Any resolved outcome retries the access (`Done`
                    // cannot express an RMW).
                    self.handle_fault(
                        fault,
                        FaultAccess::Store {
                            value: operand,
                            width: Width::Word,
                        },
                        &mut retries,
                    )?;
                }
            }
        }
    }

    /// Host CAS on a guest word (the PICO-CAS `strex` primitive).
    /// Returns `true` on success. Faults route to the scheme handler;
    /// a fault resolved as [`FaultOutcome::Done`] counts as failure.
    ///
    /// # Errors
    ///
    /// Traps on unhandled faults or fault-retry livelock.
    pub fn cas_word(&mut self, vaddr: u32, expected: u32, new: u32) -> Result<bool, Trap> {
        let mut retries = 0u64;
        loop {
            match self
                .machine
                .space
                .translate(vaddr, Access::Store, Width::Word)
            {
                Ok(paddr) => {
                    let ok = self
                        .machine
                        .space
                        .mem()
                        .cas_word(paddr, expected, new)
                        .is_ok();
                    if ok && self.machine.htm_enabled {
                        self.machine.htm.notify_plain_store(paddr);
                    }
                    return Ok(ok);
                }
                Err(fault) => {
                    // The SMC claim settles here, not in `handle_fault`:
                    // the generic path would complete the access as a
                    // plain store, and a CAS reported as "failed" after
                    // its value was stored anyway livelocks the guest's
                    // retry loop.
                    if fault.kind == FaultKind::Protected {
                        match self.smc_claim_checked(fault, &mut retries)? {
                            Some(SmcClaim::Untracked) => continue,
                            Some(SmcClaim::Bypass) => {
                                let paddr = self
                                    .machine
                                    .space
                                    .translate_bypass(vaddr, Width::Word)
                                    .map_err(Trap::Fault)?;
                                let ok = self
                                    .machine
                                    .space
                                    .mem()
                                    .cas_word(paddr, expected, new)
                                    .is_ok();
                                if ok && self.machine.htm_enabled {
                                    self.machine.htm.notify_plain_store(paddr);
                                }
                                return Ok(ok);
                            }
                            Some(SmcClaim::NotOurs) | None => {}
                        }
                    }
                    match self.handle_fault(
                        fault,
                        FaultAccess::Store {
                            value: new,
                            width: Width::Word,
                        },
                        &mut retries,
                    )? {
                        // `Done` (handler performed a plain store) cannot
                        // express CAS; report failure so the guest retries.
                        FaultOutcome::Done => return Ok(false),
                        _ => continue,
                    }
                }
            }
        }
    }

    /// Routes one fault to the scheme handler. Non-fatal outcomes bump
    /// `retries` (so even a misbehaving handler cannot loop the engine
    /// forever) and are returned for the caller to act on.
    fn handle_fault(
        &mut self,
        fault: PageFault,
        access: FaultAccess,
        retries: &mut u64,
    ) -> Result<FaultOutcome, Trap> {
        self.stats.page_faults += 1;
        self.trace(TraceKind::PageFault, fault.vaddr, 0);
        // A halted machine means the watchdog declared the run dead:
        // fault handlers that wait on exclusivity (PST's protect paths)
        // can no longer succeed, so convert what would be an unbounded
        // retry loop into a clean livelock verdict immediately.
        if self.machine.exclusive.halted() {
            return Err(Trap::Livelock {
                pc: self.cpu.pc,
                what: "machine halted during fault handling",
            });
        }
        if self.robust && self.chaos_roll(ChaosSite::FaultDelay) {
            // A latency spike in the fault-handler path (PST's SIGSEGV
            // round trip being slow); charged to the mprotect bucket the
            // page-protection schemes already use.
            self.stats.mprotect_ns += self.chaos_stall();
        }
        // Self-modifying code first: a store faulting into a
        // write-tracked code page is an *engine* event (the translation
        // cache hearing about a guest write over translated code),
        // resolved before any scheme sees the fault. Schemes only ever
        // handle what remains after the tracking bit's claim is settled.
        if fault.kind == FaultKind::Protected {
            if let FaultAccess::Store { value, width } = access {
                if let Some(outcome) = self.smc_store(fault.vaddr, value, width)? {
                    *retries += 1;
                    if *retries > self.machine.config.fault_retry_limit {
                        return Err(Trap::Livelock {
                            pc: self.cpu.pc,
                            what: "page-fault retry storm",
                        });
                    }
                    return Ok(outcome);
                }
            }
        }
        // Faults dispatch to the *active* scheme: after a migration off
        // a page-protection scheme its deactivation hook has already
        // unprotected everything, so no stale scheme can have a claim.
        let machine = self.machine;
        match machine.active_scheme().on_page_fault(self, fault, access) {
            FaultOutcome::Fatal => Err(Trap::Fault(fault)),
            outcome => {
                *retries += 1;
                if *retries > self.machine.config.fault_retry_limit {
                    return Err(Trap::Livelock {
                        pc: self.cpu.pc,
                        what: "page-fault retry storm",
                    });
                }
                Ok(outcome)
            }
        }
    }

    /// Resolves a store that faulted on a write-tracked code page — the
    /// SMC path. Retires every translation whose guest bytes overlap the
    /// store under the stop-the-world window, then completes or retries
    /// the store. Returns `Ok(None)` when the engine has no claim (page
    /// not tracked, or ordinary permissions forbid the write too) so the
    /// fault falls through to the scheme's handler.
    ///
    /// # Errors
    ///
    /// [`Trap::Livelock`] if the machine halted while awaiting
    /// exclusivity; [`Trap::HtmAbort`] if completing the store inside an
    /// open region transaction aborts it.
    fn smc_store(
        &mut self,
        vaddr: u32,
        value: u32,
        width: Width,
    ) -> Result<Option<FaultOutcome>, Trap> {
        match self.smc_settle(vaddr, width)? {
            SmcClaim::NotOurs => Ok(None),
            // The batch retired the page's last translation and untracked
            // it: the plain store now succeeds on retry.
            SmcClaim::Untracked => Ok(Some(FaultOutcome::Retry)),
            SmcClaim::Bypass => {
                // Other live translations keep the page tracked; complete
                // the store by bypass so it cannot fault on the tracking
                // bit again.
                let paddr = self
                    .machine
                    .space
                    .translate_bypass(vaddr, width)
                    .map_err(Trap::Fault)?;
                if let Some(txn) = &mut self.txn {
                    if let Err(reason) = txn.store(self.machine.space.mem(), paddr, width, value) {
                        self.txn = None;
                        self.discard_txn_events();
                        return Err(Trap::HtmAbort(reason));
                    }
                } else {
                    self.machine.space.mem().store(paddr, width, value);
                    if self.machine.htm_enabled {
                        self.machine.htm.notify_plain_store(paddr);
                    }
                }
                Ok(Some(FaultOutcome::Done))
            }
        }
    }

    /// [`ExecCtx::smc_settle`] plus the fault accounting and retry-storm
    /// guard that `handle_fault` would otherwise provide — for the
    /// atomic primitives, which settle the SMC claim before consulting
    /// the scheme. Folds `NotOurs` into `None` so callers fall through
    /// to the scheme handler (which does its own accounting).
    ///
    /// # Errors
    ///
    /// [`Trap::Livelock`] on the retry-storm limit or a halted machine.
    fn smc_claim_checked(
        &mut self,
        fault: PageFault,
        retries: &mut u64,
    ) -> Result<Option<SmcClaim>, Trap> {
        match self.smc_settle(fault.vaddr, Width::Word)? {
            SmcClaim::NotOurs => Ok(None),
            claim => {
                self.stats.page_faults += 1;
                self.trace(TraceKind::PageFault, fault.vaddr, 0);
                *retries += 1;
                if *retries > self.machine.config.fault_retry_limit {
                    return Err(Trap::Livelock {
                        pc: self.cpu.pc,
                        what: "page-fault retry storm",
                    });
                }
                Ok(Some(claim))
            }
        }
    }

    /// Settles the translation cache's claim on a store that faulted on
    /// `vaddr`'s page: retires overlapping translations under the
    /// stop-the-world window and reports how the caller should complete
    /// the access. The caller completes it rather than this function
    /// because only the caller knows the access's real shape — a plain
    /// store can be performed here, but a CAS or fused RMW performed as
    /// a plain store would corrupt the guest's atomicity (the reason
    /// [`ExecCtx::cas_word`] and [`ExecCtx::atomic_rmw`] settle the SMC
    /// claim themselves).
    ///
    /// # Errors
    ///
    /// [`Trap::Livelock`] if the machine halted while awaiting
    /// exclusivity.
    fn smc_settle(&mut self, vaddr: u32, width: Width) -> Result<SmcClaim, Trap> {
        let page = page_of(vaddr);
        if !self.machine.space.write_tracked(page) {
            return Ok(SmcClaim::NotOurs);
        }
        // A degraded region already holds the world stopped with this
        // vCPU as the named holder; re-requesting exclusivity would
        // self-deadlock. (`start_exclusive` handles the SC-window case
        // the same way itself.)
        let held_region = self.region_exclusive;
        if !held_region {
            self.start_exclusive()?;
        }
        let victims = self.machine.cache.victims_for_store(vaddr, width.bytes());
        if victims.is_empty() {
            // Code/data false sharing: the tracked page holds both
            // translated code and unrelated data, and this store hit
            // only data. Nothing to retire — the page stays tracked, so
            // such stores keep paying the fault-and-bypass toll.
            self.stats.smc_false_sharing += 1;
            self.prof_charge(ProfMetric::SmcFalseSharing, 1);
        } else {
            // Attribute the invalidation to each victim's *original*
            // guest PC, resolved through the translation cache before
            // the batch retires them — the patched code pays, not the
            // patching store's block.
            if self.prof.is_some() {
                for &victim in &victims {
                    if let Some(block) = self.machine.cache.block(victim) {
                        self.prof_charge_at(block.guest_pc, ProfMetric::Invalidation, 1);
                    }
                }
            }
            let epoch = self.machine.qsbr.begin_grace();
            let summary = self.machine.cache.retire_batch(&victims, epoch);
            for &p in &summary.untrack_pages {
                self.machine.space.write_untrack(p);
            }
            self.stats.invalidations += 1;
            self.stats.retired_blocks += summary.retired;
            self.trace(TraceKind::Invalidate, vaddr, victims[0]);
            if self.pause_points {
                self.note_event(SchedEvent::Invalidate {
                    tid: self.cpu.tid,
                    addr: vaddr,
                });
            }
        }
        if !held_region {
            self.end_exclusive();
        }
        // The tracking bit's claim is settled; if ordinary permissions
        // forbid the write as well, a scheme also owns this fault (PST's
        // protected pages) — hand it the remainder.
        let allows = self
            .machine
            .space
            .perms(page)
            .is_some_and(|perms| perms.allows(Access::Store));
        if !allows {
            return Ok(SmcClaim::NotOurs);
        }
        if !self.machine.space.write_tracked(page) {
            return Ok(SmcClaim::Untracked);
        }
        Ok(SmcClaim::Bypass)
    }

    /// Rolls the separately-rated chaos dice for an injected translation
    /// invalidation ([`ChaosSite::Invalidate`]) — the storm mode that
    /// exercises the cache lifecycle under load. Consumes no draw from
    /// the shared stream when the storm rate is zero, so pre-existing
    /// campaigns replay byte-identically.
    #[inline]
    pub(crate) fn roll_invalidate(&mut self) -> bool {
        // Same suppression as `chaos_roll`: degraded rungs are the
        // ladder's guaranteed-completion fallback.
        if self.region_exclusive || self.sc_window {
            return false;
        }
        let Some(stream) = &mut self.chaos else {
            return false;
        };
        if !stream.roll_invalidate() {
            return false;
        }
        self.stats.injected_faults += 1;
        self.trace(TraceKind::Chaos, 0, ChaosSite::Invalidate as u32);
        if let Some(plane) = &self.machine.chaos {
            plane.record(ChaosSite::Invalidate);
        }
        if self.pause_points {
            self.note_event(SchedEvent::Chaos {
                tid: self.cpu.tid,
                site: ChaosSite::Invalidate,
            });
        }
        true
    }

    /// Enters the machine's stop-the-world exclusive section, charging
    /// the wait to the exclusive profile bucket. A no-op while a
    /// degraded SC window is held — the machine is already stopped and
    /// this vCPU is the holder.
    ///
    /// # Errors
    ///
    /// [`Trap::Livelock`] if the machine halted (watchdog teardown)
    /// before exclusivity was granted: the caller must not run its
    /// critical section and the vCPU winds down cleanly.
    pub fn start_exclusive(&mut self) -> Result<(), Trap> {
        if self.sc_window {
            return Ok(());
        }
        self.stats.exclusive_entries += 1;
        if self.robust && self.chaos_roll(ChaosSite::ExclusiveStall) {
            // An injected stall on the way into the exclusive section
            // (requester descheduled at the worst moment).
            self.stats.exclusive_ns += self.chaos_stall();
        }
        match self.machine.exclusive.start_exclusive() {
            Ok(waited) => {
                self.stats.exclusive_ns += waited;
                self.prof_charge(ProfMetric::ExclEntry, 1);
                self.prof_charge(ProfMetric::ExclWaitNs, waited);
                self.trace_exclusive_enter(waited);
                self.note_event(SchedEvent::ExclusiveEnter { tid: self.cpu.tid });
                Ok(())
            }
            Err(_halted) => Err(Trap::Livelock {
                pc: self.cpu.pc,
                what: "machine halted while awaiting exclusivity",
            }),
        }
    }

    /// Leaves the exclusive section. Under a degraded SC window the
    /// section is *kept*: the boundary hop owns the close decision, so
    /// the window reliably spans the whole LL→SC attempt regardless of
    /// which scheme helper runs inside it.
    pub fn end_exclusive(&mut self) {
        if self.sc_window {
            return;
        }
        self.machine.exclusive.end_exclusive();
        self.trace(TraceKind::ExclusiveExit, 0, 0);
        self.note_event(SchedEvent::ExclusiveExit { tid: self.cpu.tid });
    }

    /// Opens a cross-block HTM transaction whose abort rolls execution
    /// back to `restart_pc` with the current register state (PICO-HTM's
    /// `xbegin` at LL).
    ///
    /// # Errors
    ///
    /// [`Trap::Livelock`] if the degraded (stop-the-world) path was
    /// requested but the machine halted before exclusivity was granted.
    pub fn begin_region_txn(&mut self, restart_pc: u32) -> Result<(), Trap> {
        if self.degrade_next_region {
            // Retry budget spent: run this LL→SC region under the
            // stop-the-world exclusive section instead of a transaction.
            // Guaranteed to complete (no conflicts are possible), at the
            // cost of serializing the whole machine.
            self.degrade_next_region = false;
            let waited = self
                .machine
                .exclusive
                .start_exclusive_as(self.cpu.tid)
                .map_err(|_halted| Trap::Livelock {
                    pc: self.cpu.pc,
                    what: "machine halted while awaiting exclusivity",
                })?;
            self.stats.degradations += 1;
            self.stats.exclusive_entries += 1;
            self.stats.exclusive_ns += waited;
            self.prof_charge(ProfMetric::ExclEntry, 1);
            self.prof_charge(ProfMetric::ExclWaitNs, waited);
            self.trace_htm_streak(self.txn_retries);
            self.trace(
                TraceKind::Degrade,
                restart_pc,
                self.txn_retries.min(u32::MAX as u64) as u32,
            );
            self.trace_exclusive_enter(waited);
            self.note_event(SchedEvent::ExclusiveEnter { tid: self.cpu.tid });
            self.region_exclusive = true;
            self.region_blocks = 0;
            self.txn_restart = None;
            self.txn_retries = 0;
            return Ok(());
        }
        self.stats.htm_txns += 1;
        self.trace(
            TraceKind::HtmBegin,
            restart_pc,
            self.txn_retries.min(u32::MAX as u64) as u32,
        );
        self.txn_restart = Some((restart_pc, self.cpu.snapshot()));
        self.txn = Some(self.machine.htm.begin());
        Ok(())
    }

    /// Commits the open region transaction (or closes the degraded
    /// exclusive region standing in for one).
    ///
    /// # Errors
    ///
    /// [`Trap::HtmAbort`] if validation fails; the run loop rolls back.
    pub fn commit_region_txn(&mut self) -> Result<(), Trap> {
        if self.region_exclusive {
            self.region_exclusive = false;
            self.region_blocks = 0;
            self.txn_restart = None;
            self.txn_retries = 0;
            self.machine.exclusive.end_exclusive();
            self.trace(TraceKind::ExclusiveExit, 0, 0);
            self.note_event(SchedEvent::ExclusiveExit { tid: self.cpu.tid });
            return Ok(());
        }
        match self.txn.take() {
            Some(txn) => {
                if self.robust && self.chaos_roll(ChaosSite::HtmCommit) {
                    // Spurious abort at commit, as real HTM is free to do
                    // at any time for any reason (interrupt, cache
                    // eviction, ...). Buffered writes are discarded.
                    let _ = txn.abort();
                    self.discard_txn_events();
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
                        self.trace(
                            TraceKind::HtmCommit,
                            self.cpu.pc,
                            self.txn_retries.min(u32::MAX as u64) as u32,
                        );
                        self.trace_htm_streak(self.txn_retries);
                        self.txn_restart = None;
                        self.txn_retries = 0;
                        // The region became visible as one atomic unit at
                        // this commit: deliver its buffered events now.
                        if !self.txn_events.is_empty() {
                            let mut buffered = std::mem::take(&mut self.txn_events);
                            self.events.append(&mut buffered);
                        }
                        Ok(())
                    }
                    Err(reason) => {
                        self.discard_txn_events();
                        Err(Trap::HtmAbort(reason))
                    }
                }
            }
            None => Ok(()), // SC without LL: scheme already failed it.
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

impl fmt::Debug for ExecCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecCtx")
            .field("tid", &self.cpu.tid)
            .field("pc", &self.cpu.pc)
            .field("txn_open", &self.txn.is_some())
            .finish()
    }
}
