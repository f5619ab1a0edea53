//! The machine: shared services, the translation cache, the dispatch
//! loop, and its two drivers — real threads and the deterministic
//! scheduler-driven run.

use crate::arbiter::{
    AdaptAction, AdaptConfig, AdaptInner, AdaptRuntime, EpochObservation, EpochSignals,
    SchemeArbiter,
};
use crate::cache::{
    block_footprint, CacheOccupancy, RetireSummary, TranslationCache, SEGMENT_FOOTPRINT,
};
use crate::exclusive::ExclusiveBarrier;
use crate::frontend;
use crate::interp;
use crate::runtime::{ExecCtx, HelperFn, HelperRegistry, Trap};
use crate::sched::{Granularity, SchedEvent, Scheduler, VirtualTimeScheduler};
use crate::scheme::AtomicScheme;
use crate::state::Vcpu;
use crate::stats::{Breakdown, SimBreakdown, SimCosts, VcpuStats};
use crate::store_test::StoreTestTable;
use crate::watchdog::{self, VcpuBeat, WatchdogDump};
use adbt_chaos::{ChaosCfg, ChaosPlane, ChaosSite, ChaosSnapshot, RetryPolicy};
use adbt_htm::{HtmDomain, HtmStats};
use adbt_ir::{BlockExit, ChainLink};
use adbt_isa::asm::Image;
use adbt_mmu::{page_of, AddressSpace, PAGE_SHIFT, PAGE_SIZE};
use adbt_profile::{Metric as ProfMetric, ProfileRecorder};
use adbt_sync::epoch::Qsbr;
use adbt_sync::Mutex;
use adbt_trace::{TraceKind, TraceRecorder, WATCHDOG_TAIL};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Machine construction parameters.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Physical guest memory in bytes (page-aligned).
    pub mem_size: u32,
    /// Unmapped virtual pages above physical memory (PST-REMAP's window).
    pub extra_virt_pages: u32,
    /// Maximum guest instructions per translated block (1 for
    /// instruction-granular deterministic runs — litmus lockstep and
    /// the checker's scheduled exploration — larger for throughput).
    pub max_block_insns: u32,
    /// log2 of the store-test hash-table size.
    pub htable_bits: u8,
    /// Track store-test collisions (profiling runs only; adds a shadow
    /// word per entry).
    pub track_collisions: bool,
    /// log2 of the HTM versioned-lock table size.
    pub htm_index_bits: u8,
    /// HTM write-set capacity in words.
    pub htm_write_capacity: usize,
    /// Page-fault retries per access before declaring livelock.
    pub fault_retry_limit: u64,
    /// Consecutive HTM region aborts before declaring livelock — the
    /// threshold past which PICO-HTM's abort storm is called out.
    pub htm_retry_limit: u64,
    /// Per-vCPU guest stack size in bytes.
    pub stack_size: u32,
    /// Enables the rule-based translation pass (paper §VI): canonical
    /// compiler-generated LL/SC retry loops are recognized at
    /// translation time and fused into single host atomic built-ins,
    /// bypassing the active scheme entirely for those loops (ABA-free by
    /// construction).
    pub fuse_atomics: bool,
    /// Maximum blocks executed per dispatch before control returns to
    /// the outer loop, following patched chain links (block chaining).
    /// Threaded runs use this value; the deterministic driver
    /// ([`MachineCore::run_scheduled`], under any scheduler) always
    /// dispatches one block at a time (its scheduler *is* the outer
    /// loop), so chaining never changes deterministic-mode results.
    pub chain_limit: u32,
    /// Deterministic fault-injection campaign (`None` = chaos off; the
    /// dispatch hot path then pays a single predicted branch).
    pub chaos: Option<ChaosCfg>,
    /// Liveness watchdog interval in milliseconds for threaded runs
    /// (0 = off). Fires only when **no** live vCPU retires a block for a
    /// whole interval, so it must comfortably exceed the longest
    /// legitimate stop-the-world pause.
    pub watchdog_ms: u64,
    /// Consecutive HTM region aborts before the next region degrades to
    /// the stop-the-world fallback (0 = never degrade). Only effective
    /// in threaded runs: a degraded region spans block dispatches, which
    /// the single-threaded deterministic schedulers cannot host.
    pub htm_degrade_after: u64,
    /// Enables the flight recorder: per-vCPU event rings plus latency
    /// histograms (`false` = tracing off; every trace site then costs a
    /// single predicted branch, same discipline as `chaos`).
    pub trace: bool,
    /// Enables the guest-PC contention profiler: per-vCPU attribution
    /// tables charging SC failures, exclusive waits, HTM aborts, monitor
    /// clears and invalidations to exact guest addresses (`false` =
    /// profiling off; every charge site then costs a single predicted
    /// branch, same discipline as `chaos`/`trace`).
    pub profile: bool,
    /// Inert: the engine has one translation tier and reads no
    /// threshold. Kept only because the frozen `e2ebench/` sets it; it
    /// goes at the next change to the benchmark.
    pub tier_threshold: u32,
    /// Translation-cache memory budget in bytes (0 = unbounded). A hard
    /// bound: when a translation would push the cache's live-plus-limbo
    /// footprint past the limit, the translating vCPU triggers a
    /// generational flush (oldest translations first) and waits for
    /// epoch reclamation to make room, instead of growing without bound.
    /// Must be at least [`MachineCore::MIN_CACHE_LIMIT`] when nonzero.
    pub cache_limit: u64,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            mem_size: 32 << 20,
            extra_virt_pages: 64,
            max_block_insns: 32,
            htable_bits: 16,
            track_collisions: false,
            htm_index_bits: 16,
            htm_write_capacity: 512,
            fault_retry_limit: 1 << 26,
            htm_retry_limit: 1 << 14,
            stack_size: 64 << 10,
            fuse_atomics: false,
            chain_limit: 64,
            chaos: None,
            watchdog_ms: 0,
            htm_degrade_after: 0,
            trace: false,
            profile: false,
            tier_threshold: 0,
            cache_limit: 0,
        }
    }
}

/// How one vCPU's run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VcpuOutcome {
    /// Clean guest exit with the given code.
    Exited(i32),
    /// A fatal trap (fault, undefined instruction, bad syscall).
    Crashed(Trap),
    /// Forward progress lost (HTM abort storm or fault retry storm).
    Livelocked {
        /// The guest PC at detection.
        pc: u32,
    },
}

impl VcpuOutcome {
    /// Whether the vCPU exited normally with code 0.
    pub fn is_success(&self) -> bool {
        matches!(self, VcpuOutcome::Exited(0))
    }
}

/// The result of a machine run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-vCPU outcomes, in tid order.
    pub outcomes: Vec<VcpuOutcome>,
    /// Per-vCPU statistics, in tid order.
    pub per_cpu: Vec<VcpuStats>,
    /// All vCPU statistics merged.
    pub stats: VcpuStats,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// HTM domain statistics (all zero for non-HTM schemes).
    pub htm: HtmStats,
    /// Bytes written through the `putc` syscall.
    pub output: Vec<u8>,
    /// Store-test collision stats `(collisions, tracked sets)`.
    pub collisions: (u64, u64),
    /// Watchdog diagnostic, present when the liveness watchdog fired and
    /// halted a stalled run.
    pub watchdog: Option<WatchdogDump>,
    /// Per-site injected-fault counts when a chaos campaign was active.
    pub chaos: Option<ChaosSnapshot>,
}

impl RunReport {
    /// Whether every vCPU exited with code 0.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(VcpuOutcome::is_success)
    }

    /// The Fig. 12-style overhead breakdown, attributing total CPU time
    /// (wall × vCPUs) across the four buckets.
    pub fn breakdown(&self) -> Breakdown {
        let cpu_seconds = self.wall.as_secs_f64() * self.outcomes.len() as f64;
        Breakdown::derive(&self.stats, cpu_seconds)
    }

    /// The simulated run's makespan in virtual-time units (`None` for
    /// runs without a virtual clock). This is the "execution time" all
    /// performance figures are computed from — see `DESIGN.md` on why
    /// the reproduction measures virtual rather than wall time.
    pub fn sim_time(&self) -> Option<u64> {
        (self.stats.sim_time > 0).then_some(self.stats.sim_time)
    }

    /// The Fig. 12 breakdown in virtual-time units (simulated runs).
    pub fn sim_breakdown(&self) -> SimBreakdown {
        SimBreakdown::derive(&self.stats, self.outcomes.len() as u32)
    }

    /// The `putc` output as a lossy string.
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }
}

/// Blocks a degraded (stop-the-world) HTM region may span before the
/// engine declares the region livelocked; generous against any real LL→SC
/// window, tiny against a guest loop that never reaches its SC.
const REGION_BLOCK_CAP: u32 = 10_000;

/// The atom cap [`MachineCore::run_sim`] runs under: a livelock safety
/// net far above any figure workload.
const SIM_MAX_ATOMS: u64 = 200_000_000;

/// A vCPU paused inside a block at pause-point granularity: the block
/// id and the op index to resume from.
type Cursor = Option<(u32, usize)>;

/// The shared machine: memory, scheme, services and translation cache.
///
/// A `MachineCore` is scheme-specific (the scheme installs its helpers at
/// construction and its lowering decides the cached code), so comparing
/// schemes means building one machine per scheme.
pub struct MachineCore {
    /// Construction parameters.
    pub config: MachineConfig,
    /// The guest address space.
    pub space: AddressSpace,
    /// The HTM domain (idle unless the scheme requires HTM).
    pub htm: HtmDomain,
    /// The HST store-test hash table.
    pub store_test: StoreTestTable,
    /// The stop-the-world exclusive barrier.
    pub exclusive: ExclusiveBarrier,
    /// The active atomic-emulation scheme.
    pub scheme: Arc<dyn AtomicScheme>,
    /// Registered runtime helpers, indexed by `HelperId`.
    pub helpers: Vec<HelperFn>,
    /// Helper diagnostic names, parallel to `helpers`.
    pub helper_names: Vec<&'static str>,
    /// Whether plain stores must feed HTM conflict detection.
    pub htm_enabled: bool,
    /// Guest `putc` output.
    pub output: Mutex<Vec<u8>>,
    /// The fault-injection plane, when a chaos campaign is configured.
    pub chaos: Option<Arc<ChaosPlane>>,
    /// The flight recorder (per-vCPU event rings + histograms), when
    /// tracing is configured.
    pub trace: Option<Arc<TraceRecorder>>,
    /// The guest-PC attribution plane (per-vCPU profile tables), when
    /// profiling is configured.
    pub profile: Option<Arc<ProfileRecorder>>,
    /// The shared retry policy for HTM region rollbacks (and any other
    /// engine retry loop): one place for budgets and backoff stages.
    pub retry: RetryPolicy,
    /// The quiescent-state tracker gating translation-cache reclamation:
    /// retired blocks are freed only after every registered vCPU has
    /// passed a zero-reference safepoint.
    pub(crate) qsbr: Qsbr,
    pub(crate) cache: TranslationCache,
    /// The adaptive-arbitration runtime when the machine runs with
    /// `--scheme auto`; `None` on static machines, whose dispatch loop
    /// then pays a single predicted branch for the whole plane.
    pub(crate) adapt: Option<AdaptRuntime>,
    /// Deterministic-run cursors currently paused mid-block. Nobody
    /// announces QSBR quiescence while this is nonzero (a paused block
    /// must not be freed), and a migration defers: retirement must only
    /// ever happen with every vCPU at a block edge (the
    /// architectural-state contract the checker's interleaving atoms
    /// rely on).
    pub(crate) cursor_pins: AtomicU32,
    threaded: AtomicBool,
}

impl MachineCore {
    /// Builds a machine around a scheme, installing its helpers.
    ///
    /// # Errors
    ///
    /// Returns an error string for invalid memory configuration.
    pub fn new(
        config: MachineConfig,
        scheme: Box<dyn AtomicScheme>,
    ) -> Result<MachineCore, String> {
        MachineCore::build(config, vec![scheme], 0, None)
    }

    /// Builds an **adaptive** machine: every candidate scheme installs
    /// its helpers into the one registry, new translations lower under
    /// the active candidate (initially `initial`), and the arbiter may
    /// migrate the machine between candidates at block-edge epochs.
    /// Forces the profile plane on — hot-site ranking needs it.
    ///
    /// # Errors
    ///
    /// Returns an error string for invalid memory configuration, an
    /// empty candidate set, an out-of-range `initial`, or a zero epoch
    /// length.
    pub fn new_adaptive(
        config: MachineConfig,
        schemes: Vec<Box<dyn AtomicScheme>>,
        initial: usize,
        adapt: AdaptConfig,
        arbiter: Arc<dyn SchemeArbiter>,
    ) -> Result<MachineCore, String> {
        if schemes.is_empty() {
            return Err("adaptive machine needs at least one candidate scheme".to_string());
        }
        if initial >= schemes.len() {
            return Err(format!(
                "initial candidate index {initial} out of range for {} candidates",
                schemes.len()
            ));
        }
        if adapt.epoch_insns == 0 {
            return Err("adapt epoch length must be at least 1 instruction".to_string());
        }
        MachineCore::build(config, schemes, initial, Some((adapt, arbiter)))
    }

    fn build(
        mut config: MachineConfig,
        mut schemes: Vec<Box<dyn AtomicScheme>>,
        initial: usize,
        adapt: Option<(AdaptConfig, Arc<dyn SchemeArbiter>)>,
    ) -> Result<MachineCore, String> {
        if config.cache_limit > 0 && config.cache_limit < MachineCore::MIN_CACHE_LIMIT {
            return Err(format!(
                "cache_limit ({} bytes) is below the minimum of one arena segment \
                 ({} bytes): a smaller budget cannot hold any translation",
                config.cache_limit,
                MachineCore::MIN_CACHE_LIMIT
            ));
        }
        // Adaptive machines force the profile plane on: hot-site ranking
        // (which code a migration retires for retranslation) reads it.
        if adapt.is_some() {
            config.profile = true;
        }
        let space = AddressSpace::new(config.mem_size, config.extra_virt_pages)?;
        // Every candidate installs into the one registry: helper ids are
        // disjoint, so blocks lowered under different candidates coexist
        // in one cache without relinking.
        let mut registry = HelperRegistry::new();
        for scheme in &mut schemes {
            scheme.install(&mut registry);
        }
        let (helper_names, helpers) = registry.into_parts();
        let candidates: Vec<Arc<dyn AtomicScheme>> = schemes.into_iter().map(Arc::from).collect();
        let htm_enabled = candidates.iter().any(|s| s.requires_htm());
        let scheme = Arc::clone(&candidates[initial]);
        let adapt =
            adapt.map(|(cfg, arbiter)| AdaptRuntime::new(candidates, initial, cfg, arbiter));
        Ok(MachineCore {
            space,
            htm: HtmDomain::new(config.htm_index_bits, config.htm_write_capacity),
            store_test: StoreTestTable::new(config.htable_bits, config.track_collisions),
            exclusive: ExclusiveBarrier::new(),
            scheme,
            helpers,
            helper_names,
            htm_enabled,
            output: Mutex::new(Vec::new()),
            chaos: config.chaos.map(|cfg| Arc::new(ChaosPlane::new(cfg))),
            trace: config.trace.then(|| Arc::new(TraceRecorder::new())),
            profile: config.profile.then(|| Arc::new(ProfileRecorder::new())),
            retry: RetryPolicy {
                max_attempts: config.htm_retry_limit,
                yield_after: 8,
                // Sleeping starts exactly where degradation does, so the
                // storm path never sleeps (each µs-sleep is a real
                // millisecond-scale deschedule on a loaded host); only
                // retry loops without a degraded rung reach the stage.
                sleep_after: 32,
                max_sleep_us: 2_000,
                // A storm that survives this much backoff is structural
                // (every granted requester finds its claim clobbered by
                // a competitor's retry); degrade the next attempt to a
                // held stop-the-world SC window so it must complete.
                degrade_after: 32,
            },
            qsbr: Qsbr::new(),
            cache: {
                let cache = TranslationCache::new();
                cache.set_limit(config.cache_limit);
                cache
            },
            adapt,
            cursor_pins: AtomicU32::new(0),
            threaded: AtomicBool::new(false),
            config,
        })
    }

    /// The scheme new translations lower under right now — the active
    /// adaptive candidate, or the construction scheme on a static
    /// machine.
    pub(crate) fn active_scheme(&self) -> &Arc<dyn AtomicScheme> {
        match &self.adapt {
            Some(adapt) => &adapt.candidates[adapt.active.load(Ordering::Acquire)],
            None => &self.scheme,
        }
    }

    /// The name of the scheme currently lowering new translations.
    pub fn active_scheme_name(&self) -> &'static str {
        match &self.adapt {
            Some(adapt) => adapt.infos[adapt.active.load(Ordering::Acquire)].name,
            None => self.scheme.name(),
        }
    }

    /// The retained `adbt-adapt-v1` decision log — empty unless the
    /// machine is adaptive and [`AdaptConfig::log`] is on.
    pub fn adapt_log(&self) -> Vec<String> {
        match &self.adapt {
            Some(adapt) => adapt.inner.lock().log.clone(),
            None => Vec::new(),
        }
    }

    /// The smallest accepted nonzero [`MachineConfig::cache_limit`]: one
    /// arena segment's worth of block slots. Budgets below this cannot
    /// hold a single translation, so they are rejected at construction.
    pub const MIN_CACHE_LIMIT: u64 = SEGMENT_FOOTPRINT;

    /// Whether the current run uses real OS threads (guest `yield` then
    /// maps to `std::thread::yield_now`).
    pub fn is_threaded(&self) -> bool {
        self.threaded.load(Ordering::Relaxed)
    }

    /// Copies an assembled image into guest memory and retires every
    /// translation decoded from the bytes it overwrites, so a machine
    /// that already ran never runs the previous image's code. No vCPU
    /// may be running.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in physical memory.
    pub fn load_image(&self, image: &Image) {
        self.space.mem().write_slice(image.base, &image.bytes);
        self.retire_code(image.base, image.bytes.len() as u32);
    }

    /// Retires the translations decoded from `[base, base + len)`
    /// through the SMC path's [`TranslationCache::retire_batch`] and
    /// frees them at once: with no vCPU running, their grace period has
    /// already elapsed. A machine that never translated pays one load.
    fn retire_code(&self, base: u32, len: u32) {
        if self.cache.len() == 0 || len == 0 {
            return;
        }
        let last = base + (len - 1);
        let victims: Vec<u32> = (page_of(base)..=page_of(last))
            .flat_map(|page| {
                let start = (page << PAGE_SHIFT).max(base);
                let end = ((page << PAGE_SHIFT) | (PAGE_SIZE - 1)).min(last);
                self.cache.victims_for_store(start, end - start + 1)
            })
            .collect();
        if victims.is_empty() {
            return;
        }
        let summary = self.cache.retire_batch(&victims, self.qsbr.begin_grace());
        for &page in &summary.untrack_pages {
            self.space.write_untrack(page);
        }
        self.cache.reclaim_limbo(&self.qsbr);
    }

    /// Whether [`make_vcpus`](Self::make_vcpus) can build `n` vCPUs: at
    /// least one, with their stacks fitting below the top of guest
    /// memory.
    pub fn fits_vcpus(&self, n: u32) -> bool {
        let total_stack = (n as u64) * (self.config.stack_size as u64);
        n >= 1 && total_stack < self.config.mem_size as u64
    }

    /// Builds `n` vCPUs entering at `entry` with the launch ABI:
    /// `r0` = 0-based thread index, `r1` = thread count, `sp` = a private
    /// stack carved from the top of physical memory.
    ///
    /// # Panics
    ///
    /// Panics unless [`fits_vcpus`](Self::fits_vcpus) holds for `n`.
    pub fn make_vcpus(&self, n: u32, entry: u32) -> Vec<Vcpu> {
        assert!(
            self.fits_vcpus(n),
            "{n} vCPUs: need at least one, and their stacks must fit guest memory"
        );
        (0..n)
            .map(|i| {
                let mut cpu = Vcpu::new(i + 1, entry);
                cpu.set_reg(0, i);
                cpu.set_reg(1, n);
                cpu.set_reg(
                    adbt_isa::Reg::SP.index(),
                    self.config.mem_size - i * self.config.stack_size,
                );
                cpu
            })
            .collect()
    }

    fn lookup_or_translate(&self, ctx: &mut ExecCtx<'_>, pc: u32) -> Result<u32, Trap> {
        if let Some(id) = self.cache.lookup(pc) {
            return Ok(id);
        }
        // Translation is engine work; inside an open region transaction it
        // poisons the transaction (QEMU-inside-HTM, the PICO-HTM killer).
        if let Some(txn) = &mut ctx.txn {
            txn.poison();
        }
        let block = frontend::translate(ctx, pc, self.active_scheme())?;
        self.ensure_cache_room(ctx, block_footprint(&block))?;
        let result = self.cache.insert(pc, block);
        // Every page the new block decodes from becomes write-tracked, so
        // a later guest store into it faults and invalidates (SMC).
        for &page in &result.new_pages {
            self.space.write_track(page);
        }
        if result.fresh {
            ctx.trace(TraceKind::Translate, pc, result.id);
        }
        Ok(result.id)
    }

    /// Reserves `footprint` bytes of cache budget for a new translation,
    /// flushing generationally and waiting out reclamation grace periods
    /// under memory pressure. With no limit configured the fast path is a
    /// single uncontended fetch-add.
    ///
    /// **Caller contract:** the caller must hold no translation-cache
    /// borrows — under pressure this loop announces QSBR quiescence for
    /// the calling vCPU, after which previously borrowed blocks may be
    /// freed.
    fn ensure_cache_room(&self, ctx: &mut ExecCtx<'_>, footprint: u64) -> Result<(), Trap> {
        if self.cache.try_reserve(footprint) {
            return Ok(());
        }
        // Pressure path. Each round: flush under the stop-the-world
        // window, then spin waiting for the grace period to elapse so the
        // retired footprint actually frees. Round 0 flushes down to half
        // the limit (a generation's worth of headroom); later rounds
        // flush everything, so the loop cannot fail while the working set
        // fits at all.
        const PRESSURE_ROUNDS: u32 = 4;
        const GRACE_SPINS: u32 = 4096;
        for round in 0..PRESSURE_ROUNDS {
            let target = if round == 0 {
                self.cache.limit() / 2
            } else {
                0
            };
            if ctx.start_exclusive().is_err() {
                return Err(Trap::Livelock {
                    pc: ctx.cpu.pc,
                    what: "machine halted while awaiting a cache flush",
                });
            }
            let epoch = self.qsbr.begin_grace();
            let summary = self.cache.flush_generational(target, epoch);
            for &page in &summary.untrack_pages {
                self.space.write_untrack(page);
            }
            ctx.stats.flushes += 1;
            ctx.stats.retired_blocks += summary.retired;
            ctx.trace(
                TraceKind::Flush,
                summary.retired.min(u32::MAX as u64) as u32,
                0,
            );
            ctx.end_exclusive();
            for _ in 0..GRACE_SPINS {
                // Keep announcing our own quiescence (we hold no cache
                // borrows here — see the caller contract) and keep
                // passing safepoints, so concurrent flushes by other
                // starved vCPUs stay live; then try to reclaim and
                // re-reserve.
                self.quiesce_and_reclaim(ctx);
                ctx.stats.exclusive_ns += self.exclusive.safepoint_for(ctx.cpu.tid);
                if self.cache.try_reserve(footprint) {
                    return Ok(());
                }
                if self.exclusive.halted() {
                    return Err(Trap::Livelock {
                        pc: ctx.cpu.pc,
                        what: "machine halted while awaiting cache reclamation",
                    });
                }
                if self.is_threaded() {
                    std::thread::yield_now();
                }
            }
        }
        // Full flushes could not make room: either the limit is smaller
        // than one in-flight working set of concurrent translations, or a
        // participant never quiesces. Surface a verdict, not a hang.
        Err(Trap::Livelock {
            pc: ctx.cpu.pc,
            what: "translation-cache limit too small for the working set",
        })
    }

    /// Announces QSBR quiescence for `ctx` (the caller must hold zero
    /// translation-cache borrows) and frees any limbo blocks whose grace
    /// period has elapsed. The quiescent-path cost when nothing is
    /// pending is three atomic loads and one store.
    ///
    /// One rule for every driver: no announcement while any cursor is
    /// paused. The deterministic driver runs all its vCPUs through one
    /// QSBR slot, and a paused cursor holds its block across atoms.
    fn quiesce_and_reclaim(&self, ctx: &mut ExecCtx<'_>) {
        if ctx.qsbr_slot == usize::MAX || self.cursor_pins.load(Ordering::Acquire) > 0 {
            return;
        }
        self.qsbr.quiesce(ctx.qsbr_slot);
        if self.cache.limbo_pending() {
            self.reclaim_now(ctx);
        }
    }

    #[cold]
    fn reclaim_now(&self, ctx: &mut ExecCtx<'_>) {
        if let Some((freed, segments)) = self.cache.reclaim_limbo(&self.qsbr) {
            ctx.stats.reclaimed_blocks += freed;
            ctx.trace(
                TraceKind::Reclaim,
                freed.min(u32::MAX as u64) as u32,
                segments.min(u32::MAX as u64) as u32,
            );
        }
    }

    /// Executes up to `chain_limit` translated blocks for `ctx`,
    /// following patched chain links between them and absorbing HTM
    /// rollbacks. Returns `Some(outcome)` when the vCPU is finished,
    /// `None` when the chain budget is exhausted or the block paused
    /// (caller loops). This is the engine's only dispatch loop.
    ///
    /// Every hop polls the exclusive barrier's safepoint first, so a
    /// long chain never delays a stop-the-world requester by more than
    /// one block. With `chain_limit == 1` it is a one-block dispatch —
    /// the deterministic driver relies on that for schedule determinism
    /// and per-block cost charging.
    ///
    /// At pause-point granularity a block may stop at an `Op::Yield` /
    /// `Op::Window`: `cursor` then records where, and the next step only
    /// runs the rest of that block. Threaded runs never pause, so their
    /// cursor stays empty.
    // Inline into each driver: the deterministic driver is generic, so
    // an out-of-line `step` becomes an exported symbol reached through
    // the GOT once per atom — measured ~5% of `run_sim` time on
    // few-instruction atoms.
    #[inline]
    fn step(
        &self,
        ctx: &mut ExecCtx<'_>,
        l1: &mut L1Cache,
        chain_limit: u32,
        cursor: &mut Cursor,
    ) -> Option<VcpuOutcome> {
        if let Some((id, start)) = cursor.take() {
            // Mid-block resume: no safepoint, no lookup — the vCPU is
            // between two ops of an already-dispatched block, which its
            // pin kept from being freed. Nothing quiesces while the
            // block runs on; a re-pause pins it again.
            self.cursor_pins.fetch_sub(1, Ordering::Release);
            let block = self
                .cache
                .block(id)
                .expect("a paused cursor pins its block against reclamation");
            return match interp::run_block_from(ctx, block, start) {
                Ok(interp::BlockRun::Done(next)) => {
                    ctx.cpu.pc = next;
                    None
                }
                Ok(interp::BlockRun::Paused(at)) => self.pause(cursor, id, at),
                Err(trap) => self.trap(ctx, trap),
            };
        }
        // Step entry is a zero-reference point: no chain link or block
        // borrow survives from the previous step, so this thread can
        // announce QSBR quiescence and free any grace-expired blocks.
        self.quiesce_and_reclaim(ctx);
        // The previous hop's exit link for the edge just taken, plus the
        // predecessor's id and which leg it is — patched with the
        // successor's id so the next traversal skips the lookup, and
        // registered in the edge index so invalidation can revoke it.
        let mut link: Option<(&ChainLink, u32, bool)> = None;
        for _ in 0..chain_limit.max(1) {
            // Holder-aware safepoint: identical single-load fast path, but
            // a degraded region's holder passes through its own pending
            // exclusive instead of self-deadlocking.
            let parked = self.exclusive.safepoint_for(ctx.cpu.tid);
            ctx.stats.exclusive_ns += parked;
            if parked > 0 {
                // The park belongs to the block about to run: that is
                // the code the stop-the-world held this vCPU away from.
                ctx.prof_charge_at(ctx.cpu.pc, ProfMetric::ParkNs, parked);
                ctx.trace(
                    TraceKind::SafepointPark,
                    ctx.cpu.pc,
                    parked.min(u32::MAX as u64) as u32,
                );
            }
            ctx.note_event(SchedEvent::Safepoint { tid: ctx.cpu.tid });
            // The entire robustness plane (chaos, watchdog, degradation)
            // costs exactly this one predicted-false branch when disabled.
            if ctx.robust {
                if let Some(outcome) = self.robust_hop(ctx) {
                    return Some(outcome);
                }
            }
            // The adaptive plane costs exactly this one predicted-false
            // branch on static machines, same discipline as `robust`.
            if self.adapt.is_some() {
                if let Some(outcome) = self.adapt_poll(ctx) {
                    return Some(outcome);
                }
            }
            let pc = ctx.cpu.pc;
            let id = match link.and_then(|(slot, _, _)| slot.get()) {
                Some(id) => {
                    ctx.stats.chain_follows += 1;
                    id
                }
                None => {
                    ctx.stats.dispatch_lookups += 1;
                    // The lookup lane (never the chain-follow fast path)
                    // absorbs invalidation: a retire batch bumps the
                    // cache version, and a stale L1 here would resurrect
                    // retired ids.
                    l1.sync(self.cache.version());
                    // Drop the borrowed predecessor link before
                    // translating: translation may hit the cache limit,
                    // whose pressure path announces quiescence, after
                    // which borrowed blocks may be freed. The edge is
                    // re-resolved by id below.
                    let patch = link.take().map(|(_, pred, taken)| (pred, taken));
                    let id = match l1.get(pc) {
                        Some(id) => {
                            ctx.stats.l1_hits += 1;
                            id
                        }
                        None => {
                            ctx.stats.l1_misses += 1;
                            match self.lookup_or_translate(ctx, pc) {
                                Ok(id) => {
                                    l1.put(pc, id);
                                    id
                                }
                                Err(trap) => return Some(trap_outcome(trap)),
                            }
                        }
                    };
                    // Patch the traversed edge and register it for
                    // revocation. The predecessor is re-resolved by id:
                    // if it was retired while we translated, its slot may
                    // be gone and the edge is simply not patched (the
                    // next traversal takes the lookup path again).
                    if let Some((pred, taken)) = patch {
                        if let Some(pred_block) = self.cache.block(pred) {
                            let slot = if taken {
                                &pred_block.links.taken
                            } else {
                                &pred_block.links.fallthrough
                            };
                            slot.set(id);
                            self.cache.register_edge(id, pred, taken);
                            ctx.trace(TraceKind::ChainPatch, pc, id);
                        }
                    }
                    id
                }
            };
            let Some(block) = self.cache.block(id) else {
                // The id lost a race with a retirement batch between
                // resolution and dereference (stale chain link or L1
                // entry): drop the edge and go back through the lookup.
                link = None;
                continue;
            };
            // A region transaction spanning block dispatches reads the
            // engine's shared dispatcher structures — their conflict tokens
            // join the read set (the QEMU-inside-the-transaction effect that
            // dooms PICO-HTM past a few threads; see HtmDomain::engine_token).
            let dispatch_result = match &mut ctx.txn {
                Some(txn) => {
                    ctx.stats.txn_dispatches += 1;
                    (0..8)
                        .try_for_each(|slot| txn.observe(adbt_htm::HtmDomain::engine_token(slot)))
                        .map_err(Trap::HtmAbort)
                }
                None => Ok(()),
            };
            let exec_result = match dispatch_result {
                Ok(()) => interp::run_block_from(ctx, block, 0),
                Err(trap) => {
                    ctx.txn = None;
                    Err(trap)
                }
            };
            match exec_result {
                Ok(interp::BlockRun::Done(next)) => {
                    ctx.cpu.pc = next;
                    // Only static exits chain; indirect jumps and
                    // service calls go back through the lookup path.
                    link = match &block.exit {
                        BlockExit::Jump(_) => Some((&block.links.taken, id, true)),
                        BlockExit::CondJump { taken, .. } if next == *taken => {
                            Some((&block.links.taken, id, true))
                        }
                        BlockExit::CondJump { fallthrough, .. } if next == *fallthrough => {
                            Some((&block.links.fallthrough, id, false))
                        }
                        _ => None,
                    };
                }
                Ok(interp::BlockRun::Paused(at)) => return self.pause(cursor, id, at),
                Err(trap) => {
                    link = None;
                    if let Some(outcome) = self.trap(ctx, trap) {
                        return Some(outcome);
                    }
                }
            }
        }
        None
    }

    /// Leaves `ctx` paused at op `at` of block `id` until its next step,
    /// pinning the block against reclamation meanwhile.
    fn pause(&self, cursor: &mut Cursor, id: u32, at: usize) -> Option<VcpuOutcome> {
        self.cursor_pins.fetch_add(1, Ordering::Release);
        *cursor = Some((id, at));
        None
    }

    /// What a trap out of a block means for the vCPU: `Some(outcome)`
    /// when it is finished, `None` when an HTM abort rolled it back to
    /// its region's restart point and it runs on.
    fn trap(&self, ctx: &mut ExecCtx<'_>, trap: Trap) -> Option<VcpuOutcome> {
        let reason = match trap {
            Trap::HtmAbort(reason) => reason,
            other => return Some(trap_outcome(other)),
        };
        ctx.stats.htm_aborts += 1;
        ctx.prof_htm_abort(reason);
        ctx.trace(TraceKind::HtmAbort, ctx.cpu.pc, reason.code());
        ctx.txn = None;
        ctx.discard_txn_events();
        // An abort with no restart point is a scheme bug; surface it as
        // a crash rather than spinning.
        let Some((restart_pc, snapshot)) = ctx.txn_restart.take() else {
            return Some(VcpuOutcome::Crashed(Trap::HtmAbort(reason)));
        };
        ctx.cpu.restore(&snapshot);
        ctx.cpu.pc = restart_pc;
        ctx.txn_retries += 1;
        if self.retry.exhausted(ctx.txn_retries) {
            return Some(VcpuOutcome::Livelocked { pc: restart_pc });
        }
        // The deterministic driver has no other thread to park or yield
        // to, so the rest of the ladder is threaded-only.
        if self.is_threaded() {
            // Degradation ladder: once the configured abort budget for a
            // region is spent, retry it under the stop-the-world
            // fallback, which cannot abort (a degraded region spans
            // dispatches, parking every other vCPU).
            if self.config.htm_degrade_after > 0 && ctx.txn_retries >= self.config.htm_degrade_after
            {
                ctx.degrade_next_region = true;
            }
            // Staged backoff under abort storms keeps the threaded
            // engine live on hot regions (real RTM users do the same in
            // their retry path).
            ctx.stats.lock_wait_ns += self.retry.backoff(ctx.txn_retries);
        }
        None
    }

    /// The slow lane of the dispatch loop, entered once per hop only when
    /// a robustness feature is live: publishes the liveness heartbeat,
    /// observes a watchdog halt, caps degraded regions, and rolls the
    /// block-boundary chaos sites.
    #[inline(never)]
    fn robust_hop(&self, ctx: &mut ExecCtx<'_>) -> Option<VcpuOutcome> {
        if let Some(beat) = &ctx.beat {
            beat.tick(ctx.stats.blocks, ctx.cpu.pc);
            // Throttled ring heartbeat: one event per 1024 retired blocks
            // keeps liveness visible in a trace without flooding the ring.
            if ctx.stats.blocks & 1023 == 0 {
                ctx.trace(TraceKind::Heartbeat, ctx.cpu.pc, 0);
            }
        }
        if self.exclusive.halted() {
            // The watchdog declared the machine stalled: abandon guest
            // execution cleanly (releasing any open region so nobody else
            // stays parked) instead of hanging.
            let pc = ctx.cpu.pc;
            ctx.release_region();
            return Some(VcpuOutcome::Livelocked { pc });
        }
        if ctx.sc_window && ctx.stats.sc > ctx.sc_window_mark {
            // An SC ran inside the held window: the attempt is over
            // either way and the world restarts. Account for it here so
            // the storm detector below never sees windowed attempts.
            ctx.close_sc_window();
            let attempts = ctx.stats.sc - ctx.sc_seen;
            let failures = ctx.stats.sc_failures - ctx.sc_fail_seen;
            ctx.sc_seen = ctx.stats.sc;
            ctx.sc_fail_seen = ctx.stats.sc_failures;
            if failures >= attempts {
                // Failed even running alone — the guest's SC can never
                // succeed (e.g. a retry loop that skips its LL). Spend
                // the budget so this becomes a verdict, not a loop.
                ctx.sc_fail_streak += failures;
                if self.retry.exhausted(ctx.sc_fail_streak) {
                    return Some(VcpuOutcome::Livelocked { pc: ctx.cpu.pc });
                }
            } else {
                // Completed under the window. Stay primed at the
                // degradation threshold (sticky, like a real HTM's
                // lemming path): while the storm persists the very next
                // failure re-opens a window instead of re-climbing the
                // whole backoff ladder; the first natural success
                // outside a window resets to fully optimistic.
                ctx.sc_fail_streak = self.retry.degrade_after;
            }
        }
        if ctx.region_exclusive || ctx.sc_window {
            // A degraded region (or held SC window) keeps the whole
            // machine stopped; a guest loop that never reaches its SC
            // must become a clean livelock verdict, not a permanent
            // freeze.
            ctx.region_blocks += 1;
            if ctx.region_blocks > REGION_BLOCK_CAP {
                let pc = ctx.cpu.pc;
                ctx.release_region();
                return Some(VcpuOutcome::Livelocked { pc });
            }
            // No injections inside the degraded rungs: they are the
            // ladder's guaranteed-completion fallback.
            return None;
        }
        // SC-storm escape. Stop-the-world SC schemes can rotate forever
        // under injected stalls: the barrier grants exclusivity roughly
        // FIFO, and a failed SC's retry re-arms its hash entry / monitor
        // *before* its next park, so the oldest waiter — the one granted
        // next — always finds its claim clobbered. Consecutive SC
        // failures therefore climb the shared retry ladder: staged
        // backoff desynchronizes the rotation; a persistent storm
        // degrades the next attempt to a held stop-the-world window
        // (LL→SC runs alone, so it must succeed); and a spent budget
        // becomes a clean livelock verdict instead of an unbounded spin.
        let attempts = ctx.stats.sc - ctx.sc_seen;
        if attempts > 0 {
            let failures = ctx.stats.sc_failures - ctx.sc_fail_seen;
            ctx.sc_seen = ctx.stats.sc;
            ctx.sc_fail_seen = ctx.stats.sc_failures;
            if failures >= attempts {
                ctx.sc_fail_streak += failures;
                if self.retry.exhausted(ctx.sc_fail_streak) {
                    return Some(VcpuOutcome::Livelocked { pc: ctx.cpu.pc });
                }
                if self.is_threaded() {
                    if ctx.sc_fail_streak >= self.retry.degrade_after && !ctx.region_active() {
                        if !ctx.open_sc_window() {
                            // Halted while waiting for the window's
                            // exclusivity: wind this vCPU down cleanly.
                            return Some(VcpuOutcome::Livelocked { pc: ctx.cpu.pc });
                        }
                    } else {
                        ctx.stats.lock_wait_ns += self.retry.backoff(ctx.sc_fail_streak);
                    }
                }
            } else {
                // Geometric decay, not a hard reset: under a persistent
                // storm a lone natural success should not force the full
                // re-climb to the degradation threshold (each sleep-stage
                // hop costs a real deschedule on a loaded host). Away
                // from storms the streak is already ~0 and this is one.
                ctx.sc_fail_streak /= 2;
            }
        }
        if ctx.chaos.is_some() {
            if ctx.cpu.monitor.addr.is_some() && ctx.chaos_roll(ChaosSite::MonitorClear) {
                // Spurious monitor clear at a block boundary —
                // architecturally legal at any time on ARM.
                ctx.cpu.monitor.addr = None;
                ctx.prof_charge(ProfMetric::MonitorClear, 1);
            }
            if ctx.chaos_roll(ChaosSite::SafepointDelay) {
                ctx.stats.exclusive_ns += ctx.chaos_stall();
            }
            if ctx.roll_invalidate() {
                if let Some(outcome) = self.chaos_invalidate(ctx) {
                    return Some(outcome);
                }
            }
        }
        None
    }

    /// An injected invalidation-storm event: retires the translation at
    /// the current pc exactly the way a guest self-patch would, driving
    /// the revocation / retranslation / reclamation machinery under load.
    /// Returns `Some` only when acquiring the exclusive window fails
    /// because the machine was halted.
    #[cold]
    fn chaos_invalidate(&self, ctx: &mut ExecCtx<'_>) -> Option<VcpuOutcome> {
        let pc = ctx.cpu.pc;
        let victim = self.cache.lookup(pc)?;
        if ctx.start_exclusive().is_err() {
            return Some(VcpuOutcome::Livelocked { pc });
        }
        let epoch = self.qsbr.begin_grace();
        let summary = self.cache.retire_batch(&[victim], epoch);
        for &page in &summary.untrack_pages {
            self.space.write_untrack(page);
        }
        if summary.retired > 0 {
            ctx.stats.invalidations += 1;
            ctx.stats.retired_blocks += summary.retired;
            // The injected invalidation always lands on the block at the
            // current pc (that is how the victim was chosen).
            ctx.prof_charge_at(pc, ProfMetric::Invalidation, 1);
            ctx.trace(TraceKind::Invalidate, pc, victim);
            if ctx.pause_points {
                ctx.note_event(SchedEvent::Invalidate {
                    tid: ctx.cpu.tid,
                    addr: pc,
                });
            }
        }
        ctx.end_exclusive();
        None
    }

    /// The adaptive plane's per-hop poll, entered only on `--scheme
    /// auto` machines. The fast path is two compares against
    /// vCPU-local state — migration generation unchanged and the
    /// retired-instruction epoch not yet elapsed — and stays inline so
    /// an *armed but idle* arbiter costs a few cycles per hop, not an
    /// outlined call. (The generation load is `Acquire`, a plain load
    /// on x86-64.) Everything rarer lives in [`Self::adapt_hop`].
    #[inline(always)]
    fn adapt_poll(&self, ctx: &mut ExecCtx<'_>) -> Option<VcpuOutcome> {
        let adapt = self.adapt.as_ref()?;
        if adapt.generation.load(Ordering::Acquire) == ctx.adapt_generation
            && ctx.stats.insns < ctx.adapt_next_epoch
        {
            return None;
        }
        self.adapt_hop(ctx, adapt)
    }

    /// The adaptive plane's outlined slow path, entered when
    /// [`Self::adapt_poll`] sees a migration generation change or an
    /// elapsed epoch. Observes migration generations — clearing the
    /// local exclusive monitor across a scheme change, exactly as a
    /// context switch legally may — and runs epoch arbitration when
    /// this vCPU's retired-instruction epoch elapses. Retired
    /// instructions (not wall time) key the epoch, so arbitration is
    /// reproducible under the deterministic driver, whatever its scheduler.
    #[inline(never)]
    fn adapt_hop(&self, ctx: &mut ExecCtx<'_>, adapt: &AdaptRuntime) -> Option<VcpuOutcome> {
        let generation = adapt.generation.load(Ordering::Acquire);
        if generation != ctx.adapt_generation {
            ctx.adapt_generation = generation;
            if ctx.cpu.monitor.addr.is_some() {
                // An LL armed under the pre-migration scheme must never
                // satisfy an SC lowered under the new one: spurious SC
                // *failure* is architecturally legal, spurious success
                // is not.
                ctx.cpu.monitor.addr = None;
                ctx.prof_charge(ProfMetric::MonitorClear, 1);
            }
        }
        if ctx.stats.insns < ctx.adapt_next_epoch {
            return None;
        }
        // Arbitrating under our own open region transaction could
        // migrate out from under its speculative writes; the epoch
        // stays armed and re-polls at the next hop (commit and abort
        // both get there).
        if ctx.txn.is_some() {
            return None;
        }
        ctx.adapt_next_epoch = ctx.stats.insns.saturating_add(adapt.config.epoch_insns);
        self.adapt_epoch(ctx, adapt)
    }

    /// One arbitration epoch: sample this vCPU's signal deltas, ask the
    /// arbiter for a proposal, and push it through the policy gates —
    /// cooldown, hold, atomicity class, hysteresis, paused cursors —
    /// executing the migration only when every gate passes.
    fn adapt_epoch(&self, ctx: &mut ExecCtx<'_>, adapt: &AdaptRuntime) -> Option<VcpuOutcome> {
        let now = EpochSignals::capture(&ctx.stats);
        let signals = now.delta_from(&ctx.adapt_sample);
        ctx.adapt_sample = now;
        // Losing the race simply skips this epoch's arbitration; the
        // signals above were still consumed, so the next epoch scores
        // fresh deltas.
        let mut inner = adapt.inner.try_lock()?;
        ctx.stats.adapt_epochs += 1;
        inner.epoch += 1;
        let epoch = inner.epoch;
        let active = adapt.active.load(Ordering::Relaxed);
        let hot_site = self.hottest_site();
        let proposal = adapt.arbiter.decide(&EpochObservation {
            epoch,
            active,
            candidates: &adapt.infos,
            policy: adapt.config.policy,
            signals,
            hot_site,
        });
        // An out-of-range proposal is an arbiter bug; clamp rather than
        // index out of bounds.
        let target = proposal.target.min(adapt.infos.len() - 1);
        let site = hot_site.map(|(pc, _)| pc);
        if inner.cooldown_left > 0 {
            inner.cooldown_left -= 1;
            self.adapt_note(
                ctx,
                adapt,
                &mut inner,
                epoch,
                AdaptAction::Cooldown,
                target,
                site,
                &proposal.scores,
            );
            return None;
        }
        if target == active {
            inner.streak = 0;
            self.adapt_note(
                ctx,
                adapt,
                &mut inner,
                epoch,
                AdaptAction::Hold,
                target,
                site,
                &proposal.scores,
            );
            return None;
        }
        if !adapt.class_move_ok(active, target) {
            ctx.stats.adapt_denied += 1;
            inner.streak = 0;
            self.adapt_note(
                ctx,
                adapt,
                &mut inner,
                epoch,
                AdaptAction::Deny,
                target,
                site,
                &proposal.scores,
            );
            return None;
        }
        if inner.streak_target != target {
            inner.streak_target = target;
            inner.streak = 0;
        }
        inner.streak += 1;
        if inner.streak < adapt.config.hysteresis {
            self.adapt_note(
                ctx,
                adapt,
                &mut inner,
                epoch,
                AdaptAction::Pending,
                target,
                site,
                &proposal.scores,
            );
            return None;
        }
        if self.cursor_pins.load(Ordering::Acquire) > 0 {
            // A vCPU is paused mid-block (pause-point granularity) — not
            // at a block edge. Keep the streak so the migration retries
            // as soon as every cursor drains.
            self.adapt_note(
                ctx,
                adapt,
                &mut inner,
                epoch,
                AdaptAction::Defer,
                target,
                site,
                &proposal.scores,
            );
            return None;
        }
        self.adapt_migrate(
            ctx,
            adapt,
            &mut inner,
            epoch,
            active,
            target,
            site,
            &proposal.scores,
        )
    }

    /// Records one epoch decision: an [`TraceKind::AdaptDecision`] ring
    /// event (`addr` = hot site or 0, `value` = action in the high half,
    /// target index in the low) plus an `adbt-adapt-v1` log line when
    /// the decision log is retained.
    #[allow(clippy::too_many_arguments)]
    fn adapt_note(
        &self,
        ctx: &mut ExecCtx<'_>,
        adapt: &AdaptRuntime,
        inner: &mut AdaptInner,
        epoch: u64,
        action: AdaptAction,
        target: usize,
        site: Option<u32>,
        scores: &[u64],
    ) {
        ctx.trace(
            TraceKind::AdaptDecision,
            site.unwrap_or(0),
            ((action as u32) << 16) | target as u32,
        );
        if adapt.config.log {
            let line = adapt.log_line(epoch, ctx.cpu.tid, action, target, site, scores);
            inner.log.push(line);
        }
    }

    /// Executes a scheme migration under the stop-the-world window:
    /// retire the code the move invalidates (targeted at the hot site
    /// within a store family, a full generational flush across
    /// families), run the outgoing scheme's deactivation hook, abort
    /// in-flight region transactions, then publish the new active index
    /// and generation. Every parked vCPU is at a block edge, so the
    /// architectural-state contract holds by construction.
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn adapt_migrate(
        &self,
        ctx: &mut ExecCtx<'_>,
        adapt: &AdaptRuntime,
        inner: &mut AdaptInner,
        epoch: u64,
        active: usize,
        target: usize,
        site: Option<u32>,
        scores: &[u64],
    ) -> Option<VcpuOutcome> {
        if ctx.start_exclusive().is_err() {
            return Some(VcpuOutcome::Livelocked { pc: ctx.cpu.pc });
        }
        let same_family = adapt.infos[active].family == adapt.infos[target].family;
        let grace = self.qsbr.begin_grace();
        let summary = if same_family {
            // Same store-instrumentation family: old-scheme blocks stay
            // sound next to new ones, so only the hot site — the code
            // the move is *for* — is retired for retranslation. With no
            // hot site there is nothing to retire; cold code migrates
            // lazily as invalidation and flushing recycle it.
            match site {
                Some(pc) => {
                    let victims = self.cache.victims_for_store(pc, 4);
                    self.cache.retire_batch(&victims, grace)
                }
                None => RetireSummary::default(),
            }
        } else {
            // Cross-family: the families disagree about store
            // instrumentation, so no old block may run again.
            ctx.stats.flushes += 1;
            self.cache.flush_generational(0, grace)
        };
        for &page in &summary.untrack_pages {
            self.space.write_untrack(page);
        }
        ctx.stats.retired_blocks += summary.retired;
        // The outgoing scheme cleans up its machine-wide residue (PST
        // unprotects its registered pages) while the world is stopped.
        adapt.candidates[active].on_deactivate(ctx);
        // Poison every engine conflict token: an in-flight region
        // transaction aborts at its next dispatch, rolls back to its
        // LL, and retries under code translated by the new scheme.
        for slot in 0..8 {
            self.htm
                .notify_plain_store(adbt_htm::HtmDomain::engine_token(slot));
        }
        // Note the decision while the old index is still live, so the
        // log line reads active=outgoing, target=incoming.
        self.adapt_note(
            ctx,
            adapt,
            inner,
            epoch,
            AdaptAction::Migrate,
            target,
            site,
            scores,
        );
        adapt.active.store(target, Ordering::Release);
        adapt.generation.fetch_add(1, Ordering::Release);
        // Observe our own migration now — this hop's generation check
        // already ran for the current block edge.
        ctx.adapt_generation = adapt.generation.load(Ordering::Relaxed);
        ctx.cpu.monitor.addr = None;
        ctx.stats.adapt_migrations += 1;
        inner.cooldown_left = adapt.config.cooldown;
        inner.streak = 0;
        ctx.trace(TraceKind::AdaptMigrate, site.unwrap_or(0), target as u32);
        ctx.end_exclusive();
        None
    }

    /// The hottest contended guest PC machine-wide: profile entries
    /// ranked by their contention-event sum. Entries arrive pre-sorted
    /// by pc and the strict `>` keeps the first seen, so ties
    /// break to the lowest PC — deterministic across runs.
    fn hottest_site(&self) -> Option<(u32, u64)> {
        let rec = self.profile.as_ref()?;
        let snapshot = rec.merged();
        let mut best: Option<(u32, u64)> = None;
        for entry in &snapshot.entries {
            let score = entry.get(ProfMetric::ScFail)
                + entry.get(ProfMetric::HtmConflict)
                + entry.get(ProfMetric::HtmCapacity)
                + entry.get(ProfMetric::FalseSharing)
                + entry.get(ProfMetric::Invalidation);
            if score > 0 && best.is_none_or(|(_, s)| score > s) {
                best = Some((entry.pc, score));
            }
        }
        best
    }

    /// Runs the vCPUs on real OS threads until all exit (or fail); the
    /// mode every performance experiment uses.
    pub fn run_threaded(&self, vcpus: Vec<Vcpu>) -> RunReport {
        self.threaded.store(true, Ordering::Relaxed);
        self.exclusive.reset_halt();
        let n = vcpus.len() as u32;
        let watch = self.config.watchdog_ms > 0;
        let beats: Vec<Arc<VcpuBeat>> = (0..n).map(|_| Arc::new(VcpuBeat::new())).collect();
        let fired: Mutex<Option<WatchdogDump>> = Mutex::new(None);
        let start = Instant::now();
        let mut results: Vec<(VcpuOutcome, VcpuStats)> = Vec::with_capacity(vcpus.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = vcpus
                .into_iter()
                .zip(&beats)
                .map(|(cpu, beat)| {
                    let beat = Arc::clone(beat);
                    scope.spawn(move || {
                        let mut ctx = ExecCtx::new(cpu, self, n);
                        // A lone vCPU thread is the only host thread
                        // touching guest state (the watchdog reads only
                        // heartbeats): serial context.
                        ctx.parallel = n > 1;
                        if watch {
                            ctx.robust = true;
                            ctx.beat = Some(Arc::clone(&beat));
                        }
                        let mut l1 = L1Cache::new();
                        self.exclusive.register();
                        ctx.qsbr_slot = self.qsbr.register();
                        let chain_limit = self.config.chain_limit;
                        // Threads never pause mid-block: stays empty.
                        let mut cursor = None;
                        let outcome = loop {
                            if let Some(outcome) =
                                self.step(&mut ctx, &mut l1, chain_limit, &mut cursor)
                            {
                                break outcome;
                            }
                        };
                        // Leave nothing open (uncommitted transaction or a
                        // degraded region's exclusive section) on the way out.
                        ctx.release_region();
                        beat.done.store(true, Ordering::Relaxed);
                        self.qsbr.unregister(ctx.qsbr_slot);
                        self.exclusive.unregister();
                        (outcome, ctx.stats)
                    })
                })
                .collect();
            if watch {
                scope.spawn(|| self.watchdog_loop(&beats, &fired));
            }
            for handle in handles {
                results.push(handle.join().expect("vCPU thread panicked"));
            }
        });
        let wall = start.elapsed();
        // Leave the machine reusable after a halt-based teardown.
        self.exclusive.reset_halt();
        let dump = fired.lock().take();
        self.report(results, wall, dump)
    }

    /// The watchdog sampler: wakes every `watchdog_ms`, and halts the
    /// machine with a diagnostic dump when no live vCPU made progress for
    /// a whole interval. Exits when every vCPU is done.
    fn watchdog_loop(&self, beats: &[Arc<VcpuBeat>], fired: &Mutex<Option<WatchdogDump>>) {
        let interval = Duration::from_millis(self.config.watchdog_ms.max(1));
        // Sentinel priming gives every vCPU a full first interval of grace.
        let mut last = vec![u64::MAX; beats.len()];
        loop {
            // Sleep in short slices so the sampler notices completion
            // promptly instead of overstaying a long interval.
            let deadline = Instant::now() + interval;
            loop {
                if beats.iter().all(|b| b.done.load(Ordering::Relaxed)) {
                    return;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
            }
            if let Some(mut dump) = watchdog::sample(beats, &mut last) {
                // Attach what each vCPU was doing at the moment of death:
                // the last ring events are the livelock's fingerprint.
                if let Some(rec) = &self.trace {
                    dump.attach_ring_events(rec.last_events(WATCHDOG_TAIL));
                }
                // And what the translation cache looked like: a stall
                // during an invalidation storm or a flush loop shows up
                // as limbo that never drains or a budget pinned at the
                // limit.
                dump.attach_occupancy(self.cache.occupancy());
                // Which injections drove the stall (the text report used
                // to lose the per-site counts entirely).
                if let Some(plane) = &self.chaos {
                    dump.attach_chaos(plane.snapshot());
                }
                // And where each stalled vCPU was paying, when the
                // attribution plane is on: its top profile entries.
                if let Some(rec) = &self.profile {
                    let profiles = dump
                        .stalled_tids
                        .iter()
                        .map(|&tid| (tid, rec.top_n(tid, None, 8)))
                        .collect();
                    dump.attach_profiles(profiles);
                }
                *fired.lock() = Some(dump);
                // Release every parked or waiting thread; robust_hop turns
                // each survivor into a clean Livelocked outcome.
                self.exclusive.halt();
                return;
            }
        }
    }

    /// The engine's one deterministic driver: runs the vCPUs on the
    /// calling thread, one **atom** at a time, with `sched` picking who
    /// runs each atom. Lockstep ([`RoundRobin`](crate::RoundRobin)), the
    /// simulated multicore ([`MachineCore::run_sim`]) and `adbt-check`'s
    /// exploration are all schedulers on this driver. An atom is one
    /// translated block — or, at pause-point granularity, the partial
    /// block up to / resuming from an `Op::Yield` / `Op::Window` pause
    /// point, with every atomicity-relevant action streamed to the
    /// scheduler as a [`SchedEvent`]. Combine with `max_block_insns: 1`
    /// for instruction granularity.
    ///
    /// Runs until every vCPU finishes or `max_atoms` atoms have been
    /// dispatched; vCPUs still live at the cap report as livelocked.
    pub fn run_scheduled<S: Scheduler + ?Sized>(
        &self,
        vcpus: Vec<Vcpu>,
        sched: &mut S,
        max_atoms: u64,
    ) -> RunReport {
        self.threaded.store(false, Ordering::Relaxed);
        let n = vcpus.len();
        let start = Instant::now();
        self.exclusive.register();
        // One thread runs every vCPU, so one QSBR slot serves them all;
        // `step` announces through it only while no cursor is paused.
        let slot = self.qsbr.register();
        let pause_points = sched.granularity() == Granularity::PausePoints;
        // Each vCPU's context, L1 cache and paused-block cursor.
        let mut lanes: Vec<(ExecCtx<'_>, L1Cache, Cursor)> = vcpus
            .into_iter()
            .map(|cpu| {
                let mut ctx = ExecCtx::new(cpu, self, n as u32);
                ctx.qsbr_slot = slot;
                ctx.pause_points = pause_points;
                // The calling thread runs every vCPU: serial context.
                ctx.parallel = false;
                (ctx, L1Cache::new(), None)
            })
            .collect();
        let mut outcomes: Vec<Option<VcpuOutcome>> = vec![None; n];
        let mut enabled = vec![true; n];
        let mut remaining = n;
        let mut last = None;
        let mut atom = 0u64;
        while remaining > 0 && atom < max_atoms {
            let idx = sched.pick(atom, &enabled, last);
            assert!(
                enabled.get(idx).copied().unwrap_or(false),
                "scheduler picked finished or out-of-range vCPU {idx}"
            );
            let (ctx, l1, cursor) = &mut lanes[idx];
            // `idx` runs for as long as the scheduler keeps it, one block
            // per atom: the scheduler is the outer loop.
            loop {
                let done = self.step(ctx, l1, 1, cursor);
                let keep = sched.charge(idx, &mut ctx.stats, &enabled);
                if let Some(outcome) = done {
                    ctx.release_region();
                    outcomes[idx] = Some(outcome);
                    enabled[idx] = false;
                    remaining -= 1;
                }
                if pause_points {
                    // Drained after the outcome so teardown events
                    // (exclusive exits from `release_region`) reach the
                    // scheduler too.
                    for event in ctx.drain_events() {
                        sched.observe(atom, event);
                    }
                }
                atom += 1;
                if !keep || !enabled[idx] || atom >= max_atoms {
                    break;
                }
            }
            last = Some(idx);
        }
        // Cursors still paused at the atom cap die with their ctxs;
        // leave the machine reusable for the next run.
        self.cursor_pins.store(0, Ordering::Release);
        self.qsbr.unregister(slot);
        self.exclusive.unregister();
        let wall = start.elapsed();
        let results = lanes
            .into_iter()
            .zip(outcomes)
            .enumerate()
            .map(|(idx, ((mut ctx, _, _), outcome))| {
                sched.settle(idx, &mut ctx.stats);
                (
                    outcome.unwrap_or(VcpuOutcome::Livelocked { pc: ctx.cpu.pc }),
                    ctx.stats,
                )
            })
            .collect();
        self.report(results, wall, None)
    }

    /// Runs the vCPUs on a **simulated multicore**: the deterministic
    /// driver under a [`VirtualTimeScheduler`], which always advances
    /// the vCPU with the smallest virtual clock, one translated block at
    /// a time, charging each block against the [`SimCosts`] model.
    /// Stop-the-world sections synchronize every clock (which is exactly
    /// why exclusive-heavy schemes stop scaling — the paper's
    /// observation, reproduced host-independently).
    ///
    /// Interleaving is block-granular, so cross-thread races (SC
    /// failures, HTM conflicts, ABA interleavings) genuinely occur; the
    /// schedule is a pure function of the guest and the cost model, so
    /// runs are exactly reproducible. The run's "execution time" is the
    /// makespan [`RunReport::sim_time`].
    pub fn run_sim(&self, vcpus: Vec<Vcpu>, costs: &SimCosts) -> RunReport {
        let mut sched = VirtualTimeScheduler::new(costs, vcpus.len());
        self.run_scheduled(vcpus, &mut sched, SIM_MAX_ATOMS)
    }

    fn report(
        &self,
        results: Vec<(VcpuOutcome, VcpuStats)>,
        wall: Duration,
        watchdog: Option<WatchdogDump>,
    ) -> RunReport {
        let mut merged = VcpuStats::default();
        let mut outcomes = Vec::with_capacity(results.len());
        let mut per_cpu = Vec::with_capacity(results.len());
        for (outcome, stats) in results {
            merged.merge(&stats);
            outcomes.push(outcome);
            per_cpu.push(stats);
        }
        RunReport {
            outcomes,
            per_cpu,
            stats: merged,
            wall,
            htm: self.htm.stats(),
            output: self.output.lock().clone(),
            collisions: self.store_test.collision_stats(),
            watchdog,
            chaos: self.chaos.as_ref().map(|plane| plane.snapshot()),
        }
    }

    /// Number of block slots ever allocated in the shared translation
    /// cache (including retired ones — arena ids are never reused).
    pub fn cached_blocks(&self) -> usize {
        self.cache.len()
    }

    /// A point-in-time translation-cache occupancy snapshot: live
    /// blocks, arena footprint against the budget, and the lifecycle
    /// counters (invalidations, flushes, reclamation) — the data behind
    /// `adbt_run --stats` and watchdog dumps.
    pub fn cache_occupancy(&self) -> CacheOccupancy {
        self.cache.occupancy()
    }

    /// Translates (or fetches from cache) the block at `pc` and renders
    /// it with [`adbt_ir::print_block`] — the debugging view of what the
    /// active scheme actually emits for a piece of guest code.
    ///
    /// # Errors
    ///
    /// Returns the trap if instruction fetch faults (unmapped `pc`).
    pub fn dump_block(&self, pc: u32) -> Result<String, Trap> {
        // The throwaway context exists only to drive translation; its
        // stats are dropped, so dumping never perturbs run counters.
        let mut ctx = ExecCtx::new(Vcpu::new(1, pc), self, 1);
        let id = self.lookup_or_translate(&mut ctx, pc)?;
        let block = self.cache.block(id).expect("block just translated");
        Ok(adbt_ir::print_block(block))
    }
}

impl std::fmt::Debug for MachineCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineCore")
            .field("scheme", &self.scheme.name())
            .field("mem_size", &self.config.mem_size)
            .field("cached_blocks", &self.cached_blocks())
            .finish()
    }
}

fn trap_outcome(trap: Trap) -> VcpuOutcome {
    match trap {
        Trap::Exit(code) => VcpuOutcome::Exited(code),
        Trap::Livelock { pc, .. } => VcpuOutcome::Livelocked { pc },
        other => VcpuOutcome::Crashed(other),
    }
}

/// A per-vCPU direct-mapped `pc → block id` cache in front of the
/// sharded shared cache, so an unchained dispatch in steady state takes
/// no lock and touches no shared cache line.
struct L1Cache {
    slots: Vec<Option<(u32, u32)>>,
    /// Shared-cache invalidation version this L1 last synced with; a
    /// mismatch (one retire batch anywhere) drops every entry, so a
    /// retired id can never be served from here. Checked on the lookup
    /// lane only — the chain-follow fast path is protected by link
    /// revocation instead.
    version: u32,
}

const L1_SIZE: usize = 1024;

impl L1Cache {
    fn new() -> L1Cache {
        L1Cache {
            slots: vec![None; L1_SIZE],
            version: 0,
        }
    }

    #[inline]
    fn sync(&mut self, version: u32) {
        if self.version != version {
            self.slots.iter_mut().for_each(|slot| *slot = None);
            self.version = version;
        }
    }

    #[inline]
    fn get(&self, pc: u32) -> Option<u32> {
        match self.slots[(pc as usize >> 2) & (L1_SIZE - 1)] {
            Some((tag, id)) if tag == pc => Some(id),
            _ => None,
        }
    }

    #[inline]
    fn put(&mut self, pc: u32, id: u32) {
        self.slots[(pc as usize >> 2) & (L1_SIZE - 1)] = Some((pc, id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atomicity, RoundRobin};
    use adbt_ir::{BlockBuilder, Op, Slot, Src};

    /// A scheme whose LL is a helper recording `(tid, ctx.parallel)`:
    /// which context the driver gave each vCPU.
    struct RecordParallel {
        seen: Arc<Mutex<Vec<(u32, bool)>>>,
        probe: Option<adbt_ir::HelperId>,
    }

    impl AtomicScheme for RecordParallel {
        fn name(&self) -> &'static str {
            "record-parallel"
        }
        fn atomicity(&self) -> Atomicity {
            Atomicity::Incorrect
        }
        fn install(&mut self, reg: &mut HelperRegistry) {
            let seen = Arc::clone(&self.seen);
            self.probe = Some(reg.register(
                "record_parallel",
                Box::new(move |ctx, _| {
                    seen.lock().push((ctx.cpu.tid, ctx.parallel));
                    Ok(0)
                }),
            ));
        }
        fn lower_ll(&self, b: &mut BlockBuilder, rd: Slot, addr: Src) {
            b.push(Op::Helper {
                id: self.probe.expect("installed"),
                args: vec![addr],
                ret: Some(rd),
            });
        }
        fn lower_sc(&self, _: &mut BlockBuilder, _: Slot, _: Src, _: Src) {}
        fn lower_clrex(&self, _: &mut BlockBuilder) {}
    }

    /// Runs `ldrex` once per vCPU under `run` and returns what the probe
    /// recorded, sorted by tid.
    fn record(n: u32, run: impl Fn(&MachineCore, Vec<Vcpu>) -> RunReport) -> Vec<(u32, bool)> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let scheme = RecordParallel {
            seen: Arc::clone(&seen),
            probe: None,
        };
        let machine = MachineCore::new(MachineConfig::default(), Box::new(scheme)).unwrap();
        let image = adbt_isa::asm::assemble("ldrex r1, [r5]\nmov r0, #0\nsvc #0\n", 0x1000)
            .expect("assembles");
        machine.load_image(&image);
        let report = run(&machine, machine.make_vcpus(n, 0x1000));
        assert!(report.all_ok(), "{:?}", report.outcomes);
        let mut seen = seen.lock().clone();
        seen.sort_unstable();
        seen
    }

    #[test]
    fn only_one_host_thread_per_run_makes_a_context_serial() {
        let scheduled = record(3, |m, vcpus| {
            m.run_scheduled(vcpus, &mut RoundRobin::default(), 1_000)
        });
        assert_eq!(scheduled, [(1, false), (2, false), (3, false)]);
        let sim = record(2, |m, vcpus| m.run_sim(vcpus, &SimCosts::default()));
        assert_eq!(sim, [(1, false), (2, false)]);
        let lone = record(1, |m, vcpus| m.run_threaded(vcpus));
        assert_eq!(lone, [(1, false)]);
        let pair = record(2, |m, vcpus| m.run_threaded(vcpus));
        assert_eq!(pair, [(1, true), (2, true)]);

        let machine = MachineCore::new(
            MachineConfig::default(),
            Box::new(RecordParallel {
                seen: Arc::default(),
                probe: None,
            }),
        )
        .unwrap();
        assert!(ExecCtx::new(Vcpu::new(1, 0x1000), &machine, 1).parallel);
    }
}
