//! Execution statistics and the profiling buckets behind the paper's
//! Fig. 12 overhead breakdown and Table I instruction profile.
//!
//! Counters are plain `u64` fields updated by the owning vCPU thread and
//! merged after the run, so collection adds no synchronization to the
//! hot path. Each is declared once, as a row of
//! [`VcpuStats::COUNTERS`]; merging, JSON, `--stats` and the counter
//! invariants are loops over that table. Wall-time is split into four
//! buckets following §IV-B2:
//!
//! * **exclusive** — waiting for / holding the stop-the-world section,
//!   time parked at safepoints, and contended store-test entry locks;
//! * **mprotect** — page-permission and remap system-call analogues;
//! * **instrument** — store/LL/SC instrumentation, *estimated* as event
//!   counts × per-event costs calibrated once per process (timing every
//!   inlined hash-table store would cost more than the store itself and
//!   distort exactly the effect being measured);
//! * **native** — everything else (the remainder of wall time).

use std::time::{Duration, Instant};

/// What a counter measures, which decides where it may be compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Events. Exact, and bit-reproducible in the deterministic modes.
    Count,
    /// Host wall-clock nanoseconds. Two identical runs, deterministic
    /// ones included, measure different values, so no oracle compares
    /// them.
    Ns,
    /// Virtual-time cost units charged by the simulated mode (see
    /// [`SimCosts`]); zero in every other mode.
    Units,
}

/// How per-vCPU values combine into the machine-wide value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// The per-vCPU sum.
    Sum,
    /// The per-vCPU maximum (a clock: the run's makespan).
    Max,
}

/// One row of [`VcpuStats::COUNTERS`].
#[derive(Clone, Copy, Debug)]
pub struct Counter {
    /// The field name, which is also the counter's JSON key and
    /// `--stats` label.
    pub name: &'static str,
    /// What the counter measures.
    pub unit: Unit,
    /// How per-vCPU values combine.
    pub merge: Merge,
    read: fn(&VcpuStats) -> u64,
    write: fn(&mut VcpuStats) -> &mut u64,
}

impl Counter {
    /// This counter's value in `stats`.
    pub fn get(&self, stats: &VcpuStats) -> u64 {
        (self.read)(stats)
    }

    /// This counter's field in `stats`.
    fn get_mut<'a>(&self, stats: &'a mut VcpuStats) -> &'a mut u64 {
        (self.write)(stats)
    }
}

/// Declares [`VcpuStats`] and [`VcpuStats::COUNTERS`] from one list of
/// rows, each a doc comment plus `name: unit merge`.
macro_rules! counter_table {
    (@unit count) => { Unit::Count };
    (@unit ns) => { Unit::Ns };
    (@unit units) => { Unit::Units };
    (@merge sum) => { Merge::Sum };
    (@merge max) => { Merge::Max };
    ($($(#[$doc:meta])* $name:ident: $unit:ident $merge:ident,)*) => {
        /// Per-vCPU event counters and timed buckets, one `u64` field per
        /// row of [`VcpuStats::COUNTERS`].
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct VcpuStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl VcpuStats {
            /// Every counter in declaration order, which is also the
            /// order of the JSON keys and of `--stats`.
            pub const COUNTERS: &'static [Counter] = &[$(Counter {
                name: stringify!($name),
                unit: counter_table!(@unit $unit),
                merge: counter_table!(@merge $merge),
                read: |s| s.$name,
                write: |s| &mut s.$name,
            }),*];
        }
    };
}

counter_table! {
    /// Guest instructions executed.
    insns: count sum,
    /// Translated blocks executed.
    blocks: count sum,
    /// Blocks translated (translation-cache misses).
    translations: count sum,
    /// Architectural guest loads executed.
    loads: count sum,
    /// Architectural guest stores executed.
    stores: count sum,
    /// LL (`ldrex`) instructions executed.
    ll: count sum,
    /// SC (`strex`) instructions executed.
    sc: count sum,
    /// SC attempts that failed (monitor lost, hash entry stolen, CAS
    /// mismatch — per the active scheme's semantics).
    sc_failures: count sum,
    /// Of `sc_failures`, those forced by the chaos plane's `ScFail`
    /// site rather than organic contention — kept separate so injected
    /// noise never pollutes contention analysis.
    sc_failures_injected: count sum,
    /// Runtime helper invocations.
    helper_calls: count sum,
    /// Inline store-test table updates (`Op::HtableSet`).
    htable_sets: count sum,
    /// Page faults routed to the scheme handler.
    page_faults: count sum,
    /// Of those, faults on the monitored page but a *different* address —
    /// the false-sharing faults of §IV-B2.
    false_sharing_faults: count sum,
    /// Stop-the-world exclusive sections entered by this vCPU.
    exclusive_entries: count sum,
    /// Page-permission changes (`mprotect` analogue calls).
    mprotect_calls: count sum,
    /// Page remaps (`mremap` analogue calls).
    remap_calls: count sum,
    /// HTM transactions begun by this vCPU.
    htm_txns: count sum,
    /// HTM aborts observed by this vCPU.
    htm_aborts: count sum,
    /// Guest `yield`s executed.
    yields: count sum,
    /// Global-lock acquisitions by scheme helpers (PICO-ST's store/LL/SC
    /// lock, PST's monitor registry). The simulator queues these on one
    /// shared resource, which is how lock contention — invisible to a
    /// single-threaded simulation — re-enters the model.
    lock_acquisitions: count sum,
    /// Translated-block dispatches executed while a region transaction
    /// was open (PICO-HTM): each one runs engine code *inside* the
    /// transaction, the paper's "QEMU becomes part of the transaction".
    txn_dispatches: count sum,
    /// LL/SC retry loops fused into single host atomics by the
    /// rule-based translation pass (paper §VI).
    fused_rmws: count sum,
    /// Block dispatches that went through a cache lookup (L1 probe,
    /// possibly falling through to the sharded shared cache) because no
    /// chain link resolved the successor.
    dispatch_lookups: count sum,
    /// Block dispatches resolved by a patched chain link on the previous
    /// block's exit — zero lookups, the chained fast path.
    chain_follows: count sum,
    /// Of `dispatch_lookups`, those satisfied by the per-vCPU L1 cache.
    l1_hits: count sum,
    /// Of `dispatch_lookups`, those that missed the L1 and went to the
    /// sharded shared cache (translating on a shared-cache miss).
    l1_misses: count sum,
    /// Faults fired into this vCPU by the chaos injection plane (zero
    /// unless the machine was built with `MachineConfig::chaos`).
    injected_faults: count sum,
    /// Times an HTM-backed path spent its retry budget and downgraded to
    /// the stop-the-world fallback (HST-HTM's exclusive SC, PICO-HTM's
    /// exclusive region when `htm_degrade_after` is enabled).
    degradations: count sum,
    /// Always 0: the engine has one translation tier. Kept only
    /// because the frozen `e2ebench/` reads it; it goes at the next
    /// change to the benchmark.
    promotions: count sum,
    /// Always 0, kept for `e2ebench/` like `promotions`.
    deopts: count sum,
    /// Always 0, kept for `e2ebench/` like `promotions`.
    tier_insns: count sum,
    /// Invalidation batches this vCPU triggered: SMC stores over
    /// translated code plus injected invalidation-storm events.
    invalidations: count sum,
    /// Generational cache flushes this vCPU triggered under the
    /// `cache_limit` memory budget.
    flushes: count sum,
    /// Blocks this vCPU retired across invalidations and flushes.
    retired_blocks: count sum,
    /// Limbo blocks this vCPU physically freed after their QSBR grace
    /// period elapsed.
    reclaimed_blocks: count sum,
    /// Stores that faulted on a write-tracked code page but overlapped
    /// no translated byte — code/data false sharing on a code page (the
    /// SMC analogue of `false_sharing_faults`).
    smc_false_sharing: count sum,
    /// Adaptive-arbiter epochs this vCPU arbitrated (scored an epoch
    /// under `--scheme auto`).
    adapt_epochs: count sum,
    /// Scheme migrations this vCPU executed.
    adapt_migrations: count sum,
    /// Arbiter proposals the engine rejected for atomicity-class policy
    /// reasons.
    adapt_denied: count sum,

    /// Nanoseconds spent waiting for + holding exclusive sections and
    /// parked at safepoints.
    exclusive_ns: ns sum,
    /// Nanoseconds spent in permission/remap work (including its
    /// stop-the-world component, which is *not* double-counted into
    /// `exclusive_ns` — the scheme owns the attribution).
    mprotect_ns: ns sum,
    /// Nanoseconds spent in contended store-test entry locks.
    lock_wait_ns: ns sum,

    /// Simulated-mode only: this vCPU's final virtual clock, in cost
    /// units (see [`SimCosts`]).
    sim_time: units max,
    /// Simulated-mode only: units spent parked by stop-the-world
    /// synchronizations (the "exclusive" bucket of Fig. 12).
    sim_exclusive_units: units sum,
    /// Simulated-mode only: units charged to permission/remap work.
    sim_mprotect_units: units sum,
    /// Simulated-mode only: units charged to instrumentation (helper
    /// dispatch + inline table updates).
    sim_instrument_units: units sum,
    /// Simulated-mode only: units charged to page faults and HTM
    /// transaction management.
    sim_event_units: units sum,
}

impl VcpuStats {
    /// Merges another vCPU's counters into this one, row by row.
    pub fn merge(&mut self, other: &VcpuStats) {
        for row in Self::COUNTERS {
            let theirs = row.get(other);
            let ours = row.get_mut(self);
            *ours = match row.merge {
                Merge::Sum => *ours + theirs,
                Merge::Max => (*ours).max(theirs),
            };
        }
    }

    /// Renders every counter as one JSON object, keys in table order:
    /// the stats block of the `adbt-metrics-v1` snapshot schema
    /// (`adbt_run --stats-json` and the final `--metrics` line).
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = Self::COUNTERS
            .iter()
            .map(|row| format!("\"{}\":{}", row.name, row.get(self)))
            .collect();
        format!("{{{}}}", cells.join(","))
    }

    /// A copy with every wall-clock (`ns`) row zeroed: what two
    /// identical deterministic runs must agree on exactly.
    pub fn without_wall_clock(&self) -> VcpuStats {
        let mut stats = self.clone();
        for row in Self::COUNTERS.iter().filter(|row| row.unit == Unit::Ns) {
            *row.get_mut(&mut stats) = 0;
        }
        stats
    }

    /// Checks this merged snapshot against `per_cpu`, the snapshots it
    /// was merged from: every failure or subset counter stays within the
    /// counter it refines, and every row equals the per-vCPU sum (or
    /// max). A counter that goes backwards or merges twice breaks one
    /// of them. Returns one description per violation; empty is clean.
    pub fn invariant_violations(&self, per_cpu: &[VcpuStats]) -> Vec<String> {
        let s = self;
        let bounds = [
            ("sc_failures ≤ sc", s.sc_failures, s.sc),
            (
                "htm_aborts ≤ htm_txns + txn_dispatches",
                s.htm_aborts,
                s.htm_txns + s.txn_dispatches,
            ),
            (
                "degradations ≤ exclusive_entries",
                s.degradations,
                s.exclusive_entries,
            ),
            (
                "sc_failures_injected ≤ sc_failures",
                s.sc_failures_injected,
                s.sc_failures,
            ),
            (
                "adapt_migrations ≤ adapt_epochs",
                s.adapt_migrations,
                s.adapt_epochs,
            ),
            (
                "adapt_denied ≤ adapt_epochs",
                s.adapt_denied,
                s.adapt_epochs,
            ),
        ];
        let mut violations: Vec<String> = bounds
            .into_iter()
            .filter(|(_, lhs, rhs)| lhs > rhs)
            .map(|(what, lhs, rhs)| format!("{what}: {lhs} > {rhs}"))
            .collect();
        for row in Self::COUNTERS {
            let values = per_cpu.iter().map(|c| row.get(c));
            let (how, expected) = match row.merge {
                Merge::Sum => ("sum", values.sum()),
                Merge::Max => ("max", values.max().unwrap_or(0)),
            };
            let merged = row.get(s);
            if merged != expected {
                violations.push(format!(
                    "merged {} {merged} ≠ per-vCPU {how} {expected}",
                    row.name
                ));
            }
        }
        violations
    }
}

/// The virtual-time cost model used by the simulated-multicore mode
/// (`MachineCore::run_sim`).
///
/// Units are abstract "cycles"; only *ratios* matter. Defaults are
/// calibrated from the cost structure the paper describes for QEMU on
/// x86: a helper call costs tens of instructions of spill/dispatch
/// overhead, an inline hash-table update costs about one store, a page
/// fault costs a signal delivery (~microseconds ≈ thousands of
/// instruction-units), and an `mprotect` costs a syscall plus bringing
/// every other thread to a safepoint (the clock synchronization is
/// applied by the scheduler on top of these per-event charges).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimCosts {
    /// Per guest instruction.
    pub insn: u64,
    /// Extra per guest load or store (memory access path).
    pub memory_access: u64,
    /// Per runtime-helper dispatch (PICO-ST's per-store penalty).
    pub helper_call: u64,
    /// Per inline store-test table update (HST's per-store penalty).
    pub htable_set: u64,
    /// Per LL and per SC base emulation work.
    pub llsc: u64,
    /// Per guest `yield` (spin-wait hint).
    pub yield_hint: u64,
    /// Per page fault delivered to a scheme handler.
    pub page_fault: u64,
    /// Per `mprotect` permission change (syscall analogue).
    pub mprotect: u64,
    /// Per `mremap` page move (PST-REMAP's syscall analogue).
    pub remap: u64,
    /// Per HTM transaction begin+commit pair.
    pub htm_txn: u64,
    /// Extra per HTM abort (rollback + restart).
    pub htm_abort: u64,
    /// Extra per block dispatched inside an open region transaction —
    /// the inflated emulator code running transactionally (PICO-HTM).
    pub txn_dispatch: u64,
    /// Flat cost of a stop-the-world section (the work done alone plus
    /// resuming everyone), paid by the requester.
    pub exclusive_section: u64,
    /// How long the requester waits for every other vCPU to reach its
    /// next safepoint (block boundary) — the entry latency of a
    /// stop-the-world section.
    pub safepoint_wait: u64,
    /// How long a scheme's *global* lock (PICO-ST registry, PST monitor
    /// table) is held per acquisition; acquisitions queue on one shared
    /// resource, so past saturation the lock serializes all comers.
    pub lock_hold: u64,
    /// Per block translation (cold code only).
    pub translation: u64,
    /// The mean scheduling quantum, in units: a vCPU keeps running while
    /// its clock is within this bound of the furthest-behind peer. Small
    /// values over-interleave (every LL/SC pair gets preempted mid-window
    /// — unphysical retry storms); large values under-interleave (races
    /// disappear). The default corresponds to a few dozen guest
    /// instructions, the scale of real cache-contention windows.
    pub quantum: u64,
    /// Seed for the deterministic quantum jitter. Each quantum's length
    /// is drawn from `[quantum/2, 3*quantum/2)` by a seeded xorshift, so
    /// preemption points land at varied phases of the guest's loops —
    /// without jitter, every preemption aligns with whole synchronization
    /// operations and cross-thread races (including ABA) artificially
    /// vanish. Same seed ⇒ same schedule ⇒ bit-identical results.
    pub jitter_seed: u64,
}

impl Default for SimCosts {
    fn default() -> SimCosts {
        SimCosts {
            insn: 1,
            memory_access: 1,
            helper_call: 12,
            htable_set: 1,
            llsc: 3,
            yield_hint: 10,
            page_fault: 2_000,
            mprotect: 3_000,
            remap: 1_500,
            htm_txn: 40,
            htm_abort: 60,
            txn_dispatch: 50,
            exclusive_section: 60,
            safepoint_wait: 20,
            lock_hold: 30,
            translation: 300,
            quantum: 120,
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// A snapshot of the counters the simulator charges for; the per-block
/// delta is converted to virtual-time units.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SimSnapshot {
    insns: u64,
    loads: u64,
    stores: u64,
    ll: u64,
    sc: u64,
    helper_calls: u64,
    htable_sets: u64,
    page_faults: u64,
    mprotect_calls: u64,
    remap_calls: u64,
    htm_txns: u64,
    htm_aborts: u64,
    yields: u64,
    exclusive_entries: u64,
    translations: u64,
    lock_acquisitions: u64,
    txn_dispatches: u64,
}

impl SimSnapshot {
    pub(crate) fn capture(stats: &VcpuStats) -> SimSnapshot {
        SimSnapshot {
            insns: stats.insns,
            loads: stats.loads,
            stores: stats.stores,
            ll: stats.ll,
            sc: stats.sc,
            helper_calls: stats.helper_calls,
            htable_sets: stats.htable_sets,
            page_faults: stats.page_faults,
            mprotect_calls: stats.mprotect_calls,
            remap_calls: stats.remap_calls,
            htm_txns: stats.htm_txns,
            htm_aborts: stats.htm_aborts,
            yields: stats.yields,
            exclusive_entries: stats.exclusive_entries,
            translations: stats.translations,
            lock_acquisitions: stats.lock_acquisitions,
            txn_dispatches: stats.txn_dispatches,
        }
    }

    /// Charges the delta since this snapshot against `costs`, updating
    /// the per-bucket unit counters, and returns
    /// `(total units, stop-the-world sections, global-lock acquisitions)`.
    pub(crate) fn charge(&self, stats: &mut VcpuStats, costs: &SimCosts) -> (u64, u64, u64) {
        let instrument = (stats.helper_calls - self.helper_calls) * costs.helper_call
            + (stats.htable_sets - self.htable_sets) * costs.htable_set;
        let mprotect = (stats.mprotect_calls - self.mprotect_calls) * costs.mprotect
            + (stats.remap_calls - self.remap_calls) * costs.remap;
        let events = (stats.page_faults - self.page_faults) * costs.page_fault
            + (stats.htm_txns - self.htm_txns) * costs.htm_txn
            + (stats.htm_aborts - self.htm_aborts) * costs.htm_abort
            + (stats.txn_dispatches - self.txn_dispatches) * costs.txn_dispatch
            + (stats.translations - self.translations) * costs.translation;
        let native = (stats.insns - self.insns) * costs.insn
            + (stats.loads - self.loads + stats.stores - self.stores) * costs.memory_access
            + (stats.ll - self.ll + stats.sc - self.sc) * costs.llsc
            + (stats.yields - self.yields) * costs.yield_hint;
        stats.sim_instrument_units += instrument;
        stats.sim_mprotect_units += mprotect;
        stats.sim_event_units += events;
        let total = instrument + mprotect + events + native;
        let syncs = stats.exclusive_entries - self.exclusive_entries;
        let locks = stats.lock_acquisitions - self.lock_acquisitions;
        (total, syncs, locks)
    }
}

/// Per-event costs measured once per process, used to *estimate* the
/// instrumentation bucket (see module docs for why estimation beats
/// direct timing here).
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Cost of one inline store-test table update, in nanoseconds.
    pub htable_set_ns: f64,
    /// Cost of one helper dispatch (dynamic call + argument marshalling),
    /// in nanoseconds.
    pub helper_dispatch_ns: f64,
}

impl Calibration {
    /// Measures per-event costs on the current host. Called lazily once
    /// per process via [`calibration`].
    fn measure() -> Calibration {
        use std::sync::atomic::{AtomicU32, Ordering};
        const ROUNDS: u32 = 200_000;

        // Inline hash-table set: one index computation + one atomic store.
        let table: Vec<AtomicU32> = (0..1024).map(|_| AtomicU32::new(0)).collect();
        let start = Instant::now();
        for i in 0..ROUNDS {
            let idx = ((i.wrapping_mul(2654435761)) >> 2) as usize & 1023;
            table[idx].store(1, Ordering::Release);
        }
        let htable_set_ns = start.elapsed().as_nanos() as f64 / ROUNDS as f64;

        // Helper dispatch: boxed dynamic call with argument slice.
        type Dyn = Box<dyn Fn(&[u32]) -> u32 + Send + Sync>;
        let f: Dyn = Box::new(|args| args.iter().sum());
        let args = [1u32, 2, 3];
        let start = Instant::now();
        let mut acc = 0u32;
        for _ in 0..ROUNDS {
            acc = acc.wrapping_add(std::hint::black_box(&f)(std::hint::black_box(&args)));
        }
        std::hint::black_box(acc);
        let helper_dispatch_ns = start.elapsed().as_nanos() as f64 / ROUNDS as f64;

        Calibration {
            htable_set_ns: htable_set_ns.max(0.1),
            helper_dispatch_ns: helper_dispatch_ns.max(0.5),
        }
    }
}

/// Returns the process-wide calibration, measuring it on first use.
pub fn calibration() -> Calibration {
    use std::sync::OnceLock;
    static CAL: OnceLock<Calibration> = OnceLock::new();
    *CAL.get_or_init(Calibration::measure)
}

/// The Fig. 12 overhead breakdown derived from merged stats and the run's
/// wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Seconds attributable to plain emulation.
    pub native_s: f64,
    /// Seconds in exclusive sections / parked at safepoints / entry locks.
    pub exclusive_s: f64,
    /// Seconds in instrumentation (estimated; see module docs).
    pub instrument_s: f64,
    /// Seconds in permission/remap work.
    pub mprotect_s: f64,
}

impl Breakdown {
    /// Derives the breakdown from merged per-vCPU stats and total CPU
    /// seconds (wall time × threads).
    pub fn derive(stats: &VcpuStats, cpu_seconds: f64) -> Breakdown {
        let cal = calibration();
        let instrument_s = (stats.htable_sets as f64 * cal.htable_set_ns
            + stats.helper_calls as f64 * cal.helper_dispatch_ns)
            / 1e9;
        let exclusive_s =
            Duration::from_nanos(stats.exclusive_ns + stats.lock_wait_ns).as_secs_f64();
        let mprotect_s = Duration::from_nanos(stats.mprotect_ns).as_secs_f64();
        let native_s = (cpu_seconds - instrument_s - exclusive_s - mprotect_s).max(0.0);
        Breakdown {
            native_s,
            exclusive_s,
            instrument_s,
            mprotect_s,
        }
    }

    /// Total accounted seconds.
    pub fn total_s(&self) -> f64 {
        self.native_s + self.exclusive_s + self.instrument_s + self.mprotect_s
    }
}

/// The Fig. 12 overhead breakdown in virtual-time units (simulated-mode
/// analogue of [`Breakdown`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimBreakdown {
    /// Units of plain emulation (remainder).
    pub native: u64,
    /// Units parked by stop-the-world synchronizations.
    pub exclusive: u64,
    /// Units of store/LL/SC instrumentation.
    pub instrument: u64,
    /// Units of permission/remap work.
    pub mprotect: u64,
    /// Signed accounting residue: total CPU units minus every attributed
    /// bucket. Non-negative on a correct run (`native` equals it); a
    /// negative value means some bucket over-charged (double-counted
    /// units) and `native` was clamped to 0 — callers should surface it
    /// rather than let the clamp hide the accounting bug.
    pub residue: i64,
}

impl SimBreakdown {
    /// Derives the breakdown from merged stats. Total CPU units are
    /// `sim_time × threads` (every clock ends at the run's makespan in a
    /// balanced run; stragglers' idle tails count as native headroom).
    pub fn derive(stats: &VcpuStats, threads: u32) -> SimBreakdown {
        let total = stats.sim_time.saturating_mul(threads as u64);
        let exclusive = stats.sim_exclusive_units;
        let instrument = stats.sim_instrument_units;
        let mprotect = stats.sim_mprotect_units;
        let residue = total as i128 - exclusive as i128 - instrument as i128 - mprotect as i128;
        debug_assert!(
            residue >= 0,
            "sim breakdown residue is negative ({residue}): attributed units \
             (exclusive {exclusive} + instrument {instrument} + mprotect {mprotect}) \
             exceed total {total} — a bucket is over-charging"
        );
        let native = residue.max(0) as u64;
        SimBreakdown {
            native,
            exclusive,
            instrument,
            mprotect,
            residue: residue.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
        }
    }

    /// Total accounted units.
    pub fn total(&self) -> u64 {
        self.native + self.exclusive + self.instrument + self.mprotect
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_snapshot_charges_deltas() {
        let costs = SimCosts::default();
        let mut stats = VcpuStats::default();
        let snap = SimSnapshot::capture(&stats);
        stats.insns = 10;
        stats.stores = 2;
        stats.helper_calls = 1;
        stats.exclusive_entries = 1;
        let (units, syncs, locks) = snap.charge(&mut stats, &costs);
        assert_eq!(syncs, 1);
        assert_eq!(locks, 0);
        assert_eq!(
            units,
            10 * costs.insn + 2 * costs.memory_access + costs.helper_call
        );
        assert_eq!(stats.sim_instrument_units, costs.helper_call);
    }

    #[test]
    fn sim_breakdown_accounts_all_units() {
        let stats = VcpuStats {
            sim_time: 1_000,
            sim_exclusive_units: 100,
            sim_instrument_units: 200,
            sim_mprotect_units: 50,
            ..VcpuStats::default()
        };
        let b = SimBreakdown::derive(&stats, 4);
        assert_eq!(b.total(), 4_000);
        assert_eq!(b.exclusive, 100);
        assert_eq!(b.native, 4_000 - 350);
        assert_eq!(b.residue, 4_000 - 350);
    }

    /// Over-charged buckets must not be silently clamped away: debug
    /// builds assert, release builds report the negative residue so the
    /// caller can print a `breakdown-residue` warning.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "residue is negative"))]
    fn sim_breakdown_surfaces_negative_residue() {
        let stats = VcpuStats {
            sim_time: 100,
            sim_exclusive_units: 150,
            ..VcpuStats::default()
        };
        let b = SimBreakdown::derive(&stats, 1);
        assert_eq!(b.residue, -50);
        assert_eq!(b.native, 0, "native stays clamped for display");
    }

    /// Every row at a distinct value: row `i` holds `1001 × (i + 1)`.
    fn distinct() -> VcpuStats {
        let mut stats = VcpuStats::default();
        for (i, row) in VcpuStats::COUNTERS.iter().enumerate() {
            *row.get_mut(&mut stats) = 1001 * (i as u64 + 1);
        }
        stats
    }

    /// The JSON schema is pinned key for key: the golden file is what
    /// the hand-written renderer printed for `distinct()` before the
    /// table existed.
    #[test]
    fn to_json_is_pinned() {
        let golden = include_str!("../tests/data/vcpu_stats.json");
        assert_eq!(distinct().to_json(), golden.trim_end());
    }

    #[test]
    fn merge_sums_every_row_but_takes_the_max_clock() {
        let one = distinct();
        let mut merged = one.clone();
        merged.merge(&one);
        for row in VcpuStats::COUNTERS {
            let expected = match row.name {
                "sim_time" => row.get(&one),
                _ => 2 * row.get(&one),
            };
            assert_eq!(row.get(&merged), expected, "{}", row.name);
        }
        let wall_clock: Vec<&str> = VcpuStats::COUNTERS
            .iter()
            .filter(|row| row.unit == Unit::Ns)
            .map(|row| row.name)
            .collect();
        assert_eq!(wall_clock, ["exclusive_ns", "mprotect_ns", "lock_wait_ns"]);
        let masked = one.without_wall_clock();
        assert_eq!((masked.exclusive_ns, masked.lock_wait_ns), (0, 0));
        assert_eq!(masked.insns, one.insns);
    }

    #[test]
    fn invariant_violations_name_the_cooked_counter() {
        let per_cpu = [distinct(), VcpuStats::default()];
        let mut merged = VcpuStats::default();
        per_cpu.iter().for_each(|c| merged.merge(c));
        // `distinct` puts most subset counters above what they refine.
        let bounds = merged.invariant_violations(&per_cpu);
        assert!(
            bounds.iter().any(|v| v.starts_with("sc_failures ≤ sc:")),
            "{bounds:?}"
        );
        assert!(
            !bounds.iter().any(|v| v.starts_with("merged")),
            "{bounds:?}"
        );

        let per_cpu = [VcpuStats::default(), VcpuStats::default()];
        let mut merged = VcpuStats::default();
        assert!(merged.invariant_violations(&per_cpu).is_empty());
        merged.flushes += 1;
        assert_eq!(
            merged.invariant_violations(&per_cpu),
            ["merged flushes 1 ≠ per-vCPU sum 0"]
        );
    }

    #[test]
    fn calibration_is_positive_and_cached() {
        let c1 = calibration();
        let c2 = calibration();
        assert!(c1.htable_set_ns > 0.0);
        assert!(c1.helper_dispatch_ns > 0.0);
        assert_eq!(c1.htable_set_ns.to_bits(), c2.htable_set_ns.to_bits());
    }

    #[test]
    fn breakdown_accounts_all_time() {
        let stats = VcpuStats {
            htable_sets: 1_000_000,
            helper_calls: 1_000,
            exclusive_ns: 500_000_000,
            mprotect_ns: 250_000_000,
            ..VcpuStats::default()
        };
        let b = Breakdown::derive(&stats, 2.0);
        assert!(b.native_s > 0.0);
        assert!((b.total_s() - 2.0).abs() < 1e-9);
        assert!((b.exclusive_s - 0.5).abs() < 1e-9);
        assert!((b.mprotect_s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn breakdown_clamps_native_at_zero() {
        let stats = VcpuStats {
            exclusive_ns: u64::MAX / 2,
            ..VcpuStats::default()
        };
        let b = Breakdown::derive(&stats, 0.001);
        assert_eq!(b.native_s, 0.0);
    }
}
