//! The engine's one deterministic driver and its schedulers.
//!
//! The threaded engine interleaves vCPUs wherever the OS scheduler
//! pleases. Every other mode runs on [`MachineCore::run_scheduled`]: it
//! executes vCPUs one **atom** at a time on a single OS thread and asks
//! a [`Scheduler`] which vCPU runs next. Three schedulers cover the
//! paper's evidence:
//!
//! * [`RoundRobin`] — lockstep: whole blocks in rotation after an
//!   optional explicit prefix (the §IV-A Seq1–Seq4 litmus runs);
//! * [`VirtualTimeScheduler`] — the simulated multicore behind
//!   Figs. 10–12 (`MachineCore::run_sim`): the smallest virtual clock
//!   runs next, charged against the [`SimCosts`] model;
//! * [`ScriptedScheduler`] (and `adbt-check`'s explorer) — replayed or
//!   enumerated schedules at pause-point granularity, so a checker can
//!   *enumerate* schedules instead of sampling them.
//!
//! # The yield-point model
//!
//! An atom is the unit of scheduling: one translated block (the checker
//! sets `max_block_insns = 1`, so a block is one guest instruction), or
//! — at [`Granularity::PausePoints`] — the prefix/suffix of a block
//! around an explicit [`Op::Window`] / [`Op::Yield`] pause point. This
//! mirrors where the real engine can actually interleave: block
//! boundaries are where safepoints park vCPUs and where stop-the-world
//! sections cut in, while `Op::Window` marks a spot *inside* a lowered
//! sequence where the modelled scheme has a genuine non-atomic window
//! (e.g. PICO-ST's test-then-store). Everything else a scheme does
//! inline within a block — HST's fused `HtableSet` + store, PICO-CAS's
//! value-compare — is atomic in the real engine and stays atomic here.
//!
//! At pause-point granularity the scheduler also sees everything that
//! happens: every event [`ExecCtx::trace`] raises (LL, SC, guest store,
//! exclusive enter/exit, chaos injection, translation, …) reaches
//! [`Scheduler::observe`] as the flight recorder's [`TraceEvent`],
//! stamped with its atom number. This log is what the checker's oracle
//! judges. It holds the same events as the vCPU's ring, except that
//! entries raised inside an open HTM region transaction are held until
//! the region commits and dropped if it aborts. Guest stores are logged
//! (and traced) only at this granularity.
//!
//! # Schedule encoding
//!
//! A schedule is written as comma-separated segments `VxN` — "run vCPU
//! index `V` for `N` atoms" — with a bare `V` meaning "until further
//! notice": `0x12,1x3,0` runs vCPU 0 for 12 atoms, vCPU 1 for 3, then
//! vCPU 0 again. When the script runs out (or names a finished vCPU),
//! the [`ScriptedScheduler`] continues *non-preemptively*: it keeps the
//! last vCPU running until it exits, then picks the lowest-index one
//! still enabled. That convention keeps traces short and is what the
//! explorer's switch-insertion search builds on.
//!
//! [`MachineCore::run_scheduled`]: crate::MachineCore::run_scheduled
//! [`ExecCtx::trace`]: crate::ExecCtx::trace
//! [`Op::Window`]: adbt_ir::Op::Window
//! [`Op::Yield`]: adbt_ir::Op::Yield

use crate::stats::{SimCosts, VcpuStats};
use adbt_trace::TraceEvent;

/// How finely a [`Scheduler`] cuts vCPUs' execution into atoms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// One atom is one whole translated block; nothing is logged.
    Blocks,
    /// Blocks also split at `Op::Yield` / `Op::Window` pause points, and
    /// every event is logged to [`Scheduler::observe`].
    PausePoints,
}

/// Owns every yield point of a deterministic run: consulted for who runs
/// next, and shown every event (see the module docs).
pub trait Scheduler {
    /// Picks the vCPU index to run from atom number `atom` on.
    /// `enabled[i]` is false once vCPU `i` has finished; at least one
    /// entry is true. `last` is the index that ran the previous atom
    /// (`None` for the first). Returning a disabled index is a checker
    /// bug and panics.
    fn pick(&mut self, atom: u64, enabled: &[bool], last: Option<usize>) -> usize;

    /// Observes an event raised while running the atom numbered
    /// `event.ts` (pause-point granularity only). Guest addresses are
    /// virtual; `event.tid` is the 1-based vCPU id.
    fn observe(&mut self, event: TraceEvent) {
        let _ = event;
    }

    /// How finely atoms are cut; pause points unless overridden.
    fn granularity(&self) -> Granularity {
        Granularity::PausePoints
    }

    /// Charges the atom vCPU `idx` just ran, given its cumulative stats.
    /// `enabled` is as [`Scheduler::pick`] saw it (`idx` still enabled).
    /// Returns whether `idx` runs the next atom too without a new
    /// [`Scheduler::pick`] — a quantum; by default every atom is picked.
    fn charge(&mut self, idx: usize, stats: &mut VcpuStats, enabled: &[bool]) -> bool {
        let _ = (idx, stats, enabled);
        false
    }

    /// Settles vCPU `idx`'s final stats once the run is over.
    fn settle(&mut self, idx: usize, stats: &mut VcpuStats) {
        let _ = (idx, stats);
    }
}

/// Lockstep: whole blocks, an optional explicit prefix of vCPU indices
/// first (how litmus tests pin interleavings), then round-robin over
/// the live vCPUs.
///
/// Prefix entries wrap modulo the vCPU count, and entries naming a
/// finished vCPU are skipped. Round-robin resumes after its own last
/// pick, so explicit picks never advance it.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    prefix: Vec<u32>,
    pos: usize,
    next: usize,
}

impl RoundRobin {
    /// Runs `prefix` (vCPU indices, one block each) first; the default
    /// is pure round-robin.
    pub fn with_prefix(prefix: Vec<u32>) -> RoundRobin {
        RoundRobin {
            prefix,
            ..RoundRobin::default()
        }
    }
}

impl Scheduler for RoundRobin {
    fn pick(&mut self, _atom: u64, enabled: &[bool], _last: Option<usize>) -> usize {
        let n = enabled.len();
        while let Some(&idx) = self.prefix.get(self.pos) {
            self.pos += 1;
            let idx = idx as usize % n;
            if enabled[idx] {
                return idx;
            }
        }
        let mut idx = self.next % n;
        while !enabled[idx] {
            idx = (idx + 1) % n;
        }
        self.next = idx + 1;
        idx
    }

    fn granularity(&self) -> Granularity {
        Granularity::Blocks
    }
}

/// The simulated multicore: whole blocks, each charged against the
/// [`SimCosts`] model on its vCPU's virtual clock.
///
/// The vCPU with the smallest clock runs next (ties go to the least
/// recently run, then the lowest index) and keeps running for one
/// jittered quantum. Global-lock acquisitions queue on one shared lock
/// clock, and a stop-the-world section floors every other live clock to
/// its end — which is exactly why exclusive-heavy schemes stop scaling.
/// The schedule is a pure function of the guest and the cost model, so
/// runs are exactly reproducible.
#[derive(Clone, Debug)]
pub struct VirtualTimeScheduler {
    costs: SimCosts,
    clocks: Vec<u64>,
    /// The atom (plus one) each vCPU last started a quantum at, for
    /// least-recently-run tie-breaking: after a stop-the-world sync
    /// equalizes every clock, a lowest-index tie-break would starve all
    /// but one spinner (a waiter that syncs on every spin would never
    /// let the lock holder run).
    last_run: Vec<u64>,
    rng: u64,
    /// `costs.quantum` clamped to at least 2: quanta are drawn from
    /// `[base / 2, base / 2 + base)`.
    base: FastMod,
    /// The clock at which the running vCPU's quantum ends.
    quantum_end: u64,
    /// When the schemes' global lock frees up.
    lock_free_at: u64,
    /// What each vCPU had been charged for at its last charge.
    charged: Vec<Charged>,
    /// Units each vCPU spent parked by other vCPUs' stop-the-world
    /// sections, credited to its stats at settlement.
    parked: Vec<u64>,
}

/// A vCPU's totals as of its last charge: its weighted total
/// ([`SimCosts::weighted`]) and the two counters the scheduler queues
/// itself. A charge is the difference to the current totals.
#[derive(Clone, Copy, Debug, Default)]
struct Charged {
    units: u64,
    exclusive_entries: u64,
    lock_acquisitions: u64,
}

/// `n % d` for one fixed divisor `d`, by Lemire's fastmod ("Faster
/// Remainder by Direct Computation", 2019): three multiplications
/// instead of a division. With `m = ⌈2¹²⁸ / d⌉` and 128 fractional
/// bits — at least 64 + log₂ `d` — it is exact for every `u64` `n` and
/// every `d ≥ 1`.
#[derive(Clone, Copy, Debug)]
struct FastMod {
    d: u64,
    m: u128,
}

impl FastMod {
    fn new(d: u64) -> FastMod {
        // For d = 1 this wraps to 0, which makes every remainder 0.
        let m = (u128::MAX / d as u128).wrapping_add(1);
        FastMod { d, m }
    }

    /// `n % self.d`: the high 64 bits of `(m · n mod 2¹²⁸) · d`, a
    /// 192-bit product taken in two 128-bit halves.
    #[inline]
    fn rem(self, n: u64) -> u64 {
        let frac = self.m.wrapping_mul(n as u128);
        let d = self.d as u128;
        let high = (frac >> 64) * d;
        let low = (frac as u64 as u128) * d;
        ((high + (low >> 64)) >> 64) as u64
    }
}

impl VirtualTimeScheduler {
    /// A scheduler for `vcpus` vCPUs under the `costs` model.
    pub fn new(costs: &SimCosts, vcpus: usize) -> VirtualTimeScheduler {
        VirtualTimeScheduler {
            costs: *costs,
            clocks: vec![0; vcpus],
            last_run: vec![0; vcpus],
            rng: costs.jitter_seed | 1,
            base: FastMod::new(costs.quantum.max(2)),
            quantum_end: 0,
            lock_free_at: 0,
            charged: vec![Charged::default(); vcpus],
            parked: vec![0; vcpus],
        }
    }
}

impl Scheduler for VirtualTimeScheduler {
    /// Starts a quantum for the live vCPU with the smallest clock.
    fn pick(&mut self, atom: u64, enabled: &[bool], _last: Option<usize>) -> usize {
        // The smallest `(clock, last_run)` key among live vCPUs, with no
        // branch per vCPU: a finished vCPU's key is `u128::MAX`, above
        // every live key (one would need a clock and a start atom of
        // `u64::MAX` both), and a strict `<` keeps the lowest index on
        // ties.
        let (mut best, mut idx) = (u128::MAX, usize::MAX);
        for (i, &live) in enabled.iter().enumerate() {
            let key = (self.clocks[i] as u128) << 64 | self.last_run[i] as u128;
            let key = if live { key } else { u128::MAX };
            let less = key < best;
            best = if less { key } else { best };
            idx = if less { i } else { idx };
        }
        assert!(idx < enabled.len(), "pick() called with no enabled vCPU");
        self.last_run[idx] = atom + 1;
        // Jittered quantum: varied preemption phases are what let
        // several vCPUs be mid-operation at once (see SimCosts).
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let quantum = self.base.d / 2 + self.base.rem(self.rng);
        self.quantum_end = self.clocks[idx].saturating_add(quantum);
        idx
    }

    fn granularity(&self) -> Granularity {
        Granularity::Blocks
    }

    // Inline: the driver calls this once per atom.
    #[inline]
    fn charge(&mut self, idx: usize, stats: &mut VcpuStats, enabled: &[bool]) -> bool {
        let now = Charged {
            units: self.costs.weighted(stats),
            exclusive_entries: stats.exclusive_entries,
            lock_acquisitions: stats.lock_acquisitions,
        };
        let last = std::mem::replace(&mut self.charged[idx], now);
        debug_assert!(
            now.units >= last.units,
            "vCPU {idx}'s weighted total fell from {} to {}",
            last.units,
            now.units
        );
        let syncs = now.exclusive_entries - last.exclusive_entries;
        let locks = now.lock_acquisitions - last.lock_acquisitions;
        let costs = &self.costs;
        let mut clock = self.clocks[idx] + (now.units - last.units);
        // Global-lock acquisitions queue on one shared resource: wait
        // until the lock frees, then hold it for `lock_hold`.
        for _ in 0..locks {
            if self.lock_free_at > clock {
                stats.sim_exclusive_units += self.lock_free_at - clock;
                clock = self.lock_free_at;
            }
            self.lock_free_at = clock + costs.lock_hold;
            clock += costs.lock_hold;
        }
        for _ in 0..syncs {
            // A stop-the-world section: the requester waits for everyone
            // to reach a safepoint, runs alone, then resumes the world;
            // laggard clocks are floored to the section's end (they were
            // parked through it).
            let section = costs.safepoint_wait + costs.exclusive_section;
            stats.sim_exclusive_units += section;
            clock += section;
            for (j, other) in self.clocks.iter_mut().enumerate() {
                if j != idx && enabled[j] && *other < clock {
                    self.parked[j] += clock - *other;
                    *other = clock;
                }
            }
        }
        self.clocks[idx] = clock;
        clock <= self.quantum_end
    }

    /// Credits the parked units and the final clock, and prices the
    /// three per-event buckets from the final counters. That equals the
    /// sum of every block's share: each priced counter starts at zero
    /// and moves only inside a charged atom (the driver's
    /// `release_region` after the last one moves none), so the
    /// per-block deltas telescope.
    fn settle(&mut self, idx: usize, stats: &mut VcpuStats) {
        let (instrument, mprotect, events) = self.costs.buckets(stats);
        stats.sim_instrument_units = instrument;
        stats.sim_mprotect_units = mprotect;
        stats.sim_event_units = events;
        stats.sim_exclusive_units += self.parked[idx];
        stats.sim_time = self.clocks[idx];
    }
}

/// One parsed schedule segment: run vCPU `vcpu` for `atoms` atoms
/// (`u64::MAX` encodes the open-ended bare-`V` form).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Segment {
    vcpu: usize,
    atoms: u64,
}

/// A [`Scheduler`] that replays a fixed segment script, recording what
/// actually happened so the explorer can mutate it.
///
/// Script exhaustion (and any segment naming a finished vCPU) falls back
/// to the non-preemptive default: keep `last` running while enabled,
/// else the lowest enabled index.
#[derive(Clone, Debug, Default)]
pub struct ScriptedScheduler {
    script: Vec<Segment>,
    seg: usize,
    used: u64,
    /// The vCPU index chosen at each atom, in order.
    pub choices: Vec<u32>,
    /// Every event observed, stamped with its atom number.
    pub events: Vec<TraceEvent>,
}

impl ScriptedScheduler {
    /// A scheduler with an empty script: pure non-preemptive execution
    /// (vCPU 0 to completion, then 1, …).
    pub fn new() -> ScriptedScheduler {
        ScriptedScheduler::default()
    }

    /// A scheduler replaying explicit `(vcpu, atoms)` segments.
    pub fn from_segments(segments: &[(usize, u64)]) -> ScriptedScheduler {
        ScriptedScheduler {
            script: segments
                .iter()
                .map(|&(vcpu, atoms)| Segment { vcpu, atoms })
                .collect(),
            ..ScriptedScheduler::default()
        }
    }

    /// Parses a trace like `0x12,1x3,0` (see module docs). Rejects
    /// malformed segments with a descriptive error.
    pub fn parse(trace: &str) -> Result<ScriptedScheduler, String> {
        let mut script = Vec::new();
        for part in trace.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(format!("empty segment in schedule trace '{trace}'"));
            }
            let (vcpu_text, atoms) = match part.split_once('x') {
                Some((v, n)) => {
                    let atoms: u64 = n
                        .parse()
                        .map_err(|_| format!("bad atom count '{n}' in segment '{part}'"))?;
                    if atoms == 0 {
                        return Err(format!("zero-length segment '{part}'"));
                    }
                    (v, atoms)
                }
                None => (part, u64::MAX),
            };
            let vcpu: usize = vcpu_text
                .parse()
                .map_err(|_| format!("bad vCPU index '{vcpu_text}' in segment '{part}'"))?;
            script.push(Segment { vcpu, atoms });
        }
        Ok(ScriptedScheduler {
            script,
            ..ScriptedScheduler::default()
        })
    }

    /// Rejects a script segment naming a vCPU index outside
    /// `0..vcpus`: such a segment can never run, so the schedule
    /// replayed would silently differ from the one written. (A segment
    /// naming a vCPU that has *finished* is still skipped at run time.)
    pub fn check_vcpus(&self, vcpus: usize) -> Result<(), String> {
        let Some(s) = self.script.iter().find(|s| s.vcpu >= vcpus) else {
            return Ok(());
        };
        let count = (s.atoms != u64::MAX).then(|| format!("x{}", s.atoms));
        Err(format!(
            "segment '{}{}' names vCPU {} but the run has {vcpus} vCPU(s)",
            s.vcpu,
            count.unwrap_or_default(),
            s.vcpu
        ))
    }

    /// Renders the *recorded* choices back into the compact segment
    /// form, with the final segment left open-ended. The result replays
    /// this exact run when parsed again.
    pub fn trace(&self) -> String {
        format_choices(&self.choices)
    }
}

/// Compresses a per-atom choice list into the `VxN,…,V` segment form.
pub fn format_choices(choices: &[u32]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < choices.len() {
        let v = choices[i];
        let mut n = 1;
        while i + n < choices.len() && choices[i + n] == v {
            n += 1;
        }
        if !out.is_empty() {
            out.push(',');
        }
        if i + n == choices.len() {
            // Last segment: open-ended, "run to completion".
            out.push_str(&v.to_string());
        } else {
            out.push_str(&format!("{v}x{n}"));
        }
        i += n;
    }
    if out.is_empty() {
        out.push('0');
    }
    out
}

impl Scheduler for ScriptedScheduler {
    fn pick(&mut self, _atom: u64, enabled: &[bool], last: Option<usize>) -> usize {
        // Advance past exhausted or dead segments.
        while self.seg < self.script.len() {
            let s = self.script[self.seg];
            if self.used >= s.atoms || !enabled.get(s.vcpu).copied().unwrap_or(false) {
                self.seg += 1;
                self.used = 0;
            } else {
                break;
            }
        }
        let idx = if self.seg < self.script.len() {
            self.used += 1;
            self.script[self.seg].vcpu
        } else {
            // Non-preemptive default continuation.
            match last {
                Some(l) if enabled[l] => l,
                _ => enabled
                    .iter()
                    .position(|&e| e)
                    .expect("pick() called with no enabled vCPU"),
            }
        };
        self.choices.push(idx as u32);
        idx
    }

    fn observe(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(sched: &mut dyn Scheduler, enabled: &[bool], n: u64) -> Vec<usize> {
        let mut last = None;
        (0..n)
            .map(|atom| {
                let idx = sched.pick(atom, enabled, last);
                last = Some(idx);
                idx
            })
            .collect()
    }

    #[test]
    fn parse_and_replay_round_trip() {
        let sched = ScriptedScheduler::parse("0x2,1x3,0").unwrap();
        let mut s = sched;
        let picks = drive(&mut s, &[true, true], 8);
        assert_eq!(picks, vec![0, 0, 1, 1, 1, 0, 0, 0]);
        assert_eq!(s.trace(), "0x2,1x3,0");
        // The regenerated trace replays identically.
        let mut again = ScriptedScheduler::parse(&s.trace()).unwrap();
        assert_eq!(drive(&mut again, &[true, true], 8), picks);
    }

    #[test]
    fn empty_script_is_non_preemptive() {
        let mut s = ScriptedScheduler::new();
        assert_eq!(drive(&mut s, &[true, true, true], 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn dead_segment_targets_are_skipped() {
        // Segment names vCPU 1, but it is disabled: fall through to the
        // next segment, then the default.
        let mut s = ScriptedScheduler::from_segments(&[(1, 5), (2, 2)]);
        let picks = drive(&mut s, &[true, false, true], 4);
        assert_eq!(picks, vec![2, 2, 2, 2]);
    }

    #[test]
    fn default_falls_to_lowest_enabled_when_last_dies() {
        let mut s = ScriptedScheduler::new();
        let first = s.pick(0, &[false, true, true], None);
        assert_eq!(first, 1);
        // vCPU 1 finishes; the default hands over to the lowest enabled.
        let second = s.pick(1, &[false, false, true], Some(1));
        assert_eq!(second, 2);
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        assert!(ScriptedScheduler::parse("").is_err());
        assert!(ScriptedScheduler::parse("0x").is_err());
        assert!(ScriptedScheduler::parse("x3").is_err());
        assert!(ScriptedScheduler::parse("0x0").is_err());
        assert!(ScriptedScheduler::parse("1,,2").is_err());
        assert!(ScriptedScheduler::parse("-1x2").is_err());
    }

    #[test]
    fn format_compresses_runs() {
        assert_eq!(format_choices(&[0, 0, 0, 1, 0, 0]), "0x3,1x1,0");
        assert_eq!(format_choices(&[2]), "2");
        assert_eq!(format_choices(&[]), "0");
    }

    #[test]
    fn check_vcpus_names_the_out_of_range_segment() {
        let s = ScriptedScheduler::parse("0x3,5x14,0").unwrap();
        assert!(s.check_vcpus(6).is_ok());
        let why = s.check_vcpus(2).unwrap_err();
        assert!(why.contains("'5x14'"), "{why}");
        let open = ScriptedScheduler::parse("0x3,2").unwrap();
        assert!(open.check_vcpus(2).unwrap_err().contains("'2'"));
    }

    #[test]
    fn round_robin_rotates_over_live_vcpus() {
        let mut rr = RoundRobin::default();
        assert_eq!(rr.granularity(), Granularity::Blocks);
        assert_eq!(drive(&mut rr, &[true, false, true], 5), vec![0, 2, 0, 2, 0]);
    }

    #[test]
    fn round_robin_prefix_wraps_and_skips_finished_vcpus() {
        // 4 wraps to 1 (finished: skipped), 5 wraps to 2, 1 is skipped.
        let mut rr = RoundRobin::with_prefix(vec![4, 5, 1, 0]);
        assert_eq!(drive(&mut rr, &[true, false, true], 2), vec![2, 0]);
    }

    #[test]
    fn round_robin_resumes_after_its_own_last_pick() {
        // Explicit picks never advance the rotation: after the prefix
        // [2, 2] it still starts at vCPU 0, and a [0, 1] prefix leaves
        // a rotation parked at 2 where it was.
        let mut rr = RoundRobin::with_prefix(vec![2, 2]);
        assert_eq!(
            drive(&mut rr, &[true, true, true], 6),
            vec![2, 2, 0, 1, 2, 0]
        );
        let mut rr = RoundRobin::with_prefix(vec![0, 1]);
        rr.next = 2;
        assert_eq!(drive(&mut rr, &[true, true, true], 3), vec![0, 1, 2]);
    }

    #[test]
    fn virtual_time_runs_the_smallest_clock() {
        let mut vt = VirtualTimeScheduler::new(&SimCosts::default(), 3);
        assert_eq!(vt.granularity(), Granularity::Blocks);
        vt.clocks = vec![50, 10, 30];
        assert_eq!(vt.pick(0, &[true, true, true], None), 1);
        // Finished vCPUs never run, however far behind.
        assert_eq!(vt.pick(1, &[true, false, true], Some(1)), 2);
    }

    #[test]
    fn virtual_time_keeps_a_vcpu_for_its_quantum() {
        let mut vt = VirtualTimeScheduler::new(&SimCosts::default(), 2);
        assert_eq!(vt.pick(0, &[true, true], None), 0);
        // Inside the quantum (at least 60 units by default) the running
        // vCPU keeps going, even though its peer's clock is now smaller.
        let mut stats = VcpuStats {
            insns: 10,
            ..VcpuStats::default()
        };
        assert!(vt.charge(0, &mut stats, &[true, true]));
        // Past the quantum's end it stops, and the smallest clock wins.
        stats.insns = 1_000;
        assert!(!vt.charge(0, &mut stats, &[true, true]));
        assert_eq!(vt.pick(2, &[true, true], Some(0)), 1);
    }

    #[test]
    fn virtual_time_ties_go_to_least_recently_run_then_lowest_index() {
        let mut vt = VirtualTimeScheduler::new(&SimCosts::default(), 3);
        // All clocks equal and nobody has run: lowest index.
        assert_eq!(vt.pick(0, &[true, true, true], None), 0);
        // vCPU 0 ran most recently: the tie goes to 1, then 2.
        assert_eq!(vt.pick(1, &[true, true, true], Some(0)), 1);
        assert_eq!(vt.pick(2, &[true, true, true], Some(1)), 2);
        assert_eq!(vt.pick(3, &[true, true, true], Some(2)), 0);
    }

    #[test]
    fn virtual_time_clamps_a_zero_quantum_to_two() {
        let costs = SimCosts {
            quantum: 0,
            ..SimCosts::default()
        };
        let mut vt = VirtualTimeScheduler::new(&costs, 1);
        for atom in 0..64 {
            vt.pick(atom, &[true], None);
            // base = 2: quanta are drawn from [1, 3).
            let end = vt.quantum_end;
            assert!((1..3).contains(&end), "quantum {end}");
        }
    }

    #[test]
    fn virtual_time_floors_parked_clocks_at_stop_the_world() {
        let costs = SimCosts::default();
        let mut vt = VirtualTimeScheduler::new(&costs, 3);
        let mut stats = VcpuStats {
            insns: 10,
            exclusive_entries: 1,
            ..VcpuStats::default()
        };
        vt.charge(0, &mut stats, &[true, true, false]);
        let end = 10 * costs.insn + costs.safepoint_wait + costs.exclusive_section;
        assert_eq!(vt.clocks, &[end, end, 0], "finished vCPU 2 not floored");
        let mut parked = VcpuStats::default();
        vt.settle(1, &mut parked);
        assert_eq!(parked.sim_exclusive_units, end);
        assert_eq!(parked.sim_time, end);
        // A second charge sees only the delta since the first.
        vt.charge(0, &mut stats, &[true, true, false]);
        assert_eq!(vt.clocks[0], end);
    }

    /// Charges advance the clock by each block's share of the weighted
    /// total, and `settle` prices the buckets from the final counters,
    /// which is the sum of every block's share of each bucket.
    #[test]
    fn virtual_time_charges_deltas_and_settles_the_buckets() {
        let costs = SimCosts::default();
        let mut vt = VirtualTimeScheduler::new(&costs, 1);
        let mut stats = VcpuStats::default();
        let blocks: [(u64, u64, u64, u64); 3] = [(10, 2, 1, 0), (4, 0, 0, 1), (7, 1, 3, 2)];
        let (mut clock, mut instrument, mut events) = (0, 0, 0);
        for (insns, stores, helpers, translations) in blocks {
            stats.insns += insns;
            stats.stores += stores;
            stats.helper_calls += helpers;
            stats.translations += translations;
            vt.charge(0, &mut stats, &[true]);
            instrument += helpers * costs.helper_call;
            events += translations * costs.translation;
            clock += insns * costs.insn + stores * costs.memory_access;
            clock += helpers * costs.helper_call + translations * costs.translation;
            assert_eq!(vt.clocks[0], clock);
        }
        assert_eq!(stats.sim_instrument_units, 0, "charges leave the buckets");
        vt.settle(0, &mut stats);
        assert_eq!(
            (
                stats.sim_instrument_units,
                stats.sim_mprotect_units,
                stats.sim_event_units
            ),
            (instrument, 0, events)
        );
        assert_eq!(stats.sim_time, clock);
    }

    /// The scan's picks are the `min_by_key((clock, last_run, index))`
    /// picks it replaced, over live subsets of every shape.
    #[test]
    fn virtual_time_pick_matches_the_lexicographic_minimum() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for round in 0..2_000u64 {
            let n = 1 + (next() % 9) as usize;
            let mut vt = VirtualTimeScheduler::new(&SimCosts::default(), n);
            // Few distinct values, so ties in both fields are common.
            vt.clocks = (0..n).map(|_| next() % 4 * (u64::MAX / 4)).collect();
            vt.last_run = (0..n).map(|_| next() % 3).collect();
            let mut enabled: Vec<bool> = (0..n).map(|_| next() % 3 != 0).collect();
            enabled[(next() % n as u64) as usize] = true;
            let want = (0..n)
                .filter(|&i| enabled[i])
                .min_by_key(|&i| (vt.clocks[i], vt.last_run[i], i))
                .unwrap();
            assert_eq!(vt.pick(round, &enabled, None), want, "{vt:?} {enabled:?}");
        }
    }

    #[test]
    fn fastmod_is_exact_for_every_divisor() {
        let divisors = [2, 3, 60, 120, 121, 1 << 40, u64::MAX / 3, u64::MAX];
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for d in divisors {
            let fast = FastMod::new(d);
            let edges = [0, 1, d - 1, d, d.wrapping_add(1), u64::MAX];
            for n in edges {
                assert_eq!(fast.rem(n), n % d, "{n} % {d}");
            }
            for _ in 0..10_000 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                assert_eq!(fast.rem(rng), rng % d, "{rng} % {d}");
            }
        }
    }
}
