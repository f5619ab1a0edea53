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
//! At pause-point granularity the scheduler *owns* every yield point in
//! a second sense too: each atomicity-relevant action (LL, SC, guest
//! store, safepoint, exclusive enter/exit, chaos injection) is streamed
//! to it as a [`SchedEvent`], which is what the checker's oracle
//! consumes.
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
//! [`Op::Window`]: adbt_ir::Op::Window
//! [`Op::Yield`]: adbt_ir::Op::Yield

use crate::stats::{SimCosts, SimSnapshot, VcpuStats};
use adbt_chaos::ChaosSite;
use adbt_mmu::Width;

/// An atomicity-relevant action observed while running an atom, streamed
/// to [`Scheduler::observe`]. Guest addresses are virtual; `tid` is the
/// 1-based vCPU id.
///
/// Events inside an open HTM region transaction are buffered and only
/// delivered when the transaction commits (in commit order) — an
/// aborted transaction's speculative stores never become visible, so
/// they must not reach the oracle either.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedEvent {
    /// A load-link armed `tid`'s monitor on `addr`.
    Ll { tid: u32, addr: u32 },
    /// A store-conditional by `tid` to `addr` reported success (`ok`)
    /// or failure; `value` is the word it tried to store.
    Sc {
        tid: u32,
        addr: u32,
        ok: bool,
        value: u32,
    },
    /// A plain guest store by `tid` became architecturally visible.
    GuestStore { tid: u32, addr: u32, width: Width },
    /// `tid` executed `clrex`, disarming its monitor.
    Clrex { tid: u32 },
    /// `tid` crossed a block-boundary safepoint.
    Safepoint { tid: u32 },
    /// `tid` entered a stop-the-world exclusive section.
    ExclusiveEnter { tid: u32 },
    /// `tid` left its stop-the-world exclusive section.
    ExclusiveExit { tid: u32 },
    /// The chaos plane injected a fault at `site` while `tid` ran.
    Chaos { tid: u32, site: ChaosSite },
    /// A store by `tid` at `addr` invalidated translated code (SMC):
    /// the overlapping translations were retired and will retranslate
    /// against the patched bytes on their next dispatch.
    Invalidate { tid: u32, addr: u32 },
}

/// How finely a [`Scheduler`] cuts vCPUs' execution into atoms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// One atom is one whole translated block; no events are streamed.
    Blocks,
    /// Blocks also split at `Op::Yield` / `Op::Window` pause points, and
    /// every atomicity event is streamed to [`Scheduler::observe`].
    PausePoints,
}

/// Owns every yield point of a deterministic run: consulted for who runs
/// next, and shown every atomicity-relevant event.
pub trait Scheduler {
    /// Picks the vCPU index to run from atom number `atom` on.
    /// `enabled[i]` is false once vCPU `i` has finished; at least one
    /// entry is true. `last` is the index that ran the previous atom
    /// (`None` for the first). Returning a disabled index is a checker
    /// bug and panics.
    fn pick(&mut self, atom: u64, enabled: &[bool], last: Option<usize>) -> usize;

    /// Observes an event produced while running atom `atom` (pause-point
    /// granularity only).
    fn observe(&mut self, atom: u64, event: SchedEvent) {
        let _ = (atom, event);
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
    /// The clock at which the running vCPU's quantum ends.
    quantum_end: u64,
    /// When the schemes' global lock frees up.
    lock_free_at: u64,
    /// Each vCPU's counters as of its last charge.
    seen: Vec<SimSnapshot>,
    /// Units each vCPU spent parked by other vCPUs' stop-the-world
    /// sections, credited to its stats at settlement.
    parked: Vec<u64>,
}

impl VirtualTimeScheduler {
    /// A scheduler for `vcpus` vCPUs under the `costs` model.
    pub fn new(costs: &SimCosts, vcpus: usize) -> VirtualTimeScheduler {
        VirtualTimeScheduler {
            costs: *costs,
            clocks: vec![0; vcpus],
            last_run: vec![0; vcpus],
            rng: costs.jitter_seed | 1,
            quantum_end: 0,
            lock_free_at: 0,
            seen: vec![SimSnapshot::default(); vcpus],
            parked: vec![0; vcpus],
        }
    }
}

impl Scheduler for VirtualTimeScheduler {
    /// Starts a quantum for the live vCPU with the smallest clock.
    fn pick(&mut self, atom: u64, enabled: &[bool], _last: Option<usize>) -> usize {
        let idx = (0..enabled.len())
            .filter(|&i| enabled[i])
            .min_by_key(|&i| (self.clocks[i], self.last_run[i], i))
            .expect("pick() called with no enabled vCPU");
        self.last_run[idx] = atom + 1;
        // Jittered quantum: varied preemption phases are what let
        // several vCPUs be mid-operation at once (see SimCosts).
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let base = self.costs.quantum.max(2);
        let quantum = base / 2 + self.rng % base;
        self.quantum_end = self.clocks[idx].saturating_add(quantum);
        idx
    }

    fn granularity(&self) -> Granularity {
        Granularity::Blocks
    }

    // Inline: the driver calls this once per atom.
    #[inline]
    fn charge(&mut self, idx: usize, stats: &mut VcpuStats, enabled: &[bool]) -> bool {
        let (units, syncs, locks) = self.seen[idx].charge(stats, &self.costs);
        self.seen[idx] = SimSnapshot::capture(stats);
        let costs = &self.costs;
        let mut clock = self.clocks[idx] + units;
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

    fn settle(&mut self, idx: usize, stats: &mut VcpuStats) {
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
    /// Bitmask of enabled vCPUs at each atom (bit `i` = vCPU `i`).
    pub enabled_masks: Vec<u64>,
    /// Every event observed, tagged with its atom number.
    pub events: Vec<(u64, SchedEvent)>,
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
        let mask = enabled
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e)
            .fold(0u64, |m, (i, _)| m | (1 << i));
        self.enabled_masks.push(mask);
        idx
    }

    fn observe(&mut self, atom: u64, event: SchedEvent) {
        self.events.push((atom, event));
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
}
