//! Bounded schedule exploration with iterative deepening by preemption
//! count, plus the failing-schedule shrinker.
//!
//! # Search shape
//!
//! The base run is fully non-preemptive: vCPU 0 to completion, then 1, …
//! Depth `p` explores every schedule obtained by inserting `p` forced
//! context switches into some depth-`p−1` run. A switch is a pair
//! `(atom, target)`: at that atom, run `target` instead of whatever the
//! non-preemptive default would pick; after the switch the schedule is
//! non-preemptive again (the preempted vCPU resumes only when the new
//! one finishes or a later switch hands control back).
//!
//! Candidate switches come from the parent run's *recording*: forcing a
//! switch is only meaningful at an atom the parent actually reached, to
//! a vCPU that was enabled there and is not what the parent ran anyway.
//! Because runs are deterministic, the child run is bit-identical to its
//! parent up to the inserted switch, so the recording is a sound oracle
//! for which children exist. Extensions only ever insert *after* the
//! parent's last switch, so each schedule is generated exactly once.
//!
//! This is the classic bounded-preemption argument (CHESS): real
//! concurrency bugs overwhelmingly need only 1–2 preemptions, so a
//! small depth cap plus a run budget covers the interesting space while
//! staying inside a CI-sized budget. The budget is a hard cap; a clean
//! verdict with [`PairReport::budget_exhausted`] set means "no violation
//! found", not "none exists".
//!
//! # Shrinking
//!
//! A failing switch set is minimized by repeatedly dropping one switch
//! and re-running until no single drop still fails
//! ([`crate::shrink::drop_one_fixpoint`], ddmin with n = 1 — switch
//! sets here have at most `max_preemptions` entries). The
//! minimized run's full choice list is rendered with
//! [`format_choices`] into a trace that `adbt_run --replay` and
//! [`ScriptedScheduler::parse`](adbt::engine::ScriptedScheduler::parse)
//! replay exactly.

use crate::oracle;
use adbt::engine::{format_choices, Scheduler, TraceEvent};
use adbt::workloads::interleave::Litmus;
use adbt::workloads::IMAGE_BASE;
use adbt::{assemble, Error, Image, Machine, MachineBuilder, SchemeKind, Vcpu, VcpuOutcome};

/// Guest memory per checker machine. Small on purpose: a fresh machine
/// is built per run, and the litmus images plus two 64 KiB guest stacks
/// fit comfortably in a megabyte.
const MEM_SIZE: u32 = 1 << 20;

/// Exploration limits for one (scheme, litmus) pair.
#[derive(Clone, Copy, Debug)]
pub struct CheckOpts {
    /// Hard cap on scheduled runs during the search (shrinking a found
    /// violation runs a handful more).
    pub budget: u64,
    /// Maximum forced context switches per schedule (search depth).
    pub max_preemptions: usize,
    /// Per-run atom cap handed to `run_scheduled` (livelock safety net).
    pub max_atoms: u64,
}

impl Default for CheckOpts {
    fn default() -> CheckOpts {
        CheckOpts {
            budget: 800,
            max_preemptions: 2,
            max_atoms: 20_000,
        }
    }
}

/// A schedule on which the oracle flagged the scheme, minimized.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Replayable trace in the `VxN,…,V` segment form.
    pub trace: String,
    /// Forced switches remaining after shrinking.
    pub preemptions: usize,
    /// The oracle's description of the illegal SC.
    pub detail: String,
    /// The minimized run's log, each event stamped with its atom
    /// number — the evidence the oracle judged, exportable as a
    /// Perfetto timeline ([`crate::export::violation_trace_json`]).
    pub events: Vec<TraceEvent>,
}

/// The checker's verdict for one (scheme, litmus) pair.
#[derive(Clone, Debug)]
pub struct PairReport {
    pub scheme: SchemeKind,
    pub litmus: Litmus,
    /// Scheduled runs executed (search + shrinking).
    pub runs: u64,
    /// True when the search stopped on [`CheckOpts::budget`] rather than
    /// exhausting the bounded schedule space.
    pub budget_exhausted: bool,
    pub violation: Option<Violation>,
}

impl PairReport {
    /// Whether the verdict matches the paper's prediction
    /// ([`crate::expected_violation`]).
    pub fn matches_expectation(&self) -> bool {
        self.violation.is_some() == crate::expected_violation(self.scheme, self.litmus)
    }
}

/// A [`Scheduler`] that runs the non-preemptive default except at an
/// explicit list of forced switches, recording everything. Unlike
/// [`ScriptedScheduler`](adbt::engine::ScriptedScheduler) scripts —
/// which are positional and so shift meaning when edited — a switch
/// list composes under insertion and deletion, which is what the
/// explorer and the shrinker mutate.
struct SwitchScheduler {
    /// Forced `(atom, target)` switches, sorted by atom.
    switches: Vec<(u64, u32)>,
    choices: Vec<u32>,
    masks: Vec<u64>,
    events: Vec<TraceEvent>,
}

impl SwitchScheduler {
    fn new(switches: &[(u64, u32)]) -> SwitchScheduler {
        let mut switches = switches.to_vec();
        switches.sort_unstable();
        SwitchScheduler {
            switches,
            choices: Vec::new(),
            masks: Vec::new(),
            events: Vec::new(),
        }
    }
}

impl Scheduler for SwitchScheduler {
    fn pick(&mut self, atom: u64, enabled: &[bool], last: Option<usize>) -> usize {
        let forced = self
            .switches
            .iter()
            .find(|&&(a, _)| a == atom)
            .map(|&(_, t)| t as usize)
            .filter(|&t| enabled.get(t).copied().unwrap_or(false));
        let idx = match (forced, last) {
            (Some(t), _) => t,
            (None, Some(l)) if enabled[l] => l,
            _ => enabled
                .iter()
                .position(|&e| e)
                .expect("pick() called with no enabled vCPU"),
        };
        self.choices.push(idx as u32);
        let mask = enabled
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e)
            .fold(0u64, |m, (i, _)| m | (1 << i));
        self.masks.push(mask);
        idx
    }

    fn observe(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// One run's recording plus the oracle's verdict on it.
struct Record {
    choices: Vec<u32>,
    masks: Vec<u64>,
    events: Vec<TraceEvent>,
    violation: Option<String>,
}

/// A frontier node: the switch set that produced `record`.
struct Node {
    switches: Vec<(u64, u32)>,
    record: Record,
}

struct Searcher {
    scheme: SchemeKind,
    litmus: Litmus,
    image: Image,
    entries: Vec<Option<u32>>,
    opts: CheckOpts,
    runs: u64,
}

impl Searcher {
    fn new(scheme: SchemeKind, litmus: Litmus, opts: CheckOpts) -> Searcher {
        let program = litmus.program();
        let image = assemble(&program.source, IMAGE_BASE)
            .unwrap_or_else(|e| panic!("{litmus} does not assemble: {e}"));
        let entries = program
            .entries
            .iter()
            .map(|entry| {
                entry.map(|sym| {
                    image
                        .symbol(sym)
                        .unwrap_or_else(|| panic!("{litmus}: missing entry symbol {sym}"))
                })
            })
            .collect();
        Searcher {
            scheme,
            litmus,
            image,
            entries,
            opts,
            runs: 0,
        }
    }

    fn machine(&self) -> Result<Machine, Error> {
        // Single-instruction blocks give the checker its atom
        // granularity, so every explored schedule runs one guest
        // instruction per atom.
        let mut machine = MachineBuilder::new(self.scheme)
            .memory(MEM_SIZE)
            .max_block_insns(1)
            .build()?;
        machine.load_image(self.image.clone())?;
        Ok(machine)
    }

    fn vcpus(&self, machine: &Machine) -> Vec<Vcpu> {
        if self.entries.iter().all(Option::is_none) {
            // Entry-less programs (the stack) use the standard launch
            // ABI: r0 = thread index, sp carved from the top of memory.
            machine.make_vcpus(self.entries.len() as u32, IMAGE_BASE)
        } else {
            self.entries
                .iter()
                .enumerate()
                .map(|(i, entry)| Vcpu::new(i as u32 + 1, entry.unwrap_or(IMAGE_BASE)))
                .collect()
        }
    }

    /// One deterministic scheduled run under the given switch set.
    fn execute(&mut self, switches: &[(u64, u32)]) -> Record {
        self.runs += 1;
        let machine = self
            .machine()
            .unwrap_or_else(|e| panic!("{} × {}: {e}", self.scheme, self.litmus));
        let vcpus = self.vcpus(&machine);
        let mut sched = SwitchScheduler::new(switches);
        let report = machine.run_scheduled(vcpus, &mut sched, self.opts.max_atoms);
        for outcome in &report.outcomes {
            assert!(
                !matches!(outcome, VcpuOutcome::Crashed(_)),
                "{} × {}: litmus crashed under {:?}: {outcome:?}",
                self.scheme,
                self.litmus,
                switches,
            );
        }
        let violation = oracle::judge(self.scheme.atomicity(), &sched.events);
        Record {
            choices: sched.choices,
            masks: sched.masks,
            events: sched.events,
            violation,
        }
    }

    /// Drops switches one at a time (to a fixpoint) while the oracle
    /// still flags the run; returns the minimized set and its record
    /// (the shared [`crate::shrink::drop_one_fixpoint`] discipline).
    fn shrink(&mut self, switches: Vec<(u64, u32)>, record: Record) -> (Vec<(u64, u32)>, Record) {
        crate::shrink::drop_one_fixpoint(switches, record, |candidate| {
            let r = self.execute(candidate);
            r.violation.is_some().then_some(r)
        })
    }

    fn found(&mut self, switches: Vec<(u64, u32)>, record: Record, exhausted: bool) -> PairReport {
        let (switches, record) = self.shrink(switches, record);
        PairReport {
            scheme: self.scheme,
            litmus: self.litmus,
            runs: self.runs,
            budget_exhausted: exhausted,
            violation: Some(Violation {
                trace: format_choices(&record.choices),
                preemptions: switches.len(),
                detail: record.violation.expect("shrink preserves the violation"),
                events: record.events,
            }),
        }
    }

    fn clean(&self, exhausted: bool) -> PairReport {
        PairReport {
            scheme: self.scheme,
            litmus: self.litmus,
            runs: self.runs,
            budget_exhausted: exhausted,
            violation: None,
        }
    }
}

/// Explores one (scheme, litmus) pair up to the configured depth and
/// budget; returns the first (minimized) violation or a clean verdict.
pub fn check_pair(scheme: SchemeKind, litmus: Litmus, opts: &CheckOpts) -> PairReport {
    let mut s = Searcher::new(scheme, litmus, *opts);
    let base = s.execute(&[]);
    if base.violation.is_some() {
        return s.found(Vec::new(), base, false);
    }
    let vcpu_count = s.entries.len() as u32;
    let mut frontier = vec![Node {
        switches: Vec::new(),
        record: base,
    }];
    for _depth in 1..=opts.max_preemptions {
        let mut next = Vec::new();
        for node in &frontier {
            // Only extend after the last forced switch: every schedule
            // is generated once, with its switches in atom order.
            let floor = node.switches.last().map_or(0, |&(a, _)| a + 1);
            for atom in floor..node.record.choices.len() as u64 {
                let chosen = node.record.choices[atom as usize];
                let mask = node.record.masks[atom as usize];
                for target in 0..vcpu_count {
                    if target == chosen || mask & (1 << target) == 0 {
                        continue;
                    }
                    if s.runs >= opts.budget {
                        return s.clean(true);
                    }
                    let mut switches = node.switches.clone();
                    switches.push((atom, target));
                    let record = s.execute(&switches);
                    if record.violation.is_some() {
                        return s.found(switches, record, false);
                    }
                    next.push(Node { switches, record });
                }
            }
        }
        frontier = next;
    }
    s.clean(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(sched: &mut SwitchScheduler, enabled: &[bool], n: u64) -> Vec<usize> {
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
    fn switch_scheduler_defaults_non_preemptively() {
        let mut s = SwitchScheduler::new(&[]);
        assert_eq!(drive(&mut s, &[true, true], 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn switches_fire_at_their_atom_then_stick() {
        let mut s = SwitchScheduler::new(&[(2, 1)]);
        assert_eq!(drive(&mut s, &[true, true], 5), vec![0, 0, 1, 1, 1]);
    }

    #[test]
    fn switch_to_disabled_target_is_ignored() {
        let mut s = SwitchScheduler::new(&[(1, 1)]);
        assert_eq!(drive(&mut s, &[true, false], 3), vec![0, 0, 0]);
    }

    #[test]
    fn recording_matches_scripted_trace_format() {
        let mut s = SwitchScheduler::new(&[(1, 1), (3, 0)]);
        drive(&mut s, &[true, true], 5);
        assert_eq!(format_choices(&s.choices), "0x1,1x2,0");
    }
}
