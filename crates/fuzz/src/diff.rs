//! The differential execution matrix and its oracle.
//!
//! One seed's program runs in every cell of
//! `scheme × {sim, sim+chaos, sim+prof, threaded, scheduled}`. The
//! first cell (reference scheme, plain sim) is the
//! reference; every other cell must agree with it on the outcome vector
//! and the full final memory image — code pages included, so
//! deterministic SMC patches must land identically everywhere. The
//! `sim+prof` cell is the profiler's purity oracle: it is the reference
//! configuration with the contention profiler enabled, so any
//! divergence there means observation changed behaviour. The profile
//! snapshot itself is never compared — it is observability, free to
//! differ — but divergence artifacts embed its summary. The reference itself is
//! checked against the generator's *static* predictions (exit codes and
//! final data-word values), so agreement alone can't mask a bug every
//! scheme shares. Every cell additionally passes the counter-invariant
//! suite (merged = Σ per-vCPU, injected ⊆ failures, envelope bounds).
//!
//! Chaos cells get one dispensation: fault injection may legitimately
//! push a run into `Livelocked` (abort storms past the retry limit), so
//! a chaos cell containing a livelock skips the equality check — the
//! invariants still apply. A livelock anywhere else is a divergence.
//!
//! On divergence the flattened action list is minimized by the same
//! drop-one-to-fixpoint discipline `adbt_check` uses, re-running only
//! the implicated cell pair per candidate, and the result is packaged
//! into a replayable artifact.

use crate::gen::{Action, FuzzProgram, GenConfig, ProgramSpec};
use adbt::harness::{run_program, run_program_adaptive, ExecMode, ProgramRun};
use adbt::workloads::IMAGE_BASE;
use adbt::{AdaptConfig, ChaosCfg, MachineConfig, RunReport, SchemeKind, VcpuOutcome};
use std::fmt::Write as _;

/// The non-scheme axes of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellMode {
    /// Deterministic simulated multicore, chaos off — the reference
    /// configuration.
    Sim,
    /// Sim with the deterministic fault-injection campaign (SC-failure
    /// injection plus an invalidation storm).
    SimChaos,
    /// Sim with the guest-PC contention profiler enabled — the purity
    /// oracle: profiling must never change outcomes or memory.
    SimProfiled,
    /// Real OS threads, watchdog armed.
    Threaded,
    /// Scheduled engine at one-instruction atoms — the cell whose
    /// recorded trace `adbt_run --replay` re-executes.
    Scheduled,
}

impl CellMode {
    /// Every mode, in matrix order (reference first).
    pub const ALL: [CellMode; 5] = [
        CellMode::Sim,
        CellMode::SimChaos,
        CellMode::SimProfiled,
        CellMode::Threaded,
        CellMode::Scheduled,
    ];

    fn tag(self) -> &'static str {
        match self {
            CellMode::Sim => "sim",
            CellMode::SimChaos => "sim+chaos",
            CellMode::SimProfiled => "sim+prof",
            CellMode::Threaded => "threaded",
            CellMode::Scheduled => "sched",
        }
    }
}

/// One cell of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// The atomic-emulation scheme under test (the *initial* scheme for
    /// an adaptive cell).
    pub scheme: SchemeKind,
    /// The execution configuration.
    pub mode: CellMode,
    /// Adaptive cell: the machine starts on `scheme` with the online
    /// arbiter armed (strong policy, aggressive epoch) and must still
    /// agree with the static reference.
    pub auto: bool,
}

impl Cell {
    /// Display name, e.g. `pico-cas/threaded` or `auto[hst]/sim`.
    pub fn name(&self) -> String {
        if self.auto {
            format!("auto[{}]/{}", self.scheme, self.mode.tag())
        } else {
            format!("{}/{}", self.scheme, self.mode.tag())
        }
    }
}

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct FuzzOpts {
    /// Generator knobs.
    pub gen: GenConfig,
    /// Schemes to include (default: all eight).
    pub schemes: Vec<SchemeKind>,
    /// SC-failure injection rate for chaos cells.
    pub chaos_rate: f64,
    /// Invalidation-storm rate for chaos cells.
    pub chaos_invalidate: f64,
    /// Watchdog interval for threaded cells (hangs become `Livelocked`
    /// divergences instead of stuck CI jobs).
    pub watchdog_ms: u64,
    /// Atom budget for scheduled cells.
    pub max_atoms: u64,
    /// Guest memory per cell.
    pub mem_size: u32,
    /// Add adaptive (`--scheme auto`) cells to the matrix: one per
    /// mode, starting on HST under the strong policy. Off by default —
    /// the static 8×5 matrix is already the expensive part.
    pub auto: bool,
    /// Arbitration epoch for the adaptive cells, in retired
    /// instructions. Aggressively short so migrations actually fire
    /// inside small generated programs.
    pub adapt_epoch: u64,
}

impl Default for FuzzOpts {
    fn default() -> FuzzOpts {
        FuzzOpts {
            gen: GenConfig::default(),
            schemes: SchemeKind::ALL.to_vec(),
            chaos_rate: 0.05,
            chaos_invalidate: 0.02,
            watchdog_ms: 10_000,
            max_atoms: 4_000_000,
            mem_size: 8 << 20,
            auto: false,
            adapt_epoch: 500,
        }
    }
}

impl FuzzOpts {
    /// The full cell list, reference first; adaptive cells (when armed)
    /// last, so the reference is always a static machine.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &scheme in &self.schemes {
            for mode in CellMode::ALL {
                cells.push(Cell {
                    scheme,
                    mode,
                    auto: false,
                });
            }
        }
        if self.auto {
            for mode in CellMode::ALL {
                cells.push(Cell {
                    scheme: SchemeKind::Hst,
                    mode,
                    auto: true,
                });
            }
        }
        cells
    }

    fn config(&self, seed: u64, cell: Cell) -> MachineConfig {
        let mut cfg = MachineConfig {
            mem_size: self.mem_size,
            ..MachineConfig::default()
        };
        match cell.mode {
            CellMode::Sim | CellMode::Scheduled => {}
            CellMode::SimChaos => {
                // Chaos seed derives from the program seed so one u64
                // reproduces the whole cell.
                cfg.chaos = Some(
                    ChaosCfg::new(seed ^ 0xC4A0_5EED_0BAD_F00D, self.chaos_rate)
                        .with_invalidate(self.chaos_invalidate),
                );
            }
            CellMode::SimProfiled => cfg.profile = true,
            CellMode::Threaded => cfg.watchdog_ms = self.watchdog_ms,
        }
        cfg
    }

    fn exec_mode(&self, cell: Cell) -> ExecMode {
        match cell.mode {
            CellMode::Sim | CellMode::SimChaos | CellMode::SimProfiled => ExecMode::Sim,
            CellMode::Threaded => ExecMode::Threaded,
            CellMode::Scheduled => ExecMode::Scheduled {
                max_atoms: self.max_atoms,
            },
        }
    }

    fn run_cell(&self, seed: u64, cell: Cell, prog: &FuzzProgram) -> Result<ProgramRun, String> {
        let entries: Vec<&str> = prog.entries.iter().map(String::as_str).collect();
        let run = if cell.auto {
            run_program_adaptive(
                cell.scheme,
                AdaptConfig {
                    epoch_insns: self.adapt_epoch.max(1),
                    ..AdaptConfig::default()
                },
                &prog.source,
                prog.entries.len() as u32,
                &entries,
                self.exec_mode(cell),
                self.config(seed, cell),
            )
        } else {
            run_program(
                cell.scheme,
                &prog.source,
                prog.entries.len() as u32,
                &entries,
                self.exec_mode(cell),
                self.config(seed, cell),
            )
        };
        run.map_err(|e| format!("{}: cell failed to run: {e}", cell.name()))
    }
}

/// A confirmed cross-cell or cell-vs-prediction mismatch, minimized and
/// packaged for replay.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The generating seed.
    pub seed: u64,
    /// The offending cell's display name.
    pub cell: String,
    /// The first mismatch observed on the original program.
    pub detail: String,
    /// The mismatch still reproduced by the minimized program.
    pub minimized_detail: String,
    /// The minimized spec (re-render for the program).
    pub minimized: ProgramSpec,
    /// Actions before → after minimization.
    pub shrink: (usize, usize),
    /// The replayable artifact bundle.
    pub artifact: Artifact,
}

/// The files a divergence report writes to disk.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Minimized guest assembly.
    pub source: String,
    /// Human-readable report: seed, cells, mismatch, repro commands.
    pub report: String,
    /// Scheduled-cell `VxN,…,V` trace of the minimized program on the
    /// offending scheme (`adbt_run --replay` format), when that cell
    /// still runs.
    pub replay_trace: Option<String>,
    /// Chrome trace-event JSON of a traced sim run of the minimized
    /// program on the offending scheme.
    pub chrome_trace: Option<String>,
    /// Profile-summary JSON (`adbt-metrics-v1` `profile` object) of a
    /// profiled sim run of the minimized program on the offending
    /// scheme — which guest PCs were contending when the bug fired.
    pub profile_summary: Option<String>,
}

/// One seed's verdict.
#[derive(Clone, Debug)]
pub struct SeedResult {
    /// The seed.
    pub seed: u64,
    /// Cells executed.
    pub cells: usize,
    /// Generated action count.
    pub actions: usize,
    /// The divergence, if the seed found one.
    pub divergence: Option<Divergence>,
}

/// Counter-invariant suite over one cell's report: the table-derived
/// [`adbt::VcpuStats::invariant_violations`] plus the chaos-on/off
/// checks. Returns violation descriptions (empty = clean).
/// `chaos_active` relaxes nothing — it only switches which chaos-related
/// invariants apply.
pub fn counter_violations(report: &RunReport, chaos_active: bool) -> Vec<String> {
    let s = &report.stats;
    let mut v = s.invariant_violations(&report.per_cpu);
    if chaos_active {
        if report.chaos.is_none() {
            v.push("chaos active but snapshot missing".into());
        }
    } else {
        if s.injected_faults != 0 {
            v.push(format!(
                "chaos off but injected_faults = {}",
                s.injected_faults
            ));
        }
        if s.sc_failures_injected != 0 {
            v.push(format!(
                "chaos off but sc_failures_injected = {}",
                s.sc_failures_injected
            ));
        }
        if report.chaos.is_some() {
            v.push("chaos off but snapshot present".into());
        }
    }
    v
}

fn outcome_digest(outcomes: &[VcpuOutcome]) -> String {
    format!("{outcomes:?}")
}

fn any_livelock(report: &RunReport) -> bool {
    report
        .outcomes
        .iter()
        .any(|o| matches!(o, VcpuOutcome::Livelocked { .. }))
}

/// Compares one cell against the reference run. `None` = agree.
fn compare_to_reference(cell: Cell, run: &ProgramRun, reference: &ProgramRun) -> Option<String> {
    if chaos_cell(cell) && any_livelock(&run.report) {
        // Injected storms may legitimately exhaust retry limits; the
        // partial memory image is then incomparable.
        return None;
    }
    let ours = outcome_digest(&run.report.outcomes);
    let theirs = outcome_digest(&reference.report.outcomes);
    if ours != theirs {
        return Some(format!("outcomes {ours} ≠ reference {theirs}"));
    }
    if run.memory != reference.memory {
        let at = run
            .memory
            .iter()
            .zip(&reference.memory)
            .position(|(a, b)| a != b)
            .unwrap_or(run.memory.len().min(reference.memory.len()));
        return Some(format!(
            "memory differs at image offset {:#x} ({} ≠ reference {})",
            at,
            run.memory.get(at).copied().map_or(-1, i32::from),
            reference.memory.get(at).copied().map_or(-1, i32::from),
        ));
    }
    None
}

fn chaos_cell(cell: Cell) -> bool {
    cell.mode == CellMode::SimChaos
}

/// Checks the reference run against the generator's static predictions.
fn check_predictions(prog: &FuzzProgram, reference: &ProgramRun) -> Option<String> {
    for (i, expected) in prog.expected_exits.iter().enumerate() {
        match reference.report.outcomes.get(i) {
            Some(VcpuOutcome::Exited(code)) if code == expected => {}
            other => {
                return Some(format!(
                    "vcpu {i}: predicted exit {expected}, observed {other:?}"
                ))
            }
        }
    }
    let img = match adbt::assemble(&prog.source, IMAGE_BASE) {
        Ok(img) => img,
        Err(e) => return Some(format!("assembly failed: {e}")),
    };
    for (sym, expected) in &prog.expected_words {
        let Some(addr) = img.symbol(sym) else {
            return Some(format!("predicted symbol `{sym}` missing from image"));
        };
        let off = (addr - IMAGE_BASE) as usize;
        let Some(bytes) = reference.memory.get(off..off + 4) else {
            return Some(format!("`{sym}` outside snapshot"));
        };
        let got = u32::from_le_bytes(bytes.try_into().unwrap());
        if got != *expected {
            return Some(format!("`{sym}`: predicted {expected}, observed {got}"));
        }
    }
    None
}

/// Runs the whole matrix for one rendered program. Returns the first
/// offending `(cell, detail)`, or `None` when every cell agrees.
fn run_matrix(seed: u64, prog: &FuzzProgram, opts: &FuzzOpts) -> Option<(Cell, String)> {
    let cells = opts.cells();
    let reference_cell = cells[0];
    let reference = match opts.run_cell(seed, reference_cell, prog) {
        Ok(run) => run,
        Err(e) => return Some((reference_cell, e)),
    };
    if let Some(why) = check_predictions(prog, &reference) {
        return Some((reference_cell, format!("reference vs prediction: {why}")));
    }
    let violations = counter_violations(&reference.report, false);
    if let Some(first) = violations.into_iter().next() {
        return Some((reference_cell, format!("counter invariant: {first}")));
    }
    for &cell in &cells[1..] {
        let run = match opts.run_cell(seed, cell, prog) {
            Ok(run) => run,
            Err(e) => return Some((cell, e)),
        };
        if let Some(why) = compare_to_reference(cell, &run, &reference) {
            return Some((cell, why));
        }
        let violations = counter_violations(&run.report, chaos_cell(cell));
        if let Some(first) = violations.into_iter().next() {
            return Some((cell, format!("counter invariant: {first}")));
        }
    }
    None
}

/// Re-checks only the implicated cell pair — the cheap predicate the
/// shrinker runs per candidate.
fn recheck_pair(seed: u64, prog: &FuzzProgram, opts: &FuzzOpts, cell: Cell) -> Option<String> {
    let reference_cell = opts.cells()[0];
    let reference = match opts.run_cell(seed, reference_cell, prog) {
        Ok(run) => run,
        Err(e) => return Some(e),
    };
    if cell == reference_cell {
        if let Some(why) = check_predictions(prog, &reference) {
            return Some(format!("reference vs prediction: {why}"));
        }
        return counter_violations(&reference.report, false)
            .into_iter()
            .next()
            .map(|v| format!("counter invariant: {v}"));
    }
    let run = match opts.run_cell(seed, cell, prog) {
        Ok(run) => run,
        Err(e) => return Some(e),
    };
    if let Some(why) = compare_to_reference(cell, &run, &reference) {
        return Some(why);
    }
    counter_violations(&run.report, chaos_cell(cell))
        .into_iter()
        .next()
        .map(|v| format!("counter invariant: {v}"))
}

/// Fuzzes one seed end to end: generate, run the matrix, and on
/// divergence minimize and build the artifact.
pub fn run_seed(seed: u64, opts: &FuzzOpts) -> SeedResult {
    let spec = ProgramSpec::generate(seed, &opts.gen);
    let prog = spec.render();
    let cells = opts.cells().len();
    let actions = spec.action_count();

    let Some((cell, detail)) = run_matrix(seed, &prog, opts) else {
        return SeedResult {
            seed,
            cells,
            actions,
            divergence: None,
        };
    };

    // Minimize: drop actions to a fixpoint, re-running only the
    // implicated pair. The record follows the last failing candidate so
    // the reported detail matches the minimized program.
    let flat = spec.flatten();
    let (kept, minimized_detail) = adbt_check::shrink::drop_one_fixpoint(
        flat,
        detail.clone(),
        |candidate: &[(usize, Action)]| {
            let prog = spec.with_actions(candidate).render();
            recheck_pair(seed, &prog, opts, cell)
        },
    );
    let minimized = spec.with_actions(&kept);
    let artifact = build_artifact(seed, opts, cell, &detail, &minimized_detail, &minimized);
    SeedResult {
        seed,
        cells,
        actions,
        divergence: Some(Divergence {
            seed,
            cell: cell.name(),
            detail,
            minimized_detail,
            minimized: minimized.clone(),
            shrink: (actions, minimized.action_count()),
            artifact,
        }),
    }
}

fn build_artifact(
    seed: u64,
    opts: &FuzzOpts,
    cell: Cell,
    detail: &str,
    minimized_detail: &str,
    minimized: &ProgramSpec,
) -> Artifact {
    let prog = minimized.render();
    // The scheduled cell of the offending scheme supplies the
    // `adbt_run --replay`-compatible trace (best effort: the bug may
    // prevent that cell from finishing).
    let sched = Cell {
        scheme: cell.scheme,
        mode: CellMode::Scheduled,
        auto: cell.auto,
    };
    let replay_trace = opts
        .run_cell(seed, sched, &prog)
        .ok()
        .and_then(|run| run.trace);
    // A traced sim run on the offending scheme gives the Chrome trace.
    let mut traced_cfg = opts.config(
        seed,
        Cell {
            scheme: cell.scheme,
            mode: CellMode::Sim,
            auto: cell.auto,
        },
    );
    traced_cfg.trace = true;
    let entries: Vec<&str> = prog.entries.iter().map(String::as_str).collect();
    let chrome_trace = run_program(
        cell.scheme,
        &prog.source,
        prog.entries.len() as u32,
        &entries,
        ExecMode::Sim,
        traced_cfg,
    )
    .ok()
    .and_then(|run| run.chrome_trace);
    // The profiled sim cell attributes the minimized program's contention
    // to guest PCs — where the retries/waits were when the bug fired.
    let profiled = Cell {
        scheme: cell.scheme,
        mode: CellMode::SimProfiled,
        auto: cell.auto,
    };
    let profile_summary = opts
        .run_cell(seed, profiled, &prog)
        .ok()
        .and_then(|run| run.profile)
        .map(|snap| adbt::profile::metrics::profile_summary(&snap));

    let mut report = String::new();
    let _ = writeln!(report, "adbt_fuzz divergence report");
    let _ = writeln!(report, "===========================");
    let _ = writeln!(report, "seed:            {seed:#018x}");
    let _ = writeln!(report, "offending cell:  {}", cell.name());
    let _ = writeln!(report, "original:        {detail}");
    let _ = writeln!(report, "minimized:       {minimized_detail}");
    let _ = writeln!(
        report,
        "shrink:          {} → {} actions",
        ProgramSpec::generate(seed, &opts.gen).action_count(),
        minimized.action_count()
    );
    let _ = writeln!(report);
    let _ = writeln!(report, "reproduce the whole matrix:");
    let _ = writeln!(
        report,
        "    adbt_fuzz --seed {seed:#x} --max-insns {}",
        opts.gen.max_insns
    );
    let _ = writeln!(report);
    let _ = writeln!(report, "run the minimized program standalone (program.s):");
    let entry_list = prog.entries.join(",");
    let _ = writeln!(
        report,
        "    adbt_run program.s --scheme {} --threads {} --entry {entry_list} --sim --stats",
        cell.scheme,
        prog.entries.len()
    );
    if replay_trace.is_some() {
        let _ = writeln!(
            report,
            "    adbt_run program.s --scheme {} --threads {} --entry {entry_list} --replay trace.txt",
            cell.scheme,
            prog.entries.len()
        );
    }
    let _ = writeln!(report);
    let _ = writeln!(report, "predicted exits: {:?}", prog.expected_exits);
    let _ = writeln!(report, "predicted words:");
    for (sym, val) in &prog.expected_words {
        let _ = writeln!(report, "    {sym} = {val}");
    }
    Artifact {
        source: prog.source,
        report,
        replay_trace,
        chrome_trace,
        profile_summary,
    }
}

/// Runs `count` consecutive seeds starting at `start`, invoking
/// `on_seed` after each. Returns every divergence found.
pub fn run_campaign(
    opts: &FuzzOpts,
    start: u64,
    count: u64,
    mut on_seed: impl FnMut(&SeedResult),
) -> Vec<Divergence> {
    let mut divergences = Vec::new();
    for seed in start..start.saturating_add(count) {
        let result = run_seed(seed, opts);
        on_seed(&result);
        if let Some(d) = result.divergence {
            divergences.push(d);
        }
    }
    divergences
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-matrix smoke: one seed across two schemes must agree.
    /// (The full 8-scheme corpus runs in `tests/fuzz_regressions.rs`
    /// and in CI.)
    #[test]
    fn one_seed_agrees_on_a_small_matrix() {
        let opts = FuzzOpts {
            gen: GenConfig {
                max_insns: 96,
                max_threads: 2,
            },
            schemes: vec![SchemeKind::Hst, SchemeKind::PicoCas],
            ..FuzzOpts::default()
        };
        let result = run_seed(3, &opts);
        assert_eq!(result.cells, 10);
        assert!(
            result.divergence.is_none(),
            "{:?}",
            result.divergence.map(|d| (d.cell, d.detail))
        );
    }

    /// The artifact bundle is complete and replayable: the report names
    /// the exact single-seed repro command, the scheduled cell yields a
    /// non-empty `--replay`-format trace, and the traced sim run yields
    /// Chrome JSON — all from a synthetic divergence, so the path works
    /// before any real engine bug needs it.
    #[test]
    fn artifact_bundle_is_complete() {
        let opts = FuzzOpts {
            gen: GenConfig {
                max_insns: 64,
                max_threads: 2,
            },
            schemes: vec![SchemeKind::Hst],
            ..FuzzOpts::default()
        };
        let spec = ProgramSpec::generate(11, &opts.gen);
        let cell = Cell {
            scheme: SchemeKind::Hst,
            mode: CellMode::Threaded,
            auto: false,
        };
        let artifact = build_artifact(11, &opts, cell, "detail", "min detail", &spec);
        assert!(artifact.source.contains("t0_entry"));
        assert!(
            artifact.report.contains("adbt_fuzz --seed 0xb"),
            "repro line missing: {}",
            artifact.report
        );
        assert!(artifact.report.contains("min detail"));
        let trace = artifact.replay_trace.expect("scheduled trace");
        assert!(
            trace.split(',').count() > 1 && trace.contains('x'),
            "not a VxN replay trace: {trace}"
        );
        let chrome = artifact.chrome_trace.expect("chrome trace");
        assert!(chrome.contains("\"traceEvents\""));
        let profile = artifact.profile_summary.expect("profile summary");
        assert!(
            profile.contains("\"totals\""),
            "not a profile summary: {profile}"
        );
    }

    /// The counter suite must flag a cooked report: merged ≠ sum.
    #[test]
    fn counter_suite_flags_bad_merges() {
        let opts = FuzzOpts {
            gen: GenConfig {
                max_insns: 48,
                max_threads: 1,
            },
            schemes: vec![SchemeKind::Hst],
            ..FuzzOpts::default()
        };
        let spec = ProgramSpec::generate(5, &opts.gen);
        let prog = spec.render();
        let mut run = opts
            .run_cell(
                5,
                Cell {
                    scheme: SchemeKind::Hst,
                    mode: CellMode::Sim,
                    auto: false,
                },
                &prog,
            )
            .unwrap();
        assert!(counter_violations(&run.report, false).is_empty());
        run.report.stats.sc += 1;
        let violations = counter_violations(&run.report, false);
        assert!(
            violations.iter().any(|v| v.contains("merged sc ")),
            "{violations:?}"
        );
    }

    /// The cross-cell oracle must notice a single flipped memory byte
    /// or a rewritten outcome — guards against the comparison silently
    /// weakening (e.g. comparing lengths instead of bytes).
    #[test]
    fn oracle_detects_cooked_cells() {
        let opts = FuzzOpts {
            gen: GenConfig {
                max_insns: 48,
                max_threads: 1,
            },
            schemes: vec![SchemeKind::Hst],
            ..FuzzOpts::default()
        };
        let spec = ProgramSpec::generate(5, &opts.gen);
        let prog = spec.render();
        let sim = Cell {
            scheme: SchemeKind::Hst,
            mode: CellMode::Sim,
            auto: false,
        };
        let threaded = Cell {
            scheme: SchemeKind::Hst,
            mode: CellMode::Threaded,
            auto: false,
        };
        let reference = opts.run_cell(5, sim, &prog).unwrap();
        assert!(compare_to_reference(threaded, &reference, &reference).is_none());

        let mut cooked = reference.clone();
        cooked.memory[0] ^= 1;
        let why = compare_to_reference(threaded, &cooked, &reference).unwrap();
        assert!(why.contains("memory differs"), "{why}");

        let mut cooked = reference.clone();
        cooked.report.outcomes[0] = VcpuOutcome::Exited(99);
        let why = compare_to_reference(threaded, &cooked, &reference).unwrap();
        assert!(why.contains("outcomes"), "{why}");
    }

    /// The absolute oracle must notice wrong static predictions — the
    /// check that stops a bug shared by all eight schemes from hiding
    /// behind cross-cell agreement.
    #[test]
    fn oracle_detects_wrong_predictions() {
        let opts = FuzzOpts {
            gen: GenConfig {
                max_insns: 48,
                max_threads: 1,
            },
            schemes: vec![SchemeKind::Hst],
            ..FuzzOpts::default()
        };
        let spec = ProgramSpec::generate(5, &opts.gen);
        let mut prog = spec.render();
        let sim = Cell {
            scheme: SchemeKind::Hst,
            mode: CellMode::Sim,
            auto: false,
        };
        let reference = opts.run_cell(5, sim, &prog).unwrap();
        assert!(check_predictions(&prog, &reference).is_none());

        let honest = prog.clone();
        prog.expected_exits[0] ^= 1;
        let why = check_predictions(&prog, &reference).unwrap();
        assert!(why.contains("predicted exit"), "{why}");

        let mut prog = honest;
        prog.expected_words[0].1 ^= 1;
        let why = check_predictions(&prog, &reference).unwrap();
        assert!(why.contains("predicted"), "{why}");
    }

    /// A chaos-off report carrying injected faults is a violation (the
    /// "injected ⊆ failures" family).
    #[test]
    fn chaos_invariants_depend_on_the_chaos_axis() {
        let opts = FuzzOpts {
            gen: GenConfig {
                max_insns: 48,
                max_threads: 1,
            },
            schemes: vec![SchemeKind::Hst],
            ..FuzzOpts::default()
        };
        let spec = ProgramSpec::generate(5, &opts.gen);
        let prog = spec.render();
        let mut run = opts
            .run_cell(
                5,
                Cell {
                    scheme: SchemeKind::Hst,
                    mode: CellMode::Sim,
                    auto: false,
                },
                &prog,
            )
            .unwrap();
        run.report.stats.injected_faults = 7;
        if let Some(c) = run.report.per_cpu.first_mut() {
            c.injected_faults = 7;
        }
        let violations = counter_violations(&run.report, false);
        assert!(
            violations.iter().any(|v| v.contains("chaos off")),
            "{violations:?}"
        );
    }
}
