//! Ready-made runners for the paper's experiments: the ABA stack test
//! (§IV-A), the Seq1–Seq4 litmus interleavings, and the PARSEC-like
//! kernels (§IV-B). The `adbt-bench` binaries and the repository's
//! integration tests are thin wrappers over these.

use crate::{Error, MachineBuilder};
use adbt_engine::{MachineConfig, RoundRobin, RunReport, ScriptedScheduler, SimCosts, Vcpu};
use adbt_schemes::SchemeKind;
use adbt_workloads::litmus::{self, Expectation, Seq};
use adbt_workloads::parsec::{self, Program};
use adbt_workloads::stack::{self, StackConfig, StackLayout, StackVerdict};
use adbt_workloads::IMAGE_BASE;

// ---------------------------------------------------------------------------
// Lock-free stack (E1)
// ---------------------------------------------------------------------------

/// The outcome of one lock-free-stack run.
#[derive(Clone, Debug)]
pub struct StackRun {
    /// The structural verdict (self-loops are the paper's ABA witness).
    pub verdict: StackVerdict,
    /// The engine run report.
    pub report: RunReport,
    /// Nodes in the pool (for [`StackVerdict::aba_entry_fraction`]).
    pub nodes: u32,
}

impl StackRun {
    /// Whether the run finished with the stack exactly intact.
    pub fn intact(&self) -> bool {
        self.report.all_ok() && self.verdict.is_intact(self.nodes)
    }
}

/// Runs the §IV-A lock-free-stack micro-benchmark under a scheme, on
/// real OS threads.
///
/// # Errors
///
/// Propagates machine-construction and assembly errors.
pub fn run_stack(kind: SchemeKind, threads: u32, config: StackConfig) -> Result<StackRun, Error> {
    run_stack_inner(kind, threads, config, MachineConfig::default(), None)
}

/// [`run_stack`] with an explicit engine configuration — the entry point
/// the chaos-soak tests use to run the ABA workload under fault
/// injection, a watchdog, or a degradation budget.
///
/// # Errors
///
/// Propagates machine-construction and assembly errors.
pub fn run_stack_with(
    kind: SchemeKind,
    threads: u32,
    config: StackConfig,
    machine_config: MachineConfig,
    sim: Option<SimCosts>,
) -> Result<StackRun, Error> {
    run_stack_inner(kind, threads, config, machine_config, sim)
}

/// [`run_stack`] on the simulated multicore: fine-grained deterministic
/// interleaving regardless of host core count — the mode that reproduces
/// the paper's ABA rates even on a single-core build host.
///
/// # Errors
///
/// Propagates machine-construction and assembly errors.
pub fn run_stack_sim(
    kind: SchemeKind,
    threads: u32,
    config: StackConfig,
) -> Result<StackRun, Error> {
    run_stack_inner(
        kind,
        threads,
        config,
        MachineConfig::default(),
        Some(SimCosts::default()),
    )
}

fn run_stack_inner(
    kind: SchemeKind,
    threads: u32,
    config: StackConfig,
    mut machine_config: MachineConfig,
    sim: Option<SimCosts>,
) -> Result<StackRun, Error> {
    let program = stack::program(config);
    machine_config.mem_size = machine_config.mem_size.max(16 << 20);
    let mut machine = MachineBuilder::new(kind).config(machine_config).build()?;
    machine.load_asm(&program.source, IMAGE_BASE)?;
    let layout = StackLayout {
        top: machine.symbol(program.layout_symbols.0)?,
        pool: machine.symbol(program.layout_symbols.1)?,
        nodes: config.nodes,
    };
    let vcpus = machine.make_vcpus(threads, IMAGE_BASE);
    let report = match sim {
        Some(costs) => machine.core().run_sim(vcpus, &costs),
        None => machine.run_vcpus(vcpus),
    };
    let verdict = stack::verify(&layout, |addr| machine.read_word(addr).unwrap_or(u32::MAX));
    Ok(StackRun {
        verdict,
        report,
        nodes: config.nodes,
    })
}

// ---------------------------------------------------------------------------
// Litmus sequences (E2)
// ---------------------------------------------------------------------------

/// The outcome of one litmus run.
#[derive(Clone, Debug)]
pub struct LitmusRun {
    /// The sequence exercised.
    pub seq: Seq,
    /// Thread a's exit code: its SC status (0 = succeeded, 1 = failed).
    pub sc_status: i32,
    /// The final value of `x`.
    pub final_x: u32,
    /// HTM aborts observed (region-retry schemes).
    pub htm_aborts: u64,
    /// What the scheme was expected to do.
    pub expectation: Expectation,
    /// Whether the observed behaviour matches the expectation.
    pub conforms: bool,
}

/// The paper's classification of each scheme's litmus behaviour.
pub fn expected_behaviour(kind: SchemeKind, seq: Seq) -> Expectation {
    match kind {
        SchemeKind::PicoCas => Expectation::ScSucceedsIncorrectly,
        SchemeKind::PicoHtm => Expectation::RegionRetries,
        SchemeKind::HstWeak if !seq.caught_by_weak() => Expectation::ScSucceedsIncorrectly,
        _ => Expectation::ScFails,
    }
}

/// Atom cap for a litmus run: a safety net orders of magnitude above the
/// few dozen instructions a sequence executes.
const LITMUS_MAX_ATOMS: u64 = 1_000_000;

/// Runs one Seq1–Seq4 interleaving under a scheme in lockstep mode.
///
/// # Errors
///
/// Propagates machine-construction and assembly errors.
pub fn run_litmus(kind: SchemeKind, seq: Seq) -> Result<LitmusRun, Error> {
    let mut machine = MachineBuilder::new(kind)
        .memory(4 << 20)
        .max_block_insns(1)
        .build()?;
    machine.load_asm(&litmus::image_source(seq), IMAGE_BASE)?;
    let (a_sym, b_sym, x_sym) = litmus::SYMBOLS;
    let a = machine.symbol(a_sym)?;
    let b = machine.symbol(b_sym)?;
    let x = machine.symbol(x_sym)?;

    let vcpus = vec![Vcpu::new(1, a), Vcpu::new(2, b)];
    let mut lockstep = RoundRobin::with_prefix(litmus::schedule());
    let report = machine.run_scheduled(vcpus, &mut lockstep, LITMUS_MAX_ATOMS);
    let sc_status = match report.outcomes[0] {
        adbt_engine::VcpuOutcome::Exited(code) => code,
        ref other => panic!("litmus thread a did not exit cleanly: {other:?}"),
    };
    let final_x = machine.read_word(x)?;
    let expectation = expected_behaviour(kind, seq);
    let conforms = match expectation {
        Expectation::ScFails => sc_status == 1 && final_x == litmus::INITIAL,
        Expectation::ScSucceedsIncorrectly => sc_status == 0 && final_x == litmus::SC_VALUE,
        Expectation::RegionRetries => {
            sc_status == 0 && final_x == litmus::SC_VALUE && report.stats.htm_aborts >= 1
        }
    };
    Ok(LitmusRun {
        seq,
        sc_status,
        final_x,
        htm_aborts: report.stats.htm_aborts,
        expectation,
        conforms,
    })
}

// ---------------------------------------------------------------------------
// PARSEC-like kernels (E3–E6, E8)
// ---------------------------------------------------------------------------

/// The outcome of one kernel run, with the sanity invariants checked.
#[derive(Clone, Debug)]
pub struct ParsecRun {
    /// The program run.
    pub program: Program,
    /// The engine run report.
    pub report: RunReport,
    /// Whether the kernel's shared-state invariants held (lock-protected
    /// counter and atomic counter match the expected totals).
    pub valid: bool,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl ParsecRun {
    /// The virtual-time makespan for simulated runs (`None` otherwise).
    pub fn sim_time(&self) -> Option<u64> {
        self.report.sim_time()
    }
}

/// Runs one PARSEC-like kernel under a scheme on real OS threads.
///
/// `scale` multiplies total work (which is then divided across threads —
/// strong scaling; see [`parsec::generate`]).
///
/// # Errors
///
/// Propagates machine-construction and assembly errors.
pub fn run_parsec(
    kind: SchemeKind,
    program: Program,
    threads: u32,
    scale: f64,
) -> Result<ParsecRun, Error> {
    run_parsec_full(
        kind,
        program,
        threads,
        scale,
        MachineConfig::default(),
        None,
    )
}

/// [`run_parsec`] on the simulated multicore; [`ParsecRun::sim_time`]
/// carries the virtual-time makespan the performance figures use.
///
/// # Errors
///
/// Propagates machine-construction and assembly errors.
pub fn run_parsec_sim(
    kind: SchemeKind,
    program: Program,
    threads: u32,
    scale: f64,
) -> Result<ParsecRun, Error> {
    run_parsec_full(
        kind,
        program,
        threads,
        scale,
        MachineConfig::default(),
        Some(SimCosts::default()),
    )
}

/// [`run_parsec`] with an explicit engine configuration (collision
/// tracking, table sizes, …).
///
/// # Errors
///
/// Propagates machine-construction and assembly errors.
pub fn run_parsec_with(
    kind: SchemeKind,
    program: Program,
    threads: u32,
    scale: f64,
    config: MachineConfig,
) -> Result<ParsecRun, Error> {
    run_parsec_full(kind, program, threads, scale, config, None)
}

/// The fully-general kernel runner.
///
/// # Errors
///
/// Propagates machine-construction and assembly errors.
pub fn run_parsec_full(
    kind: SchemeKind,
    program: Program,
    threads: u32,
    scale: f64,
    mut config: MachineConfig,
    sim: Option<SimCosts>,
) -> Result<ParsecRun, Error> {
    let generated = parsec::generate(program, threads, scale);
    config.mem_size = config.mem_size.max(16 << 20);
    let mut machine = MachineBuilder::new(kind).config(config).build()?;
    machine.load_asm(&generated.source, IMAGE_BASE)?;
    let vcpus = machine.make_vcpus(threads, IMAGE_BASE);
    let report = match sim {
        Some(costs) => machine.core().run_sim(vcpus, &costs),
        None => machine.run_vcpus(vcpus),
    };
    let seconds = report.wall.as_secs_f64();

    // Invariants: the lock-protected plain counters (sync_page+16, or
    // one per fine-grained lock on fine_counters_page) and the atomic
    // counter at sync_page+8 must equal the expected event totals — a
    // wrong scheme (or engine bug) shows up here.
    let spec = generated.spec;
    let sync = machine.symbol("sync_page")?;
    let mut valid = report.all_ok();
    if let Some(per_thread) = spec.iters.checked_div(spec.lock_every) {
        let expected = per_thread as u64 * threads as u64;
        let locked = if spec.fine_locks > 0 {
            let counters = machine.symbol("fine_counters_page")?;
            (0..spec.fine_locks)
                .map(|i| machine.read_word(counters + 4 * i).map(u64::from))
                .sum::<Result<u64, _>>()?
        } else {
            machine.read_word(sync + 16)? as u64
        };
        valid &= locked == expected;
        if spec.atomic_adds_per_lock > 0 {
            let expected_atomic = expected * spec.atomic_adds_per_lock as u64;
            valid &= machine.read_word(sync + 8)? as u64 == expected_atomic;
        }
    } else if spec.atomic_adds_per_lock > 0 {
        let events = if spec.add_every > 1 {
            spec.iters / spec.add_every
        } else {
            spec.iters
        } as u64;
        let expected = events * spec.atomic_adds_per_lock as u64 * threads as u64;
        valid &= machine.read_word(sync + 8)? as u64 == expected;
    }
    Ok(ParsecRun {
        program,
        report,
        valid,
        seconds,
    })
}

// ---------------------------------------------------------------------------
// Generic differential program runner
// ---------------------------------------------------------------------------

/// How [`run_program`] executes its vCPUs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Real OS threads ([`crate::Machine::run_vcpus`]).
    Threaded,
    /// The deterministic simulated multicore with the default cost
    /// model.
    Sim,
    /// The scheduled engine under a fresh non-preemptive
    /// [`ScriptedScheduler`], one guest instruction per atom
    /// (`max_block_insns` is forced to 1) — the mode whose recorded
    /// trace `adbt_run --replay` re-executes exactly.
    Scheduled {
        /// Atom budget handed to `run_scheduled` (livelock safety net).
        max_atoms: u64,
    },
}

/// The outcome of one [`run_program`] execution cell: the report plus
/// everything a differential oracle compares or a replay artifact
/// needs.
#[derive(Clone, Debug)]
pub struct ProgramRun {
    /// The engine run report (outcomes, merged + per-vCPU stats, chaos
    /// snapshot, watchdog dump).
    pub report: RunReport,
    /// The final guest memory over the image's address range
    /// `[base, base + image length)`, word-snapshotted after the run —
    /// code pages included, so deterministic SMC patches must also
    /// agree across cells.
    pub memory: Vec<u8>,
    /// Scheduled mode only: the recorded `VxN,…,V` schedule trace
    /// (replay with `adbt_run --replay`).
    pub trace: Option<String>,
    /// Chrome trace-event JSON, when the config armed the flight
    /// recorder (`MachineConfig::trace`).
    pub chrome_trace: Option<String>,
    /// The merged guest-PC contention profile, when the config armed the
    /// profiler (`MachineConfig::profile`). Differential oracles must
    /// *not* compare this — it is observability, free to differ between
    /// cells — but divergence artifacts embed its summary.
    pub profile: Option<adbt_profile::ProfileSnapshot>,
}

/// Assembles `source` at [`IMAGE_BASE`] and runs `threads` vCPUs under
/// one scheme / mode / configuration cell — the multi-config entry the
/// differential fuzzer (`adbt_fuzz`) drives across schemes, modes
/// and chaos. `entry_syms` assigns per-vCPU entry symbols round-robin
/// (same contract as `adbt_run --entry`); empty means every vCPU starts
/// at the image base with the standard launch ABI.
///
/// # Errors
///
/// Propagates machine-construction, assembly, symbol-resolution, and
/// memory-read errors.
pub fn run_program(
    kind: SchemeKind,
    source: &str,
    threads: u32,
    entry_syms: &[&str],
    mode: ExecMode,
    config: MachineConfig,
) -> Result<ProgramRun, Error> {
    run_program_on(
        MachineBuilder::new(kind),
        source,
        threads,
        entry_syms,
        mode,
        config,
    )
}

/// [`run_program`] on an **adaptive** machine (`--scheme auto`): all
/// eight schemes installed as migration candidates, `initial` first,
/// the online arbiter moving between them as the profile shifts. The
/// differential suites run this against every static scheme — under
/// the strong policy a migrating machine must be observationally
/// identical to a static one on deterministic programs.
pub fn run_program_adaptive(
    initial: SchemeKind,
    adapt: adbt_engine::AdaptConfig,
    source: &str,
    threads: u32,
    entry_syms: &[&str],
    mode: ExecMode,
    config: MachineConfig,
) -> Result<ProgramRun, Error> {
    run_program_on(
        MachineBuilder::adaptive(initial, adapt),
        source,
        threads,
        entry_syms,
        mode,
        config,
    )
}

fn run_program_on(
    builder: MachineBuilder,
    source: &str,
    threads: u32,
    entry_syms: &[&str],
    mode: ExecMode,
    mut config: MachineConfig,
) -> Result<ProgramRun, Error> {
    if let ExecMode::Scheduled { .. } = mode {
        // Scheduled traces count atoms at instruction granularity.
        config.max_block_insns = 1;
    }
    let mut machine = builder.config(config.clone()).build()?;
    machine.load_asm(source, IMAGE_BASE)?;
    let mut entries = Vec::with_capacity(entry_syms.len());
    for sym in entry_syms {
        entries.push(machine.symbol(sym)?);
    }
    let mut vcpus = machine.make_vcpus(threads, IMAGE_BASE);
    if !entries.is_empty() {
        for (i, vcpu) in vcpus.iter_mut().enumerate() {
            vcpu.pc = entries[i % entries.len()];
        }
    }

    let mut trace = None;
    let report = match mode {
        ExecMode::Threaded => machine.run_vcpus(vcpus),
        ExecMode::Sim => machine.core().run_sim(vcpus, &SimCosts::default()),
        ExecMode::Scheduled { max_atoms } => {
            let mut sched = ScriptedScheduler::new();
            let report = machine.run_scheduled(vcpus, &mut sched, max_atoms);
            trace = Some(sched.trace());
            report
        }
    };

    let image_len = machine.image().map_or(0, |img| img.bytes.len());
    let mut memory = Vec::with_capacity(image_len);
    for word_addr in (0..image_len).step_by(4) {
        let word = machine.read_word(IMAGE_BASE + word_addr as u32)?;
        let take = (image_len - word_addr).min(4);
        memory.extend_from_slice(&word.to_le_bytes()[..take]);
    }

    let chrome_trace = machine.core().trace.as_ref().map(|rec| {
        let clock = match mode {
            ExecMode::Threaded => adbt_engine::chrome::Clock::Nanos,
            _ => adbt_engine::chrome::Clock::Insns,
        };
        adbt_engine::chrome::render_with_extras(
            &rec.snapshot_all(),
            clock,
            &[("histograms", rec.hists.to_json())],
        )
    });

    let profile = machine.core().profile.as_ref().map(|rec| rec.merged());

    Ok(ProgramRun {
        report,
        memory,
        trace,
        chrome_trace,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full §IV-A litmus matrix: every scheme × every sequence must
    /// behave exactly as the paper's atomicity analysis predicts.
    #[test]
    fn litmus_matrix_conforms() {
        for kind in SchemeKind::ALL {
            for seq in Seq::ALL {
                let run = run_litmus(kind, seq).unwrap();
                assert!(
                    run.conforms,
                    "{kind} × {seq}: expected {:?}, observed sc_status={} x={} aborts={}",
                    run.expectation, run.sc_status, run.final_x, run.htm_aborts
                );
            }
        }
    }

    #[test]
    fn stack_is_intact_under_hst() {
        let run = run_stack(
            SchemeKind::Hst,
            4,
            StackConfig {
                nodes: 16,
                ops_per_thread: 2_000,
                ..StackConfig::default()
            },
        )
        .unwrap();
        assert!(run.intact(), "{:?}", run.verdict);
    }

    /// The differential entry: a result-deterministic LL/SC counter
    /// must produce identical outcomes and final memory in every
    /// execution mode, and the scheduled cell must yield a replay
    /// trace.
    #[test]
    fn run_program_modes_agree_on_a_deterministic_program() {
        let src = r#"
            mov32 r5, x
            mov   r4, #10
        again:
            ldrex r1, [r5]
            add   r1, r1, #1
            strex r2, r1, [r5]
            cmp   r2, #0
            bne   again
            subs  r4, r4, #1
            bne   again
            mov   r0, #0
            svc   #0
            .align 4096
        x:  .word 0
        "#;
        let run = |mode| {
            run_program(SchemeKind::Pst, src, 2, &[], mode, MachineConfig::default()).unwrap()
        };
        let sim = run(ExecMode::Sim);
        let threaded = run(ExecMode::Threaded);
        let scheduled = run(ExecMode::Scheduled { max_atoms: 100_000 });
        for cell in [&sim, &threaded, &scheduled] {
            assert!(cell.report.all_ok(), "{:?}", cell.report.outcomes);
        }
        assert_eq!(sim.memory, threaded.memory);
        assert_eq!(sim.memory, scheduled.memory);
        let x = 4096usize; // `.align 4096` puts x at the page boundary
        assert_eq!(&sim.memory[x..x + 4], &20u32.to_le_bytes());
        assert!(scheduled.trace.is_some());
        assert!(sim.trace.is_none() && sim.chrome_trace.is_none());
    }

    #[test]
    fn parsec_invariants_hold_under_hst_weak() {
        let run = run_parsec(SchemeKind::HstWeak, Program::Fluidanimate, 4, 0.05).unwrap();
        assert!(run.valid, "{:?}", run.report.outcomes);
        assert!(run.report.stats.ll > 0);
    }
}
