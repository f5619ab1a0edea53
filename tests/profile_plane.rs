//! The guest-PC contention profiler, end to end.
//!
//! Five contracts from the observability work are on trial:
//!
//! 1. **Off by default, and pure** — an untouched config allocates no
//!    recorder, and arming the profiler on a deterministic run changes
//!    nothing observable: byte-identical flight-recorder output,
//!    memory, outcomes, and stats. Charging draws nothing from the
//!    chaos PRNG and measures no wall time outside threaded runs.
//! 2. **Merged = Σ per-vCPU** — every profile counter obeys the same
//!    merge discipline `VcpuStats` does, overflow bucket included.
//! 3. **Chaos soak, all schemes** — profiling rides a fault-injection
//!    campaign on all eight schemes without perturbing it, and every
//!    profile column (rows plus overflow) sums to its counter row, in
//!    sim runs (where the wall-clock columns read 0) and in threaded
//!    runs under an invalidation storm with the watchdog armed (where
//!    every column counts).
//! 4. **Crash-proof metrics** — the `--metrics` stream ends with its
//!    `"final":true` snapshot even when the watchdog halts a livelocked
//!    run; the stream validates against the `adbt-metrics-v2` schema.
//! 5. **Exact attribution** — a schedule that deschedules the
//!    `aba_llsc` victim between its LL and SC charges exactly one
//!    `sc_failures` to the victim's `strex` PC under HST, and none under
//!    value-comparing PICO-CAS (the ABA bug is invisible to it — which
//!    is the bug).

use adbt::engine::{ScriptedScheduler, Unit};
use adbt::harness::{run_program, ExecMode, ProgramRun};
use adbt::profile::ProfileSnapshot;
use adbt::workloads::interleave::Litmus;
use adbt::workloads::IMAGE_BASE;
use adbt::{
    assemble, ChaosCfg, Machine, MachineBuilder, MachineConfig, RunReport, SchemeKind, TraceKind,
    Vcpu, VcpuOutcome, VcpuStats,
};
use adbt_isa::{decode, Insn, INSN_SIZE};

const SEED: u64 = 0xADB7_9806;

/// A contended LL/SC counter: every thread increments guest address 0
/// `iters` times through its monitor.
fn contended_loop(iters: u32) -> String {
    format!(
        "    mov32 r6, #{iters}\n\
         retry:\n\
         \x20   ldrex r1, [r5]\n\
         \x20   add   r1, r1, #1\n\
         \x20   strex r2, r1, [r5]\n\
         \x20   cmp   r2, #0\n\
         \x20   bne   retry\n\
         \x20   subs  r6, r6, #1\n\
         \x20   bne   retry\n\
         \x20   mov   r0, #0\n\
         \x20   svc   #0\n"
    )
}

/// The `sc_failures` column's machine-wide total: attributed rows plus
/// the overflow bucket (totals stay exact even past the probe bound).
fn sc_failures(snapshot: &ProfileSnapshot) -> u64 {
    snapshot.total(snapshot.column("sc_failures").expect("an SC column"))
}

/// The cross-plane identity, one loop over the counter table: the
/// profile's columns are the rows flagged `pc`, and each column's total
/// is its row's value — except a wall-clock row outside a threaded run,
/// which the profile charges nothing.
fn assert_identity(what: &str, snap: &ProfileSnapshot, stats: &VcpuStats, threaded: bool) {
    assert_eq!(snap.columns, VcpuStats::pc_columns(), "{what}: columns");
    let rows = VcpuStats::COUNTERS
        .iter()
        .filter(|row| row.column.is_some());
    for row in rows {
        let charged = threaded || row.unit != Unit::Ns;
        let want = if charged { row.get(stats) } else { 0 };
        let total = snap.total(row.column.unwrap());
        assert_eq!(total, want, "{what}: profile column {} ≠ its row", row.name);
    }
}

// ---------------------------------------------------------------------------
// 1. Off by default, and pure
// ---------------------------------------------------------------------------

#[test]
fn profile_is_off_by_default_and_observation_is_pure() {
    // Untouched config: no recorder, one predicted branch per site.
    let machine = MachineBuilder::new(SchemeKind::Hst).build().unwrap();
    assert!(machine.core().profile.is_none(), "recorder armed unasked");

    // Purity: the same deterministic sim cell with tracing on, run with
    // profiling off and on, must be indistinguishable everywhere except
    // the profile itself.
    let source = contended_loop(200);
    let run = |profile: bool| -> ProgramRun {
        run_program(
            SchemeKind::Hst,
            &source,
            3,
            &[],
            ExecMode::Sim,
            MachineConfig {
                trace: true,
                profile,
                // Single-instruction blocks let the sim interleave
                // between LL and SC, so the run has real contention to
                // attribute.
                max_block_insns: 1,
                ..MachineConfig::default()
            },
        )
        .unwrap()
    };
    let plain = run(false);
    let profiled = run(true);
    assert!(plain.profile.is_none());
    let snap = profiled.profile.as_ref().expect("recorder armed");

    assert_eq!(
        format!("{:?}", plain.report.outcomes),
        format!("{:?}", profiled.report.outcomes),
    );
    assert_eq!(plain.memory, profiled.memory, "profiling changed memory");
    assert_eq!(
        plain.chrome_trace, profiled.chrome_trace,
        "profiling perturbed the flight recorder"
    );
    assert_eq!(
        plain.report.stats.without_wall_clock(),
        profiled.report.stats.without_wall_clock(),
        "profiling changed the stats plane"
    );

    // The profiled run saw real contention, and deterministic modes
    // charge no wall time, so replay purity can never depend on it.
    assert!(sc_failures(snap) > 0, "no contention profiled");
    assert_identity("hst sim", snap, &profiled.report.stats, false);
}

// ---------------------------------------------------------------------------
// 2. Merged = Σ per-vCPU
// ---------------------------------------------------------------------------

#[test]
fn merged_profile_equals_per_vcpu_sums_for_every_metric() {
    let threads = 4;
    let mut machine = MachineBuilder::new(SchemeKind::Hst)
        .memory(1 << 20)
        .profile(true)
        .build()
        .unwrap();
    machine.load_asm(&contended_loop(400), 0x1_0000).unwrap();
    let report = machine.run(threads, 0x1_0000);
    assert!(report.all_ok(), "{:?}", report.outcomes);

    let rec = machine.core().profile.as_ref().expect("recorder armed");
    let per_vcpu = rec.snapshot_all();
    assert_eq!(per_vcpu.len(), threads as usize, "one table per vCPU");
    let merged = rec.merged();
    // Snapshots drop all-zero rows, so any row is a charged one.
    assert!(
        !merged.entries.is_empty(),
        "threaded contention run profiled nothing"
    );
    for (column, name) in merged.columns.iter().enumerate() {
        let sum: u64 = per_vcpu.iter().map(|(_, s)| s.total(column)).sum();
        assert_eq!(merged.total(column), sum, "merged {name} ≠ per-vCPU sum");
    }
    let drops: u64 = per_vcpu.iter().map(|(_, s)| s.overflow.drops).sum();
    assert_eq!(merged.overflow.drops, drops, "merged drops ≠ per-vCPU sum");

    // Cross-plane identity on a threaded run: every event the stats
    // plane counted in a flagged row was charged to some PC (or the
    // overflow bucket) — the profiler drops totals never.
    assert_identity("hst threaded", &merged, &report.stats, true);
}

// ---------------------------------------------------------------------------
// 3. Chaos soak across all eight schemes
// ---------------------------------------------------------------------------

#[test]
fn chaos_soak_with_profiling_neither_perturbs_nor_miscounts_any_scheme() {
    let source = contended_loop(150);
    for kind in SchemeKind::ALL {
        let run = |profile: bool| -> ProgramRun {
            run_program(
                kind,
                &source,
                3,
                &[],
                ExecMode::Sim,
                MachineConfig {
                    chaos: Some(ChaosCfg::new(SEED, 0.05)),
                    profile,
                    max_block_insns: 1,
                    ..MachineConfig::default()
                },
            )
            .unwrap()
        };
        let plain = run(false);
        let profiled = run(true);

        // Purity under injection: charging never consumes a chaos PRNG
        // draw, so the profiled cell replays the plain one exactly.
        assert_eq!(
            format!("{:?}", plain.report.outcomes),
            format!("{:?}", profiled.report.outcomes),
            "{kind}: profiling changed chaos outcomes"
        );
        assert_eq!(
            plain.memory, profiled.memory,
            "{kind}: profiling changed chaos memory"
        );
        assert_eq!(
            plain.report.stats.without_wall_clock(),
            profiled.report.stats.without_wall_clock(),
            "{kind}: profiling changed chaos stats"
        );

        // Cross-plane identity: the attribution plane and the counter
        // plane agree exactly, per scheme and per flagged row.
        let snap = profiled.profile.as_ref().expect("recorder armed");
        let s = &profiled.report.stats;
        assert_identity(&format!("{kind} sim"), snap, s, false);
        // Injection at rate 0.05 over hundreds of SCs must leave marks
        // somewhere the profiler sees.
        assert!(
            s.sc_failures + s.htm_aborts > 0,
            "{kind}: chaos campaign injected nothing"
        );
    }
}

/// The same identity on real threads, where every column counts: the
/// wall-clock ones too, and `retired_blocks` under an invalidation
/// storm. The watchdog is armed, so a wedged scheme ends the run
/// instead of the test.
#[test]
fn threaded_invalidation_soak_profile_columns_sum_to_their_rows() {
    let config = MachineConfig {
        chaos: Some(ChaosCfg::new(7, 0.05).with_invalidate(0.01)),
        watchdog_ms: 30_000,
        profile: true,
        ..MachineConfig::default()
    };
    for kind in SchemeKind::ALL {
        let threaded = ExecMode::Threaded;
        let run = run_program(kind, &contended_loop(300), 4, &[], threaded, config.clone());
        let run = run.unwrap();
        let s = &run.report.stats;
        let snap = run.profile.as_ref().expect("recorder armed");
        assert_identity(&format!("{kind} threaded"), snap, s, true);
        assert!(s.retired_blocks > 0, "{kind}: the storm retired nothing");
    }
}

// ---------------------------------------------------------------------------
// 4. Metrics stream: the final snapshot survives a watchdog halt
// ---------------------------------------------------------------------------

/// Freeze the machine from outside until the watchdog declares it
/// livelocked: the metrics stream must still end with exactly one
/// `"final":true` snapshot carrying the merged stats block — a run that
/// dies ugly may not lose its last line.
#[test]
fn metrics_final_snapshot_survives_a_livelocked_watchdog_exit() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut machine = MachineBuilder::new(SchemeKind::Hst)
        .memory(1 << 20)
        .profile(true)
        .watchdog_ms(200)
        .build()
        .unwrap();
    // No exit: the loop runs until the watchdog halts the machine.
    machine
        .load_asm(
            "retry:\n\
             \x20   ldrex r1, [r5]\n\
             \x20   add   r1, r1, #1\n\
             \x20   strex r2, r1, [r5]\n\
             \x20   b     retry\n",
            0x1_0000,
        )
        .unwrap();
    let vcpus = machine.core().make_vcpus(2, 0x1_0000);

    let run_done = AtomicBool::new(false);
    let (report, lines) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let out = adbt::observe::run_with_metrics(
                &machine,
                vcpus,
                std::time::Duration::from_millis(20),
            );
            run_done.store(true, Ordering::SeqCst);
            out
        });
        // Let the vCPUs retire some work (and the sampler emit some
        // periodic lines) first.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let barrier = &machine.core().exclusive;
        barrier.register();
        // Hold exclusivity until the watchdog fires and halts the run
        // (polling `run_done` too — `run_threaded` resets the halt flag
        // on its way out).
        if barrier.start_exclusive().is_ok() {
            while !barrier.halted() && !run_done.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            barrier.end_exclusive();
        }
        barrier.unregister();
        handle.join().expect("run thread panicked")
    });

    for outcome in &report.outcomes {
        assert!(
            matches!(outcome, VcpuOutcome::Livelocked { .. }),
            "expected Livelocked after the halt, got {outcome:?}"
        );
    }
    let last = lines.last().expect("metrics stream is never empty");
    assert!(
        last.contains("\"final\":true"),
        "last line is not the final snapshot: {last}"
    );
    assert!(
        last.contains("\"stats\":"),
        "final line lacks the merged stats block: {last}"
    );
    // And the whole stream passes the schema validator — including the
    // exactly-one-final-line rule.
    let stream = lines.join("\n") + "\n";
    adbt::profile::metrics::validate_metrics_jsonl(&stream).expect("metrics stream validates");
}

// ---------------------------------------------------------------------------
// 5. Exact attribution on the aba_llsc litmus
// ---------------------------------------------------------------------------

/// Decodes the victim's instruction stream and returns the guest PCs of
/// its `ldrex` and `strex` (the litmus puts the attacker after the
/// victim, so scanning stops at the first match).
fn victim_ll_sc_pcs(source: &str) -> (u32, u32) {
    let img = assemble(source, IMAGE_BASE).unwrap();
    let victim = img.symbol("victim").expect("victim entry");
    let (mut ll, mut sc) = (None, None);
    let mut pc = victim;
    while ll.is_none() || sc.is_none() {
        let off = (pc - IMAGE_BASE) as usize;
        let word = u32::from_le_bytes(img.bytes[off..off + 4].try_into().unwrap());
        match decode(word).unwrap() {
            Insn::Ldrex { .. } if ll.is_none() => ll = Some(pc),
            Insn::Strex { .. } if sc.is_none() => sc = Some(pc),
            _ => {}
        }
        pc += INSN_SIZE;
    }
    (ll.unwrap(), sc.unwrap())
}

/// Runs the `aba_llsc` litmus in scheduled mode (one instruction per
/// atom) under `schedule`, returning the machine (for its profile) and
/// the report and scheduler (for its event stream).
fn scheduled_aba(
    kind: SchemeKind,
    source: &str,
    schedule: &[(usize, u64)],
) -> (Machine, RunReport, ScriptedScheduler) {
    let mut machine = MachineBuilder::new(kind)
        .memory(4 << 20)
        .max_block_insns(1)
        .profile(true)
        .build()
        .unwrap();
    machine.load_asm(source, IMAGE_BASE).unwrap();
    let victim = machine.symbol("victim").unwrap();
    let attacker = machine.symbol("attacker").unwrap();
    let vcpus = vec![Vcpu::new(1, victim), Vcpu::new(2, attacker)];
    let mut sched = ScriptedScheduler::from_segments(schedule);
    let report = machine.run_scheduled(vcpus, &mut sched, 100_000);
    (machine, report, sched)
}

#[test]
fn scheduled_aba_llsc_charges_exactly_one_sc_fail_at_the_victims_strex() {
    let source = Litmus::AbaLlsc.program().source;
    let (_ll_pc, strex_pc) = victim_ll_sc_pcs(&source);

    // Probe: run the victim alone to learn the atom index of its LL —
    // robust against pseudo-instruction expansion and scheme pause
    // points, because it observes the scheduler's own log.
    let (_, probe_report, probe) = scheduled_aba(SchemeKind::Hst, &source, &[(0, u64::MAX)]);
    assert!(probe_report.all_ok());
    let ll_atom = probe
        .events
        .iter()
        .find(|e| e.kind == TraceKind::LlIssue && e.tid == 1)
        .expect("victim issued an LL")
        .ts;

    // The attack: deschedule the victim right after its LL, let the
    // attacker drive x through the full 100 → 200 → 100 cycle, then
    // resume the victim for its single SC attempt.
    let schedule = [(0, ll_atom + 1), (1, u64::MAX)];

    // HST fails the SC — and the profiler must pin that failure to the
    // victim's strex, exactly once.
    let (machine, report, _) = scheduled_aba(SchemeKind::Hst, &source, &schedule);
    assert_eq!(
        format!("{:?}", report.outcomes),
        format!("{:?}", [VcpuOutcome::Exited(1), VcpuOutcome::Exited(0)]),
        "victim's SC should fail, attacker should finish"
    );
    assert_eq!(report.stats.sc_failures, 1);
    let merged = machine.core().profile.as_ref().unwrap().merged();
    assert_eq!(sc_failures(&merged), 1);
    let fail = merged.column("sc_failures").unwrap();
    let charged: Vec<_> = merged
        .entries
        .iter()
        .filter(|e| e.counts[fail] > 0)
        .collect();
    assert_eq!(charged.len(), 1, "one failing site: {merged:?}");
    assert_eq!(
        charged[0].pc, strex_pc,
        "sc_failures charged to {:#x}, strex is at {strex_pc:#x}",
        charged[0].pc
    );

    // PICO-CAS under the identical schedule: the value is back to 100,
    // so its SC *succeeds* — zero sc_failures anywhere. The profile showing
    // nothing at the strex is the paper's ABA bug, made visible by its
    // absence.
    let (machine, report, _) = scheduled_aba(SchemeKind::PicoCas, &source, &schedule);
    assert_eq!(
        format!("{:?}", report.outcomes),
        format!("{:?}", [VcpuOutcome::Exited(0), VcpuOutcome::Exited(0)]),
        "PICO-CAS's SC should succeed incorrectly (the ABA bug)"
    );
    let merged = machine.core().profile.as_ref().unwrap().merged();
    assert_eq!(sc_failures(&merged), 0);
}
