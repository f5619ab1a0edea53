//! Chaos soak: the ABA stack workload under deterministic fault
//! injection.
//!
//! Three properties are on trial:
//!
//! 1. **Replay** — the chaos layer is seed-deterministic: two runs with
//!    the same seed, rate, scheme, and workload produce identical
//!    verdicts, fault sequences, and simulated makespans.
//! 2. **Linearizability under injection** — every correct scheme keeps
//!    the stack structurally intact while spurious SC failures, monitor
//!    clears, HTM commit aborts, and lock/mprotect stalls rain down at
//!    rate ≥ 0.05. Livelock is an acceptable *clean* outcome; hangs,
//!    panics, and silent corruption are not.
//! 3. **Graceful degradation** — threaded HTM runs with an abort budget
//!    fall back to the stop-the-world path and still complete.

use adbt::harness::{run_stack_with, StackRun};
use adbt::workloads::stack::StackConfig;
use adbt::{ChaosCfg, MachineConfig, SchemeKind, SimCosts, VcpuOutcome};

/// Seed pinned so failures reproduce byte-for-byte; rate at the floor
/// the robustness contract names (≥ 0.05).
const SEED: u64 = 0xADB7_C405;
const RATE: f64 = 0.05;

/// Small per-thread op counts keep the whole file fast in debug builds;
/// at rate 0.05 even 300 ops × 8 threads rolls the dice thousands of
/// times per scheme (every LL, SC, store helper, and lock acquisition).
fn stack_config(ops_per_thread: u32) -> StackConfig {
    StackConfig {
        nodes: 8,
        ops_per_thread,
        stall: 0,
        victim_stall: 0,
    }
}

fn chaos_config(seed: u64) -> MachineConfig {
    MachineConfig {
        chaos: Some(ChaosCfg::new(seed, RATE)),
        ..MachineConfig::default()
    }
}

/// Clean termination: every vCPU either exited 0 or was called out as
/// livelocked — nothing hung, nothing trapped, nothing panicked.
fn assert_clean_outcomes(kind: SchemeKind, run: &StackRun) {
    for outcome in &run.report.outcomes {
        assert!(
            matches!(
                outcome,
                VcpuOutcome::Exited(0) | VcpuOutcome::Livelocked { .. }
            ),
            "{kind}: unclean outcome {outcome:?}"
        );
    }
}

/// Counter invariants that hold on *every* run, chaos or not: failure
/// and subset counters never exceed the counter they refine, and every
/// merged total is exactly the per-vCPU sum. An HTM degradation that
/// once decremented `sc` broke the first of them.
fn assert_counter_invariants(kind: SchemeKind, run: &StackRun) {
    let violations = run.report.stats.invariant_violations(&run.report.per_cpu);
    assert!(violations.is_empty(), "{kind}: {violations:?}");
}

/// Structural corruption beyond what livelocked (mid-operation) vCPUs
/// legitimately account for — same witness as `tests/aba_stack.rs`.
fn structurally_corrupted(run: &StackRun) -> bool {
    let livelocked = run
        .report
        .outcomes
        .iter()
        .filter(|o| matches!(o, VcpuOutcome::Livelocked { .. }))
        .count() as u32;
    run.verdict.self_loops > 0
        || run.verdict.cycle
        || run.verdict.wild_pointer
        || run.verdict.lost > livelocked
}

/// Replay determinism (satellite 4): identical seed + workload ⇒
/// identical fault sequence, counters, verdict, and virtual makespan.
#[test]
fn identical_seed_replays_identically() {
    let run = || {
        run_stack_with(
            SchemeKind::HstHtm,
            4,
            stack_config(500),
            chaos_config(SEED),
            Some(SimCosts::default()),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert!(
        a.report.stats.injected_faults > 0,
        "chaos at rate {RATE} injected nothing — the soak is vacuous"
    );
    assert_eq!(
        a.report.stats.injected_faults,
        b.report.stats.injected_faults
    );
    assert_eq!(a.report.stats.sc_failures, b.report.stats.sc_failures);
    assert_eq!(a.report.stats.degradations, b.report.stats.degradations);
    assert_eq!(a.report.stats.insns, b.report.stats.insns);
    assert_eq!(a.report.stats.sim_time, b.report.stats.sim_time);
    assert_eq!(
        a.report.chaos, b.report.chaos,
        "per-site fault counts diverged"
    );
    assert_eq!(a.verdict, b.verdict);
}

/// The full soak: all eight schemes on the simulated multicore under
/// rate-0.05 injection. Correct schemes must stay linearizable (or
/// livelock *cleanly*); PICO-CAS is exempt from the structural assert —
/// it corrupts by design, chaos or no chaos.
#[test]
fn all_schemes_survive_injection_or_fail_cleanly() {
    for kind in SchemeKind::ALL {
        let run = run_stack_with(
            kind,
            8,
            stack_config(300),
            chaos_config(SEED),
            Some(SimCosts::default()),
        )
        .unwrap();
        assert_clean_outcomes(kind, &run);
        assert_counter_invariants(kind, &run);
        assert!(
            run.report.stats.injected_faults > 0,
            "{kind}: no faults injected — soak is vacuous"
        );
        if kind != SchemeKind::PicoCas {
            assert!(
                !structurally_corrupted(&run),
                "{kind}: corrupted under injection — {:?}",
                run.verdict
            );
        }
    }
}

/// Threaded soak with the watchdog armed and an HTM degradation budget:
/// real OS threads, injected aborts, and the stop-the-world fallback.
/// Must terminate (the watchdog converts any hang into `Livelocked`)
/// and must not corrupt.
#[test]
fn threaded_soak_with_watchdog_terminates_cleanly() {
    for kind in [SchemeKind::Hst, SchemeKind::PicoHtm] {
        let config = MachineConfig {
            chaos: Some(ChaosCfg::new(SEED, RATE)),
            watchdog_ms: 5_000,
            htm_degrade_after: 4,
            // Aggressive tiering under injection: superblocks must deopt
            // and degrade like any other translated code.
            tier_threshold: 16,
            superblock_limit: 8,
            ..MachineConfig::default()
        };
        let run = run_stack_with(kind, 4, stack_config(1_000), config, None).unwrap();
        assert_clean_outcomes(kind, &run);
        assert_counter_invariants(kind, &run);
        assert!(
            !structurally_corrupted(&run),
            "{kind}: corrupted under threaded injection — {:?}",
            run.verdict
        );
    }
}

/// SC-storm regression: threaded HST under *heavy* injection with the
/// watchdog OFF must still terminate on its own. Stop-the-world SC
/// schemes can rotate forever here (every granted requester finds its
/// claim clobbered by a competitor's retry re-arm); the engine's
/// degradation ladder — backoff, then a held stop-the-world SC window —
/// is what guarantees progress, and this test is what notices if it
/// stops doing so.
#[test]
fn threaded_sc_storm_terminates_without_watchdog() {
    let config = MachineConfig {
        chaos: Some(ChaosCfg::new(SEED, 0.25)),
        // Storm-rate injection with tiering on: promoted code must not
        // interfere with the degradation ladder's progress guarantee.
        tier_threshold: 16,
        superblock_limit: 8,
        ..MachineConfig::default()
    };
    let run = run_stack_with(SchemeKind::Hst, 4, stack_config(150), config, None).unwrap();
    assert_clean_outcomes(SchemeKind::Hst, &run);
    assert_counter_invariants(SchemeKind::Hst, &run);
    assert!(
        !structurally_corrupted(&run),
        "hst: corrupted under storm-rate injection — {:?}",
        run.verdict
    );
}

/// Invalidation storm: the separately-rated `ChaosSite::Invalidate`
/// channel retires the executing vCPU's translations at dispatch
/// boundaries, so every scheme continuously retranslates while the base
/// chaos rate injects its usual SC failures, aborts, and stalls. The
/// run must terminate cleanly on all eight schemes (the armed watchdog
/// converts a lifecycle livelock into a failing outcome), must actually
/// invalidate, and must not corrupt the stack.
#[test]
fn invalidation_storm_soak_terminates_cleanly() {
    for kind in SchemeKind::ALL {
        let config = MachineConfig {
            chaos: Some(ChaosCfg::new(SEED, RATE).with_invalidate(0.05)),
            watchdog_ms: 10_000,
            // Tiering on: storm invalidations must also demote live
            // superblocks without stranding a vCPU.
            tier_threshold: 16,
            superblock_limit: 8,
            ..MachineConfig::default()
        };
        let run = run_stack_with(kind, 4, stack_config(300), config, None).unwrap();
        assert_clean_outcomes(kind, &run);
        assert_counter_invariants(kind, &run);
        assert!(
            run.report.stats.invalidations > 0,
            "{kind}: a 5% storm rate invalidated nothing — the soak is vacuous"
        );
        if kind != SchemeKind::PicoCas {
            assert!(
                !structurally_corrupted(&run),
                "{kind}: corrupted under invalidation storm — {:?}",
                run.verdict
            );
        }
    }
}

/// Chaos off is really off: the default config reports no chaos
/// snapshot and zero injected faults — the hot path ran injection-free.
#[test]
fn chaos_absent_by_default() {
    let run = run_stack_with(
        SchemeKind::Hst,
        4,
        stack_config(500),
        MachineConfig::default(),
        Some(SimCosts::default()),
    )
    .unwrap();
    assert!(run.report.chaos.is_none());
    assert_eq!(run.report.stats.injected_faults, 0);
    assert_eq!(run.report.stats.degradations, 0);
}
