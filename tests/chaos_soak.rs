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
//! 3. **Graceful degradation** — a threaded PICO-HTM region that can
//!    never commit takes the held stop-the-world window after 32 aborts
//!    and completes, also when the translation cache must flush inside
//!    the window (the `held_window_*` tests).

use adbt::engine::MachineCore;
use adbt::harness::{run_stack_with, StackRun};
use adbt::workloads::stack::StackConfig;
use adbt::workloads::IMAGE_BASE;
use adbt::{ChaosCfg, MachineBuilder, MachineConfig, RunReport, SchemeKind, SimCosts, VcpuOutcome};

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

/// Threaded soak with the watchdog armed: real OS threads, injected
/// aborts, and the degradation ladder's held window. Must terminate (the
/// watchdog converts any hang into `Livelocked`) and must not corrupt.
#[test]
fn threaded_soak_with_watchdog_terminates_cleanly() {
    for kind in [SchemeKind::Hst, SchemeKind::PicoHtm] {
        let config = MachineConfig {
            chaos: Some(ChaosCfg::new(SEED, RATE)),
            watchdog_ms: 5_000,
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

/// A PICO-HTM region that can never commit: `ldrex`, then `stores` word
/// stores into this vCPU's own buffer, then `strex`. Past the 512-word
/// HTM write set every attempt aborts on capacity. `unrolled` writes the
/// stores as straight-line code (about 110 blocks and 177 KB of
/// translations for 1 200 of them) instead of a loop.
fn capacity_storm(stores: u32, unrolled: bool) -> String {
    let body = if unrolled {
        "    str   r1, [r7]\n    add   r7, r7, #4\n".repeat(stores as usize)
    } else {
        format!(
            "    mov32 r6, #{stores}\n\
             fill:\n\
             \x20   str   r1, [r7]\n\
             \x20   add   r7, r7, #4\n\
             \x20   subs  r6, r6, #1\n\
             \x20   bne   fill\n"
        )
    };
    format!(
        "    mov32 r5, flag\n\
         \x20   mov32 r4, buf\n\
         \x20   add   r4, r4, r0, lsl #13\n\
         retry:\n\
         \x20   ldrex r1, [r5]\n\
         \x20   mov   r7, r4\n\
         {body}\
         \x20   add   r1, r1, #1\n\
         \x20   strex r2, r1, [r5]\n\
         \x20   cmp   r2, #0\n\
         \x20   bne   retry\n\
         \x20   mov   r0, #0\n\
         \x20   svc   #0\n\
         \x20   .align 4096\n\
         flag:\n\
         \x20   .word 0\n\
         \x20   .align 4096\n\
         buf:\n\
         \x20   .word 0\n"
    )
}

/// Runs `source` under PICO-HTM on `vcpus` real threads with the
/// watchdog armed, which arms the degradation ladder's held window.
fn run_region_storm(source: &str, vcpus: u32, cache_limit: u64) -> RunReport {
    let config = MachineConfig {
        watchdog_ms: 30_000,
        cache_limit,
        ..MachineConfig::default()
    };
    let mut machine = MachineBuilder::new(SchemeKind::PicoHtm)
        .config(config)
        .build()
        .unwrap();
    machine.load_asm(source, IMAGE_BASE).unwrap();
    let vcpus = machine.make_vcpus(vcpus, IMAGE_BASE);
    machine.run_vcpus(vcpus)
}

/// Capacity storm: no attempt can commit, so each vCPU aborts exactly
/// 32 times and then runs the region once under the held window, which
/// opens no transaction. Without the window the regions back off to the
/// `Livelocked` verdict after 16 385 aborts each.
#[test]
fn held_window_completes_a_capacity_storm() {
    let source = capacity_storm(600, false);
    for vcpus in [1, 4] {
        let report = run_region_storm(&source, vcpus, 0);
        let stats = &report.stats;
        assert!(report.all_ok(), "{vcpus} vCPUs: {:?}", report.outcomes);
        assert_eq!(stats.degradations, u64::from(vcpus), "{vcpus} vCPUs");
        assert_eq!(stats.htm_aborts, 32 * u64::from(vcpus), "{vcpus} vCPUs");
    }
}

/// Cache pressure inside the window: the unrolled region's translations
/// overflow the smallest cache budget, so each window's holder flushes
/// the cache while it keeps the machine stopped. The flush passes
/// through the held window instead of waiting on it, and its grace
/// period elapses because every peer parked at a hop safepoint holds no
/// block and counts as quiescent.
#[test]
fn held_window_completes_under_cache_pressure() {
    let source = capacity_storm(1_200, true);
    for vcpus in [1, 2, 4] {
        let report = run_region_storm(&source, vcpus, MachineCore::MIN_CACHE_LIMIT);
        assert!(report.all_ok(), "{vcpus} vCPUs: {:?}", report.outcomes);
        assert_eq!(report.stats.degradations, u64::from(vcpus), "{vcpus} vCPUs");
        assert!(
            report.stats.flushes >= 1,
            "{vcpus} vCPUs: the cache never flushed"
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
