//! Concurrency correctness tests: every scheme must make a contended
//! LL/SC counter exact, keep SC mutual exclusion, and expose its
//! documented cost signature (instrumentation counts, faults, aborts).

use adbt_engine::{MachineConfig, MachineCore, SimCosts, VcpuOutcome};
use adbt_isa::asm::assemble;
use adbt_mmu::Width;
use adbt_schemes::SchemeKind;

const THREADS: u32 = 8;
const ITERS: u32 = 2_000;

fn counter_program(iters: u32) -> String {
    format!(
        r#"
        mov32 r5, counter
        mov32 r6, #{iters}
    outer:
    retry:
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        cmp   r2, #0
        bne   retry
        subs  r6, r6, #1
        bne   outer
        mov   r0, #0
        svc   #0
        .align 4096
    counter:
        .word 0
    "#
    )
}

fn run_counter(kind: SchemeKind, threads: u32) -> (MachineCore, adbt_engine::RunReport, u32) {
    let machine = MachineCore::new(
        MachineConfig {
            mem_size: 8 << 20,
            ..MachineConfig::default()
        },
        kind.build(),
    )
    .unwrap();
    let image = assemble(&counter_program(ITERS), 0x1000).unwrap();
    machine.load_image(&image);
    let report = machine.run_threaded(machine.make_vcpus(threads, 0x1000));
    let counter = image.symbol("counter").unwrap();
    let value = machine.space.load(counter, Width::Word).unwrap();
    (machine, report, value)
}

/// The LL/SC counter is exact under every scheme: increments are the
/// ABA-free case, so even PICO-CAS must be exact here.
///
/// PICO-HTM is the documented exception at high thread counts: the
/// paper reports it stops making progress beyond ~8 threads, and this
/// reproduction surfaces that as `Livelocked`. Completed threads must
/// still have been exact, so the counter equals the *completed* work.
#[test]
fn contended_counter_is_exact_under_every_scheme() {
    for kind in SchemeKind::ALL {
        let (_, report, value) = run_counter(kind, THREADS);
        if kind == SchemeKind::PicoHtm && !report.all_ok() {
            for outcome in &report.outcomes {
                assert!(
                    matches!(
                        outcome,
                        VcpuOutcome::Exited(0) | VcpuOutcome::Livelocked { .. }
                    ),
                    "{kind}: unexpected outcome {outcome:?}"
                );
            }
            // Committed increments are monotone and bounded; corruption
            // would overshoot.
            assert!(value <= THREADS * ITERS, "{kind}: counter overshot");
            continue;
        }
        assert!(report.all_ok(), "{kind}: outcomes {:?}", report.outcomes);
        assert_eq!(value, THREADS * ITERS, "{kind}: lost updates");
        if kind != SchemeKind::PicoHtm {
            // (PICO-HTM's `sc` counts attempts including commit-aborted
            // ones, which are neither successes nor `sc_failures`.)
            assert_eq!(
                report.stats.sc - report.stats.sc_failures,
                (THREADS * ITERS) as u64,
                "{kind}: successful SC count mismatch"
            );
        }
    }
}

/// PST-REMAP's SC borrows one alias page in the machine's 64-page high
/// window, so more vCPUs than the window has pages still count exactly.
#[test]
fn pst_remap_counts_exactly_past_64_vcpus() {
    let config = MachineConfig {
        mem_size: 8 << 20,
        ..MachineConfig::default()
    };
    let machine = MachineCore::new(config, SchemeKind::PstRemap.build()).unwrap();
    let image = assemble(&counter_program(20), 0x1000).unwrap();
    machine.load_image(&image);
    let report = machine.run_sim(machine.make_vcpus(65, 0x1000), &SimCosts::default());
    assert!(report.all_ok(), "outcomes {:?}", report.outcomes);
    let counter = image.symbol("counter").unwrap();
    assert_eq!(machine.space.load(counter, Width::Word), Ok(65 * 20));
}

/// Single-threaded runs must never fail an SC (no competition).
#[test]
fn single_thread_never_fails_sc() {
    for kind in SchemeKind::ALL {
        let (_, report, value) = run_counter(kind, 1);
        assert!(report.all_ok(), "{kind}");
        assert_eq!(value, ITERS, "{kind}");
        assert_eq!(report.stats.sc_failures, 0, "{kind}: spurious SC failures");
    }
}

/// Store-instrumenting schemes must show their signature costs.
#[test]
fn cost_signatures_match_design() {
    // HST: inline table sets for stores + LLs, zero helper calls per store.
    let (_, report, _) = run_counter(SchemeKind::Hst, 4);
    assert!(
        report.stats.htable_sets >= report.stats.ll,
        "HST sets on LL"
    );
    // SC goes through one helper each.
    assert!(report.stats.helper_calls >= report.stats.sc);

    // HST-WEAK: no store instrumentation beyond LL's entry claim.
    let (_, weak, _) = run_counter(SchemeKind::HstWeak, 4);
    assert_eq!(
        weak.stats.htable_sets, weak.stats.ll,
        "HST-WEAK must not instrument stores"
    );
    assert_eq!(
        weak.stats.exclusive_entries, 0,
        "HST-WEAK never stops the world"
    );

    // PICO-CAS: no helpers, no table, no exclusive sections.
    let (_, cas, _) = run_counter(SchemeKind::PicoCas, 4);
    assert_eq!(cas.stats.helper_calls, 0);
    assert_eq!(cas.stats.htable_sets, 0);
    assert_eq!(cas.stats.exclusive_entries, 0);

    // PICO-ST: every guest store is a helper call.
    let (_, st, _) = run_counter(SchemeKind::PicoSt, 4);
    assert!(st.stats.helper_calls >= st.stats.stores + st.stats.ll + st.stats.sc);

    // HST: SC runs stop-the-world.
    assert!(report.stats.exclusive_entries > 0, "HST SC is exclusive");

    // PST: mprotect traffic.
    let (_, pst, _) = run_counter(SchemeKind::Pst, 4);
    assert!(pst.stats.mprotect_calls > 0, "PST protects pages");
    assert!(pst.stats.mprotect_ns > 0);

    // PST-REMAP: remap traffic, no stop-the-world on the SC path.
    let (_, remap, _) = run_counter(SchemeKind::PstRemap, 4);
    assert!(remap.stats.remap_calls > 0, "PST-REMAP remaps pages");

    // HTM schemes: transactions happened.
    let (_, htm, _) = run_counter(SchemeKind::HstHtm, 4);
    assert!(htm.stats.htm_txns > 0);
    let (_, pico_htm, _) = run_counter(SchemeKind::PicoHtm, 4);
    assert!(pico_htm.stats.htm_txns > 0);
}

/// A mixed workload: plain stores to one page race with LL/SC on a
/// *different* page; every strong scheme must keep both exact, and PST
/// must observe false-sharing faults when the plain stores share the
/// synchronization variable's page.
#[test]
fn pst_false_sharing_is_detected_and_survivable() {
    // `noise` sits on the same 4 KiB page as `counter`.
    let program = r#"
        mov32 r5, counter
        mov32 r7, noise
        svc   #2            ; r0 = tid
        lsl   r0, r0, #2
        add   r7, r7, r0    ; per-thread noise slot, same page as counter
        mov   r6, #500
    outer:
        str   r6, [r7]      ; plain store to the protected page
    retry:
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        cmp   r2, #0
        bne   retry
        subs  r6, r6, #1
        bne   outer
        mov   r0, #0
        svc   #0
        .align 4096
    counter:
        .word 0
    noise:
        .space 256
    "#;
    for kind in [SchemeKind::Pst, SchemeKind::PstRemap] {
        let machine = MachineCore::new(
            MachineConfig {
                mem_size: 8 << 20,
                ..MachineConfig::default()
            },
            kind.build(),
        )
        .unwrap();
        let image = assemble(program, 0x1000).unwrap();
        machine.load_image(&image);
        let report = machine.run_threaded(machine.make_vcpus(4, 0x1000));
        assert!(report.all_ok(), "{kind}: {:?}", report.outcomes);
        let counter = image.symbol("counter").unwrap();
        assert_eq!(
            machine.space.load(counter, Width::Word).unwrap(),
            4 * 500,
            "{kind}"
        );
        // Pages must end the run fully unprotected (all monitors retired).
        let page = counter >> 12;
        assert_eq!(
            machine.space.perms(page),
            Some(adbt_mmu::Perms::RWX),
            "{kind}: page left protected"
        );
    }
}

/// Deterministic false-sharing check: in lockstep, thread 1 stores to the
/// protected page while thread 0 sits between LL and SC. The store must
/// fault, pass the protection (false sharing), and leave thread 0's
/// monitor intact so its SC succeeds.
#[test]
fn pst_false_sharing_fault_path_is_exact() {
    // Thread 0: LL counter, pause, SC. Thread 1: store to `noise` (same
    // page), then exit. Explicit schedule: t0 up to its LL (3 steps),
    // all of t1, then t0 finishes.
    let program = r#"
        mov32 r5, counter
        svc   #2            ; r0 = tid
        cmp   r0, #2
        beq   storer
        ; --- thread 0: the LL/SC pair ---
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        mov   r0, r2        ; exit with SC status (0 = success)
        svc   #0
    storer:
        mov   r6, #9
        str   r6, [r5, #64] ; same page as counter: false sharing
        mov   r0, #0
        svc   #0
        .align 4096
    counter:
        .word 0
        .space 128
    "#;
    for kind in [SchemeKind::Pst, SchemeKind::PstRemap] {
        let machine = MachineCore::new(
            MachineConfig {
                mem_size: 4 << 20,
                max_block_insns: 1,
                ..MachineConfig::default()
            },
            kind.build(),
        )
        .unwrap();
        let image = assemble(program, 0x1000).unwrap();
        machine.load_image(&image);
        // t0: movw,movt,svc,cmp,beq,ldrex = 6 steps; then t1 fully; then t0.
        let schedule: Vec<u32> = [0; 6].into_iter().chain([1; 16]).chain([0; 16]).collect();
        let report = machine.run_scheduled(
            machine.make_vcpus(2, 0x1000),
            &mut adbt_engine::RoundRobin::with_prefix(schedule),
            1_000_000,
        );
        assert_eq!(
            report.outcomes[0],
            VcpuOutcome::Exited(0),
            "{kind}: false sharing must not break the monitor"
        );
        assert_eq!(report.outcomes[1], VcpuOutcome::Exited(0), "{kind}");
        assert_eq!(
            report.stats.false_sharing_faults, 1,
            "{kind}: exactly one false-sharing fault expected"
        );
        let counter = image.symbol("counter").unwrap();
        assert_eq!(
            machine.space.load(counter, Width::Word).unwrap(),
            1,
            "{kind}"
        );
        assert_eq!(
            machine.space.load(counter + 64, Width::Word).unwrap(),
            9,
            "{kind}: the false-sharing store must land"
        );
    }
}

/// Deterministic true-conflict check: a store *to the monitored word*
/// between LL and SC must break the monitor and fail the SC.
#[test]
fn pst_true_conflict_breaks_the_monitor() {
    let program = r#"
        mov32 r5, counter
        svc   #2
        cmp   r0, #2
        beq   storer
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        mov   r0, r2        ; exit with SC status (1 = failed)
        svc   #0
    storer:
        mov   r6, #55
        str   r6, [r5]      ; store to the monitored word itself
        mov   r0, #0
        svc   #0
        .align 4096
    counter:
        .word 0
    "#;
    for kind in [SchemeKind::Pst, SchemeKind::PstRemap] {
        let machine = MachineCore::new(
            MachineConfig {
                mem_size: 4 << 20,
                max_block_insns: 1,
                ..MachineConfig::default()
            },
            kind.build(),
        )
        .unwrap();
        let image = assemble(program, 0x1000).unwrap();
        machine.load_image(&image);
        let schedule: Vec<u32> = [0; 6].into_iter().chain([1; 16]).chain([0; 16]).collect();
        let report = machine.run_scheduled(
            machine.make_vcpus(2, 0x1000),
            &mut adbt_engine::RoundRobin::with_prefix(schedule),
            1_000_000,
        );
        assert_eq!(
            report.outcomes[0],
            VcpuOutcome::Exited(1),
            "{kind}: conflicting store must fail the SC"
        );
        let counter = image.symbol("counter").unwrap();
        assert_eq!(
            machine.space.load(counter, Width::Word).unwrap(),
            55,
            "{kind}: the plain store wins; the SC must not have written"
        );
        assert_eq!(report.stats.false_sharing_faults, 0, "{kind}");
    }
}

/// Rounds each racer of [`pst_race_program`] runs.
const RACE_ROUNDS: u32 = 20_000;

/// Three vCPUs race on `word` while vCPU 1 holds an LL on `anchor`, 64
/// bytes further on the same page, so the page stays write-protected
/// and every store to `word` takes PST's fault handler.
/// vCPU 2 runs `writer`: `RACE_ROUNDS` stores that put the round number
/// in `word`'s high half. vCPU 3 increments `word` with an LL/SC loop
/// the fusion pass declines (the `nop`). An SC may only succeed on a
/// value read after the last store to its word, so the high half never
/// goes back; vCPU 1 watches it and exits 2 if it does, else with its
/// SC status once both racers are done.
fn pst_race_program(writer: &str) -> String {
    format!(
        r#"
        svc   #2            ; r0 = tid
        mov32 r5, word
        mov32 r7, flags
        mov32 r8, #{RACE_ROUNDS}
        cmp   r0, #2
        beq   writer
        cmp   r0, #3
        beq   adder
        add   r4, r5, #64
        ldrex r1, [r4]      ; anchor
        mov   r6, #0        ; highest round seen
        mov   r2, #1
        str   r2, [r7]      ; the LL is armed
    watch:
        ldr   r2, [r5]
        lsr   r2, r2, #16
        cmp   r2, r6
        bcc   lost        ; unsigned lower
        mov   r6, r2
        ldr   r2, [r7, #4]
        ldr   r3, [r7, #8]
        add   r2, r2, r3
        cmp   r2, #2
        bne   watch
        strex r0, r1, [r4]  ; exit 0 iff the monitor held throughout
        svc   #0
    lost:
        mov   r0, #2
        svc   #0
    writer:
        ldr   r3, [r7]
        cmp   r3, #0
        beq   writer
        {writer}
        mov   r2, #1
        str   r2, [r7, #4]
        mov   r0, #0
        svc   #0
    adder:
        ldr   r3, [r7]
        cmp   r3, #0
        beq   adder
    aloop:
        ldrex r1, [r5]
        add   r1, r1, #1
        nop
        strex r2, r1, [r5]
        cmp   r2, #0
        bne   aloop
        subs  r8, r8, #1
        bne   aloop
        mov   r2, #1
        str   r2, [r7, #8]
        mov   r0, #0
        svc   #0
        .align 4096
    word:
        .word 0
        .space 60
    anchor:
        .word 0
        .align 4096
    flags:
        .space 12
    "#
    )
}

/// PST's store-test on real threads: no store that meets a protected
/// page may be lost to an SC, whether the fault handler breaks the
/// SC's monitor (true conflict) or finds only vCPU 1's (false sharing)
/// and lets the store pass. Plain stores, and with `fuse_atomics` fused
/// adds of one round each, race the LL/SC increments; the lost-update
/// window is a store let through the protection but not yet landed
/// while an LL registers and reads the word, which no deterministic
/// schedule reaches.
#[test]
fn pst_stores_let_through_the_protection_are_never_lost() {
    let plain = "
        mov   r6, #0
    wloop:
        add   r6, r6, #1
        lsl   r1, r6, #16
        str   r1, [r5]
        subs  r8, r8, #1
        bne   wloop";
    let fused = "
        mov32 r9, #0x10000
    wloop:
        ldrex r1, [r5]
        add   r1, r1, r9
        strex r2, r1, [r5]
        cmp   r2, #0
        bne   wloop
        subs  r8, r8, #1
        bne   wloop";
    for kind in [SchemeKind::Pst, SchemeKind::PstRemap] {
        for (writer, fuse) in [(plain, false), (fused, true)] {
            let machine = MachineCore::new(
                MachineConfig {
                    mem_size: 4 << 20,
                    fuse_atomics: fuse,
                    ..MachineConfig::default()
                },
                kind.build(),
            )
            .unwrap();
            let image = assemble(&pst_race_program(writer), 0x1000).unwrap();
            machine.load_image(&image);
            let report = machine.run_threaded(machine.make_vcpus(3, 0x1000));
            let cell = format!("{kind}, fused writer {fuse}");
            assert_eq!(
                report.outcomes,
                vec![VcpuOutcome::Exited(0); 3],
                "{cell}: vCPU 1 exits 2 when a store was lost"
            );
            let word = machine
                .space
                .load(image.symbol("word").unwrap(), Width::Word)
                .unwrap();
            assert_eq!(word >> 16, RACE_ROUNDS, "{cell}");
            if fuse {
                assert_eq!(word & 0xffff, RACE_ROUNDS, "{cell}: lost increments");
                assert_eq!(report.stats.fused_rmws, u64::from(RACE_ROUNDS), "{cell}");
            }
            assert!(report.stats.false_sharing_faults > 0, "{cell}");
        }
    }
}

/// PICO-HTM's region transactions commit under light contention and the
/// run stays exact; aborts (if any) roll back cleanly.
#[test]
fn pico_htm_region_rollback_is_transparent() {
    let (_, report, value) = run_counter(SchemeKind::PicoHtm, 4);
    assert!(report.all_ok(), "{:?}", report.outcomes);
    assert_eq!(value, 4 * ITERS);
    // Every guest LL began a region.
    assert!(report.stats.htm_txns >= report.stats.ll);
}

/// Drain the machine through the lock-free *mutual exclusion* shape:
/// a spin mutex built on LL/SC protecting a non-atomic read-modify-write.
/// Any scheme that lets two SCs succeed on the same LL generation would
/// corrupt the protected counter.
#[test]
fn llsc_spin_mutex_protects_plain_rmw() {
    let program = r#"
        mov32 r5, lock
        mov32 r7, shared
        mov   r6, #1000
    outer:
    acquire:
        ldrex r1, [r5]
        cmp   r1, #0
        bne   acquire_wait
        mov   r1, #1
        strex r2, r1, [r5]
        cmp   r2, #0
        bne   acquire
        b     critical
    acquire_wait:
        yield
        b     acquire
    critical:
        dmb
        ldr   r1, [r7]      ; plain, non-atomic RMW under the lock
        add   r1, r1, #1
        str   r1, [r7]
        dmb
        mov   r1, #0
        str   r1, [r5]      ; release: plain store
        subs  r6, r6, #1
        bne   outer
        mov   r0, #0
        svc   #0
        .align 4096
    lock:
        .word 0
        .align 64
    shared:
        .word 0
    "#;
    // PICO-CAS included: a mutex is ABA-tolerant (0→1 transitions only).
    for kind in SchemeKind::ALL {
        // PICO-HTM's transaction spans acquire→…; the plain release store
        // is outside the region, so the mutex pattern is fine for it too.
        let machine = MachineCore::new(
            MachineConfig {
                mem_size: 8 << 20,
                ..MachineConfig::default()
            },
            kind.build(),
        )
        .unwrap();
        let image = assemble(program, 0x1000).unwrap();
        machine.load_image(&image);
        let report = machine.run_threaded(machine.make_vcpus(4, 0x1000));
        assert!(
            report.outcomes.iter().all(|o| o.is_success()),
            "{kind}: {:?}",
            report.outcomes
        );
        let shared = image.symbol("shared").unwrap();
        assert_eq!(
            machine.space.load(shared, Width::Word).unwrap(),
            4 * 1000,
            "{kind}: mutual exclusion violated"
        );
        // The lock must end released.
        let lock = image.symbol("lock").unwrap();
        assert_eq!(machine.space.load(lock, Width::Word).unwrap(), 0, "{kind}");
    }
}

/// Crash cleanliness: a guest that clobbers its monitor with clrex must
/// see the subsequent SC fail, under every scheme.
#[test]
fn clrex_clears_the_monitor_everywhere() {
    let program = r#"
        mov32 r5, cell
        ldrex r1, [r5]
        clrex
        add   r1, r1, #1
        strex r2, r1, [r5]
        mov   r0, r2        ; exit code = strex status: must be 1 (failed)
        svc   #0
        .align 4096
    cell:
        .word 7
    "#;
    for kind in SchemeKind::ALL {
        let machine = MachineCore::new(
            MachineConfig {
                mem_size: 4 << 20,
                ..MachineConfig::default()
            },
            kind.build(),
        )
        .unwrap();
        let image = assemble(program, 0x1000).unwrap();
        machine.load_image(&image);
        let report = machine.run_threaded(machine.make_vcpus(1, 0x1000));
        assert_eq!(
            report.outcomes[0],
            VcpuOutcome::Exited(1),
            "{kind}: SC after clrex must fail"
        );
        let cell = image.symbol("cell").unwrap();
        assert_eq!(
            machine.space.load(cell, Width::Word).unwrap(),
            7,
            "{kind}: SC after clrex must not write"
        );
    }
}
