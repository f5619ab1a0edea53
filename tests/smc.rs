//! The translation-cache lifecycle, end to end: SMC invalidation,
//! epoch-based reclamation, and bounded-memory operation.
//!
//! Three contracts are on trial:
//!
//! 1. **SMC is honored everywhere** — a guest store into its own (or
//!    another vCPU's) translated code, or into a hot chained loop,
//!    invalidates the stale translation on every scheme, and the
//!    retranslated code's semantics are observed deterministically.
//! 2. **Bounded memory** — under a `cache_limit` budget a
//!    translation-churn workload never exceeds the budget (asserted from
//!    the occupancy counters), keeps making progress (no `Livelocked`),
//!    and actually reclaims: retire → grace → free.
//! 3. **Scheduled-mode observability** — the checker substrate surfaces
//!    invalidations as `SchedEvent::Invalidate`, at the atom the patch
//!    landed, so schedules around SMC are explorable and replayable.

use adbt::engine::{MachineCore, SchedEvent, ScriptedScheduler};
use adbt::workloads::interleave::Litmus;
use adbt::workloads::IMAGE_BASE;
use adbt::{Machine, MachineBuilder, SchemeKind, Vcpu, VcpuOutcome};

/// Builds a machine for a litmus-style two-entry program.
fn build(kind: SchemeKind, source: &str) -> Machine {
    let mut machine = MachineBuilder::new(kind).memory(1 << 20).build().unwrap();
    machine.load_asm(source, IMAGE_BASE).unwrap();
    machine
}

/// vCPUs for a [`Litmus`]-shaped program: one per entry symbol.
fn litmus_vcpus(machine: &Machine, entries: &[&str]) -> Vec<Vcpu> {
    entries
        .iter()
        .enumerate()
        .map(|(i, sym)| Vcpu::new(i as u32 + 1, machine.symbol(sym).unwrap()))
        .collect()
}

fn exit_code(outcome: &VcpuOutcome) -> i32 {
    match outcome {
        VcpuOutcome::Exited(code) => *code,
        other => panic!("expected a clean exit, got {other:?}"),
    }
}

/// Store-to-own-code on all eight schemes: the patched instruction must
/// be observed on the very next loop pass (exit 8), and the store must
/// be accounted as an invalidation.
#[test]
fn smc_self_patch_lands_on_all_schemes() {
    let program = Litmus::SmcSelf.program();
    for kind in SchemeKind::ALL {
        let machine = build(kind, &program.source);
        let vcpus = litmus_vcpus(&machine, &["patcher", "bystander"]);
        let report = machine.run_vcpus(vcpus);
        assert_eq!(
            exit_code(&report.outcomes[0]),
            8,
            "{kind}: stale translation survived the self-patch"
        );
        assert_eq!(exit_code(&report.outcomes[1]), 0, "{kind}");
        assert!(
            report.stats.invalidations >= 1,
            "{kind}: the SMC store was not accounted as an invalidation"
        );
        let occ = machine.core().cache_occupancy();
        assert!(
            occ.retired_blocks >= 1,
            "{kind}: invalidation retired nothing"
        );
    }
}

/// Cross-vCPU code patch on all eight schemes, real threads: the
/// victim's bounded loop terminates whether the patch lands early, late,
/// or never, and its exit counts the post-patch iterations (0..=6).
#[test]
fn smc_cross_patch_terminates_on_all_schemes() {
    let program = Litmus::SmcCross.program();
    for kind in SchemeKind::ALL {
        let machine = build(kind, &program.source);
        let vcpus = litmus_vcpus(&machine, &["victim", "patcher"]);
        let report = machine.run_vcpus(vcpus);
        let victim = exit_code(&report.outcomes[0]);
        assert!(victim <= 6, "{kind}: impossible exit {victim}");
        assert_eq!(exit_code(&report.outcomes[1]), 0, "{kind}");
    }
}

/// A patch inside a hot loop: 120 iterations of a two-block loop whose
/// blocks chain to each other, with the latch patched (`+1` → `+3`) when
/// 60 iterations remain. Block-granular arithmetic: 60 pre-patch passes
/// add 1, the patching pass still runs its already-translated stale
/// latch (+1), and the 59 remaining passes run the retranslated latch
/// (+3 each) — exit 60 + 1 + 177 = 238. A chain link left pointing at
/// the stale latch would keep adding 1 and exit below 238.
const HOT_PATCH: &str = r#"
    hot:
        mov   r0, #0
        mov   r3, #120
        mov32 r5, hpatch
        mov32 r6, hdonor
    hloop:
        add   r1, r1, #1
        cmp   r3, #60
        bne   hskip
        ldr   r2, [r6]
        str   r2, [r5]          ; SMC: patch the latch mid-loop
    hskip:
    hpatch:
        add   r0, r0, #1        ; patched to: add r0, r0, #3
        subs  r3, r3, #1
        bne   hloop
        svc   #0

    hdonor:
        add   r0, r0, #3
"#;

#[test]
fn smc_inside_a_hot_loop_lands_on_all_schemes() {
    for kind in SchemeKind::ALL {
        let machine = build(kind, HOT_PATCH);
        let vcpus = vec![Vcpu::new(1, machine.symbol("hot").unwrap())];
        let report = machine.run_vcpus(vcpus);
        assert_eq!(
            exit_code(&report.outcomes[0]),
            238,
            "{kind}: block-granular SMC arithmetic broke"
        );
        assert!(
            report.stats.invalidations >= 1,
            "{kind}: the mid-loop patch was not accounted as an invalidation"
        );
    }
}

/// A translation-churn program: `blocks` two-instruction blocks run
/// end to end `passes` times. With more blocks than one arena segment
/// holds, a segment-sized `cache_limit` forces flush → retire → grace →
/// reclaim on every pass.
fn churn_program(blocks: u32, passes: u32) -> String {
    let mut s = format!("    mov   r4, #{passes}\nouter:\n");
    for i in 0..blocks {
        s.push_str(&format!(
            "c{i}:\n    add   r0, r0, #1\n    b     c{}\n",
            i + 1
        ));
    }
    s.push_str(&format!(
        "c{blocks}:\n    subs  r4, r4, #1\n    bne   outer\n    mov   r0, #0\n    svc   #0\n"
    ));
    s
}

/// Bounded-memory churn: two vCPUs race through 1500 distinct blocks —
/// more than a segment-sized budget can hold — three times over. The
/// occupancy counters must show the budget was never exceeded (hard
/// bound, live + limbo), that generational flushes and epoch
/// reclamation actually ran, and every vCPU must finish cleanly (the
/// armed watchdog converts a livelock into a failing outcome).
#[test]
fn cache_limit_is_a_hard_bound_under_churn() {
    let limit = MachineCore::MIN_CACHE_LIMIT;
    let mut machine = MachineBuilder::new(SchemeKind::Hst)
        .memory(1 << 20)
        .cache_limit(limit)
        .watchdog_ms(30_000)
        .build()
        .unwrap();
    machine
        .load_asm(&churn_program(1500, 3), IMAGE_BASE)
        .unwrap();
    let report = machine.run(2, IMAGE_BASE);
    for outcome in &report.outcomes {
        assert_eq!(
            exit_code(outcome),
            0,
            "churn under cache_limit must keep making progress"
        );
    }
    let occ = machine.core().cache_occupancy();
    assert!(
        occ.peak_bytes <= limit,
        "cache budget exceeded: peak {} > limit {limit}",
        occ.peak_bytes
    );
    assert!(occ.arena_bytes <= limit);
    assert!(occ.flushes >= 1, "no generational flush under pressure");
    assert!(occ.retired_blocks >= 1);
    assert!(
        occ.reclaimed_blocks >= 1,
        "epoch reclamation never freed a retired block"
    );
    assert!(
        occ.reclaimed_segments >= 1,
        "no arena segment was ever returned"
    );
    // The merge discipline extends to the lifecycle counters.
    let violations = report.stats.invariant_violations(&report.per_cpu);
    assert!(violations.is_empty(), "{violations:?}");
}

/// The same churn on the deterministic driver at instruction
/// granularity: every dispatch of a fresh instruction translates, so
/// the pressure loop must flush, quiesce and reclaim on the driver's one
/// thread. The driver shares one QSBR slot among its vCPUs and quiesces
/// through it whenever no cursor is paused — including inside the
/// pressure loop, which otherwise waits forever on its own grace period.
#[test]
fn scheduled_churn_under_cache_limit_reclaims_instead_of_livelocking() {
    let limit = MachineCore::MIN_CACHE_LIMIT;
    let mut machine = MachineBuilder::new(SchemeKind::Hst)
        .memory(1 << 20)
        .max_block_insns(1)
        .cache_limit(limit)
        .build()
        .unwrap();
    machine
        .load_asm(&churn_program(1500, 3), IMAGE_BASE)
        .unwrap();
    let vcpus = machine.make_vcpus(2, IMAGE_BASE);
    let report = machine.run_scheduled(vcpus, &mut ScriptedScheduler::new(), 200_000);
    for outcome in &report.outcomes {
        assert_eq!(*outcome, VcpuOutcome::Exited(0));
    }
    let occ = machine.core().cache_occupancy();
    assert!(occ.peak_bytes <= limit);
    assert!(occ.flushes >= 1, "no generational flush under pressure");
    assert!(occ.reclaimed_segments >= 1, "no arena segment was returned");
    assert_eq!(report.stats.reclaimed_blocks, occ.reclaimed_blocks);
}

/// An unlimited cache never flushes and never frees a segment — the
/// lifecycle machinery stays entirely out of the way by default.
#[test]
fn no_limit_means_no_lifecycle_activity() {
    let mut machine = MachineBuilder::new(SchemeKind::Hst)
        .memory(1 << 20)
        .build()
        .unwrap();
    machine
        .load_asm(&churn_program(200, 2), IMAGE_BASE)
        .unwrap();
    let report = machine.run(1, IMAGE_BASE);
    assert_eq!(exit_code(&report.outcomes[0]), 0);
    let occ = machine.core().cache_occupancy();
    assert_eq!(occ.flushes, 0);
    assert_eq!(occ.invalidations, 0);
    assert_eq!(occ.reclaimed_segments, 0);
    assert_eq!(
        occ.live_blocks as u32,
        machine.core().cached_blocks() as u32
    );
}

/// Reloading an image over code the machine already ran retires the old
/// translations: each new program's exit code is observed, on every
/// scheme and under both drivers, and the retired blocks are freed at
/// once (no vCPU runs during a load, so no grace period is pending).
#[test]
fn reloading_an_image_runs_the_new_program() {
    for kind in SchemeKind::ALL {
        for sim in [false, true] {
            let mut machine = MachineBuilder::new(kind).memory(1 << 20).build().unwrap();
            for code in 1..=3 {
                machine
                    .load_asm(&format!("mov r0, #{code}\nsvc #0\n"), IMAGE_BASE)
                    .unwrap();
                let report = if sim {
                    machine.run_sim(1, IMAGE_BASE)
                } else {
                    machine.run_vcpus(machine.make_vcpus(1, IMAGE_BASE))
                };
                assert_eq!(
                    exit_code(&report.outcomes[0]),
                    code,
                    "{kind:?}, sim {sim}: load {code} ran stale code"
                );
            }
            let occ = machine.core().cache_occupancy();
            assert_eq!(
                (occ.invalidations, occ.retired_blocks, occ.reclaimed_blocks),
                (2, 2, 2),
                "{kind:?}, sim {sim}"
            );
            assert_eq!(occ.live_blocks, 1, "{kind:?}, sim {sim}");
        }
    }
}

/// Scheduled mode, victim-first: the victim translates its loop before
/// the patcher's store, so the store must fault, retire the victim's
/// blocks, and surface as a `SchedEvent::Invalidate` at the patch atom.
/// The schedule is scripted, so the exit code is exact: two stale
/// iterations before the patch, four patched after it.
#[test]
fn scheduled_smc_cross_surfaces_the_invalidate_event() {
    let program = Litmus::SmcCross.program();
    let mut machine = MachineBuilder::new(SchemeKind::Hst)
        .memory(1 << 20)
        .max_block_insns(1)
        .build()
        .unwrap();
    machine.load_asm(&program.source, IMAGE_BASE).unwrap();
    let vpatch = machine.symbol("vpatch").unwrap();
    let vcpus = litmus_vcpus(&machine, &["victim", "patcher"]);
    // 8 atoms of victim: `mov r0`, `mov r3`, then two full iterations of
    // the stale `+0` loop; then the patcher runs to completion.
    let mut sched = ScriptedScheduler::parse("0x8,1").unwrap();
    let report = machine.run_scheduled(vcpus, &mut sched, 20_000);
    assert_eq!(
        exit_code(&report.outcomes[0]),
        4,
        "two stale (+0) iterations, then four patched (+1) ones"
    );
    assert_eq!(exit_code(&report.outcomes[1]), 0);
    let invalidate = sched
        .events
        .iter()
        .find(|(_, e)| matches!(e, SchedEvent::Invalidate { .. }));
    let Some(&(_, SchedEvent::Invalidate { tid, addr })) = invalidate else {
        panic!("the patcher's store over translated code emitted no Invalidate event");
    };
    assert_eq!(tid, 2, "the patcher (tid 2) triggers the invalidation");
    assert_eq!(addr, vpatch, "the event carries the patched address");
}

/// Scheduled mode, patcher-first: the patch lands before the victim
/// translates anything, so every victim iteration runs patched code
/// (exit 6) and no translation needs invalidating — the store settles as
/// code/data false sharing on the shared code page at most.
#[test]
fn scheduled_patcher_first_patches_before_translation() {
    let program = Litmus::SmcCross.program();
    let mut machine = MachineBuilder::new(SchemeKind::Hst)
        .memory(1 << 20)
        .max_block_insns(1)
        .build()
        .unwrap();
    machine.load_asm(&program.source, IMAGE_BASE).unwrap();
    let vcpus = litmus_vcpus(&machine, &["victim", "patcher"]);
    let mut sched = ScriptedScheduler::parse("1x16,0").unwrap();
    let report = machine.run_scheduled(vcpus, &mut sched, 20_000);
    assert_eq!(
        exit_code(&report.outcomes[0]),
        6,
        "a patch landing before translation must be observed by every iteration"
    );
    assert_eq!(exit_code(&report.outcomes[1]), 0);
}
