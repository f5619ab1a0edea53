//! Tiered translation is an *optimization*: under every scheme, a
//! program's guest-visible result — final memory, exit codes, and the
//! deterministic instruction profile — is identical with tiering off and
//! on. These tests also pin the gating rules (single-instruction
//! machines never tier; bad limits are rejected at build time) and soak
//! the deopt path under chaos injection.

use adbt::harness::{run_parsec_with, run_stack_with, StackRun};
use adbt::workloads::parsec::Program;
use adbt::workloads::stack::StackConfig;
use adbt::{ChaosCfg, Machine, MachineBuilder, MachineConfig, SchemeKind, VcpuOutcome};

const THREADS: u32 = 4;
const ITERS: u32 = 300;

/// The contended LL/SC counter loop every scheme must emulate correctly;
/// hot enough (ITERS iterations per thread) to cross small promotion
/// thresholds many times over.
fn counter_program(iters: u32) -> String {
    format!(
        "    mov32 r5, counter\n\
         \x20   mov32 r6, #{iters}\n\
         loop:\n\
         retry:\n\
         \x20   ldrex r1, [r5]\n\
         \x20   add   r1, r1, #1\n\
         \x20   strex r2, r1, [r5]\n\
         \x20   cmp   r2, #0\n\
         \x20   bne   retry\n\
         \x20   subs  r6, r6, #1\n\
         \x20   bne   loop\n\
         \x20   mov   r0, #0\n\
         \x20   svc   #0\n\
         \x20   .align 4096\n\
         counter:\n\
         \x20   .word 0\n"
    )
}

fn build(kind: SchemeKind, tier_threshold: u32, source: &str) -> Machine {
    let mut machine = MachineBuilder::new(kind)
        .memory(4 << 20)
        .tier_threshold(tier_threshold)
        .superblock_limit(8)
        .build()
        .unwrap();
    machine.load_asm(source, 0x1_0000).unwrap();
    machine
}

/// Differential equivalence on the contended counter, all eight schemes:
/// same final memory tiered and untiered, and — single-threaded, where
/// every counter is deterministic — an identical instruction profile.
#[test]
fn tiered_matches_untiered_on_all_schemes() {
    let program = counter_program(ITERS);
    for kind in SchemeKind::ALL {
        // Contended: final memory must match exactly.
        for threshold in [0, 16] {
            let machine = build(kind, threshold, &program);
            let report = machine.run(THREADS, 0x1_0000);
            assert!(
                report.all_ok(),
                "{kind} tier={threshold}: {:?}",
                report.outcomes
            );
            let counter = machine.symbol("counter").unwrap();
            assert_eq!(
                machine.read_word(counter).unwrap(),
                THREADS * ITERS,
                "{kind} tier={threshold}: lost increments"
            );
        }

        // Single-threaded: the whole profile is deterministic, so the
        // tiers must charge identical counters. (txn_dispatches is
        // intentionally excluded everywhere: open-transaction dispatches
        // stay block-granular by design, so their count is a tier
        // artifact, not a guest property.) Threshold 2 because heat
        // counts *lookup* dispatches — chain-budget restarts, roughly one
        // per 64 hops — so a short single-threaded run needs a low bar
        // for promotion to actually occur.
        let profile = |threshold: u32| {
            let machine = build(kind, threshold, &program);
            let report = machine.run(1, 0x1_0000);
            assert!(
                report.all_ok(),
                "{kind} tier={threshold}: {:?}",
                report.outcomes
            );
            let s = report.stats;
            (
                s.insns,
                s.blocks,
                s.loads,
                s.stores,
                s.ll,
                s.sc,
                s.sc_failures,
            )
        };
        assert_eq!(
            profile(0),
            profile(2),
            "{kind}: tiering changed the deterministic instruction profile"
        );
    }
}

/// Promotion actually happens on hot loops, and the tier counters are
/// consistent: tiered blocks/insns are a subset of the totals, and every
/// promotion published exactly one live superblock.
#[test]
fn hot_loops_promote_and_tier_counters_are_consistent() {
    // The loop is written to give every pass something to eliminate:
    // `movs` flags are dead (the later `subs` overwrites them unread),
    // `mov`+`add` on constants folds, and under HST the `ldrex` after a
    // plain store to the same address re-marks an already-marked hash
    // entry (LL-origin — coalescable).
    let program = "    mov32 r5, counter\n\
                   \x20   mov32 r6, #2000\n\
                   loop:\n\
                   \x20   mov   r2, #5\n\
                   \x20   add   r2, r2, #3\n\
                   \x20   ldr   r3, [r5]\n\
                   \x20   add   r3, r3, #1\n\
                   \x20   str   r3, [r5]\n\
                   \x20   ldrex r4, [r5]\n\
                   \x20   strex r7, r4, [r5]\n\
                   \x20   movs  r1, r6\n\
                   \x20   subs  r6, r6, #1\n\
                   \x20   bne   loop\n\
                   \x20   mov   r0, #0\n\
                   \x20   svc   #0\n\
                   \x20   .align 4096\n\
                   counter:\n\
                   \x20   .word 0\n";
    let machine = build(SchemeKind::Hst, 16, program);
    let report = machine.run(1, 0x1_0000);
    assert!(report.all_ok(), "{:?}", report.outcomes);
    let counter = machine.symbol("counter").unwrap();
    assert_eq!(machine.read_word(counter).unwrap(), 2_000);
    let s = &report.stats;
    assert!(
        s.promotions > 0,
        "2000 iterations over threshold 16 must promote"
    );
    assert!(s.tier_blocks > 0, "promoted code must actually run");
    assert!(s.tier_insns > 0);
    // Tier counts are subsets of the totals; a deopt implies a
    // superblock entry.
    let violations = s.invariant_violations(&report.per_cpu);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(
        s.promotions,
        machine.core().superblocks(),
        "every promotion publishes exactly one superblock"
    );
    assert!(
        s.opt_nzcv_killed > 0,
        "dead `movs` flags were not eliminated"
    );
    assert!(
        s.opt_const_folded > 0,
        "constant `mov`+`add` was not folded"
    );
    assert!(
        s.opt_htable_coalesced > 0,
        "the redundant LL-origin hash mark was not coalesced"
    );
}

/// A branch whose direction flips mid-run forces side exits: the
/// superblock stitched along the early-dominant path must deopt and
/// produce the same result as block-granular execution.
#[test]
fn deopts_resume_at_the_architectural_target() {
    // Odd iterations add 1, even iterations add 2 — the parity branch
    // alternates every iteration, so whichever direction the superblock
    // stitches, half the iterations deopt.
    let program = "    mov32 r5, counter\n\
                   \x20   mov32 r6, #4000\n\
                   loop:\n\
                   \x20   ands  r1, r6, #1\n\
                   \x20   beq   even\n\
                   \x20   ldr   r2, [r5]\n\
                   \x20   add   r2, r2, #1\n\
                   \x20   str   r2, [r5]\n\
                   \x20   b     next\n\
                   even:\n\
                   \x20   ldr   r2, [r5]\n\
                   \x20   add   r2, r2, #2\n\
                   \x20   str   r2, [r5]\n\
                   next:\n\
                   \x20   subs  r6, r6, #1\n\
                   \x20   bne   loop\n\
                   \x20   mov   r0, #0\n\
                   \x20   svc   #0\n\
                   \x20   .align 4096\n\
                   counter:\n\
                   \x20   .word 0\n";
    // 2000 odd iterations add 1 each, 2000 even iterations add 2 each.
    let expected = 2_000 + 2_000 * 2;
    for threshold in [0, 4] {
        let machine = build(SchemeKind::Hst, threshold, program);
        let report = machine.run(1, 0x1_0000);
        assert!(report.all_ok(), "tier={threshold}: {:?}", report.outcomes);
        let counter = machine.symbol("counter").unwrap();
        assert_eq!(
            machine.read_word(counter).unwrap(),
            expected,
            "tier={threshold}: wrong sum"
        );
        if threshold > 0 {
            assert!(
                report.stats.deopts > 0,
                "an alternating branch must force side exits"
            );
        } else {
            assert_eq!(report.stats.deopts, 0, "no superblocks, no deopts");
        }
    }
}

/// The checker's substrate: machines translating single-instruction
/// blocks force tiering off no matter the threshold, so scheduled
/// interleaving exploration always sees block-granular atoms.
#[test]
fn single_insn_machines_never_tier() {
    let mut machine = MachineBuilder::new(SchemeKind::Hst)
        .memory(4 << 20)
        .max_block_insns(1)
        .tier_threshold(4)
        .build()
        .expect("single-insn machines force tiering off rather than rejecting it");
    machine.load_asm(&counter_program(500), 0x1_0000).unwrap();
    let report = machine.run(2, 0x1_0000);
    assert!(report.all_ok());
    assert_eq!(report.stats.promotions, 0);
    assert_eq!(machine.core().superblocks(), 0);
    assert_eq!(report.stats.tier_blocks, 0);
}

/// Build-time validation: a superblock must fit within one chained
/// dispatch, and must stitch at least two blocks.
#[test]
fn bad_tier_limits_are_rejected_at_build_time() {
    // superblock_limit > chain_limit (default 64).
    let err = MachineBuilder::new(SchemeKind::Hst)
        .tier_threshold(8)
        .superblock_limit(128)
        .build()
        .unwrap_err();
    assert!(
        err.to_string().contains("chain_limit"),
        "unhelpful error: {err}"
    );
    // superblock_limit < 2.
    let err = MachineBuilder::new(SchemeKind::Hst)
        .tier_threshold(8)
        .superblock_limit(1)
        .build()
        .unwrap_err();
    assert!(
        err.to_string().contains("at least 2"),
        "unhelpful error: {err}"
    );
    // With tiering off the limits are inert and anything builds.
    assert!(MachineBuilder::new(SchemeKind::Hst)
        .tier_threshold(0)
        .superblock_limit(128)
        .build()
        .is_ok());
}

/// The PARSEC-like kernels validate tiered under every scheme, and the
/// deterministic parts of their profile (store counts — a property of
/// the guest) match the untiered run.
#[test]
fn kernels_stay_valid_and_store_counts_match_under_tiering() {
    for kind in SchemeKind::ALL {
        let run = |tier_threshold: u32| {
            let config = MachineConfig {
                tier_threshold,
                superblock_limit: 8,
                ..MachineConfig::default()
            };
            run_parsec_with(kind, Program::Swaptions, THREADS, 0.05, config)
                .unwrap_or_else(|e| panic!("{kind}: {e}"))
        };
        let untiered = run(0);
        let tiered = run(16);
        assert!(untiered.valid, "{kind} untiered: invariants failed");
        assert!(tiered.valid, "{kind} tiered: invariants failed");
        assert_eq!(
            untiered.report.stats.stores, tiered.report.stats.stores,
            "{kind}: tiering changed the guest store count"
        );
    }
}

/// Deopt under fire: the ABA stack workload on real threads with chaos
/// injection and an aggressive promotion threshold. Superblocks must
/// deopt, retry, and degrade without corrupting the stack.
#[test]
fn deopt_under_chaos_soak() {
    let stack = StackConfig {
        nodes: 8,
        ops_per_thread: 300,
        stall: 0,
        victim_stall: 0,
    };
    for kind in SchemeKind::ALL {
        let config = MachineConfig {
            chaos: Some(ChaosCfg::new(0xADB7_71E2, 0.05)),
            watchdog_ms: 10_000,
            tier_threshold: 8,
            superblock_limit: 8,
            ..MachineConfig::default()
        };
        let run = run_stack_with(kind, THREADS, stack, config, None).unwrap();
        for outcome in &run.report.outcomes {
            assert!(
                matches!(
                    outcome,
                    VcpuOutcome::Exited(0) | VcpuOutcome::Livelocked { .. }
                ),
                "{kind}: unclean outcome {outcome:?}"
            );
        }
        if kind != SchemeKind::PicoCas {
            assert!(
                !corrupted(&run),
                "{kind}: corrupted under tiered chaos — {:?}",
                run.verdict
            );
        }
        let violations = run.report.stats.invariant_violations(&run.report.per_cpu);
        assert!(violations.is_empty(), "{kind}: {violations:?}");
    }
}

/// Same structural-corruption witness as `tests/chaos_soak.rs`.
fn corrupted(run: &StackRun) -> bool {
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
