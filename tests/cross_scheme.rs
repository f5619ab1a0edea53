//! Cross-crate integration: PARSEC-like kernels validate under every
//! scheme, profiling plumbing produces sane numbers, and the public
//! facade wires the substrate together correctly.

use adbt::harness::{run_parsec, run_parsec_with};
use adbt::workloads::parsec::Program;
use adbt::{MachineBuilder, MachineConfig, SchemeKind};

/// Every scheme runs every kernel correctly (small scale: this is a
/// correctness sweep, not a benchmark).
#[test]
fn all_schemes_run_all_kernels_correctly() {
    for kind in SchemeKind::ALL {
        for program in Program::ALL {
            let run = run_parsec(kind, program, 4, 0.02)
                .unwrap_or_else(|e| panic!("{kind} × {program}: {e}"));
            assert!(
                run.valid,
                "{kind} × {program}: invariants failed ({:?})",
                run.report.outcomes
            );
        }
    }
}

/// The Table I profile plumbing: stores dominate LL/SC by the modelled
/// ratios, and the profile is scheme-independent (it is a property of
/// the *guest*, not the emulation).
#[test]
fn instruction_profile_is_scheme_independent() {
    let a = run_parsec(SchemeKind::PicoCas, Program::Swaptions, 2, 0.05).unwrap();
    let b = run_parsec(SchemeKind::Hst, Program::Swaptions, 2, 0.05).unwrap();
    // Raw LL counts depend on real-thread timing two ways: a failed SC
    // re-runs the guest retry loop (one extra LL + SC), and a contended
    // acquire re-runs the LL *without reaching the SC at all* (the
    // "ldrex; cmp; bne wait" fast path). The timing-invariant quantity
    // is the number of *successful* pairs — one per acquisition, a
    // property of the guest alone — which is `sc - sc_failures`.
    let success = |s: &adbt::VcpuStats| s.sc - s.sc_failures;
    assert_eq!(
        success(&a.report.stats),
        success(&b.report.stats),
        "LL/SC profiles diverge"
    );
    for run in [&a, &b] {
        assert!(
            run.report.stats.ll >= success(&run.report.stats),
            "fewer LLs than successful SCs"
        );
    }
    assert_eq!(
        a.report.stats.stores, b.report.stats.stores,
        "store counts diverge"
    );
    assert!(
        a.report.stats.stores > 20 * a.report.stats.ll,
        "swaptions must be store-dominated: {} stores vs {} ll",
        a.report.stats.stores,
        a.report.stats.ll
    );
}

/// Collision tracking measures the paper's "2.4% conflicts" quantity.
#[test]
fn collision_tracking_reports_rates() {
    // A small table forces collisions; the default 2^16 table keeps them
    // rare. Both must *work*; rates differ.
    let config = MachineConfig {
        track_collisions: true,
        htable_bits: 6,
        ..Default::default()
    };
    let crowded = run_parsec_with(SchemeKind::Hst, Program::Fluidanimate, 4, 0.05, config).unwrap();
    let (collisions, sets) = crowded.report.collisions;
    assert!(sets > 0, "tracking must count sets");
    assert!(collisions > 0, "a 64-entry table must collide");

    let config = MachineConfig {
        track_collisions: true,
        ..Default::default()
    };
    let roomy = run_parsec_with(SchemeKind::Hst, Program::Fluidanimate, 4, 0.05, config).unwrap();
    let (roomy_collisions, roomy_sets) = roomy.report.collisions;
    assert!(roomy_sets > 0);
    let crowded_rate = collisions as f64 / sets as f64;
    let roomy_rate = roomy_collisions as f64 / roomy_sets as f64;
    assert!(
        roomy_rate < crowded_rate,
        "bigger table must collide less: {roomy_rate} vs {crowded_rate}"
    );
}

/// The Fig. 12 breakdown accounts all CPU time across the four buckets
/// and reflects each scheme's character.
#[test]
fn breakdown_buckets_reflect_scheme_character() {
    let hst = run_parsec(SchemeKind::Hst, Program::Freqmine, 4, 0.05).unwrap();
    let pst = run_parsec(SchemeKind::Pst, Program::Freqmine, 4, 0.05).unwrap();
    let hst_breakdown = hst.report.breakdown();
    let pst_breakdown = pst.report.breakdown();
    // Totals account wall × threads.
    let hst_total = hst.seconds * 4.0;
    assert!((hst_breakdown.total_s() - hst_total).abs() < hst_total * 0.05);
    // PST pays mprotect; HST pays none.
    assert_eq!(hst.report.stats.mprotect_calls, 0);
    assert!(pst.report.stats.mprotect_calls > 0);
    assert!(pst_breakdown.mprotect_s > 0.0);
    assert_eq!(hst_breakdown.mprotect_s, 0.0);
}

/// Strong scaling: total work is fixed, so doubling the threads leaves
/// the total store count unchanged (each thread does half).
#[test]
fn kernels_divide_work_across_threads() {
    let two = run_parsec(SchemeKind::HstWeak, Program::X264, 2, 0.05).unwrap();
    let four = run_parsec(SchemeKind::HstWeak, Program::X264, 4, 0.05).unwrap();
    assert_eq!(two.report.stats.stores, four.report.stats.stores);
    assert!(two.valid && four.valid);
}

/// Block chaining is a dispatch optimization: under every scheme, the
/// guest-visible result of a contended LL/SC counter is identical with
/// chaining off (`chain_limit 1`) and on (default), and the simulated
/// mode — which pins single-block dispatch internally — produces
/// bit-identical virtual timing either way.
#[test]
fn chaining_preserves_results_under_every_scheme() {
    const THREADS: u32 = 4;
    const ITERS: u32 = 300;
    let program = format!(
        "    mov32 r5, counter\n\
         \x20   mov32 r6, #{ITERS}\n\
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
    );
    for kind in SchemeKind::ALL {
        let run = |chain_limit: u32, sim: bool| {
            let mut machine = MachineBuilder::new(kind)
                .memory(4 << 20)
                .chain_limit(chain_limit)
                .build()
                .unwrap();
            machine.load_asm(&program, 0x1_0000).unwrap();
            let report = if sim {
                machine.run_sim(THREADS, 0x1_0000)
            } else {
                machine.run(THREADS, 0x1_0000)
            };
            assert!(
                report.all_ok(),
                "{kind} chain={chain_limit}: {:?}",
                report.outcomes
            );
            let counter = machine.symbol("counter").unwrap();
            (machine.read_word(counter).unwrap(), report)
        };
        let (unchained, _) = run(1, false);
        let (chained, chained_report) = run(64, false);
        assert_eq!(unchained, THREADS * ITERS, "{kind} unchained");
        assert_eq!(chained, THREADS * ITERS, "{kind} chained");
        assert!(
            chained_report.stats.chain_follows > 0,
            "{kind}: the loop's static branches must chain"
        );
        let (_, sim_unchained) = run(1, true);
        let (_, sim_chained) = run(64, true);
        assert_eq!(
            sim_unchained.stats.sim_time, sim_chained.stats.sim_time,
            "{kind}: chain_limit leaked into the simulated schedule"
        );
        assert_eq!(sim_unchained.stats.insns, sim_chained.stats.insns);
    }
}

/// `MachineConfig::tier_threshold` is inert: the engine has one
/// translation tier and never reads it. Single-vCPU hot loops run on
/// real threads count exactly the same at threshold 1 as at the
/// default, and the e2ebench shim counters stay 0. The loops: one whose
/// body mixes constants, dead flag writes, plain and exclusive accesses
/// to one word, and one whose branch alternates direction every
/// iteration (2000 odd passes add 1, 2000 even passes add 2).
#[test]
fn tier_threshold_is_inert_on_every_scheme() {
    let straight = "    mov32 r5, counter\n\
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
    let alternating = "    mov32 r5, counter\n\
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
    for (program, expected) in [(straight, 2_000), (alternating, 2_000 + 2_000 * 2)] {
        for kind in SchemeKind::ALL {
            let run = |tier_threshold: u32| {
                let config = MachineConfig {
                    mem_size: 4 << 20,
                    tier_threshold,
                    ..MachineConfig::default()
                };
                let mut machine = MachineBuilder::new(kind).config(config).build().unwrap();
                machine.load_asm(program, 0x1_0000).unwrap();
                let report = machine.run(1, 0x1_0000);
                assert!(report.all_ok(), "{kind}: {:?}", report.outcomes);
                let counter = machine.symbol("counter").unwrap();
                assert_eq!(machine.read_word(counter).unwrap(), expected, "{kind}");
                let violations = report.stats.invariant_violations(&report.per_cpu);
                assert!(violations.is_empty(), "{kind}: {violations:?}");
                report.stats.without_wall_clock()
            };
            let default = run(MachineConfig::default().tier_threshold);
            let hot = run(1);
            assert_eq!(hot, default, "{kind}: tier_threshold changed the run");
            assert_eq!(
                (hot.promotions, hot.deopts, hot.tier_insns),
                (0, 0, 0),
                "{kind}"
            );
            assert!(hot.chain_follows > 0, "{kind}: the loop must chain");
        }
    }
}

/// The machine facade exposes enough to write custom experiments.
#[test]
fn facade_round_trip() {
    let mut machine = MachineBuilder::new(SchemeKind::PstRemap)
        .memory(4 << 20)
        .build()
        .unwrap();
    machine
        .load_asm(
            "start: mov32 r5, cell\nldrex r1, [r5]\nadd r1, r1, #5\nstrex r2, r1, [r5]\nmov r0, r2\nsvc #0\n.align 4096\ncell: .word 37\n",
            0x2_0000,
        )
        .unwrap();
    let entry = machine.symbol("start").unwrap();
    let report = machine.run(1, entry);
    assert!(report.all_ok());
    assert_eq!(
        machine.read_word(machine.symbol("cell").unwrap()).unwrap(),
        42
    );
}
