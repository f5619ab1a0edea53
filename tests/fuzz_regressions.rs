//! Frozen-seed regressions for the cross-scheme differential fuzzer.
//!
//! Two jobs:
//!
//! 1. **Frozen corpus** — seeds that exercise every generator feature
//!    (SMC patch loops, page-straddling stores, chaos-absorbing retry
//!    loops) run the full 8-scheme × 5-cell matrix and must stay
//!    divergence-free. A seed that ever finds an engine bug gets
//!    appended here after the fix, so the bug stays dead.
//! 2. **Replay fidelity** — the acceptance contract that a recorded
//!    artifact replays byte-identically: same seed ⇒ byte-identical
//!    program, schedule trace, Chrome trace, and memory image.

use adbt::harness::{run_program, ExecMode};
use adbt::{MachineConfig, SchemeKind};
use adbt_fuzz::{run_seed, FuzzOpts, GenConfig, ProgramSpec};

/// The frozen corpus. Seeds 0–11 are generator-coverage picks from the
/// initial development campaign (2 400 seeds, clean — see
/// EXPERIMENTS.md); the last is the CI corpus anchor.
const FROZEN: &[u64] = &[0, 3, 7, 11, 0x5EED_0001, adbt_fuzz::CI_CORPUS_START];

fn corpus_opts() -> FuzzOpts {
    FuzzOpts {
        gen: GenConfig {
            max_insns: 128,
            max_threads: 3,
        },
        ..FuzzOpts::default()
    }
}

#[test]
fn frozen_corpus_stays_clean() {
    let opts = corpus_opts();
    for &seed in FROZEN {
        let result = run_seed(seed, &opts);
        assert!(
            result.divergence.is_none(),
            "seed {seed:#x} regressed: {:?}",
            result.divergence.map(|d| (d.cell, d.minimized_detail)),
        );
        assert_eq!(result.cells, 40, "matrix shrank behind the corpus' back");
    }
}

/// Same seed ⇒ byte-identical generated program and predictions.
#[test]
fn generation_is_byte_identical_across_calls() {
    let cfg = GenConfig::default();
    for seed in [0u64, 42, 0xFFFF_FFFF_0000_0001] {
        let a = ProgramSpec::generate(seed, &cfg).render();
        let b = ProgramSpec::generate(seed, &cfg).render();
        assert_eq!(a, b, "seed {seed:#x} rendered differently twice");
    }
}

/// The artifact-replay contract: running the scheduled cell (the one
/// whose trace `adbt_run --replay` consumes) twice over the same
/// program yields byte-identical traces, Chrome JSON, memory, and
/// outcomes.
#[test]
fn scheduled_replay_artifacts_are_byte_identical() {
    let prog = ProgramSpec::generate(7, &GenConfig::default()).render();
    let entries: Vec<&str> = prog.entries.iter().map(String::as_str).collect();
    let config = MachineConfig {
        mem_size: 8 << 20,
        trace: true,
        ..MachineConfig::default()
    };
    let run = || {
        run_program(
            SchemeKind::Pst,
            &prog.source,
            entries.len() as u32,
            &entries,
            ExecMode::Scheduled {
                max_atoms: 4_000_000,
            },
            config.clone(),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    let trace = a
        .trace
        .as_deref()
        .expect("scheduled run must record a trace");
    assert!(!trace.is_empty());
    assert_eq!(a.trace, b.trace, "schedule trace not replay-stable");
    assert_eq!(a.chrome_trace, b.chrome_trace, "Chrome trace not stable");
    assert_eq!(a.memory, b.memory);
    assert_eq!(
        format!("{:?}", a.report.outcomes),
        format!("{:?}", b.report.outcomes)
    );
}
