//! Cross-scheme differential fuzzing campaigns.
//!
//! ```text
//! adbt_fuzz [--seeds N] [--seed S] [--max-insns N] [--max-threads N]
//!           [--out DIR] [--ci]
//! ```
//!
//! Each seed generates one racy-but-result-deterministic guest program
//! and runs it across every scheme × {sim, sim+chaos, sim+prof,
//! threaded, scheduled} cell; all cells must agree on
//! outcomes and final memory, match the generator's static predictions,
//! and pass the counter-invariant suite. The `sim+prof` cell is the
//! contention profiler's purity oracle: profiling on must change
//! nothing observable. Divergences are minimized and written as
//! replayable artifacts under `--out` (default `fuzz-artifacts/`): the
//! minimized program, a repro report, the scheduled replay trace, a
//! Chrome trace, and a guest-PC profile summary. The `--out` directory
//! is created before the campaign starts, so a path that cannot hold
//! the artifacts exits 2 before any seed runs.
//!
//! `--seed S` fuzzes exactly that seed. `--seeds N` fuzzes `N`
//! consecutive seeds (from `--seed`, or 0). `--ci` selects the pinned
//! CI corpus (start seed [`adbt_fuzz::CI_CORPUS_START`], 32 seeds,
//! 256-instruction budget) — deterministic, so a red CI step names the
//! exact seed to replay locally.
//!
//! Exit status: 0 = corpus clean, 1 = divergence(s) found (artifacts
//! written), 2 = usage error.

use adbt_fuzz::{run_campaign, FuzzOpts, SeedResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: adbt_fuzz [--seeds N] [--seed S] [--max-insns N] [--max-threads N]\n\
         \x20                [--out DIR] [--ci]"
    );
    std::process::exit(2);
}

fn parse_u64(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

fn main() -> ExitCode {
    let mut opts = FuzzOpts::default();
    let mut seeds: Option<u64> = None;
    let mut start: Option<u64> = None;
    let mut out = PathBuf::from("fuzz-artifacts");
    let mut ci = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                seeds = Some(
                    args.next()
                        .as_deref()
                        .and_then(parse_u64)
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--seed" => {
                start = Some(
                    args.next()
                        .as_deref()
                        .and_then(parse_u64)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--max-insns" => {
                opts.gen.max_insns = args
                    .next()
                    .as_deref()
                    .and_then(|v| u32::try_from(parse_u64(v)?).ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--max-threads" => {
                opts.gen.max_threads = args
                    .next()
                    .as_deref()
                    .and_then(parse_u64)
                    .filter(|&n| (1..=8).contains(&n))
                    .unwrap_or_else(|| usage()) as u32;
            }
            "--out" => out = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--ci" => ci = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }

    // `--ci` pins the corpus; explicit flags still override. A bare
    // `--seed S` (no `--seeds`) fuzzes exactly that seed — the shape
    // artifact repro lines rely on.
    let explicit_seed = start.is_some();
    let start = start.unwrap_or(if ci { adbt_fuzz::CI_CORPUS_START } else { 0 });
    let seeds = seeds.unwrap_or(match (ci, explicit_seed) {
        (true, _) => 32,
        (false, true) => 1,
        (false, false) => 16,
    });
    // Create the artifact directory now, so a path that cannot be
    // written fails before the campaign rather than when a divergence's
    // minimized repro needs it.
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }

    println!(
        "adbt_fuzz: {} seed(s) from {:#018x} — {} schemes, {} cells, ≤{} insns, ≤{} threads",
        seeds,
        start,
        opts.schemes.len(),
        opts.cells().len(),
        opts.gen.max_insns,
        opts.gen.max_threads,
    );

    let divergences = run_campaign(&opts, start, seeds, |result: &SeedResult| {
        match &result.divergence {
            None => println!(
                "seed {:#018x} ok ({} actions, {} cells)",
                result.seed, result.actions, result.cells
            ),
            Some(d) => {
                println!(
                    "seed {:#018x} DIVERGED at {} — {} (minimized {} → {} actions)",
                    result.seed, d.cell, d.detail, d.shrink.0, d.shrink.1
                );
                if let Err(e) = write_artifacts(&out, d) {
                    eprintln!("warning: could not write artifacts: {e}");
                }
            }
        }
    });

    if divergences.is_empty() {
        println!("corpus clean: {seeds} seed(s), 0 divergences");
        ExitCode::SUCCESS
    } else {
        println!(
            "{} divergence(s); artifacts under {}",
            divergences.len(),
            out.display()
        );
        ExitCode::from(1)
    }
}

fn write_artifacts(out: &Path, d: &adbt_fuzz::Divergence) -> std::io::Result<()> {
    let dir = out.join(format!("seed-{:016x}", d.seed));
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("program.s"), &d.artifact.source)?;
    std::fs::write(dir.join("report.txt"), &d.artifact.report)?;
    if let Some(trace) = &d.artifact.replay_trace {
        std::fs::write(dir.join("trace.txt"), trace)?;
    }
    if let Some(json) = &d.artifact.chrome_trace {
        std::fs::write(dir.join("chrome.json"), json)?;
    }
    if let Some(json) = &d.artifact.profile_summary {
        std::fs::write(dir.join("profile.json"), json)?;
    }
    println!("    artifact: {}", dir.display());
    Ok(())
}
