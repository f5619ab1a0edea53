//! `adbt_check` — run the systematic interleaving checker and print the
//! scheme × litmus verdict matrix.
//!
//! ```text
//! adbt_check [--scheme NAME] [--litmus NAME] [--budget N]
//!            [--preemptions N] [--max-atoms N] [--ci]
//!            [--export-trace FILE]
//! ```
//!
//! Each flag that takes a value may be given once; a repeated one exits
//! 2 with `{flag} given twice` and the usage text.
//!
//! Without filters, checks all 8 schemes against all 3 litmus programs.
//! Violations print a minimized, replayable trace — feed it straight to
//! `adbt_run --replay`. `--ci` exits non-zero when any verdict differs
//! from the paper's prediction (Table II): PICO-CAS flagged on both ABA
//! litmuses, PICO-ST on the store window, everything else clean.
//!
//! `--export-trace FILE` additionally writes the *first* violation's
//! log as Chrome trace-event JSON (Perfetto-loadable, atom clock — the
//! same exchange format `adbt_run --trace` emits). Combine with
//! `--scheme`/`--litmus` to pick which counterexample to export. FILE
//! is created before the search, so a path that cannot be written exits
//! 2 before any pair is checked; when no pair violates, nothing is
//! exported, stderr says so, and no FILE is left behind.

use adbt::workloads::interleave::Litmus;
use adbt::SchemeKind;
use adbt_check::{check_pair, expected_violation, CheckOpts, PairReport};

fn usage() -> ! {
    eprintln!(
        "usage: adbt_check [--scheme NAME] [--litmus NAME] [--budget N] \
         [--preemptions N] [--max-atoms N] [--ci] [--export-trace FILE]\n\
         schemes: {}\n\
         litmus:  {}",
        SchemeKind::ALL.map(|s| s.name()).join(" "),
        Litmus::ALL.map(|l| l.name()).join(" "),
    );
    std::process::exit(2);
}

struct Args {
    scheme: Option<SchemeKind>,
    litmus: Option<Litmus>,
    opts: CheckOpts,
    ci: bool,
    export_trace: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scheme: None,
        litmus: None,
        opts: CheckOpts::default(),
        ci: false,
        export_trace: None,
    };
    // Each value flag may be given once: repeated, the last would
    // silently win.
    let mut given: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            if given.contains(&flag) {
                eprintln!("{flag} given twice");
                usage()
            }
            given.push(flag.clone());
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--scheme" => {
                let name = value();
                args.scheme = Some(SchemeKind::from_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown scheme '{name}'");
                    usage()
                }));
            }
            "--litmus" => {
                let name = value();
                args.litmus = Some(Litmus::by_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown litmus '{name}'");
                    usage()
                }));
            }
            "--budget" => args.opts.budget = parse_count(&value(), "--budget"),
            "--preemptions" => {
                args.opts.max_preemptions = parse_num(&value(), "--preemptions") as usize
            }
            "--max-atoms" => args.opts.max_atoms = parse_count(&value(), "--max-atoms"),
            "--export-trace" => args.export_trace = Some(value()),
            "--ci" => args.ci = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    args
}

fn parse_num(text: &str, flag: &str) -> u64 {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: bad number '{text}'");
        usage()
    })
}

/// A count of at least 1: a zero budget or atom cap explores nothing,
/// and every pair would read clean after one empty run.
fn parse_count(text: &str, flag: &str) -> u64 {
    let n = parse_num(text, flag);
    if n == 0 {
        eprintln!("{flag} 0 explores nothing; every pair would read clean");
        usage()
    }
    n
}

fn print_report(report: &PairReport) {
    let pair = format!("{} × {}", report.scheme.name(), report.litmus);
    match &report.violation {
        Some(v) => {
            println!(
                "{pair:<28} VIOLATION  p={} runs={}  --replay '{}'",
                v.preemptions, report.runs, v.trace
            );
            println!("{:<28}   {}", "", v.detail);
        }
        None => {
            let note = if report.budget_exhausted {
                "budget exhausted"
            } else {
                "space exhausted"
            };
            println!("{pair:<28} clean      runs={} ({note})", report.runs);
        }
    }
}

fn main() {
    let args = parse_args();
    let schemes = args.scheme.map_or(SchemeKind::ALL.to_vec(), |s| vec![s]);
    let litmuses = args.litmus.map_or(Litmus::ALL.to_vec(), |l| vec![l]);
    // Create the export file now, so a path that cannot be written fails
    // before the search rather than at the first violation.
    if let Some(path) = &args.export_trace {
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(2);
        }
    }
    let mut reports = Vec::new();
    let mut export_to = args.export_trace.clone();
    for &scheme in &schemes {
        for &litmus in &litmuses {
            let report = check_pair(scheme, litmus, &args.opts);
            print_report(&report);
            if let (Some(path), Some(v)) = (export_to.as_deref(), &report.violation) {
                match std::fs::write(path, adbt_check::violation_trace_json(v)) {
                    Ok(()) => println!("{:<28}   trace exported to {path}", ""),
                    Err(e) => {
                        eprintln!("cannot write trace to {path}: {e}");
                        std::process::exit(2);
                    }
                }
                export_to = None;
            }
            reports.push(report);
        }
    }

    let mismatches: Vec<&PairReport> = reports
        .iter()
        .filter(|r| !r.matches_expectation())
        .collect();
    println!();
    println!(
        "{} pairs checked, {} violations, {} mismatches vs. the paper's matrix",
        reports.len(),
        reports.iter().filter(|r| r.violation.is_some()).count(),
        mismatches.len()
    );
    for r in &mismatches {
        println!(
            "  MISMATCH: {} × {} — expected {}, got {}",
            r.scheme.name(),
            r.litmus,
            if expected_violation(r.scheme, r.litmus) {
                "a violation"
            } else {
                "clean"
            },
            if r.violation.is_some() {
                "a violation"
            } else {
                "clean"
            },
        );
    }
    if let Some(path) = export_to {
        eprintln!("no pair violated: nothing exported, {path} removed");
        if let Err(e) = std::fs::remove_file(&path) {
            eprintln!("cannot remove {path}: {e}");
            std::process::exit(2);
        }
    }
    if args.ci && !mismatches.is_empty() {
        std::process::exit(1);
    }
}
