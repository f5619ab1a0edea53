//! Wall-clock experiments on a dispatch-bound guest loop: block chaining
//! off vs on, and the two off/on overhead guards — the flight recorder
//! and the contention profiler.
//!
//! The loop does no atomic work: every iteration hops through a chain of
//! unconditional branches plus one conditional loop-back, so the hot
//! path is L1 probes (unchained) or patched chain links (chained).
//! Per-scheme numbers still differ because schemes translate
//! differently and some (PICO-HTM) dispatch inside transactions.
//!
//! A guard passes only when the measured geomean overhead is a finite
//! number within `--guard`, so a NaN reading fails it.

use adbt::{MachineBuilder, SchemeKind, VcpuStats};
use adbt_bench::{geomean, pct, pct_cell, time_best, Args, Table};
use std::cmp::Ordering;
use std::time::Instant;

/// Where every guest program of this module is loaded and entered.
const ENTRY: u32 = 0x1_0000;

/// Every iteration crosses six block boundaries (five jumps and the
/// conditional loop-back), so dispatch dominates the interpreter work.
fn program(iters: u32) -> String {
    format!(
        "    mov32 r6, #{iters}\n\
         loop:\n\
         \x20   b s1\n\
         s1: b s2\n\
         s2: b s3\n\
         s3: b s4\n\
         s4: subs r6, r6, #1\n\
         \x20   bne loop\n\
         \x20   mov r0, #0\n\
         \x20   svc #0\n"
    )
}

/// Best-of-`--reps` wall time in seconds of one single-vCPU run of the
/// `--iters` loop on the machine `builder` makes, with at most
/// `chain_limit` blocks per dispatch, and the counters of that run.
fn measure(
    args: &Args,
    chain_limit: u32,
    builder: impl Fn() -> MachineBuilder,
) -> (f64, VcpuStats) {
    let source = program(args.get("iters"));
    let (best, stats) = time_best(args.get("reps"), || {
        let mut machine = builder()
            .memory(1 << 20)
            .chain_limit(chain_limit)
            .build()
            .expect("machine construction");
        machine.load_asm(&source, ENTRY).expect("assembles");
        let start = Instant::now();
        let report = machine.run(1, ENTRY);
        let elapsed = start.elapsed();
        assert!(report.all_ok(), "dispatch loop failed");
        (elapsed, report.stats)
    });
    (best.as_secs_f64(), stats)
}

/// The chaining comparison: every scheme unchained (`chain_limit` 1)
/// and chained (`--chain`).
pub fn dispatch(args: &Args) {
    let mut table = Table::default();
    for kind in SchemeKind::ALL {
        let (unchained, _) = measure(args, 1, || MachineBuilder::new(kind));
        let (chained, stats) = measure(args, args.get("chain"), || MachineBuilder::new(kind));
        let dispatches = stats.dispatch_lookups + stats.chain_follows;
        table.row([
            ("scheme", kind.name().to_string()),
            ("unchained_ms", format!("{:.2}", unchained * 1e3)),
            ("chained_ms", format!("{:.2}", chained * 1e3)),
            ("speedup", format!("{:.2}", unchained / chained)),
            ("dispatch_lookups", stats.dispatch_lookups.to_string()),
            ("chain_follows", stats.chain_follows.to_string()),
            ("chained_pct", pct_cell(stats.chain_follows, dispatches)),
        ]);
    }
    table.emit_with_note(
        args,
        "chained_pct is the fraction of block dispatches resolved by a patched\n\
         chain link (zero lookups); the residual lookups are chain-budget\n\
         boundaries and the loop's cold start.",
    );
}

/// An observation plane off vs on: times the chained loop per scheme on
/// a plain machine and on the one `on` builds, named by the columns
/// `cols`, prints and emits the table with its note on the geomean
/// slowdown and `why` it costs that much, then exits 1 unless that
/// slowdown is within the `--guard` budget, when one is set. A NaN
/// reading compares as neither, so it fails too.
fn plane_overhead(
    args: &Args,
    what: &str,
    cols: [&str; 2],
    on: fn(SchemeKind) -> MachineBuilder,
    why: &str,
) {
    let chain = args.get("chain");
    let mut table = Table::default();
    let mut ratios = Vec::new();
    for kind in SchemeKind::ALL {
        let (off, _) = measure(args, chain, || MachineBuilder::new(kind));
        let (on, _) = measure(args, chain, || on(kind));
        ratios.push(on / off);
        table.row([
            ("scheme", kind.name().to_string()),
            (cols[0], format!("{:.2}", off * 1e3)),
            (cols[1], format!("{:.2}", on * 1e3)),
            ("overhead_pct", format!("{:.1}", pct(on - off, off))),
        ]);
    }
    let overhead = pct(geomean(&ratios) - 1.0, 1.0);
    table.emit_with_note(
        args,
        &format!("geomean {what} overhead: {overhead:.1}% ({why})"),
    );
    if let Some(budget) = args.get_opt::<f64>("guard") {
        if !overhead.partial_cmp(&budget).is_some_and(Ordering::is_le) {
            eprintln!("FAIL: {what} overhead {overhead:.1}% exceeds the --guard {budget}% budget");
            std::process::exit(1);
        }
    }
}

/// The flight recorder off vs on; `--guard` is the CI tripwire for the
/// "tracing is cheap" claim.
pub fn trace_overhead(args: &Args) {
    plane_overhead(
        args,
        "tracing",
        ["untraced_ms", "traced_ms"],
        |kind| MachineBuilder::new(kind).trace(true),
        "ring writes on the enabled\npath; the disabled path is a single predicted branch",
    );
}

/// The contention profiler off vs on; `--guard` is the CI tripwire for
/// the "profiling stays within PCT percent" claim.
pub fn profile_overhead(args: &Args) {
    plane_overhead(
        args,
        "profiling",
        ["unprofiled_ms", "profiled_ms"],
        |kind| MachineBuilder::new(kind).profile(true),
        "hash probes on the enabled\npath; the disabled path is a single predicted branch \
         per charge site",
    );
}
