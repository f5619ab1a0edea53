//! Wall-clock experiments on a dispatch-bound guest loop: block chaining
//! off vs on, and the three off/on overhead guards — the flight
//! recorder, the contention profiler and the armed-idle adaptive
//! machine — plus the `--scheme auto` mixed workload.
//!
//! The loop does no atomic work: every iteration hops through a chain of
//! unconditional branches plus one conditional loop-back, so the hot
//! path is L1 probes (unchained) or patched chain links (chained).
//! Per-scheme numbers still differ because schemes translate
//! differently and some (PICO-HTM) dispatch inside transactions.
//!
//! A guard passes only when the measured geomean overhead is a finite
//! number within `--guard`, so a NaN reading fails it.

use adbt::{AdaptConfig, AdaptPolicy, Atomicity, MachineBuilder, SchemeKind, SimCosts, VcpuStats};
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
        // The adaptive guard times an epoch that never elapses.
        assert_eq!(report.stats.adapt_epochs, 0, "a timed run arbitrated");
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

/// Times the chained loop per scheme on the machine `off` builds and on
/// the one `on` builds, named by the columns `cols`. Returns the table,
/// its note on the geomean slowdown of `on` and why it costs that much,
/// and that slowdown in percent.
fn overhead(
    args: &Args,
    what: &str,
    cols: [&str; 2],
    off: impl Fn(SchemeKind) -> MachineBuilder,
    on: impl Fn(SchemeKind) -> MachineBuilder,
    why: &str,
) -> (Table, String, f64) {
    let chain = args.get("chain");
    let mut table = Table::default();
    let mut ratios = Vec::new();
    for kind in SchemeKind::ALL {
        let (off, _) = measure(args, chain, || off(kind));
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
    let note = format!("geomean {what} overhead: {overhead:.1}% ({why})");
    (table, note, overhead)
}

/// Exits 1 unless `overhead` is within the `--guard` budget, when one is
/// set. A NaN reading compares as neither, so it fails too.
fn check_guard(args: &Args, what: &str, overhead: f64) {
    if let Some(budget) = args.get_opt::<f64>("guard") {
        if !overhead.partial_cmp(&budget).is_some_and(Ordering::is_le) {
            eprintln!("FAIL: {what} overhead {overhead:.1}% exceeds the --guard {budget}% budget");
            std::process::exit(1);
        }
    }
}

/// An observation plane off vs on: prints and emits the table, then
/// checks `--guard`.
fn plane_overhead(
    args: &Args,
    what: &str,
    cols: [&str; 2],
    on: fn(SchemeKind) -> MachineBuilder,
    why: &str,
) {
    let (table, note, overhead) = overhead(args, what, cols, MachineBuilder::new, on, why);
    table.emit_with_note(args, &note);
    check_guard(args, what, overhead);
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

/// The three-phase mixed workload the adaptive arbiter is judged on.
/// Every phase is a guest program with a clean exit; phases are
/// compared in simulated virtual time, the deterministic metric all
/// repo performance figures use.
///
/// * `llsc` — a contended LL/SC counter: LL/SC-helper cost and SC-retry
///   pricing dominate (PICO-ST's per-store helper + global lock hurt).
/// * `htm` — LL/SC regions stuffed with shared-page stores: HTM schemes
///   drag the whole inflated region through a transaction and pay the
///   conflict-abort storm; store-instrumenting schemes just price the
///   stores.
/// * `smc` — a self-patching loop: every iteration invalidates and
///   retranslates its own body, the fault/invalidation storm the
///   PST-family cost models price highest. It runs half the iterations,
///   and at least one: a zero count would wrap to 2³² laps.
fn mixed_phases(iters: u32) -> [(&'static str, String); 3] {
    let llsc = format!(
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
    );
    let htm = format!(
        "    mov32 r6, #{iters}\n\
         \x20   mov32 r8, #0x2000\n\
         hloop:\n\
         \x20   ldrex r1, [r5]\n\
         \x20   str   r1, [r8]\n\
         \x20   str   r1, [r8, #4]\n\
         \x20   str   r1, [r8, #8]\n\
         \x20   str   r1, [r8, #12]\n\
         \x20   str   r1, [r8, #16]\n\
         \x20   str   r1, [r8, #20]\n\
         \x20   str   r1, [r8, #24]\n\
         \x20   str   r1, [r8, #28]\n\
         \x20   add   r1, r1, #1\n\
         \x20   strex r2, r1, [r5]\n\
         \x20   cmp   r2, #0\n\
         \x20   bne   hloop\n\
         \x20   subs  r6, r6, #1\n\
         \x20   bne   hloop\n\
         \x20   mov   r0, #0\n\
         \x20   svc   #0\n"
    );
    let smc = format!(
        "    mov32 r6, #{iters}\n\
         \x20   mov32 r5, qpatch\n\
         \x20   mov32 r7, qdonor\n\
         qloop:\n\
         qpatch:\n\
         \x20   mov   r1, #1\n\
         \x20   ldr   r2, [r7]\n\
         \x20   str   r2, [r5]\n\
         \x20   subs  r6, r6, #1\n\
         \x20   bne   qloop\n\
         \x20   mov   r0, #0\n\
         \x20   svc   #0\n\
         qdonor:\n\
         \x20   mov   r1, #1\n",
        iters = (iters / 2).max(1)
    );
    [("llsc", llsc), ("htm", htm), ("smc", smc)]
}

/// Guest memory of each `adapt` phase machine; it bounds `--threads`.
pub const PHASE_MEMORY: u32 = 1 << 20;

/// Virtual-time makespan of one phase on `threads` vCPUs of the machine
/// `builder` makes, with the run's migration count and the scheme it
/// ended on.
fn sim_phase(builder: MachineBuilder, source: &str, threads: u32) -> (u64, u64, &'static str) {
    let mut machine = builder
        .memory(PHASE_MEMORY)
        .build()
        .expect("machine construction");
    machine.load_asm(source, ENTRY).expect("assembles");
    let vcpus = machine.core().make_vcpus(threads, ENTRY);
    let report = machine.core().run_sim(vcpus, &SimCosts::default());
    assert!(report.all_ok(), "{} failed", machine.active_scheme_name());
    (
        report.sim_time().expect("sim run records virtual time"),
        report.stats.adapt_migrations,
        machine.active_scheme_name(),
    )
}

/// The adaptive-mode comparison. Part 1 is the armed-idle overhead:
/// `--guard` is the CI tripwire for the "adaptation you don't run is
/// (nearly) free" claim. The *off* path, a static scheme's single
/// predicted branch, is strictly cheaper than the armed-idle machine
/// measured here. Part 2 scores `--scheme auto` against every static
/// scheme on the mixed workload in deterministic virtual time; `--json`
/// lands this table, the record behind EXPERIMENTS.md's adaptive-mode
/// table.
pub fn adapt(args: &Args) {
    // An epoch that never elapses: the dispatch loop pays the full
    // per-hop adaptive check (generation load + epoch compare) but no
    // arbitration ever runs. Adaptive machines force the profile plane
    // on, so the static baseline arms it too — the delta isolates the
    // adapt hop.
    let idle = AdaptConfig {
        epoch_insns: u64::MAX,
        ..AdaptConfig::default()
    };
    let (idle_table, note, overhead) = overhead(
        args,
        "armed-idle adaptive",
        ["static_ms", "armed_ms"],
        |kind| MachineBuilder::new(kind).profile(true),
        |kind| MachineBuilder::adaptive(kind, idle),
        "per-hop generation\nload + epoch compare; a *static* scheme's adaptation-off path is one\n\
         predicted branch and strictly cheaper than the armed machine above",
    );
    println!("{}\n{note}", idle_table.render());

    let threads: u32 = args.get("threads");
    let epoch: u32 = args.get("epoch");
    // Weak-ok policy, so the arbiter may chase the true per-phase best.
    let auto = AdaptConfig {
        epoch_insns: epoch.into(),
        policy: AdaptPolicy::WeakOk,
        ..AdaptConfig::default()
    };
    let mut table = Table::default();
    let mut auto_vs_best = Vec::new();
    let mut worst_vs_auto = Vec::new();
    for (phase, source) in mixed_phases(args.get("scale")) {
        let run = |builder| sim_phase(builder, &source, threads);
        let statics = SchemeKind::ALL.map(|kind| (kind, run(MachineBuilder::new(kind)).0));
        // "Best static" means best *policy-reachable* static: the
        // atomicity-class lattice forbids migrating into an Incorrect
        // scheme (PICO-CAS) under every policy, so it sets no bar the
        // arbiter is allowed to chase. Its row still prints (negative
        // vs_best_pct) for the record.
        let best = statics
            .iter()
            .filter(|&&(kind, _)| kind.atomicity() != Atomicity::Incorrect)
            .map(|&(_, t)| t)
            .min()
            .unwrap();
        let worst = statics.iter().map(|&(_, t)| t).max().unwrap();
        let mut row = |scheme: &str, time: u64, migrations: String, landed: &str| {
            let vs_best = pct(time as f64 - best as f64, best as f64);
            table.row([
                ("phase", phase.to_string()),
                ("scheme", scheme.to_string()),
                ("sim_time", time.to_string()),
                ("vs_best_pct", format!("{vs_best:.1}")),
                ("migrations", migrations),
                ("final_scheme", landed.to_string()),
            ])
        };
        for &(kind, time) in &statics {
            row(kind.name(), time, String::new(), "");
        }
        let (time, migrations, landed) = run(MachineBuilder::adaptive(SchemeKind::Hst, auto));
        auto_vs_best.push(time as f64 / best as f64);
        worst_vs_auto.push(worst as f64 / time as f64);
        row("auto", time, migrations.to_string(), landed);
    }
    let vs_best = pct(geomean(&auto_vs_best) - 1.0, 1.0);
    let vs_worst = geomean(&worst_vs_auto);
    table.emit_with_note(
        args,
        &format!(
            "auto vs per-phase best reachable static: {vs_best:+.1}% geomean; auto\n\
             speedup over per-phase worst static: {vs_worst:.2}x geomean (virtual\n\
             time, deterministic; epoch {epoch} insns, weak-ok policy; PICO-CAS is\n\
             atomicity-class Incorrect, unreachable by policy, excluded from best)"
        ),
    );

    check_guard(args, "armed-idle adaptive", overhead);
}
