//! `adbt-run` — run a guest assembly program from the command line.
//!
//! ```text
//! adbt-run <program.s> [--scheme hst|auto] [--threads 4] [--base 0x10000]
//!          [--entry <symbol|addr>] [--sim] [--replay <trace>]
//!          [--fuse-atomics] [--dump <symbol|addr>] [--memory BYTES]
//!          [--stats] [--chaos seed=<u64>,rate=<f64>[,invalidate=<f64>]]
//!          [--watchdog-ms N] [--htm-degrade-after N] [--trace FILE]
//!          [--histograms] [--cache-limit BYTES] [--profile FILE]
//!          [--metrics FILE]
//!          [--stats-json] [--adapt-epoch N] [--adapt-policy strong|weak-ok]
//!          [--adapt-log FILE] [--no-adapt]
//! ```
//!
//! The program is assembled at `--base`, each vCPU starts at `--entry`
//! (default: the image base) with the launch ABI (r0 = thread index,
//! r1 = thread count, sp = a private stack), and the process exit code
//! is the first non-zero guest exit code (0 if all succeed). `--entry`
//! also accepts a comma-separated list assigned to vCPUs round-robin,
//! for programs whose threads run different code.
//!
//! `--replay` takes a schedule trace in the `VxN,…,V` segment form the
//! interleaving checker (`adbt_check`) prints for a violation, and runs
//! it deterministically on the scheduled engine (one guest instruction
//! per atom, same as the checker), so a found interleaving bug can be
//! re-executed and inspected outside the checker.
//!
//! `--cache-limit` bounds the translation cache to the given number of
//! bytes: under pressure the engine flushes generationally (oldest
//! translations first) and retranslates on demand.
//! `0` is rejected — the engine reads a zero limit as *unlimited*, the
//! opposite of what typing `--cache-limit 0` means — as is any budget
//! smaller than one arena segment. The `invalidate=` chaos key arms the
//! invalidation storm: each dispatch rolls that rate for a forced
//! retirement of the current translation, exercising the SMC and
//! reclamation machinery without needing self-modifying guest code.
//!
//! `--trace FILE` arms the flight recorder and writes the run's events
//! as Chrome trace-event JSON (load it in Perfetto or `chrome://tracing`;
//! timestamps are wall nanoseconds for threaded runs and retired
//! instructions for `--sim`/`--replay`). `--histograms` prints the
//! log2-bucketed latency histograms (SC-retry latency, exclusive-entry
//! wait, HTM abort streaks) alongside `--stats`.
//!
//! `--profile FILE` arms the guest-PC contention profiler and writes an
//! `adbt-prof-v1` document after the run: per-vCPU and merged tables
//! attributing SC failures, exclusive waits, HTM aborts, monitor
//! clears and invalidations to guest addresses, with
//! symbols resolved from the image and raw instruction words captured
//! for disassembly. Render it with `adbt_prof FILE` (`--flamegraph`
//! folds it for a flamegraph).
//!
//! `--metrics FILE` writes an `adbt-metrics-v1` JSONL stream: threaded
//! runs are sampled periodically (~20 Hz) while they execute, and every
//! run appends one `"final":true` line carrying the merged stats block,
//! cache occupancy, exclusive-barrier telemetry, HTM counters and the
//! chaos snapshot. Deterministic modes (`--sim`, `--replay`) emit only
//! the final line — mid-run sampling would perturb nothing, but there
//! is nothing concurrent to watch either.
//!
//! `--stats-json` prints the same final snapshot as a single JSON
//! object on stdout instead of the `--stats` text (combining the two is
//! rejected — pick one rendering).
//!
//! `--scheme auto` arms **adaptive mode**: all eight schemes are
//! installed as migration candidates and the online arbiter
//! (`adbt-adapt`) moves the machine between them as the workload's
//! observed profile shifts — contended LL/SC toward HST, HTM abort
//! storms away from the HTM schemes, fault storms away from the PST
//! family. `--adapt-epoch N` sets the retired-instruction epoch between
//! arbitrations (default 20000), `--adapt-policy strong|weak-ok` the
//! atomicity-class lattice migrations may traverse (default `strong`:
//! never weaken), and `--adapt-log FILE` retains the `adbt-adapt-v1`
//! decision log. `--no-adapt` documents that a run is deliberately
//! static; combining it with `--scheme auto` is rejected, as are the
//! `--adapt-*` flags without `--scheme auto` (they would be silently
//! ignored).

use adbt::engine::{ScriptedScheduler, Unit};
use adbt::observe;
use adbt::profile::export;
use adbt::{
    AdaptConfig, AdaptPolicy, ChaosCfg, MachineBuilder, SchemeKind, SimCosts, VcpuOutcome,
    VcpuStats,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: adbt-run <program.s> [--scheme NAME] [--threads N] [--base ADDR]\n\
         \x20               [--entry SYM|ADDR[,SYM…]] [--sim] [--replay TRACE]\n\
         \x20               [--fuse-atomics] [--dump SYM|ADDR]\n\
         \x20               [--memory BYTES] [--stats]\n\
         \x20               [--chaos seed=U64,rate=F64[,invalidate=F64]]\n\
         \x20               [--watchdog-ms N] [--htm-degrade-after N]\n\
         \x20               [--trace FILE] [--histograms]\n\
         \x20               [--cache-limit BYTES] [--profile FILE]\n\
         \x20               [--metrics FILE] [--stats-json]\n\
         \x20               [--adapt-epoch N] [--adapt-policy strong|weak-ok]\n\
         \x20               [--adapt-log FILE] [--no-adapt]\n\
         schemes: {}, auto",
        SchemeKind::ALL.map(|k| k.name()).join(", ")
    );
    std::process::exit(2)
}

/// Parses and validates `seed=<u64>,rate=<f64>[,invalidate=<f64>]`
/// (any order; `seed` and `rate` required, each key at most once).
///
/// Validation is strict *before* [`ChaosCfg::new`] ever sees the
/// values: `ChaosCfg` clamps its rates to [0, 1] for internal callers,
/// which on the command line would silently turn a typo like
/// `rate=1e9` (or `rate=NaN`) into a full-blast or zero-rate campaign.
fn parse_chaos(text: &str) -> Result<ChaosCfg, String> {
    let mut seed: Option<u64> = None;
    let mut rate: Option<f64> = None;
    let mut invalidate: Option<f64> = None;
    let parse_rate = |key: &str, value: &str| -> Result<f64, String> {
        let parsed: f64 = value
            .parse()
            .map_err(|_| format!("bad {key} `{value}` (want a float in [0, 1])"))?;
        if !parsed.is_finite() || !(0.0..=1.0).contains(&parsed) {
            return Err(format!("{key} `{value}` is outside [0, 1]"));
        }
        Ok(parsed)
    };
    for part in text.split(',') {
        let Some((key, value)) = part.split_once('=') else {
            return Err(format!("`{part}` is not a key=value pair"));
        };
        let value = value.trim();
        match key.trim() {
            "seed" => {
                if seed.is_some() {
                    return Err("duplicate `seed` key".to_string());
                }
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seed `{value}` (want a u64)"))?,
                );
            }
            "rate" => {
                if rate.is_some() {
                    return Err("duplicate `rate` key".to_string());
                }
                rate = Some(parse_rate("rate", value)?);
            }
            "invalidate" => {
                if invalidate.is_some() {
                    return Err("duplicate `invalidate` key".to_string());
                }
                invalidate = Some(parse_rate("invalidate", value)?);
            }
            other => {
                return Err(format!(
                    "unknown key `{other}` (want seed, rate, invalidate)"
                ))
            }
        }
    }
    match (seed, rate) {
        (Some(seed), Some(rate)) => {
            let mut cfg = ChaosCfg::new(seed, rate);
            if let Some(storm) = invalidate {
                cfg = cfg.with_invalidate(storm);
            }
            Ok(cfg)
        }
        (None, _) => Err("missing `seed`".to_string()),
        (_, None) => Err("missing `rate`".to_string()),
    }
}

/// Resolves `--scheme`'s argument: a static scheme, `auto` (adaptive
/// mode, `Ok(None)`), or an error that lists every valid name — a bare
/// "unknown scheme" message helps nobody pick the right one.
fn resolve_scheme(name: &str) -> Result<Option<SchemeKind>, String> {
    if name.eq_ignore_ascii_case("auto") {
        return Ok(None);
    }
    match SchemeKind::from_name(name) {
        Some(kind) => Ok(Some(kind)),
        None => Err(format!(
            "unknown scheme `{name}`; valid schemes: {}, auto",
            SchemeKind::ALL.map(|k| k.name()).join(", ")
        )),
    }
}

fn parse_u32(text: &str) -> Option<u32> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

/// Nearest preceding symbol for a guest PC, rendered `name+0xOFF`
/// (bare name at the symbol itself, `?` when nothing precedes the PC).
/// Ties on the same address resolve to the lexicographically smallest
/// name so the output is stable across the hash map's iteration order.
fn nearest_symbol(image: &adbt::Image, pc: u32) -> String {
    let mut best: Option<(&str, u32)> = None;
    for (name, &addr) in &image.symbols {
        if addr > pc {
            continue;
        }
        let better = match best {
            None => true,
            Some((bname, baddr)) => addr > baddr || (addr == baddr && name.as_str() < bname),
        };
        if better {
            best = Some((name, addr));
        }
    }
    match best {
        Some((name, addr)) if addr == pc => name.to_string(),
        Some((name, addr)) => format!("{name}+{:#x}", pc - addr),
        None => "?".to_string(),
    }
}

/// Builds the `adbt-prof-v1` document from the recorder plus the image
/// (symbols) and post-run guest memory (instruction words — SMC patches
/// show up as the *final* word at the PC, which is what a human reading
/// the disassembly context wants).
fn build_prof_doc(machine: &adbt::Machine, clock: &str) -> export::ProfDoc {
    let rec = machine
        .core()
        .profile
        .as_ref()
        .expect("caller armed the profiler");
    let image = machine.image().expect("image loaded");
    let word = |pc: u32| machine.read_word(pc).unwrap_or(0);
    let vcpus = rec
        .snapshot_all()
        .into_iter()
        .map(|(tid, snap)| export::ProfVcpu {
            tid,
            rows: export::resolve_rows(&snap.entries, |pc| nearest_symbol(image, pc), word),
            overflow: snap.overflow,
        })
        .collect();
    let merged = rec.merged();
    export::ProfDoc {
        scheme: machine.scheme_label().to_string(),
        clock: clock.to_string(),
        vcpus,
        merged: export::resolve_rows(&merged.entries, |pc| nearest_symbol(image, pc), word),
    }
}

fn main() -> ExitCode {
    let mut source_path: Option<String> = None;
    // `None` = `--scheme auto` (adaptive mode).
    let mut scheme: Option<SchemeKind> = Some(SchemeKind::Hst);
    let mut threads: u32 = 1;
    let mut base: u32 = 0x1_0000;
    let mut entry: Option<String> = None;
    let mut dump: Option<String> = None;
    let mut memory: u32 = 32 << 20;
    let mut sim = false;
    let mut replay: Option<ScriptedScheduler> = None;
    let mut fuse = false;
    let mut stats = false;
    let mut chaos: Option<ChaosCfg> = None;
    let mut watchdog_ms: u64 = 0;
    let mut htm_degrade_after: u64 = 0;
    let mut trace_out: Option<String> = None;
    let mut histograms = false;
    let mut cache_limit: u64 = 0;
    let mut profile_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut stats_json = false;
    let mut adapt_epoch: Option<u64> = None;
    let mut adapt_policy: Option<AdaptPolicy> = None;
    let mut adapt_log_out: Option<String> = None;
    let mut no_adapt = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scheme" => {
                let name = args.next().unwrap_or_else(|| usage());
                scheme = resolve_scheme(&name).unwrap_or_else(|why| {
                    eprintln!("{why}");
                    usage()
                });
            }
            "--adapt-epoch" => {
                adapt_epoch = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
                if adapt_epoch == Some(0) {
                    eprintln!(
                        "--adapt-epoch 0 would arbitrate at every dispatch; the epoch \
                         must be at least 1 retired instruction"
                    );
                    usage()
                }
            }
            "--adapt-policy" => {
                let name = args.next().unwrap_or_else(|| usage());
                adapt_policy = Some(AdaptPolicy::from_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown --adapt-policy `{name}` (want strong or weak-ok)");
                    usage()
                }));
            }
            "--adapt-log" => adapt_log_out = Some(args.next().unwrap_or_else(|| usage())),
            "--no-adapt" => no_adapt = true,
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| parse_u32(&v))
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--base" => {
                base = args
                    .next()
                    .and_then(|v| parse_u32(&v))
                    .unwrap_or_else(|| usage())
            }
            "--memory" => {
                memory = args
                    .next()
                    .and_then(|v| parse_u32(&v))
                    .unwrap_or_else(|| usage())
            }
            "--chaos" => {
                let spec = args.next().unwrap_or_else(|| usage());
                chaos = Some(parse_chaos(&spec).unwrap_or_else(|why| {
                    eprintln!("bad --chaos spec `{spec}`: {why}");
                    usage()
                }));
            }
            "--watchdog-ms" => {
                watchdog_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if watchdog_ms == 0 {
                    eprintln!(
                        "--watchdog-ms 0 would silently disarm the watchdog; \
                         omit the flag to run without one"
                    );
                    usage()
                }
            }
            "--replay" => {
                let trace = args.next().unwrap_or_else(|| usage());
                replay = Some(ScriptedScheduler::parse(&trace).unwrap_or_else(|why| {
                    eprintln!("bad --replay trace `{trace}`: {why}");
                    usage()
                }));
            }
            "--htm-degrade-after" => {
                htm_degrade_after = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--cache-limit" => {
                cache_limit = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if cache_limit == 0 {
                    eprintln!(
                        "--cache-limit 0 would mean *unlimited* (the engine's \
                         no-limit encoding), not a zero-byte cache; omit the \
                         flag to run unbounded"
                    );
                    usage()
                }
            }
            "--entry" => entry = Some(args.next().unwrap_or_else(|| usage())),
            "--dump" => dump = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--profile" => profile_out = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics" => metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            "--sim" => sim = true,
            "--fuse-atomics" => fuse = true,
            "--stats" => stats = true,
            "--stats-json" => stats_json = true,
            "--histograms" => histograms = true,
            "--help" | "-h" => usage(),
            path if !path.starts_with('-') && source_path.is_none() => {
                source_path = Some(path.to_string());
            }
            other => {
                eprintln!("unexpected argument `{other}`");
                usage()
            }
        }
    }
    let Some(path) = source_path else { usage() };

    let source = match std::fs::read_to_string(&path) {
        Ok(source) => source,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    if replay.is_some() && sim {
        eprintln!("--replay and --sim are mutually exclusive");
        return ExitCode::from(2);
    }
    if let Some(Err(why)) = replay.as_ref().map(|s| s.check_vcpus(threads as usize)) {
        eprintln!("bad --replay trace for --threads {threads}: {why}");
        return ExitCode::from(2);
    }
    if scheme.is_none() && no_adapt {
        eprintln!(
            "--scheme auto contradicts --no-adapt: auto *is* the adaptive mode; \
             pick a static scheme to run without the arbiter"
        );
        return ExitCode::from(2);
    }
    if scheme.is_some() {
        // Adapt knobs on a static machine would be silently ignored —
        // same strict-validation discipline as `--cache-limit 0`.
        let stray = [
            ("--adapt-epoch", adapt_epoch.is_some()),
            ("--adapt-policy", adapt_policy.is_some()),
            ("--adapt-log", adapt_log_out.is_some()),
        ]
        .into_iter()
        .find_map(|(flag, set)| set.then_some(flag));
        if let Some(flag) = stray {
            eprintln!("{flag} has no effect without --scheme auto");
            return ExitCode::from(2);
        }
    }
    if stats && stats_json {
        eprintln!(
            "--stats and --stats-json are mutually exclusive: the text and JSON \
             renderings carry the same snapshot — pick one"
        );
        return ExitCode::from(2);
    }

    let mut builder = match scheme {
        Some(kind) => MachineBuilder::new(kind),
        None => {
            let mut cfg = AdaptConfig::default();
            if let Some(epoch) = adapt_epoch {
                cfg.epoch_insns = epoch;
            }
            if let Some(policy) = adapt_policy {
                cfg.policy = policy;
            }
            cfg.log = adapt_log_out.is_some();
            // HST first: the paper's headline strong scheme is the
            // sensible prior until the profile says otherwise.
            MachineBuilder::adaptive(SchemeKind::Hst, cfg)
        }
    }
    .memory(memory)
    .fuse_atomics(fuse)
    .chaos(chaos)
    .watchdog_ms(watchdog_ms)
    .htm_degrade_after(htm_degrade_after)
    .trace(trace_out.is_some() || histograms)
    .profile(profile_out.is_some() || metrics_out.is_some())
    .cache_limit(cache_limit);
    if replay.is_some() {
        // Checker traces count atoms at instruction granularity; replay
        // must translate the same single-instruction blocks.
        builder = builder.max_block_insns(1);
    }
    let mut machine = match builder.build() {
        Ok(machine) => machine,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if !machine.core().fits_vcpus(threads) {
        eprintln!("--threads {threads}: the vCPU stacks do not fit in --memory {memory}");
        usage()
    }
    if let Err(e) = machine.load_asm(&source, base) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }

    let resolve = |machine: &adbt::Machine, text: &str| -> Option<u32> {
        parse_u32(text).or_else(|| machine.symbol(text).ok())
    };

    if let Some(target) = dump {
        let Some(addr) = resolve(&machine, &target) else {
            eprintln!("cannot resolve `{target}`");
            return ExitCode::from(2);
        };
        match machine.core().dump_block(addr) {
            Ok(text) => {
                print!("{text}");
                return ExitCode::SUCCESS;
            }
            Err(trap) => {
                eprintln!("cannot translate {addr:#x}: {trap}");
                return ExitCode::from(2);
            }
        }
    }

    // `--entry` takes one entry, or a comma-separated list assigned
    // per-vCPU round-robin (`--entry victim,attacker --threads 2`) —
    // the form checker litmuses with asymmetric threads need.
    let mut entry_addrs: Vec<u32> = Vec::new();
    match &entry {
        Some(text) => {
            for part in text.split(',') {
                match resolve(&machine, part.trim()) {
                    Some(addr) => entry_addrs.push(addr),
                    None => {
                        eprintln!("cannot resolve entry `{part}`");
                        return ExitCode::from(2);
                    }
                }
            }
        }
        None => entry_addrs.push(base),
    }
    let mut vcpus = machine.make_vcpus(threads, entry_addrs[0]);
    for (i, vcpu) in vcpus.iter_mut().enumerate() {
        vcpu.pc = entry_addrs[i % entry_addrs.len()];
    }

    // Deterministic modes stamp trace events with retired-instruction
    // counts instead of wall time (see `ExecCtx::trace_ts`).
    let deterministic = sim || replay.is_some();

    let run_start = Instant::now();
    let mut metric_lines: Vec<String> = Vec::new();
    let report = if let Some(mut sched) = replay {
        let report = machine.run_scheduled(vcpus, &mut sched, 10_000_000);
        eprintln!("replayed schedule: {}", sched.trace());
        report
    } else if sim {
        machine.core().run_sim(vcpus, &SimCosts::default())
    } else if metrics_out.is_some() {
        // The sampling loop lives in `adbt::observe` so its flush
        // discipline is testable; it appends the final snapshot itself,
        // on every exit path including a watchdog halt.
        let (report, lines) = observe::run_with_metrics(&machine, vcpus, Duration::from_millis(50));
        metric_lines = lines;
        report
    } else {
        machine.run_vcpus(vcpus)
    };

    if !report.output.is_empty() {
        print!("{}", report.output_string());
    }
    if stats {
        let s = &report.stats;
        // One line per unit, each listing its rows in table order.
        for (unit, label) in [
            (Unit::Count, "count"),
            (Unit::Ns, "ns (wall clock, non-deterministic)"),
            (Unit::Units, "units"),
        ] {
            let cells: Vec<String> = VcpuStats::COUNTERS
                .iter()
                .filter(|row| row.unit == unit)
                .map(|row| format!("{}={}", row.name, row.get(s)))
                .collect();
            eprintln!("{label}: {}", cells.join(" "));
        }
        let occ = machine.core().cache_occupancy();
        eprintln!(
            "cache: live_blocks={} bytes={} peak_bytes={} limit={} invalidations={} \
             flushes={} retired={} reclaimed={} segments_freed={}",
            occ.live_blocks,
            occ.arena_bytes,
            occ.peak_bytes,
            cache_limit,
            occ.invalidations,
            occ.flushes,
            occ.retired_blocks,
            occ.reclaimed_blocks,
            occ.reclaimed_segments,
        );
        let pct = |num: u64, den: u64| {
            if den == 0 {
                "n/a".to_string()
            } else {
                format!("{:.1}%", 100.0 * num as f64 / den as f64)
            }
        };
        eprintln!(
            "ratios: chain_follow={} l1_hit={} sc_failure={} htm_abort={}",
            pct(s.chain_follows, s.chain_follows + s.dispatch_lookups),
            pct(s.l1_hits, s.dispatch_lookups),
            pct(s.sc_failures, s.sc),
            pct(s.htm_aborts, s.htm_txns),
        );
        if machine.is_adaptive() {
            eprintln!("adapt: final_scheme={}", machine.active_scheme_name());
        }
        if let Some(snapshot) = &report.chaos {
            let sites = snapshot
                .fired()
                .map(|(site, n)| format!("{}={n}", site.name()))
                .collect::<Vec<_>>()
                .join(" ");
            eprintln!("chaos_total={} {}", snapshot.total(), sites);
        }
        if report.sim_time().is_some() {
            let b = report.sim_breakdown();
            eprintln!(
                "sim_breakdown: native={} exclusive={} instrument={} mprotect={}",
                b.native, b.exclusive, b.instrument, b.mprotect,
            );
            if b.residue < 0 {
                eprintln!(
                    "warning: breakdown-residue={} — attributed units exceed total \
                     CPU units (a bucket over-charged; native clamped to 0)",
                    b.residue,
                );
            }
        } else {
            eprintln!("wall={:?}", report.wall);
        }
    }
    if stats_json {
        // The same snapshot the final `--metrics` line carries, as one
        // JSON object on stdout (machine-readable `--stats`).
        println!(
            "{}",
            observe::final_metrics_line(
                &machine,
                &report,
                0,
                run_start.elapsed().as_nanos() as u64
            )
        );
    }
    if histograms {
        if let Some(rec) = &machine.core().trace {
            let unit = if deterministic { "insns" } else { "ns" };
            eprint!("{}", rec.hists.render(unit));
        }
    }

    if let Some(out) = &trace_out {
        if let Some(rec) = &machine.core().trace {
            let clock = if deterministic {
                adbt::trace::chrome::Clock::Insns
            } else {
                adbt::trace::chrome::Clock::Nanos
            };
            let json = adbt::trace::chrome::render_with_extras(
                &rec.snapshot_all(),
                clock,
                &[("histograms", rec.hists.to_json())],
            );
            if let Err(e) = std::fs::write(out, json) {
                eprintln!("cannot write trace to {out}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(out) = &profile_out {
        let clock = if deterministic { "insns" } else { "ns" };
        let doc = build_prof_doc(&machine, clock);
        if let Err(e) = std::fs::write(out, export::render(&doc)) {
            eprintln!("cannot write profile to {out}: {e}");
            return ExitCode::from(2);
        }
    }

    if let Some(out) = &metrics_out {
        if metric_lines.is_empty() {
            // Deterministic modes (`--sim`, `--replay`) bypass the
            // sampling loop and emit only the final line.
            metric_lines.push(observe::final_metrics_line(
                &machine,
                &report,
                0,
                run_start.elapsed().as_nanos() as u64,
            ));
        }
        let mut text = metric_lines.join("\n");
        text.push('\n');
        if let Err(e) = std::fs::write(out, text) {
            eprintln!("cannot write metrics to {out}: {e}");
            return ExitCode::from(2);
        }
    }

    if let Some(out) = &adapt_log_out {
        let mut text = machine.adapt_log().join("\n");
        text.push('\n');
        if let Err(e) = std::fs::write(out, text) {
            eprintln!("cannot write adapt log to {out}: {e}");
            return ExitCode::from(2);
        }
    }

    if let Some(dump) = &report.watchdog {
        eprintln!(
            "watchdog: no vCPU progressed for {watchdog_ms} ms; stalled tids {:?}",
            dump.stalled_tids
        );
        eprint!("{}", dump.report);
    }

    let mut exit = 0;
    for (i, outcome) in report.outcomes.iter().enumerate() {
        match outcome {
            VcpuOutcome::Exited(code) => {
                if *code != 0 && exit == 0 {
                    exit = (*code & 0xff) as u8;
                }
            }
            other => {
                eprintln!("vcpu {i}: {other:?}");
                if exit == 0 {
                    exit = 101;
                }
            }
        }
    }
    ExitCode::from(exit)
}

#[cfg(test)]
mod tests {
    use super::{parse_chaos, resolve_scheme};
    use adbt::SchemeKind;

    #[test]
    fn scheme_argument_resolves_static_names_and_auto() {
        assert_eq!(resolve_scheme("hst"), Ok(Some(SchemeKind::Hst)));
        assert_eq!(resolve_scheme("pico-cas"), Ok(Some(SchemeKind::PicoCas)));
        assert_eq!(resolve_scheme("auto"), Ok(None));
        assert_eq!(resolve_scheme("AUTO"), Ok(None));
    }

    #[test]
    fn unknown_scheme_error_lists_every_valid_name() {
        let why = resolve_scheme("hts").unwrap_err();
        for kind in SchemeKind::ALL {
            assert!(why.contains(kind.name()), "missing {}: {why}", kind.name());
        }
        assert!(why.contains("auto"), "{why}");
        assert!(why.contains("`hts`"), "{why}");
    }

    #[test]
    fn chaos_spec_round_trips() {
        assert!(parse_chaos("seed=42,rate=0.5").is_ok());
        assert!(parse_chaos("rate=1,seed=0").is_ok());
        assert!(parse_chaos(" seed = 7 , rate = 0 ").is_ok());
        let cfg = parse_chaos("seed=42,rate=0,invalidate=0.05").unwrap();
        assert_eq!(cfg.invalidate, 0.05);
        // Omitted storm key keeps the storm off.
        assert_eq!(parse_chaos("seed=42,rate=0.5").unwrap().invalidate, 0.0);
    }

    #[test]
    fn chaos_spec_rejects_out_of_range_rates_instead_of_clamping() {
        for bad in [
            "seed=1,rate=1.5",
            "seed=1,rate=-0.1",
            "seed=1,rate=NaN",
            "seed=1,rate=inf",
        ] {
            let why = parse_chaos(bad).unwrap_err();
            assert!(
                why.contains("[0, 1]") || why.contains("outside"),
                "{bad}: {why}"
            );
        }
    }

    #[test]
    fn chaos_spec_rejects_malformed_input() {
        assert!(parse_chaos("").is_err());
        assert!(parse_chaos("seed=1").is_err());
        assert!(parse_chaos("rate=0.5").is_err());
        assert!(parse_chaos("seed=1,rate=0.5,rate=0.7").is_err());
        assert!(parse_chaos("seed=1,seed=2,rate=0.5").is_err());
        assert!(parse_chaos("seed=1,rate=0.5,").is_err());
        assert!(parse_chaos("seed=1,rate=0.5,extra=9").is_err());
        assert!(parse_chaos("seed=-1,rate=0.5").is_err());
        assert!(parse_chaos("seed=1 rate=0.5").is_err());
    }

    #[test]
    fn chaos_spec_validates_the_storm_key_like_the_base_rate() {
        assert!(parse_chaos("seed=1,rate=0,invalidate=1.5").is_err());
        assert!(parse_chaos("seed=1,rate=0,invalidate=NaN").is_err());
        assert!(parse_chaos("seed=1,rate=0,invalidate=-0.1").is_err());
        assert!(parse_chaos("seed=1,rate=0,invalidate=0.1,invalidate=0.2").is_err());
        let why = parse_chaos("seed=1,rate=0,invalidat=0.1").unwrap_err();
        assert!(why.contains("want seed, rate, invalidate"), "{why}");
    }
}
