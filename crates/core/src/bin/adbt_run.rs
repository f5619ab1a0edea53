//! `adbt-run` — run a guest assembly program from the command line.
//!
//! ```text
//! adbt-run <program.s> [--scheme hst] [--threads 4] [--base 0x10000]
//!          [--entry <symbol|addr>] [--sim] [--replay <trace>]
//!          [--fuse-atomics] [--dump <symbol|addr>] [--memory BYTES]
//!          [--stats] [--chaos seed=<u64>,rate=<f64>[,invalidate=<f64>]]
//!          [--watchdog-ms N] [--trace FILE] [--histograms]
//!          [--cache-limit BYTES] [--profile FILE] [--metrics FILE]
//!          [--stats-json]
//! ```
//!
//! Each flag that takes a value may be given once; a repeated one exits
//! 2 with `{flag} given twice` and the usage text.
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
//! A threaded run takes at most 64 vCPUs (each vCPU thread holds one
//! translation-reclamation slot); `--sim` and `--replay` run every vCPU
//! on one host thread and take as many as guest memory has stacks for.
//! The `--trace`, `--profile` and `--metrics` files are created before
//! the machine is built, so an unwritable path exits 2 before the guest
//! runs.
//!
//! `--chaos` and `--watchdog-ms` arm the robustness plane. In a threaded
//! run, a retry loop that fails 32 times in a row — an SC storm, or a
//! PICO-HTM region that keeps aborting — then runs its next LL→SC
//! attempt under a held stop-the-world window, where it must complete.
//! The watchdog samples threaded runs only, so `--watchdog-ms` with
//! `--sim` or `--replay` exits 2.
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
//! instructions for `--sim`/`--replay`; a `--replay` trace also carries
//! each plain guest store, which the checker's oracle judges from the
//! same events). `--histograms` prints the
//! log2-bucketed latency histograms (SC-retry latency, exclusive-entry
//! wait, HTM abort streaks) alongside `--stats`.
//!
//! `--profile FILE` arms the guest-PC contention profiler and writes an
//! `adbt-prof-v2` document after the run: per-vCPU and merged tables
//! splitting by guest address the counter rows that can be charged to
//! one — `sc_failures`, `monitor_clears`, `false_sharing_faults`,
//! `exclusive_entries`, `htm_aborts`, `retired_blocks`,
//! `smc_false_sharing`, `exclusive_ns` and `lock_wait_ns` — with
//! symbols resolved from the image and raw instruction words captured
//! for disassembly. Each column sums (with the overflow bucket) to its
//! `--stats` row; the two `ns` columns stay zero under `--sim` and
//! `--replay`, which measure no wall time. Render it with `adbt_prof
//! FILE` (`--flamegraph` folds it for a flamegraph).
//!
//! `--metrics FILE` writes an `adbt-metrics-v2` JSONL stream: threaded
//! runs are sampled periodically (~20 Hz) while they execute, and every
//! run appends one `"final":true` line carrying the merged stats block,
//! the cache occupancy gauges and the chaos snapshot. Deterministic
//! modes (`--sim`, `--replay`) emit only the final line — mid-run
//! sampling would perturb nothing, but there is nothing concurrent to
//! watch either.
//!
//! `--stats-json` prints the same final snapshot as a single JSON
//! object on stdout instead of the `--stats` text (combining the two is
//! rejected — pick one rendering).

use adbt::engine::{ScriptedScheduler, Unit, MAX_THREADED_VCPUS};
use adbt::observe;
use adbt::profile::{export, ProfileSnapshot};
use adbt::{ChaosCfg, MachineBuilder, SchemeKind, SimCosts, VcpuOutcome, VcpuStats};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: adbt-run <program.s> [--scheme NAME] [--threads N] [--base ADDR]\n\
         \x20               [--entry SYM|ADDR[,SYM…]] [--sim] [--replay TRACE]\n\
         \x20               [--fuse-atomics] [--dump SYM|ADDR]\n\
         \x20               [--memory BYTES] [--stats]\n\
         \x20               [--chaos seed=U64,rate=F64[,invalidate=F64]]\n\
         \x20               [--watchdog-ms N] [--trace FILE] [--histograms]\n\
         \x20               [--cache-limit BYTES] [--profile FILE]\n\
         \x20               [--metrics FILE] [--stats-json]\n\
         each value flag at most once; --watchdog-ms only without --sim/--replay\n\
         schemes: {}",
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

/// Resolves `--scheme`'s argument, or an error that lists every valid
/// name — a bare "unknown scheme" message helps nobody pick the right one.
fn resolve_scheme(name: &str) -> Result<SchemeKind, String> {
    SchemeKind::from_name(name).ok_or_else(|| {
        format!(
            "unknown scheme `{name}`; valid schemes: {}",
            SchemeKind::ALL.map(|k| k.name()).join(", ")
        )
    })
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

/// Builds the `adbt-prof-v2` document from the recorder plus the image
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
    let rows = |snap: &ProfileSnapshot| {
        export::resolve_rows(&snap.entries, |pc| nearest_symbol(image, pc), word)
    };
    let vcpus = rec
        .snapshot_all()
        .into_iter()
        .map(|(tid, snap)| export::ProfVcpu {
            tid,
            rows: rows(&snap),
            overflow: snap.overflow,
        });
    export::ProfDoc {
        scheme: machine.scheme().name().to_string(),
        clock: clock.to_string(),
        metrics: rec.columns().iter().map(|c| c.to_string()).collect(),
        vcpus: vcpus.collect(),
        merged: rows(&rec.merged()),
    }
}

fn main() -> ExitCode {
    let mut source_path: Option<String> = None;
    let mut scheme = SchemeKind::Hst;
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
    let mut trace_out: Option<String> = None;
    let mut histograms = false;
    let mut cache_limit: u64 = 0;
    let mut profile_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut stats_json = false;

    // Each value flag may be given once: repeated, the last would
    // silently win.
    let mut given: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            if given.contains(&arg) {
                eprintln!("{arg} given twice");
                usage()
            }
            given.push(arg.clone());
            args.next().unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--scheme" => {
                let name = value();
                scheme = resolve_scheme(&name).unwrap_or_else(|why| {
                    eprintln!("{why}");
                    usage()
                });
            }
            "--threads" => {
                threads = parse_u32(&value())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--base" => base = parse_u32(&value()).unwrap_or_else(|| usage()),
            "--memory" => memory = parse_u32(&value()).unwrap_or_else(|| usage()),
            "--chaos" => {
                let spec = value();
                chaos = Some(parse_chaos(&spec).unwrap_or_else(|why| {
                    eprintln!("bad --chaos spec `{spec}`: {why}");
                    usage()
                }));
            }
            "--watchdog-ms" => {
                watchdog_ms = value().parse().unwrap_or_else(|_| usage());
                if watchdog_ms == 0 {
                    eprintln!(
                        "--watchdog-ms 0 would silently disarm the watchdog; \
                         omit the flag to run without one"
                    );
                    usage()
                }
            }
            "--replay" => {
                let trace = value();
                replay = Some(ScriptedScheduler::parse(&trace).unwrap_or_else(|why| {
                    eprintln!("bad --replay trace `{trace}`: {why}");
                    usage()
                }));
            }
            "--cache-limit" => {
                cache_limit = value().parse().unwrap_or_else(|_| usage());
                if cache_limit == 0 {
                    eprintln!(
                        "--cache-limit 0 would mean *unlimited* (the engine's \
                         no-limit encoding), not a zero-byte cache; omit the \
                         flag to run unbounded"
                    );
                    usage()
                }
            }
            "--entry" => entry = Some(value()),
            "--dump" => dump = Some(value()),
            "--trace" => trace_out = Some(value()),
            "--profile" => profile_out = Some(value()),
            "--metrics" => metrics_out = Some(value()),
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
    if watchdog_ms > 0 && (sim || replay.is_some()) {
        eprintln!(
            "--watchdog-ms samples threaded runs only; --sim and --replay run \
             every vCPU on one host thread"
        );
        return ExitCode::from(2);
    }
    if threads > MAX_THREADED_VCPUS && !sim && replay.is_none() {
        eprintln!(
            "--threads {threads}: a threaded run takes at most {MAX_THREADED_VCPUS} vCPUs \
             (--sim and --replay take more)"
        );
        usage()
    }
    if let Some(Err(why)) = replay.as_ref().map(|s| s.check_vcpus(threads as usize)) {
        eprintln!("bad --replay trace for --threads {threads}: {why}");
        return ExitCode::from(2);
    }
    if stats && stats_json {
        eprintln!(
            "--stats and --stats-json are mutually exclusive: the text and JSON \
             renderings carry the same snapshot — pick one"
        );
        return ExitCode::from(2);
    }
    // Create every output file now, so a path that cannot be written
    // fails before the run rather than after it.
    let outputs = [&trace_out, &profile_out, &metrics_out];
    for path in outputs.into_iter().flatten() {
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("cannot create {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let mut builder = MachineBuilder::new(scheme)
        .memory(memory)
        .fuse_atomics(fuse)
        .chaos(chaos)
        .watchdog_ms(watchdog_ms)
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
            "cache: live_blocks={} limbo_blocks={} bytes={} peak_bytes={} limit={} \
             segments_freed={}",
            occ.live_blocks,
            occ.limbo_blocks,
            occ.arena_bytes,
            occ.peak_bytes,
            cache_limit,
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
    fn scheme_argument_resolves_static_names_and_rejects_auto() {
        assert_eq!(resolve_scheme("hst"), Ok(SchemeKind::Hst));
        assert_eq!(resolve_scheme("pico-cas"), Ok(SchemeKind::PicoCas));
        for retired in ["auto", "AUTO"] {
            let why = resolve_scheme(retired).unwrap_err();
            assert!(
                why.starts_with(&format!("unknown scheme `{retired}`")),
                "{why}"
            );
            let names: Vec<&str> = why
                .split_once("valid schemes: ")
                .unwrap()
                .1
                .split(", ")
                .collect();
            assert_eq!(names, SchemeKind::ALL.map(|k| k.name()), "{why}");
        }
    }

    #[test]
    fn unknown_scheme_error_lists_every_valid_name() {
        let why = resolve_scheme("hts").unwrap_err();
        for kind in SchemeKind::ALL {
            assert!(why.contains(kind.name()), "missing {}: {why}", kind.name());
        }
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
