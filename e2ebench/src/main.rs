//! The adbt end-to-end benchmark. See `README.md` beside this crate for
//! the workloads, the metrics and how to run it.

mod agg;
mod bigcode;
mod cli;
mod probe;
mod report;
mod trace;
mod workload;

use adbt::engine::VcpuStats;
use bigcode::Rng;
use report::{value, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Layer, Tracer};
use workload::{Cell, Input, Workload};

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Makespan samples (fastest-quarter calls) an untraced run must reach
/// so its p90 has ten samples beyond it.
const MIN_MAKESPANS: usize = 100;
/// Untraced runs last at least this many sweeps, so each cell's fastest
/// quarter holds at least two calls.
const MIN_SWEEPS: usize = 8;

/// One untraced run call of a cell.
#[derive(Clone, Copy, Debug)]
struct Call {
    /// Wall time of the run call.
    ms: f64,
    /// Guest instructions it retired.
    insns: u64,
    /// The host-speed probe timed just before the cell.
    probe_ms: f64,
}

impl Call {
    /// The wall time scaled to the probe's reference speed.
    fn scaled_ms(&self) -> f64 {
        self.ms * probe::REFERENCE_MS / self.probe_ms
    }
}

/// The scaled times of a cell's fastest quarter of run calls, fastest
/// first: what the end-to-end timings read. The host's other tenants
/// only ever add time to a call, so a cell's fastest calls are the ones
/// they disturbed least.
fn fastest_quarter(calls: &[Call]) -> Vec<f64> {
    let mut scaled: Vec<f64> = calls.iter().map(Call::scaled_ms).collect();
    scaled.sort_by(f64::total_cmp);
    scaled.truncate(calls.len().div_ceil(4));
    scaled
}

/// Everything measured in one sweep over the workload's cells.
#[derive(Default)]
struct Sweep {
    setup: Duration,
    /// `setup` with each cell's part scaled by its probe, in seconds.
    setup_scaled_s: f64,
    run: Duration,
    insns: u64,
    stats: VcpuStats,
    instrument_s: f64,
    translations: u64,
    sim_total_units: u64,
    /// Traced mode: the benchmark loop without and with spans, and the
    /// blocks it translated.
    loop_plain: Duration,
    loop_traced: Duration,
    loop_translated: u64,
}

/// What every cell of a run shares.
struct Plan {
    workload: Workload,
    inputs: Vec<Input>,
    cells: Vec<Cell>,
    /// `program/scheme` per cell id.
    labels: Vec<String>,
    traced: bool,
}

/// The whole run's samples.
#[derive(Default)]
struct Samples {
    sweeps: Vec<Sweep>,
    builds_ms: Vec<f64>,
    loads_ms: Vec<f64>,
    /// Per cell id, its run calls in sweep order.
    calls: Vec<Vec<Call>>,
    live_bytes: Vec<f64>,
    sim_makespans: Vec<f64>,
    attempted: u64,
    failed: Vec<String>,
    mismatched: Vec<String>,
    traced_insns: u64,
    ir_ops: u64,
    opt_ops: u64,
    opt_eliminated: u64,
}

impl Samples {
    /// The median over sweeps of a per-sweep quantity.
    fn per_sweep(&self, f: impl Fn(&Sweep) -> f64) -> f64 {
        agg::median(&self.sweeps.iter().map(f).collect::<Vec<_>>())
    }

    fn total_stats(&self) -> VcpuStats {
        let mut total = VcpuStats::default();
        for sweep in &self.sweeps {
            total.merge(&sweep.stats);
        }
        total
    }
}

fn run(args: &cli::Args) -> Result<(), String> {
    // Counted before pinning, which narrows what the process may use.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = probe::pin_to_current_cpu();
    let workload = args.workload;
    let inputs = workload::inputs(workload, args.seed)?;
    let cells = workload::cells(&inputs);
    let labels = cells
        .iter()
        .map(|c| format!("{}/{}", inputs[c.input].name, c.scheme.name()))
        .collect();
    let plan = Plan {
        workload,
        inputs,
        cells,
        labels,
        traced: args.trace,
    };
    let cells = plan.cells.len();
    let mut rng = Rng::new(args.seed);
    let mut tracer = Tracer::default();
    let mut samples = Samples {
        calls: vec![Vec::new(); cells],
        ..Samples::default()
    };
    let start = Instant::now();
    let window = Duration::from_secs(args.seconds);
    loop {
        let mut sweep = Sweep::default();
        for id in workload::sweep_order(cells, &mut rng) {
            run_one(&plan, id, &mut tracer, &mut sweep, &mut samples)?;
        }
        samples.sweeps.push(sweep);
        let makespans: usize = samples.calls.iter().map(|c| c.len().div_ceil(4)).sum();
        let enough =
            args.trace || (samples.sweeps.len() >= MIN_SWEEPS && makespans >= MIN_MAKESPANS);
        if start.elapsed() >= window && enough {
            break;
        }
    }

    let values = if args.trace {
        per_layer(workload, &samples, &tracer)
    } else {
        end_to_end(&samples)?
    };
    let failed = (samples.failed.len() + samples.mismatched.len()) as u64;
    let correct = failed == 0;

    // Human-readable report.
    println!(
        "workload {} seed {} trace {}: {} sweeps x {} cells in {:.1} s",
        workload.name(),
        args.seed,
        args.trace as u8,
        samples.sweeps.len(),
        cells,
        start.elapsed().as_secs_f64()
    );
    for v in &values {
        println!(
            "  {:<34} {:>16.6} {:<8} ({} is better, {}, {} samples)",
            v.spec.name,
            v.value,
            v.spec.unit,
            v.spec.better.name(),
            v.spec.kind.name(),
            v.samples
        );
    }
    println!(
        "  fail_share {:.6} ({} of {} cells failed{})",
        failed as f64 / samples.attempted as f64,
        failed,
        samples.attempted,
        if args.trace { " or mismatched" } else { "" }
    );
    for name in samples.failed.iter().chain(&samples.mismatched) {
        println!("  FAILED {name}");
    }
    if !args.trace {
        let calls: Vec<&Call> = samples.calls.iter().flatten().collect();
        let raw: Vec<f64> = calls.iter().map(|c| c.ms).collect();
        let fast: Vec<f64> = samples
            .calls
            .iter()
            .flat_map(|c| fastest_quarter(c))
            .collect();
        let probes: Vec<f64> = calls.iter().map(|c| c.probe_ms).collect();
        let insns: u64 = calls.iter().map(|c| c.insns).sum();
        println!(
            "  host probe median {:.4} ms (reference {} ms); unscaled, over all calls: \
             setup_s {:.6}, guest_mips {:.6}, makespan p50 {:.6} ms, p90 {:.6} ms",
            agg::median(&probes),
            probe::REFERENCE_MS,
            samples.per_sweep(|w| w.setup.as_secs_f64()),
            insns as f64 / raw.iter().sum::<f64>() / 1e3,
            agg::percentile(&raw, 50.0),
            agg::percentile(&raw, 90.0),
        );
        if let Some(p) = agg::highest_supported(fast.len()) {
            println!(
                "  highest supported makespan percentile: p{p} {:.6} ms ({} fastest-quarter samples)",
                agg::percentile(&fast, p),
                fast.len()
            );
        }
    } else {
        print_trace_summary(&samples, &tracer);
    }

    let out = out_dir()?;
    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name(),
        args.seed,
        args.trace as u8
    );
    let meta = meta(args, &plan.inputs, &samples, cells, nproc, cpu);
    let records: Vec<String> = values.iter().map(report::record).collect();
    let file = out.join(format!("{stem}.json"));
    std::fs::write(
        &file,
        format!(
            "{{\"meta\": {meta}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": [\n  {}\n]}}\n",
            samples.attempted,
            records.join(",\n  ")
        ),
    )
    .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("  record: {}", file.display());
    if args.trace {
        let spans = out.join(format!("{stem}.spans.tsv"));
        tracer
            .write(&spans, &plan.labels)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        println!(
            "  spans: {} ({} child spans beyond the in-memory cap are in the totals only)",
            spans.display(),
            tracer.dropped()
        );
    } else {
        let path = out.join(format!("{stem}.calls.tsv"));
        let mut tsv = String::from("cell\tsweep\tms\tprobe_ms\tinsns\n");
        for (id, calls) in samples.calls.iter().enumerate() {
            for (sweep, c) in calls.iter().enumerate() {
                tsv += &format!(
                    "{}\t{sweep}\t{}\t{}\t{}\n",
                    plan.labels[id], c.ms, c.probe_ms, c.insns
                );
            }
        }
        std::fs::write(&path, tsv).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  calls: {}", path.display());
    }
    println!("meta {meta}");
    println!(
        "{}",
        report::result_line(correct, samples.attempted, failed, &values)
    );
    Ok(())
}

/// Runs one cell untraced and, in traced mode, twice more through the
/// benchmark's own loop (without and with spans), comparing each with
/// the untraced run.
fn run_one(
    plan: &Plan,
    id: usize,
    tracer: &mut Tracer,
    sweep: &mut Sweep,
    samples: &mut Samples,
) -> Result<(), String> {
    let (workload, cell, label) = (plan.workload, plan.cells[id], &plan.labels[id]);
    let input = &plan.inputs[cell.input];
    let probe_ms = probe::probe_ms(workload.spawned_threads());
    let run = workload::run_cell(workload, input, cell.scheme)?;
    samples.attempted += 1;
    if !run.valid {
        samples
            .failed
            .push(format!("{label}: {:?}", run.report.outcomes));
    }
    sweep.setup += run.build + run.load;
    sweep.setup_scaled_s += (run.build + run.load).as_secs_f64() * probe::REFERENCE_MS / probe_ms;
    sweep.run += run.run;
    sweep.insns += run.report.stats.insns;
    sweep.stats.merge(&run.report.stats);
    sweep.instrument_s += run.report.breakdown().instrument_s;
    sweep.translations += run.report.stats.translations;
    samples.builds_ms.push(ms(run.build));
    samples.loads_ms.push(ms(run.load));
    samples.calls[id].push(Call {
        ms: ms(run.run),
        insns: run.report.stats.insns,
        probe_ms,
    });
    samples.live_bytes.push(run.live_bytes as f64);
    if let Some(t) = run.report.sim_time() {
        samples.sim_makespans.push(t as f64);
        sweep.sim_total_units += run.report.sim_breakdown().total();
    }
    if !plan.traced {
        return Ok(());
    }
    let threads = workload.threads();
    let plain = workload::load(input, cell.scheme)?;
    let base = trace::run_loop::<false>(&plain.machine, input, threads, tracer, id as u32);
    drop(plain);
    let loaded = workload::load(input, cell.scheme)?;
    let traced_run = trace::run_loop::<true>(&loaded.machine, input, threads, tracer, id as u32);
    sweep.loop_plain += base.wall;
    sweep.loop_traced += traced_run.wall;
    sweep.loop_translated += traced_run.translated;
    samples.traced_insns += traced_run.insns;
    samples.ir_ops += traced_run.ir_ops;
    samples.opt_ops += traced_run.opt_ops;
    samples.opt_eliminated += traced_run.opt_eliminated;
    // Fidelity: same exit codes and final guest image as the untraced
    // run; on one vCPU, also the same instruction count.
    let same = traced_run.outcomes == run.report.outcomes
        && traced_run.image == run.image
        && (threads > 1 || traced_run.insns == run.report.stats.insns);
    if !same {
        samples.mismatched.push(format!(
            "{label}: traced {:?} vs untraced {:?}",
            traced_run.outcomes, run.report.outcomes
        ));
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The end-to-end metrics. Every timing is scaled by the host-speed
/// probe timed just before its cell (see [`probe`]), and the run-call
/// timings read each cell's [`fastest_quarter`]; peak RSS is not a
/// timing. Guest MIPS sums, over cells, each cell's median instructions
/// and the mean of its fastest quarter of scaled wall times per call.
fn end_to_end(s: &Samples) -> Result<Vec<Value>, String> {
    let (mut makespans, mut insns, mut time) = (Vec::new(), 0.0, 0.0);
    for calls in &s.calls {
        let fast = fastest_quarter(calls);
        time += fast.iter().sum::<f64>() / fast.len() as f64;
        insns += agg::median(&calls.iter().map(|c| c.insns as f64).collect::<Vec<_>>());
        makespans.extend(fast);
    }
    let n = makespans.len();
    if !agg::supports(n, 90.0) {
        return Err(format!("{n} makespan samples cannot support a p90"));
    }
    let sweeps = s.sweeps.len();
    Ok(vec![
        value("setup_s", s.per_sweep(|w| w.setup_scaled_s), sweeps),
        value("guest_mips", insns / time / 1e3, n),
        value("makespan_ms_p50", agg::percentile(&makespans, 50.0), n),
        value("makespan_ms_p90", agg::percentile(&makespans, 90.0), n),
        value("peak_rss_mb", peak_rss_mb()?, 1),
    ])
}

fn per_layer(workload: Workload, s: &Samples, t: &Tracer) -> Vec<Value> {
    let sweeps = s.sweeps.len();
    let cells = s.attempted as usize;
    let st = s.total_stats();
    let (cell_ns, _) = t.total(Layer::Cell);
    let (translate_ns, translate_calls) = t.total(Layer::Translate);
    let (optimize_ns, optimize_calls) = t.total(Layer::Optimize);
    let (run_block_ns, run_block_calls) = t.total(Layer::RunBlock);
    let per_call_us = |ns: u64, calls: u64| ns as f64 / calls.max(1) as f64 / 1e3;
    let sim = workload.sim();
    let sim_pct = |units: u64| {
        if sim {
            agg::pct(
                units as f64,
                s.sweeps.iter().map(|w| w.sim_total_units).sum::<u64>() as f64,
            )
        } else {
            0.0
        }
    };
    let loop_plain: f64 = s.sweeps.iter().map(|w| w.loop_plain.as_secs_f64()).sum();
    let loop_traced: f64 = s.sweeps.iter().map(|w| w.loop_traced.as_secs_f64()).sum();
    vec![
        value("core.build_ms", agg::median(&s.builds_ms), cells),
        value("core.load_ms", agg::median(&s.loads_ms), cells),
        value(
            "frontend.translate_us_per_block",
            per_call_us(translate_ns, translate_calls),
            translate_calls as usize,
        ),
        value(
            "frontend.blocks",
            s.per_sweep(|w| w.loop_translated as f64),
            sweeps,
        ),
        value(
            "frontend.share",
            agg::pct(translate_ns as f64, cell_ns as f64),
            sweeps,
        ),
        value(
            "frontend.ir_ops_per_insn",
            s.ir_ops as f64 / s.traced_insns.max(1) as f64,
            sweeps,
        ),
        value(
            "interp.ns_per_insn",
            run_block_ns as f64 / s.traced_insns.max(1) as f64,
            run_block_calls as usize,
        ),
        value(
            "interp.share",
            agg::pct(run_block_ns as f64, cell_ns as f64),
            sweeps,
        ),
        value(
            "ir_opt.optimize_us_per_block",
            per_call_us(optimize_ns, optimize_calls),
            optimize_calls as usize,
        ),
        value(
            "ir_opt.eliminated_pct",
            agg::pct(s.opt_eliminated as f64, s.opt_ops as f64),
            sweeps,
        ),
        value(
            "tier.insn_pct",
            agg::pct(st.tier_insns as f64, st.insns as f64),
            sweeps,
        ),
        value(
            "tier.promotions",
            s.per_sweep(|w| w.stats.promotions as f64),
            sweeps,
        ),
        value(
            "tier.deopts",
            s.per_sweep(|w| w.stats.deopts as f64),
            sweeps,
        ),
        value(
            "dispatch.chain_pct",
            agg::pct(
                st.chain_follows as f64,
                (st.chain_follows + st.dispatch_lookups) as f64,
            ),
            sweeps,
        ),
        value(
            "dispatch.l1_hit_pct",
            agg::pct(st.l1_hits as f64, st.dispatch_lookups as f64),
            sweeps,
        ),
        value(
            "dispatch.lookups_per_kinsn",
            agg::per_kinsn(st.dispatch_lookups, st.insns),
            sweeps,
        ),
        value(
            "schemes.helper_calls_per_kinsn",
            agg::per_kinsn(st.helper_calls, st.insns),
            sweeps,
        ),
        value(
            "schemes.htable_sets_per_kinsn",
            agg::per_kinsn(st.htable_sets, st.insns),
            sweeps,
        ),
        value(
            "schemes.sc_fail_pct",
            agg::pct(st.sc_failures as f64, st.sc as f64),
            sweeps,
        ),
        value(
            "schemes.instrument_ms",
            s.per_sweep(|w| w.instrument_s * 1e3),
            sweeps,
        ),
        value(
            "exclusive.entries_per_kinsn",
            agg::per_kinsn(st.exclusive_entries, st.insns),
            sweeps,
        ),
        value(
            "exclusive.wait_ms",
            s.per_sweep(|w| w.stats.exclusive_ns as f64 / 1e6),
            sweeps,
        ),
        value(
            "exclusive.lock_wait_ms",
            s.per_sweep(|w| w.stats.lock_wait_ns as f64 / 1e6),
            sweeps,
        ),
        value(
            "mmu.mprotect_ms",
            s.per_sweep(|w| w.stats.mprotect_ns as f64 / 1e6),
            sweeps,
        ),
        value(
            "mmu.page_faults_per_kinsn",
            agg::per_kinsn(st.page_faults, st.insns),
            sweeps,
        ),
        value(
            "mmu.false_sharing_pct",
            agg::pct(st.false_sharing_faults as f64, st.page_faults as f64),
            sweeps,
        ),
        value(
            "htm.abort_pct",
            agg::pct(st.htm_aborts as f64, st.htm_txns as f64),
            sweeps,
        ),
        value("cache.live_bytes", agg::median(&s.live_bytes), cells),
        value(
            "cache.translations",
            s.per_sweep(|w| w.translations as f64),
            sweeps,
        ),
        value(
            "sim.host_ns_per_insn",
            if sim {
                s.per_sweep(|w| w.run.as_nanos() as f64 / w.insns.max(1) as f64)
            } else {
                0.0
            },
            sweeps,
        ),
        value("sim.exclusive_pct", sim_pct(st.sim_exclusive_units), sweeps),
        value(
            "sim.instrument_pct",
            sim_pct(st.sim_instrument_units),
            sweeps,
        ),
        value("sim.mprotect_pct", sim_pct(st.sim_mprotect_units), sweeps),
        value(
            "sim.makespan_units",
            if s.sim_makespans.is_empty() {
                0.0
            } else {
                agg::geomean(&s.sim_makespans)
            },
            s.sim_makespans.len(),
        ),
        value(
            "trace.overhead_pct",
            agg::pct(loop_traced - loop_plain, loop_plain),
            sweeps,
        ),
        value(
            "trace.unattributed_pct",
            agg::pct(t.unattributed_ns() as f64, cell_ns as f64),
            sweeps,
        ),
        value(
            "trace.fidelity_mismatches",
            s.mismatched.len() as f64,
            cells,
        ),
    ]
}

/// The traced time split, largest layer first, plus how the
/// benchmark's loop compares with the engine's own run of the cells.
fn print_trace_summary(s: &Samples, t: &Tracer) {
    let (cell_ns, cells) = t.total(Layer::Cell);
    let mut layers: Vec<(&str, u64)> = Layer::ALL[1..]
        .iter()
        .map(|&l| (l.name(), t.total(l).0))
        .collect();
    layers.push(("unattributed", t.unattributed_ns()));
    layers.sort_by_key(|layer| std::cmp::Reverse(layer.1));
    println!(
        "  traced time {:.3} s over {cells} cells:",
        cell_ns as f64 / 1e9
    );
    for (name, ns) in &layers {
        println!(
            "    {name:<22} {:>8.3} s {:>6.2}%",
            *ns as f64 / 1e9,
            agg::pct(*ns as f64, cell_ns as f64)
        );
    }
    println!(
        "  largest traced layer: {} (interp {} the largest)",
        layers[0].0,
        if layers[0].0 == Layer::RunBlock.name() {
            "is"
        } else {
            "is not"
        }
    );
    let engine: f64 = s.sweeps.iter().map(|w| w.run.as_secs_f64()).sum();
    let plain: f64 = s.sweeps.iter().map(|w| w.loop_plain.as_secs_f64()).sum();
    println!(
        "  benchmark loop without spans {plain:.3} s vs engine run calls {engine:.3} s ({:.2}x)",
        plain / engine
    );
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The benchmark's directory (where `Cargo.toml` is).
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The run's provenance: inputs, host and code identity.
fn meta(
    args: &cli::Args,
    inputs: &[Input],
    s: &Samples,
    cells: usize,
    nproc: usize,
    cpu: Option<usize>,
) -> String {
    let fingerprints: Vec<String> = inputs
        .iter()
        .map(|i| {
            format!(
                "{{\"program\": {}, \"fnv1a\": \"{:016x}\"}}",
                report::string(i.name),
                i.fingerprint
            )
        })
        .collect();
    let cpu = cpu.map_or("null".to_string(), |c| c.to_string());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": {}, \
         \"threads\": {}, \"nproc\": {nproc}, \"pinned_cpu\": {cpu}, \"commit\": {}, \"source_fnv1a\": \"{:016x}\", \
         \"sweeps\": {}, \"cells_per_sweep\": {cells}, \"run_calls\": {}, \"inputs\": [{}]}}",
        report::string(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace as u8,
        args.workload.scale(),
        args.workload.threads(),
        report::string(&commit()),
        source_fingerprint(),
        s.sweeps.len(),
        s.attempted,
        fingerprints.join(", ")
    )
}

/// The checked-out commit read from `.git` beside the benchmark, or
/// `unknown` outside a git checkout.
fn commit() -> String {
    let git = bench_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    match resolved.trim() {
        "" => "unknown".to_string(),
        hash => hash.to_string(),
    }
}

/// FNV-1a over every file under the repository's `crates/`, in path
/// order: identifies the measured code where no commit is available.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let root = bench_dir().join("../crates");
    let mut files = Vec::new();
    walk(&root, &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend_from_slice(
            file.strip_prefix(&root)
                .unwrap_or(&file)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    workload::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_quarter_keeps_the_fastest_scaled_calls() {
        let call = |ms, probe_ms| Call {
            ms,
            insns: 1,
            probe_ms,
        };
        let r = probe::REFERENCE_MS;
        // Five calls keep two (rounded up); the probe scales each one.
        let calls = [
            call(4.0, r),
            call(1.0, 2.0 * r),
            call(3.0, r),
            call(9.0, r),
            call(2.0, r),
        ];
        assert_eq!(fastest_quarter(&calls), vec![0.5, 2.0]);
        assert_eq!(fastest_quarter(&calls[..1]), vec![4.0]);
    }
}
