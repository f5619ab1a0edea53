//! The paper's evaluation artefacts (`DESIGN.md` §5, `EXPERIMENTS.md`).
//! Everything but `aba --threaded` runs deterministically, in virtual
//! time or lockstep, so `ci.sh` regenerates each committed
//! `results/*.csv` and compares it byte for byte.

use adbt::harness::{expected_behaviour, run_litmus, run_stack, run_stack_sim};
use adbt::workloads::litmus::{Expectation, Seq};
use adbt::workloads::parsec::Program;
use adbt::workloads::stack::StackConfig;
use adbt::SchemeKind::{self, Hst, HstHtm, HstWeak, PicoCas, PicoHtm, PicoSt, Pst, PstRemap};
use adbt::{MachineConfig, VcpuOutcome};
use adbt_bench::{
    fmt_f64, geomean, livelocked, pct, pct_cell, thread_ladder, Args, Cell, Sweep, Table,
};

/// E1 — §IV-A: the multi-threaded lock-free stack under every scheme,
/// reporting ABA corruption rates. The paper runs 16 threads × 0xFFFFF
/// pop/push pairs and reports that only QEMU-4.1 (PICO-CAS) corrupts,
/// with ~4% of entries exhibiting the self-`next` ABA witness.
pub fn aba(args: &Args) {
    let threads: u32 = args.get("threads");
    let ops: u32 = args.get("ops");
    let nodes: u32 = args.get("nodes");
    let stall: u32 = args.get("stall");
    let victim_stall: u32 = args.get("victim-stall");
    let reps: u32 = args.get("reps");
    // Default: simulated multicore (deterministic, host-independent);
    // --threaded runs on real OS threads instead.
    let threaded = args.flag("threaded");
    let config = StackConfig {
        nodes,
        ops_per_thread: ops,
        stall,
        victim_stall,
    };

    println!(
        "lock-free stack: {threads} threads x {ops} pop/push pairs, {nodes} nodes, \
         stall {stall}, victim-stall {victim_stall}, {reps} reps, {} mode\n",
        if threaded { "threaded" } else { "simulated" }
    );
    let mut table = Table::default();
    for kind in SchemeKind::ALL {
        let mut corrupted = 0u32;
        let mut aba_fraction_sum = 0.0;
        let mut lost = 0u32;
        let mut livelocked = 0u32;
        let mut crashed = 0u32;
        for _ in 0..reps {
            let run = if threaded {
                run_stack(kind, threads, config)
            } else {
                run_stack_sim(kind, threads, config)
            }
            .expect("machine construction");
            let mut run_livelocked = 0;
            for outcome in &run.report.outcomes {
                match outcome {
                    VcpuOutcome::Livelocked { .. } => run_livelocked += 1,
                    VcpuOutcome::Crashed(_) => crashed += 1,
                    VcpuOutcome::Exited(_) => {}
                }
            }
            livelocked += run_livelocked;
            // A livelocked vCPU legitimately holds its popped node in a
            // register, so "lost" nodes alone do not indicate ABA when
            // progress failed; self-loops, cycles and wild pointers are
            // corruption witnesses regardless.
            let structural_corruption = run.verdict.self_loops > 0
                || run.verdict.cycle
                || run.verdict.wild_pointer
                || (run.verdict.lost > run_livelocked);
            if structural_corruption {
                corrupted += 1;
            }
            aba_fraction_sum += run.verdict.aba_entry_fraction(run.nodes);
            lost += run.verdict.lost;
        }
        let verdict = match (corrupted + crashed, livelocked) {
            (0, 0) => "ABA test passed",
            (0, _) => "no ABA (livelocks under contention)",
            _ => "STACK CORRUPTED (ABA)",
        };
        let aba_pct = pct(aba_fraction_sum, reps as f64);
        table.row([
            ("scheme", kind.name().to_string()),
            ("runs", reps.to_string()),
            ("corrupted", corrupted.to_string()),
            ("aba_entries_pct", format!("{aba_pct:.2}")),
            ("lost_nodes", lost.to_string()),
            ("livelocked", livelocked.to_string()),
            ("crashed", crashed.to_string()),
            ("verdict", verdict.to_string()),
        ]);
    }
    table.emit_with_note(
        args,
        "paper expectation: only pico-cas corrupts (~4% ABA entries at the paper's\n\
         scale); every proposed scheme passes; pico-htm may stop making progress\n\
         at high thread counts (its documented livelock).",
    );
}

/// E2/E7 — Table II: the qualitative scheme matrix (speed / atomicity /
/// portability), plus the executed §IV-A litmus verdicts backing the
/// atomicity column.
pub fn table2(args: &Args) {
    println!("Table II — qualitative comparison (paper §VII):\n");
    let mut table = Table::default();
    for kind in SchemeKind::ALL {
        table.row([
            ("approach", kind.name().to_string()),
            ("speed", kind.speed_label().to_string()),
            ("atomicity", kind.atomicity().to_string()),
            ("portability", kind.portability_label().to_string()),
        ]);
    }
    table.emit(args);

    println!("\nExecuted litmus matrix (§IV-A, Seq1–Seq4, lockstep mode):\n");
    let mut litmus = Table::default();
    for kind in SchemeKind::ALL {
        let mut row = vec![("scheme", kind.name().to_string())];
        let mut conforms = true;
        for seq in Seq::ALL {
            let run = run_litmus(kind, seq).expect("litmus run");
            conforms &= run.conforms;
            let verdict = match (expected_behaviour(kind, seq), run.sc_status) {
                (Expectation::RegionRetries, 0) => "retry",
                (_, 1) => "fails",
                (_, 0) => "SUCCEEDS",
                _ => "?",
            };
            row.push((seq.name(), verdict.to_string()));
        }
        row.push(("conforms", if conforms { "yes" } else { "NO" }.to_string()));
        litmus.row(row);
    }
    println!("{}", litmus.render());
    println!(
        "`fails` = SC correctly detects the interference; `SUCCEEDS` = the ABA\n\
         hazard (pico-cas everywhere; hst-weak on the plain-store-only Seq1);\n\
         `retry` = HTM region rollback (correct with transaction semantics)."
    );
}

/// The `--programs` × `schemes` × `--max-threads` ladder sweep of
/// Figs. 10–12: one curve per program and scheme.
fn curves(args: &Args, schemes: &[SchemeKind], allow_livelock: bool) -> Vec<Cell> {
    Sweep {
        programs: &args.programs("programs"),
        schemes,
        threads: &thread_ladder(args.get("max-threads")),
        scale: args.get("scale"),
        progress: true,
        allow_livelock,
        ..Sweep::default()
    }
    .run()
}

/// Whether `a` and `b` lie on one curve of [`curves`].
fn same_curve(a: &Cell, b: &Cell) -> bool {
    a.program == b.program && a.scheme == b.scheme
}

/// E3 — Fig. 10: scalability of HST, HST-WEAK, PST and PICO-ST (plus
/// PICO-CAS as the incorrect-but-fast reference) from 1 to 64 threads,
/// normalized to each scheme's own single-thread time. The default
/// kernels leave out canneal, exactly as the paper does (~30%
/// parallelism).
pub fn fig10(args: &Args) {
    let cells = curves(args, &[Hst, HstWeak, Pst, PicoSt, PicoCas], false);
    let mut table = Table::default();
    for curve in cells.chunk_by(same_curve) {
        let base = curve[0].run.sim_time().expect("sim run") as f64;
        for cell in curve {
            let time = cell.run.sim_time().expect("sim run") as f64;
            let figures = [
                ("sim_time", format!("{time}")),
                ("speedup", fmt_f64(base / time)),
            ];
            table.row(cell.labels().into_iter().chain(figures));
        }
    }
    table.emit_with_note(
        args,
        "speedup is normalized to each scheme's own 1-thread time (paper Fig. 10).\n\
             expected shape: hst-weak tracks pico-cas and scales best; hst scales well\n\
             but pays stop-the-world SCs; pst trails on atomic-heavy programs\n\
             (mprotect + suspensions); pico-st scales but from a much slower base.",
    );
}

/// E4 — Fig. 11: the HTM-backed schemes. PICO-HTM is competitive at low
/// thread counts (no store instrumentation at all) but collapses past
/// ~8 threads (translator work inside transactions + conflict storms),
/// while HST-HTM keeps scaling because only the SC critical section is
/// transactional. A livelocked cell is a finding here, not a failure.
pub fn fig11(args: &Args) {
    let cells = curves(args, &[HstHtm, PicoHtm, Hst], true);
    let mut table = Table::default();
    for curve in cells.chunk_by(same_curve) {
        let mut base = None;
        for cell in curve {
            let (time, speedup, status) = if livelocked(&cell.run) {
                ("-".to_string(), "-".to_string(), "LIVELOCK")
            } else {
                let time = cell.run.sim_time().expect("sim run");
                let base = *base.get_or_insert(time);
                (time.to_string(), fmt_f64(base as f64 / time as f64), "ok")
            };
            let stats = &cell.run.report.stats;
            table.row(cell.labels().into_iter().chain([
                ("sim_time", time),
                ("speedup", speedup),
                ("txns", stats.htm_txns.to_string()),
                ("aborts", stats.htm_aborts.to_string()),
                ("status", status.to_string()),
            ]));
        }
    }
    table.emit_with_note(
        args,
        "paper expectation (Fig. 11): pico-htm is fast at <=8 threads, then aborts\n\
             storm and it stops making progress; hst-htm keeps working to 32 threads.",
    );
}

/// E5 — Fig. 12: the per-program stacked overhead breakdown (native /
/// exclusive / instrument / mprotect) for PICO-ST, HST, PST and
/// PST-REMAP across thread counts.
pub fn fig12(args: &Args) {
    // The paper's four bars per thread configuration, left to right.
    let cells = curves(args, &[PicoSt, Hst, Pst, PstRemap], false);
    let mut table = Table::default();
    for cell in &cells {
        let b = cell.run.report.sim_breakdown();
        let total = b.total();
        let s = &cell.run.report.stats;
        table.row(cell.labels().into_iter().chain([
            ("total_units", total.to_string()),
            ("native_pct", pct_cell(b.native, total)),
            ("exclusive_pct", pct_cell(b.exclusive, total)),
            ("instrument_pct", pct_cell(b.instrument, total)),
            ("mprotect_pct", pct_cell(b.mprotect, total)),
            ("dispatch_lookups", s.dispatch_lookups.to_string()),
            ("chain_follows", s.chain_follows.to_string()),
            ("l1_hit_pct", pct_cell(s.l1_hits, s.dispatch_lookups)),
        ]));
    }
    table.emit_with_note(
        args,
        "paper expectation (Fig. 12): pico-st dominated by instrumentation (helper\n\
         per store); hst mostly native with a small instrument slice; pst/pst-remap\n\
         dominated by mprotect/remap, growing with thread count.",
    );
}

/// E9 — §IV-B2: PST false-sharing faults grow with thread count (0.2% →
/// 17% of faults as threads go 2 → 64 in the paper's bodytrack example).
pub fn fig12_fs(args: &Args) {
    let cells = Sweep {
        programs: &[Program::Bodytrack],
        schemes: &[Pst],
        threads: &thread_ladder(args.get("max-threads")),
        scale: args.get("scale"),
        ..Sweep::default()
    }
    .run();
    let mut table = Table::default();
    for cell in &cells {
        let stats = &cell.run.report.stats;
        let fs = stats.false_sharing_faults;
        let per_100k = 100_000.0 * fs as f64 / stats.stores.max(1) as f64;
        table.row([
            ("threads", cell.threads.to_string()),
            ("page_faults", stats.page_faults.to_string()),
            ("false_sharing", fs.to_string()),
            ("false_per_100k_stores", format!("{per_100k:.2}")),
        ]);
    }
    table.emit_with_note(
        args,
        "paper expectation (§IV-B2): with total work fixed, more threads mean more\n\
         stores landing inside other threads' LL→SC protection windows — the\n\
         false-sharing rate grows steadily with thread count (0.2%→17% in the\n\
         paper's bodytrack runs from 2→64 threads).",
    );
}

/// E6 — Table I: the per-program dynamic instruction profile: stores vs
/// LL/SC counts and their ratio (the paper reports stores 88×–3000× more
/// frequent than LL/SC, which is why per-store instrumentation cost
/// dominates scheme performance). The profile is a property of the
/// guest, not the scheme, so one run per program suffices; PICO-CAS is
/// the cheapest prober.
pub fn table1(args: &Args) {
    let cells = Sweep {
        programs: &Program::ALL,
        schemes: &[PicoCas],
        threads: &[args.get("threads")],
        scale: args.get("scale"),
        ..Sweep::default()
    }
    .run();
    let mut table = Table::default();
    for cell in &cells {
        let stats = &cell.run.report.stats;
        let per_llsc = 2.0 * stats.stores as f64 / (stats.ll + stats.sc).max(1) as f64;
        table.row([
            ("program", cell.program.name().to_string()),
            ("insns", stats.insns.to_string()),
            ("loads", stats.loads.to_string()),
            ("stores", stats.stores.to_string()),
            ("ll", stats.ll.to_string()),
            ("sc", stats.sc.to_string()),
            ("stores_per_llsc", format!("{per_llsc:.0}")),
        ]);
    }
    table.emit_with_note(
        args,
        "paper expectation (Table I): stores outnumber LL/SC by ~88x (atomic-heavy\n\
             programs like canneal/fluidanimate/freqmine) up to ~3000x (blackscholes).",
    );
}

/// E8 — the paper's headline numbers (§IV-B): HST's speedup over PICO-ST
/// (the best prior *correct* software scheme) per program, with min /
/// max / geometric mean; plus HST's overhead relative to the incorrect
/// PICO-CAS baseline. Paper values: min 1.25×, max 3.21×, geomean 2.03×
/// over PICO-ST; 2.9%–555% overhead vs PICO-CAS depending on atomic
/// intensity and thread count.
pub fn speedup(args: &Args) {
    let threads: u32 = args.get("threads");
    let cells = Sweep {
        programs: &Program::ALL,
        schemes: &[PicoCas, Hst, PicoSt],
        threads: &[threads],
        scale: args.get("scale"),
        progress: true,
        ..Sweep::default()
    }
    .run();
    let mut table = Table::default();
    let mut speedups = Vec::new();
    let mut overheads = Vec::new();
    for program in cells.chunks(3) {
        let [cas, hst, pico_st] =
            [0, 1, 2].map(|i| program[i].run.sim_time().expect("sim run") as f64);
        let speedup = pico_st / hst;
        let overhead = pct(hst - cas, cas);
        speedups.push(speedup);
        overheads.push(overhead);
        table.row([
            ("program", program[0].program.name().to_string()),
            ("pico_cas", format!("{cas:.0}")),
            ("hst", format!("{hst:.0}")),
            ("pico_st", format!("{pico_st:.0}")),
            ("hst_over_pico_st", fmt_f64(speedup)),
            ("hst_overhead_vs_cas_pct", format!("{overhead:.1}")),
        ]);
    }
    table.emit(args);

    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().copied().fold(0.0f64, f64::max);
    println!("\nHST over PICO-ST at {threads} threads:");
    println!("  min speedup     : {:.2}x   (paper: 1.25x)", min);
    println!("  max speedup     : {:.2}x   (paper: 3.21x)", max);
    println!(
        "  geometric mean  : {:.2}x   (paper: 2.03x)",
        geomean(&speedups)
    );
    let omin = overheads.iter().copied().fold(f64::INFINITY, f64::min);
    let omax = overheads.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!("\nHST overhead vs PICO-CAS: {omin:.1}%..{omax:.1}%  (paper: 2.9%..555%)");
}

/// A1 — the §VI discussion's rule-based translation: fuse
/// compiler-generated LL/SC retry loops into host atomic built-ins and
/// measure what it buys each scheme on the atomic-add-heavy kernel
/// (freqmine, whose `__atomic_fetch_add` loops are exactly the canonical
/// pattern).
pub fn ablation_fused(args: &Args) {
    let program = args.programs("program");
    let sweep = |fuse_atomics| {
        Sweep {
            programs: &program,
            schemes: &[Hst, HstWeak, Pst, PicoSt, PicoCas],
            threads: &[args.get("threads")],
            scale: args.get("scale"),
            config: MachineConfig {
                fuse_atomics,
                ..MachineConfig::default()
            },
            ..Sweep::default()
        }
        .run()
    };
    let (plain, fused) = (sweep(false), sweep(true));
    let mut table = Table::default();
    for (plain, fused) in plain.iter().zip(&fused) {
        let plain_time = plain.run.sim_time().expect("sim") as f64;
        let fused_time = fused.run.sim_time().expect("sim") as f64;
        let stats = &fused.run.report.stats;
        table.row([
            ("scheme", plain.scheme.name().to_string()),
            ("plain_time", format!("{plain_time:.0}")),
            ("fused_time", format!("{fused_time:.0}")),
            ("speedup", fmt_f64(plain_time / fused_time)),
            ("fused_rmws", stats.fused_rmws.to_string()),
            ("residual_llsc", (stats.sc - stats.fused_rmws).to_string()),
        ]);
    }
    table.emit_with_note(
        args,
        &format!(
            "\nthe pass fuses {}'s atomic-add loops into host atomics; spin-lock\n\
             acquires (test-before-set shape) are NOT canonical and stay on the scheme\n\
             path — the residual_llsc column. Expected: big wins for the schemes whose\n\
             per-SC machinery is expensive (hst's stop-the-world, pst's mprotect),\n\
             nothing for pico-cas (its SC was already one CAS).",
            program[0]
        ),
    );
}
