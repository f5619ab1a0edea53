//! E8 — the paper's headline numbers (§IV-B): HST's speedup over
//! PICO-ST (the best prior *correct* software scheme) per program, with
//! min / max / geometric mean; plus HST's overhead relative to the
//! incorrect PICO-CAS baseline.
//!
//! Paper values: min 1.25×, max 3.21×, geomean 2.03× over PICO-ST;
//! 2.9%–555% overhead vs PICO-CAS depending on atomic intensity and
//! thread count.
//!
//! ```text
//! cargo run --release -p adbt-bench --bin speedup_summary -- \
//!     [--scale 0.1] [--threads 8] [--csv speedup.csv]
//! ```

use adbt::harness::run_parsec_sim;
use adbt::workloads::parsec::Program;
use adbt::SchemeKind;
use adbt_bench::{fmt_f64, geomean, pct, Args, Table};

fn main() {
    let args = Args::parse(&["scale", "threads"], &[]);
    let scale: f64 = args.get("scale", 0.1);
    let threads: u32 = args.get("threads", 8);

    let mut table = Table::new(&[
        "program",
        "pico_cas",
        "hst",
        "pico_st",
        "hst_over_pico_st",
        "hst_overhead_vs_cas_pct",
    ]);
    let mut speedups = Vec::new();
    let mut overheads = Vec::new();
    for program in Program::ALL {
        eprintln!("running {program} ...");
        let time = |kind| {
            let run = run_parsec_sim(kind, program, threads, scale).expect("run");
            assert!(run.valid, "{program}: invariants failed");
            run.sim_time().expect("sim run") as f64
        };
        let cas = time(SchemeKind::PicoCas);
        let hst = time(SchemeKind::Hst);
        let pico_st = time(SchemeKind::PicoSt);
        let speedup = pico_st / hst;
        let overhead = pct(hst - cas, cas);
        speedups.push(speedup);
        overheads.push(overhead);
        table.row(vec![
            program.name().to_string(),
            format!("{cas:.0}"),
            format!("{hst:.0}"),
            format!("{pico_st:.0}"),
            fmt_f64(speedup),
            format!("{overhead:.1}"),
        ]);
    }
    table.emit(&args);

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
