//! Ablation — the §VI discussion's rule-based translation: fuse
//! compiler-generated LL/SC retry loops into host atomic built-ins and
//! measure what it buys each scheme on the atomic-add-heavy kernel
//! (freqmine, whose `__atomic_fetch_add` loops are exactly the canonical
//! pattern).
//!
//! ```text
//! cargo run --release -p adbt-bench --bin ablation_fused -- \
//!     [--scale 0.1] [--threads 8] [--program freqmine] [--csv out.csv]
//! ```

use adbt::harness::run_parsec_full;
use adbt::workloads::parsec::Program;
use adbt::{MachineConfig, SchemeKind, SimCosts};
use adbt_bench::{fmt_f64, Args, Table};

fn main() {
    let args = Args::parse(&["scale", "threads", "program"], &[]);
    let scale: f64 = args.get("scale", 0.1);
    let threads: u32 = args.get("threads", 8);
    let program = match args.get_str("program") {
        Some(name) => Program::from_name(name)
            .unwrap_or_else(|| args.fail(&format!("unknown program `{name}`"))),
        None => Program::Freqmine,
    };

    let mut table = Table::new(&[
        "scheme",
        "plain_time",
        "fused_time",
        "speedup",
        "fused_rmws",
        "residual_llsc",
    ]);
    for kind in [
        SchemeKind::Hst,
        SchemeKind::HstWeak,
        SchemeKind::Pst,
        SchemeKind::PicoSt,
        SchemeKind::PicoCas,
    ] {
        let run = |fuse: bool| {
            let config = MachineConfig {
                fuse_atomics: fuse,
                ..MachineConfig::default()
            };
            let run = run_parsec_full(
                kind,
                program,
                threads,
                scale,
                config,
                Some(SimCosts::default()),
            )
            .expect("machine construction");
            assert!(run.valid, "{kind} fuse={fuse}: invariants failed");
            run
        };
        let plain = run(false);
        let fused = run(true);
        let plain_time = plain.sim_time().expect("sim") as f64;
        let fused_time = fused.sim_time().expect("sim") as f64;
        table.row(vec![
            kind.name().to_string(),
            format!("{plain_time:.0}"),
            format!("{fused_time:.0}"),
            fmt_f64(plain_time / fused_time),
            fused.report.stats.fused_rmws.to_string(),
            (fused.report.stats.sc - fused.report.stats.fused_rmws).to_string(),
        ]);
    }
    table.emit_with_note(
        &args,
        "\nthe pass fuses {program}'s atomic-add loops into host atomics; spin-lock\n\
             acquires (test-before-set shape) are NOT canonical and stay on the scheme\n\
             path — the residual_llsc column. Expected: big wins for the schemes whose\n\
             per-SC machinery is expensive (hst's stop-the-world, pst's mprotect),\n\
             nothing for pico-cas (its SC was already one CAS).",
    );
}
