//! The simulated multicore (`run_sim`, the driver behind every paper
//! figure) pinned bit for bit. Three kernels cover its three shapes of
//! cross-vCPU cost: bodytrack (barriers), canneal (the global lock) and
//! freqmine (atomic adds). Each runs under all 8 schemes at 8 simulated
//! vCPUs, and every cell's outcomes and each vCPU's counters (wall-clock
//! rows masked) must match `tests/data/sim_golden.json`. The committed
//! CSVs show the virtual-time buckets only as rounded percentages; this
//! file holds every unit.

use adbt::harness::run_parsec_sim;
use adbt::trace::json::JsonWriter;
use adbt::workloads::parsec::Program;
use adbt::SchemeKind;

const PROGRAMS: [Program; 3] = [Program::Bodytrack, Program::Canneal, Program::Freqmine];
const THREADS: u32 = 8;
const SCALE: f64 = 0.02;

/// The golden document: one line per cell header, then one line per
/// vCPU's counters.
fn render() -> String {
    let mut w = JsonWriter::new();
    w.arr();
    for program in PROGRAMS {
        for kind in SchemeKind::ALL {
            let run = run_parsec_sim(kind, program, THREADS, SCALE)
                .unwrap_or_else(|e| panic!("{kind:?} × {program}: {e}"));
            w.pad("\n").obj();
            w.key("program").str(program.name());
            w.key("scheme").str(kind.name());
            w.field("valid", run.valid);
            w.key("outcomes").arr();
            for outcome in &run.report.outcomes {
                w.str(&format!("{outcome:?}"));
            }
            w.end();
            w.key("per_cpu").arr();
            for stats in &run.report.per_cpu {
                w.pad("\n").raw(stats.without_wall_clock().to_json());
            }
            w.end().end();
        }
    }
    w.pad("\n").end().finish()
}

#[test]
fn run_sim_reproduces_the_golden_counters() {
    let golden = include_str!("data/sim_golden.json");
    let got = render();
    for (line, (want, have)) in golden.lines().zip(got.lines()).enumerate() {
        assert_eq!(have, want, "sim_golden.json line {}", line + 1);
    }
    assert_eq!(got.lines().count(), golden.lines().count(), "line count");
}
