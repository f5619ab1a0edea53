//! `adbt_bench <experiment> [--key VALUE]...` — regenerates one table or
//! figure of the paper's evaluation, or runs one of the harness's own
//! wall-clock measurements.
//!
//! ```text
//! cargo run --release -p adbt-bench --bin adbt_bench -- --help          # the experiments
//! cargo run --release -p adbt-bench --bin adbt_bench -- fig10 --help    # fig10's keys
//! cargo run --release -p adbt-bench --bin adbt_bench -- fig10 --scale 0.05 --csv fig10.csv
//! ```
//!
//! The two tables below drive dispatch, `--help` and the usage line.

mod dispatch;
mod micro;
mod paper;

use adbt::engine::MAX_THREADED_VCPUS;
use adbt::workloads::parsec;
use adbt_bench::{Domain, Experiment, Key};

// The key table: every key an experiment accepts, and the values it takes.
const SCALE: Key = Key::new("scale", Domain::Scale);
/// A kernel is generated for at most `parsec::MAX_THREADS` threads.
const THREADS: Key = Key::new("threads", Domain::Upto(parsec::MAX_THREADS));
/// The top of the thread ladder, whose last rung is `parsec::MAX_THREADS`.
const MAX_THREADS: Key = Key::new("max-threads", Domain::Upto(parsec::MAX_THREADS));
/// `aba --threaded` runs one OS thread per vCPU; the simulated run takes
/// the same bound.
const STACK_THREADS: Key = Key::new("threads", Domain::Upto(MAX_THREADED_VCPUS));
const PROGRAMS: Key = Key::new("programs", Domain::Programs);
const PROGRAM: Key = Key::new("program", Domain::Program);
const REPS: Key = Key::new("reps", Domain::Count);
const OPS: Key = Key::new("ops", Domain::Count);
const NODES: Key = Key::new("nodes", Domain::Count);
const STALL: Key = Key::new("stall", Domain::Natural);
const VICTIM_STALL: Key = Key::new("victim-stall", Domain::Natural);
const THREADED: Key = Key::new("threaded", Domain::Flag);
const ITERS: Key = Key::new("iters", Domain::Count);
const CHAIN: Key = Key::new("chain", Domain::Count);
const GUARD: Key = Key::new("guard", Domain::Budget);

/// The keys of the dispatch-loop experiments.
const LOOP: [(Key, &str); 3] = [(ITERS, "300000"), (REPS, "5"), (CHAIN, "64")];
/// The keys of the two off/on overhead guards.
const OVERHEAD: &[(Key, &str)] = &[LOOP[0], LOOP[1], LOOP[2], (GUARD, "")];

/// Every experiment, in `--help` order.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "aba",
        artefact: "§IV-A ABA rates (E1)",
        run: paper::aba,
        keys: &[
            (STACK_THREADS, "16"),
            (OPS, "65535"),
            (NODES, "64"),
            (REPS, "3"),
            (STALL, "0"),
            (VICTIM_STALL, "0"),
            (THREADED, ""),
        ],
    },
    Experiment {
        name: "table2",
        artefact: "Table II + Seq1-4 litmus verdicts (E2, E7)",
        run: paper::table2,
        keys: &[],
    },
    Experiment {
        name: "fig10",
        artefact: "Fig. 10 scalability curves (E3)",
        run: paper::fig10,
        keys: &[
            (SCALE, "0.1"),
            (MAX_THREADS, "64"),
            (
                PROGRAMS,
                "blackscholes,bodytrack,facesim,fluidanimate,freqmine,swaptions,x264",
            ),
        ],
    },
    Experiment {
        name: "fig11",
        artefact: "Fig. 11 HTM-scheme comparison (E4)",
        run: paper::fig11,
        keys: &[
            (SCALE, "0.1"),
            (MAX_THREADS, "32"),
            (PROGRAMS, "fluidanimate,freqmine,swaptions,bodytrack"),
        ],
    },
    Experiment {
        name: "fig12",
        artefact: "Fig. 12 overhead breakdown (E5)",
        run: paper::fig12,
        keys: &[
            (SCALE, "0.1"),
            (MAX_THREADS, "32"),
            (
                PROGRAMS,
                "blackscholes,bodytrack,canneal,facesim,fluidanimate,freqmine,swaptions,x264",
            ),
        ],
    },
    Experiment {
        name: "fig12_fs",
        artefact: "§IV-B2 PST false-sharing growth (E9)",
        run: paper::fig12_fs,
        keys: &[(SCALE, "0.1"), (MAX_THREADS, "64")],
    },
    Experiment {
        name: "table1",
        artefact: "Table I instruction profile (E6)",
        run: paper::table1,
        keys: &[(SCALE, "0.2"), (THREADS, "4")],
    },
    Experiment {
        name: "speedup",
        artefact: "§IV-B headline speedups (E8)",
        run: paper::speedup,
        keys: &[(SCALE, "0.1"), (THREADS, "8")],
    },
    Experiment {
        name: "ablation_fused",
        artefact: "§VI fused-atomics ablation (A1)",
        run: paper::ablation_fused,
        keys: &[(SCALE, "0.1"), (THREADS, "8"), (PROGRAM, "freqmine")],
    },
    Experiment {
        name: "dispatch",
        artefact: "block chaining off vs on, per scheme",
        run: dispatch::dispatch,
        keys: &LOOP,
    },
    Experiment {
        name: "trace_overhead",
        artefact: "flight-recorder overhead guard",
        run: dispatch::trace_overhead,
        keys: OVERHEAD,
    },
    Experiment {
        name: "profile_overhead",
        artefact: "contention-profiler overhead guard",
        run: dispatch::profile_overhead,
        keys: OVERHEAD,
    },
    Experiment {
        name: "micro",
        artefact: "substrate micro-benchmarks, ns/op",
        run: micro::micro,
        keys: &[],
    },
];

fn main() {
    adbt_bench::main(EXPERIMENTS);
}

#[cfg(test)]
mod tests {
    use super::*;
    use adbt_bench::Args;

    #[test]
    fn every_default_is_in_its_keys_domain() {
        for experiment in EXPERIMENTS {
            let args = Args::parse(experiment, &[]);
            assert!(args.is_ok(), "{}: {args:?}", experiment.name);
        }
    }

    #[test]
    fn experiment_and_key_names_are_unique() {
        for (i, experiment) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|e| e.name != experiment.name));
            for (j, (key, _)) in experiment.keys.iter().enumerate() {
                let earlier = &experiment.keys[..j];
                assert!(earlier.iter().all(|(k, _)| k.name != key.name), "{key:?}");
            }
        }
    }
}
