//! The four workloads, their generated inputs, and one measured cell run
//! with its correctness oracle.

use crate::bigcode::{self, BigCode, Rng};
use adbt::engine::{MachineConfig, RunReport, SimCosts, Vcpu, VcpuOutcome};
use adbt::workloads::parsec::{self, KernelSpec, Program};
use adbt::workloads::IMAGE_BASE;
use adbt::{Image, Machine, MachineBuilder, SchemeKind};
use std::time::{Duration, Instant};

/// A named set of cells the benchmark runs back to back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Seven race-free kernels × 8 schemes, 1 vCPU, real threads.
    Kernels1v,
    /// The same kernels × 8 schemes at 8 simulated vCPUs (`run_sim`).
    Sim8v,
    /// A seeded program with 8× the L1's blocks × 8 schemes, 2 vCPUs
    /// that run one after the other.
    BigCode,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Kernels1v, Workload::Sim8v, Workload::BigCode];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::Kernels1v => "kernels-1v",
            Workload::Sim8v => "sim-8v",
            Workload::BigCode => "big-code",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Guest vCPUs per cell.
    pub const fn threads(self) -> u32 {
        match self {
            Workload::Kernels1v => 1,
            Workload::BigCode => 2,
            Workload::Sim8v => 8,
        }
    }

    /// Host threads a run call has running at once: one on real
    /// threads, none for the simulated multicore, which runs on the
    /// calling thread.
    pub const fn spawned_threads(self) -> u32 {
        if self.sim() {
            0
        } else {
            1
        }
    }

    /// Whether cells run on the simulated multicore instead of threads.
    pub const fn sim(self) -> bool {
        matches!(self, Workload::Sim8v)
    }

    /// The kernels' work scale (1.0 is the generator's full size; the
    /// `big-code` program has one fixed size). Each is sized so one sweep
    /// of all cells takes about a second on a 2-core host, giving every
    /// run enough sweeps to take medians over.
    pub const fn scale(self) -> f64 {
        match self {
            Workload::Kernels1v => 0.5,
            Workload::Sim8v => 0.25,
            Workload::BigCode => 1.0,
        }
    }
}

/// The PARSEC-like kernels the benchmark runs: every modelled program
/// except fluidanimate, whose generator races on its shared word.
pub const KERNELS: [Program; 7] = [
    Program::Blackscholes,
    Program::Bodytrack,
    Program::Canneal,
    Program::Facesim,
    Program::Freqmine,
    Program::Swaptions,
    Program::X264,
];

/// What a finished cell must show to count as correct.
#[derive(Clone, Debug)]
pub enum Oracle {
    /// A kernel's lock-protected and atomic counter totals.
    Kernel(KernelSpec),
    /// The `big-code` generator's own prediction.
    BigCode(Box<BigCode>),
}

/// One generated guest program of a workload.
#[derive(Clone, Debug)]
pub struct Input {
    /// Program name (`blackscholes`, …, `big-code`).
    pub name: &'static str,
    /// The assembled image.
    pub image: Image,
    /// The correctness oracle.
    pub oracle: Oracle,
    /// FNV-1a hash of the image bytes, so a generator change shows up as
    /// a changed input rather than a speed change.
    pub fingerprint: u64,
}

/// Generates and assembles the workload's programs. Assembly is input
/// generation: it is not part of any timed metric.
///
/// # Errors
///
/// An assembler error message (a generator bug).
pub fn inputs(workload: Workload, seed: u64) -> Result<Vec<Input>, String> {
    let threads = workload.threads();
    let mut out = Vec::new();
    if workload == Workload::BigCode {
        let code = bigcode::generate(seed, bigcode::BLOCKS, bigcode::PASSES, threads);
        out.push(assemble_input(
            "big-code",
            &code.source.clone(),
            Oracle::BigCode(Box::new(code)),
        )?);
    } else {
        for program in KERNELS {
            let generated = parsec::generate(program, threads, workload.scale());
            out.push(assemble_input(
                program.name(),
                &generated.source,
                Oracle::Kernel(generated.spec),
            )?);
        }
    }
    Ok(out)
}

fn assemble_input(name: &'static str, source: &str, oracle: Oracle) -> Result<Input, String> {
    let image = adbt::assemble(source, IMAGE_BASE).map_err(|e| format!("{name}: {e}"))?;
    let fingerprint = fnv1a(&image.bytes);
    Ok(Input {
        name,
        image,
        oracle,
        fingerprint,
    })
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One (program, scheme) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Index into the workload's inputs.
    pub input: usize,
    /// The LL/SC scheme.
    pub scheme: SchemeKind,
}

/// Every program × every scheme, in a fixed order.
pub fn cells(inputs: &[Input]) -> Vec<Cell> {
    (0..inputs.len())
        .flat_map(|input| SchemeKind::ALL.map(|scheme| Cell { input, scheme }))
        .collect()
}

/// The cell ids in the order of one sweep: a seeded permutation, fresh
/// per sweep.
pub fn sweep_order(cells: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells).collect();
    rng.shuffle(&mut order);
    order
}

/// The engine configuration every cell uses: `adbt_run`'s defaults
/// (chaining 64, tiering at 1024).
pub fn config() -> MachineConfig {
    MachineConfig {
        tier_threshold: 1024,
        ..MachineConfig::default()
    }
}

/// A built machine with the cell's image loaded, and what that took.
pub struct Loaded {
    /// The machine.
    pub machine: Machine,
    /// Time in `MachineBuilder::build`.
    pub build: Duration,
    /// Time in `load_image`.
    pub load: Duration,
}

/// Builds a machine for `scheme` and loads `input` into it.
///
/// # Errors
///
/// The machine-construction error (a configuration bug).
pub fn load(input: &Input, scheme: SchemeKind) -> Result<Loaded, String> {
    let t0 = Instant::now();
    let machine = MachineBuilder::new(scheme)
        .config(config())
        .build()
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    machine.core().load_image(&input.image);
    let t2 = Instant::now();
    Ok(Loaded {
        machine,
        build: t1 - t0,
        load: t2 - t1,
    })
}

/// The result of one untraced cell run.
pub struct CellRun {
    /// Set-up times.
    pub build: Duration,
    /// See [`Loaded::load`].
    pub load: Duration,
    /// Wall time of the run call (`run_vcpus` or `run_sim`).
    pub run: Duration,
    /// The engine's report.
    pub report: RunReport,
    /// Whether the oracle accepted the run.
    pub valid: bool,
    /// Translation-cache bytes live after the run.
    pub live_bytes: u64,
    /// The final guest image, word by word (kept for fidelity checks).
    pub image: Vec<u32>,
}

/// Runs one cell untraced and checks it.
///
/// # Errors
///
/// The machine-construction error (a configuration bug).
pub fn run_cell(workload: Workload, input: &Input, scheme: SchemeKind) -> Result<CellRun, String> {
    let Loaded {
        machine,
        build,
        load,
    } = load(input, scheme)?;
    let vcpus = machine.make_vcpus(workload.threads(), IMAGE_BASE);
    let t0 = Instant::now();
    let report = if workload.sim() {
        machine.core().run_sim(vcpus, &SimCosts::default())
    } else {
        run_one_by_one(&machine, vcpus)
    };
    let run = t0.elapsed();
    let valid = check(input, workload.threads(), &report.outcomes, &machine);
    Ok(CellRun {
        build,
        load,
        run,
        valid,
        live_bytes: machine.core().cache_occupancy().arena_bytes,
        image: final_image(&input.image, &machine),
        report,
    })
}

/// Runs `vcpus` on real threads one after another, one run call each,
/// so no two vCPU threads ever compete for the host's CPUs. Later vCPUs
/// find the earlier ones' translations in the shared cache. The merged
/// report keeps outcomes and per-vCPU stats in tid order and sums the
/// wall times.
fn run_one_by_one(machine: &Machine, vcpus: Vec<Vcpu>) -> RunReport {
    let mut reports = vcpus.into_iter().map(|cpu| machine.run_vcpus(vec![cpu]));
    let mut merged = reports.next().expect("at least one vCPU");
    for report in reports {
        merged.outcomes.extend(report.outcomes);
        merged.per_cpu.extend(report.per_cpu);
        merged.stats.merge(&report.stats);
        merged.wall += report.wall;
    }
    merged
}

/// The correctness oracle for a finished cell. Kernels use the
/// invariants of `adbt::harness::run_parsec_full`: every vCPU exits 0
/// and the lock-protected counter (`sync_page+16`) and the atomic
/// counter (`sync_page+8`) reach their expected totals.
pub fn check(input: &Input, threads: u32, outcomes: &[VcpuOutcome], machine: &Machine) -> bool {
    let read = |addr: u32| machine.read_word(addr).ok();
    let symbol = |name: &str| input.image.symbol(name);
    match &input.oracle {
        Oracle::BigCode(code) => code.verify(outcomes, symbol, read),
        Oracle::Kernel(spec) => {
            let Some(sync) = symbol("sync_page") else {
                return false;
            };
            let ok =
                outcomes.len() == threads as usize && outcomes.iter().all(VcpuOutcome::is_success);
            let threads = threads as u64;
            let expect =
                |offset: u32, total: u64| read(sync + offset).map(u64::from) == Some(total);
            ok && if let Some(per_thread) = spec.iters.checked_div(spec.lock_every) {
                let locked = per_thread as u64 * threads;
                expect(16, locked)
                    && (spec.atomic_adds_per_lock == 0
                        || expect(8, locked * spec.atomic_adds_per_lock as u64))
            } else if spec.atomic_adds_per_lock > 0 {
                let events = if spec.add_every > 1 {
                    spec.iters / spec.add_every
                } else {
                    spec.iters
                } as u64;
                expect(8, events * spec.atomic_adds_per_lock as u64 * threads)
            } else {
                true
            }
        }
    }
}

/// The final guest memory over the image's range, word by word
/// (`u32::MAX` for an unreadable word).
pub fn final_image(image: &Image, machine: &Machine) -> Vec<u32> {
    (image.base..image.end())
        .step_by(4)
        .map(|addr| machine.read_word(addr).unwrap_or(u32::MAX))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_fluidanimate_is_out() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert!(Workload::from_name("kernels").is_none());
        assert!(!KERNELS.contains(&Program::Fluidanimate));
        assert_eq!(KERNELS.len() + 1, Program::ALL.len());
    }

    #[test]
    fn every_kernel_cell_passes_its_oracle() {
        let inputs = inputs(Workload::Kernels1v, 0).unwrap();
        assert_eq!(cells(&inputs).len(), 56);
        for input in &inputs {
            let run = run_cell(Workload::Kernels1v, input, SchemeKind::HstWeak).unwrap();
            assert!(run.valid, "{}: {:?}", input.name, run.report.outcomes);
        }
    }

    #[test]
    fn big_code_vcpus_run_one_after_the_other() {
        let inputs = inputs(Workload::BigCode, 3).unwrap();
        let run = run_cell(Workload::BigCode, &inputs[0], SchemeKind::Hst).unwrap();
        assert!(run.valid, "{:?}", run.report.outcomes);
        assert_eq!(run.report.outcomes.len(), 2);
        assert_eq!(run.report.per_cpu.len(), 2);
        // The second vCPU runs code the first already translated.
        assert!(run.report.per_cpu[1].translations < run.report.per_cpu[0].translations);
    }

    #[test]
    fn the_oracle_rejects_a_corrupted_counter() {
        let inputs = inputs(Workload::Kernels1v, 0).unwrap();
        let input = &inputs[0];
        let run = run_cell(Workload::Kernels1v, input, SchemeKind::Hst).unwrap();
        assert!(run.valid);
        let Loaded { machine, .. } = load(input, SchemeKind::Hst).unwrap();
        let report = machine.run(1, IMAGE_BASE);
        let sync = input.image.symbol("sync_page").unwrap();
        machine.write_word(sync + 16, 12345).unwrap();
        assert!(!check(input, 1, &report.outcomes, &machine));
    }

    #[test]
    fn sweep_order_is_a_seeded_permutation() {
        let a = sweep_order(56, &mut Rng::new(1));
        assert_eq!(a, sweep_order(56, &mut Rng::new(1)));
        assert_ne!(a, sweep_order(56, &mut Rng::new(2)));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..56).collect::<Vec<_>>());
        // Each sweep of one run gets a fresh order.
        let mut rng = Rng::new(1);
        let first = sweep_order(56, &mut rng);
        assert_ne!(first, sweep_order(56, &mut rng));
    }
}
