//! Tests for the simulated-multicore mode: determinism, virtual-time
//! accounting, quantum interleaving, and the stop-the-world model.

use adbt_engine::{
    AtomicScheme, Atomicity, HelperRegistry, MachineConfig, MachineCore, SimCosts, VcpuOutcome,
    VirtualTimeScheduler,
};
use adbt_ir::{BlockBuilder, Op, Slot, Src};
use adbt_isa::asm::assemble;
use adbt_mmu::Width;

/// A scheme whose SC takes the stop-the-world section, to exercise clock
/// synchronization (a stripped-down HST).
struct ExclusiveCas {
    sc: Option<adbt_ir::HelperId>,
}

impl AtomicScheme for ExclusiveCas {
    fn name(&self) -> &'static str {
        "exclusive-cas"
    }
    fn atomicity(&self) -> Atomicity {
        Atomicity::Strong
    }
    fn install(&mut self, reg: &mut HelperRegistry) {
        self.sc = Some(reg.register(
            "excl_sc",
            Box::new(|ctx, args| {
                let (addr, new) = (args[0], args[1]);
                ctx.stats.sc += 1;
                ctx.start_exclusive()?;
                let ok = ctx.cpu.monitor.addr == Some(addr);
                if ok {
                    ctx.store(addr, Width::Word, new, false)?;
                } else {
                    ctx.stats.sc_failures += 1;
                }
                ctx.cpu.monitor.addr = None;
                ctx.end_exclusive();
                Ok(!ok as u32)
            }),
        ));
    }
    fn lower_ll(&self, b: &mut BlockBuilder, rd: Slot, addr: Src) {
        b.push(Op::MonitorArm { dst: rd, addr });
    }
    fn lower_sc(&self, b: &mut BlockBuilder, rd: Slot, value: Src, addr: Src) {
        b.push(Op::Helper {
            id: self.sc.expect("installed"),
            args: vec![addr, value],
            ret: Some(rd),
        });
    }
    fn lower_clrex(&self, b: &mut BlockBuilder) {
        b.push(Op::MonitorClear);
    }
}

const COUNTER_PROGRAM: &str = r#"
    mov32 r5, counter
    mov32 r6, #500
loop:
retry:
    ldrex r1, [r5]
    add   r1, r1, #1
    strex r2, r1, [r5]
    cmp   r2, #0
    bne   retry
    subs  r6, r6, #1
    bne   loop
    mov   r0, #0
    svc   #0
    .align 4096
counter:
    .word 0
"#;

fn machine() -> MachineCore {
    MachineCore::new(
        MachineConfig {
            mem_size: 4 << 20,
            ..MachineConfig::default()
        },
        Box::new(ExclusiveCas { sc: None }),
    )
    .unwrap()
}

fn run(threads: u32, costs: &SimCosts) -> (MachineCore, adbt_engine::RunReport, u32) {
    let m = machine();
    let image = assemble(COUNTER_PROGRAM, 0x1_0000).unwrap();
    m.load_image(&image);
    let report = m.run_sim(m.make_vcpus(threads, 0x1_0000), costs);
    let counter = image.symbol("counter").unwrap();
    let value = m.space.load(counter, Width::Word).unwrap();
    (m, report, value)
}

#[test]
fn sim_counter_is_exact() {
    let (_, report, value) = run(8, &SimCosts::default());
    assert!(report.all_ok(), "{:?}", report.outcomes);
    assert_eq!(value, 8 * 500);
    assert!(report.sim_time().is_some());
}

#[test]
fn sim_is_bit_deterministic() {
    let costs = SimCosts::default();
    let (_, a, _) = run(8, &costs);
    let (_, b, _) = run(8, &costs);
    assert_eq!(a.stats.sim_time, b.stats.sim_time);
    assert_eq!(a.stats.insns, b.stats.insns);
    assert_eq!(a.stats.sc_failures, b.stats.sc_failures);
    assert_eq!(a.per_cpu.len(), b.per_cpu.len());
    for (x, y) in a.per_cpu.iter().zip(&b.per_cpu) {
        assert_eq!(x.sim_time, y.sim_time);
        assert_eq!(x.insns, y.insns);
    }
}

/// The simulator always dispatches single blocks (its scheduler is the
/// outer loop), so the configured `chain_limit` must have no effect on
/// simulated results at all — bit-identical timing and counters.
#[test]
fn chain_limit_does_not_affect_sim_results() {
    let costs = SimCosts::default();
    let image = assemble(COUNTER_PROGRAM, 0x1_0000).unwrap();
    let run_with = |chain_limit: u32| {
        let m = MachineCore::new(
            MachineConfig {
                mem_size: 4 << 20,
                chain_limit,
                ..MachineConfig::default()
            },
            Box::new(ExclusiveCas { sc: None }),
        )
        .unwrap();
        m.load_image(&image);
        m.run_sim(m.make_vcpus(6, 0x1_0000), &costs)
    };
    let a = run_with(1);
    let b = run_with(64);
    assert!(a.all_ok() && b.all_ok());
    assert_eq!(a.stats.sim_time, b.stats.sim_time);
    assert_eq!(a.stats.insns, b.stats.insns);
    assert_eq!(a.stats.sc_failures, b.stats.sc_failures);
    assert_eq!(a.stats.chain_follows, 0);
    assert_eq!(b.stats.chain_follows, 0);
    // Everything except host wall-clock nanoseconds (Instant-measured,
    // noisy by nature) must be bit-identical per vCPU.
    let normalize = |stats: &adbt_engine::VcpuStats| {
        let mut s = stats.clone();
        s.exclusive_ns = 0;
        s.mprotect_ns = 0;
        s.lock_wait_ns = 0;
        s
    };
    for (x, y) in a.per_cpu.iter().zip(&b.per_cpu) {
        assert_eq!(normalize(x), normalize(y), "per-vCPU stats diverged");
    }
}

#[test]
fn different_jitter_seed_changes_schedule_not_results() {
    let a = run(
        8,
        &SimCosts {
            jitter_seed: 1,
            ..SimCosts::default()
        },
    );
    let b = run(
        8,
        &SimCosts {
            jitter_seed: 99,
            ..SimCosts::default()
        },
    );
    // The counter is exact either way; timing may differ.
    assert_eq!(a.2, b.2);
    assert!(a.1.all_ok() && b.1.all_ok());
}

#[test]
fn makespan_shrinks_with_threads_until_serialization() {
    let costs = SimCosts::default();
    let (_, t1, _) = run(1, &costs);
    let (_, t2, _) = run(2, &costs);
    // NOTE: total work here is per-thread (weak scaling), so the
    // makespan should *grow* only mildly with threads; per unit of work
    // the machine is faster. Compare per-op time instead.
    let per_op_1 = t1.stats.sim_time as f64 / t1.stats.sc as f64;
    let per_op_2 = t2.stats.sim_time as f64 / t2.stats.sc as f64;
    assert!(
        per_op_2 < per_op_1 * 1.5,
        "2 threads should roughly parallelize: {per_op_1} vs {per_op_2}"
    );
}

#[test]
fn exclusive_sections_serialize_virtual_time() {
    // With stop-the-world SCs, total exclusive units must grow with
    // thread count (the paper's scaling limit for HST).
    let costs = SimCosts::default();
    let (_, t2, _) = run(2, &costs);
    let (_, t8, _) = run(8, &costs);
    assert!(t2.stats.sim_exclusive_units > 0);
    assert!(
        t8.stats.sim_exclusive_units > t2.stats.sim_exclusive_units,
        "more threads, more parked time: {} vs {}",
        t8.stats.sim_exclusive_units,
        t2.stats.sim_exclusive_units
    );
}

#[test]
fn sim_breakdown_accounts_for_all_cpu_time() {
    let (_, report, _) = run(4, &SimCosts::default());
    let b = report.sim_breakdown();
    assert_eq!(b.total(), report.stats.sim_time * 4);
    assert!(b.native > 0);
    assert!(b.exclusive > 0);
}

#[test]
fn zero_quantum_is_clamped_not_fatal() {
    let costs = SimCosts {
        quantum: 0,
        ..SimCosts::default()
    };
    let (_, report, value) = run(2, &costs);
    assert!(report.all_ok());
    assert_eq!(value, 2 * 500);
}

#[test]
fn sim_handles_guest_crashes() {
    let m = machine();
    let image = assemble("udf #3\n", 0x1_0000).unwrap();
    m.load_image(&image);
    let report = m.run_sim(m.make_vcpus(2, 0x1_0000), &SimCosts::default());
    for outcome in &report.outcomes {
        assert!(matches!(outcome, VcpuOutcome::Crashed(_)), "{outcome:?}");
    }
}

#[test]
fn step_cap_reports_livelock_rather_than_hanging() {
    let m = machine();
    let image = assemble("spin: b spin\n", 0x1_0000).unwrap();
    m.load_image(&image);
    let mut sched = VirtualTimeScheduler::new(&SimCosts::default(), 2);
    let report = m.run_scheduled(m.make_vcpus(2, 0x1_0000), &mut sched, 100);
    assert!(report
        .outcomes
        .iter()
        .all(|o| matches!(o, VcpuOutcome::Livelocked { .. })));
    // The cap counts atoms (one block each), not quanta.
    assert_eq!(report.stats.blocks, 100);
}
