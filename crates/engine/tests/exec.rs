//! End-to-end engine tests: assemble guest programs, run them on the
//! threaded and lockstep engines, and check architectural results; and
//! run one hand-built block per tape entry kind through the executor.
//!
//! These tests use a deliberately simple CAS-based scheme (equivalent to
//! PICO-CAS) defined locally, so the engine crate is exercised without
//! depending on `adbt-schemes` (which depends on this crate).

use adbt_engine::{
    interp, AtomicScheme, Atomicity, ExecCtx, Flags, HelperRegistry, MachineConfig, MachineCore,
    RoundRobin, Trap, Vcpu, VcpuOutcome,
};
use adbt_ir::{AluOp, BlockBuilder, BlockExit, Entry, HelperId, Op, RmwOp, Slot, Src};
use adbt_isa::asm::assemble;
use adbt_mmu::Width;

/// A local PICO-CAS-style scheme: LL records address+value via a helper,
/// SC does a host CAS against the recorded value.
struct TestCas {
    ll: Option<HelperId>,
    sc: Option<HelperId>,
}

impl TestCas {
    fn new() -> TestCas {
        TestCas { ll: None, sc: None }
    }
}

impl AtomicScheme for TestCas {
    fn name(&self) -> &'static str {
        "test-cas"
    }

    fn atomicity(&self) -> Atomicity {
        Atomicity::Incorrect
    }

    fn install(&mut self, reg: &mut HelperRegistry) {
        self.ll = Some(reg.register(
            "test_ll",
            Box::new(|ctx, args| {
                let addr = args[0];
                let value = ctx.load(addr, Width::Word)?;
                ctx.cpu.monitor.addr = Some(addr);
                ctx.cpu.monitor.value = value;
                Ok(value)
            }),
        ));
        self.sc = Some(reg.register(
            "test_sc",
            Box::new(|ctx, args| {
                let (addr, new) = (args[0], args[1]);
                ctx.stats.sc += 1;
                let ok = match ctx.cpu.monitor.addr {
                    Some(lladdr) if lladdr == addr => {
                        ctx.cas_word(addr, ctx.cpu.monitor.value, new)?
                    }
                    _ => false,
                };
                ctx.cpu.monitor.addr = None;
                if !ok {
                    ctx.stats.sc_failures += 1;
                }
                Ok(!ok as u32) // strex: 0 = success
            }),
        ));
    }

    fn lower_ll(&self, b: &mut BlockBuilder, rd: Slot, addr: Src) {
        b.push(Op::Helper {
            id: self.ll.expect("installed"),
            args: vec![addr],
            ret: Some(rd),
        });
    }

    fn lower_sc(&self, b: &mut BlockBuilder, rd: Slot, value: Src, addr: Src) {
        b.push(Op::Helper {
            id: self.sc.expect("installed"),
            args: vec![addr, value],
            ret: Some(rd),
        });
    }

    fn lower_clrex(&self, b: &mut BlockBuilder) {
        // Clearing the monitor needs no helper state here; emit nothing.
        let _ = b;
    }
}

fn machine() -> MachineCore {
    MachineCore::new(
        MachineConfig {
            mem_size: 4 << 20,
            ..MachineConfig::default()
        },
        Box::new(TestCas::new()),
    )
    .unwrap()
}

fn run_one(source: &str) -> (MachineCore, VcpuOutcome) {
    let m = machine();
    let image = assemble(source, 0x1000).unwrap();
    m.load_image(&image);
    let mut report = m.run_threaded(m.make_vcpus(1, 0x1000));
    let outcome = report.outcomes.pop().unwrap();
    (m, outcome)
}

/// The exit code is r0; most tests compute into r0 then `svc #0`.
fn exit_code(source: &str) -> i32 {
    let (_, outcome) = run_one(source);
    match outcome {
        VcpuOutcome::Exited(code) => code,
        other => panic!("expected exit, got {other:?}"),
    }
}

#[test]
fn arithmetic_and_branches() {
    // Sum 1..=10 with a countdown loop: 55.
    let code = r#"
        mov r0, #0
        mov r1, #10
    loop:
        add r0, r0, r1
        subs r1, r1, #1
        bne loop
        svc #0
    "#;
    assert_eq!(exit_code(code), 55);
}

#[test]
fn fibonacci_via_function_call() {
    // fib(10) = 55 with an iterative callee entered through bl/bx.
    let code = r#"
        mov r0, #10
        bl fib
        svc #0
    fib:
        mov r2, #0      ; a
        mov r3, #1      ; b
    fib_loop:
        cmp r0, #0
        beq fib_done
        add r4, r2, r3
        mov r2, r3
        mov r3, r4
        sub r0, r0, #1
        b fib_loop
    fib_done:
        mov r0, r2
        bx lr
    "#;
    assert_eq!(exit_code(code), 55);
}

#[test]
fn signed_conditions() {
    // -5 < 3 via blt.
    let code = r#"
        mov r0, #0
        mov r1, #5
        rsb r1, r1, #0      ; r1 = -5
        cmp r1, #3
        blt less
        svc #0
    less:
        mov r0, #1
        svc #0
    "#;
    assert_eq!(exit_code(code), 1);
}

#[test]
fn memory_widths_and_addressing() {
    let code = r#"
        mov32 r5, buffer
        mov32 r1, #0x11223344
        str  r1, [r5]
        ldrb r0, [r5, #3]       ; 0x11
        ldrh r2, [r5]           ; 0x3344
        add  r0, r0, r2         ; 0x3355
        mov  r3, #2
        ldrb r4, [r5, r3]       ; 0x22
        add  r0, r0, r4         ; 0x3377
        strh r0, [r5, #4]
        ldr  r6, [r5, #4]
        cmp  r6, r0
        beq  ok
        mov  r0, #0
    ok:
        svc #0
        .align 8
    buffer:
        .word 0
        .word 0
    "#;
    assert_eq!(exit_code(code), 0x3377);
}

#[test]
fn stack_pushes_through_sp() {
    let code = r#"
        mov  r1, #42
        sub  sp, sp, #8
        str  r1, [sp]
        str  r1, [sp, #4]
        ldr  r0, [sp, #4]
        add  sp, sp, #8
        svc  #0
    "#;
    assert_eq!(exit_code(code), 42);
}

#[test]
fn llsc_single_thread_increment() {
    let code = r#"
        mov32 r5, counter
        mov   r6, #100
    outer:
    retry:
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        cmp   r2, #0
        bne   retry
        subs  r6, r6, #1
        bne   outer
        ldr   r0, [r5]
        svc   #0
        .align 8
    counter:
        .word 0
    "#;
    assert_eq!(exit_code(code), 100);
}

#[test]
fn putc_collects_output() {
    let code = r#"
        mov r0, #72     ; 'H'
        svc #1
        mov r0, #105    ; 'i'
        svc #1
        mov r0, #0
        svc #0
    "#;
    let m = machine();
    let image = assemble(code, 0x1000).unwrap();
    m.load_image(&image);
    let report = m.run_threaded(m.make_vcpus(1, 0x1000));
    assert!(report.all_ok());
    assert_eq!(report.output_string(), "Hi");
}

#[test]
fn gettid_and_nthreads_syscalls() {
    // Each thread exits with tid + nthreads; with 3 threads, tids 1..=3.
    let code = r#"
        svc #2          ; r0 = tid
        mov r4, r0
        svc #3          ; r0 = nthreads
        add r0, r0, r4
        svc #0
    "#;
    let m = machine();
    let image = assemble(code, 0x1000).unwrap();
    m.load_image(&image);
    let report = m.run_threaded(m.make_vcpus(3, 0x1000));
    let mut codes: Vec<i32> = report
        .outcomes
        .iter()
        .map(|o| match o {
            VcpuOutcome::Exited(c) => *c,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    codes.sort_unstable();
    assert_eq!(codes, vec![4, 5, 6]);
}

#[test]
fn undefined_instruction_crashes_cleanly() {
    let (_, outcome) = run_one("udf #9\n");
    match outcome {
        VcpuOutcome::Crashed(Trap::Undefined { addr, info }) => {
            assert_eq!(addr, 0x1000);
            assert_eq!(info, 9);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn unmapped_access_crashes_cleanly() {
    // Address far above memory (still inside 32-bit space): translate
    // reports out-of-range, the scheme declines, the vCPU crashes.
    let (_, outcome) = run_one("mov32 r1, #0xf0000000\nldr r0, [r1]\nsvc #0\n");
    match outcome {
        VcpuOutcome::Crashed(Trap::Fault(_)) => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn bad_syscall_is_reported() {
    let (_, outcome) = run_one("svc #99\n");
    assert_eq!(outcome, VcpuOutcome::Crashed(Trap::BadSyscall { num: 99 }));
}

#[test]
fn threads_with_disjoint_counters_do_not_interfere() {
    // Each thread bumps its own word (tid-indexed) 10000 times.
    let code = r#"
        mov32 r5, counters
        svc   #2            ; r0 = tid (1-based)
        sub   r0, r0, #1
        lsl   r0, r0, #2
        add   r5, r5, r0    ; &counters[tid-1]
        mov   r6, #10000
    loop:
        ldr   r1, [r5]
        add   r1, r1, #1
        str   r1, [r5]
        subs  r6, r6, #1
        bne   loop
        mov   r0, #0
        svc   #0
        .align 64
    counters:
        .space 64
    "#;
    let m = machine();
    let image = assemble(code, 0x1000).unwrap();
    m.load_image(&image);
    let report = m.run_threaded(m.make_vcpus(8, 0x1000));
    assert!(report.all_ok());
    let base = image.symbol("counters").unwrap();
    for i in 0..8 {
        assert_eq!(m.space.load(base + i * 4, Width::Word).unwrap(), 10000);
    }
    assert_eq!(report.stats.stores, 8 * 10000);
    assert!(report.stats.insns >= 8 * 10000 * 4);
}

#[test]
fn lockstep_round_robin_is_deterministic() {
    let code = r#"
        mov32 r5, cell
        svc   #2
        str   r0, [r5]      ; each thread writes its tid
        ldr   r0, [r5]
        svc   #0
        .align 8
    cell:
        .word 0
    "#;
    let run = || {
        let m = MachineCore::new(
            MachineConfig {
                mem_size: 1 << 20,
                max_block_insns: 1,
                ..MachineConfig::default()
            },
            Box::new(TestCas::new()),
        )
        .unwrap();
        let image = assemble(code, 0x1000).unwrap();
        m.load_image(&image);
        let report = m.run_scheduled(
            m.make_vcpus(3, 0x1000),
            &mut RoundRobin::default(),
            1_000_000,
        );
        report
            .outcomes
            .iter()
            .map(|o| match o {
                VcpuOutcome::Exited(c) => *c,
                other => panic!("unexpected {other:?}"),
            })
            .collect::<Vec<_>>()
    };
    let first = run();
    for _ in 0..3 {
        assert_eq!(run(), first);
    }
}

#[test]
fn lockstep_explicit_schedule_orders_writes() {
    // Two threads each store their tid to the same cell then exit with
    // the value they read back. Schedule thread 1 (index 1) completely
    // first, then thread 0: the final value must be thread 0's tid.
    let code = r#"
        mov32 r5, cell
        svc   #2
        mov   r4, r0
        str   r4, [r5]
        ldr   r0, [r5]
        svc   #0
        .align 8
    cell:
        .word 0
    "#;
    let m = MachineCore::new(
        MachineConfig {
            mem_size: 1 << 20,
            max_block_insns: 1,
            ..MachineConfig::default()
        },
        Box::new(TestCas::new()),
    )
    .unwrap();
    let image = assemble(code, 0x1000).unwrap();
    m.load_image(&image);
    // 16 steps of vCPU 1 first (enough to finish), then vCPU 0.
    let schedule: Vec<u32> = std::iter::repeat_n(1, 16).chain([0; 16]).collect();
    let report = m.run_scheduled(
        m.make_vcpus(2, 0x1000),
        &mut RoundRobin::with_prefix(schedule),
        1_000_000,
    );
    assert_eq!(report.outcomes[1], VcpuOutcome::Exited(2));
    assert_eq!(report.outcomes[0], VcpuOutcome::Exited(1));
    let cell = image.symbol("cell").unwrap();
    assert_eq!(m.space.load(cell, Width::Word).unwrap(), 1);
}

#[test]
fn stats_profile_counts_llsc_and_stores() {
    let code = r#"
        mov32 r5, cell
        mov   r6, #50
    loop:
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        str   r1, [r5, #4]      ; a plain store per iteration
        subs  r6, r6, #1
        bne   loop
        mov   r0, #0
        svc   #0
        .align 8
    cell:
        .word 0
        .word 0
    "#;
    let m = machine();
    let image = assemble(code, 0x1000).unwrap();
    m.load_image(&image);
    let report = m.run_threaded(m.make_vcpus(1, 0x1000));
    assert!(report.all_ok());
    assert_eq!(report.stats.sc, 50);
    assert_eq!(report.stats.stores, 50);
    assert_eq!(report.stats.sc_failures, 0);
    // Translation happened once per block, far fewer than executions.
    assert!(report.stats.translations < report.stats.blocks);
}

/// The guest word the entry-kind blocks read and write; r1 points at it.
const DATA: u32 = 0x4000;
/// Where every entry-kind block exits to.
const NEXT: u32 = 0x2000;
/// `DATA`'s initial contents.
const WORD: u32 = 0x1122_3344;

/// One entry kind's block: the ops that lower to it, and the hand-computed
/// state after running them on a vCPU with r1 = `DATA`, r2 = 7, clear
/// flags and `mem[DATA]` = `WORD`.
struct Case {
    kind: &'static str,
    ops: fn(&mut BlockBuilder),
    check: fn(&ExecCtx<'_>, Result<u32, Trap>),
}

fn kind(entry: &Entry) -> String {
    let debug = format!("{entry:?}");
    debug[..debug.find([' ', '(']).unwrap_or(debug.len())].to_string()
}

fn alu(op: AluOp, dst: Option<Slot>, a: Src, b: Src, set_flags: bool) -> Op {
    Op::Alu {
        op,
        dst,
        a,
        b,
        set_flags,
    }
}

const R1: Src = Src::Slot(Slot::Reg(1));
const R2: Src = Src::Slot(Slot::Reg(2));

fn reg(n: u8) -> Option<Slot> {
    Some(Slot::Reg(n))
}

fn mem(ctx: &ExecCtx<'_>, addr: u32) -> u32 {
    ctx.machine.space.mem().load(addr, Width::Word)
}

fn flags(n: bool, z: bool, c: bool, v: bool) -> Flags {
    Flags { n, z, c, v }
}

const CASES: &[Case] = &[
    Case {
        kind: "AluRI",
        ops: |b| {
            b.push(alu(AluOp::Add, reg(3), R1, Src::Imm(5), false));
            // `cmp r2, #0` sets C, which `adc` consumes.
            b.push(alu(AluOp::Sub, None, R2, Src::Imm(0), true));
            b.push(alu(AluOp::Adc, reg(4), R2, Src::Imm(1), false));
        },
        check: |ctx, next| {
            assert_eq!(next, Ok(NEXT));
            assert_eq!((ctx.cpu.reg(3), ctx.cpu.reg(4)), (DATA + 5, 9));
            assert_eq!(ctx.cpu.flags, flags(false, false, true, false));
        },
    },
    Case {
        kind: "AluRR",
        ops: |b| {
            let t = b.temp();
            b.push(alu(AluOp::Add, Some(t), R1, R2, false));
            b.push(alu(AluOp::Sub, reg(3), Src::Slot(t), R2, false));
        },
        check: |ctx, _| assert_eq!(ctx.cpu.reg(3), DATA, "(r1 + r2) - r2"),
    },
    Case {
        kind: "Alu",
        ops: |b| b.push(alu(AluOp::Sub, reg(3), Src::Imm(9), R2, false)),
        check: |ctx, _| {
            assert_eq!(ctx.cpu.reg(3), 2);
            assert_eq!(ctx.cpu.flags, Flags::default());
        },
    },
    Case {
        kind: "AluFlags",
        ops: |b| b.push(alu(AluOp::Sub, reg(3), R2, Src::Imm(7), true)),
        check: |ctx, _| {
            assert_eq!(ctx.cpu.reg(3), 0);
            assert_eq!(ctx.cpu.flags, flags(false, true, true, false));
        },
    },
    Case {
        kind: "Compare",
        ops: |b| b.push(alu(AluOp::Sub, None, R2, Src::Imm(8), true)),
        check: |ctx, _| {
            assert_eq!(ctx.cpu.reg(2), 7);
            assert_eq!(ctx.cpu.flags, flags(true, false, false, false));
        },
    },
    Case {
        kind: "Nop",
        ops: |b| b.push(alu(AluOp::Add, None, R2, Src::Imm(1), false)),
        check: |ctx, _| {
            assert_eq!(ctx.cpu.reg(2), 7);
            assert_eq!(ctx.cpu.flags, Flags::default());
        },
    },
    Case {
        kind: "Mov",
        ops: |b| {
            let t = b.temp();
            b.push(Op::Mov {
                dst: t,
                src: R2,
                set_flags: false,
            });
            b.push(Op::Mov {
                dst: Slot::Reg(4),
                src: Src::Slot(t),
                set_flags: false,
            });
            b.push(Op::Mov {
                dst: Slot::Reg(3),
                src: Src::Imm(0),
                set_flags: true,
            });
        },
        check: |ctx, _| {
            assert_eq!((ctx.cpu.reg(3), ctx.cpu.reg(4)), (0, 7));
            assert_eq!(ctx.cpu.flags, flags(false, true, false, false));
        },
    },
    Case {
        kind: "MovNot",
        ops: |b| {
            b.push(Op::MovNot {
                dst: Slot::Reg(3),
                src: R2,
                set_flags: true,
            })
        },
        check: |ctx, _| {
            assert_eq!(ctx.cpu.reg(3), 0xffff_fff8);
            assert_eq!(ctx.cpu.flags, flags(true, false, false, false));
        },
    },
    Case {
        kind: "InsertHigh",
        ops: |b| {
            b.push(Op::Mov {
                dst: Slot::Reg(3),
                src: Src::Imm(0xffff_1234),
                set_flags: false,
            });
            b.push(Op::InsertHigh {
                dst: Slot::Reg(3),
                imm: 0xabcd,
            });
        },
        check: |ctx, _| assert_eq!(ctx.cpu.reg(3), 0xabcd_1234),
    },
    Case {
        kind: "Load",
        ops: |b| {
            let t = b.temp();
            b.push(alu(AluOp::Add, Some(t), R1, Src::Imm(1), false));
            b.push(Op::Load {
                dst: Slot::Reg(3),
                addr: R1,
                width: Width::Word,
            });
            b.push(Op::Load {
                dst: Slot::Reg(4),
                addr: Src::Slot(t),
                width: Width::Byte,
            });
            b.push(Op::Load {
                dst: Slot::Reg(5),
                addr: Src::Imm(DATA + 2),
                width: Width::Half,
            });
        },
        check: |ctx, _| {
            assert_eq!(
                (ctx.cpu.reg(3), ctx.cpu.reg(4), ctx.cpu.reg(5)),
                (WORD, 0x33, 0x1122)
            );
            assert_eq!(ctx.stats.loads, 3);
        },
    },
    Case {
        kind: "StoreWord",
        ops: |b| {
            b.push(Op::Store {
                src: R2,
                addr: R1,
                width: Width::Word,
                guest_store: true,
            })
        },
        check: |ctx, _| {
            assert_eq!(mem(ctx, DATA), 7);
            assert_eq!(ctx.stats.stores, 1);
        },
    },
    Case {
        kind: "Store",
        ops: |b| {
            b.push(Op::Store {
                src: Src::Imm(0xab),
                addr: R1,
                width: Width::Byte,
                guest_store: true,
            });
            // Scheme-internal: stored, but not counted as a guest store.
            b.push(Op::Store {
                src: Src::Imm(0x55),
                addr: Src::Imm(DATA + 4),
                width: Width::Word,
                guest_store: false,
            });
        },
        check: |ctx, _| {
            assert_eq!((mem(ctx, DATA), mem(ctx, DATA + 4)), (0x1122_33ab, 0x55));
            assert_eq!(ctx.stats.stores, 1);
        },
    },
    Case {
        kind: "CasWord",
        ops: |b| {
            for (dst, new) in [(3, 5), (4, 6)] {
                b.push(Op::CasWord {
                    dst: Slot::Reg(dst),
                    addr: R1,
                    expected: Src::Imm(WORD),
                    new: Src::Imm(new),
                });
            }
        },
        check: |ctx, _| {
            assert_eq!((ctx.cpu.reg(3), ctx.cpu.reg(4)), (1, 0));
            assert_eq!(mem(ctx, DATA), 5);
        },
    },
    Case {
        kind: "Fence",
        ops: |b| b.push(Op::Fence),
        check: |ctx, next| {
            assert_eq!(next, Ok(NEXT));
            assert_eq!((ctx.cpu.reg(1), ctx.cpu.reg(2)), (DATA, 7));
            assert_eq!(mem(ctx, DATA), WORD);
        },
    },
    Case {
        kind: "HtableSet",
        ops: |b| b.push(Op::HtableSet { addr: R1 }),
        check: |ctx, _| {
            assert_eq!(ctx.machine.store_test.get(DATA), ctx.cpu.tid);
            assert_eq!(ctx.stats.htable_sets, 1);
        },
    },
    Case {
        kind: "Helper",
        ops: |b| {
            // TestCas's LL (one argument) then SC (two).
            b.push(Op::Helper {
                id: HelperId(0),
                args: vec![R1],
                ret: Some(Slot::Reg(3)),
            });
            b.push(Op::Helper {
                id: HelperId(1),
                args: vec![R1, R2],
                ret: Some(Slot::Reg(4)),
            });
        },
        check: |ctx, _| {
            assert_eq!((ctx.cpu.reg(3), ctx.cpu.reg(4)), (WORD, 0));
            assert_eq!(mem(ctx, DATA), 7);
            assert_eq!((ctx.stats.helper_calls, ctx.stats.sc), (2, 1));
        },
    },
    Case {
        kind: "Yield",
        ops: |b| b.push(Op::Yield),
        check: |ctx, next| {
            assert_eq!(next, Ok(NEXT));
            assert_eq!(ctx.stats.yields, 1);
        },
    },
    Case {
        kind: "Window",
        ops: |b| b.push(Op::Window),
        check: |ctx, next| {
            assert_eq!(next, Ok(NEXT));
            assert_eq!(ctx.stats.yields, 0);
        },
    },
    Case {
        kind: "MonitorArm",
        ops: |b| {
            b.push(Op::MonitorArm {
                dst: Slot::Reg(3),
                addr: R1,
            })
        },
        check: |ctx, _| {
            assert_eq!(ctx.cpu.reg(3), WORD);
            assert_eq!(ctx.cpu.monitor.addr, Some(DATA));
            assert_eq!(ctx.cpu.monitor.value, WORD);
            assert_eq!((ctx.stats.ll, ctx.stats.loads), (1, 0));
        },
    },
    Case {
        kind: "MonitorScCas",
        ops: |b| {
            b.push(Op::MonitorArm {
                dst: Slot::Reg(3),
                addr: R1,
            });
            b.push(Op::MonitorScCas {
                dst: Slot::Reg(4),
                addr: R1,
                new: R2,
            });
            // The SC disarmed the monitor: a second one fails.
            b.push(Op::MonitorScCas {
                dst: Slot::Reg(5),
                addr: R1,
                new: Src::Imm(9),
            });
        },
        check: |ctx, _| {
            assert_eq!((ctx.cpu.reg(4), ctx.cpu.reg(5)), (0, 1));
            assert_eq!(mem(ctx, DATA), 7);
            assert_eq!((ctx.stats.sc, ctx.stats.sc_failures), (2, 1));
            assert_eq!(ctx.cpu.monitor.addr, None);
        },
    },
    Case {
        kind: "MonitorClear",
        ops: |b| {
            b.push(Op::MonitorArm {
                dst: Slot::Reg(3),
                addr: R1,
            });
            b.push(Op::MonitorClear);
        },
        check: |ctx, _| assert_eq!(ctx.cpu.monitor.addr, None),
    },
    Case {
        kind: "AtomicRmw",
        ops: |b| {
            b.push(Op::AtomicRmw {
                dst: Slot::Reg(3),
                op: RmwOp::Add,
                addr: R1,
                operand: Src::Imm(5),
            })
        },
        check: |ctx, _| {
            assert_eq!(ctx.cpu.reg(3), WORD, "dst receives the old value");
            assert_eq!(mem(ctx, DATA), WORD + 5);
            let s = &ctx.stats;
            assert_eq!((s.ll, s.sc, s.fused_rmws), (1, 1, 1));
        },
    },
];

#[test]
fn every_tape_entry_kind_executes() {
    let mut seen = std::collections::BTreeSet::new();
    for case in CASES {
        let m = machine();
        m.space.mem().store(DATA, Width::Word, WORD);
        let mut b = BlockBuilder::new(0x1000);
        (case.ops)(&mut b);
        let block = b.finish(BlockExit::Jump(NEXT), 1);
        let kinds: Vec<String> = block.tape.entries().iter().map(kind).collect();
        assert!(
            kinds.iter().any(|k| k == case.kind),
            "{} block lowered to {kinds:?}",
            case.kind
        );
        seen.extend(kinds);
        let mut ctx = ExecCtx::new(Vcpu::new(1, 0x1000), &m, 1);
        ctx.cpu.set_reg(1, DATA);
        ctx.cpu.set_reg(2, 7);
        let next = interp::run_block(&mut ctx, &block);
        (case.check)(&ctx, next);
        assert_eq!(ctx.stats.blocks, 1);
    }
    // Every kind an op can lower to ran (the pool's `Operands` entries
    // are data, not ops).
    assert_eq!(seen.len(), 22, "{seen:?}");
}
