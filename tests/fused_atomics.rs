//! Tests for the §VI rule-based translation pass: canonical LL/SC retry
//! loops fuse into single host atomics, stay correct under contention,
//! and non-canonical loops fall back to the scheme untouched.

use adbt::{MachineBuilder, SchemeKind};

const COUNTER_LOOP: &str = r#"
    mov32 r5, counter
    mov32 r6, #2000
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

fn run_counter(kind: SchemeKind, fuse: bool, threads: u32) -> (u32, adbt::RunReport) {
    let mut machine = MachineBuilder::new(kind)
        .memory(4 << 20)
        .fuse_atomics(fuse)
        .build()
        .unwrap();
    machine.load_asm(COUNTER_LOOP, 0x1_0000).unwrap();
    let report = machine.run(threads, 0x1_0000);
    let counter = machine.symbol("counter").unwrap();
    (machine.read_word(counter).unwrap(), report)
}

#[test]
fn fused_counter_is_exact_and_actually_fused() {
    for kind in [SchemeKind::Hst, SchemeKind::PicoCas, SchemeKind::Pst] {
        let (value, report) = run_counter(kind, true, 8);
        assert!(report.all_ok(), "{kind}: {:?}", report.outcomes);
        assert_eq!(value, 8 * 2000, "{kind}");
        assert!(
            report.stats.fused_rmws >= 8 * 2000,
            "{kind}: loops were not fused ({} fused)",
            report.stats.fused_rmws
        );
        // A fused loop never fails: the whole RMW is one host atomic.
        assert_eq!(report.stats.sc_failures, 0, "{kind}");
        // And the scheme's machinery went unused.
        assert_eq!(report.stats.exclusive_entries, 0, "{kind}");
        assert_eq!(report.stats.mprotect_calls, 0, "{kind}");
    }
}

#[test]
fn unfused_baseline_still_works() {
    let (value, report) = run_counter(SchemeKind::Hst, false, 4);
    assert!(report.all_ok());
    assert_eq!(value, 4 * 2000);
    assert_eq!(report.stats.fused_rmws, 0);
}

/// Register aliasing, flag-setting updates, interleaved instructions and
/// wrong branch targets must all make the pass decline.
#[test]
fn non_canonical_loops_are_not_fused() {
    let cases = [
        // Flag-setting ALU.
        "retry: ldrex r1, [r5]\nadds r1, r1, #1\nstrex r2, r1, [r5]\ncmp r2, #0\nbne retry\n",
        // Extra instruction inside the loop.
        "retry: ldrex r1, [r5]\nadd r1, r1, #1\nnop\nstrex r2, r1, [r5]\ncmp r2, #0\nbne retry\n",
        // Multiply is not a host atomic.
        "retry: ldrex r1, [r5]\nmul r1, r1, r4\nstrex r2, r1, [r5]\ncmp r2, #0\nbne retry\n",
        // Stored register differs from the computed one.
        "retry: ldrex r1, [r5]\nadd r3, r1, #1\nstrex r2, r1, [r5]\ncmp r2, #0\nbne retry\n",
        // Branch to somewhere other than the ldrex.
        "top: nop\nretry: ldrex r1, [r5]\nadd r1, r1, #1\nstrex r2, r1, [r5]\ncmp r2, #0\nbne top\n",
        // cmp against nonzero (with beq so the guest still terminates).
        "retry: ldrex r1, [r5]\nadd r1, r1, #1\nstrex r2, r1, [r5]\ncmp r2, #1\nbeq retry\n",
    ];
    for (i, body) in cases.iter().enumerate() {
        let source = format!(
            "mov32 r5, cell\nmov r4, #3\n{body}mov r0, #0\nsvc #0\n.align 4096\ncell: .word 5\n"
        );
        let mut machine = MachineBuilder::new(SchemeKind::Hst)
            .memory(2 << 20)
            .fuse_atomics(true)
            .build()
            .unwrap();
        machine.load_asm(&source, 0x1_0000).unwrap();
        let report = machine.run(1, 0x1_0000);
        assert!(report.all_ok(), "case {i}: {:?}", report.outcomes);
        assert_eq!(report.stats.fused_rmws, 0, "case {i} was wrongly fused");
    }
}

/// Every fusable operation (add/sub/and/orr/eor, immediate and register
/// operands) computes the same final state as the unfused scheme path.
#[test]
fn fused_ops_match_unfused_semantics() {
    let ops = [
        ("add", "#5"),
        ("sub", "#3"),
        ("and", "r7"),
        ("orr", "#0x70"),
        ("eor", "r7"),
    ];
    for (op, operand) in ops {
        let source = format!(
            r#"
                mov32 r5, cell
                mov   r7, #0x3c
            retry:
                ldrex r1, [r5]
                {op}  r3, r1, {operand}
                strex r2, r3, [r5]
                cmp   r2, #0
                bne   retry
                ; expose after-state: r0 = r1 ^ r3 ^ r2-shifted
                mov   r0, r3
                svc   #0
                .align 4096
            cell:
                .word 0x0f0f
            "#
        );
        let run = |fuse: bool| {
            let mut machine = MachineBuilder::new(SchemeKind::Hst)
                .memory(2 << 20)
                .fuse_atomics(fuse)
                .build()
                .unwrap();
            machine.load_asm(&source, 0x1_0000).unwrap();
            let report = machine.run(1, 0x1_0000);
            let cell = machine.read_word(machine.symbol("cell").unwrap()).unwrap();
            let code = match report.outcomes[0] {
                adbt::VcpuOutcome::Exited(code) => code,
                ref other => panic!("{op}: {other:?}"),
            };
            (cell, code, report.stats.fused_rmws)
        };
        let (cell_fused, code_fused, fused_count) = run(true);
        let (cell_plain, code_plain, plain_count) = run(false);
        assert_eq!(cell_fused, cell_plain, "{op}: memory state diverged");
        assert_eq!(code_fused, code_plain, "{op}: register state diverged");
        assert_eq!(fused_count, 1, "{op}: expected exactly one fusion");
        assert_eq!(plain_count, 0);
    }
}

/// The fused path keeps the profile commensurable: one fused RMW counts
/// as one LL and one SC.
#[test]
fn fused_profile_counts_llsc() {
    let (_, report) = run_counter(SchemeKind::Hst, true, 2);
    assert_eq!(report.stats.ll, report.stats.fused_rmws);
    assert_eq!(report.stats.sc, report.stats.fused_rmws);
}

/// PST false sharing under a fused RMW. vCPU 1 takes an LL on `lock`
/// (PST write-protects its page), raises `flag` and waits; vCPU 2 waits
/// for the flag, runs 100 fused adds on `counter` — the next word, on
/// the protected page — and then releases vCPU 1, whose SC exits with
/// its status. Every add faults; the handler finds false sharing, keeps
/// vCPU 1's monitor and lets the add pass the protection, exactly once.
const FALSE_SHARING_RMW: &str = r#"
    svc   #2                ; r0 = tid
    mov32 r5, lock
    mov32 r7, flag
    cmp   r0, #1
    bne   adder
    ldrex r1, [r5]
    mov   r2, #1
    str   r2, [r7]          ; the LL is armed
hold:
    ldr   r3, [r7, #4]
    cmp   r3, #0
    beq   hold
    add   r1, r1, #1
    strex r0, r1, [r5]      ; exit 0 iff the SC succeeds
    svc   #0
adder:
    ldr   r3, [r7]
    cmp   r3, #0
    beq   adder
    add   r6, r5, #4
    mov   r4, #100
add_loop:
    ldrex r1, [r6]
    add   r1, r1, #1
    strex r2, r1, [r6]
    cmp   r2, #0
    bne   add_loop
    subs  r4, r4, #1
    bne   add_loop
    mov   r2, #1
    str   r2, [r7, #4]      ; release vCPU 1
    mov   r0, #0
    svc   #0
    .align 4096
lock:
    .word 0
counter:
    .word 0
    .align 4096
flag:
    .word 0
    .word 0
"#;

#[test]
fn fused_rmw_under_pst_false_sharing_lands_once() {
    for kind in [SchemeKind::Pst, SchemeKind::PstRemap] {
        for sim in [false, true] {
            let mut machine = MachineBuilder::new(kind)
                .memory(4 << 20)
                .fuse_atomics(true)
                .build()
                .unwrap();
            machine.load_asm(FALSE_SHARING_RMW, 0x1_0000).unwrap();
            let report = if sim {
                machine.run_sim(2, 0x1_0000)
            } else {
                machine.run(2, 0x1_0000)
            };
            let cell = format!("{kind}, sim {sim}");
            assert_eq!(
                report.outcomes,
                vec![adbt::VcpuOutcome::Exited(0); 2],
                "{cell}: vCPU 1's SC must succeed"
            );
            let counter = machine.symbol("counter").unwrap();
            assert_eq!(machine.read_word(counter).unwrap(), 100, "{cell}");
            assert_eq!(report.stats.fused_rmws, 100, "{cell}");
            assert!(report.stats.false_sharing_faults > 0, "{cell}");
        }
    }
}
