//! Randomized differential tests for the executor's ALU against an
//! independent reference implementation of ARM's flag semantics. Cases
//! come from a seeded xorshift generator (the workspace builds
//! air-gapped, without a property-testing crate).

use adbt_engine::{
    interp::{self, alu, alu_value},
    AtomicScheme, Atomicity, ExecCtx, Flags, HelperRegistry, MachineConfig, MachineCore, Vcpu,
};
use adbt_ir::{BlockBuilder, BlockExit, Op, Slot, Src};
use adbt_isa::AluOp;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn word(&mut self) -> u32 {
        self.next() as u32
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Operands biased toward boundary values, where carry/overflow
    /// semantics actually differ.
    fn operand(&mut self) -> u32 {
        match self.next() % 8 {
            0 => 0,
            1 => 1,
            2 => u32::MAX,
            3 => i32::MAX as u32,
            4 => i32::MIN as u32,
            _ => self.word(),
        }
    }

    fn flags(&mut self) -> Flags {
        Flags {
            n: self.flag(),
            z: self.flag(),
            c: self.flag(),
            v: self.flag(),
        }
    }
}

/// An independent (wide-arithmetic) reference for the arithmetic family.
fn reference(op: AluOp, a: u32, b: u32, flags: Flags) -> (u32, Flags) {
    let c_in = flags.c as u64;
    let wide_result = |wide: i128, unsigned: u128| -> (u32, bool, bool) {
        let r = wide as u32;
        // Carry: unsigned result does not fit in 32 bits (for adds) /
        // no borrow (for subs, computed by the caller).
        let carry = unsigned > u32::MAX as u128;
        // Overflow: signed result does not fit in i32.
        let signed: i128 = wide;
        let v = signed < i32::MIN as i128 || signed > i32::MAX as i128;
        (r, carry, v)
    };
    let (result, c, v) = match op {
        AluOp::Add => {
            let (r, carry, v) =
                wide_result(a as i32 as i128 + b as i32 as i128, a as u128 + b as u128);
            (r, carry, v)
        }
        AluOp::Adc => {
            let (r, carry, v) = wide_result(
                a as i32 as i128 + b as i32 as i128 + c_in as i128,
                a as u128 + b as u128 + c_in as u128,
            );
            (r, carry, v)
        }
        AluOp::Sub => {
            let r = a.wrapping_sub(b);
            let signed = a as i32 as i128 - b as i32 as i128;
            (
                r,
                (a as u64) >= (b as u64),
                signed < i32::MIN as i128 || signed > i32::MAX as i128,
            )
        }
        AluOp::Sbc => {
            let borrow = 1 - c_in;
            let r = a.wrapping_sub(b).wrapping_sub(borrow as u32);
            let signed = a as i32 as i128 - b as i32 as i128 - borrow as i128;
            (
                r,
                (a as u64) >= (b as u64 + borrow),
                signed < i32::MIN as i128 || signed > i32::MAX as i128,
            )
        }
        AluOp::Rsb => {
            let r = b.wrapping_sub(a);
            let signed = b as i32 as i128 - a as i32 as i128;
            (
                r,
                (b as u64) >= (a as u64),
                signed < i32::MIN as i128 || signed > i32::MAX as i128,
            )
        }
        AluOp::And => (a & b, flags.c, flags.v),
        AluOp::Orr => (a | b, flags.c, flags.v),
        AluOp::Eor => (a ^ b, flags.c, flags.v),
        AluOp::Bic => (a & !b, flags.c, flags.v),
        AluOp::Mul => (a.wrapping_mul(b), flags.c, flags.v),
        AluOp::Lsl => (a << (b % 32), flags.c, flags.v),
        AluOp::Lsr => (a >> (b % 32), flags.c, flags.v),
        AluOp::Asr => (((a as i32) >> (b % 32)) as u32, flags.c, flags.v),
        AluOp::Ror => (a.rotate_right(b % 32), flags.c, flags.v),
    };
    (
        result,
        Flags {
            n: (result as i32) < 0,
            z: result == 0,
            c,
            v,
        },
    )
}

#[test]
fn alu_matches_reference() {
    let mut rng = Rng::new(0xa1b2_c3d4);
    for _ in 0..4096 {
        let op = AluOp::ALL[(rng.next() % AluOp::ALL.len() as u64) as usize];
        let (a, b, flags) = (rng.operand(), rng.operand(), rng.flags());
        let (got, got_flags) = alu(op, a, b, flags);
        let (want, want_flags) = reference(op, a, b, flags);
        assert_eq!(got, want, "{op:?} result for a={a:#x} b={b:#x}");
        assert_eq!(got_flags, want_flags, "{op:?} flags for a={a:#x} b={b:#x}");
    }
}

/// The flagless result the tape's ALU entries compute is the reference
/// result, for every op and both carry-in values.
#[test]
fn alu_value_matches_reference() {
    let mut rng = Rng::new(0x5eed_a1a0);
    for op in AluOp::ALL {
        for carry in [false, true] {
            for _ in 0..256 {
                let (a, b) = (rng.operand(), rng.operand());
                let flags = Flags {
                    c: carry,
                    ..rng.flags()
                };
                let want = reference(op, a, b, flags).0;
                assert_eq!(
                    alu_value(op, a, b, carry),
                    want,
                    "{op:?} value for a={a:#x} b={b:#x} carry={carry}"
                );
            }
        }
    }
}

/// A scheme with no LL/SC lowering: the blocks below use none.
struct NoLlSc;

impl AtomicScheme for NoLlSc {
    fn name(&self) -> &'static str {
        "no-llsc"
    }
    fn atomicity(&self) -> Atomicity {
        Atomicity::Incorrect
    }
    fn install(&mut self, _: &mut HelperRegistry) {}
    fn lower_ll(&self, _: &mut BlockBuilder, _: Slot, _: Src) {}
    fn lower_sc(&self, _: &mut BlockBuilder, _: Slot, _: Src, _: Src) {}
    fn lower_clrex(&self, _: &mut BlockBuilder) {}
}

/// The executor writes what `alu_value` defines, for every op, with
/// slot ∘ immediate, slot ∘ slot and immediate ∘ slot operands and
/// either carry: each op's two flagless kinds and the generic `Alu`
/// kind run through a lowered block and `interp::run_block`.
#[test]
fn executor_writes_alu_value_for_every_op_and_shape() {
    let machine = MachineCore::new(MachineConfig::default(), Box::new(NoLlSc)).unwrap();
    let (ra, rb) = (Slot::Reg(1), Slot::Reg(2));
    let mut rng = Rng::new(0xe8ec_a1a0);
    for op in AluOp::ALL {
        for carry in [false, true] {
            for _ in 0..64 {
                let (a, b) = (rng.operand(), rng.operand());
                let shapes = [
                    (Src::Slot(ra), Src::Imm(b)),
                    (Src::Slot(ra), Src::Slot(rb)),
                    (Src::Imm(a), Src::Slot(rb)),
                ];
                let mut builder = BlockBuilder::new(0x1000);
                for (dst, (x, y)) in (4..).zip(shapes) {
                    builder.push(Op::Alu {
                        op,
                        dst: Some(Slot::Reg(dst)),
                        a: x,
                        b: y,
                        set_flags: false,
                    });
                }
                let block = builder.finish(BlockExit::Jump(0x2000), 1);
                let kinds: Vec<String> = block
                    .tape
                    .entries()
                    .iter()
                    .map(|entry| format!("{entry:?}").split(' ').next().unwrap().to_string())
                    .collect();
                assert_eq!(
                    kinds,
                    [format!("{op:?}RI"), format!("{op:?}RR"), "Alu".into()]
                );

                let mut ctx = ExecCtx::new(Vcpu::new(1, 0x1000), &machine, 1);
                ctx.cpu.set_reg(1, a);
                ctx.cpu.set_reg(2, b);
                ctx.cpu.flags.c = carry;
                assert_eq!(interp::run_block(&mut ctx, &block), Ok(0x2000));
                let want = alu_value(op, a, b, carry);
                for (dst, shape) in (4..).zip(["slot∘imm", "slot∘slot", "imm∘slot"]) {
                    assert_eq!(
                        ctx.cpu.reg(dst),
                        want,
                        "{op:?} {shape} a={a:#x} b={b:#x} carry={carry}"
                    );
                }
                assert_eq!(ctx.cpu.flags.c, carry, "{op:?} wrote flags");
            }
        }
    }
}

/// Differential identities the ARM manual implies.
#[test]
fn arithmetic_identities() {
    let mut rng = Rng::new(0x1de0_17e5);
    for _ in 0..4096 {
        let (a, b, flags) = (rng.operand(), rng.operand(), rng.flags());
        // SUB a,b == ADD a,(-b) for the result (not for C, which is
        // borrow-inverted).
        let (sub, _) = alu(AluOp::Sub, a, b, flags);
        let (add_neg, _) = alu(AluOp::Add, a, b.wrapping_neg(), flags);
        assert_eq!(sub, add_neg);

        // RSB a,b == SUB b,a entirely.
        let (rsb, rsb_flags) = alu(AluOp::Rsb, a, b, flags);
        let (sub_swapped, sub_flags) = alu(AluOp::Sub, b, a, flags);
        assert_eq!(rsb, sub_swapped);
        assert_eq!(rsb_flags, sub_flags);

        // ADC with carry clear == ADD; SBC with carry set == SUB.
        let clear = Flags { c: false, ..flags };
        let set = Flags { c: true, ..flags };
        assert_eq!(
            alu(AluOp::Adc, a, b, clear).0,
            alu(AluOp::Add, a, b, clear).0
        );
        assert_eq!(alu(AluOp::Sbc, a, b, set).0, alu(AluOp::Sub, a, b, set).0);
    }
}

/// CMP-then-branch is how all guest control flow works; the condition
/// predicates must agree with integer comparisons.
#[test]
fn cmp_flags_order_integers() {
    let mut rng = Rng::new(0xc0a4_3e11);
    for _ in 0..4096 {
        let (a, b) = (rng.operand(), rng.operand());
        let (_, f) = alu(AluOp::Sub, a, b, Flags::default());
        use adbt_isa::Cond;
        assert_eq!(f.holds(Cond::Eq), a == b);
        assert_eq!(f.holds(Cond::Ne), a != b);
        assert_eq!(f.holds(Cond::Cs), a >= b); // unsigned >=
        assert_eq!(f.holds(Cond::Cc), a < b); // unsigned <
        assert_eq!(f.holds(Cond::Hi), a > b); // unsigned >
        assert_eq!(f.holds(Cond::Ls), a <= b); // unsigned <=
        assert_eq!(f.holds(Cond::Ge), (a as i32) >= (b as i32));
        assert_eq!(f.holds(Cond::Lt), (a as i32) < (b as i32));
        assert_eq!(f.holds(Cond::Gt), (a as i32) > (b as i32));
        assert_eq!(f.holds(Cond::Le), (a as i32) <= (b as i32));
    }
}
