//! The pre-decoded tape a translated block executes from.
//!
//! Lowering resolves every [`Op`] once, when its block is built, into
//! one `Copy` [`Entry`] at the same index. Operands become indices into
//! the vCPU's *slot file* — guest registers at `0..REG_SLOTS`, then the
//! block's temps — or inline immediates, and the hottest op shapes get
//! entry kinds of their own, so the executor never re-inspects an
//! operand's shape for them. The two flagless ALU shapes with slot
//! operands get one kind per [`AluOp`] (see [`alu_kinds!`]), so they
//! cost one dispatch, not a second one on the op. Each op shape lowers
//! to exactly one kind;
//! the tape carries no semantics of its own (the engine's executor gives
//! each kind its meaning).

use crate::block::MAX_HELPER_ARGS;
use crate::{AluOp, HelperId, Op, RmwOp, Slot, Src, Width};

/// Slot-file entries taken by the guest registers: `r<n>` lives at index
/// `n` and temp `t` at `REG_SLOTS + t`.
pub const REG_SLOTS: usize = 16;

/// The most temps one block may use: the last temp's slot-file index
/// must still fit the tape's 16-bit operands.
pub const MAX_TEMPS: u16 = (u16::MAX as usize + 1 - REG_SLOTS) as u16;

/// The slot-file index of `slot`.
///
/// # Panics
///
/// Panics for a register above `r15` or a temp at or past
/// [`MAX_TEMPS`].
#[inline]
pub fn slot_index(slot: Slot) -> u16 {
    match slot {
        Slot::Reg(r) if (r as usize) < REG_SLOTS => r as u16,
        Slot::Temp(t) if t < MAX_TEMPS => REG_SLOTS as u16 + t,
        _ => outside_slot_file(slot),
    }
}

// Out of line: a formatted panic inlined into every operand's check
// doubled the cost of lowering a block.
#[cold]
#[inline(never)]
fn outside_slot_file(slot: Slot) -> ! {
    panic!("{slot} lies outside the slot file (r0..=r15, then temps below {MAX_TEMPS})")
}

/// An operand resolved against the slot file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Val {
    /// The value at this slot-file index.
    Slot(u16),
    /// A constant, as little-endian bytes: that keeps an operand at six
    /// bytes, so two-operand entries fit the sixteen-byte [`Entry`].
    Imm([u8; 4]),
}

impl Val {
    /// The constant `imm`.
    #[inline]
    pub fn imm(imm: u32) -> Val {
        Val::Imm(imm.to_le_bytes())
    }

    fn of(src: Src) -> Val {
        match src {
            Src::Slot(slot) => Val::Slot(slot_index(slot)),
            Src::Imm(imm) => Val::imm(imm),
        }
    }
}

/// Passes the flagless ALU kinds to the macro `$then`: for each
/// [`AluOp`], in encoding order, the op and its two kinds (slot ∘
/// immediate, then slot ∘ slot) as `[$(Op RI RR,)*]`, followed by the
/// rest of the arguments.
///
/// This is the one list of those kinds. [`Entry`] is declared from it
/// and the engine's executor generates its arm for each kind from it, so
/// every op has both kinds and none falls back to a generic one.
#[macro_export]
macro_rules! alu_kinds {
    ($then:ident $(, $($rest:tt)*)?) => {
        $then! {
            [
                Add AddRI AddRR,
                Adc AdcRI AdcRR,
                Sub SubRI SubRR,
                Sbc SbcRI SbcRR,
                Rsb RsbRI RsbRR,
                And AndRI AndRR,
                Orr OrrRI OrrRR,
                Eor EorRI EorRR,
                Bic BicRI BicRR,
                Mul MulRI MulRR,
                Lsl LslRI LslRR,
                Lsr LsrRI LsrRR,
                Asr AsrRI AsrRR,
                Ror RorRI RorRR,
            ]
            $($($rest)*)?
        }
    };
}

/// Declares [`Entry`], its flagless ALU kinds from [`alu_kinds!`] first.
macro_rules! declare_entry {
    ([$($op:ident $ri:ident $rr:ident,)*]) => {
        /// One pre-decoded op (or, past a tape's op entries, two operands
        /// of its operand pool). Slot operands are slot-file indices.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Entry {
            $(
                #[doc = concat!(
                    "[`Op::Alu`] [`AluOp::", stringify!($op), "`] without flags into a slot,",
                    " from slot `a` and an immediate."
                )]
                $ri {
                    /// Destination slot.
                    dst: u16,
                    /// Left operand slot.
                    a: u16,
                    /// Right operand.
                    imm: u32,
                },
                #[doc = concat!(
                    "[`Op::Alu`] [`AluOp::", stringify!($op), "`] without flags into a slot,",
                    " from slots `a` and `b`."
                )]
                $rr {
                    /// Destination slot.
                    dst: u16,
                    /// Left operand slot.
                    a: u16,
                    /// Right operand slot.
                    b: u16,
                },
            )*
            /// [`Op::Alu`] without flags into a slot, from any other
            /// operand shape.
            Alu {
                /// The operation.
                op: AluOp,
                /// Destination slot.
                dst: u16,
                /// Left operand.
                a: Val,
                /// Right operand.
                b: Val,
            },
            /// [`Op::Alu`] setting NZCV and writing a slot.
            AluFlags {
                /// The operation.
                op: AluOp,
                /// Destination slot.
                dst: u16,
                /// Left operand.
                a: Val,
                /// Right operand.
                b: Val,
            },
            /// [`Op::Alu`] setting NZCV with no destination: the compare/test
            /// family.
            Compare {
                /// The operation.
                op: AluOp,
                /// Left operand.
                a: Val,
                /// Right operand.
                b: Val,
            },
            /// [`Op::Alu`] with neither a destination nor flags: no effect.
            Nop,
            /// [`Op::Mov`].
            Mov {
                /// Destination slot.
                dst: u16,
                /// Source value.
                src: Val,
                /// Update N and Z.
                flags: bool,
            },
            /// [`Op::MovNot`].
            MovNot {
                /// Destination slot.
                dst: u16,
                /// Source value, inverted.
                src: Val,
                /// Update N and Z.
                flags: bool,
            },
            /// [`Op::InsertHigh`].
            InsertHigh {
                /// Destination slot.
                dst: u16,
                /// The new high half.
                imm: u16,
            },
            /// [`Op::Load`].
            Load {
                /// Destination slot.
                dst: u16,
                /// Virtual address.
                addr: Val,
                /// Access width.
                width: Width,
            },
            /// [`Op::Store`] of a guest word from a slot to a slot's address.
            StoreWord {
                /// Slot holding the value.
                src: u16,
                /// Slot holding the virtual address.
                addr: u16,
            },
            /// Every other [`Op::Store`] shape.
            Store {
                /// Value to store.
                src: Val,
                /// Virtual address.
                addr: Val,
                /// Access width.
                width: Width,
                /// Whether this is an architectural guest store.
                guest: bool,
            },
            /// [`Op::CasWord`]; its address, expected and new values are pool
            /// operands 0, 1 and 2 at `args` (see [`Tape::operand`]).
            CasWord {
                /// Destination slot (1 on success, 0 on failure).
                dst: u16,
                /// Operand-pool index.
                args: u32,
            },
            /// [`Op::Fence`].
            Fence,
            /// [`Op::HtableSet`].
            HtableSet {
                /// The guest address whose hash entry is claimed.
                addr: Val,
            },
            /// [`Op::Helper`]; its `argc` arguments are pool operands at `args`.
            Helper {
                /// Which helper to call.
                id: HelperId,
                /// Where the return value goes, if anywhere.
                ret: Option<u16>,
                /// Operand-pool index of the first argument.
                args: u32,
                /// Argument count (at most [`MAX_HELPER_ARGS`]).
                argc: u8,
            },
            /// [`Op::Yield`].
            Yield,
            /// [`Op::Window`].
            Window,
            /// [`Op::MonitorArm`].
            MonitorArm {
                /// Destination slot.
                dst: u16,
                /// Virtual address of the synchronization variable.
                addr: Val,
            },
            /// [`Op::MonitorScCas`].
            MonitorScCas {
                /// Destination slot (strex status).
                dst: u16,
                /// Virtual address of the synchronization variable.
                addr: Val,
                /// The value to store on success.
                new: Val,
            },
            /// [`Op::MonitorClear`].
            MonitorClear,
            /// [`Op::AtomicRmw`].
            AtomicRmw {
                /// Destination slot.
                dst: u16,
                /// The operation.
                op: RmwOp,
                /// Virtual address of the word.
                addr: Val,
                /// The right-hand operand.
                operand: Val,
            },
            /// Two operands of the operand pool that follows the op entries;
            /// never executed.
            Operands([Val; 2]),
        }

        impl Entry {
            /// `op`'s flagless slot ← slot ∘ immediate kind.
            fn alu_ri(op: AluOp, dst: u16, a: u16, imm: u32) -> Entry {
                match op {
                    $(AluOp::$op => Entry::$ri { dst, a, imm },)*
                }
            }

            /// `op`'s flagless slot ← slot ∘ slot kind.
            fn alu_rr(op: AluOp, dst: u16, a: u16, b: u16) -> Entry {
                match op {
                    $(AluOp::$op => Entry::$rr { dst, a, b },)*
                }
            }
        }
    };
}

alu_kinds!(declare_entry);

/// A block's pre-decoded ops: entry `i` executes op `i`, so op indices
/// (pause points) mean the same on the tape.
///
/// One exact-size allocation holds the op entries followed by the
/// operand pool of the ops whose operands do not fit an entry (helper
/// arguments, CAS operands).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tape {
    entries: Box<[Entry]>,
    /// Op entries at the front of `entries`.
    len: u32,
}

impl Tape {
    /// Lowers `ops`. Returns the tape and the number of architectural
    /// guest stores among the ops.
    ///
    /// # Panics
    ///
    /// Panics if an op names a register above `r15`, a temp at or past
    /// [`MAX_TEMPS`], or a helper with more than [`MAX_HELPER_ARGS`]
    /// arguments.
    pub fn lower(ops: &[Op]) -> (Tape, u32) {
        let mut lowering = Lowering {
            next_pool: ops.len() as u32,
            guest_stores: 0,
        };
        let mut entries = Vec::with_capacity(ops.len());
        entries.extend(ops.iter().map(|op| lowering.op(op)));
        let pool = lowering.next_pool as usize - ops.len();
        if pool > 0 {
            entries.reserve_exact(pool);
            for op in ops {
                let cas;
                let operands: &[Src] = match *op {
                    Op::Helper { ref args, .. } => args,
                    Op::CasWord {
                        addr,
                        expected,
                        new,
                        ..
                    } => {
                        cas = [addr, expected, new];
                        &cas
                    }
                    _ => continue,
                };
                for pair in operands.chunks(2) {
                    let second = pair.get(1).map_or(Val::imm(0), |&src| Val::of(src));
                    entries.push(Entry::Operands([Val::of(pair[0]), second]));
                }
            }
        }
        let tape = Tape {
            entries: entries.into_boxed_slice(),
            len: ops.len() as u32,
        };
        (tape, lowering.guest_stores)
    }

    /// Number of op entries (the lowered block's op count).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the tape holds no op entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The op entries, entry `i` for op `i`.
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.entries[..self.len as usize]
    }

    /// Operand `k` of the pool run starting at `args` (an entry's `args`
    /// field).
    ///
    /// # Panics
    ///
    /// Panics if the index lies outside the operand pool.
    #[inline]
    pub fn operand(&self, args: u32, k: usize) -> Val {
        match self.entries[args as usize + k / 2] {
            Entry::Operands(pair) => pair[k % 2],
            _ => panic!("operand {k} at {args} lies outside the operand pool"),
        }
    }

    /// Heap bytes the tape holds (op entries plus operand pool).
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val::<[Entry]>(&self.entries)
    }
}

/// Lowering state: where the next operand-pool run starts, and the
/// guest stores seen so far.
struct Lowering {
    next_pool: u32,
    guest_stores: u32,
}

impl Lowering {
    /// Reserves `operands` pool operands (two per entry); returns where
    /// they start.
    fn pool(&mut self, operands: usize) -> u32 {
        let at = self.next_pool;
        self.next_pool += operands.div_ceil(2) as u32;
        at
    }

    fn op(&mut self, op: &Op) -> Entry {
        let slot = slot_index;
        let val = Val::of;
        match *op {
            Op::Alu {
                op,
                dst: Some(dst),
                a: Src::Slot(a),
                b: Src::Imm(imm),
                set_flags: false,
            } => Entry::alu_ri(op, slot(dst), slot(a), imm),
            Op::Alu {
                op,
                dst: Some(dst),
                a: Src::Slot(a),
                b: Src::Slot(b),
                set_flags: false,
            } => Entry::alu_rr(op, slot(dst), slot(a), slot(b)),
            Op::Alu {
                op,
                dst: Some(dst),
                a,
                b,
                set_flags: false,
            } => Entry::Alu {
                op,
                dst: slot(dst),
                a: val(a),
                b: val(b),
            },
            Op::Alu {
                op,
                dst: Some(dst),
                a,
                b,
                set_flags: true,
            } => Entry::AluFlags {
                op,
                dst: slot(dst),
                a: val(a),
                b: val(b),
            },
            Op::Alu {
                op,
                dst: None,
                a,
                b,
                set_flags: true,
            } => Entry::Compare {
                op,
                a: val(a),
                b: val(b),
            },
            Op::Alu {
                dst: None,
                set_flags: false,
                ..
            } => Entry::Nop,
            Op::Mov {
                dst,
                src,
                set_flags,
            } => Entry::Mov {
                dst: slot(dst),
                src: val(src),
                flags: set_flags,
            },
            Op::MovNot {
                dst,
                src,
                set_flags,
            } => Entry::MovNot {
                dst: slot(dst),
                src: val(src),
                flags: set_flags,
            },
            Op::InsertHigh { dst, imm } => Entry::InsertHigh {
                dst: slot(dst),
                imm,
            },
            Op::Load { dst, addr, width } => Entry::Load {
                dst: slot(dst),
                addr: val(addr),
                width,
            },
            Op::Store {
                src: Src::Slot(src),
                addr: Src::Slot(addr),
                width: Width::Word,
                guest_store: true,
            } => {
                self.guest_stores += 1;
                Entry::StoreWord {
                    src: slot(src),
                    addr: slot(addr),
                }
            }
            Op::Store {
                src,
                addr,
                width,
                guest_store,
            } => {
                self.guest_stores += guest_store as u32;
                Entry::Store {
                    src: val(src),
                    addr: val(addr),
                    width,
                    guest: guest_store,
                }
            }
            Op::CasWord { dst, .. } => Entry::CasWord {
                dst: slot(dst),
                args: self.pool(3),
            },
            Op::Fence => Entry::Fence,
            Op::HtableSet { addr } => Entry::HtableSet { addr: val(addr) },
            Op::Helper { id, ref args, ret } => {
                assert!(
                    args.len() <= MAX_HELPER_ARGS,
                    "helper {id} takes {} args; the executor marshals at most {MAX_HELPER_ARGS}",
                    args.len(),
                );
                Entry::Helper {
                    id,
                    ret: ret.map(slot),
                    args: self.pool(args.len()),
                    argc: args.len() as u8,
                }
            }
            Op::Yield => Entry::Yield,
            Op::Window => Entry::Window,
            Op::MonitorArm { dst, addr } => Entry::MonitorArm {
                dst: slot(dst),
                addr: val(addr),
            },
            Op::MonitorScCas { dst, addr, new } => Entry::MonitorScCas {
                dst: slot(dst),
                addr: val(addr),
                new: val(new),
            },
            Op::MonitorClear => Entry::MonitorClear,
            Op::AtomicRmw {
                dst,
                op,
                addr,
                operand,
            } => Entry::AtomicRmw {
                dst: slot(dst),
                op,
                addr: val(addr),
                operand: val(operand),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockBuilder, BlockExit};
    use std::collections::{BTreeMap, BTreeSet};

    /// An entry's kind: its variant name.
    fn kind(entry: &Entry) -> String {
        let debug = format!("{entry:?}");
        debug[..debug.find([' ', '(']).unwrap_or(debug.len())].to_string()
    }

    /// Every op variant in every operand shape: register, temp and
    /// immediate operands; flags on and off; `dst: None`; every ALU op;
    /// byte, half and word widths; every helper arity.
    fn every_shape(b: &mut BlockBuilder) -> Vec<Op> {
        let (t0, t1) = (b.temp(), b.temp());
        let dsts = [Slot::Reg(2), t0];
        let srcs = [Src::Slot(Slot::Reg(3)), Src::Slot(t1), Src::Imm(7)];
        let widths = [Width::Byte, Width::Half, Width::Word];
        let mut ops = vec![Op::Fence, Op::Yield, Op::Window, Op::MonitorClear];
        for dst in dsts {
            ops.push(Op::InsertHigh { dst, imm: 0x1234 });
            for src in srcs {
                for set_flags in [false, true] {
                    ops.push(Op::Mov {
                        dst,
                        src,
                        set_flags,
                    });
                    ops.push(Op::MovNot {
                        dst,
                        src,
                        set_flags,
                    });
                }
                for width in widths {
                    ops.push(Op::Load {
                        dst,
                        addr: src,
                        width,
                    });
                }
                ops.push(Op::MonitorArm { dst, addr: src });
                for other in srcs {
                    ops.push(Op::MonitorScCas {
                        dst,
                        addr: src,
                        new: other,
                    });
                    ops.push(Op::AtomicRmw {
                        dst,
                        op: RmwOp::Add,
                        addr: src,
                        operand: other,
                    });
                    for third in srcs {
                        ops.push(Op::CasWord {
                            dst,
                            addr: src,
                            expected: other,
                            new: third,
                        });
                    }
                }
            }
        }
        for op in AluOp::ALL {
            for dst in [None, Some(Slot::Reg(2)), Some(t0)] {
                for a in srcs {
                    for b in srcs {
                        for set_flags in [false, true] {
                            ops.push(Op::Alu {
                                op,
                                dst,
                                a,
                                b,
                                set_flags,
                            });
                        }
                    }
                }
            }
        }
        for src in srcs {
            ops.push(Op::HtableSet { addr: src });
            for addr in srcs {
                for width in widths {
                    for guest_store in [false, true] {
                        ops.push(Op::Store {
                            src,
                            addr,
                            width,
                            guest_store,
                        });
                    }
                }
            }
        }
        for argc in 0..=MAX_HELPER_ARGS {
            for ret in [None, Some(Slot::Reg(2)), Some(t0)] {
                ops.push(Op::Helper {
                    id: HelperId(argc as u16),
                    args: (0..argc).map(|k| srcs[k % srcs.len()]).collect(),
                    ret,
                });
            }
        }
        ops
    }

    fn variant(op: &Op) -> String {
        let debug = format!("{op:?}");
        debug[..debug.find([' ', '{']).unwrap_or(debug.len())].to_string()
    }

    #[test]
    fn lowering_is_total_and_each_variant_has_its_own_kinds() {
        let mut b = BlockBuilder::new(0);
        for op in every_shape(&mut b) {
            b.push(op);
        }
        let block = b.finish(BlockExit::Jump(4), 1);
        assert_eq!(block.tape.len(), block.ops.len());

        // Each op shape lowers to exactly one kind, and no kind serves
        // two op variants: nothing runs one variant through a kind meant
        // for another, and every kind is reachable.
        let mut variants_of: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (op, entry) in block.ops.iter().zip(block.tape.entries()) {
            let (again, _) = Tape::lower(std::slice::from_ref(op));
            assert_eq!(kind(&again.entries()[0]), kind(entry), "{op:?}");
            // A flagless ALU op with a slot destination and slot `a` gets
            // the kind named after its op: `<Op>RI` or `<Op>RR`.
            if let Op::Alu {
                op: alu,
                dst: Some(_),
                a: Src::Slot(_),
                b,
                set_flags: false,
            } = *op
            {
                let shape = if matches!(b, Src::Imm(_)) { "RI" } else { "RR" };
                assert_eq!(kind(entry), format!("{alu:?}{shape}"), "{op:?}");
            }
            variants_of
                .entry(kind(entry))
                .or_default()
                .insert(variant(op));
        }
        for (kind, variants) in &variants_of {
            assert_eq!(variants.len(), 1, "{kind} serves {variants:?}");
        }
        // 20 kinds, plus two per ALU op for the flagless slot shapes.
        assert_eq!(
            variants_of.len(),
            20 + 2 * AluOp::ALL.len(),
            "every kind but Operands is used"
        );
        assert!(!variants_of.contains_key("Operands"));
    }

    #[test]
    fn hot_shapes_get_their_dedicated_kinds() {
        let alu = |dst, a, b, set_flags| Op::Alu {
            op: AluOp::Eor,
            dst,
            a,
            b,
            set_flags,
        };
        let (r1, r2, t0) = (Slot::Reg(1), Slot::Reg(2), Slot::Temp(0));
        let ops = [
            alu(Some(r1), Src::Slot(r2), Src::Imm(9), false),
            alu(Some(t0), Src::Slot(r1), Src::Slot(r2), false),
            alu(Some(r1), Src::Imm(9), Src::Slot(r2), false),
            alu(Some(r1), Src::Slot(r2), Src::Imm(9), true),
            alu(None, Src::Slot(r2), Src::Imm(9), true),
            alu(None, Src::Slot(r2), Src::Imm(9), false),
            Op::Store {
                src: Src::Slot(r1),
                addr: Src::Slot(t0),
                width: Width::Word,
                guest_store: true,
            },
            Op::Store {
                src: Src::Slot(r1),
                addr: Src::Slot(t0),
                width: Width::Word,
                guest_store: false,
            },
        ];
        let (tape, guest_stores) = Tape::lower(&ops);
        assert_eq!(guest_stores, 1);
        let imm = Val::imm(9);
        assert_eq!(
            tape.entries(),
            [
                Entry::EorRI {
                    dst: 1,
                    a: 2,
                    imm: 9
                },
                Entry::EorRR {
                    dst: 16,
                    a: 1,
                    b: 2
                },
                Entry::Alu {
                    op: AluOp::Eor,
                    dst: 1,
                    a: imm,
                    b: Val::Slot(2)
                },
                Entry::AluFlags {
                    op: AluOp::Eor,
                    dst: 1,
                    a: Val::Slot(2),
                    b: imm
                },
                Entry::Compare {
                    op: AluOp::Eor,
                    a: Val::Slot(2),
                    b: imm
                },
                Entry::Nop,
                Entry::StoreWord { src: 1, addr: 16 },
                Entry::Store {
                    src: Val::Slot(1),
                    addr: Val::Slot(16),
                    width: Width::Word,
                    guest: false
                },
            ]
        );
    }

    #[test]
    fn wide_operands_live_in_one_exact_allocation() {
        let args = vec![
            Src::Imm(1),
            Src::Slot(Slot::Temp(2)),
            Src::Slot(Slot::Reg(15)),
        ];
        let ops = [
            Op::Helper {
                id: HelperId(5),
                args: args.clone(),
                ret: Some(Slot::Temp(0)),
            },
            Op::CasWord {
                dst: Slot::Reg(0),
                addr: Src::Slot(Slot::Reg(4)),
                expected: Src::Imm(0),
                new: Src::Imm(1),
            },
            Op::Fence,
        ];
        let (tape, _) = Tape::lower(&ops);
        assert_eq!(tape.len(), 3);
        // 3 op entries + 2 pool entries for the helper + 2 for the CAS.
        assert_eq!(tape.bytes(), 7 * std::mem::size_of::<Entry>());
        assert_eq!(std::mem::size_of::<Entry>(), 16);
        let Entry::Helper {
            id,
            ret,
            args: at,
            argc,
        } = tape.entries()[0]
        else {
            panic!("not a helper entry: {:?}", tape.entries()[0]);
        };
        assert_eq!((id, ret, argc), (HelperId(5), Some(16), 3));
        let got: Vec<Val> = (0..3).map(|k| tape.operand(at, k)).collect();
        assert_eq!(got, [Val::imm(1), Val::Slot(18), Val::Slot(15)]);
        let Entry::CasWord { dst: 0, args: at } = tape.entries()[1] else {
            panic!("not a CAS entry: {:?}", tape.entries()[1]);
        };
        let got: Vec<Val> = (0..3).map(|k| tape.operand(at, k)).collect();
        assert_eq!(got, [Val::Slot(4), Val::imm(0), Val::imm(1)]);
    }

    #[test]
    #[should_panic(expected = "r16 lies outside the slot file")]
    fn registers_past_r15_are_rejected() {
        let _ = Tape::lower(&[Op::Mov {
            dst: Slot::Reg(16),
            src: Src::Imm(0),
            set_flags: false,
        }]);
    }
}
