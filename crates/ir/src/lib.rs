//! # adbt-ir — the translator's intermediate representation
//!
//! A small, TCG-like IR sitting between the guest ISA (`adbt-isa`) and
//! the execution engine (`adbt-engine`). Guest basic blocks are lowered
//! to a straight-line [`Block`] of [`Op`]s ending in a single
//! [`BlockExit`]. Building a block also lowers its ops to a [`Tape`] of
//! pre-decoded entries, which the engine executes against a per-vCPU
//! slot file (registers, then temps) and shared guest memory.
//!
//! Two design points matter for reproducing the CGO'21 paper:
//!
//! * **Inline vs helper instrumentation.** The paper shows that HST beats
//!   PICO-ST largely because HST's per-store hash-table update is emitted
//!   *at the IR level* (here: the dedicated [`Op::HtableSet`] op — one
//!   array store when executed) while PICO-ST goes through a *helper
//!   function* (here: [`Op::Helper`], a dynamic dispatch into the runtime
//!   with argument marshalling and locking). The structural gap between
//!   the two op kinds is exactly the gap the paper measures.
//! * **Scheme hooks.** Atomic-emulation schemes lower `ldrex`/`strex`
//!   and instrument plain stores by appending ops through the
//!   [`BlockBuilder`]; everything they can emit is expressible here
//!   ([`Op::CasWord`] for PICO-CAS, helpers for SC protocols, exclusive
//!   sections, HTM markers).
//!
//! The IR carries no encoded-instruction knowledge; `adbt-isa` types
//! ([`AluOp`], [`Cond`]) are reused for operations whose semantics are
//! identical.

mod block;
mod op;
pub mod opt;
mod printer;
mod tape;

pub use block::{
    Block, BlockBuilder, BlockExit, ChainLink, ExitLinks, InvalidFlag, MAX_HELPER_ARGS,
};
pub use op::{HelperId, Op, RmwOp, Slot, Src};
pub use printer::print_block;
pub use tape::{slot_index, Entry, Tape, Val, MAX_TEMPS, REG_SLOTS};

/// Re-exported operation/condition types shared with the ISA.
pub use adbt_isa::{AluOp, Cond};
/// Re-exported access width shared with the memory substrate.
pub use adbt_mmu::Width;
