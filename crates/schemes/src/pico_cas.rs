//! PICO-CAS: the scheme QEMU-4.1 actually ships (paper §II-B, Fig. 1).
//!
//! LL records the synchronization variable's address and value in the
//! vCPU state; SC issues a host `CAS` comparing the *value*. No store is
//! instrumented and no exclusion is enforced, so it is the fastest scheme
//! — and the incorrect one: if the value was changed and restored between
//! LL and SC (the ABA pattern), or if two LL/SC pairs overlap just so
//! (§IV-A Seq2–Seq4), the SC succeeds when the architecture says it must
//! fail.
//!
//! Counting flows entirely through the inline ops: the engine's
//! `Op::MonitorScCas` / `Op::MonitorClear` entries call `note_sc` /
//! `note_clrex`, which count `sc_failures` and `monitor_clears` and
//! charge them to the current guest PC — so PICO-CAS needs no
//! helper-side count sites of its own.

use adbt_engine::{AtomicScheme, Atomicity, HelperRegistry};
use adbt_ir::{BlockBuilder, Op, Slot, Src};

/// The QEMU-4.1 baseline scheme. Entirely inline: LL lowers to
/// [`Op::MonitorArm`], SC to [`Op::MonitorScCas`] — no helpers at all,
/// mirroring QEMU's inline TCG lowering.
#[derive(Debug, Default)]
pub struct PicoCas {
    _private: (),
}

impl PicoCas {
    /// Creates the scheme.
    pub fn new() -> PicoCas {
        PicoCas::default()
    }
}

impl AtomicScheme for PicoCas {
    fn name(&self) -> &'static str {
        "pico-cas"
    }

    fn atomicity(&self) -> Atomicity {
        Atomicity::Incorrect
    }

    fn install(&mut self, _reg: &mut HelperRegistry) {}

    fn lower_ll(&self, b: &mut BlockBuilder, rd: Slot, addr: Src) {
        b.push(Op::MonitorArm { dst: rd, addr });
    }

    fn lower_sc(&self, b: &mut BlockBuilder, rd: Slot, value: Src, addr: Src) {
        b.push(Op::MonitorScCas {
            dst: rd,
            addr,
            new: value,
        });
    }

    fn lower_clrex(&self, b: &mut BlockBuilder) {
        b.push(Op::MonitorClear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adbt_ir::BlockExit;

    #[test]
    fn lowering_is_fully_inline() {
        let mut scheme = PicoCas::new();
        let mut reg = HelperRegistry::new();
        scheme.install(&mut reg);

        let mut b = BlockBuilder::new(0);
        scheme.lower_ll(&mut b, Slot::Reg(1), Src::Slot(Slot::Reg(0)));
        scheme.lower_sc(
            &mut b,
            Slot::Reg(2),
            Src::Slot(Slot::Reg(1)),
            Src::Slot(Slot::Reg(0)),
        );
        scheme.lower_clrex(&mut b);
        let block = b.finish(BlockExit::Jump(0), 3);
        assert!(block.ops.iter().all(|op| !matches!(op, Op::Helper { .. })));
        assert_eq!(block.ops.len(), 3);
    }
}
