//! The atomic-emulation scheme interface.
//!
//! A scheme decides how guest `ldrex`/`strex`/`clrex` are lowered to IR,
//! whether and how plain guest stores are instrumented, and how page
//! faults raised by the soft-MMU are handled. The eight schemes the
//! CGO'21 paper studies are implemented against this trait in the
//! `adbt-schemes` crate; the engine is scheme-agnostic.

use crate::runtime::{ExecCtx, FaultOutcome, HelperRegistry};
use adbt_ir::{BlockBuilder, Slot, Src};
use adbt_mmu::{PageFault, Width};
use std::fmt;

/// The atomicity class a scheme guarantees for LL/SC emulation,
/// following the paper's §II-D taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Atomicity {
    /// Conflicts with *any* store — LL/SC or plain — break the monitor
    /// (the architecture's actual requirement).
    Strong,
    /// Only conflicting LL/SC pairs break the monitor; plain stores go
    /// unnoticed.
    Weak,
    /// Value-comparison only (PICO-CAS): vulnerable to ABA even among
    /// well-behaved LL/SC users.
    Incorrect,
}

impl fmt::Display for Atomicity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Atomicity::Strong => "strong",
            Atomicity::Weak => "weak",
            Atomicity::Incorrect => "incorrect",
        })
    }
}

/// An LL/SC emulation scheme: translation-time lowering hooks plus
/// runtime fault handling.
///
/// Lowering hooks run under the translator with a [`BlockBuilder`];
/// anything dynamic must go through helpers registered in
/// [`AtomicScheme::install`] (called exactly once, before the machine
/// starts) or through the dedicated inline ops (`Op::HtableSet`,
/// `Op::CasWord`).
pub trait AtomicScheme: Send + Sync {
    /// The scheme's short name (`"hst"`, `"pico-cas"`, …).
    fn name(&self) -> &'static str;

    /// The atomicity class this scheme provides.
    fn atomicity(&self) -> Atomicity;

    /// Whether the scheme needs the HTM domain (engine then feeds plain
    /// stores to the conflict detector).
    fn requires_htm(&self) -> bool {
        false
    }

    /// Whether the scheme manipulates page protections (documentation /
    /// reporting only).
    fn uses_page_protection(&self) -> bool {
        false
    }

    /// Whether `adbt_ir::opt` may coalesce redundant `Op::HtableSet`
    /// marks that originate from *this scheme's LL lowering* (an
    /// `HtableSet` immediately followed by a `MonitorArm` on the same
    /// address). No engine path runs that optimizer: the benchmark in
    /// `e2ebench/` is the only caller of either, and both go when it
    /// next changes.
    ///
    /// Legality: dropping a redundant LL-origin mark only risks this
    /// vCPU's own SC failing spuriously — architecturally legal on ARM.
    /// Marks emitted for plain guest *stores* are never touched: a
    /// competitor's SC must observe them, so removing one would be an
    /// interleaving-visible atomicity violation. Only HST-family schemes
    /// (which drive the store-test table from inline IR) opt in.
    fn coalesce_htable_marks(&self) -> bool {
        false
    }

    /// Registers the scheme's runtime helpers; called once at machine
    /// construction, before any translation.
    fn install(&mut self, reg: &mut HelperRegistry);

    /// Lowers `ldrex rd, [addr]`.
    fn lower_ll(&self, b: &mut BlockBuilder, rd: Slot, addr: Src);

    /// Lowers `strex rd, value, [addr]`: `rd` receives 0 on success,
    /// 1 on failure.
    fn lower_sc(&self, b: &mut BlockBuilder, rd: Slot, value: Src, addr: Src);

    /// Lowers `clrex`.
    fn lower_clrex(&self, b: &mut BlockBuilder);

    /// Instruments a plain guest store to `addr` (called immediately
    /// before the store op is emitted). The default does nothing — the
    /// weak/incorrect schemes' choice.
    fn instrument_store(&self, b: &mut BlockBuilder, addr: Src) {
        let _ = (b, addr);
    }

    /// Lowers a plain guest store. The default emits the instrumentation
    /// hook followed by the store op; PICO-ST overrides this to route the
    /// *whole* store through a locked helper (its check and update must
    /// be one atomic step, per the paper's §II-B).
    fn lower_store(&self, b: &mut BlockBuilder, src: Src, addr: Src, width: Width) {
        self.instrument_store(b, addr);
        b.push(adbt_ir::Op::Store {
            src,
            addr,
            width,
            guest_store: true,
        });
    }

    /// Handles a page fault raised by a guest access of `width` bytes
    /// (`fault.access` says which kind), after the translation cache
    /// settled any SMC claim on it. The handler never performs the
    /// access: it changes what it must (monitors, permissions) and says
    /// how the access proceeds, which the fault path then performs in
    /// the faulting accessor's own shape — a plain store, a CAS or a
    /// fused RMW. A `Bypass` may carry a [`Release`](crate::Release)
    /// that keeps the decision in force (a lock guard) until the access
    /// has landed. The default declares the fault fatal (schemes that
    /// never protect pages should never see faults from healthy guests).
    fn on_page_fault(
        &self,
        ctx: &mut ExecCtx<'_>,
        fault: PageFault,
        width: Width,
    ) -> FaultOutcome<'_> {
        let _ = (ctx, fault, width);
        FaultOutcome::Fatal
    }
}

impl fmt::Debug for dyn AtomicScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AtomicScheme({})", self.name())
    }
}
