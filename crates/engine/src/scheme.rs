//! The atomic-emulation scheme interface.
//!
//! A scheme decides how guest `ldrex`/`strex`/`clrex` are lowered to IR,
//! whether and how plain guest stores are instrumented, and how page
//! faults raised by the soft-MMU are handled. The eight schemes the
//! CGO'21 paper studies are implemented against this trait in the
//! `adbt-schemes` crate; the engine is scheme-agnostic.

use crate::runtime::{ExecCtx, FaultAccess, FaultOutcome, HelperRegistry};
use adbt_ir::{BlockBuilder, Slot, Src};
use adbt_mmu::PageFault;
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

/// The store-instrumentation discipline a scheme's translated code
/// follows. Blocks from two schemes may coexist in one translation
/// cache only when their families match: a scheme whose SC consults the
/// store-test table is unsound next to blocks whose stores never mark
/// it, and vice versa. The adaptive arbiter therefore executes
/// cross-family migrations as a full cache flush and same-family
/// migrations as a targeted per-site retirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StoreFamily {
    /// Stores mark the store-test hash table inline (HST, HST-HTM).
    Htable,
    /// Stores are plain; conflicts surface as page-protection faults
    /// (PST, PST-REMAP).
    Page,
    /// Every store routes through a locked helper (PICO-ST).
    Locked,
    /// Stores are uninstrumented (HST-WEAK, PICO-CAS, PICO-HTM).
    Plain,
}

impl fmt::Display for StoreFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StoreFamily::Htable => "htable",
            StoreFamily::Page => "page",
            StoreFamily::Locked => "locked",
            StoreFamily::Plain => "plain",
        })
    }
}

/// Per-scheme cost weights for the adaptive arbiter's epoch scoring, in
/// the same abstract units as [`crate::SimCosts`] (only ratios matter).
/// Each weight prices one observable workload signal under this scheme;
/// the arbiter's predicted epoch cost is the dot product of these
/// weights with the epoch's observed signal deltas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchemeCostModel {
    /// Cost added per plain guest store (inline table mark, locked
    /// helper dispatch, …).
    pub store_unit: u64,
    /// Cost per SC attempt (exclusive section, mprotect round trip, HTM
    /// transaction, …).
    pub sc_unit: u64,
    /// Cost per *failed* SC — the scheme's retry-path price.
    pub sc_retry_unit: u64,
    /// Sensitivity to contention: cost per contended-site event (SC
    /// failures and HTM aborts are the proxies). Nonzero for HTM-backed
    /// schemes, whose transactions abort under the same interleavings
    /// that fail an SC.
    pub contention_unit: u64,
    /// Cost per page-protection event (faults, false sharing) — the
    /// PST-family storm signal.
    pub fault_unit: u64,
}

impl SchemeCostModel {
    /// A neutral model: only the baseline instruction stream is priced.
    /// Schemes that do not override [`AtomicScheme::cost_model`] score
    /// identically and the arbiter never prefers one over another.
    pub const NEUTRAL: SchemeCostModel = SchemeCostModel {
        store_unit: 0,
        sc_unit: 0,
        sc_retry_unit: 0,
        contention_unit: 0,
        fault_unit: 0,
    };
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

    /// The store-instrumentation discipline this scheme's translated
    /// blocks follow (see [`StoreFamily`] for the coexistence rules the
    /// adaptive arbiter enforces). The default matches the default
    /// no-op [`AtomicScheme::instrument_store`].
    fn store_family(&self) -> StoreFamily {
        StoreFamily::Plain
    }

    /// The scheme's cost weights for adaptive arbitration (see
    /// [`SchemeCostModel`]). The neutral default makes a scheme
    /// invisible to the arbiter's preference order.
    fn cost_model(&self) -> SchemeCostModel {
        SchemeCostModel::NEUTRAL
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
    fn lower_store(&self, b: &mut BlockBuilder, src: Src, addr: Src, width: adbt_mmu::Width) {
        self.instrument_store(b, addr);
        b.push(adbt_ir::Op::Store {
            src,
            addr,
            width,
            guest_store: true,
        });
    }

    /// Handles a page fault raised by a guest access. The default
    /// declares it fatal (schemes that never protect pages should never
    /// see faults from healthy guests).
    fn on_page_fault(
        &self,
        ctx: &mut ExecCtx<'_>,
        fault: PageFault,
        access: FaultAccess,
    ) -> FaultOutcome {
        let _ = (ctx, fault, access);
        FaultOutcome::Fatal
    }

    /// Called on the outgoing scheme when an adaptive migration moves
    /// the machine off it, inside the migration's stop-the-world window
    /// (every other vCPU is parked at a block edge). Schemes that leave
    /// machine-wide residue behind — PST's write-protected pages — must
    /// clean it up here; the default has nothing to undo.
    fn on_deactivate(&self, ctx: &mut ExecCtx<'_>) {
        let _ = ctx;
    }
}

impl fmt::Debug for dyn AtomicScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AtomicScheme({})", self.name())
    }
}
