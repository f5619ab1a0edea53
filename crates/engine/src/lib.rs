//! # adbt-engine — the dynamic-binary-translation execution engine
//!
//! This crate is the QEMU-analogue substrate the CGO'21 reproduction
//! runs on: a multi-threaded DBT that fetches guest code (`adbt-isa`),
//! lowers it to IR (`adbt-ir`) through a pluggable
//! [`AtomicScheme`], caches translated blocks, and executes their
//! pre-decoded tapes on one OS thread per vCPU against shared atomic
//! guest memory
//! (`adbt-mmu`). Everything the paper's schemes need from QEMU is
//! reimplemented here:
//!
//! * a **translation cache** with per-vCPU front caches ([`MachineCore`]),
//! * QEMU's **`start_exclusive`/`end_exclusive`** stop-the-world
//!   sections with safepoints at block boundaries ([`ExclusiveBarrier`]),
//! * the **store-test hash table** mechanism ([`StoreTestTable`]) that
//!   HST-family schemes drive from inline IR,
//! * **runtime helpers** with QEMU-style dispatch cost
//!   ([`HelperRegistry`]), page-fault routing to scheme handlers, and a
//!   guest **syscall** layer,
//! * per-vCPU **statistics** with the paper's four-bucket overhead
//!   breakdown ([`VcpuStats`], [`Breakdown`]),
//! * two drivers over one dispatch loop: **threaded** (real
//!   concurrency; the wall-clock results) and one **deterministic**
//!   driver, [`MachineCore::run_scheduled`], where a [`Scheduler`] picks
//!   every atom on a single thread. Three schedulers cover the paper's
//!   evidence: [`RoundRobin`] lockstep (the §IV-A litmus tests),
//!   [`VirtualTimeScheduler`] (the virtual-time multicore behind the
//!   host-independent performance figures, via
//!   [`MachineCore::run_sim`]), and [`ScriptedScheduler`] replays (the
//!   substrate `adbt-check` enumerates interleavings with).
//!
//! The engine is deliberately scheme-agnostic: correctness and cost of
//! LL/SC emulation live entirely behind the [`AtomicScheme`] trait,
//! implemented eight ways in `adbt-schemes`.
//!
//! # Example: running a bare machine
//!
//! The engine needs a scheme to run; here a minimal (incorrect!)
//! CAS-based scheme is sketched inline. Real users take schemes from
//! `adbt-schemes`.
//!
//! ```
//! use adbt_engine::{AtomicScheme, Atomicity, HelperRegistry, MachineConfig, MachineCore};
//! use adbt_ir::{BlockBuilder, Op, Slot, Src};
//!
//! struct Naive;
//! impl AtomicScheme for Naive {
//!     fn name(&self) -> &'static str { "naive" }
//!     fn atomicity(&self) -> Atomicity { Atomicity::Incorrect }
//!     fn install(&mut self, _reg: &mut HelperRegistry) {}
//!     fn lower_ll(&self, b: &mut BlockBuilder, rd: Slot, addr: Src) {
//!         b.push(Op::Load { dst: rd, addr, width: adbt_mmu::Width::Word });
//!     }
//!     fn lower_sc(&self, b: &mut BlockBuilder, rd: Slot, value: Src, addr: Src) {
//!         // Unconditional store, success status 0 — no atomicity at all.
//!         b.push(Op::Store { src: value, addr, width: adbt_mmu::Width::Word, guest_store: false });
//!         b.push(Op::Mov { dst: rd, src: Src::Imm(0), set_flags: false });
//!     }
//!     fn lower_clrex(&self, _b: &mut BlockBuilder) {}
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = MachineCore::new(MachineConfig::default(), Box::new(Naive))?;
//! let image = adbt_isa::asm::assemble("mov r0, #0\nsvc #0\n", 0x1000)?;
//! machine.load_image(&image);
//! let report = machine.run_threaded(machine.make_vcpus(2, 0x1000));
//! assert!(report.all_ok());
//! # Ok(())
//! # }
//! ```

mod arbiter;
mod cache;
mod exclusive;
pub mod frontend;
pub mod interp;
mod machine;
mod runtime;
pub mod sched;
mod scheme;
mod state;
mod stats;
mod store_test;
pub mod watchdog;

pub use adbt_chaos::{ChaosCfg, ChaosPlane, ChaosSite, ChaosSnapshot, ChaosStream, RetryPolicy};
pub use adbt_profile::{
    Metric as ProfileMetric, PcProfile, ProfileEntry, ProfileRecorder, ProfileSnapshot,
};
pub use adbt_trace::{
    chrome, validate, Histograms, LogHistogram, TraceEvent, TraceHandle, TraceKind, TraceRecorder,
    TraceRing, WATCHDOG_TAIL,
};
pub use arbiter::{
    validate_adapt_log, AdaptAction, AdaptConfig, AdaptPolicy, CandidateInfo, EpochObservation,
    EpochSignals, Proposal, SchemeArbiter,
};
pub use cache::CacheOccupancy;
pub use exclusive::{ExclusiveBarrier, ExclusiveTelemetry, Halted};
pub use machine::{MachineConfig, MachineCore, RunReport, VcpuOutcome};
pub use runtime::{ExecCtx, FaultAccess, FaultOutcome, HelperFn, HelperRegistry, Trap};
pub use sched::{
    format_choices, Granularity, RoundRobin, SchedEvent, Scheduler, ScriptedScheduler,
    VirtualTimeScheduler,
};
pub use scheme::{AtomicScheme, Atomicity, SchemeCostModel, StoreFamily};
pub use state::{Flags, Monitor, Vcpu, VcpuSnapshot};
pub use stats::{
    calibration, Breakdown, Calibration, Counter, Merge, SimBreakdown, SimCosts, Unit, VcpuStats,
};
pub use store_test::StoreTestTable;
pub use watchdog::{VcpuBeat, WatchdogDump};
