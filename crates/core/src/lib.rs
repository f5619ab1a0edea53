//! # adbt — correct and fast LL/SC emulation for cross-ISA DBT
//!
//! `adbt` is a from-scratch reproduction of *Enhancing Atomic Instruction
//! Emulation for Cross-ISA Dynamic Binary Translation* (CGO 2021): a
//! multi-threaded dynamic binary translator for an ARM-like guest ISA
//! whose `ldrex`/`strex` (LL/SC) instructions are emulated by one of
//! eight pluggable schemes — the paper's two contributions (**HST**,
//! **PST**) with their variants, and the three prior baselines
//! (**PICO-CAS**, **PICO-ST**, **PICO-HTM**).
//!
//! This crate is the user-facing facade. It re-exports the substrate
//! crates and adds:
//!
//! * [`Machine`] / [`MachineBuilder`] — assemble a guest program, pick a
//!   scheme, run on real threads or under a deterministic scheduler.
//! * [`harness`] — ready-made runners for the paper's experiments: the
//!   ABA lock-free-stack test, the Seq1–Seq4 litmus interleavings, and
//!   the PARSEC-like kernels.
//!
//! # Quickstart
//!
//! ```
//! use adbt::{MachineBuilder, SchemeKind};
//!
//! # fn main() -> Result<(), adbt::Error> {
//! let mut machine = MachineBuilder::new(SchemeKind::Hst).build()?;
//! machine.load_asm(
//!     r#"
//!     retry:
//!         ldrex r1, [r5]
//!         add   r1, r1, #1
//!         strex r2, r1, [r5]
//!         cmp   r2, #0
//!         bne   retry
//!         mov   r0, #0
//!         svc   #0
//!     "#,
//!     0x1000,
//! )?;
//! // r5 is zero, so the LL/SC pair increments guest address 0.
//! let report = machine.run(4, 0x1000);
//! assert!(report.all_ok());
//! assert_eq!(machine.read_word(0)?, 4);
//! # Ok(())
//! # }
//! ```

mod error;
pub mod harness;
mod machine;
pub mod observe;

pub use error::Error;
pub use machine::{Machine, MachineBuilder};

// The substrate, re-exported under stable paths.
pub use adbt_engine::{
    validate_adapt_log, AdaptAction, AdaptConfig, AdaptPolicy, Atomicity, Breakdown, ChaosCfg,
    ChaosSite, ChaosSnapshot, Histograms, LogHistogram, MachineConfig, ProfileEntry, ProfileMetric,
    ProfileRecorder, ProfileSnapshot, RetryPolicy, RoundRobin, RunReport, SimBreakdown, SimCosts,
    TraceEvent, TraceKind, TraceRecorder, Trap, Vcpu, VcpuOutcome, VcpuStats, WatchdogDump,
};
pub use adbt_isa::asm::{assemble, Image};
pub use adbt_schemes::SchemeKind;

/// The guest ISA.
pub mod isa {
    pub use adbt_isa::*;
}

/// Guest memory and the soft-MMU.
pub mod mmu {
    pub use adbt_mmu::*;
}

/// The guest workload generators.
pub mod workloads {
    pub use adbt_workloads::*;
}

/// The raw engine, for advanced embedding.
pub mod engine {
    pub use adbt_engine::*;
}

/// The flight-recorder exporters (Chrome trace-event JSON + validator).
pub mod trace {
    pub use adbt_engine::{chrome, validate};
}

/// The guest-PC contention profiler: attribution plane, `.prof` export,
/// flamegraph folding and the metrics-snapshot schema.
pub mod profile {
    pub use adbt_profile::*;
}

/// The scheme implementations.
pub mod schemes {
    pub use adbt_schemes::*;
}

/// The online scheme arbiter (`--scheme auto` / adaptive mode).
pub mod adapt {
    pub use adbt_adapt::*;
}
