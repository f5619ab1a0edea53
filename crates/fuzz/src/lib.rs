//! # adbt-fuzz — cross-scheme differential fuzzer
//!
//! The repository's schemes, modes, and chaos plane are each
//! tested in isolation; this crate tests their *agreement*. A
//! seed-replayable generator (see [`gen`]) emits racy-but-
//! result-deterministic guest programs, and the differential runner
//! (see [`diff`]) executes each one across every scheme ×
//! {sim, sim+chaos, sim+prof, threaded, scheduled} cell,
//! requiring identical outcomes and final memory everywhere — plus
//! agreement with the generator's static predictions, plus the
//! counter-invariant suite per cell. Any disagreement is minimized by
//! the shared drop-one shrinker and packaged into a replayable
//! artifact (seed, minimized source, `adbt_run` repro command lines,
//! scheduled replay trace, Chrome trace).
//!
//! The `adbt_fuzz` binary drives campaigns; `--ci` pins a frozen
//! corpus so continuous integration stays deterministic, and
//! `tests/fuzz_regressions.rs` freezes seeds that once found bugs.

#![warn(missing_docs)]

pub mod diff;
pub mod gen;
pub mod rng;

pub use diff::{
    counter_violations, run_campaign, run_seed, Artifact, Cell, CellMode, Divergence, FuzzOpts,
    SeedResult,
};
pub use gen::{Action, FuzzProgram, GenConfig, ProgramSpec};
pub use rng::SplitMix64;

/// The pinned first seed of the CI corpus (`adbt_fuzz --ci`). Changing
/// it invalidates triage notes that reference CI seed numbers — treat
/// it like an ABI constant.
pub const CI_CORPUS_START: u64 = 0xADB7_F022_0000_0000;
