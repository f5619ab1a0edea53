//! # adbt-check — systematic interleaving checker for the atomic schemes
//!
//! A loom-style bounded schedule explorer over the engine's scheduled
//! execution mode ([`adbt::Machine::run_scheduled`]). For one (scheme,
//! litmus) pair it:
//!
//! 1. runs the litmus program non-preemptively, then systematically
//!    inserts context switches (iterative deepening by preemption count,
//!    capped by a run budget — see [`explore`]),
//! 2. judges every run with the **shadow-monitor oracle** ([`oracle`]),
//!    an independent model of architectural LL/SC legality fed by the
//!    scheduler's log — the flight recorder's
//!    [`TraceEvent`](adbt::TraceEvent)s, stamped with atom numbers, one
//!    stream for the oracle and the exported timeline ([`export`]) —
//!    and
//! 3. shrinks a failing schedule to a minimal switch set and renders it
//!    as a replayable trace (`adbt_run --replay <trace>`).
//!
//! The point is *differential*: the oracle encodes what the architecture
//! allows per atomicity class, the schemes implement what the paper
//! describes, and the checker searches for schedules where they
//! disagree. On the seeded suite that disagreement is exactly the
//! paper's Table II: PICO-CAS admits ABA ([`Litmus::AbaLlsc`],
//! [`Litmus::AbaStack`]) and PICO-ST's check-then-store window misses an
//! overlapping LL/SC pair ([`Litmus::StoreWindow`]), while HST, PST and
//! their variants are clean — see [`expected_violation`]. The SMC trio
//! ([`Litmus::SmcSelf`], [`Litmus::SmcCross`], [`Litmus::SmcSuper`])
//! probes the translation-cache lifecycle instead of the schemes and is
//! expected clean everywhere: those programs use no LL/SC, so any
//! violation would be a stale-translation bug, not a scheme bug.

pub mod explore;
pub mod export;
pub mod oracle;
pub mod shrink;

pub use explore::{check_pair, CheckOpts, PairReport, Violation};
pub use export::violation_trace_json;

use adbt::workloads::interleave::Litmus;
use adbt::SchemeKind;

/// Whether the paper (Table II) predicts a violation for this pair.
///
/// PICO-CAS is `Atomicity::Incorrect`: value comparison admits ABA even
/// among well-behaved LL/SC users, so both ABA litmuses flag it. PICO-ST
/// is strongly classified but its store-test *implementation* has a
/// check-then-store window, which the store/LL-SC race exposes. Every
/// other (scheme, litmus) pair is clean — including every scheme on the
/// SMC trio, which exercises translation invalidation, not atomicity.
pub fn expected_violation(scheme: SchemeKind, litmus: Litmus) -> bool {
    matches!(
        (scheme, litmus),
        (SchemeKind::PicoCas, Litmus::AbaLlsc)
            | (SchemeKind::PicoCas, Litmus::AbaStack)
            | (SchemeKind::PicoSt, Litmus::StoreWindow)
    )
}

/// Checks every (scheme, litmus) pair, in report order.
pub fn check_all(opts: &CheckOpts) -> Vec<PairReport> {
    let mut reports = Vec::new();
    for scheme in SchemeKind::ALL {
        for litmus in Litmus::ALL {
            reports.push(check_pair(scheme, litmus, opts));
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_matrix_names_exactly_three_violations() {
        let mut count = 0;
        for scheme in SchemeKind::ALL {
            for litmus in Litmus::ALL {
                count += expected_violation(scheme, litmus) as u32;
            }
        }
        assert_eq!(count, 3);
    }
}
