//! The shadow-monitor oracle: architectural LL/SC legality, judged from
//! the scheduler's log.
//!
//! The oracle keeps one *shadow monitor* per vCPU — an independent,
//! trivially-correct model of what an exclusive monitor is allowed to
//! observe — and replays the run's log of [`TraceEvent`]s (the flight
//! recorder's events, stamped with atom numbers) against it. A scheme
//! is wrong when a store-conditional it reported as *successful* is one
//! the architecture would have to fail. It reads five kinds: `ll`,
//! `sc_ok`, the two SC failures, `clrex` and `store`; every other event
//! in the log is context for a human reader.
//!
//! Rules, per §2 of the ARM-style LL/SC contract the guest ISA models:
//!
//! * `ldrex` arms the executing vCPU's monitor on the loaded word;
//!   `clrex` disarms it; any own SC (either outcome) consumes it.
//! * A **successful** SC by *another* vCPU overlapping the monitored
//!   word breaks the monitor — under every atomicity class (an SC is an
//!   explicit synchronization store; even weak schemes track those).
//! * A **plain guest store** by another vCPU overlapping the monitored
//!   word breaks it only under [`Atomicity::Strong`] judging. Weak
//!   schemes are *allowed* to miss plain stores — that is precisely the
//!   paper's strong/weak split — so runs of weakly-classified schemes
//!   are judged against the weak rules and plain-store interference is
//!   legal for them.
//! * An SC may *fail* spuriously at any time (the architecture permits
//!   it), so a failed SC is never a violation. Only an `sc_ok` while the
//!   shadow monitor is unarmed, armed on a different word, or broken is
//!   flagged.
//!
//! [`Atomicity::Incorrect`] (PICO-CAS) is judged against the **weak**
//! rules: the scheme claims at least LL/SC-vs-LL/SC correctness, and
//! that is already the claim ABA refutes. Judging it as strong would
//! only add plain-store counterexamples to a scheme we already flag.

use adbt::{Atomicity, TraceEvent, TraceKind};
use std::collections::HashMap;

/// One vCPU's shadow monitor: armed on a word, possibly broken by a
/// remembered interferer (kept for the diagnostic message).
struct Shadow {
    addr: u32,
    broken_by: Option<String>,
}

/// Monitors cover one aligned word; stores of any width break them if
/// the byte ranges overlap.
fn overlaps(mon: u32, addr: u32, bytes: u32) -> bool {
    let (mon_lo, mon_hi) = (mon as u64, mon as u64 + 4);
    let (lo, hi) = (addr as u64, addr as u64 + bytes as u64);
    lo < mon_hi && mon_lo < hi
}

/// Replays `events` (stamped with atom numbers) against the shadow
/// monitors, judging with the rules for `atomicity`. Returns the first
/// violation as a human-readable description, or `None` for a clean
/// run.
pub fn judge(atomicity: Atomicity, events: &[TraceEvent]) -> Option<String> {
    let strong = matches!(atomicity, Atomicity::Strong);
    let mut shadows: HashMap<u32, Shadow> = HashMap::new();
    for e in events {
        let (atom, tid, kind, addr, value) = (e.ts, e.tid, e.kind, e.addr, e.value);
        match kind {
            TraceKind::LlIssue => {
                shadows.insert(
                    tid,
                    Shadow {
                        addr,
                        broken_by: None,
                    },
                );
            }
            TraceKind::Clrex => {
                shadows.remove(&tid);
            }
            // A store's payload is its width in bytes.
            TraceKind::GuestStore if strong => {
                for (&owner, shadow) in shadows.iter_mut() {
                    if owner != tid
                        && shadow.broken_by.is_none()
                        && overlaps(shadow.addr, addr, value)
                    {
                        shadow.broken_by = Some(format!(
                            "plain store by tid {tid} to {addr:#x} at atom {atom}"
                        ));
                    }
                }
            }
            TraceKind::ScOk | TraceKind::ScFail | TraceKind::ScFailInjected => {
                if kind == TraceKind::ScOk {
                    let verdict = match shadows.get(&tid) {
                        None => Some("its monitor was never armed".to_string()),
                        Some(s) if s.addr != addr => Some(format!(
                            "its monitor is armed on {:#x}, not {addr:#x}",
                            s.addr
                        )),
                        Some(Shadow {
                            broken_by: Some(why),
                            ..
                        }) => Some(format!("its monitor was broken by {why}")),
                        Some(_) => None,
                    };
                    if let Some(why) = verdict {
                        return Some(format!(
                            "atom {atom}: tid {tid} SC({value}) to {addr:#x} \
                             succeeded, but {why}"
                        ));
                    }
                    // A successful SC is visible interference to every
                    // other armed monitor on the word — all classes.
                    for (&owner, shadow) in shadows.iter_mut() {
                        if owner != tid
                            && shadow.broken_by.is_none()
                            && overlaps(shadow.addr, addr, 4)
                        {
                            shadow.broken_by =
                                Some(format!("SC by tid {tid} to {addr:#x} at atom {atom}"));
                        }
                    }
                }
                // Either outcome consumes the monitor (ARM: strex clears
                // the exclusive state).
                shadows.remove(&tid);
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(tid: u32, kind: TraceKind, addr: u32, value: u32) -> TraceEvent {
        TraceEvent {
            ts: 0,
            tid,
            kind,
            addr,
            value,
        }
    }
    fn ll(tid: u32, addr: u32) -> TraceEvent {
        event(tid, TraceKind::LlIssue, addr, 0)
    }
    fn sc(tid: u32, addr: u32, ok: bool) -> TraceEvent {
        let kind = if ok {
            TraceKind::ScOk
        } else {
            TraceKind::ScFail
        };
        event(tid, kind, addr, 7)
    }
    fn st(tid: u32, addr: u32) -> TraceEvent {
        event(tid, TraceKind::GuestStore, addr, 4)
    }
    /// Stamps each event with its position as the atom number.
    fn seq(events: &[TraceEvent]) -> Vec<TraceEvent> {
        events
            .iter()
            .enumerate()
            .map(|(i, &e)| TraceEvent { ts: i as u64, ..e })
            .collect()
    }

    #[test]
    fn clean_ll_sc_pair_is_legal() {
        let ev = seq(&[ll(1, 0x100), sc(1, 0x100, true)]);
        assert_eq!(judge(Atomicity::Strong, &ev), None);
    }

    #[test]
    fn sc_without_ll_is_a_violation() {
        let ev = seq(&[sc(1, 0x100, true)]);
        assert!(judge(Atomicity::Weak, &ev).unwrap().contains("never armed"));
    }

    #[test]
    fn sc_failure_is_always_legal() {
        // Spurious failure: no arming, failed SC — fine.
        let ev = seq(&[sc(1, 0x100, false)]);
        assert_eq!(judge(Atomicity::Strong, &ev), None);
    }

    #[test]
    fn interfering_sc_breaks_even_weak_monitors() {
        let ev = seq(&[
            ll(1, 0x100),
            ll(2, 0x100),
            sc(2, 0x100, true),
            sc(1, 0x100, true),
        ]);
        let why = judge(Atomicity::Weak, &ev).unwrap();
        assert!(why.contains("broken by SC by tid 2"), "{why}");
    }

    #[test]
    fn plain_store_breaks_only_strong_monitors() {
        let ev = seq(&[ll(1, 0x100), st(2, 0x102), sc(1, 0x100, true)]);
        assert!(judge(Atomicity::Strong, &ev).is_some());
        assert_eq!(judge(Atomicity::Weak, &ev), None);
        assert_eq!(judge(Atomicity::Incorrect, &ev), None);
    }

    #[test]
    fn own_store_does_not_break_own_monitor() {
        let ev = seq(&[ll(1, 0x100), st(1, 0x100), sc(1, 0x100, true)]);
        assert_eq!(judge(Atomicity::Strong, &ev), None);
    }

    #[test]
    fn non_overlapping_store_is_ignored() {
        let ev = seq(&[ll(1, 0x100), st(2, 0x104), sc(1, 0x100, true)]);
        assert_eq!(judge(Atomicity::Strong, &ev), None);
    }

    #[test]
    fn monitor_is_consumed_by_failed_sc() {
        // The failed SC disarms; the next success has no armed monitor.
        let ev = seq(&[ll(1, 0x100), sc(1, 0x100, false), sc(1, 0x100, true)]);
        assert!(judge(Atomicity::Strong, &ev).is_some());
    }

    #[test]
    fn clrex_disarms() {
        let ev = seq(&[
            ll(1, 0x100),
            event(1, TraceKind::Clrex, 0, 0),
            sc(1, 0x100, true),
        ]);
        assert!(judge(Atomicity::Strong, &ev).is_some());
    }

    #[test]
    fn rearming_clears_breakage() {
        let ev = seq(&[
            ll(1, 0x100),
            ll(2, 0x100),
            sc(2, 0x100, true),
            ll(1, 0x100),
            sc(1, 0x100, true),
        ]);
        assert_eq!(judge(Atomicity::Strong, &ev), None);
    }
}
