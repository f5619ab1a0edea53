//! Exporting a checker counterexample as Chrome trace-event JSON.
//!
//! The oracle judges runs from the scheduler's log, which holds the
//! flight recorder's own [`TraceEvent`]s; this module renders that log
//! in the recorder's exchange format, so a minimized violation loads
//! into Perfetto (or `chrome://tracing`) next to any `adbt_run --trace`
//! capture. Timestamps are atom numbers — the checker's
//! instruction-granular clock, the same positions a `--replay` of the
//! violation trace steps through.

use crate::Violation;
use adbt::trace::chrome::{self, Clock};
use adbt::TraceEvent;
use std::collections::BTreeMap;

/// Renders a violation's log as a Chrome trace-event document, one
/// track per vCPU, on the atom clock.
pub fn violation_trace_json(violation: &Violation) -> String {
    let mut per_vcpu: BTreeMap<u32, Vec<TraceEvent>> = BTreeMap::new();
    for &event in &violation.events {
        per_vcpu.entry(event.tid).or_default().push(event);
    }
    chrome::render(&Vec::from_iter(per_vcpu), Clock::Insns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adbt::trace::validate::validate_chrome_trace;
    use adbt::TraceKind;

    fn sample_violation() -> Violation {
        let event = |ts, tid, kind, addr, value| TraceEvent {
            ts,
            tid,
            kind,
            addr,
            value,
        };
        Violation {
            trace: "0x2,1x3,0".to_string(),
            preemptions: 1,
            detail: "test".to_string(),
            events: vec![
                event(0, 1, TraceKind::LlIssue, 0x40, 0),
                event(1, 2, TraceKind::ExclusiveEnter, 0, 0),
                event(2, 2, TraceKind::GuestStore, 0x40, 4),
                event(3, 2, TraceKind::ExclusiveExit, 0, 0),
                event(4, 1, TraceKind::ScOk, 0x40, 7),
            ],
        }
    }

    #[test]
    fn export_validates_and_groups_by_tid() {
        let json = violation_trace_json(&sample_violation());
        let check = validate_chrome_trace(&json).expect("export is valid");
        // 5 events + process/thread-name metadata; the
        // Enter/Exit pair folds into one span.
        assert_eq!(check.instants, 3);
        assert_eq!(check.spans, 1);
        // The metadata track (tid 0) plus one per vCPU.
        assert_eq!(check.tracks, 3);
        assert!(json.contains("\"sc_ok\""));
        assert!(json.contains("\"store\""));
    }

    #[test]
    fn empty_event_stream_still_renders_valid_json() {
        let violation = Violation {
            trace: "0".to_string(),
            preemptions: 0,
            detail: "test".to_string(),
            events: Vec::new(),
        };
        let json = violation_trace_json(&violation);
        let check = validate_chrome_trace(&json).expect("empty export is valid");
        assert_eq!(check.instants, 0);
        assert_eq!(check.spans, 0);
    }
}
