//! Chrome trace-event JSON export (the format Perfetto and
//! `chrome://tracing` load).
//!
//! One process, one track per vCPU. Instant events (`ph:"i"`) carry the
//! guest address and payload in `args`; exclusive sections become
//! duration spans (`ph:"B"`/`ph:"E"`) so a stop-the-world storm is
//! visible as stacked bars across the per-vCPU tracks. Timestamps are
//! microseconds per the format; the nanosecond clock is emitted with a
//! fractional part so sub-microsecond events stay ordered, and the
//! deterministic instruction clock is emitted as-is (one "µs" per
//! instruction — the shape, not the wall time, is the point there).
//!
//! The document is written through [`crate::json::JsonWriter`], one
//! event per line. Its output is what `validate::validate_chrome_trace`
//! accepts — CI round-trips one through the other.

use crate::json::JsonWriter;
use crate::{TraceEvent, TraceKind};

/// Which clock stamped the events (see [`crate::TraceEvent::ts`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Nanoseconds since the recorder epoch (threaded runs).
    Nanos,
    /// Retired guest instructions (deterministic/simulated runs).
    Insns,
}

impl Clock {
    fn ts(self, raw: u64) -> String {
        match self {
            // µs with the ns residue as the fractional part.
            Clock::Nanos => format!("{}.{:03}", raw / 1000, raw % 1000),
            Clock::Insns => raw.to_string(),
        }
    }
}

/// The process id every track lives under (arbitrary but consistent).
const PID: u32 = 1;

/// Renders a full Chrome trace-event document.
pub fn render(per_vcpu: &[(u32, Vec<TraceEvent>)], clock: Clock) -> String {
    render_with_extras(per_vcpu, clock, &[])
}

/// Like [`render`], with extra top-level key/value pairs appended after
/// `traceEvents` — the values must already be valid JSON (used to embed
/// the histogram summary in the same file). Viewers ignore unknown
/// top-level keys.
pub fn render_with_extras(
    per_vcpu: &[(u32, Vec<TraceEvent>)],
    clock: Clock,
    extras: &[(&str, String)],
) -> String {
    let mut w = JsonWriter::new();
    w.obj().key("traceEvents").arr();
    open_event(&mut w, "process_name", "M", "0", 0).key("args");
    w.obj().key("name").str("adbt").end().end();
    for &(tid, _) in per_vcpu {
        open_event(&mut w, "thread_name", "M", "0", tid).key("args");
        w.obj().key("name").str(&format!("vcpu {tid}")).end().end();
    }

    for &(tid, ref events) in per_vcpu {
        // Pre-scan: an exit whose enter was overwritten by ring
        // wraparound has no matching "B" left in the ring. Dropping such
        // exits (the old repair) erased the section entirely; instead,
        // synthesize the missing opens at the track's first surviving
        // timestamp — the span's start is clamped to the ring horizon,
        // which is the truthful rendering of a torn recording — so every
        // surviving "E" still pairs and the section stays visible.
        let mut scan_depth = 0usize;
        let mut orphans = 0usize;
        for event in events {
            match event.kind {
                TraceKind::ExclusiveEnter => scan_depth += 1,
                TraceKind::ExclusiveExit => {
                    if scan_depth == 0 {
                        orphans += 1;
                    } else {
                        scan_depth -= 1;
                    }
                }
                _ => {}
            }
        }
        let first_ts = events.first().map_or(0, |e| e.ts);
        for _ in 0..orphans {
            open_event(&mut w, "exclusive", "B", &clock.ts(first_ts), tid);
            w.key("args").obj().field("waited_ns", 0);
            w.field("synthesized", true).end().end();
        }

        let mut open_spans = orphans;
        let mut last_ts = first_ts;
        for event in events {
            last_ts = last_ts.max(event.ts);
            let ts = clock.ts(event.ts);
            match event.kind {
                TraceKind::ExclusiveEnter => {
                    open_spans += 1;
                    open_event(&mut w, "exclusive", "B", &ts, tid)
                        .key("args")
                        .obj();
                    w.field("waited_ns", event.value).end().end();
                }
                TraceKind::ExclusiveExit => {
                    // Unreachable after the pre-scan (every orphan got a
                    // synthesized open); kept as a belt against a
                    // miscounted scan so the document stays balanced.
                    if open_spans == 0 {
                        continue;
                    }
                    open_spans -= 1;
                    open_event(&mut w, "exclusive", "E", &ts, tid).end();
                }
                kind => {
                    let addr = format!("{:#010x}", event.addr);
                    open_event(&mut w, kind.name(), "i", &ts, tid)
                        .key("s")
                        .str("t");
                    w.key("args").obj().key("addr").str(&addr);
                    w.field("value", event.value).end().end();
                }
            }
        }
        // A run halted mid-section (watchdog) leaves spans open; close
        // them at the track's final timestamp so viewers render them.
        for _ in 0..open_spans {
            open_event(&mut w, "exclusive", "E", &clock.ts(last_ts), tid).end();
        }
    }

    w.pad("\n").end().pad("\n").key("displayTimeUnit").str("ns");
    for (key, value) in extras {
        w.pad("\n").field(key, value);
    }
    w.end().finish() + "\n"
}

/// Opens one event on its own line, with the fields every event has.
fn open_event<'w>(
    w: &'w mut JsonWriter,
    name: &str,
    ph: &str,
    ts: &str,
    tid: u32,
) -> &'w mut JsonWriter {
    w.pad("\n").obj().key("name").str(name).key("ph").str(ph);
    w.field("ts", ts).field("pid", PID).field("tid", tid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_chrome_trace;

    fn event(ts: u64, tid: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            ts,
            tid,
            kind,
            addr: 0x1000,
            value: 7,
        }
    }

    /// A whole document, pinned byte for byte: metadata, instants, a
    /// synthesized open for an orphan exit, a real span, a span left
    /// open at the end of its track, and an extra top-level key.
    #[test]
    fn document_is_pinned() {
        let per_vcpu = vec![
            (
                1,
                vec![
                    event(1_000, 1, TraceKind::LlIssue),
                    event(2_500, 1, TraceKind::ExclusiveExit),
                    event(3_000, 1, TraceKind::ExclusiveEnter),
                    event(4_100, 1, TraceKind::ExclusiveExit),
                    event(5_001, 1, TraceKind::ScOk),
                ],
            ),
            (
                2,
                vec![
                    event(1_500, 2, TraceKind::ScFailInjected),
                    event(2_000, 2, TraceKind::ExclusiveEnter),
                    event(2_999, 2, TraceKind::Translate),
                ],
            ),
        ];
        let json = render_with_extras(
            &per_vcpu,
            Clock::Nanos,
            &[("histograms", crate::Histograms::new().to_json())],
        );
        let golden = include_str!("../tests/data/chrome_trace.json");
        assert_eq!(json, golden);
    }

    #[test]
    fn instants_and_spans_round_trip_through_the_validator() {
        let per_vcpu = vec![
            (
                1,
                vec![
                    event(100, 1, TraceKind::LlIssue),
                    event(250, 1, TraceKind::ExclusiveEnter),
                    event(900, 1, TraceKind::ExclusiveExit),
                    event(950, 1, TraceKind::ScOk),
                ],
            ),
            (2, vec![event(400, 2, TraceKind::ScFailInjected)]),
        ];
        let json = render(&per_vcpu, Clock::Nanos);
        let check = validate_chrome_trace(&json).expect("exporter output must validate");
        // 2 metadata + process meta + 4 + 1 events, one span pair.
        assert_eq!(check.spans, 1);
        assert_eq!(check.instants, 3);
        assert!(json.contains("\"name\":\"vcpu 2\""));
        assert!(
            json.contains("\"ts\":0.100"),
            "ns become fractional µs: {json}"
        );
        assert!(json.contains("\"addr\":\"0x00001000\""));
    }

    #[test]
    fn unmatched_spans_are_repaired() {
        // Enter whose exit was never written (halt), and an exit whose
        // enter was overwritten by ring wrap: both must still validate.
        let per_vcpu = vec![
            (1, vec![event(10, 1, TraceKind::ExclusiveEnter)]),
            (2, vec![event(20, 2, TraceKind::ExclusiveExit)]),
        ];
        let json = render(&per_vcpu, Clock::Insns);
        let check = validate_chrome_trace(&json).expect("repaired output validates");
        assert_eq!(
            check.spans, 2,
            "open enter is auto-closed AND the orphan exit gets a synthesized open"
        );
        assert!(
            json.contains("\"synthesized\":true"),
            "the repair marks the synthetic open: {json}"
        );
    }

    #[test]
    fn ring_wraparound_orphans_open_at_the_ring_horizon() {
        // A wrapped ring: the enter at ts=5 was overwritten, leaving
        // [instant(30), exit(40), enter(50), exit(60)]. The orphan exit
        // must get its open at the first surviving timestamp (30), keep
        // per-track timestamps non-decreasing, and leave the later real
        // pair untouched.
        let per_vcpu = vec![(
            1,
            vec![
                event(30, 1, TraceKind::LlIssue),
                event(40, 1, TraceKind::ExclusiveExit),
                event(50, 1, TraceKind::ExclusiveEnter),
                event(60, 1, TraceKind::ExclusiveExit),
            ],
        )];
        let json = render(&per_vcpu, Clock::Insns);
        let check = validate_chrome_trace(&json).expect("wrapped ring output validates");
        assert_eq!(check.spans, 2);
        let synth = json
            .find("\"synthesized\":true")
            .expect("synthetic open present");
        // The synthetic open is stamped at the track's first event.
        assert!(json[..synth].contains("\"ts\":30"), "{json}");
    }

    #[test]
    fn insn_clock_is_integral_and_extras_are_embedded() {
        let per_vcpu = vec![(1, vec![event(12345, 1, TraceKind::Translate)])];
        let json = render_with_extras(
            &per_vcpu,
            Clock::Insns,
            &[("histograms", "{\"x\":1}".to_string())],
        );
        assert!(json.contains("\"ts\":12345,"));
        assert!(json.contains("\"histograms\":{\"x\":1}"));
        validate_chrome_trace(&json).expect("extras must not break the document");
    }
}
