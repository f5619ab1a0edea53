//! In-tree validator for Chrome trace-event JSON.
//!
//! The workspace builds air-gapped, so CI cannot load an emitted trace
//! into Perfetto to prove it is well-formed. This module is the stand-in
//! gate: it parses the document with [`crate::json::parse_json`] and
//! checks the structural rules a trace-event document must satisfy:
//!
//! * the top level is an object with a `traceEvents` array,
//! * every event is an object carrying `name` (string), `ph` (a known
//!   phase), numeric `ts`, `pid`, and `tid`,
//! * `B`/`E` duration events balance per `(pid, tid)` track and never
//!   go negative (an `E` before any `B` is exactly the malformed shape
//!   Perfetto refuses to stack),
//! * each `E` closes a `B` of the *same name* (properly nested spans),
//!   and duration timestamps never go backwards within a track — the
//!   shapes a torn ring-wraparound repair could otherwise smuggle past
//!   a depth-only check.
//!
//! `trace_validate` (this crate's binary) wraps [`validate_chrome_trace`]
//! for shell use; the exporter's unit tests round-trip through it.

use crate::json::{parse_json, Json};
use std::collections::HashMap;

/// What a validated trace contains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total entries in `traceEvents` (metadata included).
    pub events: usize,
    /// Instant (`ph:"i"`/`"I"`) events.
    pub instants: usize,
    /// Matched `B`/`E` duration pairs.
    pub spans: usize,
    /// Distinct `(pid, tid)` tracks seen.
    pub tracks: usize,
}

/// Validates a Chrome trace-event document; returns counts on success
/// and the first structural problem otherwise.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = parse_json(text)?;
    let events = doc.arr_field("traceEvents")?;

    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    /// Per-(pid, tid) duration-event state: the open-span name stack and
    /// the last duration timestamp (for monotonicity).
    #[derive(Default)]
    struct Track {
        open: Vec<String>,
        last_dur_ts: f64,
    }
    let mut tracks: HashMap<(u64, u64), Track> = HashMap::new();
    for (i, event) in events.iter().enumerate() {
        let ctx = |what: String| format!("event {i}: {what}");
        if !matches!(event, Json::Obj(_)) {
            return Err(ctx("not an object".to_string()));
        }
        let name = event.str_field("name").map_err(ctx)?;
        let ph = event.str_field("ph").map_err(ctx)?;
        let ts = event.num_field("ts").map_err(ctx)?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(ctx(format!("bad ts {ts}")));
        }
        let track = (
            event.u64_field("pid").map_err(ctx)?,
            event.u64_field("tid").map_err(ctx)?,
        );
        let state = tracks.entry(track).or_insert_with(|| {
            check.tracks += 1;
            Track::default()
        });
        match ph {
            "B" | "E" => {
                if ts < state.last_dur_ts {
                    return Err(ctx(format!(
                        "\"{ph}\" for '{name}' at ts {ts} goes backwards on track \
                         {track:?} (previous duration ts {})",
                        state.last_dur_ts
                    )));
                }
                state.last_dur_ts = ts;
                if ph == "B" {
                    state.open.push(name.to_string());
                } else {
                    let Some(opened) = state.open.pop() else {
                        return Err(ctx(format!(
                            "\"E\" for '{name}' with no open \"B\" on track {track:?}"
                        )));
                    };
                    if opened != name {
                        return Err(ctx(format!(
                            "\"E\" for '{name}' closes open \"B\" for '{opened}' on \
                             track {track:?} (spans must nest by name)"
                        )));
                    }
                    check.spans += 1;
                }
            }
            "i" | "I" => check.instants += 1,
            "X" | "M" | "C" => {}
            other => return Err(ctx(format!("unknown phase \"{other}\""))),
        }
    }
    for (track, state) in tracks {
        if !state.open.is_empty() {
            return Err(format!(
                "track {track:?} ends with {} unclosed \"B\" event(s)",
                state.open.len()
            ));
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrap(events: &str) -> String {
        format!("{{\"traceEvents\":[{events}]}}")
    }

    #[test]
    fn accepts_a_minimal_valid_trace() {
        let json = wrap(
            r#"{"name":"ll","ph":"i","ts":1,"pid":1,"tid":1},
               {"name":"exclusive","ph":"B","ts":2,"pid":1,"tid":1},
               {"name":"exclusive","ph":"E","ts":3,"pid":1,"tid":1}"#,
        );
        let check = validate_chrome_trace(&json).unwrap();
        assert_eq!(check.events, 3);
        assert_eq!(check.instants, 1);
        assert_eq!(check.spans, 1);
        assert_eq!(check.tracks, 1);
    }

    #[test]
    fn rejects_missing_fields_and_bad_phases() {
        let no_ts = wrap(r#"{"name":"x","ph":"i","pid":1,"tid":1}"#);
        assert!(validate_chrome_trace(&no_ts).unwrap_err().contains("ts"));
        let bad_ph = wrap(r#"{"name":"x","ph":"Q","ts":1,"pid":1,"tid":1}"#);
        assert!(validate_chrome_trace(&bad_ph)
            .unwrap_err()
            .contains("phase"));
        let not_obj = wrap("42");
        assert!(validate_chrome_trace(&not_obj)
            .unwrap_err()
            .contains("object"));
        assert!(validate_chrome_trace("{}")
            .unwrap_err()
            .contains("traceEvents"));
    }

    #[test]
    fn rejects_unbalanced_spans_per_track() {
        let early_e = wrap(r#"{"name":"x","ph":"E","ts":1,"pid":1,"tid":1}"#);
        assert!(validate_chrome_trace(&early_e)
            .unwrap_err()
            .contains("no open"));
        let dangling_b = wrap(r#"{"name":"x","ph":"B","ts":1,"pid":1,"tid":1}"#);
        assert!(validate_chrome_trace(&dangling_b)
            .unwrap_err()
            .contains("unclosed"));
        // Balance is per-track: tid 1's B cannot be closed by tid 2's E.
        let cross = wrap(
            r#"{"name":"x","ph":"B","ts":1,"pid":1,"tid":1},
               {"name":"x","ph":"E","ts":2,"pid":1,"tid":2}"#,
        );
        assert!(validate_chrome_trace(&cross).is_err());
    }

    #[test]
    fn rejects_name_mismatched_span_nesting() {
        let mismatched = wrap(
            r#"{"name":"outer","ph":"B","ts":1,"pid":1,"tid":1},
               {"name":"inner","ph":"E","ts":2,"pid":1,"tid":1}"#,
        );
        let why = validate_chrome_trace(&mismatched).unwrap_err();
        assert!(why.contains("nest by name"), "{why}");
        // Properly nested same-name spans are fine.
        let nested = wrap(
            r#"{"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
               {"name":"b","ph":"B","ts":2,"pid":1,"tid":1},
               {"name":"b","ph":"E","ts":3,"pid":1,"tid":1},
               {"name":"a","ph":"E","ts":4,"pid":1,"tid":1}"#,
        );
        assert_eq!(validate_chrome_trace(&nested).unwrap().spans, 2);
    }

    #[test]
    fn rejects_backwards_duration_timestamps_per_track() {
        let backwards = wrap(
            r#"{"name":"a","ph":"B","ts":5,"pid":1,"tid":1},
               {"name":"a","ph":"E","ts":3,"pid":1,"tid":1}"#,
        );
        let why = validate_chrome_trace(&backwards).unwrap_err();
        assert!(why.contains("backwards"), "{why}");
        // Monotonicity is per track — another track may be earlier.
        let two_tracks = wrap(
            r#"{"name":"a","ph":"B","ts":5,"pid":1,"tid":1},
               {"name":"a","ph":"E","ts":6,"pid":1,"tid":1},
               {"name":"a","ph":"B","ts":1,"pid":1,"tid":2},
               {"name":"a","ph":"E","ts":2,"pid":1,"tid":2}"#,
        );
        assert_eq!(validate_chrome_trace(&two_tracks).unwrap().spans, 2);
    }
}
