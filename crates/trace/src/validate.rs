//! In-tree validator for Chrome trace-event JSON.
//!
//! The workspace builds air-gapped, so CI cannot load an emitted trace
//! into Perfetto to prove it is well-formed. This module is the stand-in
//! gate: a minimal recursive-descent JSON parser (strings, numbers,
//! bools, null, arrays, objects — everything the trace writer emits)
//! plus the structural rules a trace-event document must satisfy:
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
//! [`json_string`] is the writer side: the one string escaper the
//! in-tree JSON emitters share.

use std::collections::HashMap;

/// A parsed JSON value (numbers as f64, like the format itself).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(&format!("unexpected byte '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not paired here; the trace
                            // writer never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(self.err(&format!("bad escape '\\{}'", other as char))),
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(chunk);
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }
}

/// Quotes and escapes `s` as a JSON string — the one writer-side
/// counterpart of [`parse_json`].
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing garbage after document"));
    }
    Ok(value)
}

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
    let events = doc
        .get("traceEvents")
        .ok_or("top-level object has no \"traceEvents\"")?;
    let Json::Arr(events) = events else {
        return Err("\"traceEvents\" is not an array".to_string());
    };

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
        let ctx = |what: &str| format!("event {i}: {what}");
        if !matches!(event, Json::Obj(_)) {
            return Err(ctx("not an object"));
        }
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string \"name\""))?;
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string \"ph\""))?;
        let ts = event
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("missing numeric \"ts\""))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(ctx(&format!("bad ts {ts}")));
        }
        let pid = event
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("missing numeric \"pid\""))?;
        let tid = event
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("missing numeric \"tid\""))?;
        let track = (pid as u64, tid as u64);
        let state = tracks.entry(track).or_insert_with(|| {
            check.tracks += 1;
            Track::default()
        });
        match ph {
            "B" | "E" => {
                if ts < state.last_dur_ts {
                    return Err(ctx(&format!(
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
                        return Err(ctx(&format!(
                            "\"E\" for '{name}' with no open \"B\" on track {track:?}"
                        )));
                    };
                    if opened != name {
                        return Err(ctx(&format!(
                            "\"E\" for '{name}' closes open \"B\" for '{opened}' on \
                             track {track:?} (spans must nest by name)"
                        )));
                    }
                    check.spans += 1;
                }
            }
            "i" | "I" => check.instants += 1,
            "X" | "M" | "C" => {}
            other => return Err(ctx(&format!("unknown phase \"{other}\""))),
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

    #[test]
    fn parser_handles_the_json_the_writer_emits() {
        let doc = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\n\"y\"","c":true,"d":null,"e":{"f":0}}"#)
            .unwrap();
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-300.0),
            ]))
        );
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert_eq!(doc.get("e").unwrap().get("f"), Some(&Json::Num(0.0)));
    }

    #[test]
    fn json_string_round_trips_through_the_parser() {
        let nasty = "q\"b\\s/ n\n r\r t\t nul\u{0} esc\u{1b} é";
        let quoted = json_string(nasty);
        assert_eq!(
            quoted,
            "\"q\\\"b\\\\s/ n\\n r\\r t\\t nul\\u0000 esc\\u001b é\""
        );
        assert_eq!(parse_json(&quoted), Ok(Json::Str(nasty.to_string())));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{} junk",
            "\"unterminated",
            "{'a':1}",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} should not parse");
        }
    }

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
