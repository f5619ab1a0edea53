//! The workspace's one JSON writer and one JSON reader. The workspace
//! builds air-gapped, with no JSON crate, so both are hand-rolled here.
//!
//! [`JsonWriter`] is the only code that writes separators, quoted keys,
//! escaped strings and `null`. Every document goes through it: Chrome
//! traces, `.prof` profiles, `adbt-metrics-v2` lines with their counter
//! snapshots and the bench tables.
//! Callers choose only the structure and, with [`JsonWriter::pad`],
//! where the line-oriented layouts break their lines.
//!
//! [`parse_json`] is the one parser: a minimal recursive-descent parser
//! for strings, numbers, bools, null, arrays and objects. The typed
//! field accessors on [`Json`] give every validator the same error for
//! an absent or mistyped field, such as ``missing numeric `ts` ``.

use std::fmt::{Display, Write as _};

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

    /// A whole number >= 0, the shape of every counter, tid and epoch.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_num().filter(|n| *n >= 0.0 && n.fract() == 0.0)?;
        Some(n as u64)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Field `key` cast by `cast`, or ``missing {kind} `key` ``.
    fn typed<'a, T>(
        &'a self,
        key: &str,
        kind: &str,
        cast: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(cast)
            .ok_or_else(|| format!("missing {kind} `{key}`"))
    }

    /// Field `key`, whatever its type.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.typed(key, "value", Some)
    }

    /// Field `key` as a number.
    pub fn num_field(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "numeric", Json::as_num)
    }

    /// Field `key` as a whole number >= 0.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "numeric", Json::as_u64)
    }

    /// Field `key` as a `u32`: a whole number, or a hex string such as
    /// the `"0x00010000"` guest addresses are written as.
    pub fn u32_field(&self, key: &str) -> Result<u32, String> {
        self.typed(key, "numeric", |value| match value {
            Json::Str(hex) => u32::from_str_radix(hex.strip_prefix("0x")?, 16).ok(),
            _ => value.as_u64()?.try_into().ok(),
        })
    }

    /// Field `key` as a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "string", Json::as_str)
    }

    /// Field `key` as an array's items.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        self.typed(key, "array", |value| match value {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        })
    }

    /// Field `key` as an object's fields, in document order.
    pub fn obj_field(&self, key: &str) -> Result<&[(String, Json)], String> {
        self.typed(key, "object", |value| match value {
            Json::Obj(fields) => Some(fields.as_slice()),
            _ => None,
        })
    }
}

/// Writes one JSON document, token by token (see the module docs).
///
/// Items are separated by `,` and keys end in `:`, or by `, ` and `: `
/// in a [`spaced`](JsonWriter::spaced) writer. Whitespace set with
/// [`pad`](JsonWriter::pad) goes after the next item's comma, or before
/// the next closing bracket.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// The closing bracket of every open object and array, innermost last.
    open: Vec<char>,
    /// Whether the next item follows another one and needs a comma.
    comma: bool,
    /// Whitespace for before the next item or closing bracket.
    pad: &'static str,
    spaced: bool,
}

impl JsonWriter {
    /// A writer with no whitespace between tokens.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// A writer that puts a space after each comma and colon.
    pub fn spaced() -> JsonWriter {
        JsonWriter {
            spaced: true,
            ..JsonWriter::default()
        }
    }

    /// Puts `ws` after the next item's comma, or before the next closing
    /// bracket; in a spaced writer it replaces the space after the comma.
    pub fn pad(&mut self, ws: &'static str) -> &mut JsonWriter {
        self.pad = ws;
        self
    }

    /// Starts the next item: its comma, then the pad.
    fn item(&mut self) -> &mut String {
        if std::mem::take(&mut self.comma) {
            self.out.push(',');
            if self.spaced && self.pad.is_empty() {
                self.out.push(' ');
            }
        }
        self.out.push_str(std::mem::take(&mut self.pad));
        &mut self.out
    }

    fn open(&mut self, bracket: char, close: char) -> &mut JsonWriter {
        self.item().push(bracket);
        self.open.push(close);
        self
    }

    /// Opens an object.
    pub fn obj(&mut self) -> &mut JsonWriter {
        self.open('{', '}')
    }

    /// Opens an array.
    pub fn arr(&mut self) -> &mut JsonWriter {
        self.open('[', ']')
    }

    /// Closes the innermost open object or array.
    pub fn end(&mut self) -> &mut JsonWriter {
        let close = self
            .open
            .pop()
            .expect("end() needs an open object or array");
        self.out.push_str(std::mem::take(&mut self.pad));
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Writes an object key; its value comes next.
    pub fn key(&mut self, key: &str) -> &mut JsonWriter {
        let colon = if self.spaced { ": " } else { ":" };
        let out = self.item();
        escape(key, out);
        out.push_str(colon);
        self
    }

    /// Writes a quoted, escaped string.
    pub fn str(&mut self, s: &str) -> &mut JsonWriter {
        escape(s, self.item());
        self.comma = true;
        self
    }

    /// Writes `value` as it displays: a number, a bool, or JSON that
    /// this module rendered.
    pub fn raw(&mut self, value: impl Display) -> &mut JsonWriter {
        write!(self.item(), "{value}").expect("writing to a String cannot fail");
        self.comma = true;
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut JsonWriter {
        self.raw("null")
    }

    /// Writes `key`, then `value` as [`raw`](JsonWriter::raw) does.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut JsonWriter {
        self.key(key).raw(value)
    }

    /// Takes the document written so far.
    ///
    /// # Panics
    ///
    /// When an object or array is still open.
    pub fn finish(&mut self) -> String {
        assert!(
            self.open.is_empty(),
            "finish() with an unclosed object or array"
        );
        std::mem::take(&mut self.out)
    }
}

/// One flat object, `{"key":value,...}`, in iteration order, each value
/// written as [`JsonWriter::raw`] does.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, impl Display)>) -> String {
    let mut w = JsonWriter::new();
    w.obj();
    for (key, value) in fields {
        w.field(key, value);
    }
    w.end().finish()
}

/// Appends `s` to `out` quoted and escaped.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
                            // Surrogates are not paired here; the writer
                            // never emits them.
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
    fn strings_round_trip_through_the_parser() {
        let nasty = "q\"b\\s/ n\n r\r t\t nul\u{0} esc\u{1b} é";
        let quoted = JsonWriter::new().str(nasty).finish();
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

    #[test]
    fn writer_places_separators_pads_and_nulls() {
        let mut w = JsonWriter::new();
        w.obj().field("n", 1).key("s").str("x").key("none").null();
        w.key("a").arr().pad("\n").raw(true).pad("\n").obj().end();
        w.pad("\n").end().pad("\n").key("e").arr().end().end();
        assert_eq!(
            w.finish(),
            "{\"n\":1,\"s\":\"x\",\"none\":null,\"a\":[\ntrue,\n{}\n],\n\"e\":[]}"
        );
        let mut w = JsonWriter::spaced();
        w.arr().pad("\n  ").obj().field("a", 1).field("b", 2).end();
        w.pad("\n  ").obj().end().pad("\n").end();
        assert_eq!(w.finish(), "[\n  {\"a\": 1, \"b\": 2},\n  {}\n]");
        assert_eq!(object([("x", 1), ("y", 2)]), "{\"x\":1,\"y\":2}");
    }

    #[test]
    fn accessors_name_the_missing_or_mistyped_field() {
        let doc = parse_json(r#"{"n":-1,"f":1.5,"s":"0x10","t":"x","a":[],"o":{}}"#).unwrap();
        assert_eq!(doc.num_field("f"), Ok(1.5));
        assert_eq!(doc.u64_field("n"), Err("missing numeric `n`".to_string()));
        assert_eq!(doc.u64_field("f"), Err("missing numeric `f`".to_string()));
        assert_eq!(doc.u32_field("s"), Ok(16));
        assert_eq!(doc.u32_field("t"), Err("missing numeric `t`".to_string()));
        assert_eq!(doc.str_field("n"), Err("missing string `n`".to_string()));
        assert_eq!(doc.arr_field("a"), Ok(&[][..]));
        assert_eq!(doc.obj_field("o"), Ok(&[][..]));
        assert_eq!(doc.field("z"), Err("missing value `z`".to_string()));
    }
}
