//! A minimal, dependency-free JSON reader and writer.
//!
//! The perf plane's inputs are all produced by this workspace's own binaries
//! (`BENCH_*.json`, `perf/history.jsonl`), and they need real structure:
//! nested objects, arrays of samples, and explicit `null`s. [`parse`] is a
//! small recursive-descent parser over the full JSON grammar — strict
//! (trailing garbage, bare words, unterminated strings, and duplicate object
//! keys are errors), with a deliberately simple number model: every number is
//! an `f64`, because every number the perf plane reads is one. [`to_string`]
//! is the one writer every `BENCH_*.json` record goes through.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are sorted (`BTreeMap`): the perf plane's canonical
    /// encoding is order-insensitive on read and deterministic on write.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Build an object from `(key, value)` entries. A repeated key is a bug in
    /// the caller — it would silently drop a value — so it panics.
    pub fn obj<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        let mut map = BTreeMap::new();
        for (key, value) in entries {
            assert!(
                map.insert(key.to_string(), value).is_none(),
                "duplicate key {key:?}"
            );
        }
        Value::Obj(map)
    }

    /// The object entry at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// This value as an object map, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(map) => Some(map),
            _ => None,
        }
    }
}

/// Build an object [`Value`] from `"key": value` pairs, converting each value
/// with `Value::from` (a repeated key panics, as in [`Value::obj`]):
/// `json_obj! { "bench": "snapshot", "rounds": 5usize }`.
#[macro_export]
macro_rules! json_obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Value::obj([$(($key, $crate::json::Value::from($value))),*])
    };
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n as f64)
            }
        }
    )*};
}
from_number!(f64, u32, u64, usize);

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(value: Option<T>) -> Value {
        value.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Write `value` as indented JSON with a trailing newline — the one writer
/// every `BENCH_*.json` record goes through. Arrays of scalars, and objects
/// of scalars that are array rows, stay on one line; every other container
/// puts one item per line. Integral numbers print without a fraction, other
/// finite numbers in shortest round-trip form ([`fmt_f64`]), and non-finite
/// ones as `null`: JSON has no `NaN`, and a reader notes a `null`.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0, false);
    out + "\n"
}

fn write_value(out: &mut String, value: &Value, depth: usize, row: bool) {
    let (open, close, items): (_, _, Vec<(Option<&String>, &Value)>) = match value {
        Value::Null => return out.push_str("null"),
        Value::Bool(b) => return out.push_str(&b.to_string()),
        Value::Num(n) if !n.is_finite() => return out.push_str("null"),
        Value::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
            return out.push_str(&(*n as i64).to_string())
        }
        Value::Num(n) => return out.push_str(&fmt_f64(*n)),
        Value::Str(s) => return out.push_str(&format!("\"{}\"", escape(s))),
        Value::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Value::Obj(map) => ('{', '}', map.iter().map(|(k, v)| (Some(k), v)).collect()),
    };
    let array = open == '[';
    let inline = (array || row)
        && items
            .iter()
            .all(|(_, v)| !matches!(v, Value::Arr(_) | Value::Obj(_)));
    let pad = |depth: usize| match inline {
        true => String::new(),
        false => format!("\n{}", "  ".repeat(depth)),
    };
    out.push(open);
    for (index, (key, item)) in items.iter().enumerate() {
        out.push_str(match (index, inline) {
            (0, _) => "",
            (_, true) => ", ",
            (_, false) => ",",
        });
        out.push_str(&pad(depth + 1));
        if let Some(key) = key {
            out.push_str(&format!("\"{}\": ", escape(key)));
        }
        write_value(out, item, depth + 1, array);
    }
    if !items.is_empty() {
        out.push_str(&pad(depth));
    }
    out.push(close);
}

/// A parse failure, with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            // Keeping the last of two equal keys would hide the first value
            // from every reader; a record with one is malformed.
            if map.insert(key, value).is_some() {
                return Err(ParseError {
                    message: "duplicate object key".to_string(),
                    at: key_at,
                });
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.error("bad \\u escape"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(byte) if byte < 0x80 => {
                    out.push(byte as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so the sequence is
                    // valid — copy it through whole.
                    let rest = &self.bytes[self.pos..];
                    let ch = std::str::from_utf8(rest)
                        .ok()
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.error("invalid UTF-8"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.error("malformed number"))
    }
}

/// Format an `f64` for canonical JSON output: Rust's shortest round-trip
/// representation, which `parse::<f64>` reads back to the identical bits —
/// the property the history plane's byte-identical re-encode rests on.
/// Non-finite values are rejected upstream ([`crate::MetricStats`] panics on
/// them), so this never has to print `NaN`.
pub fn fmt_f64(value: f64) -> String {
    debug_assert!(value.is_finite());
    format!("{value:?}")
}

/// Escape a string for JSON output (the subset our identifiers need, plus a
/// correct general fallback).
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let value = parse(
            r#"{"bench": "fleet_scale", "cores": 1, "ok": true, "gone": null,
                "spread": {"pps": {"median": 1.5e3, "samples": [-1.25, 2.0]}}}"#,
        )
        .unwrap();
        assert_eq!(value.get("bench").unwrap().as_str(), Some("fleet_scale"));
        assert_eq!(value.get("cores").unwrap().as_f64(), Some(1.0));
        assert_eq!(value.get("gone"), Some(&Value::Null));
        let pps = value.get("spread").unwrap().get("pps").unwrap();
        assert_eq!(pps.get("median").unwrap().as_f64(), Some(1500.0));
        let samples = pps.get("samples").unwrap().as_arr().unwrap();
        assert_eq!(samples[0].as_f64(), Some(-1.25));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn duplicate_object_keys_are_rejected() {
        let err = parse(r#"{"rate": 1.0, "rate": 2.0}"#).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
        assert_eq!(err.at, 14, "the error points at the repeated key");
        // Equal keys in sibling objects are not duplicates.
        assert!(parse(r#"[{"rate": 1.0}, {"rate": 2.0}]"#).is_ok());
    }

    #[test]
    fn writer_output_parses_back_to_the_same_value() {
        let value = json_obj! {
            "bench": "fleet_scale",
            "cores": 2usize,
            "rate": 1234.5,
            "speedup": Option::<f64>::None,
            "nan": f64::NAN,
            "rows": vec![json_obj! { "k": 1.0 }],
            "samples": vec![1.0, 2.5],
            "empty": json_obj! {},
        };
        let text = to_string(&value);
        assert!(
            text.contains("\"cores\": 2,"),
            "integral without a fraction: {text}"
        );
        assert!(
            text.contains("\"rows\": [\n    {\"k\": 1}\n  ]"),
            "rows inline: {text}"
        );
        assert!(
            text.contains("\"samples\": [1, 2.5]"),
            "scalar array inline: {text}"
        );
        assert!(text.contains("\"nan\": null"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
        let mut expected = value.clone();
        if let Value::Obj(map) = &mut expected {
            map.insert("nan".to_string(), Value::Null);
        }
        assert_eq!(parse(&text).unwrap(), expected);
    }

    #[test]
    fn strings_decode_escapes() {
        let value = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(value.as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn numbers_round_trip_through_fmt() {
        for n in [0.0, -0.0, 1.0, -3.5, 1e-7, 12103565.0, 0.047, f64::MAX] {
            let text = fmt_f64(n);
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), n.to_bits(), "{text}");
        }
    }
}
