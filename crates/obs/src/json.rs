//! A tiny JSON value type with a printer and a strict parser.
//!
//! The compat policy rules out serde, and the only JSON this workspace
//! needs is flat-ish metrics/timeline artifacts: objects, arrays,
//! strings, bools, and numbers. Numbers keep their source type (`u64` /
//! `i64` / `f64`) so counters round-trip exactly — a counter printed
//! through `f64` would corrupt values above 2^53.
//!
//! The parser exists so tests (and future tooling) can validate emitted
//! artifacts without an external dependency. It accepts exactly what the
//! printer produces plus ordinary whitespace; it is strict about
//! everything else (trailing garbage, bad escapes, lone surrogates are
//! errors).

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer (parsed for negative literals).
    I64(i64),
    /// A float. Non-finite values print as `null` (JSON has no NaN).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved when printing.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(&str, value)` pairs.
    pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::U64(v) => Some(v),
            JsonValue::I64(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as an i64, if it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            JsonValue::I64(v) => Some(v),
            JsonValue::U64(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// Compact rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::F64(v) => write_f64(out, *v),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// Appends `v` so that it re-parses as a float: a decimal point or
/// exponent always survives, and non-finite values print as `null`.
/// Numbers go straight into `out`, never through a temporary `String`.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let start = out.len();
        let _ = write!(out, "{v}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. Everything this
/// workspace prints nests a handful of levels; the bound keeps the
/// recursive parser's stack use small on hostile input (a black-box
/// record read back from disk could be a quarter-megabyte of `[`).
pub const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document (rejecting trailing garbage).
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError { at: pos, msg: "trailing characters after document" });
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8, msg: &'static str) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError { at: *pos, msg })
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(JsonError { at: *pos, msg: "unexpected end of input" }),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(JsonError { at: *pos, msg: "nesting too deep" })
        }
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(
    b: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError { at: *pos, msg: "invalid literal" })
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    expect(b, pos, b'{', "expected '{'")?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':', "expected ':' after key")?;
        let value = parse_value(b, pos, depth)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(JsonError { at: *pos, msg: "expected ',' or '}'" }),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    expect(b, pos, b'[', "expected '['")?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(JsonError { at: *pos, msg: "expected ',' or ']'" }),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"', "expected string")?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(JsonError { at: *pos, msg: "unterminated string" }),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or(JsonError { at: *pos, msg: "truncated \\u escape" })?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError { at: *pos, msg: "bad \\u escape" })?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError { at: *pos, msg: "bad \\u escape" })?;
                        let c = char::from_u32(code)
                            .ok_or(JsonError { at: *pos, msg: "non-scalar \\u escape" })?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(JsonError { at: *pos, msg: "bad escape" }),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = &b[*pos..];
                // SAFETY: `b` is the byte view of a `&str`, and `*pos`
                // only ever advances by whole scalar lengths (ASCII
                // branches step by 1 over ASCII bytes, this branch steps
                // by `len_utf8`), so `rest` starts on a UTF-8 boundary of
                // originally-valid UTF-8.
                let s = unsafe { std::str::from_utf8_unchecked(rest) };
                let c = s.chars().next().expect("non-empty");
                if (c as u32) < 0x20 {
                    return Err(JsonError { at: *pos, msg: "control character in string" });
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos])
        .map_err(|_| JsonError { at: start, msg: "bad number" })?;
    if text.is_empty() || text == "-" {
        return Err(JsonError { at: start, msg: "expected a value" });
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Some(stripped) = text.strip_prefix('-') {
            if stripped.parse::<i64>().is_ok() {
                return Ok(JsonValue::I64(text.parse().expect("checked")));
            }
        } else if let Ok(v) = text.parse::<u64>() {
            return Ok(JsonValue::U64(v));
        }
    }
    text.parse::<f64>().map(JsonValue::F64).map_err(|_| JsonError { at: start, msg: "bad number" })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = JsonValue::obj(vec![
            ("name", JsonValue::Str("e3 \"quoted\"\n".into())),
            ("count", JsonValue::U64(u64::MAX)),
            ("neg", JsonValue::I64(-7)),
            ("ratio", JsonValue::F64(0.5)),
            ("whole", JsonValue::F64(2.0)),
            ("ok", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            ("items", JsonValue::Arr(vec![JsonValue::U64(1), JsonValue::U64(2)])),
            ("empty_obj", JsonValue::Obj(vec![])),
            ("empty_arr", JsonValue::Arr(vec![])),
        ]);
        for text in [v.render(), v.render_pretty()] {
            let parsed = parse(&text).expect("parses");
            assert_eq!(parsed, v, "failed roundtrip of: {text}");
        }
    }

    #[test]
    fn u64_precision_survives() {
        let v = JsonValue::U64(9_007_199_254_740_993); // 2^53 + 1
        let back = parse(&v.render()).unwrap();
        assert_eq!(back.as_u64(), Some(9_007_199_254_740_993));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": {"b": [1, "x"]}}"#).unwrap();
        let inner = v.get("a").unwrap();
        let arr = inner.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_str(), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\q\"", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&deep).unwrap_err().msg, "nesting too deep");
        // A quarter-megabyte of openers is an error, not a stack overflow.
        assert!(parse(&"[{\"a\":".repeat(1 << 16)).is_err());
    }

    #[test]
    fn escapes_roundtrip() {
        let v = JsonValue::Str("tab\t nl\n ctrl\u{1} ünïcode".into());
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn numbers_render_like_display() {
        for (v, text) in [
            (JsonValue::U64(u64::MAX), "18446744073709551615"),
            (JsonValue::U64(0), "0"),
            (JsonValue::I64(i64::MIN), "-9223372036854775808"),
            (JsonValue::F64(2.0), "2.0"),
            (JsonValue::F64(-0.0), "-0.0"),
            (JsonValue::F64(0.1), "0.1"),
            (JsonValue::F64(1e300), "1{300 zeros}.0"),
        ] {
            assert_eq!(v.render(), text.replace("{300 zeros}", &"0".repeat(300)));
        }
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(JsonValue::F64(f64::NAN).render(), "null");
        assert_eq!(JsonValue::F64(f64::INFINITY).render(), "null");
    }
}
