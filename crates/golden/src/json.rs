//! A minimal canonical JSON value with a byte-deterministic writer and a
//! strict parser.
//!
//! The golden subsystem needs diffs to be *byte-meaningful*: two runs
//! that produce the same data must produce the same bytes, and a one-ulp
//! change in any `f64` must change the bytes. The canonical rules are:
//!
//! * **Object keys keep insertion order.** Builders construct objects in
//!   schema order, so the serialized key order is part of the schema —
//!   no locale- or hash-dependent reordering.
//! * **`f64` uses Rust's shortest round-trip representation** (`{:?}`),
//!   which is guaranteed to parse back to the identical bits. `1.0`
//!   stays `1.0` (never `1`), tiny values use exponent form (`3.1e-13`).
//! * **Non-finite floats serialize as `null`** — no artifact should
//!   produce them, and the differ treats an unexpected `null` as a
//!   mismatch against any number.
//! * **Integers are arbitrary-width** (`i128` internally) so `u64`
//!   instruction/byte counters round-trip without precision loss; a
//!   token is parsed as [`Json::Int`] exactly when it contains no `.`,
//!   `e` or `E`.
//!
//! The workspace has no `serde`: this module is its one serialization
//! layer.

use std::fmt::Write as _;

/// A JSON value with insertion-ordered objects and lossless numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer token (no fraction or exponent in the source text).
    Int(i128),
    /// A floating-point token. Exact-class comparisons use the bits.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; pairs keep insertion order (canonical key order).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `f64`: floats directly, integers converted.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The integer value, if this is an `Int`.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render a scalar the way CSV/report cells render it (`null` → `-`).
    /// Arrays/objects render as canonical JSON.
    pub fn render(&self) -> String {
        match self {
            Json::Null => "-".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Int(v) => v.to_string(),
            Json::Float(v) => fmt_f64(*v),
            Json::Str(s) => s.clone(),
            other => other.to_canonical_string(),
        }
    }

    /// Serialize compactly (no whitespace), canonically.
    pub fn to_canonical_string(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Serialize pretty-printed with two-space indentation, canonically.
    /// This is the on-disk golden format: line-oriented, so text diffs of
    /// two goldens point at the changed cell.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out.push('\n');
        out
    }

    /// Parse canonical (or any strict) JSON text. Arrays and objects
    /// nested more than 128 deep are a [`ParseError`], so no input can
    /// exhaust the parsing thread's stack.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after the top-level value"));
        }
        Ok(v)
    }
}

/// Canonical `f64` formatting: shortest representation that round-trips
/// to the identical bits (Rust's `{:?}`); non-finite values map to
/// `null`'s spelling since JSON has no NaN/Infinity.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn write_value(out: &mut String, v: &Json, indent: Option<usize>, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Json::Float(f) => out.push_str(&fmt_f64(*f)),
        Json::Str(s) => write_escaped(out, s),
        Json::Array(items) => write_seq(
            out,
            items.iter(),
            items.len(),
            indent,
            depth,
            ('[', ']'),
            write_value,
        ),
        Json::Object(pairs) => write_seq(
            out,
            pairs.iter(),
            pairs.len(),
            indent,
            depth,
            ('{', '}'),
            |o, (k, val), ind, d| {
                write_escaped(o, k);
                o.push(':');
                if ind.is_some() {
                    o.push(' ');
                }
                write_value(o, val, ind, d);
            },
        ),
    }
}

fn write_seq<T>(
    out: &mut String,
    items: impl Iterator<Item = T>,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    (open, close): (char, char),
    mut write_item: impl FnMut(&mut String, T, Option<usize>, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        write_item(out, item, indent, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(step * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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

/// A parse failure with a byte offset into the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deep [`Json::parse`] lets arrays and objects nest. The deepest
/// JSON the project writes nests 5 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{token}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?
        {
            b'n' => self.expect("null").map(|()| Json::Null),
            b't' => self.expect("true").map(|()| Json::Bool(true)),
            b'f' => self.expect("false").map(|()| Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => self.nested(Self::array),
            b'{' => self.nested(Self::object),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by the canonical
                            // writer; reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                b'+' | b'-' if is_float => self.pos += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err("invalid integer"))
        }
    }
}

/// Build an object from pairs, preserving order.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v as i128)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Int(i128::from(v))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as i128)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v as i128)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH, "{err}");
        assert!(err.message.contains("nesting deeper than 128"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // Depth counts what is open, not what has been seen.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 3].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn a_deep_line_is_an_error_on_a_default_stack_thread() {
        let line = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
        let result = std::thread::spawn(move || Json::parse(&line).map(|_| ()))
            .join()
            .expect("parsing must not overflow the thread's stack");
        assert!(result.is_err());
    }

    #[test]
    fn float_formatting_round_trips_bits() {
        for v in [
            0.0,
            -0.0,
            1.0,
            3.119e-13,
            f64::MIN_POSITIVE,
            1.0 + f64::EPSILON,
            123_456_789.123_456_79,
            1e308,
        ] {
            let text = fmt_f64(v);
            let back: f64 = text.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text} did not round-trip");
        }
    }

    #[test]
    fn one_ulp_changes_the_bytes() {
        let v = 0.1_f64;
        let bumped = f64::from_bits(v.to_bits() ^ 1);
        assert_ne!(fmt_f64(v), fmt_f64(bumped));
    }

    #[test]
    fn parse_round_trips_canonical_output() {
        let v = obj(vec![
            ("schema", "cubie-golden/v1".into()),
            ("count", 42u64.into()),
            ("big", Json::Int(u64::MAX as i128)),
            ("time_s", 3.119e-13.into()),
            ("flag", true.into()),
            ("name", "a \"quoted\" name, with commas\n".into()),
            (
                "list",
                Json::Array(vec![Json::Null, 1.5.into(), "x".into()]),
            ),
        ]);
        for text in [v.to_canonical_string(), v.to_pretty_string()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn pretty_output_is_line_oriented() {
        let v = obj(vec![("rows", Json::Array(vec![1u64.into(), 2u64.into()]))]);
        let text = v.to_pretty_string();
        assert_eq!(text, "{\n  \"rows\": [\n    1,\n    2\n  ]\n}\n");
    }

    #[test]
    fn int_vs_float_tokens_are_distinguished() {
        assert_eq!(Json::parse("7").unwrap(), Json::Int(7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::Float(7.0));
        assert_eq!(Json::parse("7e0").unwrap(), Json::Float(7.0));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\" 1}", "1 2", "nul"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn object_key_order_is_preserved() {
        let text = "{\"z\": 1, \"a\": 2}";
        let v = Json::parse(text).unwrap();
        match &v {
            Json::Object(pairs) => {
                assert_eq!(pairs[0].0, "z");
                assert_eq!(pairs[1].0, "a");
            }
            _ => panic!("not an object"),
        }
    }
}
