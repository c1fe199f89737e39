//! A deliberately small JSON implementation.
//!
//! The workspace builds with no network access, so instead of `serde` +
//! `serde_json` it carries this single-file JSON module: a [`Value`] tree,
//! a recursive-descent parser, and compact/pretty writers. Types that need
//! persistence implement explicit `to_json`/`from_json` conversions — a
//! few lines each, and the on-disk format stays plain JSON, readable by
//! any external tool.
//!
//! Objects preserve insertion order (they are stored as `Vec<(String,
//! Value)>`), so serialisation is deterministic — important for the
//! benchmark artefacts that get diffed across PRs.
//!
//! There is one number and one string format, in three public byte
//! kernels over `&mut Vec<u8>`: [`write_i64`], [`write_f64`] and
//! [`write_escaped`]. The tree writer calls them, and so do the writers
//! that stream JSON text without a tree (the Chrome trace export, 19.8
//! MB a traced run). They append bytes and check no UTF-8: a kernel
//! writes ASCII or copies a whole `&str`, so its output is valid text by
//! construction, and [`Value::to_string_compact`] /
//! [`Value::to_string_pretty`] validate a document once, when they turn
//! its bytes into a `String`. The kernels are `#[inline]`, so a streaming
//! writer in another crate gets the digits written in place, not a call
//! per field.

#![forbid(unsafe_code)]

use std::fmt;
use std::io::Write as _;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent in its source form.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Build an object from `(key, value)` pairs.
    pub fn object(pairs: Vec<(&str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value at an object key, or `Null` if absent / not an object.
    pub fn get(&self, key: &str) -> &Value {
        match self {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// The element at an array index, or `Null` if out of range.
    pub fn at(&self, index: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(index).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// `Some(bool)` for booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric value as `f64` (ints convert losslessly up to 2⁵³).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer value, if this is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Non-negative integer value.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// Non-negative integer as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|u| u as usize)
    }

    /// String contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object pairs.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Whether this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        self.to_string_with(None)
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        self.to_string_with(Some(2))
    }

    fn to_string_with(&self, indent: Option<usize>) -> String {
        let mut out = Vec::new();
        self.write(&mut out, indent, 0);
        String::from_utf8(out).expect("the byte kernels write UTF-8")
    }

    fn write(&self, out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.extend_from_slice(b"null"),
            Value::Bool(true) => out.extend_from_slice(b"true"),
            Value::Bool(false) => out.extend_from_slice(b"false"),
            Value::Int(i) => write_i64(out, *i),
            Value::Float(f) => write_f64(out, *f),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.extend_from_slice(b"[]");
                    return;
                }
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(b']');
            }
            Value::Object(pairs) => {
                if pairs.is_empty() {
                    out.extend_from_slice(b"{}");
                    return;
                }
                out.push(b'{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(b':');
                    if indent.is_some() {
                        out.push(b' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(b'}');
            }
        }
    }
}

fn newline_indent(out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push(b'\n');
        out.resize(out.len() + width * depth, b' ');
    }
}

/// Append `f` the way [`Value::Float`] serialises: shortest
/// round-trippable form with a decimal point, `null` when not finite.
/// `{f}` is formatted straight into `out`.
#[inline]
pub fn write_f64(out: &mut Vec<u8>, f: f64) {
    if f.is_finite() {
        let start = out.len();
        write!(out, "{f}").expect("writing into a Vec cannot fail");
        if !out[start..].iter().any(|b| b".eE".contains(b)) {
            // Force a decimal point so the value re-parses as Float.
            out.extend_from_slice(b".0");
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.extend_from_slice(b"null");
    }
}

/// Append `i` in decimal, the way [`Value::Int`] serialises and
/// `i.to_string()` prints: digits filled backwards into a stack buffer
/// (`i64::MIN` is a sign and 19 of them), then appended as they are.
#[inline]
pub fn write_i64(out: &mut Vec<u8>, i: i64) {
    if i.unsigned_abs() < 10 {
        if i < 0 {
            out.push(b'-');
        }
        out.push(b'0' + i.unsigned_abs() as u8);
        return;
    }
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut n = i.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.extend_from_slice(&buf[at..]);
}

/// Append `s` as a quoted, escaped JSON string (the [`Value::Str`] and
/// object-key format). Scans bytes and copies the run between two
/// escapes whole; every escaped byte is ASCII, so a run always starts
/// and ends on a character boundary and the output stays UTF-8.
#[inline]
pub fn write_escaped(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[run..i]);
        run = i + 1;
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let hex = [HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]];
                out.extend_from_slice(b"\\u00");
                out.extend_from_slice(&hex);
            }
        }
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Conversions used by the `to_json` implementations around the workspace.
impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<usize> for Value {
    fn from(u: usize) -> Value {
        Value::Int(u as i64)
    }
}
impl From<u64> for Value {
    fn from(u: u64) -> Value {
        // Seeds may use the full u64 range; values above i64::MAX keep
        // their bit-exact value through the Float path only up to 2⁵³, so
        // store them as their decimal string when too large.
        i64::try_from(u)
            .map(Value::Int)
            .unwrap_or_else(|_| Value::Str(u.to_string()))
    }
}
impl From<u32> for Value {
    fn from(u: u32) -> Value {
        Value::Int(u as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// A parse failure with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound one line of `[` overflows the
/// stack of the thread parsing it (a daemon connection handler included).
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed). Nesting
/// deeper than 128 arrays and objects is an error at the offending
/// bracket.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse an array or object one level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        // Caller consumed '\\', peeked 'u'.
        self.pos += 1; // 'u'
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: require \uXXXX low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid codepoint"))
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for src in ["null", "true", "false", "0", "-17", "3.5", "1e3"] {
            let v = parse(src).unwrap();
            let back = parse(&v.to_string_compact()).unwrap();
            assert_eq!(v, back, "roundtrip of {src}");
        }
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("42.0").unwrap(), Value::Float(42.0));
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, "x"], "b": {"c": null}, "d": true}"#).unwrap();
        assert_eq!(v.get("a").at(0).as_i64(), Some(1));
        assert_eq!(v.get("a").at(1).as_f64(), Some(2.5));
        assert_eq!(v.get("a").at(2).as_str(), Some("x"));
        assert!(v.get("b").get("c").is_null());
        assert_eq!(v.get("d").as_bool(), Some(true));
        assert!(v.get("missing").is_null());
        assert!(v.at(99).is_null());
    }

    /// A line of brackets fails at the first bracket past the limit
    /// instead of overflowing the stack; the limit itself still parses.
    #[test]
    fn nesting_is_bounded() {
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("128 levels"), "{}", err.message);
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
        let one_more = format!("[{deepest}]");
        assert_eq!(parse(&one_more).unwrap_err().offset, MAX_DEPTH);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\ttab \"quoted\" back\\slash \u{1F600} ctrl\u{1}";
        let v = Value::Str(original.to_string());
        let parsed = parse(&v.to_string_compact()).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn pretty_print_shape() {
        let v = Value::object(vec![
            ("name", Value::from("x")),
            ("vals", Value::from(vec![1i64, 2])),
        ]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"name\": \"x\""), "{pretty}");
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn float_without_fraction_prints_marker() {
        let v = Value::Float(2.0);
        assert_eq!(v.to_string_compact(), "2.0");
        assert_eq!(parse("2.0").unwrap(), v);
    }

    #[test]
    fn object_order_is_preserved() {
        let src = r#"{"z": 1, "a": 2, "m": 3}"#;
        let v = parse(src).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn large_u64_becomes_string() {
        let v = Value::from(u64::MAX);
        assert_eq!(v.as_str(), Some("18446744073709551615"));
        let v = Value::from(5u64);
        assert_eq!(v.as_i64(), Some(5));
    }

    /// `tlb_rng::splitmix64`, copied: this crate sits under every other
    /// one and takes no dependency, not even for its tests.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn write_i64_matches_to_string() {
        let mut cases = vec![i64::MIN, i64::MAX, 0, 1, -1];
        for exp in 0..19 {
            let p = 10i64.pow(exp);
            cases.extend([p - 1, p, p + 1, 1 - p, -p, -p - 1]);
        }
        let mut seed = 24;
        for _ in 0..100_000 {
            // Every length from 1 to 19 digits, both signs.
            let bits = next(&mut seed);
            cases.push(bits as i64 >> (next(&mut seed) % 64));
        }
        let mut out = Vec::new();
        for i in cases {
            out.clear();
            write_i64(&mut out, i);
            assert_eq!(out, i.to_string().as_bytes());
            assert_eq!(Value::Int(i).to_string_compact().as_bytes(), out);
        }
    }

    /// The per-`char` writer that `write_escaped` replaced, kept as its
    /// reference.
    fn write_escaped_by_char(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn write_escaped_matches_the_per_char_writer() {
        // Plain ASCII, the two escaped printables, all 32 control bytes,
        // DEL (not escaped), and 2-, 3- and 4-byte UTF-8.
        let mut alphabet: Vec<char> = "abcXYZ 09/\"\\\u{7f}\u{e9}\u{df}\u{20ac}\u{4e16}\u{1F600}"
            .chars()
            .collect();
        alphabet.extend((0u8..0x20).map(char::from));
        let mut cases: Vec<String> = [
            "",
            "\"",
            "\\",
            "\u{0}",
            "\u{1f}\u{1f}",
            "\"a\"",
            "\\\\\"\"",
            "\u{1F600}\n\u{e9}",
        ]
        .map(String::from)
        .to_vec();
        let mut seed = 24;
        for _ in 0..20_000 {
            let len = next(&mut seed) % 13;
            let pick = |_| alphabet[(next(&mut seed) % alphabet.len() as u64) as usize];
            cases.push((0..len).map(pick).collect());
        }
        let (mut out, mut reference) = (Vec::new(), String::new());
        for s in &cases {
            out.clear();
            reference.clear();
            write_escaped(&mut out, s);
            write_escaped_by_char(&mut reference, s);
            let out = std::str::from_utf8(&out).expect("escaped text is UTF-8");
            assert_eq!(out, reference, "{s:?}");
            assert_eq!(parse(out).unwrap().as_str(), Some(s.as_str()), "{s:?}");
        }
    }

    #[test]
    fn write_f64_matches_the_format_form() {
        let mut cases = vec![
            0.0,
            -0.0,
            1.0,
            -17.0,
            0.1,
            1e21,
            1e-7,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        cases.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let mut seed = 24;
        for _ in 0..50_000 {
            let bits = next(&mut seed);
            // Any bit pattern, a subnormal, an integral value.
            cases.extend([
                f64::from_bits(bits),
                f64::from_bits(bits >> 12),
                (bits as i32) as f64,
            ]);
        }
        let mut out = Vec::new();
        for f in cases {
            out.clear();
            write_f64(&mut out, f);
            let reference = match format!("{f}") {
                _ if !f.is_finite() => "null".to_string(),
                s if s.contains(['.', 'e', 'E']) => s,
                s => s + ".0",
            };
            assert_eq!(out, reference.as_bytes(), "{:#x}", f.to_bits());
        }
    }

    #[test]
    fn nonfinite_floats_serialise_null() {
        assert_eq!(Value::Float(f64::NAN).to_string_compact(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_string_compact(), "null");
    }
}
