//! # grip-json — a minimal JSON value tree
//!
//! The container has no network, so the workspace carries its own
//! serializer and parser instead of depending on `serde`. The writer
//! grew up in `grip-bench` (which still re-exports this crate as
//! `grip_bench::json`); the parser was added for the `grip-service`
//! JSON-lines protocol, where requests arrive as text.
//!
//! Only what the bench reports and the service protocol need: objects,
//! arrays, strings, numbers, and booleans, with deterministic field order
//! and stable float formatting (finite floats print with enough digits to
//! round-trip; non-finite values print as `null`, matching JSON's number
//! grammar). The parser is strict (no trailing garbage, no comments) and
//! keeps object fields in document order, so `parse(x).pretty()` is a
//! canonical form.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap one line of 100,000 `[`
/// overflows the stack and aborts the process; every document this
/// workspace writes nests fewer than ten levels.
const MAX_DEPTH: usize = 128;

/// A JSON value under construction.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A float (`NaN`/`inf` serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field to an object (panics on non-objects).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on non-object"),
        }
        self
    }

    /// Render with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0, true);
        s
    }

    /// Render on a single line (the JSON-lines wire form).
    pub fn line(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0, false);
        s
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                if !pretty {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.write(out, 0, false);
                    }
                    out.push(']');
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1, true);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                if !pretty {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        Json::Str(k.clone()).write(out, 0, false);
                        out.push(':');
                        v.write(out, 0, false);
                    }
                    out.push('}');
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    Json::Str(k.clone()).write(out, indent + 1, true);
                    out.push_str(": ");
                    v.write(out, indent + 1, true);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    // ---- accessors (the ergonomic half of the protocol layer) ----

    /// Object field by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer payload (accepts integral floats, as parsers on the other
    /// side of a pipe may have widened them).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(i) => Some(i),
            Json::Num(x) if x.fract() == 0.0 && x.abs() < 9.0e15 => Some(x as i64),
            _ => None,
        }
    }

    /// Numeric payload as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parse one JSON document from `src` (strict: the whole string must
    /// be consumed, modulo surrounding whitespace). Arrays and objects may
    /// nest at most 128 levels deep.
    pub fn parse(src: &str) -> Result<Json, ParseError> {
        let mut p = Parser { src: src.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u64> for Json {
    fn from(i: u64) -> Json {
        Json::Int(i as i64)
    }
}
impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i as i64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the source.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { msg: msg.to_string(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
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

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse an array or object one level deeper, refusing documents
    /// nested past [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, ParseError>) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'b') => s.push('\u{0008}'),
                    Some(b'f') => s.push('\u{000c}'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pairs: JSON escapes astral characters as
                        // two \u units; anything unpaired (including a high
                        // surrogate followed by a non-low escape) becomes
                        // U+FFFD.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.src[self.pos..].starts_with(b"\\u") {
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    let astral = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(astral).unwrap_or('\u{FFFD}')
                                } else {
                                    // The high surrogate degrades; the
                                    // second escape stands on its own
                                    // (itself U+FFFD if also a surrogate).
                                    s.push('\u{FFFD}');
                                    char::from_u32(lo).unwrap_or('\u{FFFD}')
                                }
                            } else {
                                '\u{FFFD}'
                            }
                        } else {
                            char::from_u32(cp).unwrap_or('\u{FFFD}')
                        };
                        s.push(c);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-for-byte.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    if len == 0 || end > self.src.len() {
                        return Err(self.err("invalid UTF-8 in string"));
                    }
                    match std::str::from_utf8(&self.src[start..end]) {
                        Ok(chunk) => {
                            s.push_str(chunk);
                            self.pos = end;
                        }
                        Err(_) => return Err(self.err("invalid UTF-8 in string")),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }
}

/// Length of the UTF-8 sequence starting with lead byte `b` (0 = invalid).
fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_stable_pretty_json() {
        let j = Json::obj()
            .field("name", "LL1\"x\"")
            .field("ok", true)
            .field("n", 3usize)
            .field("speedup", 3.5f64)
            .field("nan", f64::NAN)
            .field("rows", Json::Arr(vec![Json::Int(1), Json::Int(2)]));
        let s = j.pretty();
        assert!(s.contains("\"name\": \"LL1\\\"x\\\"\""));
        assert!(s.contains("\"speedup\": 3.5"));
        assert!(s.contains("\"nan\": null"));
        assert!(s.starts_with("{\n") && s.ends_with('}'));
        assert!(Json::obj().pretty() == "{}");
    }

    #[test]
    fn line_form_is_single_line_and_reparses() {
        let j = Json::obj()
            .field("kernel", "LL3")
            .field("n", 100usize)
            .field("machine", Json::obj().field("width", 4usize))
            .field("tags", Json::Arr(vec![Json::Str("a".into()), Json::Null]));
        let line = j.line();
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), j);
        // The pretty form parses back to the same tree too.
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }

    #[test]
    fn parses_scalars_and_numbers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("3.25").unwrap(), Json::Num(3.25));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        // Integer overflowing i64 falls back to float.
        assert!(matches!(Json::parse("99999999999999999999").unwrap(), Json::Num(_)));
    }

    #[test]
    fn parses_strings_with_escapes() {
        let j = Json::parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(j.as_str().unwrap(), "a\"b\\c\ndAé");
        // Surrogate pair, raw and escaped.
        let j = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(j.as_str().unwrap(), "😀");
        let j = Json::parse(r#""😀""#).unwrap();
        assert_eq!(j.as_str().unwrap(), "😀");
        // Malformed surrogates degrade to U+FFFD, never panic or wrap.
        let j = Json::parse(r#""\ud800\ud800x""#).unwrap();
        assert_eq!(j.as_str().unwrap(), "\u{FFFD}\u{FFFD}x");
        let j = Json::parse(r#""\ud800y""#).unwrap();
        assert_eq!(j.as_str().unwrap(), "\u{FFFD}y");
        let j = Json::parse(r#""\ud800A""#).unwrap();
        assert_eq!(j.as_str().unwrap(), "\u{FFFD}A");
        // Raw UTF-8 passes through.
        let j = Json::parse("\"héllo\"").unwrap();
        assert_eq!(j.as_str().unwrap(), "héllo");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let at_cap = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&at_cap).is_ok());
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let e = Json::parse(&over).unwrap_err();
        assert!(e.msg.contains("nesting"), "{e}");
        assert_eq!(e.at, MAX_DEPTH, "fails at the first bracket past the cap");
        // Objects count as levels too.
        let objs = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objs).unwrap_err().msg.contains("nesting"));
        // The line that used to overflow the stack is an ordinary error.
        let e = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(e.msg.contains("nesting"), "{e}");
    }

    #[test]
    fn accessors_navigate_objects() {
        let j = Json::parse(r#"{"kernel":"LL3","n":100,"deep":{"x":[1,2.5,true]}}"#).unwrap();
        assert_eq!(j.get("kernel").and_then(Json::as_str), Some("LL3"));
        assert_eq!(j.get("n").and_then(Json::as_i64), Some(100));
        let arr = j.get("deep").and_then(|d| d.get("x")).and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert!(j.get("missing").is_none());
        assert_eq!(Json::Num(7.0).as_i64(), Some(7));
    }
}
