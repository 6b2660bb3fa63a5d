//! A small JSON document model, emitter and parser.
//!
//! Diogenes exports its results as JSON so other tools can consume them
//! (paper §4). The offline dependency set for this reproduction does not
//! include a JSON crate, so this module provides the ~minimal value
//! model + spec-compliant string escaping the export needs, plus a
//! recursive-descent parser that reads documents back (serve's
//! submissions and its FFB re-encoding of stored results, `trace-check`).
//!
//! Round-trip contract: for any document this module emitted,
//! `Json::parse(doc).to_string_pretty()` reproduces the input bytes
//! exactly — object key order is preserved, integers stay exact `i128`s,
//! and floats re-render via the shortest-round-trip `Display`, so a
//! stored result that serve re-parses for an FFB reply decodes back to
//! the same JSON bytes.

use std::fmt::{self, Write as _};
use std::io;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integers are kept exact (virtual-time nanoseconds exceed f64's
    /// integer range in long runs).
    Int(i128),
    Float(f64),
    Str(String),
    /// A borrowed string with program lifetime (API names, problem
    /// labels, interned file paths). Serializes exactly like [`Json::Str`]
    /// but costs no allocation to build.
    Static(&'static str),
    /// An interned symbol ([`crate::intern::Sym`]), resolved to its text
    /// at write time. Lets exporters stream straight from columnar
    /// analysis structures that store `u32` symbol ids.
    Sym(crate::intern::Sym),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Equality is by *content*: `Str`, `Static` and `Sym` values holding the
/// same text compare equal, matching the byte-identity contract (all
/// three serialize identically, and the parser always produces `Str`).
impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self.text(), other.text()) {
            (Some(a), Some(b)) => return a == b,
            (None, None) => {}
            _ => return false,
        }
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            (Json::Float(a), Json::Float(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl Json {
    /// Object builder convenience.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Array from an iterator of values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Compact serialization.
    pub fn to_string_compact(&self) -> String {
        let mut s = String::new();
        let _ = self.write(&mut s, None, 0); // writing to a String never fails
        s
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        let _ = self.write(&mut s, Some(2), 0);
        s.push('\n');
        s
    }

    /// Stream the pretty serialization into an [`io::Write`] without
    /// materializing the document as one big `String` first. Produces
    /// exactly the bytes of [`Json::to_string_pretty`]. Callers should
    /// hand in a `BufWriter` — the emitter writes many small pieces.
    pub fn write_pretty<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let mut sink = IoFmt { w, err: None };
        let res = self.write(&mut sink, Some(2), 0).and_then(|()| sink.write_char('\n'));
        match res {
            Ok(()) => Ok(()),
            Err(_) => Err(sink.err.unwrap_or_else(|| io::Error::other("formatting failed"))),
        }
    }

    /// Parse a JSON document. Numbers without a fraction or exponent stay
    /// exact ([`Json::Int`], `i128`); everything else becomes
    /// [`Json::Float`]. Object key order is preserved.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric value as `f64` (accepts both `Int` and `Float`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        self.text()
    }

    /// Text content of any string-like variant.
    fn text(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            Json::Static(s) => Some(s),
            Json::Sym(sym) => Some(sym.resolve()),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    fn write<W: fmt::Write>(
        &self,
        out: &mut W,
        indent: Option<usize>,
        depth: usize,
    ) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null")?,
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" })?,
            Json::Int(i) => write!(out, "{i}")?,
            Json::Float(f) => {
                if f.is_finite() {
                    write!(out, "{f}")?;
                } else {
                    out.write_str("null")?; // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => escape_into(s, out)?,
            Json::Static(s) => escape_into(s, out)?,
            Json::Sym(sym) => escape_into(sym.resolve(), out)?,
            Json::Arr(items) => {
                if items.is_empty() {
                    return out.write_str("[]");
                }
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline_indent(out, indent, depth + 1)?;
                    item.write(out, indent, depth + 1)?;
                }
                newline_indent(out, indent, depth)?;
                out.write_char(']')?;
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    return out.write_str("{}");
                }
                out.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline_indent(out, indent, depth + 1)?;
                    escape_into(k, out)?;
                    out.write_char(':')?;
                    if indent.is_some() {
                        out.write_char(' ')?;
                    }
                    v.write(out, indent, depth + 1)?;
                }
                newline_indent(out, indent, depth)?;
                out.write_char('}')?;
            }
        }
        Ok(())
    }
}

/// Bridges `fmt::Write` onto an `io::Write`, stashing the first I/O error
/// so [`Json::write_pretty`] can surface it (the `fmt` error type carries
/// no payload).
struct IoFmt<'a, W: io::Write> {
    w: &'a mut W,
    err: Option<io::Error>,
}

impl<W: io::Write> fmt::Write for IoFmt<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.w.write_all(s.as_bytes()).map_err(|e| {
            self.err.get_or_insert(e);
            fmt::Error
        })
    }
}

/// Recursion guard for the parser: deeper documents are rejected rather
/// than risking a stack overflow on adversarial input.
const MAX_PARSE_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_PARSE_DEPTH {
            return Err("document nested too deeply".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte {:#04x} at {}", b, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
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
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so the byte range is valid UTF-8 as
                // long as it ends on a boundary — and it does, because the
                // stop bytes above are all ASCII.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("invalid codepoint {cp:#x}"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(b) => return Err(format!("raw control byte {:#04x} in string", b)),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "non-ascii in \\u escape".to_string())?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad hex in \\u escape".to_string())?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-ascii in number".to_string())?;
        if is_float {
            text.parse::<f64>().map(Json::Float).map_err(|_| format!("bad number '{text}'"))
        } else {
            text.parse::<i128>().map(Json::Int).map_err(|_| format!("bad integer '{text}'"))
        }
    }
}

fn newline_indent<W: fmt::Write>(out: &mut W, indent: Option<usize>, depth: usize) -> fmt::Result {
    if let Some(width) = indent {
        out.write_char('\n')?;
        for _ in 0..depth * width {
            out.write_char(' ')?;
        }
    }
    Ok(())
}

fn escape_into<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
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

impl From<crate::intern::Sym> for Json {
    fn from(sym: crate::intern::Sym) -> Json {
        Json::Sym(sym)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i128)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_string_compact(), "null");
        assert_eq!(Json::Bool(true).to_string_compact(), "true");
        assert_eq!(Json::Int(-42).to_string_compact(), "-42");
        assert_eq!(Json::Float(1.5).to_string_compact(), "1.5");
        assert_eq!(Json::Float(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::from("hi").to_string_compact(), "\"hi\"");
    }

    #[test]
    fn string_escaping_is_spec_compliant() {
        let s = Json::Str("a\"b\\c\nd\te\u{1}".to_string());
        assert_eq!(s.to_string_compact(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn nested_structures_compact() {
        let j = Json::obj([
            ("name", "als".into()),
            ("times", Json::arr([Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
            ("emptyo", Json::Obj(vec![])),
        ]);
        assert_eq!(j.to_string_compact(), r#"{"name":"als","times":[1,2],"empty":[],"emptyo":{}}"#);
    }

    #[test]
    fn pretty_output_is_indented_and_reparsable_shape() {
        let j = Json::obj([("a", Json::Int(1)), ("b", Json::arr([Json::Bool(false)]))]);
        let p = j.to_string_pretty();
        assert!(p.contains("\n  \"a\": 1,"));
        assert!(p.ends_with("}\n"));
    }

    #[test]
    fn write_pretty_streams_the_same_bytes_as_to_string_pretty() {
        let j = Json::obj([
            ("name", "als\"x".into()),
            ("nan", Json::Float(f64::NAN)),
            ("rows", Json::arr([Json::obj([("n", Json::Int(7))]), Json::Null])),
        ]);
        let mut buf = Vec::new();
        j.write_pretty(&mut buf).unwrap();
        assert_eq!(buf, j.to_string_pretty().into_bytes());
    }

    #[test]
    fn write_pretty_surfaces_io_errors() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = Json::Int(1).write_pretty(&mut Full).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn big_integers_stay_exact() {
        let big: u64 = u64::MAX;
        assert_eq!(Json::from(big).to_string_compact(), big.to_string());
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::Float(2000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::from("hi"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parse_string_escapes() {
        let j = Json::parse(r#""a\"b\\c\nd\te\u0001 é 😀""#).unwrap();
        assert_eq!(j, Json::Str("a\"b\\c\nd\te\u{1} é 😀".to_string()));
        assert!(Json::parse(r#""\ud83d""#).is_err()); // lone high surrogate
        assert!(Json::parse(r#""\udc00""#).is_err()); // lone low surrogate
    }

    #[test]
    fn parse_preserves_key_order_and_accessors_work() {
        let j = Json::parse(r#"{"z":1,"a":{"k":[true,null]},"f":2.5}"#).unwrap();
        let keys: Vec<&str> = j.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "f"]);
        assert_eq!(j.get("z").unwrap().as_i128(), Some(1));
        assert_eq!(j.get("f").unwrap().as_f64(), Some(2.5));
        let arr = j.get("a").unwrap().get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert!(j.get("missing").is_none());
        assert!(Json::Int(3).get("x").is_none());
    }

    #[test]
    fn emit_parse_emit_is_byte_identical() {
        // The contract serve's FFB re-encoding relies on: re-emitting a
        // parsed document reproduces the original bytes exactly.
        let doc = Json::obj([
            ("app", "als".into()),
            ("big", Json::Int(i128::from(u64::MAX) * 3)),
            ("neg", Json::Int(-7)),
            ("pct", Json::Float(12.345678901234567)),
            ("tiny", Json::Float(0.1)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            ("text", Json::Str("quote \" slash \\ tab\t".to_string())),
            (
                "cells",
                Json::arr([
                    Json::obj([("k", Json::Int(1)), ("v", Json::Float(2.25))]),
                    Json::obj([("k", Json::Int(2)), ("v", Json::Float(0.5))]),
                ]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        for rendered in [doc.to_string_pretty(), doc.to_string_compact()] {
            let reparsed = Json::parse(&rendered).unwrap();
            assert_eq!(reparsed, doc);
        }
        let pretty = doc.to_string_pretty();
        assert_eq!(Json::parse(&pretty).unwrap().to_string_pretty(), pretty);
        let compact = doc.to_string_compact();
        assert_eq!(Json::parse(&compact).unwrap().to_string_compact(), compact);

        // Integral floats render without a fraction, so they re-parse as
        // Int — different AST, same bytes. Byte-stability is what the
        // merge path needs.
        let f = Json::Float(2.0);
        assert_eq!(f.to_string_compact(), "2");
        let reparsed = Json::parse("2").unwrap();
        assert_eq!(reparsed, Json::Int(2));
        assert_eq!(reparsed.to_string_compact(), f.to_string_compact());
    }

    #[test]
    fn string_like_variants_are_interchangeable() {
        let sym = crate::intern::intern("als.cpp");
        let as_sym = Json::Sym(sym);
        let as_static = Json::Static("als.cpp");
        let as_str = Json::Str("als.cpp".to_string());
        // Identical bytes out...
        assert_eq!(as_sym.to_string_compact(), "\"als.cpp\"");
        assert_eq!(as_static.to_string_compact(), as_str.to_string_compact());
        // ...content-based equality across variants (the parser always
        // yields Str, so round-trip comparisons depend on this)...
        assert_eq!(as_sym, as_str);
        assert_eq!(as_static, as_str);
        assert_eq!(Json::parse("\"als.cpp\"").unwrap(), as_sym);
        assert_ne!(as_sym, Json::Static("other.cpp"));
        assert_ne!(as_static, Json::Null);
        // ...and uniform accessor behavior.
        assert_eq!(as_sym.as_str(), Some("als.cpp"));
        assert_eq!(as_static.as_str(), Some("als.cpp"));
        // Escaping applies to borrowed variants too.
        assert_eq!(Json::Static("a\"b").to_string_compact(), "\"a\\\"b\"");
    }

    #[test]
    fn parse_depth_is_bounded() {
        let deep = "[".repeat(600) + &"]".repeat(600);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }
}
