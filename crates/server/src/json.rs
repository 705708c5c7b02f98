//! A minimal JSON value model, parser, and serializer.
//!
//! The build environment is offline (no serde); the serving protocol is
//! newline-delimited JSON, so this module hand-rolls the subset we need:
//! the full JSON grammar on input, and **deterministic** output — objects
//! serialize in insertion order and numbers in a canonical form — so that
//! identical results serialize to identical bytes (the property the result
//! cache's byte-identical replay depends on).

use std::borrow::Cow;
use std::fmt::{self, Write};

/// A parsed JSON value. Objects preserve insertion order (`Vec`, not a map):
/// serialization is deterministic and cheap for the small objects the
/// protocol exchanges.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part, within `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first occurrence).
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

    /// Integer payload (also accepts floats with integral value).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// Non-negative integer payload.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|v| u64::try_from(v).ok())
    }

    /// Numeric payload widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object payload (fields in insertion order).
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serializes into `out`; fails only if `out` does.
    pub fn write<W: Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::Int(v) => write!(out, "{v}"),
            Json::Float(f) => write_float(*f, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(fields) => {
                out.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_escaped(k, out)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }

    /// Convenience constructor for an object literal.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

/// Object fields for a run of counters, in the given order.
pub(crate) fn counters(fields: &[(&str, u64)]) -> Vec<(String, Json)> {
    fields
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Int(*v as i64)))
        .collect()
}

/// Compact, deterministic serialization; `to_string()` comes with it.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

/// A float as JSON: `{f:?}` always includes a fractional part or exponent,
/// keeping floats distinguishable from ints on re-parse; JSON has no Inf or
/// NaN, so those are `null`.
pub(crate) fn write_float<W: Write>(f: f64, out: &mut W) -> fmt::Result {
    if f.is_finite() {
        write!(out, "{f:?}")
    } else {
        out.write_str("null")
    }
}

/// A string as a quoted JSON string literal.
pub(crate) fn write_escaped<W: Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    // Every byte that needs escaping is ASCII, so the text between two of
    // them is a valid slice and goes out in one call.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "", // no short form: `\u00XX` below
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        match escape {
            "" => write!(out, "\\u{b:04x}")?,
            e => out.write_str(e)?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// A parse failure: message plus byte offset.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where it went wrong.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts (a full zoom request
/// nests 6 deep). The parser recurses once per level, and a stack overflow
/// is a process abort, not a panic the per-line containment could catch.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// A cursor over one JSON text. [`parse`] reads any document with it; the
/// result-body reader (`render::read_tgraph`) drives its string and number
/// scanning directly over the one layout the body writer produces.
pub(crate) struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A cursor at the start of `input`.
    pub(crate) fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    /// The next byte, not consumed.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Whether every byte has been consumed.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// The text not yet consumed.
    pub(crate) fn rest(&self) -> &'a str {
        self.input.get(self.pos..).unwrap_or_default()
    }

    /// Consumes the next `n` bytes, which the caller has matched in
    /// [`rest`](Self::rest).
    pub(crate) fn advance(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.bytes.len());
    }

    /// Consumes `token` if the input continues with it exactly.
    pub(crate) fn token(&mut self, token: &str) -> bool {
        let found = self.bytes[self.pos..].starts_with(token.as_bytes());
        if found {
            self.pos += token.len();
        }
        found
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.token(lit) {
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?.into_owned();
            self.skip_ws();
            self.consume(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
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

    fn array(&mut self) -> Result<Json, ParseError> {
        self.consume(b'[')?;
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

    /// One string literal, unescaped. Borrowed from the input when it
    /// holds no escape, the common case: the text between two escapes goes
    /// over as one run, found by a scan for the two ASCII bytes that end it.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.consume(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let Some(len) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            // Both delimiters are ASCII, so the run is whole scalars.
            let run = self.input.get(self.pos..self.pos + len).unwrap_or_default();
            self.pos += len + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(run);
            match self.peek() {
                Some(b'"') => s.push('"'),
                Some(b'\\') => s.push('\\'),
                Some(b'/') => s.push('/'),
                Some(b'n') => s.push('\n'),
                Some(b'r') => s.push('\r'),
                Some(b't') => s.push('\t'),
                Some(b'b') => s.push('\u{8}'),
                Some(b'f') => s.push('\u{c}'),
                Some(b'u') => {
                    let cp = self.unicode_escape()?;
                    s.push(cp);
                    continue; // unicode_escape advanced past the digits
                }
                _ => return Err(self.err("bad escape")),
            }
            self.pos += 1;
        }
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        // self.pos is at 'u'.
        let hex4 = |p: &Self, at: usize| -> Result<u32, ParseError> {
            let h = p
                .bytes
                .get(at..at + 4)
                .and_then(|b| std::str::from_utf8(b).ok())
                .and_then(|s| u32::from_str_radix(s, 16).ok());
            h.ok_or_else(|| p.err("bad \\u escape"))
        };
        let hi = hex4(self, self.pos + 1)?;
        self.pos += 5; // past 'u' + 4 digits
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: expect \uXXXX low surrogate.
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                let lo = hex4(self, self.pos + 2)?;
                self.pos += 6;
                // The low half must be an actual low surrogate; without this
                // check `lo - 0xDC00` underflows (a debug-build panic, and
                // mojibake-or-luck in release).
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("bad surrogate pair"));
                }
                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(cp).ok_or_else(|| self.err("bad surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))
    }

    /// One number: `Int` when it has no fraction or exponent and fits an
    /// `i64`, `Float` otherwise.
    pub(crate) fn number(&mut self) -> Result<Json, ParseError> {
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
        let text = self.input.get(start..self.pos).unwrap_or_default();
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let input = r#"{"op":"zoom","graph":"fig1","range":[0,10],"deadline_ms":250,
                        "steps":[{"azoom":{"by":"school","aggs":[{"output":"n","fn":"count"}]}}],
                        "flag":true,"nothing":null,"pi":3.25}"#;
        let v = parse(input).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("zoom"));
        assert_eq!(v.get("deadline_ms").and_then(Json::as_i64), Some(250));
        assert_eq!(v.get("pi").and_then(Json::as_f64), Some(3.25));
        assert_eq!(v.get("nothing"), Some(&Json::Null));
        let range = v.get("range").and_then(Json::as_arr).unwrap();
        assert_eq!(range[0].as_i64(), Some(0));
        // Re-parse of the serialization is identical.
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn serialization_is_deterministic_and_escaped() {
        let v = Json::obj(vec![
            ("a", Json::str("line\nbreak \"quoted\"")),
            ("b", Json::Int(-7)),
            ("c", Json::Float(1.5)),
        ]);
        let s = v.to_string();
        assert_eq!(
            s,
            "{\"a\":\"line\\nbreak \\\"quoted\\\"\",\"b\":-7,\"c\":1.5}"
        );
        assert_eq!(v.to_string(), s, "same bytes every time");
        // A control byte next to a multi-byte scalar: runs split on bytes.
        assert_eq!(Json::str("é\u{1}é").to_string(), "\"é\\u0001é\"");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn floats_and_ints_stay_distinguishable() {
        let v = parse("[1, 1.0]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0], Json::Int(1));
        assert_eq!(items[1], Json::Float(1.0));
        assert_eq!(v.to_string(), "[1,1.0]");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "tru", "1 2", "{'a':1}"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let e = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.to_string(), "nesting deeper than 64 at byte 64");
        // Objects count too, and siblings do not accumulate.
        let obj = format!("{}1{}", "{\"a\":".repeat(65), "}".repeat(65));
        assert!(parse(&obj).is_err());
        assert!(parse(&format!("[{}]", vec![nest(MAX_DEPTH - 1); 3].join(","))).is_ok());
        // What used to overflow the stack: unclosed, far past the cap.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn unicode_and_surrogate_escapes() {
        let v = parse(r#""café 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("café 😀"));
        let round = parse(&Json::str("café 😀").to_string()).unwrap();
        assert_eq!(round.as_str(), Some("café 😀"));
    }

    #[test]
    fn valid_surrogate_pairs_decode() {
        // U+1F600 (😀) as its escaped surrogate pair.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1F600}")
        );
        // First and last pairable code points.
        assert_eq!(
            parse(r#""\ud800\udc00""#).unwrap().as_str(),
            Some("\u{10000}")
        );
        assert_eq!(
            parse(r#""\udbff\udfff""#).unwrap().as_str(),
            Some("\u{10FFFF}")
        );
        // Pair embedded mid-string, next to another escape.
        assert_eq!(
            parse(r#""a\t\ud83d\ude00z""#).unwrap().as_str(),
            Some("a\t\u{1F600}z")
        );
    }

    #[test]
    fn lone_surrogates_are_errors() {
        // High surrogate at end of string.
        assert!(parse(r#""\ud800""#).is_err());
        // High surrogate followed by ordinary characters.
        assert!(parse(r#""\ud800abc""#).is_err());
        // Lone low surrogate.
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn high_surrogate_with_bad_low_half_is_an_error_not_a_panic() {
        // High surrogate followed by a \u escape that is NOT a low
        // surrogate: `lo - 0xDC00` used to underflow here (a debug-build
        // panic). Must be a parse error — not a panic, not mojibake.
        for bad in [
            r#""\ud800\u0041""#, // BMP scalar after high surrogate
            r#""\ud800\ud800""#, // two high surrogates
            r#""\ud83d\u00e9""#, // é after high surrogate
        ] {
            let got = parse(bad);
            assert!(got.is_err(), "{bad} must fail, got {got:?}");
        }
        // High surrogate followed by a non-\u escape.
        assert!(parse(r#""\ud800\n""#).is_err());
        assert!(parse(r#""\ud800\t""#).is_err());
    }
}
