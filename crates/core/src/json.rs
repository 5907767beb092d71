//! A minimal, dependency-free JSON value with parser and serializer, plus
//! the one codec idiom every message type in the crate family uses.
//!
//! The compute service speaks line-delimited JSON over TCP and journals
//! its durable state as JSON, and the build image has no crates.io access,
//! so `serde_json` is not an option. This module implements exactly the
//! subset the wire protocol and the journal need:
//!
//! * Unsigned integers are kept **exact** as `u64` (`Json::UInt`) rather
//!   than routed through `f64` — P32 products occupy the full 64-bit range
//!   and must survive a round trip bit-for-bit. Numbers with a sign, a
//!   fraction or an exponent parse as `Json::Float`.
//! * Strings support the standard escapes including `\uXXXX` with UTF-16
//!   surrogate pairs for astral characters (unpaired surrogates decode to
//!   U+FFFD).
//! * Parsing depth is limited (64 levels) so a malicious client cannot
//!   overflow the server's stack with `[[[[…]]]]`.
//!
//! # The codec idiom
//!
//! Every message type — wire requests and responses, program
//! instructions, journal events, snapshots — is encoded and decoded the
//! same way:
//!
//! * **Encode** with the object builder: [`Json::object`] then
//!   [`ObjBuilder::field`] per member, in wire order, and
//!   [`ObjBuilder::field_opt`] for members omitted when `None`. Values are
//!   anything `Into<Json>`: `u64`, `usize`, `u32`, `f64`, `bool`,
//!   `String`, or a reference to any [`ToJson`] type (`&str`, `&[u64]`,
//!   `&Vec<Instr>`, …).
//! * **Decode** with the typed field readers: [`Json::req`] for a required
//!   member and [`Json::opt`] for an optional one (absent or `null` is
//!   `None`; a wrong type is still an error). Both decode through
//!   [`FromJson`], so the same call reads a `u64`, a `&str`, an array, a
//!   `Vec<Instr>` or a nested record, and every failure is one
//!   [`FieldError`] naming the field ("missing field 'x'", "field 'x'
//!   must be a non-negative integer", …).
//! * **Value types** implement [`ToJson`] and [`FromJson`] once, next to
//!   their vocabulary, and every container of them (`Vec<T>`, `Option<T>`)
//!   follows.
//!
//! # Examples
//!
//! ```
//! use bpimc_core::json::Json;
//!
//! let v = Json::parse(r#"{"op":"dot","x":[1,2,3]}"#).unwrap();
//! assert_eq!(v.req::<&str>("op"), Ok("dot"));
//! assert_eq!(v.req::<Vec<u64>>("x"), Ok(vec![1, 2, 3]));
//! assert_eq!(v.opt::<u64>("seq"), Ok(None));
//! assert!(v.req::<u64>("op").is_err());
//!
//! let line = Json::object()
//!     .field("op", "dot")
//!     .field("x", &[1u64, 2, 3][..])
//!     .field_opt("seq", None::<u64>)
//!     .build();
//! assert_eq!(line.to_string(), r#"{"op":"dot","x":[1,2,3]}"#);
//! ```

use std::fmt;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number (negative, fractional or exponential).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// Returns the offset and reason of the first syntax error.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
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

    /// The value as `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Builds a JSON object one member at a time, in order ([`Json::object`]).
#[derive(Debug, Default)]
#[must_use]
pub struct ObjBuilder(Vec<(String, Json)>);

impl ObjBuilder {
    /// Appends member `key`.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Appends member `key` when `value` is `Some`; omits it otherwise.
    pub fn field_opt<V: Into<Json>>(self, key: &str, value: Option<V>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// The finished object.
    pub fn build(self) -> Json {
        Json::Obj(self.0)
    }
}

/// Encoding into a [`Json`] value.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Decoding from the [`Json`] value of one field. `key` names the field
/// in error messages; the lifetime lets borrowed forms (`&str`, `&[Json]`,
/// `&Json`) decode without copying.
pub trait FromJson<'a>: Sized {
    /// Decodes `v`, the value of field `key`.
    ///
    /// # Errors
    ///
    /// A [`FieldError`] naming `key` when `v` has the wrong shape.
    fn from_json(v: &'a Json, key: &str) -> Result<Self, FieldError>;
}

/// A missing or ill-shaped field; the message names it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError(pub String);

impl FieldError {
    fn expected(key: &str, what: &str) -> FieldError {
        FieldError(format!("field '{key}' must be {what}"))
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FieldError {}

impl From<FieldError> for String {
    fn from(e: FieldError) -> String {
        e.0
    }
}

impl Json {
    /// An empty object builder.
    pub fn object() -> ObjBuilder {
        ObjBuilder::default()
    }

    /// Required member `key`, decoded as `T`.
    ///
    /// # Errors
    ///
    /// "missing field 'key'", or `T`'s error when the value has the wrong
    /// shape.
    pub fn req<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, FieldError> {
        match self.get(key) {
            Some(v) => T::from_json(v, key),
            None => Err(FieldError(format!("missing field '{key}'"))),
        }
    }

    /// Optional member `key`: absent or `null` is `None`.
    ///
    /// # Errors
    ///
    /// `T`'s error when the member is present with the wrong shape.
    pub fn opt<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<Option<T>, FieldError> {
        match self.get(key) {
            Some(v) => Option::from_json(v, key),
            None => Ok(None),
        }
    }
}

impl<'a> FromJson<'a> for &'a Json {
    fn from_json(v: &'a Json, _key: &str) -> Result<Self, FieldError> {
        Ok(v)
    }
}

/// Unsigned integers: exact, and range-checked on decode — a value that
/// does not fit the target type is an error, never truncated.
macro_rules! uint_json {
    ($($t:ty),*) => {$(
        impl FromJson<'_> for $t {
            fn from_json(v: &Json, key: &str) -> Result<Self, FieldError> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| FieldError::expected(key, "a non-negative integer"))?;
                <$t>::try_from(n).map_err(|_| FieldError(format!("field '{key}' out of range")))
            }
        }

        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }

        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::UInt(v as u64)
            }
        }
    )*};
}

uint_json!(u64, u32, usize);

impl FromJson<'_> for f64 {
    fn from_json(v: &Json, key: &str) -> Result<Self, FieldError> {
        v.as_f64()
            .ok_or_else(|| FieldError::expected(key, "a number"))
    }
}

impl FromJson<'_> for bool {
    fn from_json(v: &Json, key: &str) -> Result<Self, FieldError> {
        v.as_bool()
            .ok_or_else(|| FieldError::expected(key, "a bool"))
    }
}

impl<'a> FromJson<'a> for &'a str {
    fn from_json(v: &'a Json, key: &str) -> Result<Self, FieldError> {
        v.as_str()
            .ok_or_else(|| FieldError::expected(key, "a string"))
    }
}

impl FromJson<'_> for String {
    fn from_json(v: &Json, key: &str) -> Result<Self, FieldError> {
        <&str>::from_json(v, key).map(str::to_string)
    }
}

impl<'a> FromJson<'a> for &'a [Json] {
    fn from_json(v: &'a Json, key: &str) -> Result<Self, FieldError> {
        v.as_array()
            .ok_or_else(|| FieldError::expected(key, "an array"))
    }
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn from_json(v: &'a Json, key: &str) -> Result<Self, FieldError> {
        <&[Json]>::from_json(v, key)?
            .iter()
            .map(|item| T::from_json(item, key))
            .collect()
    }
}

/// `null` decodes to `None`.
impl<'a, T: FromJson<'a>> FromJson<'a> for Option<T> {
    fn from_json(v: &'a Json, key: &str) -> Result<Self, FieldError> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v, key).map(Some),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        self.as_str().to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

/// `None` encodes as `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
}

impl<T: ToJson + ?Sized> From<&T> for Json {
    fn from(v: &T) -> Json {
        v.to_json()
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Float(x) if x.is_finite() => write!(f, "{x}"),
            // JSON has no NaN/inf; null is the least-surprising encoding.
            Json::Float(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
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

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, lit: &'static str, message: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", "expected null").map(|_| Json::Null),
            Some(b't') => self
                .literal("true", "expected true")
                .map(|_| Json::Bool(true)),
            Some(b'f') => self
                .literal("false", "expected false")
                .map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
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
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
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
                            let code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: pair it with a following
                                // \uXXXX low surrogate (the standard JSON
                                // encoding of astral characters).
                                let resume = self.pos;
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&low) {
                                        let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                        out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                                    } else {
                                        // Unpaired high surrogate; the next
                                        // escape stands on its own.
                                        out.push('\u{FFFD}');
                                        self.pos = resume;
                                    }
                                } else {
                                    out.push('\u{FFFD}');
                                }
                            } else {
                                // Lone low surrogates land in the None arm.
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Multi-byte UTF-8: copy the sequence through verbatim. The
                // input is a &str, so sequences are always valid.
                b if b < 0x80 => {
                    if b < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(b as char);
                }
                _ => {
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|c| c & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let mut exact = true; // still a plain non-negative integer?
        if self.peek() == Some(b'-') {
            exact = false;
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            exact = false;
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            exact = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if exact {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            // Over 2^64-1: fall through to the (lossy) float representation.
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::UInt(0)),
            ("18446744073709551615", Json::UInt(u64::MAX)),
            ("-3.5", Json::Float(-3.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), v, "{text}");
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn u64_values_survive_exactly() {
        // The whole point of Json::UInt: P32 products occupy all 64 bits
        // and must not be squeezed through f64.
        let big = u64::MAX - 1;
        let v = Json::Arr(vec![Json::UInt(big)]);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_array().unwrap()[0].as_u64(), Some(big));
    }

    #[test]
    fn objects_and_arrays_parse() {
        let v = Json::parse(r#" {"a": [1, 2.5, "x"], "b": {"c": null}} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nquote\"back\\slash\ttab\u{1f600}";
        let v = Json::Str(s.into());
        assert_eq!(Json::parse(&v.to_string()).unwrap().as_str(), Some(s));
        assert_eq!(Json::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_chars() {
        // Standard encoders (Python json.dumps, JSON.stringify with
        // escaping) emit astral characters as UTF-16 surrogate pairs.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1f600}")
        );
        assert_eq!(
            Json::parse(r#""x\ud83d\ude00y""#).unwrap().as_str(),
            Some("x\u{1f600}y")
        );
        // Unpaired halves degrade to U+FFFD without eating what follows.
        assert_eq!(
            Json::parse(r#""\ud83dX""#).unwrap().as_str(),
            Some("\u{FFFD}X")
        );
        assert_eq!(
            Json::parse(r#""\ud83dA""#).unwrap().as_str(),
            Some("\u{FFFD}A")
        );
        assert_eq!(
            Json::parse(r#""\ude00""#).unwrap().as_str(),
            Some("\u{FFFD}")
        );
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "01x",
            "\"unterminated",
            "nul",
            "1 2",
            "{\"a\":}",
            "[1],",
            "\"bad \\q escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_limit_blocks_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        // Well within the limit is fine.
        let ok = "[".repeat(20) + "1" + &"]".repeat(20);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn u64_array_helper() {
        let v = Json::parse(r#"{"x":[1,2,3],"y":[1,2.5],"z":4294967296}"#).unwrap();
        assert_eq!(v.req::<Vec<u64>>("x"), Ok(vec![1, 2, 3]));
        let mixed = v.req::<Vec<u64>>("y").unwrap_err();
        assert_eq!(mixed.0, "field 'y' must be a non-negative integer");
        assert_eq!(v.req::<u32>("z").unwrap_err().0, "field 'z' out of range");
        assert_eq!(v.req::<u64>("z"), Ok(1 << 32));
        assert_eq!(v.req::<u64>("w").unwrap_err().0, "missing field 'w'");
        assert_eq!(v.opt::<u64>("w"), Ok(None));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }
}
