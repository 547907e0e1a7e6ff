//! The one JSON module behind every JSON artifact the workspace writes or
//! reads back (DESIGN.md §9). The build is offline, so writers keep their
//! own `format!` templates — a template *is* its schema's field order —
//! and take strings, floats and `u64` arrays from [`esc`], [`num`] and
//! [`u64s`]. Readers go through [`parse`], a strict recursive-descent
//! parser: malformed input is a typed [`JsonError`], never a panic.

use std::fmt;

/// Escapes a string for a JSON string literal (without the quotes):
/// `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` use their
/// short forms, every other control character its `\u00XX` form.
/// Everything else, non-ASCII included, passes through as UTF-8.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON value: Rust's shortest round-trip `Display`
/// form, with a forced `.0` on integral values so a float field always
/// reads as one, and `null` for non-finite values.
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Formats `u64`s as a compact JSON array (`[1,2,3]`).
pub fn u64s(values: &[u64]) -> String {
    let inner: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", inner.join(","))
}

/// Deepest array/object nesting [`parse`] accepts. The files the
/// workspace writes nest at most four levels; the cap keeps hostile input
/// from overflowing the parser's stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects keep their members in source order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source text (checked against the JSON grammar).
    Num(String),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's members, in source order.
    Obj(Vec<(String, Value)>),
}

/// What went wrong, for [`JsonError`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input ended inside a value.
    Eof,
    /// A character that cannot appear at this position: a syntax error,
    /// a raw control character in a string, trailing data, or (at its
    /// backslash) an escape that decodes to no scalar value.
    Unexpected(char),
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// A well-formed document without a field its reader requires.
    Missing(String),
    /// A field present with the wrong type (`want` names the type).
    WrongType {
        /// The field's key.
        key: String,
        /// The type the reader expected.
        want: &'static str,
    },
}

/// A typed JSON error. Syntax errors carry the byte offset where parsing
/// stopped; shape errors ([`ErrorKind::Missing`], [`ErrorKind::WrongType`])
/// come from a well-formed document and carry offset 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the parsed text.
    pub offset: usize,
    /// The error kind.
    pub kind: ErrorKind,
}

impl JsonError {
    /// A document that lacks the required field `key`.
    pub fn missing(key: &str) -> Self {
        let kind = ErrorKind::Missing(key.to_string());
        JsonError { offset: 0, kind }
    }

    /// A field `key` that is present but not a `want`.
    pub fn wrong_type(key: &str, want: &'static str) -> Self {
        let key = key.to_string();
        let kind = ErrorKind::WrongType { key, want };
        JsonError { offset: 0, kind }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = self.offset;
        match &self.kind {
            ErrorKind::Eof => write!(f, "unexpected end of input at byte {at}"),
            ErrorKind::Unexpected(c) => write!(f, "unexpected {c:?} at byte {at}"),
            ErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}"),
            ErrorKind::Missing(key) => write!(f, "missing field `{key}`"),
            ErrorKind::WrongType { key, want } => write!(f, "field `{key}` is not a {want}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// The member `key` of an object (the first, if repeated); `None`
    /// for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `u64`, exactly: a non-negative integer written
    /// without fraction or exponent that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(t) if t.bytes().all(|b| b.is_ascii_digit()) => t.parse().ok(),
            _ => None,
        }
    }

    /// The number as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The member `key` through the accessor `as_t`: a missing key is
    /// [`ErrorKind::Missing`], a value `as_t` refuses
    /// [`ErrorKind::WrongType`].
    fn typed<'a, T>(
        &'a self,
        key: &str,
        want: &'static str,
        as_t: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, JsonError> {
        let v = self.get(key).ok_or_else(|| JsonError::missing(key))?;
        as_t(v).ok_or_else(|| JsonError::wrong_type(key, want))
    }

    /// The string member `key`, or a typed error.
    pub fn str_field(&self, key: &str) -> Result<&str, JsonError> {
        self.typed(key, "string", Value::as_str)
    }

    /// The `u64` member `key`, or a typed error.
    pub fn u64_field(&self, key: &str) -> Result<u64, JsonError> {
        self.typed(key, "u64", Value::as_u64)
    }

    /// The numeric member `key` as an `f64`, or a typed error.
    pub fn f64_field(&self, key: &str) -> Result<f64, JsonError> {
        self.typed(key, "number", Value::as_f64)
    }

    /// The array member `key`, or a typed error.
    pub fn array_field(&self, key: &str) -> Result<&[Value], JsonError> {
        self.typed(key, "array", |v| match v {
            Value::Arr(items) => Some(items.as_slice()),
            _ => None,
        })
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.unexpected());
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, kind: ErrorKind) -> JsonError {
        let offset = self.pos;
        JsonError { offset, kind }
    }

    /// The error for whatever sits at the cursor: end of input, or the
    /// whole (possibly multi-byte) character there.
    fn unexpected(&self) -> JsonError {
        match self.text.get(self.pos..).and_then(|s| s.chars().next()) {
            Some(c) => self.err(ErrorKind::Unexpected(c)),
            None => self.err(ErrorKind::Eof),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.unexpected())
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        let literal = |p: &mut Self, word: &str, v: Value| {
            word.bytes().try_for_each(|b| p.expect(b)).map(|()| v)
        };
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.items(depth, b'}', |p| {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return Err(p.unexpected());
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(depth, b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => literal(self, "true", Value::Bool(true)),
            Some(b'f') => literal(self, "false", Value::Bool(false)),
            Some(b'n') => literal(self, "null", Value::Null),
            _ => Err(self.unexpected()),
        }
    }

    /// The comma-separated items of the array or object whose opening
    /// bracket is at the cursor, through its `close` bracket.
    fn items(
        &mut self,
        depth: usize,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if depth >= MAX_DEPTH {
            return Err(self.err(ErrorKind::TooDeep));
        }
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    /// A string literal; the cursor sits on its opening quote.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next quote, backslash or
            // control byte: all ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                // The end of the input, or a raw control character.
                return Err(self.unexpected());
            }
            out.push(self.escape()?);
        }
    }

    /// One escape; the cursor sits just past its backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'u') => {
                let backslash = self.pos - 1;
                self.pos += 1;
                let hi = self.hex4()?;
                // A high surrogate decodes only with the low one after it.
                let code = if (0xd800..0xdc00).contains(&hi)
                    && self.text.as_bytes()[self.pos..].starts_with(b"\\u")
                {
                    self.pos += 2;
                    let lo = self.hex4()?;
                    (0xdc00..0xe000)
                        .contains(&lo)
                        .then(|| 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00))
                } else {
                    Some(hi)
                };
                return code.and_then(char::from_u32).ok_or(JsonError {
                    offset: backslash,
                    kind: ErrorKind::Unexpected('\\'),
                });
            }
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            _ => return Err(self.unexpected()),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| char::from(b).to_digit(16));
            v = v * 16 + digit.ok_or_else(|| self.unexpected())?;
            self.pos += 1;
        }
        Ok(v)
    }

    /// A number: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Ok(Value::Num(self.text[start..self.pos].to_string()))
    }

    /// One or more digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.unexpected());
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kind and offset of `text`'s parse error.
    fn err(text: &str) -> (ErrorKind, usize) {
        let e = parse(text).unwrap_err();
        assert!(!e.to_string().is_empty());
        (e.kind, e.offset)
    }

    #[test]
    fn writer_helpers_keep_their_formats() {
        let s = esc("a\"b\\c\nd\re\tf\u{1}é");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\re\\tf\\u0001é");
        let nums = [num(2.0), num(0.125), num(f64::NAN), num(f64::INFINITY)];
        assert_eq!(nums, ["2.0", "0.125", "null", "null"]);
        assert_eq!([u64s(&[]), u64s(&[1, 22, 333])], ["[]", "[1,22,333]"]);
    }

    #[test]
    fn parses_every_value_kind() {
        let text = " {\"a\": [1, -2.5e3, true, false, null], \"b\": {\"c\": \"d\"}} ";
        let v = parse(text).unwrap();
        let a = v.array_field("a").unwrap();
        assert_eq!((a[0].as_u64(), a[1].as_u64()), (Some(1), None));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!((&a[2], &a[3]), (&Value::Bool(true), &Value::Bool(false)));
        assert_eq!(a[4], Value::Null);
        assert_eq!(v.get("b").unwrap().str_field("c"), Ok("d"));
        assert_eq!(parse("[]"), Ok(Value::Arr(Vec::new())));
        assert_eq!(parse("{}"), Ok(Value::Obj(Vec::new())));
    }

    /// The journal's string fields: cell keys embed `Debug`-formatted
    /// specs, so quotes and backslashes must round-trip through escapes.
    #[test]
    fn string_fields_round_trip_through_escapes() {
        let key = "machine-a|UaB|Linux4k|Some(7)|\"quoted\"\\back";
        let line = format!(
            "{{\"key\":\"{}\",\"status\":\"ok\",\"msg\":\"tab\\there\"}}",
            esc(key)
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.str_field("key"), Ok(key));
        assert_eq!(v.str_field("status"), Ok("ok"));
        assert_eq!(v.str_field("msg"), Ok("tab\there"));
        assert_eq!(v.str_field("absent"), Err(JsonError::missing("absent")));
    }

    /// The journal's number fields, exponent and sign included.
    #[test]
    fn number_fields_parse() {
        let v = parse("{\"wall_secs\":1.25,\"n\":-3e2}").unwrap();
        assert_eq!(v.f64_field("wall_secs"), Ok(1.25));
        assert_eq!(v.f64_field("n"), Ok(-300.0));
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn u64_is_exact_at_the_top_of_the_range() {
        let v = parse(&format!("{{\"x\": {}}}", u64::MAX)).unwrap();
        assert_eq!(v.u64_field("x"), Ok(u64::MAX));
        // One past the top is a number, just not a u64.
        let v = parse("{\"x\": 18446744073709551616}").unwrap();
        assert_eq!(v.u64_field("x"), Err(JsonError::wrong_type("x", "u64")));
        let above_f64 = parse("9007199254740993").unwrap();
        assert_eq!(above_f64.as_u64(), Some((1 << 53) + 1));
    }

    #[test]
    fn unicode_escapes_decode_surrogate_pairs() {
        let v = parse("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
        // A lone or mispaired surrogate points at its backslash.
        assert_eq!(err("\"x\\ud83d\""), (ErrorKind::Unexpected('\\'), 2));
        assert_eq!(err("\"\\ud83d\\u0041\""), (ErrorKind::Unexpected('\\'), 1));
        assert_eq!(err("\"\\x\""), (ErrorKind::Unexpected('x'), 2));
        assert_eq!(err("\"\\u12g4\""), (ErrorKind::Unexpected('g'), 5));
    }

    #[test]
    fn malformed_input_is_a_typed_error_with_its_offset() {
        use ErrorKind::{Eof, Unexpected};
        let cases = [
            ("", Eof, 0),
            ("{\"a\": 1", Eof, 7),
            ("{\"a\" 1}", Unexpected('1'), 5),
            ("{1: 2}", Unexpected('1'), 1),
            ("[1,]", Unexpected(']'), 3),
            ("[1 2]", Unexpected('2'), 3),
            ("01", Unexpected('1'), 1),
            ("-", Eof, 1),
            ("1.x", Unexpected('x'), 2),
            ("1e+", Eof, 3),
            ("\"a\nb\"", Unexpected('\n'), 2),
            ("\"abc", Eof, 4),
            ("tru", Eof, 3),
            ("[1] x", Unexpected('x'), 4),
            ("é", Unexpected('é'), 0),
            ("not json at all", Unexpected('o'), 1),
        ];
        for (text, kind, offset) in cases {
            assert_eq!(err(text), (kind, offset), "{text:?}");
        }
    }

    #[test]
    fn nesting_bomb_is_rejected_not_a_stack_overflow() {
        let arrays = "[".repeat(1_000_000);
        assert_eq!(err(&arrays), (ErrorKind::TooDeep, MAX_DEPTH));
        assert_eq!(err(&"{\"a\":".repeat(1_000_000)).0, ErrorKind::TooDeep);
        // The cap itself still parses.
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep).is_ok());
    }
}
