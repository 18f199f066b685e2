//! The workspace's one JSON reader.
//!
//! Every JSON document the workspace reads — `nice-trace-v1` files,
//! `nice-dist-v1` frames, the bench gate's baseline, and whatever CI pipes
//! through `nice validate-json` — goes through [`parse`]. `nice-mc` sits
//! below the crates that could otherwise supply a parser, and this offline
//! build has no serde, so the reader is hand-rolled. It is
//!
//! * **strict**: exactly the RFC 8259 grammar, so `01`, `1.`, `1e`,
//!   trailing commas, unescaped control characters and trailing garbage
//!   are errors;
//! * **linear** and light on allocation: numbers, and strings without
//!   escapes, borrow their text from the input;
//! * **depth-bounded**: nesting deeper than [`MAX_DEPTH`] is an error, so
//!   hostile input cannot overflow the stack.
//!
//! Numbers keep their raw text, so `u64` values round-trip exactly (no
//! `f64` detour).

use std::borrow::Cow;

/// The deepest array/object nesting [`parse`] accepts. The workspace's own
/// documents nest fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value, borrowing from the parsed text.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text for exact integer reads.
    Num(&'a str),
    /// A string (escapes decoded).
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if this is a non-negative integer
    /// that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A keyed-lookup view, if this is an object.
    pub fn as_obj(&self) -> Option<ObjRef<'_>> {
        match self {
            Json::Obj(pairs) => Some(ObjRef { pairs }),
            _ => None,
        }
    }
}

/// A borrowed view of an object with keyed lookup and typed, required
/// field getters. The getters' errors name the key, so decoders only add
/// the context (which step, which frame) around them.
#[derive(Clone, Copy)]
pub struct ObjRef<'a> {
    pairs: &'a [(Cow<'a, str>, Json<'a>)],
}

impl<'a> ObjRef<'a> {
    /// The value stored under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&'a Json<'a>> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value stored under `key`; missing is an error.
    pub fn value(&self, key: &str) -> Result<&'a Json<'a>, String> {
        self.get(key).ok_or_else(|| format!("missing \"{key}\""))
    }

    /// The string stored under `key`.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        self.value(key)?
            .as_str()
            .ok_or_else(|| format!("\"{key}\" must be a string"))
    }

    /// The boolean stored under `key`.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.value(key)?
            .as_bool()
            .ok_or_else(|| format!("\"{key}\" must be a boolean"))
    }

    /// The non-negative integer stored under `key`, converted to `T`. A
    /// value `T` cannot hold is an error, never a truncation.
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let n = self
            .value(key)?
            .as_u64()
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer below 2^64"))?;
        T::try_from(n).map_err(|_| format!("\"{key}\" = {n} is out of range"))
    }
}

/// Parses exactly one JSON value (surrounding whitespace allowed, nothing
/// else). Errors carry the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json<'_>, String> {
    let mut p = Parser { src: input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> String {
        format!("invalid JSON at byte {}: {}", self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    /// Parses one value; `depth` counts the arrays and objects around it.
    fn value(&mut self, depth: usize) -> Result<Json<'a>, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json<'a>) -> Result<Json<'a>, String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// Consumes a run of ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected a digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected a digit in exponent"));
            }
        }
        Ok(Json::Num(&self.src[start..self.pos]))
    }

    /// Parses a string. One without escapes borrows its text.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut decoded = String::new();
        loop {
            // The run up to the next quote, backslash or control byte.
            // Those bytes are ASCII, so the run ends on a char boundary.
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
            {
                self.pos += 1;
            }
            let text = &self.src[run..self.pos];
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    // Every escape pushes a char, so empty means none.
                    if decoded.is_empty() {
                        return Ok(Cow::Borrowed(text));
                    }
                    decoded.push_str(text);
                    return Ok(Cow::Owned(decoded));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    decoded.push_str(text);
                    decoded.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode();
            }
            _ => return Err(self.err("bad escape sequence")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes the `XXXX` of a `\uXXXX` escape, joining a UTF-16 surrogate
    /// pair when a low-surrogate escape follows a high one. A lone
    /// surrogate decodes to U+FFFD.
    fn unicode(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) && self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
            let after_high = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(code).expect("a surrogate pair is a scalar value"));
            }
            self.pos = after_high;
        }
        Ok(char::from_u32(high).unwrap_or('\u{FFFD}'))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code << 4 | digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn object(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_capped_not_recursed_into_overflow() {
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        assert!(parse(&nested(200_000)).is_err());
        let objects = "{\"a\":".repeat(200_000) + "1" + &"}".repeat(200_000);
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn strings_decode_escapes_and_surrogate_pairs() {
        let s = |doc: &str| parse(doc).expect(doc).as_str().map(str::to_string);
        assert_eq!(s(r#""a\"b\\c\/d\n\t""#).as_deref(), Some("a\"b\\c/d\n\t"));
        assert_eq!(s(r#""é é""#).as_deref(), Some("é é"));
        assert_eq!(s(r#""😀""#).as_deref(), Some("😀"));
        // Lone surrogates (either half, or a high one followed by a
        // non-surrogate escape) become U+FFFD; the next escape survives.
        assert_eq!(s(r#""\ud83d""#).as_deref(), Some("\u{FFFD}"));
        assert_eq!(s(r#""\ude00x""#).as_deref(), Some("\u{FFFD}x"));
        assert_eq!(s(r#""\ud83dA""#).as_deref(), Some("\u{FFFD}A"));
        assert!(parse(r#""\ud83d\u00""#).is_err());
    }

    #[test]
    fn typed_getters_reject_missing_mistyped_and_out_of_range_fields() {
        let doc = parse(r#"{"n": 70000, "s": "x", "b": true, "neg": -1, "f": 1.5}"#).unwrap();
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj.int::<u32>("n"), Ok(70000));
        let err = obj.int::<u16>("n").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        assert!(obj.int::<u64>("neg").is_err());
        assert!(obj.int::<u64>("f").is_err());
        assert!(obj.int::<u64>("s").is_err());
        assert_eq!(obj.str("s"), Ok("x"));
        assert!(obj.str("b").is_err());
        assert_eq!(obj.bool("b"), Ok(true));
        assert!(obj.bool("n").is_err());
        assert_eq!(obj.value("nope").unwrap_err(), "missing \"nope\"");
    }
}
