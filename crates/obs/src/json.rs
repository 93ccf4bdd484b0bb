//! A minimal JSON value, writer, and parser.
//!
//! The workspace builds offline with no serialization crate, so every
//! document the tools write or read back — reports, traces, batch and
//! shard rows, cache entries, `rtlb-rpc-v1` messages — goes through
//! this module. Objects preserve insertion order, which keeps rendered
//! reports stable for golden tests. The field readers
//! ([`str_field`], [`int_field`], [`nonneg_field`], [`arr_field`]) name
//! the offending field by its path, so a decoder's error doubles as a
//! validator's message.
//!
//! Decoding is linear in the input. The input is a `&str`, so it is
//! already valid UTF-8: a string's runs of unescaped bytes are found
//! eight bytes at a time and copied as they are, with no per-character
//! decoding or re-validation, and a string is allocated once (escapes
//! only shorten it, so its raw length is its capacity). Arrays and
//! objects nest at most [`MAX_DEPTH`] levels deep: the decoder recurses
//! once per level, so a few kilobytes of `[` would otherwise overflow
//! the decoding thread's stack and abort the process.

use std::fmt::Write as _;

/// A JSON document. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integers (covers every count and microsecond value we emit).
    Int(i64),
    /// Floating-point numbers (bench ratios).
    Float(f64),
    /// Strings.
    Str(String),
    /// Arrays.
    Arr(Vec<Json>),
    /// Objects, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object; `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves the value of `key` out of an object, leaving `null` in its
    /// place, so a decoder can keep a large string without copying it.
    /// `None` for a missing key or a non-object.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Object keys in order, if this is an object.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
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
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if !f.is_finite() {
                    out.push_str("null"); // JSON has no Inf/NaN
                } else if f.fract() == 0.0 {
                    // `{}` prints integral floats without a decimal point;
                    // keep them recognizably floating.
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
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
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
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

/// The index of the first byte at or after `from` that ends a run of
/// string bytes standing for themselves: `"`, `\` or a control
/// character; `bytes.len()` if there is none. These stop bytes are
/// ASCII, so a run starts and ends on a `char` boundary.
///
/// Eight bytes are tested at a time: in each word, a byte equal to `"`
/// or `\` or below 0x20 sets its high bit. Borrows can also flag bytes
/// above a match, never below one, so the lowest flagged byte is the
/// first stop byte.
fn run_end(bytes: &[u8], from: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"));
        let quote = word ^ (ONES * u64::from(b'"'));
        let backslash = word ^ (ONES * u64::from(b'\\'));
        let stops = (quote.wrapping_sub(ONES) & !quote)
            | (backslash.wrapping_sub(ONES) & !backslash)
            | (word.wrapping_sub(ONES * 0x20) & !word);
        let stops = stops & HIGHS;
        if stops != 0 {
            return i + (stops.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while let Some(&b) = bytes.get(i) {
        if b == b'"' || b == b'\\' || b < 0x20 {
            return i;
        }
        i += 1;
    }
    bytes.len().min(i)
}

/// The deepest nesting of arrays and objects [`parse`] accepts. Every
/// document the tools write nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// `path.key`, or just `key` at the document root: how the field
/// readers below name a field in their errors.
fn at(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_owned()
    } else {
        format!("{path}.{key}")
    }
}

/// Reads the string field `doc[key]` of the object at `path`.
///
/// # Errors
///
/// A message naming `path.key`: the field is missing or not a string.
pub fn str_field<'a>(doc: &'a Json, path: &str, key: &str) -> Result<&'a str, String> {
    match doc.get(key) {
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(format!("{}: must be a string", at(path, key))),
        None => Err(format!("missing `{}`", at(path, key))),
    }
}

/// Reads the integer field `doc[key]` of the object at `path`.
///
/// # Errors
///
/// A message naming `path.key`: the field is missing or not an integer.
pub fn int_field(doc: &Json, path: &str, key: &str) -> Result<i64, String> {
    doc.get(key)
        .and_then(Json::as_int)
        .ok_or_else(|| format!("{}: must be an integer", at(path, key)))
}

/// Reads the non-negative integer field `doc[key]` of the object at
/// `path`.
///
/// # Errors
///
/// As [`int_field`], or the integer is negative.
pub fn nonneg_field(doc: &Json, path: &str, key: &str) -> Result<u64, String> {
    let v = int_field(doc, path, key)?;
    u64::try_from(v).map_err(|_| format!("{}: must be non-negative, got {v}", at(path, key)))
}

/// Reads the array field `doc[key]` of the object at `path`.
///
/// # Errors
///
/// A message naming `path.key`: the field is missing or not an array.
pub fn arr_field<'a>(doc: &'a Json, path: &str, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(value) => value
            .as_arr()
            .ok_or_else(|| format!("{}: must be an array", at(path, key))),
        None => Err(format!("missing `{}`", at(path, key))),
    }
}

/// Parses a complete JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first violation.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    /// The input; already valid UTF-8, so string runs are copied
    /// without re-checking it.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_owned(),
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Decodes one array or object with `container`, one level deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!(
                "arrays and objects nest deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
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
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.pos = run_end(self.bytes, start);
        if self.peek() == Some(b'"') {
            // No escapes, the common case: one exact copy.
            self.pos += 1;
            return Ok(self.text[start..self.pos - 1].to_owned());
        }
        // Escapes only shorten the text, so its raw length bounds the
        // decoded length and the string is allocated once.
        let mut out = String::with_capacity(self.raw_len(start));
        out.push_str(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return Err(self.err("raw control character in string")),
            }
            let run = self.pos;
            self.pos = run_end(self.bytes, run);
            out.push_str(&self.text[run..self.pos]);
        }
    }

    /// Raw bytes from `start` to the closing quote of the string being
    /// read, or to the end of the input if it has none.
    fn raw_len(&self, start: usize) -> usize {
        let mut i = self.pos;
        loop {
            i = run_end(self.bytes, i);
            match self.bytes.get(i) {
                Some(b'"') => return i - start,
                Some(b'\\') => i += 2,
                Some(_) => i += 1,
                None => return self.bytes.len() - start,
            }
        }
    }

    /// Decodes the escape sequence at the cursor (a backslash) into
    /// `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        self.pos += 1;
        let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
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
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                // Exactly four hex digits: `from_str_radix` alone would
                // also take a sign, as in `\u+061`.
                let code = Some(hex)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| self.err("invalid \\u escape"))?;
                self.pos += 4;
                // Surrogates are rejected rather than paired: nothing we
                // emit uses them.
                let c = char::from_u32(code).ok_or_else(|| self.err("invalid \\u code point"))?;
                out.push(c);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
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
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("invalid integer"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let doc = Json::obj([
            ("name", Json::str("x\"y")),
            ("n", Json::Int(-3)),
            ("list", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Arr(vec![])),
            ("nested", Json::obj([("k", Json::Int(1))])),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"name":"x\"y","n":-3,"list":[true,null],"empty":[],"nested":{"k":1}}"#
        );
        let pretty = doc.pretty();
        assert!(pretty.contains("  \"name\": \"x\\\"y\""));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn roundtrips_through_parse() {
        let doc = Json::obj([
            ("schema", Json::str("rtlb-report-v1")),
            ("counts", Json::Arr(vec![Json::Int(0), Json::Int(12345)])),
            ("f", Json::Float(1.5)),
            ("text", Json::str("tabs\tand\nnewlines — ünïcode")),
        ]);
        for rendered in [doc.render(), doc.pretty()] {
            assert_eq!(parse(&rendered).unwrap(), doc);
        }
    }

    #[test]
    fn preserves_key_order() {
        let doc = Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(doc.keys(), vec!["z", "a"]);
        assert_eq!(parse(&doc.render()).unwrap().keys(), vec!["z", "a"]);
    }

    #[test]
    fn accessors_navigate() {
        let doc = parse(r#"{"a": {"b": [1, "two"]}}"#).unwrap();
        let arr = doc.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_int(), Some(1));
        assert_eq!(arr[1].as_str(), Some("two"));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn run_end_finds_the_first_stop_byte_in_and_across_words() {
        for len in 0..20 {
            let plain = "aé—".repeat(len);
            let bytes = plain.as_bytes();
            assert_eq!(run_end(bytes, 0), bytes.len(), "no stop byte in {plain:?}");
            for stop in ["\"", "\\", "\u{0}", "\u{1f}", "\n"] {
                for at in (0..=bytes.len()).filter(|&i| plain.is_char_boundary(i)) {
                    let text = format!("{}{stop}{}\"", &plain[..at], &plain[at..]);
                    for from in (0..=at).filter(|&i| plain.is_char_boundary(i)) {
                        assert_eq!(run_end(text.as_bytes(), from), at, "{text:?} from {from}");
                    }
                }
            }
        }
        // Near misses, none of them a stop byte: the bytes just above
        // `"`, `\` and the control range, `~` and DEL.
        assert_eq!(run_end(b"\x7f#]  ~\x7f\x7f\x7f!", 0), 10);
    }

    #[test]
    fn take_moves_a_field_out() {
        let mut doc = parse(r#"{"a": "long text", "b": 2}"#).unwrap();
        assert_eq!(doc.take("a"), Some(Json::str("long text")));
        assert_eq!(doc.get("a"), Some(&Json::Null));
        assert_eq!(doc.take("missing"), None);
        assert_eq!(Json::Int(1).take("a"), None);
    }

    #[test]
    fn parses_escapes_and_numbers() {
        assert_eq!(
            parse(r#""A\n\t\\\/""#).unwrap(),
            Json::Str("A\n\t\\/".to_owned())
        );
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse("2.5e2").unwrap(), Json::Float(250.0));
        assert_eq!(parse(" [ ] ").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{ }").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
            "[01x]",
            "\"bad \\q escape\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_before_the_stack_runs_out() {
        let arrays = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        let objects = |levels: usize| "{\"k\":".repeat(levels) + "1" + &"}".repeat(levels);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        let too_deep = |at: usize| {
            Err(ParseError {
                at,
                message: format!("arrays and objects nest deeper than {MAX_DEPTH} levels"),
            })
        };
        assert_eq!(parse(&arrays(MAX_DEPTH + 1)), too_deep(MAX_DEPTH));
        assert_eq!(parse(&objects(MAX_DEPTH + 1)), too_deep(5 * MAX_DEPTH));
        // A megabyte of `[` is refused at the same byte, not by a stack
        // overflow.
        assert_eq!(parse(&"[".repeat(1 << 20)), too_deep(MAX_DEPTH));
    }

    #[test]
    fn float_rendering_stays_parseable() {
        for f in [0.0, -1.25, 8.8, 123456.75] {
            let rendered = Json::Float(f).render();
            match parse(&rendered).unwrap() {
                Json::Float(g) => assert_eq!(g, f),
                other => panic!("{rendered} parsed as {other:?}"),
            }
        }
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }
}
