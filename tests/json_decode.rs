//! The JSON decoder against the decoder it replaced.
//!
//! `rtlb_obs::json::parse` copies each run of unescaped string bytes in
//! one step. The decoder it replaced read strings one character at a
//! time; it is kept below, only as an oracle. On generated documents full
//! of escapes, multibyte scalars and raw control characters, both must
//! return the same value, or fail with the same message at the same byte
//! offset. Every committed JSON document must decode to the same value
//! through both, and survive a render and re-parse unchanged.

use std::path::{Path, PathBuf};

use proptest::collection::vec;
use proptest::prelude::*;
use rtlb::obs::json::{self, ParseError};
use rtlb::obs::Json;

/// The character-at-a-time decoder, as it was before the run-copying
/// one replaced it.
mod oracle {
    use super::{Json, ParseError};

    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
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
        bytes: &'a [u8],
        pos: usize,
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
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(_) => Err(self.err("unexpected character")),
                None => Err(self.err("unexpected end of input")),
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
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
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
                                if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                    return Err(self.err("invalid \\u escape"));
                                }
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("invalid \\u escape"))?;
                                self.pos += 4;
                                let c = char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?;
                                out.push(c);
                            }
                            _ => return Err(self.err("unknown escape")),
                        }
                    }
                    Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                    Some(_) => {
                        // Consume one whole UTF-8 scalar.
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                        let c = s.chars().next().expect("peek saw a byte");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
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
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
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
}

/// Pieces of string content: plain text, every escape (good and bad),
/// multibyte scalars, raw control characters, and the quote and
/// backslash that end a string early or start an escape the next piece
/// completes.
const PIECES: &[&str] = &[
    "a",
    "plain text",
    " ",
    "0123",
    "{}[],:",
    "\\\"",
    "\\\\",
    "\\/",
    "\\b",
    "\\f",
    "\\n",
    "\\r",
    "\\t",
    "\\u00e9",
    "\\u00E9",
    "\\u2014",
    "\\u0041",
    "\\u001f",
    "\\uffff",
    "\\ud834",
    "\\u12g4",
    "\\u+0e9",
    "\\u00",
    "\\u0",
    "\\q",
    "\\",
    "\\u",
    "é",
    "—",
    "𝄞",
    "ü",
    "\u{1}",
    "\n",
    "\t",
    "\u{1f}",
    "\u{7f}",
    "\"",
];

/// A document holding the pieces as string content: a bare string, an
/// object key and value, or array items.
fn document(shape: usize, pieces: &[usize], closed: bool) -> String {
    let body: String = pieces.iter().map(|&i| PIECES[i]).collect();
    let quote = if closed { "\"" } else { "" };
    match shape {
        0 => format!("\"{body}{quote}"),
        1 => format!("{{\"k{body}\": \"{body}{quote}, \"n\": -1.5e2}}"),
        2 => format!("[\"{body}{quote}, null, true, 7]"),
        _ => format!(" {{ \"list\" : [ \"x\", \"{body}{quote} ] }} "),
    }
}

proptest! {
    #[test]
    fn run_copying_decoder_matches_the_char_at_a_time_one(
        docs in vec(
            (0..4usize, vec(0..PIECES.len(), 0..48), any::<bool>()),
            1..24,
        ),
    ) {
        for (shape, pieces, closed) in docs {
            let input = document(shape, &pieces, closed);
            prop_assert_eq!(json::parse(&input), oracle::parse(&input), "input: {:?}", input);
        }
    }
}

/// Each error kind at a known offset, so the generator above cannot
/// drift away from covering them.
#[test]
fn string_errors_keep_their_message_and_offset() {
    for (input, at, message) in [
        ("\"abc", 4, "unterminated string"),
        ("\"é—𝄞", 10, "unterminated string"),
        ("\"ab\u{1}c\"", 3, "raw control character in string"),
        ("\"é\n\"", 3, "raw control character in string"),
        ("\"ab\\", 4, "dangling escape"),
        ("\"ab\\q\"", 5, "unknown escape"),
        ("\"\\u00zz\"", 3, "invalid \\u escape"),
        ("\"\\u+061\"", 3, "invalid \\u escape"),
        ("\"\\u0é\"", 3, "invalid \\u escape"),
        ("\"\\u00\"", 3, "truncated \\u escape"),
        // The four bytes after `\u` cut `—` in two.
        ("\"\\u00—\"", 3, "truncated \\u escape"),
        ("\"\\ud834\"", 7, "invalid \\u code point"),
    ] {
        let expected = Err(ParseError {
            at,
            message: message.to_owned(),
        });
        assert_eq!(json::parse(input), expected, "{input:?}");
        assert_eq!(oracle::parse(input), expected, "{input:?}");
    }
    assert_eq!(
        json::parse("\"a\\u00e9\\u2014𝄞\\n\""),
        Ok(Json::str("aé—𝄞\n"))
    );
}

fn json_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
}

/// Every committed document (the `BENCH_*.json` files and the report and
/// metrics goldens) decodes to the same value as before, and rendering
/// and re-parsing that value gives it back.
#[test]
fn committed_documents_decode_as_before_and_round_trip() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench = json_files(root);
    let goldens = json_files(&root.join("tests/golden"));
    assert!(
        bench.iter().any(|p| p.ends_with("BENCH_sweep.json")),
        "{bench:?}"
    );
    assert!(goldens.len() >= 4, "{goldens:?}");
    for path in bench.iter().chain(&goldens) {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let doc = json::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not decode: {e}", path.display()));
        assert_eq!(
            oracle::parse(&text).as_ref(),
            Ok(&doc),
            "{}",
            path.display()
        );
        for rendered in [doc.render(), doc.pretty()] {
            assert_eq!(
                json::parse(&rendered).as_ref(),
                Ok(&doc),
                "{}",
                path.display()
            );
        }
    }
}
