//! A minimal JSON value, writer, and parser.
//!
//! Replaces `serde_json` for the workspace's needs: experiment-report
//! emission and round-tripping (`run_all` aggregates one JSON line per
//! report table). Field order is preserved, numbers are `f64`, and the
//! writer emits compact one-line documents.
//!
//! [`parse`] builds its tree on [`Cursor`], the one tokenizer, which
//! typed readers also walk directly when a tree would be waste.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, preserving insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Member lookup, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serialises to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => write_number(*n, out),
            Value::String(s) => write_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; emit null like serde_json's lossy modes.
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_negative() {
        // The integer cast below would drop the sign of -0.0.
        out.push_str("-0");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a human-readable message (with byte offset) on malformed
/// input or trailing garbage.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut cursor = Cursor::new(input);
    cursor.skip_ws();
    let v = cursor.value()?;
    cursor.finish()?;
    Ok(v)
}

/// Deepest container nesting the parser follows. Each level recurses,
/// so an unbounded `[[[[…` frame would overflow a worker's stack; no
/// document the workspace writes comes near this.
const MAX_DEPTH: usize = 128;

/// The one JSON tokenizer: whitespace, literals, strings with escapes,
/// number tokens, containers and skip-one-value.
///
/// [`parse`] builds a [`Value`] tree on it, and typed readers (the serve
/// protocol's request decoder) walk a document with it directly, so both
/// accept exactly the same grammar.
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Cursor {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// The next byte, if any.
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips JSON whitespace.
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips trailing whitespace and requires the end of the input.
    ///
    /// # Errors
    ///
    /// Names the byte where trailing characters start.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing characters at byte {}", self.pos))
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Consumes the literal `word` (`null`, `true`, `false`).
    ///
    /// # Errors
    ///
    /// When the input does not continue with `word`.
    pub fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Reads one value into a tree.
    ///
    /// # Errors
    ///
    /// On any syntax error inside the value.
    pub fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|c| c.value().map(|v| items.push(v)))?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.object(|key, c| c.value().map(|v| members.push((key.into_owned(), v))))?;
                Ok(Value::Object(members))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(Value::Number),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Consumes one value without building it.
    ///
    /// # Errors
    ///
    /// On any syntax error inside the value.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.array(Cursor::skip_value),
            Some(b'{') => self.object(|_, c| c.skip_value()),
            _ => self.value().map(drop),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ))
        } else {
            Ok(())
        }
    }

    /// Reads `[`, then calls `element` with the cursor on each element's
    /// first byte (the callback must consume exactly that element), then
    /// `]`.
    ///
    /// # Errors
    ///
    /// On a syntax error, or the first error `element` returns.
    pub fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'[')?;
        self.enter()?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Reads `{`, then calls `member` with each key and the cursor on
    /// the first byte of its value (the callback must consume exactly
    /// that value), then `}`. Keys arrive in document order, duplicates
    /// included.
    ///
    /// # Errors
    ///
    /// On a syntax error, or the first error `member` returns.
    pub fn object(
        &mut self,
        mut member: impl FnMut(Cow<'a, str>, &mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.enter()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(key, self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// Reads one string, borrowing it from the input when it holds no
    /// escape.
    ///
    /// # Errors
    ///
    /// On an unterminated string or a bad escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        match bytes[start..].iter().position(|&b| b == b'"' || b == b'\\') {
            Some(n) if bytes[start + n] == b'"' => {
                self.pos = start + n + 1;
                return Ok(Cow::Borrowed(&self.text[start..start + n]));
            }
            Some(n) => self.pos = start + n,
            None => return Err("unterminated string".to_string()),
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            out.push(
                                char::from_u32(code).ok_or("\\u escape is not a scalar value")?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // One UTF-8 scalar; `pos` only ever stops on a
                    // character boundary of the `&str` input.
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads one number token: an optional `-` then digits, `.`, `e`,
    /// `E`, `+` and `-`, parsed by `str::parse::<f64>`. A token of at
    /// most 15 digits and nothing else is below 2^53, so accumulating it
    /// in a `u64` is exact and gives the same bits without the general
    /// parser.
    ///
    /// # Errors
    ///
    /// When the token is not a number.
    #[inline]
    pub fn number(&mut self) -> Result<f64, String> {
        match integer_token(&self.text.as_bytes()[self.pos..]) {
            Some((len, value)) => {
                self.pos += len;
                Ok(value)
            }
            None => self.parsed_number(),
        }
    }

    /// Reads the number at an array element's start with
    /// [`Cursor::number`], then every `,` that is directly followed by an
    /// integer token together with that integer, pushing each value onto
    /// `out`. It stops before the first other `,` or byte, where
    /// [`Cursor::array`] goes on, so an array read this way accepts the
    /// same text as one read element by element; a run of compact
    /// integers just never leaves this loop.
    ///
    /// # Errors
    ///
    /// When the first token is not a number.
    pub fn number_run(&mut self, out: &mut Vec<f64>) -> Result<(), String> {
        out.push(self.number()?);
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        while bytes.get(pos) == Some(&b',') {
            let Some((len, value)) = integer_token(&bytes[pos + 1..]) else {
                break;
            };
            out.push(value);
            pos += 1 + len;
        }
        self.pos = pos;
        Ok(())
    }

    /// The general path of [`Cursor::number`].
    #[cold]
    fn parsed_number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while self.peek().is_some_and(number_byte) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

/// The fast path of [`Cursor::number`]: when `bytes` starts with an
/// optional `-` and 1 to 15 digits that no other number byte follows,
/// the token's length and value. Such a token is below 2^53, so the
/// `u64` accumulation is exact and its value bit-equal to
/// `str::parse::<f64>`.
#[inline]
fn integer_token(bytes: &[u8]) -> Option<(usize, f64)> {
    let negative = bytes.first() == Some(&b'-');
    let mut end = usize::from(negative);
    let mut int = 0u64;
    while let Some(&c @ b'0'..=b'9') = bytes.get(end) {
        // Past 15 digits `int` is discarded, so it may wrap.
        int = int.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
        end += 1;
    }
    let digits = end - usize::from(negative);
    if !(1..=15).contains(&digits) || bytes.get(end).copied().is_some_and(number_byte) {
        return None;
    }
    // The sign as a bit, not a branch: sample signs are random.
    let sign = u64::from(negative) << 63;
    Some((end, f64::from_bits((int as f64).to_bits() | sign)))
}

/// Whether `c` continues a number token.
fn number_byte(c: u8) -> bool {
    c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_nested_document() {
        let doc = Value::Object(vec![
            ("title".to_string(), Value::String("Fig 10(b)".to_string())),
            ("ok".to_string(), Value::Bool(true)),
            ("eer".to_string(), Value::Number(1.28)),
            ("count".to_string(), Value::Number(42.0)),
            (
                "rows".to_string(),
                Value::Array(vec![Value::Null, Value::String("a\"b\\c\n".to_string())]),
            ),
        ]);
        let text = doc.to_json();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_are_written_without_decimal_point() {
        assert_eq!(Value::Number(42.0).to_json(), "42");
        assert_eq!(Value::Number(-3.0).to_json(), "-3");
        assert_eq!(Value::Number(1.5).to_json(), "1.5");
    }

    #[test]
    fn signed_zeros_survive_a_round_trip() {
        for (zero, text) in [(0.0f64, "0"), (-0.0, "-0")] {
            assert_eq!(Value::Number(zero).to_json(), text);
            let back = parse(text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), zero.to_bits(), "{text}");
        }
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , -2.5e1 ] , \"b\" : \"x\\u0041\\n\" } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-25.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("xA\n"));
    }

    #[test]
    fn malformed_inputs_are_errors() {
        for bad in [
            "", "not json", "{", "[1,", "{\"a\":}", "\"open", "1 2", "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn object_get_finds_members_in_order() {
        let v = parse("{\"x\":1,\"y\":2}").unwrap();
        assert_eq!(v.get("y").unwrap().as_f64(), Some(2.0));
        assert!(v.get("z").is_none());
    }

    #[test]
    fn integer_fast_path_is_bit_equal_to_str_parse() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut tokens: Vec<String> = [
            "0",
            "-0",
            "000",
            "-000",
            "7",
            "-7",
            "999999999999999",
            "-999999999999999",
            "1000000000000000",
            "9007199254740993",
            "12345678901234567890123",
            "1.5",
            "-0.0",
            "1e3",
            "-2E-2",
            "0.1",
            "1e400",
            "-1e-400",
        ]
        .iter()
        .map(|t| t.to_string())
        .collect();
        for _ in 0..2000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let digits = 1 + (rng % 18) as usize;
            let text = format!("{:018}", rng % 1_000_000_000_000_000_000);
            let sign = if rng & 1 == 0 { "" } else { "-" };
            tokens.push(format!("{sign}{}", &text[18 - digits..]));
        }
        for token in &tokens {
            let expected = token.parse::<f64>().unwrap();
            // Alone and followed by what may end a token.
            for tail in ["", ",", "]", ",1234567", "]        ", " ,-9999999999"] {
                let text = format!("{token}{tail}");
                let mut cursor = Cursor::new(&text);
                let got = cursor.number().unwrap();
                assert_eq!(got.to_bits(), expected.to_bits(), "{text}");
                assert_eq!(cursor.pos, token.len(), "{text}");
            }
        }
        for bad in ["-", "--5", "1-2", "1e", "-.", "1.2.3", "12345-", "-1234e"] {
            for tail in ["", ",0000000"] {
                let text = format!("{bad}{tail}");
                assert!(Cursor::new(&text).number().is_err(), "{text}");
            }
        }
    }

    #[test]
    fn number_runs_read_what_element_by_element_reads() {
        let read = |text: &str, run: bool| {
            let mut out = Vec::new();
            let mut cursor = Cursor::new(text);
            let result = cursor.array(|c| {
                if run {
                    c.number_run(&mut out)
                } else {
                    c.number().map(|v| out.push(v))
                }
            });
            (
                result.map(|()| cursor.pos),
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        };
        for text in [
            "[1,2,3]",
            "[-0,17,-999999999999999,1000000000000000,2]",
            "[1, 2 ,3,4.5,6,7e1,8]",
            "[1,2,,3]",
            "[1,2x]",
            "[1,2-3,4]",
            "[1,2",
            "[1,2,]",
            "[3,-,4]",
            "[]",
            "[ 5 ]",
        ] {
            assert_eq!(read(text, true), read(text, false), "{text}");
        }
    }

    #[test]
    fn skip_value_consumes_exactly_what_value_reads() {
        let text = r#"{"a":[1,{"b":"x\"y"},null,true,-2.5e3],"c":{}} ,7"#;
        let mut skipped = Cursor::new(text);
        skipped.skip_value().unwrap();
        let mut built = Cursor::new(text);
        built.value().unwrap();
        assert_eq!(skipped.pos, built.pos);
        assert_eq!(&text[skipped.pos..], " ,7");
        for bad in ["[1,]", "{\"a\"}", "[\"open", "{\"a\":1,}"] {
            assert!(Cursor::new(bad).skip_value().is_err(), "{bad}");
        }
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut cursor = Cursor::new("\"plain\" \"esc\\u0041\"");
        assert!(matches!(cursor.string().unwrap(), Cow::Borrowed("plain")));
        cursor.skip_ws();
        assert_eq!(cursor.string().unwrap(), "escA");
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        // A frame-sized run of openers fails fast instead of recursing.
        assert!(parse(&"[{\"a\":".repeat(1 << 16)).is_err());
    }

    #[test]
    fn non_finite_numbers_serialise_as_null() {
        assert_eq!(Value::Number(f64::NAN).to_json(), "null");
        assert_eq!(Value::Number(f64::INFINITY).to_json(), "null");
    }
}
