//! The workspace's one JSON reader and string escaper.
//!
//! A minimal recursive-descent parser, enough of RFC 8259 to read what the
//! workspace itself writes — the `BENCH_*.json` files, trace and profile
//! JSONL lines, the metrics snapshot — with no external dependencies.
//! Numbers keep their checked source text, so a 64-bit trace id survives
//! exactly ([`Json::as_u64`]) where an `f64` would round it.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as its source text (checked against the JSON number
    /// grammar); read it with [`Json::as_u64`] or [`Json::as_f64`].
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys sorted (BENCH files never rely on key order).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key` of an object, if this is an object and has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number (rounded to the nearest
    /// `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The exact value, if this is a number spelled as a non-negative
    /// integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is not.
///
/// # Errors
///
/// Returns the first syntax error with its byte offset.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut parser = Parser { input, pos: 0 };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != input.len() {
        return Err(parser.error("trailing content after the document"));
    }
    Ok(value)
}

/// Escapes `s` for embedding in a JSON string literal (no surrounding
/// quotes): `"`, `\` and every control character.  The one escaper of the
/// workspace's JSON writers.
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// `s` as a quoted JSON string literal, escaped by [`escape_into`].
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.input[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    /// Consumes a run of digits; `false` when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut ok = if self.peek() == Some(b'0') {
            self.pos += 1;
            true
        } else {
            self.digits()
        };
        if ok && self.peek() == Some(b'.') {
            self.pos += 1;
            ok = self.digits();
        }
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok = self.digits();
        }
        if !ok {
            return Err(self.error("bad number"));
        }
        Ok(Json::Number(self.input[start..self.pos].to_owned()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .input
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            // Surrogate pairs never appear in harness output;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash.  Both
                    // are ASCII, so the run ends on a char boundary of the
                    // `&str` input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.input[start..self.pos]);
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_shape() {
        let doc = r#"{
  "harness": "satbench",
  "smoke": false,
  "runs": [
    {"preset": "chaff", "instance": "php-7-6", "time_s": 0.123456,
     "conflicts": 1000, "conflicts_per_sec": 8100.5,
     "metrics": {"engine_conflicts_total{preset=\"chaff\"}": 1000}}
  ]
}"#;
        let json = parse(doc).expect("parses");
        assert_eq!(json.get("harness").unwrap().as_str(), Some("satbench"));
        assert_eq!(json.get("smoke"), Some(&Json::Bool(false)));
        let runs = json.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.get("conflicts").unwrap().as_f64(), Some(1000.0));
        let metrics = run.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(
            metrics["engine_conflicts_total{preset=\"chaff\"}"].as_u64(),
            Some(1000)
        );
    }

    #[test]
    fn escapes_and_numbers_round_trip() {
        let json = parse(r#"["a\"b\\c\nd", -1.5e3, 0.25, null, true]"#).unwrap();
        let items = json.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("a\"b\\c\nd"));
        assert_eq!(items[1].as_f64(), Some(-1500.0));
        assert_eq!(items[2].as_f64(), Some(0.25));
        assert_eq!(items[3], Json::Null);
        assert_eq!(items[4], Json::Bool(true));
    }

    #[test]
    fn integers_beyond_f64_precision_stay_exact() {
        // A velvc trace id (wall-clock nanoseconds) and u64::MAX: an f64
        // would round both.
        let json = parse("[1760000000123456789, 18446744073709551615, 1.5, -3]").unwrap();
        let items = json.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(1_760_000_000_123_456_789));
        assert_eq!(items[1].as_u64(), Some(u64::MAX));
        assert_eq!(items[2].as_u64(), None, "not an integer");
        assert_eq!(items[3].as_u64(), None, "negative");
        assert_eq!(items[3].as_f64(), Some(-3.0));
    }

    #[test]
    fn escaped_strings_reparse() {
        let original = "q\"u\\o\nte\u{1}\t\u{1f} \u{e9}";
        let doc = quoted(original);
        assert!(
            !doc.contains('\u{1}'),
            "control characters are escaped: {doc}"
        );
        assert_eq!(parse(&doc).unwrap().as_str(), Some(original));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("\"unterminated").is_err());
        for bad in ["01", "1.", ".5", "-", "+1", "1e", "1e+", "--1", "1.2.3"] {
            assert!(parse(bad).is_err(), "`{bad}` is not a JSON number");
        }
    }
}
