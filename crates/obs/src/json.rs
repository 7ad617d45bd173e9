//! A minimal JSON parser and the Chrome trace-event schema check.
//!
//! The workspace is zero-dependency, so the schema validation the
//! acceptance tests need ("Perfetto accepts the trace file") is done
//! with an in-tree recursive-descent parser: full JSON syntax, plus a
//! structural check of the trace-event fields Perfetto's importer
//! requires (`name`/`ph` strings, numeric `ts`/`pid`/`tid`, and a
//! numeric `dur` on every complete `"X"` event).

use std::collections::BTreeMap;

/// A parsed JSON value. Object keys keep first-wins semantics and are
/// stored sorted (a `BTreeMap`), which is all the validator needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string literal (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The object map, if this value is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this value is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this value is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses `text` as a single JSON document.
///
/// # Errors
///
/// Returns a message with a byte offset on any syntax error or
/// trailing garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| format!("unexpected end of input at byte {}", self.pos))
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            b => Err(format!(
                "unexpected character '{}' at byte {}",
                char::from(b),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            if self.peek()? != b'"' {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            map.entry(key).or_insert(value);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
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
                                .ok_or("truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by our
                            // exporter; reject them for simplicity.
                            let c = char::from_u32(code)
                                .ok_or(format!("surrogate \\u escape at byte {}", self.pos))?;
                            out.push(c);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Re-sync to the char boundary for multi-byte
                    // UTF-8 (input is a &str, so this is safe).
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{s}' at byte {start}"))
    }
}

/// Validates `text` as a Chrome trace-event file of the shape this
/// crate emits and Perfetto imports: a root object with a
/// `traceEvents` array whose entries each carry a string `name` and
/// `ph`, numeric `ts`, `pid` and `tid`, and — for complete (`"X"`)
/// events — a non-negative numeric `dur`.
///
/// # Errors
///
/// Returns a description of the first schema violation found.
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let root = parse(text)?;
    let obj = root
        .as_obj()
        .ok_or("trace root must be a JSON object".to_string())?;
    let events = obj
        .get("traceEvents")
        .ok_or("missing traceEvents".to_string())?
        .as_arr()
        .ok_or("traceEvents must be an array".to_string())?;
    for (i, ev) in events.iter().enumerate() {
        let ev = ev.as_obj().ok_or(format!("event {i} is not an object"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing string ph"))?;
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing string name"))?;
        for field in ["ts", "pid", "tid"] {
            ev.get(field)
                .and_then(Json::as_num)
                .ok_or(format!("event {i}: missing numeric {field}"))?;
        }
        if ph == "X" {
            let dur = ev
                .get("dur")
                .and_then(Json::as_num)
                .ok_or(format!("event {i}: X event missing numeric dur"))?;
            if dur < 0.0 {
                return Err(format!("event {i}: negative dur"));
            }
        }
        if ph == "C" {
            let args = ev
                .get("args")
                .and_then(Json::as_obj)
                .ok_or(format!("event {i}: C event missing args object"))?;
            if !args.values().all(|v| v.as_num().is_some()) {
                return Err(format!("event {i}: C event args must be numeric"));
            }
        }
    }
    Ok(())
}

/// Escapes `s` for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse(r#""a\nbA""#).unwrap(), Json::Str("a\nbA".to_string()));
        let v = parse(r#"{"a": [1, 2, {"b": "c"}], "d": false}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj["a"].as_arr().unwrap().len(), 3);
        assert_eq!(obj["d"], Json::Bool(false));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nul", "1 2", "\"x"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(
            parse("\"héllo → wörld\"").unwrap(),
            Json::Str("héllo → wörld".to_string())
        );
    }

    #[test]
    fn validator_accepts_minimal_trace() {
        let ok = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0,"dur":5,"pid":0,"tid":0},
            {"name":"c","ph":"C","ts":0,"pid":0,"tid":0,"args":{"value":3}}
        ]}"#;
        validate_chrome_trace(ok).unwrap();
    }

    #[test]
    fn validator_rejects_broken_events() {
        let missing_dur = r#"{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(missing_dur).is_err());
        let no_events = r#"{"other":[]}"#;
        assert!(validate_chrome_trace(no_events).is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), Json::Str(nasty.to_string()));
    }
}
