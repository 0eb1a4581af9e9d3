//! Minimal JSON value, recursive-descent parser, and emit helpers — the
//! one JSON reader under `crates/`. It serves the service's line-delimited
//! wire protocol, `ooc-bench check` (the JSONL stream validator) and
//! `ooc-bench kernels --check`; the JSONL writer in [`crate::obs`] shares
//! its string escaping. Hand-rolled because the payloads are small flat
//! objects and `ooc-core` stays dependency-free.
//!
//! Input may be hostile (`ooc-serve` parses what a socket sent), so the
//! parser never panics and nesting is capped at [`MAX_DEPTH`]: recursive
//! descent on a 2 MiB connection thread would otherwise overflow its
//! stack on a few kilobytes of `[`.

use std::collections::BTreeMap;

/// Deepest array/object nesting [`Value::parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer (the common case for ids and counters).
    Int(u64),
    /// Any other number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup (`None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }
    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    /// Unsigned-integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }
    /// Numeric view (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
    /// Parse one JSON document (strict: no trailing bytes).
    pub fn parse(input: &str) -> Result<Value, String> {
        Parser::parse(input)
    }
}

/// A required string field of an object.
pub fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

/// A required non-negative integer field of an object.
pub fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn parse(input: &'a str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Copy a run of plain bytes (UTF-8 passes through).
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string".to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("invalid number '{text}'"))
    }
}

// ---------------------------------------------------------------------------
// Emit helpers — string building, mirroring ooc_core::obs's JSONL writer.
// ---------------------------------------------------------------------------

/// Escape a string for embedding inside JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// [`escape`], appending to `out` (the JSONL writer's per-event path).
pub fn escape_into(s: &str, out: &mut String) {
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
}

/// Format an `f64` as JSON (non-finite values become `null` — JSON has no
/// NaN/Infinity and a likelihood that isn't finite is a reportable state,
/// not a protocol error).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Format a slice of `f64` as a JSON array.
pub fn fmt_f64_array(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|v| fmt_f64(*v)).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_request_shapes() {
        let v = Value::parse(
            r#"{"op":"submit","tenant":"a/b","dataset":{"n_taxa":16,"seed":7},
               "job":{"kind":"evaluate-batch","roots":[0,3,5]},"x":-1.5e2}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("submit"));
        assert_eq!(
            v.get("dataset")
                .and_then(|d| d.get("n_taxa"))
                .and_then(Value::as_u64),
            Some(16)
        );
        let roots = v.get("job").and_then(|j| j.get("roots")).unwrap();
        assert_eq!(roots.as_array().unwrap().len(), 3);
        assert_eq!(v.get("x"), Some(&Value::Float(-150.0)));
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "line\none\t\"quoted\" back\\slash \u{0001}";
        let doc = format!("{{\"s\":\"{}\"}}", escape(nasty));
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn fmt_f64_is_json_safe() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        let lnl = -2137.4242;
        assert_eq!(Value::parse(&fmt_f64(lnl)).unwrap(), Value::Float(lnl));
        assert_eq!(fmt_f64_array(&[1.0, -2.5]), "[1.0,-2.5]");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "{\"a\":1} extra",
            "nul",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numeric_views() {
        let v = Value::parse(r#"{"n":3,"x":0.5,"z":null,"s":"3"}"#).unwrap();
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(0.5));
        assert_eq!(v.get("x").and_then(Value::as_u64), None);
        assert_eq!(v.get("z"), Some(&Value::Null));
        assert_eq!(v.get("s").and_then(Value::as_f64), None);
        assert!(Value::parse(r#"{"miss_rate":NaN}"#).is_err());
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(Value::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nest("[", "]", MAX_DEPTH + 1)).is_err());
        assert!(Value::parse(&nest("{\"a\":", "}", MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nest("{\"a\":", "}", MAX_DEPTH + 1)).is_err());
        // Regression: a megabyte of openers used to recurse once per byte
        // and overflow the (2 MiB) stack of the thread parsing it.
        for opener in ["[", "{\"a\":"] {
            let hostile = opener.repeat((1 << 20) / opener.len());
            let verdict = std::thread::spawn(move || Value::parse(&hostile))
                .join()
                .expect("parser must not overflow a default-size thread stack");
            assert!(verdict.unwrap_err().contains("nesting deeper"));
        }
    }
}
