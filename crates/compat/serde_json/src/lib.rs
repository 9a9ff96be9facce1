//! Offline stand-in for `serde_json`: a JSON printer and parser over the
//! compat `serde` crate's [`Value`] tree. Supports exactly the entry
//! points this workspace uses: [`to_string`], [`to_string_pretty`],
//! [`from_str`], [`to_value`], [`from_value`].
//!
//! Integers round-trip exactly (u64/i64 are never forced through f64);
//! floats print with Rust's shortest round-trip formatting, so
//! parse(print(x)) == x bit-for-bit — the property the snapshot round-trip
//! tests rely on.
//!
//! Like serde_json, the parser refuses input nested 128 or more arrays
//! and objects deep (its default recursion limit), so hostile input
//! cannot exhaust the stack.

use serde::{Deserialize, Serialize};
pub use serde::{Error, Number, Value};

/// Serializes a value into its JSON tree.
pub fn to_value<T: Serialize>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Rebuilds a typed value from a JSON tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    T::from_value(&value)
}

/// Serializes to compact JSON text.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes to 2-space-indented JSON text.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a typed value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    T::from_value(&value)
}

// ---------------------------------------------------------------- printer

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_number(out: &mut String, n: &Number) {
    match *n {
        Number::PosInt(v) => out.push_str(&v.to_string()),
        Number::NegInt(v) => out.push_str(&v.to_string()),
        Number::Float(v) if v.is_finite() => {
            // `{}` is Rust's shortest round-trip form; make sure a float
            // stays a float on re-parse ("1" would re-parse as PosInt and
            // still compare equal through as_f64, but keep it honest).
            let s = v.to_string();
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        // Like serde_json's lossy modes: non-finite floats become null.
        Number::Float(_) => out.push_str("null"),
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

// ----------------------------------------------------------------- parser

/// Nesting depth at which parsing stops, as serde_json's default
/// recursion limit: 127 nested arrays or objects parse, 128 do not.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected {:?} at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{' | b'[') => {
                self.depth += 1;
                if self.depth >= RECURSION_LIMIT {
                    return Err(Error::new(format!(
                        "recursion limit exceeded at offset {}",
                        self.pos
                    )));
                }
                let value = if self.peek() == Some(b'{') {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(Error::new(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at offset {}, got {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at offset {}, got {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err(Error::new("invalid \\u escape"));
                            }
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for this
                            // workspace's label names; reject them plainly.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error::new("invalid \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` at once.
                    // Neither byte occurs inside a multi-byte UTF-8
                    // sequence, so the run ends on a char boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let number = if is_float {
            Number::Float(
                text.parse::<f64>()
                    .map_err(|_| Error::new(format!("invalid number {text:?}")))?,
            )
        } else if text.starts_with('-') {
            Number::NegInt(
                text.parse::<i64>()
                    .map_err(|_| Error::new(format!("invalid number {text:?}")))?,
            )
        } else {
            Number::PosInt(
                text.parse::<u64>()
                    .map_err(|_| Error::new(format!("invalid number {text:?}")))?,
            )
        };
        Ok(Value::Number(number))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::Object(vec![
            ("k".into(), Value::Number(Number::PosInt(3))),
            (
                "xs".into(),
                Value::Array(vec![
                    Value::Number(Number::Float(0.1)),
                    Value::Number(Number::NegInt(-7)),
                    Value::String("a\"b\\c\n".into()),
                    Value::Null,
                    Value::Bool(true),
                ]),
            ),
            ("empty".into(), Value::Array(vec![])),
        ]);
        let compact = to_string(&v).unwrap();
        let back: Value = from_str(&compact).unwrap();
        assert_eq!(v, back);
        let pretty = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        for f in [0.1f64, 1.0 / 3.0, 1e-300, 123456789.123456, 1.0, -0.0] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(f.to_bits(), back.to_bits(), "{f} -> {s} -> {back}");
        }
    }

    #[test]
    fn u64_round_trips_exactly() {
        let v = u64::MAX;
        let s = to_string(&v).unwrap();
        let back: u64 = from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn multibyte_characters_next_to_escapes_round_trip() {
        let parsed: String = from_str(r#""é\"ü\\n😀""#).unwrap();
        assert_eq!(parsed, "é\"ü\\n😀");
        for text in ["é\"ü\\n😀", "\"é", "😀\\", "a\u{8}ü\t", "ü"] {
            let json = to_string(&Value::String(text.into())).unwrap();
            let back: String = from_str(&json).unwrap();
            assert_eq!(back, text, "{json}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 4 MiB: re-validating the rest of the input per character, as a
        // quadratic parser does, takes minutes here even in a release build.
        let text = "abc😀\"".repeat(1 << 19);
        assert_eq!(text.len(), 4 << 20);
        let json = to_string(&Value::String(text.clone())).unwrap();
        let start = std::time::Instant::now();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, text);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("\"unterminated").is_err());
        assert!(from_str::<Value>("{} trailing").is_err());
        assert!(from_str::<Value>(r#""\u+041""#).is_err());
    }

    #[test]
    fn nesting_stops_at_the_recursion_limit() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(RECURSION_LIMIT - 1)).is_ok());
        let error = from_str::<Value>(&nested(RECURSION_LIMIT)).unwrap_err();
        assert!(error.to_string().contains("recursion limit"), "{error}");
        // Far past the limit: an error, not a stack overflow.
        assert!(from_str::<Value>(&nested(100_000)).is_err());
        let object = format!("{}1{}", r#"{"a":"#.repeat(200_000), "}".repeat(200_000));
        assert!(from_str::<Value>(&object).is_err());
    }
}
