//! A dependency-free JSON subset: the interchange layer under
//! `metrics.json`.
//!
//! The build environment vendors no serde, so this module hand-rolls the
//! little JSON the metrics pipeline needs: objects, arrays, strings,
//! **unsigned integers only** (every metric is a count or a nanosecond
//! value; floats would reintroduce platform-dependent formatting and
//! break the byte-identity guarantee shard merging relies on), plus
//! `true`/`false`/`null` for forward compatibility. Parsing is strict —
//! anything that is not JSON is a descriptive `Err`, and a number with a
//! sign, a fraction or an exponent is a [`Value::Dec`] kept as written,
//! which no metric reader accepts in place of an integer: never a silent
//! coercion. (Documents other tools write — the committed `BENCH*.json`
//! — carry such numbers, and a tier-1 test parses them here.)

use std::fmt::Write as _;

/// A parsed JSON value (unsigned-integer subset — see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An unsigned integer (the only number form metrics use).
    Num(u128),
    /// Any other number, as written (see the module docs).
    Dec(String),
    /// A string.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (serialization sorts keys; parsing
    /// preserves whatever order the document had).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a number that fits.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `u128`, if it is a number.
    #[must_use]
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document of the supported subset.
///
/// # Errors
///
/// A message naming the byte offset and what was expected.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            char::from(want),
            pos,
            bytes.get(*pos).map(|&b| char::from(b)),
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b'0'..=b'9' | b'-') => parse_num(bytes, pos),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        other => Err(format!(
            "expected a value at byte {pos} (found {:?})",
            other.map(|&b| char::from(b))
        )),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected {lit:?} at byte {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == from {
            return Err(format!("expected a digit at byte {from}"));
        }
        Ok(())
    };
    *pos += usize::from(bytes[*pos] == b'-');
    digits(pos)?;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        digits(pos)?;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        *pos += usize::from(matches!(bytes.get(*pos), Some(b'+' | b'-')));
        digits(pos)?;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("a number is ASCII");
    if text.bytes().all(|b| b.is_ascii_digit()) {
        text.parse::<u128>()
            .map(Value::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    } else {
        Ok(Value::Dec(text.to_owned()))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escape = bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match escape {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        *pos += 4;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("\\u{code:04x} is not a scalar value"))?,
                        );
                    }
                    other => {
                        return Err(format!("unsupported escape \\{}", char::from(*other)));
                    }
                }
            }
            Some(_) => {
                // Consume one (possibly multi-byte) UTF-8 character.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().expect("nonempty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {pos} (found {:?})",
                    other.map(|&b| char::from(b))
                ));
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {pos} (found {:?})",
                    other.map(|&b| char::from(b))
                ));
            }
        }
    }
}

/// Checks a parsed document's `"schema"` tag against the expected value —
/// the shared guard every canonical-document parser (`metrics.json`,
/// `coverage.json`) runs before reading any field.
///
/// # Errors
///
/// A message naming the found tag (or its absence) when it is not `want`.
pub fn expect_schema(doc: &Value, want: &str) -> Result<(), String> {
    match doc.get("schema") {
        Some(Value::Str(s)) if s == want => Ok(()),
        other => Err(format!("unsupported schema (want {want:?}): {other:?}")),
    }
}

/// Appends `text` as a JSON string literal (with the escapes the parser
/// understands).
pub fn write_str(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_metrics_shapes() {
        let doc = r#"{"seeds": 12, "hist": {"buckets": [[3, 2], [17, 1]], "max": 900},
                      "labels": ["a", "b\n"], "flag": true, "none": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("seeds").and_then(Value::as_u64), Some(12));
        let hist = v.get("hist").unwrap();
        let buckets = hist.get("buckets").and_then(Value::as_arr).unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].as_arr().unwrap()[0].as_u64(), Some(3));
        assert_eq!(
            v.get("labels").and_then(Value::as_arr).unwrap()[1],
            Value::Str("b\n".into())
        );
        assert_eq!(v.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(v.get("none"), Some(&Value::Null));
    }

    #[test]
    fn rejects_what_metrics_never_emit() {
        // Signed, fractional and exponent numbers parse, but not as
        // anything a metric reader takes for an integer.
        for text in ["-3", "1.5", "2e9", "-0.25E-3"] {
            let value = parse(text).unwrap();
            assert_eq!(value, Value::Dec(text.into()));
            assert_eq!((value.as_u64(), value.as_u128()), (None, None));
        }
        let set = r#"{"counters": {"sent": 1.0}, "histograms": {}}"#;
        let err = crate::MetricSet::from_json(set).unwrap_err();
        assert!(err.contains("not a u64"), "{err}");
        for text in ["-", "1.", ".5", "1e", "1e+", "--1"] {
            assert!(parse(text).is_err(), "{text}");
        }
        assert!(parse("{\"a\": 1} junk").unwrap_err().contains("trailing"));
        assert!(parse("{\"a\"").is_err());
        assert!(parse("[1, ]").is_err());
    }

    #[test]
    fn u128_sums_survive() {
        let big = u128::from(u64::MAX) * 7;
        let v = parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u128(), Some(big));
    }

    #[test]
    fn expect_schema_guards_documents() {
        let doc = parse(r#"{"schema": "caa-metrics/v1", "seeds": 1}"#).unwrap();
        assert!(expect_schema(&doc, "caa-metrics/v1").is_ok());
        let err = expect_schema(&doc, "caa-coverage/v1").unwrap_err();
        assert!(err.contains("caa-coverage/v1"), "{err}");
        assert!(expect_schema(&parse("{}").unwrap(), "x").is_err());
    }

    #[test]
    fn write_str_escapes_round_trip() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}");
        let back = parse(&out).unwrap();
        assert_eq!(back, Value::Str("a\"b\\c\nd\u{1}".into()));
    }
}
