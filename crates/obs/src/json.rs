//! Minimal in-tree JSON value, encoder and parser.
//!
//! The workspace builds with no external dependencies, so the JSON-lines
//! sink carries its own ~200-line JSON implementation. Only what the
//! telemetry schema needs is supported — objects, arrays, strings,
//! integers (kept exact as `u64`/`i64`, never coerced through `f64`),
//! floats, bools and null. Object key order is preserved, which makes
//! `encode(parse(encode(x))) == encode(x)` hold exactly.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer, kept exact.
    UInt(u64),
    /// Negative integer, kept exact.
    Int(i64),
    /// Floating point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with preserved key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Convenience: value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Convenience: value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Encodes to a compact JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Json::Int(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Json::Float(v) => {
                if v.is_finite() {
                    // Debug formatting keeps a trailing `.0` on integral
                    // floats so the value re-parses as a float.
                    let _ = fmt::Write::write_fmt(out, format_args!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let cp = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Surrogate pairs are not needed by our schema;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x80 => {
                // Consume a whole run of plain ASCII in one step — the
                // run is valid UTF-8 by construction, so validation cost
                // stays linear in the document size (validating the full
                // remaining slice per character is quadratic, minutes on
                // a multi-megabyte document).
                let start = *pos;
                while matches!(b.get(*pos), Some(&c) if c < 0x80 && c != b'"' && c != b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid utf-8")?);
            }
            Some(_) => {
                // One multi-byte UTF-8 character: at most 4 bytes, so
                // only a bounded window is validated.
                let end = (*pos + 4).min(b.len());
                let window = &b[*pos..end];
                let s = match std::str::from_utf8(window) {
                    Ok(s) => s,
                    Err(e) if e.valid_up_to() > 0 => {
                        std::str::from_utf8(&window[..e.valid_up_to()])
                            .map_err(|_| "invalid utf-8")?
                    }
                    Err(_) => return Err("invalid utf-8".into()),
                };
                let c = s.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if !is_float {
        if let Some(stripped) = text.strip_prefix('-') {
            // Negative integer.
            if let Ok(v) = stripped.parse::<u64>() {
                if v <= i64::MAX as u64 {
                    return Ok(Json::Int(-(v as i64)));
                }
            }
        } else if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("invalid number '{text}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let src = r#"{"a":1,"b":-2,"c":1.5,"d":"x\"y\n","e":[true,false,null],"f":{}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.encode(), src);
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b"), Some(&Json::Int(-2)));
        assert_eq!(v.get("c"), Some(&Json::Float(1.5)));
    }

    #[test]
    fn integers_stay_exact() {
        let big = u64::MAX;
        let src = format!("{{\"v\":{big}}}");
        let v = Json::parse(&src).unwrap();
        assert_eq!(v.get("v").unwrap().as_u64(), Some(big));
        assert_eq!(v.encode(), src);
    }

    #[test]
    fn integral_float_keeps_point() {
        let v = Json::Float(3.0);
        assert_eq!(v.encode(), "3.0");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Float(3.0));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn multibyte_strings_roundtrip() {
        // Exercises the ASCII-run fast path interleaved with 2-, 3- and
        // 4-byte UTF-8 sequences and escapes.
        let v = Json::Str("héllo → w\\orld 🦀 end".into());
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
        // A multi-byte char hard against end-of-input.
        assert_eq!(Json::parse("\"🦀\"").unwrap(), Json::Str("🦀".into()));
        // Input ending mid-string is rejected, not mis-decoded.
        assert!(Json::parse("\"ü").is_err());
        // 4-byte window cutting into the following char still decodes.
        assert_eq!(Json::parse("\"é🦀é\"").unwrap(), Json::Str("é🦀é".into()));
    }

    #[test]
    fn escapes_control_chars() {
        let v = Json::Str("a\u{1}b".into());
        assert_eq!(v.encode(), "\"a\\u0001b\"");
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
    }
}
