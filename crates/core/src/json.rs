//! The workspace's one JSON codec: a value type with a compact writer and a
//! strict parser, hand-rolled on `std` (no serde in the dependency closure).
//!
//! It carries the `pnsymd` wire protocol ([`crate::server::proto`]) and
//! writes the `--json` documents of the bench binaries.

use crate::server::proto::ProtoError;
use std::fmt::Write as _;

/// A JSON value: the wire protocol's abstract syntax and the bench documents' tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, in `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `&str` keys, in the given order.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a key of an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes the value compactly (no whitespace), suitable for one
    /// protocol line. Non-finite floats are not valid JSON and serialize as
    /// `null`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) if f.is_finite() => {
                // `Display` prints the shortest string that round-trips the
                // f64; add a decimal point when it omits one so the value
                // parses back as a float rather than an integer.
                let mut num = String::new();
                let _ = write!(num, "{f}");
                if !num.contains(['.', 'e', 'E']) {
                    num.push_str(".0");
                }
                out.push_str(&num);
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_json_string(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `text`, requiring it to consume the whole
    /// input (trailing whitespace aside).
    pub fn parse(text: &str) -> Result<Json, ProtoError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(text, bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ProtoError::json(format!(
                "trailing bytes at offset {pos} after the JSON value"
            )));
        }
        Ok(value)
    }
}

impl std::fmt::Display for Json {
    /// The compact serialization of [`Json::write`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_json_string(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, ProtoError> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(ProtoError::json("unexpected end of input".to_string()));
    };
    match b {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(ProtoError::json(format!("expected ':' at offset {pos}")));
                }
                *pos += 1;
                let value = parse_value(text, bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => {
                        return Err(ProtoError::json(format!(
                            "expected ',' or '}}' at offset {pos}"
                        )))
                    }
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(ProtoError::json(format!(
                            "expected ',' or ']' at offset {pos}"
                        )))
                    }
                }
            }
        }
        b'"' => Ok(Json::Str(parse_string(text, bytes, pos)?)),
        b't' if text[*pos..].starts_with("true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        b'f' if text[*pos..].starts_with("false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        b'n' if text[*pos..].starts_with("null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        b'-' | b'0'..=b'9' => parse_number(text, bytes, pos),
        _ => Err(ProtoError::json(format!(
            "unexpected byte {:?} at offset {pos}",
            b as char
        ))),
    }
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, ProtoError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ProtoError::json(format!("expected '\"' at offset {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    let mut chars = text[*pos..].char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *pos += i + 1;
                return Ok(out);
            }
            '\\' => {
                let Some((_, esc)) = chars.next() else { break };
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let Some((_, h)) = chars.next() else {
                                return Err(ProtoError::json("truncated \\u escape".to_string()));
                            };
                            let d = h.to_digit(16).ok_or_else(|| {
                                ProtoError::json(format!("bad hex digit {h:?} in \\u escape"))
                            })?;
                            code = code * 16 + d;
                        }
                        // Surrogate pairs are not produced by this writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => {
                        return Err(ProtoError::json(format!("bad escape \\{other}")));
                    }
                }
            }
            c => out.push(c),
        }
    }
    Err(ProtoError::json("unterminated string".to_string()))
}

fn parse_number(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, ProtoError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let slice = &text[start..*pos];
    if !fractional {
        if let Ok(i) = slice.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    slice
        .parse::<f64>()
        .map(Json::Float)
        .map_err(|_| ProtoError::json(format!("bad number {slice:?} at offset {start}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialise() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Int(-3).to_string(), "-3");
        assert_eq!(Json::Int(7).to_string(), "7");
        assert_eq!(Json::Float(1.5).to_string(), "1.5");
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Bool(false).to_string(), "false");
        assert_eq!(
            Json::Str("a\"b\\c\n".into()).to_string(),
            "\"a\\\"b\\\\c\\n\""
        );
    }

    #[test]
    fn nested_structure_round_trips_visually() {
        let doc = Json::object(vec![
            ("name", Json::Str("muller-8".into())),
            ("nodes", Json::Int(-120)),
            (
                "times",
                Json::Arr(vec![Json::Float(0.25), Json::Float(2.0)]),
            ),
            ("ok", Json::Bool(true)),
            ("empty", Json::Obj(vec![])),
        ]);
        let mut out = String::new();
        doc.write(&mut out);
        assert_eq!(
            out,
            r#"{"name":"muller-8","nodes":-120,"times":[0.25,2.0],"ok":true,"empty":{}}"#
        );
        assert_eq!(doc.to_string(), out);
        assert_eq!(Json::parse(&out).unwrap(), doc);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Float(f64::NEG_INFINITY).to_string(), "null");
        let doc = Json::Arr(vec![Json::Float(f64::NAN), Json::Float(0.5)]);
        assert_eq!(doc.to_string(), "[null,0.5]");
    }
}
