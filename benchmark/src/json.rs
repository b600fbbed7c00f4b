//! Just enough JSON for the wire protocol and the benchmark's own output.
//!
//! `blazeit-server` answers one flat JSON object per line (`docs/server.md`):
//! scalar fields, strings, and at most arrays of numbers or of
//! `["video", n]` pairs. [`Reply::parse`] scans exactly that shape — keys and
//! raw value tokens, strings skipped with their escapes — so a `,` or `}`
//! inside a plan rendering cannot end a field early. The emitter half writes
//! the result line and the trace files; non-finite floats become `null`, the
//! same rule the server follows.

use std::fmt::Write as _;

/// One parsed reply line: top-level keys with their raw value tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply<'a> {
    fields: Vec<(&'a str, &'a str)>,
}

/// Skips ASCII whitespace from `pos`.
fn skip_ws(bytes: &[u8], mut pos: usize) -> usize {
    while bytes.get(pos).is_some_and(u8::is_ascii_whitespace) {
        pos += 1;
    }
    pos
}

/// Given `pos` at an opening quote, the index just past the closing quote.
fn skip_string(bytes: &[u8], pos: usize) -> Option<usize> {
    let mut i = pos + 1;
    loop {
        match bytes.get(i)? {
            b'"' => return Some(i + 1),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
}

/// Given `pos` at the first byte of a value, the index just past it.
fn skip_value(bytes: &[u8], pos: usize) -> Option<usize> {
    match bytes.get(pos)? {
        b'"' => skip_string(bytes, pos),
        open @ (b'[' | b'{') => {
            let close = if *open == b'[' { b']' } else { b'}' };
            let mut i = skip_ws(bytes, pos + 1);
            if bytes.get(i) == Some(&close) {
                return Some(i + 1);
            }
            loop {
                if *open == b'{' {
                    if bytes.get(i) != Some(&b'"') {
                        return None;
                    }
                    i = skip_ws(bytes, skip_string(bytes, i)?);
                    if bytes.get(i) != Some(&b':') {
                        return None;
                    }
                    i = skip_ws(bytes, i + 1);
                }
                i = skip_ws(bytes, skip_value(bytes, i)?);
                match bytes.get(i)? {
                    b',' => i = skip_ws(bytes, i + 1),
                    c if *c == close => return Some(i + 1),
                    _ => return None,
                }
            }
        }
        _ => {
            // Number, true, false or null: runs to the next delimiter.
            let len = bytes[pos..]
                .iter()
                .take_while(|b| !matches!(b, b',' | b'}' | b']') && !b.is_ascii_whitespace())
                .count();
            (len > 0).then_some(pos + len)
        }
    }
}

/// Unescapes the inside of a JSON string literal.
fn unescape(inner: &str) -> Option<String> {
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'u' => {
                let code: String = chars.by_ref().take(4).collect();
                out.push(char::from_u32(u32::from_str_radix(&code, 16).ok()?)?);
            }
            other => out.push(other),
        }
    }
    Some(out)
}

impl<'a> Reply<'a> {
    /// Parses one reply line; `None` unless it is exactly one well-formed
    /// JSON object (nothing but whitespace around it).
    pub fn parse(line: &'a str) -> Option<Reply<'a>> {
        let bytes = line.as_bytes();
        let mut i = skip_ws(bytes, 0);
        if bytes.get(i) != Some(&b'{') {
            return None;
        }
        let end = skip_value(bytes, i)?;
        if skip_ws(bytes, end) != bytes.len() {
            return None;
        }
        let mut fields = Vec::new();
        i = skip_ws(bytes, i + 1);
        while bytes.get(i) != Some(&b'}') {
            let key_end = skip_string(bytes, i)?;
            let key = &line[i + 1..key_end - 1];
            i = skip_ws(bytes, skip_ws(bytes, key_end) + 1);
            let value_end = skip_value(bytes, i)?;
            fields.push((key, &line[i..value_end]));
            i = skip_ws(bytes, value_end);
            if bytes.get(i) == Some(&b',') {
                i = skip_ws(bytes, i + 1);
            }
        }
        Some(Reply { fields })
    }

    /// The raw token of a top-level field (`"aggregate"` with its quotes,
    /// `0.195`, `null`, `[1,2]`).
    pub fn raw(&self, field: &str) -> Option<&'a str> {
        self.fields.iter().find(|(key, _)| *key == field).map(|&(_, value)| value)
    }

    /// A string field, unescaped.
    pub fn string(&self, field: &str) -> Option<String> {
        let raw = self.raw(field)?;
        let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
        unescape(inner)
    }

    /// A numeric field; `None` for `null` (a non-finite float on the wire).
    pub fn number(&self, field: &str) -> Option<f64> {
        self.raw(field)?.parse().ok()
    }

    /// An unsigned integer field.
    pub fn integer(&self, field: &str) -> Option<u64> {
        self.raw(field)?.parse().ok()
    }

    /// A boolean field.
    pub fn boolean(&self, field: &str) -> Option<bool> {
        self.raw(field)?.parse().ok()
    }

    /// The frame numbers of a `frames` reply: `"frames":[n,…]` as
    /// `(None, n)`, `"sourced_frames":[["video",n],…]` as `(Some(video), n)`.
    pub fn frames(&self) -> Option<Vec<(Option<String>, u64)>> {
        if let Some(raw) = self.raw("frames") {
            let inner = raw.strip_prefix('[')?.strip_suffix(']')?;
            if inner.trim().is_empty() {
                return Some(Vec::new());
            }
            return inner.split(',').map(|n| Some((None, n.trim().parse().ok()?))).collect();
        }
        let raw = self.raw("sourced_frames")?;
        let bytes = raw.as_bytes();
        let mut out = Vec::new();
        let mut i = skip_ws(bytes, 1);
        while bytes.get(i) == Some(&b'[') {
            let name_start = skip_ws(bytes, i + 1);
            let name_end = skip_string(bytes, name_start)?;
            let video = unescape(&raw[name_start + 1..name_end - 1])?;
            let number_start = skip_ws(bytes, skip_ws(bytes, name_end) + 1);
            let number_end = skip_value(bytes, number_start)?;
            out.push((Some(video), raw[number_start..number_end].parse().ok()?));
            i = skip_ws(bytes, skip_ws(bytes, number_end) + 1);
            if bytes.get(i) == Some(&b',') {
                i = skip_ws(bytes, i + 1);
            }
        }
        Some(out)
    }

    /// Whether the reply carries `"ok":true`.
    pub fn ok(&self) -> bool {
        self.boolean("ok") == Some(true)
    }
}

/// The part of a reply line that must be byte-identical whenever the same
/// query text is answered again: the answer fields, which the server
/// renders before the two cost fields. `wall_secs` differs by nature, and
/// `simulated_secs` is the shared clock's movement while the query ran, so
/// it absorbs what concurrent sessions charged and the rounding of a
/// growing total; neither is part of the answer.
pub fn answer_part(line: &str) -> &str {
    line.rfind(",\"simulated_secs\":").map_or(line, |at| &line[..at])
}

/// A JSON number; non-finite floats render as `null` so the output is
/// always valid JSON.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A JSON object from already-rendered values, keys in the given order.
pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> =
        members.into_iter().map(|(key, value)| format!("{}:{value}", string(key))).collect();
    format!("{{{}}}", body.join(","))
}

/// A JSON array from already-rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    // One example of every reply kind in docs/server.md.
    const PONG: &str = r#"{"ok":true,"kind":"pong"}"#;
    const STATS: &str = r#"{"ok":true,"kind":"stats","hits":7,"misses":1,"coalesced":3,"evicted":0,"invalidated":0,"queued":0}"#;
    const METRICS: &str = r##"{"ok":true,"kind":"metrics","exposition":"# HELP a_total A, with {braces}.\n# TYPE a_total counter\na_total 3\nwait_bucket{le=\"0.000002\"} 1\n"}"##;
    const SHUTDOWN: &str = r#"{"ok":true,"kind":"shutdown"}"#;
    const AGGREGATE: &str = r#"{"ok":true,"kind":"aggregate","value":0.195,"standard_error":0.0139,"detection_calls":120,"simulated_secs":6.93,"wall_secs":0.004}"#;
    const AGGREGATE_EXACT: &str = r#"{"ok":true,"kind":"aggregate","value":1.0775,"standard_error":null,"detection_calls":4000,"simulated_secs":2000,"wall_secs":0.0015}"#;
    const FRAMES: &str = r#"{"ok":true,"kind":"frames","frames":[12,340,7],"detection_calls":39,"simulated_secs":17.6,"wall_secs":0.0003}"#;
    const SOURCED: &str = r#"{"ok":true,"kind":"frames","sourced_frames":[["taipei",12],["night-street",340]],"detection_calls":41,"simulated_secs":13.6,"wall_secs":0.0003}"#;
    const ROWS: &str = r#"{"ok":true,"kind":"rows","count":17,"detection_calls":3413,"simulated_secs":1142.4,"wall_secs":0.09}"#;
    const EXPLAIN: &str = r#"{"ok":true,"kind":"explain","plan":"QUERY PLAN over 1 video\n  class:    aggregate (FCOUNT)\n  cache: hit, \"warm\" {x}\n"}"#;
    const ANALYZE: &str = r#"{"ok":true,"kind":"explain_analyze","plan":"QUERY PLAN\n","trace":"EXPLAIN ANALYZE\n  query  wall 1.0ms  [detector_calls=140]\n  total: 71.3 simulated seconds over 9 spans\n","detection_calls":140,"simulated_secs":71.3,"wall_secs":1.99}"#;
    const ERROR: &str = r#"{"ok":false,"kind":"unknown_video","error":"unknown video 'nonexistent' (registered: taipei)"}"#;

    #[test]
    fn every_documented_reply_kind_parses() {
        for line in [
            PONG,
            STATS,
            METRICS,
            SHUTDOWN,
            AGGREGATE,
            AGGREGATE_EXACT,
            FRAMES,
            SOURCED,
            ROWS,
            EXPLAIN,
            ANALYZE,
        ] {
            let reply = Reply::parse(line).unwrap_or_else(|| panic!("unparsed: {line}"));
            assert!(reply.ok(), "{line}");
            assert!(reply.string("kind").is_some(), "{line}");
        }
        let error = Reply::parse(ERROR).expect("error reply parses");
        assert!(!error.ok());
        assert_eq!(error.string("kind").as_deref(), Some("unknown_video"));
        assert!(error.string("error").expect("message").contains("(registered: taipei)"));
    }

    #[test]
    fn scalar_fields_come_out_typed() {
        let stats = Reply::parse(STATS).expect("stats");
        assert_eq!(stats.integer("hits"), Some(7));
        assert_eq!(stats.integer("queued"), Some(0));
        assert_eq!(stats.integer("absent"), None);
        let aggregate = Reply::parse(AGGREGATE).expect("aggregate");
        assert_eq!(aggregate.number("value"), Some(0.195));
        assert_eq!(aggregate.raw("value"), Some("0.195"));
        assert_eq!(aggregate.integer("detection_calls"), Some(120));
        let exact = Reply::parse(AGGREGATE_EXACT).expect("exact aggregate");
        assert_eq!(exact.raw("standard_error"), Some("null"));
        assert_eq!(exact.number("standard_error"), None);
        assert_eq!(exact.number("simulated_secs"), Some(2000.0));
        assert_eq!(Reply::parse(ROWS).expect("rows").integer("count"), Some(17));
    }

    #[test]
    fn strings_with_delimiters_and_escapes_do_not_end_a_field_early() {
        let metrics = Reply::parse(METRICS).expect("metrics");
        let exposition = metrics.string("exposition").expect("exposition");
        assert!(exposition.contains("A, with {braces}."));
        assert!(exposition.ends_with("wait_bucket{le=\"0.000002\"} 1\n"));
        let explain = Reply::parse(EXPLAIN).expect("explain");
        assert!(explain.string("plan").expect("plan").contains("cache: hit, \"warm\" {x}\n"));
        let analyze = Reply::parse(ANALYZE).expect("analyze");
        assert!(analyze.string("trace").expect("trace").contains("over 9 spans"));
        // The field after the multi-line strings is still found.
        assert_eq!(analyze.integer("detection_calls"), Some(140));
        assert_eq!(unescape(r"a\u0041\\").as_deref(), Some("aA\\"));
    }

    #[test]
    fn frame_lists_parse_in_both_shapes() {
        let frames = Reply::parse(FRAMES).expect("frames").frames().expect("list");
        assert_eq!(frames, vec![(None, 12), (None, 340), (None, 7)]);
        let sourced = Reply::parse(SOURCED).expect("sourced").frames().expect("list");
        assert_eq!(
            sourced,
            vec![(Some("taipei".to_string()), 12), (Some("night-street".to_string()), 340)]
        );
        let empty = r#"{"ok":true,"kind":"frames","frames":[],"detection_calls":0}"#;
        assert_eq!(Reply::parse(empty).expect("empty").frames(), Some(Vec::new()));
        assert_eq!(Reply::parse(ROWS).expect("rows").frames(), None);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for line in [
            "",
            "pong",
            r#"{"ok":true"#,
            r#"{"ok":true} trailing"#,
            r#"{"ok":true,"kind":"unterminated}"#,
            r#"{"frames":[1,2}"#,
        ] {
            assert!(Reply::parse(line).is_none(), "accepted {line:?}");
        }
    }

    #[test]
    fn answer_part_ignores_only_the_cost_fields() {
        let again = AGGREGATE.replace("\"wall_secs\":0.004", "\"wall_secs\":0.0001");
        assert_eq!(answer_part(AGGREGATE), answer_part(&again));
        let again = AGGREGATE.replace("\"simulated_secs\":6.93", "\"simulated_secs\":6.9300001");
        assert_eq!(answer_part(AGGREGATE), answer_part(&again));
        assert!(answer_part(AGGREGATE).ends_with("\"detection_calls\":120"));
        let wrong = AGGREGATE.replace("0.195", "0.196");
        assert_ne!(answer_part(AGGREGATE), answer_part(&wrong));
        // Replies without the field (PING, STATS, EXPLAIN) compare whole.
        assert_eq!(answer_part(PONG), PONG);
    }

    #[test]
    fn emitter_round_trips_through_the_extractor_with_non_finite_floats_as_null() {
        let line = object([
            ("name", string("p99 \"tail\"\n{x}")),
            ("value", number(1.25)),
            ("nan", number(f64::NAN)),
            ("inf", number(f64::INFINITY)),
            ("neg_inf", number(f64::NEG_INFINITY)),
            ("list", array([number(1.0), number(f64::NAN)])),
            ("nested", object([("unit", string("ms"))])),
        ]);
        let reply = Reply::parse(&line).unwrap_or_else(|| panic!("unparsed: {line}"));
        assert_eq!(reply.string("name").as_deref(), Some("p99 \"tail\"\n{x}"));
        assert_eq!(reply.number("value"), Some(1.25));
        for field in ["nan", "inf", "neg_inf"] {
            assert_eq!(reply.raw(field), Some("null"), "{field}");
            assert_eq!(reply.number(field), None, "{field}");
        }
        assert_eq!(reply.raw("list"), Some("[1,null]"));
        assert_eq!(reply.raw("nested"), Some(r#"{"unit":"ms"}"#));
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }
}
