//! The one JSON string escaper behind every hand-rendered JSON document
//! in the workspace: the telemetry exporters, the fabric manifest and
//! `hyades-lint --json`.

use std::fmt::Write as _;

/// Escape `s` for a JSON string literal: quote, backslash, the `\n`,
/// `\r` and `\t` shorthands (the same as `prom.rs`'s label escaping, so
/// the JSON and Prometheus exporters render identical labels), and
/// `\u00xx` for every other control character.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        // Shorthand escapes, matching prom.rs's label escaping.
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(escape("x\r\ty"), "x\\r\\ty");
        assert_eq!(escape("x\u{1}y"), "x\\u0001y");
    }
}
