//! JSON validation and escaping on top of [`crate::json`].
//!
//! The bench gate and the `nice` CLI emit hand-rolled JSON (no serde in this
//! offline build), which makes it easy to ship a stray comma or an unescaped
//! quote. [`escape_json`] is the one escaper every emitter routes dynamic
//! strings through, and [`validate_json`] is the strict check that
//! `ci_gate`, the CLI and the `nice-dist-v1` writer run over their own
//! output before it leaves the process, and that `nice validate-json`
//! applies to whatever CI pipes through it.

use crate::json;

/// Validates that `input` is exactly one well-formed JSON value, by parsing
/// it with [`json::parse`]. Returns the byte offset and a message on the
/// first error.
pub fn validate_json(input: &str) -> Result<(), String> {
    json::parse(input).map(drop)
}

/// Validates a `nice-trace-v1` document: it must be well-formed JSON *and*
/// parse into a typed [`crate::Trace`] — schema tag, engine block, and
/// every step. The `ci_gate` binary runs this over the trace files it
/// emits, and `nice validate-json` applies it whenever the top-level
/// `"schema"` value is `"nice-trace-v1"`.
pub fn validate_trace_json(input: &str) -> Result<(), String> {
    crate::Trace::from_json(input).map(drop)
}

/// Escapes a string for inclusion in hand-rolled JSON output (quotes,
/// backslashes and control characters). The emitters in `ci_gate` and the
/// CLI route every dynamic string through this.
pub fn escape_json(s: &str) -> String {
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
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            r#"{"a": [1, 2.0, {"b": "c\nd"}], "e": null}"#,
            "  {\n  \"x\": [false]\n}\n",
            r#""é""#,
            r#""\ud83d\ude00 \ud83d""#,
        ] {
            assert!(json::parse(ok).is_ok(), "{ok}");
            assert!(validate_json(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": 1,}",
            "{\"a\" 1}",
            "\"unterminated",
            "01",
            "1.e3",
            "nul",
            "{} {}",
            "{\"a\": \"\u{1}\"}",
            // Numbers the trace reader used to let through.
            "1.",
            "1e",
            "-",
            "[01]",
        ] {
            assert!(json::parse(bad).is_err(), "{bad:?} should be rejected");
            assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
        }
        let nested = "[".repeat(200_000) + &"]".repeat(200_000);
        assert!(validate_json(&nested).is_err());
    }

    #[test]
    fn trace_validation_requires_the_typed_schema() {
        // Well-formed JSON that is not a trace must be rejected...
        assert!(validate_trace_json("{}").is_err());
        assert!(validate_trace_json(r#"{"schema": "nice-trace-v1"}"#).is_err());
        // ...while a real trace round-trips.
        let trace = crate::Trace::from_transitions(
            "demo",
            crate::TraceEngine::default(),
            std::iter::empty::<crate::Transition>(),
        );
        assert!(validate_trace_json(&trace.to_json()).is_ok());
    }

    #[test]
    fn escape_round_trips_through_the_validator() {
        let tricky = "quote \" backslash \\ newline \n tab \t bell \u{7}";
        let doc = format!("{{\"s\": \"{}\"}}", escape_json(tricky));
        assert!(validate_json(&doc).is_ok(), "{doc}");
        let value = json::parse(&doc).expect("parses");
        assert_eq!(
            value.as_obj().and_then(|o| o.get("s")?.as_str()),
            Some(tricky)
        );
    }
}
