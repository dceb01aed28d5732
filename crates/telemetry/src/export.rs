//! The Chrome `trace_event` JSON exporter and the JSON string helpers
//! report writers share.
//!
//! All rendering is hand-rolled (no serde — the workspace builds with
//! no registry access) and strictly deterministic: timestamps come from
//! integer nanoseconds formatted with fixed precision, maps iterate in
//! sorted order, and events are emitted in `seq` order. Two same-seed
//! runs therefore produce byte-identical files.

use crate::span::{AttrValue, SpanEvent};

/// Escapes a string for inclusion in a JSON string literal (without the
/// surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
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

/// Renders a finite f64 deterministically for JSON (shortest `{}`
/// formatting of Rust is stable across platforms). Non-finite values
/// render as `null`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Nanoseconds rendered as fractional microseconds with fixed
/// 3-decimal precision — the unit Chrome's trace viewer expects, kept
/// exact and byte-stable by integer arithmetic.
fn micros_field(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn attr_json(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(n) => format!("{n}"),
        AttrValue::F64(f) => json_f64(*f),
        AttrValue::Str(s) => format!("\"{}\"", json_escape(s)),
    }
}

fn event_args(e: &SpanEvent) -> String {
    let mut args = format!("\"seq\":{}", e.seq);
    if let Some(p) = e.parent {
        args.push_str(&format!(",\"parent\":{p}"));
    }
    for (k, v) in &e.attrs {
        args.push_str(&format!(",\"{}\":{}", json_escape(k), attr_json(v)));
    }
    args
}

/// Renders spans as a Chrome `trace_event` JSON document (complete
/// "X"-phase events), loadable in `chrome://tracing` / Perfetto.
///
/// Events are sorted by `seq` (open order); `ts`/`dur` are virtual-time
/// microseconds. The document ends with a trailing newline.
pub fn chrome_trace<'a>(events: impl IntoIterator<Item = &'a SpanEvent>) -> String {
    let mut sorted: Vec<&SpanEvent> = events.into_iter().collect();
    sorted.sort_by_key(|e| e.seq);
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, e) in sorted.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{{}}}}}",
            json_escape(e.label),
            json_escape(e.component),
            micros_field(e.start.as_nanos()),
            micros_field(e.duration.as_nanos()),
            event_args(e)
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Collector;
    use bmhive_sim::{SimDuration, SimTime};

    fn sample_events() -> Vec<SpanEvent> {
        let mut c = Collector::new(16);
        let outer = c.begin("iobond", "tx_rx_exchange", SimTime::ZERO);
        c.span_with(
            "iobond",
            "01 \"kick\"",
            SimTime::ZERO,
            SimDuration::from_nanos(812),
            vec![("actor", "Guest".into()), ("bytes", AttrValue::U64(64))],
        );
        c.end(outer, SimTime::from_nanos(812));
        c.events_by_seq()
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn chrome_trace_is_sorted_and_carries_micros() {
        let events = sample_events();
        let doc = chrome_trace(&events);
        assert!(doc.starts_with("{\"displayTimeUnit\""));
        assert!(doc.trim_end().ends_with("]}"));
        // 812 ns renders as 0.812 µs with fixed precision.
        assert!(doc.contains("\"dur\":0.812"), "{doc}");
        // Labels are escaped.
        assert!(doc.contains("01 \\\"kick\\\""));
        // The child names its parent.
        assert!(doc.contains("\"parent\":0"));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_events();
        let b = sample_events();
        assert_eq!(chrome_trace(&a), chrome_trace(&b));
    }
}
