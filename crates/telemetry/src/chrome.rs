//! Chrome `trace_event` exporter.
//!
//! Produces the JSON Object Format described in the Trace Event Format
//! spec: `{"traceEvents": [...], "displayTimeUnit": "ms"}`. The output
//! loads directly into `chrome://tracing` or Perfetto. Events are
//! emitted sorted by timestamp (stable, so same-`ts` events keep their
//! recording order), which downstream snapshot tests rely on.
//!
//! The two clock domains go under separate processes, so no thread row
//! mixes microseconds with cycles: wall-clock events under `pid` 1 (one
//! thread per scope lane), the simulator's cycle-stamped events under
//! `pid` 2 (one thread per SM).

use crate::{escape_json, write_arg_value, Clock, Event, Phase};
use std::fmt::Write;

fn phase_code(ph: Phase) -> &'static str {
    match ph {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Complete => "X",
        Phase::Instant => "i",
    }
}

/// Render events as a Chrome-loadable trace document.
pub fn trace_json(events: &[Event]) -> String {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| e.ts);
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":");
        escape_json(&mut out, &e.name);
        out.push_str(",\"cat\":");
        escape_json(&mut out, e.cat);
        let _ = write!(
            out,
            ",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
            phase_code(e.ph),
            e.ts,
            match e.clock() {
                Clock::Wall => 1,
                Clock::Sim => 2,
            },
            e.tid
        );
        if e.ph == Phase::Complete {
            let _ = write!(out, ",\"dur\":{}", e.dur);
        }
        if e.ph == Phase::Instant {
            // Scope: thread (keeps Perfetto from drawing page-wide bars).
            out.push_str(",\"s\":\"t\"");
        }
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                escape_json(&mut out, k);
                out.push(':');
                write_arg_value(&mut out, v);
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArgValue;

    fn ev(name: &str, ph: Phase, ts: u64) -> Event {
        Event {
            cat: "test",
            name: name.to_string(),
            ph,
            ts,
            dur: if ph == Phase::Complete { 5 } else { 0 },
            tid: 1,
            args: vec![("k", ArgValue::Str("v\"q".to_string()))],
        }
    }

    #[test]
    fn sorts_by_ts_and_escapes() {
        let events = vec![
            ev("late", Phase::Instant, 30),
            ev("early", Phase::Complete, 10),
            ev("mid", Phase::Begin, 20),
        ];
        let json = trace_json(&events);
        let early = json.find("early").unwrap();
        let mid = json.find("mid").unwrap();
        let late = json.find("late").unwrap();
        assert!(early < mid && mid < late);
        assert!(json.contains("\\\"q"));
        assert!(json.contains("\"dur\":5"));
        // The simulated span sits under its own process.
        assert!(json.contains("\"ph\":\"X\",\"ts\":10,\"pid\":2,\"tid\":1"), "{json}");
        assert!(json.contains("\"ph\":\"B\",\"ts\":20,\"pid\":1,\"tid\":1"), "{json}");
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = trace_json(&[]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("]"));
    }
}
