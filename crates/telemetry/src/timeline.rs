//! Per-lane timeline and critical-path view derived from span events.
//!
//! The Chrome trace ([`crate::chrome`]) already renders spans visually,
//! but answering "where did this kernel's wall time go" requires a
//! browser. This module folds the same [`Event`] stream into a textual
//! per-lane summary: for every lane (`tid` — one per kernel session under
//! `OrionService`, SM index for simulator events) it pairs
//! [`Phase::Begin`]/[`Phase::End`] spans on a per-lane stack, absorbs
//! [`Phase::Complete`] spans directly, and reports
//!
//! * the lane's busy time (top-level span coverage, nested spans not
//!   double-counted),
//! * totals per span name, and
//! * the **critical path**: the ordered chain of top-level spans, which
//!   for a sequential session *is* the dependency chain from first
//!   compile to final decision.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{Event, Phase};

/// One completed span occurrence on a lane.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSpan {
    pub cat: &'static str,
    pub name: String,
    pub start: u64,
    pub dur: u64,
    /// Nesting depth at which the span ran (0 = top level).
    pub depth: usize,
}

/// The reconstructed activity of one `tid` lane.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneTimeline {
    pub lane: u32,
    /// Completed spans in start order.
    pub spans: Vec<TimelineSpan>,
    /// Earliest span start on this lane.
    pub first: u64,
    /// Latest span end on this lane.
    pub last: u64,
    /// Sum of top-level span durations (nested work not double-counted).
    pub busy: u64,
}

impl LaneTimeline {
    /// Wall span of the lane (`last - first`).
    #[must_use]
    pub fn extent(&self) -> u64 {
        self.last.saturating_sub(self.first)
    }

    /// Top-level spans in start order — the lane's critical path.
    pub fn critical_path(&self) -> impl Iterator<Item = &TimelineSpan> {
        self.spans.iter().filter(|s| s.depth == 0)
    }

    /// Total duration per span name (all depths), name-sorted.
    #[must_use]
    pub fn totals_by_name(&self) -> BTreeMap<String, u64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(s.name.clone()).or_insert(0u64) += s.dur;
        }
        totals
    }
}

/// Reconstruct per-lane timelines from an event stream. Lanes are
/// returned in ascending `tid` order. Unclosed `Begin` spans are dropped
/// (the stream was cut), stray `End`s are ignored.
#[must_use]
pub fn lane_timelines(events: &[Event]) -> Vec<LaneTimeline> {
    // Per-lane stack of open Begin events: (cat, name, start, depth).
    let mut open: BTreeMap<u32, Vec<(&'static str, String, u64)>> = BTreeMap::new();
    let mut spans: BTreeMap<u32, Vec<TimelineSpan>> = BTreeMap::new();
    for e in events {
        match e.ph {
            Phase::Begin => {
                open.entry(e.tid).or_default().push((e.cat, e.name.clone(), e.ts));
            }
            Phase::End => {
                if let Some(stack) = open.get_mut(&e.tid) {
                    if let Some((cat, name, start)) = stack.pop() {
                        let depth = stack.len();
                        spans.entry(e.tid).or_default().push(TimelineSpan {
                            cat,
                            name,
                            start,
                            dur: e.ts.saturating_sub(start),
                            depth,
                        });
                    }
                }
            }
            Phase::Complete => {
                let depth = open.get(&e.tid).map_or(0, Vec::len);
                spans.entry(e.tid).or_default().push(TimelineSpan {
                    cat: e.cat,
                    name: e.name.clone(),
                    start: e.ts,
                    dur: e.dur,
                    depth,
                });
            }
            Phase::Instant => {}
        }
    }
    spans
        .into_iter()
        .map(|(lane, mut spans)| {
            spans.sort_by_key(|s| (s.start, s.depth));
            let first = spans.iter().map(|s| s.start).min().unwrap_or(0);
            let last = spans.iter().map(|s| s.start + s.dur).max().unwrap_or(0);
            let busy = spans.iter().filter(|s| s.depth == 0).map(|s| s.dur).sum();
            LaneTimeline { lane, spans, first, last, busy }
        })
        .collect()
}

/// Render the timelines as an indented text report: one block per lane,
/// the critical-path chain with durations, and per-name totals.
#[must_use]
pub fn render_text(lanes: &[LaneTimeline]) -> String {
    let mut out = String::new();
    for lane in lanes {
        let _ = writeln!(
            out,
            "lane {:<3} extent {:>8}  busy {:>8}  spans {}",
            lane.lane,
            lane.extent(),
            lane.busy,
            lane.spans.len()
        );
        for s in &lane.spans {
            let _ = writeln!(
                out,
                "  {}{:<28} {:>8} @ {:>8}  [{}]",
                "  ".repeat(s.depth),
                s.name,
                s.dur,
                s.start,
                s.cat
            );
        }
        let path: Vec<String> =
            lane.critical_path().map(|s| format!("{}({})", s.name, s.dur)).collect();
        if !path.is_empty() {
            let _ = writeln!(out, "  critical path: {}", path.join(" -> "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArgValue;

    fn ev(name: &str, ph: Phase, ts: u64, dur: u64, tid: u32) -> Event {
        Event {
            cat: "t",
            name: name.to_string(),
            ph,
            ts,
            dur,
            tid,
            args: Vec::<(&str, ArgValue)>::new(),
        }
    }

    #[test]
    fn pairs_nested_spans_per_lane() {
        let events = vec![
            ev("outer", Phase::Begin, 0, 0, 1),
            ev("inner", Phase::Begin, 10, 0, 1),
            ev("inner", Phase::End, 40, 0, 1),
            ev("outer", Phase::End, 100, 0, 1),
            ev("other-lane", Phase::Begin, 5, 0, 2),
            ev("other-lane", Phase::End, 25, 0, 2),
        ];
        let lanes = lane_timelines(&events);
        assert_eq!(lanes.len(), 2);
        let l1 = &lanes[0];
        assert_eq!(l1.lane, 1);
        assert_eq!(l1.spans.len(), 2);
        // Busy counts only the top-level span.
        assert_eq!(l1.busy, 100);
        assert_eq!(l1.extent(), 100);
        let inner = l1.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((inner.dur, inner.depth), (30, 1));
        let path: Vec<_> = l1.critical_path().map(|s| s.name.as_str()).collect();
        assert_eq!(path, ["outer"]);
        assert_eq!(lanes[1].busy, 20);
    }

    #[test]
    fn complete_events_and_totals() {
        let events = vec![
            ev("phase", Phase::Complete, 0, 50, 3),
            ev("phase", Phase::Complete, 60, 30, 3),
            ev("tick", Phase::Instant, 10, 0, 3), // ignored
        ];
        let lanes = lane_timelines(&events);
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].busy, 80);
        assert_eq!(lanes[0].totals_by_name()["phase"], 80);
        let path: Vec<_> = lanes[0].critical_path().map(|s| s.dur).collect();
        assert_eq!(path, [50, 30]);
    }

    #[test]
    fn unclosed_and_stray_spans_are_tolerated() {
        let events = vec![
            ev("cut", Phase::Begin, 0, 0, 1),
            ev("stray", Phase::End, 5, 0, 2),
            ev("ok", Phase::Complete, 1, 2, 1),
        ];
        let lanes = lane_timelines(&events);
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].spans.len(), 1);
        assert_eq!(lanes[0].spans[0].name, "ok");
        // The open "cut" span nests "ok" one deep.
        assert_eq!(lanes[0].spans[0].depth, 1);
    }

    #[test]
    fn render_text_lists_lanes_and_path() {
        let events = vec![
            ev("compile", Phase::Begin, 0, 0, 1),
            ev("compile", Phase::End, 40, 0, 1),
            ev("tune", Phase::Begin, 40, 0, 1),
            ev("tune", Phase::End, 90, 0, 1),
        ];
        let text = render_text(&lane_timelines(&events));
        assert!(text.contains("lane 1"), "{text}");
        assert!(text.contains("critical path: compile(40) -> tune(50)"), "{text}");
    }
}
