//! Per-lane timeline and critical-path view derived from span events.
//!
//! The Chrome trace ([`crate::chrome`]) already renders spans visually,
//! but answering "where did this kernel's wall time go" requires a
//! browser. This module folds the same [`Event`] stream into a textual
//! per-lane summary. A lane is a clock and a `tid`: wall-clock lanes
//! (µs, one per kernel session under `OrionService`) pair
//! [`Phase::Begin`]/[`Phase::End`] spans on a per-lane stack, and SM
//! lanes (simulated cycles, `tid` = SM index) hold the simulator's
//! [`Phase::Complete`] spans. Every launch starts its SM lanes at cycle
//! 0, so times alone cannot tell launches apart; record order can. The
//! simulator records a launch's CTA spans on an SM, then the SM's span,
//! whose `blocks` arg counts those CTAs, so each SM span nests the
//! `blocks` spans recorded on its lane just before it. The two clocks
//! never share a lane, so no total adds cycles to microseconds. Each
//! lane reports
//!
//! * the lane's busy time (top-level span coverage, nested spans not
//!   double-counted),
//! * totals per span name, and
//! * the **critical path**: the ordered chain of top-level spans, which
//!   for a sequential session *is* the dependency chain from first
//!   compile to final decision.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{ArgValue, Clock, Event, Phase};

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

/// The reconstructed activity of one lane: one `tid` on one clock.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneTimeline {
    /// The clock every time on this lane is read on.
    pub clock: Clock,
    pub lane: u32,
    /// Completed spans. On a wall-clock lane in start order; on an SM
    /// lane each top-level span in record order, followed by the spans
    /// it nests in start order.
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

/// Reconstruct per-lane timelines from an event stream. Wall-clock
/// lanes come first, then SM lanes, each in ascending `tid` order.
/// Unclosed `Begin` spans are dropped (the stream was cut), stray
/// `End`s are ignored.
#[must_use]
pub fn lane_timelines(events: &[Event]) -> Vec<LaneTimeline> {
    // Per wall-clock lane, the stack of open Begin events:
    // (cat, name, start).
    let mut open: BTreeMap<u32, Vec<(&'static str, String, u64)>> = BTreeMap::new();
    let mut wall: BTreeMap<u32, Vec<TimelineSpan>> = BTreeMap::new();
    // Per SM lane, its simulated spans in record order, each with the
    // number of spans before it that it nests.
    let mut sim: BTreeMap<u32, Vec<(TimelineSpan, usize)>> = BTreeMap::new();
    for e in events {
        match e.ph {
            Phase::Begin => {
                open.entry(e.tid).or_default().push((e.cat, e.name.clone(), e.ts));
            }
            Phase::End => {
                if let Some(stack) = open.get_mut(&e.tid) {
                    if let Some((cat, name, start)) = stack.pop() {
                        let depth = stack.len();
                        wall.entry(e.tid).or_default().push(TimelineSpan {
                            cat,
                            name,
                            start,
                            dur: e.ts.saturating_sub(start),
                            depth,
                        });
                    }
                }
            }
            // A simulated span never nests in a wall-clock one.
            Phase::Complete => {
                let nests = e.args.iter().find_map(|(k, v)| match (*k, v) {
                    ("blocks", ArgValue::U64(n)) => usize::try_from(*n).ok(),
                    _ => None,
                });
                let span = TimelineSpan {
                    cat: e.cat,
                    name: e.name.clone(),
                    start: e.ts,
                    dur: e.dur,
                    depth: 0,
                };
                sim.entry(e.tid).or_default().push((span, nests.unwrap_or(0)));
            }
            Phase::Instant => {}
        }
    }
    let wall = wall.into_iter().map(|(lane, mut spans)| {
        spans.sort_by_key(|s| (s.start, s.depth));
        (Clock::Wall, lane, spans)
    });
    let sim = sim.into_iter().map(|(lane, spans)| (Clock::Sim, lane, nest_recorded(spans)));
    wall.chain(sim)
        .map(|(clock, lane, spans)| {
            let first = spans.iter().map(|s| s.start).min().unwrap_or(0);
            let last = spans.iter().map(|s| s.start + s.dur).max().unwrap_or(0);
            let busy = spans.iter().filter(|s| s.depth == 0).map(|s| s.dur).sum();
            LaneTimeline { clock, lane, spans, first, last, busy }
        })
        .collect()
}

/// Nest one SM lane's spans, given in record order with the number of
/// spans before each that it nests: a span is listed before the ones it
/// nests, those in start order and one level in. A span that no later
/// span nests (a CTA of a launch that failed, say), or that its nesting
/// span does not contain, stays top level.
fn nest_recorded(spans: Vec<(TimelineSpan, usize)>) -> Vec<TimelineSpan> {
    let mut out = Vec::with_capacity(spans.len());
    // Top-level spans since the last span that nested any.
    let mut loose: Vec<TimelineSpan> = Vec::new();
    for (span, nests) in spans {
        if nests == 0 {
            loose.push(span);
            continue;
        }
        let claimed = loose.split_off(loose.len().saturating_sub(nests));
        let end = span.start + span.dur;
        let (mut nested, mut stray): (Vec<_>, Vec<_>) =
            claimed.into_iter().partition(|s| span.start <= s.start && s.start + s.dur <= end);
        nested.sort_by_key(|s| s.start);
        out.append(&mut loose);
        out.append(&mut stray);
        out.push(span);
        out.extend(nested.into_iter().map(|s| TimelineSpan { depth: 1, ..s }));
    }
    out.append(&mut loose);
    out
}

/// Render the timelines as an indented text report: one block per lane,
/// headed `lane N` (wall clock) or `sm N` (simulated) with the lane's
/// unit, then its spans and the critical-path chain with durations.
#[must_use]
pub fn render_text(lanes: &[LaneTimeline]) -> String {
    let mut out = String::new();
    for lane in lanes {
        let kind = match lane.clock {
            Clock::Wall => "lane",
            Clock::Sim => "sm",
        };
        let _ = writeln!(
            out,
            "{kind:<4} {:<3} {:<6} extent {:>8}  busy {:>8}  spans {}",
            lane.lane,
            lane.clock.unit(),
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

    /// An SM span that nests the `blocks` spans recorded before it.
    fn sm(name: &str, ts: u64, dur: u64, tid: u32, blocks: u64) -> Event {
        Event { args: vec![("blocks", blocks.into())], ..ev(name, Phase::Complete, ts, dur, tid) }
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
        // The open wall-clock "cut" span does not nest the simulated
        // "ok": they share a `tid`, not a clock.
        assert_eq!((lanes[0].clock, lanes[0].spans[0].depth), (Clock::Sim, 0));
    }

    #[test]
    fn wall_and_simulated_spans_on_one_tid_keep_separate_lanes() {
        let events = vec![
            ev("run_launch", Phase::Begin, 100, 0, 1),
            ev("cta1", Phase::Complete, 0, 9000, 1),
            sm("sm1", 0, 20000, 1, 1),
            ev("run_launch", Phase::End, 140, 0, 1),
        ];
        let lanes = lane_timelines(&events);
        let got: Vec<_> = lanes.iter().map(|l| (l.clock, l.lane, l.busy)).collect();
        assert_eq!(got, [(Clock::Wall, 1, 40), (Clock::Sim, 1, 20000)]);
        assert_eq!(lanes[0].spans.len(), 1, "the wall lane holds no simulated span");
        let text = render_text(&lanes);
        assert!(text.contains("lane 1   us     extent"), "{text}");
        assert!(text.contains("sm   1   cycles extent"), "{text}");
    }

    /// The simulator records an SM's span after that launch's CTA spans
    /// on the SM: the CTAs nest under it, so the lane's busy time is the
    /// SM span's alone, and the next launch's spans start a new group.
    #[test]
    fn sm_span_nests_the_cta_spans_recorded_before_it() {
        // Two launches; in the first, CTA 8 outlasts CTA 0, and the
        // second launch's SM span is shorter than the first's.
        let events = vec![
            ev("cta0", Phase::Complete, 0, 700, 0),
            ev("cta8", Phase::Complete, 0, 900, 0),
            sm("sm0", 0, 1000, 0, 2),
            ev("cta0", Phase::Complete, 0, 400, 0),
            sm("sm0", 0, 500, 0, 1),
        ];
        let lanes = lane_timelines(&events);
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].busy, 1500, "each launch's SM span, no CTA counted twice");
        let got: Vec<_> =
            lanes[0].spans.iter().map(|s| (s.name.as_str(), s.dur, s.depth)).collect();
        let want = [
            ("sm0", 1000, 0),
            ("cta0", 700, 1),
            ("cta8", 900, 1),
            ("sm0", 500, 0),
            ("cta0", 400, 1),
        ];
        assert_eq!(got, want);
        let text = render_text(&lanes);
        assert!(text.contains("\n    cta8 "), "a CTA prints one level in: {text}");
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
