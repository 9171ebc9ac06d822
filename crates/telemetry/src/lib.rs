//! Structured-event telemetry for the Orion pipeline.
//!
//! The paper's whole premise (§3.3–3.4) is a feedback loop: the compiler
//! and runtime *observe* kernel behaviour and pick occupancy levels from
//! it. This crate is the observation side of *timing*: a lightweight
//! event API whose spans time the allocator's passes and each simulated
//! launch, whose simulator `complete` events lay out each launch's
//! per-SM timeline, plus exporters to Chrome `trace_event` JSON and a flat
//! metrics report. Facts (spill counts, fault tallies, retries, cache
//! hits, decisions) are not events: each lives once in its typed record
//! (`AllocReport`, `CompiledKernel`, `FaultSnapshot`, `ResilienceStats`,
//! `CompileCacheStats`, `ServiceReport`). Launch cycles are not here
//! either: each session's outcome holds every successful launch once
//! (`orion_core::session::SessionOutcome::iterations`), and its journal
//! holds each retry's backoff (`orion_core::session::JournalEvent`).
//!
//! [`timeline`] folds the event stream into a per-lane critical-path
//! view, keeping the two clock domains below in separate lanes.
//!
//! # Gating
//!
//! Recording has one gate, the run-time switch [`set_enabled`]. Every
//! probe is always compiled; until a collector (the profiler CLI, a
//! test, the benchmark) opts in, each one is a relaxed atomic load and
//! library users never pay for a global buffer they did not ask for.
//!
//! # Clock domains
//!
//! Wall-clock events ([`span`], [`instant`]) are stamped in
//! microseconds since the first probe. The simulator instead emits
//! *simulated-time* [`complete`] events whose `ts`/`dur` are in GPU
//! cycles with the SM index as `tid` ([`Event::clock`] tells them
//! apart). The two never share a lane: [`chrome::trace_json`] puts the
//! simulated events under a process of their own (one thread per SM on
//! a cycle axis), and [`timeline::lane_timelines`] gives them SM lanes
//! of their own.

pub mod chrome;
pub mod metrics;
pub mod timeline;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::sync::OnceLock;
use std::time::Instant;

/// Chrome `trace_event` phase of an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span open (`"B"`), paired with a later [`Phase::End`].
    Begin,
    /// Span close (`"E"`).
    End,
    /// Self-contained span with an explicit duration (`"X"`).
    Complete,
    /// Point event (`"i"`).
    Instant,
}

/// The clock an [`Event`]'s `ts` and `dur` are read on (see the crate
/// docs' clock domains). Spans on different clocks never share a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Clock {
    /// Host wall clock in microseconds ([`span`], [`instant`]); `tid`
    /// is the recording thread's scope lane.
    Wall,
    /// Simulated GPU cycles ([`complete`]); `tid` is the SM index.
    Sim,
}

impl Clock {
    /// The unit of a timestamp on this clock.
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            Clock::Wall => "us",
            Clock::Sim => "cycles",
        }
    }
}

/// A structured argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

/// One recorded telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Category: which subsystem emitted this (`"alloc"`, `"sim"`, ...).
    pub cat: &'static str,
    /// Event name; dynamic so call sites can label per-object events.
    pub name: String,
    pub ph: Phase,
    /// Microseconds since session start (wall-clock events), or
    /// simulated cycles ([`Phase::Complete`] events from the simulator).
    pub ts: u64,
    /// Duration, same unit as `ts`; only meaningful for `Complete`.
    pub dur: u64,
    /// Lane id for timeline rendering (SM index for simulator events,
    /// 0 for host-side events).
    pub tid: u32,
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Event {
    /// The clock this event's `ts`/`dur` are on: simulated cycles for
    /// [`Phase::Complete`] (only the simulator records those), the wall
    /// clock for every other phase.
    #[must_use]
    pub fn clock(&self) -> Clock {
        match self.ph {
            Phase::Complete => Clock::Sim,
            Phase::Begin | Phase::End | Phase::Instant => Clock::Wall,
        }
    }
}

static ON: AtomicBool = AtomicBool::new(false);

std::thread_local! {
    /// Per-thread session lane stamped into wall-clock events' `tid`.
    static SCOPE: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Set this thread's telemetry *scope lane*: every wall-clock event
/// ([`span`], [`instant`]) recorded by this thread carries
/// it as `tid`, so concurrent tuning sessions stay separable in one
/// shared trace (`OrionService` assigns one lane per kernel session).
/// Lane `0` is the unscoped default and keeps the pre-scoping output
/// byte-identical. Simulator [`complete`] events pass their own `tid`
/// (the SM index) and are unaffected.
pub fn set_scope(lane: u32) {
    SCOPE.with(|s| s.set(lane));
}

/// This thread's current telemetry scope lane (0 = unscoped).
pub fn scope() -> u32 {
    SCOPE.with(std::cell::Cell::get)
}

static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());

static START: OnceLock<Instant> = OnceLock::new();

/// Whether recording is switched on.
#[inline]
pub fn is_enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Turn recording on or off. Enabling anchors the wall clock if it
/// isn't yet.
pub fn set_enabled(on: bool) {
    if on {
        START.get_or_init(Instant::now);
    }
    ON.store(on, Ordering::Relaxed);
}

/// Drop all buffered events (e.g. between profiling sessions).
pub fn clear() {
    EVENTS.lock().unwrap().clear();
}

/// Take ownership of every event recorded so far, in recording order.
pub fn take_events() -> Vec<Event> {
    std::mem::take(&mut *EVENTS.lock().unwrap())
}

#[inline]
fn now_us() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_micros() as u64
}

#[inline]
fn push(event: Event) {
    EVENTS.lock().unwrap().push(event);
}

/// Record a point event with arguments.
#[inline]
pub fn instant(cat: &'static str, name: &str, args: Vec<(&'static str, ArgValue)>) {
    if is_enabled() {
        push(Event {
            cat,
            name: name.to_string(),
            ph: Phase::Instant,
            ts: now_us(),
            dur: 0,
            tid: scope(),
            args,
        });
    }
}

/// Record a self-contained span on an explicit timeline: `ts`/`dur` are
/// caller-supplied (the simulator passes GPU cycles) and `tid` selects
/// the rendering lane (SM index).
#[inline]
pub fn complete(
    cat: &'static str,
    name: &str,
    tid: u32,
    ts: u64,
    dur: u64,
    args: Vec<(&'static str, ArgValue)>,
) {
    if is_enabled() {
        push(Event { cat, name: name.to_string(), ph: Phase::Complete, ts, dur, tid, args });
    }
}

/// Open a wall-clock span, closed when the returned guard drops.
#[must_use = "the span closes when the guard is dropped"]
#[inline]
pub fn span(cat: &'static str, name: &str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { open: None };
    }
    push(Event {
        cat,
        name: name.to_string(),
        ph: Phase::Begin,
        ts: now_us(),
        dur: 0,
        tid: scope(),
        args: Vec::new(),
    });
    SpanGuard { open: Some((cat, name.to_string())) }
}

/// RAII guard closing a [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<(&'static str, String)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((cat, name)) = self.open.take() {
            push(Event {
                cat,
                name,
                ph: Phase::End,
                ts: now_us(),
                dur: 0,
                tid: scope(),
                args: Vec::new(),
            });
        }
    }
}

/// Escape a string for embedding in a JSON document (shared by the
/// exporters; this crate is intentionally dependency-free).
pub(crate) fn escape_json(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn write_arg_value(out: &mut String, v: &ArgValue) {
    use std::fmt::Write;
    match v {
        ArgValue::U64(x) => {
            let _ = write!(out, "{x}");
        }
        ArgValue::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        ArgValue::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        ArgValue::Str(x) => escape_json(out, x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Recording tests live in the workspace integration tests; no test
    // in this crate turns the switch on, so it stays off here.
    #[test]
    fn disabled_by_default_and_guards_are_cheap() {
        assert!(!is_enabled());
        instant("t", "i", vec![("k", ArgValue::from(2u64))]);
        complete("t", "x", 0, 0, 10, vec![]);
        drop(span("t", "s"));
        assert!(take_events().is_empty(), "probes with the switch off recorded events");
    }

    #[test]
    fn escape_json_handles_controls() {
        let mut s = String::new();
        escape_json(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
