//! Bounded structured run journal.
//!
//! The event buffer ([`crate::take_events`]) answers "what happened on
//! the timeline"; the journal answers "what *decisions* did the runtime
//! take". It is a fixed-capacity ring of **typed** records — session
//! transitions, retries, quarantines, cache evictions, fault injections —
//! so a long-running service keeps the most recent history at a bounded
//! memory cost and a report can enumerate machine-readable causes rather
//! than grepping span names.
//!
//! Records carry a global monotonically increasing `seq`, so after an
//! overflow the drain still reveals both *that* records were lost
//! ([`JournalDrain::dropped`]) and *where* the gap sits (the first
//! retained `seq`). Recording is double-gated exactly like the event
//! buffer: compiled out without the `enabled` feature, and inert until
//! [`crate::set_enabled`] opts in.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::escape_json;

/// Default ring capacity; tuned so a chaotic service batch fits with
/// headroom while a runaway retry loop stays bounded.
pub const DEFAULT_CAPACITY: usize = 4096;

/// A typed journal entry. Variants are the runtime's *decision taxonomy*;
/// adding one here (not a stringly category) is the contract for new
/// subsystems.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A tuning session moved between states.
    SessionTransition { kernel: String, from: &'static str, to: &'static str },
    /// A kernel version accumulated enough strikes to be quarantined.
    Quarantine { kernel: String, version: usize, strikes: u32 },
    /// A transient launch failure scheduled a retry.
    Retry { kernel: String, version: usize, attempt: u32, backoff_cycles: u64 },
    /// The runtime fell back to a safer kernel version.
    Fallback { kernel: String, version: usize },
    /// The compile cache evicted entries to stay within capacity.
    CacheEvicted { entries: u64 },
    /// The simulator injected a fault into a launch.
    FaultInjected { kind: &'static str, launch: u64 },
    /// A launch exceeded its watchdog cycle budget.
    Watchdog { kernel: String, budget_cycles: u64 },
    /// A job reached its deadline and resolved to its fail-safe version.
    Degraded { kernel: String },
    /// A worker panicked mid-session; the kernel was quarantined.
    SessionPanic { kernel: String },
    /// The poisoned compile cache was cleared and returned to service.
    PoisonRecovered,
    /// A search policy committed a decision: pruned its arm set,
    /// finalized a candidate, or fell back. `policy` names the policy
    /// ("paper_walk", "bandit"), `action` the decision kind
    /// ("prune", "finalize", "fallback"), `candidate` the arm acted on
    /// (for "prune": the number of arms dropped).
    PolicyDecision { policy: &'static str, action: &'static str, candidate: usize },
    /// Free-form marker for subsystems without a dedicated variant yet.
    Note { cat: &'static str, name: String },
}

impl JournalEvent {
    /// Stable lowercase tag naming the variant (used as the JSON `"event"`
    /// field and for filtering).
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            JournalEvent::SessionTransition { .. } => "session_transition",
            JournalEvent::Quarantine { .. } => "quarantine",
            JournalEvent::Retry { .. } => "retry",
            JournalEvent::Fallback { .. } => "fallback",
            JournalEvent::CacheEvicted { .. } => "cache_evicted",
            JournalEvent::FaultInjected { .. } => "fault_injected",
            JournalEvent::Watchdog { .. } => "watchdog",
            JournalEvent::Degraded { .. } => "degraded",
            JournalEvent::SessionPanic { .. } => "session_panic",
            JournalEvent::PoisonRecovered => "poison_recovered",
            JournalEvent::PolicyDecision { .. } => "policy_decision",
            JournalEvent::Note { .. } => "note",
        }
    }
}

/// One journal record: a [`JournalEvent`] plus ordering metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Global sequence number (starts at 0, never reused; survives
    /// overflow so drains can report gaps).
    pub seq: u64,
    /// Microseconds since telemetry session start.
    pub ts_us: u64,
    /// The recording thread's scope lane ([`crate::scope`]).
    pub lane: u32,
    pub event: JournalEvent,
}

/// Everything currently retained by the journal, oldest first, plus the
/// count of records lost to ring overflow since the last drain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalDrain {
    pub records: Vec<JournalRecord>,
    pub dropped: u64,
}

impl JournalDrain {
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.dropped == 0
    }

    /// Count retained records matching a tag (see [`JournalEvent::tag`]).
    #[must_use]
    pub fn count_tag(&self, tag: &str) -> usize {
        self.records.iter().filter(|r| r.event.tag() == tag).count()
    }

    /// Render as a JSON array of record objects (oldest first). Dropped
    /// counts are the consumer's to report; this is just the retained log.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 96 + 16);
        out.push('[');
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            write_record(&mut out, r);
        }
        out.push_str("\n]\n");
        out
    }
}

fn write_record(out: &mut String, r: &JournalRecord) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"ts_us\":{},\"lane\":{},\"event\":\"{}\"",
        r.seq,
        r.ts_us,
        r.lane,
        r.event.tag()
    );
    match &r.event {
        JournalEvent::SessionTransition { kernel, from, to } => {
            out.push_str(",\"kernel\":");
            escape_json(out, kernel);
            let _ = write!(out, ",\"from\":\"{from}\",\"to\":\"{to}\"");
        }
        JournalEvent::Quarantine { kernel, version, strikes } => {
            out.push_str(",\"kernel\":");
            escape_json(out, kernel);
            let _ = write!(out, ",\"version\":{version},\"strikes\":{strikes}");
        }
        JournalEvent::Retry { kernel, version, attempt, backoff_cycles } => {
            out.push_str(",\"kernel\":");
            escape_json(out, kernel);
            let _ = write!(
                out,
                ",\"version\":{version},\"attempt\":{attempt},\"backoff_cycles\":{backoff_cycles}"
            );
        }
        JournalEvent::Fallback { kernel, version } => {
            out.push_str(",\"kernel\":");
            escape_json(out, kernel);
            let _ = write!(out, ",\"version\":{version}");
        }
        JournalEvent::CacheEvicted { entries } => {
            let _ = write!(out, ",\"entries\":{entries}");
        }
        JournalEvent::FaultInjected { kind, launch } => {
            let _ = write!(out, ",\"kind\":\"{kind}\",\"launch\":{launch}");
        }
        JournalEvent::Watchdog { kernel, budget_cycles } => {
            out.push_str(",\"kernel\":");
            escape_json(out, kernel);
            let _ = write!(out, ",\"budget_cycles\":{budget_cycles}");
        }
        JournalEvent::Degraded { kernel } | JournalEvent::SessionPanic { kernel } => {
            out.push_str(",\"kernel\":");
            escape_json(out, kernel);
        }
        JournalEvent::PoisonRecovered => {}
        JournalEvent::PolicyDecision { policy, action, candidate } => {
            let _ = write!(
                out,
                ",\"policy\":\"{policy}\",\"action\":\"{action}\",\"candidate\":{candidate}"
            );
        }
        JournalEvent::Note { cat, name } => {
            let _ = write!(out, ",\"cat\":\"{cat}\",\"name\":");
            escape_json(out, name);
        }
    }
    out.push('}');
}

struct Ring {
    records: VecDeque<JournalRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl Ring {
    const fn new() -> Self {
        Ring { records: VecDeque::new(), capacity: DEFAULT_CAPACITY, next_seq: 0, dropped: 0 }
    }
}

static RING: Mutex<Ring> = Mutex::new(Ring::new());

/// Append a record to the journal. Double-gated like [`crate::counter`]:
/// compiles away without the `enabled` feature, records nothing until
/// [`crate::set_enabled`].
#[inline]
pub fn record(event: JournalEvent) {
    #[cfg(feature = "enabled")]
    if crate::is_enabled() {
        record_always(event);
        return;
    }
    let _ = event;
}

/// Append unconditionally (used by tests; production call sites go
/// through [`record`]).
pub fn record_always(event: JournalEvent) {
    let ts_us = crate::current_us();
    let lane = crate::scope();
    let mut ring = RING.lock().unwrap();
    let seq = ring.next_seq;
    ring.next_seq += 1;
    if ring.capacity == 0 {
        ring.dropped += 1;
        return;
    }
    while ring.records.len() >= ring.capacity {
        ring.records.pop_front();
        ring.dropped += 1;
    }
    ring.records.push_back(JournalRecord { seq, ts_us, lane, event });
}

/// Take every retained record (oldest first) and the overflow count,
/// resetting both. Sequence numbers keep counting across drains.
pub fn drain() -> JournalDrain {
    let mut ring = RING.lock().unwrap();
    JournalDrain {
        records: std::mem::take(&mut ring.records).into(),
        dropped: std::mem::take(&mut ring.dropped),
    }
}

/// Resize the ring. Shrinking discards oldest records (counted as
/// dropped). Capacity 0 drops everything immediately.
pub fn set_capacity(capacity: usize) {
    let mut ring = RING.lock().unwrap();
    ring.capacity = capacity;
    while ring.records.len() > capacity {
        ring.records.pop_front();
        ring.dropped += 1;
    }
}

/// Reset records, drop count and sequence numbering (between tests /
/// profiling sessions).
pub fn clear() {
    let mut ring = RING.lock().unwrap();
    ring.records.clear();
    ring.dropped = 0;
    ring.next_seq = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring is process-global, so every test serialises on this lock
    // and starts from a clean, default-capacity journal.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_clean_journal(f: impl FnOnce()) {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        set_capacity(DEFAULT_CAPACITY);
        f();
        clear();
        set_capacity(DEFAULT_CAPACITY);
    }

    fn note(name: &str) -> JournalEvent {
        JournalEvent::Note { cat: "test", name: name.to_string() }
    }

    #[test]
    fn records_and_drains_in_order() {
        with_clean_journal(|| {
            record_always(note("a"));
            record_always(JournalEvent::Retry {
                kernel: "matrixMul".into(),
                version: 2,
                attempt: 1,
                backoff_cycles: 2000,
            });
            let d = drain();
            assert_eq!(d.records.len(), 2);
            assert_eq!(d.dropped, 0);
            assert_eq!(d.records[0].seq, 0);
            assert_eq!(d.records[1].seq, 1);
            assert_eq!(d.records[1].event.tag(), "retry");
            // Drained: the ring is now empty.
            assert!(drain().is_empty());
        });
    }

    #[test]
    fn overflow_keeps_newest_and_counts_drops() {
        with_clean_journal(|| {
            set_capacity(4);
            for i in 0..10 {
                record_always(note(&format!("e{i}")));
            }
            let d = drain();
            assert_eq!(d.records.len(), 4);
            assert_eq!(d.dropped, 6);
            // Newest four retained, oldest first.
            let names: Vec<_> = d
                .records
                .iter()
                .map(|r| match &r.event {
                    JournalEvent::Note { name, .. } => name.clone(),
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(names, ["e6", "e7", "e8", "e9"]);
            // seq reveals the gap.
            assert_eq!(d.records[0].seq, 6);
        });
    }

    #[test]
    fn shrink_discards_oldest() {
        with_clean_journal(|| {
            for i in 0..6 {
                record_always(note(&format!("e{i}")));
            }
            set_capacity(2);
            let d = drain();
            assert_eq!(d.records.len(), 2);
            assert_eq!(d.dropped, 4);
            assert_eq!(d.records[0].seq, 4);
        });
    }

    #[test]
    fn zero_capacity_drops_everything() {
        with_clean_journal(|| {
            set_capacity(0);
            record_always(note("x"));
            let d = drain();
            assert!(d.records.is_empty());
            assert_eq!(d.dropped, 1);
        });
    }

    #[test]
    fn json_renders_typed_fields() {
        with_clean_journal(|| {
            record_always(JournalEvent::Quarantine {
                kernel: "bp\"1".into(),
                version: 3,
                strikes: 3,
            });
            record_always(JournalEvent::CacheEvicted { entries: 2 });
            let d = drain();
            let j = d.to_json();
            assert!(j.contains("\"event\":\"quarantine\""), "{j}");
            assert!(j.contains("\"kernel\":\"bp\\\"1\""), "{j}");
            assert!(j.contains("\"entries\":2"), "{j}");
            assert!(j.trim_start().starts_with('['));
        });
    }

    #[test]
    fn gated_record_is_inert_when_disabled() {
        with_clean_journal(|| {
            // set_enabled(false) is the default state; the gated entry
            // point must not record. (When another test in the process
            // has enabled telemetry, skip — the gate is shared.)
            if crate::is_enabled() {
                return;
            }
            record(note("invisible"));
            assert!(drain().is_empty());
        });
    }
}
