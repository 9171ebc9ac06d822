//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer's public functions. Nothing inside the program is
//! instrumented. Spans live in memory and are summarised when the run ends.
//!
//! [`Traced`] wraps any [`AsyncBackend`] and opens a span around every
//! call the service makes into it, so the compile phase, submissions and
//! the scheduler's idle waits show up as children of the caller's span.

use orion_core::backend::{
    AsyncBackend, Backend, BackendCaps, Completion, LaunchRequest, TicketId,
};
use orion_core::compiler::{CompiledKernel, KernelVersion, TuningConfig};
use orion_core::error::OrionError;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_gpusim::sim::LaunchOptions;
use orion_kir::function::Module;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One closed span. Spans nest by `parent` on the thread that opened them.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

#[derive(Debug, Default)]
struct Spans {
    closed: Vec<Span>,
    stack: Vec<usize>,
}

/// In-memory span recorder. Spans must be opened and closed on one
/// thread (the benchmark's client thread, which is also the service's
/// scheduler thread).
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Spans>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let mut s = lock(&self.tracer.spans);
        s.closed[self.idx].end = Instant::now();
        s.stack.pop();
    }
}

impl Tracer {
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let mut s = lock(&self.spans);
        let idx = s.closed.len();
        let parent = s.stack.last().copied();
        let now = Instant::now();
        s.closed.push(Span { name, parent, start: now, end: now });
        s.stack.push(idx);
        SpanGuard { tracer: self, idx }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        lock(&self.spans).closed.clone()
    }
}

/// A span when tracing, nothing otherwise.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.span(name))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One row of the layer table: every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: usize,
    pub total_s: f64,
    /// Duration minus the time covered by child spans.
    pub self_s: f64,
}

/// Per-name totals and self times, plus the time no span covers:
/// `Σ self_s + residual = wall_s`.
pub fn layer_table(spans: &[Span], wall_s: f64) -> (Vec<LayerRow>, f64) {
    let dur = |s: &Span| s.end.duration_since(s.start).as_secs_f64();
    let mut child_s = vec![0.0; spans.len()];
    let mut top_s = 0.0;
    for s in spans {
        match s.parent {
            Some(p) => child_s[p] += dur(s),
            None => top_s += dur(s),
        }
    }
    let mut rows: Vec<LayerRow> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let row = match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => r,
            None => {
                rows.push(LayerRow { name: s.name, count: 0, total_s: 0.0, self_s: 0.0 });
                rows.last_mut().expect("just pushed")
            }
        };
        row.count += 1;
        row.total_s += dur(s);
        row.self_s += dur(s) - child_s[i];
    }
    (rows, wall_s - top_s)
}

/// What the backend saw, measured at its boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendTally {
    /// Launches submitted or run.
    pub launches: u64,
    /// Seconds launches waited in the pool queue ([`Completion`] field).
    pub queue_wait_s: f64,
    /// Seconds launches executed.
    pub exec_s: f64,
    /// Seconds from submission until the completion reached the caller.
    pub turnaround_s: f64,
    /// Pool size the service configured (0 = inline).
    pub pool: usize,
}

/// An [`AsyncBackend`] that forwards every call to `inner` inside a span.
pub struct Traced<B> {
    inner: B,
    tracer: Arc<Tracer>,
    tally: Mutex<(BackendTally, HashMap<TicketId, Instant>)>,
}

impl<B: AsyncBackend> Traced<B> {
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Self {
        Traced { inner, tracer, tally: Mutex::new((BackendTally::default(), HashMap::new())) }
    }

    pub fn tally(&self) -> BackendTally {
        lock(&self.tally).0
    }

    fn retire(&self, done: &[Completion]) {
        let now = Instant::now();
        let mut t = lock(&self.tally);
        for c in done {
            t.0.queue_wait_s += c.queue_wait_us as f64 * 1e-6;
            t.0.exec_s += c.exec_us as f64 * 1e-6;
            if let Some(at) = t.1.remove(&c.ticket) {
                t.0.turnaround_s += now.duration_since(at).as_secs_f64();
            }
        }
    }
}

impl<B: AsyncBackend> Backend for Traced<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn device_spec(&self) -> &DeviceSpec {
        self.inner.device_spec()
    }

    fn caps(&self) -> BackendCaps {
        self.inner.caps()
    }

    fn compile_probe(
        &self,
        module: &Module,
        cfg: &TuningConfig,
    ) -> Result<CompiledKernel, OrionError> {
        let _s = self.tracer.span("compiler.compile_probe");
        self.inner.compile_probe(module, cfg)
    }

    fn launch(
        &self,
        version: &KernelVersion,
        launch: Launch,
        params: &[u32],
        global: &mut [u8],
        opts: LaunchOptions,
    ) -> Result<u64, OrionError> {
        let start = Instant::now();
        let r = {
            let _s = self.tracer.span("backend.launch");
            self.inner.launch(version, launch, params, global, opts)
        };
        let d = start.elapsed().as_secs_f64();
        let mut t = lock(&self.tally);
        t.0.launches += 1;
        t.0.exec_s += d;
        t.0.turnaround_s += d;
        r
    }
}

impl<B: AsyncBackend> AsyncBackend for Traced<B> {
    fn submit(&self, req: LaunchRequest) -> TicketId {
        let at = Instant::now();
        let ticket = {
            let _s = self.tracer.span("backend.submit");
            self.inner.submit(req)
        };
        let mut t = lock(&self.tally);
        t.0.launches += 1;
        t.1.insert(ticket, at);
        ticket
    }

    fn poll_completions(&self) -> Vec<Completion> {
        let done = {
            let _s = self.tracer.span("backend.poll");
            self.inner.poll_completions()
        };
        self.retire(&done);
        done
    }

    fn wait_completions(&self) -> Vec<Completion> {
        let done = {
            let _s = self.tracer.span("backend.wait");
            self.inner.wait_completions()
        };
        self.retire(&done);
        done
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn configure_pool(&self, workers: usize) {
        lock(&self.tally).0.pool = workers;
        self.inner.configure_pool(workers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_residual_sum_to_the_wall() {
        let t = Tracer::default();
        let start = Instant::now();
        {
            let _a = t.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(3));
            let _b = t.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        let wall = start.elapsed().as_secs_f64();
        let (rows, residual) = layer_table(&t.spans(), wall);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].count, rows[1].count), (1, 1));
        let sum: f64 = rows.iter().map(|r| r.self_s).sum::<f64>() + residual;
        assert!((sum - wall).abs() < 1e-9);
        assert!(residual > 0.0 && rows[1].self_s > 0.0);
    }
}
