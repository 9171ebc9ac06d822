//! Device-agnostic execution backends.
//!
//! Everything above this module — the [`TuningSession`] walk, the
//! [`OrionService`] scheduler, the benches — used to call the simulator
//! directly, which welded the tuning logic to `orion-gpusim`. The
//! [`Backend`] trait is the seam: *compile a kernel into candidate
//! versions, launch one version, tell me about the device* — nothing
//! else. The paper's runtime needs exactly that surface, so a PTX
//! backend targeting real GPUs (see ROADMAP) slots in underneath
//! without touching a line of tuning code.
//!
//! Two implementations ship:
//!
//! * [`SimBackend`] — the `orion-gpusim` simulated device; it applies
//!   the fault draw a launch carries in [`LaunchOptions::faults`]
//!   (chaos runs draw them per job, `ServiceConfig::chaos`);
//! * [`ReplayBackend`] — a scripted backend that plays back a recorded
//!   (or hand-written) sequence of per-version launch outcomes. It
//!   never executes anything, which makes session-level tests — e.g.
//!   "quarantine every version and check the decision log" —
//!   deterministic, instant, and independent of the simulator.
//!
//! ## Asynchronous submission
//!
//! The event-loop service plane needs more than the blocking
//! [`Backend::launch`]: one scheduler thread multiplexing many sessions
//! must be able to *submit* a launch and move on. [`AsyncBackend`] is
//! that extension — [`AsyncBackend::submit`] hands back a [`TicketId`]
//! immediately, and [`AsyncBackend::poll_completions`] /
//! [`AsyncBackend::wait_completions`] deliver [`Completion`]s as
//! launches retire. [`SimBackend`] executes submissions on an internal
//! worker pool (sized by [`AsyncBackend::configure_pool`]; size 0 runs
//! them inline on the submitter); [`ReplayBackend`] completes
//! synchronously at submit time; [`InlineAsync`] adapts any other
//! [`Backend`] the same way. A launch that *panics* never loses its
//! ticket: the panic is caught on the executing thread and surfaces as
//! an [`OrionError::SessionPanicked`] completion.
//!
//! [`TuningSession`]: crate::session::TuningSession
//! [`OrionService`]: crate::service::OrionService

use crate::compiler::{compile, CompiledKernel, KernelVersion, TuningConfig};
use crate::error::OrionError;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::{Launch, SimError};
use orion_gpusim::sim::{run_launch_opts, LaunchOptions};
use orion_kir::function::Module;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// What a [`Backend`] can and cannot do. Callers branch on these
/// instead of downcasting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendCaps {
    /// Identical inputs produce bit-identical cycle counts. True for
    /// the simulator and replay; false for real hardware.
    pub deterministic: bool,
}

/// A device that can compile Orion candidate versions and launch them.
///
/// The contract is deliberately small — the tuning layers only ever
/// compile once and then launch versions repeatedly. `Sync` is
/// required so [`OrionService`](crate::service::OrionService) can share
/// one backend across session worker threads.
pub trait Backend: Sync {
    /// Human-readable backend name (appears in telemetry and benches).
    fn name(&self) -> &'static str;

    /// The device this backend executes on.
    fn device_spec(&self) -> &DeviceSpec;

    /// Capability flags.
    fn caps(&self) -> BackendCaps;

    /// Run the compile-time stage (Figure 8): verify, pick a tuning
    /// direction, and realize candidate versions for this device.
    ///
    /// # Errors
    /// Propagates verification/allocation failures.
    fn compile_probe(
        &self,
        module: &Module,
        cfg: &TuningConfig,
    ) -> Result<CompiledKernel, OrionError>;

    /// Launch one version once and return its cycle count. The
    /// version's driver-side settings (padding and L1/shared split,
    /// [`KernelVersion::launch_options`]) are wired in by the backend;
    /// `opts` carries everything else (CTA range for splitting, cycle
    /// budgets, parallelism, injected faults).
    ///
    /// # Errors
    /// Propagates launch/execution failures.
    fn launch(
        &self,
        version: &KernelVersion,
        launch: Launch,
        params: &[u32],
        global: &mut [u8],
        opts: LaunchOptions,
    ) -> Result<u64, OrionError>;
}

/// Identifies one asynchronous launch submission on one backend.
/// Allocated monotonically per backend instance; never reused within
/// one instance's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TicketId(pub u64);

/// An owned, self-contained launch for [`AsyncBackend::submit`]: the
/// executing thread needs no borrows back into the submitter. The
/// `global` image moves in with the request and comes back in the
/// [`Completion`], so per-job memory isolation survives the handoff.
#[derive(Debug, Clone)]
pub struct LaunchRequest {
    /// The compiled candidate set (shared, immutable).
    pub kernel: Arc<CompiledKernel>,
    /// Index into `kernel.versions` to launch.
    pub version: usize,
    /// Launch geometry.
    pub launch: Launch,
    /// Kernel parameters.
    pub params: Vec<u32>,
    /// Global-memory image; mutated by the launch and returned in the
    /// completion (possibly torn if the launch panicked).
    pub global: Vec<u8>,
    /// Launch options (CTA range, budgets, scheduler, parallelism,
    /// injected faults).
    pub opts: LaunchOptions,
    /// Telemetry lane the executing thread stamps
    /// ([`orion_telemetry::set_scope`]) so traces stay attributable.
    pub lane: u32,
}

/// A retired asynchronous launch.
#[derive(Debug)]
pub struct Completion {
    /// The ticket [`AsyncBackend::submit`] returned for this launch.
    pub ticket: TicketId,
    /// Cycle count, or the launch failure. A panic on the executing
    /// thread is converted to [`OrionError::SessionPanicked`] — a
    /// submitted launch always completes.
    pub result: Result<u64, OrionError>,
    /// The request's global image, handed back to the owner.
    pub global: Vec<u8>,
    /// Wall-clock microseconds the request waited in the backend queue
    /// before a worker picked it up. **Not** deterministic — excluded
    /// from every bit-equality gate.
    pub queue_wait_us: u64,
    /// Wall-clock microseconds the launch spent executing. **Not**
    /// deterministic either.
    pub exec_us: u64,
}

/// Non-blocking submission on top of [`Backend`] — the seam the
/// event-loop service plane schedules against.
///
/// Contract:
///
/// * every [`AsyncBackend::submit`] eventually yields exactly one
///   [`Completion`] carrying its ticket (panics included);
/// * [`AsyncBackend::wait_completions`] blocks until at least one
///   completion is deliverable, and returns empty only when nothing is
///   in flight;
/// * completion *order* across distinct tickets is unspecified (pool
///   backends retire in wall-clock order), so callers must key off the
///   ticket, never the position.
pub trait AsyncBackend: Backend {
    /// Enqueue one launch; returns immediately.
    fn submit(&self, req: LaunchRequest) -> TicketId;

    /// Deliver every completion retired so far without blocking.
    fn poll_completions(&self) -> Vec<Completion>;

    /// Block until at least one completion is deliverable and return
    /// the batch; returns empty immediately if nothing is in flight.
    fn wait_completions(&self) -> Vec<Completion>;

    /// Submissions not yet delivered through
    /// [`AsyncBackend::poll_completions`] /
    /// [`AsyncBackend::wait_completions`].
    fn in_flight(&self) -> usize;

    /// Resize the backend's execution pool (best effort; inline
    /// backends ignore it). `0` executes submissions on the submitter
    /// thread.
    fn configure_pool(&self, workers: usize) {
        let _ = workers;
    }
}

/// Human-readable detail from a caught panic payload.
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run one [`LaunchRequest`] against a closure, converting a panic into
/// an [`OrionError::SessionPanicked`] so the ticket still completes.
fn guarded_launch(
    req: &LaunchRequest,
    global: &mut [u8],
    f: impl FnOnce(&KernelVersion, Launch, &[u32], &mut [u8], LaunchOptions) -> Result<u64, OrionError>,
) -> Result<u64, OrionError> {
    let Some(version) = req.kernel.versions.get(req.version) else {
        return Err(OrionError::Tuner(format!(
            "async launch requested version {} of a {}-version kernel",
            req.version,
            req.kernel.versions.len()
        )));
    };
    catch_unwind(AssertUnwindSafe(|| f(version, req.launch, &req.params, global, req.opts)))
        .unwrap_or_else(|payload| {
            Err(OrionError::SessionPanicked { detail: panic_detail(payload.as_ref()) })
        })
}

/// Completion mailbox shared by every [`AsyncBackend`] implementation
/// here: tickets, the retired-completion queue, and the in-flight
/// account (submitted and not yet *delivered*).
#[derive(Debug, Default)]
struct Mailbox {
    next_ticket: AtomicU64,
    done: Mutex<Vec<Completion>>,
    done_cv: Condvar,
    in_flight: AtomicUsize,
}

impl Mailbox {
    fn issue(&self) -> TicketId {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        TicketId(self.next_ticket.fetch_add(1, Ordering::Relaxed))
    }

    fn retire(&self, completion: Completion) {
        self.done.lock().unwrap_or_else(PoisonError::into_inner).push(completion);
        self.done_cv.notify_all();
    }

    fn deliver(&self, batch: Vec<Completion>) -> Vec<Completion> {
        self.in_flight.fetch_sub(batch.len(), Ordering::SeqCst);
        batch
    }

    fn poll(&self) -> Vec<Completion> {
        let batch = std::mem::take(&mut *self.done.lock().unwrap_or_else(PoisonError::into_inner));
        self.deliver(batch)
    }

    fn wait(&self) -> Vec<Completion> {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !done.is_empty() {
                let batch = std::mem::take(&mut *done);
                drop(done);
                return self.deliver(batch);
            }
            if self.in_flight.load(Ordering::SeqCst) == 0 {
                return Vec::new();
            }
            done = self.done_cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }
}

/// The simulated device plus whatever the pool workers need — shared
/// between the owning [`SimBackend`] and its worker threads.
#[derive(Debug)]
struct SimCore {
    dev: DeviceSpec,
}

impl SimCore {
    fn launch(
        &self,
        version: &KernelVersion,
        launch: Launch,
        params: &[u32],
        global: &mut [u8],
        opts: LaunchOptions,
    ) -> Result<u64, OrionError> {
        let opts = version.launch_options(opts);
        Ok(run_launch_opts(&self.dev, &version.machine, launch, params, global, opts)?.cycles)
    }
}

/// Work queue feeding the [`SimBackend`] pool threads.
#[derive(Debug, Default)]
struct PoolQueue {
    queue: Mutex<VecDeque<(TicketId, LaunchRequest, Instant)>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

/// The `orion-gpusim` simulated device as a [`Backend`].
///
/// As an [`AsyncBackend`] it owns a lazily-spawned worker pool:
/// [`AsyncBackend::configure_pool`] sets the target size, submissions
/// queue through an internal pool queue, and each worker retires
/// launches into a shared completion mailbox. With a pool size of 0
/// (the default)
/// submissions execute inline on the submitter thread — the exact
/// sequential semantics of [`Backend::launch`].
#[derive(Debug)]
pub struct SimBackend {
    core: Arc<SimCore>,
    mailbox: Arc<Mailbox>,
    pool: Arc<PoolQueue>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    pool_target: AtomicUsize,
}

impl SimBackend {
    /// A simulator backend.
    #[must_use]
    pub fn new(dev: DeviceSpec) -> Self {
        SimBackend {
            core: Arc::new(SimCore { dev }),
            mailbox: Arc::new(Mailbox::default()),
            pool: Arc::new(PoolQueue::default()),
            workers: Mutex::new(Vec::new()),
            pool_target: AtomicUsize::new(0),
        }
    }

    /// Ensure the worker pool matches the configured target (spawn-only;
    /// shrinking waits for [`Drop`]).
    fn ensure_workers(&self) {
        let target = self.pool_target.load(Ordering::SeqCst);
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        while workers.len() < target {
            let core = Arc::clone(&self.core);
            let mailbox = Arc::clone(&self.mailbox);
            let pool = Arc::clone(&self.pool);
            workers.push(std::thread::spawn(move || loop {
                let item = {
                    let mut queue = pool.queue.lock().unwrap_or_else(PoisonError::into_inner);
                    loop {
                        if let Some(item) = queue.pop_front() {
                            break Some(item);
                        }
                        if pool.shutdown.load(Ordering::SeqCst) {
                            break None;
                        }
                        queue = pool.work_cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                let Some((ticket, mut req, queued_at)) = item else { return };
                let queue_wait_us = queued_at.elapsed().as_micros() as u64;
                orion_telemetry::set_scope(req.lane);
                let exec_start = Instant::now();
                let mut global = std::mem::take(&mut req.global);
                let result =
                    guarded_launch(&req, &mut global, |v, l, p, g, o| core.launch(v, l, p, g, o));
                mailbox.retire(Completion {
                    ticket,
                    result,
                    global,
                    queue_wait_us,
                    exec_us: exec_start.elapsed().as_micros() as u64,
                });
            }));
        }
    }
}

impl Drop for SimBackend {
    fn drop(&mut self) {
        self.pool.shutdown.store(true, Ordering::SeqCst);
        self.pool.work_cv.notify_all();
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "gpusim"
    }

    fn device_spec(&self) -> &DeviceSpec {
        &self.core.dev
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps { deterministic: true }
    }

    fn compile_probe(
        &self,
        module: &Module,
        cfg: &TuningConfig,
    ) -> Result<CompiledKernel, OrionError> {
        compile(module, &self.core.dev, cfg)
    }

    fn launch(
        &self,
        version: &KernelVersion,
        launch: Launch,
        params: &[u32],
        global: &mut [u8],
        opts: LaunchOptions,
    ) -> Result<u64, OrionError> {
        self.core.launch(version, launch, params, global, opts)
    }
}

impl AsyncBackend for SimBackend {
    fn submit(&self, mut req: LaunchRequest) -> TicketId {
        let ticket = self.mailbox.issue();
        if self.pool_target.load(Ordering::SeqCst) == 0 {
            // Inline path: execute on the submitter, complete at once.
            let mut global = std::mem::take(&mut req.global);
            let exec_start = Instant::now();
            let result =
                guarded_launch(&req, &mut global, |v, l, p, g, o| self.core.launch(v, l, p, g, o));
            self.mailbox.retire(Completion {
                ticket,
                result,
                global,
                queue_wait_us: 0,
                exec_us: exec_start.elapsed().as_micros() as u64,
            });
            return ticket;
        }
        self.ensure_workers();
        self.pool.queue.lock().unwrap_or_else(PoisonError::into_inner).push_back((
            ticket,
            req,
            Instant::now(),
        ));
        self.pool.work_cv.notify_one();
        ticket
    }

    fn poll_completions(&self) -> Vec<Completion> {
        self.mailbox.poll()
    }

    fn wait_completions(&self) -> Vec<Completion> {
        self.mailbox.wait()
    }

    fn in_flight(&self) -> usize {
        self.mailbox.in_flight()
    }

    fn configure_pool(&self, workers: usize) {
        self.pool_target.store(workers, Ordering::SeqCst);
        if workers > 0 {
            self.ensure_workers();
        }
    }
}

/// A scripted [`Backend`] for deterministic tests: per version label, a
/// queue of launch outcomes played back in order. Once a queue runs
/// dry its *last* outcome repeats forever (steady state), and a version
/// with no script at all yields [`ReplayBackend::default_cycles`] —
/// so short scripts drive arbitrarily long sessions.
///
/// `compile_probe` compiles for real (compilation is already
/// deterministic); only launches are replayed. The `global` buffer is
/// left untouched — replay reproduces *timing and failures*, not data.
#[derive(Debug)]
pub struct ReplayBackend {
    dev: DeviceSpec,
    script: Mutex<HashMap<String, VecDeque<Result<u64, SimError>>>>,
    default_cycles: u64,
    mailbox: Mailbox,
}

impl ReplayBackend {
    /// An empty-script replay backend; every launch of every version
    /// returns `default_cycles` until scripted otherwise.
    #[must_use]
    pub fn new(dev: DeviceSpec, default_cycles: u64) -> Self {
        ReplayBackend {
            dev,
            script: Mutex::new(HashMap::new()),
            default_cycles,
            mailbox: Mailbox::default(),
        }
    }

    /// Append outcomes to the queue for the version labeled `label`.
    /// Builder-style; call repeatedly to interleave successes and
    /// failures.
    #[must_use]
    pub fn script(
        self,
        label: impl Into<String>,
        outcomes: impl IntoIterator<Item = Result<u64, SimError>>,
    ) -> Self {
        self.script.lock().unwrap().entry(label.into()).or_default().extend(outcomes);
        self
    }

    /// The fallback cycle count for unscripted versions.
    #[must_use]
    pub fn default_cycles(&self) -> u64 {
        self.default_cycles
    }

    /// The scripted outcome for one launch of `label`.
    fn play(&self, label: &str) -> Result<u64, SimError> {
        let mut script = self.script.lock().unwrap();
        match script.get_mut(label) {
            Some(queue) => match queue.len() {
                0 => Ok(self.default_cycles),
                // Keep the last outcome as the version's steady state.
                1 => queue.front().cloned().expect("len checked"),
                _ => queue.pop_front().expect("len checked"),
            },
            None => Ok(self.default_cycles),
        }
    }
}

impl Backend for ReplayBackend {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn device_spec(&self) -> &DeviceSpec {
        &self.dev
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps { deterministic: true }
    }

    fn compile_probe(
        &self,
        module: &Module,
        cfg: &TuningConfig,
    ) -> Result<CompiledKernel, OrionError> {
        compile(module, &self.dev, cfg)
    }

    fn launch(
        &self,
        version: &KernelVersion,
        _launch: Launch,
        _params: &[u32],
        _global: &mut [u8],
        _opts: LaunchOptions,
    ) -> Result<u64, OrionError> {
        self.play(&version.label).map_err(OrionError::from)
    }
}

/// Execute a submission synchronously through [`Backend::launch`] and
/// retire its completion at once — the inline [`AsyncBackend`] path
/// shared by [`ReplayBackend`] and [`InlineAsync`].
fn inline_submit<B: Backend + ?Sized>(
    backend: &B,
    mailbox: &Mailbox,
    mut req: LaunchRequest,
) -> TicketId {
    let ticket = mailbox.issue();
    let mut global = std::mem::take(&mut req.global);
    let exec_start = Instant::now();
    let result = guarded_launch(&req, &mut global, |v, l, p, g, o| backend.launch(v, l, p, g, o));
    mailbox.retire(Completion {
        ticket,
        result,
        global,
        queue_wait_us: 0,
        exec_us: exec_start.elapsed().as_micros() as u64,
    });
    ticket
}

impl AsyncBackend for ReplayBackend {
    fn submit(&self, req: LaunchRequest) -> TicketId {
        inline_submit(self, &self.mailbox, req)
    }

    fn poll_completions(&self) -> Vec<Completion> {
        self.mailbox.poll()
    }

    fn wait_completions(&self) -> Vec<Completion> {
        self.mailbox.wait()
    }

    fn in_flight(&self) -> usize {
        self.mailbox.in_flight()
    }
}

/// Adapt any [`Backend`] into an [`AsyncBackend`] that completes every
/// submission synchronously on the submitter thread — the bridge for
/// custom test backends (and any future backend without a native
/// submission queue) into the event-loop service plane.
#[derive(Debug)]
pub struct InlineAsync<B: Backend> {
    inner: B,
    mailbox: Mailbox,
}

impl<B: Backend> InlineAsync<B> {
    /// Wrap `inner`; launches execute inline at submit time.
    #[must_use]
    pub fn new(inner: B) -> Self {
        InlineAsync { inner, mailbox: Mailbox::default() }
    }

    /// The wrapped backend.
    #[must_use]
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: Backend> Backend for InlineAsync<B> {
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
        self.inner.launch(version, launch, params, global, opts)
    }
}

impl<B: Backend> AsyncBackend for InlineAsync<B> {
    fn submit(&self, req: LaunchRequest) -> TicketId {
        inline_submit(&self.inner, &self.mailbox, req)
    }

    fn poll_completions(&self) -> Vec<Completion> {
        self.mailbox.poll()
    }

    fn wait_completions(&self) -> Vec<Completion> {
        self.mailbox.wait()
    }

    fn in_flight(&self) -> usize {
        self.mailbox.in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Direction;
    use crate::version::CandidateSpace;
    use orion_gpusim::device::CacheConfig;
    use orion_kir::builder::FunctionBuilder;
    use orion_kir::inst::Operand;
    use orion_kir::types::{MemSpace, SpecialReg, Width};

    fn toy_module() -> Module {
        let mut b = FunctionBuilder::kernel("k");
        let tid = b.mov(Operand::Special(SpecialReg::TidX));
        let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
        let nt = b.mov(Operand::Special(SpecialReg::NTidX));
        let gid = b.imad(cta, nt, tid);
        let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
        let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
        let y = b.imul(x, gid);
        b.st(MemSpace::Global, Width::W32, addr, y, 0);
        Module::new(b.finish())
    }

    #[test]
    fn sim_backend_compiles_and_launches() {
        let be = SimBackend::new(DeviceSpec::gtx680());
        assert!(be.caps().deterministic);
        let ck = be.compile_probe(&toy_module(), &TuningConfig::new(32)).unwrap();
        let mut g = vec![0u8; 4 * 64];
        let c = be
            .launch(
                &ck.versions[0],
                Launch { grid: 2, block: 32 },
                &[0],
                &mut g,
                LaunchOptions::default(),
            )
            .unwrap();
        assert!(c > 0);
        // Determinism: same launch, same cycles.
        let mut g2 = vec![0u8; 4 * 64];
        let c2 = be
            .launch(
                &ck.versions[0],
                Launch { grid: 2, block: 32 },
                &[0],
                &mut g2,
                LaunchOptions::default(),
            )
            .unwrap();
        assert_eq!(c, c2);
    }

    /// A lattice version carries its L1/shared split and the backend
    /// honours it: the launch equals the recipe spelled out by hand, and
    /// differs from the same padding under the default split.
    #[test]
    fn sim_backend_launches_a_lattice_version_under_its_own_split() {
        let dev = DeviceSpec::gtx680();
        let space =
            CandidateSpace::enumerate(&dev, 32, &toy_module(), Direction::Decreasing, 64).unwrap();
        // Padded to one block per SM under the large-L1 split's 16 KB of
        // shared memory; the default split's 48 KB fits more.
        let v = space
            .kernel
            .versions
            .iter()
            .filter(|v| v.label.ends_with("/l1-large"))
            .min_by_key(|v| v.achieved_warps)
            .expect("an l1-large version");
        assert_eq!(v.cache_config, Some(CacheConfig::LargeCache));
        let launch = Launch { grid: 64, block: 32 };
        let run = |opts| {
            let mut g = vec![0u8; 4 * 64 * 32];
            let r = run_launch_opts(&dev, &v.machine, launch, &[0], &mut g, opts).unwrap();
            (r.cycles, g)
        };
        let mut global = vec![0u8; 4 * 64 * 32];
        let cycles = SimBackend::new(dev.clone())
            .launch(v, launch, &[0], &mut global, LaunchOptions::default())
            .unwrap();
        let padded = LaunchOptions::default().with_extra_smem(v.extra_smem);
        assert_eq!((cycles, global), run(padded.with_cache_config(CacheConfig::LargeCache)));
        assert_ne!(cycles, run(padded).0, "the split changes this launch");
    }

    #[test]
    fn replay_backend_plays_script_then_repeats_last() {
        let be = ReplayBackend::new(DeviceSpec::gtx680(), 42)
            .script("occ=8", [Ok(100), Ok(90), Err(SimError::Deadlock)]);
        let ck = be.compile_probe(&toy_module(), &TuningConfig::new(32)).unwrap();
        let mut v = ck.versions[0].clone();
        v.label = "occ=8".into();
        let mut g = [];
        let mut go = |v: &KernelVersion| {
            be.launch(v, Launch { grid: 1, block: 32 }, &[], &mut g, LaunchOptions::default())
        };
        assert_eq!(go(&v).unwrap(), 100);
        assert_eq!(go(&v).unwrap(), 90);
        // The last outcome repeats forever.
        assert!(go(&v).is_err());
        assert!(go(&v).is_err());
        // Unscripted labels yield the default.
        v.label = "other".into();
        assert_eq!(go(&v).unwrap(), 42);
    }

    fn request(ck: &Arc<CompiledKernel>, version: usize, lane: u32) -> LaunchRequest {
        LaunchRequest {
            kernel: Arc::clone(ck),
            version,
            launch: Launch { grid: 2, block: 32 },
            params: vec![0],
            global: vec![0u8; 4 * 64],
            opts: LaunchOptions::default(),
            lane,
        }
    }

    #[test]
    fn async_pool_completes_every_ticket_with_sync_identical_cycles() {
        let be = SimBackend::new(DeviceSpec::gtx680());
        let ck = Arc::new(be.compile_probe(&toy_module(), &TuningConfig::new(32)).unwrap());
        // Reference cycles via the blocking path.
        let mut reference = Vec::new();
        for v in &ck.versions {
            let mut g = vec![0u8; 4 * 64];
            reference.push(
                be.launch(v, Launch { grid: 2, block: 32 }, &[0], &mut g, LaunchOptions::default())
                    .unwrap(),
            );
        }
        be.configure_pool(2);
        let tickets: Vec<TicketId> =
            (0..ck.versions.len()).map(|v| be.submit(request(&ck, v, 1))).collect();
        let mut got: HashMap<TicketId, u64> = HashMap::new();
        while got.len() < tickets.len() {
            let batch = be.wait_completions();
            assert!(!batch.is_empty(), "launches in flight but nothing completed");
            for c in batch {
                assert_eq!(c.global.len(), 4 * 64, "the global image comes back");
                got.insert(c.ticket, c.result.unwrap());
            }
        }
        assert_eq!(be.in_flight(), 0);
        for (t, want) in tickets.iter().zip(&reference) {
            assert_eq!(got[t], *want, "pooled cycles match the blocking launch");
        }
    }

    #[test]
    fn async_inline_pool_size_zero_is_synchronous() {
        let be = SimBackend::new(DeviceSpec::gtx680());
        let ck = Arc::new(be.compile_probe(&toy_module(), &TuningConfig::new(32)).unwrap());
        let t = be.submit(request(&ck, 0, 1));
        // Inline submission retires before submit returns.
        assert_eq!(be.in_flight(), 1);
        let batch = be.poll_completions();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].ticket, t);
        assert!(batch[0].result.is_ok());
        assert_eq!(be.in_flight(), 0);
        assert!(be.wait_completions().is_empty(), "nothing in flight returns empty, no hang");
    }

    #[test]
    fn async_replay_and_out_of_range_version_complete_as_errors() {
        let be =
            ReplayBackend::new(DeviceSpec::gtx680(), 42).script("occ=8", [Err(SimError::Deadlock)]);
        let ck = be.compile_probe(&toy_module(), &TuningConfig::new(32)).unwrap();
        let mut ck = ck;
        ck.versions[0].label = "occ=8".into();
        let ck = Arc::new(ck);
        be.submit(request(&ck, 0, 1));
        let batch = be.wait_completions();
        assert!(matches!(batch[0].result, Err(ref e)
            if matches!(e.root_cause(), OrionError::Sim(SimError::Deadlock))));
        // A version index past the candidate set still completes.
        be.submit(request(&ck, 99, 1));
        let batch = be.wait_completions();
        assert!(matches!(batch[0].result, Err(OrionError::Tuner(_))));
        assert_eq!(be.in_flight(), 0);
    }

    /// A backend whose launches always panic.
    struct ExplodingBackend(SimBackend);

    impl Backend for ExplodingBackend {
        fn name(&self) -> &'static str {
            "exploding"
        }
        fn device_spec(&self) -> &DeviceSpec {
            self.0.device_spec()
        }
        fn caps(&self) -> BackendCaps {
            self.0.caps()
        }
        fn compile_probe(
            &self,
            module: &Module,
            cfg: &TuningConfig,
        ) -> Result<CompiledKernel, OrionError> {
            self.0.compile_probe(module, cfg)
        }
        fn launch(
            &self,
            _version: &KernelVersion,
            _launch: Launch,
            _params: &[u32],
            _global: &mut [u8],
            _opts: LaunchOptions,
        ) -> Result<u64, OrionError> {
            panic!("backend exploded mid-launch");
        }
    }

    #[test]
    fn async_panic_never_loses_the_ticket() {
        let prior_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let be = InlineAsync::new(ExplodingBackend(SimBackend::new(DeviceSpec::gtx680())));
        let ck = Arc::new(be.compile_probe(&toy_module(), &TuningConfig::new(32)).unwrap());
        let t = be.submit(request(&ck, 0, 1));
        std::panic::set_hook(prior_hook);
        let batch = be.wait_completions();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].ticket, t);
        assert!(
            matches!(batch[0].result, Err(OrionError::SessionPanicked { ref detail })
                if detail.contains("exploded")),
            "panic must surface as a completion: {:?}",
            batch[0].result
        );
        assert_eq!(batch[0].global.len(), 4 * 64, "the global image survives the panic");
    }
}
