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
//! [`AsyncBackend`] ([`AsyncBackend::submit`] → [`TicketId`] →
//! [`Completion`]) is a ticket-based view of a backend.
//! [`SimBackend`] implements it inline: a submission runs at once on
//! the submitter and its completion waits in a mailbox until polled.
//! Nothing in the workspace calls it — [`OrionService`] runs each job
//! on a worker thread through the blocking [`Backend::launch`] — and
//! the benchmark's tracing wrapper is its only user outside the
//! workspace; ROADMAP item 9 deletes it with that wrapper.
//!
//! [`TuningSession`]: crate::session::TuningSession
//! [`OrionService`]: crate::service::OrionService

use crate::compiler::{compile, CompiledKernel, KernelVersion, TuningConfig};
use crate::error::OrionError;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::{Launch, SimError};
use orion_gpusim::sim::{run_launch_opts, LaunchOptions, RunResult};
use orion_kir::function::Module;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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
/// one backend across its job threads.
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
    /// before it started (0 for an inline backend). **Not**
    /// deterministic — excluded from every bit-equality gate.
    pub queue_wait_us: u64,
    /// Wall-clock microseconds the launch spent executing. **Not**
    /// deterministic either.
    pub exec_us: u64,
}

/// Non-blocking submission on top of [`Backend`]. Nothing in the
/// workspace calls it; the benchmark's tracing wrapper implements and
/// calls it, and ROADMAP item 9 deletes it (with [`TicketId`],
/// [`LaunchRequest`] and [`Completion`]).
///
/// Contract:
///
/// * every [`AsyncBackend::submit`] eventually yields exactly one
///   [`Completion`] carrying its ticket (panics included);
/// * [`AsyncBackend::wait_completions`] blocks until at least one
///   completion is deliverable, and returns empty only when nothing is
///   in flight;
/// * completion *order* across distinct tickets is unspecified, so
///   callers must key off the ticket, never the position.
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

/// [`Backend::launch`] with its unwinding caught: a launch that panics
/// returns [`OrionError::SessionPanicked`] carrying the panic message,
/// so the caller's error handling decides what the panic means.
pub(crate) fn guarded_launch<B: Backend + ?Sized>(
    backend: &B,
    version: &KernelVersion,
    launch: Launch,
    params: &[u32],
    global: &mut [u8],
    opts: LaunchOptions,
) -> Result<u64, OrionError> {
    catch_unwind(AssertUnwindSafe(|| backend.launch(version, launch, params, global, opts)))
        .unwrap_or_else(|payload| {
            Err(OrionError::SessionPanicked { detail: panic_detail(payload.as_ref()) })
        })
}

/// The `orion-gpusim` simulated device as a [`Backend`].
///
/// As an [`AsyncBackend`] it runs each submission inline on the
/// submitter and keeps the completion until it is polled.
#[derive(Debug)]
pub struct SimBackend {
    dev: DeviceSpec,
    next_ticket: AtomicU64,
    done: Mutex<Vec<Completion>>,
}

impl SimBackend {
    /// A simulator backend.
    #[must_use]
    pub fn new(dev: DeviceSpec) -> Self {
        SimBackend { dev, next_ticket: AtomicU64::new(0), done: Mutex::new(Vec::new()) }
    }

    /// Simulate one launch of `version`: the one place that applies the
    /// version's driver-side settings ([`KernelVersion::launch_options`])
    /// over the caller's `opts` and runs the simulator.
    ///
    /// # Errors
    /// Propagates simulator failures, injected faults included.
    pub fn run(
        &self,
        version: &KernelVersion,
        launch: Launch,
        params: &[u32],
        global: &mut [u8],
        opts: LaunchOptions,
    ) -> Result<RunResult, SimError> {
        let opts = version.launch_options(opts);
        run_launch_opts(&self.dev, &version.machine, launch, params, global, opts)
    }

    /// Every completion retired and not yet delivered.
    fn take_done(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.done.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "gpusim"
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
        launch: Launch,
        params: &[u32],
        global: &mut [u8],
        opts: LaunchOptions,
    ) -> Result<u64, OrionError> {
        Ok(self.run(version, launch, params, global, opts)?.cycles)
    }
}

impl AsyncBackend for SimBackend {
    fn submit(&self, mut req: LaunchRequest) -> TicketId {
        let ticket = TicketId(self.next_ticket.fetch_add(1, Ordering::Relaxed));
        let exec_start = Instant::now();
        let result = match req.kernel.versions.get(req.version) {
            Some(v) => guarded_launch(self, v, req.launch, &req.params, &mut req.global, req.opts),
            None => Err(OrionError::Tuner(format!(
                "async launch requested version {} of a {}-version kernel",
                req.version,
                req.kernel.versions.len()
            ))),
        };
        self.done.lock().unwrap_or_else(PoisonError::into_inner).push(Completion {
            ticket,
            result,
            global: req.global,
            queue_wait_us: 0,
            exec_us: exec_start.elapsed().as_micros() as u64,
        });
        ticket
    }

    fn poll_completions(&self) -> Vec<Completion> {
        self.take_done()
    }

    /// Every submission has retired by the time `submit` returns, so
    /// this never blocks.
    fn wait_completions(&self) -> Vec<Completion> {
        self.take_done()
    }

    fn in_flight(&self) -> usize {
        self.done.lock().unwrap_or_else(PoisonError::into_inner).len()
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
}

impl ReplayBackend {
    /// An empty-script replay backend; every launch of every version
    /// returns `default_cycles` until scripted otherwise.
    #[must_use]
    pub fn new(dev: DeviceSpec, default_cycles: u64) -> Self {
        ReplayBackend { dev, script: Mutex::new(HashMap::new()), default_cycles }
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

    /// The inline ticket path runs the very launch [`Backend::launch`]
    /// runs: same cycles, same memory, and the image comes back.
    #[test]
    fn async_submit_completes_every_ticket_with_sync_identical_cycles() {
        let be = SimBackend::new(DeviceSpec::gtx680());
        let ck = Arc::new(be.compile_probe(&toy_module(), &TuningConfig::new(32)).unwrap());
        let launch = Launch { grid: 2, block: 32 };
        let init: Vec<u8> = (0..4 * 64).map(|b| b as u8).collect();
        let mut tickets = Vec::new();
        for version in 0..ck.versions.len() {
            tickets.push(be.submit(LaunchRequest {
                kernel: Arc::clone(&ck),
                version,
                launch,
                params: vec![0],
                global: init.clone(),
                opts: LaunchOptions::default(),
                lane: 1,
            }));
        }
        assert_eq!(be.in_flight(), ck.versions.len(), "completions wait until polled");
        let done = be.poll_completions();
        assert_eq!(be.in_flight(), 0);
        assert_eq!(done.iter().map(|c| c.ticket).collect::<Vec<_>>(), tickets);
        for (v, c) in ck.versions.iter().zip(done) {
            let mut g = init.clone();
            let cycles = be.launch(v, launch, &[0], &mut g, LaunchOptions::default()).unwrap();
            assert_eq!((c.result.unwrap(), c.global), (cycles, g), "{}", v.label);
        }
        assert!(be.wait_completions().is_empty(), "nothing in flight returns empty, no hang");
        // A version index past the candidate set still completes.
        let req = LaunchRequest {
            kernel: Arc::clone(&ck),
            version: 99,
            launch,
            params: vec![0],
            global: init,
            opts: LaunchOptions::default(),
            lane: 1,
        };
        be.submit(req);
        assert!(matches!(be.poll_completions()[0].result, Err(OrionError::Tuner(_))));
    }
}
