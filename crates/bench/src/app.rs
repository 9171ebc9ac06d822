//! The application loop the experiments tune in (Figure 9's setting):
//! a workload's kernel launched again and again on one device, over
//! memory that persists from launch to launch.

use orion_core::backend::SimBackend;
use orion_core::compiler::{compile, CompiledKernel, KernelVersion, TuningConfig};
use orion_core::error::OrionError;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::SimError;
use orion_gpusim::faults::FaultInjector;
use orion_gpusim::sim::{LaunchOptions, RunResult};
use orion_workloads::Workload;

/// The compile stage on `w` as its application would run it: dynamic
/// tuning only when the workload offers the iterations (`can_tune`),
/// the static selection otherwise.
///
/// # Errors
/// Propagates verifier and allocator failures.
pub fn compile_workload(dev: &DeviceSpec, w: &Workload) -> Result<CompiledKernel, OrionError> {
    compile(&w.module, dev, &TuningConfig { can_tune: w.can_tune, ..TuningConfig::new(w.block) })
}

/// The steady state of `v` on `w`: one fault-free whole-grid launch on
/// a fresh copy of `w.init_global`, at the workload's representative
/// parameters `w.params` (for bfs, a large level, not the first).
///
/// # Errors
/// Propagates simulator failures.
pub fn steady_run(
    backend: &SimBackend,
    w: &Workload,
    v: &KernelVersion,
) -> Result<RunResult, SimError> {
    let global = &mut w.init_global.clone();
    backend.run(v, w.launch(), &w.params, global, LaunchOptions::default())
}

/// One run of `w`'s application on a [`SimBackend`]: one global-memory
/// image that every launch updates, the workload's parameters for each
/// launch's iteration ([`Workload::params_for`]), and an optional fault
/// injector drawn once per launch. A launch from fresh memory is not an
/// application run: call [`steady_run`] instead.
#[derive(Debug)]
pub struct App<'a> {
    backend: &'a SimBackend,
    w: &'a Workload,
    global: Vec<u8>,
    launches: u32,
    injector: Option<&'a FaultInjector>,
}

impl<'a> App<'a> {
    /// The application before its first launch.
    #[must_use]
    pub fn new(
        backend: &'a SimBackend,
        w: &'a Workload,
        injector: Option<&'a FaultInjector>,
    ) -> Self {
        App { backend, w, global: w.init_global.clone(), launches: 0, injector }
    }

    /// Run `v` as the application's next launch under `opts` (CTA
    /// range, parallelism, ...). With an injector, its draw replaces
    /// `opts.faults`.
    ///
    /// # Errors
    /// Propagates simulator failures, injected faults included.
    pub fn run(&mut self, v: &KernelVersion, opts: LaunchOptions) -> Result<RunResult, SimError> {
        let params = self.w.params_for(self.launches);
        self.launches += 1;
        let faults = self.injector.map_or(opts.faults, FaultInjector::draw);
        let opts = LaunchOptions { faults, ..opts };
        self.backend.run(v, self.w.launch(), params, &mut self.global, opts)
    }

    /// [`App::run`] over the whole grid at default options, as the
    /// cycles a tuning session reads.
    ///
    /// # Errors
    /// Propagates simulator failures, injected faults included.
    pub fn launch(&mut self, v: &KernelVersion) -> Result<u64, OrionError> {
        Ok(self.run(v, LaunchOptions::default())?.cycles)
    }

    /// Launches run so far, failed ones included.
    #[must_use]
    pub fn launches(&self) -> u32 {
        self.launches
    }

    /// The global memory as the launches so far left it.
    #[must_use]
    pub fn global(&self) -> &[u8] {
        &self.global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_core::compiler::original;

    /// bfs is the workload whose parameters change per iteration: an
    /// application run gives each launch its own level's parameters on
    /// one buffer, exactly as a hand-written loop over the simulator.
    #[test]
    fn bfs_launches_take_their_iteration_params_on_one_buffer() {
        let w = orion_workloads::by_name("bfs").expect("bfs");
        assert!(w.iter_params.is_some());
        let dev = DeviceSpec::gtx680();
        let backend = SimBackend::new(dev.clone());
        let v = original(&w.module, &dev, w.block).expect("original");
        // Block 96 holds frontier slots 24,576 to 24,831: past the end
        // of the first level's frontier, inside every later one.
        let opts = LaunchOptions { cta_range: Some((96, 1)), ..LaunchOptions::default() };
        let mut app = App::new(&backend, &w, None);
        let got: Vec<u64> = (0..4).map(|_| app.run(&v, opts).expect("launch").cycles).collect();
        let mut global = w.init_global.clone();
        let want: Vec<u64> = (0..4)
            .map(|i| backend.run(&v, w.launch(), w.params_for(i), &mut global, opts))
            .map(|r| r.expect("launch").cycles)
            .collect();
        assert_eq!(got, want, "per-launch cycles");
        assert_eq!(app.launches(), 4);
        assert!(app.global() == global.as_slice(), "final memory");
    }

    /// The steady state is measured at bfs's representative level
    /// (`w.params`, 672 of 672 blocks busy), not at the first level's
    /// small frontier (96 busy).
    #[test]
    fn steady_run_measures_bfs_at_its_representative_params() {
        let w = orion_workloads::by_name("bfs").expect("bfs");
        assert_ne!(w.params.as_slice(), w.params_for(0));
        let dev = DeviceSpec::gtx680();
        let backend = SimBackend::new(dev.clone());
        let v = original(&w.module, &dev, w.block).expect("original");
        let global = &mut w.init_global.clone();
        let at_params = backend.run(&v, w.launch(), &w.params, global, LaunchOptions::default());
        let steady = steady_run(&backend, &w, &v).expect("steady run");
        assert_eq!(steady.cycles, at_params.expect("launch").cycles);
    }
}
