//! Output check against the reference interpreter (`kir::interp`), never
//! against the compiler under test.
//!
//! A version passes when the simulator, launching it from the kernel's
//! initial global memory over the first `2 × SMs` blocks of the grid (so
//! every SM runs two blocks and the per-SM results are merged), leaves
//! exactly the memory the interpreter leaves for the same blocks. The
//! interpreter's result is computed once per kernel and reused.

use orion_core::compiler::KernelVersion;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_gpusim::sim::{run_launch_opts, LaunchOptions};
use orion_kir::interp::{Interpreter, LaunchConfig};
use orion_workloads::Workload;

/// Kernels with a known cross-block data race: their result depends on
/// block execution order, so the simulator and the interpreter may
/// disagree. Their mismatches still fail their jobs; they are only kept
/// from marking the whole run incorrect. `gaussian` masks its float4
/// index with a mask that is not 2^k-1, so threads from 512 upward
/// alias the quads of lower threads.
pub const KNOWN_RACY: &[&str] = &["gaussian"];

/// Outcome of checking one version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub matches: bool,
}

/// Checks versions of the pool's kernels.
pub struct Checker<'a> {
    dev: DeviceSpec,
    pool: &'a [Workload],
    /// Per kernel, once computed: the interpreter's memory, or `None`
    /// when the interpreter itself failed (every version then fails).
    refs: Vec<Option<Option<Vec<u8>>>>,
}

impl<'a> Checker<'a> {
    pub fn new(dev: DeviceSpec, pool: &'a [Workload]) -> Self {
        Checker { dev, pool, refs: vec![None; pool.len()] }
    }

    fn launch(&self, w: &Workload) -> Launch {
        Launch { grid: w.grid.min(2 * self.dev.num_sms), block: w.block }
    }

    /// Check `version` of pool kernel `kernel`.
    pub fn check(&mut self, kernel: usize, version: &KernelVersion) -> Verdict {
        let w = &self.pool[kernel];
        let launch = self.launch(w);
        let reference = self.refs[kernel].get_or_insert_with(|| {
            let mut g = w.init_global.clone();
            Interpreter::new(&w.module, &w.params)
                .run(LaunchConfig { grid: launch.grid, block: launch.block }, &mut g)
                .map(|_| g)
                .map_err(|e| eprintln!("check: {} reference run failed: {e}", w.name))
                .ok()
        });
        let mut g = w.init_global.clone();
        let opts = LaunchOptions { extra_smem_per_block: version.extra_smem, ..Default::default() };
        match run_launch_opts(&self.dev, &version.machine, launch, &w.params, &mut g, opts) {
            Ok(_) => Verdict { matches: reference.as_ref() == Some(&g) },
            Err(e) => {
                eprintln!("check: {} version {} failed to launch: {e}", w.name, version.label);
                Verdict { matches: false }
            }
        }
    }
}
