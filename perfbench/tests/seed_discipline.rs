//! Seed discipline: with one seed, a short run's simulated metrics
//! repeat exactly — the end-to-end simulated metrics and every simulated
//! count of the `gpusim` layer.

use orion_perfbench::layers;
use orion_perfbench::mix::{self, Kind};
use orion_perfbench::run::{self, SectionOpts};

/// A cheap slice of the suite that still holds the racy kernel.
const KERNELS: [&str; 3] = ["particles", "backprop", "gaussian"];

fn simulated(kind: Kind, seed: u64) -> Vec<(&'static str, f64)> {
    let only: Vec<String> = KERNELS.iter().map(|s| s.to_string()).collect();
    let run::Setup { pool, first_jobs, cks, service, .. } = run::setup(kind, seed, Some(&only), 1);
    let on = (&pool[..], &cks[..]);
    let sec =
        run::section(kind, seed, 0.0, &service, on, Some(first_jobs), SectionOpts::default(), None);
    assert_eq!(sec.passes, kind.passes_per_mix());
    let sim = if kind.tunes() {
        run::tuned_sim(&sec.jobs, &cks)
    } else {
        run::candidate_sim(&sec.jobs, &cks, &run::sweep_candidates(&pool, &cks, &sec.jobs))
    };
    let g = layers::gpusim_layer(&mix::device(), &pool, &layers::picks(&sec.jobs, &cks));
    vec![
        ("tuned_speedup_geomean", sim.speedup_geomean),
        ("tuning_overhead_ratio", sim.overhead_ratio),
        ("launches_per_job", sim.launches_per_job),
        ("gpusim.launches", g.launches as f64),
        ("gpusim.warp_insts", g.warp_insts as f64),
        ("gpusim.sim_cycles", g.sim_cycles as f64),
        ("gpusim.l1_hits", g.l1_hits as f64),
        ("gpusim.l1_misses", g.l1_misses as f64),
        ("gpusim.l2_hits", g.l2_hits as f64),
        ("gpusim.l2_misses", g.l2_misses as f64),
        ("gpusim.dram_bytes", g.dram_bytes as f64),
        ("gpusim.local_transactions", g.local_transactions as f64),
        ("gpusim.stall_total", g.stall_total as f64),
        ("gpusim.stall_mem_pending", g.stall_mem_pending as f64),
        ("gpusim.stall_scoreboard", g.stall_scoreboard as f64),
    ]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulates whole launches; run with --release")]
fn simulated_metrics_repeat_exactly_for_one_seed() {
    for kind in Kind::ALL {
        let first = simulated(kind, 42);
        assert_eq!(first, simulated(kind, 42), "{}", kind.name());
        let speedup = first[0].1;
        assert!(speedup >= 1.0, "{}: speedup {speedup}", kind.name());
        if kind.tunes() {
            assert!(first.iter().find(|m| m.0 == "gpusim.warp_insts").is_some_and(|m| m.1 > 0.0));
        }
    }
}
