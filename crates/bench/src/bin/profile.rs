//! Profiler CLI: run a workload's occupancy sweep with telemetry
//! enabled, print stall-attributed counters per level, and export the
//! recorded events as a Chrome `trace_event` timeline plus a flat JSON
//! metrics report — and the service-plane surface: the tuning run's
//! metric snapshot (Prometheus text or JSON), the jobs' run journals,
//! and a per-lane critical-path timeline.
//!
//! ```sh
//! cargo run --release -p orion-bench --bin profile -- \
//!     [workload] [gtx680|c2075] [--warps N] [--tune N] \
//!     [--trace trace.json] [--metrics metrics.json] \
//!     [--out snapshot.json] [--prom metrics.prom] [--journal] [--timeline]
//! ```
//!
//! The trace loads in `chrome://tracing` / Perfetto: one lane per SM on
//! a cycle axis, one slice per CTA. The metrics report nests every
//! version under `occ<warps>/` and checks the stall-accounting
//! invariant: the six stall buckets sum to `cycles × num_sms` exactly.
//!
//! `--tune N` additionally drives an `OrionService` tuning run (N
//! application iterations) over the workload. Its report's
//! `ServiceReport::snapshot` is what `--prom` writes and what `--out`
//! embeds as `"registry"` (`{}` without `--tune`), and its journal is
//! what `--journal` prints, one `job`/`seq`/tag line per record.
//! `--prom` or `--journal` without `--tune` is an error. The
//! CLI exits non-zero when the capture is empty instead of silently
//! writing hollow artifacts.

use orion_bench::error::write_file;
use orion_bench::experiment::run_version_once;
use orion_core::backend::SimBackend;
use orion_core::compiler::TuningConfig;
use orion_core::orion::Orion;
use orion_core::service::{JobPolicy, KernelJob, OrionService, ServiceConfig};
use orion_gpusim::DeviceSpec;
use orion_telemetry::export::{self, MetricsSnapshot};
use orion_telemetry::metrics::MetricsReport;
use orion_telemetry::timeline;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut workload = "imageDenoising".to_string();
    let mut device = "gtx680".to_string();
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut warps_filter: Option<u32> = None;
    let mut tune_iters: Option<u32> = None;
    let mut dump_journal = false;
    let mut dump_timeline = false;
    let mut positionals = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => trace_path = Some(args.next().ok_or("--trace needs a path")?),
            "--metrics" => metrics_path = Some(args.next().ok_or("--metrics needs a path")?),
            "--out" => out_path = Some(args.next().ok_or("--out needs a path")?),
            "--prom" => prom_path = Some(args.next().ok_or("--prom needs a path")?),
            "--journal" => dump_journal = true,
            "--timeline" => dump_timeline = true,
            "--warps" => {
                warps_filter = Some(args.next().ok_or("--warps needs a number")?.parse()?);
            }
            "--tune" => {
                tune_iters = Some(args.next().ok_or("--tune needs an iteration count")?.parse()?);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: profile [workload] [gtx680|c2075] [--warps N] [--tune N] \
                     [--trace FILE] [--metrics FILE] [--out FILE] [--prom FILE] \
                     [--journal] [--timeline]"
                );
                return Ok(());
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}").into()),
            pos => {
                match positionals {
                    0 => workload = pos.to_string(),
                    1 => device = pos.to_string(),
                    _ => return Err("too many positional arguments".into()),
                }
                positionals += 1;
            }
        }
    }
    if prom_path.is_some() && tune_iters.is_none() {
        return Err("--prom needs --tune N: the metrics come from a tuning run".into());
    }
    if dump_journal && tune_iters.is_none() {
        return Err("--journal needs --tune N: the journal comes from a tuning run".into());
    }
    let dev = match device.as_str() {
        "c2075" => DeviceSpec::c2075(),
        "gtx680" => DeviceSpec::gtx680(),
        other => return Err(format!("unknown device {other} (gtx680|c2075)").into()),
    };
    let w = orion_workloads::by_name(&workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;

    orion_telemetry::set_enabled(true);
    orion_telemetry::clear();

    let orion = Orion::new(dev.clone(), w.block);
    let versions = orion.sweep(&w.module)?;
    let mut report = MetricsReport::new();
    report.set("workload", w.name);
    report.set("device", dev.name.as_str());

    println!("{} on {}", w.name, dev.name);
    println!(
        "{:>5} {:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "warps",
        "regs",
        "cycles",
        "issued",
        "scoreboard",
        "mem_pend",
        "barrier",
        "no_elig",
        "drain",
        "ipc"
    );
    for v in &versions {
        if warps_filter.is_some_and(|f| v.achieved_warps != f) {
            continue;
        }
        let r = match run_version_once(&dev, &w, v) {
            Ok(r) => r,
            Err(e) => {
                println!("{:>5} ERROR {e}", v.achieved_warps);
                continue;
            }
        };
        let st = &r.stats.stalls;
        let d = r.derived();
        println!(
            "{:>5} {:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10.3}",
            v.achieved_warps,
            v.machine.regs_per_thread,
            r.cycles,
            st.issued,
            st.scoreboard,
            st.mem_pending,
            st.barrier,
            st.no_eligible,
            st.drain,
            d.ipc,
        );
        let sm_cycles = r.cycles * u64::from(r.num_sms);
        assert_eq!(st.total(), sm_cycles, "stall buckets must sum to cycles x num_sms");
        let mut vr = MetricsReport::new();
        vr.set("cycles", r.cycles);
        vr.set("sm_cycles", sm_cycles);
        vr.set("warp_insts", r.stats.warp_insts);
        for (name, val) in st.as_named() {
            vr.set(format!("stall/{name}"), val);
        }
        vr.set("ipc", d.ipc);
        vr.set("simd_efficiency", d.simd_efficiency);
        vr.set("l1_hit_rate", d.l1_hit_rate);
        vr.set("l2_hit_rate", d.l2_hit_rate);
        vr.set("issue_utilization", d.issue_utilization);
        report.merge_prefixed(&format!("occ{}", v.achieved_warps), &vr);
    }

    // Optional tuning run: drives the service plane; its report is the
    // metric snapshot the exporters write and the journal `--journal`
    // prints.
    let mut snap = MetricsSnapshot::default();
    if let Some(iterations) = tune_iters {
        let svc = OrionService::new(
            SimBackend::new(dev.clone()),
            ServiceConfig { workers: 1, policy: None, ..ServiceConfig::default() },
        );
        let sr = svc.run(vec![KernelJob {
            name: w.name.to_string(),
            module: w.module.clone(),
            launch: w.launch(),
            params: w.params.clone(),
            global: w.init_global.clone(),
            iterations,
            tuning: TuningConfig::new(w.block),
            policy: JobPolicy::default(),
        }]);
        let l = &sr.metrics.launch_cycles;
        let journal = sr.journal();
        println!(
            "tune: {iterations} iterations; launch cycles p50 {} / p99 {} (n={}); \
             cache {} hits / {} misses; journal {} records",
            l.p50(),
            l.p99(),
            l.count(),
            sr.cache.hits,
            sr.cache.misses,
            journal.len(),
        );
        snap = sr.snapshot();
        if dump_journal {
            for (job, seq, event) in &journal {
                println!("journal job {job} seq {seq} {}", event.tag());
            }
        }
    }

    let events = orion_telemetry::take_events();
    if events.is_empty() {
        eprintln!(
            "profile: empty capture — no telemetry events were recorded; \
             refusing to write hollow artifacts"
        );
        std::process::exit(2);
    }

    if dump_timeline {
        let lanes = timeline::lane_timelines(&events);
        print!("{}", timeline::render_text(&lanes));
    }

    if let Some(path) = &trace_path {
        write_file("chrome trace", path, &orion_telemetry::chrome::trace_json(&events))?;
        eprintln!("wrote {path} ({} events)", events.len());
    }
    if let Some(path) = &metrics_path {
        write_file("metrics report", path, &report.to_json())?;
        eprintln!("wrote {path} ({} metrics)", report.len());
    }
    if let Some(path) = &prom_path {
        write_file("prometheus snapshot", path, &export::prometheus_text(&snap))?;
        eprintln!("wrote {path} ({} metrics)", snap.samples.len());
    }
    if let Some(path) = &out_path {
        // One combined observability document: the flat metrics report,
        // the tuning run's metric snapshot, and the lane timelines. The
        // parts are already JSON strings, so compose them textually.
        let lanes = timeline::lane_timelines(&events);
        let doc = format!(
            "{{\"metrics\":{},\"registry\":{},\"lanes\":{}}}\n",
            report.to_json(),
            export::snapshot_json(&snap),
            lanes.len(),
        );
        write_file("observability snapshot", path, &doc)?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
