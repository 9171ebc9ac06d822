//! Profiler CLI: run a workload's occupancy sweep with telemetry
//! enabled, print stall-attributed counters per level, and export the
//! recorded events as a Chrome `trace_event` timeline plus a flat JSON
//! metrics report — and the service-plane surface: the jobs' run
//! journals and a per-lane critical-path timeline.
//!
//! ```sh
//! cargo run --release -p orion-bench --bin profile -- \
//!     [workload] [gtx680|c2075] [--warps N] [--tune N] \
//!     [--trace trace.json] [--metrics metrics.json] \
//!     [--out snapshot.json] [--journal] [--timeline]
//! ```
//!
//! The trace loads in `chrome://tracing` / Perfetto: the simulated
//! events under one process with a thread per SM on a cycle axis, one
//! slice per CTA; the wall-clock spans under another. The metrics
//! report nests every version under `occ<warps>/` and checks the
//! stall-accounting invariant: the six stall buckets sum to
//! `cycles × num_sms` exactly. `--out` writes the metrics report and
//! the timeline's lane count as one document; `--timeline` prints the
//! wall-clock lanes (µs) and the SM lanes (cycles) apart.
//!
//! `--tune N` additionally drives an `OrionService` tuning run (N
//! application iterations) over the workload and prints the minimum,
//! median and maximum of its launches' cycles, read from the session
//! outcome. Its journal is what `--journal` prints, one
//! `job`/`seq`/tag line per record; `--journal` without `--tune` is an
//! error. The CLI exits with status 2 instead of writing hollow
//! artifacts when `--warps` names no swept level (the message lists the
//! levels) or the capture is empty.

use orion_bench::error::write_file;
use orion_core::backend::SimBackend;
use orion_core::compiler::{sweep, TuningConfig};
use orion_core::service::{JobPolicy, KernelJob, OrionService, ServiceConfig};
use orion_gpusim::DeviceSpec;
use orion_telemetry::metrics::MetricsReport;
use orion_telemetry::timeline;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut workload = "imageDenoising".to_string();
    let mut device = "gtx680".to_string();
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut out_path: Option<String> = None;
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
                     [--trace FILE] [--metrics FILE] [--out FILE] [--journal] [--timeline]"
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

    let versions = sweep(&w.module, &dev, w.block)?;
    if let Some(f) = warps_filter.filter(|&f| versions.iter().all(|v| v.achieved_warps != f)) {
        let levels: Vec<String> = versions.iter().map(|v| v.achieved_warps.to_string()).collect();
        eprintln!(
            "profile: no version of {} on {} runs at {f} warps; swept levels: {}",
            w.name,
            dev.name,
            levels.join(", ")
        );
        std::process::exit(2);
    }
    let mut report = MetricsReport::new();
    report.set("workload", w.name);
    report.set("device", dev.name.as_str());

    let backend = SimBackend::new(dev.clone());
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
        let r = match orion_bench::steady_run(&backend, &w, v) {
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

    // Optional tuning run: drives the service plane; its outcome holds
    // every launch's cycles and its journal is what `--journal` prints.
    if let Some(iterations) = tune_iters {
        let svc = OrionService::new(
            backend,
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
        // Every successful launch, once; the median is a launch that
        // ran (the upper one of an even count), never an interpolation.
        let mut cycles: Vec<u64> = sr
            .kernels
            .iter()
            .filter_map(|k| k.outcome.as_ref().ok())
            .flat_map(|o| o.iterations.iter().map(|&(_, c)| c))
            .collect();
        cycles.sort_unstable();
        let journal = sr.journal();
        println!(
            "tune: {iterations} iterations; launch cycles min {} / median {} / max {} (n={}); \
             cache {} hits / {} misses; journal {} records",
            cycles.first().copied().unwrap_or(0),
            cycles.get(cycles.len() / 2).copied().unwrap_or(0),
            cycles.last().copied().unwrap_or(0),
            cycles.len(),
            sr.cache.hits,
            sr.cache.misses,
            journal.len(),
        );
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
    if let Some(path) = &out_path {
        // One combined observability document: the flat metrics report
        // and the lane count. The report is already a JSON string, so
        // compose it textually.
        let lanes = timeline::lane_timelines(&events);
        let doc = format!("{{\"metrics\":{},\"lanes\":{}}}\n", report.to_json(), lanes.len());
        write_file("observability snapshot", path, &doc)?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
