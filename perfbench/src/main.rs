//! `perfbench --workload <app-tune|service-batch|compile-cold> --seed <n>
//! --seconds <s> --trace <0|1>`: run one workload and print its metrics,
//! ending with one JSON result line. See README.md.

use orion_core::backend::SimBackend;
use orion_core::compiler::CompiledKernel;
use orion_core::service::OrionService;
use orion_perfbench::host;
use orion_perfbench::layers::{self, ALLOC_METRICS};
use orion_perfbench::mix::{self, Kind};
use orion_perfbench::report::{result_json, Metrics};
use orion_perfbench::run::{self, CheckSummary, Section, SectionOpts, SimMetrics, SETUP_REPS};
use orion_perfbench::stats::{median, tail};
use orion_perfbench::trace::{layer_table, Traced, Tracer};
use orion_workloads::Workload;
use std::sync::Arc;

const USAGE: &str = "usage: perfbench --workload <app-tune|service-batch|compile-cold> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Repetitions of the layer replays whose single pass is too short to time.
const ALLOC_REPS: usize = 3;
const WARM_COMPILE_REPS: usize = 5;
const POLICY_REPS: usize = 20;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0)
                        .ok_or_else(|| bad("expected seconds"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (kind, seed, seconds) = (args.kind, args.seed, args.seconds);
    let run::Setup { pool, first_jobs, cks, service, mut reps } =
        run::setup(kind, seed, None, SETUP_REPS);
    println!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        kind.name(),
        u8::from(args.trace)
    );
    for p in 0..kind.passes_per_mix() {
        let drawn: Vec<String> = mix::pass(kind, seed, p, pool.len())
            .iter()
            .map(|j| match kind {
                Kind::ServiceBatch => format!("{}/{}", pool[j.kernel].name, j.search.name()),
                _ => pool[j.kernel].name.to_string(),
            })
            .collect();
        println!("mix (pass {p}; later passes reorder it by the seed): {}", drawn.join(" "));
    }
    let on = (&pool[..], &cks[..]);
    let (untraced, result) = if args.trace {
        let tracer = Arc::new(Tracer::default());
        let traced_svc = OrionService::new(
            Traced::new(SimBackend::new(mix::device()), Arc::clone(&tracer)),
            run::service_config(kind),
        );
        // Untraced, traced and telemetry-on passes of the same jobs take
        // turns, so host slowdowns hit all three alike.
        let mut secs = [Section::default(), Section::default(), Section::default()];
        let mut first = Some(first_jobs);
        while secs.iter().any(|s| !s.complete(kind, seconds)) {
            for (mode, sec) in secs.iter_mut().enumerate() {
                if sec.complete(kind, seconds) {
                    continue;
                }
                match mode {
                    0 => run::run_pass(
                        kind,
                        seed,
                        &service,
                        on,
                        first.take(),
                        SectionOpts::default(),
                        None,
                        sec,
                    ),
                    1 => {
                        let opts = SectionOpts { tracer: Some(&tracer), telemetry: false };
                        run::run_pass(kind, seed, &traced_svc, on, None, opts, None, sec);
                    }
                    _ => {
                        let opts = SectionOpts { tracer: None, telemetry: true };
                        run::run_pass(kind, seed, &service, on, None, opts, None, sec);
                    }
                }
            }
        }
        let [untraced, traced, telemetry] = secs;
        reps.finish();
        let result = report_untraced(kind, on, &untraced, &reps.setup_s);
        let traced = TracedRun { section: &traced, tracer: &tracer, backend: traced_svc.backend() };
        let layers = per_layer(
            kind,
            on,
            &service,
            &untraced,
            &traced,
            &telemetry,
            (median(&reps.build_s), median(&reps.compile_s)),
        );
        (untraced, (result.0, layers))
    } else {
        let untraced = run::section(
            kind,
            seed,
            seconds,
            &service,
            on,
            Some(first_jobs),
            SectionOpts::default(),
            Some(&mut reps),
        );
        let result = report_untraced(kind, on, &untraced, &reps.setup_s);
        (untraced, result)
    };
    let (check, metrics) = result;
    let attempted = untraced.jobs.len();
    let correct = check.unexpected == 0 && attempted > 0;
    println!("{}", result_json(correct, attempted, check.failed, &metrics));
}

/// Check the untraced section's outputs and print its end-to-end metrics.
fn report_untraced(
    kind: Kind,
    (pool, cks): (&[Workload], &[CompiledKernel]),
    untraced: &Section,
    setup_s: &[f64],
) -> (CheckSummary, Metrics) {
    let rss = host::peak_rss_mb();
    let check = run::check_jobs(kind, pool, cks, &untraced.jobs);
    let sim = if kind.tunes() {
        run::tuned_sim(&untraced.jobs, cks)
    } else {
        run::candidate_sim(&untraced.jobs, cks, &run::sweep_candidates(pool, cks, &untraced.jobs))
    };
    print_section("untraced", untraced);
    for line in &check.lines {
        println!("{line}");
    }
    let attempted = untraced.jobs.len();
    println!(
        "failed_ratio = {} ({} of {attempted} jobs; {} not explained by a known race)",
        check.failed as f64 / attempted.max(1) as f64,
        check.failed,
        check.unexpected
    );
    println!("setup repetitions (s), in run order: {setup_s:?}");
    println!("call latencies (s), in run order: {:?}", untraced.latencies);
    let (pct, _, n) = tail(&untraced.latencies, 10);
    println!("job_latency_tail_s is p{pct:.1} of {n} call latencies");
    let e2e = end_to_end(median(setup_s), untraced, rss, sim);
    for line in e2e.lines() {
        println!("{line}");
    }
    (check, e2e)
}

fn print_section(label: &str, s: &Section) {
    let h = &s.host;
    println!(
        "{label}: {} jobs in {} passes, busy {:.3} s, wall {:.3} s | host: {} cores, steal {:.4}, on-CPU/wall {:.3}, load {:.2}",
        s.jobs.len(),
        s.passes,
        s.busy_s,
        s.wall_s,
        host::cores(),
        h.steal_share(),
        h.cpu_s / s.wall_s.max(1e-9),
        h.load_avg
    );
}

fn end_to_end(setup_s: f64, s: &Section, rss_mb: f64, sim: SimMetrics) -> Metrics {
    let jobs = s.jobs.len().max(1) as f64;
    let mut m = Metrics::default();
    m.add("setup_s", setup_s, "s");
    m.add("jobs_per_s", s.jobs.len() as f64 / s.busy_s, "1/s");
    m.add("job_latency_p50_s", median(&s.latencies), "s");
    m.add("job_latency_tail_s", tail(&s.latencies, 10).1, "s");
    m.add("cpu_s_per_job", s.host.cpu_s / jobs, "s");
    m.add("peak_rss_mb", rss_mb, "MB");
    m.add("tuned_speedup_geomean", sim.speedup_geomean, "ratio");
    m.add("tuning_overhead_ratio", sim.overhead_ratio, "ratio");
    m.add("launches_per_job", sim.launches_per_job, "count");
    m
}

/// The traced section: its spans and what its backend wrapper tallied.
struct TracedRun<'a> {
    section: &'a Section,
    tracer: &'a Tracer,
    backend: &'a Traced<SimBackend>,
}

/// Per-layer metrics of the traced run: the traced and telemetry-on
/// sections against the untraced one, then the layer replays.
fn per_layer(
    kind: Kind,
    (pool, cks): (&[Workload], &[CompiledKernel]),
    service: &OrionService<SimBackend>,
    untraced: &Section,
    t: &TracedRun<'_>,
    telemetry: &Section,
    (build_s, compile_s): (f64, f64),
) -> Metrics {
    let dev = mix::device();
    let traced = t.section;
    print_section("traced", traced);
    let spans = t.tracer.spans();
    let (rows, residual) = layer_table(&spans, traced.wall_s);
    println!("layer table (traced section, client thread; self = span minus its children):");
    println!("  {:<26} {:>7} {:>11} {:>11} {:>7}", "span", "count", "total_s", "self_s", "share");
    for r in &rows {
        println!(
            "  {:<26} {:>7} {:>11.6} {:>11.6} {:>6.2}%",
            r.name,
            r.count,
            r.total_s,
            r.self_s,
            100.0 * r.self_s / traced.wall_s
        );
    }
    println!(
        "  {:<26} {:>7} {:>11} {:>11.6} {:>6.2}%",
        "(residual)",
        "",
        "",
        residual,
        100.0 * residual / traced.wall_s
    );
    let self_sum: f64 = rows.iter().map(|r| r.self_s).sum();
    println!(
        "  self rows + residual = {:.6} s = traced wall {:.6} s",
        self_sum + residual,
        traced.wall_s
    );
    let per_job = |s: &Section| s.wall_s / s.jobs.len().max(1) as f64;
    let trace_overhead = per_job(traced) / per_job(untraced);
    println!(
        "tracing overhead ({}): traced / untraced wall per job = {trace_overhead}",
        kind.name()
    );
    print_section("telemetry-on", telemetry);
    let busy_per_job = |s: &Section| s.busy_s / s.jobs.len().max(1) as f64;
    let telemetry_overhead = busy_per_job(telemetry) / busy_per_job(untraced) - 1.0;

    let alloc = layers::alloc_layer(&dev, service.backend(), pool, cks, ALLOC_REPS);
    let warm_s = layers::warm_compile_s(service.backend(), pool, WARM_COMPILE_REPS);
    for m in &alloc.mismatches {
        println!("alloc replay mismatch: {m}");
    }
    let (policy, gpu) = if kind.tunes() {
        let threshold = run::service_config(kind).threshold;
        let policy = layers::policy_layer(&traced.jobs, cks, threshold, POLICY_REPS);
        if policy.diverged > 0 {
            println!("policy replay: {} jobs selected differently on replay", policy.diverged);
        }
        let picks = layers::picks(&untraced.jobs, cks);
        (policy, layers::gpusim_layer(&dev, pool, &picks))
    } else {
        (layers::PolicyLayer::default(), layers::GpuSimLayer::default())
    };
    for m in &gpu.fanout_mismatches {
        println!("gpusim replay: fan-out result differs from serial on {m}");
    }

    let row = |name: &str| rows.iter().find(|r| r.name == name);
    let span_s = |name: &str, parent: Option<&str>| -> f64 {
        spans
            .iter()
            .filter(|s| {
                s.name == name
                    && parent.is_none_or(|p| s.parent.is_some_and(|i| spans[i].name == p))
            })
            .map(|s| s.end.duration_since(s.start).as_secs_f64())
            .fold(0.0, |a, b| a + b)
    };
    let tally = t.backend.tally();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut m = Metrics::default();
    m.add("workloads.build_s", build_s, "s");
    m.add("compiler.probe_cold_s", compile_s, "s");
    m.add("compiler.probe_warm_s", warm_s, "s");
    m.add(
        "compiler.versions",
        cks.iter().map(|ck| ck.versions.len()).sum::<usize>() as f64,
        "count",
    );
    for (name, s) in ALLOC_METRICS.into_iter().zip(alloc.stage_s) {
        m.add(name, s, "s");
    }
    m.add("alloc.local_slots", alloc.local_slots as f64, "count");
    m.add("alloc.static_moves", alloc.static_moves as f64, "count");
    m.add("cache.hits", traced.cache_hits as f64, "count");
    m.add("cache.misses", traced.cache_misses as f64, "count");
    m.add(
        "cache.hit_ratio",
        ratio(traced.cache_hits as f64, (traced.cache_hits + traced.cache_misses) as f64),
        "ratio",
    );
    m.add("policy.step_s", policy.step_s, "s");
    m.add("policy.explore_launches", policy.explore_launches as f64, "count");
    m.add("policy.arms_pruned", policy.arms_pruned as f64, "count");
    m.add("service.compile_phase_s", span_s("compiler.compile_probe", Some("service.run")), "s");
    m.add("service.sched_self_s", row("service.run").map_or(0.0, |r| r.self_s), "s");
    m.add("service.idle_wait_s", span_s("backend.wait", None), "s");
    m.add("backend.launches", tally.launches as f64, "count");
    m.add("backend.queue_wait_s", tally.queue_wait_s, "s");
    m.add("backend.exec_s", tally.exec_s, "s");
    m.add("backend.turnaround_s", tally.turnaround_s, "s");
    m.add(
        "backend.pool_busy_ratio",
        ratio(tally.exec_s, traced.busy_s * tally.pool.max(1) as f64),
        "ratio",
    );
    m.add("gpusim.link_predecode_s", gpu.link_predecode_s, "s");
    m.add("gpusim.launch_serial_s", gpu.launch_serial_s, "s");
    m.add("gpusim.launch_fanout_s", gpu.launch_fanout_s, "s");
    m.add("gpusim.fanout_speedup", ratio(gpu.launch_serial_s, gpu.launch_fanout_s), "ratio");
    m.add("gpusim.ns_per_warp_inst", ratio(gpu.launch_serial_s * 1e9, gpu.warp_insts as f64), "ns");
    m.add("gpusim.warp_insts", gpu.warp_insts as f64, "count");
    m.add("gpusim.sim_cycles", gpu.sim_cycles as f64, "cycles");
    m.add("gpusim.ipc", ratio(gpu.warp_insts as f64, gpu.sim_cycles as f64), "ratio");
    m.add(
        "gpusim.l1_hit_rate",
        ratio(gpu.l1_hits as f64, (gpu.l1_hits + gpu.l1_misses) as f64),
        "ratio",
    );
    m.add(
        "gpusim.l2_hit_rate",
        ratio(gpu.l2_hits as f64, (gpu.l2_hits + gpu.l2_misses) as f64),
        "ratio",
    );
    m.add("gpusim.dram_bytes", gpu.dram_bytes as f64, "bytes");
    m.add("gpusim.local_transactions", gpu.local_transactions as f64, "count");
    m.add(
        "gpusim.stall_mem_pending",
        ratio(gpu.stall_mem_pending as f64, gpu.stall_total as f64),
        "ratio",
    );
    m.add(
        "gpusim.stall_scoreboard",
        ratio(gpu.stall_scoreboard as f64, gpu.stall_total as f64),
        "ratio",
    );
    m.add("telemetry.overhead_ratio", telemetry_overhead, "ratio");
    m.add("trace.residual_s", residual, "s");
    m.add("trace.overhead_ratio", trace_overhead, "ratio");
    for line in m.lines() {
        println!("{line}");
    }
    m
}
