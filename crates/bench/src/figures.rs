//! One function per table/figure of the paper. Each returns a
//! [`Figure`]: the rendered text plus the structured numbers behind it,
//! so the per-figure binaries, `all_experiments`, and downstream tooling
//! (plotting, regression tracking) share one implementation. The
//! structured side is written as `BENCH_<slug>.json` artifacts by
//! [`crate::emit`] and by `all_experiments`.

use crate::error::BenchError;
use crate::experiment::{
    orion_select, orion_select_lite, run_with_alloc_options, sweep_curve, CurvePoint,
    ExperimentError,
};
use crate::report::{render_curve, render_table};
use orion_alloc::realize::AllocOptions;
use orion_core::budget::budget_for_warps;
use orion_gpusim::device::{CacheConfig, DeviceSpec};
use orion_workloads::{by_name, downward_benchmarks, upward_benchmarks, Workload};
use serde_json::Value;

/// A rendered experiment: human-readable text plus the structured data
/// it was rendered from.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Artifact stem: `BENCH_<slug>.json`.
    pub slug: String,
    /// The text block the paper-style binaries print.
    pub text: String,
    /// The numbers behind the text.
    pub data: Value,
}

impl Figure {
    pub fn new(slug: impl Into<String>, text: String, data: Value) -> Self {
        Figure { slug: slug.into(), text, data }
    }

    /// The JSON artifact document (slug + data).
    ///
    /// # Errors
    /// [`BenchError::Json`] if the document fails to serialize (carries
    /// the serializer error as its source).
    pub fn artifact_json(&self) -> Result<String, BenchError> {
        let doc = obj(vec![("slug", Value::from(self.slug.as_str())), ("data", self.data.clone())]);
        serde_json::to_string_pretty(&doc).map_err(|e| BenchError::json("figure artifact", e))
    }
}

impl std::fmt::Display for Figure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Lowercase a device name into a slug fragment (`Tesla C2075` →
/// `tesla_c2075`).
pub fn device_slug(dev: &DeviceSpec) -> String {
    dev.name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect()
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn curve_value(curve: &[CurvePoint]) -> Value {
    serde_json::to_value(curve).unwrap_or(Value::Null)
}

/// Figure 1: imageDenoising runtime vs occupancy on GTX680.
pub fn fig01() -> Result<Figure, ExperimentError> {
    let dev = DeviceSpec::gtx680();
    let w = by_name("imageDenoising").expect("workload");
    let curve = sweep_curve(&dev, &w)?;
    let mut s =
        render_curve("Figure 1: imageDenoising, running time vs occupancy (GTX680)", &curve);
    let best = curve.iter().min_by_key(|p| p.cycles).expect("curve");
    let worst = curve.iter().max_by_key(|p| p.cycles).expect("curve");
    let spread = worst.cycles as f64 / best.cycles as f64;
    s.push_str(&format!(
        "paper: worst/best ≈ 3x with best at occupancy 0.50\nmeasured: worst/best = {:.2}x, best at occupancy {:.2}\n",
        spread, best.occupancy
    ));
    let data = obj(vec![
        ("curve", curve_value(&curve)),
        ("worst_over_best", spread.into()),
        ("best_occupancy", best.occupancy.into()),
    ]);
    Ok(Figure::new("fig01", s, data))
}

/// Figure 2: matrixMul runtime vs occupancy (plateau above ~0.5).
pub fn fig02() -> Result<Figure, ExperimentError> {
    let dev = DeviceSpec::c2075();
    let w = by_name("matrixMul").expect("workload");
    let curve = sweep_curve(&dev, &w)?;
    let mut s = render_curve("Figure 2: matrixMul, running time vs occupancy (C2075)", &curve);
    let best = curve.iter().map(|p| p.cycles).min().expect("curve");
    let half_up: Vec<f64> = curve
        .iter()
        .filter(|p| p.occupancy >= 0.49)
        .map(|p| p.cycles as f64 / best as f64)
        .collect();
    s.push_str(&format!(
        "paper: performance plateaus from 0.5 occupancy upward\nmeasured: normalized runtime over [0.5,1.0] = {:?}\n",
        half_up.iter().map(|x| (x * 100.0).round() / 100.0).collect::<Vec<_>>()
    ));
    let data = obj(vec![
        ("curve", curve_value(&curve)),
        ("plateau_norm_runtime", Value::Seq(half_up.iter().map(|&x| Value::from(x)).collect())),
    ]);
    Ok(Figure::new("fig02", s, data))
}

/// Table 2: benchmark characteristics, measured from the IR.
pub fn tab02() -> Figure {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut data_rows: Vec<Value> = Vec::new();
    for w in orion_workloads::table2_benchmarks() {
        let ml = orion_alloc::realize::kernel_max_live(&w.module).expect("max-live");
        let has_smem = w.module.user_smem_bytes > 0;
        rows.push(vec![
            w.name.to_string(),
            w.domain.to_string(),
            format!("{ml} (paper {})", w.expected.reg),
            format!("{} (paper {})", w.module.static_call_count(), w.expected.func),
            if has_smem { "Yes" } else { "No" }.to_string(),
        ]);
        data_rows.push(obj(vec![
            ("benchmark", w.name.into()),
            ("domain", w.domain.into()),
            ("max_live", u64::from(ml).into()),
            ("paper_reg", u64::from(w.expected.reg).into()),
            ("calls", w.module.static_call_count().into()),
            ("paper_func", w.expected.func.into()),
            ("smem", has_smem.into()),
        ]));
    }
    let text = format!(
        "Table 2: benchmark characteristics (measured vs paper)\n{}",
        render_table(&["benchmark", "domain", "Reg", "Func", "Smem"], &rows)
    );
    Figure::new("tab02", text, obj(vec![("rows", Value::Seq(data_rows))]))
}

/// Figure 5: inter-procedural allocation ablations on the call-heavy
/// benchmarks, at each benchmark's conservative budget.
pub fn fig05() -> Result<Figure, ExperimentError> {
    let dev = DeviceSpec::c2075();
    let mut rows = Vec::new();
    let mut data_rows: Vec<Value> = Vec::new();
    for w in upward_benchmarks() {
        if w.module.static_call_count() == 0 {
            continue; // FDTD3d / particles have no calls to ablate
        }
        let max_live = orion_alloc::realize::kernel_max_live(&w.module).expect("max-live");
        // The conservative operating point: highest occupancy fitting
        // everything on-chip.
        let mut budget = None;
        let wpb = w.block.div_ceil(32);
        let mut warps = dev.max_warps_per_sm;
        while warps >= wpb {
            if let Some(bud) = budget_for_warps(&dev, w.block, w.module.user_smem_bytes, warps) {
                if u32::from(bud.total()) >= max_live + 8 {
                    budget = Some(bud);
                    break;
                }
            }
            warps -= wpb;
        }
        let Some(budget) = budget else { continue };
        let full = run_with_alloc_options(
            &dev,
            &w,
            budget,
            &AllocOptions { compress_stack: true, optimize_layout: true },
        )?;
        let no_move = run_with_alloc_options(
            &dev,
            &w,
            budget,
            &AllocOptions { compress_stack: true, optimize_layout: false },
        )?;
        let no_space = run_with_alloc_options(
            &dev,
            &w,
            budget,
            &AllocOptions { compress_stack: false, optimize_layout: false },
        )?;
        let no_space_norm = no_space.0 as f64 / full.0 as f64;
        let no_move_norm = no_move.0 as f64 / full.0 as f64;
        rows.push(vec![
            w.name.to_string(),
            format!("{no_space_norm:.3}"),
            format!("{no_move_norm:.3}"),
            format!("{}", full.1),
            format!("{}", no_move.1),
        ]);
        data_rows.push(obj(vec![
            ("benchmark", w.name.into()),
            ("no_space_min_norm", no_space_norm.into()),
            ("no_move_min_norm", no_move_norm.into()),
            ("moves_optimized", u64::from(full.1).into()),
            ("moves_unoptimized", u64::from(no_move.1).into()),
        ]));
    }
    let text = format!(
        "Figure 5: inter-procedure allocation ablations (normalized runtime vs optimized; C2075)\npaper: 1.02-1.18x slowdowns for both ablations\n{}",
        render_table(
            &["benchmark", "no-space-min", "no-move-min", "moves(opt)", "moves(unopt)"],
            &rows
        )
    );
    Ok(Figure::new("fig05", text, obj(vec![("rows", Value::Seq(data_rows))])))
}

/// Figure 10: srad runtime vs occupancy on C2075.
pub fn fig10() -> Result<Figure, ExperimentError> {
    let dev = DeviceSpec::c2075();
    let w = by_name("srad").expect("workload");
    let curve = sweep_curve(&dev, &w)?;
    let mut s = render_curve("Figure 10: srad, running time vs occupancy (C2075)", &curve);
    let top: Vec<&CurvePoint> = curve.iter().filter(|p| p.occupancy >= 0.49).collect();
    let best = top.iter().map(|p| p.cycles).min().unwrap_or(1);
    let worst_top = top.iter().map(|p| p.cycles).max().unwrap_or(1);
    let spread_pct = (worst_top as f64 / best as f64 - 1.0) * 100.0;
    s.push_str(&format!(
        "paper: halving occupancy from 1.0 costs almost nothing\nmeasured: spread over [0.5,1.0] = {spread_pct:.1}%\n",
    ));
    let data =
        obj(vec![("curve", curve_value(&curve)), ("top_half_spread_pct", spread_pct.into())]);
    Ok(Figure::new("fig10", s, data))
}

/// Figure 11: Orion-Min / nvcc / Orion-Max / Orion-Select per upward
/// benchmark on one device (normalized speedup over nvcc).
pub fn fig11(dev: &DeviceSpec) -> Result<Figure, ExperimentError> {
    let mut rows = Vec::new();
    let mut data_rows: Vec<Value> = Vec::new();
    let mut select_speedups = Vec::new();
    for w in upward_benchmarks() {
        let o = orion_select(dev, &w)?;
        let nv = o.nvcc_cycles as f64;
        let sel_speedup = nv / o.select_avg_cycles;
        select_speedups.push(nv / o.selected_cycles as f64);
        rows.push(vec![
            w.name.to_string(),
            format!("{:.3}", nv / o.worst_cycles as f64),
            "1.000".to_string(),
            format!("{:.3}", nv / o.best_cycles as f64),
            format!("{sel_speedup:.3}"),
            format!("{}", o.candidates),
            format!("{}", o.converged_after),
        ]);
        data_rows.push(obj(vec![
            ("benchmark", w.name.into()),
            ("orion_min_speedup", (nv / o.worst_cycles as f64).into()),
            ("orion_max_speedup", (nv / o.best_cycles as f64).into()),
            ("orion_select_speedup", sel_speedup.into()),
            ("select_steady_speedup", (nv / o.selected_cycles as f64).into()),
            ("candidates", o.candidates.into()),
            ("trials", o.converged_after.into()),
        ]));
    }
    let avg = (select_speedups.iter().product::<f64>()).powf(1.0 / select_speedups.len() as f64);
    let text = format!(
        "Figure 11: normalized speedup over nvcc ({})\npaper: avg Orion speedup 26.17% (C2075) / 24.94% (GTX680); Orion-Select ≈ Orion-Max\n{}\nmeasured geo-mean Orion-Select steady-state speedup: {:.1}%\n",
        dev.name,
        render_table(
            &["benchmark", "Orion-Min", "nvcc", "Orion-Max", "Orion-Select", "cands", "trials"],
            &rows
        ),
        (avg - 1.0) * 100.0
    );
    let data = obj(vec![
        ("device", dev.name.as_str().into()),
        ("rows", Value::Seq(data_rows)),
        ("geomean_select_speedup", avg.into()),
    ]);
    Ok(Figure::new(format!("fig11_{}", device_slug(dev)), text, data))
}

/// Table 3: small-cache vs large-cache speedup at Orion's occupancy.
pub fn tab03() -> Result<Figure, ExperimentError> {
    let mut rows = Vec::new();
    let mut data_rows: Vec<Value> = Vec::new();
    for w in upward_benchmarks() {
        let mut cells = vec![w.name.to_string()];
        let mut fields: Vec<(&str, Value)> = vec![("benchmark", w.name.into())];
        for dev in [DeviceSpec::c2075(), DeviceSpec::gtx680()] {
            for cfg in [CacheConfig::SmallCache, CacheConfig::LargeCache] {
                let d = dev.with_cache_config(cfg);
                match orion_select_lite(&d, &w) {
                    Ok(o) => {
                        let speedup = o.nvcc_cycles as f64 / o.selected_cycles as f64;
                        cells.push(format!("{speedup:.3}"));
                        fields.push((cache_field_name(&dev, cfg), speedup.into()));
                    }
                    // Hardware constraints (smem demand) — the paper's
                    // empty cells.
                    Err(_) => {
                        cells.push("-".to_string());
                        fields.push((cache_field_name(&dev, cfg), Value::Null));
                    }
                }
            }
        }
        rows.push(cells);
        data_rows.push(obj(fields));
    }
    let text = format!(
        "Table 3: speedup with Small Cache (SC) vs Large Cache (LC) at the selected occupancy\n{}",
        render_table(&["benchmark", "C2075 SC", "C2075 LC", "GTX680 SC", "GTX680 LC"], &rows)
    );
    Ok(Figure::new("tab03", text, obj(vec![("rows", Value::Seq(data_rows))])))
}

fn cache_field_name(dev: &DeviceSpec, cfg: CacheConfig) -> &'static str {
    match (dev.name.contains("C2075"), cfg == CacheConfig::SmallCache) {
        (true, true) => "c2075_small_cache",
        (true, false) => "c2075_large_cache",
        (false, true) => "gtx680_small_cache",
        (false, false) => "gtx680_large_cache",
    }
}

/// Figure 12: downward tuning — normalized registers and runtime.
pub fn fig12(dev: &DeviceSpec) -> Result<Figure, ExperimentError> {
    let mut rows = Vec::new();
    let mut data_rows: Vec<Value> = Vec::new();
    let mut reg_savings = Vec::new();
    let mut speedups = Vec::new();
    for w in downward_benchmarks() {
        let o = orion_select(dev, &w)?;
        // Register-file utilization ∝ regs/thread × resident warps.
        let nvcc_util = f64::from(o.nvcc_regs) * f64::from(o.nvcc_warps);
        let sel_util = f64::from(o.selected_regs) * f64::from(o.selected_warps);
        let reg_norm = sel_util / nvcc_util;
        let rt_norm = o.selected_cycles as f64 / o.nvcc_cycles as f64;
        reg_savings.push(1.0 - reg_norm);
        speedups.push(1.0 / rt_norm);
        rows.push(vec![
            w.name.to_string(),
            format!("{reg_norm:.3}"),
            format!("{rt_norm:.3}"),
            format!("{}", o.selected_warps),
            format!("{}", o.nvcc_warps),
        ]);
        data_rows.push(obj(vec![
            ("benchmark", w.name.into()),
            ("norm_registers", reg_norm.into()),
            ("norm_runtime", rt_norm.into()),
            ("selected_warps", o.selected_warps.into()),
            ("original_warps", o.nvcc_warps.into()),
        ]));
    }
    let avg_save = reg_savings.iter().sum::<f64>() / reg_savings.len() as f64 * 100.0;
    let avg_speed = (speedups.iter().product::<f64>()).powf(1.0 / speedups.len() as f64);
    let text = format!(
        "Figure 12: downward occupancy tuning ({})\npaper: avg 19.17% register saving at ~no performance cost (avg +3.24% speed)\n{}\nmeasured: avg register-file saving {:.1}%, geo-mean speedup {:+.1}%\n",
        dev.name,
        render_table(
            &["benchmark", "norm-registers", "norm-runtime", "sel-warps", "orig-warps"],
            &rows
        ),
        avg_save,
        (avg_speed - 1.0) * 100.0
    );
    let data = obj(vec![
        ("device", dev.name.as_str().into()),
        ("rows", Value::Seq(data_rows)),
        ("avg_register_saving_pct", avg_save.into()),
        ("geomean_speedup", avg_speed.into()),
    ]);
    Ok(Figure::new(format!("fig12_{}", device_slug(dev)), text, data))
}

/// Figure 13: energy of the selected kernel vs the exhaustive ideal
/// (normalized to the original full-occupancy version), C2075.
pub fn fig13() -> Result<Figure, ExperimentError> {
    let dev = DeviceSpec::c2075();
    let mut rows = Vec::new();
    let mut data_rows: Vec<Value> = Vec::new();
    for w in downward_benchmarks() {
        let o = orion_select(&dev, &w)?;
        let sel = o.selected_energy / o.nvcc_energy;
        let ideal = o.ideal_energy / o.nvcc_energy;
        rows.push(vec![w.name.to_string(), format!("{sel:.3}"), format!("{ideal:.3}")]);
        data_rows.push(obj(vec![
            ("benchmark", w.name.into()),
            ("selected_energy_norm", sel.into()),
            ("ideal_energy_norm", ideal.into()),
        ]));
    }
    let text = format!(
        "Figure 13: normalized energy of selected kernel (C2075)\npaper: up to 6.7% energy saving; selected close to ideal\n{}",
        render_table(&["benchmark", "selected", "ideal"], &rows)
    );
    Ok(Figure::new("fig13", text, obj(vec![("rows", Value::Seq(data_rows))])))
}

/// Figure 14: gaussian and streamcluster occupancy curves on C2075.
pub fn fig14() -> Result<Figure, ExperimentError> {
    curve_pair(
        &DeviceSpec::c2075(),
        ["gaussian", "streamcluster"],
        "Figure 14",
        "paper: gaussian insensitive; streamcluster best ~0.75, flat above 0.5",
    )
}

/// Figure 15: backprop and bfs occupancy curves on GTX680.
pub fn fig15() -> Result<Figure, ExperimentError> {
    curve_pair(
        &DeviceSpec::gtx680(),
        ["backprop", "bfs"],
        "Figure 15",
        "paper: backprop bell best ~0.75; bfs best at max, flat above 0.5",
    )
}

/// Figures 14/15: occupancy curves for two benchmarks on one device.
fn curve_pair(
    dev: &DeviceSpec,
    names: [&str; 2],
    figure: &str,
    paper_note: &str,
) -> Result<Figure, ExperimentError> {
    let mut s = String::new();
    let mut curves: Vec<(&str, Value)> = Vec::new();
    for name in names {
        let w = by_name(name).expect("workload");
        let curve = sweep_curve(dev, &w)?;
        s.push_str(&render_curve(&format!("{figure}: {} on {}", w.name, dev.name), &curve));
        curves.push((name, curve_value(&curve)));
    }
    s.push_str(paper_note);
    s.push('\n');
    let slug = format!("{}_{}", figure.to_ascii_lowercase().replace(' ', ""), device_slug(dev));
    let mut fields = vec![("device", Value::from(dev.name.as_str()))];
    fields.extend(curves);
    Ok(Figure::new(slug, s, obj(fields)))
}

/// Convenience wrapper for a single workload curve.
pub fn curve_for(dev: &DeviceSpec, w: &Workload, title: &str) -> Result<Figure, ExperimentError> {
    let curve = sweep_curve(dev, w)?;
    let text = render_curve(title, &curve);
    let slug = format!("curve_{}_{}", w.name.to_ascii_lowercase(), device_slug(dev));
    Ok(Figure::new(slug, text, obj(vec![("curve", curve_value(&curve))])))
}
