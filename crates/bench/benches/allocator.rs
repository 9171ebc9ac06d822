//! Criterion microbenchmarks for the compiler-side algorithms: Figure 4
//! coloring, Kuhn-Munkres matching, compressible-stack packing, and the
//! end-to-end allocate() pipeline, plus the layout-optimization ablation
//! (the compile-time side of Figure 5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orion_alloc::realize::{allocate, AllocOptions, SlotBudget};
use std::hint::black_box;

fn bench_allocate_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("allocate");
    for name in ["cfd", "srad", "imageDenoising", "matrixMul"] {
        let w = orion_workloads::by_name(name).expect("workload");
        g.bench_with_input(BenchmarkId::new("full", name), &w, |b, w| {
            b.iter(|| {
                allocate(
                    black_box(&w.module),
                    SlotBudget { reg_slots: 32, smem_slots: 16 },
                    &AllocOptions::default(),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_layout_ablation(c: &mut Criterion) {
    let w = orion_workloads::by_name("cfd").expect("workload");
    let mut g = c.benchmark_group("layout");
    for (label, opts) in [
        ("optimized", AllocOptions { compress_stack: true, optimize_layout: true }),
        ("identity", AllocOptions { compress_stack: true, optimize_layout: false }),
        ("padded", AllocOptions { compress_stack: false, optimize_layout: false }),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                allocate(black_box(&w.module), SlotBudget { reg_slots: 32, smem_slots: 16 }, &opts)
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_kuhn_munkres(c: &mut Criterion) {
    use orion_alloc::matching::max_weight_assignment;
    let mut g = c.benchmark_group("kuhn_munkres");
    for n in [16usize, 48, 96] {
        // Deterministic pseudo-random weights.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let w: Vec<Vec<i64>> =
            (0..n).map(|_| (0..n).map(|_| (next() % 1000) as i64 - 500).collect()).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &w, |b, w| {
            b.iter(|| max_weight_assignment(black_box(w)))
        });
    }
    g.finish();
}

fn bench_coloring(c: &mut Criterion) {
    use orion_alloc::chaitin::color;
    use orion_alloc::interference::InterferenceGraph;
    use orion_kir::cfg::Cfg;
    use orion_kir::liveness::Liveness;
    use orion_kir::ssa::normalize;

    let w = orion_workloads::by_name("imageDenoising").expect("workload");
    let nf = normalize(w.module.kernel()).expect("normalize");
    let cfg = Cfg::new(&nf);
    let live = Liveness::new(&nf, &cfg);
    let graph = InterferenceGraph::build(&nf, &cfg, &live);
    let mut g = c.benchmark_group("chaitin_color");
    for budget in [16u16, 32, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, &budget| {
            b.iter(|| color(black_box(&graph), budget, 0))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_allocate_pipeline,
    bench_layout_ablation,
    bench_kuhn_munkres,
    bench_coloring
);
criterion_main!(benches);
