//! Single-procedure multi-class graph coloring — the paper's Figure 4.
//!
//! A Chaitin-Briggs variant that handles *wide* variables: a web of
//! `width` words needs `width` consecutive slots whose absolute start
//! index is aligned to the width's alignment class (pairs even-aligned,
//! quads quad-aligned), matching NVIDIA register-pair constraints.
//!
//! Stage 1 (stack order, Fig. 4b): repeatedly pick a web whose
//! `width + weighted-degree ≤ C` (preferring narrow ones); when none
//! qualifies, pick the narrowest/lowest-degree web as an optimistic
//! candidate. Push on the stack and remove from the graph.
//!
//! Stage 2 (coloring, Fig. 4c): pop webs and assign the lowest aligned
//! slot range free of colored neighbors. A web that cannot be colored
//! goes onto the spill list and coloring continues with the next web.
//! The paper's pseudocode restarts from the top of the stack instead
//! (`s = S`), but that restart walks the same path: every web popped
//! before the spilled web `v` saw `v` uncolored, so it gets the same
//! slot again, and `v` is then skipped.
//!
//! Cost: each web's weighted degree is kept current by subtracting a
//! stacked web's words from its neighbors, and the colorable webs wait
//! in an ordered set. A web never leaves that set except by being
//! stacked, because degrees only fall. Stage 1 is therefore
//! O((V + E) log V), plus an O(V) scan per optimistic pick; stage 2
//! visits each edge twice and scans at most `C` slots per web.

use crate::interference::InterferenceGraph;
use crate::realize::AllocError;
use std::collections::BTreeSet;

/// Result of coloring one function's webs.
#[derive(Debug, Clone)]
pub struct Coloring {
    /// Starting slot of each web (`None` = spilled).
    pub slot_of: Vec<Option<u16>>,
    /// Webs that could not be colored within the budget.
    pub spilled: Vec<usize>,
    /// One past the highest slot used (frame size in slots).
    pub frame_size: u16,
}

impl Coloring {
    /// Number of colored webs.
    pub fn num_colored(&self) -> usize {
        self.slot_of.iter().filter(|s| s.is_some()).count()
    }
}

/// Color `graph` with `budget` slots, where the function's frame begins
/// at absolute slot `base` (alignment of wide webs is computed on
/// `base + slot`, because register pairs align in the physical file).
///
/// # Errors
/// Returns [`AllocError::Internal`] when the simplification worklist
/// stalls with webs remaining — an invariant violation of the Fig. 4b
/// selection loop (the optimistic fallback always finds a candidate on
/// well-formed graphs).
pub fn color(graph: &InterferenceGraph, budget: u16, base: u16) -> Result<Coloring, AllocError> {
    let n = graph.len();
    let c = u32::from(budget);
    let words = |v: usize| u32::from(graph.width(v).words());

    // ---- Stage 1: stack order (Fig. 4b) ----
    // `degree[v]` is v's weighted degree among the webs not yet stacked.
    let mut degree: Vec<u32> = (0..n).map(|v| graph.weighted_degree(v)).collect();
    let mut stacked = vec![false; n];
    // Webs guaranteed colorable (width + weighted degree ≤ C), narrowest
    // first; ties go to the *coldest* web so that frequently-touched
    // values are colored first and land in the low register slots — a
    // spill-cost refinement the paper's pseudocode leaves open — and
    // then to the lowest index.
    let key = |v: usize| (graph.width(v).words(), graph.use_count(v), v);
    let mut colorable: BTreeSet<(u16, u32, usize)> =
        (0..n).filter(|&v| words(v) + degree[v] <= c).map(key).collect();
    let mut stack: Vec<usize> = Vec::with_capacity(n);
    while stack.len() < n {
        let v = match colorable.pop_first() {
            Some((_, _, v)) => v,
            // Optimistic candidate: narrowest, then coldest, then lowest
            // degree — the web most likely to spill cheaply.
            None => (0..n)
                .filter(|&v| !stacked[v])
                .min_by_key(|&v| (graph.width(v).words(), graph.use_count(v), degree[v], v))
                .ok_or_else(|| {
                    AllocError::Internal(format!(
                        "coloring stage 1 stalled with {} of {n} webs unstacked",
                        n - stack.len()
                    ))
                })?,
        };
        stack.push(v);
        stacked[v] = true;
        for u in graph.neighbors(v) {
            if stacked[u] {
                continue;
            }
            let was_colorable = words(u) + degree[u] <= c;
            degree[u] -= words(v);
            if !was_colorable && words(u) + degree[u] <= c {
                colorable.insert(key(u));
            }
        }
    }

    // ---- Stage 2: coloring, spilling in place (Fig. 4c) ----
    let mut slot_of: Vec<Option<u16>> = vec![None; n];
    let mut spilled: Vec<usize> = Vec::new();
    let mut used = vec![false; budget as usize];
    // Pop from the top (LIFO): the first web removed in stage 1 is
    // colored last, when all of its then-remaining neighbors are done.
    for &v in stack.iter().rev() {
        used.fill(false);
        for u in graph.neighbors(v) {
            if let Some(start) = slot_of[u] {
                for k in 0..graph.width(u).words() {
                    if let Some(slot) = used.get_mut(usize::from(start + k)) {
                        *slot = true;
                    }
                }
            }
        }
        let (vwords, align) = (words(v), u32::from(graph.width(v).alignment()));
        // The lowest free range; alignment is on the absolute slot index.
        let chosen = (0..(c + 1).saturating_sub(vwords)).find(|&s| {
            (u32::from(base) + s).is_multiple_of(align)
                && (s..s + vwords).all(|k| !used[k as usize])
        });
        match chosen {
            Some(s) => slot_of[v] = Some(s as u16),
            None => spilled.push(v),
        }
    }

    let frame_size = slot_of
        .iter()
        .enumerate()
        .filter_map(|(v, s)| s.map(|s| s + graph.width(v).words()))
        .max()
        .unwrap_or(0);
    Ok(Coloring { slot_of, spilled, frame_size })
}

/// Validate a coloring: no two interfering webs overlap in slots, wide
/// webs aligned. Returns a description of the first violation.
pub fn validate(graph: &InterferenceGraph, base: u16, coloring: &Coloring) -> Result<(), String> {
    let n = graph.len();
    let range = |v: usize| -> Option<(u16, u16)> {
        coloring.slot_of[v].map(|s| (s, s + graph.width(v).words()))
    };
    for v in 0..n {
        if let Some((s, _)) = range(v) {
            let align = graph.width(v).alignment();
            if !(base + s).is_multiple_of(align) {
                return Err(format!("web {v} misaligned at slot {s} (base {base})"));
            }
        }
        for u in graph.neighbors(v) {
            if u <= v {
                continue;
            }
            if let (Some((a0, a1)), Some((b0, b1))) = (range(v), range(u)) {
                if a0 < b1 && b0 < a1 {
                    return Err(format!("webs {v} and {u} overlap: [{a0},{a1}) vs [{b0},{b1})"));
                }
            }
        }
    }
    for &v in &coloring.spilled {
        if coloring.slot_of[v].is_some() {
            return Err(format!("web {v} both spilled and colored"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::InterferenceGraph;
    use orion_kir::bitset::BitSet;
    use orion_kir::builder::FunctionBuilder;
    use orion_kir::cfg::Cfg;
    use orion_kir::inst::Operand;
    use orion_kir::liveness::Liveness;
    use orion_kir::ssa::normalize;
    use orion_kir::types::{MemSpace, Width};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn graph_for(nlive: usize) -> InterferenceGraph {
        // nlive simultaneously live 32-bit values.
        let mut b = FunctionBuilder::kernel("k");
        let vs: Vec<_> = (0..nlive).map(|i| b.mov_i32(i as i32)).collect();
        let mut acc = b.mov_i32(0);
        for v in vs {
            acc = b.iadd(acc, v);
        }
        b.st(MemSpace::Global, Width::W32, Operand::Imm(0), acc, 0);
        let f = normalize(&b.finish()).unwrap();
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        InterferenceGraph::build(&f, &cfg, &live)
    }

    #[test]
    fn colors_clique_exactly() {
        let g = graph_for(6);
        let col = color(&g, 8, 0).unwrap();
        assert!(col.spilled.is_empty());
        validate(&g, 0, &col).unwrap();
    }

    #[test]
    fn spills_when_budget_too_small() {
        let g = graph_for(8);
        // 8 values + accumulator live together at the peak; 4 slots force spills.
        let col = color(&g, 4, 0).unwrap();
        assert!(!col.spilled.is_empty());
        validate(&g, 0, &col).unwrap();
        assert!(col.frame_size <= 4);
    }

    #[test]
    fn frame_size_is_compact() {
        let g = graph_for(3);
        let col = color(&g, 32, 0).unwrap();
        // 3 sources + accumulator: at most 5 simultaneously live webs,
        // and the frame must not exceed the clique-ish demand.
        assert!(col.frame_size <= 5, "frame {}", col.frame_size);
        validate(&g, 0, &col).unwrap();
    }

    #[test]
    fn wide_values_aligned() {
        let mut b = FunctionBuilder::kernel("k");
        let d0 = b.vreg(Width::W64);
        let d1 = b.vreg(Width::W64);
        let x = b.mov_i32(3);
        b.push(orion_kir::inst::Inst::new(
            orion_kir::inst::Opcode::Mov,
            Some(d0),
            vec![Operand::Imm(1)],
        ));
        b.push(orion_kir::inst::Inst::new(
            orion_kir::inst::Opcode::Mov,
            Some(d1),
            vec![Operand::Imm(2)],
        ));
        let s = b.dadd(d0, d1);
        b.st(MemSpace::Global, Width::W64, Operand::Imm(0), s, 0);
        b.st(MemSpace::Global, Width::W32, Operand::Imm(8), x, 0);
        let f = normalize(&b.finish()).unwrap();
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let g = InterferenceGraph::build(&f, &cfg, &live);
        for base in [0u16, 1, 2, 3] {
            let col = color(&g, 16, base).unwrap();
            assert!(col.spilled.is_empty(), "base {base}");
            validate(&g, base, &col).unwrap();
        }
    }

    #[test]
    fn zero_budget_spills_everything_live() {
        let g = graph_for(2);
        let col = color(&g, 0, 0).unwrap();
        assert_eq!(col.num_colored(), 0);
        assert_eq!(col.spilled.len(), g.len());
    }

    /// How often the reference took each rare path on one graph.
    #[derive(Default)]
    struct Paths {
        /// Stage 1 picks made by the optimistic fallback.
        optimistic: usize,
        /// Stage 2 spills followed by more webs to color.
        mid_stack_spills: usize,
    }

    /// A literal transcription of the two Figure 4 loops as `color`
    /// first implemented them: stage 1 rescans every web and recomputes
    /// its weighted degree at each step, and stage 2 restarts from the
    /// top of the stack after each spill.
    fn reference_color(graph: &InterferenceGraph, budget: u16, base: u16) -> (Coloring, Paths) {
        let n = graph.len();
        let c = u32::from(budget);
        let mut paths = Paths::default();
        let mut slot_of: Vec<Option<u16>> = vec![None; n];
        let degree = |v: usize, removed: &BitSet| -> u32 {
            graph
                .neighbors(v)
                .filter(|&u| !removed.contains(u))
                .map(|u| u32::from(graph.width(u).words()))
                .sum()
        };

        let mut removed = BitSet::new(n.max(1));
        let mut stack: Vec<usize> = Vec::with_capacity(n);
        let mut remaining = n;
        while remaining > 0 {
            let mut next: Option<usize> = None;
            for v in 0..n {
                if removed.contains(v) {
                    continue;
                }
                let w = u32::from(graph.width(v).words());
                if w + degree(v, &removed) <= c {
                    let better = match next {
                        None => true,
                        Some(cur) => {
                            let (wc, wv) = (graph.width(cur).words(), graph.width(v).words());
                            wc > wv || (wc == wv && graph.use_count(cur) > graph.use_count(v))
                        }
                    };
                    if better {
                        next = Some(v);
                    }
                }
            }
            if next.is_none() {
                paths.optimistic += 1;
                for v in 0..n {
                    if removed.contains(v) {
                        continue;
                    }
                    let better = match next {
                        None => true,
                        Some(cur) => {
                            let key = |x: usize| {
                                (graph.width(x).words(), graph.use_count(x), degree(x, &removed))
                            };
                            key(cur) > key(v)
                        }
                    };
                    if better {
                        next = Some(v);
                    }
                }
            }
            let v = next.expect("an unstacked web remains");
            stack.push(v);
            removed.insert(v);
            remaining -= 1;
        }

        let mut spilled: Vec<usize> = Vec::new();
        'restart: loop {
            slot_of.iter_mut().for_each(|s| *s = None);
            for &v in stack.iter().rev() {
                if spilled.contains(&v) {
                    continue;
                }
                let vw = graph.width(v);
                let words = u32::from(vw.words());
                let align = u32::from(vw.alignment());
                let mut used = vec![false; budget as usize];
                for u in graph.neighbors(v) {
                    if let Some(start) = slot_of[u] {
                        for k in 0..graph.width(u).words() {
                            let idx = usize::from(start + k);
                            if idx < used.len() {
                                used[idx] = true;
                            }
                        }
                    }
                }
                let mut chosen = None;
                let mut cslot = 0u32;
                while cslot + words <= c {
                    if (u32::from(base) + cslot).is_multiple_of(align)
                        && (0..words).all(|k| !used[(cslot + k) as usize])
                    {
                        chosen = Some(cslot as u16);
                        break;
                    }
                    cslot += 1;
                }
                match chosen {
                    Some(s) => slot_of[v] = Some(s),
                    None => {
                        spilled.push(v);
                        if v != stack[0] {
                            paths.mid_stack_spills += 1;
                        }
                        continue 'restart;
                    }
                }
            }
            break;
        }

        let frame_size = slot_of
            .iter()
            .enumerate()
            .filter_map(|(v, s)| s.map(|s| s + graph.width(v).words()))
            .max()
            .unwrap_or(0);
        (Coloring { slot_of, spilled, frame_size }, paths)
    }

    /// A seeded random graph: 1–4-word webs, use counts drawn from a
    /// small range so that tie-breaks matter, and a random density.
    fn random_graph(rng: &mut StdRng, max_webs: usize) -> InterferenceGraph {
        let n = rng.gen_range(1..max_webs + 1);
        let widths: Vec<Width> = (0..n).map(|_| Width::ALL[rng.gen_range(0..4)]).collect();
        let uses: Vec<u32> = (0..n).map(|_| rng.gen_range(1..6)).collect();
        let mean_degree = rng.gen_range(0..24);
        let edges: Vec<(usize, usize)> =
            (0..n * mean_degree / 2).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();
        InterferenceGraph::from_edges(widths, uses, &edges)
    }

    #[test]
    fn matches_restarting_reference_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(0x0c01_0a11);
        let (mut optimistic, mut mid_stack_spills, mut multi_spill_graphs) = (0, 0, 0);
        for case in 0..400 {
            // Mostly small graphs (the reference is quadratic), with
            // every tenth one up to a few hundred webs.
            let max_webs = if case % 10 == 0 { 300 } else { 60 };
            let g = random_graph(&mut rng, max_webs);
            let budget: u16 = rng.gen_range(0..49);
            let base: u16 = rng.gen_range(0..4);
            let (want, paths) = reference_color(&g, budget, base);
            let got = color(&g, budget, base).unwrap();
            let ctx = format!("case {case}: {} webs, budget {budget}, base {base}", g.len());
            assert_eq!(got.slot_of, want.slot_of, "slots differ, {ctx}");
            assert_eq!(got.spilled, want.spilled, "spill order differs, {ctx}");
            assert_eq!(got.frame_size, want.frame_size, "frame size differs, {ctx}");
            validate(&g, base, &got).unwrap();
            optimistic += paths.optimistic;
            mid_stack_spills += paths.mid_stack_spills;
            multi_spill_graphs += usize::from(paths.mid_stack_spills >= 2);
        }
        // The budgets are tight enough to exercise the rare paths.
        assert!(optimistic >= 1000, "only {optimistic} optimistic picks");
        assert!(mid_stack_spills >= 1000, "only {mid_stack_spills} mid-stack spills");
        assert!(
            multi_spill_graphs >= 50,
            "only {multi_spill_graphs} graphs spilled twice mid-stack"
        );
    }
}
