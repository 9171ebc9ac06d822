//! Interference-graph construction over webs.
//!
//! The input function must be in *web* form (the output of
//! [`orion_kir::ssa::normalize`]): every virtual register is an
//! allocation unit. Two webs interfere when one is defined at a point
//! where the other is live, so they can never share an on-chip slot.

use orion_kir::bitset::BitSet;
use orion_kir::cfg::Cfg;
use orion_kir::function::Function;
use orion_kir::liveness::Liveness;
use orion_kir::types::{VReg, Width};

/// Undirected interference graph; node ids are web (vreg) indices.
#[derive(Debug, Clone)]
pub struct InterferenceGraph {
    /// Adjacency sets, one per web.
    adj: Vec<BitSet>,
    /// Width of each web.
    widths: Vec<Width>,
    /// Static occurrence count of each web (defs + uses) — a spill-cost
    /// proxy: frequently-touched webs should keep register slots.
    uses: Vec<u32>,
}

impl InterferenceGraph {
    /// Build the interference graph of a web-form function.
    pub fn build(f: &Function, cfg: &Cfg, live: &Liveness) -> Self {
        let n = f.num_vregs();
        let mut adj = vec![BitSet::new(n); n];
        let add_edge = |adj: &mut Vec<BitSet>, a: usize, b: usize| {
            if a != b {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        };
        for (bid, blk) in f.iter_blocks() {
            if !cfg.reachable(bid) {
                continue;
            }
            // Walk backward keeping the live set; each def interferes
            // with everything live after the instruction.
            let mut cur = live.live_out[bid.0 as usize].clone();
            for inst in blk.insts.iter().rev() {
                for d in inst.defs() {
                    for l in cur.iter() {
                        add_edge(&mut adj, d.0 as usize, l);
                    }
                }
                // Multiple defs of one instruction (call rets) coexist.
                let defs: Vec<VReg> = inst.defs().collect();
                for (i, &a) in defs.iter().enumerate() {
                    for &b in &defs[i + 1..] {
                        add_edge(&mut adj, a.0 as usize, b.0 as usize);
                    }
                }
                for d in inst.defs() {
                    cur.remove(d.0 as usize);
                }
                for u in inst.uses() {
                    cur.insert(u.0 as usize);
                }
            }
            // Parameters interfere with anything live at entry alongside them.
            if bid.0 == 0 {
                let params: Vec<VReg> = f.params.clone();
                for (i, &a) in params.iter().enumerate() {
                    for &b in &params[i + 1..] {
                        add_edge(&mut adj, a.0 as usize, b.0 as usize);
                    }
                    for l in cur.iter() {
                        add_edge(&mut adj, a.0 as usize, l);
                    }
                }
            }
        }
        let mut uses = vec![0u32; n];
        for (_, blk) in f.iter_blocks() {
            for inst in &blk.insts {
                for r in inst.uses().chain(inst.defs()) {
                    uses[r.0 as usize] += 1;
                }
            }
        }
        InterferenceGraph { adj, widths: f.vreg_widths.clone(), uses }
    }

    /// A graph from an explicit edge list, for tests that need graph
    /// shapes no kernel produces. Self-loops are ignored, as in
    /// [`InterferenceGraph::build`].
    #[cfg(test)]
    pub(crate) fn from_edges(widths: Vec<Width>, uses: Vec<u32>, edges: &[(usize, usize)]) -> Self {
        let n = widths.len();
        assert_eq!(uses.len(), n, "one use count per web");
        let mut adj = vec![BitSet::new(n); n];
        for &(a, b) in edges {
            if a != b {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        InterferenceGraph { adj, widths, uses }
    }

    /// Number of webs (nodes).
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when there are no webs.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Do webs `a` and `b` interfere?
    pub fn interferes(&self, a: usize, b: usize) -> bool {
        self.adj[a].contains(b)
    }

    /// Neighbors of web `v`.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[v].iter()
    }

    /// Width of web `v`.
    pub fn width(&self, v: usize) -> Width {
        self.widths[v]
    }

    /// Static occurrence count of web `v` (spill-cost proxy).
    pub fn use_count(&self, v: usize) -> u32 {
        self.uses[v]
    }

    /// Degree weighted by neighbor words — the `v.edges` quantity of the
    /// paper's Figure 4, generalized for wide neighbors.
    pub fn weighted_degree(&self, v: usize) -> u32 {
        self.adj[v].iter().map(|u| u32::from(self.widths[u].words())).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_kir::builder::FunctionBuilder;
    use orion_kir::inst::Operand;
    use orion_kir::ssa::normalize;
    use orion_kir::types::MemSpace;

    fn graph_of(f: &Function) -> InterferenceGraph {
        let nf = normalize(f).unwrap();
        let cfg = Cfg::new(&nf);
        let live = Liveness::new(&nf, &cfg);
        InterferenceGraph::build(&nf, &cfg, &live)
    }

    #[test]
    fn simultaneously_live_interfere() {
        let mut b = FunctionBuilder::kernel("k");
        let x = b.mov_i32(1);
        let y = b.mov_i32(2);
        let z = b.iadd(x, y);
        b.st(MemSpace::Global, Width::W32, Operand::Imm(0), z, 0);
        let f = b.finish();
        let g = graph_of(&f);
        // Webs are renumbered by normalize but the shape is: two sources
        // interfere; the sum interferes with neither (they die at the add).
        let n = g.len();
        assert_eq!(n, 3);
        let deg: Vec<usize> = (0..n).map(|v| g.neighbors(v).count()).collect();
        let interfering = deg.iter().filter(|&&d| d > 0).count();
        assert_eq!(interfering, 2);
    }

    #[test]
    fn sequential_values_do_not_interfere() {
        let mut b = FunctionBuilder::kernel("k");
        let x = b.mov_i32(1);
        b.st(MemSpace::Global, Width::W32, Operand::Imm(0), x, 0);
        let y = b.mov_i32(2);
        b.st(MemSpace::Global, Width::W32, Operand::Imm(4), y, 0);
        let f = b.finish();
        let g = graph_of(&f);
        assert_eq!(g.len(), 2);
        assert!(!g.interferes(0, 1));
    }

    #[test]
    fn weighted_degree_counts_words() {
        let mut b = FunctionBuilder::kernel("k");
        let wide = b.vreg(Width::W128);
        b.push(orion_kir::inst::Inst::new(
            orion_kir::inst::Opcode::Mov,
            Some(wide),
            vec![Operand::Imm(0)],
        ));
        let x = b.mov_i32(1);
        // Keep both live: store wide then x.
        b.st(MemSpace::Global, Width::W128, Operand::Imm(0), wide, 0);
        b.st(MemSpace::Global, Width::W32, Operand::Imm(16), x, 0);
        let f = b.finish();
        let g = graph_of(&f);
        // x's only neighbor is the 4-word wide value.
        let x_web = (0..g.len()).find(|&v| g.width(v) == Width::W32).unwrap();
        assert_eq!(g.weighted_degree(x_web), 4);
    }
}
