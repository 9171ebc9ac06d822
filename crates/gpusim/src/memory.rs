//! Per-SM memory system: L1 → L2 slice → bandwidth-limited DRAM.
//!
//! The model captures exactly the mechanisms occupancy tuning interacts
//! with: latency that more warps can hide, cache capacity that more
//! warps thrash, and DRAM bandwidth that saturates. DRAM is a queue with
//! a fixed per-transaction service time (the SM's share of device
//! bandwidth); queueing delay emerges when many warps miss at once.

use crate::cache::Cache;
use crate::device::DeviceSpec;
use orion_kir::types::Width;
use serde::{Deserialize, Serialize};

/// Which address space a transaction belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Global memory (L1-cached only on Fermi).
    Global,
    /// Per-thread local memory (spills) — L1-cached on both devices.
    Local,
}

/// Dynamic memory counters (feed the power model and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub dram_transactions: u64,
    pub dram_bytes: u64,
}

/// One SM's view of the memory hierarchy.
#[derive(Debug)]
pub struct MemSystem {
    l1: Cache,
    l2: Cache,
    l1_caches_global: bool,
    l1_latency: u64,
    l2_latency: u64,
    dram_latency: u64,
    dram_service: u64,
    /// Next cycle at which the DRAM channel share is free.
    dram_free: u64,
    /// Line size in bytes: the coalescing segment and the DRAM burst.
    pub(crate) line: u64,
    pub stats: MemStats,
}

impl MemSystem {
    /// Build the memory system for one SM of `dev`.
    pub fn new(dev: &DeviceSpec) -> MemSystem {
        MemSystem {
            l1: Cache::new(dev.l1_per_sm(), dev.l1_line, dev.l1_ways),
            l2: Cache::new(dev.l2_slice_bytes, dev.l2_line, dev.l2_ways),
            l1_caches_global: dev.l1_caches_global,
            l1_latency: dev.l1_latency,
            l2_latency: dev.l2_latency,
            dram_latency: dev.dram_latency,
            dram_service: dev.dram_cycles_per_transaction,
            dram_free: 0,
            line: u64::from(dev.l1_line),
            stats: MemStats::default(),
        }
    }

    /// Issue one 128-byte transaction at cycle `now`; returns its
    /// completion cycle. Stores consume the same bandwidth but callers
    /// typically ignore the completion time (store buffering).
    pub fn access(&mut self, addr: u64, now: u64, kind: MemKind) -> u64 {
        let use_l1 = match kind {
            MemKind::Global => self.l1_caches_global,
            MemKind::Local => true,
        };
        if use_l1 {
            if self.l1.access(addr) {
                self.stats.l1_hits += 1;
                return now + self.l1_latency;
            }
            self.stats.l1_misses += 1;
        }
        if self.l2.access(addr) {
            self.stats.l2_hits += 1;
            return now + self.l2_latency;
        }
        self.stats.l2_misses += 1;
        // DRAM: wait for the channel, occupy it for the service time.
        let start = now.max(self.dram_free);
        self.dram_free = start + self.dram_service;
        self.stats.dram_transactions += 1;
        self.stats.dram_bytes += self.line;
        start + self.dram_latency
    }
}

/// Collect `f(a, k)` for each address `a` of `addrs` and word `k` of
/// `width` into `out`, ascending and without duplicates. When the values
/// arrive in ascending order — lanes accessing memory in order — that
/// takes one compare per value; otherwise the list is sorted and
/// deduplicated at the end. The result is the same either way.
#[inline]
fn sorted_unique(addrs: &[u64], width: Width, f: impl Fn(u64, u64) -> u64, out: &mut Vec<u64>) {
    out.clear();
    let mut in_order = true;
    let mut last = None;
    for &a in addrs {
        for k in 0..u64::from(width.words()) {
            let v = f(a, k);
            match last {
                Some(l) if v == l => continue,
                Some(l) if v < l => in_order = false,
                _ => {}
            }
            out.push(v);
            last = Some(v);
        }
    }
    if !in_order {
        out.sort_unstable();
        out.dedup();
    }
}

/// Coalesce a warp access into its unique cache-line transactions,
/// ascending (the hardware's 128-byte segment rule): each lane address
/// covers `width` words, every word touches the `line`-byte line it
/// falls in. Loads are timed before their bounds check, so a wide load
/// just below address 0 arrives here; its words wrap instead of
/// overflowing, and the load then fails out of bounds.
pub(crate) fn coalesce_lines(addrs: &[u64], width: Width, line: u64, lines: &mut Vec<u64>) {
    sorted_unique(addrs, width, |a, k| a.wrapping_add(k * 4) & !(line - 1), lines);
}

/// Shared-memory bank-conflict degree of a warp access: 32 banks of 4
/// bytes; lanes reading the *same* word broadcast (no conflict), so the
/// degree is the most distinct words any one bank serves (at least 1).
/// `words` is a working buffer.
pub(crate) fn bank_degree(addrs: &[u64], width: Width, words: &mut Vec<u64>) -> u64 {
    sorted_unique(addrs, width, |a, k| a / 4 + k, words);
    let mut per_bank = [0u32; 32];
    for w in words.iter() {
        per_bank[(w % 32) as usize] += 1;
    }
    u64::from(per_bank.iter().copied().max().unwrap_or(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(global_in_l1: bool) -> MemSystem {
        let mut dev = DeviceSpec::c2075();
        dev.l1_caches_global = global_in_l1;
        MemSystem::new(&dev)
    }

    #[test]
    fn dram_queueing_serializes() {
        let mut m = sys(false);
        // Two cold misses to distinct lines at the same cycle: the second
        // completes later because the channel is busy.
        let t1 = m.access(0, 0, MemKind::Global);
        let t2 = m.access(1 << 20, 0, MemKind::Global);
        assert!(t2 > t1);
        assert_eq!(m.stats.dram_transactions, 2);
    }

    #[test]
    fn l2_hit_is_faster_than_dram() {
        let mut m = sys(false);
        let cold = m.access(0, 0, MemKind::Global);
        let warm = m.access(0, cold, MemKind::Global) - cold;
        assert!(warm < cold);
        assert_eq!(m.stats.l2_hits, 1);
    }

    #[test]
    fn local_always_uses_l1() {
        let mut m = sys(false); // Kepler-style: global bypasses L1
        m.access(0, 0, MemKind::Local);
        let t = m.access(0, 1000, MemKind::Local);
        assert_eq!(t, 1000 + m.l1_latency);
        assert_eq!(m.stats.l1_hits, 1);
    }

    #[test]
    fn global_bypasses_l1_on_kepler() {
        let mut m = sys(false);
        m.access(0, 0, MemKind::Global);
        m.access(0, 1000, MemKind::Global);
        assert_eq!(m.stats.l1_hits + m.stats.l1_misses, 0);
        assert_eq!(m.stats.l2_hits, 1);
    }

    #[test]
    fn coalescing_dedups_lines() {
        let line = sys(true).line;
        let mut lines = Vec::new();
        // 32 lanes × 4B stride from base 256: one 128B line.
        let addrs: Vec<u64> = (0..32u64).map(|i| 256 + i * 4).collect();
        coalesce_lines(&addrs, Width::W32, line, &mut lines);
        assert_eq!(lines, vec![256]);
        // Stride 128: 32 distinct lines.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 128).collect();
        coalesce_lines(&addrs, Width::W32, line, &mut lines);
        assert_eq!(lines.len(), 32);
    }

    /// The sorting transcription the in-order fast path must match:
    /// expand every lane address to its words, map, sort, dedup.
    fn reference(addrs: &[u64], width: Width, f: impl Fn(u64, u64) -> u64) -> Vec<u64> {
        let mut v: Vec<u64> = addrs
            .iter()
            .flat_map(|&a| (0..u64::from(width.words())).map(move |k| (a, k)))
            .map(|(a, k)| f(a, k))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn reference_degree(addrs: &[u64], width: Width) -> u64 {
        let mut per_bank = [0u32; 32];
        for w in reference(addrs, width, |a, k| a / 4 + k) {
            per_bank[(w % 32) as usize] += 1;
        }
        u64::from(per_bank.iter().copied().max().unwrap_or(1)).max(1)
    }

    /// Seeded property test: the sort-free coalescing and bank-degree
    /// paths give exactly the reference's lists over ascending,
    /// permuted, duplicated and 128-byte-strided lane addresses, at
    /// every access width, under full and partial exec masks.
    #[test]
    fn sort_free_paths_match_the_sorting_reference() {
        let line = sys(true).line;
        let mut state = 0x5eed_c0a1_e5ce_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let (mut lines, mut words) = (Vec::new(), Vec::new());
        for _ in 0..400 {
            let base = next() % (1 << 20) * 4;
            let stride = [4, 8, 16, 128, 132][(next() % 5) as usize];
            let mut lanes: Vec<u64> = (0..32).map(|l| base + l * stride).collect();
            match next() % 4 {
                0 => {}                                                     // ascending
                1 => lanes.reverse(),                                       // out of order
                2 => lanes.iter_mut().for_each(|a| *a = base + *a % 3 * 4), // duplicated
                _ => {
                    // permuted
                    for i in (1..lanes.len()).rev() {
                        lanes.swap(i, (next() % (i as u64 + 1)) as usize);
                    }
                }
            }
            // Partial exec mask: the active lanes, in lane order.
            let exec = if next() % 2 == 0 { u32::MAX } else { next() as u32 };
            let addrs: Vec<u64> =
                (0..32).filter(|&l| exec & (1 << l) != 0).map(|l| lanes[l]).collect();
            for width in [Width::W32, Width::W64, Width::W96, Width::W128] {
                coalesce_lines(&addrs, width, line, &mut lines);
                assert_eq!(lines, reference(&addrs, width, |a, k| (a + k * 4) & !(line - 1)));
                assert_eq!(
                    bank_degree(&addrs, width, &mut words),
                    reference_degree(&addrs, width),
                    "{addrs:?} {width:?}"
                );
            }
        }
    }
}
