//! Kernel splitting (§3.4, after \[30\]): when the application has no
//! iteration loop but launches many blocks, Orion splits one invocation
//! into several smaller ones so the runtime tuner gets iterations to
//! measure. The split slices the grid; `%nctaid` keeps reporting the
//! full grid so per-thread work assignments are unchanged.
//!
//! This module is the one home of that slicing: [`split_ranges`] cuts a
//! grid into contiguous slices (run each with
//! [`LaunchOptions::cta_range`](orion_gpusim::sim::LaunchOptions::cta_range)),
//! and [`can_split`] says whether a grid is large enough to slice. The
//! lattice's split arms ([`crate::version::CandidateSpace`]) measure in
//! [`SPLIT_PIECES`] slices.

/// Grid slices per measurement pull of a split lattice arm.
pub const SPLIT_PIECES: u32 = 8;

/// Slice a grid of `grid` blocks into up to `pieces` contiguous ranges
/// of `(first block, block count)`, fewer if the grid has fewer blocks.
pub fn split_ranges(grid: u32, pieces: u32) -> Vec<(u32, u32)> {
    if grid == 0 {
        return Vec::new();
    }
    let pieces = pieces.min(grid).max(1);
    let base = grid / pieces;
    let rem = grid % pieces;
    let mut out = Vec::with_capacity(pieces as usize);
    let mut start = 0;
    for i in 0..pieces {
        let len = base + u32::from(i < rem);
        out.push((start, len));
        start += len;
    }
    out
}

/// Does the launch have enough blocks to split into `pieces` that still
/// fill the device? (Each piece should keep every SM busy with at least
/// one block.)
pub fn can_split(grid: u32, num_sms: u32, pieces: u32) -> bool {
    grid >= num_sms * pieces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_grid_exactly() {
        for grid in [1u32, 7, 64, 100, 257] {
            for pieces in [1u32, 2, 3, 5] {
                let rs = split_ranges(grid, pieces);
                let total: u32 = rs.iter().map(|&(_, c)| c).sum();
                assert_eq!(total, grid, "grid {grid} pieces {pieces}");
                // Contiguous and ordered.
                let mut expect = 0;
                for &(s, c) in &rs {
                    assert_eq!(s, expect);
                    assert!(c > 0);
                    expect = s + c;
                }
            }
        }
    }

    #[test]
    fn can_split_needs_enough_blocks() {
        assert!(can_split(64, 8, 4));
        assert!(!can_split(16, 8, 4));
    }
}
