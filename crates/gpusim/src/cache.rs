//! Set-associative LRU cache model.

/// A set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + way]`: the tag held by a way, [`EMPTY`] while
    /// the way holds none.
    tags: Vec<u64>,
    /// `last_use[set * ways + way]`: the tick of the way's latest access,
    /// `0` for an empty way (ticks start at 1).
    last_use: Vec<u64>,
    tick: u64,
}

/// The tag of an empty way. Tags are line numbers divided by the set
/// count, so no address reaches it.
const EMPTY: u64 = u64::MAX;

impl Cache {
    /// Build a cache of `bytes` capacity with `line` bytes per line and
    /// `ways` associativity.
    ///
    /// # Panics
    /// Panics if `line` is not a power of two or the geometry is
    /// degenerate.
    pub fn new(bytes: u32, line: u32, ways: u32) -> Cache {
        assert!(line.is_power_of_two() && line > 0);
        assert!(ways > 0);
        let lines = (bytes / line).max(1) as usize;
        let ways = (ways as usize).min(lines);
        let sets = (lines / ways).max(1);
        Cache {
            sets,
            ways,
            line_shift: line.trailing_zeros(),
            tags: vec![EMPTY; sets * ways],
            last_use: vec![0; sets * ways],
            tick: 0,
        }
    }

    /// Access `addr`; returns `true` on hit. Misses allocate (LRU evict).
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) % self.sets;
        let tag = line / self.sets as u64;
        let range = set * self.ways..(set + 1) * self.ways;
        let (tags, last_use) = (&mut self.tags[range.clone()], &mut self.last_use[range]);
        if let Some(w) = tags.iter().position(|&t| t == tag) {
            last_use[w] = self.tick;
            return true;
        }
        // Miss: the victim is the first way with the smallest
        // `last_use` (an empty way, else the LRU one).
        let mut victim = 0;
        for w in 1..last_use.len() {
            if last_use[w] < last_use[victim] {
                victim = w;
            }
        }
        tags[victim] = tag;
        last_use[victim] = self.tick;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(16 * 1024, 128, 4);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1040), "same 128B line");
        assert!(!c.access(0x2000));
    }

    #[test]
    fn lru_eviction_order() {
        // 2 sets × 2 ways × 128B = 512B cache.
        let mut c = Cache::new(512, 128, 2);
        // Addresses mapping to set 0: lines 0, 2, 4 (line % 2 == 0).
        let line = |n: u64| n * 128;
        assert!(!c.access(line(0)));
        assert!(!c.access(line(2)));
        assert!(c.access(line(0))); // refresh line 0
        assert!(!c.access(line(4))); // evicts line 2 (LRU)
        assert!(c.access(line(0)));
        assert!(!c.access(line(2))); // line 2 was evicted
    }

    #[test]
    fn thrashing_working_set() {
        // Working set larger than capacity never hits with a strided scan.
        let mut c = Cache::new(1024, 128, 2);
        let hits = (0..4).flat_map(|_| 0..16u64).filter(|&i| c.access(i * 128)).count();
        assert_eq!(hits, 0);
    }
}
