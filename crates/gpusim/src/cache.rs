//! Set-associative LRU cache model.

/// A set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + way]`: the tag held by a way (meaningful only
    /// while the way is valid).
    tags: Vec<u64>,
    /// `last_use[set * ways + way]`: the tick of the way's latest access,
    /// `0` for an empty way (ticks start at 1).
    last_use: Vec<u64>,
    tick: u64,
    /// Hit/miss counters.
    pub hits: u64,
    pub misses: u64,
}

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
            tags: vec![0; sets * ways],
            last_use: vec![0; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
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
        // One pass finds a hit or the victim: the first way with the
        // smallest `last_use` (an empty way, else the LRU one).
        let mut victim = 0;
        for w in 0..tags.len() {
            if last_use[w] != 0 && tags[w] == tag {
                last_use[w] = self.tick;
                self.hits += 1;
                return true;
            }
            if last_use[w] < last_use[victim] {
                victim = w;
            }
        }
        self.misses += 1;
        tags[victim] = tag;
        last_use[victim] = self.tick;
        false
    }

    /// Invalidate everything (used between kernel launches to model
    /// cold-ish caches conservatively; the paper's kernels are large
    /// enough that cross-launch reuse is negligible).
    pub fn flush(&mut self) {
        self.last_use.fill(0);
    }

    /// Hit rate so far (0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
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
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 2);
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
    fn flush_clears() {
        let mut c = Cache::new(1024, 128, 2);
        c.access(0);
        c.flush();
        assert!(!c.access(0));
    }

    #[test]
    fn thrashing_working_set() {
        // Working set larger than capacity never hits with a strided scan.
        let mut c = Cache::new(1024, 128, 2);
        for round in 0..4 {
            for i in 0..16u64 {
                let hit = c.access(i * 128);
                if round == 0 {
                    assert!(!hit);
                }
            }
        }
        assert!(c.hit_rate() < 0.01, "{}", c.hit_rate());
    }
}
