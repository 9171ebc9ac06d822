//! Log-bucketed latency histogram with deterministic merge.
//!
//! The service plane needs *distributions*, not just totals: a launch
//! whose p99 latency doubled while its mean held still is exactly the
//! regression the mean-only counters of PR 1 could never see. This
//! histogram is the one distribution type every layer shares — the
//! tuning session records per-launch cycles and queue waits into it,
//! the service merges per-kernel histograms into a batch view, and the
//! exporters ([`crate::export`]) render it as Prometheus buckets or a
//! JSON quantile summary.
//!
//! # Bucketing scheme
//!
//! HdrHistogram-style base-2 buckets with [`SUB_BUCKETS`] linear
//! sub-buckets per octave:
//!
//! * values below [`SUB_BUCKETS`] get an exact bucket each (small
//!   counts — retry attempts, queue depths — lose no precision);
//! * a value `v ≥ SUB_BUCKETS` with highest set bit `t` lands in the
//!   sub-bucket indexed by the [`SUB_BITS`] bits below bit `t`, so each
//!   octave `[2^t, 2^{t+1})` is split into [`SUB_BUCKETS`] equal-width
//!   buckets and the relative bucket width is bounded by
//!   `2^-SUB_BITS = 1/16` everywhere.
//!
//! Quantiles report the midpoint of the bucket holding the target rank
//! (clamped into the exact observed `[min, max]`), so the relative
//! quantile error is bounded by half a bucket width — `1/32 ≈ 3.2%` —
//! and is *zero* for values below [`SUB_BUCKETS`] and for the extremes
//! (`q=0`, `q=1` return the exact min/max).
//!
//! # Determinism
//!
//! Recording and merging are pure integer arithmetic: bucket counts,
//! total, sum, min and max all add (or min/max) commutatively and
//! associatively, so merging per-worker histograms in *any* order
//! yields a bit-identical result. The service's worker-count tests
//! (`orion_core::service::tests`) and the observability suite gate
//! sequential-vs-concurrent runs on exactly this property.

/// Bits of sub-octave precision; bucket relative width is `2^-SUB_BITS`.
pub const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave (`2^SUB_BITS`).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total addressable buckets for the full `u64` range.
pub const NUM_BUCKETS: usize =
    (SUB_BUCKETS as usize) + (64 - SUB_BITS as usize) * (SUB_BUCKETS as usize);

/// The bucket index for `v`. Monotone non-decreasing in `v`.
#[must_use]
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // v ∈ [2^top, 2^{top+1}), top ≥ SUB_BITS
    let sub = (v >> (top - SUB_BITS)) & (SUB_BUCKETS - 1);
    SUB_BUCKETS as usize + ((top - SUB_BITS) as usize) * SUB_BUCKETS as usize + sub as usize
}

/// The half-open value range `[lo, hi)` covered by bucket `idx`
/// (`hi` saturates at `u64::MAX` in the topmost bucket).
#[must_use]
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB_BUCKETS as usize {
        return (idx as u64, idx as u64 + 1);
    }
    let rel = idx - SUB_BUCKETS as usize;
    let top = SUB_BITS + (rel / SUB_BUCKETS as usize) as u32;
    let sub = (rel % SUB_BUCKETS as usize) as u64;
    let width = 1u64 << (top - SUB_BITS);
    let lo = (1u64 << top) + sub * width;
    (lo, lo.saturating_add(width))
}

/// The representative value reported for bucket `idx` (its midpoint).
#[must_use]
pub fn bucket_mid(idx: usize) -> u64 {
    let (lo, hi) = bucket_bounds(idx);
    lo + (hi - lo) / 2
}

/// A log-bucketed histogram of `u64` samples. See the module docs for
/// the bucketing scheme and the determinism contract.
///
/// The bucket array grows lazily up to the highest recorded bucket, so
/// an idle histogram costs a few machine words; equality is defined on
/// the *distribution* (trailing empty buckets are ignored).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        if (self.count, self.sum) != (other.count, other.sum) {
            return false;
        }
        if self.count > 0 && (self.min, self.max) != (other.min, other.max) {
            return false;
        }
        let n = self.counts.len().max(other.counts.len());
        (0..n).all(|i| {
            self.counts.get(i).copied().unwrap_or(0) == other.counts.get(i).copied().unwrap_or(0)
        })
    }
}

impl Histogram {
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
    }

    /// Fold `other` into `self`. Commutative and associative: any merge
    /// order over a set of histograms produces a bit-identical result.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum recorded sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact arithmetic mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) as the midpoint of the bucket
    /// holding rank `⌈q·count⌉`, clamped into the exact `[min, max]`.
    /// Relative error is bounded by half a bucket width (`2^-(SUB_BITS+1)`).
    /// Returns 0 on an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The rank-1 and rank-count order statistics are tracked exactly.
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_mid(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Non-empty buckets as `(index, count)` pairs, ascending by index.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c))
    }

    /// Condensed scalar view for reports.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            min: self.min(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
            max: self.max(),
            mean: self.mean(),
        }
    }

    /// Render as a JSON object: the summary scalars plus the sparse
    /// bucket table (`[[index, count], ...]`).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let s = self.summary();
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"count\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"mean\":{}",
            s.count, s.min, s.p50, s.p90, s.p99, s.max, s.mean
        );
        out.push_str(",\"buckets\":[");
        for (i, (idx, c)) in self.nonzero_buckets().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{idx},{c}]");
        }
        out.push_str("]}");
        out
    }
}

/// The scalar summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    pub count: u64,
    pub min: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
    pub mean: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_exact_below_sub() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
        }
        let mut last = 0;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 33, 100, 1000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= last, "index must not decrease: v={v} idx={idx} last={last}");
            assert!(idx < NUM_BUCKETS);
            last = idx;
        }
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in (0..10_000u64).chain([1 << 33, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "v={v} not in [{lo},{hi}) of bucket {idx}"
            );
        }
        // Octave boundaries land in the first sub-bucket of their octave.
        for t in SUB_BITS..63 {
            let v = 1u64 << t;
            let (lo, _) = bucket_bounds(bucket_index(v));
            assert_eq!(lo, v, "2^{t} must start its bucket");
        }
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        for v in (SUB_BUCKETS..100_000u64).step_by(37) {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            let width = hi - lo;
            assert!(
                (width as f64) / (lo as f64) <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
                "bucket [{lo},{hi}) too wide"
            );
        }
    }

    #[test]
    fn quantile_error_is_within_half_a_bucket() {
        // Deterministic pseudo-random samples (splitmix-style).
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 27)
        };
        let mut samples: Vec<u64> = (0..5000).map(|_| next() % 1_000_000).collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1] as f64;
            let est = h.quantile(q) as f64;
            let rel = (est - exact).abs() / exact.max(1.0);
            assert!(
                rel <= 1.0 / (2.0 * SUB_BUCKETS as f64) + 1e-9,
                "q={q}: exact {exact}, est {est}, rel {rel}"
            );
        }
        // Extremes are exact.
        assert_eq!(h.quantile(0.0), samples[0]);
        assert_eq!(h.quantile(1.0), *samples.last().unwrap());
        assert_eq!(h.min(), samples[0]);
        assert_eq!(h.max(), *samples.last().unwrap());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.p50(), 3);
        assert_eq!(h.quantile(1.0), 7);
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 19);
    }

    #[test]
    fn merge_is_order_independent_and_matches_single_recorder() {
        let chunks: Vec<Vec<u64>> = (0..8)
            .map(|k| (0..500u64).map(|i| (i * 2654435761 + k * 40503) % 250_000).collect())
            .collect();
        let mut whole = Histogram::new();
        for c in &chunks {
            for &v in c {
                whole.record(v);
            }
        }
        let parts: Vec<Histogram> = chunks
            .iter()
            .map(|c| {
                let mut h = Histogram::new();
                for &v in c {
                    h.record(v);
                }
                h
            })
            .collect();
        // Forward, reverse, and interleaved merge orders.
        let mut fwd = Histogram::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Histogram::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        let mut tree = {
            let mut level: Vec<Histogram> = parts.clone();
            while level.len() > 1 {
                let mut next = Vec::new();
                for pair in level.chunks(2) {
                    let mut m = pair[0].clone();
                    if let Some(b) = pair.get(1) {
                        m.merge(b);
                    }
                    next.push(m);
                }
                level = next;
            }
            level.pop().unwrap()
        };
        tree.merge(&Histogram::new()); // empty merge is a no-op
        assert_eq!(fwd, whole);
        assert_eq!(rev, whole);
        assert_eq!(tree, whole);
    }

    #[test]
    fn merge_across_scoped_threads_is_bit_identical() {
        // The exact shape the service uses: one histogram per scoped
        // worker, merged in submission order afterwards — must equal
        // the single-threaded recording bit for bit.
        let inputs: Vec<Vec<u64>> = (0..4)
            .map(|k| (0..1000u64).map(|i| (i * 48271 + k * 7919) % 1_000_000).collect())
            .collect();
        let mut serial = Histogram::new();
        for c in &inputs {
            for &v in c {
                serial.record(v);
            }
        }
        let mut parts: Vec<Histogram> = (0..inputs.len()).map(|_| Histogram::new()).collect();
        std::thread::scope(|scope| {
            for (part, input) in parts.iter_mut().zip(&inputs) {
                scope.spawn(move || {
                    for &v in input {
                        part.record(v);
                    }
                });
            }
        });
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, serial);
        assert_eq!(merged.summary(), serial.summary());
    }

    #[test]
    fn json_renders_sparse_buckets() {
        let mut h = Histogram::new();
        h.record(3);
        h.record_n(100, 2);
        let j = h.to_json();
        assert!(j.contains("\"count\":3"), "{j}");
        assert!(j.contains("[3,1]"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn equality_ignores_trailing_capacity() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1_000_000); // grows the bucket vec
        a = Histogram { counts: a.counts[..0].to_vec(), count: 0, sum: 0, min: 0, max: 0 };
        assert_eq!(a, b);
        b.record(5);
        assert_ne!(a, b);
    }
}
