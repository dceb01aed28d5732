//! Statistics used by the benchmark harness.
//!
//! The paper reports means, tail percentiles (99th / 99.9th) and series
//! (requests-per-second versus client count, etc.). [`Histogram`] gives
//! percentile queries over latency samples in one fixed 4,100-byte
//! bucket array that covers values below 2^64, [`Summary`] tracks
//! running moments, and [`Series`] records (x, y) points for the figure
//! reproductions.

use crate::time::SimDuration;

/// A log-bucketed histogram of non-negative values.
///
/// Each octave is split into 16 linear sub-buckets (HdrHistogram's
/// scheme), bounding relative quantile error below ~3.2 %. The counts
/// are one fixed 4,100-byte allocation made by [`Histogram::new`],
/// whatever the sample count or spread: 1,025 `u32` buckets, one for
/// everything below 1.0 and 16 for each octave `[2^e, 2^(e+1))`,
/// `e = 0..=63`. Values of 2^64 or more share the top bucket, so their
/// percentiles read as its midpoint clamped to the observed min/max.
/// A bucket counts at most `u32::MAX` samples — `record` and `merge`
/// panic past that — while [`Histogram::count`] is a `u64`.
/// Bucket indexing reads the exponent and top mantissa bits straight
/// out of the IEEE-754 representation, so the record path is pure
/// integer math — no `log2` per sample.
///
/// # Example
///
/// ```
/// use bmhive_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v as f64);
/// }
/// let p50 = h.percentile(50.0);
/// assert!((450.0..=550.0).contains(&p50));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
    min: f64,
    max: f64,
    sum: f64,
}

/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave.
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Octaves with buckets of their own: `[2^e, 2^(e+1))` for `e < 64`.
const OCTAVES: usize = 64;
/// The sub-1.0 bucket plus 16 per octave.
const NUM_BUCKETS: usize = 1 + OCTAVES * SUB_BUCKETS;

/// Arithmetic midpoint of each bucket, precomputed as raw IEEE-754 bits
/// so the table is a compile-time constant: bucket `1 + 16e + k` spans
/// `2^e·(1 + k/16) .. 2^e·(1 + (k+1)/16)`, whose midpoint is exactly
/// `2^e·(1 + (2k+1)/32)` — an exponent of `e` and a mantissa of
/// `(2k+1) << 47`.
const MIDPOINT_BITS: [u64; NUM_BUCKETS] = {
    let mut bits = [0u64; NUM_BUCKETS];
    bits[0] = 0x3FE0_0000_0000_0000; // 0.5, the sub-1.0 bucket
    let mut i = 1;
    while i < NUM_BUCKETS {
        let exp = ((i - 1) / SUB_BUCKETS) as u64;
        let sub = ((i - 1) % SUB_BUCKETS) as u64;
        bits[i] = ((exp + 1023) << 52) | ((2 * sub + 1) << 47);
        i += 1;
    }
    bits
};

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    fn bucket_of(value: f64) -> usize {
        if value < 1.0 {
            return 0;
        }
        // For finite v >= 1 the exponent field is floor(log2 v) + 1023
        // and the top 4 mantissa bits pick the linear sub-bucket within
        // the octave; values of 2^64 or more clamp into the top bucket.
        let bits = value.to_bits();
        let exp = ((bits >> 52) as usize) - 1023;
        let sub = ((bits >> (52 - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
        (1 + exp * SUB_BUCKETS + sub).min(NUM_BUCKETS - 1)
    }

    fn bucket_midpoint(index: usize) -> f64 {
        f64::from_bits(MIDPOINT_BITS[index])
    }

    /// Records a value. Negative and non-finite values are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or not finite; latencies and counts
    /// are never either, so this indicates a caller bug. Also panics if
    /// the value's bucket already holds `u32::MAX` samples.
    pub fn record(&mut self, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "record: invalid value {value}"
        );
        let count = &mut self.counts[Self::bucket_of(value)];
        *count = count
            .checked_add(1)
            .expect("record: histogram bucket count overflows u32");
        self.total += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration in microseconds (the unit the paper reports
    /// latencies in).
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_micros_f64());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of recorded samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The value at the given percentile (0–100), or 0 if empty.
    ///
    /// Returns the midpoint of the bucket containing the requested rank,
    /// clamped to the observed min/max so tiny sample counts do not
    /// over-report bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile: p out of range");
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.total as f64 - 1e-9).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Self::bucket_midpoint(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if a merged bucket would hold more than `u32::MAX`
    /// samples.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a
                .checked_add(b)
                .expect("merge: histogram bucket count overflows u32");
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Running count / mean / variance / extrema (Welford's algorithm).
///
/// # Example
///
/// ```
/// use bmhive_sim::Summary;
///
/// let mut s = Summary::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.std_dev(), 2.0); // population standard deviation
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance of samples, or 0 if fewer than two.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std-dev / mean), or 0 if the mean is 0.
    /// The paper uses throughput stability ("less jitter") comparisons;
    /// this is the metric we report for them.
    pub fn cv(&self) -> f64 {
        if self.mean() == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean()
        }
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Exact percentile over a slice of samples, with a caller-owned
/// scratch buffer.
///
/// Used when the sample population is small enough to keep (e.g. 20 000
/// per-VM preemption rates in Fig. 1) and exact order statistics matter.
/// `samples` is copied into `scratch` (reusing its capacity) and
/// quickselected in place, so repeated percentile queries over
/// same-sized sample sets — the fig1 study asks four per hour —
/// allocate at most once across all of them.
///
/// # Panics
///
/// Panics if `samples` is empty or `p` is outside `[0, 100]`.
pub fn exact_percentile_into(samples: &[f64], p: f64, scratch: &mut Vec<f64>) -> f64 {
    assert!(!samples.is_empty(), "exact_percentile: empty sample set");
    assert!(
        (0.0..=100.0).contains(&p),
        "exact_percentile: p out of range"
    );
    scratch.clear();
    scratch.extend_from_slice(samples);
    let rank = ((p / 100.0) * scratch.len() as f64 - 1e-9).ceil().max(1.0) as usize - 1;
    let rank = rank.min(scratch.len() - 1);
    // Quickselect: the same order statistic a full sort would produce,
    // in O(n) — these calls dominate the fig1 fleet study's runtime.
    let (_, value, _) =
        scratch.select_nth_unstable_by(rank, |a, b| a.partial_cmp(b).expect("NaN sample"));
    *value
}

/// A labelled (x, y) series for reproducing one curve of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with a label (e.g. `"bm-guest"`).
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The series label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The recorded points, in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The y values only.
    pub fn ys(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, y)| y)
    }

    /// Mean of the y values, or 0 if empty.
    pub fn mean_y(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.ys().sum::<f64>() / self.points.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// A random sample set: a length drawn from `lens`, values uniform
    /// in `[lo, hi)`.
    fn random_samples(rng: &mut SimRng, lens: std::ops::Range<u64>, lo: f64, hi: f64) -> Vec<f64> {
        (0..rng.range(lens.start, lens.end))
            .map(|_| rng.range_f64(lo, hi))
            .collect()
    }

    #[test]
    fn histogram_percentiles_are_close_to_exact() {
        let mut h = Histogram::new();
        let samples: Vec<f64> = (1..=100_000).map(|i| i as f64).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut scratch = Vec::new();
        for p in [50.0, 90.0, 99.0, 99.9] {
            let exact = exact_percentile_into(&samples, p, &mut scratch);
            let approx = h.percentile(p);
            let rel_err = (approx - exact).abs() / exact;
            assert!(rel_err < 0.05, "p{p}: approx {approx} vs exact {exact}");
        }
    }

    #[test]
    fn histogram_tracks_mean_min_max() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 3.0);
        // Random samples: the mean is the exact arithmetic mean (the
        // true sum is kept, not bucket midpoints), and percentiles are
        // monotone in p and bounded by min/max.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x4157);
            let values = random_samples(&mut rng, 1..500, 0.0, 1e9);
            let mut h = Histogram::new();
            values.iter().for_each(|&v| h.record(v));
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            assert!(
                (h.mean() - mean).abs() < 1e-6 * mean.max(1.0),
                "seed {seed}"
            );
            let mut last = 0.0;
            for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let q = h.percentile(p);
                assert!(q >= last - 1e-9, "seed {seed}: p{p} = {q} < {last}");
                assert!(
                    q >= h.min() - 1e-9 && q <= h.max() + 1e-9,
                    "seed {seed}: p{p}"
                );
                last = q;
            }
        }
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn histogram_merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10.0);
        b.record(1_000.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10.0);
        assert_eq!(a.max(), 1_000.0);
        // Merging equals recording the concatenation.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x3e76);
            let (mut parts, mut both) = ([Histogram::new(), Histogram::new()], Histogram::new());
            for part in &mut parts {
                for v in random_samples(&mut rng, 0..200, 0.0, 1e6) {
                    // Spread over seven decades, sub-unit values included.
                    let v = v / 10f64.powi(rng.below(7) as i32);
                    part.record(v);
                    both.record(v);
                }
            }
            let [mut a, b] = parts;
            a.merge(&b);
            assert_eq!(a.count(), both.count(), "seed {seed}");
            for p in 0..=100 {
                let p = f64::from(p);
                assert_eq!(a.percentile(p), both.percentile(p), "seed {seed}: p{p}");
            }
        }
    }

    #[test]
    fn histogram_record_duration_uses_micros() {
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_micros(25));
        assert!((h.mean() - 25.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid value")]
    fn histogram_rejects_negative() {
        Histogram::new().record(-1.0);
    }

    #[test]
    fn integer_bucketing_is_monotone_with_tight_midpoints() {
        // Index never decreases as values grow, and a single-sample
        // percentile clamps to the exact value while the raw midpoint
        // stays within the sub-bucket's ~3.2 % half-width.
        let mut prev = 0;
        let mut v = 0.25;
        while v < 1e12 {
            let idx = Histogram::bucket_of(v);
            assert!(idx >= prev, "bucket index regressed at {v}");
            prev = idx;
            if v >= 1.0 {
                let mid = Histogram::bucket_midpoint(idx);
                let rel = (mid - v).abs() / v;
                assert!(rel <= 1.0 / 31.0, "midpoint {mid} vs {v}: rel {rel}");
            }
            v *= 1.01;
        }
        // The top bucket absorbs everything beyond the table.
        assert_eq!(Histogram::bucket_of(f64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_layout_is_1025_u32s_covering_values_below_2_pow_64() {
        let h = Histogram::new();
        assert_eq!(std::mem::size_of_val(&h.counts[..]), 4_100);
        assert_eq!(h.counts.capacity(), h.counts.len(), "one exact allocation");
        // The largest f64 below 2^64 is the last value with a bucket of
        // its own — the top one — and everything larger shares it.
        let below = f64::from_bits(2f64.powi(64).to_bits() - 1);
        assert_eq!(Histogram::bucket_of(below), 1_024);
        assert_eq!(Histogram::bucket_of(2f64.powi(63) * 1.9375), 1_024);
        assert_eq!(Histogram::bucket_of(2f64.powi(63) * 1.875), 1_023);
        assert_eq!(Histogram::bucket_of(2f64.powi(64)), 1_024);
        assert_eq!(Histogram::bucket_of(f64::MAX), 1_024);
    }

    /// A histogram whose bucket for `value` is full.
    fn full_bucket_at(value: f64) -> Histogram {
        let mut h = Histogram::new();
        h.counts[Histogram::bucket_of(value)] = u32::MAX;
        h
    }

    #[test]
    #[should_panic(expected = "record: histogram bucket count overflows u32")]
    fn record_into_a_full_bucket_panics() {
        full_bucket_at(5.0).record(5.0);
    }

    #[test]
    #[should_panic(expected = "merge: histogram bucket count overflows u32")]
    fn merge_into_a_full_bucket_panics() {
        let mut other = Histogram::new();
        other.record(5.0);
        full_bucket_at(5.0).merge(&other);
    }

    #[test]
    fn percentiles_match_the_2048_u64_bucket_layout_bit_for_bit() {
        // Samples spread over 2^-3 .. 2^61; the expected bits were read
        // from the former 2,048 x u64 layout, which bucketed every value
        // below 2^64 exactly as this one does.
        let mut rng = SimRng::with_stream(32, 0x601d);
        let mut h = Histogram::new();
        for _ in 0..10_000 {
            let exp = rng.range(0, 64) as i32 - 3;
            h.record(rng.range_f64(1.0, 2.0) * 2f64.powi(exp));
        }
        for (p, bits) in [
            (0.0, 0x3fe0_0000_0000_0000),
            (50.0, 0x41bc_8000_0000_0000),
            (99.0, 0x43b6_8000_0000_0000),
            (99.9, 0x43be_8000_0000_0000),
            (100.0, 0x43bf_8000_0000_0000),
        ] {
            assert_eq!(h.percentile(p).to_bits(), bits, "p{p}");
        }
    }

    #[test]
    fn summary_welford_matches_textbook() {
        let mut s = Summary::new();
        let vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        for v in vals {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x5e33);
            let values = random_samples(&mut rng, 1..300, -1e6, 1e6);
            let mut s = Summary::new();
            values.iter().for_each(|&v| s.record(v));
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!((s.mean() - mean).abs() < 1e-6, "seed {seed}");
            assert_eq!((s.min(), s.max()), (min, max), "seed {seed}");
        }
    }

    #[test]
    fn summary_cv_handles_degenerate_cases() {
        let mut s = Summary::new();
        assert_eq!(s.cv(), 0.0);
        s.record(0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn exact_percentile_order_statistics() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let mut scratch = Vec::new();
        assert_eq!(exact_percentile_into(&samples, 99.0, &mut scratch), 990.0);
        assert_eq!(exact_percentile_into(&samples, 99.9, &mut scratch), 999.0);
        assert_eq!(exact_percentile_into(&samples, 100.0, &mut scratch), 1000.0);
        assert_eq!(exact_percentile_into(&samples, 0.0, &mut scratch), 1.0);
        // Any percentile of any sample set is one of the samples.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0xe8ac);
            let values = random_samples(&mut rng, 1..200, 0.0, 1e6);
            let p = rng.range_f64(0.0, 100.0);
            assert!(
                values.contains(&exact_percentile_into(&values, p, &mut scratch)),
                "seed {seed}: p{p}"
            );
        }
    }

    #[test]
    fn series_accumulates_points() {
        let mut s = Series::new("bm-guest");
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        assert_eq!(s.label(), "bm-guest");
        assert_eq!(s.points(), &[(1.0, 10.0), (2.0, 20.0)]);
        assert_eq!(s.mean_y(), 15.0);
    }
}
