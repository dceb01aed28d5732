//! Deterministic random numbers for workload generation.
//!
//! [`SimRng`] is a PCG-XSH-RR 64/32 generator (O'Neill 2014) with the
//! distribution helpers the fleet and workload generators need. It is
//! implemented here rather than taken from `rand` so that experiment
//! output is bit-stable across `rand` releases; the workspace still uses
//! `rand` where stability does not matter.

/// A seedable PCG-XSH-RR 64/32 random number generator.
///
/// The same seed always produces the same stream, so every experiment in
/// this repository is reproducible from its seed alone.
///
/// # Example
///
/// ```
/// use bmhive_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
    inc: u64,
    /// The unused half of the last Box–Muller pair: [`normal`](Self::normal)
    /// hands it out on the next call instead of burning two more
    /// uniforms and a `ln`/`sqrt`/`sin_cos` round.
    spare_normal: Option<f64>,
}

const PCG_MULT: u64 = 6364136223846793005;

impl SimRng {
    /// Creates a generator from a seed, using the default stream.
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, 0xda3e39cb94b95bdb)
    }

    /// Creates a generator from a seed and an explicit stream selector,
    /// for components that need independent streams from one experiment
    /// seed.
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        let mut rng = SimRng {
            state: 0,
            inc: (stream << 1) | 1,
            spare_normal: None,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// The next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// A uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below: bound must be positive");
        // Lemire's multiply-shift rejection method (debiased).
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range: lo must be below hi");
        lo + self.below(hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// An exponentially distributed float with the given mean.
    ///
    /// Used for Poisson inter-arrival times in the open-loop workload
    /// generators.
    pub fn exp(&mut self, mean: f64) -> f64 {
        // Inverse CDF; 1 - f64() is in (0, 1] so ln never sees zero.
        -mean * (1.0 - self.f64()).ln()
    }

    /// A standard normal sample (Box–Muller): a one-sample
    /// [`fill_normal`](Self::fill_normal), so the cached spare is shared
    /// with bulk fills.
    pub fn normal(&mut self) -> f64 {
        let mut z = [0.0];
        self.fill_normal(&mut z);
        z[0]
    }

    /// Fills `out` with standard normal samples — exactly the values
    /// repeated [`normal`](Self::normal) calls would return, in the same
    /// order (any cached spare is handed out first, then fresh
    /// Box–Muller pairs cos-then-sin, with a trailing odd sample's twin
    /// cached as the new spare). Bulk callers skip the per-call spare
    /// bookkeeping, which is measurable at fleet-census scale.
    pub fn fill_normal(&mut self, out: &mut [f64]) {
        let mut i = 0;
        if !out.is_empty() {
            if let Some(z) = self.spare_normal.take() {
                out[0] = z;
                i = 1;
            }
        }
        while i < out.len() {
            let u1 = 1.0 - self.f64();
            let u2 = self.f64();
            let r = (-2.0 * u1.ln()).sqrt();
            let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
            out[i] = r * cos;
            i += 1;
            if i < out.len() {
                out[i] = r * sin;
                i += 1;
            } else {
                self.spare_normal = Some(r * sin);
            }
        }
    }

    /// Fills `out` with log-normal samples parameterised like
    /// [`lognormal`](Self::lognormal) — bit-identical values in the
    /// same order as repeated single-sample calls.
    pub fn fill_lognormal(&mut self, mu: f64, sigma: f64, out: &mut [f64]) {
        self.fill_normal(out);
        for v in out {
            *v = (mu + sigma * *v).exp();
        }
    }

    /// A log-normally distributed sample parameterised by the mean and
    /// standard deviation *of the underlying normal*.
    ///
    /// Long-tailed service times (e.g. the 99.9th-percentile storage
    /// latencies of Fig. 11) are modelled with this.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// A Pareto-distributed sample with scale `x_min` and shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` or `x_min` is not positive.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(
            alpha > 0.0 && x_min > 0.0,
            "pareto: parameters must be positive"
        );
        x_min / (1.0 - self.f64()).powf(1.0 / alpha)
    }

    /// A Zipf-like rank in `[0, n)` with exponent `s`, favouring low
    /// ranks. Used for skewed key popularity in the Redis/MariaDB models.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        assert!(n > 0, "zipf: n must be positive");
        // Inverse-CDF approximation over the continuous Zipf envelope;
        // exact harmonic-sum inversion is unnecessary for workload skew.
        if s <= 0.0 {
            return self.below(n);
        }
        let u = self.f64();
        if (s - 1.0).abs() < 1e-9 {
            let x = ((n as f64).ln() * u).exp();
            return (x as u64 - 1).min(n - 1);
        }
        let one_minus_s = 1.0 - s;
        let h_n = ((n as f64).powf(one_minus_s) - 1.0) / one_minus_s;
        let x = (1.0 + h_n * u * one_minus_s).powf(1.0 / one_minus_s);
        (x as u64).saturating_sub(1).min(n - 1)
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose: slice is empty");
        &items[self.below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimRng {
        /// A uniform float in `[lo, hi)`.
        pub(crate) fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.f64() * (hi - lo)
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // For any seed, the derived zipf / exp draws agree too.
        for case in 0..256 {
            let seed = SimRng::with_stream(case, 0x5eed).next_u64();
            let (mut a, mut b) = (SimRng::new(seed), SimRng::new(seed));
            for _ in 0..20 {
                assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}");
                assert_eq!(a.zipf(1000, 0.99), b.zipf(1000, 0.99), "seed {seed}");
                assert_eq!(a.exp(3.0).to_bits(), b.exp(3.0).to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::new(4);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..1000 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = SimRng::new(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_500..11_500).contains(&c),
                "bucket count {c} is not uniform"
            );
        }
    }

    #[test]
    fn exp_has_requested_mean() {
        let mut rng = SimRng::new(6);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.exp(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normal_has_zero_mean_unit_variance() {
        let mut rng = SimRng::new(8);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn fill_normal_matches_sequential_draws_at_every_parity() {
        // Odd and even lengths, with and without a spare already
        // cached, must reproduce the single-call stream bit for bit.
        for prime in [0usize, 1] {
            for len in [0usize, 1, 2, 3, 7, 8, 1000, 1001] {
                let mut single = SimRng::new(42);
                let mut bulk = SimRng::new(42);
                for _ in 0..prime {
                    let a = single.normal();
                    let b = bulk.normal();
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                let expect: Vec<f64> = (0..len).map(|_| single.normal()).collect();
                let mut got = vec![0.0; len];
                bulk.fill_normal(&mut got);
                for (e, g) in expect.iter().zip(&got) {
                    assert_eq!(e.to_bits(), g.to_bits(), "prime {prime} len {len}");
                }
                // The streams stay in lockstep afterwards too (spare
                // state included).
                assert_eq!(single.normal().to_bits(), bulk.normal().to_bits());
            }
        }
    }

    #[test]
    fn fill_lognormal_matches_sequential_draws() {
        let mut single = SimRng::new(7);
        let mut bulk = SimRng::new(7);
        let expect: Vec<f64> = (0..101).map(|_| single.lognormal(6.06, 1.777)).collect();
        let mut got = vec![0.0; 101];
        bulk.fill_lognormal(6.06, 1.777, &mut got);
        for (e, g) in expect.iter().zip(&got) {
            assert_eq!(e.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn pareto_never_below_scale() {
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            assert!(rng.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = SimRng::new(10);
        let mut low = 0u32;
        let n = 1_000_000u64;
        let draws = 50_000;
        for _ in 0..draws {
            let r = rng.zipf(n, 1.0);
            assert!(r < n);
            if r < n / 100 {
                low += 1;
            }
        }
        // With s = 1.0, the first 1% of ranks should carry far more than
        // 1% of the mass.
        assert!(low > draws / 5, "low-rank draws: {low}");
    }

    #[test]
    fn choose_returns_member() {
        let mut rng = SimRng::new(12);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(rng.choose(&items)));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(13);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
