//! Deterministic random numbers for workload generation.
//!
//! [`SimRng`] is a PCG-XSH-RR 64/32 generator (O'Neill 2014) with the
//! distribution helpers the fleet and workload generators need. It is
//! implemented here rather than taken from `rand` so that experiment
//! output is bit-stable across `rand` releases; the workspace still uses
//! `rand` where stability does not matter.
//!
//! The normal family ([`normal`](SimRng::normal),
//! [`fill_normal`](SimRng::fill_normal), [`lognormal`](SimRng::lognormal)
//! and [`fill_lognormal`](SimRng::fill_lognormal)) draws with a 128-layer
//! ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) and computes
//! its wedge test, its tail and the log-normal transform with
//! [`crate::math`]. So its bits depend on no libm and are the same on
//! every host. [`exp`](SimRng::exp), [`pareto`](SimRng::pareto) and
//! [`zipf`](SimRng::zipf) still call the host's `ln`, `exp` and `powf`.

use crate::math;

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
}

const PCG_MULT: u64 = 6364136223846793005;

/// The ziggurat's tail start `R` (Marsaglia & Tsang 2000).
const ZIG_R: f64 = 3.442619855899;

/// Layer edges, widest first, for 128 layers of common area
/// `V = 9.91256303526217e-3`: `ZIG_X[0] = V / f(R)` is the width of the
/// base strip (its area `V` includes the tail beyond `R`),
/// `ZIG_X[1] = R`, each next edge solves `x·(f(x') − f(x)) = V`, and
/// `ZIG_X[128] = 0`; `f(x) = e^(−x²/2)`. Layer `i` is the rectangle of
/// width `ZIG_X[i]` between heights `ZIG_F[i]` and `ZIG_F[i + 1]`.
/// Computed with [`crate::math`] and `sqrt`; a unit test recomputes them
/// bit for bit.
#[rustfmt::skip]
const ZIG_X: [f64; 129] = from_bits([
    0x400db4668fe7e4a4, 0x400b8a7c476d2be8, 0x4009c8e0c7c8098f, 0x4008aa73e440ffbc,
    0x4007d45eb36eb842, 0x4007279dd4ac3f9d, 0x400695c2be68edc9, 0x400616dff7c8f54a,
    0x4005a61edf7e8f32, 0x40054052012a04a4, 0x4004e3456b0e3a1b, 0x40048d61806d6010,
    0x40043d75b60bca1d, 0x4003f29848d3b416, 0x4003ac11b8e206d6, 0x4003694f3a3740d9,
    0x400329d9725e32f7, 0x4002ed4df8099571, 0x4002b35aa5ebee3e, 0x40027bba2b5dbc92,
    0x400246317a6b53c0, 0x4002128dd36bdf09, 0x4001e0a342cf08f6, 0x4001b04b731f6bcc,
    0x40018164be0c1c39, 0x400153d16d45743d, 0x40012777201834f3, 0x4000fc3e4d95f278,
    0x4000d211dd28b00f, 0x4000a8ded0ec371a, 0x40008093fe3e40e1, 0x40005921d1c4d769,
    0x4000327a1cc4cf5e, 0x40000c8fea1720d4, 0x3fffceaeb2ca5f17, 0x3fff858aff31cbf0,
    0x3fff3da097460823, 0x3ffef6dcddc7d392, 0x3ffeb12e91486bbc, 0x3ffe6c85a849b015,
    0x3ffe28d331c6723c, 0x3ffde609397e09b9, 0x3ffda41aaf79a344, 0x3ffd62fb52580b86,
    0x3ffd229f9bfeefdb, 0x3ffce2fcb05f8c34, 0x3ffca4084e091e34, 0x3ffc65b8c04dbac2,
    0x3ffc2804d2c6b16f, 0x3ffbeae3c60cd0e4, 0x3ffbae4d457ee119, 0x3ffb72395df5b73b,
    0x3ffb36a075498d64, 0x3ffafb7b428fe7a1, 0x3ffac0c2c6fc6382, 0x3ffa867047516e4f,
    0x3ffa4c7d45d01a31, 0x3ffa12e37c983369, 0x3ff9d99cd86b58b4, 0x3ff9a0a373c73f21,
    0x3ff967f1924c7b06, 0x3ff92f819c682bf5, 0x3ff8f74e1b37c6b8, 0x3ff8bf51b49ef337,
    0x3ff88787278810a6, 0x3ff84fe9484873b9, 0x3ff81872fd21db73, 0x3ff7e11f3adaeb92,
    0x3ff7a9e90168b8ee, 0x3ff772cb58a39dd6, 0x3ff73bc14d01a2c9, 0x3ff704c5ec50cb81,
    0x3ff6cdd4426b88a5, 0x3ff696e755e16b84, 0x3ff65ffa248e016d, 0x3ff62907a0176ebf,
    0x3ff5f20aaa4dfc1a, 0x3ff5bafe11654817, 0x3ff583dc8bff3219, 0x3ff54ca0b4ffd349,
    0x3ff515450720f455, 0x3ff4ddc3d83a5b84, 0x3ff4a617543306cc, 0x3ff46e39778de063,
    0x3ff436240982ad9d, 0x3ff3fdd09591d2a4, 0x3ff3c538647ef792, 0x3ff38c54749b9033,
    0x3ff3531d7146a43e, 0x3ff3198ba982d911, 0x3ff2df97057e7efb, 0x3ff2a536fae30e33,
    0x3ff26a627fb9d120, 0x3ff22f0ffbaa1e55, 0x3ff1f335374a10f8, 0x3ff1b6c7492c9735,
    0x3ff179ba80463fec, 0x3ff13c024b2c7ec6, 0x3ff0fd911b97f236, 0x3ff0be58456ff4ae,
    0x3ff07e47d87a40f6, 0x3ff03d4e7391c5b7, 0x3feff6b21fffe31a, 0x3fef70a5866c8f46,
    0x3feee848e956826f, 0x3fee5d6909f51b6a, 0x3fedcfccc51c59f0, 0x3fed3f340dda611c,
    0x3fecab56ac6a38d3, 0x3fec13e2b014e85c, 0x3feb787a7c516f3b, 0x3fead8b2506a137c,
    0x3fea340d1baf5b18, 0x3fe989f85c753b2c, 0x3fe8d9c6a9d35e3d, 0x3fe822a858af0e7d,
    0x3fe763a1600eec74, 0x3fe69b7b213f3f69, 0x3fe5c8afdbf0217b, 0x3fe4e94c08c0bab7,
    0x3fe3fabee1911cd7, 0x3fe2f98d6bb4f41f, 0x3fe1e0ce6b5969b3, 0x3fe0a936da5e55ad,
    0x3fde8e576e43fbef, 0x3fdb4c8fece48e83, 0x3fd73949184db9df, 0x3fd16db47e193e1a,
    0x0000000000000000,
]);

/// `ZIG_F[i] = f(ZIG_X[i])`, rising to `ZIG_F[128] = 1`.
#[rustfmt::skip]
const ZIG_F: [f64; 129] = from_bits([
    0x3f509e80c5ba8b5b, 0x3f65de9e33726f20, 0x3f76ba8b0ffb627e, 0x3f81a9b6b3fc1937,
    0x3f883f4bed19339a, 0x3f8f100847645165, 0x3f9309cee4e09981, 0x3f96a23fa9d5f276,
    0x3f9a4f57a25d9cbd, 0x3f9e0f951d57e236, 0x3fa0f0e539c89b76, 0x3fa2e282b724adac,
    0x3fa4dc3fcbd99702, 0x3fa6ddc9dd1fe248, 0x3fa8e6db483bc1bb, 0x3faaf738c17a5016,
    0x3fad0eaf63395868, 0x3faf2d13368bd127, 0x3fb0a91f09183c33, 0x3fb1bf075c20a9fe,
    0x3fb2d8341133a33b, 0x3fb3f4987896ad6a, 0x3fb514297b239a5b, 0x3fb636dd69e8c211,
    0x3fb75cabd60e5dbb, 0x3fb8858d6f54ff30, 0x3fb9b17be7e63eeb, 0x3fbae071dc7af28f,
    0x3fbc126ac011775f, 0x3fbd4762ca983a5a, 0x3fbe7f56ea105fbc, 0x3fbfba44b5c4de8b,
    0x3fc07c1531a2b49b, 0x3fc11c835e71b728, 0x3fc1be6c8cbda96f, 0x3fc261d0aaaebe72,
    0x3fc306afe6193144, 0x3fc3ad0aa9dd7fa4, 0x3fc454e19baa0e72, 0x3fc4fe359a138234,
    0x3fc5a907baface5f, 0x3fc655594a396d54, 0x3fc7032bc88d676a, 0x3fc7b280eabfd4b9,
    0x3fc8635a99016373, 0x3fc915baee792bf0, 0x3fc9c9a43902c0f3, 0x3fca7f18f918fb5c,
    0x3fcb361be1eb801c, 0x3fcbeeafd99d710f, 0x3fcca8d7f9ac2021, 0x3fcd64978f7cf9d6,
    0x3fce21f21d12332e, 0x3fcee0eb59e61862, 0x3fcfa18733ed2789, 0x3fd031e4e85fb6a1,
    0x3fd093dbc774f1a0, 0x3fd0f6aa83b46cf7, 0x3fd15a5387a66034, 0x3fd1bed95cc5751f,
    0x3fd2243eac7e2068, 0x3fd28a864146107e, 0x3fd2f1b307ccfe9a, 0x3fd359c810485cb7,
    0x3fd3c2c88fdb8dd0, 0x3fd42cb7e21e8c52, 0x3fd497998ac51ea1, 0x3fd503713768fb3f,
    0x3fd57042c17986d6, 0x3fd5de12305426e6, 0x3fd64ce3bb887d89, 0x3fd6bcbbcd4c4723,
    0x3fd72d9f05230366, 0x3fd79f923abe1175, 0x3fd8129a811a7651, 0x3fd886bd29e22628,
    0x3fd8fbffc917614c, 0x3fd97268391186b6, 0x3fd9e9fc9ed3ad0a, 0x3fda62c36ec664da,
    0x3fdadcc371df4166, 0x3fdb5803cb422f1d, 0x3fdbd48bfe6a41df, 0x3fdc5263f5e989c0,
    0x3fdcd1940ad1b140, 0x3fdd52250cd9b948, 0x3fddd4204b58297e, 0x3fde578f9f2c936c,
    0x3fdedc7d75b77106, 0x3fdf62f4dd04549d, 0x3fdfeb0191503b06, 0x3fe03a58060e667c,
    0x3fe08006ca84dde0, 0x3fe0c6942a5bbca5, 0x3fe10e07b5015e52, 0x3fe1566980fb8bac,
    0x3fe19fc239747fab, 0x3fe1ea1b2d9efcb5, 0x3fe2357e62428f89, 0x3fe281f6a5d2446a,
    0x3fe2cf8fa78591b5, 0x3fe31e5612065cfc, 0x3fe36e57aa698262, 0x3fe3bfa374538788,
    0x3fe41249dc646445, 0x3fe4665cea500fb2, 0x3fe4bbf07c6c217d, 0x3fe5131a8efe6179,
    0x3fe56bf39249a236, 0x3fe5c696d348e881, 0x3fe62322fc593a59, 0x3fe681bab4ebdc18,
    0x3fe6e2856a006c14, 0x3fe745b04d027f1c, 0x3fe7ab6f9c656c14, 0x3fe814005219cc6e,
    0x3fe87faa61a739e6, 0x3fe8eec3c5bbfb34, 0x3fe961b4c1afe57a, 0x3fe9d8fdfaec7bea,
    0x3fea55418110d29f, 0x3fead750b7255a18, 0x3feb6042cf903cb5, 0x3febf19b6810e602,
    0x3fec8d923f9e066e, 0x3fed37a74ffb7e3f, 0x3fedf6071934c096, 0x3feed5cf060d53bb,
    0x3ff0000000000000,
]);

const fn from_bits<const N: usize>(bits: [u64; N]) -> [f64; N] {
    let mut out = [0.0; N];
    let mut i = 0;
    while i < N {
        out[i] = f64::from_bits(bits[i]);
        i += 1;
    }
    out
}

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

    /// A standard normal sample, by the ziggurat method.
    ///
    /// One `next_u64` per accepted sample in about 98.8 % of draws: its
    /// low 7 bits pick a layer, bit 7 is the sign and its top 53 bits
    /// place the point across the layer. A point past the next layer's
    /// edge takes one more uniform for the wedge test, or two or more
    /// for Marsaglia's tail method beyond `R`.
    pub fn normal(&mut self) -> f64 {
        loop {
            let u = self.next_u64();
            let i = (u & 0x7f) as usize;
            let x = (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * ZIG_X[i];
            let z = if x < ZIG_X[i + 1] {
                x
            } else {
                match self.normal_edge(i, x) {
                    Some(z) => z,
                    None => continue,
                }
            };
            // Set the sign from bit 7 without a branch: this is -z when
            // the bit is set.
            return f64::from_bits(z.to_bits() ^ ((u & 0x80) << 56));
        }
    }

    /// The rare half of [`normal`](Self::normal), kept out of its loop: a
    /// point in layer `i` at `x`, past the next layer's edge, is in the
    /// tail (layer 0) or takes the wedge test, which rejects it with
    /// `None`.
    #[cold]
    fn normal_edge(&mut self, i: usize, x: f64) -> Option<f64> {
        if i == 0 {
            return Some(self.normal_tail());
        }
        let y = ZIG_F[i] + self.f64() * (ZIG_F[i + 1] - ZIG_F[i]);
        (y < math::exp(-0.5 * x * x)).then_some(x)
    }

    /// A sample of the standard normal conditioned on `z > R`
    /// (Marsaglia 1964).
    fn normal_tail(&mut self) -> f64 {
        loop {
            let x = -math::ln(1.0 - self.f64()) / ZIG_R;
            let y = -math::ln(1.0 - self.f64());
            if y + y >= x * x {
                return ZIG_R + x;
            }
        }
    }

    /// Fills `out` with standard normal samples: exactly the values
    /// repeated [`normal`](Self::normal) calls would return, in the same
    /// order.
    pub fn fill_normal(&mut self, out: &mut [f64]) {
        for v in out {
            *v = self.normal();
        }
    }

    /// Fills `out` with log-normal samples parameterised like
    /// [`lognormal`](Self::lognormal): bit-identical values in the
    /// same order as repeated single-sample calls.
    pub fn fill_lognormal(&mut self, mu: f64, sigma: f64, out: &mut [f64]) {
        self.fill_normal(out);
        // A second pass: the `exp`s then wait on no generator state, which
        // measured faster than one `exp` per draw.
        for v in out {
            *v = math::exp(mu + sigma * *v);
        }
    }

    /// A log-normally distributed sample parameterised by the mean and
    /// standard deviation *of the underlying normal*.
    ///
    /// Long-tailed service times (e.g. the 99.9th-percentile storage
    /// latencies of Fig. 11) are modelled with this.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        math::exp(mu + sigma * self.normal())
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
    use std::f64::consts::SQRT_2;

    /// The common area of the ziggurat's layers (Marsaglia & Tsang 2000).
    const ZIG_V: f64 = 9.91256303526217e-3;

    impl SimRng {
        /// A uniform float in `[lo, hi)`.
        pub(crate) fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.f64() * (hi - lo)
        }

        /// A standard normal sample by Box–Muller on the host's libm, one
        /// sample per pair of uniforms: the reference the ziggurat's
        /// distribution checks are also run against.
        fn box_muller(&mut self) -> f64 {
            let u1 = 1.0 - self.f64();
            let u2 = self.f64();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        }
    }

    /// Abramowitz & Stegun 7.1.26 (absolute error below 1.5e-7), the
    /// same approximation `cpu::virt`'s tests use for population tails.
    fn erfc(x: f64) -> f64 {
        if x < 0.0 {
            return 2.0 - erfc(-x);
        }
        let t = 1.0 / (1.0 + 0.3275911 * x);
        let poly = t
            * (0.254829592
                + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
        poly * (-x * x).exp()
    }

    /// Checks 10⁶ draws against the standard normal: the KS distance to
    /// its CDF is below the 5 % critical value 1.36/√n; mean, variance
    /// and kurtosis are within 4 standard errors of 0, 1 and 3; and the
    /// counts beyond ±1, ±R (only the ziggurat's tail path reaches past
    /// R) and ±4.5 are within 4σ of their binomial expectations.
    fn assert_standard_normal(name: &str, z: &mut [f64]) {
        let n = z.len() as f64;
        let mean = z.iter().sum::<f64>() / n;
        let (m2, m4) = z.iter().fold((0.0, 0.0), |(m2, m4), &x| {
            let d2 = (x - mean) * (x - mean);
            (m2 + d2, m4 + d2 * d2)
        });
        let var = m2 / n;
        let kurtosis = m4 / n / (var * var);
        assert!(mean.abs() < 4.0 / n.sqrt(), "{name}: mean {mean}");
        assert!(
            (var - 1.0).abs() < 4.0 * (2.0 / n).sqrt(),
            "{name}: variance {var}"
        );
        assert!(
            (kurtosis - 3.0).abs() < 4.0 * (24.0 / n).sqrt(),
            "{name}: kurtosis {kurtosis}"
        );
        for t in [1.0, ZIG_R, 4.5] {
            let p = erfc(t / SQRT_2);
            let beyond = z.iter().filter(|x| x.abs() > t).count() as f64;
            let sd = (n * p * (1.0 - p)).sqrt();
            assert!(
                (beyond - n * p).abs() < 4.0 * sd,
                "{name}: {beyond} beyond ±{t}, expected {:.1} ± {sd:.1}",
                n * p
            );
        }
        z.sort_unstable_by(f64::total_cmp);
        let ks = z.iter().enumerate().fold(0.0f64, |d, (i, &x)| {
            let cdf = 0.5 * erfc(-x / SQRT_2);
            d.max(cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
        });
        assert!(ks < 1.36 / n.sqrt(), "{name}: KS distance {ks}");
    }

    #[test]
    fn ziggurat_draws_are_standard_normal() {
        let mut z = vec![0.0; 1_000_000];
        SimRng::with_stream(2026, 0x2197).fill_normal(&mut z);
        assert_standard_normal("ziggurat", &mut z);
    }

    #[test]
    fn normal_tail_is_the_normal_beyond_r() {
        // Beyond R the checks above see only ~600 of 10⁶ draws, too few
        // to judge the tail's shape. KS-test the tail sampler itself
        // against P(Z ≤ z | Z > R) = 1 − erfc(z/√2) / erfc(R/√2).
        let mut rng = SimRng::with_stream(2026, 0x7a11);
        let mut z: Vec<f64> = (0..100_000).map(|_| rng.normal_tail()).collect();
        z.sort_unstable_by(f64::total_cmp);
        let n = z.len() as f64;
        let tail = erfc(ZIG_R / SQRT_2);
        let ks = z.iter().enumerate().fold(0.0f64, |d, (i, &x)| {
            let cdf = 1.0 - erfc(x / SQRT_2) / tail;
            d.max(cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
        });
        assert!(z[0] > ZIG_R);
        assert!(ks < 1.36 / n.sqrt(), "tail KS distance {ks}");
    }

    #[test]
    fn box_muller_reference_passes_the_same_checks() {
        let mut rng = SimRng::with_stream(2026, 0x2197);
        let mut z: Vec<f64> = (0..1_000_000).map(|_| rng.box_muller()).collect();
        assert_standard_normal("Box–Muller", &mut z);
    }

    #[test]
    fn ziggurat_tables_recompute_bit_for_bit() {
        let f = |x: f64| math::exp(-0.5 * x * x);
        let mut x = [0.0; 129];
        x[0] = ZIG_V / f(ZIG_R);
        x[1] = ZIG_R;
        for i in 1..127 {
            x[i + 1] = (-2.0 * math::ln(ZIG_V / x[i] + f(x[i]))).sqrt();
        }
        for i in 0..129 {
            assert_eq!(x[i].to_bits(), ZIG_X[i].to_bits(), "ZIG_X[{i}]");
            assert_eq!(f(x[i]).to_bits(), ZIG_F[i].to_bits(), "ZIG_F[{i}]");
        }
        for i in 0..128 {
            assert!(ZIG_X[i] > ZIG_X[i + 1] && ZIG_F[i] < ZIG_F[i + 1]);
        }
        // The recursion closes: the top layer, which ends at x = 0, has
        // area V to within 2e-9.
        let top = ZIG_X[127] * (1.0 - ZIG_F[127]);
        assert!((top / ZIG_V - 1.0).abs() < 2e-9, "top layer area {top}");
    }

    #[test]
    fn fill_lognormal_is_pinned_bit_for_bit() {
        // The first 64 census exit rates of one stream. The values come
        // from `crate::math` and IEEE basic operations only, so they
        // must be the same on every host and libm.
        let mut got = [0.0; 64];
        SimRng::with_stream(1, 0xce15).fill_lognormal(6.06, 1.777, &mut got);
        let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        #[rustfmt::skip]
        let want: [u64; 64] = [
            0x406ba78eb4da4253, 0x408823fc41e90631, 0x409180f9802ae1f8, 0x407fd0cf7cfba5ea,
            0x40264163eeed4a9e, 0x4092a1da9c03621e, 0x4051b4883391113f, 0x40755fac32a638f3,
            0x409c71419ec2c56f, 0x407e7d0dbc4b2afd, 0x409c4da2c1e34c36, 0x40902a98351284d8,
            0x40b52fa86b1b8fd5, 0x4037f4fb3a943dfa, 0x40676df784b03f7c, 0x40a222959c792668,
            0x4095fd4e47345c5f, 0x405d1b54d41f8292, 0x40a79abc147abdc5, 0x4042128944f02667,
            0x407219b2165bac84, 0x40719edf12863a54, 0x408e1c0a3b7f6866, 0x40b29e53988bdf3e,
            0x40b4102ca9b3032c, 0x4098a47f4e71ddc9, 0x4077366895802704, 0x409a5f4725e58dc8,
            0x4088751348654caa, 0x408c8c4b03d0d575, 0x40b8ac74df73c268, 0x40a0c490b65c1821,
            0x40abb35a466ef1c5, 0x4059792234627b94, 0x40533fc7dd298c6c, 0x4097d7ec0991758f,
            0x4063ae44ffd089c6, 0x4073aaaaf7974640, 0x407ccc0279a7b868, 0x404a6e50630b7555,
            0x407dd5540e03bcbf, 0x405d00f4b56d49f2, 0x407659a7fa9c80a7, 0x4077ab437405f2c3,
            0x40d8b470a8f43e91, 0x406af66a39b40114, 0x40849af248b0d383, 0x4078ad46ccd478d3,
            0x405cb3f4345f75bc, 0x405da8f0c9b1d12c, 0x405091fb19b041c5, 0x404469c7c64b913b,
            0x4060d7dbd2d72a82, 0x407587d64bcee46c, 0x40ad6b15e9dae92a, 0x408d30c58b8bf2e0,
            0x40ad22c026ba450f, 0x40837c9ca9fb6e30, 0x40de4b56a355ed18, 0x40624450635f3e63,
            0x4097c70da4fed1c4, 0x408186c9a0361347, 0x4092c9117795dc56, 0x407d115fc719ee42,
        ];
        assert_eq!(got, want);
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
        // Odd and even lengths, from a fresh stream and after one
        // single draw, must reproduce the single-call stream bit for bit.
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
                // The streams stay in lockstep afterwards too.
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
