//! VM-exit machinery: the cost of one exit, the fleet exit-rate
//! population (Table 2), and the host-preemption process (Fig. 1).

use bmhive_sim::{SimDuration, SimRng};

/// Cost of one VM exit: "about 10 μs for the KVM hypervisor to handle
/// an event" (§2.1). The one definition read by the vm-guest tax
/// ([`Platform::Vm`](crate::Platform::Vm)) and the nested model.
pub const VM_EXIT_COST: SimDuration = SimDuration::from_micros(10);

/// Mean of ln(exits/s/vCPU) over the production fleet.
///
/// The fleet-wide per-vCPU exit rate is log-normal, calibrated so the
/// tail probabilities match the paper's five-minute census of 300 000
/// production VMs (Table 2): 3.82 % of VMs above 10 K exits/s/vCPU,
/// 0.37 % above 50 K, 0.13 % above 100 K. (Fitted on the first two
/// constraints; the third lands at ≈0.11 %, within the table's
/// rounding.)
const EXIT_RATE_MU: f64 = 6.06;

/// Std-dev of ln(exits/s/vCPU) over the production fleet.
const EXIT_RATE_SIGMA: f64 = 1.777;

/// Samples one production VM's exits/s/vCPU.
pub fn sample_exit_rate(rng: &mut SimRng) -> f64 {
    rng.lognormal(EXIT_RATE_MU, EXIT_RATE_SIGMA)
}

/// Fills `out` with one exit rate per VM — bit-identical to the same
/// number of [`sample_exit_rate`] calls, minus the per-call overhead
/// (fleet censuses draw these by the million).
pub fn fill_exit_rates(rng: &mut SimRng, out: &mut [f64]) {
    rng.fill_lognormal(EXIT_RATE_MU, EXIT_RATE_SIGMA, out);
}

/// The host-task preemption process behind Fig. 1, for one scheduling
/// class.
///
/// "On a busy server, it could take the full load of 8 to 10 CPU cores
/// for the hypervisor to serve I/Os and other requests from the VMs. The
/// tasks of the hypervisor and the host OS can preempt the execution of
/// the guest VMs."
///
/// Each VM's long-run preemption *rate* (stolen-time fraction) is drawn
/// from a skewed log-normal population whose 99th/99.9th percentiles
/// match the figure: shared VMs ≈ 2–4 % / 2–10 %, exclusive (pinned) VMs
/// ≈ 0.2 % / 0.5 %. There are two classes, [`Self::shared`] and
/// [`Self::exclusive`]; each computes `ln(median)` once, so bulk studies
/// do no per-sample transcendentals.
#[derive(Debug, Clone, Copy)]
pub struct PreemptionModel {
    /// ln of the median stolen fraction.
    ln_median: f64,
    /// Log-normal sigma controlling the tail.
    sigma: f64,
    /// Hard cap (a vCPU cannot be stolen more than this).
    cap: f64,
}

impl PreemptionModel {
    /// Shared (unpinned) VMs: median 0.4 %, chosen so that p99 ≈ 3 % and
    /// p99.9 ≈ 6–10 %, capped at 25 %.
    pub fn shared() -> Self {
        PreemptionModel::with_median(0.004, 0.85, 0.25)
    }

    /// Exclusive (pinned, NUMA-affine) VMs: "both better ... and more
    /// stable" — median 0.04 %, capped at 2 %.
    pub fn exclusive() -> Self {
        PreemptionModel::with_median(0.0004, 0.7, 0.02)
    }

    fn with_median(median: f64, sigma: f64, cap: f64) -> Self {
        PreemptionModel {
            ln_median: median.ln(),
            sigma,
            cap,
        }
    }

    /// Fills `out` with one VM's long-run preemption fraction per slot,
    /// each scaled by a [`diurnal_load`] factor and capped. Every fleet
    /// sampler draws through here; the values are bit-identical to the
    /// same number of single draws (the per-call reference in this
    /// module's tests).
    pub fn fill_at_load(&self, rng: &mut SimRng, load: f64, out: &mut [f64]) {
        rng.fill_lognormal(self.ln_median, self.sigma, out);
        for v in out {
            *v = (v.min(self.cap) * load).min(self.cap);
        }
    }
}

/// The diurnal host-load factor for an hour of day — the daytime peak
/// that gives Fig. 1 its x-axis shape. Ranges 0.7–1.5 with the maximum
/// at 14:00.
pub fn diurnal_load(hour: u32) -> f64 {
    let hour = hour % 24;
    let phase = (f64::from(hour) - 14.0) / 24.0 * std::f64::consts::TAU;
    1.1 + 0.4 * phase.cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_sim::stats::exact_percentile_into;

    /// The per-call samplers: the reference [`PreemptionModel::fill_at_load`]
    /// is checked against, one draw at a time.
    impl PreemptionModel {
        /// Samples one VM's long-run preemption fraction.
        fn sample(&self, rng: &mut SimRng) -> f64 {
            rng.lognormal(self.ln_median, self.sigma).min(self.cap)
        }

        /// Samples the fraction scaled by a [`diurnal_load`] factor,
        /// still capped.
        fn sample_at_load(&self, rng: &mut SimRng, load: f64) -> f64 {
            (self.sample(rng) * load).min(self.cap)
        }
    }

    /// Analytic tail probability P(rate > threshold) of the production
    /// exit-rate population.
    fn exit_rate_tail_probability(threshold: f64) -> f64 {
        let z = (threshold.ln() - EXIT_RATE_MU) / EXIT_RATE_SIGMA;
        0.5 * erfc_approx(z / std::f64::consts::SQRT_2)
    }

    /// Abramowitz–Stegun style complementary error function approximation
    /// (max error ≈ 1.5e-7), enough for population tails.
    fn erfc_approx(x: f64) -> f64 {
        if x < 0.0 {
            return 2.0 - erfc_approx(-x);
        }
        let t = 1.0 / (1.0 + 0.3275911 * x);
        let poly = t
            * (0.254829592
                + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
        poly * (-x * x).exp()
    }

    #[test]
    fn bulk_fills_match_single_sample_streams_bit_for_bit() {
        // Fleet samplers alternate fills on one RNG. Run the preemption
        // fills once from fresh RNGs and once after an odd exit-rate
        // fill; either way every fill must match single draws bit for
        // bit and leave both RNGs in lockstep.
        for exit_draws in [0usize, 501] {
            let mut single = SimRng::with_stream(3, 0xce15);
            let mut bulk = SimRng::with_stream(3, 0xce15);
            let mut got = [0.0; 1025];
            fill_exit_rates(&mut bulk, &mut got[..exit_draws]);
            for g in &got[..exit_draws] {
                assert_eq!(sample_exit_rate(&mut single).to_bits(), g.to_bits());
            }
            // Shared then exclusive at every length a sampler uses: one
            // probe, the 128-probe hour and its neighbours, the
            // 1024-draw chunk and one past it.
            let classes = [PreemptionModel::shared(), PreemptionModel::exclusive()];
            for (i, len) in [1usize, 127, 128, 129, 1024, 1025].into_iter().enumerate() {
                for (c, model) in classes.iter().enumerate() {
                    let load = diurnal_load((3 * i + c) as u32);
                    model.fill_at_load(&mut bulk, load, &mut got[..len]);
                    for (k, g) in got[..len].iter().enumerate() {
                        assert_eq!(
                            model.sample_at_load(&mut single, load).to_bits(),
                            g.to_bits(),
                            "after {exit_draws} exit draws: len {len} class {c} draw {k}"
                        );
                    }
                }
            }
            assert_eq!(single.normal().to_bits(), bulk.normal().to_bits());
            assert_eq!(single.next_u64(), bulk.next_u64());
        }
    }

    #[test]
    fn exit_population_matches_table2_tails() {
        let p10k = exit_rate_tail_probability(10_000.0);
        let p50k = exit_rate_tail_probability(50_000.0);
        let p100k = exit_rate_tail_probability(100_000.0);
        assert!((p10k - 0.0382).abs() < 0.004, "P(>10k) = {p10k}");
        assert!((p50k - 0.0037).abs() < 0.001, "P(>50k) = {p50k}");
        assert!((p100k - 0.0013).abs() < 0.0006, "P(>100k) = {p100k}");
    }

    #[test]
    fn sampled_population_matches_analytic_tails() {
        let mut rng = SimRng::new(42);
        let n = 300_000;
        let over_10k = (0..n)
            .filter(|_| sample_exit_rate(&mut rng) > 10_000.0)
            .count();
        let frac = over_10k as f64 / n as f64;
        assert!((frac - 0.0382).abs() < 0.005, "sampled {frac}");
    }

    #[test]
    fn erfc_sane_values() {
        assert!((erfc_approx(0.0) - 1.0).abs() < 1e-6);
        assert!(erfc_approx(3.0) < 1e-4);
        assert!((erfc_approx(-3.0) - 2.0).abs() < 1e-4);
    }

    #[test]
    fn preemption_percentiles_match_fig1() {
        let mut rng = SimRng::new(7);
        let mut scratch = Vec::new();
        let shared = PreemptionModel::shared();
        let samples: Vec<f64> = (0..20_000)
            .map(|_| shared.sample(&mut rng) * 100.0)
            .collect();
        let p99 = exact_percentile_into(&samples, 99.0, &mut scratch);
        let p999 = exact_percentile_into(&samples, 99.9, &mut scratch);
        assert!((1.5..=5.0).contains(&p99), "shared p99 {p99}%");
        assert!((2.0..=12.0).contains(&p999), "shared p99.9 {p999}%");
        assert!(p999 > p99);

        let exclusive = PreemptionModel::exclusive();
        let samples: Vec<f64> = (0..20_000)
            .map(|_| exclusive.sample(&mut rng) * 100.0)
            .collect();
        let p99 = exact_percentile_into(&samples, 99.0, &mut scratch);
        let p999 = exact_percentile_into(&samples, 99.9, &mut scratch);
        assert!((0.05..=0.5).contains(&p99), "exclusive p99 {p99}%");
        assert!((0.1..=1.0).contains(&p999), "exclusive p99.9 {p999}%");
    }

    #[test]
    fn diurnal_load_shapes_preemption() {
        let shared = PreemptionModel::shared();
        // Average over many samples per hour: afternoon (14h) should be
        // noticeably higher than early morning (2h).
        let mean_at = |hour: u32| {
            let mut rng = SimRng::new(100);
            (0..20_000)
                .map(|_| shared.sample_at_load(&mut rng, diurnal_load(hour)))
                .sum::<f64>()
                / 20_000.0
        };
        assert!(mean_at(14) > mean_at(2) * 1.2);
    }
}
