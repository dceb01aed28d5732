//! Synthetic fleet studies reproducing the §2 production measurements.
//!
//! The paper's motivation data comes from Alibaba's production fleet: a
//! five-minute VM-exit census over 300 000 VMs (Table 2) and a 24-hour
//! preemption trace over 20 000 VMs (Fig. 1). Those traces are
//! proprietary; the substitution (see DESIGN.md) draws each VM from the
//! calibrated populations in [`bmhive_cpu::virt`] and runs the *same
//! census/percentile pipeline* the paper describes over the synthetic
//! fleet.
//!
//! The fleet is a *stream*, not a materialized population:
//! [`ExitRateStream`] generates guests lazily and [`ExitCensus`] folds
//! them into threshold counters plus one float-bit histogram, so a
//! million-guest census costs the same memory as a ten-thousand-guest
//! one (the `fleet_scale` experiment gates on exactly this).
//! [`PreemptionStudy::run`] keeps the materialized + quickselect exact
//! path as the reference; [`PreemptionStudy::stream`] is its O(1)-memory
//! twin over the identical RNG draws.

use bmhive_cpu::virt::{diurnal_load, fill_exit_rates, sample_exit_rate, PreemptionModel};
use bmhive_sim::stats::exact_percentile_into;
use bmhive_sim::{Histogram, SimRng};
use bmhive_telemetry as telemetry;

/// A deterministic stream of per-VM exit rates (exits/s/vCPU), drawn
/// lazily from the production population.
///
/// This is the fleet as a *generator* rather than a materialized
/// population: guest number `k` of seed `s` always gets the same rate,
/// whether the consumer censuses ten thousand guests or ten million,
/// and no per-guest state survives the draw. Everything downstream
/// ([`ExitCensus`], the `fleet_scale` experiment) folds the stream
/// into O(1) accumulators.
#[derive(Debug, Clone)]
pub struct ExitRateStream {
    rng: SimRng,
}

impl ExitRateStream {
    /// The base RNG stream selector for the whole-fleet census; host-
    /// sharded fleets derive one per-host selector from this base so
    /// host `k`'s guests are a pure function of `(seed, k)`.
    pub const CENSUS_STREAM: u64 = 0xce15;

    /// The production population, seeded; the first `n` draws match
    /// the first `n` draws of any other stream with the same seed.
    pub fn production(seed: u64) -> Self {
        ExitRateStream::production_on(seed, Self::CENSUS_STREAM)
    }

    /// The production population on an explicit RNG stream selector.
    /// Host-sharded fleets pass a per-host selector derived from the
    /// host index, so guest draws are placement-independent: host `k`
    /// produces the same guests whichever worker runs it.
    pub fn production_on(seed: u64, stream: u64) -> Self {
        ExitRateStream {
            rng: SimRng::with_stream(seed, stream),
        }
    }

    /// Draws `out.len()` rates in bulk — bit-identical to pulling the
    /// same count through the iterator, minus the per-item overhead.
    pub fn fill(&mut self, out: &mut [f64]) {
        fill_exit_rates(&mut self.rng, out);
    }
}

/// Chunk size for bulk draws in the census/study hot loops: big enough
/// to amortize per-call costs, small enough (8 KiB of `f64`) to stay
/// inside the O(1)-memory story the `fleet_scale` gate meters.
pub(crate) const FILL_CHUNK: usize = 1024;

impl Iterator for ExitRateStream {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        Some(sample_exit_rate(&mut self.rng))
    }
}

/// The Table 2 census: what fraction of VMs exceed each exit-rate
/// threshold, plus the exit-rate distribution itself.
///
/// Built by *observing* a stream one rate at a time — the state is a
/// handful of counters and one float-bit [`Histogram`], so the memory
/// footprint is independent of how many guests flow through.
#[derive(Debug, Clone)]
pub struct ExitCensus {
    thresholds: Vec<f64>,
    counts: Vec<u64>,
    rates: Histogram,
    total: u64,
}

impl ExitCensus {
    /// An empty census over `thresholds` (exits/s/vCPU), ready to
    /// observe guests.
    pub fn new(thresholds: &[f64]) -> Self {
        ExitCensus {
            thresholds: thresholds.to_vec(),
            counts: vec![0u64; thresholds.len()],
            rates: Histogram::new(),
            total: 0,
        }
    }

    /// Folds one guest's exit rate into the census.
    pub fn observe(&mut self, rate: f64) {
        for (i, &t) in self.thresholds.iter().enumerate() {
            if rate > t {
                self.counts[i] += 1;
            }
        }
        self.rates.record(rate);
        self.total += 1;
    }

    /// Runs a census of `vms` VMs against `thresholds`, piping the
    /// seeded production stream through [`Self::observe`].
    pub fn run(vms: u64, thresholds: &[f64], seed: u64) -> Self {
        let census = ExitCensus::run_on(vms, thresholds, seed, ExitRateStream::CENSUS_STREAM);
        telemetry::add_events(vms);
        telemetry::counter("fleet.guests_censused", vms);
        census
    }

    /// Runs a census over the production stream on an explicit RNG
    /// stream selector — one host's shard of a host-sharded fleet.
    /// Records no telemetry, so a caller can meter its heap peak with
    /// [`telemetry::alloc::measure_peak`] (a registry key's first write
    /// allocates).
    pub fn run_on(vms: u64, thresholds: &[f64], seed: u64, stream: u64) -> Self {
        let mut census = ExitCensus::new(thresholds);
        census.observe_drawn(&mut ExitRateStream::production_on(seed, stream), vms);
        census
    }

    /// Draws the next `guests` rates from `exits` and folds each into
    /// the census: chunked bulk fills, so the same rates in the same
    /// order as the iterator, through one fixed stack scratch instead
    /// of a call per guest.
    fn observe_drawn(&mut self, exits: &mut ExitRateStream, guests: u64) {
        let mut chunk = [0.0f64; FILL_CHUNK];
        let mut left = guests as usize;
        while left > 0 {
            let take = left.min(FILL_CHUNK);
            exits.fill(&mut chunk[..take]);
            for &rate in &chunk[..take] {
                self.observe(rate);
            }
            left -= take;
        }
    }

    /// Folds another census (over the same thresholds) into this one:
    /// threshold counts and totals add, rate histograms merge
    /// bucket-wise. Bucket counts make the merge order-independent;
    /// the histogram's float `sum` (behind [`Self::rate_mean`]) is the
    /// one order-sensitive term, so deterministic reductions fold
    /// host shards in host-index order.
    ///
    /// # Panics
    ///
    /// Panics if the two censuses were built over different
    /// thresholds — merging them would silently misattribute counts.
    pub fn merge(&mut self, other: &ExitCensus) {
        assert_eq!(
            self.thresholds, other.thresholds,
            "censuses over different thresholds cannot merge"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.rates.merge(&other.rates);
        self.total += other.total;
    }

    /// `(threshold, percent of VMs above it)` rows, as Table 2 prints.
    pub fn rows(&self) -> Vec<(f64, f64)> {
        self.thresholds
            .iter()
            .zip(&self.counts)
            .map(|(&t, &c)| (t, 100.0 * c as f64 / self.total as f64))
            .collect()
    }

    /// VMs in the census.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// A percentile of the observed exit-rate distribution, from the
    /// streaming histogram (bucket-midpoint resolution, ~±3%).
    pub fn rate_percentile(&self, p: f64) -> f64 {
        self.rates.percentile(p)
    }

    /// Mean observed exit rate.
    pub fn rate_mean(&self) -> f64 {
        self.rates.mean()
    }
}

/// The Fig. 1 preemption study: per-hour 99th/99.9th percentile
/// preemption rates for shared and exclusive VMs.
#[derive(Debug, Clone)]
pub struct PreemptionStudy {
    /// Hour labels 0..24.
    pub hours: Vec<u32>,
    /// Shared VMs, 99th percentile preemption %, per hour.
    pub shared_p99: Vec<f64>,
    /// Shared VMs, 99.9th percentile preemption %, per hour.
    pub shared_p999: Vec<f64>,
    /// Exclusive VMs, 99th percentile preemption %, per hour.
    pub exclusive_p99: Vec<f64>,
    /// Exclusive VMs, 99.9th percentile preemption %, per hour.
    pub exclusive_p999: Vec<f64>,
}

/// Power-of-two scale applied to percent values before they enter the
/// streaming [`Histogram`], so sub-1% preemption rates (the exclusive
/// population) land in octaves with full 16-sub-bucket resolution
/// instead of the single sub-1.0 bucket. Multiplying by a power of two
/// only shifts the float exponent, so the scaling is exact.
const STREAM_PCT_SCALE: f64 = 1024.0;

impl PreemptionStudy {
    /// Records `vms` shared and `vms` exclusive VMs for 24 hours and
    /// reports the Fig. 1 percentiles per hour.
    ///
    /// Each hour samples the shared population, then the exclusive
    /// one, from a single RNG stream: the draw order [`Self::stream`]
    /// uses, so the two studies see identical samples.
    pub fn run(vms: usize, seed: u64) -> Self {
        // One ln() per model (at construction) and one cos() per hour,
        // not one of each per VM-sample.
        let shared = PreemptionModel::shared();
        let exclusive = PreemptionModel::exclusive();
        let mut rng = SimRng::with_stream(seed, 0xf161);
        let mut out = PreemptionStudy {
            hours: (0..24).collect(),
            shared_p99: Vec::with_capacity(24),
            shared_p999: Vec::with_capacity(24),
            exclusive_p99: Vec::with_capacity(24),
            exclusive_p999: Vec::with_capacity(24),
        };
        // One sample buffer and one quickselect scratch for the whole
        // day: each class-hour refills them in place.
        let mut samples = vec![0.0; vms];
        let mut scratch = Vec::with_capacity(vms);
        for hour in 0..24 {
            let load = diurnal_load(hour);
            for (model, p99, p999) in [
                (&shared, &mut out.shared_p99, &mut out.shared_p999),
                (&exclusive, &mut out.exclusive_p99, &mut out.exclusive_p999),
            ] {
                // Bulk draws: bit-identical to the per-VM sampling
                // loop (the `* 100.0` percent scaling applied after,
                // exactly as the single-sample expression ordered it).
                model.fill_at_load(&mut rng, load, &mut samples);
                for v in samples.iter_mut() {
                    *v *= 100.0;
                }
                p99.push(exact_percentile_into(&samples, 99.0, &mut scratch));
                p999.push(exact_percentile_into(&samples, 99.9, &mut scratch));
            }
        }
        telemetry::add_events(2 * vms as u64 * 24);
        out
    }

    /// The streaming twin of [`Self::run`]: identical RNG draws, but
    /// each hour's population flows through a float-bit [`Histogram`]
    /// instead of being materialized for quickselect, so the memory
    /// footprint is one histogram (4 KiB) regardless of `vms`.
    /// Percentiles come back at bucket-midpoint resolution (~±3%);
    /// [`Self::run`] remains the exact reference for cross-checks at
    /// materializable scales.
    ///
    /// Deliberately allocation-quiet beyond its accumulators (no
    /// telemetry registry writes mid-stream), so callers can meter its
    /// peak allocation deterministically.
    pub fn stream(vms: usize, seed: u64) -> Self {
        let shared = PreemptionModel::shared();
        let exclusive = PreemptionModel::exclusive();
        let mut rng = SimRng::with_stream(seed, 0xf161);
        let mut out = PreemptionStudy {
            hours: (0..24).collect(),
            shared_p99: Vec::with_capacity(24),
            shared_p999: Vec::with_capacity(24),
            exclusive_p99: Vec::with_capacity(24),
            exclusive_p999: Vec::with_capacity(24),
        };
        let mut chunk = [0.0f64; FILL_CHUNK];
        let mut series = |model: &PreemptionModel, rng: &mut SimRng, load: f64| {
            let mut hist = Histogram::new();
            record_preemption(model, rng, load, vms, &mut chunk, &mut hist);
            (
                hist.percentile(99.0) / STREAM_PCT_SCALE,
                hist.percentile(99.9) / STREAM_PCT_SCALE,
            )
        };
        for hour in 0..24 {
            let load = diurnal_load(hour);
            let (p99, p999) = series(&shared, &mut rng, load);
            out.shared_p99.push(p99);
            out.shared_p999.push(p999);
            let (p99, p999) = series(&exclusive, &mut rng, load);
            out.exclusive_p99.push(p99);
            out.exclusive_p999.push(p999);
        }
        telemetry::add_events(2 * vms as u64 * 24);
        out
    }
}

/// Preemption probes drawn per class per hour by a
/// [`RegionHostDay`] — a bounded pressure sample, not a full-fleet
/// sweep, so a host's day costs O(1) memory and O(guests) time.
const PREEMPT_PROBES: usize = 128;

/// Draws `n` load-scaled preemption fractions from `model` in
/// `chunk`-sized bulk fills and records each in `hist` as a percent
/// scaled by [`STREAM_PCT_SCALE`]. The fills are bit-identical to `n`
/// single draws on `rng`, and `* 100.0 * STREAM_PCT_SCALE` keeps the
/// single-sample expression's rounding order.
fn record_preemption(
    model: &PreemptionModel,
    rng: &mut SimRng,
    load: f64,
    n: usize,
    chunk: &mut [f64],
    hist: &mut Histogram,
) {
    let mut left = n;
    while left > 0 {
        let take = left.min(chunk.len());
        model.fill_at_load(rng, load, &mut chunk[..take]);
        for &v in &chunk[..take] {
            hist.record(v * 100.0 * STREAM_PCT_SCALE);
        }
        left -= take;
    }
}

/// One host's day of live region operations: an exit-rate census over
/// every guest that ran on the host, diurnal replacement churn
/// (arrivals and departures tracking the load curve), and an hourly
/// preemption pressure sample per scheduling class.
///
/// This is the unit of work the host-sharded `region_census`
/// experiment fans out: each host's day is a pure function of
/// `(seed, exit_stream, ops_stream)` — derive the two stream selectors
/// from the host index and the day is placement-independent. Days
/// [`merge`](Self::merge) associatively (counts add, histograms merge
/// bucket-wise), with the usual caveat that float sums pin the
/// canonical fold order to host index.
#[derive(Debug, Clone)]
pub struct RegionHostDay {
    /// Exit-rate census over every guest admitted to this host.
    pub census: ExitCensus,
    /// Guests admitted over the day (including the initial placement).
    pub arrivals: u64,
    /// Guests drained over the day.
    pub departures: u64,
    /// Peak concurrent guests.
    pub peak_guests: u64,
    /// Sum over hours of concurrent guests (the density integral).
    pub guest_hours: u64,
    /// Shared-class preemption pressure samples (percent, scaled by
    /// [`STREAM_PCT_SCALE`]).
    shared_preempt: Histogram,
    /// Exclusive-class preemption pressure samples (same scaling).
    exclusive_preempt: Histogram,
}

impl RegionHostDay {
    /// Runs one host's day: an initial placement of `guests`, then 24
    /// hours of diurnal churn — occupancy tracks
    /// `guests × (0.85 + 0.30 × load)` with ~2 %-per-hour replacement
    /// churn on top — censusing every admitted guest's exit rate and
    /// probing preemption pressure each hour.
    ///
    /// `exit_stream` seeds the guest exit-rate draws and `ops_stream`
    /// the preemption probes; both are RNG stream *selectors* (derive
    /// them per host), so the day never consumes draws any other host
    /// observes.
    pub fn run(
        guests: u64,
        thresholds: &[f64],
        seed: u64,
        exit_stream: u64,
        ops_stream: u64,
    ) -> Self {
        let mut exits = ExitRateStream::production_on(seed, exit_stream);
        let mut ops_rng = SimRng::with_stream(seed, ops_stream);
        let shared = PreemptionModel::shared();
        let exclusive = PreemptionModel::exclusive();
        let mut day = RegionHostDay {
            census: ExitCensus::new(thresholds),
            arrivals: 0,
            departures: 0,
            peak_guests: 0,
            guest_hours: 0,
            shared_preempt: Histogram::new(),
            exclusive_preempt: Histogram::new(),
        };
        let mut probes = [0.0f64; PREEMPT_PROBES];
        let mut occupancy = guests;
        day.census.observe_drawn(&mut exits, guests);
        day.arrivals = guests;
        day.peak_guests = occupancy;
        for hour in 0..24 {
            let load = diurnal_load(hour);
            // Replacement churn plus a drift term that walks occupancy
            // to the diurnal target — both deterministic in the load
            // curve, so churn volume is a pure function of the hour.
            let target = ((guests as f64) * (0.85 + 0.30 * load)).round() as u64;
            let churn = ((guests as f64 * 0.02 * load).round() as u64).max(1);
            let (growth, shrink) = if target > occupancy {
                (target - occupancy, 0)
            } else {
                (0, occupancy - target)
            };
            let departures = (churn + shrink).min(occupancy);
            occupancy -= departures;
            day.departures += departures;
            day.census.observe_drawn(&mut exits, churn + growth);
            day.arrivals += churn + growth;
            occupancy += churn + growth;
            day.peak_guests = day.peak_guests.max(occupancy);
            day.guest_hours += occupancy;
            // Hourly preemption pressure probe: shared, then exclusive,
            // on the one ops stream.
            for (model, hist) in [
                (&shared, &mut day.shared_preempt),
                (&exclusive, &mut day.exclusive_preempt),
            ] {
                record_preemption(model, &mut ops_rng, load, PREEMPT_PROBES, &mut probes, hist);
            }
        }
        telemetry::add_events(day.arrivals + (2 * PREEMPT_PROBES * 24) as u64);
        telemetry::counter("region.arrivals", day.arrivals);
        telemetry::counter("region.departures", day.departures);
        telemetry::counter("region.guest_hours", day.guest_hours);
        telemetry::gauge_max("region.peak_guests_per_host", day.peak_guests as f64);
        day
    }

    /// Folds another host's day into this one: censuses merge, churn
    /// counters add, peaks take the max, preemption histograms merge
    /// bucket-wise. Fold host shards in host-index order so the float
    /// terms are byte-stable.
    pub fn merge(&mut self, other: &RegionHostDay) {
        self.census.merge(&other.census);
        self.arrivals += other.arrivals;
        self.departures += other.departures;
        self.peak_guests = self.peak_guests.max(other.peak_guests);
        self.guest_hours += other.guest_hours;
        self.shared_preempt.merge(&other.shared_preempt);
        self.exclusive_preempt.merge(&other.exclusive_preempt);
    }

    /// A percentile of the shared-class preemption pressure samples,
    /// in percent.
    pub fn shared_preempt_percentile(&self, p: f64) -> f64 {
        self.shared_preempt.percentile(p) / STREAM_PCT_SCALE
    }

    /// A percentile of the exclusive-class preemption pressure
    /// samples, in percent.
    pub fn exclusive_preempt_percentile(&self, p: f64) -> f64 {
        self.exclusive_preempt.percentile(p) / STREAM_PCT_SCALE
    }

    /// Preemption probes recorded per class.
    pub fn preempt_samples(&self) -> u64 {
        self.shared_preempt.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_sim::stats::exact_percentile_into;

    #[test]
    fn census_reproduces_table2_within_tolerance() {
        let census = ExitCensus::run(300_000, &[10_000.0, 50_000.0, 100_000.0], 1);
        let rows = census.rows();
        assert_eq!(census.total(), 300_000);
        assert!((rows[0].1 - 3.82).abs() < 0.4, "10K row: {}", rows[0].1);
        assert!((rows[1].1 - 0.37).abs() < 0.12, "50K row: {}", rows[1].1);
        assert!((rows[2].1 - 0.13).abs() < 0.08, "100K row: {}", rows[2].1);
    }

    #[test]
    fn census_fractions_are_monotone_in_threshold() {
        let census = ExitCensus::run(50_000, &[1_000.0, 10_000.0, 100_000.0], 2);
        let rows = census.rows();
        assert!(rows[0].1 >= rows[1].1 && rows[1].1 >= rows[2].1);
    }

    #[test]
    fn preemption_study_matches_fig1_bands() {
        let study = PreemptionStudy::run(20_000, 3);
        assert_eq!(study.hours.len(), 24);
        for h in 0..24 {
            // Shared 99th: roughly 2–4 %; 99.9th: 2–10 %.
            assert!(
                (1.0..=6.0).contains(&study.shared_p99[h]),
                "hour {h}: shared p99 {}",
                study.shared_p99[h]
            );
            assert!(
                (2.0..=14.0).contains(&study.shared_p999[h]),
                "hour {h}: shared p99.9 {}",
                study.shared_p999[h]
            );
            // Exclusive: about 0.2 % and 0.5 %.
            assert!(
                study.exclusive_p99[h] < 0.6,
                "hour {h}: exclusive p99 {}",
                study.exclusive_p99[h]
            );
            assert!(
                study.exclusive_p999[h] < 1.2,
                "hour {h}: exclusive p99.9 {}",
                study.exclusive_p999[h]
            );
            // Ordering invariants.
            assert!(study.shared_p999[h] >= study.shared_p99[h]);
            assert!(study.shared_p99[h] > study.exclusive_p99[h]);
        }
    }

    #[test]
    fn stream_census_equals_a_materialized_fold() {
        // The census is a pure fold of the rate stream: draining the
        // stream into a Vec first and folding that must give the same
        // counts bit-for-bit.
        let thresholds = [10_000.0, 50_000.0, 100_000.0];
        let materialized: Vec<f64> = ExitRateStream::production(3).take(5_000).collect();
        let mut by_hand = ExitCensus::new(&thresholds);
        for &rate in &materialized {
            by_hand.observe(rate);
        }
        let streamed = ExitCensus::run(5_000, &thresholds, 3);
        assert_eq!(by_hand.rows(), streamed.rows());
        assert_eq!(by_hand.total(), streamed.total());
        assert_eq!(
            by_hand.rate_percentile(99.0),
            streamed.rate_percentile(99.0)
        );
    }

    #[test]
    fn census_rate_percentiles_track_quickselect() {
        let rates: Vec<f64> = ExitRateStream::production(1).take(20_000).collect();
        let census = ExitCensus::run(20_000, &[10_000.0], 1);
        let mut scratch = Vec::new();
        for p in [50.0, 99.0, 99.9] {
            let exact = exact_percentile_into(&rates, p, &mut scratch);
            let streamed = census.rate_percentile(p);
            let err = (streamed - exact).abs() / exact;
            assert!(
                err < 0.05,
                "p{p}: streamed {streamed} vs exact {exact} (err {err:.3})"
            );
        }
    }

    #[test]
    fn streaming_study_tracks_the_exact_study() {
        let exact = PreemptionStudy::run(10_000, 4);
        let streamed = PreemptionStudy::stream(10_000, 4);
        for h in 0..24 {
            for (name, a, b) in [
                ("shared p99", exact.shared_p99[h], streamed.shared_p99[h]),
                (
                    "shared p99.9",
                    exact.shared_p999[h],
                    streamed.shared_p999[h],
                ),
                (
                    "exclusive p99",
                    exact.exclusive_p99[h],
                    streamed.exclusive_p99[h],
                ),
                (
                    "exclusive p99.9",
                    exact.exclusive_p999[h],
                    streamed.exclusive_p999[h],
                ),
            ] {
                let err = (b - a).abs() / a;
                assert!(
                    err < 0.08,
                    "hour {h} {name}: exact {a} vs streamed {b} (err {err:.3})"
                );
            }
        }
    }

    #[test]
    fn streaming_study_is_deterministic_per_seed() {
        let a = PreemptionStudy::stream(2_000, 9);
        let b = PreemptionStudy::stream(2_000, 9);
        assert_eq!(a.shared_p99, b.shared_p99);
        assert_eq!(a.exclusive_p999, b.exclusive_p999);
    }

    #[test]
    fn sharded_census_merge_matches_a_single_stream_census() {
        // Two hosts censusing disjoint streams merge into exactly the
        // sum of their parts: counts, totals, and histogram buckets.
        let thresholds = [10_000.0, 50_000.0, 100_000.0];
        let a = ExitCensus::run_on(4_000, &thresholds, 5, 0x1111);
        let b = ExitCensus::run_on(6_000, &thresholds, 5, 0x2222);
        let mut merged = ExitCensus::new(&thresholds);
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.total(), 10_000);
        let rows = merged.rows();
        let (ra, rb) = (a.rows(), b.rows());
        for i in 0..thresholds.len() {
            let expect = 100.0 * (ra[i].1 / 100.0 * 4_000.0 + rb[i].1 / 100.0 * 6_000.0) / 10_000.0;
            assert!((rows[i].1 - expect).abs() < 1e-9, "row {i}");
        }
        // Merging in either order gives identical bucket counts (the
        // percentile read-out never touches the float sum).
        let mut swapped = ExitCensus::new(&thresholds);
        swapped.merge(&b);
        swapped.merge(&a);
        assert_eq!(merged.rate_percentile(99.0), swapped.rate_percentile(99.0));
    }

    #[test]
    #[should_panic(expected = "different thresholds")]
    fn census_merge_rejects_mismatched_thresholds() {
        let mut a = ExitCensus::new(&[1.0]);
        let b = ExitCensus::new(&[2.0]);
        a.merge(&b);
    }

    #[test]
    fn production_on_default_stream_matches_production() {
        let mut a = ExitRateStream::production(7);
        let mut b = ExitRateStream::production_on(7, ExitRateStream::CENSUS_STREAM);
        let mut xs = [0.0; 64];
        let mut ys = [0.0; 64];
        a.fill(&mut xs);
        b.fill(&mut ys);
        assert_eq!(xs, ys);
    }

    #[test]
    fn region_host_day_is_deterministic_and_placement_independent() {
        let day = |seed| RegionHostDay::run(500, &[10_000.0, 50_000.0], seed, 0xaaaa, 0xbbbb);
        let a = day(11);
        let b = day(11);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.census.rows(), b.census.rows());
        assert_eq!(
            a.shared_preempt_percentile(99.0),
            b.shared_preempt_percentile(99.0)
        );
        let c = day(12);
        assert_ne!(a.census.rows(), c.census.rows());
    }

    #[test]
    fn region_host_day_tracks_the_diurnal_curve() {
        let day = RegionHostDay::run(500, &[10_000.0], 3, 0xaaaa, 0xbbbb);
        // Initial placement plus 24 hours of churn.
        assert!(day.arrivals > 500);
        assert!(day.departures > 0);
        // Peak occupancy reaches the high-load target — diurnal load
        // tops out at 1.5, so target = guests × (0.85 + 0.30 × 1.5) =
        // 1.3 × guests — and never exceeds it.
        assert!(day.peak_guests >= 500, "peak {}", day.peak_guests);
        assert!(day.peak_guests <= 650, "peak {}", day.peak_guests);
        assert_eq!(day.preempt_samples(), 128 * 24);
        // Shared-class preemption pressure dominates exclusive, as in
        // Fig. 1.
        assert!(day.shared_preempt_percentile(99.0) > day.exclusive_preempt_percentile(99.0));
    }

    #[test]
    fn region_host_days_merge_like_their_parts() {
        let thresholds = [10_000.0, 50_000.0];
        let a = RegionHostDay::run(300, &thresholds, 5, 0x10, 0x11);
        let b = RegionHostDay::run(400, &thresholds, 5, 0x20, 0x21);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.arrivals, a.arrivals + b.arrivals);
        assert_eq!(merged.departures, a.departures + b.departures);
        assert_eq!(merged.guest_hours, a.guest_hours + b.guest_hours);
        assert_eq!(merged.peak_guests, a.peak_guests.max(b.peak_guests));
        assert_eq!(merged.census.total(), a.census.total() + b.census.total());
        assert_eq!(
            merged.preempt_samples(),
            a.preempt_samples() + b.preempt_samples()
        );
    }

    /// Asserts `got` equals `want` bit for bit, naming the first
    /// position that differs.
    fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}[{i}]: got {g:?}, want {w:?}"
            );
        }
    }

    #[test]
    fn merged_region_day_is_pinned_bit_for_bit() {
        // Four 500-guest hosts at seed 1, folded in host order. The
        // values were recorded from the per-call probe sampler; the
        // chunked fills must reproduce them exactly. The histogram
        // means are sums over every draw, so any drifted bit shows.
        let thresholds = [10_000.0, 50_000.0, 100_000.0];
        let mut merged = RegionHostDay::run(500, &thresholds, 1, 0x5e10, 0x0b50);
        for host in 1..4 {
            merged.merge(&RegionHostDay::run(
                500,
                &thresholds,
                1,
                0x5e10 + host,
                0x0b50 + host,
            ));
        }
        let m = &merged;
        assert_eq!(
            (m.census.total(), m.arrivals, m.departures),
            (3688, 3688, 1496)
        );
        assert_eq!((m.peak_guests, m.guest_hours), (650, 56640));
        assert_eq!(m.preempt_samples(), 4 * 24 * PREEMPT_PROBES as u64);
        let rows: Vec<f64> = m.census.rows().iter().map(|&(_, pct)| pct).collect();
        assert_bits(
            "census rows",
            &rows,
            &[3.660520607375271, 0.2440347071583514, 0.08134490238611713],
        );
        assert_bits(
            "census rate mean, p50, p99",
            &[
                m.census.rate_mean(),
                m.census.rate_percentile(50.0),
                m.census.rate_percentile(99.0),
            ],
            &[1982.9894040031513, 456.0, 27136.0],
        );
        assert_bits(
            "preempt p99 shared, exclusive",
            &[
                m.shared_preempt_percentile(99.0),
                m.exclusive_preempt_percentile(99.0),
            ],
            &[3.1875, 0.24609375],
        );
        assert_bits(
            "preempt histogram means shared, exclusive",
            &[m.shared_preempt.mean(), m.exclusive_preempt.mean()],
            &[642.4962534947671, 57.59299739909148],
        );
    }

    #[test]
    fn streaming_study_is_pinned_bit_for_bit() {
        // An odd population carries a Box–Muller spare from each hour's
        // shared class into its exclusive class, and from there into
        // the next hour. Recorded from the per-call sampler.
        let s = PreemptionStudy::stream(1001, 7);
        #[rustfmt::skip]
        assert_bits("shared p99", &s.shared_p99, &[
            2.1875, 1.90625, 1.96875, 1.84375, 2.4375, 2.0625, 2.8125, 2.6875,
            2.8125, 3.9375, 3.4375, 4.875, 4.625, 4.125, 4.375, 4.125,
            4.375, 3.8125, 3.9375, 3.1875, 2.8125, 3.4375, 2.6875, 2.4375,
        ]);
        #[rustfmt::skip]
        assert_bits("shared p99.9", &s.shared_p999, &[
            3.8125, 3.5625, 3.0625, 3.6875, 5.375, 3.4375, 5.875, 4.625,
            5.875, 5.625, 4.375, 6.875, 7.875, 5.375, 9.75, 8.25,
            7.625, 5.125, 8.25, 6.125, 6.375, 7.875, 4.625, 4.875,
        ]);
        #[rustfmt::skip]
        assert_bits("exclusive p99", &s.exclusive_p99, &[
            0.15234375, 0.16015625, 0.13671875, 0.15234375, 0.14453125, 0.22265625,
            0.16015625, 0.18359375, 0.19140625, 0.23828125, 0.2578125, 0.2734375,
            0.2890625, 0.3203125, 0.2734375, 0.2578125, 0.3046875, 0.2890625,
            0.23046875, 0.23046875, 0.23046875, 0.21484375, 0.17578125, 0.19921875,
        ]);
        #[rustfmt::skip]
        assert_bits("exclusive p99.9", &s.exclusive_p999, &[
            0.4140625, 0.23046875, 0.20703125, 0.19921875, 0.2578125, 0.3007786143794017,
            0.21484375, 0.3046875, 0.3671875, 0.4453125, 0.3671875, 0.578125,
            0.36580427579566255, 0.4296875, 0.4296875, 0.3359375, 0.578125, 0.515625,
            0.3515625, 0.546875, 0.4765625, 0.3359375, 0.22265625, 0.3828125,
        ]);
    }

    #[test]
    fn study_is_deterministic_per_seed() {
        let a = PreemptionStudy::run(2_000, 9);
        let b = PreemptionStudy::run(2_000, 9);
        assert_eq!(a.shared_p99, b.shared_p99);
        let c = PreemptionStudy::run(2_000, 10);
        assert_ne!(a.shared_p99, c.shared_p99);
    }
}
