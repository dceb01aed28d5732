//! The streaming-census contract, end to end: with the counting
//! allocator installed (as the `repro` binary installs it), the
//! `fleet_scale` experiment meters real allocations, a million-guest
//! census costs no more memory than a ten-thousand-guest one, and the
//! streamed statistics are exactly a fold of the materialized draws.

use bmhive_bench::Verdict;
use bmhive_cloud::fleet::{ExitCensus, ExitRateStream, PreemptionStudy};
use bmhive_telemetry::alloc::{self, CountingAlloc};

// Each integration test binary links its own allocator; this is the
// same installation line the `repro` binary uses.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

const THRESHOLDS: [f64; 3] = [10_000.0, 50_000.0, 100_000.0];

fn census_peak(vms: u64, seed: u64) -> (ExitCensus, u64) {
    alloc::measure_peak(|| {
        let mut census = ExitCensus::new(&THRESHOLDS);
        for rate in ExitRateStream::production(seed).take(vms as usize) {
            census.observe(rate);
        }
        census
    })
}

#[test]
fn counting_allocator_is_installed_and_counts() {
    assert!(alloc::installed(), "the test binary installs CountingAlloc");
    let (v, peak) = alloc::measure_peak(|| vec![0u8; 1 << 20]);
    assert!(peak >= 1 << 20, "a 1 MiB Vec must meter >= 1 MiB: {peak}");
    drop(v);
}

#[test]
fn census_memory_is_constant_in_guest_count() {
    let (small, small_peak) = census_peak(10_000, 1);
    let (large, large_peak) = census_peak(1_000_000, 1);
    assert_eq!(small.total(), 10_000);
    assert_eq!(large.total(), 1_000_000);
    assert!(small_peak > 0, "the census allocates its accumulators");
    // One 4 KiB histogram plus the two threshold vectors: a return to
    // 16 KiB of buckets fails here.
    assert!(
        small_peak <= 8 * 1024,
        "10k-guest census peak {small_peak} B exceeds 8 KiB"
    );
    // O(1): the 100x bigger fleet allocates exactly the same
    // accumulators; allow slack only for allocator jitter.
    assert!(
        large_peak <= small_peak + 64 * 1024,
        "1M-guest census peak {large_peak} B vs 10k-guest {small_peak} B"
    );
    // And the materialized equivalent is visibly NOT O(1): the Vec of
    // draws alone dwarfs the streaming accumulators.
    let (rates, materialized_peak) = alloc::measure_peak(|| {
        ExitRateStream::production(1)
            .take(100_000)
            .collect::<Vec<f64>>()
    });
    assert_eq!(rates.len(), 100_000);
    assert!(
        materialized_peak > 4 * small_peak,
        "materializing 100k draws ({materialized_peak} B) should dwarf the \
         streaming census ({small_peak} B)"
    );
}

#[test]
fn streamed_census_fractions_equal_a_materialized_fold() {
    let vms = 10_000u64;
    let rates: Vec<f64> = ExitRateStream::production(5).take(vms as usize).collect();
    let mut by_hand = ExitCensus::new(&THRESHOLDS);
    for &rate in &rates {
        by_hand.observe(rate);
    }
    let (streamed, _) = census_peak(vms, 5);
    assert_eq!(by_hand.rows(), streamed.rows());
    assert_eq!(by_hand.total(), streamed.total());
    for p in [50.0, 99.0, 99.9] {
        assert_eq!(
            by_hand.rate_percentile(p).to_bits(),
            streamed.rate_percentile(p).to_bits(),
            "p{p} must be bit-identical"
        );
    }
}

#[test]
fn preemption_stream_is_allocation_bounded_too() {
    let (_, small_peak) = alloc::measure_peak(|| PreemptionStudy::stream(1_000, 2));
    let (_, large_peak) = alloc::measure_peak(|| PreemptionStudy::stream(8_000, 2));
    assert!(
        large_peak <= small_peak + 64 * 1024,
        "8x more VMs must not grow the streaming study: {large_peak} B vs {small_peak} B"
    );
}

#[test]
fn fleet_scale_experiment_gates_all_pass() {
    let exp = bmhive_bench::experiment("fleet_scale").expect("known id");
    let report = exp.render(1);
    assert!(
        report.gates.iter().all(|g| g.verdict != Verdict::Skipped),
        "allocator installed, so the memory gate must run:\n{}",
        report.text
    );
    assert_eq!(report.gates.len(), 5, "five gates:\n{}", report.text);
    assert!(
        report.gates.iter().all(|g| g.verdict == Verdict::Pass),
        "all five gates pass:\n{}",
        report.text
    );
    // Deterministic in the seed: two renders are byte-identical (the
    // sweep relies on this).
    assert_eq!(
        report,
        exp.render(1),
        "fleet_scale must render byte-identically per seed"
    );
}
