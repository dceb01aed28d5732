//! The intra-run parallelism contract, end to end: a host-sharded run
//! at any worker-pool width is bit-exact with the serial fold — shard
//! values land in host-index order, censuses and telemetry registries
//! merge order-independently, and the `--jobs`-aware experiments
//! render byte-identically at every width.
//!
//! The matrix here is deliberately reduced (debug builds are slow); CI
//! additionally `cmp`s `repro --jobs 4` against `--jobs 1` through the
//! release binary on the full fleet_scale / region_census experiments.

use bmhive_bench::par::{self, host_stream};
use bmhive_cloud::fleet::{ExitCensus, ExitRateStream, RegionHostDay};
use bmhive_telemetry as telemetry;

const THRESHOLDS: [f64; 3] = [10_000.0, 50_000.0, 100_000.0];
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Runs `f` under a worker pool of `width`, restoring width 1 after.
fn at_width<T>(width: usize, f: impl FnOnce() -> T) -> T {
    par::set_jobs(width);
    let out = f();
    par::set_jobs(1);
    out
}

#[test]
fn sharded_census_merge_is_bit_exact_at_every_width_and_seed() {
    for seed in [1u64, 7, 0xDEAD] {
        for hosts in [1usize, 3, 8, 13] {
            let census_host = |host: usize| {
                ExitCensus::run_on(
                    2_000,
                    &THRESHOLDS,
                    seed,
                    host_stream(ExitRateStream::CENSUS_STREAM, host),
                )
            };
            let fold = |shards: Vec<ExitCensus>| {
                let mut merged = shards[0].clone();
                for shard in &shards[1..] {
                    merged.merge(shard);
                }
                merged
            };
            let serial = fold(at_width(1, || par::run_hosts(hosts, seed, census_host)));
            assert_eq!(serial.total(), 2_000 * hosts as u64);
            for width in WIDTHS {
                let parallel = fold(at_width(width, || par::run_hosts(hosts, seed, census_host)));
                assert_eq!(serial.rows(), parallel.rows(), "rows at width {width}");
                assert_eq!(serial.total(), parallel.total());
                for p in [50.0, 99.0, 99.9] {
                    assert_eq!(
                        serial.rate_percentile(p).to_bits(),
                        parallel.rate_percentile(p).to_bits(),
                        "p{p} must be bit-identical at {hosts} hosts, width \
                         {width}, seed {seed}"
                    );
                }
            }
        }
    }
}

#[test]
fn worker_registries_fold_bit_exactly_across_widths() {
    let body = |host: usize| {
        telemetry::counter("par_test.hosts", 1);
        telemetry::gauge_max("par_test.peak", (host * 31 % 7) as f64);
        telemetry::timer(
            "par_test.span",
            bmhive_sim::SimDuration::from_nanos(1 + host as u64 * 991),
        );
        telemetry::add_events(3);
        host
    };
    let registry_at = |width: usize, hosts: usize, seed: u64| {
        telemetry::set_enabled(true);
        telemetry::reset();
        let values = at_width(width, || par::run_hosts(hosts, seed, body));
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::reset();
        assert_eq!(values, (0..hosts).collect::<Vec<usize>>());
        (snap.registry.to_text(), snap)
    };
    for seed in [2u64, 11] {
        for hosts in [1usize, 5, 12] {
            let (serial_text, serial_snap) = registry_at(1, hosts, seed);
            for width in WIDTHS {
                let (text, snap) = registry_at(width, hosts, seed);
                assert_eq!(
                    serial_text, text,
                    "registry fold diverged at {hosts} hosts, width {width}, seed {seed}"
                );
                assert_eq!(serial_snap.sim_events, snap.sim_events);
                // The timer's float sum is the order-sensitive term;
                // the host-index fold must pin it to the bit.
                assert_eq!(
                    serial_snap
                        .registry
                        .timer("par_test.span")
                        .unwrap()
                        .mean()
                        .to_bits(),
                    snap.registry
                        .timer("par_test.span")
                        .unwrap()
                        .mean()
                        .to_bits()
                );
            }
        }
    }
}

#[test]
fn region_host_days_merge_identically_at_every_width() {
    let seed = 3u64;
    let hosts = 6usize;
    let day_of = |host: usize| {
        RegionHostDay::run(
            64,
            &THRESHOLDS,
            seed,
            host_stream(0xbe91, host),
            host_stream(0x09b5, host),
        )
    };
    let fold = |days: Vec<RegionHostDay>| {
        let mut region = days[0].clone();
        for day in &days[1..] {
            region.merge(day);
        }
        region
    };
    let serial = fold(at_width(1, || par::run_hosts(hosts, seed, day_of)));
    for width in WIDTHS {
        let parallel = fold(at_width(width, || par::run_hosts(hosts, seed, day_of)));
        assert_eq!(serial.arrivals, parallel.arrivals, "width {width}");
        assert_eq!(serial.departures, parallel.departures);
        assert_eq!(serial.peak_guests, parallel.peak_guests);
        assert_eq!(serial.guest_hours, parallel.guest_hours);
        assert_eq!(serial.census.rows(), parallel.census.rows());
        for p in [50.0, 99.0, 99.9] {
            assert_eq!(
                serial.shared_preempt_percentile(p).to_bits(),
                parallel.shared_preempt_percentile(p).to_bits()
            );
            assert_eq!(
                serial.exclusive_preempt_percentile(p).to_bits(),
                parallel.exclusive_preempt_percentile(p).to_bits()
            );
        }
    }
}

#[test]
fn parallel_experiments_render_byte_identically_at_every_width() {
    let sharded = bmhive_bench::EXPERIMENTS.iter().filter(|e| e.parallel);
    for exp in sharded {
        let serial = at_width(1, || exp.render(1));
        for width in [2usize, 4, 8] {
            let parallel = at_width(width, || exp.render(1));
            assert_eq!(
                serial, parallel,
                "{} must render byte-identically at --jobs {width}",
                exp.id
            );
        }
    }
}
