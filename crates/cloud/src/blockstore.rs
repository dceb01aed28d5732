//! The SPDK-style block store.
//!
//! "In the cloud, storage is normally accessed through the network"
//! (§4.3): a cloud volume is SSD-backed and reached across the
//! datacenter fabric, so its service time is network RTT + flash. The
//! unrestricted experiments instead hit a local NVMe SSD. Both are
//! modelled here; the per-platform *path* costs (extra copies, exits,
//! preemption) are added by the callers, which is where the bm/vm gap
//! of Fig. 11 comes from.

use bmhive_faults::{self as faults, FaultSite};
use bmhive_sim::{MultiResource, SimDuration, SimRng, SimTime};
use bmhive_telemetry as telemetry;

/// Where the volume's bits live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageClass {
    /// SSD-backed cloud storage across the 100 Gbit/s network.
    CloudSsd,
    /// A local NVMe SSD on the server (testing / unrestricted runs).
    LocalSsd,
}

/// An I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Read.
    Read,
    /// Write.
    Write,
}

/// One completed I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoResult {
    /// When the store finished the operation.
    pub complete_at: SimTime,
    /// Pure service time (excluding queueing).
    pub service: SimDuration,
}

/// A flash-backed block store with parallel channels.
#[derive(Debug)]
pub struct BlockStore {
    class: StorageClass,
    channels: MultiResource,
    rng: SimRng,
    /// `(ln(mu_us), sigma)` for reads and writes, computed once at
    /// construction so the per-I/O path skips the `ln()`. Sampling is
    /// bit-identical to passing `mu_us.ln()` at each call.
    read_params: (f64, f64),
    write_params: (f64, f64),
    /// Per-channel streaming transfer cost in ns per byte
    /// (`8 / gbps`), precomputed so the per-I/O path divides nowhere.
    ns_per_byte: f64,
    ops: u64,
    bytes: u64,
}

impl BlockStore {
    /// Creates a store of the given class. `seed` makes latency
    /// sampling deterministic.
    pub fn new(class: StorageClass, seed: u64) -> Self {
        let channels = match class {
            StorageClass::CloudSsd => 16, // a striped cloud volume
            StorageClass::LocalSsd => 8,  // NVMe queue pairs
        };
        // Log-normal flash latencies; the sigma carries the intrinsic
        // tail (GC pauses, read retries).
        let (read_params, write_params): ((f64, f64), (f64, f64)) = match class {
            // Cloud: ~55 µs network round trip + ~85 µs flash read;
            // writes land in the replica's NVRAM buffer: lower median.
            StorageClass::CloudSsd => ((140.0f64.ln(), 0.25), (100.0f64.ln(), 0.22)),
            StorageClass::LocalSsd => ((48.0f64.ln(), 0.18), (14.0f64.ln(), 0.20)),
        };
        // Per-channel streaming bandwidth.
        let gbps = match class {
            StorageClass::CloudSsd => 8.0,
            StorageClass::LocalSsd => 12.0,
        };
        BlockStore {
            class,
            channels: MultiResource::new(channels),
            rng: SimRng::with_stream(seed, 0xb10c),
            read_params,
            write_params,
            ns_per_byte: 8.0 / gbps,
            ops: 0,
            bytes: 0,
        }
    }

    /// The storage class.
    pub fn class(&self) -> StorageClass {
        self.class
    }

    fn base_latency(&mut self, kind: IoKind) -> SimDuration {
        let (ln_mu, sigma) = match kind {
            IoKind::Read => self.read_params,
            IoKind::Write => self.write_params,
        };
        let sampled = self.rng.lognormal(ln_mu, sigma);
        SimDuration::from_micros_f64(sampled)
    }

    fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos((bytes as f64 * self.ns_per_byte).round() as u64)
    }

    /// Submits one I/O of `bytes` at `now`; returns its completion.
    /// Operations queue FCFS across the store's channels.
    ///
    /// Under an armed [`bmhive_faults`] plan a block-store brownout
    /// multiplies the service time for I/Os issued inside its window.
    pub fn submit(&mut self, kind: IoKind, bytes: u64, now: SimTime) -> IoResult {
        let mut service = self.base_latency(kind) + self.transfer_time(bytes);
        if faults::is_armed() {
            let factor = faults::latency_factor(FaultSite::BlockStore, now);
            if factor > 1.0 {
                let degraded = service.mul_f64(factor);
                faults::note_degraded(FaultSite::BlockStore, degraded - service);
                service = degraded;
            }
        }
        let served = self.channels.serve(now, service);
        self.ops += 1;
        self.bytes += bytes;
        if telemetry::is_enabled() {
            telemetry::span("blockstore", "queue_wait", now, served.queue_delay(now));
            telemetry::span_with(
                "blockstore",
                "service",
                served.start,
                service,
                vec![
                    (
                        "kind",
                        match kind {
                            IoKind::Read => "read",
                            IoKind::Write => "write",
                        }
                        .into(),
                    ),
                    ("bytes", bytes.into()),
                ],
            );
            telemetry::counter("blockstore.ops", 1);
            telemetry::counter("blockstore.bytes", bytes);
            telemetry::timer("blockstore.sojourn", served.sojourn(now));
        }
        IoResult {
            complete_at: served.end,
            service,
        }
    }

    /// Operations completed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Bytes moved so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_sim::Histogram;

    impl BlockStore {
        /// Peak random 4 KiB IOPS of the device itself (service-time bound).
        fn device_iops_4k(&mut self) -> f64 {
            // Estimate from the mean service time across channels.
            let mut total = SimDuration::ZERO;
            let n = 200;
            for _ in 0..n {
                total += self.base_latency(IoKind::Read) + self.transfer_time(4096);
            }
            let mean = total.as_secs_f64() / f64::from(n);
            self.channels.servers() as f64 / mean
        }
    }

    #[test]
    fn cloud_read_latency_is_network_plus_flash() {
        let mut store = BlockStore::new(StorageClass::CloudSsd, 1);
        let mut h = Histogram::new();
        for i in 0..2_000 {
            let r = store.submit(IoKind::Read, 4096, SimTime::from_millis(i));
            h.record_duration(r.service);
        }
        let mean = h.mean();
        assert!((120.0..=180.0).contains(&mean), "mean {mean} µs");
        // Intrinsic tail is present but bounded.
        assert!(h.percentile(99.9) < 4.0 * mean);
    }

    #[test]
    fn local_ssd_is_much_faster_than_cloud() {
        let mut cloud = BlockStore::new(StorageClass::CloudSsd, 2);
        let mut local = BlockStore::new(StorageClass::LocalSsd, 2);
        let c = cloud.submit(IoKind::Read, 4096, SimTime::ZERO).service;
        let l = local.submit(IoKind::Read, 4096, SimTime::ZERO).service;
        assert!(l < c);
        // The paper's unrestricted bm-guest average is ~60 µs; the
        // device itself must sit just under that.
        let mut h = Histogram::new();
        for i in 0..2_000 {
            h.record_duration(
                local
                    .submit(IoKind::Read, 4096, SimTime::from_millis(i))
                    .service,
            );
        }
        assert!(
            (40.0..=60.0).contains(&h.mean()),
            "local mean {} µs",
            h.mean()
        );
    }

    #[test]
    fn writes_are_faster_than_reads() {
        let mut store = BlockStore::new(StorageClass::CloudSsd, 3);
        let mut rd = SimDuration::ZERO;
        let mut wr = SimDuration::ZERO;
        for i in 0..500 {
            rd += store
                .submit(IoKind::Read, 4096, SimTime::from_millis(i))
                .service;
            wr += store
                .submit(IoKind::Write, 4096, SimTime::from_millis(i))
                .service;
        }
        assert!(wr < rd);
    }

    #[test]
    fn queueing_kicks_in_at_saturation() {
        let mut store = BlockStore::new(StorageClass::CloudSsd, 4);
        // Fire 10 000 reads at t=0: far above what 16 channels absorb.
        let mut last = SimTime::ZERO;
        for _ in 0..10_000 {
            last = last.max(store.submit(IoKind::Read, 4096, SimTime::ZERO).complete_at);
        }
        // 10 000 ops × ~144 µs / 16 channels ≈ 90 ms.
        assert!(last > SimTime::from_millis(50), "last {last}");
        assert_eq!(store.ops(), 10_000);
    }

    #[test]
    fn large_transfers_are_bandwidth_bound() {
        let mut store = BlockStore::new(StorageClass::LocalSsd, 5);
        let small = store.submit(IoKind::Read, 4096, SimTime::ZERO).service;
        let big = store.submit(IoKind::Read, 4 << 20, SimTime::ZERO).service;
        // 4 MiB at 12 Gbit/s ≈ 2.8 ms >> flash latency.
        assert!(big > small * 10);
    }

    #[test]
    fn device_iops_supports_the_rate_limit() {
        // The 25 K IOPS cloud cap must be achievable by the device.
        let mut store = BlockStore::new(StorageClass::CloudSsd, 6);
        assert!(store.device_iops_4k() > 25_000.0);
    }

    #[test]
    fn brownout_inflates_service_inside_the_window() {
        // Same seed twice: the first store measures the clean service
        // time, the second measures it under the canned brownout
        // (block store ×4 over 650–900 µs).
        let mut clean = BlockStore::new(StorageClass::CloudSsd, 9);
        let baseline = clean.submit(IoKind::Read, 4096, SimTime::from_micros(660));
        let plan = bmhive_faults::canned("backend-brownout").unwrap();
        bmhive_faults::arm(plan, 9);
        let mut store = BlockStore::new(StorageClass::CloudSsd, 9);
        let degraded = store.submit(IoKind::Read, 4096, SimTime::from_micros(660));
        let stats = bmhive_faults::disarm().expect("stats");
        assert_eq!(degraded.service, baseline.service.mul_f64(4.0));
        assert!(stats.injected_total() > 0);
        assert!(stats.site(FaultSite::BlockStore).degraded_ns > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = BlockStore::new(StorageClass::CloudSsd, 7);
        let mut b = BlockStore::new(StorageClass::CloudSsd, 7);
        for i in 0..100 {
            assert_eq!(
                a.submit(IoKind::Read, 4096, SimTime::from_micros(i)),
                b.submit(IoKind::Read, 4096, SimTime::from_micros(i))
            );
        }
    }
}
