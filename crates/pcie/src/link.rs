//! PCIe link timing model.
//!
//! §3.4.3 gives the numbers this model reproduces:
//!
//! * "a PCI read/write from bm-guest to IO-Bond front-end takes 0.8 µs,
//!   and another 0.8 µs from IO-Bond to its mailbox registers. So a
//!   typical PCI access emulating from bm-hypervisor takes 1.6 µs
//!   constantly" — the FPGA register-access latency.
//! * "IO-Bond exposes a PCIe x4 interface each for the virtio network and
//!   storage devices. They are backed up by a PCIe x8 interface to the
//!   bm-hypervisor" — each x4 link sustains 32 Gbit/s.
//! * §6 projects an ASIC implementation cutting the register access from
//!   0.8 µs to 0.2 µs.

use bmhive_faults::{self as faults, FaultSite, RetryOp};
use bmhive_sim::{SimDuration, SimTime};

/// PCIe generation, which fixes the per-lane data rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkGen {
    /// 5 GT/s, 8b/10b encoding → 4 Gbit/s effective per lane.
    Gen2,
    /// 8 GT/s, 128b/130b encoding → ~7.88 Gbit/s effective per lane.
    Gen3,
}

impl LinkGen {
    /// Effective (post-encoding) per-lane bandwidth in Gbit/s.
    pub fn lane_gbps(self) -> f64 {
        match self {
            LinkGen::Gen2 => 4.0,
            LinkGen::Gen3 => 8.0 * (128.0 / 130.0),
        }
    }
}

/// A point-to-point PCIe link with a register-access latency and a
/// payload bandwidth.
///
/// # Example
///
/// ```
/// use bmhive_pcie::{LinkGen, PcieLink};
/// use bmhive_sim::SimDuration;
///
/// // The compute-board x4 link to IO-Bond, FPGA era.
/// let link = PcieLink::new(LinkGen::Gen3, 4, SimDuration::from_nanos(800));
/// assert!((link.bandwidth_gbps() - 31.5).abs() < 0.1); // ≈ the paper's 32 Gbit/s
/// assert_eq!(link.register_access(), SimDuration::from_nanos(800));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieLink {
    gen: LinkGen,
    lanes: u8,
    register_latency: SimDuration,
}

impl PcieLink {
    /// Creates a link of the given generation and lane count, with a
    /// fixed register (non-posted read / small posted write) latency.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not 1, 2, 4, 8 or 16.
    pub fn new(gen: LinkGen, lanes: u8, register_latency: SimDuration) -> Self {
        assert!(
            matches!(lanes, 1 | 2 | 4 | 8 | 16),
            "PcieLink: invalid lane count {lanes}"
        );
        PcieLink {
            gen,
            lanes,
            register_latency,
        }
    }

    /// The compute-board-facing x4 link of the FPGA IO-Bond (0.8 µs
    /// register access, §3.4.3).
    pub fn iobond_fpga_x4() -> Self {
        PcieLink::new(LinkGen::Gen3, 4, SimDuration::from_nanos(800))
    }

    /// The base-facing x8 link of the FPGA IO-Bond.
    pub fn iobond_fpga_x8() -> Self {
        PcieLink::new(LinkGen::Gen3, 8, SimDuration::from_nanos(800))
    }

    /// The projected ASIC IO-Bond x4 link (0.2 µs register access, §6).
    pub fn iobond_asic_x4() -> Self {
        PcieLink::new(LinkGen::Gen3, 4, SimDuration::from_nanos(200))
    }

    /// Effective link bandwidth in Gbit/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.gen.lane_gbps() * f64::from(self.lanes)
    }

    /// Lane count.
    pub fn lanes(&self) -> u8 {
        self.lanes
    }

    /// The generation of this link.
    pub fn gen(&self) -> LinkGen {
        self.gen
    }

    /// Latency of a single register read or write across this link.
    pub fn register_access(&self) -> SimDuration {
        self.register_latency
    }

    /// Fault-aware register access at virtual time `now`.
    ///
    /// With no fault plan armed this is exactly
    /// [`register_access`](Self::register_access). Under an armed plan,
    /// a link flap covering `now` makes the access fail until the link
    /// retrains — the requester retries with bounded backoff and the
    /// wait is added to the access — and an active hop-latency spike
    /// multiplies the register latency by the plan's factor.
    pub fn register_access_at(&self, now: SimTime) -> SimDuration {
        if !faults::is_armed() {
            return self.register_latency;
        }
        let mut total = SimDuration::ZERO;
        if faults::blocking_until(FaultSite::Pcie, now).is_some() {
            let recovery =
                faults::retry_until_clear(RetryOp::PcieRegister, now, self.register_latency);
            total += recovery.waited;
        }
        let factor = faults::latency_factor(FaultSite::Pcie, now + total);
        let access = self.register_latency.mul_f64(factor);
        if factor > 1.0 {
            faults::note_degraded(FaultSite::Pcie, access - self.register_latency);
        }
        total + access
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Maximum TLP payload we model, in bytes. Payloads larger than this are
    /// split into multiple TLPs, each paying header overhead.
    const MAX_TLP_PAYLOAD: u64 = 256;
    /// TLP + DLLP + framing overhead per packet, in bytes.
    const TLP_OVERHEAD: u64 = 26;

    impl PcieLink {
        /// Time to move `bytes` of bulk payload across the link, including
        /// TLP packetisation overhead. Zero-byte transfers cost nothing.
        fn payload_time(&self, bytes: u64) -> SimDuration {
            if bytes == 0 {
                return SimDuration::ZERO;
            }
            let tlps = bytes.div_ceil(MAX_TLP_PAYLOAD);
            let wire_bytes = bytes + tlps * TLP_OVERHEAD;
            let secs = (wire_bytes as f64 * 8.0) / (self.bandwidth_gbps() * 1e9);
            SimDuration::from_secs_f64(secs)
        }
    }

    #[test]
    fn x4_link_matches_paper_bandwidth() {
        let link = PcieLink::iobond_fpga_x4();
        // The paper rounds to 32 Gbit/s.
        assert!((link.bandwidth_gbps() - 32.0).abs() < 0.6);
        assert_eq!(link.lanes(), 4);
    }

    #[test]
    fn x8_doubles_x4() {
        let x4 = PcieLink::iobond_fpga_x4();
        let x8 = PcieLink::iobond_fpga_x8();
        assert!((x8.bandwidth_gbps() - 2.0 * x4.bandwidth_gbps()).abs() < 1e-9);
    }

    #[test]
    fn asic_profile_cuts_register_latency_75_percent() {
        let fpga = PcieLink::iobond_fpga_x4();
        let asic = PcieLink::iobond_asic_x4();
        let ratio =
            asic.register_access().as_nanos() as f64 / fpga.register_access().as_nanos() as f64;
        assert!((ratio - 0.25).abs() < 1e-9);
    }

    #[test]
    fn payload_time_includes_tlp_overhead() {
        let link = PcieLink::new(LinkGen::Gen3, 4, SimDuration::ZERO);
        let one = link.payload_time(256);
        let two = link.payload_time(512);
        // Two TLPs pay twice the overhead: double, within rounding.
        let diff = two.as_nanos() as i64 - 2 * one.as_nanos() as i64;
        assert!(diff.abs() <= 1, "diff {diff}ns");
        assert_eq!(link.payload_time(0), SimDuration::ZERO);
    }

    #[test]
    fn small_packet_rate_is_overhead_bound() {
        let link = PcieLink::new(LinkGen::Gen3, 4, SimDuration::ZERO);
        // 64-byte packets: 90 wire bytes at ~31.5 Gbit/s ≈ 43.7 M/s,
        // the hardware ceiling behind the unrestricted 16 M PPS
        // measurement of §4.3.
        let pps = 1.0 / link.payload_time(64).as_secs_f64();
        assert!(pps > 30e6 && pps < 60e6, "pps {pps}");
    }

    #[test]
    fn gen2_is_slower_than_gen3() {
        assert!(LinkGen::Gen2.lane_gbps() < LinkGen::Gen3.lane_gbps());
    }

    #[test]
    #[should_panic(expected = "invalid lane count")]
    fn bad_lane_count_panics() {
        PcieLink::new(LinkGen::Gen3, 3, SimDuration::ZERO);
    }

    // The fault injector is thread-local and each test runs on its own
    // thread, so fault tests need no serialization.

    #[test]
    fn register_access_at_is_identity_when_unarmed() {
        bmhive_faults::disarm();
        let link = PcieLink::iobond_fpga_x4();
        assert_eq!(
            link.register_access_at(SimTime::from_micros(5)),
            link.register_access()
        );
    }

    #[test]
    fn link_flap_and_spike_inflate_register_access() {
        let mut plan = bmhive_faults::FaultPlan::new("pcie-test");
        plan.push(bmhive_faults::FaultEvent::window(
            SimTime::from_micros(100),
            FaultSite::Pcie,
            bmhive_faults::FaultKind::LinkFlap,
            SimDuration::from_micros(30),
        ));
        plan.push(bmhive_faults::FaultEvent::factor(
            SimTime::from_micros(500),
            FaultSite::Pcie,
            bmhive_faults::FaultKind::LatencySpike,
            SimDuration::from_micros(50),
            4.0,
        ));
        bmhive_faults::arm(plan, 3);
        let link = PcieLink::iobond_fpga_x4();
        // Before any window: untouched.
        assert_eq!(
            link.register_access_at(SimTime::from_micros(50)),
            link.register_access()
        );
        // During the flap: the retry wait must at least cover the window.
        let flapped = link.register_access_at(SimTime::from_micros(110));
        assert!(flapped >= SimDuration::from_micros(20) + link.register_access());
        // During the spike: 4× the base latency.
        let spiked = link.register_access_at(SimTime::from_micros(520));
        assert_eq!(spiked, link.register_access().mul_f64(4.0));
        let stats = bmhive_faults::disarm().unwrap();
        assert!(stats.injected(FaultSite::Pcie, faults::FaultKind::LinkFlap) > 0);
        assert!(stats.injected(FaultSite::Pcie, faults::FaultKind::LatencySpike) > 0);
        assert!(stats.all_recovered());
    }
}
