//! IO-Bond packet-processing offload (§6).
//!
//! "We plan to add more network-related functions in IO-Bond to offload
//! the packet processing from the bm-hypervisor so that lower-cost CPUs
//! can be used by the base."
//!
//! [`OffloadConfig`] models which vSwitch functions move into IO-Bond's
//! gates: with more offload, each packet consumes less base-CPU time, so
//! a given guest fleet needs fewer (or cheaper) PMD cores. The
//! `offload` experiment and [`OffloadConfig::base_cores_needed`]
//! quantify the claim.

use bmhive_cloud::vswitch::VSwitch;
use bmhive_sim::SimDuration;

/// Which packet-processing stages IO-Bond performs in hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadConfig {
    /// Parse and validate headers in gates (always on: the FPGA already
    /// touches every descriptor).
    header_parse: bool,
    /// MAC/overlay table lookup in CAM.
    forwarding_lookup: bool,
    /// VXLAN-style overlay encap/decap.
    overlay_encap: bool,
    /// Per-flow rate-limit enforcement (token buckets in hardware).
    rate_limiting: bool,
}

impl OffloadConfig {
    /// The deployed FPGA: no offload — IO-Bond only bridges, the
    /// bm-hypervisor's DPDK vSwitch does all packet work (§3.4.2).
    pub fn deployed() -> Self {
        OffloadConfig {
            header_parse: false,
            forwarding_lookup: false,
            overlay_encap: false,
            rate_limiting: false,
        }
    }

    /// The §6 plan: everything in hardware.
    pub fn full() -> Self {
        OffloadConfig {
            header_parse: true,
            forwarding_lookup: true,
            overlay_encap: true,
            rate_limiting: true,
        }
    }

    /// Base-CPU time per packet that remains in software under this
    /// configuration. The deployed software switch spends
    /// [`VSwitch::PER_PACKET`] per packet; each offloaded stage removes
    /// its share.
    pub fn sw_per_packet(&self) -> SimDuration {
        let mut ns = VSwitch::PER_PACKET.as_nanos() as f64;
        if self.header_parse {
            ns -= 60.0;
        }
        if self.forwarding_lookup {
            ns -= 90.0;
        }
        if self.overlay_encap {
            ns -= 80.0;
        }
        if self.rate_limiting {
            ns -= 40.0;
        }
        // The vhost-user doorbell handling never leaves software.
        SimDuration::from_nanos(ns.max(30.0) as u64)
    }

    /// Extra FPGA pipeline latency the offloaded stages add per packet
    /// (gates are not free, just cheap and parallel).
    pub fn hw_added_latency(&self) -> SimDuration {
        let stages = [
            self.header_parse,
            self.forwarding_lookup,
            self.overlay_encap,
            self.rate_limiting,
        ]
        .iter()
        .filter(|&&on| on)
        .count() as u64;
        SimDuration::from_nanos(25 * stages)
    }

    /// Base-server PMD cores needed to switch `guests` guests each
    /// pushing `pps_per_guest` packets/second.
    pub fn base_cores_needed(&self, guests: u32, pps_per_guest: f64) -> u32 {
        let total_pps = f64::from(guests) * pps_per_guest;
        let core_capacity = 1.0 / self.sw_per_packet().as_secs_f64();
        (total_pps / core_capacity).ceil().max(1.0) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployed_config_matches_the_vswitch_cost() {
        assert_eq!(
            OffloadConfig::deployed().sw_per_packet(),
            VSwitch::PER_PACKET
        );
        assert_eq!(
            OffloadConfig::deployed().hw_added_latency(),
            SimDuration::ZERO
        );
    }

    #[test]
    fn full_offload_cuts_software_cost_by_an_order() {
        let full = OffloadConfig::full();
        assert!(full.sw_per_packet() <= SimDuration::from_nanos(40));
        // The FPGA pipeline adds nanoseconds, not microseconds.
        assert!(full.hw_added_latency() <= SimDuration::from_nanos(120));
    }

    #[test]
    fn offload_lets_a_cheaper_base_cpu_carry_the_fleet() {
        // 16 guests × 1 M PPS each.
        let deployed = OffloadConfig::deployed().base_cores_needed(16, 1e6);
        let full = OffloadConfig::full().base_cores_needed(16, 1e6);
        // Deployed: 16 M PPS × 300 ns ≈ 4.8 cores; full offload: ≈ 0.5.
        assert!(deployed >= 5, "deployed needs {deployed} cores");
        assert!(full <= 1, "offloaded needs {full} core(s)");
        assert!(deployed >= 4 * full.max(1));
    }

    #[test]
    fn partial_offload_is_monotone() {
        let mut cfg = OffloadConfig::deployed();
        let mut last = cfg.sw_per_packet();
        for step in 0..4 {
            match step {
                0 => cfg.header_parse = true,
                1 => cfg.forwarding_lookup = true,
                2 => cfg.overlay_encap = true,
                _ => cfg.rate_limiting = true,
            }
            let now = cfg.sw_per_packet();
            assert!(now < last, "each stage strictly reduces software work");
            last = now;
        }
    }
}
