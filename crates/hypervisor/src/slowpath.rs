//! The slow I/O paths (§3.4.2).
//!
//! "We also implemented a few slow I/O paths to bypass cloud
//! infrastructure for testing purposes, e.g., to send packets through
//! the Linux Tap devices. These paths are not deployed in the real
//! cloud due to their low performance or inability to access the cloud
//! services. Only the fast I/O paths with DPDK and SPDK are deployed."
//!
//! [`NetBackendPath`] selects between the deployed poll-mode fast path
//! and the tap-device test path, and prices both — the test here *is*
//! the paper's deployment argument.

use bmhive_cloud::vswitch::VSwitch;
use bmhive_sim::SimDuration;

/// Which backend path carries a guest's packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetBackendPath {
    /// The deployed path: vhost-user into the DPDK vSwitch, poll-mode,
    /// user space end to end.
    DpdkFast,
    /// The test path: a Linux tap device through the host kernel stack.
    LinuxTap,
}

impl NetBackendPath {
    /// Per-packet backend cost. The fast path is the vSwitch's own PMD
    /// forwarding cost. The tap path pays a syscall, a kernel bridge
    /// traversal, a context switch and an skb copy per packet — roughly
    /// 20× the PMD's burst-amortised cost.
    pub fn per_packet(self) -> SimDuration {
        match self {
            NetBackendPath::DpdkFast => VSwitch::PER_PACKET,
            NetBackendPath::LinuxTap => SimDuration::from_micros_f64(6.5),
        }
    }

    /// Added one-way latency: the tap path wakes kernel threads instead
    /// of being polled.
    pub fn added_latency(self) -> SimDuration {
        match self {
            NetBackendPath::DpdkFast => SimDuration::ZERO,
            NetBackendPath::LinuxTap => SimDuration::from_micros(25),
        }
    }

    /// Whether the path can reach the production cloud overlay (the tap
    /// path cannot: it has no VPC encapsulation).
    pub fn reaches_cloud_services(self) -> bool {
        matches!(self, NetBackendPath::DpdkFast)
    }

    /// Per-core packet throughput ceiling.
    pub fn max_pps_per_core(self) -> f64 {
        1.0 / self.per_packet().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tap_path_is_an_order_of_magnitude_slower() {
        let fast = NetBackendPath::DpdkFast.max_pps_per_core();
        let slow = NetBackendPath::LinuxTap.max_pps_per_core();
        assert!(fast / slow > 10.0, "fast {fast} vs slow {slow}");
        // The fast path sustains millions of packets per core; the tap
        // path only ~150K — it could never carry a 4M PPS guest.
        assert!(fast > 3e6);
        assert!(slow < 2e5);
    }

    #[test]
    fn tap_path_cannot_reach_cloud_services() {
        assert!(NetBackendPath::DpdkFast.reaches_cloud_services());
        assert!(!NetBackendPath::LinuxTap.reaches_cloud_services());
    }

    #[test]
    fn tap_adds_wakeup_latency() {
        assert!(
            NetBackendPath::LinuxTap.added_latency() > NetBackendPath::DpdkFast.added_latency()
        );
        assert!(NetBackendPath::LinuxTap.added_latency() >= SimDuration::from_micros(20));
    }
}
