//! sockperf / DPDK / ping: the Fig. 10 latency experiment.
//!
//! §4.3 measures 64-byte UDP round-trip latency three ways between a
//! pair of same-server guests: sockperf over the default kernel stack
//! (bm ≈ vm), the DPDK `basicfwd` bypass (vm slightly better, because
//! the kernel stack no longer masks IO-Bond's longer path), and ICMP
//! ping (like the kernel stack).

use crate::env::GuestEnv;
use bmhive_cloud::vswitch::VSwitch;
use bmhive_net::{MacAddr, Packet, PacketKind, ProtocolStack};
use bmhive_sim::{Histogram, SimDuration};
use bmhive_telemetry as telemetry;

/// Which latency tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyTool {
    /// sockperf-3.5, default kernel stack.
    SockperfKernel,
    /// DPDK basicfwd bypass.
    Dpdk,
    /// ICMP echo.
    Ping,
}

impl LatencyTool {
    /// All three tools, in Fig. 10 order.
    pub const ALL: [LatencyTool; 3] = [
        LatencyTool::SockperfKernel,
        LatencyTool::Dpdk,
        LatencyTool::Ping,
    ];

    /// Label as the figure prints it.
    pub fn label(self) -> &'static str {
        match self {
            LatencyTool::SockperfKernel => "sockperf (kernel)",
            LatencyTool::Dpdk => "dpdk bypass",
            LatencyTool::Ping => "icmp ping",
        }
    }
}

/// One guest pair's round-trip latency distribution.
#[derive(Debug, Clone)]
pub struct LatencyRun {
    /// Guest label.
    pub label: &'static str,
    /// The tool used.
    pub tool: LatencyTool,
    /// RTT distribution in microseconds.
    pub rtt_us: Histogram,
}

/// Measures `samples` 64-byte round trips with `tool` on `env`'s
/// platform (both direction endpoints are guests of the same kind, as in
/// the paper).
pub fn round_trip(env: &mut GuestEnv, tool: LatencyTool, samples: u32) -> LatencyRun {
    let stack = match tool {
        LatencyTool::SockperfKernel => ProtocolStack::kernel(),
        LatencyTool::Dpdk => ProtocolStack::dpdk_bypass(),
        LatencyTool::Ping => ProtocolStack::icmp(),
    };
    let kind = if tool == LatencyTool::Ping {
        PacketKind::Icmp
    } else {
        PacketKind::Udp
    };
    let probe = Packet::new(MacAddr::for_guest(1), MacAddr::for_guest(2), kind, 64, 0);
    let mut rtt_us = Histogram::new();
    // Per direction: sender stack tx + guest→backend path + vSwitch +
    // backend→guest path + receiver stack rx (+ wakeup each side).
    // Request and echo reply are symmetric: 4 guest-path traversals.
    for _ in 0..samples {
        let mut rtt = SimDuration::ZERO;
        for _leg in 0..2 {
            let tx = env.cpu.execute(&stack.tx_work(&probe));
            let rx = env.cpu.execute(&stack.rx_work(&probe));
            let jitter = SimDuration::from_secs_f64(
                env.rng.exp(0.4e-6), // scheduling noise per leg
            );
            rtt += tx
                + stack.wakeup_latency()
                + env.path.net_oneway(64)
                + VSwitch::PER_PACKET
                + env.path.net_oneway(64)
                + env.path.completion_busy()
                + rx
                + stack.wakeup_latency()
                + jitter;
        }
        rtt_us.record_duration(rtt);
    }
    telemetry::add_events(u64::from(samples));
    LatencyRun {
        label: env.label,
        tool,
        rtt_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(tool: LatencyTool) -> (LatencyRun, LatencyRun) {
        let mut bm = GuestEnv::bm(5);
        let mut vm = GuestEnv::vm(5);
        (
            round_trip(&mut bm, tool, 3_000),
            round_trip(&mut vm, tool, 3_000),
        )
    }

    #[test]
    fn kernel_stack_latencies_are_almost_the_same() {
        let (bm, vm) = runs(LatencyTool::SockperfKernel);
        let ratio = bm.rtt_us.mean() / vm.rtt_us.mean();
        assert!(
            (0.95..=1.25).contains(&ratio),
            "bm {} vs vm {} (ratio {ratio})",
            bm.rtt_us.mean(),
            vm.rtt_us.mean()
        );
        // Tens of microseconds, as sockperf reports on real systems.
        assert!(
            (15.0..=80.0).contains(&bm.rtt_us.mean()),
            "bm {}",
            bm.rtt_us.mean()
        );
    }

    #[test]
    fn dpdk_bypass_favours_the_vm_guest() {
        let (bm, vm) = runs(LatencyTool::Dpdk);
        assert!(
            vm.rtt_us.mean() < bm.rtt_us.mean(),
            "vm {} should beat bm {}",
            vm.rtt_us.mean(),
            bm.rtt_us.mean()
        );
        // Both are single-digit-to-low-teens µs once the kernel stack is
        // gone.
        assert!(bm.rtt_us.mean() < 20.0, "bm dpdk {}", bm.rtt_us.mean());
        // The absolute gap is the IO-Bond path delta (a few µs per RTT).
        assert!(bm.rtt_us.mean() - vm.rtt_us.mean() < 10.0);
    }

    #[test]
    fn ping_behaves_like_the_kernel_stack() {
        let (bm, vm) = runs(LatencyTool::Ping);
        let ratio = bm.rtt_us.mean() / vm.rtt_us.mean();
        assert!((0.95..=1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn dpdk_is_far_below_kernel() {
        let (bm_kernel, _) = runs(LatencyTool::SockperfKernel);
        let (bm_dpdk, _) = runs(LatencyTool::Dpdk);
        assert!(bm_dpdk.rtt_us.mean() * 2.0 < bm_kernel.rtt_us.mean());
    }

    #[test]
    fn tool_labels() {
        assert_eq!(LatencyTool::ALL.len(), 3);
        assert_eq!(LatencyTool::Dpdk.label(), "dpdk bypass");
    }
}
