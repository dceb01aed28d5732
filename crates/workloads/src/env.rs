//! The guest environment an application workload runs in.
//!
//! §4.1: both guests are Xeon E5-2682 v4 with 64 GB, the same CentOS
//! image, and the same rate limits — the only differences are the
//! platform (compute board vs. KVM) and the I/O path (IO-Bond vs.
//! vhost). [`GuestEnv`] bundles exactly those two models plus the
//! per-packet CPU overheads that virtualization adds on the vm side.

use bmhive_cpu::catalog::XEON_E5_2682_V4;
use bmhive_cpu::{CpuWork, Platform};
use bmhive_hypervisor::IoPath;
use bmhive_iobond::IoBondProfile;
use bmhive_sim::{SimDuration, SimRng};

/// One application guest: CPU platform + I/O path + interrupt costs.
#[derive(Debug, Clone)]
pub struct GuestEnv {
    /// The CPU/memory platform.
    pub cpu: Platform,
    /// The guest↔backend I/O path.
    pub path: IoPath,
    /// Hardware threads available to the application.
    pub threads: u32,
    /// Guest CPU consumed per packet by the platform's I/O machinery,
    /// when packets arrive one at a time (interrupt per packet): the
    /// vm-guest pays exit + injection + extra softirq work; the bm-guest
    /// pays an MSI handler and an MMIO doorbell.
    pub pkt_virt_cpu: SimDuration,
    /// The same, under heavy load where NAPI/irq coalescing batches
    /// packets.
    pub pkt_virt_cpu_batched: SimDuration,
    /// Guest CPU consumed per storage operation by the platform (copies
    /// and exits on the vm; doorbells on the bm).
    pub io_virt_cpu: SimDuration,
    /// Workload RNG.
    pub rng: SimRng,
    /// `"bm-guest"` or `"vm-guest"`.
    pub label: &'static str,
}

impl GuestEnv {
    /// The evaluation bm-guest.
    pub fn bm(seed: u64) -> Self {
        GuestEnv {
            cpu: Platform::bm_guest(XEON_E5_2682_V4),
            path: IoPath::bm(IoBondProfile::fpga(), seed),
            threads: XEON_E5_2682_V4.threads,
            pkt_virt_cpu: SimDuration::from_nanos(700),
            pkt_virt_cpu_batched: SimDuration::from_nanos(350),
            io_virt_cpu: SimDuration::from_micros(1),
            rng: SimRng::with_stream(seed, 0x626d),
            label: "bm-guest",
        }
    }

    /// The evaluation vm-guest (pinned/exclusive, as §4.2 configures).
    pub fn vm(seed: u64) -> Self {
        GuestEnv {
            cpu: Platform::vm_guest(XEON_E5_2682_V4),
            path: IoPath::vm(seed),
            threads: XEON_E5_2682_V4.threads,
            // Exit + injection + vhost copy + softirq-in-guest: ~5.5 µs
            // per un-coalesced packet; irq coalescing under load cuts it
            // to ~1.3 µs.
            pkt_virt_cpu: SimDuration::from_micros_f64(5.5),
            pkt_virt_cpu_batched: SimDuration::from_micros_f64(1.3),
            // Two copies + kick exit + completion handling.
            io_virt_cpu: SimDuration::from_micros(9),
            rng: SimRng::with_stream(seed, 0x766d),
            label: "vm-guest",
        }
    }

    /// CPU time one request costs, given its compute work, packet count,
    /// and storage-op count, with `batched` interrupt amortisation.
    pub fn request_cpu(
        &self,
        work: &CpuWork,
        packets: u32,
        storage_ops: f64,
        batched: bool,
    ) -> SimDuration {
        self.request_cpu_on(&self.cpu, work, packets, storage_ops, batched)
    }

    /// Like [`request_cpu`](Self::request_cpu) but on an explicit
    /// platform (e.g. one adjusted by [`Platform::with_exit_rate`]).
    pub fn request_cpu_on(
        &self,
        platform: &Platform,
        work: &CpuWork,
        packets: u32,
        storage_ops: f64,
        batched: bool,
    ) -> SimDuration {
        let base = platform.execute(work);
        let pkt = if batched {
            self.pkt_virt_cpu_batched
        } else {
            self.pkt_virt_cpu
        };
        base + pkt * u64::from(packets)
            + SimDuration::from_secs_f64(self.io_virt_cpu.as_secs_f64() * storage_ops)
    }

    /// Saturated server throughput (requests/second) when `server_threads`
    /// threads each spend `per_request` of CPU per request.
    pub fn saturated_rps(&self, per_request: SimDuration, server_threads: u32) -> f64 {
        f64::from(server_threads) / per_request.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_guests_have_32_threads() {
        assert_eq!(GuestEnv::bm(1).threads, 32);
        assert_eq!(GuestEnv::vm(1).threads, 32);
    }

    #[test]
    fn vm_per_packet_cpu_dwarfs_bm() {
        let bm = GuestEnv::bm(1);
        let vm = GuestEnv::vm(1);
        assert!(vm.pkt_virt_cpu.as_nanos() > 5 * bm.pkt_virt_cpu.as_nanos());
        assert!(vm.pkt_virt_cpu_batched > bm.pkt_virt_cpu_batched);
        assert!(vm.io_virt_cpu > bm.io_virt_cpu);
    }

    #[test]
    fn request_cpu_composes_all_parts() {
        let env = GuestEnv::vm(1);
        let work = CpuWork::compute(2.5e4); // 10 µs at reference
        let none = env.request_cpu(&work, 0, 0.0, false);
        let with_pkts = env.request_cpu(&work, 2, 0.0, false);
        let with_io = env.request_cpu(&work, 2, 1.0, false);
        assert!(with_pkts > none);
        assert!(with_io > with_pkts);
        assert_eq!(with_pkts - none, env.pkt_virt_cpu * 2);
    }

    #[test]
    fn batching_reduces_packet_cost() {
        let env = GuestEnv::vm(1);
        let work = CpuWork::compute(1e3);
        assert!(env.request_cpu(&work, 4, 0.0, true) < env.request_cpu(&work, 4, 0.0, false));
    }

    #[test]
    fn saturated_rps_scales_with_threads() {
        let env = GuestEnv::bm(1);
        let rps32 = env.saturated_rps(SimDuration::from_micros(100), 32);
        let rps1 = env.saturated_rps(SimDuration::from_micros(100), 1);
        assert!((rps32 / rps1 - 32.0).abs() < 1e-9);
        assert!((rps1 - 10_000.0).abs() < 1.0);
    }
}
