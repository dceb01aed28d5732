//! netperf: the Fig. 9 PPS experiment and the TCP throughput test.
//!
//! §4.3: two guests of the same kind on one server exchange small UDP
//! packets ("headers + one byte of data") for the PPS figure; two guests
//! on servers joined by a 100 Gbit/s network run 64 TCP connections of
//! 1400-byte segments for throughput. Production limits: 4 M PPS,
//! 10 Gbit/s. The unrestricted variant removes the PPS cap and switches
//! the sender to DPDK, exposing the IO-Bond pipeline's 16 M PPS ceiling.

use crate::env::GuestEnv;
use bmhive_cloud::limits::InstanceLimits;
use bmhive_net::{MacAddr, NetLink, Packet};
use bmhive_sim::{Series, SimTime, Summary};
use bmhive_telemetry as telemetry;

/// Result of a PPS run: per-second achieved rates.
#[derive(Debug, Clone)]
pub struct PpsRun {
    /// Guest label.
    pub label: &'static str,
    /// (second, achieved PPS) samples.
    pub series: Series,
    /// Run statistics.
    pub stats: Summary,
}

/// The Fig. 9 experiment for one guest type: `seconds` one-second
/// samples of achieved small-UDP receive rate under the production PPS
/// cap.
pub fn udp_pps(env: &mut GuestEnv, seconds: u32) -> PpsRun {
    let cap = InstanceLimits::production()
        .pps_limit()
        .expect("production cap");
    // Pipeline rate: the kernel-stack sender is the bottleneck; the
    // limiter would cut in at 4 M.
    let pipeline = env.path.max_pps_kernel();
    let mut series = Series::new(env.label);
    let mut stats = Summary::new();
    let mut events = 0u64;
    for s in 0..seconds {
        let offered = env.path.sample_pps(pipeline).min(cap);
        // The receiver counts in thousands of packets, one simulated
        // event per thousand.
        let thousands = (offered / 1000.0) as u32;
        events += u64::from(thousands);
        let achieved = (f64::from(thousands) * 1000.0).min(offered);
        series.push(f64::from(s), achieved);
        stats.record(achieved);
    }
    telemetry::add_events(events);
    PpsRun {
        label: env.label,
        series,
        stats,
    }
}

/// The unrestricted PPS measurement (§4.3: "BM-Hive can achieve 16M
/// PPS"): DPDK sender, no caps.
pub fn udp_pps_unrestricted(env: &mut GuestEnv, seconds: u32) -> PpsRun {
    let pipeline = env.path.max_pps_dpdk();
    let mut series = Series::new(env.label);
    let mut stats = Summary::new();
    for s in 0..seconds {
        let achieved = env.path.sample_pps(pipeline);
        series.push(f64::from(s), achieved);
        stats.record(achieved);
    }
    telemetry::add_events(u64::from(seconds));
    PpsRun {
        label: env.label,
        series,
        stats,
    }
}

/// The TCP throughput test: 64 connections of 1400-byte segments across
/// the 100 Gbit/s fabric, under the 10 Gbit/s instance cap. Returns
/// achieved Gbit/s.
pub fn tcp_throughput(env: &mut GuestEnv) -> f64 {
    let mut limits = InstanceLimits::production();
    let mut link = NetLink::datacenter_100g();
    let packet = Packet::netperf_tcp_1400(MacAddr::for_guest(1), MacAddr::for_guest(2), 0);
    let wire = packet.wire_bytes();
    // The guest pipeline could push far more than 10 Gbit/s of 1400-byte
    // segments; the bandwidth cap binds. Simulate 50 ms of admission.
    let mut t = SimTime::ZERO;
    let mut sent_bytes = 0u64;
    let mut segments = 0u64;
    let horizon = SimTime::from_millis(250);
    while t < horizon {
        let admitted = limits.admit_packet(wire, t);
        let arrival = link.transmit(&packet, admitted);
        sent_bytes += u64::from(wire);
        segments += 1;
        // 64 connections keep the pipe full: next segment is ready
        // immediately after admission.
        t = admitted.max(arrival.min(admitted + bmhive_sim::SimDuration::from_nanos(1)));
        // Tiny platform-dependent inter-segment gap (TSO refill).
        t += env
            .path
            .net_oneway(0)
            .min(bmhive_sim::SimDuration::from_nanos(200));
    }
    telemetry::add_events(segments);
    sent_bytes as f64 * 8.0 / t.as_secs_f64() / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_guests_exceed_3_2m_pps_under_the_cap() {
        let mut bm = GuestEnv::bm(1);
        let mut vm = GuestEnv::vm(1);
        let bm_run = udp_pps(&mut bm, 10);
        let vm_run = udp_pps(&mut vm, 10);
        assert!(bm_run.stats.mean() > 3.2e6, "bm {}", bm_run.stats.mean());
        assert!(vm_run.stats.mean() > 3.2e6, "vm {}", vm_run.stats.mean());
        // Nobody exceeds the cap.
        assert!(bm_run.stats.max() <= 4.0e6 * 1.001);
        assert!(vm_run.stats.max() <= 4.0e6 * 1.001);
    }

    #[test]
    fn vm_is_slightly_ahead_with_less_jitter() {
        let mut bm = GuestEnv::bm(2);
        let mut vm = GuestEnv::vm(2);
        let bm_run = udp_pps(&mut bm, 30);
        let vm_run = udp_pps(&mut vm, 30);
        assert!(
            vm_run.stats.mean() > bm_run.stats.mean(),
            "vm {} vs bm {}",
            vm_run.stats.mean(),
            bm_run.stats.mean()
        );
        // ... but only slightly (within ~10%).
        assert!(vm_run.stats.mean() / bm_run.stats.mean() < 1.10);
        assert!(
            vm_run.stats.cv() < bm_run.stats.cv(),
            "vm cv {} bm cv {}",
            vm_run.stats.cv(),
            bm_run.stats.cv()
        );
    }

    #[test]
    fn unrestricted_bm_hits_16m_pps() {
        let mut bm = GuestEnv::bm(3);
        let run = udp_pps_unrestricted(&mut bm, 10);
        assert!(
            (14e6..=18e6).contains(&run.stats.mean()),
            "unrestricted bm {}",
            run.stats.mean()
        );
    }

    #[test]
    fn tcp_throughput_saturates_the_10g_cap() {
        let mut bm = GuestEnv::bm(4);
        let mut vm = GuestEnv::vm(4);
        let bm_gbps = tcp_throughput(&mut bm);
        let vm_gbps = tcp_throughput(&mut vm);
        // The paper: 9.6 and 9.59 Gbit/s — both within a whisker of the
        // cap.
        assert!((9.2..=10.2).contains(&bm_gbps), "bm {bm_gbps}");
        assert!((9.2..=10.2).contains(&vm_gbps), "vm {vm_gbps}");
        assert!((bm_gbps - vm_gbps).abs() < 0.4);
    }

    #[test]
    fn pps_runs_are_deterministic() {
        let run = |seed| {
            let mut env = GuestEnv::bm(seed);
            udp_pps(&mut env, 5).stats.mean()
        };
        assert_eq!(run(9), run(9));
    }
}
