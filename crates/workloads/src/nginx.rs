//! NGINX under Apache Bench: the Fig. 12 experiment.
//!
//! §4.4: "we used the Apache HTTP benchmark to test the NGINX server
//! with the KeepAlive feature disabled. ... When the number of clients
//! increased, bm-guest consistently served about 50% to 60% more
//! requests per second than vm-guest. The average response time per
//! request was about 30% shorter."
//!
//! With KeepAlive off, every request is a fresh TCP connection:
//! three-way handshake, request, response, teardown — ~9 packets of
//! guest I/O plus parsing and file-cache work. That packet count is why
//! NGINX shows the *largest* application gap: the vm-guest pays the
//! interrupt/exit machinery per packet.

use crate::env::GuestEnv;
use bmhive_cpu::CpuWork;
use bmhive_sim::{Series, SimDuration};
use bmhive_telemetry as telemetry;

/// Packets a no-keepalive HTTP request costs the server (SYN, SYN-ACK,
/// ACK, request, response ×2, FIN exchange).
const PACKETS_PER_REQUEST: u32 = 9;

/// NGINX per-request work: parse + worker event loop + response
/// assembly. Mildly memory-bound (connection structures, file cache).
fn request_work() -> CpuWork {
    CpuWork {
        cycles: 110_000.0, // ~44 µs at the reference clock
        mem_refs: 280.0,
        bytes_streamed: 8_192.0, // 8 KiB page served from cache
    }
}

/// The Fig. 12 result for one guest.
#[derive(Debug, Clone)]
pub struct NginxRun {
    /// Guest label.
    pub label: &'static str,
    /// (concurrent clients, requests/second).
    pub rps: Series,
    /// (concurrent clients, mean response time in ms).
    pub response_ms: Series,
}

/// Sweeps ab concurrency levels against one guest's NGINX.
pub fn run_nginx(env: &mut GuestEnv, client_counts: &[u32]) -> NginxRun {
    let per_request = env.request_cpu(&request_work(), PACKETS_PER_REQUEST, 0.0, false);
    // Stack work per packet happens on the server too (it is inside
    // request_work's cycles for payload processing; connection packets
    // cost kernel time each).
    let stack_per_packet = SimDuration::from_micros_f64(2.2);
    let server_time = per_request + stack_per_packet * u64::from(PACKETS_PER_REQUEST);
    let capacity = env.saturated_rps(server_time, env.threads);

    let mut rps = Series::new(env.label);
    let mut response_ms = Series::new(env.label);
    for &clients in client_counts {
        // Closed-loop clients with ~1 network RTT of think/transit time.
        let rtt = env.path.net_oneway(512) * 2 + SimDuration::from_micros(60);
        let per_client_cycle = server_time + rtt;
        let offered = f64::from(clients) / per_client_cycle.as_secs_f64();
        let achieved = offered.min(capacity);
        // Response time: service + queueing when saturated.
        let utilization = (offered / capacity).min(0.999);
        let queue_factor = 1.0 / (1.0 - 0.85 * utilization);
        let response = server_time.as_secs_f64() * queue_factor + rtt.as_secs_f64();
        rps.push(f64::from(clients), achieved);
        response_ms.push(f64::from(clients), response * 1e3);
    }
    telemetry::add_events(client_counts.len() as u64);
    NginxRun {
        label: env.label,
        rps,
        response_ms,
    }
}

/// The client sweep Fig. 12 uses.
pub const CLIENT_SWEEP: [u32; 6] = [50, 100, 200, 400, 700, 1000];

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> (NginxRun, NginxRun) {
        let mut bm = GuestEnv::bm(1);
        let mut vm = GuestEnv::vm(1);
        (
            run_nginx(&mut bm, &CLIENT_SWEEP),
            run_nginx(&mut vm, &CLIENT_SWEEP),
        )
    }

    #[test]
    fn bm_serves_50_to_60_percent_more_at_saturation() {
        let (bm, vm) = both();
        // At the saturated end of the sweep.
        let bm_sat = bm.rps.points().last().unwrap().1;
        let vm_sat = vm.rps.points().last().unwrap().1;
        let ratio = bm_sat / vm_sat;
        assert!((1.45..=1.70).contains(&ratio), "saturated ratio {ratio}");
    }

    #[test]
    fn response_time_is_about_30_percent_shorter() {
        let (bm, vm) = both();
        let ratio = 1.0 - bm.response_ms.mean_y() / vm.response_ms.mean_y();
        assert!(
            (0.18..=0.42).contains(&ratio),
            "response-time reduction {ratio}"
        );
    }

    #[test]
    fn rps_grows_then_saturates() {
        let (bm, _) = both();
        let points = bm.rps.points();
        assert!(points[1].1 > points[0].1);
        let last = points.last().unwrap().1;
        let second_last = points[points.len() - 2].1;
        // Saturated: the last step adds little.
        assert!(last / second_last < 1.2);
    }

    #[test]
    fn absolute_rps_is_plausible_for_32_threads() {
        let (bm, vm) = both();
        let bm_sat = bm.rps.points().last().unwrap().1;
        let vm_sat = vm.rps.points().last().unwrap().1;
        // A 32-HT server without keepalive: low hundreds of thousands.
        assert!((100e3..=500e3).contains(&bm_sat), "bm {bm_sat}");
        assert!((70e3..=400e3).contains(&vm_sat), "vm {vm_sat}");
    }
}
