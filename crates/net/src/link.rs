//! Physical link timing.

use crate::packet::Packet;
use bmhive_sim::{Resource, SimDuration, SimTime};

/// A physical network link: serialization at a fixed bandwidth plus
/// propagation delay, with FCFS queueing at the transmitter.
///
/// # Example
///
/// ```
/// use bmhive_net::NetLink;
/// use bmhive_sim::SimDuration;
///
/// // The server's shared 100 Gbit/s NIC (§3.4.3) with intra-datacenter
/// // propagation.
/// let mut link = NetLink::datacenter_100g();
/// assert_eq!(link.bandwidth_gbps(), 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct NetLink {
    bandwidth_gbps: f64,
    propagation: SimDuration,
    tx: Resource,
}

impl NetLink {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_gbps` is not positive and finite.
    pub fn new(bandwidth_gbps: f64, propagation: SimDuration) -> Self {
        assert!(
            bandwidth_gbps > 0.0 && bandwidth_gbps.is_finite(),
            "NetLink: bandwidth must be positive"
        );
        NetLink {
            bandwidth_gbps,
            propagation,
            tx: Resource::new(),
        }
    }

    /// The datacenter fabric: 100 Gbit/s, ~20 µs propagation + switching
    /// between two servers (the §4.3 inter-server setup).
    pub fn datacenter_100g() -> Self {
        NetLink::new(100.0, SimDuration::from_micros(20))
    }

    /// Link bandwidth in Gbit/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bandwidth_gbps
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> SimDuration {
        self.propagation
    }

    /// Serialization time for `bytes` on the wire.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        SimDuration::from_secs_f64(f64::from(bytes) * 8.0 / (self.bandwidth_gbps * 1e9))
    }

    /// Transmits a packet at `now`: queues behind earlier transmissions,
    /// serializes, propagates. Returns the arrival time at the far end.
    pub fn transmit(&mut self, packet: &Packet, now: SimTime) -> SimTime {
        let served = self.tx.serve(now, self.serialization(packet.wire_bytes()));
        served.end + self.propagation
    }

    /// Total bytes-per-second capacity.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bandwidth_gbps * 1e9 / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{MacAddr, PacketKind};

    /// The maximum packet rate for `wire_bytes` frames, packets/second.
    fn max_pps(link: &NetLink, wire_bytes: u32) -> f64 {
        1.0 / link.serialization(wire_bytes).as_secs_f64()
    }

    fn pkt(payload: u32) -> Packet {
        Packet::new(
            MacAddr::for_guest(1),
            MacAddr::for_guest(2),
            PacketKind::Udp,
            payload,
            0,
        )
    }

    #[test]
    fn serialization_scales_with_size() {
        let link = NetLink::new(10.0, SimDuration::ZERO);
        // 1250 bytes at 10 Gbit/s = 1 µs.
        assert_eq!(link.serialization(1250), SimDuration::from_micros(1));
    }

    #[test]
    fn transmit_queues_behind_earlier_frames() {
        let mut link = NetLink::new(10.0, SimDuration::from_micros(5));
        let p = pkt(1250 - 42);
        let first = link.transmit(&p, SimTime::ZERO);
        let second = link.transmit(&p, SimTime::ZERO);
        assert_eq!(first, SimTime::from_micros(6)); // 1 µs ser + 5 µs prop
        assert_eq!(second, SimTime::from_micros(7)); // queued 1 µs
    }

    #[test]
    fn datacenter_link_saturates_at_100g() {
        let link = NetLink::datacenter_100g();
        // 1454-byte frames: 100 Gbit/s / (1454 × 8) ≈ 8.6 M PPS.
        let pps = max_pps(&link, 1454);
        assert!((8.0e6..9.2e6).contains(&pps), "pps {pps}");
        assert!((link.bytes_per_sec() - 12.5e9).abs() < 1.0);
    }

    #[test]
    fn small_frame_rate_exceeds_16m_pps() {
        // The fabric itself is never the PPS bottleneck in Fig. 9 — the
        // guest path is.
        let link = NetLink::datacenter_100g();
        assert!(max_pps(&link, 64) > 100e6);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        NetLink::new(0.0, SimDuration::ZERO);
    }
}
