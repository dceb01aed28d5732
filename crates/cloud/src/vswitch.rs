//! The DPDK-style poll-mode vSwitch.
//!
//! Runs on the base server's CPU ("the base CPU has sufficient number of
//! CPU cores to handle all the I/O requests from the bm-guests", §3.3).
//! Forwarding is MAC-learned between local guest ports; unknown
//! destinations go to the server uplink. Per-packet cost is charged on a
//! pool of PMD cores, which is where backend saturation (and the Fig. 9
//! PPS ceiling) comes from.

use bmhive_faults::{self as faults, FaultSite};
use bmhive_net::{MacAddr, Packet};
use bmhive_sim::{MultiResource, SimDuration, SimTime};
use bmhive_telemetry as telemetry;
use std::collections::HashMap;

/// A vSwitch port handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub u32);

/// Where the switch sent a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forwarded {
    /// Delivered to a local guest port at the given time.
    Local(PortId, SimTime),
    /// Sent to the server uplink (physical network) at the given time.
    Uplink(SimTime),
    /// Shed at ingress: a brownout backlog exceeded
    /// [`VSwitch::SHED_THRESHOLD`].
    Dropped,
}

/// The poll-mode software switch.
#[derive(Debug)]
pub struct VSwitch {
    macs: HashMap<MacAddr, PortId>,
    pmd: MultiResource,
    /// Frames delivered to each local port and not yet acknowledged by
    /// [`Self::complete`] — the per-port queue depth the dispatch
    /// policies read. Dense, indexed by `PortId.0`: ports are small
    /// consecutive ids, and the dispatch policies probe every port once
    /// per arrival, so an indexed read beats a hash per probe.
    depths: Vec<u64>,
    peak_depth: u64,
    doorbells_rung: u64,
    doorbells_suppressed: u64,
}

impl VSwitch {
    /// Per-packet PMD forwarding cost (DPDK l2fwd-class switching plus
    /// the customised cloud overlay lookup).
    pub const PER_PACKET: SimDuration = SimDuration::from_nanos(300);

    /// During a brownout the switch sheds load instead of queueing
    /// without bound: frames that would wait longer than this for a
    /// PMD core are dropped at ingress.
    pub const SHED_THRESHOLD: SimDuration = SimDuration::from_micros(10);

    /// Creates a switch served by `pmd_cores` poll-mode cores.
    ///
    /// # Panics
    ///
    /// Panics if `pmd_cores` is zero.
    pub fn new(pmd_cores: usize) -> Self {
        VSwitch {
            macs: HashMap::new(),
            pmd: MultiResource::new(pmd_cores),
            depths: Vec::new(),
            peak_depth: 0,
            doorbells_rung: 0,
            doorbells_suppressed: 0,
        }
    }

    /// Attaches a guest port with its MAC.
    pub fn attach(&mut self, mac: MacAddr, port: PortId) {
        self.macs.insert(mac, port);
    }

    /// Detaches a port (guest power-off).
    pub fn detach(&mut self, mac: MacAddr) {
        self.macs.remove(&mac);
    }

    /// Forwards one frame arriving at the switch at `now`.
    ///
    /// Under an armed [`bmhive_faults`] plan a vSwitch brownout
    /// multiplies the per-packet cost; if the PMD backlog then exceeds
    /// [`Self::SHED_THRESHOLD`] the frame is shed (graceful
    /// degradation) rather than queued behind the slowdown.
    pub fn forward(&mut self, packet: &Packet, now: SimTime) -> Forwarded {
        let mut per_packet = Self::PER_PACKET;
        if faults::is_armed() {
            let factor = faults::latency_factor(FaultSite::VSwitch, now);
            if factor > 1.0 {
                per_packet = per_packet.mul_f64(factor);
            }
        }
        if per_packet > Self::PER_PACKET {
            faults::note_degraded(FaultSite::VSwitch, per_packet - Self::PER_PACKET);
            let backlog = self.pmd.next_free().saturating_duration_since(now);
            if backlog > Self::SHED_THRESHOLD {
                faults::note_shed(FaultSite::VSwitch);
                if telemetry::is_enabled() {
                    telemetry::counter("vswitch.shed", 1);
                }
                return Forwarded::Dropped;
            }
        }
        let served = self.pmd.serve(now, per_packet);
        if telemetry::is_enabled() {
            // Queueing (waiting for a free PMD core) and service are
            // separated so the attribution can tell saturation from
            // per-packet cost.
            telemetry::span("vswitch", "queue_wait", now, served.queue_delay(now));
            telemetry::span(
                "vswitch",
                "service",
                served.start,
                served.end.saturating_duration_since(served.start),
            );
            telemetry::counter("vswitch.forwarded", 1);
            telemetry::timer("vswitch.sojourn", served.sojourn(now));
            telemetry::gauge("vswitch.pmd_busy_secs", self.pmd.busy_time().as_secs_f64());
        }
        match self.macs.get(&packet.dst) {
            Some(&port) => {
                let idx = port.0 as usize;
                if idx >= self.depths.len() {
                    self.depths.resize(idx + 1, 0);
                }
                let before = self.depths[idx];
                // A doorbell exists only to wake an idle poller. If the
                // destination ring already holds un-reaped frames (the
                // PMD revisits it on the scan it is committed to) or
                // the frame queued behind busy PMD cores (the poller is
                // provably mid-scan), the notify is coalesced away —
                // the polling backend was going to see the descriptor
                // anyway.
                if before > 0 || served.start > now {
                    self.doorbells_suppressed += 1;
                    if telemetry::is_enabled() {
                        telemetry::counter("vswitch.doorbells_suppressed", 1);
                    }
                } else {
                    self.doorbells_rung += 1;
                    if telemetry::is_enabled() {
                        telemetry::counter("vswitch.doorbells_rung", 1);
                    }
                }
                let depth = before + 1;
                self.depths[idx] = depth;
                if depth > self.peak_depth {
                    self.peak_depth = depth;
                    if telemetry::is_enabled() {
                        telemetry::gauge_max("vswitch.peak_port_depth", self.peak_depth as f64);
                    }
                }
                Forwarded::Local(port, served.end)
            }
            // Broadcast and unknown unicast go to the uplink toward the
            // overlay.
            None => Forwarded::Uplink(served.end),
        }
    }

    /// Frames delivered to `port` and not yet completed — the cheap
    /// queue-depth probe the least-loaded and power-of-two-choices
    /// dispatch policies read per arrival.
    pub fn queue_depth(&self, port: PortId) -> u64 {
        self.depths.get(port.0 as usize).copied().unwrap_or(0)
    }

    /// Acknowledges one delivered frame on `port` (the guest finished
    /// serving the request it carried, or the request was cancelled),
    /// decrementing its queue depth.
    pub fn complete(&mut self, port: PortId) {
        if let Some(depth) = self.depths.get_mut(port.0 as usize) {
            *depth = depth.saturating_sub(1);
        }
    }

    /// High-water mark of any single port's queue depth.
    pub fn peak_port_depth(&self) -> u64 {
        self.peak_depth
    }

    /// Doorbells actually rung: local deliveries that found the
    /// destination ring empty and every PMD core idle, so a notify was
    /// needed to wake the poller.
    pub fn doorbells_rung(&self) -> u64 {
        self.doorbells_rung
    }

    /// Doorbells coalesced away: local deliveries that landed while the
    /// poller was mid-scan (ring non-empty or PMD cores busy), where a
    /// notify would have been pure overhead.
    pub fn doorbells_suppressed(&self) -> u64 {
        self.doorbells_suppressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_net::PacketKind;

    fn pkt(src: u32, dst: u32) -> Packet {
        Packet::new(
            MacAddr::for_guest(src),
            MacAddr::for_guest(dst),
            PacketKind::Udp,
            64,
            0,
        )
    }

    #[test]
    fn local_forwarding_between_attached_guests() {
        let mut sw = VSwitch::new(4);
        sw.attach(MacAddr::for_guest(1), PortId(1));
        sw.attach(MacAddr::for_guest(2), PortId(2));
        match sw.forward(&pkt(1, 2), SimTime::ZERO) {
            Forwarded::Local(port, at) => {
                assert_eq!(port, PortId(2));
                assert_eq!(at, SimTime::ZERO + VSwitch::PER_PACKET);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_destination_goes_to_uplink() {
        let mut sw = VSwitch::new(2);
        sw.attach(MacAddr::for_guest(1), PortId(1));
        assert!(matches!(
            sw.forward(&pkt(1, 99), SimTime::ZERO),
            Forwarded::Uplink(_)
        ));
    }

    #[test]
    fn detach_removes_route() {
        let mut sw = VSwitch::new(2);
        sw.attach(MacAddr::for_guest(2), PortId(2));
        assert!(matches!(
            sw.forward(&pkt(1, 2), SimTime::ZERO),
            Forwarded::Local(..)
        ));
        sw.detach(MacAddr::for_guest(2));
        assert!(matches!(
            sw.forward(&pkt(1, 2), SimTime::ZERO),
            Forwarded::Uplink(_)
        ));
        assert!(sw.macs.is_empty());
    }

    #[test]
    fn pmd_cores_bound_throughput() {
        // Saturation: 10 000 frames arriving within 1 ms on one core
        // wait behind each other.
        let mut sw = VSwitch::new(1);
        let n = 10_000u64;
        let mut last = SimTime::ZERO;
        for i in 0..n {
            // All arrive within the first millisecond.
            let at = SimTime::from_nanos(i * 100);
            if let Forwarded::Uplink(done) = sw.forward(&pkt(1, 99), at) {
                last = done;
            }
        }
        // 10 000 × 300 ns = 3 ms of work on one core.
        assert!(last >= SimTime::from_millis(3));
    }

    #[test]
    fn brownout_slows_forwarding_and_sheds_backlog() {
        let plan = faults::canned("backend-brownout").unwrap();
        faults::arm(plan, 77);
        // Inside the vSwitch brownout window (200–500 µs, ×6): the
        // per-packet cost inflates from 300 ns to 1.8 µs.
        let mut sw = VSwitch::new(1);
        sw.attach(MacAddr::for_guest(2), PortId(2));
        let at = SimTime::from_micros(210);
        match sw.forward(&pkt(1, 2), at) {
            Forwarded::Local(_, done) => {
                assert_eq!(done, at + VSwitch::PER_PACKET.mul_f64(6.0));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Hammering one PMD core at a single instant builds backlog
        // past the shed threshold; the tail of the burst is dropped.
        let mut shed = 0;
        for _ in 0..12 {
            if matches!(sw.forward(&pkt(1, 2), at), Forwarded::Dropped) {
                shed += 1;
            }
        }
        assert!(shed >= 1, "expected shedding under brownout backlog");
        let stats = faults::disarm().expect("stats");
        assert!(stats.site(FaultSite::VSwitch).shed >= shed);
        assert!(stats.injected_total() > 0);
    }

    #[test]
    fn outside_brownout_window_behaviour_is_identical() {
        let plan = faults::canned("backend-brownout").unwrap();
        faults::arm(plan, 77);
        let mut sw = VSwitch::new(1);
        sw.attach(MacAddr::for_guest(2), PortId(2));
        // 50 µs is before the 200 µs brownout onset: stock cost.
        match sw.forward(&pkt(1, 2), SimTime::from_micros(50)) {
            Forwarded::Local(_, done) => {
                assert_eq!(done, SimTime::from_micros(50) + VSwitch::PER_PACKET);
            }
            other => panic!("unexpected {other:?}"),
        }
        faults::disarm();
    }

    #[test]
    fn queue_depth_tracks_deliveries_and_completions() {
        let mut sw = VSwitch::new(2);
        sw.attach(MacAddr::for_guest(2), PortId(2));
        assert_eq!(sw.queue_depth(PortId(2)), 0);
        for i in 0..3u64 {
            sw.forward(&pkt(1, 2), SimTime::from_micros(i));
        }
        assert_eq!(sw.queue_depth(PortId(2)), 3);
        assert_eq!(sw.peak_port_depth(), 3);
        sw.complete(PortId(2));
        sw.complete(PortId(2));
        assert_eq!(sw.queue_depth(PortId(2)), 1);
        // Uplink frames never enter a port queue; completes saturate.
        sw.forward(&pkt(1, 99), SimTime::from_micros(10));
        assert_eq!(sw.queue_depth(PortId(99)), 0);
        sw.complete(PortId(2));
        sw.complete(PortId(2));
        assert_eq!(sw.queue_depth(PortId(2)), 0);
        assert_eq!(sw.peak_port_depth(), 3, "peak is a high-water mark");
    }

    #[test]
    fn doorbells_ring_only_for_an_idle_poller() {
        let mut sw = VSwitch::new(1);
        sw.attach(MacAddr::for_guest(2), PortId(2));
        // First frame: ring empty, PMD idle — the doorbell rings.
        sw.forward(&pkt(1, 2), SimTime::ZERO);
        assert_eq!(sw.doorbells_rung(), 1);
        assert_eq!(sw.doorbells_suppressed(), 0);
        // Same instant: the ring is non-empty and the core is still
        // serving frame one — both suppression conditions hold.
        sw.forward(&pkt(1, 2), SimTime::ZERO);
        assert_eq!(sw.doorbells_suppressed(), 1);
        // Long after the PMD drained and the guest reaped both frames:
        // an idle poller needs waking again.
        sw.complete(PortId(2));
        sw.complete(PortId(2));
        sw.forward(&pkt(1, 2), SimTime::from_millis(1));
        assert_eq!(sw.doorbells_rung(), 2);
        // Un-reaped ring: suppressed even with the PMD idle — the scan
        // that will collect the pending frame sees this one too.
        sw.forward(&pkt(1, 2), SimTime::from_millis(2));
        assert_eq!(sw.doorbells_suppressed(), 2);
        // Uplink frames never target a polled guest ring.
        let rung = sw.doorbells_rung();
        sw.forward(&pkt(1, 99), SimTime::from_millis(3));
        assert_eq!(sw.doorbells_rung(), rung);
    }

    #[test]
    fn broadcast_floods_to_uplink() {
        let mut sw = VSwitch::new(1);
        let p = Packet::new(
            MacAddr::for_guest(1),
            MacAddr([0xff; 6]),
            PacketKind::Udp,
            64,
            0,
        );
        assert!(matches!(
            sw.forward(&p, SimTime::ZERO),
            Forwarded::Uplink(_)
        ));
    }
}
