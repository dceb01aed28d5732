//! Frames and addresses.

use core::fmt;

/// An Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The locally-administered address the cloud assigns to guest `n`.
    pub fn for_guest(n: u32) -> Self {
        let b = n.to_be_bytes();
        MacAddr([0x52, 0x54, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// Protocol carried by a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// UDP datagram.
    Udp,
    /// TCP segment.
    Tcp,
    /// ICMP echo (ping).
    Icmp,
}

/// One frame in flight. Payload contents are synthesised on demand (the
/// throughput experiments move millions of frames; carrying bytes for
/// each would be waste), but lengths are exact so every bandwidth and
/// PPS computation is faithful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Source MAC.
    pub src: MacAddr,
    /// Destination MAC.
    pub dst: MacAddr,
    /// Protocol.
    pub kind: PacketKind,
    /// Application payload bytes (excluding headers).
    pub payload: u32,
    /// Flow-local sequence number.
    pub seq: u64,
}

/// Ethernet + IP + transport header overhead, bytes.
const ETH_IP_UDP_HEADERS: u32 = 14 + 20 + 8;
const ETH_IP_TCP_HEADERS: u32 = 14 + 20 + 20;
const ETH_IP_ICMP_HEADERS: u32 = 14 + 20 + 8;
/// Minimum Ethernet frame size.
const MIN_FRAME: u32 = 64;

impl Packet {
    /// Creates a frame.
    pub fn new(src: MacAddr, dst: MacAddr, kind: PacketKind, payload: u32, seq: u64) -> Self {
        Packet {
            src,
            dst,
            kind,
            payload,
            seq,
        }
    }

    /// Bytes on the wire, headers included, padded to the Ethernet
    /// minimum.
    pub fn wire_bytes(&self) -> u32 {
        let headers = match self.kind {
            PacketKind::Udp => ETH_IP_UDP_HEADERS,
            PacketKind::Tcp => ETH_IP_TCP_HEADERS,
            PacketKind::Icmp => ETH_IP_ICMP_HEADERS,
        };
        (self.payload + headers).max(MIN_FRAME)
    }

    /// The throughput test's segment: "each TCP packet was 1400Bytes".
    pub fn netperf_tcp_1400(src: MacAddr, dst: MacAddr, seq: u64) -> Self {
        Packet::new(src, dst, PacketKind::Tcp, 1400, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_macs_are_unique_and_local() {
        let a = MacAddr::for_guest(1);
        let b = MacAddr::for_guest(2);
        assert_ne!(a, b);
        assert_eq!(a.0[0], 0x52);
        assert_eq!(a.to_string(), "52:54:00:00:00:01");
    }

    #[test]
    fn small_udp_is_minimum_frame() {
        // netperf's small-UDP probe (§4.3): "headers + one byte of data".
        let p = Packet::new(
            MacAddr::for_guest(1),
            MacAddr::for_guest(2),
            PacketKind::Udp,
            1,
            0,
        );
        assert_eq!(p.wire_bytes(), 64); // 43 bytes padded to minimum
    }

    #[test]
    fn tcp_1400_wire_size() {
        let p = Packet::netperf_tcp_1400(MacAddr::for_guest(1), MacAddr::for_guest(2), 0);
        assert_eq!(p.wire_bytes(), 1400 + 54);
    }

    #[test]
    fn icmp_ping_is_minimum_frame() {
        let p = Packet::new(
            MacAddr::for_guest(1),
            MacAddr::for_guest(2),
            PacketKind::Icmp,
            8,
            0,
        );
        assert_eq!(p.wire_bytes(), 64);
    }

    #[test]
    fn wire_bytes_monotone_in_payload() {
        let mk = |payload| {
            Packet::new(
                MacAddr::for_guest(1),
                MacAddr::for_guest(2),
                PacketKind::Udp,
                payload,
                0,
            )
            .wire_bytes()
        };
        assert!(mk(4096) > mk(1500));
        assert!(mk(1500) > mk(100));
        assert_eq!(mk(0), 64);
    }
}
