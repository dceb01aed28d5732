//! virtio-net wire format.
//!
//! Every packet on a virtio-net queue is prefixed by a 12-byte header
//! (virtio 1.1 §5.1.6). BM-Hive's fast path negotiates no offloads — the
//! DPDK vSwitch handles checksums downstream — so the header is usually
//! all zeroes with `num_buffers = 1`, but the format is implemented in
//! full so the same frames parse on the vm-guest path.

/// Length of the virtio-net header with the mergeable-buffers field.
pub const VIRTIO_NET_HDR_LEN: u64 = 12;

/// The per-packet virtio-net header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VirtioNetHeader {
    /// Offload flags (VIRTIO_NET_HDR_F_*).
    pub flags: u8,
    /// GSO type (VIRTIO_NET_HDR_GSO_*).
    pub gso_type: u8,
    /// Header length for GSO.
    pub hdr_len: u16,
    /// GSO segment size.
    pub gso_size: u16,
    /// Checksum start offset.
    pub csum_start: u16,
    /// Checksum offset from start.
    pub csum_offset: u16,
    /// Number of merged rx buffers (1 when not merging).
    pub num_buffers: u16,
}

impl VirtioNetHeader {
    /// A header for a simple, non-offloaded packet.
    pub fn simple() -> Self {
        VirtioNetHeader {
            num_buffers: 1,
            ..Default::default()
        }
    }

    /// Serialises to the 12-byte wire format.
    pub fn to_bytes(&self) -> [u8; VIRTIO_NET_HDR_LEN as usize] {
        let mut out = [0u8; VIRTIO_NET_HDR_LEN as usize];
        out[0] = self.flags;
        out[1] = self.gso_type;
        out[2..4].copy_from_slice(&self.hdr_len.to_le_bytes());
        out[4..6].copy_from_slice(&self.gso_size.to_le_bytes());
        out[6..8].copy_from_slice(&self.csum_start.to_le_bytes());
        out[8..10].copy_from_slice(&self.csum_offset.to_le_bytes());
        out[10..12].copy_from_slice(&self.num_buffers.to_le_bytes());
        out
    }

    /// Parses from the wire format.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than [`VIRTIO_NET_HDR_LEN`].
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() >= VIRTIO_NET_HDR_LEN as usize,
            "virtio-net header too short"
        );
        VirtioNetHeader {
            flags: bytes[0],
            gso_type: bytes[1],
            hdr_len: u16::from_le_bytes([bytes[2], bytes[3]]),
            gso_size: u16::from_le_bytes([bytes[4], bytes[5]]),
            csum_start: u16::from_le_bytes([bytes[6], bytes[7]]),
            csum_offset: u16::from_le_bytes([bytes[8], bytes[9]]),
            num_buffers: u16::from_le_bytes([bytes[10], bytes[11]]),
        }
    }
}

/// virtio-net device configuration space (the region behind the
/// DEVICE_CFG capability).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// MAC address.
    pub mac: [u8; 6],
    /// Link status (bit 0: link up).
    pub status: u16,
    /// Maximum rx/tx queue pairs.
    pub max_virtqueue_pairs: u16,
    /// MTU advertised to the guest.
    pub mtu: u16,
}

impl NetConfig {
    /// A config with the given MAC, link up, one queue pair, 1500 MTU.
    pub fn with_mac(mac: [u8; 6]) -> Self {
        NetConfig {
            mac,
            status: 1,
            max_virtqueue_pairs: 1,
            mtu: 1500,
        }
    }

    /// Serialises to the device-config wire layout.
    pub fn to_bytes(&self) -> [u8; 12] {
        let mut out = [0u8; 12];
        out[0..6].copy_from_slice(&self.mac);
        out[6..8].copy_from_slice(&self.status.to_le_bytes());
        out[8..10].copy_from_slice(&self.max_virtqueue_pairs.to_le_bytes());
        out[10..12].copy_from_slice(&self.mtu.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let hdr = VirtioNetHeader {
            flags: 1,
            gso_type: 3,
            hdr_len: 54,
            gso_size: 1448,
            csum_start: 34,
            csum_offset: 16,
            num_buffers: 2,
        };
        assert_eq!(VirtioNetHeader::from_bytes(&hdr.to_bytes()), hdr);
    }

    #[test]
    fn simple_header_is_mostly_zero() {
        let hdr = VirtioNetHeader::simple();
        let bytes = hdr.to_bytes();
        assert_eq!(&bytes[..10], &[0u8; 10]);
        assert_eq!(hdr.num_buffers, 1);
    }

    #[test]
    fn config_layout() {
        let cfg = NetConfig::with_mac([0x52, 0x54, 0, 0, 0, 1]);
        let bytes = cfg.to_bytes();
        assert_eq!(&bytes[0..6], &[0x52, 0x54, 0, 0, 0, 1]);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 1); // link up
        assert_eq!(u16::from_le_bytes([bytes[10], bytes[11]]), 1500);
    }
}
