//! virtio-blk wire format.
//!
//! A block request is a three-part descriptor chain (virtio 1.1 §5.2.6):
//! a 16-byte readable header (type + sector), the data buffers (readable
//! for writes, writable for reads), and a one-byte writable status. The
//! compute board's EFI firmware boots the bm-guest through exactly this
//! interface (§3.2: "we extend the (EFI-based) firmware ... to recognize
//! and utilize virtio during boot"), so the format is implemented in
//! full.

/// Sector size in bytes; virtio-blk always addresses 512-byte sectors.
pub const SECTOR_SIZE: u64 = 512;

/// Block request types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlkRequestType {
    /// Read sectors (device writes data buffers).
    In,
    /// Write sectors (device reads data buffers).
    Out,
    /// Flush the write cache.
    Flush,
    /// Any type this implementation does not support.
    Unsupported(u32),
}

impl BlkRequestType {
    /// The wire encoding.
    pub fn to_wire(self) -> u32 {
        match self {
            BlkRequestType::In => 0,
            BlkRequestType::Out => 1,
            BlkRequestType::Flush => 4,
            BlkRequestType::Unsupported(raw) => raw,
        }
    }

    /// Decodes the wire value.
    pub fn from_wire(raw: u32) -> Self {
        match raw {
            0 => BlkRequestType::In,
            1 => BlkRequestType::Out,
            4 => BlkRequestType::Flush,
            other => BlkRequestType::Unsupported(other),
        }
    }
}

/// Request completion status, written to the chain's final byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlkStatus {
    /// Success.
    Ok,
    /// I/O error.
    IoErr,
    /// Unsupported request type.
    Unsupported,
}

impl BlkStatus {
    /// The wire encoding.
    pub fn to_wire(self) -> u8 {
        match self {
            BlkStatus::Ok => 0,
            BlkStatus::IoErr => 1,
            BlkStatus::Unsupported => 2,
        }
    }

    /// Decodes the wire value.
    ///
    /// # Panics
    ///
    /// Panics on values outside the spec's 0–2 range.
    pub fn from_wire(raw: u8) -> Self {
        match raw {
            0 => BlkStatus::Ok,
            1 => BlkStatus::IoErr,
            2 => BlkStatus::Unsupported,
            other => panic!("invalid virtio-blk status {other}"),
        }
    }
}

/// The 16-byte request header at the start of every chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlkRequestHeader {
    /// Request type.
    pub req_type: BlkRequestType,
    /// Starting sector (512-byte units).
    pub sector: u64,
}

impl BlkRequestHeader {
    /// Creates a header.
    pub fn new(req_type: BlkRequestType, sector: u64) -> Self {
        BlkRequestHeader { req_type, sector }
    }

    /// Serialises to the 16-byte wire format (type, reserved, sector).
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&self.req_type.to_wire().to_le_bytes());
        // Bytes 4..8 are reserved.
        out[8..16].copy_from_slice(&self.sector.to_le_bytes());
        out
    }

    /// Parses from the wire format.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than 16 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() >= 16, "virtio-blk header too short");
        BlkRequestHeader {
            req_type: BlkRequestType::from_wire(u32::from_le_bytes(
                bytes[0..4].try_into().expect("sliced"),
            )),
            sector: u64::from_le_bytes(bytes[8..16].try_into().expect("sliced")),
        }
    }
}

/// virtio-blk device configuration (the region behind the DEVICE_CFG
/// capability). Only the universally-supported leading fields are
/// modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlkConfig {
    /// Device capacity in 512-byte sectors.
    pub capacity_sectors: u64,
    /// Maximum segments per request.
    pub seg_max: u32,
    /// Optimal block size hint.
    pub blk_size: u32,
}

impl BlkConfig {
    /// A config for a device of `bytes` capacity.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a multiple of the sector size.
    pub fn with_capacity_bytes(bytes: u64) -> Self {
        assert!(
            bytes.is_multiple_of(SECTOR_SIZE),
            "capacity must be sector-aligned"
        );
        BlkConfig {
            capacity_sectors: bytes / SECTOR_SIZE,
            seg_max: 126,
            blk_size: 4096,
        }
    }

    /// Serialises the leading config fields.
    pub fn to_bytes(&self) -> [u8; 24] {
        let mut out = [0u8; 24];
        out[0..8].copy_from_slice(&self.capacity_sectors.to_le_bytes());
        out[12..16].copy_from_slice(&self.seg_max.to_le_bytes());
        out[20..24].copy_from_slice(&self.blk_size.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_types_round_trip() {
        for t in [
            BlkRequestType::In,
            BlkRequestType::Out,
            BlkRequestType::Flush,
        ] {
            assert_eq!(BlkRequestType::from_wire(t.to_wire()), t);
        }
        assert_eq!(BlkRequestType::from_wire(9), BlkRequestType::Unsupported(9));
    }

    #[test]
    fn status_round_trips() {
        for s in [BlkStatus::Ok, BlkStatus::IoErr, BlkStatus::Unsupported] {
            assert_eq!(BlkStatus::from_wire(s.to_wire()), s);
        }
    }

    #[test]
    #[should_panic(expected = "invalid virtio-blk status")]
    fn bad_status_panics() {
        BlkStatus::from_wire(7);
    }

    #[test]
    fn header_round_trips() {
        let hdr = BlkRequestHeader::new(BlkRequestType::Out, 0x1234_5678_9abc);
        assert_eq!(BlkRequestHeader::from_bytes(&hdr.to_bytes()), hdr);
    }

    #[test]
    fn header_wire_layout() {
        let hdr = BlkRequestHeader::new(BlkRequestType::In, 5);
        let bytes = hdr.to_bytes();
        assert_eq!(&bytes[0..4], &[0, 0, 0, 0]);
        assert_eq!(&bytes[4..8], &[0, 0, 0, 0]); // reserved
        assert_eq!(bytes[8], 5);
    }

    #[test]
    fn config_capacity_in_sectors() {
        let cfg = BlkConfig::with_capacity_bytes(40 << 30); // 40 GiB boot volume
        assert_eq!(cfg.capacity_sectors, (40 << 30) / 512);
        let bytes = cfg.to_bytes();
        assert_eq!(
            u64::from_le_bytes(bytes[0..8].try_into().unwrap()),
            cfg.capacity_sectors
        );
    }

    #[test]
    #[should_panic(expected = "sector-aligned")]
    fn misaligned_capacity_panics() {
        BlkConfig::with_capacity_bytes(1000);
    }
}
