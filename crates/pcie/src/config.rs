//! PCI type-0 configuration space.
//!
//! A faithful-enough model for guest firmware and kernels to *discover*,
//! *size*, and *configure* the IO-Bond virtio functions: little-endian
//! registers at byte granularity, a read-only/writable bit mask, the
//! standard write-all-ones BAR sizing protocol, and a chained capability
//! list (virtio's modern transport advertises its register windows
//! through vendor-specific capabilities).

const CFG_SIZE: usize = 256;

/// Offset of the standard registers within the header.
pub mod offsets {
    /// Vendor ID (u16).
    pub const VENDOR_ID: u16 = 0x00;
    /// Device ID (u16).
    pub const DEVICE_ID: u16 = 0x02;
    /// Command register (u16).
    pub const COMMAND: u16 = 0x04;
    /// Status register (u16).
    pub const STATUS: u16 = 0x06;
    /// Revision ID (u8).
    pub const REVISION: u16 = 0x08;
    /// Class code: prog-if, subclass, base class (3 × u8).
    pub const CLASS: u16 = 0x09;
    /// First base address register (u32); BAR n is at `BAR0 + 4 n`.
    pub const BAR0: u16 = 0x10;
    /// Subsystem vendor ID (u16).
    pub const SUBSYS_VENDOR_ID: u16 = 0x2c;
    /// Subsystem device ID (u16).
    pub const SUBSYS_ID: u16 = 0x2e;
    /// Capability list head pointer (u8).
    pub const CAP_PTR: u16 = 0x34;
    /// Interrupt line (u8).
    pub const INTERRUPT_LINE: u16 = 0x3c;
}

/// Command-register bits.
pub mod command {
    /// Respond to memory-space accesses.
    pub const MEMORY_SPACE: u16 = 1 << 1;
    /// Allow the device to master the bus (DMA).
    pub const BUS_MASTER: u16 = 1 << 2;
    /// Disable legacy INTx assertion.
    pub const INTX_DISABLE: u16 = 1 << 10;
}

/// One entry in the capability list.
///
/// `data` is the capability body *after* the two-byte (id, next) header;
/// the builder writes the header itself when laying out the list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capability {
    /// Capability ID (e.g. 0x05 MSI, 0x09 vendor-specific, 0x11 MSI-X).
    pub id: u8,
    /// Body bytes following the (id, next) header.
    pub data: Vec<u8>,
}

impl Capability {
    /// Creates a capability with the given ID and body.
    pub fn new(id: u8, data: Vec<u8>) -> Self {
        Capability { id, data }
    }
}

/// A type-0 PCI configuration space.
///
/// Constructed through [`ConfigSpace::builder`]. Reads and writes take an
/// offset and an access width of 1, 2 or 4 bytes, as on a real bus; the
/// device never sees sub-register write masking — that is handled here.
#[derive(Debug, Clone)]
pub struct ConfigSpace {
    bytes: [u8; CFG_SIZE],
    write_mask: [u8; CFG_SIZE],
    bar_sizes: [u32; 6],
}

impl ConfigSpace {
    /// Starts building a configuration space for the given vendor and
    /// device IDs.
    pub fn builder(vendor_id: u16, device_id: u16) -> ConfigSpaceBuilder {
        ConfigSpaceBuilder::new(vendor_id, device_id)
    }

    fn check_access(offset: u16, width: u8) -> (usize, usize) {
        assert!(
            width == 1 || width == 2 || width == 4,
            "config access width must be 1, 2 or 4"
        );
        let start = offset as usize;
        let end = start + width as usize;
        assert!(end <= CFG_SIZE, "config access beyond 256 bytes");
        assert!(
            start.is_multiple_of(width as usize),
            "unaligned config access"
        );
        (start, end)
    }

    /// Reads `width` bytes (1, 2 or 4) at `offset`, little-endian.
    ///
    /// BAR registers read back their programmed address masked by the BAR
    /// size, which implements the standard sizing protocol: writing
    /// `0xffff_ffff` then reading returns `!(size - 1)` plus the flag
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range accesses (a real root complex
    /// would raise an unsupported-request error).
    pub fn read(&self, offset: u16, width: u8) -> u32 {
        let (start, end) = Self::check_access(offset, width);
        let mut value = 0u32;
        for (i, &b) in self.bytes[start..end].iter().enumerate() {
            value |= u32::from(b) << (8 * i);
        }
        // Apply BAR size masking on aligned 32-bit BAR reads.
        if width == 4 {
            if let Some(bar) = Self::bar_index(offset) {
                let size = self.bar_sizes[bar];
                if size > 0 {
                    let flags = value & 0xf;
                    let addr = value & !0xf & !(size - 1);
                    return addr | flags;
                }
            }
        }
        value
    }

    /// Writes `width` bytes (1, 2 or 4) at `offset`, little-endian,
    /// honouring the read-only mask.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range accesses.
    pub fn write(&mut self, offset: u16, width: u8, value: u32) {
        let (start, end) = Self::check_access(offset, width);
        for (i, idx) in (start..end).enumerate() {
            let new = ((value >> (8 * i)) & 0xff) as u8;
            let mask = self.write_mask[idx];
            self.bytes[idx] = (self.bytes[idx] & !mask) | (new & mask);
        }
    }

    fn bar_index(offset: u16) -> Option<usize> {
        if (offsets::BAR0..offsets::BAR0 + 24).contains(&offset)
            && (offset - offsets::BAR0).is_multiple_of(4)
        {
            Some(((offset - offsets::BAR0) / 4) as usize)
        } else {
            None
        }
    }

    /// The size in bytes of BAR `n`, or 0 if the BAR is not implemented.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 6`.
    pub fn bar_size(&self, n: usize) -> u32 {
        assert!(n < 6, "BAR index out of range");
        self.bar_sizes[n]
    }

    /// The current programmed base address of BAR `n` (flags stripped).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 6`.
    pub fn bar_address(&self, n: usize) -> u64 {
        assert!(n < 6, "BAR index out of range");
        let raw = self.read(offsets::BAR0 + 4 * n as u16, 4);
        u64::from(raw & !0xf)
    }

    /// Whether memory-space decoding is enabled in the command register.
    pub fn memory_enabled(&self) -> bool {
        self.read(offsets::COMMAND, 2) as u16 & command::MEMORY_SPACE != 0
    }

    /// The device's vendor ID.
    pub fn vendor_id(&self) -> u16 {
        self.read(offsets::VENDOR_ID, 2) as u16
    }

    /// The device's device ID.
    pub fn device_id(&self) -> u16 {
        self.read(offsets::DEVICE_ID, 2) as u16
    }
}

/// Builder for [`ConfigSpace`].
#[derive(Debug)]
pub struct ConfigSpaceBuilder {
    bytes: [u8; CFG_SIZE],
    write_mask: [u8; CFG_SIZE],
    bar_sizes: [u32; 6],
    caps: Vec<Capability>,
}

impl ConfigSpaceBuilder {
    fn new(vendor_id: u16, device_id: u16) -> Self {
        let mut bytes = [0u8; CFG_SIZE];
        bytes[0..2].copy_from_slice(&vendor_id.to_le_bytes());
        bytes[2..4].copy_from_slice(&device_id.to_le_bytes());
        let mut write_mask = [0u8; CFG_SIZE];
        // Command register: memory space, bus master, INTx disable.
        let cmd_mask = command::MEMORY_SPACE | command::BUS_MASTER | command::INTX_DISABLE;
        write_mask[offsets::COMMAND as usize..offsets::COMMAND as usize + 2]
            .copy_from_slice(&cmd_mask.to_le_bytes());
        // Interrupt line is software scratch space.
        write_mask[offsets::INTERRUPT_LINE as usize] = 0xff;
        ConfigSpaceBuilder {
            bytes,
            write_mask,
            bar_sizes: [0; 6],
            caps: Vec::new(),
        }
    }

    /// Sets the class code: base class, subclass, programming interface.
    pub fn class(mut self, base: u8, sub: u8, prog_if: u8) -> Self {
        self.bytes[offsets::CLASS as usize] = prog_if;
        self.bytes[offsets::CLASS as usize + 1] = sub;
        self.bytes[offsets::CLASS as usize + 2] = base;
        self
    }

    /// Sets the revision ID.
    pub fn revision(mut self, rev: u8) -> Self {
        self.bytes[offsets::REVISION as usize] = rev;
        self
    }

    /// Sets the subsystem vendor and device IDs (virtio uses the
    /// subsystem ID to carry the device type on legacy transports).
    pub fn subsystem(mut self, vendor: u16, device: u16) -> Self {
        self.bytes[offsets::SUBSYS_VENDOR_ID as usize..offsets::SUBSYS_VENDOR_ID as usize + 2]
            .copy_from_slice(&vendor.to_le_bytes());
        self.bytes[offsets::SUBSYS_ID as usize..offsets::SUBSYS_ID as usize + 2]
            .copy_from_slice(&device.to_le_bytes());
        self
    }

    /// Declares BAR `n` as a 32-bit, non-prefetchable memory BAR of
    /// `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 6` or `size` is not a power of two of at least 16.
    pub fn bar_mem32(mut self, n: usize, size: u32) -> Self {
        assert!(n < 6, "BAR index out of range");
        assert!(
            size.is_power_of_two() && size >= 16,
            "BAR size must be a power of two >= 16"
        );
        self.bar_sizes[n] = size;
        let at = offsets::BAR0 as usize + 4 * n;
        // Address bits writable; flag bits (low nibble) read-only zero
        // (memory BAR, 32-bit, non-prefetchable).
        self.write_mask[at..at + 4].copy_from_slice(&0xffff_fff0u32.to_le_bytes());
        self
    }

    /// Appends a capability to the list (laid out in insertion order from
    /// offset 0x40).
    pub fn capability(mut self, cap: Capability) -> Self {
        self.caps.push(cap);
        self
    }

    /// Finalises the configuration space.
    ///
    /// # Panics
    ///
    /// Panics if the capability list overflows the 256-byte space.
    pub fn build(mut self) -> ConfigSpace {
        if !self.caps.is_empty() {
            // Status bit 4: capability list present.
            self.bytes[offsets::STATUS as usize] |= 1 << 4;
            let mut at = 0x40usize;
            let count = self.caps.len();
            for (i, cap) in self.caps.iter().enumerate() {
                let total = 2 + cap.data.len();
                assert!(
                    at + total <= CFG_SIZE,
                    "capability list overflows config space"
                );
                if i == 0 {
                    self.bytes[offsets::CAP_PTR as usize] = at as u8;
                }
                self.bytes[at] = cap.id;
                let next = if i + 1 == count {
                    0
                } else {
                    // Next capability starts dword-aligned after this one.
                    (at + total + 3) & !3
                };
                self.bytes[at + 1] = next as u8;
                self.bytes[at + 2..at + 2 + cap.data.len()].copy_from_slice(&cap.data);
                at = (at + total + 3) & !3;
            }
        }
        ConfigSpace {
            bytes: self.bytes,
            write_mask: self.write_mask,
            bar_sizes: self.bar_sizes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_sim::SimRng;

    impl ConfigSpace {
        /// The `(offset, id)` pairs of the capability list, in order.
        fn capabilities(&self) -> Vec<(u16, u8)> {
            let mut out = Vec::new();
            let mut ptr = self.bytes[offsets::CAP_PTR as usize];
            let mut hops = 0;
            while ptr != 0 && hops < 48 {
                out.push((u16::from(ptr), self.bytes[ptr as usize]));
                ptr = self.bytes[ptr as usize + 1];
                hops += 1;
            }
            out
        }

        /// Whether bus mastering (DMA) is enabled in the command register.
        fn bus_master_enabled(&self) -> bool {
            self.read(offsets::COMMAND, 2) as u16 & command::BUS_MASTER != 0
        }

        /// Walks the capability list for the first capability with `id`,
        /// returning its config-space offset (of the id byte).
        fn find_capability(&self, id: u8) -> Option<u16> {
            let mut ptr = self.bytes[offsets::CAP_PTR as usize];
            let mut hops = 0;
            while ptr != 0 && hops < 48 {
                let at = ptr as usize;
                if self.bytes[at] == id {
                    return Some(u16::from(ptr));
                }
                ptr = self.bytes[at + 1];
                hops += 1;
            }
            None
        }
    }

    fn sample() -> ConfigSpace {
        ConfigSpace::builder(0x1af4, 0x1041)
            .class(0x02, 0x00, 0x00)
            .revision(0x01)
            .subsystem(0x1af4, 0x0001)
            .bar_mem32(0, 0x4000)
            .bar_mem32(1, 0x1000)
            .build()
    }

    #[test]
    fn ids_read_back_at_every_width() {
        let cfg = sample();
        assert_eq!(cfg.read(0x00, 4), 0x1041_1af4);
        assert_eq!(cfg.read(0x00, 2), 0x1af4);
        assert_eq!(cfg.read(0x02, 2), 0x1041);
        assert_eq!(cfg.read(0x00, 1), 0xf4);
        assert_eq!(cfg.vendor_id(), 0x1af4);
        assert_eq!(cfg.device_id(), 0x1041);
        // Byte, word and dword reads agree at every dword of the header.
        for offset in (0..64).step_by(4) {
            let dword = cfg.read(offset, 4);
            let words = cfg.read(offset, 2) | cfg.read(offset + 2, 2) << 16;
            let bytes = (0..4).fold(0, |acc, i| acc | cfg.read(offset + i, 1) << (8 * i));
            assert_eq!((words, bytes), (dword, dword), "offset {offset:#x}");
        }
    }

    #[test]
    fn ids_are_read_only() {
        let mut cfg = sample();
        cfg.write(0x00, 4, 0xdead_beef);
        assert_eq!(cfg.read(0x00, 4), 0x1041_1af4);
        // No storm of aligned writes changes the identity fields.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x1d5);
            let mut cfg = sample();
            for _ in 0..rng.range(1, 100) {
                let width = *rng.choose(&[1u8, 2, 4]);
                let offset = rng.below(64) as u16;
                cfg.write(offset - offset % u16::from(width), width, rng.next_u32());
            }
            assert_eq!(cfg.read(0x00, 4), 0x1041_1af4, "seed {seed}");
            assert_eq!(cfg.read(0x08, 4), 0x0200_0001, "seed {seed}"); // class/revision
            assert_eq!(cfg.read(0x2c, 4), 0x0001_1af4, "seed {seed}"); // subsystem
        }
    }

    #[test]
    fn class_and_revision_encode_correctly() {
        let cfg = sample();
        // 0x08: revision; 0x09..0x0c: prog-if, subclass, base.
        assert_eq!(cfg.read(0x08, 4), 0x0200_0001);
    }

    #[test]
    fn command_register_bits_toggle() {
        let mut cfg = sample();
        assert!(!cfg.memory_enabled());
        assert!(!cfg.bus_master_enabled());
        cfg.write(
            offsets::COMMAND,
            2,
            u32::from(command::MEMORY_SPACE | command::BUS_MASTER),
        );
        assert!(cfg.memory_enabled());
        assert!(cfg.bus_master_enabled());
        // Reserved bits must not stick.
        cfg.write(offsets::COMMAND, 2, 0xffff);
        let cmd = cfg.read(offsets::COMMAND, 2) as u16;
        assert_eq!(
            cmd & !(command::MEMORY_SPACE | command::BUS_MASTER | command::INTX_DISABLE),
            0
        );
    }

    #[test]
    fn bar_sizing_protocol() {
        let mut cfg = sample();
        cfg.write(offsets::BAR0, 4, 0xffff_ffff);
        let readback = cfg.read(offsets::BAR0, 4);
        assert_eq!(readback & !0xf, !(0x4000u32 - 1) & !0xf);
        // Program a base and read it back aligned.
        cfg.write(offsets::BAR0, 4, 0xfebc_0000);
        assert_eq!(cfg.bar_address(0), 0xfebc_0000);
        assert_eq!(cfg.bar_size(0), 0x4000);
        assert_eq!(cfg.bar_size(2), 0);
    }

    #[test]
    fn bar_address_is_size_aligned() {
        let mut cfg = sample();
        // An unaligned program gets truncated to the BAR's natural
        // alignment, as real hardware does.
        cfg.write(offsets::BAR0 + 4, 4, 0x1234_5678);
        assert_eq!(cfg.bar_address(1), 0x1234_5000);
        // Whatever is programmed, the readback is size-aligned and the
        // sizing probe reports the same size.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0xba5);
            let size = 1u32 << rng.range(4, 24);
            let mut cfg = ConfigSpace::builder(1, 2).bar_mem32(0, size).build();
            for _ in 0..rng.range(1, 20) {
                cfg.write(offsets::BAR0, 4, rng.next_u32());
                let readback = cfg.read(offsets::BAR0, 4);
                assert_eq!(
                    readback % size,
                    0,
                    "seed {seed}: {readback:#x} vs {size:#x}"
                );
                cfg.write(offsets::BAR0, 4, 0xffff_ffff);
                let probe = cfg.read(offsets::BAR0, 4);
                assert_eq!(probe & !0xf, !(size - 1) & !0xf, "seed {seed}");
            }
        }
    }

    #[test]
    fn capability_list_walks() {
        let cfg = ConfigSpace::builder(0x1af4, 0x1041)
            .capability(Capability::new(0x09, vec![4, 1, 0, 0])) // vendor cap
            .capability(Capability::new(0x11, vec![0; 10])) // MSI-X
            .capability(Capability::new(0x09, vec![4, 3, 0, 0]))
            .build();
        // Status bit 4 set.
        assert!(cfg.read(offsets::STATUS, 2) & (1 << 4) != 0);
        let caps = cfg.capabilities();
        assert_eq!(caps.len(), 3);
        assert_eq!(caps[0].1, 0x09);
        assert_eq!(caps[1].1, 0x11);
        assert_eq!(cfg.find_capability(0x11), Some(caps[1].0));
        assert_eq!(cfg.find_capability(0x05), None);
        // First vendor cap body readable at its offset + 2.
        let first = cfg.find_capability(0x09).unwrap();
        assert_eq!(cfg.read(first + 2, 1), 4);
        // Any set of capability bodies walks as an acyclic chain of the
        // right length that starts after the header.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0xca9);
            let count = rng.below(6) as usize;
            let mut builder = ConfigSpace::builder(1, 2);
            for _ in 0..count {
                let id = rng.range(1, 0x15) as u8;
                let body = (0..rng.below(20)).map(|_| rng.next_u32() as u8).collect();
                builder = builder.capability(Capability::new(id, body));
            }
            let mut walked: Vec<u16> = builder.build().capabilities().iter().map(|c| c.0).collect();
            assert_eq!(walked.len(), count, "seed {seed}");
            assert!(walked.iter().all(|&o| o >= 0x40), "seed {seed}: {walked:?}");
            walked.sort_unstable();
            walked.dedup();
            assert_eq!(walked.len(), count, "seed {seed}: an offset repeats");
        }
    }

    #[test]
    fn no_capabilities_means_clear_status_bit() {
        let cfg = sample();
        assert_eq!(cfg.find_capability(0x09), None);
        assert!(cfg.read(offsets::STATUS, 2) & (1 << 4) == 0);
        assert!(cfg.capabilities().is_empty());
    }

    #[test]
    fn interrupt_line_is_scratch() {
        let mut cfg = sample();
        cfg.write(offsets::INTERRUPT_LINE, 1, 0x0b);
        assert_eq!(cfg.read(offsets::INTERRUPT_LINE, 1), 0x0b);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_access_panics() {
        sample().read(0x01, 2);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn bad_width_panics() {
        sample().read(0x00, 3);
    }
}
