//! PCI bus: device addressing, enumeration, and MMIO routing.
//!
//! The compute board discovers IO-Bond's virtio functions the way real
//! firmware does: scan bus/device/function addresses for a valid vendor
//! ID, size each BAR with the write-all-ones protocol, program a base
//! address, and enable memory decode. [`PciBus::enumerate_and_map`]
//! performs exactly that sequence, so the guest-visible behaviour matches
//! §3.2's "each virtio device is a normal PCIe device that can be
//! discovered, configured, and used as one".

use crate::config::{command, offsets, ConfigSpace};
use bmhive_sim::SimTime;
use std::collections::BTreeMap;

/// A bus/device/function address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdf {
    /// Bus number.
    pub bus: u8,
    /// Device (slot) number, 0–31.
    pub device: u8,
    /// Function number, 0–7.
    pub function: u8,
}

impl Bdf {
    /// Creates a BDF address.
    ///
    /// # Panics
    ///
    /// Panics if `device > 31` or `function > 7`.
    pub fn new(bus: u8, device: u8, function: u8) -> Self {
        assert!(device < 32, "Bdf: device must be < 32");
        assert!(function < 8, "Bdf: function must be < 8");
        Bdf {
            bus,
            device,
            function,
        }
    }
}

impl std::fmt::Display for Bdf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:02x}:{:02x}.{}", self.bus, self.device, self.function)
    }
}

/// An emulated PCI endpoint.
///
/// Implemented by IO-Bond's virtio functions and by the compute-board
/// control function the bm-hypervisor drives.
pub trait PciDevice {
    /// The device's configuration space.
    fn config(&self) -> &ConfigSpace;

    /// Mutable access to the configuration space (the bus routes config
    /// writes through this).
    fn config_mut(&mut self) -> &mut ConfigSpace;

    /// Reads a device register in BAR `bar` at `offset`. May have side
    /// effects (e.g. reading the virtio ISR register clears it).
    fn bar_read(&mut self, bar: usize, offset: u64, width: u8, now: SimTime) -> u32;

    /// Writes a device register in BAR `bar` at `offset`.
    fn bar_write(&mut self, bar: usize, offset: u64, width: u8, value: u32, now: SimTime);
}

/// A BAR window mapped into the bus's MMIO space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappedBar {
    /// The device owning the window.
    pub bdf: Bdf,
    /// BAR index within the device.
    pub bar: usize,
    /// MMIO base address.
    pub base: u64,
    /// Window size in bytes.
    pub size: u64,
}

/// A root-complex bus holding emulated devices.
pub struct PciBus {
    devices: BTreeMap<Bdf, Box<dyn PciDevice>>,
}

impl std::fmt::Debug for PciBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PciBus")
            .field("devices", &self.devices.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl PciBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        PciBus {
            devices: BTreeMap::new(),
        }
    }

    /// Plugs a device in at `bdf`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already occupied.
    pub fn plug(&mut self, bdf: Bdf, device: Box<dyn PciDevice>) {
        let prev = self.devices.insert(bdf, device);
        assert!(prev.is_none(), "PciBus: slot {bdf} already occupied");
    }

    /// Removes and returns the device at `bdf` (surprise hot-unplug).
    pub fn unplug(&mut self, bdf: Bdf) -> Option<Box<dyn PciDevice>> {
        self.devices.remove(&bdf)
    }

    /// BDF addresses of all plugged devices, in order.
    pub fn occupied(&self) -> Vec<Bdf> {
        self.devices.keys().copied().collect()
    }

    /// Borrows the device at `bdf`.
    pub fn device(&self, bdf: Bdf) -> Option<&dyn PciDevice> {
        self.devices.get(&bdf).map(|b| b.as_ref())
    }

    /// Reads the configuration space of the device at `bdf`. Reads from
    /// empty slots return `0xffff_ffff`, which is how firmware detects
    /// absence.
    pub fn config_read(&self, bdf: Bdf, offset: u16, width: u8) -> u32 {
        match self.devices.get(&bdf) {
            Some(dev) => dev.config().read(offset, width),
            None => u32::MAX >> (32 - 8 * u32::from(width)),
        }
    }

    /// Writes the configuration space of the device at `bdf`. Writes to
    /// empty slots are dropped.
    pub fn config_write(&mut self, bdf: Bdf, offset: u16, width: u8, value: u32) {
        if let Some(dev) = self.devices.get_mut(&bdf) {
            dev.config_mut().write(offset, width, value);
        }
    }

    /// Firmware-style enumeration: scans all plugged devices, sizes each
    /// implemented BAR, assigns base addresses upward from `mmio_base`
    /// (naturally aligned), and enables memory decode + bus mastering.
    /// Returns the mapped windows.
    pub fn enumerate_and_map(&mut self, mmio_base: u64) -> Vec<MappedBar> {
        let mut mapped = Vec::new();
        let mut cursor = mmio_base;
        let bdfs: Vec<Bdf> = self.devices.keys().copied().collect();
        for bdf in bdfs {
            let dev = self.devices.get_mut(&bdf).expect("device present");
            for bar in 0..6 {
                let size = u64::from(dev.config().bar_size(bar));
                if size == 0 {
                    continue;
                }
                // Natural alignment.
                cursor = (cursor + size - 1) & !(size - 1);
                dev.config_mut()
                    .write(offsets::BAR0 + 4 * bar as u16, 4, cursor as u32);
                mapped.push(MappedBar {
                    bdf,
                    bar,
                    base: cursor,
                    size,
                });
                cursor += size;
            }
            let cmd = dev.config().read(offsets::COMMAND, 2) as u16
                | command::MEMORY_SPACE
                | command::BUS_MASTER;
            dev.config_mut().write(offsets::COMMAND, 2, u32::from(cmd));
        }
        mapped
    }

    fn resolve(&self, addr: u64) -> Option<(Bdf, usize, u64)> {
        for (bdf, dev) in &self.devices {
            if !dev.config().memory_enabled() {
                continue;
            }
            for bar in 0..6 {
                let size = u64::from(dev.config().bar_size(bar));
                if size == 0 {
                    continue;
                }
                let base = dev.config().bar_address(bar);
                if base != 0 && addr >= base && addr < base + size {
                    return Some((*bdf, bar, addr - base));
                }
            }
        }
        None
    }

    /// Routes an MMIO read to the owning device's BAR. Unclaimed
    /// addresses read as all-ones (master abort).
    pub fn mmio_read(&mut self, addr: u64, width: u8, now: SimTime) -> u32 {
        match self.resolve(addr) {
            Some((bdf, bar, offset)) => self
                .devices
                .get_mut(&bdf)
                .expect("device present")
                .bar_read(bar, offset, width, now),
            None => u32::MAX >> (32 - 8 * u32::from(width)),
        }
    }

    /// Routes an MMIO write to the owning device's BAR. Unclaimed
    /// addresses drop the write.
    pub fn mmio_write(&mut self, addr: u64, width: u8, value: u32, now: SimTime) {
        if let Some((bdf, bar, offset)) = self.resolve(addr) {
            self.devices
                .get_mut(&bdf)
                .expect("device present")
                .bar_write(bar, offset, width, value, now);
        }
    }
}

impl Default for PciBus {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test endpoint with one 4 KiB BAR of scratch registers.
    struct ScratchDevice {
        cfg: ConfigSpace,
        regs: Vec<u32>,
        reads: u32,
    }

    impl ScratchDevice {
        fn new(vendor: u16, device: u16) -> Self {
            ScratchDevice {
                cfg: ConfigSpace::builder(vendor, device)
                    .bar_mem32(0, 0x1000)
                    .build(),
                regs: vec![0; 0x1000 / 4],
                reads: 0,
            }
        }
    }

    impl PciDevice for ScratchDevice {
        fn config(&self) -> &ConfigSpace {
            &self.cfg
        }
        fn config_mut(&mut self) -> &mut ConfigSpace {
            &mut self.cfg
        }
        fn bar_read(&mut self, _bar: usize, offset: u64, _width: u8, _now: SimTime) -> u32 {
            self.reads += 1;
            self.regs[(offset / 4) as usize]
        }
        fn bar_write(&mut self, _bar: usize, offset: u64, _width: u8, value: u32, _now: SimTime) {
            self.regs[(offset / 4) as usize] = value;
        }
    }

    #[test]
    fn empty_slot_reads_all_ones() {
        let bus = PciBus::new();
        let bdf = Bdf::new(0, 3, 0);
        assert_eq!(bus.config_read(bdf, 0, 4), 0xffff_ffff);
        assert_eq!(bus.config_read(bdf, 0, 2), 0xffff);
        assert_eq!(bus.config_read(bdf, 0, 1), 0xff);
    }

    #[test]
    fn enumeration_finds_devices_by_vendor_id() {
        let mut bus = PciBus::new();
        bus.plug(
            Bdf::new(0, 1, 0),
            Box::new(ScratchDevice::new(0x1af4, 0x1041)),
        );
        bus.plug(
            Bdf::new(0, 2, 0),
            Box::new(ScratchDevice::new(0x1af4, 0x1042)),
        );
        // Firmware scan: every (device, function) on bus 0.
        let mut found = Vec::new();
        for dev in 0..32 {
            let bdf = Bdf::new(0, dev, 0);
            if bus.config_read(bdf, 0, 2) != 0xffff {
                found.push(bdf);
            }
        }
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn enumerate_and_map_assigns_aligned_disjoint_windows() {
        let mut bus = PciBus::new();
        bus.plug(Bdf::new(0, 1, 0), Box::new(ScratchDevice::new(1, 1)));
        bus.plug(Bdf::new(0, 2, 0), Box::new(ScratchDevice::new(1, 2)));
        let mapped = bus.enumerate_and_map(0xfe00_0000);
        assert_eq!(mapped.len(), 2);
        for w in &mapped {
            assert_eq!(w.base % w.size, 0, "window not naturally aligned");
        }
        assert!(mapped[0].base + mapped[0].size <= mapped[1].base);
    }

    #[test]
    fn mmio_routes_to_programmed_bar() {
        let mut bus = PciBus::new();
        bus.plug(Bdf::new(0, 1, 0), Box::new(ScratchDevice::new(1, 1)));
        let mapped = bus.enumerate_and_map(0xfe00_0000);
        let base = mapped[0].base;
        bus.mmio_write(base + 8, 4, 0xabcd, SimTime::ZERO);
        assert_eq!(bus.mmio_read(base + 8, 4, SimTime::ZERO), 0xabcd);
        // Unclaimed address.
        assert_eq!(bus.mmio_read(0x1000, 4, SimTime::ZERO), 0xffff_ffff);
    }

    #[test]
    fn mmio_ignored_until_memory_enable() {
        let mut bus = PciBus::new();
        bus.plug(Bdf::new(0, 1, 0), Box::new(ScratchDevice::new(1, 1)));
        // Program BAR0 by hand but do NOT set memory enable.
        bus.config_write(Bdf::new(0, 1, 0), offsets::BAR0, 4, 0xfe00_0000);
        bus.mmio_write(0xfe00_0000, 4, 7, SimTime::ZERO);
        assert_eq!(bus.mmio_read(0xfe00_0000, 4, SimTime::ZERO), 0xffff_ffff);
        // Now enable decode: the window responds.
        let cmd = u32::from(command::MEMORY_SPACE);
        bus.config_write(Bdf::new(0, 1, 0), offsets::COMMAND, 2, cmd);
        bus.mmio_write(0xfe00_0000, 4, 7, SimTime::ZERO);
        assert_eq!(bus.mmio_read(0xfe00_0000, 4, SimTime::ZERO), 7);
    }

    #[test]
    fn unplug_removes_device() {
        let mut bus = PciBus::new();
        let bdf = Bdf::new(0, 1, 0);
        bus.plug(bdf, Box::new(ScratchDevice::new(1, 1)));
        assert!(bus.device(bdf).is_some());
        assert!(bus.unplug(bdf).is_some());
        assert!(bus.device(bdf).is_none());
        assert_eq!(bus.config_read(bdf, 0, 2), 0xffff);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_plug_panics() {
        let mut bus = PciBus::new();
        let bdf = Bdf::new(0, 1, 0);
        bus.plug(bdf, Box::new(ScratchDevice::new(1, 1)));
        bus.plug(bdf, Box::new(ScratchDevice::new(1, 2)));
    }

    #[test]
    fn bdf_display_format() {
        assert_eq!(Bdf::new(0, 0x1f, 7).to_string(), "00:1f.7");
    }

    #[test]
    #[should_panic(expected = "device must be < 32")]
    fn bdf_validates_device_number() {
        Bdf::new(0, 32, 0);
    }
}
