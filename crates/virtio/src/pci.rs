//! The modern virtio-pci transport.
//!
//! This register file is exactly what IO-Bond's FPGA presents on the
//! compute board's PCIe bus (§3.4.1: "The FPGA logic in IO-Bond emulates
//! a PCI interface (i.e. PCI configure space, BAR0, BAR1, PCIe Cap, etc)
//! for each virtio device"). A guest kernel's virtio-pci driver could be
//! pointed at [`VirtioPciFunction`] unchanged:
//!
//! * vendor-specific capabilities in config space advertise where the
//!   common/notify/ISR/device-config windows live inside BAR0;
//! * the common-config window implements feature negotiation and queue
//!   programming against a [`DeviceState`];
//! * writes to the notify window queue doorbell events for the owner
//!   (IO-Bond forwards them to the bm-hypervisor, KVM turns them into
//!   VM exits);
//! * reading the ISR window acknowledges the interrupt, clearing it.

use crate::devtypes::{DeviceState, DeviceType};
use bmhive_mem::GuestAddr;
use bmhive_pcie::{Capability, ConfigSpace, PciDevice};
use bmhive_sim::SimTime;
use std::collections::VecDeque;

/// Capability `cfg_type`: common configuration window.
pub const CAP_COMMON_CFG: u8 = 1;
/// Capability `cfg_type`: notify (doorbell) window.
pub const CAP_NOTIFY_CFG: u8 = 2;
/// Capability `cfg_type`: interrupt status window.
pub const CAP_ISR_CFG: u8 = 3;
/// Capability `cfg_type`: device-specific configuration window.
pub const CAP_DEVICE_CFG: u8 = 4;

/// The virtio PCI vendor ID.
pub const VIRTIO_VENDOR_ID: u16 = 0x1af4;

// BAR0 internal layout.
const COMMON_OFFSET: u64 = 0x0000;
const COMMON_LEN: u64 = 0x38;
const ISR_OFFSET: u64 = 0x1000;
const ISR_LEN: u64 = 0x4;
const DEVICE_OFFSET: u64 = 0x2000;
const DEVICE_LEN: u64 = 0x100;
const NOTIFY_OFFSET: u64 = 0x3000;
const NOTIFY_LEN: u64 = 0x400;
const NOTIFY_MULTIPLIER: u32 = 4;
const BAR0_SIZE: u32 = 0x4000;

// Common-config register offsets (virtio 1.1 §4.1.4.3).
mod common {
    pub const DEVICE_FEATURE_SELECT: u64 = 0x00;
    pub const DEVICE_FEATURE: u64 = 0x04;
    pub const DRIVER_FEATURE_SELECT: u64 = 0x08;
    pub const DRIVER_FEATURE: u64 = 0x0c;
    pub const MSIX_CONFIG: u64 = 0x10;
    pub const NUM_QUEUES: u64 = 0x12;
    pub const DEVICE_STATUS: u64 = 0x14;
    pub const CONFIG_GENERATION: u64 = 0x15;
    pub const QUEUE_SELECT: u64 = 0x16;
    pub const QUEUE_SIZE: u64 = 0x18;
    pub const QUEUE_MSIX_VECTOR: u64 = 0x1a;
    pub const QUEUE_ENABLE: u64 = 0x1c;
    pub const QUEUE_NOTIFY_OFF: u64 = 0x1e;
    pub const QUEUE_DESC_LO: u64 = 0x20;
    pub const QUEUE_DESC_HI: u64 = 0x24;
    pub const QUEUE_DRIVER_LO: u64 = 0x28;
    pub const QUEUE_DRIVER_HI: u64 = 0x2c;
    pub const QUEUE_DEVICE_LO: u64 = 0x30;
    pub const QUEUE_DEVICE_HI: u64 = 0x34;
}

fn virtio_cap(cfg_type: u8, offset: u32, length: u32) -> Capability {
    // struct virtio_pci_cap body (after the id/next header):
    // cap_len, cfg_type, bar, padding[3], offset, length.
    let mut data = vec![16u8, cfg_type, 0 /* BAR0 */, 0, 0, 0];
    data.extend_from_slice(&offset.to_le_bytes());
    data.extend_from_slice(&length.to_le_bytes());
    Capability::new(0x09, data)
}

fn virtio_notify_cap(offset: u32, length: u32, multiplier: u32) -> Capability {
    let mut cap = virtio_cap(CAP_NOTIFY_CFG, offset, length);
    cap.data[0] = 20; // cap_len includes the multiplier dword
    cap.data.extend_from_slice(&multiplier.to_le_bytes());
    cap
}

/// A doorbell (queue notification) recorded by the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// Which queue was kicked.
    pub queue: u16,
    /// When the kick landed.
    pub at: SimTime,
}

/// One virtio function on the PCI bus: config space + BAR0 register file
/// over a [`DeviceState`].
#[derive(Debug)]
pub struct VirtioPciFunction {
    cfg: ConfigSpace,
    state: DeviceState,
    device_config: Vec<u8>,
    device_feature_select: u32,
    driver_feature_select: u32,
    queue_select: u16,
    isr: u8,
    notifications: VecDeque<Notification>,
    register_reads: u64,
    register_writes: u64,
}

impl VirtioPciFunction {
    /// Creates a function of the given type, offering `device_features`,
    /// with `device_config` as the device-specific config window
    /// contents (e.g. [`crate::net::NetConfig::to_bytes`]).
    ///
    /// # Panics
    ///
    /// Panics if `device_config` exceeds the device window (256 bytes) or
    /// `max_queue_size` is not a power of two.
    pub fn new(
        device_type: DeviceType,
        device_features: u64,
        max_queue_size: u16,
        device_config: Vec<u8>,
    ) -> Self {
        Self::with_queue_count(
            device_type,
            device_features,
            max_queue_size,
            device_type.queue_count(),
            device_config,
        )
    }

    /// Like [`new`](Self::new) with an explicit queue count (multiqueue
    /// virtio-net exposes several rx/tx pairs).
    ///
    /// # Panics
    ///
    /// Same as [`new`](Self::new), plus a zero `queue_count`.
    pub fn with_queue_count(
        device_type: DeviceType,
        device_features: u64,
        max_queue_size: u16,
        queue_count: u16,
        device_config: Vec<u8>,
    ) -> Self {
        assert!(
            device_config.len() as u64 <= DEVICE_LEN,
            "device config exceeds window"
        );
        let cfg = ConfigSpace::builder(VIRTIO_VENDOR_ID, device_type.pci_device_id())
            .class(
                match device_type {
                    DeviceType::Net => 0x02,
                    DeviceType::Block => 0x01,
                    DeviceType::Gpu => 0x03,
                },
                0x00,
                0x00,
            )
            .revision(0x01)
            .subsystem(VIRTIO_VENDOR_ID, device_type.device_id())
            .bar_mem32(0, BAR0_SIZE)
            .capability(virtio_cap(
                CAP_COMMON_CFG,
                COMMON_OFFSET as u32,
                COMMON_LEN as u32,
            ))
            .capability(virtio_notify_cap(
                NOTIFY_OFFSET as u32,
                NOTIFY_LEN as u32,
                NOTIFY_MULTIPLIER,
            ))
            .capability(virtio_cap(CAP_ISR_CFG, ISR_OFFSET as u32, ISR_LEN as u32))
            .capability(virtio_cap(
                CAP_DEVICE_CFG,
                DEVICE_OFFSET as u32,
                DEVICE_LEN as u32,
            ))
            .build();
        VirtioPciFunction {
            cfg,
            state: DeviceState::with_queue_count(
                device_type,
                device_features,
                max_queue_size,
                queue_count,
            ),
            device_config,
            device_feature_select: 0,
            driver_feature_select: 0,
            queue_select: 0,
            isr: 0,
            notifications: VecDeque::new(),
            register_reads: 0,
            register_writes: 0,
        }
    }

    /// The negotiation state (device model side).
    pub fn state(&self) -> &DeviceState {
        &self.state
    }

    /// Mutable negotiation state (for the device model to update).
    pub fn state_mut(&mut self) -> &mut DeviceState {
        &mut self.state
    }

    /// Drains recorded doorbells, oldest first.
    pub fn take_notifications(&mut self) -> Vec<Notification> {
        self.notifications.drain(..).collect()
    }

    /// Device-side: latch an interrupt so the next ISR read reports it.
    pub fn raise_isr(&mut self) {
        self.isr |= 1;
    }

    /// Device-side: latch a configuration-change interrupt.
    pub fn raise_config_isr(&mut self) {
        self.isr |= 2;
    }

    /// Total BAR register reads (used to charge the paper's 0.8 µs/access
    /// FPGA cost in the IO-Bond model).
    pub fn register_reads(&self) -> u64 {
        self.register_reads
    }

    /// Total BAR register writes.
    pub fn register_writes(&self) -> u64 {
        self.register_writes
    }

    fn selected_features(&self, select: u32, features: u64) -> u32 {
        match select {
            0 => features as u32,
            1 => (features >> 32) as u32,
            _ => 0,
        }
    }

    fn common_read(&mut self, offset: u64, width: u8) -> u32 {
        use common::*;
        match (offset, width) {
            (DEVICE_FEATURE_SELECT, 4) => self.device_feature_select,
            (DEVICE_FEATURE, 4) => {
                self.selected_features(self.device_feature_select, self.state.device_features())
            }
            (DRIVER_FEATURE_SELECT, 4) => self.driver_feature_select,
            (DRIVER_FEATURE, 4) => {
                self.selected_features(self.driver_feature_select, self.state.driver_features())
            }
            (MSIX_CONFIG, 2) => 0,
            (NUM_QUEUES, 2) => u32::from(self.state.queue_count()),
            (DEVICE_STATUS, 1) => u32::from(self.state.device_status()),
            (CONFIG_GENERATION, 1) => u32::from(self.state.config_generation()),
            (QUEUE_SELECT, 2) => u32::from(self.queue_select),
            (QUEUE_SIZE, 2) => u32::from(self.selected_queue().map_or(0, |q| q.size)),
            (QUEUE_MSIX_VECTOR, 2) => u32::from(self.selected_queue().map_or(0, |q| q.msix_vector)),
            (QUEUE_ENABLE, 2) => u32::from(self.selected_queue().is_some_and(|q| q.enabled)),
            (QUEUE_NOTIFY_OFF, 2) => u32::from(self.queue_select),
            (QUEUE_DESC_LO, 4) => self.selected_queue().map_or(0, |q| q.desc.value() as u32),
            (QUEUE_DESC_HI, 4) => self
                .selected_queue()
                .map_or(0, |q| (q.desc.value() >> 32) as u32),
            (QUEUE_DRIVER_LO, 4) => self.selected_queue().map_or(0, |q| q.avail.value() as u32),
            (QUEUE_DRIVER_HI, 4) => self
                .selected_queue()
                .map_or(0, |q| (q.avail.value() >> 32) as u32),
            (QUEUE_DEVICE_LO, 4) => self.selected_queue().map_or(0, |q| q.used.value() as u32),
            (QUEUE_DEVICE_HI, 4) => self
                .selected_queue()
                .map_or(0, |q| (q.used.value() >> 32) as u32),
            _ => 0,
        }
    }

    fn selected_queue(&self) -> Option<&crate::devtypes::QueueConfig> {
        if self.queue_select < self.state.queue_count() {
            Some(self.state.queue(self.queue_select))
        } else {
            None
        }
    }

    fn common_write(&mut self, offset: u64, width: u8, value: u32) {
        use common::*;
        let set_addr = |addr: &mut GuestAddr, lo: bool, value: u32| {
            let cur = addr.value();
            *addr = GuestAddr::new(if lo {
                (cur & !0xffff_ffff) | u64::from(value)
            } else {
                (cur & 0xffff_ffff) | (u64::from(value) << 32)
            });
        };
        match (offset, width) {
            (DEVICE_FEATURE_SELECT, 4) => self.device_feature_select = value,
            (DRIVER_FEATURE_SELECT, 4) => self.driver_feature_select = value,
            (DRIVER_FEATURE, 4) => {
                let prior = self.state.driver_features();
                let updated = match self.driver_feature_select {
                    0 => (prior & !0xffff_ffff) | u64::from(value),
                    1 => (prior & 0xffff_ffff) | (u64::from(value) << 32),
                    _ => prior,
                };
                // set_driver_features masks, so re-or the raw word: store
                // through the state so masking applies.
                self.state.set_driver_features(updated);
            }
            (DEVICE_STATUS, 1) => self.state.set_device_status(value as u8),
            (QUEUE_SELECT, 2) => self.queue_select = value as u16,
            (QUEUE_SIZE, 2) => {
                let max = self.state.max_queue_size();
                if self.queue_select < self.state.queue_count() {
                    let q = self.state.queue_mut(self.queue_select);
                    let requested = value as u16;
                    if requested.is_power_of_two() && requested <= max {
                        q.size = requested;
                    }
                }
            }
            (QUEUE_MSIX_VECTOR, 2) if self.queue_select < self.state.queue_count() => {
                self.state.queue_mut(self.queue_select).msix_vector = value as u16;
            }
            (QUEUE_ENABLE, 2) if self.queue_select < self.state.queue_count() => {
                self.state.queue_mut(self.queue_select).enabled = value & 1 != 0;
            }
            (QUEUE_DESC_LO, 4) | (QUEUE_DESC_HI, 4)
                if self.queue_select < self.state.queue_count() =>
            {
                let lo = offset == QUEUE_DESC_LO;
                set_addr(&mut self.state.queue_mut(self.queue_select).desc, lo, value);
            }
            (QUEUE_DRIVER_LO, 4) | (QUEUE_DRIVER_HI, 4)
                if self.queue_select < self.state.queue_count() =>
            {
                let lo = offset == QUEUE_DRIVER_LO;
                set_addr(
                    &mut self.state.queue_mut(self.queue_select).avail,
                    lo,
                    value,
                );
            }
            (QUEUE_DEVICE_LO, 4) | (QUEUE_DEVICE_HI, 4)
                if self.queue_select < self.state.queue_count() =>
            {
                let lo = offset == QUEUE_DEVICE_LO;
                set_addr(&mut self.state.queue_mut(self.queue_select).used, lo, value);
            }
            _ => {}
        }
    }

    fn device_config_read(&self, offset: u64, width: u8) -> u32 {
        let mut value = 0u32;
        for i in 0..u64::from(width) {
            let byte = self
                .device_config
                .get((offset + i) as usize)
                .copied()
                .unwrap_or(0);
            value |= u32::from(byte) << (8 * i);
        }
        value
    }
}

impl PciDevice for VirtioPciFunction {
    fn config(&self) -> &ConfigSpace {
        &self.cfg
    }

    fn config_mut(&mut self) -> &mut ConfigSpace {
        &mut self.cfg
    }

    fn bar_read(&mut self, bar: usize, offset: u64, width: u8, _now: SimTime) -> u32 {
        if bar != 0 {
            return u32::MAX >> (32 - 8 * u32::from(width));
        }
        self.register_reads += 1;
        match offset {
            o if (COMMON_OFFSET..COMMON_OFFSET + COMMON_LEN).contains(&o) => {
                self.common_read(o - COMMON_OFFSET, width)
            }
            o if (ISR_OFFSET..ISR_OFFSET + ISR_LEN).contains(&o) => {
                // Reading the ISR acknowledges and clears it.
                let isr = u32::from(self.isr);
                self.isr = 0;
                isr
            }
            o if (DEVICE_OFFSET..DEVICE_OFFSET + DEVICE_LEN).contains(&o) => {
                self.device_config_read(o - DEVICE_OFFSET, width)
            }
            _ => 0,
        }
    }

    fn bar_write(&mut self, bar: usize, offset: u64, width: u8, value: u32, now: SimTime) {
        if bar != 0 {
            return;
        }
        self.register_writes += 1;
        match offset {
            o if (COMMON_OFFSET..COMMON_OFFSET + COMMON_LEN).contains(&o) => {
                self.common_write(o - COMMON_OFFSET, width, value);
            }
            o if (NOTIFY_OFFSET..NOTIFY_OFFSET + NOTIFY_LEN).contains(&o) => {
                let queue = ((o - NOTIFY_OFFSET) / u64::from(NOTIFY_MULTIPLIER)) as u16;
                if queue < self.state.queue_count() {
                    self.notifications
                        .push_back(Notification { queue, at: now });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devtypes::{status, Feature};
    use crate::net::NetConfig;
    use bmhive_pcie::config::offsets;

    fn net_function() -> VirtioPciFunction {
        VirtioPciFunction::new(
            DeviceType::Net,
            Feature::NetMac as u64 | Feature::RingIndirectDesc as u64,
            256,
            NetConfig::with_mac([2, 0, 0, 0, 0, 1]).to_bytes().to_vec(),
        )
    }

    #[test]
    fn config_space_advertises_virtio_caps() {
        let f = net_function();
        // Walk the capability list through config reads, as a driver
        // does: the header's pointer, then each capability's next byte.
        let mut vendor_caps = Vec::new();
        let mut ptr = f.config().read(offsets::CAP_PTR, 1) as u16;
        let mut hops = 0;
        while ptr != 0 {
            hops += 1;
            assert!(hops <= 48, "capability list does not terminate");
            if f.config().read(ptr, 1) == 0x09 {
                vendor_caps.push(ptr);
            }
            ptr = f.config().read(ptr + 1, 1) as u16;
        }
        assert_eq!(vendor_caps.len(), 4);
        assert_eq!(f.config().vendor_id(), VIRTIO_VENDOR_ID);
        assert_eq!(f.config().device_id(), 0x1041);
        // The cfg_type byte of each cap (offset + 3) covers all four types.
        let mut types: Vec<u8> = vendor_caps
            .iter()
            .map(|&off| f.config().read(off + 3, 1) as u8)
            .collect();
        types.sort_unstable();
        assert_eq!(
            types,
            vec![CAP_COMMON_CFG, CAP_NOTIFY_CFG, CAP_ISR_CFG, CAP_DEVICE_CFG]
        );
    }

    #[test]
    fn feature_negotiation_through_registers() {
        let mut f = net_function();
        // Read device features: low then high word.
        f.bar_write(0, common::DEVICE_FEATURE_SELECT, 4, 0, SimTime::ZERO);
        let lo = f.bar_read(0, common::DEVICE_FEATURE, 4, SimTime::ZERO);
        f.bar_write(0, common::DEVICE_FEATURE_SELECT, 4, 1, SimTime::ZERO);
        let hi = f.bar_read(0, common::DEVICE_FEATURE, 4, SimTime::ZERO);
        let features = u64::from(lo) | (u64::from(hi) << 32);
        assert!(features & Feature::NetMac as u64 != 0);
        assert!(features & Feature::Version1 as u64 != 0);
        // Accept them.
        f.bar_write(0, common::DRIVER_FEATURE_SELECT, 4, 0, SimTime::ZERO);
        f.bar_write(0, common::DRIVER_FEATURE, 4, lo, SimTime::ZERO);
        f.bar_write(0, common::DRIVER_FEATURE_SELECT, 4, 1, SimTime::ZERO);
        f.bar_write(0, common::DRIVER_FEATURE, 4, hi, SimTime::ZERO);
        assert_eq!(f.state().negotiated_features(), features);
    }

    #[test]
    fn queue_programming_through_registers() {
        let mut f = net_function();
        f.bar_write(0, common::QUEUE_SELECT, 2, 1, SimTime::ZERO); // tx queue
        assert_eq!(f.bar_read(0, common::QUEUE_SIZE, 2, SimTime::ZERO), 256);
        f.bar_write(0, common::QUEUE_SIZE, 2, 128, SimTime::ZERO);
        f.bar_write(0, common::QUEUE_DESC_LO, 4, 0x0001_0000, SimTime::ZERO);
        f.bar_write(0, common::QUEUE_DESC_HI, 4, 0x1, SimTime::ZERO);
        f.bar_write(0, common::QUEUE_DRIVER_LO, 4, 0x0002_0000, SimTime::ZERO);
        f.bar_write(0, common::QUEUE_DEVICE_LO, 4, 0x0003_0000, SimTime::ZERO);
        f.bar_write(0, common::QUEUE_ENABLE, 2, 1, SimTime::ZERO);
        let q = f.state().queue(1);
        assert_eq!(q.size, 128);
        assert_eq!(q.desc, GuestAddr::new(0x1_0001_0000));
        assert_eq!(q.avail, GuestAddr::new(0x0002_0000));
        assert_eq!(q.used, GuestAddr::new(0x0003_0000));
        assert!(q.enabled);
        // Reads reflect the programmed values.
        assert_eq!(f.bar_read(0, common::QUEUE_DESC_HI, 4, SimTime::ZERO), 1);
        assert_eq!(f.bar_read(0, common::QUEUE_ENABLE, 2, SimTime::ZERO), 1);
    }

    #[test]
    fn invalid_queue_size_is_ignored() {
        let mut f = net_function();
        f.bar_write(0, common::QUEUE_SELECT, 2, 0, SimTime::ZERO);
        f.bar_write(0, common::QUEUE_SIZE, 2, 100, SimTime::ZERO); // not pow2
        assert_eq!(f.state().queue(0).size, 256);
        f.bar_write(0, common::QUEUE_SIZE, 2, 512, SimTime::ZERO); // > max
        assert_eq!(f.state().queue(0).size, 256);
    }

    #[test]
    fn status_write_and_reset() {
        let mut f = net_function();
        f.bar_write(
            0,
            common::DEVICE_STATUS,
            1,
            u32::from(status::ACKNOWLEDGE),
            SimTime::ZERO,
        );
        assert_eq!(
            f.bar_read(0, common::DEVICE_STATUS, 1, SimTime::ZERO),
            u32::from(status::ACKNOWLEDGE)
        );
        f.bar_write(0, common::DEVICE_STATUS, 1, 0, SimTime::ZERO);
        assert_eq!(f.bar_read(0, common::DEVICE_STATUS, 1, SimTime::ZERO), 0);
        assert_eq!(f.state().driver_features(), 0);
    }

    #[test]
    fn notify_writes_are_recorded_with_time() {
        let mut f = net_function();
        f.bar_write(0, NOTIFY_OFFSET, 2, 0, SimTime::from_micros(3));
        f.bar_write(0, NOTIFY_OFFSET + 4, 2, 0, SimTime::from_micros(5));
        // Out-of-range queue index is dropped.
        f.bar_write(0, NOTIFY_OFFSET + 4 * 9, 2, 0, SimTime::from_micros(6));
        let notes = f.take_notifications();
        assert_eq!(notes.len(), 2);
        assert_eq!(
            notes[0],
            Notification {
                queue: 0,
                at: SimTime::from_micros(3)
            }
        );
        assert_eq!(notes[1].queue, 1);
        assert!(f.take_notifications().is_empty());
    }

    #[test]
    fn isr_read_clears() {
        let mut f = net_function();
        assert_eq!(f.bar_read(0, ISR_OFFSET, 1, SimTime::ZERO), 0);
        f.raise_isr();
        assert_eq!(f.bar_read(0, ISR_OFFSET, 1, SimTime::ZERO), 1);
        assert_eq!(f.bar_read(0, ISR_OFFSET, 1, SimTime::ZERO), 0);
        f.raise_config_isr();
        assert_eq!(f.bar_read(0, ISR_OFFSET, 1, SimTime::ZERO), 2);
    }

    #[test]
    fn device_config_window_returns_mac() {
        let mut f = net_function();
        let b0 = f.bar_read(0, DEVICE_OFFSET, 4, SimTime::ZERO);
        assert_eq!(b0 & 0xff, 2); // first MAC byte
        let mtu = f.bar_read(0, DEVICE_OFFSET + 10, 2, SimTime::ZERO);
        assert_eq!(mtu, 1500);
        // Reads beyond the config contents return zero.
        assert_eq!(f.bar_read(0, DEVICE_OFFSET + 0x80, 4, SimTime::ZERO), 0);
    }

    #[test]
    fn register_access_counters() {
        let mut f = net_function();
        f.bar_read(0, common::DEVICE_STATUS, 1, SimTime::ZERO);
        f.bar_write(0, common::DEVICE_STATUS, 1, 1, SimTime::ZERO);
        f.bar_write(0, NOTIFY_OFFSET, 2, 0, SimTime::ZERO);
        assert_eq!(f.register_reads(), 1);
        assert_eq!(f.register_writes(), 2);
    }

    #[test]
    fn num_queues_register() {
        let mut f = net_function();
        assert_eq!(f.bar_read(0, common::NUM_QUEUES, 2, SimTime::ZERO), 2);
    }
}
