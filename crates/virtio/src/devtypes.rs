//! Device types, feature negotiation, and the status state machine.
//!
//! Virtio initialisation is a handshake: the driver acknowledges the
//! device, negotiates features, configures queues, then sets DRIVER_OK
//! (virtio 1.1 §3.1). [`DeviceState`] tracks that handshake for one
//! device; the virtio-pci transport ([`crate::pci`]) exposes it through
//! registers, and IO-Bond forwards those register accesses between the
//! compute board and the bm-hypervisor.

use crate::queue::QueueLayout;
use bmhive_mem::GuestAddr;

/// Device status register bits (virtio 1.1 §2.1).
pub mod status {
    /// The guest found the device.
    pub const ACKNOWLEDGE: u8 = 1;
    /// The guest knows how to drive it.
    pub const DRIVER: u8 = 2;
    /// The driver is set up and ready.
    pub const DRIVER_OK: u8 = 4;
    /// Feature negotiation is complete.
    pub const FEATURES_OK: u8 = 8;
    /// The device has experienced an unrecoverable error.
    pub const DEVICE_NEEDS_RESET: u8 = 64;
    /// The guest has given up on the device.
    pub const FAILED: u8 = 128;
}

/// Virtio device types (virtio 1.1 §5). Only the types BM-Hive's IO-Bond
/// currently emulates are listed; the paper notes other types "can be
/// easily extended ... with only minor changes" (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// virtio-net (device id 1).
    Net,
    /// virtio-blk (device id 2).
    Block,
    /// virtio-gpu used for the VGA console of §3.4.2 (device id 16).
    Gpu,
}

impl DeviceType {
    /// The virtio device id.
    pub fn device_id(self) -> u16 {
        match self {
            DeviceType::Net => 1,
            DeviceType::Block => 2,
            DeviceType::Gpu => 16,
        }
    }

    /// The PCI device id on the modern transport (`0x1040 + id`).
    pub fn pci_device_id(self) -> u16 {
        0x1040 + self.device_id()
    }

    /// Number of virtqueues the BM-Hive implementation configures:
    /// net has an rx/tx pair, blk and gpu have one request queue.
    pub fn queue_count(self) -> u16 {
        match self {
            DeviceType::Net => 2,
            DeviceType::Block | DeviceType::Gpu => 1,
        }
    }
}

/// Feature bits offered by BM-Hive's devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum Feature {
    /// Indirect descriptor support (bit 28).
    RingIndirectDesc = 1 << 28,
    /// `used_event` / `avail_event` notification thresholds (bit 29).
    RingEventIdx = 1 << 29,
    /// The device is virtio 1.x, not legacy (bit 32).
    Version1 = 1 << 32,
    /// virtio-net: device reports a MAC address (bit 5).
    NetMac = 1 << 5,
    /// virtio-net: device reports link status (bit 16).
    NetStatus = 1 << 16,
    /// virtio-blk: device reports flush support (bit 9).
    BlkFlush = 1 << 9,
}

/// Per-queue configuration written by the driver through the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueConfig {
    /// Queue size selected by the driver (0 = untouched).
    pub size: u16,
    /// Descriptor table address.
    pub desc: GuestAddr,
    /// Avail (driver area) address.
    pub avail: GuestAddr,
    /// Used (device area) address.
    pub used: GuestAddr,
    /// Whether the driver enabled the queue.
    pub enabled: bool,
    /// MSI-X vector for this queue.
    pub msix_vector: u16,
}

impl QueueConfig {
    /// The configured layout, if the queue is enabled with a valid size.
    pub fn layout(&self) -> Option<QueueLayout> {
        if self.enabled && self.size > 0 && self.size.is_power_of_two() {
            Some(QueueLayout {
                size: self.size,
                desc: self.desc,
                avail: self.avail,
                used: self.used,
            })
        } else {
            None
        }
    }
}

/// The negotiation and configuration state of one virtio device.
#[derive(Debug, Clone)]
pub struct DeviceState {
    device_type: DeviceType,
    device_features: u64,
    driver_features: u64,
    status: u8,
    queues: Vec<QueueConfig>,
    max_queue_size: u16,
    config_generation: u8,
}

impl DeviceState {
    /// Creates a device offering `device_features`, with
    /// [`DeviceType::queue_count`] queues of at most `max_queue_size`
    /// descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `max_queue_size` is not a power of two.
    pub fn new(device_type: DeviceType, device_features: u64, max_queue_size: u16) -> Self {
        Self::with_queue_count(
            device_type,
            device_features,
            max_queue_size,
            device_type.queue_count(),
        )
    }

    /// Like [`new`](Self::new) but with an explicit queue count — the
    /// multiqueue configurations behind the 4 M PPS instances
    /// (virtio-net exposes `max_virtqueue_pairs` rx/tx pairs; each pair
    /// is two queues here).
    ///
    /// # Panics
    ///
    /// Panics if `max_queue_size` is not a power of two or `queue_count`
    /// is zero.
    pub fn with_queue_count(
        device_type: DeviceType,
        device_features: u64,
        max_queue_size: u16,
        queue_count: u16,
    ) -> Self {
        assert!(
            max_queue_size.is_power_of_two(),
            "max_queue_size must be a power of two"
        );
        assert!(queue_count > 0, "need at least one queue");
        let queues = vec![
            QueueConfig {
                size: max_queue_size,
                ..QueueConfig::default()
            };
            usize::from(queue_count)
        ];
        DeviceState {
            device_type,
            device_features: device_features | Feature::Version1 as u64,
            driver_features: 0,
            status: 0,
            queues,
            max_queue_size,
            config_generation: 0,
        }
    }

    /// The device type.
    pub fn device_type(&self) -> DeviceType {
        self.device_type
    }

    /// Features the device offers.
    pub fn device_features(&self) -> u64 {
        self.device_features
    }

    /// Features the driver has written so far.
    pub fn driver_features(&self) -> u64 {
        self.driver_features
    }

    /// The negotiated feature set (device ∩ driver).
    pub fn negotiated_features(&self) -> u64 {
        self.device_features & self.driver_features
    }

    /// Records the driver's accepted features. Bits the device did not
    /// offer are ignored (masked), as transports do.
    pub fn set_driver_features(&mut self, features: u64) {
        self.driver_features = features & self.device_features;
    }

    /// The device status byte.
    pub fn device_status(&self) -> u8 {
        self.status
    }

    /// Driver writes to the status register. Writing 0 resets the device
    /// (clearing negotiation and queue state).
    pub fn set_device_status(&mut self, value: u8) {
        if value == 0 {
            self.reset();
        } else {
            self.status = value;
        }
    }

    /// Resets the device to power-on state, bumping the config
    /// generation.
    pub fn reset(&mut self) {
        self.status = 0;
        self.driver_features = 0;
        for q in &mut self.queues {
            *q = QueueConfig {
                size: self.max_queue_size,
                ..QueueConfig::default()
            };
        }
        self.config_generation = self.config_generation.wrapping_add(1);
    }

    /// Whether the handshake reached DRIVER_OK (the device is live).
    pub fn is_live(&self) -> bool {
        self.status & status::DRIVER_OK != 0 && self.status & status::FAILED == 0
    }

    /// Marks the device as needing reset (backend failure injection).
    pub fn mark_needs_reset(&mut self) {
        self.status |= status::DEVICE_NEEDS_RESET;
    }

    /// Number of queues.
    pub fn queue_count(&self) -> u16 {
        self.queues.len() as u16
    }

    /// Maximum queue size the device supports.
    pub fn max_queue_size(&self) -> u16 {
        self.max_queue_size
    }

    /// Borrows queue `index`'s configuration.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn queue(&self, index: u16) -> &QueueConfig {
        &self.queues[usize::from(index)]
    }

    /// Mutably borrows queue `index`'s configuration.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn queue_mut(&mut self, index: u16) -> &mut QueueConfig {
        &mut self.queues[usize::from(index)]
    }

    /// The config-space generation counter (bumped on reset/config
    /// change).
    pub fn config_generation(&self) -> u8 {
        self.config_generation
    }

    /// Performs the complete driver-side handshake in one call: status
    /// dance, feature negotiation (accepting everything offered), queue
    /// layout programming, DRIVER_OK. Returns the negotiated features.
    ///
    /// This is the shortcut the simulated guest kernels use once the
    /// transport-level handshake has been exercised elsewhere.
    pub fn driver_handshake(&mut self, layouts: &[QueueLayout]) -> u64 {
        self.set_device_status(status::ACKNOWLEDGE);
        self.set_device_status(status::ACKNOWLEDGE | status::DRIVER);
        let offered = self.device_features();
        self.set_driver_features(offered);
        self.set_device_status(status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK);
        for (i, layout) in layouts.iter().enumerate() {
            let q = self.queue_mut(i as u16);
            q.size = layout.size;
            q.desc = layout.desc;
            q.avail = layout.avail;
            q.used = layout.used;
            q.enabled = true;
        }
        self.set_device_status(
            status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::DRIVER_OK,
        );
        self.negotiated_features()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DeviceState {
        /// Whether a feature was offered and accepted.
        fn has_feature(&self, feature: Feature) -> bool {
            self.negotiated_features() & feature as u64 != 0
        }
    }

    #[test]
    fn device_ids_match_spec() {
        assert_eq!(DeviceType::Net.device_id(), 1);
        assert_eq!(DeviceType::Block.device_id(), 2);
        assert_eq!(DeviceType::Net.pci_device_id(), 0x1041);
        assert_eq!(DeviceType::Block.pci_device_id(), 0x1042);
        assert_eq!(DeviceType::Net.queue_count(), 2);
        assert_eq!(DeviceType::Block.queue_count(), 1);
    }

    #[test]
    fn version1_is_always_offered() {
        let dev = DeviceState::new(DeviceType::Net, 0, 256);
        assert!(dev.device_features() & Feature::Version1 as u64 != 0);
    }

    #[test]
    fn negotiation_masks_unoffered_bits() {
        let mut dev = DeviceState::new(
            DeviceType::Net,
            Feature::NetMac as u64 | Feature::RingIndirectDesc as u64,
            256,
        );
        dev.set_driver_features(u64::MAX);
        assert!(dev.has_feature(Feature::NetMac));
        assert!(dev.has_feature(Feature::RingIndirectDesc));
        // BlkFlush was never offered; accepting everything does not grant it.
        assert!(!dev.has_feature(Feature::BlkFlush));
    }

    #[test]
    fn handshake_reaches_driver_ok() {
        let mut dev = DeviceState::new(DeviceType::Block, Feature::BlkFlush as u64, 128);
        assert!(!dev.is_live());
        let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 128);
        let negotiated = dev.driver_handshake(&[layout]);
        assert!(dev.is_live());
        assert!(negotiated & Feature::BlkFlush as u64 != 0);
        assert_eq!(dev.queue(0).layout().unwrap(), layout);
    }

    #[test]
    fn reset_clears_everything_and_bumps_generation() {
        let mut dev = DeviceState::new(DeviceType::Net, Feature::NetMac as u64, 256);
        let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 256);
        dev.driver_handshake(&[layout, layout]);
        let gen_before = dev.config_generation();
        dev.set_device_status(0);
        assert!(!dev.is_live());
        assert_eq!(dev.driver_features(), 0);
        assert_eq!(dev.queue(0).layout(), None);
        assert_eq!(dev.queue(0).size, 256);
        assert_ne!(dev.config_generation(), gen_before);
    }

    #[test]
    fn failed_status_means_not_live() {
        let mut dev = DeviceState::new(DeviceType::Net, 0, 16);
        dev.set_device_status(status::DRIVER_OK | status::FAILED);
        assert!(!dev.is_live());
    }

    #[test]
    fn needs_reset_flag_sets() {
        let mut dev = DeviceState::new(DeviceType::Block, 0, 16);
        dev.mark_needs_reset();
        assert!(dev.device_status() & status::DEVICE_NEEDS_RESET != 0);
    }

    #[test]
    fn disabled_or_bad_queue_has_no_layout() {
        let q = QueueConfig {
            size: 12, // not a power of two
            enabled: true,
            ..QueueConfig::default()
        };
        assert_eq!(q.layout(), None);
        let q = QueueConfig {
            size: 16,
            enabled: false,
            ..QueueConfig::default()
        };
        assert_eq!(q.layout(), None);
    }
}
