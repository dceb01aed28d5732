//! IO-Bond: the FPGA (or ASIC) bridge at the heart of BM-Hive (§3.4).
//!
//! IO-Bond sits between two PCIe buses. Toward the compute board it
//! *emulates* virtio PCI devices (the frontend); toward the base server
//! it exposes *shadow vrings*, mailbox registers, and per-ring head/tail
//! registers that the bm-hypervisor polls (the backend). A built-in DMA
//! engine shuttles descriptors and data between the two memory domains,
//! because — unlike a vm-guest and its hypervisor — the bm-guest and the
//! bm-hypervisor share no physical memory (§3.4.1, Fig. 4).
//!
//! The crate models IO-Bond at the level the paper measures it:
//!
//! * [`IoBondProfile`] — the latency/bandwidth constants: 0.8 µs per PCI
//!   register hop on the FPGA (0.2 µs projected for the ASIC, §6),
//!   50 Gbit/s internal DMA, PCIe x4 per device / x8 to the base.
//! * [`ShadowQueue`] — one guest virtqueue paired with its shadow vring:
//!   [`ShadowQueue::sync_to_shadow`] moves posted chains board → base,
//!   [`ShadowQueue::sync_from_shadow`] moves completions base → board
//!   and charges the guest MSI. Head/tail registers expose progress to
//!   the polling bm-hypervisor.
//! * [`IoBondDevice`] — a full device: the virtio-pci frontend function
//!   plus one shadow queue per virtqueue and a staging-buffer pool in
//!   base memory.
//! * [`steps`] — the 14-step Tx/Rx protocol of Fig. 6 with per-step
//!   costs, used by the `iobond` bench and the latency model.

pub mod device;
pub mod offload;
pub mod pool;
pub mod profile;
pub mod shadow;
pub mod steps;

pub use device::{IoBondDevice, RecoveryReport, ServiceReport};
pub use offload::OffloadConfig;
pub use pool::StagingPool;
pub use profile::IoBondProfile;
pub use shadow::{GuestCompletion, ShadowQueue, SyncReport};
pub use steps::{tx_rx_steps, Step};

// The fault injector is thread-local and each test runs on its own
// thread, so fault tests across this crate need no serialization.
