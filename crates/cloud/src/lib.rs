//! The cloud infrastructure BM-Hive plugs into.
//!
//! §3.4.2: "all the I/O requests are handled in the user space with
//! vhost-user protocol interfacing to cloud infrastructure: the
//! customized DPDK vSwitch and the SPDK cloud storage." This crate
//! models that infrastructure — identically for vm-guests and bm-guests,
//! which is the architectural point of the hybrid virtio design:
//!
//! * [`vswitch`] — the poll-mode vSwitch forwarding guest frames between
//!   local ports and the server uplink.
//! * [`blockstore`] — the SSD-backed cloud block store reached over the
//!   network, plus the local-SSD fast path used in the unrestricted
//!   Fig. 11 measurements.
//! * [`limits`] — per-instance rate caps (4 M PPS, 10 Gbit/s, 25 K IOPS,
//!   300 MB/s, §4.1).
//! * [`catalog`] — the Table 3 instance catalog and the board-count
//!   constraint solver (power / slots / I/O).
//! * [`fleet`] — synthetic fleet populations reproducing the §2
//!   production measurements (Table 2's exit census, Fig. 1's preemption
//!   percentiles).
//! * [`image`] — machine images: the same image boots as a vm-guest or a
//!   bm-guest (cold migration, §3.1).
//! * [`security`] — the structural security/isolation comparison behind
//!   Table 1.
//! * [`cost`] — the §3.5 density, TDP and price analysis.

pub mod blockstore;
pub mod catalog;
pub mod cost;
pub mod firmware;
pub mod fleet;
pub mod image;
pub mod limits;
pub mod security;
pub mod vswitch;

pub use blockstore::{BlockStore, StorageClass};
pub use catalog::{InstanceType, ServerConstraints, INSTANCE_CATALOG};
pub use cost::DensityReport;
pub use firmware::{FirmwareError, FirmwareImage, FirmwareStore, SigningKey};
pub use fleet::{ExitCensus, PreemptionStudy};
pub use image::MachineImage;
pub use limits::InstanceLimits;
pub use security::{ServiceKind, ServiceProfile};
pub use vswitch::{PortId, VSwitch};

// The fault injector is thread-local and each test runs on its own
// thread, so fault tests across this crate need no serialization.
