//! A simulated PCIe fabric.
//!
//! IO-Bond presents each virtio device to the bm-guest as "a normal PCIe
//! device that can be discovered, configured, and used as one" (§3.3).
//! This crate provides what that requires:
//!
//! * [`ConfigSpace`] — a type-0 PCI configuration-space with a capability
//!   list, read-only field masking, and the standard BAR sizing protocol.
//! * [`PciDevice`] — the trait every emulated endpoint implements
//!   (IO-Bond's virtio functions, the compute-board control function).
//! * [`PciBus`] — a root-complex bus that enumerates devices by
//!   bus/device/function, maps their BARs into an MMIO window, and routes
//!   memory reads/writes to the owning device.
//! * [`PcieLink`] — the timing model of a link: the paper's 0.8 µs
//!   FPGA-era posted-write latency and per-lane bandwidth (x4 = 32 Gbit/s,
//!   x8 backing the pair).
//!
//! # Example
//!
//! ```
//! use bmhive_pcie::{Bdf, ConfigSpace, PciBus};
//!
//! let cfg = ConfigSpace::builder(0x1af4, 0x1041) // virtio-net modern ID
//!     .class(0x02, 0x00, 0x00)
//!     .bar_mem32(0, 0x4000)
//!     .build();
//! assert_eq!(cfg.read(0x00, 4), 0x1041_1af4); // device id | vendor id
//! ```

pub mod bus;
pub mod config;
pub mod link;

pub use bus::{Bdf, MappedBar, PciBus, PciDevice};
pub use config::{Capability, ConfigSpace, ConfigSpaceBuilder};
pub use link::{LinkGen, PcieLink};
