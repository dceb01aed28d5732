//! # BM-Hive: a high-density multi-tenant bare-metal cloud
//!
//! A from-scratch reproduction of *High-density Multi-tenant Bare-metal
//! Cloud* (ASPLOS '20): each tenant's guest runs on its own *compute
//! board* — dedicated CPU and memory on a PCIe card — while **IO-Bond**,
//! a hardware–software hybrid virtio bridge, connects the guest to the
//! cloud's network and storage through shadow vrings in the
//! bm-hypervisor's memory.
//!
//! This crate is the façade: it owns the [`BmHiveServer`] type (base
//! server + up to 16 compute boards + vSwitch + cloud services) and
//! re-exports the whole stack through [`prelude`].
//!
//! ## Quickstart
//!
//! ```
//! use bmhive_core::prelude::*;
//!
//! // A production BM-Hive server with one E5 compute board.
//! let mut server = BmHiveServer::new(ServerConstraints::production(), 42);
//! let board = server.install_board(&INSTANCE_CATALOG[0]).unwrap();
//!
//! // Power it on with a stock CentOS image: the EFI firmware boots the
//! // guest over virtio-blk from cloud storage.
//! let image = MachineImage::centos_evaluation(1);
//! let guest = server.power_on(board, &image, SimTime::ZERO).unwrap();
//!
//! // The guest is live: send a packet into the cloud network.
//! let report = server
//!     .guest_send(guest, MacAddr::for_guest(99), b"hello cloud", SimTime::from_secs(1))
//!     .unwrap();
//! assert!(report.latency() > SimDuration::ZERO);
//! ```
//!
//! ## Crate map
//!
//! | Layer | Crate |
//! |---|---|
//! | simulation kernel | `bmhive-sim` |
//! | guest memory / DMA | `bmhive-mem` |
//! | PCIe fabric | `bmhive-pcie` |
//! | virtio (rings, net, blk, pci) | `bmhive-virtio` |
//! | IO-Bond (shadow vrings) | `bmhive-iobond` |
//! | CPU / memory platform models | `bmhive-cpu` |
//! | packet network | `bmhive-net` |
//! | cloud infrastructure | `bmhive-cloud` |
//! | hypervisors (bm + KVM baseline) | `bmhive-hypervisor` |
//! | paper workloads | `bmhive-workloads` |

pub mod control;
pub mod server;

pub use control::{ControlPlane, ControlRequest, ControlResponse};
pub use server::{BmHiveServer, BoardId, GuestId, ServerError};

/// Everything a downstream user typically needs, in one import.
pub mod prelude {
    pub use crate::control::{ControlPlane, ControlRequest, ControlResponse};
    pub use crate::server::{BmHiveServer, BoardId, GuestId, ServerError};
    pub use bmhive_cloud::blockstore::{BlockStore, IoKind, StorageClass};
    pub use bmhive_cloud::catalog::{InstanceType, ServerConstraints, INSTANCE_CATALOG};
    pub use bmhive_cloud::cost::CostModel;
    pub use bmhive_cloud::image::{ImageService, MachineImage};
    pub use bmhive_cloud::limits::InstanceLimits;
    pub use bmhive_cloud::scheduler::Scheduler;
    pub use bmhive_cloud::security::{ServiceKind, ServiceProfile};
    pub use bmhive_cpu::{CpuWork, Platform, VirtTax};
    pub use bmhive_hypervisor::{boot_guest, BmGuestSession, BootReport, IoPath, VmGuestSession};
    pub use bmhive_iobond::{IoBondDevice, IoBondProfile};
    pub use bmhive_net::{MacAddr, NetLink, Packet, PacketKind};
    pub use bmhive_sim::{Histogram, Series, SimDuration, SimRng, SimTime, Summary};
    pub use bmhive_virtio::{
        BlkRequestHeader, BlkRequestType, BlkStatus, DeviceType, QueueLayout, Virtqueue,
        VirtqueueDriver,
    };
    pub use bmhive_workloads::GuestEnv;
}
