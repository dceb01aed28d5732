//! Hypervisors: the bm-hypervisor and the KVM-style baseline.
//!
//! §3.2: "The bm-hypervisor, which is also a user-space process similar
//! to vm-hypervisor, is responsible for managing the life cycle of
//! bm-guests, providing the backend support for virtio devices, and
//! interfacing with the cloud infrastructure. ... Every bm-hypervisor
//! process provides service to one bm-guest only."
//!
//! * [`GuestSession`] — one guest over a [`Transport`]: its MAC, RAM,
//!   virtio driver and virtio backend, and each guest op (`net_send`,
//!   `net_receive`, `blk_request`) written once. The transport holds
//!   only what differs per platform.
//! * [`bm`] — [`BmGuestSession`], a session over IO-Bond: one
//!   bm-guest's full functional stack — compute-board RAM, IO-Bond
//!   net/blk devices with shadow vrings in the backend process's base
//!   RAM, poll-mode backends, and rate limits. Packets and block
//!   requests really traverse the rings and both memory domains.
//! * [`vm`] — [`VmGuestSession`], a session over vhost: the baseline —
//!   the same virtio rings in one shared memory, and the KVM cost model
//!   (kick exits, host copies, interrupt injection, halt wakeups).
//! * [`boot`] — the §3.2 boot flow: EFI firmware loading the bootloader
//!   and kernel over virtio-blk from cloud storage; the same image boots
//!   on either platform (cold migration).
//! * [`path`] — calibrated per-operation latency/throughput models for
//!   the million-packet experiments, where driving the functional rings
//!   per packet would be waste. The vm path reads [`vm`]'s KVM costs
//!   and completion sampler; the bm path reads the IO-Bond profile and
//!   is pinned to [`BmGuestSession`] by an exact differential test.
//!
//! Beyond the deployed system, the §6 extensions are implemented too —
//! `upgrade` (Orthus-style live upgrade of a [`BmGuestSession`]'s
//! backend), `migrate` (the on-demand-virtualization live-migration
//! prototype, with its two documented drawbacks as first-class errors),
//! and `slowpath` (the undeployed tap-device test path, priced to show
//! why it stayed undeployed).

pub mod bm;
pub mod boot;
pub mod migrate;
pub mod path;
pub mod pmd;
mod session;
pub mod slowpath;
pub mod upgrade;
pub mod vm;

pub use bm::{BmGuestSession, BoardOutage};
pub use boot::{boot_guest, BootReport};
pub use migrate::{convert_to_bm, convert_to_vm, GuestOs, MigrationError, MigrationPolicy};
pub use path::IoPath;
pub use pmd::BackendMode;
pub use session::{EgressPacket, GuestSession, IoTiming, SessionError, Transport};
pub use slowpath::NetBackendPath;
pub use upgrade::{BackendState, UpgradeReport};
pub use vm::VmGuestSession;

// The fault injector is thread-local and each test runs on its own
// thread, so fault tests across this crate need no serialization.
