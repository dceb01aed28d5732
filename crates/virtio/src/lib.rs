//! A functional virtio implementation.
//!
//! Virtio is the contract that makes BM-Hive interoperable with the
//! VM-based cloud (§3.1): the same guest image drives the same
//! para-virtual devices whether its "hypervisor" is KVM or a compute
//! board behind IO-Bond. This crate implements that contract as real,
//! runnable logic — descriptors are chained, rings wrap, buffers are
//! copied — over the simulated guest memory of [`bmhive_mem`]:
//!
//! * [`queue`] — the split virtqueue from the device side:
//!   [`Virtqueue::pop_avail`] walks descriptor chains (direct and
//!   indirect) out of guest RAM, [`Virtqueue::push_used`] completes them.
//! * [`driver`] — the guest-kernel side: [`VirtqueueDriver`] formats
//!   descriptor tables, posts buffers, and reaps completions, exactly as
//!   a virtio kernel driver would.
//! * [`devtypes`] — device status / feature negotiation state machine
//!   shared by every device ([`DeviceState`]).
//! * [`net`] / [`blk`] — the virtio-net and virtio-blk wire formats
//!   (headers, config layouts, request status codes).
//! * [`pci`] — the modern virtio-pci transport: the common-config
//!   register file, notify/ISR/device-config BAR windows, and the
//!   vendor capabilities that advertise them. This register file is what
//!   IO-Bond's FPGA emulates on the compute board's PCIe bus (§3.4.1).
//!
//! # Example: a driver/device round trip over shared guest RAM
//!
//! ```
//! use bmhive_mem::{GuestAddr, GuestRam, SgSegment};
//! use bmhive_virtio::{QueueLayout, Virtqueue, VirtqueueDriver};
//!
//! let mut ram = GuestRam::new(1 << 20);
//! let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 8);
//! let mut driver = VirtqueueDriver::new(&mut ram, layout).unwrap();
//! let mut device = Virtqueue::new(layout);
//!
//! // Driver posts a 4-byte readable buffer.
//! ram.write(GuestAddr::new(0x8000), b"ping").unwrap();
//! let head = driver
//!     .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x8000), 4)], &[])
//!     .unwrap();
//!
//! // Device pops it, reads the payload, completes it.
//! let chain = device.pop_avail(&ram).unwrap().unwrap();
//! let mut payload = Vec::new();
//! chain.readable.gather_into(&ram, &mut payload).unwrap();
//! assert_eq!(payload, b"ping");
//! device.push_used(&mut ram, chain.head, 0).unwrap();
//!
//! // Driver reaps the completion.
//! assert_eq!(driver.poll_used(&ram).unwrap(), Some((head, 0)));
//! ```

pub mod blk;
pub mod devtypes;
pub mod driver;
pub mod net;
pub mod pci;
pub mod queue;

pub use blk::{BlkConfig, BlkRequestHeader, BlkRequestType, BlkStatus, SECTOR_SIZE};
pub use devtypes::{status, DeviceState, DeviceType, Feature};
pub use driver::VirtqueueDriver;
pub use net::{NetConfig, VirtioNetHeader, VIRTIO_NET_HDR_LEN};
pub use pci::{VirtioPciFunction, CAP_COMMON_CFG, CAP_DEVICE_CFG, CAP_ISR_CFG, CAP_NOTIFY_CFG};
pub use queue::{DescChain, QueueLayout, VirtioError, Virtqueue};
