//! The split virtqueue, device side.
//!
//! Layout (virtio 1.1 §2.6): a descriptor table of 16-byte entries, an
//! avail (driver) ring, and a used (device) ring. The driver publishes
//! descriptor chain heads in the avail ring; the device walks the chains,
//! performs I/O, and returns heads through the used ring.
//!
//! In BM-Hive this structure exists twice per queue: once in compute
//! board RAM (driven by the bm-guest) and once in base RAM (the *shadow
//! vring*, driven by the bm-hypervisor). IO-Bond keeps the two in sync
//! (§3.4.1, Fig. 4) — see the `bmhive-iobond` crate.

use bmhive_mem::{GuestAddr, GuestRam, MemError, SgList, SgSegment};
use bmhive_telemetry as telemetry;
use std::error::Error;
use std::fmt;

/// Descriptor flag: the chain continues at `next`.
pub const DESC_F_NEXT: u16 = 1;
/// Descriptor flag: the buffer is device-writable.
pub const DESC_F_WRITE: u16 = 2;
/// Descriptor flag: the descriptor points to an indirect table.
pub const DESC_F_INDIRECT: u16 = 4;

const DESC_ENTRY: u64 = 16;

/// The `vring_need_event` predicate of virtio 1.1 §2.6.7.2: whether
/// moving an index from `old` to `new` crosses the other side's event
/// threshold `event` (all in wrapping u16 arithmetic).
///
/// # Example
///
/// ```
/// use bmhive_virtio::queue::need_event;
///
/// // The driver asked to be told when used idx passes 5.
/// assert!(need_event(5, 6, 5));   // 5 -> 6 crosses
/// assert!(!need_event(5, 5, 4));  // 4 -> 5 does not (event is "passed 5")
/// assert!(need_event(0xffff, 0, 0xffff)); // wrap-around crossing
/// ```
pub fn need_event(event: u16, new: u16, old: u16) -> bool {
    new.wrapping_sub(event).wrapping_sub(1) < new.wrapping_sub(old)
}

/// Errors arising while the device parses driver-provided rings.
///
/// A malicious or buggy guest controls every byte of the descriptor
/// table, so all of these are reachable from guest input and must be
/// handled without panicking — this is the isolation boundary of §3.1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VirtioError {
    /// The ring or a buffer referenced memory outside guest RAM.
    Mem(MemError),
    /// A descriptor chain was longer than the queue size (a loop, per the
    /// spec's defensive guidance).
    ChainTooLong,
    /// A `next` index referenced a descriptor beyond the table.
    BadNextIndex(u16),
    /// An avail entry named a head index beyond the table.
    BadHeadIndex(u16),
    /// A readable descriptor followed a writable one (spec violation).
    ReadableAfterWritable,
    /// An indirect descriptor had disallowed flags or a malformed table.
    BadIndirect(&'static str),
    /// A chain needs more staging slots than the device has in total,
    /// so it could never be staged however long it waited.
    ChainTooLarge {
        /// Staging slots the chain needs.
        needed: u64,
        /// Staging slots the device has.
        capacity: u32,
    },
    /// A chain's descriptors hold no bytes at all, so there is nothing
    /// to stage or carry.
    EmptyChain,
    /// The driver moved the avail index more entries past the device's
    /// cursor than the ring holds (Linux vhost: "Guest moved avail
    /// index").
    AvailIdxJump {
        /// Entries the forged index claims are pending.
        pending: u16,
        /// The queue size.
        size: u16,
    },
}

impl fmt::Display for VirtioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VirtioError::Mem(e) => write!(f, "guest memory fault: {e}"),
            VirtioError::ChainTooLong => write!(f, "descriptor chain exceeds queue size"),
            VirtioError::BadNextIndex(i) => write!(f, "descriptor next index {i} out of range"),
            VirtioError::BadHeadIndex(i) => write!(f, "avail head index {i} out of range"),
            VirtioError::ReadableAfterWritable => {
                write!(f, "readable descriptor after writable descriptor")
            }
            VirtioError::BadIndirect(why) => write!(f, "bad indirect descriptor: {why}"),
            VirtioError::ChainTooLarge { needed, capacity } => write!(
                f,
                "descriptor chain needs {needed} staging slots, more than the {capacity} there are"
            ),
            VirtioError::EmptyChain => write!(f, "descriptor chain holds no bytes"),
            VirtioError::AvailIdxJump { pending, size } => write!(
                f,
                "guest moved avail index {pending} entries ahead of a {size}-entry queue"
            ),
        }
    }
}

impl Error for VirtioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VirtioError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for VirtioError {
    fn from(e: MemError) -> Self {
        VirtioError::Mem(e)
    }
}

/// Where the three parts of a split virtqueue live in guest memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueLayout {
    /// Number of descriptors; a power of two up to 32768.
    pub size: u16,
    /// Descriptor table base.
    pub desc: GuestAddr,
    /// Avail (driver) ring base.
    pub avail: GuestAddr,
    /// Used (device) ring base.
    pub used: GuestAddr,
}

impl QueueLayout {
    /// Lays the three rings out contiguously from `base` with the
    /// alignments the spec requires (descriptor table 16, avail 2,
    /// used 4).
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two in `1..=32768` or `base`
    /// is not 16-byte aligned.
    pub fn contiguous(base: GuestAddr, size: u16) -> Self {
        assert!(
            size.is_power_of_two() && size <= 32768,
            "queue size must be a power of two <= 32768"
        );
        assert!(base.is_aligned(16), "queue base must be 16-byte aligned");
        let desc = base;
        let avail = desc + u64::from(size) * DESC_ENTRY;
        // Avail ring: flags + idx + ring[size] + used_event.
        let avail_bytes = 2 + 2 + 2 * u64::from(size) + 2;
        let used = (avail + avail_bytes).align_up(4);
        QueueLayout {
            size,
            desc,
            avail,
            used,
        }
    }

    /// Total bytes of guest memory the rings occupy (from `desc` to the
    /// end of the used ring).
    pub fn footprint(&self) -> u64 {
        let used_bytes = 2 + 2 + 8 * u64::from(self.size) + 2;
        (self.used + used_bytes) - self.desc
    }

    pub(crate) fn desc_addr(&self, index: u16) -> GuestAddr {
        self.desc + u64::from(index) * DESC_ENTRY
    }

    pub(crate) fn avail_idx_addr(&self) -> GuestAddr {
        self.avail + 2
    }

    pub(crate) fn avail_ring_addr(&self, slot: u16) -> GuestAddr {
        self.avail + 4 + 2 * u64::from(slot)
    }

    pub(crate) fn used_idx_addr(&self) -> GuestAddr {
        self.used + 2
    }

    pub(crate) fn used_ring_addr(&self, slot: u16) -> GuestAddr {
        self.used + 4 + 8 * u64::from(slot)
    }

    /// Address of the device's `avail_event` field (tail of the used
    /// ring; meaningful only with EVENT_IDX negotiated).
    pub fn avail_event_addr(&self) -> GuestAddr {
        self.used + 4 + 8 * u64::from(self.size)
    }
}

/// One descriptor-table entry: the 16-byte `struct virtq_desc` of
/// virtio 1.1 §2.6.5, little-endian `addr`, `len`, `flags`, `next`.
/// The device side ([`Virtqueue`]) and the driver side
/// ([`VirtqueueDriver`](crate::VirtqueueDriver)) both move it as one
/// record: one bounds check and one page lookup per descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Descriptor {
    pub(crate) addr: u64,
    pub(crate) len: u32,
    pub(crate) flags: u16,
    pub(crate) next: u16,
}

impl Descriptor {
    /// Reads the entry at `at`.
    pub(crate) fn read(ram: &GuestRam, at: GuestAddr) -> Result<Self, MemError> {
        let [a0, a1, a2, a3, a4, a5, a6, a7, l0, l1, l2, l3, f0, f1, n0, n1] =
            ram.read_array(at)?;
        Ok(Descriptor {
            addr: u64::from_le_bytes([a0, a1, a2, a3, a4, a5, a6, a7]),
            len: u32::from_le_bytes([l0, l1, l2, l3]),
            flags: u16::from_le_bytes([f0, f1]),
            next: u16::from_le_bytes([n0, n1]),
        })
    }

    /// Writes the entry at `at`.
    pub(crate) fn write(self, ram: &mut GuestRam, at: GuestAddr) -> Result<(), MemError> {
        let mut record = [0u8; DESC_ENTRY as usize];
        record[..8].copy_from_slice(&self.addr.to_le_bytes());
        record[8..12].copy_from_slice(&self.len.to_le_bytes());
        record[12..14].copy_from_slice(&self.flags.to_le_bytes());
        record[14..].copy_from_slice(&self.next.to_le_bytes());
        ram.write_array(at, record)
    }

    /// Files the buffer this entry names under the chain's readable or
    /// writable list.
    fn push_segment(self, readable: &mut SgList, writable: &mut SgList) -> Result<(), VirtioError> {
        let seg = SgSegment::new(GuestAddr::new(self.addr), self.len);
        if self.flags & DESC_F_WRITE != 0 {
            writable.push(seg);
        } else {
            if !writable.is_empty() {
                return Err(VirtioError::ReadableAfterWritable);
            }
            readable.push(seg);
        }
        Ok(())
    }
}

/// One used-ring element: the 8-byte `struct virtq_used_elem` of virtio
/// 1.1 §2.6.8, the completed chain's head `id` and the bytes the device
/// wrote, moved as one record like [`Descriptor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UsedElem {
    pub(crate) id: u32,
    pub(crate) len: u32,
}

impl UsedElem {
    /// Reads the element at `at`.
    pub(crate) fn read(ram: &GuestRam, at: GuestAddr) -> Result<Self, MemError> {
        let [i0, i1, i2, i3, l0, l1, l2, l3] = ram.read_array(at)?;
        Ok(UsedElem {
            id: u32::from_le_bytes([i0, i1, i2, i3]),
            len: u32::from_le_bytes([l0, l1, l2, l3]),
        })
    }

    /// Writes the element at `at`.
    pub(crate) fn write(self, ram: &mut GuestRam, at: GuestAddr) -> Result<(), MemError> {
        let mut record = [0u8; 8];
        record[..4].copy_from_slice(&self.id.to_le_bytes());
        record[4..].copy_from_slice(&self.len.to_le_bytes());
        ram.write_array(at, record)
    }
}

/// A popped descriptor chain: the head index to return through the used
/// ring, plus the driver-readable and device-writable buffer lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescChain {
    /// Head descriptor index (the used-ring id).
    pub head: u16,
    /// Buffers the device may read (request data).
    pub readable: SgList,
    /// Buffers the device may write (response data).
    pub writable: SgList,
}

impl DescChain {
    /// Total bytes across both directions.
    pub fn total_len(&self) -> u64 {
        self.readable.total_len() + self.writable.total_len()
    }
}

/// Device-side view of one split virtqueue.
///
/// Holds only the device's private cursors (`last_avail_idx`,
/// `used_idx`); all shared state lives in guest RAM, as on hardware.
#[derive(Debug, Clone)]
pub struct Virtqueue {
    layout: QueueLayout,
    last_avail_idx: u16,
    used_idx: u16,
    popped: u64,
    completed: u64,
}

impl Virtqueue {
    /// Creates a device-side queue over `layout`.
    pub fn new(layout: QueueLayout) -> Self {
        Virtqueue {
            layout,
            last_avail_idx: 0,
            used_idx: 0,
            popped: 0,
            completed: 0,
        }
    }

    /// The queue's memory layout.
    pub fn layout(&self) -> &QueueLayout {
        &self.layout
    }

    /// Queue size in descriptors.
    pub fn size(&self) -> u16 {
        self.layout.size
    }

    /// Number of avail entries not yet popped by the device.
    ///
    /// # Errors
    ///
    /// Fails if the avail index cannot be read from guest RAM, or with
    /// [`VirtioError::AvailIdxJump`] if it runs more than the queue size
    /// ahead of the device's cursor: the ring cannot hold that many
    /// entries, so popping them would revisit slots the driver never
    /// refilled.
    pub fn pending(&self, ram: &GuestRam) -> Result<u16, VirtioError> {
        let avail_idx = ram.read_u16(self.layout.avail_idx_addr())?;
        let pending = avail_idx.wrapping_sub(self.last_avail_idx);
        if pending > self.layout.size {
            return Err(VirtioError::AvailIdxJump {
                pending,
                size: self.layout.size,
            });
        }
        Ok(pending)
    }

    /// Pops the next available descriptor chain, if any.
    ///
    /// # Errors
    ///
    /// Returns a [`VirtioError`] if the driver's ring state is malformed
    /// (out-of-range indices, loops, readable-after-writable, bad
    /// indirect tables, memory faults). The queue's cursor still
    /// advances past the bad entry so one malformed chain cannot wedge
    /// the queue.
    pub fn pop_avail(&mut self, ram: &GuestRam) -> Result<Option<DescChain>, VirtioError> {
        if self.pending(ram)? == 0 {
            return Ok(None);
        }
        let slot = self.last_avail_idx % self.layout.size;
        let head = ram.read_u16(self.layout.avail_ring_addr(slot))?;
        self.last_avail_idx = self.last_avail_idx.wrapping_add(1);
        if head >= self.layout.size {
            return Err(VirtioError::BadHeadIndex(head));
        }
        let chain = self.walk_chain(ram, head)?;
        self.popped += 1;
        telemetry::counter("virtio.chains_popped", 1);
        Ok(Some(chain))
    }

    fn walk_chain(&self, ram: &GuestRam, head: u16) -> Result<DescChain, VirtioError> {
        let mut readable = SgList::new();
        let mut writable = SgList::new();
        let mut index = head;
        let mut hops = 0u32;
        loop {
            if hops >= u32::from(self.layout.size) {
                return Err(VirtioError::ChainTooLong);
            }
            hops += 1;
            let desc = Descriptor::read(ram, self.layout.desc_addr(index))?;
            if desc.flags & DESC_F_INDIRECT != 0 {
                if desc.flags & DESC_F_NEXT != 0 {
                    return Err(VirtioError::BadIndirect("INDIRECT combined with NEXT"));
                }
                if desc.len % 16 != 0 || desc.len == 0 {
                    return Err(VirtioError::BadIndirect(
                        "table length not a multiple of 16",
                    ));
                }
                self.walk_indirect(ram, desc, &mut readable, &mut writable)?;
                break;
            }
            desc.push_segment(&mut readable, &mut writable)?;
            if desc.flags & DESC_F_NEXT == 0 {
                break;
            }
            if desc.next >= self.layout.size {
                return Err(VirtioError::BadNextIndex(desc.next));
            }
            index = desc.next;
        }
        Ok(DescChain {
            head,
            readable,
            writable,
        })
    }

    fn walk_indirect(
        &self,
        ram: &GuestRam,
        table: Descriptor,
        readable: &mut SgList,
        writable: &mut SgList,
    ) -> Result<(), VirtioError> {
        let count = table.len / 16;
        if count > u32::from(self.layout.size) {
            return Err(VirtioError::BadIndirect("table larger than queue size"));
        }
        let base = GuestAddr::new(table.addr);
        let mut index = 0u32;
        let mut hops = 0u32;
        loop {
            if hops >= count {
                return Err(VirtioError::BadIndirect("chain loops inside table"));
            }
            hops += 1;
            let desc = Descriptor::read(ram, base + u64::from(index) * DESC_ENTRY)?;
            if desc.flags & DESC_F_INDIRECT != 0 {
                return Err(VirtioError::BadIndirect("nested indirect descriptor"));
            }
            desc.push_segment(readable, writable)?;
            if desc.flags & DESC_F_NEXT == 0 {
                return Ok(());
            }
            if u32::from(desc.next) >= count {
                return Err(VirtioError::BadIndirect("next beyond table"));
            }
            index = u32::from(desc.next);
        }
    }

    /// Completes a chain: writes `(head, written)` into the used ring and
    /// publishes the new used index.
    ///
    /// # Errors
    ///
    /// Fails on guest memory faults.
    pub fn push_used(
        &mut self,
        ram: &mut GuestRam,
        head: u16,
        written: u32,
    ) -> Result<(), VirtioError> {
        let slot = self.used_idx % self.layout.size;
        let elem = UsedElem {
            id: u32::from(head),
            len: written,
        };
        elem.write(ram, self.layout.used_ring_addr(slot))?;
        self.used_idx = self.used_idx.wrapping_add(1);
        ram.write_u16(self.layout.used_idx_addr(), self.used_idx)?;
        self.completed += 1;
        telemetry::counter("virtio.used_completions", 1);
        Ok(())
    }

    /// With EVENT_IDX negotiated: publishes the device's `avail_event`,
    /// telling the driver "kick me once the avail index passes this".
    /// Poll-mode backends set it far ahead to suppress all kicks.
    ///
    /// # Errors
    ///
    /// Fails on guest memory faults.
    pub fn set_avail_event(&mut self, ram: &mut GuestRam, value: u16) -> Result<(), VirtioError> {
        ram.write_u16(self.layout.avail_event_addr(), value)?;
        Ok(())
    }

    /// Total chains popped so far.
    pub fn popped_count(&self) -> u64 {
        self.popped
    }

    /// Total chains completed so far.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// The device's current used index (for shadow-ring synchronisation).
    pub fn used_idx(&self) -> u16 {
        self.used_idx
    }

    /// The device's avail cursor (for shadow-ring synchronisation).
    pub fn last_avail_idx(&self) -> u16 {
        self.last_avail_idx
    }

    /// Restores the device's private cursors from a snapshot — the live
    /// upgrade path (§6): a new backend process resumes consuming a ring
    /// exactly where its predecessor stopped.
    pub fn restore_cursors(&mut self, last_avail_idx: u16, used_idx: u16) {
        self.last_avail_idx = last_avail_idx;
        self.used_idx = used_idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::VirtqueueDriver;
    use bmhive_sim::SimRng;

    fn setup(size: u16) -> (GuestRam, VirtqueueDriver, Virtqueue) {
        let mut ram = GuestRam::new(1 << 20);
        let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), size);
        let driver = VirtqueueDriver::new(&mut ram, layout).unwrap();
        let device = Virtqueue::new(layout);
        (ram, driver, device)
    }

    #[test]
    fn layout_is_ordered_and_aligned() {
        let l = QueueLayout::contiguous(GuestAddr::new(0x1000), 256);
        assert!(l.desc < l.avail && l.avail < l.used);
        assert!(l.used.is_aligned(4));
        assert_eq!(l.avail - l.desc, 256 * 16);
        assert!(l.footprint() > 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn layout_rejects_non_power_of_two() {
        QueueLayout::contiguous(GuestAddr::new(0x1000), 3);
    }

    #[test]
    fn empty_queue_pops_none() {
        let (ram, _driver, mut device) = setup(8);
        assert_eq!(device.pop_avail(&ram).unwrap(), None);
        assert_eq!(device.pending(&ram).unwrap(), 0);
    }

    #[test]
    fn single_readable_buffer_round_trip() {
        let (mut ram, mut driver, mut device) = setup(8);
        ram.write(GuestAddr::new(0x5000), b"hello").unwrap();
        let head = driver
            .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5000), 5)], &[])
            .unwrap();
        assert_eq!(device.pending(&ram).unwrap(), 1);
        let chain = device.pop_avail(&ram).unwrap().unwrap();
        assert_eq!(chain.head, head);
        assert_eq!(chain.readable.gather(&ram).unwrap(), b"hello");
        assert!(chain.writable.is_empty());
        device.push_used(&mut ram, chain.head, 0).unwrap();
        assert_eq!(driver.poll_used(&ram).unwrap(), Some((head, 0)));
        // Any payload, cut into any segments, reaches the device intact.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x9a1d);
            let (mut ram, mut driver, mut device) = setup(64);
            let payload: Vec<u8> = (0..rng.range(1, 2048))
                .map(|_| rng.next_u32() as u8)
                .collect();
            let len = payload.len();
            let mut cuts: Vec<usize> = (0..rng.below(4))
                .map(|_| rng.below(len as u64) as usize)
                .collect();
            cuts.extend([0, len]);
            cuts.sort_unstable();
            cuts.dedup();
            let mut segs = Vec::new();
            for w in cuts.windows(2) {
                // Gaps between segments: order matters, not adjacency.
                let addr = GuestAddr::new(0x40_000 + 2 * w[0] as u64);
                ram.write(addr, &payload[w[0]..w[1]]).unwrap();
                segs.push(SgSegment::new(addr, (w[1] - w[0]) as u32));
            }
            driver.add_buf(&mut ram, &segs, &[]).unwrap();
            let chain = device.pop_avail(&ram).unwrap().unwrap();
            assert_eq!(chain.readable.gather(&ram).unwrap(), payload, "seed {seed}");
        }
    }

    #[test]
    fn mixed_chain_orders_readable_then_writable() {
        let (mut ram, mut driver, mut device) = setup(8);
        let head = driver
            .add_buf(
                &mut ram,
                &[
                    SgSegment::new(GuestAddr::new(0x5000), 16),
                    SgSegment::new(GuestAddr::new(0x5100), 16),
                ],
                &[SgSegment::new(GuestAddr::new(0x6000), 64)],
            )
            .unwrap();
        let chain = device.pop_avail(&ram).unwrap().unwrap();
        assert_eq!(chain.head, head);
        assert_eq!(chain.readable.total_len(), 32);
        assert_eq!(chain.writable.total_len(), 64);
        // Device writes a response into the writable part.
        chain.writable.scatter(&mut ram, b"response").unwrap();
        device.push_used(&mut ram, chain.head, 8).unwrap();
        let (id, len) = driver.poll_used(&ram).unwrap().unwrap();
        assert_eq!((id, len), (head, 8));
        assert_eq!(
            ram.read_vec(GuestAddr::new(0x6000), 8).unwrap(),
            b"response"
        );
    }

    #[test]
    fn ring_wraps_around() {
        let (mut ram, mut driver, mut device) = setup(4);
        // Cycle 3× the queue size to exercise wrapping of both rings.
        for round in 0u32..12 {
            let head = driver
                .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5000), 4)], &[])
                .unwrap();
            let chain = device.pop_avail(&ram).unwrap().unwrap();
            device.push_used(&mut ram, chain.head, round).unwrap();
            assert_eq!(driver.poll_used(&ram).unwrap(), Some((head, round)));
        }
        assert_eq!(device.popped_count(), 12);
        assert_eq!(device.completed_count(), 12);
        // Random batches: the device sees chains in posting order, and
        // every completion carries its written length to the right head.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0xf1f0);
            let (mut ram, mut driver, mut device) = setup(32);
            let mut posted = std::collections::VecDeque::new();
            for round in 0..rng.range(1, 30) {
                for _ in 0..rng.range(1, 8) {
                    let seg = SgSegment::new(GuestAddr::new(0x40_000 + round * 1024), 512);
                    let head = driver.add_buf(&mut ram, &[], &[seg]).unwrap();
                    posted.push_back((head, rng.range(1, 512) as u32));
                }
                while let Some(chain) = device.pop_avail(&ram).unwrap() {
                    let (head, len) = posted.pop_front().unwrap();
                    assert_eq!(chain.head, head, "seed {seed}");
                    device.push_used(&mut ram, head, len).unwrap();
                    assert_eq!(
                        driver.poll_used(&ram).unwrap(),
                        Some((head, len)),
                        "seed {seed}"
                    );
                }
                assert!(posted.is_empty(), "seed {seed}");
            }
        }
    }

    #[test]
    fn queue_fills_to_capacity() {
        let (mut ram, mut driver, mut device) = setup(4);
        for _ in 0..4 {
            driver
                .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5000), 4)], &[])
                .unwrap();
        }
        // Fifth add fails: no free descriptors.
        assert!(driver
            .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5000), 4)], &[])
            .is_err());
        assert_eq!(device.pending(&ram).unwrap(), 4);
        // Device drains and completes; driver can then add again.
        while let Some(chain) = device.pop_avail(&ram).unwrap() {
            device.push_used(&mut ram, chain.head, 0).unwrap();
        }
        while driver.poll_used(&ram).unwrap().is_some() {}
        assert!(driver
            .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5000), 4)], &[])
            .is_ok());
    }

    #[test]
    fn indirect_chain_round_trip() {
        let (mut ram, mut driver, mut device) = setup(8);
        ram.write(GuestAddr::new(0x5000), b"abcd").unwrap();
        let head = driver
            .add_buf_indirect(
                &mut ram,
                GuestAddr::new(0x9000),
                &[SgSegment::new(GuestAddr::new(0x5000), 4)],
                &[SgSegment::new(GuestAddr::new(0x6000), 8)],
            )
            .unwrap();
        let chain = device.pop_avail(&ram).unwrap().unwrap();
        assert_eq!(chain.head, head);
        assert_eq!(chain.readable.gather(&ram).unwrap(), b"abcd");
        assert_eq!(chain.writable.total_len(), 8);
        device.push_used(&mut ram, chain.head, 4).unwrap();
        assert_eq!(driver.poll_used(&ram).unwrap(), Some((head, 4)));
        // Indirect and direct posting of the same segments look the
        // same to the device.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x1d1e);
            let (mut ram, mut driver, mut device) = setup(16);
            let payload: Vec<u8> = (0..rng.range(1, 512))
                .map(|_| rng.next_u32() as u8)
                .collect();
            let seg_len = payload.len().div_ceil(rng.range(1, 4) as usize);
            let mut segs = Vec::new();
            for (i, chunk) in payload.chunks(seg_len).enumerate() {
                let addr = GuestAddr::new(0x40_000 + i as u64 * 4096);
                ram.write(addr, chunk).unwrap();
                segs.push(SgSegment::new(addr, chunk.len() as u32));
            }
            driver.add_buf(&mut ram, &segs, &[]).unwrap();
            driver
                .add_buf_indirect(&mut ram, GuestAddr::new(0x20_000), &segs, &[])
                .unwrap();
            let direct = device.pop_avail(&ram).unwrap().unwrap();
            let indirect = device.pop_avail(&ram).unwrap().unwrap();
            assert_eq!(
                direct.readable.gather(&ram).unwrap(),
                payload,
                "seed {seed}"
            );
            assert_eq!(indirect.readable, direct.readable, "seed {seed}");
        }
    }

    #[test]
    fn page_straddling_indirect_table_parses_like_an_aligned_one() {
        for seed in 0..64 {
            let mut rng = SimRng::with_stream(seed, 0x57d1);
            let (mut ram, mut driver, mut device) = setup(16);
            let seg = |rng: &mut SimRng| {
                let addr = GuestAddr::new(rng.range(0x40_000, 0x80_000));
                SgSegment::new(addr, rng.range(1, 1 << 16) as u32)
            };
            let readable: Vec<_> = (0..rng.range(1, 5)).map(|_| seg(&mut rng)).collect();
            let writable: Vec<_> = (0..rng.below(4)).map(|_| seg(&mut rng)).collect();
            // Entry `k` of the guest-placed table starts 8 bytes before a
            // page boundary, so its two halves sit on different pages.
            let k = rng.below((readable.len() + writable.len()) as u64);
            let straddling = GuestAddr::new(0x21_000 - 8 - 16 * k);
            driver
                .add_buf_indirect(&mut ram, GuestAddr::new(0x30_000), &readable, &writable)
                .unwrap();
            driver
                .add_buf_indirect(&mut ram, straddling, &readable, &writable)
                .unwrap();
            let aligned = device.pop_avail(&ram).unwrap().unwrap();
            let split = device.pop_avail(&ram).unwrap().unwrap();
            assert_eq!(aligned.readable.segments(), readable, "seed {seed}");
            assert_eq!(aligned.writable.segments(), writable, "seed {seed}");
            assert_eq!(
                (split.readable, split.writable),
                (aligned.readable, aligned.writable),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn descriptor_read_past_the_end_of_ram_is_a_memory_fault() {
        let end = 1 << 20;
        // An indirect table whose first entry, or whose second entry,
        // runs 8 bytes past the end of guest RAM.
        for (table, len) in [(end - 8, 16), (end - 24, 32)] {
            let (mut ram, _driver, mut device) = setup(8);
            let layout = *device.layout();
            ram.write_u64(layout.desc_addr(0), table).unwrap();
            ram.write_u32(layout.desc_addr(0) + 8, len).unwrap();
            ram.write_u16(layout.desc_addr(0) + 12, DESC_F_INDIRECT)
                .unwrap();
            if len == 32 {
                ram.write_u16(GuestAddr::new(table + 12), DESC_F_NEXT)
                    .unwrap();
                ram.write_u16(GuestAddr::new(table + 14), 1).unwrap();
            }
            ram.write_u16(layout.avail_ring_addr(0), 0).unwrap();
            ram.write_u16(layout.avail_idx_addr(), 1).unwrap();
            let err = device.pop_avail(&ram).unwrap_err();
            assert!(
                matches!(err, VirtioError::Mem(MemError::OutOfBounds { .. })),
                "table at {table:#x}: {err}"
            );
            // The queue moved past the bad chain.
            assert_eq!(device.pop_avail(&ram).unwrap(), None);
        }
    }

    #[test]
    fn malicious_head_index_is_an_error_not_a_panic() {
        let (mut ram, _driver, mut device) = setup(8);
        let layout = *device.layout();
        // Forge an avail entry pointing beyond the table.
        ram.write_u16(layout.avail_ring_addr(0), 100).unwrap();
        ram.write_u16(layout.avail_idx_addr(), 1).unwrap();
        assert_eq!(device.pop_avail(&ram), Err(VirtioError::BadHeadIndex(100)));
        // Queue advanced past the bad entry; it is not wedged.
        assert_eq!(device.pop_avail(&ram).unwrap(), None);
        // Rings full of garbage give None, chains or typed errors:
        // returning at all is the check.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0xf022);
            let (mut ram, _driver, mut device) = setup(16);
            let garbage: Vec<u8> = (0..rng.range(256, 2048))
                .map(|_| rng.next_u32() as u8)
                .collect();
            ram.write(GuestAddr::new(0x1000), &garbage).unwrap();
            for _ in 0..64 {
                let _ = device.pop_avail(&ram);
            }
        }
    }

    #[test]
    fn avail_index_jump_beyond_the_ring_is_rejected() {
        let (mut ram, mut driver, mut device) = setup(8);
        let layout = *device.layout();
        let head = driver
            .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5000), 4)], &[])
            .unwrap();
        // One buffer posted, avail idx forged to 1000 on an 8-entry ring.
        ram.write_u16(layout.avail_idx_addr(), 1000).unwrap();
        let jump = VirtioError::AvailIdxJump {
            pending: 1000,
            size: 8,
        };
        assert_eq!(device.pending(&ram), Err(jump.clone()));
        assert_eq!(device.pop_avail(&ram), Err(jump));
        // The cursor did not move: restoring the honest index pops the
        // one real buffer exactly once.
        ram.write_u16(layout.avail_idx_addr(), 1).unwrap();
        assert_eq!(device.pop_avail(&ram).unwrap().unwrap().head, head);
        assert_eq!(device.pop_avail(&ram).unwrap(), None);
        // A full ring is not a jump.
        ram.write_u16(layout.avail_idx_addr(), 9).unwrap();
        assert_eq!(device.pending(&ram).unwrap(), 8);
    }

    #[test]
    fn descriptor_loop_is_detected() {
        let (mut ram, _driver, mut device) = setup(8);
        let layout = *device.layout();
        // Descriptor 0 chains to itself.
        ram.write_u64(layout.desc_addr(0), 0x5000).unwrap();
        ram.write_u32(layout.desc_addr(0) + 8, 4).unwrap();
        ram.write_u16(layout.desc_addr(0) + 12, DESC_F_NEXT)
            .unwrap();
        ram.write_u16(layout.desc_addr(0) + 14, 0).unwrap();
        ram.write_u16(layout.avail_ring_addr(0), 0).unwrap();
        ram.write_u16(layout.avail_idx_addr(), 1).unwrap();
        assert_eq!(device.pop_avail(&ram), Err(VirtioError::ChainTooLong));
    }

    #[test]
    fn bad_next_index_is_detected() {
        let (mut ram, _driver, mut device) = setup(8);
        let layout = *device.layout();
        ram.write_u64(layout.desc_addr(0), 0x5000).unwrap();
        ram.write_u32(layout.desc_addr(0) + 8, 4).unwrap();
        ram.write_u16(layout.desc_addr(0) + 12, DESC_F_NEXT)
            .unwrap();
        ram.write_u16(layout.desc_addr(0) + 14, 99).unwrap();
        ram.write_u16(layout.avail_ring_addr(0), 0).unwrap();
        ram.write_u16(layout.avail_idx_addr(), 1).unwrap();
        assert_eq!(device.pop_avail(&ram), Err(VirtioError::BadNextIndex(99)));
    }

    #[test]
    fn readable_after_writable_is_rejected() {
        let (mut ram, _driver, mut device) = setup(8);
        let layout = *device.layout();
        // desc 0: writable, next -> 1; desc 1: readable.
        ram.write_u64(layout.desc_addr(0), 0x5000).unwrap();
        ram.write_u32(layout.desc_addr(0) + 8, 4).unwrap();
        ram.write_u16(layout.desc_addr(0) + 12, DESC_F_WRITE | DESC_F_NEXT)
            .unwrap();
        ram.write_u16(layout.desc_addr(0) + 14, 1).unwrap();
        ram.write_u64(layout.desc_addr(1), 0x6000).unwrap();
        ram.write_u32(layout.desc_addr(1) + 8, 4).unwrap();
        ram.write_u16(layout.desc_addr(1) + 12, 0).unwrap();
        ram.write_u16(layout.avail_ring_addr(0), 0).unwrap();
        ram.write_u16(layout.avail_idx_addr(), 1).unwrap();
        assert_eq!(
            device.pop_avail(&ram),
            Err(VirtioError::ReadableAfterWritable)
        );
    }

    #[test]
    fn nested_indirect_is_rejected() {
        let (mut ram, _driver, mut device) = setup(8);
        let layout = *device.layout();
        // desc 0: indirect table at 0x9000 with one entry that is itself
        // indirect.
        ram.write_u64(layout.desc_addr(0), 0x9000).unwrap();
        ram.write_u32(layout.desc_addr(0) + 8, 16).unwrap();
        ram.write_u16(layout.desc_addr(0) + 12, DESC_F_INDIRECT)
            .unwrap();
        ram.write_u64(GuestAddr::new(0x9000), 0x5000).unwrap();
        ram.write_u32(GuestAddr::new(0x9000 + 8), 4).unwrap();
        ram.write_u16(GuestAddr::new(0x9000 + 12), DESC_F_INDIRECT)
            .unwrap();
        ram.write_u16(layout.avail_ring_addr(0), 0).unwrap();
        ram.write_u16(layout.avail_idx_addr(), 1).unwrap();
        assert!(matches!(
            device.pop_avail(&ram),
            Err(VirtioError::BadIndirect(_))
        ));
    }

    #[test]
    fn event_idx_suppresses_kicks_for_a_polling_backend() {
        let (mut ram, mut driver, mut device) = setup(8);
        // A PMD backend sets avail_event far ahead: no kick needed.
        device
            .set_avail_event(&mut ram, driver.avail_idx().wrapping_add(1000))
            .unwrap();
        let old = driver.avail_idx();
        driver
            .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5000), 4)], &[])
            .unwrap();
        assert!(!driver.kick_needed_event_idx(&ram, old).unwrap());
        // An interrupt-mode backend sets it to the next entry: kick.
        device
            .set_avail_event(&mut ram, driver.avail_idx())
            .unwrap();
        let old = driver.avail_idx();
        driver
            .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5100), 4)], &[])
            .unwrap();
        assert!(driver.kick_needed_event_idx(&ram, old).unwrap());
    }

    #[test]
    fn need_event_handles_wraparound() {
        // Crossing the threshold across the u16 wrap.
        assert!(need_event(0xfffe, 0x0001, 0xfffd));
        assert!(!need_event(0x0005, 0x0001, 0xfffd));
        // Degenerate: no movement means no event.
        assert!(!need_event(10, 20, 20));
        // In general the event fires iff the index moved past `event`:
        // `event` lies in the window [old, new), mod 2^16, as in the
        // virtio spec's `vring_need_event`.
        for seed in 0..1024 {
            let mut rng = SimRng::with_stream(seed, 0xe7e7);
            let old = rng.next_u32() as u16;
            let steps = rng.below(1000) as u16;
            // Half the thresholds land near the window, half anywhere.
            let offset = match rng.chance(0.5) {
                true => rng.below(1200) as u16,
                false => rng.next_u32() as u16,
            };
            let (new, event) = (old.wrapping_add(steps), old.wrapping_add(offset));
            let fires = offset < steps;
            assert_eq!(
                need_event(event, new, old),
                fires,
                "old {old} new {new} event {event}"
            );
        }
    }

    #[test]
    fn error_display_messages() {
        assert!(VirtioError::ChainTooLong.to_string().contains("chain"));
        assert!(VirtioError::BadHeadIndex(7).to_string().contains('7'));
        let jump = VirtioError::AvailIdxJump {
            pending: 1000,
            size: 8,
        };
        assert!(jump.to_string().contains("avail index 1000"));
        let too_large = VirtioError::ChainTooLarge {
            needed: 70,
            capacity: 64,
        };
        assert!(too_large.to_string().contains("70 staging slots"));
        assert!(VirtioError::EmptyChain.to_string().contains("no bytes"));
        let mem_err: VirtioError = MemError::OutOfBounds {
            addr: GuestAddr::new(0),
            len: 1,
            size: 1,
        }
        .into();
        assert!(mem_err.to_string().contains("memory fault"));
    }
}
