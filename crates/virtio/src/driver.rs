//! The split virtqueue, driver (guest kernel) side.
//!
//! [`VirtqueueDriver`] does what `virtio_ring.c` does in a Linux guest:
//! maintain a free-descriptor list, format chains into the descriptor
//! table, publish heads through the avail ring, and reap completions from
//! the used ring. The simulated guests (and the bm-hypervisor's shadow
//! side in `bmhive-iobond`) both drive queues through this type, so the
//! same code path runs on the vm-guest and bm-guest platforms — the
//! interoperability requirement of §3.1.
//!
//! Like the Linux driver's `desc_state` array, the free list and the
//! per-chain descriptor bookkeeping are kept in driver-private memory,
//! never re-read from the shared rings: a misbehaving device must not be
//! able to corrupt the driver's allocator.

use crate::queue::{
    Descriptor, QueueLayout, UsedElem, VirtioError, DESC_F_INDIRECT, DESC_F_NEXT, DESC_F_WRITE,
};
use bmhive_mem::{GuestAddr, GuestRam, SgSegment};
use bmhive_telemetry as telemetry;

/// Driver-side state of one split virtqueue.
#[derive(Debug, Clone)]
pub struct VirtqueueDriver {
    layout: QueueLayout,
    /// Free descriptor indices (driver-private; popped on alloc).
    free: Vec<u16>,
    /// Outstanding chains, slab-indexed by head: each slot holds the
    /// chain's descriptor indices, and an empty slot means the head is
    /// not outstanding (a chain always has at least one descriptor).
    /// Completion drains the slot in place, so the per-chain Vec's
    /// capacity is recycled and a warmed post/reap cycle never touches
    /// the allocator — the same slab idiom as the shadow ring's
    /// inflight table.
    outstanding: Vec<Vec<u16>>,
    outstanding_len: usize,
    avail_idx: u16,
    last_used_idx: u16,
}

impl VirtqueueDriver {
    /// Initialises the rings in guest RAM (zeroing headers and the
    /// descriptor table) and returns the driver handle.
    ///
    /// # Errors
    ///
    /// Fails if the ring memory is outside guest RAM.
    pub fn new(ram: &mut GuestRam, layout: QueueLayout) -> Result<Self, VirtioError> {
        ram.write_u16(layout.avail, 0)?;
        ram.write_u16(layout.avail + 2, 0)?;
        ram.write_u16(layout.used, 0)?;
        ram.write_u16(layout.used + 2, 0)?;
        ram.fill(layout.desc, u64::from(layout.size) * 16, 0)?;
        Ok(VirtqueueDriver {
            layout,
            free: (0..layout.size).rev().collect(),
            outstanding: (0..layout.size).map(|_| Vec::new()).collect(),
            outstanding_len: 0,
            avail_idx: 0,
            last_used_idx: 0,
        })
    }

    /// The queue's memory layout.
    pub fn layout(&self) -> &QueueLayout {
        &self.layout
    }

    /// Free descriptors remaining.
    pub fn num_free(&self) -> u16 {
        self.free.len() as u16
    }

    /// Chains posted but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding_len
    }

    /// The head the next post takes, `None` when no descriptor is free:
    /// a caller that keeps per-head state (an indirect table's home) can
    /// place it before posting.
    pub fn next_head(&self) -> Option<u16> {
        self.free.last().copied()
    }

    /// Posts a buffer chain: `readable` segments (device reads) followed
    /// by `writable` segments (device writes). Returns the head index,
    /// which identifies the completion in [`poll_used`](Self::poll_used).
    ///
    /// # Errors
    ///
    /// Returns [`VirtioError::ChainTooLong`] if fewer than
    /// `readable.len() + writable.len()` descriptors are free, or a
    /// memory fault if the rings are unmapped.
    ///
    /// # Panics
    ///
    /// Panics if both lists are empty — an empty chain is meaningless.
    pub fn add_buf(
        &mut self,
        ram: &mut GuestRam,
        readable: &[SgSegment],
        writable: &[SgSegment],
    ) -> Result<u16, VirtioError> {
        let total = readable.len() + writable.len();
        assert!(total > 0, "add_buf: empty chain");
        if total > self.free.len() {
            return Err(VirtioError::ChainTooLong);
        }
        // The head is the next free index to pop; its recycled slab
        // slot collects the chain's indices in place of a fresh Vec.
        let head = self.free[self.free.len() - 1];
        let mut indices = std::mem::take(&mut self.outstanding[usize::from(head)]);
        debug_assert!(indices.is_empty(), "slab slot reused while outstanding");
        for _ in 0..total {
            indices.push(self.free.pop().expect("checked length"));
        }
        for (pos, idx) in indices.iter().enumerate() {
            let desc = chain_entry(readable, writable, pos, indices.get(pos + 1).copied());
            if let Err(e) = desc.write(ram, self.layout.desc_addr(*idx)) {
                // Ring memory is unmapped: hand the slot Vec back empty
                // so a later epoch can still reuse its capacity.
                indices.clear();
                self.outstanding[usize::from(head)] = indices;
                return Err(e.into());
            }
        }
        self.outstanding[usize::from(head)] = indices;
        self.outstanding_len += 1;
        self.publish(ram, head)?;
        Ok(head)
    }

    /// Posts a chain through a single indirect descriptor, writing the
    /// indirect table at `table_addr` (caller-provided guest memory).
    /// Indirect descriptors let one queue slot carry a long chain — the
    /// "indirect desc tables" IO-Bond fetches in Fig. 6.
    ///
    /// # Errors
    ///
    /// Returns [`VirtioError::ChainTooLong`] if no descriptor is free, or
    /// a memory fault if the table or rings are unmapped.
    ///
    /// # Panics
    ///
    /// Panics if both lists are empty.
    pub fn add_buf_indirect(
        &mut self,
        ram: &mut GuestRam,
        table_addr: GuestAddr,
        readable: &[SgSegment],
        writable: &[SgSegment],
    ) -> Result<u16, VirtioError> {
        let total = readable.len() + writable.len();
        assert!(total > 0, "add_buf_indirect: empty chain");
        // The head leaves the free list only once the table and its
        // descriptor are written, so a fault leaks nothing.
        let Some(&head) = self.free.last() else {
            return Err(VirtioError::ChainTooLong);
        };
        for pos in 0..total {
            let next = (pos + 1 < total).then_some((pos + 1) as u16);
            chain_entry(readable, writable, pos, next).write(ram, table_addr + pos as u64 * 16)?;
        }
        let table = Descriptor {
            addr: table_addr.value(),
            len: (total * 16) as u32,
            flags: DESC_F_INDIRECT,
            next: 0,
        };
        table.write(ram, self.layout.desc_addr(head))?;
        self.free.pop();
        let slot = &mut self.outstanding[usize::from(head)];
        debug_assert!(slot.is_empty(), "slab slot reused while outstanding");
        slot.push(head);
        self.outstanding_len += 1;
        self.publish(ram, head)?;
        Ok(head)
    }

    fn publish(&mut self, ram: &mut GuestRam, head: u16) -> Result<(), VirtioError> {
        let slot = self.avail_idx % self.layout.size;
        ram.write_u16(self.layout.avail_ring_addr(slot), head)?;
        self.avail_idx = self.avail_idx.wrapping_add(1);
        ram.write_u16(self.layout.avail_idx_addr(), self.avail_idx)?;
        telemetry::counter("virtio.chains_published", 1);
        Ok(())
    }

    /// Reaps one completion from the used ring: `(head, bytes_written)`.
    /// Returns `Ok(None)` if no completion is pending. Frees the chain's
    /// descriptors.
    ///
    /// # Errors
    ///
    /// Fails on guest memory faults, or with
    /// [`VirtioError::BadHeadIndex`] if the device returned an id the
    /// driver never posted (a misbehaving device).
    pub fn poll_used(&mut self, ram: &GuestRam) -> Result<Option<(u16, u32)>, VirtioError> {
        let used_idx = ram.read_u16(self.layout.used_idx_addr())?;
        if used_idx == self.last_used_idx {
            return Ok(None);
        }
        let slot = self.last_used_idx % self.layout.size;
        let UsedElem { id, len } = UsedElem::read(ram, self.layout.used_ring_addr(slot))?;
        let id = id as u16;
        self.last_used_idx = self.last_used_idx.wrapping_add(1);
        let Self {
            free, outstanding, ..
        } = self;
        let indices = outstanding
            .get_mut(usize::from(id))
            .filter(|slot| !slot.is_empty())
            .ok_or(VirtioError::BadHeadIndex(id))?;
        free.append(indices);
        self.outstanding_len -= 1;
        Ok(Some((id, len)))
    }

    /// The driver's avail index (next publish position).
    pub fn avail_idx(&self) -> u16 {
        self.avail_idx
    }

    /// With EVENT_IDX negotiated: whether publishing entries up to the
    /// current avail index (having previously published
    /// `old_avail_idx`) must kick the device, per its `avail_event`
    /// threshold.
    ///
    /// # Errors
    ///
    /// Fails on guest memory faults.
    pub fn kick_needed_event_idx(
        &self,
        ram: &GuestRam,
        old_avail_idx: u16,
    ) -> Result<bool, VirtioError> {
        let avail_event = ram.read_u16(self.layout.avail_event_addr())?;
        Ok(crate::queue::need_event(
            avail_event,
            self.avail_idx,
            old_avail_idx,
        ))
    }
}

/// The descriptor at position `pos` of a chain of `readable` then
/// `writable` segments, linked to `next` unless it is the last.
fn chain_entry(
    readable: &[SgSegment],
    writable: &[SgSegment],
    pos: usize,
    next: Option<u16>,
) -> Descriptor {
    let (seg, flags) = match readable.get(pos) {
        Some(&seg) => (seg, 0),
        None => (writable[pos - readable.len()], DESC_F_WRITE),
    };
    let (flags, next) = match next {
        Some(next) => (flags | DESC_F_NEXT, next),
        None => (flags, 0),
    };
    Descriptor {
        addr: seg.addr.value(),
        len: seg.len,
        flags,
        next,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Virtqueue;
    use bmhive_sim::SimRng;

    fn setup(size: u16) -> (GuestRam, VirtqueueDriver, Virtqueue) {
        let mut ram = GuestRam::new(1 << 20);
        let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), size);
        let driver = VirtqueueDriver::new(&mut ram, layout).unwrap();
        let device = Virtqueue::new(layout);
        (ram, driver, device)
    }

    #[test]
    fn starts_with_all_descriptors_free() {
        let (_, driver, _) = setup(16);
        assert_eq!(driver.num_free(), 16);
        assert_eq!(driver.avail_idx(), 0);
        assert_eq!(driver.outstanding(), 0);
    }

    #[test]
    fn free_count_tracks_alloc_and_free() {
        let (mut ram, mut driver, mut device) = setup(8);
        driver
            .add_buf(
                &mut ram,
                &[
                    SgSegment::new(GuestAddr::new(0x5000), 4),
                    SgSegment::new(GuestAddr::new(0x5100), 4),
                ],
                &[SgSegment::new(GuestAddr::new(0x6000), 4)],
            )
            .unwrap();
        assert_eq!(driver.num_free(), 5);
        assert_eq!(driver.outstanding(), 1);
        let chain = device.pop_avail(&ram).unwrap().unwrap();
        device.push_used(&mut ram, chain.head, 0).unwrap();
        driver.poll_used(&ram).unwrap().unwrap();
        assert_eq!(driver.num_free(), 8);
        assert_eq!(driver.outstanding(), 0);
    }

    #[test]
    fn recycled_descriptors_are_never_double_allocated() {
        // Regression shape: alloc → free → alloc must never hand out a
        // descriptor that is still outstanding.
        let (mut ram, mut driver, mut device) = setup(4);
        for _ in 0..50 {
            let h1 = driver
                .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5000), 4)], &[])
                .unwrap();
            let h2 = driver
                .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5100), 4)], &[])
                .unwrap();
            assert_ne!(h1, h2);
            let c1 = device.pop_avail(&ram).unwrap().unwrap();
            device.push_used(&mut ram, c1.head, 0).unwrap();
            driver.poll_used(&ram).unwrap().unwrap();
            // h2 still outstanding: a fresh alloc must not collide.
            let h3 = driver
                .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5200), 4)], &[])
                .unwrap();
            assert_ne!(h3, h2);
            let c2 = device.pop_avail(&ram).unwrap().unwrap();
            device.push_used(&mut ram, c2.head, 0).unwrap();
            let c3 = device.pop_avail(&ram).unwrap().unwrap();
            device.push_used(&mut ram, c3.head, 0).unwrap();
            driver.poll_used(&ram).unwrap().unwrap();
            driver.poll_used(&ram).unwrap().unwrap();
        }
        assert_eq!(driver.num_free(), 4);
        // Random mixes of posts and drains never leak a descriptor:
        // after the final drain every one is free again.
        let drain = |ram: &mut GuestRam, driver: &mut VirtqueueDriver, device: &mut Virtqueue| {
            while let Some(chain) = device.pop_avail(ram).unwrap() {
                device.push_used(ram, chain.head, 0).unwrap();
            }
            while driver.poll_used(ram).unwrap().is_some() {}
        };
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0xc0a5);
            let (mut ram, mut driver, mut device) = setup(32);
            for _ in 0..rng.range(1, 100) {
                let seg = |i, base| SgSegment::new(GuestAddr::new(base + i * 256), 64);
                let readable: Vec<_> = (0..rng.range(1, 4)).map(|i| seg(i, 0x40_000)).collect();
                let writable: Vec<_> = (0..rng.below(3)).map(|i| seg(i, 0x48_000)).collect();
                // Post if there is room; a full ring has its own test.
                let _ = driver.add_buf(&mut ram, &readable, &writable);
                if rng.chance(0.5) {
                    drain(&mut ram, &mut driver, &mut device);
                }
            }
            drain(&mut ram, &mut driver, &mut device);
            assert_eq!(
                (driver.num_free(), driver.outstanding()),
                (32, 0),
                "seed {seed}"
            );
            assert_eq!(device.last_avail_idx(), device.used_idx(), "seed {seed}");
        }
    }

    #[test]
    fn add_buf_fails_when_full_without_corrupting() {
        let (mut ram, mut driver, _) = setup(2);
        driver
            .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5000), 4)], &[])
            .unwrap();
        let err = driver.add_buf(
            &mut ram,
            &[
                SgSegment::new(GuestAddr::new(0x5000), 4),
                SgSegment::new(GuestAddr::new(0x5100), 4),
            ],
            &[],
        );
        assert_eq!(err, Err(VirtioError::ChainTooLong));
        assert_eq!(driver.num_free(), 1);
    }

    #[test]
    fn poll_used_empty_returns_none() {
        let (ram, mut driver, _) = setup(8);
        assert_eq!(driver.poll_used(&ram).unwrap(), None);
    }

    #[test]
    fn many_outstanding_chains_complete_out_of_order() {
        let (mut ram, mut driver, mut device) = setup(16);
        let h1 = driver
            .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5000), 4)], &[])
            .unwrap();
        let h2 = driver
            .add_buf(&mut ram, &[SgSegment::new(GuestAddr::new(0x5100), 4)], &[])
            .unwrap();
        let c1 = device.pop_avail(&ram).unwrap().unwrap();
        let c2 = device.pop_avail(&ram).unwrap().unwrap();
        // Complete in reverse order.
        device.push_used(&mut ram, c2.head, 0).unwrap();
        device.push_used(&mut ram, c1.head, 0).unwrap();
        assert_eq!(driver.poll_used(&ram).unwrap(), Some((h2, 0)));
        assert_eq!(driver.poll_used(&ram).unwrap(), Some((h1, 0)));
    }

    #[test]
    #[should_panic(expected = "empty chain")]
    fn empty_chain_panics() {
        let (mut ram, mut driver, _) = setup(8);
        let _ = driver.add_buf(&mut ram, &[], &[]);
    }

    #[test]
    fn indirect_uses_one_descriptor() {
        let (mut ram, mut driver, _) = setup(4);
        let next = driver.next_head();
        let head = driver
            .add_buf_indirect(
                &mut ram,
                GuestAddr::new(0x9000),
                &[
                    SgSegment::new(GuestAddr::new(0x5000), 4),
                    SgSegment::new(GuestAddr::new(0x5100), 4),
                    SgSegment::new(GuestAddr::new(0x5200), 4),
                ],
                &[SgSegment::new(GuestAddr::new(0x6000), 4)],
            )
            .unwrap();
        // 4 segments but only 1 queue descriptor consumed, the head
        // `next_head` announced.
        assert_eq!((driver.num_free(), Some(head)), (3, next));
        let seg = [SgSegment::new(GuestAddr::new(0x5000), 4)];
        while driver.num_free() > 0 {
            let next = driver.next_head();
            assert_eq!(Some(driver.add_buf(&mut ram, &seg, &[]).unwrap()), next);
        }
        assert_eq!(driver.next_head(), None);
    }

    #[test]
    fn unmapped_indirect_table_leaks_no_descriptor() {
        let (mut ram, mut driver, _) = setup(4);
        let seg = SgSegment::new(GuestAddr::new(0x5000), 4);
        // The second table entry runs past the end of the 1 MiB RAM.
        let table = GuestAddr::new((1 << 20) - 24);
        for _ in 0..8 {
            let err = driver.add_buf_indirect(&mut ram, table, &[seg, seg], &[]);
            assert!(matches!(err, Err(VirtioError::Mem(_))), "{err:?}");
        }
        assert_eq!((driver.num_free(), driver.outstanding()), (4, 0));
    }

    #[test]
    fn device_returning_unposted_id_is_an_error() {
        let (mut ram, mut driver, _) = setup(4);
        let layout = *driver.layout();
        // Forge a used entry with an id the driver never posted.
        ram.write_u32(layout.used + 4, 2).unwrap();
        ram.write_u32(layout.used + 8, 0).unwrap();
        ram.write_u16(layout.used + 2, 1).unwrap();
        assert_eq!(driver.poll_used(&ram), Err(VirtioError::BadHeadIndex(2)));
    }
}
