//! Staging-buffer pool in base memory.
//!
//! The shadow vring's buffer descriptors point into base-server memory
//! ("these shadow vrings are actually shared buffers between IO-Bond and
//! bm-hypervisor", §3.4.3). [`StagingPool`] hands out fixed-size slots
//! from a base-RAM arena for the in-flight copies of guest data.

use bmhive_mem::{GuestAddr, GuestRam, MemError, SgList};

/// A fixed-slot allocator over a region of base memory.
///
/// # Example
///
/// ```
/// use bmhive_iobond::StagingPool;
/// use bmhive_mem::GuestAddr;
///
/// let mut pool = StagingPool::new(GuestAddr::new(0x10_0000), 8, 64 * 1024);
/// let slot = pool.alloc(1500).unwrap();
/// assert_eq!(slot.total_len(), 1500);
/// pool.free(&slot);
/// ```
#[derive(Debug, Clone)]
pub struct StagingPool {
    base: GuestAddr,
    slot_size: u32,
    /// Free slots, popped LIFO by [`StagingPool::alloc`].
    free_slots: Vec<u32>,
    /// Bit `i` set = slot `i` is on `free_slots`: an O(1) double-free
    /// check.
    free_map: Vec<u64>,
    total_slots: u32,
}

impl StagingPool {
    /// Creates a pool of `slots` slots of `slot_size` bytes each,
    /// starting at `base` in base memory.
    ///
    /// # Panics
    ///
    /// Panics if `slots` or `slot_size` is zero.
    pub fn new(base: GuestAddr, slots: u32, slot_size: u32) -> Self {
        assert!(slots > 0, "StagingPool: need at least one slot");
        assert!(slot_size > 0, "StagingPool: slot size must be positive");
        StagingPool {
            base,
            slot_size,
            free_slots: (0..slots).rev().collect(),
            // The low `min(64, slots left)` bits of each word.
            free_map: (0..slots.div_ceil(64))
                .map(|w| u64::MAX >> (64 - (slots - 64 * w).min(64)))
                .collect(),
            total_slots: slots,
        }
    }

    /// Slot size in bytes.
    pub fn slot_size(&self) -> u32 {
        self.slot_size
    }

    /// Total slots in the pool.
    pub fn total_slots(&self) -> u32 {
        self.total_slots
    }

    /// Total bytes of base memory the pool occupies.
    pub fn footprint(&self) -> u64 {
        u64::from(self.total_slots) * u64::from(self.slot_size)
    }

    fn slot_addr(&self, slot: u32) -> GuestAddr {
        self.base + u64::from(slot) * u64::from(self.slot_size)
    }

    fn slot_of(&self, addr: GuestAddr) -> u32 {
        ((addr - self.base) / u64::from(self.slot_size)) as u32
    }

    /// Allocates staging space for `bytes` bytes, spanning as many slots
    /// as needed. Returns `None` if not enough slots are free.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn alloc(&mut self, bytes: u64) -> Option<SgList> {
        assert!(bytes > 0, "alloc: zero-byte staging request");
        let needed = bytes.div_ceil(u64::from(self.slot_size)) as usize;
        if needed > self.free_slots.len() {
            return None;
        }
        let mut sg = SgList::new();
        let mut remaining = bytes;
        for _ in 0..needed {
            let slot = self.free_slots.pop().expect("checked length");
            self.free_map[slot as usize / 64] &= !(1 << (slot % 64));
            let take = remaining.min(u64::from(self.slot_size)) as u32;
            sg.push(bmhive_mem::SgSegment::new(self.slot_addr(slot), take));
            remaining -= u64::from(take);
        }
        Some(sg)
    }

    /// Returns the slots backing `sg` to the pool.
    ///
    /// # Panics
    ///
    /// Panics if a segment does not belong to this pool or a slot is
    /// freed twice.
    pub fn free(&mut self, sg: &SgList) {
        for seg in sg.segments() {
            assert!(
                seg.addr >= self.base && self.slot_of(seg.addr) < self.total_slots,
                "free: segment outside pool"
            );
            let slot = self.slot_of(seg.addr);
            let (word, bit) = (slot as usize / 64, 1u64 << (slot % 64));
            assert!(
                self.free_map[word] & bit == 0,
                "free: slot {slot} freed twice"
            );
            self.free_map[word] |= bit;
            self.free_slots.push(slot);
        }
    }

    /// Frees the slots backing `sg`, as [`free`](Self::free) does, and
    /// releases their pages in `ram` (see [`GuestRam::release`]): the
    /// run's bytes are dead, so each slot reads as zero until it is
    /// next written.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if a slot lies outside `ram`;
    /// the slots are freed either way.
    ///
    /// # Panics
    ///
    /// As [`free`](Self::free).
    pub fn release(&mut self, sg: &SgList, ram: &mut GuestRam) -> Result<(), MemError> {
        self.free(sg);
        for seg in sg.segments() {
            let slot = self.slot_addr(self.slot_of(seg.addr));
            ram.release(slot, u64::from(self.slot_size))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StagingPool {
        /// Free slots remaining.
        pub(crate) fn free_count(&self) -> u32 {
            self.free_slots.len() as u32
        }
    }

    fn pool() -> StagingPool {
        StagingPool::new(GuestAddr::new(0x10_0000), 4, 1024)
    }

    #[test]
    fn single_slot_alloc_and_free() {
        let mut p = pool();
        let sg = p.alloc(100).unwrap();
        assert_eq!(sg.len(), 1);
        assert_eq!(sg.total_len(), 100);
        assert_eq!(p.free_count(), 3);
        p.free(&sg);
        assert_eq!(p.free_count(), 4);
    }

    #[test]
    fn multi_slot_alloc_spans_slots() {
        let mut p = pool();
        let sg = p.alloc(2500).unwrap();
        assert_eq!(sg.len(), 3);
        assert_eq!(sg.total_len(), 2500);
        assert_eq!(p.free_count(), 1);
    }

    #[test]
    fn exhaustion_returns_none_without_leaking() {
        let mut p = pool();
        let a = p.alloc(4096).unwrap();
        assert_eq!(p.free_count(), 0);
        assert!(p.alloc(1).is_none());
        p.free(&a);
        assert_eq!(p.free_count(), 4);
        assert!(p.alloc(1).is_some());
    }

    #[test]
    fn slots_do_not_overlap() {
        let mut p = pool();
        let a = p.alloc(1024).unwrap();
        let b = p.alloc(1024).unwrap();
        let a0 = a.segments()[0].addr;
        let b0 = b.segments()[0].addr;
        assert!(a0 != b0);
        assert!(
            (a0.value()..a0.value() + 1024).all(|x| !(b0.value()..b0.value() + 1024).contains(&x))
        );
    }

    #[test]
    fn footprint_and_accessors() {
        let p = pool();
        assert_eq!(p.slot_size(), 1024);
        assert_eq!(p.total_slots(), 4);
        assert_eq!(p.footprint(), 4096);
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn double_free_panics() {
        let mut p = pool();
        let sg = p.alloc(10).unwrap();
        p.free(&sg);
        p.free(&sg);
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn double_free_after_churn_panics() {
        // 130 slots: the free map spans three words, the last partial.
        let mut p = StagingPool::new(GuestAddr::new(0x10_0000), 130, 64);
        let all: Vec<SgList> = (0..130).map(|_| p.alloc(64).unwrap()).collect();
        for sg in all.iter().rev().step_by(3) {
            p.free(sg);
        }
        let again = p.alloc(64).unwrap();
        p.free(&again);
        p.free(&all[129]);
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut p = StagingPool::new(GuestAddr::new(0), 70, 16);
        let a = p.alloc(16 * 65).unwrap();
        let b = p.alloc(16).unwrap();
        p.free(&b);
        p.free(&a);
        // The last slot freed is the first handed out again.
        let c = p.alloc(16).unwrap();
        assert_eq!(c.segments()[0].addr, a.segments()[64].addr);
        assert_eq!(p.free_count(), 69);
    }

    #[test]
    fn release_frees_the_slots_and_zeroes_their_pages() {
        let mut ram = GuestRam::new(1 << 20);
        let mut p = StagingPool::new(GuestAddr::new(0x1_0000), 4, 8192);
        let run = p.alloc(10_000).unwrap();
        run.scatter(&mut ram, &[0xee; 10_000]).unwrap();
        // A neighbour page just past the pool keeps its bytes.
        ram.write_u8(GuestAddr::new(0x1_8000), 7).unwrap();
        assert_eq!(ram.resident_pages(), 4);
        p.release(&run, &mut ram).unwrap();
        assert_eq!((p.free_count(), ram.resident_pages()), (4, 1));
        let mut out = Vec::new();
        run.gather_into(&ram, &mut out).unwrap();
        assert_eq!(out, vec![0; 10_000]);
        assert_eq!(ram.read_u8(GuestAddr::new(0x1_8000)).unwrap(), 7);
    }

    #[test]
    #[should_panic(expected = "outside pool")]
    fn foreign_segment_panics() {
        let mut p = pool();
        let sg = SgList::single(GuestAddr::new(0), 16);
        p.free(&sg);
    }
}
