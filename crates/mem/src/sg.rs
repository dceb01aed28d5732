//! Scatter–gather lists.
//!
//! Virtio describes I/O buffers as chains of `(address, length)`
//! descriptors (§3.4). [`SgList`] is the in-memory form of such a chain,
//! with helpers to gather bytes out of a [`GuestRam`] and scatter bytes
//! back in — the operation IO-Bond's DMA engine performs when it
//! synchronises a guest vring with its shadow vring.
//!
//! Descriptor chains are short in practice (a virtio-net frame is a
//! 2-segment chain, a block request 3), and the simulator builds two
//! lists per popped chain on its hottest path, so [`SgList`] stores up
//! to [`SgList::INLINE_SEGMENTS`] segments inline and only spills to
//! the heap for longer chains. Short-chain workloads allocate nothing
//! per descriptor.

use crate::addr::GuestAddr;
use crate::ram::{GuestRam, MemError};

/// One contiguous segment of guest memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgSegment {
    /// Guest-physical start address.
    pub addr: GuestAddr,
    /// Length in bytes.
    pub len: u32,
}

impl SgSegment {
    /// Creates a segment.
    pub fn new(addr: GuestAddr, len: u32) -> Self {
        SgSegment { addr, len }
    }

    /// Filler for unused inline slots.
    const EMPTY: SgSegment = SgSegment {
        addr: GuestAddr::new(0),
        len: 0,
    };
}

/// An ordered list of scatter–gather segments.
///
/// Up to [`SgList::INLINE_SEGMENTS`] segments live inline (no heap
/// allocation); longer lists spill to a `Vec`. The representation is
/// invisible to callers — equality, iteration order, and every helper
/// behave identically either way.
///
/// # Example
///
/// ```
/// use bmhive_mem::{GuestAddr, GuestRam, SgList, SgSegment};
///
/// let mut ram = GuestRam::new(1 << 20);
/// ram.write(GuestAddr::new(0x100), b"bare").unwrap();
/// ram.write(GuestAddr::new(0x900), b"metal").unwrap();
///
/// let sg: SgList = [
///     SgSegment::new(GuestAddr::new(0x100), 4),
///     SgSegment::new(GuestAddr::new(0x900), 5),
/// ]
/// .into_iter()
/// .collect();
/// let mut bytes = Vec::new();
/// sg.gather_into(&ram, &mut bytes).unwrap();
/// assert_eq!(bytes, b"baremetal");
/// ```
#[derive(Clone)]
pub struct SgList {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [SgSegment; SgList::INLINE_SEGMENTS],
    },
    Heap(Vec<SgSegment>),
}

impl SgList {
    /// Segments stored without a heap allocation. Covers virtio-net
    /// (header + payload) and virtio-blk (header + payload + status)
    /// chains with room to spare.
    pub const INLINE_SEGMENTS: usize = 4;

    /// Creates an empty list.
    pub fn new() -> Self {
        SgList {
            repr: Repr::Inline {
                len: 0,
                buf: [SgSegment::EMPTY; Self::INLINE_SEGMENTS],
            },
        }
    }

    /// Creates a single-segment list.
    pub fn single(addr: GuestAddr, len: u32) -> Self {
        let mut list = SgList::new();
        list.push(SgSegment::new(addr, len));
        list
    }

    /// Appends a segment.
    pub fn push(&mut self, segment: SgSegment) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let n = usize::from(*len);
                if n < Self::INLINE_SEGMENTS {
                    buf[n] = segment;
                    *len += 1;
                } else {
                    // Spill: grow past the inline bound once, then stay
                    // on the heap.
                    let mut vec = Vec::with_capacity(Self::INLINE_SEGMENTS * 2);
                    vec.extend_from_slice(&buf[..n]);
                    vec.push(segment);
                    self.repr = Repr::Heap(vec);
                }
            }
            Repr::Heap(vec) => vec.push(segment),
        }
    }

    /// The segments, in order.
    pub fn segments(&self) -> &[SgSegment] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(vec) => vec,
        }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments().len()
    }

    /// Whether the list has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments().is_empty()
    }

    /// Total byte length across all segments.
    pub fn total_len(&self) -> u64 {
        self.segments().iter().map(|s| u64::from(s.len)).sum()
    }

    /// Reads all segments from `ram` into `out` (cleared first), in
    /// order: a warmed caller gathers without touching the allocator,
    /// and each byte is copied once, with no zero-fill ahead of it.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if any segment exceeds the
    /// memory size; `out` may hold a partial gather on error.
    pub fn gather_into(&self, ram: &GuestRam, out: &mut Vec<u8>) -> Result<(), MemError> {
        out.clear();
        for seg in self.segments() {
            ram.read_append(seg.addr, u64::from(seg.len), out)?;
        }
        Ok(())
    }

    /// Reads the list's first `min(out.len(), total_len())` bytes into
    /// the front of `out` and returns that count — e.g. a request header
    /// parsed without gathering the payload behind it. Segments past the
    /// prefix are not touched.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if a read segment exceeds the
    /// memory size.
    pub fn gather_prefix(&self, ram: &GuestRam, out: &mut [u8]) -> Result<usize, MemError> {
        let mut filled = 0usize;
        for seg in self.segments() {
            if filled == out.len() {
                break;
            }
            let take = (out.len() - filled).min(seg.len as usize);
            ram.read(seg.addr, &mut out[filled..filled + take])?;
            filled += take;
        }
        Ok(filled)
    }

    /// Writes `data` across the segments in order, returning the number
    /// of bytes written (`min(data.len(), total_len())`).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if a touched segment exceeds the
    /// memory size; earlier segments may already have been written.
    pub fn scatter(&self, ram: &mut GuestRam, data: &[u8]) -> Result<u64, MemError> {
        self.scatter_with(ram, data.len() as u64, |done, piece| {
            piece.copy_from_slice(&data[done..done + piece.len()]);
        })
    }

    /// Fills the list's first `min(len, total_len())` bytes in place,
    /// returning that count: calls `f(done, piece)` once per in-page
    /// piece of each segment, in order, with `done` the bytes of the
    /// list before `piece` (see [`GuestRam::write_with`]). A producer
    /// writes straight into the destination pages, with no staging
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if a touched segment exceeds the
    /// memory size; earlier segments may already have been written.
    pub fn scatter_with(
        &self,
        ram: &mut GuestRam,
        len: u64,
        mut f: impl FnMut(usize, &mut [u8]),
    ) -> Result<u64, MemError> {
        let mut offset = 0u64;
        for seg in self.segments() {
            if offset >= len {
                break;
            }
            let take = (len - offset).min(u64::from(seg.len));
            let base = offset as usize;
            ram.write_with(seg.addr, take, |done, piece| f(base + done, piece))?;
            offset += take;
        }
        Ok(offset)
    }

    /// Empties the list in place, keeping any heap capacity for reuse.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(vec) => vec.clear(),
        }
    }

    /// Writes the first `mid` bytes' worth of segments into `out`
    /// (cleared first), dividing a straddling segment — the head half
    /// of [`SgList::split_at`] without constructing the tail. Reusing
    /// one `out` across calls keeps repeated partial copies (e.g. a DMA
    /// engine's short-completion path) allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `mid > total_len()`.
    pub fn prefix_into(&self, mid: u64, out: &mut SgList) {
        assert!(mid <= self.total_len(), "prefix_into: offset beyond list");
        out.clear();
        let mut remaining = mid;
        for seg in self.segments() {
            if remaining == 0 {
                break;
            }
            if u64::from(seg.len) <= remaining {
                out.push(*seg);
                remaining -= u64::from(seg.len);
            } else {
                out.push(SgSegment::new(seg.addr, remaining as u32));
                remaining = 0;
            }
        }
    }

    /// Splits the list at a byte offset: returns `(head, tail)` where
    /// `head` covers the first `mid` bytes. A segment straddling the
    /// boundary is divided. Used to separate a virtio request header from
    /// its payload.
    ///
    /// # Panics
    ///
    /// Panics if `mid > total_len()`.
    pub fn split_at(&self, mid: u64) -> (SgList, SgList) {
        assert!(mid <= self.total_len(), "split_at: offset beyond list");
        let mut head = SgList::new();
        let mut tail = SgList::new();
        let mut remaining = mid;
        for seg in self.segments() {
            if remaining == 0 {
                tail.push(*seg);
            } else if u64::from(seg.len) <= remaining {
                head.push(*seg);
                remaining -= u64::from(seg.len);
            } else {
                head.push(SgSegment::new(seg.addr, remaining as u32));
                tail.push(SgSegment::new(
                    seg.addr + remaining,
                    seg.len - remaining as u32,
                ));
                remaining = 0;
            }
        }
        (head, tail)
    }
}

impl Default for SgList {
    fn default() -> Self {
        SgList::new()
    }
}

impl std::fmt::Debug for SgList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SgList")
            .field("segments", &self.segments())
            .finish()
    }
}

impl PartialEq for SgList {
    fn eq(&self, other: &Self) -> bool {
        self.segments() == other.segments()
    }
}

impl Eq for SgList {}

impl FromIterator<SgSegment> for SgList {
    fn from_iter<I: IntoIterator<Item = SgSegment>>(iter: I) -> Self {
        let mut list = SgList::new();
        for seg in iter {
            list.push(seg);
        }
        list
    }
}

impl Extend<SgSegment> for SgList {
    fn extend<I: IntoIterator<Item = SgSegment>>(&mut self, iter: I) {
        for seg in iter {
            self.push(seg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_sim::SimRng;

    impl SgList {
        /// Creates a list from segments, in order.
        pub(crate) fn from_segments(segments: Vec<SgSegment>) -> Self {
            if segments.len() <= Self::INLINE_SEGMENTS {
                let mut list = SgList::new();
                for seg in segments {
                    list.push(seg);
                }
                list
            } else {
                SgList {
                    repr: Repr::Heap(segments),
                }
            }
        }

        /// Whether the segments are stored inline (no heap allocation).
        fn is_inline(&self) -> bool {
            matches!(self.repr, Repr::Inline { .. })
        }
    }

    fn ram_with(pairs: &[(u64, &[u8])]) -> GuestRam {
        let mut ram = GuestRam::new(1 << 20);
        for (addr, data) in pairs {
            ram.write(GuestAddr::new(*addr), data).unwrap();
        }
        ram
    }

    #[test]
    fn gather_concatenates_segments() {
        let ram = ram_with(&[(0x10, b"abc"), (0x40, b"def")]);
        let sg = SgList::from_segments(vec![
            SgSegment::new(GuestAddr::new(0x40), 3),
            SgSegment::new(GuestAddr::new(0x10), 3),
        ]);
        let mut out = b"stale".to_vec();
        sg.gather_into(&ram, &mut out).unwrap();
        assert_eq!(out, b"defabc");
        assert_eq!(sg.total_len(), 6);
        assert_eq!(sg.len(), 2);
    }

    #[test]
    fn scatter_fills_segments_in_order() {
        let mut ram = GuestRam::new(1 << 20);
        let sg = SgList::from_segments(vec![
            SgSegment::new(GuestAddr::new(0x100), 2),
            SgSegment::new(GuestAddr::new(0x200), 4),
        ]);
        let written = sg.scatter(&mut ram, b"abcdef").unwrap();
        assert_eq!(written, 6);
        assert_eq!(ram.read_vec(GuestAddr::new(0x100), 2).unwrap(), b"ab");
        assert_eq!(ram.read_vec(GuestAddr::new(0x200), 4).unwrap(), b"cdef");
    }

    #[test]
    fn scatter_short_data_stops_early() {
        let mut ram = GuestRam::new(1 << 20);
        let sg = SgList::from_segments(vec![
            SgSegment::new(GuestAddr::new(0x100), 4),
            SgSegment::new(GuestAddr::new(0x200), 4),
        ]);
        assert_eq!(sg.scatter(&mut ram, b"xy").unwrap(), 2);
        assert_eq!(ram.read_vec(GuestAddr::new(0x100), 4).unwrap(), b"xy\0\0");
    }

    #[test]
    fn scatter_excess_data_truncates_to_capacity() {
        let mut ram = GuestRam::new(1 << 20);
        let sg = SgList::single(GuestAddr::new(0), 3);
        assert_eq!(sg.scatter(&mut ram, b"abcdef").unwrap(), 3);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let mut ram = GuestRam::new(1 << 20);
        let sg = SgList::from_segments(vec![
            SgSegment::new(GuestAddr::new(10), 5),
            SgSegment::new(GuestAddr::new(5000), 7),
        ]);
        let payload: Vec<u8> = (0..12).collect();
        sg.scatter(&mut ram, &payload).unwrap();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        sg.gather_into(&ram, &mut got).unwrap();
        assert_eq!(got, payload);
        // Random disjoint lists, some segments straddling a page:
        // scatter writes min(data, capacity) bytes and gather reads
        // exactly those back.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x5ca7);
            let sg: SgList = (0..rng.range(1, 8))
                .map(|i| {
                    let at = GuestAddr::new(i * 8192 + rng.below(4096));
                    SgSegment::new(at, rng.range(1, 2048) as u32)
                })
                .collect();
            let data: Vec<u8> = (0..rng.range(1, 4096))
                .map(|_| rng.next_u32() as u8)
                .collect();
            let mut ram = GuestRam::new(1 << 20);
            let written = sg.scatter(&mut ram, &data).unwrap();
            assert_eq!(
                written,
                (data.len() as u64).min(sg.total_len()),
                "seed {seed}"
            );
            let n = written as usize;
            sg.gather_into(&ram, &mut want).unwrap();
            assert_eq!(want[..n], data[..n], "seed {seed}");
            // An in-place fill writes the same bytes to the same places:
            // its pieces tile the list in order, none crossing a page.
            let mut filled = GuestRam::new(1 << 20);
            let mut next = 0usize;
            let in_place = sg
                .scatter_with(&mut filled, data.len() as u64, |done, piece| {
                    assert_eq!(done, next, "seed {seed}");
                    assert!(piece.len() <= 4096, "seed {seed}");
                    piece.copy_from_slice(&data[done..done + piece.len()]);
                    next += piece.len();
                })
                .unwrap();
            assert_eq!((in_place, next), (written, n), "seed {seed}");
            assert_eq!(filled.resident_pages(), ram.resident_pages(), "seed {seed}");
            sg.gather_into(&filled, &mut got).unwrap();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn gather_prefix_reads_only_the_front() {
        let ram = ram_with(&[(0x10, b"abc"), (0x40, b"defgh")]);
        let sg = SgList::from_segments(vec![
            SgSegment::new(GuestAddr::new(0x10), 3),
            SgSegment::new(GuestAddr::new(0x40), 5),
            // Past the prefix: never read, so its bad address is moot.
            SgSegment::new(GuestAddr::new(u64::MAX - 1), 8),
        ]);
        let mut hdr = [0u8; 6];
        assert_eq!(sg.gather_prefix(&ram, &mut hdr).unwrap(), 6);
        assert_eq!(&hdr, b"abcdef");
        let short = SgList::single(GuestAddr::new(0x40), 2);
        let mut buf = [0u8; 4];
        assert_eq!(short.gather_prefix(&ram, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"de");
        let bad = SgList::single(GuestAddr::new((1 << 20) - 1), 4);
        assert!(bad.gather_prefix(&ram, &mut buf).is_err());
    }

    #[test]
    fn split_at_divides_a_straddling_segment() {
        let sg = SgList::from_segments(vec![
            SgSegment::new(GuestAddr::new(0), 10),
            SgSegment::new(GuestAddr::new(100), 10),
        ]);
        let (head, tail) = sg.split_at(13);
        assert_eq!(head.total_len(), 13);
        assert_eq!(tail.total_len(), 7);
        assert_eq!(tail.segments()[0].addr, GuestAddr::new(103));
    }

    #[test]
    fn split_at_boundaries() {
        let sg = SgList::single(GuestAddr::new(0), 8);
        let (h, t) = sg.split_at(0);
        assert!(h.is_empty());
        assert_eq!(t.total_len(), 8);
        let (h, t) = sg.split_at(8);
        assert_eq!(h.total_len(), 8);
        assert!(t.is_empty());
        // Any split conserves the length and the bytes, in order.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x5b17);
            let sg: SgList = (0..rng.range(1, 8))
                .map(|i| SgSegment::new(GuestAddr::new(i * 4096), rng.range(1, 512) as u32))
                .collect();
            let mid = (sg.total_len() as f64 * rng.f64()) as u64;
            let (head, tail) = sg.split_at(mid);
            assert_eq!(head.total_len(), mid, "seed {seed}");
            assert_eq!(
                head.total_len() + tail.total_len(),
                sg.total_len(),
                "seed {seed}"
            );
            let mut ram = GuestRam::new(1 << 20);
            let data: Vec<u8> = (0..sg.total_len()).map(|i| (i % 251) as u8).collect();
            sg.scatter(&mut ram, &data).unwrap();
            let (mut joined, mut rest) = (Vec::new(), Vec::new());
            head.gather_into(&ram, &mut joined).unwrap();
            tail.gather_into(&ram, &mut rest).unwrap();
            joined.extend(rest);
            assert_eq!(joined, data, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "offset beyond list")]
    fn split_beyond_end_panics() {
        SgList::single(GuestAddr::new(0), 4).split_at(5);
    }

    #[test]
    fn prefix_into_matches_split_at_head() {
        let sg = SgList::from_segments(vec![
            SgSegment::new(GuestAddr::new(0), 10),
            SgSegment::new(GuestAddr::new(100), 10),
        ]);
        let mut out = SgList::new();
        for mid in [0, 7, 10, 13, 20] {
            sg.prefix_into(mid, &mut out);
            assert_eq!(out, sg.split_at(mid).0, "mid {mid}");
        }
    }

    #[test]
    fn clear_keeps_heap_capacity_and_resets_inline() {
        let long: Vec<SgSegment> = (0..6)
            .map(|i| SgSegment::new(GuestAddr::new(i * 10), 1))
            .collect();
        let mut heap = SgList::from_segments(long);
        heap.clear();
        assert!(heap.is_empty());
        let mut inline = SgList::single(GuestAddr::new(0), 4);
        inline.clear();
        assert!(inline.is_empty() && inline.is_inline());
    }

    #[test]
    #[should_panic(expected = "offset beyond list")]
    fn prefix_beyond_end_panics() {
        let mut out = SgList::new();
        SgList::single(GuestAddr::new(0), 4).prefix_into(5, &mut out);
    }

    #[test]
    fn collect_and_extend() {
        let mut sg: SgList = (0..3)
            .map(|i| SgSegment::new(GuestAddr::new(i * 100), 10))
            .collect();
        sg.extend([SgSegment::new(GuestAddr::new(900), 1)]);
        assert_eq!(sg.len(), 4);
        assert_eq!(sg.total_len(), 31);
    }

    #[test]
    fn short_lists_stay_inline_and_spill_transparently() {
        let mut sg = SgList::new();
        for i in 0..SgList::INLINE_SEGMENTS {
            sg.push(SgSegment::new(GuestAddr::new(i as u64 * 0x100), 8));
            assert!(sg.is_inline(), "fits inline up to the bound");
        }
        let inline_copy = sg.clone();
        sg.push(SgSegment::new(GuestAddr::new(0x9000), 8));
        assert!(!sg.is_inline(), "one past the bound spills to the heap");
        assert_eq!(sg.len(), SgList::INLINE_SEGMENTS + 1);
        // The first INLINE_SEGMENTS entries survived the spill intact.
        assert_eq!(
            &sg.segments()[..SgList::INLINE_SEGMENTS],
            inline_copy.segments()
        );
    }

    #[test]
    fn equality_ignores_representation() {
        let long: Vec<SgSegment> = (0..6)
            .map(|i| SgSegment::new(GuestAddr::new(i * 10), 1))
            .collect();
        let heap = SgList::from_segments(long.clone());
        let pushed: SgList = long.into_iter().collect();
        assert!(!heap.is_inline());
        assert_eq!(heap, pushed);
        assert_eq!(format!("{heap:?}"), format!("{pushed:?}"));
    }

    #[test]
    fn gather_out_of_bounds_propagates() {
        let ram = GuestRam::new(64);
        let sg = SgList::single(GuestAddr::new(60), 8);
        assert!(sg.gather_into(&ram, &mut Vec::new()).is_err());
    }
}
