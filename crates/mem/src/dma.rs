//! DMA engine timing model.
//!
//! §3.4.3: "IO-Bond internal DMA throughput is around 50 Gbps", and each
//! PCIe x4 interface sustains 32 Gbps. [`DmaModel`] converts a transfer
//! size into a [`SimDuration`] given a link bandwidth and a fixed
//! per-transfer setup cost, and the actual byte movement between the two
//! memory domains is done with [`DmaModel::transfer`].

use crate::addr::GuestAddr;
use crate::ram::{GuestRam, MemError};
use crate::sg::SgList;
use bmhive_sim::SimDuration;

/// Timing model for a DMA engine or link: fixed setup latency plus
/// size-proportional transfer time at a given bandwidth.
///
/// # Example
///
/// ```
/// use bmhive_mem::DmaModel;
/// use bmhive_sim::SimDuration;
///
/// // IO-Bond's internal engine: 50 Gbit/s, 0.2 us setup per transfer.
/// let dma = DmaModel::new(50.0, SimDuration::from_nanos(200));
/// let t = dma.transfer_time(64 * 1024);
/// // 64 KiB at 50 Gbit/s ≈ 10.5 us, plus setup.
/// assert!(t > SimDuration::from_micros(10) && t < SimDuration::from_micros(11));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaModel {
    bandwidth_gbps: f64,
    setup: SimDuration,
}

impl DmaModel {
    /// Creates a model with `bandwidth_gbps` gigabits per second of
    /// throughput and `setup` fixed cost per transfer.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_gbps` is not positive and finite.
    pub fn new(bandwidth_gbps: f64, setup: SimDuration) -> Self {
        assert!(
            bandwidth_gbps > 0.0 && bandwidth_gbps.is_finite(),
            "DmaModel: bandwidth must be positive"
        );
        DmaModel {
            bandwidth_gbps,
            setup,
        }
    }

    /// The modelled bandwidth in Gbit/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bandwidth_gbps
    }

    /// The fixed setup latency per transfer.
    pub fn setup(&self) -> SimDuration {
        self.setup
    }

    /// Time to move `bytes` bytes: setup + bytes / bandwidth.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        let secs = (bytes as f64 * 8.0) / (self.bandwidth_gbps * 1e9);
        self.setup + SimDuration::from_secs_f64(secs)
    }

    /// Moves bytes described by `src_sg` in `src` into the buffers
    /// described by `dst_sg` in `dst`, returning the bytes moved and the
    /// modelled transfer time. Copies `min(src_sg.total_len(),
    /// dst_sg.total_len())` bytes.
    ///
    /// Bytes move segment to segment, page to page, with no intermediate
    /// buffer: the same result as [`SgList::gather_into`] followed by
    /// [`SgList::scatter`], copied once.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if either list references memory
    /// outside its RAM. Every source segment is checked before any byte
    /// is written; a bad destination segment fails after the segments
    /// before it were filled.
    pub fn transfer(
        &self,
        src: &GuestRam,
        src_sg: &SgList,
        dst: &mut GuestRam,
        dst_sg: &SgList,
    ) -> Result<(u64, SimDuration), MemError> {
        for seg in src_sg.segments() {
            src.check(seg.addr, u64::from(seg.len))?;
        }
        let total = src_sg.total_len();
        let mut sources = src_sg.segments().iter();
        // Unconsumed tail of the current source segment.
        let (mut from, mut from_left) = (GuestAddr::new(0), 0u64);
        let mut moved = 0u64;
        for seg in dst_sg.segments() {
            if moved >= total {
                break;
            }
            let take = (total - moved).min(u64::from(seg.len));
            dst.check(seg.addr, take)?;
            let (mut to, mut left) = (seg.addr, take);
            while left > 0 {
                if from_left == 0 {
                    let next = sources.next().expect("sources cover `total` bytes");
                    (from, from_left) = (next.addr, u64::from(next.len));
                    continue;
                }
                let n = left.min(from_left);
                dst.copy_from(to, src, from, n)?;
                (to, from) = (to + n, from + n);
                (left, from_left) = (left - n, from_left - n);
            }
            moved += take;
        }
        Ok((moved, self.transfer_time(moved)))
    }

    /// The sustained throughput in bytes/second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bandwidth_gbps * 1e9 / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sg::SgSegment;
    use bmhive_sim::SimRng;

    #[test]
    fn transfer_time_scales_linearly() {
        let dma = DmaModel::new(8.0, SimDuration::ZERO); // 1 GB/s
        assert_eq!(dma.transfer_time(1_000_000), SimDuration::from_millis(1));
        assert_eq!(dma.transfer_time(2_000_000), SimDuration::from_millis(2));
        assert_eq!(dma.transfer_time(0), SimDuration::ZERO);
        // For any bandwidth and setup cost, time is monotone in size and
        // linear in it up to the one setup charge (±2 ns of rounding).
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0xd1a7);
            let setup = rng.below(10_000);
            let dma = DmaModel::new(1.0 + rng.f64() * 199.0, SimDuration::from_nanos(setup));
            let t = |bytes| i128::from(dma.transfer_time(bytes).as_nanos());
            let (small, delta) = (rng.below(1_000_000), rng.below(1_000_000));
            assert!(t(small + delta) >= t(small), "seed {seed}");
            let err = t(small + delta) - (t(small) + t(delta) - i128::from(setup));
            assert!(err.abs() <= 2, "seed {seed}: off by {err} ns");
        }
    }

    #[test]
    fn setup_cost_dominates_small_transfers() {
        let dma = DmaModel::new(50.0, SimDuration::from_nanos(800));
        // A 64-byte mailbox read is all setup.
        let t = dma.transfer_time(64);
        assert!(t >= SimDuration::from_nanos(800));
        assert!(t < SimDuration::from_nanos(900));
    }

    #[test]
    fn transfer_moves_bytes_between_domains() {
        let dma = DmaModel::new(50.0, SimDuration::from_nanos(200));
        let mut board = GuestRam::new(1 << 20);
        let mut base = GuestRam::new(1 << 20);
        board.write(GuestAddr::new(0x100), b"tx-payload").unwrap();
        let src = SgList::single(GuestAddr::new(0x100), 10);
        let dst = SgList::from_segments(vec![
            SgSegment::new(GuestAddr::new(0x800), 4),
            SgSegment::new(GuestAddr::new(0x900), 6),
        ]);
        let (moved, time) = dma.transfer(&board, &src, &mut base, &dst).unwrap();
        assert_eq!(moved, 10);
        assert!(time > SimDuration::ZERO);
        assert_eq!(base.read_vec(GuestAddr::new(0x800), 4).unwrap(), b"tx-p");
        assert_eq!(base.read_vec(GuestAddr::new(0x900), 6).unwrap(), b"ayload");
    }

    #[test]
    fn transfer_is_limited_by_smaller_list() {
        let dma = DmaModel::new(50.0, SimDuration::ZERO);
        let src_ram = GuestRam::new(1 << 16);
        let mut dst_ram = GuestRam::new(1 << 16);
        let src = SgList::single(GuestAddr::new(0), 100);
        let dst = SgList::single(GuestAddr::new(0), 40);
        let (moved, _) = dma.transfer(&src_ram, &src, &mut dst_ram, &dst).unwrap();
        assert_eq!(moved, 40);
    }

    /// A random list of 1..=5 segments inside `ram_size`, many of them
    /// straddling 4 KiB page boundaries.
    fn random_sg(rng: &mut SimRng, ram_size: u64) -> SgList {
        (0..1 + rng.below(5))
            .map(|_| {
                let len = rng.below(6000);
                let addr = rng.below(ram_size - len);
                SgSegment::new(GuestAddr::new(addr), len as u32)
            })
            .collect()
    }

    #[test]
    fn transfer_matches_gather_then_scatter_across_pages() {
        const SIZE: u64 = 1 << 16;
        let dma = DmaModel::new(50.0, SimDuration::ZERO);
        let mut rng = SimRng::new(0xd3a);
        let mut src = GuestRam::new(SIZE);
        for page in 0..SIZE / 4096 {
            // Leave some source pages unwritten: they must copy as zeros.
            if rng.chance(0.7) {
                let bytes: Vec<u8> = (0..4096).map(|_| rng.next_u32() as u8).collect();
                src.write(GuestAddr::new(page * 4096), &bytes).unwrap();
            }
        }
        let mut copied = GuestRam::new(SIZE);
        let mut reference = GuestRam::new(SIZE);
        let mut gathered = Vec::new();
        for round in 0..200 {
            let src_sg = random_sg(&mut rng, SIZE);
            let dst_sg = random_sg(&mut rng, SIZE);
            let (moved, time) = dma.transfer(&src, &src_sg, &mut copied, &dst_sg).unwrap();
            src_sg.gather_into(&src, &mut gathered).unwrap();
            let expect = dst_sg.scatter(&mut reference, &gathered).unwrap();
            assert_eq!(moved, expect, "round {round}");
            assert_eq!(moved, src_sg.total_len().min(dst_sg.total_len()));
            assert_eq!(time, dma.transfer_time(moved));
            assert_eq!(copied.resident_pages(), reference.resident_pages());
        }
        assert_eq!(
            copied.read_vec(GuestAddr::new(0), SIZE).unwrap(),
            reference.read_vec(GuestAddr::new(0), SIZE).unwrap()
        );
        // Any payload crosses domains byte for byte.
        for seed in 0..64 {
            let mut rng = SimRng::with_stream(seed, 0xc0de);
            let data: Vec<u8> = (0..rng.range(1, 8192))
                .map(|_| rng.next_u32() as u8)
                .collect();
            let (from, to) = (GuestAddr::new(0x4000), GuestAddr::new(0x9000));
            let mut src = GuestRam::new(SIZE);
            src.write(from, &data).unwrap();
            let mut dst = GuestRam::new(SIZE);
            let len = data.len() as u32;
            let (src_sg, dst_sg) = (SgList::single(from, len), SgList::single(to, len));
            let (moved, _) = dma.transfer(&src, &src_sg, &mut dst, &dst_sg).unwrap();
            assert_eq!(moved, u64::from(len), "seed {seed}");
            assert_eq!(dst.read_vec(to, moved).unwrap(), data, "seed {seed}");
        }
    }

    #[test]
    fn out_of_bounds_source_writes_nothing() {
        let dma = DmaModel::new(50.0, SimDuration::ZERO);
        let mut src = GuestRam::new(1 << 16);
        src.fill(GuestAddr::new(0), 1 << 16, 0xee).unwrap();
        let mut dst = GuestRam::new(1 << 16);
        // The first segment alone would fill the destination; the bad
        // second one must stop the transfer before any byte lands.
        let src_sg = SgList::from_segments(vec![
            SgSegment::new(GuestAddr::new(4000), 200),
            SgSegment::new(GuestAddr::new((1 << 16) - 8), 16),
        ]);
        let dst_sg = SgList::single(GuestAddr::new(4090), 100);
        let err = dma.transfer(&src, &src_sg, &mut dst, &dst_sg).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
        assert_eq!(dst.resident_pages(), 0);
    }

    #[test]
    fn out_of_bounds_destination_fails_after_earlier_segments() {
        let dma = DmaModel::new(50.0, SimDuration::ZERO);
        let mut src = GuestRam::new(1 << 16);
        src.write(GuestAddr::new(0), b"abcdefgh").unwrap();
        let mut dst = GuestRam::new(1 << 16);
        let dst_sg = SgList::from_segments(vec![
            SgSegment::new(GuestAddr::new(100), 4),
            SgSegment::new(GuestAddr::new((1 << 16) - 2), 4),
        ]);
        let src_sg = SgList::single(GuestAddr::new(0), 8);
        assert!(dma.transfer(&src, &src_sg, &mut dst, &dst_sg).is_err());
        // As with a scatter: the segment before the bad one was filled.
        assert_eq!(dst.read_vec(GuestAddr::new(100), 4).unwrap(), b"abcd");
        assert_eq!(
            dst.read_vec(GuestAddr::new((1 << 16) - 2), 2).unwrap(),
            [0, 0]
        );
    }

    #[test]
    fn bytes_per_sec_conversion() {
        let dma = DmaModel::new(50.0, SimDuration::ZERO);
        assert_eq!(dma.bytes_per_sec(), 6.25e9);
        assert_eq!(dma.bandwidth_gbps(), 50.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        DmaModel::new(0.0, SimDuration::ZERO);
    }
}
