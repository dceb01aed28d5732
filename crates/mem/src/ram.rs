//! Sparse guest physical memory.
//!
//! [`GuestRam`] is a two-level page table indexed directly by address: a
//! directory of 2 MiB leaves, each holding 512 slots for 4 KiB pages.
//! Both levels are allocated on first write, so a 64 GiB board costs only
//! what the guest touches. A fixed-size access inside one page
//! ([`GuestRam::read_array`], [`GuestRam::write_array`] and the integer
//! accessors over them) is one bounds check, one page lookup (two array
//! indexes) and one fixed-length copy; a variable-length access, or a
//! fixed-size one that straddles a page, pays a lookup per page piece.

use crate::addr::GuestAddr;
use std::error::Error;
use std::fmt;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT; // 4 KiB
/// Pages per directory leaf: 512 × 4 KiB = 2 MiB.
const LEAF_SHIFT: u64 = 9;
const LEAF_PAGES: usize = 1 << LEAF_SHIFT;

type Page = [u8; PAGE_SIZE as usize];
type Leaf = [Option<Box<Page>>; LEAF_PAGES];

/// Errors returned by [`GuestRam`] accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The access `[addr, addr + len)` falls outside the configured RAM
    /// size.
    OutOfBounds {
        /// Starting address of the failed access.
        addr: GuestAddr,
        /// Length of the failed access in bytes.
        len: u64,
        /// Configured memory size in bytes.
        size: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len, size } => write!(
                f,
                "guest memory access out of bounds: {addr}+{len} exceeds {size} bytes"
            ),
        }
    }
}

impl Error for MemError {}

/// A byte-addressable guest physical memory.
///
/// Pages are allocated lazily, so a 64 GiB compute board costs only what
/// the guest actually touches. Unwritten memory reads as zero, matching
/// freshly-powered-on DRAM handed to a bm-guest after the previous
/// tenant's board is scrubbed.
///
/// # Example
///
/// ```
/// use bmhive_mem::{GuestAddr, GuestRam};
///
/// let mut ram = GuestRam::new(1 << 30);
/// ram.write_u32(GuestAddr::new(16), 0xdead_beef).unwrap();
/// assert_eq!(ram.read_u32(GuestAddr::new(16)).unwrap(), 0xdead_beef);
/// assert_eq!(ram.read_u32(GuestAddr::new(64)).unwrap(), 0); // untouched
/// ```
#[derive(Debug, Clone)]
pub struct GuestRam {
    size: u64,
    /// Leaf `i` maps pages `[i * 512, (i + 1) * 512)`. The directory
    /// grows to the highest leaf written; absent entries read as zero.
    dir: Vec<Option<Box<Leaf>>>,
}

impl GuestRam {
    /// Creates a memory of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: u64) -> Self {
        assert!(size > 0, "GuestRam: size must be positive");
        GuestRam {
            size,
            dir: Vec::new(),
        }
    }

    /// The configured size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of 4 KiB pages actually allocated so far, counted from
    /// the page directory on each call.
    pub fn resident_pages(&self) -> usize {
        self.dir
            .iter()
            .flatten()
            .map(|leaf| leaf.iter().filter(|page| page.is_some()).count())
            .sum()
    }

    pub(crate) fn check(&self, addr: GuestAddr, len: u64) -> Result<(), MemError> {
        let end = addr.value().checked_add(len);
        match end {
            Some(end) if end <= self.size => Ok(()),
            _ => Err(MemError::OutOfBounds {
                addr,
                len,
                size: self.size,
            }),
        }
    }

    /// The page holding page number `page`, if it was ever written.
    fn page(&self, page: u64) -> Option<&Page> {
        let leaf = self.dir.get((page >> LEAF_SHIFT) as usize)?.as_deref()?;
        leaf[page as usize & (LEAF_PAGES - 1)].as_deref()
    }

    /// The page holding page number `page`, allocating it (and its leaf)
    /// zero-filled on first touch.
    fn page_mut(&mut self, page: u64) -> &mut Page {
        let l = (page >> LEAF_SHIFT) as usize;
        if l >= self.dir.len() {
            self.dir.resize_with(l + 1, || None);
        }
        let leaf = self.dir[l].get_or_insert_with(|| Box::new([const { None }; LEAF_PAGES]));
        leaf[page as usize & (LEAF_PAGES - 1)]
            .get_or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]))
    }

    /// Applies `f` to each in-page piece of `[offset, offset + len)`, in
    /// order: `(page number, offset within the page, bytes done before
    /// this piece, piece length)`.
    #[inline]
    fn for_each_piece(offset: u64, len: usize, mut f: impl FnMut(u64, usize, usize, usize)) {
        let mut at = offset;
        let mut done = 0usize;
        while done < len {
            let in_page = (at & (PAGE_SIZE - 1)) as usize;
            let take = (len - done).min(PAGE_SIZE as usize - in_page);
            f(at >> PAGE_SHIFT, in_page, done, take);
            done += take;
            at += take as u64;
        }
    }

    /// [`GuestRam::read`] after the bounds check.
    fn read_unchecked(&self, offset: u64, buf: &mut [u8]) {
        Self::for_each_piece(offset, buf.len(), |page, in_page, done, take| {
            let out = &mut buf[done..done + take];
            match self.page(page) {
                Some(data) => out.copy_from_slice(&data[in_page..in_page + take]),
                None => out.fill(0),
            }
        });
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory
    /// size; no bytes are read in that case.
    pub fn read(&self, addr: GuestAddr, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(addr, buf.len() as u64)?;
        self.read_unchecked(addr.value(), buf);
        Ok(())
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory
    /// size; no bytes are written in that case.
    pub fn write(&mut self, addr: GuestAddr, data: &[u8]) -> Result<(), MemError> {
        self.write_with(addr, data.len() as u64, |done, piece| {
            piece.copy_from_slice(&data[done..done + piece.len()]);
        })
    }

    /// Reads the `N` bytes at `addr` as one record. Inside one page this
    /// is one page lookup and one fixed-length copy; a record that
    /// straddles a page is read piece by piece, as [`GuestRam::read`]
    /// reads it. A never-written page reads as zeros and stays
    /// unallocated.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory
    /// size.
    #[inline]
    pub fn read_array<const N: usize>(&self, addr: GuestAddr) -> Result<[u8; N], MemError> {
        self.check(addr, N as u64)?;
        let at = addr.value();
        let in_page = (at & (PAGE_SIZE - 1)) as usize;
        let mut buf = [0u8; N];
        if in_page + N <= PAGE_SIZE as usize {
            if let Some(data) = self.page(at >> PAGE_SHIFT) {
                buf.copy_from_slice(&data[in_page..in_page + N]);
            }
        } else {
            self.read_unchecked(at, &mut buf);
        }
        Ok(buf)
    }

    /// Writes the `N`-byte record `data` at `addr`: one page lookup and
    /// one fixed-length copy inside a page, piece by piece across a page
    /// boundary. Pages are allocated exactly as [`GuestRam::write`]
    /// would allocate them.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory
    /// size; no bytes are written in that case.
    #[inline]
    pub fn write_array<const N: usize>(
        &mut self,
        addr: GuestAddr,
        data: [u8; N],
    ) -> Result<(), MemError> {
        // An empty write must not make its page resident.
        const { assert!(N > 0, "write_array: empty record") };
        self.check(addr, N as u64)?;
        let at = addr.value();
        let in_page = (at & (PAGE_SIZE - 1)) as usize;
        if in_page + N <= PAGE_SIZE as usize {
            self.page_mut(at >> PAGE_SHIFT)[in_page..in_page + N].copy_from_slice(&data);
            Ok(())
        } else {
            self.write(addr, &data)
        }
    }

    /// Fills `[addr, addr + len)` in place: calls `f(done, piece)` once
    /// per in-page piece, in order, with `piece` the destination bytes
    /// and `done` the bytes of the range before it. Every touched page
    /// becomes resident, as a write would make it; `piece` holds the
    /// old contents (zeros on a new page) until `f` overwrites them.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory
    /// size; `f` is never called in that case.
    pub fn write_with(
        &mut self,
        addr: GuestAddr,
        len: u64,
        mut f: impl FnMut(usize, &mut [u8]),
    ) -> Result<(), MemError> {
        self.check(addr, len)?;
        Self::for_each_piece(addr.value(), len as usize, |page, in_page, done, take| {
            f(done, &mut self.page_mut(page)[in_page..in_page + take]);
        });
        Ok(())
    }

    /// Copies `len` bytes at `src_addr` in `src` to `addr` in this
    /// memory, reading straight into the destination pages (no
    /// intermediate buffer). Destination pages are allocated exactly as
    /// [`GuestRam::write`] would allocate them.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if either range exceeds its
    /// memory; nothing is written in that case.
    pub(crate) fn copy_from(
        &mut self,
        addr: GuestAddr,
        src: &GuestRam,
        src_addr: GuestAddr,
        len: u64,
    ) -> Result<(), MemError> {
        src.check(src_addr, len)?;
        self.check(addr, len)?;
        let from = src_addr.value();
        Self::for_each_piece(addr.value(), len as usize, |page, in_page, done, take| {
            src.read_unchecked(
                from + done as u64,
                &mut self.page_mut(page)[in_page..in_page + take],
            );
        });
        Ok(())
    }

    /// Appends the `len` bytes at `addr` to `out`, one copy per in-page
    /// piece and no zero-fill ahead of it. A never-written page appends
    /// zeros and stays unallocated.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory
    /// size; `out` is left as it was in that case.
    pub fn read_append(
        &self,
        addr: GuestAddr,
        len: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), MemError> {
        self.check(addr, len)?;
        out.reserve(len as usize);
        Self::for_each_piece(
            addr.value(),
            len as usize,
            |page, in_page, _, take| match self.page(page) {
                Some(data) => out.extend_from_slice(&data[in_page..in_page + take]),
                None => out.resize(out.len() + take, 0),
            },
        );
        Ok(())
    }

    /// Fills `[addr, addr + len)` with `byte`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory
    /// size.
    pub fn fill(&mut self, addr: GuestAddr, len: u64, byte: u8) -> Result<(), MemError> {
        self.write_with(addr, len, |_, piece| piece.fill(byte))
    }
}

macro_rules! int_access {
    ($read:ident, $write:ident, $ty:ty) => {
        impl GuestRam {
            /// Reads a little-endian integer at `addr`.
            ///
            /// # Errors
            ///
            /// Returns [`MemError::OutOfBounds`] if the access exceeds the
            /// memory size.
            #[inline]
            pub fn $read(&self, addr: GuestAddr) -> Result<$ty, MemError> {
                self.read_array(addr).map(<$ty>::from_le_bytes)
            }

            /// Writes a little-endian integer at `addr`.
            ///
            /// # Errors
            ///
            /// Returns [`MemError::OutOfBounds`] if the access exceeds the
            /// memory size.
            #[inline]
            pub fn $write(&mut self, addr: GuestAddr, value: $ty) -> Result<(), MemError> {
                self.write_array(addr, value.to_le_bytes())
            }
        }
    };
}

int_access!(read_u8, write_u8, u8);
int_access!(read_u16, write_u16, u16);
int_access!(read_u32, write_u32, u32);
int_access!(read_u64, write_u64, u64);

#[cfg(test)]
mod tests {
    use super::*;

    impl GuestRam {
        /// Reads a vector of `len` bytes starting at `addr`.
        ///
        /// # Errors
        ///
        /// Returns [`MemError::OutOfBounds`] if the range exceeds the memory
        /// size.
        pub(crate) fn read_vec(&self, addr: GuestAddr, len: u64) -> Result<Vec<u8>, MemError> {
            let mut buf = Vec::new();
            self.read_append(addr, len, &mut buf)?;
            Ok(buf)
        }
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let ram = GuestRam::new(1 << 20);
        let mut buf = [0xffu8; 16];
        ram.read(GuestAddr::new(0x500), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(ram.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut ram = GuestRam::new(1 << 20);
        ram.write(GuestAddr::new(100), b"hello world").unwrap();
        assert_eq!(
            ram.read_vec(GuestAddr::new(100), 11).unwrap(),
            b"hello world"
        );
    }

    #[test]
    fn accesses_spanning_page_boundaries() {
        let mut ram = GuestRam::new(1 << 20);
        let addr = GuestAddr::new(PAGE_SIZE - 3);
        let data: Vec<u8> = (0..10).collect();
        ram.write(addr, &data).unwrap();
        assert_eq!(ram.read_vec(addr, 10).unwrap(), data);
        assert_eq!(ram.resident_pages(), 2);
    }

    #[test]
    fn integer_accessors_are_little_endian() {
        let mut ram = GuestRam::new(1 << 16);
        ram.write_u32(GuestAddr::new(0), 0x0102_0304).unwrap();
        assert_eq!(ram.read_u8(GuestAddr::new(0)).unwrap(), 0x04);
        assert_eq!(ram.read_u8(GuestAddr::new(3)).unwrap(), 0x01);
        assert_eq!(ram.read_u16(GuestAddr::new(0)).unwrap(), 0x0304);
        ram.write_u64(GuestAddr::new(8), u64::MAX).unwrap();
        assert_eq!(ram.read_u64(GuestAddr::new(8)).unwrap(), u64::MAX);
    }

    #[test]
    fn out_of_bounds_is_reported_not_partial() {
        let mut ram = GuestRam::new(64);
        let err = ram.write(GuestAddr::new(60), &[0u8; 8]).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
        // Nothing must have been written.
        assert_eq!(ram.read_vec(GuestAddr::new(60), 4).unwrap(), vec![0; 4]);
        assert!(ram.read_u64(GuestAddr::new(57)).is_err());
        assert!(ram.read_u64(GuestAddr::new(56)).is_ok());
    }

    #[test]
    fn address_overflow_is_out_of_bounds() {
        let ram = GuestRam::new(1 << 20);
        let err = ram.read_vec(GuestAddr::new(u64::MAX - 4), 8).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
    }

    #[test]
    fn fill_writes_every_byte() {
        let mut ram = GuestRam::new(1 << 20);
        ram.fill(GuestAddr::new(4000), 1000, 0xab).unwrap();
        let data = ram.read_vec(GuestAddr::new(4000), 1000).unwrap();
        assert!(data.iter().all(|&b| b == 0xab));
    }

    #[test]
    fn sparse_allocation_only_touched_pages() {
        let mut ram = GuestRam::new(64 << 30); // 64 GiB — cheap to create
        ram.write_u8(GuestAddr::new(63 << 30), 1).unwrap();
        assert_eq!(ram.resident_pages(), 1);
        let top = GuestAddr::new((64 << 30) - 4);
        ram.write_u32(top, 0xfeed_f00d).unwrap();
        assert_eq!(ram.read_u32(top).unwrap(), 0xfeed_f00d);
        // Reads of untouched memory and failed writes allocate nothing.
        assert_eq!(ram.read_u64(GuestAddr::new(32 << 30)).unwrap(), 0);
        assert!(ram.write_u8(GuestAddr::new(64 << 30), 1).is_err());
        assert_eq!(ram.resident_pages(), 2);
    }

    /// Pages of the flat model holding a nonzero byte or ever written.
    fn touched_pages(touched: &[bool]) -> usize {
        touched.iter().filter(|&&t| t).count()
    }

    /// Byte lengths of the fixed-size accesses, by kind: the four
    /// integer widths, then an 8-byte and a 16-byte record (a used
    /// element and a descriptor).
    const RECORD_LEN: [u64; 6] = [1, 2, 4, 8, 8, 16];

    /// Writes `data` through the fixed-size accessor of `kind`.
    fn write_record(
        ram: &mut GuestRam,
        kind: u64,
        addr: GuestAddr,
        data: &[u8],
    ) -> Result<(), MemError> {
        match kind {
            0 => ram.write_u8(addr, data[0]),
            1 => ram.write_u16(addr, u16::from_le_bytes(data.try_into().unwrap())),
            2 => ram.write_u32(addr, u32::from_le_bytes(data.try_into().unwrap())),
            3 => ram.write_u64(addr, u64::from_le_bytes(data.try_into().unwrap())),
            4 => ram.write_array::<8>(addr, data.try_into().unwrap()),
            _ => ram.write_array::<16>(addr, data.try_into().unwrap()),
        }
    }

    /// Reads `RECORD_LEN[kind]` bytes through the fixed-size accessor of
    /// `kind`.
    fn read_record(ram: &GuestRam, kind: u64, addr: GuestAddr) -> Result<Vec<u8>, MemError> {
        Ok(match kind {
            0 => ram.read_u8(addr)?.to_le_bytes().to_vec(),
            1 => ram.read_u16(addr)?.to_le_bytes().to_vec(),
            2 => ram.read_u32(addr)?.to_le_bytes().to_vec(),
            3 => ram.read_u64(addr)?.to_le_bytes().to_vec(),
            4 => ram.read_array::<8>(addr)?.to_vec(),
            _ => ram.read_array::<16>(addr)?.to_vec(),
        })
    }

    #[test]
    fn page_table_matches_a_flat_byte_model() {
        use bmhive_sim::SimRng;
        // Three leaves and a bit: accesses cross page and leaf
        // boundaries and reach the last byte.
        const SIZE: u64 = 3 * (2 << 20) + 3 * PAGE_SIZE + 17;
        let mut rng = SimRng::new(0x9a9e);
        let mut ram = GuestRam::new(SIZE);
        let mut flat = vec![0u8; SIZE as usize];
        let mut touched = vec![false; SIZE.div_ceil(PAGE_SIZE) as usize];
        // An empty access touches nothing.
        let touch = |touched: &mut [bool], addr: u64, len: u64| {
            if len > 0 {
                for p in addr >> PAGE_SHIFT..(addr + len).div_ceil(PAGE_SIZE) {
                    touched[p as usize] = true;
                }
            }
        };
        for step in 0..6000 {
            let op = rng.below(8);
            // Ops 6 and 7 go through the fixed-size accessors.
            let kind = rng.below(RECORD_LEN.len() as u64);
            let len = match (op, rng.below(5)) {
                (6 | 7, _) => RECORD_LEN[kind as usize],
                (_, 0) => rng.below(9),
                (_, 1) => rng.below(PAGE_SIZE + 1),
                (_, 2) => 3 * PAGE_SIZE + rng.below(PAGE_SIZE),
                (_, 3) => rng.range(1, 4 * PAGE_SIZE),
                _ => 8,
            };
            let addr = match rng.below(5) {
                // Straddle a page boundary.
                0 => (rng.below(SIZE / PAGE_SIZE) * PAGE_SIZE).saturating_sub(rng.below(len + 1)),
                // Straddle a leaf boundary.
                1 => (rng.range(1, 4) << (LEAF_SHIFT + PAGE_SHIFT)) - rng.below(len + 1),
                // End exactly at (or just past) the last byte.
                2 => (SIZE - len.min(SIZE)) + rng.below(2),
                // Anywhere, including out of bounds.
                _ => rng.below(SIZE + 64),
            };
            let in_bounds = addr + len <= SIZE;
            match op {
                0 | 1 => {
                    let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                    let result = ram.write(GuestAddr::new(addr), &data);
                    assert_eq!(result.is_ok(), in_bounds, "step {step}");
                    if in_bounds {
                        flat[addr as usize..(addr + len) as usize].copy_from_slice(&data);
                        touch(&mut touched, addr, len);
                    }
                }
                2 => {
                    let byte = rng.next_u32() as u8;
                    let result = ram.fill(GuestAddr::new(addr), len, byte);
                    assert_eq!(result.is_ok(), in_bounds, "step {step}");
                    if in_bounds {
                        flat[addr as usize..(addr + len) as usize].fill(byte);
                        touch(&mut touched, addr, len);
                    }
                }
                3 => {
                    // In-place fill: the pieces tile the range in order
                    // and none crosses a page.
                    let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                    let mut next = 0usize;
                    let result = ram.write_with(GuestAddr::new(addr), len, |done, piece| {
                        assert_eq!(done, next, "step {step}");
                        let at = addr + done as u64;
                        assert!(at % PAGE_SIZE + piece.len() as u64 <= PAGE_SIZE);
                        piece.copy_from_slice(&data[done..done + piece.len()]);
                        next += piece.len();
                    });
                    assert_eq!(result.is_ok(), in_bounds, "step {step}");
                    if in_bounds {
                        assert_eq!(next as u64, len, "step {step}");
                        flat[addr as usize..(addr + len) as usize].copy_from_slice(&data);
                        touch(&mut touched, addr, len);
                    } else {
                        assert_eq!(next, 0, "failed write_with called back");
                    }
                }
                4 => {
                    // Appends after what `out` already holds; never-written
                    // pages read as zeros without becoming resident (the
                    // check after the match).
                    let mut out = vec![0x5au8; rng.below(3) as usize];
                    let before = out.clone();
                    let result = ram.read_append(GuestAddr::new(addr), len, &mut out);
                    assert_eq!(result.is_ok(), in_bounds, "step {step}");
                    assert_eq!(out[..before.len()], before, "step {step}");
                    if in_bounds {
                        assert_eq!(
                            out[before.len()..],
                            flat[addr as usize..(addr + len) as usize]
                        );
                    } else {
                        assert_eq!(out.len(), before.len(), "failed read_append appended");
                    }
                }
                5 => {
                    let mut buf = vec![0x5au8; len as usize];
                    let result = ram.read(GuestAddr::new(addr), &mut buf);
                    assert_eq!(result.is_ok(), in_bounds, "step {step}");
                    if in_bounds {
                        assert_eq!(buf, flat[addr as usize..(addr + len) as usize]);
                    } else {
                        assert!(buf.iter().all(|&b| b == 0x5a), "failed read wrote");
                    }
                }
                6 => {
                    let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                    let result = write_record(&mut ram, kind, GuestAddr::new(addr), &data);
                    assert_eq!(result.is_ok(), in_bounds, "step {step}");
                    if in_bounds {
                        flat[addr as usize..(addr + len) as usize].copy_from_slice(&data);
                        touch(&mut touched, addr, len);
                    }
                }
                _ => {
                    // Never-written pages read as zeros without becoming
                    // resident (the check after the match).
                    let result = read_record(&ram, kind, GuestAddr::new(addr));
                    assert_eq!(result.is_ok(), in_bounds, "step {step}");
                    if let Ok(bytes) = result {
                        assert_eq!(
                            bytes,
                            flat[addr as usize..(addr + len) as usize],
                            "step {step}"
                        );
                    }
                }
            }
            assert_eq!(ram.resident_pages(), touched_pages(&touched), "step {step}");
        }
        assert_eq!(ram.read_vec(GuestAddr::new(0), SIZE).unwrap(), flat);
        let last = GuestAddr::new(SIZE - 1);
        assert_eq!(ram.read_u8(last).unwrap(), flat[SIZE as usize - 1]);
        assert!(ram.read_u16(last).is_err());
        let clone = ram.clone();
        assert_eq!(clone.resident_pages(), ram.resident_pages());
        assert_eq!(clone.read_vec(GuestAddr::new(0), SIZE).unwrap(), flat);
    }

    #[test]
    fn error_display_is_informative() {
        let err = MemError::OutOfBounds {
            addr: GuestAddr::new(0x10),
            len: 4,
            size: 8,
        };
        let msg = err.to_string();
        assert!(msg.contains("out of bounds"));
        assert!(msg.contains("0x10"));
    }
}
