//! Guest-physical address newtype.

use core::fmt;
use core::ops::{Add, Sub};

/// A guest-physical address.
///
/// Using a newtype keeps addresses from being mixed up with byte counts
/// or ring indices in the virtio and DMA code, where all three are `u64`s.
///
/// # Example
///
/// ```
/// use bmhive_mem::GuestAddr;
///
/// let base = GuestAddr::new(0x1000);
/// let field = base + 8;
/// assert_eq!(field.value(), 0x1008);
/// assert_eq!(field - base, 8);
/// assert!(base.is_aligned(4096));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GuestAddr(u64);

impl GuestAddr {
    /// Creates an address from a raw value.
    pub const fn new(value: u64) -> Self {
        GuestAddr(value)
    }

    /// The raw address value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// The address `offset` bytes further, checking for overflow.
    pub fn checked_add(self, offset: u64) -> Option<GuestAddr> {
        self.0.checked_add(offset).map(GuestAddr)
    }

    /// Whether the address is a multiple of `align`.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn is_aligned(self, align: u64) -> bool {
        assert!(
            align.is_power_of_two(),
            "is_aligned: align must be a power of two"
        );
        self.0 & (align - 1) == 0
    }

    /// The address rounded up to the next multiple of `align`.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or rounding overflows.
    pub fn align_up(self, align: u64) -> GuestAddr {
        assert!(
            align.is_power_of_two(),
            "align_up: align must be a power of two"
        );
        let mask = align - 1;
        GuestAddr(
            self.0
                .checked_add(mask)
                .expect("align_up: address overflow")
                & !mask,
        )
    }
}

impl Add<u64> for GuestAddr {
    type Output = GuestAddr;
    fn add(self, rhs: u64) -> GuestAddr {
        GuestAddr(self.0.checked_add(rhs).expect("GuestAddr overflow"))
    }
}

impl Sub<GuestAddr> for GuestAddr {
    type Output = u64;
    fn sub(self, rhs: GuestAddr) -> u64 {
        self.0.checked_sub(rhs.0).expect("GuestAddr underflow")
    }
}

impl fmt::Display for GuestAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for GuestAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for GuestAddr {
    fn from(value: u64) -> Self {
        GuestAddr(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trips() {
        let a = GuestAddr::new(0x2000);
        assert_eq!((a + 0x10) - a, 0x10);
        assert_eq!(a.checked_add(8), Some(GuestAddr::new(0x2008)));
        assert_eq!(a.checked_add(u64::MAX), None);
    }

    #[test]
    fn alignment_checks() {
        assert!(GuestAddr::new(0x3000).is_aligned(4096));
        assert!(!GuestAddr::new(0x3001).is_aligned(4096));
        assert_eq!(
            GuestAddr::new(0x3001).align_up(4096),
            GuestAddr::new(0x4000)
        );
        assert_eq!(
            GuestAddr::new(0x4000).align_up(4096),
            GuestAddr::new(0x4000)
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn alignment_requires_power_of_two() {
        GuestAddr::new(0).is_aligned(3);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(GuestAddr::new(0xdead).to_string(), "0xdead");
        assert_eq!(format!("{:x}", GuestAddr::new(0xbeef)), "beef");
    }

    #[test]
    #[should_panic(expected = "GuestAddr overflow")]
    fn add_overflow_panics() {
        let _ = GuestAddr::new(u64::MAX) + 1;
    }
}
