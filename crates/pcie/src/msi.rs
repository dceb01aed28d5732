//! Message-signalled interrupts.
//!
//! In BM-Hive the only interrupts on the I/O path are the MSIs IO-Bond
//! raises into the bm-guest when Rx data or a completion arrives (Fig. 6,
//! step "get a MSI interrupt once Rx data arrived"); the backend side is
//! interrupt-free (polled). [`MsiQueue`] is the delivery fabric: devices
//! post [`MsiMessage`]s, the guest-side interrupt handler drains them.

use bmhive_sim::SimTime;
use std::collections::VecDeque;

/// A delivered MSI: which vector fired and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsiMessage {
    /// The interrupt vector number.
    pub vector: u16,
    /// Simulated delivery time.
    pub delivered_at: SimTime,
}

/// An MSI delivery queue with per-vector masking.
///
/// # Example
///
/// ```
/// use bmhive_pcie::MsiQueue;
/// use bmhive_sim::SimTime;
///
/// let mut q = MsiQueue::new(4);
/// q.post(0, SimTime::from_micros(5));
/// let msg = q.drain().next().unwrap();
/// assert_eq!(msg.vector, 0);
/// ```
#[derive(Debug, Clone)]
pub struct MsiQueue {
    pending: VecDeque<MsiMessage>,
    masked: Vec<bool>,
    // Messages that arrived while the vector was masked; re-posted on
    // unmask, as PCIe pending bits do.
    latched: Vec<bool>,
    posted: u64,
    suppressed: u64,
}

impl MsiQueue {
    /// Creates a queue with `vectors` interrupt vectors, all unmasked.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is zero.
    pub fn new(vectors: u16) -> Self {
        assert!(vectors > 0, "MsiQueue: need at least one vector");
        MsiQueue {
            pending: VecDeque::new(),
            masked: vec![false; vectors as usize],
            latched: vec![false; vectors as usize],
            posted: 0,
            suppressed: 0,
        }
    }

    /// Number of configured vectors.
    pub fn vectors(&self) -> u16 {
        self.masked.len() as u16
    }

    /// Posts an interrupt on `vector` at time `now`. If the vector is
    /// masked, the interrupt is latched and will fire on unmask.
    ///
    /// # Panics
    ///
    /// Panics if `vector` is out of range.
    pub fn post(&mut self, vector: u16, now: SimTime) {
        let idx = vector as usize;
        assert!(idx < self.masked.len(), "MSI vector out of range");
        if self.masked[idx] {
            self.latched[idx] = true;
            self.suppressed += 1;
        } else {
            self.pending.push_back(MsiMessage {
                vector,
                delivered_at: now,
            });
            self.posted += 1;
        }
    }

    /// Masks a vector; subsequent posts latch instead of delivering.
    ///
    /// # Panics
    ///
    /// Panics if `vector` is out of range.
    pub fn mask(&mut self, vector: u16) {
        self.masked[vector as usize] = true;
    }

    /// Unmasks a vector, delivering a latched interrupt (if any) at
    /// `now`.
    ///
    /// # Panics
    ///
    /// Panics if `vector` is out of range.
    pub fn unmask(&mut self, vector: u16, now: SimTime) {
        let idx = vector as usize;
        self.masked[idx] = false;
        if self.latched[idx] {
            self.latched[idx] = false;
            self.post(vector, now);
        }
    }

    /// Whether any interrupts are pending delivery.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Drains all pending interrupts in delivery order.
    pub fn drain(&mut self) -> impl Iterator<Item = MsiMessage> + '_ {
        self.pending.drain(..)
    }

    /// Total interrupts delivered so far (not counting masked ones).
    pub fn delivered_count(&self) -> u64 {
        self.posted
    }

    /// Total posts that were suppressed by masking. Interrupt
    /// *moderation* on the virtio path shows up here.
    pub fn suppressed_count(&self) -> u64 {
        self.suppressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_sim::SimRng;

    #[test]
    fn post_and_drain_in_order() {
        let mut q = MsiQueue::new(2);
        q.post(1, SimTime::from_nanos(10));
        q.post(0, SimTime::from_nanos(20));
        let msgs: Vec<_> = q.drain().collect();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].vector, 1);
        assert_eq!(msgs[1].vector, 0);
        assert!(!q.has_pending());
        assert_eq!(q.delivered_count(), 2);
    }

    #[test]
    fn masked_vector_latches() {
        let mut q = MsiQueue::new(1);
        q.mask(0);
        q.post(0, SimTime::ZERO);
        q.post(0, SimTime::ZERO);
        assert!(!q.has_pending());
        assert_eq!(q.suppressed_count(), 2);
        q.unmask(0, SimTime::from_nanos(5));
        // Two latched posts coalesce into one delivery, like a pending bit.
        let msgs: Vec<_> = q.drain().collect();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].delivered_at, SimTime::from_nanos(5));
        // Random post / mask / unmask / drain storms: masked posts
        // coalesce, and every delivery is drained exactly once.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x3151);
            let mut q = MsiQueue::new(4);
            let (mut posts, mut drained) = (0, 0);
            for i in 0..rng.range(1, 200) {
                let (vector, now) = (rng.below(4) as u16, SimTime::from_nanos(i));
                match rng.below(4) {
                    0 => {
                        q.post(vector, now);
                        posts += 1;
                    }
                    1 => q.mask(vector),
                    2 => q.unmask(vector, now),
                    _ => drained += q.drain().count() as u64,
                }
            }
            drained += q.drain().count() as u64;
            assert_eq!(drained, q.delivered_count(), "seed {seed}");
            assert!(drained <= posts, "seed {seed}");
        }
    }

    #[test]
    fn unmask_without_latch_is_quiet() {
        let mut q = MsiQueue::new(1);
        q.mask(0);
        q.unmask(0, SimTime::ZERO);
        assert!(!q.has_pending());
    }

    #[test]
    fn vectors_accessor() {
        assert_eq!(MsiQueue::new(8).vectors(), 8);
    }

    #[test]
    #[should_panic(expected = "vector out of range")]
    fn out_of_range_vector_panics() {
        MsiQueue::new(1).post(1, SimTime::ZERO);
    }
}
