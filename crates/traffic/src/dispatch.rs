//! Pluggable dispatch: which bm-guest serves the next request.
//!
//! Every policy is a [`Dispatch`] implementation choosing a guest index
//! from the per-port queue depths the vSwitch exposes
//! ([`bmhive_cloud::vswitch::VSwitch::queue_depth`]). Randomized
//! policies draw from a dedicated stream ([`STREAM_DISPATCH`]) so the
//! choice sequence never couples to arrivals or service demands.

use bmhive_sim::SimRng;

/// The RNG stream selector for dispatch choices.
pub const STREAM_DISPATCH: u64 = 0xD15A;

/// A load-dispatch policy over a fixed pool of guests.
pub trait Dispatch {
    /// Picks the guest index (into `depths`) for the next request.
    fn pick(&mut self, depths: &[u64], rng: &mut SimRng) -> usize;

    /// Picks a *distinct* guest for a hedged clone of a request already
    /// running on `primary`. The default sends the clone to the
    /// least-loaded other guest — hedging exists to dodge a slow
    /// server, so the clone should aim at the emptiest queue.
    fn pick_clone(&mut self, primary: usize, depths: &[u64], _rng: &mut SimRng) -> usize {
        debug_assert!(depths.len() > 1, "cloning needs at least two guests");
        let mut best = usize::MAX;
        let mut best_depth = u64::MAX;
        for (i, &d) in depths.iter().enumerate() {
            if i != primary && d < best_depth {
                best = i;
                best_depth = d;
            }
        }
        best
    }
}

/// Cycle through the pool in order — the classic oblivious baseline.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl Dispatch for RoundRobin {
    fn pick(&mut self, depths: &[u64], _rng: &mut SimRng) -> usize {
        let i = self.next % depths.len();
        self.next = (self.next + 1) % depths.len();
        i
    }
}

/// Always pick the guest with the shortest queue (join-shortest-queue).
/// Ties break toward the lowest index so the choice is deterministic.
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl Dispatch for LeastLoaded {
    fn pick(&mut self, depths: &[u64], _rng: &mut SimRng) -> usize {
        let mut best = 0;
        for (i, &d) in depths.iter().enumerate() {
            if d < depths[best] {
                best = i;
            }
        }
        best
    }
}

/// Power-of-two-choices: sample two distinct guests uniformly, send the
/// request to the less loaded one. Gets most of join-shortest-queue's
/// tail improvement while probing only two queues per arrival.
#[derive(Debug, Default)]
pub struct PowerOfTwo;

impl Dispatch for PowerOfTwo {
    fn pick(&mut self, depths: &[u64], rng: &mut SimRng) -> usize {
        let n = depths.len() as u64;
        if n == 1 {
            return 0;
        }
        let a = rng.below(n) as usize;
        // Second draw over the remaining n-1 guests, shifted past `a`
        // so the pair is distinct without rejection sampling.
        let mut b = rng.below(n - 1) as usize;
        if b >= a {
            b += 1;
        }
        match depths[a].cmp(&depths[b]) {
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Greater => b,
            std::cmp::Ordering::Equal => a.min(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::default();
        let mut rng = SimRng::new(1);
        let depths = [5, 0, 9, 2];
        let picks: Vec<usize> = (0..6).map(|_| rr.pick(&depths, &mut rng)).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn least_loaded_takes_the_min_with_low_index_ties() {
        let mut ll = LeastLoaded;
        let mut rng = SimRng::new(1);
        assert_eq!(ll.pick(&[5, 0, 9, 2], &mut rng), 1);
        assert_eq!(ll.pick(&[3, 1, 1, 4], &mut rng), 1);
        assert_eq!(ll.pick(&[7], &mut rng), 0);
    }

    #[test]
    fn power_of_two_prefers_the_shorter_of_its_pair() {
        let mut po2 = PowerOfTwo;
        let mut rng = SimRng::with_stream(42, STREAM_DISPATCH);
        // One empty queue among loaded ones: po2 must pick a queue that
        // is no deeper than the deeper of any two, i.e. never the
        // unique max when the pair includes anything else.
        let depths = [4, 4, 0, 4, 4, 4, 4, 9];
        let mut picked_max = 0;
        for _ in 0..200 {
            if po2.pick(&depths, &mut rng) == 7 {
                picked_max += 1;
            }
        }
        assert_eq!(
            picked_max, 0,
            "the unique deepest queue always loses its pair"
        );
    }

    #[test]
    fn power_of_two_is_uniform_over_equal_depths() {
        let mut po2 = PowerOfTwo;
        let mut rng = SimRng::with_stream(7, STREAM_DISPATCH);
        let depths = [3u64; 4];
        let mut hist = [0u32; 4];
        for _ in 0..4000 {
            hist[po2.pick(&depths, &mut rng)] += 1;
        }
        // Equal depths tie-break to the lower index of the pair, so the
        // distribution skews monotonically low and the top index can
        // never win a tie at all.
        assert!(hist[0] > hist[1] && hist[1] > hist[2], "hist {hist:?}");
        assert_eq!(hist[3], 0, "hist {hist:?}");
    }

    #[test]
    fn default_clone_pick_avoids_the_primary() {
        struct Probe;
        impl Dispatch for Probe {
            fn pick(&mut self, _d: &[u64], _r: &mut SimRng) -> usize {
                0
            }
        }
        let mut p = Probe;
        let mut rng = SimRng::new(1);
        // Guest 0 is emptiest but is the primary: the clone goes to the
        // emptiest *other* guest.
        assert_eq!(p.pick_clone(0, &[0, 3, 1, 2], &mut rng), 2);
        assert_eq!(p.pick_clone(2, &[5, 3, 1, 2], &mut rng), 3);
    }
}
