//! Bounded exponential backoff with deterministic jitter.
//!
//! Every recovery path in the workspace paces its retries with one
//! schedule: delays double from [`BASE`] up to [`CAP`] and carry
//! *equal jitter* — the delay for attempt *n* is drawn uniformly from
//! `[envelope(n)/2, envelope(n)]` using the simulation RNG, so retry
//! schedules are reproducible from the fault seed, never synchronised
//! across retriers, and (until the cap is reached) monotone
//! non-decreasing: the minimum of attempt *n+1* equals the maximum of
//! attempt *n*. After [`MAX_ATTEMPTS`] the retrier escalates.

use bmhive_sim::{SimDuration, SimRng};

/// First-attempt delay (the envelope of attempt 1): cheaper than one
/// Fig. 6 exchange.
pub const BASE: SimDuration = SimDuration::from_micros(5);

/// Ceiling on any single delay.
pub const CAP: SimDuration = SimDuration::from_micros(80);

/// Attempts before the retrier escalates (device path: declare the
/// device needs-reset). Sixteen capped attempts ride out any canned
/// fault window.
pub const MAX_ATTEMPTS: u32 = 16;

const _: () = assert!(
    CAP.as_nanos() >= BASE.as_nanos(),
    "CAP must be at least BASE"
);

/// The deterministic backoff envelope for 1-based `attempt`:
/// `BASE × 2^(attempt-1)`, capped. Monotone non-decreasing in `attempt`
/// and bounded by [`CAP`].
pub fn envelope(attempt: u32) -> SimDuration {
    let attempt = attempt.max(1);
    let doublings = (attempt - 1).min(32);
    let nanos = BASE
        .as_nanos()
        .saturating_mul(1u64 << doublings)
        .min(CAP.as_nanos());
    SimDuration::from_nanos(nanos)
}

/// The jittered delay for 1-based `attempt`: uniform in
/// `[envelope/2, envelope]`, drawn from `rng`.
pub fn jittered(attempt: u32, rng: &mut SimRng) -> SimDuration {
    let env = envelope(attempt).as_nanos();
    let half = env / 2;
    SimDuration::from_nanos(half + rng.below(env - half + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worst-case total delay over all attempts (sum of envelopes) — the
    /// longest a retrier can wait before escalating.
    fn worst_case_total() -> SimDuration {
        (1..=MAX_ATTEMPTS).map(envelope).sum()
    }

    #[test]
    fn envelope_is_monotone_and_bounded() {
        assert_eq!(envelope(1), BASE);
        assert_eq!(envelope(0), BASE);
        assert_eq!(envelope(64), CAP);
        let mut last = SimDuration::ZERO;
        for attempt in 1..=64 {
            let e = envelope(attempt);
            assert!(e >= last, "attempt {attempt}: {e} < {last}");
            assert!(e >= BASE && e <= CAP, "attempt {attempt}");
            last = e;
        }
    }

    #[test]
    fn jitter_stays_in_the_equal_jitter_band() {
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x717e);
            for attempt in 1..=MAX_ATTEMPTS + 4 {
                let env = envelope(attempt);
                for _ in 0..50 {
                    let d = jittered(attempt, &mut rng);
                    assert!(d >= env / 2, "seed {seed} attempt {attempt}: {d} < {env}/2");
                    assert!(d <= env, "seed {seed} attempt {attempt}: {d} > {env}");
                }
            }
        }
    }

    #[test]
    fn jittered_delays_are_deterministic_per_seed() {
        let draw = |seed| {
            let mut rng = SimRng::new(seed);
            (1..=MAX_ATTEMPTS)
                .map(|a| jittered(a, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_ne!(draw(3), draw(4));
        // The schedule is a pure function of the seed.
        for seed in 0..256 {
            let seed = SimRng::with_stream(seed, 0xde7e).next_u64();
            assert_eq!(draw(seed), draw(seed), "seed {seed}");
        }
    }

    #[test]
    fn jittered_is_monotone_below_the_cap() {
        // Equal jitter on a doubling envelope: min(attempt n+1) ==
        // max(attempt n), so consecutive delays never decrease until
        // the cap truncates the envelope.
        let below_cap = (1..).take_while(|&a| envelope(a) < CAP).count() as u32 + 1;
        assert_eq!(below_cap, 5, "5, 10, 20, 40, 80 µs");
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x3a0e);
            let mut last = SimDuration::ZERO;
            for attempt in 1..=below_cap {
                let d = jittered(attempt, &mut rng);
                assert!(d >= last, "seed {seed} attempt {attempt}: {d} < {last}");
                last = d;
            }
        }
    }

    #[test]
    fn worst_case_total_covers_canned_windows() {
        // The canned fault windows peak at 150 µs (board loss); the
        // backoff must be able to out-wait them.
        assert!(worst_case_total() > SimDuration::from_micros(300));
        // And the worst case bounds every real schedule.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x70a1);
            let total: SimDuration = (1..=MAX_ATTEMPTS).map(|a| jittered(a, &mut rng)).sum();
            assert!(total <= worst_case_total(), "seed {seed}: {total}");
        }
    }
}
