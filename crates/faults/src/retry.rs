//! Bounded exponential backoff with deterministic jitter.
//!
//! Every recovery path in the workspace paces its retries with a
//! [`RetryPolicy`]: delays double from `base` up to `cap` and carry
//! *equal jitter* — the delay for attempt *n* is drawn uniformly from
//! `[envelope(n)/2, envelope(n)]` using the simulation RNG, so retry
//! schedules are reproducible from the fault seed, never synchronised
//! across retriers, and (until the cap is reached) monotone
//! non-decreasing: the minimum of attempt *n+1* equals the maximum of
//! attempt *n*.

use bmhive_sim::{SimDuration, SimRng};

/// An exponential-backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First-attempt delay (the envelope of attempt 1).
    pub base: SimDuration,
    /// Ceiling on any single delay.
    pub cap: SimDuration,
    /// Attempts before the retrier escalates (device path: declare the
    /// device needs-reset).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero, `cap < base`, or `max_attempts` is 0.
    pub fn new(base: SimDuration, cap: SimDuration, max_attempts: u32) -> Self {
        assert!(!base.is_zero(), "RetryPolicy: base delay must be positive");
        assert!(cap >= base, "RetryPolicy: cap must be at least base");
        assert!(max_attempts > 0, "RetryPolicy: need at least one attempt");
        RetryPolicy {
            base,
            cap,
            max_attempts,
        }
    }

    /// The device-path default: 5 µs base, 80 µs cap, 16 attempts.
    /// Sixteen capped attempts ride out any canned fault window while
    /// keeping the first retry cheaper than one Fig. 6 exchange.
    pub fn device_path() -> Self {
        RetryPolicy::new(
            SimDuration::from_micros(5),
            SimDuration::from_micros(80),
            16,
        )
    }

    /// The deterministic backoff envelope for 1-based `attempt`:
    /// `base × 2^(attempt-1)`, capped. Monotone non-decreasing in
    /// `attempt` and bounded by `cap`.
    pub fn envelope(&self, attempt: u32) -> SimDuration {
        let attempt = attempt.max(1);
        let doublings = (attempt - 1).min(32);
        let nanos = self
            .base
            .as_nanos()
            .saturating_mul(1u64 << doublings)
            .min(self.cap.as_nanos());
        SimDuration::from_nanos(nanos)
    }

    /// The jittered delay for 1-based `attempt`: uniform in
    /// `[envelope/2, envelope]`, drawn from `rng`.
    pub fn jittered(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let env = self.envelope(attempt).as_nanos();
        let half = env / 2;
        SimDuration::from_nanos(half + rng.below(env - half + 1))
    }

    /// Worst-case total delay over all attempts (sum of envelopes) —
    /// the longest a retrier can wait before escalating.
    pub fn worst_case_total(&self) -> SimDuration {
        (1..=self.max_attempts).map(|a| self.envelope(a)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The policy for case `seed`: the device-path default for seed 0,
    /// else a random valid one (base 1 ns – 1 ms, cap ≥ base, 1–31
    /// attempts).
    fn policy(seed: u64, rng: &mut SimRng) -> RetryPolicy {
        if seed == 0 {
            return RetryPolicy::device_path();
        }
        let base = rng.range(1, 1_000_000);
        let cap = base + rng.below(4_000_000);
        RetryPolicy::new(
            SimDuration::from_nanos(base),
            SimDuration::from_nanos(cap),
            rng.range(1, 32) as u32,
        )
    }

    #[test]
    fn envelope_is_monotone_and_bounded() {
        let p = RetryPolicy::device_path();
        assert_eq!(p.envelope(1), p.base);
        assert_eq!(p.envelope(64), p.cap);
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0xe4e1);
            let p = policy(seed, &mut rng);
            let mut last = SimDuration::ZERO;
            for attempt in 1..=64 {
                let e = p.envelope(attempt);
                assert!(e >= last, "seed {seed} attempt {attempt}: {e} < {last}");
                assert!(e >= p.base && e <= p.cap, "seed {seed} attempt {attempt}");
                last = e;
            }
        }
    }

    #[test]
    fn jitter_stays_in_the_equal_jitter_band() {
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x717e);
            let p = policy(seed, &mut rng);
            for attempt in 1..=p.max_attempts.max(20) {
                let env = p.envelope(attempt);
                for _ in 0..50 {
                    let d = p.jittered(attempt, &mut rng);
                    assert!(d >= env / 2, "seed {seed} attempt {attempt}: {d} < {env}/2");
                    assert!(d <= env, "seed {seed} attempt {attempt}: {d} > {env}");
                }
            }
        }
    }

    #[test]
    fn jittered_delays_are_deterministic_per_seed() {
        let draw = |p: RetryPolicy, seed| {
            let mut rng = SimRng::new(seed);
            (1..=p.max_attempts.max(10))
                .map(|a| p.jittered(a, &mut rng))
                .collect::<Vec<_>>()
        };
        let p = RetryPolicy::device_path();
        assert_ne!(draw(p, 3), draw(p, 4));
        // The schedule is a pure function of (policy, seed).
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0xde7e);
            let p = policy(seed, &mut rng);
            let seed = rng.next_u64();
            assert_eq!(draw(p, seed), draw(p, seed), "seed {seed}");
        }
    }

    #[test]
    fn jittered_is_monotone_below_the_cap() {
        // Equal jitter on a doubling envelope: min(attempt n+1) ==
        // max(attempt n), so consecutive delays never decrease until
        // the cap truncates the envelope.
        let p = RetryPolicy::new(SimDuration::from_micros(4), SimDuration::from_secs(1), 10);
        let mut rng = SimRng::new(11);
        let mut last = SimDuration::ZERO;
        for attempt in 1..=9 {
            let d = p.jittered(attempt, &mut rng);
            assert!(d >= last, "attempt {attempt}: {d} < {last}");
            last = d;
        }
    }

    #[test]
    fn worst_case_total_covers_canned_windows() {
        // The canned fault windows peak at 150 µs (board loss); the
        // device-path policy must be able to out-wait them.
        assert!(RetryPolicy::device_path().worst_case_total() > SimDuration::from_micros(300));
        // And the worst case bounds every real schedule.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x70a1);
            let p = policy(seed, &mut rng);
            let total: SimDuration = (1..=p.max_attempts).map(|a| p.jittered(a, &mut rng)).sum();
            assert!(total <= p.worst_case_total(), "seed {seed}: {total}");
        }
    }

    #[test]
    #[should_panic(expected = "cap must be at least base")]
    fn inverted_cap_panics() {
        RetryPolicy::new(SimDuration::from_micros(10), SimDuration::from_micros(5), 3);
    }
}
