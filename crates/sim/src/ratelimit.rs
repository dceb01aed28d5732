//! Token-bucket rate limiting.
//!
//! The paper's cloud caps every instance at 4 M packets/s and 10 Gbit/s
//! on the network, and 25 K IOPS and 300 MB/s on storage (§4.1). Both the
//! vm and bm data paths pass through identical [`TokenBucket`]s, which is
//! why both platforms "saturate the cap" in Figs. 9 and 11 while their
//! latencies differ.

use crate::time::{SimDuration, SimTime};

/// A token bucket with a steady refill rate and a burst capacity.
///
/// Tokens are whatever unit the caller chooses: packets, bytes, or I/O
/// operations.
///
/// # Example
///
/// ```
/// use bmhive_sim::{SimTime, TokenBucket};
///
/// // 25 000 IOPS with a 100-operation burst allowance.
/// let mut bucket = TokenBucket::new(25_000.0, 100.0);
/// let admit_at = bucket.acquire(SimTime::ZERO, 1.0);
/// assert_eq!(admit_at, SimTime::ZERO); // burst capacity admits instantly
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    /// Tokens refilled per elapsed nanosecond (`rate_per_sec / 1e9`),
    /// precomputed so the per-acquire refill is a single multiply.
    tokens_per_ns: f64,
    /// Nanoseconds to repay one token of debt (`1e9 / rate_per_sec`),
    /// precomputed so the throttled path divides nowhere.
    ns_per_token: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// Creates a bucket that refills at `rate_per_sec` tokens per second
    /// and holds at most `burst` tokens. The bucket starts full.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` or `burst` is not positive and finite.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "TokenBucket: rate must be positive"
        );
        assert!(
            burst > 0.0 && burst.is_finite(),
            "TokenBucket: burst must be positive"
        );
        TokenBucket {
            rate_per_sec,
            burst,
            tokens: burst,
            tokens_per_ns: rate_per_sec / 1e9,
            ns_per_token: 1e9 / rate_per_sec,
            last_refill: SimTime::ZERO,
        }
    }

    /// The sustained rate in tokens per second.
    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// The burst capacity in tokens.
    pub fn burst(&self) -> f64 {
        self.burst
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last_refill {
            let elapsed_ns = now.duration_since(self.last_refill).as_nanos() as f64;
            self.tokens = (self.tokens + elapsed_ns * self.tokens_per_ns).min(self.burst);
            self.last_refill = now;
        }
    }

    /// Acquires `amount` tokens at time `now`, returning the instant the
    /// request is admitted. If enough tokens are available the request is
    /// admitted immediately (`now`); otherwise the returned time is when
    /// the refill will have produced the deficit. The tokens are consumed
    /// either way (callers are expected to delay the work until the
    /// returned instant — i.e. this models a shaping queue, not a
    /// dropping policer).
    ///
    /// # Panics
    ///
    /// Panics if `amount` is not positive and finite, or `now` is earlier
    /// than a previously seen instant.
    pub fn acquire(&mut self, now: SimTime, amount: f64) -> SimTime {
        assert!(
            amount > 0.0 && amount.is_finite(),
            "acquire: invalid amount"
        );
        assert!(
            now >= self.last_refill,
            "acquire: time moved backwards ({now} < {})",
            self.last_refill
        );
        self.refill(now);
        // Debt accounting: tokens may go negative; the admit time is
        // when the refill will have repaid the debt. Keeping
        // `last_refill == now` preserves monotonicity for later callers.
        self.tokens -= amount;
        if self.tokens >= 0.0 {
            return now;
        }
        let wait = SimDuration::from_nanos((-self.tokens * self.ns_per_token).round() as u64);
        now + wait
    }

    /// Like [`acquire`](Self::acquire), but refuses instead of queueing:
    /// returns `true` and consumes the tokens if `amount` is available at
    /// `now`, otherwise leaves the bucket unchanged. This models a
    /// dropping policer (e.g. PPS policing of UDP floods).
    pub fn try_acquire(&mut self, now: SimTime, amount: f64) -> bool {
        assert!(
            amount > 0.0 && amount.is_finite(),
            "try_acquire: invalid amount"
        );
        self.refill(now);
        if self.tokens >= amount {
            self.tokens -= amount;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn burst_admits_instantly() {
        let mut b = TokenBucket::new(1_000.0, 10.0);
        for _ in 0..10 {
            assert_eq!(b.acquire(SimTime::ZERO, 1.0), SimTime::ZERO);
        }
    }

    #[test]
    fn sustained_rate_is_enforced() {
        // 1000 tokens/s, burst 1: acquiring 1001 tokens one at a time
        // starting from t=0 must take ~1 s.
        let mut b = TokenBucket::new(1_000.0, 1.0);
        let mut t = SimTime::ZERO;
        for _ in 0..1_001 {
            t = b.acquire(t, 1.0);
        }
        let elapsed = t.as_secs_f64();
        assert!((0.99..=1.01).contains(&elapsed), "elapsed {elapsed}");
        // For any rate and burst, n one-token acquires never finish
        // before (n - burst) / rate.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x7b0c);
            let (rate, burst) = (rng.range_f64(1.0, 1e6), rng.range_f64(1.0, 1e3));
            let n = rng.range(1, 500);
            let mut b = TokenBucket::new(rate, burst);
            let mut t = SimTime::ZERO;
            for _ in 0..n {
                t = b.acquire(t, 1.0);
            }
            let floor = ((n as f64 - burst) / rate).max(0.0);
            let done = t.as_secs_f64();
            assert!(
                done >= floor - 1e-6,
                "seed {seed}: done at {done} < {floor}"
            );
        }
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(1_000.0, 5.0);
        // Drain, then wait a long time: tokens must cap at burst, so
        // exactly the burst is there to take, and nothing more.
        for _ in 0..5 {
            b.acquire(SimTime::ZERO, 1.0);
        }
        let later = SimTime::from_secs(100);
        assert!(b.try_acquire(later, 5.0));
        assert!(!b.try_acquire(later, 1e-9));
    }

    #[test]
    fn acquire_returns_future_admit_time_when_empty() {
        let mut b = TokenBucket::new(100.0, 1.0);
        assert_eq!(b.acquire(SimTime::ZERO, 1.0), SimTime::ZERO);
        let admit = b.acquire(SimTime::ZERO, 1.0);
        // One token at 100/s = 10 ms away.
        assert_eq!(admit, SimTime::from_millis(10));
    }

    #[test]
    fn try_acquire_refuses_without_consuming() {
        let mut b = TokenBucket::new(100.0, 1.0);
        assert!(b.try_acquire(SimTime::ZERO, 1.0));
        assert!(!b.try_acquire(SimTime::ZERO, 1.0));
        // The refusal must not have pushed the refill clock forward.
        assert!(b.try_acquire(SimTime::from_millis(10), 1.0));
    }

    #[test]
    fn queued_acquires_space_out_at_rate() {
        let mut b = TokenBucket::new(10.0, 1.0);
        let t1 = b.acquire(SimTime::ZERO, 1.0);
        let t2 = b.acquire(t1, 1.0);
        let t3 = b.acquire(t2, 1.0);
        assert_eq!(t2.duration_since(t1), SimDuration::from_millis(100));
        assert_eq!(t3.duration_since(t2), SimDuration::from_millis(100));
        // Admit times never decrease, whatever the arrival pattern.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0xad31);
            let mut b = TokenBucket::new(rng.range_f64(1.0, 1e5), 4.0);
            let mut arrivals: Vec<u64> = (0..rng.range(1, 100))
                .map(|_| rng.below(1_000_000))
                .collect();
            arrivals.sort_unstable();
            let mut last = SimTime::ZERO;
            for a in arrivals {
                // Requests may not be submitted before the bucket's clock.
                let admit = b.acquire(SimTime::from_nanos(a).max(last), 1.0);
                assert!(admit >= last, "seed {seed}");
                last = admit;
            }
        }
    }

    #[test]
    fn accessors_report_configuration() {
        let b = TokenBucket::new(4_000_000.0, 65_536.0);
        assert_eq!(b.rate(), 4_000_000.0);
        assert_eq!(b.burst(), 65_536.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        TokenBucket::new(0.0, 1.0);
    }
}
