//! Open-loop arrival generators.
//!
//! An [`ArrivalProcess`] draws the next request arrival time from a
//! dedicated [`SimRng`] stream ([`STREAM_ARRIVALS`]) forked from the
//! run seed, so attaching the traffic front-end to an experiment never
//! perturbs the workload's own random streams — the same contract the
//! fault injector keeps with its backoff stream. Arrivals are *open
//! loop*: the next arrival time never depends on service completions,
//! which is what lets offered load exceed capacity and tails build.

use bmhive_sim::{SimDuration, SimRng, SimTime};

/// The RNG stream selector for arrival draws (one per run seed).
pub const STREAM_ARRIVALS: u64 = 0x0A21;

/// The shape of the arrival stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Poisson arrivals at `rate_rps` requests/second (exponential
    /// inter-arrival times) — the M/·/· baseline every closed form
    /// assumes.
    Poisson {
        /// Offered rate in requests per second.
        rate_rps: f64,
    },
    /// A perfectly paced stream: one request every `1/rate_rps`
    /// seconds. No burstiness at all, the D/·/· reference.
    Deterministic {
        /// Offered rate in requests per second.
        rate_rps: f64,
    },
    /// A two-state Markov-modulated Poisson process: the stream
    /// alternates between an ON burst rate and an OFF trickle rate,
    /// with exponentially distributed dwell times in each state. Same
    /// mean rate as a Poisson stream at `(on + off)/2` when the dwell
    /// means are equal, but with the squared burstiness real tenants
    /// exhibit.
    Mmpp {
        /// Arrival rate while bursting.
        on_rps: f64,
        /// Arrival rate between bursts.
        off_rps: f64,
        /// Mean dwell time in each state.
        mean_dwell: SimDuration,
    },
}

/// A stateful arrival-time generator over one run.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    model: ArrivalModel,
    rng: SimRng,
    /// MMPP state: currently in the ON (burst) phase, and when the
    /// phase flips next.
    bursting: bool,
    next_switch: SimTime,
}

impl ArrivalProcess {
    /// Builds a generator for `model` on the dedicated arrival stream
    /// of `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any configured rate or dwell is not positive.
    pub fn new(model: ArrivalModel, seed: u64) -> Self {
        match model {
            ArrivalModel::Poisson { rate_rps } | ArrivalModel::Deterministic { rate_rps } => {
                assert!(rate_rps > 0.0, "arrival rate must be positive");
            }
            ArrivalModel::Mmpp {
                on_rps,
                off_rps,
                mean_dwell,
            } => {
                assert!(
                    on_rps > 0.0 && off_rps > 0.0 && !mean_dwell.is_zero(),
                    "MMPP rates and dwell must be positive"
                );
            }
        }
        let mut rng = SimRng::with_stream(seed, STREAM_ARRIVALS);
        let (bursting, next_switch) = match model {
            ArrivalModel::Mmpp { mean_dwell, .. } => {
                // Start in the burst phase with a fresh dwell draw.
                let dwell = rng.exp(mean_dwell.as_nanos() as f64);
                (
                    true,
                    SimTime::ZERO + SimDuration::from_nanos(dwell.round() as u64),
                )
            }
            _ => (false, SimTime::ZERO),
        };
        ArrivalProcess {
            model,
            rng,
            bursting,
            next_switch,
        }
    }

    /// The model this process draws from.
    pub fn model(&self) -> ArrivalModel {
        self.model
    }

    /// The next arrival strictly after `now`.
    pub fn next_after(&mut self, now: SimTime) -> SimTime {
        match self.model {
            ArrivalModel::Poisson { rate_rps } => {
                let gap = self.rng.exp(1e9 / rate_rps);
                now + SimDuration::from_nanos(gap.round().max(1.0) as u64)
            }
            ArrivalModel::Deterministic { rate_rps } => {
                now + SimDuration::from_nanos((1e9 / rate_rps).round().max(1.0) as u64)
            }
            ArrivalModel::Mmpp {
                on_rps,
                off_rps,
                mean_dwell,
            } => {
                // Walk phase switches until an exponential draw at the
                // current phase's rate lands inside the phase.
                let mut t = now;
                loop {
                    let rate = if self.bursting { on_rps } else { off_rps };
                    let gap = self.rng.exp(1e9 / rate);
                    let candidate = t + SimDuration::from_nanos(gap.round().max(1.0) as u64);
                    if candidate < self.next_switch {
                        return candidate;
                    }
                    // Memorylessness: restart the draw from the phase
                    // boundary under the new rate.
                    t = self.next_switch;
                    self.bursting = !self.bursting;
                    let dwell = self.rng.exp(mean_dwell.as_nanos() as f64);
                    self.next_switch = t + SimDuration::from_nanos(dwell.round().max(1.0) as u64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_rate_of(model: ArrivalModel, n: u64) -> f64 {
        let mut p = ArrivalProcess::new(model, 11);
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            t = p.next_after(t);
        }
        n as f64 / (t.as_nanos() as f64 / 1e9)
    }

    #[test]
    fn poisson_hits_the_requested_rate() {
        let rate = mean_rate_of(ArrivalModel::Poisson { rate_rps: 50_000.0 }, 50_000);
        assert!((47_500.0..52_500.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn deterministic_is_exactly_paced() {
        let mut p = ArrivalProcess::new(ArrivalModel::Deterministic { rate_rps: 10_000.0 }, 3);
        let t1 = p.next_after(SimTime::ZERO);
        let t2 = p.next_after(t1);
        assert_eq!(t1, SimTime::from_micros(100));
        assert_eq!(t2, SimTime::from_micros(200));
    }

    #[test]
    fn mmpp_mean_rate_is_between_the_phase_rates() {
        let model = ArrivalModel::Mmpp {
            on_rps: 80_000.0,
            off_rps: 8_000.0,
            mean_dwell: SimDuration::from_millis(2),
        };
        let rate = mean_rate_of(model, 60_000);
        assert!(
            (20_000.0..70_000.0).contains(&rate),
            "modulated rate {rate}"
        );
    }

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let model = ArrivalModel::Mmpp {
            on_rps: 50_000.0,
            off_rps: 5_000.0,
            mean_dwell: SimDuration::from_millis(1),
        };
        let run = |seed| {
            let mut p = ArrivalProcess::new(model, seed);
            let mut t = SimTime::ZERO;
            (0..1000)
                .map(|_| {
                    t = p.next_after(t);
                    t
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn arrivals_strictly_advance() {
        for model in [
            ArrivalModel::Poisson { rate_rps: 1e6 },
            ArrivalModel::Mmpp {
                on_rps: 1e6,
                off_rps: 1e5,
                mean_dwell: SimDuration::from_micros(50),
            },
        ] {
            let mut p = ArrivalProcess::new(model, 1);
            let mut t = SimTime::ZERO;
            for _ in 0..10_000 {
                let next = p.next_after(t);
                assert!(next > t);
                t = next;
            }
        }
    }
}
