//! The Fig. 6 Tx/Rx protocol, step by step.
//!
//! "The example shows 14 steps to complete a Tx send and a Rx read from
//! bm-guest" (§3.4.3). Each step is either a PCI register access on one
//! of IO-Bond's two links, a descriptor fetch, or a DMA movement; this
//! module prices the whole exchange under a given [`IoBondProfile`] so
//! the `iobond` bench can print the per-step budget and the latency
//! model can reuse the totals.

use crate::profile::IoBondProfile;
use bmhive_sim::{SimDuration, SimTime};
use bmhive_telemetry as telemetry;

/// Which actor performs a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Actor {
    /// The bm-guest's virtio driver on the compute board.
    Guest,
    /// IO-Bond's FPGA/ASIC logic.
    IoBond,
    /// The bm-hypervisor's poll-mode backend on the base.
    Backend,
}

/// One step of the Tx/Rx exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Step number (1-based, as in Fig. 6).
    pub number: u8,
    /// Who acts.
    pub actor: Actor,
    /// What happens.
    pub description: &'static str,
    /// Modelled cost of the step.
    pub cost: SimDuration,
}

/// The 14-step Tx-send + Rx-read exchange of Fig. 6, priced under
/// `profile` for a Tx payload of `tx_bytes` and an Rx payload of
/// `rx_bytes`.
///
/// Steps 1–6 are "those standard virtio device operations including how
/// IO-Bond update vring used-flag, get desc and indirect desc tables";
/// the remainder forward data to the backend and return the Rx.
pub fn tx_rx_steps(profile: &IoBondProfile, tx_bytes: u64, rx_bytes: u64) -> [Step; 14] {
    let reg_g = profile.guest_register_access();
    let reg_b = profile.base_register_access();
    let desc_fetch = profile.dma().transfer_time(16);
    let indirect_fetch = profile.dma().transfer_time(64);
    [
        Step {
            number: 1,
            actor: Actor::Guest,
            description: "driver publishes Tx chain and writes the notify register",
            cost: reg_g,
        },
        Step {
            number: 2,
            actor: Actor::IoBond,
            description: "IO-Bond reads the avail index and ring entry",
            cost: desc_fetch,
        },
        Step {
            number: 3,
            actor: Actor::IoBond,
            description: "IO-Bond fetches the descriptor table entries",
            cost: desc_fetch,
        },
        Step {
            number: 4,
            actor: Actor::IoBond,
            description: "IO-Bond fetches the indirect descriptor table",
            cost: indirect_fetch,
        },
        Step {
            number: 5,
            actor: Actor::IoBond,
            description: "DMA engine copies the Tx payload board -> base staging",
            cost: profile.dma().transfer_time(tx_bytes),
        },
        Step {
            number: 6,
            actor: Actor::IoBond,
            description: "IO-Bond updates the guest used-flag state",
            cost: desc_fetch,
        },
        Step {
            number: 7,
            actor: Actor::IoBond,
            description: "IO-Bond posts the shadow chain and bumps the head register",
            cost: desc_fetch,
        },
        Step {
            number: 8,
            actor: Actor::Backend,
            description: "PMD thread polls the head register and sees the new chain",
            cost: reg_b,
        },
        Step {
            number: 9,
            actor: Actor::Backend,
            description: "backend consumes the Tx payload from the shadow ring",
            cost: SimDuration::ZERO,
        },
        Step {
            number: 10,
            actor: Actor::Backend,
            description: "backend produces the Rx payload into shadow staging",
            cost: SimDuration::ZERO,
        },
        Step {
            number: 11,
            actor: Actor::Backend,
            description: "backend completes the shadow chain (used ring write)",
            cost: reg_b,
        },
        Step {
            number: 12,
            actor: Actor::IoBond,
            description: "DMA engine copies the Rx payload base -> board buffers",
            cost: profile.dma().transfer_time(rx_bytes),
        },
        Step {
            number: 13,
            actor: Actor::IoBond,
            description: "IO-Bond completes the guest used ring and bumps tail",
            cost: desc_fetch,
        },
        Step {
            number: 14,
            actor: Actor::IoBond,
            description: "MSI interrupt delivered to the bm-guest",
            cost: reg_g,
        },
    ]
}

/// Total latency of the exchange (sum of all step costs).
pub fn total_latency(steps: &[Step]) -> SimDuration {
    steps.iter().map(|s| s.cost).sum()
}

fn actor_name(actor: Actor) -> &'static str {
    match actor {
        Actor::Guest => "guest",
        Actor::IoBond => "iobond",
        Actor::Backend => "backend",
    }
}

/// Replays one exchange through the global telemetry collector: an
/// enclosing `tx_rx_exchange` span opening at `start` with the 14
/// steps as children laid end-to-end. Returns the exchange total
/// whether or not telemetry is enabled, so callers can use it as the
/// priced latency directly.
pub fn trace_exchange(
    profile: &IoBondProfile,
    tx_bytes: u64,
    rx_bytes: u64,
    start: SimTime,
) -> SimDuration {
    let steps = tx_rx_steps(profile, tx_bytes, rx_bytes);
    let total = total_latency(&steps);
    if telemetry::is_enabled() {
        let exchange = telemetry::begin("iobond", "tx_rx_exchange", start);
        let mut t = start;
        for s in &steps {
            telemetry::span_with(
                "iobond",
                format!("step{:02}", s.number),
                t,
                s.cost,
                vec![
                    ("actor", actor_name(s.actor).into()),
                    ("desc", s.description.into()),
                ],
            );
            t += s.cost;
        }
        telemetry::end(exchange, t);
        telemetry::counter("iobond.tx_rx_exchanges", 1);
        telemetry::timer("iobond.tx_rx_exchange", total);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_exactly_fourteen_steps() {
        let steps = tx_rx_steps(&IoBondProfile::fpga(), 64, 64);
        assert_eq!(steps.len(), 14);
        for (i, s) in steps.iter().enumerate() {
            assert_eq!(usize::from(s.number), i + 1);
        }
    }

    #[test]
    fn guest_acts_first_and_receives_last() {
        let steps = tx_rx_steps(&IoBondProfile::fpga(), 64, 64);
        assert_eq!(steps.first().unwrap().actor, Actor::Guest);
        assert_eq!(
            steps.last().unwrap().description,
            "MSI interrupt delivered to the bm-guest"
        );
    }

    #[test]
    fn asic_exchange_is_cheaper_than_fpga() {
        let fpga = total_latency(&tx_rx_steps(&IoBondProfile::fpga(), 64, 64));
        let asic = total_latency(&tx_rx_steps(&IoBondProfile::asic(), 64, 64));
        assert!(asic < fpga);
    }

    #[test]
    fn bigger_payloads_cost_more() {
        let small = total_latency(&tx_rx_steps(&IoBondProfile::fpga(), 64, 64));
        let large = total_latency(&tx_rx_steps(&IoBondProfile::fpga(), 64 * 1024, 64 * 1024));
        assert!(large > small);
    }

    #[test]
    fn traced_exchange_steps_sum_to_the_total() {
        // trace_exchange returns the priced total even with telemetry
        // off (the default), and its per-step spans must tile the
        // enclosing exchange span exactly when it is on — asserted via
        // an instance collector in the integration suite; here we pin
        // the returned total.
        let profile = IoBondProfile::fpga();
        assert_eq!(
            trace_exchange(&profile, 64, 64, SimTime::ZERO),
            total_latency(&tx_rx_steps(&profile, 64, 64))
        );
    }

    #[test]
    fn small_packet_exchange_is_microseconds_scale() {
        // A 64-byte Tx/Rx exchange should land in the handful-of-µs
        // range that makes the paper's kernel-stack latencies (Fig. 10)
        // indistinguishable between bm and vm guests.
        let t = total_latency(&tx_rx_steps(&IoBondProfile::fpga(), 64, 64));
        assert!(
            t > SimDuration::from_micros(3) && t < SimDuration::from_micros(12),
            "{t}"
        );
    }
}
