//! Open-loop traffic front-end for the bm-guest pool.
//!
//! The §4 workload models are *closed loop*: a fixed client population
//! issues the next request only after the previous one returns, so
//! offered load self-throttles exactly when the system slows down —
//! which is precisely when multi-tenant tails matter. This crate adds
//! the open-loop regime: arrivals are offered at a configured rate
//! regardless of completions ([`arrivals`]), fan out across the guest
//! pool through the vSwitch under a pluggable dispatch policy
//! ([`dispatch`]), and are measured end to end by a deterministic
//! processor-sharing engine ([`engine`]).
//!
//! Three tail-control strategies from the datacenter literature are
//! modelled on top of plain round-robin:
//!
//! * **least-loaded** / **power-of-two-choices** placement over the
//!   vSwitch's per-port queue depths,
//! * **synchronized request cloning** to fixed guest pairs with
//!   first-response-wins cancellation (validated against the PS-cloning
//!   closed form in `bmhive_workloads::openloop`),
//! * **hedging** — lazy cloning after a p95-derived delay, the variant
//!   that cuts fault-window tails in the `traffic_isolation`
//!   experiment.
//!
//! Everything is deterministic per seed: the four RNG streams (arrival,
//! service, dispatch, hedge) are forked independently so policy
//! comparisons are controlled experiments, and runs are byte-identical
//! under the parallel sweep engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod dispatch;
pub mod engine;

pub use arrivals::{ArrivalModel, ArrivalProcess, STREAM_ARRIVALS};
pub use dispatch::{Dispatch, LeastLoaded, PowerOfTwo, RoundRobin, STREAM_DISPATCH};
pub use engine::{
    run, DispatchMode, Outage, Policy, RunReport, TrafficConfig, STREAM_HEDGE, STREAM_SERVICE,
};
