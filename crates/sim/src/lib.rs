//! Deterministic discrete-event simulation kernel for the BM-Hive
//! reproduction.
//!
//! Every other crate in this workspace is built on the primitives defined
//! here:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with nanosecond
//!   resolution. Nothing in the workspace reads the wall clock; all
//!   latencies and bandwidth delays advance this clock instead.
//! * [`EventQueue`] — a monotonic, stable priority queue of timed events,
//!   drained a whole tick at a time by [`BatchRunner`] in hot loops.
//! * [`SimRng`] — a seedable PCG-family random number generator with the
//!   distribution helpers the workload generators need. The same seed
//!   always produces the same experiment output, on every platform.
//! * [`math`] — `exp` and `ln` from IEEE basic operations and checked-in
//!   tables, so the normal family's draws carry no libm bits.
//! * [`stats`] — histograms, summaries and percentile math used by the
//!   benchmark harness to report the paper's tables and figures.
//! * [`ratelimit`] — token buckets that model the cloud's per-instance
//!   PPS / bandwidth / IOPS caps.
//! * [`resource`] — busy-server primitives that convert service demands
//!   into queueing delay under contention.
//!
//! # Example
//!
//! ```
//! use bmhive_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(10), "late");
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(1), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "early");
//! assert_eq!(t, SimTime::from_nanos(1_000));
//! ```

pub mod events;
pub mod math;
pub mod ratelimit;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::{BatchRunner, EventQueue};
pub use ratelimit::TokenBucket;
pub use resource::{MultiResource, Resource};
pub use rng::SimRng;
pub use stats::{Histogram, Series, Summary};
pub use time::{SimDuration, SimTime};
