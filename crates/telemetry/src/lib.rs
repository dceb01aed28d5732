//! Deterministic observability for the BM-Hive reproduction: a
//! virtual-time span tracer, a metrics registry, latency attribution
//! reports, and trace exporters.
//!
//! The paper's results are latency *attributions* — which of the 14
//! IO-Bond steps (Fig. 6), which VM-exit class (Table 2), which
//! queueing stage costs what. This crate lets any experiment answer
//! those questions about the reproduction itself:
//!
//! * [`Collector`] — spans open/close against [`SimTime`] (never the
//!   wall clock), nest, carry key/value attributes, and land in a
//!   bounded ring buffer. Same seed ⇒ byte-identical trace.
//! * [`Registry`] — named counters, gauges, and histogram-backed
//!   timers, cheap enough to leave compiled in.
//! * [`Attribution`] — rolls a trace up per `(component, label)` with
//!   double-count-free self times.
//! * [`export`] — Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing`), JSONL, and plain-text reports.
//! * [`alloc`] — an opt-in counting global allocator with thread-local
//!   live/peak byte counters, the peak-RSS proxy behind the streaming
//!   fleet census's O(1)-memory gate.
//!
//! # The thread-local collector
//!
//! Instrumentation in the other crates records through the free
//! functions here ([`span()`], [`counter`], [`timer`], …), which funnel
//! into a collector scoped to the *current thread*. It is **off by
//! default**: every record function first checks one thread-local flag
//! and returns immediately, so benches and tests that never call
//! [`set_enabled`]`(true)` pay a load-and-branch per site and nothing
//! else — and the no-op mode has zero side effects.
//!
//! Because the collector is per-thread, recording is deterministic
//! without any locking: a thread's trace is a pure function of the
//! operations it performed, no matter how many sibling threads record
//! concurrently. The parallel sweep engine leans on this — each worker
//! enables telemetry, runs a cell, snapshots, and gets bytes identical
//! to a serial run of the same cell.
//!
//! # Example
//!
//! ```
//! use bmhive_sim::{SimDuration, SimTime};
//! use bmhive_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! telemetry::reset();
//! let op = telemetry::begin("server", "guest_send", SimTime::ZERO);
//! telemetry::span("vswitch", "forward", SimTime::ZERO, SimDuration::from_nanos(300));
//! telemetry::end(op, SimTime::from_nanos(300));
//! telemetry::counter("vswitch.forwarded", 1);
//!
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.events.len(), 2);
//! assert_eq!(snap.registry.counter("vswitch.forwarded"), 1);
//! println!("{}", telemetry::export::chrome_trace(&snap.events));
//! telemetry::set_enabled(false);
//! ```

pub mod alloc;
pub mod export;
pub mod json;
pub mod registry;
pub mod report;
pub mod span;

pub use registry::Registry;
pub use report::{Attribution, AttributionRow};
pub use span::{AttrValue, Collector, SpanEvent, SpanId, DEFAULT_CAPACITY};

use bmhive_sim::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};

/// The per-thread collector + registry pair.
struct Global {
    collector: Collector,
    registry: Registry,
}

thread_local! {
    /// Fast-path flag. Kept separate from `GLOBAL` so a disabled
    /// thread never materialises the collector's ring buffer.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Running count of simulated events (I/O ops, packets, samples)
    /// the current thread's experiment processed. Drivers report in
    /// bulk via [`add_events`]; the bench ledger records it from
    /// [`Snapshot::sim_events`] as `sim.events`.
    static EVENT_TALLY: Cell<u64> = const { Cell::new(0) };
    static GLOBAL: RefCell<Global> = RefCell::new(Global {
        collector: Collector::new(DEFAULT_CAPACITY),
        registry: Registry::new(),
    });
}

fn with_global<R>(f: impl FnOnce(&mut Global) -> R) -> R {
    GLOBAL.with(|g| f(&mut g.borrow_mut()))
}

/// Whether recording is on for this thread. One thread-local flag load
/// — the cost every instrumentation site pays when telemetry is off.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Turns recording on or off for this thread. Off is the default;
/// turning it off does not discard what was already recorded (call
/// [`reset`]).
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Clears this thread's trace, metrics, and event tally; sequence
/// numbering restarts so the next run reproduces a fresh-process trace
/// exactly.
pub fn reset() {
    EVENT_TALLY.with(|t| t.set(0));
    with_global(|g| {
        g.collector.clear();
        g.registry.clear();
    });
}

/// Adds `n` simulated events to this thread's tally. No-op while
/// disabled. Experiment drivers call this once per run with their
/// operation count (batched, so the per-event hot path pays nothing).
#[inline]
pub fn add_events(n: u64) {
    if is_enabled() {
        EVENT_TALLY.with(|t| t.set(t.get() + n));
    }
}

/// This thread's simulated-event tally since the last [`reset`].
pub fn event_tally() -> u64 {
    EVENT_TALLY.with(|t| t.get())
}

/// A point-in-time copy of everything recorded on this thread.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Closed spans in `seq` (open) order.
    pub events: Vec<SpanEvent>,
    /// The metrics registry.
    pub registry: Registry,
    /// Spans evicted by the ring-buffer bound.
    pub dropped: u64,
    /// Simulated events reported via [`add_events`].
    pub sim_events: u64,
}

/// Copies this thread's trace (in deterministic `seq` order) and
/// metrics.
pub fn snapshot() -> Snapshot {
    with_global(|g| Snapshot {
        events: g.collector.events_by_seq(),
        registry: g.registry.clone(),
        dropped: g.collector.dropped(),
        sim_events: event_tally(),
    })
}

/// Folds a worker thread's [`Snapshot`] into the *current* thread's
/// collector state: the registry merges via [`Registry::merge_from`]
/// and the worker's simulated-event tally is added to this thread's.
/// No-op while disabled.
///
/// This is the reduction side of host-sharded execution: each worker
/// records into its own thread-local registry (deterministic, lock
/// free), snapshots, and the orchestrating thread absorbs the
/// snapshots **in host-index order** so timer-histogram float sums are
/// byte-identical regardless of which worker finished first. Worker
/// span events are not replayed into the parent trace — per-host work
/// reports through metrics, and host-ordered report sections carry the
/// per-host story instead.
pub fn absorb(worker: &Snapshot) {
    if is_enabled() {
        EVENT_TALLY.with(|t| t.set(t.get() + worker.sim_events));
        with_global(|g| g.registry.merge_from(&worker.registry));
    }
}

/// Records a complete span. No-op while disabled.
#[inline]
pub fn span(component: &'static str, label: &'static str, start: SimTime, d: SimDuration) {
    if is_enabled() {
        with_global(|g| g.collector.span(component, label, start, d));
    }
}

/// Records a complete span with attributes. No-op while disabled (the
/// attribute vector is only built by callers after an [`is_enabled`]
/// check or inside [`span_with`]'s closure-free call, so disabled runs
/// never allocate).
#[inline]
pub fn span_with(
    component: &'static str,
    label: &'static str,
    start: SimTime,
    d: SimDuration,
    attrs: Vec<(&'static str, AttrValue)>,
) {
    if is_enabled() {
        with_global(|g| g.collector.span_with(component, label, start, d, attrs));
    }
}

/// A token from [`begin`]: either a live span or a no-op marker
/// recorded while telemetry was disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeToken(Option<SpanId>);

impl ScopeToken {
    /// A token that makes the matching [`end`] a no-op.
    pub const NOOP: ScopeToken = ScopeToken(None);
}

/// Opens a nesting span; spans recorded before the matching [`end`]
/// become its children. Returns a no-op token while disabled.
#[inline]
pub fn begin(component: &'static str, label: &'static str, start: SimTime) -> ScopeToken {
    if is_enabled() {
        ScopeToken(Some(with_global(|g| {
            g.collector.begin(component, label, start)
        })))
    } else {
        ScopeToken::NOOP
    }
}

/// Closes a span opened by [`begin`] at virtual time `at`. Tokens from
/// a disabled period no-op even if telemetry was enabled meanwhile, so
/// enable/disable transitions can never unbalance the span stack.
#[inline]
pub fn end(token: ScopeToken, at: SimTime) {
    if let ScopeToken(Some(id)) = token {
        with_global(|g| g.collector.end(id, at));
    }
}

/// Adds to a counter. No-op while disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if is_enabled() {
        with_global(|g| g.registry.counter_add(name, delta));
    }
}

/// Sets a gauge. No-op while disabled.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if is_enabled() {
        with_global(|g| g.registry.gauge_set(name, value));
    }
}

/// Raises a gauge to `value` if `value` exceeds its current reading
/// (or the gauge is unset). No-op while disabled. Used for
/// peak-tracking gauges such as queue depths.
#[inline]
pub fn gauge_max(name: &'static str, value: f64) {
    if is_enabled() {
        with_global(|g| g.registry.gauge_max(name, value));
    }
}

/// Records a duration sample into a timer. No-op while disabled.
#[inline]
pub fn timer(name: &'static str, d: SimDuration) {
    if is_enabled() {
        with_global(|g| g.registry.timer_record(name, d));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is thread-local and `cargo test` runs each test on
    // its own thread, so no serialization lock is needed.

    #[test]
    fn disabled_recording_has_zero_side_effects() {
        set_enabled(false);
        reset();
        let before = snapshot();
        span("a", "x", SimTime::ZERO, SimDuration::from_nanos(1));
        let t = begin("a", "y", SimTime::ZERO);
        end(t, SimTime::from_nanos(5));
        counter("c", 1);
        gauge("g", 1.0);
        gauge_max("gm", 2.0);
        timer("t", SimDuration::from_nanos(1));
        let after = snapshot();
        assert_eq!(before.events.len(), 0);
        assert_eq!(after.events.len(), 0);
        assert!(after.registry.is_empty());
        assert_eq!(after.dropped, 0);
    }

    #[test]
    fn enabled_recording_round_trips() {
        set_enabled(true);
        reset();
        let op = begin("server", "op", SimTime::ZERO);
        span("inner", "leaf", SimTime::ZERO, SimDuration::from_nanos(10));
        end(op, SimTime::from_nanos(10));
        counter("ops", 2);
        timer("lat", SimDuration::from_micros(3));
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].label, "op");
        assert_eq!(snap.events[1].parent, Some(snap.events[0].seq));
        assert_eq!(snap.registry.counter("ops"), 2);
        assert_eq!(snap.registry.timer("lat").unwrap().count(), 1);
    }

    #[test]
    fn same_input_same_trace_bytes() {
        let run = || {
            set_enabled(true);
            reset();
            const OPS: [&str; 5] = ["op0", "op1", "op2", "op3", "op4"];
            for i in 0..50u64 {
                let t = begin("comp", OPS[(i % 5) as usize], SimTime::from_nanos(i * 100));
                span(
                    "comp",
                    "step",
                    SimTime::from_nanos(i * 100),
                    SimDuration::from_nanos(40),
                );
                end(t, SimTime::from_nanos(i * 100 + 90));
            }
            let snap = snapshot();
            set_enabled(false);
            (
                export::chrome_trace(&snap.events),
                export::jsonl(&snap.events),
                export::registry_json(&snap.registry),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn disabled_begin_token_noops_after_reenable() {
        set_enabled(false);
        reset();
        let token = begin("a", "x", SimTime::ZERO);
        set_enabled(true);
        end(token, SimTime::from_nanos(1)); // must not panic or record
        assert_eq!(snapshot().events.len(), 0);
        set_enabled(false);
    }

    #[test]
    fn recording_is_isolated_per_thread() {
        set_enabled(true);
        reset();
        span("main", "here", SimTime::ZERO, SimDuration::from_nanos(1));
        let sibling = std::thread::spawn(|| {
            // Fresh thread: disabled, empty, independent.
            assert!(!is_enabled());
            set_enabled(true);
            reset();
            span("sib", "there", SimTime::ZERO, SimDuration::from_nanos(2));
            let snap = snapshot();
            set_enabled(false);
            snap
        })
        .join()
        .unwrap();
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].component, "main");
        assert_eq!(sibling.events.len(), 1);
        assert_eq!(sibling.events[0].component, "sib");
    }

    #[test]
    fn event_tally_counts_only_while_enabled() {
        set_enabled(false);
        reset();
        add_events(5);
        assert_eq!(snapshot().sim_events, 0);
        set_enabled(true);
        add_events(7);
        add_events(3);
        let snap = snapshot();
        reset();
        let cleared = snapshot().sim_events;
        set_enabled(false);
        assert_eq!(snap.sim_events, 10);
        assert_eq!(cleared, 0);
    }

    #[test]
    fn absorb_folds_worker_snapshots_into_this_thread() {
        set_enabled(true);
        reset();
        counter("ops", 1);
        add_events(10);
        let worker = std::thread::spawn(|| {
            set_enabled(true);
            reset();
            counter("ops", 4);
            gauge_max("depth", 9.0);
            timer("lat", SimDuration::from_micros(5));
            add_events(32);
            let snap = snapshot();
            set_enabled(false);
            snap
        })
        .join()
        .unwrap();
        absorb(&worker);
        let merged = snapshot();
        set_enabled(false);
        assert_eq!(merged.registry.counter("ops"), 5);
        assert_eq!(merged.registry.gauge("depth"), Some(9.0));
        assert_eq!(merged.registry.timer("lat").unwrap().count(), 1);
        assert_eq!(merged.sim_events, 42);
    }

    #[test]
    fn absorb_is_a_noop_while_disabled() {
        set_enabled(false);
        reset();
        let mut foreign = Registry::new();
        foreign.counter_add("c", 3);
        let snap = Snapshot {
            events: Vec::new(),
            registry: foreign,
            dropped: 0,
            sim_events: 11,
        };
        absorb(&snap);
        assert!(snapshot().registry.is_empty());
        assert_eq!(snapshot().sim_events, 0);
    }

    #[test]
    fn gauge_max_tracks_the_peak() {
        set_enabled(true);
        reset();
        gauge_max("depth", 3.0);
        gauge_max("depth", 7.0);
        gauge_max("depth", 5.0);
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.registry.gauge("depth"), Some(7.0));
    }
}
