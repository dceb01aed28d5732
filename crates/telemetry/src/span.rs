//! Virtual-time spans and the bounded trace collector.
//!
//! A span is a named interval of *simulated* time — it opens and closes
//! against [`SimTime`], never the wall clock, so the same seed always
//! yields the same trace byte for byte. Spans carry a component (the
//! subsystem that emitted them: `"iobond"`, `"vswitch"`, …), a label
//! (the operation or step), and optional key/value attributes. They
//! nest: a span recorded while another is open becomes its child.
//!
//! Because the simulation computes most latencies analytically (a step
//! *costs* 800 ns; nothing actually elapses), the primary recording API
//! is the *complete span* — [`Collector::span`] takes a start instant
//! and a duration. The [`Collector::begin`] / [`Collector::end`] pair
//! exists for enclosing operations whose end time is only known after
//! their children have been priced.

use bmhive_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A typed attribute value on a span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer (counts, byte sizes, step numbers).
    U64(u64),
    /// A float (rates, fractions).
    F64(f64),
    /// A string (actor names, request kinds).
    Str(&'static str),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}

/// One closed span in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Monotonic sequence number, assigned when the span *opened*.
    /// Within one single-threaded run, sequence numbers totally order
    /// the trace, which is what makes exports byte-identical across
    /// same-seed runs.
    pub seq: u64,
    /// The subsystem that emitted the span.
    pub component: &'static str,
    /// The operation or step.
    pub label: &'static str,
    /// When the span opened, on the virtual clock.
    pub start: SimTime,
    /// How long it lasted, in virtual time.
    pub duration: SimDuration,
    /// Sequence number of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Key/value attributes, in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanEvent {
    /// When the span closed.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// A handle for an open span, returned by [`Collector::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) u64);

/// The trace collector: a bounded ring buffer of closed spans plus the
/// stack of currently-open ones.
///
/// The buffer is bounded so tracing can stay on during multi-million
/// operation experiments: once `capacity` closed spans are held, each
/// new span evicts the oldest and [`Collector::dropped`] counts the
/// loss. Eviction is deterministic (strict FIFO by close order).
///
/// # Example
///
/// ```
/// use bmhive_sim::{SimDuration, SimTime};
/// use bmhive_telemetry::Collector;
///
/// let mut c = Collector::new(1024);
/// let exchange = c.begin("iobond", "tx_rx_exchange", SimTime::ZERO);
/// c.span("iobond", "01 kick", SimTime::ZERO, SimDuration::from_nanos(800));
/// c.end(exchange, SimTime::from_nanos(800));
/// assert_eq!(c.len(), 2);
/// let events = c.events_by_seq();
/// assert_eq!(events[1].parent, Some(events[0].seq)); // the kick nests under the exchange
/// ```
#[derive(Default)]
pub struct Collector {
    events: VecDeque<SpanEvent>,
    /// Open spans; `end` fills in the duration and moves one to the ring.
    stack: Vec<SpanEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("events", &self.events.len())
            .field("open", &self.stack.len())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped)
            .finish()
    }
}

/// Default ring-buffer capacity: enough for every span of a single
/// experiment, small enough (~tens of MB worst case) to leave enabled
/// across a full `repro` run.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

impl Collector {
    /// Creates a collector holding at most `capacity` closed spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Collector: capacity must be positive");
        Collector {
            events: VecDeque::new(),
            stack: Vec::new(),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, event: SpanEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Records a complete span: it opened at `start` and lasted
    /// `duration`. If a span is currently open, the new span becomes its
    /// child.
    pub fn span(
        &mut self,
        component: &'static str,
        label: &'static str,
        start: SimTime,
        duration: SimDuration,
    ) -> SpanId {
        self.span_with(component, label, start, duration, Vec::new())
    }

    /// Like [`span`](Self::span), with attributes.
    pub fn span_with(
        &mut self,
        component: &'static str,
        label: &'static str,
        start: SimTime,
        duration: SimDuration,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanId {
        let event = self.open(component, label, start, duration, attrs);
        let id = SpanId(event.seq);
        self.push(event);
        id
    }

    /// Opens a span at `start`. Spans recorded before the matching
    /// [`end`](Self::end) become children. Returns the handle `end`
    /// expects, so mismatched pairs are caught instead of silently
    /// mis-nesting the trace.
    pub fn begin(
        &mut self,
        component: &'static str,
        label: &'static str,
        start: SimTime,
    ) -> SpanId {
        let event = self.open(component, label, start, SimDuration::ZERO, Vec::new());
        let id = SpanId(event.seq);
        self.stack.push(event);
        id
    }

    /// A new span under the innermost open one, taking the next
    /// sequence number.
    fn open(
        &mut self,
        component: &'static str,
        label: &'static str,
        start: SimTime,
        duration: SimDuration,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanEvent {
        let seq = self.next_seq;
        self.next_seq += 1;
        let parent = self.stack.last().map(|open| open.seq);
        SpanEvent {
            seq,
            component,
            label,
            start,
            duration,
            parent,
            attrs,
        }
    }

    /// Closes the innermost open span at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span (unbalanced
    /// begin/end indicate an instrumentation bug), or if `at` precedes
    /// the span's start (the virtual clock never runs backwards).
    pub fn end(&mut self, id: SpanId, at: SimTime) {
        let mut open = self.stack.pop().expect("Collector::end with no span open");
        assert_eq!(
            open.seq, id.0,
            "Collector::end: span {:?} is not the innermost open span",
            id
        );
        open.duration = at.duration_since(open.start);
        self.push(open);
    }

    /// The closed spans as an owned vector, sorted by open order
    /// (`seq`) — the canonical deterministic export order.
    pub fn events_by_seq(&self) -> Vec<SpanEvent> {
        let mut v: Vec<SpanEvent> = self.events.iter().cloned().collect();
        v.sort_by_key(|e| e.seq);
        v
    }

    /// Number of closed spans currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no spans have been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Spans evicted by the ring-buffer bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears all spans (closed and open) and counters; sequence
    /// numbering restarts from zero so a reset collector reproduces the
    /// exact trace of a fresh one.
    pub fn clear(&mut self) {
        self.events.clear();
        self.stack.clear();
        self.next_seq = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    fn dur(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    #[test]
    fn complete_spans_record_in_order() {
        let mut c = Collector::new(16);
        c.span("a", "first", ns(0), dur(10));
        c.span("a", "second", ns(10), dur(5));
        let events = c.events_by_seq();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].label, "first");
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].end(), ns(15));
        assert_eq!(events[0].parent, None);
    }

    #[test]
    fn nesting_assigns_parent_and_depth() {
        let mut c = Collector::new(16);
        let outer = c.begin("op", "outer", ns(0));
        let inner = c.begin("op", "inner", ns(1));
        c.span("op", "leaf", ns(2), dur(3));
        c.end(inner, ns(5));
        c.end(outer, ns(9));
        let by_seq = c.events_by_seq();
        assert_eq!(by_seq[0].label, "outer");
        assert_eq!(by_seq[0].parent, None);
        assert_eq!(by_seq[1].label, "inner");
        assert_eq!(by_seq[1].parent, Some(by_seq[0].seq));
        assert_eq!(by_seq[2].label, "leaf");
        assert_eq!(by_seq[2].parent, Some(by_seq[1].seq));
        assert_eq!(by_seq[0].duration, dur(9));
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut c = Collector::new(3);
        for (i, label) in ["s0", "s1", "s2", "s3", "s4"].into_iter().enumerate() {
            c.span("a", label, ns(i as u64), dur(1));
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.dropped(), 2);
        let labels: Vec<_> = c.events_by_seq().into_iter().map(|e| e.label).collect();
        assert_eq!(labels, vec!["s2", "s3", "s4"]);
    }

    #[test]
    fn clear_restarts_sequence_numbering() {
        let mut c = Collector::new(8);
        c.span("a", "x", ns(0), dur(1));
        c.clear();
        let id = c.span("a", "y", ns(0), dur(1));
        assert_eq!(id, SpanId(0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "not the innermost")]
    fn mismatched_end_panics() {
        let mut c = Collector::new(8);
        let a = c.begin("op", "a", ns(0));
        let _b = c.begin("op", "b", ns(1));
        c.end(a, ns(2));
    }

    #[test]
    fn attrs_round_trip() {
        let mut c = Collector::new(8);
        c.span_with(
            "blk",
            "submit",
            ns(0),
            dur(100),
            vec![("bytes", AttrValue::U64(4096)), ("kind", "read".into())],
        );
        let e = &c.events_by_seq()[0];
        assert_eq!(e.attrs[0], ("bytes", AttrValue::U64(4096)));
        assert_eq!(e.attrs[1], ("kind", AttrValue::Str("read")));
    }
}
