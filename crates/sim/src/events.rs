//! A stable, monotonic event queue.
//!
//! [`EventQueue`] orders events by their scheduled [`SimTime`]; events
//! scheduled for the same instant pop in insertion order (FIFO), which
//! keeps simulations deterministic regardless of queue internals.
//!
//! # Implementation: a deterministic hierarchical timer wheel
//!
//! The queue is a hashed hierarchical timer wheel (the structure DPDK
//! and the Linux kernel use for timer management): `LEVELS` levels of
//! `SLOTS` power-of-two buckets over the raw `SimTime` nanoseconds.
//! Level `l` buckets are `2^(6l)` ns wide, so the wheel spans `2^48` ns
//! (~3.2 simulated days) before falling back to a sorted overflow spill
//! list. Schedule and pop are amortized O(1): an entry is appended to
//! the bucket its time hashes to; a pop takes the minimum straight out
//! of the lowest occupied bucket, advancing the cursor to it and
//! re-hashing only that bucket's survivors (each lands at a strictly
//! lower level, because they share the level digit with the new
//! cursor).
//!
//! # Storage: slab + intrusive free list
//!
//! Every pending event lives in one slot of a single slab
//! (`Vec<Node<E>>`); the buckets and the overflow spill hold `u32` slot
//! ids, and each bucket is an intrusive FIFO ring through the nodes'
//! `next` field: the bucket holds the ring's tail, and the tail's
//! `next` is its head, so appending and taking the head are both O(1).
//! Every schedule, whatever the population, goes to one of those two
//! places. Popped slots are pushed onto a free list threaded through
//! the same `next` field and recycled by the next schedule, so steady
//! state — schedule, pop, cascade — performs **zero heap
//! allocations**: a cascade relinks ring nodes instead of moving
//! entries between `Vec`s, and the slab only grows while the pending
//! population exceeds every previous peak. [`EventQueue::pop_batch`]
//! drains a whole tick into a caller scratch buffer in one ring walk.
//!
//! Determinism: every pop yields the strict minimum `(time, seq)` pair,
//! exactly like the binary-heap implementation this replaced (kept in
//! the test-only `heap` module as the model for the randomized
//! equivalence tests). One invariant makes the ring order do that
//! work: **in every ring, entries with the same time run in ascending
//! `seq`**. It holds by construction, because every append keeps it:
//!
//! - a direct schedule carries a `seq` above every pending one;
//! - a cascade re-places its survivors in ring order, and every bucket
//!   they land in was empty (all levels below the cascaded one are);
//! - the overflow spill drains in `(time, seq)` order into an empty
//!   wheel.
//!
//! A level-0 bucket covers one nanosecond, so its ring is entirely in
//! `seq` order and a pop takes its head; a cascade's minimum is the
//! *first* minimum-time entry of its ring, found by comparing times
//! alone. Every pending event of the tick just popped sits in one
//! level-0 ring (the tick agrees with the cursor above its low `BITS`
//! bits, and overflow only holds later `2^48` ns blocks), which is why
//! `pop_batch` can take that ring whole. A schedule before the
//! last popped time panics in [`EventQueue::schedule`], so no pending
//! event ever precedes the clock.

use crate::time::SimTime;

/// log2 of the slot count per level.
const BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << BITS;
/// Wheel levels; times more than `2^(BITS*LEVELS)` ns past the cursor
/// spill to the sorted overflow list.
const LEVELS: usize = 8;
/// Null slot id for intrusive links (empty buckets, free-list end).
const NIL: u32 = u32::MAX;

/// One slab slot: an event with its key and the intrusive link used
/// both for bucket rings (while pending) and the free list (while
/// recycled). `event` is `None` only on the free list.
#[derive(Debug, Clone)]
struct Node<E> {
    time: u64,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// An event queue keyed by simulated time.
///
/// # Example
///
/// ```
/// use bmhive_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(5), 'b');
/// q.schedule(SimTime::from_nanos(1), 'a');
/// q.schedule(SimTime::from_nanos(5), 'c');
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Every pending (and recycled) event slot; all other containers
    /// hold indices into this.
    slab: Vec<Node<E>>,
    /// Head of the free list threaded through `Node::next` (`NIL` when
    /// every slot is live).
    free: u32,
    /// `LEVELS * SLOTS` bucket ring tails, level-major (`NIL` =
    /// empty); a tail's `next` is its ring's head.
    tails: Vec<u32>,
    /// One occupancy bitmap per level (bit `s` = bucket `s` non-empty).
    occupied: [u64; LEVELS],
    /// Slot ids beyond the wheel span, ascending by `(time, seq)`.
    overflow: Vec<u32>,
    /// Placement origin: entries hash into the wheel relative to this.
    /// Advances to the time a cascade pops, or to the earliest overflow
    /// entry on a drain; always `<= last_popped` and `<=` every pending
    /// wheel time.
    cursor: u64,
    len: usize,
    seq: u64,
    last_popped: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            tails: vec![NIL; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            cursor: 0,
            len: 0,
            seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// `(time, seq)` key of a live slot.
    #[inline]
    fn key(&self, id: u32) -> (u64, u64) {
        let n = &self.slab[id as usize];
        (n.time, n.seq)
    }

    /// Takes a slot from the free list (or grows the slab) and fills
    /// it. Steady state always finds a recycled slot.
    #[inline]
    fn alloc_node(&mut self, time: u64, seq: u64, event: E) -> u32 {
        if self.free != NIL {
            let id = self.free;
            let node = &mut self.slab[id as usize];
            self.free = node.next;
            node.time = time;
            node.seq = seq;
            node.next = NIL;
            node.event = Some(event);
            id
        } else {
            let id = u32::try_from(self.slab.len()).expect("event slab exceeds u32 slots");
            self.slab.push(Node {
                time,
                seq,
                next: NIL,
                event: Some(event),
            });
            id
        }
    }

    /// Returns a slot to the free list, yielding its time and event.
    #[inline]
    fn free_node(&mut self, id: u32) -> (u64, E) {
        let free = self.free;
        let node = &mut self.slab[id as usize];
        let time = node.time;
        let event = node.event.take().expect("freeing a live node");
        node.next = free;
        self.free = id;
        (time, event)
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the last popped event — scheduling
    /// into the past would silently corrupt causality in a
    /// discrete-event simulation.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.last_popped,
            "event scheduled in the past: {} < {}",
            time,
            self.last_popped
        );
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let id = self.alloc_node(time.as_nanos(), seq, event);
        self.place(id);
    }

    /// Hashes slot `id` into the wheel relative to `self.cursor` by
    /// appending it to its bucket's ring, or into the sorted overflow
    /// spill if it lies beyond the wheel span. Requires the slot's time
    /// `>= self.cursor`.
    fn place(&mut self, id: u32) {
        let time = self.slab[id as usize].time;
        let distance = time ^ self.cursor;
        let level = if distance == 0 {
            0
        } else {
            ((63 - distance.leading_zeros()) / BITS) as usize
        };
        if level >= LEVELS {
            let key = self.key(id);
            let at = self.overflow.partition_point(|&e| self.key(e) < key);
            self.overflow.insert(at, id);
            return;
        }
        let slot = ((time >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.occupied[level] |= 1 << slot;
        let tail = std::mem::replace(&mut self.tails[level * SLOTS + slot], id);
        self.slab[id as usize].next = if tail == NIL {
            id
        } else {
            std::mem::replace(&mut self.slab[tail as usize].next, id)
        };
    }

    /// Removes and returns the earliest event, with its scheduled time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let Some(level) = self.occupied.iter().position(|&occ| occ != 0) else {
                if self.overflow.is_empty() {
                    return None;
                }
                self.drain_overflow();
                continue;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            let idx = level * SLOTS + slot;
            let tail = self.tails[idx];
            let head = self.slab[tail as usize].next;
            let id = if level == 0 {
                // A 1 ns ring runs in seq (FIFO) order: take its head.
                if head == tail {
                    self.tails[idx] = NIL;
                    self.occupied[0] &= !(1u64 << slot);
                } else {
                    self.slab[tail as usize].next = self.slab[head as usize].next;
                }
                head
            } else {
                // Single-pass cascade: this bucket holds the wheel's
                // minimum, so advance the cursor straight to that
                // minimum (every other wheel entry is strictly later)
                // and pop it. Equal times run in seq order, so the
                // first minimum-time entry is the `(time, seq)` minimum.
                self.tails[idx] = NIL;
                self.occupied[level] &= !(1u64 << slot);
                let mut min_id = head;
                let mut cur = head;
                while cur != tail {
                    cur = self.slab[cur as usize].next;
                    if self.slab[cur as usize].time < self.slab[min_id as usize].time {
                        min_id = cur;
                    }
                }
                // The survivors share the level digit with the new
                // cursor, so re-placing them in ring order lands each
                // strictly lower, in buckets that were empty.
                self.cursor = self.slab[min_id as usize].time;
                let mut cur = head;
                loop {
                    let next = self.slab[cur as usize].next;
                    if cur != min_id {
                        self.place(cur);
                    }
                    if cur == tail {
                        break;
                    }
                    cur = next;
                }
                min_id
            };
            self.len -= 1;
            let (time_ns, event) = self.free_node(id);
            let time = SimTime::from_nanos(time_ns);
            debug_assert!(time >= self.last_popped);
            self.last_popped = time;
            return Some((time, event));
        }
    }

    /// Drains every event due at the earliest pending tick into `out`,
    /// clearing it first, and returns how many were delivered (0 when
    /// the queue is empty).
    ///
    /// The batch is exactly the prefix a [`pop`](Self::pop) loop would
    /// produce: all pending events sharing the minimum time, in `seq`
    /// (FIFO) order. Events scheduled *for the same tick while the
    /// caller processes the batch* carry higher `seq`s and land in the
    /// next batch — precisely where a pop loop would deliver them, so
    /// batching never reorders a simulation. Passing the same scratch
    /// vector every tick keeps delivery allocation-free once the
    /// buffer has grown to the widest tick.
    pub fn pop_batch(&mut self, out: &mut Vec<(SimTime, E)>) -> usize {
        out.clear();
        let Some(first) = self.pop() else {
            return 0;
        };
        let tick = first.0;
        out.push(first);
        // Every other pending event at `tick` is in this one level-0
        // ring, already in seq order: unlink it whole and drain it.
        let slot = (tick.as_nanos() & (SLOTS as u64 - 1)) as usize;
        let tail = std::mem::replace(&mut self.tails[slot], NIL);
        if tail != NIL {
            self.occupied[0] &= !(1u64 << slot);
            let mut cur = self.slab[tail as usize].next;
            loop {
                let next = self.slab[cur as usize].next;
                let (time_ns, event) = self.free_node(cur);
                debug_assert_eq!(time_ns, tick.as_nanos());
                self.len -= 1;
                out.push((tick, event));
                if cur == tail {
                    break;
                }
                cur = next;
            }
        }
        out.len()
    }

    /// Moves the leading run of overflow entries that now fits the
    /// wheel span in, re-anchoring the cursor at the earliest one.
    fn drain_overflow(&mut self) {
        self.cursor = self.slab[self.overflow[0] as usize].time;
        let span = 1u64 << (BITS * LEVELS as u32);
        let fits = self
            .overflow
            .partition_point(|&e| self.slab[e as usize].time ^ self.cursor < span);
        for i in 0..fits {
            let id = self.overflow[i];
            // Fits the span by construction, so this never re-enters
            // the overflow list it is being drained from.
            self.place(id);
        }
        self.overflow.drain(..fits);
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The time of the most recently popped event (the current simulation
    /// time from the queue's perspective).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Drives a simulation's main loop one tick at a time through
/// [`EventQueue::pop_batch`], owning the reused batch scratch and
/// metering batch efficiency.
///
/// A long-running experiment loop written as `while let Some(..) =
/// queue.pop()` pays the wheel's pop bookkeeping once per event; a
/// `BatchRunner` pays it once per *tick* and then walks the drained
/// batch linearly, dispatching each event through the caller's handler
/// (whose per-variant arms are compiled once, outside the drain loop).
/// Because the handler typically needs mutable access both to its state
/// and to the queue embedded in that state, the runner borrows the
/// queue through an accessor closure: `step(state, |s| &mut s.queue,
/// |s, now, ev| ...)`.
///
/// The dispatch order is exactly the order a one-pop-at-a-time loop
/// would produce (see [`EventQueue::pop_batch`]); the batch-vs-single
/// property test in `tests/` pins that equivalence end to end across
/// every experiment. [`ticks`](Self::ticks) and
/// [`events`](Self::events) expose the counts consumers publish to
/// telemetry so benches can report mean batch length per run.
#[derive(Debug)]
pub struct BatchRunner<E> {
    scratch: Vec<(SimTime, E)>,
    ticks: u64,
    events: u64,
}

impl<E> BatchRunner<E> {
    /// A runner with an empty scratch buffer.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A runner whose scratch already has room for `capacity` events
    /// per tick, so warm loops never grow it.
    pub fn with_capacity(capacity: usize) -> Self {
        BatchRunner {
            scratch: Vec::with_capacity(capacity),
            ticks: 0,
            events: 0,
        }
    }

    /// Drains the next tick from `state`'s queue and dispatches every
    /// drained event through `handler`, in `(time, seq)` order. Returns
    /// the batch length (0 when the queue is empty).
    ///
    /// `queue_of` projects the event queue out of `state`; the scratch
    /// is detached from `self` during dispatch, so handlers are free to
    /// schedule follow-up events (same-tick schedules land in the next
    /// batch, exactly where a pop loop would deliver them).
    pub fn step<S>(
        &mut self,
        state: &mut S,
        queue_of: impl Fn(&mut S) -> &mut EventQueue<E>,
        mut handler: impl FnMut(&mut S, SimTime, E),
    ) -> usize {
        let mut scratch = std::mem::take(&mut self.scratch);
        let n = queue_of(state).pop_batch(&mut scratch);
        if n > 0 {
            self.ticks += 1;
            self.events += n as u64;
            for (now, ev) in scratch.drain(..) {
                handler(state, now, ev);
            }
        }
        self.scratch = scratch;
        n
    }

    /// Runs [`step`](Self::step) until the queue drains empty.
    pub fn run<S>(
        &mut self,
        state: &mut S,
        queue_of: impl Fn(&mut S) -> &mut EventQueue<E>,
        mut handler: impl FnMut(&mut S, SimTime, E),
    ) {
        while self.step(state, &queue_of, &mut handler) > 0 {}
    }

    /// Ticks drained so far (batches dispatched).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Events dispatched so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl<E> Default for BatchRunner<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The binary-heap implementation the wheel replaced. Kept as the
/// reference model for the randomized equivalence test below: the wheel
/// must reproduce its pop sequence exactly, operation for operation.
#[cfg(test)]
mod heap {
    use crate::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Debug)]
    pub struct HeapEventQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
        last_popped: SimTime,
    }

    #[derive(Debug)]
    struct Entry<E> {
        time: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }

    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; reverse so the earliest
            // (time, seq) pops first.
            (other.time, other.seq).cmp(&(self.time, self.seq))
        }
    }

    impl<E> HeapEventQueue<E> {
        pub fn new() -> Self {
            HeapEventQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                last_popped: SimTime::ZERO,
            }
        }

        pub fn schedule(&mut self, time: SimTime, event: E) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { time, seq, event });
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let entry = self.heap.pop()?;
            assert!(
                entry.time >= self.last_popped,
                "event scheduled in the past: {} < {}",
                entry.time,
                self.last_popped
            );
            self.last_popped = entry.time;
            Some((entry.time, entry.event))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn now(&self) -> SimTime {
            self.last_popped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::heap::HeapEventQueue;
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_in_fifo_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn ties_break_fifo_across_bucket_boundaries() {
        // Same-time events interleaved with events that hash to other
        // levels and slots: a cascade re-places older-seq entries ahead
        // of newer direct inserts, and pops must still be strict FIFO.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(100); // level > 0 from cursor 0
        q.schedule(t, 0);
        q.schedule(SimTime::from_nanos(50), 100);
        q.schedule(t, 1);
        q.schedule(t + crate::time::SimDuration::from_nanos(1), 200);
        q.schedule(t, 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(50), 100)));
        // Cascade has happened; same-time entries must still pop 0,1,2.
        q.schedule(t, 3);
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), Some((t, 3)));
        assert_eq!(q.pop().unwrap().1, 200);
        assert_eq!(q.pop(), None);
    }

    /// The ordering invariant, checked structurally after every
    /// operation: same-tick bursts of over a thousand, level-crossing
    /// jumps and overflow leaps, drained through both `pop` and
    /// `pop_batch`.
    #[test]
    fn rings_keep_equal_times_in_seq_order() {
        for seed in 0..4u64 {
            let mut rng = SimRng::with_stream(seed, 0x7a11);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut batch = Vec::new();
            // Each event carries the op count at its schedule, so
            // payloads rise with seq. Two same-tick bursts per seed.
            let mut ops = 0u64;
            let mut next_burst = rng.range(1_000, 4_000);
            while ops < 20_000 {
                if ops >= next_burst {
                    next_burst = ops + rng.range(9_000, 12_000);
                    // One shared tick: now, in level 0, or a level or two up.
                    let offset = match rng.below(3) {
                        0 => 0,
                        1 => rng.below(64),
                        _ => rng.below(1 << 14),
                    };
                    let t = SimTime::from_nanos(q.now().as_nanos() + offset);
                    for _ in 0..rng.range(1_000, 1_100) {
                        q.schedule(t, ops);
                        ops += 1;
                        q.check_rings();
                    }
                } else if q.len() < 64 && rng.chance(0.5) {
                    for _ in 0..rng.range(1, 24) {
                        let offset = match rng.below(10) {
                            0..=5 => rng.below(64),
                            6 | 7 => rng.below(1 << 14),
                            8 => rng.below(1 << 30),
                            _ => (1 << 47) + rng.below(1 << 49),
                        };
                        q.schedule(SimTime::from_nanos(q.now().as_nanos() + offset), ops);
                        ops += 1;
                        q.check_rings();
                    }
                } else if rng.chance(0.5) {
                    for _ in 0..rng.range(1, 64) {
                        let before = q.now();
                        let Some((time, _)) = q.pop() else { break };
                        assert!(time >= before, "seed {seed}: pop went back in time");
                        ops += 1;
                        q.check_rings();
                    }
                } else {
                    for _ in 0..rng.range(1, 8) {
                        let n = q.pop_batch(&mut batch);
                        assert!(batch.iter().all(|&(time, _)| time == batch[0].0));
                        assert!(batch.windows(2).all(|w| w[0].1 < w[1].1));
                        ops += n as u64;
                        q.check_rings();
                        if n == 0 {
                            break;
                        }
                    }
                }
            }
            while q.pop_batch(&mut batch) > 0 {
                q.check_rings();
            }
            assert!(q.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn peek_and_len_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(4), ());
        q.schedule(SimTime::from_nanos(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn scheduling_into_the_past_panics_at_schedule() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_nanos(9), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(9));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_nanos(3), "c");
        q.schedule(SimTime::from_nanos(2), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.schedule(SimTime::from_nanos(4), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
    }

    #[test]
    fn far_future_events_spill_to_overflow_and_return() {
        let mut q = EventQueue::new();
        // Beyond the 2^48 ns wheel span from cursor 0.
        let far = SimTime::from_nanos(1 << 50);
        let farther = SimTime::from_nanos((1 << 50) + 123);
        q.schedule(farther, "z");
        q.schedule(far, "y");
        q.schedule(SimTime::from_nanos(10), "a");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(q.pop().unwrap().1, "a");
        // Draining the overflow re-anchors the wheel at the far time.
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "y")));
        assert_eq!(q.pop(), Some((farther, "z")));
        assert_eq!(q.pop(), None);
        // The queue keeps working past the overflow horizon.
        q.schedule(SimTime::from_nanos((1 << 51) + 7), "w");
        assert_eq!(q.pop().unwrap().1, "w");
    }

    #[test]
    fn pop_batch_drains_one_tick_in_fifo_order() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_nanos(10);
        let t2 = SimTime::from_nanos(20);
        q.schedule(t2, 10);
        q.schedule(t1, 0);
        q.schedule(t1, 1);
        q.schedule(t2, 11);
        q.schedule(t1, 2);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), 3);
        assert_eq!(batch, vec![(t1, 0), (t1, 1), (t1, 2)]);
        // The scratch is cleared per call and reused.
        assert_eq!(q.pop_batch(&mut batch), 2);
        assert_eq!(batch, vec![(t2, 10), (t2, 11)]);
        assert_eq!(q.pop_batch(&mut batch), 0);
        assert!(batch.is_empty());
    }

    #[test]
    fn pop_batch_defers_same_tick_events_scheduled_mid_batch() {
        // A handler scheduling *for the tick being processed* must see
        // its event in the next batch — the same place a pop loop
        // would deliver it (its seq is higher than every popped one).
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule(t, 0);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), 1);
        assert_eq!(batch, vec![(t, 0)]);
        q.schedule(t, 1); // "mid-batch" follow-up at the same tick
        assert_eq!(q.pop_batch(&mut batch), 1);
        assert_eq!(batch, vec![(t, 1)]);
    }

    #[test]
    fn slab_reuse_keeps_allocation_bounded_under_churn() {
        // A steady population cycled through schedule/pop thousands of
        // times must never grow the slab past its warm-up size: every
        // pop recycles a slot the next schedule reuses.
        const POP: u64 = 100; // deep enough to occupy several levels
        let mut q = EventQueue::new();
        let mut rng = SimRng::with_stream(9, 0x51ab);
        for i in 0..POP {
            q.schedule(SimTime::from_nanos(1 + i), i);
        }
        let warm = q.slab_len();
        assert_eq!(warm, POP as usize);
        for _ in 0..50_000 {
            let (now, v) = q.pop().expect("population is steady");
            let gap = 1 + rng.below(1 << 12);
            q.schedule(SimTime::from_nanos(now.as_nanos() + gap), v);
        }
        assert_eq!(q.len(), POP as usize);
        assert_eq!(
            q.slab_len(),
            warm,
            "churn must recycle slots, not grow the slab"
        );
    }

    /// The tentpole proof: the wheel and the retired heap must agree on
    /// every operation's result over millions of randomized
    /// interleavings — mixed schedule bursts and pop runs, clustered
    /// ties, level-crossing jumps, and overflow-distance times — and
    /// over small closed loops.
    #[test]
    fn randomized_equivalence_with_heap_model() {
        // Small populations: closed loops of k = 1..=32 outstanding
        // events, each pop scheduling its successor at `now + d` with
        // d = 0 included, so ties occur. Fio's eight threads and the
        // preemption study's two ticks run in this regime.
        for seed in 0..4u64 {
            let mut rng = SimRng::with_stream(seed, 0x5a11);
            for k in 1..=32u64 {
                let mut wheel: EventQueue<u64> = EventQueue::new();
                let mut model: HeapEventQueue<u64> = HeapEventQueue::new();
                for i in 0..k {
                    let t = SimTime::from_nanos(rng.below(4));
                    wheel.schedule(t, i);
                    model.schedule(t, i);
                }
                for _ in 0..2_000 {
                    assert_eq!(wheel.peek_time(), model.peek_time(), "seed {seed} k {k}");
                    let got = wheel.pop();
                    assert_eq!(got, model.pop(), "seed {seed} k {k}");
                    let (now, ev) = got.expect("a closed loop never drains");
                    let d = match rng.below(4) {
                        0 => 0,
                        1 => rng.below(64),
                        2 => rng.below(1 << 14),
                        _ => rng.below(1 << 30),
                    };
                    let t = SimTime::from_nanos(now.as_nanos() + d);
                    wheel.schedule(t, ev);
                    model.schedule(t, ev);
                    assert_eq!(wheel.len(), k as usize, "seed {seed} k {k}");
                    assert_eq!(wheel.now(), model.now(), "seed {seed} k {k}");
                }
            }
        }
        for seed in 0..4u64 {
            let mut rng = SimRng::with_stream(seed, 0xe0e1);
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut model: HeapEventQueue<u64> = HeapEventQueue::new();
            let mut scheduled = 0u64;
            let mut ops = 0u64;
            while ops < 1_500_000 {
                if !wheel.is_empty() {
                    assert_eq!(wheel.peek_time(), model.peek_time(), "seed {seed}");
                }
                if rng.chance(0.55) || wheel.is_empty() {
                    // Schedule a burst. Offsets mix dense near-term
                    // times (heavy ties), mid-range jumps that cross
                    // wheel levels, and rare overflow-distance leaps.
                    let burst = rng.range(1, 24);
                    for _ in 0..burst {
                        let offset = match rng.below(10) {
                            0..=5 => rng.below(64),              // level-0 ties
                            6 | 7 => rng.below(1 << 14),         // levels 1–2
                            8 => rng.below(1 << 30),             // levels 3–5
                            _ => (1 << 47) + rng.below(1 << 49), // top / overflow
                        };
                        let t = SimTime::from_nanos(model.now().as_nanos() + offset);
                        wheel.schedule(t, scheduled);
                        model.schedule(t, scheduled);
                        scheduled += 1;
                        ops += 1;
                    }
                } else {
                    let run = rng.range(1, 16);
                    for _ in 0..run {
                        let got = wheel.pop();
                        let want = model.pop();
                        assert_eq!(got, want, "seed {seed} after {ops} ops");
                        ops += 1;
                        if got.is_none() {
                            break;
                        }
                    }
                }
                assert_eq!(wheel.len(), model.len(), "seed {seed}");
                assert_eq!(wheel.now(), model.now(), "seed {seed}");
            }
            // Drain both to the end: the full pop sequence must match.
            loop {
                let got = wheel.pop();
                let want = model.pop();
                assert_eq!(got, want, "seed {seed} drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// A miniature self-scheduling simulation driven by `BatchRunner`
    /// must dispatch the exact sequence a one-pop-at-a-time loop
    /// produces, and the runner's meters must account for every event.
    #[test]
    fn batch_runner_matches_a_pop_loop() {
        struct Sim {
            queue: EventQueue<u64>,
            rng: SimRng,
            log: Vec<(SimTime, u64)>,
            budget: u64,
        }
        let drive = |seed: u64| -> (Vec<(SimTime, u64)>, u64, u64) {
            let mut sim = Sim {
                queue: EventQueue::new(),
                rng: SimRng::with_stream(seed, 0xb41c),
                log: Vec::new(),
                budget: 20_000,
            };
            for i in 0..64 {
                sim.queue.schedule(SimTime::from_nanos(i % 7), i);
            }
            let mut runner = BatchRunner::new();
            runner.run(
                &mut sim,
                |s| &mut s.queue,
                |s, now, ev| {
                    s.log.push((now, ev));
                    if s.budget > 0 {
                        s.budget -= 1;
                        // Mix same-tick follow-ups (land next batch)
                        // with future jumps, like a real handler.
                        let gap = s.rng.below(3) * s.rng.below(1 << 10);
                        s.queue
                            .schedule(now + crate::time::SimDuration::from_nanos(gap), ev);
                    }
                },
            );
            (sim.log, runner.ticks(), runner.events())
        };
        for seed in 0..4 {
            let (batched, ticks, events) = drive(seed);
            // Replay the same simulation with a plain pop loop.
            let mut sim = Sim {
                queue: EventQueue::new(),
                rng: SimRng::with_stream(seed, 0xb41c),
                log: Vec::new(),
                budget: 20_000,
            };
            for i in 0..64 {
                sim.queue.schedule(SimTime::from_nanos(i % 7), i);
            }
            while let Some((now, ev)) = sim.queue.pop() {
                sim.log.push((now, ev));
                if sim.budget > 0 {
                    sim.budget -= 1;
                    let gap = sim.rng.below(3) * sim.rng.below(1 << 10);
                    sim.queue
                        .schedule(now + crate::time::SimDuration::from_nanos(gap), ev);
                }
            }
            assert_eq!(batched, sim.log, "seed {seed}");
            assert_eq!(events, batched.len() as u64, "seed {seed}");
            assert!(ticks > 0 && ticks <= events, "seed {seed}");
        }
    }

    #[test]
    fn batch_runner_meters_mean_batch_length() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(3);
        for i in 0..6u64 {
            q.schedule(t, i);
        }
        q.schedule(SimTime::from_nanos(9), 99);
        let mut runner = BatchRunner::new();
        assert_eq!((runner.ticks(), runner.events()), (0, 0));
        let mut seen = 0u64;
        runner.run(&mut q, |q| q, |_, _, _| seen += 1);
        assert_eq!(seen, 7);
        // Two ticks carry seven events: a mean batch of 3.5.
        assert_eq!(runner.ticks(), 2);
        assert_eq!(runner.events(), 7);
    }

    /// The batched path against the same model: draining via
    /// `pop_batch` must yield the heap's exact pop sequence, batch
    /// boundaries must align with tick boundaries, and the scratch
    /// buffer is reused across the whole run.
    #[test]
    fn randomized_batched_equivalence_with_heap_model() {
        for seed in 0..4u64 {
            let mut rng = SimRng::with_stream(seed, 0xba7c);
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut model: HeapEventQueue<u64> = HeapEventQueue::new();
            let mut batch: Vec<(SimTime, u64)> = Vec::new();
            let mut scheduled = 0u64;
            let mut ops = 0u64;
            while ops < 1_500_000 {
                if rng.chance(0.55) || wheel.is_empty() {
                    let burst = rng.range(1, 24);
                    for _ in 0..burst {
                        let offset = match rng.below(10) {
                            0..=5 => rng.below(64),
                            6 | 7 => rng.below(1 << 14),
                            8 => rng.below(1 << 30),
                            _ => (1 << 47) + rng.below(1 << 49),
                        };
                        let t = SimTime::from_nanos(model.now().as_nanos() + offset);
                        wheel.schedule(t, scheduled);
                        model.schedule(t, scheduled);
                        scheduled += 1;
                        ops += 1;
                    }
                } else {
                    // Drain a few whole ticks; every batch must be the
                    // exact prefix the model pops, all at one time.
                    let ticks = rng.range(1, 4);
                    for _ in 0..ticks {
                        let n = wheel.pop_batch(&mut batch);
                        assert_eq!(n, batch.len(), "seed {seed}");
                        if n == 0 {
                            assert_eq!(model.pop(), None, "seed {seed}");
                            break;
                        }
                        let tick = batch[0].0;
                        for &(time, event) in &batch {
                            assert_eq!(time, tick, "seed {seed}: batch spans ticks");
                            assert_eq!(
                                model.pop(),
                                Some((time, event)),
                                "seed {seed} after {ops} ops"
                            );
                            ops += 1;
                        }
                        assert_ne!(
                            wheel.peek_time(),
                            Some(tick),
                            "seed {seed}: batch must drain its tick completely"
                        );
                    }
                }
                assert_eq!(wheel.len(), model.len(), "seed {seed}");
                assert_eq!(wheel.now(), model.now(), "seed {seed}");
            }
            // Drain both to the end, batch against pops.
            while wheel.pop_batch(&mut batch) > 0 {
                for &(time, event) in &batch {
                    assert_eq!(model.pop(), Some((time, event)), "seed {seed} drain");
                }
            }
            assert_eq!(model.pop(), None, "seed {seed} drain end");
        }
    }
}

/// Test-only views of the wheel's internals.
#[cfg(test)]
impl<E> EventQueue<E> {
    /// Slab slots ever allocated: the peak concurrent population, not
    /// the total event count. Recycling keeps this bounded under
    /// churn; the slab-reuse test pins that contract.
    fn slab_len(&self) -> usize {
        self.slab.len()
    }

    /// The scheduled time of the earliest pending event, without
    /// cascading: it lives in the lowest occupied bucket of the lowest
    /// occupied level. A level-0 bucket's time is its slot within the
    /// cursor's 64 ns block.
    fn peek_time(&self) -> Option<SimTime> {
        let time = match self.occupied.iter().position(|&occ| occ != 0) {
            Some(0) => {
                (self.cursor & !(SLOTS as u64 - 1)) | u64::from(self.occupied[0].trailing_zeros())
            }
            Some(level) => {
                let slot = self.occupied[level].trailing_zeros() as usize;
                let tail = self.tails[level * SLOTS + slot];
                let (mut cur, mut min) = (tail, u64::MAX);
                loop {
                    cur = self.slab[cur as usize].next;
                    min = min.min(self.slab[cur as usize].time);
                    if cur == tail {
                        break min;
                    }
                }
            }
            None => self.slab[*self.overflow.first()? as usize].time,
        };
        Some(SimTime::from_nanos(time))
    }

    /// The `(time, seq)` keys of bucket `idx`'s ring, head to tail,
    /// into `keys` (cleared first).
    fn ring_into(&self, idx: usize, keys: &mut Vec<(u64, u64)>) {
        keys.clear();
        let tail = self.tails[idx];
        if tail == NIL {
            return;
        }
        let mut cur = tail;
        for _ in 0..self.slab.len() {
            cur = self.slab[cur as usize].next;
            keys.push(self.key(cur));
            if cur == tail {
                return;
            }
        }
        panic!("ring {idx} never returns to its tail");
    }

    /// Walks every ring and checks the ordering invariant the pops rely
    /// on, plus the bookkeeping around it.
    fn check_rings(&self) {
        let mut pending = self.overflow.len();
        let mut keys = Vec::new();
        for (level, tails) in self.tails.chunks_exact(SLOTS).enumerate() {
            // Every occupied bit names a non-empty ring, and with those
            // blanked out no ring is left.
            let mut unnamed: [u32; SLOTS] = tails.try_into().expect("one level");
            let mut bits = self.occupied[level];
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                assert_ne!(
                    tails[slot], NIL,
                    "level {level} slot {slot}: bit set, ring empty"
                );
                unnamed[slot] = NIL;
                self.ring_into(level * SLOTS + slot, &mut keys);
                pending += keys.len();
                if level == 0 {
                    // A 1 ns bucket holds one time, so the check below
                    // makes its whole ring run in seq order.
                    let time = (self.cursor & !(SLOTS as u64 - 1)) | slot as u64;
                    assert!(
                        keys.iter().all(|&(t, _)| t == time),
                        "level-0 slot {slot} holds a time other than {time}"
                    );
                }
                // A stable sort by time keeps ring order within a time.
                keys.sort_by_key(|&(time, _)| time);
                for w in keys.windows(2) {
                    assert!(
                        w[0].0 != w[1].0 || w[0].1 < w[1].1,
                        "level {level} slot {slot}: time {} runs seq {} before {}",
                        w[0].0,
                        w[0].1,
                        w[1].1
                    );
                }
            }
            assert_eq!(
                unnamed, [NIL; SLOTS],
                "level {level}: a non-empty ring has no occupied bit"
            );
        }
        assert_eq!(self.len, pending, "len disagrees with rings plus overflow");
    }
}
