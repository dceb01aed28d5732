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
//! list. Schedule and pop are amortized O(1): an entry is linked into
//! the bucket its time hashes to; a pop pulls the minimum straight out
//! of the lowest occupied bucket, advancing the cursor to it and
//! re-hashing only that bucket's survivors (each lands at a strictly
//! lower level, because they share the level digit with the new
//! cursor).
//!
//! # Storage: slab + intrusive free list
//!
//! Every pending event lives in one slot of a single slab
//! (`Vec<Node<E>>`); buckets, the front buffer, the overflow spill and
//! the past list hold `u32` slot ids, and each bucket is an intrusive
//! singly-linked chain through the nodes' `next` field. Popped slots
//! are pushed onto a free list threaded through the same `next` field
//! and recycled by the next schedule, so steady state — schedule, pop,
//! cascade — performs **zero heap allocations**: a cascade relinks
//! chain nodes instead of moving entries between `Vec`s, and the slab
//! only grows while the pending population exceeds every previous
//! peak. [`EventQueue::pop_batch`] drains a whole tick into a caller
//! scratch buffer so hot loops don't interleave peeks and pops.
//!
//! Determinism: every pop selects the strict minimum `(time, seq)`
//! pair, exactly like the binary-heap implementation this replaced
//! (kept in the test-only `heap` module as the model for the randomized
//! equivalence test). Chains are scanned for the minimum rather than
//! trusting link order, because a cascaded batch can link older-`seq`
//! entries behind newer direct inserts.

use crate::time::SimTime;

/// log2 of the slot count per level.
const BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << BITS;
/// Wheel levels; times more than `2^(BITS*LEVELS)` ns past the cursor
/// spill to the sorted overflow list.
const LEVELS: usize = 8;
/// Null slot id for intrusive links (chain ends, empty buckets, empty
/// free list).
const NIL: u32 = u32::MAX;

/// One slab slot: an event with its key and the intrusive link used
/// both for bucket chains (while pending) and the free list (while
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
/// Population at which a small queue spills from the unsorted front
/// buffer into the wheel. Discrete-event hot loops (a handful of
/// closed-loop workers, a small server pool) stay in the front buffer,
/// where schedule is a branchless push and pop is a short min-scan;
/// big populations (fleets, deep queues) amortize over the wheel.
const FRONT_CAP: usize = 32;

#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Every pending (and recycled) event slot; all other containers
    /// hold indices into this.
    slab: Vec<Node<E>>,
    /// Head of the free list threaded through `Node::next` (`NIL` when
    /// every slot is live).
    free: u32,
    /// `LEVELS * SLOTS` bucket chain heads, level-major (`NIL` =
    /// empty). Chains are unordered; pops min-scan them.
    heads: Vec<u32>,
    /// Small-population fast path: an unsorted scratchpad of at most
    /// [`FRONT_CAP`] slot ids. Schedule pushes, pop scans for the
    /// `(time, seq)` minimum — at this size a predictable linear scan
    /// beats both the heap's sifts and the wheel's bucket hashing.
    /// Invariant: the front buffer and the wheel (buckets + overflow)
    /// are never simultaneously non-empty — schedules go to the front
    /// buffer only while the wheel is empty, and spill the whole
    /// buffer into the wheel when it outgrows [`FRONT_CAP`].
    front: Vec<u32>,
    /// One occupancy bitmap per level (bit `s` = bucket `s` non-empty).
    occupied: [u64; LEVELS],
    /// Slot ids beyond the wheel span, ascending by `(time, seq)`.
    overflow: Vec<u32>,
    /// Slot ids scheduled before `last_popped`: kept so the next pop
    /// can report the causality violation exactly like the heap did.
    past: Vec<u32>,
    /// Placement origin: entries hash into the wheel relative to this.
    /// Advances to the base of the bucket being cascaded; always
    /// `<= last_popped` and `<=` every pending wheel time.
    cursor: u64,
    len: usize,
    cap: usize,
    seq: u64,
    last_popped: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before the backing storage reallocates. Callers that know their
    /// steady-state event population (one slot per inflight operation)
    /// use this to keep the schedule/pop hot path allocation-free.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            slab: Vec::with_capacity(capacity),
            free: NIL,
            heads: vec![NIL; LEVELS * SLOTS],
            front: Vec::new(),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            past: Vec::new(),
            cursor: 0,
            len: 0,
            cap: capacity,
            seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Reserves room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.cap = self.cap.max(self.len + additional);
        self.slab.reserve(self.cap.saturating_sub(self.slab.len()));
    }

    /// Drops all pending events and rewinds the clock to
    /// [`SimTime::ZERO`], retaining the slab's allocation so the
    /// queue can be reused for a fresh run without reallocating.
    pub fn clear(&mut self) {
        for (level, occ) in self.occupied.iter_mut().enumerate() {
            let mut bits = *occ;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.heads[level * SLOTS + slot] = NIL;
            }
            *occ = 0;
        }
        self.slab.clear();
        self.free = NIL;
        self.front.clear();
        self.overflow.clear();
        self.past.clear();
        self.cursor = 0;
        self.len = 0;
        self.seq = 0;
        self.last_popped = SimTime::ZERO;
    }

    /// Pending event slots available without reallocating (the high
    ///-water mark of requested capacity and current population).
    pub fn capacity(&self) -> usize {
        self.cap.max(self.len)
    }

    /// Slab slots ever allocated: the peak concurrent population, not
    /// the total event count. Recycling keeps this bounded under
    /// churn; the slab-reuse test pins that contract.
    pub fn slab_len(&self) -> usize {
        self.slab.len()
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
    /// Scheduling in the past (before the last popped event) is allowed at
    /// insertion but will panic on [`pop`](Self::pop); catching it there
    /// keeps insertion cheap.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let id = self.alloc_node(time.as_nanos(), seq, event);
        if time < self.last_popped {
            self.past.push(id);
        } else if self.len - self.front.len() - self.past.len() > 1 {
            // The wheel already holds entries (`> 1` because `len`
            // includes the one being scheduled): keep feeding it.
            self.place(id);
        } else if self.front.len() < FRONT_CAP {
            // Wheel empty: stay on the small-queue fast path.
            self.front.push(id);
        } else {
            // The small queue outgrew its buffer: spill everything
            // into the wheel and continue there. Ids are `Copy`, so
            // the buffer is walked in place and truncated — no
            // temporary.
            for i in 0..self.front.len() {
                let fid = self.front[i];
                self.place(fid);
            }
            self.front.clear();
            self.place(id);
        }
    }

    /// Hashes slot `id` into the wheel relative to `self.cursor` by
    /// linking it at the head of its bucket chain, or into the sorted
    /// overflow spill if it lies beyond the wheel span. Requires the
    /// slot's time `>= self.cursor`.
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
        let head = &mut self.heads[level * SLOTS + slot];
        self.slab[id as usize].next = *head;
        *head = id;
    }

    /// Removes and returns the earliest event, with its scheduled time.
    ///
    /// # Panics
    ///
    /// Panics if the earliest event is scheduled before a previously
    /// popped event — i.e. someone scheduled into the past, which would
    /// silently corrupt causality in a discrete-event simulation.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.past.is_empty() {
            // A past entry is strictly earlier than anything in the
            // wheel, so it is the global minimum the heap would pop.
            let at = (0..self.past.len())
                .min_by_key(|&i| self.key(self.past[i]))
                .expect("non-empty");
            let id = self.past.swap_remove(at);
            self.len -= 1;
            let (time_ns, _event) = self.free_node(id);
            let time = SimTime::from_nanos(time_ns);
            assert!(
                time >= self.last_popped,
                "event scheduled in the past: {} < {}",
                time,
                self.last_popped
            );
            unreachable!("past entries precede last_popped by construction");
        }
        if !self.front.is_empty() {
            // Front buffer active ⇒ the wheel is empty, so the buffer's
            // `(time, seq)` minimum is the global minimum.
            let at = (0..self.front.len())
                .min_by_key(|&i| self.key(self.front[i]))
                .expect("non-empty");
            let id = self.front.swap_remove(at);
            self.len -= 1;
            let (time_ns, event) = self.free_node(id);
            self.cursor = time_ns;
            let time = SimTime::from_nanos(time_ns);
            debug_assert!(time >= self.last_popped);
            self.last_popped = time;
            return Some((time, event));
        }
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
            if level == 0 {
                // A 1 ns bucket: every entry shares `time`, so the
                // minimum is the smallest seq (FIFO). Unlink it from
                // the chain in place — no moves, no allocation.
                let head = self.heads[idx];
                let mut min_id = head;
                let mut min_prev = NIL;
                let mut prev = head;
                let mut cur = self.slab[head as usize].next;
                while cur != NIL {
                    if self.slab[cur as usize].seq < self.slab[min_id as usize].seq {
                        min_id = cur;
                        min_prev = prev;
                    }
                    prev = cur;
                    cur = self.slab[cur as usize].next;
                }
                let after = self.slab[min_id as usize].next;
                if min_prev == NIL {
                    self.heads[idx] = after;
                } else {
                    self.slab[min_prev as usize].next = after;
                }
                if self.heads[idx] == NIL {
                    self.occupied[0] &= !(1u64 << slot);
                }
                self.len -= 1;
                let (time_ns, event) = self.free_node(min_id);
                let time = SimTime::from_nanos(time_ns);
                assert!(
                    time >= self.last_popped,
                    "event scheduled in the past: {} < {}",
                    time,
                    self.last_popped
                );
                self.last_popped = time;
                return Some((time, event));
            }
            // Single-pass cascade: this bucket holds the wheel's
            // minimum, so advance the cursor straight to that minimum
            // (every other wheel entry is strictly later) and pop it.
            // The bucket's survivors share the level digit with the
            // new cursor, so re-placing them always lands strictly
            // lower — one pass over one chain per pop, relinking nodes
            // instead of moving entries between vectors.
            self.occupied[level] &= !(1u64 << slot);
            let head = std::mem::replace(&mut self.heads[idx], NIL);
            let min_id = if self.slab[head as usize].next == NIL {
                head
            } else {
                let mut min_id = head;
                let mut cur = self.slab[head as usize].next;
                while cur != NIL {
                    if self.key(cur) < self.key(min_id) {
                        min_id = cur;
                    }
                    cur = self.slab[cur as usize].next;
                }
                // Advance the cursor before re-placing the survivors so
                // they hash relative to the new minimum.
                self.cursor = self.slab[min_id as usize].time;
                let mut cur = head;
                while cur != NIL {
                    let next = self.slab[cur as usize].next;
                    if cur != min_id {
                        self.place(cur);
                    }
                    cur = next;
                }
                min_id
            };
            self.len -= 1;
            let (time_ns, event) = self.free_node(min_id);
            self.cursor = time_ns;
            let time = SimTime::from_nanos(time_ns);
            assert!(
                time >= self.last_popped,
                "event scheduled in the past: {} < {}",
                time,
                self.last_popped
            );
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
        while self.peek_time() == Some(tick) {
            let next = self.pop().expect("peeked a pending event");
            out.push(next);
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

    /// The scheduled time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut min: Option<u64> = self
            .past
            .iter()
            .map(|&id| self.slab[id as usize].time)
            .min();
        if min.is_none() {
            min = self
                .front
                .iter()
                .map(|&id| self.slab[id as usize].time)
                .min();
        }
        if min.is_none() {
            min = self.wheel_min_time();
        }
        if min.is_none() {
            min = self.overflow.first().map(|&id| self.slab[id as usize].time);
        }
        min.map(SimTime::from_nanos)
    }

    /// Minimum time across the wheel levels, without cascading: the
    /// earliest entry always lives in the lowest occupied slot of the
    /// lowest occupied level.
    fn wheel_min_time(&self) -> Option<u64> {
        let level = self.occupied.iter().position(|&occ| occ != 0)?;
        let slot = self.occupied[level].trailing_zeros() as usize;
        let mut cur = self.heads[level * SLOTS + slot];
        let mut min: Option<u64> = None;
        while cur != NIL {
            let node = &self.slab[cur as usize];
            min = Some(min.map_or(node.time, |m| m.min(node.time)));
            cur = node.next;
        }
        min
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
/// queue.pop()` pays the wheel's peek/pop bookkeeping once per event; a
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

    /// Mean events per drained tick (0 before the first tick).
    pub fn mean_batch_len(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.events as f64 / self.ticks as f64
        }
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
        // levels and slots: cascades link older-seq entries behind
        // newer ones, and the min-scan must still pop strict FIFO.
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
    fn scheduling_into_the_past_panics_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
        q.pop();
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
    fn clear_rewinds_and_keeps_capacity() {
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        for i in 0..50u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.capacity(), cap);
        // After clear, scheduling "before" the old clock is legal again.
        q.schedule(SimTime::from_nanos(1), 99);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 99)));
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
    fn clear_immediately_after_overflow_resets_cleanly() {
        let mut q = EventQueue::with_capacity(16);
        let cap = q.capacity();
        q.schedule(SimTime::from_nanos(1 << 52), 1);
        q.schedule(SimTime::from_nanos(3), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        assert_eq!(q.capacity(), cap);
        // Near-past times are schedulable again and nothing lingers
        // from the spilled entry.
        q.schedule(SimTime::from_nanos(2), 9);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), 9)));
        assert_eq!(q.pop(), None);
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
        const POP: u64 = 100; // > FRONT_CAP, so the wheel is exercised
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
    /// ties, level-crossing jumps, and overflow-distance times.
    #[test]
    fn randomized_equivalence_with_heap_model() {
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
        assert_eq!(runner.mean_batch_len(), 0.0);
        let mut seen = 0u64;
        runner.run(&mut q, |q| q, |_, _, _| seen += 1);
        assert_eq!(seen, 7);
        assert_eq!(runner.ticks(), 2);
        assert_eq!(runner.events(), 7);
        assert_eq!(runner.mean_batch_len(), 3.5);
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
