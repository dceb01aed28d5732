//! Busy-server resources: converting service demands into queueing delay.
//!
//! Several places in the model are single servers (an IO-Bond DMA engine,
//! a PMD polling core, an SSD channel) or pools of identical servers (the
//! base CPU's I/O cores). [`Resource`] and [`MultiResource`] turn a
//! sequence of (arrival time, service duration) pairs into (start,
//! completion) times under FCFS queueing, which is where contention-driven
//! latency in the reproduced figures comes from.

use crate::time::{SimDuration, SimTime};

/// A single FCFS server.
///
/// # Example
///
/// ```
/// use bmhive_sim::{Resource, SimDuration, SimTime};
///
/// let mut dma = Resource::new();
/// let job = SimDuration::from_micros(10);
/// let first = dma.serve(SimTime::ZERO, job);
/// let second = dma.serve(SimTime::ZERO, job); // queues behind the first
/// assert_eq!(first.end, SimTime::from_micros(10));
/// assert_eq!(second.start, SimTime::from_micros(10));
/// assert_eq!(second.end, SimTime::from_micros(20));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Resource {
    free_at: SimTime,
    busy: SimDuration,
    served: u64,
}

/// When a job started and finished on a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// When service began (>= arrival).
    pub start: SimTime,
    /// When service completed.
    pub end: SimTime,
}

impl Served {
    /// Time spent waiting before service began.
    pub fn queue_delay(&self, arrival: SimTime) -> SimDuration {
        self.start.saturating_duration_since(arrival)
    }

    /// Total sojourn time (queueing + service).
    pub fn sojourn(&self, arrival: SimTime) -> SimDuration {
        self.end.saturating_duration_since(arrival)
    }
}

impl Resource {
    /// Creates an idle server.
    pub fn new() -> Self {
        Resource::default()
    }

    /// Serves a job arriving at `arrival` needing `service` time,
    /// returning when it started and finished. Jobs must be submitted in
    /// non-decreasing arrival order (FCFS).
    pub fn serve(&mut self, arrival: SimTime, service: SimDuration) -> Served {
        let start = arrival.max(self.free_at);
        let end = start + service;
        self.free_at = end;
        self.busy += service;
        self.served += 1;
        Served { start, end }
    }

    /// The instant the server next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total service time delivered so far.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of jobs served so far.
    pub fn jobs_served(&self) -> u64 {
        self.served
    }

    /// Utilisation over `[0, horizon]`: busy time / horizon, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn utilization(&self, horizon: SimDuration) -> f64 {
        assert!(!horizon.is_zero(), "utilization: zero horizon");
        (self.busy.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
    }
}

/// A pool of `k` identical FCFS servers (e.g. the base server's I/O
/// cores). Each arriving job takes the earliest-free server.
#[derive(Debug, Clone)]
pub struct MultiResource {
    // Only the multiset of per-server free times matters. Pools here
    // are small and fixed (NVMe queue pairs, PMD cores, I/O channels),
    // so a branch-predictable linear min-scan beats a priority queue's
    // per-op bookkeeping; `serve` and `next_free` are O(servers).
    free_at: Vec<SimTime>,
    busy: SimDuration,
    served: u64,
}

impl MultiResource {
    /// Creates a pool of `servers` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "MultiResource: need at least one server");
        MultiResource {
            free_at: vec![SimTime::ZERO; servers],
            busy: SimDuration::ZERO,
            served: 0,
        }
    }

    /// Number of servers in the pool.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Serves a job on the earliest-available server. Jobs must be
    /// submitted in non-decreasing arrival order.
    pub fn serve(&mut self, arrival: SimTime, service: SimDuration) -> Served {
        let idx = (0..self.free_at.len())
            .min_by_key(|&i| self.free_at[i])
            .expect("pool is never empty");
        let start = arrival.max(self.free_at[idx]);
        let end = start + service;
        self.free_at[idx] = end;
        self.busy += service;
        self.served += 1;
        Served { start, end }
    }

    /// When the next server comes free — the start time the next job
    /// would get. Lets admission control estimate queueing delay
    /// without consuming a server.
    pub fn next_free(&self) -> SimTime {
        *self.free_at.iter().min().expect("pool is never empty")
    }

    /// Total service time delivered across all servers.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of jobs served so far.
    pub fn jobs_served(&self) -> u64 {
        self.served
    }

    /// Pool utilisation over `[0, horizon]` (mean across servers).
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn utilization(&self, horizon: SimDuration) -> f64 {
        assert!(!horizon.is_zero(), "utilization: zero horizon");
        (self.busy.as_secs_f64() / (horizon.as_secs_f64() * self.free_at.len() as f64)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = Resource::new();
        let s = r.serve(SimTime::from_micros(5), SimDuration::from_micros(2));
        assert_eq!(s.start, SimTime::from_micros(5));
        assert_eq!(s.end, SimTime::from_micros(7));
        assert_eq!(s.queue_delay(SimTime::from_micros(5)), SimDuration::ZERO);
        assert_eq!(
            s.sojourn(SimTime::from_micros(5)),
            SimDuration::from_micros(2)
        );
    }

    #[test]
    fn busy_resource_queues_fcfs() {
        let mut r = Resource::new();
        let d = SimDuration::from_micros(10);
        let a = r.serve(SimTime::ZERO, d);
        let b = r.serve(SimTime::ZERO, d);
        let c = r.serve(SimTime::ZERO, d);
        assert_eq!(a.end, SimTime::from_micros(10));
        assert_eq!(b.start, a.end);
        assert_eq!(c.start, b.end);
        assert_eq!(c.queue_delay(SimTime::ZERO), SimDuration::from_micros(20));
        // Random traffic: no job starts before it arrives, completions
        // are ordered, and service time is conserved.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0xfcf5);
            let mut jobs: Vec<(u64, u64)> = (0..rng.range(1, 200))
                .map(|_| (rng.below(1_000_000), rng.range(1, 10_000)))
                .collect();
            jobs.sort_by_key(|&(arrival, _)| arrival);
            let mut r = Resource::new();
            let (mut last_end, mut total) = (SimTime::ZERO, SimDuration::ZERO);
            for (arrival, service) in jobs {
                let arrival = SimTime::from_nanos(arrival);
                let service = SimDuration::from_nanos(service);
                let s = r.serve(arrival, service);
                assert!(s.start >= arrival && s.end >= last_end, "seed {seed}");
                assert_eq!(s.end.duration_since(s.start), service, "seed {seed}");
                last_end = s.end;
                total += service;
            }
            assert_eq!(r.busy_time(), total, "seed {seed}");
        }
    }

    #[test]
    fn resource_tracks_busy_time_and_jobs() {
        let mut r = Resource::new();
        r.serve(SimTime::ZERO, SimDuration::from_micros(3));
        r.serve(SimTime::ZERO, SimDuration::from_micros(4));
        assert_eq!(r.busy_time(), SimDuration::from_micros(7));
        assert_eq!(r.jobs_served(), 2);
        assert_eq!(r.free_at(), SimTime::from_micros(7));
        let u = r.utilization(SimDuration::from_micros(14));
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gap_leaves_resource_idle() {
        let mut r = Resource::new();
        r.serve(SimTime::ZERO, SimDuration::from_micros(1));
        let s = r.serve(SimTime::from_micros(100), SimDuration::from_micros(1));
        assert_eq!(s.start, SimTime::from_micros(100));
    }

    #[test]
    fn multi_resource_runs_k_jobs_in_parallel() {
        let mut pool = MultiResource::new(4);
        let d = SimDuration::from_micros(10);
        let ends: Vec<SimTime> = (0..4).map(|_| pool.serve(SimTime::ZERO, d).end).collect();
        assert!(ends.iter().all(|&e| e == SimTime::from_micros(10)));
        // Fifth job queues behind one of them.
        let fifth = pool.serve(SimTime::ZERO, d);
        assert_eq!(fifth.start, SimTime::from_micros(10));
        assert_eq!(fifth.end, SimTime::from_micros(20));
        // A k-server pool is never slower than one server and never
        // faster than k ideal servers.
        for seed in 0..256 {
            let mut rng = SimRng::with_stream(seed, 0x6b5e);
            let k = rng.range(1, 8);
            let mut pool = MultiResource::new(k as usize);
            let mut single = Resource::new();
            let (mut pool_end, mut single_end, mut total) = (SimTime::ZERO, SimTime::ZERO, 0);
            for _ in 0..rng.range(1, 100) {
                let service = rng.range(1, 10_000);
                let d = SimDuration::from_nanos(service);
                pool_end = pool_end.max(pool.serve(SimTime::ZERO, d).end);
                single_end = single_end.max(single.serve(SimTime::ZERO, d).end);
                total += service;
            }
            assert!(pool_end <= single_end, "seed {seed}");
            assert!(pool_end.as_nanos() >= total / k, "seed {seed}");
        }
    }

    #[test]
    fn multi_resource_utilization() {
        let mut pool = MultiResource::new(2);
        pool.serve(SimTime::ZERO, SimDuration::from_micros(10));
        pool.serve(SimTime::ZERO, SimDuration::from_micros(10));
        let u = pool.utilization(SimDuration::from_micros(10));
        assert!((u - 1.0).abs() < 1e-12);
        assert_eq!(pool.servers(), 2);
        assert_eq!(pool.jobs_served(), 2);
        assert_eq!(pool.busy_time(), SimDuration::from_micros(20));
    }

    #[test]
    #[should_panic(expected = "need at least one server")]
    fn empty_pool_rejected() {
        MultiResource::new(0);
    }
}
