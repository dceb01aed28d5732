//! The open-loop traffic engine.
//!
//! One [`run`] drives a configured number of open-loop arrivals through
//! the vSwitch into a pool of bm-guests, each modelled as a
//! processor-sharing server (every resident request progresses at `1/n`
//! of the guest's rate). The engine owns four independent RNG streams —
//! arrivals, service demands, dispatch choices, hedging — so changing
//! one policy axis never reshuffles the randomness of another: the
//! round-robin and hedged runs of an experiment see *identical* arrival
//! times and primary service demands, which is what makes their tail
//! comparison a controlled experiment rather than two different random
//! draws.
//!
//! Request cloning follows the synchronized PS-cloning model: in
//! [`DispatchMode::Clone`] both copies of a request join both guests of
//! a fixed pair and the loser is cancelled the instant the winner
//! responds, so the pair behaves as a single PS server whose demand is
//! `min(X1, X2)` — the closed form
//! [`bmhive_workloads::openloop::ps_cloned_mean_response`] the
//! `traffic_policies` experiment validates against. Hedging
//! ([`DispatchMode::Hedge`]) is lazy cloning: the clone fires only if
//! the request is still outstanding after a p95-derived delay.

use crate::arrivals::{ArrivalModel, ArrivalProcess};
use crate::dispatch::{Dispatch, LeastLoaded, PowerOfTwo, RoundRobin, STREAM_DISPATCH};
use bmhive_cloud::vswitch::{Forwarded, PortId, VSwitch};
use bmhive_net::{MacAddr, Packet, PacketKind};
use bmhive_sim::{BatchRunner, EventQueue, Histogram, SimDuration, SimRng, SimTime};
use bmhive_telemetry as telemetry;
use bmhive_workloads::openloop::ServiceTime;

/// The RNG stream selector for per-request service demands.
pub const STREAM_SERVICE: u64 = 0x5E2C;
/// The RNG stream selector for hedging decisions and clone demands.
pub const STREAM_HEDGE: u64 = 0xC10E;

/// A named dispatch policy (constructible by the experiments without
/// trait objects in their config).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Cycle through the pool ([`RoundRobin`]).
    RoundRobin,
    /// Join the shortest queue ([`LeastLoaded`]).
    LeastLoaded,
    /// Power-of-two-choices ([`PowerOfTwo`]).
    PowerOfTwo,
}

impl Policy {
    fn build(&self) -> Box<dyn Dispatch> {
        match self {
            Policy::RoundRobin => Box::new(RoundRobin::default()),
            Policy::LeastLoaded => Box::new(LeastLoaded),
            Policy::PowerOfTwo => Box::new(PowerOfTwo),
        }
    }
}

/// How requests map onto guests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DispatchMode {
    /// One copy per request, placed by the given policy.
    Single(Policy),
    /// Synchronized 2-way cloning: guests form fixed pairs
    /// `(0,1), (2,3), …`; each request picks a pair uniformly at
    /// random (preserving Poisson arrivals per pair, which the PS
    /// closed form assumes), both copies are sent up front, and the
    /// loser is cancelled when the winner responds. Requires an even
    /// pool.
    Clone,
    /// Primary placed by `policy`; a clone fires onto the least-loaded
    /// other guest only if the request is still outstanding after
    /// `delay` (typically [`ServiceTime::p95`]).
    Hedge {
        /// Placement policy for the primary copy.
        policy: Policy,
        /// Outstanding time before the clone fires.
        delay: SimDuration,
    },
}

impl DispatchMode {
    /// Stable label used in report rows and telemetry metric names.
    pub fn label(&self) -> &'static str {
        self.names().0
    }

    /// The telemetry timer recording this mode's response times:
    /// `traffic.<label>.latency`.
    pub fn latency_timer(&self) -> &'static str {
        self.names().1
    }

    fn names(&self) -> (&'static str, &'static str) {
        match *self {
            DispatchMode::Single(policy) => match policy {
                Policy::RoundRobin => ("rr", "traffic.rr.latency"),
                Policy::LeastLoaded => ("least-loaded", "traffic.least-loaded.latency"),
                Policy::PowerOfTwo => ("po2", "traffic.po2.latency"),
            },
            DispatchMode::Clone => ("clone", "traffic.clone.latency"),
            DispatchMode::Hedge { policy, .. } => match policy {
                Policy::RoundRobin => ("hedge-rr", "traffic.hedge-rr.latency"),
                Policy::LeastLoaded => ("hedge-least-loaded", "traffic.hedge-least-loaded.latency"),
                Policy::PowerOfTwo => ("hedge-po2", "traffic.hedge-po2.latency"),
            },
        }
    }
}

/// A board power-loss window applied to one guest: its server freezes
/// (resident requests make no progress, new arrivals pile up) for the
/// duration, then resumes with whatever backlog accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The victim guest index.
    pub guest: usize,
    /// When the board drops.
    pub at: SimTime,
    /// How long it stays dark.
    pub lasts: SimDuration,
}

/// One traffic run's configuration.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Number of bm-guests in the pool.
    pub guests: usize,
    /// PMD cores serving the vSwitch.
    pub pmd_cores: usize,
    /// Per-request service-demand distribution.
    pub service: ServiceTime,
    /// The arrival process.
    pub arrivals: ArrivalModel,
    /// Number of requests to offer.
    pub requests: u64,
    /// One-way client↔guest wire latency (charged each direction).
    pub net_hop: SimDuration,
    /// Dispatch mode.
    pub mode: DispatchMode,
    /// Optional board power-loss on one guest.
    pub outage: Option<Outage>,
}

/// What one traffic run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The mode label (`rr`, `po2`, `clone`, `hedge-po2`, …).
    pub label: &'static str,
    /// End-to-end response times (µs) of completed requests.
    pub latency: Histogram,
    /// Response times split by the guest that won the request.
    pub per_guest: Vec<Histogram>,
    /// Response times of requests that *arrived inside* the outage
    /// window (empty when no outage is configured).
    pub window: Histogram,
    /// Requests offered.
    pub offered: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests lost (every copy shed by the vSwitch).
    pub dropped: u64,
    /// Clone copies actually sent (eager or hedged).
    pub clones_sent: u64,
    /// Hedge timers that fired.
    pub hedge_fired: u64,
    /// Completions won by a clone copy.
    pub hedge_wins: u64,
    /// Losing copies cancelled (each exactly once).
    pub cancelled: u64,
    /// Sum of vSwitch port depths after the run — zero iff every
    /// delivered copy was completed or cancelled exactly once.
    pub residual_depth: u64,
    /// High-water mark of any port's queue depth.
    pub peak_depth: u64,
    /// Virtual time of the last event.
    pub horizon: SimTime,
}

/// Which copy of a request a job is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Primary,
    Clone,
}

#[derive(Debug)]
struct Job {
    req: usize,
    remaining: f64,
}

/// One guest as a processor-sharing server over virtual time.
#[derive(Debug)]
struct Server {
    jobs: Vec<Job>,
    last: SimTime,
    /// Bumped on every membership or freeze change; scheduled
    /// departures carry the epoch they were computed under and are
    /// ignored if it is stale (the timer wheel has no cancellation).
    epoch: u64,
    down: bool,
}

impl Server {
    fn new() -> Self {
        Server {
            jobs: Vec::new(),
            last: SimTime::ZERO,
            epoch: 0,
            down: false,
        }
    }

    /// Credits progress up to `now`: each resident job advances by
    /// `elapsed / n` of work (none while the board is down).
    fn advance(&mut self, now: SimTime) {
        let elapsed = now.saturating_duration_since(self.last).as_nanos() as f64;
        if !self.down && elapsed > 0.0 && !self.jobs.is_empty() {
            let share = elapsed / self.jobs.len() as f64;
            for job in &mut self.jobs {
                job.remaining = (job.remaining - share).max(0.0);
            }
        }
        self.last = now;
    }

    /// When the job closest to done will finish if membership holds.
    fn next_departure(&self) -> Option<SimTime> {
        if self.down || self.jobs.is_empty() {
            return None;
        }
        let min = self
            .jobs
            .iter()
            .map(|j| j.remaining)
            .fold(f64::INFINITY, f64::min);
        let dt = (min * self.jobs.len() as f64).ceil().max(0.0) as u64;
        Some(self.last + SimDuration::from_nanos(dt))
    }

    fn position_of(&self, req: usize) -> Option<usize> {
        self.jobs.iter().position(|j| j.req == req)
    }
}

/// One copy of a request.
#[derive(Debug, Clone, Copy)]
struct Replica {
    guest: usize,
    /// Joined its server (as opposed to still in flight or shed).
    in_service: bool,
    /// Shed by the vSwitch before delivery.
    lost: bool,
}

#[derive(Debug)]
struct ReqState {
    arrival: SimTime,
    done: bool,
    primary: Replica,
    clone: Option<Replica>,
    /// Copies sent and not yet resolved (departed, cancelled, or shed).
    /// The slot is recycled only once this hits zero after `done`, so a
    /// pending Join always refers to a live request.
    outstanding: u32,
    /// Bumped when the slot is recycled; hedge timers carry the epoch
    /// they were armed under and are ignored if it is stale (the timer
    /// wheel has no cancellation).
    epoch: u64,
}

#[derive(Debug)]
enum Ev {
    Arrival,
    Join {
        req: usize,
        guest: usize,
        role: Role,
        demand: f64,
    },
    Depart {
        guest: usize,
        epoch: u64,
    },
    HedgeFire {
        req: usize,
        epoch: u64,
    },
    OutageStart,
    OutageEnd,
}

fn guest_port(guest: usize) -> PortId {
    PortId(guest as u32 + 1)
}

fn guest_mac(guest: usize) -> MacAddr {
    MacAddr::for_guest(guest as u32 + 1)
}

/// The (unattached) client-side MAC requests originate from.
fn client_mac() -> MacAddr {
    MacAddr::for_guest(0x7FFF)
}

struct Engine<'a> {
    cfg: &'a TrafficConfig,
    queue: EventQueue<Ev>,
    sw: VSwitch,
    servers: Vec<Server>,
    reqs: Vec<ReqState>,
    policy: Box<dyn Dispatch>,
    svc_rng: SimRng,
    dispatch_rng: SimRng,
    hedge_rng: SimRng,
    arrivals: ArrivalProcess,
    report: RunReport,
    traced: bool,
    /// Recycled `reqs` slots; keeps the live table at peak-concurrency
    /// size instead of one entry per offered request.
    free_reqs: Vec<usize>,
    /// Reused per-dispatch snapshot of port depths.
    depths_scratch: Vec<u64>,
}

impl Engine<'_> {
    fn refresh_depths(&mut self) {
        let mut depths = std::mem::take(&mut self.depths_scratch);
        depths.clear();
        depths.extend((0..self.cfg.guests).map(|g| self.sw.queue_depth(guest_port(g))));
        self.depths_scratch = depths;
    }

    /// Claims a request slot, reusing a settled one when available.
    fn alloc_req(&mut self, now: SimTime) -> usize {
        let blank = Replica {
            guest: 0,
            in_service: false,
            lost: true,
        };
        match self.free_reqs.pop() {
            Some(req) => {
                let r = &mut self.reqs[req];
                r.arrival = now;
                r.done = false;
                r.primary = blank;
                r.clone = None;
                r.outstanding = 0;
                req
            }
            None => {
                self.reqs.push(ReqState {
                    arrival: now,
                    done: false,
                    primary: blank,
                    clone: None,
                    outstanding: 0,
                    epoch: 0,
                });
                self.reqs.len() - 1
            }
        }
    }

    /// Returns a fully settled slot (done, no copy in flight or in
    /// service) to the free list, invalidating any hedge timer still
    /// pointing at it.
    fn release_if_settled(&mut self, req: usize) {
        let r = &mut self.reqs[req];
        if r.done && r.outstanding == 0 {
            r.epoch += 1;
            self.free_reqs.push(req);
        }
    }

    /// Sends one copy toward `guest`, scheduling its Join on delivery.
    /// Returns whether the copy survived the switch.
    fn send_copy(
        &mut self,
        req: usize,
        guest: usize,
        role: Role,
        demand: f64,
        now: SimTime,
    ) -> bool {
        let packet = Packet::new(
            client_mac(),
            guest_mac(guest),
            PacketKind::Udp,
            64,
            req as u64,
        );
        match self.sw.forward(&packet, now) {
            Forwarded::Local(_, delivered) => {
                self.reqs[req].outstanding += 1;
                self.queue.schedule(
                    delivered + self.cfg.net_hop,
                    Ev::Join {
                        req,
                        guest,
                        role,
                        demand,
                    },
                );
                true
            }
            Forwarded::Uplink(_) => unreachable!("traffic guests are always attached"),
            Forwarded::Dropped => false,
        }
    }

    fn on_arrival(&mut self, now: SimTime) {
        let req = self.alloc_req(now);
        self.report.offered += 1;
        if self.traced {
            telemetry::counter("traffic.requests", 1);
        }
        if self.report.offered < self.cfg.requests {
            let next = self.arrivals.next_after(now);
            self.queue.schedule(next, Ev::Arrival);
        }
        let demand = self.cfg.service.sample(&mut self.svc_rng).as_nanos() as f64;
        match self.cfg.mode {
            DispatchMode::Single(_) => {
                self.refresh_depths();
                let guest = self
                    .policy
                    .pick(&self.depths_scratch, &mut self.dispatch_rng);
                let ok = self.send_copy(req, guest, Role::Primary, demand, now);
                let r = &mut self.reqs[req];
                r.done = !ok;
                r.primary = Replica {
                    guest,
                    in_service: false,
                    lost: !ok,
                };
                if !ok {
                    self.count_drop();
                    self.release_if_settled(req);
                }
            }
            DispatchMode::Clone => {
                // Both demands come off the service stream at arrival,
                // keeping later draws aligned across modes.
                let clone_demand = self.cfg.service.sample(&mut self.svc_rng).as_nanos() as f64;
                // Uniform pair choice: a round-robin split would thin
                // the Poisson stream into Erlang inter-arrivals and
                // undershoot the M/G/1-PS closed form.
                let pair = self.dispatch_rng.below(self.cfg.guests as u64 / 2) as usize;
                let (a, b) = (2 * pair, 2 * pair + 1);
                let ok_a = self.send_copy(req, a, Role::Primary, demand, now);
                let ok_b = self.send_copy(req, b, Role::Clone, clone_demand, now);
                self.report.clones_sent += 1;
                let r = &mut self.reqs[req];
                r.done = !ok_a && !ok_b;
                r.primary = Replica {
                    guest: a,
                    in_service: false,
                    lost: !ok_a,
                };
                r.clone = Some(Replica {
                    guest: b,
                    in_service: false,
                    lost: !ok_b,
                });
                if !ok_a && !ok_b {
                    self.count_drop();
                    self.release_if_settled(req);
                }
            }
            DispatchMode::Hedge { delay, .. } => {
                self.refresh_depths();
                let guest = self
                    .policy
                    .pick(&self.depths_scratch, &mut self.dispatch_rng);
                let ok = self.send_copy(req, guest, Role::Primary, demand, now);
                let r = &mut self.reqs[req];
                r.done = !ok;
                r.primary = Replica {
                    guest,
                    in_service: false,
                    lost: !ok,
                };
                if !ok {
                    self.count_drop();
                    self.release_if_settled(req);
                } else {
                    let epoch = self.reqs[req].epoch;
                    self.queue
                        .schedule(now + delay, Ev::HedgeFire { req, epoch });
                }
            }
        }
    }

    fn count_drop(&mut self) {
        self.report.dropped += 1;
        if self.traced {
            telemetry::counter("traffic.dropped", 1);
        }
    }

    fn on_join(&mut self, req: usize, guest: usize, role: Role, demand: f64, now: SimTime) {
        if self.reqs[req].done {
            // The other copy already responded (or the request was
            // dropped): this copy is cancelled before ever entering
            // service. Release its queue slot exactly once here.
            self.sw.complete(guest_port(guest));
            self.count_cancel();
            self.reqs[req].outstanding -= 1;
            self.release_if_settled(req);
            return;
        }
        match role {
            Role::Primary => self.reqs[req].primary.in_service = true,
            Role::Clone => {
                if let Some(c) = self.reqs[req].clone.as_mut() {
                    c.in_service = true;
                }
            }
        }
        let server = &mut self.servers[guest];
        server.advance(now);
        server.jobs.push(Job {
            req,
            remaining: demand,
        });
        server.epoch += 1;
        self.reschedule(guest);
    }

    fn count_cancel(&mut self) {
        self.report.cancelled += 1;
        if self.traced {
            telemetry::counter("traffic.hedge_cancelled", 1);
        }
    }

    fn reschedule(&mut self, guest: usize) {
        if let Some(at) = self.servers[guest].next_departure() {
            self.queue.schedule(
                at,
                Ev::Depart {
                    guest,
                    epoch: self.servers[guest].epoch,
                },
            );
        }
    }

    fn on_depart(&mut self, guest: usize, epoch: u64, now: SimTime) {
        if self.servers[guest].epoch != epoch {
            return;
        }
        let server = &mut self.servers[guest];
        server.advance(now);
        // The departing job is the one closest to done.
        let mut idx = 0;
        for (i, job) in server.jobs.iter().enumerate() {
            if job.remaining < server.jobs[idx].remaining {
                idx = i;
            }
        }
        let job = server.jobs.swap_remove(idx);
        server.epoch += 1;
        self.reschedule(guest);
        self.complete(job.req, guest, now);
    }

    /// The winner's response reaches the client; record it and cancel
    /// the losing copy if one is still alive.
    fn complete(&mut self, req: usize, winner_guest: usize, now: SimTime) {
        let arrival = self.reqs[req].arrival;
        let (winner_role, loser) = {
            let r = &self.reqs[req];
            if r.primary.guest == winner_guest && !r.primary.lost {
                (Role::Primary, r.clone)
            } else {
                (Role::Clone, Some(r.primary))
            }
        };
        self.reqs[req].done = true;
        self.reqs[req].outstanding -= 1;
        self.sw.complete(guest_port(winner_guest));
        let response = (now + self.cfg.net_hop).duration_since(arrival);
        self.report.completed += 1;
        self.report.latency.record_duration(response);
        self.report.per_guest[winner_guest].record_duration(response);
        if let Some(o) = &self.cfg.outage {
            if arrival >= o.at && arrival < o.at + o.lasts {
                self.report.window.record_duration(response);
            }
        }
        if winner_role == Role::Clone {
            self.report.hedge_wins += 1;
        }
        if self.traced {
            telemetry::timer(self.cfg.mode.latency_timer(), response);
        }
        // Cancel the loser: if it is in service, pull it out of its
        // server now; if its Join is still in flight, the Join handler
        // will see `done` and release the slot instead. Either way the
        // copy is completed exactly once.
        if let Some(l) = loser {
            if !l.lost && l.in_service {
                let server = &mut self.servers[l.guest];
                server.advance(now);
                if let Some(pos) = server.position_of(req) {
                    server.jobs.swap_remove(pos);
                    server.epoch += 1;
                    self.sw.complete(guest_port(l.guest));
                    self.count_cancel();
                    self.reqs[req].outstanding -= 1;
                    self.reschedule(l.guest);
                }
            }
        }
        self.release_if_settled(req);
    }

    fn on_hedge_fire(&mut self, req: usize, epoch: u64, now: SimTime) {
        // A stale epoch means the slot was recycled by a newer request
        // after this timer was armed; `done` catches the narrower case
        // where the original request finished but its slot still waits
        // on an in-flight loser.
        if self.reqs[req].epoch != epoch || self.reqs[req].done {
            return;
        }
        self.report.hedge_fired += 1;
        if self.traced {
            telemetry::counter("traffic.hedge_fired", 1);
        }
        let primary = self.reqs[req].primary.guest;
        self.refresh_depths();
        let guest = self
            .policy
            .pick_clone(primary, &self.depths_scratch, &mut self.hedge_rng);
        let demand = self.cfg.service.sample(&mut self.hedge_rng).as_nanos() as f64;
        let ok = self.send_copy(req, guest, Role::Clone, demand, now);
        if ok {
            self.report.clones_sent += 1;
            self.reqs[req].clone = Some(Replica {
                guest,
                in_service: false,
                lost: false,
            });
        }
    }

    fn on_outage(&mut self, start: bool, now: SimTime) {
        let Some(o) = self.cfg.outage else { return };
        let server = &mut self.servers[o.guest];
        server.advance(now);
        server.down = start;
        server.epoch += 1;
        if !start {
            self.reschedule(o.guest);
        }
    }
}

/// Runs one open-loop traffic cell and returns its report.
///
/// # Panics
///
/// Panics if the pool is empty, if [`DispatchMode::Clone`] is used with
/// an odd pool, or if a cloning/hedging mode is used with fewer than
/// two guests.
pub fn run(cfg: &TrafficConfig, seed: u64) -> RunReport {
    run_impl(cfg, seed, true)
}

fn run_impl(cfg: &TrafficConfig, seed: u64, batched: bool) -> RunReport {
    assert!(cfg.guests > 0, "traffic: empty guest pool");
    assert!(cfg.requests > 0, "traffic: zero requests");
    match cfg.mode {
        DispatchMode::Clone => {
            assert!(
                cfg.guests >= 2 && cfg.guests.is_multiple_of(2),
                "clone mode needs an even pool"
            );
        }
        DispatchMode::Hedge { .. } => {
            assert!(cfg.guests >= 2, "hedging needs at least two guests");
        }
        DispatchMode::Single(_) => {}
    }
    if let Some(o) = &cfg.outage {
        assert!(o.guest < cfg.guests, "outage guest out of range");
    }

    let mut sw = VSwitch::new(cfg.pmd_cores);
    for g in 0..cfg.guests {
        sw.attach(guest_mac(g), guest_port(g));
    }
    let policy = match cfg.mode {
        DispatchMode::Single(p) | DispatchMode::Hedge { policy: p, .. } => p.build(),
        // Clone mode pairs are fixed; the policy object is unused.
        DispatchMode::Clone => Policy::RoundRobin.build(),
    };
    let mut engine = Engine {
        cfg,
        queue: EventQueue::new(),
        sw,
        servers: (0..cfg.guests).map(|_| Server::new()).collect(),
        // Slot recycling keeps this at peak concurrency, not one entry
        // per offered request.
        reqs: Vec::new(),
        policy,
        svc_rng: SimRng::with_stream(seed, STREAM_SERVICE),
        dispatch_rng: SimRng::with_stream(seed, STREAM_DISPATCH),
        hedge_rng: SimRng::with_stream(seed, STREAM_HEDGE),
        arrivals: ArrivalProcess::new(cfg.arrivals, seed),
        report: RunReport {
            label: cfg.mode.label(),
            latency: Histogram::new(),
            per_guest: (0..cfg.guests).map(|_| Histogram::new()).collect(),
            window: Histogram::new(),
            offered: 0,
            completed: 0,
            dropped: 0,
            clones_sent: 0,
            hedge_fired: 0,
            hedge_wins: 0,
            cancelled: 0,
            residual_depth: 0,
            peak_depth: 0,
            horizon: SimTime::ZERO,
        },
        traced: telemetry::is_enabled(),
        free_reqs: Vec::new(),
        depths_scratch: Vec::new(),
    };

    if let Some(o) = &cfg.outage {
        engine.queue.schedule(o.at, Ev::OutageStart);
        engine.queue.schedule(o.at + o.lasts, Ev::OutageEnd);
    }
    let first = engine.arrivals.next_after(SimTime::ZERO);
    engine.queue.schedule(first, Ev::Arrival);

    let mut horizon = SimTime::ZERO;
    // The BatchRunner drains whole ticks at a time through its reused
    // scratch; same-tick events scheduled mid-batch arrive in the next
    // batch, exactly where a pop-per-event loop would deliver them (the
    // batch-vs-single property test pins this end to end).
    let mut runner: BatchRunner<Ev> = BatchRunner::new();
    let mut handler = |e: &mut Engine, now: SimTime, ev: Ev| {
        horizon = now;
        match ev {
            Ev::Arrival => e.on_arrival(now),
            Ev::Join {
                req,
                guest,
                role,
                demand,
            } => e.on_join(req, guest, role, demand, now),
            Ev::Depart { guest, epoch } => e.on_depart(guest, epoch, now),
            Ev::HedgeFire { req, epoch } => e.on_hedge_fire(req, epoch, now),
            Ev::OutageStart => e.on_outage(true, now),
            Ev::OutageEnd => e.on_outage(false, now),
        }
    };
    if batched {
        runner.run(&mut engine, |e| &mut e.queue, &mut handler);
    } else {
        while let Some((now, ev)) = engine.queue.pop() {
            handler(&mut engine, now, ev);
        }
    }

    let mut report = engine.report;
    report.horizon = horizon;
    report.residual_depth = (0..cfg.guests)
        .map(|g| engine.sw.queue_depth(guest_port(g)))
        .sum();
    report.peak_depth = engine.sw.peak_port_depth();
    if engine.traced {
        telemetry::add_events(report.completed);
        // Batch-efficiency meters: how many ticks the runner drained
        // and how many events rode them (mean batch length =
        // events / ticks), plus the doorbells the polling PMD never
        // had to take. The single-pop reference arm has no runner, so
        // it emits nothing here — the one sanctioned trace difference.
        if batched {
            telemetry::counter("sim.batch_ticks", runner.ticks());
            telemetry::counter("sim.batch_events", runner.events());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_faults as faults;
    use bmhive_workloads::openloop::{ps_cloned_mean_response, ps_mean_response};

    /// The one-pop-at-a-time twin of [`run`]: identical configuration,
    /// RNG streams, and event order, but driven by `queue.pop()` instead
    /// of the [`BatchRunner`]. The reference arm of the batch-vs-single
    /// equivalence test below — reports and traces must come out
    /// byte-identical (minus the `sim.batch_*` meters only the batched
    /// driver emits).
    fn run_single_pop(cfg: &TrafficConfig, seed: u64) -> RunReport {
        run_impl(cfg, seed, false)
    }

    fn base(mode: DispatchMode, guests: usize, rate_rps: f64, requests: u64) -> TrafficConfig {
        TrafficConfig {
            guests,
            pmd_cores: 2,
            service: ServiceTime::web_tier(),
            arrivals: ArrivalModel::Poisson { rate_rps },
            requests,
            net_hop: SimDuration::from_micros(2),
            mode,
            outage: None,
        }
    }

    /// Client↔guest constant outside the PS server: one switch
    /// traversal plus the wire both ways.
    fn net_const(cfg: &TrafficConfig) -> SimDuration {
        VSwitch::PER_PACKET + cfg.net_hop + cfg.net_hop
    }

    #[test]
    fn single_server_matches_the_ps_closed_form() {
        // 1 guest at rho = 0.5: E[T] = 100us / 0.5 = 200us plus the
        // network constant.
        let cfg = base(DispatchMode::Single(Policy::RoundRobin), 1, 5_000.0, 30_000);
        let report = run(&cfg, 42);
        assert_eq!(report.completed, cfg.requests);
        assert_eq!(report.residual_depth, 0);
        let expected =
            (ps_mean_response(cfg.service.mean(), 0.5) + net_const(&cfg)).as_micros_f64();
        let mean = report.latency.mean();
        let err = (mean - expected).abs() / expected;
        assert!(err < 0.10, "PS mean {mean:.1}us vs model {expected:.1}us");
    }

    #[test]
    fn cloning_matches_the_ps_cloning_closed_form() {
        // A single pair at per-server rho = 0.25 (pair rate = 2 * 0.25
        // / 100us = 5000 rps): E[T] = 50us / 0.75 ~ 66.7us + network.
        let cfg = base(DispatchMode::Clone, 2, 5_000.0, 30_000);
        let report = run(&cfg, 42);
        assert_eq!(report.completed, cfg.requests);
        assert_eq!(report.clones_sent, cfg.requests);
        assert_eq!(report.residual_depth, 0);
        // Every completion cancels its losing copy exactly once.
        assert_eq!(report.cancelled, report.completed - report.dropped);
        let expected =
            (ps_cloned_mean_response(&cfg.service, 0.25) + net_const(&cfg)).as_micros_f64();
        let mean = report.latency.mean();
        let err = (mean - expected).abs() / expected;
        assert!(
            err < 0.10,
            "cloned mean {mean:.1}us vs model {expected:.1}us"
        );
    }

    #[test]
    fn hedged_requests_cancel_the_loser_exactly_once() {
        // Deterministic 100us demands with a 10us hedge delay: every
        // request hedges, the primary (a 90us head start) always wins,
        // and every clone is cancelled exactly once.
        let mut cfg = base(
            DispatchMode::Hedge {
                policy: Policy::RoundRobin,
                delay: SimDuration::from_micros(10),
            },
            2,
            1_000.0,
            2_000,
        );
        cfg.service = ServiceTime::Deterministic {
            value: SimDuration::from_micros(100),
        };
        let report = run(&cfg, 7);
        assert_eq!(report.completed, cfg.requests);
        assert_eq!(report.hedge_fired, cfg.requests);
        assert_eq!(report.clones_sent, cfg.requests);
        assert_eq!(report.cancelled, cfg.requests, "one cancellation per clone");
        assert_eq!(report.hedge_wins, 0, "the head start always wins");
        assert_eq!(report.residual_depth, 0, "no double-completion");
    }

    #[test]
    fn hedging_with_random_demands_keeps_the_books_balanced() {
        let cfg = base(
            DispatchMode::Hedge {
                policy: Policy::PowerOfTwo,
                delay: ServiceTime::web_tier().p95(),
            },
            4,
            12_000.0,
            20_000,
        );
        let report = run(&cfg, 3);
        assert_eq!(report.completed, cfg.requests);
        assert!(report.hedge_fired > 0, "p95 hedges must fire sometimes");
        // Roughly the slowest ~10% should hedge at moderate load.
        assert!(
            report.hedge_fired < cfg.requests / 4,
            "hedges {} of {}",
            report.hedge_fired,
            cfg.requests
        );
        assert!(report.hedge_wins > 0, "some clones beat a slow primary");
        assert_eq!(report.cancelled, report.clones_sent);
        assert_eq!(report.residual_depth, 0);
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let cfg = base(DispatchMode::Single(Policy::PowerOfTwo), 4, 20_000.0, 5_000);
        let a = run(&cfg, 9);
        let b = run(&cfg, 9);
        let c = run(&cfg, 10);
        assert_eq!(a.latency.percentile(99.0), b.latency.percentile(99.0));
        assert_eq!(a.horizon, b.horizon);
        assert_eq!(a.completed, b.completed);
        assert_ne!(
            (a.horizon, a.latency.percentile(99.0)),
            (c.horizon, c.latency.percentile(99.0)),
        );
    }

    #[test]
    fn outage_freezes_only_the_victim() {
        let outage = Outage {
            guest: 0,
            at: SimTime::from_millis(5),
            lasts: SimDuration::from_millis(15),
        };
        let mut cfg = base(DispatchMode::Single(Policy::RoundRobin), 4, 22_000.0, 6_000);
        let clean = run(&cfg, 5);
        cfg.outage = Some(outage);
        let faulted = run(&cfg, 5);
        assert_eq!(
            faulted.completed, cfg.requests,
            "outage delays, never loses"
        );
        assert_eq!(faulted.residual_depth, 0);
        assert!(faulted.window.count() > 0);
        // Open loop + round-robin: the neighbours' event streams are
        // identical with and without the outage.
        for g in 1..4 {
            assert_eq!(
                clean.per_guest[g].percentile(99.0),
                faulted.per_guest[g].percentile(99.0),
                "guest {g} perturbed by neighbour outage"
            );
        }
        // The victim's fault-window tail dwarfs the clean tail: a
        // request caught by the 15 ms outage waits most of it out.
        assert!(
            faulted.window.percentile(99.0) > 5_000.0,
            "window p99 {}us",
            faulted.window.percentile(99.0)
        );
        assert!(
            clean.latency.percentile(99.0) < 5_000.0,
            "clean p99 {}us",
            clean.latency.percentile(99.0)
        );
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(DispatchMode::Clone.label(), "clone");
        // Each timer name is `traffic.<label>.latency`, policy names
        // included.
        for (policy, single, hedged) in [
            (Policy::RoundRobin, "rr", "hedge-rr"),
            (Policy::LeastLoaded, "least-loaded", "hedge-least-loaded"),
            (Policy::PowerOfTwo, "po2", "hedge-po2"),
        ] {
            let hedge = DispatchMode::Hedge {
                policy,
                delay: SimDuration::from_micros(1),
            };
            assert_eq!(DispatchMode::Single(policy).label(), single);
            assert_eq!(hedge.label(), hedged);
            for mode in [DispatchMode::Single(policy), DispatchMode::Clone, hedge] {
                assert_eq!(
                    mode.latency_timer(),
                    format!("traffic.{}.latency", mode.label())
                );
            }
        }
    }

    // Batch-vs-single equivalence, pinned end to end: a traffic cell
    // driven by the `BatchRunner` (whole-tick drains through a reused
    // scratch) must produce byte-identical reports and traces to the
    // same cell driven one `pop()` at a time — across seeds, dispatch
    // modes, an outage, and every canned fault plan. Batching is a
    // *driver* optimization, invisible to the simulation. The only
    // sanctioned trace difference is the pair of `sim.batch_*` meter
    // counters that describe the batched driver itself, which the
    // comparison strips.

    /// Everything one traced run produced, rendered to comparable strings:
    /// the full report (Debug includes every histogram bucket), the span
    /// trace, and the metrics registry minus the batch-driver meters.
    struct Observed {
        report: String,
        spans: String,
        registry: String,
    }

    fn observe(f: impl FnOnce() -> RunReport) -> Observed {
        telemetry::set_enabled(true);
        telemetry::reset();
        let report = f();
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::reset();
        let registry = snap
            .registry
            .to_text()
            .lines()
            .filter(|line| !line.contains("sim.batch_"))
            .collect::<Vec<_>>()
            .join("\n");
        Observed {
            report: format!("{report:?}"),
            spans: telemetry::export::chrome_trace(&snap.events),
            registry,
        }
    }

    fn configs() -> Vec<TrafficConfig> {
        vec![
            TrafficConfig {
                guests: 4,
                pmd_cores: 2,
                service: ServiceTime::web_tier(),
                arrivals: ArrivalModel::Poisson { rate_rps: 8_000.0 },
                requests: 2_000,
                net_hop: SimDuration::from_micros(2),
                mode: DispatchMode::Single(Policy::RoundRobin),
                outage: Some(Outage {
                    guest: 1,
                    at: SimTime::from_micros(20_000),
                    lasts: SimDuration::from_micros(30_000),
                }),
            },
            TrafficConfig {
                guests: 4,
                pmd_cores: 2,
                service: ServiceTime::web_tier(),
                arrivals: ArrivalModel::Poisson { rate_rps: 8_000.0 },
                requests: 2_000,
                net_hop: SimDuration::from_micros(2),
                mode: DispatchMode::Hedge {
                    policy: Policy::PowerOfTwo,
                    delay: SimDuration::from_micros(400),
                },
                outage: None,
            },
        ]
    }

    #[test]
    fn clone_dispatch_counts_one_brownout_injection_per_degraded_frame() {
        // Clone mode sends two frames per request through the vSwitch.
        // Inside the backend-brownout window every frame pays the
        // inflated per-packet cost, so the injection count must equal
        // the degraded-frame count, not the request count.
        let cfg = base(DispatchMode::Clone, 4, 400_000.0, 400);
        faults::arm(faults::canned("backend-brownout").expect("canned plan"), 1);
        let report = run(&cfg, 1);
        let stats = faults::disarm().expect("armed");
        let injected = stats.injected(faults::FaultSite::VSwitch, faults::FaultKind::Brownout);
        let extra_per_frame = VSwitch::PER_PACKET.mul_f64(6.0) - VSwitch::PER_PACKET;
        let degraded_ns = stats.site(faults::FaultSite::VSwitch).degraded_ns;
        let degraded_frames = degraded_ns / extra_per_frame.as_nanos();
        assert_eq!(degraded_ns % extra_per_frame.as_nanos(), 0);
        assert!(injected > 2, "the run must cross the brownout window");
        assert_eq!(injected, degraded_frames);
        assert_eq!(report.clones_sent, report.offered);
    }

    #[test]
    fn batched_and_single_pop_runs_are_byte_identical() {
        // Clean plus every canned fault plan, four seeds each.
        let plans: Vec<Option<&str>> = std::iter::once(None)
            .chain(faults::CANNED_PLAN_NAMES.iter().copied().map(Some))
            .collect();
        for cfg in &configs() {
            for &plan in &plans {
                for seed in [1u64, 7, 42, 9001] {
                    let arm = |mode: &str| {
                        if let Some(name) = plan {
                            faults::arm(faults::canned(name).expect("canned plan"), seed);
                            let _ = mode;
                        }
                    };
                    arm("batched");
                    let batched = observe(|| run(cfg, seed));
                    if plan.is_some() {
                        faults::disarm();
                    }
                    arm("single");
                    let single = observe(|| run_single_pop(cfg, seed));
                    if plan.is_some() {
                        faults::disarm();
                    }

                    let label = format!("cfg {:?} plan {plan:?} seed {seed}", cfg.mode);
                    assert_eq!(batched.report, single.report, "report diverged: {label}");
                    assert_eq!(batched.spans, single.spans, "spans diverged: {label}");
                    assert_eq!(
                        batched.registry, single.registry,
                        "registry diverged: {label}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_run_emits_the_batch_meters_single_pop_does_not() {
        let cfg = &configs()[0];
        telemetry::set_enabled(true);
        telemetry::reset();
        let _ = run(cfg, 1);
        let snap = telemetry::snapshot();
        assert!(snap.registry.counter("sim.batch_ticks") > 0);
        assert!(snap.registry.counter("sim.batch_events") > 0);
        telemetry::reset();
        let _ = run_single_pop(cfg, 1);
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::reset();
        assert_eq!(snap.registry.counter("sim.batch_ticks"), 0);
        assert_eq!(snap.registry.counter("sim.batch_events"), 0);
    }
}
