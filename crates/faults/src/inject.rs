//! The scoped, per-run fault injector.
//!
//! [`arm`] installs a fault context in thread-local storage and
//! [`disarm`] removes it: arming a plan affects exactly the thread
//! (sweep cell, test, experiment) that armed it, so parallel runs of the
//! simulator never observe each other's plans. A cheap thread-local armed flag
//! guards the context, so unarmed runs pay one `Cell` load per
//! injection site and observe *identical* latency to a build without
//! the faults crate. Arming installs a [`FaultPlan`] plus a dedicated
//! RNG stream forked from the run seed; every retry-backoff draw comes
//! from that stream, never from caller RNGs, so arming a plan perturbs
//! only the faulted operations — and because the whole context is
//! per-thread, a cell's fault behaviour is a pure function of
//! `(plan, seed)` no matter how many sibling cells run concurrently.
//!
//! Call sites ask three questions, each scoped to a [`FaultSite`]:
//!
//! * [`blocking_until`] — is a *blocking* window fault (link flap, DMA
//!   timeout, mailbox stall) covering `now`, and until when?
//! * [`latency_factor`] — what latency multiplier do active spike /
//!   brownout windows impose?
//! * [`corrupted`] / [`take_oneshot`] — is this descriptor fetch
//!   corrupted; did this doorbell / power-loss event fire?
//!
//! Recovery is paced by [`retry_until_clear`], which simulates bounded
//! exponential backoff against the plan's windows and records the
//! outcome in [`FaultStats`] and the telemetry stream (component
//! `"faults"`).

use std::cell::{Cell, RefCell};
use std::fmt::{self, Write as _};

use bmhive_sim::{SimDuration, SimRng, SimTime};
use bmhive_telemetry as telemetry;
use bmhive_telemetry::export::json_escape;

use crate::plan::{FaultKind, FaultPlan, FaultSite};
use crate::retry;

/// Telemetry component name for all fault/recovery spans.
pub const COMPONENT: &str = "faults";

thread_local! {
    /// Fast-path flag mirroring whether `CONTEXT` holds a plan. Kept
    /// separate so `is_armed()` never touches the `RefCell`.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static CONTEXT: RefCell<Option<FaultContext>> = const { RefCell::new(None) };
}

/// Runs `f` against the armed context, or returns `default` when no
/// plan is armed on this thread.
fn with_context<R>(default: R, f: impl FnOnce(&mut FaultContext) -> R) -> R {
    CONTEXT.with(|ctx| match ctx.borrow_mut().as_mut() {
        Some(inner) => f(inner),
        None => default,
    })
}

/// One run's worth of fault-injection state: the plan, the backoff RNG
/// stream, one-shot consumption flags, and accumulated [`FaultStats`].
///
/// A context is installed into thread-local storage with [`arm`] and
/// removed with [`disarm`]. Because the handle is per-thread, a
/// parallel sweep arms one context per worker and cells stay
/// byte-identical to their serial runs.
#[derive(Debug, Clone)]
struct FaultContext {
    plan: FaultPlan,
    rng: SimRng,
    /// One flag per plan event; one-shot kinds flip it when they fire.
    consumed: Vec<bool>,
    stats: FaultStats,
}

impl FaultContext {
    /// Builds a fresh context for `plan`, seeding backoff jitter from
    /// `seed`.
    fn new(plan: FaultPlan, seed: u64) -> Self {
        let consumed = vec![false; plan.events().len()];
        let stats = FaultStats {
            plan: plan.name.clone(),
            ..FaultStats::default()
        };
        FaultContext {
            plan,
            // A dedicated stream: arming must not disturb the streams
            // the workload itself forks from the same seed.
            rng: SimRng::with_stream(seed, 0xFA17),
            consumed,
            stats,
        }
    }

    /// Latest end time over blocking windows at `site` covering
    /// `probe`, without chaining.
    fn covering_blocking_until(&self, site: FaultSite, probe: SimTime) -> Option<SimTime> {
        self.plan
            .events()
            .iter()
            .filter(|ev| ev.site == site && ev.covers(probe) && ev.kind.is_blocking())
            .map(|ev| ev.until())
            .max()
    }

    /// When the stall starting at `now` clears, under worst-of
    /// semantics: overlapping blocking windows at the same site hand
    /// the stall off to whichever covering window ends last, repeated
    /// to a fixed point. The loop terminates because each step
    /// strictly advances `until` and the plan is finite.
    fn blocking_window_until(&self, site: FaultSite, now: SimTime) -> Option<SimTime> {
        let mut until = self.covering_blocking_until(site, now)?;
        while let Some(next) = self.covering_blocking_until(site, until) {
            if next <= until {
                break;
            }
            until = next;
        }
        Some(until)
    }
}

/// Outcome of a bounded-backoff recovery loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Whether the operation eventually went through. `false` means the
    /// retry budget was exhausted and the caller must escalate
    /// (device path: mark needs-reset and re-handshake).
    pub recovered: bool,
    /// Retry attempts consumed (0 if the first re-check succeeded).
    pub attempts: u32,
    /// Total virtual time spent waiting (backoff delays + re-attempt
    /// costs). The caller adds this to its operation latency.
    pub waited: SimDuration,
}

impl Recovery {
    /// An immediate success: nothing was blocking.
    pub const CLEAR: Recovery = Recovery {
        recovered: true,
        attempts: 0,
        waited: SimDuration::ZERO,
    };
}

/// What a plan did at one site: the recovery side of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Backoff retries spent.
    pub retries: u64,
    /// Retry loops that cleared.
    pub recovered: u64,
    /// Retry budgets exhausted → escalated to reset.
    pub escalated: u64,
    /// Escalations resolved by reset + re-handshake.
    pub resets: u64,
    /// Inflight chains replayed after a reset.
    pub replayed: u64,
    /// Operations shed under brownout (graceful degradation).
    pub shed: u64,
    /// Extra latency absorbed without retries (ns).
    pub degraded_ns: u64,
}

impl SiteStats {
    fn add(&mut self, other: &SiteStats) {
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.escalated += other.escalated;
        self.resets += other.resets;
        self.replayed += other.replayed;
        self.shed += other.shed;
        self.degraded_ns += other.degraded_ns;
    }
}

/// Deterministic counters describing what a plan did to a run.
///
/// Each counter is a slot indexed by [`FaultSite`], [`FaultKind`] or
/// [`RetryOp`] and bumped in place, so recording never allocates. Names
/// appear only in [`FaultStats::to_text`] and [`FaultStats::to_json`],
/// which walk them in name order and skip zeros: the fault-matrix CI
/// job compares both byte for byte across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    plan: String,
    injected: [[u64; FaultKind::ALL.len()]; FaultSite::ALL.len()],
    sites: [SiteStats; FaultSite::ALL.len()],
    escalated_ops: [u64; RetryOp::ALL.len()],
}

/// A rendered counter's name: `site`, `site/kind` or `site/op`.
struct Key(FaultSite, Option<&'static str>);

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.name())?;
        self.1.map_or(Ok(()), |detail| write!(f, "/{detail}"))
    }
}

/// One rendered section: text title, JSON key, and each nonzero count
/// with its name, in name order.
type Section = (&'static str, &'static str, Vec<(Key, u64)>);

/// `items` sorted by `name`: the order every rendering walks.
fn by_name<T: Copy, const N: usize>(mut items: [T; N], name: fn(T) -> &'static str) -> [T; N] {
    items.sort_by_key(|&item| name(item));
    items
}

impl FaultStats {
    /// Operations a `kind` fault affected at `site`.
    pub fn injected(&self, site: FaultSite, kind: FaultKind) -> u64 {
        self.injected[site as usize][kind as usize]
    }

    /// Total operations affected by any fault.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().flatten().sum()
    }

    /// The recovery counters at `site`.
    pub fn site(&self, site: FaultSite) -> SiteStats {
        self.sites[site as usize]
    }

    /// Escalations attributed to `op`: its retry budget ran out.
    pub fn escalated_at(&self, op: RetryOp) -> u64 {
        self.escalated_ops[op as usize]
    }

    /// Folds `other` into this record, adding every counter. Addition
    /// is order-independent; the host-sharded executor still folds
    /// worker stats in host-index order, as it folds telemetry.
    pub fn merge_from(&mut self, other: &FaultStats) {
        let dst = self
            .injected
            .iter_mut()
            .flatten()
            .chain(&mut self.escalated_ops);
        for (dst, src) in dst.zip(other.injected.iter().flatten().chain(&other.escalated_ops)) {
            *dst += src;
        }
        for (dst, src) in self.sites.iter_mut().zip(&other.sites) {
            dst.add(src);
        }
    }

    /// Recovery outcome at `site` as `(recovered, unrecovered)` counts.
    ///
    /// A site's recovered count is its retry-loop recoveries plus its
    /// completed resets; its unrecovered count is the escalations no
    /// reset at that site resolved. Unlike a global escalated-vs-resets
    /// total, this cannot be masked by a reset at a *different* site.
    pub fn site_recovery(&self, site: FaultSite) -> (u64, u64) {
        let at = self.site(site);
        let unrecovered = at.escalated.saturating_sub(at.resets);
        (at.recovered + at.resets, unrecovered)
    }

    /// `true` when every site's escalations were resolved by completed
    /// resets *at that site* — i.e. no fault left a device wedged.
    /// Retry-recovered and shed operations count as recovered by
    /// definition (shedding *is* the brownout policy).
    pub fn all_recovered(&self) -> bool {
        !self.recovery_rows().any(|(_, (_, unrec))| unrec > 0)
    }

    /// The ops at `site` that escalated, with their counts, by name.
    fn ops_at(&self, site: FaultSite) -> impl Iterator<Item = (Key, u64)> + '_ {
        let ops = by_name(RetryOp::ALL, RetryOp::name).into_iter();
        ops.filter(move |op| op.site() == site)
            .map(move |op| (Key(site, Some(op.name())), self.escalated_at(op)))
            .filter(|&(_, n)| n > 0)
    }

    /// The counter sections, in render order.
    fn sections(&self) -> [Section; 9] {
        let sites = by_name(FaultSite::ALL, FaultSite::name);
        let per_site = |field: fn(&SiteStats) -> u64| {
            let counts = sites.map(|site| (Key(site, None), field(&self.site(site))));
            counts.into_iter().filter(|&(_, n)| n > 0).collect()
        };
        let kinds = by_name(FaultKind::ALL, FaultKind::name);
        let injected = sites.iter().flat_map(|&site| {
            kinds.map(|kind| (Key(site, Some(kind.name())), self.injected(site, kind)))
        });
        let injected = injected.filter(|&(_, n)| n > 0).collect();
        let ops = sites.iter().flat_map(|&site| self.ops_at(site)).collect();
        [
            ("injected", "injected", injected),
            ("retries", "retries", per_site(|at| at.retries)),
            ("recovered", "recovered", per_site(|at| at.recovered)),
            ("escalated", "escalated", per_site(|at| at.escalated)),
            ("escalated-ops", "escalated_ops", ops),
            ("resets", "resets", per_site(|at| at.resets)),
            ("replayed", "replayed", per_site(|at| at.replayed)),
            ("shed", "shed", per_site(|at| at.shed)),
            ("degraded-ns", "degraded_ns", per_site(|at| at.degraded_ns)),
        ]
    }

    /// [`Self::site_recovery`] of each site that has any, by name.
    fn recovery_rows(&self) -> impl Iterator<Item = (FaultSite, (u64, u64))> {
        let sites = by_name(FaultSite::ALL, FaultSite::name);
        let rows = sites.map(|site| (site, self.site_recovery(site)));
        rows.into_iter()
            .filter(|&(_, (rec, unrec))| rec + unrec > 0)
    }

    /// Stable multi-line rendering for logs and CI comparison.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fault stats (plan \"{}\"):", self.plan);
        for (title, _, rows) in self.sections() {
            if !rows.is_empty() {
                let _ = writeln!(out, "  {title}:");
            }
            for (key, n) in rows {
                let _ = writeln!(out, "    {key}: {n}");
            }
        }
        let mut rows = self.recovery_rows().peekable();
        if rows.peek().is_some() {
            let _ = writeln!(out, "  recovery:");
        }
        for (site, (rec, unrec)) in rows {
            let _ = write!(out, "    {site}: recovered {rec}, unrecovered {unrec}");
            let mut sep = " (ops: ";
            for (key, _) in self.ops_at(site).filter(|_| unrec > 0) {
                let _ = write!(out, "{sep}{key}");
                sep = ", ";
            }
            out.push_str(if sep == ", " { ")\n" } else { "\n" });
        }
        let _ = writeln!(
            out,
            "  recovered: {}",
            if self.all_recovered() { "yes" } else { "NO" }
        );
        out
    }

    /// Serialises the stats as JSON (the `fault_stats.json` the repro
    /// binary writes under `--out` when a plan is armed).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"plan\": \"{}\",\n  \"all_recovered\": {},\n",
            json_escape(&self.plan),
            self.all_recovered()
        );
        for (_, key, rows) in self.sections() {
            let _ = write!(out, "  \"{key}\": {{");
            for (i, (name, n)) in rows.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{name}\": {n}");
            }
            out.push_str("},\n");
        }
        out.push_str("  \"recovery\": {");
        for (i, (site, (rec, unrec))) in self.recovery_rows().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{site}\": {{\"recovered\": {rec}, \"unrecovered\": {unrec}}}"
            );
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Arms this thread's injector with `plan`, seeding backoff jitter
/// from `seed`. Replaces any previously armed plan and resets its
/// statistics.
pub fn arm(plan: FaultPlan, seed: u64) {
    install(FaultContext::new(plan, seed));
}

/// Installs a pre-built [`FaultContext`] on this thread, replacing any
/// armed plan.
fn install(context: FaultContext) {
    CONTEXT.with(|ctx| *ctx.borrow_mut() = Some(context));
    ARMED.with(|armed| armed.set(true));
}

/// Disarms this thread's injector and returns the accumulated
/// statistics, or `None` if nothing was armed.
pub fn disarm() -> Option<FaultStats> {
    take().map(|ctx| ctx.stats)
}

/// Removes and returns this thread's context without discarding it, or
/// `None` if nothing was armed.
fn take() -> Option<FaultContext> {
    ARMED.with(|armed| armed.set(false));
    CONTEXT.with(|ctx| ctx.borrow_mut().take())
}

/// Whether a plan is armed on this thread. Injection sites use this as
/// the zero-cost fast path.
#[inline]
pub fn is_armed() -> bool {
    ARMED.with(|armed| armed.get())
}

/// A snapshot of the current statistics without disarming.
pub fn stats() -> Option<FaultStats> {
    if !is_armed() {
        return None;
    }
    with_context(None, |ctx| Some(ctx.stats.clone()))
}

/// Name of the armed plan, if any.
pub fn armed_plan_name() -> Option<String> {
    if !is_armed() {
        return None;
    }
    with_context(None, |ctx| Some(ctx.plan.name.clone()))
}

/// A clone of the armed plan, if any. The host-sharded executor uses
/// this to arm each worker with the same plan (under a host-derived
/// backoff stream) so per-host work sees the faults the orchestrating
/// thread would have seen.
pub fn armed_plan() -> Option<FaultPlan> {
    if !is_armed() {
        return None;
    }
    with_context(None, |ctx| Some(ctx.plan.clone()))
}

/// Folds a worker's [`FaultStats`] into this thread's armed context.
/// No-op when nothing is armed (workers only produce stats when the
/// orchestrating thread had a plan armed, so nothing is lost).
pub fn absorb_stats(stats: &FaultStats) {
    if !is_armed() {
        return;
    }
    with_context((), |ctx| ctx.stats.merge_from(stats));
}

/// If a blocking window fault covers `now` at `site`, returns when the
/// stall clears and records one affected operation. Overlapping
/// blocking windows at the same site compose worst-of: the stall
/// extends to the latest end reachable by chaining covering windows.
pub fn blocking_until(site: FaultSite, now: SimTime) -> Option<SimTime> {
    if !is_armed() {
        return None;
    }
    with_context(None, |ctx| {
        let until = ctx.blocking_window_until(site, now)?;
        // Attribute the stall to the covering-now window that ends
        // last; under chaining, `until` may belong to a later window
        // that does not cover `now` at all.
        let kind = ctx
            .plan
            .events()
            .iter()
            .filter(|ev| ev.site == site && ev.covers(now) && ev.kind.is_blocking())
            .max_by_key(|ev| ev.until())
            .map(|ev| ev.kind)
            .unwrap_or(FaultKind::LinkFlap);
        ctx.stats.injected[site as usize][kind as usize] += 1;
        Some(until)
    })
}

/// Combined latency multiplier from spike/brownout windows active at
/// `now` for `site` (product of factors; `1.0` when clear). Records one
/// affected operation per active window.
pub fn latency_factor(site: FaultSite, now: SimTime) -> f64 {
    if !is_armed() {
        return 1.0;
    }
    with_context(1.0, |ctx| {
        let mut factor = 1.0;
        for ev in ctx.plan.events() {
            if ev.site == site && ev.covers(now) && ev.kind.uses_factor() {
                factor *= ev.factor;
                ctx.stats.injected[site as usize][ev.kind as usize] += 1;
            }
        }
        factor
    })
}

/// Whether a descriptor-corruption window covers `now` at `site`.
/// Records one affected operation when it does.
pub fn corrupted(site: FaultSite, now: SimTime) -> bool {
    if !is_armed() {
        return false;
    }
    with_context(false, |ctx| {
        let hit =
            ctx.plan.events().iter().any(|ev| {
                ev.site == site && ev.covers(now) && ev.kind == FaultKind::DescriptorCorrupt
            });
        if hit {
            ctx.stats.injected[site as usize][FaultKind::DescriptorCorrupt as usize] += 1;
        }
        hit
    })
}

/// Fires a one-shot fault (`DroppedDoorbell`, `PowerLoss`) the first
/// time it is polled at or after its trigger time, returning the
/// outage duration the recovery must ride out (the longest, if several
/// events fire at once). Subsequent polls return `None`: the event is
/// consumed, keeping recovery exactly-once and the trace deterministic.
pub fn take_oneshot(site: FaultSite, kind: FaultKind, now: SimTime) -> Option<SimDuration> {
    if !is_armed() || !kind.is_oneshot() {
        return None;
    }
    with_context(None, |ctx| {
        let mut outage = None;
        for (idx, ev) in ctx.plan.events().iter().enumerate() {
            if ev.site == site && ev.kind == kind && !ctx.consumed[idx] && now >= ev.at {
                ctx.consumed[idx] = true;
                outage = Some(outage.unwrap_or(SimDuration::ZERO).max(ev.duration));
                ctx.stats.injected[site as usize][kind as usize] += 1;
            }
        }
        outage
    })
}

/// An operation that waits out a blocking fault through
/// [`retry_until_clear`]: the site it runs at and its name in fault
/// stats and telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryOp {
    /// A guest register access across the PCIe link.
    PcieRegister,
    /// The PMD thread's mailbox head/tail poll.
    MailboxHeadTail,
    /// The DMA that stages a descriptor chain's readable bytes.
    DmaStageChain,
    /// The DMA that copies a backend's written bytes back.
    DmaCopyBack,
}

impl RetryOp {
    /// Every operation, in a fixed order.
    pub const ALL: [RetryOp; 4] = [
        RetryOp::PcieRegister,
        RetryOp::MailboxHeadTail,
        RetryOp::DmaStageChain,
        RetryOp::DmaCopyBack,
    ];

    /// The site whose blocking windows this operation waits out.
    pub fn site(self) -> FaultSite {
        match self {
            RetryOp::PcieRegister => FaultSite::Pcie,
            RetryOp::MailboxHeadTail => FaultSite::Mailbox,
            RetryOp::DmaStageChain | RetryOp::DmaCopyBack => FaultSite::Dma,
        }
    }

    /// The operation's name, unique within its site.
    pub fn name(self) -> &'static str {
        match self {
            RetryOp::PcieRegister => "register",
            RetryOp::MailboxHeadTail => "head_tail",
            RetryOp::DmaStageChain => "stage_chain",
            RetryOp::DmaCopyBack => "copy_back",
        }
    }

    /// The label of the telemetry span covering one wait:
    /// `"retry:<site>:<name>"`.
    pub fn span_label(self) -> &'static str {
        match self {
            RetryOp::PcieRegister => "retry:pcie:register",
            RetryOp::MailboxHeadTail => "retry:mailbox:head_tail",
            RetryOp::DmaStageChain => "retry:dma:stage_chain",
            RetryOp::DmaCopyBack => "retry:dma:copy_back",
        }
    }
}

/// Runs the bounded-backoff recovery loop for a blocking fault at
/// `op`'s site, starting at `now`. Each attempt costs `attempt_cost` (the
/// price of re-issuing the operation) plus a jittered backoff delay
/// drawn from the context RNG; the loop exits as soon as virtual time
/// advances past every blocking window, or escalates after
/// [`retry::MAX_ATTEMPTS`] attempts. A telemetry span (`component
/// "faults"`, labelled [`RetryOp::span_label`]) covers the whole wait.
pub fn retry_until_clear(op: RetryOp, now: SimTime, attempt_cost: SimDuration) -> Recovery {
    let site = op.site();
    if !is_armed() {
        return Recovery::CLEAR;
    }
    let recovery = with_context(None, |ctx| {
        ctx.blocking_window_until(site, now)?;
        let mut t = now;
        let mut attempts = 0u32;
        let mut recovered = false;
        while attempts < retry::MAX_ATTEMPTS {
            attempts += 1;
            let delay = retry::jittered(attempts, &mut ctx.rng);
            t += delay + attempt_cost;
            if ctx.blocking_window_until(site, t).is_none() {
                recovered = true;
                break;
            }
        }
        let at = &mut ctx.stats.sites[site as usize];
        at.retries += u64::from(attempts);
        if recovered {
            at.recovered += 1;
        } else {
            at.escalated += 1;
            ctx.stats.escalated_ops[op as usize] += 1;
        }
        Some(Recovery {
            recovered,
            attempts,
            waited: t - now,
        })
    });
    let Some(recovery) = recovery else {
        return Recovery::CLEAR;
    };
    // Telemetry happens outside the context borrow.
    telemetry::span(COMPONENT, op.span_label(), now, recovery.waited);
    telemetry::counter("faults_retries", u64::from(recovery.attempts));
    telemetry::timer("faults_backoff_wait", recovery.waited);
    recovery
}

/// Records a completed reset + re-handshake that resolved an
/// escalation at `site`.
pub fn note_reset(site: FaultSite) {
    if !is_armed() {
        return;
    }
    with_context((), |ctx| ctx.stats.sites[site as usize].resets += 1);
    telemetry::counter("faults_resets", 1);
}

/// Records `chains` inflight descriptor chains replayed after a reset.
pub fn note_replayed(site: FaultSite, chains: u64) {
    if !is_armed() || chains == 0 {
        return;
    }
    with_context((), |ctx| ctx.stats.sites[site as usize].replayed += chains);
    telemetry::counter("faults_replayed", chains);
}

/// Records one operation shed under brownout (queue-depth shedding).
pub fn note_shed(site: FaultSite) {
    if !is_armed() {
        return;
    }
    with_context((), |ctx| ctx.stats.sites[site as usize].shed += 1);
    telemetry::counter("faults_shed", 1);
}

/// Records extra latency absorbed (spike/brownout slowdown, corrupt
/// refetches, dropped-doorbell re-notify) without a retry loop.
pub fn note_degraded(site: FaultSite, extra: SimDuration) {
    if !is_armed() || extra.is_zero() {
        return;
    }
    with_context((), |ctx| {
        ctx.stats.sites[site as usize].degraded_ns += extra.as_nanos();
    });
    telemetry::timer("faults_degraded", extra);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultEvent;

    // The injector is thread-local and `cargo test` runs each test on
    // its own thread, so tests arm plans without any serialization.

    fn plan_with(events: Vec<FaultEvent>) -> FaultPlan {
        let mut plan = FaultPlan::new("test");
        for ev in events {
            plan.push(ev);
        }
        plan
    }

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn unarmed_sites_are_identity() {
        disarm();
        assert!(!is_armed());
        assert_eq!(blocking_until(FaultSite::Pcie, us(0)), None);
        assert_eq!(latency_factor(FaultSite::VSwitch, us(0)), 1.0);
        assert!(!corrupted(FaultSite::Vring, us(0)));
        assert!(take_oneshot(FaultSite::Board, FaultKind::PowerLoss, us(0)).is_none());
        assert_eq!(
            retry_until_clear(RetryOp::DmaStageChain, us(0), SimDuration::ZERO),
            Recovery::CLEAR
        );
    }

    #[test]
    fn window_faults_cover_and_clear() {
        let plan = plan_with(vec![FaultEvent::window(
            us(100),
            FaultSite::Pcie,
            FaultKind::LinkFlap,
            SimDuration::from_micros(50),
        )]);
        arm(plan, 1);
        assert_eq!(blocking_until(FaultSite::Pcie, us(99)), None);
        assert_eq!(blocking_until(FaultSite::Pcie, us(100)), Some(us(150)));
        assert_eq!(blocking_until(FaultSite::Pcie, us(149)), Some(us(150)));
        assert_eq!(blocking_until(FaultSite::Pcie, us(150)), None);
        // Wrong site never matches.
        assert_eq!(blocking_until(FaultSite::Dma, us(120)), None);
        let stats = disarm().unwrap();
        assert_eq!(stats.injected(FaultSite::Pcie, FaultKind::LinkFlap), 2);
    }

    #[test]
    fn overlapping_blocking_windows_compose_worst_of() {
        // Two mailbox stalls: [100, 150) and [140, 200). An operation
        // stalled at 120 is not released at 150 — the second window
        // already covers that instant — so the stall runs to 200.
        let plan = plan_with(vec![
            FaultEvent::window(
                us(100),
                FaultSite::Mailbox,
                FaultKind::MailboxStall,
                SimDuration::from_micros(50),
            ),
            FaultEvent::window(
                us(140),
                FaultSite::Mailbox,
                FaultKind::MailboxStall,
                SimDuration::from_micros(60),
            ),
        ]);
        arm(plan, 1);
        // Inside the first window only: chains through the overlap.
        assert_eq!(blocking_until(FaultSite::Mailbox, us(120)), Some(us(200)));
        // Inside the overlap and inside the second window alone.
        assert_eq!(blocking_until(FaultSite::Mailbox, us(145)), Some(us(200)));
        assert_eq!(blocking_until(FaultSite::Mailbox, us(160)), Some(us(200)));
        // Clear outside both.
        assert_eq!(blocking_until(FaultSite::Mailbox, us(99)), None);
        assert_eq!(blocking_until(FaultSite::Mailbox, us(200)), None);
        let stats = disarm().unwrap();
        assert_eq!(
            stats.injected(FaultSite::Mailbox, FaultKind::MailboxStall),
            3
        );
    }

    #[test]
    fn oneshots_fire_exactly_once() {
        let plan = plan_with(vec![FaultEvent::window(
            us(400),
            FaultSite::Board,
            FaultKind::PowerLoss,
            SimDuration::from_micros(150),
        )]);
        arm(plan, 1);
        assert!(take_oneshot(FaultSite::Board, FaultKind::PowerLoss, us(399)).is_none());
        assert_eq!(
            take_oneshot(FaultSite::Board, FaultKind::PowerLoss, us(400)),
            Some(SimDuration::from_micros(150))
        );
        assert!(take_oneshot(FaultSite::Board, FaultKind::PowerLoss, us(401)).is_none());
        disarm();
    }

    #[test]
    fn retry_loop_outwaits_a_window_and_records_stats() {
        let plan = plan_with(vec![FaultEvent::window(
            us(0),
            FaultSite::Dma,
            FaultKind::DmaTimeout,
            SimDuration::from_micros(60),
        )]);
        arm(plan, 9);
        let r = retry_until_clear(RetryOp::DmaStageChain, us(0), SimDuration::from_micros(1));
        assert!(r.recovered);
        assert!(r.attempts >= 1);
        assert!(r.waited >= SimDuration::from_micros(60));
        let stats = disarm().unwrap();
        assert_eq!(stats.site(FaultSite::Dma).recovered, 1);
        assert_eq!(stats.site(FaultSite::Dma).escalated, 0);
        assert!(stats.all_recovered());
    }

    #[test]
    fn retry_loop_escalates_when_the_window_outlasts_the_budget() {
        // Longer than the device-path worst case (~1.2 ms).
        let plan = plan_with(vec![FaultEvent::window(
            us(0),
            FaultSite::Mailbox,
            FaultKind::MailboxStall,
            SimDuration::from_millis(10),
        )]);
        arm(plan, 9);
        let r = retry_until_clear(RetryOp::MailboxHeadTail, us(0), SimDuration::ZERO);
        assert!(!r.recovered);
        assert_eq!(r.attempts, retry::MAX_ATTEMPTS);
        let stats = super::stats().unwrap();
        assert_eq!(stats.site(FaultSite::Mailbox).escalated, 1);
        // The escalation is attributed to the op that observed it.
        assert_eq!(stats.escalated_at(RetryOp::MailboxHeadTail), 1);
        assert!(!stats.all_recovered());
        assert_eq!(stats.site_recovery(FaultSite::Mailbox), (0, 1));
        let text = stats.to_text();
        assert!(text.contains("mailbox: recovered 0, unrecovered 1 (ops: mailbox/head_tail)"));
        assert!(text.contains("recovered: NO"));
        // A reset at a *different* site must not mask the wedge.
        note_reset(FaultSite::Board);
        assert!(!super::stats().unwrap().all_recovered());
        // A completed reset at the site resolves the escalation.
        note_reset(FaultSite::Mailbox);
        let stats = disarm().unwrap();
        assert!(stats.all_recovered());
        assert_eq!(stats.site_recovery(FaultSite::Mailbox), (1, 0));
    }

    #[test]
    fn stats_json_reports_per_site_recovery() {
        let plan = plan_with(vec![FaultEvent::window(
            us(0),
            FaultSite::Dma,
            FaultKind::DmaTimeout,
            SimDuration::from_micros(60),
        )]);
        arm(plan, 9);
        retry_until_clear(RetryOp::DmaStageChain, us(0), SimDuration::from_micros(1));
        let stats = disarm().unwrap();
        let json = stats.to_json();
        assert!(json.contains("\"all_recovered\": true"));
        assert!(json.contains("\"recovery\": {\"dma\": {\"recovered\": 1, \"unrecovered\": 0}}"));
        // The JSON parses with the crate's own reader.
        bmhive_telemetry::json::parse(&json).expect("fault stats JSON is well-formed");
    }

    #[test]
    fn retry_span_labels_name_site_and_op() {
        for op in RetryOp::ALL {
            let label = format!("retry:{}:{}", op.site().name(), op.name());
            assert_eq!(op.span_label(), label);
        }
        // One armed wait, as the shadow ring's staging DMA records it.
        let plan = plan_with(vec![FaultEvent::window(
            us(0),
            FaultSite::Dma,
            FaultKind::DmaTimeout,
            SimDuration::from_micros(60),
        )]);
        arm(plan, 0);
        telemetry::set_enabled(true);
        telemetry::reset();
        let r = retry_until_clear(RetryOp::DmaStageChain, us(0), SimDuration::ZERO);
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        disarm();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].component, "faults");
        assert_eq!(snap.events[0].label, "retry:dma:stage_chain");
        assert_eq!(snap.events[0].duration, r.waited);
    }

    #[test]
    fn retry_waits_are_deterministic_per_seed() {
        let run = |seed| {
            let plan = plan_with(vec![FaultEvent::window(
                us(0),
                FaultSite::Pcie,
                FaultKind::LinkFlap,
                SimDuration::from_micros(75),
            )]);
            arm(plan, seed);
            let r = retry_until_clear(RetryOp::PcieRegister, us(0), SimDuration::ZERO);
            disarm();
            r
        };
        assert_eq!(run(5), run(5));
        // Different seeds draw different jitter (overwhelmingly likely).
        assert_ne!(run(5).waited, run(6).waited);
    }

    #[test]
    fn stats_text_is_stable_and_reports_recovery() {
        let plan = plan_with(vec![FaultEvent::factor(
            us(10),
            FaultSite::VSwitch,
            FaultKind::Brownout,
            SimDuration::from_micros(100),
            4.0,
        )]);
        arm(plan, 2);
        assert_eq!(latency_factor(FaultSite::VSwitch, us(50)), 4.0);
        note_shed(FaultSite::VSwitch);
        note_degraded(FaultSite::VSwitch, SimDuration::from_micros(3));
        let a = stats().unwrap().to_text();
        let b = stats().unwrap().to_text();
        assert_eq!(a, b);
        assert!(a.contains("vswitch/brownout: 1"));
        assert!(a.contains("recovered: yes"));
        disarm();
    }

    #[test]
    fn one_record_renders_every_section_in_name_order() {
        // Built through the public hooks alone, so the pinned bytes hold
        // whatever the record looks like inside. Sites, kinds and ops
        // are chosen so name order differs from declaration order:
        // `blockstore` before `board`, `latency-spike` before
        // `link-flap`, `copy_back` before `stage_chain`. Walking sites,
        // then kinds or ops, by name gives the order of the joined
        // `site/kind` strings because no site name is a prefix of
        // another.
        let wedge = SimDuration::from_millis(10);
        let plan = plan_with(vec![
            FaultEvent::window(
                us(0),
                FaultSite::Pcie,
                FaultKind::LinkFlap,
                SimDuration::from_micros(20),
            ),
            FaultEvent::factor(us(0), FaultSite::Pcie, FaultKind::LatencySpike, wedge, 2.0),
            FaultEvent::window(us(0), FaultSite::Dma, FaultKind::DmaTimeout, wedge),
            FaultEvent::window(us(0), FaultSite::Mailbox, FaultKind::MailboxStall, wedge),
            FaultEvent::window(us(0), FaultSite::Vring, FaultKind::DescriptorCorrupt, wedge),
            FaultEvent::window(
                us(0),
                FaultSite::Doorbell,
                FaultKind::DroppedDoorbell,
                wedge,
            ),
            FaultEvent::window(us(0), FaultSite::Board, FaultKind::PowerLoss, wedge),
            FaultEvent::factor(us(0), FaultSite::VSwitch, FaultKind::Brownout, wedge, 4.0),
            FaultEvent::factor(
                us(0),
                FaultSite::BlockStore,
                FaultKind::Brownout,
                wedge,
                3.0,
            ),
        ]);
        arm(plan, 5);
        for site in [FaultSite::Pcie, FaultSite::Dma, FaultSite::Mailbox] {
            assert!(blocking_until(site, us(1)).is_some());
        }
        assert_eq!(latency_factor(FaultSite::Pcie, us(1)), 2.0);
        assert_eq!(latency_factor(FaultSite::VSwitch, us(1)), 4.0);
        assert_eq!(latency_factor(FaultSite::BlockStore, us(1)), 3.0);
        assert!(corrupted(FaultSite::Vring, us(1)));
        assert!(take_oneshot(FaultSite::Doorbell, FaultKind::DroppedDoorbell, us(1)).is_some());
        assert!(take_oneshot(FaultSite::Board, FaultKind::PowerLoss, us(1)).is_some());
        assert!(retry_until_clear(RetryOp::PcieRegister, us(1), SimDuration::ZERO).recovered);
        for op in [
            RetryOp::MailboxHeadTail,
            RetryOp::DmaStageChain,
            RetryOp::DmaCopyBack,
        ] {
            assert!(!retry_until_clear(op, us(1), SimDuration::ZERO).recovered);
        }
        note_reset(FaultSite::Board);
        note_reset(FaultSite::Dma);
        note_replayed(FaultSite::Board, 3);
        note_shed(FaultSite::VSwitch);
        note_degraded(FaultSite::VSwitch, SimDuration::from_nanos(1500));
        note_degraded(FaultSite::BlockStore, SimDuration::from_micros(2));
        let stats = disarm().unwrap();
        assert_eq!(
            stats.to_text(),
            "\
fault stats (plan \"test\"):
  injected:
    blockstore/brownout: 1
    board/power-loss: 1
    dma/dma-timeout: 1
    doorbell/dropped-doorbell: 1
    mailbox/mailbox-stall: 1
    pcie/latency-spike: 1
    pcie/link-flap: 1
    vring/descriptor-corrupt: 1
    vswitch/brownout: 1
  retries:
    dma: 32
    mailbox: 16
    pcie: 3
  recovered:
    pcie: 1
  escalated:
    dma: 2
    mailbox: 1
  escalated-ops:
    dma/copy_back: 1
    dma/stage_chain: 1
    mailbox/head_tail: 1
  resets:
    board: 1
    dma: 1
  replayed:
    board: 3
  shed:
    vswitch: 1
  degraded-ns:
    blockstore: 2000
    vswitch: 1500
  recovery:
    board: recovered 1, unrecovered 0
    dma: recovered 1, unrecovered 1 (ops: dma/copy_back, dma/stage_chain)
    mailbox: recovered 0, unrecovered 1 (ops: mailbox/head_tail)
    pcie: recovered 1, unrecovered 0
  recovered: NO
"
        );
        assert_eq!(
            stats.to_json(),
            r#"{
  "plan": "test",
  "all_recovered": false,
  "injected": {"blockstore/brownout": 1, "board/power-loss": 1, "dma/dma-timeout": 1, "doorbell/dropped-doorbell": 1, "mailbox/mailbox-stall": 1, "pcie/latency-spike": 1, "pcie/link-flap": 1, "vring/descriptor-corrupt": 1, "vswitch/brownout": 1},
  "retries": {"dma": 32, "mailbox": 16, "pcie": 3},
  "recovered": {"pcie": 1},
  "escalated": {"dma": 2, "mailbox": 1},
  "escalated_ops": {"dma/copy_back": 1, "dma/stage_chain": 1, "mailbox/head_tail": 1},
  "resets": {"board": 1, "dma": 1},
  "replayed": {"board": 3},
  "shed": {"vswitch": 1},
  "degraded_ns": {"blockstore": 2000, "vswitch": 1500},
  "recovery": {"board": {"recovered": 1, "unrecovered": 0}, "dma": {"recovered": 1, "unrecovered": 1}, "mailbox": {"recovered": 0, "unrecovered": 1}, "pcie": {"recovered": 1, "unrecovered": 0}}
}
"#
        );
    }

    #[test]
    fn contexts_are_thread_local() {
        let plan = plan_with(vec![FaultEvent::window(
            us(0),
            FaultSite::Pcie,
            FaultKind::LinkFlap,
            SimDuration::from_micros(50),
        )]);
        arm(plan, 1);
        assert!(is_armed());
        // A sibling thread sees no plan and can arm its own without
        // disturbing ours.
        std::thread::spawn(|| {
            assert!(!is_armed());
            assert_eq!(blocking_until(FaultSite::Pcie, us(10)), None);
            arm(FaultPlan::new("other"), 7);
            assert_eq!(armed_plan_name().as_deref(), Some("other"));
            disarm();
        })
        .join()
        .unwrap();
        assert_eq!(armed_plan_name().as_deref(), Some("test"));
        assert_eq!(blocking_until(FaultSite::Pcie, us(10)), Some(us(50)));
        disarm();
    }

    #[test]
    fn take_and_install_round_trip_a_context() {
        let plan = plan_with(vec![FaultEvent::window(
            us(0),
            FaultSite::Dma,
            FaultKind::DmaTimeout,
            SimDuration::from_micros(10),
        )]);
        arm(plan, 3);
        assert!(blocking_until(FaultSite::Dma, us(5)).is_some());
        let ctx = take().unwrap();
        assert!(!is_armed());
        assert_eq!(ctx.stats.injected_total(), 1);
        install(ctx);
        assert!(is_armed());
        let stats = disarm().unwrap();
        assert_eq!(stats.injected(FaultSite::Dma, FaultKind::DmaTimeout), 1);
    }
}
