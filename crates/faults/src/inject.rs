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
use std::collections::BTreeMap;
use std::fmt::Write as _;

use bmhive_sim::{SimDuration, SimRng, SimTime};
use bmhive_telemetry as telemetry;
use bmhive_telemetry::export::json_escape;

use crate::plan::{FaultKind, FaultPlan, FaultSite};
use crate::retry::RetryPolicy;

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
    policy: RetryPolicy,
    /// One flag per plan event; one-shot kinds flip it when they fire.
    consumed: Vec<bool>,
    stats: FaultStats,
}

impl FaultContext {
    /// Builds a fresh context for `plan`, seeding backoff jitter from
    /// `seed`.
    fn new(plan: FaultPlan, seed: u64) -> Self {
        let consumed = vec![false; plan.events().len()];
        let stats = FaultStats::new(&plan.name);
        FaultContext {
            plan,
            // A dedicated stream: arming must not disturb the streams
            // the workload itself forks from the same seed.
            rng: SimRng::with_stream(seed, 0xFA17),
            policy: RetryPolicy::device_path(),
            consumed,
            stats,
        }
    }

    /// Consumes the context, yielding its statistics.
    fn into_stats(self) -> FaultStats {
        self.stats
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

/// Deterministic counters describing what a plan did to a run.
///
/// All maps are `BTreeMap` so [`FaultStats::to_text`] renders in a
/// stable order — the fault-matrix CI job compares this text byte for
/// byte across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Name of the armed plan.
    pub plan: String,
    /// Operations affected, keyed by `"site/kind"`.
    pub injected: BTreeMap<String, u64>,
    /// Backoff retries spent, keyed by site.
    pub retries: BTreeMap<String, u64>,
    /// Retry loops that cleared, keyed by site.
    pub recovered: BTreeMap<String, u64>,
    /// Retry budgets exhausted → escalated to reset, keyed by site.
    pub escalated: BTreeMap<String, u64>,
    /// Escalation attribution: which operation observed the exhausted
    /// budget, keyed by `"site/op"`.
    pub escalated_ops: BTreeMap<String, u64>,
    /// Escalations resolved by reset + re-handshake, keyed by site.
    pub resets: BTreeMap<String, u64>,
    /// Inflight chains replayed after a reset, keyed by site.
    pub replayed: BTreeMap<String, u64>,
    /// Operations shed under brownout (graceful degradation), keyed by
    /// site.
    pub shed: BTreeMap<String, u64>,
    /// Extra latency absorbed without retries, keyed by site (ns).
    pub degraded_ns: BTreeMap<String, u64>,
}

impl FaultStats {
    fn new(plan: &str) -> Self {
        FaultStats {
            plan: plan.to_string(),
            ..FaultStats::default()
        }
    }

    fn bump(map: &mut BTreeMap<String, u64>, key: impl Into<String>, delta: u64) {
        *map.entry(key.into()).or_insert(0) += delta;
    }

    /// Total operations affected by any fault.
    pub fn injected_total(&self) -> u64 {
        self.injected.values().sum()
    }

    /// Folds `other` into this record, adding every per-site counter.
    /// All maps are `BTreeMap`s so merging is order-independent; the
    /// host-sharded executor still folds worker stats in host-index
    /// order for uniformity with the (order-sensitive) telemetry fold.
    pub fn merge_from(&mut self, other: &FaultStats) {
        let fold = |dst: &mut BTreeMap<String, u64>, src: &BTreeMap<String, u64>| {
            for (k, &v) in src {
                *dst.entry(k.clone()).or_insert(0) += v;
            }
        };
        fold(&mut self.injected, &other.injected);
        fold(&mut self.retries, &other.retries);
        fold(&mut self.recovered, &other.recovered);
        fold(&mut self.escalated, &other.escalated);
        fold(&mut self.escalated_ops, &other.escalated_ops);
        fold(&mut self.resets, &other.resets);
        fold(&mut self.replayed, &other.replayed);
        fold(&mut self.shed, &other.shed);
        fold(&mut self.degraded_ns, &other.degraded_ns);
    }

    /// Per-site recovery outcome as `(recovered, unrecovered)` counts.
    ///
    /// A site's recovered count is its retry-loop recoveries plus its
    /// completed resets; its unrecovered count is the escalations no
    /// reset at that site resolved. Unlike a global escalated-vs-resets
    /// total, this cannot be masked by a reset at a *different* site.
    pub fn site_recovery(&self) -> BTreeMap<String, (u64, u64)> {
        let mut sites: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (site, &n) in &self.recovered {
            sites.entry(site.clone()).or_default().0 += n;
        }
        for (site, &n) in &self.resets {
            sites.entry(site.clone()).or_default().0 += n;
        }
        for (site, &n) in &self.escalated {
            let resets = self.resets.get(site).copied().unwrap_or(0);
            sites.entry(site.clone()).or_default().1 += n.saturating_sub(resets);
        }
        sites
    }

    /// `true` when every site's escalations were resolved by completed
    /// resets *at that site* — i.e. no fault left a device wedged.
    /// Retry-recovered and shed operations count as recovered by
    /// definition (shedding *is* the brownout policy).
    pub fn all_recovered(&self) -> bool {
        self.site_recovery().values().all(|&(_, unrec)| unrec == 0)
    }

    /// Stable multi-line rendering for logs and CI comparison.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fault stats (plan \"{}\"):", self.plan);
        let section = |out: &mut String, title: &str, map: &BTreeMap<String, u64>| {
            if map.is_empty() {
                return;
            }
            let _ = writeln!(out, "  {title}:");
            for (key, value) in map {
                let _ = writeln!(out, "    {key}: {value}");
            }
        };
        section(&mut out, "injected", &self.injected);
        section(&mut out, "retries", &self.retries);
        section(&mut out, "recovered", &self.recovered);
        section(&mut out, "escalated", &self.escalated);
        section(&mut out, "escalated-ops", &self.escalated_ops);
        section(&mut out, "resets", &self.resets);
        section(&mut out, "replayed", &self.replayed);
        section(&mut out, "shed", &self.shed);
        section(&mut out, "degraded-ns", &self.degraded_ns);
        let sites = self.site_recovery();
        if !sites.is_empty() {
            let _ = writeln!(out, "  recovery:");
            for (site, (rec, unrec)) in &sites {
                let mut line = format!("    {site}: recovered {rec}, unrecovered {unrec}");
                if *unrec > 0 {
                    let prefix = format!("{site}/");
                    let ops: Vec<&str> = self
                        .escalated_ops
                        .keys()
                        .filter(|k| k.starts_with(&prefix))
                        .map(String::as_str)
                        .collect();
                    if !ops.is_empty() {
                        line.push_str(&format!(" (ops: {})", ops.join(", ")));
                    }
                }
                let _ = writeln!(out, "{line}");
            }
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
        fn map_obj(out: &mut String, key: &str, map: &BTreeMap<String, u64>, comma: bool) {
            out.push_str(&format!("  \"{key}\": {{"));
            for (i, (k, v)) in map.iter().enumerate() {
                let sep = if i + 1 < map.len() { ", " } else { "" };
                out.push_str(&format!("\"{}\": {v}{sep}", json_escape(k)));
            }
            out.push_str(if comma { "},\n" } else { "}\n" });
        }
        let mut out = format!(
            "{{\n  \"plan\": \"{}\",\n  \"all_recovered\": {},\n",
            json_escape(&self.plan),
            self.all_recovered()
        );
        map_obj(&mut out, "injected", &self.injected, true);
        map_obj(&mut out, "retries", &self.retries, true);
        map_obj(&mut out, "recovered", &self.recovered, true);
        map_obj(&mut out, "escalated", &self.escalated, true);
        map_obj(&mut out, "escalated_ops", &self.escalated_ops, true);
        map_obj(&mut out, "resets", &self.resets, true);
        map_obj(&mut out, "replayed", &self.replayed, true);
        map_obj(&mut out, "shed", &self.shed, true);
        map_obj(&mut out, "degraded_ns", &self.degraded_ns, true);
        out.push_str("  \"recovery\": {");
        let sites = self.site_recovery();
        for (i, (site, (rec, unrec))) in sites.iter().enumerate() {
            let sep = if i + 1 < sites.len() { ", " } else { "" };
            out.push_str(&format!(
                "\"{}\": {{\"recovered\": {rec}, \"unrecovered\": {unrec}}}{sep}",
                json_escape(site)
            ));
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
    take().map(FaultContext::into_stats)
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
        let key = format!("{}/{}", site.name(), kind.name());
        FaultStats::bump(&mut ctx.stats.injected, key, 1);
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
        let mut hits = Vec::new();
        for ev in ctx.plan.events() {
            if ev.site == site && ev.covers(now) && ev.kind.uses_factor() {
                factor *= ev.factor;
                hits.push(format!("{}/{}", site.name(), ev.kind.name()));
            }
        }
        for key in hits {
            FaultStats::bump(&mut ctx.stats.injected, key, 1);
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
            let key = format!("{}/{}", site.name(), FaultKind::DescriptorCorrupt.name());
            FaultStats::bump(&mut ctx.stats.injected, key, 1);
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
        let mut keys = Vec::new();
        for (idx, ev) in ctx.plan.events().iter().enumerate() {
            if ev.site == site && ev.kind == kind && !ctx.consumed[idx] && now >= ev.at {
                ctx.consumed[idx] = true;
                outage = Some(outage.unwrap_or(SimDuration::ZERO).max(ev.duration));
                keys.push(format!("{}/{}", site.name(), kind.name()));
            }
        }
        for key in keys {
            FaultStats::bump(&mut ctx.stats.injected, key, 1);
        }
        outage
    })
}

/// Runs the bounded-backoff recovery loop for a blocking fault at
/// `site`, starting at `now`. Each attempt costs `attempt_cost` (the
/// price of re-issuing the operation) plus a jittered backoff delay
/// drawn from the context RNG; the loop exits as soon as virtual time
/// advances past every blocking window, or escalates after the policy's
/// attempt budget. A telemetry span (`component "faults"`, labelled
/// `"retry:<site>:<label>"`) covers the whole wait.
pub fn retry_until_clear(
    site: FaultSite,
    label: &str,
    now: SimTime,
    attempt_cost: SimDuration,
) -> Recovery {
    if !is_armed() {
        return Recovery::CLEAR;
    }
    let recovery = with_context(None, |ctx| {
        ctx.blocking_window_until(site, now)?;
        let policy = ctx.policy;
        let mut t = now;
        let mut attempts = 0u32;
        let mut recovered = false;
        while attempts < policy.max_attempts {
            attempts += 1;
            let delay = policy.jittered(attempts, &mut ctx.rng);
            t += delay + attempt_cost;
            if ctx.blocking_window_until(site, t).is_none() {
                recovered = true;
                break;
            }
        }
        let waited = t - now;
        let site_key = site.name().to_string();
        FaultStats::bump(
            &mut ctx.stats.retries,
            site_key.clone(),
            u64::from(attempts),
        );
        if recovered {
            FaultStats::bump(&mut ctx.stats.recovered, site_key, 1);
        } else {
            FaultStats::bump(&mut ctx.stats.escalated, site_key, 1);
            FaultStats::bump(
                &mut ctx.stats.escalated_ops,
                format!("{}/{label}", site.name()),
                1,
            );
        }
        Some(Recovery {
            recovered,
            attempts,
            waited,
        })
    });
    let Some(recovery) = recovery else {
        return Recovery::CLEAR;
    };
    // Telemetry happens outside the context borrow: span labels are
    // only built on this slow path, never on the unarmed fast path.
    telemetry::span(
        COMPONENT,
        format!("retry:{}:{label}", site.name()),
        now,
        recovery.waited,
    );
    telemetry::counter("faults_retries", u64::from(recovery.attempts));
    telemetry::timer("faults_backoff_wait", recovery.waited);
    recovery
}

/// Records an escalation raised outside the retry loop (e.g. a power
/// loss that wedges a device without any retryable operation),
/// attributed to the operation `op` that observed it.
pub fn note_escalated(site: FaultSite, op: &str) {
    if !is_armed() {
        return;
    }
    with_context((), |ctx| {
        FaultStats::bump(&mut ctx.stats.escalated, site.name().to_string(), 1);
        FaultStats::bump(
            &mut ctx.stats.escalated_ops,
            format!("{}/{op}", site.name()),
            1,
        );
    });
    telemetry::counter("faults_escalated", 1);
}

/// Records a completed reset + re-handshake that resolved an
/// escalation at `site`.
pub fn note_reset(site: FaultSite) {
    if !is_armed() {
        return;
    }
    with_context((), |ctx| {
        FaultStats::bump(&mut ctx.stats.resets, site.name().to_string(), 1);
    });
    telemetry::counter("faults_resets", 1);
}

/// Records `chains` inflight descriptor chains replayed after a reset.
pub fn note_replayed(site: FaultSite, chains: u64) {
    if !is_armed() || chains == 0 {
        return;
    }
    with_context((), |ctx| {
        FaultStats::bump(&mut ctx.stats.replayed, site.name().to_string(), chains);
    });
    telemetry::counter("faults_replayed", chains);
}

/// Records one operation shed under brownout (queue-depth shedding).
pub fn note_shed(site: FaultSite) {
    if !is_armed() {
        return;
    }
    with_context((), |ctx| {
        FaultStats::bump(&mut ctx.stats.shed, site.name().to_string(), 1);
    });
    telemetry::counter("faults_shed", 1);
}

/// Records extra latency absorbed (spike/brownout slowdown, corrupt
/// refetches, dropped-doorbell re-notify) without a retry loop.
pub fn note_degraded(site: FaultSite, extra: SimDuration) {
    if !is_armed() || extra.is_zero() {
        return;
    }
    with_context((), |ctx| {
        FaultStats::bump(
            &mut ctx.stats.degraded_ns,
            site.name().to_string(),
            extra.as_nanos(),
        );
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
            retry_until_clear(FaultSite::Dma, "x", us(0), SimDuration::ZERO),
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
        assert_eq!(stats.injected.get("pcie/link-flap"), Some(&2));
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
        assert_eq!(stats.injected.get("mailbox/mailbox-stall"), Some(&3));
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
        let r = retry_until_clear(FaultSite::Dma, "step5", us(0), SimDuration::from_micros(1));
        assert!(r.recovered);
        assert!(r.attempts >= 1);
        assert!(r.waited >= SimDuration::from_micros(60));
        let stats = disarm().unwrap();
        assert_eq!(stats.recovered.get("dma"), Some(&1));
        assert!(stats.escalated.is_empty());
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
        let r = retry_until_clear(FaultSite::Mailbox, "step8", us(0), SimDuration::ZERO);
        assert!(!r.recovered);
        assert_eq!(r.attempts, RetryPolicy::device_path().max_attempts);
        let mut stats = disarm().unwrap();
        assert_eq!(stats.escalated.get("mailbox"), Some(&1));
        // The escalation is attributed to the op that observed it.
        assert_eq!(stats.escalated_ops.get("mailbox/step8"), Some(&1));
        assert!(!stats.all_recovered());
        assert_eq!(stats.site_recovery().get("mailbox"), Some(&(0, 1)));
        let text = stats.to_text();
        assert!(text.contains("mailbox: recovered 0, unrecovered 1 (ops: mailbox/step8)"));
        assert!(text.contains("recovered: NO"));
        // A reset at a *different* site must not mask the wedge.
        FaultStats::bump(&mut stats.resets, "board".to_string(), 1);
        assert!(!stats.all_recovered());
        // A completed reset at the site resolves the escalation.
        FaultStats::bump(&mut stats.resets, "mailbox".to_string(), 1);
        assert!(stats.all_recovered());
        assert_eq!(stats.site_recovery().get("mailbox"), Some(&(1, 0)));
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
        retry_until_clear(
            FaultSite::Dma,
            "stage_chain",
            us(0),
            SimDuration::from_micros(1),
        );
        let stats = disarm().unwrap();
        let json = stats.to_json();
        assert!(json.contains("\"all_recovered\": true"));
        assert!(json.contains("\"recovery\": {\"dma\": {\"recovered\": 1, \"unrecovered\": 0}}"));
        // The JSON parses with the crate's own reader.
        bmhive_telemetry::json::parse(&json).expect("fault stats JSON is well-formed");
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
            let r = retry_until_clear(FaultSite::Pcie, "reg", us(0), SimDuration::ZERO);
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
        assert_eq!(stats.injected.get("dma/dma-timeout"), Some(&1));
    }
}
