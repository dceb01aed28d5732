//! Fault plans: scripted, replayable failure scenarios.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s — *at this virtual
//! time, this site misbehaves in this way for this long*. Plans are
//! data, not code: they serialise to a small JSON format so an
//! experiment can be rerun under the exact same failure script
//! (`repro --faults PLAN.json`), which is what makes failure testing
//! reproducible rather than ad-hoc.

use bmhive_sim::{SimDuration, SimTime};
use bmhive_telemetry::export::json_escape;
use bmhive_telemetry::json::{self, Json};
use std::fmt;

/// Where in the stack a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// The guest-facing PCIe link between the compute board and
    /// IO-Bond (register accesses, MSIs).
    Pcie,
    /// IO-Bond's internal DMA engine (payload copies between domains).
    Dma,
    /// The mailbox registers the bm-hypervisor's PMD thread polls
    /// (step 8 of the Fig. 6 exchange).
    Mailbox,
    /// Vring descriptor state (descriptor fetches, used-ring updates).
    Vring,
    /// The guest's notify doorbell.
    Doorbell,
    /// The compute board itself (the bm-guest's hardware).
    Board,
    /// The base server's poll-mode vSwitch.
    VSwitch,
    /// The cloud block store backend.
    BlockStore,
}

impl FaultSite {
    /// Every site, in a fixed order.
    pub const ALL: [FaultSite; 8] = [
        FaultSite::Pcie,
        FaultSite::Dma,
        FaultSite::Mailbox,
        FaultSite::Vring,
        FaultSite::Doorbell,
        FaultSite::Board,
        FaultSite::VSwitch,
        FaultSite::BlockStore,
    ];

    /// The stable wire name used in plan files.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Pcie => "pcie",
            FaultSite::Dma => "dma",
            FaultSite::Mailbox => "mailbox",
            FaultSite::Vring => "vring",
            FaultSite::Doorbell => "doorbell",
            FaultSite::Board => "board",
            FaultSite::VSwitch => "vswitch",
            FaultSite::BlockStore => "blockstore",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|site| site.name() == s)
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a site misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// The PCIe link drops and must retrain: accesses fail until the
    /// window closes (site: `pcie`).
    LinkFlap,
    /// Register hops take `factor`× their usual latency (site: `pcie`).
    LatencySpike,
    /// DMA transfers time out and must be retried (site: `dma`).
    DmaTimeout,
    /// The mailbox stops responding; the PMD poll stalls until the
    /// window closes (site: `mailbox`).
    MailboxStall,
    /// Descriptor fetches return corrupt data and must be re-fetched
    /// (site: `vring`).
    DescriptorCorrupt,
    /// A notify doorbell is lost; work sits until the PMD's periodic
    /// rescan finds it (site: `doorbell`). Fires once.
    DroppedDoorbell,
    /// The compute board loses power: the guest reboots, devices need
    /// reset, re-handshake, and inflight replay (site: `board`).
    /// Fires once.
    PowerLoss,
    /// The backend browns out: service takes `factor`× longer and deep
    /// queues shed load (sites: `vswitch`, `blockstore`).
    Brownout,
}

impl FaultKind {
    /// Every kind, in a fixed order.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::LinkFlap,
        FaultKind::LatencySpike,
        FaultKind::DmaTimeout,
        FaultKind::MailboxStall,
        FaultKind::DescriptorCorrupt,
        FaultKind::DroppedDoorbell,
        FaultKind::PowerLoss,
        FaultKind::Brownout,
    ];

    /// The stable wire name used in plan files.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::LinkFlap => "link-flap",
            FaultKind::LatencySpike => "latency-spike",
            FaultKind::DmaTimeout => "dma-timeout",
            FaultKind::MailboxStall => "mailbox-stall",
            FaultKind::DescriptorCorrupt => "descriptor-corrupt",
            FaultKind::DroppedDoorbell => "dropped-doorbell",
            FaultKind::PowerLoss => "power-loss",
            FaultKind::Brownout => "brownout",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|kind| kind.name() == s)
    }

    /// One-shot kinds fire exactly once when first observed; the rest
    /// affect every operation inside their `[at, at + duration)` window.
    pub fn is_oneshot(self) -> bool {
        matches!(self, FaultKind::DroppedDoorbell | FaultKind::PowerLoss)
    }

    /// Which sites this kind can strike.
    pub fn valid_at(self, site: FaultSite) -> bool {
        match self {
            FaultKind::LinkFlap | FaultKind::LatencySpike => site == FaultSite::Pcie,
            FaultKind::DmaTimeout => site == FaultSite::Dma,
            FaultKind::MailboxStall => site == FaultSite::Mailbox,
            FaultKind::DescriptorCorrupt => site == FaultSite::Vring,
            FaultKind::DroppedDoorbell => site == FaultSite::Doorbell,
            FaultKind::PowerLoss => site == FaultSite::Board,
            FaultKind::Brownout => {
                matches!(site, FaultSite::VSwitch | FaultSite::BlockStore)
            }
        }
    }

    /// Whether this kind uses the `factor` field.
    pub fn uses_factor(self) -> bool {
        matches!(self, FaultKind::LatencySpike | FaultKind::Brownout)
    }

    /// Blocking kinds stall the operation until their window closes
    /// (as opposed to degrading it or firing once).
    pub fn is_blocking(self) -> bool {
        matches!(
            self,
            FaultKind::LinkFlap | FaultKind::DmaTimeout | FaultKind::MailboxStall
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scripted failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault begins, in scenario virtual time.
    pub at: SimTime,
    /// Where it strikes.
    pub site: FaultSite,
    /// What goes wrong.
    pub kind: FaultKind,
    /// How long the fault condition persists. One-shot kinds use this
    /// as the outage length their recovery must ride out.
    pub duration: SimDuration,
    /// Degradation multiplier for latency-spike / brownout kinds
    /// (ignored otherwise).
    pub factor: f64,
}

impl FaultEvent {
    /// A window fault: the condition holds for `duration` from `at`.
    pub fn window(at: SimTime, site: FaultSite, kind: FaultKind, duration: SimDuration) -> Self {
        FaultEvent {
            at,
            site,
            kind,
            duration,
            factor: 1.0,
        }
    }

    /// A one-shot fault that fires the first time it is polled at or
    /// after `at` (dropped doorbell, power loss).
    pub fn oneshot(at: SimTime, site: FaultSite, kind: FaultKind) -> Self {
        FaultEvent {
            at,
            site,
            kind,
            duration: SimDuration::ZERO,
            factor: 1.0,
        }
    }

    /// A degradation window that multiplies latency by `factor`
    /// (latency spike, brownout).
    pub fn factor(
        at: SimTime,
        site: FaultSite,
        kind: FaultKind,
        duration: SimDuration,
        factor: f64,
    ) -> Self {
        FaultEvent {
            at,
            site,
            kind,
            duration,
            factor,
        }
    }

    /// The instant the fault condition clears.
    pub fn until(&self) -> SimTime {
        self.at + self.duration
    }

    /// Whether `now` falls inside the fault window.
    pub fn covers(&self, now: SimTime) -> bool {
        self.at <= now && now < self.until()
    }
}

/// Why a plan failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The document was not valid JSON.
    Json(String),
    /// The document parsed but is not a valid plan.
    Invalid(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Json(e) => write!(f, "plan is not valid JSON: {e}"),
            PlanError::Invalid(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A named, ordered failure script.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Human-readable plan name (reported in summaries).
    pub name: String,
    /// Events, kept sorted by start time.
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan with a name.
    pub fn new(name: impl Into<String>) -> Self {
        FaultPlan {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// Adds one event, keeping the list sorted by start time (stable,
    /// so equal-time events keep insertion order).
    ///
    /// # Panics
    ///
    /// Panics if the kind is not valid at the site, or a factor kind
    /// has `factor <= 1.0`.
    pub fn push(&mut self, event: FaultEvent) -> &mut Self {
        assert!(
            event.kind.valid_at(event.site),
            "fault kind {} cannot strike site {}",
            event.kind,
            event.site
        );
        assert!(
            !event.kind.uses_factor() || event.factor > 1.0,
            "{} needs factor > 1.0",
            event.kind
        );
        let pos = self
            .events
            .partition_point(|existing| existing.at <= event.at);
        self.events.insert(pos, event);
        self
    }

    /// The events, sorted by start time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// When the last fault window closes ([`SimTime::ZERO`] if empty).
    pub fn horizon(&self) -> SimTime {
        self.events
            .iter()
            .map(FaultEvent::until)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Serialises the plan to the JSON format [`FaultPlan::from_json`]
    /// reads. Times are microseconds (fractional allowed on parse).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"name\": \"{}\",\n  \"events\": [\n",
            json_escape(&self.name)
        );
        for (i, e) in self.events.iter().enumerate() {
            let comma = if i + 1 < self.events.len() { "," } else { "" };
            let factor = if e.kind.uses_factor() {
                format!(", \"factor\": {}", e.factor)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "    {{\"at_us\": {}, \"site\": \"{}\", \"kind\": \"{}\", \"duration_us\": {}{}}}{}\n",
                e.at.as_nanos() as f64 / 1_000.0,
                e.site,
                e.kind,
                e.duration.as_nanos() as f64 / 1_000.0,
                factor,
                comma,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a plan from its JSON form.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, unknown sites/kinds, kind/site
    /// mismatches, or missing fields.
    pub fn from_json(doc: &str) -> Result<FaultPlan, PlanError> {
        let root = json::parse(doc).map_err(|e| PlanError::Json(e.to_string()))?;
        let name = root
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| PlanError::Invalid("missing \"name\"".into()))?;
        let events = root
            .get("events")
            .and_then(Json::as_arr)
            .ok_or_else(|| PlanError::Invalid("missing \"events\" array".into()))?;
        let mut plan = FaultPlan::new(name);
        for (i, ev) in events.iter().enumerate() {
            let field = |key: &str| {
                ev.get(key).and_then(Json::as_f64).ok_or_else(|| {
                    PlanError::Invalid(format!("event {i}: missing number \"{key}\""))
                })
            };
            let site_name = ev
                .get("site")
                .and_then(Json::as_str)
                .ok_or_else(|| PlanError::Invalid(format!("event {i}: missing \"site\"")))?;
            let site = FaultSite::parse(site_name).ok_or_else(|| {
                PlanError::Invalid(format!("event {i}: unknown site \"{site_name}\""))
            })?;
            let kind_name = ev
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| PlanError::Invalid(format!("event {i}: missing \"kind\"")))?;
            let kind = FaultKind::parse(kind_name).ok_or_else(|| {
                PlanError::Invalid(format!("event {i}: unknown kind \"{kind_name}\""))
            })?;
            if !kind.valid_at(site) {
                return Err(PlanError::Invalid(format!(
                    "event {i}: kind \"{kind}\" cannot strike site \"{site}\""
                )));
            }
            let at_us = field("at_us")?;
            let duration_us = field("duration_us")?;
            if at_us < 0.0 || duration_us <= 0.0 {
                return Err(PlanError::Invalid(format!(
                    "event {i}: times must be non-negative and duration positive"
                )));
            }
            let factor = match ev.get("factor").and_then(Json::as_f64) {
                Some(f) if kind.uses_factor() && f > 1.0 => f,
                Some(_) if kind.uses_factor() => {
                    return Err(PlanError::Invalid(format!(
                        "event {i}: factor must be > 1.0"
                    )))
                }
                Some(_) | None if kind.uses_factor() => {
                    return Err(PlanError::Invalid(format!(
                        "event {i}: kind \"{kind}\" requires \"factor\""
                    )))
                }
                _ => 1.0,
            };
            plan.push(FaultEvent {
                at: SimTime::from_nanos((at_us * 1_000.0) as u64),
                site,
                kind,
                duration: SimDuration::from_nanos((duration_us * 1_000.0) as u64),
                factor,
            });
        }
        Ok(plan)
    }
}

/// Names of the canned plans shipped with the repository (also under
/// `plans/*.json`), exercised by the CI fault matrix.
pub const CANNED_PLAN_NAMES: [&str; 4] =
    ["link-flap", "dma-timeout", "backend-brownout", "board-loss"];

/// Looks up a canned plan by name.
pub fn canned(name: &str) -> Option<FaultPlan> {
    match name {
        "link-flap" => Some(link_flap()),
        "dma-timeout" => Some(dma_timeout()),
        "backend-brownout" => Some(backend_brownout()),
        "board-loss" => Some(board_loss()),
        _ => None,
    }
}

fn event(
    at_us: u64,
    site: FaultSite,
    kind: FaultKind,
    duration_us: u64,
    factor: f64,
) -> FaultEvent {
    FaultEvent {
        at: SimTime::from_micros(at_us),
        site,
        kind,
        duration: SimDuration::from_micros(duration_us),
        factor,
    }
}

/// Canned plan: a PCIe link flap plus a hop-latency spike.
pub fn link_flap() -> FaultPlan {
    let mut plan = FaultPlan::new("link-flap");
    plan.push(event(300, FaultSite::Pcie, FaultKind::LinkFlap, 40, 1.0));
    plan.push(event(
        800,
        FaultSite::Pcie,
        FaultKind::LatencySpike,
        120,
        6.0,
    ));
    plan
}

/// Canned plan: DMA timeouts plus the other device-path faults —
/// mailbox stall, descriptor corruption, one dropped doorbell.
pub fn dma_timeout() -> FaultPlan {
    let mut plan = FaultPlan::new("dma-timeout");
    plan.push(event(250, FaultSite::Dma, FaultKind::DmaTimeout, 60, 1.0));
    plan.push(event(
        550,
        FaultSite::Mailbox,
        FaultKind::MailboxStall,
        25,
        1.0,
    ));
    plan.push(event(
        750,
        FaultSite::Vring,
        FaultKind::DescriptorCorrupt,
        30,
        1.0,
    ));
    plan.push(event(
        950,
        FaultSite::Doorbell,
        FaultKind::DroppedDoorbell,
        10,
        1.0,
    ));
    plan
}

/// Canned plan: vSwitch and block-store brownouts (graceful
/// degradation territory).
pub fn backend_brownout() -> FaultPlan {
    let mut plan = FaultPlan::new("backend-brownout");
    plan.push(event(
        200,
        FaultSite::VSwitch,
        FaultKind::Brownout,
        300,
        6.0,
    ));
    plan.push(event(
        650,
        FaultSite::BlockStore,
        FaultKind::Brownout,
        250,
        4.0,
    ));
    plan
}

/// Canned plan: compute-board power loss mid-run.
pub fn board_loss() -> FaultPlan {
    let mut plan = FaultPlan::new("board-loss");
    plan.push(event(400, FaultSite::Board, FaultKind::PowerLoss, 150, 1.0));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_plans_round_trip_through_json() {
        for name in CANNED_PLAN_NAMES {
            let plan = canned(name).unwrap();
            assert!(!plan.is_empty());
            let parsed = FaultPlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(parsed, plan, "{name} did not round-trip");
        }
        assert!(canned("no-such-plan").is_none());
    }

    #[test]
    fn events_stay_sorted_by_start_time() {
        let mut plan = FaultPlan::new("x");
        plan.push(event(500, FaultSite::Pcie, FaultKind::LinkFlap, 10, 1.0));
        plan.push(event(100, FaultSite::Dma, FaultKind::DmaTimeout, 10, 1.0));
        plan.push(event(300, FaultSite::Board, FaultKind::PowerLoss, 10, 1.0));
        let starts: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(starts, vec![100_000, 300_000, 500_000]);
        assert_eq!(plan.horizon(), SimTime::from_micros(510));
    }

    #[test]
    #[should_panic(expected = "cannot strike")]
    fn kind_site_mismatch_panics() {
        FaultPlan::new("bad").push(event(0, FaultSite::VSwitch, FaultKind::PowerLoss, 10, 1.0));
    }

    #[test]
    fn from_json_rejects_bad_plans() {
        let missing_factor = r#"{"name":"x","events":[
            {"at_us": 1, "site": "vswitch", "kind": "brownout", "duration_us": 5}
        ]}"#;
        assert!(matches!(
            FaultPlan::from_json(missing_factor),
            Err(PlanError::Invalid(_))
        ));
        let bad_site = r#"{"name":"x","events":[
            {"at_us": 1, "site": "gpu", "kind": "brownout", "duration_us": 5}
        ]}"#;
        assert!(FaultPlan::from_json(bad_site).is_err());
        let mismatch = r#"{"name":"x","events":[
            {"at_us": 1, "site": "dma", "kind": "power-loss", "duration_us": 5}
        ]}"#;
        assert!(FaultPlan::from_json(mismatch).is_err());
        assert!(matches!(
            FaultPlan::from_json("not json"),
            Err(PlanError::Json(_))
        ));
    }

    #[test]
    fn window_coverage_is_half_open() {
        let e = event(100, FaultSite::Pcie, FaultKind::LinkFlap, 50, 1.0);
        assert!(!e.covers(SimTime::from_micros(99)));
        assert!(e.covers(SimTime::from_micros(100)));
        assert!(e.covers(SimTime::from_micros(149)));
        assert!(!e.covers(SimTime::from_micros(150)));
    }
}
