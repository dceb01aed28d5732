//! Deterministic fault injection and recovery for the BM-Hive model.
//!
//! BM-Hive's bm-hypervisor "manages the life cycle of all its
//! bm-guests" — device resets, backend death, hot upgrade (§3.5 of the
//! paper). This crate makes those failure scenarios *scripted and
//! replayable* instead of ad-hoc: a [`FaultPlan`] lists seeded,
//! virtual-time fault events (`{at, site, kind, duration, factor}`),
//! and injection sites threaded through `pcie`, `iobond`, `hypervisor`,
//! and `cloud` consult the plan [`arm`] installs in thread-local storage
//! on every affected operation.
//!
//! # Sites and kinds
//!
//! | site | kinds | recovery policy |
//! |------|-------|-----------------|
//! | `pcie` | link flap, latency spike | retry w/ backoff; absorb spike |
//! | `dma` | DMA timeout | per-step timeout, retry w/ backoff |
//! | `mailbox` | mailbox stall | retry w/ backoff |
//! | `vring` | descriptor corruption | detect + refetch |
//! | `doorbell` | dropped doorbell | poll-timeout + re-notify |
//! | `board` | power loss | needs-reset → re-handshake → replay |
//! | `vswitch` | brownout | queue-depth shedding + absorb |
//! | `blockstore` | brownout | absorb, count degradation |
//!
//! # Determinism contract
//!
//! Same seed + same plan ⇒ byte-identical trace. Three rules make this
//! hold: fault windows are expressed in virtual time only (no wall
//! clock); backoff jitter comes from a dedicated [`bmhive_sim::SimRng`]
//! stream forked from the run seed (caller RNG streams are never
//! touched); one-shot faults carry a consumed flag so they fire exactly
//! once regardless of how often a site polls. The repro binary's
//! `--faults` flag arms a plan for a whole run, and the CI fault matrix
//! `cmp`s two traced runs per canned plan to enforce the contract.
//!
//! When no plan is armed every injection hook is a single thread-local
//! flag load returning the identity answer, so fault-free runs are
//! unchanged down to the nanosecond. The whole injector is scoped
//! per-thread: a parallel sweep [`arm`]s one plan per worker and cells
//! never observe a sibling's plan.

#![warn(missing_docs)]

pub mod inject;
pub mod plan;
pub mod retry;

pub use inject::{
    absorb_stats, arm, armed_plan, armed_plan_name, blocking_until, corrupted, disarm, is_armed,
    latency_factor, note_degraded, note_replayed, note_reset, note_shed, retry_until_clear, stats,
    take_oneshot, FaultStats, Recovery, RetryOp, SiteStats, COMPONENT,
};
pub use plan::{
    backend_brownout, board_loss, canned, dma_timeout, link_flap, FaultEvent, FaultKind, FaultPlan,
    FaultSite, PlanError, CANNED_PLAN_NAMES,
};
