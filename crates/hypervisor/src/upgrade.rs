//! Live bm-hypervisor upgrade (§6, after Orthus \[34\]).
//!
//! "The design of BM-Hive makes it straightforward to apply the live
//! upgrade approach proposed in Orthus because it is mostly a subset of
//! the full VMM software stack." The bm-hypervisor is a per-guest
//! user-space process whose only shared state with the guest is the
//! shadow vrings and the head/tail registers in IO-Bond — all of which
//! survive a process restart. [`BmGuestSession::live_upgrade`] runs it
//! on the session's own backend:
//!
//! 1. **Quiesce**: stop polling; let in-flight backend operations drain.
//! 2. **Snapshot**: capture the backend's ring cursors
//!    ([`BackendState`], one per ring).
//! 3. **Exec** the new binary: rebuild the backend from the snapshot.
//! 4. **Resume** polling where the old process stopped.
//!
//! The guest never notices: its virtqueues live in board RAM and
//! IO-Bond's hardware keeps accepting descriptors; the pause only delays
//! completion of requests that arrive during the window.
//!
//! [`BmGuestSession::live_upgrade`]: crate::BmGuestSession::live_upgrade

use bmhive_sim::{SimDuration, SimTime};
use bmhive_virtio::QueueLayout;

/// The serialisable state of one backend virtqueue consumer — what
/// Orthus-style upgrade hands from the old process to the new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendState {
    /// The shadow ring's layout in base memory.
    pub layout: QueueLayout,
    /// The device-side avail cursor.
    pub last_avail_idx: u16,
    /// The device-side used index.
    pub used_idx: u16,
}

/// Report of one live upgrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpgradeReport {
    /// When polling stopped.
    pub quiesced_at: SimTime,
    /// When the new version resumed polling.
    pub resumed_at: SimTime,
    /// The service pause the guest's I/O could observe.
    pub pause: SimDuration,
    /// The net rx, net tx and blk ring state handed to the new process.
    pub state: [BackendState; 3],
}

/// Time to drain in-flight operations and snapshot state.
const QUIESCE_COST: SimDuration = SimDuration::from_micros(200);
/// Time to exec the new binary and rebuild its tables (Orthus reports
/// millisecond-scale VMM live-upgrade pauses).
const EXEC_COST: SimDuration = SimDuration::from_millis(3);

impl UpgradeReport {
    /// An upgrade that starts at `now` and hands over `state`.
    pub(crate) fn new(now: SimTime, state: [BackendState; 3]) -> Self {
        let quiesced_at = now + QUIESCE_COST;
        let resumed_at = quiesced_at + EXEC_COST;
        UpgradeReport {
            quiesced_at,
            resumed_at,
            pause: resumed_at.saturating_duration_since(now),
            state,
        }
    }
}
