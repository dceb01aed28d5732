//! Shadow vrings: the Fig. 4 synchronisation engine.
//!
//! "IO-Bond creates a ring buffer with both the bm-hypervisor and
//! bm-guest. The ring buffer with the bm-hypervisor (shadow vring) is
//! synchronized to the other ring buffer. When the data is added to one
//! ring buffer, it is copied to the other buffer by the DMA engine in
//! IO-Bond." (§3.4.1)
//!
//! [`ShadowQueue`] pairs the guest-side virtqueue (in compute-board RAM,
//! where IO-Bond acts as the *device*) with a shadow vring (in base RAM,
//! where IO-Bond acts as the *driver* and the bm-hypervisor's backend is
//! the device):
//!
//! ```text
//!  compute board RAM            IO-Bond                 base RAM
//!  ┌───────────────┐   pop_avail   ┌─────┐  add_buf   ┌─────────────┐
//!  │ guest vring   │ ────────────▶ │ DMA │ ─────────▶ │ shadow vring│
//!  │ (driver: bm-  │               │engine│           │ (device: bm-│
//!  │  guest kernel)│ ◀──────────── │     │ ◀───────── │  hypervisor)│
//!  └───────────────┘   push_used   └─────┘  poll_used └─────────────┘
//!        ▲ MSI                                    ▲ head/tail registers
//! ```
//!
//! Progress is exposed to the polling bm-hypervisor through the
//! head/tail register pair (§3.4.3): `head` counts chains posted into
//! the shadow ring, `tail` counts completions returned to the guest.

use crate::pool::StagingPool;
use crate::profile::IoBondProfile;
use bmhive_faults::{self as faults, FaultSite, RetryOp};
use bmhive_mem::{GuestAddr, GuestRam, SgList};
use bmhive_sim::{SimDuration, SimTime};
use bmhive_telemetry as telemetry;
use bmhive_virtio::{DescChain, QueueLayout, VirtioError, Virtqueue, VirtqueueDriver};
use std::collections::VecDeque;

/// How long the DMA engine waits before declaring a transfer timed out
/// and re-arming it (the per-transfer timeout of the recovery policy).
const DMA_STEP_TIMEOUT: SimDuration = SimDuration::from_micros(20);

/// What one board→base synchronisation pass accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Chains moved into the shadow ring this pass.
    pub chains: usize,
    /// Payload bytes DMA-copied board → base.
    pub bytes: u64,
    /// When the last DMA of the pass completes.
    pub done_at: SimTime,
}

/// A completion delivered back to the guest ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestCompletion {
    /// Head index in the *guest* ring.
    pub guest_head: u16,
    /// Bytes the backend wrote (virtio used-ring `len`).
    pub written: u32,
    /// When the completion (and its MSI) reaches the guest.
    pub at: SimTime,
}

/// A chain posted to the shadow ring and not yet completed.
#[derive(Debug)]
struct Inflight {
    guest_head: u16,
    guest_writable: SgList,
    /// The chain's whole staging run (`[table | readable | writable]`),
    /// handed back to the pool in one free on completion.
    staging: SgList,
    /// The writable view inside `staging`: where the backend's bytes
    /// wait for the copy-back.
    staging_writable: SgList,
}

/// One guest virtqueue paired with its shadow vring.
#[derive(Debug)]
pub struct ShadowQueue {
    profile: IoBondProfile,
    guest_vq: Virtqueue,
    shadow_driver: VirtqueueDriver,
    shadow_layout: QueueLayout,
    pool: StagingPool,
    /// In-flight chains, slab-indexed by shadow head. A shadow head is
    /// a descriptor index in a fixed-size ring, so the table never
    /// grows past the queue size and lookups are a direct index — no
    /// hashing, no rehash allocations under churn.
    inflight: Vec<Option<Inflight>>,
    inflight_len: usize,
    deferred: VecDeque<DescChain>,
    /// Reused head-half scratch for partial copy-backs.
    copy_src: SgList,
    copy_dst: SgList,
    /// Total DMA engine time consumed (for utilisation accounting).
    /// Transfers serialise *within* one synchronisation pass (one engine)
    /// but independent passes pipeline with the rest of the system.
    dma_busy: SimDuration,
    head_reg: u64,
    tail_reg: u64,
    /// EVENT_IDX poll window: after each scan the device publishes
    /// `avail_event = last_seen_avail + window - 1` into the guest ring,
    /// telling the driver "my poll loop will see anything you post
    /// within this window — don't kick". A poll-mode backend uses the
    /// whole ring; an interrupt-mode backend uses 1 (every publish
    /// kicks).
    event_window: u16,
    /// Latched escalation: a retry budget exhausted during a sync pass,
    /// pending pickup by [`take_escalation`](Self::take_escalation).
    escalated: Option<FaultSite>,
}

impl ShadowQueue {
    /// Creates a shadow pairing.
    ///
    /// * `guest_layout` — the queue the bm-guest programmed through the
    ///   virtio-pci frontend (in compute-board RAM).
    /// * `shadow_layout` — where the shadow ring lives in base RAM; must
    ///   have the same queue size.
    /// * `pool` — staging arena in base RAM for in-flight copies.
    /// * `base` — base RAM, to initialise the shadow ring.
    ///
    /// # Errors
    ///
    /// Fails if the shadow ring memory is outside base RAM.
    ///
    /// # Panics
    ///
    /// Panics if the two layouts have different queue sizes.
    pub fn new(
        profile: IoBondProfile,
        guest_layout: QueueLayout,
        shadow_layout: QueueLayout,
        pool: StagingPool,
        base: &mut GuestRam,
    ) -> Result<Self, VirtioError> {
        assert_eq!(
            guest_layout.size, shadow_layout.size,
            "guest and shadow rings must have equal size"
        );
        let shadow_driver = VirtqueueDriver::new(base, shadow_layout)?;
        Ok(ShadowQueue {
            profile,
            guest_vq: Virtqueue::new(guest_layout),
            shadow_driver,
            shadow_layout,
            pool,
            inflight: (0..shadow_layout.size).map(|_| None).collect(),
            inflight_len: 0,
            deferred: VecDeque::new(),
            copy_src: SgList::new(),
            copy_dst: SgList::new(),
            dma_busy: SimDuration::ZERO,
            head_reg: 0,
            tail_reg: 0,
            event_window: shadow_layout.size,
            escalated: None,
        })
    }

    /// An unrecovered (escalated) fault observed since the last
    /// [`take_escalation`](Self::take_escalation): the retry budget at
    /// that site was exhausted while the window still covered the
    /// operation, so the device path must treat it as needing a reset.
    pub fn take_escalation(&mut self) -> Option<FaultSite> {
        self.escalated.take()
    }

    /// Sets the EVENT_IDX poll window published after each scan (see
    /// the `event_window` field). Defaults to the full queue size — the
    /// deployed poll-mode discipline, where a doorbell only ever wakes
    /// an idle poller.
    pub fn set_event_window(&mut self, window: u16) {
        self.event_window = window.max(1);
    }

    /// The EVENT_IDX poll window currently published to the driver.
    pub fn event_window(&self) -> u16 {
        self.event_window
    }

    /// The shadow ring's layout in base RAM (the bm-hypervisor builds its
    /// device-side [`Virtqueue`] from this).
    pub fn shadow_layout(&self) -> QueueLayout {
        self.shadow_layout
    }

    /// The head register: chains posted into the shadow ring. The
    /// bm-hypervisor's PMD thread polls this over the base PCIe link.
    pub fn head_reg(&self) -> u64 {
        self.head_reg
    }

    /// The tail register: completions returned to the guest.
    pub fn tail_reg(&self) -> u64 {
        self.tail_reg
    }

    /// Fault-aware cost of one bm-hypervisor poll of the head/tail
    /// register pair at virtual time `now`.
    ///
    /// The registers are IO-Bond's mailbox toward the polling PMD
    /// thread (§3.4.3). With no plan armed this is exactly the base
    /// link's register access. Under an armed plan, a mailbox-stall
    /// window covering `now` blocks the read until the bounded-backoff
    /// retry loop outwaits it, and an active mailbox latency factor
    /// stretches the access itself.
    ///
    /// Also reports whether the bounded-backoff loop exhausted its
    /// budget without the stall clearing (`true` = escalated: the poll
    /// never went through and the device path must reset).
    pub fn register_poll_recovery_at(&self, now: SimTime) -> (SimDuration, bool) {
        let base = self.profile.base_register_access();
        if !faults::is_armed() {
            return (base, false);
        }
        let mut total = SimDuration::ZERO;
        let mut escalated = false;
        if faults::blocking_until(FaultSite::Mailbox, now).is_some() {
            let recovery = faults::retry_until_clear(RetryOp::MailboxHeadTail, now, base);
            total += recovery.waited;
            escalated = !recovery.recovered;
        }
        let factor = faults::latency_factor(FaultSite::Mailbox, now + total);
        let access = base.mul_f64(factor);
        if factor > 1.0 {
            faults::note_degraded(FaultSite::Mailbox, access - base);
        }
        (total + access, escalated)
    }

    /// Chains currently in flight (posted to shadow, not yet completed).
    pub fn inflight_count(&self) -> usize {
        self.inflight_len
    }

    /// Chains popped from the guest ring but stalled waiting for staging
    /// space (backpressure).
    pub fn deferred_count(&self) -> usize {
        self.deferred.len()
    }

    /// Synchronises board → base: pops posted chains from the guest ring,
    /// DMA-copies their device-readable payloads into staging, and posts
    /// equivalent chains (via one indirect descriptor each) into the
    /// shadow ring.
    ///
    /// # Errors
    ///
    /// Propagates guest ring-format errors ([`VirtioError`]); the bad
    /// chain is skipped, subsequent chains still flow.
    pub fn sync_to_shadow(
        &mut self,
        board: &GuestRam,
        base: &mut GuestRam,
        now: SimTime,
    ) -> Result<SyncReport, VirtioError> {
        let mut chains = 0usize;
        let mut bytes = 0u64;
        let mut done_at = now;
        // One DMA engine: transfers within this pass serialise.
        let mut dma_free = now;

        loop {
            // Deferred chains (backpressured earlier) go first.
            let chain = match self.deferred.pop_front() {
                Some(c) => c,
                None => match self.guest_vq.pop_avail(board)? {
                    Some(c) => c,
                    None => break,
                },
            };
            match self.stage_chain(board, base, chain, dma_free) {
                Ok((moved, finish)) => {
                    chains += 1;
                    bytes += moved;
                    done_at = done_at.max(finish);
                    dma_free = dma_free.max(finish);
                }
                Err(StageError::NoStaging(chain)) => {
                    // Park it and stop: staging frees on completion.
                    self.deferred.push_front(chain);
                    telemetry::counter("iobond.staging_backpressure", 1);
                    break;
                }
                Err(StageError::Virtio(e)) => return Err(e),
            }
        }
        if chains > 0 && telemetry::is_enabled() {
            telemetry::span_with(
                "iobond",
                "sync_to_shadow",
                now,
                done_at.saturating_duration_since(now),
                vec![("chains", (chains as u64).into()), ("bytes", bytes.into())],
            );
            telemetry::counter("iobond.chains_synced", chains as u64);
            telemetry::counter("iobond.bytes_to_shadow", bytes);
            telemetry::gauge_max("iobond.peak_inflight", self.inflight_len as f64);
            telemetry::gauge_max("iobond.peak_deferred", self.deferred.len() as f64);
        }
        Ok(SyncReport {
            chains,
            bytes,
            done_at,
        })
    }

    /// How long a DMA of `bytes` starting at `at` stalls: inside a
    /// DMA-timeout window the per-step timeout fires and `op` retries
    /// with backoff until the window clears; outside one, zero. A retry
    /// that never recovers escalates the DMA site.
    fn dma_timeout_stall(&mut self, op: RetryOp, at: SimTime, bytes: u64) -> SimDuration {
        if faults::blocking_until(FaultSite::Dma, at).is_none() {
            return SimDuration::ZERO;
        }
        let recovery = faults::retry_until_clear(
            op,
            at + DMA_STEP_TIMEOUT,
            self.profile.dma().transfer_time(bytes),
        );
        if !recovery.recovered {
            self.escalated = Some(FaultSite::Dma);
        }
        DMA_STEP_TIMEOUT + recovery.waited
    }

    /// Stages `chain` in one run of pool slots, laid out as its shadow
    /// indirect table, then its readable bytes, then its writable bytes:
    /// one [`StagingPool::alloc`] carved with [`SgList::split_at`], so a
    /// 64 B tx frame, a 2 KiB rx buffer or a 16 KiB block request takes
    /// one slot and one base page, table included.
    ///
    /// Each view can start mid-slot, so it can cross one more slot
    /// boundary than its own length needs: the table reserves
    /// `r_slots + w_slots + 2` entries. The table is written
    /// contiguously from the run's first byte, so it must fit the first
    /// slot. An empty chain, one bigger than the whole pool and one
    /// whose table would overflow its slot are refused before the pool
    /// is touched.
    ///
    /// Takes the chain by value so the guest-writable list moves into
    /// the inflight table instead of being cloned per chain; a
    /// backpressured chain is handed back inside
    /// [`StageError::NoStaging`].
    // The fat Err variant is the point: carrying the chain back beats
    // boxing it (an extra allocation on the backpressure path).
    #[allow(clippy::result_large_err)]
    fn stage_chain(
        &mut self,
        board: &GuestRam,
        base: &mut GuestRam,
        chain: DescChain,
        now: SimTime,
    ) -> Result<(u64, SimTime), StageError> {
        let r_len = chain.readable.total_len();
        let w_len = chain.writable.total_len();
        // Nothing to carry, and no descriptor to post it with.
        if r_len + w_len == 0 {
            return Err(StageError::Virtio(VirtioError::EmptyChain));
        }
        let slot_size = u64::from(self.pool.slot_size());
        let table_len = (r_len.div_ceil(slot_size) + w_len.div_ceil(slot_size) + 2) * 16;
        let run_len = table_len + r_len + w_len;
        // A chain bigger than the whole pool would wait forever at the
        // front of `deferred`: refuse it like any other malformed chain.
        let needed = run_len.div_ceil(slot_size);
        if needed > u64::from(self.pool.total_slots()) {
            return Err(StageError::Virtio(VirtioError::ChainTooLarge {
                needed,
                capacity: self.pool.total_slots(),
            }));
        }
        if table_len > slot_size {
            return Err(StageError::Virtio(VirtioError::BadIndirect(
                "shadow table larger than a staging slot",
            )));
        }
        let Some(staging) = self.pool.alloc(run_len) else {
            return Err(StageError::NoStaging(chain));
        };
        let table_addr = staging.segments()[0].addr;
        let (_, payload) = staging.split_at(table_len);
        let views = payload.split_at(r_len);
        // From here on every error hands the run back first.
        match self.post_staged(board, base, &chain, table_addr, &views, now) {
            Ok((shadow_head, moved, finish)) => {
                let slot = &mut self.inflight[usize::from(shadow_head)];
                debug_assert!(slot.is_none(), "shadow head reused while in flight");
                *slot = Some(Inflight {
                    guest_head: chain.head,
                    guest_writable: chain.writable,
                    staging,
                    staging_writable: views.1,
                });
                self.inflight_len += 1;
                self.head_reg += 1;
                Ok((moved, finish))
            }
            Err(e) => {
                self.pool.free(&staging);
                Err(StageError::Virtio(e))
            }
        }
    }

    /// Stages `chain` into the `(readable, writable)` views that
    /// [`stage_chain`](Self::stage_chain) carved: DMAs its readable
    /// payload board → base and posts the shadow chain, its indirect
    /// table at `table_addr`. Returns the shadow head, the bytes moved
    /// and when the DMA finishes.
    fn post_staged(
        &mut self,
        board: &GuestRam,
        base: &mut GuestRam,
        chain: &DescChain,
        table_addr: GuestAddr,
        (staging_readable, staging_writable): &(SgList, SgList),
        now: SimTime,
    ) -> Result<(u16, u64, SimTime), VirtioError> {
        let r_len = chain.readable.total_len();
        // Descriptor fetch: a corruption window makes the fetched
        // table fail its check, forcing one refetch.
        let mut now = now;
        if faults::corrupted(FaultSite::Vring, now) {
            let refetch = self.profile.dma().transfer_time(16);
            faults::note_degraded(FaultSite::Vring, refetch);
            now += refetch;
        }

        // DMA the readable payload board → base.
        let mut moved = 0u64;
        let mut finish = now;
        if r_len > 0 {
            now += self.dma_timeout_stall(RetryOp::DmaStageChain, now, r_len);
            let (n, cost) =
                self.profile
                    .dma()
                    .transfer(board, &chain.readable, base, staging_readable)?;
            moved = n;
            finish = now + cost;
            self.dma_busy += cost;
        }

        // Post the shadow chain through a single indirect descriptor.
        let shadow_head = self.shadow_driver.add_buf_indirect(
            base,
            table_addr,
            staging_readable.segments(),
            staging_writable.segments(),
        )?;
        Ok((shadow_head, moved, finish))
    }

    /// Synchronises base → board: reaps completions from the shadow
    /// ring, DMA-copies device-written payloads back into the guest's
    /// buffers, completes the guest ring, and bumps the tail register.
    /// Completions are written into `out` (cleared first — a poll-style
    /// buffer the caller reuses across passes so the steady state never
    /// allocates); the count is returned. Each completion's
    /// [`GuestCompletion::at`] includes its MSI into the guest; the
    /// caller latches the interrupt bit.
    ///
    /// # Errors
    ///
    /// Propagates ring-format and memory errors.
    pub fn sync_from_shadow(
        &mut self,
        board: &mut GuestRam,
        base: &GuestRam,
        now: SimTime,
        out: &mut Vec<GuestCompletion>,
    ) -> Result<usize, VirtioError> {
        out.clear();
        // One DMA engine: copy-backs within this pass serialise.
        let mut dma_free = now;
        while let Some((shadow_head, written)) = self.shadow_driver.poll_used(base)? {
            let inflight = self
                .inflight
                .get_mut(usize::from(shadow_head))
                .and_then(Option::take)
                .ok_or(VirtioError::BadHeadIndex(shadow_head))?;
            self.inflight_len -= 1;
            let mut finish = dma_free;
            let written = written.min(inflight.staging_writable.total_len() as u32);
            if written > 0 {
                // Copy-back rides the same DMA engine and its timeouts.
                dma_free +=
                    self.dma_timeout_stall(RetryOp::DmaCopyBack, dma_free, u64::from(written));
                // Copy only the bytes the backend produced. When the
                // backend filled the buffers completely (the common
                // case for sized requests), the inflight lists are used
                // as-is — no split, no new lists.
                let full = u64::from(written) == inflight.staging_writable.total_len()
                    && u64::from(written) >= inflight.guest_writable.total_len();
                let cost = if full {
                    self.profile
                        .dma()
                        .transfer(
                            base,
                            &inflight.staging_writable,
                            board,
                            &inflight.guest_writable,
                        )?
                        .1
                } else {
                    inflight
                        .staging_writable
                        .prefix_into(u64::from(written), &mut self.copy_src);
                    inflight.guest_writable.prefix_into(
                        u64::from(written).min(inflight.guest_writable.total_len()),
                        &mut self.copy_dst,
                    );
                    self.profile
                        .dma()
                        .transfer(base, &self.copy_src, board, &self.copy_dst)?
                        .1
                };
                finish = dma_free + cost;
                self.dma_busy += cost;
                dma_free = finish;
            }
            // Completing the guest ring is a posted write + MSI across
            // the guest link — the fault-aware path, so link flaps and
            // latency spikes reach session-stack completions too.
            finish += self.profile.guest_link().register_access_at(finish);
            self.guest_vq
                .push_used(board, inflight.guest_head, written)?;
            self.tail_reg += 1;
            self.pool.free(&inflight.staging);
            out.push(GuestCompletion {
                guest_head: inflight.guest_head,
                written,
                at: finish,
            });
        }
        // Publish the EVENT_IDX high-water mark (§2.6.7.2): the poll
        // loop has seen everything up to `last_avail_idx`, and the next
        // rescan will catch anything posted within `event_window` of it
        // — so kicks inside that window are pure overhead and the
        // driver suppresses them. Written into the used-ring tail, the
        // device-owned half of the guest ring, like any PMD would.
        let high_water = self
            .guest_vq
            .last_avail_idx()
            .wrapping_add(self.event_window)
            .wrapping_sub(1);
        self.guest_vq.set_avail_event(board, high_water)?;
        if !out.is_empty() && telemetry::is_enabled() {
            let last = out.iter().map(|c| c.at).max().unwrap_or(now);
            telemetry::span_with(
                "iobond",
                "sync_from_shadow",
                now,
                last.saturating_duration_since(now),
                vec![("completions", (out.len() as u64).into())],
            );
            telemetry::counter("iobond.completions", out.len() as u64);
        }
        Ok(out.len())
    }

    /// The guest-side virtqueue (device view), for inspection.
    pub fn guest_vq(&self) -> &Virtqueue {
        &self.guest_vq
    }

    /// Restores the guest-side virtqueue cursors after a device reset.
    ///
    /// Setting both cursors to the pre-failure *used* index makes the
    /// fresh epoch re-pop every chain the guest had posted but never
    /// saw completed — inflight replay — while chains completed before
    /// the failure stay completed.
    pub fn restore_guest_cursors(&mut self, last_avail_idx: u16, used_idx: u16) {
        self.guest_vq.restore_cursors(last_avail_idx, used_idx);
    }

    /// Total DMA-engine busy time so far.
    pub fn dma_busy(&self) -> SimDuration {
        self.dma_busy
    }
}

enum StageError {
    /// Staging pool exhausted; the chain comes back for re-parking.
    NoStaging(DescChain),
    Virtio(VirtioError),
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_mem::SgSegment;
    use bmhive_sim::SimRng;

    struct Rig {
        board: GuestRam,
        base: GuestRam,
        guest_driver: VirtqueueDriver,
        shadow: ShadowQueue,
        backend_vq: Virtqueue,
    }

    fn rig(queue_size: u16, pool_slots: u32) -> Rig {
        let mut board = GuestRam::new(1 << 20);
        let mut base = GuestRam::new(1 << 22);
        let guest_layout = QueueLayout::contiguous(GuestAddr::new(0x1000), queue_size);
        let shadow_layout = QueueLayout::contiguous(GuestAddr::new(0x1000), queue_size);
        let guest_driver = VirtqueueDriver::new(&mut board, guest_layout).unwrap();
        let pool = StagingPool::new(GuestAddr::new(0x10_0000), pool_slots, 4096);
        let shadow = ShadowQueue::new(
            IoBondProfile::fpga(),
            guest_layout,
            shadow_layout,
            pool,
            &mut base,
        )
        .unwrap();
        let backend_vq = Virtqueue::new(shadow.shadow_layout());
        Rig {
            board,
            base,
            guest_driver,
            shadow,
            backend_vq,
        }
    }

    impl Rig {
        /// The `len` bytes of board RAM at `addr`.
        fn board_bytes(&self, addr: GuestAddr, len: u64) -> Vec<u8> {
            let mut out = Vec::new();
            self.board.read_append(addr, len, &mut out).unwrap();
            out
        }

        /// The bytes `sg` covers in base RAM, in order.
        fn base_bytes(&self, sg: &SgList) -> Vec<u8> {
            let mut out = Vec::new();
            sg.gather_into(&self.base, &mut out).unwrap();
            out
        }

        /// Posts one readable buffer holding `payload` at `addr`;
        /// returns the guest head.
        fn post(&mut self, addr: GuestAddr, payload: &[u8]) -> u16 {
            self.board.write(addr, payload).unwrap();
            let seg = SgSegment::new(addr, payload.len() as u32);
            self.guest_driver
                .add_buf(&mut self.board, &[seg], &[])
                .unwrap()
        }

        /// The backend completes every shadow chain with nothing
        /// written; returns each chain's payload as it saw it.
        fn complete_all(&mut self) -> Vec<Vec<u8>> {
            let mut payloads = Vec::new();
            while let Some(chain) = self.backend_vq.pop_avail(&self.base).unwrap() {
                payloads.push(self.base_bytes(&chain.readable));
                self.backend_vq
                    .push_used(&mut self.base, chain.head, 0)
                    .unwrap();
            }
            payloads
        }

        /// Copies completions back to the guest, which reaps them.
        fn finish(&mut self, now: SimTime) {
            let (board, base) = (&mut self.board, &self.base);
            self.shadow
                .sync_from_shadow(board, base, now, &mut Vec::new())
                .unwrap();
            while self.guest_driver.poll_used(&self.board).unwrap().is_some() {}
        }
    }

    #[test]
    fn tx_payload_crosses_memory_domains() {
        let mut r = rig(8, 16);
        r.post(GuestAddr::new(0x8000), b"tx-data");
        let report = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        assert_eq!(report.chains, 1);
        assert_eq!(report.bytes, 7);
        assert!(report.done_at > SimTime::ZERO);
        assert_eq!(r.shadow.head_reg(), 1);
        // Backend sees the payload in BASE memory.
        let chain = r.backend_vq.pop_avail(&r.base).unwrap().unwrap();
        assert_eq!(r.base_bytes(&chain.readable), b"tx-data");
        // Random batch patterns: every payload reaches the backend
        // bit-exact, in order, exactly once.
        for seed in 0..64 {
            let mut rng = SimRng::with_stream(seed, 0x7a10);
            let mut r = rig(32, 256);
            let (mut sent, mut received) = (Vec::new(), Vec::new());
            for batch in 1..=rng.range(1, 12) {
                for _ in 0..rng.range(1, 5) {
                    let n = sent.len() as u64;
                    let payload = format!("payload-{n:06}").into_bytes();
                    r.post(GuestAddr::new(0x8000 + (n % 64) * 256), &payload);
                    sent.push(payload);
                }
                let now = SimTime::from_micros(10 * batch);
                r.shadow.sync_to_shadow(&r.board, &mut r.base, now).unwrap();
                received.extend(r.complete_all());
                r.finish(now);
            }
            assert_eq!(received, sent, "seed {seed}");
            let n = sent.len() as u64;
            let regs = (r.shadow.head_reg(), r.shadow.tail_reg());
            assert_eq!(
                (r.shadow.inflight_count(), regs),
                (0, (n, n)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn rx_completion_round_trip_with_response_data() {
        let mut r = rig(8, 16);
        // Guest posts a writable (rx) buffer.
        let guest_head = r
            .guest_driver
            .add_buf(
                &mut r.board,
                &[],
                &[SgSegment::new(GuestAddr::new(0x9000), 64)],
            )
            .unwrap();
        r.shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        // Backend fills the staging buffer and completes.
        let chain = r.backend_vq.pop_avail(&r.base).unwrap().unwrap();
        chain.writable.scatter(&mut r.base, b"rx-packet").unwrap();
        r.backend_vq.push_used(&mut r.base, chain.head, 9).unwrap();
        // IO-Bond copies back and completes the guest ring.
        let mut completions = Vec::new();
        let n = r
            .shadow
            .sync_from_shadow(
                &mut r.board,
                &r.base,
                SimTime::from_micros(10),
                &mut completions,
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].guest_head, guest_head);
        assert_eq!(completions[0].written, 9);
        assert!(completions[0].at > SimTime::from_micros(10));
        assert_eq!(r.shadow.tail_reg(), 1);
        // Guest reaps and sees the data in BOARD memory.
        assert_eq!(
            r.guest_driver.poll_used(&r.board).unwrap(),
            Some((guest_head, 9))
        );
        assert_eq!(r.board_bytes(GuestAddr::new(0x9000), 9), b"rx-packet");
        // Random buffer sizes and response lengths: the guest sees
        // exactly the bytes the backend produced, in its own buffer.
        for seed in 0..64 {
            let mut rng = SimRng::with_stream(seed, 0x7e5b);
            let mut r = rig(32, 256);
            for i in 0..rng.range(1, 20) {
                let buf_len = rng.range(1, 2048) as u32;
                let produce = (rng.below(2048) as u32).min(buf_len);
                let addr = GuestAddr::new(0x8000 + (i % 16) * 4096);
                let seg = SgSegment::new(addr, buf_len);
                let head = r.guest_driver.add_buf(&mut r.board, &[], &[seg]).unwrap();
                let now = SimTime::from_micros(10 * (i + 1));
                r.shadow.sync_to_shadow(&r.board, &mut r.base, now).unwrap();
                let chain = r.backend_vq.pop_avail(&r.base).unwrap().unwrap();
                let data: Vec<u8> = (0..produce).map(|_| rng.next_u32() as u8).collect();
                chain.writable.scatter(&mut r.base, &data).unwrap();
                r.backend_vq
                    .push_used(&mut r.base, chain.head, produce)
                    .unwrap();
                let mut completions = Vec::new();
                r.shadow
                    .sync_from_shadow(&mut r.board, &r.base, now, &mut completions)
                    .unwrap();
                assert_eq!(completions.len(), 1, "seed {seed}");
                assert_eq!(completions[0].written, produce, "seed {seed}");
                let reaped = r.guest_driver.poll_used(&r.board).unwrap();
                assert_eq!(reaped, Some((head, produce)), "seed {seed}");
                let got = r.board_bytes(addr, u64::from(produce));
                assert_eq!(got, data, "seed {seed}");
            }
        }
    }

    #[test]
    fn staging_is_freed_after_completion() {
        let mut r = rig(8, 16);
        let mut completions = Vec::new();
        for round in 0..20 {
            let head = r.post(GuestAddr::new(0x8000), b"abcd");
            r.shadow
                .sync_to_shadow(&r.board, &mut r.base, SimTime::from_micros(round))
                .unwrap();
            let chain = r.backend_vq.pop_avail(&r.base).unwrap().unwrap();
            r.backend_vq.push_used(&mut r.base, chain.head, 0).unwrap();
            r.shadow
                .sync_from_shadow(
                    &mut r.board,
                    &r.base,
                    SimTime::from_micros(round),
                    &mut completions,
                )
                .unwrap();
            assert_eq!(r.guest_driver.poll_used(&r.board).unwrap(), Some((head, 0)));
        }
        assert_eq!(r.shadow.inflight_count(), 0);
        assert_eq!(r.shadow.head_reg(), 20);
        assert_eq!(r.shadow.tail_reg(), 20);
        // Random post and completion patterns: both registers are
        // monotone and the tail never passes the head.
        for seed in 0..64 {
            let mut rng = SimRng::with_stream(seed, 0x4e7a);
            let mut r = rig(16, 128);
            let mut posted = 0;
            for i in 0..rng.range(1, 60) {
                let now = SimTime::from_micros(i * 10);
                let (head, tail) = (r.shadow.head_reg(), r.shadow.tail_reg());
                if rng.chance(0.5) && r.guest_driver.num_free() > 0 {
                    r.post(GuestAddr::new(0x8000 + (posted % 32) * 64), &[0xab; 16]);
                    posted += 1;
                }
                r.shadow.sync_to_shadow(&r.board, &mut r.base, now).unwrap();
                if rng.chance(0.5) {
                    r.complete_all();
                }
                r.finish(now);
                assert!(r.shadow.head_reg() >= head, "seed {seed}");
                assert!(r.shadow.tail_reg() >= tail, "seed {seed}");
                assert!(r.shadow.tail_reg() <= r.shadow.head_reg(), "seed {seed}");
            }
            assert_eq!(r.shadow.head_reg(), posted, "seed {seed}");
        }
    }

    #[test]
    fn pool_exhaustion_defers_without_loss() {
        // Pool with room for exactly one chain (1 slot: table+payload).
        let mut r = rig(8, 1);
        for i in 0..3 {
            r.post(GuestAddr::new(0x8000 + i * 0x100), b"xxxx");
        }
        let report = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        assert_eq!(report.chains, 1);
        // One chain parked; the third is still unpopped in the guest ring.
        assert_eq!(r.shadow.deferred_count(), 1);
        // Complete the first; the deferred ones flow on the next sync.
        let chain = r.backend_vq.pop_avail(&r.base).unwrap().unwrap();
        r.backend_vq.push_used(&mut r.base, chain.head, 0).unwrap();
        r.shadow
            .sync_from_shadow(&mut r.board, &r.base, SimTime::ZERO, &mut Vec::new())
            .unwrap();
        let report = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        assert_eq!(report.chains, 1);
        assert_eq!(r.shadow.deferred_count(), 1);
        // Two slots stage two such chains in one pass.
        let mut r = rig(8, 2);
        for i in 0..3 {
            r.post(GuestAddr::new(0x8000 + i * 0x100), b"xxxx");
        }
        let report = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        assert_eq!((report.chains, r.shadow.deferred_count()), (2, 1));
        // Under any starved pool nothing is lost or duplicated: chains
        // only arrive later.
        for seed in 0..64 {
            let mut rng = SimRng::with_stream(seed, 0x57a2);
            let n = rng.range(1, 20);
            let mut r = rig(32, rng.range(2, 6) as u32);
            for i in 0..n {
                r.post(GuestAddr::new(0x8000 + i * 128), &i.to_le_bytes());
            }
            let mut seen = Vec::new();
            // Cycle sync / complete until everything lands (bounded).
            for round in 0..200 {
                if seen.len() as u64 == n {
                    break;
                }
                let now = SimTime::from_micros(round);
                r.shadow.sync_to_shadow(&r.board, &mut r.base, now).unwrap();
                let payloads = r.complete_all().into_iter();
                seen.extend(payloads.map(|b| u64::from_le_bytes(b.try_into().unwrap())));
                r.finish(now);
            }
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "seed {seed}");
            let left = (r.shadow.deferred_count(), r.shadow.inflight_count());
            assert_eq!(left, (0, 0), "seed {seed}");
        }
    }

    #[test]
    fn dma_serialization_orders_transfers() {
        let mut r = rig(8, 32);
        // Two large-ish chains at the same instant: the second DMA starts
        // after the first.
        for i in 0..2u64 {
            let addr = GuestAddr::new(0x8000 + i * 0x2000);
            r.board.fill(addr, 4096, 0x5a).unwrap();
            r.guest_driver
                .add_buf(&mut r.board, &[SgSegment::new(addr, 4096)], &[])
                .unwrap();
        }
        let report = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        assert_eq!(report.chains, 2);
        // 2 × (setup + 4096B at 50 Gbit/s ≈ 0.66 µs + 0.25 µs) ≥ 1.8 µs.
        assert!(
            report.done_at > SimTime::from_nanos(1_700),
            "done_at {}",
            report.done_at
        );
        assert!(r.shadow.dma_busy() > SimDuration::from_nanos(1_700));
    }

    #[test]
    fn empty_sync_is_a_noop() {
        let mut r = rig(8, 16);
        let report = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        assert_eq!(report.chains, 0);
        assert_eq!(report.bytes, 0);
        let mut completions = vec![GuestCompletion {
            guest_head: 7,
            written: 7,
            at: SimTime::ZERO,
        }];
        let n = r
            .shadow
            .sync_from_shadow(&mut r.board, &r.base, SimTime::ZERO, &mut completions)
            .unwrap();
        assert_eq!(n, 0);
        assert!(completions.is_empty(), "stale entries are cleared");
    }

    #[test]
    fn full_buffer_completion_round_trips() {
        let mut r = rig(8, 16);
        // Backend fills the rx buffer completely: the copy-back takes
        // the no-split fast path and must behave identically.
        let guest_head = r
            .guest_driver
            .add_buf(
                &mut r.board,
                &[],
                &[SgSegment::new(GuestAddr::new(0x9000), 8)],
            )
            .unwrap();
        r.shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        let chain = r.backend_vq.pop_avail(&r.base).unwrap().unwrap();
        chain.writable.scatter(&mut r.base, b"12345678").unwrap();
        r.backend_vq.push_used(&mut r.base, chain.head, 8).unwrap();
        let mut completions = Vec::new();
        r.shadow
            .sync_from_shadow(
                &mut r.board,
                &r.base,
                SimTime::from_micros(5),
                &mut completions,
            )
            .unwrap();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].written, 8);
        assert_eq!(
            r.guest_driver.poll_used(&r.board).unwrap(),
            Some((guest_head, 8))
        );
        assert_eq!(r.board_bytes(GuestAddr::new(0x9000), 8), b"12345678");
    }

    #[test]
    fn register_poll_is_identity_when_unarmed() {
        let r = rig(8, 16);
        faults::disarm();
        assert_eq!(
            r.shadow
                .register_poll_recovery_at(SimTime::from_micros(3))
                .0,
            IoBondProfile::fpga().base_register_access()
        );
    }

    #[test]
    fn mailbox_stall_blocks_the_head_tail_poll() {
        let r = rig(8, 16);
        let mut plan = bmhive_faults::FaultPlan::new("mailbox-test");
        plan.push(bmhive_faults::FaultEvent::window(
            SimTime::from_micros(100),
            FaultSite::Mailbox,
            bmhive_faults::FaultKind::MailboxStall,
            SimDuration::from_micros(40),
        ));
        faults::arm(plan, 11);
        let base = IoBondProfile::fpga().base_register_access();
        // Before the window: untouched.
        assert_eq!(
            r.shadow
                .register_poll_recovery_at(SimTime::from_micros(50))
                .0,
            base
        );
        // During the stall: the poll waits out the window (plus the
        // access itself).
        let stalled = r
            .shadow
            .register_poll_recovery_at(SimTime::from_micros(110))
            .0;
        assert!(
            stalled >= SimDuration::from_micros(30) + base,
            "stalled poll was only {stalled}"
        );
        let stats = faults::disarm().unwrap();
        assert!(stats.injected(FaultSite::Mailbox, faults::FaultKind::MailboxStall) > 0);
        assert_eq!(stats.site(FaultSite::Mailbox).recovered, 1);
    }

    #[test]
    fn event_idx_high_water_suppresses_mid_poll_kicks() {
        let mut r = rig(8, 16);
        // Fresh ring: avail_event is 0, so the very first publish must
        // kick (need_event(0, 1, 0) holds).
        let old = r.guest_driver.avail_idx();
        r.post(GuestAddr::new(0x8000), b"first");
        assert!(r.guest_driver.kick_needed_event_idx(&r.board, old).unwrap());
        // One full service pass: scan + publish the high-water mark.
        r.shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        r.shadow
            .sync_from_shadow(&mut r.board, &r.base, SimTime::ZERO, &mut Vec::new())
            .unwrap();
        // Every post that lands inside the poll window is now
        // kick-free: the PMD was going to see the descriptors anyway.
        for i in 0..4u64 {
            let old = r.guest_driver.avail_idx();
            r.post(GuestAddr::new(0x8100 + i * 0x100), b"next");
            assert!(
                !r.guest_driver.kick_needed_event_idx(&r.board, old).unwrap(),
                "post {i} inside the poll window still wanted a kick"
            );
        }
        // An interrupt-mode window of 1 re-enables kicks on the next
        // publish after a scan.
        r.shadow.set_event_window(1);
        r.shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        r.shadow
            .sync_from_shadow(&mut r.board, &r.base, SimTime::ZERO, &mut Vec::new())
            .unwrap();
        let old = r.guest_driver.avail_idx();
        r.post(GuestAddr::new(0x9000), b"irq");
        assert!(r.guest_driver.kick_needed_event_idx(&r.board, old).unwrap());
    }

    /// Publishes guest descriptor `index`, one readable segment `seg`, as
    /// the next avail entry, behind the guest driver's back, so one chain
    /// can be published any number of times.
    fn forge(board: &mut GuestRam, index: u16, seg: SgSegment) {
        let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 8);
        let desc = layout.desc + u64::from(index) * 16;
        board.write_u64(desc, seg.addr.value()).unwrap();
        board.write_u32(desc + 8, seg.len).unwrap();
        board.write_u16(desc + 12, 0).unwrap();
        let idx = board.read_u16(layout.avail + 2).unwrap();
        let slot = layout.avail + 4 + 2 * u64::from(idx % layout.size);
        board.write_u16(slot, index).unwrap();
        board
            .write_u16(layout.avail + 2, idx.wrapping_add(1))
            .unwrap();
    }

    /// An honest chain published after a bad one is staged and reaches
    /// the backend intact.
    fn assert_honest_chain_flows(r: &mut Rig) {
        r.board.write(GuestAddr::new(0x8000), b"honest").unwrap();
        forge(&mut r.board, 1, SgSegment::new(GuestAddr::new(0x8000), 6));
        let report = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        assert_eq!((report.chains, r.shadow.deferred_count()), (1, 0));
        assert_eq!(r.complete_all(), vec![b"honest".to_vec()]);
    }

    #[test]
    fn failed_chains_hand_their_staging_back() {
        let mut r = rig(8, 64);
        // The segment lies past the end of the 1 MiB board: the DMA
        // fails after the chain's staging run was taken.
        let outside = SgSegment::new(GuestAddr::new(2 << 20), 64);
        for _ in 0..1000 {
            forge(&mut r.board, 0, outside);
            let err = r
                .shadow
                .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
                .unwrap_err();
            assert!(matches!(err, VirtioError::Mem(_)), "{err}");
            assert_eq!(r.shadow.pool.free_count(), 64);
        }
        assert_eq!(r.shadow.inflight_count(), 0);
        assert_honest_chain_flows(&mut r);
    }

    #[test]
    fn chain_larger_than_the_pool_is_refused() {
        let mut r = rig(8, 16);
        // One forged 4 GiB descriptor needs a million 4 KiB slots; a
        // deferral would park it at the head of the queue for good.
        forge(
            &mut r.board,
            0,
            SgSegment::new(GuestAddr::new(0x8000), u32::MAX),
        );
        let err = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap_err();
        let needed = u64::from(u32::MAX).div_ceil(4096) + 4097;
        assert_eq!(
            err,
            VirtioError::ChainTooLarge {
                needed,
                capacity: 16
            }
        );
        assert_eq!(r.shadow.deferred_count(), 0);
        assert_eq!(r.shadow.pool.free_count(), 16);
        assert_honest_chain_flows(&mut r);
    }

    #[test]
    fn zero_length_chain_is_refused() {
        let mut r = rig(8, 16);
        // One forged zero-length descriptor: no bytes to stage, and no
        // segment to build a shadow chain from.
        forge(&mut r.board, 0, SgSegment::new(GuestAddr::new(0x8000), 0));
        let err = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, VirtioError::EmptyChain);
        assert_eq!(r.shadow.pool.free_count(), 16);
        assert_eq!(
            (r.shadow.deferred_count(), r.shadow.inflight_count()),
            (0, 0)
        );
        assert_honest_chain_flows(&mut r);
    }

    #[test]
    fn table_larger_than_its_slot_is_refused() {
        // 255 slots of readable bytes need a 257-entry table: 4,112
        // bytes, one entry more than a 4 KiB slot holds.
        let mut r = rig(8, 300);
        forge(
            &mut r.board,
            0,
            SgSegment::new(GuestAddr::new(0), 255 * 4096),
        );
        let err = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, VirtioError::BadIndirect(_)), "{err}");
        assert_eq!(r.shadow.pool.free_count(), 300);
        assert_eq!(r.shadow.deferred_count(), 0);
        assert_honest_chain_flows(&mut r);
        // One slot less fills the first slot exactly and is staged.
        let mut r = rig(8, 300);
        forge(
            &mut r.board,
            0,
            SgSegment::new(GuestAddr::new(0), 254 * 4096),
        );
        let report = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        assert_eq!((report.chains, report.bytes), (1, 254 * 4096));
        assert_eq!(r.shadow.pool.free_count(), 300 - 255);
    }

    #[test]
    fn a_small_chain_takes_one_slot_and_one_page() {
        let mut r = rig(8, 16);
        // A 64 B readable chain: table and payload share one page.
        let (slots, pages) = (r.shadow.pool.free_count(), r.base.resident_pages());
        r.post(GuestAddr::new(0x8000), &[0x64; 64]);
        r.shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.shadow.pool.free_count(), slots - 1);
        assert_eq!(r.base.resident_pages(), pages + 1);
        assert_eq!(r.complete_all(), vec![vec![0x64; 64]]);
        r.finish(SimTime::ZERO);
        assert_eq!(r.shadow.pool.free_count(), slots);
        // A 2 KiB writable chain on a fresh pool: the backend's bytes
        // land on the page the table already made resident.
        let mut r = rig(8, 16);
        let pages = r.base.resident_pages();
        let buf = GuestAddr::new(0x9000);
        let head = r
            .guest_driver
            .add_buf(&mut r.board, &[], &[SgSegment::new(buf, 2048)])
            .unwrap();
        r.shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.shadow.pool.free_count(), slots - 1);
        let chain = r.backend_vq.pop_avail(&r.base).unwrap().unwrap();
        chain.writable.scatter(&mut r.base, &[0x2b; 2048]).unwrap();
        assert_eq!(r.base.resident_pages(), pages + 1);
        r.backend_vq
            .push_used(&mut r.base, chain.head, 2048)
            .unwrap();
        r.shadow
            .sync_from_shadow(&mut r.board, &r.base, SimTime::ZERO, &mut Vec::new())
            .unwrap();
        assert_eq!(
            r.guest_driver.poll_used(&r.board).unwrap(),
            Some((head, 2048))
        );
        assert_eq!(r.board_bytes(buf, 2048), vec![0x2b; 2048]);
        assert_eq!(r.shadow.pool.free_count(), slots);
    }

    #[test]
    fn views_straddling_slots_keep_their_bytes() {
        let mut r = rig(8, 16);
        // A neighbour staged first stays in flight throughout.
        let neighbour: Vec<u8> = (0..64).map(|i| 0xa0 ^ i).collect();
        r.post(GuestAddr::new(0x8000), &neighbour);
        // 4,096 readable and 4,097 writable bytes behind an 80-byte
        // table: both views cross a 4 KiB slot boundary.
        let (src, dst) = (GuestAddr::new(0x1_0000), GuestAddr::new(0x2_0000));
        let sent: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        r.board.write(src, &sent).unwrap();
        let head = r
            .guest_driver
            .add_buf(
                &mut r.board,
                &[SgSegment::new(src, 4096)],
                &[SgSegment::new(dst, 4097)],
            )
            .unwrap();
        let report = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        assert_eq!(report.chains, 2);
        let first = r.backend_vq.pop_avail(&r.base).unwrap().unwrap();
        let chain = r.backend_vq.pop_avail(&r.base).unwrap().unwrap();
        assert_eq!((chain.readable.len(), chain.writable.len()), (2, 2));
        // The backend gathers the exact readable bytes.
        assert_eq!(r.base_bytes(&chain.readable), sent);
        // The shadow table holds its four entries and ends before the
        // readable view begins.
        let desc = r.shadow.shadow_layout().desc + u64::from(chain.head) * 16;
        let table_addr = r.base.read_u64(desc).unwrap();
        let table_len = r.base.read_u32(desc + 8).unwrap();
        assert_eq!(table_len, 4 * 16);
        assert!(table_addr + u64::from(table_len) <= chain.readable.segments()[0].addr.value());
        // The copy-back lands the exact writable bytes.
        let reply: Vec<u8> = (0..4097u32).map(|i| (i % 241) as u8 ^ 0x5a).collect();
        chain.writable.scatter(&mut r.base, &reply).unwrap();
        r.backend_vq
            .push_used(&mut r.base, chain.head, 4097)
            .unwrap();
        let mut completions = Vec::new();
        r.shadow
            .sync_from_shadow(&mut r.board, &r.base, SimTime::ZERO, &mut completions)
            .unwrap();
        assert_eq!(completions.len(), 1);
        assert_eq!(
            r.guest_driver.poll_used(&r.board).unwrap(),
            Some((head, 4097))
        );
        assert_eq!(r.board_bytes(dst, 4097), reply);
        // The neighbour's staging bytes are untouched.
        assert_eq!(r.shadow.inflight_count(), 1);
        assert_eq!(r.base_bytes(&first.readable), neighbour);
        r.backend_vq.push_used(&mut r.base, first.head, 0).unwrap();
        r.finish(SimTime::ZERO);
        assert_eq!(r.shadow.pool.free_count(), 16);
    }

    #[test]
    fn malformed_guest_chain_surfaces_as_error() {
        let mut r = rig(8, 16);
        let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 8);
        // Forge an avail entry pointing at a bogus head.
        r.board.write_u16(layout.avail + 4, 200).unwrap();
        r.board.write_u16(layout.avail + 2, 1).unwrap();
        let err = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, VirtioError::BadHeadIndex(200));
        // The queue is not wedged: subsequent syncs succeed.
        let report = r
            .shadow
            .sync_to_shadow(&r.board, &mut r.base, SimTime::ZERO)
            .unwrap();
        assert_eq!(report.chains, 0);
    }
}
