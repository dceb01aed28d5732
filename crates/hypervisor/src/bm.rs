//! One bm-guest and its bm-hypervisor backend process.
//!
//! [`BmGuestSession`] is a [`GuestSession`] over [`IoBond`], and wires
//! together everything §3.3 describes for one guest: the compute
//! board's RAM with the guest's virtio driver rings, two IO-Bond
//! devices (net + blk) bridging to shadow vrings in the bm-hypervisor
//! process's base RAM, poll-mode backends consuming the shadow rings,
//! the instance rate limits, and the cloud services. Every packet and
//! block request really crosses both memory domains through the rings —
//! no shortcut paths. Only IO-Bond is here: the EVENT_IDX kick, the
//! shadow-ring sync and PMD poll, the MSI completion, and board
//! power-loss recovery; the op sequence is the session's.

use crate::session::{phase, Backend, GuestDriver, GuestSession, Marks, Queue, Transport};
use crate::upgrade::UpgradeReport;
use crate::SessionError;
use bmhive_cloud::limits::InstanceLimits;
use bmhive_faults::{self as faults, FaultKind, FaultSite};
use bmhive_iobond::{IoBondDevice, IoBondProfile, ServiceReport};
use bmhive_mem::{GuestAddr, GuestRam};
use bmhive_net::MacAddr;
use bmhive_sim::SimTime;
use bmhive_telemetry as telemetry;
use bmhive_virtio::{DeviceType, Feature, QueueLayout};

/// Queue indices on the net device.
const RX_Q: usize = 0;
const TX_Q: usize = 1;

/// One bm-guest with its dedicated bm-hypervisor process.
pub type BmGuestSession = GuestSession<IoBond>;

/// Outcome of one board power-loss recovery (see
/// [`BmGuestSession::poll_faults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoardOutage {
    /// When both devices were re-handshaken and live again.
    pub recovered_at: SimTime,
    /// Chains that were inflight at the loss and replayed after it.
    pub replayed_chains: u64,
}

/// The IO-Bond transport: two IO-Bond devices (net + blk) bridging the
/// guest's rings in board RAM to shadow rings in the bm-hypervisor
/// process's base RAM, where the poll-mode backend consumes them. Its
/// DMA engine moves the data, so the backend CPU copies none.
#[derive(Debug)]
pub struct IoBond {
    profile: IoBondProfile,
    /// The backend process's RAM, with the shadow rings.
    base: GuestRam,
    net_dev: IoBondDevice,
    blk_dev: IoBondDevice,
    /// The base-RAM window holding both devices' shadow rings, table
    /// areas and staging pools: its start and length. A recovery
    /// releases it with the dead epoch and rebuilds the new one in
    /// place, as a restarted backend process's fresh mapping reads zero.
    region: GuestAddr,
    region_len: u64,
    /// Guest kicks skipped because the post landed inside the PMD's
    /// published EVENT_IDX poll window (the poller was going to see the
    /// descriptors anyway — §3.4.2's polling discipline).
    doorbells_suppressed: u64,
    /// Reused service-pass report (steady-state passes allocate nothing).
    svc_report: ServiceReport,
}

impl IoBond {
    /// The device serving `queue`, and the queue's index on it.
    fn device(&self, queue: Queue) -> (&IoBondDevice, usize) {
        match queue {
            Queue::Rx => (&self.net_dev, RX_Q),
            Queue::Tx => (&self.net_dev, TX_Q),
            Queue::Blk => (&self.blk_dev, 0),
        }
    }

    /// [`device`](Self::device), or [`SessionError::DeviceDown`] if it
    /// is not live: its backend failed and no recovery rebuilt every
    /// queue.
    fn live_device(&self, queue: Queue) -> Result<(&IoBondDevice, usize), SessionError> {
        let (dev, q) = self.device(queue);
        if !dev.is_live() {
            return Err(SessionError::DeviceDown { op: queue.op() });
        }
        Ok((dev, q))
    }

    /// Runs one service pass of `queue`'s device at `at`: syncs guest
    /// chains into the shadow rings and completions back, and surfaces
    /// a latched escalation as a per-op error. A device that is not
    /// live is not serviced.
    fn service(
        &mut self,
        board: &mut GuestRam,
        queue: Queue,
        at: SimTime,
    ) -> Result<(), SessionError> {
        self.live_device(queue)?;
        let dev = match queue {
            Queue::Rx | Queue::Tx => &mut self.net_dev,
            Queue::Blk => &mut self.blk_dev,
        };
        dev.service_into(board, &mut self.base, at, &mut self.svc_report)?;
        match dev.take_escalation() {
            Some(site) => Err(SessionError::Escalated {
                site,
                op: queue.op(),
            }),
            None => Ok(()),
        }
    }

    /// The devices' current shadow ring layouts: net rx, net tx, blk.
    fn shadow_layouts(&self) -> [QueueLayout; 3] {
        [Queue::Rx, Queue::Tx, Queue::Blk].map(|queue| {
            let (dev, q) = self.device(queue);
            dev.shadow(q).expect("active").shadow_layout()
        })
    }
}

impl Transport for IoBond {
    /// One PCI write across the guest link if the post `needed` a kick
    /// (fault-aware: a link flap stalls the kick, a spike stretches it).
    /// A post inside the PMD's published EVENT_IDX window suppresses the
    /// doorbell and costs nothing.
    fn kick(&mut self, needed: bool, now: SimTime) -> SimTime {
        if needed {
            return now + self.profile.guest_link().register_access_at(now);
        }
        self.doorbells_suppressed += 1;
        if telemetry::is_enabled() {
            telemetry::counter("bm.doorbells_suppressed", 1);
        }
        now
    }

    /// IO-Bond syncs the guest's chains into the shadow ring.
    fn sync(
        &mut self,
        board: &mut GuestRam,
        queue: Queue,
        at: SimTime,
    ) -> Result<SimTime, SessionError> {
        self.service(board, queue, at)?;
        // A live device's pass reports every queue, in queue order.
        Ok(self.svc_report.tx[self.device(queue).1].done_at)
    }

    /// The PMD sees the queue's head register move: one base-side
    /// register read through the mailbox, so a mailbox stall blocks the
    /// poll (and escalates the op once its retries run out).
    fn poll(&self, queue: Queue, at: SimTime) -> Result<SimTime, SessionError> {
        let (dev, q) = self.live_device(queue)?;
        let (cost, escalated) = dev
            .shadow(q)
            .expect("a live device has every queue")
            .register_poll_recovery_at(at);
        if escalated {
            return Err(SessionError::Escalated {
                site: FaultSite::Mailbox,
                op: queue.op(),
            });
        }
        Ok(at + cost)
    }

    fn backend_ram<'a>(&'a mut self, _board: &'a mut GuestRam) -> &'a mut GuestRam {
        &mut self.base
    }

    /// IO-Bond returns the completion to the guest with an MSI; the
    /// guest sees the pass's first completion, or `at` if it completed
    /// nothing.
    fn complete(
        &mut self,
        board: &mut GuestRam,
        queue: Queue,
        at: SimTime,
        _vcpu_idle: bool,
    ) -> Result<SimTime, SessionError> {
        self.service(board, queue, at)?;
        Ok(self.svc_report.completions.first().map_or(at, |c| c.at))
    }

    /// A receive is one `bm` span; a send or blk request is an op with
    /// a phase per step.
    fn trace(queue: Queue, m: &Marks) {
        let (counter, timer) = match queue {
            Queue::Rx => ("bm.net_rx_packets", "bm.net_receive"),
            Queue::Tx => ("bm.net_tx_packets", "bm.net_send"),
            Queue::Blk => ("bm.blk_ops", "bm.blk_request"),
        };
        if queue == Queue::Rx {
            phase("bm", "net_receive", m.now, m.done);
        } else {
            let op = telemetry::begin("bm", queue.op(), m.now);
            phase("bm", "kick", m.now, m.kicked);
            phase("bm", "shadow_sync", m.kicked, m.synced);
            phase("bm", "pmd_poll", m.synced, m.seen);
            let serve = match queue {
                Queue::Tx => "throttle",
                _ => "backend_execute",
            };
            phase("bm", serve, m.seen, m.ready);
            phase("bm", "complete", m.ready, m.done);
            telemetry::end(op, m.done);
        }
        telemetry::counter(counter, 1);
        telemetry::timer(timer, m.done.saturating_duration_since(m.now));
    }
}

impl GuestSession<IoBond> {
    /// Builds a powered-on, handshaken guest: queues of `queue_size`
    /// entries, a 64 MiB board arena for I/O buffers, production or
    /// unrestricted `limits`.
    ///
    /// # Panics
    ///
    /// Panics if `queue_size` is not a power of two (virtio requirement).
    pub fn new(
        profile: IoBondProfile,
        mac: MacAddr,
        queue_size: u16,
        limits: InstanceLimits,
    ) -> Self {
        let mut board = GuestRam::new(256 << 20);
        let mut base = GuestRam::new(256 << 20);
        let guest = GuestDriver::new(&mut board, queue_size);
        let [rx_layout, tx_layout, blk_layout] = guest.layouts();

        // IO-Bond devices. Both offer EVENT_IDX, which the window below
        // needs, and take the driver's handshake (the full
        // register-level handshake is exercised in the virtio/pcie
        // tests; sessions use the shortcut). The deployed poll-mode
        // backend (§3.4.2) publishes a ring-wide EVENT_IDX window, so
        // guest kicks landing mid-scan are suppressed.
        let ring = Feature::RingIndirectDesc as u64 | Feature::RingEventIdx as u64;
        let window = crate::pmd::BackendMode::PollMode.event_idx_window(queue_size);
        let device = |kind, feature: Feature, config: &[u8], layouts: &[QueueLayout]| {
            let features = feature as u64 | ring;
            let mut dev = IoBondDevice::new(profile, kind, features, queue_size, config.to_vec());
            dev.function_mut().state_mut().driver_handshake(layouts);
            dev.set_event_idx_window(window);
            dev
        };
        let net_config = bmhive_virtio::NetConfig::with_mac(mac.0).to_bytes();
        let blk_config = bmhive_virtio::BlkConfig::with_capacity_bytes(40 << 30).to_bytes();
        let mut net_dev = device(
            DeviceType::Net,
            Feature::NetMac,
            &net_config,
            &[rx_layout, tx_layout],
        );
        let mut blk_dev = device(
            DeviceType::Block,
            Feature::BlkFlush,
            &blk_config,
            &[blk_layout],
        );

        // Shadow rings, table areas and staging pools in the backend's
        // base RAM.
        let region = GuestAddr::new(0x100_000);
        let mut end = region;
        for dev in [&mut net_dev, &mut blk_dev] {
            let used = dev.activate(&mut base, end).expect("activate");
            end = (end + used).align_up(4096);
        }
        let transport = IoBond {
            profile,
            base,
            net_dev,
            blk_dev,
            region,
            region_len: end - region,
            doorbells_suppressed: 0,
            svc_report: ServiceReport::default(),
        };

        GuestSession {
            mac,
            ram: board,
            guest,
            // The poll-mode backend consumes the shadow rings.
            backend: Backend::new(transport.shadow_layouts(), limits),
            transport,
        }
    }

    /// The IO-Bond hardware profile in use.
    pub fn profile(&self) -> &IoBondProfile {
        &self.transport.profile
    }

    /// Guest kicks suppressed by the PMD's EVENT_IDX window so far.
    pub fn doorbells_suppressed(&self) -> u64 {
        self.transport.doorbells_suppressed
    }

    /// Register accesses a full virtio re-handshake costs per device:
    /// status dance, feature negotiation, and per-queue programming.
    const HANDSHAKE_REGISTER_HOPS: u64 = 24;

    /// Checks the armed fault plan for a compute-board power loss and,
    /// if one fires at `now`, runs the full recovery path: both IO-Bond
    /// functions are flagged needs-reset, the dead epoch's base region
    /// is released, both are re-handshaken and rebuilt in that region
    /// once power returns, the poll-mode backends are rebuilt from the
    /// new shadow rings, and every inflight chain is replayed. Recovery
    /// reuses the same base memory every time, so a session survives
    /// any number of power losses.
    ///
    /// Returns `None` when no plan is armed or no power loss fires.
    ///
    /// # Errors
    ///
    /// Fails if a device cannot complete its recovery handshake. A
    /// device left without a live shadow queue then fails every op on it
    /// with [`SessionError::DeviceDown`].
    pub fn poll_faults(&mut self, now: SimTime) -> Result<Option<BoardOutage>, SessionError> {
        if !faults::is_armed() {
            return Ok(None);
        }
        let Some(outage) = faults::take_oneshot(FaultSite::Board, FaultKind::PowerLoss, now) else {
            return Ok(None);
        };
        let io = &mut self.transport;

        // The board browned out: both functions lose their backend
        // epoch and latch DEVICE_NEEDS_RESET.
        io.net_dev.mark_backend_failed();
        io.blk_dev.mark_backend_failed();
        debug_assert!(io.net_dev.needs_reset() && io.blk_dev.needs_reset());

        // Recovery can only start once power is back. The dead epoch's
        // rings, tables and staging die with its backend process, and
        // each device rebuilds in the region they held.
        let restart = now + outage;
        io.base.release(io.region, io.region_len)?;
        let mut end = io.region;
        let mut replayed_chains = 0;
        for dev in [&mut io.net_dev, &mut io.blk_dev] {
            let report = dev.recover_from_backend_failure(&mut io.base, end)?;
            end = (end + report.base_bytes).align_up(4096);
            replayed_chains += report.replayed_chains;
        }
        debug_assert_eq!(
            end - io.region,
            io.region_len,
            "an epoch outgrew its region"
        );

        // The old backend process is gone with its ring cursors; the
        // new one consumes the new shadow rings from the start.
        self.backend.rebind(io.shadow_layouts());

        faults::note_reset(FaultSite::Board);
        faults::note_reset(FaultSite::Board);
        faults::note_degraded(FaultSite::Board, outage);

        // Each device replays the full register-level handshake over
        // the guest link before it is live again. Each hop takes the
        // fault-aware path: a latency spike active at restart stretches
        // the whole handshake.
        let hop = io.profile.guest_link().register_access_at(restart);
        let handshake = hop * 2 * Self::HANDSHAKE_REGISTER_HOPS;
        let recovered_at = restart + handshake;
        if telemetry::is_enabled() {
            phase("bm", "board_recovery", now, recovered_at);
            telemetry::counter("bm.board_resets", 1);
            telemetry::counter("bm.replayed_chains", replayed_chains);
        }
        Ok(Some(BoardOutage {
            recovered_at,
            replayed_chains,
        }))
    }

    /// Upgrades the backend process in place, Orthus-style (§6):
    /// snapshots its ring cursors, rebuilds it from the snapshot, and
    /// reports the pause from `now` and the state handed over. The
    /// guest's rings and IO-Bond's shadow rings are untouched.
    pub fn live_upgrade(&mut self, now: SimTime) -> UpgradeReport {
        let state = self.backend.snapshot();
        self.backend.resume(state);
        UpgradeReport::new(now, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::volume_byte;
    use bmhive_cloud::blockstore::{BlockStore, StorageClass};
    use bmhive_net::PacketKind;
    use bmhive_sim::SimDuration;
    use bmhive_virtio::{BlkRequestHeader, BlkRequestType, BlkStatus};

    fn session() -> BmGuestSession {
        BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(1),
            64,
            InstanceLimits::unrestricted(),
        )
    }

    #[test]
    fn both_devices_negotiate_event_idx() {
        let s = session();
        for dev in [&s.transport.net_dev, &s.transport.blk_dev] {
            let features = dev.function().state().negotiated_features();
            assert_ne!(features & Feature::RingEventIdx as u64, 0);
        }
    }

    #[test]
    fn net_send_crosses_both_domains() {
        let mut s = session();
        let mut out = Vec::new();
        let (egress, timing) = s
            .net_send(
                MacAddr::for_guest(2),
                PacketKind::Udp,
                b"hello-switch",
                SimTime::ZERO,
                &mut out,
            )
            .unwrap();
        assert_eq!(out, b"hello-switch");
        assert_eq!(egress.packet.src, MacAddr::for_guest(1));
        assert_eq!(egress.packet.payload, 12);
        // The guest paid at least the kick + DMA + MSI costs.
        assert!(
            timing.latency() > SimDuration::from_micros(2),
            "{}",
            timing.latency()
        );
        assert_eq!(s.counters().0, 1);
    }

    #[test]
    fn net_receive_delivers_payload_into_board_ram() {
        let mut s = session();
        let mut out = Vec::new();
        let timing = s
            .net_receive(b"ingress-frame", SimTime::from_micros(5), &mut out)
            .unwrap();
        assert_eq!(out, b"ingress-frame");
        assert!(timing.completed > timing.submitted);
        assert_eq!(s.counters().1, 1);
    }

    #[test]
    fn echo_round_trip_preserves_bytes() {
        let mut s = session();
        let (mut sent, mut back) = (Vec::new(), Vec::new());
        let msg = vec![0xa5u8; 700];
        s.net_send(
            MacAddr::for_guest(2),
            PacketKind::Udp,
            &msg,
            SimTime::ZERO,
            &mut sent,
        )
        .unwrap();
        s.net_receive(&sent, SimTime::from_micros(50), &mut back)
            .unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn blk_write_then_read_round_trip() {
        let mut s = session();
        let mut out = Vec::new();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 42);
        let data = vec![7u8; 4096];
        let (status, t1) = s
            .blk_request(
                &mut store,
                BlkRequestHeader::new(BlkRequestType::Out, 100),
                &data,
                0,
                SimTime::ZERO,
                &mut out,
            )
            .unwrap();
        assert_eq!(status, BlkStatus::Ok);
        assert!(t1.latency() > SimDuration::from_micros(50));
        let (status, t2) = s
            .blk_request(
                &mut store,
                BlkRequestHeader::new(BlkRequestType::In, 100),
                &[],
                4096,
                t1.completed,
                &mut out,
            )
            .unwrap();
        assert_eq!(status, BlkStatus::Ok);
        assert_eq!(out.len(), 4096);
        // Deterministic synthetic volume contents.
        assert_eq!(out[0], 100u8);
        assert!(t2.latency() > SimDuration::from_micros(50));
        assert_eq!(s.counters().2, 2);
    }

    #[test]
    fn sixteen_kib_reads_match_the_volume_at_edge_sectors() {
        let mut s = session();
        let mut out = Vec::new();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 3);
        let mut t = SimTime::ZERO;
        for sector in [0, 250, 251, u64::MAX - 7] {
            let (status, timing) = s
                .blk_request(
                    &mut store,
                    BlkRequestHeader::new(BlkRequestType::In, sector),
                    &[],
                    16 << 10,
                    t,
                    &mut out,
                )
                .unwrap();
            assert_eq!(status, BlkStatus::Ok);
            let expect: Vec<u8> = (0..16 << 10).map(|i| volume_byte(sector, i)).collect();
            assert_eq!(out, expect, "sector {sector}");
            t = timing.completed;
        }
    }

    #[test]
    fn unsupported_blk_request_reports_status() {
        let mut s = session();
        let mut out = Vec::new();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 1);
        let (status, _) = s
            .blk_request(
                &mut store,
                BlkRequestHeader::new(BlkRequestType::Unsupported(9), 0),
                &[],
                0,
                SimTime::ZERO,
                &mut out,
            )
            .unwrap();
        assert_eq!(status, BlkStatus::Unsupported);
    }

    #[test]
    fn flush_completes_ok() {
        let mut s = session();
        let mut out = Vec::new();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 1);
        let (status, t) = s
            .blk_request(
                &mut store,
                BlkRequestHeader::new(BlkRequestType::Flush, 0),
                &[],
                0,
                SimTime::ZERO,
                &mut out,
            )
            .unwrap();
        assert_eq!(status, BlkStatus::Ok);
        assert!(t.latency() >= SimDuration::from_micros(50));
    }

    #[test]
    fn production_limits_shape_io_rate() {
        let mut s = BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(3),
            64,
            InstanceLimits::production(),
        );
        let mut store = BlockStore::new(StorageClass::CloudSsd, 9);
        let mut out = Vec::new();
        // Fire 2 000 sequential 4 KiB reads as fast as completions allow;
        // the 25 K IOPS cap must bound the rate.
        let mut t = SimTime::ZERO;
        let n = 2_000u64;
        for i in 0..n {
            let (_, timing) = s
                .blk_request(
                    &mut store,
                    BlkRequestHeader::new(BlkRequestType::In, i * 8),
                    &[],
                    4096,
                    t,
                    &mut out,
                )
                .unwrap();
            // Issue back-to-back (ignore per-op completion wait, keep the
            // limiter as the only pacing force).
            t = timing.submitted + SimDuration::from_micros(1);
        }
        // 2 000 ops minus the burst at 25 K IOPS needs ≥ ~70 ms; the
        // queueing inside the limiter pushes completions out.
        let (_, last) = s
            .blk_request(
                &mut store,
                BlkRequestHeader::new(BlkRequestType::In, 0),
                &[],
                4096,
                t,
                &mut out,
            )
            .unwrap();
        assert!(
            last.completed > SimTime::from_millis(60),
            "completed {}",
            last.completed
        );
    }

    #[test]
    fn many_rounds_do_not_leak_buffers() {
        let mut s = session();
        let mut out = Vec::new();
        let mut store = BlockStore::new(StorageClass::LocalSsd, 4);
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            let (_, timing) = s
                .net_send(
                    MacAddr::for_guest(2),
                    PacketKind::Udp,
                    &[1, 2, 3],
                    t,
                    &mut out,
                )
                .unwrap();
            t = timing.completed;
            let timing = s.net_receive(b"pong", t, &mut out).unwrap();
            t = timing.completed;
            let (_, timing) = s
                .blk_request(
                    &mut store,
                    BlkRequestHeader::new(BlkRequestType::In, i),
                    &[],
                    512,
                    t,
                    &mut out,
                )
                .unwrap();
            t = timing.completed;
        }
        let (tx, rx, io) = s.counters();
        assert_eq!((tx, rx, io), (200, 200, 200));
    }

    #[test]
    fn pmd_window_suppresses_every_kick_after_the_first() {
        let mut s = session();
        let mut out = Vec::new();
        let mut store = BlockStore::new(StorageClass::LocalSsd, 7);
        let mut t = SimTime::ZERO;
        // First op on each device kicks (fresh ring, avail_event = 0);
        // once the PMD has scanned and published its window, every
        // later post is kick-free.
        for i in 0..10u64 {
            let (_, timing) = s
                .net_send(
                    MacAddr::for_guest(2),
                    PacketKind::Udp,
                    b"payload",
                    t,
                    &mut out,
                )
                .unwrap();
            t = timing.completed;
            let (_, timing) = s
                .blk_request(
                    &mut store,
                    BlkRequestHeader::new(BlkRequestType::In, i),
                    &[],
                    512,
                    t,
                    &mut out,
                )
                .unwrap();
            t = timing.completed;
        }
        // 20 ops, 2 first-kicks: 18 suppressed.
        assert_eq!(s.doorbells_suppressed(), 18);
    }

    #[test]
    fn poll_faults_is_inert_without_a_plan() {
        let mut s = session();
        assert!(s.poll_faults(SimTime::from_micros(500)).unwrap().is_none());
    }

    #[test]
    fn board_power_loss_recovers_both_devices_and_replays_rx() {
        let mut s = session();
        let mut out = Vec::new();
        // Prime the session: one send syncs the rings, leaving the
        // posted rx buffers inflight in the shadow ring.
        s.net_send(
            MacAddr::for_guest(2),
            PacketKind::Udp,
            b"pre",
            SimTime::ZERO,
            &mut out,
        )
        .unwrap();

        let plan = faults::canned("board-loss").unwrap();
        faults::arm(plan, 11);
        // Before the 400 µs loss: nothing fires.
        assert!(s.poll_faults(SimTime::from_micros(100)).unwrap().is_none());
        // At 405 µs the power loss fires; recovery spans the 150 µs
        // outage plus both re-handshakes.
        let outage = s
            .poll_faults(SimTime::from_micros(405))
            .unwrap()
            .expect("power loss fires");
        assert!(outage.recovered_at >= SimTime::from_micros(405 + 150));
        // Every posted-but-unfilled rx buffer was inflight and replays.
        assert!(
            outage.replayed_chains >= 60,
            "replayed {}",
            outage.replayed_chains
        );
        // One-shot: polling again does nothing.
        assert!(s.poll_faults(outage.recovered_at).unwrap().is_none());

        // The recovered session still does real I/O through the fresh
        // epoch: the replayed rx buffers back this delivery.
        s.net_receive(b"after-reset", outage.recovered_at, &mut out)
            .unwrap();
        assert_eq!(out, b"after-reset");
        s.net_send(
            MacAddr::for_guest(2),
            PacketKind::Udp,
            b"post",
            outage.recovered_at,
            &mut out,
        )
        .unwrap();
        assert_eq!(out, b"post");

        let stats = faults::disarm().expect("stats");
        assert_eq!(stats.site(FaultSite::Board).resets, 2);
        assert!(stats.site(FaultSite::Board).replayed >= 60);
        assert!(stats.all_recovered());
    }

    /// The production queue size `BmHiveServer::power_on` uses.
    fn production_session() -> BmGuestSession {
        BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(1),
            256,
            InstanceLimits::unrestricted(),
        )
    }

    /// One send, one receive and one 16 KiB read from `t`, each checked
    /// byte for byte; returns when the last completed.
    fn send_receive_read(s: &mut BmGuestSession, store: &mut BlockStore, t: SimTime) -> SimTime {
        let mut out = Vec::new();
        let (_, timing) = s
            .net_send(MacAddr::for_guest(2), PacketKind::Udp, b"tx", t, &mut out)
            .unwrap();
        assert_eq!(out, b"tx");
        let timing = s.net_receive(b"rx", timing.completed, &mut out).unwrap();
        assert_eq!(out, b"rx");
        let header = BlkRequestHeader::new(BlkRequestType::In, 40);
        let (status, timing) = s
            .blk_request(store, header, &[], 16 << 10, timing.completed, &mut out)
            .unwrap();
        assert_eq!(status, BlkStatus::Ok);
        let expect: Vec<u8> = (0..16 << 10).map(|i| volume_byte(40, i)).collect();
        assert_eq!(out, expect);
        timing.completed
    }

    #[test]
    fn a_production_session_survives_repeated_board_losses() {
        let mut s = production_session();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 12);
        let mut t = send_receive_read(&mut s, &mut store, SimTime::ZERO);
        let mut pages = Vec::new();
        for loss in 0..2 {
            // The canned loss fires at 400 µs; re-armed, it fires again
            // at the next poll.
            faults::arm(faults::canned("board-loss").unwrap(), 5 + loss);
            let outage = s
                .poll_faults(t.max(SimTime::from_micros(405)))
                .unwrap()
                .expect("power loss fires");
            assert!(outage.replayed_chains >= 255, "loss {loss}");
            t = send_receive_read(&mut s, &mut store, outage.recovered_at);
            let stats = faults::disarm().expect("stats");
            assert_eq!(stats.site(FaultSite::Board).resets, 2, "loss {loss}");
            assert!(stats.all_recovered(), "loss {loss}");
            pages.push(s.transport.base.resident_pages());
        }
        // Each epoch is rebuilt in the region the last one held.
        assert_eq!(pages[0], pages[1]);
    }

    #[test]
    fn a_failed_recovery_fails_each_op_with_a_typed_error() {
        let mut s = session();
        let mut out = Vec::new();
        s.net_send(
            MacAddr::for_guest(2),
            PacketKind::Udp,
            b"pre",
            SimTime::ZERO,
            &mut out,
        )
        .unwrap();
        // Move the epoch's region near the top of base RAM: the rebuild
        // places the net rx queue, then runs out of memory for tx.
        s.transport.region = GuestAddr::new((256 << 20) - (8 << 20));
        s.transport.region_len = 0;
        faults::arm(faults::canned("board-loss").unwrap(), 3);
        let err = s.poll_faults(SimTime::from_micros(405)).unwrap_err();
        assert!(matches!(err, SessionError::Virtio(_)), "{err}");
        faults::disarm();
        assert!(s.transport.net_dev.shadow(RX_Q).is_some());
        assert!(s.transport.net_dev.shadow(TX_Q).is_none());
        // Every op on either device is refused, none panics.
        let now = SimTime::from_micros(600);
        let mut store = BlockStore::new(StorageClass::CloudSsd, 4);
        let header = BlkRequestHeader::new(BlkRequestType::In, 0);
        let errors = [
            s.net_send(MacAddr::for_guest(2), PacketKind::Udp, b"x", now, &mut out)
                .map(|_| ())
                .unwrap_err(),
            s.net_receive(b"y", now, &mut out).map(|_| ()).unwrap_err(),
            s.blk_request(&mut store, header, &[], 512, now, &mut out)
                .map(|_| ())
                .unwrap_err(),
        ];
        let ops = errors.map(|e| match e {
            SessionError::DeviceDown { op } => op,
            other => panic!("expected DeviceDown, got {other:?}"),
        });
        assert_eq!(ops, ["net_send", "net_receive", "blk_request"]);
    }

    #[test]
    fn the_rx_cycle_holds_its_resident_pages_flat() {
        let mut s = production_session();
        let (mut out, mut t) = (Vec::new(), SimTime::ZERO);
        let mut pages = Vec::new();
        for pair in 1..=1000 {
            let (_, timing) = s
                .net_send(
                    MacAddr::for_guest(2),
                    PacketKind::Udp,
                    &[7; 64],
                    t,
                    &mut out,
                )
                .unwrap();
            let timing = s.net_receive_into(&out, timing.completed, None).unwrap();
            t = timing.completed;
            if matches!(pair, 1 | 300 | 1000) {
                pages.push((s.ram.resident_pages(), s.transport.base.resident_pages()));
            }
        }
        // The first pair already touched every page the cycle holds:
        // the 256 posted rx buffers and their staging runs hold none.
        assert_eq!(pages, [pages[0]; 3]);
    }

    #[test]
    fn unrecoverable_mailbox_stall_escalates_net_send() {
        let mut s = session();
        let mut out = Vec::new();
        // A 5 ms stall outlasts the whole 16-attempt backoff budget
        // (worst case ≈ 1 ms): the PMD poll never goes through.
        let mut plan = faults::FaultPlan::new("mailbox-wedge");
        plan.push(faults::FaultEvent::window(
            SimTime::from_micros(100),
            FaultSite::Mailbox,
            FaultKind::MailboxStall,
            SimDuration::from_millis(5),
        ));
        faults::arm(plan, 3);
        let err = s
            .net_send(
                MacAddr::for_guest(2),
                PacketKind::Udp,
                b"wedged",
                SimTime::from_micros(200),
                &mut out,
            )
            .unwrap_err();
        match err {
            SessionError::Escalated { site, op } => {
                assert_eq!(site, FaultSite::Mailbox);
                assert_eq!(op, "net_send");
            }
            other => panic!("expected escalation, got {other}"),
        }
        let stats = faults::disarm().expect("stats");
        assert!(!stats.all_recovered());
        assert!(stats.escalated_at(faults::RetryOp::MailboxHeadTail) > 0);
    }

    #[test]
    fn unrecoverable_dma_timeout_escalates_blk_request() {
        let mut s = session();
        let mut out = Vec::new();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 5);
        let mut plan = faults::FaultPlan::new("dma-wedge");
        plan.push(faults::FaultEvent::window(
            SimTime::from_micros(50),
            FaultSite::Dma,
            FaultKind::DmaTimeout,
            SimDuration::from_millis(8),
        ));
        faults::arm(plan, 9);
        let err = s
            .blk_request(
                &mut store,
                BlkRequestHeader::new(BlkRequestType::Out, 4),
                &[1, 2, 3, 4],
                0,
                SimTime::from_micros(100),
                &mut out,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::Escalated {
                site: FaultSite::Dma,
                op: "blk_request",
            }
        ));
        faults::disarm();
    }

    #[test]
    fn board_recovery_is_deterministic_per_seed() {
        let run = || {
            let mut s = session();
            let mut out = Vec::new();
            s.net_send(
                MacAddr::for_guest(2),
                PacketKind::Udp,
                b"x",
                SimTime::ZERO,
                &mut out,
            )
            .unwrap();
            faults::arm(faults::canned("board-loss").unwrap(), 23);
            let outage = s
                .poll_faults(SimTime::from_micros(410))
                .unwrap()
                .expect("fires");
            let stats = faults::disarm().expect("stats");
            (outage, stats.to_text())
        };
        let (a, ta) = run();
        let (b, tb) = run();
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }

    /// Runs 40 send/receive/read rounds on 16-entry rings, upgrading the
    /// backend after each round in `upgrade_after`. Returns every byte
    /// the guest got back, and the final counters.
    fn rounds_with_upgrades(upgrade_after: &[u64]) -> (Vec<Vec<u8>>, (u64, u64, u64)) {
        let mut s = BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(1),
            16,
            InstanceLimits::unrestricted(),
        );
        let mut store = BlockStore::new(StorageClass::CloudSsd, 6);
        let (mut out, mut got) = (Vec::new(), Vec::new());
        let mut t = SimTime::ZERO;
        for round in 0..40u64 {
            let msg = format!("round-{round}");
            let (_, timing) = s
                .net_send(
                    MacAddr::for_guest(2),
                    PacketKind::Udp,
                    msg.as_bytes(),
                    t,
                    &mut out,
                )
                .unwrap();
            assert_eq!(out, msg.as_bytes(), "round {round}");
            got.push(out.clone());
            let timing = s
                .net_receive(msg.as_bytes(), timing.completed, &mut out)
                .unwrap();
            got.push(out.clone());
            let header = BlkRequestHeader::new(BlkRequestType::In, round * 8);
            let (status, timing) = s
                .blk_request(&mut store, header, &[], 512, timing.completed, &mut out)
                .unwrap();
            assert_eq!(status, BlkStatus::Ok, "round {round}");
            got.push(out.clone());
            t = timing.completed;
            if upgrade_after.contains(&round) {
                t = s.live_upgrade(t).resumed_at;
            }
        }
        (got, s.counters())
    }

    #[test]
    fn live_upgrades_under_traffic_lose_and_replay_nothing() {
        // 40 rounds wrap the 16-entry rings twice over, so the
        // handed-over cursors cross ring wraps.
        let plain = rounds_with_upgrades(&[]);
        assert_eq!(plain.1, (40, 40, 40));
        assert_eq!(rounds_with_upgrades(&[0, 7, 23]), plain);
    }

    #[test]
    fn live_upgrade_hands_over_the_rings_cursors() {
        let mut s = session();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 8);
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        for i in 0..5u64 {
            let (_, timing) = s
                .net_send(MacAddr::for_guest(2), PacketKind::Udp, b"x", t, &mut out)
                .unwrap();
            let timing = s.net_receive(b"y", timing.completed, &mut out).unwrap();
            let header = BlkRequestHeader::new(BlkRequestType::In, i);
            let (_, timing) = s
                .blk_request(&mut store, header, &[], 512, timing.completed, &mut out)
                .unwrap();
            t = timing.completed;
        }
        let report = s.live_upgrade(t);
        assert_eq!(report.pause, SimDuration::from_micros(3_200));
        assert_eq!(report.resumed_at, t + report.pause);
        // Each cursor is the shadow ring's own: the used index in base
        // RAM and, where every posted chain was served (tx, blk), the
        // avail index; rx served five of its posted buffers.
        let io = &s.transport;
        let rings = [(&io.net_dev, RX_Q), (&io.net_dev, TX_Q), (&io.blk_dev, 0)];
        for (i, (state, (dev, q))) in report.state.iter().zip(rings).enumerate() {
            let layout = dev.shadow(q).unwrap().shadow_layout();
            assert_eq!(state.layout, layout, "ring {i}");
            assert_eq!(state.used_idx, io.base.read_u16(layout.used + 2).unwrap());
            let avail = io.base.read_u16(layout.avail + 2).unwrap();
            let served = if i == 0 { 5 } else { avail };
            assert_eq!(
                (state.last_avail_idx, state.used_idx),
                (served, 5),
                "ring {i}"
            );
        }
        // The new process hands over exactly what it took over.
        assert_eq!(s.live_upgrade(report.resumed_at).state, report.state);
    }

    #[test]
    fn a_chain_posted_before_the_upgrade_is_served_once_after_it() {
        let mut s = session();
        let mut out = Vec::new();
        s.net_send(
            MacAddr::for_guest(2),
            PacketKind::Udp,
            b"before",
            SimTime::ZERO,
            &mut out,
        )
        .unwrap();
        // The guest posts a frame and IO-Bond syncs it into the shadow
        // ring, but the old backend never serves it.
        let (guest, board) = s.guest_mut();
        guest.post_tx(board, b"in-window").unwrap();
        let now = SimTime::from_micros(100);
        let io = &mut s.transport;
        io.net_dev
            .service_into(&mut s.ram, &mut io.base, now, &mut io.svc_report)
            .unwrap();
        let report = s.live_upgrade(now);

        // The new backend serves it exactly once, and nothing before it.
        let io = &mut s.transport;
        s.backend.serve_tx(&mut io.base, &mut out).unwrap();
        assert_eq!(out, b"in-window");
        match s.backend.serve_tx(&mut io.base, &mut out) {
            Err(SessionError::BadRequest("tx chain missing")) => {}
            other => panic!("expected an empty ring, got {other:?}"),
        }
        io.net_dev
            .service_into(
                &mut s.ram,
                &mut io.base,
                report.resumed_at,
                &mut io.svc_report,
            )
            .unwrap();
        s.guest.reap_tx(&s.ram).unwrap();

        // And the ring carries on.
        s.net_send(
            MacAddr::for_guest(2),
            PacketKind::Udp,
            b"after",
            report.resumed_at,
            &mut out,
        )
        .unwrap();
        assert_eq!(out, b"after");
        assert_eq!(s.counters().0, 3);
    }

    #[test]
    fn asic_profile_lowers_latency() {
        let mut fpga = session();
        let mut asic = BmGuestSession::new(
            IoBondProfile::asic(),
            MacAddr::for_guest(1),
            64,
            InstanceLimits::unrestricted(),
        );
        let mut out = Vec::new();
        let (_, t_fpga) = fpga
            .net_send(
                MacAddr::for_guest(2),
                PacketKind::Udp,
                b"x",
                SimTime::ZERO,
                &mut out,
            )
            .unwrap();
        let (_, t_asic) = asic
            .net_send(
                MacAddr::for_guest(2),
                PacketKind::Udp,
                b"x",
                SimTime::ZERO,
                &mut out,
            )
            .unwrap();
        assert!(t_asic.latency() < t_fpga.latency());
    }
}
