//! One bm-guest and its bm-hypervisor backend process.
//!
//! [`BmGuestSession`] wires together everything §3.3 describes for one
//! guest: the compute board's RAM with the guest's virtio driver rings,
//! two IO-Bond devices (net + blk) bridging to shadow vrings in the
//! bm-hypervisor process's base RAM, poll-mode backends consuming the
//! shadow rings, the instance rate limits, and the cloud services. Every
//! packet and block request really crosses both memory domains through
//! the rings — no shortcut paths.

use crate::session::{phase, Backend, GuestDriver};
use crate::upgrade::UpgradeReport;
use bmhive_cloud::blockstore::BlockStore;
use bmhive_cloud::limits::InstanceLimits;
use bmhive_faults::{self as faults, FaultKind, FaultSite};
use bmhive_iobond::{IoBondDevice, IoBondProfile, ServiceReport};
use bmhive_mem::{GuestAddr, GuestRam};
use bmhive_net::{MacAddr, Packet, PacketKind};
use bmhive_sim::{SimDuration, SimTime};
use bmhive_telemetry as telemetry;
use bmhive_virtio::{BlkRequestHeader, BlkStatus, DeviceType, Feature, QueueLayout};

pub use crate::session::{EgressPacket, IoTiming, SessionError};

/// Queue indices on the net device.
const RX_Q: usize = 0;
const TX_Q: usize = 1;

/// Outcome of one board power-loss recovery (see
/// [`BmGuestSession::poll_faults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoardOutage {
    /// When both devices were re-handshaken and live again.
    pub recovered_at: SimTime,
    /// Chains that were inflight at the loss and replayed after it.
    pub replayed_chains: u64,
}

/// One bm-guest with its dedicated bm-hypervisor process.
#[derive(Debug)]
pub struct BmGuestSession {
    profile: IoBondProfile,
    mac: MacAddr,
    board: GuestRam,
    base: GuestRam,
    net_dev: IoBondDevice,
    blk_dev: IoBondDevice,
    /// The guest's virtio driver, in board RAM.
    guest: GuestDriver,
    /// The poll-mode backend over the shadow rings in base RAM.
    backend: Backend,
    /// Where the next recovery epoch's shadow rings go in base RAM
    /// (each reset rebuilds at a fresh region, like a fresh mmap in a
    /// restarted backend process).
    next_base_region: GuestAddr,
    /// Guest kicks skipped because the post landed inside the PMD's
    /// published EVENT_IDX poll window (the poller was going to see the
    /// descriptors anyway — §3.4.2's polling discipline).
    doorbells_suppressed: u64,
    /// Reused service-pass report (steady-state passes allocate nothing).
    svc_report: ServiceReport,
}

/// The devices' current shadow ring layouts: net rx, net tx, blk.
fn shadow_layouts(net_dev: &IoBondDevice, blk_dev: &IoBondDevice) -> [QueueLayout; 3] {
    [(net_dev, RX_Q), (net_dev, TX_Q), (blk_dev, 0)]
        .map(|(dev, q)| dev.shadow(q).expect("active").shadow_layout())
}

/// When the PMD sees queue `q`'s head register move at `at`: one
/// base-side register read through the mailbox, so a mailbox stall
/// blocks the poll (and escalates `op` once its retries run out).
fn pmd_poll(
    dev: &IoBondDevice,
    q: usize,
    at: SimTime,
    op: &'static str,
) -> Result<SimTime, SessionError> {
    let (cost, escalated) = dev
        .shadow(q)
        .expect("activated")
        .register_poll_recovery_at(at);
    if escalated {
        return Err(SessionError::Escalated {
            site: FaultSite::Mailbox,
            op,
        });
    }
    Ok(at + cost)
}

/// Surfaces a latched escalation from a device's last service pass as a
/// per-op error.
fn check_escalation(dev: &mut IoBondDevice, op: &'static str) -> Result<(), SessionError> {
    match dev.take_escalation() {
        Some(site) => Err(SessionError::Escalated { site, op }),
        None => Ok(()),
    }
}

impl BmGuestSession {
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

        // IO-Bond devices. Both offer EVENT_IDX, which the window below needs.
        let ring = Feature::RingIndirectDesc as u64 | Feature::RingEventIdx as u64;
        let mut net_dev = IoBondDevice::new(
            profile,
            DeviceType::Net,
            Feature::NetMac as u64 | ring,
            queue_size,
            bmhive_virtio::NetConfig::with_mac(mac.0)
                .to_bytes()
                .to_vec(),
        );
        let mut blk_dev = IoBondDevice::new(
            profile,
            DeviceType::Block,
            Feature::BlkFlush as u64 | ring,
            queue_size,
            bmhive_virtio::BlkConfig::with_capacity_bytes(40 << 30)
                .to_bytes()
                .to_vec(),
        );

        // Driver handshakes (the full register-level handshake is
        // exercised in the virtio/pcie tests; sessions use the shortcut).
        net_dev
            .function_mut()
            .state_mut()
            .driver_handshake(&[rx_layout, tx_layout]);
        blk_dev
            .function_mut()
            .state_mut()
            .driver_handshake(&[blk_layout]);

        // The deployed poll-mode backend (§3.4.2) publishes a ring-wide
        // EVENT_IDX window, so guest kicks landing mid-scan are suppressed.
        let window = crate::pmd::BackendMode::PollMode.event_idx_window(queue_size);
        net_dev.set_event_idx_window(window);
        blk_dev.set_event_idx_window(window);

        // Shadow rings + staging pools in the backend's base RAM.
        let net_base = GuestAddr::new(0x100_000);
        let used = net_dev.activate(&mut base, net_base).expect("net activate");
        let blk_base = (net_base + used).align_up(4096);
        let blk_used = blk_dev.activate(&mut base, blk_base).expect("blk activate");
        let next_base_region = (blk_base + blk_used).align_up(4096);

        BmGuestSession {
            profile,
            mac,
            board,
            base,
            backend: Backend::new(shadow_layouts(&net_dev, &blk_dev), limits),
            net_dev,
            blk_dev,
            guest,
            next_base_region,
            doorbells_suppressed: 0,
            svc_report: ServiceReport::default(),
        }
    }

    /// The guest's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The IO-Bond hardware profile in use.
    pub fn profile(&self) -> &IoBondProfile {
        &self.profile
    }

    /// Packets sent / received / block ops completed so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        self.guest.counters()
    }

    /// Guest kicks suppressed by the PMD's EVENT_IDX window so far.
    pub fn doorbells_suppressed(&self) -> u64 {
        self.doorbells_suppressed
    }

    /// Register accesses a full virtio re-handshake costs per device:
    /// status dance, feature negotiation, and per-queue programming.
    const HANDSHAKE_REGISTER_HOPS: u64 = 24;

    /// Checks the armed fault plan for a compute-board power loss and,
    /// if one fires at `now`, runs the full recovery path: both IO-Bond
    /// functions are flagged needs-reset, re-handshaken at a fresh base
    /// region once power returns, the poll-mode backends are rebuilt
    /// from the new shadow rings, and every inflight chain is replayed.
    ///
    /// Returns `None` when no plan is armed or no power loss fires.
    ///
    /// # Errors
    ///
    /// Fails if a device cannot complete its recovery handshake.
    pub fn poll_faults(&mut self, now: SimTime) -> Result<Option<BoardOutage>, SessionError> {
        if !faults::is_armed() {
            return Ok(None);
        }
        let Some(outage) = faults::take_oneshot(FaultSite::Board, FaultKind::PowerLoss, now) else {
            return Ok(None);
        };

        // The board browned out: both functions lose their backend
        // epoch and latch DEVICE_NEEDS_RESET.
        self.net_dev.mark_backend_failed();
        self.blk_dev.mark_backend_failed();
        debug_assert!(self.net_dev.needs_reset() && self.blk_dev.needs_reset());

        // Recovery can only start once power is back.
        let restart = now + outage;
        let net_base = self.next_base_region;
        let net_report = self
            .net_dev
            .recover_from_backend_failure(&mut self.base, net_base)?;
        let blk_base = (net_base + net_report.base_bytes).align_up(4096);
        let blk_report = self
            .blk_dev
            .recover_from_backend_failure(&mut self.base, blk_base)?;
        self.next_base_region = (blk_base + blk_report.base_bytes).align_up(4096);

        // The old backend process is gone with its ring cursors; the
        // new one consumes the new shadow rings from the start.
        self.backend
            .rebind(shadow_layouts(&self.net_dev, &self.blk_dev));

        faults::note_reset(FaultSite::Board);
        faults::note_reset(FaultSite::Board);
        faults::note_degraded(FaultSite::Board, outage);

        // Each device replays the full register-level handshake over
        // the guest link before it is live again. Each hop takes the
        // fault-aware path: a latency spike active at restart stretches
        // the whole handshake.
        let hop = self.profile.guest_link().register_access_at(restart);
        let handshake = hop * 2 * Self::HANDSHAKE_REGISTER_HOPS;
        let recovered_at = restart + handshake;
        let replayed_chains = net_report.replayed_chains + blk_report.replayed_chains;
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

    /// When a guest post reaches IO-Bond: one PCI write across the guest
    /// link if the post `needed` a kick (fault-aware: a link flap stalls
    /// the kick, a spike stretches it). A post inside the PMD's published
    /// EVENT_IDX window suppresses the doorbell and costs nothing.
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

    /// When the last service pass's first completion reached the guest,
    /// or `fallback` if the pass completed nothing.
    fn completed_at(&self, fallback: SimTime) -> SimTime {
        self.svc_report
            .completions
            .first()
            .map_or(fallback, |c| c.at)
    }

    /// Sends one packet: writes it into board RAM, posts it on the tx
    /// ring, kicks IO-Bond, lets the PMD backend consume the shadow ring
    /// and produce the egress frame, then completes the guest ring.
    ///
    /// Returns the egress packet (for the caller to hand to the vSwitch)
    /// and the guest-observed timing; the frame's payload, as the
    /// backend read it, goes into `out` (cleared first).
    ///
    /// # Errors
    ///
    /// Fails on ring errors or buffer exhaustion.
    pub fn net_send(
        &mut self,
        dst: MacAddr,
        kind: PacketKind,
        payload: &[u8],
        now: SimTime,
        out: &mut Vec<u8>,
    ) -> Result<(EgressPacket, IoTiming), SessionError> {
        // Guest: build hdr + payload in board RAM, post it, and kick.
        let needed = self.guest.post_tx(&mut self.board, payload)?;
        let kicked = self.kick(needed, now);

        // IO-Bond syncs the chain into the shadow ring.
        self.net_dev.service_into(
            &mut self.board,
            &mut self.base,
            kicked,
            &mut self.svc_report,
        )?;
        check_escalation(&mut self.net_dev, "net_send")?;
        let synced_at = self.svc_report.tx[TX_Q].done_at;

        // Backend PMD sees the head register move and consumes the
        // shadow chain.
        let seen = pmd_poll(&self.net_dev, TX_Q, synced_at, "net_send")?;
        self.backend.serve_tx(&mut self.base, out)?;
        let packet = Packet::new(self.mac, dst, kind, out.len() as u32, self.counters().0);
        let admitted = self.backend.admit_packet(packet.wire_bytes(), seen);

        // IO-Bond returns the completion to the guest with an MSI.
        self.net_dev.service_into(
            &mut self.board,
            &mut self.base,
            admitted,
            &mut self.svc_report,
        )?;
        check_escalation(&mut self.net_dev, "net_send")?;
        let done = self.completed_at(admitted);
        // Guest interrupt handler: reap and free the buffer.
        self.guest.reap_tx(&self.board)?;
        // The phase spans are recorded after the fact (every boundary
        // is only known once the exchange is priced), so error paths
        // above can never leave a span open.
        if telemetry::is_enabled() {
            let op = telemetry::begin("bm", "net_send", now);
            phase("bm", "kick", now, kicked);
            phase("bm", "shadow_sync", kicked, synced_at);
            phase("bm", "pmd_poll", synced_at, seen);
            phase("bm", "throttle", seen, admitted);
            phase("bm", "complete", admitted, done);
            telemetry::end(op, done);
            telemetry::counter("bm.net_tx_packets", 1);
            telemetry::timer("bm.net_send", done.saturating_duration_since(now));
        }
        Ok((
            EgressPacket {
                packet,
                at: admitted,
            },
            IoTiming {
                submitted: now,
                completed: done,
            },
        ))
    }

    /// Delivers one ingress packet to the guest: the backend fills a
    /// posted rx buffer in the shadow ring; IO-Bond DMA-copies it into
    /// the guest's buffer and raises the MSI; the guest reaps it.
    ///
    /// Returns the timing (from backend receipt to guest reap); the
    /// payload as the guest read it goes into `out` (cleared first).
    ///
    /// # Errors
    ///
    /// Fails on ring errors; returns `NoBuffers` if the guest has no rx
    /// buffer posted (the frame would be dropped).
    pub fn net_receive(
        &mut self,
        payload: &[u8],
        now: SimTime,
        out: &mut Vec<u8>,
    ) -> Result<IoTiming, SessionError> {
        // Make sure freshly-posted buffers have propagated to the shadow
        // ring.
        self.net_dev
            .service_into(&mut self.board, &mut self.base, now, &mut self.svc_report)?;
        check_escalation(&mut self.net_dev, "net_receive")?;
        // Backend writes hdr + payload into the staging buffer.
        self.backend.serve_rx(&mut self.base, payload)?;

        // IO-Bond copies back and interrupts the guest.
        self.net_dev
            .service_into(&mut self.board, &mut self.base, now, &mut self.svc_report)?;
        check_escalation(&mut self.net_dev, "net_receive")?;
        let done = self.completed_at(now);

        // Guest interrupt handler reaps.
        self.guest.reap_rx(&mut self.board, out)?;
        if telemetry::is_enabled() {
            phase("bm", "net_receive", now, done);
            telemetry::counter("bm.net_rx_packets", 1);
            telemetry::timer("bm.net_receive", done.saturating_duration_since(now));
        }
        Ok(IoTiming {
            submitted: now,
            completed: done,
        })
    }

    /// Issues one block request against `store` and runs it to
    /// completion: header + data + status cross to the shadow ring, the
    /// backend executes it on the store (after the IOPS/bandwidth caps),
    /// and the completion flows back with the data.
    ///
    /// A read's bytes go into `out`, which is cleared for every other
    /// request.
    ///
    /// # Errors
    ///
    /// Fails on ring errors or buffer exhaustion.
    pub fn blk_request(
        &mut self,
        store: &mut BlockStore,
        header: BlkRequestHeader,
        data: &[u8],
        read_len: u64,
        now: SimTime,
        out: &mut Vec<u8>,
    ) -> Result<(BlkStatus, IoTiming), SessionError> {
        // Guest: header buffer (16 B) + data + status byte. Kick + sync
        // to shadow (kick and PMD poll both take the fault-aware
        // register paths).
        let needed = self
            .guest
            .post_blk(&mut self.board, header, data, read_len)?;
        let kicked = self.kick(needed, now);
        self.blk_dev.service_into(
            &mut self.board,
            &mut self.base,
            kicked,
            &mut self.svc_report,
        )?;
        check_escalation(&mut self.blk_dev, "blk_request")?;
        let synced_at = self.svc_report.tx[0].done_at;
        let synced = pmd_poll(&self.blk_dev, 0, synced_at, "blk_request")?;

        // Backend: parse, rate-limit, execute on the store. IO-Bond's
        // DMA engine moved the data, so the backend CPU copies none.
        let io_done = self
            .backend
            .serve_blk(&mut self.base, store, synced, |_| SimDuration::ZERO)?;

        // Completion back to the guest.
        self.blk_dev.service_into(
            &mut self.board,
            &mut self.base,
            io_done,
            &mut self.svc_report,
        )?;
        check_escalation(&mut self.blk_dev, "blk_request")?;
        let done = self.completed_at(io_done);

        // Guest interrupt handler reaps: read status byte and data.
        let status = self.guest.reap_blk(&self.board, header.req_type, out)?;
        if telemetry::is_enabled() {
            let op = telemetry::begin("bm", "blk_request", now);
            phase("bm", "kick", now, kicked);
            phase("bm", "shadow_sync", kicked, synced_at);
            phase("bm", "pmd_poll", synced_at, synced);
            phase("bm", "backend_execute", synced, io_done);
            phase("bm", "complete", io_done, done);
            telemetry::end(op, done);
            telemetry::counter("bm.blk_ops", 1);
            telemetry::timer("bm.blk_request", done.saturating_duration_since(now));
        }
        Ok((
            status,
            IoTiming {
                submitted: now,
                completed: done,
            },
        ))
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
impl BmGuestSession {
    /// The guest driver and the RAM its rings live in.
    pub(crate) fn guest_mut(&mut self) -> (&mut GuestDriver, &mut GuestRam) {
        (&mut self.guest, &mut self.board)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::volume_byte;
    use bmhive_cloud::blockstore::StorageClass;
    use bmhive_virtio::BlkRequestType;

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
        for dev in [&s.net_dev, &s.blk_dev] {
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
        let rings = [(&s.net_dev, RX_Q), (&s.net_dev, TX_Q), (&s.blk_dev, 0)];
        for (i, (state, (dev, q))) in report.state.iter().zip(rings).enumerate() {
            let layout = dev.shadow(q).unwrap().shadow_layout();
            assert_eq!(state.layout, layout, "ring {i}");
            assert_eq!(state.used_idx, s.base.read_u16(layout.used + 2).unwrap());
            let avail = s.base.read_u16(layout.avail + 2).unwrap();
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
        s.net_dev
            .service_into(&mut s.board, &mut s.base, now, &mut s.svc_report)
            .unwrap();
        let report = s.live_upgrade(now);

        // The new backend serves it exactly once, and nothing before it.
        s.backend.serve_tx(&mut s.base, &mut out).unwrap();
        assert_eq!(out, b"in-window");
        match s.backend.serve_tx(&mut s.base, &mut out) {
            Err(SessionError::BadRequest("tx chain missing")) => {}
            other => panic!("expected an empty ring, got {other:?}"),
        }
        s.net_dev
            .service_into(
                &mut s.board,
                &mut s.base,
                report.resumed_at,
                &mut s.svc_report,
            )
            .unwrap();
        s.guest.reap_tx(&s.board).unwrap();

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
