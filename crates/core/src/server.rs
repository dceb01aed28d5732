//! One BM-Hive server: base + compute boards + cloud attachments.
//!
//! §3.3: "Each bare-metal server consists of the base and a number of
//! compute boards. The base is essentially a simplified Xeon-based
//! server with 16 cores E5 CPU." The base runs one bm-hypervisor
//! process per guest, the DPDK vSwitch, and the uplink to cloud
//! storage. [`BmHiveServer`] manages the full lifecycle — install,
//! power-on (EFI boot over virtio-blk), I/O brokerage through the
//! vSwitch, power-off — while enforcing the chassis constraints
//! (slots, power, uplink).

use bmhive_cloud::blockstore::{BlockStore, StorageClass};
use bmhive_cloud::catalog::{InstanceType, ServerConstraints};
use bmhive_cloud::firmware::{FirmwareError, FirmwareImage, FirmwareStore, SigningKey};
use bmhive_cloud::image::MachineImage;
use bmhive_cloud::vswitch::{Forwarded, PortId, VSwitch};
use bmhive_hypervisor::{boot_guest, BmGuestSession, BootReport, IoTiming, SessionError};
use bmhive_iobond::IoBondProfile;
use bmhive_net::{MacAddr, PacketKind};
use bmhive_sim::SimTime;
use bmhive_telemetry as telemetry;
use bmhive_virtio::{BlkRequestHeader, BlkRequestType, BlkStatus};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A compute-board slot on this server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoardId(pub u32);

/// A powered-on guest on this server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GuestId(pub u32);

/// Server-level failures.
#[derive(Debug)]
pub enum ServerError {
    /// Installing the board would violate a chassis constraint.
    ConstraintViolation(&'static str),
    /// The board / guest id is unknown or in the wrong state.
    BadHandle(&'static str),
    /// The guest failed to boot.
    BootFailed(SessionError),
    /// A guest I/O operation failed.
    Io(SessionError),
    /// A firmware update was refused.
    Firmware(FirmwareError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::ConstraintViolation(why) => {
                write!(f, "chassis constraint violated: {why}")
            }
            ServerError::BadHandle(why) => write!(f, "bad handle: {why}"),
            ServerError::BootFailed(e) => write!(f, "guest boot failed: {e}"),
            ServerError::Io(e) => write!(f, "guest i/o failed: {e}"),
            ServerError::Firmware(e) => write!(f, "firmware update refused: {e}"),
        }
    }
}

impl Error for ServerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServerError::BootFailed(e) | ServerError::Io(e) => Some(e),
            ServerError::Firmware(e) => Some(e),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Board {
    instance: InstanceType,
    guest: Option<GuestId>,
    firmware: FirmwareStore,
}

#[derive(Debug)]
struct Guest {
    board: BoardId,
    session: BmGuestSession,
    port: PortId,
    boot: BootReport,
}

/// One BM-Hive server.
#[derive(Debug)]
pub struct BmHiveServer {
    constraints: ServerConstraints,
    signing_key: SigningKey,
    boards: HashMap<BoardId, Board>,
    guests: HashMap<GuestId, Guest>,
    vswitch: VSwitch,
    store: BlockStore,
    next_board: u32,
    next_guest: u32,
    /// `guest_send`'s reused frame: the payload the sender's backend
    /// hands the vSwitch. A local receiver's guest reaps it where it
    /// landed, in board RAM, so no host copy of it comes back.
    egress_frame: Vec<u8>,
}

impl BmHiveServer {
    /// Creates a server with the given chassis constraints. `seed`
    /// drives every stochastic model on the server deterministically.
    pub fn new(constraints: ServerConstraints, seed: u64) -> Self {
        BmHiveServer {
            constraints,
            // The provider's firmware signing key; the public half lives
            // in every board's fuses (§1).
            signing_key: SigningKey::new(seed ^ 0xf1e3_ba5e),
            boards: HashMap::new(),
            guests: HashMap::new(),
            // §3.4.2: the base dedicates PMD cores to I/O; 5 cores of the
            // 16-core base E5 serve the switch.
            vswitch: VSwitch::new(5),
            store: BlockStore::new(StorageClass::CloudSsd, seed),
            next_board: 0,
            next_guest: 0,
            egress_frame: Vec::new(),
        }
    }

    /// The chassis constraints.
    pub fn constraints(&self) -> &ServerConstraints {
        &self.constraints
    }

    /// Installs a compute board, enforcing slot / power / uplink
    /// constraints (§4.1's Table 3 column) through
    /// [`ServerConstraints::admit`].
    ///
    /// # Errors
    ///
    /// [`ServerError::ConstraintViolation`] if the chassis cannot take
    /// the board.
    pub fn install_board(&mut self, instance: &InstanceType) -> Result<BoardId, ServerError> {
        self.constraints
            .admit(self.boards.values().map(|b| &b.instance), instance)
            .map_err(ServerError::ConstraintViolation)?;
        let id = BoardId(self.next_board);
        self.next_board += 1;
        let factory = FirmwareImage::signed(
            &self.signing_key,
            "efi-virtio-1.0",
            1,
            b"factory EFI with virtio-blk boot support".to_vec(),
        );
        self.boards.insert(
            id,
            Board {
                instance: *instance,
                guest: None,
                firmware: FirmwareStore::provision(self.signing_key, factory),
            },
        );
        Ok(id)
    }

    /// The provider's firmware signing key (for building update images).
    pub fn signing_key(&self) -> SigningKey {
        self.signing_key
    }

    /// The firmware version installed on a board.
    ///
    /// # Errors
    ///
    /// Fails on unknown boards.
    pub fn board_firmware_version(&self, board: BoardId) -> Result<String, ServerError> {
        self.boards
            .get(&board)
            .map(|b| b.firmware.installed_version().to_string())
            .ok_or(ServerError::BadHandle("unknown board"))
    }

    /// Attempts a compute-board firmware update. Anyone — including a
    /// tenant with full OS control — may call this; only images signed
    /// by the provider and not rolling the security version back will
    /// flash (§1).
    ///
    /// # Errors
    ///
    /// Fails on unknown boards, bad signatures, or rollbacks.
    pub fn update_board_firmware(
        &mut self,
        board: BoardId,
        image: FirmwareImage,
    ) -> Result<(), ServerError> {
        let board = self
            .boards
            .get_mut(&board)
            .ok_or(ServerError::BadHandle("unknown board"))?;
        board.firmware.update(image).map_err(ServerError::Firmware)
    }

    /// Powers a board on with `image` (§3.2's use scenario): assigns a
    /// MAC, builds the guest session, EFI-boots it over virtio-blk from
    /// cloud storage, and attaches it to the vSwitch.
    ///
    /// # Errors
    ///
    /// Fails on bad handles, occupied boards, or boot failure.
    pub fn power_on(
        &mut self,
        board_id: BoardId,
        image: &MachineImage,
        now: SimTime,
    ) -> Result<GuestId, ServerError> {
        let board = self
            .boards
            .get_mut(&board_id)
            .ok_or(ServerError::BadHandle("unknown board"))?;
        if board.guest.is_some() {
            return Err(ServerError::BadHandle("board already powered on"));
        }
        let guest_id = GuestId(self.next_guest);
        self.next_guest += 1;
        let mac = MacAddr::for_guest(guest_id.0 + 1);
        let mut session =
            BmGuestSession::new(IoBondProfile::fpga(), mac, 256, board.instance.limits());
        let boot = boot_guest(&mut session, &mut self.store, image, now)
            .map_err(ServerError::BootFailed)?;
        board.guest = Some(guest_id);
        let port = PortId(guest_id.0);
        self.vswitch.attach(mac, port);
        self.guests.insert(
            guest_id,
            Guest {
                board: board_id,
                session,
                port,
                boot,
            },
        );
        Ok(guest_id)
    }

    /// Powers a guest off, freeing its board and vSwitch port.
    ///
    /// # Errors
    ///
    /// Fails on unknown guests.
    pub fn power_off(&mut self, guest_id: GuestId) -> Result<(), ServerError> {
        let guest = self
            .guests
            .remove(&guest_id)
            .ok_or(ServerError::BadHandle("unknown guest"))?;
        self.vswitch.detach(guest.session.mac());
        if let Some(board) = self.boards.get_mut(&guest.board) {
            board.guest = None;
        }
        Ok(())
    }

    /// The guest's boot report.
    ///
    /// # Errors
    ///
    /// Fails on unknown guests.
    pub fn boot_report(&self, guest_id: GuestId) -> Result<BootReport, ServerError> {
        self.guests
            .get(&guest_id)
            .map(|g| g.boot)
            .ok_or(ServerError::BadHandle("unknown guest"))
    }

    /// The guest's MAC address.
    ///
    /// # Errors
    ///
    /// Fails on unknown guests.
    pub fn guest_mac(&self, guest_id: GuestId) -> Result<MacAddr, ServerError> {
        self.guests
            .get(&guest_id)
            .map(|g| g.session.mac())
            .ok_or(ServerError::BadHandle("unknown guest"))
    }

    /// Direct access to a guest's session (for workload drivers).
    ///
    /// # Errors
    ///
    /// Fails on unknown guests.
    pub fn guest_mut(&mut self, guest_id: GuestId) -> Result<&mut BmGuestSession, ServerError> {
        self.guests
            .get_mut(&guest_id)
            .map(|g| &mut g.session)
            .ok_or(ServerError::BadHandle("unknown guest"))
    }

    /// Sends a packet from a guest into the cloud network. If the
    /// destination is a co-resident guest, the frame is delivered to it
    /// (the Fig. 9 local path: source board → bm-hypervisor → vSwitch →
    /// destination board, three PCIe traversals); otherwise it leaves on
    /// the uplink.
    ///
    /// # Errors
    ///
    /// Fails on unknown guests or ring errors.
    pub fn guest_send(
        &mut self,
        from: GuestId,
        dst: MacAddr,
        payload: &[u8],
        now: SimTime,
    ) -> Result<IoTiming, ServerError> {
        // The span wraps the whole board → vSwitch → board path, so
        // every session/vswitch span recorded inside nests under it.
        // On error the span closes at `now` rather than leaking open.
        let op = telemetry::begin("server", "guest_send", now);
        let result = self.guest_send_impl(from, dst, payload, now);
        telemetry::end(op, result.as_ref().map(|t| t.completed).unwrap_or(now));
        if result.is_ok() {
            telemetry::counter("server.guest_sends", 1);
        }
        result
    }

    fn guest_send_impl(
        &mut self,
        from: GuestId,
        dst: MacAddr,
        payload: &[u8],
        now: SimTime,
    ) -> Result<IoTiming, ServerError> {
        let sender = self
            .guests
            .get_mut(&from)
            .ok_or(ServerError::BadHandle("unknown guest"))?;
        let (egress, timing) = sender
            .session
            .net_send(dst, PacketKind::Udp, payload, now, &mut self.egress_frame)
            .map_err(ServerError::Io)?;
        match self.vswitch.forward(&egress.packet, egress.at) {
            Forwarded::Local(port, at) => {
                // `power_on` attaches guest `n` at port `n`.
                let receiver = self
                    .guests
                    .get_mut(&GuestId(port.0))
                    .filter(|g| g.port == port);
                let delivered =
                    receiver.map(|r| r.session.net_receive_into(&self.egress_frame, at, None));
                // The frame leaves its port queue once, whether the
                // receiver reaped it, failed to, or no receiver exists.
                self.vswitch.complete(port);
                match delivered {
                    Some(rx) => Ok(IoTiming {
                        submitted: timing.submitted,
                        completed: rx.map_err(ServerError::Io)?.completed,
                    }),
                    None => Ok(timing),
                }
            }
            Forwarded::Uplink(_) | Forwarded::Dropped => Ok(timing),
        }
    }

    /// Issues a storage request from a guest against the cloud store.
    /// A read's bytes come back in a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// Fails on unknown guests or ring errors.
    pub fn guest_blk(
        &mut self,
        guest_id: GuestId,
        req: BlkRequestType,
        sector: u64,
        data: &[u8],
        read_len: u64,
        now: SimTime,
    ) -> Result<(BlkStatus, Vec<u8>, IoTiming), ServerError> {
        let op = telemetry::begin("server", "guest_blk", now);
        let result = (|| {
            let guest = self
                .guests
                .get_mut(&guest_id)
                .ok_or(ServerError::BadHandle("unknown guest"))?;
            let mut read = Vec::new();
            let header = BlkRequestHeader::new(req, sector);
            let (status, timing) = guest
                .session
                .blk_request(&mut self.store, header, data, read_len, now, &mut read)
                .map_err(ServerError::Io)?;
            Ok((status, read, timing))
        })();
        telemetry::end(
            op,
            result.as_ref().map(|(_, _, t)| t.completed).unwrap_or(now),
        );
        if result.is_ok() {
            telemetry::counter("server.guest_blks", 1);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_cloud::catalog::INSTANCE_CATALOG;
    use bmhive_sim::SimDuration;

    fn e5() -> &'static InstanceType {
        &INSTANCE_CATALOG[0]
    }

    fn atom() -> &'static InstanceType {
        INSTANCE_CATALOG
            .iter()
            .find(|i| i.name.contains("atom"))
            .unwrap()
    }

    #[test]
    fn install_respects_all_constraints() {
        let mut server = BmHiveServer::new(ServerConstraints::production(), 1);
        let expected = ServerConstraints::production().max_boards(e5());
        for _ in 0..expected {
            server.install_board(e5()).unwrap();
        }
        assert!(matches!(
            server.install_board(e5()),
            Err(ServerError::ConstraintViolation(_))
        ));
        assert_eq!(server.boards.len(), expected as usize);
    }

    #[test]
    fn sixteen_atom_boards_fit() {
        let mut server = BmHiveServer::new(ServerConstraints::production(), 2);
        for _ in 0..16 {
            server.install_board(atom()).unwrap();
        }
        assert_eq!(server.boards.len(), 16);
        assert!(server.install_board(atom()).is_err());
    }

    #[test]
    fn full_lifecycle_boot_io_shutdown() {
        let mut server = BmHiveServer::new(ServerConstraints::production(), 3);
        let board = server.install_board(e5()).unwrap();
        let image = MachineImage::centos_evaluation(1);
        let guest = server.power_on(board, &image, SimTime::ZERO).unwrap();
        assert_eq!(server.guests.len(), 1);

        let boot = server.boot_report(guest).unwrap();
        assert_eq!(boot.sectors_read, image.boot_sectors());

        // Storage I/O works.
        let (status, data, _) = server
            .guest_blk(guest, BlkRequestType::In, 0, &[], 4096, boot.finished_at)
            .unwrap();
        assert_eq!(status, BlkStatus::Ok);
        assert_eq!(data.len(), 4096);

        // Network egress works (unknown destination → uplink).
        let timing = server
            .guest_send(guest, MacAddr::for_guest(200), b"egress", boot.finished_at)
            .unwrap();
        assert!(timing.latency() > SimDuration::ZERO);

        server.power_off(guest).unwrap();
        assert_eq!(server.guests.len(), 0);
        // The board is reusable.
        assert!(server
            .power_on(board, &image, SimTime::from_secs(10))
            .is_ok());
    }

    #[test]
    fn double_power_on_is_rejected() {
        let mut server = BmHiveServer::new(ServerConstraints::production(), 4);
        let board = server.install_board(e5()).unwrap();
        let image = MachineImage::centos_evaluation(1);
        server.power_on(board, &image, SimTime::ZERO).unwrap();
        assert!(matches!(
            server.power_on(board, &image, SimTime::ZERO),
            Err(ServerError::BadHandle(_))
        ));
    }

    /// A server with two booted guests on two boards.
    fn two_guests(seed: u64) -> (BmHiveServer, GuestId, GuestId) {
        let mut server = BmHiveServer::new(ServerConstraints::production(), seed);
        let image = MachineImage::centos_evaluation(1);
        let [g1, g2] = [0; 2].map(|_| {
            let board = server.install_board(e5()).unwrap();
            server.power_on(board, &image, SimTime::ZERO).unwrap()
        });
        (server, g1, g2)
    }

    #[test]
    fn local_guest_to_guest_delivery() {
        let (mut server, g1, g2) = two_guests(5);
        let dst = server.guest_mac(g2).unwrap();
        let start = SimTime::from_secs(1);
        let timing = server.guest_send(g1, dst, b"cross-board", start).unwrap();
        // The receiver really got it.
        let (_, rx, _) = server.guest_mut(g2).unwrap().counters();
        assert_eq!(rx, 1);
        // Three PCIe traversals: latency well above a single hop.
        assert!(timing.latency() > SimDuration::from_micros(3));
    }

    #[test]
    fn delivered_local_frames_leave_no_port_backlog() {
        let (mut server, g1, g2) = two_guests(5);
        let dst = server.guest_mac(g2).unwrap();
        let mut t = SimTime::from_secs(1);
        for _ in 0..10 {
            t = server.guest_send(g1, dst, b"ping", t).unwrap().completed;
        }
        // Each frame was reaped by the receiver before the next arrived.
        assert_eq!(server.vswitch.queue_depth(PortId(g2.0)), 0);
        assert_eq!(server.vswitch.peak_port_depth(), 1);
        assert_eq!(server.guest_mut(g2).unwrap().counters().1, 10);
    }

    #[test]
    fn failed_local_delivery_releases_its_port_slot() {
        // A twin server, built alike, shows when the frame reaches the
        // switch port: the sender's I/O is all done by then.
        let start = SimTime::from_secs(1);
        let (mut twin, g1, g2) = two_guests(5);
        let dst = twin.guest_mac(g2).unwrap();
        let sender = &mut twin.guests.get_mut(&g1).unwrap().session;
        let (egress, _) = sender
            .net_send(dst, PacketKind::Udp, b"wedged", start, &mut Vec::new())
            .unwrap();
        let Forwarded::Local(port, at) = twin.vswitch.forward(&egress.packet, egress.at) else {
            panic!("a co-resident guest is a local port");
        };

        // DMA wedges from then on, for longer than the retry budget: the
        // receiver's copy-back escalates and the send fails.
        let (mut server, g1, _) = two_guests(5);
        let mut plan = bmhive_faults::FaultPlan::new("dma-wedge-at-receiver");
        plan.push(bmhive_faults::FaultEvent::window(
            at,
            bmhive_faults::FaultSite::Dma,
            bmhive_faults::FaultKind::DmaTimeout,
            SimDuration::from_millis(8),
        ));
        bmhive_faults::arm(plan, 9);
        let err = server.guest_send(g1, dst, b"wedged", start).unwrap_err();
        bmhive_faults::disarm();
        assert!(matches!(
            err,
            ServerError::Io(SessionError::Escalated {
                op: "net_receive",
                ..
            })
        ));
        // The frame left the port queue all the same.
        assert_eq!(server.vswitch.queue_depth(port), 0);
    }

    #[test]
    fn frame_to_a_port_without_a_session_releases_its_slot() {
        let (mut server, g1, _) = two_guests(5);
        let stray = MacAddr::for_guest(77);
        server.vswitch.attach(stray, PortId(7));
        server
            .guest_send(g1, stray, b"nobody home", SimTime::from_secs(1))
            .unwrap();
        assert_eq!(server.vswitch.queue_depth(PortId(7)), 0);
    }

    #[test]
    fn guests_are_isolated_per_board() {
        // Two tenants: I/O by one does not appear in the other's
        // counters (hardware isolation, Table 1).
        let mut server = BmHiveServer::new(ServerConstraints::production(), 6);
        let image = MachineImage::centos_evaluation(1);
        let b1 = server.install_board(e5()).unwrap();
        let b2 = server.install_board(e5()).unwrap();
        let g1 = server.power_on(b1, &image, SimTime::ZERO).unwrap();
        let g2 = server.power_on(b2, &image, SimTime::ZERO).unwrap();
        server
            .guest_blk(g1, BlkRequestType::In, 0, &[], 512, SimTime::from_secs(1))
            .unwrap();
        let (_, _, io1) = server.guest_mut(g1).unwrap().counters();
        let (_, _, io2) = server.guest_mut(g2).unwrap().counters();
        // Boot I/Os are equal; only g1 has the extra request.
        assert_eq!(io1, io2 + 1);
    }

    #[test]
    fn unknown_handles_error_cleanly() {
        let mut server = BmHiveServer::new(ServerConstraints::production(), 7);
        assert!(server.power_off(GuestId(9)).is_err());
        assert!(server.boot_report(GuestId(9)).is_err());
        assert!(server.guest_mac(GuestId(9)).is_err());
        assert!(server
            .power_on(
                BoardId(3),
                &MachineImage::centos_evaluation(1),
                SimTime::ZERO
            )
            .is_err());
    }
}

#[cfg(test)]
mod firmware_tests {
    use super::*;
    use bmhive_cloud::catalog::INSTANCE_CATALOG;
    use bmhive_cloud::firmware::{FirmwareError, FirmwareImage, SigningKey};

    #[test]
    fn boards_provision_with_signed_factory_firmware() {
        let mut server = BmHiveServer::new(ServerConstraints::production(), 8);
        let board = server.install_board(&INSTANCE_CATALOG[0]).unwrap();
        assert_eq!(
            server.board_firmware_version(board).unwrap(),
            "efi-virtio-1.0"
        );
    }

    #[test]
    fn provider_signed_update_flashes_tenant_forgery_does_not() {
        let mut server = BmHiveServer::new(ServerConstraints::production(), 8);
        let board = server.install_board(&INSTANCE_CATALOG[0]).unwrap();
        // Provider pushes a patched EFI.
        let key = server.signing_key();
        let update = FirmwareImage::signed(&key, "efi-virtio-1.1", 2, b"patched".to_vec());
        server.update_board_firmware(board, update).unwrap();
        assert_eq!(
            server.board_firmware_version(board).unwrap(),
            "efi-virtio-1.1"
        );
        // A tenant forges an implant with their own key.
        let tenant_key = SigningKey::new(0xdead);
        let implant = FirmwareImage::signed(&tenant_key, "efi-evil", 3, b"implant".to_vec());
        let err = server.update_board_firmware(board, implant).unwrap_err();
        assert!(matches!(
            err,
            ServerError::Firmware(FirmwareError::BadSignature)
        ));
        // A replayed old (signed) image is a rollback.
        let old = FirmwareImage::signed(
            &key,
            "efi-virtio-1.0",
            1,
            b"factory EFI with virtio-blk boot support".to_vec(),
        );
        let err = server.update_board_firmware(board, old).unwrap_err();
        assert!(matches!(
            err,
            ServerError::Firmware(FirmwareError::Rollback { .. })
        ));
        assert_eq!(
            server.board_firmware_version(board).unwrap(),
            "efi-virtio-1.1"
        );
    }
}
