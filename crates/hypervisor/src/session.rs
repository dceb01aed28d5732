//! One guest session over two transports.
//!
//! A tenant's unmodified virtio front-end runs on both platforms
//! (§3.2, which is what makes cold migration work), behind the same
//! virtio backend: only the transport differs — IO-Bond shadow vrings
//! for a bm-guest, vhost shared memory for a vm-guest. So everything
//! else lives here, once:
//!
//! * [`GuestSession`] — one guest: its MAC, its RAM, its driver, its
//!   backend and its [`Transport`]. Each guest op (`net_send`,
//!   `net_receive`, `blk_request`) is written once, as one sequence of
//!   steps: post, kick, sync, PMD poll, `serve_*`, host copy, admit,
//!   complete, reap, telemetry.
//! * [`Transport`] — what differs between the platforms: the price of
//!   each step, and the spans, counters and timers each op records. A
//!   step a transport does not take is the identity.
//! * [`GuestDriver`] — the guest's virtio-net/blk driver: ring
//!   layouts, buffer arenas, posted-buffer slabs, rx replenish, tx
//!   post/reap, rx reap, and blk chain assembly/reap.
//! * [`Backend`] — the virtio backend: rx, tx and blk ring consumers
//!   and the instance limits. It pops, reads or fills, admits, executes
//!   and completes each chain, and hands its ring cursors to a live
//!   upgrade.
//! * The result types every session returns, and the one backend cost
//!   both transports share ([`FLUSH_SERVICE`]).

use crate::upgrade::BackendState;
use bmhive_cloud::blockstore::{BlockStore, IoKind};
use bmhive_cloud::limits::InstanceLimits;
use bmhive_faults::FaultSite;
use bmhive_iobond::StagingPool;
use bmhive_mem::{GuestAddr, GuestRam, SgList, SgSegment};
use bmhive_net::{MacAddr, Packet, PacketKind};
use bmhive_sim::{SimDuration, SimTime};
use bmhive_telemetry as telemetry;
use bmhive_virtio::{
    BlkRequestHeader, BlkRequestType, BlkStatus, DescChain, QueueLayout, VirtioError,
    VirtioNetHeader, Virtqueue, VirtqueueDriver, VIRTIO_NET_HDR_LEN,
};
use std::error::Error;
use std::fmt;

/// Backend time to execute a blk flush (the store's write-back
/// barrier), the same behind IO-Bond and vhost. Not calibrated to a
/// paper figure: no experiment issues a flush.
pub(crate) const FLUSH_SERVICE: SimDuration = SimDuration::from_micros(50);

/// Errors from guest I/O operations.
#[derive(Debug)]
pub enum SessionError {
    /// A virtio ring failed.
    Virtio(VirtioError),
    /// Guest-side buffers are exhausted.
    NoBuffers,
    /// The backend received a malformed request.
    BadRequest(&'static str),
    /// The device serving `op` has no live shadow queue: its backend
    /// failed and no recovery has rebuilt it.
    DeviceDown {
        /// The session operation that found the device down.
        op: &'static str,
    },
    /// A fault at `site` exhausted its retry budget during `op` without
    /// clearing: the operation never went through and the device path
    /// needs a reset. Surfaced per-op (the second half of the
    /// partial-recovery contract) instead of stats-only attribution.
    Escalated {
        /// The fault site whose retry budget ran out.
        site: FaultSite,
        /// The session operation that observed the exhausted budget.
        op: &'static str,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Virtio(e) => write!(f, "virtio failure: {e}"),
            SessionError::NoBuffers => write!(f, "guest buffer pool exhausted"),
            SessionError::BadRequest(why) => write!(f, "malformed request: {why}"),
            SessionError::DeviceDown { op } => write!(f, "device down during {op}"),
            SessionError::Escalated { site, op } => {
                write!(
                    f,
                    "unrecovered fault at {} escalated during {op}",
                    site.name()
                )
            }
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Virtio(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VirtioError> for SessionError {
    fn from(e: VirtioError) -> Self {
        SessionError::Virtio(e)
    }
}

impl From<bmhive_mem::MemError> for SessionError {
    fn from(e: bmhive_mem::MemError) -> Self {
        SessionError::Virtio(VirtioError::Mem(e))
    }
}

/// Timing of one completed guest I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoTiming {
    /// When the guest issued the request (kick).
    pub submitted: SimTime,
    /// When the completion (interrupt + reap) reached the guest.
    pub completed: SimTime,
}

impl IoTiming {
    /// The guest-observed latency.
    pub fn latency(&self) -> SimDuration {
        self.completed.saturating_duration_since(self.submitted)
    }
}

/// A packet handed to the vSwitch by the backend. Its payload bytes
/// go into the buffer the caller passed to `net_send`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EgressPacket {
    /// Frame metadata.
    pub packet: Packet,
    /// When the backend handed it to the switch.
    pub at: SimTime,
}

/// Records a `cat` telemetry span for the phase from `from` to `to`.
pub(crate) fn phase(cat: &'static str, name: &'static str, from: SimTime, to: SimTime) {
    telemetry::span(cat, name, from, to.saturating_duration_since(from));
}

/// Size of one posted rx buffer (hdr + MTU frame). Each sits alone at
/// the start of a 4 KiB page, so releasing a reaped buffer frees its
/// page.
pub(crate) const RX_BUF: u32 = 2048;

/// Bytes in a virtio-blk request header.
const BLK_HDR_LEN: u64 = 16;

/// A guest virtio queue, and so the session op served on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Queue {
    /// net rx: `net_receive`.
    Rx,
    /// net tx: `net_send`.
    Tx,
    /// blk: `blk_request`.
    Blk,
}

impl Queue {
    /// The op's name: its span, and the op an escalation names.
    pub(crate) fn op(self) -> &'static str {
        match self {
            Queue::Rx => "net_receive",
            Queue::Tx => "net_send",
            Queue::Blk => "blk_request",
        }
    }
}

/// When one op passed each step of the session's sequence. A mark the
/// op does not pass stays at `now`.
#[derive(Debug, Clone, Copy)]
pub struct Marks {
    /// The guest issued the op.
    pub(crate) now: SimTime,
    /// The kick reached the device.
    pub(crate) kicked: SimTime,
    /// The device's view of the ring caught up with the guest's.
    pub(crate) synced: SimTime,
    /// The backend saw the chain.
    pub(crate) seen: SimTime,
    /// The host CPU copied the frame.
    pub(crate) copied: SimTime,
    /// The completion was ready: a frame admitted or copied, a blk
    /// request executed.
    pub(crate) ready: SimTime,
    /// The completion reached the guest.
    pub(crate) done: SimTime,
}

impl Marks {
    /// An op issued at `now` that has passed no step yet.
    fn start(now: SimTime) -> Self {
        Marks {
            now,
            kicked: now,
            synced: now,
            seen: now,
            copied: now,
            ready: now,
            done: now,
        }
    }

    /// The guest-observed timing.
    fn timing(&self) -> IoTiming {
        IoTiming {
            submitted: self.now,
            completed: self.done,
        }
    }
}

/// What a [`GuestSession`] prices differently per platform: how a
/// guest's chain reaches the virtio backend and how its completion comes
/// back. A default method is the identity, for a step the transport
/// does not take. Each method that can fail fails on a ring error or an
/// escalated fault.
pub trait Transport {
    /// When a post at `now` reaches the device; the post `needed` a
    /// kick under EVENT_IDX.
    fn kick(&mut self, needed: bool, now: SimTime) -> SimTime;

    /// Syncs the device's view of `queue` with the guest's ring in
    /// `ram` at `at`, and returns when it caught up.
    fn sync(
        &mut self,
        _ram: &mut GuestRam,
        _queue: Queue,
        at: SimTime,
    ) -> Result<SimTime, SessionError> {
        Ok(at)
    }

    /// When the backend sees a chain synced onto `queue` at `at`.
    fn poll(&self, _queue: Queue, at: SimTime) -> Result<SimTime, SessionError> {
        Ok(at)
    }

    /// Host CPU time to copy `bytes` of a request's data.
    fn host_copy(_bytes: u64) -> SimDuration {
        SimDuration::ZERO
    }

    /// The RAM the backend's rings live in, given the guest's.
    fn backend_ram<'a>(&'a mut self, ram: &'a mut GuestRam) -> &'a mut GuestRam {
        ram
    }

    /// Returns a completion ready on `queue` at `at` to the guest's ring
    /// in `ram`, and returns when the guest sees it; `vcpu_idle` says
    /// whether the guest's vCPU is halted waiting for it.
    fn complete(
        &mut self,
        ram: &mut GuestRam,
        queue: Queue,
        at: SimTime,
        vcpu_idle: bool,
    ) -> Result<SimTime, SessionError>;

    /// Records one op's spans, counters and timers from its `marks`.
    /// Called only with telemetry on.
    fn trace(queue: Queue, marks: &Marks);
}

/// One guest: its virtio driver in its RAM, the virtio backend, and the
/// transport between them. Each op runs one sequence of steps on every
/// transport: post, kick, sync, PMD poll, `serve_*`, host copy, admit,
/// complete, reap, telemetry.
#[derive(Debug)]
pub struct GuestSession<T> {
    pub(crate) mac: MacAddr,
    /// The guest's RAM: the compute board's on a bm-guest.
    pub(crate) ram: GuestRam,
    /// The guest's virtio driver, in `ram`.
    pub(crate) guest: GuestDriver,
    pub(crate) backend: Backend,
    pub(crate) transport: T,
}

impl<T: Transport> GuestSession<T> {
    /// The guest's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Packets sent / received / block ops completed so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        let guest = &self.guest;
        (guest.total_tx, guest.total_rx, guest.total_io)
    }

    /// Sends one packet: the guest posts it on the tx ring and kicks,
    /// the backend consumes it and produces the egress frame, and the
    /// guest reaps the completion.
    ///
    /// Returns the egress packet (for the caller to hand to the vSwitch)
    /// and the guest-observed timing; the frame's payload, as the
    /// backend read it, goes into `out` (cleared first).
    ///
    /// # Errors
    ///
    /// Fails on ring errors, buffer exhaustion or an escalated fault.
    pub fn net_send(
        &mut self,
        dst: MacAddr,
        kind: PacketKind,
        payload: &[u8],
        now: SimTime,
        out: &mut Vec<u8>,
    ) -> Result<(EgressPacket, IoTiming), SessionError> {
        let mut m = Marks::start(now);
        let needed = self.guest.post_tx(&mut self.ram, payload)?;
        m.kicked = self.transport.kick(needed, now);
        m.synced = self.transport.sync(&mut self.ram, Queue::Tx, m.kicked)?;
        m.seen = self.transport.poll(Queue::Tx, m.synced)?;
        let backend_ram = self.transport.backend_ram(&mut self.ram);
        self.backend.serve_tx(backend_ram, out)?;
        m.copied = m.seen + T::host_copy(VIRTIO_NET_HDR_LEN + out.len() as u64);
        let packet = Packet::new(self.mac, dst, kind, out.len() as u32, self.counters().0);
        m.ready = self.backend.admit_packet(packet.wire_bytes(), m.copied);
        // The sender is running, not idle.
        m.done = self
            .transport
            .complete(&mut self.ram, Queue::Tx, m.ready, false)?;
        self.guest.reap_tx(&self.ram)?;
        // The spans are recorded after the fact (every boundary is only
        // known once the op is priced), so the error paths above can
        // never leave a span open.
        if telemetry::is_enabled() {
            T::trace(Queue::Tx, &m);
        }
        Ok((
            EgressPacket {
                packet,
                at: m.ready,
            },
            m.timing(),
        ))
    }

    /// Delivers one ingress packet: the backend fills a posted rx
    /// buffer, and the guest reaps the completion.
    ///
    /// Returns the timing (from backend receipt to guest reap); the
    /// payload as the guest read it goes into `out` (cleared first).
    ///
    /// # Errors
    ///
    /// Fails on ring errors or an escalated fault; returns `NoBuffers`
    /// if the guest has no rx buffer posted (the frame would be
    /// dropped).
    pub fn net_receive(
        &mut self,
        payload: &[u8],
        now: SimTime,
        out: &mut Vec<u8>,
    ) -> Result<IoTiming, SessionError> {
        self.net_receive_into(payload, now, Some(out))
    }

    /// [`Self::net_receive`] with an optional destination: with `None`
    /// the frame lands in the guest's rx buffer and is reaped, timed and
    /// counted the same, but no byte of it is copied back out of guest
    /// RAM (a caller that never reads the payload).
    ///
    /// # Errors
    ///
    /// As [`Self::net_receive`].
    pub fn net_receive_into(
        &mut self,
        payload: &[u8],
        now: SimTime,
        out: Option<&mut Vec<u8>>,
    ) -> Result<IoTiming, SessionError> {
        let mut m = Marks::start(now);
        // No post and no kick: the rx ring is kept stocked, and the
        // freshly posted buffers only have to reach the device.
        self.transport.sync(&mut self.ram, Queue::Rx, now)?;
        let backend_ram = self.transport.backend_ram(&mut self.ram);
        self.backend.serve_rx(backend_ram, payload)?;
        m.copied = now + T::host_copy(VIRTIO_NET_HDR_LEN + payload.len() as u64);
        m.ready = m.copied;
        // The receiver may be idle.
        m.done = self
            .transport
            .complete(&mut self.ram, Queue::Rx, m.ready, true)?;
        self.guest.reap_rx(&mut self.ram, out)?;
        if telemetry::is_enabled() {
            T::trace(Queue::Rx, &m);
        }
        Ok(m.timing())
    }

    /// Issues one block request against `store` and runs it to
    /// completion: the guest posts header, data and status byte and
    /// kicks, the backend executes it on the store (after the
    /// IOPS/bandwidth caps), and the guest reaps the completion.
    ///
    /// A read's bytes go into `out`, which is cleared for every other
    /// request.
    ///
    /// # Errors
    ///
    /// Fails on ring errors, buffer exhaustion or an escalated fault.
    pub fn blk_request(
        &mut self,
        store: &mut BlockStore,
        header: BlkRequestHeader,
        data: &[u8],
        read_len: u64,
        now: SimTime,
        out: &mut Vec<u8>,
    ) -> Result<(BlkStatus, IoTiming), SessionError> {
        self.blk_request_into(store, header, data, read_len, now, Some(out))
    }

    /// [`Self::blk_request`] with an optional destination: with `None`
    /// a read's data stays in guest RAM, where it landed, and the reap
    /// copies none of it (the firmware's boot reads).
    pub(crate) fn blk_request_into(
        &mut self,
        store: &mut BlockStore,
        header: BlkRequestHeader,
        data: &[u8],
        read_len: u64,
        now: SimTime,
        out: Option<&mut Vec<u8>>,
    ) -> Result<(BlkStatus, IoTiming), SessionError> {
        let mut m = Marks::start(now);
        let needed = self.guest.post_blk(&mut self.ram, header, data, read_len)?;
        m.kicked = self.transport.kick(needed, now);
        m.synced = self.transport.sync(&mut self.ram, Queue::Blk, m.kicked)?;
        m.seen = self.transport.poll(Queue::Blk, m.synced)?;
        // The backend copies, admits and executes the request.
        let backend_ram = self.transport.backend_ram(&mut self.ram);
        m.ready = self
            .backend
            .serve_blk(backend_ram, store, m.seen, T::host_copy)?;
        // Storage completions usually find the vCPU halted in io_wait.
        m.done = self
            .transport
            .complete(&mut self.ram, Queue::Blk, m.ready, true)?;
        let status = self.guest.reap_blk(&self.ram, header.req_type, out)?;
        if telemetry::is_enabled() {
            T::trace(Queue::Blk, &m);
        }
        Ok((status, m.timing()))
    }
}

/// The guest's virtio-net (rx + tx) and virtio-blk driver, identical on
/// both platforms: rings and buffer arenas in the guest's RAM, and the
/// posted-buffer slabs that map each completed head back to its
/// buffers. A reap copies what it hands back into a caller-owned
/// buffer, or copies nothing when the caller passes none, so
/// steady-state posts and reaps allocate nothing. A reaped rx buffer's
/// page is released: a posted buffer holds no resident page until a
/// frame lands in it.
#[derive(Debug)]
pub(crate) struct GuestDriver {
    net_rx: VirtqueueDriver,
    net_tx: VirtqueueDriver,
    blk: VirtqueueDriver,
    tx_pool: StagingPool,
    rx_pool: StagingPool,
    blk_pool: StagingPool,
    /// rx heads → their buffer. Slab indexed by head (`None` = not
    /// posted).
    rx_posted: Vec<Option<SgList>>,
    /// tx heads → their buffer. Slab indexed by head.
    tx_posted: Vec<Option<SgList>>,
    /// blk heads → their buffers. Slab indexed by head (empty = not
    /// posted); completed slots keep their capacity.
    blk_posted: Vec<Vec<SgList>>,
    total_tx: u64,
    total_rx: u64,
    total_io: u64,
    /// Reused readable-segment list for blk chain assembly.
    blk_readable: Vec<SgSegment>,
    /// Reused writable-segment list for blk chain assembly.
    blk_writable: Vec<SgSegment>,
    /// Reused buffer list for blk chain assembly; swaps with the
    /// `blk_posted` slab so capacities circulate instead of reallocating.
    blk_slots: Vec<SgList>,
}

impl GuestDriver {
    /// Lays out the rx, tx and blk rings of `queue_size` entries in
    /// `ram`, with the buffer arenas behind them, and stocks the rx
    /// ring.
    ///
    /// # Panics
    ///
    /// Panics if `queue_size` is not a power of two (virtio requirement).
    pub(crate) fn new(ram: &mut GuestRam, queue_size: u16) -> Self {
        let rx_layout = QueueLayout::contiguous(GuestAddr::new(0x10_000), queue_size);
        let tx_layout = QueueLayout::contiguous(
            (rx_layout.used + rx_layout.footprint()).align_up(4096),
            queue_size,
        );
        let blk_layout = QueueLayout::contiguous(
            (tx_layout.used + tx_layout.footprint()).align_up(4096),
            queue_size,
        );
        let slots = u32::from(queue_size);
        let mut driver = GuestDriver {
            net_rx: VirtqueueDriver::new(ram, rx_layout).expect("rx ring"),
            net_tx: VirtqueueDriver::new(ram, tx_layout).expect("tx ring"),
            blk: VirtqueueDriver::new(ram, blk_layout).expect("blk ring"),
            tx_pool: StagingPool::new(GuestAddr::new(0x100_0000), 2 * slots, 4096),
            rx_pool: StagingPool::new(GuestAddr::new(0x200_0000), 2 * slots, 4096),
            blk_pool: StagingPool::new(GuestAddr::new(0x400_0000), 4 * slots, 64 * 1024),
            rx_posted: (0..queue_size).map(|_| None).collect(),
            tx_posted: (0..queue_size).map(|_| None).collect(),
            blk_posted: (0..queue_size).map(|_| Vec::new()).collect(),
            total_tx: 0,
            total_rx: 0,
            total_io: 0,
            blk_readable: Vec::new(),
            blk_writable: Vec::new(),
            blk_slots: Vec::new(),
        };
        driver.replenish_rx(ram).expect("initial rx buffers");
        driver
    }

    /// The rx, tx and blk ring layouts, in that order.
    pub(crate) fn layouts(&self) -> [QueueLayout; 3] {
        [
            *self.net_rx.layout(),
            *self.net_tx.layout(),
            *self.blk.layout(),
        ]
    }

    /// Keeps the rx ring stocked with buffers, as a net driver's NAPI
    /// refill does.
    fn replenish_rx(&mut self, ram: &mut GuestRam) -> Result<(), SessionError> {
        while self.net_rx.num_free() > 0 {
            let Some(buf) = self.rx_pool.alloc(u64::from(RX_BUF)) else {
                break;
            };
            let head = self.net_rx.add_buf(ram, &[], buf.segments())?;
            self.rx_posted[usize::from(head)] = Some(buf);
        }
        Ok(())
    }

    /// Writes virtio-net header + `payload` into a tx buffer and posts
    /// it. Returns whether the post must kick the device under
    /// EVENT_IDX (the device's `avail_event` lies in the posted range).
    pub(crate) fn post_tx(
        &mut self,
        ram: &mut GuestRam,
        payload: &[u8],
    ) -> Result<bool, SessionError> {
        let total = VIRTIO_NET_HDR_LEN + payload.len() as u64;
        let buf = self.tx_pool.alloc(total).ok_or(SessionError::NoBuffers)?;
        // The buffer may span slots; scatter hdr and payload across it.
        scatter_frame(ram, &buf, payload)?;
        let old_avail = self.net_tx.avail_idx();
        let head = self.net_tx.add_buf(ram, buf.segments(), &[])?;
        self.tx_posted[usize::from(head)] = Some(buf);
        Ok(self.net_tx.kick_needed_event_idx(ram, old_avail)?)
    }

    /// Reaps tx completions, freeing their buffers, and counts the send.
    pub(crate) fn reap_tx(&mut self, ram: &GuestRam) -> Result<(), SessionError> {
        while let Some((head, _)) = self.net_tx.poll_used(ram)? {
            if let Some(buf) = self.tx_posted[usize::from(head)].take() {
                self.tx_pool.free(&buf);
            }
        }
        self.total_tx += 1;
        Ok(())
    }

    /// Reaps rx completions, restocks the ring, counts the receive, and
    /// copies the last delivered payload into `out` (cleared first), if
    /// given. The ring is restocked even when a completion is malformed,
    /// so a misbehaving device cannot drain it.
    pub(crate) fn reap_rx(
        &mut self,
        ram: &mut GuestRam,
        mut out: Option<&mut Vec<u8>>,
    ) -> Result<(), SessionError> {
        if let Some(out) = out.as_deref_mut() {
            out.clear();
        }
        let reaped = self.take_rx_completions(ram, out);
        self.replenish_rx(ram)?;
        if !reaped? {
            return Err(SessionError::BadRequest("no rx completion"));
        }
        self.total_rx += 1;
        Ok(())
    }

    /// Drains the rx used ring, returning each buffer to its pool with
    /// its page released once any payload is copied out, and copies the
    /// last frame's payload into `out`, if given. Only the used length
    /// is read. Returns whether any completion was reaped.
    fn take_rx_completions(
        &mut self,
        ram: &mut GuestRam,
        mut out: Option<&mut Vec<u8>>,
    ) -> Result<bool, SessionError> {
        let mut delivered = false;
        while let Some((head, len)) = self.net_rx.poll_used(ram)? {
            let buf = self
                .rx_posted
                .get_mut(usize::from(head))
                .and_then(Option::take)
                .ok_or(SessionError::BadRequest("unknown rx head"))?;
            let used = u64::from(len);
            let gathered = if used < VIRTIO_NET_HDR_LEN {
                Err(SessionError::BadRequest("rx frame shorter than header"))
            } else if used > buf.total_len() {
                Err(SessionError::BadRequest("rx frame longer than its buffer"))
            } else if let Some(out) = out.as_deref_mut() {
                let (frame, _) = buf.split_at(used);
                let (_, payload) = frame.split_at(VIRTIO_NET_HDR_LEN);
                payload.gather_into(ram, out).map_err(SessionError::from)
            } else {
                Ok(())
            };
            // The frame's bytes are dead once reaped.
            self.rx_pool.release(&buf, ram)?;
            gathered?;
            delivered = true;
        }
        Ok(delivered)
    }

    /// Builds and posts one blk chain: the 16-byte `header`, then
    /// `data` (a write) or a `read_len`-byte buffer (a read), then the
    /// status byte. Returns whether the post must kick under EVENT_IDX.
    pub(crate) fn post_blk(
        &mut self,
        ram: &mut GuestRam,
        header: BlkRequestHeader,
        data: &[u8],
        read_len: u64,
    ) -> Result<bool, SessionError> {
        let hdr_buf = self
            .blk_pool
            .alloc(BLK_HDR_LEN)
            .ok_or(SessionError::NoBuffers)?;
        hdr_buf.scatter(ram, &header.to_bytes())?;
        // Assemble the chain in the reused scratch lists (steady-state
        // requests allocate nothing here).
        let mut readable = std::mem::take(&mut self.blk_readable);
        readable.clear();
        readable.extend_from_slice(hdr_buf.segments());
        let mut writable = std::mem::take(&mut self.blk_writable);
        writable.clear();
        let mut slots = std::mem::take(&mut self.blk_slots);
        slots.clear();
        slots.push(hdr_buf);

        if matches!(header.req_type, BlkRequestType::In) && read_len > 0 {
            let buf = self
                .blk_pool
                .alloc(read_len)
                .ok_or(SessionError::NoBuffers)?;
            writable.extend_from_slice(buf.segments());
            slots.push(buf);
        } else if !data.is_empty() {
            let buf = self
                .blk_pool
                .alloc(data.len() as u64)
                .ok_or(SessionError::NoBuffers)?;
            buf.scatter(ram, data)?;
            readable.extend_from_slice(buf.segments());
            slots.push(buf);
        }
        let status_buf = self.blk_pool.alloc(1).ok_or(SessionError::NoBuffers)?;
        writable.extend_from_slice(status_buf.segments());
        slots.push(status_buf);

        let old_avail = self.blk.avail_idx();
        let head = self.blk.add_buf(ram, &readable, &writable)?;
        std::mem::swap(&mut self.blk_posted[usize::from(head)], &mut slots);
        debug_assert!(slots.is_empty(), "blk slab slot reused while posted");
        self.blk_slots = slots;
        self.blk_readable = readable;
        self.blk_writable = writable;
        Ok(self.blk.kick_needed_event_idx(ram, old_avail)?)
    }

    /// Reaps blk completions, returning each chain's buffers to their
    /// pool, counts the op, and returns the last one's status. With an
    /// `out`, a read's data (`req` is `In`) goes into it (cleared
    /// first); with none, the data stays where the device put it, in
    /// guest memory, and nothing is copied.
    pub(crate) fn reap_blk(
        &mut self,
        ram: &GuestRam,
        req: BlkRequestType,
        mut out: Option<&mut Vec<u8>>,
    ) -> Result<BlkStatus, SessionError> {
        let is_read = matches!(req, BlkRequestType::In);
        let mut status = BlkStatus::IoErr;
        if let Some(out) = out.as_deref_mut() {
            out.clear();
        }
        while let Some((head, _len)) = self.blk.poll_used(ram)? {
            let posted = self
                .blk_posted
                .get_mut(usize::from(head))
                .filter(|slots| !slots.is_empty())
                .ok_or(SessionError::BadRequest("unknown blk head"))?;
            let mut slots = std::mem::take(&mut self.blk_slots);
            std::mem::swap(posted, &mut slots);
            // Last slot is the status byte; for reads the middle slot is
            // the data.
            let read = read_blk_completion(ram, &slots, is_read, out.as_deref_mut());
            for slot in &slots {
                self.blk_pool.free(slot);
            }
            slots.clear();
            self.blk_slots = slots;
            status = read?;
        }
        self.total_io += 1;
        Ok(status)
    }
}

/// Reads a reaped blk chain's status byte from its last buffer and, if
/// there is an `out`, a read's data into it (cleared for any other
/// chain).
fn read_blk_completion(
    ram: &GuestRam,
    slots: &[SgList],
    is_read: bool,
    out: Option<&mut Vec<u8>>,
) -> Result<BlkStatus, SessionError> {
    let mut status = [0u8; 1];
    slots
        .last()
        .expect("a posted blk chain has a status slot")
        .gather_prefix(ram, &mut status)?;
    if let Some(out) = out {
        if is_read && slots.len() == 3 {
            slots[1].gather_into(ram, out)?;
        } else {
            out.clear();
        }
    }
    Ok(BlkStatus::from_wire(status[0]))
}

/// The virtio backend both sessions run: consumers of the rx, tx and
/// blk rings, and the instance limits. The caller passes the RAM the
/// rings live in (base RAM's shadow rings for a bm-guest, the guest's
/// own RAM for a vm-guest) and prices its own transport around each
/// `serve_*`.
#[derive(Debug)]
pub(crate) struct Backend {
    rx: Virtqueue,
    tx: Virtqueue,
    blk: Virtqueue,
    limits: InstanceLimits,
}

impl Backend {
    /// Fresh consumers of the rx, tx and blk rings at `layouts`.
    pub(crate) fn new(layouts: [QueueLayout; 3], limits: InstanceLimits) -> Self {
        let [rx, tx, blk] = layouts.map(Virtqueue::new);
        Backend {
            rx,
            tx,
            blk,
            limits,
        }
    }

    /// Moves to fresh rings at `layouts`, cursors at zero, keeping the
    /// limits: a backend restarted after a board power loss.
    pub(crate) fn rebind(&mut self, layouts: [QueueLayout; 3]) {
        [self.rx, self.tx, self.blk] = layouts.map(Virtqueue::new);
    }

    /// When a `bytes`-long frame ready at `at` clears the rate limits.
    pub(crate) fn admit_packet(&mut self, bytes: u32, at: SimTime) -> SimTime {
        self.limits.admit_packet(bytes, at)
    }

    /// Serves the next tx chain: its payload after the virtio-net
    /// header goes into `out` (cleared first).
    pub(crate) fn serve_tx(
        &mut self,
        ram: &mut GuestRam,
        out: &mut Vec<u8>,
    ) -> Result<(), SessionError> {
        let chain = self
            .tx
            .pop_avail(ram)?
            .ok_or(SessionError::BadRequest("tx chain missing"))?;
        tx_payload(ram, &chain, out)?;
        self.tx.push_used(ram, chain.head, 0)?;
        Ok(())
    }

    /// Fills the next posted rx buffer with virtio-net header +
    /// `payload`; `NoBuffers` if the guest has none posted.
    pub(crate) fn serve_rx(
        &mut self,
        ram: &mut GuestRam,
        payload: &[u8],
    ) -> Result<(), SessionError> {
        let chain = self.rx.pop_avail(ram)?.ok_or(SessionError::NoBuffers)?;
        let written = fill_rx(ram, &chain, payload)?;
        self.rx.push_used(ram, chain.head, written)?;
        Ok(())
    }

    /// Serves the next blk chain, which reached the backend at `at`:
    /// parse, admit, execute on `store`, and write the response.
    /// `host_copy` prices the backend CPU's copy of the request's data,
    /// before admission for a write and after the store for a read.
    /// Returns when the backend finished it.
    pub(crate) fn serve_blk(
        &mut self,
        ram: &mut GuestRam,
        store: &mut BlockStore,
        at: SimTime,
        host_copy: fn(u64) -> SimDuration,
    ) -> Result<SimTime, SessionError> {
        let chain = self
            .blk
            .pop_avail(ram)?
            .ok_or(SessionError::BadRequest("blk chain missing"))?;
        let req = parse_blk(ram, &chain)?;
        let done = match req.header.req_type {
            BlkRequestType::In => {
                let admitted = self.limits.admit_io(req.data_out_len, at);
                let io = store.submit(IoKind::Read, req.data_out_len, admitted);
                io.complete_at + host_copy(req.data_out_len)
            }
            BlkRequestType::Out => {
                let copied = at + host_copy(req.data_in_len);
                let admitted = self.limits.admit_io(req.data_in_len, copied);
                store
                    .submit(IoKind::Write, req.data_in_len, admitted)
                    .complete_at
            }
            BlkRequestType::Flush => at + FLUSH_SERVICE,
            BlkRequestType::Unsupported(_) => at,
        };
        let written = complete_blk(ram, &chain, &req)?;
        self.blk.push_used(ram, chain.head, written)?;
        Ok(done)
    }

    /// The rx, tx and blk consumers' layouts and cursors: what a live
    /// upgrade hands to the new backend.
    pub(crate) fn snapshot(&self) -> [BackendState; 3] {
        [&self.rx, &self.tx, &self.blk].map(|vq| BackendState {
            layout: *vq.layout(),
            last_avail_idx: vq.last_avail_idx(),
            used_idx: vq.used_idx(),
        })
    }

    /// Rebuilds the ring consumers from `state`, so they continue
    /// exactly where the snapshot's left off; the limits stay.
    pub(crate) fn resume(&mut self, state: [BackendState; 3]) {
        [self.rx, self.tx, self.blk] = state.map(|s| {
            let mut vq = Virtqueue::new(s.layout);
            vq.restore_cursors(s.last_avail_idx, s.used_idx);
            vq
        });
    }
}

/// A virtio-blk request as the backend parsed it from a popped chain.
#[derive(Debug)]
struct BlkRequest {
    /// The request header.
    header: BlkRequestHeader,
    /// Payload bytes after the header (what a write carries).
    data_in_len: u64,
    /// Writable bytes before the status byte (what a read fills).
    data_out_len: u64,
}

/// Writes a virtio-net header and then `payload` across `buf`,
/// returning the bytes written (`min(12 + payload.len(), total_len())`).
fn scatter_frame(ram: &mut GuestRam, buf: &SgList, payload: &[u8]) -> Result<u64, SessionError> {
    let (hdr, body) = buf.split_at(VIRTIO_NET_HDR_LEN.min(buf.total_len()));
    let written = hdr.scatter(ram, &VirtioNetHeader::simple().to_bytes())?;
    Ok(written + body.scatter(ram, payload)?)
}

/// Copies a tx chain's payload, the bytes after the virtio-net header,
/// into `out` (cleared first). The header itself is never read.
fn tx_payload(ram: &GuestRam, chain: &DescChain, out: &mut Vec<u8>) -> Result<(), SessionError> {
    if chain.readable.total_len() < VIRTIO_NET_HDR_LEN {
        return Err(SessionError::BadRequest(
            "frame shorter than virtio-net header",
        ));
    }
    let (_, payload) = chain.readable.split_at(VIRTIO_NET_HDR_LEN);
    payload.gather_into(ram, out)?;
    Ok(())
}

/// Writes virtio-net header + `payload` into an rx chain and returns
/// the bytes written (the used length).
fn fill_rx(ram: &mut GuestRam, chain: &DescChain, payload: &[u8]) -> Result<u32, SessionError> {
    Ok(scatter_frame(ram, &chain.writable, payload)? as u32)
}

/// Parses a blk chain's header. Only the header is read: the store
/// models a write's timing, not its contents, so the payload is never
/// gathered.
fn parse_blk(ram: &GuestRam, chain: &DescChain) -> Result<BlkRequest, SessionError> {
    let mut hdr_bytes = [0u8; BLK_HDR_LEN as usize];
    if chain.readable.gather_prefix(ram, &mut hdr_bytes)? < hdr_bytes.len() {
        return Err(SessionError::BadRequest("blk header too short"));
    }
    let writable_len = chain.writable.total_len();
    if writable_len == 0 {
        return Err(SessionError::BadRequest("blk chain lacks status byte"));
    }
    Ok(BlkRequest {
        header: BlkRequestHeader::from_bytes(&hdr_bytes),
        data_in_len: chain.readable.total_len() - BLK_HDR_LEN,
        data_out_len: writable_len - 1,
    })
}

/// Writes `req`'s response into its chain and returns the used length:
/// a read gets the synthetic volume's bytes, filled in place, plus an
/// OK status; a write or flush gets an OK status byte; an unsupported
/// type gets an UNSUPP status byte.
fn complete_blk(
    ram: &mut GuestRam,
    chain: &DescChain,
    req: &BlkRequest,
) -> Result<u32, SessionError> {
    let (status, data_len) = match req.header.req_type {
        BlkRequestType::In => {
            let sector = req.header.sector;
            let filled = chain
                .writable
                .scatter_with(ram, req.data_out_len, |done, piece| {
                    fill_volume(sector, done as u64, piece);
                })?;
            (BlkStatus::Ok, filled)
        }
        BlkRequestType::Out | BlkRequestType::Flush => (BlkStatus::Ok, 0),
        BlkRequestType::Unsupported(_) => (BlkStatus::Unsupported, 0),
    };
    let (_, status_sg) = chain.writable.split_at(req.data_out_len);
    status_sg.scatter(ram, &[status.to_wire()])?;
    Ok((data_len + 1) as u32)
}

/// The synthetic volume's contents repeat every 251 bytes.
const VOLUME_PERIOD: usize = 251;

/// The longest piece [`fill_volume`] copies at once: a page.
const VOLUME_CHUNK: usize = 4096;

/// The synthetic volume from phase 0 on, one page plus one period
/// long: byte `i` is `i mod 251`, so a page piece at any phase is one
/// copy out of it.
const VOLUME_RUN: [u8; VOLUME_CHUNK + VOLUME_PERIOD] = {
    let mut bytes = [0u8; VOLUME_CHUNK + VOLUME_PERIOD];
    let mut i = 0;
    while i < bytes.len() {
        bytes[i] = (i % VOLUME_PERIOD) as u8;
        i += 1;
    }
    bytes
};

/// Fills `piece` with bytes `offset..` of the synthetic volume read at
/// `sector`: byte `i` is `(sector + i) mod 251`, the addition wrapping
/// at `u64::MAX` (the sector is guest-controlled).
fn fill_volume(sector: u64, offset: u64, piece: &mut [u8]) {
    let mut at = sector.wrapping_add(offset);
    let mut filled = 0;
    while filled < piece.len() {
        // Up to a page, and no further than the wrap back to 0, where
        // the pattern restarts.
        let to_wrap = (u64::MAX - at).saturating_add(1);
        let take = ((piece.len() - filled) as u64)
            .min(VOLUME_CHUNK as u64)
            .min(to_wrap) as usize;
        let phase = (at % VOLUME_PERIOD as u64) as usize;
        piece[filled..filled + take].copy_from_slice(&VOLUME_RUN[phase..phase + take]);
        filled += take;
        at = at.wrapping_add(take as u64);
    }
}

#[cfg(test)]
impl<T> GuestSession<T> {
    /// The guest driver and the RAM its rings live in.
    pub(crate) fn guest_mut(&mut self) -> (&mut GuestDriver, &mut GuestRam) {
        (&mut self.guest, &mut self.ram)
    }
}

#[cfg(test)]
impl Backend {
    /// The rx ring's consumer.
    pub(crate) fn rx_mut(&mut self) -> &mut Virtqueue {
        &mut self.rx
    }
}

/// The synthetic volume, one byte at a time.
#[cfg(test)]
pub(crate) fn volume_byte(sector: u64, i: u64) -> u8 {
    (sector.wrapping_add(i) % VOLUME_PERIOD as u64) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BmGuestSession, VmGuestSession};
    use bmhive_cloud::blockstore::StorageClass;
    use bmhive_iobond::IoBondProfile;

    #[test]
    fn period_copy_matches_the_per_byte_formula() {
        use bmhive_sim::SimRng;
        // Reads filled in place through writable lists of 1–4 segments
        // that straddle pages, at sectors near 0, mid-volume, and within
        // two periods of `u64::MAX`, where `sector + i` wraps.
        let period = VOLUME_PERIOD as u64;
        let mut rng = SimRng::new(0xf111);
        for case in 0..400 {
            let sector = match case % 3 {
                0 => rng.below(2 * period),
                1 => rng.next_u64(),
                _ => u64::MAX - rng.below(2 * period + 1),
            };
            let mut writable = SgList::new();
            for i in 0..rng.range(1, 5) {
                let at = GuestAddr::new(0x10_000 * (i + 1) + rng.below(4096));
                writable.push(SgSegment::new(at, rng.range(1, 3 * 4096) as u32));
            }
            let data_out_len = writable.total_len() - 1;
            let chain = DescChain {
                head: 0,
                readable: SgList::new(),
                writable,
            };
            let req = BlkRequest {
                header: BlkRequestHeader::new(BlkRequestType::In, sector),
                data_in_len: 0,
                data_out_len,
            };
            let mut ram = GuestRam::new(1 << 20);
            let used = complete_blk(&mut ram, &chain, &req).unwrap();
            assert_eq!(u64::from(used), data_out_len + 1, "case {case}");
            let mut got = Vec::new();
            chain.writable.gather_into(&ram, &mut got).unwrap();
            for (i, &byte) in got[..data_out_len as usize].iter().enumerate() {
                let expect = volume_byte(sector, i as u64);
                assert_eq!(byte, expect, "case {case}: sector {sector}, byte {i}");
            }
            assert_eq!(got[data_out_len as usize], BlkStatus::Ok.to_wire());
        }
    }

    /// A blk chain over `readable` then `writable` bytes, one segment
    /// each (empty lists for zero lengths).
    fn blk_chain(readable: u32, writable: u32) -> DescChain {
        let list = |addr, len| {
            if len == 0 {
                SgList::new()
            } else {
                SgList::single(GuestAddr::new(addr), len)
            }
        };
        DescChain {
            head: 0,
            readable: list(0x1000, readable),
            writable: list(0x2000, writable),
        }
    }

    #[test]
    fn malformed_blk_chains_are_rejected_not_parsed() {
        let ram = GuestRam::new(1 << 20);
        for (chain, why) in [
            (blk_chain(15, 1), "blk header too short"),
            (blk_chain(16, 0), "blk chain lacks status byte"),
        ] {
            match parse_blk(&ram, &chain) {
                Err(SessionError::BadRequest(got)) => assert_eq!(got, why),
                other => panic!("expected {why:?}, got {other:?}"),
            }
        }
        let req = parse_blk(&ram, &blk_chain(16 + 512, 1)).unwrap();
        assert_eq!((req.data_in_len, req.data_out_len), (512, 0));
    }

    /// A fresh bm-guest session.
    fn bm() -> BmGuestSession {
        BmGuestSession::new(
            IoBondProfile::fpga(),
            MAC,
            64,
            InstanceLimits::unrestricted(),
        )
    }

    /// A fresh vm-guest session.
    fn vm() -> VmGuestSession {
        VmGuestSession::new(MAC, 64, InstanceLimits::unrestricted(), 5)
    }

    /// One guest operation, run identically on both platforms. A
    /// receive or blk request whose last field is `false` reaps with no
    /// destination.
    enum Op {
        Send(Vec<u8>),
        Receive(Vec<u8>, bool),
        Blk(BlkRequestType, u64, Vec<u8>, u64, bool),
    }

    /// What the guest got back from one op, without its timing; `None`
    /// bytes for an op reaped with no destination.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Sent(Packet, Vec<u8>),
        Received(Option<Vec<u8>>),
        Blk(BlkStatus, Option<Vec<u8>>),
    }

    const MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 7]);
    const PEER: MacAddr = MacAddr([2, 0, 0, 0, 0, 8]);

    fn ops() -> Vec<Op> {
        let largest_rx = (RX_BUF as u64 - VIRTIO_NET_HDR_LEN) as usize;
        let mut ops = vec![
            Op::Send(Vec::new()),
            Op::Send(vec![0x3c; largest_rx]),
            Op::Receive(Vec::new(), true),
            Op::Receive(vec![0xa1; 100], false),
            Op::Receive(vec![0xc3; largest_rx], true),
        ];
        for sector in [0, 250, u64::MAX - 3] {
            ops.push(Op::Blk(
                BlkRequestType::Out,
                sector,
                vec![0x5a; 4096],
                0,
                true,
            ));
            let near = sector.wrapping_add(1);
            ops.push(Op::Blk(BlkRequestType::In, near, Vec::new(), 1000, false));
            ops.push(Op::Blk(BlkRequestType::In, sector, Vec::new(), 4096, true));
        }
        ops.push(Op::Blk(BlkRequestType::Flush, 0, Vec::new(), 0, true));
        ops.push(Op::Blk(
            BlkRequestType::Unsupported(9),
            0,
            Vec::new(),
            0,
            true,
        ));
        ops
    }

    /// Runs `ops` back to back on `s`, every op with a destination
    /// reusing one caller buffer. Returns each op's outcome and the
    /// session's counters after it.
    fn run<T: Transport>(mut s: GuestSession<T>, ops: &[Op]) -> Vec<(Outcome, (u64, u64, u64))> {
        let mut store = BlockStore::new(StorageClass::CloudSsd, 5);
        let mut now = SimTime::ZERO;
        let mut buf = Vec::new();
        let mut outcomes = Vec::new();
        for op in ops {
            let (outcome, timing) = match op {
                Op::Send(p) => {
                    let (e, t) = s.net_send(PEER, PacketKind::Udp, p, now, &mut buf).unwrap();
                    (Outcome::Sent(e.packet, buf.clone()), t)
                }
                Op::Receive(p, dest) => {
                    let out = dest.then_some(&mut buf);
                    let t = s.net_receive_into(p, now, out).unwrap();
                    (Outcome::Received(dest.then(|| buf.clone())), t)
                }
                Op::Blk(req, sector, data, read_len, dest) => {
                    let header = BlkRequestHeader::new(*req, *sector);
                    let out = dest.then_some(&mut buf);
                    let (status, t) = s
                        .blk_request_into(&mut store, header, data, *read_len, now, out)
                        .unwrap();
                    (Outcome::Blk(status, dest.then(|| buf.clone())), t)
                }
            };
            outcomes.push((outcome, s.counters()));
            now = timing.completed;
        }
        outcomes
    }

    #[test]
    fn bm_and_vm_guests_see_the_same_bytes_and_statuses() {
        // Cold migration (§3.2) moves one image between platforms: the
        // guest must get the same answers, and count the same ops, on
        // either backend.
        let ops = ops();
        let bm = run(bm(), &ops);
        assert_eq!(bm, run(vm(), &ops));
        // And the answers are the right ones: an op with no destination
        // still counts, and the next op with one gets its own bytes.
        let mut counted = (0, 0, 0);
        for (op, (outcome, counters)) in ops.iter().zip(&bm) {
            match (op, outcome) {
                (Op::Send(p), Outcome::Sent(packet, payload)) => {
                    assert_eq!(payload, p);
                    assert_eq!((packet.src, packet.dst), (MAC, PEER));
                    assert_eq!(packet.payload as usize, p.len());
                    counted.0 += 1;
                }
                (Op::Receive(p, dest), Outcome::Received(got)) => {
                    assert_eq!(got, &dest.then(|| p.clone()));
                    counted.1 += 1;
                }
                (Op::Blk(req, sector, _, read_len, dest), Outcome::Blk(status, got)) => {
                    let expect_status = match req {
                        BlkRequestType::Unsupported(_) => BlkStatus::Unsupported,
                        _ => BlkStatus::Ok,
                    };
                    assert_eq!(*status, expect_status);
                    let expect: Vec<u8> = match req {
                        BlkRequestType::In => {
                            (0..*read_len).map(|i| volume_byte(*sector, i)).collect()
                        }
                        _ => Vec::new(),
                    };
                    assert_eq!(got, &dest.then_some(expect), "{req:?} at sector {sector}");
                    counted.2 += 1;
                }
                _ => unreachable!("outcomes follow their ops"),
            }
            assert_eq!(*counters, counted);
        }
    }

    /// Posts, ahead of the session's own next chain, a chain the driver
    /// never builds: `readable` bytes and then, unless `writable` is 0,
    /// a `writable`-byte device-writable buffer, on the blk ring if
    /// `blk`, else the tx ring. The buffers sit above every pool.
    fn post_forged<T>(s: &mut GuestSession<T>, blk: bool, readable: &[u8], writable: u32) {
        let at = GuestAddr::new(0xc00_0000);
        s.ram.write(at, readable).unwrap();
        let readable = [SgSegment::new(at, readable.len() as u32)];
        let writable_seg = [SgSegment::new(at + 0x1000, writable)];
        let writable = if writable == 0 {
            &[][..]
        } else {
            &writable_seg[..]
        };
        let ring = if blk {
            &mut s.guest.blk
        } else {
            &mut s.guest.net_tx
        };
        ring.add_buf(&mut s.ram, &readable, writable).unwrap();
    }

    /// The error the backend returns for each guest-forged chain, each
    /// on a `fresh` session.
    fn forged_rejections<T: Transport>(fresh: fn() -> GuestSession<T>) -> Vec<SessionError> {
        let read_hdr = BlkRequestHeader::new(BlkRequestType::In, 0);
        let forged: [(bool, &[u8], u32); 3] = [
            // A tx frame one byte short of the virtio-net header.
            (false, &[0; VIRTIO_NET_HDR_LEN as usize - 1], 0),
            // A blk header one byte short.
            (true, &[0; BLK_HDR_LEN as usize - 1], 1),
            // A whole blk header, but nowhere to write the status.
            (true, &read_hdr.to_bytes(), 0),
        ];
        let mut store = BlockStore::new(StorageClass::CloudSsd, 5);
        let mut out = Vec::new();
        forged
            .into_iter()
            .map(|(blk, readable, writable)| {
                let mut s = fresh();
                post_forged(&mut s, blk, readable, writable);
                let now = SimTime::ZERO;
                if blk {
                    s.blk_request(&mut store, read_hdr, &[], 512, now, &mut out)
                        .unwrap_err()
                } else {
                    s.net_send(PEER, PacketKind::Udp, b"honest", now, &mut out)
                        .unwrap_err()
                }
            })
            .collect()
    }

    #[test]
    fn forged_guest_chains_are_typed_rejections_on_both_platforms() {
        for errors in [forged_rejections(bm), forged_rejections(vm)] {
            let whys: Vec<&str> = errors
                .iter()
                .map(|e| match e {
                    SessionError::BadRequest(why) => *why,
                    other => panic!("expected a typed BadRequest, got {other:?}"),
                })
                .collect();
            assert_eq!(
                whys,
                [
                    "frame shorter than virtio-net header",
                    "blk header too short",
                    "blk chain lacks status byte",
                ]
            );
        }
    }
}
