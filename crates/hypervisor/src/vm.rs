//! The KVM-style vm-guest baseline.
//!
//! [`VmGuestSession`] runs the *same* virtio rings as the bm-guest, but
//! in the classical arrangement: driver and vhost backend share one
//! physical memory, so no shadow ring and no DMA engine — just pointer
//! handoff plus one CPU memcpy. What the vm-guest pays instead is the
//! virtualization machinery (§2.1):
//!
//! * each kick is an ioeventfd-mediated VM exit;
//! * each completion is an interrupt injection, plus a halt-wakeup if
//!   the vCPU was idle (the `halt_polling` discussion of §5);
//! * data is copied by host CPUs rather than a DMA engine;
//! * host tasks occasionally preempt the vCPU (Fig. 1).

use bmhive_cloud::blockstore::{BlockStore, IoKind};
use bmhive_cloud::limits::InstanceLimits;
use bmhive_iobond::StagingPool;
use bmhive_mem::{GuestAddr, GuestRam, SgSegment};
use bmhive_net::{MacAddr, Packet, PacketKind};
use bmhive_sim::{SimDuration, SimRng, SimTime};
use bmhive_telemetry as telemetry;
use bmhive_virtio::{
    BlkRequestHeader, BlkRequestType, BlkStatus, QueueLayout, VirtioNetHeader, Virtqueue,
    VirtqueueDriver, VIRTIO_NET_HDR_LEN,
};
use std::collections::HashMap;

pub use crate::bm::{EgressPacket, IoTiming, SessionError};

/// KVM path cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvmCosts {
    /// An ioeventfd kick: lightweight exit + wakeup of the vhost thread.
    pub kick: SimDuration,
    /// Injecting a completion interrupt into a *running* vCPU.
    pub inject: SimDuration,
    /// Mean extra delay when the vCPU was halted and must be woken
    /// (IPI, VM entry, scheduler); sampled exponentially.
    pub halt_wakeup_mean: SimDuration,
    /// Probability the halt-polling window absorbs the wakeup (§5's
    /// halt_polling feature).
    pub halt_poll_hit: f64,
    /// Host memcpy bandwidth for the vhost copy, GB/s.
    pub copy_gbs: f64,
    /// Probability any given I/O hits a host-task preemption burst.
    pub preempt_prob: f64,
    /// Length of such a burst.
    pub preempt_burst: SimDuration,
}

impl KvmCosts {
    /// Production KVM on the evaluation hosts.
    pub fn production() -> Self {
        KvmCosts {
            kick: SimDuration::from_micros(3),
            inject: SimDuration::from_micros(4),
            halt_wakeup_mean: SimDuration::from_micros(30),
            halt_poll_hit: 0.3,
            copy_gbs: 10.0,
            preempt_prob: 0.004,
            preempt_burst: SimDuration::from_micros(800),
        }
    }
}

/// One vm-guest with its vhost backend, sharing memory.
#[derive(Debug)]
pub struct VmGuestSession {
    mac: MacAddr,
    ram: GuestRam,
    costs: KvmCosts,
    rng: SimRng,
    net_rx_driver: VirtqueueDriver,
    net_tx_driver: VirtqueueDriver,
    blk_driver: VirtqueueDriver,
    net_rx_backend: Virtqueue,
    net_tx_backend: Virtqueue,
    blk_backend: Virtqueue,
    tx_pool: StagingPool,
    rx_pool: StagingPool,
    blk_pool: StagingPool,
    limits: InstanceLimits,
    rx_posted: HashMap<u16, bmhive_mem::SgList>,
    tx_posted: HashMap<u16, bmhive_mem::SgList>,
    blk_posted: HashMap<u16, Vec<bmhive_mem::SgList>>,
    total_tx: u64,
    total_rx: u64,
    total_io: u64,
}

const RX_BUF: u32 = 2048;

impl VmGuestSession {
    /// Builds a running vm-guest with `queue_size`-entry queues.
    ///
    /// # Panics
    ///
    /// Panics if `queue_size` is not a power of two.
    pub fn new(mac: MacAddr, queue_size: u16, limits: InstanceLimits, seed: u64) -> Self {
        let mut ram = GuestRam::new(256 << 20);
        let rx_layout = QueueLayout::contiguous(GuestAddr::new(0x10_000), queue_size);
        let tx_layout = QueueLayout::contiguous(
            (rx_layout.used + rx_layout.footprint()).align_up(4096),
            queue_size,
        );
        let blk_layout = QueueLayout::contiguous(
            (tx_layout.used + tx_layout.footprint()).align_up(4096),
            queue_size,
        );
        let net_rx_driver = VirtqueueDriver::new(&mut ram, rx_layout).expect("rx ring");
        let net_tx_driver = VirtqueueDriver::new(&mut ram, tx_layout).expect("tx ring");
        let blk_driver = VirtqueueDriver::new(&mut ram, blk_layout).expect("blk ring");
        let mut session = VmGuestSession {
            mac,
            ram,
            costs: KvmCosts::production(),
            rng: SimRng::with_stream(seed, 0x6b76),
            net_rx_driver,
            net_tx_driver,
            blk_driver,
            net_rx_backend: Virtqueue::new(rx_layout),
            net_tx_backend: Virtqueue::new(tx_layout),
            blk_backend: Virtqueue::new(blk_layout),
            tx_pool: StagingPool::new(GuestAddr::new(0x100_0000), 2 * u32::from(queue_size), 4096),
            rx_pool: StagingPool::new(
                GuestAddr::new(0x200_0000),
                2 * u32::from(queue_size),
                RX_BUF,
            ),
            blk_pool: StagingPool::new(
                GuestAddr::new(0x400_0000),
                4 * u32::from(queue_size),
                64 * 1024,
            ),
            limits,
            rx_posted: HashMap::new(),
            tx_posted: HashMap::new(),
            blk_posted: HashMap::new(),
            total_tx: 0,
            total_rx: 0,
            total_io: 0,
        };
        session.replenish_rx().expect("initial rx buffers");
        session
    }

    /// The guest's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Packets sent / received / block ops completed.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.total_tx, self.total_rx, self.total_io)
    }

    fn replenish_rx(&mut self) -> Result<(), SessionError> {
        while self.net_rx_driver.num_free() > 0 {
            let Some(buf) = self.rx_pool.alloc(u64::from(RX_BUF)) else {
                break;
            };
            let segs: Vec<SgSegment> = buf.segments().to_vec();
            let head = self.net_rx_driver.add_buf(&mut self.ram, &[], &segs)?;
            self.rx_posted.insert(head, buf);
        }
        Ok(())
    }

    fn copy_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / (self.costs.copy_gbs * 1e9))
    }

    fn completion_delivery(&mut self, now: SimTime, vcpu_idle: bool) -> SimTime {
        // VM-exit class accounting (the Table 2 taxonomy): every
        // completion is an interrupt injection; a halted vCPU adds a
        // wakeup unless halt-polling absorbs it; some I/Os land in a
        // host-preemption burst.
        telemetry::counter("vm.exit.irq_inject", 1);
        let mut t = now + self.costs.inject;
        if vcpu_idle && !self.rng.chance(self.costs.halt_poll_hit) {
            let wakeup =
                SimDuration::from_secs_f64(self.rng.exp(self.costs.halt_wakeup_mean.as_secs_f64()));
            telemetry::counter("vm.exit.halt_wakeup", 1);
            telemetry::timer("vm.halt_wakeup", wakeup);
            t += wakeup;
        } else if vcpu_idle {
            telemetry::counter("vm.exit.halt_poll_hit", 1);
        }
        if self.rng.chance(self.costs.preempt_prob) {
            telemetry::counter("vm.exit.preempt_burst", 1);
            t += self.costs.preempt_burst;
        }
        telemetry::timer("vm.completion_delivery", t.saturating_duration_since(now));
        t
    }

    /// Sends one packet through the tx ring and the vhost backend.
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
    ) -> Result<(EgressPacket, IoTiming), SessionError> {
        let total = VIRTIO_NET_HDR_LEN + payload.len() as u64;
        let buf = self.tx_pool.alloc(total).ok_or(SessionError::NoBuffers)?;
        let mut bytes = VirtioNetHeader::simple().to_bytes().to_vec();
        bytes.extend_from_slice(payload);
        buf.scatter(&mut self.ram, &bytes)?;
        let segs: Vec<SgSegment> = buf.segments().to_vec();
        let head = self.net_tx_driver.add_buf(&mut self.ram, &segs, &[])?;
        self.tx_posted.insert(head, buf);

        // Kick: ioeventfd VM exit.
        let kicked = now + self.costs.kick;

        // vhost: pop directly from the shared ring, one memcpy into the
        // switch's mbuf.
        let chain = self
            .net_tx_backend
            .pop_avail(&self.ram)?
            .ok_or(SessionError::BadRequest("tx chain missing"))?;
        let frame = chain.readable.gather(&self.ram)?;
        if frame.len() < VIRTIO_NET_HDR_LEN as usize {
            return Err(SessionError::BadRequest(
                "frame shorter than virtio-net header",
            ));
        }
        let payload_out = frame[VIRTIO_NET_HDR_LEN as usize..].to_vec();
        let copied = kicked + self.copy_cost(frame.len() as u64);
        let packet = Packet::new(self.mac, dst, kind, payload_out.len() as u32, self.total_tx);
        let admitted = self.limits.admit_packet(packet.wire_bytes(), copied);

        self.net_tx_backend
            .push_used(&mut self.ram, chain.head, 0)?;
        // Tx completion interrupt (the sender is running, not idle).
        let done = self.completion_delivery(admitted, false);
        while let Some((h, _)) = self.net_tx_driver.poll_used(&self.ram)? {
            if let Some(buf) = self.tx_posted.remove(&h) {
                self.tx_pool.free(&buf);
            }
        }
        self.total_tx += 1;
        if telemetry::is_enabled() {
            let op = telemetry::begin("vm", "net_send", now);
            telemetry::span(
                "vm",
                "vm_exit_kick",
                now,
                kicked.saturating_duration_since(now),
            );
            telemetry::span(
                "vm",
                "vhost_copy",
                kicked,
                copied.saturating_duration_since(kicked),
            );
            telemetry::span(
                "vm",
                "throttle",
                copied,
                admitted.saturating_duration_since(copied),
            );
            telemetry::span(
                "vm",
                "complete",
                admitted,
                done.saturating_duration_since(admitted),
            );
            telemetry::end(op, done);
            telemetry::counter("vm.exit.ioeventfd_kick", 1);
            telemetry::counter("vm.net_tx_packets", 1);
            telemetry::timer("vm.net_send", done.saturating_duration_since(now));
        }
        Ok((
            EgressPacket {
                packet,
                payload: payload_out,
                at: admitted,
            },
            IoTiming {
                submitted: now,
                completed: done,
            },
        ))
    }

    /// Delivers one ingress packet through the rx ring.
    ///
    /// # Errors
    ///
    /// Fails on ring errors; `NoBuffers` if no rx buffer is posted.
    pub fn net_receive(
        &mut self,
        payload: &[u8],
        now: SimTime,
    ) -> Result<(Vec<u8>, IoTiming), SessionError> {
        let chain = self
            .net_rx_backend
            .pop_avail(&self.ram)?
            .ok_or(SessionError::NoBuffers)?;
        let mut bytes = VirtioNetHeader::simple().to_bytes().to_vec();
        bytes.extend_from_slice(payload);
        let copied = now + self.copy_cost(bytes.len() as u64);
        let written = chain.writable.scatter(&mut self.ram, &bytes)?;
        self.net_rx_backend
            .push_used(&mut self.ram, chain.head, written as u32)?;
        // Rx interrupt; receiver may be idle.
        let done = self.completion_delivery(copied, true);

        let mut delivered = None;
        while let Some((head, len)) = self.net_rx_driver.poll_used(&self.ram)? {
            let buf = self
                .rx_posted
                .remove(&head)
                .ok_or(SessionError::BadRequest("unknown rx head"))?;
            let data = buf.gather(&self.ram)?;
            let data = data[..len as usize].to_vec();
            delivered = Some(data[VIRTIO_NET_HDR_LEN as usize..].to_vec());
            self.rx_pool.free(&buf);
        }
        self.replenish_rx()?;
        self.total_rx += 1;
        let payload_out = delivered.ok_or(SessionError::BadRequest("no rx completion"))?;
        if telemetry::is_enabled() {
            let op = telemetry::begin("vm", "net_receive", now);
            telemetry::span(
                "vm",
                "vhost_copy",
                now,
                copied.saturating_duration_since(now),
            );
            telemetry::span(
                "vm",
                "complete",
                copied,
                done.saturating_duration_since(copied),
            );
            telemetry::end(op, done);
            telemetry::counter("vm.net_rx_packets", 1);
            telemetry::timer("vm.net_receive", done.saturating_duration_since(now));
        }
        Ok((
            payload_out,
            IoTiming {
                submitted: now,
                completed: done,
            },
        ))
    }

    /// Issues one block request via the vhost-user storage backend.
    ///
    /// For reads, returns the bytes read.
    ///
    /// # Errors
    ///
    /// Fails on ring errors or buffer exhaustion.
    pub fn blk_request(
        &mut self,
        store: &mut BlockStore,
        req: BlkRequestType,
        sector: u64,
        data: &[u8],
        read_len: u64,
        now: SimTime,
    ) -> Result<(BlkStatus, Vec<u8>, IoTiming), SessionError> {
        let hdr_buf = self.blk_pool.alloc(16).ok_or(SessionError::NoBuffers)?;
        hdr_buf.scatter(
            &mut self.ram,
            &BlkRequestHeader::new(req, sector).to_bytes(),
        )?;
        let mut readable: Vec<SgSegment> = hdr_buf.segments().to_vec();
        let mut writable: Vec<SgSegment> = Vec::new();
        let mut slots = vec![hdr_buf];
        let is_read = matches!(req, BlkRequestType::In);
        if is_read && read_len > 0 {
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
            buf.scatter(&mut self.ram, data)?;
            readable.extend_from_slice(buf.segments());
            slots.push(buf);
        }
        let status_buf = self.blk_pool.alloc(1).ok_or(SessionError::NoBuffers)?;
        writable.extend_from_slice(status_buf.segments());
        slots.push(status_buf);

        let head = self
            .blk_driver
            .add_buf(&mut self.ram, &readable, &writable)?;
        self.blk_posted.insert(head, slots);

        let kicked = now + self.costs.kick;
        let chain = self
            .blk_backend
            .pop_avail(&self.ram)?
            .ok_or(SessionError::BadRequest("blk chain missing"))?;
        let readable_bytes = chain.readable.gather(&self.ram)?;
        let hdr = BlkRequestHeader::from_bytes(&readable_bytes);
        let data_in = &readable_bytes[16..];
        let writable_len = chain.writable.total_len();
        let data_out_len = writable_len - 1;

        let (_status, written, io_done) = match hdr.req_type {
            BlkRequestType::In => {
                let admitted = self.limits.admit_io(data_out_len, kicked);
                let io = store.submit(IoKind::Read, data_out_len, admitted);
                // The vm path pays an extra CPU copy host buffer → guest.
                let done = io.complete_at + self.copy_cost(data_out_len);
                let mut bytes: Vec<u8> = Vec::with_capacity(data_out_len as usize + 1);
                crate::bm::push_volume_bytes(hdr.sector, data_out_len, &mut bytes);
                bytes.push(BlkStatus::Ok.to_wire());
                let written = chain.writable.scatter(&mut self.ram, &bytes)?;
                (BlkStatus::Ok, written as u32, done)
            }
            BlkRequestType::Out => {
                // Extra copy guest → host buffer before submission.
                let copied = kicked + self.copy_cost(data_in.len() as u64);
                let admitted = self.limits.admit_io(data_in.len() as u64, copied);
                let io = store.submit(IoKind::Write, data_in.len() as u64, admitted);
                let (_, status_sg) = chain.writable.split_at(data_out_len);
                status_sg.scatter(&mut self.ram, &[BlkStatus::Ok.to_wire()])?;
                (BlkStatus::Ok, 1, io.complete_at)
            }
            BlkRequestType::Flush => {
                let (_, status_sg) = chain.writable.split_at(data_out_len);
                status_sg.scatter(&mut self.ram, &[BlkStatus::Ok.to_wire()])?;
                (BlkStatus::Ok, 1, kicked + SimDuration::from_micros(50))
            }
            BlkRequestType::Unsupported(_) => {
                let (_, status_sg) = chain.writable.split_at(data_out_len);
                status_sg.scatter(&mut self.ram, &[BlkStatus::Unsupported.to_wire()])?;
                (BlkStatus::Unsupported, 1, kicked)
            }
        };
        self.blk_backend
            .push_used(&mut self.ram, chain.head, written)?;
        // Storage completions usually find the vCPU halted in io_wait.
        let done = self.completion_delivery(io_done, true);

        let mut result = (BlkStatus::IoErr, Vec::new());
        while let Some((h, _)) = self.blk_driver.poll_used(&self.ram)? {
            let slots = self
                .blk_posted
                .remove(&h)
                .ok_or(SessionError::BadRequest("unknown blk head"))?;
            let status_slot = slots.last().expect("status slot");
            let status_byte = status_slot.gather(&self.ram)?[0];
            let data_out = if is_read && slots.len() == 3 {
                slots[1].gather(&self.ram)?
            } else {
                Vec::new()
            };
            result = (BlkStatus::from_wire(status_byte), data_out);
            for slot in &slots {
                self.blk_pool.free(slot);
            }
        }
        self.total_io += 1;
        if telemetry::is_enabled() {
            let op = telemetry::begin("vm", "blk_request", now);
            telemetry::span(
                "vm",
                "vm_exit_kick",
                now,
                kicked.saturating_duration_since(now),
            );
            telemetry::span(
                "vm",
                "backend_execute",
                kicked,
                io_done.saturating_duration_since(kicked),
            );
            telemetry::span(
                "vm",
                "complete",
                io_done,
                done.saturating_duration_since(io_done),
            );
            telemetry::end(op, done);
            telemetry::counter("vm.exit.ioeventfd_kick", 1);
            telemetry::counter("vm.blk_ops", 1);
            telemetry::timer("vm.blk_request", done.saturating_duration_since(now));
        }
        Ok((
            result.0,
            result.1,
            IoTiming {
                submitted: now,
                completed: done,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_cloud::blockstore::StorageClass;
    use bmhive_iobond::IoBondProfile;

    fn session() -> VmGuestSession {
        VmGuestSession::new(MacAddr::for_guest(9), 64, InstanceLimits::unrestricted(), 7)
    }

    #[test]
    fn net_send_round_trip() {
        let mut s = session();
        let (egress, timing) = s
            .net_send(
                MacAddr::for_guest(2),
                PacketKind::Udp,
                b"vm-frame",
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(egress.payload, b"vm-frame");
        assert!(timing.latency() >= SimDuration::from_micros(7)); // kick + inject
        assert_eq!(s.counters().0, 1);
    }

    #[test]
    fn net_receive_round_trip() {
        let mut s = session();
        let (payload, timing) = s.net_receive(b"to-vm", SimTime::ZERO).unwrap();
        assert_eq!(payload, b"to-vm");
        assert!(timing.completed > timing.submitted);
    }

    #[test]
    fn blk_write_read_round_trip() {
        let mut s = session();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 11);
        let data = vec![3u8; 4096];
        let (status, _, _) = s
            .blk_request(&mut store, BlkRequestType::Out, 50, &data, 0, SimTime::ZERO)
            .unwrap();
        assert_eq!(status, BlkStatus::Ok);
        let (status, out, t) = s
            .blk_request(
                &mut store,
                BlkRequestType::In,
                50,
                &[],
                4096,
                SimTime::from_millis(1),
            )
            .unwrap();
        assert_eq!(status, BlkStatus::Ok);
        assert_eq!(out.len(), 4096);
        assert!(t.latency() > SimDuration::from_micros(100));
    }

    #[test]
    fn vm_storage_latency_exceeds_bm_on_average() {
        // The Fig. 11 mechanism: same store, same caps — the vm pays
        // injection + halt-wakeup + copies; the bm pays IO-Bond's fixed
        // microseconds.
        let mut vm = session();
        let mut bm = crate::bm::BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(1),
            64,
            InstanceLimits::unrestricted(),
        );
        let mut store_vm = BlockStore::new(StorageClass::CloudSsd, 21);
        let mut store_bm = BlockStore::new(StorageClass::CloudSsd, 21);
        let mut vm_total = SimDuration::ZERO;
        let mut bm_total = SimDuration::ZERO;
        let n = 300u64;
        for i in 0..n {
            let t = SimTime::from_millis(i);
            let (_, _, tv) = vm
                .blk_request(&mut store_vm, BlkRequestType::In, i * 8, &[], 4096, t)
                .unwrap();
            let (_, _, tb) = bm
                .blk_request(&mut store_bm, BlkRequestType::In, i * 8, &[], 4096, t)
                .unwrap();
            vm_total += tv.latency();
            bm_total += tb.latency();
        }
        let ratio = vm_total.as_secs_f64() / bm_total.as_secs_f64();
        assert!(ratio > 1.1, "vm/bm latency ratio {ratio}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut s = VmGuestSession::new(
                MacAddr::for_guest(9),
                64,
                InstanceLimits::unrestricted(),
                seed,
            );
            let mut out = Vec::new();
            for i in 0..50 {
                let (_, t) = s
                    .net_receive(b"ping", SimTime::from_micros(i * 100))
                    .unwrap();
                out.push(t.completed);
            }
            out
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn buffer_conservation_over_many_ops() {
        let mut s = session();
        let mut store = BlockStore::new(StorageClass::LocalSsd, 5);
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            let (_, timing) = s
                .net_send(MacAddr::for_guest(2), PacketKind::Udp, &[9; 100], t)
                .unwrap();
            t = timing.completed;
            let (_, timing) = s.net_receive(&[7; 100], t).unwrap();
            t = timing.completed;
            let (_, _, timing) = s
                .blk_request(&mut store, BlkRequestType::Out, i, &[1; 512], 0, t)
                .unwrap();
            t = timing.completed;
        }
        assert_eq!(s.counters(), (200, 200, 200));
    }
}
