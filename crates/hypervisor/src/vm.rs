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
//!
//! [`VmGuestSession`] is a [`GuestSession`] over [`Vhost`], which holds
//! exactly those costs; the op sequence is the session's.

use crate::session::{phase, Backend, GuestDriver, GuestSession, Marks, Queue, Transport};
use crate::SessionError;
use bmhive_cloud::limits::InstanceLimits;
use bmhive_mem::GuestRam;
use bmhive_net::MacAddr;
use bmhive_sim::{SimDuration, SimRng, SimTime};
use bmhive_telemetry as telemetry;

/// An ioeventfd kick: a lightweight VM exit plus the wakeup of the
/// vhost thread (§2.1). Every vm submission pays it; Fig. 11's
/// storage path is calibrated with it.
pub(crate) const EXIT_KICK: SimDuration = SimDuration::from_micros(3);

/// Injecting a completion interrupt into a running vCPU: the Fig. 10
/// pipelined round trips, where the guest is busy when the reply lands.
pub(crate) const INJECT_RUNNING: SimDuration = SimDuration::from_micros(1);

/// Injecting a completion interrupt into a halted vCPU (IPI plus VM
/// entry), before any halt wakeup: the Fig. 11 storage completions.
const INJECT_HALTED: SimDuration = SimDuration::from_micros(4);

/// Mean extra delay, sampled exponentially, when a halted vCPU must be
/// woken (scheduler plus VM entry): calibrated to Fig. 11's ≈25 % bm
/// mean-latency advantage.
const HALT_WAKEUP_MEAN: SimDuration = SimDuration::from_micros(38);

/// Probability that the halt-polling window absorbs the wakeup (§5's
/// `halt_polling` feature).
const HALT_POLL_HIT: f64 = 0.3;

/// The [`SimRng`] stream a session draws its completion deliveries
/// from. Twins that replay those draws, such as [`crate::path::IoPath`]
/// in its pinning test, fork the same stream.
pub(crate) const RNG_STREAM: u64 = 0x6b76;

/// Host memcpy rate for the vhost copies, bytes per second (10 GB/s):
/// the CPU copy §4.3 names as the vm-guest's storage handicap.
const COPY_BYTES_PER_SEC: f64 = 10e9;

/// Probability that one I/O completion lands in a host-task
/// preemption burst (Fig. 1's shared-host preemption).
const PREEMPT_PROB: f64 = 0.004;

/// Length of a preemption burst: calibrated to Fig. 11's ≈3× bm
/// advantage at the 99.9th percentile.
const PREEMPT_BURST: SimDuration = SimDuration::from_micros(800);

/// Host CPU time to copy `bytes` through vhost.
pub(crate) fn copy_cost(bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / COPY_BYTES_PER_SEC)
}

/// One completion's delivery into a vCPU. [`VmGuestSession`] and
/// [`crate::path::IoPath`] both draw it here, in one order: the
/// halt-poll chance, the wakeup, then the preemption chance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Delivery {
    /// The interrupt injection.
    pub(crate) inject: SimDuration,
    /// The wakeup of a halted vCPU that halt-polling did not absorb.
    pub(crate) halt_wakeup: Option<SimDuration>,
    /// Whether a host-task preemption burst hit this completion.
    pub(crate) preempted: bool,
}

impl Delivery {
    /// Samples one delivery into a halted (`vcpu_idle`) or running vCPU.
    pub(crate) fn sample(rng: &mut SimRng, vcpu_idle: bool) -> Self {
        let halt_wakeup = (vcpu_idle && !rng.chance(HALT_POLL_HIT))
            .then(|| SimDuration::from_secs_f64(rng.exp(HALT_WAKEUP_MEAN.as_secs_f64())));
        Delivery {
            inject: if vcpu_idle {
                INJECT_HALTED
            } else {
                INJECT_RUNNING
            },
            halt_wakeup,
            preempted: rng.chance(PREEMPT_PROB),
        }
    }

    /// The whole delivery delay.
    pub(crate) fn total(self) -> SimDuration {
        let burst = if self.preempted {
            PREEMPT_BURST
        } else {
            SimDuration::ZERO
        };
        self.inject + self.halt_wakeup.unwrap_or_default() + burst
    }
}

/// One vm-guest with its vhost backend, sharing memory.
pub type VmGuestSession = GuestSession<Vhost>;

/// The vhost transport: the backend reads the guest's rings in place,
/// in the memory both share, so there is no shadow ring and no sync.
/// Each kick is an ioeventfd VM exit, the host CPU copies the data, and
/// each completion is delivered into the vCPU.
#[derive(Debug)]
pub struct Vhost {
    /// The stream each completion's [`Delivery`] is drawn from.
    rng: SimRng,
}

impl Transport for Vhost {
    /// An ioeventfd VM exit: vhost publishes no EVENT_IDX window, so
    /// every post exits.
    fn kick(&mut self, _needed: bool, now: SimTime) -> SimTime {
        now + EXIT_KICK
    }

    fn host_copy(bytes: u64) -> SimDuration {
        copy_cost(bytes)
    }

    /// VM-exit class accounting (the Table 2 taxonomy): every
    /// completion is an interrupt injection; a halted vCPU adds a
    /// wakeup unless halt-polling absorbs it; some I/Os land in a
    /// host-preemption burst.
    fn complete(
        &mut self,
        _ram: &mut GuestRam,
        _queue: Queue,
        at: SimTime,
        vcpu_idle: bool,
    ) -> Result<SimTime, SessionError> {
        let delivery = Delivery::sample(&mut self.rng, vcpu_idle);
        telemetry::counter("vm.exit.irq_inject", 1);
        if let Some(wakeup) = delivery.halt_wakeup {
            telemetry::counter("vm.exit.halt_wakeup", 1);
            telemetry::timer("vm.halt_wakeup", wakeup);
        } else if vcpu_idle {
            telemetry::counter("vm.exit.halt_poll_hit", 1);
        }
        if delivery.preempted {
            telemetry::counter("vm.exit.preempt_burst", 1);
        }
        telemetry::timer("vm.completion_delivery", delivery.total());
        Ok(at + delivery.total())
    }

    /// Every op is a `vm` span with a phase per step it takes; a
    /// receive has no kick.
    fn trace(queue: Queue, m: &Marks) {
        let op = telemetry::begin("vm", queue.op(), m.now);
        match queue {
            Queue::Rx => phase("vm", "vhost_copy", m.now, m.copied),
            Queue::Tx => {
                phase("vm", "vm_exit_kick", m.now, m.kicked);
                phase("vm", "vhost_copy", m.kicked, m.copied);
                phase("vm", "throttle", m.copied, m.ready);
            }
            Queue::Blk => {
                phase("vm", "vm_exit_kick", m.now, m.kicked);
                phase("vm", "backend_execute", m.kicked, m.ready);
            }
        }
        phase("vm", "complete", m.ready, m.done);
        telemetry::end(op, m.done);
        let (counter, timer) = match queue {
            Queue::Rx => ("vm.net_rx_packets", "vm.net_receive"),
            Queue::Tx => ("vm.net_tx_packets", "vm.net_send"),
            Queue::Blk => ("vm.blk_ops", "vm.blk_request"),
        };
        if queue != Queue::Rx {
            telemetry::counter("vm.exit.ioeventfd_kick", 1);
        }
        telemetry::counter(counter, 1);
        telemetry::timer(timer, m.done.saturating_duration_since(m.now));
    }
}

impl GuestSession<Vhost> {
    /// Builds a running vm-guest with `queue_size`-entry queues, drawing
    /// its completion deliveries from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `queue_size` is not a power of two.
    pub fn new(mac: MacAddr, queue_size: u16, limits: InstanceLimits, seed: u64) -> Self {
        let mut ram = GuestRam::new(256 << 20);
        let guest = GuestDriver::new(&mut ram, queue_size);
        GuestSession {
            mac,
            ram,
            // vhost reads the guest's rings in place: no shadow copies.
            backend: Backend::new(guest.layouts(), limits),
            guest,
            transport: Vhost {
                rng: SimRng::with_stream(seed, RNG_STREAM),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{FLUSH_SERVICE, RX_BUF};
    use bmhive_cloud::blockstore::{BlockStore, IoKind, StorageClass};
    use bmhive_iobond::IoBondProfile;
    use bmhive_net::PacketKind;
    use bmhive_virtio::{BlkRequestHeader, BlkRequestType, BlkStatus, VIRTIO_NET_HDR_LEN};

    fn session() -> VmGuestSession {
        VmGuestSession::new(MacAddr::for_guest(9), 64, InstanceLimits::unrestricted(), 7)
    }

    #[test]
    fn net_send_round_trip() {
        let mut s = session();
        let mut out = Vec::new();
        let (_, timing) = s
            .net_send(
                MacAddr::for_guest(2),
                PacketKind::Udp,
                b"vm-frame",
                SimTime::ZERO,
                &mut out,
            )
            .unwrap();
        assert_eq!(out, b"vm-frame");
        assert!(timing.latency() >= EXIT_KICK + INJECT_RUNNING);
        assert_eq!(s.counters().0, 1);
    }

    #[test]
    fn net_receive_round_trip() {
        let mut s = session();
        let mut out = Vec::new();
        let timing = s.net_receive(b"to-vm", SimTime::ZERO, &mut out).unwrap();
        assert_eq!(out, b"to-vm");
        assert!(timing.completed > timing.submitted);
    }

    #[test]
    fn malformed_rx_completions_return_their_buffers() {
        // A device that completes rx buffers with a length shorter than
        // the virtio-net header, or one byte longer than the buffer it
        // was given. The rx pool holds 2 × 64 buffers: were each bad
        // completion to keep its buffer, the ring would run dry well
        // before the loop ends. Every other pair of rounds reaps with no
        // destination: the length checks hold without a copy too.
        let mut s = session();
        let mut out = Vec::new();
        for round in 0..3 * 64 {
            let rx = s.backend.rx_mut();
            let chain = rx
                .pop_avail(&s.ram)
                .unwrap()
                .expect("the rx ring stays stocked");
            let forged_len = [4, RX_BUF + 1][round % 2];
            rx.push_used(&mut s.ram, chain.head, forged_len).unwrap();
            let out = (round % 4 < 2).then_some(&mut out);
            let err = s.guest.reap_rx(&mut s.ram, out).unwrap_err();
            let why = [
                "rx frame shorter than header",
                "rx frame longer than its buffer",
            ][round % 2];
            assert!(
                matches!(err, SessionError::BadRequest(got) if got == why),
                "{err}"
            );
        }
        s.net_receive(b"honest", SimTime::ZERO, &mut out).unwrap();
        assert_eq!(out, b"honest");
    }

    #[test]
    fn blk_write_read_round_trip() {
        let mut s = session();
        let mut out = Vec::new();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 11);
        let data = vec![3u8; 4096];
        let (status, _) = s
            .blk_request(
                &mut store,
                BlkRequestHeader::new(BlkRequestType::Out, 50),
                &data,
                0,
                SimTime::ZERO,
                &mut out,
            )
            .unwrap();
        assert_eq!(status, BlkStatus::Ok);
        let (status, t) = s
            .blk_request(
                &mut store,
                BlkRequestHeader::new(BlkRequestType::In, 50),
                &[],
                4096,
                SimTime::from_millis(1),
                &mut out,
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
        let mut out = Vec::new();
        let mut vm_total = SimDuration::ZERO;
        let mut bm_total = SimDuration::ZERO;
        let n = 300u64;
        for i in 0..n {
            let t = SimTime::from_millis(i);
            let (_, tv) = vm
                .blk_request(
                    &mut store_vm,
                    BlkRequestHeader::new(BlkRequestType::In, i * 8),
                    &[],
                    4096,
                    t,
                    &mut out,
                )
                .unwrap();
            let (_, tb) = bm
                .blk_request(
                    &mut store_bm,
                    BlkRequestHeader::new(BlkRequestType::In, i * 8),
                    &[],
                    4096,
                    t,
                    &mut out,
                )
                .unwrap();
            vm_total += tv.latency();
            bm_total += tb.latency();
        }
        let ratio = vm_total.as_secs_f64() / bm_total.as_secs_f64();
        assert!(ratio > 1.1, "vm/bm latency ratio {ratio}");
    }

    #[test]
    fn every_op_completes_at_the_kvm_formula() {
        // No repro experiment drives this session, so its timing is
        // pinned here, op by op, at unrestricted limits: a twin RNG
        // stream draws each completion's delivery in the session's
        // order, and a twin store prices each I/O. Ops are issued 2 µs
        // apart, so the store's 16 channels fill and requests queue:
        // that is what tells a copy charged before admission from one
        // charged after the store.
        enum Op {
            Send(usize),
            Receive(usize),
            Read(u64),
            Write(u64),
            Flush,
            Unsupported,
        }
        let seed = 7;
        let mut s = session();
        let mut rng = SimRng::with_stream(seed, RNG_STREAM);
        let mut store = BlockStore::new(StorageClass::CloudSsd, 13);
        let mut twin = BlockStore::new(StorageClass::CloudSsd, 13);
        let mut deliver = |idle| Delivery::sample(&mut rng, idle).total();
        let hdr = VIRTIO_NET_HDR_LEN;
        let mut out = Vec::new();
        let mut now = SimTime::from_micros(3);
        for round in 0..24u64 {
            let ops = [
                Op::Send(1 + 97 * round as usize),
                Op::Receive(1500 - 64 * round as usize),
                Op::Read(512 << (round % 6)),
                Op::Write(16384 >> (round % 6)),
                Op::Flush,
                Op::Unsupported,
            ];
            for op in ops {
                let kicked = now + EXIT_KICK;
                let (timing, expect) = match op {
                    Op::Send(n) => {
                        let (egress, t) = s
                            .net_send(
                                MacAddr::for_guest(2),
                                PacketKind::Udp,
                                &vec![0x11; n],
                                now,
                                &mut out,
                            )
                            .unwrap();
                        let admitted = kicked + copy_cost(hdr + n as u64);
                        assert_eq!(egress.at, admitted, "round {round}");
                        (t, admitted + deliver(false))
                    }
                    Op::Receive(n) => {
                        let t = s.net_receive(&vec![0x22; n], now, &mut out).unwrap();
                        (t, now + copy_cost(hdr + n as u64) + deliver(true))
                    }
                    Op::Read(n) => {
                        let header = BlkRequestHeader::new(BlkRequestType::In, round * 64);
                        let (_, t) = s
                            .blk_request(&mut store, header, &[], n, now, &mut out)
                            .unwrap();
                        let io = twin.submit(IoKind::Read, n, kicked).complete_at;
                        (t, io + copy_cost(n) + deliver(true))
                    }
                    Op::Write(n) => {
                        let header = BlkRequestHeader::new(BlkRequestType::Out, round * 64);
                        let data = vec![0x33; n as usize];
                        let (_, t) = s
                            .blk_request(&mut store, header, &data, 0, now, &mut out)
                            .unwrap();
                        let copied = kicked + copy_cost(n);
                        let io = twin.submit(IoKind::Write, n, copied).complete_at;
                        (t, io + deliver(true))
                    }
                    Op::Flush | Op::Unsupported => {
                        let (req, service) = match op {
                            Op::Flush => (BlkRequestType::Flush, FLUSH_SERVICE),
                            _ => (BlkRequestType::Unsupported(9), SimDuration::ZERO),
                        };
                        let header = BlkRequestHeader::new(req, 0);
                        let (_, t) = s
                            .blk_request(&mut store, header, &[], 0, now, &mut out)
                            .unwrap();
                        (t, kicked + service + deliver(true))
                    }
                };
                assert_eq!(timing.submitted, now, "round {round}");
                assert_eq!(timing.completed, expect, "round {round}");
                now += SimDuration::from_micros(2);
            }
        }
        assert_eq!(s.counters(), (24, 24, 96));
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
            let (mut frame, mut out) = (Vec::new(), Vec::new());
            for i in 0..50 {
                let t = s
                    .net_receive(b"ping", SimTime::from_micros(i * 100), &mut frame)
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
        let mut out = Vec::new();
        let mut store = BlockStore::new(StorageClass::LocalSsd, 5);
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            let (_, timing) = s
                .net_send(
                    MacAddr::for_guest(2),
                    PacketKind::Udp,
                    &[9; 100],
                    t,
                    &mut out,
                )
                .unwrap();
            t = timing.completed;
            let timing = s.net_receive(&[7; 100], t, &mut out).unwrap();
            t = timing.completed;
            let (_, timing) = s
                .blk_request(
                    &mut store,
                    BlkRequestHeader::new(BlkRequestType::Out, i),
                    &[1; 512],
                    0,
                    t,
                    &mut out,
                )
                .unwrap();
            t = timing.completed;
        }
        assert_eq!(s.counters(), (200, 200, 200));
    }
}
