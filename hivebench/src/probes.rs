//! Layer probes: the benchmark calls each inner layer's public functions
//! directly, at the operating point its workloads run them, and reports
//! host nanoseconds per call (the median of several timed blocks).
//!
//! Every traced run measures every probe, whatever its workload, so the
//! per-layer ledger always carries the same timings; the workload's own
//! traced pass supplies the call counts they are weighed by.

use crate::ledger::{Ledger, PER_LAYER};
use crate::stats::{cpu_ns, median, median_of, ns_since};
use bmhive_cloud::catalog::{InstanceType, ServerConstraints, INSTANCE_CATALOG};
use bmhive_cloud::fleet::ExitRateStream;
use bmhive_cloud::image::MachineImage;
use bmhive_cloud::vswitch::{PortId, VSwitch};
use bmhive_core::BmHiveServer;
use bmhive_iobond::{IoBondDevice, IoBondProfile, ServiceReport};
use bmhive_mem::{GuestAddr, GuestRam, SgSegment};
use bmhive_net::{MacAddr, Packet, PacketKind};
use bmhive_sim::{EventQueue, Histogram, SimDuration, SimRng, SimTime};
use bmhive_telemetry as telemetry;
use bmhive_traffic::{Dispatch, PowerOfTwo};
use bmhive_virtio::{DeviceType, Feature, QueueLayout, Virtqueue, VirtqueueDriver};
use std::hint::black_box;
use std::time::Instant;

/// Timed blocks per probe; the probe reports their median.
const REPS: usize = 5;

/// Virtqueue size, as `BmHiveServer::power_on` builds every queue.
const QUEUE: u16 = 256;

/// Pending events held in the wheel during the event-queue probe: the
/// peak pending population of a `traffic_mmpp` cell (a hedge timer and a
/// departure per resident request, plus the arrival stream), estimated
/// as `2 x guests x peak port depth` at the default seed.
pub const EVENT_POPULATION: usize = 352;

/// Mean scheduling horizon of probe events: the web tier's mean service
/// demand, the scale of the traffic engine's departures.
const EVENT_MEAN_DELAY_NS: f64 = 100_000.0;

/// The instance type `server_io` fills its chassis with.
pub fn atom() -> &'static InstanceType {
    INSTANCE_CATALOG
        .iter()
        .find(|i| i.name == "ebm.atom.16xlarge")
        .expect("the catalog lists ebm.atom.16xlarge")
}

/// Measures every probe and records it in `ledger`.
pub fn run(ledger: &mut Ledger, seed: u64) {
    telemetry::set_enabled(false);
    let mut put = |name: &str, value: f64| ledger.put(PER_LAYER, name, value);
    let (off, on) = span();
    put("telemetry.span_off_ns", off);
    put("telemetry.span_on_ns", on);
    put("sim.stats.record_ns", histogram_record(seed));
    put("sim.rng.fill_ns_per_draw", rng_fill_lognormal(seed));
    put("sim.rng.exit_fill_ns_per_draw", exit_rate_fill(seed));
    let (schedule, pop) = event_queue(seed);
    put("sim.events.schedule_ns", schedule);
    put("sim.events.pop_batch_ns_per_event", pop);
    for (len, write, read) in [
        (
            64,
            "mem.ram.write_ns_per_kib_64b",
            "mem.ram.read_ns_per_kib_64b",
        ),
        (
            16 << 10,
            "mem.ram.write_ns_per_kib_16k",
            "mem.ram.read_ns_per_kib_16k",
        ),
    ] {
        let (w, r) = guest_ram(len);
        put(write, w);
        put(read, r);
    }
    let [add, pop, push, poll] = split_ring();
    put("virtio.add_buf_ns", add);
    put("virtio.pop_avail_ns", pop);
    put("virtio.push_used_ns", push);
    put("virtio.poll_used_ns", poll);
    put("iobond.service_into_ns_64b", iobond_service(64));
    put("iobond.service_into_ns_16k", iobond_service(16 << 10));
    put("cloud.vswitch.forward_ns", vswitch_forward());
    put("traffic.dispatch_pick_ns", dispatch_pick(seed));
}

/// `telemetry::span` per call with recording off, then on.
fn span() -> (f64, f64) {
    let calls = |n: u64| {
        let t = Instant::now();
        for i in 0..n {
            telemetry::span(
                "hivebench",
                "probe",
                black_box(SimTime::from_nanos(i)),
                SimDuration::from_nanos(5),
            );
        }
        ns_since(t) / n as f64
    };
    let off = median_of(REPS, || calls(4_000_000));
    telemetry::set_enabled(true);
    telemetry::reset();
    let on = median_of(REPS, || calls(100_000));
    telemetry::reset();
    telemetry::set_enabled(false);
    (off, on)
}

/// `Histogram::record` per sample, over latency-like lognormal values.
fn histogram_record(seed: u64) -> f64 {
    let mut values = vec![0.0; 4096];
    SimRng::with_stream(seed, 0x4157).fill_lognormal(4.6, 0.8, &mut values);
    let mut hist = Histogram::new();
    median_of(REPS, || {
        let t = Instant::now();
        for _ in 0..200 {
            for &v in &values {
                hist.record(black_box(v));
            }
        }
        ns_since(t) / (200 * values.len()) as f64
    })
}

/// `SimRng::fill_lognormal` per draw, in 1024-draw chunks.
fn rng_fill_lognormal(seed: u64) -> f64 {
    let mut rng = SimRng::with_stream(seed, 0xf111);
    let mut chunk = [0.0f64; 1024];
    median_of(REPS, || {
        let t = Instant::now();
        for _ in 0..1000 {
            rng.fill_lognormal(8.0, 1.5, &mut chunk);
            black_box(&chunk);
        }
        ns_since(t) / (1000 * chunk.len()) as f64
    })
}

/// `ExitRateStream::fill` per draw, in the census's 1024-draw chunks.
fn exit_rate_fill(seed: u64) -> f64 {
    let mut stream = ExitRateStream::production_on(seed, 0xf112);
    let mut chunk = [0.0f64; 1024];
    median_of(REPS, || {
        let t = Instant::now();
        for _ in 0..1000 {
            stream.fill(&mut chunk);
            black_box(&chunk);
        }
        ns_since(t) / (1000 * chunk.len()) as f64
    })
}

/// `EventQueue::schedule` per event and `pop_batch` per event delivered,
/// holding the population near [`EVENT_POPULATION`]: each round
/// schedules a block of events, then pops as many.
fn event_queue(seed: u64) -> (f64, f64) {
    const BLOCK: usize = 64;
    const ROUNDS: usize = 2000;
    let mut rng = SimRng::with_stream(seed, 0xe7e7);
    let delay = |rng: &mut SimRng| SimDuration::from_nanos(rng.exp(EVENT_MEAN_DELAY_NS) as u64 + 1);
    let mut queue: EventQueue<[u64; 4]> = EventQueue::new();
    for i in 0..EVENT_POPULATION as u64 {
        queue.schedule(SimTime::ZERO + delay(&mut rng), [i; 4]);
    }
    let delays: Vec<SimDuration> = (0..BLOCK).map(|_| delay(&mut rng)).collect();
    let mut batch = Vec::new();
    let (mut schedule, mut pop) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut schedule_ns, mut pop_ns, mut popped) = (0.0, 0.0, 0usize);
        for round in 0..ROUNDS {
            let now = queue.now();
            let t = Instant::now();
            for (i, &d) in delays.iter().enumerate() {
                queue.schedule(now + d, [(round + i) as u64; 4]);
            }
            schedule_ns += ns_since(t);
            let t = Instant::now();
            let mut got = 0;
            while got < BLOCK {
                got += queue.pop_batch(&mut batch);
                black_box(&batch);
            }
            pop_ns += ns_since(t);
            popped += got;
        }
        schedule.push(schedule_ns / (ROUNDS * BLOCK) as f64);
        pop.push(pop_ns / popped as f64);
    }
    (median(&mut schedule), median(&mut pop))
}

/// `GuestRam::write` and `read` at `len` bytes over resident pages, as
/// ns per KiB moved.
fn guest_ram(len: usize) -> (f64, f64) {
    const SPAN: u64 = 8 << 20;
    let mut ram = GuestRam::new(64 << 20);
    ram.fill(GuestAddr::new(0), SPAN, 0xa5)
        .expect("the probe span fits guest RAM");
    // 64-byte-aligned strides never split a small access across pages;
    // 16 KiB accesses start page-aligned and cover four pages.
    let stride = if len < 4096 { 64 * 67 } else { len as u64 };
    let calls = if len < 4096 { 200_000 } else { 4_000 };
    let data = vec![0x5au8; len];
    let mut buf = vec![0u8; len];
    let kib = len as f64 / 1024.0;
    let mut at = 0u64;
    let mut next = || {
        at = (at + stride) % (SPAN - len as u64);
        GuestAddr::new(at - at % 64)
    };
    let write = median_of(REPS, || {
        let t = Instant::now();
        for _ in 0..calls {
            ram.write(next(), &data).expect("in bounds");
        }
        ns_since(t) / calls as f64 / kib
    });
    let read = median_of(REPS, || {
        let t = Instant::now();
        for _ in 0..calls {
            ram.read(next(), &mut buf).expect("in bounds");
            black_box(&buf);
        }
        ns_since(t) / calls as f64 / kib
    });
    (write, read)
}

/// The split ring at queue size 256: driver `add_buf`, device
/// `pop_avail` and `push_used`, driver `poll_used`, each timed over a
/// block of one-segment chains.
fn split_ring() -> [f64; 4] {
    const BLOCK: usize = 128;
    const ROUNDS: usize = 300;
    let mut ram = GuestRam::new(16 << 20);
    let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), QUEUE);
    let mut driver = VirtqueueDriver::new(&mut ram, layout).expect("ring fits guest RAM");
    let mut device = Virtqueue::new(layout);
    let segs: Vec<SgSegment> = (0..BLOCK as u64)
        .map(|i| SgSegment::new(GuestAddr::new(0x10_0000 + i * 64), 64))
        .collect();
    let mut chains = Vec::with_capacity(BLOCK);
    let mut samples = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..REPS {
        let mut ns = [0.0f64; 4];
        for _ in 0..ROUNDS {
            let t = Instant::now();
            for seg in &segs {
                black_box(
                    driver
                        .add_buf(&mut ram, &[*seg], &[])
                        .expect("ring has room"),
                );
            }
            ns[0] += ns_since(t);
            chains.clear();
            let t = Instant::now();
            for _ in 0..BLOCK {
                chains.push(device.pop_avail(&ram).expect("well-formed ring"));
            }
            ns[1] += ns_since(t);
            let t = Instant::now();
            for chain in chains.iter().flatten() {
                device
                    .push_used(&mut ram, chain.head, 0)
                    .expect("in bounds");
            }
            ns[2] += ns_since(t);
            let t = Instant::now();
            for _ in 0..BLOCK {
                black_box(driver.poll_used(&ram).expect("well-formed ring"));
            }
            ns[3] += ns_since(t);
        }
        for (s, n) in samples.iter_mut().zip(ns) {
            s.push(n / (ROUNDS * BLOCK) as f64);
        }
    }
    samples.map(|mut s| median(&mut s))
}

/// `IoBondDevice::service_into` per chain serviced — the board → base
/// pass that stages it plus the base → board pass that completes it —
/// with one `len`-byte chain in flight on an EVENT_IDX poll-mode net
/// function, as `BmGuestSession::net_send` drives it.
fn iobond_service(len: u32) -> f64 {
    let cycles = if len < 4096 { 4_000 } else { 2_000 };
    let mut board = GuestRam::new(64 << 20);
    let mut base = GuestRam::new(256 << 20);
    let mut dev = IoBondDevice::new(
        IoBondProfile::fpga(),
        DeviceType::Net,
        Feature::NetMac as u64,
        QUEUE,
        vec![0; 12],
    );
    let rx_layout = QueueLayout::contiguous(GuestAddr::new(0x1_0000), QUEUE);
    let tx_layout = QueueLayout::contiguous(GuestAddr::new(0x2_0000), QUEUE);
    dev.function_mut()
        .state_mut()
        .driver_handshake(&[rx_layout, tx_layout]);
    dev.set_event_idx_window(QUEUE);
    dev.activate(&mut base, GuestAddr::new(0x10_0000))
        .expect("base RAM holds the shadow rings");
    let mut tx = VirtqueueDriver::new(&mut board, tx_layout).expect("ring fits board RAM");
    let mut backend = Virtqueue::new(dev.shadow(1).expect("activated").shadow_layout());
    let payload = GuestAddr::new(0x100_0000);
    board
        .fill(payload, u64::from(len), 0x5a)
        .expect("payload fits board RAM");
    let seg = SgSegment::new(payload, len);
    let mut report = ServiceReport::default();
    let mut now = SimTime::ZERO;
    median_of(REPS, || {
        let mut ns = 0.0;
        for _ in 0..cycles {
            tx.add_buf(&mut board, &[seg], &[]).expect("ring has room");
            let t = Instant::now();
            dev.service_into(&mut board, &mut base, now, &mut report)
                .expect("well-formed ring");
            ns += ns_since(t);
            let chain = backend
                .pop_avail(&base)
                .expect("well-formed shadow ring")
                .expect("the pass staged the chain");
            backend
                .push_used(&mut base, chain.head, 0)
                .expect("in bounds");
            now += SimDuration::from_micros(2);
            let t = Instant::now();
            dev.service_into(&mut board, &mut base, now, &mut report)
                .expect("well-formed ring");
            ns += ns_since(t);
            while tx.poll_used(&board).expect("well-formed ring").is_some() {}
            now += SimDuration::from_micros(2);
        }
        ns / cycles as f64
    })
}

/// `VSwitch::forward` per frame on a 16-port, 5-PMD-core switch (the
/// production server's), each frame acknowledged after its block so
/// port depths stay bounded.
fn vswitch_forward() -> f64 {
    const PORTS: u32 = 16;
    const ROUNDS: usize = 20_000;
    let mut sw = VSwitch::new(5);
    for port in 0..PORTS {
        sw.attach(MacAddr::for_guest(port + 1), PortId(port));
    }
    let frames: Vec<Packet> = (0..PORTS)
        .map(|port| {
            Packet::new(
                MacAddr::for_guest(100),
                MacAddr::for_guest(port + 1),
                PacketKind::Udp,
                64,
                u64::from(port),
            )
        })
        .collect();
    let mut now = SimTime::ZERO;
    median_of(REPS, || {
        let mut ns = 0.0;
        for _ in 0..ROUNDS {
            let t = Instant::now();
            for frame in &frames {
                black_box(sw.forward(frame, now));
                now += SimDuration::from_micros(1);
            }
            ns += ns_since(t);
            for port in 0..PORTS {
                sw.complete(PortId(port));
            }
        }
        ns / (ROUNDS * PORTS as usize) as f64
    })
}

/// `PowerOfTwo::pick` per call over 16 port depths.
fn dispatch_pick(seed: u64) -> f64 {
    let mut rng = SimRng::with_stream(seed, 0xd15b);
    let depths: Vec<u64> = (0..16).map(|_| rng.below(40)).collect();
    let mut policy = PowerOfTwo;
    median_of(REPS, || {
        let t = Instant::now();
        for _ in 0..2_000_000 {
            black_box(policy.pick(black_box(&depths), &mut rng));
        }
        ns_since(t) / 2_000_000.0
    })
}

/// Host CPU milliseconds per `BmHiveServer::power_on` (EFI boot over
/// virtio-blk from the CentOS evaluation image), median of four boots.
pub fn boot_ms(seed: u64) -> f64 {
    let mut server = BmHiveServer::new(ServerConstraints::production(), seed);
    let image = MachineImage::centos_evaluation(1);
    let mut ms: Vec<f64> = (0..4)
        .map(|_| {
            let board = server.install_board(atom()).expect("the chassis has room");
            let t = cpu_ns();
            server
                .power_on(board, &image, SimTime::ZERO)
                .expect("the evaluation image boots");
            (cpu_ns() - t) / 1e6
        })
        .collect();
    median(&mut ms)
}
