//! The zero-allocation steady-state contract, end to end: with the
//! counting allocator installed (as the `repro` binary installs it), a
//! warmed timer wheel churns without touching the allocator at all, and
//! a warmed experiment run stays under a fixed allocation ceiling.
//! `repro bench` records the same count as `heap.allocs` and checks it
//! exactly against `BENCH_results.json`; the ceilings here hold across
//! baseline refreshes.
//!
//! "Warmed" is the operative word: the first run of anything pays for
//! slabs, histograms, and report buffers. The ceiling is about what
//! happens after — the steady state the paper's sustained-load numbers
//! come from — so every measurement here warms first and meters second,
//! exactly as `repro bench` does (one warm-up render, then the metered
//! one).

use bmhive_cloud::blockstore::{BlockStore, StorageClass};
use bmhive_cloud::catalog::{ServerConstraints, INSTANCE_CATALOG};
use bmhive_cloud::image::MachineImage;
use bmhive_cloud::limits::InstanceLimits;
use bmhive_core::server::BmHiveServer;
use bmhive_faults as faults;
use bmhive_hypervisor::{BmGuestSession, IoTiming, SessionError, VmGuestSession};
use bmhive_iobond::IoBondProfile;
use bmhive_net::{MacAddr, PacketKind};
use bmhive_sim::{EventQueue, SimDuration, SimRng, SimTime};
use bmhive_telemetry::alloc::{self, CountingAlloc};
use bmhive_telemetry::{self as telemetry, DEFAULT_CAPACITY};
use bmhive_virtio::{BlkRequestHeader, BlkRequestType, BlkStatus};

// Each integration test binary links its own allocator; this is the
// same installation line the `repro` binary uses.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// Allocations of one re-render of experiment `id` at seed 1 into a
/// report the first render warmed, as `repro bench` meters it.
fn warmed_allocs(id: &str) -> u64 {
    warmed_allocs_at(id, 1)
}

/// [`warmed_allocs`] at `seed`.
fn warmed_allocs_at(id: &str, seed: u64) -> u64 {
    let exp = bmhive_bench::experiment(id).expect("known id");
    let mut report = exp.render(seed);
    let ((), allocs) = alloc::measure_allocs(|| exp.render_into(seed, &mut report));
    assert!(!report.text.is_empty());
    allocs
}

/// One schedule/drain cycle against the wheel: a burst of randomly
/// spread timers plus a tie-heavy burst of `ties` more, half of them on
/// one shared tick, drained in whole-tick batches through a reused
/// scratch buffer. The shared tick makes `pop_batch` take a long
/// level-0 ring in one drain.
fn churn_cycle(
    q: &mut EventQueue<u64>,
    rng: &mut SimRng,
    base: &mut u64,
    scratch: &mut Vec<(SimTime, u64)>,
    ties: u64,
) -> u64 {
    for i in 0..64u64 {
        let at = *base + 1 + rng.below(1 << 20);
        q.schedule(SimTime::from_nanos(at), i);
    }
    let shared = *base + 1 + rng.below(1 << 20);
    for i in 0..ties {
        let at = if i % 2 == 0 {
            shared
        } else {
            *base + 1 + rng.below(1 << 20)
        };
        q.schedule(SimTime::from_nanos(at), i);
    }
    let mut drained = 0u64;
    while q.pop_batch(scratch) > 0 {
        drained += scratch.len() as u64;
        *base = scratch[0].0.as_nanos();
    }
    drained
}

#[test]
fn warmed_timer_wheel_churns_with_zero_allocations() {
    const TIES: u64 = 128;
    const PER_CYCLE: u64 = 64 + TIES;
    assert!(alloc::installed(), "the test binary installs CountingAlloc");
    let mut q = EventQueue::new();
    let mut rng = SimRng::with_stream(7, 0xA110C);
    let mut base = 0u64;
    let mut scratch = Vec::new();
    // Warm-up: grow the slab and the batch scratch to their
    // steady-state footprint.
    let mut drained = 0u64;
    for _ in 0..200 {
        drained += churn_cycle(&mut q, &mut rng, &mut base, &mut scratch, TIES);
    }
    assert_eq!(drained, 200 * PER_CYCLE, "warm-up must drain everything");
    // Steady state: the slab free-list recycles every node, batches
    // reuse the scratch, cascades relink in place, and a shared tick's
    // ring drains straight into the scratch. Not one allocation.
    let (drained, allocs) = alloc::measure_allocs(|| {
        let mut n = 0u64;
        for _ in 0..5_000 {
            n += churn_cycle(&mut q, &mut rng, &mut base, &mut scratch, TIES);
        }
        n
    });
    assert_eq!(drained, 5_000 * PER_CYCLE);
    assert_eq!(
        allocs, 0,
        "a warmed wheel must not allocate: {allocs} allocations over {drained} events"
    );
}

/// One round of the traced recording calls: every registry writer but
/// `timer` (a histogram keeps its samples), a complete span, and a
/// begin/end pair.
fn record_round(i: u64) {
    let t = SimTime::from_nanos(i);
    telemetry::counter("steady.ops", 1);
    telemetry::gauge("steady.level", i as f64);
    telemetry::gauge_max("steady.peak", i as f64);
    telemetry::span("steady", "leaf", t, SimDuration::from_nanos(1));
    let op = telemetry::begin("steady", "op", t);
    telemetry::end(op, t);
}

#[test]
fn warmed_traced_recording_allocates_nothing() {
    assert!(alloc::installed(), "the test binary installs CountingAlloc");
    telemetry::set_enabled(true);
    telemetry::reset();
    // Warm-up: fill the span ring (two spans a round), so each later
    // span evicts the oldest in place, and touch every registry key.
    let warm = DEFAULT_CAPACITY as u64;
    for i in 0..warm {
        record_round(i);
    }
    let ((), allocs) = alloc::measure_allocs(|| {
        for i in warm..warm + 10_000 {
            record_round(i);
        }
    });
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    assert_eq!(snap.registry.counter("steady.ops"), warm + 10_000);
    assert_eq!(snap.events.len(), DEFAULT_CAPACITY);
    assert_eq!(snap.dropped, 2 * (warm + 10_000) - DEFAULT_CAPACITY as u64);
    assert_eq!(
        allocs, 0,
        "warmed traced recording allocated {allocs} times over 10k rounds"
    );
}

#[test]
fn warmed_fig1_run_stays_under_the_alloc_gate() {
    // Pre-optimization, one fig1 run cost 154 allocations (hour-buffer
    // collects and percentile clones) over 960k events. The PR's
    // acceptance gate is a >= 50% cut; the slab wheel plus buffer
    // reuse land far below it.
    let allocs = warmed_allocs("fig1");
    assert!(
        allocs <= 77,
        "warmed fig1 run allocated {allocs} times (gate: 77, half the pre-PR 154)"
    );
}

#[test]
fn warmed_traffic_run_stays_under_the_alloc_gate() {
    // Pre-optimization, traffic_policies cost 61,275 allocations over
    // 231,314 events (0.26 per arrival: a depth snapshot per dispatch
    // plus an ever-growing request table). Depth scratch + request
    // slot recycling cut it to well under half.
    let allocs = warmed_allocs("traffic_policies");
    // The driver slab + gather scratch work later cut the same run to
    // ~970 allocations; the gate rides down with it (2,000 leaves
    // headroom for allocator noise without readmitting per-op churn).
    assert!(
        allocs <= 2_000,
        "warmed traffic_policies run allocated {allocs} times (gate: 2,000, was 30,000 pre-slab)"
    );
}

#[test]
fn warmed_faults_run_stays_under_the_alloc_gate() {
    // Pre-optimization, one faults run cost 3,422 allocations over
    // 2,250 events (1.52 per event: per-op chain Vecs, HashMap churn in
    // the posted maps, and gather copies). The driver slab, posted-slot
    // slabs, and gather_into scratch reuse cut it by well over half.
    let allocs = warmed_allocs("faults");
    assert!(
        allocs <= 1_400,
        "warmed faults run allocated {allocs} times (gate: 1,400, well under half the pre-PR 3,422)"
    );
}

#[test]
fn armed_runs_allocate_nothing_per_fault() {
    // Fault accounting bumps typed per-site slots in place, so a warmed
    // run under an armed plan meters exactly the clean run's
    // allocations, however many faults it records. The plan stays armed
    // across the warm-up render and the metered one, as `repro
    // --faults` arms it for a whole run.
    for id in ["fig11", "traffic_isolation"] {
        let clean = warmed_allocs_at(id, 7);
        faults::arm(faults::canned("backend-brownout").expect("canned"), 7);
        let armed = warmed_allocs_at(id, 7);
        let stats = faults::disarm().expect("armed");
        assert!(stats.injected_total() > 0, "{id}: the brownout must fire");
        assert_eq!(
            armed, clean,
            "{id}: an armed run allocated {armed} times, the clean run {clean}"
        );
    }
}

/// A bm-guest and a vm-guest with production limits, 256-entry queues,
/// and a block store each.
fn sessions() -> (BmGuestSession, VmGuestSession, BlockStore, BlockStore) {
    (
        BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(1),
            256,
            InstanceLimits::production(),
        ),
        VmGuestSession::new(MacAddr::for_guest(1), 256, InstanceLimits::production(), 11),
        BlockStore::new(StorageClass::CloudSsd, 11),
        BlockStore::new(StorageClass::CloudSsd, 11),
    )
}

/// A 16 KiB write at sector index `i`.
fn write_at(i: u64) -> BlkRequestHeader {
    BlkRequestHeader::new(BlkRequestType::Out, i * 32)
}

/// A 16 KiB read at sector index `i`.
fn read_at(i: u64) -> BlkRequestHeader {
    BlkRequestHeader::new(BlkRequestType::In, i * 32)
}

#[test]
fn warmed_session_block_writes_allocate_nothing() {
    // A 16 KiB write crosses the guest's rings and buffer arena, the
    // backend transport (IO-Bond's shadow ring and staging pool on a
    // bm-guest, vhost's shared ring on a vm-guest), the block store and
    // the completion interrupt. Once every touched page and scratch
    // buffer exists, none of those may allocate per request (the MSI a
    // bm completion raises is acknowledged, not queued).
    let data = vec![0x5a; 16 << 10];
    let (mut bm, mut vm, mut bm_store, mut vm_store) = sessions();
    let mut out = Vec::new();
    let bm_allocs = metered_writes(|i, now| {
        bm.blk_request(&mut bm_store, write_at(i), &data, 0, now, &mut out)
    });
    let vm_allocs = metered_writes(|i, now| {
        vm.blk_request(&mut vm_store, write_at(i), &data, 0, now, &mut out)
    });
    for (platform, allocs) in [("bm", bm_allocs), ("vm", vm_allocs)] {
        assert_eq!(
            allocs, 0,
            "a warmed {platform} block-write loop must not allocate: \
             {allocs} allocations over 5,000 writes"
        );
    }
}

/// What one session's `blk_request` returns.
type BlkResult = Result<(BlkStatus, IoTiming), SessionError>;

/// Allocations of 5,000 16 KiB writes through `write` (one session's
/// `blk_request` at sector index `i`).
fn metered_writes(mut write: impl FnMut(u64, SimTime) -> BlkResult) -> u64 {
    metered(|i, now| {
        let (status, timing) = write(i, now).expect("write completes");
        assert_eq!(status, BlkStatus::Ok);
        timing
    })
}

/// Allocations of 5,000 runs of `op` (at index `i`, issued when the
/// previous one completed), after 512 warm-up runs.
fn metered(mut op: impl FnMut(u64, SimTime) -> IoTiming) -> u64 {
    let mut now = SimTime::ZERO;
    let mut step = |i: u64| now = op(i, now).completed;
    for i in 0..512 {
        step(i);
    }
    let ((), allocs) = alloc::measure_allocs(|| {
        for i in 0..5_000 {
            step(i);
        }
    });
    allocs
}

#[test]
fn warmed_session_sends_receives_and_reads_allocate_nothing() {
    // The rest of the guest data path: each op hands its bytes back in
    // the one buffer the caller reuses, so once that buffer has grown
    // to a 16 KiB read, nothing allocates.
    let (mut bm, mut vm, mut bm_store, mut vm_store) = sessions();
    let frame = [0x3c; 64];
    let peer = MacAddr::for_guest(2);
    let mut out = Vec::new();
    let read = |status: BlkStatus, out: &[u8]| {
        assert_eq!((status, out.len()), (BlkStatus::Ok, 16 << 10));
    };
    let counts = [
        (
            "bm send",
            metered(|_, now| {
                let (_, timing) = bm
                    .net_send(peer, PacketKind::Udp, &frame, now, &mut out)
                    .expect("send");
                timing
            }),
        ),
        (
            "bm receive",
            metered(|_, now| bm.net_receive(&frame, now, &mut out).expect("receive")),
        ),
        (
            "bm read",
            metered(|i, now| {
                let (status, timing) = bm
                    .blk_request(&mut bm_store, read_at(i), &[], 16 << 10, now, &mut out)
                    .expect("read");
                read(status, &out);
                timing
            }),
        ),
        (
            "vm send",
            metered(|_, now| {
                let (_, timing) = vm
                    .net_send(peer, PacketKind::Udp, &frame, now, &mut out)
                    .expect("send");
                timing
            }),
        ),
        (
            "vm receive",
            metered(|_, now| vm.net_receive(&frame, now, &mut out).expect("receive")),
        ),
        (
            "vm read",
            metered(|i, now| {
                let (status, timing) = vm
                    .blk_request(&mut vm_store, read_at(i), &[], 16 << 10, now, &mut out)
                    .expect("read");
                read(status, &out);
                timing
            }),
        ),
    ];
    for (loop_name, allocs) in counts {
        assert_eq!(
            allocs, 0,
            "a warmed {loop_name} loop must not allocate: {allocs} allocations over 5,000 ops"
        );
    }
}

#[test]
fn warmed_server_guest_sends_allocate_nothing() {
    // Board → bm-hypervisor → vSwitch → board: the server forwards each
    // frame through scratch frames of its own.
    let mut server = BmHiveServer::new(ServerConstraints::production(), 5);
    let image = MachineImage::centos_evaluation(1);
    let guests = [0, 1].map(|_| {
        let board = server.install_board(&INSTANCE_CATALOG[0]).expect("board");
        server
            .power_on(board, &image, SimTime::ZERO)
            .expect("boots")
    });
    let dst = server.guest_mac(guests[1]).expect("guest");
    let allocs = metered(|_, now| {
        server
            .guest_send(guests[0], dst, b"ping", now)
            .expect("send")
    });
    let (_, rx, _) = server.guest_mut(guests[1]).expect("guest").counters();
    assert_eq!(rx, 5_512, "every frame reached the receiver");
    assert_eq!(
        allocs, 0,
        "a warmed guest_send loop must not allocate: {allocs} allocations over 5,000 sends"
    );
}
