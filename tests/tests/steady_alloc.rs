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

use bmhive_hypervisor::bm::{IoTiming, SessionError};
use bmhive_sim::{EventQueue, SimRng, SimTime};
use bmhive_telemetry::alloc::{self, CountingAlloc};
use bmhive_virtio::BlkStatus;

// Each integration test binary links its own allocator; this is the
// same installation line the `repro` binary uses.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// Allocations of one re-render of experiment `id` at seed 1 into a
/// report the first render warmed, as `repro bench` meters it.
fn warmed_allocs(id: &str) -> u64 {
    let exp = bmhive_bench::experiment(id).expect("known id");
    let mut report = exp.render(1);
    let ((), allocs) = alloc::measure_allocs(|| exp.render_into(1, &mut report));
    assert!(!report.text.is_empty());
    allocs
}

/// One schedule/drain cycle against the wheel: a burst of randomly
/// spread timers, drained in whole-tick batches through a reused
/// scratch buffer.
fn churn_cycle(
    q: &mut EventQueue<u64>,
    rng: &mut SimRng,
    base: &mut u64,
    scratch: &mut Vec<(SimTime, u64)>,
) -> u64 {
    for i in 0..64u64 {
        let at = *base + 1 + rng.below(1 << 20);
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
    assert!(alloc::installed(), "the test binary installs CountingAlloc");
    let mut q = EventQueue::new();
    let mut rng = SimRng::with_stream(7, 0xA110C);
    let mut base = 0u64;
    let mut scratch = Vec::new();
    // Warm-up: grow the slab, the front buffer, and the batch scratch
    // to their steady-state footprint.
    let mut drained = 0u64;
    for _ in 0..200 {
        drained += churn_cycle(&mut q, &mut rng, &mut base, &mut scratch);
    }
    assert_eq!(drained, 200 * 64, "warm-up must drain everything");
    // Steady state: the slab free-list recycles every node, batches
    // reuse the scratch, cascades relink in place. Not one allocation.
    let (drained, allocs) = alloc::measure_allocs(|| {
        let mut n = 0u64;
        for _ in 0..5_000 {
            n += churn_cycle(&mut q, &mut rng, &mut base, &mut scratch);
        }
        n
    });
    assert_eq!(drained, 5_000 * 64);
    assert_eq!(
        allocs, 0,
        "a warmed wheel must not allocate: {allocs} allocations over 320k events"
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
fn warmed_session_block_writes_allocate_nothing() {
    use bmhive_cloud::blockstore::{BlockStore, StorageClass};
    use bmhive_cloud::limits::InstanceLimits;
    use bmhive_hypervisor::{BmGuestSession, VmGuestSession};
    use bmhive_iobond::IoBondProfile;
    use bmhive_net::MacAddr;
    use bmhive_virtio::BlkRequestType;

    // A 16 KiB write crosses the guest's rings and buffer arena, the
    // backend transport (IO-Bond's shadow ring and staging pool on a
    // bm-guest, vhost's shared ring on a vm-guest), the block store and
    // the completion interrupt. Once every touched page and scratch
    // buffer exists, none of those may allocate per request (the MSI a
    // bm completion raises is acknowledged, not queued).
    let data = vec![0x5a; 16 << 10];
    let mut bm = BmGuestSession::new(
        IoBondProfile::fpga(),
        MacAddr::for_guest(1),
        256,
        InstanceLimits::production(),
    );
    let mut vm = VmGuestSession::new(MacAddr::for_guest(1), 256, InstanceLimits::production(), 11);
    let mut bm_store = BlockStore::new(StorageClass::CloudSsd, 11);
    let mut vm_store = BlockStore::new(StorageClass::CloudSsd, 11);
    let bm_allocs = metered_writes(|i, now| {
        bm.blk_request(&mut bm_store, BlkRequestType::Out, i * 32, &data, 0, now)
    });
    let vm_allocs = metered_writes(|i, now| {
        vm.blk_request(&mut vm_store, BlkRequestType::Out, i * 32, &data, 0, now)
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
type BlkResult = Result<(BlkStatus, Vec<u8>, IoTiming), SessionError>;

/// Allocations of 5,000 16 KiB writes through `write` (one session's
/// `blk_request` at sector index `i`), after 512 warm-up writes.
fn metered_writes(mut write: impl FnMut(u64, SimTime) -> BlkResult) -> u64 {
    let mut now = SimTime::ZERO;
    let mut step = |i: u64| {
        let (status, out, timing) = write(i, now).expect("write completes");
        assert_eq!(status, BlkStatus::Ok);
        assert!(out.is_empty());
        now = timing.completed;
    };
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
