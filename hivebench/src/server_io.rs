//! `server_io`: a full production chassis of 16 `ebm.atom.16xlarge`
//! bm-guests doing closed-loop network and storage I/O.
//!
//! One driver thread keeps one op outstanding per guest, round-robin:
//! each round, every guest sends a 64 B frame to its co-resident
//! neighbour (board → IO-Bond → vSwitch → board) and then issues a
//! 16 KiB `guest_blk` — a write on even rounds, a read on odd ones — so
//! the mix is 2 sends : 1 write : 1 read. Each guest's next op starts at
//! the virtual time its previous one completed.

use crate::ledger::{ratio, Ledger, END_TO_END, PER_LAYER};
use crate::stats::{cpu_ns, median, ns_since, percentile, sustained_rate, Digest};
use crate::{probes, region_day, Args, Outcome};
use bmhive_cloud::catalog::ServerConstraints;
use bmhive_cloud::image::MachineImage;
use bmhive_core::{BmHiveServer, GuestId};
use bmhive_net::MacAddr;
use bmhive_sim::{SimRng, SimTime};
use bmhive_telemetry::{self as telemetry, alloc, Registry};
use bmhive_virtio::{BlkRequestType, BlkStatus, SECTOR_SIZE, VIRTIO_NET_HDR_LEN};
use std::time::Instant;

const GUESTS: usize = 16;
const PAYLOAD: usize = 64;
const BLK_BYTES: usize = 16 << 10;
/// Guest ops per round: a send and a block request per guest.
const OPS_PER_ROUND: u64 = 2 * GUESTS as u64;
/// Block requests land in the first 4096 16 KiB extents (64 MiB).
const EXTENTS: u64 = 4096;
/// Set-ups per run, spread through the timed phase; `setup_s` is their
/// median.
const SETUPS: usize = 9;
/// Untimed rounds before timing, so every staging-pool page the steady
/// state touches is resident and statistics start warm.
const WARMUP_ROUNDS: usize = 512;
/// Timed rounds covered by the digest (and replayed by the check).
const DIGEST_ROUNDS: usize = 256;
/// Rounds per throughput block (see `stats::sustained_rate`).
const BLOCK_ROUNDS: usize = 64;
/// Timed rounds per `--seconds`: a fixed op count per run (the MSI
/// queues grow with every completion, so heap depends on run length),
/// sized to last about `--seconds` on a 2-core x86-64 host.
const ROUNDS_PER_SECOND: f64 = 2200.0;
/// Untraced/traced block pairs in a traced run.
const TRACE_BLOCKS: usize = 8;

/// A booted chassis and the per-guest closed-loop state.
struct Rig {
    server: BmHiveServer,
    guests: Vec<GuestId>,
    macs: Vec<MacAddr>,
    /// Virtual time each guest issues its next op at.
    clock: Vec<SimTime>,
    /// Draws block-request extents.
    rng: SimRng,
    payload: Vec<u8>,
    block: Vec<u8>,
    round: u64,
}

/// Wall time of each call, by kind, and CPU time of each round.
struct Samples {
    send: Vec<f64>,
    write: Vec<f64>,
    read: Vec<f64>,
    round: Vec<f64>,
}

impl Samples {
    fn with_capacity(rounds: usize) -> Self {
        Samples {
            send: Vec::with_capacity(rounds * GUESTS),
            write: Vec::with_capacity(rounds * GUESTS / 2 + GUESTS),
            read: Vec::with_capacity(rounds * GUESTS / 2 + GUESTS),
            round: Vec::with_capacity(rounds),
        }
    }
}

/// Installs `max_boards` atom boards and powers each on from the CentOS
/// evaluation image. Returns the rig, each boot's host CPU milliseconds,
/// and a digest of the boot reports.
fn setup(seed: u64) -> (Rig, Vec<f64>, Digest) {
    let constraints = ServerConstraints::production();
    assert_eq!(
        constraints.max_boards(probes::atom()) as usize,
        GUESTS,
        "the production chassis holds 16 atom boards"
    );
    let mut server = BmHiveServer::new(constraints, seed);
    let image = MachineImage::centos_evaluation(1);
    let mut digest = Digest::new();
    let mut boot_ms = Vec::with_capacity(GUESTS);
    let mut guests = Vec::with_capacity(GUESTS);
    let mut clock = Vec::with_capacity(GUESTS);
    for _ in 0..GUESTS {
        let board = server
            .install_board(probes::atom())
            .expect("the chassis has a free slot");
        let t = cpu_ns();
        let guest = server
            .power_on(board, &image, SimTime::ZERO)
            .expect("the evaluation image boots");
        boot_ms.push((cpu_ns() - t) / 1e6);
        let boot = server.boot_report(guest).expect("guest is powered on");
        digest.word(boot.sectors_read);
        digest.word(boot.requests);
        digest.word(boot.finished_at.as_nanos());
        guests.push(guest);
        clock.push(boot.finished_at);
    }
    let macs = guests
        .iter()
        .map(|&g| server.guest_mac(g).expect("guest is powered on"))
        .collect();
    let mut rng = SimRng::with_stream(seed, 0xb10c);
    let payload = (0..PAYLOAD).map(|_| rng.next_u32() as u8).collect();
    let block = (0..BLK_BYTES).map(|_| rng.next_u32() as u8).collect();
    let rig = Rig {
        server,
        guests,
        macs,
        clock,
        rng,
        payload,
        block,
        round: 0,
    };
    (rig, boot_ms, digest)
}

/// Whether a read returned the volume's synthesized contents: byte `i`
/// of sector `s`'s extent reads `(s + i) mod 251`. Checks a 64-byte
/// stride plus the last byte, keeping the check cheap next to the op.
fn read_is_correct(sector: u64, data: &[u8]) -> bool {
    data.len() == BLK_BYTES
        && (0..BLK_BYTES)
            .step_by(64)
            .chain([BLK_BYTES - 1])
            .all(|i| u64::from(data[i]) == (sector + i as u64) % 251)
}

/// Runs one round; returns the failed ops. Per-call host times go to
/// `samples`, simulated outputs to `digest`.
fn round(rig: &mut Rig, mut samples: Option<&mut Samples>, digest: &mut Digest) -> u64 {
    let mut failed = 0;
    let write = rig.round.is_multiple_of(2);
    for g in 0..GUESTS {
        let guest = rig.guests[g];
        let dst = rig.macs[(g + 1) % GUESTS];
        let t = Instant::now();
        let sent = rig
            .server
            .guest_send(guest, dst, &rig.payload, rig.clock[g]);
        let send_ns = ns_since(t);
        match sent {
            Ok(timing) => {
                digest.word(timing.latency().as_nanos());
                rig.clock[g] = timing.completed;
            }
            Err(_) => failed += 1,
        }

        let sector = rig.rng.below(EXTENTS) * (BLK_BYTES as u64 / SECTOR_SIZE);
        let t = Instant::now();
        let blk = if write {
            rig.server.guest_blk(
                guest,
                BlkRequestType::Out,
                sector,
                &rig.block,
                0,
                rig.clock[g],
            )
        } else {
            rig.server.guest_blk(
                guest,
                BlkRequestType::In,
                sector,
                &[],
                BLK_BYTES as u64,
                rig.clock[g],
            )
        };
        let blk_ns = ns_since(t);
        match blk {
            Ok((BlkStatus::Ok, data, timing)) if write || read_is_correct(sector, &data) => {
                digest.word(timing.latency().as_nanos());
                rig.clock[g] = timing.completed;
            }
            _ => failed += 1,
        }
        if let Some(s) = samples.as_deref_mut() {
            s.send.push(send_ns);
            if write {
                s.write.push(blk_ns);
            } else {
                s.read.push(blk_ns);
            }
        }
    }
    rig.round += 1;
    failed
}

/// Runs `n` rounds; returns the failed ops.
fn rounds(rig: &mut Rig, n: usize, digest: &mut Digest) -> u64 {
    (0..n).map(|_| round(rig, None, digest)).sum()
}

/// Re-runs set-up, warm-up and the digest prefix on a fresh chassis;
/// returns its digest (equal to the timed run's for a deterministic
/// simulator) and its failed ops.
fn replay(seed: u64) -> (u64, u64) {
    let (mut rig, _, mut digest) = setup(seed);
    let failed = rounds(&mut rig, WARMUP_ROUNDS + DIGEST_ROUNDS, &mut digest);
    (digest.value(), failed)
}

/// `--trace 0`: the end-to-end metrics.
pub fn timed(args: &Args) -> Outcome {
    let timed_rounds = ((ROUNDS_PER_SECOND * args.seconds) as usize).max(SETUPS * DIGEST_ROUNDS);
    let mut samples = Samples::with_capacity(timed_rounds);
    let baseline = alloc::live_bytes();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let t = cpu_ns();
    let (mut rig, _, mut digest) = setup(args.seed);
    setup_s.push((cpu_ns() - t) / 1e9);
    let boot_digest = digest;
    let mut failed = rounds(&mut rig, WARMUP_ROUNDS, &mut digest);
    let warm_heap = alloc::live_bytes() - baseline;

    // The timed rounds run in `SETUPS` segments with a fresh set-up
    // (timed, then dropped) between segments, so a slow spell of the host
    // cannot cover every set-up. Heap peaks are read per segment.
    let mut peak_heap = 0;
    let mut scratch = Digest::new();
    for segment in 0..SETUPS {
        if segment > 0 {
            let t = cpu_ns();
            let (extra, _, extra_digest) = setup(args.seed);
            setup_s.push((cpu_ns() - t) / 1e9);
            failed += u64::from(extra_digest != boot_digest);
            drop(extra);
        }
        alloc::reset_peak();
        for r in segment * timed_rounds / SETUPS..(segment + 1) * timed_rounds / SETUPS {
            let sink = if r < DIGEST_ROUNDS {
                &mut digest
            } else {
                &mut scratch
            };
            let t = cpu_ns();
            failed += round(&mut rig, Some(&mut samples), sink);
            samples.round.push(cpu_ns() - t);
        }
        peak_heap = peak_heap.max(alloc::peak_bytes() - baseline);
    }
    drop(rig);

    let (replayed, replay_failed) = replay(args.seed);
    failed += replay_failed + u64::from(replayed != digest.value());
    let ops = (2 * WARMUP_ROUNDS + timed_rounds + DIGEST_ROUNDS) as u64 * OPS_PER_ROUND;

    let mut metrics = Ledger::new();
    let mut put = |name: &str, value: f64| metrics.put(END_TO_END, name, value);
    put("setup_s", median(&mut setup_s));
    let block_ops = (BLOCK_ROUNDS as u64 * OPS_PER_ROUND) as f64;
    let mut block_rate: Vec<f64> = samples
        .round
        .chunks_exact(BLOCK_ROUNDS)
        .map(|block| block_ops * 1e9 / block.iter().sum::<f64>())
        .collect();
    put("ops_per_s", sustained_rate(&mut block_rate));
    put("peak_heap_mib", peak_heap as f64 / (1 << 20) as f64);

    let mut notes = Ledger::new();
    let mut blk: Vec<f64> = samples.write.iter().chain(&samples.read).copied().collect();
    let us = |samples: &mut [f64], p: f64| percentile(samples, p) / 1e3;
    notes.set(
        "timed_ops",
        (timed_rounds as u64 * OPS_PER_ROUND) as f64,
        "ops",
    );
    notes.set("warm_heap_mib", warm_heap as f64 / (1 << 20) as f64, "MiB");
    notes.set("net_send_us_p50", us(&mut samples.send, 50.0), "us");
    notes.set("net_send_us_p99", us(&mut samples.send, 99.0), "us");
    notes.set("blk_write_us_p50", us(&mut samples.write, 50.0), "us");
    notes.set("blk_read_us_p50", us(&mut samples.read, 50.0), "us");
    notes.set("blk_us_p99", us(&mut blk, 99.0), "us");
    Outcome {
        attempted: ops + SETUPS as u64,
        failed,
        digest: digest.value(),
        metrics,
        notes,
    }
}

/// `--trace 1`: the per-layer ledger.
pub fn traced(args: &Args) -> Outcome {
    let (mut rig, mut boot_ms, mut digest) = setup(args.seed);
    let mut failed = rounds(&mut rig, WARMUP_ROUNDS, &mut digest);
    failed += rounds(&mut rig, DIGEST_ROUNDS, &mut digest);

    // Untraced blocks (per-op host time and allocations, warm) alternate
    // with traced blocks of the same size (registry counts), so a slow
    // spell of the host hits both passes alike.
    let block_rounds = ((ROUNDS_PER_SECOND * args.seconds / 4.0) as usize / TRACE_BLOCKS).max(1);
    let pass_rounds = block_rounds * TRACE_BLOCKS;
    let mut scratch = Digest::new();
    let (mut untraced_ns, mut traced_ns, mut allocs) = (0.0, 0.0, 0);
    telemetry::reset();
    for _ in 0..TRACE_BLOCKS {
        let t = cpu_ns();
        let (block_failed, block_allocs) =
            alloc::measure_allocs(|| rounds(&mut rig, block_rounds, &mut scratch));
        untraced_ns += cpu_ns() - t;
        allocs += block_allocs;
        telemetry::set_enabled(true);
        let t = cpu_ns();
        failed += block_failed + rounds(&mut rig, block_rounds, &mut scratch);
        traced_ns += cpu_ns() - t;
        telemetry::set_enabled(false);
    }
    let snap = telemetry::snapshot();
    telemetry::reset();
    drop(rig);
    let pass_ops = (pass_rounds as u64 * OPS_PER_ROUND) as f64;
    let reg = &snap.registry;

    let mut ledger = Ledger::new();
    probes::run(&mut ledger, args.seed);
    let fleet_identical = region_day::fleet_probe(&mut ledger, args.seed);
    let mut put = |name: &str, value: f64| ledger.put(PER_LAYER, name, value);
    put("hypervisor.boot_ms", median(&mut boot_ms));
    let c = |name: &str| reg.counter(name) as f64;
    let g = |name: &str| reg.gauge(name).unwrap_or(0.0);
    put(
        "sim.batch_len_mean",
        ratio(c("sim.batch_events"), c("sim.batch_ticks")),
    );
    put(
        "virtio.chains_per_op",
        c("virtio.chains_published") / pass_ops,
    );
    put(
        "iobond.bytes_to_shadow_per_op",
        c("iobond.bytes_to_shadow") / pass_ops,
    );
    put("iobond.peak_inflight", g("iobond.peak_inflight"));
    put(
        "iobond.staging_backpressure",
        c("iobond.staging_backpressure"),
    );
    put(
        "bm.doorbells_suppressed_frac",
        ratio(
            c("bm.doorbells_suppressed"),
            c("bm.net_tx_packets") + c("bm.blk_ops"),
        ),
    );
    put("cloud.vswitch.doorbells_rung", c("vswitch.doorbells_rung"));
    put(
        "cloud.vswitch.doorbells_suppressed",
        c("vswitch.doorbells_suppressed"),
    );
    put(
        "cloud.vswitch.peak_port_depth",
        g("vswitch.peak_port_depth"),
    );
    put(
        "cloud.blockstore.bytes_per_op",
        ratio(c("blockstore.bytes"), c("blockstore.ops")),
    );
    for name in [
        "traffic.clones_per_req",
        "traffic.hedge_win_frac",
        "traffic.cancelled_per_req",
        "traffic.peak_depth",
    ] {
        put(name, 0.0);
    }
    put(
        "telemetry.trace_overhead_frac",
        traced_ns / untraced_ns - 1.0,
    );
    put("heap.allocs_per_op", allocs as f64 / pass_ops);
    let spans = (snap.events.len() as u64 + snap.dropped) as f64;
    let attributed = attributed_ns(&ledger, reg, spans);
    ledger.put(
        PER_LAYER,
        "attr.unattributed_frac",
        1.0 - attributed / untraced_ns,
    );

    let (replayed, replay_failed) = replay(args.seed);
    failed += replay_failed + u64::from(replayed != digest.value()) + u64::from(!fleet_identical);
    Outcome {
        attempted: (2 * (WARMUP_ROUNDS + DIGEST_ROUNDS + pass_rounds)) as u64 * OPS_PER_ROUND + 2,
        failed,
        digest: digest.value(),
        metrics: ledger,
        notes: Ledger::new(),
    }
}

/// Host ns the probes account for in the traced pass: each layer's
/// probe cost times the calls the registry counted, using only calls
/// the session makes itself (the shadow ring's own ring operations are
/// inside `service_into`'s probe).
fn attributed_ns(probe: &Ledger, reg: &Registry, spans: f64) -> f64 {
    let p = |name: &str| probe.get(name);
    let c = |name: &str| reg.counter(name) as f64;
    let frames = c("bm.net_tx_packets") + c("bm.net_rx_packets");
    let blks = c("bm.blk_ops");
    let synced = c("iobond.chains_synced");
    let completions = c("iobond.completions");
    // Frame bytes (virtio-net header + payload) and block bytes the
    // session copies through `GuestRam`: scattered once, gathered once.
    let frame_kib = (VIRTIO_NET_HDR_LEN as usize + PAYLOAD) as f64 / 1024.0;
    let blk_kib = BLK_BYTES as f64 / 1024.0;
    let iobond = 2.0 * frames * p("iobond.service_into_ns_64b")
        + 2.0 * blks * p("iobond.service_into_ns_16k");
    let virtio = (c("virtio.chains_published") - synced) * p("virtio.add_buf_ns")
        + (c("virtio.chains_popped") - synced) * p("virtio.pop_avail_ns")
        + (c("virtio.used_completions") - completions) * p("virtio.push_used_ns")
        + completions * p("virtio.poll_used_ns");
    let mem = frames
        * frame_kib
        * (p("mem.ram.write_ns_per_kib_64b") + p("mem.ram.read_ns_per_kib_64b"))
        + blks * blk_kib * (p("mem.ram.write_ns_per_kib_16k") + p("mem.ram.read_ns_per_kib_16k"));
    let vswitch = c("vswitch.forwarded") * p("cloud.vswitch.forward_ns");
    let telemetry = spans * p("telemetry.span_off_ns");
    iobond + virtio + mem + vswitch + telemetry
}
