//! `traffic_mmpp`: bursty open-loop traffic into a hedged guest pool.
//!
//! Each cell is one `bmhive_traffic::run` of 10 000 requests over 16
//! guests and 2 PMD cores with web-tier service demands. Arrivals are a
//! two-state MMPP (ON at ρ = 0.9, OFF at ρ = 0.3 of pool capacity, 2 ms
//! mean dwell); dispatch is power-of-two-choices with a hedge clone after
//! the service p95. The load is open loop in virtual time, but on the
//! host a cell is a batch. A run cycles over 16 cells, each seeded from
//! the workload seed, so every cell's report repeats on its next visit.

use crate::ledger::{ratio, Ledger, END_TO_END, PER_LAYER};
use crate::stats::{cpu_ns, median, sustained_rate, Digest};
use crate::{probes, region_day, Args, Outcome};
use bmhive_bench::par;
use bmhive_sim::SimDuration;
use bmhive_telemetry::{self as telemetry, alloc, Registry};
use bmhive_traffic::{ArrivalModel, DispatchMode, Policy, RunReport, TrafficConfig};
use bmhive_workloads::openloop::ServiceTime;
use std::hint::black_box;

const GUESTS: usize = 16;
const CELL_REQUESTS: u64 = 10_000;
/// Distinct cells a run cycles over; one cycle is a throughput block.
const CELLS: usize = 16;
/// Set-ups per run, spread through the timed phase; `setup_s` is their
/// median.
const SETUPS: usize = 15;
/// Timed cycles per `--seconds`, sized to last about `--seconds` on a
/// 2-core x86-64 host.
const CYCLES_PER_SECOND: f64 = 7.0;
/// Salt separating the set-up cells' seeds from the timed cells'.
const SETUP_SALT: u64 = 0x5e7u64 << 32;

fn config() -> TrafficConfig {
    let service = ServiceTime::web_tier();
    // Offered rate at utilisation `rho` of the whole pool.
    let rate_at = |rho: f64| rho * GUESTS as f64 / service.mean().as_secs_f64();
    TrafficConfig {
        guests: GUESTS,
        pmd_cores: 2,
        service,
        arrivals: ArrivalModel::Mmpp {
            on_rps: rate_at(0.9),
            off_rps: rate_at(0.3),
            mean_dwell: SimDuration::from_millis(2),
        },
        requests: CELL_REQUESTS,
        net_hop: SimDuration::from_micros(2),
        mode: DispatchMode::Hedge {
            policy: Policy::PowerOfTwo,
            delay: service.p95(),
        },
        outage: None,
    }
}

fn cell_seed(seed: u64, cell: usize) -> u64 {
    par::host_stream(seed, cell)
}

/// Every request is accounted for and every delivered copy was
/// completed or cancelled exactly once.
fn conserved(r: &RunReport) -> bool {
    r.offered == CELL_REQUESTS && r.completed + r.dropped == r.offered && r.residual_depth == 0
}

/// Digest of a cell's simulated outputs: counts, the virtual-time
/// horizon and the response-time distribution, bit for bit.
fn digest(r: &RunReport) -> u64 {
    let mut d = Digest::new();
    for word in [
        r.offered,
        r.completed,
        r.dropped,
        r.clones_sent,
        r.hedge_fired,
        r.hedge_wins,
        r.cancelled,
        r.residual_depth,
        r.peak_depth,
        r.horizon.as_nanos(),
        r.latency.count(),
    ] {
        d.word(word);
    }
    for p in [50.0, 99.0, 99.9] {
        d.float(r.latency.percentile(p));
    }
    d.float(r.latency.mean());
    for guest in &r.per_guest {
        d.word(guest.count());
    }
    d.value()
}

/// `--trace 0`: the end-to-end metrics.
pub fn timed(args: &Args) -> Outcome {
    let cycles = ((CYCLES_PER_SECOND * args.seconds) as usize).max(2 * SETUPS);
    let mut cycle_ns = Vec::with_capacity(cycles);
    let mut cell_digests = [0u64; CELLS];
    let cfg = config();

    // A set-up is a fresh configuration and its first cell, on seeds
    // apart from the timed cells'. Set-ups are spread through the run so
    // a slow spell of the host cannot cover them all.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let (mut failed, mut ops, mut peak_heap) = (0u64, 0u64, 0u64);
    for cycle in 0..cycles {
        if cycle % (cycles / SETUPS) == 0 && setup_s.len() < SETUPS {
            let t = cpu_ns();
            let cfg = config();
            black_box(bmhive_traffic::run(
                &cfg,
                cell_seed(args.seed ^ SETUP_SALT, setup_s.len()),
            ));
            setup_s.push((cpu_ns() - t) / 1e9);
        }
        let t = cpu_ns();
        for (cell, first) in cell_digests.iter_mut().enumerate() {
            let (report, heap) =
                alloc::measure_peak(|| bmhive_traffic::run(&cfg, cell_seed(args.seed, cell)));
            peak_heap = peak_heap.max(heap);
            ops += report.offered;
            failed += u64::from(!conserved(&report));
            let d = digest(&report);
            if cycle == 0 {
                *first = d;
            } else {
                failed += u64::from(*first != d);
            }
        }
        cycle_ns.push(cpu_ns() - t);
    }

    let mut metrics = Ledger::new();
    let mut put = |name: &str, value: f64| metrics.put(END_TO_END, name, value);
    put("setup_s", median(&mut setup_s));
    let cycle_requests = (CELLS as u64 * CELL_REQUESTS) as f64;
    let mut cycle_rate: Vec<f64> = cycle_ns
        .iter()
        .map(|ns| cycle_requests * 1e9 / ns)
        .collect();
    put("ops_per_s", sustained_rate(&mut cycle_rate));
    put("peak_heap_mib", peak_heap as f64 / (1 << 20) as f64);
    let mut notes = Ledger::new();
    notes.set("cycles", cycles as f64, "count");
    notes.set("timed_ops", ops as f64, "requests");
    Outcome {
        attempted: ops + (cycles * CELLS) as u64,
        failed,
        digest: cells_digest(&cell_digests),
        metrics,
        notes,
    }
}

fn cells_digest(cells: &[u64]) -> u64 {
    let mut d = Digest::new();
    for &c in cells {
        d.word(c);
    }
    d.value()
}

/// `--trace 1`: the per-layer ledger.
pub fn traced(args: &Args) -> Outcome {
    // A warm pass, then each cell untraced (host time, allocations) and
    // straight after traced (registry counts), so a slow spell of the
    // host hits both passes alike.
    let cfg = config();
    let run = |cell| bmhive_traffic::run(&cfg, cell_seed(args.seed, cell));
    let warm: Vec<RunReport> = (0..CELLS).map(run).collect();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut untraced_ns, mut traced_ns, mut allocs) = (0.0, 0.0, 0);
    telemetry::reset();
    for cell in 0..CELLS {
        let t = cpu_ns();
        let (report, cell_allocs) = alloc::measure_allocs(|| run(cell));
        untraced_ns += cpu_ns() - t;
        allocs += cell_allocs;
        untraced.push(report);
        telemetry::set_enabled(true);
        let t = cpu_ns();
        traced.push(run(cell));
        traced_ns += cpu_ns() - t;
        telemetry::set_enabled(false);
    }
    let snap = telemetry::snapshot();
    telemetry::reset();
    let reg = &snap.registry;

    let mut ledger = Ledger::new();
    probes::run(&mut ledger, args.seed);
    ledger.put(PER_LAYER, "hypervisor.boot_ms", probes::boot_ms(args.seed));
    let fleet_identical = region_day::fleet_probe(&mut ledger, args.seed);

    let sum = |f: fn(&RunReport) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let offered = sum(|r| r.offered);
    let c = |name: &str| reg.counter(name) as f64;
    let mut put = |name: &str, value: f64| ledger.put(PER_LAYER, name, value);
    put(
        "sim.batch_len_mean",
        ratio(c("sim.batch_events"), c("sim.batch_ticks")),
    );
    for name in [
        "virtio.chains_per_op",
        "iobond.bytes_to_shadow_per_op",
        "iobond.peak_inflight",
        "iobond.staging_backpressure",
        "bm.doorbells_suppressed_frac",
        "cloud.blockstore.bytes_per_op",
    ] {
        put(name, 0.0);
    }
    put("cloud.vswitch.doorbells_rung", c("vswitch.doorbells_rung"));
    put(
        "cloud.vswitch.doorbells_suppressed",
        c("vswitch.doorbells_suppressed"),
    );
    put(
        "cloud.vswitch.peak_port_depth",
        reg.gauge("vswitch.peak_port_depth").unwrap_or(0.0),
    );
    put("traffic.clones_per_req", sum(|r| r.clones_sent) / offered);
    put(
        "traffic.hedge_win_frac",
        ratio(sum(|r| r.hedge_wins), sum(|r| r.clones_sent)),
    );
    put("traffic.cancelled_per_req", sum(|r| r.cancelled) / offered);
    put(
        "traffic.peak_depth",
        traced.iter().map(|r| r.peak_depth).max().unwrap_or(0) as f64,
    );
    put(
        "telemetry.trace_overhead_frac",
        traced_ns / untraced_ns - 1.0,
    );
    put("heap.allocs_per_op", allocs as f64 / offered);
    let spans = (snap.events.len() as u64 + snap.dropped) as f64;
    let attributed = attributed_ns(&ledger, reg, &traced, spans);
    ledger.put(
        PER_LAYER,
        "attr.unattributed_frac",
        1.0 - attributed / untraced_ns,
    );

    let digests: Vec<u64> = untraced.iter().map(digest).collect();
    let mut failed = u64::from(!fleet_identical);
    for ((a, b), c) in warm.iter().zip(&untraced).zip(&traced) {
        failed += u64::from(!conserved(a) || !conserved(b) || !conserved(c));
        failed += u64::from(digest(a) != digest(b) || digest(b) != digest(c));
    }
    Outcome {
        attempted: 3 * CELLS as u64 * CELL_REQUESTS + 1,
        failed,
        digest: cells_digest(&digests),
        metrics: ledger,
        notes: Ledger::new(),
    }
}

/// Host ns the probes account for in one pass: every event the batch
/// runner delivered was scheduled once and popped once, every
/// completion records two histogram samples (pool and per-guest), every
/// arrival makes one power-of-two pick, and every copy crosses the
/// vSwitch once.
fn attributed_ns(probe: &Ledger, reg: &Registry, reports: &[RunReport], spans: f64) -> f64 {
    let p = |name: &str| probe.get(name);
    let events = reg.counter("sim.batch_events") as f64;
    let completed: u64 = reports.iter().map(|r| r.completed).sum();
    let offered: u64 = reports.iter().map(|r| r.offered).sum();
    events * (p("sim.events.schedule_ns") + p("sim.events.pop_batch_ns_per_event"))
        + 2.0 * completed as f64 * p("sim.stats.record_ns")
        + offered as f64 * p("traffic.dispatch_pick_ns")
        + reg.counter("vswitch.forwarded") as f64 * p("cloud.vswitch.forward_ns")
        + spans * p("telemetry.span_off_ns")
}
