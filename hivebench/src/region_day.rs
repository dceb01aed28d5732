//! `region_day`: a region's day of live operations, host-sharded.
//!
//! Each batch fans 400 hosts across `par::run_hosts` at `jobs = nproc`;
//! every host runs `RegionHostDay::run` (2000 guests placed, then 24 h of
//! diurnal churn with an exit-rate census of every admitted guest), and
//! the orchestrator folds the days with `RegionHostDay::merge` in host
//! order. Every batch of a run simulates the same seeded region, so each
//! batch's merged result must equal the first's.

use crate::ledger::{ratio, Ledger, END_TO_END, PER_LAYER};
use crate::stats::{cpu_ns, median, ns_since, sustained_rate, Digest};
use crate::{probes, Args, Outcome};
use bmhive_bench::par;
use bmhive_cloud::fleet::RegionHostDay;
use bmhive_telemetry::{self as telemetry, alloc};
use std::collections::HashMap;
use std::thread::ThreadId;
use std::time::Instant;

const GUESTS_PER_HOST: u64 = 2000;
const HOSTS: usize = 400;
/// Hosts per batch when another workload's traced run probes the pool.
const PROBE_HOSTS: usize = 128;
/// Hosts in the cold first fan-out that `setup_s` times.
const SETUP_HOSTS: usize = 64;
/// Set-ups per run, spread through the timed phase; `setup_s` is their
/// median.
const SETUPS: usize = 15;
/// Timed batches per `--seconds` (at least two, so the repeat check
/// runs), sized to last about `--seconds` on a 2-core x86-64 host.
const BATCHES_PER_SECOND: f64 = 9.0;
const THRESHOLDS: [f64; 3] = [10_000.0, 50_000.0, 100_000.0];
/// RNG stream selectors of the guests' exit rates and of the hourly
/// preemption probes (per-host selectors derive from these).
const EXIT_STREAM: u64 = 0xbe91;
const OPS_STREAM: u64 = 0x09b5;
/// Preemption-pressure samples a host day records (both classes, 128
/// per class per hour).
const PREEMPT_RECORDS: u64 = 2 * 128 * 24;

/// What one host's closure hands back besides its day.
struct HostRun {
    day: RegionHostDay,
    /// Wall ns inside the closure.
    ns: f64,
    /// Worker CPU ns inside the closure.
    cpu_ns: f64,
    /// When the closure ended, in ns since the batch started.
    end_ns: f64,
    thread: ThreadId,
    /// The worker thread's heap high-water mark so far.
    thread_peak: i64,
    allocs: u64,
}

/// One fan-out of `hosts` host-days and its fold.
struct Batch {
    merged: RegionHostDay,
    /// `run_hosts` call to return.
    fan_out_ns: f64,
    /// The host-ordered fold.
    fold_ns: f64,
    host_ns: Vec<f64>,
    /// CPU ns of each closure.
    host_cpu_ns: Vec<f64>,
    /// The busiest worker's closure CPU ns plus the orchestrator's CPU ns
    /// (spawning, slot fold, merge): the batch's critical path without
    /// the time other tenants of a shared host took.
    path_cpu_ns: f64,
    /// Latest closure end, ns since the batch started.
    last_end_ns: f64,
    /// Worker heap peaks summed over threads, plus the orchestrator's.
    heap_bytes: f64,
    allocs: u64,
}

impl Batch {
    fn busy_ns(&self) -> f64 {
        self.host_ns.iter().sum()
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_batch(seed: u64, hosts: usize, jobs: usize) -> Batch {
    par::set_jobs(jobs);
    let orchestrator_cpu = cpu_ns();
    let start = Instant::now();
    let (runs, orchestrator_peak) = alloc::measure_peak(|| {
        par::run_hosts(hosts, seed, |host| {
            let t = Instant::now();
            let cpu = cpu_ns();
            let (day, allocs) = alloc::measure_allocs(|| {
                RegionHostDay::run(
                    GUESTS_PER_HOST,
                    &THRESHOLDS,
                    seed,
                    par::host_stream(EXIT_STREAM, host),
                    par::host_stream(OPS_STREAM, host),
                )
            });
            HostRun {
                day,
                cpu_ns: cpu_ns() - cpu,
                ns: ns_since(t),
                end_ns: ns_since(start),
                thread: std::thread::current().id(),
                thread_peak: alloc::peak_bytes(),
                allocs,
            }
        })
    });
    let fan_out_ns = ns_since(start);
    par::set_jobs(1);

    let t = Instant::now();
    let mut merged = runs[0].day.clone();
    for run in &runs[1..] {
        merged.merge(&run.day);
    }
    let fold_ns = ns_since(t);
    let orchestrator_cpu = cpu_ns() - orchestrator_cpu;

    let mut worker_peaks: HashMap<ThreadId, i64> = HashMap::new();
    let mut worker_cpu: HashMap<ThreadId, f64> = HashMap::new();
    for run in &runs {
        let peak = worker_peaks.entry(run.thread).or_insert(0);
        *peak = (*peak).max(run.thread_peak);
        *worker_cpu.entry(run.thread).or_insert(0.0) += run.cpu_ns;
    }
    Batch {
        merged,
        fan_out_ns,
        fold_ns,
        host_ns: runs.iter().map(|r| r.ns).collect(),
        host_cpu_ns: runs.iter().map(|r| r.cpu_ns).collect(),
        path_cpu_ns: orchestrator_cpu + worker_cpu.values().copied().fold(0.0f64, f64::max),
        last_end_ns: runs.iter().map(|r| r.end_ns).fold(0.0, f64::max),
        heap_bytes: worker_peaks.values().sum::<i64>() as f64 + orchestrator_peak as f64,
        allocs: runs.iter().map(|r| r.allocs).sum(),
    }
}

/// Digest of a merged region: census rows, churn counters and the
/// distributions' percentiles, bit for bit.
fn digest(day: &RegionHostDay) -> u64 {
    let mut d = Digest::new();
    for (threshold, pct) in day.census.rows() {
        d.float(threshold);
        d.float(pct);
    }
    d.word(day.census.total());
    d.float(day.census.rate_mean());
    d.float(day.census.rate_percentile(50.0));
    d.float(day.census.rate_percentile(99.0));
    for word in [
        day.arrivals,
        day.departures,
        day.peak_guests,
        day.guest_hours,
    ] {
        d.word(word);
    }
    d.float(day.shared_preempt_percentile(99.0));
    d.float(day.exclusive_preempt_percentile(99.0));
    d.word(day.preempt_samples());
    d.value()
}

/// `--trace 0`: the end-to-end metrics.
pub fn timed(args: &Args) -> Outcome {
    let jobs = nproc();
    let batches = ((BATCHES_PER_SECOND * args.seconds) as usize).max(SETUPS);
    let mut batch_rate = Vec::with_capacity(batches);

    // A set-up is a cold fan-out of a small fleet: the pool's threads
    // start and touch fresh heap. Set-ups are spread through the run so
    // a slow spell of the host cannot cover them all.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let (mut failed, mut ops) = (0u64, 0u64);
    let mut first = None;
    let mut peak_heap = 0.0f64;
    for b in 0..batches {
        if b % (batches / SETUPS) == 0 && setup_s.len() < SETUPS {
            setup_s.push(run_batch(args.seed, SETUP_HOSTS, jobs).path_cpu_ns / 1e9);
        }
        let batch = run_batch(args.seed, HOSTS, jobs);
        let d = digest(&batch.merged);
        failed += u64::from(*first.get_or_insert(d) != d);
        ops += batch.merged.arrivals;
        batch_rate.push(batch.merged.arrivals as f64 * 1e9 / batch.path_cpu_ns);
        peak_heap = peak_heap.max(batch.heap_bytes);
    }

    let mut metrics = Ledger::new();
    let mut put = |name: &str, value: f64| metrics.put(END_TO_END, name, value);
    put("setup_s", median(&mut setup_s));
    put("ops_per_s", sustained_rate(&mut batch_rate));
    put("peak_heap_mib", peak_heap / (1 << 20) as f64);
    let mut notes = Ledger::new();
    notes.set("jobs", jobs as f64, "threads");
    notes.set("batches", batches as f64, "count");
    notes.set("timed_ops", ops as f64, "guests");
    Outcome {
        attempted: ops + batches as u64,
        failed,
        digest: first.expect("at least one batch"),
        metrics,
        notes,
    }
}

/// Repeats of each configuration in a traced run: alternated, so a
/// slow spell of the host hits every configuration alike.
const REPEATS: usize = 3;

/// The traced run's fan-outs of one fleet.
struct FleetRuns {
    /// `jobs = nproc`, untraced.
    wide: Vec<Batch>,
    /// `jobs = 1`, untraced.
    serial: Vec<Batch>,
    /// `jobs = nproc` with telemetry on (empty unless asked for).
    traced: Vec<Batch>,
    /// The registry the traced fan-outs recorded, over all repeats.
    registry: telemetry::Registry,
}

impl FleetRuns {
    fn measure(seed: u64, hosts: usize, with_traced: bool) -> Self {
        let jobs = nproc();
        let mut runs = FleetRuns {
            wide: Vec::new(),
            serial: Vec::new(),
            traced: Vec::new(),
            registry: telemetry::Registry::new(),
        };
        telemetry::reset();
        for _ in 0..REPEATS {
            runs.wide.push(run_batch(seed, hosts, jobs));
            if with_traced {
                telemetry::set_enabled(true);
                runs.traced.push(run_batch(seed, hosts, jobs));
                telemetry::set_enabled(false);
            }
            runs.serial.push(run_batch(seed, hosts, 1));
        }
        runs.registry = telemetry::snapshot().registry;
        telemetry::reset();
        runs
    }

    /// Every fan-out, at either width, traced or not, merged to the same
    /// bytes.
    fn identical(&self) -> bool {
        let first = digest(&self.wide[0].merged);
        self.wide
            .iter()
            .chain(&self.serial)
            .chain(&self.traced)
            .all(|b| digest(&b.merged) == first)
    }

    /// The untraced `jobs = nproc` fan-out with the median critical path.
    fn typical(&self) -> &Batch {
        let mut order: Vec<&Batch> = self.wide.iter().collect();
        order.sort_by(|a, b| a.path_cpu_ns.total_cmp(&b.path_cpu_ns));
        order[order.len() / 2]
    }

    /// Records `cloud.fleet.*` and `par.*`.
    fn record(&self, ledger: &mut Ledger) {
        let jobs = nproc() as f64;
        let wide = self.typical();
        let mut put = |name: &str, value: f64| ledger.put(PER_LAYER, name, value);
        let mut host_cpu_ns = wide.host_cpu_ns.clone();
        put("cloud.fleet.host_day_ms", median(&mut host_cpu_ns) / 1e6);
        put("cloud.fleet.merge_us", wide.fold_ns / 1e3);
        put(
            "par.worker_busy_frac",
            wide.busy_ns() / (jobs * wide.fan_out_ns),
        );
        put(
            "par.orchestrator_ms",
            (wide.fan_out_ns - wide.last_end_ns) / 1e6,
        );
        // Karp-Flatt: the serial fraction implied by the speed-up of the
        // critical path at `jobs` workers (it reads below 0 when the
        // host's speed drifted between the runs it compares). With one
        // worker there is no speed-up to read.
        let serial_frac = if jobs > 1.0 {
            let speedup = median_path(&self.serial) / median_path(&self.wide);
            (1.0 / speedup - 1.0 / jobs) / (1.0 - 1.0 / jobs)
        } else {
            1.0
        };
        put("par.serial_frac", serial_frac);
    }
}

fn median_path(batches: &[Batch]) -> f64 {
    let mut paths: Vec<f64> = batches.iter().map(|b| b.path_cpu_ns).collect();
    median(&mut paths)
}

/// The pool and fleet part of the ledger for another workload's traced
/// run, over a smaller fleet. Returns whether `jobs = 1` and
/// `jobs = nproc` merged to the same bytes.
pub fn fleet_probe(ledger: &mut Ledger, seed: u64) -> bool {
    let runs = FleetRuns::measure(seed, PROBE_HOSTS, false);
    runs.record(ledger);
    runs.identical()
}

/// `--trace 1`: the per-layer ledger.
pub fn traced(args: &Args) -> Outcome {
    let mut ledger = Ledger::new();
    probes::run(&mut ledger, args.seed);
    ledger.put(PER_LAYER, "hypervisor.boot_ms", probes::boot_ms(args.seed));
    let runs = FleetRuns::measure(args.seed, HOSTS, true);
    runs.record(&mut ledger);
    let reg = &runs.registry;
    let untraced = runs.typical();

    let mut put = |name: &str, value: f64| ledger.put(PER_LAYER, name, value);
    put(
        "sim.batch_len_mean",
        ratio(
            reg.counter("sim.batch_events") as f64,
            reg.counter("sim.batch_ticks") as f64,
        ),
    );
    for name in [
        "virtio.chains_per_op",
        "iobond.bytes_to_shadow_per_op",
        "iobond.peak_inflight",
        "iobond.staging_backpressure",
        "bm.doorbells_suppressed_frac",
        "cloud.vswitch.doorbells_rung",
        "cloud.vswitch.doorbells_suppressed",
        "cloud.vswitch.peak_port_depth",
        "cloud.blockstore.bytes_per_op",
        "traffic.clones_per_req",
        "traffic.hedge_win_frac",
        "traffic.cancelled_per_req",
        "traffic.peak_depth",
    ] {
        put(name, 0.0);
    }
    put(
        "telemetry.trace_overhead_frac",
        median_path(&runs.traced) / median_path(&runs.wide) - 1.0,
    );
    let arrivals = untraced.merged.arrivals as f64;
    put("heap.allocs_per_op", untraced.allocs as f64 / arrivals);
    // Probe costs times the census's calls in one fan-out, against the
    // workers' busy time: every admitted guest is one exit-rate draw and
    // one histogram record, and each host adds its preemption-pressure
    // records.
    let admitted = reg.counter("region.arrivals") as f64 / REPEATS as f64;
    let records = admitted + (PREEMPT_RECORDS * HOSTS as u64) as f64;
    let attributed = admitted * ledger.get("sim.rng.exit_fill_ns_per_draw")
        + records * ledger.get("sim.stats.record_ns");
    ledger.put(
        PER_LAYER,
        "attr.unattributed_frac",
        1.0 - attributed / untraced.host_cpu_ns.iter().sum::<f64>(),
    );
    let fanouts = runs.wide.len() + runs.serial.len() + runs.traced.len();
    Outcome {
        attempted: fanouts as u64 * untraced.merged.arrivals + 1,
        failed: u64::from(!runs.identical()),
        digest: digest(&untraced.merged),
        metrics: ledger,
        notes: Ledger::new(),
    }
}
