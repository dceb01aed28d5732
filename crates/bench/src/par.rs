//! Deterministic intra-run parallelism: host-sharded execution with an
//! order-independent merge.
//!
//! The sweep engine (PR 7) proved the repo's determinism idiom across
//! *cells* — each worker owns thread-local telemetry and a fault
//! context, and outputs come back in canonical slot order regardless
//! of which worker finished first. This module applies the same idiom
//! *inside* a single experiment: a fleet of statistically independent
//! hosts is partitioned across a worker pool, every host draws from a
//! [`SimRng`] stream derived purely from its host index (so draws are
//! placement-independent: host 17 produces the same guests whether it
//! runs on worker 0 of 1 or worker 3 of 8), and the per-host results
//! fold back **in host-index order** on the orchestrating thread.
//!
//! # Worker ownership
//!
//! Each per-host closure invocation runs on a pool thread, wrapped in
//! [`isolated`], and owns:
//!
//! * its RNG streams — the closure derives them from the host index
//!   via [`host_stream`], never from worker identity;
//! * thread-local telemetry — the worker enables recording iff the
//!   orchestrating thread had it enabled, resets before each host, and
//!   snapshots after, so every host yields the registry an isolated
//!   serial run would have produced;
//! * a thread-local fault context — when the orchestrating thread has
//!   a plan armed, the worker arms a clone of that plan per host
//!   (backoff jitter seeded from the host index) and hands the
//!   accumulated [`FaultStats`] back for the host-ordered fold;
//! * thread-local allocation counters — `telemetry::alloc` metering
//!   inside the closure sees only this host's allocations, which is
//!   what makes a *per-worker* O(1)-memory gate meaningful. The
//!   counters follow the thread, not the value: a host value a worker
//!   allocates stays charged to that worker's live count after the
//!   orchestrator frees it (the free lowers the orchestrator's count
//!   instead). So a caller that sums worker peaks, as `hivebench`'s
//!   `region_day` does over 400 held `HostRun`s, meters every host
//!   value a worker returned however early the orchestrator folds and
//!   drops it: a streaming fold cannot lower that figure. Shrinking
//!   the value (a histogram windowed to its data) is the other route,
//!   and DESIGN §9 rules that out: a window that grows with the values
//!   makes allocation counts depend on them, which `steady_alloc`
//!   forbids.
//!
//! # Merge semantics
//!
//! The fold on the orchestrating thread is deterministic because it is
//! ordered by host index, not completion: counters add, peak gauges
//! take the max, timer histograms merge bucket-wise
//! ([`Registry::merge_from`]), fault counters add, and the `Vec` of
//! host values returns in host order so callers can fold
//! `ExitCensus`-style accumulators (and concatenate per-host report
//! sections) canonically. Histogram bucket counts are integers — their
//! merge is genuinely order-independent — while the float `sum` inside
//! each histogram is the one order-*sensitive* ingredient, which the
//! host-ordered fold pins down to the exact bytes of `--jobs 1`.
//!
//! Byte-identity across `--jobs` values is structural, not tested-in:
//! `--jobs 1` runs the *same* worker loop on a single pool thread, so
//! there is no separate serial code path to drift.
//!
//! [`Registry::merge_from`]: bmhive_telemetry::Registry::merge_from
//! [`FaultStats`]: bmhive_faults::FaultStats
//! [`SimRng`]: bmhive_sim::SimRng

use bmhive_faults as faults;
use bmhive_telemetry as telemetry;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// This thread's worker-pool width for host-sharded experiments.
    /// Defaults to 1 (serial); `repro --jobs N` raises it on the main
    /// thread only, so sweep workers and nested calls never
    /// oversubscribe.
    static JOBS: Cell<usize> = const { Cell::new(1) };
}

/// Sets the worker-pool width [`run_hosts`] uses on this thread.
/// Values are clamped to at least 1.
pub fn set_jobs(n: usize) {
    JOBS.with(|j| j.set(n.max(1)));
}

/// The worker-pool width configured for this thread (default 1).
pub fn jobs() -> usize {
    JOBS.with(|j| j.get())
}

/// Derives a per-host RNG stream from a base stream and the host
/// index — a pure function of `(base, host)` (SplitMix64 finalizer on
/// a golden-ratio-spread index), so draws are placement-independent:
/// the schedule of workers to hosts can change freely without moving a
/// single sample.
pub fn host_stream(base: u64, host: usize) -> u64 {
    let mut z = base ^ (host as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f` once on the calling thread in thread-local isolation, the
/// one lifecycle behind a sweep cell, a pool worker's host, the traced
/// pass of the work ledger and a single-pass `repro` run.
///
/// With `trace`, telemetry is enabled and reset before `f` and, after
/// it, snapshotted, disabled and reset. With a `(plan, seed)`, the plan
/// is armed under that seed before `f` and disarmed after it, handing
/// back its [`faults::FaultStats`]. Without either, `f` just runs.
pub fn isolated<T>(
    plan: Option<(faults::FaultPlan, u64)>,
    trace: bool,
    f: impl FnOnce() -> T,
) -> (T, Option<faults::FaultStats>, Option<telemetry::Snapshot>) {
    if trace {
        telemetry::set_enabled(true);
        telemetry::reset();
    }
    let armed = plan.is_some();
    if let Some((plan, seed)) = plan {
        faults::arm(plan, seed);
    }
    let value = f();
    let fault_stats = if armed { faults::disarm() } else { None };
    let snapshot = trace.then(|| {
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::reset();
        snap
    });
    (value, fault_stats, snapshot)
}

/// Runs `f(host)` for every `host in 0..hosts` across this thread's
/// configured worker pool ([`jobs`]) and returns the values in host
/// order, having folded each host's telemetry and fault statistics
/// into the orchestrating thread's collectors in host-index order.
///
/// `seed` feeds only the per-host fault-context backoff streams (via
/// [`host_stream`]); the closure derives its own simulation streams
/// from the host index.
///
/// Work is shared through `work_share`, the same pool the sweep uses,
/// so stragglers never idle a worker and completion order is
/// irrelevant. Even `jobs = 1` runs on a (single) pool thread: per-host
/// state handling is byte-for-byte the same code at every width.
pub fn run_hosts<T, F>(hosts: usize, seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if hosts == 0 {
        return Vec::new();
    }
    let workers = jobs().clamp(1, hosts);
    let telemetry_on = telemetry::is_enabled();
    let plan = faults::armed_plan();

    let run_host = |host| {
        let armed = plan.clone().map(|p| (p, host_stream(seed, host)));
        let (value, fault_stats, snapshot) = isolated(armed, telemetry_on, || f(host));
        // Boxed: the counters are inline arrays, and every host's slot
        // is allocated up front, armed or not.
        (value, fault_stats.map(Box::new), snapshot)
    };
    // Host-index-ordered fold on the orchestrating thread: the one
    // place float accumulation happens, pinned to a canonical order.
    let mut values = Vec::with_capacity(hosts);
    work_share(hosts, workers, run_host, |(value, stats, snap)| {
        if let Some(snap) = &snap {
            telemetry::absorb(snap);
        }
        if let Some(stats) = &stats {
            faults::absorb_stats(stats);
        }
        values.push(value);
    });
    values
}

/// Runs `work(i)` for every `i in 0..n` on `workers` scoped threads,
/// then hands each result to `fold` on the calling thread in index
/// order. Workers pull the next index from an atomic counter and park
/// each result in that index's slot, so the fold order never depends
/// on which worker finished first.
pub(crate) fn work_share<T, W, F>(n: usize, workers: usize, work: W, mut fold: F)
where
    T: Send,
    W: Fn(usize) -> T + Sync,
    F: FnMut(T),
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = work(i);
                *slots[i].lock().expect("slot poisoned") = Some(value);
            });
        }
    });
    for slot in slots {
        fold(
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every index below n was claimed and ran"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_sim::SimRng;

    #[test]
    fn host_stream_is_a_pure_function_of_base_and_host() {
        assert_eq!(host_stream(0xce15, 7), host_stream(0xce15, 7));
        assert_ne!(host_stream(0xce15, 7), host_stream(0xce15, 8));
        assert_ne!(host_stream(0xce15, 7), host_stream(0xf161, 7));
        // Neighbouring hosts must not collapse to the same stream for
        // any small fleet.
        let streams: std::collections::BTreeSet<u64> =
            (0..1024).map(|h| host_stream(0xce15, h)).collect();
        assert_eq!(streams.len(), 1024);
    }

    #[test]
    fn jobs_defaults_to_one_and_is_thread_local() {
        assert_eq!(jobs(), 1);
        set_jobs(6);
        assert_eq!(jobs(), 6);
        let seen = std::thread::spawn(jobs).join().unwrap();
        assert_eq!(seen, 1, "fresh threads must not inherit the pool width");
        set_jobs(0);
        assert_eq!(jobs(), 1, "set_jobs clamps to at least 1");
        set_jobs(1);
    }

    #[test]
    fn run_hosts_returns_values_in_host_order_at_any_width() {
        let draws = |host: usize| {
            let mut rng = SimRng::with_stream(42, host_stream(0xce15, host));
            (0..64).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        };
        set_jobs(1);
        let serial: Vec<Vec<u64>> = run_hosts(13, 42, draws);
        for width in [2, 4, 8] {
            set_jobs(width);
            let parallel = run_hosts(13, 42, draws);
            assert_eq!(serial, parallel, "width {width} diverged from serial");
        }
        set_jobs(1);
        assert_eq!(serial.len(), 13);
        assert_eq!(serial[3], draws(3), "host 3 must be placement-independent");
    }

    #[test]
    fn run_hosts_merges_worker_telemetry_in_host_order() {
        let body = |host: usize| {
            telemetry::counter("par.hosts_run", 1);
            telemetry::gauge_max("par.max_host", host as f64);
            telemetry::timer(
                "par.host_us",
                bmhive_sim::SimDuration::from_micros(host as u64 + 1),
            );
            telemetry::add_events(10);
            host
        };
        let run_at = |width: usize| {
            telemetry::set_enabled(true);
            telemetry::reset();
            set_jobs(width);
            let hosts = run_hosts(9, 7, body);
            set_jobs(1);
            let snap = telemetry::snapshot();
            telemetry::set_enabled(false);
            telemetry::reset();
            (hosts, snap)
        };
        let (hosts1, snap1) = run_at(1);
        let (hosts4, snap4) = run_at(4);
        assert_eq!(hosts1, (0..9).collect::<Vec<usize>>());
        assert_eq!(hosts1, hosts4);
        for snap in [&snap1, &snap4] {
            assert_eq!(snap.registry.counter("par.hosts_run"), 9);
            assert_eq!(snap.registry.gauge("par.max_host"), Some(8.0));
            assert_eq!(snap.registry.timer("par.host_us").unwrap().count(), 9);
            assert_eq!(snap.sim_events, 90);
        }
        assert!(
            (snap1.registry.timer("par.host_us").unwrap().mean()
                - snap4.registry.timer("par.host_us").unwrap().mean())
            .abs()
                == 0.0,
            "host-ordered histogram fold must be bit-identical across widths"
        );
    }

    #[test]
    fn run_hosts_leaves_the_callers_collector_intact() {
        telemetry::set_enabled(true);
        telemetry::reset();
        telemetry::counter("before", 3);
        set_jobs(2);
        let _ = run_hosts(4, 1, |h| {
            telemetry::counter("inside", 1);
            h
        });
        set_jobs(1);
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::reset();
        assert_eq!(snap.registry.counter("before"), 3);
        assert_eq!(snap.registry.counter("inside"), 4);
    }

    #[test]
    fn run_hosts_zero_hosts_is_empty() {
        assert!(run_hosts(0, 0, |h| h).is_empty());
    }
}
