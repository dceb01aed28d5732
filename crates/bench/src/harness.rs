//! Benchmark harness: host wall-clock timing per experiment.
//!
//! Where [`crate::sweep`] cares about *what* the experiments print,
//! this module cares about *how fast* they run on the host. Each
//! experiment is timed over `repeats` untraced runs (taking the
//! minimum, the standard noise filter for wall-clock microbenchmarks),
//! one warmed untraced run metered for allocation count by the
//! counting `#[global_allocator]`, plus one traced run that counts
//! telemetry spans and reads the peak I/O queue depth gauge — the
//! numbers the benchmark trajectory tracks: wall time, events/sec,
//! allocs/event, peak queue depth.
//!
//! Reports serialize to a stable JSON document (`BENCH_results.json`)
//! and compare against a checked-in baseline. Because absolute wall
//! times differ across machines, the check first normalizes the
//! baseline by the ratio of total wall times, then flags any single
//! experiment whose share of the run regressed beyond the tolerance.

use bmhive_telemetry as telemetry;
use bmhive_telemetry::json::{self, Json};
use std::fmt::Write as _;
use std::time::Instant;

/// Timing and throughput for one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentBench {
    /// Experiment id.
    pub experiment: String,
    /// Minimum wall time over the untraced repeats, in nanoseconds.
    pub wall_ns: u64,
    /// Telemetry spans the experiment emitted (recorded + dropped by
    /// the ring buffer) plus the sim-side event tally the drivers
    /// report — a deterministic proxy for simulated events.
    pub events: u64,
    /// `events` divided by the minimum wall time.
    pub events_per_sec: f64,
    /// Peak `iobond.peak_inflight` gauge during the traced run (0 for
    /// experiments that never touch a shadow queue).
    pub peak_queue_depth: f64,
    /// Heap allocations during one warmed, untraced run, metered by
    /// the counting `#[global_allocator]` (0 when none is installed,
    /// e.g. under plain `cargo test`). The run happens after the
    /// timing repeats, so process-wide one-time initialization is
    /// already paid and the count reflects the experiment body.
    pub allocs: u64,
    /// `allocs` divided by `events`: the steady-state allocation rate
    /// the regression gate tracks. Deterministic per binary + seed —
    /// unlike wall time it needs no machine-speed normalization.
    pub allocs_per_event: f64,
    /// Guest doorbells the PMD's published EVENT_IDX window swallowed
    /// during the traced run, summed over every suppression site
    /// (`bm.doorbells_suppressed`, `vswitch.doorbells_suppressed`, ...).
    /// Deterministic per binary + seed.
    pub doorbells_suppressed: u64,
    /// Mean events drained per `BatchRunner` tick during the traced run
    /// (`sim.batch_events / sim.batch_ticks`; 0 for experiments that
    /// don't run a batched loop). Deterministic per binary + seed.
    pub mean_batch_len: f64,
    /// Worker-pool width of the parallel timing pass (1 when the
    /// harness ran serial-only or the experiment is not host-sharded).
    pub jobs: u32,
    /// Wall-time speedup of the parallel pass over the serial one
    /// (`wall_ns / parallel wall_ns`; 0 when no parallel pass ran).
    /// Output bytes are identical at every width, so this is the same
    /// factor by which events/sec improves.
    pub parallel_speedup: f64,
}

/// A full benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Seed every experiment ran with.
    pub seed: u64,
    /// Untraced timing repeats per experiment.
    pub repeats: u32,
    /// One entry per experiment, in run order.
    pub results: Vec<ExperimentBench>,
}

/// Runs the harness over `experiments` (each id must be in
/// [`crate::EXPERIMENTS`]), additionally timing the host-sharded ones
/// ([`crate::Experiment::parallel`]) at `jobs` workers when `jobs > 1`.
/// The serial pass always supplies `wall_ns` (so baselines stay
/// machine-comparable); the parallel pass only feeds
/// `parallel_speedup`. Telemetry on the calling thread is
/// enabled/reset around the traced runs and left disabled.
pub fn run_bench(
    experiments: &[String],
    seed: u64,
    repeats: u32,
    jobs: usize,
) -> Result<BenchReport, String> {
    let experiments = experiments
        .iter()
        .map(|id| crate::experiment(id))
        .collect::<Result<Vec<_>, _>>()?;
    let repeats = repeats.max(1);
    let mut results = Vec::with_capacity(experiments.len());
    // Every run renders into this one report; `render_into` keeps its
    // buffers, so report growth is paid once, by the first run.
    let mut report = crate::Report::default();
    for exp in experiments {
        // Timing runs: untraced, so the telemetry fast path stays a
        // thread-local flag check and the numbers reflect the
        // simulator, not the collector. Always serial — wall_ns is the
        // machine-comparable baseline number.
        telemetry::set_enabled(false);
        crate::par::set_jobs(1);
        let min_wall_ns = |report: &mut crate::Report| {
            let mut best = u64::MAX;
            for _ in 0..repeats {
                let start = Instant::now();
                exp.render_into(seed, report);
                let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                best = best.min(elapsed);
            }
            best
        };
        let wall_ns = min_wall_ns(&mut report);
        // The parallel pass: same experiment, same seed, `jobs`
        // workers. Output bytes are identical by construction, so the
        // only thing this pass contributes is its wall clock.
        let parallel = jobs > 1 && exp.parallel;
        let mut parallel_speedup = 0.0;
        if parallel {
            crate::par::set_jobs(jobs);
            let par_wall_ns = min_wall_ns(&mut report);
            crate::par::set_jobs(1);
            if par_wall_ns > 0 {
                parallel_speedup = wall_ns as f64 / par_wall_ns as f64;
            }
        }
        // One more untraced run, now warm, metered for allocation
        // count. Untraced so the collector's own buffers don't pollute
        // the tally; after the timing repeats so lazy one-time costs
        // (interning tables, thread-locals) and the report's own
        // growth are excluded.
        let ((), allocs) = telemetry::alloc::measure_allocs(|| exp.render_into(seed, &mut report));
        // One traced run for the deterministic counters.
        telemetry::set_enabled(true);
        telemetry::reset();
        exp.render_into(seed, &mut report);
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::reset();
        let events = snap.events.len() as u64 + snap.dropped + snap.sim_events;
        let events_per_sec = if wall_ns > 0 {
            events as f64 / (wall_ns as f64 / 1e9)
        } else {
            0.0
        };
        let doorbells_suppressed = snap
            .registry
            .counters()
            .filter(|(name, _)| name.ends_with("doorbells_suppressed"))
            .map(|(_, v)| v)
            .sum();
        let batch_ticks = snap.registry.counter("sim.batch_ticks");
        let mean_batch_len = if batch_ticks > 0 {
            snap.registry.counter("sim.batch_events") as f64 / batch_ticks as f64
        } else {
            0.0
        };
        results.push(ExperimentBench {
            experiment: exp.id.to_string(),
            wall_ns,
            events,
            events_per_sec,
            peak_queue_depth: snap.registry.gauge("iobond.peak_inflight").unwrap_or(0.0),
            allocs,
            allocs_per_event: if events > 0 {
                allocs as f64 / events as f64
            } else {
                0.0
            },
            doorbells_suppressed,
            mean_batch_len,
            jobs: if parallel { jobs as u32 } else { 1 },
            parallel_speedup,
        });
    }
    Ok(BenchReport {
        seed,
        repeats,
        results,
    })
}

impl BenchReport {
    /// Total wall time across all experiments, in nanoseconds.
    pub fn total_wall_ns(&self) -> u64 {
        self.results.iter().map(|r| r.wall_ns).sum()
    }

    /// Serializes the report as stable, diff-friendly JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        writeln!(out, "{{").unwrap();
        writeln!(out, "  \"seed\": {},", self.seed).unwrap();
        writeln!(out, "  \"repeats\": {},", self.repeats).unwrap();
        writeln!(out, "  \"total_wall_ns\": {},", self.total_wall_ns()).unwrap();
        writeln!(out, "  \"experiments\": [").unwrap();
        for (i, r) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"experiment\": \"{}\", \"wall_ns\": {}, \"events\": {}, \
                 \"events_per_sec\": {:.1}, \"peak_queue_depth\": {:.1}, \
                 \"allocs\": {}, \"allocs_per_event\": {:.4}, \
                 \"doorbells_suppressed\": {}, \"mean_batch_len\": {:.4}, \
                 \"jobs\": {}, \"parallel_speedup\": {:.2}}}{comma}",
                telemetry::export::json_escape(&r.experiment),
                r.wall_ns,
                r.events,
                r.events_per_sec,
                r.peak_queue_depth,
                r.allocs,
                r.allocs_per_event,
                r.doorbells_suppressed,
                r.mean_batch_len,
                r.jobs,
                r.parallel_speedup,
            )
            .unwrap();
        }
        writeln!(out, "  ]").unwrap();
        writeln!(out, "}}").unwrap();
        out
    }

    /// Parses a report previously written by [`Self::to_json`].
    pub fn from_json(doc: &str) -> Result<BenchReport, String> {
        let json = json::parse(doc).map_err(|e| format!("bench report: {e}"))?;
        let num = |j: &Json, key: &str| -> Result<f64, String> {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("bench report: missing number '{key}'"))
        };
        let mut results = Vec::new();
        let entries = json
            .get("experiments")
            .and_then(Json::as_arr)
            .ok_or("bench report: missing 'experiments' array")?;
        for entry in entries {
            results.push(ExperimentBench {
                experiment: entry
                    .get("experiment")
                    .and_then(Json::as_str)
                    .ok_or("bench report: missing 'experiment'")?
                    .to_string(),
                wall_ns: num(entry, "wall_ns")? as u64,
                events: num(entry, "events")? as u64,
                events_per_sec: num(entry, "events_per_sec")?,
                peak_queue_depth: num(entry, "peak_queue_depth")?,
                // Absent in pre-gate baselines: default to unmetered,
                // which disables the allocation gate for that entry.
                allocs: entry.get("allocs").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                allocs_per_event: entry
                    .get("allocs_per_event")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                // Absent in pre-batching baselines: default to zero,
                // which disables the suppression and batch-length
                // gates for that entry.
                doorbells_suppressed: entry
                    .get("doorbells_suppressed")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0) as u64,
                mean_batch_len: entry
                    .get("mean_batch_len")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                // Absent in pre-parallelism baselines: default to a
                // serial run with no recorded speedup.
                jobs: entry.get("jobs").and_then(Json::as_f64).unwrap_or(1.0) as u32,
                parallel_speedup: entry
                    .get("parallel_speedup")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            });
        }
        Ok(BenchReport {
            seed: num(&json, "seed")? as u64,
            repeats: num(&json, "repeats")? as u64 as u32,
            results,
        })
    }

    /// Compares this run against a baseline, returning one message per
    /// regression (empty = pass).
    ///
    /// Wall times are machine-dependent, so the baseline's per-
    /// experiment times are first scaled by `total(self)/total(baseline)`;
    /// an experiment regresses when its wall time exceeds its scaled
    /// baseline by more than `tolerance` (e.g. `0.25` = 25%) plus an
    /// absolute slack of [`Self::ABS_SLACK_NS`] — microsecond-scale
    /// experiments jitter past any relative bound, and a real
    /// regression in this simulator shows up in milliseconds. This
    /// catches one experiment getting disproportionately slower while
    /// staying robust to an overall faster or slower machine. The
    /// deterministic `events` counts must match exactly.
    /// Absolute jitter allowance added on top of the relative
    /// tolerance (1 ms).
    pub const ABS_SLACK_NS: f64 = 1_000_000.0;

    /// Absolute allocation-count slack for the allocs/event gate: up
    /// to this many allocations over a whole run are forgiven
    /// regardless of the per-event ratio, so experiments with a
    /// handful of events don't trip the gate on one extra report
    /// string.
    pub const ABS_SLACK_ALLOCS: f64 = 64.0;

    pub fn check_against(&self, baseline: &BenchReport, tolerance: f64) -> Vec<String> {
        let mut problems = Vec::new();
        let total = self.total_wall_ns() as f64;
        let base_total = baseline.total_wall_ns() as f64;
        if base_total <= 0.0 {
            problems.push("baseline has zero total wall time".to_string());
            return problems;
        }
        let scale = total / base_total;
        for base in &baseline.results {
            let Some(cur) = self
                .results
                .iter()
                .find(|r| r.experiment == base.experiment)
            else {
                problems.push(format!(
                    "experiment '{}' missing from this run",
                    base.experiment
                ));
                continue;
            };
            if cur.events != base.events && self.seed == baseline.seed {
                problems.push(format!(
                    "{}: event count changed {} -> {} (seed {})",
                    base.experiment, base.events, cur.events, self.seed
                ));
            }
            let allowed = base.wall_ns as f64 * scale * (1.0 + tolerance) + Self::ABS_SLACK_NS;
            if cur.wall_ns as f64 > allowed {
                problems.push(format!(
                    "{}: wall time {:.3}ms exceeds scaled baseline {:.3}ms by more than {:.0}% \
                     (baseline {:.3}ms, machine scale {:.2}x)",
                    base.experiment,
                    cur.wall_ns as f64 / 1e6,
                    allowed / 1e6 / (1.0 + tolerance),
                    tolerance * 100.0,
                    base.wall_ns as f64 / 1e6,
                    scale,
                ));
            } else if base.events > 0
                && base.events_per_sec > 0.0
                && cur.events_per_sec * (1.0 + tolerance) < base.events_per_sec / scale
                && cur.wall_ns as f64 > Self::ABS_SLACK_NS
            {
                // Throughput gate for experiments with a nonzero event
                // tally: events/sec must stay within `tolerance` of the
                // machine-scale-normalized baseline. This catches runs
                // whose wall time holds but whose event yield collapsed
                // (e.g. a driver stopped reporting its tally). The wall
                // slack rationale applies here too: microsecond-scale
                // experiments jitter past any relative bound, so the
                // gate only covers runs longer than the slack.
                problems.push(format!(
                    "{}: events/sec {:.0} regressed more than {:.0}% below the scaled \
                     baseline {:.0} (machine scale {:.2}x)",
                    base.experiment,
                    cur.events_per_sec,
                    tolerance * 100.0,
                    base.events_per_sec / scale,
                    scale,
                ));
            } else if base.allocs_per_event > 0.0
                && cur.allocs > 0
                && cur.allocs_per_event
                    > base.allocs_per_event * (1.0 + tolerance)
                        + Self::ABS_SLACK_ALLOCS / cur.events.max(1) as f64
            {
                // Allocation gate: allocs/event is already normalized
                // by experiment scale (per event) and — being a
                // deterministic count, not a time — needs no machine-
                // speed scaling. `cur.allocs > 0` keeps the gate
                // honest when no counting allocator is installed
                // (plain `cargo test` binaries read dead counters);
                // the absolute slack forgives a few stray allocations
                // in microscopic experiments where one report string
                // would otherwise dominate the ratio.
                problems.push(format!(
                    "{}: allocs/event {:.4} regressed more than {:.0}% above the baseline {:.4} \
                     ({} allocs over {} events)",
                    base.experiment,
                    cur.allocs_per_event,
                    tolerance * 100.0,
                    base.allocs_per_event,
                    cur.allocs,
                    cur.events,
                ));
            } else if base.doorbells_suppressed > 0 && cur.doorbells_suppressed == 0 {
                // Suppression gate: once an experiment demonstrates
                // doorbell coalescing, losing it entirely means the
                // EVENT_IDX high-water publication broke (every kick is
                // being scheduled and priced again). Deterministic
                // count, so no tolerance band — zero is the failure.
                problems.push(format!(
                    "{}: doorbell suppression disappeared (baseline suppressed {}, now 0)",
                    base.experiment, base.doorbells_suppressed,
                ));
            } else if base.mean_batch_len > 0.0
                && cur.mean_batch_len < base.mean_batch_len * (1.0 - tolerance)
            {
                // Batch-efficiency gate: the mean events drained per
                // tick collapsing means the hot loop degenerated back
                // toward one-pop-at-a-time dispatch. Deterministic per
                // seed, but schedule shifts legitimately move it a
                // little, so the relative tolerance applies.
                problems.push(format!(
                    "{}: mean batch length {:.2} fell more than {:.0}% below the baseline {:.2}",
                    base.experiment,
                    cur.mean_batch_len,
                    tolerance * 100.0,
                    base.mean_batch_len,
                ));
            }
        }
        problems
    }

    /// Renders a before/after comparison against `baseline` as an
    /// aligned text table: one row per experiment in this run's order
    /// plus a totals row. CI uploads this as the bench comparison
    /// artifact.
    pub fn comparison_table(&self, baseline: &BenchReport) -> String {
        let pct = |base: f64, cur: f64| {
            if base > 0.0 {
                format!("{:+.1}%", (cur / base - 1.0) * 100.0)
            } else {
                "n/a".to_string()
            }
        };
        let mut out = String::new();
        writeln!(
            out,
            "{:<10} | {:>11} | {:>11} | {:>8} | {:>13} | {:>13} | {:>8} | {:>10} | {:>10} | {:>8}",
            "experiment",
            "base ms",
            "cur ms",
            "wall",
            "base ev/s",
            "cur ev/s",
            "ev/s",
            "base a/ev",
            "cur a/ev",
            "a/ev"
        )
        .unwrap();
        for cur in &self.results {
            match baseline
                .results
                .iter()
                .find(|b| b.experiment == cur.experiment)
            {
                Some(base) => writeln!(
                    out,
                    "{:<10} | {:>11.3} | {:>11.3} | {:>8} | {:>13.0} | {:>13.0} | {:>8} | \
                     {:>10.4} | {:>10.4} | {:>8}",
                    cur.experiment,
                    base.wall_ns as f64 / 1e6,
                    cur.wall_ns as f64 / 1e6,
                    pct(base.wall_ns as f64, cur.wall_ns as f64),
                    base.events_per_sec,
                    cur.events_per_sec,
                    pct(base.events_per_sec, cur.events_per_sec),
                    base.allocs_per_event,
                    cur.allocs_per_event,
                    pct(base.allocs_per_event, cur.allocs_per_event),
                )
                .unwrap(),
                None => writeln!(
                    out,
                    "{:<10} | {:>11} | {:>11.3} | {:>8} | {:>13} | {:>13.0} | {:>8} | \
                     {:>10} | {:>10.4} | {:>8}",
                    cur.experiment,
                    "-",
                    cur.wall_ns as f64 / 1e6,
                    "new",
                    "-",
                    cur.events_per_sec,
                    "new",
                    "-",
                    cur.allocs_per_event,
                    "new",
                )
                .unwrap(),
            }
        }
        writeln!(
            out,
            "{:<10} | {:>11.3} | {:>11.3} | {:>8} |",
            "total",
            baseline.total_wall_ns() as f64 / 1e6,
            self.total_wall_ns() as f64 / 1e6,
            pct(baseline.total_wall_ns() as f64, self.total_wall_ns() as f64),
        )
        .unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(walls: &[(&str, u64)]) -> BenchReport {
        BenchReport {
            seed: 1,
            repeats: 3,
            results: walls
                .iter()
                .map(|&(id, wall_ns)| ExperimentBench {
                    experiment: id.to_string(),
                    wall_ns,
                    events: 10,
                    events_per_sec: 10.0 / (wall_ns as f64 / 1e9),
                    peak_queue_depth: 4.0,
                    allocs: 1000,
                    allocs_per_event: 100.0,
                    doorbells_suppressed: 50,
                    mean_batch_len: 4.0,
                    jobs: 1,
                    parallel_speedup: 0.0,
                })
                .collect(),
        }
    }

    #[test]
    fn bench_runs_and_counts_deterministic_events() {
        let ids = vec!["faults".to_string()];
        let a = run_bench(&ids, 1, 1, 1).unwrap();
        let b = run_bench(&ids, 1, 1, 1).unwrap();
        assert_eq!(a.results[0].events, b.results[0].events);
        assert!(
            a.results[0].events > 0,
            "the session emits spans when traced"
        );
        assert!(
            a.results[0].peak_queue_depth > 0.0,
            "the driven bm-guest fills a shadow queue"
        );
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        assert!(run_bench(&["fig99".to_string()], 1, 1, 1).is_err());
    }

    #[test]
    fn json_round_trips() {
        let ids = vec!["table1".to_string()];
        let report = run_bench(&ids, 7, 2, 1).unwrap();
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.repeats, 2);
        assert_eq!(parsed.results.len(), 1);
        assert_eq!(parsed.results[0].experiment, "table1");
        assert_eq!(parsed.results[0].wall_ns, report.results[0].wall_ns);
        assert_eq!(parsed.results[0].events, report.results[0].events);
        assert_eq!(parsed.results[0].allocs, report.results[0].allocs);
        assert!(
            (parsed.results[0].allocs_per_event - report.results[0].allocs_per_event).abs() < 1e-4
        );
        assert_eq!(
            parsed.results[0].doorbells_suppressed,
            report.results[0].doorbells_suppressed
        );
        assert!((parsed.results[0].mean_batch_len - report.results[0].mean_batch_len).abs() < 1e-4);
    }

    #[test]
    fn pre_gate_baseline_without_alloc_fields_still_parses() {
        let doc = r#"{
  "seed": 1,
  "repeats": 3,
  "total_wall_ns": 10,
  "experiments": [
    {"experiment": "a", "wall_ns": 10, "events": 10, "events_per_sec": 1.0, "peak_queue_depth": 0.0}
  ]
}"#;
        let parsed = BenchReport::from_json(doc).unwrap();
        assert_eq!(parsed.results[0].allocs, 0);
        assert_eq!(parsed.results[0].allocs_per_event, 0.0);
        // An unmetered baseline must not arm the alloc gate.
        let current = report(&[("a", 10)]);
        assert!(current.check_against(&parsed, 0.25).is_empty());
    }

    #[test]
    fn uniform_machine_speedup_is_not_a_regression() {
        let baseline = report(&[("a", 10_000_000), ("b", 20_000_000)]);
        // Everything 3x faster: scaled baseline shrinks with it.
        let current = report(&[("a", 3_330_000), ("b", 6_660_000)]);
        assert!(current.check_against(&baseline, 0.25).is_empty());
    }

    #[test]
    fn one_experiment_regressing_is_flagged() {
        let baseline = report(&[("a", 10_000_000), ("b", 10_000_000)]);
        // 'b' doubled while 'a' held still: total scale 1.5x, so the
        // allowed budget for b is 10ms * 1.5 * 1.25 + 1ms slack =
        // 19.75ms < 20ms.
        let current = report(&[("a", 10_000_000), ("b", 20_000_000)]);
        let problems = current.check_against(&baseline, 0.25);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("b:"), "{problems:?}");
    }

    #[test]
    fn throughput_regression_is_flagged_even_when_wall_holds() {
        let baseline = report(&[("a", 10_000_000)]);
        let mut current = report(&[("a", 10_000_000)]);
        // A different seed, so the event-count check does not apply;
        // the wall time held but half the events disappeared.
        current.seed = 2;
        current.results[0].events = 5;
        current.results[0].events_per_sec = 500.0;
        let problems = current.check_against(&baseline, 0.25);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("events/sec"), "{problems:?}");
    }

    #[test]
    fn alloc_regression_is_flagged_when_wall_and_throughput_hold() {
        let baseline = report(&[("a", 10_000_000)]);
        let mut current = report(&[("a", 10_000_000)]);
        // Same wall, same events, but twice the allocations per event:
        // well past 25% tolerance + the 64-alloc slack over 10 events.
        current.results[0].allocs = 2000;
        current.results[0].allocs_per_event = 200.0;
        let problems = current.check_against(&baseline, 0.25);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("allocs/event"), "{problems:?}");
    }

    #[test]
    fn vanished_doorbell_suppression_is_flagged() {
        let baseline = report(&[("a", 10_000_000)]);
        let mut current = report(&[("a", 10_000_000)]);
        current.results[0].doorbells_suppressed = 0;
        let problems = current.check_against(&baseline, 0.25);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("suppression"), "{problems:?}");
    }

    #[test]
    fn collapsed_batch_length_is_flagged_but_small_drift_is_not() {
        let baseline = report(&[("a", 10_000_000)]);
        let mut current = report(&[("a", 10_000_000)]);
        // 4.0 -> 3.5 is drift within the 25% band; 4.0 -> 1.0 is the
        // loop degenerating to single-pop dispatch.
        current.results[0].mean_batch_len = 3.5;
        assert!(current.check_against(&baseline, 0.25).is_empty());
        current.results[0].mean_batch_len = 1.0;
        let problems = current.check_against(&baseline, 0.25);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("batch length"), "{problems:?}");
    }

    #[test]
    fn pre_batching_baseline_does_not_arm_the_new_gates() {
        let mut baseline = report(&[("a", 10_000_000)]);
        baseline.results[0].doorbells_suppressed = 0;
        baseline.results[0].mean_batch_len = 0.0;
        let mut current = report(&[("a", 10_000_000)]);
        current.results[0].doorbells_suppressed = 0;
        current.results[0].mean_batch_len = 0.0;
        assert!(current.check_against(&baseline, 0.25).is_empty());
    }

    #[test]
    fn unmetered_run_skips_the_alloc_gate() {
        let baseline = report(&[("a", 10_000_000)]);
        let mut current = report(&[("a", 10_000_000)]);
        // No counting allocator in this binary: counts read dead.
        current.results[0].allocs = 0;
        current.results[0].allocs_per_event = 0.0;
        assert!(current.check_against(&baseline, 0.25).is_empty());
    }

    #[test]
    fn comparison_table_lists_every_experiment_and_totals() {
        let baseline = report(&[("a", 10_000_000), ("b", 20_000_000)]);
        let current = report(&[("a", 5_000_000), ("b", 20_000_000)]);
        let table = current.comparison_table(&baseline);
        assert!(table.contains("experiment"), "{table}");
        assert!(table.lines().any(|l| l.starts_with("a ")), "{table}");
        assert!(table.lines().any(|l| l.starts_with("total")), "{table}");
        assert!(table.contains("-50.0%"), "{table}");
    }

    #[test]
    fn missing_experiment_and_changed_events_are_flagged() {
        let baseline = report(&[("a", 10_000_000), ("b", 10_000_000)]);
        let mut current = report(&[("a", 10_000_000)]);
        current.results[0].events = 11;
        let problems = current.check_against(&baseline, 0.25);
        assert!(
            problems.iter().any(|p| p.contains("missing")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("event count")),
            "{problems:?}"
        );
    }
}
