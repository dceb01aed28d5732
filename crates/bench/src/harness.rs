//! Benchmark ledger: how much work each experiment does.
//!
//! Where [`crate::sweep`] cares about *what* the experiments print,
//! this module counts the work behind it. Host time is not measured
//! here; the `hivebench` benchmark owns it. Every count below is fixed
//! per binary and seed, so a baseline check is exact equality.
//!
//! Each experiment gets a sorted `name → u64` map from two runs after
//! one warm-up render:
//!
//! * `heap.allocs` — allocations of one warmed, untraced run, metered
//!   by the counting `#[global_allocator]` (absent when none is
//!   installed, e.g. under plain `cargo test`);
//! * `sim.events` — the simulated events the drivers reported
//!   ([`telemetry::Snapshot::sim_events`]) during one traced run;
//! * `telemetry.spans` — spans that traced run recorded or dropped;
//! * every registry counter the traced run published, under its own
//!   name (`bm.doorbells_suppressed`, `sim.batch_ticks`, ...).
//!
//! Keys an experiment never touches are absent rather than zero.

use bmhive_telemetry as telemetry;
use bmhive_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deterministic counts of one experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentCounts {
    /// Experiment id.
    pub experiment: String,
    /// Count name → value, sorted by name.
    pub counts: BTreeMap<String, u64>,
}

/// A full ledger run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// Seed every experiment ran with.
    pub seed: u64,
    /// One entry per experiment, in run order.
    pub results: Vec<ExperimentCounts>,
}

/// Counts `experiments` (each id must be in [`crate::EXPERIMENTS`]) at
/// `seed`. Host-sharded experiments run at one worker, and telemetry on
/// the calling thread is left disabled and reset.
pub fn run_bench(experiments: &[String], seed: u64) -> Result<BenchReport, String> {
    let experiments = experiments
        .iter()
        .map(|id| crate::experiment(id))
        .collect::<Result<Vec<_>, _>>()?;
    let metered = telemetry::alloc::installed();
    crate::par::set_jobs(1);
    telemetry::set_enabled(false);
    let mut results = Vec::with_capacity(experiments.len());
    for exp in experiments {
        let mut counts = BTreeMap::new();
        // The warm-up render pays one-time costs (lazy tables, report
        // growth), so the metered run counts the experiment body only.
        let mut report = exp.render(seed);
        let ((), allocs) = telemetry::alloc::measure_allocs(|| exp.render_into(seed, &mut report));
        if metered {
            counts.insert("heap.allocs".to_string(), allocs);
        }
        telemetry::set_enabled(true);
        telemetry::reset();
        exp.render_into(seed, &mut report);
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::reset();
        for (name, value) in snap.registry.counters() {
            counts.insert(name.to_string(), value);
        }
        let spans = snap.events.len() as u64 + snap.dropped;
        for (name, value) in [("sim.events", snap.sim_events), ("telemetry.spans", spans)] {
            if value > 0 {
                counts.insert(name.to_string(), value);
            }
        }
        results.push(ExperimentCounts {
            experiment: exp.id.to_string(),
            counts,
        });
    }
    Ok(BenchReport { seed, results })
}

impl BenchReport {
    /// Serializes the ledger as stable JSON, one line per experiment.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"seed\": {},\n  \"experiments\": [\n", self.seed);
        for (i, r) in self.results.iter().enumerate() {
            let counts: Vec<String> = r
                .counts
                .iter()
                .map(|(k, v)| format!("\"{}\": {v}", telemetry::export::json_escape(k)))
                .collect();
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"experiment\": \"{}\", \"counts\": {{{}}}}}{comma}",
                telemetry::export::json_escape(&r.experiment),
                counts.join(", "),
            )
            .unwrap();
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a ledger previously written by [`Self::to_json`].
    pub fn from_json(doc: &str) -> Result<BenchReport, String> {
        let json = json::parse(doc).map_err(|e| format!("bench report: {e}"))?;
        let count = |v: &Json, what: &str| -> Result<u64, String> {
            match v.as_f64() {
                Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
                _ => Err(format!("bench report: '{what}' is not a count")),
            }
        };
        let entries = json
            .get("experiments")
            .and_then(Json::as_arr)
            .ok_or("bench report: missing 'experiments' array")?;
        let mut results = Vec::with_capacity(entries.len());
        for entry in entries {
            let experiment = entry
                .get("experiment")
                .and_then(Json::as_str)
                .ok_or("bench report: missing 'experiment'")?
                .to_string();
            let Some(Json::Obj(map)) = entry.get("counts") else {
                return Err(format!(
                    "bench report: '{experiment}' has no 'counts' object"
                ));
            };
            let counts = map
                .iter()
                .map(|(k, v)| Ok((k.clone(), count(v, k)?)))
                .collect::<Result<_, String>>()?;
            results.push(ExperimentCounts { experiment, counts });
        }
        let seed = count(
            json.get("seed").ok_or("bench report: missing 'seed'")?,
            "seed",
        )?;
        Ok(BenchReport { seed, results })
    }

    /// Compares this run against `baseline` for exact equality,
    /// returning one message per difference (empty = pass): a seed
    /// mismatch, an experiment on one side only, `id/key old -> new`
    /// for a changed count, and a key on one side only.
    pub fn check_against(&self, baseline: &BenchReport) -> Vec<String> {
        if self.seed != baseline.seed {
            return vec![format!("seed {} -> {}", baseline.seed, self.seed)];
        }
        let mut problems = Vec::new();
        for base in &baseline.results {
            if self.counts(&base.experiment).is_none() {
                problems.push(format!("{}: missing from this run", base.experiment));
            }
        }
        for cur in &self.results {
            let id = &cur.experiment;
            let Some(base) = baseline.counts(id) else {
                problems.push(format!("{id}: missing from the baseline"));
                continue;
            };
            let keys: std::collections::BTreeSet<&String> =
                base.keys().chain(cur.counts.keys()).collect();
            for key in keys {
                match (base.get(key), cur.counts.get(key)) {
                    (Some(old), Some(new)) if old != new => {
                        problems.push(format!("{id}/{key} {old} -> {new}"))
                    }
                    (Some(old), None) => {
                        problems.push(format!("{id}/{key} {old} -> missing from this run"))
                    }
                    (None, Some(new)) => {
                        problems.push(format!("{id}/{key} missing from the baseline -> {new}"))
                    }
                    _ => {}
                }
            }
        }
        problems
    }

    fn counts(&self, id: &str) -> Option<&BTreeMap<String, u64>> {
        self.results
            .iter()
            .find(|r| r.experiment == id)
            .map(|r| &r.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: &[(&str, &[(&str, u64)])]) -> BenchReport {
        BenchReport {
            seed: 1,
            results: rows
                .iter()
                .map(|(id, counts)| ExperimentCounts {
                    experiment: id.to_string(),
                    counts: counts.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn bench_runs_and_counts_deterministic_events() {
        let ids = vec!["faults".to_string()];
        let a = run_bench(&ids, 1).unwrap();
        let b = run_bench(&ids, 1).unwrap();
        assert_eq!(a, b);
        let counts = &a.results[0].counts;
        for key in ["iobond.chains_synced", "bm.doorbells_suppressed"] {
            assert!(counts.get(key).is_some_and(|&n| n > 0), "{key}: {counts:?}");
        }
        assert!(
            !counts.contains_key("heap.allocs"),
            "no counting allocator in unit tests"
        );
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        assert!(run_bench(&["fig99".to_string()], 1).is_err());
    }

    #[test]
    fn json_round_trips() {
        let ids = vec!["table1".to_string(), "fig1".to_string()];
        let report = run_bench(&ids, 7).unwrap();
        assert!(!report.results[1].counts.is_empty());
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(parsed.to_json(), report.to_json());
    }

    #[test]
    fn one_experiment_regressing_is_flagged() {
        let baseline = report(&[("a", &[("heap.allocs", 10)]), ("b", &[("heap.allocs", 10)])]);
        let current = report(&[("a", &[("heap.allocs", 10)]), ("b", &[("heap.allocs", 20)])]);
        assert_eq!(current.check_against(&baseline), ["b/heap.allocs 10 -> 20"]);
    }

    #[test]
    fn vanished_doorbell_suppression_is_flagged() {
        let baseline = report(&[("a", &[("bm.doorbells_suppressed", 50)])]);
        let current = report(&[("a", &[("bm.doorbells_suppressed", 0)])]);
        assert_eq!(
            current.check_against(&baseline),
            ["a/bm.doorbells_suppressed 50 -> 0"]
        );
    }

    #[test]
    fn missing_experiment_and_changed_events_are_flagged() {
        let baseline = report(&[
            ("a", &[("sim.events", 10), ("x", 1)]),
            ("b", &[("sim.events", 10)]),
        ]);
        assert!(baseline.check_against(&baseline).is_empty());
        let current = report(&[("a", &[("sim.events", 11), ("y", 2)]), ("c", &[])]);
        assert_eq!(
            current.check_against(&baseline),
            [
                "b: missing from this run",
                "a/sim.events 10 -> 11",
                "a/x 1 -> missing from this run",
                "a/y missing from the baseline -> 2",
                "c: missing from the baseline",
            ]
        );
        let mut reseeded = baseline.clone();
        reseeded.seed = 2;
        assert_eq!(reseeded.check_against(&baseline), ["seed 1 -> 2"]);
    }
}
