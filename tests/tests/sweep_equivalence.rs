//! The sweep engine's core contract: a parallel sweep is byte-for-byte
//! identical to the serial one — report text, fault stats, and chrome
//! traces — for every canned fault plan.
//!
//! The matrix here is deliberately small (debug builds are slow); CI
//! additionally byte-compares the *full* matrix through the release
//! `repro sweep` binary.

use bmhive_bench::sweep::{render_cell, run_sweep_shard, Shard, SweepSpec};
use bmhive_faults::CANNED_PLAN_NAMES;

/// Two experiments x two seeds x (clean + every canned plan), traced.
/// `faults` drives a full bm-guest session (every fault site fires);
/// `table1` is a static render (the degenerate no-telemetry case).
fn reduced_matrix(jobs: usize) -> SweepSpec {
    let mut plans = vec![None];
    plans.extend(CANNED_PLAN_NAMES.iter().map(|n| Some((*n).to_string())));
    SweepSpec {
        experiments: vec!["table1".into(), "faults".into()],
        seeds: vec![1, 2],
        plans,
        trace: true,
        jobs,
    }
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let serial = run_sweep_shard(&reduced_matrix(1), Shard::WHOLE).expect("serial sweep");
    let parallel = run_sweep_shard(&reduced_matrix(4), Shard::WHOLE).expect("parallel sweep");
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(serial.len(), 2 * 2 * (1 + CANNED_PLAN_NAMES.len()));
    for ((_, s), (_, p)) in serial.iter().zip(&parallel) {
        assert_eq!(s.cell, p.cell, "cell order must not depend on --jobs");
        let label = s.cell.label();
        assert_eq!(s.report, p.report, "{label}: report differs");
        assert_eq!(s.fault_stats, p.fault_stats, "{label}: fault stats differ");
        assert_eq!(s.trace_json, p.trace_json, "{label}: chrome trace differs");
        // The CLI prints render_cell; equality there follows from the
        // fields, but check the composed form too.
        assert_eq!(render_cell(s), render_cell(p));
    }
}

#[test]
fn every_canned_plan_injects_and_recovers_in_the_sweep() {
    let outputs = run_sweep_shard(&reduced_matrix(2), Shard::WHOLE).expect("sweep");
    for plan in CANNED_PLAN_NAMES {
        let (_, cell) = outputs
            .iter()
            .find(|(_, o)| o.cell.experiment == "faults" && o.cell.plan.as_deref() == Some(plan))
            .expect("faults cell for every canned plan");
        let stats = cell.fault_stats.as_ref().expect("armed cell has stats");
        assert!(
            stats.injected_total() > 0,
            "{plan}: no injections recorded:\n{}",
            stats.to_text()
        );
        assert_eq!(
            cell.failures(),
            Vec::<String>::new(),
            "{plan}: unrecovered fault or failed gate:\n{}",
            cell.report.text
        );
    }
}

#[test]
fn clean_cells_are_identical_across_plans_axis_only_when_unarmed() {
    // A clean cell must render exactly what a plain `repro` run of the
    // same experiment/seed renders — the sweep adds no side channel.
    let outputs = run_sweep_shard(&reduced_matrix(2), Shard::WHOLE).expect("sweep");
    for (_, out) in outputs.iter().filter(|(_, o)| o.cell.plan.is_none()) {
        let direct = bmhive_bench::experiment(&out.cell.experiment)
            .expect("known experiment")
            .render(out.cell.seed);
        assert_eq!(out.report, direct, "{}", out.cell.label());
        assert!(out.fault_stats.is_none());
    }
}
