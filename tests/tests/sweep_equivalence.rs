//! The sweep engine's core contract: a parallel sweep is byte-for-byte
//! identical to the serial one — report text, fault stats, and chrome
//! traces — for every canned fault plan, and its `--out` directory
//! holds exactly those bytes.
//!
//! The matrix here is deliberately small (debug builds are slow); CI
//! additionally byte-compares the *full* matrix through the release
//! `repro sweep` binary and pins its stdout and `--out` digests.

use bmhive_bench::sweep::{render_cell, run_sweep, write_cells, SweepSpec};
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
    let serial = run_sweep(&reduced_matrix(1)).expect("serial sweep");
    let parallel = run_sweep(&reduced_matrix(4)).expect("parallel sweep");
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(serial.len(), 2 * 2 * (1 + CANNED_PLAN_NAMES.len()));
    for (s, p) in serial.iter().zip(&parallel) {
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
    let outputs = run_sweep(&reduced_matrix(2)).expect("sweep");
    for plan in CANNED_PLAN_NAMES {
        let cell = outputs
            .iter()
            .find(|o| o.cell.experiment == "faults" && o.cell.plan.as_deref() == Some(plan))
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
    let outputs = run_sweep(&reduced_matrix(2)).expect("sweep");
    for out in outputs.iter().filter(|o| o.cell.plan.is_none()) {
        let direct = bmhive_bench::experiment(&out.cell.experiment)
            .expect("known experiment")
            .render(out.cell.seed);
        assert_eq!(out.report, direct, "{}", out.cell.label());
        assert!(out.fault_stats.is_none());
    }
}

#[test]
fn written_cells_mirror_the_serial_sweep() {
    // Two static tables x two seeds x (clean + one plan), traced: the
    // directory a parallel sweep writes must hold exactly the serial
    // run's reports and traces, byte for byte.
    let spec = |jobs| SweepSpec {
        experiments: vec!["table1".into(), "table2".into()],
        seeds: vec![1, 2],
        plans: vec![None, Some("link-flap".into())],
        trace: true,
        jobs,
    };
    let serial = run_sweep(&spec(1)).expect("serial sweep");
    let dir = std::env::temp_dir().join(format!("bmhive-sweep-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    write_cells(&dir, &run_sweep(&spec(2)).expect("parallel sweep")).expect("write cells");

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("out dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .collect();
    names.sort();
    let mut expected: Vec<String> = serial
        .iter()
        .flat_map(|out| {
            let stem = out.cell.file_stem();
            [format!("{stem}.txt"), format!("{stem}.trace.json")]
        })
        .collect();
    expected.sort();
    assert_eq!(
        names, expected,
        "--out must hold one report and one trace per cell"
    );
    for out in &serial {
        let stem = out.cell.file_stem();
        let txt = std::fs::read_to_string(dir.join(format!("{stem}.txt"))).expect("txt");
        assert_eq!(txt, render_cell(out), "{stem}.txt differs");
        let trace = std::fs::read_to_string(dir.join(format!("{stem}.trace.json"))).expect("trace");
        assert_eq!(Some(trace), out.trace_json, "{stem}.trace.json differs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
