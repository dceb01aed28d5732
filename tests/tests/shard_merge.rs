//! The sharding contract: any `N`-way split of a sweep partitions the
//! canonical cell order disjointly and completely, and merging the
//! shard directories reassembles the serial run byte for byte.
//!
//! The matrix here is deliberately small (debug builds are slow); CI
//! additionally runs a 3-way shard of the *full* matrix through the
//! release `repro` binary and `cmp`s the merge against the serial run.

use bmhive_bench::merge::{self, MergeError, ShardManifest};
use bmhive_bench::sweep::{render_cell, run_sweep_shard, Shard, SweepSpec};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Two cheap experiments x two seeds x (clean + one plan), traced —
/// 8 cells, enough to make every shard of a 5-way split non-trivial.
fn reduced_matrix() -> SweepSpec {
    SweepSpec {
        experiments: vec!["table1".into(), "table2".into()],
        seeds: vec![1, 2],
        plans: vec![None, Some("link-flap".into())],
        trace: true,
        jobs: 2,
    }
}

/// A scratch directory unique to this test process and `label`.
fn scratch(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bmhive-shard-merge-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn shard_counts_partition_the_full_matrix_disjointly_and_completely() {
    let spec = SweepSpec::full_matrix();
    let total = spec.cells().expect("full matrix").len();
    for n in [1usize, 2, 3, 5] {
        let mut seen = BTreeSet::new();
        for i in 0..n {
            let shard = Shard::new(i, n).expect("valid shard");
            for (index, _) in spec.shard_cells(shard).expect("shard cells") {
                assert!(
                    seen.insert(index),
                    "cell {index} owned by two shards of a {n}-way split"
                );
            }
        }
        assert_eq!(
            seen.len(),
            total,
            "a {n}-way split must cover all {total} cells"
        );
        assert_eq!(seen.last(), Some(&(total - 1)));
    }
}

#[test]
fn merged_shards_are_byte_identical_to_the_serial_run() {
    let spec = reduced_matrix();
    let mut serial_spec = spec.clone();
    serial_spec.jobs = 1;
    let serial = run_sweep_shard(&serial_spec, Shard::WHOLE).expect("serial sweep");
    let serial_stdout: String = serial.iter().map(|(_, out)| render_cell(out)).collect();

    const N: usize = 3;
    let root = scratch("roundtrip");
    let mut dirs = Vec::new();
    for i in 0..N {
        let shard = Shard::new(i, N).expect("valid shard");
        let outputs = run_sweep_shard(&spec, shard).expect("shard sweep");
        let dir = root.join(format!("shard-{i}"));
        merge::write_shard_dir(&dir, &spec, shard, &outputs).expect("write shard dir");
        dirs.push(dir);
    }

    let plan = merge::plan_merge(&dirs).expect("valid merge");
    assert_eq!(plan.cells.len(), serial.len());
    assert_eq!(
        plan.concat_reports().expect("readable cells"),
        serial_stdout,
        "merged stdout must equal the serial sweep's stdout"
    );

    // The combined directory must hold exactly the serial run's files
    // (reports + traces, no manifest), byte for byte.
    let combined = root.join("combined");
    plan.write_combined(&combined).expect("write combined");
    let mut names: Vec<String> = std::fs::read_dir(&combined)
        .expect("combined dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .collect();
    names.sort();
    let mut expected: Vec<String> = serial
        .iter()
        .flat_map(|(_, out)| {
            let stem = out.cell.file_stem();
            [format!("{stem}.txt"), format!("{stem}.trace.json")]
        })
        .collect();
    expected.sort();
    assert_eq!(names, expected, "combined dir must mirror a serial --out");
    for (_, out) in &serial {
        let stem = out.cell.file_stem();
        let txt = std::fs::read_to_string(combined.join(format!("{stem}.txt"))).expect("txt");
        assert_eq!(txt, render_cell(out), "{stem}.txt differs");
        let trace =
            std::fs::read_to_string(combined.join(format!("{stem}.trace.json"))).expect("trace");
        assert_eq!(Some(trace), out.trace_json, "{stem}.trace.json differs");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn overlapping_shards_are_rejected() {
    let spec = reduced_matrix();
    let root = scratch("overlap");
    let shard = Shard::new(0, 2).expect("valid shard");
    let outputs = run_sweep_shard(&spec, shard).expect("shard sweep");
    let a = root.join("a");
    let b = root.join("b");
    merge::write_shard_dir(&a, &spec, shard, &outputs).expect("write a");
    merge::write_shard_dir(&b, &spec, shard, &outputs).expect("write b");
    match merge::plan_merge(&[a, b]) {
        Err(MergeError::Overlap { index: 0, .. }) => {}
        other => panic!("expected Overlap on cell 0, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn missing_shards_are_rejected() {
    let spec = reduced_matrix();
    let root = scratch("missing");
    let shard = Shard::new(1, 3).expect("valid shard");
    let outputs = run_sweep_shard(&spec, shard).expect("shard sweep");
    let dir = root.join("only");
    merge::write_shard_dir(&dir, &spec, shard, &outputs).expect("write shard");
    match merge::plan_merge(&[dir]) {
        Err(MergeError::Missing { count, first: 0 }) => {
            // A 1-of-3 shard of 8 cells owns indices {1, 4, 7}.
            assert_eq!(count, 5);
        }
        other => panic!("expected Missing starting at cell 0, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shards_of_different_splits_merge_only_as_a_partition() {
    let spec = reduced_matrix();
    let root = scratch("mixed");
    let dir = |shard: Shard| {
        let dir = root.join(format!("{}-of-{}", shard.index(), shard.count()));
        let outputs = run_sweep_shard(&spec, shard).expect("shard sweep");
        merge::write_shard_dir(&dir, &spec, shard, &outputs).expect("write shard");
        dir
    };
    let half = dir(Shard::new(0, 2).expect("valid shard")); // cells {0, 2, 4, 6}
    let third = dir(Shard::new(1, 3).expect("valid shard")); // cells {1, 4, 7}
    let quarter = dir(Shard::new(1, 4).expect("valid shard")); // cells {1, 5}
    let last = dir(Shard::new(3, 4).expect("valid shard")); // cells {3, 7}
    match merge::plan_merge(&[half.clone(), third]) {
        Err(MergeError::Overlap { index: 4, .. }) => {}
        other => panic!("expected Overlap on cell 4, got {other:?}"),
    }
    match merge::plan_merge(&[half.clone(), quarter.clone()]) {
        Err(MergeError::Missing { count: 2, first: 3 }) => {}
        other => panic!("expected Missing cells 3 and 7, got {other:?}"),
    }
    // Shards of different splits that do partition the matrix merge.
    let plan = merge::plan_merge(&[half, quarter, last]).expect("a partition merges");
    assert_eq!(
        plan.cells.iter().map(|c| c.index).collect::<Vec<_>>(),
        (0..8).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shards_of_different_specs_do_not_merge() {
    let spec = reduced_matrix();
    let mut other_spec = spec.clone();
    other_spec.seeds = vec![7, 8];
    let root = scratch("mismatch");
    let shard0 = Shard::new(0, 2).expect("valid shard");
    let shard1 = Shard::new(1, 2).expect("valid shard");
    let a = root.join("a");
    let b = root.join("b");
    merge::write_shard_dir(
        &a,
        &spec,
        shard0,
        &run_sweep_shard(&spec, shard0).expect("sweep"),
    )
    .expect("write a");
    merge::write_shard_dir(
        &b,
        &other_spec,
        shard1,
        &run_sweep_shard(&other_spec, shard1).expect("sweep"),
    )
    .expect("write b");
    match merge::plan_merge(&[a, b]) {
        Err(MergeError::SpecMismatch(msg)) => {
            assert!(msg.contains("seeds"), "unexpected message: {msg}");
        }
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn manifests_survive_a_disk_round_trip() {
    let spec = reduced_matrix();
    let root = scratch("manifest");
    let shard = Shard::new(2, 3).expect("valid shard");
    let outputs = run_sweep_shard(&spec, shard).expect("shard sweep");
    merge::write_shard_dir(&root, &spec, shard, &outputs).expect("write shard");
    let doc = std::fs::read_to_string(root.join(merge::MANIFEST_FILE)).expect("manifest on disk");
    let parsed = ShardManifest::from_json(&doc).expect("parseable manifest");
    assert_eq!(parsed, ShardManifest::for_shard(&spec, shard));
    let _ = std::fs::remove_dir_all(&root);
}
