//! The `repro` binary's exit status and help, driven as a subprocess.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn a_passing_experiment_exits_zero() {
    let out = repro(&["table1"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("======== table1 ========\n"));
}

#[test]
fn an_unknown_experiment_exits_non_zero() {
    let out = repro(&["fig99"]);
    assert!(!out.status.success(), "{out:?}");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("unknown experiment 'fig99'; known: "),
        "{stderr}"
    );
}

#[test]
fn a_recovered_fault_run_exits_zero() {
    let out = repro(&["--seed", "7", "--faults", "link-flap", "faults"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("recovered: yes"));
}

#[test]
fn help_lists_every_experiment() {
    let out = repro(&["--help"]);
    assert!(out.status.success(), "{out:?}");
    let help = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = help
        .lines()
        .skip_while(|l| !l.starts_with("experiments:"))
        .take_while(|l| !l.is_empty())
        .flat_map(|l| l.trim_start_matches("experiments:").split_whitespace())
        .collect();
    let ids: Vec<&str> = bmhive_bench::EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(listed, ids);
}

/// The checked-in ledger every `repro bench --check` test starts from.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json");

#[test]
fn bench_check_of_named_experiments_passes_against_the_baseline() {
    let out = repro(&[
        "bench",
        "--check",
        BASELINE,
        "table1",
        "faults",
        "traffic_isolation",
    ]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn bench_check_fails_on_a_count_off_by_one() {
    let doc = std::fs::read_to_string(BASELINE).expect("baseline readable");
    let line = doc
        .lines()
        .find(|l| l.contains("\"experiment\": \"faults\""))
        .expect("faults in the baseline");
    let key = "\"iobond.chains_synced\": ";
    let at = line.find(key).expect("faults syncs shadow chains") + key.len();
    let digits = line[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap();
    let count: u64 = digits.parse().unwrap();
    let bumped_line = format!("{}{}{}", &line[..at], count + 1, &line[at + digits.len()..]);
    let bumped = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench-bumped.json");
    std::fs::write(&bumped, doc.replace(line, &bumped_line)).unwrap();

    let out = repro(&["bench", "--check", bumped.to_str().unwrap(), "faults"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let expected = format!("faults/iobond.chains_synced {} -> {count}", count + 1);
    assert!(stderr.contains(&expected), "{stderr}");
}

#[test]
fn bench_rejects_the_removed_tolerance_flag() {
    let out = repro(&["bench", "--tolerance", "0.25"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("unknown bench flag '--tolerance'"),
        "{stderr}"
    );
}
