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
