//! Regenerates every table and figure of the paper's evaluation, runs
//! and merges sweeps of them, and keeps the `repro bench` ledger of
//! each experiment's deterministic work counts (host time is measured
//! by the `hivebench` benchmark, not here).
//!
//! Usage:
//!
//! ```text
//! cargo run -p bmhive-bench --release --bin repro            # everything
//! cargo run -p bmhive-bench --release --bin repro -- fig11   # one experiment
//! cargo run -p bmhive-bench --release --bin repro -- --seed 7 fig9 fig10
//! cargo run -p bmhive-bench --release --bin repro -- --trace /tmp/t.json iobond
//! cargo run -p bmhive-bench --release --bin repro -- --metrics fig11
//! cargo run -p bmhive-bench --release --bin repro -- --faults link-flap faults
//! cargo run -p bmhive-bench --release --bin repro -- sweep --jobs 8
//! cargo run -p bmhive-bench --release --bin repro -- sweep --jobs 8 --shard 0/3 --out shard-0
//! cargo run -p bmhive-bench --release --bin repro -- merge shard-0 shard-1 shard-2
//! cargo run -p bmhive-bench --release --bin repro -- bench --out BENCH_results.json
//! cargo run -p bmhive-bench --release --bin repro -- bench --check BENCH_results.json
//! ```
//!
//! Exit status: 0 on success; 1 on a bad argument, an I/O error, a gate
//! that failed or was skipped, a fault an armed plan left unrecovered,
//! or a `bench --check` count that differs from the baseline.

use bmhive_bench::harness::BenchReport;
use bmhive_bench::merge;
use bmhive_bench::sweep::{self, Shard, SweepSpec};
use bmhive_bench::{Report, EXPERIMENTS};
use bmhive_faults as faults;
use bmhive_telemetry as telemetry;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

/// The counting allocator backs the `fleet_scale` experiment's
/// peak-RSS-proxy gate: per-thread live/peak byte counters over the
/// system allocator. Overhead is two thread-local adds per
/// alloc/dealloc; experiments that don't meter never read it.
#[global_allocator]
static ALLOC: telemetry::alloc::CountingAlloc = telemetry::alloc::CountingAlloc::system();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sweep") => sweep_main(&args[1..]),
        Some("merge") => merge_main(&args[1..]),
        Some("bench") => bench_main(&args[1..]),
        _ => repro_main(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// The next argument parsed as the value of a flag; `missing` is the
/// error when it is absent or does not parse.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, missing: &str) -> Result<T, String> {
    args.next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| missing.to_string())
}

/// The value of `--jobs`: a worker count of at least 1.
fn jobs_value(args: &mut impl Iterator<Item = String>) -> Result<usize, String> {
    match value(args, "--jobs requires a positive integer")? {
        0 => Err("--jobs must be at least 1 (got 0)".to_string()),
        n => Ok(n),
    }
}

/// Writes `contents` to `path`, naming the file in the error.
fn write(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Creates the `--out` directory.
fn create_out_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create --out {}: {e}", dir.display()))
}

/// The exit decision: `Err` naming every failure a run collected.
fn verdict(tag: &str, failures: Vec<String>) -> Result<(), String> {
    if failures.is_empty() {
        return Ok(());
    }
    let lines: Vec<String> = failures
        .iter()
        .map(|f| format!("[{tag}] FAILED: {f}"))
        .collect();
    Err(lines.join("\n"))
}

/// The classic single-pass mode: render the requested experiments once.
fn repro_main(args: &[String]) -> Result<(), String> {
    let mut seed = 1u64;
    let mut jobs = 1usize;
    let mut out_dir: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut metrics = false;
    let mut fault_plan: Option<String> = None;
    let mut requested: Vec<String> = Vec::new();
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = value(&mut args, "--seed requires an integer")?,
            "--jobs" => jobs = jobs_value(&mut args)?,
            "--out" => out_dir = Some(value(&mut args, "--out requires a directory")?),
            "--trace" => trace_path = Some(value(&mut args, "--trace requires a file path")?),
            "--metrics" => metrics = true,
            "--faults" => {
                fault_plan = Some(value(
                    &mut args,
                    "--faults requires a canned plan name or a JSON file path",
                )?)
            }
            "--help" | "-h" => {
                print_help();
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}' (see --help)"))
            }
            other => requested.push(other.to_string()),
        }
    }

    for r in &requested {
        bmhive_bench::experiment(r)?;
    }

    // Validate output destinations up front, before hours of experiments.
    if let Some(dir) = &out_dir {
        create_out_dir(dir)?;
    }
    if let Some(path) = &trace_path {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| {
                format!("cannot create --trace directory {}: {e}", parent.display())
            })?;
        }
    }

    // Arm the fault plan (if any) before the first experiment, so the
    // whole run is injected and recovered deterministically in `seed`.
    if let Some(arg) = &fault_plan {
        faults::arm(sweep::resolve_plan(arg).map_err(|e| e.to_string())?, seed);
    }

    // Host-sharded experiments fan their per-host work across this
    // many workers; output is byte-identical for any width.
    bmhive_bench::par::set_jobs(jobs);

    let telemetry_on = trace_path.is_some() || metrics;
    if telemetry_on {
        telemetry::set_enabled(true);
        telemetry::reset();
    }

    let mut failures = Vec::new();
    let mut printed = 0;
    for exp in &EXPERIMENTS {
        let id = exp.id;
        if !requested.is_empty() && !requested.iter().any(|r| r == id) {
            continue;
        }
        let report = exp.render(seed);
        println!("======== {id} ========");
        println!("{}", report.text);
        if let Some(dir) = &out_dir {
            write(&dir.join(format!("{id}.txt")), &report.text)?;
            write(
                &dir.join(format!("{id}.json")),
                experiment_json(id, seed, &report),
            )?;
        }
        failures.extend(report.failures(id));
        printed += 1;
    }

    if let Some(plan) = &fault_plan {
        let stats = faults::disarm().expect("armed above");
        println!("======== fault stats ========");
        print!("{}", stats.to_text());
        if let Some(dir) = &out_dir {
            let path = dir.join("fault_stats.json");
            write(&path, stats.to_json())?;
            eprintln!("[repro] wrote fault stats to {}", path.display());
        }
        if !stats.all_recovered() {
            failures.push(format!("fault plan '{plan}': unrecovered faults"));
        }
    }

    if telemetry_on {
        let snap = telemetry::snapshot();
        if let Some(path) = &trace_path {
            let doc = telemetry::export::chrome_trace(&snap.events);
            std::fs::write(path, doc)
                .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
            eprintln!(
                "[repro] wrote {} span(s) to {} ({} dropped by the ring buffer)",
                snap.events.len(),
                path.display(),
                snap.dropped
            );
        }
        if metrics {
            println!("======== latency attribution ========");
            print!(
                "{}",
                telemetry::Attribution::from_events(&snap.events).to_text()
            );
            println!("======== metrics ========");
            print!("{}", snap.registry.to_text());
        }
        telemetry::set_enabled(false);
    }

    if let Some(dir) = &out_dir {
        eprintln!(
            "[repro] wrote {printed} experiment(s) (.txt + .json) under {}",
            dir.display()
        );
    }
    eprintln!("[repro] {printed} experiment(s) rendered with seed {seed}");
    verdict("repro", failures)
}

/// `repro sweep`: the (experiment × seed × plan) cross product, in
/// parallel, byte-identical to the serial order.
fn sweep_main(args: &[String]) -> Result<(), String> {
    let mut spec = SweepSpec::full_matrix();
    let mut out_dir: Option<PathBuf> = None;
    let mut shard: Option<Shard> = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => spec.jobs = jobs_value(&mut args)?,
            "--shard" => {
                let s: String = value(
                    &mut args,
                    "--shard requires I/N (e.g. 0/3); I counts from 0 and must be < N",
                )?;
                shard = Some(Shard::parse(&s).map_err(|e| e.to_string())?);
            }
            "--seeds" => {
                spec.seeds = args
                    .next()
                    .as_deref()
                    .and_then(parse_seed_list)
                    .ok_or("--seeds requires a comma-separated integer list, e.g. 1,2,3,4")?
            }
            "--plans" => {
                let list: String = value(
                    &mut args,
                    "--plans requires a comma-separated list of plan names/files; \
                     'clean' is the un-injected run, 'all' is clean + every canned plan",
                )?;
                spec.plans = parse_plan_list(&list);
            }
            "--trace" => spec.trace = true,
            "--out" => out_dir = Some(value(&mut args, "--out requires a directory")?),
            "--help" | "-h" => {
                print_sweep_help();
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(format!(
                    "unknown sweep flag '{other}' (see repro sweep --help)"
                ))
            }
            other => experiments.push(other.to_string()),
        }
    }
    if !experiments.is_empty() {
        spec.experiments = experiments;
    }
    if spec.trace && out_dir.is_none() {
        return Err("sweep --trace needs --out DIR to write the per-cell trace files".into());
    }
    if shard.is_some() && out_dir.is_none() {
        return Err("sweep --shard needs --out DIR to hold the shard's cells and manifest".into());
    }
    if let Some(dir) = &out_dir {
        create_out_dir(dir)?;
    }

    let start = Instant::now();
    let outputs =
        sweep::run_sweep_shard(&spec, shard.unwrap_or(Shard::WHOLE)).map_err(|e| e.to_string())?;
    let wall = start.elapsed();

    for (_, out) in &outputs {
        print!("{}", sweep::render_cell(out));
    }
    if let Some(dir) = &out_dir {
        match shard {
            // Sharded runs write the manifest alongside the cells so
            // `repro merge` can validate and reassemble the split.
            Some(shard) => {
                merge::write_shard_dir(dir, &spec, shard, &outputs).map_err(|e| e.to_string())?
            }
            None => {
                for (_, out) in &outputs {
                    let stem = out.cell.file_stem();
                    write(&dir.join(format!("{stem}.txt")), sweep::render_cell(out))?;
                    if let Some(trace) = &out.trace_json {
                        write(&dir.join(format!("{stem}.trace.json")), trace)?;
                    }
                }
            }
        }
    }
    let shard_note = match shard {
        Some(s) => format!(" [shard {s}]"),
        None => String::new(),
    };
    eprintln!(
        "[sweep] {} cell(s){shard_note} ({} experiment(s) x {} seed(s) x {} plan(s)) with --jobs {} in {:.3}s",
        outputs.len(),
        spec.experiments.len(),
        spec.seeds.len(),
        spec.plans.len(),
        spec.jobs,
        wall.as_secs_f64(),
    );
    verdict(
        "sweep",
        outputs.iter().flat_map(|(_, out)| out.failures()).collect(),
    )
}

/// `repro merge`: validate shard directories and reassemble the serial
/// sweep output from them.
fn merge_main(args: &[String]) -> Result<(), String> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut out_dir: Option<PathBuf> = None;
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_dir = Some(value(&mut args, "--out requires a directory")?),
            "--help" | "-h" => {
                print_merge_help();
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(format!(
                    "unknown merge flag '{other}' (see repro merge --help)"
                ))
            }
            other => dirs.push(other.into()),
        }
    }
    if dirs.is_empty() {
        return Err(
            "repro merge needs at least one shard directory (see repro merge --help)".into(),
        );
    }

    let plan = merge::plan_merge(&dirs).map_err(|e| e.to_string())?;
    let combined = plan.concat_reports().map_err(|e| e.to_string())?;
    print!("{combined}");
    if let Some(dir) = &out_dir {
        plan.write_combined(dir).map_err(|e| e.to_string())?;
        eprintln!(
            "[merge] wrote {} cell(s) under {}",
            plan.cells.len(),
            dir.display()
        );
    }
    let splits: Vec<String> = plan.manifests.iter().map(|m| m.shard.to_string()).collect();
    eprintln!(
        "[merge] {} shard(s) [{}] -> {} cell(s), spec {}",
        plan.manifests.len(),
        splits.join(", "),
        plan.cells.len(),
        plan.manifests[0].spec_hash,
    );
    Ok(())
}

/// `repro bench`: count each experiment's work and emit/check the ledger.
fn bench_main(args: &[String]) -> Result<(), String> {
    let mut seed = 1u64;
    let mut out_path: Option<PathBuf> = None;
    let mut check_path: Option<PathBuf> = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = value(&mut args, "--seed requires an integer")?,
            "--out" => out_path = Some(value(&mut args, "--out requires a file path")?),
            "--check" => {
                check_path = Some(value(&mut args, "--check requires a baseline JSON file")?)
            }
            "--help" | "-h" => {
                print_bench_help();
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(format!(
                    "unknown bench flag '{other}' (see repro bench --help)"
                ))
            }
            other => experiments.push(other.to_string()),
        }
    }

    let baseline = match &check_path {
        Some(path) => {
            let doc = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read --check {}: {e}", path.display()))?;
            let mut baseline = BenchReport::from_json(&doc)
                .map_err(|e| format!("cannot parse --check {}: {e}", path.display()))?;
            // A run that names experiments is checked against those only.
            if !experiments.is_empty() {
                baseline
                    .results
                    .retain(|r| experiments.contains(&r.experiment));
            }
            Some(baseline)
        }
        None => None,
    };
    if experiments.is_empty() {
        experiments = EXPERIMENTS.iter().map(|e| e.id.to_string()).collect();
    }

    let report = bmhive_bench::harness::run_bench(&experiments, seed)?;
    for r in &report.results {
        println!("======== {} ========", r.experiment);
        for (key, count) in &r.counts {
            println!("{key:<32} {count:>12}");
        }
    }

    if let Some(path) = &out_path {
        write(path, report.to_json())?;
        eprintln!("[bench] wrote {}", path.display());
    }
    if let (Some(baseline), Some(path)) = (&baseline, &check_path) {
        verdict("bench", report.check_against(baseline))?;
        eprintln!("[bench] every count equals {}", path.display());
    }
    Ok(())
}

fn parse_seed_list(list: &str) -> Option<Vec<u64>> {
    let seeds: Vec<u64> = list
        .split(',')
        .map(|s| s.trim().parse().ok())
        .collect::<Option<_>>()?;
    (!seeds.is_empty()).then_some(seeds)
}

fn parse_plan_list(list: &str) -> Vec<Option<String>> {
    if list == "all" {
        return SweepSpec::full_matrix().plans;
    }
    list.split(',')
        .map(|s| s.trim())
        .filter(|s| !s.is_empty())
        .map(|s| {
            if s == sweep::CLEAN {
                None
            } else {
                Some(s.to_string())
            }
        })
        .collect()
}

/// A machine-readable summary of one rendered experiment: the id, the
/// seed, the report body as a JSON array of lines (jq-friendly), and
/// every gate with its value, bound and verdict (a skipped gate has no
/// value and no bound).
fn experiment_json(id: &str, seed: u64, report: &Report) -> String {
    use telemetry::export::{json_escape, json_f64};
    let lines: Vec<String> = report
        .text
        .lines()
        .map(|line| format!("\"{}\"", json_escape(line)))
        .collect();
    let gates: Vec<String> = report
        .gates
        .iter()
        .map(|g| {
            let mut gate = format!("{{\"name\":\"{}\"", json_escape(g.name));
            if let (Some(value), Some(bound)) = (g.value, g.bound) {
                gate += &format!(
                    ",\"value\":{},\"bound\":{}",
                    json_f64(value),
                    json_f64(bound)
                );
            }
            gate + &format!(",\"verdict\":\"{}\"}}", g.verdict.as_str())
        })
        .collect();
    format!(
        "{{\"experiment\":\"{}\",\"seed\":{seed},\"lines\":[{}],\"gates\":[{}]}}\n",
        json_escape(id),
        lines.join(","),
        gates.join(","),
    )
}

/// The host-sharded experiment ids, comma-separated.
fn sharded_ids() -> String {
    let ids: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.parallel)
        .map(|e| e.id)
        .collect();
    ids.join(", ")
}

fn print_help() {
    println!("repro — regenerate the BM-Hive paper's tables and figures");
    println!();
    println!(
        "USAGE: repro [--seed N] [--jobs N] [--out DIR] [--trace FILE] [--metrics] [--faults PLAN] [experiment ...]"
    );
    println!("       repro sweep [...]   parallel (experiment x seed x plan) sweep (see repro sweep --help)");
    println!("       repro merge [...]   reassemble sharded sweep output (see repro merge --help)");
    println!("       repro bench [...]   exact-count work ledger (see repro bench --help)");
    println!();
    println!("  --seed N       seed for every stochastic experiment (default 1)");
    println!("  --jobs N       worker threads for the host-sharded experiments");
    println!(
        "                 ({}); output is byte-identical",
        sharded_ids()
    );
    println!("                 for any N (default 1)");
    println!("  --out DIR      write each experiment as DIR/<id>.txt + DIR/<id>.json");
    println!("                 (the JSON carries every gate's value, bound and verdict)");
    println!("  --trace FILE   record a virtual-time telemetry trace of the run and");
    println!("                 write it as Chrome trace_event JSON (chrome://tracing)");
    println!("  --metrics      print the latency attribution and metrics registry");
    println!("  --faults PLAN  arm a fault plan for the whole run: a canned name");
    println!("                 (link-flap, dma-timeout, backend-brownout, board-loss)");
    println!("                 or a JSON plan file; prints the fault stats at the end");
    println!("                 (and writes DIR/fault_stats.json with --out).");
    println!("                 Pairs naturally with the 'faults' experiment.");
    println!();
    for (i, row) in EXPERIMENTS.chunks(8).enumerate() {
        let ids: Vec<&str> = row.iter().map(|e| e.id).collect();
        let head = if i == 0 { "experiments:" } else { "" };
        println!("{head:<13}{}", ids.join(" "));
    }
    println!();
    println!("Exits non-zero on a bad argument, a gate that fails or is skipped, or a");
    println!("fault the armed plan left unrecovered.");
}

fn print_sweep_help() {
    println!("repro sweep — run the (experiment x seed x fault-plan) cross product in parallel");
    println!();
    println!("USAGE: repro sweep [--jobs N] [--seeds LIST] [--plans LIST] [--shard I/N] [--trace] [--out DIR] [experiment ...]");
    println!();
    println!("  --jobs N       worker threads, at least 1 (output is byte-identical for any N)");
    println!("  --seeds LIST   comma-separated seeds (default 1,2,3,4)");
    println!("  --plans LIST   comma-separated plan names/files; 'clean' = no faults,");
    println!("                 'all' = clean + every canned plan (the default)");
    println!("  --shard I/N    run only the cells whose canonical index is congruent to I");
    println!("                 mod N (0 <= I < N); requires --out, where a shard.json");
    println!("                 manifest is written for `repro merge`. Run every shard of");
    println!("                 the same spec (anywhere), then merge the directories.");
    println!("  --trace        record a chrome trace per cell (requires --out)");
    println!("  --out DIR      write DIR/<exp>-s<seed>-<plan>.txt (+ .trace.json with --trace)");
    println!();
    println!("Cells print in deterministic (experiment, seed, plan) order regardless of --jobs.");
    println!("Exits non-zero when any cell has a failing or skipped gate or an unrecovered fault.");
}

fn print_merge_help() {
    println!("repro merge — reassemble a sharded sweep, byte-identical to the serial run");
    println!();
    println!("USAGE: repro merge [--out DIR] SHARD_DIR...");
    println!();
    println!("  --out DIR      also copy every cell's files into DIR (the combined");
    println!("                 directory a whole-matrix `sweep --out` would have written)");
    println!();
    println!("Validates the shard.json manifests first: every shard must come from the");
    println!("same spec (hash + field check), no cell may appear twice, and the shards");
    println!("together must cover the whole matrix. The concatenated cell reports are");
    println!("printed to stdout in canonical order — byte-identical to `repro sweep");
    println!("--jobs 1` stdout for the same spec.");
}

fn print_bench_help() {
    println!("repro bench — count each experiment's deterministic work (a ledger, not a timer)");
    println!();
    println!("USAGE: repro bench [--seed N] [--out FILE] [--check FILE] [experiment ...]");
    println!();
    println!("  --seed N        seed for every experiment (default 1)");
    println!("  --out FILE      write the ledger as JSON (e.g. BENCH_results.json)");
    println!("  --check FILE    require every count to equal the baseline ledger exactly;");
    println!("                  with experiment ids, only those ids are checked");
    println!();
    println!("Counts per experiment: heap.allocs (warmed untraced run), sim.events,");
    println!("telemetry.spans and every registry counter of one traced run. Host time");
    println!("is measured by the hivebench benchmark, not here.");
}
