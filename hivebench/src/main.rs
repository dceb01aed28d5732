//! `hivebench`: the host-performance benchmark of the BM-Hive simulator.
//!
//! ```text
//! hivebench --workload <server_io|traffic_mmpp|region_day> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, measures for about
//! `--seconds` seconds of host time, checks the simulator's outputs, and
//! prints one `name value unit` line per metric followed by a final JSON
//! line (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` times
//! the untraced simulator and reports the end-to-end metrics; `--trace 1`
//! makes a separate traced pass, probes each layer's public functions and
//! reports the per-layer ledger. See `README.md` for the metric map.

mod ledger;
mod probes;
mod region_day;
mod server_io;
mod stats;
mod traffic_mmpp;

use ledger::Ledger;
use std::process::ExitCode;

// The counting allocator behind `peak_heap_mib` and `heap.allocs_per_op`.
#[global_allocator]
static ALLOC: bmhive_telemetry::alloc::CountingAlloc =
    bmhive_telemetry::alloc::CountingAlloc::system();

/// The command line, checked.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServerIo,
    TrafficMmpp,
    RegionDay,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "server_io" => Some(Workload::ServerIo),
            "traffic_mmpp" => Some(Workload::TrafficMmpp),
            "region_day" => Some(Workload::RegionDay),
            _ => None,
        }
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("seconds out of range: {s}"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One workload run's result: the checked op counts, the simulated-output
/// digest, and the metrics to report.
pub struct Outcome {
    /// Ops attempted, checks included.
    pub attempted: u64,
    /// Ops that returned an error, plus failed checks.
    pub failed: u64,
    /// FNV-1a digest of the simulated outputs of a fixed prefix of the
    /// run (virtual-time latencies, counts, census rows).
    pub digest: u64,
    /// The reported metrics: end-to-end (`--trace 0`) or per-layer
    /// (`--trace 1`).
    pub metrics: Ledger,
    /// Extra human-readable metrics that are not part of the JSON line.
    pub notes: Ledger,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hivebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.workload, args.trace) {
        (Workload::ServerIo, false) => server_io::timed(&args),
        (Workload::ServerIo, true) => server_io::traced(&args),
        (Workload::TrafficMmpp, false) => traffic_mmpp::timed(&args),
        (Workload::TrafficMmpp, true) => traffic_mmpp::traced(&args),
        (Workload::RegionDay, false) => region_day::timed(&args),
        (Workload::RegionDay, true) => region_day::traced(&args),
    };
    let expected = if args.trace {
        ledger::PER_LAYER
    } else {
        ledger::END_TO_END
    };
    if let Err(missing) = outcome.metrics.check_complete(expected) {
        eprintln!("hivebench: metric {missing} was not measured");
        return ExitCode::from(3);
    }

    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    for (name, value, unit) in outcome.notes.iter().chain(outcome.metrics.iter()) {
        println!("{name} {value} {unit}");
    }
    println!("error_rate {error_rate} fraction");
    println!("digest {:016x}", outcome.digest);
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}
