//! Experiment harness: one function per table/figure of the paper.
//!
//! Each function runs the corresponding experiment on the simulated
//! platforms and renders the rows/series the paper reports into a
//! [`Report`], recording every self-check it prints as a typed
//! [`Gate`]. [`EXPERIMENTS`] lists them all, so
//! `cargo run -p bmhive-bench --bin repro` regenerates the entire
//! evaluation. All experiments are deterministic in their seed.

pub mod harness;
pub mod par;
pub mod sweep;

use std::fmt::Write as _;

use bmhive_cloud::blockstore::IoKind;
use bmhive_cloud::catalog::{ServerConstraints, INSTANCE_CATALOG};
use bmhive_cloud::cost;
use bmhive_cloud::fleet::{ExitCensus, ExitRateStream, PreemptionStudy, RegionHostDay};
use bmhive_cloud::limits::InstanceLimits;
use bmhive_cloud::security::{ServiceKind, ServiceProfile};
use bmhive_cpu::memsys::{STREAM_ELEMENTS, STREAM_THREADS};
use bmhive_cpu::nested;
use bmhive_hypervisor::IoPath;
use bmhive_iobond::{steps, IoBondProfile};
use bmhive_telemetry as telemetry;
use bmhive_workloads::sockperf::LatencyTool;
use bmhive_workloads::{
    env::GuestEnv, fio, mariadb, netperf, nginx, redis, sockperf, spec, stream,
};

/// One experiment of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The id `repro` and the sweep take on the command line.
    pub id: &'static str,
    /// Whether the inner work fans out across [`par::run_hosts`], so
    /// `--jobs N` accelerates it with byte-identical output.
    pub parallel: bool,
    /// Runs the experiment at a seed, rendering into the report.
    pub run: fn(u64, &mut Report),
}

impl Experiment {
    const fn serial(id: &'static str, run: fn(u64, &mut Report)) -> Self {
        Experiment {
            id,
            parallel: false,
            run,
        }
    }

    const fn sharded(id: &'static str, run: fn(u64, &mut Report)) -> Self {
        Experiment {
            id,
            parallel: true,
            run,
        }
    }

    /// Runs the experiment at `seed` into a fresh report.
    pub fn render(&self, seed: u64) -> Report {
        let mut report = Report::default();
        (self.run)(seed, &mut report);
        report
    }

    /// Re-renders into `report`, reusing its buffers: a warmed report
    /// (rendered once before) does not allocate for its own growth.
    pub fn render_into(&self, seed: u64, report: &mut Report) {
        report.clear();
        (self.run)(seed, report);
    }
}

/// What one experiment run produced: the rendered text and a typed
/// record of every self-check gate the text reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The rendered tables and lines, byte-stable per seed.
    pub text: String,
    /// The gates in the order the text prints them.
    pub gates: Vec<Gate>,
}

/// One self-check an experiment ran, printed as `-> PASS`, `-> FAIL`
/// or `-> SKIPPED` at the end of its line. The verdict is computed from
/// `value` and `bound` when recorded, so the two cannot disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Short stable name, unique within the experiment.
    pub name: &'static str,
    /// The measured quantity (`None` when skipped).
    pub value: Option<f64>,
    /// The bound the value is held to (`None` when skipped).
    pub bound: Option<f64>,
    /// How the check came out.
    pub verdict: Verdict,
}

/// The outcome of a [`Gate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The check held.
    Pass,
    /// The check was violated.
    Fail,
    /// The check could not run (e.g. allocation metering is off).
    Skipped,
}

impl Verdict {
    /// The word the report prints after `->`.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::Skipped => "SKIPPED",
        }
    }
}

impl Report {
    /// Records gate `name`, passing when `value < bound`, and returns
    /// the word its line prints.
    pub fn below(&mut self, name: &'static str, value: f64, bound: f64) -> &'static str {
        self.measured(name, value, bound, value < bound)
    }

    /// Records gate `name`, passing when `value <= bound`, and returns
    /// the word its line prints.
    pub fn at_most(&mut self, name: &'static str, value: f64, bound: f64) -> &'static str {
        self.measured(name, value, bound, value <= bound)
    }

    /// Records gate `name` as skipped (no value, no bound) and returns
    /// the word its line prints.
    pub fn skip(&mut self, name: &'static str) -> &'static str {
        self.gates.push(Gate {
            name,
            value: None,
            bound: None,
            verdict: Verdict::Skipped,
        });
        Verdict::Skipped.as_str()
    }

    fn measured(&mut self, name: &'static str, value: f64, bound: f64, pass: bool) -> &'static str {
        let verdict = if pass { Verdict::Pass } else { Verdict::Fail };
        self.gates.push(Gate {
            name,
            value: Some(value),
            bound: Some(bound),
            verdict,
        });
        verdict.as_str()
    }

    /// Empties the report, keeping the capacity of both buffers.
    pub fn clear(&mut self) {
        self.text.clear();
        self.gates.clear();
    }

    /// `label/gate -> VERDICT` for every gate that did not pass. A run
    /// with any such line exits non-zero.
    pub fn failures<'a>(&'a self, label: &'a str) -> impl Iterator<Item = String> + 'a {
        self.gates
            .iter()
            .filter(|g| g.verdict != Verdict::Pass)
            .map(move |g| format!("{label}/{} -> {}", g.name, g.verdict.as_str()))
    }
}

impl std::fmt::Write for Report {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.text.push_str(s);
        Ok(())
    }
}

/// Renders Table 1: the qualitative three-service comparison.
fn table1(_seed: u64, out: &mut Report) {
    writeln!(out, "Table 1. Comparison of three cloud services").unwrap();
    writeln!(
        out,
        "{:<28} | {:<52} | {:<38} | {:<44} | Density",
        "Service", "Security", "Isolation", "Performance"
    )
    .unwrap();
    for kind in ServiceKind::ALL {
        let (service, security, isolation, perf, tenants) =
            ServiceProfile::of(kind).table_row_parts();
        writeln!(
            out,
            "{service:<28} | {security:<52} | {isolation:<38} | {perf:<44} | {tenants} tenant(s)/server"
        )
        .unwrap();
    }
    telemetry::add_events(ServiceKind::ALL.len() as u64);
}

/// Renders Table 2: the VM-exit census over a synthetic 300 000-VM
/// fleet.
fn table2(seed: u64, out: &mut Report) {
    let census = ExitCensus::run(300_000, &[10_000.0, 50_000.0, 100_000.0], seed);
    writeln!(
        out,
        "Table 2. Number of VM exits per second per vCPU ({} VMs, 5-minute census)",
        census.total()
    )
    .unwrap();
    writeln!(
        out,
        "{:>12} | {:>14} | {:>10}",
        "# of exits", "percent of VMs", "paper"
    )
    .unwrap();
    let paper = [3.82, 0.37, 0.13];
    for ((threshold, pct), paper_pct) in census.rows().into_iter().zip(paper) {
        writeln!(
            out,
            "{:>11}K | {:>13.2}% | {:>9.2}%",
            threshold as u64 / 1000,
            pct,
            paper_pct
        )
        .unwrap();
    }
}

/// Renders Fig. 1: preemption percentiles for 20 000 shared + 20 000
/// exclusive VMs over 24 hours.
fn fig1(seed: u64, out: &mut Report) {
    let study = PreemptionStudy::run(20_000, seed);
    writeln!(
        out,
        "Fig. 1. VM preemption by the hypervisor/host (percent of CPU time)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>4} | {:>12} {:>12} | {:>14} {:>14}",
        "hour", "shared p99", "shared p99.9", "exclusive p99", "exclusive p99.9"
    )
    .unwrap();
    for h in (0..24).step_by(3) {
        writeln!(
            out,
            "{:>4} | {:>11.2}% {:>11.2}% | {:>13.2}% {:>13.2}%",
            h,
            study.shared_p99[h],
            study.shared_p999[h],
            study.exclusive_p99[h],
            study.exclusive_p999[h]
        )
        .unwrap();
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    writeln!(
        out,
        "24h mean | shared {:.2}% / {:.2}%, exclusive {:.2}% / {:.2}%  (paper: shared ~2-4%/2-10%, exclusive ~0.2%/0.5%)",
        avg(&study.shared_p99),
        avg(&study.shared_p999),
        avg(&study.exclusive_p99),
        avg(&study.exclusive_p999)
    )
    .unwrap();
}

/// Renders Table 3: the instance catalog and per-server board limits.
fn table3(_seed: u64, out: &mut Report) {
    let constraints = ServerConstraints::production();
    writeln!(
        out,
        "Table 3. Bare-metal instances (catalog reconstructed from the text)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<20} | {:<22} | {:>6} | {:>7} | {:>9} | {:>11}",
        "instance", "processor", "HT", "mem GiB", "board W", "max boards"
    )
    .unwrap();
    for inst in INSTANCE_CATALOG {
        writeln!(
            out,
            "{:<20} | {:<22} | {:>6} | {:>7} | {:>9.0} | {:>11}",
            inst.name,
            inst.processor.name,
            inst.threads(),
            inst.memory_gib,
            inst.board_watts(),
            constraints.max_boards(inst)
        )
        .unwrap();
    }
    let limits = InstanceLimits::production();
    let cap = |limit: Option<f64>| limit.expect("production limits cap every resource");
    writeln!(
        out,
        "limits per instance: {}M PPS, {} Gbit/s, {}K IOPS, {} MB/s",
        cap(limits.pps_limit()) / 1e6,
        cap(limits.net_gbps_limit()),
        cap(limits.iops_limit()) / 1e3,
        cap(limits.storage_mbps_limit())
    )
    .unwrap();
    telemetry::add_events(INSTANCE_CATALOG.len() as u64);
}

/// Renders Fig. 7: SPEC CINT2006 relative performance.
fn fig7(_seed: u64, out: &mut Report) {
    let result = spec::run_spec();
    writeln!(
        out,
        "Fig. 7. SPEC CINT2006, normalised to the physical machine (=1.000)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<12} | {:>9} | {:>9}",
        "benchmark", "bm-guest", "vm-guest"
    )
    .unwrap();
    for row in &result.rows {
        writeln!(out, "{:<12} | {:>9.3} | {:>9.3}", row.name, row.bm, row.vm).unwrap();
    }
    writeln!(
        out,
        "{:<12} | {:>9.3} | {:>9.3}   (paper: bm ~ +4%, vm ~ -4%)",
        "geomean", result.bm_geomean, result.vm_geomean
    )
    .unwrap();
}

/// Renders Fig. 8: STREAM bandwidth.
fn fig8(_seed: u64, out: &mut Report) {
    let rows = stream::run_stream();
    writeln!(
        out,
        "Fig. 8. STREAM ({}M elements, {} threads), GB/s",
        STREAM_ELEMENTS / 1_000_000,
        STREAM_THREADS
    )
    .unwrap();
    writeln!(
        out,
        "{:<7} | {:>9} | {:>9} | {:>9}",
        "kernel", "physical", "bm-guest", "vm-guest"
    )
    .unwrap();
    for row in rows {
        writeln!(
            out,
            "{:<7} | {:>9.1} | {:>9.1} | {:>9.1}",
            row.kernel, row.physical, row.bm, row.vm
        )
        .unwrap();
    }
    writeln!(
        out,
        "(paper: bm == physical at the channel limit; vm ~ 98% of bm under load)"
    )
    .unwrap();
}

/// Renders Fig. 9: UDP packet rates.
fn fig9(seed: u64, out: &mut Report) {
    let mut bm = GuestEnv::bm(seed);
    let mut vm = GuestEnv::vm(seed);
    let bm_run = netperf::udp_pps(&mut bm, 20);
    let vm_run = netperf::udp_pps(&mut vm, 20);
    let mut bm_unres = GuestEnv::bm(seed + 1);
    let unrestricted = netperf::udp_pps_unrestricted(&mut bm_unres, 20);
    let mut bm_tp = GuestEnv::bm(seed + 2);
    let mut vm_tp = GuestEnv::vm(seed + 2);
    let bm_gbps = netperf::tcp_throughput(&mut bm_tp);
    let vm_gbps = netperf::tcp_throughput(&mut vm_tp);
    writeln!(
        out,
        "Fig. 9. UDP packet receive rate (small packets, 4M PPS cap)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} | {:>10} | {:>10} | {:>8}",
        "guest", "mean PPS", "max PPS", "jitter"
    )
    .unwrap();
    for run in [&bm_run, &vm_run] {
        writeln!(
            out,
            "{:<10} | {:>10.3e} | {:>10.3e} | {:>7.2}%",
            run.label,
            run.stats.mean(),
            run.stats.max(),
            run.stats.cv() * 100.0
        )
        .unwrap();
    }
    writeln!(
        out,
        "(paper: both >3.2M PPS; vm slightly better with less jitter)"
    )
    .unwrap();
    writeln!(
        out,
        "unrestricted bm-guest (DPDK, no cap): {:.1}M PPS  (paper: 16M PPS)",
        unrestricted.stats.mean() / 1e6
    )
    .unwrap();
    writeln!(
        out,
        "TCP throughput, 64 conns x 1400B: bm {:.2} Gbit/s, vm {:.2} Gbit/s (paper: 9.6 / 9.59)",
        bm_gbps, vm_gbps
    )
    .unwrap();
}

/// Renders Fig. 10: UDP and ping latency.
fn fig10(seed: u64, out: &mut Report) {
    writeln!(out, "Fig. 10. 64B round-trip latency, microseconds").unwrap();
    writeln!(
        out,
        "{:<18} | {:>12} | {:>12} | paper",
        "tool", "bm-guest", "vm-guest"
    )
    .unwrap();
    let notes = [
        "almost the same",
        "vm slightly better (longer bm I/O path)",
        "like the kernel stack",
    ];
    for (tool, note) in LatencyTool::ALL.into_iter().zip(notes) {
        let mut bm = GuestEnv::bm(seed);
        let mut vm = GuestEnv::vm(seed);
        let bm_run = sockperf::round_trip(&mut bm, tool, 10_000);
        let vm_run = sockperf::round_trip(&mut vm, tool, 10_000);
        writeln!(
            out,
            "{:<18} | {:>12.1} | {:>12.1} | {}",
            tool.label(),
            bm_run.rtt_us.mean(),
            vm_run.rtt_us.mean(),
            note
        )
        .unwrap();
    }
}

/// Renders Fig. 11: storage latency.
fn fig11(seed: u64, out: &mut Report) {
    writeln!(
        out,
        "Fig. 11. Storage I/O latency (fio, 8 threads, 4KB, 25K IOPS cap), microseconds"
    )
    .unwrap();
    writeln!(
        out,
        "{:<22} | {:>9} | {:>9} | {:>9} | {:>9}",
        "workload/guest", "mean", "p99", "p99.9", "IOPS"
    )
    .unwrap();
    for kind in [IoKind::Read, IoKind::Write] {
        let kind_name = match kind {
            IoKind::Read => "rand-read",
            IoKind::Write => "rand-write",
        };
        let mut bm = GuestEnv::bm(seed);
        let mut vm = GuestEnv::vm(seed);
        for run in [
            fio::fio_cloud(&mut bm, kind, 50_000),
            fio::fio_cloud(&mut vm, kind, 50_000),
        ] {
            writeln!(
                out,
                "{:<22} | {:>9.1} | {:>9.1} | {:>9.1} | {:>9.0}",
                format!("{kind_name}/{}", run.label),
                run.latency_us.mean(),
                run.latency_us.percentile(99.0),
                run.latency_us.percentile(99.9),
                run.iops
            )
            .unwrap();
        }
    }
    writeln!(
        out,
        "(paper: bm ~25% faster mean, ~3x faster p99.9 for random read)"
    )
    .unwrap();
    let mut bm = GuestEnv::bm(seed + 1);
    let mut vm = GuestEnv::vm(seed + 1);
    let bm_local = fio::fio_local_unrestricted(&mut bm, IoKind::Read, 40_000);
    let vm_local = fio::fio_local_unrestricted(&mut vm, IoKind::Read, 40_000);
    let mut bm2 = GuestEnv::bm(seed + 2);
    let mut vm2 = GuestEnv::vm(seed + 2);
    let bm_bw = fio::fio_local_bandwidth(&mut bm2, 5_000);
    let vm_bw = fio::fio_local_bandwidth(&mut vm2, 5_000);
    writeln!(
        out,
        "unrestricted local SSD: bm {:.0} us mean / {:.0} IOPS / {:.0} MB/s; vm {:.0} us / {:.0} IOPS / {:.0} MB/s",
        bm_local.latency_us.mean(),
        bm_local.iops,
        bm_bw.bandwidth_mbs,
        vm_local.latency_us.mean(),
        vm_local.iops,
        vm_bw.bandwidth_mbs
    )
    .unwrap();
    writeln!(
        out,
        "(paper: bm 60us average; +50% IOPS and +100% bandwidth over vm)"
    )
    .unwrap();
}

/// Renders Fig. 12: NGINX.
fn fig12(seed: u64, out: &mut Report) {
    let mut bm = GuestEnv::bm(seed);
    let mut vm = GuestEnv::vm(seed);
    let bm_run = nginx::run_nginx(&mut bm, &nginx::CLIENT_SWEEP);
    let vm_run = nginx::run_nginx(&mut vm, &nginx::CLIENT_SWEEP);
    writeln!(out, "Fig. 12. NGINX requests/second (ab, KeepAlive off)").unwrap();
    writeln!(
        out,
        "{:>8} | {:>12} | {:>12} | {:>7} | {:>11} | {:>11}",
        "clients", "bm RPS", "vm RPS", "ratio", "bm resp ms", "vm resp ms"
    )
    .unwrap();
    for ((c, bm_rps), (_, vm_rps)) in bm_run.rps.points().iter().zip(vm_run.rps.points()) {
        let bm_ms = bm_run
            .response_ms
            .points()
            .iter()
            .find(|(x, _)| x == c)
            .unwrap()
            .1;
        let vm_ms = vm_run
            .response_ms
            .points()
            .iter()
            .find(|(x, _)| x == c)
            .unwrap()
            .1;
        writeln!(
            out,
            "{:>8.0} | {:>12.0} | {:>12.0} | {:>6.2}x | {:>11.2} | {:>11.2}",
            c,
            bm_rps,
            vm_rps,
            bm_rps / vm_rps,
            bm_ms,
            vm_ms
        )
        .unwrap();
    }
    writeln!(
        out,
        "(paper: bm serves 50-60% more RPS; ~30% shorter response time)"
    )
    .unwrap();
}

/// Renders Fig. 13: MariaDB read-only.
fn fig13(seed: u64, out: &mut Report) {
    let mut bm = GuestEnv::bm(seed);
    let mut vm = GuestEnv::vm(seed);
    let bm_run = mariadb::run_mariadb(&mut bm, mariadb::QueryMix::ReadOnly);
    let vm_run = mariadb::run_mariadb(&mut vm, mariadb::QueryMix::ReadOnly);
    writeln!(
        out,
        "Fig. 13. MariaDB read-only (sysbench, 16 tables x 1M rows, 128 threads)"
    )
    .unwrap();
    writeln!(
        out,
        "bm-guest {:.0} QPS, vm-guest {:.0} QPS -> bm +{:.1}%  (paper: 195K vs 170K, +14.7%)",
        bm_run.qps,
        vm_run.qps,
        (bm_run.qps / vm_run.qps - 1.0) * 100.0
    )
    .unwrap();
}

/// Renders Fig. 14: MariaDB write-only and read/write.
fn fig14(seed: u64, out: &mut Report) {
    writeln!(out, "Fig. 14. MariaDB write-only and read/write mixed").unwrap();
    for (mix, paper) in [
        (mariadb::QueryMix::WriteOnly, "+42%"),
        (mariadb::QueryMix::ReadWrite, "+55%"),
    ] {
        let mut bm = GuestEnv::bm(seed);
        let mut vm = GuestEnv::vm(seed);
        let bm_run = mariadb::run_mariadb(&mut bm, mix);
        let vm_run = mariadb::run_mariadb(&mut vm, mix);
        writeln!(
            out,
            "{:<11} bm {:.0} QPS, vm {:.0} QPS -> bm +{:.1}%  (paper: {paper})",
            mix.label(),
            bm_run.qps,
            vm_run.qps,
            (bm_run.qps / vm_run.qps - 1.0) * 100.0
        )
        .unwrap();
    }
}

/// Renders Fig. 15: Redis versus client count.
fn fig15(seed: u64, out: &mut Report) {
    let mut bm = GuestEnv::bm(seed);
    let mut vm = GuestEnv::vm(seed);
    let bm_s = redis::run_redis_clients(&mut bm, &redis::CLIENT_SWEEP, 64);
    let vm_s = redis::run_redis_clients(&mut vm, &redis::CLIENT_SWEEP, 64);
    writeln!(
        out,
        "Fig. 15. Redis requests/second vs clients (64B values)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>8} | {:>10} | {:>10} | {:>7}",
        "clients", "bm RPS", "vm RPS", "ratio"
    )
    .unwrap();
    for ((c, b), (_, v)) in bm_s.points().iter().zip(vm_s.points()) {
        writeln!(
            out,
            "{:>8.0} | {:>10.0} | {:>10.0} | {:>6.2}x",
            c,
            b,
            v,
            b / v
        )
        .unwrap();
    }
    writeln!(out, "(paper: bm 20-40% better)").unwrap();
}

/// Renders Fig. 16: Redis versus value size, with stability.
fn fig16(seed: u64, out: &mut Report) {
    let mut bm = GuestEnv::bm(seed);
    let mut vm = GuestEnv::vm(seed);
    let bm_runs = redis::run_redis_sizes(&mut bm, &redis::SIZE_SWEEP, 20);
    let vm_runs = redis::run_redis_sizes(&mut vm, &redis::SIZE_SWEEP, 20);
    writeln!(
        out,
        "Fig. 16. Redis requests/second vs value size (4000 clients)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>7} | {:>10} {:>8} | {:>10} {:>8}",
        "size B", "bm RPS", "bm CV", "vm RPS", "vm CV"
    )
    .unwrap();
    for ((size, bm_s), (_, vm_s)) in bm_runs.iter().zip(&vm_runs) {
        let cv = |s: &bmhive_sim::Series| {
            let mut sum = bmhive_sim::Summary::new();
            for y in s.ys() {
                sum.record(y);
            }
            sum.cv() * 100.0
        };
        writeln!(
            out,
            "{:>7} | {:>10.0} {:>7.1}% | {:>10.0} {:>7.1}%",
            size,
            bm_s.mean_y(),
            cv(bm_s),
            vm_s.mean_y(),
            cv(vm_s)
        )
        .unwrap();
    }
    writeln!(out, "(paper: bm higher and stable; vm fluctuates)").unwrap();
}

/// Renders the §3.5 cost-efficiency analysis.
fn cost(_seed: u64, out: &mut Report) {
    writeln!(out, "§3.5 Cost efficiency").unwrap();
    writeln!(
        out,
        "{:<38} | {:>8} | {:>10} | {:>9} | {:>9}",
        "configuration", "total HT", "sellable HT", "W/vCPU", "rel price"
    )
    .unwrap();
    for report in [
        cost::vm_server(),
        cost::bm_hive_eight_boards(),
        cost::bm_hive_single_board(),
    ] {
        writeln!(
            out,
            "{:<38} | {:>8} | {:>11} | {:>9.2} | {:>8.0}%",
            report.label,
            report.total_threads,
            report.sellable_threads,
            report.watts_per_vcpu(),
            report.price_per_vcpu * 100.0
        )
        .unwrap();
    }
    writeln!(
        out,
        "density advantage {:.2}x  (paper: 256HT vs 88HT; 3.17 vs 3.06 W/vCPU; bm price -10%)",
        cost::density_advantage()
    )
    .unwrap();
    telemetry::add_events(3);
}

/// Renders the §2.3 nested-virtualization comparison.
fn nested(_seed: u64, out: &mut Report) {
    writeln!(
        out,
        "§2.3 Nested hypervisor performance (relative to native)"
    )
    .unwrap();
    writeln!(
        out,
        "CPU-bound nested guest:  {:.0}%  (paper: ~80%)",
        nested::cpu_relative() * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "I/O-bound nested guest:  {:.0}%  (paper: ~25%)",
        nested::io_relative() * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "user hypervisor on BM-Hive: {:.0}% (native hardware virtualization)",
        nested::BM_HIVE_RELATIVE * 100.0
    )
    .unwrap();
    telemetry::add_events(3);
}

/// Renders the §3.4.3 IO-Bond microbenchmarks and the Fig. 6 step
/// budget.
fn iobond(_seed: u64, out: &mut Report) {
    let profile = IoBondProfile::fpga();
    writeln!(out, "§3.4.3 IO-Bond microbenchmarks (FPGA profile)").unwrap();
    writeln!(
        out,
        "guest PCI register access: {}  (paper: 0.8us)",
        profile.guest_register_access()
    )
    .unwrap();
    writeln!(
        out,
        "emulated PCI access (guest+mailbox): {}  (paper: 1.6us constant)",
        profile.emulated_pci_access()
    )
    .unwrap();
    writeln!(
        out,
        "internal DMA: {:.0} Gbit/s  (paper: ~50 Gbps)",
        profile.dma().bandwidth_gbps()
    )
    .unwrap();
    writeln!(
        out,
        "links: x4 per device = {:.1} Gbit/s, x8 to base = {:.1} Gbit/s  (paper: 32 / backing x8)",
        profile.guest_link().bandwidth_gbps(),
        profile.base_link().bandwidth_gbps()
    )
    .unwrap();
    writeln!(out, "\nFig. 6: the 14-step Tx/Rx exchange (64B payloads)").unwrap();
    let steps = steps::tx_rx_steps(&profile, 64, 64);
    // One reused scratch String for the padded actor column instead of
    // a format! per step.
    let mut actor = String::new();
    for step in &steps {
        actor.clear();
        write!(actor, "{:?}", step.actor).unwrap();
        writeln!(
            out,
            "  {:>2}. [{actor:<7}] {:<58} {}",
            step.number, step.description, step.cost
        )
        .unwrap();
    }
    // trace_exchange records the exchange (and its 14 step spans) into
    // the global trace when `repro --trace` enabled telemetry; its
    // return value is the same step sum printed above.
    let total = steps::trace_exchange(&profile, 64, 64, bmhive_sim::SimTime::ZERO);
    debug_assert_eq!(total, steps::total_latency(&steps));
    writeln!(out, "  total: {}", total).unwrap();
}

/// Renders the §6 ASIC projection ablation.
fn asic(_seed: u64, out: &mut Report) {
    let fpga = IoBondProfile::fpga();
    let asic = IoBondProfile::asic();
    writeln!(out, "§6 ASIC projection (ablation)").unwrap();
    writeln!(
        out,
        "register access: fpga {} -> asic {}  (paper: 0.8us -> 0.2us, -75%)",
        fpga.guest_register_access(),
        asic.guest_register_access()
    )
    .unwrap();
    let fpga_total = steps::total_latency(&steps::tx_rx_steps(&fpga, 64, 64));
    let asic_total = steps::total_latency(&steps::tx_rx_steps(&asic, 64, 64));
    writeln!(
        out,
        "Fig. 6 exchange: fpga {} -> asic {}",
        fpga_total, asic_total
    )
    .unwrap();
    let fpga_path = IoPath::bm(fpga, 1);
    let asic_path = IoPath::bm(asic, 1);
    writeln!(
        out,
        "one-way 64B path: fpga {} -> asic {}",
        fpga_path.net_oneway(64),
        asic_path.net_oneway(64)
    )
    .unwrap();
    writeln!(
        out,
        "kernel-stack PPS ceiling: fpga {:.2}M -> asic {:.2}M",
        fpga_path.max_pps_kernel() / 1e6,
        asic_path.max_pps_kernel() / 1e6
    )
    .unwrap();
    telemetry::add_events(4);
}

/// Renders the §6 IO-Bond offload plan and the §3.4.2 slow-path
/// comparison (ablations).
fn offload(_seed: u64, out: &mut Report) {
    use bmhive_hypervisor::NetBackendPath;
    use bmhive_iobond::OffloadConfig;
    writeln!(out, "§6 IO-Bond packet-processing offload (ablation)").unwrap();
    writeln!(
        out,
        "{:<22} | {:>14} | {:>14} | {:>22}",
        "configuration", "sw ns/packet", "hw added ns", "base cores @16x1M PPS"
    )
    .unwrap();
    for (label, cfg) in [
        ("deployed (none)", OffloadConfig::deployed()),
        ("full offload", OffloadConfig::full()),
    ] {
        writeln!(
            out,
            "{:<22} | {:>14} | {:>14} | {:>22}",
            label,
            cfg.sw_per_packet().as_nanos(),
            cfg.hw_added_latency().as_nanos(),
            cfg.base_cores_needed(16, 1e6)
        )
        .unwrap();
    }
    writeln!(
        out,
        "(paper: offload packet processing so lower-cost base CPUs can be used)"
    )
    .unwrap();
    writeln!(out, "\n§3.4.2 backend mode (PMD vs interrupt, batch 4)").unwrap();
    for mode in bmhive_hypervisor::BackendMode::ALL {
        writeln!(
            out,
            "{:?}: detect {}, +{} per request, idle core burn {:.0}%",
            mode,
            mode.detection_latency(),
            mode.per_request_cpu(4),
            mode.idle_burn_fraction() * 100.0
        )
        .unwrap();
    }
    writeln!(out, "\n§3.4.2 slow test paths (never deployed)").unwrap();
    for path in [NetBackendPath::DpdkFast, NetBackendPath::LinuxTap] {
        writeln!(
            out,
            "{:?}: {:.2}M PPS/core, +{} latency, reaches cloud services: {}",
            path,
            path.max_pps_per_core() / 1e6,
            path.added_latency(),
            path.reaches_cloud_services()
        )
        .unwrap();
    }
    telemetry::add_events(2 + bmhive_hypervisor::BackendMode::ALL.len() as u64 + 2);
}

/// Renders the §6 SGX comparison.
fn sgx(_seed: u64, out: &mut Report) {
    use bmhive_cpu::catalog::XEON_E5_2682_V4;
    use bmhive_cpu::sgx::{overhead_fraction, support_on, EnclaveWorkload, SgxSupport};
    use bmhive_cpu::Platform;
    let workload = EnclaveWorkload::TRADING_ENGINE;
    let bm = Platform::bm_guest(XEON_E5_2682_V4);
    let vm = Platform::vm_guest(XEON_E5_2682_V4);
    writeln!(
        out,
        "§6 SGX support (trading-engine enclave, 120K transitions/s)"
    )
    .unwrap();
    // Writes each row straight into the buffer — no per-row String.
    fn row(out: &mut Report, label: &str, s: Option<f64>) {
        match s {
            Some(f) => {
                writeln!(out, "{label}{:.1}% of a core in SGX machinery", f * 100.0).unwrap()
            }
            None => writeln!(out, "{label}cannot launch (no special builds)").unwrap(),
        }
    }
    row(
        out,
        "bm-guest (native SGX):          ",
        overhead_fraction(&workload, support_on(&bm)),
    );
    row(
        out,
        "vm-guest (stock KVM/QEMU):      ",
        overhead_fraction(&workload, support_on(&vm)),
    );
    row(
        out,
        "vm-guest (special SGX builds):  ",
        overhead_fraction(
            &workload,
            SgxSupport::Virtualized {
                special_builds_installed: true,
            },
        ),
    );
    writeln!(
        out,
        "(paper: SGX 'does not work well in virtual machines'; BM-Hive runs it natively)"
    )
    .unwrap();
    telemetry::add_events(3);
}

/// Renders the §1/§2.1 motivation workload: high-frequency trading
/// order-to-wire tails.
fn trading(seed: u64, out: &mut Report) {
    use bmhive_workloads::trading::{run_trading, FILL_BUDGET};
    let mut bm = GuestEnv::bm(seed);
    let mut vm = GuestEnv::vm(seed);
    let bm_run = run_trading(&mut bm, 100_000);
    let vm_run = run_trading(&mut vm, 100_000);
    writeln!(
        out,
        "§1/§2.1 motivation: high-frequency trading (100K ticks, {} fill budget)",
        FILL_BUDGET
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} | {:>10} | {:>10} | {:>10} | {:>12}",
        "guest", "p50 us", "p99 us", "p99.9 us", "missed fills"
    )
    .unwrap();
    for run in [&bm_run, &vm_run] {
        writeln!(
            out,
            "{:<10} | {:>10.1} | {:>10.1} | {:>10.1} | {:>12}",
            run.label,
            run.order_latency_us.percentile(50.0),
            run.order_latency_us.percentile(99.0),
            run.order_latency_us.percentile(99.9),
            run.missed_fills
        )
        .unwrap();
    }
    writeln!(
        out,
        "(paper: preemption 'can cause real problems for demanding services, such as high-frequency stock trading')"
    )
    .unwrap();
}

/// Renders the fault-injection & recovery experiment: one bm-guest
/// driven through ~2 ms of virtual time — sends, ingress deliveries,
/// vSwitch forwarding, block reads, MMIO polls — while the armed
/// [`bmhive_faults`] plan (if any) injects faults and the recovery
/// paths absorb them. With no plan armed it renders the clean
/// baseline; the canned plans' windows (200–950 µs) all land inside
/// the driven horizon.
fn faults(seed: u64, out: &mut Report) {
    use bmhive_cloud::blockstore::{BlockStore, StorageClass};
    use bmhive_cloud::limits::InstanceLimits;
    use bmhive_cloud::vswitch::{Forwarded, PortId, VSwitch};
    use bmhive_hypervisor::BmGuestSession;
    use bmhive_net::{MacAddr, PacketKind};
    use bmhive_sim::{Histogram, SimDuration, SimTime};
    use bmhive_virtio::{BlkRequestHeader, BlkRequestType};

    writeln!(
        out,
        "Fault injection: bm-guest I/O under plan '{}'",
        bmhive_faults::armed_plan_name().unwrap_or_else(|| "none (clean baseline)".into())
    )
    .unwrap();

    let mut session = BmGuestSession::new(
        IoBondProfile::fpga(),
        MacAddr::for_guest(1),
        64,
        InstanceLimits::unrestricted(),
    );
    let mut sw = VSwitch::new(2);
    sw.attach(MacAddr::for_guest(1), PortId(1));
    sw.attach(MacAddr::for_guest(2), PortId(2));
    let mut store = BlockStore::new(StorageClass::CloudSsd, seed);

    let think = SimDuration::from_micros(10);
    let mut t = SimTime::ZERO;
    let mut frame = Vec::new();
    let mut lat = Histogram::new();
    let mut board_resets = 0u64;
    let mut replayed = 0u64;
    let mut switch_shed = 0u64;
    for i in 0..150u64 {
        if let Some(outage) = session.poll_faults(t).expect("board recovery") {
            board_resets += 1;
            replayed += outage.replayed_chains;
            t = outage.recovered_at;
        }
        // One MMIO status poll per round rides the guest PCIe link —
        // where link flaps and hop-latency spikes strike.
        t += session.profile().guest_link().register_access_at(t);
        let (egress, timing) = session
            .net_send(
                MacAddr::for_guest(2),
                PacketKind::Udp,
                b"fault-probe",
                t,
                &mut frame,
            )
            .expect("net send");
        if matches!(sw.forward(&egress.packet, egress.at), Forwarded::Dropped) {
            switch_shed += 1;
        }
        lat.record_duration(timing.latency());
        t = timing.completed;
        let timing = session
            .net_receive(b"pong", t, &mut frame)
            .expect("net receive");
        t = timing.completed;
        if i % 5 == 0 {
            // Issued async: the guest never blocks on the ~150 µs
            // store latency, so the poll cadence stays dense enough
            // that every canned fault window gets hit.
            session
                .blk_request(
                    &mut store,
                    BlkRequestHeader::new(BlkRequestType::In, i * 8),
                    &[],
                    4096,
                    t,
                    &mut frame,
                )
                .expect("blk read");
        }
        t += think;
    }
    let (tx, rx, io) = session.counters();
    writeln!(
        out,
        "{:<14} | {:>8} | {:>8} | {:>8}",
        "ops completed", "net tx", "net rx", "blk"
    )
    .unwrap();
    writeln!(out, "{:<14} | {tx:>8} | {rx:>8} | {io:>8}", "").unwrap();
    writeln!(
        out,
        "net send latency: mean {:.2} us, p99 {:.2} us",
        lat.mean(),
        lat.percentile(99.0)
    )
    .unwrap();
    writeln!(
        out,
        "virtual horizon {t}; vswitch shed {switch_shed}; board resets {board_resets}; chains replayed {replayed}"
    )
    .unwrap();
    match bmhive_faults::stats() {
        Some(stats) => {
            writeln!(out, "-- fault engine --").unwrap();
            out.text.push_str(&stats.to_text());
        }
        None => writeln!(out, "fault engine: disarmed (clean run)").unwrap(),
    }
}

/// Renders the open-loop traffic policy comparison: one pool of
/// bm-guests behind the vSwitch, offered Poisson load at three
/// utilizations, under every dispatch policy the traffic front-end
/// implements. The cloning row is validated against the PS-cloning
/// closed form (`bmhive_workloads::openloop`) at low load, where the
/// synchronized-pair model is exact, and a bursty MMPP coda shows why
/// depth-aware placement earns its probes.
fn traffic_policies(seed: u64, out: &mut Report) {
    use bmhive_sim::SimDuration;
    use bmhive_traffic::{ArrivalModel, DispatchMode, Policy, TrafficConfig};
    use bmhive_workloads::openloop::{ps_cloned_mean_response, ServiceTime};

    const GUESTS: usize = 8;
    const REQUESTS: u64 = 4_000;
    let service = ServiceTime::web_tier();
    let net_hop = SimDuration::from_micros(2);
    // Client↔guest constant outside the PS servers: one switch
    // traversal plus the wire each way.
    let net_const = bmhive_cloud::vswitch::VSwitch::PER_PACKET + net_hop + net_hop;
    let rate_at = |rho: f64| rho * GUESTS as f64 / service.mean().as_secs_f64();
    let modes = [
        DispatchMode::Single(Policy::RoundRobin),
        DispatchMode::Single(Policy::LeastLoaded),
        DispatchMode::Single(Policy::PowerOfTwo),
        DispatchMode::Clone,
        DispatchMode::Hedge {
            policy: Policy::PowerOfTwo,
            delay: service.p95(),
        },
    ];

    writeln!(
        out,
        "Open-loop traffic: {GUESTS} bm-guests, Poisson arrivals, exp({}) service, {REQUESTS} requests/cell",
        service.mean()
    )
    .unwrap();
    writeln!(
        out,
        "{:<5} | {:<13} | {:>8} | {:>8} | {:>9} | {:>5} | {:>6}",
        "load", "policy", "p50 us", "p99 us", "p99.9 us", "drops", "hedges"
    )
    .unwrap();
    let mut clone_low_load_mean = 0.0;
    for rho in [0.25, 0.55, 0.85] {
        for mode in modes {
            let cfg = TrafficConfig {
                guests: GUESTS,
                pmd_cores: 2,
                service,
                arrivals: ArrivalModel::Poisson {
                    rate_rps: rate_at(rho),
                },
                requests: REQUESTS,
                net_hop,
                mode,
                outage: None,
            };
            let report = bmhive_traffic::run(&cfg, seed);
            if rho == 0.25 && mode == DispatchMode::Clone {
                clone_low_load_mean = report.latency.mean();
            }
            writeln!(
                out,
                "{rho:<5} | {:<13} | {:>8.1} | {:>8.1} | {:>9.1} | {:>5} | {:>6}",
                report.label,
                report.latency.percentile(50.0),
                report.latency.percentile(99.0),
                report.latency.percentile(99.9),
                report.dropped,
                report.hedge_fired,
            )
            .unwrap();
        }
    }
    // At rho = 0.25 the synchronized pair is exactly a PS server with
    // demand min(X1, X2): E[T] = E[Xmin]/(1 - rho) + network constant.
    let model = (ps_cloned_mean_response(&service, 0.25) + net_const).as_micros_f64();
    let err = (clone_low_load_mean - model).abs() / model;
    let verdict = out.below("clone_closed_form", err, 0.10);
    writeln!(
        out,
        "cloning vs PS closed form @ rho=0.25: measured {clone_low_load_mean:.1} us, model {model:.1} us, err {:.1}% -> {verdict}",
        err * 100.0,
    )
    .unwrap();
    // Bursty arrivals (same mean rate as rho = 0.55): oblivious
    // round-robin eats the burst tail; two depth probes dodge it.
    let burst = |mode| {
        let cfg = TrafficConfig {
            guests: GUESTS,
            pmd_cores: 2,
            service,
            arrivals: ArrivalModel::Mmpp {
                on_rps: rate_at(0.85),
                off_rps: rate_at(0.25),
                mean_dwell: SimDuration::from_millis(2),
            },
            requests: REQUESTS,
            net_hop,
            mode,
            outage: None,
        };
        bmhive_traffic::run(&cfg, seed)
    };
    let rr = burst(DispatchMode::Single(Policy::RoundRobin));
    let po2 = burst(DispatchMode::Single(Policy::PowerOfTwo));
    writeln!(
        out,
        "burst (MMPP 0.85/0.25, 2ms dwell): rr p99.9 {:.1} us, po2 p99.9 {:.1} us",
        rr.latency.percentile(99.9),
        po2.latency.percentile(99.9),
    )
    .unwrap();
}

/// Renders the traffic isolation experiment: a board power-loss (the
/// canned `board-loss` plan's event, scaled ×100 to datacenter
/// milliseconds) freezes one bm-guest mid-run while open-loop traffic
/// keeps arriving. Gates: the neighbours' p99 must not move (the §3
/// isolation claim — one tenant's board dying is invisible to the
/// others), and hedging must cut the victim's fault-window tail.
fn traffic_isolation(seed: u64, out: &mut Report) {
    use bmhive_sim::{SimDuration, SimTime};
    use bmhive_traffic::{ArrivalModel, DispatchMode, Outage, Policy, TrafficConfig};
    use bmhive_workloads::openloop::ServiceTime;

    const GUESTS: usize = 4;
    const REQUESTS: u64 = 6_000;
    const SCALE: u64 = 100;
    let service = ServiceTime::web_tier();
    // The canned plan's board power-loss, stretched from its ~µs test
    // scale to the milliseconds a real board reset takes.
    let plan = bmhive_faults::board_loss();
    let ev = plan.events()[0];
    let outage = Outage {
        guest: 0,
        at: SimTime::from_nanos(ev.at.as_nanos() * SCALE),
        lasts: SimDuration::from_nanos(ev.duration.as_nanos() * SCALE),
    };
    let rho = 0.55;
    let base = |mode, outage| TrafficConfig {
        guests: GUESTS,
        pmd_cores: 2,
        service,
        arrivals: ArrivalModel::Poisson {
            rate_rps: rho * GUESTS as f64 / service.mean().as_secs_f64(),
        },
        requests: REQUESTS,
        net_hop: SimDuration::from_micros(2),
        mode,
        outage,
    };
    let rr = DispatchMode::Single(Policy::RoundRobin);
    let hedge = DispatchMode::Hedge {
        policy: Policy::RoundRobin,
        delay: service.p95(),
    };
    let clean = bmhive_traffic::run(&base(rr, None), seed);
    let faulted = bmhive_traffic::run(&base(rr, Some(outage)), seed);
    let hedged = bmhive_traffic::run(&base(hedge, Some(outage)), seed);

    writeln!(
        out,
        "Traffic isolation: board power-loss on guest 0 (plan '{}' x{SCALE}: at {} for {})",
        plan.name, outage.at, outage.lasts
    )
    .unwrap();
    writeln!(
        out,
        "{GUESTS} bm-guests, rr dispatch, rho {rho}, {REQUESTS} requests/pass"
    )
    .unwrap();
    writeln!(
        out,
        "{:<13} | {:>8} | {:>9} | {:>15}",
        "pass", "p99 us", "p99.9 us", "window p99.9 us"
    )
    .unwrap();
    for (label, report) in [
        ("clean", &clean),
        ("faulted", &faulted),
        ("faulted+hedge", &hedged),
    ] {
        writeln!(
            out,
            "{label:<13} | {:>8.1} | {:>9.1} | {:>15.1}",
            report.latency.percentile(99.0),
            report.latency.percentile(99.9),
            report.window.percentile(99.9),
        )
        .unwrap();
    }
    // Gate 1: neighbours are unperturbed. Open-loop arrivals plus
    // round-robin mean the neighbour event streams are identical with
    // and without the outage, so the ratio should be exactly 1.
    let mut worst = 0.0f64;
    let mut ratios = String::new();
    for g in 1..GUESTS {
        let ratio = faulted.per_guest[g].percentile(99.0) / clean.per_guest[g].percentile(99.0);
        worst = worst.max(ratio);
        if g > 1 {
            ratios.push_str(", ");
        }
        ratios.push_str(&format!("g{g} {ratio:.3}"));
    }
    let verdict = out.at_most("neighbour_p99", worst, 1.25);
    writeln!(
        out,
        "neighbour p99 ratio (faulted/clean): {ratios} (tol 1.25) -> {verdict}"
    )
    .unwrap();
    // Gate 2: hedging rescues the fault window. Victim-bound requests
    // clone to a live neighbour after ~p95 instead of waiting out the
    // outage.
    let unhedged_tail = faulted.window.percentile(99.9);
    let hedged_tail = hedged.window.percentile(99.9);
    let verdict = out.below("hedge_window_tail", hedged_tail, unhedged_tail);
    writeln!(
        out,
        "hedging cuts fault-window p99.9: {unhedged_tail:.1} -> {hedged_tail:.1} us ({} hedges fired) -> {verdict}",
        hedged.hedge_fired,
    )
    .unwrap();
}

/// Renders the fleet-scale study: the §2 exit-rate census run as a
/// *host-sharded stream* at 10 000, 100 000, and 1 000 000 guests
/// (1, 10, and 100 hosts of 10 000 guests each), proving the census
/// costs O(1) memory per worker in guest count while staying exactly
/// equal to a materialized fold of the same draws.
///
/// The per-host censuses fan out across [`par::run_hosts`] — host `h`
/// draws from a stream derived purely from `h`, so the report is
/// byte-identical at every `--jobs` width — and merge in host-index
/// order. Peak-allocation columns are a peak-RSS proxy metered by the
/// [`telemetry::alloc::CountingAlloc`] thread-local counters *inside
/// each worker*; they read `n/a` (and the memory gate reports
/// `SKIPPED`) when the counting allocator is not installed as
/// `#[global_allocator]` — the `repro` binary installs it. The metered
/// closures are deliberately telemetry-free so the printed byte counts
/// are deterministic.
fn fleet_scale(seed: u64, out: &mut Report) {
    const THRESHOLDS: [f64; 3] = [10_000.0, 50_000.0, 100_000.0];
    const GUESTS_PER_HOST: u64 = 10_000;
    const HOST_SCALES: [usize; 3] = [1, 10, 100];
    const BASE: u64 = GUESTS_PER_HOST;
    /// Memory-gate slack: the worst per-worker peak of the 100-host
    /// (1M-guest) census may exceed the single-host one by at most
    /// this much before the O(1)-per-worker claim fails.
    const SLACK_BYTES: u64 = 64 * 1024;

    let metered = telemetry::alloc::installed();
    let fmt_peak = |peak: u64| {
        if metered {
            format!("{peak} B")
        } else {
            "n/a".to_string()
        }
    };

    // The materialized reference: drain host 0's stream into a Vec for
    // exact quickselect percentiles (only feasible at the base scale).
    let host0_stream = par::host_stream(ExitRateStream::CENSUS_STREAM, 0);
    let (rates, materialized_peak) = telemetry::alloc::measure_peak(|| {
        ExitRateStream::production_on(seed, host0_stream)
            .take(BASE as usize)
            .collect::<Vec<f64>>()
    });
    let mut by_hand = ExitCensus::new(&THRESHOLDS);
    for &rate in &rates {
        by_hand.observe(rate);
    }

    // One host's shard of the census, metered on the worker that runs
    // it. Telemetry happens outside the measurement window (a key's
    // first registry write inserts it).
    let census_host = |host: usize| {
        let stream_sel = par::host_stream(ExitRateStream::CENSUS_STREAM, host);
        let (census, peak) = telemetry::alloc::measure_peak(|| {
            ExitCensus::run_on(GUESTS_PER_HOST, &THRESHOLDS, seed, stream_sel)
        });
        telemetry::add_events(GUESTS_PER_HOST);
        telemetry::counter("fleet.guests_censused", GUESTS_PER_HOST);
        telemetry::gauge_max("fleet.census_peak_alloc_bytes", peak as f64);
        (census, peak)
    };

    // Each scale fans its hosts across the worker pool and folds the
    // shards back in host-index order.
    let mut runs: Vec<(u64, usize, ExitCensus, u64)> = Vec::new();
    for &hosts in &HOST_SCALES {
        let shards = par::run_hosts(hosts, seed, census_host);
        let mut census = ExitCensus::new(&THRESHOLDS);
        let mut worst_peak = 0u64;
        for (shard, peak) in &shards {
            census.merge(shard);
            worst_peak = worst_peak.max(*peak);
        }
        runs.push((hosts as u64 * GUESTS_PER_HOST, hosts, census, worst_peak));
    }

    writeln!(
        out,
        "Fleet scale: host-sharded streaming exit-rate census, {}..{} guests ({} guests/host, seed {seed})",
        runs[0].0,
        runs[runs.len() - 1].0,
        GUESTS_PER_HOST
    )
    .unwrap();
    writeln!(
        out,
        "{:>9} | {:>5} | {:>7} | {:>7} | {:>7} | {:>8} | {:>8} | {:>8} | {:>12}",
        "guests", "hosts", ">10K %", ">50K %", ">100K %", "p50", "p99", "p99.9", "worker peak"
    )
    .unwrap();
    for (n, hosts, census, peak) in &runs {
        let rows = census.rows();
        writeln!(
            out,
            "{n:>9} | {hosts:>5} | {:>7.3} | {:>7.3} | {:>7.3} | {:>8.0} | {:>8.0} | {:>8.0} | {:>12}",
            rows[0].1,
            rows[1].1,
            rows[2].1,
            census.rate_percentile(50.0),
            census.rate_percentile(99.0),
            census.rate_percentile(99.9),
            fmt_peak(*peak),
        )
        .unwrap();
    }
    writeln!(
        out,
        "materialized {BASE}-guest reference peak: {}",
        fmt_peak(materialized_peak)
    )
    .unwrap();

    // Gate 1: a host's streaming census is *exactly* a fold of its
    // stream — same draws, same counts, same histogram, bit for bit.
    let base_census = &runs[0].2;
    let mismatched = [
        by_hand.rows() != base_census.rows(),
        by_hand.total() != base_census.total(),
        by_hand.rate_percentile(99.0).to_bits() != base_census.rate_percentile(99.0).to_bits(),
    ]
    .into_iter()
    .filter(|&m| m)
    .count();
    let verdict = out.at_most("fold_exact", mismatched as f64, 0.0);
    writeln!(
        out,
        "host 0 streaming census == materialized fold at {BASE} guests (bit-exact) -> {verdict}"
    )
    .unwrap();

    // Gate 2: histogram percentiles track exact quickselect on the
    // materialized reference within the bucket-midpoint resolution.
    let (mut worst_pct_err, mut scratch) = (0.0f64, Vec::new());
    for p in [50.0, 99.0, 99.9] {
        let exact = bmhive_sim::stats::exact_percentile_into(&rates, p, &mut scratch);
        let streamed = base_census.rate_percentile(p);
        worst_pct_err = worst_pct_err.max((streamed - exact).abs() / exact);
    }
    let verdict = out.below("histogram_percentiles", worst_pct_err, 0.05);
    writeln!(
        out,
        "histogram percentiles vs quickselect at {BASE} guests: worst rel err {:.4} (tol 0.05) -> {verdict}",
        worst_pct_err,
    )
    .unwrap();

    // Gate 3: census fractions are stable across two decades of scale
    // (the 100 hosts draw disjoint streams, so this is a genuine
    // independent-shard stability check, not a shared-prefix identity).
    let base_rows = runs[0].2.rows();
    let big_rows = runs[runs.len() - 1].2.rows();
    let mut worst_drift = 0.0f64;
    for (b, g) in base_rows.iter().zip(&big_rows) {
        worst_drift = worst_drift.max((b.1 - g.1).abs());
    }
    let verdict = out.below("census_drift", worst_drift, 0.75);
    writeln!(
        out,
        "census fractions, 1M vs {BASE} guests: worst drift {:.3} pp (tol 0.75) -> {verdict}",
        worst_drift,
    )
    .unwrap();

    // Gate 4: O(1) memory per worker — censusing one host of a
    // 100-host fleet must not allocate more than censusing the single
    // host of the small fleet, plus slack.
    if metered {
        let base_peak = runs[0].3;
        let big_peak = runs[runs.len() - 1].3;
        let verdict = out.at_most(
            "o1_memory_per_worker",
            big_peak as f64,
            (base_peak + SLACK_BYTES) as f64,
        );
        writeln!(
            out,
            "O(1) memory per worker: 1M-guest worst host peak {big_peak} B <= single-host peak {base_peak} B + {SLACK_BYTES} B -> {verdict}"
        )
        .unwrap();
    } else {
        let verdict = out.skip("o1_memory_per_worker");
        writeln!(
            out,
            "O(1) memory per worker: counting allocator not installed -> {verdict}"
        )
        .unwrap();
    }

    // Gate 5: the preemption study's streaming twin tracks the exact
    // quickselect study over identical draws. The two studies are
    // independent whole-fleet passes, so they ride the same pool as a
    // two-shard fan-out (study order, like host order, is fixed).
    let studies = par::run_hosts(2, seed, |which| {
        if which == 0 {
            PreemptionStudy::run(4_000, seed)
        } else {
            PreemptionStudy::stream(4_000, seed)
        }
    });
    let (exact_study, stream_study) = (&studies[0], &studies[1]);
    let mut worst_study_err = 0.0f64;
    for h in 0..24 {
        for (a, b) in [
            (exact_study.shared_p99[h], stream_study.shared_p99[h]),
            (exact_study.shared_p999[h], stream_study.shared_p999[h]),
            (exact_study.exclusive_p99[h], stream_study.exclusive_p99[h]),
            (
                exact_study.exclusive_p999[h],
                stream_study.exclusive_p999[h],
            ),
        ] {
            worst_study_err = worst_study_err.max((b - a).abs() / a);
        }
    }
    let verdict = out.below("preemption_stream", worst_study_err, 0.10);
    writeln!(
        out,
        "preemption stream vs exact (4000 VMs, 24h): worst rel err {:.4} (tol 0.10) -> {verdict}",
        worst_study_err,
    )
    .unwrap();
}

/// Base RNG stream selector for region guest exit-rate draws (distinct
/// from the fleet census base so the two experiments never share
/// draws).
const REGION_EXIT_STREAM: u64 = 0xbe91;
/// Base RNG stream selector for region per-host operations (preemption
/// pressure probes).
const REGION_OPS_STREAM: u64 = 0x09b5;

/// Renders the region census: hundreds of hosts, each running a full
/// day of live operations — initial guest placement, diurnal
/// replacement churn, an exit-rate census over every admitted guest,
/// and hourly preemption pressure probes — fanned out host-by-host
/// across [`par::run_hosts`] and folded in host-index order. This is
/// the on-ramp to the ROADMAP region-scale scenario: per-host work is
/// a pure function of the host index, so the report is byte-identical
/// at every `--jobs` width.
fn region_census(seed: u64, out: &mut Report) {
    const HOSTS: usize = 200;
    const GUESTS_PER_HOST: u64 = 480;
    const THRESHOLDS: [f64; 3] = [10_000.0, 50_000.0, 100_000.0];

    let days = par::run_hosts(HOSTS, seed, |host| {
        RegionHostDay::run(
            GUESTS_PER_HOST,
            &THRESHOLDS,
            seed,
            par::host_stream(REGION_EXIT_STREAM, host),
            par::host_stream(REGION_OPS_STREAM, host),
        )
    });
    // Host-index-ordered fold into the region-wide view.
    let mut region = days[0].clone();
    for day in &days[1..] {
        region.merge(day);
    }

    writeln!(
        out,
        "Region census: {HOSTS} hosts x {GUESTS_PER_HOST} guests/host, 24 h diurnal churn (seed {seed})"
    )
    .unwrap();
    writeln!(
        out,
        "fleet: admitted {} | departed {} | peak concurrent/host {} | guest-hours {}",
        region.arrivals, region.departures, region.peak_guests, region.guest_hours
    )
    .unwrap();
    writeln!(out, "exit-rate census over every admitted guest:").unwrap();
    writeln!(
        out,
        "{:>12} | {:>14} | {:>10}",
        "# of exits", "percent of VMs", "paper"
    )
    .unwrap();
    let paper = [3.82, 0.37, 0.13];
    for ((threshold, pct), paper_pct) in region.census.rows().into_iter().zip(paper) {
        writeln!(
            out,
            "{:>11}K | {:>13.2}% | {:>9.2}%",
            threshold as u64 / 1000,
            pct,
            paper_pct
        )
        .unwrap();
    }
    writeln!(
        out,
        "exit-rate percentiles: p50 {:.0} | p99 {:.0} | p99.9 {:.0}",
        region.census.rate_percentile(50.0),
        region.census.rate_percentile(99.0),
        region.census.rate_percentile(99.9)
    )
    .unwrap();
    writeln!(
        out,
        "preemption pressure ({} probes/class): shared p99 {:.2}% p99.9 {:.2}% | exclusive p99 {:.3}% p99.9 {:.3}%",
        region.preempt_samples(),
        region.shared_preempt_percentile(99.0),
        region.shared_preempt_percentile(99.9),
        region.exclusive_preempt_percentile(99.0),
        region.exclusive_preempt_percentile(99.9)
    )
    .unwrap();
    // Host-ordered shard trace: the first and last hosts' days, as the
    // merged report's per-shard sections (host order, never completion
    // order).
    writeln!(out, "per-host shards (host order, first 4 and last):").unwrap();
    for h in [0usize, 1, 2, 3, HOSTS - 1] {
        let day = &days[h];
        writeln!(
            out,
            "  host {h:>4}: admitted {:>4} | departed {:>4} | peak {:>3} | >10K {:>5.2}% | shared p99 {:.2}%",
            day.arrivals,
            day.departures,
            day.peak_guests,
            day.census.rows()[0].1,
            day.shared_preempt_percentile(99.0)
        )
        .unwrap();
    }
}

/// Every experiment, in the paper's presentation order. This table is
/// the one list of experiments: `repro`, its `--help`, the sweep, the
/// bench harness and the tests all look experiments up here.
pub const EXPERIMENTS: [Experiment; 26] = [
    Experiment::serial("table1", table1),
    Experiment::serial("table2", table2),
    Experiment::serial("fig1", fig1),
    Experiment::serial("table3", table3),
    Experiment::serial("fig7", fig7),
    Experiment::serial("fig8", fig8),
    Experiment::serial("fig9", fig9),
    Experiment::serial("fig10", fig10),
    Experiment::serial("fig11", fig11),
    Experiment::serial("fig12", fig12),
    Experiment::serial("fig13", fig13),
    Experiment::serial("fig14", fig14),
    Experiment::serial("fig15", fig15),
    Experiment::serial("fig16", fig16),
    Experiment::serial("cost", cost),
    Experiment::serial("nested", nested),
    Experiment::serial("iobond", iobond),
    Experiment::serial("asic", asic),
    Experiment::serial("offload", offload),
    Experiment::serial("sgx", sgx),
    Experiment::serial("trading", trading),
    Experiment::serial("faults", faults),
    Experiment::serial("traffic_policies", traffic_policies),
    Experiment::serial("traffic_isolation", traffic_isolation),
    Experiment::sharded("fleet_scale", fleet_scale),
    Experiment::sharded("region_census", region_census),
];

/// Looks an experiment up by id in [`EXPERIMENTS`]; the error names
/// every known id.
pub fn experiment(id: &str) -> Result<&'static Experiment, String> {
    EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .ok_or_else(|| unknown_experiment(id))
}

/// The error for an id that is not in [`EXPERIMENTS`].
pub fn unknown_experiment(id: &str) -> String {
    let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    format!("unknown experiment '{id}'; known: {}", known.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_gate_line_is_recorded_by_the_report() {
        for exp in &EXPERIMENTS {
            let report = exp.render(1);
            let id = exp.id;
            assert!(report.text.lines().count() >= 2, "{id} rendered too little");
            let gate_lines = report
                .text
                .lines()
                .filter(|l| {
                    [Verdict::Pass, Verdict::Fail, Verdict::Skipped]
                        .iter()
                        .any(|v| l.ends_with(&format!("-> {}", v.as_str())))
                })
                .count();
            assert_eq!(
                gate_lines,
                report.gates.len(),
                "{id}: a gate bypassed the report"
            );
            let expected = match id {
                "traffic_policies" => 1,
                "traffic_isolation" => 2,
                "fleet_scale" => 5,
                _ => 0,
            };
            assert_eq!(report.gates.len(), expected, "{id}: gate count");
            for g in &report.gates {
                let at_most = ["neighbour_p99", "o1_memory_per_worker", "fold_exact"];
                let holds = match (g.value, g.bound) {
                    (Some(v), Some(b)) if at_most.contains(&g.name) => v <= b,
                    (Some(v), Some(b)) => v < b,
                    (None, None) => {
                        assert_eq!(g.verdict, Verdict::Skipped, "{id}/{}", g.name);
                        continue;
                    }
                    _ => panic!("{id}/{}: value and bound go together", g.name),
                };
                let expected = if holds { Verdict::Pass } else { Verdict::Fail };
                assert_eq!(
                    g.verdict, expected,
                    "{id}/{}: verdict vs value/bound",
                    g.name
                );
            }
        }
    }

    #[test]
    fn experiments_are_deterministic_in_seed() {
        let render = |id, seed| experiment(id).unwrap().render(seed);
        assert_eq!(render("table2", 5), render("table2", 5));
        assert_eq!(render("fig11", 5), render("fig11", 5));
        assert_ne!(render("table2", 5), render("table2", 6));
    }

    #[test]
    fn experiment_ids_are_unique_and_cover_the_paper() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let unique: std::collections::HashSet<&&str> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
        for required in [
            "table1", "table2", "table3", "fig1", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16", "cost", "nested", "iobond", "asic",
        ] {
            assert!(ids.contains(&required), "missing {required}");
        }
        let err = experiment("fig99").unwrap_err();
        assert!(
            err.starts_with("unknown experiment 'fig99'; known: table1, "),
            "{err}"
        );
    }

    #[test]
    fn failing_and_skipped_gates_fail_the_run() {
        let mut failed = Report::default();
        assert_eq!(failed.below("holds", 1.0, 2.0), "PASS");
        assert_eq!(failed.below("breaks", 2.0, 2.0), "FAIL");
        assert_eq!(
            failed.failures("exp").collect::<Vec<_>>(),
            ["exp/breaks -> FAIL"]
        );

        let mut skipped = Report::default();
        assert_eq!(skipped.skip("metered"), "SKIPPED");
        assert_eq!(
            skipped.failures("exp").collect::<Vec<_>>(),
            ["exp/metered -> SKIPPED"]
        );

        let mut passed = Report::default();
        passed.at_most("holds", 2.0, 2.0);
        assert_eq!(passed.failures("exp").count(), 0);
        assert_eq!(Report::default().failures("exp").count(), 0);
    }

    /// The four experiments driven only by `bmhive-cpu`'s cost consts,
    /// pinned to their exact text: a recalibration of any CPU cost shows
    /// up here as a diff, not as a value drifting inside a range.
    #[test]
    fn cpu_cost_experiments_render_their_pinned_text() {
        const FIG7: &str = "\
Fig. 7. SPEC CINT2006, normalised to the physical machine (=1.000)
benchmark    |  bm-guest |  vm-guest
perlbench    |     1.040 |     0.983
bzip2        |     1.040 |     0.985
gcc          |     1.040 |     0.965
mcf          |     1.040 |     0.971
gobmk        |     1.040 |     0.986
hmmer        |     1.040 |     0.991
sjeng        |     1.040 |     0.989
libquantum   |     1.040 |     0.979
h264ref      |     1.040 |     0.987
omnetpp      |     1.040 |     0.967
astar        |     1.040 |     0.978
xalancbmk    |     1.040 |     0.966
geomean      |     1.040 |     0.979   (paper: bm ~ +4%, vm ~ -4%)
";
        const FIG8: &str = "\
Fig. 8. STREAM (200M elements, 16 threads), GB/s
kernel  |  physical |  bm-guest |  vm-guest
Copy    |      43.5 |      43.5 |      42.6
Scale   |      43.5 |      43.5 |      42.6
Add     |      49.0 |      49.0 |      48.0
Triad   |      49.0 |      49.0 |      48.0
(paper: bm == physical at the channel limit; vm ~ 98% of bm under load)
";
        const NESTED: &str = "\
§2.3 Nested hypervisor performance (relative to native)
CPU-bound nested guest:  80%  (paper: ~80%)
I/O-bound nested guest:  25%  (paper: ~25%)
user hypervisor on BM-Hive: 100% (native hardware virtualization)
";
        const SGX: &str = "\
§6 SGX support (trading-engine enclave, 120K transitions/s)
bm-guest (native SGX):          45.6% of a core in SGX machinery
vm-guest (stock KVM/QEMU):      cannot launch (no special builds)
vm-guest (special SGX builds):  58.8% of a core in SGX machinery
(paper: SGX 'does not work well in virtual machines'; BM-Hive runs it natively)
";
        for (id, text) in [
            ("fig7", FIG7),
            ("fig8", FIG8),
            ("nested", NESTED),
            ("sgx", SGX),
        ] {
            assert_eq!(experiment(id).unwrap().render(1).text, text, "{id}");
        }
    }

    /// The experiments that read the platform figures (the processor
    /// catalog, the chassis, the instance limits and the vSwitch
    /// per-packet cost) or the Fig. 6 step table, pinned to their exact
    /// text: a figure that drifts from its one definition, or a copy
    /// that stops reading it, shows up here as a diff.
    #[test]
    fn platform_figure_experiments_render_their_pinned_text() {
        const TABLE1: &str = "\
Table 1. Comparison of three cloud services
Service                      | Security                                             | Isolation                              | Performance                                  | Density
VM-based cloud               | side-channel and DoS exposed (shared hardware)       | weak (software, shared resources)      | virtualization overhead on CPU/memory/I/O    | 88 tenant(s)/server
Single-tenant bare-metal     | tenant owns platform firmware (provider at risk)     | strong but moot (tenant owns the box)  | native                                       | 1 tenant(s)/server
BM-Hive                      | hardware-isolated; firmware signed and protected     | strong (hardware)                      | native CPU/memory; para-virtual I/O          | 16 tenant(s)/server
";
        const TABLE3: &str = "\
Table 3. Bare-metal instances (catalog reconstructed from the text)
instance             | processor              |     HT | mem GiB |   board W |  max boards
ebm.e5.32xlarge      | Xeon E5-2682 v4        |     32 |      64 |       160 |           8
ebm.e3.8xlarge       | Xeon E3-1240 v6        |      8 |      32 |        92 |          16
ebm.i7.12xlarge      | Core i7-8086K          |     12 |      32 |       120 |          12
ebm.atom.16xlarge    | Atom C3958             |     16 |      32 |        43 |          16
limits per instance: 4M PPS, 10 Gbit/s, 25K IOPS, 300 MB/s
";
        const COST: &str = "\
§3.5 Cost efficiency
configuration                          | total HT | sellable HT |    W/vCPU | rel price
vm-based server (2x24C/48HT E5)        |       96 |          88 |      3.41 |      100%
BM-Hive (8 boards x 32HT)              |      256 |         256 |      4.18 |       90%
BM-Hive (single 96HT board)            |       96 |          96 |      3.21 |       90%
density advantage 2.91x  (paper: 256HT vs 88HT; 3.17 vs 3.06 W/vCPU; bm price -10%)
";
        const OFFLOAD: &str = "\
§6 IO-Bond packet-processing offload (ablation)
configuration          |   sw ns/packet |    hw added ns |  base cores @16x1M PPS
deployed (none)        |            300 |              0 |                      5
full offload           |             30 |            100 |                      1
(paper: offload packet processing so lower-cost base CPUs can be used)

§3.4.2 backend mode (PMD vs interrupt, batch 4)
PollMode: detect 900ns, +80ns per request, idle core burn 100%
InterruptMode: detect 9.000us, +550ns per request, idle core burn 0%

§3.4.2 slow test paths (never deployed)
DpdkFast: 3.33M PPS/core, +0ns latency, reaches cloud services: true
LinuxTap: 0.15M PPS/core, +25.000us latency, reaches cloud services: false
";
        const ASIC: &str = "\
§6 ASIC projection (ablation)
register access: fpga 800ns -> asic 200ns  (paper: 0.8us -> 0.2us, -75%)
Fig. 6 exchange: fpga 5.245us -> asic 1.645us
one-way 64B path: fpga 2.162us -> asic 812ns
kernel-stack PPS ceiling: fpga 3.46M -> asic 3.58M
";
        const FIG9: &str = "\
Fig. 9. UDP packet receive rate (small packets, 4M PPS cap)
guest      |   mean PPS |    max PPS |   jitter
bm-guest   |    3.488e6 |    3.603e6 |    2.33%
vm-guest   |    3.631e6 |    3.695e6 |    1.07%
(paper: both >3.2M PPS; vm slightly better with less jitter)
unrestricted bm-guest (DPDK, no cap): 15.7M PPS  (paper: 16M PPS)
TCP throughput, 64 conns x 1400B: bm 10.13 Gbit/s, vm 10.13 Gbit/s (paper: 9.6 / 9.59)
";
        const FIG10: &str = "\
Fig. 10. 64B round-trip latency, microseconds
tool               |     bm-guest |     vm-guest | paper
sockperf (kernel)  |         43.0 |         41.3 | almost the same
dpdk bypass        |         12.1 |          9.9 | vm slightly better (longer bm I/O path)
icmp ping          |         37.0 |         35.1 | like the kernel stack
";
        for (id, text) in [
            ("table1", TABLE1),
            ("table3", TABLE3),
            ("cost", COST),
            ("offload", OFFLOAD),
            ("asic", ASIC),
            ("fig9", FIG9),
            ("fig10", FIG10),
        ] {
            assert_eq!(experiment(id).unwrap().render(1).text, text, "{id}");
        }
    }

    /// The one experiment that drives a whole bm-guest session, pinned
    /// to its exact text with no plan armed and under `dma-timeout`,
    /// whose retries sit on the copy-back to the guest: a change to the
    /// session's data path that moves a byte, a completion or a retry
    /// shows up here as a diff.
    #[test]
    fn faults_experiment_renders_its_pinned_text() {
        const CLEAN: &str = "\
Fault injection: bm-guest I/O under plan 'none (clean baseline)'
ops completed  |   net tx |   net rx |      blk
               |      150 |      150 |       30
net send latency: mean 1.86 us, p99 1.85 us
virtual horizon t+2.057ms; vswitch shed 0; board resets 0; chains replayed 0
fault engine: disarmed (clean run)
";
        const DMA_TIMEOUT: &str = "\
Fault injection: bm-guest I/O under plan 'dma-timeout'
ops completed  |   net tx |   net rx |      blk
               |      150 |      150 |       30
net send latency: mean 2.04 us, p99 2.69 us
virtual horizon t+2.168ms; vswitch shed 0; board resets 0; chains replayed 0
-- fault engine --
fault stats (plan \"dma-timeout\"):
  injected:
    dma/dma-timeout: 1
    doorbell/dropped-doorbell: 1
    mailbox/mailbox-stall: 1
    vring/descriptor-corrupt: 4
  retries:
    dma: 4
    mailbox: 3
  recovered:
    dma: 1
    mailbox: 1
  degraded-ns:
    doorbell: 10000
    vring: 1012
  recovery:
    dma: recovered 1, unrecovered 0
    mailbox: recovered 1, unrecovered 0
  recovered: yes
";
        let faults = experiment("faults").unwrap();
        assert_eq!(faults.render(1).text, CLEAN);
        // Armed as `repro --faults dma-timeout faults` arms it.
        bmhive_faults::arm(bmhive_faults::dma_timeout(), 1);
        let text = faults.render(1).text;
        bmhive_faults::disarm();
        assert_eq!(text, DMA_TIMEOUT);
    }
}
