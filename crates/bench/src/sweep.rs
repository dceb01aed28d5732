//! Parallel deterministic sweep engine.
//!
//! A *sweep* runs the full cross product of (experiment × seed ×
//! fault plan) cells. Each cell is self-contained: it arms its fault
//! plan and enables telemetry on the worker thread that picks it up,
//! runs the experiment, and collects the report, fault stats, and
//! (optionally) a chrome-trace document. Because fault injection and
//! telemetry are thread-local ([`bmhive_faults::arm`] /
//! per-thread collectors), a cell produces byte-identical output
//! whether the sweep runs on one thread or sixteen.
//!
//! Parallelism is a work-sharing pool: workers pull the next cell
//! index from a shared atomic counter and write the finished output
//! into that cell's slot, so results always come back in the
//! deterministic cell order no matter which worker ran what.

use bmhive_faults as faults;
use bmhive_telemetry as telemetry;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// The plan column for a cell that injects nothing.
pub const CLEAN: &str = "clean";

/// The default seeds a full-matrix sweep covers.
pub const DEFAULT_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// What to sweep: the cross product of experiments, seeds, and fault
/// plans (with `None` meaning a clean, un-injected run).
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Experiment ids (each must be in [`crate::EXPERIMENTS`]).
    pub experiments: Vec<String>,
    /// Seeds; each experiment runs once per seed per plan.
    pub seeds: Vec<u64>,
    /// Plan column: `None` for clean, else a canned plan name or a
    /// JSON plan file path.
    pub plans: Vec<Option<String>>,
    /// Record a per-cell telemetry trace (chrome trace_event JSON).
    pub trace: bool,
    /// Worker threads; `0` and `1` both mean serial.
    pub jobs: usize,
}

impl SweepSpec {
    /// The full acceptance matrix: every experiment × the default
    /// seeds × {clean + every canned fault plan}.
    pub fn full_matrix() -> Self {
        let mut plans: Vec<Option<String>> = vec![None];
        plans.extend(
            faults::CANNED_PLAN_NAMES
                .iter()
                .map(|n| Some((*n).to_string())),
        );
        SweepSpec {
            experiments: crate::EXPERIMENTS
                .iter()
                .map(|e| e.id.to_string())
                .collect(),
            seeds: DEFAULT_SEEDS.to_vec(),
            plans,
            trace: false,
            jobs: 1,
        }
    }

    /// Expands the spec into the cells a shard owns, each paired with
    /// its canonical (global) index, in deterministic order.
    pub fn shard_cells(&self, shard: Shard) -> Result<Vec<(usize, SweepCell)>, SweepError> {
        // Re-validate even pre-built Shard values so a hand-rolled
        // struct update cannot smuggle in an empty split.
        let shard = Shard::new(shard.index, shard.count)?;
        Ok(self
            .cells()?
            .into_iter()
            .enumerate()
            .filter(|(i, _)| shard.covers(*i))
            .collect())
    }

    /// Expands the spec into its cells, in deterministic order
    /// (experiment-major, then seed, then plan), validating every
    /// experiment id up front.
    pub fn cells(&self) -> Result<Vec<SweepCell>, SweepError> {
        for id in &self.experiments {
            if crate::experiment(id).is_err() {
                return Err(SweepError::UnknownExperiment(id.clone()));
            }
        }
        let mut cells =
            Vec::with_capacity(self.experiments.len() * self.seeds.len() * self.plans.len());
        for id in &self.experiments {
            for &seed in &self.seeds {
                for plan in &self.plans {
                    cells.push(SweepCell {
                        experiment: id.clone(),
                        seed,
                        plan: plan.clone(),
                    });
                }
            }
        }
        Ok(cells)
    }
}

/// A shard selector over the canonical cell order: shard `index` of
/// `count` owns exactly the cells whose canonical index is congruent
/// to `index` modulo `count`.
///
/// Striding (rather than contiguous ranges) keeps every shard's load
/// balanced across the experiment axis — cell cost varies by orders of
/// magnitude between `table1` and `fig1` — and makes coverage checks
/// trivial: any set of shards merges completely iff the union of their
/// cell indices is exactly `0..total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    index: usize,
    count: usize,
}

impl Shard {
    /// The degenerate single-shard split covering every cell.
    pub const WHOLE: Shard = Shard { index: 0, count: 1 };

    /// Shard `index` of `count`. Requires `count > 0` and
    /// `index < count`.
    pub fn new(index: usize, count: usize) -> Result<Shard, SweepError> {
        if count == 0 || index >= count {
            return Err(SweepError::InvalidShard { index, count });
        }
        Ok(Shard { index, count })
    }

    /// Parses the CLI form `I/N`, e.g. `0/3`.
    pub fn parse(s: &str) -> Result<Shard, SweepError> {
        let invalid = || SweepError::InvalidShardSyntax(s.to_string());
        let (index, count) = s.split_once('/').ok_or_else(invalid)?;
        let index: usize = index.trim().parse().map_err(|_| invalid())?;
        let count: usize = count.trim().parse().map_err(|_| invalid())?;
        Shard::new(index, count)
    }

    /// This shard's position.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total shards in the split.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether this shard owns the cell at canonical index `i`.
    pub fn covers(&self, i: usize) -> bool {
        i % self.count == self.index
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One (experiment, seed, plan) point of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCell {
    /// Experiment id.
    pub experiment: String,
    /// RNG seed for the experiment and the fault plan.
    pub seed: u64,
    /// Fault plan name/path, or `None` for a clean run.
    pub plan: Option<String>,
}

impl SweepCell {
    /// The plan column as text (`clean` when un-injected).
    pub fn plan_name(&self) -> &str {
        self.plan.as_deref().unwrap_or(CLEAN)
    }

    /// Human-readable cell label, e.g. `fig11/seed2/link-flap`.
    pub fn label(&self) -> String {
        format!("{}/seed{}/{}", self.experiment, self.seed, self.plan_name())
    }

    /// Filesystem-safe stem for per-cell artifacts, e.g.
    /// `fig11-s2-link-flap`.
    pub fn file_stem(&self) -> String {
        let plan: String = self
            .plan_name()
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("{}-s{}-{}", self.experiment, self.seed, plan)
    }
}

/// Everything a cell produced.
#[derive(Debug, Clone)]
pub struct CellOutput {
    /// The cell that ran.
    pub cell: SweepCell,
    /// The experiment's rendered report and its gates.
    pub report: crate::Report,
    /// The fault engine's tally when the cell armed a plan.
    pub fault_stats: Option<faults::FaultStats>,
    /// Chrome trace_event JSON when the sweep traced.
    pub trace_json: Option<String>,
    /// Host wall time of the experiment body (excluded from the
    /// rendered output so it never breaks byte-equivalence).
    pub wall: Duration,
}

/// Why a sweep could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// An experiment id not in [`crate::EXPERIMENTS`].
    UnknownExperiment(String),
    /// A plan that is neither canned nor a parseable JSON file.
    UnknownPlan(String),
    /// A shard selector with `count == 0` or `index >= count`.
    InvalidShard {
        /// The requested shard index.
        index: usize,
        /// The requested shard count.
        count: usize,
    },
    /// A shard argument that is not of the form `I/N`.
    InvalidShardSyntax(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::UnknownExperiment(id) => f.write_str(&crate::unknown_experiment(id)),
            SweepError::UnknownPlan(msg) => write!(f, "{msg}"),
            SweepError::InvalidShard { index, count } => write!(
                f,
                "invalid shard {index}/{count}: need count > 0 and index < count"
            ),
            SweepError::InvalidShardSyntax(arg) => {
                write!(
                    f,
                    "invalid shard '{arg}': expected I/N with I < N, e.g. 0/3"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Resolves a plan argument: a canned plan name first, else a JSON
/// plan file (the format `FaultPlan::to_json` writes).
pub fn resolve_plan(arg: &str) -> Result<faults::FaultPlan, SweepError> {
    if let Some(plan) = faults::canned(arg) {
        return Ok(plan);
    }
    let doc = std::fs::read_to_string(arg).map_err(|e| {
        SweepError::UnknownPlan(format!(
            "fault plan '{arg}' is neither a canned plan ({}) nor a readable file: {e}",
            faults::CANNED_PLAN_NAMES.join(", ")
        ))
    })?;
    faults::FaultPlan::from_json(&doc)
        .map_err(|e| SweepError::UnknownPlan(format!("cannot parse fault plan {arg}: {e}")))
}

/// Runs one cell on the calling thread.
///
/// The calling thread's fault context and telemetry state are
/// consumed/reset by the run: workers own their thread-local slots,
/// which is exactly what makes parallel cells independent.
pub fn run_cell(cell: &SweepCell, plan: Option<&faults::FaultPlan>, trace: bool) -> CellOutput {
    debug_assert_eq!(cell.plan.is_some(), plan.is_some());
    if trace {
        telemetry::set_enabled(true);
        telemetry::reset();
    }
    if let Some(plan) = plan {
        faults::arm(plan.clone(), cell.seed);
    }
    let exp = crate::experiment(&cell.experiment)
        .expect("cell experiment ids are validated by SweepSpec::cells");
    let start = Instant::now();
    let report = exp.render(cell.seed);
    let wall = start.elapsed();
    let fault_stats = if plan.is_some() {
        faults::disarm()
    } else {
        None
    };
    let trace_json = if trace {
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::reset();
        Some(telemetry::export::chrome_trace(&snap.events))
    } else {
        None
    };
    CellOutput {
        cell: cell.clone(),
        report,
        fault_stats,
        trace_json,
        wall,
    }
}

/// Runs the whole sweep, returning one output per cell in the
/// deterministic cell order regardless of `spec.jobs`.
pub fn run_sweep(spec: &SweepSpec) -> Result<Vec<CellOutput>, SweepError> {
    Ok(run_sweep_shard(spec, Shard::WHOLE)?
        .into_iter()
        .map(|(_, out)| out)
        .collect())
}

/// Runs one shard of the sweep: only the cells the shard owns, each
/// returned with its canonical index, in canonical order regardless of
/// `spec.jobs`. Each cell's bytes are identical to what the same cell
/// produces in a whole-matrix run — cells are self-contained, so the
/// partition axis is invisible to them.
pub fn run_sweep_shard(
    spec: &SweepSpec,
    shard: Shard,
) -> Result<Vec<(usize, CellOutput)>, SweepError> {
    let cells = spec.shard_cells(shard)?;
    // Resolve each distinct plan once (a JSON-file plan would
    // otherwise be re-read and re-parsed per cell).
    let mut plans: BTreeMap<String, faults::FaultPlan> = BTreeMap::new();
    for (_, cell) in &cells {
        if let Some(name) = cell.plan.as_deref() {
            if !plans.contains_key(name) {
                plans.insert(name.to_string(), resolve_plan(name)?);
            }
        }
    }
    let plan_for = |cell: &SweepCell| cell.plan.as_deref().map(|n| &plans[n]);

    let jobs = spec.jobs.clamp(1, cells.len().max(1));
    let mut outs = Vec::with_capacity(cells.len());
    crate::par::work_share(
        cells.len(),
        jobs,
        |i| {
            let (index, cell) = &cells[i];
            (*index, run_cell(cell, plan_for(cell), spec.trace))
        },
        |out| outs.push(out),
    );
    Ok(outs)
}

/// Renders a cell for stdout — the banner, the report, and the fault
/// stats block when the cell injected faults. Byte-stable.
pub fn render_cell(out: &CellOutput) -> String {
    let mut s = format!("======== {} ========\n", out.cell.label());
    s.push_str(&out.report.text);
    if let Some(stats) = &out.fault_stats {
        s.push_str("-------- fault stats --------\n");
        s.push_str(&stats.to_text());
    }
    s
}

impl CellOutput {
    /// Why this cell fails the sweep: `label/gate -> VERDICT` for every
    /// gate that did not pass, and one line when the armed plan left a
    /// fault unrecovered. Empty for a passing cell.
    pub fn failures(&self) -> Vec<String> {
        let label = self.cell.label();
        let mut failures: Vec<String> = self.report.failures(&label).collect();
        if self
            .fault_stats
            .as_ref()
            .is_some_and(|s| !s.all_recovered())
        {
            failures.push(format!("{label}: unrecovered faults"));
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(jobs: usize, trace: bool) -> SweepSpec {
        SweepSpec {
            experiments: vec!["table1".into(), "iobond".into()],
            seeds: vec![1, 2],
            plans: vec![None, Some("link-flap".into())],
            trace,
            jobs,
        }
    }

    #[test]
    fn cells_expand_in_deterministic_order() {
        let cells = tiny_spec(1, false).cells().unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert_eq!(cells[0].label(), "table1/seed1/clean");
        assert_eq!(cells[1].label(), "table1/seed1/link-flap");
        assert_eq!(cells[2].label(), "table1/seed2/clean");
        assert_eq!(cells[7].label(), "iobond/seed2/link-flap");
    }

    #[test]
    fn unknown_experiment_is_rejected_up_front() {
        let mut spec = tiny_spec(1, false);
        spec.experiments.push("fig99".into());
        assert_eq!(
            spec.cells(),
            Err(SweepError::UnknownExperiment("fig99".into()))
        );
    }

    #[test]
    fn unknown_plan_is_rejected_before_any_cell_runs() {
        let mut spec = tiny_spec(1, false);
        spec.plans = vec![Some("no-such-plan-or-file".into())];
        assert!(matches!(run_sweep(&spec), Err(SweepError::UnknownPlan(_))));
    }

    #[test]
    fn parallel_sweep_matches_serial_byte_for_byte() {
        let serial = run_sweep(&tiny_spec(1, true)).unwrap();
        let parallel = run_sweep(&tiny_spec(4, true)).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.cell, p.cell);
            assert_eq!(s.report, p.report, "report differs for {}", s.cell.label());
            assert_eq!(
                s.fault_stats,
                p.fault_stats,
                "fault stats differ for {}",
                s.cell.label()
            );
            assert_eq!(
                s.trace_json,
                p.trace_json,
                "trace differs for {}",
                s.cell.label()
            );
        }
    }

    #[test]
    fn clean_cells_have_no_fault_stats_and_injected_cells_do() {
        let outs = run_sweep(&tiny_spec(2, false)).unwrap();
        for out in &outs {
            assert_eq!(out.cell.plan.is_some(), out.fault_stats.is_some());
            assert!(out.trace_json.is_none());
        }
    }

    #[test]
    fn render_is_banner_report_then_stats() {
        let outs = run_sweep(&tiny_spec(1, false)).unwrap();
        let injected = outs.iter().find(|o| o.cell.plan.is_some()).unwrap();
        let text = render_cell(injected);
        assert!(text.starts_with(&format!("======== {} ========\n", injected.cell.label())));
        assert!(text.contains("-------- fault stats --------\n"));
    }

    #[test]
    fn shard_parse_accepts_valid_and_rejects_invalid() {
        assert_eq!(Shard::parse("0/3").unwrap(), Shard::new(0, 3).unwrap());
        assert_eq!(Shard::parse("2/3").unwrap().to_string(), "2/3");
        for bad in ["3/3", "4/3", "0/0", "1", "a/b", "-1/3", "1/", "/3"] {
            assert!(Shard::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn shards_partition_cells_disjointly_and_completely() {
        let spec = tiny_spec(1, false);
        let all = spec.cells().unwrap();
        for n in [1usize, 2, 3, 5] {
            let mut seen = vec![0u32; all.len()];
            for i in 0..n {
                for (idx, cell) in spec.shard_cells(Shard::new(i, n).unwrap()).unwrap() {
                    assert_eq!(idx % n, i, "cell {idx} in wrong shard {i}/{n}");
                    assert_eq!(cell, all[idx], "cell {idx} out of canonical order");
                    seen[idx] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "split {n}: coverage {seen:?} is not a partition"
            );
        }
    }

    #[test]
    fn sharded_cells_are_byte_identical_to_their_whole_run_twins() {
        let spec = tiny_spec(2, true);
        let whole = run_sweep(&spec).unwrap();
        for i in 0..3 {
            for (idx, out) in run_sweep_shard(&spec, Shard::new(i, 3).unwrap()).unwrap() {
                let twin = &whole[idx];
                assert_eq!(out.cell, twin.cell);
                assert_eq!(out.report, twin.report, "{}", out.cell.label());
                assert_eq!(out.fault_stats, twin.fault_stats);
                assert_eq!(out.trace_json, twin.trace_json);
            }
        }
    }

    #[test]
    fn invalid_shard_is_rejected() {
        let spec = tiny_spec(1, false);
        assert!(matches!(
            spec.shard_cells(Shard { index: 5, count: 3 }),
            Err(SweepError::InvalidShard { index: 5, count: 3 })
        ));
    }

    #[test]
    fn full_matrix_covers_every_experiment_and_canned_plan() {
        let spec = SweepSpec::full_matrix();
        let cells = spec.cells().unwrap();
        assert_eq!(
            cells.len(),
            crate::EXPERIMENTS.len() * DEFAULT_SEEDS.len() * (1 + faults::CANNED_PLAN_NAMES.len())
        );
    }
}
