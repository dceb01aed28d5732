//! Parallel deterministic sweep engine.
//!
//! A *sweep* runs the full cross product of (experiment × seed ×
//! fault plan) cells. Each cell is self-contained: it arms its fault
//! plan and enables telemetry on the worker thread that picks it up,
//! runs the experiment, and collects the report, fault stats, and
//! (optionally) a chrome-trace document. Because fault injection and
//! telemetry are thread-local (see [`crate::par::isolated`]), a cell
//! produces byte-identical output whether the sweep runs on one thread
//! or sixteen.
//!
//! Parallelism is a work-sharing pool: workers pull the next cell
//! index from a shared atomic counter and write the finished output
//! into that cell's slot, so results always come back in the
//! deterministic cell order no matter which worker ran what.

use bmhive_faults as faults;
use bmhive_telemetry as telemetry;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

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
    /// Spans the telemetry ring buffer evicted, so missing from
    /// `trace_json`; 0 when untraced.
    pub dropped_spans: u64,
}

/// Why a sweep could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// An experiment id not in [`crate::EXPERIMENTS`].
    UnknownExperiment(String),
    /// A plan that is neither canned nor a parseable JSON file.
    UnknownPlan(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::UnknownExperiment(id) => f.write_str(&crate::unknown_experiment(id)),
            SweepError::UnknownPlan(msg) => write!(f, "{msg}"),
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

/// Runs one cell on the calling thread, isolated by
/// [`crate::par::isolated`]: workers own their thread-local slots,
/// which is exactly what makes parallel cells independent.
fn run_cell(cell: &SweepCell, plan: Option<&faults::FaultPlan>, trace: bool) -> CellOutput {
    debug_assert_eq!(cell.plan.is_some(), plan.is_some());
    let exp = crate::experiment(&cell.experiment)
        .expect("cell experiment ids are validated by SweepSpec::cells");
    let armed = plan.map(|p| (p.clone(), cell.seed));
    let (report, fault_stats, snapshot) =
        crate::par::isolated(armed, trace, || exp.render(cell.seed));
    CellOutput::new(cell.clone(), report, fault_stats, snapshot)
}

/// Runs every cell of the sweep and returns the outputs in canonical
/// cell order, regardless of `spec.jobs`.
pub fn run_sweep(spec: &SweepSpec) -> Result<Vec<CellOutput>, SweepError> {
    let cells = spec.cells()?;
    // Resolve each distinct plan once (a JSON-file plan would
    // otherwise be re-read and re-parsed per cell).
    let mut plans: BTreeMap<String, faults::FaultPlan> = BTreeMap::new();
    for cell in &cells {
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
        |i| run_cell(&cells[i], plan_for(&cells[i]), spec.trace),
        |out| outs.push(out),
    );
    Ok(outs)
}

/// Writes each cell's artifacts into the existing directory `dir`:
/// `<stem>.txt` holding the exact [`render_cell`] bytes, and
/// `<stem>.trace.json` when the cell was traced.
pub fn write_cells(dir: &Path, outputs: &[CellOutput]) -> Result<(), String> {
    let write = |path: PathBuf, contents: &str| {
        std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    for out in outputs {
        let stem = out.cell.file_stem();
        write(dir.join(format!("{stem}.txt")), &render_cell(out))?;
        if let Some(trace) = &out.trace_json {
            write(dir.join(format!("{stem}.trace.json")), trace)?;
        }
    }
    Ok(())
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
    fn new(
        cell: SweepCell,
        report: crate::Report,
        fault_stats: Option<faults::FaultStats>,
        snapshot: Option<telemetry::Snapshot>,
    ) -> Self {
        CellOutput {
            cell,
            report,
            fault_stats,
            trace_json: snapshot
                .as_ref()
                .map(|snap| telemetry::export::chrome_trace(&snap.events)),
            dropped_spans: snapshot.map_or(0, |snap| snap.dropped),
        }
    }

    /// The warning for a cell whose trace overflowed the ring buffer,
    /// naming the cell and how many spans it lost; `None` when its
    /// trace is whole.
    pub fn dropped_spans_note(&self) -> Option<String> {
        (self.dropped_spans > 0).then(|| {
            format!(
                "{}: {} span(s) dropped by the ring buffer: its trace keeps \
                 only the last {} recorded",
                self.cell.label(),
                self.dropped_spans,
                telemetry::DEFAULT_CAPACITY
            )
        })
    }

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
            assert_eq!(s.dropped_spans, p.dropped_spans);
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
            assert_eq!(out.dropped_spans, 0);
            assert_eq!(out.dropped_spans_note(), None);
        }
    }

    #[test]
    fn a_traced_cell_carries_and_names_its_dropped_spans() {
        // A snapshot whose ring overflowed by three spans, built by hand
        // so no span-heavy experiment has to run.
        let cell = tiny_spec(1, true).cells().unwrap().swap_remove(1);
        let snapshot = telemetry::Snapshot {
            events: Vec::new(),
            registry: telemetry::Registry::new(),
            dropped: 3,
            sim_events: 0,
        };
        let out = CellOutput::new(cell, crate::Report::default(), None, Some(snapshot));
        assert_eq!(
            out.trace_json.as_deref(),
            Some(telemetry::export::chrome_trace(&[]).as_str())
        );
        assert_eq!(out.dropped_spans, 3);
        assert_eq!(
            out.dropped_spans_note().as_deref(),
            Some(
                "table1/seed1/link-flap: 3 span(s) dropped by the ring buffer: \
                 its trace keeps only the last 262144 recorded"
            )
        );
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
    fn full_matrix_covers_every_experiment_and_canned_plan() {
        let spec = SweepSpec::full_matrix();
        let cells = spec.cells().unwrap();
        assert_eq!(
            cells.len(),
            crate::EXPERIMENTS.len() * DEFAULT_SEEDS.len() * (1 + faults::CANNED_PLAN_NAMES.len())
        );
    }
}
