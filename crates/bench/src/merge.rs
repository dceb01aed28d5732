//! Shard manifests and the merge step that reassembles a distributed
//! sweep.
//!
//! A sharded sweep (`repro sweep --shard I/N --out DIR`) writes the
//! same per-cell artifacts a whole-matrix `--out` run writes — one
//! `<stem>.txt` report per cell, plus `<stem>.trace.json` when traced
//! — and adds a manifest, [`MANIFEST_FILE`], holding the shard's
//! coordinates and the four spec fields that define the cells
//! (experiments, seeds, plans, trace). `repro merge DIR...` then
//! reassembles the original run from any set of shard directories,
//! validating three things before touching a single cell file:
//!
//! 1. **Spec identity** — every manifest's spec fields must equal the
//!    first's; a refusal names the first field that differs.
//! 2. **Disjointness** — no cell may be covered by two shards.
//! 3. **Completeness** — every cell must be covered by some shard.
//!
//! The cells themselves are not listed anywhere: [`SweepSpec::cells`]
//! derives them (and their file stems) from the spec, and
//! [`Shard::covers`] says which directory owns each one. Because cells
//! are byte-deterministic and the canonical cell order is a pure
//! function of the spec (experiment-major, then seed, then plan),
//! concatenating the per-cell reports in canonical order reproduces the
//! serial `repro sweep --jobs 1` stdout byte for byte, and copying the
//! cell files into a combined directory reproduces its `--out`
//! directory. CI's shard matrix proves merge == serial with `cmp` on
//! every PR.

use crate::sweep::{CellOutput, Shard, SweepSpec, CLEAN};
use bmhive_telemetry::export::json_escape;
use bmhive_telemetry::json::{self, Json};
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The manifest file a sharded sweep writes into its `--out`
/// directory.
pub const MANIFEST_FILE: &str = "shard.json";

/// The manifest format version this build reads and writes.
pub const MANIFEST_FORMAT: u64 = 2;

/// The self-describing record of one shard's run: where it sits in the
/// split, and the spec fields that define the sweep's cells (`jobs` is
/// left out, since the worker count never changes the bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Which stripe of the split this directory holds.
    pub shard: Shard,
    /// Experiment ids, in spec order.
    pub experiments: Vec<String>,
    /// Seeds, in spec order.
    pub seeds: Vec<u64>,
    /// Plan column (`None` = clean), in spec order.
    pub plans: Vec<Option<String>>,
    /// Whether per-cell chrome traces were recorded.
    pub trace: bool,
}

/// Why a merge (or a manifest read) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// A directory could not be read or a cell file is missing.
    Io(String),
    /// A manifest that does not parse or has the wrong format version.
    Manifest(String),
    /// Two manifests describe different sweeps.
    SpecMismatch(String),
    /// A cell covered by more than one shard directory.
    Overlap {
        /// The doubly-owned canonical cell index.
        index: usize,
        /// The two directories claiming it.
        dirs: (String, String),
    },
    /// Shards that do not cover the whole matrix.
    Missing {
        /// Number of uncovered cells.
        count: usize,
        /// The first uncovered canonical index.
        first: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Io(msg) => write!(f, "merge: {msg}"),
            MergeError::Manifest(msg) => write!(f, "merge: bad manifest: {msg}"),
            MergeError::SpecMismatch(msg) => write!(f, "merge: shard specs differ: {msg}"),
            MergeError::Overlap { index, dirs } => write!(
                f,
                "merge: shards overlap: cell {index} is in both {} and {}",
                dirs.0, dirs.1
            ),
            MergeError::Missing { count, first } => write!(
                f,
                "merge: incomplete coverage: {count} cell(s) missing (first: {first}); \
                 pass every shard directory of the split"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

impl ShardManifest {
    /// The manifest for `shard` of `spec`.
    pub fn for_shard(spec: &SweepSpec, shard: Shard) -> Self {
        ShardManifest {
            shard,
            experiments: spec.experiments.clone(),
            seeds: spec.seeds.clone(),
            plans: spec.plans.clone(),
            trace: spec.trace,
        }
    }

    /// The first spec field on which `self` and `other` differ, if any.
    fn differing_field(&self, other: &ShardManifest) -> Option<&'static str> {
        if self.experiments != other.experiments {
            Some("experiments")
        } else if self.seeds != other.seeds {
            Some("seeds")
        } else if self.plans != other.plans {
            Some("plans")
        } else if self.trace != other.trace {
            Some("trace")
        } else {
            None
        }
    }

    /// The sweep this manifest's shard was cut from.
    fn spec(&self) -> SweepSpec {
        SweepSpec {
            experiments: self.experiments.clone(),
            seeds: self.seeds.clone(),
            plans: self.plans.clone(),
            trace: self.trace,
            jobs: 1,
        }
    }

    /// Serializes the manifest as stable, diff-friendly JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        writeln!(out, "{{").unwrap();
        writeln!(out, "  \"format\": {MANIFEST_FORMAT},").unwrap();
        writeln!(
            out,
            "  \"shard\": {{\"index\": {}, \"count\": {}}},",
            self.shard.index(),
            self.shard.count()
        )
        .unwrap();
        let str_list = |items: &[String]| {
            items
                .iter()
                .map(|s| format!("\"{}\"", json_escape(s)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        writeln!(out, "  \"experiments\": [{}],", str_list(&self.experiments)).unwrap();
        writeln!(
            out,
            "  \"seeds\": [{}],",
            self.seeds
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
        .unwrap();
        let plans: Vec<String> = self
            .plans
            .iter()
            .map(|p| p.clone().unwrap_or_else(|| CLEAN.to_string()))
            .collect();
        writeln!(out, "  \"plans\": [{}],", str_list(&plans)).unwrap();
        writeln!(out, "  \"trace\": {}", self.trace).unwrap();
        writeln!(out, "}}").unwrap();
        out
    }

    /// Parses a manifest previously written by [`Self::to_json`].
    pub fn from_json(doc: &str) -> Result<Self, MergeError> {
        let json = json::parse(doc).map_err(|e| MergeError::Manifest(e.to_string()))?;
        let num = |j: &Json, key: &str| -> Result<u64, MergeError> {
            j.get(key)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| MergeError::Manifest(format!("missing number '{key}'")))
        };
        let format = num(&json, "format")?;
        if format != MANIFEST_FORMAT {
            return Err(MergeError::Manifest(format!(
                "unsupported manifest format {format} (this build reads {MANIFEST_FORMAT})"
            )));
        }
        let shard_obj = json
            .get("shard")
            .ok_or_else(|| MergeError::Manifest("missing 'shard'".into()))?;
        let shard = Shard::new(
            num(shard_obj, "index")? as usize,
            num(shard_obj, "count")? as usize,
        )
        .map_err(|e| MergeError::Manifest(e.to_string()))?;
        let str_list = |key: &str| -> Result<Vec<String>, MergeError> {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| MergeError::Manifest(format!("missing array '{key}'")))?
                .iter()
                .map(|j| {
                    j.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| MergeError::Manifest(format!("non-string in '{key}'")))
                })
                .collect()
        };
        let seeds = json
            .get("seeds")
            .and_then(Json::as_arr)
            .ok_or_else(|| MergeError::Manifest("missing array 'seeds'".into()))?
            .iter()
            .map(|j| {
                j.as_f64()
                    .map(|n| n as u64)
                    .ok_or_else(|| MergeError::Manifest("non-number in 'seeds'".into()))
            })
            .collect::<Result<Vec<u64>, _>>()?;
        let trace = match json.get("trace") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(MergeError::Manifest("missing bool 'trace'".into())),
        };
        Ok(ShardManifest {
            shard,
            experiments: str_list("experiments")?,
            seeds,
            plans: str_list("plans")?
                .into_iter()
                .map(|p| if p == CLEAN { None } else { Some(p) })
                .collect(),
            trace,
        })
    }
}

/// Writes one shard's artifacts into `dir`: per-cell `<stem>.txt`
/// reports (the exact [`crate::sweep::render_cell`] bytes), per-cell
/// `<stem>.trace.json` when traced, and the [`MANIFEST_FILE`].
/// `outputs` must be what [`crate::sweep::run_sweep_shard`] returned
/// for the same `(spec, shard)`.
pub fn write_shard_dir(
    dir: &Path,
    spec: &SweepSpec,
    shard: Shard,
    outputs: &[(usize, CellOutput)],
) -> Result<(), MergeError> {
    let io_err = |path: &Path, e: std::io::Error| {
        MergeError::Io(format!("cannot write {}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    for (_, out) in outputs {
        let stem = out.cell.file_stem();
        let txt = dir.join(format!("{stem}.txt"));
        std::fs::write(&txt, crate::sweep::render_cell(out)).map_err(|e| io_err(&txt, e))?;
        if let Some(trace) = &out.trace_json {
            let path = dir.join(format!("{stem}.trace.json"));
            std::fs::write(&path, trace).map_err(|e| io_err(&path, e))?;
        }
    }
    let path = dir.join(MANIFEST_FILE);
    std::fs::write(&path, ShardManifest::for_shard(spec, shard).to_json())
        .map_err(|e| io_err(&path, e))?;
    Ok(())
}

/// One cell of a validated merge plan: where its artifacts live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedCell {
    /// Canonical index.
    pub index: usize,
    /// Artifact stem.
    pub stem: String,
    /// The shard directory owning the cell.
    pub dir: PathBuf,
}

/// A validated merge: every cell accounted for exactly once, in
/// canonical order.
#[derive(Debug, Clone)]
pub struct MergePlan {
    /// Parsed manifests, one per input directory (input order).
    pub manifests: Vec<ShardManifest>,
    /// Every cell of the whole matrix, in canonical index order.
    pub cells: Vec<MergedCell>,
    /// Whether the shards recorded per-cell traces.
    pub trace: bool,
}

/// Reads and cross-validates the manifests under `dirs`, returning the
/// canonical-order merge plan. Enforces spec identity, disjointness,
/// and completeness; does not yet read any cell file.
pub fn plan_merge(dirs: &[PathBuf]) -> Result<MergePlan, MergeError> {
    if dirs.is_empty() {
        return Err(MergeError::Io("no shard directories given".into()));
    }
    let mut manifests = Vec::with_capacity(dirs.len());
    for dir in dirs {
        let path = dir.join(MANIFEST_FILE);
        let doc = std::fs::read_to_string(&path)
            .map_err(|e| MergeError::Io(format!("cannot read {}: {e}", path.display())))?;
        // Name the file inside the error, keeping its one prefix.
        let manifest = ShardManifest::from_json(&doc).map_err(|e| match e {
            MergeError::Manifest(msg) => MergeError::Manifest(format!("{}: {msg}", path.display())),
            other => other,
        })?;
        manifests.push(manifest);
    }

    let first = &manifests[0];
    for (dir, m) in dirs.iter().zip(&manifests).skip(1) {
        if let Some(field) = m.differing_field(first) {
            return Err(MergeError::SpecMismatch(format!(
                "{} and {} disagree on {field}",
                dirs[0].display(),
                dir.display()
            )));
        }
    }

    let spec_cells = first
        .spec()
        .cells()
        .map_err(|e| MergeError::Manifest(format!("{}: {e}", dirs[0].display())))?;
    let mut cells = Vec::with_capacity(spec_cells.len());
    let mut missing: Vec<usize> = Vec::new();
    for (index, cell) in spec_cells.iter().enumerate() {
        let mut owners = dirs
            .iter()
            .zip(&manifests)
            .filter(|(_, m)| m.shard.covers(index))
            .map(|(dir, _)| dir);
        match (owners.next(), owners.next()) {
            (Some(a), Some(b)) => {
                return Err(MergeError::Overlap {
                    index,
                    dirs: (a.display().to_string(), b.display().to_string()),
                })
            }
            (Some(dir), None) => cells.push(MergedCell {
                index,
                stem: cell.file_stem(),
                dir: dir.clone(),
            }),
            (None, _) => missing.push(index),
        }
    }
    if let Some(&first_missing) = missing.first() {
        return Err(MergeError::Missing {
            count: missing.len(),
            first: first_missing,
        });
    }
    Ok(MergePlan {
        trace: first.trace,
        manifests,
        cells,
    })
}

impl MergePlan {
    /// Reads one cell's report bytes.
    pub fn read_report(&self, cell: &MergedCell) -> Result<String, MergeError> {
        let path = cell.dir.join(format!("{}.txt", cell.stem));
        std::fs::read_to_string(&path)
            .map_err(|e| MergeError::Io(format!("cannot read {}: {e}", path.display())))
    }

    /// Concatenates every cell report in canonical order — byte-equal
    /// to the serial `repro sweep --jobs 1` stdout for the same spec.
    pub fn concat_reports(&self) -> Result<String, MergeError> {
        let mut out = String::new();
        for cell in &self.cells {
            out.push_str(&self.read_report(cell)?);
        }
        Ok(out)
    }

    /// Copies every cell's artifacts into `out_dir`, reproducing the
    /// serial run's `--out` directory (reports plus traces when the
    /// shards recorded them; no manifest).
    pub fn write_combined(&self, out_dir: &Path) -> Result<(), MergeError> {
        std::fs::create_dir_all(out_dir)
            .map_err(|e| MergeError::Io(format!("cannot create {}: {e}", out_dir.display())))?;
        for cell in &self.cells {
            for suffix in std::iter::once(".txt").chain(self.trace.then_some(".trace.json")) {
                let src = cell.dir.join(format!("{}{suffix}", cell.stem));
                let dst = out_dir.join(format!("{}{suffix}", cell.stem));
                std::fs::copy(&src, &dst).map_err(|e| {
                    MergeError::Io(format!(
                        "cannot copy {} -> {}: {e}",
                        src.display(),
                        dst.display()
                    ))
                })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec {
            experiments: vec!["table1".into(), "iobond".into()],
            seeds: vec![1, 2],
            plans: vec![None, Some("link-flap".into())],
            trace: false,
            jobs: 1,
        }
    }

    #[test]
    fn manifest_json_round_trips() {
        let manifest = ShardManifest::for_shard(&spec(), Shard::new(1, 3).unwrap());
        let parsed = ShardManifest::from_json(&manifest.to_json()).unwrap();
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.spec().cells().unwrap(), spec().cells().unwrap());
    }

    #[test]
    fn unsupported_format_is_rejected() {
        let current = ShardManifest::for_shard(&spec(), Shard::WHOLE).to_json();
        let doc = current.replace("\"format\": 2", "\"format\": 1");
        assert_ne!(doc, current);
        assert!(matches!(
            ShardManifest::from_json(&doc),
            Err(MergeError::Manifest(_))
        ));
    }

    #[test]
    fn refused_manifest_names_its_file_under_one_prefix() {
        let dir = std::env::temp_dir().join(format!("bmhive-merge-format-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let current = ShardManifest::for_shard(&spec(), Shard::WHOLE).to_json();
        let old = current.replace("\"format\": 2", "\"format\": 1");
        std::fs::write(dir.join(MANIFEST_FILE), old).unwrap();
        let err = plan_merge(std::slice::from_ref(&dir)).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        assert_eq!(
            err.to_string(),
            format!(
                "merge: bad manifest: {}: unsupported manifest format 1 (this build reads 2)",
                path.display()
            )
        );
    }
}
