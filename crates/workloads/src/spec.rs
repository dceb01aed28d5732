//! SPEC CINT2006: the Fig. 7 experiment.
//!
//! Runs the twelve-benchmark suite on the three §4.2 platforms and
//! reports per-benchmark performance normalised to the physical machine,
//! the way Fig. 7's bars read.

use bmhive_cpu::catalog::XEON_E5_2682_V4;
use bmhive_cpu::spec::{geometric_mean, SPEC_CINT2006};
use bmhive_cpu::Platform;
use bmhive_telemetry as telemetry;

/// One benchmark's bar group: performance relative to the physical
/// machine (1.0 = physical).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecRow {
    /// Benchmark name.
    pub name: &'static str,
    /// bm-guest relative performance.
    pub bm: f64,
    /// vm-guest relative performance.
    pub vm: f64,
}

/// The Fig. 7 table: per-benchmark rows plus the geometric means.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecResult {
    /// Per-benchmark rows.
    pub rows: Vec<SpecRow>,
    /// Geometric mean, bm-guest.
    pub bm_geomean: f64,
    /// Geometric mean, vm-guest.
    pub vm_geomean: f64,
}

/// Runs the suite. Each benchmark's VM run uses that benchmark's own
/// exit rate (gcc exits more than hmmer).
pub fn run_spec() -> SpecResult {
    let phys = Platform::Physical {
        proc: XEON_E5_2682_V4,
    };
    let bm = Platform::bm_guest(XEON_E5_2682_V4);
    let vm_guest = Platform::vm_guest(XEON_E5_2682_V4);
    let mut rows = Vec::with_capacity(SPEC_CINT2006.len());
    for bench in SPEC_CINT2006 {
        let vm = vm_guest.with_exit_rate(bench.exit_rate);
        rows.push(SpecRow {
            name: bench.name,
            bm: bench.ratio_vs(&bm, &phys),
            vm: bench.ratio_vs(&vm, &phys),
        });
    }
    telemetry::add_events(rows.len() as u64);
    let bm_geomean = geometric_mean(&rows.iter().map(|r| r.bm).collect::<Vec<_>>());
    let vm_geomean = geometric_mean(&rows.iter().map(|r| r.vm).collect::<Vec<_>>());
    SpecResult {
        rows,
        bm_geomean,
        vm_geomean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overall_shape_matches_fig7() {
        let result = run_spec();
        assert_eq!(result.rows.len(), 12);
        // "The overall performance of BM-Hive was about 4% faster than
        // the physical machine; while the performance of VM was about 4%
        // slower."
        assert!(
            (1.03..=1.05).contains(&result.bm_geomean),
            "bm {}",
            result.bm_geomean
        );
        assert!(
            (0.93..=0.99).contains(&result.vm_geomean),
            "vm {}",
            result.vm_geomean
        );
    }

    #[test]
    fn every_benchmark_orders_bm_above_vm() {
        for row in run_spec().rows {
            assert!(row.bm > row.vm, "{}: bm {} vm {}", row.name, row.bm, row.vm);
        }
    }

    #[test]
    fn memory_hostile_benchmarks_show_the_widest_gap() {
        let result = run_spec();
        let gap = |name: &str| {
            let r = result.rows.iter().find(|r| r.name == name).unwrap();
            r.bm - r.vm
        };
        assert!(gap("mcf") > gap("hmmer"));
        assert!(gap("omnetpp") > gap("sjeng"));
    }
}
