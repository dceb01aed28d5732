//! The SPEC CINT2006 workload model (Fig. 7).
//!
//! Each of the twelve integer benchmarks is characterised by how much of
//! its time is memory-bound — the published miss-rate folklore: `mcf`,
//! `omnetpp`, `xalancbmk` and `astar` are cache-hostile pointer chasers,
//! `perlbench`, `sjeng`, `gobmk`, `h264ref` and `hmmer` live in cache.
//! That split is what makes the vm-guest's overhead *visible* on some
//! bars of Fig. 7 and invisible on others ("the overhead of the vm-guest
//! was attributed to world switches caused by memory virtualization ...
//! because some SPEC benchmarks are memory intensive").

use crate::exec::{CpuWork, Platform};

/// One SPEC CINT2006 benchmark's execution profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecBenchmark {
    /// Benchmark name (SPEC numbering omitted).
    pub name: &'static str,
    /// Compute cycles for the reference input (arbitrary but consistent
    /// scale; only ratios matter).
    pub cycles: f64,
    /// Cache-missing memory references per run.
    pub mem_refs: f64,
    /// VM exits per second this benchmark provokes (timer/IPI-driven;
    /// CPU benchmarks exit rarely).
    pub exit_rate: f64,
}

impl SpecBenchmark {
    /// The work profile of one run.
    pub fn work(&self) -> CpuWork {
        CpuWork {
            cycles: self.cycles,
            mem_refs: self.mem_refs,
            bytes_streamed: 0.0,
        }
    }

    /// Runtime of one run on `platform`, in seconds.
    pub fn runtime_secs(&self, platform: &Platform) -> f64 {
        platform.execute(&self.work()).as_secs_f64()
    }

    /// SPEC-style ratio: reference runtime / measured runtime, where the
    /// reference is the physical evaluation machine. Higher is better.
    pub fn ratio_vs(&self, platform: &Platform, reference: &Platform) -> f64 {
        self.runtime_secs(reference) / self.runtime_secs(platform)
    }
}

const G: f64 = 1e9;

/// The twelve CINT2006 benchmarks with their memory-boundedness.
/// `mem_refs` per 100 G cycles ranges from ~1 % of cycles memory-stalled
/// (hmmer) to ~40 % (mcf).
pub const SPEC_CINT2006: &[SpecBenchmark] = &[
    SpecBenchmark {
        name: "perlbench",
        cycles: 100.0 * G,
        mem_refs: 0.06e9,
        exit_rate: 1200.0,
    },
    SpecBenchmark {
        name: "bzip2",
        cycles: 100.0 * G,
        mem_refs: 0.12e9,
        exit_rate: 800.0,
    },
    SpecBenchmark {
        name: "gcc",
        cycles: 100.0 * G,
        mem_refs: 0.25e9,
        exit_rate: 2500.0,
    },
    SpecBenchmark {
        name: "mcf",
        cycles: 100.0 * G,
        mem_refs: 0.50e9,
        exit_rate: 1500.0,
    },
    SpecBenchmark {
        name: "gobmk",
        cycles: 100.0 * G,
        mem_refs: 0.08e9,
        exit_rate: 900.0,
    },
    SpecBenchmark {
        name: "hmmer",
        cycles: 100.0 * G,
        mem_refs: 0.02e9,
        exit_rate: 600.0,
    },
    SpecBenchmark {
        name: "sjeng",
        cycles: 100.0 * G,
        mem_refs: 0.05e9,
        exit_rate: 700.0,
    },
    SpecBenchmark {
        name: "libquantum",
        cycles: 100.0 * G,
        mem_refs: 0.30e9,
        exit_rate: 1000.0,
    },
    SpecBenchmark {
        name: "h264ref",
        cycles: 100.0 * G,
        mem_refs: 0.04e9,
        exit_rate: 900.0,
    },
    SpecBenchmark {
        name: "omnetpp",
        cycles: 100.0 * G,
        mem_refs: 0.40e9,
        exit_rate: 2000.0,
    },
    SpecBenchmark {
        name: "astar",
        cycles: 100.0 * G,
        mem_refs: 0.30e9,
        exit_rate: 1100.0,
    },
    SpecBenchmark {
        name: "xalancbmk",
        cycles: 100.0 * G,
        mem_refs: 0.35e9,
        exit_rate: 2200.0,
    },
];

/// Geometric mean of per-benchmark ratios — how SPEC aggregates.
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geometric_mean: empty input");
    let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::XEON_E5_2682_V4;
    use crate::exec::Platform;

    fn platforms() -> (Platform, Platform, Platform) {
        (
            Platform::Physical {
                proc: XEON_E5_2682_V4,
            },
            Platform::bm_guest(XEON_E5_2682_V4),
            Platform::vm_guest(XEON_E5_2682_V4),
        )
    }

    #[test]
    fn twelve_benchmarks() {
        assert_eq!(SPEC_CINT2006.len(), 12);
        let names: std::collections::HashSet<_> = SPEC_CINT2006.iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn overall_bm_is_about_4_percent_faster_than_physical() {
        let (phys, bm, _) = platforms();
        let ratios: Vec<f64> = SPEC_CINT2006
            .iter()
            .map(|b| b.ratio_vs(&bm, &phys))
            .collect();
        let gm = geometric_mean(&ratios);
        assert!((1.03..=1.05).contains(&gm), "geomean {gm}");
    }

    #[test]
    fn overall_vm_is_about_4_percent_slower_than_physical() {
        let (phys, _, vm) = platforms();
        let ratios: Vec<f64> = SPEC_CINT2006
            .iter()
            .map(|b| b.ratio_vs(&vm, &phys))
            .collect();
        let gm = geometric_mean(&ratios);
        assert!((0.92..=0.99).contains(&gm), "geomean {gm}");
    }

    #[test]
    fn memory_bound_benchmarks_suffer_more_in_a_vm() {
        let (phys, _, vm) = platforms();
        let find = |name| SPEC_CINT2006.iter().find(|b| b.name == name).unwrap();
        let mcf_loss = 1.0 - find("mcf").ratio_vs(&vm, &phys);
        let hmmer_loss = 1.0 - find("hmmer").ratio_vs(&vm, &phys);
        assert!(
            mcf_loss > hmmer_loss,
            "mcf loss {mcf_loss} should exceed hmmer loss {hmmer_loss}"
        );
    }

    #[test]
    fn per_benchmark_exit_rates_shape_the_tax() {
        // Running with each benchmark's own exit rate instead of the
        // default changes the result measurably for exit-heavy gcc.
        let (phys, _, _) = platforms();
        let gcc = SPEC_CINT2006.iter().find(|b| b.name == "gcc").unwrap();
        let vm = Platform::vm_guest(XEON_E5_2682_V4);
        let vm_low = vm.with_exit_rate(100.0);
        let vm_high = vm.with_exit_rate(gcc.exit_rate);
        assert!(gcc.ratio_vs(&vm_high, &phys) < gcc.ratio_vs(&vm_low, &phys));
    }

    #[test]
    fn geometric_mean_of_identical_ratios() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn geometric_mean_rejects_empty() {
        geometric_mean(&[]);
    }
}
