//! STREAM: the Fig. 8 experiment.
//!
//! §4.2: STREAM 5.1.0, 200 M elements per array, 16 threads, run ten
//! times on the three platforms.

use bmhive_cpu::catalog::XEON_E5_2682_V4;
use bmhive_cpu::memsys::{stream_bandwidth, StreamKernel};
use bmhive_cpu::Platform;
use bmhive_telemetry as telemetry;

/// One kernel's bar group: reported bandwidth in GB/s per platform.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRow {
    /// Kernel name (Copy/Scale/Add/Triad).
    pub kernel: &'static str,
    /// Physical machine, GB/s.
    pub physical: f64,
    /// bm-guest, GB/s.
    pub bm: f64,
    /// vm-guest, GB/s.
    pub vm: f64,
}

/// Runs all four kernels with the paper's configuration.
pub fn run_stream() -> Vec<StreamRow> {
    let phys = Platform::Physical {
        proc: XEON_E5_2682_V4,
    };
    let bm = Platform::bm_guest(XEON_E5_2682_V4);
    let vm = Platform::vm_guest(XEON_E5_2682_V4);
    telemetry::add_events(StreamKernel::ALL.len() as u64);
    StreamKernel::ALL
        .iter()
        .map(|&kernel| StreamRow {
            kernel: kernel.name(),
            physical: stream_bandwidth(&phys, kernel),
            bm: stream_bandwidth(&bm, kernel),
            vm: stream_bandwidth(&vm, kernel),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bm_matches_physical_and_vm_trails_at_98_percent() {
        for row in run_stream() {
            assert!(
                (row.bm / row.physical - 1.0).abs() < 1e-9,
                "{}: bm {} phys {}",
                row.kernel,
                row.bm,
                row.physical
            );
            assert!(
                (row.vm / row.bm - 0.98).abs() < 1e-9,
                "{}: vm {} bm {}",
                row.kernel,
                row.vm,
                row.bm
            );
        }
    }

    #[test]
    fn four_kernels_reported() {
        let rows = run_stream();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].kernel, "Copy");
        assert_eq!(rows[3].kernel, "Triad");
    }

    #[test]
    fn bandwidths_are_near_the_channel_limit() {
        for row in run_stream() {
            assert!(
                (40.0..=77.0).contains(&row.bm),
                "{}: {} GB/s",
                row.kernel,
                row.bm
            );
        }
    }
}
