//! The memory system and the STREAM benchmark model (Fig. 8).
//!
//! §4.2 runs STREAM 5.1.0 with 200 M elements per array (1.5 GB each,
//! 4.5 GB total) and 16 threads, and finds the bm-guest "almost identical
//! to the physical machine, both close to the speed limit of the four
//! memory channels", with the vm-guest at "about 98% of the bm-guest
//! under load".

use crate::exec::Platform;

/// The four STREAM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKernel {
    /// `c[i] = a[i]` — 2 elements (16 B) touched, plus write-allocate.
    Copy,
    /// `b[i] = s * c[i]` — 16 B plus write-allocate.
    Scale,
    /// `c[i] = a[i] + b[i]` — 24 B plus write-allocate.
    Add,
    /// `a[i] = b[i] + s * c[i]` — 24 B plus write-allocate.
    Triad,
}

impl StreamKernel {
    /// All four kernels, in the order STREAM reports them.
    pub const ALL: [StreamKernel; 4] = [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ];

    /// Kernel name as STREAM prints it.
    pub fn name(self) -> &'static str {
        match self {
            StreamKernel::Copy => "Copy",
            StreamKernel::Scale => "Scale",
            StreamKernel::Add => "Add",
            StreamKernel::Triad => "Triad",
        }
    }

    /// Bytes *counted by STREAM* per loop iteration (8-byte elements).
    pub fn counted_bytes_per_iter(self) -> u64 {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 16,
            StreamKernel::Add | StreamKernel::Triad => 24,
        }
    }

    /// Bytes actually moved per iteration, including the write-allocate
    /// traffic STREAM's accounting ignores (the store misses the cache
    /// and first reads the line).
    pub fn actual_bytes_per_iter(self) -> u64 {
        self.counted_bytes_per_iter() + 8
    }
}

/// Elements per STREAM array in the paper's configuration.
pub const STREAM_ELEMENTS: u64 = 200_000_000;

/// STREAM worker threads in the paper's configuration.
pub const STREAM_THREADS: u32 = 16;

/// The *reported* STREAM bandwidth (GB/s) of `kernel` on `platform`
/// with [`STREAM_THREADS`] threads.
///
/// STREAM reports counted bytes / elapsed time; elapsed time is
/// governed by actual bytes moved at the platform's achievable
/// bandwidth, so the reported figure is achievable × counted/actual —
/// which is why Copy/Scale report lower numbers than Add/Triad on the
/// same machine.
pub fn stream_bandwidth(platform: &Platform, kernel: StreamKernel) -> f64 {
    let achievable = platform.stream_bandwidth_gbs(STREAM_THREADS);
    achievable * kernel.counted_bytes_per_iter() as f64 / kernel.actual_bytes_per_iter() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::XEON_E5_2682_V4;
    use crate::exec::Platform;

    #[test]
    fn paper_footprint_is_4_5_gb() {
        // Three arrays of 8-byte elements.
        let gb = (3 * 8 * STREAM_ELEMENTS) as f64 / 1e9;
        assert!((gb - 4.8).abs() < 0.3, "{gb} GB"); // 3 × 1.6 GB
    }

    #[test]
    fn bm_equals_physical_and_vm_is_98_percent() {
        let phys = Platform::Physical {
            proc: XEON_E5_2682_V4,
        };
        let bm = Platform::bm_guest(XEON_E5_2682_V4);
        let vm = Platform::vm_guest(XEON_E5_2682_V4);
        for kernel in StreamKernel::ALL {
            let p = stream_bandwidth(&phys, kernel);
            let b = stream_bandwidth(&bm, kernel);
            let v = stream_bandwidth(&vm, kernel);
            assert!(
                (b / p - 1.0).abs() < 1e-9,
                "{}: bm {b} vs phys {p}",
                kernel.name()
            );
            assert!(
                (v / b - 0.98).abs() < 1e-9,
                "{}: vm {v} vs bm {b}",
                kernel.name()
            );
        }
    }

    #[test]
    fn add_and_triad_report_higher_than_copy_and_scale() {
        let bm = Platform::bm_guest(XEON_E5_2682_V4);
        let copy = stream_bandwidth(&bm, StreamKernel::Copy);
        let add = stream_bandwidth(&bm, StreamKernel::Add);
        assert!(add > copy);
    }

    #[test]
    fn bandwidth_near_channel_limit() {
        // 16 threads on 4 channels: the bm-guest should report within
        // ~25% of the 76.8 GB/s peak (write-allocate and efficiency eat
        // the rest), i.e. "close to the speed limit".
        let bm = Platform::bm_guest(XEON_E5_2682_V4);
        let triad = stream_bandwidth(&bm, StreamKernel::Triad);
        let peak = XEON_E5_2682_V4.peak_memory_bandwidth_gbs();
        assert!(
            triad > peak * 0.55 && triad < peak,
            "triad {triad} peak {peak}"
        );
    }

    #[test]
    fn few_threads_are_core_limited() {
        let bm = Platform::bm_guest(XEON_E5_2682_V4);
        assert!(bm.stream_bandwidth_gbs(2) < bm.stream_bandwidth_gbs(STREAM_THREADS));
    }

    #[test]
    fn kernel_names_match_stream_output() {
        let names: Vec<_> = StreamKernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["Copy", "Scale", "Add", "Triad"]);
    }
}
