//! The execution model: pricing abstract work on each platform.
//!
//! A [`CpuWork`] describes what a code region *does* — compute cycles,
//! cache/TLB-missing memory references, bulk bytes streamed. A
//! [`Platform`] describes where it runs. The same work priced on the
//! three platforms of §4.2 (physical machine, bm-guest, vm-guest) yields
//! Fig. 7/8's shape: the bm-guest executes natively, the vm-guest pays
//! the virtualization tax.

use crate::catalog::Processor;
use crate::virt::VM_EXIT_COST;
use bmhive_sim::{SimDuration, SimRng};

/// Reference execution rate: cycles/second of the index-1.0 processor
/// (Xeon E5-2682 v4 at its base clock).
const REF_CYCLES_PER_SEC: f64 = 2.5e9;

/// Main-memory access latency for a cache-missing reference.
const DRAM_LATENCY_NS: f64 = 80.0;

/// An abstract piece of single-threaded work.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuWork {
    /// Core compute cycles (at reference IPC).
    pub cycles: f64,
    /// Cache-missing memory references (each pays DRAM latency, and on a
    /// VM potentially an EPT walk).
    pub mem_refs: f64,
    /// Bulk bytes moved through the memory system (bandwidth-bound).
    pub bytes_streamed: f64,
}

impl CpuWork {
    /// Pure compute work.
    pub fn compute(cycles: f64) -> Self {
        CpuWork {
            cycles,
            ..Default::default()
        }
    }

    /// Scales all components by `factor` (e.g. per-request work × request
    /// count).
    pub fn scaled(&self, factor: f64) -> CpuWork {
        CpuWork {
            cycles: self.cycles * factor,
            mem_refs: self.mem_refs * factor,
            bytes_streamed: self.bytes_streamed * factor,
        }
    }
}

/// VM exits per second per vCPU of the evaluation vm-guest, a
/// well-tuned exclusive (pinned) production VM, until a workload sets
/// its own rate with [`Platform::with_exit_rate`].
const DEFAULT_EXIT_RATE: f64 = 2_000.0;

/// TLB misses per cache-missing memory reference.
const TLB_MISS_RATE: f64 = 0.02;

/// Extra nanoseconds per TLB miss under two-level paging (the walk can
/// take "up to 24 memory accesses" instead of 4).
const EPT_WALK_PENALTY_NS: f64 = 100.0;

/// Fraction of a vm-guest's wall time stolen by host tasks: the Fig. 1
/// exclusive (pinned) preemption level.
pub const PREEMPTION_FRACTION: f64 = 0.002;

/// Achievable fraction of native memory bandwidth on a vm-guest under
/// load (Fig. 8: "about 98% of the bm-guest").
const MEM_BANDWIDTH_FACTOR: f64 = 0.98;

/// A compute board's speed relative to the physical server with the
/// same processor: "about 4% faster than the physical machine ...
/// because they have different configurations and were designed and
/// produced by different manufacturers" (§4.2). It scales the
/// latency-bound terms only: Fig. 8 shows the bm-guest at the same
/// memory-bandwidth limit as the physical machine.
const BOARD_FACTOR: f64 = 1.04;

/// The range checks on the tax consts: a stolen fraction must leave
/// the vCPU some time, a miss rate is a probability, and a VM reaches
/// at most native bandwidth. Evaluated at compile time below, so an
/// out-of-range edit fails the build.
const fn check_tax(preemption_fraction: f64, tlb_miss_rate: f64, mem_bandwidth_factor: f64) {
    assert!(0.0 <= preemption_fraction && preemption_fraction < 1.0);
    assert!(0.0 <= tlb_miss_rate && tlb_miss_rate <= 1.0);
    assert!(0.0 < mem_bandwidth_factor && mem_bandwidth_factor <= 1.0);
}

const _: () = check_tax(PREEMPTION_FRACTION, TLB_MISS_RATE, MEM_BANDWIDTH_FACTOR);

/// Fraction of CPU time a vm-guest spends in VM exits alone at
/// `exit_rate_per_sec`.
fn exit_overhead_fraction(exit_rate_per_sec: f64) -> f64 {
    (exit_rate_per_sec * VM_EXIT_COST.as_secs_f64()).min(0.95)
}

/// Where work executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Platform {
    /// A whole physical server (the §4.2 baseline).
    Physical {
        /// The processor.
        proc: Processor,
    },
    /// A BM-Hive compute board: native execution, about 4 % faster than
    /// the physical server on latency-bound work.
    BareMetalBoard {
        /// The board's processor.
        proc: Processor,
    },
    /// A KVM-style vm-guest paying the virtualization tax (§2.1): VM
    /// exits, EPT walks on TLB misses, host preemption and a
    /// memory-bandwidth haircut.
    Vm {
        /// The underlying processor.
        proc: Processor,
        /// VM exits per second per vCPU while running this workload.
        exit_rate_per_sec: f64,
    },
}

impl Platform {
    /// The evaluation bm-guest: a compute board with `proc`.
    pub fn bm_guest(proc: Processor) -> Self {
        Platform::BareMetalBoard { proc }
    }

    /// The evaluation vm-guest: pinned/exclusive, at the default exit
    /// rate.
    pub fn vm_guest(proc: Processor) -> Self {
        Platform::Vm {
            proc,
            exit_rate_per_sec: DEFAULT_EXIT_RATE,
        }
    }

    /// This platform running a workload that provokes
    /// `exit_rate_per_sec` VM exits (I/O-heavy workloads exit far more —
    /// the Table 2 tail). Unchanged for physical and bare-metal
    /// platforms, where nothing exits anywhere.
    pub fn with_exit_rate(self, exit_rate_per_sec: f64) -> Self {
        match self {
            Platform::Vm { proc, .. } => Platform::Vm {
                proc,
                exit_rate_per_sec,
            },
            other => other,
        }
    }

    /// The underlying processor.
    pub fn processor(&self) -> &Processor {
        match self {
            Platform::Physical { proc }
            | Platform::BareMetalBoard { proc }
            | Platform::Vm { proc, .. } => proc,
        }
    }

    fn latency_factor(&self) -> f64 {
        match self {
            Platform::BareMetalBoard { .. } => BOARD_FACTOR,
            _ => 1.0,
        }
    }

    /// Effective memory bandwidth for one thread of streaming, GB/s,
    /// when `threads` threads share the socket.
    pub fn stream_bandwidth_gbs(&self, threads: u32) -> f64 {
        let peak = self.processor().peak_memory_bandwidth_gbs();
        // STREAM reaches ~85% of peak with enough threads; few threads
        // are core-limited at ~12 GB/s each.
        let socket = (peak * 0.85).min(f64::from(threads) * 12.0);
        match self {
            Platform::Vm { .. } => socket * MEM_BANDWIDTH_FACTOR,
            _ => socket,
        }
    }

    /// Prices `work` on this platform: wall-clock time for one thread.
    pub fn execute(&self, work: &CpuWork) -> SimDuration {
        let index = self.processor().single_thread_index;
        let latency_factor = self.latency_factor();
        let cpu_secs = work.cycles / (REF_CYCLES_PER_SEC * index * latency_factor);

        let (ref_latency_ns, bandwidth_factor) = match self {
            Platform::Vm { .. } => (
                DRAM_LATENCY_NS + TLB_MISS_RATE * EPT_WALK_PENALTY_NS,
                MEM_BANDWIDTH_FACTOR,
            ),
            _ => (DRAM_LATENCY_NS, 1.0),
        };
        let mem_secs = work.mem_refs * ref_latency_ns * 1e-9 / latency_factor
            + work.bytes_streamed
                / (self.processor().peak_memory_bandwidth_gbs() * 1e9 * 0.85 * bandwidth_factor);

        let busy = cpu_secs + mem_secs;
        let total = match self {
            Platform::Vm {
                exit_rate_per_sec, ..
            } => {
                let stolen =
                    (exit_overhead_fraction(*exit_rate_per_sec) + PREEMPTION_FRACTION).min(0.95);
                busy / (1.0 - stolen)
            }
            _ => busy,
        };
        SimDuration::from_secs_f64(total)
    }

    /// Samples the wall time of `work` including preemption *bursts*
    /// (rather than the average fraction): host tasks occasionally steal
    /// whole scheduling quanta, which is what creates Fig. 16's vm-guest
    /// jitter. Deterministic given `rng`.
    pub fn execute_with_jitter(&self, work: &CpuWork, rng: &mut SimRng) -> SimDuration {
        let base = self.execute(work);
        match self {
            Platform::Vm { .. } => {
                // Preemption arrives in ~0.5 ms quanta. An execution
                // window of length `base` overlaps a burst if a burst
                // starts inside it OR it starts inside a burst, so the
                // overlap expectation carries a `+ quantum` term — this
                // is what lets even microsecond-scale work (a trading
                // tick, one Redis op) occasionally stall for a whole
                // scheduling quantum.
                let quantum = SimDuration::from_micros(500);
                let expected_bursts = PREEMPTION_FRACTION
                    * (base.as_secs_f64() + quantum.as_secs_f64())
                    / quantum.as_secs_f64();
                let mut extra = SimDuration::ZERO;
                // Poisson-ish: sample burst count from the expectation.
                let whole = expected_bursts.floor() as u64;
                for _ in 0..whole {
                    extra += quantum;
                }
                if rng.chance(expected_bursts.fract()) {
                    extra += quantum;
                }
                base + extra
            }
            _ => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{CORE_I7_8086K, XEON_E5_2682_V4};

    fn spec_like_work() -> CpuWork {
        // A memory-leaning integer benchmark slice: 1 G cycles, 8 M
        // cache misses.
        CpuWork {
            cycles: 1e9,
            mem_refs: 8e6,
            bytes_streamed: 0.0,
        }
    }

    #[test]
    fn bm_guest_is_about_4_percent_faster_than_physical() {
        let work = spec_like_work();
        let phys = Platform::Physical {
            proc: XEON_E5_2682_V4,
        }
        .execute(&work);
        let bm = Platform::bm_guest(XEON_E5_2682_V4).execute(&work);
        let speedup = phys.as_secs_f64() / bm.as_secs_f64();
        assert!((1.03..=1.05).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn vm_guest_is_about_4_percent_slower_than_physical() {
        let work = spec_like_work();
        let phys = Platform::Physical {
            proc: XEON_E5_2682_V4,
        }
        .execute(&work);
        let vm = Platform::vm_guest(XEON_E5_2682_V4).execute(&work);
        let slowdown = vm.as_secs_f64() / phys.as_secs_f64();
        assert!((1.01..=1.08).contains(&slowdown), "slowdown {slowdown}");
    }

    #[test]
    fn single_thread_ratio_tracks_the_catalog() {
        let work = CpuWork::compute(1e9);
        let e5 = Platform::Physical {
            proc: XEON_E5_2682_V4,
        }
        .execute(&work);
        let i7 = Platform::Physical {
            proc: CORE_I7_8086K,
        }
        .execute(&work);
        let ratio = e5.as_secs_f64() / i7.as_secs_f64();
        assert!((ratio - 1.41).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn pure_compute_pays_no_memory_tax() {
        // With no exits, pure compute on a vm-guest differs from the
        // physical machine only by the stolen preemption fraction.
        let work = CpuWork::compute(1e9);
        let phys = Platform::Physical {
            proc: XEON_E5_2682_V4,
        }
        .execute(&work);
        let vm = Platform::vm_guest(XEON_E5_2682_V4)
            .with_exit_rate(0.0)
            .execute(&work);
        let stretch = vm.as_secs_f64() * (1.0 - PREEMPTION_FRACTION) - phys.as_secs_f64();
        assert!(stretch.abs() < 1e-9, "stretch {stretch}");
    }

    #[test]
    fn heavy_exit_rate_halves_throughput() {
        // 50 000 exits/s × 10 µs = 50% of CPU time, matching the Table 2
        // discussion ("about 50% of the CPU time is spent in VM exits").
        assert!((exit_overhead_fraction(50_000.0) - 0.5).abs() < 1e-9);
        let work = CpuWork::compute(1e9);
        let native = Platform::Physical {
            proc: XEON_E5_2682_V4,
        }
        .execute(&work);
        let vm = Platform::vm_guest(XEON_E5_2682_V4)
            .with_exit_rate(50_000.0)
            .execute(&work);
        let slowdown = vm.as_secs_f64() / native.as_secs_f64();
        assert!((slowdown - 2.0).abs() < 0.01, "slowdown {slowdown}");
    }

    #[test]
    fn vm_stream_bandwidth_is_98_percent() {
        let bm = Platform::bm_guest(XEON_E5_2682_V4).stream_bandwidth_gbs(16);
        let vm = Platform::vm_guest(XEON_E5_2682_V4).stream_bandwidth_gbs(16);
        assert!((vm / bm - 0.98).abs() < 1e-9);
    }

    #[test]
    fn work_algebra() {
        let a = CpuWork {
            cycles: 1.0,
            mem_refs: 2.0,
            bytes_streamed: 3.0,
        };
        let b = a.scaled(2.0);
        assert_eq!(b.cycles, 2.0);
        assert_eq!(b.mem_refs, 4.0);
        assert_eq!(b.bytes_streamed, 6.0);
    }

    #[test]
    fn jitter_only_affects_vms() {
        let mut rng = SimRng::new(1);
        let work = CpuWork::compute(2.5e9); // ~1 s on the reference CPU
        let bm = Platform::bm_guest(XEON_E5_2682_V4);
        assert_eq!(bm.execute_with_jitter(&work, &mut rng), bm.execute(&work));
        let vm = Platform::vm_guest(XEON_E5_2682_V4);
        let jittered = vm.execute_with_jitter(&work, &mut rng);
        assert!(jittered >= vm.execute(&work));
    }

    #[test]
    fn reference_cpu_retires_2_5_gcycles_per_second() {
        let per_op = CpuWork::compute(2.5e6); // 1 ms at reference
        let plat = Platform::Physical {
            proc: XEON_E5_2682_V4,
        };
        let secs = plat.execute(&per_op).as_secs_f64();
        assert!((secs - 1e-3).abs() < 1e-6, "{secs} s");
    }

    #[test]
    fn with_exit_rate_sets_vms_and_leaves_boards_alone() {
        let bm = Platform::bm_guest(XEON_E5_2682_V4);
        assert_eq!(bm.with_exit_rate(50_000.0), bm);
        assert_eq!(
            Platform::vm_guest(XEON_E5_2682_V4).with_exit_rate(123.0),
            Platform::Vm {
                proc: XEON_E5_2682_V4,
                exit_rate_per_sec: 123.0
            }
        );
    }

    #[test]
    #[should_panic]
    fn tax_validation_rejects_bad_fraction() {
        check_tax(1.5, TLB_MISS_RATE, MEM_BANDWIDTH_FACTOR);
    }
}
