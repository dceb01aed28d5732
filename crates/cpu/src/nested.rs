//! Nested virtualization (§2.3).
//!
//! "A nested guest in KVM can only reach about 80% of the native
//! performance. For I/O intensive programs, the performance drops to
//! about 25% of the native one."
//!
//! The mechanism: every exit of the L2 guest traps to the L0 hypervisor,
//! which must re-inject it into the L1 (guest) hypervisor; each L2 exit
//! multiplies into several L1↔L0 transitions (the Turtles paper measured
//! single-digit multiplication factors). BM-Hive sidesteps all of it —
//! the user's hypervisor runs directly on the compute board's silicon.

use crate::virt::VM_EXIT_COST;

/// How many L1↔L0 transitions (each one [`VM_EXIT_COST`]) one L2 exit
/// expands into.
const EXIT_MULTIPLICATION: f64 = 5.0;

/// Background L2 exit rate of a CPU-bound guest (timers, IPIs).
const CPU_WORKLOAD_EXIT_RATE: f64 = 5_000.0;

/// L2 exit rate of an I/O-intensive guest (every kick and interrupt
/// traps twice).
const IO_WORKLOAD_EXIT_RATE: f64 = 60_000.0;

/// BM-Hive's answer: the user hypervisor owns the hardware
/// virtualization extension outright, so it runs at native speed.
pub const BM_HIVE_RELATIVE: f64 = 1.0;

/// Fraction of native performance a KVM-on-KVM nested guest reaches for
/// a workload with the given L2 exit rate.
pub fn relative_performance(l2_exit_rate: f64) -> f64 {
    let overhead = l2_exit_rate * EXIT_MULTIPLICATION * VM_EXIT_COST.as_secs_f64();
    1.0 / (1.0 + overhead)
}

/// Nested CPU-bound performance relative to native (≈0.80).
pub fn cpu_relative() -> f64 {
    relative_performance(CPU_WORKLOAD_EXIT_RATE)
}

/// Nested I/O-intensive performance relative to native (≈0.25).
pub fn io_relative() -> f64 {
    relative_performance(IO_WORKLOAD_EXIT_RATE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_bound_nested_guest_reaches_about_80_percent() {
        let rel = cpu_relative();
        assert!((0.75..=0.85).contains(&rel), "cpu relative {rel}");
    }

    #[test]
    fn io_bound_nested_guest_drops_to_about_25_percent() {
        let rel = io_relative();
        assert!((0.2..=0.3).contains(&rel), "io relative {rel}");
    }

    #[test]
    fn performance_degrades_monotonically_with_exit_rate() {
        let mut last = 1.1;
        for rate in [0.0, 1_000.0, 10_000.0, 100_000.0] {
            let rel = relative_performance(rate);
            assert!(rel < last);
            assert!(rel > 0.0 && rel <= 1.0);
            last = rel;
        }
    }

    #[test]
    fn bm_hive_runs_hypervisors_at_native_speed() {
        assert_eq!(BM_HIVE_RELATIVE, 1.0);
        assert_eq!(relative_performance(0.0), BM_HIVE_RELATIVE);
    }
}
