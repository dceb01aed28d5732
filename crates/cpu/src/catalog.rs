//! The processor catalog.
//!
//! §3.3: "We have experimented and produced compute boards with Xeon E3
//! and E5, Intel Core i7, and Intel Atom processors." §4.1 evaluates on
//! Xeon E5-2682 v4 boards and mentions E3-1240 v6 as "31% faster in
//! single-core performance". §1 cites Core i7-8086K as "1.6x of that of
//! Xeon E5-2699v4 in the CPU Mark".
//!
//! Single-thread indices below are normalised to the evaluation CPU
//! (E5-2682 v4 = 1.0) from those published ratios; clocks, core counts
//! and TDP are public Intel ARK figures. The absolute values only anchor
//! the model — the reproduced results depend on the *ratios*, which come
//! straight from the paper.

/// Which product line a processor belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessorKind {
    /// High-core-count server Xeon (E5/Platinum).
    ServerXeon,
    /// Low-end / workstation Xeon (E3), close to desktop parts (§4.1
    /// footnote).
    EntryXeon,
    /// Desktop Core i7/i9.
    Desktop,
    /// Low-power Atom.
    Atom,
}

/// One processor model available for compute boards or base servers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Processor {
    /// Marketing name.
    pub name: &'static str,
    /// Product line.
    pub kind: ProcessorKind,
    /// Physical cores.
    pub cores: u32,
    /// Hardware threads (2× cores with hyper-threading).
    pub threads: u32,
    /// Base clock in GHz.
    pub base_clock_ghz: f64,
    /// Single-thread performance, normalised to Xeon E5-2682 v4 = 1.0.
    pub single_thread_index: f64,
    /// DDR4 memory channels.
    pub memory_channels: u32,
    /// Per-channel bandwidth in GB/s (DDR4-2400 ≈ 19.2 GB/s).
    pub channel_bandwidth_gbs: f64,
    /// Thermal design power in watts.
    pub tdp_watts: f64,
}

impl Processor {
    /// Peak memory bandwidth across all channels, GB/s.
    pub fn peak_memory_bandwidth_gbs(&self) -> f64 {
        f64::from(self.memory_channels) * self.channel_bandwidth_gbs
    }
}

/// Xeon E5-2682 v4: the evaluation CPU of §4 (16C/32T, 2.5 GHz).
pub const XEON_E5_2682_V4: Processor = Processor {
    name: "Xeon E5-2682 v4",
    kind: ProcessorKind::ServerXeon,
    cores: 16,
    threads: 32,
    base_clock_ghz: 2.5,
    single_thread_index: 1.0,
    memory_channels: 4,
    channel_bandwidth_gbs: 19.2,
    tdp_watts: 120.0,
};

/// Xeon E3-1240 v6: "31% faster in single-core performance than Xeon
/// E5-2682 v4" (§4.2).
pub const XEON_E3_1240_V6: Processor = Processor {
    name: "Xeon E3-1240 v6",
    kind: ProcessorKind::EntryXeon,
    cores: 4,
    threads: 8,
    base_clock_ghz: 3.7,
    single_thread_index: 1.31,
    memory_channels: 2,
    channel_bandwidth_gbs: 19.2,
    tdp_watts: 72.0,
};

/// Core i7-8086K: "the single-thread performance of Core i7-8086K is
/// 1.6x of that of Xeon E5-2699v4" (§1) → 1.6 × 0.88 ≈ 1.41 on our
/// scale.
pub const CORE_I7_8086K: Processor = Processor {
    name: "Core i7-8086K",
    kind: ProcessorKind::Desktop,
    cores: 6,
    threads: 12,
    base_clock_ghz: 4.0,
    single_thread_index: 1.41,
    memory_channels: 2,
    channel_bandwidth_gbs: 19.2,
    tdp_watts: 95.0,
};

/// Atom C3958: the low-power compute-board option (16C/16T, 2.0 GHz).
pub const ATOM_C3958: Processor = Processor {
    name: "Atom C3958",
    kind: ProcessorKind::Atom,
    cores: 16,
    threads: 16,
    base_clock_ghz: 2.0,
    single_thread_index: 0.45,
    memory_channels: 2,
    channel_bandwidth_gbs: 19.2,
    tdp_watts: 31.0,
};

/// The base server's CPU: "a simplified Xeon-based server with 16 cores
/// E5 CPU" (§3.3), "much cheaper 16HT E5" (§3.5).
pub const BASE_XEON_E5: Processor = Processor {
    name: "Xeon E5 (base, 16 cores)",
    kind: ProcessorKind::ServerXeon,
    cores: 16,
    threads: 16,
    base_clock_ghz: 2.1,
    single_thread_index: 0.85,
    memory_channels: 4,
    channel_bandwidth_gbs: 19.2,
    tdp_watts: 85.0,
};

/// Xeon Platinum 8160T: the vm-server TDP reference the paper cites \[4\]
/// (24C/48T, 2.1 GHz, 150 W).
pub const XEON_PLATINUM_8160T: Processor = Processor {
    name: "Xeon Platinum 8160T",
    kind: ProcessorKind::ServerXeon,
    cores: 24,
    threads: 48,
    base_clock_ghz: 2.1,
    single_thread_index: 0.92,
    memory_channels: 6,
    channel_bandwidth_gbs: 19.2,
    tdp_watts: 150.0,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Xeon E5-2699 v4: the §1 comparison point (22C/44T, 2.2 GHz).
    const XEON_E5_2699_V4: Processor = Processor {
        name: "Xeon E5-2699 v4",
        kind: ProcessorKind::ServerXeon,
        cores: 22,
        threads: 44,
        base_clock_ghz: 2.2,
        // Same microarchitecture as the 2682, scaled by clock.
        single_thread_index: 0.88,
        memory_channels: 4,
        channel_bandwidth_gbs: 19.2,
        tdp_watts: 145.0,
    };

    /// All catalog processors.
    const ALL_PROCESSORS: &[Processor] = &[
        XEON_E5_2682_V4,
        XEON_E5_2699_V4,
        XEON_E3_1240_V6,
        CORE_I7_8086K,
        ATOM_C3958,
        BASE_XEON_E5,
        XEON_PLATINUM_8160T,
    ];

    #[test]
    fn i7_is_1_6x_of_e5_2699_single_thread() {
        let ratio = CORE_I7_8086K.single_thread_index / XEON_E5_2699_V4.single_thread_index;
        assert!((ratio - 1.6).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn e3_is_31_percent_faster_than_evaluation_cpu() {
        let ratio = XEON_E3_1240_V6.single_thread_index / XEON_E5_2682_V4.single_thread_index;
        assert!((ratio - 1.31).abs() < 0.01);
    }

    #[test]
    fn evaluation_cpu_has_four_channels() {
        assert_eq!(XEON_E5_2682_V4.memory_channels, 4);
        // ~76.8 GB/s peak, "the speed limit of the four memory channels".
        assert!((XEON_E5_2682_V4.peak_memory_bandwidth_gbs() - 76.8).abs() < 0.1);
    }

    #[test]
    fn hyper_threading_doubles_threads_where_present() {
        for p in ALL_PROCESSORS {
            assert!(
                p.threads == p.cores || p.threads == 2 * p.cores,
                "{}",
                p.name
            );
        }
    }

    #[test]
    fn high_core_server_parts_clock_low() {
        // §1: high-core-count Xeons have relatively low base clocks.
        for p in ALL_PROCESSORS {
            if p.kind == ProcessorKind::ServerXeon && p.cores >= 16 {
                assert!(p.base_clock_ghz <= 2.6, "{}", p.name);
            }
        }
        let i7 = CORE_I7_8086K;
        assert!(i7.base_clock_ghz >= 4.0 - f64::EPSILON);
    }

    #[test]
    fn tdp_per_thread_is_watts_scale() {
        // TDP per hardware thread, watts — the §3.5 cost metric.
        for p in ALL_PROCESSORS {
            let w = p.tdp_watts / f64::from(p.threads);
            assert!((1.0..=10.0).contains(&w), "{}: {w}", p.name);
        }
    }
}
