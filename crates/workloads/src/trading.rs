//! The high-frequency-trading workload the introduction motivates.
//!
//! §1: the vm-based cloud "falls short in the security, isolation, and
//! performance for more demanding cloud services such as 3D rendering,
//! gaming, and high-frequency stock trading", and §2.1: preemption "can
//! cause real problems for demanding services, such as high-frequency
//! stock trading and game streaming."
//!
//! The workload: market data ticks arrive; the strategy computes for a
//! few microseconds; an order goes out. What matters is not the mean but
//! the *order-to-wire tail* — a 99.9th-percentile stall is a missed
//! fill. This module measures that tail on both platforms; the gap
//! emerges from the preemption/exit machinery, exactly as the paper
//! argues.

use crate::env::GuestEnv;
use bmhive_cpu::CpuWork;
use bmhive_net::{MacAddr, Packet, PacketKind, ProtocolStack};
use bmhive_sim::{Histogram, SimDuration};
use bmhive_telemetry as telemetry;

/// Strategy compute per tick: a few µs of branchy, cache-resident work.
fn strategy_work() -> CpuWork {
    CpuWork {
        cycles: 9_000.0, // ~3.6 µs at reference
        mem_refs: 25.0,
        bytes_streamed: 512.0,
    }
}

/// Result of one trading-session run.
#[derive(Debug, Clone)]
pub struct TradingRun {
    /// Guest label.
    pub label: &'static str,
    /// Tick-to-order latency distribution, µs.
    pub order_latency_us: Histogram,
    /// Orders that missed the 100 µs budget ("missed fills").
    pub missed_fills: u64,
    /// Total orders.
    pub orders: u64,
}

/// The fill budget: an order slower than this loses the trade.
pub const FILL_BUDGET: SimDuration = SimDuration::from_micros(100);

/// Runs `ticks` market-data ticks through the strategy on one guest.
/// Kernel-bypass (DPDK) networking on both platforms, as trading shops
/// configure.
pub fn run_trading(env: &mut GuestEnv, ticks: u32) -> TradingRun {
    let stack = ProtocolStack::dpdk_bypass();
    let tick = Packet::new(
        MacAddr::for_guest(99),
        MacAddr::for_guest(1),
        PacketKind::Udp,
        128,
        0,
    );
    let mut order_latency_us = Histogram::new();
    let mut missed_fills = 0u64;
    for _ in 0..ticks {
        // Tick in: backend → guest path + poll-mode rx.
        let rx = env.path.net_oneway(128) + env.cpu.execute(&stack.rx_work(&tick));
        // Strategy compute, with the platform's scheduling jitter.
        let compute = env.cpu.execute_with_jitter(&strategy_work(), &mut env.rng);
        // Order out: tx work + guest → backend path.
        let tx = env.cpu.execute(&stack.tx_work(&tick)) + env.path.net_oneway(96);
        let total = rx + compute + tx;
        order_latency_us.record_duration(total);
        if total > FILL_BUDGET {
            missed_fills += 1;
        }
    }
    telemetry::add_events(u64::from(ticks));
    TradingRun {
        label: env.label,
        order_latency_us,
        missed_fills,
        orders: u64::from(ticks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs() -> (TradingRun, TradingRun) {
        let mut bm = GuestEnv::bm(77);
        let mut vm = GuestEnv::vm(77);
        (run_trading(&mut bm, 60_000), run_trading(&mut vm, 60_000))
    }

    #[test]
    fn median_latencies_are_single_digit_microseconds_apart() {
        let (bm, vm) = runs();
        // The typical path is microseconds on both platforms.
        assert!(bm.order_latency_us.percentile(50.0) < 15.0);
        assert!(vm.order_latency_us.percentile(50.0) < 20.0);
    }

    #[test]
    fn the_tail_is_where_the_vm_loses() {
        let (bm, vm) = runs();
        let bm_tail = bm.order_latency_us.percentile(99.9);
        let vm_tail = vm.order_latency_us.percentile(99.9);
        // A preemption burst parks the vm's strategy thread for ~0.5 ms;
        // the bm-guest has no host to be preempted by.
        assert!(
            vm_tail > 5.0 * bm_tail,
            "vm p99.9 {vm_tail} vs bm p99.9 {bm_tail}"
        );
        assert!(bm_tail < 25.0, "bm p99.9 {bm_tail}");
    }

    #[test]
    fn missed_fills_happen_on_the_vm_not_the_bm() {
        let (bm, vm) = runs();
        assert_eq!(bm.missed_fills, 0, "bm missed {}", bm.missed_fills);
        assert!(
            vm.missed_fills > 0,
            "the vm's preemption bursts must blow the budget sometimes"
        );
        // But rarely — this is a tail phenomenon, not a mean one.
        assert!((vm.missed_fills as f64) < 0.02 * vm.orders as f64);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut env = GuestEnv::vm(seed);
            run_trading(&mut env, 5_000).missed_fills
        };
        assert_eq!(run(3), run(3));
    }
}
