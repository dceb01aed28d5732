//! The Table 3 instance catalog.
//!
//! The paper's Table 3 lists "bare-metal instances available in our
//! cloud", with "the maximum number of the compute boards in a single
//! BM-Hive server" in the last column, a number that "depends on the
//! server's power supply, internal space, and I/O performance". The
//! prose anchors three rows (Xeon E5-2682 v4 with 64 GB — the evaluation
//! instance; Xeon E3-1240 v6; up to 16 boards per server; 8 × 32 HT in
//! the §3.5 cost math). The catalog below reconstructs the table from
//! those anchors plus the §3.3 board list (E3/E5/i7/Atom); the
//! constraint solver derives the last column instead of hard-coding it.

use crate::limits::InstanceLimits;
use bmhive_cpu::catalog::{Processor, ATOM_C3958, CORE_I7_8086K, XEON_E3_1240_V6, XEON_E5_2682_V4};

/// One bare-metal instance type (compute-board configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceType {
    /// Instance family name.
    pub name: &'static str,
    /// The board's processor.
    pub processor: Processor,
    /// Board memory in GiB.
    pub memory_gib: u32,
    /// PCIe slots the board occupies (high-TDP boards are double-wide).
    pub slot_width: u32,
    /// Additional board power beyond the CPU TDP (DRAM, VRs, IO-Bond
    /// FPGA), watts.
    pub board_overhead_watts: f64,
}

impl InstanceType {
    /// Total board power draw, watts.
    pub fn board_watts(&self) -> f64 {
        self.processor.tdp_watts + self.board_overhead_watts
    }

    /// Hardware threads the instance sells.
    pub fn threads(&self) -> u32 {
        self.processor.threads
    }

    /// The production rate limits for this instance (§4.1 documents the
    /// E5-2682 instance's numbers; all instances share the same caps in
    /// our reconstruction).
    pub fn limits(&self) -> InstanceLimits {
        InstanceLimits::production()
    }
}

/// Physical constraints of one BM-Hive base server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConstraints {
    /// PCIe slots available for compute boards.
    pub slots: u32,
    /// Power budget for boards, watts (chassis PSU minus base
    /// server/fans).
    pub board_power_budget_watts: f64,
    /// Server uplink bandwidth, Gbit/s.
    pub uplink_gbps: f64,
    /// Minimum uplink share a board must be able to claim, Gbit/s.
    pub min_board_uplink_gbps: f64,
}

impl ServerConstraints {
    /// The production chassis: 16 slots (the abstract's "up to 16
    /// bare-metal guests"), 100 Gbit/s uplink, ~1.5 kW of board power.
    pub fn production() -> Self {
        ServerConstraints {
            slots: 16,
            board_power_budget_watts: 1500.0,
            uplink_gbps: 100.0,
            min_board_uplink_gbps: 6.0,
        }
    }

    /// Admits one more `instance` board into a chassis already holding
    /// the `installed` boards: the one slot, power and uplink check
    /// (§4.1's "power supply, internal space, and I/O performance")
    /// that board installation and placement both run.
    ///
    /// # Errors
    ///
    /// The constraint the board would violate: `"out of PCIe slots"`,
    /// `"power budget exceeded"` or `"uplink oversubscribed"`.
    pub fn admit<'a>(
        &self,
        installed: impl IntoIterator<Item = &'a InstanceType>,
        instance: &InstanceType,
    ) -> Result<(), &'static str> {
        let (mut boards, mut slots, mut watts) = (0u32, 0u32, 0.0);
        for board in installed {
            boards += 1;
            slots += board.slot_width;
            watts += board.board_watts();
        }
        if slots + instance.slot_width > self.slots {
            return Err("out of PCIe slots");
        }
        if watts + instance.board_watts() > self.board_power_budget_watts {
            return Err("power budget exceeded");
        }
        if f64::from(boards + 1) * self.min_board_uplink_gbps > self.uplink_gbps {
            return Err("uplink oversubscribed");
        }
        Ok(())
    }

    /// Maximum boards of `instance` this chassis hosts: how many
    /// [`admit`](Self::admit) accepts one after another.
    pub fn max_boards(&self, instance: &InstanceType) -> u32 {
        let mut boards = 0;
        while self
            .admit(std::iter::repeat_n(instance, boards), instance)
            .is_ok()
        {
            boards += 1;
        }
        boards as u32
    }
}

/// The reconstructed Table 3 catalog.
pub const INSTANCE_CATALOG: &[InstanceType] = &[
    InstanceType {
        name: "ebm.e5.32xlarge", // the §4 evaluation instance
        processor: XEON_E5_2682_V4,
        memory_gib: 64,
        slot_width: 2, // 120 W + DRAM: double-wide board
        board_overhead_watts: 40.0,
    },
    InstanceType {
        name: "ebm.e3.8xlarge",
        processor: XEON_E3_1240_V6,
        memory_gib: 32,
        slot_width: 1,
        board_overhead_watts: 20.0,
    },
    InstanceType {
        name: "ebm.i7.12xlarge",
        processor: CORE_I7_8086K,
        memory_gib: 32,
        slot_width: 1,
        board_overhead_watts: 25.0,
    },
    InstanceType {
        name: "ebm.atom.16xlarge",
        processor: ATOM_C3958,
        memory_gib: 32,
        slot_width: 1,
        board_overhead_watts: 12.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn find(name: &str) -> &'static InstanceType {
        INSTANCE_CATALOG
            .iter()
            .find(|i| i.name == name)
            .expect("catalog entry")
    }

    #[test]
    fn evaluation_instance_matches_section_4() {
        let e5 = find("ebm.e5.32xlarge");
        assert_eq!(e5.processor.name, "Xeon E5-2682 v4");
        assert_eq!(e5.memory_gib, 64);
        assert_eq!(e5.threads(), 32);
        let l = e5.limits();
        assert_eq!(l.pps_limit(), Some(4e6));
        assert_eq!(l.iops_limit(), Some(25_000.0));
    }

    #[test]
    fn e5_boards_max_out_at_8_per_server() {
        // §3.5: "BM-Hive can service up to 8 bm-guests with each 32HT".
        let c = ServerConstraints::production();
        assert_eq!(c.max_boards(find("ebm.e5.32xlarge")), 8);
    }

    #[test]
    fn small_boards_reach_the_16_board_ceiling() {
        // Abstract: "up to 16 bare-metal guests in a single physical
        // server".
        let c = ServerConstraints::production();
        assert_eq!(c.max_boards(find("ebm.atom.16xlarge")), 16);
        assert_eq!(c.max_boards(find("ebm.e3.8xlarge")), 16);
    }

    #[test]
    fn board_count_never_exceeds_any_constraint() {
        let c = ServerConstraints::production();
        for inst in INSTANCE_CATALOG {
            let n = c.max_boards(inst);
            assert!(n >= 1, "{} hosts no boards", inst.name);
            assert!(n * inst.slot_width <= c.slots);
            assert!(f64::from(n) * inst.board_watts() <= c.board_power_budget_watts);
            assert!(f64::from(n) * c.min_board_uplink_gbps <= c.uplink_gbps);
        }
    }

    #[test]
    fn power_constraint_can_bind() {
        // A hypothetical 350 W board is power-limited, not slot-limited.
        let hot = InstanceType {
            name: "hot",
            processor: XEON_E5_2682_V4,
            memory_gib: 128,
            slot_width: 1,
            board_overhead_watts: 230.0,
        };
        let c = ServerConstraints::production();
        assert_eq!(c.max_boards(&hot), 4); // 1500 / 350
    }

    #[test]
    fn total_sellable_threads_beats_a_vm_server() {
        // The density argument of §3.5 in catalog form: 8 E5 boards sell
        // 256 HT; a vm server sells 88.
        let c = ServerConstraints::production();
        let e5 = find("ebm.e5.32xlarge");
        let sellable = c.max_boards(e5) * e5.threads();
        assert_eq!(sellable, 256);
        assert!(sellable > crate::cost::vm_server().sellable_threads);
    }
}
