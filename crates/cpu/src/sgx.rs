//! SGX support (§6).
//!
//! "SGX is becoming increasingly popular for cloud users from finance,
//! stock trading, and e-commerce sections. The current design of SGX
//! does not work well in virtual machines. For example, the KVM
//! hypervisor and QEMU require special builds with the SGX SDK and the
//! guest kernel requires additional drivers. We plan to add native
//! support to SGX in BM-Hive so that users can directly migrate their
//! SGX code to the bare-metal service without additional efforts."
//!
//! The model: an enclave workload is characterised by its transition
//! rate (ECALL/OCALL + AEX) and its EPC working set. On a compute board
//! the enclave runs exactly as on any physical machine. In a VM, SGX
//! needs virtualised EPC and SDK/driver plumbing; transitions that
//! cross the hypervisor (EPC page faults, AEX on exits) get taxed.

use crate::exec::Platform;
use bmhive_sim::SimDuration;

/// An enclave workload's SGX-relevant profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnclaveWorkload {
    /// Enclave transitions (ECALL/OCALL pairs) per second.
    transitions_per_sec: f64,
    /// EPC working set in MiB.
    epc_working_set_mib: f64,
    /// Asynchronous enclave exits provoked per second by external
    /// interrupts (each one re-enters through the hypervisor in a VM).
    aex_per_sec: f64,
}

impl EnclaveWorkload {
    /// A trading-engine-like enclave: frequent small calls, modest EPC.
    pub const TRADING_ENGINE: EnclaveWorkload = EnclaveWorkload {
        transitions_per_sec: 120_000.0,
        epc_working_set_mib: 48.0,
        aex_per_sec: 3_000.0,
    };
}

/// Whether and how a platform supports SGX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SgxSupport {
    /// Native: the enclave owns real EPC; nothing is virtualised.
    Native,
    /// Virtualised EPC through a special hypervisor/QEMU build + guest
    /// driver stack.
    Virtualized {
        /// Whether the operator actually deployed the special builds;
        /// without them the enclave cannot launch at all.
        special_builds_installed: bool,
    },
}

// Skylake-SP-era SGX1 figures.

/// Cost of one native enclave transition (EENTER/EEXIT pair).
const NATIVE_TRANSITION: SimDuration = SimDuration::from_nanos(3_800);

/// Extra cost per transition when the CPU state save/restore crosses
/// virtualised context.
const VIRT_TRANSITION_EXTRA: SimDuration = SimDuration::from_nanos(900);

/// Extra cost per AEX in a VM (the exit reflects through the hypervisor
/// before resuming the enclave).
const VIRT_AEX_EXTRA: SimDuration = SimDuration::from_micros(8);

/// EPC available natively, MiB.
const NATIVE_EPC_MIB: f64 = 128.0;

/// EPC a virtualised guest is allotted, MiB (carved and oversubscribed).
const VIRT_EPC_MIB: f64 = 64.0;

/// Cost of one EPC page eviction/reload when the working set overflows
/// the allotment.
const EPC_PAGING_COST: SimDuration = SimDuration::from_micros(40);

/// What SGX support a platform offers.
pub fn support_on(platform: &Platform) -> SgxSupport {
    match platform {
        Platform::Physical { .. } | Platform::BareMetalBoard { .. } => SgxSupport::Native,
        Platform::Vm { .. } => SgxSupport::Virtualized {
            special_builds_installed: false,
        },
    }
}

/// Fraction of one core the enclave's SGX machinery consumes under
/// `support` (not counting the useful enclave work itself). `None` when
/// the enclave cannot run at all (virtualised platform without the
/// special builds).
pub fn overhead_fraction(workload: &EnclaveWorkload, support: SgxSupport) -> Option<f64> {
    match support {
        SgxSupport::Native => {
            let transitions = workload.transitions_per_sec * NATIVE_TRANSITION.as_secs_f64();
            // Native EPC covers the working set (or pages against the
            // full 128 MiB).
            let paging = paging_rate(workload, NATIVE_EPC_MIB) * EPC_PAGING_COST.as_secs_f64();
            Some(transitions + paging)
        }
        SgxSupport::Virtualized {
            special_builds_installed: false,
        } => None,
        SgxSupport::Virtualized {
            special_builds_installed: true,
        } => {
            let per_transition = NATIVE_TRANSITION + VIRT_TRANSITION_EXTRA;
            let transitions = workload.transitions_per_sec * per_transition.as_secs_f64();
            let aex = workload.aex_per_sec * VIRT_AEX_EXTRA.as_secs_f64();
            let paging = paging_rate(workload, VIRT_EPC_MIB) * EPC_PAGING_COST.as_secs_f64();
            Some(transitions + aex + paging)
        }
    }
}

/// EPC page-fault rate for a working set against an allotment: zero
/// while it fits, growing linearly with the overflow.
fn paging_rate(workload: &EnclaveWorkload, epc_mib: f64) -> f64 {
    let overflow = (workload.epc_working_set_mib - epc_mib).max(0.0);
    // Each overflowing MiB of working set re-faults ~50 pages/s under
    // a uniform re-reference assumption.
    overflow * 50.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::XEON_E5_2682_V4;

    const PREPARED_VM: SgxSupport = SgxSupport::Virtualized {
        special_builds_installed: true,
    };

    #[test]
    fn bm_guest_runs_enclaves_natively() {
        let bm = Platform::bm_guest(XEON_E5_2682_V4);
        assert_eq!(support_on(&bm), SgxSupport::Native);
    }

    #[test]
    fn stock_vm_cannot_launch_an_enclave_at_all() {
        // The §6 pain: "KVM ... and QEMU require special builds".
        let vm = Platform::vm_guest(XEON_E5_2682_V4);
        assert_eq!(
            overhead_fraction(&EnclaveWorkload::TRADING_ENGINE, support_on(&vm)),
            None
        );
    }

    #[test]
    fn even_prepared_vms_pay_more_than_native() {
        let workload = EnclaveWorkload::TRADING_ENGINE;
        let native = overhead_fraction(&workload, SgxSupport::Native).unwrap();
        let virt = overhead_fraction(&workload, PREPARED_VM).unwrap();
        assert!(virt > native * 1.1, "virt {virt} vs native {native}");
        // Both are meaningful fractions of a core for a chatty enclave.
        assert!(native > 0.2 && native < 1.0, "native {native}");
    }

    #[test]
    fn epc_overflow_penalises_virtualised_enclaves_first() {
        // A 100 MiB working set: fits native EPC (128 MiB), overflows
        // the virtualised allotment (64 MiB).
        let big = EnclaveWorkload {
            transitions_per_sec: 1_000.0,
            epc_working_set_mib: 100.0,
            aex_per_sec: 0.0,
        };
        let native = overhead_fraction(&big, SgxSupport::Native).unwrap();
        let virt = overhead_fraction(&big, PREPARED_VM).unwrap();
        assert!(virt > native * 5.0, "paging dominates: {virt} vs {native}");
    }
}
