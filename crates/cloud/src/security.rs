//! The structural security / isolation comparison behind Table 1.
//!
//! Rather than hard-coding the table's prose, each service kind is
//! described by its *structural* properties (what is shared, what is
//! hardware-enforced, who controls the firmware) and the Table 1
//! judgments are derived from those properties. This keeps the
//! comparison honest: change a property and the verdicts change with it.
//! The density column reads the platform: a vm server hosts one tenant
//! per sellable thread of [`cost::vm_server`], and a BM-Hive server one
//! per chassis slot.

use crate::catalog::ServerConstraints;
use crate::cost;

/// The three cloud service architectures of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    /// Traditional VM-based multi-tenant cloud.
    VmBased,
    /// Whole-server single-tenant bare-metal rental.
    SingleTenantBareMetal,
    /// BM-Hive: multi-tenant bare-metal on compute boards.
    BmHive,
}

impl ServiceKind {
    /// All three services, in Table 1's row order.
    pub const ALL: [ServiceKind; 3] = [
        ServiceKind::VmBased,
        ServiceKind::SingleTenantBareMetal,
        ServiceKind::BmHive,
    ];
}

/// Structural properties of one service architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceProfile {
    /// The service kind.
    pub kind: ServiceKind,
    /// Tenants share CPU caches / hyperthreads / memory bus.
    pub shares_microarchitecture: bool,
    /// Isolation is enforced by hardware boundaries rather than
    /// hypervisor software.
    pub hardware_isolated: bool,
    /// The tenant gets unfettered access to platform firmware (BMC,
    /// BIOS, NIC option ROMs).
    pub tenant_controls_firmware: bool,
    /// CPU and memory are virtualized (EPT, vCPU scheduling).
    pub virtualizes_cpu_memory: bool,
    /// Tenants per physical server (the density column).
    pub max_tenants_per_server: u32,
    /// The provider retains control of the guest's I/O path after
    /// handing over the machine, so the guest can be cold-migrated and
    /// managed through the standard cloud control plane.
    pub provider_controls_io: bool,
}

impl ServiceProfile {
    /// The profile of each Table 1 service.
    pub fn of(kind: ServiceKind) -> Self {
        match kind {
            ServiceKind::VmBased => ServiceProfile {
                kind,
                shares_microarchitecture: true,
                hardware_isolated: false,
                tenant_controls_firmware: false,
                virtualizes_cpu_memory: true,
                max_tenants_per_server: cost::vm_server().sellable_threads,
                provider_controls_io: true,
            },
            ServiceKind::SingleTenantBareMetal => ServiceProfile {
                kind,
                shares_microarchitecture: false,
                hardware_isolated: true, // trivially: alone on the box
                tenant_controls_firmware: true,
                virtualizes_cpu_memory: false,
                max_tenants_per_server: 1,
                provider_controls_io: false,
            },
            ServiceKind::BmHive => ServiceProfile {
                kind,
                shares_microarchitecture: false,
                hardware_isolated: true,
                // "The firmware of the compute board is properly signed,
                // and can only be updated if the signature ... passes the
                // verification" (§1).
                tenant_controls_firmware: false,
                virtualizes_cpu_memory: false,
                max_tenants_per_server: ServerConstraints::production().slots,
                provider_controls_io: true,
            },
        }
    }

    /// Side-channel attacks across tenants are feasible iff tenants
    /// share microarchitectural state.
    pub fn side_channel_exposed(&self) -> bool {
        self.shares_microarchitecture && self.max_tenants_per_server > 1
    }

    /// The provider is exposed to a malicious tenant owning the platform
    /// (firmware implants persisting across tenants).
    pub fn provider_exposed_to_tenant(&self) -> bool {
        self.tenant_controls_firmware
    }

    /// One Table 1 row: (service, security, isolation, performance) as
    /// static verdict strings plus the tenants-per-server count (render
    /// as `"{n} tenant(s)/server"`).
    pub fn table_row_parts(&self) -> (&'static str, &'static str, &'static str, &'static str, u32) {
        let service = match self.kind {
            ServiceKind::VmBased => "VM-based cloud",
            ServiceKind::SingleTenantBareMetal => "Single-tenant bare-metal",
            ServiceKind::BmHive => "BM-Hive",
        };
        let security = if self.side_channel_exposed() {
            "side-channel and DoS exposed (shared hardware)"
        } else if self.provider_exposed_to_tenant() {
            "tenant owns platform firmware (provider at risk)"
        } else {
            "hardware-isolated; firmware signed and protected"
        };
        let isolation = if self.hardware_isolated && !self.provider_exposed_to_tenant() {
            "strong (hardware)"
        } else if self.hardware_isolated {
            "strong but moot (tenant owns the box)"
        } else {
            "weak (software, shared resources)"
        };
        let perf = if self.virtualizes_cpu_memory {
            "virtualization overhead on CPU/memory/I/O"
        } else if self.provider_controls_io {
            "native CPU/memory; para-virtual I/O"
        } else {
            "native"
        };
        (
            service,
            security,
            isolation,
            perf,
            self.max_tenants_per_server,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_cloud_is_side_channel_exposed_and_bm_hive_is_not() {
        assert!(ServiceProfile::of(ServiceKind::VmBased).side_channel_exposed());
        assert!(!ServiceProfile::of(ServiceKind::BmHive).side_channel_exposed());
        assert!(!ServiceProfile::of(ServiceKind::SingleTenantBareMetal).side_channel_exposed());
    }

    #[test]
    fn single_tenant_exposes_the_provider() {
        assert!(ServiceProfile::of(ServiceKind::SingleTenantBareMetal).provider_exposed_to_tenant());
        assert!(!ServiceProfile::of(ServiceKind::BmHive).provider_exposed_to_tenant());
    }

    #[test]
    fn only_bm_hive_combines_isolation_density_and_integration() {
        let bm = ServiceProfile::of(ServiceKind::BmHive);
        assert!(bm.hardware_isolated);
        assert!(bm.max_tenants_per_server > 1);
        assert!(bm.provider_controls_io);
        let st = ServiceProfile::of(ServiceKind::SingleTenantBareMetal);
        assert!(!(st.max_tenants_per_server > 1 && st.provider_controls_io));
        let vm = ServiceProfile::of(ServiceKind::VmBased);
        assert!(!vm.hardware_isolated);
    }

    #[test]
    fn density_ordering_matches_table1() {
        let vm = ServiceProfile::of(ServiceKind::VmBased).max_tenants_per_server;
        let bm = ServiceProfile::of(ServiceKind::BmHive).max_tenants_per_server;
        let st = ServiceProfile::of(ServiceKind::SingleTenantBareMetal).max_tenants_per_server;
        assert!(vm > bm && bm > st);
        assert_eq!(bm, 16);
        assert_eq!(st, 1);
    }

    #[test]
    fn table_rows_render_for_all_services() {
        for kind in ServiceKind::ALL {
            let (service, security, isolation, perf, tenants) =
                ServiceProfile::of(kind).table_row_parts();
            for s in [service, security, isolation, perf] {
                assert!(!s.is_empty());
            }
            assert!(tenants >= 1);
        }
        let (_, security, ..) = ServiceProfile::of(ServiceKind::BmHive).table_row_parts();
        assert!(security.contains("firmware signed"));
    }
}
