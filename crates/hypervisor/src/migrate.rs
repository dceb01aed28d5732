//! Live migration via on-demand virtualization (§6 prototype).
//!
//! "Technically, we can insert a virtualization layer into the bm-guest
//! at run-time and convert the bare-metal guest to a special vm-guest,
//! which can then be migrated to another compute board. We have built a
//! working prototype of this design. However, there are two drawbacks
//! ... the cloud provider is not supposed to access or change cloud
//! users' systems ... and the injected virtualization layer has to
//! make assumptions about the user system."
//!
//! This module is that prototype: [`convert_to_vm`] injects the layer
//! (when policy and OS assumptions allow), the resulting vm-guest can
//! be moved, and [`convert_to_bm`] lands it on a fresh compute board.
//! The two drawbacks are first-class: conversion *requires* the tenant's
//! consent flag, and fails cleanly on guests whose OS the shim cannot
//! model.

use bmhive_cloud::limits::InstanceLimits;
use bmhive_iobond::IoBondProfile;
use bmhive_sim::{SimDuration, SimTime};
use std::error::Error;
use std::fmt;

use crate::{BmGuestSession, VmGuestSession};

/// Guest operating systems the injected layer knows how to virtualise.
/// The shim must para-virtualise around each OS's idle loop, timekeeping
/// and APIC usage — "making the approach difficult to work for all
/// bm-guests".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuestOs {
    /// Stock Linux with a known kernel range.
    KnownLinux,
    /// Windows Server builds the shim has profiles for.
    KnownWindows,
    /// The tenant runs their own hypervisor or an unknown OS: the shim
    /// cannot make its assumptions.
    UnknownOrNestedHypervisor,
}

/// What the tenant agreed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPolicy {
    /// The tenant consented to the provider injecting code into their
    /// system (the §6 "too intrusive" concern made explicit).
    pub tenant_consents_to_injection: bool,
}

/// Why a conversion was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationError {
    /// No consent: "the cloud provider is not supposed to access or
    /// change cloud users' systems".
    NoConsent,
    /// The shim's OS assumptions do not hold for this guest.
    UnsupportedGuestOs,
}

impl fmt::Display for MigrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationError::NoConsent => write!(f, "tenant did not consent to runtime injection"),
            MigrationError::UnsupportedGuestOs => {
                write!(
                    f,
                    "injected virtualization layer cannot model this guest OS"
                )
            }
        }
    }
}

impl Error for MigrationError {}

/// A bm-guest converted into a migratable vm-guest, with its identity
/// (the vm-guest's MAC) carried over.
#[derive(Debug)]
pub struct ConvertedGuest {
    /// The special vm-guest now hosting the tenant's system.
    pub vm: VmGuestSession,
    /// When the conversion finished (the brownout window).
    pub converted_at: SimTime,
}

/// Cost of injecting the layer and trapping the guest into non-root
/// mode (world-switch storm while the shim takes over).
const INJECTION_COST: SimDuration = SimDuration::from_millis(120);
/// Cost of de-virtualising onto the destination board.
const LANDING_COST: SimDuration = SimDuration::from_millis(40);

/// Converts a running bm-guest into a vm-guest by injecting the
/// virtualization layer at run time.
///
/// # Errors
///
/// Refuses without tenant consent, or when the guest OS defeats the
/// shim's assumptions.
pub fn convert_to_vm(
    guest: BmGuestSession,
    os: GuestOs,
    policy: MigrationPolicy,
    now: SimTime,
    seed: u64,
) -> Result<ConvertedGuest, MigrationError> {
    if !policy.tenant_consents_to_injection {
        return Err(MigrationError::NoConsent);
    }
    if os == GuestOs::UnknownOrNestedHypervisor {
        return Err(MigrationError::UnsupportedGuestOs);
    }
    // The bm-guest's board is released; its cloud-side state (volume,
    // MAC, limits) moves with the identity. The new vm-guest uses the
    // production limits its instance had.
    let vm = VmGuestSession::new(guest.mac(), 256, InstanceLimits::production(), seed);
    Ok(ConvertedGuest {
        vm,
        converted_at: now + INJECTION_COST,
    })
}

/// Lands a converted guest on a fresh compute board: the reverse
/// de-virtualisation, completing the live migration. Returns the new
/// session and the instant the guest resumes natively.
pub fn convert_to_bm(
    converted: ConvertedGuest,
    profile: IoBondProfile,
    now: SimTime,
) -> (BmGuestSession, SimTime) {
    let session = BmGuestSession::new(
        profile,
        converted.vm.mac(),
        256,
        InstanceLimits::production(),
    );
    (session, now + LANDING_COST)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_cloud::blockstore::{BlockStore, StorageClass};
    use bmhive_net::MacAddr;
    use bmhive_virtio::{BlkRequestHeader, BlkRequestType, BlkStatus};

    fn running_bm_guest() -> BmGuestSession {
        BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(5),
            128,
            InstanceLimits::production(),
        )
    }

    #[test]
    fn consented_linux_guest_round_trips_bm_vm_bm() {
        let bm = running_bm_guest();
        let mac = bm.mac();
        let policy = MigrationPolicy {
            tenant_consents_to_injection: true,
        };
        let converted = convert_to_vm(bm, GuestOs::KnownLinux, policy, SimTime::ZERO, 1).unwrap();
        assert_eq!(converted.vm.mac(), mac, "identity preserved");
        assert!(
            converted.converted_at >= SimTime::from_millis(100),
            "injection brownout"
        );

        // The vm-guest is live: it can do I/O against the same volume.
        let mut store = BlockStore::new(StorageClass::CloudSsd, 9);
        let mut converted = converted;
        let mut data = Vec::new();
        let (status, _) = converted
            .vm
            .blk_request(
                &mut store,
                BlkRequestHeader::new(BlkRequestType::In, 0),
                &[],
                512,
                converted.converted_at,
                &mut data,
            )
            .unwrap();
        assert_eq!(status, BlkStatus::Ok);
        assert_eq!(data.len(), 512);

        // Land on a new board.
        let (landed, landed_at) =
            convert_to_bm(converted, IoBondProfile::fpga(), SimTime::from_secs(1));
        assert_eq!(landed.mac(), mac);
        assert!(landed_at > SimTime::from_secs(1));
    }

    #[test]
    fn no_consent_is_refused() {
        let bm = running_bm_guest();
        let err = convert_to_vm(
            bm,
            GuestOs::KnownLinux,
            MigrationPolicy {
                tenant_consents_to_injection: false,
            },
            SimTime::ZERO,
            1,
        )
        .unwrap_err();
        assert_eq!(err, MigrationError::NoConsent);
    }

    #[test]
    fn tenant_hypervisor_defeats_the_shim() {
        // §6's second drawback: a tenant running their own hypervisor
        // (a headline BM-Hive use case!) cannot be live-migrated this
        // way — which is why the approach stayed a prototype.
        let bm = running_bm_guest();
        let err = convert_to_vm(
            bm,
            GuestOs::UnknownOrNestedHypervisor,
            MigrationPolicy {
                tenant_consents_to_injection: true,
            },
            SimTime::ZERO,
            1,
        )
        .unwrap_err();
        assert_eq!(err, MigrationError::UnsupportedGuestOs);
    }

    #[test]
    fn migration_errors_display() {
        assert!(MigrationError::NoConsent.to_string().contains("consent"));
        assert!(MigrationError::UnsupportedGuestOs
            .to_string()
            .contains("guest OS"));
    }
}
