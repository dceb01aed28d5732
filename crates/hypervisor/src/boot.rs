//! The §3.2 boot flow.
//!
//! "The firmware (i.e., BIOS) on the board then starts executing the
//! boot loader, which will further load the bm-guest kernel. Note that
//! most guests in the cloud are not allowed to use local storage ... the
//! bootloader and kernel (both are a part of the VM image) are stored
//! remotely and only accessible through the virtio-blk interface. To
//! address that, we extend the (EFI-based) firmware of the compute board
//! to recognize and utilize virtio during boot."
//!
//! [`boot_guest`] is that firmware path: read the bootloader sectors,
//! then the kernel sectors, in 128 KiB virtio-blk requests, over either
//! platform — which is exactly what makes *cold migration* work: the
//! same [`MachineImage`] boots as a vm-guest or a bm-guest.

use bmhive_cloud::blockstore::BlockStore;
use bmhive_cloud::image::MachineImage;
use bmhive_sim::{SimDuration, SimTime};
use bmhive_virtio::{BlkRequestHeader, BlkRequestType, BlkStatus, SECTOR_SIZE};

use crate::bm::{BmGuestSession, IoTiming, SessionError};
use crate::vm::VmGuestSession;

/// Largest read the firmware issues at once.
const BOOT_CHUNK_SECTORS: u64 = 256; // 128 KiB

/// What a boot attempt produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootReport {
    /// Total sectors fetched (bootloader + kernel).
    pub sectors_read: u64,
    /// virtio-blk requests issued.
    pub requests: u64,
    /// When the kernel was fully loaded.
    pub finished_at: SimTime,
    /// Wall time from power-on.
    pub duration: SimDuration,
}

/// Either guest platform, for boot purposes.
pub trait BootTarget {
    /// Issues one firmware read of `sectors` sectors at `sector` into
    /// `buf`.
    ///
    /// # Errors
    ///
    /// Propagates session failures.
    fn firmware_read(
        &mut self,
        store: &mut BlockStore,
        sector: u64,
        sectors: u64,
        now: SimTime,
        buf: &mut Vec<u8>,
    ) -> Result<(BlkStatus, IoTiming), SessionError>;
}

impl BootTarget for BmGuestSession {
    fn firmware_read(
        &mut self,
        store: &mut BlockStore,
        sector: u64,
        sectors: u64,
        now: SimTime,
        buf: &mut Vec<u8>,
    ) -> Result<(BlkStatus, IoTiming), SessionError> {
        let header = BlkRequestHeader::new(BlkRequestType::In, sector);
        self.blk_request(store, header, &[], sectors * SECTOR_SIZE, now, buf)
    }
}

impl BootTarget for VmGuestSession {
    fn firmware_read(
        &mut self,
        store: &mut BlockStore,
        sector: u64,
        sectors: u64,
        now: SimTime,
        buf: &mut Vec<u8>,
    ) -> Result<(BlkStatus, IoTiming), SessionError> {
        let header = BlkRequestHeader::new(BlkRequestType::In, sector);
        self.blk_request(store, header, &[], sectors * SECTOR_SIZE, now, buf)
    }
}

/// Boots `image` on `target`: firmware reads the bootloader, the
/// bootloader reads the kernel, all over virtio-blk from `store`.
///
/// # Errors
///
/// Fails if the image lacks virtio drivers (it cannot boot on either
/// platform) or a read fails.
pub fn boot_guest<T: BootTarget>(
    target: &mut T,
    store: &mut BlockStore,
    image: &MachineImage,
    power_on: SimTime,
) -> Result<BootReport, SessionError> {
    if !image.has_virtio_drivers {
        return Err(SessionError::BadRequest("image has no virtio drivers"));
    }
    let mut now = power_on;
    let mut sectors_read = 0;
    let mut requests = 0;
    // Every chunk lands in the same buffer.
    let mut buf = Vec::new();
    for (start, len) in [
        (image.bootloader_sector, image.bootloader_sectors),
        (image.kernel_sector, image.kernel_sectors),
    ] {
        let mut at = start;
        let end = start + len;
        while at < end {
            let chunk = (end - at).min(BOOT_CHUNK_SECTORS);
            let (status, timing) = target.firmware_read(store, at, chunk, now, &mut buf)?;
            if status != BlkStatus::Ok {
                return Err(SessionError::BadRequest("boot read failed"));
            }
            now = timing.completed;
            at += chunk;
            sectors_read += chunk;
            requests += 1;
        }
    }
    Ok(BootReport {
        sectors_read,
        requests,
        finished_at: now,
        duration: now.saturating_duration_since(power_on),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_cloud::blockstore::StorageClass;
    use bmhive_cloud::limits::InstanceLimits;
    use bmhive_iobond::IoBondProfile;
    use bmhive_net::MacAddr;

    fn image() -> MachineImage {
        MachineImage::centos_evaluation(1)
    }

    #[test]
    fn bm_guest_boots_from_cloud_storage() {
        let mut guest = BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(1),
            64,
            InstanceLimits::production(),
        );
        let mut store = BlockStore::new(StorageClass::CloudSsd, 33);
        let report = boot_guest(&mut guest, &mut store, &image(), SimTime::ZERO).unwrap();
        assert_eq!(report.sectors_read, image().boot_sectors());
        assert!(report.requests >= image().boot_sectors() / 256);
        // Loading ~8 MiB over rate-limited cloud storage takes tens of
        // milliseconds, not hours (the §5 machine-leasing contrast).
        assert!(report.duration > SimDuration::from_millis(5));
        assert!(report.duration < SimDuration::from_secs(5));
    }

    #[test]
    fn same_image_cold_migrates_to_a_vm() {
        // Interoperability (§3.1): the identical image boots on the
        // vm-guest platform.
        let img = image();
        let mut vm =
            VmGuestSession::new(MacAddr::for_guest(2), 64, InstanceLimits::production(), 3);
        let mut store = BlockStore::new(StorageClass::CloudSsd, 34);
        let report = boot_guest(&mut vm, &mut store, &img, SimTime::ZERO).unwrap();
        assert_eq!(report.sectors_read, img.boot_sectors());
    }

    #[test]
    fn image_without_virtio_drivers_cannot_boot() {
        let mut img = image();
        img.has_virtio_drivers = false;
        let mut guest = BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(1),
            64,
            InstanceLimits::production(),
        );
        let mut store = BlockStore::new(StorageClass::CloudSsd, 35);
        assert!(boot_guest(&mut guest, &mut store, &img, SimTime::ZERO).is_err());
    }

    #[test]
    fn boot_is_deterministic() {
        let run = || {
            let mut guest = BmGuestSession::new(
                IoBondProfile::fpga(),
                MacAddr::for_guest(1),
                64,
                InstanceLimits::production(),
            );
            let mut store = BlockStore::new(StorageClass::CloudSsd, 36);
            boot_guest(&mut guest, &mut store, &image(), SimTime::ZERO).unwrap()
        };
        assert_eq!(run(), run());
    }
}
