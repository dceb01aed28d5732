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
//!
//! Each chunk lands in a guest buffer (board RAM for a bm-guest, guest
//! RAM for a vm-guest), which is where a real firmware executes it. The
//! reap reads only the status byte: no chunk is copied back out into
//! host memory, so a chunk costs the backend's fill and the transport's
//! copy into guest memory, and nothing more.

use bmhive_cloud::blockstore::BlockStore;
use bmhive_cloud::image::MachineImage;
use bmhive_sim::{SimDuration, SimTime};
use bmhive_virtio::{BlkRequestHeader, BlkRequestType, BlkStatus, SECTOR_SIZE};

use crate::{GuestSession, SessionError, Transport};

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

/// Boots `image` on `target`: firmware reads the bootloader, the
/// bootloader reads the kernel, all over virtio-blk from `store`.
///
/// # Errors
///
/// Fails if the image lacks virtio drivers (it cannot boot on either
/// platform) or a read fails.
pub fn boot_guest<T: Transport>(
    target: &mut GuestSession<T>,
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
    for (start, len) in [
        (image.bootloader_sector, image.bootloader_sectors),
        (image.kernel_sector, image.kernel_sectors),
    ] {
        let mut at = start;
        let end = start + len;
        while at < end {
            let chunk = (end - at).min(BOOT_CHUNK_SECTORS);
            // The chunk lands in a guest buffer, where the firmware runs
            // it; none of it is copied back out to the host.
            let header = BlkRequestHeader::new(BlkRequestType::In, at);
            let (status, timing) =
                target.blk_request_into(store, header, &[], chunk * SECTOR_SIZE, now, None)?;
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
    use crate::session::{volume_byte, GuestDriver};
    use crate::{BmGuestSession, VmGuestSession};
    use bmhive_cloud::blockstore::StorageClass;
    use bmhive_cloud::limits::InstanceLimits;
    use bmhive_iobond::IoBondProfile;
    use bmhive_mem::GuestRam;
    use bmhive_net::MacAddr;
    use bmhive_virtio::Virtqueue;

    fn image() -> MachineImage {
        MachineImage::centos_evaluation(1)
    }

    fn bm() -> BmGuestSession {
        BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(1),
            64,
            InstanceLimits::production(),
        )
    }

    /// The evaluation image booted on a bm-guest.
    fn booted_bm() -> (BmGuestSession, BootReport) {
        let mut guest = bm();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 33);
        let report = boot_guest(&mut guest, &mut store, &image(), SimTime::ZERO).unwrap();
        (guest, report)
    }

    /// The evaluation image booted on a vm-guest.
    fn booted_vm() -> (VmGuestSession, BootReport) {
        let mut vm =
            VmGuestSession::new(MacAddr::for_guest(2), 64, InstanceLimits::production(), 3);
        let mut store = BlockStore::new(StorageClass::CloudSsd, 34);
        let report = boot_guest(&mut vm, &mut store, &image(), SimTime::ZERO).unwrap();
        (vm, report)
    }

    #[test]
    fn bm_guest_boots_from_cloud_storage() {
        let (_, report) = booted_bm();
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
        let (_, report) = booted_vm();
        assert_eq!(report.sectors_read, image().boot_sectors());
    }

    #[test]
    fn evaluation_image_boot_reports_are_pinned_on_both_platforms() {
        // The firmware's reads reap without copying their data out, which
        // moves no simulated time: the reports keep these exact values.
        for (report, finished_ns) in [(booted_bm().1, 18_737_651), (booted_vm().1, 20_248_234)] {
            let finished_at = SimTime::from_nanos(finished_ns);
            assert_eq!(
                report,
                BootReport {
                    sectors_read: 16384,
                    requests: 64,
                    finished_at,
                    duration: finished_at.saturating_duration_since(SimTime::ZERO),
                }
            );
        }
    }

    /// The data bytes of the last blk chain the guest posted, read back
    /// from the descriptors still in its ring: the buffer the firmware's
    /// last chunk landed in.
    fn last_blk_read(guest: &GuestDriver, ram: &GuestRam) -> Vec<u8> {
        let layout = guest.layouts()[2];
        let avail_idx = u16::from_le_bytes(ram.read_array::<2>(layout.avail + 2).unwrap());
        let mut ring = Virtqueue::new(layout);
        ring.restore_cursors(avail_idx.wrapping_sub(1), 0);
        let chain = ring.pop_avail(ram).unwrap().expect("the last chain");
        // The writable part is the data, then the status byte.
        let (data, _) = chain.writable.split_at(chain.writable.total_len() - 1);
        let mut bytes = Vec::new();
        data.gather_into(ram, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn the_image_really_lands_in_guest_memory() {
        let img = image();
        let end = img.kernel_sector + img.kernel_sectors;
        let last_chunk = (img.kernel_sectors - 1) % BOOT_CHUNK_SECTORS + 1;
        let sector = end - last_chunk;
        let expect: Vec<u8> = (0..last_chunk * SECTOR_SIZE)
            .map(|i| volume_byte(sector, i))
            .collect();

        let (mut guest, _) = booted_bm();
        let (driver, board) = guest.guest_mut();
        assert!(last_blk_read(driver, board) == expect, "bm-guest board RAM");
        let (mut vm, _) = booted_vm();
        let (driver, ram) = vm.guest_mut();
        assert!(last_blk_read(driver, ram) == expect, "vm-guest RAM");
    }

    #[test]
    fn image_without_virtio_drivers_cannot_boot() {
        let mut img = image();
        img.has_virtio_drivers = false;
        let mut guest = bm();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 35);
        assert!(boot_guest(&mut guest, &mut store, &img, SimTime::ZERO).is_err());
    }

    #[test]
    fn boot_is_deterministic() {
        let run = || {
            let mut guest = bm();
            let mut store = BlockStore::new(StorageClass::CloudSsd, 36);
            boot_guest(&mut guest, &mut store, &image(), SimTime::ZERO).unwrap()
        };
        assert_eq!(run(), run());
    }
}
