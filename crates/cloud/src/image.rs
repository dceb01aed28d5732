//! Machine images.
//!
//! Interoperability (§3.1) requires that "a bm-guest can be run in a VM
//! as well ... From the user perspective, they only need to provide a VM
//! image, which can be run as either a VM or a bm-guest." An image here
//! is the bootable layout of a cloud volume: where the bootloader and
//! kernel live, so the EFI firmware's virtio-blk boot path (§3.2) can
//! fetch them.

/// An image identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageId(pub u64);

/// A bootable machine image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineImage {
    /// Identifier.
    pub id: ImageId,
    /// Human-readable name, e.g. `"centos-7.4-virtio"`.
    pub name: String,
    /// First sector of the bootloader.
    pub bootloader_sector: u64,
    /// Bootloader length in sectors.
    pub bootloader_sectors: u64,
    /// First sector of the kernel.
    pub kernel_sector: u64,
    /// Kernel length in sectors.
    pub kernel_sectors: u64,
    /// Total image size in bytes.
    pub size_bytes: u64,
    /// Whether the image's OS carries virtio drivers (all modern images
    /// do; an image without them cannot boot on either platform).
    pub has_virtio_drivers: bool,
}

impl MachineImage {
    /// The evaluation image: "the same operating system created from one
    /// VM image. The kernel version was 3.10.0-514.26.2.el7" (§4.2).
    pub fn centos_evaluation(id: u64) -> Self {
        MachineImage {
            id: ImageId(id),
            name: "centos-7.4-3.10.0-514.26.2.el7".to_string(),
            bootloader_sector: 2048,
            bootloader_sectors: 4096, // 2 MiB of GRUB
            kernel_sector: 8192,
            kernel_sectors: 12288, // 6 MiB vmlinuz
            size_bytes: 40 << 30,  // 40 GiB root volume
            has_virtio_drivers: true,
        }
    }

    /// Sectors the firmware must read to load bootloader + kernel.
    pub fn boot_sectors(&self) -> u64 {
        self.bootloader_sectors + self.kernel_sectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_image_is_bootable() {
        let img = MachineImage::centos_evaluation(1);
        assert!(img.has_virtio_drivers);
        assert!(img.boot_sectors() > 0);
        assert!(img.kernel_sector > img.bootloader_sector);
        assert!(img.name.contains("3.10.0-514.26.2.el7"));
    }
}
