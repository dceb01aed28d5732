//! IO-Bond hardware profiles.

use bmhive_mem::DmaModel;
use bmhive_pcie::PcieLink;
use bmhive_sim::SimDuration;

/// The latency/bandwidth constants of one IO-Bond implementation.
///
/// Two built-in profiles reproduce the paper:
///
/// * [`IoBondProfile::fpga`] — the deployed "low cost FPGA" (Intel Arria):
///   0.8 µs per PCI register access on either side, so an emulated PCI
///   access observed by the guest costs a constant 1.6 µs (§3.4.3).
/// * [`IoBondProfile::asic`] — the §6 projection: "a 75% reduction in the
///   PCI response time from 0.8 µs to 0.2 µs".
///
/// # Example
///
/// ```
/// use bmhive_iobond::IoBondProfile;
/// use bmhive_sim::SimDuration;
///
/// let fpga = IoBondProfile::fpga();
/// assert_eq!(fpga.emulated_pci_access(), SimDuration::from_nanos(1600));
/// let asic = IoBondProfile::asic();
/// assert_eq!(asic.emulated_pci_access(), SimDuration::from_nanos(400));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoBondProfile {
    name: &'static str,
    guest_link: PcieLink,
    base_link: PcieLink,
    dma: DmaModel,
}

impl IoBondProfile {
    /// The deployed FPGA implementation (§3.4.3).
    pub fn fpga() -> Self {
        IoBondProfile {
            name: "fpga",
            guest_link: PcieLink::iobond_fpga_x4(),
            base_link: PcieLink::iobond_fpga_x8(),
            // 50 Gbit/s internal DMA; the setup cost is one descriptor
            // fetch over the internal fabric.
            dma: DmaModel::new(50.0, SimDuration::from_nanos(250)),
        }
    }

    /// The projected ASIC implementation (§6): 4× lower register latency,
    /// same DMA fabric.
    pub fn asic() -> Self {
        IoBondProfile {
            name: "asic",
            guest_link: PcieLink::iobond_asic_x4(),
            base_link: PcieLink::new(bmhive_pcie::LinkGen::Gen3, 8, SimDuration::from_nanos(200)),
            dma: DmaModel::new(50.0, SimDuration::from_nanos(100)),
        }
    }

    /// Profile name (`"fpga"` or `"asic"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The compute-board-facing link (x4 per virtio device).
    pub fn guest_link(&self) -> &PcieLink {
        &self.guest_link
    }

    /// The base-facing link (x8, shared by the device pair).
    pub fn base_link(&self) -> &PcieLink {
        &self.base_link
    }

    /// The internal DMA engine model, which caps each guest's bandwidth
    /// (the paper: "the maximum bandwidth for each bm-guest is 50 Gbps").
    pub fn dma(&self) -> &DmaModel {
        &self.dma
    }

    /// Cost of one guest-side PCI register access (guest → IO-Bond).
    pub fn guest_register_access(&self) -> SimDuration {
        self.guest_link.register_access()
    }

    /// Cost of one base-side register access (bm-hypervisor → IO-Bond
    /// mailbox / head / tail registers).
    pub fn base_register_access(&self) -> SimDuration {
        self.base_link.register_access()
    }

    /// The constant cost of a fully emulated PCI access: the guest hop
    /// plus the mailbox hop (the paper's 1.6 µs).
    pub fn emulated_pci_access(&self) -> SimDuration {
        self.guest_register_access() + self.base_register_access()
    }
}

impl Default for IoBondProfile {
    fn default() -> Self {
        Self::fpga()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpga_matches_paper_constants() {
        let p = IoBondProfile::fpga();
        assert_eq!(p.guest_register_access(), SimDuration::from_nanos(800));
        assert_eq!(p.base_register_access(), SimDuration::from_nanos(800));
        assert_eq!(p.emulated_pci_access(), SimDuration::from_nanos(1600));
        assert_eq!(p.dma().bandwidth_gbps(), 50.0);
        assert_eq!(p.name(), "fpga");
    }

    #[test]
    fn asic_cuts_register_latency_75_percent() {
        let fpga = IoBondProfile::fpga();
        let asic = IoBondProfile::asic();
        let f = fpga.guest_register_access().as_nanos() as f64;
        let a = asic.guest_register_access().as_nanos() as f64;
        assert!((a / f - 0.25).abs() < 1e-9);
    }

    #[test]
    fn per_device_links_are_x4_backed_by_x8() {
        let p = IoBondProfile::fpga();
        assert_eq!(p.guest_link().lanes(), 4);
        assert_eq!(p.base_link().lanes(), 8);
        // The x8 uplink covers both x4 device links.
        assert!(p.base_link().bandwidth_gbps() >= 2.0 * p.guest_link().bandwidth_gbps() * 0.99);
    }

    #[test]
    fn default_is_fpga() {
        assert_eq!(IoBondProfile::default(), IoBondProfile::fpga());
    }
}
