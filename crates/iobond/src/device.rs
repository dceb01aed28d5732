//! A complete IO-Bond device: frontend + shadow queues + interrupts.
//!
//! [`IoBondDevice`] is what gets plugged into the compute board's PCIe
//! bus for each emulated virtio function. It delegates register accesses
//! to the [`VirtioPciFunction`] (charging the FPGA's PCI latency), builds
//! one [`ShadowQueue`] per virtqueue when the guest driver completes the
//! handshake, and latches the used-ring interrupt on completions.

use crate::pool::StagingPool;
use crate::profile::IoBondProfile;
use crate::shadow::{GuestCompletion, ShadowQueue, SyncReport};
use bmhive_faults::{self as faults, FaultKind, FaultSite};
use bmhive_mem::{GuestAddr, GuestRam};
use bmhive_pcie::{ConfigSpace, PciDevice};
use bmhive_sim::{SimDuration, SimTime};
use bmhive_virtio::{status, DeviceType, QueueLayout, VirtioError, VirtioPciFunction};

/// What one service pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceReport {
    /// Per-queue board→base sync results.
    pub tx: Vec<SyncReport>,
    /// Completions delivered to the guest, each timed with its MSI.
    pub completions: Vec<GuestCompletion>,
}

impl ServiceReport {
    /// Empties the report for reuse, keeping buffer capacity.
    pub fn clear(&mut self) {
        self.tx.clear();
        self.completions.clear();
    }
}

/// What a needs-reset recovery accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Base memory consumed by the new shadow rings and staging pools.
    pub base_bytes: u64,
    /// Guest chains that were in flight at the failure and will be
    /// re-popped (replayed) by the next service pass.
    pub replayed_chains: u64,
}

/// One emulated virtio function bridged by IO-Bond.
#[derive(Debug)]
pub struct IoBondDevice {
    profile: IoBondProfile,
    function: VirtioPciFunction,
    shadows: Vec<Option<ShadowQueue>>,
    pci_time: SimDuration,
    /// Staging configuration used when queues activate.
    staging_slots_per_queue: u32,
    staging_slot_size: u32,
    /// EVENT_IDX poll window applied to every shadow queue on
    /// activation (None = each queue's default: its full ring).
    event_window: Option<u16>,
    /// Reused per-queue completion buffer for service passes.
    completion_scratch: Vec<GuestCompletion>,
}

impl IoBondDevice {
    /// Default staging slot size. A chain is staged as one run of slots,
    /// its indirect table first: a jumbo frame or a 16 KiB block request
    /// takes one slot, table included, and a 256 KiB storage request
    /// five. The table must fit the run's first slot; with
    /// `4 × max_queue_size` slots, a 256-entry queue's largest table is
    /// 1,027 entries (16,432 bytes). A chain whose table would not fit
    /// is refused with a typed error.
    pub const DEFAULT_SLOT_SIZE: u32 = 64 * 1024;

    /// Creates the device with its frontend function.
    pub fn new(
        profile: IoBondProfile,
        device_type: DeviceType,
        device_features: u64,
        max_queue_size: u16,
        device_config: Vec<u8>,
    ) -> Self {
        Self::with_queue_count(
            profile,
            device_type,
            device_features,
            max_queue_size,
            device_type.queue_count(),
            device_config,
        )
    }

    /// Like [`new`](Self::new) with an explicit queue count: a
    /// multiqueue virtio-net function bridges one shadow vring per
    /// queue, letting a bm-guest spread its 4 M PPS across rx/tx pairs.
    ///
    /// # Panics
    ///
    /// Panics if `queue_count` is zero.
    pub fn with_queue_count(
        profile: IoBondProfile,
        device_type: DeviceType,
        device_features: u64,
        max_queue_size: u16,
        queue_count: u16,
        device_config: Vec<u8>,
    ) -> Self {
        let function = VirtioPciFunction::with_queue_count(
            device_type,
            device_features,
            max_queue_size,
            queue_count,
            device_config,
        );
        IoBondDevice {
            profile,
            function,
            shadows: (0..queue_count).map(|_| None).collect(),
            pci_time: SimDuration::ZERO,
            staging_slots_per_queue: 4 * u32::from(max_queue_size),
            staging_slot_size: Self::DEFAULT_SLOT_SIZE,
            event_window: None,
            completion_scratch: Vec::new(),
        }
    }

    /// Sets the EVENT_IDX poll window the backend discipline publishes
    /// (see [`ShadowQueue::set_event_window`]). Applies to already-built
    /// shadow queues and to every future activation (recovery epochs
    /// keep the discipline).
    pub fn set_event_idx_window(&mut self, window: u16) {
        self.event_window = Some(window.max(1));
        for shadow in self.shadows.iter_mut().flatten() {
            shadow.set_event_window(window);
        }
    }

    /// The frontend virtio-pci function.
    pub fn function(&self) -> &VirtioPciFunction {
        &self.function
    }

    /// Mutable frontend access.
    pub fn function_mut(&mut self) -> &mut VirtioPciFunction {
        &mut self.function
    }

    /// The hardware profile.
    pub fn profile(&self) -> &IoBondProfile {
        &self.profile
    }

    /// Accumulated guest-side PCI register latency (0.8 µs per access on
    /// the FPGA).
    pub fn pci_time(&self) -> SimDuration {
        self.pci_time
    }

    /// Whether the guest driver has completed the handshake and the
    /// shadow queues are built.
    pub fn is_active(&self) -> bool {
        self.shadows.iter().all(|s| s.is_some())
    }

    /// Builds the shadow queues in base RAM once the guest driver has
    /// reached DRIVER_OK. `base_region` is the start of this device's
    /// reserved base-memory window (shadow rings first, staging pools
    /// after).
    ///
    /// Returns the total base memory consumed.
    ///
    /// # Errors
    ///
    /// Fails if the guest left a queue unconfigured, or base RAM is too
    /// small.
    ///
    /// # Panics
    ///
    /// Panics if the guest driver has not set DRIVER_OK yet.
    pub fn activate(
        &mut self,
        base: &mut GuestRam,
        base_region: GuestAddr,
    ) -> Result<u64, VirtioError> {
        assert!(
            self.function.state().is_live(),
            "activate: guest driver has not reached DRIVER_OK"
        );
        let mut cursor = base_region;
        for (i, slot) in self.shadows.iter_mut().enumerate() {
            let qcfg = self.function.state().queue(i as u16);
            let Some(guest_layout) = qcfg.layout() else {
                return Err(VirtioError::BadIndirect(
                    "queue not configured at DRIVER_OK",
                ));
            };
            let shadow_layout = QueueLayout::contiguous(cursor.align_up(16), guest_layout.size);
            cursor = shadow_layout.desc + shadow_layout.footprint();
            let pool_base = cursor.align_up(4096);
            let pool = StagingPool::new(
                pool_base,
                self.staging_slots_per_queue,
                self.staging_slot_size,
            );
            cursor = pool_base + pool.footprint();
            let mut shadow =
                ShadowQueue::new(self.profile, guest_layout, shadow_layout, pool, base)?;
            if let Some(window) = self.event_window {
                shadow.set_event_window(window);
            }
            *slot = Some(shadow);
        }
        Ok(cursor - base_region)
    }

    /// Deactivates the shadow queues (device reset / guest power-off).
    pub fn deactivate(&mut self) {
        for slot in &mut self.shadows {
            *slot = None;
        }
    }

    /// The backend serving this device died (bm-hypervisor process
    /// crash, compute-board power loss): flag DEVICE_NEEDS_RESET and
    /// raise the config-change interrupt so the guest driver starts
    /// recovery. The shadow state is kept until
    /// [`recover_from_backend_failure`](Self::recover_from_backend_failure)
    /// captures what must be replayed.
    pub fn mark_backend_failed(&mut self) {
        self.function.state_mut().mark_needs_reset();
        self.function.raise_config_isr();
    }

    /// Whether the device is flagged as needing a reset.
    pub fn needs_reset(&self) -> bool {
        self.function.state().device_status() & status::DEVICE_NEEDS_RESET != 0
    }

    /// The full needs-reset recovery path: capture the guest rings'
    /// progress, reset the function, replay the driver handshake with
    /// the same queue layouts, rebuild the shadow queues at
    /// `base_region`, and restore the guest-side cursors so every chain
    /// that was posted but never completed is re-popped — inflight
    /// replay, exactly once.
    ///
    /// The caller owns the backend side: its shadow-ring [`Virtqueue`]s
    /// must be rebuilt from the new layouts (the old backend process is
    /// gone, which is why recovery was needed).
    ///
    /// # Errors
    ///
    /// Fails if the device was never activated or base RAM is too
    /// small for the new epoch.
    ///
    /// [`Virtqueue`]: bmhive_virtio::Virtqueue
    pub fn recover_from_backend_failure(
        &mut self,
        base: &mut GuestRam,
        base_region: GuestAddr,
    ) -> Result<RecoveryReport, VirtioError> {
        // Capture the old epoch: layouts and per-queue ring progress.
        let mut layouts = Vec::with_capacity(self.shadows.len());
        let mut cursors = Vec::with_capacity(self.shadows.len());
        let mut replayed = 0u64;
        for (i, slot) in self.shadows.iter().enumerate() {
            let shadow = slot.as_ref().ok_or(VirtioError::BadIndirect(
                "recovery on a device that was never activated",
            ))?;
            let layout = self
                .function
                .state()
                .queue(i as u16)
                .layout()
                .ok_or(VirtioError::BadIndirect("queue lost its layout"))?;
            let vq = shadow.guest_vq();
            layouts.push(layout);
            cursors.push(vq.used_idx());
            replayed += u64::from(vq.last_avail_idx().wrapping_sub(vq.used_idx()));
        }

        // Reset + re-handshake + rebuild, as the guest driver's
        // config-change handler would.
        self.deactivate();
        self.function.state_mut().set_device_status(0);
        self.function.state_mut().driver_handshake(&layouts);
        let base_bytes = self.activate(base, base_region)?;

        // Inflight replay: rewind each fresh guest-side cursor to the
        // old used index, so [used, avail) pops again.
        for (slot, &used) in self.shadows.iter_mut().zip(&cursors) {
            slot.as_mut()
                .expect("just activated")
                .restore_guest_cursors(used, used);
        }
        faults::note_replayed(FaultSite::Board, replayed);
        Ok(RecoveryReport {
            base_bytes,
            replayed_chains: replayed,
        })
    }

    /// Borrows queue `q`'s shadow pairing (None before activation).
    pub fn shadow(&self, q: usize) -> Option<&ShadowQueue> {
        self.shadows.get(q).and_then(|s| s.as_ref())
    }

    /// Takes the first latched escalation (a retry budget exhausted
    /// during a service pass) from any of this device's shadow queues.
    /// Callers check this after a pass and surface the failure per-op
    /// instead of leaving it as stats-only attribution.
    pub fn take_escalation(&mut self) -> Option<FaultSite> {
        self.shadows
            .iter_mut()
            .flatten()
            .find_map(ShadowQueue::take_escalation)
    }

    /// One full service pass, as IO-Bond's logic runs it continuously:
    /// drain doorbells, sync every queue board → base, then base → board,
    /// latching the used-ring interrupt if anything completed (each
    /// [`GuestCompletion::at`] already includes the MSI's cost). The
    /// caller owns `report` (cleared first) and reuses it across passes,
    /// so a steady-state service loop never allocates.
    ///
    /// # Errors
    ///
    /// Propagates ring-format errors from a misbehaving guest.
    pub fn service_into(
        &mut self,
        board: &mut GuestRam,
        base: &mut GuestRam,
        now: SimTime,
        report: &mut ServiceReport,
    ) -> Result<(), VirtioError> {
        report.clear();
        // Doorbells tell us which queues are hot, but a hardware bridge
        // scans its queues regardless; we drain them for bookkeeping.
        let _ = self.function.take_notifications();
        // A dropped doorbell delays the pass until IO-Bond's periodic
        // ring scan notices the unserviced avail index.
        let now = match faults::take_oneshot(FaultSite::Doorbell, FaultKind::DroppedDoorbell, now) {
            Some(outage) => {
                faults::note_degraded(FaultSite::Doorbell, outage);
                now + outage
            }
            None => now,
        };
        let mut completions = std::mem::take(&mut self.completion_scratch);
        for shadow in self.shadows.iter_mut().flatten() {
            report.tx.push(shadow.sync_to_shadow(board, base, now)?);
            shadow.sync_from_shadow(board, base, now, &mut completions)?;
            if !completions.is_empty() {
                self.function.raise_isr();
            }
            report.completions.extend_from_slice(&completions);
        }
        self.completion_scratch = completions;
        Ok(())
    }
}

impl PciDevice for IoBondDevice {
    fn config(&self) -> &ConfigSpace {
        self.function.config()
    }

    fn config_mut(&mut self) -> &mut ConfigSpace {
        self.function.config_mut()
    }

    fn bar_read(&mut self, bar: usize, offset: u64, width: u8, now: SimTime) -> u32 {
        self.pci_time += self.profile.guest_link().register_access_at(now);
        self.function.bar_read(bar, offset, width, now)
    }

    fn bar_write(&mut self, bar: usize, offset: u64, width: u8, value: u32, now: SimTime) {
        self.pci_time += self.profile.guest_link().register_access_at(now);
        self.function.bar_write(bar, offset, width, value, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_mem::SgSegment;
    use bmhive_virtio::{Feature, QueueLayout, Virtqueue, VirtqueueDriver};

    /// Build a fully-activated net device with driver-side queues.
    struct Rig {
        board: GuestRam,
        base: GuestRam,
        dev: IoBondDevice,
        rx_driver: VirtqueueDriver,
        tx_driver: VirtqueueDriver,
        report: ServiceReport,
    }

    impl Rig {
        /// One service pass into the rig's reused report.
        fn service(&mut self, now: SimTime) -> &ServiceReport {
            self.dev
                .service_into(&mut self.board, &mut self.base, now, &mut self.report)
                .unwrap();
            &self.report
        }
    }

    fn rig() -> Rig {
        let mut board = GuestRam::new(1 << 20);
        let mut base = GuestRam::new(64 << 20);
        let mut dev = IoBondDevice::new(
            IoBondProfile::fpga(),
            DeviceType::Net,
            Feature::NetMac as u64,
            16,
            vec![0; 12],
        );
        let rx_layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 16);
        let tx_layout = QueueLayout::contiguous(GuestAddr::new(0x2000), 16);
        dev.function_mut()
            .state_mut()
            .driver_handshake(&[rx_layout, tx_layout]);
        let consumed = dev.activate(&mut base, GuestAddr::new(0x10_0000)).unwrap();
        assert!(consumed > 0);
        let rx_driver = VirtqueueDriver::new(&mut board, rx_layout).unwrap();
        let tx_driver = VirtqueueDriver::new(&mut board, tx_layout).unwrap();
        Rig {
            board,
            base,
            dev,
            rx_driver,
            tx_driver,
            report: ServiceReport::default(),
        }
    }

    #[test]
    fn activation_builds_all_shadow_queues() {
        let r = rig();
        assert!(r.dev.is_active());
        assert!(r.dev.shadow(0).is_some());
        assert!(r.dev.shadow(1).is_some());
        assert!(r.dev.shadow(2).is_none());
    }

    #[test]
    #[should_panic(expected = "DRIVER_OK")]
    fn activation_before_handshake_panics() {
        let mut base = GuestRam::new(1 << 20);
        let mut dev =
            IoBondDevice::new(IoBondProfile::fpga(), DeviceType::Block, 0, 16, vec![0; 24]);
        let _ = dev.activate(&mut base, GuestAddr::new(0x1000));
    }

    #[test]
    fn tx_flows_to_shadow_and_completes_to_the_guest() {
        let mut r = rig();
        // Guest posts a Tx packet.
        r.board.write(GuestAddr::new(0x8000), b"frame").unwrap();
        let head = r
            .tx_driver
            .add_buf(
                &mut r.board,
                &[SgSegment::new(GuestAddr::new(0x8000), 5)],
                &[],
            )
            .unwrap();
        // IO-Bond services: chain lands in the tx shadow ring.
        assert_eq!(r.service(SimTime::ZERO).tx[1].chains, 1);
        // Backend (acting on the shadow ring) consumes and completes.
        let mut backend = Virtqueue::new(r.dev.shadow(1).unwrap().shadow_layout());
        let chain = backend.pop_avail(&r.base).unwrap().unwrap();
        assert_eq!(chain.readable.gather(&r.base).unwrap(), b"frame");
        backend.push_used(&mut r.base, chain.head, 0).unwrap();
        // Next service pass returns the completion.
        let report = r.service(SimTime::from_micros(5));
        assert_eq!(report.completions.len(), 1);
        assert_eq!(report.completions[0].guest_head, head);
        // The pass latched the used-ring bit in the ISR window.
        assert_eq!(r.dev.bar_read(0, 0x1000, 1, SimTime::from_micros(5)), 1);
        assert_eq!(r.tx_driver.poll_used(&r.board).unwrap(), Some((head, 0)));
    }

    #[test]
    fn bar_accesses_accumulate_fpga_latency() {
        let mut r = rig();
        let before = r.dev.pci_time();
        r.dev.bar_read(0, 0x14, 1, SimTime::ZERO); // device status
        r.dev.bar_write(0, 0x3000, 2, 0, SimTime::ZERO); // notify
        let elapsed = r.dev.pci_time() - before;
        assert_eq!(elapsed, SimDuration::from_nanos(1600));
    }

    #[test]
    fn deactivate_clears_shadows() {
        let mut r = rig();
        r.dev.deactivate();
        assert!(!r.dev.is_active());
        assert!(r.dev.shadow(0).is_none());
    }

    #[test]
    fn backend_failure_recovery_replays_inflight_chains() {
        let mut r = rig();
        // Chain staged into the shadow ring, never completed: the
        // backend dies with it in flight.
        r.board.write(GuestAddr::new(0x8000), b"lost?").unwrap();
        let head = r
            .tx_driver
            .add_buf(
                &mut r.board,
                &[SgSegment::new(GuestAddr::new(0x8000), 5)],
                &[],
            )
            .unwrap();
        r.service(SimTime::ZERO);
        let mut heads = Vec::new();
        r.dev
            .shadow(1)
            .unwrap()
            .inflight_guest_heads_into(&mut heads);
        assert_eq!(heads, vec![head]);

        r.dev.mark_backend_failed();
        assert!(r.dev.needs_reset());

        let report = r
            .dev
            .recover_from_backend_failure(&mut r.base, GuestAddr::new(0x300_0000))
            .unwrap();
        assert_eq!(report.replayed_chains, 1);
        assert!(!r.dev.needs_reset());
        assert!(r.dev.is_active());

        // The next service pass re-stages the chain; a fresh backend
        // completes it and the guest sees exactly one completion.
        r.service(SimTime::from_micros(1));
        let mut backend = Virtqueue::new(r.dev.shadow(1).unwrap().shadow_layout());
        let chain = backend.pop_avail(&r.base).unwrap().unwrap();
        assert_eq!(chain.readable.gather(&r.base).unwrap(), b"lost?");
        backend.push_used(&mut r.base, chain.head, 0).unwrap();
        r.service(SimTime::from_micros(2));
        assert_eq!(r.tx_driver.poll_used(&r.board).unwrap(), Some((head, 0)));
        assert_eq!(r.tx_driver.poll_used(&r.board).unwrap(), None);
    }

    #[test]
    fn recovery_before_activation_is_an_error() {
        let mut base = GuestRam::new(1 << 20);
        let mut dev =
            IoBondDevice::new(IoBondProfile::fpga(), DeviceType::Block, 0, 16, vec![0; 24]);
        assert!(dev
            .recover_from_backend_failure(&mut base, GuestAddr::new(0x1000))
            .is_err());
    }

    #[test]
    fn rx_buffer_flow_end_to_end() {
        let mut r = rig();
        // Guest pre-posts rx buffers (as net drivers do).
        let head = r
            .rx_driver
            .add_buf(
                &mut r.board,
                &[],
                &[SgSegment::new(GuestAddr::new(0xa000), 256)],
            )
            .unwrap();
        r.service(SimTime::ZERO);
        // Backend receives a packet from the vSwitch and fills the buffer.
        let mut backend = Virtqueue::new(r.dev.shadow(0).unwrap().shadow_layout());
        let chain = backend.pop_avail(&r.base).unwrap().unwrap();
        chain.writable.scatter(&mut r.base, b"incoming").unwrap();
        backend.push_used(&mut r.base, chain.head, 8).unwrap();
        assert_eq!(r.service(SimTime::from_micros(2)).completions.len(), 1);
        assert_eq!(r.rx_driver.poll_used(&r.board).unwrap(), Some((head, 8)));
        assert_eq!(
            r.board.read_vec(GuestAddr::new(0xa000), 8).unwrap(),
            b"incoming"
        );
    }
}
