//! Failure injection: device resets mid-flight, backend death, staging
//! exhaustion, and recovery. The bm-hypervisor "manages the life cycle
//! of all its bm-guests" (§1) — which includes surviving their worst
//! days.

use bmhive_core::prelude::*;
use bmhive_iobond::{IoBondDevice, ServiceReport};
use bmhive_mem::{GuestAddr, GuestRam, SgSegment};
use bmhive_virtio::{DeviceType, Feature, Virtqueue, VirtqueueDriver};

#[test]
fn device_reset_clears_and_reactivates() {
    let mut board = GuestRam::new(1 << 20);
    let mut base = GuestRam::new(64 << 20);
    let mut dev = IoBondDevice::new(
        IoBondProfile::fpga(),
        DeviceType::Block,
        Feature::BlkFlush as u64,
        32,
        vec![0; 24],
    );
    let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 32);
    dev.function_mut().state_mut().driver_handshake(&[layout]);
    dev.activate(&mut base, GuestAddr::new(0x10_0000)).unwrap();
    assert!(dev.shadow(0).is_some());

    // Guest posts a chain, IO-Bond stages it...
    let mut driver = VirtqueueDriver::new(&mut board, layout).unwrap();
    board.write(GuestAddr::new(0x8000), b"inflight").unwrap();
    driver
        .add_buf(
            &mut board,
            &[SgSegment::new(GuestAddr::new(0x8000), 8)],
            &[],
        )
        .unwrap();
    let mut pass = ServiceReport::default();
    dev.service_into(&mut board, &mut base, SimTime::ZERO, &mut pass)
        .unwrap();
    assert_eq!(dev.shadow(0).unwrap().inflight_count(), 1);

    // ...then the guest resets the device (status write 0).
    dev.function_mut().state_mut().set_device_status(0);
    dev.deactivate();
    assert!(dev.shadow(0).is_none());

    // Re-handshake and re-activate: a clean new epoch.
    dev.function_mut().state_mut().driver_handshake(&[layout]);
    dev.activate(&mut base, GuestAddr::new(0x200_0000)).unwrap();
    assert_eq!(dev.shadow(0).unwrap().inflight_count(), 0);
}

#[test]
fn backend_failure_marks_device_needs_reset() {
    // The per-guest bm-hypervisor process dies with one chain posted
    // but never completed; recovery must flag the device, re-handshake
    // a fresh epoch, and replay exactly that chain.
    let mut board = GuestRam::new(1 << 20);
    let mut base = GuestRam::new(64 << 20);
    let mut dev = IoBondDevice::new(IoBondProfile::fpga(), DeviceType::Net, 0, 16, vec![0; 12]);
    // A net function has an rx and a tx queue; both must be configured.
    let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 16);
    let tx_layout = QueueLayout::contiguous((layout.used + layout.footprint()).align_up(4096), 16);
    dev.function_mut()
        .state_mut()
        .driver_handshake(&[layout, tx_layout]);
    dev.activate(&mut base, GuestAddr::new(0x10_0000)).unwrap();

    let mut driver = VirtqueueDriver::new(&mut board, layout).unwrap();
    board.write(GuestAddr::new(0x8000), b"inflight").unwrap();
    let head = driver
        .add_buf(
            &mut board,
            &[SgSegment::new(GuestAddr::new(0x8000), 8)],
            &[],
        )
        .unwrap();
    let mut pass = ServiceReport::default();
    dev.service_into(&mut board, &mut base, SimTime::ZERO, &mut pass)
        .unwrap();
    assert_eq!(dev.shadow(0).unwrap().inflight_count(), 1);

    // The backend process dies: the control plane latches needs-reset
    // and raises the config-change interrupt.
    assert!(!dev.needs_reset());
    dev.mark_backend_failed();
    assert!(dev.needs_reset());

    // Recovery: reset + re-handshake + rebuild at a fresh base region,
    // rewinding the guest cursors so the inflight chain replays.
    let report = dev
        .recover_from_backend_failure(&mut base, GuestAddr::new(0x200_0000))
        .unwrap();
    assert_eq!(report.replayed_chains, 1);
    assert!(!dev.needs_reset());
    assert!(dev.shadow(0).is_some() && dev.shadow(1).is_some());

    // The replacement backend drains the fresh shadow ring: it sees
    // the replayed chain exactly once, and the guest reaps exactly one
    // completion.
    dev.service_into(&mut board, &mut base, SimTime::from_micros(10), &mut pass)
        .unwrap();
    let mut backend = Virtqueue::new(dev.shadow(0).unwrap().shadow_layout());
    let chain = backend.pop_avail(&base).unwrap().expect("replayed chain");
    let mut msg = Vec::new();
    chain.readable.gather_into(&base, &mut msg).unwrap();
    assert_eq!(msg, b"inflight");
    backend.push_used(&mut base, chain.head, 0).unwrap();
    assert!(backend.pop_avail(&base).unwrap().is_none(), "exactly once");
    dev.service_into(&mut board, &mut base, SimTime::from_micros(20), &mut pass)
        .unwrap();
    let (reaped, _) = driver.poll_used(&board).unwrap().expect("completion");
    assert_eq!(reaped, head);
    assert!(driver.poll_used(&board).unwrap().is_none());
}

#[test]
fn staging_exhaustion_backpressures_and_recovers() {
    // A tiny pool forces deferral; completions free slots; the deferred
    // chain then flows. No loss, no duplication.
    let mut board = GuestRam::new(1 << 20);
    let mut base = GuestRam::new(8 << 20);
    let guest_layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 8);
    let shadow_layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 8);
    let pool = bmhive_iobond::StagingPool::new(GuestAddr::new(0x40_0000), 2, 4096);
    let mut shadow = bmhive_iobond::ShadowQueue::new(
        IoBondProfile::fpga(),
        guest_layout,
        shadow_layout,
        pool,
        &mut base,
    )
    .unwrap();
    let mut driver = VirtqueueDriver::new(&mut board, guest_layout).unwrap();
    let mut backend = Virtqueue::new(shadow.shadow_layout());

    let mut completed = Vec::new();
    let mut scratch = Vec::new();
    for round in 0..6u64 {
        board
            .write(
                GuestAddr::new(0x8000 + round * 0x100),
                format!("m{round}").as_bytes(),
            )
            .unwrap();
        driver
            .add_buf(
                &mut board,
                &[SgSegment::new(GuestAddr::new(0x8000 + round * 0x100), 2)],
                &[],
            )
            .unwrap();
        shadow
            .sync_to_shadow(&board, &mut base, SimTime::from_micros(round))
            .unwrap();
        // Backend drains whatever made it through.
        while let Some(chain) = backend.pop_avail(&base).unwrap() {
            let mut msg = Vec::new();
            chain.readable.gather_into(&base, &mut msg).unwrap();
            completed.push(String::from_utf8(msg).unwrap());
            backend.push_used(&mut base, chain.head, 0).unwrap();
        }
        shadow
            .sync_from_shadow(&mut board, &base, SimTime::from_micros(round), &mut scratch)
            .unwrap();
        while driver.poll_used(&board).unwrap().is_some() {}
    }
    // Final drain of any deferred stragglers.
    for extra in 0..4u64 {
        shadow
            .sync_to_shadow(&board, &mut base, SimTime::from_micros(10 + extra))
            .unwrap();
        while let Some(chain) = backend.pop_avail(&base).unwrap() {
            let mut msg = Vec::new();
            chain.readable.gather_into(&base, &mut msg).unwrap();
            completed.push(String::from_utf8(msg).unwrap());
            backend.push_used(&mut base, chain.head, 0).unwrap();
        }
        shadow
            .sync_from_shadow(
                &mut board,
                &base,
                SimTime::from_micros(10 + extra),
                &mut scratch,
            )
            .unwrap();
        while driver.poll_used(&board).unwrap().is_some() {}
    }
    let expect: Vec<String> = (0..6).map(|i| format!("m{i}")).collect();
    assert_eq!(completed, expect, "every message exactly once, in order");
    assert_eq!(shadow.deferred_count(), 0);
    assert_eq!(shadow.inflight_count(), 0);
}

#[test]
fn image_without_drivers_fails_cleanly_everywhere() {
    let mut image = MachineImage::centos_evaluation(5);
    image.has_virtio_drivers = false;
    let mut store = BlockStore::new(StorageClass::CloudSsd, 5);
    let mut bm = BmGuestSession::new(
        IoBondProfile::fpga(),
        MacAddr::for_guest(1),
        64,
        InstanceLimits::production(),
    );
    let mut vm = VmGuestSession::new(MacAddr::for_guest(2), 64, InstanceLimits::production(), 5);
    assert!(boot_guest(&mut bm, &mut store, &image, SimTime::ZERO).is_err());
    assert!(boot_guest(&mut vm, &mut store, &image, SimTime::ZERO).is_err());
}
