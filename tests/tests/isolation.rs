//! Isolation and adversarial-guest tests: the security claims of
//! Table 1, exercised against the functional machinery.
//!
//! A bm-guest is "less constrained and thus more powerful than
//! vm-guests" (§3.1): it controls every byte of its board RAM, including
//! its virtqueues. These tests feed the backend hostile ring state and
//! verify the bm-hypervisor side survives with typed errors, never
//! panics, and never lets one tenant disturb another.

use bmhive_core::prelude::*;
use bmhive_mem::{GuestAddr, GuestRam};
use bmhive_virtio::VirtioError;

#[test]
fn forged_ring_state_yields_errors_not_panics() {
    // Drive a raw shadow pairing with garbage in the guest ring.
    let mut board = GuestRam::new(1 << 20);
    let mut base = GuestRam::new(4 << 20);
    let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 16);
    let shadow_layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 16);
    let pool = bmhive_iobond::StagingPool::new(GuestAddr::new(0x100_000), 64, 4096);
    let mut shadow = bmhive_iobond::ShadowQueue::new(
        IoBondProfile::fpga(),
        layout,
        shadow_layout,
        GuestAddr::new(0x8_0000),
        pool,
        &mut base,
    )
    .unwrap();

    // Malicious avail entries: out-of-range heads, looping chains,
    // enormous lengths.
    board
        .write_u16(GuestAddr::new(0x1000 + 16 * 16 + 4), 999)
        .unwrap(); // avail[0] head
    board
        .write_u16(GuestAddr::new(0x1000 + 16 * 16 + 2), 1)
        .unwrap(); // avail idx
    let err = shadow
        .sync_to_shadow(&board, &mut base, SimTime::ZERO)
        .unwrap_err();
    assert!(matches!(err, VirtioError::BadHeadIndex(_)));

    // Self-loop.
    board.write_u64(GuestAddr::new(0x1000), 0x5000).unwrap();
    board.write_u32(GuestAddr::new(0x1000 + 8), 64).unwrap();
    board.write_u16(GuestAddr::new(0x1000 + 12), 1).unwrap(); // NEXT
    board.write_u16(GuestAddr::new(0x1000 + 14), 0).unwrap(); // -> itself
    board
        .write_u16(GuestAddr::new(0x1000 + 16 * 16 + 4), 0)
        .unwrap();
    board
        .write_u16(GuestAddr::new(0x1000 + 16 * 16 + 2), 2)
        .unwrap();
    let err = shadow
        .sync_to_shadow(&board, &mut base, SimTime::ZERO)
        .unwrap_err();
    assert_eq!(err, VirtioError::ChainTooLong);

    // The pairing still works for an honest chain afterwards.
    assert_eq!(shadow.deferred_count(), 0);
}

#[test]
fn forged_avail_index_jump_stages_no_head_twice() {
    // A raw shadow pairing whose guest posts one buffer, then forges the
    // avail index to 1000 on a 16-entry ring.
    let mut board = GuestRam::new(1 << 20);
    let mut base = GuestRam::new(4 << 20);
    let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 16);
    let shadow_layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 16);
    let pool = bmhive_iobond::StagingPool::new(GuestAddr::new(0x100_000), 64, 4096);
    let mut shadow = bmhive_iobond::ShadowQueue::new(
        IoBondProfile::fpga(),
        layout,
        shadow_layout,
        GuestAddr::new(0x8_0000),
        pool,
        &mut base,
    )
    .unwrap();
    let avail_idx = layout.avail + 2;
    board.write_u64(layout.desc, 0x5000).unwrap(); // desc[0]: 64 B, no NEXT
    board.write_u32(layout.desc + 8, 64).unwrap();
    board.write_u16(layout.avail + 4, 0).unwrap(); // avail[0] head
    board.write_u16(avail_idx, 1000).unwrap();

    // Every slot the forged index claims names head 0; the device must
    // refuse the jump rather than stage that head again and again.
    let err = shadow
        .sync_to_shadow(&board, &mut base, SimTime::ZERO)
        .unwrap_err();
    assert_eq!(
        err,
        VirtioError::AvailIdxJump {
            pending: 1000,
            size: 16
        }
    );
    assert_eq!(shadow.inflight_count(), 0);
    assert_eq!(shadow.deferred_count(), 0);

    // Once the guest restores the honest index, head 0 is staged once.
    board.write_u16(avail_idx, 1).unwrap();
    let report = shadow
        .sync_to_shadow(&board, &mut base, SimTime::ZERO)
        .unwrap();
    assert_eq!(report.chains, 1);
    assert_eq!(shadow.inflight_count(), 1);
}

#[test]
fn hostile_tenant_cannot_disturb_a_neighbour() {
    let mut server = BmHiveServer::new(ServerConstraints::production(), 10);
    let image = MachineImage::centos_evaluation(1);
    let e5 = &INSTANCE_CATALOG[0];
    let attacker_board = server.install_board(e5).unwrap();
    let victim_board = server.install_board(e5).unwrap();
    let attacker = server
        .power_on(attacker_board, &image, SimTime::ZERO)
        .unwrap();
    let victim = server
        .power_on(victim_board, &image, SimTime::ZERO)
        .unwrap();

    // The attacker runs storage flat-out at its cap (25 K IOPS = one op
    // per 40 µs) while the victim issues occasional reads, interleaved
    // in time order.
    let mut t = SimTime::from_secs(1);
    let mut victim_worst = SimDuration::ZERO;
    for i in 0..500u64 {
        let (_, _, timing) = server
            .guest_blk(attacker, BlkRequestType::In, i, &[], 4096, t)
            .unwrap();
        t = timing.submitted + SimDuration::from_micros(40);
        if i % 50 == 0 {
            // The victim's own I/O still completes promptly: the
            // attacker's cap leaves the striped store far from
            // saturated, and each tenant's limiter is its own.
            let (status, _, vt) = server
                .guest_blk(victim, BlkRequestType::In, i, &[], 4096, t)
                .unwrap();
            assert_eq!(status, BlkStatus::Ok);
            victim_worst = victim_worst.max(vt.latency());
            t = t.max(vt.submitted + SimDuration::from_micros(40));
        }
    }
    assert!(
        victim_worst < SimDuration::from_millis(5),
        "victim worst latency {victim_worst} under attack"
    );
}

#[test]
fn guest_memory_is_never_shared_between_tenants() {
    // Two sessions write the same guest-physical address; each sees only
    // its own bytes (dedicated board RAM, not EPT tricks).
    let mut a = BmGuestSession::new(
        IoBondProfile::fpga(),
        MacAddr::for_guest(1),
        64,
        InstanceLimits::unrestricted(),
    );
    let mut b = BmGuestSession::new(
        IoBondProfile::fpga(),
        MacAddr::for_guest(2),
        64,
        InstanceLimits::unrestricted(),
    );
    let (mut frame_a, mut frame_b) = (Vec::new(), Vec::new());
    a.net_send(
        MacAddr::for_guest(2),
        PacketKind::Udp,
        b"tenant-a-secret",
        SimTime::ZERO,
        &mut frame_a,
    )
    .unwrap();
    b.net_send(
        MacAddr::for_guest(1),
        PacketKind::Udp,
        b"tenant-b-data",
        SimTime::ZERO,
        &mut frame_b,
    )
    .unwrap();
    assert_eq!(frame_a, b"tenant-a-secret");
    assert_eq!(frame_b, b"tenant-b-data");
}

#[test]
fn service_profiles_encode_the_table1_claims() {
    let vm = ServiceProfile::of(ServiceKind::VmBased);
    let st = ServiceProfile::of(ServiceKind::SingleTenantBareMetal);
    let bm = ServiceProfile::of(ServiceKind::BmHive);
    // Side channels: only the shared-microarchitecture service.
    assert!(vm.side_channel_exposed());
    assert!(!st.side_channel_exposed() && !bm.side_channel_exposed());
    // Firmware: only the single-tenant service hands it to the tenant.
    assert!(st.provider_exposed_to_tenant());
    assert!(!bm.provider_exposed_to_tenant());
    // Cloud integration: the single-tenant box is the odd one out.
    assert!(vm.provider_controls_io && bm.provider_controls_io);
    assert!(!st.provider_controls_io);
}

#[test]
fn unsupported_requests_are_contained() {
    // A guest issuing garbage virtio-blk request types gets a status
    // byte back, not a wedged queue.
    let mut session = BmGuestSession::new(
        IoBondProfile::fpga(),
        MacAddr::for_guest(1),
        64,
        InstanceLimits::unrestricted(),
    );
    let mut store = BlockStore::new(StorageClass::CloudSsd, 5);
    let mut frame = Vec::new();
    for raw in [3u32, 5, 7, 100] {
        let (status, _) = session
            .blk_request(
                &mut store,
                BlkRequestHeader::new(BlkRequestType::Unsupported(raw), 0),
                &[],
                0,
                SimTime::ZERO,
                &mut frame,
            )
            .unwrap();
        assert_eq!(status, BlkStatus::Unsupported);
    }
    // Queue still serves honest requests.
    let (status, _) = session
        .blk_request(
            &mut store,
            BlkRequestHeader::new(BlkRequestType::In, 0),
            &[],
            512,
            SimTime::ZERO,
            &mut frame,
        )
        .unwrap();
    assert_eq!(status, BlkStatus::Ok);
    assert_eq!(frame.len(), 512);
}
