//! End-to-end: a full BM-Hive server hosting the maximum tenant count,
//! every guest booting from the same image and doing real I/O.

use bmhive_core::prelude::*;

#[test]
fn sixteen_tenants_boot_and_do_io_on_one_server() {
    let mut server = BmHiveServer::new(ServerConstraints::production(), 1);
    let image = MachineImage::centos_evaluation(1);
    let atom = INSTANCE_CATALOG
        .iter()
        .find(|i| i.name.contains("atom"))
        .expect("atom instance");

    // Fill the chassis.
    let mut guests = Vec::new();
    while let Ok(board) = server.install_board(atom) {
        let guest = server
            .power_on(board, &image, SimTime::ZERO)
            .expect("boots");
        guests.push(guest);
    }
    assert_eq!(guests.len(), 16, "the abstract's 16-guest density");

    // Every tenant reads its disk and sends a packet.
    for (i, &guest) in guests.iter().enumerate() {
        let t = SimTime::from_secs(1 + i as u64);
        let (status, data, _) = server
            .guest_blk(guest, BlkRequestType::In, 4096, &[], 4096, t)
            .expect("read");
        assert_eq!(status, BlkStatus::Ok);
        assert_eq!(data.len(), 4096);
        server
            .guest_send(guest, MacAddr::for_guest(100), b"uplink", t)
            .expect("send");
    }

    // All tenants accounted for; power two off and reuse their boards.
    assert!(guests.iter().all(|&g| server.guest_mac(g).is_ok()));
    server.power_off(guests[0]).unwrap();
    server.power_off(guests[15]).unwrap();
    let live = guests.iter().filter(|&&g| server.guest_mac(g).is_ok());
    assert_eq!(live.count(), 14);
}

#[test]
fn guest_to_guest_traffic_crosses_the_vswitch_only() {
    let mut server = BmHiveServer::new(ServerConstraints::production(), 2);
    let image = MachineImage::centos_evaluation(1);
    let e5 = &INSTANCE_CATALOG[0];
    let b1 = server.install_board(e5).unwrap();
    let b2 = server.install_board(e5).unwrap();
    let g1 = server.power_on(b1, &image, SimTime::ZERO).unwrap();
    let g2 = server.power_on(b2, &image, SimTime::ZERO).unwrap();

    let dst = server.guest_mac(g2).unwrap();
    let mut last = SimTime::from_secs(1);
    for i in 0..50u64 {
        let timing = server
            .guest_send(g1, dst, format!("frame {i}").as_bytes(), last)
            .expect("delivery");
        assert!(timing.completed > timing.submitted);
        last = timing.completed;
    }
    let (tx1, rx1, _) = {
        let s = server.guest_mut(g1).unwrap();
        s.counters()
    };
    let (tx2, rx2, _) = {
        let s = server.guest_mut(g2).unwrap();
        s.counters()
    };
    assert_eq!(tx1, 50);
    assert_eq!(rx2, 50);
    assert_eq!(rx1, 0, "sender received nothing");
    assert_eq!(tx2, 0, "receiver sent nothing");
}

#[test]
fn boot_reads_exactly_the_image_payload_on_every_platform() {
    let image = MachineImage::centos_evaluation(9);
    // bm-guest via the server.
    let mut server = BmHiveServer::new(ServerConstraints::production(), 3);
    let board = server.install_board(&INSTANCE_CATALOG[0]).unwrap();
    let guest = server.power_on(board, &image, SimTime::ZERO).unwrap();
    let bm_boot = server.boot_report(guest).unwrap();
    // vm-guest standalone.
    let mut store = BlockStore::new(StorageClass::CloudSsd, 3);
    let mut vm = VmGuestSession::new(MacAddr::for_guest(7), 128, InstanceLimits::production(), 3);
    let vm_boot = boot_guest(&mut vm, &mut store, &image, SimTime::ZERO).unwrap();

    assert_eq!(bm_boot.sectors_read, image.boot_sectors());
    assert_eq!(vm_boot.sectors_read, image.boot_sectors());
    assert_eq!(
        bm_boot.requests, vm_boot.requests,
        "identical request pattern"
    );
}

#[test]
fn rate_limits_bind_identically_for_all_tenants() {
    let mut server = BmHiveServer::new(ServerConstraints::production(), 4);
    let image = MachineImage::centos_evaluation(1);
    let e5 = &INSTANCE_CATALOG[0];
    let b1 = server.install_board(e5).unwrap();
    let g1 = server.power_on(b1, &image, SimTime::ZERO).unwrap();

    // Hammer storage from one guest: its own 25K IOPS limiter paces it
    // (after the initial burst allowance amortises away).
    let mut t = SimTime::from_secs(1);
    let n = 3_000;
    let start = t;
    for i in 0..n {
        let (_, _, timing) = server
            .guest_blk(g1, BlkRequestType::In, i * 8, &[], 4096, t)
            .expect("read");
        t = timing.submitted + SimDuration::from_micros(10);
        if i == n - 1 {
            t = timing.completed;
        }
    }
    let elapsed = t.saturating_duration_since(start);
    let iops = n as f64 / elapsed.as_secs_f64();
    assert!(iops < 28_500.0, "one tenant cannot exceed its cap: {iops}");
}

#[test]
fn server_and_max_boards_share_one_admission_check() {
    let constraints = ServerConstraints::production();
    for instance in INSTANCE_CATALOG {
        let max = constraints.max_boards(instance);

        let mut server = BmHiveServer::new(constraints, 3);
        let mut installed = 0;
        let refused = loop {
            match server.install_board(instance) {
                Ok(_) => installed += 1,
                Err(ServerError::ConstraintViolation(why)) => break why,
                Err(e) => panic!("{}: unexpected {e}", instance.name),
            }
        };
        assert_eq!(installed, max, "{} on a BmHiveServer", instance.name);
        assert_eq!(
            constraints.admit(std::iter::repeat_n(instance, max as usize), instance),
            Err(refused),
            "{}: the server refuses for the chassis's reason",
            instance.name
        );
    }
}
