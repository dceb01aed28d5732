//! Operational-lifecycle integration: the control plane, signed
//! firmware, live upgrade, and the migration prototype working against
//! one server — the §3.2 "seamlessly integrated into the existing cloud
//! infrastructure" story end to end.

use bmhive_cloud::firmware::{FirmwareError, FirmwareImage, SigningKey};
use bmhive_cloud::image::ImageService;
use bmhive_core::prelude::*;
use bmhive_hypervisor::migrate::{convert_to_vm, GuestOs, MigrationPolicy};
use bmhive_sim::SimTime;

#[test]
fn control_plane_runs_a_tenant_day() {
    let server = BmHiveServer::new(ServerConstraints::production(), 50);
    let mut images = ImageService::new();
    let image = images.register(MachineImage::centos_evaluation(1));
    let mut plane = ControlPlane::new(server, images, 2);

    // Morning: two tenants arrive.
    let mut guests = Vec::new();
    for i in 0..2 {
        let response = plane.handle(
            ControlRequest::CreateGuest {
                instance: "ebm.e5.32xlarge".to_string(),
                image,
            },
            SimTime::from_secs(i),
        );
        let ControlResponse::Created { guest, .. } = response else {
            panic!("create failed: {response:?}");
        };
        guests.push(guest);
    }

    // Midday: both do I/O through the server the plane wraps.
    for (i, &guest) in guests.iter().enumerate() {
        let (status, data, _) = plane
            .server_mut()
            .guest_blk(
                guest,
                BlkRequestType::In,
                (i as u64) * 100,
                &[],
                4096,
                SimTime::from_secs(10),
            )
            .expect("tenant I/O");
        assert_eq!(status, BlkStatus::Ok);
        assert_eq!(data.len(), 4096);
    }

    // Evening: one leaves; capacity returns; a new tenant takes the slot.
    assert_eq!(
        plane.handle(
            ControlRequest::DestroyGuest { guest: guests[0] },
            SimTime::from_secs(100)
        ),
        ControlResponse::Destroyed
    );
    assert!(matches!(
        plane.handle(
            ControlRequest::CreateGuest {
                instance: "ebm.e5.32xlarge".to_string(),
                image,
            },
            SimTime::from_secs(101),
        ),
        ControlResponse::Created { .. }
    ));
}

#[test]
fn firmware_fleet_rollout_with_one_tampered_board() {
    let mut server = BmHiveServer::new(ServerConstraints::production(), 51);
    let atom = INSTANCE_CATALOG
        .iter()
        .find(|i| i.name.contains("atom"))
        .unwrap();
    let boards: Vec<_> = (0..4)
        .map(|_| server.install_board(atom).unwrap())
        .collect();
    let key = server.signing_key();

    // Roll the fleet to efi-2.0... but one update in transit is
    // tampered with.
    for (i, &board) in boards.iter().enumerate() {
        let mut update = FirmwareImage::signed(&key, "efi-virtio-2.0", 2, b"rollout".to_vec());
        if i == 2 {
            update.payload = b"rootkit".to_vec();
        }
        let result = server.update_board_firmware(board, update);
        if i == 2 {
            assert!(matches!(
                result,
                Err(ServerError::Firmware(FirmwareError::BadSignature))
            ));
        } else {
            result.unwrap();
        }
    }
    // Three boards on 2.0, the tampered target safely on 1.0.
    for (i, &board) in boards.iter().enumerate() {
        let version = server.board_firmware_version(board).unwrap();
        if i == 2 {
            assert_eq!(version, "efi-virtio-1.0");
        } else {
            assert_eq!(version, "efi-virtio-2.0");
        }
    }
    // Boards still boot guests regardless.
    let image = MachineImage::centos_evaluation(1);
    server.power_on(boards[2], &image, SimTime::ZERO).unwrap();
}

#[test]
fn foreign_signing_key_never_matches() {
    let server_a = BmHiveServer::new(ServerConstraints::production(), 60);
    let server_b = BmHiveServer::new(ServerConstraints::production(), 61);
    // Keys are derived per provider secret; different seeds yield
    // different keys, so an image signed for one fleet cannot flash on
    // another.
    assert_ne!(
        format!("{:?}", server_a.signing_key()),
        format!("{:?}", server_b.signing_key())
    );
    let _ = SigningKey::new(0); // type is public for provider tooling
}

#[test]
fn migration_prototype_composes_with_the_server() {
    // A guest leaves a server, converts to a vm (with consent), and the
    // vacated board hosts someone else meanwhile.
    let mut server = BmHiveServer::new(ServerConstraints::production(), 52);
    let image = MachineImage::centos_evaluation(1);
    let board = server.install_board(&INSTANCE_CATALOG[0]).unwrap();
    let guest = server.power_on(board, &image, SimTime::ZERO).unwrap();

    // Detach the session-equivalent: power off on this server, convert a
    // standalone session (the prototype operates below the control
    // plane).
    server.power_off(guest).unwrap();
    let standalone = BmGuestSession::new(
        IoBondProfile::fpga(),
        MacAddr::for_guest(42),
        128,
        InstanceLimits::production(),
    );
    let converted = convert_to_vm(
        standalone,
        GuestOs::KnownLinux,
        MigrationPolicy {
            tenant_consents_to_injection: true,
        },
        SimTime::from_secs(1),
        5,
    )
    .unwrap();
    assert_eq!(converted.vm.mac(), MacAddr::for_guest(42));

    // The board is already reusable.
    assert!(server
        .power_on(board, &image, SimTime::from_secs(2))
        .is_ok());
}
