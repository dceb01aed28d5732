//! Cold migration: the interoperability requirement of §3.1 — "a
//! bm-guest can be run in a VM as well. ... From the user perspective,
//! they only need to provide a VM image, which can be run as either a VM
//! or a bm-guest."
//!
//! This example boots the *same* machine image on a KVM-style vm-guest,
//! "cold-migrates" it (stop, reschedule, start) onto a compute board,
//! verifies the volume contents match, and migrates it back.
//!
//! Run with: `cargo run --example cold_migration`

use bmhive_core::prelude::*;

fn main() {
    let image = MachineImage::centos_evaluation(1);
    println!(
        "image: {} ({} boot sectors)",
        image.name,
        image.boot_sectors()
    );

    // Phase 1: the customer starts as a vm-guest.
    let mut store = BlockStore::new(StorageClass::CloudSsd, 99);
    let mut vm = VmGuestSession::new(MacAddr::for_guest(1), 128, InstanceLimits::production(), 1);
    let vm_boot = boot_guest(&mut vm, &mut store, &image, SimTime::ZERO).expect("vm boots");
    println!(
        "vm-guest booted in {} ({} virtio-blk requests)",
        vm_boot.duration, vm_boot.requests
    );

    // The vm-guest reads its application data from the cloud volume.
    let t = vm_boot.finished_at;
    let mut vm_data = Vec::new();
    let (status, _) = vm
        .blk_request(
            &mut store,
            BlkRequestHeader::new(BlkRequestType::In, 50_000),
            &[],
            4096,
            t,
            &mut vm_data,
        )
        .expect("vm read");
    assert_eq!(status, BlkStatus::Ok);

    // Phase 2: cold migration. The volume stays in the cloud; only the
    // compute moves. Power off the VM, schedule a compute board, boot
    // the identical image there.
    println!("\ncold migration: vm-guest -> bm-guest (same image, same volume)");
    let mut server = BmHiveServer::new(ServerConstraints::production(), 99);
    let board = server.install_board(&INSTANCE_CATALOG[0]).expect("board");
    let guest = server
        .power_on(board, &image, SimTime::from_secs(60))
        .expect("bm boots");
    let bm_boot = server.boot_report(guest).expect("exists");
    println!(
        "bm-guest booted in {} ({} virtio-blk requests)",
        bm_boot.duration, bm_boot.requests
    );
    assert_eq!(
        vm_boot.sectors_read, bm_boot.sectors_read,
        "both platforms read the identical boot payload"
    );

    // The application data is byte-identical on the bare-metal side.
    let (status, bm_data, _) = server
        .guest_blk(
            guest,
            BlkRequestType::In,
            50_000,
            &[],
            4096,
            bm_boot.finished_at,
        )
        .expect("bm read");
    assert_eq!(status, BlkStatus::Ok);
    assert_eq!(vm_data, bm_data, "volume contents survive the migration");
    println!("application data verified identical on both platforms");

    // Phase 3: and back again — nothing about the image is
    // platform-specific.
    let mut vm2 = VmGuestSession::new(MacAddr::for_guest(1), 128, InstanceLimits::production(), 2);
    let back = boot_guest(&mut vm2, &mut store, &image, SimTime::from_secs(120)).expect("returns");
    println!(
        "\nmigrated back to a vm-guest in {} — cold migration is symmetric",
        back.duration
    );
}
