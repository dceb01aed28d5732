//! Multi-tenant density: fill one BM-Hive server with as many tenants as
//! the chassis supports, boot them all, drive I/O on each, and show the
//! §3.5 density / cost arithmetic.
//!
//! Run with: `cargo run --example multi_tenant_density`

use bmhive_core::prelude::*;

fn main() {
    let constraints = ServerConstraints::production();
    let mut server = BmHiveServer::new(constraints, 7);
    let image = MachineImage::centos_evaluation(1);

    // Densest configuration: 16 single-wide Atom boards (the abstract's
    // "up to 16 bare-metal guests in a single physical server").
    let atom = INSTANCE_CATALOG
        .iter()
        .find(|i| i.name.contains("atom"))
        .expect("catalog has the Atom instance");
    let mut guests = Vec::new();
    while let Ok(board) = server.install_board(atom) {
        let guest = server
            .power_on(board, &image, SimTime::ZERO)
            .expect("boots");
        guests.push(guest);
    }
    println!("tenants on one server: {}", guests.len());
    assert_eq!(guests.len(), 16);

    // Every tenant does real, isolated I/O.
    let t0 = SimTime::from_secs(1);
    for (i, &guest) in guests.iter().enumerate() {
        let (status, data, timing) = server
            .guest_blk(guest, BlkRequestType::In, (i as u64) * 1000, &[], 4096, t0)
            .expect("read");
        assert_eq!(status, BlkStatus::Ok);
        println!(
            "tenant {:2}: 4 KiB cloud read -> {} bytes in {}",
            i,
            data.len(),
            timing.latency()
        );
    }

    // Cross-tenant traffic flows through the vSwitch, never through
    // shared memory.
    let dst = server.guest_mac(guests[1]).expect("exists");
    let timing = server
        .guest_send(guests[0], dst, b"neighbourly ping", SimTime::from_secs(2))
        .expect("send");
    println!(
        "tenant 0 -> tenant 1 frame delivered in {}",
        timing.latency()
    );

    // The §3.5 economics: sellable threads and watts per vCPU.
    let vm = cost::vm_server();
    let bm8 = cost::bm_hive_eight_boards();
    let bm1 = cost::bm_hive_single_board();
    println!("\n--- §3.5 cost efficiency ---");
    for report in [&vm, &bm8, &bm1] {
        println!(
            "{:38} {:4} HT sellable, {:5.2} W/vCPU, {:.0}% relative price",
            report.label,
            report.sellable_threads,
            report.watts_per_vcpu(),
            report.price_per_vcpu * 100.0
        );
    }
    println!(
        "density advantage (8-board BM-Hive vs vm server): {:.2}x",
        cost::density_advantage()
    );
}
