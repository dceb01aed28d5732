//! Telemetry tour: switch on the virtual-time tracer, run the *same*
//! guest operations on the bm path and the KVM-baseline vm path, and
//! see exactly where every simulated nanosecond went.
//!
//! This drives the full instrumented stack — `BmHiveServer` ops,
//! bm-session phases (kick / shadow_sync / pmd_poll / throttle /
//! complete), vm-session phases (vm_exit_kick / vhost_copy), virtio
//! ring counters, vSwitch and block-store queueing, rate-limiter
//! throttles — and ends with the latency attribution report, the
//! metrics registry, and a Chrome trace file you can open in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Run with: `cargo run --example telemetry_tour`

use bmhive_core::prelude::*;
use bmhive_telemetry as telemetry;

fn main() {
    // Telemetry is off by default (one relaxed atomic load per site).
    // Everything between set_enabled(true) and snapshot() is recorded
    // against the simulated clock, so this whole report is
    // byte-reproducible.
    telemetry::set_enabled(true);
    telemetry::reset();

    // ---- bm path: boot a guest on a compute board, do real I/O ----
    let mut server = BmHiveServer::new(ServerConstraints::production(), 7);
    let board = server.install_board(&INSTANCE_CATALOG[0]).expect("board");
    let image = MachineImage::centos_evaluation(1);
    let guest = server.power_on(board, &image, SimTime::ZERO).expect("boot");
    let boot = server.boot_report(guest).expect("exists");
    let mut t = boot.finished_at;

    for i in 0..32u64 {
        let timing = server
            .guest_send(guest, MacAddr::for_guest(99), b"telemetry tour", t)
            .expect("send");
        t = timing.completed;
        let (_, _, timing) = server
            .guest_blk(guest, BlkRequestType::In, 2048 + i * 8, &[], 4096, t)
            .expect("read");
        t = timing.completed;
    }
    server.power_off(guest).expect("exists");

    // ---- vm path: the same operations on the KVM baseline ----
    let mut store = BlockStore::new(StorageClass::CloudSsd, 7);
    let mut vm = VmGuestSession::new(MacAddr::for_guest(2), 128, InstanceLimits::production(), 7);
    let mut t = SimTime::ZERO;
    let mut frame = Vec::new();
    for i in 0..32u64 {
        let (_, timing) = vm
            .net_send(
                MacAddr::for_guest(99),
                PacketKind::Udp,
                b"telemetry tour",
                t,
                &mut frame,
            )
            .expect("send");
        t = timing.completed;
        let (_, timing) = vm
            .blk_request(
                &mut store,
                BlkRequestHeader::new(BlkRequestType::In, 2048 + i * 8),
                &[],
                4096,
                t,
                &mut frame,
            )
            .expect("read");
        t = timing.completed;
    }

    // ---- the three views of the run ----
    let snap = telemetry::snapshot();
    println!("==== latency attribution (bm vs vm, same ops) ====");
    print!(
        "{}",
        telemetry::Attribution::from_events(&snap.events).to_text()
    );
    println!("\n==== metrics registry ====");
    print!("{}", snap.registry.to_text());

    let trace = std::env::temp_dir().join("bmhive_telemetry_tour.json");
    std::fs::write(&trace, telemetry::export::chrome_trace(&snap.events)).expect("write trace");
    println!(
        "\nwrote {} spans to {} (open in chrome://tracing)",
        snap.events.len(),
        trace.display()
    );
    telemetry::set_enabled(false);
}
