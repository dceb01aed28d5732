//! Live operations: the §6 toolbox — live bm-hypervisor upgrade
//! (Orthus-style), the live-migration prototype with its documented
//! drawbacks, and the tenant console of §3.4.2.
//!
//! Run with: `cargo run --example live_operations`

use bmhive_core::prelude::*;
use bmhive_hypervisor::migrate::{convert_to_bm, convert_to_vm, GuestOs, MigrationPolicy};
use bmhive_hypervisor::ConsoleServer;

fn main() {
    // --- 1. Live bm-hypervisor upgrade -------------------------------
    println!("--- live bm-hypervisor upgrade (Orthus-style, §6) ---");
    let mut upgraded = BmGuestSession::new(
        IoBondProfile::fpga(),
        MacAddr::for_guest(6),
        64,
        InstanceLimits::production(),
    );
    let mut store = BlockStore::new(StorageClass::CloudSsd, 1);
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;

    // Traffic flows through the old backend process...
    for i in 0..3u64 {
        let msg = format!("req-{i}");
        let (_, t) = upgraded
            .net_send(
                MacAddr::for_guest(8),
                PacketKind::Udp,
                msg.as_bytes(),
                now,
                &mut out,
            )
            .expect("send");
        let t = upgraded
            .net_receive(b"ack", t.completed, &mut out)
            .expect("receive");
        let header = BlkRequestHeader::new(BlkRequestType::In, i * 8);
        let (_, t) = upgraded
            .blk_request(&mut store, header, &[], 4096, t.completed, &mut out)
            .expect("read");
        now = t.completed;
    }
    let (sent, received, reads) = upgraded.counters();
    println!("old backend served {sent} sends, {received} receives and {reads} reads");

    // ...the process is replaced, handing its ring cursors over...
    let report = upgraded.live_upgrade(now);
    println!("upgraded with a {} pause; handed over:", report.pause);
    for (ring, state) in ["net rx", "net tx", "blk"].iter().zip(report.state) {
        println!(
            "  {ring:<6} avail cursor {:>2}, used index {:>2}",
            state.last_avail_idx, state.used_idx
        );
    }

    // ...and the guest's next request completes on the new one.
    let (_, t) = upgraded
        .net_send(
            MacAddr::for_guest(8),
            PacketKind::Udp,
            b"req-3",
            report.resumed_at,
            &mut out,
        )
        .expect("send");
    println!(
        "  {:?} completed on the new backend in {} — zero loss",
        String::from_utf8_lossy(&out),
        t.latency()
    );

    // --- 2. Live migration prototype ---------------------------------
    println!("\n--- live migration via on-demand virtualization (§6 prototype) ---");
    let guest = BmGuestSession::new(
        IoBondProfile::fpga(),
        MacAddr::for_guest(7),
        128,
        InstanceLimits::production(),
    );
    // Drawback #1: the provider must not touch the tenant's system
    // without consent.
    let refused = convert_to_vm(
        BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(8),
            64,
            InstanceLimits::production(),
        ),
        GuestOs::KnownLinux,
        MigrationPolicy {
            tenant_consents_to_injection: false,
        },
        SimTime::ZERO,
        1,
    );
    println!("without consent: {}", refused.expect_err("refused"));
    // With consent and a supported OS it works.
    let converted = convert_to_vm(
        guest,
        GuestOs::KnownLinux,
        MigrationPolicy {
            tenant_consents_to_injection: true,
        },
        SimTime::ZERO,
        1,
    )
    .expect("converted");
    println!(
        "converted bm-guest {} to a migratable vm-guest at {}",
        converted.vm.mac(),
        converted.converted_at
    );
    let (landed, at) = convert_to_bm(converted, IoBondProfile::fpga(), SimTime::from_secs(5));
    println!(
        "landed on a fresh compute board as {} at {at}",
        landed.mac()
    );
    // Drawback #2: a tenant running their own hypervisor defeats the shim.
    let nested = convert_to_vm(
        landed,
        GuestOs::UnknownOrNestedHypervisor,
        MigrationPolicy {
            tenant_consents_to_injection: true,
        },
        SimTime::from_secs(6),
        2,
    );
    println!(
        "tenant running their own hypervisor: {}",
        nested.expect_err("unsupported")
    );

    // --- 3. The tenant console (§3.4.2) ------------------------------
    println!("\n--- VGA console ---");
    let mut consoles = ConsoleServer::new();
    let mac = MacAddr::for_guest(7);
    consoles.register(mac);
    consoles.guest_output(
        mac,
        b"CentOS Linux 7 (Core)\nKernel 3.10.0-514.26.2.el7 on x86_64\n\nbm-guest login: ",
    );
    let screen = consoles.attach(mac).expect("registered");
    for line in screen.iter().take(4) {
        println!("  | {line}");
    }
    println!("({} viewer attached)", consoles.viewers(mac));
}
