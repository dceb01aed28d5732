//! Multiqueue virtio-net through IO-Bond: a 4-pair device bridges eight
//! independent shadow vrings, and traffic on one pair never perturbs
//! another — the configuration behind the 4 M PPS instances.

use bmhive_core::prelude::*;
use bmhive_iobond::{IoBondDevice, ServiceReport};
use bmhive_mem::{GuestAddr, GuestRam, SgSegment};
use bmhive_virtio::{DeviceType, Feature, NetConfig, VirtqueueDriver};

const PAIRS: u16 = 4;

struct Rig {
    board: GuestRam,
    base: GuestRam,
    dev: IoBondDevice,
    /// One driver per queue: [rx0, tx0, rx1, tx1, ...].
    drivers: Vec<VirtqueueDriver>,
    backends: Vec<Virtqueue>,
    report: ServiceReport,
}

impl Rig {
    /// One IO-Bond service pass into the rig's reused report.
    fn service(&mut self, now: SimTime) {
        self.dev
            .service_into(&mut self.board, &mut self.base, now, &mut self.report)
            .unwrap();
    }
}

fn rig() -> Rig {
    let mut board = GuestRam::new(1 << 22);
    let mut base = GuestRam::new(256 << 20);
    let mut cfg = NetConfig::with_mac([2, 0, 0, 0, 0, 1]);
    cfg.max_virtqueue_pairs = PAIRS;
    let mut dev = IoBondDevice::with_queue_count(
        IoBondProfile::fpga(),
        DeviceType::Net,
        Feature::NetMac as u64,
        64,
        PAIRS * 2,
        cfg.to_bytes().to_vec(),
    );
    // Program all 8 queues and handshake.
    let layouts: Vec<QueueLayout> = (0..PAIRS * 2)
        .map(|q| QueueLayout::contiguous(GuestAddr::new(0x10_000 + u64::from(q) * 0x4_000), 64))
        .collect();
    dev.function_mut().state_mut().driver_handshake(&layouts);
    dev.activate(&mut base, GuestAddr::new(0x10_0000)).unwrap();
    let drivers = layouts
        .iter()
        .map(|l| VirtqueueDriver::new(&mut board, *l).unwrap())
        .collect();
    let backends = (0..PAIRS * 2)
        .map(|q| Virtqueue::new(dev.shadow(usize::from(q)).unwrap().shadow_layout()))
        .collect();
    Rig {
        board,
        base,
        dev,
        drivers,
        backends,
        report: ServiceReport::default(),
    }
}

#[test]
fn all_eight_queues_activate() {
    let r = rig();
    for q in 0..usize::from(PAIRS * 2) {
        assert!(r.dev.shadow(q).is_some(), "queue {q}");
    }
    assert!(r.dev.shadow(usize::from(PAIRS * 2)).is_none());
}

#[test]
fn queues_carry_independent_traffic() {
    let mut r = rig();
    // Post a distinct payload on every TX queue (odd indices).
    for pair in 0..u64::from(PAIRS) {
        let q = (pair * 2 + 1) as usize;
        let addr = GuestAddr::new(0x100_000 + pair * 0x1000);
        let payload = format!("pair-{pair}");
        r.board.write(addr, payload.as_bytes()).unwrap();
        r.drivers[q]
            .add_buf(
                &mut r.board,
                &[SgSegment::new(addr, payload.len() as u32)],
                &[],
            )
            .unwrap();
    }
    r.service(SimTime::ZERO);

    // Each backend sees exactly its own pair's frame.
    for pair in 0..u64::from(PAIRS) {
        let q = (pair * 2 + 1) as usize;
        let chain = r.backends[q].pop_avail(&r.base).unwrap().expect("frame");
        let mut frame = Vec::new();
        chain.readable.gather_into(&r.base, &mut frame).unwrap();
        assert_eq!(frame, format!("pair-{pair}").as_bytes());
        assert_eq!(r.backends[q].pop_avail(&r.base).unwrap(), None, "only one");
        r.backends[q].push_used(&mut r.base, chain.head, 0).unwrap();
        // RX queues saw nothing.
        let rx = (pair * 2) as usize;
        assert_eq!(r.backends[rx].pop_avail(&r.base).unwrap(), None);
    }

    // Completions route back to the right drivers.
    r.service(SimTime::from_micros(10));
    for pair in 0..u64::from(PAIRS) {
        let q = (pair * 2 + 1) as usize;
        assert!(
            r.drivers[q].poll_used(&r.board).unwrap().is_some(),
            "pair {pair}"
        );
    }
}

#[test]
fn head_registers_are_per_queue() {
    let mut r = rig();
    // Three frames on tx0, one on tx3.
    for i in 0..3u64 {
        let addr = GuestAddr::new(0x100_000 + i * 256);
        r.board.write(addr, b"x").unwrap();
        r.drivers[1]
            .add_buf(&mut r.board, &[SgSegment::new(addr, 1)], &[])
            .unwrap();
    }
    r.board.write(GuestAddr::new(0x140_000), b"y").unwrap();
    r.drivers[7]
        .add_buf(
            &mut r.board,
            &[SgSegment::new(GuestAddr::new(0x140_000), 1)],
            &[],
        )
        .unwrap();
    r.service(SimTime::ZERO);
    assert_eq!(r.dev.shadow(1).unwrap().head_reg(), 3);
    assert_eq!(r.dev.shadow(7).unwrap().head_reg(), 1);
    for q in [0usize, 2, 3, 4, 5, 6] {
        assert_eq!(r.dev.shadow(q).unwrap().head_reg(), 0, "queue {q}");
    }
}
