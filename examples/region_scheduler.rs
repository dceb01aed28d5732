//! Region-scale placement: drive the board scheduler with a day of
//! arriving and departing bare-metal instance requests across a row of
//! BM-Hive servers, and report utilisation — the elasticity story that
//! makes multi-tenant bare metal "cost efficient" (§1, §3.5).
//!
//! Run with: `cargo run --release --example region_scheduler`

use bmhive_cloud::scheduler::PlacementError;
use bmhive_core::prelude::*;
use std::collections::BTreeMap;

fn main() {
    let mut rng = SimRng::new(2026);
    let mut scheduler = Scheduler::new();
    let servers = 24;
    for _ in 0..servers {
        scheduler.add_server(ServerConstraints::production());
    }
    println!("region row: {servers} BM-Hive servers");

    // A day of tenant churn: arrivals are Poisson-ish, lifetimes are
    // long-tailed (some tenants keep boards for weeks; the §5 contrast
    // with machine leasing is that OUR turnaround is instant).
    let mut live: Vec<(
        u64, /*departs at*/
        bmhive_cloud::scheduler::Placement,
        &'static str,
    )> = Vec::new();
    let mut placed_total = 0u64;
    let mut rejected = 0u64;
    let mut mix: BTreeMap<&'static str, u64> = BTreeMap::new();

    for minute in 0..1440u64 {
        // Departures first.
        let before = live.len();
        live.retain(|(departs, placement, _)| {
            if *departs <= minute {
                scheduler.release(*placement).expect("was placed");
                false
            } else {
                true
            }
        });
        let departed = before - live.len();

        // Arrivals: ~1 per 2 minutes, weighted toward the E5 instance.
        if rng.chance(0.5) {
            let roll = rng.f64();
            let instance = if roll < 0.5 {
                &INSTANCE_CATALOG[0] // E5 32HT
            } else if roll < 0.75 {
                &INSTANCE_CATALOG[1] // E3
            } else if roll < 0.9 {
                &INSTANCE_CATALOG[2] // i7
            } else {
                &INSTANCE_CATALOG[3] // Atom
            };
            match scheduler.place(instance) {
                Ok(placement) => {
                    let lifetime = (rng.pareto(60.0, 1.2) as u64).min(100_000);
                    live.push((minute + lifetime, placement, instance.name));
                    placed_total += 1;
                    *mix.entry(instance.name).or_default() += 1;
                }
                Err(PlacementError::NoCapacity) => rejected += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }

        if minute % 240 == 0 {
            println!(
                "minute {minute:4}: {:3} boards live, {departed} departed this minute",
                live.len()
            );
        }
    }

    println!("\nday summary:");
    println!("  placements: {placed_total}, rejections: {rejected}");
    for (name, count) in &mix {
        println!("  {name:<20} {count}");
    }
    let boards_live = live.len();
    println!(
        "  end-of-day: {boards_live} tenants live across {servers} servers ({:.1} per server)",
        boards_live as f64 / f64::from(servers)
    );
    assert!(placed_total > 300, "the row absorbed a realistic day");
}
