//! Cross-check: the three independent views of an IO-Bond Tx/Rx
//! exchange — the 14-step table, the traced exchange, and the telemetry
//! attribution report — must all agree to the nanosecond.
//!
//! This runs as its own integration-test process, so flipping the
//! process-global telemetry switch cannot race with other test suites.

use bmhive_iobond::steps::{total_latency, trace_exchange, tx_rx_steps};
use bmhive_iobond::IoBondProfile;
use bmhive_sim::SimTime;
use bmhive_telemetry as telemetry;

#[test]
fn step_table_model_and_attribution_agree() {
    telemetry::set_enabled(true);

    for profile in [IoBondProfile::fpga(), IoBondProfile::asic()] {
        for (tx, rx) in [
            (64u64, 64u64),
            (1500, 64),
            (0, 4096),
            (64 * 1024, 64 * 1024),
        ] {
            telemetry::reset();

            let steps = tx_rx_steps(&profile, tx, rx);
            let table_total = total_latency(&steps);
            let traced_total = trace_exchange(&profile, tx, rx, SimTime::ZERO);

            assert_eq!(table_total, traced_total, "{} {tx}/{rx}", profile.name());

            let snap = telemetry::snapshot();
            let attribution = telemetry::Attribution::from_events(&snap.events);

            // The 14 step spans are the leaves; their total time must
            // reconstruct the step-table sum exactly.
            let step_sum: bmhive_sim::SimDuration = attribution
                .rows()
                .iter()
                .filter(|r| r.label.starts_with("step"))
                .map(|r| r.total)
                .fold(bmhive_sim::SimDuration::ZERO, |a, d| a + d);
            assert_eq!(step_sum, table_total, "{} {tx}/{rx}", profile.name());

            // The enclosing tx_rx_exchange span covers exactly the same
            // interval, and every nanosecond of it is attributed to a
            // child step (self time zero).
            let exchange = attribution
                .row("iobond", "tx_rx_exchange")
                .expect("exchange span recorded");
            assert_eq!(exchange.total, table_total);
            assert_eq!(exchange.self_time, bmhive_sim::SimDuration::ZERO);

            // The component rollup counts both the parent and the
            // leaves, so it is exactly twice the exchange latency.
            assert_eq!(
                attribution.component_total("iobond"),
                table_total + table_total
            );
            // ...but self-time attribution never double counts.
            assert_eq!(attribution.component_self_time("iobond"), table_total);
        }
    }

    telemetry::set_enabled(false);
}
