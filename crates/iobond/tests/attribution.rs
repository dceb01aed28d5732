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

/// The exact JSONL of the `iobond` experiment's traced exchange (FPGA,
/// 64 B each way): the `tx_rx_exchange` span and its 14 step children
/// with their `actor`/`desc` attributes. Pinned so any change to a
/// label, attribute or the export format shows up as a diff here.
const FPGA_64B_EXCHANGE_JSONL: &str = r#"{"seq":0,"component":"iobond","label":"tx_rx_exchange","start_ns":0,"duration_ns":5245,"depth":0}
{"seq":1,"component":"iobond","label":"step01","start_ns":0,"duration_ns":800,"depth":1,"parent":0,"attrs":{"actor":"guest","desc":"driver publishes Tx chain and writes the notify register"}}
{"seq":2,"component":"iobond","label":"step02","start_ns":800,"duration_ns":253,"depth":1,"parent":0,"attrs":{"actor":"iobond","desc":"IO-Bond reads the avail index and ring entry"}}
{"seq":3,"component":"iobond","label":"step03","start_ns":1053,"duration_ns":253,"depth":1,"parent":0,"attrs":{"actor":"iobond","desc":"IO-Bond fetches the descriptor table entries"}}
{"seq":4,"component":"iobond","label":"step04","start_ns":1306,"duration_ns":260,"depth":1,"parent":0,"attrs":{"actor":"iobond","desc":"IO-Bond fetches the indirect descriptor table"}}
{"seq":5,"component":"iobond","label":"step05","start_ns":1566,"duration_ns":260,"depth":1,"parent":0,"attrs":{"actor":"iobond","desc":"DMA engine copies the Tx payload board -> base staging"}}
{"seq":6,"component":"iobond","label":"step06","start_ns":1826,"duration_ns":253,"depth":1,"parent":0,"attrs":{"actor":"iobond","desc":"IO-Bond updates the guest used-flag state"}}
{"seq":7,"component":"iobond","label":"step07","start_ns":2079,"duration_ns":253,"depth":1,"parent":0,"attrs":{"actor":"iobond","desc":"IO-Bond posts the shadow chain and bumps the head register"}}
{"seq":8,"component":"iobond","label":"step08","start_ns":2332,"duration_ns":800,"depth":1,"parent":0,"attrs":{"actor":"backend","desc":"PMD thread polls the head register and sees the new chain"}}
{"seq":9,"component":"iobond","label":"step09","start_ns":3132,"duration_ns":0,"depth":1,"parent":0,"attrs":{"actor":"backend","desc":"backend consumes the Tx payload from the shadow ring"}}
{"seq":10,"component":"iobond","label":"step10","start_ns":3132,"duration_ns":0,"depth":1,"parent":0,"attrs":{"actor":"backend","desc":"backend produces the Rx payload into shadow staging"}}
{"seq":11,"component":"iobond","label":"step11","start_ns":3132,"duration_ns":800,"depth":1,"parent":0,"attrs":{"actor":"backend","desc":"backend completes the shadow chain (used ring write)"}}
{"seq":12,"component":"iobond","label":"step12","start_ns":3932,"duration_ns":260,"depth":1,"parent":0,"attrs":{"actor":"iobond","desc":"DMA engine copies the Rx payload base -> board buffers"}}
{"seq":13,"component":"iobond","label":"step13","start_ns":4192,"duration_ns":253,"depth":1,"parent":0,"attrs":{"actor":"iobond","desc":"IO-Bond completes the guest used ring and bumps tail"}}
{"seq":14,"component":"iobond","label":"step14","start_ns":4445,"duration_ns":800,"depth":1,"parent":0,"attrs":{"actor":"iobond","desc":"MSI interrupt delivered to the bm-guest"}}
"#;

#[test]
fn fpga_exchange_trace_text_is_pinned() {
    telemetry::set_enabled(true);
    telemetry::reset();
    trace_exchange(&IoBondProfile::fpga(), 64, 64, SimTime::ZERO);
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    assert_eq!(
        telemetry::export::jsonl(&snap.events),
        FPGA_64B_EXCHANGE_JSONL
    );
}
