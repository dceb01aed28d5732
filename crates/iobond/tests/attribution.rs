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

/// The exact Chrome trace of the `iobond` experiment's traced exchange
/// (FPGA, 64 B each way): the `tx_rx_exchange` span and its 14 step
/// children with their `actor`/`desc` attributes. Pinned so any change
/// to a label, attribute or the export format shows up as a diff here.
const FPGA_64B_EXCHANGE_TRACE: &str = r#"{"displayTimeUnit":"ns","traceEvents":[
{"name":"tx_rx_exchange","cat":"iobond","ph":"X","ts":0.000,"dur":5.245,"pid":1,"tid":1,"args":{"seq":0}},
{"name":"step01","cat":"iobond","ph":"X","ts":0.000,"dur":0.800,"pid":1,"tid":1,"args":{"seq":1,"parent":0,"actor":"guest","desc":"driver publishes Tx chain and writes the notify register"}},
{"name":"step02","cat":"iobond","ph":"X","ts":0.800,"dur":0.253,"pid":1,"tid":1,"args":{"seq":2,"parent":0,"actor":"iobond","desc":"IO-Bond reads the avail index and ring entry"}},
{"name":"step03","cat":"iobond","ph":"X","ts":1.053,"dur":0.253,"pid":1,"tid":1,"args":{"seq":3,"parent":0,"actor":"iobond","desc":"IO-Bond fetches the descriptor table entries"}},
{"name":"step04","cat":"iobond","ph":"X","ts":1.306,"dur":0.260,"pid":1,"tid":1,"args":{"seq":4,"parent":0,"actor":"iobond","desc":"IO-Bond fetches the indirect descriptor table"}},
{"name":"step05","cat":"iobond","ph":"X","ts":1.566,"dur":0.260,"pid":1,"tid":1,"args":{"seq":5,"parent":0,"actor":"iobond","desc":"DMA engine copies the Tx payload board -> base staging"}},
{"name":"step06","cat":"iobond","ph":"X","ts":1.826,"dur":0.253,"pid":1,"tid":1,"args":{"seq":6,"parent":0,"actor":"iobond","desc":"IO-Bond updates the guest used-flag state"}},
{"name":"step07","cat":"iobond","ph":"X","ts":2.079,"dur":0.253,"pid":1,"tid":1,"args":{"seq":7,"parent":0,"actor":"iobond","desc":"IO-Bond posts the shadow chain and bumps the head register"}},
{"name":"step08","cat":"iobond","ph":"X","ts":2.332,"dur":0.800,"pid":1,"tid":1,"args":{"seq":8,"parent":0,"actor":"backend","desc":"PMD thread polls the head register and sees the new chain"}},
{"name":"step09","cat":"iobond","ph":"X","ts":3.132,"dur":0.000,"pid":1,"tid":1,"args":{"seq":9,"parent":0,"actor":"backend","desc":"backend consumes the Tx payload from the shadow ring"}},
{"name":"step10","cat":"iobond","ph":"X","ts":3.132,"dur":0.000,"pid":1,"tid":1,"args":{"seq":10,"parent":0,"actor":"backend","desc":"backend produces the Rx payload into shadow staging"}},
{"name":"step11","cat":"iobond","ph":"X","ts":3.132,"dur":0.800,"pid":1,"tid":1,"args":{"seq":11,"parent":0,"actor":"backend","desc":"backend completes the shadow chain (used ring write)"}},
{"name":"step12","cat":"iobond","ph":"X","ts":3.932,"dur":0.260,"pid":1,"tid":1,"args":{"seq":12,"parent":0,"actor":"iobond","desc":"DMA engine copies the Rx payload base -> board buffers"}},
{"name":"step13","cat":"iobond","ph":"X","ts":4.192,"dur":0.253,"pid":1,"tid":1,"args":{"seq":13,"parent":0,"actor":"iobond","desc":"IO-Bond completes the guest used ring and bumps tail"}},
{"name":"step14","cat":"iobond","ph":"X","ts":4.445,"dur":0.800,"pid":1,"tid":1,"args":{"seq":14,"parent":0,"actor":"iobond","desc":"MSI interrupt delivered to the bm-guest"}}
]}
"#;

#[test]
fn fpga_exchange_trace_text_is_pinned() {
    telemetry::set_enabled(true);
    telemetry::reset();
    trace_exchange(&IoBondProfile::fpga(), 64, 64, SimTime::ZERO);
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    assert_eq!(
        telemetry::export::chrome_trace(&snap.events),
        FPGA_64B_EXCHANGE_TRACE
    );
}
