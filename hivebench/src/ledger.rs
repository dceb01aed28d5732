//! Named metrics, their units, and the fixed lists the benchmark reports.

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
/// Probe timings are measured on every workload; registry and report
/// counts read 0 where the workload does not exercise the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events.schedule_ns", "ns"),
    ("sim.events.pop_batch_ns_per_event", "ns"),
    ("sim.batch_len_mean", "events"),
    ("sim.stats.record_ns", "ns"),
    ("sim.rng.fill_ns_per_draw", "ns"),
    ("sim.rng.exit_fill_ns_per_draw", "ns"),
    ("mem.ram.write_ns_per_kib_64b", "ns/KiB"),
    ("mem.ram.write_ns_per_kib_16k", "ns/KiB"),
    ("mem.ram.read_ns_per_kib_64b", "ns/KiB"),
    ("mem.ram.read_ns_per_kib_16k", "ns/KiB"),
    ("virtio.add_buf_ns", "ns"),
    ("virtio.pop_avail_ns", "ns"),
    ("virtio.push_used_ns", "ns"),
    ("virtio.poll_used_ns", "ns"),
    ("virtio.chains_per_op", "chains/op"),
    ("iobond.service_into_ns_64b", "ns"),
    ("iobond.service_into_ns_16k", "ns"),
    ("iobond.bytes_to_shadow_per_op", "B/op"),
    ("iobond.peak_inflight", "chains"),
    ("iobond.staging_backpressure", "count"),
    ("hypervisor.boot_ms", "ms"),
    ("bm.doorbells_suppressed_frac", "fraction"),
    ("cloud.vswitch.forward_ns", "ns"),
    ("cloud.vswitch.doorbells_rung", "count"),
    ("cloud.vswitch.doorbells_suppressed", "count"),
    ("cloud.vswitch.peak_port_depth", "frames"),
    ("cloud.blockstore.bytes_per_op", "B/op"),
    ("cloud.fleet.host_day_ms", "ms"),
    ("cloud.fleet.merge_us", "us"),
    ("traffic.dispatch_pick_ns", "ns"),
    ("traffic.clones_per_req", "clones/req"),
    ("traffic.hedge_win_frac", "fraction"),
    ("traffic.cancelled_per_req", "copies/req"),
    ("traffic.peak_depth", "frames"),
    ("par.worker_busy_frac", "fraction"),
    ("par.orchestrator_ms", "ms"),
    ("par.serial_frac", "fraction"),
    ("telemetry.span_off_ns", "ns"),
    ("telemetry.span_on_ns", "ns"),
    ("telemetry.trace_overhead_frac", "fraction"),
    ("heap.allocs_per_op", "allocs/op"),
    ("attr.unattributed_frac", "fraction"),
];

/// An ordered list of `(name, value, unit)` metrics.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    rows: Vec<(&'static str, f64, &'static str)>,
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Ledger {
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Records (or overwrites) metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: every reported number must be a
    /// measurement, and JSON has no NaN.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.rows.iter_mut().find(|(n, _, _)| *n == name) {
            Some(row) => *row = (name, value, unit),
            None => self.rows.push((name, value, unit)),
        }
    }

    /// Records a metric named in `list`, taking its unit from there.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in `list`.
    pub fn put(&mut self, list: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = list
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a listed metric"));
        self.set(name, value, unit);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |&(_, v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.rows.iter().copied()
    }

    /// Fails with the first name in `expected` that was never recorded.
    pub fn check_complete(&self, expected: &[(&'static str, &'static str)]) -> Result<(), String> {
        for (name, _) in expected {
            if !self.rows.iter().any(|(n, _, _)| n == name) {
                return Err((*name).to_string());
            }
        }
        Ok(())
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .rows
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
