//! The metrics registry: named counters, gauges, and histogram-backed
//! timers.
//!
//! All maps are `BTreeMap`s so iteration — and therefore every rendered
//! report — is deterministic regardless of insertion order. Timers
//! record into the same log-bucketed [`Histogram`] the benchmark
//! harness uses, in microseconds (the unit the paper reports).

use bmhive_sim::{Histogram, SimDuration};
use std::collections::BTreeMap;

/// Named counters, gauges, and timers.
///
/// # Example
///
/// ```
/// use bmhive_sim::SimDuration;
/// use bmhive_telemetry::Registry;
///
/// let mut r = Registry::new();
/// r.counter_add("iobond.tx_rx_exchanges", 1);
/// r.timer_record("vswitch.forward", SimDuration::from_nanos(300));
/// assert_eq!(r.counter("iobond.tx_rx_exchanges"), 1);
/// assert_eq!(r.timer("vswitch.forward").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    timers: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// The named counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `value`.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// The named gauge's value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Raises the named gauge to `value` if it exceeds the current
    /// reading (or the gauge is unset). Peak-tracking gauges (queue
    /// depths, inflight counts) use this so the registry records the
    /// high-water mark rather than the last sample.
    pub fn gauge_max(&mut self, name: &'static str, value: f64) {
        self.gauges
            .entry(name)
            .and_modify(|cur| {
                if value > *cur {
                    *cur = value;
                }
            })
            .or_insert(value);
    }

    /// Records one duration sample (in microseconds) into the named
    /// timer histogram, creating it on first use.
    pub fn timer_record(&mut self, name: &'static str, d: SimDuration) {
        self.timers.entry(name).or_default().record_duration(d);
    }

    /// The named timer histogram, if any samples were recorded.
    pub fn timer(&self, name: &str) -> Option<&Histogram> {
        self.timers.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All timers, sorted by name.
    pub fn timers(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.timers.iter().map(|(&k, v)| (k, v))
    }

    /// Folds `other` into this registry: counters add, peak-tracking
    /// gauges keep the higher reading, timers merge bucket-wise via
    /// [`Histogram::merge`].
    ///
    /// Counter and gauge merging is order-independent. Timer merging
    /// is bucket-exact but the histogram's floating-point `sum` makes
    /// it order-*sensitive* at the ULP level, so deterministic callers
    /// (the host-sharded executor) must fold worker registries in a
    /// canonical order — host index — regardless of completion order.
    pub fn merge_from(&mut self, other: &Registry) {
        for (&name, &v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (&name, &v) in &other.gauges {
            self.gauge_max(name, v);
        }
        for (&name, h) in &other.timers {
            self.timers.entry(name).or_default().merge(h);
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.timers.is_empty()
    }

    /// Clears every metric.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.timers.clear();
    }

    /// Renders the registry as a plain-text report: counters, gauges,
    /// then timer percentiles.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<44} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<44} {v}\n"));
            }
        }
        if !self.timers.is_empty() {
            out.push_str("timers (us):\n");
            out.push_str(&format!(
                "  {:<44} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "name", "count", "mean", "p50", "p99", "p99.9"
            ));
            for (name, h) in &self.timers {
                out.push_str(&format!(
                    "  {:<44} {:>10} {:>10.2} {:>10.2} {:>10.2} {:>10.2}\n",
                    name,
                    h.count(),
                    h.mean(),
                    h.percentile(50.0),
                    h.percentile(99.0),
                    h.percentile(99.9)
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.counter_add("a", 1);
        r.counter_add("a", 2);
        assert_eq!(r.counter("a"), 3);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        assert_eq!(r.gauge("g"), Some(2.5));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        let mut r = Registry::new();
        r.gauge_max("g", 2.0);
        r.gauge_max("g", 5.0);
        r.gauge_max("g", 3.0);
        assert_eq!(r.gauge("g"), Some(5.0));
    }

    #[test]
    fn timers_record_microseconds() {
        let mut r = Registry::new();
        r.timer_record("t", SimDuration::from_micros(25));
        r.timer_record("t", SimDuration::from_micros(75));
        let h = r.timer("t").unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn iteration_is_sorted_by_name() {
        let mut r = Registry::new();
        r.counter_add("zebra", 1);
        r.counter_add("apple", 1);
        let names: Vec<_> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["apple", "zebra"]);
    }

    #[test]
    fn text_report_mentions_everything() {
        let mut r = Registry::new();
        r.counter_add("c", 7);
        r.gauge_set("g", 1.0);
        r.timer_record("t", SimDuration::from_micros(10));
        let text = r.to_text();
        assert!(text.contains("c"));
        assert!(text.contains("7"));
        assert!(text.contains("timers"));
        assert_eq!(Registry::new().to_text(), "(no metrics recorded)\n");
    }

    #[test]
    fn merge_from_adds_counters_maxes_gauges_merges_timers() {
        let mut a = Registry::new();
        a.counter_add("shared", 2);
        a.counter_add("only_a", 1);
        a.gauge_max("peak", 5.0);
        a.timer_record("t", SimDuration::from_micros(10));

        let mut b = Registry::new();
        b.counter_add("shared", 3);
        b.counter_add("only_b", 7);
        b.gauge_max("peak", 9.0);
        b.gauge_max("only_b_gauge", 1.5);
        b.timer_record("t", SimDuration::from_micros(30));
        b.timer_record("u", SimDuration::from_micros(1));

        a.merge_from(&b);
        assert_eq!(a.counter("shared"), 5);
        assert_eq!(a.counter("only_a"), 1);
        assert_eq!(a.counter("only_b"), 7);
        assert_eq!(a.gauge("peak"), Some(9.0));
        assert_eq!(a.gauge("only_b_gauge"), Some(1.5));
        assert_eq!(a.timer("t").unwrap().count(), 2);
        assert!((a.timer("t").unwrap().mean() - 20.0).abs() < 1e-9);
        assert_eq!(a.timer("u").unwrap().count(), 1);
    }

    #[test]
    fn merge_from_empty_is_identity() {
        let mut a = Registry::new();
        a.counter_add("c", 4);
        a.merge_from(&Registry::new());
        assert_eq!(a.counter("c"), 4);
        let mut empty = Registry::new();
        empty.merge_from(&a);
        assert_eq!(empty.counter("c"), 4);
    }

    #[test]
    fn clear_empties_everything() {
        let mut r = Registry::new();
        r.counter_add("c", 1);
        r.gauge_set("g", 1.0);
        r.timer_record("t", SimDuration::from_micros(1));
        r.clear();
        assert!(r.is_empty());
    }
}
