//! Latency attribution: rolling a span trace up into per-step tables.
//!
//! The paper's evaluation is one long latency attribution — which of
//! the 14 IO-Bond steps, which VM-exit class, which queueing stage
//! costs what. [`Attribution`] groups a trace by `(component, label)`
//! and reports, per group, the call count, the total virtual time, and
//! the *self* time (total minus time attributed to child spans), so
//! nested instrumentation never double-counts in the rollup.

use crate::span::SpanEvent;
use bmhive_sim::SimDuration;
use std::collections::{BTreeMap, HashMap};

/// One row of the attribution table: all spans sharing a
/// `(component, label)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// The emitting subsystem.
    pub component: &'static str,
    /// The operation or step.
    pub label: &'static str,
    /// Number of spans in the group.
    pub count: u64,
    /// Sum of span durations.
    pub total: SimDuration,
    /// Sum of durations minus time covered by child spans: the time
    /// this group is itself responsible for.
    pub self_time: SimDuration,
    /// Shortest span.
    pub min: SimDuration,
    /// Longest span.
    pub max: SimDuration,
}

impl AttributionRow {
    /// Mean span duration.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.total / self.count
        }
    }
}

/// A latency attribution over one trace.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    rows: Vec<AttributionRow>,
}

impl Attribution {
    /// Builds the attribution from a slice of closed spans.
    ///
    /// Rows are keyed by `(component, label)` and ordered by component
    /// name, then label — a stable order independent of trace order, so
    /// same-seed runs render identical tables.
    ///
    /// Self time subtracts each span's children from its own duration.
    /// A child whose parent was evicted from the ring buffer simply
    /// contributes to no one's subtraction; attribution over a
    /// truncated trace stays well-defined.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a SpanEvent>) -> Self {
        let events: Vec<&SpanEvent> = events.into_iter().collect();
        // Child time charged against each present parent seq.
        let mut child_time: HashMap<u64, SimDuration> = HashMap::new();
        for e in &events {
            if let Some(parent) = e.parent {
                *child_time.entry(parent).or_insert(SimDuration::ZERO) += e.duration;
            }
        }
        let mut groups: BTreeMap<(&'static str, &'static str), AttributionRow> = BTreeMap::new();
        for e in &events {
            let covered = child_time
                .get(&e.seq)
                .copied()
                .unwrap_or(SimDuration::ZERO)
                // Guard against children priced beyond their parent
                // (overlapping async work): self time floors at zero.
                .min(e.duration);
            let row = groups
                .entry((e.component, e.label))
                .or_insert_with(|| AttributionRow {
                    component: e.component,
                    label: e.label,
                    count: 0,
                    total: SimDuration::ZERO,
                    self_time: SimDuration::ZERO,
                    min: e.duration,
                    max: e.duration,
                });
            row.count += 1;
            row.total += e.duration;
            row.self_time += e.duration - covered;
            row.min = row.min.min(e.duration);
            row.max = row.max.max(e.duration);
        }
        Attribution {
            rows: groups.into_values().collect(),
        }
    }

    /// The rows, ordered by (component, label).
    pub fn rows(&self) -> &[AttributionRow] {
        &self.rows
    }

    /// The row for an exact `(component, label)` pair.
    pub fn row(&self, component: &str, label: &str) -> Option<&AttributionRow> {
        self.rows
            .iter()
            .find(|r| r.component == component && r.label == label)
    }

    /// Total span time per component, ordered by component name.
    pub fn component_totals(&self) -> Vec<(&'static str, SimDuration)> {
        let mut totals: BTreeMap<&'static str, SimDuration> = BTreeMap::new();
        for r in &self.rows {
            *totals.entry(r.component).or_insert(SimDuration::ZERO) += r.total;
        }
        totals.into_iter().collect()
    }

    /// Renders the attribution as a plain-text table, grouped by
    /// component, each component's rows sharing a percentage column
    /// against that component's total.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.rows.is_empty() {
            out.push_str("(no spans recorded)\n");
            return out;
        }
        out.push_str(&format!(
            "{:<14} {:<62} {:>9} {:>12} {:>12} {:>12} {:>7}\n",
            "component", "label", "count", "total", "self", "mean", "share"
        ));
        let totals: BTreeMap<&str, SimDuration> = self.component_totals().into_iter().collect();
        for r in &self.rows {
            let comp_total = totals
                .get(r.component)
                .copied()
                .unwrap_or(SimDuration::ZERO);
            let share = if comp_total.is_zero() {
                0.0
            } else {
                r.total.as_secs_f64() / comp_total.as_secs_f64() * 100.0
            };
            out.push_str(&format!(
                "{:<14} {:<62} {:>9} {:>12} {:>12} {:>12} {:>6.1}%\n",
                r.component,
                r.label,
                r.count,
                r.total.to_string(),
                r.self_time.to_string(),
                r.mean().to_string(),
                share
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Collector;
    use bmhive_sim::{SimDuration, SimTime};

    fn dur(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    #[test]
    fn groups_by_component_and_label() {
        let mut c = Collector::new(64);
        c.span("a", "x", SimTime::ZERO, dur(10));
        c.span("a", "x", SimTime::from_nanos(10), dur(30));
        c.span("b", "y", SimTime::ZERO, dur(5));
        let attr = Attribution::from_events(&c.events_by_seq());
        assert_eq!(attr.rows().len(), 2);
        let ax = attr.row("a", "x").unwrap();
        assert_eq!(ax.count, 2);
        assert_eq!(ax.total, dur(40));
        assert_eq!(ax.mean(), dur(20));
        assert_eq!(ax.min, dur(10));
        assert_eq!(ax.max, dur(30));
        assert_eq!(attr.component_totals(), [("a", dur(40)), ("b", dur(5))]);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut c = Collector::new(64);
        let outer = c.begin("op", "outer", SimTime::ZERO);
        c.span("op", "child", SimTime::ZERO, dur(30));
        c.span("op", "child", SimTime::from_nanos(30), dur(20));
        c.end(outer, SimTime::from_nanos(100));
        let attr = Attribution::from_events(&c.events_by_seq());
        let outer = attr.row("op", "outer").unwrap();
        assert_eq!(outer.total, dur(100));
        assert_eq!(outer.self_time, dur(50));
        // Leaf self time equals its total.
        assert_eq!(attr.row("op", "child").unwrap().self_time, dur(50));
        // Component self time never double-counts: equals the root total.
        let self_time: SimDuration = attr.rows().iter().map(|r| r.self_time).sum();
        assert_eq!(self_time, dur(100));
    }

    #[test]
    fn rows_are_ordered_deterministically() {
        let mut c = Collector::new(64);
        c.span("z", "late", SimTime::ZERO, dur(1));
        c.span("a", "early", SimTime::ZERO, dur(1));
        let attr = Attribution::from_events(&c.events_by_seq());
        assert_eq!(attr.rows()[0].component, "a");
        assert_eq!(attr.rows()[1].component, "z");
    }

    #[test]
    fn text_table_renders_and_shares_sum_within_component() {
        let mut c = Collector::new(64);
        c.span("io", "read", SimTime::ZERO, dur(75));
        c.span("io", "write", SimTime::ZERO, dur(25));
        let attr = Attribution::from_events(&c.events_by_seq());
        let text = attr.to_text();
        assert!(text.contains("read"));
        assert!(text.contains("75.0%"));
        assert!(text.contains("25.0%"));
        assert_eq!(
            Attribution::from_events([]).to_text(),
            "(no spans recorded)\n"
        );
    }
}
