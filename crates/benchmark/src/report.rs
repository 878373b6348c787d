//! What one workload run produced, and its renderings: the result file,
//! the human-readable metric listing, and the one-line summary an
//! outside driver reads from the end of standard output.

use crate::catalogue::{Better, END_TO_END, PER_LAYER};
use crate::json::Value;
use crate::stats::{median, Summary};

/// One reported metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
}

/// One named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Per-layer metric values by catalogue name; anything a workload does
/// not set reads 0 (its layer did no work there).
#[derive(Debug, Clone, Default)]
pub struct LayerValues(Vec<(&'static str, f64)>);

impl LayerValues {
    /// Sets `name`, which must be a catalogue name.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"));
        match self.0.iter_mut().find(|(n, _)| *n == def.name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((def.name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// The outcome of one workload in one process.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    /// Set-up time samples, s (one per set-up performed; median reported).
    pub setup_s: Vec<f64>,
    /// Wall time of each timed repetition, s.
    pub rep_s: Vec<f64>,
    /// `VmHWM` when the last timed repetition ended, MiB.
    pub peak_rss_mib: f64,
    /// Operations in one repetition.
    pub ops_per_rep: u64,
    /// Operations attempted / failed over all timed repetitions.
    pub attempted: u64,
    pub failed: u64,
    /// Share of operations that ended with a usable result.
    pub answered_share: f64,
    pub checks: Vec<Check>,
    pub layers: LayerValues,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            setup_s: Vec::new(),
            rep_s: Vec::new(),
            peak_rss_mib: 0.0,
            ops_per_rep: 0,
            attempted: 0,
            failed: 0,
            answered_share: 0.0,
            checks: Vec::new(),
            layers: LayerValues::default(),
        }
    }

    pub fn check(&mut self, name: &'static str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            passed,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        !self.rep_s.is_empty() && self.checks.iter().all(|c| c.passed)
    }

    /// Operations per second at the median repetition.
    pub fn ops_per_s(&self) -> f64 {
        let wall = median(&self.rep_s);
        if wall > 0.0 {
            self.ops_per_rep as f64 / wall
        } else {
            0.0
        }
    }

    /// Every end-to-end metric, catalogue order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: match m.name {
                    "setup_s" => median(&self.setup_s),
                    "ops_per_s" => self.ops_per_s(),
                    "peak_rss_mb" => self.peak_rss_mib,
                    "answered_share" => self.answered_share,
                    other => unreachable!("end-to-end metric {other} has no source"),
                },
                unit: m.unit,
                better: m.better,
            })
            .collect()
    }

    /// Every per-layer metric, catalogue order.
    pub fn per_layer(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: self.layers.get(m.name),
                unit: m.unit,
                better: m.better,
            })
            .collect()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::obj(metrics.iter().map(|m| {
        (
            m.name,
            Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
        )
    }))
}

/// `{"n":..,"min":..,"q1":..,"median":..,"q3":..,"max":..,"samples":[..]}`.
pub fn samples_json(samples: &[f64]) -> Value {
    let mut pairs = Vec::new();
    if let Some(s) = Summary::of(samples) {
        pairs.extend([
            ("n", Value::Num(s.n as f64)),
            ("min", Value::Num(s.min)),
            ("q1", Value::Num(s.q1)),
            ("median", Value::Num(s.median)),
            ("q3", Value::Num(s.q3)),
            ("max", Value::Num(s.max)),
        ]);
    }
    pairs.push(("samples", Value::nums(samples)));
    Value::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_per_s_uses_the_median_repetition() {
        let mut r = Report::new("traffic");
        r.ops_per_rep = 600;
        r.rep_s = vec![2.0, 3.0, 100.0];
        assert_eq!(r.ops_per_s(), 200.0);
        assert!(r.correct());
        r.check("x", false, "nope");
        assert!(!r.correct());
    }

    #[test]
    fn a_run_without_repetitions_is_not_correct() {
        assert!(!Report::new("build").correct());
    }

    #[test]
    fn every_catalogue_metric_is_reported_and_unset_layers_read_zero() {
        let mut r = Report::new("build");
        r.layers.set("dnssec.signed_zones", 12.0);
        let layers = r.per_layer();
        assert_eq!(layers.len(), PER_LAYER.len());
        let value = |name: &str| {
            layers
                .iter()
                .find(|m| m.name == name)
                .map(|m| (m.value, m.unit))
        };
        assert_eq!(value("dnssec.signed_zones"), Some((12.0, "count")));
        assert_eq!(value("resolver.timeouts"), Some((0.0, "count")));
        assert_eq!(r.end_to_end().len(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "not in the per-layer catalogue")]
    fn setting_an_unknown_layer_metric_is_a_bug() {
        LayerValues::default().set("resolver.made_up", 1.0);
    }
}
