//! `dsec-benchmark compare <baseline> <candidate>`: one row per workload
//! × end-to-end metric with both medians and quartiles, the ratio with
//! its base, and a verdict against the metric's bound.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::catalogue::{Better, END_TO_END, WORKLOADS};
use crate::json::Value;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread exceeds the bound and the two sides' runs
    /// interleave: the data cannot tell a change from noise.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges `candidate` against `baseline` (one value per run on each
/// side). The medians decide, by the bound — unless a side's spread is
/// wider than the bound and the runs interleave.
pub fn verdict(baseline: &[f64], candidate: &[f64], better: Better, bound: f64) -> Option<Verdict> {
    let (base, cand) = (Summary::of(baseline)?, Summary::of(candidate)?);
    let worsening = match better {
        Better::Lower => (cand.median - base.median) / base.median.abs(),
        Better::Higher => (base.median - cand.median) / base.median.abs(),
    };
    let interleaved = base.min <= cand.max && cand.min <= base.max;
    let noisy = base.spread() > bound || cand.spread() > bound;
    Some(if noisy && interleaved {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Regressed
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    })
}

/// End-to-end values per (workload, metric), one per untraced run found.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Loads a result file, or every `*.json` result in a directory.
/// Traced runs carry no end-to-end metrics and are skipped.
fn load(path: &Path) -> Result<Runs, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let file = entry.map_err(|e| e.to_string())?.path();
            if file.extension().is_some_and(|ext| ext == "json") {
                files.push(file);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut runs = Runs::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let (Some(workload), Some(Value::Obj(metrics))) = (
            doc.get("workload").and_then(Value::as_str),
            doc.get("end_to_end"),
        ) else {
            continue;
        };
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no untraced result files", path.display()));
    }
    Ok(runs)
}

/// Prints the comparison table; `Ok(true)` when no row is `regressed`
/// or `unresolved`.
pub fn run(baseline: &Path, candidate: &Path) -> Result<bool, String> {
    let (base, cand) = (load(baseline)?, load(candidate)?);
    println!(
        "{:<9} {:<15} {:>4} {:>12} {:>12} {:>12} {:>4} {:>12} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "n",
        "base q1",
        "base median",
        "base q3",
        "n",
        "cand q1",
        "cand median",
        "cand q3",
        "ratio",
        "bound"
    );
    let mut clean = true;
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let key = (workload.name.to_string(), metric.name.to_string());
            let (Some(b), Some(c)) = (base.get(&key), cand.get(&key)) else {
                continue;
            };
            let (Some(bs), Some(cs)) = (Summary::of(b), Summary::of(c)) else {
                continue;
            };
            let verdict = verdict(b, c, metric.better, metric.bound).expect("both sides have runs");
            clean &= !matches!(verdict, Verdict::Regressed | Verdict::Unresolved);
            println!(
                "{:<9} {:<15} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>7.4} {:>6}  {verdict} (candidate/baseline median, {} is better)",
                workload.name, metric.name, bs.n, bs.q1, bs.median, bs.q3, cs.n, cs.q1, cs.median, cs.q3,
                cs.median / bs.median, metric.bound, metric.better.as_str(),
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUND: f64 = 0.10;

    #[test]
    fn medians_within_the_bound_are_unchanged() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let cand = [104.0, 105.0, 103.0, 104.5, 103.5];
        assert_eq!(
            verdict(&base, &cand, Better::Lower, BOUND),
            Some(Verdict::Unchanged)
        );
        assert_eq!(
            verdict(&base, &cand, Better::Higher, BOUND),
            Some(Verdict::Unchanged)
        );
    }

    #[test]
    fn direction_decides_between_improved_and_regressed() {
        let base = [100.0, 101.0, 99.0];
        let cand = [120.0, 121.0, 119.0];
        assert_eq!(
            verdict(&base, &cand, Better::Lower, BOUND),
            Some(Verdict::Regressed)
        );
        assert_eq!(
            verdict(&base, &cand, Better::Higher, BOUND),
            Some(Verdict::Improved)
        );
        assert_eq!(
            verdict(&cand, &base, Better::Lower, BOUND),
            Some(Verdict::Improved)
        );
        assert_eq!(
            verdict(&cand, &base, Better::Higher, BOUND),
            Some(Verdict::Regressed)
        );
    }

    #[test]
    fn wide_interleaved_runs_are_unresolved() {
        let base = [80.0, 100.0, 120.0, 90.0, 110.0];
        let cand = [85.0, 125.0, 105.0, 95.0, 130.0];
        assert_eq!(
            verdict(&base, &cand, Better::Lower, BOUND),
            Some(Verdict::Unresolved)
        );
    }

    #[test]
    fn wide_but_separated_runs_still_get_a_verdict() {
        let base = [80.0, 100.0, 120.0];
        let cand = [200.0, 240.0, 280.0];
        assert_eq!(
            verdict(&base, &cand, Better::Lower, BOUND),
            Some(Verdict::Regressed)
        );
        assert_eq!(
            verdict(&base, &cand, Better::Higher, BOUND),
            Some(Verdict::Improved)
        );
    }

    #[test]
    fn single_runs_compare_by_value_and_empty_sides_do_not() {
        assert_eq!(
            verdict(&[1.0], &[1.0], Better::Higher, 0.001),
            Some(Verdict::Unchanged)
        );
        assert_eq!(
            verdict(&[1.0], &[0.9], Better::Higher, 0.001),
            Some(Verdict::Regressed)
        );
        assert_eq!(verdict(&[], &[1.0], Better::Lower, BOUND), None);
    }
}
