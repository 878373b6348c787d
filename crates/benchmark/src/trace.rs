//! In-memory spans around the harness's own calls into the library.
//!
//! Spans are recorded only by benchmark code (the library crates carry
//! no instrumentation yet), kept in a `Vec`, and written out as JSONL
//! when the run ends. A disabled tracer runs the closure and records
//! nothing, which is what every end-to-end measurement uses.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One closed span. Times are ns since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span recorder for one workload run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            // Reserved up front so that recording a span allocates nothing
            // inside a measured region (allocation counts must repeat
            // exactly whether or not a repetition is traced); a traced
            // campaign records ~870 spans.
            spans: Vec::with_capacity(8192),
            open: Vec::with_capacity(16),
        }
    }

    /// Turns recording on or off (traced runs alternate, to measure the
    /// tracer's own cost inside one process).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. `f` receives the tracer back so it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (s) of every span named `name`, in recording order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Self time per span name, seconds: each span's duration minus the
    /// part its direct children cover, summed over spans of that name.
    pub fn self_time_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *by_name.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
        }
        by_name
    }

    /// One JSON object per line: name, start, end, parent, workload.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let line = Value::obj([
                ("id", Value::Num(id as f64)),
                ("name", Value::str(span.name)),
                ("start_ns", Value::Num(span.start_ns as f64)),
                ("end_ns", Value::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("workload", Value::str(workload)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            t.span("inner", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = tracer.self_time_s();
        let outer_total = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e9;
        assert!(own["inner"] >= 0.020);
        assert!((own["outer"] + own["inner"] - outer_total).abs() < 1e-6);
        assert_eq!(tracer.durations_s("inner").len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_closure() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", |_| 7), 7);
        assert!(tracer.spans().is_empty());
        tracer.set_enabled(true);
        tracer.span("y", |_| ());
        assert_eq!(tracer.spans().len(), 1);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut tracer = Tracer::new(true);
        tracer.span("a", |t| t.span("b", |_| ()));
        let text = tracer.to_jsonl("campaign");
        let lines: Vec<Value> = text.lines().map(|l| Value::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("name").and_then(Value::as_str), Some("b"));
        assert_eq!(lines[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(lines[0].get("parent"), Some(&Value::Null));
        assert_eq!(
            lines[0].get("workload").and_then(Value::as_str),
            Some("campaign")
        );
    }
}
