//! The four workloads. Each runs alone in its process, single-threaded
//! (`LoadConfig.threads = 1`, `ScanOptions.threads = 1`), and measures
//! the library from outside by timing calls into its public functions.

pub mod build;
pub mod campaign;
pub mod traffic;

use std::path::PathBuf;
use std::time::Instant;

use dsec_workloads::PaperWorld;

use crate::alloc::AllocMark;
use crate::inputs::Inputs;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// One run's settings and its span recorder.
pub struct Ctx {
    pub inputs: Inputs,
    /// Per-layer run: spans on, unit costs measured after the workload.
    pub traced: bool,
    pub smoke: bool,
    /// Timed work to accumulate before stopping (repetition floors apply).
    pub seconds: f64,
    /// Where spill files, traces and the result file go.
    pub out_dir: PathBuf,
    pub tracer: Tracer,
}

/// Wall time and allocations of the timed repetitions, and the process's
/// peak RSS when the last one ended — before the correctness checks,
/// whose scans and replays are the harness's memory, not the workload's.
#[derive(Debug, Default)]
pub struct Timed {
    pub wall_s: Vec<f64>,
    pub allocs: Vec<AllocMark>,
    pub peak_rss_mib: f64,
}

impl Ctx {
    /// Builds the population, inside a `workloads.build` span.
    pub fn build_world(&mut self) -> PaperWorld {
        let population = self.inputs.population.clone();
        self.tracer
            .span("workloads.build", |_| dsec_workloads::build(&population))
    }

    /// Runs `rep` until it has accumulated `seconds` of timed work and at
    /// least `floor` repetitions; under `--smoke`, exactly one. `rep`
    /// times its own measured region and returns it with the allocations
    /// made there. In a traced run the tracer is on for even repetitions
    /// and off for odd ones, and an even number run, so the two halves
    /// give the tracer's own cost ([`Ctx::trace_overhead`]).
    pub fn repeat(
        &mut self,
        floor: usize,
        mut rep: impl FnMut(&mut Ctx, usize) -> (f64, AllocMark),
    ) -> Timed {
        let (floor, seconds) = if self.smoke {
            (1, 0.0)
        } else {
            (floor, self.seconds)
        };
        let mut timed = Timed::default();
        let mut total = 0.0;
        loop {
            let index = timed.wall_s.len();
            if index >= floor && total >= seconds && !(self.traced && index % 2 == 1) {
                break;
            }
            self.tracer.set_enabled(self.traced && index % 2 == 0);
            let (wall, allocs) = rep(self, index);
            total += wall;
            timed.wall_s.push(wall);
            timed.allocs.push(allocs);
        }
        self.tracer.set_enabled(self.traced);
        timed.peak_rss_mib = crate::host::peak_rss_mib().unwrap_or(0.0);
        timed
    }

    /// Median traced repetition over median untraced repetition, minus
    /// one (0 for an untraced run).
    pub fn trace_overhead(&self, timed: &Timed) -> f64 {
        if !self.traced {
            return 0.0;
        }
        let half = |parity: usize| -> Vec<f64> {
            timed
                .wall_s
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(_, &w)| w)
                .collect()
        };
        let (on, off) = (median(&half(0)), median(&half(1)));
        if off > 0.0 {
            on / off - 1.0
        } else {
            0.0
        }
    }
}

/// Times `f` and counts the allocations it makes.
pub fn measured<R>(f: impl FnOnce() -> R) -> (R, f64, AllocMark) {
    let mark = AllocMark::now();
    let started = Instant::now();
    let result = f();
    let wall = started.elapsed().as_secs_f64();
    (result, wall, mark.elapsed())
}

/// Copies the timed repetitions into `report`, with the cross-cutting
/// per-layer values every workload reports the same way: allocations
/// per operation (last repetition) and the tracer's overhead. Call it
/// once `ops_per_rep` is known.
pub fn record_timed(ctx: &Ctx, timed: &Timed, report: &mut Report) {
    report.rep_s = timed.wall_s.clone();
    report.peak_rss_mib = timed.peak_rss_mib;
    if let Some(last) = timed.allocs.last() {
        let ops = report.ops_per_rep.max(1) as f64;
        report
            .layers
            .set("alloc.count_per_op", last.count as f64 / ops);
        report
            .layers
            .set("alloc.bytes_per_op", last.bytes as f64 / ops);
    }
    report
        .layers
        .set("trace.overhead_share", ctx.trace_overhead(timed));
}

/// Runs the workload called `name`.
pub fn run(name: &str, ctx: &mut Ctx) -> Option<Report> {
    match name {
        "build" => Some(build::run(ctx)),
        "campaign" => Some(campaign::run(ctx)),
        "traffic" => Some(traffic::run(ctx)),
        "degraded" => Some(traffic::run_degraded(ctx)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(traced: bool, smoke: bool, seconds: f64) -> Ctx {
        Ctx {
            inputs: Inputs::new(1, true),
            traced,
            smoke,
            seconds,
            out_dir: PathBuf::new(),
            tracer: Tracer::new(traced),
        }
    }

    /// Runs `repeat` with a fake repetition of `wall` seconds; returns
    /// whether the tracer was on in each repetition.
    fn traced_flags(ctx: &mut Ctx, floor: usize, wall: f64) -> Vec<bool> {
        let mut flags = Vec::new();
        ctx.repeat(floor, |ctx, _| {
            let before = ctx.tracer.spans().len();
            ctx.tracer.span("workloads.build", |_| ());
            flags.push(ctx.tracer.spans().len() > before);
            (wall, AllocMark { count: 0, bytes: 0 })
        });
        flags
    }

    #[test]
    fn repeats_to_the_floor_and_then_to_the_time_budget() {
        assert_eq!(traced_flags(&mut ctx(false, false, 0.0), 3, 1.0).len(), 3);
        assert_eq!(traced_flags(&mut ctx(false, false, 10.0), 3, 4.0).len(), 3);
        assert_eq!(traced_flags(&mut ctx(false, false, 10.0), 3, 1.0).len(), 10);
    }

    #[test]
    fn smoke_runs_once_whatever_the_budget() {
        assert_eq!(traced_flags(&mut ctx(false, true, 60.0), 5, 0.001).len(), 1);
    }

    #[test]
    fn traced_runs_alternate_the_tracer_over_an_even_count() {
        assert_eq!(
            traced_flags(&mut ctx(true, false, 0.0), 3, 1.0),
            [true, false, true, false]
        );
        assert_eq!(
            traced_flags(&mut ctx(true, true, 0.0), 5, 1.0),
            [true, false]
        );
        assert_eq!(
            traced_flags(&mut ctx(false, false, 0.0), 2, 1.0),
            [false, false]
        );
    }

    #[test]
    fn overhead_is_traced_median_over_untraced_median() {
        let timed = Timed {
            wall_s: vec![2.0, 1.0, 2.2, 1.0, 1.8, 1.0],
            allocs: Vec::new(),
            peak_rss_mib: 0.0,
        };
        assert!((ctx(true, false, 0.0).trace_overhead(&timed) - 1.0).abs() < 1e-12);
        assert_eq!(ctx(false, false, 0.0).trace_overhead(&timed), 0.0);
    }
}
