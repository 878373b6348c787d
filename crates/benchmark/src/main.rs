//! `dsec-benchmark`: the one benchmark for the stack.
//!
//! ```text
//! dsec-benchmark run --workload <build|campaign|traffic|degraded|all> --seed N
//!                    [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
//! dsec-benchmark compare <baseline> <candidate>
//! ```
//!
//! `run` measures one workload per process (so peak RSS belongs to it),
//! prints every metric by name with its unit, runs the workload's
//! correctness checks, writes a result file, and ends standard output
//! with a one-line JSON summary. See the README beside this crate.

mod alloc;
mod catalogue;
mod compare;
mod host;
mod inputs;
mod json;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use catalogue::WORKLOADS;
use inputs::Inputs;
use json::Value;
use report::{metrics_json, samples_json, Metric, Report};
use trace::Tracer;
use workloads::Ctx;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Timed work per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  dsec-benchmark run --workload <build|campaign|traffic|degraded|all> --seed N
                     [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
  dsec-benchmark compare <baseline> <candidate>";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut smoke = false;
    let mut out_dir = None;
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let text = value("--seed")?;
                seed = Some(
                    text.parse::<u64>()
                        .map_err(|_| format!("bad --seed {text:?}"))?,
                );
            }
            "--seconds" => {
                let text = value("--seconds")?;
                seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {text:?}"))?;
            }
            "--out" => out_dir = Some(PathBuf::from(value("--out")?)),
            "--smoke" => smoke = true,
            // Bare `--trace` turns tracing on; `--trace 0|1` says which.
            "--trace" => {
                traced = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    // Build products, spill files and results all stay under the build
    // directory, inside the checkout the benchmark was started in.
    let out_dir = out_dir.unwrap_or_else(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        Path::new(&target).join("dsec-benchmark")
    });
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        smoke,
        out_dir,
    })
}

/// `--workload all`: one child process per workload, in catalogue order.
/// Each child gets the same arguments plus its own `--workload`, which,
/// coming last, overrides `all`.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for workload in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", workload.name])
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn run_one(args: RunArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let calibration_before = host::calibration_ms();
    let mut ctx = Ctx {
        inputs: Inputs::new(args.seed, args.smoke),
        traced: args.traced,
        smoke: args.smoke,
        seconds: args.seconds,
        out_dir: args.out_dir.clone(),
        tracer: Tracer::new(args.traced),
    };
    let mut report = workloads::run(&args.workload, &mut ctx).expect("workload name was checked");
    if args.traced {
        layers::measure(&mut ctx, &mut report);
        layers::estimate_shares(&ctx, &mut report);
        let builds = ctx.tracer.durations_s("workloads.build");
        report
            .layers
            .set("workloads.build_s", stats::median(&builds));
    }
    let calibration_after = host::calibration_ms();
    let noisy = host::is_noisy(calibration_before, calibration_after);

    let metrics = if args.traced {
        report.per_layer()
    } else {
        report.end_to_end()
    };
    print_listing(
        &args,
        &report,
        &metrics,
        [calibration_before, calibration_after],
        noisy,
    );
    let self_times = ctx.tracer.self_time_s();
    for (span, seconds) in &self_times {
        println!("span {span}: self time {seconds:.6} s");
    }

    let stem = format!(
        "{}-seed{}-{}-{}",
        report.workload,
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis()),
    );
    let result = Value::obj([
        ("benchmark", Value::str("dsec-benchmark")),
        ("workload", Value::str(report.workload)),
        ("seed", Value::Num(args.seed as f64)),
        ("traced", Value::Bool(args.traced)),
        ("smoke", Value::Bool(args.smoke)),
        ("seconds", Value::Num(args.seconds)),
        ("threads", Value::Num(1.0)),
        ("repetitions", Value::Num(report.rep_s.len() as f64)),
        (
            "host",
            Value::obj([
                ("git_commit", Value::str(host::git_commit(Path::new(".")))),
                ("rustc", Value::str(host::rustc_version())),
                ("nproc", Value::Num(host::nproc() as f64)),
                (
                    "calibration_ms",
                    Value::nums(&[calibration_before, calibration_after]),
                ),
                ("noisy", Value::Bool(noisy)),
            ]),
        ),
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("ops_per_repetition", Value::Num(report.ops_per_rep as f64)),
        (
            "checks",
            Value::Arr(
                report
                    .checks
                    .iter()
                    .map(|c| {
                        Value::obj([
                            ("name", Value::str(c.name)),
                            ("passed", Value::Bool(c.passed)),
                            ("detail", Value::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("repetition_s", samples_json(&report.rep_s)),
        ("setup_s", samples_json(&report.setup_s)),
        (
            if args.traced {
                "per_layer"
            } else {
                "end_to_end"
            },
            metrics_json(&metrics),
        ),
        (
            "span_self_s",
            Value::obj(self_times.iter().map(|(&span, &s)| (span, Value::Num(s)))),
        ),
    ]);
    let file = args.out_dir.join(format!("{stem}.json"));
    std::fs::write(&file, format!("{result}\n")).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("result file: {}", file.display());
    if args.traced {
        let file = args.out_dir.join(format!("{stem}.trace.jsonl"));
        std::fs::write(&file, ctx.tracer.to_jsonl(report.workload))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!(
            "trace file: {} ({} spans)",
            file.display(),
            ctx.tracer.spans().len()
        );
    }

    // The last line of standard output is the machine-readable summary.
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(report.correct())),
            ("attempted", Value::Num(report.attempted.max(1) as f64)),
            ("failed", Value::Num(report.failed as f64)),
            ("metrics", metrics_json(&metrics)),
        ])
    );
    Ok(report.correct())
}

fn print_listing(
    args: &RunArgs,
    report: &Report,
    metrics: &[Metric],
    calibration_ms: [f64; 2],
    noisy: bool,
) {
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == report.workload)
        .map_or("", |w| w.why);
    println!(
        "workload {}: {why}\nseed {} | {} | {} | threads 1 | nproc {}",
        report.workload,
        args.seed,
        if args.traced {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
        if args.smoke {
            "smoke population".to_string()
        } else {
            format!("1:{} population", inputs::FULL_SCALE)
        },
        host::nproc(),
    );
    for (label, samples) in [
        ("repetition_s", &report.rep_s),
        ("setup_s", &report.setup_s),
    ] {
        if let Some(s) = stats::Summary::of(samples) {
            println!(
                "{label}: n {} min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4} | samples {:?}",
                s.n, s.min, s.q1, s.median, s.q3, s.max, samples
            );
        }
    }
    println!(
        "host.calibration_ms: before {:.1} after {:.1}{}",
        calibration_ms[0],
        calibration_ms[1],
        if noisy {
            " | NOISY: the host was busy during this run"
        } else {
            ""
        }
    );
    for m in metrics {
        println!(
            "{} = {} {} ({} is better)",
            m.name,
            m.value,
            m.unit,
            m.better.as_str()
        );
    }
    for check in &report.checks {
        println!(
            "check {}: {} ({})",
            check.name,
            if check.passed { "ok" } else { "FAILED" },
            check.detail
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => parse_run(rest).and_then(|run| {
            if run.workload == "all" {
                run_all(rest)
            } else {
                run_one(run)
            }
        }),
        Some((command, rest)) if command == "compare" && rest.len() == 2 => {
            compare::run(Path::new(&rest[0]), Path::new(&rest[1]))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("dsec-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
