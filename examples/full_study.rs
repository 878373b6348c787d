//! The whole paper in one run: build the scaled population, probe every
//! named registrar, scan the 2015-03-01 → 2016-12-31 window, and print
//! every table, figure, and paper-vs-measured checkpoint. Writes
//! EXPERIMENTS.md-style markdown to stdout at the end.
//!
//! Run in release mode; the default 1:2000 scale signs a few thousand
//! real RSA zones and issues millions of wire-format queries:
//!
//! ```sh
//! cargo run --release --example full_study            # default 1:2000
//! DSEC_SCALE=20000 cargo run --release --example full_study   # faster
//! ```
//!
//! Exits nonzero unless every study experiment and extension (E-X1…E-X3)
//! reproduces; some checkpoints hold only at the default scale.

use dsec::core::{
    experiment_cds_bootstrap, experiment_default_signing_ablation, experiment_rollover, run_study,
    StudyConfig,
};
use dsec::workloads::PopulationConfig;

fn main() {
    let scale: u64 = std::env::var("DSEC_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let interval: u32 = std::env::var("DSEC_SCAN_INTERVAL")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(14);

    let config = StudyConfig {
        population: PopulationConfig {
            scale,
            tail_operators: if scale <= 4_000 { 400 } else { 40 },
            ..Default::default()
        },
        scan_interval_days: interval,
    };
    eprintln!("running full study at scale 1:{scale}, snapshots every {interval} days…");
    let started = std::time::Instant::now();
    let output = run_study(&config);
    eprintln!(
        "study done in {:.1}s: {} domains, {} snapshots, {} queries",
        started.elapsed().as_secs_f64(),
        output.paper_world.world.domain_count(),
        output.store.snapshots().len(),
        output.paper_world.world.network.query_count(),
    );
    eprintln!(
        "scan cache: {:.1}% hit rate ({} hits / {} misses, {} entries)",
        100.0 * output.cache_stats.hit_rate(),
        output.cache_stats.hits,
        output.cache_stats.misses,
        output.cache_stats.entries,
    );

    println!("{}", output.summary());
    for experiment in &output.experiments {
        println!("{experiment}");
    }
    println!(
        "\n{}/{} experiments reproduced all checkpoints\n",
        output.reproduced_count(),
        output.experiments.len()
    );

    // Extension experiments (§8 recommendations, DESIGN.md E-X1…E-X3).
    let extensions = [
        experiment_cds_bootstrap(12),
        experiment_default_signing_ablation(4, 6),
        experiment_rollover(),
    ];
    for e in &extensions {
        println!("{e}");
    }

    // Ecosystem bookkeeping the paper reports anecdotally.
    let events = &output.paper_world.world.events;
    println!("ecosystem counters:");
    for (kind, count) in events.counters() {
        println!("  {kind:<24} {count}");
    }
    println!(
        "\n{}",
        dsec::reports::rollover_lifecycle(&output.paper_world.world)
    );

    println!("\n--- EXPERIMENTS.md ---\n");
    println!("{}", output.to_markdown());
    for e in &extensions {
        println!("{}", e.to_markdown());
    }
    if !output
        .experiments
        .iter()
        .chain(&extensions)
        .all(|e| e.reproduced())
    {
        eprintln!("not every experiment reproduced");
        std::process::exit(1);
    }
}
