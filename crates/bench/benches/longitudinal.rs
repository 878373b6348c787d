//! The longitudinal pipeline benchmark: cold- vs warm-cache snapshot
//! throughput at 1/4/8 scan threads, emitted as `BENCH_longitudinal.json`
//! so the repo carries a perf trajectory across changes.
//!
//! A *cold* scan starts from an empty [`ScanCache`] and queries every
//! domain; the *warm* scan runs one simulated day later and reads the
//! registries' change journals, so only domains the ecosystem actually
//! changed are looked at. The interesting numbers are domains/second, the
//! warm-over-cold speedup, and what a *fresh* cache costs on a world that
//! was already scanned (the authorities' response caches and the world's
//! scan memo answer it).
//!
//! ```sh
//! cargo bench --bench longitudinal                # full_study workload
//! DSEC_BENCH_SMOKE=1 cargo bench --bench longitudinal   # CI smoke mode
//! DSEC_BENCH_OUT=/tmp/b.json cargo bench --bench longitudinal
//! ```
//!
//! Plain `main` (harness = false): timing a multi-second scan needs no
//! statistical harness, and the JSON is written by hand so the bench
//! crate gains no serialization dependency.

use std::time::Instant;

use dsec_ecosystem::ALL_TLDS;
use dsec_scanner::{ScanCache, ScanOptions, Snapshot};
use dsec_workloads::{build, PopulationConfig};

struct Run {
    threads: usize,
    domains: u64,
    cold_ms: f64,
    warm_ms: f64,
    hit_rate: f64,
}

impl Run {
    fn speedup(&self) -> f64 {
        if self.warm_ms > 0.0 {
            self.cold_ms / self.warm_ms
        } else {
            f64::INFINITY
        }
    }

    fn to_json(&self) -> String {
        format!(
            "    {{\"threads\": {}, \"domains\": {}, \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \
             \"cold_domains_per_s\": {:.1}, \"warm_domains_per_s\": {:.1}, \
             \"warm_speedup\": {:.2}, \"warm_hit_rate\": {:.4}}}",
            self.threads,
            self.domains,
            self.cold_ms,
            self.warm_ms,
            rate(self.domains, self.cold_ms),
            rate(self.domains, self.warm_ms),
            self.speedup(),
            self.hit_rate,
        )
    }
}

fn rate(domains: u64, ms: f64) -> f64 {
    if ms > 0.0 {
        domains as f64 / (ms / 1000.0)
    } else {
        f64::INFINITY
    }
}

fn main() {
    // `cargo bench` forwards harness flags like `--bench`; ignore them.
    let smoke = std::env::var("DSEC_BENCH_SMOKE").is_ok();
    let (population, thread_counts): (PopulationConfig, &[usize]) = if smoke {
        (PopulationConfig::tiny(), &[1, 4])
    } else {
        // The full_study workload: the default 1:2000-scale population.
        (PopulationConfig::default(), &[1, 4, 8])
    };

    eprintln!(
        "longitudinal bench: building {} population…",
        if smoke { "smoke (tiny)" } else { "full_study (1:2000)" }
    );
    let built = Instant::now();
    let mut pw = build(&population);
    let domains = pw.world.domain_count() as u64;
    eprintln!("built {} domains in {:.1}s", domains, built.elapsed().as_secs_f64());

    let mut runs: Vec<Run> = Vec::new();
    for &threads in thread_counts {
        let options = ScanOptions {
            threads,
            ..ScanOptions::default()
        };
        let mut cache = ScanCache::new();

        let started = Instant::now();
        let cold = Snapshot::take_cached(&pw.world, &ALL_TLDS, &options, &mut cache);
        let cold_ms = started.elapsed().as_secs_f64() * 1000.0;
        assert!(!cold.cells.is_empty(), "cold scan produced cells");

        // One simulated day of ecosystem churn, then the warm scan —
        // best-of-N on a clone of the post-cold cache, so every rep sees
        // the identical warm state and only the fastest timing counts
        // (the scan itself is deterministic; reps only shed scheduler
        // noise).
        pw.world.tick();
        let reps = if smoke { 1 } else { 3 };
        let mut warm_ms = f64::INFINITY;
        let mut hit_rate = 0.0;
        for _ in 0..reps {
            let mut warm_cache = cache.clone();
            let hits_before = warm_cache.stats().hits;
            let misses_before = warm_cache.stats().misses;
            let started = Instant::now();
            let warm = Snapshot::take_cached(&pw.world, &ALL_TLDS, &options, &mut warm_cache);
            let ms = started.elapsed().as_secs_f64() * 1000.0;
            assert!(!warm.cells.is_empty(), "warm scan produced cells");
            warm_ms = warm_ms.min(ms);
            let hits = warm_cache.stats().hits - hits_before;
            let misses = warm_cache.stats().misses - misses_before;
            hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        }
        let run = Run {
            threads,
            domains,
            cold_ms,
            warm_ms,
            hit_rate,
        };
        eprintln!(
            "threads={:<2} cold {:>9.1} ms ({:>9.1} dom/s) | warm {:>9.1} ms ({:>9.1} dom/s) | \
             speedup {:>6.1}x | hit rate {:.1}%",
            run.threads,
            run.cold_ms,
            rate(domains, run.cold_ms),
            run.warm_ms,
            rate(domains, run.warm_ms),
            run.speedup(),
            100.0 * run.hit_rate,
        );
        runs.push(run);
    }

    // A fresh cache over the already-scanned world: a population sweep
    // answered by the world's scan memo and the authorities' response
    // caches. It is the only scan left that runs the parallel cache pass
    // over every domain, so it carries both steady-state numbers: its
    // cost against the world's genuinely cold first scan (same thread
    // count), and its thread scaling — the contention metric this bench
    // guards. > 1.0 means adding workers helps; < 1.0 means they fight
    // over locks. Judged only on hosts that actually have the cores
    // (`host_threads`) — a single-core container cannot show parallel
    // speedup no matter how contention-free the code is.
    let host_threads = dsec_bench::host_threads();
    let first = &runs[0];
    let last = &runs[runs.len() - 1];
    let steady_cold_ms = |threads: usize| {
        let options = ScanOptions {
            threads,
            ..ScanOptions::default()
        };
        (0..if smoke { 1 } else { 3 })
            .map(|_| {
                let started = Instant::now();
                let scan =
                    Snapshot::take_cached(&pw.world, &ALL_TLDS, &options, &mut ScanCache::new());
                assert!(!scan.cells.is_empty(), "steady cold scan produced cells");
                started.elapsed().as_secs_f64() * 1000.0
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (steady_first, steady_last) = (steady_cold_ms(first.threads), steady_cold_ms(last.threads));
    let warm_scaling = steady_first / steady_last.max(f64::MIN_POSITIVE);
    // Whether the scaling assertions below actually ran: a small host
    // cannot exhibit parallel speedup, so there `warm_scaling_1_to_8` is
    // informational and CI must treat it as "skipped", not "passed".
    let scaling_checked = !smoke && host_threads >= 8;
    let steady_cold_over_first_cold = steady_first / first.cold_ms.max(f64::MIN_POSITIVE);
    eprintln!(
        "fresh cache over the scanned world: {:.1} ms at {} threads, {:.1} ms at {} \
         ({:.2}x; host has {} hardware threads); {:.2} of the first cold scan",
        steady_first,
        first.threads,
        steady_last,
        last.threads,
        warm_scaling,
        host_threads,
        steady_cold_over_first_cold
    );

    let json = format!(
        "{{\n  \"bench\": \"longitudinal\",\n  \"smoke\": {},\n  \"scale\": {},\n  \
         \"domains\": {},\n  \"tlds\": {},\n  \"host_threads\": {},\n  \
         \"scaling_checked\": {},\n  \"warm_scaling_1_to_8\": {:.2},\n  \
         \"steady_cold_over_first_cold\": {:.2},\n  \"runs\": [\n{}\n  ]\n}}\n",
        smoke,
        population.scale,
        domains,
        ALL_TLDS.len(),
        host_threads,
        scaling_checked,
        warm_scaling,
        steady_cold_over_first_cold,
        runs.iter()
            .map(Run::to_json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );

    let out = std::env::var("DSEC_BENCH_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_longitudinal.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    std::fs::write(&out, &json).expect("write BENCH_longitudinal.json");
    eprintln!("wrote {out}");

    // The pipeline's contracts, checked on the real workload (smoke
    // populations are too small for stable timing):
    //
    // 1. On the FIRST run — the only genuinely cold authority plane — a
    //    day-later warm scan must still be at least twice as fast as the
    //    cold scan (the ScanCache's reason to exist).
    // 2. Once the world has been scanned, a fresh ScanCache must cost at
    //    most half of that first scan — the wire-response cache's and
    //    the scan memo's contract. (The gate used to compare it with the
    //    warm scan; a warm scan is a delta now, not a sweep.)
    if !smoke {
        assert!(
            first.speedup() >= 2.0,
            "warm scan at {} threads only {:.2}x faster than cold",
            first.threads,
            first.speedup()
        );
        assert!(
            steady_cold_over_first_cold <= 0.5,
            "a fresh cache over the scanned world costs {steady_cold_over_first_cold:.2} of \
             the first scan (response cache and scan memo not absorbing the cold path)"
        );
        // Contention guard, only meaningful with real cores under the
        // workers: more threads must never make the cache pass slower.
        if scaling_checked {
            assert!(
                warm_scaling >= 1.0,
                "cache pass got slower with threads: {warm_scaling:.2}x from {} to {}",
                first.threads,
                last.threads
            );
        }
    }
}
