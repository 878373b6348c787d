//! The population-scale ladder: builds the paper population at a ladder
//! of 1:N scales, runs a streamed (spill-to-disk) campaign at each, and
//! emits `BENCH_scale.json` tracking domains/s and peak RSS — the
//! flat-memory evidence for the columnar ecosystem and streaming
//! snapshot store.
//!
//! ```sh
//! cargo run --release --example scale_ladder                    # 1:2000, 1:200, 1:20, 1:5
//! DSEC_BENCH_SMOKE=1 cargo run --release --example scale_ladder # CI: 1:2000 + short 1:200
//! DSEC_BENCH_OUT=/tmp/s.json cargo run --release --example scale_ladder
//! ```
//!
//! The full ladder writes the committed `BENCH_scale.json` at the repo
//! root; a smoke run writes `target/BENCH_scale.json` instead, so it
//! never overwrites the full ladder's numbers.
//!
//! Scales run smallest population first, so the monotone `VmHWM` read
//! after each run attributes the peak to that scale (each step grows the
//! population ~10×, dwarfing its predecessors). A second read taken
//! right after the world build splits each peak into the build's share
//! (the simulated universe itself — zones, keys, registries — which is
//! inherently O(domains)) and the campaign's share (the scan cache and
//! spill buffers), which is what the streaming snapshot store keeps
//! sublinear. At the smallest scale the streamed campaign's CSVs are
//! asserted byte-identical to the sequential in-memory path over an
//! identically built world.
//!
//! The ladder judges itself: after writing the JSON it asserts the
//! pinned memory budget and both sublinearity gates, so CI reads its
//! exit code and nothing else. A rung this host cannot hold is not
//! started; the JSON names it under `skipped`.

use std::time::Instant;

use dsec::scanner::{scan_campaign_cached, scan_campaign_streamed, CampaignConfig, ScanCache};
use dsec::workloads::{build, PopulationConfig};

/// A `kB` field of a `/proc` status file, in MiB. Linux only.
fn proc_mb(path: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let rest = text.lines().find_map(|line| line.strip_prefix(field))?;
    let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set (VmHWM) of this process, in MiB. Other platforms
/// report 0 and `rss_available: false`.
fn peak_rss_mb() -> Option<f64> {
    proc_mb("/proc/self/status", "VmHWM:")
}

struct ScaleRun {
    scale: u64,
    domains: u64,
    build_s: f64,
    snapshots: u32,
    campaign_s: f64,
    build_peak_rss_mb: f64,
    peak_rss_mb: f64,
    hit_rate: f64,
}

impl ScaleRun {
    /// Domains scanned per second across the whole campaign (cold first
    /// snapshot plus all warm ones).
    fn domains_per_s(&self) -> f64 {
        if self.campaign_s > 0.0 {
            self.domains as f64 * self.snapshots as f64 / self.campaign_s
        } else {
            f64::INFINITY
        }
    }

    /// High-water growth attributable to the campaign itself: peak after
    /// the campaign minus peak after the world build. The build share is
    /// the simulated universe and scales with the population by
    /// construction; this remainder is the machinery under test.
    fn campaign_rss_mb(&self) -> f64 {
        (self.peak_rss_mb - self.build_peak_rss_mb).max(0.0)
    }

    fn to_json(&self) -> String {
        format!(
            "    {{\"scale\": {}, \"domains\": {}, \"build_s\": {:.1}, \"snapshots\": {}, \
             \"campaign_s\": {:.1}, \"domains_per_s\": {:.1}, \"build_peak_rss_mb\": {:.1}, \
             \"peak_rss_mb\": {:.1}, \"campaign_rss_mb\": {:.1}, \"warm_hit_rate\": {:.4}}}",
            self.scale,
            self.domains,
            self.build_s,
            self.snapshots,
            self.campaign_s,
            self.domains_per_s(),
            self.build_peak_rss_mb,
            self.peak_rss_mb,
            self.campaign_rss_mb(),
            self.hit_rate,
        )
    }
}

fn main() {
    let smoke = std::env::var("DSEC_BENCH_SMOKE").is_ok();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Smoke keeps CI quick: the two small scales over a 4-snapshot
    // window. The full ladder goes on to 1:20 (~7.4M domains) and 1:5
    // (~30M, a fifth of the paper's census) over the whole 21-month
    // window, each where the host can hold it.
    const SMOKE_SCALES: [u64; 2] = [2000, 200];
    let scales: &[u64] = if smoke {
        &SMOKE_SCALES
    } else {
        &[2000, 200, 20, 5]
    };
    let rss_available = peak_rss_mb().is_some();
    let host_mem_mb = proc_mb("/proc/meminfo", "MemTotal:");

    let mut runs: Vec<ScaleRun> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    let mut streamed_matches_memory = true;
    for &scale in scales {
        // A rung that cannot fit is left out and named in the JSON, not
        // started and OOM-killed before anything is written: peak RSS
        // grows at most linearly in population (the gates below), so the
        // previous rung's peak times the population step bounds this one.
        if let (Some(prev), Some(host_mb)) = (runs.last(), host_mem_mb) {
            let bound_mb = prev.peak_rss_mb * prev.scale as f64 / scale as f64;
            if bound_mb > host_mb {
                eprintln!(
                    "scale bench: skipping 1:{scale} — up to {bound_mb:.0} MiB on a \
                     {host_mb:.0} MiB host"
                );
                skipped.push(format!(
                    "{{\"scale\": {scale}, \"peak_rss_bound_mb\": {bound_mb:.1}, \
                     \"host_mem_mb\": {host_mb:.1}}}"
                ));
                continue;
            }
        }
        let population = PopulationConfig {
            scale,
            ..PopulationConfig::default()
        };
        eprintln!("scale bench: building 1:{} population…", scale);
        let built = Instant::now();
        let mut pw = build(&population);
        let build_s = built.elapsed().as_secs_f64();
        let domains = pw.world.domain_count() as u64;
        let build_peak = peak_rss_mb().unwrap_or(0.0);
        eprintln!("built {} domains in {:.1}s", domains, build_s);

        let until = if smoke {
            pw.world.today.plus_days(21)
        } else {
            pw.world.config.end
        };
        let config = CampaignConfig::new(until, 7);
        let spill = std::env::temp_dir().join(format!(
            "dsec-scale-bench-{}-{}.snap",
            std::process::id(),
            scale
        ));

        let mut cache = ScanCache::new();
        let started = Instant::now();
        let streamed = scan_campaign_streamed(&mut pw.world, &config, &mut cache, &spill)
            .expect("streamed campaign completes");
        let campaign_s = started.elapsed().as_secs_f64();
        let stats = cache.stats();
        let hit_rate = stats.hit_rate();
        let snapshots = streamed.len();

        // Byte-identity of the streamed path, checked at the smallest
        // scale (an identically built world re-runs the same campaign
        // through the in-memory store; determinism makes the scans
        // equal, so any CSV divergence is a spill/replay bug).
        if scale == scales[0] {
            let mut pw2 = build(&population);
            let mut cache2 = ScanCache::new();
            let memory = scan_campaign_cached(&mut pw2.world, &config, &mut cache2);
            let latest = memory.latest().expect("campaign has snapshots");
            let operators: Vec<String> = latest
                .cells
                .keys()
                .map(|(op, _)| op.clone())
                .take(16)
                .collect();
            for op in &operators {
                let streamed_csv = streamed.to_csv(op).expect("replay CSV");
                let streamed_ext = streamed.to_csv_extended(op).expect("replay CSV");
                if streamed_csv != memory.to_csv(op) || streamed_ext != memory.to_csv_extended(op) {
                    streamed_matches_memory = false;
                }
            }
            assert!(
                streamed_matches_memory,
                "streamed CSVs must byte-match the in-memory path"
            );
            eprintln!(
                "streamed CSVs byte-match the in-memory path ({} operators checked)",
                operators.len()
            );
        }

        std::fs::remove_file(&spill).ok();
        let peak = peak_rss_mb().unwrap_or(0.0);
        let run = ScaleRun {
            scale,
            domains,
            build_s,
            snapshots,
            campaign_s,
            build_peak_rss_mb: build_peak,
            peak_rss_mb: peak,
            hit_rate,
        };
        eprintln!(
            "scale 1:{:<5} {:>9} domains | {:>3} snapshots in {:>7.1}s ({:>9.1} dom/s) | \
             peak RSS {:>8.1} MiB (campaign {:>7.1} MiB) | warm hit rate {:.1}%",
            run.scale,
            run.domains,
            run.snapshots,
            run.campaign_s,
            run.domains_per_s(),
            run.peak_rss_mb,
            run.campaign_rss_mb(),
            100.0 * run.hit_rate,
        );
        runs.push(run);
    }

    // Sublinear-memory gate, judged between the last two scales (the
    // pair the acceptance criterion names). The world build is the
    // simulated universe and scales with the population by construction,
    // so the gate binds the *campaign-attributable* high-water growth:
    // the scan cache and spill buffers, which the streaming store is
    // supposed to keep flat. Total peak RSS growth is reported alongside
    // for the record. The gate needs a meaningful baseline: a short smoke
    // window at 1:2000 leaves the previous rung's campaign share down in
    // allocator noise, so the assert arms only when it clears a floor
    // (1:2000's campaign share is ~37 MiB over the smoke window; over the
    // full one `BENCH_scale.json` records 55.5 MiB).
    const CAMPAIGN_GATE_FLOOR_MB: f64 = 24.0;
    let (rss_growth, campaign_rss_growth, population_growth) = if runs.len() >= 2 {
        let prev = &runs[runs.len() - 2];
        let last = &runs[runs.len() - 1];
        (
            if prev.peak_rss_mb > 0.0 {
                last.peak_rss_mb / prev.peak_rss_mb
            } else {
                0.0
            },
            if prev.campaign_rss_mb() > 0.0 {
                last.campaign_rss_mb() / prev.campaign_rss_mb()
            } else {
                0.0
            },
            last.domains as f64 / prev.domains.max(1) as f64,
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    let campaign_gate_armed = rss_available
        && runs.len() >= 2
        && runs[runs.len() - 2].campaign_rss_mb() >= CAMPAIGN_GATE_FLOOR_MB;
    if !campaign_gate_armed {
        let share = runs
            .len()
            .checked_sub(2)
            .map_or(0.0, |prev| runs[prev].campaign_rss_mb());
        eprintln!(
            "scale bench: campaign gate disarmed — baseline campaign share {share:.1} MiB, \
             floor {CAMPAIGN_GATE_FLOOR_MB} MiB"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"smoke\": {},\n  \"host_threads\": {},\n  \
         \"rss_available\": {},\n  \"streamed_matches_memory\": {},\n  \
         \"rss_growth_last_step\": {:.3},\n  \"campaign_rss_growth_last_step\": {:.3},\n  \
         \"campaign_gate_armed\": {},\n  \"population_growth_last_step\": {:.3},\n  \
         \"skipped\": [{}],\n  \"scales\": [\n{}\n  ]\n}}\n",
        smoke,
        host_threads,
        rss_available,
        streamed_matches_memory,
        rss_growth,
        campaign_rss_growth,
        campaign_gate_armed,
        population_growth,
        skipped.join(", "),
        runs.iter()
            .map(ScaleRun::to_json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let out = std::env::var("DSEC_BENCH_OUT").unwrap_or_else(|_| {
        let dir = if smoke { "/target" } else { "" };
        format!("{}{dir}/BENCH_scale.json", env!("CARGO_MANIFEST_DIR"))
    });
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create the output directory");
    }
    // Write before asserting so a failed gate still leaves the numbers.
    std::fs::write(&out, &json).expect("write BENCH_scale.json");
    eprintln!("wrote {out}");

    // Pinned memory budget for the smoke rungs: 1:200 (~743K domains)
    // peaked at 257.1 MiB over the smoke window once each TLD zone's
    // delegations were rows of the registry's one name-to-row map
    // (345.7 MiB with a node per delegation, 453.3 MiB before the
    // 64-byte `Domain` row). The budget leaves 28% headroom for
    // allocator noise, not for a per-delegation record store (1,112 MiB
    // at this rung when the TLD zones held records) or a per-domain
    // cache behind the scan (the authority response cache took it to
    // 1,861 MiB).
    const SMOKE_RUNG_BUDGET_MB: f64 = 329.0;
    for run in runs.iter().filter(|r| SMOKE_SCALES.contains(&r.scale)) {
        assert!(
            run.peak_rss_mb <= SMOKE_RUNG_BUDGET_MB,
            "1:{} peaked at {:.1} MiB, over the pinned {SMOKE_RUNG_BUDGET_MB} MiB budget",
            run.scale,
            run.peak_rss_mb
        );
    }

    if rss_available && runs.len() >= 2 && rss_growth > 0.0 {
        eprintln!(
            "RSS growth over last scale step: total {:.2}×, campaign-attributable {:.2}×, \
             for {:.2}× domains",
            rss_growth, campaign_rss_growth, population_growth
        );
        assert!(
            rss_growth < population_growth,
            "peak RSS must grow sublinearly in population \
             ({rss_growth:.2}× RSS for {population_growth:.2}× domains)"
        );
        if campaign_gate_armed {
            assert!(
                campaign_rss_growth < population_growth,
                "campaign-attributable RSS must grow sublinearly in population \
                 ({campaign_rss_growth:.2}× RSS for {population_growth:.2}× domains)"
            );
        }
    }
}
