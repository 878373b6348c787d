//! `campaign`: one operation is one domain-snapshot of the 97-snapshot
//! streamed campaign over the whole 21-month window, cold first scan
//! included on purpose (work moved from build to first touch shows here
//! and in `setup_s`). `ecosystem::World::tick` and the `scanner` warm
//! path dominate; `traffic` and the resolver cache do nothing.
//!
//! Every repetition needs a fresh world (the campaign ticks it to the
//! window's end), so each one also yields a `setup_s` sample.

use std::io;
use std::path::Path;

use dsec_ecosystem::{World, ALL_TLDS};
use dsec_scanner::{
    scan_campaign_streamed, CampaignConfig, ScanCache, ScanOptions, Snapshot, SnapshotWriter,
    StreamedStore,
};

use super::{measured, record_timed, Ctx};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Operators whose CSV exports are compared between the library's
/// campaign loop and the hand-driven traced one.
const CSV_OPERATORS: usize = 16;

/// What one repetition observed (everything but the timing).
#[derive(Debug, PartialEq)]
struct Outcome {
    replayed: Replayed,
    final_domains: u64,
    hit_rate: f64,
    queries: u64,
    response_cache: (u64, u64),
}

/// The part of an [`Outcome`] read back from the spill file.
#[derive(Debug, PartialEq)]
struct Replayed {
    snapshots: u32,
    observations: u64,
    unobserved: u64,
    last_total: u64,
    csvs: Vec<(String, String)>,
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::new("campaign");
    let spill = ctx
        .out_dir
        .join(format!("campaign-{}.snap", std::process::id()));
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut expected_snapshots = 0;

    let timed = ctx.repeat(3, |ctx, index| {
        let (pw, setup_s, _) = measured(|| ctx.build_world());
        setups.push(setup_s);
        let mut world = pw.world;
        let until = match ctx.inputs.campaign_days {
            Some(days) => world.today.plus_days(days),
            None => world.config.end,
        };
        let config = CampaignConfig::new(until, 7);
        expected_snapshots = 1 + until.days_since(world.today).div_ceil(config.interval_days);

        let mut cache = ScanCache::new();
        let queries_before = world.network.query_count();
        let cached_before = world.network.response_cache_stats();
        let hand_driven = ctx.traced && index % 2 == 0;
        let (store, wall, allocs) = measured(|| {
            if hand_driven {
                traced_campaign(&mut ctx.tracer, &mut world, &config, &mut cache, &spill)
            } else {
                scan_campaign_streamed(&mut world, &config, &mut cache, &spill)
            }
        });
        let store = store.expect("the campaign spills inside the output directory");
        let cached_after = world.network.response_cache_stats();
        outcomes.push(Outcome {
            replayed: replay(&store, ctx.traced).expect("the spill file replays"),
            final_domains: world.domain_count() as u64,
            hit_rate: cache.stats().hit_rate(),
            queries: world.network.query_count() - queries_before,
            response_cache: (
                cached_after.0 - cached_before.0,
                cached_after.1 - cached_before.1,
            ),
        });
        std::fs::remove_file(&spill).ok();
        (wall, allocs)
    });

    let first = &outcomes[0];
    let replayed = &first.replayed;
    report.setup_s = setups;
    report.ops_per_rep = replayed.observations;
    let reps = outcomes.len() as u64;
    report.attempted = replayed.observations * reps;
    report.failed = replayed.unobserved * reps;
    report.answered_share = 1.0 - replayed.unobserved as f64 / replayed.observations.max(1) as f64;

    report.check(
        "snapshot_count",
        replayed.snapshots == expected_snapshots,
        format!(
            "{} snapshots, expected {expected_snapshots}",
            replayed.snapshots
        ),
    );
    report.check(
        "scan_cache_hit_rate",
        first.hit_rate > 0.95 || ctx.smoke,
        format!("hit rate {:.4}", first.hit_rate),
    );
    report.check(
        "last_snapshot_covers_the_population",
        replayed.last_total == first.final_domains,
        format!(
            "last snapshot {} domains, world {}",
            replayed.last_total, first.final_domains
        ),
    );
    // Same seed, same world, same campaign: every repetition — the
    // library's loop and, when traced, the hand-driven one — must agree
    // on every count and on every exported CSV byte.
    report.check(
        "repetitions_agree",
        outcomes.iter().all(|o| o == first),
        if ctx.traced {
            format!(
                "{} operators' CSVs compared across the two loops",
                replayed.csvs.len()
            )
        } else {
            format!("{reps} repetitions compared")
        },
    );

    report.layers.set("scanner.cache_hit_rate", first.hit_rate);
    report.layers.set(
        "authserver.queries_per_op",
        first.queries as f64 / replayed.observations.max(1) as f64,
    );
    let (hits, misses) = first.response_cache;
    report.layers.set(
        "authserver.response_cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let campaign_s: f64 = ctx.tracer.durations_s("campaign").iter().sum();
    if campaign_s > 0.0 {
        let ticks = ctx.tracer.durations_s("ecosystem.tick");
        let tick_ms: Vec<f64> = ticks.iter().map(|s| s * 1e3).collect();
        let share = |name: &str| ctx.tracer.durations_s(name).iter().sum::<f64>() / campaign_s;
        let tick_share = share("ecosystem.tick");
        let scanner_share = share("scanner.snapshot_cold")
            + share("scanner.snapshot_warm")
            + share("scanner.spill_record");
        report.layers.set("ecosystem.tick_ms", median(&tick_ms));
        report.layers.set("ecosystem.tick_share", tick_share);
        report.layers.set("ecosystem.busy_share", tick_share);
        report.layers.set("scanner.busy_share", scanner_share);
        report
            .layers
            .set("unattributed_share", 1.0 - tick_share - scanner_share);
    }
    record_timed(ctx, &timed, &mut report);
    report
}

/// Replays the spill file into the counts the checks need.
fn replay(store: &StreamedStore, with_csvs: bool) -> io::Result<Replayed> {
    let memory = store.to_longitudinal()?;
    let totals: Vec<(u64, u64)> = memory
        .snapshots()
        .iter()
        .map(|snapshot| {
            ALL_TLDS.iter().fold((0, 0), |(domains, unobserved), &tld| {
                let t = snapshot.tld_totals(tld);
                (domains + t.domains, unobserved + t.unobserved())
            })
        })
        .collect();
    let mut csvs = Vec::new();
    if with_csvs {
        let latest = memory
            .latest()
            .expect("a campaign records at least one snapshot");
        // Cells are keyed (operator, TLD) in order, so an operator's cells
        // are adjacent.
        let mut operators: Vec<&String> = latest.cells.keys().map(|(op, _)| op).collect();
        operators.dedup();
        for op in operators.into_iter().take(CSV_OPERATORS) {
            csvs.push((store.to_csv(op)?, store.to_csv_extended(op)?));
        }
    }
    Ok(Replayed {
        snapshots: store.len(),
        observations: totals.iter().map(|t| t.0).sum(),
        unobserved: totals.iter().map(|t| t.1).sum(),
        last_total: totals.last().map_or(0, |t| t.0),
        csvs,
    })
}

/// `scan_campaign_streamed`'s loop driven by hand from the same public
/// pieces, one span per call, so a traced run can say which layer each
/// second of a campaign belongs to. Single-threaded: the writer thread's
/// overlap is what `trace.overhead_share` pays for the attribution.
fn traced_campaign(
    tracer: &mut Tracer,
    world: &mut World,
    config: &CampaignConfig,
    cache: &mut ScanCache,
    path: &Path,
) -> io::Result<StreamedStore> {
    tracer.span("campaign", |tracer| {
        let options = ScanOptions {
            threads: config.threads,
            retry_rounds: config.retry_rounds,
            retry_limit: config.retry_limit,
            force_full: false,
        };
        let mut writer = SnapshotWriter::create(path)?;
        let mut scan = |tracer: &mut Tracer, world: &World, name: &'static str| {
            world.begin_scan_epoch();
            let snapshot: Snapshot = tracer.span(name, |_| {
                Snapshot::take_cached(world, &config.tlds, &options, cache)
            });
            tracer.span("scanner.spill_record", |_| writer.record(&snapshot))
        };
        scan(tracer, world, "scanner.snapshot_cold")?;
        while world.today < config.until {
            for _ in 0..config.interval_days {
                if world.today >= config.until {
                    break;
                }
                tracer.span("ecosystem.tick", |_| world.tick());
            }
            scan(tracer, world, "scanner.snapshot_warm")?;
        }
        writer.finish()?;
        StreamedStore::open(path)
    })
}
