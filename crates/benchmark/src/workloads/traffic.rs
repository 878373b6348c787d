//! `traffic` and `degraded`: one operation is one user query of a
//! closed-loop load with one client. Both drive the same layers —
//! `resolver` (cache, validation, `crypto` verify), the `authserver`
//! query path and the `traffic` driver — from opposite sides:
//! `traffic` runs fault-free (retry, breaker and stale paths must count
//! zero), `degraded` runs under a 3% fault mix with the largest
//! operator's fleet down for its second phase (timeouts, NS rotation,
//! breakers, serve-stale). `scanner` and `World::tick` do nothing.

use std::collections::BTreeMap;
use std::sync::Arc;

use dsec_authserver::{FaultProfile, FaultStats, OutageScenario};
use dsec_ecosystem::World;
use dsec_traffic::{
    run_load, run_load_shared, BreakerPolicy, Cache, LatencyHistogram, LoadConfig, OutcomeCounts,
    ResolverStatsSnapshot, TrafficReport,
};

use super::{measured, record_timed, Ctx, Timed};
use crate::inputs::largest_operator_fleet;
use crate::report::Report;

/// Fault probability per exchange in `degraded` (half drops, half SERVFAIL).
const FAULT_RATE: f64 = 0.03;
/// Serve-stale horizon of the `degraded` cache, seconds.
const MAX_STALE_S: u32 = 7_200;

/// Everything about one repetition that must repeat exactly.
#[derive(Debug, PartialEq)]
struct Observed {
    phases: Vec<(
        u64,
        OutcomeCounts,
        BTreeMap<String, OutcomeCounts>,
        ResolverStatsSnapshot,
    )>,
    faults: FaultStats,
    queries: u64,
    response_cache: (u64, u64),
}

/// Public counters of the world's network, for before/after deltas.
struct Counters {
    faults: FaultStats,
    queries: u64,
    response_cache: (u64, u64),
}

impl Counters {
    fn of(world: &World) -> Counters {
        Counters {
            faults: world.fault_plane().stats(),
            queries: world.network.query_count() + world.network.tcp_query_count(),
            response_cache: world.network.response_cache_stats(),
        }
    }

    fn observed_since(&self, world: &World, phases: &[TrafficReport]) -> Observed {
        let now = Counters::of(world);
        let (a, b) = (self.faults, now.faults);
        Observed {
            phases: phases
                .iter()
                .map(|r| (r.total, r.outcomes, r.by_operator.clone(), r.resolver))
                .collect(),
            faults: FaultStats {
                drops: b.drops - a.drops,
                delays: b.delays - a.delays,
                truncations: b.truncations - a.truncations,
                servfails: b.servfails - a.servfails,
                refusals: b.refusals - a.refusals,
                stale_serves: b.stale_serves - a.stale_serves,
                downtime_drops: b.downtime_drops - a.downtime_drops,
            },
            queries: now.queries - self.queries,
            response_cache: (
                now.response_cache.0 - self.response_cache.0,
                now.response_cache.1 - self.response_cache.1,
            ),
        }
    }
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::new("traffic");
    let config = LoadConfig::default()
        .with_queries(ctx.inputs.traffic_queries)
        .with_threads(1)
        .with_seed(ctx.inputs.load_seed);

    // Set-up: the world, then one untimed load that warms the
    // authorities' response caches; every timed load runs over a fresh
    // resolver cache of its own.
    let (world, setup_s, _) = measured(|| {
        let world = ctx.build_world().world;
        run_load(&world, &config);
        world
    });
    report.setup_s.push(setup_s);

    let mut observed: Vec<Observed> = Vec::new();
    let mut last: Vec<TrafficReport> = Vec::new();
    let timed = ctx.repeat(5, |ctx, _| {
        let before = Counters::of(&world);
        let (load, wall, allocs) = measured(|| {
            ctx.tracer
                .span("traffic.run_load", |_| run_load(&world, &config))
        });
        last = vec![load];
        observed.push(before.observed_since(&world, &last));
        (wall, allocs)
    });
    finish(ctx, &mut report, &timed, &observed, &last);

    let load = &last[0];
    let r = &load.resolver;
    report.check(
        "no_bogus_no_servfail",
        load.outcomes.bogus == 0 && load.outcomes.servfail == 0,
        format!(
            "bogus {} servfail {}",
            load.outcomes.bogus, load.outcomes.servfail
        ),
    );
    let failure_paths = [
        r.timeouts,
        r.tcp_fallbacks,
        r.stale_hits,
        r.budget_exhausted,
        r.breaker_trips,
        r.breaker_short_circuits,
        observed[0].faults.total(),
    ];
    report.check(
        "failure_paths_idle",
        failure_paths.iter().all(|&c| c == 0),
        format!("timeouts, tcp, stale, budget, trips, short-circuits, faults: {failure_paths:?}"),
    );
    report
}

pub fn run_degraded(ctx: &mut Ctx) -> Report {
    let mut report = Report::new("degraded");
    let warmup = LoadConfig::default()
        .with_queries(ctx.inputs.degraded_phase_queries)
        .with_threads(1)
        .with_seed(ctx.inputs.load_seed)
        .with_max_stale(MAX_STALE_S)
        .with_breaker(BreakerPolicy {
            failure_threshold: 3,
            probe_interval_s: 30,
        });
    // The second phase replays the same stream one stream-span later, so
    // its clock starts where the warm-up's ended: positive entries have
    // expired, and the victim fleet is down for all of it.
    let span = warmup.stream_span_s();
    let outage = warmup.clone().with_now_offset(span);
    let fault_seed = ctx.inputs.fault_seed;

    // One two-phase repetition over one fresh shared cache. Re-enabling
    // the plane resets its per-exchange attempt counters, so every
    // repetition draws the same faults.
    let two_phase = |ctx: &mut Ctx, world: &World| -> Vec<TrafficReport> {
        world.fault_plane().enable(fault_seed);
        let cache = Arc::new(Cache::bounded(warmup.cache_capacity).with_max_stale(MAX_STALE_S));
        let first = ctx.tracer.span("traffic.run_load_warmup", |_| {
            run_load_shared(world, &warmup, Arc::clone(&cache))
        });
        let second = ctx.tracer.span("traffic.run_load_outage", |_| {
            run_load_shared(world, &outage, cache)
        });
        vec![first, second]
    };

    // Set-up: the world, the scenario, and one untimed repetition that
    // warms the authorities' response caches.
    let (world, setup_s, _) = measured(|| {
        let world = ctx.build_world().world;
        let fleet = largest_operator_fleet(&world);
        let base = world.today.epoch_seconds();
        world
            .fault_plane()
            .set_global_profile(FaultProfile::mixed(FAULT_RATE));
        OutageScenario::operator_outage("degraded", fleet, base + span, base + 2 * span + 60)
            .install(world.fault_plane());
        two_phase(ctx, &world);
        world
    });
    report.setup_s.push(setup_s);

    let mut observed: Vec<Observed> = Vec::new();
    let mut last: Vec<TrafficReport> = Vec::new();
    let timed = ctx.repeat(5, |ctx, _| {
        let before = Counters::of(&world);
        let (phases, wall, allocs) = measured(|| two_phase(ctx, &world));
        last = phases;
        observed.push(before.observed_since(&world, &last));
        (wall, allocs)
    });
    finish(ctx, &mut report, &timed, &observed, &last);

    let outage_phase = &last[1];
    let degradation = [
        outage_phase.outcomes.stale,
        outage_phase.resolver.stale_hits,
        outage_phase.resolver.breaker_trips,
        outage_phase.resolver.breaker_short_circuits,
        outage_phase.resolver.timeouts,
        observed[0].faults.total() - observed[0].faults.downtime_drops,
        observed[0].faults.downtime_drops,
    ];
    report.check(
        "failure_paths_exercised",
        degradation.iter().all(|&c| c > 0),
        format!("stale, stale hits, trips, short-circuits, timeouts, faults, downtime drops: {degradation:?}"),
    );
    report
}

/// What both workloads share: operation counts, the determinism checks,
/// and the per-layer counts read from the last repetition.
fn finish(
    ctx: &Ctx,
    report: &mut Report,
    timed: &Timed,
    observed: &[Observed],
    last: &[TrafficReport],
) {
    let mut outcomes = OutcomeCounts::default();
    let mut resolver = ResolverStatsSnapshot::default();
    let mut histogram = LatencyHistogram::new();
    let (mut total, mut sim_ms) = (0u64, 0u64);
    for phase in last {
        outcomes.merge(&phase.outcomes);
        histogram.merge(&phase.histogram);
        total += phase.total;
        sim_ms += phase.sim_elapsed_ms;
        let r = &phase.resolver;
        resolver.udp_attempts += r.udp_attempts;
        resolver.timeouts += r.timeouts;
        resolver.tcp_fallbacks += r.tcp_fallbacks;
        resolver.cache_hits += r.cache_hits;
        resolver.cache_misses += r.cache_misses;
        resolver.stale_hits += r.stale_hits;
        resolver.negative_hits += r.negative_hits;
        resolver.budget_exhausted += r.budget_exhausted;
        resolver.breaker_trips += r.breaker_trips;
        resolver.breaker_short_circuits += r.breaker_short_circuits;
    }
    let unclassified = total - outcomes.total().min(total);
    let reps = timed.wall_s.len() as u64;
    report.ops_per_rep = total;
    report.attempted = total * reps;
    report.failed = unclassified * reps;
    report.answered_share = 1.0 - (outcomes.servfail + unclassified) as f64 / total.max(1) as f64;

    report.check(
        "every_query_classified",
        unclassified == 0,
        format!("{} of {total} queries classified", outcomes.total()),
    );
    report.check(
        "repetitions_agree",
        observed.iter().all(|o| *o == observed[0]),
        format!("outcomes, per-operator tallies and counters of {reps} repetitions compared"),
    );
    let counts: Vec<u64> = timed.allocs.iter().map(|a| a.count).collect();
    report.check(
        "allocations_repeat",
        counts.iter().all(|&c| c == counts[0]),
        format!("allocation calls per repetition: {counts:?}"),
    );

    let first = &observed[0];
    let layers = &mut report.layers;
    let per_query = |count: u64| count as f64 / total.max(1) as f64;
    layers.set("resolver.cache_hit_rate", resolver.cache_hit_rate());
    layers.set(
        "resolver.udp_attempts_per_query",
        per_query(resolver.udp_attempts),
    );
    layers.set("resolver.timeouts", resolver.timeouts as f64);
    layers.set("resolver.tcp_fallbacks", resolver.tcp_fallbacks as f64);
    layers.set("resolver.stale_hits", resolver.stale_hits as f64);
    layers.set("resolver.negative_hits", resolver.negative_hits as f64);
    layers.set("resolver.breaker_trips", resolver.breaker_trips as f64);
    layers.set(
        "resolver.breaker_short_circuits",
        resolver.breaker_short_circuits as f64,
    );
    layers.set(
        "resolver.budget_exhausted",
        resolver.budget_exhausted as f64,
    );
    layers.set("authserver.queries_per_op", per_query(first.queries));
    let (hits, misses) = first.response_cache;
    layers.set(
        "authserver.response_cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set(
        "authserver.fault_injected",
        (first.faults.total() - first.faults.downtime_drops) as f64,
    );
    layers.set(
        "authserver.downtime_drops",
        first.faults.downtime_drops as f64,
    );
    layers.set("traffic.sim_p50_ms", histogram.p50() as f64);
    layers.set("traffic.sim_p99_ms", histogram.p99() as f64);
    layers.set(
        "traffic.sim_qps",
        total as f64 / (sim_ms.max(1) as f64 / 1e3),
    );
    layers.set("traffic.availability", outcomes.availability());
    layers.set("traffic.servfail", outcomes.servfail as f64);
    layers.set("traffic.stale", outcomes.stale as f64);
    record_timed(ctx, timed, report);
}
