//! Chaos campaign: the measurement pipeline under a degraded network.
//!
//! Part 1 (E-R1): builds the same tiny population twice, runs one scan
//! campaign over a clean network and one with the fault plane injecting
//! a 5% drop/SERVFAIL mix plus a flapping nameserver fleet, then
//! compares the two and prints the degradation record. The flapping
//! fleet's domains must read unreachable in exactly the snapshots taken
//! inside one of its outage windows, and observed in every other one.
//!
//! Part 2 (E-R2): graceful degradation under sustained outages — the
//! serve-stale / negative-caching / circuit-breaker contract against
//! declarative outage scenarios, plus a live breaker transition log and
//! a phase-by-phase availability timeline.
//!
//! Exits nonzero unless both robustness experiments reproduce and the
//! flapping fleet is seen as above (the CI examples-smoke job runs this
//! binary).
//!
//! Run with: `cargo run --release --example chaos_campaign`

use std::sync::Arc;

use dsec::authserver::{FaultProfile, OutageScenario};
use dsec::core::{experiment_chaos, experiment_outage};
use dsec::ecosystem::Tld;
use dsec::resolver::{BreakerPolicy, Cache, Resolver};
use dsec::scanner::{largest_operator_fleet, scan_campaign, CampaignConfig};
use dsec::traffic::{run_load_shared, LoadConfig};
use dsec::wire::RrType;
use dsec::workloads::{build, PopulationConfig};

const CHAOS_SEED: u64 = 0xC4A05;

/// Prints the E-R2 demo: breaker transition log + availability timeline.
fn degradation_demo() {
    let pw = build(&PopulationConfig::tiny());
    let world = &pw.world;
    let base = world.today.epoch_seconds();
    let queries: u64 = 2_048;
    let qps: u32 = 4;
    let span = (queries / qps as u64) as u32;
    let (victim, fleet) = largest_operator_fleet(world, None);

    world.fault_plane().enable(CHAOS_SEED);
    OutageScenario::operator_outage(
        "operator-outage",
        fleet.clone(),
        base + span,
        base + 2 * span,
    )
    .install(world.fault_plane());

    // Live breaker transition log: one resolver staring at the dead
    // fleet through the window.
    let victim_domain = world
        .domains()
        .find(|d| {
            let ns = world.registry(d.tld).ns_of(&d.name);
            ns.first().is_some_and(|first| fleet.contains(first))
        })
        .map(|d| d.name.clone())
        .expect("victim operator hosts a domain");
    let resolver =
        Resolver::new(world.network.clone(), world.trust_anchor()).with_breaker(BreakerPolicy {
            failure_threshold: 3,
            probe_interval_s: 60,
        });
    for t in (0..=(2 * span + 120)).step_by(64) {
        let _ = resolver.resolve(&victim_domain, RrType::A, base + span / 2 + t);
    }
    println!("breaker transitions ({victim_domain} via {victim}):");
    for event in resolver.breaker().expect("breaker armed").transitions() {
        println!(
            "  t+{:>5}s  {:<28} {}",
            event.at - base,
            event.authority.to_string(),
            event.transition.label(),
        );
    }

    // Availability timeline: the same stream replayed warm → outage →
    // recovery over one shared serve-stale cache.
    let mut config = LoadConfig::default()
        .with_queries(queries)
        .with_seed(CHAOS_SEED)
        .with_max_stale(7_200)
        .with_breaker(BreakerPolicy {
            failure_threshold: 3,
            probe_interval_s: 30,
        });
    config.sim_qps = qps;
    let cache = Arc::new(Cache::bounded(config.cache_capacity).with_max_stale(7_200));
    println!(
        "\navailability timeline (victim fleet down t+{span}s..t+{}s):",
        2 * span
    );
    println!("  phase      window          avail%  stale%  servfail%  breaker-trips");
    for (label, offset) in [
        ("warm-up", 0),
        ("outage", span),
        ("recovery", 2 * span + 60),
    ] {
        let report = run_load_shared(
            world,
            &config.clone().with_now_offset(offset),
            Arc::clone(&cache),
        );
        println!(
            "  {:<9} t+{:>5}s..{:>5}s {:>6.1} {:>7.1} {:>10.1} {:>14}",
            label,
            offset,
            offset + span,
            100.0 * report.availability(),
            100.0 * report.outcomes.stale as f64 / report.total.max(1) as f64,
            100.0 * report.outcomes.servfail as f64 / report.total.max(1) as f64,
            report.resolver.breaker_trips,
        );
    }
}

fn main() {
    // Clean baseline.
    let mut clean = build(&PopulationConfig::tiny());
    let until = clean.world.today.plus_days(28);
    let clean_store = scan_campaign(&mut clean.world, &CampaignConfig::new(until, 7));

    // Same world, degraded network: 5% drop/SERVFAIL mix everywhere and
    // one fleet flapping 1-day-down / 2-days-up from the cold-scan day.
    let mut chaos = build(&PopulationConfig::tiny());
    chaos.world.fault_plane().enable(CHAOS_SEED);
    chaos
        .world
        .fault_plane()
        .set_global_profile(FaultProfile::mixed(0.05));
    let com = chaos.world.registry(Tld::Com);
    let delegations = com.delegations();
    let flapper = delegations[0].clone();
    let flap_operator = com.operator_of(&flapper).expect("delegated").to_string();
    // Ten 3-day cycles cover the 28-day campaign.
    let (day, today) = (86_400, chaos.world.today.epoch_seconds());
    let flap = OutageScenario::flapping("flap", com.ns_of(&flapper), today, day, 2 * day, 10);
    flap.install(chaos.world.fault_plane());
    // …and one fleet dead for the whole window: its domains must show up
    // as unreachable, not silently misclassified.
    if let Some(last) = delegations.last() {
        for ns in com.ns_of(last) {
            chaos.world.fault_plane().set_down(&ns, true);
        }
    }
    let chaos_store = scan_campaign(&mut chaos.world, &CampaignConfig::new(until, 7));
    // A snapshot taken inside one of the flapping fleet's windows finds
    // all its domains unreachable, warm or cold; any other finds none.
    let flap_totals: Vec<_> = chaos_store
        .snapshots()
        .iter()
        .map(|s| s.operator_totals(&flap_operator, &[Tld::Com]))
        .collect();
    let flap_unobserved: Vec<u64> = flap_totals.iter().map(|t| t.unobserved()).collect();
    let flap_expected: Vec<u64> = chaos_store
        .snapshots()
        .iter()
        .zip(&flap_totals)
        .map(|(s, totals)| {
            let at = s.date.epoch_seconds();
            let down = flap
                .windows
                .iter()
                .any(|w| w.from_s <= at && at < w.until_s);
            if down {
                totals.domains
            } else {
                0
            }
        })
        .collect();
    let flap_seen = flap_unobserved == flap_expected;

    let result = experiment_chaos(&clean_store, &chaos_store);
    println!("{}", result.to_markdown());

    let faults = chaos.world.fault_plane().stats();
    println!("injected faults: {faults:?}");
    println!(
        "queries: {} udp / {} tcp-fallback",
        chaos.world.network.query_count(),
        chaos.world.network.tcp_query_count(),
    );
    println!(
        "flapping fleet of {flapper}: unobserved per snapshot {flap_unobserved:?} \
         (expected {flap_expected:?})"
    );
    println!(
        "\nverdict: {}",
        if result.reproduced() {
            "artifact stable under faults (E-R1 reproduced)"
        } else {
            "artifact drifted beyond tolerance (see table above)"
        }
    );

    // Part 2: graceful degradation under sustained outages.
    let outage = experiment_outage(&PopulationConfig::tiny());
    println!("\n{}", outage.to_markdown());
    degradation_demo();
    println!(
        "\nverdict: {}",
        if outage.reproduced() {
            "graceful degradation held (E-R2 reproduced)"
        } else {
            "degradation contract broken (see table above)"
        }
    );

    if !result.reproduced() || !outage.reproduced() || !flap_seen {
        std::process::exit(1);
    }
}
