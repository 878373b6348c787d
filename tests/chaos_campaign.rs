//! Chaos campaigns: scan campaigns running over a degraded network.
//!
//! Acceptance for the fault-injection plane:
//! * faults disabled → per-(operator, TLD) classification identical to
//!   the fault-oblivious scanner, with zero degradation counts;
//! * a seeded drop/SERVFAIL mix → the campaign completes, records
//!   nonzero unreachable/indeterminate counts, and never loses domains;
//! * same seed → byte-identical snapshots.

use std::sync::Arc;

use dsec::authserver::{FaultProfile, OutageScenario};
use dsec::ecosystem::{Tld, ALL_TLDS};
use dsec::resolver::{BreakerPolicy, Cache, Resolver};
use dsec::scanner::{largest_operator_fleet, scan_campaign, CampaignConfig, OperatorStats};
use dsec::traffic::{run_load_shared, LoadConfig};
use dsec::wire::RrType;
use dsec::workloads::{build, PopulationConfig};

const CHAOS_SEED: u64 = 0xC4A05;

fn total_degraded(stats: &OperatorStats) -> u64 {
    stats.unreachable + stats.indeterminate
}

#[test]
fn disabled_faults_match_fault_oblivious_scan() {
    // Same deterministic population built twice; one scans with the
    // retry pass enabled (a no-op without faults), one with it off.
    let mut with_retries = build(&PopulationConfig::tiny());
    let mut without_retries = build(&PopulationConfig::tiny());
    let until = with_retries.world.today.plus_days(14);

    let store_a = scan_campaign(&mut with_retries.world, &CampaignConfig::new(until, 7));
    let store_b = scan_campaign(
        &mut without_retries.world,
        &CampaignConfig::new(until, 7).with_retries(1, 0),
    );

    assert_eq!(store_a.snapshots().len(), store_b.snapshots().len());
    for (a, b) in store_a.snapshots().iter().zip(store_b.snapshots()) {
        assert_eq!(a.cells, b.cells, "classification identical on {}", a.date);
        assert!(
            a.cells.values().all(|s| total_degraded(s) == 0),
            "no degradation recorded without faults"
        );
    }
}

#[test]
fn chaos_campaign_completes_and_records_degradation() {
    let mut pw = build(&PopulationConfig::tiny());

    // 5% drop/SERVFAIL mix everywhere…
    pw.world.fault_plane().enable(CHAOS_SEED);
    pw.world
        .fault_plane()
        .set_global_profile(FaultProfile::mixed(0.05));
    // …plus one operator whose whole fleet is down, so unreachable
    // outcomes survive even the retry pass.
    let victim = pw.world.registry(Tld::Com).delegations()[0].clone();
    let dead_fleet = pw.world.registry(Tld::Com).ns_of(&victim);
    assert!(!dead_fleet.is_empty());
    for ns in &dead_fleet {
        pw.world.fault_plane().set_down(ns, true);
    }

    let until = pw.world.today.plus_days(14);
    let store = scan_campaign(&mut pw.world, &CampaignConfig::new(until, 7));

    let population: u64 = ALL_TLDS
        .iter()
        .map(|&t| store.snapshots()[0].tld_totals(t).domains)
        .sum();
    let mut degraded_total = 0u64;
    for snapshot in store.snapshots() {
        // Degraded observations are recorded, not dropped: every domain
        // still appears in exactly one cell.
        let domains: u64 = ALL_TLDS
            .iter()
            .map(|&t| snapshot.tld_totals(t).domains)
            .sum();
        assert_eq!(domains, population, "no domains lost on {}", snapshot.date);
        degraded_total += snapshot
            .cells
            .values()
            .map(total_degraded)
            .sum::<u64>();
        let unreachable: u64 = snapshot.cells.values().map(|s| s.unreachable).sum();
        assert!(
            unreachable > 0,
            "dead fleet shows up as unreachable on {}",
            snapshot.date
        );
    }
    assert!(degraded_total > 0);
    assert!(
        pw.world.fault_plane().stats().total() > 0,
        "faults actually fired"
    );
}

#[test]
fn outage_load_serves_stale_during_window_and_recovers() {
    let pw = build(&PopulationConfig::tiny());
    let world = &pw.world;
    let base = world.today.epoch_seconds();
    let queries: u64 = 2_048;
    let qps: u32 = 4;
    let span = (queries / qps as u64) as u32;
    let (victim_key, fleet) = largest_operator_fleet(world, None);

    world.fault_plane().enable(CHAOS_SEED);
    OutageScenario::operator_outage("mid-campaign", fleet, base + span, base + 2 * span + 60)
        .install(world.fault_plane());

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

    // Phase 1 — clean warm-up: nothing stale, nothing failing.
    let warm = run_load_shared(world, &config, Arc::clone(&cache));
    assert_eq!(warm.outcomes.stale, 0, "no stale serves before the outage");
    assert_eq!(warm.outcomes.servfail, 0, "clean network answers everything");

    // Phase 2 — the same stream inside the outage window: expired victim
    // entries are served stale, the breaker trips, and the victim
    // operator's warm-cache availability survives the dead fleet.
    let outage = run_load_shared(world, &config.clone().with_now_offset(span), Arc::clone(&cache));
    assert!(outage.outcomes.stale > 0, "stale serves during the window");
    assert!(outage.resolver.stale_hits > 0);
    assert!(outage.resolver.breaker_trips > 0, "breaker tripped on the dead fleet");
    let victim = outage
        .by_operator
        .get(&victim_key)
        .copied()
        .unwrap_or_default();
    assert!(victim.total() > 0, "victim operator got queries");
    assert!(
        victim.availability() >= 0.90,
        "victim warm-cache availability {:.3} under sustained outage",
        victim.availability()
    );

    // Phase 3 — after the window: upstream answers again, stale serves
    // stop, and nothing is left failing.
    let recovered = run_load_shared(world, &config.clone().with_now_offset(2 * span + 120), cache);
    assert_eq!(recovered.outcomes.stale, 0, "no stale serves after recovery");
    assert_eq!(recovered.outcomes.servfail, 0, "full recovery after the window");
}

#[test]
fn breaker_trips_during_outage_and_recloses_after() {
    let pw = build(&PopulationConfig::tiny());
    let world = &pw.world;
    let base = world.today.epoch_seconds();
    let (_, fleet) = largest_operator_fleet(world, None);
    let victim_domain = world
        .domains()
        .find(|d| {
            let ns = world.registry(d.tld).ns_of(&d.name);
            ns.first().is_some_and(|first| fleet.contains(first))
        })
        .map(|d| d.name.clone())
        .expect("victim operator hosts a domain");

    world.fault_plane().enable(CHAOS_SEED);
    OutageScenario::operator_outage("op-down", fleet, base + 100, base + 400)
        .install(world.fault_plane());

    let resolver = Resolver::new(world.network.clone(), world.trust_anchor()).with_breaker(
        BreakerPolicy {
            failure_threshold: 2,
            probe_interval_s: 60,
        },
    );

    // Before the window: resolves cleanly, breaker stays closed.
    assert!(resolver.resolve(&victim_domain, RrType::A, base).is_ok());
    assert_eq!(resolver.breaker().expect("breaker armed").open_count(), 0);

    // Inside the window: failures accumulate, the breaker trips, and
    // subsequent resolves short-circuit instead of hammering the fleet.
    for i in 0..6 {
        let _ = resolver.resolve(&victim_domain, RrType::A, base + 150 + i);
    }
    let set = resolver.breaker().expect("breaker armed");
    assert!(set.open_count() >= 1, "breaker open during the outage");
    let stats = resolver.stats();
    assert!(stats.breaker_trips >= 1);
    assert!(stats.breaker_short_circuits > 0, "open breaker skipped attempts");

    // After the window: the scheduled half-open probe reaches the healthy
    // fleet again and the breaker re-closes.
    assert!(resolver.resolve(&victim_domain, RrType::A, base + 500).is_ok());
    assert_eq!(set.open_count(), 0, "breaker re-closed after recovery");
    let labels: Vec<&str> = set.transitions().iter().map(|e| e.transition.label()).collect();
    assert!(labels.contains(&"trip"), "{labels:?}");
    assert!(labels.contains(&"half-open probe"), "{labels:?}");
    assert!(labels.contains(&"close"), "{labels:?}");
}

#[test]
fn same_seed_chaos_runs_are_identical_across_thread_counts() {
    // Two same-seed chaos campaigns on two fresh worlds: every fault
    // decision is a function of the seed, never of the run.
    let run = || {
        let mut pw = build(&PopulationConfig::tiny());
        pw.world.fault_plane().enable(CHAOS_SEED);
        pw.world
            .fault_plane()
            .set_global_profile(FaultProfile::mixed(0.05));
        let until = pw.world.today.plus_days(14);
        scan_campaign(&mut pw.world, &CampaignConfig::new(until, 7))
    };
    let first = run();
    let second = run();
    assert_eq!(first.snapshots().len(), second.snapshots().len());
    for (a, b) in first.snapshots().iter().zip(second.snapshots()) {
        assert_eq!(a.date, b.date);
        assert_eq!(a.cells, b.cells, "fault decisions are the seed's");
    }
}
