//! The incremental scan pipeline, end to end:
//!
//! * a multi-day cached campaign produces byte-identical legacy and
//!   extended CSVs to the uncached campaign when faults are off;
//! * `force_full` re-scans everything while still refreshing the cache;
//! * warm snapshots issue far fewer network queries than cold ones;
//! * `take_with_options` is thread-count deterministic on a faulted
//!   world;
//! * `retry_rounds: 1` performs a real second observation and
//!   `retry_rounds: 0` disables the retry pass.

use std::collections::BTreeSet;

use dsec::authserver::{Fault, FaultProfile};
use dsec::ecosystem::{Tld, ALL_TLDS};
use dsec::scanner::{
    scan_campaign_cached, CampaignConfig, LongitudinalStore, ScanCache, ScanOptions, Snapshot,
};
use dsec::workloads::{build, PopulationConfig};

const CHAOS_SEED: u64 = 0x15CA7;

fn operators(store: &LongitudinalStore) -> BTreeSet<String> {
    store
        .snapshots()
        .iter()
        .flat_map(|s| s.cells.keys().map(|(op, _)| op.clone()))
        .collect()
}

#[test]
fn cached_campaign_csvs_are_byte_identical_to_uncached() {
    let mut cached_world = build(&PopulationConfig::tiny());
    let mut uncached_world = build(&PopulationConfig::tiny());
    let until = cached_world.world.today.plus_days(28);

    let mut cache = ScanCache::new();
    let cached = scan_campaign_cached(
        &mut cached_world.world,
        &CampaignConfig::new(until, 7),
        &mut cache,
    );
    // The reference: every snapshot an uncached scan of the whole
    // population.
    let mut uncached = LongitudinalStore::new();
    let world = &mut uncached_world.world;
    loop {
        world.begin_scan_epoch();
        uncached.record(Snapshot::take_with_options(
            world,
            &ALL_TLDS,
            &ScanOptions::default(),
        ));
        if world.today >= until {
            break;
        }
        world.advance_to(world.today.plus_days(7));
    }

    assert_eq!(cached.snapshots().len(), uncached.snapshots().len());
    for (a, b) in cached.snapshots().iter().zip(uncached.snapshots()) {
        assert_eq!(a.cells, b.cells, "cells identical on {}", a.date);
    }
    // The acceptance criterion is on the exported artifacts: every
    // operator's legacy and extended CSVs must match byte for byte.
    let ops = operators(&cached);
    assert_eq!(ops, operators(&uncached));
    for op in &ops {
        assert_eq!(cached.to_csv(op), uncached.to_csv(op), "legacy CSV of {op}");
        assert_eq!(
            cached.to_csv_extended(op),
            uncached.to_csv_extended(op),
            "extended CSV of {op}"
        );
    }
    // And the cache must actually have carried results across days.
    let stats = cache.stats();
    assert!(stats.hits > 0, "cache reused results: {stats:?}");
    assert!(stats.entries > 0);
}

#[test]
fn force_full_rescans_but_matches_the_cached_result() {
    let pw = build(&PopulationConfig::tiny());
    let mut cache = ScanCache::new();
    let options = ScanOptions::default();

    let warm_ready = Snapshot::take_cached(&pw.world, &ALL_TLDS, &options, &mut cache);
    let hits_before = cache.stats().hits;

    let forced = Snapshot::take_cached(
        &pw.world,
        &ALL_TLDS,
        &ScanOptions {
            force_full: true,
            ..options
        },
        &mut cache,
    );
    // Same day, no changes: a forced full re-scan observes the same cells
    // but never consults the cache.
    assert_eq!(forced.cells, warm_ready.cells);
    assert_eq!(cache.stats().hits, hits_before, "force_full bypasses lookups");

    // The forced pass refreshed entries, so the next scan is warm again.
    let warm = Snapshot::take_cached(&pw.world, &ALL_TLDS, &options, &mut cache);
    assert_eq!(warm.cells, warm_ready.cells);
    assert!(cache.stats().hits > hits_before);
}

#[test]
fn warm_snapshot_issues_fewer_queries_than_cold() {
    let mut pw = build(&PopulationConfig::tiny());
    let mut cache = ScanCache::new();
    let options = ScanOptions::default();

    let before_cold = pw.world.network.query_count();
    Snapshot::take_cached(&pw.world, &ALL_TLDS, &options, &mut cache);
    let cold = pw.world.network.query_count() - before_cold;

    pw.world.tick();
    let before_warm = pw.world.network.query_count();
    Snapshot::take_cached(&pw.world, &ALL_TLDS, &options, &mut cache);
    let warm = pw.world.network.query_count() - before_warm;

    assert!(cold > 0);
    assert!(
        warm * 2 < cold,
        "one day of churn re-queries a small minority: warm={warm} cold={cold}"
    );
}

#[test]
fn faulted_snapshot_is_identical_across_thread_counts() {
    let pw = build(&PopulationConfig::tiny());
    pw.world.fault_plane().enable(CHAOS_SEED);
    pw.world
        .fault_plane()
        .set_global_profile(FaultProfile::mixed(0.05));
    // A permanently dead fleet so unreachable outcomes flow through the
    // retry pass too.
    let victim = pw.world.registry(Tld::Com).delegations()[0].clone();
    for ns in pw.world.registry(Tld::Com).ns_of(&victim) {
        pw.world.fault_plane().set_down(&ns, true);
    }
    let snapshot = Snapshot::take_with_options(&pw.world, &ALL_TLDS, &ScanOptions::default());
    assert!(
        snapshot.cells.values().any(|s| s.unreachable > 0),
        "the dead fleet exercised the retry pass"
    );
}

#[test]
fn retry_rounds_one_rescans_and_zero_disables() {
    // Script exactly one SERVFAIL per nameserver of the first .com
    // domain: a 1-round first pass consumes them all and ends
    // indeterminate, so only a retry pass can classify the domain.
    let scan = |retry_rounds: u32| {
        let pw = build(&PopulationConfig::tiny());
        pw.world.fault_plane().enable(CHAOS_SEED);
        let victim = pw.world.registry(Tld::Com).delegations()[0].clone();
        for ns in pw.world.registry(Tld::Com).ns_of(&victim) {
            pw.world.fault_plane().script(&ns, [Fault::ServFail]);
        }
        Snapshot::take_with_options(
            &pw.world,
            &[Tld::Com],
            &ScanOptions {
                retry_rounds,
                ..ScanOptions::default()
            },
        )
    };

    let disabled = scan(0);
    let indeterminate: u64 = disabled.cells.values().map(|s| s.indeterminate).sum();
    assert_eq!(
        indeterminate, 1,
        "retry_rounds: 0 keeps the failed first-pass outcome"
    );

    let single_round = scan(1);
    let indeterminate: u64 = single_round.cells.values().map(|s| s.indeterminate).sum();
    assert_eq!(
        indeterminate, 0,
        "retry_rounds: 1 is a real second observation"
    );
    // Once the scripted faults are consumed the re-scan sees the true
    // state: identical to a fault-free scan of the same world.
    let clean = Snapshot::take_with_options(
        &build(&PopulationConfig::tiny()).world,
        &[Tld::Com],
        &ScanOptions::default(),
    );
    assert_eq!(single_round.cells, clean.cells);
}

#[test]
fn cached_verdict_lapses_with_the_signatures_it_was_computed_from() {
    use dsec::ecosystem::{
        DsTiming, ExternalDs, Hosting, OperatorDnssec, Plan, RegistrarPolicy, RolloverPlan,
        RolloverStyle, TldPolicy, TldRole, World, WorldConfig,
    };
    use dsec::wire::Name;

    // One signed `.nl` domain stalled in a double-signature KSK rollover
    // whose transitional signatures live five days and whose DS never
    // moves: once they lapse the domain is misconfigured, yet nothing
    // bumps its generation — only the clock moved.
    let mut world = World::new(WorldConfig {
        key_pool: 2,
        ..WorldConfig::default()
    });
    let registrar = world.add_registrar(
        "LapseReg",
        Name::parse("lapsereg.nl").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Default,
            external_ds: ExternalDs::Web { validates: false },
            tlds: ALL_TLDS
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                .collect(),
        },
    );
    world.auto_sign_on_purchase = true;
    let hosting = Hosting::Registrar { plan: Plan::Free };
    let domain = world
        .purchase(registrar, "lapsing", Tld::Nl, hosting, "o@x")
        .unwrap();
    let start = world.today.plus_days(2);
    let plan = RolloverPlan::correct(RolloverStyle::DoubleSignatureKsk, start)
        .with_ds_timing(DsTiming::Never)
        .with_signature_validity_days(5);
    world.schedule_rollover(&domain, plan).unwrap();
    world.advance_to(start);
    world.stall_rollover(&domain).unwrap();
    let signed_until = world
        .rollover_state(&domain)
        .and_then(|s| s.signed_until())
        .expect("transitional set is served with bounded validity");
    let generation = world.domain_generation(&domain);

    let options = ScanOptions::default();
    let mut cache = ScanCache::new();
    let mut cache_served = 0;
    let mut last_verdict = None;
    for _ in 0..9 {
        world.tick();
        let queries = world.network.query_count();
        let cached = Snapshot::take_cached(&world, &[Tld::Nl], &options, &mut cache);
        let queried = world.network.query_count() > queries;
        let uncached = Snapshot::take_with_options(&world, &[Tld::Nl], &options);
        assert_eq!(
            cached.cells, uncached.cells,
            "cached scan agrees with a fresh one on {}",
            world.today
        );
        let totals = cached.tld_totals(Tld::Nl);
        let verdict = (totals.fully_deployed, totals.misconfigured);
        let lapsed = world.today.epoch_seconds() > signed_until;
        assert_eq!(verdict, if lapsed { (0, 1) } else { (1, 0) });
        if !queried {
            cache_served += 1;
        }
        if last_verdict.is_some_and(|last| last != verdict) {
            assert!(queried, "the verdict flipped without re-observing");
        }
        last_verdict = Some(verdict);
    }
    assert_eq!(last_verdict, Some((0, 1)), "the campaign covers the lapse");
    assert!(
        cache_served >= 4,
        "unchanged days are still served from the cache ({cache_served})"
    );
    assert_eq!(
        world.domain_generation(&domain),
        generation,
        "nothing but the clock moved"
    );
}

/// One tiny 21-day cached campaign, a snapshot every third day, while
/// every registrar mass-signs its hosted domains (a few dozen changes
/// per interval): `(hits, misses, entries)` of its cache, the network
/// queries it issued, and an FNV-1a digest of every operator's extended
/// CSV. The faulted flavour adds a 5% drop/SERVFAIL mix, takes the
/// busiest nameserver fleet down for good and leaves the retry queue too
/// short for it, so the digest also pins *which* failed domains the
/// bounded retry pass picks.
fn campaign_counters(faulted: bool) -> (u64, u64, usize, u64, u64) {
    use dsec::ecosystem::{PolicyChange, RegistrarId};

    let mut world = build(&PopulationConfig::tiny()).world;
    for id in (0..world.registrar_count() as u32).map(RegistrarId) {
        world.add_milestone(
            id,
            world.today.plus_days(2),
            PolicyChange::MassSignHosted {
                tlds: ALL_TLDS.to_vec(),
                over_days: 12,
            },
        );
    }
    let mut config = CampaignConfig::new(world.today.plus_days(21), 3);
    if faulted {
        world.fault_plane().enable(CHAOS_SEED);
        world
            .fault_plane()
            .set_global_profile(FaultProfile::mixed(0.05));
        let mut fleets = std::collections::BTreeMap::new();
        for d in world.domains() {
            *fleets
                .entry(world.registry(d.tld).ns_of(&d.name))
                .or_insert(0u32) += 1;
        }
        let (busiest, _) = fleets
            .iter()
            .max_by_key(|(_, &n)| n)
            .expect("populated world");
        for ns in busiest {
            world.fault_plane().set_down(ns, true);
        }
        config = config.with_retries(3, 8);
    }
    let mut cache = ScanCache::new();
    let queries = world.network.query_count();
    let store = scan_campaign_cached(&mut world, &config, &mut cache);
    let queries = world.network.query_count() - queries;
    cache
        .check_against_sweep(&world)
        .expect("delta state after the campaign");
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for op in operators(&store) {
        for byte in store.to_csv_extended(&op).bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let stats = cache.stats();
    (stats.hits, stats.misses, stats.entries, queries, digest)
}

/// Recorded at commit d5b7f5c — the last one whose warm snapshots swept
/// the population and looked every domain up — by this very function
/// (minus the oracle call). A warm snapshot that only reads the change
/// journal must count, query and export exactly what the sweep did.
///
/// Re-pinned once since, when the scan moved onto the resolver's
/// exchange: a lame (REFUSED) first NS no longer ends a domain's ladder,
/// so each unmaterialized domain costs one REFUSED per NS (fault-free
/// queries 682 → 1031, digest unchanged), and under the 5% drop /
/// SERVFAIL mix the second NS now meets the draws, which moves which
/// domains end indeterminate and so the whole faulted tuple.
#[test]
fn delta_campaign_counts_what_the_sweep_counted() {
    assert_eq!(
        campaign_counters(false),
        (2199, 673, 359, 1031, 0xacc4_5619_4d55_0f2d),
        "fault-free"
    );
    assert_eq!(
        campaign_counters(true),
        (1607, 1265, 262, 2726, 0x4671_b0c9_868c_e49c),
        "faulted"
    );
}
