//! End-to-end tests of the user-traffic plane: deterministic load
//! generation, RFC 4035 outcome accounting with registrar/operator
//! attribution, shared-cache bounding, and composition with the fault
//! plane.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dsec::ecosystem::{operator_of, Tld, World};
use dsec::resolver::Cache;
use dsec::traffic::{run_load, run_load_shared, LoadConfig, TrafficPopulation};
use dsec::wire::Name;
use dsec::workloads::{build, PopulationConfig};

fn tiny_world() -> dsec::workloads::PaperWorld {
    build(&PopulationConfig::tiny())
}

/// A site as `(name, www, tld, registrar id, operator id)`.
type SiteRow = (Name, Name, Tld, u32, u32);

/// A population as `(sites, per-TLD ranking, registrars, operators)`.
type Reference = (Vec<SiteRow>, BTreeMap<Tld, Vec<u32>>, Vec<String>, Vec<String>);

/// The population as built before attribution was a registry column:
/// every NS set read from the zone, registrar and operator strings per
/// site, ids in first-occurrence order, and a stable sort of each TLD
/// by operator size (descending) then operator key, looked up by string.
fn reference_population(world: &World) -> Reference {
    let mut sites = Vec::new();
    let mut site_operators: Vec<String> = Vec::new();
    let mut operator_sizes: BTreeMap<String, u64> = BTreeMap::new();
    let (mut registrars, mut operators): (Vec<String>, Vec<String>) = (Vec::new(), Vec::new());
    let mut registrar_ids: HashMap<String, u32> = HashMap::new();
    let mut operator_ids: HashMap<String, u32> = HashMap::new();
    for d in world.domains() {
        let ns = world.registry(d.tld).ns_of(&d.name);
        let operator = operator_of(&ns)
            .map(|n| n.to_string())
            .unwrap_or_else(|| "(undelegated)".to_string());
        *operator_sizes.entry(operator.clone()).or_insert(0) += 1;
        let registrar = world.registrar(d.registrar).name.clone();
        let registrar_id = *registrar_ids.entry(registrar.clone()).or_insert_with(|| {
            registrars.push(registrar.clone());
            (registrars.len() - 1) as u32
        });
        let operator_id = *operator_ids.entry(operator.clone()).or_insert_with(|| {
            operators.push(operator.clone());
            (operators.len() - 1) as u32
        });
        let www = d.name.child("www").unwrap();
        sites.push((d.name.clone(), www, d.tld, registrar_id, operator_id));
        site_operators.push(operator);
    }
    let mut ranked: BTreeMap<Tld, Vec<u32>> = BTreeMap::new();
    for (i, site) in sites.iter().enumerate() {
        ranked.entry(site.2).or_default().push(i as u32);
    }
    for indices in ranked.values_mut() {
        indices.sort_by(|&a, &b| {
            let (oa, ob) = (&site_operators[a as usize], &site_operators[b as usize]);
            operator_sizes[ob]
                .cmp(&operator_sizes[oa])
                .then_with(|| oa.cmp(ob))
        });
    }
    (sites, ranked, registrars, operators)
}

#[test]
fn population_from_columns_matches_the_string_keyed_reference() {
    let tiny = tiny_world();
    let small = build(&PopulationConfig {
        scale: 20_000,
        ..PopulationConfig::default()
    });
    for world in [&tiny.world, &small.world] {
        let population = TrafficPopulation::from_world(world);
        let sites: Vec<SiteRow> = population
            .sites
            .iter()
            .map(|s| (s.name.clone(), s.www.clone(), s.tld, s.registrar_id, s.operator_id))
            .collect();
        let (ref_sites, ref_ranked, ref_registrars, ref_operators) = reference_population(world);
        assert_eq!(sites, ref_sites, "sites and their ids");
        assert_eq!(population.ranked, ref_ranked, "popularity ranks");
        assert_eq!(population.registrars, ref_registrars);
        assert_eq!(population.operators, ref_operators);
    }
}

#[test]
fn fault_free_load_reports_zero_bogus_and_accounts_every_query() {
    let pw = tiny_world();
    let config = LoadConfig::tiny();
    let report = run_load(&pw.world, &config);

    assert_eq!(report.total, config.queries);
    assert_eq!(report.outcomes.bogus, 0, "fault-free run must not see bogus");
    assert_eq!(report.outcomes.total(), report.total, "every query classified");

    // Attribution is complete: registrar and operator counts both
    // partition the stream.
    let registrar_total: u64 = report.by_registrar.values().map(|c| c.total()).sum();
    let operator_total: u64 = report.by_operator.values().map(|c| c.total()).sum();
    assert_eq!(registrar_total, report.total);
    assert_eq!(operator_total, report.total);
    assert!(report.by_registrar.len() > 1, "more than one registrar queried");

    // The Zipf head repeats names, so the shared cache must have served
    // some of the stream; counters surface in the summary line.
    assert!(report.resolver.cache_hits > 0);
    assert!(report.resolver.cache_misses > 0);
    assert!(report.cache_entries <= report.cache_capacity);
    let line = report.summary_line();
    assert!(line.contains("hit rate"), "{line}");
    assert!(line.contains(&format!("{} hits", report.resolver.cache_hits)), "{line}");

    // Latency telemetry is populated, and the seeded RTT jitter keeps
    // the percentiles strictly separated — no collapsing onto one bucket.
    assert_eq!(report.histogram.count(), report.total);
    assert!(
        report.histogram.p50() < report.histogram.p99()
            && report.histogram.p99() < report.histogram.p999(),
        "degenerate percentiles: p50 {} p99 {} p999 {}",
        report.histogram.p50(),
        report.histogram.p99(),
        report.histogram.p999(),
    );
    assert!(report.sim_elapsed_ms > 0);
}

#[test]
fn same_seed_same_threads_reproduces_outcomes_and_histogram() {
    let pw = tiny_world();
    let config = LoadConfig::tiny().with_seed(0xDECAF);
    let first = run_load(&pw.world, &config);
    let second = run_load(&pw.world, &config);

    assert_eq!(first.outcomes, second.outcomes);
    assert_eq!(first.by_registrar, second.by_registrar);
    assert_eq!(first.by_operator, second.by_operator);
    assert_eq!(first.histogram, second.histogram, "identical latency buckets");
    assert_eq!(first.resolver, second.resolver, "identical cache/attempt counters");
    assert_eq!(first.sim_elapsed_ms, second.sim_elapsed_ms);
}

#[test]
fn shared_cache_stays_within_its_capacity_bound() {
    let pw = tiny_world();
    let cache = Arc::new(Cache::bounded(32));
    let report = run_load_shared(&pw.world, &LoadConfig::tiny(), Arc::clone(&cache));
    // Answers and zone cuts share the bound.
    let held = cache.len() + cache.cut_count();
    assert!(held <= 32, "cache ended at {held} entries");
    assert_eq!(report.cache_entries, cache.len());
    assert_eq!(report.outcomes.bogus, 0);
    assert_eq!(report.outcomes.total(), report.total);
}

#[test]
fn mismatched_ds_injection_attributes_bogus_to_the_right_registrar() {
    let mut pw = tiny_world();

    // The most popular signed .nl site: guaranteed query volume (head of
    // the .nl Zipf) and an existing chain to break.
    let population = TrafficPopulation::from_world(&pw.world);
    let victim = population.ranked[&Tld::Nl]
        .iter()
        .map(|&i| &population.sites[i as usize])
        .find(|site| {
            pw.world
                .domain(&site.name)
                .map(|d| d.is_signed())
                .unwrap_or(false)
        })
        .expect("a signed .nl site exists in the tiny population")
        .clone();

    // Abrupt key replacement without a DS update: the registry now
    // publishes a DS matching no served DNSKEY — every query for the
    // victim goes bogus at the validator.
    pw.world
        .roll_keys_abrupt(&victim.name)
        .expect("victim is signed");

    let report = run_load(&pw.world, &LoadConfig::tiny());
    assert!(
        report.outcomes.bogus > 0,
        "the head .nl site must be queried and fail validation"
    );
    let victim_registrar = population.registrar_of(&victim);
    let victim_counts = report.by_registrar[victim_registrar];
    assert_eq!(
        victim_counts.bogus, report.outcomes.bogus,
        "all bogus queries attribute to {victim_registrar}"
    );
    for (registrar, counts) in &report.by_registrar {
        if registrar != victim_registrar {
            assert_eq!(counts.bogus, 0, "{registrar} wrongly blamed");
        }
    }
    let operator_counts = report.by_operator[population.operator_of(&victim)];
    assert_eq!(operator_counts.bogus, report.outcomes.bogus);
}

#[test]
fn load_composes_with_the_fault_plane_and_stays_deterministic() {
    let pw = tiny_world();
    let clean = run_load(&pw.world, &LoadConfig::tiny());

    pw.world
        .network
        .faults()
        .set_global_profile(dsec::authserver::FaultProfile::mixed(0.05));
    let config = LoadConfig::tiny();
    pw.world.network.faults().enable(0xFA017);
    let faulty = run_load(&pw.world, &config);
    // Re-seeding resets the plane's per-(server, query) attempt counters,
    // so an identically configured run replays the same fault schedule.
    pw.world.network.faults().enable(0xFA017);
    let again = run_load(&pw.world, &config);

    // Chaos surfaces as retries/timeouts and a heavier latency tail, not
    // as validation failures.
    assert!(faulty.resolver.timeouts > 0, "fault plane injected timeouts");
    assert_eq!(faulty.outcomes.bogus, 0);
    assert!(
        faulty.histogram.p999() >= clean.histogram.p999(),
        "faults cannot shrink the tail: {} < {}",
        faulty.histogram.p999(),
        clean.histogram.p999()
    );

    // The same seed stays deterministic under faults: outcomes,
    // attribution, resolver counters and every latency bucket replay
    // exactly.
    assert_eq!(faulty.outcomes, again.outcomes);
    assert_eq!(faulty.by_registrar, again.by_registrar);
    assert_eq!(faulty.by_operator, again.by_operator);
    assert_eq!(faulty.resolver, again.resolver);
    assert_eq!(faulty.histogram, again.histogram);
    assert_eq!(faulty.sim_elapsed_ms, again.sim_elapsed_ms);
}
