//! The traffic plane's tallies pinned to the resolver that walked from
//! the root on every answer-cache miss.
//!
//! Every digest below was recorded by running this file on the commit
//! *before* the resolver's zone-cut cache landed (7b93ffd). What a user
//! got, who it is attributed to, which queries the answer cache served
//! and how many answers it ended up holding are all properties of the
//! stream and the world — an infrastructure cache may make a miss
//! cheaper, never skip it or change its verdict. Latency and upstream
//! attempt counts are deliberately not part of the digest: those are
//! what such a cache exists to move.

use std::sync::Arc;

use dsec::ecosystem::Tld;
use dsec::resolver::Cache;
use dsec::traffic::{run_load, run_load_shared, LoadConfig, TrafficPopulation, TrafficReport};
use dsec::workloads::{build, PaperWorld, PopulationConfig};

fn tiny_world() -> PaperWorld {
    build(&PopulationConfig::tiny())
}

/// FNV-1a over the `Debug` rendering of everything a load must reproduce:
/// outcomes, per-registrar and per-operator attribution (`BTreeMap`s, so
/// the rendering is ordered), answer-cache hits and misses, negative
/// hits, and the answers left in the cache.
fn digest(report: &TrafficReport) -> u64 {
    let rendered = format!(
        "{:?}\n{:?}\n{:?}\nhits {} misses {} negative {} entries {}",
        report.outcomes,
        report.by_registrar,
        report.by_operator,
        report.resolver.cache_hits,
        report.resolver.cache_misses,
        report.resolver.negative_hits,
        report.cache_entries,
    );
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn fault_free_loads_reproduce_the_from_the_root_tallies() {
    let pw = tiny_world();
    for (seed, golden) in [
        (0x7AF1C, 0x0946_71b5_c6c9_1a43u64),
        (0xDECAF, 0x324a_8a39_c723_ccbd),
    ] {
        let config = LoadConfig::tiny().with_seed(seed);
        let report = run_load(&pw.world, &config);
        assert_eq!(report.outcomes.total(), config.queries);
        assert!(report.resolver.cache_misses > 0 && report.resolver.cache_hits > 0);
        assert_eq!(
            digest(&report),
            golden,
            "seed {seed:#x}: {:#018x}",
            digest(&report)
        );
    }
}

/// Three phases over one shared cache, with a mismatched DS in the world
/// so a Bogus chain is part of what must replay: the stream, the same
/// stream one span later (answers still live — mostly hits), and the
/// same stream 4,000 s later, past every answer TTL in the population
/// but inside every delegation, DS and DNSKEY TTL — each query misses
/// the answer cache again and must get the verdict it got the first time
/// (which is why the first and the last digest are the same number).
#[test]
fn shared_cache_replay_reproduces_the_from_the_root_tallies() {
    let mut pw = tiny_world();
    let population = TrafficPopulation::from_world(&pw.world);
    let victim = population.ranked[&Tld::Nl]
        .iter()
        .map(|&i| &population.sites[i as usize])
        .find(|site| pw.world.domain(&site.name).is_some_and(|d| d.is_signed()))
        .expect("a signed .nl site exists in the tiny population")
        .name
        .clone();
    pw.world
        .roll_keys_abrupt(&victim)
        .expect("victim is signed");

    let config = LoadConfig::tiny().with_seed(0x5EED);
    let cache = Arc::new(Cache::bounded(config.cache_capacity).with_max_stale(3_600));
    let golden = [
        (0, 0x393d_a971_c08f_3af9u64),
        (config.stream_span_s(), 0xedff_273d_1f5a_003f),
        (4_000, 0x393d_a971_c08f_3af9),
    ];
    for (phase, (offset, golden)) in golden.into_iter().enumerate() {
        let report = run_load_shared(
            &pw.world,
            &config.clone().with_now_offset(offset),
            Arc::clone(&cache),
        );
        assert!(
            report.outcomes.bogus > 0,
            "the victim is queried and refused"
        );
        assert_eq!(report.outcomes.stale, 0, "nothing fails in transport");
        assert_eq!(
            digest(&report),
            golden,
            "phase {phase} (+{offset} s): {:#018x}",
            digest(&report)
        );
    }
}
