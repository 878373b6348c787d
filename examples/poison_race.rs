//! Cache-poisoning resistance, driven end to end through the resolver
//! hardening plane.
//!
//! Part 1 is a live demo on a hand-built world: a Kaminsky attacker
//! races a naive resolver (10-bit TXID, fixed source port, no 0x20, no
//! bailiwick scrubbing) and plants a forged `www` answer pointing at
//! the attacker's sinkhole; the per-query diagnosis and the scanner's
//! per-registrar poison census both catch the forgery. The *same*
//! attacker against the hardened profile (16+16 entropy bits, 0x20,
//! strict bailiwick) must capture nothing — any admitted forgery there
//! is a hard failure (the CI examples-smoke job runs this binary). An
//! RFC 5011 trust-anchor walk shows why revoking an old anchor inside
//! the add hold-down strands followers.
//!
//! Part 2 runs E-A2 on the tiny population: the hardened fleet under a
//! live campaign admits zero forgeries, the naive profile captures at
//! exactly the analytic birthday-bound rate, and a mistimed trust-anchor
//! roll goes bogus for validating users on precisely the stranded
//! window `[revoke, promotion)`.
//!
//! Run with: `cargo run --release --example poison_race`

use std::sync::Arc;

use dsec::core::experiment_poison_resistance;
use dsec::dnssec::ADD_HOLD_DOWN_DAYS;
use dsec::ecosystem::{
    AnchorRollPlan, ExternalDs, Hosting, OperatorDnssec, RegistrarPolicy, SimDate, Tld, TldPolicy,
    TldRole, World, WorldConfig, ALL_TLDS,
};
use dsec::resolver::{
    capture_kind, Cache, CaptureKind, OnPathThreat, Resolver, SpoofGuard, POISON_A,
};
use dsec::scanner::{census_table, poison_census};
use dsec::wire::{Name, RData, RrType};
use dsec::workloads::PopulationConfig;

const SPOOFS: u32 = 300;

/// A world with one registrar sponsoring one unsigned owner-hosted
/// domain — the resolver's entropy profile is the only defense here.
fn demo_world() -> (World, Name) {
    let mut world = World::new(WorldConfig::default());
    let registrar = world.add_registrar(
        "Probed",
        Name::parse("demo-reg.net").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Unsupported,
            external_ds: ExternalDs::Ticket,
            tlds: ALL_TLDS
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                .collect(),
        },
    );
    let victim = world
        .purchase(
            registrar,
            "victim",
            Tld::Com,
            Hosting::Owner,
            "owner@victim.com",
        )
        .unwrap();
    (world, victim)
}

fn main() {
    // ---- Part 1a: the naive profile loses the race. ----
    let (world, victim) = demo_world();
    let now = world.today.epoch_seconds();
    let www = victim.child("www").unwrap();
    let naive = SpoofGuard::naive();
    println!(
        "naive profile: {} entropy bits on {} -> per-race capture p = {:.3}",
        naive.entropy_bits(&www),
        www,
        naive.race_success_probability(&www, SPOOFS),
    );
    // The race draw is a pure function of (seed, name, qtype); search
    // the attacker seed so this demo's www race is deterministically a
    // win (p ≈ 0.25 per seed).
    let seed = (0..64)
        .find(|&s| OnPathThreat::new(victim.clone(), SPOOFS, s).race_won(&naive, &www, RrType::A))
        .expect("some seed wins the www race");
    let threat = OnPathThreat::new(victim.clone(), SPOOFS, seed);
    let cache = Arc::new(Cache::new());
    let poisoned_resolver = Resolver::new(world.network.clone(), Vec::new())
        .with_spoof_guard(naive)
        .with_shared_cache(cache.clone())
        .with_on_path_threat(threat.clone());
    let answer = poisoned_resolver
        .resolve_cached(&www, RrType::A, now)
        .unwrap();
    let got = answer.records.iter().find_map(|r| match &r.rdata {
        RData::A(ip) => Some(*ip),
        _ => None,
    });
    println!(
        "naive-profile capture: {www} -> {} (poisoned={})",
        got.map(|ip| ip.to_string()).unwrap_or_default(),
        answer.poisoned,
    );
    assert!(answer.poisoned, "the won race plants a forged answer");
    assert_eq!(got, Some(POISON_A), "answer points at the sinkhole");
    assert_eq!(capture_kind(&answer, None), CaptureKind::Poisoned);
    println!("per-query diagnosis: Poisoned");

    // ---- Part 1b: the poison census attributes the damage. ----
    let census = poison_census(&world, &cache, now);
    print!("{}", census_table(&census));
    let row = census.get("Probed").expect("registrar row");
    assert_eq!(row.poisoned_names, 1, "the forged www entry is caught");
    println!(
        "census: Probed has {} poisoned of {} cached answers",
        row.poisoned_names, row.cached_names,
    );

    // ---- Part 1c: the hardened profile repels the same attacker. ----
    let hardened_resolver = Resolver::new(world.network.clone(), Vec::new())
        .with_spoof_guard(SpoofGuard::hardened())
        .with_on_path_threat(threat);
    let mut admitted = 0u64;
    let mut races = 0u64;
    for i in 0..64 {
        let qname = victim.child(&format!("w{i}")).unwrap();
        if let Ok(a) = hardened_resolver.resolve(&qname, RrType::A, now) {
            admitted += u64::from(a.poisoned);
        }
        races += 1;
    }
    if let Ok(a) = hardened_resolver.resolve(&www, RrType::A, now) {
        admitted += u64::from(a.poisoned);
        races += 1;
    }
    println!(
        "hardened profile: {} entropy bits -> p ≈ {:.1e}; {admitted} captures over {races} raced lookups",
        SpoofGuard::hardened().entropy_bits(&www),
        SpoofGuard::hardened().race_success_probability(&www, SPOOFS),
    );
    assert_eq!(admitted, 0, "hardened entropy makes the race unwinnable");
    println!("hardened-profile captures: 0");

    // ---- Part 1d: RFC 5011 — revoking inside the hold-down strands. ----
    let publish = SimDate(0);
    let day = |d: u32| publish.plus_days(d);
    let correct = AnchorRollPlan::correct(publish);
    assert_eq!(correct.promotion(), day(ADD_HOLD_DOWN_DAYS));
    assert!(
        (0..=2 * ADD_HOLD_DOWN_DAYS).all(|d| !correct.is_stranded_on(day(d))),
        "a patient roll never leaves followers without a trusted anchor"
    );
    let mistimed = AnchorRollPlan::mistimed(publish, 10);
    assert!(
        !mistimed.is_stranded_on(day(9)),
        "the old anchor still signs"
    );
    assert!(
        mistimed.is_stranded_on(day(10)),
        "revoked inside the hold-down"
    );
    assert!(mistimed.is_stranded_on(day(ADD_HOLD_DOWN_DAYS - 1)));
    assert!(
        !mistimed.is_stranded_on(day(ADD_HOLD_DOWN_DAYS)),
        "promotion heals"
    );
    println!(
        "rfc 5011: add hold-down {ADD_HOLD_DOWN_DAYS} days; patient roll never strands, \
         revoke on day 10 -> followers stranded on days [10, {ADD_HOLD_DOWN_DAYS})",
    );

    // ---- Part 2: E-A2 on the tiny population. ----
    let result = experiment_poison_resistance(&PopulationConfig::tiny());
    println!("{}", result.to_markdown());
    println!(
        "verdict: {}",
        if result.reproduced() {
            "resolver hardening contract held (E-A2 reproduced)"
        } else {
            "resolver hardening contract broken (see table above)"
        }
    );

    // Any forged answer past the hardened profile — or a broken E-A2 —
    // is a hard failure.
    if admitted != 0 || !result.reproduced() {
        std::process::exit(1);
    }
}
