//! Name ↔ row equivalence for the columnar ecosystem store.
//!
//! The registry's delegation state moved from `BTreeMap<Name, …>` maps
//! into the dense row-indexed [`DomainTable`]; the Name-keyed API
//! (`delegations`, `sponsor_of`, `generation_of`) survived as a facade
//! over the columns. These properties pin the facade to a literal
//! Name-keyed reference model:
//!
//! * any sequence of registry mutations (add / remove / transfer /
//!   DS-swap / NS-change, including rejected ones) leaves the Name-keyed
//!   API, the columnar enumeration, and a shadow `BTreeMap` model in
//!   exact agreement — names, canonical order, sponsors, generations,
//!   operators, and the generation-persists-across-removal rule;
//! * any world mutated by an arbitrary customer action sequence produces
//!   byte-identical campaign CSVs through the in-memory store and the
//!   streamed (spill + replay) store.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dsec::ecosystem::{
    operator_of, DsSubmission, ExternalDs, Hosting, OperatorDnssec, Plan, Registry, RegistrarId,
    RegistrarPolicy, Tld, TldPolicy, TldRole, World, WorldConfig, ALL_TLDS,
};
use dsec::scanner::{scan_campaign_cached, scan_campaign_streamed, CampaignConfig, ScanCache};
use dsec::wire::{DsRdata, Name};

const FROM: u32 = 1_420_070_400;
const UNTIL: u32 = FROM + 1000 * 86_400;

/// The Name-keyed reference model: what the old `BTreeMap`-backed
/// registry stored per delegation. `sponsor: None` models a removed
/// delegation whose row (and generation) the table must retain.
#[derive(Default)]
struct ShadowRow {
    sponsor: Option<RegistrarId>,
    generation: u64,
}

#[derive(Debug, Clone)]
enum RegistryAction {
    Add { label: u8, registrar: u8 },
    Remove { idx: u8 },
    Transfer { idx: u8, to: u8 },
    SwapDs { idx: u8, tag: u8 },
    DropDs { idx: u8 },
    ChangeNs { idx: u8 },
}

fn registry_action() -> impl Strategy<Value = RegistryAction> {
    prop_oneof![
        (any::<u8>(), any::<u8>())
            .prop_map(|(label, registrar)| RegistryAction::Add { label, registrar }),
        any::<u8>().prop_map(|idx| RegistryAction::Remove { idx }),
        (any::<u8>(), any::<u8>()).prop_map(|(idx, to)| RegistryAction::Transfer { idx, to }),
        (any::<u8>(), any::<u8>()).prop_map(|(idx, tag)| RegistryAction::SwapDs { idx, tag }),
        any::<u8>().prop_map(|idx| RegistryAction::DropDs { idx }),
        any::<u8>().prop_map(|idx| RegistryAction::ChangeNs { idx }),
    ]
}

/// A small label pool so sequences re-register removed names — the case
/// where a reused row must keep counting generations upward.
fn pool_name(label: u8) -> Name {
    Name::parse(&format!("eq{}.com", label % 12)).unwrap()
}

/// Registrar 99 is deliberately unaccredited: actions routed through it
/// must be rejected and leave both stores untouched.
fn actor(to: u8) -> RegistrarId {
    RegistrarId([1, 2, 99][to as usize % 3])
}

fn check_against_shadow(registry: &Registry, shadow: &BTreeMap<Name, ShadowRow>) {
    let live: Vec<(&Name, RegistrarId, u64)> = shadow
        .iter()
        .filter_map(|(name, row)| row.sponsor.map(|s| (name, s, row.generation)))
        .collect();

    // Name-keyed API: same names, canonical (Name-sorted) order.
    let names: Vec<Name> = live.iter().map(|(n, _, _)| (*n).clone()).collect();
    assert_eq!(registry.delegations(), names, "delegations() diverged from shadow");

    // Columnar enumeration: same names, same order, same generations.
    let columnar: Vec<(Name, u64)> = registry
        .delegations_columnar()
        .map(|(_, name, generation)| (name.clone(), generation))
        .collect();
    let expected: Vec<(Name, u64)> =
        live.iter().map(|(n, _, g)| ((*n).clone(), *g)).collect();
    assert_eq!(columnar, expected, "delegations_columnar() diverged from shadow");

    // Point lookups, live and dead. A live row's operator is its NS
    // set's; a dead row has none.
    for (name, row) in shadow {
        assert_eq!(registry.sponsor_of(name), row.sponsor, "{name}: sponsor");
        assert_eq!(registry.generation_of(name), row.generation, "{name}: generation");
        let operator = row.sponsor.and_then(|_| operator_of(&registry.ns_of(name)));
        assert_eq!(registry.operator_of(name), operator.as_ref(), "{name}: operator");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn registry_mutations_match_name_keyed_shadow(
        actions in proptest::collection::vec(registry_action(), 1..48)
    ) {
        let mut rng = StdRng::seed_from_u64(0xC01);
        let mut registry = Registry::new(Tld::Com, &mut rng, FROM, UNTIL);
        registry.accredit(RegistrarId(1));
        registry.accredit(RegistrarId(2));

        let mut shadow: BTreeMap<Name, ShadowRow> = BTreeMap::new();
        let ns = [Name::parse("ns1.host.net").unwrap()];

        for action in actions {
            match action {
                RegistryAction::Add { label, registrar } => {
                    let name = pool_name(label);
                    let by = actor(registrar);
                    let ok = registry.add_delegation(by, &name, &ns).is_ok();
                    let row = shadow.entry(name).or_default();
                    let expect = by != RegistrarId(99) && row.sponsor.is_none();
                    assert_eq!(ok, expect, "add_delegation acceptance");
                    if ok {
                        row.sponsor = Some(by);
                        row.generation += 1;
                    }
                }
                RegistryAction::Remove { idx } => {
                    let name = pool_name(idx);
                    // Route through the current sponsor so liveness is the
                    // only thing deciding acceptance.
                    let by = shadow
                        .get(&name)
                        .and_then(|r| r.sponsor)
                        .unwrap_or(RegistrarId(1));
                    let ok = registry.remove_delegation(by, &name).is_ok();
                    let row = shadow.entry(name).or_default();
                    assert_eq!(ok, row.sponsor.is_some(), "remove_delegation acceptance");
                    if ok {
                        // The generation column survives removal and keeps
                        // counting (stale-cache poison protection).
                        row.sponsor = None;
                        row.generation += 1;
                    }
                }
                RegistryAction::Transfer { idx, to } => {
                    let name = pool_name(idx);
                    let from = shadow
                        .get(&name)
                        .and_then(|r| r.sponsor)
                        .unwrap_or(RegistrarId(1));
                    let to = actor(to);
                    let ok = registry.transfer(from, to, &name).is_ok();
                    let row = shadow.entry(name).or_default();
                    let expect = row.sponsor.is_some() && to != RegistrarId(99);
                    assert_eq!(ok, expect, "transfer acceptance");
                    if ok {
                        // Transfers are invisible on the wire: sponsor
                        // changes, generation must not.
                        row.sponsor = Some(to);
                    }
                }
                RegistryAction::SwapDs { idx, tag } => {
                    let name = pool_name(idx);
                    let by = shadow
                        .get(&name)
                        .and_then(|r| r.sponsor)
                        .unwrap_or(RegistrarId(1));
                    let ds = DsRdata {
                        key_tag: tag as u16,
                        algorithm: 8,
                        digest_type: 2,
                        digest: vec![tag; 32],
                    };
                    let ok = registry.set_ds(by, &name, &[ds]).is_ok();
                    let row = shadow.entry(name).or_default();
                    assert_eq!(ok, row.sponsor.is_some(), "set_ds acceptance");
                    if ok {
                        row.generation += 1;
                    }
                }
                RegistryAction::DropDs { idx } => {
                    let name = pool_name(idx);
                    let by = shadow
                        .get(&name)
                        .and_then(|r| r.sponsor)
                        .unwrap_or(RegistrarId(1));
                    let ok = registry.remove_ds(by, &name).is_ok();
                    let row = shadow.entry(name).or_default();
                    assert_eq!(ok, row.sponsor.is_some(), "remove_ds acceptance");
                    if ok {
                        row.generation += 1;
                    }
                }
                RegistryAction::ChangeNs { idx } => {
                    let name = pool_name(idx);
                    let by = shadow
                        .get(&name)
                        .and_then(|r| r.sponsor)
                        .unwrap_or(RegistrarId(1));
                    let hosts = [Name::parse("ns2.other.net").unwrap()];
                    let ok = registry.set_ns(by, &name, &hosts).is_ok();
                    let row = shadow.entry(name).or_default();
                    assert_eq!(ok, row.sponsor.is_some(), "set_ns acceptance");
                    if ok {
                        row.generation += 1;
                    }
                }
            }
            check_against_shadow(&registry, &shadow);
        }
    }
}

// ---------------------------------------------------------------------------
// World-level: arbitrary customer mutations, then CSV equality between the
// in-memory campaign store and the streamed spill-and-replay store.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum WorldAction {
    Purchase { label: u8, registrar: u8, tld: u8 },
    EnableDnssec { idx: u8 },
    UploadRealDs { idx: u8 },
    UploadGarbageDs { idx: u8 },
    Tick,
}

fn world_action() -> impl Strategy<Value = WorldAction> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(label, registrar, tld)| WorldAction::Purchase { label, registrar, tld }),
        any::<u8>().prop_map(|idx| WorldAction::EnableDnssec { idx }),
        any::<u8>().prop_map(|idx| WorldAction::UploadRealDs { idx }),
        any::<u8>().prop_map(|idx| WorldAction::UploadGarbageDs { idx }),
        Just(WorldAction::Tick),
    ]
}

/// Builds a world and replays `actions` over it; called twice per case so
/// the two scan paths each get an identically mutated world.
fn mutated_world(actions: &[WorldAction]) -> World {
    let mut world = World::new(WorldConfig {
        key_pool: 2,
        ..WorldConfig::default()
    });
    let registrars = [
        world.add_registrar(
            "EqFull",
            Name::parse("eqfull.net").unwrap(),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Default,
                external_ds: ExternalDs::Web { validates: true },
                tlds: ALL_TLDS
                    .iter()
                    .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                    .collect(),
            },
        ),
        world.add_registrar(
            "EqNone",
            Name::parse("eqnone.net").unwrap(),
            RegistrarPolicy::no_dnssec(&ALL_TLDS),
        ),
    ];

    let mut domains: Vec<Name> = Vec::new();
    let pick = |domains: &[Name], idx: u8| -> Option<Name> {
        if domains.is_empty() {
            None
        } else {
            Some(domains[idx as usize % domains.len()].clone())
        }
    };
    for action in actions {
        match action {
            WorldAction::Purchase { label, registrar, tld } => {
                let tld = ALL_TLDS[*tld as usize % ALL_TLDS.len()];
                let id = registrars[*registrar as usize % registrars.len()];
                if let Ok(domain) = world.purchase(
                    id,
                    &format!("eqw{label}"),
                    tld,
                    Hosting::Registrar { plan: Plan::Free },
                    "o@x",
                ) {
                    domains.push(domain);
                }
            }
            WorldAction::EnableDnssec { idx } => {
                if let Some(domain) = pick(&domains, *idx) {
                    let _ = world.enable_dnssec(&domain);
                }
            }
            WorldAction::UploadRealDs { idx } => {
                if let Some(domain) = pick(&domains, *idx) {
                    if let Some(keys) = world.domain(&domain).and_then(|d| d.keys.clone()) {
                        let ds = keys.ds(dsec::crypto::DigestType::Sha256);
                        let _ = world.upload_ds(&domain, ds, DsSubmission::Web);
                    }
                }
            }
            WorldAction::UploadGarbageDs { idx } => {
                if let Some(domain) = pick(&domains, *idx) {
                    let garbage = DsRdata {
                        key_tag: 9,
                        algorithm: 8,
                        digest_type: 2,
                        digest: vec![9; 32],
                    };
                    let _ = world.upload_ds(&domain, garbage, DsSubmission::Web);
                }
            }
            WorldAction::Tick => world.tick(),
        }
    }
    world
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        max_shrink_iters: 16,
        .. ProptestConfig::default()
    })]

    #[test]
    fn mutated_worlds_scan_identically_streamed_and_in_memory(
        actions in proptest::collection::vec(world_action(), 1..20),
        case in 0u32..u32::MAX,
    ) {
        let mut memory_world = mutated_world(&actions);
        let mut streamed_world = mutated_world(&actions);

        let config = CampaignConfig::new(memory_world.today.plus_days(14), 7);
        let mut memory_cache = ScanCache::new();
        let memory = scan_campaign_cached(&mut memory_world, &config, &mut memory_cache);

        let spill = std::env::temp_dir().join(format!(
            "dsec-equivalence-{}-{case}.snap",
            std::process::id()
        ));
        let mut streamed_cache = ScanCache::new();
        let streamed =
            scan_campaign_streamed(&mut streamed_world, &config, &mut streamed_cache, &spill)
                .expect("streamed campaign completes");

        let operators: std::collections::BTreeSet<String> = memory
            .snapshots()
            .iter()
            .flat_map(|s| s.cells.keys().map(|(op, _)| op.clone()))
            .collect();
        for op in &operators {
            assert_eq!(
                streamed.to_csv(op).expect("replay CSV"),
                memory.to_csv(op),
                "{op}: legacy CSV diverged between streamed and in-memory paths"
            );
            assert_eq!(
                streamed.to_csv_extended(op).expect("replay CSV"),
                memory.to_csv_extended(op),
                "{op}: extended CSV diverged between streamed and in-memory paths"
            );
        }
        std::fs::remove_file(&spill).ok();
    }
}
