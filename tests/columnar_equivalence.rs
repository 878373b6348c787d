//! Name ↔ row equivalence for the columnar ecosystem store.
//!
//! The registry's delegation state moved from `BTreeMap<Name, …>` maps
//! into the dense row-indexed [`DomainTable`]; the Name-keyed API
//! (`delegations`, `sponsor_of`, `generation_of`) survived as a facade
//! over the columns. These properties pin the facade to a literal
//! Name-keyed reference model:
//!
//! * any sequence of registry mutations (add / transfer / DS-swap /
//!   NS-change, including rejected ones) leaves the Name-keyed API, the
//!   columnar enumeration, and a shadow `BTreeMap` model in exact
//!   agreement — names, canonical order, sponsors, generations and
//!   operators;
//! * any world mutated by an arbitrary customer action sequence produces
//!   byte-identical campaign CSVs through the in-memory store and the
//!   streamed (spill + replay) store;
//! * the canonical ranks the table keeps beside its sorted rows stay
//!   fresh: through inserts between reads, sorting rows by rank gives
//!   what a fresh `canonical_cmp` sort of their names gives;
//! * the world, which keeps its domains at the registries' rows and no
//!   index of its own, enumerates them in canonical order across TLDs,
//!   counts them, and finds each under any spelling, with registry-only
//!   delegations mixed in.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dsec::ecosystem::{
    operator_of, DomainTable, DsSubmission, ExternalDs, Hosting, OperatorDnssec, Plan, RegistrarId,
    RegistrarPolicy, Registry, Tld, TldPolicy, TldRole, World, WorldConfig, ALL_TLDS,
};
use dsec::scanner::{scan_campaign_cached, scan_campaign_streamed, CampaignConfig, ScanCache};
use dsec::wire::{DsRdata, Name};

const FROM: u32 = 1_420_070_400;
const UNTIL: u32 = FROM + 1000 * 86_400;

/// The Name-keyed reference model: what the old `BTreeMap`-backed
/// registry stored per delegation.
struct ShadowRow {
    sponsor: RegistrarId,
    generation: u64,
}

#[derive(Debug, Clone)]
enum RegistryAction {
    Add { label: u8, registrar: u8 },
    Transfer { idx: u8, to: u8 },
    SwapDs { idx: u8, tag: u8 },
    DropDs { idx: u8 },
    ChangeNs { idx: u8 },
}

fn registry_action() -> impl Strategy<Value = RegistryAction> {
    prop_oneof![
        (any::<u8>(), any::<u8>())
            .prop_map(|(label, registrar)| RegistryAction::Add { label, registrar }),
        (any::<u8>(), any::<u8>()).prop_map(|(idx, to)| RegistryAction::Transfer { idx, to }),
        (any::<u8>(), any::<u8>()).prop_map(|(idx, tag)| RegistryAction::SwapDs { idx, tag }),
        any::<u8>().prop_map(|idx| RegistryAction::DropDs { idx }),
        any::<u8>().prop_map(|idx| RegistryAction::ChangeNs { idx }),
    ]
}

/// The size of the label pool: small, so sequences act on delegated
/// names and try to register them again.
const POOL: u8 = 12;

fn pool_name(label: u8) -> Name {
    Name::parse(&format!("eq{}.com", label % POOL)).unwrap()
}

/// Registrar 99 is deliberately unaccredited: actions routed through it
/// must be rejected and leave both stores untouched.
fn actor(to: u8) -> RegistrarId {
    RegistrarId([1, 2, 99][to as usize % 3])
}

/// Who sponsors `name` in the shadow, or registrar 1 for a name not
/// delegated: routed so, an edit is refused only when `name` is not.
fn sponsor(shadow: &BTreeMap<Name, ShadowRow>, name: &Name) -> RegistrarId {
    shadow.get(name).map_or(RegistrarId(1), |row| row.sponsor)
}

fn check_against_shadow(registry: &Registry, shadow: &BTreeMap<Name, ShadowRow>) {
    // Name-keyed API: same names, canonical (Name-sorted) order.
    let names: Vec<Name> = shadow.keys().cloned().collect();
    assert_eq!(
        registry.delegations(),
        names,
        "delegations() diverged from shadow"
    );

    // Columnar enumeration: same names, same order, same generations.
    let columnar: Vec<(Name, u64)> = registry
        .delegations_columnar()
        .map(|(row, generation)| (registry.delegation_at(row).0, generation))
        .collect();
    let expected: Vec<(Name, u64)> = shadow
        .iter()
        .map(|(name, row)| (name.clone(), row.generation))
        .collect();
    assert_eq!(
        columnar, expected,
        "delegations_columnar() diverged from shadow"
    );

    // Rank-ordered sort: the rows, scrambled, sorted by their
    // canonical rank alone, come out in the shadow's (Name-sorted) order.
    let mut rows: Vec<u32> = registry
        .delegations_columnar()
        .map(|(row, _)| row)
        .collect();
    rows.reverse();
    let ranks = registry.delegation_ranks();
    rows.sort_by_key(|&row| ranks.of(row));
    let by_rank: Vec<Name> = rows
        .iter()
        .map(|&row| registry.delegation_at(row).0)
        .collect();
    drop(ranks);
    assert_eq!(by_rank, names, "rank-ordered rows diverged from shadow");

    // Point lookups of every pool name, delegated or not. A delegation's
    // operator is its NS set's; a name never delegated has none.
    for name in (0..POOL).map(pool_name) {
        let row = shadow.get(&name);
        assert_eq!(
            registry.sponsor_of(&name),
            row.map(|row| row.sponsor),
            "{name}: sponsor"
        );
        assert_eq!(
            registry.generation_of(&name),
            row.map_or(0, |row| row.generation),
            "{name}: generation"
        );
        let operator = row.and_then(|_| operator_of(&registry.ns_of(&name)));
        assert_eq!(
            registry.operator_of(&name),
            operator.as_ref(),
            "{name}: operator"
        );
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
                    let expect = by != RegistrarId(99) && !shadow.contains_key(&name);
                    assert_eq!(ok, expect, "add_delegation acceptance");
                    if ok {
                        shadow.insert(name, ShadowRow { sponsor: by, generation: 1 });
                    }
                }
                RegistryAction::Transfer { idx, to } => {
                    let name = pool_name(idx);
                    let from = sponsor(&shadow, &name);
                    let to = actor(to);
                    let ok = registry.transfer(from, to, &name).is_ok();
                    let row = shadow.get_mut(&name);
                    let expect = row.is_some() && to != RegistrarId(99);
                    assert_eq!(ok, expect, "transfer acceptance");
                    if let Some(row) = row.filter(|_| ok) {
                        // Transfers are invisible on the wire: sponsor
                        // changes, generation must not.
                        row.sponsor = to;
                    }
                }
                RegistryAction::SwapDs { idx, tag } => {
                    let name = pool_name(idx);
                    let by = sponsor(&shadow, &name);
                    let ds = DsRdata {
                        key_tag: tag as u16,
                        algorithm: 8,
                        digest_type: 2,
                        digest: vec![tag; 32],
                    };
                    let ok = registry.set_ds(by, &name, &[ds]).is_ok();
                    let row = shadow.get_mut(&name);
                    assert_eq!(ok, row.is_some(), "set_ds acceptance");
                    if let Some(row) = row {
                        row.generation += 1;
                    }
                }
                RegistryAction::DropDs { idx } => {
                    let name = pool_name(idx);
                    let by = sponsor(&shadow, &name);
                    let ok = registry.remove_ds(by, &name).is_ok();
                    let row = shadow.get_mut(&name);
                    assert_eq!(ok, row.is_some(), "remove_ds acceptance");
                    if let Some(row) = row {
                        row.generation += 1;
                    }
                }
                RegistryAction::ChangeNs { idx } => {
                    let name = pool_name(idx);
                    let by = sponsor(&shadow, &name);
                    let hosts = [Name::parse("ns2.other.net").unwrap()];
                    let ok = registry.set_ns(by, &name, &hosts).is_ok();
                    let row = shadow.get_mut(&name);
                    assert_eq!(ok, row.is_some(), "set_ns acceptance");
                    if let Some(row) = row {
                        row.generation += 1;
                    }
                }
            }
            check_against_shadow(&registry, &shadow);
        }
    }
}

// ---------------------------------------------------------------------------
// Table-level: the canonical ranks beside the sorted rows.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum OrderAction {
    /// Registers a name: a table row, unless it has one.
    Insert { label: u8 },
    /// Enumerates the table.
    Read,
    /// Sorts rows by rank, starting from a scrambled order.
    RankSort { rotate: u8 },
}

fn order_action() -> impl Strategy<Value = OrderAction> {
    prop_oneof![
        any::<u8>().prop_map(|label| OrderAction::Insert { label }),
        Just(OrderAction::Read),
        any::<u8>().prop_map(|rotate| OrderAction::RankSort { rotate }),
    ]
}

/// Names that tie on labels, label counts and case, and carry the octets
/// the canonical key escapes.
fn order_name(label: u8) -> Name {
    const POOL: [&str; 16] = [
        "a.com",
        "A-b.com",
        "ab.com",
        "a.b.com",
        "b.a.com",
        "\\000.com",
        "\\001a.com",
        "\\255.com",
        "z.net",
        "-.com",
        "com",
        "ZZ.a.com",
        "\\001.a.com",
        "a\\000.com",
        "b.com",
        "aB.com",
    ];
    Name::parse(POOL[label as usize % POOL.len()]).unwrap()
}

/// `names` sorted by a fresh `canonical_cmp`: the reference order.
fn fresh_sort(mut names: Vec<Name>) -> Vec<Name> {
    names.sort_by(|a, b| a.canonical_cmp(b));
    names
}

/// Rows `0..len`, reversed and rotated by `rotate`.
fn scrambled(len: usize, rotate: u8) -> Vec<u32> {
    let mut rows: Vec<u32> = (0..len as u32).rev().collect();
    rows.rotate_left(usize::from(rotate) % len.max(1));
    rows
}

/// Compares the table's enumeration and rank sort of the inserted names
/// (row → name, as a registry zone lends them) with a fresh sort of
/// them. `rotate` scrambles the rows before the rank sort.
fn check_order(table: &DomainTable, inserted: &[Name], rotate: Option<u8>) {
    let expected = fresh_sort(inserted.to_vec());
    let name = |row: u32| inserted[row as usize].clone();
    let Some(rotate) = rotate else {
        let ordered: Vec<Name> = (table.ordered(inserted))
            .map(|(row, _)| name(row))
            .collect();
        assert_eq!(ordered, expected, "ordered() diverged from a fresh sort");
        return;
    };

    // Every table row, in a scrambled order, sorts by rank into
    // canonical order.
    let ranks = table.ranks(inserted);
    let mut rows = scrambled(inserted.len(), rotate);
    rows.sort_by_key(|&row| ranks.of(row));
    let by_rank: Vec<Name> = rows.iter().map(|&row| name(row)).collect();
    assert_eq!(
        by_rank, expected,
        "table rank sort diverged from a fresh sort"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn canonical_ranks_match_a_fresh_sort(
        actions in proptest::collection::vec(order_action(), 1..64)
    ) {
        let mut table = DomainTable::new();
        // Every name with a table row, in row order.
        let mut inserted: Vec<Name> = Vec::new();
        let operator = Name::parse("op.net").unwrap();
        for action in actions {
            match action {
                OrderAction::Insert { label } => {
                    let name = order_name(label);
                    if !inserted.contains(&name) {
                        table.add_row(RegistrarId(1), operator.clone());
                        inserted.push(name);
                    }
                }
                OrderAction::Read => check_order(&table, &inserted, None),
                OrderAction::RankSort { rotate } => check_order(&table, &inserted, Some(rotate)),
            }
        }
        check_order(&table, &inserted, Some(0));
        check_order(&table, &inserted, None);
    }
}

// ---------------------------------------------------------------------------
// World-level: one row per domain. The world keeps no index of its own; it
// finds and enumerates its domains through the registries' rows.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RowAction {
    /// Buys `label` in a TLD, its label spelt in mixed case when `shout`.
    Purchase { label: u8, tld: u8, shout: bool },
    /// Delegates a name at a registry behind the world's back: a row
    /// with no domain in the world.
    Delegate { label: u8, tld: u8 },
    /// Moves a domain's renewal into the next few days.
    Redate { idx: u8, days: u8 },
    /// Advances the world a day: opt-ins, renewals, audits.
    Tick,
}

fn row_action() -> impl Strategy<Value = RowAction> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<bool>())
            .prop_map(|(label, tld, shout)| RowAction::Purchase { label, tld, shout }),
        (any::<u8>(), any::<u8>()).prop_map(|(label, tld)| RowAction::Delegate { label, tld }),
        (any::<u8>(), any::<u8>()).prop_map(|(idx, days)| RowAction::Redate { idx, days }),
        Just(RowAction::Tick),
    ]
}

/// `label` in lower case, or with every other letter upper-cased.
fn spelt(label: &str, shout: bool) -> String {
    label
        .chars()
        .enumerate()
        .map(|(i, c)| {
            if shout && i % 2 == 0 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

/// The four checks of one row per domain: the walk is a fresh canonical
/// sort of the purchased names, the count matches, every name is found
/// under any spelling, and the tick's cached indices match a sweep.
fn check_rows(world: &World, bought: &[Name]) {
    let walked: Vec<Name> = world.domains().map(|d| d.name.clone()).collect();
    assert_eq!(
        walked,
        fresh_sort(bought.to_vec()),
        "domains() is not canonical"
    );
    assert_eq!(world.domain_count(), bought.len());
    for name in bought {
        let shouted = Name::parse(&name.to_string().to_ascii_uppercase()).unwrap();
        for spelling in [name, &name.to_canonical(), &shouted] {
            let found = world.domain(spelling).map(|d| &d.name);
            assert_eq!(found, Some(name), "{spelling} not found");
        }
    }
    world.check_tick_indices().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 16,
        .. ProptestConfig::default()
    })]

    #[test]
    fn the_world_walks_its_registries_rows_in_canonical_order(
        actions in proptest::collection::vec(row_action(), 1..40)
    ) {
        let mut world = World::new(WorldConfig {
            key_pool: 2,
            ..WorldConfig::default()
        });
        let registrar = world.add_registrar(
            "RowOptIn",
            Name::parse("rowoptin.net").unwrap(),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::OptIn { adoption_rate: 0.5 },
                external_ds: ExternalDs::Web { validates: false },
                tlds: ALL_TLDS
                    .iter()
                    .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                    .collect(),
            },
        );
        world.change_policy(registrar, dsec::ecosystem::PolicyChange::SetOptInHazard(0.3));
        // One domain in every TLD first, in the paper's table order, so a
        // walk in that order (org before nl) cannot pass.
        let mut bought: Vec<Name> = ALL_TLDS
            .iter()
            .map(|&tld| {
                world
                    .purchase(registrar, "Seed", tld, Hosting::Registrar { plan: Plan::Free }, "o@x")
                    .expect("a fresh name")
            })
            .collect();
        for action in actions {
            match action {
                RowAction::Purchase { label, tld, shout } => {
                    let tld = ALL_TLDS[tld as usize % ALL_TLDS.len()];
                    let label = spelt(&format!("row{}", label % 32), shout);
                    let hosting = Hosting::Registrar { plan: Plan::Free };
                    if let Ok(name) = world.purchase(registrar, &label, tld, hosting, "o@x") {
                        bought.push(name);
                    }
                }
                RowAction::Delegate { label, tld } => {
                    let tld = ALL_TLDS[tld as usize % ALL_TLDS.len()];
                    let name = tld.zone().child(&format!("ghost{}", label % 8)).unwrap();
                    let ns = [Name::parse("ns1.ghost-host.net").unwrap()];
                    let _ = world.registry_mut(tld).add_delegation(registrar, &name, &ns);
                }
                RowAction::Redate { idx, days } => {
                    let name = bought[idx as usize % bought.len()].clone();
                    let on = world.today.plus_days(1 + u32::from(days % 3));
                    world.set_expiry(&name, on);
                }
                RowAction::Tick => world.tick(),
            }
            check_rows(&world, &bought);
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
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(label, registrar, tld)| {
            WorldAction::Purchase {
                label,
                registrar,
                tld,
            }
        }),
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
            WorldAction::Purchase {
                label,
                registrar,
                tld,
            } => {
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
