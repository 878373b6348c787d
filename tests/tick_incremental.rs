//! `World::tick` runs on incrementally maintained state — opt-in
//! worklists, the domains with a partner migration pending, an audit
//! memo — instead of sweeping the population every day. These tests pin
//! that state to the sweeps it replaced:
//!
//! * a proptest interleaves every customer action and policy milestone
//!   that touches the indexed fields with ticks and whole years (so
//!   renewal anniversaries land pending migrations), and after each step
//!   asks [`World::check_tick_indices`] to recompute everything by full
//!   sweep;
//! * golden digests recorded on the pre-worklist implementation pin the
//!   event log, the incentive bookkeeping and the campaign CSVs of three
//!   seeded tiny-population campaigns, byte for byte;
//! * the audit memo never skips the RFC 4035 time check, and stands aside
//!   completely while the fault plane is live;
//! * the scanner's warm snapshots, which patch a running aggregate from
//!   the registries' change journals, agree with a population sweep after
//!   every step of random and scripted sequences.

use std::collections::BTreeSet;

use proptest::prelude::*;

use dsec::authserver::FaultProfile;
use dsec::ecosystem::{
    DsTiming, ExternalDs, Hosting, OperatorDnssec, OperatorId, Plan, PolicyChange, RegistrarId,
    RegistrarPolicy, RolloverPlan, RolloverStyle, Tld, TldPolicy, TldRole, World, WorldConfig,
    ALL_TLDS,
};
use dsec::scanner::{scan_campaign_streamed, CampaignConfig, ScanCache};
use dsec::wire::Name;
use dsec::workloads::{build, PopulationConfig};

fn full_policy(operator_dnssec: OperatorDnssec) -> RegistrarPolicy {
    RegistrarPolicy {
        operator_dnssec,
        external_ds: ExternalDs::Web { validates: false },
        tlds: ALL_TLDS
            .iter()
            .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// (a) Cached tick state == full sweep, after every step of any action mix.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Step {
    Purchase {
        label: u8,
        tld: u8,
        hosting: u8,
    },
    EnableDnssec {
        idx: u8,
    },
    SwitchToOwner {
        idx: u8,
    },
    EnrollThirdParty {
        idx: u8,
        operator: u8,
    },
    ThirdPartyEnable {
        idx: u8,
    },
    SetHazard {
        registrar: u8,
        hazard: u8,
    },
    SetExpiry {
        idx: u8,
        in_days: u8,
    },
    MassSign {
        registrar: u8,
        in_days: u8,
        over_days: u8,
    },
    SwitchPartner {
        in_days: u8,
        back: bool,
    },
    PolicyMilestone {
        registrar: u8,
        in_days: u8,
        supported: bool,
    },
    Tick,
    /// 365 ticks: every domain passes a renewal anniversary.
    Year,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(label, tld, hosting)| Step::Purchase {
            label,
            tld,
            hosting
        }),
        any::<u8>().prop_map(|idx| Step::EnableDnssec { idx }),
        any::<u8>().prop_map(|idx| Step::SwitchToOwner { idx }),
        (any::<u8>(), any::<u8>())
            .prop_map(|(idx, operator)| Step::EnrollThirdParty { idx, operator }),
        any::<u8>().prop_map(|idx| Step::ThirdPartyEnable { idx }),
        (any::<u8>(), any::<u8>())
            .prop_map(|(registrar, hazard)| Step::SetHazard { registrar, hazard }),
        (any::<u8>(), any::<u8>()).prop_map(|(idx, in_days)| Step::SetExpiry { idx, in_days }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(registrar, in_days, over_days)| {
            Step::MassSign {
                registrar,
                in_days,
                over_days,
            }
        }),
        (any::<u8>(), any::<bool>())
            .prop_map(|(in_days, back)| Step::SwitchPartner { in_days, back }),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(registrar, in_days, supported)| {
            Step::PolicyMilestone {
                registrar,
                in_days,
                supported,
            }
        }),
        Just(Step::Tick),
        Just(Step::Tick),
        Just(Step::Tick),
        Just(Step::Year),
    ]
}

/// The tiny paper world plus two registrars and a third-party operator
/// whose opt-in hazards are high enough that a handful of ticks sign
/// domains through every worklist.
struct Playground {
    world: World,
    registrars: Vec<RegistrarId>,
    operators: Vec<OperatorId>,
    domains: Vec<Name>,
}

fn playground() -> Playground {
    let mut world = build(&PopulationConfig::tiny()).world;
    let opt_in = world.add_registrar(
        "TickOptIn",
        Name::parse("tickoptin.net").unwrap(),
        full_policy(OperatorDnssec::OptIn { adoption_rate: 0.0 }),
    );
    world.change_policy(opt_in, PolicyChange::SetOptInHazard(0.2));
    // A reseller whose partner switch migrates (and signs) at renewal.
    world.add_registrar(
        "TickPartner",
        Name::parse("tickpartner.net").unwrap(),
        full_policy(OperatorDnssec::Default),
    );
    let reseller = world.add_registrar(
        "TickReseller",
        Name::parse("tickreseller.net").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Default,
            external_ds: ExternalDs::Unsupported,
            tlds: ALL_TLDS
                .iter()
                .map(|&t| {
                    (
                        t,
                        TldPolicy::without_ds(TldRole::ResellerVia("TickOptIn".into())),
                    )
                })
                .collect(),
        },
    );
    world.auto_sign_on_purchase = false;
    let soon = world.today.plus_days(3);
    let launching = world.add_third_party(
        "TickCloud",
        Name::parse("tickcloud.net").unwrap(),
        Some(soon),
        0.3,
        0.6,
    );
    let never = world.add_third_party(
        "TickPod",
        Name::parse("tickpod.net").unwrap(),
        None,
        0.3,
        0.6,
    );
    // Registrations for the partner switches to migrate.
    for (i, tld) in [Tld::Com, Tld::Nl].into_iter().cycle().take(6).enumerate() {
        world
            .purchase(
                reseller,
                &format!("Resold{i}"),
                tld,
                Hosting::Registrar { plan: Plan::Free },
                "o@x",
            )
            .expect("a free label");
    }
    let domains = world.domains().map(|d| d.name.clone()).collect();
    Playground {
        world,
        registrars: vec![opt_in, reseller],
        operators: vec![launching, never],
        domains,
    }
}

/// Picks a domain, favouring the playground's own purchases (the tail
/// of the list).
fn pick(domains: &[Name], idx: u8) -> &Name {
    let back = idx as usize % domains.len().min(24);
    &domains[domains.len() - 1 - back]
}

impl Playground {
    fn apply(&mut self, step: &Step) {
        let world = &mut self.world;
        match *step {
            Step::Purchase {
                label,
                tld,
                hosting,
            } => {
                let hosting = match hosting % 4 {
                    0 => Hosting::Owner,
                    1 => Hosting::ThirdParty {
                        operator: self.operators[label as usize % 2],
                    },
                    _ => Hosting::Registrar { plan: Plan::Free },
                };
                let registrar = self.registrars[label as usize % self.registrars.len()];
                let tld = ALL_TLDS[tld as usize % ALL_TLDS.len()];
                if let Ok(domain) =
                    world.purchase(registrar, &format!("Tick{label}"), tld, hosting, "o@x")
                {
                    self.domains.push(domain);
                }
            }
            Step::EnableDnssec { idx } => {
                let _ = world.enable_dnssec(pick(&self.domains, idx));
            }
            Step::SwitchToOwner { idx } => {
                let _ = world.switch_to_owner_hosting(pick(&self.domains, idx));
            }
            Step::EnrollThirdParty { idx, operator } => {
                let operator = self.operators[operator as usize % 2];
                let _ = world.enroll_third_party(pick(&self.domains, idx), operator);
            }
            Step::ThirdPartyEnable { idx } => {
                let _ = world.third_party_enable_dnssec(pick(&self.domains, idx));
            }
            Step::SetHazard { registrar, hazard } => {
                let registrar = self.registrars[registrar as usize % self.registrars.len()];
                let hazard = f64::from(hazard % 4) * 0.1;
                world.change_policy(registrar, PolicyChange::SetOptInHazard(hazard));
            }
            Step::SetExpiry { idx, in_days } => {
                let on = world.today.plus_days(u32::from(in_days % 6));
                world.set_expiry(pick(&self.domains, idx), on);
            }
            Step::MassSign {
                registrar,
                in_days,
                over_days,
            } => {
                let registrar = self.registrars[registrar as usize % self.registrars.len()];
                world.add_milestone(
                    registrar,
                    world.today.plus_days(1 + u32::from(in_days % 3)),
                    PolicyChange::MassSignHosted {
                        tlds: ALL_TLDS.to_vec(),
                        over_days: 1 + u32::from(over_days % 3),
                    },
                );
            }
            Step::SwitchPartner { in_days, back } => {
                // Dated from today on (a milestone dated today applies on
                // the next tick), to the new partner or back to the old.
                let reseller = self.registrars[1];
                let partner = if back { "TickOptIn" } else { "TickPartner" };
                for tld in [Tld::Com, Tld::Nl] {
                    world.add_milestone(
                        reseller,
                        world.today.plus_days(u32::from(in_days % 4)),
                        PolicyChange::SwitchPartner {
                            tld,
                            new_partner: partner.into(),
                            migrate_at_renewal: true,
                        },
                    );
                }
            }
            Step::PolicyMilestone {
                registrar,
                in_days,
                supported,
            } => {
                let registrar = self.registrars[registrar as usize % self.registrars.len()];
                let change = if supported {
                    PolicyChange::SetOperatorDnssec(OperatorDnssec::OptIn { adoption_rate: 0.0 })
                } else {
                    PolicyChange::SetOperatorDnssec(OperatorDnssec::Unsupported)
                };
                world.add_milestone(
                    registrar,
                    world.today.plus_days(1 + u32::from(in_days % 3)),
                    change,
                );
            }
            Step::Tick => world.tick(),
            Step::Year => world.advance_to(world.today.plus_days(365)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn cached_tick_state_matches_a_full_sweep_after_every_step(
        steps in proptest::collection::vec(step(), 16..80)
    ) {
        let mut playground = playground();
        playground.world.check_tick_indices().expect("fresh world");
        for step in &steps {
            playground.apply(step);
            if let Err(diverged) = playground.world.check_tick_indices() {
                panic!("after {step:?}: {diverged}");
            }
        }
        // Drain whatever the steps scheduled, checking each day.
        for _ in 0..8 {
            playground.world.tick();
            playground.world.check_tick_indices().expect("draining ticks");
        }
    }
}

/// Each worklist entry carries its hazard, so a hazard change that keeps
/// every candidate on the list must still reach the cached entries —
/// a case the random sequences above rarely build: hosted candidates of
/// the changed registrar on a fresh list.
#[test]
fn a_hazard_change_that_keeps_every_candidate_reaches_the_cached_entries() {
    let mut playground = playground();
    let opt_in = playground.registrars[0];
    let world = &mut playground.world;
    let hosted = Hosting::Registrar { plan: Plan::Free };
    let bought: Vec<Name> = (0..8)
        .map(|i| {
            world
                .purchase(
                    opt_in,
                    &format!("Hazard{i}"),
                    Tld::Com,
                    hosted.clone(),
                    "o@x",
                )
                .expect("a free label")
        })
        .collect();
    world.tick();
    let unsigned = bought
        .iter()
        .filter(|d| world.domain(d).is_some_and(|d| d.keys.is_none()))
        .count();
    assert!(unsigned > 0, "every candidate signed on the first day");
    world.change_policy(opt_in, PolicyChange::SetOptInHazard(0.1));
    world.check_tick_indices().expect("after the hazard change");
    world.tick();
    world
        .check_tick_indices()
        .expect("after the next day's draws");
}

// ---------------------------------------------------------------------------
// (b) Golden identity with the pre-worklist `tick`.
// ---------------------------------------------------------------------------

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digests of one full-window streamed campaign over the tiny
/// population: (event log incl. counters, incentive bookkeeping, every
/// operator's `to_csv` + `to_csv_extended`). `boost` multiplies every
/// positive opt-in hazard so the adoption pass signs dozens of domains
/// instead of one or two.
fn campaign_digests(seed: u64, boost: f64) -> (u64, u64, u64) {
    let mut config = PopulationConfig::tiny();
    config.seed = seed;
    config.world.seed = seed;
    let mut world = build(&config).world;
    world.events.verbose = true;
    if boost > 1.0 {
        for id in 0..world.registrar_count() as u32 {
            let id = RegistrarId(id);
            let hazard = world.registrar(id).daily_optin_hazard;
            if hazard > 0.0 {
                let boosted = (hazard * boost).min(0.05);
                world.change_policy(id, PolicyChange::SetOptInHazard(boosted));
            }
        }
    }
    let path = std::env::temp_dir().join(format!(
        "dsec-tick-golden-{}-{seed}.snap",
        std::process::id()
    ));
    let campaign = CampaignConfig::new(config.world.end, 7);
    let mut cache = ScanCache::new();
    let store = scan_campaign_streamed(&mut world, &campaign, &mut cache, &path).unwrap();
    world
        .check_tick_indices()
        .expect("indices after a full campaign");

    let mut events = FNV_OFFSET;
    for entry in world.events.entries() {
        fnv(&mut events, format!("{entry:?}\n").as_bytes());
    }
    fnv(
        &mut events,
        format!("{:?}", world.events.counters()).as_bytes(),
    );

    let mut audits = FNV_OFFSET;
    for tld in ALL_TLDS {
        let registry = world.registry(tld);
        fnv(
            &mut audits,
            format!(
                "{tld:?} {:?} {:?}\n",
                registry.discounts_cents, registry.audit_failures
            )
            .as_bytes(),
        );
    }

    let operators: BTreeSet<String> = store
        .to_longitudinal()
        .unwrap()
        .snapshots()
        .iter()
        .flat_map(|s| s.cells.keys().map(|(op, _)| op.clone()))
        .collect();
    let mut csv = FNV_OFFSET;
    for op in &operators {
        fnv(&mut csv, store.to_csv(op).unwrap().as_bytes());
        fnv(&mut csv, store.to_csv_extended(op).unwrap().as_bytes());
    }
    let _ = std::fs::remove_file(&path);
    (events, audits, csv)
}

/// Recorded at commit c982d69 (the last full-sweep `tick`) by this very
/// function; any change to RNG draw order, event order, audit
/// bookkeeping or scan output moves at least one digest.
#[test]
fn seeded_campaigns_are_byte_identical_to_the_full_sweep_tick() {
    assert_eq!(
        campaign_digests(0x50F7, 1.0),
        (
            0x7868_fd67_bded_1dfb,
            0xb493_16b0_39c8_c6e0,
            0x0b5e_5647_9d3c_5965
        ),
        "population seed 0x50F7"
    );
    assert_eq!(
        campaign_digests(0xD5EC_2017, 1.0),
        (
            0xb08a_efe5_8a58_720c,
            0xdb94_2bea_d478_28a9,
            0x0313_adf1_3f0e_c49d
        ),
        "population seed 0xD5EC2017"
    );
    assert_eq!(
        campaign_digests(7, 400.0),
        (
            0x490d_b7a2_f27f_7891,
            0xab0b_8e9a_6c01_e5ed,
            0xde14_8f45_e2cf_de03
        ),
        "population seed 7, hazards x400"
    );
}

// ---------------------------------------------------------------------------
// (c) The audit memo: time check kept, fault plane untouched.
// ---------------------------------------------------------------------------

/// A world auditing daily with `signed` signed and two unsigned `.nl`
/// domains at one default-signing registrar.
fn audited_world(signed: usize) -> (World, RegistrarId, Vec<Name>) {
    let mut world = World::new(WorldConfig {
        key_pool: 2,
        audit_interval_days: 1,
        ..WorldConfig::default()
    });
    let registrar = world.add_registrar(
        "AuditReg",
        Name::parse("auditreg.nl").unwrap(),
        full_policy(OperatorDnssec::Default),
    );
    let mut domains = Vec::new();
    for i in 0..signed + 2 {
        world.auto_sign_on_purchase = i < signed;
        let plan = Hosting::Registrar { plan: Plan::Free };
        domains.push(
            world
                .purchase(registrar, &format!("audited{i}"), Tld::Nl, plan, "o@x")
                .unwrap(),
        );
    }
    (world, registrar, domains)
}

/// (passed, failed) audit counts the `.nl` registry holds for `registrar`.
fn audit_tally(world: &World, registrar: RegistrarId) -> (u64, u64) {
    let registry = world.registry(Tld::Nl);
    let per_pass = u64::from(Tld::Nl.incentive().unwrap().discount_cents).max(1) / 365 + 1;
    (
        registry
            .discounts_cents
            .get(&registrar)
            .copied()
            .unwrap_or(0)
            / per_pass,
        registry
            .audit_failures
            .get(&registrar)
            .copied()
            .unwrap_or(0),
    )
}

#[test]
fn memoized_verdict_expires_with_the_signatures_it_was_computed_from() {
    let (mut world, registrar, domains) = audited_world(1);
    let domain = &domains[0];
    let start = world.today.plus_days(2);
    // DS never moves, so nothing bumps the generation after the stall.
    let plan = RolloverPlan::correct(RolloverStyle::DoubleSignatureKsk, start)
        .with_ds_timing(DsTiming::Never)
        .with_signature_validity_days(5);
    world.schedule_rollover(domain, plan).unwrap();
    world.advance_to(start);
    world.stall_rollover(domain).unwrap();
    let signed_until = world
        .rollover_state(domain)
        .and_then(|s| s.signed_until())
        .expect("transitional set is served with bounded validity");
    let generation = world.domain_generation(domain);

    let mut memo_hits = 0;
    let mut last_verdict = None;
    for _ in 0..9 {
        let (tally, queries) = (audit_tally(&world, registrar), world.network.query_count());
        world.tick();
        // A reused verdict costs no query; a changed one can only come
        // from a fresh observation.
        let queried = world.network.query_count() > queries;
        world
            .check_tick_indices()
            .expect("memo agrees with a fresh audit");
        let now = world.today.epoch_seconds();
        let (passed, failed) = audit_tally(&world, registrar);
        let verdict = (passed - tally.0, failed - tally.1);
        let expected = if now <= signed_until { (1, 0) } else { (0, 1) };
        assert_eq!(
            verdict, expected,
            "audit on {} (signatures lapse at {signed_until}, now {now})",
            world.today
        );
        if !queried {
            memo_hits += 1;
        }
        if last_verdict.is_some_and(|last| last != verdict) {
            assert!(queried, "the verdict flipped without re-observing");
        }
        last_verdict = Some(verdict);
    }
    assert_eq!(last_verdict, Some((0, 1)), "the window covers the lapse");
    assert!(
        memo_hits >= 4,
        "unchanged days reuse the verdict ({memo_hits} hits)"
    );
    assert_eq!(
        world.domain_generation(domain),
        generation,
        "nothing but the clock moved between the last pass and the first failure"
    );
    assert_eq!(world.events.count("signature_expired"), 1);
}

/// UDP queries each of three audit days issues with the fault plane live
/// (`FaultProfile::mixed(0.3)`, seed 7) — recorded at commit c982d69,
/// before the memo existed.
const FAULTED_AUDIT_QUERIES: [u64; 3] = [9, 7, 10];

#[test]
fn fault_plane_runs_bypass_the_memo() {
    let (mut world, _, _) = audited_world(6);
    let audit_day_queries = |world: &mut World| {
        let before = world.network.query_count();
        world.tick();
        world.network.query_count() - before
    };

    // Fault-free: the first audit observes all six signed domains, the
    // following ones none.
    assert_eq!(audit_day_queries(&mut world), 6);
    assert_eq!(audit_day_queries(&mut world), 0);

    world
        .fault_plane()
        .set_global_profile(FaultProfile::mixed(0.3));
    world.fault_plane().enable(7);
    let faulted: Vec<u64> = (0..3).map(|_| audit_day_queries(&mut world)).collect();
    assert_eq!(
        faulted, FAULTED_AUDIT_QUERIES,
        "every audit really queries under faults"
    );

    // Back to fault-free: the verdicts memoized before the faults are
    // still current (nothing changed), so again nothing is queried.
    world.fault_plane().disable();
    assert_eq!(audit_day_queries(&mut world), 0);
}

// ---------------------------------------------------------------------------
// (d) Warm snapshots read the change journal: delta state == sweep.
// ---------------------------------------------------------------------------
//
// The scanner's counterpart of (a). `ScanCache` keeps a running aggregate
// and patches it from the registries' change journals; after every step a
// cached snapshot must equal a fresh uncached scan and the population
// sweep it replaces, and `ScanCache::check_against_sweep` must find the
// delta state exact.

use dsec::scanner::{ScanOptions, Snapshot};
use dsec::wire::DsRdata;

#[derive(Debug, Clone)]
enum ScanStep {
    /// Any step of (a): purchases, signings, moves to owner hosting
    /// (an NS edit into a one-domain operator cell), milestones, ticks.
    World(Step),
    /// Delegates a name the world never sold, straight at the registry —
    /// to an operator of its own (`lonely`) or to a shared one.
    Delegate { label: u8, lonely: bool },
    /// Moves such a delegation between its own operator and the shared
    /// one: moving the only domain out empties the operator's cell.
    MoveNs { label: u8, lonely: bool },
    /// Installs a DS (nothing checks it) or withdraws the DS set.
    SetDs { idx: u8, install: bool },
    /// Stalls the bounded-validity rollover, so its signatures lapse with
    /// no generation bump a few ticks later.
    Stall,
    /// Fault plane on (a drop/SERVFAIL mix and a dead fleet) or off.
    Faults { on: bool },
    /// All five TLDs, or two of them.
    Scope { narrow: bool },
    /// The next snapshot re-scans everything.
    ForceFull,
    /// Bumps one delegation until its registry's journal forgets.
    Churn,
    /// One snapshot of a second world through the same cache.
    OtherWorld,
}

fn scan_step() -> impl Strategy<Value = ScanStep> {
    prop_oneof![
        step().prop_map(ScanStep::World),
        step().prop_map(ScanStep::World),
        step().prop_map(ScanStep::World),
        Just(ScanStep::World(Step::Tick)),
        (any::<u8>(), any::<bool>())
            .prop_map(|(label, lonely)| ScanStep::Delegate { label, lonely }),
        (any::<u8>(), any::<bool>())
            .prop_map(|(label, lonely)| ScanStep::Delegate { label, lonely }),
        (any::<u8>(), any::<bool>()).prop_map(|(label, lonely)| ScanStep::MoveNs { label, lonely }),
        (any::<u8>(), any::<bool>()).prop_map(|(idx, install)| ScanStep::SetDs { idx, install }),
        Just(ScanStep::Stall),
        any::<bool>().prop_map(|on| ScanStep::Faults { on }),
        any::<bool>().prop_map(|narrow| ScanStep::Scope { narrow }),
        Just(ScanStep::ForceFull),
        Just(ScanStep::Churn),
        Just(ScanStep::OtherWorld),
    ]
}

const NARROW_SCOPE: [Tld; 2] = [Tld::Com, Tld::Nl];

/// The playground of (a), a signed `.nl` domain whose rollover can be
/// stalled into a signature lapse, and two scan caches taking turns.
struct ScanGround {
    playground: Playground,
    lapsing: Name,
    /// Sponsor of the registry-level delegations.
    sponsor: RegistrarId,
    /// That registrar's hosting fleet: where its customers and the
    /// shared registry-level delegations live, and the outage victim.
    fleet: Vec<Name>,
    caches: [ScanCache; 2],
    turn: usize,
    narrow: bool,
    force_full: bool,
    other: Option<World>,
}

fn ghost(label: u8) -> Name {
    Name::parse(&format!("ghost{}.com", label % 6)).unwrap()
}

impl ScanGround {
    fn new() -> Self {
        let mut playground = playground();
        let world = &mut playground.world;
        let signer = world.add_registrar(
            "TickLapse",
            Name::parse("ticklapse.nl").unwrap(),
            full_policy(OperatorDnssec::Default),
        );
        world.auto_sign_on_purchase = true;
        let lapsing = world
            .purchase(
                signer,
                "lapsing",
                Tld::Nl,
                Hosting::Registrar { plan: Plan::Free },
                "o@x",
            )
            .unwrap();
        world.auto_sign_on_purchase = false;
        let plan =
            RolloverPlan::correct(RolloverStyle::DoubleSignatureKsk, world.today.plus_days(2))
                .with_ds_timing(DsTiming::Never)
                .with_signature_validity_days(3);
        world.schedule_rollover(&lapsing, plan).unwrap();
        let sponsor = playground.registrars[0];
        let fleet = world
            .operator(world.registrar(sponsor).operator)
            .ns_hosts
            .clone();
        playground.domains.push(lapsing.clone());
        ScanGround {
            sponsor,
            playground,
            lapsing,
            fleet,
            caches: [ScanCache::new(), ScanCache::new()],
            turn: 0,
            narrow: false,
            force_full: false,
            other: None,
        }
    }

    fn scope(&self) -> &'static [Tld] {
        if self.narrow {
            &NARROW_SCOPE
        } else {
            &ALL_TLDS
        }
    }

    fn apply(&mut self, step: &ScanStep) {
        // Nameserver of a registry-level delegation: an operator of its
        // own, or the shared fleet.
        let shared = self.fleet[0].clone();
        let hosts = |label: u8, lonely: bool| {
            if lonely {
                [Name::parse(&format!("ns1.lonely{}.net", label % 6)).unwrap()]
            } else {
                [shared.clone()]
            }
        };
        let world = &mut self.playground.world;
        match *step {
            ScanStep::World(ref step) => self.playground.apply(step),
            ScanStep::Delegate { label, lonely } => {
                let _ = world.registry_mut(Tld::Com).add_delegation(
                    self.sponsor,
                    &ghost(label),
                    &hosts(label, lonely),
                );
            }
            ScanStep::MoveNs { label, lonely } => {
                let _ = world.registry_mut(Tld::Com).set_ns(
                    self.sponsor,
                    &ghost(label),
                    &hosts(label, lonely),
                );
            }
            ScanStep::SetDs { idx, install } => {
                let domain = pick(&self.playground.domains, idx).clone();
                let tld = Tld::of_domain(&domain).unwrap();
                let Some(sponsor) = world.registry(tld).sponsor_of(&domain) else {
                    return;
                };
                let ds = DsRdata {
                    key_tag: u16::from(idx),
                    algorithm: 8,
                    digest_type: 2,
                    digest: vec![idx; 32],
                };
                let set = if install { vec![ds] } else { Vec::new() };
                world
                    .registry_mut(tld)
                    .set_ds(sponsor, &domain, &set)
                    .unwrap();
            }
            ScanStep::Stall => {
                let _ = world.stall_rollover(&self.lapsing);
            }
            ScanStep::Faults { on: true } => {
                world.fault_plane().enable(0x5CA7);
                world
                    .fault_plane()
                    .set_global_profile(FaultProfile::mixed(0.2));
                for ns in &self.fleet {
                    world.fault_plane().set_down(ns, true);
                }
            }
            ScanStep::Faults { on: false } => world.fault_plane().disable(),
            ScanStep::Scope { narrow } => self.narrow = narrow,
            ScanStep::ForceFull => self.force_full = true,
            ScanStep::Churn => {
                // A delegation of its own, so the step works on any day.
                let name = Name::parse("churn.com").unwrap();
                let registry = world.registry_mut(Tld::Com);
                let _ = registry.add_delegation(self.sponsor, &name, &hosts(0, false));
                let before = registry.journal_cursor();
                let mut bumps = 0;
                while registry.changes_since(before).is_some() {
                    registry
                        .set_ns(self.sponsor, &name, &hosts(0, bumps % 2 == 0))
                        .unwrap();
                    bumps += 1;
                    assert!(bumps < 100_000, "the journal bounds itself");
                }
            }
            ScanStep::OtherWorld => {
                let other = self
                    .other
                    .get_or_insert_with(|| build(&PopulationConfig::tiny()).world);
                let options = ScanOptions::default();
                let cache = &mut self.caches[self.turn];
                let cached = Snapshot::take_cached(other, &ALL_TLDS, &options, cache);
                let fresh = Snapshot::take_with_options(other, &ALL_TLDS, &options);
                assert_eq!(
                    cached.cells, fresh.cells,
                    "the carried cache on another world"
                );
                cache
                    .check_against_sweep(other)
                    .expect("delta state on another world");
            }
        }
    }

    /// One snapshot through the cache whose turn it is, checked three
    /// ways. Returns it with the number of queries it took.
    fn check(&mut self, context: &dyn std::fmt::Debug) -> (Snapshot, u64) {
        let world = &self.playground.world;
        let scope = self.scope();
        let options = ScanOptions {
            force_full: std::mem::take(&mut self.force_full),
            ..ScanOptions::default()
        };
        let cache = &mut self.caches[self.turn];
        self.turn ^= 1;
        // The population sweep from the same starting point: a reordered
        // scope is a different scope, and a different scope sweeps.
        let mut sweeping = cache.clone();
        let reordered: Vec<Tld> = scope.iter().rev().copied().collect();

        world.begin_scan_epoch();
        let before = world.network.query_count();
        let cached = Snapshot::take_cached(world, scope, &options, cache);
        let queries = world.network.query_count() - before;
        if let Err(diverged) = cache.check_against_sweep(world) {
            panic!("after {context:?}: {diverged}");
        }
        assert!(
            cached.cells.values().all(|cell| cell.domains > 0),
            "after {context:?}: an emptied cell was emitted"
        );

        let faulted = world.fault_plane().is_enabled();
        world.begin_scan_epoch();
        let swept = Snapshot::take_cached(world, &reordered, &options, &mut sweeping);
        assert_eq!(
            cached.cells, swept.cells,
            "after {context:?}: delta vs sweep"
        );
        let (delta, sweep) = (cache.stats(), sweeping.stats());
        assert_eq!(delta.entries, sweep.entries, "after {context:?}: entries");
        assert_eq!(
            delta.hits + delta.misses,
            sweep.hits + sweep.misses,
            "after {context:?}: lookups"
        );
        // The sweep had to miss exactly where the delta missed.
        assert_eq!(delta, sweep, "after {context:?}: counters");
        if !faulted {
            let fresh = Snapshot::take_with_options(world, scope, &options);
            assert_eq!(
                cached.cells, fresh.cells,
                "after {context:?}: delta vs fresh"
            );
        }
        (cached, queries)
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn delta_snapshots_match_a_sweep_after_every_step(
        steps in proptest::collection::vec(scan_step(), 12..48)
    ) {
        let mut ground = ScanGround::new();
        ground.check(&"the fresh world");
        for step in &steps {
            ground.apply(step);
            ground.check(step);
        }
        // Drain what the steps scheduled (the rollover, the lapse).
        for _ in 0..6 {
            ground.apply(&ScanStep::World(Step::Tick));
            ground.check(&"draining ticks");
        }
    }
}

/// The transitions and fallbacks a random sequence may or may not reach,
/// each reached on purpose.
#[test]
fn delta_snapshots_survive_every_transition_and_fallback() {
    use ScanStep::*;
    let mut ground = ScanGround::new();
    ground.check(&"cold, first cache");
    ground.check(&"cold, second cache");
    let (_, queries) = ground.check(&"nothing changed");
    assert_eq!(queries, 0, "an unchanged world is not queried");

    let script = [
        // Purchase, signing, DS upload and removal.
        World(Step::Purchase {
            label: 1,
            tld: 0,
            hosting: 2,
        }),
        World(Step::Purchase {
            label: 2,
            tld: 3,
            hosting: 0,
        }),
        World(Step::EnableDnssec { idx: 1 }),
        SetDs {
            idx: 1,
            install: true,
        },
        SetDs {
            idx: 1,
            install: false,
        },
        // New delegations between two snapshots of one cache (the caches
        // alternate, so each sees every other step), and one refused.
        Delegate {
            label: 0,
            lonely: true,
        },
        Delegate {
            label: 1,
            lonely: false,
        },
        Delegate {
            label: 0,
            lonely: false,
        },
        // An NS move that empties the lonely operator's cell, and back.
        MoveNs {
            label: 0,
            lonely: false,
        },
        MoveNs {
            label: 0,
            lonely: true,
        },
        World(Step::SwitchToOwner { idx: 1 }),
        // Fault plane on, and two delegations that never answer —
        // contributions no entry can hold — then a change and two NS moves
        // under it (one into the dead fleet, one out of it), then off.
        Faults { on: true },
        Delegate {
            label: 3,
            lonely: false,
        },
        Delegate {
            label: 4,
            lonely: false,
        },
        World(Step::Tick),
        SetDs {
            idx: 3,
            install: true,
        },
        MoveNs {
            label: 0,
            lonely: false,
        },
        MoveNs {
            label: 4,
            lonely: true,
        },
        World(Step::Tick),
        Faults { on: false },
        World(Step::Tick),
        // The fallbacks: scope change, force_full, journal discarded,
        // another world and back.
        Scope { narrow: true },
        World(Step::Purchase {
            label: 3,
            tld: 0,
            hosting: 2,
        }),
        Scope { narrow: false },
        ForceFull,
        Churn,
        Delegate {
            label: 2,
            lonely: true,
        },
        OtherWorld,
        World(Step::Tick),
        OtherWorld,
    ];
    let mut unreachable_days = 0;
    for step in &script {
        ground.apply(step);
        let (snapshot, _) = ground.check(step);
        let unreachable: u64 = snapshot.cells.values().map(|cell| cell.unreachable).sum();
        let faulted = ground.playground.world.fault_plane().is_enabled();
        assert!(faulted || unreachable == 0, "after {step:?}: recovered");
        unreachable_days += u32::from(unreachable > 0);
    }
    assert!(unreachable_days >= 7, "the dead fleet stayed unobserved");

    // The stalled-rollover lapse: nothing but the clock moves, and the
    // verdict flips on the day the signatures run out.
    let lapsing = ground.lapsing.clone();
    let world = &mut ground.playground.world;
    world.advance_to(world.today.plus_days(2));
    world.stall_rollover(&lapsing).unwrap();
    let signed_until = world
        .rollover_state(&lapsing)
        .and_then(|s| s.signed_until())
        .expect("transitional set is served with bounded validity");
    let generation = world.domain_generation(&lapsing);
    let mut verdicts = Vec::new();
    for _ in 0..6 {
        ground.apply(&World(Step::Tick));
        ground.check(&"lapse window");
        ground.check(&"lapse window, other cache");
        let world = &ground.playground.world;
        let lapsed = world.today.epoch_seconds() > signed_until;
        let misconfigured = Snapshot::take_filtered(world, &[Tld::Nl])
            .operator_totals("ticklapse.nl.", &[Tld::Nl])
            .misconfigured;
        assert_eq!(misconfigured, u64::from(lapsed), "on {}", world.today);
        verdicts.push(lapsed);
    }
    assert!(verdicts.contains(&false) && verdicts.contains(&true));
    assert_eq!(
        ground.playground.world.domain_generation(&lapsing),
        generation,
        "nothing but the clock moved"
    );
}
