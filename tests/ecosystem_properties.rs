//! Property tests over the ecosystem: arbitrary customer action sequences
//! must preserve the world's structural invariants, the deployment
//! classification must remain internally consistent at every step, and
//! the event log must record a delegation change only when the registry
//! really holds it, and the registry's operator column must always name
//! the operator of the NS set it serves.

use proptest::prelude::*;

use dsec::dnssec::{classify, DeploymentStatus};
use dsec::ecosystem::{
    operator_of, ActionError, DsSubmission, Event, ExternalDs, Hosting, OperatorDnssec, OperatorId,
    Plan, RegistrarPolicy, SimDate, TldPolicy, TldRole, UploadOutcome, World, WorldConfig,
    ALL_TLDS,
};
use dsec::wire::{DsRdata, Name};

/// One customer-visible action.
#[derive(Debug, Clone)]
enum Action {
    Purchase {
        label_idx: u8,
        registrar: u8,
        tld_idx: u8,
    },
    EnableDnssec {
        domain_idx: u8,
    },
    SwitchToOwner {
        domain_idx: u8,
    },
    OwnerSign {
        domain_idx: u8,
    },
    UploadRealDs {
        domain_idx: u8,
    },
    UploadGarbageDs {
        domain_idx: u8,
    },
    /// A DS by email; `forged` mails it from the attacker's mailbox
    /// under the registrant's From:.
    MailDs {
        domain_idx: u8,
        real: bool,
        forged: bool,
    },
    /// An NS change by email, genuine or forged like [`Action::MailDs`].
    MailNs {
        domain_idx: u8,
        forged: bool,
    },
    EnrollThirdParty {
        domain_idx: u8,
    },
    ThirdPartyEnable {
        domain_idx: u8,
    },
    Tick,
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(label_idx, registrar, tld_idx)| {
            Action::Purchase {
                label_idx,
                registrar,
                tld_idx,
            }
        }),
        any::<u8>().prop_map(|domain_idx| Action::EnableDnssec { domain_idx }),
        any::<u8>().prop_map(|domain_idx| Action::SwitchToOwner { domain_idx }),
        any::<u8>().prop_map(|domain_idx| Action::OwnerSign { domain_idx }),
        any::<u8>().prop_map(|domain_idx| Action::UploadRealDs { domain_idx }),
        any::<u8>().prop_map(|domain_idx| Action::UploadGarbageDs { domain_idx }),
        (any::<u8>(), any::<bool>(), any::<bool>()).prop_map(|(domain_idx, real, forged)| {
            Action::MailDs {
                domain_idx,
                real,
                forged,
            }
        }),
        (any::<u8>(), any::<bool>())
            .prop_map(|(domain_idx, forged)| Action::MailNs { domain_idx, forged }),
        any::<u8>().prop_map(|domain_idx| Action::EnrollThirdParty { domain_idx }),
        any::<u8>().prop_map(|domain_idx| Action::ThirdPartyEnable { domain_idx }),
        Just(Action::Tick),
    ]
}

const REGISTRANT: &str = "o@x";
const ATTACKER: &str = "evil@attacker.net";

fn mail(forged: bool) -> DsSubmission {
    DsSubmission::Email {
        claimed_from: REGISTRANT.into(),
        actual_from: if forged { ATTACKER } else { REGISTRANT }.into(),
    }
}

fn garbage_ds() -> DsRdata {
    DsRdata {
        key_tag: 7,
        algorithm: 8,
        digest_type: 2,
        digest: vec![7; 32],
    }
}

fn build_world() -> (World, Vec<dsec::ecosystem::RegistrarId>, OperatorId) {
    let mut world = World::new(WorldConfig {
        key_pool: 2,
        ..WorldConfig::default()
    });
    let all_tlds = || {
        ALL_TLDS
            .iter()
            .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
            .collect()
    };
    let full = world.add_registrar(
        "PropFull",
        Name::parse("propfull.net").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Default,
            external_ds: ExternalDs::Web { validates: true },
            tlds: all_tlds(),
        },
    );
    let sloppy = world.add_registrar(
        "PropSloppy",
        Name::parse("propsloppy.net").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::OptIn { adoption_rate: 0.1 },
            external_ds: ExternalDs::Web { validates: false },
            tlds: all_tlds(),
        },
    );
    let none = world.add_registrar(
        "PropNone",
        Name::parse("propnone.net").unwrap(),
        RegistrarPolicy::no_dnssec(&ALL_TLDS),
    );
    // The three email channels: no sender check at all, a From:-header
    // check with DNSKEY validation, and a verified sender.
    let email = |verifies_sender, validates| RegistrarPolicy {
        operator_dnssec: OperatorDnssec::Unsupported,
        external_ds: ExternalDs::Email {
            verifies_sender,
            accepts_foreign_sender: false,
            validates,
        },
        tlds: all_tlds(),
    };
    let lax = world.add_registrar(
        "PropLaxMail",
        Name::parse("proplaxmail.net").unwrap(),
        email(false, false),
    );
    let checked = world.add_registrar(
        "PropCheckedMail",
        Name::parse("propcheckedmail.net").unwrap(),
        email(false, true),
    );
    let verified = world.add_registrar(
        "PropVerifiedMail",
        Name::parse("propverifiedmail.net").unwrap(),
        email(true, false),
    );
    let third_party = world.add_third_party(
        "PropCloud",
        Name::parse("propcloud.sim").unwrap(),
        Some(SimDate::from_ymd(2015, 1, 1)),
        0.2,
        0.5,
    );
    let registrars = vec![full, sloppy, none, lax, checked, verified];
    (world, registrars, third_party)
}

fn check_invariants(world: &World, domains: &[Name]) {
    let now = world.today.epoch_seconds();
    for domain in domains {
        let d = world.domain(domain).expect("purchased domains persist");
        let tld = d.tld;
        // Every domain stays delegated with a registered sponsor.
        let registry = world.registry(tld);
        assert!(!registry.ns_of(domain).is_empty(), "{domain} delegated");
        assert!(registry.sponsor_of(domain).is_some(), "{domain} sponsored");
        // Classification never lands in an impossible state.
        let status = classify(domain, &world.observation_of(domain), now);
        match status {
            DeploymentStatus::FullyDeployed => {
                assert!(d.is_signed(), "{domain}: full implies keys held");
                assert!(!registry.ds_of(domain).is_empty());
            }
            DeploymentStatus::PartiallyDeployed => {
                assert!(
                    registry.ds_of(domain).is_empty(),
                    "{domain}: partial means no DS"
                );
            }
            DeploymentStatus::NotDeployed => {}
            DeploymentStatus::Misconfigured(_) => {
                // Only reachable here via a garbage DS upload, which needs
                // a DS in the registry.
                assert!(!registry.ds_of(domain).is_empty());
            }
            DeploymentStatus::InsecureUnsupported => {
                panic!("{domain}: no unsupported algorithms in this world")
            }
        }
    }
}

/// The operator column oracle: every delegation's stored operator, by
/// row and by name, is the key of the NS set its zone serves.
fn check_operator_column(world: &World) {
    for tld in ALL_TLDS {
        let registry = world.registry(tld);
        for (row, _) in registry.delegations_columnar() {
            let (domain, _) = registry.delegation_at(row);
            let domain = &domain;
            let expected = operator_of(&registry.ns_of(domain));
            assert!(expected.is_some(), "{domain}: a delegation has NS");
            let by_row = Some(&registry.operators()[registry.operator_at(row) as usize]);
            assert_eq!(by_row, expected.as_ref(), "{domain}: operator column");
            assert_eq!(registry.operator_of(domain), by_row, "{domain}: by name");
        }
    }
}

/// What one step wrote, for checking the events it logged against the
/// registry: the DS set an upload submitted or the NS set a change did.
#[derive(Default)]
struct Written {
    ds: Option<DsRdata>,
    ns: Option<Vec<Name>>,
}

/// Checks the events `step` added to the log. A step that failed or was
/// turned away (`accepted == false`) adds no event saying a delegation
/// changed; every such event a step did add names a domain whose
/// registry DS or NS set now holds what was written. A DS the step did
/// not submit itself is the one the domain's own keys chain from.
fn check_event_delta(
    world: &World,
    before: usize,
    accepted: bool,
    written: &Written,
    step: &Action,
) {
    for (_, event) in &world.events.entries()[before..] {
        let (domain, is_ns) = match event {
            Event::DsPublished { domain } | Event::ForgedEmailAccepted { domain, .. } => {
                (domain, false)
            }
            Event::DsOnWrongDomain { victim, .. } => (victim, false),
            Event::NsChanged { domain } | Event::ForgedNsAccepted { domain, .. } => (domain, true),
            _ => continue,
        };
        assert!(accepted, "{step:?} was turned away yet logged {event:?}");
        let registry = world.registry(world.domain(domain).expect("logged domains exist").tld);
        if is_ns {
            let ns = written.ns.clone().expect("only an NS change logs one");
            assert_eq!(registry.ns_of(domain), ns, "{step:?} logged {event:?}");
        } else {
            let ds = written.ds.clone().unwrap_or_else(|| {
                let keys = world.domain(domain).and_then(|d| d.keys.clone());
                keys.expect("a DS nobody submitted comes from the domain's keys")
                    .ds(dsec::crypto::DigestType::Sha256)
            });
            assert_eq!(
                registry.ds_of(domain),
                vec![ds],
                "{step:?} logged {event:?}"
            );
        }
    }
}

/// Whether the registrar took a submission.
fn took(result: &Result<UploadOutcome, ActionError>) -> bool {
    matches!(
        result,
        Ok(UploadOutcome::Accepted | UploadOutcome::AcceptedOnWrongDomain(_))
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn arbitrary_action_sequences_preserve_invariants(
        actions in proptest::collection::vec(action(), 1..32)
    ) {
        let (mut world, registrars, third_party) = build_world();
        let mut domains: Vec<Name> = Vec::new();
        for action in actions {
            let before = world.events.entries().len();
            let mut written = Written::default();
            let mut ok = true;
            match action.clone() {
                Action::Purchase { label_idx, registrar, tld_idx } => {
                    let tld = ALL_TLDS[tld_idx as usize % ALL_TLDS.len()];
                    let id = registrars[registrar as usize % registrars.len()];
                    let result = world.purchase(
                        id,
                        &format!("prop{label_idx}"),
                        tld,
                        Hosting::Registrar { plan: Plan::Free },
                        REGISTRANT,
                    );
                    ok = result.is_ok();
                    if let Ok(domain) = result {
                        domains.push(domain);
                    }
                }
                Action::EnableDnssec { domain_idx } => {
                    if let Some(domain) = pick(&domains, domain_idx) {
                        ok = world.enable_dnssec(&domain).is_ok();
                    }
                }
                Action::SwitchToOwner { domain_idx } => {
                    if let Some(domain) = pick(&domains, domain_idx) {
                        ok = world.switch_to_owner_hosting(&domain).is_ok();
                    }
                }
                Action::OwnerSign { domain_idx } => {
                    if let Some(domain) = pick(&domains, domain_idx) {
                        ok = world.owner_sign_zone(&domain).is_ok();
                    }
                }
                Action::UploadRealDs { domain_idx } => {
                    if let Some(domain) = pick(&domains, domain_idx) {
                        if let Some(keys) = world.domain(&domain).and_then(|d| d.keys.clone()) {
                            let ds = keys.ds(dsec::crypto::DigestType::Sha256);
                            written.ds = Some(ds.clone());
                            let result = world.upload_ds(&domain, ds, DsSubmission::Web);
                            ok = took(&result);
                        }
                    }
                }
                Action::UploadGarbageDs { domain_idx } => {
                    if let Some(domain) = pick(&domains, domain_idx) {
                        written.ds = Some(garbage_ds());
                        let result = world.upload_ds(&domain, garbage_ds(), DsSubmission::Web);
                        ok = took(&result);
                    }
                }
                Action::MailDs { domain_idx, real, forged } => {
                    if let Some(domain) = pick(&domains, domain_idx) {
                        let keys = world.domain(&domain).and_then(|d| d.keys.clone());
                        let ds = match keys {
                            Some(keys) if real => keys.ds(dsec::crypto::DigestType::Sha256),
                            _ => garbage_ds(),
                        };
                        written.ds = Some(ds.clone());
                        let result = world.upload_ds(&domain, ds, mail(forged));
                        ok = took(&result);
                    }
                }
                Action::MailNs { domain_idx, forged } => {
                    if let Some(domain) = pick(&domains, domain_idx) {
                        let host = format!("ns{domain_idx}.elsewhere.net");
                        let ns = vec![Name::parse(&host).unwrap()];
                        written.ns = Some(ns.clone());
                        let result = world.submit_ns_change(&domain, &ns, mail(forged));
                        ok = took(&result);
                    }
                }
                Action::EnrollThirdParty { domain_idx } => {
                    if let Some(domain) = pick(&domains, domain_idx) {
                        ok = world.enroll_third_party(&domain, third_party).is_ok();
                    }
                }
                Action::ThirdPartyEnable { domain_idx } => {
                    if let Some(domain) = pick(&domains, domain_idx) {
                        ok = world.third_party_enable_dnssec(&domain).is_ok();
                    }
                }
                Action::Tick => world.tick(),
            }
            check_event_delta(&world, before, ok, &written, &action);
            check_invariants(&world, &domains);
            check_operator_column(&world);
        }
    }
}

fn pick(domains: &[Name], idx: u8) -> Option<Name> {
    if domains.is_empty() {
        None
    } else {
        Some(domains[idx as usize % domains.len()].clone())
    }
}
