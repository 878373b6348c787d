//! Probe ↔ ecosystem consistency: for a grid of registrar policies, the
//! customer-perspective probe must rediscover exactly the configured
//! behavior. This is the reproduction's core soundness property — the
//! tables are *measured*, so measurement and configuration must agree.

use dsec::ecosystem::{
    ExternalDs, OperatorDnssec, Plan, RegistrarPolicy, Tld, TldPolicy, TldRole, World, WorldConfig,
    ALL_TLDS,
};
use dsec::probe::{probe_registrar, DsChannel, Finding};
use dsec::wire::Name;

fn world() -> World {
    World::new(WorldConfig {
        key_pool: 2,
        ..WorldConfig::default()
    })
}

fn uniform_policy(operator: OperatorDnssec, external: ExternalDs) -> RegistrarPolicy {
    RegistrarPolicy {
        operator_dnssec: operator,
        external_ds: external,
        tlds: ALL_TLDS
            .iter()
            .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
            .collect(),
    }
}

/// Every (operator policy × channel) combination probes back to the
/// expected findings.
#[test]
fn probe_rediscovers_the_policy_grid() {
    let operator_policies = [
        OperatorDnssec::Unsupported,
        OperatorDnssec::Default,
        OperatorDnssec::DefaultOnPlans(vec![Plan::Premium]),
        OperatorDnssec::OptIn { adoption_rate: 0.1 },
        OperatorDnssec::Paid {
            cents_per_year: 3500,
            adoption_rate: 0.001,
        },
    ];
    let channels = [
        ExternalDs::Unsupported,
        ExternalDs::Web { validates: true },
        ExternalDs::Web { validates: false },
        ExternalDs::Email {
            verifies_sender: true,
            accepts_foreign_sender: false,
            validates: false,
        },
        ExternalDs::Email {
            verifies_sender: false,
            accepts_foreign_sender: false,
            validates: true,
        },
        ExternalDs::Ticket,
        ExternalDs::FetchDnskey,
    ];

    let mut w = world();
    let mut cases = Vec::new();
    for (i, op) in operator_policies.iter().enumerate() {
        for (j, ch) in channels.iter().enumerate() {
            let name = format!("Grid{i}{j}");
            let ns = Name::parse(&format!("grid{i}{j}.net")).unwrap();
            let id = w.add_registrar(&name, ns, uniform_policy(op.clone(), ch.clone()));
            cases.push((id, op.clone(), ch.clone()));
        }
    }

    for (id, op, ch) in cases {
        let report = probe_registrar(&mut w, id);
        let ctx = format!("{op:?} × {ch:?}");

        // Operator-side findings.
        match &op {
            OperatorDnssec::Unsupported => {
                assert_eq!(report.operator_support, Finding::No, "{ctx}");
            }
            OperatorDnssec::Default => {
                assert_eq!(report.dnssec_default, Finding::Yes, "{ctx}");
                assert_eq!(report.hosted_fully_deployed, Finding::Yes, "{ctx}");
            }
            OperatorDnssec::DefaultOnPlans(_) => {
                assert_eq!(report.dnssec_default, Finding::Partial, "{ctx}");
            }
            OperatorDnssec::OptIn { .. } => {
                assert_eq!(report.dnssec_default, Finding::No, "{ctx}");
                assert_eq!(report.dnssec_optin, Finding::Yes, "{ctx}");
            }
            OperatorDnssec::Paid { cents_per_year, .. } => {
                assert_eq!(report.dnssec_paid_cents, Some(*cents_per_year), "{ctx}");
            }
        }

        // Channel-side findings.
        match &ch {
            ExternalDs::Unsupported => {
                assert_eq!(report.external_support, Finding::No, "{ctx}");
                assert_eq!(report.ds_channel, None, "{ctx}");
            }
            ExternalDs::Web { validates } => {
                assert_eq!(report.ds_channel, Some(DsChannel::Web), "{ctx}");
                let expected = if *validates {
                    Finding::Yes
                } else {
                    Finding::No
                };
                assert_eq!(report.validates_ds, expected, "{ctx}");
            }
            ExternalDs::Email {
                verifies_sender,
                validates,
                ..
            } => {
                assert_eq!(report.ds_channel, Some(DsChannel::Email), "{ctx}");
                let expected = if *verifies_sender {
                    Finding::Yes
                } else {
                    Finding::No
                };
                assert_eq!(report.verifies_email, expected, "{ctx}");
                let expected = if *validates {
                    Finding::Yes
                } else {
                    Finding::No
                };
                assert_eq!(report.validates_ds, expected, "{ctx}");
            }
            ExternalDs::Ticket => {
                assert_eq!(report.ds_channel, Some(DsChannel::Ticket), "{ctx}");
                assert_eq!(report.validates_ds, Finding::No, "{ctx}");
            }
            ExternalDs::FetchDnskey => {
                assert_eq!(report.ds_channel, Some(DsChannel::FetchDnskey), "{ctx}");
                assert_eq!(report.validates_ds, Finding::Yes, "{ctx}");
            }
            ExternalDs::Chat { .. } => unreachable!("not in this grid"),
        }

        // Cross-cutting invariant: a working external channel completes a
        // full deployment unless the registrar never publishes DS.
        if report.external_support == Finding::Yes {
            assert_eq!(report.external_fully_deployed, Finding::Yes, "{ctx}");
        }
    }
}

/// Per-TLD DS publication is rediscovered TLD by TLD.
#[test]
fn probe_rediscovers_per_tld_ds_publication() {
    let mut w = world();
    for home in [Tld::Se, Tld::Nl] {
        let mut tlds: std::collections::BTreeMap<Tld, TldPolicy> = ALL_TLDS
            .iter()
            .map(|&t| (t, TldPolicy::without_ds(TldRole::Registrar)))
            .collect();
        tlds.insert(home, TldPolicy::full(TldRole::Registrar));
        let name = format!("Home{home}");
        let id = w.add_registrar(
            &name,
            Name::parse(&format!("home{}.net", home.label())).unwrap(),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Default,
                external_ds: ExternalDs::Web { validates: false },
                tlds,
            },
        );
        let report = probe_registrar(&mut w, id);
        for tld in ALL_TLDS {
            assert_eq!(
                report.publishes_ds.get(&tld),
                Some(&(tld == home)),
                "{name} {tld}"
            );
        }
    }
}

/// Resellers behave like their partner at the registry, and the probe
/// cannot tell the difference from the outside — matching the paper's
/// observation that the reseller relationship is invisible to customers.
#[test]
fn reseller_probe_matches_direct_registrar_probe() {
    let mut w = world();
    let _partner = w.add_registrar(
        "Partner",
        Name::parse("partner.net").unwrap(),
        RegistrarPolicy::no_dnssec(&ALL_TLDS),
    );
    let direct = w.add_registrar(
        "Direct",
        Name::parse("direct-reg.net").unwrap(),
        uniform_policy(
            OperatorDnssec::Default,
            ExternalDs::Web { validates: false },
        ),
    );
    let reseller = w.add_registrar(
        "Resold",
        Name::parse("resold.net").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Default,
            external_ds: ExternalDs::Web { validates: false },
            tlds: ALL_TLDS
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::ResellerVia("Partner".into()))))
                .collect(),
        },
    );
    let direct_report = probe_registrar(&mut w, direct);
    let resold_report = probe_registrar(&mut w, reseller);
    assert_eq!(direct_report.dnssec_default, resold_report.dnssec_default);
    assert_eq!(
        direct_report.hosted_fully_deployed,
        resold_report.hosted_fully_deployed
    );
    assert_eq!(
        direct_report.external_support,
        resold_report.external_support
    );
}
