//! # dsec-probe — the customer-perspective registrar probe
//!
//! Implements the paper's §5.1 methodology: for each registrar, buy
//! domains, try to deploy DNSSEC in every hosting arrangement, convey DS
//! records over every channel the registrar offers, and test the channels'
//! validation and authentication. The harness only uses customer-visible
//! actions, so everything it reports is *measured*, not read from
//! configuration.

#![warn(missing_docs)]

pub mod harness;
pub mod report;

pub use harness::probe_registrar;
pub use report::{DsChannel, Finding, ProbeReport};

use dsec_ecosystem::World;

/// Probes every named registrar in `names`, in order.
pub fn probe_all(world: &mut World, names: &[&str]) -> Vec<ProbeReport> {
    names
        .iter()
        .filter_map(|name| {
            let id = world.registrar_by_name(name)?;
            Some(probe_registrar(world, id))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_ecosystem::{
        ExternalDs, OperatorDnssec, Plan, RegistrarPolicy, Tld, TldPolicy, TldRole, WorldConfig,
        ALL_TLDS,
    };
    use dsec_wire::Name;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn world() -> World {
        World::new(WorldConfig {
            key_pool: 2,
            ..WorldConfig::default()
        })
    }

    fn policy(
        operator_dnssec: OperatorDnssec,
        external_ds: ExternalDs,
        publishes: bool,
    ) -> RegistrarPolicy {
        RegistrarPolicy {
            operator_dnssec,
            external_ds,
            tlds: ALL_TLDS
                .iter()
                .map(|&t| {
                    (
                        t,
                        TldPolicy {
                            role: TldRole::Registrar,
                            publishes_ds: publishes,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn probe_discovers_default_signing_registrar() {
        let mut w = world();
        let id = w.add_registrar(
            "FullReg",
            name("fullreg.net"),
            policy(
                OperatorDnssec::Default,
                ExternalDs::Web { validates: true },
                true,
            ),
        );
        let report = probe_registrar(&mut w, id);
        assert_eq!(report.dnssec_default, Finding::Yes);
        assert_eq!(report.operator_support, Finding::Yes);
        assert_eq!(report.hosted_fully_deployed, Finding::Yes);
        assert_eq!(report.external_support, Finding::Yes);
        assert_eq!(report.ds_channel, Some(DsChannel::Web));
        assert_eq!(report.validates_ds, Finding::Yes);
        assert_eq!(report.external_fully_deployed, Finding::Yes);
        assert!(report.any_dnssec_support());
        // DS published for every TLD it signs in.
        assert!(report.publishes_ds.values().all(|&v| v));
    }

    #[test]
    fn probe_discovers_no_dnssec_registrar() {
        let mut w = world();
        let id = w.add_registrar(
            "NoneReg",
            name("nonereg.net"),
            RegistrarPolicy::no_dnssec(&ALL_TLDS),
        );
        let report = probe_registrar(&mut w, id);
        assert_eq!(report.dnssec_default, Finding::No);
        assert_eq!(report.operator_support, Finding::No);
        assert_eq!(report.external_support, Finding::No);
        assert!(!report.any_dnssec_support());
    }

    #[test]
    fn probe_discovers_paid_dnssec() {
        let mut w = world();
        let id = w.add_registrar(
            "GoDaddyLike",
            name("gdlike.net"),
            policy(
                OperatorDnssec::Paid {
                    cents_per_year: 3500,
                    adoption_rate: 0.0,
                },
                ExternalDs::Web { validates: false },
                true,
            ),
        );
        let report = probe_registrar(&mut w, id);
        assert_eq!(report.dnssec_default, Finding::No);
        assert_eq!(report.dnssec_paid_cents, Some(3500));
        assert_eq!(report.operator_support, Finding::Yes);
        // Non-validating web form caught by step 7.
        assert_eq!(report.validates_ds, Finding::No);
    }

    #[test]
    fn probe_discovers_plan_gated_signing() {
        let mut w = world();
        let id = w.add_registrar(
            "NameCheapLike",
            name("nclike.net"),
            policy(
                OperatorDnssec::DefaultOnPlans(vec![Plan::Premium]),
                ExternalDs::Web { validates: false },
                true,
            ),
        );
        let report = probe_registrar(&mut w, id);
        assert_eq!(report.dnssec_default, Finding::Partial);
        assert_eq!(report.operator_support, Finding::Yes);
    }

    #[test]
    fn probe_discovers_optin() {
        let mut w = world();
        let id = w.add_registrar(
            "OVHLike",
            name("ovhlike.net"),
            policy(
                OperatorDnssec::OptIn { adoption_rate: 0.2 },
                ExternalDs::Web { validates: true },
                true,
            ),
        );
        let report = probe_registrar(&mut w, id);
        assert_eq!(report.dnssec_default, Finding::No);
        assert_eq!(report.dnssec_optin, Finding::Yes);
        assert_eq!(report.validates_ds, Finding::Yes);
    }

    #[test]
    fn probe_detects_forged_email_vulnerability() {
        let mut w = world();
        let id = w.add_registrar(
            "LaxMail",
            name("laxmail.net"),
            policy(
                OperatorDnssec::Unsupported,
                ExternalDs::Email {
                    verifies_sender: false,
                    accepts_foreign_sender: false,
                    validates: false,
                },
                true,
            ),
        );
        let report = probe_registrar(&mut w, id);
        assert_eq!(report.ds_channel, Some(DsChannel::Email));
        assert_eq!(report.verifies_email, Finding::No);
        assert_eq!(report.accepts_foreign_email, Finding::No);
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("forged email sender")));
    }

    #[test]
    fn probe_detects_foreign_address_acceptance() {
        let mut w = world();
        let id = w.add_registrar(
            "WorstMail",
            name("worstmail.net"),
            policy(
                OperatorDnssec::Unsupported,
                ExternalDs::Email {
                    verifies_sender: false,
                    accepts_foreign_sender: true,
                    validates: false,
                },
                true,
            ),
        );
        let report = probe_registrar(&mut w, id);
        assert_eq!(report.accepts_foreign_email, Finding::Yes);
    }

    #[test]
    fn probe_verified_email_channel_is_clean() {
        let mut w = world();
        let id = w.add_registrar(
            "StrictMail",
            name("strictmail.net"),
            policy(
                OperatorDnssec::Unsupported,
                ExternalDs::Email {
                    verifies_sender: true,
                    accepts_foreign_sender: false,
                    validates: false,
                },
                true,
            ),
        );
        let report = probe_registrar(&mut w, id);
        assert_eq!(report.verifies_email, Finding::Yes);
        assert_eq!(report.accepts_foreign_email, Finding::No);
        assert!(report.notes.iter().all(|n| !n.contains("SECURITY")));
    }

    #[test]
    fn probe_discovers_fetch_dnskey_channel() {
        let mut w = world();
        let id = w.add_registrar(
            "PCExtremeLike",
            name("pcxlike.net"),
            policy(OperatorDnssec::Default, ExternalDs::FetchDnskey, true),
        );
        let report = probe_registrar(&mut w, id);
        assert_eq!(report.ds_channel, Some(DsChannel::FetchDnskey));
        assert_eq!(report.validates_ds, Finding::Yes);
        assert_eq!(report.external_fully_deployed, Finding::Yes);
    }

    #[test]
    fn probe_discovers_home_tld_only_ds_publication() {
        // Loopia-like: signs everywhere, uploads DS only for .se.
        let mut w = world();
        let mut tlds: std::collections::BTreeMap<Tld, TldPolicy> = ALL_TLDS
            .iter()
            .map(|&t| (t, TldPolicy::without_ds(TldRole::Registrar)))
            .collect();
        tlds.insert(Tld::Se, TldPolicy::full(TldRole::Registrar));
        let id = w.add_registrar(
            "LoopiaLike",
            name("loopialike.se"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Default,
                external_ds: ExternalDs::Email {
                    verifies_sender: true,
                    accepts_foreign_sender: false,
                    validates: false,
                },
                tlds,
            },
        );
        let report = probe_registrar(&mut w, id);
        assert_eq!(report.hosted_fully_deployed, Finding::Partial);
        assert_eq!(report.publishes_ds.get(&Tld::Se), Some(&true));
        assert_eq!(report.publishes_ds.get(&Tld::Com), Some(&false));
        // External upload still works for .com (the §6.3 Loopia test).
        assert_eq!(report.external_support, Finding::Yes);
    }

    #[test]
    fn probe_all_skips_unknown_names() {
        let mut w = world();
        w.add_registrar(
            "OnlyOne",
            name("onlyone.net"),
            RegistrarPolicy::no_dnssec(&ALL_TLDS),
        );
        let reports = probe_all(&mut w, &["OnlyOne", "Ghost"]);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].registrar, "OnlyOne");
    }
}
