//! # dsec-ecosystem — the simulated registration world
//!
//! Everything between "a customer wants a domain" and "records appear in
//! zones": TLD [`registry::Registry`]s, [`registrar::Registrar`]s and
//! resellers with the policy knobs the paper's Tables 2–4 document,
//! [`operator::Operator`]s (including third-party operators like
//! Cloudflare), owners, the email channel, and the daily simulation
//! [`world::World::tick`].
//!
//! Every DNSSEC state transition performs real work: signing puts real
//! RRSIGs in zones served by real authorities, DS uploads put real DS
//! RRsets (signed by the registry) in the TLD zone, and a misconfigured
//! domain genuinely fails validation when resolved.

#![warn(missing_docs)]

pub mod anchor;
pub mod clock;
pub mod domain;
pub mod events;
pub mod operator;
pub mod policy;
pub mod registrar;
pub mod registry;
pub mod rollover;
pub mod table;
pub mod tld;
pub mod world;

pub use anchor::AnchorRollPlan;
pub use clock::SimDate;
pub use domain::{Domain, Hosting};
pub use events::{Event, EventLog};
pub use operator::{operator_key, operator_of, Operator, OperatorId};
pub use policy::{ExternalDs, OperatorDnssec, Plan, RegistrarPolicy, TldPolicy, TldRole};
pub use registrar::{Milestone, PolicyChange, Registrar};
pub use registry::{Freshness, FreshnessColumn, Registry, RegistryError};
pub use rollover::{DsTiming, RolloverPhase, RolloverPlan, RolloverStyle};
pub use table::{DomainId, DomainTable, JournalCursor, OrderedRows, Ranks};
pub use tld::{Incentive, Tld, ALL_TLDS};
pub use world::{
    ActionError, DsSubmission, RolloverState, ThirdParty, UploadOutcome, World, WorldConfig,
};

/// Index of a registrar in the world's registrar table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegistrarId(pub u32);

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_dnssec::{classify, DeploymentStatus, Misconfiguration};
    use dsec_wire::{DsRdata, Name};

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn small_world() -> World {
        World::new(WorldConfig {
            key_pool: 2,
            ..WorldConfig::default()
        })
    }

    fn add_full_registrar(world: &mut World, nm: &str, ns: &str) -> RegistrarId {
        world.add_registrar(
            nm,
            name(ns),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Default,
                external_ds: ExternalDs::Web { validates: true },
                tlds: ALL_TLDS
                    .iter()
                    .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                    .collect(),
            },
        )
    }

    fn add_no_dnssec_registrar(world: &mut World, nm: &str, ns: &str) -> RegistrarId {
        world.add_registrar(nm, name(ns), RegistrarPolicy::no_dnssec(&ALL_TLDS))
    }

    fn now(world: &World) -> u32 {
        world.today.epoch_seconds()
    }

    #[test]
    fn purchase_with_default_signing_is_fully_deployed() {
        let mut w = small_world();
        let r = add_full_registrar(&mut w, "GoodReg", "goodreg.net");
        let d = w
            .purchase(
                r,
                "shop",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        let obs = w.observation_of(&d);
        assert_eq!(classify(&d, &obs, now(&w)), DeploymentStatus::FullyDeployed);
    }

    #[test]
    fn purchase_from_no_dnssec_registrar_is_not_deployed() {
        let mut w = small_world();
        let r = add_no_dnssec_registrar(&mut w, "BadReg", "badreg.net");
        let d = w
            .purchase(
                r,
                "shop",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        let obs = w.observation_of(&d);
        assert_eq!(classify(&d, &obs, now(&w)), DeploymentStatus::NotDeployed);
        assert_eq!(w.enable_dnssec(&d), Err(ActionError::DnssecUnsupported));
    }

    #[test]
    fn name_collisions_rejected() {
        let mut w = small_world();
        let r = add_no_dnssec_registrar(&mut w, "Reg", "reg.net");
        w.purchase(
            r,
            "shop",
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "o@x.com",
        )
        .unwrap();
        assert_eq!(
            w.purchase(
                r,
                "shop",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com"
            ),
            Err(ActionError::NameTaken)
        );
    }

    #[test]
    fn unsold_tld_rejected() {
        let mut w = small_world();
        let r = w.add_registrar(
            "ComOnly",
            name("comonly.net"),
            RegistrarPolicy::no_dnssec(&[Tld::Com]),
        );
        assert_eq!(
            w.purchase(
                r,
                "x",
                Tld::Se,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com"
            ),
            Err(ActionError::TldNotSold)
        );
    }

    #[test]
    fn paid_dnssec_needs_payment() {
        let mut w = small_world();
        let r = w.add_registrar(
            "PayReg",
            name("payreg.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Paid {
                    cents_per_year: 3500,
                    adoption_rate: 0.0002,
                },
                external_ds: ExternalDs::Web { validates: false },
                tlds: [(Tld::Com, TldPolicy::full(TldRole::Registrar))].into(),
            },
        );
        let d = w
            .purchase(
                r,
                "shop",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        assert_eq!(
            w.enable_dnssec(&d),
            Err(ActionError::RequiresPayment {
                cents_per_year: 3500
            })
        );
        w.enable_dnssec_paid(&d).unwrap();
        let obs = w.observation_of(&d);
        assert_eq!(classify(&d, &obs, now(&w)), DeploymentStatus::FullyDeployed);
    }

    #[test]
    fn plan_gated_signing() {
        let mut w = small_world();
        let r = w.add_registrar(
            "PlanReg",
            name("planreg.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::DefaultOnPlans(vec![Plan::Premium]),
                external_ds: ExternalDs::Web { validates: false },
                tlds: [(Tld::Com, TldPolicy::full(TldRole::Registrar))].into(),
            },
        );
        let free = w
            .purchase(
                r,
                "free",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        let premium = w
            .purchase(
                r,
                "prem",
                Tld::Com,
                Hosting::Registrar {
                    plan: Plan::Premium,
                },
                "o@x.com",
            )
            .unwrap();
        assert!(!w.domain(&free).unwrap().is_signed());
        assert!(w.domain(&premium).unwrap().is_signed());
    }

    #[test]
    fn partial_deployment_when_registrar_never_uploads_ds() {
        // The MeshDigital / Loopia-for-.com pattern.
        let mut w = small_world();
        let r = w.add_registrar(
            "PartialReg",
            name("partialreg.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Default,
                external_ds: ExternalDs::Email {
                    verifies_sender: false,
                    accepts_foreign_sender: false,
                    validates: false,
                },
                tlds: [(Tld::Com, TldPolicy::without_ds(TldRole::Registrar))].into(),
            },
        );
        let d = w
            .purchase(
                r,
                "shop",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        let obs = w.observation_of(&d);
        assert_eq!(
            classify(&d, &obs, now(&w)),
            DeploymentStatus::PartiallyDeployed
        );
    }

    #[test]
    fn owner_hosting_full_cycle_via_validating_web_form() {
        let mut w = small_world();
        let r = add_full_registrar(&mut w, "GoodReg", "goodreg.net");
        let d = w
            .purchase(
                r,
                "self",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        let ns = w.switch_to_owner_hosting(&d).unwrap();
        assert_eq!(ns, name("ns1.self.com"));
        // After the switch the domain is unsigned again.
        let obs = w.observation_of(&d);
        assert!(obs.dnskey_rrset.is_none());
        let ds = w.owner_sign_zone(&d).unwrap();
        // Without DS upload: partial.
        let obs = w.observation_of(&d);
        assert_eq!(
            classify(&d, &obs, now(&w)),
            DeploymentStatus::PartiallyDeployed
        );
        // Upload via the validating web form.
        assert_eq!(
            w.upload_ds(&d, ds, DsSubmission::Web).unwrap(),
            UploadOutcome::Accepted
        );
        let obs = w.observation_of(&d);
        assert_eq!(classify(&d, &obs, now(&w)), DeploymentStatus::FullyDeployed);
    }

    #[test]
    fn validating_web_form_rejects_garbage_ds() {
        let mut w = small_world();
        let r = add_full_registrar(&mut w, "GoodReg", "goodreg.net");
        let d = w
            .purchase(
                r,
                "self",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        w.switch_to_owner_hosting(&d).unwrap();
        w.owner_sign_zone(&d).unwrap();
        let garbage = DsRdata {
            key_tag: 1,
            algorithm: 8,
            digest_type: 2,
            digest: vec![0xAA; 32],
        };
        assert_eq!(
            w.upload_ds(&d, garbage, DsSubmission::Web).unwrap(),
            UploadOutcome::RejectedInvalid
        );
        assert!(w.registry(Tld::Com).ds_of(&d).is_empty());
    }

    #[test]
    fn non_validating_web_form_accepts_garbage_making_domain_bogus() {
        let mut w = small_world();
        let r = w.add_registrar(
            "SloppyReg",
            name("sloppyreg.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Unsupported,
                external_ds: ExternalDs::Web { validates: false },
                tlds: [(Tld::Com, TldPolicy::full(TldRole::Registrar))].into(),
            },
        );
        let d = w
            .purchase(r, "self", Tld::Com, Hosting::Owner, "o@x.com")
            .unwrap();
        w.owner_sign_zone(&d).unwrap();
        let garbage = DsRdata {
            key_tag: 1,
            algorithm: 8,
            digest_type: 2,
            digest: b"copy paste error".to_vec(),
        };
        assert_eq!(
            w.upload_ds(&d, garbage, DsSubmission::Web).unwrap(),
            UploadOutcome::Accepted
        );
        let obs = w.observation_of(&d);
        assert_eq!(
            classify(&d, &obs, now(&w)),
            DeploymentStatus::Misconfigured(Misconfiguration::DsMismatch)
        );
    }

    #[test]
    fn registrant_emails_round_trip_exactly() {
        let mut w = small_world();
        let r = add_no_dnssec_registrar(&mut w, "MailReg", "mailreg.net");
        let mut buy = |label: &str, email: &str| {
            w.purchase(r, label, Tld::Com, Hosting::Owner, email)
                .unwrap()
        };
        let bought = [
            // The derived default: stored nowhere.
            (buy("plain", "owner@plain.example"), "owner@plain.example"),
            // Any other address is kept as given.
            (buy("other", "o@x"), "o@x"),
            (
                buy("near", "owner@near.example.com"),
                "owner@near.example.com",
            ),
            (buy("case", "owner@CASE.example"), "owner@CASE.example"),
            // The default of a mixed-case label keeps the label's case.
            (buy("MiXed", "owner@MiXed.example"), "owner@MiXed.example"),
        ];
        for (domain, email) in &bought {
            assert_eq!(w.registrant_email(domain).as_deref(), Some(*email));
        }
        // Any spelling of the name reaches the same address.
        assert_eq!(
            w.registrant_email(&name("MIXED.com")).as_deref(),
            Some("owner@MiXed.example")
        );
        assert_eq!(w.registrant_email(&name("unsold.com")), None);
    }

    #[test]
    fn a_derived_registrant_email_is_the_email_channels_credential() {
        let mut w = small_world();
        let strict = w.add_registrar(
            "StrictMail",
            name("strictmail.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Unsupported,
                external_ds: ExternalDs::Email {
                    verifies_sender: true,
                    accepts_foreign_sender: false,
                    validates: false,
                },
                tlds: [(Tld::Com, TldPolicy::full(TldRole::Registrar))].into(),
            },
        );
        let d = w
            .purchase(
                strict,
                "Shop",
                Tld::Com,
                Hosting::Owner,
                "owner@Shop.example",
            )
            .unwrap();
        let ds = w.owner_sign_zone(&d).unwrap();
        let mail = |from: &str| DsSubmission::Email {
            claimed_from: from.into(),
            actual_from: from.into(),
        };
        // The check is exact: another spelling of the address is a
        // stranger's mailbox.
        assert_eq!(
            w.upload_ds(&d, ds.clone(), mail("owner@shop.example"))
                .unwrap(),
            UploadOutcome::EmailNotVerified
        );
        assert_eq!(
            w.upload_ds(&d, ds, mail("owner@Shop.example")).unwrap(),
            UploadOutcome::Accepted
        );
    }

    #[test]
    fn email_channel_authentication_matrix() {
        let mut w = small_world();
        let strict = w.add_registrar(
            "StrictMail",
            name("strictmail.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Unsupported,
                external_ds: ExternalDs::Email {
                    verifies_sender: true,
                    accepts_foreign_sender: false,
                    validates: false,
                },
                tlds: [(Tld::Com, TldPolicy::full(TldRole::Registrar))].into(),
            },
        );
        let d = w
            .purchase(strict, "a", Tld::Com, Hosting::Owner, "owner@a.com")
            .unwrap();
        let ds = w.owner_sign_zone(&d).unwrap();
        // Forged header, attacker mailbox → rejected.
        assert_eq!(
            w.upload_ds(
                &d,
                ds.clone(),
                DsSubmission::Email {
                    claimed_from: "owner@a.com".into(),
                    actual_from: "evil@attacker.net".into(),
                }
            )
            .unwrap(),
            UploadOutcome::EmailNotVerified
        );
        // Genuine sender → accepted.
        assert_eq!(
            w.upload_ds(
                &d,
                ds,
                DsSubmission::Email {
                    claimed_from: "owner@a.com".into(),
                    actual_from: "owner@a.com".into(),
                }
            )
            .unwrap(),
            UploadOutcome::Accepted
        );
        // The NS path runs the same check: forged → rejected, genuine → accepted.
        for (actual_from, outcome) in [
            ("evil@attacker.net", UploadOutcome::EmailNotVerified),
            ("owner@a.com", UploadOutcome::Accepted),
        ] {
            let via = DsSubmission::Email {
                claimed_from: "owner@a.com".into(),
                actual_from: actual_from.into(),
            };
            assert_eq!(
                w.submit_ns_change(&d, &[name("ns1.elsewhere.net")], via)
                    .unwrap(),
                outcome,
                "NS change mailed by {actual_from}"
            );
        }
        assert_eq!(w.events.count("forged_ns_accepted"), 0);
    }

    #[test]
    fn a_forged_ds_that_validation_rejects_is_not_logged_as_accepted() {
        // Header-only sender check, but the DS is validated against the
        // served DNSKEY: the forged From gets through, the forged DS does not.
        let mut w = small_world();
        let r = w.add_registrar(
            "CheckedMail",
            name("checkedmail.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Unsupported,
                external_ds: ExternalDs::Email {
                    verifies_sender: false,
                    accepts_foreign_sender: false,
                    validates: true,
                },
                tlds: [(Tld::Com, TldPolicy::full(TldRole::Registrar))].into(),
            },
        );
        let d = w
            .purchase(r, "victim", Tld::Com, Hosting::Owner, "owner@victim.com")
            .unwrap();
        let real_ds = w.owner_sign_zone(&d).unwrap();
        let forged_mail = || DsSubmission::Email {
            claimed_from: "owner@victim.com".into(),
            actual_from: "evil@attacker.net".into(),
        };
        let attacker_ds = DsRdata {
            key_tag: 666,
            algorithm: 8,
            digest_type: 2,
            digest: vec![6; 32],
        };
        assert_eq!(
            w.upload_ds(&d, attacker_ds, forged_mail()).unwrap(),
            UploadOutcome::RejectedInvalid
        );
        assert!(w.registry(Tld::Com).ds_of(&d).is_empty());
        assert_eq!(w.events.count("ds_rejected"), 1);
        assert_eq!(
            w.events.count("forged_email_accepted"),
            0,
            "nothing was accepted"
        );
        // A forged mail carrying a DS that does validate is installed, and logged.
        assert_eq!(
            w.upload_ds(&d, real_ds.clone(), forged_mail()).unwrap(),
            UploadOutcome::Accepted
        );
        assert_eq!(w.registry(Tld::Com).ds_of(&d), vec![real_ds]);
        assert_eq!(w.events.count("forged_email_accepted"), 1);
    }

    #[test]
    fn forged_email_hijack_succeeds_at_lax_registrar() {
        // The paper's §5.3 vulnerability: no email authentication at all.
        let mut w = small_world();
        let lax = w.add_registrar(
            "LaxMail",
            name("laxmail.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Unsupported,
                external_ds: ExternalDs::Email {
                    verifies_sender: false,
                    accepts_foreign_sender: false,
                    validates: false,
                },
                tlds: [(Tld::Com, TldPolicy::full(TldRole::Registrar))].into(),
            },
        );
        let d = w
            .purchase(lax, "victim", Tld::Com, Hosting::Owner, "owner@victim.com")
            .unwrap();
        w.owner_sign_zone(&d).unwrap();
        let attacker_ds = DsRdata {
            key_tag: 666,
            algorithm: 8,
            digest_type: 2,
            digest: vec![6; 32],
        };
        assert_eq!(
            w.upload_ds(
                &d,
                attacker_ds.clone(),
                DsSubmission::Email {
                    claimed_from: "owner@victim.com".into(), // forged
                    actual_from: "evil@attacker.net".into(),
                }
            )
            .unwrap(),
            UploadOutcome::Accepted
        );
        assert_eq!(w.registry(Tld::Com).ds_of(&d), vec![attacker_ds]);
        assert_eq!(w.events.count("forged_email_accepted"), 1);
        let obs = w.observation_of(&d);
        assert_eq!(
            classify(&d, &obs, now(&w)),
            DeploymentStatus::Misconfigured(Misconfiguration::DsMismatch)
        );
    }

    #[test]
    fn foreign_sender_acceptance_is_worst_case() {
        let mut w = small_world();
        let worst = w.add_registrar(
            "WorstMail",
            name("worstmail.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Unsupported,
                external_ds: ExternalDs::Email {
                    verifies_sender: false,
                    accepts_foreign_sender: true,
                    validates: false,
                },
                tlds: [(Tld::Com, TldPolicy::full(TldRole::Registrar))].into(),
            },
        );
        let d = w
            .purchase(
                worst,
                "victim",
                Tld::Com,
                Hosting::Owner,
                "owner@victim.com",
            )
            .unwrap();
        w.owner_sign_zone(&d).unwrap();
        let outcome = w
            .upload_ds(
                &d,
                DsRdata {
                    key_tag: 1,
                    algorithm: 8,
                    digest_type: 2,
                    digest: vec![1; 32],
                },
                DsSubmission::Email {
                    claimed_from: "whoever@wherever.org".into(),
                    actual_from: "whoever@wherever.org".into(),
                },
            )
            .unwrap();
        assert_eq!(outcome, UploadOutcome::Accepted);
    }

    #[test]
    fn chat_channel_can_hit_wrong_domain() {
        let mut w = small_world();
        let chat = w.add_registrar(
            "ChatReg",
            name("chatreg.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Unsupported,
                external_ds: ExternalDs::Chat { mistake_rate: 1.0 },
                tlds: [(Tld::Com, TldPolicy::full(TldRole::Registrar))].into(),
            },
        );
        let victim = w
            .purchase(chat, "victim", Tld::Com, Hosting::Owner, "v@x.com")
            .unwrap();
        let d = w
            .purchase(chat, "mine", Tld::Com, Hosting::Owner, "m@x.com")
            .unwrap();
        let ds = w.owner_sign_zone(&d).unwrap();
        let outcome = w.upload_ds(&d, ds, DsSubmission::Chat).unwrap();
        assert_eq!(
            outcome,
            UploadOutcome::AcceptedOnWrongDomain(victim.clone())
        );
        assert!(!w.registry(Tld::Com).ds_of(&victim).is_empty());
        assert!(w.registry(Tld::Com).ds_of(&d).is_empty());
        assert_eq!(w.events.count("ds_on_wrong_domain"), 1);
    }

    #[test]
    fn fetch_dnskey_channel_derives_correct_ds() {
        // The PCExtreme model: no user-supplied data at all.
        let mut w = small_world();
        let r = w.add_registrar(
            "FetchReg",
            name("fetchreg.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Unsupported,
                external_ds: ExternalDs::FetchDnskey,
                tlds: [(Tld::Com, TldPolicy::full(TldRole::Registrar))].into(),
            },
        );
        let d = w
            .purchase(r, "self", Tld::Com, Hosting::Owner, "o@x.com")
            .unwrap();
        let real_ds = w.owner_sign_zone(&d).unwrap();
        let bogus = DsRdata {
            key_tag: 0,
            algorithm: 0,
            digest_type: 0,
            digest: vec![],
        };
        assert_eq!(
            w.upload_ds(&d, bogus, DsSubmission::FetchDnskey).unwrap(),
            UploadOutcome::Accepted
        );
        assert_eq!(w.registry(Tld::Com).ds_of(&d), vec![real_ds]);
        // Fetching a DNSKEY carries no NS set and no submitter to check:
        // the channel cannot redelegate.
        let ns_before = w.registry(Tld::Com).ns_of(&d);
        assert_eq!(
            w.submit_ns_change(&d, &[name("ns1.elsewhere.net")], DsSubmission::FetchDnskey)
                .unwrap(),
            UploadOutcome::ChannelUnsupported
        );
        assert_eq!(w.registry(Tld::Com).ns_of(&d), ns_before);
        assert_eq!(w.events.count("ns_changed"), 0);
    }

    #[test]
    fn unsupported_channel_is_reported() {
        let mut w = small_world();
        let r = add_no_dnssec_registrar(&mut w, "NoDs", "nods.net");
        let d = w
            .purchase(r, "self", Tld::Com, Hosting::Owner, "o@x.com")
            .unwrap();
        let ds = w.owner_sign_zone(&d).unwrap();
        for via in [
            DsSubmission::Web,
            DsSubmission::Chat,
            DsSubmission::Ticket,
            DsSubmission::FetchDnskey,
        ] {
            assert_eq!(
                w.upload_ds(&d, ds.clone(), via).unwrap(),
                UploadOutcome::ChannelUnsupported
            );
        }
    }

    #[test]
    fn reseller_routes_through_partner() {
        let mut w = small_world();
        let partner = add_full_registrar(&mut w, "PartnerReg", "partnerreg.net");
        let reseller = w.add_registrar(
            "ResellerCo",
            name("resellerco.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Default,
                external_ds: ExternalDs::Web { validates: false },
                tlds: [(
                    Tld::Com,
                    TldPolicy::full(TldRole::ResellerVia("PartnerReg".into())),
                )]
                .into(),
            },
        );
        let d = w
            .purchase(
                reseller,
                "shop",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        let dom = w.domain(&d).unwrap();
        assert_eq!(dom.registrar, reseller);
        assert_eq!(dom.sponsor, partner);
        let obs = w.observation_of(&d);
        assert_eq!(classify(&d, &obs, now(&w)), DeploymentStatus::FullyDeployed);
    }

    #[test]
    fn third_party_flow_with_and_without_relay() {
        let mut w = small_world();
        let r = add_no_dnssec_registrar(&mut w, "Reg", "reg.net");
        // Give the registrar a DS channel so relays can land.
        w.change_policy(
            r,
            PolicyChange::SetExternalDs(ExternalDs::Web { validates: false }),
        );
        let cf = w.add_third_party(
            "Cloudflare",
            name("cloudflare-dns.sim"),
            Some(SimDate::from_ymd(2015, 11, 11)),
            0.0,
            0.6,
        );
        let d = w
            .purchase(
                r,
                "site",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        w.enroll_third_party(&d, cf).unwrap();
        assert_eq!(
            w.third_party_enable_dnssec(&d),
            Err(ActionError::DnssecUnsupported)
        );
        w.advance_to(SimDate::from_ymd(2015, 11, 12));
        let ds = w.third_party_enable_dnssec(&d).unwrap();
        // Signed but no DS yet: the paper's 40% failure state.
        let obs = w.observation_of(&d);
        assert_eq!(
            classify(&d, &obs, now(&w)),
            DeploymentStatus::PartiallyDeployed
        );
        // The diligent 60% relay the DS via their registrar.
        assert_eq!(
            w.upload_ds(&d, ds, DsSubmission::Web).unwrap(),
            UploadOutcome::Accepted
        );
        let obs = w.observation_of(&d);
        assert_eq!(classify(&d, &obs, now(&w)), DeploymentStatus::FullyDeployed);
    }

    #[test]
    fn population_optin_hazard_grows_adoption() {
        let mut w = small_world();
        let r = w.add_registrar(
            "OVHlike",
            name("ovhlike.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::OptIn {
                    adoption_rate: 0.26,
                },
                external_ds: ExternalDs::Web { validates: true },
                tlds: [(Tld::Com, TldPolicy::full(TldRole::Registrar))].into(),
            },
        );
        for i in 0..40 {
            w.purchase(
                r,
                &format!("c{i}"),
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        }
        w.change_policy(r, PolicyChange::SetOptInHazard(0.05));
        for _ in 0..60 {
            w.tick();
        }
        let signed = w.domains().filter(|d| d.is_signed()).count();
        assert!(signed > 10, "expected substantial opt-in, got {signed}");
        assert!(signed < 40, "not everyone opts in immediately");
    }

    #[test]
    fn renewal_migration_enables_dnssec() {
        // The Antagonist pattern: reseller switches partner; existing
        // domains migrate (and get signed) at renewal.
        let mut w = small_world();
        let _old_partner = add_no_dnssec_registrar(&mut w, "DirectLike", "directlike.net");
        let _new_partner = add_full_registrar(&mut w, "OpenProviderLike", "openproviderlike.net");
        let reseller = w.add_registrar(
            "AntagonistLike",
            name("antagonistlike.net"),
            RegistrarPolicy {
                operator_dnssec: OperatorDnssec::Default,
                external_ds: ExternalDs::Email {
                    verifies_sender: true,
                    accepts_foreign_sender: false,
                    validates: false,
                },
                tlds: [(
                    Tld::Com,
                    TldPolicy::without_ds(TldRole::ResellerVia("DirectLike".into())),
                )]
                .into(),
            },
        );
        let d = w
            .purchase(
                reseller,
                "shop",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        // Signed (reseller signs by default) but no DS → partial.
        let obs = w.observation_of(&d);
        assert_eq!(
            classify(&d, &obs, now(&w)),
            DeploymentStatus::PartiallyDeployed
        );

        w.add_milestone(
            reseller,
            w.today.plus_days(30),
            PolicyChange::SwitchPartner {
                tld: Tld::Com,
                new_partner: "OpenProviderLike".into(),
                migrate_at_renewal: true,
            },
        );
        // Advance past the renewal (365 days after purchase).
        w.advance_to(w.today.plus_days(370));
        let dom = w.domain(&d).unwrap();
        assert_eq!(
            dom.sponsor,
            w.registrar_by_name("OpenProviderLike").unwrap()
        );
        let obs = w.observation_of(&d);
        assert_eq!(classify(&d, &obs, now(&w)), DeploymentStatus::FullyDeployed);
        assert_eq!(w.events.count("partner_migrated"), 1);
    }

    #[test]
    fn incentive_audits_award_discounts() {
        let mut w = small_world();
        let r = add_full_registrar(&mut w, "NlReg", "nlreg.net");
        w.purchase(
            r,
            "goed",
            Tld::Nl,
            Hosting::Registrar { plan: Plan::Free },
            "o@x.nl",
        )
        .unwrap();
        for _ in 0..30 {
            w.tick();
        }
        let registry = w.registry(Tld::Nl);
        assert!(registry.discounts_cents.get(&r).copied().unwrap_or(0) > 0);
        assert_eq!(registry.audit_failures.get(&r).copied().unwrap_or(0), 0);
    }

    #[test]
    fn audits_count_failures_for_broken_domains() {
        let mut w = small_world();
        let r = add_full_registrar(&mut w, "NlReg", "nlreg.net");
        let d = w
            .purchase(
                r,
                "kapot",
                Tld::Nl,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.nl",
            )
            .unwrap();
        // Break the chain: replace the DS with garbage directly.
        let sponsor = w.domain(&d).unwrap().sponsor;
        w.registry_mut(Tld::Nl)
            .set_ds(
                sponsor,
                &d,
                &[DsRdata {
                    key_tag: 1,
                    algorithm: 8,
                    digest_type: 2,
                    digest: vec![9; 32],
                }],
            )
            .unwrap();
        for _ in 0..30 {
            w.tick();
        }
        assert!(
            w.registry(Tld::Nl)
                .audit_failures
                .get(&r)
                .copied()
                .unwrap_or(0)
                > 0
        );
    }

    /// A roll whose DS leg is the child's CDS (signed by the old keys
    /// the current DS still chains): the operator withdraws the old keys
    /// only once the parent holds the new DS. A stall resumed past
    /// completion waits for the scan; a registry that never scans leaves
    /// the roll in flight. Bounded validity re-signs the zone daily, and
    /// the CDS survives it. Every day stays secure.
    #[test]
    fn a_cds_roll_completes_only_once_the_parent_holds_the_new_ds() {
        for scans in [true, false] {
            let mut w = small_world();
            let r = add_full_registrar(&mut w, "CzLike", "czlike.net");
            let d = w
                .purchase(
                    r,
                    "shop",
                    Tld::Com,
                    Hosting::Registrar { plan: Plan::Free },
                    "o@x.com",
                )
                .unwrap();
            w.registry_mut(Tld::Com).supports_cds = scans;
            let plan = rollover::RolloverPlan::correct(
                rollover::RolloverStyle::DoubleSignatureKsk,
                w.today.plus_days(1),
            )
            .with_ds_timing(rollover::DsTiming::Cds)
            .with_signature_validity_days(2);
            w.schedule_rollover(&d, plan.clone()).unwrap();
            w.tick(); // the start day serves the transitional set
            w.stall_rollover(&d).unwrap();
            w.advance_to(plan.completion().plus_days(1));
            let op = w.operator(w.registrar(r).operator).authority();
            let cds = op.with_zone(&d, |z| z.rrset(&d, dsec_wire::RrType::Cds).is_some());
            assert_eq!(cds, Some(false), "a stalled operator publishes nothing");
            w.resume_rollover(&d).unwrap();
            for _ in 0..3 {
                w.tick();
                assert_eq!(deployment_on(&w, &d), DeploymentStatus::FullyDeployed);
            }
            assert_eq!(w.rollover_state(&d).is_none(), scans);
            assert_eq!(w.events.count("cds_applied"), u64::from(scans));
        }
    }

    fn deployment_on(w: &World, d: &Name) -> DeploymentStatus {
        let obs = w.observation_of(d);
        classify(d, &obs, now(w))
    }

    #[test]
    fn scheduled_double_signature_rollover_is_seamless() {
        let mut w = small_world();
        let r = add_full_registrar(&mut w, "GoodReg", "goodreg.net");
        let d = w
            .purchase(
                r,
                "roll",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        let old_tag = w.domain(&d).unwrap().keys.as_ref().unwrap().ksk_tag();
        let plan = rollover::RolloverPlan::correct(
            rollover::RolloverStyle::DoubleSignatureKsk,
            w.today.plus_days(2),
        );
        let completion = plan.completion();
        w.schedule_rollover(&d, plan).unwrap();
        // Every single day of the transition validates.
        while w.today < completion.plus_days(2) {
            w.tick();
            assert_eq!(
                deployment_on(&w, &d),
                DeploymentStatus::FullyDeployed,
                "chain broke on {:?}",
                w.today
            );
        }
        assert!(w.rollover_state(&d).is_none(), "rollover finished");
        assert_ne!(
            w.domain(&d).unwrap().keys.as_ref().unwrap().ksk_tag(),
            old_tag,
            "keys actually changed"
        );
        assert_eq!(w.events.count("rollover_prepared"), 1);
        assert_eq!(w.events.count("rollover_ds_swapped"), 1);
        assert_eq!(w.events.count("rollover_completed"), 1);
    }

    #[test]
    fn scheduled_algorithm_rollover_is_seamless_and_changes_algorithm() {
        let mut w = small_world();
        let r = add_full_registrar(&mut w, "GoodReg", "goodreg.net");
        let d = w
            .purchase(
                r,
                "alg",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        let old_alg = w.domain(&d).unwrap().keys.as_ref().unwrap().ksk.algorithm;
        let plan = rollover::RolloverPlan::correct(
            rollover::RolloverStyle::Algorithm,
            w.today.plus_days(1),
        );
        let completion = plan.completion();
        w.schedule_rollover(&d, plan).unwrap();
        while w.today < completion.plus_days(1) {
            w.tick();
            assert_eq!(deployment_on(&w, &d), DeploymentStatus::FullyDeployed);
        }
        assert_ne!(
            w.domain(&d).unwrap().keys.as_ref().unwrap().ksk.algorithm,
            old_alg
        );
    }

    #[test]
    fn scheduled_prepublish_zsk_rollover_keeps_ds_and_chain() {
        let mut w = small_world();
        let r = add_full_registrar(&mut w, "GoodReg", "goodreg.net");
        let d = w
            .purchase(
                r,
                "zsk",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        let ds_before = w.registry(Tld::Com).ds_of(&d);
        let plan = rollover::RolloverPlan::correct(
            rollover::RolloverStyle::PrePublishZsk,
            w.today.plus_days(1),
        );
        let completion = plan.completion();
        w.schedule_rollover(&d, plan).unwrap();
        while w.today < completion.plus_days(1) {
            w.tick();
            assert_eq!(deployment_on(&w, &d), DeploymentStatus::FullyDeployed);
        }
        assert_eq!(
            w.registry(Tld::Com).ds_of(&d),
            ds_before,
            "pre-publish ZSK rollover never touches the parent DS"
        );
        assert_eq!(w.events.count("rollover_ds_swapped"), 0);
    }

    #[test]
    fn mistimed_ds_swap_opens_exactly_the_predicted_window() {
        let mut w = small_world();
        let r = add_full_registrar(&mut w, "GoodReg", "goodreg.net");
        let d = w
            .purchase(
                r,
                "late",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        // DS lands 5 days late: bogus from completion until the swap.
        let plan = rollover::RolloverPlan::correct(
            rollover::RolloverStyle::DoubleSignatureKsk,
            w.today.plus_days(1),
        )
        .with_ds_timing(rollover::DsTiming::Late { days: 5 });
        let (from, until) = match plan.bogus_window() {
            Some((f, Some(u))) => (f, u),
            other => panic!("expected a bounded bogus window, got {other:?}"),
        };
        w.schedule_rollover(&d, plan.clone()).unwrap();
        while w.today < until.plus_days(2) {
            w.tick();
            let status = deployment_on(&w, &d);
            if plan.is_bogus_on(w.today) {
                assert_eq!(
                    status,
                    DeploymentStatus::Misconfigured(Misconfiguration::DsMismatch),
                    "inside the window ({:?}) the stale DS must mismatch",
                    w.today
                );
            } else {
                assert_eq!(
                    status,
                    DeploymentStatus::FullyDeployed,
                    "outside the window ({:?}) the chain must hold",
                    w.today
                );
            }
        }
        assert!(w.today >= from, "walked through the whole window");
        // The mistimed swap is flagged as such in the log.
        let swapped_off_schedule = w.events.entries().iter().any(|(_, e)| {
            matches!(
                e,
                Event::RolloverDsSwapped {
                    on_schedule: false,
                    ..
                }
            )
        });
        assert!(swapped_off_schedule);
    }

    #[test]
    fn stalled_rollover_lets_signatures_expire_for_real() {
        let mut w = small_world();
        let r = add_full_registrar(&mut w, "GoodReg", "goodreg.net");
        let d = w
            .purchase(
                r,
                "stall",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        let plan = rollover::RolloverPlan::correct(
            rollover::RolloverStyle::DoubleSignatureKsk,
            w.today.plus_days(1),
        )
        .with_signature_validity_days(4);
        w.schedule_rollover(&d, plan).unwrap();
        w.advance_to(w.today.plus_days(2)); // transitional set now served
        w.stall_rollover(&d).unwrap();
        w.advance_to(w.today.plus_days(10));
        assert_eq!(
            deployment_on(&w, &d),
            DeploymentStatus::Misconfigured(Misconfiguration::ExpiredSignature),
            "a stalled operator's RRSIGs must lapse"
        );
        assert_eq!(w.events.count("signature_expired"), 1);
        // Resuming re-signs and completes the rollover.
        w.resume_rollover(&d).unwrap();
        w.advance_to(w.today.plus_days(2));
        assert_eq!(deployment_on(&w, &d), DeploymentStatus::FullyDeployed);
        assert!(w.rollover_state(&d).is_none());
    }

    #[test]
    fn live_rollover_refreshes_bounded_signatures() {
        let mut w = small_world();
        let r = add_full_registrar(&mut w, "GoodReg", "goodreg.net");
        let d = w
            .purchase(
                r,
                "fresh",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        // Long window, short validity: the driver must keep re-signing.
        let mut plan = rollover::RolloverPlan::correct(
            rollover::RolloverStyle::DoubleSignatureKsk,
            w.today.plus_days(1),
        )
        .with_signature_validity_days(3);
        plan.prepare_days = 6;
        plan.retire_days = 6;
        let completion = plan.completion();
        w.schedule_rollover(&d, plan).unwrap();
        while w.today < completion.plus_days(1) {
            w.tick();
            assert_eq!(
                deployment_on(&w, &d),
                DeploymentStatus::FullyDeployed,
                "bounded validity must be refreshed while live ({:?})",
                w.today
            );
        }
        assert_eq!(w.events.count("signature_expired"), 0);
    }

    #[test]
    fn rollover_error_paths_are_specific() {
        let mut w = small_world();
        let r = add_full_registrar(&mut w, "GoodReg", "goodreg.net");
        let d = w
            .purchase(
                r,
                "err",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        // Stalling or resuming with nothing scheduled: the dedicated
        // error, not a misleading "DNSSEC unsupported".
        assert_eq!(w.stall_rollover(&d), Err(ActionError::NoPendingRollover));
        assert_eq!(w.resume_rollover(&d), Err(ActionError::NoPendingRollover));
        let plan = rollover::RolloverPlan::correct(
            rollover::RolloverStyle::DoubleSignatureKsk,
            w.today.plus_days(1),
        );
        w.schedule_rollover(&d, plan.clone()).unwrap();
        // A second plan while one is in flight is an explicit error…
        assert_eq!(
            w.schedule_rollover(&d, plan.clone().with_ds_timing(rollover::DsTiming::Cds)),
            Err(ActionError::RolloverInProgress)
        );
        // …that leaves the first plan untouched: it runs to completion.
        assert_eq!(w.rollover_state(&d).map(|s| &s.plan), Some(&plan));
        w.advance_to(plan.completion());
        assert!(w.rollover_state(&d).is_none());
        assert_eq!(deployment_on(&w, &d), DeploymentStatus::FullyDeployed);
        assert_eq!(
            w.stall_rollover(&Name::parse("ghost.com").unwrap()),
            Err(ActionError::NoPendingRollover)
        );
    }

    #[test]
    fn full_chain_resolves_securely_through_resolver() {
        use dsec_resolver::{Resolver, Security};
        let mut w = small_world();
        let r = add_full_registrar(&mut w, "GoodReg", "goodreg.net");
        let d = w
            .purchase(
                r,
                "shop",
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x.com",
            )
            .unwrap();
        let resolver = Resolver::new(w.network.clone(), w.trust_anchor());
        let www = d.child("www").unwrap();
        let answer = resolver
            .resolve(&www, dsec_wire::RrType::A, now(&w))
            .unwrap();
        assert_eq!(answer.security, Security::Secure);
        assert_eq!(answer.records.len(), 1);
    }
}
