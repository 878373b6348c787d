//! End-to-end tests of the registrar-compromise attack plane: the
//! abrupt takeover → detection → restore cycle observed through the
//! resolver, property tests pinning that authenticated and validating
//! channels never pass a forged DS, and the traffic plane's
//! `validating_share` default staying byte-identical to the
//! pre-attack-plane tallies.

use proptest::prelude::*;

use dsec::attack::{AttackCampaign, AttackPhase, AttackPlan, AttackVector};
use dsec::crypto::DigestType;
use dsec::ecosystem::{
    DsSubmission, ExternalDs, Hosting, OperatorDnssec, RegistrarPolicy, Tld, TldPolicy, TldRole,
    UploadOutcome, World, WorldConfig,
};
use dsec::resolver::{Resolver, Security};
use dsec::traffic::{run_load, LoadConfig};
use dsec::wire::{DsRdata, Name, RrType};
use dsec::workloads::{build, PopulationConfig};

/// A world with one email-channel registrar sponsoring one
/// correctly-deployed owner-hosted domain.
fn email_world(channel: ExternalDs) -> (World, Name) {
    let mut world = World::new(WorldConfig::default());
    let registrar = world.add_registrar(
        "MailReg",
        Name::parse("mailreg.net").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Unsupported,
            external_ds: channel,
            tlds: [(Tld::Com, TldPolicy::full(TldRole::Registrar))].into(),
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
    let ds = world.owner_sign_zone(&victim).unwrap();
    let ok = world
        .upload_ds(
            &victim,
            ds,
            DsSubmission::Email {
                claimed_from: "owner@victim.com".into(),
                actual_from: "owner@victim.com".into(),
            },
        )
        .unwrap_or(UploadOutcome::ChannelUnsupported);
    // Channels that can't carry the legit DS by email get it installed
    // out of band — the takeover tests need a complete chain to break.
    if ok != UploadOutcome::Accepted {
        let sponsor = world.domain(&victim).unwrap().sponsor;
        let ds = world
            .domain(&victim)
            .unwrap()
            .keys
            .as_ref()
            .unwrap()
            .ds(DigestType::Sha256);
        world
            .registry_mut(Tld::Com)
            .set_ds(sponsor, &victim, &[ds])
            .unwrap();
    }
    (world, victim)
}

fn lax_email() -> ExternalDs {
    ExternalDs::Email {
        verifies_sender: false,
        accepts_foreign_sender: false,
        validates: false,
    }
}

fn security_of(world: &World, name: &Name) -> (Security, usize) {
    let resolver = Resolver::new(world.network.clone(), world.trust_anchor());
    let resp = resolver
        .resolve(name, RrType::A, world.today.epoch_seconds())
        .unwrap();
    (resp.security, resp.records.len())
}

/// The full lifecycle under the lax channel: the NS takeover lands, a
/// validating resolver flags the forged zone bogus, detection restores
/// the original DS *and* NS, and the chain closes Secure again — with
/// every phase transition and security event on the record.
#[test]
fn abrupt_takeover_detection_and_restore_recovers_secure() {
    let (mut world, victim) = email_world(lax_email());
    let www = victim.child("www").unwrap();
    assert_eq!(security_of(&world, &www).0, Security::Secure);
    let ds_before = world.registry(Tld::Com).ds_of(&victim);
    let ns_before = world.registry(Tld::Com).ns_of(&victim);

    let mut campaign = AttackCampaign::new();
    campaign.schedule(
        victim.clone(),
        AttackPlan::new(
            AttackVector::ForgedNs { stealthy: false },
            world.today.plus_days(1),
        )
        .with_detection(2),
    );
    assert_eq!(
        campaign.state(&victim).unwrap().phase,
        AttackPhase::Scheduled
    );

    // Day 1: the forgery lands; the attacker's authority answers, so a
    // validating client is saved by the now-unmatchable DS.
    world.tick();
    campaign.tick(&mut world);
    assert_eq!(
        campaign.state(&victim).unwrap().phase,
        AttackPhase::Captured
    );
    assert_eq!(campaign.hijacked_zones(), vec![victim.clone()]);
    assert_eq!(world.events.count("forged_ns_accepted"), 1);
    let (security, records) = security_of(&world, &www);
    assert!(matches!(security, Security::Bogus(_)), "{security:?}");
    assert_eq!(records, 0);
    assert_ne!(world.registry(Tld::Com).ns_of(&victim), ns_before);

    // Day 2: still captured.
    world.tick();
    campaign.tick(&mut world);
    assert_eq!(
        campaign.state(&victim).unwrap().phase,
        AttackPhase::Captured
    );

    // Day 3: detection fires — DS and NS both roll back, the attacker
    // zone is withdrawn, and validation closes Secure again.
    world.tick();
    campaign.tick(&mut world);
    assert_eq!(
        campaign.state(&victim).unwrap().phase,
        AttackPhase::Restored
    );
    assert!(campaign.hijacked_zones().is_empty());
    assert_eq!(world.events.count("hijack_detected"), 1);
    assert_eq!(world.events.count("hijack_remediated"), 1);
    assert_eq!(world.registry(Tld::Com).ds_of(&victim), ds_before);
    assert_eq!(world.registry(Tld::Com).ns_of(&victim), ns_before);
    let (security, records) = security_of(&world, &www);
    assert_eq!(security, Security::Secure);
    assert!(records > 0);
}

/// A forged DS through the verified-sender channel is repelled without
/// touching the registry, and the repelled attempt is logged.
#[test]
fn verified_sender_channel_repels_the_campaign() {
    let (mut world, victim) = email_world(ExternalDs::Email {
        verifies_sender: true,
        accepts_foreign_sender: false,
        validates: false,
    });
    let ds_before = world.registry(Tld::Com).ds_of(&victim);
    let mut campaign = AttackCampaign::new();
    campaign.schedule(
        victim.clone(),
        AttackPlan::new(AttackVector::ForgedDs, world.today.plus_days(1)),
    );
    let until = world.today.plus_days(2);
    campaign.advance_to(&mut world, until);
    assert_eq!(
        campaign.state(&victim).unwrap().phase,
        AttackPhase::Repelled
    );
    assert!(campaign.captured().is_empty());
    assert_eq!(world.events.count("attack_repelled"), 1);
    assert_eq!(world.events.count("forged_email_accepted"), 0);
    assert_eq!(world.registry(Tld::Com).ds_of(&victim), ds_before);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// No combination of forged sender fields gets a DS past the
    /// verified-sender email channel: acceptance requires control of the
    /// registrant's actual mailbox, not its spelling in a header.
    #[test]
    fn verified_sender_email_never_accepts_a_forged_ds(
        claimed_local in proptest::string::string_regex("[a-z]{1,12}").unwrap(),
        actual_local in proptest::string::string_regex("[a-z]{1,12}").unwrap(),
        claim_registrant in any::<bool>(),
        key_tag in any::<u16>(),
        digest_byte in any::<u8>(),
    ) {
        let (mut world, victim) = email_world(ExternalDs::Email {
            verifies_sender: true,
            accepts_foreign_sender: false,
            validates: false,
        });
        let registrant = "owner@victim.com";
        // The attacker can forge the header perfectly; what they cannot
        // forge is which mailbox the mail really left from — anything
        // at a domain they control is, by construction, not the
        // registrant's.
        let claimed = if claim_registrant {
            registrant.to_string()
        } else {
            format!("{claimed_local}@somewhere.example")
        };
        let actual = format!("{actual_local}@attacker.example");
        let outcome = world.upload_ds(
            &victim,
            DsRdata { key_tag, algorithm: 8, digest_type: 2, digest: vec![digest_byte; 32] },
            DsSubmission::Email { claimed_from: claimed, actual_from: actual },
        ).unwrap();
        prop_assert_eq!(outcome, UploadOutcome::EmailNotVerified);
        prop_assert_eq!(world.events.count("forged_email_accepted"), 0);
    }

    /// Validating channels (here the web form that checks the DS against
    /// the served DNSKEY) never accept a DS that matches no served key —
    /// whatever rdata the attacker invents.
    #[test]
    fn validating_web_form_never_accepts_an_unmatched_ds(
        key_tag in any::<u16>(),
        algorithm in any::<u8>(),
        digest_type in 1u8..3,
        digest in proptest::collection::vec(any::<u8>(), 20..33),
    ) {
        let (mut world, victim) = email_world(ExternalDs::Web { validates: true });
        let outcome = world.upload_ds(
            &victim,
            DsRdata { key_tag, algorithm, digest_type, digest },
            DsSubmission::Web,
        ).unwrap();
        // A random digest colliding with the real key's is ~2^-160;
        // anything but a rejection is a real bug.
        prop_assert_eq!(outcome, UploadOutcome::RejectedInvalid);
    }

    /// The NS-change path enforces the same sender authentication as the
    /// DS path: a verified-sender channel never redelegates for a forged
    /// mail, whatever the header claims.
    #[test]
    fn verified_sender_email_never_accepts_a_forged_ns(
        actual_local in proptest::string::string_regex("[a-z]{1,12}").unwrap(),
        claim_registrant in any::<bool>(),
    ) {
        let (mut world, victim) = email_world(ExternalDs::Email {
            verifies_sender: true,
            accepts_foreign_sender: false,
            validates: false,
        });
        let registrant = "owner@victim.com";
        let actual = format!("{actual_local}@attacker.example");
        let ns_before = world.registry(Tld::Com).ns_of(&victim);
        let evil = Name::parse("ns1.mallory-dns.example").unwrap();
        let outcome = world.submit_ns_change(
            &victim,
            std::slice::from_ref(&evil),
            DsSubmission::Email {
                claimed_from: if claim_registrant { registrant.into() } else { actual.clone() },
                actual_from: actual,
            },
        ).unwrap();
        prop_assert_eq!(outcome, UploadOutcome::EmailNotVerified);
        prop_assert_eq!(world.registry(Tld::Com).ns_of(&victim), ns_before);
        prop_assert_eq!(world.events.count("forged_ns_accepted"), 0);
    }
}

/// `validating_share` defaults to a fully validating fleet: explicit 1.0
/// (and an empty captured list) must leave every tally byte-identical to
/// the untouched default config — the attack plane is invisible until
/// someone turns the knob.
#[test]
fn full_validating_share_is_byte_identical_to_the_default() {
    let pw = build(&PopulationConfig::tiny());
    let base = LoadConfig::default().with_queries(2_000).with_seed(7);
    let default_run = run_load(&pw.world, &base);
    let explicit_run = run_load(
        &pw.world,
        &base
            .clone()
            .with_validating_share(1.0)
            .with_captured(Vec::new()),
    );
    assert_eq!(default_run.outcomes, explicit_run.outcomes);
    assert_eq!(default_run.by_registrar, explicit_run.by_registrar);
    assert_eq!(default_run.by_operator, explicit_run.by_operator);
    assert_eq!(default_run.histogram, explicit_run.histogram);
    assert_eq!(default_run.resolver, explicit_run.resolver);
    assert_eq!(default_run.outcomes.hijacked, 0);
    assert_eq!(default_run.outcomes.saved_by_validation, 0);
    assert_eq!(
        default_run.summary_line(),
        explicit_run.summary_line(),
        "summary rendering unchanged at share 1.0"
    );
}
