//! Cross-crate integration: the full chain of trust from the root zone to
//! a customer domain, exercised through the ecosystem, served by the
//! authserver, and judged by the validating resolver — including the
//! failure injections that make DNSSEC domains go dark.

use dsec::dnssec::validate::ValidationError;
use dsec::ecosystem::{
    DsSubmission, ExternalDs, Hosting, OperatorDnssec, Plan, RegistrarId, RegistrarPolicy, Tld,
    TldPolicy, TldRole, World, WorldConfig, ALL_TLDS,
};
use dsec::resolver::{Resolver, Security};
use dsec::wire::{DsRdata, Name, Rcode, RrType};

fn world() -> World {
    World::new(WorldConfig {
        key_pool: 2,
        ..WorldConfig::default()
    })
}

fn full_registrar(w: &mut World) -> RegistrarId {
    w.add_registrar(
        "FullReg",
        Name::parse("fullreg.net").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Default,
            external_ds: ExternalDs::Web { validates: false },
            tlds: ALL_TLDS
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                .collect(),
        },
    )
}

#[test]
fn signed_domain_resolves_securely_in_every_tld() {
    let mut w = world();
    let r = full_registrar(&mut w);
    let resolver = Resolver::new(w.network.clone(), w.trust_anchor());
    for tld in ALL_TLDS {
        let domain = w
            .purchase(
                r,
                "secure",
                tld,
                Hosting::Registrar { plan: Plan::Free },
                "o@x",
            )
            .unwrap();
        let www = domain.child("www").unwrap();
        let answer = resolver
            .resolve(&www, RrType::A, w.today.epoch_seconds())
            .unwrap();
        assert_eq!(answer.security, Security::Secure, "{tld}");
        assert_eq!(
            answer.chain,
            vec![Name::root(), tld.zone(), domain],
            "{tld} walks root → TLD → SLD"
        );
    }
}

#[test]
fn unsigned_domain_resolves_insecurely() {
    let mut w = world();
    let r = w.add_registrar(
        "PlainReg",
        Name::parse("plainreg.net").unwrap(),
        RegistrarPolicy::no_dnssec(&ALL_TLDS),
    );
    // Hosted unsigned domains have no materialized zone, so probe the
    // registry-level state through an owner-hosted unsigned domain.
    let domain = w
        .purchase(r, "plain", Tld::Com, Hosting::Owner, "o@x")
        .unwrap();
    let resolver = Resolver::new(w.network.clone(), w.trust_anchor());
    let www = domain.child("www").unwrap();
    let answer = resolver
        .resolve(&www, RrType::A, w.today.epoch_seconds())
        .unwrap();
    assert_eq!(answer.security, Security::Insecure);
    assert_eq!(answer.records.len(), 1);
}

#[test]
fn partial_deployment_is_insecure_not_bogus() {
    // DNSKEY+RRSIG published, DS never uploaded (the paper's partial
    // state): resolvable, but without DNSSEC's benefit.
    let mut w = world();
    let r = full_registrar(&mut w);
    let domain = w
        .purchase(r, "partial", Tld::Com, Hosting::Owner, "o@x")
        .unwrap();
    w.owner_sign_zone(&domain).unwrap(); // DS intentionally not conveyed
    let resolver = Resolver::new(w.network.clone(), w.trust_anchor());
    let www = domain.child("www").unwrap();
    let answer = resolver
        .resolve(&www, RrType::A, w.today.epoch_seconds())
        .unwrap();
    assert_eq!(answer.security, Security::Insecure);
    assert_eq!(answer.records.len(), 1);
}

#[test]
fn garbage_ds_takes_domain_offline_for_validators() {
    // A registrar that accepts anything as a DS (10 of 12 web forms in
    // the paper) lets a copy/paste error break the whole domain.
    let mut w = world();
    let r = full_registrar(&mut w);
    let domain = w
        .purchase(r, "broken", Tld::Com, Hosting::Owner, "o@x")
        .unwrap();
    w.owner_sign_zone(&domain).unwrap();
    let garbage = DsRdata {
        key_tag: 1,
        algorithm: 8,
        digest_type: 2,
        digest: b"wrong clipboard contents".to_vec(),
    };
    assert_eq!(
        w.upload_ds(&domain, garbage, DsSubmission::Web).unwrap(),
        dsec::ecosystem::UploadOutcome::Accepted
    );
    let resolver = Resolver::new(w.network.clone(), w.trust_anchor());
    let www = domain.child("www").unwrap();
    let answer = resolver
        .resolve(&www, RrType::A, w.today.epoch_seconds())
        .unwrap();
    assert_eq!(answer.rcode, Rcode::ServFail);
    assert!(matches!(
        answer.security,
        Security::Bogus(ValidationError::DsPointsNowhere { .. })
    ));
    // A non-validating client (no trust anchor) still resolves — exactly
    // the partial-failure mode the paper describes.
    let plain = Resolver::new(w.network.clone(), Vec::new());
    let answer = plain
        .resolve(&www, RrType::A, w.today.epoch_seconds())
        .unwrap();
    assert_eq!(answer.records.len(), 1);
}

#[test]
fn signature_expiry_is_detected_later_in_time() {
    let mut w = world();
    let r = full_registrar(&mut w);
    let domain = w
        .purchase(
            r,
            "aging",
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "o@x",
        )
        .unwrap();
    let resolver = Resolver::new(w.network.clone(), w.trust_anchor());
    let www = domain.child("www").unwrap();
    let now = w.today.epoch_seconds();
    assert_eq!(
        resolver.resolve(&www, RrType::A, now).unwrap().security,
        Security::Secure
    );
    // Far beyond every signature's validity (sim end + 400 days margin).
    let far = now + 3000 * 86_400;
    let answer = resolver.resolve(&www, RrType::A, far).unwrap();
    assert_eq!(answer.rcode, Rcode::ServFail);
}

#[test]
fn ds_removal_downgrades_to_insecure() {
    // Removing the DS (e.g. before a transfer) makes the domain insecure
    // but reachable — the correct rollback path.
    let mut w = world();
    let r = full_registrar(&mut w);
    let domain = w
        .purchase(
            r,
            "rollback",
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "o@x",
        )
        .unwrap();
    let sponsor = w.domain(&domain).unwrap().sponsor;
    w.registry_mut(Tld::Com)
        .remove_ds(sponsor, &domain)
        .unwrap();
    let resolver = Resolver::new(w.network.clone(), w.trust_anchor());
    let www = domain.child("www").unwrap();
    let answer = resolver
        .resolve(&www, RrType::A, w.today.epoch_seconds())
        .unwrap();
    assert_eq!(answer.security, Security::Insecure);
    assert_eq!(answer.records.len(), 1);
}

#[test]
fn third_party_relay_gap_visible_to_resolver() {
    // Cloudflare-style: operator signs, owner forgets the DS relay. The
    // resolver sees an insecure (not secure!) domain even though the
    // operator did everything right.
    let mut w = world();
    let r = full_registrar(&mut w);
    let cf = w.add_third_party(
        "Cf",
        Name::parse("cf-dns.sim").unwrap(),
        Some(w.today),
        0.0,
        0.6,
    );
    let domain = w
        .purchase(
            r,
            "relayless",
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "o@x",
        )
        .unwrap();
    w.enroll_third_party(&domain, cf).unwrap();
    let ds = w.third_party_enable_dnssec(&domain).unwrap();
    let resolver = Resolver::new(w.network.clone(), w.trust_anchor());
    let www = domain.child("www").unwrap();
    let now = w.today.epoch_seconds();
    assert_eq!(
        resolver.resolve(&www, RrType::A, now).unwrap().security,
        Security::Insecure,
        "signed at the operator but unchained"
    );
    // Owner finally relays the DS → secure.
    w.upload_ds(&domain, ds, DsSubmission::Web).unwrap();
    assert_eq!(
        resolver.resolve(&www, RrType::A, now).unwrap().security,
        Security::Secure
    );
}
