//! Authorities answer from the zones as they are now, end to end:
//!
//! * a repeated question sees every zone mutation edge on the very next
//!   query — a re-sign with fresh keys, a rollover phase entry (CDS
//!   publication and completion), and a DS swap at the parent registry;
//! * a registrar-channel takeover redelegates on the very next query —
//!   no pre-takeover bytes are served across the capture or the restore.

use std::collections::BTreeSet;

use dsec::attack::{AttackCampaign, AttackPlan, AttackVector};
use dsec::crypto::DigestType;
use dsec::ecosystem::{
    DsSubmission, ExternalDs, Hosting, OperatorDnssec, RegistrarPolicy, Tld, TldPolicy, TldRole,
    World, WorldConfig,
};
use dsec::resolver::{Exchange, Resolver, RetryPolicy, Security};
use dsec::wire::{Message, Name, RData, RrType};
use dsec::workloads::{build, PopulationConfig};

/// The lexically-first signed domain: deterministic across same-seed
/// worlds, guaranteed to have keys and a parent DS.
fn signed_domain(world: &World) -> Name {
    world
        .domains()
        .filter(|d| d.is_signed())
        .map(|d| d.name.clone())
        .min_by_key(|n| n.to_canonical().to_string())
        .expect("tiny population has signed domains")
}

/// Asks `servers` for (`qname`, `rtype`) through the one exchange every
/// client uses.
fn ask(world: &World, servers: &[Name], qname: &Name, rtype: RrType) -> Option<Message> {
    let query = Message::query(1, qname.clone(), rtype, true);
    Exchange::new(&world.network, RetryPolicy::default(), None)
        .ask(servers, &query)
        .into_response()
}

/// Asks `domain`'s delegated nameservers.
fn ask_domain(world: &World, domain: &Name, rtype: RrType) -> Option<Message> {
    let tld = Tld::of_domain(domain).expect("a studied TLD");
    ask(world, &world.registry(tld).ns_of(domain), domain, rtype)
}

fn dnskey_tags(resp: &Message) -> BTreeSet<u16> {
    resp.answers
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Dnskey(k) => Some(k.key_tag()),
            _ => None,
        })
        .collect()
}

#[test]
fn resign_with_fresh_keys_is_visible_immediately() {
    let mut pw = build(&PopulationConfig::tiny());
    let domain = signed_domain(&pw.world);

    let first = ask_domain(&pw.world, &domain, RrType::Dnskey).expect("answer");
    let repeat = ask_domain(&pw.world, &domain, RrType::Dnskey).expect("answer");
    assert_eq!(first.answers, repeat.answers, "a repeat must echo the answer");

    let old_tags = dnskey_tags(&first);
    pw.world.roll_keys_abrupt(&domain).expect("re-sign with new keys");

    // The same question again must be answered from the re-signed zone.
    let after = ask_domain(&pw.world, &domain, RrType::Dnskey).expect("answer");
    let new_keys = pw.world.domain(&domain).unwrap().keys.clone().unwrap();
    let expected: BTreeSet<u16> = [new_keys.ksk_tag(), new_keys.zsk_tag()].into();
    assert_eq!(dnskey_tags(&after), expected, "served DNSKEYs match the new keys");
    assert_ne!(dnskey_tags(&after), old_tags, "rollover changed the key tags");
}

#[test]
fn rollover_phase_entry_is_visible_immediately() {
    let mut pw = build(&PopulationConfig::tiny());
    let domain = signed_domain(&pw.world);

    // Ask for the negative answer twice: no CDS is published yet.
    let before = ask_domain(&pw.world, &domain, RrType::Cds).expect("answer");
    assert!(
        !before.answers.iter().any(|r| matches!(r.rdata, RData::Cds(_))),
        "no CDS before the rollover starts"
    );
    let _ = ask_domain(&pw.world, &domain, RrType::Cds);

    // Phase 1: CDS published, signed by the still-chained old keys. The
    // earlier NODATA must not outlive the zone edit.
    let new_ds = pw.world.prepare_rollover(&domain).expect("phase 1");
    let during = ask_domain(&pw.world, &domain, RrType::Cds).expect("answer");
    let served_cds: Vec<_> = during
        .answers
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Cds(ds) => Some(ds.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(served_cds.len(), 1, "exactly one CDS after phase 1");
    assert_eq!(served_cds[0].digest, new_ds.digest, "CDS carries the new DS");

    // Ask for the DNSKEYs under the old keys, then complete: the new
    // key set must be served on the very next query.
    let _ = ask_domain(&pw.world, &domain, RrType::Dnskey);
    pw.world.complete_rollover(&domain).expect("phase 2");
    let after = ask_domain(&pw.world, &domain, RrType::Dnskey).expect("answer");
    assert!(
        dnskey_tags(&after).contains(&new_ds.key_tag),
        "completed rollover serves the DNSKEY the new DS points at"
    );
}

#[test]
fn ds_swap_at_the_registry_is_visible_immediately() {
    let mut pw = build(&PopulationConfig::tiny());
    let domain = signed_domain(&pw.world);
    let d = pw.world.domain(&domain).unwrap();
    let (tld, sponsor) = (d.tld, d.sponsor);
    let keys = d.keys.clone().unwrap();

    // Ask for the parent-side DS at the registry's nameserver, twice.
    let ns = tld.registry_ns();
    let before = ask(&pw.world, std::slice::from_ref(&ns), &domain, RrType::Ds).expect("registry answers");
    let old_digests: BTreeSet<Vec<u8>> = before
        .answers
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Ds(ds) => Some(ds.digest.clone()),
            _ => None,
        })
        .collect();
    assert!(!old_digests.is_empty(), "signed domain has a parent DS");
    let repeat = ask(&pw.world, std::slice::from_ref(&ns), &domain, RrType::Ds).expect("registry answers");
    assert_eq!(before.answers, repeat.answers);

    // Swap the DS to a SHA-384 digest of the same KSK. `set_ds` edits the
    // TLD zone through the same mutation path as everything else, and
    // the next answer must come from the edited zone.
    let swapped = keys.ds(DigestType::Sha384);
    pw.world
        .registry_mut(tld)
        .set_ds(sponsor, &domain, std::slice::from_ref(&swapped))
        .expect("sponsor may swap the DS");
    let after = ask(&pw.world, std::slice::from_ref(&ns), &domain, RrType::Ds).expect("registry answers");
    let new_digests: BTreeSet<Vec<u8>> = after
        .answers
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Ds(ds) => Some(ds.digest.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(
        new_digests,
        BTreeSet::from([swapped.digest.clone()]),
        "swapped DS served immediately"
    );
    assert_ne!(new_digests, old_digests, "digest actually changed");
}

/// A takeover must be visible on the very next query, and the rollback
/// just as fast: neither the registry's earlier referral nor the old
/// authority's earlier answers may leak across the NS swap in either
/// direction.
#[test]
fn hijacked_delegation_never_serves_pre_takeover_cached_bytes() {
    let mut world = World::new(WorldConfig::default());
    let registrar = world.add_registrar(
        "LaxMail",
        Name::parse("laxmail.net").unwrap(),
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
    let victim = world
        .purchase(registrar, "victim", Tld::Com, Hosting::Owner, "owner@victim.com")
        .unwrap();
    let ds = world.owner_sign_zone(&victim).unwrap();
    world
        .upload_ds(
            &victim,
            ds,
            DsSubmission::Email {
                claimed_from: "owner@victim.com".into(),
                actual_from: "owner@victim.com".into(),
            },
        )
        .unwrap();
    let www = victim.child("www").unwrap();
    let a_of = |world: &World, anchors: bool| {
        let anchors = if anchors { world.trust_anchor() } else { Vec::new() };
        let resp = Resolver::new(world.network.clone(), anchors)
            .resolve(&www, RrType::A, world.today.epoch_seconds())
            .unwrap();
        let a: Vec<RData> = resp
            .records
            .iter()
            .filter(|r| matches!(r.rdata, RData::A(_)))
            .map(|r| r.rdata.clone())
            .collect();
        (resp.security, a)
    };

    // Ask twice along the resolution path (registry referral + victim
    // authority answer), and pin the pre-takeover bytes.
    let (security, original_a) = a_of(&world, true);
    assert_eq!(security, Security::Secure);
    assert!(!original_a.is_empty());
    let _ = a_of(&world, true);

    // The forged redelegation lands.
    let mut campaign = AttackCampaign::new();
    campaign.schedule(
        victim.clone(),
        AttackPlan::new(
            AttackVector::ForgedNs { stealthy: false },
            world.today.plus_days(1),
        )
        .with_detection(1),
    );
    world.tick();
    campaign.tick(&mut world);
    assert_eq!(campaign.hijacked_zones(), vec![victim.clone()]);

    // Next query, same network: a non-validating client
    // gets the attacker's bytes — never the pre-takeover answer — and a
    // validating one gets nothing at all.
    let (nv_security, hijacked_a) = a_of(&world, false);
    assert_eq!(nv_security, Security::Insecure);
    assert!(!hijacked_a.is_empty(), "the forged zone answers");
    assert!(
        hijacked_a.iter().all(|r| !original_a.contains(r)),
        "pre-takeover cached bytes must not survive the takeover: {hijacked_a:?}"
    );
    let (security, bogus_a) = a_of(&world, true);
    assert!(matches!(security, Security::Bogus(_)));
    assert!(bogus_a.is_empty());

    // Detection restores DS + NS; the next query must serve the original
    // bytes again, not the attacker's now-stale answers.
    world.tick();
    campaign.tick(&mut world);
    let (security, restored_a) = a_of(&world, true);
    assert_eq!(security, Security::Secure);
    assert_eq!(restored_a, original_a, "restore serves the pre-attack bytes");
}
