//! The paper's security anecdotes (§5.3/§6.4), driven end to end through
//! the attack plane.
//!
//! Part 1 is a live demo on a hand-built world: an [`AttackCampaign`]
//! forges a DS update and then an NS redelegation through a registrar
//! whose DS-by-email channel performs no sender authentication. The
//! forged DS knocks the victim offline for validating clients; the
//! forged NS hands the whole zone to the attacker's authority — a
//! non-validating client walks straight into the forged zone while a
//! validating one is saved by the unchanged DS. Detection rolls both
//! back to a Secure chain. The same two vectors against a
//! verified-sender channel must bounce — any capture there is a hard
//! failure (the CI examples-smoke job runs this binary).
//!
//! Part 2 runs E-A1 on the tiny population: authenticated-channel arm
//! with zero captures, LaxMail arm whose victim queries split exactly
//! into hijacked vs. saved-by-validation across the mixed resolver
//! fleet, and the hijack riding through an operator outage.
//!
//! Run with: `cargo run --release --example hijack_demo`

use dsec::attack::{AttackCampaign, AttackPhase, AttackPlan, AttackVector};
use dsec::core::experiment_attack_plane;
use dsec::dnssec::{classify, DeploymentStatus, Misconfiguration};
use dsec::ecosystem::{
    DsSubmission, ExternalDs, Hosting, OperatorDnssec, RegistrarPolicy, Tld, TldPolicy, TldRole,
    World, WorldConfig,
};
use dsec::resolver::{Resolver, Security};
use dsec::wire::{Name, RData, RrType};
use dsec::workloads::PopulationConfig;

/// A world with one email-channel registrar sponsoring one
/// correctly-deployed owner-hosted domain. `verifies_sender` selects
/// the strong or the lax end of the paper's Table 2.
fn demo_world(verifies_sender: bool) -> (World, Name) {
    let mut world = World::new(WorldConfig::default());
    let registrar = world.add_registrar(
        if verifies_sender {
            "StrictMail"
        } else {
            "LaxMail"
        },
        Name::parse("demo-reg.net").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Unsupported,
            external_ds: ExternalDs::Email {
                verifies_sender,
                accepts_foreign_sender: false,
                validates: false,
            },
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
    (world, victim)
}

fn phase_of(campaign: &AttackCampaign, domain: &Name) -> AttackPhase {
    campaign.state(domain).expect("scheduled").phase
}

/// Launches `vector` through the campaign and returns the phase it
/// settled in (plus the world for follow-up checks).
fn run_vector(
    verifies_sender: bool,
    vector: AttackVector,
    detect_after: Option<u32>,
) -> (World, Name, AttackCampaign) {
    let (mut world, victim) = demo_world(verifies_sender);
    let mut campaign = AttackCampaign::new();
    let mut plan = AttackPlan::new(vector, world.today.plus_days(1));
    if let Some(days) = detect_after {
        plan = plan.with_detection(days);
    }
    campaign.schedule(victim.clone(), plan);
    let until = world.today.plus_days(2);
    campaign.advance_to(&mut world, until);
    (world, victim, campaign)
}

fn main() {
    // ---- Part 1a: forged DS through the lax channel (sabotage). ----
    let (world, victim, campaign) = run_vector(false, AttackVector::ForgedDs, None);
    let phase = phase_of(&campaign, &victim);
    println!("forged DS via LaxMail email: phase {phase:?}");
    assert_eq!(phase, AttackPhase::Captured);
    let now = world.today.epoch_seconds();
    let status = classify(&victim, &world.observation_of(&victim), now);
    println!("victim.com classification: {status:?}");
    assert_eq!(
        status,
        DeploymentStatus::Misconfigured(Misconfiguration::DsMismatch)
    );
    let resolver = Resolver::new(world.network.clone(), world.trust_anchor());
    let www = victim.child("www").unwrap();
    let resp = resolver.resolve(&www, RrType::A, now).unwrap();
    println!("validating resolver after forged DS: {:?}", resp.security);
    assert!(matches!(resp.security, Security::Bogus(_)));
    assert!(resp.records.is_empty(), "offline for validating clients");

    // ---- Part 1b: forged NS through the lax channel (takeover). ----
    let (world, victim, campaign) =
        run_vector(false, AttackVector::ForgedNs { stealthy: false }, None);
    println!(
        "forged NS via LaxMail email: phase {:?}",
        phase_of(&campaign, &victim)
    );
    assert_eq!(phase_of(&campaign, &victim), AttackPhase::Captured);
    let now = world.today.epoch_seconds();
    let nv = Resolver::new(world.network.clone(), Vec::new());
    let resp = nv.resolve(&www, RrType::A, now).unwrap();
    let attacker_a = resp.records.iter().find_map(|r| match &r.rdata {
        RData::A(ip) => Some(*ip),
        _ => None,
    });
    println!(
        "non-validating client got attacker address: {}",
        attacker_a.map(|ip| ip.to_string()).unwrap_or_default()
    );
    assert_eq!(
        attacker_a.map(|ip| ip.to_string()).as_deref(),
        Some("203.0.113.66")
    );
    let validating = Resolver::new(world.network.clone(), world.trust_anchor());
    let resp = validating.resolve(&www, RrType::A, now).unwrap();
    println!("validating client saved: {:?}", resp.security);
    assert!(matches!(resp.security, Security::Bogus(_)));
    assert!(resp.records.is_empty());

    // ---- Part 1c: detection and remediation restore the chain. ----
    let (world, victim, campaign) =
        run_vector(false, AttackVector::ForgedNs { stealthy: false }, Some(1));
    println!(
        "detection day reached: phase {:?}",
        phase_of(&campaign, &victim)
    );
    assert_eq!(phase_of(&campaign, &victim), AttackPhase::Restored);
    let now = world.today.epoch_seconds();
    let resolver = Resolver::new(world.network.clone(), world.trust_anchor());
    let resp = resolver.resolve(&www, RrType::A, now).unwrap();
    println!(
        "after remediation: {:?} with {} record(s)",
        resp.security,
        resp.records.len()
    );
    assert_eq!(resp.security, Security::Secure);
    assert!(!resp.records.is_empty());

    // ---- Part 1d: the verified-sender channel repels both vectors. ----
    let mut captures = 0;
    for vector in [
        AttackVector::ForgedDs,
        AttackVector::ForgedNs { stealthy: false },
    ] {
        let (world, victim, campaign) = run_vector(true, vector, None);
        let phase = phase_of(&campaign, &victim);
        println!("authenticated channel: {vector:?} {phase:?}");
        assert_eq!(phase, AttackPhase::Repelled);
        captures += campaign.captured().len();
        assert_eq!(
            world.events.count("forged_email_accepted") + world.events.count("forged_ns_accepted"),
            0
        );
    }
    println!("authenticated-arm captures: {captures}");

    // ---- Part 2: E-A1 on the tiny population. ----
    let result = experiment_attack_plane(&PopulationConfig::tiny());
    println!("{}", result.to_markdown());
    println!(
        "verdict: {}",
        if result.reproduced() {
            "attack plane contract held (E-A1 reproduced)"
        } else {
            "attack plane contract broken (see table above)"
        }
    );

    // Any capture past the authenticated channel — or a broken E-A1 —
    // is a hard failure.
    if captures != 0 || !result.reproduced() {
        std::process::exit(1);
    }
}
