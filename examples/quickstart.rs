//! Quickstart: build a tiny world, deploy DNSSEC on one domain the way a
//! customer would, and watch a validating resolver accept — then reject —
//! the chain.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dsec::dnssec::{classify, DeploymentStatus};
use dsec::ecosystem::{
    DsSubmission, ExternalDs, Hosting, OperatorDnssec, Plan, RegistrarPolicy, Tld, TldPolicy,
    TldRole, World, WorldConfig, ALL_TLDS,
};
use dsec::resolver::{Resolver, Security};
use dsec::wire::{DsRdata, Name, RrType};

fn main() {
    // A world with signed root + TLD registries, starting 2015-03-01.
    let mut world = World::new(WorldConfig::default());
    println!("world starts on {}", world.today);

    // A registrar that does everything right: signs hosted domains by
    // default and validates DS uploads (the OVH/TransIP end of Table 2).
    let registrar = world.add_registrar(
        "GoodReg",
        Name::parse("goodreg.net").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Default,
            external_ds: ExternalDs::Web { validates: true },
            tlds: ALL_TLDS
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                .collect(),
        },
    );

    // 1. Buy a registrar-hosted domain: signed and chained automatically.
    let domain = world
        .purchase(
            registrar,
            "quickstart",
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "owner@quickstart.example",
        )
        .expect("purchase succeeds");
    let obs = world.observation_of(&domain);
    let status = classify(&domain, &obs, world.today.epoch_seconds());
    println!("{domain} after purchase: {status:?}");
    assert_eq!(status, DeploymentStatus::FullyDeployed);

    // 2. A validating resolver walks root → com → quickstart.com securely.
    let resolver = Resolver::new(world.network.clone(), world.trust_anchor());
    let www = domain.child("www").unwrap();
    let answer = resolver
        .resolve(&www, RrType::A, world.today.epoch_seconds())
        .expect("resolution completes");
    println!(
        "resolve {www} → {} record(s), security {:?}, chain {:?}",
        answer.records.len(),
        answer.security,
        answer
            .chain
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(answer.security, Security::Secure);

    // 3. Move to our own nameserver and redo the deployment by hand —
    //    the workflow the paper's authors walked at 30 registrars.
    let ns = world.switch_to_owner_hosting(&domain).unwrap();
    println!("switched to owner hosting at {ns}");
    let ds = world.owner_sign_zone(&domain).unwrap();
    println!(
        "zone signed; DS to convey: tag {} alg {} digest-type {}",
        ds.key_tag, ds.algorithm, ds.digest_type
    );

    // A garbage DS (the copy/paste error most registrars would accept —
    // but GoodReg validates).
    let garbage = DsRdata {
        key_tag: 4242,
        algorithm: 8,
        digest_type: 2,
        digest: b"oops wrong clipboard".to_vec(),
    };
    let rejected = world
        .upload_ds(&domain, garbage, DsSubmission::Web)
        .unwrap();
    println!("garbage DS upload: {rejected:?}");

    let accepted = world.upload_ds(&domain, ds, DsSubmission::Web).unwrap();
    println!("real DS upload: {accepted:?}");
    let obs = world.observation_of(&domain);
    let status = classify(&domain, &obs, world.today.epoch_seconds());
    println!("{domain} after manual deployment: {status:?}");
    assert_eq!(status, DeploymentStatus::FullyDeployed);

    // 4. Time passes; the world keeps serving and the chain keeps
    //    validating.
    world.advance_to(world.today.plus_days(30));
    let answer = resolver
        .resolve(&www, RrType::A, world.today.epoch_seconds())
        .unwrap();
    println!(
        "30 days later ({}): still {:?}",
        world.today, answer.security
    );
    assert_eq!(answer.security, Security::Secure);

    println!("quickstart OK");
}
