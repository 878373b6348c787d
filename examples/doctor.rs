//! A DNSSEC "doctor": the DNSViz-style chain diagnosis the paper's §3
//! points administrators at, run against three domains in the three
//! states the study cares about — healthy, partial, and broken — plus a
//! healthy domain whose first nameserver is lame.
//!
//! ```sh
//! cargo run --release --example doctor
//! ```

use std::rc::Rc;

use dsec::authserver::Authority;
use dsec::ecosystem::{
    DsSubmission, ExternalDs, Hosting, OperatorDnssec, Plan, RegistrarPolicy, Tld, TldPolicy,
    TldRole, World, WorldConfig, ALL_TLDS,
};
use dsec::resolver::diagnose;
use dsec::wire::{DsRdata, Name};

fn main() {
    let mut world = World::new(WorldConfig::default());
    let registrar = world.add_registrar(
        "DocReg",
        Name::parse("docreg.net").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Default,
            external_ds: ExternalDs::Web { validates: false }, // accepts garbage
            tlds: ALL_TLDS
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                .collect(),
        },
    );

    // Healthy: registrar-hosted with default signing.
    let healthy = world
        .purchase(
            registrar,
            "healthy",
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "o@x",
        )
        .unwrap();

    // Partial: owner-signed, DS never conveyed (the paper's 30%).
    let partial = world
        .purchase(registrar, "partial", Tld::Com, Hosting::Owner, "o@x")
        .unwrap();
    world.owner_sign_zone(&partial).unwrap();

    // Broken: owner-signed, garbage DS accepted by the sloppy web form.
    let broken = world
        .purchase(registrar, "broken", Tld::Com, Hosting::Owner, "o@x")
        .unwrap();
    world.owner_sign_zone(&broken).unwrap();
    world
        .upload_ds(
            &broken,
            DsRdata {
                key_tag: 4096,
                algorithm: 8,
                digest_type: 2,
                digest: b"copy paste error strikes again !".to_vec(),
            },
            DsSubmission::Web,
        )
        .unwrap();

    // Lame first NS: a secondary added to the delegation that never got
    // the zone answers REFUSED, and the real server behind it still
    // serves the signed zone. Lame is "no data here", not "unsigned".
    let lame_first = world
        .purchase(
            registrar,
            "lamefirst",
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "o@x",
        )
        .unwrap();
    let secondary = Name::parse("ns.forgotten-secondary.net").unwrap();
    world
        .network
        .register(secondary.clone(), Rc::new(Authority::new()));
    let mut ns = vec![secondary];
    ns.extend(world.registry(Tld::Com).ns_of(&lame_first));
    world
        .submit_ns_change(&lame_first, &ns, DsSubmission::Web)
        .unwrap();

    let anchor = world.trust_anchor();
    let now = world.today.epoch_seconds();
    for domain in [&healthy, &partial, &broken, &lame_first] {
        let report = diagnose(&world.network, &anchor, domain, now);
        println!("{report}");
    }

    // Sanity for CI use of the example.
    assert!(diagnose(&world.network, &anchor, &healthy, now).is_secure());
    assert!(!diagnose(&world.network, &anchor, &partial, now).is_secure());
    assert!(!diagnose(&world.network, &anchor, &broken, now).is_secure());
    assert!(diagnose(&world.network, &anchor, &lame_first, now).is_secure());
    println!("doctor OK");
}
