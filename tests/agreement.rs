//! The reproduction's strongest cross-check: for every domain in a paper
//! population, the *passive* classification (what the scanner computes
//! from records) must agree with the *active* verdict of an independent
//! validating resolver walking the chain from the root — including when
//! some of a domain's nameservers are lame.

use std::rc::Rc;

use dsec::authserver::{Authority, Fault};
use dsec::dnssec::{classify, DeploymentStatus, Misconfiguration};
use dsec::resolver::{diagnose, Resolver, Security};
use dsec::scanner::{operator_key, OperatorStats, Snapshot};
use dsec::wire::{Name, Rcode, RrType};
use dsec::workloads::{build, PopulationConfig};

#[test]
fn classification_agrees_with_resolver_verdict() {
    let pw = build(&PopulationConfig::tiny());
    let world = &pw.world;
    let resolver = Resolver::new(world.network.clone(), world.trust_anchor());
    let now = world.today.epoch_seconds();

    let mut checked = 0usize;
    for domain in world.domains().map(|d| d.name.clone()) {
        let status = classify(&domain, &world.observation_of(&domain), now);
        // Resolve the domain's www name end to end. Some hosting
        // arrangements (unsigned bulk domains) have no materialized zone:
        // the query terminates with REFUSED, which a validator treats as
        // an (insecure) resolution failure, not bogus data.
        let answer = resolver
            .resolve(&domain.child("www").unwrap(), RrType::A, now)
            .expect("resolution completes");
        match status {
            DeploymentStatus::FullyDeployed => {
                assert_eq!(
                    answer.security,
                    Security::Secure,
                    "{domain}: fully deployed must validate"
                );
                assert_eq!(answer.records.len(), 1, "{domain}");
            }
            DeploymentStatus::PartiallyDeployed | DeploymentStatus::NotDeployed => {
                assert_eq!(
                    answer.security,
                    Security::Insecure,
                    "{domain}: {status:?} must be insecure, never bogus"
                );
            }
            DeploymentStatus::Misconfigured(Misconfiguration::DsMismatch) => {
                assert_eq!(answer.rcode, Rcode::ServFail, "{domain}: broken chain");
            }
            other => panic!("{domain}: unexpected population state {other:?}"),
        }
        checked += 1;
    }
    assert!(checked > 100, "checked {checked} domains");
}

/// The lame-server rows: a signed, fully deployed domain re-delegated to
/// NS sets that mix its real server with a lame one (an empty authority,
/// which answers REFUSED to everything) or with one that SERVFAILs first,
/// and finally to lame servers only. A lame server is "no data from this
/// server", not "no DNSKEY": the resolver from the roots, a cold cached
/// resolver, the observation, the scanner's snapshot cell and `diagnose`
/// must all reach the row's one verdict.
#[test]
fn lame_servers_agree_across_every_reader() {
    let mut pw = build(&PopulationConfig::tiny());
    let world = &mut pw.world;
    let now = world.today.epoch_seconds();
    let domain = world
        .domains()
        .map(|d| d.name.clone())
        .find(|d| classify(d, &world.observation_of(d), now) == DeploymentStatus::FullyDeployed)
        .expect("tiny population has a fully deployed domain");
    let d = world.domain(&domain).unwrap();
    let (tld, sponsor) = (d.tld, d.sponsor);
    let first_ns = world.registry(tld).ns_of(&domain)[0].clone();
    let zone_host = world
        .network
        .authority(&first_ns)
        .expect("the zone's server");

    // Hostnames of the test's own: the snapshot cell of their operator
    // holds this domain alone, and a scripted fault meets only its queries.
    let host = |label: &str| Name::parse(&format!("{label}.agreement.example")).unwrap();
    let (serving, flaky, lame, lame2) =
        (host("serving"), host("flaky"), host("lame"), host("lame2"));
    world.network.register(serving.clone(), zone_host.clone());
    world.network.register(flaky.clone(), zone_host);
    let empty = Rc::new(Authority::new());
    world.network.register(lame.clone(), empty.clone());
    world.network.register(lame2.clone(), empty);
    world.fault_plane().enable(0xA9EE);
    let operator = operator_key(&serving).to_string();

    // Each row: the NS set, the server (if any) that SERVFAILs the first
    // question each reader sends it, and the resolver's rcode. NOERROR
    // rows are Secure / FullyDeployed, the others Insecure / NotDeployed.
    let rows = [
        (vec![lame.clone(), serving.clone()], None, Rcode::NoError),
        (vec![serving.clone(), lame.clone()], None, Rcode::NoError),
        (
            vec![flaky.clone(), serving.clone()],
            Some(&flaky),
            Rcode::NoError,
        ),
        // Lame everywhere and no DS: what an unmaterialized domain is. A
        // transient SERVFAIL first is still the resolver's first error,
        // but the fleet is lame all the same.
        (vec![lame.clone(), lame2.clone()], None, Rcode::Refused),
        (
            vec![lame.clone(), lame2.clone()],
            Some(&lame),
            Rcode::ServFail,
        ),
    ];
    for (ns, servfail_first, rcode) in rows {
        let verdict = rcode == Rcode::NoError;
        let registry = world.registry_mut(tld);
        registry.set_ns(sponsor, &domain, &ns).unwrap();
        if !verdict && registry.has_ds(&domain) {
            registry.remove_ds(sponsor, &domain).unwrap();
        }
        let hosts: Vec<String> = ns.iter().map(Name::to_string).collect();
        let row = format!("{domain} via {}", hosts.join(" "));
        let arm = || {
            if let Some(host) = servfail_first {
                world.fault_plane().script(host, [Fault::ServFail]);
            }
        };
        let www = domain.child("www").unwrap();
        let resolver = || Resolver::new(world.network.clone(), world.trust_anchor());

        arm();
        let walked = resolver().resolve(&www, RrType::A, now).unwrap();
        arm();
        let cold = resolver().resolve_cached(&www, RrType::A, now).unwrap();
        arm();
        let status = classify(&domain, &world.observation_of(&domain), now);
        arm();
        let cell = Snapshot::take_filtered(world, &[tld]).cells[&(operator.clone(), tld)];
        arm();
        let diagnosis = diagnose(&world.network, &world.trust_anchor(), &domain, now);

        let security = if verdict {
            Security::Secure
        } else {
            Security::Insecure
        };
        for answer in [&walked, &cold] {
            let got = (&answer.security, answer.rcode, answer.records.len());
            assert_eq!(got, (&security, rcode, usize::from(verdict)), "{row}");
        }
        if verdict {
            assert_eq!(status, DeploymentStatus::FullyDeployed, "{row}");
            assert_eq!(cell.fully_deployed, 1, "{row}: {cell:?}");
            assert!(diagnosis.is_secure(), "{row}: {diagnosis}");
        } else {
            assert_eq!(status, DeploymentStatus::NotDeployed, "{row}");
            assert_eq!(
                cell,
                OperatorStats {
                    domains: 1,
                    ..OperatorStats::default()
                },
                "{row}"
            );
            assert_eq!(diagnosis.verdict, Security::Insecure, "{row}: {diagnosis}");
        }
    }
}
