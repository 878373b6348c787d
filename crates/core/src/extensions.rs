//! Extension experiments: the paper's §8 recommendations, made runnable.
//!
//! The paper *recommends* but could not measure: CDS/CDNSKEY everywhere
//! (only `.cz` had it), DNSSEC-by-default at the big registrars, and
//! safer rollover mechanics. With the whole ecosystem under our control
//! these become what-if experiments (ids E-X1…E-X3 in DESIGN.md).

use dsec_ecosystem::{
    ExternalDs, Hosting, OperatorDnssec, Plan, PolicyChange, RegistrarPolicy, Tld, TldPolicy,
    TldRole, World, WorldConfig, ALL_TLDS,
};
use dsec_reports::ExperimentResult;
use dsec_resolver::{Resolver, Security};
use dsec_scanner::Snapshot;
use dsec_wire::{Name, RrType};

fn focused_world() -> World {
    World::new(WorldConfig {
        key_pool: 2,
        ..WorldConfig::default()
    })
}

fn policy(
    operator_dnssec: OperatorDnssec,
    external_ds: ExternalDs,
    publishes_ds: bool,
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
                        publishes_ds,
                    },
                )
            })
            .collect(),
    }
}

/// E-X1 — §8 recommendation 2: registries adopting CDS/CDNSKEY with
/// RFC 8078 bootstrapping heal partial deployments without any registrar
/// or customer action.
///
/// Build a Loopia-for-.com-like registrar (signs everything, never
/// uploads DS): all its domains are partial. Enable CDS publication at
/// the operator and RFC 8078 accept-after-delay at the registry, tick
/// past the delay, and measure again.
pub fn experiment_cds_bootstrap(domains: usize) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-X1",
        "Extension: CDS/CDNSKEY bootstrapping heals partial deployments",
    );
    let mut world = focused_world();
    let registrar = world.add_registrar(
        "PartialCo",
        Name::parse("partialco.net").unwrap(),
        policy(
            OperatorDnssec::Default,
            ExternalDs::Unsupported,
            false, // signs but never uploads DS — the partial pattern
        ),
    );
    for i in 0..domains {
        world
            .purchase(
                registrar,
                &format!("p{i}"),
                Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "o@x",
            )
            .expect("purchase succeeds");
    }

    let partial_fraction = |snapshot: &Snapshot| {
        let stats = snapshot.tld_totals(Tld::Com);
        if stats.with_dnskey == 0 {
            0.0
        } else {
            stats.partially_deployed as f64 / stats.with_dnskey as f64
        }
    };
    let full_fraction = |snapshot: &Snapshot| {
        let stats = snapshot.tld_totals(Tld::Com);
        if stats.with_dnskey == 0 {
            0.0
        } else {
            stats.fully_deployed as f64 / stats.with_dnskey as f64
        }
    };

    let before = Snapshot::take_filtered(&world, &[Tld::Com]);
    result.check(
        "baseline: signed domains that are partial",
        1.0,
        partial_fraction(&before),
        0.0,
    );

    // The intervention.
    world.enable_cds_publication(registrar);
    {
        let registry = world.registry_mut(Tld::Com);
        registry.supports_cds = true;
        registry.cds_bootstrap_delay_days = Some(7);
    }
    world.advance_to(world.today.plus_days(10));

    let after = Snapshot::take_filtered(&world, &[Tld::Com]);
    result.check(
        "after CDS bootstrap: signed domains fully deployed",
        1.0,
        full_fraction(&after),
        0.0,
    );
    result.check(
        "after CDS bootstrap: partial remainder",
        0.0,
        partial_fraction(&after),
        0.001,
    );
    result.artifact = format!(
        "before: {:?}\nafter:  {:?}\n",
        before.tld_totals(Tld::Com),
        after.tld_totals(Tld::Com)
    );
    result
}

/// E-X2 — §8 recommendation 1: what if the no-DNSSEC registrars flipped
/// to signing by default? Two identical worlds, one with the policy
/// flipped (existing domains mass-signed over 90 days, the PCExtreme
/// playbook).
pub fn experiment_default_signing_ablation(
    registrars: usize,
    domains_per_registrar: usize,
) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-X2",
        "Ablation: DNSSEC-by-default at the popular registrars",
    );
    let run = |intervene: bool| -> f64 {
        let mut world = focused_world();
        let mut ids = Vec::new();
        for r in 0..registrars {
            let id = world.add_registrar(
                format!("Reg{r}"),
                Name::parse(&format!("reg{r}.net")).unwrap(),
                RegistrarPolicy::no_dnssec(&ALL_TLDS),
            );
            for i in 0..domains_per_registrar {
                world
                    .purchase(
                        id,
                        &format!("r{r}d{i}"),
                        Tld::Com,
                        Hosting::Registrar { plan: Plan::Free },
                        "o@x",
                    )
                    .expect("purchase succeeds");
            }
            ids.push(id);
        }
        if intervene {
            for id in &ids {
                let on = world.today.plus_days(1);
                world.add_milestone(
                    *id,
                    on,
                    PolicyChange::SetOperatorDnssec(OperatorDnssec::Default),
                );
                world.add_milestone(
                    *id,
                    on,
                    PolicyChange::MassSignHosted {
                        tlds: vec![Tld::Com],
                        over_days: 90,
                    },
                );
            }
        }
        world.advance_to(world.today.plus_days(120));
        let snapshot = Snapshot::take_filtered(&world, &[Tld::Com]);
        let stats = snapshot.tld_totals(Tld::Com);
        stats.fully_deployed as f64 / stats.domains.max(1) as f64
    };
    let baseline = run(false);
    let intervention = run(true);
    result.check("baseline % fully deployed", 0.0, baseline, 0.001);
    result.check(
        "with default signing % fully deployed",
        1.0,
        intervention,
        0.05,
    );
    result.artifact = format!(
        "baseline {:.1}% → default-signing {:.1}% fully deployed after 120 days\n",
        100.0 * baseline,
        100.0 * intervention
    );
    result
}

/// E-X3 — rollover mechanics: an abrupt KSK roll takes the domain dark
/// for validating resolvers; a CDS-coordinated roll never breaks.
pub fn experiment_rollover() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-X3",
        "Extension: key rollover — abrupt vs CDS-coordinated",
    );
    let mut world = focused_world();
    let registrar = world.add_registrar(
        "RollCo",
        Name::parse("rollco.net").unwrap(),
        policy(
            OperatorDnssec::Default,
            ExternalDs::Web { validates: true },
            true,
        ),
    );
    let abrupt = world
        .purchase(
            registrar,
            "abrupt",
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "o@x",
        )
        .unwrap();
    let coordinated = world
        .purchase(
            registrar,
            "coordinated",
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "o@x",
        )
        .unwrap();
    world.registry_mut(Tld::Com).supports_cds = true;

    let resolver = Resolver::new(world.network.clone(), world.trust_anchor());
    let secure = |world: &World, domain: &Name| -> bool {
        let www = domain.child("www").unwrap();
        resolver
            .resolve(&www, RrType::A, world.today.epoch_seconds())
            .map(|a| a.security == Security::Secure)
            .unwrap_or(false)
    };

    let both_secure_before = secure(&world, &abrupt) && secure(&world, &coordinated);

    // The wrong way: swap keys, never touch the DS.
    world.roll_keys_abrupt(&abrupt).unwrap();
    let abrupt_broken = !secure(&world, &abrupt);

    // The right way: CDS first, switch keys only after the DS followed.
    world.prepare_rollover(&coordinated).unwrap();
    let secure_during_prepare = secure(&world, &coordinated);
    world.tick(); // registry CDS scan installs the new DS
    world.complete_rollover(&coordinated).unwrap();
    let secure_after_complete = secure(&world, &coordinated);

    result.check(
        "both secure initially",
        1.0,
        f64::from(both_secure_before),
        0.0,
    );
    result.check("abrupt roll goes bogus", 1.0, f64::from(abrupt_broken), 0.0);
    result.check(
        "coordinated roll: secure during preparation",
        1.0,
        f64::from(secure_during_prepare),
        0.0,
    );
    result.check(
        "coordinated roll: secure after completion",
        1.0,
        f64::from(secure_after_complete),
        0.0,
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cds_bootstrap_heals_partials() {
        let result = experiment_cds_bootstrap(6);
        assert!(result.reproduced(), "{result}");
    }

    #[test]
    fn default_signing_ablation_shows_the_gap() {
        let result = experiment_default_signing_ablation(3, 4);
        assert!(result.reproduced(), "{result}");
    }

    #[test]
    fn rollover_mechanics() {
        let result = experiment_rollover();
        assert!(result.reproduced(), "{result}");
    }
}
