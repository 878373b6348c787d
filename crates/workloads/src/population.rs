//! Builds the paper's world from the calibrated specs at a configurable
//! scale (1:`scale` domains).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dsec_ecosystem::{
    Hosting, OperatorId, Plan, PolicyChange, RegistrarId, RegistrarPolicy, Tld, TldPolicy, TldRole,
    World, WorldConfig, ALL_TLDS,
};
use dsec_wire::Name;

use crate::spec::{
    cctld_fill_registrars, midtail_dnssec_registrars, parking_operators, partner_registrars,
    split_gtld, table1_totals, table2_registrars, table3_registrars, third_parties, RegistrarSpec,
};

/// Population parameters.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// One simulated domain per `scale` real domains (default 2000).
    pub scale: u64,
    /// How many anonymous long-tail operators to create.
    pub tail_operators: usize,
    /// RNG seed for the builder (independent of the world seed).
    pub seed: u64,
    /// World parameters.
    pub world: WorldConfig,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            scale: 2000,
            tail_operators: 400,
            seed: 0x50F7,
            world: WorldConfig::default(),
        }
    }
}

impl PopulationConfig {
    /// A tiny population for tests: 1:400,000 scale, 20 tail operators.
    pub fn tiny() -> Self {
        PopulationConfig {
            scale: 400_000,
            tail_operators: 20,
            ..Default::default()
        }
    }
}

/// The built world plus handles to the named entities.
pub struct PaperWorld {
    /// The world, positioned at the window start.
    pub world: World,
    /// Named registrar handles.
    pub registrars: BTreeMap<String, RegistrarId>,
    /// Third-party operator handles ("Cloudflare", "DNSPod").
    pub third_parties: BTreeMap<String, OperatorId>,
    /// Parking operator handles.
    pub parking: BTreeMap<String, OperatorId>,
    /// The registrar sponsoring parking / third-party / tail domains.
    pub generic_registrar: RegistrarId,
}

/// Builds the full paper population.
pub fn build(config: &PopulationConfig) -> PaperWorld {
    let mut world = World::new(config.world.clone());
    // The calibration data (signed_at_start) controls the initial state;
    // purchase-time default signing would override it.
    world.auto_sign_on_purchase = false;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let window_days = config.world.end.days_since(config.world.start).max(1);

    let mut registrars = BTreeMap::new();
    let mut placed: BTreeMap<Tld, u64> = BTreeMap::new();

    // Partner registrars first so reseller roles resolve.
    for spec in partner_registrars() {
        let id = world.add_registrar(spec.name, ns(spec.ns_domain), spec.policy());
        registrars.insert(spec.name.to_string(), id);
    }

    // Named profiles.
    let specs: Vec<RegistrarSpec> = table2_registrars()
        .into_iter()
        .chain(table3_registrars())
        .chain(midtail_dnssec_registrars())
        .chain(cctld_fill_registrars())
        .collect();
    for spec in &specs {
        let id = world.add_registrar(spec.name, ns(spec.ns_domain), spec.policy());
        registrars.insert(spec.name.to_string(), id);
        for (on, change) in &spec.milestones {
            world.add_milestone(id, *on, change.clone());
        }
    }

    // Populate each named registrar's domains.
    let mut max_hazard: BTreeMap<RegistrarId, f64> = BTreeMap::new();
    for spec in &specs {
        let id = registrars[spec.name];
        for (tld, _, _, load) in &spec.tlds {
            let count = scaled_count(&mut rng, load.domains, config.scale);
            let signed = (count as f64 * load.signed_at_start).round() as usize;
            for i in 0..count {
                let label = format!("{}-{}-{i}", slug(spec.name), tld.label());
                let plan = if rng.random::<f64>() < spec.premium_share {
                    Plan::Premium
                } else {
                    Plan::Free
                };
                let Ok(domain) = world.purchase(
                    id,
                    &label,
                    *tld,
                    Hosting::Registrar { plan },
                    format!("owner@{label}.example"),
                ) else {
                    continue;
                };
                // Stagger renewals across the first year.
                let offset = rng.random_range(1..365u32);
                world.set_expiry(&domain, config.world.start.plus_days(offset));
                if i < signed {
                    let _ = world.sign_hosted(&domain);
                }
            }
            *placed.entry(*tld).or_default() += load.domains;
            // Adoption hazard from start → end fractions.
            if load.signed_at_end > load.signed_at_start && load.signed_at_start < 1.0 {
                let ratio = (1.0 - load.signed_at_end) / (1.0 - load.signed_at_start);
                let hazard = 1.0 - ratio.powf(1.0 / window_days as f64);
                let e = max_hazard.entry(id).or_default();
                *e = e.max(hazard);
            }
        }
    }
    for (id, hazard) in max_hazard {
        world.change_policy(id, PolicyChange::SetOptInHazard(hazard));
    }

    // Generic retail registrar for parking / third-party / tail domains.
    let generic = world.add_registrar(
        "GenericRetail",
        ns("genericretail.sim"),
        RegistrarPolicy {
            operator_dnssec: dsec_ecosystem::OperatorDnssec::Unsupported,
            external_ds: dsec_ecosystem::ExternalDs::Web { validates: false },
            tlds: ALL_TLDS
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                .collect(),
        },
    );
    registrars.insert("GenericRetail".into(), generic);

    // Parking operators (gTLD only).
    let mut parking = BTreeMap::new();
    for (name_, ns_domain, count) in parking_operators() {
        let op = world.add_operator(name_, ns(ns_domain), 2);
        parking.insert(name_.to_string(), op);
        let [c, n_, o] = split_gtld(count);
        for (tld, cnt) in [(Tld::Com, c), (Tld::Net, n_), (Tld::Org, o)] {
            for i in 0..scaled_count(&mut rng, cnt, config.scale) {
                let label = format!("{}-{}-{i}", slug(name_), tld.label());
                let _ = world.purchase(
                    generic,
                    &label,
                    tld,
                    Hosting::ThirdParty { operator: op },
                    format!("owner@{label}.example"),
                );
            }
        }
        *placed.entry(Tld::Com).or_default() += c;
        *placed.entry(Tld::Net).or_default() += n_;
        *placed.entry(Tld::Org).or_default() += o;
    }

    // Third parties (Cloudflare / DNSPod).
    let mut tps = BTreeMap::new();
    for tp in third_parties() {
        let hazard = match tp.launch {
            Some(launch) if tp.signed_at_end > 0.0 => {
                let days = config.world.end.days_since(launch).max(1);
                1.0 - (1.0 - tp.signed_at_end).powf(1.0 / days as f64)
            }
            _ => 0.0,
        };
        let op = world.add_third_party(
            tp.name,
            ns(tp.ns_domain),
            tp.launch,
            hazard,
            tp.relay_success,
        );
        tps.insert(tp.name.to_string(), op);
        let [c, n_, o] = split_gtld(tp.domains);
        for (tld, cnt) in [(Tld::Com, c), (Tld::Net, n_), (Tld::Org, o)] {
            for i in 0..scaled_count(&mut rng, cnt, config.scale) {
                let label = format!("{}-{}-{i}", slug(tp.name), tld.label());
                let _ = world.purchase(
                    generic,
                    &label,
                    tld,
                    Hosting::ThirdParty { operator: op },
                    format!("owner@{label}.example"),
                );
            }
        }
        *placed.entry(Tld::Com).or_default() += c;
        *placed.entry(Tld::Net).or_default() += n_;
        *placed.entry(Tld::Org).or_default() += o;
    }

    // Anonymous long tail: fill each TLD to its Table-1 total with
    // Zipf-sized no-DNSSEC operators.
    if config.tail_operators > 0 {
        let weights: Vec<f64> = (1..=config.tail_operators)
            .map(|r| 1.0 / (r as f64 + 25.0))
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        // Pre-create tail registrars/operators.
        let tail_ids: Vec<RegistrarId> = (0..config.tail_operators)
            .map(|i| {
                world.add_registrar(
                    format!("TailHost{i:04}"),
                    ns(&format!("tailhost{i:04}.sim")),
                    RegistrarPolicy::no_dnssec(&ALL_TLDS),
                )
            })
            .collect();
        for (tld, total) in table1_totals() {
            let remaining = (total.saturating_sub(placed.get(&tld).copied().unwrap_or(0))
                / config.scale) as usize;
            for (i, &id) in tail_ids.iter().enumerate() {
                let share = ((remaining as f64) * weights[i] / weight_sum).round() as usize;
                for k in 0..share {
                    let label = format!("tail{i:04}-{}-{k}", tld.label());
                    let _ = world.purchase(
                        id,
                        &label,
                        tld,
                        Hosting::Registrar { plan: Plan::Free },
                        format!("owner@{label}.example"),
                    );
                }
            }
        }
    }

    world.auto_sign_on_purchase = true;
    PaperWorld {
        world,
        registrars,
        third_parties: tps,
        parking,
        generic_registrar: generic,
    }
}

/// Scales a full-population count down with probabilistic rounding so
/// mid-size masses survive tiny test scales in expectation.
fn scaled_count(rng: &mut StdRng, domains: u64, scale: u64) -> usize {
    let exact = domains as f64 / scale as f64;
    let floor = exact.floor();
    let extra = if rng.random::<f64>() < exact - floor {
        1
    } else {
        0
    };
    floor as usize + extra
}

fn ns(s: &str) -> Name {
    Name::parse(s).expect("static nameserver domain parses")
}

fn slug(s: &str) -> String {
    s.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_dnssec::{classify, DeploymentStatus};

    fn tiny() -> PaperWorld {
        build(&PopulationConfig::tiny())
    }

    #[test]
    fn named_registrars_exist() {
        let pw = tiny();
        for name in [
            "GoDaddy",
            "OVH",
            "NameCheap",
            "Loopia",
            "TransIP",
            "PCExtreme",
            "Antagonist",
            "Ascio",
            "OpenProvider",
        ] {
            assert!(pw.registrars.contains_key(name), "{name} missing");
            assert!(pw.world.registrar_by_name(name).is_some());
        }
        assert!(pw.third_parties.contains_key("Cloudflare"));
        assert!(pw.parking.contains_key("SedoParking"));
    }

    #[test]
    fn tiny_population_has_reasonable_size() {
        let pw = tiny();
        // 148.6M domains / 400k ≈ 370, minus rounding.
        let n = pw.world.domain_count();
        assert!((150..700).contains(&n), "population {n}");
    }

    #[test]
    fn all_domains_are_delegated_in_their_registry() {
        let pw = tiny();
        for tld in ALL_TLDS {
            let delegations = pw.world.registry(tld).delegations().len();
            let owned = pw.world.domains().filter(|d| d.tld == tld).count();
            assert_eq!(delegations, owned, "{tld}");
        }
    }

    #[test]
    fn signed_fractions_are_nontrivial_in_cctlds() {
        let pw = tiny();
        let nl_total = pw.world.domains().filter(|d| d.tld == Tld::Nl).count();
        let nl_signed = pw
            .world
            .domains()
            .filter(|d| d.tld == Tld::Nl && d.is_signed())
            .count();
        assert!(nl_total > 0);
        let frac = nl_signed as f64 / nl_total as f64;
        assert!(
            (0.30..0.75).contains(&frac),
            ".nl signed fraction {frac:.2} at tiny scale"
        );
    }

    #[test]
    fn gtld_signing_is_rare() {
        let pw = tiny();
        let com_total = pw.world.domains().filter(|d| d.tld == Tld::Com).count();
        let com_signed = pw
            .world
            .domains()
            .filter(|d| d.tld == Tld::Com && d.is_signed())
            .count();
        let frac = com_signed as f64 / com_total.max(1) as f64;
        assert!(
            frac < 0.10,
            ".com signed fraction {frac:.3} should be ≈0.007"
        );
    }

    #[test]
    fn signed_domains_actually_validate_or_are_partial() {
        // A somewhat larger scale so mid-size partial-deployment
        // registrars (Loopia/Mesh/KPN gTLD) materialize.
        let pw = build(&PopulationConfig {
            scale: 60_000,
            tail_operators: 0,
            ..Default::default()
        });
        let now = pw.world.today.epoch_seconds();
        let mut full = 0;
        let mut partial = 0;
        for d in pw.world.domains().filter(|d| d.is_signed()) {
            let obs = pw.world.observation_of(&d.name);
            match classify(&d.name, &obs, now) {
                DeploymentStatus::FullyDeployed => full += 1,
                DeploymentStatus::PartiallyDeployed => partial += 1,
                other => panic!("{}: unexpected {other:?}", d.name),
            }
        }
        assert!(full > 0, "some domains fully deployed");
        assert!(
            partial > 0,
            "some domains partially deployed (Loopia/Mesh/KPN)"
        );
    }

    #[test]
    fn build_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.world.domain_count(), b.world.domain_count());
        let da: Vec<String> = a.world.domains().map(|d| d.name.to_string()).collect();
        let db: Vec<String> = b.world.domains().map(|d| d.name.to_string()).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn parking_and_third_party_domains_are_hosted_off_registrar() {
        let pw = tiny();
        let off = pw
            .world
            .domains()
            .filter(|d| matches!(d.hosting, Hosting::ThirdParty { .. }))
            .count();
        assert!(off > 0, "parking/third-party domains exist");
    }
}
