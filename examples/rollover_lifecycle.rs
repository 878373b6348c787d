//! Key-rollover lifecycle: scheduled transitions, mistimed-DS bogus
//! windows, and rollover-under-outage chaos.
//!
//! Part 1 is a live demo on a hand-built world: a correctly timed
//! double-signature KSK rollover, the same roll with its DS moved by the
//! registry's CDS scan instead of the registrar, and one whose registrar
//! pushes the DS five days late, classified day by day through the
//! resolver. The two correctly timed arms must never show a bogus day —
//! any leakage is a hard failure (the CI examples-smoke job runs this
//! binary).
//!
//! Part 2 runs E-K1 on the tiny population: correct rollover ⇒ zero
//! bogus, mistimed DS ⇒ a bogus window matching the injected timing
//! error, and a rollover colliding with an operator outage where
//! serve-stale keeps availability up without masking the bogus window.
//!
//! Run with: `cargo run --release --example rollover_lifecycle`

use dsec::core::experiment_rollover_lifecycle;
use dsec::dnssec::{classify, DeploymentStatus};
use dsec::ecosystem::{
    DsTiming, ExternalDs, Hosting, OperatorDnssec, Plan, RegistrarPolicy, RolloverPlan,
    RolloverStyle, Tld, TldPolicy, TldRole, World, WorldConfig, ALL_TLDS,
};
use dsec::wire::Name;
use dsec::workloads::PopulationConfig;

/// A world with one full-service registrar sponsoring one signed domain.
fn demo_world(label: &str) -> (World, Name) {
    let mut world = World::new(WorldConfig {
        key_pool: 2,
        ..WorldConfig::default()
    });
    let registrar = world.add_registrar(
        "RollReg",
        Name::parse("rollreg.net").unwrap(),
        RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Default,
            external_ds: ExternalDs::Web { validates: true },
            tlds: ALL_TLDS
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                .collect(),
        },
    );
    let domain = world
        .purchase(
            registrar,
            label,
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "owner@example.org",
        )
        .unwrap();
    (world, domain)
}

fn status_label(world: &World, domain: &Name) -> &'static str {
    let obs = world.observation_of(domain);
    match classify(domain, &obs, world.today.epoch_seconds()) {
        DeploymentStatus::FullyDeployed => "secure",
        DeploymentStatus::Misconfigured(_) => "BOGUS",
        _ => "other",
    }
}

/// Drives one scheduled rollover day by day, printing the resolver's
/// verdict next to the plan's prediction. Returns the number of bogus
/// days observed.
fn drive(timing: DsTiming) -> u32 {
    let (mut world, domain) = demo_world("roller");
    // The CDS route needs a registry that scans for it.
    world.registry_mut(Tld::Com).supports_cds = timing == DsTiming::Cds;
    let plan = RolloverPlan::correct(RolloverStyle::DoubleSignatureKsk, world.today.plus_days(1))
        .with_ds_timing(timing);
    let last = plan
        .completion()
        .max(plan.actual_swap().unwrap_or_else(|| plan.completion()))
        .plus_days(1);
    world.schedule_rollover(&domain, plan.clone()).unwrap();

    println!(
        "  {timing:?}: start {:?}, DS swap {:?}",
        plan.start,
        plan.actual_swap()
    );
    let mut bogus_days = 0;
    while world.today < last {
        world.tick();
        let verdict = status_label(&world, &domain);
        if verdict == "BOGUS" {
            bogus_days += 1;
        }
        println!(
            "    {:?}  {:<6} {}",
            world.today,
            verdict,
            if plan.is_bogus_on(world.today) {
                "← predicted bogus"
            } else {
                ""
            }
        );
    }
    println!("{}", dsec::reports::rollover_lifecycle(&world));
    bogus_days
}

fn main() {
    // Part 1: the live demo — a correctly timed rollover vs. the same
    // choreography with the registrar's DS leg five days late.
    println!("correctly timed double-signature KSK rollover:");
    let correct_bogus = drive(DsTiming::OnSchedule);
    println!("correctly timed arm: {correct_bogus} bogus days\n");

    println!("correctly timed rollover, DS moved through the child's CDS:");
    let cds_bogus = drive(DsTiming::Cds);
    println!("CDS arm: {cds_bogus} bogus days\n");

    println!("mistimed rollover (DS pushed 5 days late):");
    let late_bogus = drive(DsTiming::Late { days: 5 });
    println!("mistimed arm: {late_bogus} bogus days\n");

    // Part 2: E-K1 — correct / mistimed / rollover-under-outage, with
    // traffic-plane attribution.
    let result = experiment_rollover_lifecycle(&PopulationConfig::tiny());
    println!("{}", result.to_markdown());
    println!(
        "verdict: {}",
        if result.reproduced() {
            "rollover lifecycle contract held (E-K1 reproduced)"
        } else {
            "rollover lifecycle contract broken (see table above)"
        }
    );

    // Bogus leakage in a correctly timed arm — or a mistimed plan that
    // somehow stayed secure — is a hard failure.
    if correct_bogus != 0 || cds_bogus != 0 || late_bogus == 0 || !result.reproduced() {
        std::process::exit(1);
    }
}
