//! End-to-end tests of the key-rollover lifecycle plane: the abrupt
//! break-then-repair cycle observed through the resolver, the scheduled
//! driver's day-by-day validation guarantees, and property tests pinning
//! that correctly sequenced plans never open a bogus window.

use proptest::prelude::*;

use dsec::crypto::DigestType;
use dsec::dnssec::{classify, DeploymentStatus, Misconfiguration};
use dsec::ecosystem::{
    DsTiming, ExternalDs, Hosting, OperatorDnssec, Plan, RegistrarPolicy, RolloverPlan,
    RolloverStyle, SimDate, Tld, TldPolicy, TldRole, World, WorldConfig, ALL_TLDS,
};
use dsec::wire::Name;

fn full_registrar_world() -> (World, Name) {
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
            "roller",
            Tld::Com,
            Hosting::Registrar { plan: Plan::Free },
            "owner@example.org",
        )
        .unwrap();
    (world, domain)
}

fn status(world: &World, domain: &Name) -> DeploymentStatus {
    let obs = world.observation_of(domain);
    classify(domain, &obs, world.today.epoch_seconds())
}

/// The classic broken rollover, repaired: an abrupt key replacement
/// leaves the parent DS orphaned (Bogus at every validator), until the
/// registrar pushes the matching DS — at which point the chain is whole
/// again. The event log carries both halves of the story.
#[test]
fn abrupt_roll_goes_bogus_until_the_ds_is_fixed() {
    let (mut world, domain) = full_registrar_world();
    assert_eq!(status(&world, &domain), DeploymentStatus::FullyDeployed);

    world.roll_keys_abrupt(&domain).unwrap();
    assert_eq!(
        status(&world, &domain),
        DeploymentStatus::Misconfigured(Misconfiguration::DsMismatch),
        "orphaned DS must fail validation"
    );
    assert_eq!(world.events.count("rollover_abrupt"), 1);

    // The repair: the sponsoring registrar replaces the parent DS with
    // one matching the keys actually served.
    let sponsor = world.domain(&domain).unwrap().sponsor;
    let ds = world
        .domain(&domain)
        .unwrap()
        .keys
        .as_ref()
        .unwrap()
        .ds(DigestType::Sha256);
    world
        .registry_mut(Tld::Com)
        .set_ds(sponsor, &domain, &[ds])
        .unwrap();
    assert_eq!(
        status(&world, &domain),
        DeploymentStatus::FullyDeployed,
        "matching DS restores the chain"
    );
}

/// Correctly scheduled double-signature rollovers — the DS moved by the
/// registrar or by the registry's CDS scan — versus a mistimed one,
/// through the same world API the experiments drive: the correct plans
/// validate on every single day; the late-DS plan goes bogus on exactly
/// the days its arithmetic predicts. Every plan runs to completion.
#[test]
fn scheduled_rollover_day_by_day_matches_the_plan_arithmetic() {
    for timing in [
        DsTiming::OnSchedule,
        DsTiming::Late { days: 4 },
        DsTiming::Cds,
    ] {
        let (mut world, domain) = full_registrar_world();
        world.registry_mut(Tld::Com).supports_cds = timing == DsTiming::Cds;
        let plan =
            RolloverPlan::correct(RolloverStyle::DoubleSignatureKsk, world.today.plus_days(1))
                .with_ds_timing(timing);
        let last = plan
            .actual_swap()
            .map_or(plan.completion(), |swap| swap.max(plan.completion()))
            .plus_days(1);
        world.schedule_rollover(&domain, plan.clone()).unwrap();
        while world.today < last {
            world.tick();
            let expected = if plan.is_bogus_on(world.today) {
                DeploymentStatus::Misconfigured(Misconfiguration::DsMismatch)
            } else {
                DeploymentStatus::FullyDeployed
            };
            assert_eq!(
                status(&world, &domain),
                expected,
                "{timing:?} on {:?}",
                world.today
            );
        }
        assert!(world.rollover_state(&domain).is_none(), "{timing:?}");
    }
}

/// A CDS naming the DS set the parent already holds is no change: the
/// registry's scan re-signs nothing, bumps nothing and logs nothing.
#[test]
fn a_cds_equal_to_the_ds_set_changes_nothing() {
    let (mut world, domain) = full_registrar_world();
    world.registry_mut(Tld::Com).supports_cds = true;
    let registrar = world.domain(&domain).unwrap().registrar;
    assert_eq!(world.enable_cds_publication(registrar), 1);
    let ds = world.registry(Tld::Com).ds_of(&domain);
    let generation = world.registry(Tld::Com).generation_of(&domain);
    for _ in 0..3 {
        world.tick();
    }
    assert_eq!(world.events.count("cds_applied"), 0);
    assert_eq!(world.registry(Tld::Com).generation_of(&domain), generation);
    assert_eq!(world.registry(Tld::Com).ds_of(&domain), ds);
}

proptest! {
    /// A correctly sequenced plan — any style, any intervals, the DS
    /// landing anywhere inside the double-signature window — never has
    /// a bogus day, from well before the rollover to well after.
    #[test]
    fn correctly_sequenced_plans_never_yield_a_bogus_day(
        start in 0u32..5_000,
        prepare in 1u32..30,
        retire in 1u32..30,
        style_idx in 0usize..3,
        timing_kind in 0u32..3,
        days_seed in any::<u32>(),
    ) {
        let style = [
            RolloverStyle::PrePublishZsk,
            RolloverStyle::DoubleSignatureKsk,
            RolloverStyle::Algorithm,
        ][style_idx];
        let mut plan = RolloverPlan::correct(style, SimDate(start));
        plan.prepare_days = prepare;
        plan.retire_days = retire;
        // Any timing inside the double-signature window is safe: up to
        // `prepare` days early (still ≥ start) or `retire` days late
        // (still ≤ completion).
        let plan = plan.with_ds_timing(match timing_kind {
            0 => DsTiming::OnSchedule,
            1 => DsTiming::Early { days: days_seed % (prepare + 1) },
            _ => DsTiming::Late { days: days_seed % (retire + 1) },
        });

        prop_assert!(plan.bogus_window().is_none(), "{plan:?}");
        for day in start.saturating_sub(3)..=plan.completion().0 + retire + 3 {
            prop_assert!(!plan.is_bogus_on(SimDate(day)), "{plan:?} bogus on day {day}");
        }
    }

    /// Mistimed plans open exactly one window, and `is_bogus_on` agrees
    /// with it everywhere: bogus days are precisely the in-window days.
    #[test]
    fn bogus_window_and_is_bogus_on_agree(
        start in 0u32..5_000,
        prepare in 1u32..30,
        retire in 1u32..30,
        early_extra in 1u32..20,
        late_extra in 1u32..20,
        use_late in any::<bool>(),
        never in any::<bool>(),
    ) {
        let mut plan = RolloverPlan::correct(RolloverStyle::DoubleSignatureKsk, SimDate(start));
        plan.prepare_days = prepare;
        plan.retire_days = retire;
        let plan = plan.with_ds_timing(if never {
            DsTiming::Never
        } else if use_late {
            DsTiming::Late { days: retire + late_extra }
        } else {
            DsTiming::Early { days: prepare + early_extra }
        });

        let window = plan.bogus_window();
        // A genuinely mistimed DS (outside [start, completion]) must
        // open a window — except Early swaps clamped at day 0, which
        // can still land on/after start and stay safe.
        if let Some((from, until)) = window {
            prop_assert!(until.map(|u| from < u).unwrap_or(true), "empty window {plan:?}");
        } else {
            // The only windowless mistiming: an Early swap clamped at
            // day 0 when the plan itself starts at day 0.
            prop_assert!(
                matches!(plan.ds_timing, DsTiming::Early { .. }) && start == 0,
                "only a clamped early swap may be windowless: {plan:?}"
            );
        }
        let horizon = plan.completion().0 + retire + late_extra + 5;
        for day in 0..=horizon {
            let inside = match window {
                None => false,
                Some((from, None)) => SimDate(day) >= from,
                Some((from, Some(until))) => SimDate(day) >= from && SimDate(day) < until,
            };
            prop_assert_eq!(plan.is_bogus_on(SimDate(day)), inside);
        }
    }
}
