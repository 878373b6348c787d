//! E-K1 — the key-rollover lifecycle experiment.
//!
//! Three arms exercise the scheduled-rollover plane end to end against
//! the user-traffic plane, all seeded and byte-identical run to run:
//!
//! * **Arm A (correct)** — a correctly sequenced double-signature KSK
//!   rollover on the most popular chained `.nl` site (the Zipf head,
//!   signed on demand so the roller is guaranteed daily query volume at
//!   any population scale), checked day by day: every day of the
//!   transition must validate, zero bogus answers.
//! * **Arm B (mistimed DS)** — the identical rollover with the
//!   registrar's DS leg landing days late. The resulting bogus window
//!   is pure schedule arithmetic ([`RolloverPlan::bogus_window`]), and
//!   the traffic plane must observe bogus answers on *exactly* those
//!   days, attributed to the victim's registrar and operator.
//! * **Arm C (rollover under outage)** — the mistimed rollover riding
//!   through a sustained outage of the biggest DNS operator fleet that
//!   is *not* the roller's: serve-stale (RFC 8767) keeps the outage
//!   victim's availability ≥ 90% while the rolling domain's bogus
//!   window stays fully visible — degraded serving must never mask a
//!   validation failure.

use std::collections::BTreeMap;

use dsec_authserver::OutageScenario;
use dsec_ecosystem::{DsTiming, Hosting, RolloverPlan, RolloverStyle, Tld, World};
use dsec_reports::ExperimentResult;
use dsec_scanner::{largest_operator_fleet, rollover_census, rollover_census_table};
use dsec_traffic::{run_load, LoadConfig, OutcomeCounts, TrafficPopulation, TrafficReport};
use dsec_workloads::{build, PopulationConfig};

use crate::experiments::{
    outage_phases, OUTAGE_MAX_STALE, OUTAGE_QPS, OUTAGE_QUERIES, OUTAGE_SEED,
};

/// Stream seed for the day-by-day arms.
const K1_SEED: u64 = 0x0C0FFEE;
/// Queries per simulated day — enough that the Zipf head domain is
/// queried every day.
const K1_QUERIES: u64 = 1_024;
/// Days the registrar's DS leg lands late in arms B and C.
const K1_LATE_DAYS: u32 = 5;

/// The most popular `.nl` site that is — or can be made — fully chained
/// (`.nl` is the TLD with the incentivized DNSSEC rate). The Zipf head
/// must carry the rollover so its bogus window is actually *queried*:
/// at full scale the first organically signed site can sit hundreds of
/// ranks deep, far below the daily query volume, so an unsigned head is
/// signed first (operator enables DNSSEC, DS relayed) and rolled.
pub(crate) fn rollover_victim(
    world: &mut World,
    population: &TrafficPopulation,
) -> dsec_traffic::Site {
    for &i in &population.ranked[&Tld::Nl] {
        let site = population.sites[i as usize].clone();
        let Some(d) = world.domain(&site.name) else {
            continue;
        };
        let (signed, sponsor, third_party) = (
            d.is_signed(),
            d.sponsor,
            matches!(d.hosting, Hosting::ThirdParty { .. }),
        );
        let chained = || !world.registry(site.tld).ds_of(&site.name).is_empty();
        if signed {
            if chained() {
                return site;
            }
            continue; // signed but chainless: rolling it can never go bogus
        }
        let ok = if third_party {
            world
                .third_party_enable_dnssec(&site.name)
                .ok()
                .map(|ds| {
                    world
                        .registry_mut(site.tld)
                        .set_ds(sponsor, &site.name, &[ds])
                        .is_ok()
                })
                .unwrap_or(false)
        } else {
            // The head site's owner pays for DNSSEC where it is a paid
            // add-on (the GoDaddy model) — the rollover needs a chain.
            world.enable_dnssec_paid(&site.name).is_ok()
        };
        if ok && !world.registry(site.tld).ds_of(&site.name).is_empty() {
            return site;
        }
    }
    panic!("no .nl site could carry the rollover");
}

/// One day's traffic against a fresh resolver cache: the day-by-day
/// arms re-resolve from scratch so every day reflects that day's chain,
/// not yesterday's cache.
fn day_load(world: &World) -> TrafficReport {
    run_load(
        world,
        &LoadConfig::default()
            .with_queries(K1_QUERIES)
            .with_seed(K1_SEED),
    )
}

/// How many of the day's planned queries land on `site`. The stream is
/// a pure function of (population, mix, seed), so the same count holds
/// on every day of a day-by-day walk.
fn planned_hits(population: &TrafficPopulation, site: &dsec_traffic::Site) -> u64 {
    let config = LoadConfig::default();
    dsec_traffic::workload::generate_stream(
        population,
        &config.mix,
        K1_SEED,
        K1_QUERIES,
        0,
        config.sim_qps,
    )
    .iter()
    .filter(|q| population.sites[q.site as usize].name == site.name)
    .count() as u64
}

/// Walks `world` day by day until `last`, running one fresh-cache load
/// per day, and returns each day's outcome tally keyed by
/// days-since-start.
fn daily_bogus(world: &mut World, last: dsec_ecosystem::SimDate) -> BTreeMap<u32, OutcomeCounts> {
    let mut days = BTreeMap::new();
    let start = world.today;
    while world.today < last {
        world.tick();
        days.insert(world.today.0 - start.0, day_load(world).outcomes);
    }
    days
}

/// E-K1 — scheduled rollovers, mistimed DS windows, and
/// rollover-under-outage chaos. See the module docs for the three arms.
pub fn experiment_rollover_lifecycle(population: &PopulationConfig) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-K1",
        "Key-rollover lifecycle: correct transitions, mistimed-DS bogus windows, rollover under outage",
    );

    // ---- Arm A: correctly sequenced double-signature KSK rollover. ----
    let mut pw = build(population);
    let traffic_pop = TrafficPopulation::from_world(&pw.world);
    let victim = rollover_victim(&mut pw.world, &traffic_pop);
    let (victim_registrar, victim_operator) = (
        traffic_pop.registrar_of(&victim),
        traffic_pop.operator_of(&victim),
    );
    let plan_a = RolloverPlan::correct(
        RolloverStyle::DoubleSignatureKsk,
        pw.world.today.plus_days(1),
    );
    let end_a = plan_a.completion().plus_days(1);
    pw.world
        .schedule_rollover(&victim.name, plan_a)
        .expect("signed head schedules");
    let victim_hits = planned_hits(&traffic_pop, &victim);
    let days_a = daily_bogus(&mut pw.world, end_a);
    let bogus_a: u64 = days_a.values().map(|c| c.bogus).sum();
    result.check(
        "arm A: victim domain queried on every day of the transition",
        1.0,
        f64::from(victim_hits > 0),
        0.0,
    );
    result.check(
        "arm A: correct double-signature rollover serves zero bogus answers",
        0.0,
        bogus_a as f64,
        0.0,
    );
    result.check(
        "arm A: rollover completed (lifecycle state drained)",
        1.0,
        f64::from(
            pw.world.rollover_state(&victim.name).is_none()
                && pw.world.events.count("rollover_completed") >= 1,
        ),
        0.0,
    );

    // ---- Arm B: the same rollover with the DS leg landing late. ----
    let mut pw_b = build(population);
    let victim_b = rollover_victim(&mut pw_b.world, &traffic_pop);
    assert_eq!(
        victim_b.name, victim.name,
        "identical builds pick one victim"
    );
    let plan_b = RolloverPlan::correct(
        RolloverStyle::DoubleSignatureKsk,
        pw_b.world.today.plus_days(1),
    )
    .with_ds_timing(DsTiming::Late { days: K1_LATE_DAYS });
    let window = plan_b.bogus_window().expect("late DS opens a window");
    let window_close = window.1.expect("late window is bounded");
    let end_b = window_close.plus_days(1);
    let start_b = pw_b.world.today;
    pw_b.world
        .schedule_rollover(&victim.name, plan_b.clone())
        .expect("same world build, same signed head");
    let days_b = daily_bogus(&mut pw_b.world, end_b);
    let misclassified_days = days_b
        .iter()
        .filter(|(offset, counts)| {
            let day = start_b.plus_days(**offset);
            plan_b.is_bogus_on(day) != (counts.bogus > 0)
        })
        .count();
    let observed_window_days = days_b.values().filter(|c| c.bogus > 0).count() as u32;
    let predicted_window_days = window_close.0 - window.0 .0;
    result.check(
        "arm B: bogus observed on exactly the predicted window days",
        0.0,
        misclassified_days as f64,
        0.0,
    );
    result.check(
        "arm B: bogus-window length equals the injected timing error",
        predicted_window_days as f64,
        observed_window_days as f64,
        0.0,
    );
    // Attribution, measured on the first bogus-window day the walk left
    // the world on … which is `end_b`, past the window. Re-run the
    // window peak explicitly instead: the report for each day was
    // discarded, so replay the first in-window day's load on a world
    // parked inside the window.
    let mut pw_parked = build(population);
    rollover_victim(&mut pw_parked.world, &traffic_pop);
    pw_parked
        .world
        .schedule_rollover(&victim.name, plan_b.clone())
        .expect("same build schedules again");
    let mid_window = window.0.plus_days(0);
    while pw_parked.world.today < mid_window {
        pw_parked.world.tick();
    }
    let in_window = day_load(&pw_parked.world);
    let victim_counts = in_window
        .by_registrar
        .get(victim_registrar)
        .copied()
        .unwrap_or_default();
    result.check(
        "arm B: every bogus answer attributes to the victim's registrar",
        1.0,
        f64::from(
            in_window.outcomes.bogus > 0
                && victim_counts.bogus == in_window.outcomes.bogus
                && in_window
                    .by_operator
                    .get(victim_operator)
                    .map(|c| c.bogus == in_window.outcomes.bogus)
                    .unwrap_or(false),
        ),
        0.0,
    );

    // ---- Arm C: the mistimed rollover riding through an operator
    // outage. The rolling domain is hosted *outside* the outage victim's
    // fleet, so serve-stale answers for the dead fleet must coexist with
    // visible bogus answers for the mistimed rollover — degradation
    // never masks a validation failure. ----
    let mut pw_c = build(population);
    let pop_c = TrafficPopulation::from_world(&pw_c.world);
    let roller = rollover_victim(&mut pw_c.world, &pop_c);
    let (outage_victim, fleet) =
        largest_operator_fleet(&pw_c.world, Some(pop_c.operator_of(&roller)));
    let plan_c = RolloverPlan::correct(
        RolloverStyle::DoubleSignatureKsk,
        pw_c.world.today.plus_days(1),
    )
    .with_ds_timing(DsTiming::Late { days: K1_LATE_DAYS });
    let (window_from, _) = plan_c.bogus_window().expect("late DS opens a window");
    pw_c.world
        .schedule_rollover(&roller.name, plan_c)
        .expect("roller is signed");
    while pw_c.world.today < window_from {
        pw_c.world.tick();
    }
    let span = (OUTAGE_QUERIES / OUTAGE_QPS as u64) as u32;
    let base = pw_c.world.today.epoch_seconds();
    pw_c.world.fault_plane().enable(OUTAGE_SEED);
    OutageScenario::operator_outage(
        "rollover-collision",
        fleet,
        base + span,
        base + 2 * span + 60,
    )
    .install(pw_c.world.fault_plane());
    let (outage_run, _) = outage_phases(&pw_c.world, span, OUTAGE_MAX_STALE, None);
    let outage_victim_counts = outage_run
        .by_operator
        .get(&outage_victim)
        .copied()
        .unwrap_or_default();
    let roller_counts = outage_run
        .by_registrar
        .get(pop_c.registrar_of(&roller))
        .copied()
        .unwrap_or_default();
    result.check(
        "arm C: serve-stale keeps the outage victim's availability ≥ 90%",
        1.0,
        f64::from(outage_run.outcomes.stale > 0 && outage_victim_counts.availability() >= 0.90),
        0.0,
    );
    result.check(
        "arm C: the rollover's bogus window stays visible through the outage",
        1.0,
        f64::from(outage_run.outcomes.bogus > 0 && roller_counts.bogus > 0),
        0.0,
    );

    // The artifact: day-by-day windows and the per-operator census the
    // scanner derives from the always-logged lifecycle events.
    let mut artifact = format!(
        "victim domain {} (registrar {}, operator {})\n\
         arm A (DS on schedule):   bogus window none — {} bogus answers over {} days\n\
         arm B (DS {} days late):  predicted window [{:?}, {:?}) — {} of {} days bogus\n\
         arm C (outage collision): outage victim {} availability {:.1}% with serve-stale; \
         {} stale, {} bogus (roller {})\n\nday-by-day (arm B, day offset: bogus/total):\n",
        victim.name,
        victim_registrar,
        victim_operator,
        bogus_a,
        days_a.len(),
        K1_LATE_DAYS,
        window.0,
        window_close,
        observed_window_days,
        days_b.len(),
        outage_victim,
        100.0 * outage_victim_counts.availability(),
        outage_run.outcomes.stale,
        outage_run.outcomes.bogus,
        roller.name,
    );
    for (offset, counts) in &days_b {
        artifact.push_str(&format!(
            "  day +{offset:<2} {:>5}/{:<5} {}\n",
            counts.bogus,
            counts.total(),
            if counts.bogus > 0 {
                "← bogus window"
            } else {
                ""
            }
        ));
    }
    artifact.push_str("\nper-operator rollover census (arm B world):\n");
    artifact.push_str(&rollover_census_table(&rollover_census(&pw_b.world)));
    result.artifact = artifact;
    result
}
