//! E-A1 — the registrar-compromise attack experiment.
//!
//! Three arms wire the attack plane (`dsec_attack`) through the
//! ecosystem's channel authentication, the attacker's authoritative
//! infrastructure, and the mixed validating/non-validating traffic
//! fleet, all seeded and byte-identical across worker thread counts:
//!
//! * **Arm A (authenticated channel)** — the victim's registrar
//!   verifies email senders. Both vectors (forged DS, forged NS) must
//!   bounce: zero captures, zero forged acceptances, registry DS/NS
//!   untouched, zero hijacked or saved-by-validation outcomes.
//! * **Arm B (LaxMail channel)** — the same registrar downgraded to the
//!   paper's unauthenticated-email policy. The forged NS lands, the
//!   attacker serves the victim's zone, and the victim's planned query
//!   volume splits *exactly* into hijacked (the non-validating fleet
//!   share) and SERVFAIL-protected (the validating share) — with every
//!   one of those outcomes attributed to the responsible registrar.
//! * **Arm C (attack under outage)** — the hijack rides through a
//!   sustained outage of the largest uninvolved operator fleet:
//!   serve-stale keeps the outage victim available while the hijack
//!   stays fully visible — degradation never masks a takeover.

use std::sync::Arc;

use dsec_attack::{AttackCampaign, AttackPhase, AttackPlan, AttackVector};
use dsec_authserver::OutageScenario;
use dsec_ecosystem::{ExternalDs, PolicyChange, World};
use dsec_reports::ExperimentResult;
use dsec_scanner::{largest_operator_fleet, takeover_census, takeover_census_table};
use dsec_traffic::{
    run_load, run_load_mixed, validating_assignment, Cache, LoadConfig, TrafficPopulation,
    TrafficReport,
};
use dsec_workloads::{build, PopulationConfig};

use crate::rollover::rollover_victim;

/// Stream seed for every E-A1 load.
const A1_SEED: u64 = 0x0A77AC;
/// Queries per load phase. High enough that the Zipf-head victim is
/// hit a few dozen times even at full population scale, where its
/// share of the stream is thinner than in the tiny fixture.
const A1_QUERIES: u64 = 4_096;
/// Validating share of the resolver fleet (Nosyk et al. put the real
/// number below this; an even split maximises the odds that the
/// victim's hits land in both sub-fleets at every population scale —
/// the experiment asserts exactly that).
const A1_SHARE: f64 = 0.5;
/// Sim-clock rate for the outage arm: slow enough that phase-1 cache
/// entries expire inside phase 2, so serve-stale actually engages.
const A1_QPS: u32 = 4;
/// Serve-stale horizon for the outage arm, seconds.
const A1_MAX_STALE: u32 = 7_200;
/// Fault-plane seed for the outage arm.
const A1_FAULT_SEED: u64 = 0x0A7A6E;

/// The verified-sender email policy (the strong end of Table 2).
fn authenticated_email() -> ExternalDs {
    ExternalDs::Email {
        verifies_sender: true,
        accepts_foreign_sender: false,
        validates: false,
    }
}

/// The LaxMail policy from the paper's §5.3 anecdote: header-only
/// checking, forgeable by anyone who can type a `From:` line.
fn lax_email() -> ExternalDs {
    ExternalDs::Email {
        verifies_sender: false,
        accepts_foreign_sender: false,
        validates: false,
    }
}

/// Swaps the named registrar's external-DS channel.
fn set_channel(world: &mut World, registrar: &str, channel: ExternalDs) {
    let id = world
        .registrar_by_name(registrar)
        .expect("victim registrar exists");
    world.change_policy(id, PolicyChange::SetExternalDs(channel));
}

/// One load at the mixed fleet share with the campaign's hijacked zones
/// marked for re-labelling, over fresh caches.
fn mixed_load(world: &World, campaign: &AttackCampaign, threads: usize) -> TrafficReport {
    run_load(
        world,
        &LoadConfig::default()
            .with_queries(A1_QUERIES)
            .with_threads(threads)
            .with_seed(A1_SEED)
            .with_validating_share(A1_SHARE)
            .with_captured(campaign.hijacked_zones()),
    )
}

/// The stream indices that land on `name`, planned from the *current*
/// world exactly as `run_load` will plan them. The stream is a pure
/// function of (population, mix, seed, clock), so this is ground truth
/// for the split checks.
fn victim_indices(world: &World, name: &dsec_wire::Name) -> Vec<u64> {
    let population = TrafficPopulation::from_world(world);
    let config = LoadConfig::default();
    dsec_traffic::workload::generate_stream(
        &population,
        &config.mix,
        A1_SEED,
        A1_QUERIES,
        world.today.epoch_seconds(),
        config.sim_qps,
    )
    .iter()
    .enumerate()
    .filter(|(_, q)| &population.sites[q.site as usize].name == name)
    .map(|(i, _)| i as u64)
    .collect()
}

/// E-A1 — forged DS/NS takeovers, attacker authorities, and measured
/// user reach under a mixed resolver fleet. See the module docs for the
/// three arms.
pub fn experiment_attack_plane(population: &PopulationConfig) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-A1",
        "Registrar compromise: forged DS/NS takeovers and user reach under a mixed resolver fleet",
    );

    // ---- Arm A: the authenticated channel repels both vectors. ----
    let mut pw = build(population);
    let traffic_pop = TrafficPopulation::from_world(&pw.world);
    let victim = rollover_victim(&mut pw.world, &traffic_pop);
    let victim_registrar = traffic_pop.registrar_of(&victim);
    set_channel(&mut pw.world, victim_registrar, authenticated_email());
    let ds_before = pw.world.registry(victim.tld).ds_of(&victim.name);
    let ns_before = pw.world.registry(victim.tld).ns_of(&victim.name);
    let launch = pw.world.today.plus_days(1);
    let mut ns_campaign = AttackCampaign::new();
    ns_campaign.schedule(
        victim.name.clone(),
        AttackPlan::new(AttackVector::ForgedNs { stealthy: true }, launch),
    );
    let mut ds_campaign = AttackCampaign::new();
    ds_campaign.schedule(victim.name.clone(), AttackPlan::new(AttackVector::ForgedDs, launch));
    let until = pw.world.today.plus_days(2);
    while pw.world.today < until {
        pw.world.tick();
        ns_campaign.tick(&mut pw.world);
        ds_campaign.tick(&mut pw.world);
    }
    let repelled = ns_campaign.state(&victim.name).map(|s| s.phase) == Some(AttackPhase::Repelled)
        && ds_campaign.state(&victim.name).map(|s| s.phase) == Some(AttackPhase::Repelled);
    result.check(
        "arm A: authenticated email repels both takeover vectors (zero captures)",
        0.0,
        (ns_campaign.captured().len() + ds_campaign.captured().len()) as f64,
        0.0,
    );
    result.check(
        "arm A: no forged submission was accepted anywhere in the world",
        0.0,
        (pw.world.events.count("forged_email_accepted")
            + pw.world.events.count("forged_ns_accepted")) as f64,
        0.0,
    );
    result.check(
        "arm A: registry DS and NS are untouched and both attempts logged as repelled",
        1.0,
        f64::from(
            repelled
                && pw.world.events.count("attack_repelled") == 2
                && pw.world.registry(victim.tld).ds_of(&victim.name) == ds_before
                && pw.world.registry(victim.tld).ns_of(&victim.name) == ns_before,
        ),
        0.0,
    );
    let clean = mixed_load(&pw.world, &ns_campaign, 1);
    result.check(
        "arm A: mixed-fleet load sees zero hijacked and zero saved-by-validation",
        0.0,
        (clean.outcomes.hijacked + clean.outcomes.saved_by_validation) as f64,
        0.0,
    );

    // ---- Arm B: the LaxMail channel lets the forged NS land. ----
    let mut pw_b = build(population);
    let victim_b = rollover_victim(&mut pw_b.world, &traffic_pop);
    assert_eq!(victim_b.name, victim.name, "identical builds pick one victim");
    set_channel(&mut pw_b.world, victim_registrar, lax_email());
    let mut campaign_b = AttackCampaign::new();
    campaign_b.schedule(
        victim.name.clone(),
        AttackPlan::new(
            AttackVector::ForgedNs { stealthy: true },
            pw_b.world.today.plus_days(1),
        ),
    );
    let until_b = pw_b.world.today.plus_days(2);
    campaign_b.advance_to(&mut pw_b.world, until_b);
    let captured = campaign_b.hijacked_zones();
    result.check(
        "arm B: the forged NS change captured the victim",
        1.0,
        f64::from(captured == vec![victim.name.clone()]),
        0.0,
    );
    let indices = victim_indices(&pw_b.world, &victim.name);
    let expected_hijacked = indices
        .iter()
        .filter(|&&i| !validating_assignment(A1_SEED, i, A1_SHARE))
        .count() as u64;
    let load_1 = mixed_load(&pw_b.world, &campaign_b, 1);
    let load_8 = mixed_load(&pw_b.world, &campaign_b, 8);
    result.check(
        "arm B: the captured victim is actually queried by both sub-fleets",
        1.0,
        f64::from(expected_hijacked > 0 && expected_hijacked < indices.len() as u64),
        0.0,
    );
    result.check(
        "arm B: hijacked + saved-by-validation equals the victim's planned query count",
        indices.len() as f64,
        (load_1.outcomes.hijacked + load_1.outcomes.saved_by_validation) as f64,
        0.0,
    );
    result.check(
        "arm B: the hijacked count is exactly the non-validating share of victim hits",
        expected_hijacked as f64,
        load_1.outcomes.hijacked as f64,
        0.0,
    );
    let victim_counts = load_1
        .by_registrar
        .get(victim_registrar)
        .copied()
        .unwrap_or_default();
    result.check(
        "arm B: every attack outcome attributes to the responsible registrar",
        1.0,
        f64::from(
            victim_counts.hijacked == load_1.outcomes.hijacked
                && victim_counts.saved_by_validation == load_1.outcomes.saved_by_validation,
        ),
        0.0,
    );
    result.check(
        "arm B: tallies byte-identical across 1 and 8 worker threads",
        1.0,
        f64::from(
            load_1.outcomes == load_8.outcomes
                && load_1.by_registrar == load_8.by_registrar
                && load_1.by_operator == load_8.by_operator
                && load_1.histogram == load_8.histogram,
        ),
        0.0,
    );

    // ---- Arm C: the hijack rides through an unrelated fleet outage. ----
    let mut pw_c = build(population);
    rollover_victim(&mut pw_c.world, &traffic_pop);
    set_channel(&mut pw_c.world, victim_registrar, lax_email());
    let mut campaign_c = AttackCampaign::new();
    campaign_c.schedule(
        victim.name.clone(),
        AttackPlan::new(
            AttackVector::ForgedNs { stealthy: true },
            pw_c.world.today.plus_days(1),
        ),
    );
    let until_c = pw_c.world.today.plus_days(2);
    campaign_c.advance_to(&mut pw_c.world, until_c);
    let (outage_victim, fleet) =
        largest_operator_fleet(&pw_c.world, Some(traffic_pop.operator_of(&victim)));
    let span = (A1_QUERIES / A1_QPS as u64) as u32;
    let base = pw_c.world.today.epoch_seconds();
    pw_c.world.fault_plane().enable(A1_FAULT_SEED);
    OutageScenario::operator_outage("attack-under-outage", fleet, base + span, base + 2 * span + 60)
        .install(pw_c.world.fault_plane());
    let outage_run = attack_outage_phases(&pw_c.world, &campaign_c, span, 1);
    let outage_run8 = attack_outage_phases(&pw_c.world, &campaign_c, span, 8);
    let outage_victim_counts = outage_run
        .by_operator
        .get(&outage_victim)
        .copied()
        .unwrap_or_default();
    result.check(
        "arm C: serve-stale keeps the outage victim's availability ≥ 90%",
        1.0,
        f64::from(outage_run.outcomes.stale > 0 && outage_victim_counts.availability() >= 0.90),
        0.0,
    );
    result.check(
        "arm C: the hijack stays fully visible through the outage",
        1.0,
        f64::from(
            outage_run.outcomes.hijacked > 0 && outage_run.outcomes.saved_by_validation > 0,
        ),
        0.0,
    );
    result.check(
        "arm C: tallies byte-identical across 1 and 8 worker threads",
        1.0,
        f64::from(
            outage_run.outcomes == outage_run8.outcomes
                && outage_run.by_registrar == outage_run8.by_registrar
                && outage_run.by_operator == outage_run8.by_operator,
        ),
        0.0,
    );

    // The artifact: reach numbers plus the scanner's per-registrar
    // takeover census over the arm-B world.
    let mut artifact = format!(
        "victim domain {} (registrar {}, operator {})\n\
         arm A (verified sender): 2 attempts, 0 captures, {} hijacked/saved outcomes\n\
         arm B (LaxMail):         victim hit {} times/day → {} hijacked ({}% non-validating fleet), \
         {} saved by validation\n\
         arm C (outage overlay):  outage victim {} availability {:.1}% with serve-stale; \
         {} stale, {} hijacked, {} saved\n\npaper tie-in: §5.3/§6.4 — the channel decides; \
         validation only caps the blast radius.\n\nper-registrar takeover census (arm B world):\n",
        victim.name,
        victim_registrar,
        traffic_pop.operator_of(&victim),
        clean.outcomes.hijacked + clean.outcomes.saved_by_validation,
        indices.len(),
        load_1.outcomes.hijacked,
        (100.0 * (1.0 - A1_SHARE)) as u32,
        load_1.outcomes.saved_by_validation,
        outage_victim,
        100.0 * outage_victim_counts.availability(),
        outage_run.outcomes.stale,
        outage_run.outcomes.hijacked,
        outage_run.outcomes.saved_by_validation,
    );
    artifact.push_str(&takeover_census_table(&takeover_census(&pw_b.world)));
    result.artifact = artifact;
    result
}

/// The two-phase (warm-up, then in-outage replay) load for arm C, over
/// persistent validating *and* non-validating caches — the poisoned
/// side of the fleet keeps its cache across the phase boundary exactly
/// like the clean side does.
fn attack_outage_phases(
    world: &World,
    campaign: &AttackCampaign,
    span_s: u32,
    threads: usize,
) -> TrafficReport {
    let mut config = LoadConfig::default()
        .with_queries(A1_QUERIES)
        .with_threads(threads)
        .with_seed(A1_SEED)
        .with_max_stale(A1_MAX_STALE)
        .with_validating_share(A1_SHARE)
        .with_captured(campaign.hijacked_zones());
    config.sim_qps = A1_QPS;
    let cache = Arc::new(Cache::bounded(config.cache_capacity).with_max_stale(A1_MAX_STALE));
    let nv_cache = Arc::new(Cache::bounded(config.cache_capacity).with_max_stale(A1_MAX_STALE));
    run_load_mixed(world, &config, Arc::clone(&cache), Arc::clone(&nv_cache));
    run_load_mixed(
        world,
        &config.clone().with_now_offset(span_s),
        cache,
        nv_cache,
    )
}
