//! E-A1 — the registrar-compromise attack experiment.
//!
//! Three arms wire the attack plane (`dsec_attack`) through the
//! ecosystem's channel authentication, the attacker's authoritative
//! infrastructure, and the mixed validating/non-validating traffic
//! fleet, all seeded and byte-identical run to run:
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
//!   stays fully visible — degradation never masks a takeover. Its
//!   set-up is arm B's (same victim, LaxMail channel, campaign and two
//!   days), so it runs on arm B's world: a load never mutates the world
//!   it runs on.

use dsec_attack::{AttackCampaign, AttackPhase, AttackPlan, AttackVector};
use dsec_authserver::OutageScenario;
use dsec_ecosystem::{ExternalDs, PolicyChange, World};
use dsec_reports::ExperimentResult;
use dsec_scanner::{census_table, largest_operator_fleet, takeover_census};
use dsec_traffic::{run_load, validating_assignment, LoadConfig, TrafficPopulation};
use dsec_workloads::{build, PopulationConfig};

use crate::experiments::{
    install_outage, outage_phases, outage_window, stream_hits, OUTAGE_MAX_STALE, OUTAGE_QPS,
};
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

/// The load at the mixed fleet share with the campaign's hijacked zones
/// marked for re-labelling.
fn mixed_config(campaign: &AttackCampaign) -> LoadConfig {
    LoadConfig::default()
        .with_queries(A1_QUERIES)
        .with_seed(A1_SEED)
        .with_validating_share(A1_SHARE)
        .with_captured(campaign.hijacked_zones())
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
    ds_campaign.schedule(
        victim.name.clone(),
        AttackPlan::new(AttackVector::ForgedDs, launch),
    );
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
    let clean = run_load(&pw.world, &mixed_config(&ns_campaign));
    result.check(
        "arm A: mixed-fleet load sees zero hijacked and zero saved-by-validation",
        0.0,
        (clean.outcomes.hijacked + clean.outcomes.saved_by_validation) as f64,
        0.0,
    );

    // ---- Arm B: the LaxMail channel lets the forged NS land. ----
    let mut pw_b = build(population);
    let victim_b = rollover_victim(&mut pw_b.world, &traffic_pop);
    assert_eq!(
        victim_b.name, victim.name,
        "identical builds pick one victim"
    );
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
    // The stream planned from the *current* world, exactly as the load
    // will plan it: ground truth for the split checks.
    let indices = stream_hits(
        &TrafficPopulation::from_world(&pw_b.world),
        &mixed_config(&campaign_b),
        &victim.name,
    );
    let expected_hijacked = indices
        .iter()
        .filter(|&&i| !validating_assignment(A1_SEED, i, A1_SHARE))
        .count() as u64;
    let load = run_load(&pw_b.world, &mixed_config(&campaign_b));
    result.check(
        "arm B: the captured victim is actually queried by both sub-fleets",
        1.0,
        f64::from(expected_hijacked > 0 && expected_hijacked < indices.len() as u64),
        0.0,
    );
    result.check(
        "arm B: hijacked + saved-by-validation equals the victim's planned query count",
        indices.len() as f64,
        (load.outcomes.hijacked + load.outcomes.saved_by_validation) as f64,
        0.0,
    );
    result.check(
        "arm B: the hijacked count is exactly the non-validating share of victim hits",
        expected_hijacked as f64,
        load.outcomes.hijacked as f64,
        0.0,
    );
    let victim_counts = load
        .by_registrar
        .get(victim_registrar)
        .copied()
        .unwrap_or_default();
    result.check(
        "arm B: every attack outcome attributes to the responsible registrar",
        1.0,
        f64::from(
            victim_counts.hijacked == load.outcomes.hijacked
                && victim_counts.saved_by_validation == load.outcomes.saved_by_validation,
        ),
        0.0,
    );

    // The census reads served DNSKEYs through the network, so it is taken
    // before arm C takes part of that network down.
    let census = census_table(&takeover_census(&pw_b.world));

    // ---- Arm C: the hijack rides through an unrelated fleet outage,
    // on arm B's world. ----
    let world_c = &pw_b.world;
    let (outage_victim, fleet) =
        largest_operator_fleet(world_c, Some(traffic_pop.operator_of(&victim)));
    let outage = LoadConfig {
        sim_qps: OUTAGE_QPS,
        ..mixed_config(&campaign_b).with_max_stale(OUTAGE_MAX_STALE)
    };
    let (from, until) = outage_window(world_c, &outage);
    install_outage(
        world_c,
        &OutageScenario::operator_outage("attack-under-outage", fleet, from, until),
    );
    let (outage_run, _) = outage_phases(world_c, &outage);
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
        f64::from(outage_run.outcomes.hijacked > 0 && outage_run.outcomes.saved_by_validation > 0),
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
        load.outcomes.hijacked,
        (100.0 * (1.0 - A1_SHARE)) as u32,
        load.outcomes.saved_by_validation,
        outage_victim,
        100.0 * outage_victim_counts.availability(),
        outage_run.outcomes.stale,
        outage_run.outcomes.hijacked,
        outage_run.outcomes.saved_by_validation,
    );
    artifact.push_str(&census);
    result.artifact = artifact;
    result
}
