//! E-A2 — the resolver-hardening / cache-poisoning experiment.
//!
//! Three arms wire the spoofing race (`dsec_resolver::spoofguard`), the
//! on-path campaign arm (`dsec_attack::onpath`), and the RFC 5011
//! trust-anchor roll (`dsec_ecosystem::anchor`) through the traffic
//! plane, all seeded and byte-identical run to run:
//!
//! * **Arm A (hardened fleet)** — a Kaminsky campaign races every fresh
//!   resolution under the Zipf-head victim while the whole fleet runs
//!   the hardened profile (16-bit TXID, 16-bit source port, 0x20,
//!   strict bailiwick). The attacker demonstrably contests exchanges,
//!   yet zero forged answers are admitted and zero `Poisoned` outcomes
//!   reach users.
//! * **Arm B (naive profile, analytic bound)** — the same attacker
//!   against a naive resolver (10-bit TXID, fixed port, no 0x20, no
//!   bailiwick discipline). Over a batch of fresh victim names the
//!   observed capture count must land within 4σ of the birthday-bound
//!   prediction `races · (1 − (1 − 2^−bits)^spoofs)` — the defense gap
//!   is arithmetic, not luck. The poisoned cache is then swept by the
//!   scanner's per-registrar poison census.
//! * **Arm C (mistimed trust-anchor roll)** — the root KSK is rolled
//!   with the old anchor revoked *inside* the RFC 5011 hold-down.
//!   Day-by-day loads must go bogus for validating users on exactly the
//!   stranded window `[revoke, promotion)` — during which validating
//!   users are strictly *worse off* than non-validating ones — and heal
//!   at promotion, with every bogus outcome attributed per registrar
//!   and operator.

use dsec_attack::{OnPathCampaign, OnPathVector};
use dsec_ecosystem::AnchorRollPlan;
use dsec_reports::ExperimentResult;
use dsec_resolver::{capture_kind, CaptureKind, OnPathThreat, Resolver, SpoofGuard};
use dsec_scanner::{poison_census, poison_census_table};
use dsec_traffic::{run_load, Cache, LoadConfig, TrafficPopulation, TrafficReport};
use dsec_wire::RrType;
use dsec_workloads::{build, PopulationConfig};

use crate::rollover::rollover_victim;

/// Stream seed for every E-A2 load.
const A2_SEED: u64 = 0x00A2_5EED;
/// Queries per load / per simulated day in the anchor walk.
const A2_QUERIES: u64 = 1_024;
/// Validating share of the mixed fleet.
const A2_SHARE: f64 = 0.5;
/// Forged responses the attacker lands per contested exchange.
const A2_SPOOFS: u32 = 300;
/// Fresh victim names raced in the analytic arm.
const A2_RACES: u32 = 256;
/// Compressed RFC 5011 hold-down for the anchor walk, days.
const A2_HOLD_DOWN: u32 = 10;
/// Days after publication the mistimed roll revokes the old anchor
/// (inside the hold-down: strands followers for the remaining 5 days).
const A2_REVOKE_AFTER: u32 = 5;

/// A mixed-fleet load with the on-path threat armed and the given
/// defense profile on both resolvers.
fn raced_load(
    world: &dsec_ecosystem::World,
    guard: SpoofGuard,
    threat: OnPathThreat,
) -> TrafficReport {
    run_load(
        world,
        &LoadConfig::default()
            .with_queries(A2_QUERIES)
            .with_seed(A2_SEED)
            .with_validating_share(A2_SHARE)
            .with_spoof_guard(guard)
            .with_threat(threat),
    )
}

/// A plain day load for the anchor walk (no attacker on the wire).
fn anchor_day_load(world: &dsec_ecosystem::World, share: f64) -> TrafficReport {
    run_load(
        world,
        &LoadConfig::default()
            .with_queries(A2_QUERIES)
            .with_seed(A2_SEED)
            .with_validating_share(share),
    )
}

/// E-A2 — cache-poisoning resistance under entropy/0x20/bailiwick
/// hardening, the analytic Kaminsky bound on the naive profile, and
/// RFC 5011 trust-anchor survival. See the module docs for the arms.
pub fn experiment_poison_resistance(population: &PopulationConfig) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "E-A2",
        "Resolver hardening: Kaminsky races vs entropy profiles, poison census, RFC 5011 trust-anchor survival",
    );

    // ---- Arm A: the hardened fleet admits nothing. ----
    let mut pw = build(population);
    let traffic_pop = TrafficPopulation::from_world(&pw.world);
    let victim = rollover_victim(&mut pw.world, &traffic_pop);
    let mut campaign = OnPathCampaign::new(
        OnPathVector::KaminskyRace {
            spoofs_per_race: A2_SPOOFS,
        },
        victim.name.clone(),
        pw.world.today.plus_days(1),
    );
    let until = pw.world.today.plus_days(2);
    while pw.world.today < until {
        pw.world.tick();
        campaign.tick(&mut pw.world);
    }
    let threat = campaign
        .threat_for(pw.world.today)
        .expect("campaign window is open");
    result.check(
        "arm A: campaign lifecycle logged (one poison-race launch)",
        1.0,
        pw.world.events.count("poison_race_launched") as f64,
        0.0,
    );
    let hard = raced_load(&pw.world, SpoofGuard::hardened(), threat.clone());
    result.check(
        "arm A: the attacker genuinely contests exchanges under the victim zone",
        1.0,
        f64::from(hard.resolver.poison_races > 0),
        0.0,
    );
    result.check(
        "arm A: the hardened fleet admits zero forged answers",
        0.0,
        (hard.resolver.poison_admitted + hard.outcomes.poisoned) as f64,
        0.0,
    );

    // ---- Arm B: the naive profile captures at the analytic rate. ----
    let now = pw.world.today.epoch_seconds();
    let naive = SpoofGuard::naive();
    let naive_resolver = Resolver::new(pw.world.network.clone(), Vec::new())
        .with_spoof_guard(naive)
        .with_on_path_threat(threat.clone());
    let hardened_resolver = Resolver::new(pw.world.network.clone(), Vec::new())
        .with_spoof_guard(SpoofGuard::hardened())
        .with_on_path_threat(threat.clone());
    let mut observed = 0u64;
    let mut hardened_observed = 0u64;
    let mut first_poisoned = None;
    for i in 0..A2_RACES {
        let qname = victim
            .name
            .child(&format!("w{i}"))
            .expect("short label fits");
        if let Ok(answer) = naive_resolver.resolve(&qname, RrType::A, now) {
            if answer.poisoned {
                observed += 1;
                first_poisoned.get_or_insert(answer);
            }
        }
        if let Ok(answer) = hardened_resolver.resolve(&qname, RrType::A, now) {
            hardened_observed += u64::from(answer.poisoned);
        }
    }
    // Every raced name is fresh (never cached), so each race is one
    // independent draw at the analytic per-race probability.
    let sample = victim.name.child("w0").expect("short label fits");
    let p = naive.race_success_probability(&sample, A2_SPOOFS);
    let expected = A2_RACES as f64 * p;
    let tolerance = 4.0 * (A2_RACES as f64 * p * (1.0 - p)).sqrt();
    result.check(
        "arm B: naive-profile captures match the birthday bound within 4 sigma",
        expected,
        observed as f64,
        tolerance,
    );
    result.check(
        "arm B: the hardened profile admits zero captures over the same races",
        0.0,
        hardened_observed as f64
            + f64::from(SpoofGuard::hardened().race_success_probability(&sample, A2_SPOOFS) > 1e-6),
        0.0,
    );
    result.check(
        "arm B: per-query diagnosis labels an admitted forgery as Poisoned",
        1.0,
        f64::from(
            first_poisoned
                .as_ref()
                .map(|a| capture_kind(a, None) == CaptureKind::Poisoned)
                .unwrap_or(false),
        ),
        0.0,
    );

    // The scanner's poison census over a cache that holds one forged
    // `www` answer: the attacker seed is searched so the www race is a
    // win (deterministic per population — the draw is a pure function).
    let www = victim.name.child("www").expect("www fits");
    let census_seed = (0..64)
        .find(|&s| {
            OnPathThreat::new(victim.name.clone(), A2_SPOOFS, s).race_won(&naive, &www, RrType::A)
        })
        .expect("some seed wins the www race at p≈0.25");
    let census_cache = std::sync::Arc::new(Cache::new());
    let census_resolver = Resolver::new(pw.world.network.clone(), Vec::new())
        .with_spoof_guard(naive)
        .with_shared_cache(census_cache.clone())
        .with_on_path_threat(OnPathThreat::new(
            victim.name.clone(),
            A2_SPOOFS,
            census_seed,
        ));
    let _ = census_resolver.resolve_cached(&www, RrType::A, now);
    let census = poison_census(&pw.world, &census_cache, now);
    let victim_row = census
        .get(traffic_pop.registrar_of(&victim))
        .copied()
        .unwrap_or_default();
    result.check(
        "arm B: the poison census attributes the forged cached answer to the victim's registrar",
        1.0,
        f64::from(victim_row.cached_names >= 1 && victim_row.poisoned_names >= 1),
        0.0,
    );

    // ---- Arm C: the mistimed trust-anchor roll strands validators. ----
    let mut pw_c = build(population);
    let plan = AnchorRollPlan::mistimed(pw_c.world.today.plus_days(2), A2_REVOKE_AFTER)
        .with_hold_down(A2_HOLD_DOWN);
    pw_c.world.schedule_anchor_roll(plan);
    let last = plan.promotion().plus_days(2);
    let mut window_exact = true;
    let mut stranded_day = None;
    let mut healed_day = None;
    while pw_c.world.today < last {
        pw_c.world.tick();
        let day = anchor_day_load(&pw_c.world, A2_SHARE);
        let stranded = plan.is_stranded_on(pw_c.world.today);
        if (day.outcomes.bogus > 0) != stranded {
            window_exact = false;
        }
        if stranded && stranded_day.is_none() {
            // Replay this day as two pure fleets: validation itself is
            // what hurts during the gap.
            let all_v = anchor_day_load(&pw_c.world, 1.0);
            let none_v = anchor_day_load(&pw_c.world, 0.0);
            stranded_day = Some((day, all_v, none_v));
        } else if pw_c.world.today >= plan.promotion() && healed_day.is_none() {
            healed_day = Some(day);
        }
    }
    result.check(
        "arm C: validating users go bogus on exactly the stranded window [revoke, promotion)",
        1.0,
        f64::from(window_exact && stranded_day.is_some()),
        0.0,
    );
    let (mixed, all_validating, none_validating) =
        stranded_day.expect("the mistimed plan has a stranded window");
    result.check(
        "arm C: the roll's lifecycle is logged (published, revoked-early, promoted)",
        1.0,
        f64::from(
            pw_c.world.events.count("trust_anchor_published") == 1
                && pw_c.world.events.count("trust_anchor_revoked") == 1
                && pw_c.world.events.count("trust_anchor_promoted") == 1,
        ),
        0.0,
    );
    result.check(
        "arm C: every bogus outcome attributes to a registrar and an operator",
        1.0,
        f64::from(
            mixed.by_registrar.values().map(|c| c.bogus).sum::<u64>() == mixed.outcomes.bogus
                && mixed.by_operator.values().map(|c| c.bogus).sum::<u64>() == mixed.outcomes.bogus
                && mixed.outcomes.bogus > 0,
        ),
        0.0,
    );
    result.check(
        "arm C: validating users are strictly worse off than non-validating in the gap",
        1.0,
        f64::from(
            all_validating.outcomes.availability() < none_validating.outcomes.availability()
                && none_validating.outcomes.availability() > 0.99
                && all_validating.outcomes.secure == 0,
        ),
        0.0,
    );
    let healed = healed_day.expect("the walk runs past promotion");
    result.check(
        "arm C: promotion heals the fleet (zero bogus, validated answers return)",
        1.0,
        f64::from(healed.outcomes.bogus == 0 && healed.outcomes.secure > 0),
        0.0,
    );

    let mut artifact = format!(
        "victim zone {} (registrar {}, operator {})\n\
         arm A (hardened fleet):  {} races contested, {} admitted, {} Poisoned outcomes\n\
         arm B (naive profile):   {}/{} races captured (analytic {:.1} ± {:.1}); hardened: {}\n\
         arm C (mistimed 5011):   publish {} / revoke {} / promotion {} — stranded window {:?},\n\
         \x20                        validating availability {:.1}% vs non-validating {:.1}% mid-gap\n\n\
         paper tie-in: the registrar channel is one attack surface; the resolver's entropy\n\
         profile and anchor hygiene decide the rest — hardened fleets hold both lines.\n\n\
         per-registrar poison census (arm B cache):\n",
        victim.name,
        traffic_pop.registrar_of(&victim),
        traffic_pop.operator_of(&victim),
        hard.resolver.poison_races,
        hard.resolver.poison_admitted,
        hard.outcomes.poisoned,
        observed,
        A2_RACES,
        expected,
        tolerance,
        hardened_observed,
        plan.publish,
        plan.revoke,
        plan.promotion(),
        plan.stranded_window(),
        100.0 * all_validating.outcomes.availability(),
        100.0 * none_validating.outcomes.availability(),
    );
    artifact.push_str(&poison_census_table(&census));
    result.artifact = artifact;
    result
}
