//! `build`: one operation is one domain placed by
//! `dsec_workloads::build` at full scale. `crypto`, the `dnssec` signer,
//! `ecosystem::World::purchase` and `authserver` zone upserts do all the
//! work; `resolver`, `scanner` and `traffic` do none.

use dsec_ecosystem::{World, ALL_TLDS};
use dsec_resolver::{Resolver, Security};
use dsec_scanner::Snapshot;
use dsec_wire::{Name, RrType};
use dsec_workloads::PaperWorld;

use super::{measured, record_timed, Ctx};
use crate::inputs::SplitMix;
use crate::report::Report;

/// Domains resolved per class (signed with DS, unsigned) by the check.
const RESOLVE_CHECKS: usize = 64;

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::new("build");

    // Set-up is one untimed warm-up build: the first build of a process
    // also pays for growing the heap, which the timed ones reuse.
    let (warm, setup_s, _) = measured(|| ctx.build_world());
    report.setup_s.push(setup_s);
    drop(warm);

    let mut last: Option<PaperWorld> = None;
    let mut domains: Vec<usize> = Vec::new();
    let timed = ctx.repeat(5, |ctx, _| {
        // The previous world is freed outside the timed region, so peak
        // RSS is one world and the drop is not billed to the build.
        last = None;
        let (pw, wall, allocs) = measured(|| ctx.build_world());
        domains.push(pw.world.domain_count());
        last = Some(pw);
        (wall, allocs)
    });
    let world = &last.as_ref().expect("at least one repetition ran").world;
    let placed = world.domain_count() as u64;
    report.ops_per_rep = placed;

    report.check(
        "builds_repeat",
        domains.iter().all(|&d| d as u64 == placed),
        format!("domain counts per repetition: {domains:?}"),
    );

    // Every placed domain must be visible to a scan of the registries.
    let snapshot = Snapshot::take(world);
    let scanned: u64 = ALL_TLDS
        .iter()
        .map(|&t| snapshot.tld_totals(t).domains)
        .sum();
    report.check(
        "snapshot_sees_every_domain",
        scanned == placed,
        format!("snapshot sums {scanned} domains, world holds {placed}"),
    );
    let missing = placed.saturating_sub(scanned);
    let reps = timed.wall_s.len() as u64;
    report.attempted = placed * reps;
    report.failed = missing * reps;
    report.answered_share = 1.0 - missing as f64 / placed.max(1) as f64;

    let mut rng = SplitMix::new(ctx.inputs.sample_seed);
    let (signed, unsigned) = chained_and_unsigned(world);
    for (name, pool, expect_secure) in [
        ("signed_domains_resolve_secure", &signed, true),
        ("unsigned_domains_resolve_insecure", &unsigned, false),
    ] {
        let picks = rng.pick(pool, RESOLVE_CHECKS);
        let wrong = picks
            .iter()
            .filter(|&&domain| resolves_secure(world, domain) != Some(expect_secure))
            .count();
        report.check(
            name,
            !picks.is_empty() && wrong == 0,
            format!(
                "{} of {} sampled domains resolved otherwise",
                wrong,
                picks.len()
            ),
        );
    }

    report.layers.set(
        "dnssec.signed_zones",
        world.domains().filter(|d| d.is_signed()).count() as f64,
    );
    record_timed(ctx, &timed, &mut report);
    report
}

/// Domains with a complete chain (signed, DS at the registry) and
/// domains with neither keys nor DS.
fn chained_and_unsigned(world: &World) -> (Vec<Name>, Vec<Name>) {
    let mut chained = Vec::new();
    let mut unsigned = Vec::new();
    for d in world.domains() {
        let has_ds = !world.registry(d.tld).ds_of(&d.name).is_empty();
        match (d.is_signed(), has_ds) {
            (true, true) => chained.push(d.name.clone()),
            (false, false) => unsigned.push(d.name.clone()),
            _ => {}
        }
    }
    (chained, unsigned)
}

/// `Some(true)` Secure, `Some(false)` Insecure, `None` anything else.
fn resolves_secure(world: &World, domain: &Name) -> Option<bool> {
    let resolver = Resolver::new(world.network.clone(), world.trust_anchor());
    let www = domain.child("www").ok()?;
    let answer = resolver
        .resolve(&www, RrType::A, world.today.epoch_seconds())
        .ok()?;
    match answer.security {
        Security::Secure => Some(true),
        Security::Insecure => Some(false),
        Security::Bogus(_) => None,
    }
}
