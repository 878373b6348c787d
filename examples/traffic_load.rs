//! The user-traffic plane, hands on: run a deterministic query load
//! against the simulated ecosystem, print the query-weighted view of
//! DNSSEC protection, then break one popular domain's chain (abrupt key
//! roll, stale DS at the registry) and watch the bogus queries land on
//! the responsible registrar. Exits nonzero unless the fault-free load
//! answers nothing bogus and, after the roll, every bogus answer is the
//! victim's, under its registrar and its operator.
//!
//! ```sh
//! cargo run --release --example traffic_load              # 1:20000 scale
//! DSEC_SCALE=2000 cargo run --release --example traffic_load
//! ```

use std::collections::BTreeMap;

use dsec::ecosystem::Tld;
use dsec::scanner::Snapshot;
use dsec::traffic::{run_load, LoadConfig, OutcomeCounts, TrafficPopulation};
use dsec::workloads::{build, PopulationConfig};

/// The actors with a bogus answer to their name, and how many.
fn bogus_by(by: &BTreeMap<String, OutcomeCounts>) -> Vec<(&str, u64)> {
    by.iter()
        .filter(|(_, counts)| counts.bogus > 0)
        .map(|(actor, counts)| (actor.as_str(), counts.bogus))
        .collect()
}

fn main() {
    let scale: u64 = std::env::var("DSEC_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let mut pw = build(&PopulationConfig {
        scale,
        ..Default::default()
    });
    eprintln!(
        "world built at scale 1:{scale}: {} domains",
        pw.world.domain_count()
    );

    let config = LoadConfig::default();
    let report = run_load(&pw.world, &config);
    println!("{}", report.summary_line());
    println!(
        "wall throughput: {:.0} q/s; simulated throughput: {:.0} q/s\n",
        report.wall_qps(),
        report.sim_qps()
    );

    let snapshot = Snapshot::take(&pw.world);
    println!("{}", dsec::reports::user_impact(&report, &snapshot));
    assert_eq!(report.outcomes.bogus, 0, "a fault-free load answers bogus");

    // Now the failure story: the head .nl site rolls its keys without
    // telling the registry. The published DS matches nothing served.
    let population = TrafficPopulation::from_world(&pw.world);
    let victim = population.ranked[&Tld::Nl]
        .iter()
        .map(|&i| &population.sites[i as usize])
        .find(|site| {
            pw.world
                .domain(&site.name)
                .map(|d| d.is_signed())
                .unwrap_or(false)
        })
        .expect("a signed .nl site exists")
        .clone();
    pw.world
        .roll_keys_abrupt(&victim.name)
        .expect("victim is signed");
    let (registrar, operator) = (
        population.registrar_of(&victim),
        population.operator_of(&victim),
    );
    println!(
        "--- abrupt key roll at {} (registrar {registrar}, operator {operator}) ---",
        victim.name
    );

    let broken = run_load(&pw.world, &config);
    println!("{}", broken.summary_line());
    for (registrar, counts) in &broken.by_registrar {
        if counts.bogus > 0 {
            println!(
                "  {registrar}: {} of {} queries bogus (validation failure at the registry DS)",
                counts.bogus,
                counts.total()
            );
        }
    }
    let bogus = broken.outcomes.bogus;
    assert!(bogus > 0, "the stale DS turned no query bogus");
    assert_eq!(bogus_by(&broken.by_registrar), [(registrar, bogus)]);
    assert_eq!(bogus_by(&broken.by_operator), [(operator, bogus)]);
}
