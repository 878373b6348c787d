//! Per-operator key-rollover style census.
//!
//! The ecosystem logs every key-lifecycle transition unconditionally
//! (see `dsec_ecosystem::events`): rollover phases, abrupt key
//! replacements, off-schedule DS swaps, lapsed signatures. This module
//! joins that log with the scanner's DNS-operator grouping — the same
//! NS-derived [`operator_of`](crate::operator_of) key every snapshot
//! cell uses — so a campaign can answer the paper-style question
//! "*which operators* run which rollover choreography, and which ones
//! break chains doing it?".

use std::collections::BTreeMap;

use dsec_ecosystem::{Event, RolloverStyle, World};
use dsec_wire::Name;

/// Rollover behaviour tallies for one DNS operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorRolloverStats {
    /// Completed pre-publish ZSK rollovers (no DS leg).
    pub prepublish_zsk: u64,
    /// Completed double-signature KSK rollovers.
    pub double_signature_ksk: u64,
    /// Completed algorithm rollovers.
    pub algorithm: u64,
    /// Abrupt key replacements (no rollover choreography at all).
    pub abrupt: u64,
    /// DS swaps that landed off the planned day (a mistimed registrar
    /// leg — each one risks, and past the double-signature window
    /// guarantees, a bogus window).
    pub off_schedule_ds: u64,
    /// RRSIG validity lapses observed mid-rollover (stalled operator).
    pub expired_signatures: u64,
}

impl OperatorRolloverStats {
    /// Completed choreographed rollovers of any style.
    pub fn completed(&self) -> u64 {
        self.prepublish_zsk + self.double_signature_ksk + self.algorithm
    }

    /// Lifecycle incidents that open (or threaten) bogus windows.
    pub fn incidents(&self) -> u64 {
        self.abrupt + self.off_schedule_ds + self.expired_signatures
    }

    fn count_completed(&mut self, style: RolloverStyle) {
        match style {
            RolloverStyle::PrePublishZsk => self.prepublish_zsk += 1,
            RolloverStyle::DoubleSignatureKsk => self.double_signature_ksk += 1,
            RolloverStyle::Algorithm => self.algorithm += 1,
        }
    }
}

/// The operator key a lifecycle event attributes to: the registry's
/// operator column for the domain's current delegation, or
/// `"(unknown)"` when the domain has left the registry.
fn operator_key_of(world: &World, domain: &Name) -> String {
    world
        .domain(domain)
        .and_then(|d| world.registry(d.tld).operator_of(domain))
        .map(|op| op.to_string())
        .unwrap_or_else(|| "(unknown)".into())
}

/// Builds the census: walks the world's always-logged key-lifecycle
/// entries and tallies them under the owning operator's key. Counts are
/// cumulative over the world's whole history, deterministic, and
/// independent of scan threading (the log is single-writer).
pub fn rollover_census(world: &World) -> BTreeMap<String, OperatorRolloverStats> {
    let mut census: BTreeMap<String, OperatorRolloverStats> = BTreeMap::new();
    for (_, event) in world.events.entries() {
        let (domain, apply): (&Name, fn(&mut OperatorRolloverStats, &Event)) = match event {
            Event::RolloverCompleted { domain, .. } => (domain, |s, e| {
                if let Event::RolloverCompleted { style, .. } = e {
                    s.count_completed(*style);
                }
            }),
            Event::RolloverAbrupt { domain } => (domain, |s, _| s.abrupt += 1),
            Event::RolloverDsSwapped {
                domain,
                on_schedule: false,
            } => (domain, |s, _| s.off_schedule_ds += 1),
            Event::SignatureExpired { domain } => (domain, |s, _| s.expired_signatures += 1),
            _ => continue,
        };
        let entry = census.entry(operator_key_of(world, domain)).or_default();
        apply(entry, event);
    }
    census
}

/// Renders the census as a fixed-width table, one operator per row,
/// sorted by completed-rollover volume (ties by key). Empty input
/// renders a single explanatory line.
pub fn rollover_census_table(census: &BTreeMap<String, OperatorRolloverStats>) -> String {
    if census.is_empty() {
        return "no key-lifecycle events logged\n".into();
    }
    let mut rows: Vec<(&String, &OperatorRolloverStats)> = census.iter().collect();
    rows.sort_by(|a, b| {
        b.1.completed()
            .cmp(&a.1.completed())
            .then_with(|| a.0.cmp(b.0))
    });
    let mut out = String::from(
        "operator              prepub-zsk  double-ksk  algorithm  abrupt  off-sched-ds  expired-sigs\n",
    );
    for (op, s) in rows {
        out.push_str(&format!(
            "{op:<20} {:>11} {:>11} {:>10} {:>7} {:>13} {:>13}\n",
            s.prepublish_zsk,
            s.double_signature_ksk,
            s.algorithm,
            s.abrupt,
            s.off_schedule_ds,
            s.expired_signatures,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_ecosystem::{
        DsTiming, Hosting, OperatorDnssec, Plan, RegistrarPolicy, RolloverPlan, TldPolicy, TldRole,
        World, WorldConfig, ALL_TLDS,
    };

    fn census_world() -> (World, Name, Name) {
        let mut w = World::new(WorldConfig {
            key_pool: 2,
            ..WorldConfig::default()
        });
        let policy = RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Default,
            external_ds: dsec_ecosystem::ExternalDs::Web { validates: true },
            tlds: ALL_TLDS
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                .collect(),
        };
        let r = w.add_registrar("CensusReg", Name::parse("censusreg.net").unwrap(), policy);
        let a = w
            .purchase(
                r,
                "alpha",
                dsec_ecosystem::Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "a@x.com",
            )
            .unwrap();
        let b = w
            .purchase(
                r,
                "beta",
                dsec_ecosystem::Tld::Com,
                Hosting::Registrar { plan: Plan::Free },
                "b@x.com",
            )
            .unwrap();
        (w, a, b)
    }

    #[test]
    fn census_counts_styles_and_incidents_per_operator() {
        let (mut w, a, b) = census_world();
        let plan = RolloverPlan::correct(
            dsec_ecosystem::RolloverStyle::DoubleSignatureKsk,
            w.today.plus_days(1),
        )
        .with_ds_timing(DsTiming::Late { days: 5 });
        let done = plan.actual_swap().unwrap().plus_days(1);
        w.schedule_rollover(&a, plan).unwrap();
        w.roll_keys_abrupt(&b).unwrap();
        w.advance_to(done);

        let census = rollover_census(&w);
        let ops: Vec<&String> = census.keys().collect();
        assert_eq!(
            ops.len(),
            1,
            "both domains host on the registrar's operator: {ops:?}"
        );
        let stats = census.values().next().unwrap();
        assert_eq!(stats.double_signature_ksk, 1);
        assert_eq!(stats.abrupt, 1);
        assert_eq!(stats.off_schedule_ds, 1, "the late DS swap is an incident");
        assert_eq!(stats.completed(), 1);
        assert_eq!(stats.incidents(), 2);

        let table = rollover_census_table(&census);
        assert!(table.contains("censusreg"), "{table}");
        assert!(table.lines().count() >= 2);
    }

    #[test]
    fn empty_world_renders_explanatory_line() {
        let (w, _, _) = census_world();
        let census = rollover_census(&w);
        assert!(census.is_empty());
        assert!(rollover_census_table(&census).contains("no key-lifecycle events"));
    }
}
