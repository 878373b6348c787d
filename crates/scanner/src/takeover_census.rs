//! Per-registrar takeover census.
//!
//! The attack plane logs every channel compromise unconditionally
//! (`dsec_ecosystem::events`): forged DS/NS acceptances, repelled
//! attempts, detections, remediations. This module joins that log with
//! two *observable* signals a real-world scanner could measure without
//! any event log at all — a registry DS that matches none of the served
//! DNSKEYs, and a delegation NS set that drifted away from what the
//! domain's hosting arrangement should publish — and tallies both views
//! under the registrar the domain was bought from. That attribution is
//! the paper's through-line: the registrar's channel policy, not the
//! zone operator, decides whether a forgery lands.

use std::collections::BTreeMap;

use dsec_dnssec::ds_matches;
use dsec_ecosystem::{Event, World};
use dsec_wire::Name;

/// Takeover-related tallies for one registrar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistrarTakeoverStats {
    /// Forged-email DS updates the channel accepted.
    pub forged_ds_accepted: u64,
    /// Forged-email NS redelegations the channel accepted.
    pub forged_ns_accepted: u64,
    /// Takeover attempts the channel authentication repelled.
    pub attacks_repelled: u64,
    /// Hijacks noticed (monitoring / registrant report).
    pub hijacks_detected: u64,
    /// Hijacks rolled back to the pre-attack DS/NS state.
    pub hijacks_remediated: u64,
    /// Live observation: domains whose registry DS matches none of the
    /// DNSKEYs currently served (the scanner-visible DS/DNSKEY
    /// mismatch a forged-DS capture leaves behind).
    pub ds_dnskey_mismatch: u64,
    /// Live observation: domains whose delegation NS set differs from
    /// what their hosting arrangement should publish (the NS drift a
    /// forged redelegation leaves behind).
    pub ns_drift: u64,
}

impl RegistrarTakeoverStats {
    /// Forgeries that got through the channel, either vector.
    pub fn captures(&self) -> u64 {
        self.forged_ds_accepted + self.forged_ns_accepted
    }

    /// Captures not yet rolled back.
    pub fn outstanding(&self) -> u64 {
        self.captures().saturating_sub(self.hijacks_remediated)
    }
}

/// The registrar display name a domain attributes to, or `"(unknown)"`
/// for domains that have left the world.
fn registrar_key_of(world: &World, domain: &Name) -> String {
    world
        .domain(domain)
        .map(|d| world.registrar(d.registrar).name.clone())
        .unwrap_or_else(|| "(unknown)".into())
}

/// Builds the census: tallies the always-logged attack-lifecycle events
/// under each victim's registrar, then sweeps every registered domain
/// for the two live takeover signatures (DS/DNSKEY mismatch, NS drift).
/// Deterministic and threading-independent — the log is single-writer
/// and the sweep reads a consistent world.
pub fn takeover_census(world: &World) -> BTreeMap<String, RegistrarTakeoverStats> {
    let mut census: BTreeMap<String, RegistrarTakeoverStats> = BTreeMap::new();
    for (_, event) in world.events.entries() {
        let (domain, apply): (&Name, fn(&mut RegistrarTakeoverStats)) = match event {
            Event::ForgedEmailAccepted { domain, .. } => (domain, |s| s.forged_ds_accepted += 1),
            Event::ForgedNsAccepted { domain, .. } => (domain, |s| s.forged_ns_accepted += 1),
            Event::AttackRepelled { domain } => (domain, |s| s.attacks_repelled += 1),
            Event::HijackDetected { domain } => (domain, |s| s.hijacks_detected += 1),
            Event::HijackRemediated { domain } => (domain, |s| s.hijacks_remediated += 1),
            _ => continue,
        };
        apply(census.entry(registrar_key_of(world, domain)).or_default());
    }

    for d in world.domains() {
        let registry = world.registry(d.tld);
        let ds_set = registry.ds_of(&d.name);
        let mismatch = !ds_set.is_empty() && {
            let served = world.served_dnskeys(&d.name);
            !ds_set.iter().any(|ds| {
                served
                    .iter()
                    .any(|k| ds_matches(&d.name, k, ds) == Some(true))
            })
        };
        let drift = match world.expected_ns_hosts(&d.name) {
            Some(expected) => {
                let actual = registry.ns_of(&d.name);
                !actual.is_empty() && {
                    let mut a = actual.clone();
                    let mut e = expected.clone();
                    a.sort();
                    e.sort();
                    a != e
                }
            }
            None => false,
        };
        if mismatch || drift {
            let entry = census
                .entry(world.registrar(d.registrar).name.clone())
                .or_default();
            if mismatch {
                entry.ds_dnskey_mismatch += 1;
            }
            if drift {
                entry.ns_drift += 1;
            }
        }
    }
    census
}

/// Renders the census as a fixed-width table, one registrar per row,
/// sorted by capture volume (ties by name). Empty input renders a
/// single explanatory line.
pub fn takeover_census_table(census: &BTreeMap<String, RegistrarTakeoverStats>) -> String {
    if census.is_empty() {
        return "no takeover activity observed\n".into();
    }
    let mut rows: Vec<(&String, &RegistrarTakeoverStats)> = census.iter().collect();
    rows.sort_by(|a, b| {
        b.1.captures()
            .cmp(&a.1.captures())
            .then_with(|| a.0.cmp(b.0))
    });
    let mut out = String::from(
        "registrar             forged-ds  forged-ns  repelled  detected  remediated  ds-mismatch  ns-drift\n",
    );
    for (reg, s) in rows {
        out.push_str(&format!(
            "{reg:<20} {:>10} {:>10} {:>9} {:>9} {:>11} {:>12} {:>9}\n",
            s.forged_ds_accepted,
            s.forged_ns_accepted,
            s.attacks_repelled,
            s.hijacks_detected,
            s.hijacks_remediated,
            s.ds_dnskey_mismatch,
            s.ns_drift,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_ecosystem::{
        DsSubmission, ExternalDs, Hosting, OperatorDnssec, RegistrarPolicy, Tld, TldPolicy,
        TldRole, UploadOutcome, WorldConfig, ALL_TLDS,
    };

    fn lax_world() -> (World, Name) {
        let mut w = World::new(WorldConfig {
            key_pool: 2,
            ..WorldConfig::default()
        });
        let policy = RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Unsupported,
            external_ds: ExternalDs::Email {
                verifies_sender: false,
                accepts_foreign_sender: false,
                validates: false,
            },
            tlds: ALL_TLDS
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                .collect(),
        };
        let r = w.add_registrar("LaxMail", Name::parse("laxmail.net").unwrap(), policy);
        let v = w
            .purchase(r, "victim", Tld::Com, Hosting::Owner, "owner@victim.com")
            .unwrap();
        let ds = w.owner_sign_zone(&v).unwrap();
        let ok = w
            .upload_ds(
                &v,
                ds,
                DsSubmission::Email {
                    claimed_from: "owner@victim.com".into(),
                    actual_from: "owner@victim.com".into(),
                },
            )
            .unwrap();
        assert_eq!(ok, UploadOutcome::Accepted);
        (w, v)
    }

    #[test]
    fn clean_world_has_empty_census() {
        let (w, _) = lax_world();
        assert!(takeover_census(&w).is_empty());
        assert!(takeover_census_table(&takeover_census(&w)).contains("no takeover activity"));
    }

    #[test]
    fn forged_ds_shows_up_as_capture_and_live_mismatch() {
        let (mut w, v) = lax_world();
        let forged = dsec_wire::DsRdata {
            key_tag: 31337,
            algorithm: 8,
            digest_type: 2,
            digest: vec![0x66; 32],
        };
        let out = w
            .upload_ds(
                &v,
                forged,
                DsSubmission::Email {
                    claimed_from: "owner@victim.com".into(),
                    actual_from: "mallory@attacker.example".into(),
                },
            )
            .unwrap();
        assert_eq!(out, UploadOutcome::Accepted);

        let census = takeover_census(&w);
        let stats = census.get("LaxMail").expect("attributed to the registrar");
        assert_eq!(stats.forged_ds_accepted, 1);
        assert_eq!(
            stats.ds_dnskey_mismatch, 1,
            "live DS/DNSKEY mismatch observed"
        );
        assert_eq!(stats.ns_drift, 0);
        assert_eq!(stats.captures(), 1);
        assert_eq!(stats.outstanding(), 1);
        let table = takeover_census_table(&census);
        assert!(table.contains("LaxMail"), "{table}");
    }

    #[test]
    fn forged_ns_shows_up_as_drift() {
        let (mut w, v) = lax_world();
        let evil = Name::parse("ns1.mallory-dns.example").unwrap();
        let out = w
            .submit_ns_change(
                &v,
                std::slice::from_ref(&evil),
                DsSubmission::Email {
                    claimed_from: "owner@victim.com".into(),
                    actual_from: "mallory@attacker.example".into(),
                },
            )
            .unwrap();
        assert_eq!(out, UploadOutcome::Accepted);

        let census = takeover_census(&w);
        let stats = census.get("LaxMail").expect("attributed to the registrar");
        assert_eq!(stats.forged_ns_accepted, 1);
        assert_eq!(stats.ns_drift, 1, "delegation drifted off the hosting plan");
    }
}
