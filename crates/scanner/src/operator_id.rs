//! DNS-operator identification from NS records (§4.2 of the paper).
//!
//! Domains are grouped by the second-level domain of their authoritative
//! nameservers, with the paper's footnote exceptions ([`operator_key`]).
//! The key is computed where the delegation is written and kept in the
//! registry's operator column ([`dsec_ecosystem::Registry::operator_of`]);
//! the functions live in `dsec-ecosystem` and are re-exported here.

use std::collections::{BTreeMap, BTreeSet};

use dsec_ecosystem::{DomainId, World, ALL_TLDS};
use dsec_wire::Name;

pub use dsec_ecosystem::{operator_key, operator_of};

/// The largest DNS operator by hosted-domain count (the Zipf head — the
/// operator whose outage hurts the most user queries) and its full
/// nameserver fleet, deterministically tie-broken by operator key.
/// `exclude` skips one operator (E-K1 hosts its roller outside the
/// outage victim's fleet, so the victim is the largest *other* fleet).
pub fn largest_operator_fleet(world: &World, exclude: Option<&str>) -> (String, Vec<Name>) {
    // Each registry's operator keys as strings, once per id.
    let keys: BTreeMap<_, Vec<String>> = ALL_TLDS
        .iter()
        .map(|&tld| {
            let operators = world.registry(tld).operators();
            (tld, operators.iter().map(Name::to_string).collect())
        })
        .collect();
    let key_of = |id: DomainId| {
        let operator = world.registry(id.tld()).operator_at(id.row());
        keys[&id.tld()][operator as usize].as_str()
    };
    let mut sizes: BTreeMap<&str, u64> = BTreeMap::new();
    for (id, _) in world.entries() {
        *sizes.entry(key_of(id)).or_insert(0) += 1;
    }
    let victim = sizes
        .iter()
        .filter(|(k, _)| exclude != Some(**k))
        .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
        .map(|(k, _)| k.to_string())
        .unwrap_or_default();
    // Only the winner's NS sets are read.
    let fleet: BTreeSet<Name> = world
        .entries()
        .filter(|&(id, _)| key_of(id) == victim.as_str())
        .flat_map(|(id, _)| world.registry(id.tld()).ns_at(id.row()))
        .collect();
    (victim, fleet.into_iter().collect())
}
