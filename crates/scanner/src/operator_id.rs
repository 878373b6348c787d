//! DNS-operator identification from NS records (§4.2 of the paper).
//!
//! Domains are grouped by the second-level domain of their authoritative
//! nameservers — `ns01.domaincontrol.com` and `ns02.domaincontrol.com`
//! both map to the operator `domaincontrol.com`. Two special cases from
//! the paper's footnotes are honored:
//!
//! - footnote 15: Amazon's nameservers follow `awsdns-NN.<tld>` and are
//!   grouped by the `awsdns` label regardless of TLD;
//! - footnote 13: 1AND1's nameservers share the `1and1` second-level
//!   label across many ccTLDs and are grouped by that label.

use std::collections::{BTreeMap, BTreeSet};

use dsec_ecosystem::World;
use dsec_wire::Name;

/// The operator grouping key for one nameserver hostname.
pub fn operator_key(ns: &Name) -> Name {
    let sld = ns.second_level().to_canonical();
    // `sld` is canonical, so its first label is lowercase already.
    if let Some(label) = sld.labels().next() {
        // Footnote 15: awsdns-13.net, awsdns-07.org, … → "awsdns".
        if label.starts_with(b"awsdns") {
            return Name::parse("awsdns.group").expect("static name");
        }
        // Footnote 13: 1and1 spread across ccTLDs → "1and1".
        if label == b"1and1" {
            return Name::parse("1and1.group").expect("static name");
        }
    }
    sld
}

/// Groups a full NS set; the first NS record decides (sets are uniform in
/// practice, and the paper groups by the shared SLD).
pub fn operator_of(ns_set: &[Name]) -> Option<Name> {
    ns_set.first().map(operator_key)
}

/// The largest DNS operator by hosted-domain count (the Zipf head — the
/// operator whose outage hurts the most user queries) and its full
/// nameserver fleet, deterministically tie-broken by operator key.
/// `exclude` skips one operator (E-K1 hosts its roller outside the
/// outage victim's fleet, so the victim is the largest *other* fleet).
pub fn largest_operator_fleet(world: &World, exclude: Option<&str>) -> (String, Vec<Name>) {
    let mut sizes: BTreeMap<String, u64> = BTreeMap::new();
    let mut fleets: BTreeMap<String, BTreeSet<Name>> = BTreeMap::new();
    for d in world.domains() {
        let ns = world.registry(d.tld).ns_of(&d.name);
        let Some(op) = operator_of(&ns) else { continue };
        let key = op.to_string();
        *sizes.entry(key.clone()).or_insert(0) += 1;
        fleets.entry(key).or_default().extend(ns);
    }
    let victim = sizes
        .iter()
        .filter(|(k, _)| exclude != Some(k.as_str()))
        .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
        .map(|(k, _)| k.clone())
        .unwrap_or_default();
    let fleet = fleets
        .remove(&victim)
        .unwrap_or_default()
        .into_iter()
        .collect();
    (victim, fleet)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn plain_sld_grouping() {
        assert_eq!(
            operator_key(&name("ns01.domaincontrol.com")),
            name("domaincontrol.com")
        );
        assert_eq!(operator_key(&name("dns1.registrar-servers.com")), name("registrar-servers.com"));
        assert_eq!(operator_key(&name("a.b.c.ovh.net")), name("ovh.net"));
    }

    #[test]
    fn grouping_is_case_insensitive() {
        assert_eq!(
            operator_key(&name("NS01.DomainControl.COM")),
            name("domaincontrol.com")
        );
    }

    #[test]
    fn awsdns_footnote_15() {
        assert_eq!(operator_key(&name("ns-1.awsdns-13.net")), name("awsdns.group"));
        assert_eq!(operator_key(&name("ns-2.awsdns-07.org")), name("awsdns.group"));
        assert_eq!(
            operator_key(&name("x.awsdns-99.net")),
            operator_key(&name("y.awsdns-01.com"))
        );
    }

    #[test]
    fn oneandone_footnote_13() {
        assert_eq!(operator_key(&name("ns.1and1.com")), name("1and1.group"));
        assert_eq!(operator_key(&name("ns.1and1.de")), name("1and1.group"));
    }

    #[test]
    fn operator_of_uses_first_ns() {
        let set = vec![name("ns01.op.net"), name("ns02.op.net")];
        assert_eq!(operator_of(&set), Some(name("op.net")));
        assert_eq!(operator_of(&[]), None);
    }
}
