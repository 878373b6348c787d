//! Per-registrar cache-poison census.
//!
//! The takeover census reads signals an attacker leaves in the
//! *registry* (DS mismatch, NS drift). A cache-poisoning attacker
//! leaves no registry trace at all — the forgery lives only in resolver
//! caches. The observable signal is the one real-world poison scans
//! use: ask the resolver cache and the authoritative servers the same
//! question and compare the bytes. A cached answer whose A records
//! diverge from what the delegated nameservers serve is a poisoned
//! entry; the census tallies those under the victim domain's sponsoring
//! registrar, keeping the paper's attribution axis even for an attack
//! the registrar's channel had no part in (the defense here is the
//! resolver's entropy profile, not channel authentication — the row
//! shows which registrar's *customers* absorbed the damage).
//!
//! The authoritative side is asked through one [`Exchange`] (DESIGN.md
//! §18.1) under the resolver's [`RetryPolicy`], so a lame server is
//! skipped and a SERVFAIL retried. An exchange that ends with only an
//! error rcode saw no zone data: that name is not compared, rather than
//! counting a clean cached answer against an empty authoritative set.

use std::collections::BTreeMap;

use dsec_ecosystem::{Tld, World};
use dsec_resolver::{Cache, Exchange, RetryPolicy};
use dsec_wire::{Message, Name, RData, Rcode, RrType};

/// Poison tallies for one registrar's customer domains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistrarPoisonStats {
    /// Probed names with a cached A answer to compare.
    pub cached_names: u64,
    /// Cached answers whose A records diverge from the authoritative
    /// wire answer — poisoned entries.
    pub poisoned_names: u64,
}

impl RegistrarPoisonStats {
    /// Fraction of compared cache entries that were poisoned.
    pub fn poison_rate(&self) -> f64 {
        if self.cached_names == 0 {
            0.0
        } else {
            self.poisoned_names as f64 / self.cached_names as f64
        }
    }
}

/// The sorted A RDATA set the domain's delegated nameservers serve for
/// `qname`, or `None` when nothing authoritative answered.
fn authoritative_a(world: &World, domain: &Name, qname: &Name) -> Option<Vec<std::net::Ipv4Addr>> {
    let tld = Tld::of_domain(domain)?;
    let ns_hosts = world.registry(tld).ns_of(domain);
    let query = Message::query(0, qname.clone(), RrType::A, true);
    let response = Exchange::new(&world.network, RetryPolicy::default(), None)
        .ask(&ns_hosts, &query)
        .into_response()
        .filter(|r| !matches!(r.rcode, Rcode::ServFail | Rcode::Refused))?;
    let mut addrs: Vec<std::net::Ipv4Addr> = response
        .answers
        .iter()
        .filter(|r| r.name == *qname)
        .filter_map(|r| match &r.rdata {
            RData::A(addr) => Some(*addr),
            _ => None,
        })
        .collect();
    addrs.sort();
    Some(addrs)
}

/// Builds the census: for every registered domain, probes the shared
/// resolver `cache` at the apex and `www` for an A answer as of `now`
/// (sim seconds) and compares it byte-for-byte against the
/// authoritative wire answer. Divergent entries tally as poisoned under
/// the domain's registrar. Deterministic: the cache reads don't mutate
/// entry state and the sweep visits domains in store order.
pub fn poison_census(
    world: &World,
    cache: &Cache,
    now: u32,
) -> BTreeMap<String, RegistrarPoisonStats> {
    let mut census: BTreeMap<String, RegistrarPoisonStats> = BTreeMap::new();
    for d in world.domains() {
        let mut probes = vec![d.name.clone()];
        if let Ok(www) = d.name.child("www") {
            probes.push(www);
        }
        for qname in probes {
            let Some(cached) = cache.get(&qname, RrType::A, now) else {
                continue;
            };
            let mut cached_a: Vec<std::net::Ipv4Addr> = cached
                .records
                .iter()
                .filter(|r| r.name == qname)
                .filter_map(|r| match &r.rdata {
                    RData::A(addr) => Some(*addr),
                    _ => None,
                })
                .collect();
            cached_a.sort();
            let Some(served_a) = authoritative_a(world, &d.name, &qname) else {
                continue;
            };
            let entry = census
                .entry(world.registrar(d.registrar).name.clone())
                .or_default();
            entry.cached_names += 1;
            if cached_a != served_a {
                entry.poisoned_names += 1;
            }
        }
    }
    census.retain(|_, s| s.cached_names > 0);
    census
}

/// Renders the census as a fixed-width table, one registrar per row,
/// sorted by poisoned volume (ties by name). Empty input renders a
/// single explanatory line.
pub fn poison_census_table(census: &BTreeMap<String, RegistrarPoisonStats>) -> String {
    if census.is_empty() {
        return "no cached answers to compare\n".into();
    }
    let mut rows: Vec<(&String, &RegistrarPoisonStats)> = census.iter().collect();
    rows.sort_by(|a, b| {
        b.1.poisoned_names
            .cmp(&a.1.poisoned_names)
            .then_with(|| a.0.cmp(b.0))
    });
    let mut out = String::from("registrar                cached  poisoned  poison-rate\n");
    for (reg, s) in rows {
        out.push_str(&format!(
            "{reg:<20} {:>10} {:>9} {:>11.4}\n",
            s.cached_names,
            s.poisoned_names,
            s.poison_rate(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_ecosystem::{
        ExternalDs, Hosting, OperatorDnssec, RegistrarPolicy, TldPolicy, TldRole, WorldConfig,
        ALL_TLDS,
    };
    use dsec_resolver::{Answer, Security, POISON_A};
    use dsec_wire::{Rcode, Record};

    fn world_with_domain() -> (World, Name) {
        let mut w = World::new(WorldConfig {
            key_pool: 2,
            ..WorldConfig::default()
        });
        let policy = RegistrarPolicy {
            operator_dnssec: OperatorDnssec::Unsupported,
            external_ds: ExternalDs::Ticket,
            tlds: ALL_TLDS
                .iter()
                .map(|&t| (t, TldPolicy::full(TldRole::Registrar)))
                .collect(),
        };
        let r = w.add_registrar("Probed", Name::parse("probed.net").unwrap(), policy);
        let v = w
            .purchase(r, "victim", Tld::Com, Hosting::Owner, "owner@victim.com")
            .unwrap();
        (w, v)
    }

    fn answer_with(records: Vec<Record>) -> Answer {
        Answer {
            records,
            rcode: Rcode::NoError,
            security: Security::Insecure,
            chain: Vec::new(),
            negative_ttl: None,
            poisoned: false,
        }
    }

    #[test]
    fn faithful_cache_entries_are_not_poisoned() {
        let (w, v) = world_with_domain();
        let www = v.child("www").unwrap();
        let served = authoritative_a(&w, &v, &www).expect("zone serves www");
        assert!(!served.is_empty());
        let cache = Cache::new();
        let records: Vec<Record> = served
            .iter()
            .map(|a| Record::new(www.clone(), 300, RData::A(*a)))
            .collect();
        cache.put(&www, RrType::A, &answer_with(records), 0);

        let census = poison_census(&w, &cache, 10);
        let stats = census.get("Probed").expect("registrar row");
        assert_eq!(stats.cached_names, 1);
        assert_eq!(stats.poisoned_names, 0);
        assert_eq!(stats.poison_rate(), 0.0);
    }

    #[test]
    fn diverging_cache_entry_tallies_as_poisoned() {
        let (w, v) = world_with_domain();
        let www = v.child("www").unwrap();
        let cache = Cache::new();
        let forged = vec![Record::new(www.clone(), 300, RData::A(POISON_A))];
        cache.put(&www, RrType::A, &answer_with(forged), 0);

        let census = poison_census(&w, &cache, 10);
        let stats = census.get("Probed").expect("registrar row");
        assert_eq!(stats.cached_names, 1);
        assert_eq!(
            stats.poisoned_names, 1,
            "forged bytes diverge from the wire"
        );
        let table = poison_census_table(&census);
        assert!(table.contains("Probed"), "{table}");
        assert!(poison_census_table(&BTreeMap::new()).contains("no cached answers"));
    }

    #[test]
    fn empty_cache_yields_empty_census() {
        let (w, _) = world_with_domain();
        assert!(poison_census(&w, &Cache::new(), 0).is_empty());
    }
}
