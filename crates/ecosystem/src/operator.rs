//! DNS operators: the organizations that run authoritative nameservers.
//!
//! A registrar's hosting arm, a third-party service like Cloudflare, and a
//! self-hosting domain owner are all `Operator`s. The operator owns the
//! `Authority` its nameserver hostnames point at and performs the zone
//! building/signing work for the domains it hosts.
//!
//! Scalability note: zones are materialized **only for signed domains**
//! (and probe domains). Unsigned customer domains exist solely as
//! delegations in the TLD zone; queries for them reach the operator and
//! get REFUSED, which the scanner reads as "no DNSKEY" — the same
//! conclusion a live scan of a parked, unsigned domain produces.
//!
//! Measured from outside, an operator is a grouping key (§4.2 of the
//! paper): the second-level domain of a delegation's nameservers —
//! `ns01.domaincontrol.com` and `ns02.domaincontrol.com` both map to
//! `domaincontrol.com` ([`operator_key`]). Two special cases from the
//! paper's footnotes are honored:
//!
//! - footnote 15: Amazon's nameservers follow `awsdns-NN.<tld>` and are
//!   grouped by the `awsdns` label regardless of TLD;
//! - footnote 13: 1AND1's nameservers share the `1and1` second-level
//!   label across many ccTLDs and are grouped by that label.
//!
//! The registry stores this key with every delegation it writes
//! ([`crate::Registry::operator_of`]), so readers never re-derive it.

use std::rc::Rc;

use dsec_authserver::Authority;
use dsec_dnssec::{SignerConfig, SigningSet, ZoneKeys};
use dsec_wire::{Name, RData, Record, RrType, SoaRdata, Zone};

/// Index of an operator in the world's operator table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperatorId(pub u32);

/// One DNS operator.
pub struct Operator {
    /// Operator id.
    pub id: OperatorId,
    /// Display name ("GoDaddy", "Cloudflare", …).
    pub name: String,
    /// The second-level domain its nameservers live under
    /// (`domaincontrol.com` for GoDaddy) — the paper's grouping key.
    pub ns_domain: Name,
    /// Concrete nameserver hostnames (`ns01.<ns_domain>`, …).
    pub ns_hosts: Vec<Name>,
    authority: Rc<Authority>,
}

impl Operator {
    /// Creates an operator with `host_count` nameserver hostnames under
    /// `ns_domain`. The caller registers the hostnames on the network.
    pub fn new(
        id: OperatorId,
        name: impl Into<String>,
        ns_domain: Name,
        host_count: usize,
    ) -> Self {
        let ns_hosts = (1..=host_count.max(1))
            .map(|i| {
                ns_domain
                    .child(&format!("ns{i:02}"))
                    .expect("nameserver hostname fits")
            })
            .collect();
        Operator {
            id,
            name: name.into(),
            ns_domain,
            ns_hosts,
            authority: Rc::new(Authority::new()),
        }
    }

    /// The authority backing this operator's nameservers.
    pub fn authority(&self) -> Rc<Authority> {
        self.authority.clone()
    }

    /// Builds the standard customer zone for `domain`: SOA, NS (pointing
    /// at this operator), an apex A and a `www` A record.
    pub fn base_zone(&self, domain: &Name) -> Zone {
        let mut zone = Zone::new(domain.clone());
        zone.add(Record::new(
            domain.clone(),
            3600,
            RData::Soa(SoaRdata {
                mname: self.ns_hosts[0].clone(),
                rname: Name::parse("hostmaster.invalid").unwrap(),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            }),
        ))
        .expect("SOA in zone");
        for ns in &self.ns_hosts {
            zone.add(Record::new(domain.clone(), 3600, RData::Ns(ns.clone())))
                .expect("NS in zone");
        }
        zone.add(Record::new(
            domain.clone(),
            300,
            RData::A("192.0.2.1".parse().unwrap()),
        ))
        .expect("apex A in zone");
        zone.add(Record::new(
            domain.child("www").expect("www label fits"),
            300,
            RData::A("192.0.2.1".parse().unwrap()),
        ))
        .expect("www A in zone");
        zone
    }

    /// Hosts `domain` unsigned (materializes a plain zone). Used for probe
    /// domains where the probe will inspect the zone; bulk unsigned
    /// domains skip this.
    pub fn host_unsigned(&self, domain: &Name) {
        self.authority.upsert_zone(self.base_zone(domain));
    }

    /// Hosts `domain` signed with a [`SigningSet`]: one key generation
    /// ([`SigningSet::single`]) or the mid-rollover states where two
    /// coexist.
    pub fn host_signed_set(&self, domain: &Name, set: &SigningSet, signer: &SignerConfig) {
        let mut zone = self.base_zone(domain);
        dsec_dnssec::sign_zone_set(&mut zone, set, signer)
            .expect("matching signing set signs the base zone");
        self.authority.upsert_zone(zone);
    }

    /// Removes `domain`'s zone (hosting cancelled or moved elsewhere).
    pub fn drop_zone(&self, domain: &Name) -> bool {
        self.authority.remove_zone(domain)
    }

    /// Whether this operator currently serves a DNSKEY for `domain`.
    pub fn serves_dnskey(&self, domain: &Name) -> bool {
        self.authority
            .with_zone(domain, |z| z.rrset(domain, RrType::Dnskey).is_some())
            .unwrap_or(false)
    }

    /// The DNSKEY RDATAs currently served for `domain`.
    pub fn served_dnskeys(&self, domain: &Name) -> Vec<dsec_wire::DnskeyRdata> {
        self.authority
            .with_zone(domain, |z| {
                z.rrset(domain, RrType::Dnskey)
                    .map(|set| {
                        set.records()
                            .iter()
                            .filter_map(|r| match &r.rdata {
                                RData::Dnskey(k) => Some(k.clone()),
                                _ => None,
                            })
                            .collect()
                    })
                    .unwrap_or_default()
            })
            .unwrap_or_default()
    }
}

/// Adds a CDS record for `ds` to `domain`'s zone on `authority`, signed
/// with the ZSK of `keys` — the one CDS writer, for operator-hosted and
/// owner-hosted zones alike.
pub(crate) fn publish_cds(
    authority: &Authority,
    domain: &Name,
    keys: &ZoneKeys,
    ds: dsec_wire::DsRdata,
    signer: &SignerConfig,
) {
    authority.with_zone_mut(domain, |zone| {
        zone.add(Record::new(domain.clone(), 3600, RData::Cds(ds)))
            .expect("CDS in zone");
        let rrset = zone.rrset(domain, RrType::Cds).expect("just added");
        let sig = dsec_dnssec::sign_rrset(&rrset, &keys.zsk, keys.zsk_tag(), domain, signer);
        zone.add(sig).expect("CDS RRSIG in zone");
    });
}

/// The operator grouping key for one nameserver hostname (see the module
/// docs).
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

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_crypto::Algorithm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn operator() -> Operator {
        Operator::new(OperatorId(0), "TestOp", name("op.net"), 2)
    }

    #[test]
    fn hostnames_are_derived() {
        let op = operator();
        assert_eq!(op.ns_hosts, vec![name("ns01.op.net"), name("ns02.op.net")]);
        let single = Operator::new(OperatorId(1), "Solo", name("solo.net"), 0);
        assert_eq!(single.ns_hosts.len(), 1);
    }

    #[test]
    fn base_zone_shape() {
        let op = operator();
        let zone = op.base_zone(&name("cust.com"));
        assert!(zone.rrset(&name("cust.com"), RrType::Soa).is_some());
        assert_eq!(zone.rrset(&name("cust.com"), RrType::Ns).unwrap().len(), 2);
        assert!(zone.rrset(&name("www.cust.com"), RrType::A).is_some());
    }

    #[test]
    fn unsigned_hosting_serves_no_dnskey() {
        let op = operator();
        op.host_unsigned(&name("cust.com"));
        assert!(!op.serves_dnskey(&name("cust.com")));
        assert!(op.served_dnskeys(&name("cust.com")).is_empty());
    }

    #[test]
    fn signed_hosting_serves_dnskeys() {
        let op = operator();
        let mut rng = StdRng::seed_from_u64(9);
        let keys =
            ZoneKeys::generate_default(&mut rng, name("cust.com"), Algorithm::RsaSha256).unwrap();
        op.host_signed_set(
            &name("cust.com"),
            &SigningSet::single(&keys),
            &SignerConfig::valid_from(1_450_000_000, 90 * 86400),
        );
        assert!(op.serves_dnskey(&name("cust.com")));
        assert_eq!(op.served_dnskeys(&name("cust.com")).len(), 2);
    }

    #[test]
    fn drop_zone_unhosts() {
        let op = operator();
        op.host_unsigned(&name("cust.com"));
        assert!(op.drop_zone(&name("cust.com")));
        assert!(!op.drop_zone(&name("cust.com")));
    }

    #[test]
    fn unhosted_domain_is_refused() {
        let op = operator();
        let q = dsec_wire::Message::query(1, name("ghost.com"), RrType::Dnskey, true);
        let resp = op.authority().handle_query(&q);
        assert_eq!(resp.rcode, dsec_wire::Rcode::Refused);
    }

    #[test]
    fn publish_cds_adds_signed_record() {
        let op = operator();
        let mut rng = StdRng::seed_from_u64(10);
        let keys =
            ZoneKeys::generate_default(&mut rng, name("cust.com"), Algorithm::RsaSha256).unwrap();
        let signer = SignerConfig::valid_from(1_450_000_000, 90 * 86400);
        op.host_signed_set(&name("cust.com"), &SigningSet::single(&keys), &signer);
        publish_cds(
            &op.authority(),
            &name("cust.com"),
            &keys,
            keys.ds(dsec_crypto::DigestType::Sha256),
            &signer,
        );
        let has_cds = op
            .authority()
            .with_zone(&name("cust.com"), |z| {
                z.rrset(&name("cust.com"), RrType::Cds).is_some()
            })
            .unwrap();
        assert!(has_cds);
    }

    #[test]
    fn plain_sld_grouping() {
        assert_eq!(
            operator_key(&name("ns01.domaincontrol.com")),
            name("domaincontrol.com")
        );
        assert_eq!(
            operator_key(&name("dns1.registrar-servers.com")),
            name("registrar-servers.com")
        );
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
        assert_eq!(
            operator_key(&name("ns-1.awsdns-13.net")),
            name("awsdns.group")
        );
        assert_eq!(
            operator_key(&name("ns-2.awsdns-07.org")),
            name("awsdns.group")
        );
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
