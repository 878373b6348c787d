//! An authoritative nameserver: a set of zones plus the RFC 1034 §4.3.2
//! answer algorithm, including DNSSEC additions (RFC 4035 §3.1).
//!
//! Every answer is built from the zone as it is now: a mutation
//! (re-signing, rollover, DS swap) is visible on the very next query,
//! with nothing to invalidate.

use std::cell::{Ref, RefCell};
use std::sync::Arc;

use dsec_wire::{
    Flags, FnvHashMap, Message, Name, Owner, Question, RData, Rcode, Record, RrType, Zone,
};

/// Served zones by origin, hashed: finding the zone for a query is one
/// probe per label of its name. Each zone is shared via `Arc` so frozen
/// secondaries ([`Authority::snapshot`]) are pointer copies; in-place
/// edits go through [`Arc::make_mut`] (copy-on-write).
type ZoneMap = FnvHashMap<Name, Arc<Zone>>;

/// One DNS operator's authoritative service.
///
/// Single-thread state: zone edits (daily re-signing, customer changes)
/// and queries run on the caller's thread. The zone map sits in one
/// `Arc` so [`Authority::snapshot`] is a pointer copy. Edits go through
/// [`Arc::make_mut`]: in place while no snapshot is held, one copy of
/// the map when one is (DESIGN.md §14). Zones stay `Arc<Zone>`, so an
/// owned `Authority` can still be moved to a server thread.
#[derive(Debug, Default)]
pub struct Authority {
    zones: RefCell<Arc<ZoneMap>>,
}

impl Authority {
    /// An authority serving no zones.
    pub fn new() -> Self {
        Self::default()
    }

    /// Edits the zone map: in place unless a snapshot shares it.
    fn edit<R>(&self, f: impl FnOnce(&mut ZoneMap) -> R) -> R {
        f(Arc::make_mut(&mut self.zones.borrow_mut()))
    }

    /// Installs or replaces the zone with the same origin.
    pub fn upsert_zone(&self, zone: Zone) {
        let origin = zone.origin().to_canonical();
        self.edit(|zones| zones.insert(origin, Arc::new(zone)));
    }

    /// Removes the zone rooted at `origin`; returns whether it existed.
    pub fn remove_zone(&self, origin: &Name) -> bool {
        self.edit(|zones| zones.remove(origin).is_some())
    }

    /// Runs `f` over the zone rooted at `origin`, if served.
    pub fn with_zone<R>(&self, origin: &Name, f: impl FnOnce(&Zone) -> R) -> Option<R> {
        self.zone(origin).map(|zone| f(&zone))
    }

    /// A borrow of the zone rooted at `origin`, if served: what a reader
    /// that hands out references into the zone holds. No edit of this
    /// authority may run while it is held.
    pub fn zone(&self, origin: &Name) -> Option<Ref<'_, Zone>> {
        Ref::filter_map(self.zones.borrow(), |zones| {
            zones.get(origin).map(|zone| &**zone)
        })
        .ok()
    }

    /// Runs `f` mutably over the zone rooted at `origin`, if served.
    /// Copy-on-write: frozen secondaries holding the old `Arc` keep the
    /// pre-edit contents.
    pub fn with_zone_mut<R>(&self, origin: &Name, f: impl FnOnce(&mut Zone) -> R) -> Option<R> {
        self.edit(|zones| Some(f(Arc::make_mut(zones.get_mut(origin)?))))
    }

    /// Origins of all served zones, in canonical order.
    pub fn zone_origins(&self) -> Vec<Name> {
        let mut origins: Vec<Name> = self.zones.borrow().keys().cloned().collect();
        origins.sort_unstable();
        origins
    }

    /// A copy of this authority frozen at the current zone contents —
    /// models a secondary that has stopped syncing from its primary.
    ///
    /// O(1): the snapshot shares the live zone-map `Arc`; later edits to
    /// the live authority copy-on-write and leave the frozen view
    /// untouched.
    pub fn snapshot(&self) -> Authority {
        Authority {
            zones: RefCell::new(Arc::clone(&self.zones.borrow())),
        }
    }

    /// Does nothing: there is no response cache to switch. Kept only
    /// because the frozen `crates/benchmark/src/layers.rs` calls it on
    /// its "uncached" authority (ROADMAP item 3 retires it).
    #[doc(hidden)]
    pub fn set_response_cache(&self, _enabled: bool) {}

    /// Answers one query message.
    pub fn handle_query(&self, query: &Message) -> Message {
        let mut response = query.response_to();
        match query.questions.first() {
            Some(question) => answer(&self.zones.borrow(), query, question, &mut response),
            None => response.rcode = Rcode::FormErr,
        }
        response
    }

    /// Answers one raw datagram; malformed input yields a FORMERR reply
    /// when at least the ID is readable, otherwise no reply (`None`).
    ///
    /// Replies larger than the querier's advertised EDNS payload size
    /// (512 bytes without EDNS, per RFC 1035) are truncated: the TC bit is
    /// set and the answer sections are emptied, telling the client to
    /// retry over TCP ([`Authority::handle_tcp_request`]).
    pub fn handle_datagram(&self, datagram: &[u8]) -> Option<Vec<u8>> {
        match Message::from_wire(datagram) {
            Ok(query) => {
                let limit = query
                    .edns
                    .map(|e| e.udp_payload_size as usize)
                    .unwrap_or(512)
                    .max(512);
                let response = self.handle_query(&query);
                let wire = response.to_wire();
                if wire.len() <= limit {
                    return Some(wire);
                }
                // RFC 2181 §9: set TC and drop the sections that did not
                // fit (dropping all of them is the conservative choice).
                let mut truncated = response;
                truncated.flags.truncated = true;
                truncated.answers.clear();
                truncated.authorities.clear();
                truncated.additionals.clear();
                Some(truncated.to_wire())
            }
            Err(_) if datagram.len() >= 2 => {
                let id = u16::from_be_bytes([datagram[0], datagram[1]]);
                let mut resp = Message::query(id, Name::root(), RrType::A, false);
                resp.questions.clear();
                resp.flags.response = true;
                resp.rcode = Rcode::FormErr;
                Some(resp.to_wire())
            }
            Err(_) => None,
        }
    }

    /// Answers one RFC 1035 §4.2.2 TCP-framed request (two-byte big-endian
    /// length prefix + message) with a framed response. TCP carries no
    /// size limit, so nothing is ever truncated here.
    pub fn handle_tcp_request(&self, framed: &[u8]) -> Option<Vec<u8>> {
        if framed.len() < 2 {
            return None;
        }
        let declared = u16::from_be_bytes([framed[0], framed[1]]) as usize;
        if framed.len() < 2 + declared {
            return None;
        }
        let query = Message::from_wire(&framed[2..2 + declared]).ok()?;
        let wire = self.handle_query(&query).to_wire();
        let mut out = Vec::with_capacity(2 + wire.len());
        out.extend_from_slice(&(wire.len() as u16).to_be_bytes());
        out.extend_from_slice(&wire);
        Some(out)
    }
}

/// The RFC 1034 §4.3.2 answer algorithm over one zone snapshot: fills
/// `response` (REFUSED when no served zone matches). Each owner the answer
/// reads is found with one probe and then read in place: a referral's cut
/// once for its NS set, DS, RRSIGs and NSEC, the qname once for its
/// answer, CNAME and existence.
fn answer(zones: &ZoneMap, query: &Message, question: &Question, response: &mut Message) {
    let qname = &question.name;
    let qtype = question.qtype;
    let dnssec_ok = query.dnssec_ok();

    // Longest-match zone for the qname: walk the ancestor chain, one
    // probe per label, so the lookup costs the same whether the operator
    // serves one zone or tens of thousands.
    let Some(zone) = std::iter::successors(Some(qname.clone()), Name::parent)
        .find_map(|candidate| zones.get(&candidate))
    else {
        response.rcode = Rcode::Refused;
        return;
    };

    response.flags = Flags {
        response: true,
        authoritative: true,
        recursion_desired: query.flags.recursion_desired,
        checking_disabled: query.flags.checking_disabled,
        ..Flags::default()
    };

    // Delegation? (A DS query for the cut itself is answered by this
    // zone — the parent owns the DS RRset — from the cut's records.)
    let cut = zone.find_delegation(qname);
    if let Some(cut) = cut.filter(|cut| !(qtype == RrType::Ds && qname == cut.name())) {
        refer(zone, cut, dnssec_ok, response);
        return;
    }
    let owner = cut.or_else(|| zone.owner(qname));

    // Exact-match answer, or a CNAME at the name.
    for rtype in [qtype, RrType::Cname] {
        if let Some(rrset) = owner.and_then(|owner| owner.rrset(rtype)) {
            response.answers.extend(rrset.iter().cloned());
            if dnssec_ok {
                append_rrsigs(owner, &[rtype], &mut response.answers);
            }
            return;
        }
    }

    // Negative answer: NODATA (name exists) or NXDOMAIN.
    let exists = owner.is_some() || *qname == *zone.origin();
    if !exists {
        response.rcode = Rcode::NxDomain;
    }
    let apex = zone.owner(zone.origin());
    if let Some(soa) = apex.and_then(|apex| apex.rrset(RrType::Soa)) {
        response.authorities.extend(soa.iter().cloned());
        if dnssec_ok {
            append_rrsigs(apex, &[RrType::Soa], &mut response.authorities);
        }
    }
    if dnssec_ok {
        // NSEC3 zones: attach the NSEC3 matching (NODATA) or covering
        // (NXDOMAIN) the qname's hash. NSEC zones: the plain denial.
        let denial = match nsec3_denial_owner(zone, apex, qname) {
            Some(owner) => Some((zone.owner(&owner), RrType::Nsec3)),
            None if exists => Some((owner, RrType::Nsec)),
            None => {
                covering_nsec_owner(zone, qname).map(|owner| (zone.owner(&owner), RrType::Nsec))
            }
        };
        if let Some((owner, rtype)) = denial {
            if let Some(proof) = owner.and_then(|owner| owner.rrset(rtype)) {
                response.authorities.extend(proof.iter().cloned());
                append_rrsigs(owner, &[rtype], &mut response.authorities);
            }
        }
    }
}

/// A referral to `cut`: its NS set, glue for the hosts inside it, and
/// with DO the DS RRset (or its NSEC denial) with their RRSIGs.
fn refer(zone: &Zone, cut: Owner<'_>, dnssec_ok: bool, response: &mut Message) {
    response.flags.authoritative = false;
    for host in cut.ns_hosts() {
        if host.is_subdomain_of(cut.name()) {
            if let Some(glue) = zone.rrset_records(host, RrType::A) {
                response.additionals.extend(glue.iter().cloned());
            }
        }
    }
    // A delegation row's NS records are built per query: moved, not
    // cloned.
    let ns_set = cut.rrset(RrType::Ns).expect("a cut has an NS RRset");
    response.authorities.extend(ns_set.into_owned());
    if dnssec_ok {
        // DS (or its absence) travels with the referral.
        let ds = cut.rrset(RrType::Ds);
        let has_ds = ds.is_some();
        response
            .authorities
            .extend(ds.iter().flat_map(|ds| ds.iter().cloned()));
        append_rrsigs(Some(cut), &[RrType::Ds], &mut response.authorities);
        // NSEC proves DS absence for unsigned children.
        if !has_ds {
            if let Some(nsec) = cut.rrset(RrType::Nsec) {
                response.authorities.extend(nsec.iter().cloned());
                append_rrsigs(Some(cut), &[RrType::Nsec], &mut response.authorities);
            }
        }
    }
}

/// Appends `owner`'s RRSIGs covering any of `types`.
fn append_rrsigs(owner: Option<Owner<'_>>, types: &[RrType], out: &mut Vec<Record>) {
    let Some(sigs) = owner.and_then(|owner| owner.rrset(RrType::Rrsig)) else {
        return;
    };
    for record in sigs.iter() {
        if let RData::Rrsig(s) = &record.rdata {
            if types.contains(&s.type_covered) {
                out.push(record.clone());
            }
        }
    }
}

/// For an NSEC3 zone (apex NSEC3PARAM present), the hashed owner of the
/// NSEC3 record matching or covering `qname`'s hash; `None` for NSEC
/// zones.
fn nsec3_denial_owner(zone: &Zone, apex: Option<Owner<'_>>, qname: &Name) -> Option<Name> {
    let param_set = apex?.rrset(RrType::Nsec3Param)?;
    let RData::Nsec3Param(param) = &param_set[0].rdata else {
        return None;
    };
    let qhash = dsec_dnssec::nsec3_hash(qname, &param.salt, param.iterations);
    let hashed = zone.owners_with(RrType::Nsec3).filter_map(|owner| {
        let text = std::str::from_utf8(owner.labels().next()?).ok()?;
        let hash: [u8; 20] = dsec_crypto::base32::decode_hex(text)?.try_into().ok()?;
        Some((hash, owner))
    });
    // Exact match (NODATA) or the greatest owner-hash ≤ qhash.
    greatest_or_wrap(hashed, |&(hash, _)| hash <= qhash).map(|(_, owner)| owner.clone())
}

/// Finds the NSEC whose (owner, next) interval covers `qname`: the
/// greatest NSEC owner < qname.
fn covering_nsec_owner(zone: &Zone, qname: &Name) -> Option<Name> {
    greatest_or_wrap(zone.owners_with(RrType::Nsec), |&owner| owner < qname).cloned()
}

/// The greatest of `items` that `fits`, or else the greatest of all: a
/// denial chain is circular, so its last link covers the names beyond
/// the end. One pass over the unordered owners; nothing is sorted or
/// cloned, which keeps a negative answer at a large zone cheap.
fn greatest_or_wrap<T: Ord + Copy>(
    items: impl Iterator<Item = T>,
    fits: impl Fn(&T) -> bool,
) -> Option<T> {
    let (mut fitting, mut greatest) = (None, None);
    for item in items {
        if fits(&item) {
            fitting = fitting.max(Some(item));
        }
        greatest = greatest.max(Some(item));
    }
    fitting.or(greatest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsec_crypto::Algorithm;
    use dsec_dnssec::{sign_zone, SignerConfig, ZoneKeys};
    use dsec_wire::{DsRdata, SoaRdata};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn build_zone(signed: bool) -> (Zone, Option<ZoneKeys>) {
        let mut z = Zone::new(name("example.com"));
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Soa(SoaRdata {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        ))
        .unwrap();
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Ns(name("ns1.example.com")),
        ))
        .unwrap();
        z.add(Record::new(
            name("www.example.com"),
            300,
            RData::A("192.0.2.10".parse().unwrap()),
        ))
        .unwrap();
        z.add(Record::new(
            name("alias.example.com"),
            300,
            RData::Cname(name("www.example.com")),
        ))
        .unwrap();
        // Delegation with glue, child unsigned (no DS).
        z.add(Record::new(
            name("sub.example.com"),
            3600,
            RData::Ns(name("ns1.sub.example.com")),
        ))
        .unwrap();
        z.add(Record::new(
            name("ns1.sub.example.com"),
            3600,
            RData::A("192.0.2.53".parse().unwrap()),
        ))
        .unwrap();
        // Signed delegation.
        z.add(Record::new(
            name("signedchild.example.com"),
            3600,
            RData::Ns(name("ns1.other-op.net")),
        ))
        .unwrap();
        z.add(Record::new(
            name("signedchild.example.com"),
            3600,
            RData::Ds(DsRdata {
                key_tag: 1,
                algorithm: 8,
                digest_type: 2,
                digest: vec![9; 32],
            }),
        ))
        .unwrap();
        if signed {
            let mut rng = StdRng::seed_from_u64(7);
            let keys =
                ZoneKeys::generate_default(&mut rng, name("example.com"), Algorithm::RsaSha256)
                    .unwrap();
            sign_zone(
                &mut z,
                &keys,
                &SignerConfig::valid_from(1_450_000_000, 30 * 86400),
            )
            .unwrap();
            (z, Some(keys))
        } else {
            (z, None)
        }
    }

    fn authority(signed: bool) -> Authority {
        let auth = Authority::new();
        auth.upsert_zone(build_zone(signed).0);
        auth
    }

    fn ask(auth: &Authority, qname: &str, qtype: RrType, dnssec: bool) -> Message {
        let q = Message::query(42, name(qname), qtype, dnssec);
        auth.handle_query(&q)
    }

    #[test]
    fn positive_answer() {
        let auth = authority(false);
        let resp = ask(&auth, "www.example.com", RrType::A, false);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp.flags.authoritative);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(resp.answers[0].rtype(), RrType::A);
    }

    #[test]
    fn positive_answer_includes_rrsig_with_do() {
        let auth = authority(true);
        let resp = ask(&auth, "www.example.com", RrType::A, true);
        assert_eq!(resp.answers.len(), 2);
        assert!(resp.answers.iter().any(|r| r.rtype() == RrType::Rrsig));
    }

    #[test]
    fn rrsigs_withheld_without_do() {
        let auth = authority(true);
        let resp = ask(&auth, "www.example.com", RrType::A, false);
        assert!(!resp.answers.iter().any(|r| r.rtype() == RrType::Rrsig));
    }

    #[test]
    fn dnskey_query_answers_at_apex() {
        let auth = authority(true);
        let resp = ask(&auth, "example.com", RrType::Dnskey, true);
        assert_eq!(
            resp.answers
                .iter()
                .filter(|r| r.rtype() == RrType::Dnskey)
                .count(),
            2
        );
        assert!(resp.answers.iter().any(|r| r.rtype() == RrType::Rrsig));
    }

    #[test]
    fn referral_for_unsigned_child_carries_nsec_ds_denial() {
        let auth = authority(true);
        let resp = ask(&auth, "deep.sub.example.com", RrType::A, true);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(!resp.flags.authoritative);
        assert!(resp.authorities.iter().any(|r| r.rtype() == RrType::Ns));
        assert!(!resp.authorities.iter().any(|r| r.rtype() == RrType::Ds));
        assert!(resp.authorities.iter().any(|r| r.rtype() == RrType::Nsec));
        // Glue travels in additional.
        assert!(resp.additionals.iter().any(|r| r.rtype() == RrType::A));
    }

    #[test]
    fn referral_for_signed_child_carries_ds() {
        let auth = authority(true);
        let resp = ask(&auth, "www.signedchild.example.com", RrType::A, true);
        assert!(resp.authorities.iter().any(|r| r.rtype() == RrType::Ds));
        assert!(resp
            .authorities
            .iter()
            .any(|r| matches!(&r.rdata, RData::Rrsig(s) if s.type_covered == RrType::Ds)));
    }

    #[test]
    fn ds_query_at_cut_is_answered_by_parent() {
        let auth = authority(true);
        let resp = ask(&auth, "signedchild.example.com", RrType::Ds, true);
        assert!(resp.flags.authoritative);
        assert!(resp.answers.iter().any(|r| r.rtype() == RrType::Ds));
    }

    #[test]
    fn cname_returned_for_other_types() {
        let auth = authority(false);
        let resp = ask(&auth, "alias.example.com", RrType::A, false);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(resp.answers[0].rtype(), RrType::Cname);
    }

    #[test]
    fn nodata_has_soa_and_nsec() {
        let auth = authority(true);
        let resp = ask(&auth, "www.example.com", RrType::Mx, true);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
        assert!(resp.authorities.iter().any(|r| r.rtype() == RrType::Soa));
        assert!(resp
            .authorities
            .iter()
            .any(|r| r.rtype() == RrType::Nsec && r.name == name("www.example.com")));
    }

    #[test]
    fn nxdomain_has_covering_nsec() {
        let auth = authority(true);
        let resp = ask(&auth, "nope.example.com", RrType::A, true);
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert!(resp.authorities.iter().any(|r| r.rtype() == RrType::Soa));
        assert!(resp.authorities.iter().any(|r| r.rtype() == RrType::Nsec));
    }

    #[test]
    fn nxdomain_in_delegation_only_zone_has_no_denial() {
        // A TLD as the registries serve it: a signed SOA and delegations,
        // no NSEC chain. The DO NXDOMAIN carries the SOA and its RRSIG
        // and no NSEC or NSEC3 record.
        let mut zone = Zone::new(name("com"));
        let soa = SoaRdata {
            mname: name("a.gtld-servers.net"),
            rname: name("nstld.verisign-grs.com"),
            serial: 1,
            refresh: 1800,
            retry: 900,
            expire: 604800,
            minimum: 86400,
        };
        zone.add(Record::new(name("com"), 900, RData::Soa(soa)))
            .unwrap();
        zone.add(Record::new(
            name("com"),
            900,
            RData::Rrsig(dsec_wire::RrsigRdata {
                type_covered: RrType::Soa,
                algorithm: 8,
                labels: 1,
                original_ttl: 900,
                expiration: 1_460_000_000,
                inception: 1_450_000_000,
                key_tag: 7,
                signer_name: name("com"),
                signature: vec![1; 64],
            }),
        ))
        .unwrap();
        for child in ["alpha.com", "omega.com"] {
            zone.add(Record::new(
                name(child),
                3600,
                RData::Ns(name("ns1.op.net")),
            ))
            .unwrap();
        }
        let auth = Authority::new();
        auth.upsert_zone(zone);
        let resp = ask(&auth, "nope.com", RrType::A, true);
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert!(resp.authorities.iter().any(|r| r.rtype() == RrType::Soa));
        assert!(resp
            .authorities
            .iter()
            .any(|r| matches!(&r.rdata, RData::Rrsig(s) if s.type_covered == RrType::Soa)));
        assert!(!resp
            .authorities
            .iter()
            .any(|r| matches!(r.rtype(), RrType::Nsec | RrType::Nsec3)));
    }

    #[test]
    fn nsec3_zone_negative_answers_carry_nsec3() {
        let auth = Authority::new();
        let (mut zone, _) = build_zone(false);
        let mut rng = StdRng::seed_from_u64(17);
        let keys = ZoneKeys::generate_default(&mut rng, name("example.com"), Algorithm::RsaSha256)
            .unwrap();
        let cfg = SignerConfig::valid_from(1_450_000_000, 30 * 86400)
            .with_nsec3(dsec_dnssec::Nsec3Config::new(7, vec![0xAB, 0xCD]));
        sign_zone(&mut zone, &keys, &cfg).unwrap();
        auth.upsert_zone(zone);
        // NXDOMAIN: a covering NSEC3 travels in the authority section.
        let resp = ask(&auth, "nope.example.com", RrType::A, true);
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert!(resp.authorities.iter().any(|r| r.rtype() == RrType::Nsec3));
        assert!(!resp.authorities.iter().any(|r| r.rtype() == RrType::Nsec));
        // NODATA: the matching NSEC3 appears.
        let resp = ask(&auth, "www.example.com", RrType::Mx, true);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp.authorities.iter().any(|r| r.rtype() == RrType::Nsec3));
        // Without DO, no NSEC3 leaks.
        let resp = ask(&auth, "nope.example.com", RrType::A, false);
        assert!(!resp.authorities.iter().any(|r| r.rtype() == RrType::Nsec3));
    }

    #[test]
    fn out_of_bailiwick_refused() {
        let auth = authority(false);
        let resp = ask(&auth, "other.org", RrType::A, false);
        assert_eq!(resp.rcode, Rcode::Refused);
    }

    #[test]
    fn longest_zone_match_wins() {
        let auth = authority(false);
        // Also serve the child zone on the same authority.
        let mut child = Zone::new(name("sub.example.com"));
        child
            .add(Record::new(
                name("host.sub.example.com"),
                60,
                RData::A("192.0.2.77".parse().unwrap()),
            ))
            .unwrap();
        auth.upsert_zone(child);
        let resp = ask(&auth, "host.sub.example.com", RrType::A, false);
        assert_eq!(
            resp.answers.len(),
            1,
            "child zone must answer, not parent referral"
        );
    }

    #[test]
    fn datagram_round_trip() {
        let auth = authority(false);
        let q = Message::query(9, name("www.example.com"), RrType::A, false);
        let out = auth.handle_datagram(&q.to_wire()).unwrap();
        let resp = Message::from_wire(&out).unwrap();
        assert_eq!(resp.id, 9);
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn datagram_and_message_paths_agree() {
        let auth = authority(true);
        let rows = [
            ("www.example.com", RrType::A),      // positive
            ("www.example.com", RrType::Mx),     // NODATA
            ("nope.example.com", RrType::A),     // NXDOMAIN
            ("deep.sub.example.com", RrType::A), // referral
            ("other.org", RrType::A),            // REFUSED
            ("WwW.eXaMpLe.CoM", RrType::A),      // mixed-case question
        ];
        for (id, (qname, qtype)) in (0xBE00u16..).zip(rows) {
            for dnssec in [false, true] {
                let q = Message::query(id, name(qname), qtype, dnssec);
                let expected = auth.handle_query(&q);
                assert_eq!(expected.id, id);
                assert_eq!(expected.questions[0].name.to_string(), format!("{qname}."));
                assert_eq!(
                    auth.handle_datagram(&q.to_wire()).unwrap(),
                    expected.to_wire(),
                    "{qname} {qtype:?} DO={dnssec}"
                );
            }
        }
    }

    #[test]
    fn malformed_datagram_gets_formerr() {
        let auth = authority(false);
        let out = auth.handle_datagram(&[0xAB, 0xCD, 0xFF]).unwrap();
        let resp = Message::from_wire(&out).unwrap();
        assert_eq!(resp.id, 0xABCD);
        assert_eq!(resp.rcode, Rcode::FormErr);
        assert!(auth.handle_datagram(&[1]).is_none());
    }

    #[test]
    fn oversized_udp_reply_is_truncated() {
        // A zone with enough TXT data that the DO response exceeds the
        // 512-byte no-EDNS limit.
        let auth = Authority::new();
        let mut z = Zone::new(name("big.com"));
        for i in 0..6 {
            z.add(Record::new(
                name("big.com"),
                60,
                RData::Txt(vec![vec![b'x'; 200], vec![i]]),
            ))
            .unwrap();
        }
        auth.upsert_zone(z);
        // No EDNS → 512-byte limit → truncated.
        let q = Message::query(5, name("big.com"), RrType::Txt, false);
        let out = auth.handle_datagram(&q.to_wire()).unwrap();
        assert!(out.len() <= 512);
        let resp = Message::from_wire(&out).unwrap();
        assert!(resp.flags.truncated);
        assert!(resp.answers.is_empty());
        // Truncation must hold on the repeat query too.
        let out = auth.handle_datagram(&q.to_wire()).unwrap();
        assert!(Message::from_wire(&out).unwrap().flags.truncated);
        // With EDNS 4096 → fits, not truncated.
        let q = Message::query(6, name("big.com"), RrType::Txt, true);
        let out = auth.handle_datagram(&q.to_wire()).unwrap();
        let resp = Message::from_wire(&out).unwrap();
        assert!(!resp.flags.truncated);
        assert_eq!(resp.answers.len(), 6);
        // Over TCP the full answer always comes back.
        let mut framed = Vec::new();
        let qwire = Message::query(7, name("big.com"), RrType::Txt, false).to_wire();
        framed.extend_from_slice(&(qwire.len() as u16).to_be_bytes());
        framed.extend_from_slice(&qwire);
        let out = auth.handle_tcp_request(&framed).unwrap();
        let declared = u16::from_be_bytes([out[0], out[1]]) as usize;
        assert_eq!(declared, out.len() - 2);
        let resp = Message::from_wire(&out[2..]).unwrap();
        assert!(!resp.flags.truncated);
        assert_eq!(resp.answers.len(), 6);
    }

    #[test]
    fn tcp_rejects_short_frames() {
        let auth = Authority::new();
        assert!(auth.handle_tcp_request(&[]).is_none());
        assert!(auth.handle_tcp_request(&[0]).is_none());
        assert!(auth.handle_tcp_request(&[0, 10, 1, 2]).is_none()); // short body
    }

    #[test]
    fn empty_question_is_formerr() {
        let auth = authority(false);
        let mut q = Message::query(1, name("x.example.com"), RrType::A, false);
        q.questions.clear();
        let resp = auth.handle_query(&q);
        assert_eq!(resp.rcode, Rcode::FormErr);
    }

    #[test]
    fn zone_management() {
        let auth = Authority::new();
        assert!(auth.zone_origins().is_empty());
        auth.upsert_zone(build_zone(false).0);
        assert_eq!(auth.zone_origins(), vec![name("example.com")]);
        assert!(auth.with_zone(&name("example.com"), |z| z.len()).unwrap() > 0);
        auth.with_zone_mut(&name("example.com"), |z| {
            z.add(Record::new(
                name("new.example.com"),
                60,
                RData::A("192.0.2.1".parse().unwrap()),
            ))
            .unwrap();
        });
        assert!(auth.remove_zone(&name("example.com")));
        assert!(!auth.remove_zone(&name("example.com")));
    }

    // ——— freshness: every answer is built from the zones as they are now ———

    #[test]
    fn another_spelling_reaches_the_same_zone_and_echoes_id_and_case() {
        let auth = authority(false);
        let warm = Message::query(1, name("www.example.com"), RrType::A, false);
        auth.handle_query(&warm);
        let q = Message::query(77, name("WWW.Example.COM"), RrType::A, false);
        let resp = auth.handle_query(&q);
        assert_eq!(resp.id, 77);
        assert_eq!(resp.questions[0].name.to_string(), "WWW.Example.COM.");
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn zone_edit_invalidates_cached_answers() {
        let auth = authority(false);
        assert_eq!(
            ask(&auth, "www.example.com", RrType::A, false)
                .answers
                .len(),
            1
        );
        assert_eq!(
            ask(&auth, "www.example.com", RrType::A, false)
                .answers
                .len(),
            1
        );
        auth.with_zone_mut(&name("example.com"), |z| {
            z.add(Record::new(
                name("www.example.com"),
                60,
                RData::A("192.0.2.99".parse().unwrap()),
            ))
            .unwrap();
        });
        assert_eq!(
            ask(&auth, "www.example.com", RrType::A, false)
                .answers
                .len(),
            2,
            "edit must be visible on the very next query"
        );
    }

    #[test]
    fn zone_replacement_invalidates_cached_answers() {
        let auth = authority(false);
        assert_eq!(
            ask(&auth, "www.example.com", RrType::A, false)
                .answers
                .len(),
            1
        );
        // Replace the whole zone with one lacking the www record.
        let mut replacement = Zone::new(name("example.com"));
        replacement
            .add(Record::new(
                name("example.com"),
                3600,
                RData::Ns(name("ns1.example.com")),
            ))
            .unwrap();
        auth.upsert_zone(replacement);
        let resp = ask(&auth, "www.example.com", RrType::A, false);
        assert!(
            resp.answers.is_empty(),
            "replaced zone answers, not the cache"
        );
    }

    #[test]
    fn new_origin_sweeps_refused_and_parent_answers() {
        let auth = authority(false);
        // Cache a REFUSED verdict for an unserved name…
        assert_eq!(
            ask(&auth, "host.newzone.org", RrType::A, false).rcode,
            Rcode::Refused
        );
        // …and a parent-zone answer for a name about to be shadowed.
        assert_eq!(
            ask(&auth, "host.sub.example.com", RrType::A, false)
                .answers
                .len(),
            0
        );
        // Serving the zones must steal both longest matches.
        let mut org = Zone::new(name("newzone.org"));
        org.add(Record::new(
            name("host.newzone.org"),
            60,
            RData::A("192.0.2.5".parse().unwrap()),
        ))
        .unwrap();
        auth.upsert_zone(org);
        let mut child = Zone::new(name("sub.example.com"));
        child
            .add(Record::new(
                name("host.sub.example.com"),
                60,
                RData::A("192.0.2.6".parse().unwrap()),
            ))
            .unwrap();
        auth.upsert_zone(child);
        assert_eq!(
            ask(&auth, "host.newzone.org", RrType::A, false)
                .answers
                .len(),
            1
        );
        assert_eq!(
            ask(&auth, "host.sub.example.com", RrType::A, false)
                .answers
                .len(),
            1
        );
    }

    #[test]
    fn zone_removal_invalidates_cached_answers() {
        let auth = authority(false);
        assert_eq!(
            ask(&auth, "www.example.com", RrType::A, false)
                .answers
                .len(),
            1
        );
        auth.remove_zone(&name("example.com"));
        assert_eq!(
            ask(&auth, "www.example.com", RrType::A, false).rcode,
            Rcode::Refused
        );
    }

    #[test]
    fn cached_datagrams_patch_the_id() {
        let auth = authority(false);
        let q1 = Message::query(9, name("www.example.com"), RrType::A, false);
        let first = auth.handle_datagram(&q1.to_wire()).unwrap();
        let q2 = Message::query(0xBEEF, name("www.example.com"), RrType::A, false);
        let second = auth.handle_datagram(&q2.to_wire()).unwrap();
        let resp = Message::from_wire(&second).unwrap();
        assert_eq!(resp.id, 0xBEEF);
        // Identical apart from the id bytes.
        assert_eq!(&first[2..], &second[2..]);
    }

    #[test]
    fn do_bit_changes_the_answer_to_the_same_question() {
        let auth = authority(true);
        let plain = ask(&auth, "www.example.com", RrType::A, false);
        let with_do = ask(&auth, "www.example.com", RrType::A, true);
        assert!(!plain.answers.iter().any(|r| r.rtype() == RrType::Rrsig));
        assert!(with_do.answers.iter().any(|r| r.rtype() == RrType::Rrsig));
    }

    #[test]
    fn snapshot_is_frozen_and_cheap_to_take() {
        let auth = authority(false);
        let frozen = auth.snapshot();
        auth.with_zone_mut(&name("example.com"), |z| {
            z.add(Record::new(
                name("www.example.com"),
                60,
                RData::A("192.0.2.2".parse().unwrap()),
            ))
            .unwrap();
        });
        assert_eq!(
            ask(&auth, "www.example.com", RrType::A, false)
                .answers
                .len(),
            2
        );
        assert_eq!(
            ask(&frozen, "www.example.com", RrType::A, false)
                .answers
                .len(),
            1,
            "frozen secondary keeps the pre-edit contents"
        );
        // Neither a new zone nor a removal shows through it either.
        auth.upsert_zone(single_a_zone("b.example"));
        auth.remove_zone(&name("example.com"));
        assert_eq!(
            ask(&frozen, "www.example.com", RrType::A, false)
                .answers
                .len(),
            1
        );
        assert_eq!(
            ask(&frozen, "www.b.example", RrType::A, false).rcode,
            Rcode::Refused
        );
        assert_eq!(
            ask(&auth, "www.example.com", RrType::A, false).rcode,
            Rcode::Refused
        );
    }

    // ——— copy-on-write: the zone map is copied only while a snapshot
    // shares it ———

    /// The address of the live zone-map allocation.
    fn zone_map_at(auth: &Authority) -> *const ZoneMap {
        Arc::as_ptr(&auth.zones.borrow())
    }

    /// A zone at `origin` holding one A record at `www`.
    fn single_a_zone(origin: &str) -> Zone {
        let mut zone = Zone::new(name(origin));
        zone.add(Record::new(
            name(&format!("www.{origin}")),
            60,
            RData::A("192.0.2.7".parse().unwrap()),
        ))
        .unwrap();
        zone
    }

    #[test]
    fn edits_without_a_snapshot_stay_in_place() {
        // The population-build pattern: upsert, query, upsert, query.
        // With no snapshot held the map must never be cloned.
        let auth = authority(false);
        let home = zone_map_at(&auth);
        for i in 0..100 {
            let origin = format!("d{i}.example");
            auth.upsert_zone(single_a_zone(&origin));
            let www = format!("www.{origin}");
            assert_eq!(ask(&auth, &www, RrType::A, false).answers.len(), 1);
            assert_eq!(zone_map_at(&auth), home, "no clone while unshared");
        }
        assert_eq!(auth.zone_origins().len(), 101);
    }

    #[test]
    fn the_live_side_diverges_on_its_first_edit() {
        let auth = authority(false);
        let frozen = auth.snapshot();
        let shared = zone_map_at(&auth);
        assert_eq!(zone_map_at(&frozen), shared, "O(1): same allocation");
        auth.upsert_zone(single_a_zone("b.example"));
        let live = zone_map_at(&auth);
        assert_ne!(live, shared, "the first edit copies the map once");
        assert_eq!(zone_map_at(&frozen), shared, "the frozen side never moves");
        auth.upsert_zone(single_a_zone("c.example"));
        assert_eq!(zone_map_at(&auth), live, "unshared again: in place");
    }
}
