//! `Zone` against the ordered index it replaced, step by step.
//!
//! The zone keeps one hashed node per owner and sorts owners only when a
//! caller asks for canonical order. The reference below is the previous
//! algorithm verbatim: a `BTreeMap<(Name, u16), Vec<Record>>` in which
//! owners are lowercase keys, probes fold case through `Name`'s `Ord`,
//! and a name exists when the first key at or after it is its subdomain.
//! Seeded sequences of `add`, `remove_rrset` and `remove_name` over a small
//! pool of owners — mixed-case spellings, glue under a cut, empty
//! non-terminals — must leave both answering every query alike, down to
//! the exact order and spelling of every enumeration.
//!
//! A delegation-heavy sequence does the same for a TLD-shaped leaf zone.
//!
//! A registry zone keeps its delegations as rows, not records: seeded
//! sequences through the `Registry` API must leave its zone answering
//! every query byte for byte as a leaf zone fed the same records does
//! (`tests/scan_memory.rs` pins what a row costs).
//!
//! The last test does the same for the authority's zone map: nested zones
//! on one authority, an unserved name, any spelling.

use std::borrow::{Borrow, Cow};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use dsec::authserver::Authority;
use dsec::dnssec::{sign_rrset, SignerConfig};
use dsec::ecosystem::{RegistrarId, Registry, RegistryError, Tld};
use dsec::wire::{DsRdata, Message, Name, RData, Rcode, Record, RrSet, RrType, TypeBitmap, Zone};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn name(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// SplitMix64: a dependency-free seeded stream for the operation mix.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `s` with each ASCII letter's case flipped by a coin toss.
    fn spell(&mut self, s: &str) -> Name {
        let bits = self.next();
        let spelled: String = s
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if bits >> (i % 64) & 1 == 1 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
        name(&spelled)
    }
}

const ORIGIN: &str = "example.com";

/// Owners records are added at: the apex, neighbours sharing a first
/// label, a cut (`sub`) with glue and deeper names under it, and chains
/// whose middle names hold nothing of their own.
const OWNERS: &[&str] = &[
    "example.com",
    "www.example.com",
    "b.example.com",
    "a.b.example.com",
    "b.a.example.com",
    "sub.example.com",
    "ns1.sub.example.com",
    "x.deep.ns1.sub.example.com",
    "c.d.e.example.com",
    "z.example.com",
];

/// Names only ever probed: empty non-terminals (or names that become one),
/// absent names, the origin's ancestors and names outside the zone.
const PROBES: &[&str] = &[
    "a.example.com",
    "d.e.example.com",
    "e.example.com",
    "deep.ns1.sub.example.com",
    "www.sub.example.com",
    "nope.example.com",
    "com",
    ".",
    "example.org",
    "www.example.org",
];

const TYPES: [RrType; 4] = [RrType::A, RrType::Ns, RrType::Txt, RrType::Ds];

/// One of three records of `rtype` at `owner`, so repeats are duplicates.
fn record(owner: Name, rtype: RrType, pick: usize) -> Record {
    let v = pick as u8;
    let rdata = match rtype {
        RrType::A => RData::A(Ipv4Addr::new(192, 0, 2, v)),
        RrType::Ns => RData::Ns(name(
            ["ns1.sub.example.com", "ns.op.net", "NS2.Op.Net"][pick],
        )),
        RrType::Txt => RData::Txt(vec![vec![b'a' + v]]),
        _ => RData::Ds(DsRdata {
            key_tag: u16::from(v),
            algorithm: 8,
            digest_type: 2,
            digest: vec![v; 32],
        }),
    };
    Record::new(owner, 300, rdata)
}

/// The ordered index `Zone` used to be, kept to its old algorithms.
struct Reference {
    origin: Name,
    records: BTreeMap<(Name, u16), Vec<Record>>,
}

impl Reference {
    fn new(origin: Name) -> Self {
        Reference {
            origin,
            records: BTreeMap::new(),
        }
    }

    fn add(&mut self, record: Record) -> bool {
        if !record.name.is_subdomain_of(&self.origin) {
            return false;
        }
        let key = (record.name.to_canonical(), record.rtype().number());
        let entry = self.records.entry(key).or_default();
        if !entry.contains(&record) {
            entry.push(record);
        }
        true
    }

    fn at(&self, owner: &Name) -> impl Iterator<Item = (&(Name, u16), &Vec<Record>)> {
        self.records
            .range((owner.clone(), 0)..=(owner.clone(), u16::MAX))
    }

    fn remove_rrset(&mut self, owner: &Name, rtype: RrType) -> usize {
        self.records
            .remove(&(owner.clone(), rtype.number()))
            .map_or(0, |v| v.len())
    }

    fn remove_name(&mut self, owner: &Name) -> usize {
        let keys: Vec<_> = self.at(owner).map(|(key, _)| key.clone()).collect();
        keys.into_iter()
            .map(|k| self.records.remove(&k).map_or(0, |v| v.len()))
            .sum()
    }

    fn rrset_records(&self, owner: &Name, rtype: RrType) -> Option<&[Record]> {
        self.records
            .get(&(owner.clone(), rtype.number()))
            .map(Vec::as_slice)
    }

    fn records_at(&self, owner: &Name) -> Vec<Record> {
        self.at(owner)
            .flat_map(|(_, v)| v.iter().cloned())
            .collect()
    }

    fn name_exists(&self, owner: &Name) -> bool {
        self.records
            .range((owner.clone(), 0)..)
            .next()
            .is_some_and(|((o, _), _)| o.is_subdomain_of(owner))
    }

    fn types_at(&self, owner: &Name) -> TypeBitmap {
        TypeBitmap::from_types(self.at(owner).map(|(&(_, t), _)| RrType::from_number(t)))
    }

    fn find_delegation(&self, qname: &Name) -> Option<(Name, &[Record])> {
        let mut cut = qname.to_canonical();
        loop {
            if !cut.is_strict_subdomain_of(&self.origin) {
                return None;
            }
            if let Some(set) = self.rrset_records(&cut, RrType::Ns) {
                return Some((cut, set));
            }
            cut = cut.parent()?;
        }
    }

    fn len(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    fn rrsets(&self) -> Vec<RrSet> {
        self.records
            .values()
            .map(|v| RrSet::new(v.clone()).unwrap())
            .collect()
    }

    fn owner_names(&self) -> Vec<Name> {
        let mut names: Vec<Name> = self.records.keys().map(|(n, _)| n.clone()).collect();
        names.dedup();
        names
    }
}

/// Exact presentation of records: `Record`'s `==` folds owner case, this
/// does not.
fn shown<R: Borrow<Record>>(records: impl IntoIterator<Item = R>) -> Vec<String> {
    records
        .into_iter()
        .map(|r| r.borrow().to_string())
        .collect()
}

fn names_shown(names: &[Name]) -> Vec<String> {
    names.iter().map(Name::to_string).collect()
}

fn cut_shown(found: Option<(&Name, Cow<'_, [Record]>)>) -> Option<(String, Vec<String>)> {
    found.map(|(cut, ns)| (cut.to_string(), shown(ns.iter())))
}

/// Every point lookup at `probe` answers alike.
fn assert_probe_agrees(zone: &Zone, reference: &Reference, probe: &Name, step: &str) {
    for rtype in TYPES {
        assert_eq!(
            zone.rrset_records(probe, rtype).as_deref().map(shown),
            reference.rrset_records(probe, rtype).map(shown),
            "{step}: rrset_records({probe}, {rtype})"
        );
        assert_eq!(
            zone.rrset(probe, rtype),
            reference
                .rrset_records(probe, rtype)
                .map(|r| RrSet::new(r.to_vec()).unwrap()),
            "{step}: rrset({probe}, {rtype})"
        );
    }
    assert_eq!(
        zone.name_exists(probe),
        reference.name_exists(probe),
        "{step}: name_exists({probe})"
    );
    assert_eq!(
        zone.types_at(probe),
        reference.types_at(probe),
        "{step}: types_at({probe})"
    );
    assert_eq!(
        shown(zone.records_at(probe)),
        shown(reference.records_at(probe)),
        "{step}: records_at({probe})"
    );
    assert_eq!(
        cut_shown(
            zone.find_delegation(probe)
                .map(|cut| (cut.name(), cut.rrset(RrType::Ns).unwrap()))
        ),
        cut_shown(
            reference
                .find_delegation(probe)
                .as_ref()
                .map(|(cut, ns)| (cut, Cow::Borrowed(*ns)))
        ),
        "{step}: find_delegation({probe})"
    );
}

fn assert_agree(zone: &Zone, reference: &Reference, draw: &mut Draw, step: &str) {
    for &probe in OWNERS.iter().chain(PROBES) {
        assert_probe_agrees(zone, reference, &draw.spell(probe), step);
    }
    assert_eq!(zone.len(), reference.len(), "{step}: len");
    assert_eq!(
        zone.is_empty(),
        reference.records.is_empty(),
        "{step}: is_empty"
    );
    assert_eq!(
        shown(zone.iter()),
        shown(reference.records.values().flatten()),
        "{step}: iter order"
    );
    let rrsets: Vec<RrSet> = zone.rrsets().collect();
    assert_eq!(rrsets, reference.rrsets(), "{step}: rrsets order");
    assert_eq!(
        names_shown(&zone.owner_names()),
        names_shown(&reference.owner_names()),
        "{step}: owner_names order and spelling"
    );
    // Equality does not depend on the edit history that led here.
    let mut rebuilt = Zone::new(name(ORIGIN));
    for record in zone.iter() {
        rebuilt.add(record.into_owned()).unwrap();
    }
    assert_eq!(&rebuilt, zone, "{step}: rebuilt from its own records");
}

#[test]
fn seeded_edit_sequences_agree_with_the_ordered_index() {
    for seed in 0..12u64 {
        let mut draw = Draw(seed);
        let mut zone = Zone::new(draw.spell(ORIGIN));
        let mut reference = Reference::new(name(ORIGIN));
        for step in 0..300 {
            let pick = draw.below(OWNERS.len());
            let owner = draw.spell(OWNERS[pick]);
            let rtype = TYPES[draw.below(TYPES.len())];
            let what = match draw.below(10) {
                0..=5 => {
                    let record = record(owner.clone(), rtype, draw.below(3));
                    assert_eq!(
                        zone.add(record.clone()).is_ok(),
                        reference.add(record),
                        "seed {seed} step {step}: add"
                    );
                    "add"
                }
                6..=8 => {
                    assert_eq!(
                        zone.remove_rrset(&owner, rtype),
                        reference.remove_rrset(&owner, rtype),
                        "seed {seed} step {step}: remove_rrset({owner}, {rtype})"
                    );
                    "remove_rrset"
                }
                _ => {
                    assert_eq!(
                        zone.remove_name(&owner),
                        reference.remove_name(&owner),
                        "seed {seed} step {step}: remove_name({owner})"
                    );
                    "remove_name"
                }
            };
            assert_agree(
                &zone,
                &reference,
                &mut draw,
                &format!("seed {seed} step {step} after {what} at {owner}"),
            );
        }
    }
}

/// NS fleets the delegation-heavy sequences draw whole NS sets from, one
/// host spelled with capitals and listed twice.
const FLEETS: [&[&str]; 3] = [
    &["ns1.op.net", "ns2.op.net"],
    &["a.dns.example.org"],
    &["NS.Big.Net", "ns2.big.net", "ns.big.NET", "ns3.big.net"],
];

/// A TLD-shaped zone: 200 lowercase cuts whose NS sets come from three
/// fleets, written whole (as a registry does) or record by record,
/// removed and re-added, some beside a DS set or under a second TTL —
/// and the mixed-case `sub` cut, whose records stay in its node. The
/// zone keeps uniform NS sets as interned host lists and the rest as
/// records; both must answer as the ordered index does.
#[test]
fn delegation_heavy_sequences_agree_with_the_ordered_index() {
    for seed in 0..4u64 {
        let mut draw = Draw(1_000 + seed);
        let mut zone = Zone::new(name(ORIGIN));
        let mut reference = Reference::new(name(ORIGIN));
        for step in 0..800 {
            let label = format!("d{}.example.com", draw.below(200));
            let cut = name(&label);
            let fleet: Vec<Name> = FLEETS[draw.below(FLEETS.len())]
                .iter()
                .map(|host| name(host))
                .collect();
            let what = match draw.below(10) {
                0..=4 => {
                    zone.remove_rrset(&cut, RrType::Ns);
                    reference.remove_rrset(&cut, RrType::Ns);
                    for host in fleet {
                        let record = Record::new(cut.clone(), 172_800, RData::Ns(host));
                        zone.add(record.clone()).unwrap();
                        reference.add(record);
                    }
                    "replace NS"
                }
                5 => {
                    let ttl = if draw.below(4) == 0 { 300 } else { 172_800 };
                    let record = Record::new(cut.clone(), ttl, RData::Ns(fleet[0].clone()));
                    assert_eq!(
                        zone.add(record.clone()).is_ok(),
                        reference.add(record),
                        "seed {seed} step {step}: add NS at {cut}"
                    );
                    "add NS"
                }
                6 => {
                    let record = record(cut.clone(), RrType::Ds, draw.below(3));
                    assert!(zone.add(record.clone()).is_ok() && reference.add(record));
                    "add DS"
                }
                7 => {
                    assert_eq!(
                        zone.remove_rrset(&cut, RrType::Ns),
                        reference.remove_rrset(&cut, RrType::Ns),
                        "seed {seed} step {step}: remove_rrset({cut}, NS)"
                    );
                    "remove_rrset NS"
                }
                8 => {
                    assert_eq!(
                        zone.remove_name(&cut),
                        reference.remove_name(&cut),
                        "seed {seed} step {step}: remove_name({cut})"
                    );
                    "remove_name"
                }
                _ => {
                    let sub = draw.spell("sub.example.com");
                    let record = record(sub, RrType::Ns, draw.below(3));
                    assert!(zone.add(record.clone()).is_ok() && reference.add(record));
                    "add NS at sub"
                }
            };
            let every_probe = step % 10 == 0;
            let step = format!("seed {seed} step {step} after {what} at {cut}");
            for probe in [label.clone(), format!("www.{label}")] {
                assert_probe_agrees(&zone, &reference, &draw.spell(&probe), &step);
            }
            if every_probe {
                assert_agree(&zone, &reference, &mut draw, &step);
            }
        }
        assert_agree(&zone, &reference, &mut draw, &format!("seed {seed} end"));
    }
}

const FROM: u32 = 1_420_070_400;
const UNTIL: u32 = FROM + 1000 * 86_400;

/// Labels the registry sequences draw from, each bought and edited under
/// random spellings.
const LABELS: usize = 24;

/// A `.com` registry with registrars 1 and 2 accredited.
fn registry() -> Registry {
    let mut registry = Registry::new(Tld::Com, &mut StdRng::seed_from_u64(5), FROM, UNTIL);
    for id in [1, 2] {
        registry.accredit(RegistrarId(id));
    }
    registry
}

/// One of three DS records.
fn ds(pick: usize) -> DsRdata {
    DsRdata {
        key_tag: pick as u16,
        algorithm: 8,
        digest_type: 2,
        digest: vec![pick as u8; 32],
    }
}

/// The leaf zone a registry zone must read as: the registry's apex,
/// then each edit the registry accepted, written as records.
struct LeafMirror {
    zone: Zone,
    /// Each delegation's sponsor, by canonical name.
    sponsor: BTreeMap<Name, RegistrarId>,
}

impl LeafMirror {
    fn new(registry: &Registry) -> Self {
        let apex = registry
            .authority()
            .with_zone(&name("com"), |zone| zone.records_at(&name("com")))
            .unwrap();
        let mut zone = Zone::new(name("com"));
        for record in apex {
            zone.add(record).unwrap();
        }
        LeafMirror {
            zone,
            sponsor: BTreeMap::new(),
        }
    }

    /// Replaces `domain`'s NS RRset, as the registry writes it: owned by
    /// the canonical name, each host once in its first spelling.
    fn set_ns(&mut self, domain: &Name, hosts: &[Name]) {
        self.zone.remove_rrset(domain, RrType::Ns);
        for host in hosts {
            let record = Record::new(domain.to_canonical(), 172_800, RData::Ns(host.clone()));
            self.zone.add(record).unwrap();
        }
    }

    /// Replaces `domain`'s DS RRset and signs it with the registry's
    /// ZSK under the registry's signer parameters.
    fn set_ds(&mut self, registry: &Registry, domain: &Name, ds_set: &[DsRdata]) {
        self.zone.remove_rrset(domain, RrType::Ds);
        self.zone.remove_rrset(domain, RrType::Rrsig);
        for ds in ds_set {
            let record = Record::new(domain.to_canonical(), 86_400, RData::Ds(ds.clone()));
            self.zone.add(record).unwrap();
        }
        if let Some(rrset) = self.zone.rrset(domain, RrType::Ds) {
            let keys = registry.keys();
            let signer = SignerConfig {
                inception: FROM,
                expiration: UNTIL,
                nsec: false,
                nsec3: None,
                dnskey_ttl: 3_600,
            };
            let sig = sign_rrset(&rrset, &keys.zsk, keys.zsk_tag(), &keys.zone, &signer);
            self.zone.add(sig).unwrap();
        }
    }
}

/// The registry's zone answers every query as the mirror does, with and
/// without DO, byte for byte; its text form, size, NS and DS reads and
/// rows agree for every name of the pool under `draw`'s spellings.
fn assert_registry_agrees(registry: &Registry, mirror: &LeafMirror, draw: &mut Draw, step: &str) {
    let served = registry.authority();
    let leaf = Authority::new();
    leaf.upsert_zone(mirror.zone.clone());
    served.with_zone(&name("com"), |zone| {
        assert_eq!(zone.to_text(), mirror.zone.to_text(), "{step}: to_text");
        assert_eq!(zone.len(), mirror.zone.len(), "{step}: len");
        assert_eq!(zone, &mirror.zone, "{step}: equal as records");
    });
    let mut questions = vec![
        (name("com"), RrType::Soa),
        (name("com"), RrType::Dnskey),
        (name("nope.com"), RrType::A),
        (name("www.nope.com"), RrType::Ds),
    ];
    for i in 0..LABELS {
        let label = format!("d{i}.com");
        questions.push((draw.spell(&label), RrType::Ds));
        questions.push((draw.spell(&label), RrType::A));
        questions.push((draw.spell(&format!("www.{label}")), RrType::A));
    }
    for (id, (qname, qtype)) in (1u16..).zip(questions) {
        for dnssec in [false, true] {
            let query = Message::query(id, qname.clone(), qtype, dnssec);
            assert_eq!(
                served.handle_query(&query).to_wire(),
                leaf.handle_query(&query).to_wire(),
                "{step}: {qname} {qtype} DO={dnssec}"
            );
        }
    }
    for i in 0..LABELS {
        let domain = draw.spell(&format!("d{i}.com"));
        let hosts: Vec<Name> = mirror.zone.ns_hosts(&domain).cloned().collect();
        assert_eq!(registry.ns_of(&domain), hosts, "{step}: ns_of({domain})");
        let ds_set: Vec<DsRdata> = (mirror.zone.rrset_records(&domain, RrType::Ds))
            .iter()
            .flat_map(|records| records.iter())
            .map(|r| match &r.rdata {
                RData::Ds(ds) => ds.clone(),
                other => panic!("{other:?} in a DS RRset"),
            })
            .collect();
        assert_eq!(registry.ds_of(&domain), ds_set, "{step}: ds_of({domain})");
        assert_eq!(
            registry.sponsor_of(&domain),
            mirror.sponsor.get(&domain).copied(),
            "{step}: sponsor_of({domain})"
        );
        let row = registry.row_of(&domain);
        let zone_row = served.with_zone(&name("com"), |zone| zone.row_of(&domain));
        assert_eq!(row, zone_row.unwrap(), "{step}: row_of({domain})");
        assert_eq!(
            row.is_some(),
            !hosts.is_empty(),
            "{step}: {domain} has a row"
        );
        if let Some(row) = row {
            let (at, _) = registry.delegation_at(row);
            assert_eq!(at.to_string(), domain.to_string().to_ascii_lowercase());
            assert_eq!(registry.ns_at(row), hosts, "{step}: ns_at({row})");
            assert_eq!(registry.ds_at(row), ds_set, "{step}: ds_at({row})");
        }
    }
}

/// Seeded `add_delegation` / `set_ns` / `set_ds` / `remove_ds` /
/// `transfer` sequences over mixed-case spellings: after every step, the
/// registry zone's rows read as the records a leaf zone was fed.
#[test]
fn registry_rows_read_as_the_records_a_leaf_zone_holds() {
    for seed in 0..3u64 {
        let mut draw = Draw(2_000 + seed);
        let mut registry = registry();
        let mut mirror = LeafMirror::new(&registry);
        assert_registry_agrees(&registry, &mirror, &mut draw, &format!("seed {seed} start"));
        for step in 0..120 {
            let label = format!("d{}.com", draw.below(LABELS));
            let domain = draw.spell(&label);
            let fleet: Vec<Name> = FLEETS[draw.below(FLEETS.len())]
                .iter()
                .map(|host| draw.spell(host))
                .collect();
            let who = RegistrarId(1 + draw.below(2) as u32);
            let delegated = mirror.sponsor.contains_key(&domain);
            let (what, result) = match draw.below(10) {
                0..=2 => {
                    let result = registry.add_delegation(who, &domain, &fleet);
                    if result.is_ok() {
                        mirror.set_ns(&domain, &fleet);
                        mirror.sponsor.insert(domain.to_canonical(), who);
                    }
                    ("add_delegation", result)
                }
                3..=4 => {
                    let result = registry.set_ns(who, &domain, &fleet);
                    if result.is_ok() {
                        mirror.set_ns(&domain, &fleet);
                    }
                    ("set_ns", result)
                }
                5..=6 => {
                    let ds_set: Vec<DsRdata> =
                        (0..1 + draw.below(3)).map(|_| ds(draw.below(3))).collect();
                    let result = registry.set_ds(who, &domain, &ds_set);
                    if result.is_ok() {
                        mirror.set_ds(&registry, &domain, &ds_set);
                    }
                    ("set_ds", result)
                }
                7 => {
                    let result = registry.remove_ds(who, &domain);
                    if result.is_ok() {
                        mirror.set_ds(&registry, &domain, &[]);
                    }
                    ("remove_ds", result)
                }
                _ => {
                    let to = RegistrarId(3 - who.0);
                    let result = registry.transfer(who, to, &domain);
                    if result.is_ok() {
                        mirror.sponsor.insert(domain.to_canonical(), to);
                    }
                    ("transfer", result)
                }
            };
            // Exactly the edits the registry's rules allow went through.
            let sponsored = delegated && mirror.sponsor.get(&domain) == Some(&who);
            match &result {
                Err(RegistryError::AlreadyRegistered(_)) => assert!(delegated),
                Err(RegistryError::NotRegistered(_)) => assert!(!delegated),
                Err(RegistryError::NotSponsor { .. }) => assert!(delegated && !sponsored),
                Err(other) => panic!("seed {seed} step {step}: {what} {domain}: {other}"),
                Ok(()) => {}
            }
            let step = format!("seed {seed} step {step} after {what} at {domain}");
            assert_registry_agrees(&registry, &mirror, &mut draw, &step);
        }
        assert!(
            mirror.sponsor.len() > LABELS / 2,
            "seed {seed}: most labels delegated"
        );
    }
}

#[test]
fn out_of_zone_owners_are_refused_and_change_nothing() {
    let mut zone = Zone::new(name(ORIGIN));
    zone.add(record(name("www.example.com"), RrType::A, 1))
        .unwrap();
    for outside in ["example.org", "com", ".", "wwwexample.com"] {
        assert!(zone.add(record(name(outside), RrType::A, 0)).is_err());
    }
    assert_eq!(zone.len(), 1);
    assert_eq!(names_shown(&zone.owner_names()), ["www.example.com."]);
}

/// Three zones on one authority, two of them nested: every spelling of a
/// name is answered by the deepest zone that contains it, byte for byte
/// as an authority serving only that zone answers, and a name no zone
/// contains is REFUSED.
#[test]
fn nested_zones_on_one_authority_answer_from_the_deepest_match() {
    let origins = ["example.com", "sub.example.com", "example.org"];
    let zone_of = |origin: &Name| {
        let mut zone = Zone::new(origin.clone());
        zone.add(record(origin.clone(), RrType::Ns, 1)).unwrap();
        for (label, rtype) in [("www", RrType::A), ("host", RrType::Txt)] {
            zone.add(record(origin.child(label).unwrap(), rtype, 2))
                .unwrap();
        }
        zone
    };
    let shared = Authority::new();
    for origin in origins {
        shared.upsert_zone(zone_of(&name(origin)));
    }
    assert_eq!(
        names_shown(&shared.zone_origins()),
        ["example.com.", "sub.example.com.", "example.org."],
        "canonical order"
    );

    let mut draw = Draw(7);
    let qnames = [
        "example.com",
        "www.example.com",
        "sub.example.com",
        "www.sub.example.com",
        "deep.host.sub.example.com",
        "host.example.org",
        "example.net",
        "com",
        ".",
    ];
    for (id, qname) in (1u16..).zip(qnames.iter().cycle().take(qnames.len() * 4)) {
        let spelled = draw.spell(qname);
        let deepest = origins
            .iter()
            .map(|o| name(o))
            .filter(|o| spelled.is_subdomain_of(o))
            .max_by_key(Name::label_count);
        for qtype in [RrType::A, RrType::Txt, RrType::Ns] {
            let query = Message::query(id, spelled.clone(), qtype, false);
            let got = shared.handle_query(&query);
            match &deepest {
                None => assert_eq!(got.rcode, Rcode::Refused, "{spelled} {qtype}"),
                Some(origin) => {
                    let alone = Authority::new();
                    alone.upsert_zone(zone_of(origin));
                    assert_eq!(
                        got.to_wire(),
                        alone.handle_query(&query).to_wire(),
                        "{spelled} {qtype} from {origin}"
                    );
                    assert_ne!(got.rcode, Rcode::Refused, "{spelled} {qtype}");
                }
            }
        }
        let served = shared.with_zone(&spelled, |zone| zone.origin().clone());
        assert_eq!(served.as_ref(), deepest.as_ref().filter(|o| **o == spelled));
    }
    assert!(shared.remove_zone(&draw.spell("sub.example.com")));
    assert_eq!(
        names_shown(&shared.zone_origins()),
        ["example.com.", "example.org."]
    );
}
