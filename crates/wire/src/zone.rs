//! Zone model: the set of RRsets a single organization serves, with a
//! master-file style text form (output only).
//!
//! The registry/registrar simulation manipulates zones through this type:
//! TLD registries hold delegation-only zones (NS + DS per child), and DNS
//! operators hold the customer zones that get signed.
//!
//! Every query probes a zone by owner name, so the index is a hash map
//! from owner to that owner's records: a point lookup is one FNV probe,
//! however large the zone. Canonical (RFC 4034 §6.1) order is needed only
//! by signing, NSEC/NSEC3 chain building and the text form, and only the
//! enumerations they use ([`Zone::iter`], [`Zone::rrsets`],
//! [`Zone::owner_names`]) pay for it, by sorting the owners on demand.
//! A negative answer needs one NSEC or NSEC3 owner, not the order:
//! [`Zone::owners_with`] hands it the candidates unsorted.

use std::fmt;
use std::ops::Range;

use crate::fnv::FnvHashMap;
use crate::name::Name;
use crate::record::{Record, RrSet};
use crate::rrtype::{RrType, TypeBitmap};
use crate::WireError;

/// A DNS zone: an origin name and the records at or below it.
///
/// Records are indexed by owner (see the module docs). Owner names are
/// stored in canonical (lowercase) form; the records keep their case.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Zone {
    origin: Name,
    nodes: FnvHashMap<Name, Node>,
}

/// One name's index entry.
///
/// `records` holds the owner's RRsets back to back in type-number order,
/// each in insertion order: an owner with one RRset — most TLD owners
/// hold only their NS set — costs one vector. `below` counts the owners
/// strictly beneath this name, so a node with no records is an empty
/// non-terminal, and a node with neither records nor owners below is
/// removed: a name exists exactly when it has a node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Node {
    records: Vec<Record>,
    below: u32,
}

impl Node {
    /// Where the records of type number `rtype` sit in `records`.
    fn span(&self, rtype: u16) -> Range<usize> {
        let start = self.records.partition_point(|r| r.rtype().number() < rtype);
        let len = self.records[start..].partition_point(|r| r.rtype().number() == rtype);
        start..start + len
    }

    /// The RRset of type number `rtype`, if this owner has one.
    fn rrset(&self, rtype: u16) -> Option<&[Record]> {
        let span = self.span(rtype);
        (!span.is_empty()).then(|| &self.records[span])
    }

    /// This owner's RRsets in type order.
    fn rrsets(&self) -> impl Iterator<Item = &[Record]> {
        self.records
            .chunk_by(|a, b| a.rtype().number() == b.rtype().number())
    }
}

impl Zone {
    /// An empty zone rooted at `origin`.
    pub fn new(origin: Name) -> Self {
        Zone {
            origin,
            nodes: FnvHashMap::default(),
        }
    }

    /// The zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Adds a record. Returns an error if the owner is outside the zone.
    /// Exact duplicates are ignored (DNS RRsets are sets).
    pub fn add(&mut self, record: Record) -> Result<(), WireError> {
        if !record.name.is_subdomain_of(&self.origin) {
            return Err(WireError::OutOfZone {
                name: record.name.to_string(),
                origin: self.origin.to_string(),
            });
        }
        let owner = record.name.to_canonical();
        let node = self.nodes.entry(owner.clone()).or_default();
        let span = node.span(record.rtype().number());
        if node.records[span.clone()].contains(&record) {
            return Ok(());
        }
        let first = node.records.is_empty();
        node.records.insert(span.end, record);
        if first {
            self.count_owner(&owner, true);
        }
        Ok(())
    }

    /// Counts `owner`, which just gained its first record, in the `below`
    /// of every name between it and the origin — or uncounts it, when it
    /// just lost its last one.
    fn count_owner(&mut self, owner: &Name, gained: bool) {
        let mut name = owner.clone();
        while name != self.origin {
            name = name.parent().expect("owners lie at or below the origin");
            if gained {
                self.nodes.entry(name.clone()).or_default().below += 1;
                continue;
            }
            let node = self
                .nodes
                .get_mut(&name)
                .expect("an owner's ancestors have nodes");
            node.below -= 1;
            if node.below == 0 && node.records.is_empty() {
                self.nodes.remove(&name);
            }
        }
    }

    /// Drops the records of `owner`, which has some, keeping its node
    /// only while owners below it still need it.
    fn vacate(&mut self, owner: &Name) {
        let node = self
            .nodes
            .get_mut(owner)
            .expect("a vacated owner has a node");
        if node.below == 0 {
            self.nodes.remove(owner);
        } else {
            node.records = Vec::new();
        }
        self.count_owner(owner, false);
    }

    /// Removes the whole RRset at (name, rtype); returns how many records
    /// were removed.
    pub fn remove_rrset(&mut self, name: &Name, rtype: RrType) -> usize {
        let Some(node) = self.nodes.get_mut(name) else {
            return 0;
        };
        let span = node.span(rtype.number());
        let removed = span.len();
        if removed == node.records.len() && removed > 0 {
            self.vacate(name);
        } else {
            node.records.drain(span);
        }
        removed
    }

    /// Removes every record owned by `name`, of any type.
    pub fn remove_name(&mut self, name: &Name) -> usize {
        let removed = self.nodes.get(name).map_or(0, |node| node.records.len());
        if removed > 0 {
            self.vacate(name);
        }
        removed
    }

    /// The RRset at (name, rtype), if any, as an owned [`RrSet`].
    pub fn rrset(&self, name: &Name, rtype: RrType) -> Option<RrSet> {
        self.rrset_records(name, rtype).map(|records| {
            RrSet::new(records.to_vec()).expect("zone index entries are valid RRsets")
        })
    }

    /// The records at (name, rtype), if any, borrowed — the query hot
    /// path's lookup, which clones nothing.
    pub fn rrset_records(&self, name: &Name, rtype: RrType) -> Option<&[Record]> {
        self.nodes.get(name)?.rrset(rtype.number())
    }

    /// All records at `name`, any type.
    pub fn records_at(&self, name: &Name) -> Vec<Record> {
        self.nodes
            .get(name)
            .map_or_else(Vec::new, |node| node.records.clone())
    }

    /// True if any record exists at `name` (of any type), or underneath it.
    pub fn name_exists(&self, name: &Name) -> bool {
        // Every name above the origin has the whole zone underneath it.
        self.nodes.contains_key(name)
            || (!self.nodes.is_empty() && self.origin.is_strict_subdomain_of(name))
    }

    /// The owners holding records, with their nodes, in canonical order.
    fn sorted(&self) -> Vec<(&Name, &Node)> {
        let mut owners: Vec<(&Name, &Node)> = self
            .nodes
            .iter()
            .filter(|(_, node)| !node.records.is_empty())
            .collect();
        owners.sort_unstable_by(|(a, _), (b, _)| a.canonical_cmp(b));
        owners
    }

    /// Iterates every record in canonical owner order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.sorted()
            .into_iter()
            .flat_map(|(_, node)| &node.records)
    }

    /// Iterates every RRset in canonical owner order.
    pub fn rrsets(&self) -> impl Iterator<Item = RrSet> + '_ {
        self.sorted()
            .into_iter()
            .flat_map(|(_, node)| node.rrsets())
            .map(|records| {
                RrSet::new(records.to_vec()).expect("zone index entries are valid RRsets")
            })
    }

    /// Total record count.
    pub fn len(&self) -> usize {
        self.nodes.values().map(|node| node.records.len()).sum()
    }

    /// True when the zone holds no records.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The owners holding an RRset of `rtype`, in no particular order:
    /// for a one-pass search that needs no sort (negative answers pick
    /// their NSEC or NSEC3 owner this way).
    pub fn owners_with(&self, rtype: RrType) -> impl Iterator<Item = &Name> {
        self.nodes
            .iter()
            .filter(move |(_, node)| node.rrset(rtype.number()).is_some())
            .map(|(owner, _)| owner)
    }

    /// All distinct owner names, canonical order.
    pub fn owner_names(&self) -> Vec<Name> {
        self.sorted()
            .into_iter()
            .map(|(owner, _)| owner.clone())
            .collect()
    }

    /// The types present at `name`, as an NSEC-style bitmap.
    pub fn types_at(&self, name: &Name) -> TypeBitmap {
        let records = self
            .nodes
            .get(name)
            .into_iter()
            .flat_map(|node| &node.records);
        TypeBitmap::from_types(records.map(Record::rtype))
    }

    /// Finds the deepest delegation (an NS RRset strictly below the origin,
    /// at or above `qname`). Returns the cut owner, spelled as the index
    /// stores it, and its NS records. Probes with `qname`'s own labels, so
    /// nothing is lowercased or copied.
    pub fn find_delegation(&self, qname: &Name) -> Option<(Name, &[Record])> {
        let mut cut = qname.clone();
        while cut.is_strict_subdomain_of(&self.origin) {
            if let Some((owner, node)) = self.nodes.get_key_value(&cut) {
                if let Some(ns) = node.rrset(RrType::Ns.number()) {
                    return Some((owner.clone(), ns));
                }
            }
            cut = cut.parent()?;
        }
        None
    }

    /// Serializes to a master-file style text form, one record per line,
    /// preceded by an `$ORIGIN` directive.
    pub fn to_text(&self) -> String {
        let mut out = format!("$ORIGIN {}\n", self.origin);
        for record in self.iter() {
            out.push_str(&record.to_string());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::{RData, SoaRdata};

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample_zone() -> Zone {
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
        z
    }

    #[test]
    fn add_and_lookup() {
        let z = sample_zone();
        assert_eq!(z.len(), 3);
        let set = z.rrset(&name("www.example.com"), RrType::A).unwrap();
        assert_eq!(set.len(), 1);
        assert!(z.rrset(&name("www.example.com"), RrType::Aaaa).is_none());
        assert!(z.rrset(&name("other.example.com"), RrType::A).is_none());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let z = sample_zone();
        assert!(z.rrset(&name("WWW.EXAMPLE.COM"), RrType::A).is_some());
    }

    #[test]
    fn add_rejects_out_of_zone() {
        let mut z = sample_zone();
        let err = z.add(Record::new(
            name("example.org"),
            60,
            RData::A("192.0.2.1".parse().unwrap()),
        ));
        assert!(err.is_err());
    }

    #[test]
    fn duplicate_records_are_ignored() {
        let mut z = sample_zone();
        let rec = Record::new(
            name("www.example.com"),
            300,
            RData::A("192.0.2.10".parse().unwrap()),
        );
        z.add(rec).unwrap();
        assert_eq!(
            z.rrset(&name("www.example.com"), RrType::A).unwrap().len(),
            1
        );
    }

    #[test]
    fn remove_rrset_and_name() {
        let mut z = sample_zone();
        assert_eq!(z.remove_rrset(&name("www.example.com"), RrType::A), 1);
        assert_eq!(z.remove_rrset(&name("www.example.com"), RrType::A), 0);
        assert_eq!(z.remove_name(&name("example.com")), 2);
        assert!(z.is_empty());
    }

    /// In canonical order `b.example.com` sits between `b.a.example.com`
    /// and its own child `a.b.example.com`, with `b.c.example.com` after:
    /// neighbours that share its first label. Per-owner operations must
    /// touch exactly its own range.
    #[test]
    fn per_owner_operations_touch_only_that_owner() {
        let mut z = Zone::new(name("example.com"));
        let a = |owner: &str, last: u8| {
            Record::new(name(owner), 300, RData::A([192, 0, 2, last].into()))
        };
        for owner in [
            "b.a.example.com",
            "b.example.com",
            "a.b.example.com",
            "b.c.example.com",
        ] {
            z.add(a(owner, 1)).unwrap();
        }
        z.add(a("B.example.com", 2)).unwrap();
        z.add(Record::new(
            name("b.example.com"),
            300,
            RData::Txt(vec![b"x".to_vec()]),
        ))
        .unwrap();

        let at_b = z.records_at(&name("B.Example.com"));
        assert_eq!(at_b.len(), 3);
        assert!(at_b.iter().all(|r| r.name == name("b.example.com")));
        let types = z.types_at(&name("b.example.com"));
        assert_eq!(
            types.iter().collect::<Vec<_>>(),
            vec![RrType::A, RrType::Txt]
        );
        assert!(z.records_at(&name("c.example.com")).is_empty());

        assert_eq!(z.remove_name(&name("B.example.COM")), 3);
        assert_eq!(z.remove_name(&name("b.example.com")), 0);
        assert_eq!(
            z.owner_names(),
            vec![
                name("b.a.example.com"),
                name("a.b.example.com"),
                name("b.c.example.com")
            ]
        );
        // `b.example.com` holds no records any more but still has a child.
        assert!(z.name_exists(&name("b.example.com")));
        assert!(z.name_exists(&name("c.example.com")));
        assert!(!z.name_exists(&name("d.example.com")));
        assert!(!z.name_exists(&name("a.example.org")));
    }

    #[test]
    fn name_exists_includes_descendants() {
        let z = sample_zone();
        assert!(z.name_exists(&name("example.com")));
        assert!(z.name_exists(&name("www.example.com")));
        assert!(!z.name_exists(&name("nope.example.com")));
    }

    #[test]
    fn types_at_owner() {
        let z = sample_zone();
        let types = z.types_at(&name("example.com"));
        assert!(types.contains(RrType::Soa));
        assert!(types.contains(RrType::Ns));
        assert!(!types.contains(RrType::A));
    }

    #[test]
    fn find_delegation() {
        let mut tld = Zone::new(name("com"));
        tld.add(Record::new(
            name("example.com"),
            172800,
            RData::Ns(name("ns1.example-dns.net")),
        ))
        .unwrap();
        let (cut, set) = tld.find_delegation(&name("www.example.com")).unwrap();
        assert_eq!(cut, name("example.com"));
        assert_eq!(set.len(), 1);
        // Queries for the zone apex of the TLD itself find no delegation.
        assert!(tld.find_delegation(&name("com")).is_none());
        assert!(tld.find_delegation(&name("other.com")).is_none());
    }
}
