//! Zone model: the set of RRsets a single organization serves, with a
//! master-file style text form (output only).
//!
//! The registry/registrar simulation manipulates zones through this type:
//! TLD registries hold delegation-only zones (NS + DS per child), and DNS
//! operators hold the customer zones that get signed.

use std::collections::BTreeMap;
use std::fmt;

use crate::name::Name;
use crate::record::{Record, RrSet};
use crate::rrtype::{RrType, TypeBitmap};
use crate::WireError;

/// A DNS zone: an origin name and the records at or below it.
///
/// Records are indexed by (owner, type); each index entry is a non-empty
/// record list forming one RRset. Owner names are stored in canonical
/// (lowercase) form for lookup purposes; the records keep their case.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Zone {
    origin: Name,
    records: BTreeMap<(Name, u16), Vec<Record>>,
}

impl Zone {
    /// An empty zone rooted at `origin`.
    pub fn new(origin: Name) -> Self {
        Zone {
            origin,
            records: BTreeMap::new(),
        }
    }

    /// The zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Index key for *insertion*: owners are stored in canonical form so
    /// iteration APIs hand out lowercase names.
    fn key(name: &Name, rtype: RrType) -> (Name, u16) {
        (name.to_canonical(), rtype.number())
    }

    /// Index key for *lookup*: `Name`'s `Ord`/`Eq` already fold ASCII
    /// case, so probing skips the per-label lowercase allocation that
    /// `to_canonical` pays.
    fn probe(name: &Name, rtype: RrType) -> (Name, u16) {
        (name.clone(), rtype.number())
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
        let entry = self
            .records
            .entry(Self::key(&record.name, record.rtype()))
            .or_default();
        if !entry.contains(&record) {
            entry.push(record);
        }
        Ok(())
    }

    /// Removes the whole RRset at (name, rtype); returns how many records
    /// were removed.
    pub fn remove_rrset(&mut self, name: &Name, rtype: RrType) -> usize {
        self.records
            .remove(&Self::probe(name, rtype))
            .map_or(0, |v| v.len())
    }

    /// The index entries owned by `name`, any type. The index orders by
    /// owner first, so they are one contiguous range: O(log n) to find,
    /// however large the zone.
    fn at(&self, name: &Name) -> impl Iterator<Item = (&(Name, u16), &Vec<Record>)> {
        self.records
            .range((name.clone(), 0)..=(name.clone(), u16::MAX))
    }

    /// Removes every record owned by `name`, of any type.
    pub fn remove_name(&mut self, name: &Name) -> usize {
        let keys: Vec<_> = self.at(name).map(|(key, _)| key.clone()).collect();
        keys.into_iter()
            .map(|k| self.records.remove(&k).map_or(0, |v| v.len()))
            .sum()
    }

    /// The RRset at (name, rtype), if any, as an owned [`RrSet`].
    pub fn rrset(&self, name: &Name, rtype: RrType) -> Option<RrSet> {
        self.records
            .get(&Self::probe(name, rtype))
            .map(|v| RrSet::new(v.clone()).expect("zone index entries are valid RRsets"))
    }

    /// The records at (name, rtype), if any, borrowed — the query hot
    /// path's lookup, which clones nothing.
    pub fn rrset_records(&self, name: &Name, rtype: RrType) -> Option<&[Record]> {
        self.records
            .get(&Self::probe(name, rtype))
            .map(Vec::as_slice)
    }

    /// All records at `name`, any type.
    pub fn records_at(&self, name: &Name) -> Vec<Record> {
        self.at(name).flat_map(|(_, v)| v.iter().cloned()).collect()
    }

    /// True if any record exists at `name` (of any type), or underneath it.
    pub fn name_exists(&self, name: &Name) -> bool {
        // In canonical order a name's descendants follow it directly, so
        // the first owner at or after `name` decides.
        self.records
            .range((name.clone(), 0)..)
            .next()
            .is_some_and(|((owner, _), _)| owner.is_subdomain_of(name))
    }

    /// Iterates every record in canonical owner order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records.values().flatten()
    }

    /// Iterates every RRset in canonical owner order.
    pub fn rrsets(&self) -> impl Iterator<Item = RrSet> + '_ {
        self.records
            .values()
            .map(|v| RrSet::new(v.clone()).expect("zone index entries are valid RRsets"))
    }

    /// Total record count.
    pub fn len(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    /// True when the zone holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All distinct owner names, canonical order.
    pub fn owner_names(&self) -> Vec<Name> {
        let mut names: Vec<Name> = self.records.keys().map(|(n, _)| n.clone()).collect();
        names.dedup();
        names
    }

    /// The types present at `name`, as an NSEC-style bitmap.
    pub fn types_at(&self, name: &Name) -> TypeBitmap {
        TypeBitmap::from_types(self.at(name).map(|(&(_, t), _)| RrType::from_number(t)))
    }

    /// Finds the deepest delegation (an NS RRset strictly below the origin,
    /// at or above `qname`). Returns the cut owner and its NS set.
    pub fn find_delegation(&self, qname: &Name) -> Option<(Name, RrSet)> {
        let mut cut = qname.to_canonical();
        loop {
            if !cut.is_strict_subdomain_of(&self.origin) {
                return None;
            }
            if let Some(set) = self.rrset(&cut, RrType::Ns) {
                return Some((cut, set));
            }
            cut = cut.parent()?;
        }
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
        assert_eq!(z.rrset(&name("www.example.com"), RrType::A).unwrap().len(), 1);
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
        for owner in ["b.a.example.com", "b.example.com", "a.b.example.com", "b.c.example.com"] {
            z.add(a(owner, 1)).unwrap();
        }
        z.add(a("B.example.com", 2)).unwrap();
        z.add(Record::new(name("b.example.com"), 300, RData::Txt(vec![b"x".to_vec()])))
            .unwrap();

        let at_b = z.records_at(&name("B.Example.com"));
        assert_eq!(at_b.len(), 3);
        assert!(at_b.iter().all(|r| r.name == name("b.example.com")));
        let types = z.types_at(&name("b.example.com"));
        assert_eq!(types.iter().collect::<Vec<_>>(), vec![RrType::A, RrType::Txt]);
        assert!(z.records_at(&name("c.example.com")).is_empty());

        assert_eq!(z.remove_name(&name("B.example.COM")), 3);
        assert_eq!(z.remove_name(&name("b.example.com")), 0);
        assert_eq!(
            z.owner_names(),
            vec![name("b.a.example.com"), name("a.b.example.com"), name("b.c.example.com")]
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
