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
//!
//! A TLD zone is mostly delegations, and its tens of thousands of NS
//! RRsets name the same few hundred operator fleets. So the NS RRset at
//! a delegation point is kept as data, not as records: a *cut* holds its
//! TTL and host list, interned per zone, and each delegation's node
//! points at one. Its records are built only when something reads them;
//! every read returns exactly what records stored in the node would.

use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use crate::fnv::FnvHashMap;
use crate::name::Name;
use crate::rdata::RData;
use crate::record::{Record, RrSet};
use crate::rrtype::{RrClass, RrType, TypeBitmap};
use crate::WireError;

/// The NS type number, where a cut's RRset sits among a node's records.
const NS: u16 = 2;

/// A DNS zone: an origin name and the records at or below it.
///
/// Records are indexed by owner (see the module docs). Owner names are
/// stored in canonical (lowercase) form; the records keep their case.
/// Two zones are equal when they hold the same records, whichever way
/// each holds its delegations.
#[derive(Debug, Clone, Default)]
pub struct Zone {
    origin: Name,
    nodes: FnvHashMap<Name, Node>,
    cuts: CutTable,
}

/// One name's index entry.
///
/// `records` holds the owner's RRsets back to back in type-number order,
/// each in insertion order, at exactly their length. At a delegation
/// point whose NS RRset is uniform (see [`Cut`]), `cut` holds that RRset
/// instead and `records` only the rest (DS, RRSIG, NSEC, ...), so a TLD
/// delegation without DS stores no record at all. `below` counts the
/// owners strictly beneath this name, so a node holding nothing is an
/// empty non-terminal, and a node holding nothing with no owners below
/// is removed: a name exists exactly when it has a node.
#[derive(Debug, Clone, Default)]
struct Node {
    records: Box<[Record]>,
    cut: Option<Arc<Cut>>,
    below: u32,
}

/// A delegation point's NS RRset as data: one class-IN record per host,
/// in RRset order, each owned by the node's canonical (lowercase) name
/// with one TTL. An NS set that does not fit that shape — a mixed-case
/// owner, two TTLs, another class — stays records in its node.
///
/// Equality and hashing match spellings exactly, so interning never
/// changes how a host is written.
#[derive(Debug)]
struct Cut {
    ttl: u32,
    hosts: Box<[Name]>,
}

impl PartialEq for Cut {
    fn eq(&self, other: &Self) -> bool {
        self.ttl == other.ttl
            && (self.hosts.iter().map(Name::flat)).eq(other.hosts.iter().map(Name::flat))
    }
}

impl Eq for Cut {}

impl Hash for Cut {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.ttl);
        for host in self.hosts.iter() {
            state.write(host.flat());
        }
    }
}

impl Cut {
    /// The RRset's records, owned by `owner`.
    fn records<'a>(&'a self, owner: &'a Name) -> impl Iterator<Item = Record> + 'a {
        self.hosts
            .iter()
            .map(|host| Record::new(owner.clone(), self.ttl, RData::Ns(host.clone())))
    }

    /// Whether `record`, owned by this cut's name, equals one of its
    /// records (a duplicate the zone ignores).
    fn holds(&self, record: &Record) -> bool {
        record.class == RrClass::In
            && record.ttl == self.ttl
            && matches!(&record.rdata, RData::Ns(host) if self.hosts.contains(host))
    }
}

/// A zone's interned cuts: one shared [`Cut`] per distinct (TTL, host
/// list), however many delegations use it, with the number of this
/// zone's nodes holding it — a clone counts its own.
#[derive(Debug, Clone, Default)]
struct CutTable(FnvHashMap<Arc<Cut>, u32>);

impl CutTable {
    /// The shared copy of `cut`, interned on first use.
    fn intern(&mut self, cut: Cut) -> Arc<Cut> {
        if let Some((shared, users)) = self.0.get_key_value(&cut) {
            let shared = Arc::clone(shared);
            self.0.insert(Arc::clone(&shared), users + 1);
            return shared;
        }
        let shared = Arc::new(cut);
        self.0.insert(Arc::clone(&shared), 1);
        shared
    }

    /// Lets go of `cut`, which a node just dropped; forgets it when no
    /// node holds it any more.
    fn release(&mut self, cut: Arc<Cut>) {
        let users = self.0.get_mut(&*cut).expect("a held cut is interned");
        *users -= 1;
        if *users == 0 {
            self.0.remove(&*cut);
        }
    }
}

impl Node {
    /// True when the node holds no RRset (an empty non-terminal).
    fn is_vacant(&self) -> bool {
        self.records.is_empty() && self.cut.is_none()
    }

    /// The number of records the node holds, a cut's included.
    fn len(&self) -> usize {
        self.records.len() + self.cut.as_ref().map_or(0, |cut| cut.hosts.len())
    }

    /// Where the records of type number `rtype` sit in `records`.
    fn span(&self, rtype: u16) -> Range<usize> {
        let start = self.records.partition_point(|r| r.rtype().number() < rtype);
        let len = self.records[start..].partition_point(|r| r.rtype().number() == rtype);
        start..start + len
    }

    /// Whether this owner has an RRset of type number `rtype`.
    fn has(&self, rtype: u16) -> bool {
        (rtype == NS && self.cut.is_some()) || !self.span(rtype).is_empty()
    }

    /// The RRset of type number `rtype`, if this owner (`owner`, the
    /// node's key) has one: borrowed, or built from the cut.
    fn rrset<'a>(&'a self, owner: &Name, rtype: u16) -> Option<Cow<'a, [Record]>> {
        if let Some(cut) = self.cut.as_ref().filter(|_| rtype == NS) {
            return Some(Cow::Owned(cut.records(owner).collect()));
        }
        let span = self.span(rtype);
        (!span.is_empty()).then(|| Cow::Borrowed(&self.records[span]))
    }

    /// `records` split where a cut's NS RRset goes: the types below NS
    /// come before it, the rest after.
    fn around_cut(&self) -> (&[Record], &[Record]) {
        self.records
            .split_at(self.records.partition_point(|r| r.rtype().number() < NS))
    }

    /// This owner's records in type order, a cut's built in place.
    fn records<'a>(&'a self, owner: &'a Name) -> impl Iterator<Item = Cow<'a, Record>> {
        let (before, after) = self.around_cut();
        let cut = self.cut.iter().flat_map(move |cut| cut.records(owner));
        (before.iter().map(Cow::Borrowed))
            .chain(cut.map(Cow::Owned))
            .chain(after.iter().map(Cow::Borrowed))
    }

    /// This owner's RRsets in type order, a cut's built in place.
    fn rrsets<'a>(&'a self, owner: &'a Name) -> impl Iterator<Item = Cow<'a, [Record]>> {
        let sets = |records: &'a [Record]| {
            records
                .chunk_by(|a, b| a.rtype().number() == b.rtype().number())
                .map(Cow::Borrowed)
        };
        let (before, after) = self.around_cut();
        let cut = (self.cut.iter()).map(move |cut| Cow::Owned(cut.records(owner).collect()));
        sets(before).chain(cut).chain(sets(after))
    }

    /// The hosts this owner's NS RRset names, in its order.
    fn ns_hosts(&self) -> impl Iterator<Item = &Name> {
        let cut = self.cut.iter().flat_map(|cut| cut.hosts.iter());
        let records = self.records[self.span(NS)].iter();
        cut.chain(records.filter_map(|record| match &record.rdata {
            RData::Ns(host) => Some(host),
            _ => None,
        }))
    }

    /// Replaces `records[range]` with `with`, keeping exact length.
    fn splice(&mut self, range: Range<usize>, with: impl IntoIterator<Item = Record>) {
        let mut records = std::mem::take(&mut self.records).into_vec();
        records.splice(range, with);
        self.records = records.into_boxed_slice();
    }
}

impl PartialEq for Zone {
    fn eq(&self, other: &Self) -> bool {
        self.origin == other.origin
            && self.nodes.len() == other.nodes.len()
            && self.nodes.iter().all(|(owner, node)| {
                other.nodes.get(owner).is_some_and(|theirs| {
                    node.below == theirs.below && node.records(owner).eq(theirs.records(owner))
                })
            })
    }
}

impl Eq for Zone {}

impl Zone {
    /// An empty zone rooted at `origin`.
    pub fn new(origin: Name) -> Self {
        Zone {
            origin,
            ..Zone::default()
        }
    }

    /// The zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// The out-of-zone error for `name`.
    fn out_of_zone(&self, name: &Name) -> WireError {
        WireError::OutOfZone {
            name: name.to_string(),
            origin: self.origin.to_string(),
        }
    }

    /// Whether an NS record with this owner spelling and class is held
    /// as a cut: a canonically spelled class-IN owner strictly below the
    /// origin (`owner` is its canonical form).
    fn fits_cut(&self, spelled: &Name, owner: &Name, class: RrClass) -> bool {
        class == RrClass::In && spelled.flat() == owner.flat() && *owner != self.origin
    }

    /// Adds a record. Returns an error if the owner is outside the zone.
    /// Exact duplicates are ignored (DNS RRsets are sets).
    pub fn add(&mut self, record: Record) -> Result<(), WireError> {
        if !record.name.is_subdomain_of(&self.origin) {
            return Err(self.out_of_zone(&record.name));
        }
        let owner = record.name.to_canonical();
        let is_ns = record.rtype().number() == NS;
        // The host, when the record's shape fits a cut.
        let cut_host = match &record.rdata {
            RData::Ns(host) if self.fits_cut(&record.name, &owner, record.class) => Some(host),
            _ => None,
        };
        let node = self.nodes.entry(owner.clone()).or_default();
        let first = node.is_vacant();
        if let Some(cut) = node.cut.as_ref().filter(|_| is_ns) {
            if cut.holds(&record) {
                return Ok(());
            }
            if let Some(host) = cut_host.filter(|_| record.ttl == cut.ttl) {
                let hosts = cut.hosts.iter().chain([host]).cloned().collect();
                let grown = self.cuts.intern(Cut {
                    ttl: cut.ttl,
                    hosts,
                });
                let old = node.cut.replace(grown).expect("the node holds a cut");
                self.cuts.release(old);
                return Ok(());
            }
            // The set no longer fits a cut: its records move into the node.
            let cut = node.cut.take().expect("the node holds a cut");
            let at = node.around_cut().0.len();
            node.splice(at..at, cut.records(&owner));
            self.cuts.release(cut);
        } else if let Some(host) = cut_host.filter(|_| !node.has(NS)) {
            node.cut = Some(self.cuts.intern(Cut {
                ttl: record.ttl,
                hosts: Box::new([host.clone()]),
            }));
            if first {
                self.count_owner(&owner, true);
            }
            return Ok(());
        }
        let span = node.span(record.rtype().number());
        if node.records[span.clone()].contains(&record) {
            return Ok(());
        }
        node.splice(span.end..span.end, [record]);
        if first {
            self.count_owner(&owner, true);
        }
        Ok(())
    }

    /// Replaces the NS RRset at `owner` with one record per host, each
    /// with `ttl`: the zone `remove_rrset(owner, NS)` and then `add` of
    /// each record would leave, written as one cut when the set fits one.
    /// Returns an error if the owner is outside the zone.
    pub fn set_delegation(
        &mut self,
        owner: &Name,
        ttl: u32,
        hosts: &[Name],
    ) -> Result<(), WireError> {
        if !owner.is_subdomain_of(&self.origin) {
            return Err(self.out_of_zone(owner));
        }
        let canonical = owner.to_canonical();
        if hosts.is_empty() || !self.fits_cut(owner, &canonical, RrClass::In) {
            self.remove_rrset(owner, RrType::Ns);
            for host in hosts {
                self.add(Record::new(owner.clone(), ttl, RData::Ns(host.clone())))?;
            }
            return Ok(());
        }
        let mut unique: Vec<Name> = Vec::with_capacity(hosts.len());
        for host in hosts {
            if !unique.contains(host) {
                unique.push(host.clone());
            }
        }
        let cut = self.cuts.intern(Cut {
            ttl,
            hosts: unique.into(),
        });
        let node = self.nodes.entry(canonical.clone()).or_default();
        let first = node.is_vacant();
        let span = node.span(NS);
        if !span.is_empty() {
            node.splice(span, []);
        }
        let old = node.cut.replace(cut);
        if first {
            self.count_owner(&canonical, true);
        }
        if let Some(old) = old {
            self.cuts.release(old);
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
            if node.below == 0 && node.is_vacant() {
                self.nodes.remove(&name);
            }
        }
    }

    /// Drops everything `owner`, which holds something, holds, keeping
    /// its node only while owners below it still need it.
    fn vacate(&mut self, owner: &Name) {
        let node = self
            .nodes
            .get_mut(owner)
            .expect("a vacated owner has a node");
        let cut = node.cut.take();
        if node.below == 0 {
            self.nodes.remove(owner);
        } else {
            node.records = Box::default();
        }
        if let Some(cut) = cut {
            self.cuts.release(cut);
        }
        self.count_owner(owner, false);
    }

    /// Removes the whole RRset at (name, rtype); returns how many records
    /// were removed.
    pub fn remove_rrset(&mut self, name: &Name, rtype: RrType) -> usize {
        let Some(node) = self.nodes.get_mut(name) else {
            return 0;
        };
        let in_cut = rtype.number() == NS && node.cut.is_some();
        let span = node.span(rtype.number());
        let removed = if in_cut {
            node.len() - node.records.len()
        } else {
            span.len()
        };
        if removed > 0 && removed == node.len() {
            self.vacate(name);
        } else if in_cut {
            let cut = node.cut.take().expect("the node holds a cut");
            self.cuts.release(cut);
        } else if removed > 0 {
            node.splice(span, []);
        }
        removed
    }

    /// Removes every record owned by `name`, of any type.
    pub fn remove_name(&mut self, name: &Name) -> usize {
        let removed = self.nodes.get(name).map_or(0, Node::len);
        if removed > 0 {
            self.vacate(name);
        }
        removed
    }

    /// The RRset at (name, rtype), if any, as an owned [`RrSet`].
    pub fn rrset(&self, name: &Name, rtype: RrType) -> Option<RrSet> {
        self.rrset_records(name, rtype).map(|records| {
            RrSet::new(records.into_owned()).expect("zone index entries are valid RRsets")
        })
    }

    /// The records at (name, rtype), if any — the query hot path's
    /// lookup. Borrowed, except a delegation's NS RRset, which is built
    /// from its cut.
    pub fn rrset_records(&self, name: &Name, rtype: RrType) -> Option<Cow<'_, [Record]>> {
        let (owner, node) = self.nodes.get_key_value(name)?;
        node.rrset(owner, rtype.number())
    }

    /// The hosts named by the NS RRset at `name`, in its order (none
    /// when it has none), read off the cut or the records without
    /// building a record.
    pub fn ns_hosts(&self, name: &Name) -> impl Iterator<Item = &Name> {
        self.nodes.get(name).into_iter().flat_map(Node::ns_hosts)
    }

    /// All records at `name`, any type.
    pub fn records_at(&self, name: &Name) -> Vec<Record> {
        self.nodes
            .get_key_value(name)
            .map_or_else(Vec::new, |(owner, node)| {
                node.records(owner).map(Cow::into_owned).collect()
            })
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
            .filter(|(_, node)| !node.is_vacant())
            .collect();
        owners.sort_unstable_by(|(a, _), (b, _)| a.canonical_cmp(b));
        owners
    }

    /// Iterates every record in canonical owner order: borrowed, except
    /// the delegations' NS records, which are built from their cuts.
    pub fn iter(&self) -> impl Iterator<Item = Cow<'_, Record>> {
        self.sorted()
            .into_iter()
            .flat_map(|(owner, node)| node.records(owner))
    }

    /// Iterates every RRset in canonical owner order.
    pub fn rrsets(&self) -> impl Iterator<Item = RrSet> + '_ {
        self.sorted()
            .into_iter()
            .flat_map(|(owner, node)| node.rrsets(owner))
            .map(|records| {
                RrSet::new(records.into_owned()).expect("zone index entries are valid RRsets")
            })
    }

    /// Total record count.
    pub fn len(&self) -> usize {
        self.nodes.values().map(Node::len).sum()
    }

    /// True when the zone holds no records.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The number of delegations whose NS RRset is held as a cut, and
    /// the number of distinct (TTL, host list) cuts they share.
    pub fn cut_stats(&self) -> (usize, usize) {
        let cuts = self.nodes.values().filter(|node| node.cut.is_some());
        (cuts.count(), self.cuts.0.len())
    }

    /// The owners holding an RRset of `rtype`, in no particular order:
    /// for a one-pass search that needs no sort (negative answers pick
    /// their NSEC or NSEC3 owner this way).
    pub fn owners_with(&self, rtype: RrType) -> impl Iterator<Item = &Name> {
        self.nodes
            .iter()
            .filter(move |(_, node)| node.has(rtype.number()))
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
        let node = self.nodes.get(name);
        let records = node.into_iter().flat_map(|node| node.records.iter());
        let cut = node.filter(|node| node.cut.is_some()).map(|_| RrType::Ns);
        TypeBitmap::from_types(records.map(Record::rtype).chain(cut))
    }

    /// Finds the deepest delegation (an NS RRset strictly below the origin,
    /// at or above `qname`). Returns the cut owner, spelled as the index
    /// stores it, and its NS records. Probes with `qname`'s own labels, so
    /// nothing is lowercased or copied but the NS records a cut builds.
    pub fn find_delegation(&self, qname: &Name) -> Option<(Name, Cow<'_, [Record]>)> {
        let mut cut = qname.clone();
        while cut.is_strict_subdomain_of(&self.origin) {
            if let Some((owner, node)) = self.nodes.get_key_value(&cut) {
                if let Some(ns) = node.rrset(owner, NS) {
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

    /// A TLD's delegations share their NS fleets' host lists: 1,000 cuts
    /// over 3 fleets hold 3 interned lists, whether written whole or
    /// record by record, and clones and equality see records only.
    #[test]
    fn cuts_share_interned_host_lists() {
        let fleets: Vec<Vec<Name>> = [
            &["ns1.op.net", "ns2.op.net"][..],
            &["a.dns.example.org"],
            &["NS.Big.Net", "ns2.big.net", "ns3.big.net"],
        ]
        .iter()
        .map(|hosts| hosts.iter().map(|h| name(h)).collect())
        .collect();
        let cut = |i: usize| name(&format!("d{i}.com"));
        let mut whole = Zone::new(name("com"));
        let mut by_record = Zone::new(name("com"));
        for i in 0..1000 {
            let hosts = &fleets[i % 3];
            whole.set_delegation(&cut(i), 172_800, hosts).unwrap();
            for host in hosts {
                by_record
                    .add(Record::new(cut(i), 172_800, RData::Ns(host.clone())))
                    .unwrap();
            }
        }
        assert_eq!(whole.cut_stats(), (1000, 3));
        // Record by record, each cut passes through its fleet's prefixes.
        assert_eq!(by_record.cut_stats(), (1000, 3));
        assert_eq!(whole.len(), 334 * 2 + 333 + 333 * 3);
        assert_eq!(whole, by_record);
        let ns = whole.rrset(&name("D2.com"), RrType::Ns).unwrap();
        assert_eq!(
            ns.records()
                .iter()
                .map(Record::to_string)
                .collect::<Vec<_>>(),
            [
                "d2.com. 172800 IN NS NS.Big.Net.",
                "d2.com. 172800 IN NS ns2.big.net.",
                "d2.com. 172800 IN NS ns3.big.net."
            ]
        );

        // A host listed twice, in any spelling, is one record.
        let mut repeated = whole.clone();
        let twice = [name("ns1.op.net"), name("NS1.Op.Net"), name("ns2.op.net")];
        repeated.set_delegation(&cut(0), 172_800, &twice).unwrap();
        assert_eq!(repeated, whole);
        assert!(repeated.ns_hosts(&cut(0)).eq(&fleets[0]));

        // A clone is equal and edits apart from the original.
        let mut clone = whole.clone();
        assert_eq!(clone, whole);
        clone.set_delegation(&cut(0), 172_800, &fleets[1]).unwrap();
        assert_ne!(clone, whole);
        assert!(whole.ns_hosts(&cut(0)).eq(&fleets[0]));
        assert!(clone.ns_hosts(&cut(0)).eq(&fleets[1]));

        // The same records held in the node (a mixed-case owner) are the
        // same zone.
        let mut mixed = whole.clone();
        mixed.remove_rrset(&cut(0), RrType::Ns);
        for host in &fleets[0] {
            mixed
                .add(Record::new(
                    name("D0.com"),
                    172_800,
                    RData::Ns(host.clone()),
                ))
                .unwrap();
        }
        assert_eq!(mixed.cut_stats(), (999, 3));
        assert_eq!(mixed, whole);

        // A second TTL moves the set into the node, keeping its order.
        let mut two_ttls = whole.clone();
        two_ttls
            .add(Record::new(cut(1), 300, RData::Ns(name("x.op.net"))))
            .unwrap();
        assert_eq!(two_ttls.cut_stats(), (999, 3));
        assert_eq!(
            two_ttls
                .records_at(&cut(1))
                .iter()
                .map(|r| r.ttl)
                .collect::<Vec<_>>(),
            [172_800, 300]
        );

        // Lists nothing uses any more are forgotten.
        for i in 0..1000 {
            assert_eq!(whole.remove_name(&cut(i)), fleets[i % 3].len());
        }
        assert_eq!(whole.cut_stats(), (0, 0));
        assert!(whole.is_empty());
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
