//! Zone model: the set of RRsets a single organization serves, with a
//! master-file style text form (output only).
//!
//! The registry/registrar simulation manipulates zones through this type,
//! which comes in two kinds:
//!
//! * a **leaf** zone ([`Zone::new`]) — an operator's customer zone, the
//!   root, any hand-built zone — is a hash map from owner name to that
//!   owner's records: a point lookup is one FNV probe, however large the
//!   zone;
//! * a **registry** zone ([`Zone::registry`]) — a TLD — keeps its apex in
//!   the same map and each delegation as a *row*: the child's canonical
//!   name in a `names` column indexed by a `RowIndex`, the id of its
//!   interned NS set (its *cut*: one TTL and host list, shared by every
//!   delegation to the same fleet), and, only for a row that has one, its
//!   DS RRset with the RRSIGs over it. A row is added once
//!   ([`Zone::add_delegation`]) and never removed, so its number is a
//!   stable handle: the registry's own per-delegation columns
//!   (`ecosystem::DomainTable`) sit at the same rows, and the registry
//!   finds a delegation in its zone by the same one probe as a referral
//!   does.
//!
//! Both kinds answer every read the same way: [`Zone::owner`] and
//! [`Zone::find_delegation`] hand out an [`Owner`], one name's records,
//! found with one probe; a row's NS records are built from its cut when
//! read. Canonical (RFC 4034 §6.1) order is needed only by signing,
//! NSEC/NSEC3 chain building and the text form, and only the
//! enumerations they use ([`Zone::iter`], [`Zone::rrsets`],
//! [`Zone::owner_names`]) pay for it, by sorting the owners on demand. A
//! negative answer needs one NSEC or NSEC3 owner, not the order:
//! [`Zone::owners_with`] hands it the candidates unsorted.

use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::fnv::{FnvHashMap, FnvHasher};
use crate::name::Name;
use crate::rdata::RData;
use crate::record::{Record, RrSet};
use crate::rrtype::{RrType, TypeBitmap};
use crate::WireError;

/// The NS type number, where a cut's RRset sits among an owner's records.
const NS: u16 = 2;

/// A DNS zone: an origin name and the records at or below it.
///
/// Records are indexed by owner (see the module docs). Owner names are
/// stored in canonical (lowercase) form; the records keep their case.
/// Two zones are equal when they hold the same records, whichever kind
/// each is.
#[derive(Debug, Clone, Default)]
pub struct Zone {
    origin: Name,
    nodes: FnvHashMap<Name, Node>,
    /// The delegation rows of a registry zone; `None` for a leaf zone.
    rows: Option<Box<Rows>>,
}

/// One name's entry in the owner map.
///
/// `records` holds the owner's RRsets back to back in type-number order,
/// each in insertion order, at exactly their length. `below` counts the
/// owners strictly beneath this name, so a node holding nothing is an
/// empty non-terminal, and a node holding nothing with no owners below
/// is removed: a name exists exactly when it has a node.
#[derive(Debug, Clone, Default)]
struct Node {
    records: Box<[Record]>,
    below: u32,
}

/// A delegation's NS RRset as data: one class-IN record per host, in
/// RRset order, each owned by the row's canonical name with one TTL.
/// Equality matches spellings exactly, so interning never changes how a
/// host is written.
#[derive(Debug, Clone)]
struct Cut {
    ttl: u32,
    hosts: Box<[Name]>,
}

impl Cut {
    /// Whether this cut is `ttl` over exactly these spellings of `hosts`.
    fn is(&self, ttl: u32, hosts: &[Name]) -> bool {
        self.ttl == ttl && (self.hosts.iter().map(Name::flat)).eq(hosts.iter().map(Name::flat))
    }

    /// The RowIndex hash of a cut: its TTL and its hosts' exact octets.
    fn hash(ttl: u32, hosts: &[Name]) -> u64 {
        let mut hasher = FnvHasher::default();
        hasher.write_u32(ttl);
        for host in hosts {
            hasher.write(host.flat());
        }
        hasher.finish()
    }
}

/// A `key → row` index that stores rows only: an open-addressing array
/// of `u32` rows, [`EMPTY_SLOT`] where none sits. The caller keeps the
/// keys (row `r`'s key is its `r`-th entry somewhere) and supplies each
/// key's hash and the test of a row against the key asked for. The
/// capacity is a power of two, at most three quarters of the slots are
/// taken, and a collision probes the next slot. Rows are never removed,
/// so there are no tombstones.
///
/// A registry zone keeps two: child name → delegation row (by the name's
/// case-folding FNV hash, so every spelling finds the same row) and NS
/// set → cut id.
#[derive(Debug, Clone, Default)]
struct RowIndex {
    slots: Vec<u32>,
}

/// A [`RowIndex`] slot that holds no row.
const EMPTY_SLOT: u32 = u32::MAX;

impl RowIndex {
    /// The slots a fresh index starts with.
    const MIN_SLOTS: usize = 16;

    /// Where a key hashing to `hash` starts its probe in `slots` slots:
    /// the top bits of its hash, which FNV's multiply mixes best.
    fn home(hash: u64, slots: usize) -> usize {
        (hash >> (64 - slots.trailing_zeros())) as usize
    }

    /// The row whose key hashes to `hash` and passes `is`.
    fn get(&self, hash: u64, is: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = Self::home(hash, self.slots.len());
        loop {
            let row = self.slots[slot];
            if row == EMPTY_SLOT {
                return None;
            }
            if is(row) {
                return Some(row);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Indexes `row`, whose key is in no other row, when rows `0..row`
    /// are indexed already: doubles the slots first (re-placing every
    /// row by `hash_of`) when it would fill more than three quarters.
    fn insert(&mut self, row: u32, hash_of: impl Fn(u32) -> u64) {
        if (row as usize + 1) * 4 > self.slots.len() * 3 {
            let slots = (self.slots.len() * 2).max(Self::MIN_SLOTS);
            self.slots = vec![EMPTY_SLOT; slots];
            for old in 0..row {
                self.place(old, hash_of(old));
            }
        }
        self.place(row, hash_of(row));
    }

    /// Puts `row` in the first free slot of its probe sequence.
    fn place(&mut self, row: u32, hash: u64) {
        let mask = self.slots.len() - 1;
        let mut slot = Self::home(hash, self.slots.len());
        while self.slots[slot] != EMPTY_SLOT {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = row;
    }
}

/// The FNV hash of `name` under its case-folding `Hash`.
fn name_hash(name: &Name) -> u64 {
    let mut hasher = FnvHasher::default();
    name.hash(&mut hasher);
    hasher.finish()
}

/// Appends `value`, growing `column` by an eighth when it is full rather
/// than doubling it: a registry's row columns reach millions of rows, and
/// a doubled column can hold as much unused capacity as rows.
fn push_row<T>(column: &mut Vec<T>, value: T) {
    if column.len() == column.capacity() {
        column.reserve_exact((column.len() / 8).max(RowIndex::MIN_SLOTS));
    }
    column.push(value);
}

/// A registry zone's delegations, one row each (see the module docs).
#[derive(Debug, Clone, Default)]
struct Rows {
    /// Row → the child's canonical name.
    names: Vec<Name>,
    /// Child name → row, over `names`.
    index: RowIndex,
    /// Row → its cut's id in `cuts`.
    cut: Vec<u32>,
    /// Interned cuts by id. A list no row uses any more stays: NS sets
    /// name a few hundred fleets, and NS moves go between them (`.com`
    /// at 1:20 holds 449 cuts after its build and after a 21-month
    /// campaign).
    cuts: Vec<Cut>,
    /// NS set → cut id, over `cuts`.
    cut_index: RowIndex,
    /// Row → its DS RRset and the RRSIGs over it, for rows with a DS.
    signed: FnvHashMap<u32, Box<[Record]>>,
}

impl Rows {
    fn row_of(&self, name: &Name) -> Option<u32> {
        self.index
            .get(name_hash(name), |row| self.names[row as usize] == *name)
    }

    /// The id of the cut `ttl` over `hosts` (each host once, first
    /// spelling kept), interned on first use.
    fn intern(&mut self, ttl: u32, hosts: &[Name]) -> u32 {
        let mut unique: Vec<Name> = Vec::with_capacity(hosts.len());
        for host in hosts {
            if !unique.contains(host) {
                unique.push(host.clone());
            }
        }
        let hash = Cut::hash(ttl, &unique);
        let cuts = &self.cuts;
        if let Some(id) = self
            .cut_index
            .get(hash, |id| cuts[id as usize].is(ttl, &unique))
        {
            return id;
        }
        let id = self.cuts.len() as u32;
        self.cuts.push(Cut {
            ttl,
            hosts: unique.into(),
        });
        let cuts = &self.cuts;
        self.cut_index.insert(id, |id| {
            Cut::hash(cuts[id as usize].ttl, &cuts[id as usize].hosts)
        });
        id
    }

    /// Row `row`'s records.
    fn owner(&self, row: u32) -> Owner<'_> {
        Owner {
            name: &self.names[row as usize],
            cut: Some(&self.cuts[self.cut[row as usize] as usize]),
            records: self.signed.get(&row).map_or(&[], |records| records),
        }
    }

    /// Every row's records, in row order.
    fn owners(&self) -> impl Iterator<Item = Owner<'_>> {
        (0..self.names.len() as u32).map(|row| self.owner(row))
    }

    /// The rows holding an RRset of type number `rtype`: every row for
    /// NS, the signed rows for the rest.
    fn owners_with(&self, rtype: u16) -> impl Iterator<Item = &Name> {
        let all = (rtype == NS)
            .then_some(&self.names[..])
            .into_iter()
            .flatten();
        let signed = self
            .signed
            .iter()
            .filter(move |(_, records)| rtype != NS && !span(records, rtype).is_empty())
            .map(|(&row, _)| &self.names[row as usize]);
        all.chain(signed)
    }
}

/// Where the records of type number `rtype` sit in `records`, which are
/// in type order.
fn span(records: &[Record], rtype: u16) -> Range<usize> {
    let start = records.partition_point(|r| r.rtype().number() < rtype);
    let len = records[start..].partition_point(|r| r.rtype().number() == rtype);
    start..start + len
}

/// The records one owner name holds, found with one probe
/// ([`Zone::owner`], [`Zone::find_delegation`]): records borrowed in type
/// order, and a delegation row's NS RRset built from its cut when read.
/// An empty non-terminal is an owner with no records.
#[derive(Debug, Clone, Copy)]
pub struct Owner<'a> {
    name: &'a Name,
    /// A delegation row's NS set; its type sorts before every record's.
    cut: Option<&'a Cut>,
    records: &'a [Record],
}

impl<'a> Owner<'a> {
    /// The owner name, canonical (lowercase).
    pub fn name(&self) -> &'a Name {
        self.name
    }

    /// Whether this owner has an RRset of type number `rtype`.
    fn has(&self, rtype: u16) -> bool {
        (rtype == NS && self.cut.is_some()) || !span(self.records, rtype).is_empty()
    }

    /// The RRset of `rtype`, if this owner has one: borrowed, or built
    /// from a row's cut.
    pub fn rrset(&self, rtype: RrType) -> Option<Cow<'a, [Record]>> {
        let rtype = rtype.number();
        if let Some(cut) = self.cut.filter(|_| rtype == NS) {
            return Some(Cow::Owned(cut_records(self.name, cut).collect()));
        }
        let span = span(self.records, rtype);
        (!span.is_empty()).then(|| Cow::Borrowed(&self.records[span]))
    }

    /// The hosts this owner's NS RRset names, in its order (none when it
    /// has none), without building a record.
    pub fn ns_hosts(&self) -> impl Iterator<Item = &'a Name> {
        let cut = self.cut.into_iter().flat_map(|cut| cut.hosts.iter());
        let records = self.records[span(self.records, NS)].iter();
        cut.chain(records.filter_map(|record| match &record.rdata {
            RData::Ns(host) => Some(host),
            _ => None,
        }))
    }

    /// This owner's records in type order.
    pub fn records(&self) -> impl Iterator<Item = Cow<'a, Record>> {
        let owner = self.name;
        let cut = (self.cut.into_iter()).flat_map(move |cut| cut_records(owner, cut));
        cut.map(Cow::Owned)
            .chain(self.records.iter().map(Cow::Borrowed))
    }

    /// This owner's RRsets in type order.
    fn rrsets(&self) -> impl Iterator<Item = Cow<'a, [Record]>> {
        let owner = self.name;
        let cut =
            (self.cut.into_iter()).map(move |cut| Cow::Owned(cut_records(owner, cut).collect()));
        let sets = (self.records)
            .chunk_by(|a, b| a.rtype().number() == b.rtype().number())
            .map(Cow::Borrowed);
        cut.chain(sets)
    }

    /// The number of records, a cut's included.
    fn len(&self) -> usize {
        self.records.len() + self.cut.map_or(0, |cut| cut.hosts.len())
    }

    /// The types present, as an NSEC-style bitmap.
    pub fn types(&self) -> TypeBitmap {
        let cut = self.cut.map(|_| RrType::Ns);
        TypeBitmap::from_types(
            cut.into_iter()
                .chain(self.records.iter().map(Record::rtype)),
        )
    }
}

/// The NS records of `cut`, owned by `owner`.
fn cut_records<'a>(owner: &'a Name, cut: &'a Cut) -> impl Iterator<Item = Record> + 'a {
    (cut.hosts.iter()).map(move |host| Record::new(owner.clone(), cut.ttl, RData::Ns(host.clone())))
}

impl Node {
    /// This node's records, owned by `name` (its key).
    fn owner<'a>(&'a self, name: &'a Name) -> Owner<'a> {
        Owner {
            name,
            cut: None,
            records: &self.records,
        }
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
        self.origin == other.origin && self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Zone {}

impl Zone {
    /// An empty leaf zone rooted at `origin`.
    pub fn new(origin: Name) -> Self {
        Zone {
            origin,
            ..Zone::default()
        }
    }

    /// An empty registry zone rooted at `origin`: records at its apex,
    /// and one row per delegation ([`Zone::add_delegation`]).
    pub fn registry(origin: Name) -> Self {
        Zone {
            origin,
            rows: Some(Box::default()),
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

    /// The error for a write a registry zone keeps to its rows.
    fn not_a_row(&self, name: &Name) -> WireError {
        WireError::RegistryRow {
            name: name.to_string(),
            origin: self.origin.to_string(),
        }
    }

    /// Whether `name` has the depth of a registry zone's delegations:
    /// one label below the origin.
    fn at_row_depth(&self, name: &Name) -> bool {
        name.label_count() == self.origin.label_count() + 1
    }

    /// Adds a record. Returns an error if the owner is outside the zone,
    /// or, in a registry zone, below the apex (delegations are rows).
    /// Exact duplicates are ignored (DNS RRsets are sets).
    pub fn add(&mut self, record: Record) -> Result<(), WireError> {
        if !record.name.is_subdomain_of(&self.origin) {
            return Err(self.out_of_zone(&record.name));
        }
        if self.rows.is_some() && record.name != self.origin {
            return Err(self.not_a_row(&record.name));
        }
        let owner = record.name.to_canonical();
        let node = self.nodes.entry(owner.clone()).or_default();
        let first = node.records.is_empty();
        let span = span(&node.records, record.rtype().number());
        if node.records[span.clone()].contains(&record) {
            return Ok(());
        }
        node.splice(span.end..span.end, [record]);
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

    /// Drops everything `owner`, which holds something, holds, keeping
    /// its node only while owners below it still need it.
    fn vacate(&mut self, owner: &Name) {
        let node = self
            .nodes
            .get_mut(owner)
            .expect("a vacated owner has a node");
        if node.below == 0 {
            self.nodes.remove(owner);
        } else {
            node.records = Box::default();
        }
        self.count_owner(owner, false);
    }

    /// Removes the whole RRset at (name, rtype); returns how many records
    /// were removed. A registry zone's rows are never removed: this
    /// removes nothing from one.
    pub fn remove_rrset(&mut self, name: &Name, rtype: RrType) -> usize {
        let Some(node) = self.nodes.get_mut(name) else {
            return 0;
        };
        let span = span(&node.records, rtype.number());
        let removed = span.len();
        if removed > 0 && removed == node.records.len() {
            self.vacate(name);
        } else if removed > 0 {
            node.splice(span, []);
        }
        removed
    }

    /// Removes every record owned by `name`, of any type (none of a
    /// registry zone's rows).
    pub fn remove_name(&mut self, name: &Name) -> usize {
        let removed = self.nodes.get(name).map_or(0, |node| node.records.len());
        if removed > 0 {
            self.vacate(name);
        }
        removed
    }

    // ------------------------------------------------ registry rows --

    /// The rows of a registry zone.
    ///
    /// # Panics
    ///
    /// On a leaf zone.
    fn rows_mut(&mut self) -> &mut Rows {
        self.rows.as_deref_mut().expect("a registry zone")
    }

    /// Delegates `child`, a child of the origin that has no row yet, to
    /// `hosts` (each listed once, in their order) with `ttl`: a new row,
    /// numbered one past the last. Returns an error on a leaf zone, for
    /// any other name, or without a host.
    pub fn add_delegation(
        &mut self,
        child: &Name,
        ttl: u32,
        hosts: &[Name],
    ) -> Result<u32, WireError> {
        let is_new_child = child.parent().as_ref() == Some(&self.origin)
            && self
                .rows
                .as_ref()
                .is_some_and(|rows| rows.row_of(child).is_none());
        if !is_new_child || hosts.is_empty() {
            return Err(self.not_a_row(child));
        }
        let rows = self.rows_mut();
        let row = rows.names.len() as u32;
        let cut = rows.intern(ttl, hosts);
        push_row(&mut rows.names, child.to_canonical());
        push_row(&mut rows.cut, cut);
        let names = &rows.names;
        rows.index
            .insert(row, |row| name_hash(&names[row as usize]));
        Ok(row)
    }

    /// Replaces delegation `row`'s NS RRset with one record per host
    /// (each once, in their order), each with `ttl`.
    ///
    /// # Panics
    ///
    /// On a leaf zone, a row past the last, or no host.
    pub fn set_ns_at(&mut self, row: u32, ttl: u32, hosts: &[Name]) {
        assert!(!hosts.is_empty(), "a delegation needs a nameserver");
        let rows = self.rows_mut();
        let cut = rows.intern(ttl, hosts);
        rows.cut[row as usize] = cut;
    }

    /// Replaces delegation `row`'s DS RRset and the RRSIGs over it with
    /// `records` (DS and RRSIG records owned by the row's name; none
    /// removes both).
    ///
    /// # Panics
    ///
    /// On a leaf zone, a row past the last, or a record of another type.
    pub fn set_ds_at(&mut self, row: u32, mut records: Vec<Record>) {
        assert!(
            (records.iter()).all(|r| matches!(r.rtype(), RrType::Ds | RrType::Rrsig)),
            "a delegation row holds DS and RRSIG records"
        );
        let rows = self.rows_mut();
        assert!(
            (row as usize) < rows.names.len(),
            "row {row} is not delegated"
        );
        if records.is_empty() {
            rows.signed.remove(&row);
        } else {
            records.sort_by_key(|r| r.rtype().number());
            rows.signed.insert(row, records.into_boxed_slice());
        }
    }

    /// The delegation row `name` has, under any spelling; `None` in a
    /// leaf zone.
    pub fn row_of(&self, name: &Name) -> Option<u32> {
        self.rows.as_ref()?.row_of(name)
    }

    /// The names of a registry zone's delegations, indexed by row (empty
    /// for a leaf zone).
    pub fn delegation_names(&self) -> &[Name] {
        self.rows.as_ref().map_or(&[], |rows| &rows.names)
    }

    /// Delegation `row`'s records.
    ///
    /// # Panics
    ///
    /// On a leaf zone or a row past the last.
    pub fn delegation(&self, row: u32) -> Owner<'_> {
        self.rows.as_ref().expect("a registry zone").owner(row)
    }

    /// The number of delegation rows and of the distinct (TTL, host list)
    /// cuts they were interned as (both 0 for a leaf zone).
    pub fn cut_stats(&self) -> (usize, usize) {
        self.rows
            .as_ref()
            .map_or((0, 0), |rows| (rows.names.len(), rows.cuts.len()))
    }

    // ----------------------------------------------------------- reads --

    /// The records at `name`, found with one probe: a delegation row's in
    /// a registry zone, the owner map's otherwise. `None` when `name` has
    /// nothing there and nothing below it.
    pub fn owner(&self, name: &Name) -> Option<Owner<'_>> {
        if let Some(rows) = self.rows.as_ref().filter(|_| self.at_row_depth(name)) {
            return rows.row_of(name).map(|row| rows.owner(row));
        }
        let (owner, node) = self.nodes.get_key_value(name)?;
        Some(node.owner(owner))
    }

    /// The RRset at (name, rtype), if any, as an owned [`RrSet`].
    pub fn rrset(&self, name: &Name, rtype: RrType) -> Option<RrSet> {
        self.rrset_records(name, rtype).map(|records| {
            RrSet::new(records.into_owned()).expect("zone index entries are valid RRsets")
        })
    }

    /// The records at (name, rtype), if any. Borrowed, except a
    /// delegation row's NS RRset, which is built from its cut.
    pub fn rrset_records(&self, name: &Name, rtype: RrType) -> Option<Cow<'_, [Record]>> {
        self.owner(name)?.rrset(rtype)
    }

    /// The hosts named by the NS RRset at `name`, in its order (none
    /// when it has none), read without building a record.
    pub fn ns_hosts(&self, name: &Name) -> impl Iterator<Item = &Name> {
        self.owner(name)
            .into_iter()
            .flat_map(|owner| owner.ns_hosts())
    }

    /// All records at `name`, any type.
    pub fn records_at(&self, name: &Name) -> Vec<Record> {
        self.owner(name).map_or_else(Vec::new, |owner| {
            owner.records().map(Cow::into_owned).collect()
        })
    }

    /// True if any record exists at `name` (of any type), or underneath it.
    pub fn name_exists(&self, name: &Name) -> bool {
        // Every name above the origin has the whole zone underneath it.
        self.owner(name).is_some() || (!self.is_empty() && self.origin.is_strict_subdomain_of(name))
    }

    /// Every owner holding records, unsorted: the owner map's, then the
    /// rows'.
    fn owners(&self) -> impl Iterator<Item = Owner<'_>> {
        let nodes = (self.nodes.iter())
            .filter(|(_, node)| !node.records.is_empty())
            .map(|(owner, node)| node.owner(owner));
        nodes.chain(self.rows.iter().flat_map(|rows| rows.owners()))
    }

    /// The owners holding records, in canonical order.
    fn sorted(&self) -> Vec<Owner<'_>> {
        let mut owners: Vec<Owner<'_>> = self.owners().collect();
        owners.sort_unstable_by(|a, b| a.name.canonical_cmp(b.name));
        owners
    }

    /// Iterates every record in canonical owner order: borrowed, except
    /// the delegation rows' NS records, which are built from their cuts.
    pub fn iter(&self) -> impl Iterator<Item = Cow<'_, Record>> {
        self.sorted().into_iter().flat_map(|owner| owner.records())
    }

    /// Iterates every RRset in canonical owner order.
    pub fn rrsets(&self) -> impl Iterator<Item = RrSet> + '_ {
        self.sorted()
            .into_iter()
            .flat_map(|owner| owner.rrsets())
            .map(|records| {
                RrSet::new(records.into_owned()).expect("zone index entries are valid RRsets")
            })
    }

    /// Total record count.
    pub fn len(&self) -> usize {
        self.owners().map(|owner| owner.len()).sum()
    }

    /// True when the zone holds no records.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.delegation_names().is_empty()
    }

    /// The owners holding an RRset of `rtype`, in no particular order:
    /// for a one-pass search that needs no sort (negative answers pick
    /// their NSEC or NSEC3 owner this way).
    pub fn owners_with(&self, rtype: RrType) -> impl Iterator<Item = &Name> {
        let rtype = rtype.number();
        let nodes = (self.nodes.iter())
            .filter(move |(owner, node)| node.owner(owner).has(rtype))
            .map(|(owner, _)| owner);
        nodes.chain(
            self.rows
                .iter()
                .flat_map(move |rows| rows.owners_with(rtype)),
        )
    }

    /// All distinct owner names, canonical order.
    pub fn owner_names(&self) -> Vec<Name> {
        self.sorted()
            .into_iter()
            .map(|owner| owner.name.clone())
            .collect()
    }

    /// The types present at `name`, as an NSEC-style bitmap.
    pub fn types_at(&self, name: &Name) -> TypeBitmap {
        self.owner(name)
            .map_or_else(|| TypeBitmap::from_types([]), |owner| owner.types())
    }

    /// Finds the deepest delegation (an NS RRset strictly below the origin,
    /// at or above `qname`): the cut's owner, spelled as the zone stores
    /// it. A registry zone's is the row of `qname`'s ancestor one label
    /// below the origin, found with one probe; a leaf zone probes
    /// `qname`'s own labels upwards, copying nothing.
    pub fn find_delegation(&self, qname: &Name) -> Option<Owner<'_>> {
        if !qname.is_strict_subdomain_of(&self.origin) {
            return None;
        }
        if let Some(rows) = &self.rows {
            let child = qname.trim_to(self.origin.label_count() + 1);
            return rows.row_of(&child).map(|row| rows.owner(row));
        }
        let mut cut = qname.clone();
        while cut.is_strict_subdomain_of(&self.origin) {
            if let Some((owner, node)) = self.nodes.get_key_value(&cut) {
                let owner = node.owner(owner);
                if owner.has(NS) {
                    return Some(owner);
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
    use crate::rdata::{DsRdata, RData, SoaRdata};

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

    /// A TLD's delegations share their NS fleets' host lists: 1,000 rows
    /// over 3 fleets hold 3 interned lists, and clones and equality see
    /// records only — a registry zone equals the leaf zone holding the
    /// same records.
    #[test]
    fn delegation_rows_share_interned_host_lists() {
        let fleets: Vec<Vec<Name>> = [
            &["ns1.op.net", "ns2.op.net"][..],
            &["a.dns.example.org"],
            &["NS.Big.Net", "ns2.big.net", "ns3.big.net"],
        ]
        .iter()
        .map(|hosts| hosts.iter().map(|h| name(h)).collect())
        .collect();
        let cut = |i: usize| name(&format!("d{i}.com"));
        let mut rows = Zone::registry(name("com"));
        let mut leaf = Zone::new(name("com"));
        for i in 0..1000 {
            let hosts = &fleets[i % 3];
            assert_eq!(rows.add_delegation(&cut(i), 172_800, hosts), Ok(i as u32));
            for host in hosts {
                leaf.add(Record::new(cut(i), 172_800, RData::Ns(host.clone())))
                    .unwrap();
            }
        }
        assert_eq!(rows.cut_stats(), (1000, 3));
        assert_eq!(leaf.cut_stats(), (0, 0));
        assert_eq!(rows.len(), 334 * 2 + 333 + 333 * 3);
        assert_eq!(rows, leaf);
        assert_eq!(rows.to_text(), leaf.to_text());
        assert_eq!(rows.row_of(&name("D2.COM")), Some(2));
        let ns = rows.rrset(&name("D2.com"), RrType::Ns).unwrap();
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
        let mut repeated = rows.clone();
        let twice = [name("ns1.op.net"), name("NS1.Op.Net"), name("ns2.op.net")];
        repeated.set_ns_at(0, 172_800, &twice);
        assert_eq!(repeated, rows);
        assert_eq!(repeated.cut_stats(), (1000, 3));
        assert!(repeated.ns_hosts(&cut(0)).eq(&fleets[0]));

        // A clone is equal and edits apart from the original.
        let mut clone = rows.clone();
        clone.set_ns_at(0, 172_800, &fleets[1]);
        assert_ne!(clone, rows);
        assert!(rows.ns_hosts(&cut(0)).eq(&fleets[0]));
        assert!(clone.ns_hosts(&cut(0)).eq(&fleets[1]));

        // A second TTL or another spelling is another list.
        clone.set_ns_at(1, 300, &fleets[1]);
        clone.set_ns_at(2, 172_800, &[name("NS1.op.net"), name("ns2.op.net")]);
        assert_eq!(clone.cut_stats(), (1000, 5));

        // A DS RRset with its RRSIG rides on the row, after the NS set.
        let ds = Record::new(
            cut(4),
            86_400,
            RData::Ds(DsRdata {
                key_tag: 1,
                algorithm: 8,
                digest_type: 2,
                digest: vec![7; 32],
            }),
        );
        rows.set_ds_at(4, vec![ds.clone()]);
        leaf.add(ds).unwrap();
        assert_eq!(rows, leaf);
        assert_eq!(
            rows.types_at(&cut(4)).iter().collect::<Vec<_>>(),
            [RrType::Ns, RrType::Ds]
        );
        assert_eq!(rows.owners_with(RrType::Ds).collect::<Vec<_>>(), [&cut(4)]);
        rows.set_ds_at(4, Vec::new());
        assert!(rows.rrset(&cut(4), RrType::Ds).is_none());
    }

    #[test]
    fn a_registry_zone_writes_below_its_apex_only_as_rows() {
        let mut z = Zone::registry(name("com"));
        let ns = |owner: &str| Record::new(name(owner), 3600, RData::Ns(name("a.gtld.net")));
        z.add(ns("com")).unwrap();
        let hosts = [name("ns1.op.net")];
        assert_eq!(z.add_delegation(&name("x.com"), 60, &hosts), Ok(0));
        for refused in ["y.com", "www.x.com"] {
            assert!(z.add(ns(refused)).is_err(), "{refused}");
        }
        for refused in ["x.com", "X.COM", "com", "a.b.com", "x.org"] {
            assert!(
                z.add_delegation(&name(refused), 60, &hosts).is_err(),
                "{refused}"
            );
        }
        assert!(z.add_delegation(&name("y.com"), 60, &[]).is_err());
        assert!(Zone::new(name("com"))
            .add_delegation(&name("x.com"), 60, &hosts)
            .is_err());
        assert_eq!(z.remove_name(&name("x.com")), 0, "rows stay");
        assert_eq!(z.len(), 2);
    }

    /// Three spellings of one name: lower case, upper case, and
    /// alternating case.
    fn spellings(s: &str) -> [Name; 3] {
        let alternating: String = (s.chars().enumerate())
            .map(|(i, c)| match i % 2 {
                0 => c.to_ascii_uppercase(),
                _ => c.to_ascii_lowercase(),
            })
            .collect();
        [
            name(&s.to_ascii_lowercase()),
            name(&s.to_ascii_uppercase()),
            name(&alternating),
        ]
    }

    #[test]
    fn the_row_index_agrees_with_a_map_under_every_spelling() {
        use crate::fnv::draw;
        use std::collections::BTreeMap;
        // Names like the population's: long shared registrar-slug
        // prefixes, mixed case, enough to double the slots many times.
        let slugs = [
            "GoDaddy-com",
            "godaddy-com-premium",
            "OVH-nl",
            "ovh-nl-reseller",
        ];
        let hosts = [name("ns1.op.net")];
        let mut z = Zone::registry(name("com"));
        let mut model: BTreeMap<String, u32> = BTreeMap::new();
        let mut grown_at = Vec::new();
        let slots = |z: &Zone| z.rows.as_ref().unwrap().index.slots.len();
        for i in 0..8_000u64 {
            let slug = slugs[(draw(7, i) % slugs.len() as u64) as usize];
            let n = draw(11, i) % 4_000;
            let label = if draw(13, i).is_multiple_of(2) {
                format!("{slug}-{n}.com")
            } else {
                format!("{}-{n}.COM", slug.to_ascii_lowercase())
            };
            let before = slots(&z);
            let row = (z.row_of(&name(&label)))
                .unwrap_or_else(|| z.add_delegation(&name(&label), 60, &hosts).unwrap());
            if slots(&z) != before {
                grown_at.push(z.delegation_names().len());
            }
            let expected = model.len() as u32;
            let modelled = *model.entry(label.to_ascii_lowercase()).or_insert(expected);
            assert_eq!(row, modelled, "{label}");
        }
        let rows = z.delegation_names().len();
        assert_eq!(rows, model.len());
        assert!(model.len() >= 5_000, "{} distinct names", model.len());
        assert!(grown_at.len() >= 5, "grew at {grown_at:?}");
        assert!(
            rows * 4 <= slots(&z) * 3,
            "at most 3/4 of the slots are taken"
        );
        for (key, &row) in &model {
            for spelling in spellings(key) {
                assert_eq!(z.row_of(&spelling), Some(row), "{spelling}");
            }
            assert_eq!(
                z.delegation(row).name().to_string(),
                format!("{key}."),
                "stored lower-cased"
            );
        }
        // Misses: an unseen number, a prefix of a stored name, and a
        // stored label under another TLD.
        for miss in [
            "godaddy-com-4000.com",
            "godaddy-com.com",
            "GoDaddy-com-1.net",
            "ovh-nl-reseller-.com",
        ] {
            for spelling in spellings(miss) {
                assert_eq!(z.row_of(&spelling), None, "{spelling}");
            }
        }
    }

    #[test]
    fn find_delegation() {
        let mut leaf = Zone::new(name("com"));
        leaf.add(Record::new(
            name("example.com"),
            172800,
            RData::Ns(name("ns1.example-dns.net")),
        ))
        .unwrap();
        let mut rows = Zone::registry(name("com"));
        rows.add_delegation(&name("example.com"), 172800, &[name("ns1.example-dns.net")])
            .unwrap();
        for tld in [&leaf, &rows] {
            let cut = tld.find_delegation(&name("www.Example.com")).unwrap();
            assert_eq!(cut.name(), &name("example.com"));
            assert_eq!(cut.rrset(RrType::Ns).unwrap().len(), 1);
            // Queries for the zone apex of the TLD itself find no delegation.
            assert!(tld.find_delegation(&name("com")).is_none());
            assert!(tld.find_delegation(&name("other.com")).is_none());
        }
    }
}
