//! Columnar, row-indexed per-domain state.
//!
//! The registration universe is write-once-read-often: a population build
//! inserts millions of domains, then campaigns sweep them every snapshot.
//! Keying that state on heap-allocated [`Name`]s means every probe hashes
//! (or compares) label bytes and every enumeration walks a pointer-chasing
//! `BTreeMap`. At 1:20 scale (~8M domains) that dominates the scan.
//!
//! [`DomainTable`] and [`DomainStore`] replace those maps with a
//! struct-of-arrays layout:
//!
//! * per-domain attributes live in dense, row-indexed columns (sponsor
//!   [`RegistrarId`], change generation, liveness and DNS operator for
//!   the registry table;
//!   the [`Domain`] payload row — hosting, DNSSEC keys,
//!   expiry — for the world store);
//! * a `Name → row` FNV map is the only hash probe left on the edge
//!   (case-folding, like every `Name`-keyed map);
//! * canonical (RFC 4034) enumeration order — which the scanner and the
//!   zone files require — is a lazily rebuilt sorted row index in a
//!   `RefCell`, so reads stay `&self` and an unchanged population sorts
//!   exactly once. A world is read on one thread, so the tables are not
//!   `Sync`.
//!
//! Rows are never reused: a removed delegation keeps its row (and its
//! generation column, which must survive re-registration so stale scan
//! cache entries can never collide) and is simply marked dead. The row id
//! is therefore a stable per-table handle that the scanner uses as a cache
//! key in place of the name.
//!
//! The table also keeps a bounded **change journal**: every
//! [`DomainTable::bump`] appends its row, and a consumer holding a
//! [`JournalCursor`] reads the rows bumped since it last looked
//! ([`DomainTable::changes_since`]) instead of re-reading every
//! generation. See DESIGN.md §9.

use std::cell::{Ref, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

use dsec_wire::{FnvHashMap, Name};

use crate::domain::Domain;
use crate::RegistrarId;

/// Lazily maintained canonical-order view of the live rows.
#[derive(Debug, Default)]
struct OrderCache {
    /// Live rows sorted by name (RFC 4034 canonical order).
    sorted: Vec<u32>,
    /// Set whenever liveness changes; the next reader rebuilds.
    dirty: bool,
}

/// A position in one table's change journal: the journal it belongs to
/// and how many bumps that journal had seen. Only the table that issued
/// it can read from it ([`DomainTable::changes_since`]).
#[derive(Debug, Clone, Copy)]
pub struct JournalCursor {
    journal: u64,
    at: u64,
}

/// Source of journal identities. Process-unique rather than derived from
/// the table's address: allocators reuse addresses, and a cursor must
/// never read a journal it was not issued by.
static NEXT_JOURNAL: AtomicU64 = AtomicU64::new(0);

/// The operator column's "none": the row is dead.
const NO_OPERATOR: u32 = u32::MAX;

/// The registry-side columnar table: sponsor, change generation,
/// liveness and DNS operator per delegated name. See the module docs
/// for the layout.
#[derive(Debug)]
pub struct DomainTable {
    /// Row → canonical name (the API edge; never shrinks).
    names: Vec<Name>,
    /// Row → sponsoring registrar (last known for dead rows).
    sponsor: Vec<RegistrarId>,
    /// Row → change generation. Survives removal and re-registration.
    generation: Vec<u64>,
    /// Row → whether the delegation currently exists.
    live: Vec<bool>,
    /// Row → index into `operators`, [`NO_OPERATOR`] while dead.
    operator: Vec<u32>,
    /// Operator id → operator key, in first-write order. Ids are dense
    /// per table: a registry's few hundred operators, not the world's.
    operators: Vec<Name>,
    /// Operator key → id.
    operator_ids: FnvHashMap<Name, u32>,
    /// Name → row. The single hash probe on the lookup edge.
    index: FnvHashMap<Name, u32>,
    live_count: usize,
    order: RefCell<OrderCache>,
    /// This journal's identity (see [`NEXT_JOURNAL`]).
    journal_id: u64,
    /// Rows bumped since `journal_base`, oldest first, one per bump.
    journal: Vec<u32>,
    /// How many bumps were journaled and since forgotten: the absolute
    /// position of `journal[0]`.
    journal_base: u64,
}

impl Default for DomainTable {
    fn default() -> Self {
        Self::new()
    }
}

impl DomainTable {
    /// An empty table.
    pub fn new() -> Self {
        DomainTable {
            names: Vec::new(),
            sponsor: Vec::new(),
            generation: Vec::new(),
            live: Vec::new(),
            operator: Vec::new(),
            operators: Vec::new(),
            operator_ids: FnvHashMap::default(),
            index: FnvHashMap::default(),
            live_count: 0,
            order: RefCell::default(),
            // Relaxed: the counter only hands out distinct numbers.
            journal_id: NEXT_JOURNAL.fetch_add(1, Ordering::Relaxed),
            journal: Vec::new(),
            journal_base: 0,
        }
    }

    /// The row for `name`, if the table has ever seen it (live or dead).
    pub fn row_of(&self, name: &Name) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// The row for `name`, creating a dead generation-0 row on first
    /// sight.
    pub fn intern_row(&mut self, name: &Name) -> u32 {
        if let Some(row) = self.row_of(name) {
            return row;
        }
        let row = self.names.len() as u32;
        let canonical = name.to_canonical();
        self.names.push(canonical.clone());
        self.sponsor.push(RegistrarId(u32::MAX));
        self.generation.push(0);
        self.live.push(false);
        self.operator.push(NO_OPERATOR);
        self.index.insert(canonical, row);
        row
    }

    /// The canonical name at `row`.
    pub fn name(&self, row: u32) -> &Name {
        &self.names[row as usize]
    }

    /// The change generation at `row`.
    pub fn generation(&self, row: u32) -> u64 {
        self.generation[row as usize]
    }

    /// The change generation of `name` (0 = never seen).
    pub fn generation_of(&self, name: &Name) -> u64 {
        self.row_of(name).map_or(0, |row| self.generation(row))
    }

    /// Bumps the change generation at `row` and journals the row. Every
    /// scan-observable edit ends here (a liveness change is always paired
    /// with a bump), so the journal misses nothing the generation shows.
    ///
    /// The journal bounds itself: once it is longer than the table has
    /// rows it is forgotten and its base advanced. A consumer that far
    /// behind gets `None` from [`DomainTable::changes_since`] and sweeps
    /// the table instead, which costs it no more than replaying would.
    pub fn bump(&mut self, row: u32) {
        self.generation[row as usize] += 1;
        self.journal.push(row);
        if self.journal.len() > self.names.len() {
            self.journal_base += self.journal.len() as u64;
            self.journal.clear();
        }
    }

    /// The end of the change journal: a later
    /// [`DomainTable::changes_since`] from here yields the rows bumped
    /// in between.
    pub fn journal_cursor(&self) -> JournalCursor {
        JournalCursor {
            journal: self.journal_id,
            at: self.journal_base + self.journal.len() as u64,
        }
    }

    /// The rows bumped since `cursor` was taken, oldest first, one per
    /// bump (a row bumped twice appears twice; it may be dead by now).
    /// `None` when the cursor was issued by another table or the journal
    /// has since forgotten that far back.
    pub fn changes_since(&self, cursor: JournalCursor) -> Option<&[u32]> {
        if cursor.journal != self.journal_id {
            return None;
        }
        let skip = usize::try_from(cursor.at.checked_sub(self.journal_base)?).ok()?;
        self.journal.get(skip..)
    }

    /// Whether the delegation at `row` currently exists.
    pub fn is_live(&self, row: u32) -> bool {
        self.live[row as usize]
    }

    /// The sponsor at `row` if the row is live.
    pub fn sponsor(&self, row: u32) -> Option<RegistrarId> {
        self.live[row as usize].then(|| self.sponsor[row as usize])
    }

    /// Re-sponsors a live row (registrar transfer; order and generation
    /// untouched — transfers are invisible on the wire).
    pub fn set_sponsor(&mut self, row: u32, sponsor: RegistrarId) {
        self.sponsor[row as usize] = sponsor;
    }

    /// Marks `row` live under `sponsor` (registration or revival).
    pub fn set_live(&mut self, row: u32, sponsor: RegistrarId) {
        let i = row as usize;
        if !self.live[i] {
            self.live[i] = true;
            self.live_count += 1;
            self.order.get_mut().dirty = true;
        }
        self.sponsor[i] = sponsor;
    }

    /// Marks `row` dead (delegation removed) and clears its operator. The
    /// generation column is kept so a re-registration resumes at a
    /// strictly larger value.
    pub fn set_dead(&mut self, row: u32) {
        let i = row as usize;
        if self.live[i] {
            self.live[i] = false;
            self.live_count -= 1;
            self.order.get_mut().dirty = true;
        }
        self.operator[i] = NO_OPERATOR;
    }

    /// The DNS operator id at `row` (an index into
    /// [`DomainTable::operators`]), `None` for a dead row.
    pub(crate) fn operator(&self, row: u32) -> Option<u32> {
        let id = self.operator[row as usize];
        (id != NO_OPERATOR).then_some(id)
    }

    /// Operator keys by id, in the order they were first written.
    pub(crate) fn operators(&self) -> &[Name] {
        &self.operators
    }

    /// Records `key` as the DNS operator at `row`, giving the key an id
    /// on first sight.
    pub(crate) fn set_operator(&mut self, row: u32, key: Name) {
        let id = match self.operator_ids.get(&key) {
            Some(&id) => id,
            None => {
                let id = self.operators.len() as u32;
                self.operators.push(key.clone());
                self.operator_ids.insert(key, id);
                id
            }
        };
        self.operator[row as usize] = id;
    }

    /// Number of live delegations.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Rebuilds the canonical-order row index if liveness changed since
    /// the last enumeration, then returns a borrow of it.
    fn ensure_order(&self) -> Ref<'_, OrderCache> {
        if self.order.borrow().dirty {
            let names = &self.names;
            let mut sorted: Vec<u32> = (0..self.names.len() as u32)
                .filter(|&row| self.live[row as usize])
                .collect();
            sorted.sort_unstable_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));
            *self.order.borrow_mut() = OrderCache {
                sorted,
                dirty: false,
            };
        }
        self.order.borrow()
    }

    /// Live rows in canonical (RFC 4034) order: `(row, &name, generation)`.
    /// The scanner's enumeration edge — generation reads are column reads,
    /// not map probes.
    pub fn ordered(&self) -> OrderedRows<'_> {
        OrderedRows {
            guard: self.ensure_order(),
            table: self,
            pos: 0,
        }
    }

    /// Live names in canonical order (the "zone file" view).
    pub fn ordered_names(&self) -> impl Iterator<Item = &Name> {
        self.ordered().map(|(_, name, _)| name)
    }
}

/// Iterator over a [`DomainTable`]'s live rows in canonical order,
/// borrowing the order cache for its lifetime.
pub struct OrderedRows<'a> {
    guard: Ref<'a, OrderCache>,
    table: &'a DomainTable,
    pos: usize,
}

impl<'a> Iterator for OrderedRows<'a> {
    type Item = (u32, &'a Name, u64);

    fn next(&mut self) -> Option<Self::Item> {
        let &row = self.guard.sorted.get(self.pos)?;
        self.pos += 1;
        Some((
            row,
            &self.table.names[row as usize],
            self.table.generation[row as usize],
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.guard.sorted.len() - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for OrderedRows<'_> {}

/// The world-side store: dense [`Domain`] payload rows, indexed by name,
/// enumerated in canonical order. Mirrors the `BTreeMap<Name, Domain>`
/// surface it replaced (domains are never removed from the world, so
/// there are no tombstones).
#[derive(Debug, Default)]
pub struct DomainStore {
    /// Row → domain payload (insertion-ordered, dense).
    rows: Vec<Domain>,
    index: FnvHashMap<Name, u32>,
    order: RefCell<OrderCache>,
}

impl DomainStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row for `name`, if present.
    pub fn row_of(&self, name: &Name) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// The domain payload at `row`.
    pub fn at(&self, row: u32) -> &Domain {
        &self.rows[row as usize]
    }

    /// Mutable domain payload at `row`.
    pub fn at_mut(&mut self, row: u32) -> &mut Domain {
        &mut self.rows[row as usize]
    }

    /// Lookup by name.
    pub fn get(&self, name: &Name) -> Option<&Domain> {
        self.row_of(name).map(|row| self.at(row))
    }

    /// Mutable lookup by name.
    pub fn get_mut(&mut self, name: &Name) -> Option<&mut Domain> {
        self.row_of(name).map(|row| &mut self.rows[row as usize])
    }

    /// Whether `name` has a row.
    pub fn contains_key(&self, name: &Name) -> bool {
        self.row_of(name).is_some()
    }

    /// Inserts (or replaces) the payload for `name`; returns the row.
    pub fn insert(&mut self, name: Name, domain: Domain) -> u32 {
        if let Some(row) = self.row_of(&name) {
            self.rows[row as usize] = domain;
            return row;
        }
        let row = self.rows.len() as u32;
        self.rows.push(domain);
        self.index.insert(name, row);
        self.order.get_mut().dirty = true;
        row
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn ensure_order(&self) -> Ref<'_, OrderCache> {
        if self.order.borrow().dirty {
            let rows = &self.rows;
            let mut sorted: Vec<u32> = (0..rows.len() as u32).collect();
            sorted.sort_unstable_by(|&a, &b| rows[a as usize].name.cmp(&rows[b as usize].name));
            *self.order.borrow_mut() = OrderCache {
                sorted,
                dirty: false,
            };
        }
        self.order.borrow()
    }

    /// Domains in canonical name order (the order the replaced `BTreeMap`
    /// iterated in — simulation draws depend on it, so it is part of the
    /// store's contract).
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Domain> {
        self.entries().map(|(_, domain)| domain)
    }

    /// [`DomainStore::values`] with each domain's row id — what the
    /// tick worklists store in place of names.
    pub fn entries(&self) -> StoreEntries<'_> {
        StoreEntries {
            guard: self.ensure_order(),
            store: self,
            pos: 0,
        }
    }

    /// Mutable sweep over all domains in **row (insertion) order** — for
    /// order-insensitive bulk updates only.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Domain> {
        self.rows.iter_mut()
    }
}

impl std::ops::Index<&Name> for DomainStore {
    type Output = Domain;

    fn index(&self, name: &Name) -> &Domain {
        self.get(name).expect("domain present in store")
    }
}

/// Canonical-order iterator over a [`DomainStore`]'s `(row, payload)`
/// pairs.
pub struct StoreEntries<'a> {
    guard: Ref<'a, OrderCache>,
    store: &'a DomainStore,
    pos: usize,
}

impl<'a> Iterator for StoreEntries<'a> {
    type Item = (u32, &'a Domain);

    fn next(&mut self) -> Option<Self::Item> {
        let &row = self.guard.sorted.get(self.pos)?;
        self.pos += 1;
        Some((row, &self.store.rows[row as usize]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.guard.sorted.len() - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for StoreEntries<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn rows_are_stable_across_removal_and_revival() {
        let mut t = DomainTable::new();
        let row = t.intern_row(&name("a.com"));
        t.set_live(row, RegistrarId(1));
        t.bump(row);
        assert_eq!(t.generation(row), 1);
        t.set_dead(row);
        t.bump(row);
        assert_eq!(t.live_count(), 0);
        assert_eq!(t.sponsor(row), None, "dead rows have no sponsor");
        // Revival: same row, generation continues.
        let again = t.intern_row(&name("A.COM"));
        assert_eq!(again, row, "case-insensitive identity, stable row");
        t.set_live(again, RegistrarId(2));
        t.bump(again);
        assert_eq!(t.generation(row), 3);
        assert_eq!(t.sponsor(row), Some(RegistrarId(2)));
    }

    #[test]
    fn ordered_is_canonical_and_live_only() {
        let mut t = DomainTable::new();
        for label in ["delta.com", "alpha.com", "bravo.com"] {
            let row = t.intern_row(&name(label));
            t.set_live(row, RegistrarId(1));
        }
        let dead = t.intern_row(&name("bravo.com"));
        t.set_dead(dead);
        let names: Vec<String> = t.ordered().map(|(_, n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["alpha.com.", "delta.com."]);
        // Revive: the order index catches up lazily.
        t.set_live(dead, RegistrarId(1));
        assert_eq!(t.ordered().count(), 3);
        assert_eq!(t.ordered().len(), 3);
    }

    #[test]
    fn generations_read_through_both_edges() {
        let mut t = DomainTable::new();
        assert_eq!(t.generation_of(&name("ghost.com")), 0);
        let row = t.intern_row(&name("x.com"));
        t.set_live(row, RegistrarId(1));
        t.bump(row);
        t.bump(row);
        assert_eq!(t.generation_of(&name("X.Com")), 2);
        let via_iter: Vec<u64> = t.ordered().map(|(_, _, g)| g).collect();
        assert_eq!(via_iter, vec![2], "column read matches name-keyed read");
    }

    #[test]
    fn journal_yields_one_row_per_bump_since_the_cursor() {
        let mut t = DomainTable::new();
        let rows: Vec<u32> = ["a.com", "b.com", "c.com", "d.com", "e.com", "f.com"]
            .iter()
            .map(|n| t.intern_row(&name(n)))
            .collect();
        for &row in &rows {
            t.set_live(row, RegistrarId(1));
        }
        t.bump(rows[0]);
        let cursor = t.journal_cursor();
        assert_eq!(t.changes_since(cursor), Some(&[][..]), "nothing yet");

        // Removed and revived between two looks: once per bump, in bump
        // order, and the reader finds the row live.
        t.set_dead(rows[1]);
        t.bump(rows[1]);
        t.set_live(rows[1], RegistrarId(2));
        t.bump(rows[1]);
        t.bump(rows[2]);
        assert_eq!(
            t.changes_since(cursor),
            Some(&[rows[1], rows[1], rows[2]][..])
        );
        assert!(t.is_live(rows[1]));
        // An older cursor still sees everything after it; the newest
        // one sees nothing.
        assert_eq!(t.changes_since(t.journal_cursor()), Some(&[][..]));
    }

    #[test]
    fn journal_forgets_once_longer_than_the_table() {
        let mut t = DomainTable::new();
        let a = t.intern_row(&name("a.com"));
        let b = t.intern_row(&name("b.com"));
        let start = t.journal_cursor();
        t.bump(a);
        t.bump(b);
        assert_eq!(
            t.changes_since(start),
            Some(&[a, b][..]),
            "as long as the table"
        );
        let middle = t.journal_cursor();
        // The third bump makes it longer than the table has rows.
        t.bump(a);
        assert_eq!(t.changes_since(start), None, "reaches before the discard");
        assert_eq!(
            t.changes_since(middle),
            None,
            "bumped row was discarded too"
        );
        // A cursor taken after the discard reads on from the new base.
        let fresh = t.journal_cursor();
        t.bump(b);
        assert_eq!(t.changes_since(fresh), Some(&[b][..]));
        assert_eq!(t.changes_since(start), None, "still forgotten");
    }

    #[test]
    fn journal_refuses_a_foreign_cursor() {
        let (mut ours, mut theirs) = (DomainTable::new(), DomainTable::new());
        for t in [&mut ours, &mut theirs] {
            let row = t.intern_row(&name("a.com"));
            t.bump(row);
        }
        // Same position, same contents — but another table's journal.
        assert_eq!(ours.changes_since(theirs.journal_cursor()), None);
        assert_eq!(ours.changes_since(ours.journal_cursor()), Some(&[][..]));
    }

    #[test]
    fn store_mirrors_btreemap_semantics() {
        let mut s = DomainStore::new();
        assert!(s.is_empty());
        let d = |n: &str| Domain {
            name: name(n),
            tld: crate::Tld::Com,
            registrar: RegistrarId(0),
            sponsor: RegistrarId(0),
            hosting: crate::Hosting::Owner,
            keys: None,
            created: crate::SimDate::from_ymd(2015, 1, 1),
            expires: crate::SimDate::from_ymd(2016, 1, 1),
            pending_partner_migration: false,
            registrant_email: "o@x.com".into(),
        };
        s.insert(name("zz.com"), d("zz.com"));
        s.insert(name("aa.com"), d("aa.com"));
        assert_eq!(s.len(), 2);
        assert!(s.contains_key(&name("AA.com")));
        let order: Vec<String> = s.values().map(|dom| dom.name.to_string()).collect();
        assert_eq!(order, vec!["aa.com.", "zz.com."], "canonical iteration");
        assert_eq!(s[&name("zz.com")].name, name("zz.com"));
    }
}
