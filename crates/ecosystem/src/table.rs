//! Columnar, row-indexed per-domain state.
//!
//! The registration universe is write-once-read-often: a population build
//! inserts millions of domains, then campaigns sweep them every snapshot.
//! Keying that state on heap-allocated [`Name`]s means every probe hashes
//! (or compares) label bytes and every enumeration walks a pointer-chasing
//! `BTreeMap`. At 1:20 scale (~8M domains) that dominates the scan.
//!
//! Each registry's [`DomainTable`] replaces those maps with a
//! struct-of-arrays layout:
//!
//! * per-domain attributes live in dense, row-indexed columns (sponsor
//!   [`RegistrarId`], change generation and DNS operator);
//! * the only hash probe left on the edge is a 4-byte-a-slot row index:
//!   open addressing over the `names` column, keyed by each name's FNV
//!   hash under `Name`'s case-folding `Hash` and checked against
//!   `names[row]`. It is the only index of a domain anywhere: the world
//!   keeps its [`Domain`](crate::Domain) payloads in one column per TLD
//!   at the same rows, and a [`DomainId`] — TLD and row packed in a
//!   `u64` — names a domain to the tick and the scanner;
//! * canonical (RFC 4034) enumeration order — which the scanner and the
//!   zone files require — is a lazily rebuilt sorted row index in a
//!   `RefCell`, so reads stay `&self` and an unchanged population is
//!   keyed and sorted once. A world is read on one thread, so the table
//!   is not `Sync`. A rebuild writes each row's
//!   [`Name::canonical_key`] into one arena, sorts the rows by key bytes,
//!   and keeps each row's position (its rank, 4 bytes a row) beside the
//!   sorted rows. Code that orders a few rows sorts them by
//!   [`Ranks::of`] and compares no name. The whole world's canonical
//!   order is the five tables' orders walked in TLD *label* order (com,
//!   net, nl, org, se), since canonical order compares the TLD label
//!   first.
//!
//! A row is added with its delegation ([`DomainTable::add_row`]) and
//! never removed, so a row id is a stable per-table handle that the
//! world and the scanner use as a key in place of the name.
//!
//! The table also keeps a bounded **change journal**: every
//! [`DomainTable::bump`] appends its row, and a consumer holding a
//! [`JournalCursor`] reads the rows bumped since it last looked
//! ([`DomainTable::changes_since`]) instead of re-reading every
//! generation. See DESIGN.md §9.

use std::cell::{Ref, RefCell};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use dsec_wire::{FnvHashMap, FnvHasher, Name};

use crate::tld::{Tld, ALL_TLDS};
use crate::RegistrarId;

/// One delegation's identity in a world: its studied TLD in the high 32
/// bits, its registry's [`DomainTable`] row in the low 32. Rows are never
/// reused, so an id only ever means one name. The world keys its domain
/// payloads by it, the daily tick its worklists and the scanner its
/// cache slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(u64);

impl DomainId {
    /// Packs `row` of `tld`'s registry.
    #[inline]
    pub fn new(tld: Tld, row: u32) -> Self {
        DomainId(((tld as u64) << 32) | u64::from(row))
    }

    /// The TLD half.
    #[inline]
    pub fn tld(self) -> Tld {
        ALL_TLDS[(self.0 >> 32) as usize]
    }

    /// The registry row half.
    #[inline]
    pub fn row(self) -> u32 {
        self.0 as u32
    }
}

/// A `Name → row` index over a table's `names` column that stores rows
/// only: an open-addressing array of `u32` rows, [`EMPTY_SLOT`] where
/// none sits. The capacity is a power of two, at most half the slots are
/// taken, and a collision probes the next slot. A slot is found by the
/// name's FNV hash under `Name`'s case-folding `Hash`, and a row matches
/// when `names[row]` equals the name asked for, so every spelling finds
/// the same row. Rows are never removed, so there are no tombstones.
#[derive(Debug, Default)]
struct RowIndex {
    slots: Vec<u32>,
}

/// A [`RowIndex`] slot that holds no row.
const EMPTY_SLOT: u32 = u32::MAX;

impl RowIndex {
    /// The slots a fresh index starts with.
    const MIN_SLOTS: usize = 16;

    /// Where `name`'s probe sequence starts in `slots` slots: the top
    /// bits of its hash, which FNV's multiply mixes best.
    fn home(name: &Name, slots: usize) -> usize {
        let mut hasher = FnvHasher::default();
        name.hash(&mut hasher);
        (hasher.finish() >> (64 - slots.trailing_zeros())) as usize
    }

    /// The row whose name equals `name`, under any spelling.
    fn get(&self, names: &[Name], name: &Name) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = Self::home(name, self.slots.len());
        loop {
            let row = self.slots[slot];
            if row == EMPTY_SLOT {
                return None;
            }
            if names[row as usize] == *name {
                return Some(row);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Indexes `row`, whose name is the last of `names` and in no other
    /// row, doubling the slots first when it would fill more than half.
    fn insert(&mut self, names: &[Name], row: u32) {
        if names.len() * 2 > self.slots.len() {
            let slots = (self.slots.len() * 2).max(Self::MIN_SLOTS);
            self.slots = vec![EMPTY_SLOT; slots];
            for old in 0..row {
                self.place(names, old);
            }
        }
        self.place(names, row);
    }

    /// Puts `row` in the first free slot of its probe sequence.
    fn place(&mut self, names: &[Name], row: u32) {
        let mask = self.slots.len() - 1;
        let mut slot = Self::home(&names[row as usize], self.slots.len());
        while self.slots[slot] != EMPTY_SLOT {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = row;
    }
}

/// Lazily maintained canonical-order view of a [`DomainTable`]'s rows.
#[derive(Debug, Default)]
struct OrderCache {
    /// Rows sorted by name (RFC 4034 canonical order).
    sorted: Vec<u32>,
    /// Row → its position in `sorted`.
    rank: Vec<u32>,
    /// Set whenever a row is added; the next reader rebuilds.
    dirty: bool,
}

impl OrderCache {
    /// Re-sorts the rows of a table by name: each name is written once,
    /// as its [`Name::canonical_key`], into one arena, and the sort
    /// compares key bytes. The arena is dropped on return.
    fn rebuild(&mut self, names: &[Name]) {
        let mut arena = Vec::new();
        // (key start, key end, row)
        let mut keyed: Vec<(u32, u32, u32)> = (0..names.len() as u32)
            .map(|row| {
                let start = arena.len() as u32;
                names[row as usize].canonical_key(&mut arena);
                (start, arena.len() as u32, row)
            })
            .collect();
        let key = |&(start, end, _): &(u32, u32, u32)| &arena[start as usize..end as usize];
        // Names are unique per table, so keys are too: unstable is exact.
        keyed.sort_unstable_by(|a, b| key(a).cmp(key(b)));
        let sorted: Vec<u32> = keyed.iter().map(|&(_, _, row)| row).collect();
        let mut rank = vec![0; names.len()];
        for (pos, &row) in sorted.iter().enumerate() {
            rank[row as usize] = pos as u32;
        }
        *self = OrderCache {
            sorted,
            rank,
            dirty: false,
        };
    }
}

/// Canonical positions of a table's rows, borrowed from its order cache:
/// sorting rows by [`Ranks::of`] puts them in canonical name order
/// without comparing a name.
pub struct Ranks<'a> {
    guard: Ref<'a, OrderCache>,
}

impl Ranks<'_> {
    /// The position of `row` in the table's canonical enumeration:
    /// distinct for every row.
    pub fn of(&self, row: u32) -> u32 {
        self.guard.rank[row as usize]
    }
}

/// A position in one table's change journal: the journal it belongs to
/// and how many bumps that journal had seen. Only the table that issued
/// it can read from it ([`DomainTable::changes_since`]).
#[derive(Debug, Clone, Copy)]
pub struct JournalCursor {
    journal: u64,
    at: u64,
}

impl JournalCursor {
    /// Whether `self` and `other` were issued by the same table's
    /// journal, wherever in it they point. Row ids mean the same name
    /// only within one table.
    pub fn same_journal(self, other: JournalCursor) -> bool {
        self.journal == other.journal
    }
}

/// Source of journal identities. Process-unique rather than derived from
/// the table's address: allocators reuse addresses, and a cursor must
/// never read a journal it was not issued by.
static NEXT_JOURNAL: AtomicU64 = AtomicU64::new(0);

/// The registry-side columnar table: sponsor, change generation and DNS
/// operator per delegated name. See the module docs for the layout.
#[derive(Debug)]
pub struct DomainTable {
    /// Row → canonical name (the API edge; never shrinks).
    names: Vec<Name>,
    /// Row → sponsoring registrar.
    sponsor: Vec<RegistrarId>,
    /// Row → change generation.
    generation: Vec<u64>,
    /// Row → index into `operators`.
    operator: Vec<u32>,
    /// Operator id → operator key, in first-write order. Ids are dense
    /// per table: a registry's few hundred operators, not the world's.
    operators: Vec<Name>,
    /// Operator key → id.
    operator_ids: FnvHashMap<Name, u32>,
    /// Name → row over `names`. The single hash probe on the lookup edge.
    index: RowIndex,
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
            operator: Vec::new(),
            operators: Vec::new(),
            operator_ids: FnvHashMap::default(),
            index: RowIndex::default(),
            order: RefCell::default(),
            // Relaxed: the counter only hands out distinct numbers.
            journal_id: NEXT_JOURNAL.fetch_add(1, Ordering::Relaxed),
            journal: Vec::new(),
            journal_base: 0,
        }
    }

    /// The row for `name`, if it has one.
    pub fn row_of(&self, name: &Name) -> Option<u32> {
        self.index.get(&self.names, name)
    }

    /// Adds a row for `name`, which must not have one yet, sponsored by
    /// `sponsor` and operated by the DNS operator keyed `operator`, at
    /// generation 0.
    pub fn add_row(&mut self, name: &Name, sponsor: RegistrarId, operator: Name) -> u32 {
        debug_assert!(self.row_of(name).is_none(), "{name} has a row");
        let row = self.names.len() as u32;
        self.names.push(name.to_canonical());
        self.sponsor.push(sponsor);
        self.generation.push(0);
        let operator = self.operator_id(operator);
        self.operator.push(operator);
        self.index.insert(&self.names, row);
        self.order.get_mut().dirty = true;
        row
    }

    /// How many rows the table has: every row is below it.
    pub fn row_count(&self) -> usize {
        self.names.len()
    }

    /// The canonical name at `row`.
    pub fn name(&self, row: u32) -> &Name {
        &self.names[row as usize]
    }

    /// The change generation at `row`.
    pub fn generation(&self, row: u32) -> u64 {
        self.generation[row as usize]
    }

    /// The change generation of `name` (0 = not delegated).
    pub fn generation_of(&self, name: &Name) -> u64 {
        self.row_of(name).map_or(0, |row| self.generation(row))
    }

    /// Bumps the change generation at `row` and journals the row. Every
    /// scan-observable edit ends here, so the journal misses nothing the
    /// generation shows.
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
    /// bump (a row bumped twice appears twice).
    /// `None` when the cursor was issued by another table or the journal
    /// has since forgotten that far back.
    pub fn changes_since(&self, cursor: JournalCursor) -> Option<&[u32]> {
        if cursor.journal != self.journal_id {
            return None;
        }
        let skip = usize::try_from(cursor.at.checked_sub(self.journal_base)?).ok()?;
        self.journal.get(skip..)
    }

    /// The sponsor at `row`.
    pub fn sponsor(&self, row: u32) -> RegistrarId {
        self.sponsor[row as usize]
    }

    /// Re-sponsors a row (registrar transfer; order and generation
    /// untouched — transfers are invisible on the wire).
    pub fn set_sponsor(&mut self, row: u32, sponsor: RegistrarId) {
        self.sponsor[row as usize] = sponsor;
    }

    /// The DNS operator id at `row`: an index into
    /// [`DomainTable::operators`].
    pub(crate) fn operator(&self, row: u32) -> u32 {
        self.operator[row as usize]
    }

    /// Operator keys by id, in the order they were first written.
    pub(crate) fn operators(&self) -> &[Name] {
        &self.operators
    }

    /// Records `key` as the DNS operator at `row`.
    pub(crate) fn set_operator(&mut self, row: u32, key: Name) {
        self.operator[row as usize] = self.operator_id(key);
    }

    /// The id of operator `key`, given on first sight.
    fn operator_id(&mut self, key: Name) -> u32 {
        if let Some(&id) = self.operator_ids.get(&key) {
            return id;
        }
        let id = self.operators.len() as u32;
        self.operators.push(key.clone());
        self.operator_ids.insert(key, id);
        id
    }

    /// Rebuilds the canonical-order row index if a row was added since
    /// the last enumeration, then returns a borrow of it.
    fn ensure_order(&self) -> Ref<'_, OrderCache> {
        if self.order.borrow().dirty {
            self.order.borrow_mut().rebuild(&self.names);
        }
        self.order.borrow()
    }

    /// Canonical positions of the rows (see [`Ranks`]).
    pub fn ranks(&self) -> Ranks<'_> {
        Ranks {
            guard: self.ensure_order(),
        }
    }

    /// Rows in canonical (RFC 4034) order: `(row, &name, generation)`.
    /// The scanner's enumeration edge — generation reads are column reads,
    /// not map probes.
    pub fn ordered(&self) -> OrderedRows<'_> {
        OrderedRows {
            guard: self.ensure_order(),
            table: self,
            pos: 0,
        }
    }

    /// Names in canonical order (the "zone file" view).
    pub fn ordered_names(&self) -> impl Iterator<Item = &Name> {
        self.ordered().map(|(_, name, _)| name)
    }
}

/// Iterator over a [`DomainTable`]'s rows in canonical order,
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use dsec_wire::draw;

    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// Adds a row for `s` under registrar 1 and one operator.
    fn add(t: &mut DomainTable, s: &str) -> u32 {
        t.add_row(&name(s), RegistrarId(1), name("op.net"))
    }

    #[test]
    fn domain_ids_separate_tlds_and_rows() {
        assert_ne!(DomainId::new(Tld::Com, 7), DomainId::new(Tld::Net, 7));
        assert_ne!(DomainId::new(Tld::Com, 7), DomainId::new(Tld::Com, 8));
        for tld in ALL_TLDS {
            let id = DomainId::new(tld, u32::MAX);
            assert_eq!((id.tld(), id.row()), (tld, u32::MAX), "{tld:?}");
        }
    }

    /// Three spellings of one name: lower case, upper case, and
    /// alternating case.
    fn spellings(s: &str) -> [Name; 3] {
        let alternating: String = s
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i.is_multiple_of(2) {
                    c.to_ascii_uppercase()
                } else {
                    c.to_ascii_lowercase()
                }
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
        // Names like the population's: long shared registrar-slug
        // prefixes, mixed case, enough to double the slots many times.
        let slugs = [
            "GoDaddy-com",
            "godaddy-com-premium",
            "OVH-nl",
            "ovh-nl-reseller",
        ];
        let mut t = DomainTable::new();
        let mut model: BTreeMap<String, u32> = BTreeMap::new();
        let mut grown_at = Vec::new();
        for i in 0..8_000u64 {
            let slug = slugs[(draw(7, i) % slugs.len() as u64) as usize];
            let n = draw(11, i) % 4_000;
            let label = if draw(13, i).is_multiple_of(2) {
                format!("{slug}-{n}.com")
            } else {
                format!("{}-{n}.COM", slug.to_ascii_lowercase())
            };
            let slots = t.index.slots.len();
            let row = t
                .row_of(&name(&label))
                .unwrap_or_else(|| add(&mut t, &label));
            if t.index.slots.len() != slots {
                grown_at.push(t.row_count());
            }
            let expected = model.len() as u32;
            let modelled = *model.entry(label.to_ascii_lowercase()).or_insert(expected);
            assert_eq!(row, modelled, "{label}");
        }
        assert_eq!(t.row_count(), model.len());
        assert!(model.len() >= 5_000, "{} distinct names", model.len());
        assert!(grown_at.len() >= 5, "grew at {grown_at:?}");
        assert!(
            t.row_count() * 2 <= t.index.slots.len(),
            "at most half the slots are taken"
        );
        for (key, &row) in &model {
            for spelling in spellings(key) {
                assert_eq!(t.row_of(&spelling), Some(row), "{spelling}");
            }
            assert_eq!(
                t.name(row).to_string(),
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
                assert_eq!(t.row_of(&spelling), None, "{spelling}");
            }
        }
    }

    #[test]
    fn ordered_is_canonical() {
        let mut t = DomainTable::new();
        for label in ["delta.com", "alpha.com"] {
            add(&mut t, label);
        }
        let names: Vec<String> = t.ordered().map(|(_, n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["alpha.com.", "delta.com."]);
        // A row added after a read: the order index catches up lazily.
        add(&mut t, "bravo.com");
        let names: Vec<String> = t.ordered().map(|(_, n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["alpha.com.", "bravo.com.", "delta.com."]);
        assert_eq!(t.ordered().len(), 3);
    }

    #[test]
    fn generations_read_through_both_edges() {
        let mut t = DomainTable::new();
        assert_eq!(t.generation_of(&name("ghost.com")), 0);
        let row = add(&mut t, "x.com");
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
            .map(|n| add(&mut t, n))
            .collect();
        t.bump(rows[0]);
        let cursor = t.journal_cursor();
        assert_eq!(t.changes_since(cursor), Some(&[][..]), "nothing yet");

        // Bumped twice between two looks: once per bump, in bump order.
        t.bump(rows[1]);
        t.bump(rows[2]);
        t.bump(rows[1]);
        assert_eq!(
            t.changes_since(cursor),
            Some(&[rows[1], rows[2], rows[1]][..])
        );
        // An older cursor still sees everything after it; the newest
        // one sees nothing.
        assert_eq!(t.changes_since(t.journal_cursor()), Some(&[][..]));
    }

    #[test]
    fn journal_forgets_once_longer_than_the_table() {
        let mut t = DomainTable::new();
        let a = add(&mut t, "a.com");
        let b = add(&mut t, "b.com");
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
            let row = add(t, "a.com");
            t.bump(row);
        }
        // Same position, same contents — but another table's journal.
        assert_eq!(ours.changes_since(theirs.journal_cursor()), None);
        assert_eq!(ours.changes_since(ours.journal_cursor()), Some(&[][..]));
    }
}
