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
//! * the names are not the table's: a row is the registry's TLD zone's
//!   delegation row ([`dsec_wire::Zone::add_delegation`]), whose `names`
//!   column and row index are the one name-to-row map of the TLD. The
//!   registry probes it once per name and reads this table by row. It is
//!   the only index of a domain anywhere: the world keeps its
//!   [`Domain`](crate::Domain) payloads in one column per TLD at the same
//!   rows, and a [`DomainId`] — TLD and row packed in a `u64` — names a
//!   domain to the tick and the scanner;
//! * canonical (RFC 4034) enumeration order — which the scanner and the
//!   zone files require — is a lazily maintained sorted row index in a
//!   `RefCell`, so reads stay `&self`; the reader lends the zone's
//!   names. A world is read on one thread, so the table is not `Sync`.
//!   A reader sorts only the rows added since the last one and merges
//!   them in, so a row is keyed once. The sort writes each
//!   row's [`Name::canonical_key`] into an arena and compares key bytes,
//!   a bounded chunk of rows at a time, so its scratch stays under ~32
//!   MiB at any table size; the index keeps 8 bytes a row: the sorted
//!   rows and each row's position (its rank). Code that orders a few rows
//!   sorts them by
//!   [`Ranks::of`] and compares no name. The whole world's canonical
//!   order is the five tables' orders walked in TLD *label* order (com,
//!   net, nl, org, se), since canonical order compares the TLD label
//!   first.
//!
//! A row is added with its delegation ([`DomainTable::add_row`], at the
//! zone row's number) and never removed, so a row id is a stable per-table handle that the
//! world and the scanner use as a key in place of the name.
//!
//! The table also keeps a bounded **change journal**: every
//! [`DomainTable::bump`] appends its row, and a consumer holding a
//! [`JournalCursor`] reads the rows bumped since it last looked
//! ([`DomainTable::changes_since`]) instead of re-reading every
//! generation. See DESIGN.md §9.

use std::cell::{Ref, RefCell};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use dsec_wire::{FnvHashMap, Name};

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

/// Lazily maintained canonical-order view of a [`DomainTable`]'s rows.
#[derive(Debug, Default)]
struct OrderCache {
    /// Rows sorted by name (RFC 4034 canonical order).
    sorted: Vec<u32>,
    /// Row → its position in `sorted`.
    rank: Vec<u32>,
}

impl OrderCache {
    /// Brings the order up to `names` (row → name): the rows added since
    /// the last reader are sorted [`SORT_CHUNK`] at a time
    /// ([`sorted_by_key`]), and those runs and the rows already sorted
    /// are merged into one order ([`merge_runs`]). Rows are never
    /// removed and a row's name never changes, so the rows already sorted
    /// stay a sorted run.
    fn catch_up(&mut self, names: &[Name]) {
        let added = self.sorted.len()..names.len();
        let mut runs = vec![std::mem::take(&mut self.sorted)];
        for start in added.clone().step_by(SORT_CHUNK) {
            runs.push(sorted_by_key(
                names,
                start..added.end.min(start + SORT_CHUNK),
            ));
        }
        runs.retain(|run| !run.is_empty());
        self.sorted = merge_runs(names, runs);
        self.rank.resize(names.len(), 0);
        for (pos, &row) in self.sorted.iter().enumerate() {
            self.rank[row as usize] = pos as u32;
        }
    }
}

/// The most rows [`OrderCache::catch_up`] keys at once. Their keys and
/// `(start, end, row)` tuples are about 32 bytes a row, so sorting a
/// table of any size takes ~32 MiB of scratch at most, not a copy of
/// every name: a registry of up to 2^20 rows sorts in one chunk.
const SORT_CHUNK: usize = 1 << 20;

/// The rows `rows` sorted by name: each name is written once, as its
/// [`Name::canonical_key`], into one arena, and the sort compares key
/// bytes. The arena is dropped on return.
fn sorted_by_key(names: &[Name], rows: Range<usize>) -> Vec<u32> {
    let mut arena = Vec::new();
    // (key start, key end, row)
    let mut keyed: Vec<(u32, u32, u32)> = rows
        .map(|row| {
            let start = arena.len() as u32;
            names[row].canonical_key(&mut arena);
            (start, arena.len() as u32, row as u32)
        })
        .collect();
    let key = |&(start, end, _): &(u32, u32, u32)| &arena[start as usize..end as usize];
    // Names are unique per table, so keys are too: unstable is exact.
    keyed.sort_unstable_by(|a, b| key(a).cmp(key(b)));
    keyed.iter().map(|&(_, _, row)| row).collect()
}

/// The sorted `runs` merged into one order: each step takes the least
/// head by [`Name::canonical_cmp`], so a row's name is read once as it
/// becomes a head. A single run is returned as it is.
fn merge_runs(names: &[Name], mut runs: Vec<Vec<u32>>) -> Vec<u32> {
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }
    let mut merged = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut next = vec![0; runs.len()];
    let head = |run: usize, next: &[usize]| runs[run].get(next[run]).copied();
    while let Some(run) = (0..runs.len())
        .filter(|&run| head(run, &next).is_some())
        .min_by(|&a, &b| {
            let (a, b) = (head(a, &next).unwrap(), head(b, &next).unwrap());
            names[a as usize].canonical_cmp(&names[b as usize])
        })
    {
        merged.push(runs[run][next[run]]);
        next[run] += 1;
    }
    merged
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
            sponsor: Vec::new(),
            generation: Vec::new(),
            operator: Vec::new(),
            operators: Vec::new(),
            operator_ids: FnvHashMap::default(),
            order: RefCell::default(),
            // Relaxed: the counter only hands out distinct numbers.
            journal_id: NEXT_JOURNAL.fetch_add(1, Ordering::Relaxed),
            journal: Vec::new(),
            journal_base: 0,
        }
    }

    /// Adds the next row, sponsored by `sponsor` and operated by the DNS
    /// operator keyed `operator`, at generation 0; returns its number.
    pub fn add_row(&mut self, sponsor: RegistrarId, operator: Name) -> u32 {
        let row = self.sponsor.len() as u32;
        self.sponsor.push(sponsor);
        self.generation.push(0);
        let operator = self.operator_id(operator);
        self.operator.push(operator);
        row
    }

    /// How many rows the table has: every row is below it.
    pub fn row_count(&self) -> usize {
        self.sponsor.len()
    }

    /// The change generation at `row`.
    pub fn generation(&self, row: u32) -> u64 {
        self.generation[row as usize]
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
        if self.journal.len() > self.row_count() {
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

    /// Brings the canonical-order row index up to `names` (row → name,
    /// the registry zone's column) if a row was added since the last
    /// enumeration, then returns a borrow of it.
    fn ensure_order(&self, names: &[Name]) -> Ref<'_, OrderCache> {
        debug_assert_eq!(names.len(), self.row_count(), "one name per row");
        if self.order.borrow().sorted.len() < names.len() {
            self.order.borrow_mut().catch_up(names);
        }
        self.order.borrow()
    }

    /// Canonical positions of the rows named by `names` (see [`Ranks`]).
    pub fn ranks(&self, names: &[Name]) -> Ranks<'_> {
        Ranks {
            guard: self.ensure_order(names),
        }
    }

    /// Rows in the canonical (RFC 4034) order of `names`, as `(row,
    /// generation)`. The scanner's enumeration edge — generation reads
    /// are column reads, not map probes.
    pub fn ordered(&self, names: &[Name]) -> OrderedRows<'_> {
        OrderedRows {
            guard: self.ensure_order(names),
            table: self,
            pos: 0,
        }
    }
}

/// Iterator over a [`DomainTable`]'s rows in canonical order,
/// borrowing the order cache for its lifetime.
pub struct OrderedRows<'a> {
    guard: Ref<'a, OrderCache>,
    table: &'a DomainTable,
    pos: usize,
}

impl Iterator for OrderedRows<'_> {
    type Item = (u32, u64);

    fn next(&mut self) -> Option<Self::Item> {
        let &row = self.guard.sorted.get(self.pos)?;
        self.pos += 1;
        Some((row, self.table.generation[row as usize]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.guard.sorted.len() - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for OrderedRows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// Adds a row under registrar 1 and one operator.
    fn add(t: &mut DomainTable) -> u32 {
        t.add_row(RegistrarId(1), name("op.net"))
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

    #[test]
    fn ordered_is_canonical() {
        let mut t = DomainTable::new();
        let mut names = vec![name("delta.com"), name("alpha.com")];
        for _ in &names {
            add(&mut t);
        }
        let ordered = |t: &DomainTable, names: &[Name]| -> Vec<String> {
            (t.ordered(names))
                .map(|(row, _)| names[row as usize].to_string())
                .collect()
        };
        assert_eq!(ordered(&t, &names), ["alpha.com.", "delta.com."]);
        // A row added after a read: the order index catches up lazily.
        names.push(name("bravo.com"));
        add(&mut t);
        assert_eq!(
            ordered(&t, &names),
            ["alpha.com.", "bravo.com.", "delta.com."]
        );
        assert_eq!(t.ordered(&names).len(), 3);
        let ranks = t.ranks(&names);
        assert_eq!([0, 1, 2].map(|row| ranks.of(row)), [2, 0, 1]);
    }

    #[test]
    fn chunks_merge_into_one_canonical_order() {
        let names: Vec<Name> = (0..30)
            .map(|i| name(&format!("n{}.com", i * 7 % 30)))
            .collect();
        // Three runs, each sorted on its own, as three chunks would be.
        let runs = [0..12, 12..13, 13..30].map(|rows| sorted_by_key(&names, rows));
        let merged = merge_runs(&names, runs.to_vec());
        let mut fresh: Vec<u32> = (0..30).collect();
        fresh.sort_by(|&a, &b| names[a as usize].canonical_cmp(&names[b as usize]));
        assert_eq!(merged, fresh);
    }

    #[test]
    fn generations_read_through_both_edges() {
        let mut t = DomainTable::new();
        let row = add(&mut t);
        t.bump(row);
        t.bump(row);
        assert_eq!(t.generation(row), 2);
        let via_iter: Vec<u64> = t.ordered(&[name("x.com")]).map(|(_, g)| g).collect();
        assert_eq!(via_iter, vec![2], "column sweep matches the row read");
    }

    #[test]
    fn journal_yields_one_row_per_bump_since_the_cursor() {
        let mut t = DomainTable::new();
        let rows: Vec<u32> = (0..6).map(|_| add(&mut t)).collect();
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
        let a = add(&mut t);
        let b = add(&mut t);
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
            let row = add(t);
            t.bump(row);
        }
        // Same position, same contents — but another table's journal.
        assert_eq!(ours.changes_since(theirs.journal_cursor()), None);
        assert_eq!(ours.changes_since(ours.journal_cursor()), Some(&[][..]));
    }
}
