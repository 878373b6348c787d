//! The incremental scan cache: OpenINTEL-style cross-day reuse.
//!
//! A daily campaign re-scans every delegation in every studied TLD, but
//! between two consecutive days only a small fraction of domains change
//! (a signing, a DS upload, a hosting move). The ecosystem tracks a
//! per-domain *change generation* ([`dsec_ecosystem::World::domain_generation`])
//! that is bumped by every mutation a scan could observe, and journals
//! every bump ([`dsec_ecosystem::Registry::changes_since`]). This cache
//! keys one classified per-domain verdict on that generation, and — for
//! the scope it last scanned — keeps the *sum* of those verdicts per
//! (operator, TLD), so a warm snapshot costs what changed since the
//! previous one, not the population.
//!
//! ## Layout
//!
//! One [`FreshnessColumn`] per TLD, indexed by the registry's columnar
//! row (the low half of a [`DomainId`]). A slot is 9 bytes in three dense
//! columns: a one-byte `Class` that rebuilds the single-domain
//! [`OperatorStats`] cell, the `u32` generation of the verdict and the
//! registry's `u32` operator id. The verdict's validity window is kept
//! aside only when it is bounded (a signed row's: about 3% of rows), so
//! an unsigned row is peeked without probing that map. The operator is
//! derived from the NS set and every NS edit bumps the generation, so a
//! generation match guarantees the stored operator is current too. Each
//! column remembers the journal of the registry that filled it: row ids
//! and generations repeat across worlds, so a scan over another registry
//! starts that column empty.
//!
//! Invalidation rules (see DESIGN.md §9):
//! * a slot is served only when its generation equals the domain's
//!   current generation **and** the scan time is still inside the RRSIG
//!   validity window the verdict was computed in — the classification
//!   depends on the clock, and signatures lapsing moves no generation;
//! * unreachable/indeterminate outcomes are **never** stored in a slot —
//!   a failed observation is re-attempted every snapshot;
//! * downtime is asked, never served: while the world's fault plane
//!   ([`dsec_ecosystem::World::fault_plane`]) finds hosts down at the
//!   scan time, a row whose NS hosts include one is scanned, whatever its
//!   slot holds, and a host down that the last scan found up makes the
//!   scan a sweep.
//!
//! Downtime here means kill switches and outage windows, which are a
//! function of the clock. Random per-exchange faults (drops, SERVFAILs
//! drawn from the fault profile) are out of scope: a slot served on a day
//! such a fault would have hit the row serves the verdict of the day it
//! was observed.
//!
//! ## The warm path
//!
//! After every cached scan the cache holds the `DeltaState` of that
//! scan: the running (operator, TLD) sums, one journal cursor per TLD,
//! and the contribution of every row that has no servable slot; beside
//! it, the hosts that were down. Its invariant is *sums = Σ over the
//! in-scope rows of the row's last contribution*. The next scan
//! (`ScanCache::resume`) lists the rows the journals name since the
//! cursors, the unobserved rows and the slots whose validity window has
//! closed (a min-heap of the finite upper edges, which only bounded
//! windows have), subtracts their old
//! contributions, and hands that short list
//! — in the sweep's own (TLD, canonical name) order — to the same
//! peek → scan → retry pipeline a sweep runs. Every row not on the list
//! is a certain hit and is counted as one without being touched.
//!
//! The population sweep remains as the one fallback, chosen only from
//! what the cache can observe: no state yet (first scan), a different
//! TLD scope, `force_full`, a cursor the journal has forgotten or that
//! another world issued, a clock that moved backwards, or a host down
//! that was up at the last scan (its rows are on no list). A sweep
//! rebuilds the state. [`ScanCache::check_against_sweep`] recomputes all
//! of it from the registries (test support).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dsec_ecosystem::{
    DomainId, Freshness, FreshnessColumn, JournalCursor, Registry, Tld, World, ALL_TLDS,
};
use dsec_wire::{FnvHashMap, FnvHashSet, Name};

use crate::snapshot::{OperatorStats, ScanItem};

/// The operator key `id` stands for in `registry`, as a snapshot cell
/// spells it.
pub(crate) fn operator_name(registry: &Registry, id: u32) -> String {
    registry.operators()[id as usize].to_string()
}

/// A single-domain stats cell in one byte. Bit 0 is `with_dnskey`, bit 1
/// `with_ds`, bits 2–3 the verdict (none, full, partial, misconfigured),
/// bit 4 `unreachable` and bit 5 `indeterminate`; `domains` is always 1.
/// The last two are the unobserved classes, which are never served. The
/// byte is the verdict of a [`FreshnessColumn`] row, which owns bits 6–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Class(u8);

impl Class {
    const DNSKEY: u8 = 1;
    const DS: u8 = 1 << 1;
    const FULL: u8 = 1 << 2;
    const PARTIAL: u8 = 2 << 2;
    const MISCONFIGURED: u8 = 3 << 2;
    const VERDICT: u8 = 3 << 2;
    const UNREACHABLE: u8 = 1 << 4;
    const INDETERMINATE: u8 = 1 << 5;

    /// The class of a single-domain cell, as a scan produces it: one
    /// domain, each flag 0 or 1, at most one verdict.
    pub(crate) fn of(stats: &OperatorStats) -> Class {
        let flag = |set: u64, bit: u8| if set == 1 { bit } else { 0 };
        let class = Class(
            flag(stats.with_dnskey, Self::DNSKEY)
                | flag(stats.with_ds, Self::DS)
                | flag(stats.fully_deployed, Self::FULL)
                | flag(stats.partially_deployed, Self::PARTIAL)
                | flag(stats.misconfigured, Self::MISCONFIGURED)
                | flag(stats.unreachable, Self::UNREACHABLE)
                | flag(stats.indeterminate, Self::INDETERMINATE),
        );
        debug_assert_eq!(class.stats(), *stats, "not a single-domain cell");
        class
    }

    /// The single-domain cell this class stands for.
    pub(crate) fn stats(self) -> OperatorStats {
        let flag = |bits: u8| u64::from(self.0 & bits == bits);
        let verdict = self.0 & Self::VERDICT;
        OperatorStats {
            domains: 1,
            with_dnskey: flag(Self::DNSKEY),
            with_ds: flag(Self::DS),
            fully_deployed: u64::from(verdict == Self::FULL),
            partially_deployed: u64::from(verdict == Self::PARTIAL),
            misconfigured: u64::from(verdict == Self::MISCONFIGURED),
            unreachable: flag(Self::UNREACHABLE),
            indeterminate: flag(Self::INDETERMINATE),
        }
    }

    /// Whether this is a classified outcome (not unreachable or
    /// indeterminate): the only kind a slot may serve.
    pub(crate) fn observed(self) -> bool {
        self.0 & (Self::UNREACHABLE | Self::INDETERMINATE) == 0
    }
}

/// One TLD's slots, by registry row: each a `Class` verdict with its
/// operator id as payload.
#[derive(Debug, Clone, Default)]
struct Column {
    /// A cursor of the registry whose rows these are; `None` until a
    /// scan adopts the column.
    source: Option<JournalCursor>,
    slots: FreshnessColumn<u32>,
    /// How many slots are filled.
    filled: usize,
    /// Rendered operator keys by operator id, made on first use.
    keys: Vec<String>,
}

impl Column {
    /// What `row` adds to its (operator, TLD) cell, if it has a slot.
    fn contribution(&self, row: u32) -> Option<(u32, Class)> {
        let (class, operator) = self.slots.get(row)?;
        Some((operator, Class(class)))
    }
}

/// Per-(operator, TLD) sums: one dense vector per TLD, indexed by
/// operator id. A cell summed back to zero stays, as zero.
#[derive(Debug, Clone, Default)]
pub(crate) struct Sums([Vec<OperatorStats>; ALL_TLDS.len()]);

impl Sums {
    pub(crate) fn add(&mut self, tld: Tld, operator: u32, stats: &OperatorStats) {
        let cells = &mut self.0[tld as usize];
        let at = operator as usize;
        if at >= cells.len() {
            cells.resize(at + 1, OperatorStats::default());
        }
        cells[at].absorb(stats);
    }

    fn retract(&mut self, tld: Tld, operator: u32, stats: &OperatorStats) {
        self.0[tld as usize][operator as usize].retract(stats);
    }

    /// Every cell that counts a domain, as `(TLD, operator id, sum)`:
    /// what a sweep would emit.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (Tld, u32, &OperatorStats)> {
        ALL_TLDS.iter().flat_map(move |&tld| {
            self.0[tld as usize]
                .iter()
                .enumerate()
                .filter(|(_, sum)| **sum != OperatorStats::default())
                .map(move |(at, sum)| (tld, at as u32, sum))
        })
    }
}

/// What a cached scan leaves behind for the next one (see the module
/// docs). Invariant: `sums` is the sum, over the rows that were in
/// `scope` when `cursors` were taken, of `unobserved[row]` if present
/// and of the row's slot otherwise.
#[derive(Debug, Clone)]
struct DeltaState {
    /// The TLDs scanned, in scan order (no duplicates).
    scope: Vec<Tld>,
    /// The scan's clock; an earlier one next time means a sweep.
    now: u32,
    /// Where each scoped registry's change journal ended.
    cursors: Vec<JournalCursor>,
    sums: Sums,
    /// Rows whose last outcome was unreachable/indeterminate — no slot
    /// may hold it, yet the sums count it.
    unobserved: FnvHashMap<DomainId, (u32, Class)>,
}

/// A warm scan's starting point (see [`ScanCache::resume`]).
pub(crate) struct Resumed {
    /// The previous sums minus the old contributions of `work`.
    pub(crate) sums: Sums,
    /// The rows that must go through the pipeline again, in sweep order.
    pub(crate) work: Vec<ScanItem>,
    /// How many in-scope rows are not in `work`: certain hits.
    pub(crate) unlisted: u64,
}

/// Point-in-time counters of cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (domain unchanged).
    pub hits: u64,
    /// Lookups that fell through to a real scan (changed, new, forced,
    /// or previously unobservable).
    pub misses: u64,
    /// Entries currently held.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked
    /// up yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cross-snapshot cache of classified per-domain scan results.
#[derive(Debug, Clone, Default)]
pub struct ScanCache {
    /// One column per TLD, indexed by `Tld as usize`.
    columns: [Column; ALL_TLDS.len()],
    hits: u64,
    misses: u64,
    /// `(upper validity edge, key)` of every slot whose window closes (a
    /// bounded window with a finite upper edge), soonest first. An item
    /// is current while its slot still carries that edge; replaced or
    /// emptied slots leave items behind that are discarded when their
    /// time comes.
    lapses: BinaryHeap<Reverse<(i64, DomainId)>>,
    /// `None` until a scan completes, and while one is running.
    delta: Option<DeltaState>,
    /// The hosts down at the running (or last) scan's time, sorted.
    down: Vec<Name>,
}

impl ScanCache {
    /// An empty cache: the first scan through it is fully cold.
    pub fn new() -> Self {
        Self::default()
    }

    fn column(&self, key: DomainId) -> &Column {
        &self.columns[key.tld() as usize]
    }

    /// The cached (operator id, stats cell) for `key` if it was
    /// classified at exactly `generation` and `now` is inside the
    /// validity window of that verdict. Does not touch the hit/miss
    /// counters: the scan tallies hits and misses itself and records
    /// them once via `ScanCache::note_lookups`, together with the rows a
    /// warm scan never had to look at.
    pub(crate) fn peek(
        &self,
        key: DomainId,
        generation: u64,
        now: u32,
    ) -> Option<(u32, OperatorStats)> {
        let (class, operator) = self.column(key).slots.holding(key.row(), generation, now)?;
        let class = Class(class);
        class.observed().then(|| (operator, class.stats()))
    }

    /// Folds externally tallied lookup counts (from [`ScanCache::peek`]
    /// passes, and the rows a warm scan never had to look at) into the
    /// effectiveness counters.
    pub(crate) fn note_lookups(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }

    /// Whether a host that is down serves `item` of `world`: its slot
    /// must not answer for it.
    pub(crate) fn meets_downtime(&self, world: &World, item: &ScanItem) -> bool {
        !self.down.is_empty()
            && world
                .registry(item.key.tld())
                .ns_at(item.key.row())
                .iter()
                .any(|host| self.down.binary_search(host).is_ok())
    }

    /// Stores the verdict `class` of operator `operator` for `key`, good
    /// at `fresh`'s generation while the clock stays inside its window.
    /// Callers must not store unobserved (unreachable/indeterminate)
    /// outcomes; this is enforced with a debug assertion. The scan
    /// pipeline's: a store behind its back would not be in the sums.
    pub(crate) fn store(&mut self, key: DomainId, fresh: Freshness, operator: u32, class: Class) {
        debug_assert!(class.observed(), "unobserved outcomes must never be cached");
        if fresh.window.1 != i64::MAX {
            self.lapses.push(Reverse((fresh.window.1, key)));
        }
        let column = &mut self.columns[key.tld() as usize];
        let row = key.row();
        if column.slots.get(row).is_none() {
            column.filled += 1;
        }
        column.slots.store(row, fresh, class.0, operator);
    }

    /// The rendered key of operator `id` in `registry`, the registry of
    /// `tld`: formatted once per column, not once per scan.
    pub(crate) fn operator_key(&mut self, registry: &Registry, tld: Tld, id: u32) -> &str {
        let keys = &mut self.columns[tld as usize].keys;
        while keys.len() <= id as usize {
            keys.push(operator_name(registry, keys.len() as u32));
        }
        &keys[id as usize]
    }

    /// Prepares the columns for a sweep of `tlds`: a column filled from
    /// another registry (another world) or outside the scope starts
    /// empty, and each scoped column is sized to its registry's rows.
    pub(crate) fn begin_sweep(&mut self, world: &World, tlds: &[Tld]) {
        for (&tld, column) in ALL_TLDS.iter().zip(&mut self.columns) {
            if !tlds.contains(&tld) {
                *column = Column::default();
                continue;
            }
            let registry = world.registry(tld);
            let journal = registry.journal_cursor();
            if !column.source.is_some_and(|s| s.same_journal(journal)) {
                *column = Column {
                    source: Some(journal),
                    ..Column::default()
                };
            }
            column.slots.fit(registry.delegation_count());
        }
    }

    /// Opens a scan of `tlds` at `now`, when the sorted hosts `down` are
    /// down. Returns the warm scan's starting point, or `None` when only a
    /// sweep can be trusted: no state from a previous scan, a different
    /// scope, `force_full`, a journal cursor the registry no longer
    /// honours (forgotten, or issued by another world), a clock that
    /// moved backwards, or a host in `down` that the last scan found up.
    /// Either way the previous state is consumed; the scan installs its
    /// own with [`ScanCache::commit`].
    pub(crate) fn resume(
        &mut self,
        world: &World,
        tlds: &[Tld],
        now: u32,
        down: Vec<Name>,
        force_full: bool,
    ) -> Option<Resumed> {
        let was_down = std::mem::replace(&mut self.down, down);
        let mut state = self.delta.take()?;
        if force_full
            || state.scope != tlds
            || now < state.now
            || self
                .down
                .iter()
                .any(|host| was_down.binary_search(host).is_err())
        {
            return None;
        }
        let mut keys: Vec<DomainId> = state.unobserved.keys().copied().collect();
        for (&tld, &cursor) in tlds.iter().zip(&state.cursors) {
            let rows = world.registry(tld).changes_since(cursor)?;
            keys.extend(rows.iter().map(|&row| DomainId::new(tld, row)));
        }
        while let Some(&Reverse((upper, key))) = self.lapses.peek() {
            if upper > i64::from(now) {
                break;
            }
            self.lapses.pop();
            let fresh = self.column(key).slots.freshness(key.row());
            if fresh.is_some_and(|fresh| fresh.window.1 == upper) {
                keys.push(key);
            }
        }
        keys.sort_unstable();
        keys.dedup();

        let position = |tld: Tld| tlds.iter().position(|&t| t == tld);
        let mut work: Vec<ScanItem> = Vec::with_capacity(keys.len());
        for key in keys {
            let (tld, row) = (key.tld(), key.row());
            let old = state
                .unobserved
                .remove(&key)
                .or_else(|| self.column(key).contribution(row));
            if let Some((operator, class)) = old {
                state.sums.retract(tld, operator, &class.stats());
            }
            let generation = world.registry(tld).generation_at(row);
            work.push(ScanItem { key, generation });
        }
        let ranks: Vec<_> = tlds
            .iter()
            .map(|&tld| world.registry(tld).delegation_ranks())
            .collect();
        // Keys are distinct, so every (TLD, rank) is: unstable is exact.
        work.sort_unstable_by_key(|item| {
            let at = position(item.key.tld()).expect("work items are in scope");
            (at, ranks[at].of(item.key.row()))
        });
        let rows: usize = tlds
            .iter()
            .map(|&tld| world.registry(tld).delegation_count())
            .sum();
        Some(Resumed {
            sums: state.sums,
            unlisted: (rows - work.len()) as u64,
            work,
        })
    }

    /// Installs the state a finished scan of `tlds` at `now` leaves for
    /// the next one: its `sums`, and the contributions it could not store
    /// in slots. After a sweep the lapse index is rebuilt from the
    /// columns' bounded windows (a warm scan maintains it through
    /// [`ScanCache::store`]).
    pub(crate) fn commit(
        &mut self,
        world: &World,
        tlds: &[Tld],
        now: u32,
        sums: Sums,
        unobserved: FnvHashMap<DomainId, (u32, Class)>,
        swept: bool,
    ) {
        if swept {
            self.lapses = ALL_TLDS
                .iter()
                .zip(&self.columns)
                .flat_map(|(&tld, column)| {
                    column
                        .slots
                        .windows()
                        .filter(|&(_, (_, upper))| upper != i64::MAX)
                        .map(move |(row, (_, upper))| Reverse((upper, DomainId::new(tld, row))))
                })
                .collect();
        }
        // A scope naming a TLD twice counts its rows twice; a journal
        // names them once. Such a scope keeps sweeping.
        let distinct = (1..tlds.len()).all(|i| !tlds[..i].contains(&tlds[i]));
        self.delta = distinct.then(|| DeltaState {
            scope: tlds.to_vec(),
            now,
            cursors: tlds
                .iter()
                .map(|&tld| world.registry(tld).journal_cursor())
                .collect(),
            sums,
            unobserved,
        });
    }

    /// Recomputes by full sweep of `world`'s registries what the warm
    /// path maintains incrementally — the sums, the unobserved set, the
    /// slots, their window maps and the lapse index — and compares (test
    /// support). Rows journaled since the last scan are allowed to lag;
    /// everything else must be exactly what a sweep at the last scan's
    /// time would have served.
    #[doc(hidden)]
    pub fn check_against_sweep(&self, world: &World) -> Result<(), String> {
        let Some(state) = &self.delta else {
            return Ok(());
        };
        let mut pending: FnvHashSet<DomainId> = FnvHashSet::default();
        for (&tld, &cursor) in state.scope.iter().zip(&state.cursors) {
            match world.registry(tld).changes_since(cursor) {
                Some(rows) => pending.extend(rows.iter().map(|&row| DomainId::new(tld, row))),
                // The next scan sweeps and trusts none of this state.
                None => return Ok(()),
            }
        }
        let lapses: FnvHashSet<(i64, DomainId)> =
            self.lapses.iter().map(|&Reverse(item)| item).collect();
        let stored = |key: DomainId| {
            state
                .unobserved
                .get(&key)
                .copied()
                .or_else(|| self.column(key).contribution(key.row()))
        };

        let mut swept = Sums::default();
        for (&tld, column) in ALL_TLDS.iter().zip(&self.columns) {
            let filled = (0..column.slots.rows() as u32)
                .filter(|&row| column.slots.get(row).is_some())
                .count();
            if filled != column.filled {
                return Err(format!(
                    "{tld:?}: {filled} slots filled, {} counted",
                    column.filled
                ));
            }
            if !state.scope.contains(&tld) {
                if filled > 0 {
                    return Err(format!("{tld:?}: {filled} slots outside the scope"));
                }
                continue;
            }
            let registry = world.registry(tld);
            if !column
                .source
                .is_some_and(|s| s.same_journal(registry.journal_cursor()))
            {
                return Err(format!(
                    "{tld:?}: the column was filled from another registry"
                ));
            }
            column
                .slots
                .check_windows()
                .map_err(|e| format!("{tld:?}: {e}"))?;
            // Every closing window is indexed, whichever row holds it; an
            // unobserved row's slot is no longer served.
            for (row, window) in column.slots.windows() {
                let key = DomainId::new(tld, row);
                if window.1 != i64::MAX
                    && !state.unobserved.contains_key(&key)
                    && !lapses.contains(&(window.1, key))
                {
                    return Err(format!(
                        "{}: window {window:?} is missing from the lapse index",
                        registry.delegation_at(row).0
                    ));
                }
            }
            for (row, generation) in registry.delegations_columnar() {
                let key = DomainId::new(tld, row);
                let name = || registry.delegation_at(row).0;
                if pending.contains(&key) {
                    continue;
                }
                if !state.unobserved.contains_key(&key) {
                    let fresh = (column.slots.freshness(row))
                        .ok_or_else(|| format!("{}: contributes nothing", name()))?;
                    // A generation past `u32` is kept as 0, which never holds.
                    let kept = u32::try_from(generation).map_or(0, u64::from);
                    if fresh.generation != kept {
                        return Err(format!(
                            "{}: cached at generation {}, now at {generation}, not journaled",
                            name(),
                            fresh.generation
                        ));
                    }
                    // (A verdict taken *on* an edge has the empty window
                    // (now, now): closed already, so in the lapse index.)
                    let then = i64::from(state.now);
                    if fresh.window.0 >= then && fresh.window.1 > then {
                        return Err(format!(
                            "{}: window {:?} opens after the last scan ({then})",
                            name(),
                            fresh.window
                        ));
                    }
                }
                let (operator, class) = stored(key).expect("checked above");
                swept.add(tld, operator, &class.stats());
            }
        }
        for &key in &pending {
            if let Some((operator, class)) = stored(key) {
                swept.add(key.tld(), operator, &class.stats());
            }
        }
        if !swept.cells().eq(state.sums.cells()) {
            let name = |(tld, id, sum): (Tld, u32, &OperatorStats)| {
                format!(
                    "{tld:?} {}: {sum:?}",
                    operator_name(world.registry(tld), id)
                )
            };
            let kept: Vec<String> = state.sums.cells().map(name).collect();
            let swept: Vec<String> = swept.cells().map(name).collect();
            return Err(format!(
                "sums diverged: kept [{}], swept [{}]",
                kept.join("; "),
                swept.join("; ")
            ));
        }
        Ok(())
    }

    /// Number of cached domains.
    pub fn len(&self) -> usize {
        self.columns.iter().map(|column| column.filled).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets everything, including the hit/miss counters.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(row: u32) -> DomainId {
        DomainId::new(Tld::Com, row)
    }

    /// A scan time, and a window that never closes around it.
    const NOW: u32 = 1_000;
    const ALWAYS: (i64, i64) = Freshness::UNBOUNDED;

    fn fresh(generation: u64, window: (i64, i64)) -> Freshness {
        Freshness { generation, window }
    }

    fn cell(domains: u64) -> OperatorStats {
        OperatorStats {
            domains,
            ..OperatorStats::default()
        }
    }

    /// Every single-domain cell a scan can produce survives the class
    /// byte: `with_dnskey` × `with_ds` × each verdict, and the two
    /// unobserved outcomes.
    #[test]
    fn class_byte_round_trips_every_single_domain_cell() {
        let mut cells = Vec::new();
        for dnskey in 0..=1 {
            for ds in 0..=1 {
                for verdict in 0..4 {
                    cells.push(OperatorStats {
                        domains: 1,
                        with_dnskey: dnskey,
                        with_ds: ds,
                        fully_deployed: u64::from(verdict == 1),
                        partially_deployed: u64::from(verdict == 2),
                        misconfigured: u64::from(verdict == 3),
                        ..OperatorStats::default()
                    });
                }
            }
        }
        for unobserved in [
            OperatorStats {
                unreachable: 1,
                ..cell(1)
            },
            OperatorStats {
                indeterminate: 1,
                ..cell(1)
            },
        ] {
            cells.push(unobserved);
        }
        let mut classes = Vec::new();
        for stats in &cells {
            let class = Class::of(stats);
            assert_eq!(class.stats(), *stats, "{class:?}");
            assert_eq!(class.observed(), stats.unobserved() == 0, "{class:?}");
            classes.push(class);
        }
        classes.sort_by_key(|class| class.0);
        classes.dedup();
        assert_eq!(classes.len(), 18, "distinct cells, distinct bytes");
        let spare = !FreshnessColumn::<u32>::VERDICT;
        assert!(classes.iter().all(|class| class.0 & spare == 0));
    }

    #[test]
    fn lookup_hits_only_on_matching_generation() {
        let mut cache = ScanCache::new();
        assert!(cache.peek(key(0), 1, NOW).is_none(), "cold miss");
        cache.store(key(0), fresh(1, ALWAYS), 7, Class::of(&cell(1)));
        assert_eq!(cache.peek(key(0), 1, NOW), Some((7, cell(1))));
        assert!(cache.peek(key(0), 2, NOW).is_none(), "stale generation");
        assert!(cache.peek(key(1), 1, NOW).is_none(), "past the column");
        // Peeking counts nothing; the pass that peeked reports its tally.
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
        cache.note_lookups(1, 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    /// The bounded windows the cache's `.com` column keeps.
    fn windows(cache: &ScanCache) -> Vec<(u32, (i64, i64))> {
        let mut windows: Vec<_> = cache.columns[Tld::Com as usize].slots.windows().collect();
        windows.sort_unstable();
        windows
    }

    #[test]
    fn slots_lapse_at_the_edges_of_their_validity_window() {
        let mut cache = ScanCache::new();
        cache.store(key(0), fresh(1, (900, 1_100)), 0, Class::of(&cell(1)));
        assert_eq!(windows(&cache), [(0, (900, 1_100))], "kept beside the slot");
        assert_eq!(cache.lapses.peek(), Some(&Reverse((1_100, key(0)))));
        assert!(cache.peek(key(0), 1, 901).is_some());
        assert!(cache.peek(key(0), 1, 1_099).is_some());
        // Both edges are exclusive: the time check flips *at* the edge.
        assert!(cache.peek(key(0), 1, 900).is_none());
        assert!(cache.peek(key(0), 1, 1_100).is_none());
        assert!(cache.peek(key(0), 1, 2_000).is_none(), "signatures lapsed");
        assert!(cache.peek(key(0), 2, 1_000).is_none(), "stale generation");
        // A window bounded on one side only is kept, and checked, too.
        cache.store(key(1), fresh(1, (900, i64::MAX)), 0, Class::of(&cell(1)));
        assert!(cache.peek(key(1), 1, 900).is_none());
        assert!(cache.peek(key(1), 1, u32::MAX).is_some());
        assert_eq!(windows(&cache).len(), 2);
        assert_eq!(cache.lapses.len(), 1, "an open upper edge never lapses");
        assert_eq!(
            cache.columns[Tld::Com as usize].slots.check_windows(),
            Ok(())
        );
    }

    #[test]
    fn an_unbounded_window_takes_no_window_entry() {
        let mut cache = ScanCache::new();
        cache.store(key(0), fresh(1, ALWAYS), 0, Class::of(&cell(1)));
        assert!(windows(&cache).is_empty());
        assert!(cache.lapses.is_empty());
        assert!(cache.peek(key(0), 1, 0).is_some());
        assert!(cache.peek(key(0), 1, u32::MAX).is_some());
        // A row that was bounded gives its entry back when it is not.
        cache.store(key(1), fresh(1, (900, 1_100)), 0, Class::of(&cell(1)));
        cache.store(key(1), fresh(2, ALWAYS), 0, Class::of(&cell(1)));
        assert!(windows(&cache).is_empty());
        assert!(cache.peek(key(1), 2, 2_000).is_some());
        assert_eq!(
            cache.columns[Tld::Com as usize].slots.check_windows(),
            Ok(())
        );
    }

    #[test]
    fn a_generation_past_u32_is_never_served() {
        let mut cache = ScanCache::new();
        let past = u64::from(u32::MAX) + 1;
        for generation in [past, past + 1] {
            cache.store(key(0), fresh(generation, ALWAYS), 7, Class::of(&cell(1)));
            assert!(cache.peek(key(0), generation, NOW).is_none());
            // Neither the low half nor the 0 it is kept as hits.
            assert!(cache
                .peek(key(0), generation & u64::from(u32::MAX), NOW)
                .is_none());
            assert!(cache.peek(key(0), 0, NOW).is_none());
        }
        // The row still counts, so its contribution can be retracted.
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.columns[Tld::Com as usize].contribution(0),
            Some((7, Class::of(&cell(1))))
        );
        cache.store(
            key(0),
            fresh(u64::from(u32::MAX), ALWAYS),
            7,
            Class::of(&cell(1)),
        );
        assert!(cache.peek(key(0), u64::from(u32::MAX), NOW).is_some());
    }

    #[test]
    fn clear_resets_counters() {
        let mut cache = ScanCache::new();
        cache.store(key(0), fresh(1, ALWAYS), 0, Class::of(&cell(1)));
        cache.note_lookups(1, 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn sums_emit_only_cells_that_count_a_domain() {
        let mut sums = Sums::default();
        sums.add(Tld::Net, 4, &cell(1));
        sums.add(Tld::Com, 0, &cell(1));
        sums.add(Tld::Com, 2, &cell(1));
        sums.retract(Tld::Com, 2, &cell(1));
        let cells: Vec<_> = sums.cells().map(|(tld, id, sum)| (tld, id, *sum)).collect();
        assert_eq!(
            cells,
            [(Tld::Com, 0, cell(1)), (Tld::Net, 4, cell(1))],
            "an emptied cell vanishes"
        );
    }

    #[test]
    #[should_panic(expected = "never be cached")]
    #[cfg(debug_assertions)]
    fn unobserved_outcomes_rejected() {
        let mut cache = ScanCache::new();
        let mut stats = cell(1);
        stats.unreachable = 1;
        cache.store(key(0), fresh(1, ALWAYS), 0, Class::of(&stats));
    }
}
